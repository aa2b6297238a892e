"""Grow a codebook greedily and watch the coverage improve beam by beam.

The greedy synthesizer keeps a pool of candidate beams aimed at
quasi-uniform directions and repeatedly adds whichever candidate lifts
the mean composite gain the most.  Each addition targets the currently
worst-covered part of the sphere, so the utility climbs quickly at first
and saturates as the pattern approaches the per-direction eigen bound.
"""

import numpy as np

import beambook as bb

spec = bb.SyntheticUlaSpec(num_elements=4, spacing_over_lambda=0.5, element_pattern_q=2)
grid, dirs = bb.generate_ula_efield(spec)
bits5 = bb.PhaseSpec(5)

candidates = bb.generate_candidates(grid, count_per_sphere=64, method="eigen", phase_spec=bits5)
print(f"candidate pool: {len(candidates)} beams on a {len(dirs)}-direction sweep\n")

result = bb.greedy_codebook(
    candidates, grid,
    criterion=bb.MeanGainCriterion(),
    size=8,
    eval_set=dirs,
)

bound = bb.upper_bound_pattern(grid, dirs)
bound_mean = bb.coverage_stats(bound).mean_db
print("beams  mean gain   gap to bound mean")
for k, utility in enumerate(result.utilities_db, start=1):
    print(f"{k:>5}  {utility:>7.2f} dB  {bound_mean - utility:>7.2f} dB")

composite = bb.composite_pattern(grid, result.codebook, dirs)
gap = bb.gap_map(composite, bound)
covered = float(np.dot(dirs.weights, gap.gains_db < 2.0))
print(f"\nfinal codebook: {result.codebook.size} beams ({result.stop_reason})")
print(f"directions within 2 dB of the bound: {covered:.0%}")
resolved = bb.resolve_directions(grid, dirs)   # the sweep looked up on the mesh once
print("\n" + bb.codebook_summary(result.codebook, resolved, bb.entry_gains_linear(resolved, result.codebook.entries)))
