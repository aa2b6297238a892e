"""Coordinate the codebooks of a terminal with three antenna panels.

Only one panel transmits at a time, so the composite pattern is the max
over all beams of all panels.  Designing each panel independently (the
replicated benchmark) wastes beams where panels overlap; the joint
K-Means run sees all panels at once and reallocates beams to wherever
they help the spherical coverage most.
"""

import numpy as np

import beambook as bb

spec = bb.SyntheticUlaSpec(num_elements=4, spacing_over_lambda=0.5, element_pattern_q=2)
theta_axis = np.arange(0.0, 180.1, 5.0)
phi_axis = np.arange(0.0, 359.9, 5.0)
panels = {
    "left": (0, -1, 0),
    "right": (0, 1, 0),
    "back": (-1, 0, 0),
}
grids = {name: bb.oriented_ula_efield(spec, axis, theta_axis, phi_axis, name)
         for name, axis in panels.items()}
dirs = bb.mesh_directions(grids["left"])
bits5 = bb.PhaseSpec(5)

replicated = bb.benchmark_codebook(spec, 4, bits5, array_ids=list(grids))
joint = bb.kmeans_codebook(grids, num_beams=12, direction_set=dirs, phase_spec=bits5,
                           init=replicated, n_rand=1000, seed=7)


def stats(cb):
    return bb.coverage_stats(bb.composite_pattern(grids, cb, dirs), [20, 50])


bound = bb.coverage_stats(bb.upper_bound_pattern(grids, dirs), [20, 50])
rows = [
    ("replicated benchmark", stats(replicated)),
    ("joint K-Means", stats(joint.codebook)),
    ("upper bound", bound),
]
print(f"{'codebook':<22}{'mean':>8}{'p20':>8}{'median':>8}")
for name, s in rows:
    print(f"{name:<22}{s.mean_db:>7.2f}{s.percentiles[20.0]:>8.2f}{s.median_db:>8.2f}")

print(f"\njoint run converged in {joint.iterations} iterations ({joint.stop_reason})")
allocation = {name: 0 for name in grids}
for entry in joint.codebook.entries:
    allocation[entry.array_id] += 1
print("beams per panel after the joint design:", allocation)
