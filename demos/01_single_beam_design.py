"""Design a single analog beam and watch the optimality brackets.

A beam for one direction (or a whole cluster of directions) maximizes the
quadratic form w^H M w subject to per-element power, and optionally b-bit
phases.  Three nested optima bracket what any design can achieve:

    discrete-phase optimum  <=  per-element-power optimum  <=  eigen bound

This script builds a random rank-2 instance, solves the semidefinite
relaxation, rounds it with Gaussian randomization, polishes with
coordinate descent, and compares everything against the exhaustive
discrete optimum (small enough to enumerate here).
"""

import numpy as np

import beambook as bb
from beambook.oracle import RandomInstanceSpec, brute_force_b3, random_instance

L, BITS, SEED = 4, 3, 2024

M = random_instance(RandomInstanceSpec(num_elements=L, rank=2, seed=SEED))
eigen_bound, eigen_vec = bb.max_eigenpair(M)
print(f"instance: {L} elements, rank 2, trace {np.trace(M).real:.3f}")
print(f"eigen bound (sum power only) ............ {eigen_bound:.6f}")

relaxed = bb.solve_sdr(M)
print(f"relaxation optimum (per-element power) .. {relaxed.objective:.6f} "
      f"(rank {relaxed.rank}, {relaxed.iterations} sweeps)")
print(f"dual certificate on that optimum ........ {relaxed.bound:.6f}")

spec = bb.PhaseSpec.discrete(BITS)
rounded = bb.gaussian_randomization(relaxed, M, n_rand=1000, phase_spec=spec, seed=SEED)
print(f"best of 1000 randomized roundings ....... {rounded.gain(M):.6f}")

polished = bb.coordinate_descent(M, rounded, spec)
print(f"after coordinate descent ................ {polished.objectives[-1]:.6f} "
      f"({polished.objectives.size - 1} sweeps)")
print(f"  sweep trace: {np.array2string(polished.objectives, precision=6)}")

exact = brute_force_b3(M, BITS)
print(f"exhaustive {BITS}-bit optimum ................ {exact.gain:.6f} "
      f"({exact.n_evaluated} assignments)")

one_call = bb.design_beam(M, spec, strategy="sdr_grp_cd", seed=SEED)
print(f"\ndesign_beam('sdr_grp_cd') reaches {one_call.gain(M):.6f} "
      f"= {one_call.gain(M) / exact.gain:.2%} of the discrete optimum")
print("weights:", np.array2string(one_call.weights, precision=4))
