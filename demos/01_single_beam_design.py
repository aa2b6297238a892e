"""Design a single analog beam and watch the optimality brackets.

A beam for one direction (or a whole cluster of directions) maximizes the
quadratic form w^H M w subject to per-element power, and optionally b-bit
phases.  Three nested optima bracket what any design can achieve:

    discrete-phase optimum  <=  per-element-power optimum  <=  eigen bound

This script builds a random rank-2 instance, solves the semidefinite
relaxation, rounds it to a feasible beam (the best lattice rotation of a
rank-one solution, else Gaussian randomization), polishes with
coordinate descent, and compares everything against the exhaustive
discrete optimum (small enough to enumerate here).  design_beam runs the
three stages in one call; eigen_beams, the cheapest beam (the lattice
snap of the dominant eigenvector), is shown for contrast.  Every stage
takes a stack of matrices and returns one result per member; a single
matrix is a stack of one.  Between the stages a stack of beams is a
(B, L) array, one beam per row.
"""

import numpy as np

import beambook as bb
from beambook.oracle import RandomInstanceSpec, brute_force_b3, random_instance

L, BITS, SEED = 4, 3, 2024

M = random_instance(RandomInstanceSpec(num_elements=L, rank=2, seed=SEED))
stack = M[None]  # a stack of one
eigen_bound = np.linalg.eigvalsh(M)[-1]
print(f"instance: {L} elements, rank 2, trace {np.trace(M).real:.3f}")
print(f"eigen bound (sum power only) ............ {eigen_bound:.6f}")

(relaxed,) = bb.solve_sdr(stack)
print(f"relaxation optimum (per-element power) .. {relaxed.objective:.6f} "
      f"(rank {relaxed.rank}, {relaxed.iterations} barrier sweeps)")
print(f"dual certificate on that optimum ........ {relaxed.bound:.6f}")

spec = bb.PhaseSpec(BITS)
rounded = bb.gaussian_randomization([relaxed], stack, n_rand=1000, phase_spec=spec, seed=[SEED])
rounding = "best lattice rotation ..................." if relaxed.rank == 1 else "best of 1000 randomized roundings ......."
print(f"{rounding} {np.real(rounded[0].conj() @ M @ rounded[0]):.6f}")

polished = bb.coordinate_descent(stack, rounded, spec)
trace = polished.objectives[:, 0]
print(f"after coordinate descent ................ {trace[-1]:.6f} ({polished.sweeps[0]} sweeps)")
print(f"  sweep trace: {np.array2string(trace, precision=6)}")

exact = brute_force_b3(M, BITS)
print(f"exhaustive {BITS}-bit optimum ................ {exact.gain:.6f} "
      f"({exact.n_evaluated} assignments)")

(one_call,) = bb.design_beam(stack, spec, seed=[SEED])
print(f"\ndesign_beam reaches {one_call.gain(M):.6f} "
      f"= {one_call.gain(M) / exact.gain:.2%} of the discrete optimum")
print("weights:", np.array2string(one_call.weights, precision=4))

(eigen,) = bb.eigen_beams(stack, spec)
print(f"eigen_beams (no relaxation, no draws) ... {eigen.gain(M):.6f} "
      f"= {eigen.gain(M) / exact.gain:.2%} of the discrete optimum")
