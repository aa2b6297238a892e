"""Independent ground truth for tests: exhaustive search and random instances.

Kept apart from the production solvers on purpose; nothing here is used by
the synthesis pipeline.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._frozen import Frozen, check_count
from .beamopt import BeamWeights, PhaseSpec


class RandomInstanceSpec(Frozen):
    """A reproducible random Hermitian PSD quadratic-form instance; ``magnitude`` is "gaussian" or "unit"."""

    def __init__(self, num_elements: int, rank: int, seed: int, magnitude: str = "gaussian"):
        if not (1 <= rank <= num_elements):
            raise ValueError("rank must be in 1..num_elements")
        if magnitude not in ("gaussian", "unit"):
            raise ValueError("magnitude must be 'gaussian' or 'unit'")
        self._set(num_elements=num_elements, rank=rank, seed=seed, magnitude=magnitude)


def random_instance(spec: RandomInstanceSpec) -> np.ndarray:
    """Sum of ``rank`` random outer products; Hermitian PSD by construction."""
    rng = np.random.default_rng(spec.seed)
    L, r = spec.num_elements, spec.rank
    re = rng.standard_normal((r, L))
    im = rng.standard_normal((r, L))
    v = (re + 1j * im) * math.sqrt(0.5)
    if spec.magnitude == "unit":
        v = np.exp(1j * np.angle(v))
    return v.conj().T @ v


class BruteForceResult(NamedTuple):
    gain: float
    weights: BeamWeights
    n_evaluated: int


def brute_force_b3(M: np.ndarray, bits: int, max_search_bits: int = 20) -> BruteForceResult:
    """Exact discrete-phase optimum by exhaustive enumeration.

    The quadratic form is invariant to a global phase, so element 0 is
    pinned to phase zero and only 2^(b*(L-1)) assignments are evaluated.
    Refuses instances with b*L beyond ``max_search_bits``.
    """
    M = np.asarray(M, dtype=complex)
    L = M.shape[0]
    check_count("bits", bits)
    if bits * L > max_search_bits:
        raise ValueError(
            f"search space 2^{bits * L} exceeds the 2^{max_search_bits} cap; "
            "the exhaustive oracle is for tiny instances only"
        )
    n_states = 1 << bits
    n = n_states ** (L - 1)
    step = 2.0 * math.pi / n_states

    best_gain = -math.inf
    best_digits = None
    chunk = 1 << 16
    powers = n_states ** np.arange(L - 1)
    for start in range(0, n, chunk):
        idx = np.arange(start, min(start + chunk, n))
        digits = (idx[:, None] // powers[None, :]) % n_states  # (m, L-1)
        phases = np.concatenate([np.zeros((idx.size, 1)), digits * step], axis=1)
        W = np.exp(1j * phases) / math.sqrt(L)  # (m, L)
        gains = np.real(np.einsum("ml,lk,mk->m", W.conj(), M, W))
        j = int(np.argmax(gains))
        if gains[j] > best_gain:
            best_gain = float(gains[j])
            best_digits = digits[j]
    phases = np.concatenate([[0.0], best_digits * step])
    weights = BeamWeights.from_phases(phases, PhaseSpec(bits))
    return BruteForceResult(best_gain, weights, n)
