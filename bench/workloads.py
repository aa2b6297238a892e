"""Seeded inputs for the benchmark workloads.

Every workload is a list of jobs; a job is one run config that the
benchmark passes to ``beambook design`` and then ``beambook eval``.  The
generator writes the configs (and, for ``panels3-csv``, the E-field CSV
files) into a directory and returns the jobs together with the SHA-256 of
every file it wrote, so two runs can be shown to have used identical inputs.

The generator never imports ``beambook``: the inputs are a function of the
workload name and the seed alone, whatever the program under test does.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GRID_CSV_HEADER = "elem,theta_deg,phi_deg,re_etheta,im_etheta,re_ephi,im_ephi"

# Realized gain = GAIN_FACTOR * |w^H e|^2 for fields stored in volts; the
# synthetic panels carry sqrt(1 / GAIN_FACTOR) so |w^H e|^2 is the gain.
GAIN_FACTOR = 2.0 * math.pi / 376.730313668

WHY = {
    "ula4-paper": "the paper's L=4 K-Means reproductions plus a greedy job on iterative candidates: "
                  "per-beam overhead and randomization of rank-one candidates",
    "panels3-csv": "three perturbed L=4 panels read from E-field CSVs on a 2664-direction mesh: "
                   "mesh lookup and CSV parsing in both commands, solve_sdr about 30% of design",
    "ula16-sdr": "an L=16 array whose full-rank cluster matrices make solve_sdr most of design time; "
                 "no CSV, and mesh lookup only matters in eval",
}
WORKLOADS = tuple(WHY)

# Residual per-element errors of the panels3-csv terminal: amplitude and
# phase spread of the complex gain, and the cross-polar coupling (-40 dB).
# They are kept small because K-Means follows a different path for every
# error draw: larger errors spread the coverage numbers across seeds more
# than a regression bound can tolerate.
GAIN_SD_DB = 0.02
PHASE_SD_DEG = 0.2
XPOL = 0.01
# K-Means on the perturbed panels stops after 7 to 15 iterations depending on
# the draw; a budget below that range gives every seed the same work.
PANELS3_MAX_ITERATIONS = 6

# Median windows (dB) asserted by tests/test_acceptance.py, criteria 1 and 2,
# keyed by job name: benchmark median, proposed median and their gap, each as
# (low, high).  A bound of None leaves that side open.
PAPER_WINDOWS = {
    "ula4-065-q0": {"benchmark": (4.56, 4.96), "proposed": (5.2, None), "gap": (0.32, 0.92)},
    "ula4-050-q1": {"benchmark": (3.56, 4.56), "proposed": (3.89, 4.89), "gap": (0.03, 0.63)},
    "ula4-050-q3": {"benchmark": (1.41, 2.41), "proposed": (3.08, 4.08), "gap": (1.17, 2.17)},
}


@dataclass(frozen=True)
class Job:
    """One design + eval job of a workload."""

    name: str
    kind: str  # "kmeans" or "greedy"
    config: Path
    # Config of the closed-form benchmark codebook on the same array, for the
    # paper median windows; None when the job has no window.
    reference: Path | None = None
    windows: dict | None = None


@dataclass
class Inputs:
    jobs: list[Job]
    hashes: dict[str, str] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        """One SHA-256 over every input file name and hash."""
        text = "\n".join(f"{name} {h}" for name, h in sorted(self.hashes.items()))
        return hashlib.sha256(text.encode()).hexdigest()


def _synthetic(array_id: str, elements: int, spacing: float, q: float, a: int) -> dict:
    return {"id": array_id, "synthetic": {"elements": elements, "spacing_lambda": spacing,
                                         "pattern_q": q, "sampling_factor": a}}


def _kmeans(size: int, bits: int, seed: int, n_rand: int, max_iterations: int = 50, **extra) -> dict:
    return {"name": "kmeans", "size": size, "phase_bits": bits, "seed": seed, "init": "benchmark",
            "n_randomizations": n_rand, "max_iterations": max_iterations, **extra}


class _Writer:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.hashes: dict[str, str] = {}
        out_dir.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, text: str) -> Path:
        path = self.out_dir / name
        data = text.encode("utf-8")
        path.write_bytes(data)
        self.hashes[name] = hashlib.sha256(data).hexdigest()
        return path

    def config(self, name: str, arrays: list, algorithm: dict, evaluation: dict) -> Path:
        body = {"arrays": arrays, "algorithm": algorithm, "evaluation": evaluation}
        return self.write(f"{name}.json", json.dumps(body, indent=2, sort_keys=True) + "\n")


def _ula4_paper(w: _Writer, seed: int, tiny: bool) -> list[Job]:
    a, n_rand, cands = (20, 50, 24) if tiny else (120, 1000, 363)
    evaluation = {"percentiles": [50]}
    jobs = []
    for name, spacing, q in (("ula4-065-q0", 0.65, 0), ("ula4-050-q1", 0.5, 1), ("ula4-050-q3", 0.5, 3)):
        arrays = [_synthetic("ula", 4, spacing, q, a)]
        config = w.config(name, arrays, _kmeans(4, 5, seed, n_rand), evaluation)
        reference = w.config(f"{name}-benchmark", arrays,
                             {"name": "benchmark", "size": 4, "phase_bits": 5}, evaluation)
        jobs.append(Job(name, "kmeans", config, reference, None if tiny else PAPER_WINDOWS[name]))
    greedy = {"name": "greedy", "size": 8, "phase_bits": 5, "seed": seed, "n_randomizations": n_rand,
              "candidates": {"count": cands, "method": "iterative"}}
    config = w.config("ula4-065-greedy", [_synthetic("ula", 4, 0.65, 0, a)], greedy, evaluation)
    jobs.append(Job("ula4-065-greedy", "greedy", config))
    return jobs


def panel_fields(seed: int, step_deg: float) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Perturbed fields of the three-panel terminal: {id: (theta, phi, e_theta, e_phi)}.

    Each panel is a 4-element, half-wavelength linear array with a sin^2
    element pattern along its own axis (the stand-in of demos/05).  The
    seed draws, per element, a complex gain error and a cross-polar
    coupling with a random phase, so every direction's coherence matrix
    has rank 2.
    """
    rng = np.random.default_rng(seed)
    theta = np.arange(0.0, 180.0 + step_deg / 2, step_deg)
    phi = np.arange(0.0, 360.0 - step_deg / 2, step_deg)
    tt, pp = np.meshgrid(np.radians(theta), np.radians(phi), indexing="ij")
    n_hat = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1)
    ell = np.arange(4)
    out = {}
    for array_id, axis in (("left", (0, -1, 0)), ("right", (0, 1, 0)), ("back", (-1, 0, 0))):
        cos_psi = np.clip(n_hat @ np.asarray(axis, dtype=float), -1.0, 1.0)
        sin_sq = np.clip(1.0 - cos_psi**2, 0.0, None)  # sin^2 power pattern, amplitude sin
        phase = math.pi * cos_psi[None] * ell[:, None, None]
        ideal = math.sqrt(1.0 / GAIN_FACTOR) * np.sqrt(sin_sq)[None] * np.exp(1j * phase)
        gain = 10.0 ** (rng.normal(0.0, GAIN_SD_DB, 4) / 20.0) * np.exp(1j * np.radians(rng.normal(0.0, PHASE_SD_DEG, 4)))
        xpol = XPOL * rng.uniform(0.5, 1.5, 4) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 4))
        e_theta = gain[:, None, None] * ideal
        e_phi = (gain * xpol)[:, None, None] * ideal
        out[array_id] = (theta, phi, e_theta, e_phi)
    return out


def grid_csv(theta: np.ndarray, phi: np.ndarray, e_theta: np.ndarray, e_phi: np.ndarray) -> str:
    """E-field grid CSV text in the schema of ``beambook.load_efield``."""
    lines = [GRID_CSV_HEADER]
    for l in range(e_theta.shape[0]):
        for it, t in enumerate(theta):
            for ip, p in enumerate(phi):
                et, ep = e_theta[l, it, ip], e_phi[l, it, ip]
                lines.append(f"{l},{float(t)!r},{float(p)!r},{float(et.real)!r},{float(et.imag)!r},"
                             f"{float(ep.real)!r},{float(ep.imag)!r}")
    return "\n".join(lines) + "\n"


def _panels3_csv(w: _Writer, seed: int, tiny: bool) -> list[Job]:
    step, n_rand = (30.0, 50) if tiny else (5.0, 1000)
    arrays = []
    for array_id, fields in panel_fields(seed, step).items():
        w.write(f"{array_id}.csv", grid_csv(*fields))
        arrays.append({"id": array_id, "csv": f"{array_id}.csv"})
    # CSV arrays carry no spec, so the benchmark init names the panel geometry.
    algorithm = _kmeans(12, 5, seed, n_rand, PANELS3_MAX_ITERATIONS, elements=4, spacing_lambda=0.5)
    evaluation = {"directions": {"kind": "mesh"}, "percentiles": [50]}
    return [Job("panels3", "kmeans", w.config("panels3", arrays, algorithm, evaluation))]


def _ula16_sdr(w: _Writer, seed: int, tiny: bool) -> list[Job]:
    L, a, n_rand = (6, 40, 50) if tiny else (16, 480, 1000)
    arrays = [_synthetic("ula16", L, 0.5, 2, a)]
    config = w.config("ula16", arrays, _kmeans(L, 3, seed, n_rand), {"percentiles": [50]})
    return [Job("ula16", "kmeans", config)]


_GENERATORS = {"ula4-paper": _ula4_paper, "panels3-csv": _panels3_csv, "ula16-sdr": _ula16_sdr}


def generate(workload: str, seed: int, out_dir: Path, tiny: bool = False) -> Inputs:
    """Write the workload's inputs for ``seed`` into ``out_dir``.

    ``tiny`` shrinks every size so the benchmark's own tests run in seconds;
    tiny jobs carry no paper median windows.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload '{workload}'")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    writer = _Writer(Path(out_dir))
    jobs = _GENERATORS[workload](writer, seed, tiny)
    return Inputs(jobs, writer.hashes)
