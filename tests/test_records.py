"""The value types: immutable after construction, and no dataclass machinery at import."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beambook as bb
from beambook._frozen import Frozen
from beambook.cli import load_run_config
from beambook.oracle import RandomInstanceSpec, brute_force_b3, random_instance


def values(tmp_path):
    """One instance of every public record and value type."""
    spec = bb.PhaseSpec(2)
    beam = bb.BeamWeights(np.full(4, 0.5 + 0.0j), spec)
    ula = bb.SyntheticUlaSpec(4, 0.5, sampling_factor=5)
    grid, dirs = bb.generate_ula_efield(ula)
    codebook = bb.Codebook([bb.CodebookEntry("ula", beam)])
    pattern = bb.composite_pattern(grid, codebook, dirs)
    M = random_instance(RandomInstanceSpec(4, 2, 1))
    candidates = bb.generate_candidates(grid, 2, "eigen", spec)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"arrays": [{"synthetic": {"elements": 4, "spacing_lambda": 0.5}}],
                                  "algorithm": {"name": "greedy", "size": 1}}))
    return [
        spec, beam, bb.solve_sdr(M[None])[0], bb.coordinate_descent(M[None], beam.weights[None], spec),
        codebook, codebook.entries[0],
        bb.MeanGainCriterion(), bb.PercentileMixCriterion([(50.0, 1.0)]), candidates[0],
        bb.greedy_codebook(candidates, grid, bb.MeanGainCriterion(), 1, dirs),
        bb.kmeans_codebook(grid, 1, dirs, spec, init=codebook, max_iterations=1), dirs, bb.CoverageRegion(), ula, grid, pattern, bb.coverage_stats(pattern),
        RandomInstanceSpec(4, 2, 1), brute_force_b3(M, 1), load_run_config(config),
    ]


def test_every_value_type_rejects_assignment(tmp_path):
    for value in values(tmp_path):
        fields = getattr(type(value), "_fields", None) or list(vars(value))
        name = fields[0]
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1


def test_every_value_type_equals_its_twin_and_hashes_alike(tmp_path):
    pairs = [(a, b) for a, b in zip(values(tmp_path), values(tmp_path)) if isinstance(a, Frozen)]
    assert len(pairs) == 11
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_cached_csv_cells_are_not_fields(tmp_path):
    for value, twin in zip(values(tmp_path), values(tmp_path)):
        if hasattr(type(value), "csv_cells"):
            before = repr(value), hash(value)
            value.csv_cells
            assert (repr(value), hash(value)) == before and value == twin


def test_grids_and_patterns_leave_the_callers_arrays_writable():
    axes, gains = [np.array([0.0, 90.0]), np.array([0.0])], np.zeros(2)
    fields = [np.ones((1, 2, 1), complex), np.zeros((1, 2, 1), complex)]
    grid = bb.EFieldGrid("a", *axes, *fields)
    pattern = bb.GainPattern(bb.DirectionSet([0.0, 90.0], [0.0, 0.0], [0.5, 0.5]), gains)
    stored = [grid.theta_axis, grid.phi_axis, grid.e_theta, grid.e_phi, pattern.gains_db]
    for given, kept in zip([*axes, *fields, gains], stored):
        assert given.flags.writeable and not kept.flags.writeable and not np.shares_memory(given, kept)


def test_records_are_named_tuples_that_unpack():
    beam = bb.BeamWeights(np.full(2, np.sqrt(0.5) + 0.0j), bb.PhaseSpec())
    array_id, weights = bb.CodebookEntry("ula", beam)
    assert (array_id, weights) == ("ula", beam)
    assert bb.CodebookEntry("ula", beam)._replace(array_id="b").array_id == "b"


def test_value_types_compare_and_hash_by_value():
    assert bb.PhaseSpec(3) == bb.PhaseSpec(3) != bb.PhaseSpec(4)
    assert len({bb.PhaseSpec(3), bb.PhaseSpec(3), bb.PhaseSpec()}) == 2
    assert bb.MeanGainCriterion(bb.CoverageRegion((0.0, 90.0))) == bb.MeanGainCriterion(bb.CoverageRegion((0.0, 90.0)))
    assert bb.PercentileMixCriterion([(50, 1)]) == bb.PercentileMixCriterion(((50.0, 1.0),))
    assert bb.SyntheticUlaSpec(4, 0.5) != bb.SyntheticUlaSpec(4, 0.65)
    assert bb.SyntheticUlaSpec(4, 0.5) == bb.SyntheticUlaSpec(4, 0.5, sampling_factor=120)
    region = bb.CoverageRegion([0, 90], [10, 20])
    assert repr(region) == "CoverageRegion(theta_range=(0.0, 90.0), phi_range=(10.0, 20.0))"
    assert hash(bb.MeanGainCriterion(region)) == hash(bb.MeanGainCriterion(bb.CoverageRegion((0, 90.0), (10.0, 20))))
    assert bb.PhaseSpec() != (None,)
    assert repr(bb.PhaseSpec(3)) == "PhaseSpec(bits=3)"


def test_cli_import_leaves_the_oracle_unloaded():
    src = Path(bb.__file__).resolve().parents[1]
    code = ("import sys, beambook.cli; assert 'beambook.oracle' not in sys.modules; "
            "from beambook.oracle import random_instance, brute_force_b3, RandomInstanceSpec")
    subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)}, check=True)


def test_cli_import_starts_clean_without_dataclasses():
    src = Path(bb.__file__).resolve().parents[1]
    code = "import sys, beambook.cli; sys.exit('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, check=True)
