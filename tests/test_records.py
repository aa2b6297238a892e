"""The value types: immutable after construction, and no dataclass machinery at import."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beambook as bb
from beambook.cli import load_run_config


def values(tmp_path):
    """One instance of every public record and value type."""
    spec = bb.PhaseSpec.discrete(2)
    beam = bb.BeamWeights(np.full(4, 0.5 + 0.0j), spec)
    ula = bb.SyntheticUlaSpec(4, 0.5, sampling_factor=5)
    grid, dirs = bb.generate_ula_efield(ula)
    codebook = bb.Codebook([bb.CodebookEntry("ula", beam)])
    pattern = bb.composite_pattern(grid, codebook, dirs)
    M = bb.random_instance(bb.RandomInstanceSpec(4, 2, 1))
    candidates = bb.generate_candidates(grid, 2, "eigen", spec)
    kmeans = bb.KMeansConfig(num_beams=1, direction_set=dirs, phase_spec=spec, init=codebook, max_iterations=1)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"arrays": [{"synthetic": {"elements": 4, "spacing_lambda": 0.5}}],
                                  "algorithm": {"name": "greedy", "size": 1}}))
    return [
        spec, beam, bb.solve_sdr(M), bb.coordinate_descent(M, beam, spec), codebook, codebook.entries[0],
        bb.MeanGainCriterion(), bb.PercentileMixCriterion([(50.0, 1.0)]), candidates[0],
        bb.greedy_codebook(candidates, grid, bb.MeanGainCriterion(), 1, dirs), kmeans,
        bb.kmeans_codebook(kmeans, grid), dirs, bb.CoverageRegion(), ula, grid, pattern, bb.coverage_stats(pattern),
        bb.RandomInstanceSpec(4, 2, 1), bb.brute_force_b3(M, 1), load_run_config(config),
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


def test_records_are_named_tuples_that_unpack():
    beam = bb.BeamWeights(np.full(2, np.sqrt(0.5) + 0.0j), bb.PhaseSpec.continuous())
    array_id, weights = bb.CodebookEntry("ula", beam)
    assert (array_id, weights) == ("ula", beam)
    assert bb.CodebookEntry("ula", beam)._replace(array_id="b").array_id == "b"


def test_value_types_compare_and_hash_by_value():
    assert bb.PhaseSpec.discrete(3) == bb.PhaseSpec("discrete", 3) != bb.PhaseSpec.discrete(4)
    assert len({bb.PhaseSpec.discrete(3), bb.PhaseSpec("discrete", 3), bb.PhaseSpec.continuous()}) == 2
    assert bb.MeanGainCriterion(bb.CoverageRegion((0.0, 90.0))) == bb.MeanGainCriterion(bb.CoverageRegion((0.0, 90.0)))
    assert bb.PercentileMixCriterion([(50, 1)]) == bb.PercentileMixCriterion(((50.0, 1.0),))
    assert bb.SyntheticUlaSpec(4, 0.5) != bb.SyntheticUlaSpec(4, 0.65)
    assert bb.PhaseSpec.continuous() != ("continuous", None)
    assert repr(bb.PhaseSpec.discrete(3)) == "PhaseSpec(mode='discrete', bits=3)"


def test_cli_import_starts_clean_without_dataclasses():
    src = Path(bb.__file__).resolve().parents[1]
    code = "import sys, beambook.cli; sys.exit('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, check=True)
