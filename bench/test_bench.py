"""The benchmark's own tests: tiny runs, input determinism, tracer restore.

Run with ``python3 -m pytest bench``.
"""

import json
import sys

import pytest

import harness
import tracing
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(workload):
    report = harness.run_workload(workload, seed=3, seconds=0, trace=False, tiny=True)
    line = harness.result_line(report, trace=False)
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == len(report["records"]) >= 1
    assert list(line["metrics"]) == list(harness.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    report = harness.run_workload("ula4-paper", seed=3, seconds=0, trace=True, tiny=True)
    line = harness.result_line(report, trace=True)
    assert line["correct"]
    assert list(line["metrics"]) == list(harness.PER_LAYER)
    values = {name: m["value"] for name, m in line["metrics"].items()}
    assert values["efield.load_efield.rows"] == 0
    assert values["beamopt.solve_sdr.calls"] == values["beamopt.design_beam.calls"] > 0
    assert values["codebook.generate_candidates.candidates"] == 24


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    first = workloads.generate(workload, 5, tmp_path / "a")
    again = workloads.generate(workload, 5, tmp_path / "b")
    other = workloads.generate(workload, 6, tmp_path / "c")
    assert first.hashes == again.hashes
    assert first.digest == again.digest != other.digest


def test_generator_rejects_negative_seed(tmp_path):
    with pytest.raises(ValueError):
        workloads.generate("ula16-sdr", -1, tmp_path)


def _bindings():
    """Every function-valued attribute of every beambook module, and the traced method."""
    modules = {n: m for n, m in sys.modules.items() if n == "beambook" or n.startswith("beambook.")}
    found = {(n, k): v for n, m in modules.items() for k, v in vars(m).items() if callable(v)}
    found[("EFieldGrid", "fields_at")] = modules["beambook.efield"].EFieldGrid.__dict__["fields_at"]
    return found


def test_tracer_patches_aliases_and_restores_every_original():
    harness.import_program()
    before = _bindings()
    with tracing.Tracer() as tracer:
        during = _bindings()
    after = _bindings()
    assert during[("beambook.codebook", "design_beam")] is not before[("beambook.codebook", "design_beam")]
    assert during[("beambook.metrics", "snap_to_grid")] is not before[("beambook.metrics", "snap_to_grid")]
    assert during[("EFieldGrid", "fields_at")] is not before[("EFieldGrid", "fields_at")]
    assert not tracer.absent
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_coverage_guard_catches_an_unpatched_alias(monkeypatch):
    install = tracing.Tracer.install

    def install_but_miss_codebook_design_beam(self):
        install(self)
        codebook = sys.modules["beambook.codebook"]
        codebook.design_beam = sys.modules["beambook.beamopt"].__dict__["design_beam"].__wrapped__

    monkeypatch.setattr(tracing.Tracer, "install", install_but_miss_codebook_design_beam)
    with pytest.raises(harness.CoverageError, match="design_beam via codebook"):
        harness.run_workload("ula16-sdr", seed=0, seconds=0, trace=True, tiny=True)
    beamopt = sys.modules["beambook.beamopt"]
    assert sys.modules["beambook.codebook"].design_beam is beamopt.design_beam
    assert not hasattr(beamopt.design_beam, "__wrapped__")


def test_benchmark_json_lists_what_the_harness_reports():
    doc = json.loads((harness.REPO_ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        name: unit for name, (unit, _, _) in harness.PER_LAYER.items()
    }
