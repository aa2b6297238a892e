import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import beambook as bb
import beambook.cli as cli_module
import beambook.metrics as metrics_module
from beambook.cli import main
from beambook.metrics import field_gains


def write_config(path, **overrides):
    """Write the default run config with overrides; a dict override updates its block, a None value drops the key."""
    config = {
        "arrays": [
            {
                "id": "ula",
                "synthetic": {
                    "elements": 4,
                    "spacing_lambda": 0.65,
                    "pattern_q": 0,
                    "sampling_factor": 120,
                },
            }
        ],
        "algorithm": {"name": "benchmark", "size": 4, "phase_bits": 5, "seed": 0},
        "evaluation": {"directions": {"kind": "generator"}, "percentiles": [20, 50]},
        "output_dir": "out",
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(config.get(key), dict):
            config[key] = {k: v for k, v in {**config[key], **value}.items() if v is not None}
        else:
            config[key] = value
    path.write_text(json.dumps(config, indent=2))
    return path


class TestGenEfield:
    def test_default_sampling_writes_241_directions(self, tmp_path):
        rc = main(["gen-efield", "--elements", "4", "--spacing-lambda", "0.65",
                   "--pattern-q", "0", "--out", str(tmp_path)])
        assert rc == 0
        grid = bb.load_efield(tmp_path / "efield.csv")
        assert grid.theta_axis.size == 241
        sidecar = json.loads((tmp_path / "efield.spec.json").read_text())
        assert sidecar["sampling_factor"] == 120

    def test_invalid_elements_exits_2(self, tmp_path):
        rc = main(["gen-efield", "--elements", "0", "--spacing-lambda", "0.5",
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_rerun_byte_identical(self, tmp_path):
        args = ["gen-efield", "--elements", "3", "--spacing-lambda", "0.5", "--out"]
        main(args + [str(tmp_path / "a")])
        main(args + [str(tmp_path / "b")])
        assert (tmp_path / "a/efield.csv").read_bytes() == (tmp_path / "b/efield.csv").read_bytes()
        assert (tmp_path / "a/efield.spec.json").read_bytes() == (tmp_path / "b/efield.spec.json").read_bytes()

    def test_env_var_sets_default_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BEAMBOOK_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        rc = main(["gen-efield", "--elements", "2", "--spacing-lambda", "0.5"])
        assert rc == 0
        assert (tmp_path / "envout" / "efield.csv").exists()


class TestDesign:
    def test_benchmark_produces_reference_codewords(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
        assert main(["design", "--config", str(config)]) == 0
        cb = bb.load_codebook(tmp_path / "out" / "codebook.json")
        assert cb.size == 4 and cb.phase_bits == 5
        expected = bb.benchmark_codebook(
            bb.SyntheticUlaSpec(4, 0.65), 4, bb.PhaseSpec.discrete(5), array_ids=["ula"]
        )
        for a, b in zip(cb.entries, expected.entries):
            assert np.array_equal(a.weights.weights, b.weights.weights)

    def test_same_seed_byte_identical(self, tmp_path):
        config = write_config(
            tmp_path / "cfg.json",
            algorithm={"name": "kmeans", "size": 4, "phase_bits": 5, "seed": 7,
                       "init": "benchmark", "n_randomizations": 200},
        )
        main(["design", "--config", str(config), "--output-dir", str(tmp_path / "r1")])
        main(["design", "--config", str(config), "--output-dir", str(tmp_path / "r2")])
        assert (tmp_path / "r1/codebook.json").read_bytes() == (tmp_path / "r2/codebook.json").read_bytes()
        assert (tmp_path / "r1/design_log.json").read_bytes() == (tmp_path / "r2/design_log.json").read_bytes()

    def test_design_log_carries_trace_and_seed(self, tmp_path):
        config = write_config(
            tmp_path / "cfg.json",
            algorithm={"name": "greedy", "size": 3, "phase_bits": 5, "seed": 11,
                       "candidates": {"count": 16, "method": "eigen"}},
            output_dir=str(tmp_path / "out"),
        )
        assert main(["design", "--config", str(config)]) == 0
        log = json.loads((tmp_path / "out" / "design_log.json").read_text())
        assert log["seed"] == 11
        assert len(log["trace_db"]) == 3
        assert log["trace_db"] == sorted(log["trace_db"])

    def test_kmeans_config_reproduces_reference_median(self, tmp_path):
        config = write_config(
            tmp_path / "cfg.json",
            algorithm={"name": "kmeans", "size": 4, "phase_bits": 5, "seed": 12345,
                       "init": "benchmark", "n_randomizations": 1000},
            output_dir=str(tmp_path / "out"),
        )
        assert main(["design", "--config", str(config)]) == 0
        assert main(["eval", "--config", str(config),
                     "--codebook", str(tmp_path / "out/codebook.json")]) == 0
        stats = json.loads((tmp_path / "out/stats.json").read_text())
        assert abs(stats["percentiles"]["50"] - 5.38) <= 0.2

    def test_kmeans_greedy_init_variant(self, tmp_path):
        config = write_config(
            tmp_path / "cfg.json",
            algorithm={"name": "kmeans", "size": 3, "phase_bits": 5, "seed": 4,
                       "init": "greedy", "candidates": {"count": 16, "method": "eigen"},
                       "n_randomizations": 100},
            output_dir=str(tmp_path / "out"),
        )
        assert main(["design", "--config", str(config)]) == 0
        assert bb.load_codebook(tmp_path / "out/codebook.json").size == 3

    @pytest.mark.parametrize("stop", [{"kind": "mean-threshold", "threshold_db": 50},
                                      {"kind": "percentile-threshold", "percentile": 50, "threshold_db": 50}])
    def test_size_caps_an_unreachable_threshold(self, tmp_path, stop):
        config = write_config(
            tmp_path / "cfg.json",
            algorithm={"name": "greedy", "size": 2, "phase_bits": 5, "candidates": {"count": 8}, "stop": stop},
        )
        for flags, beams in (([], 2), (["--size", "1"], 1)):
            out = tmp_path / f"out{beams}"
            assert main(["design", "--config", str(config), "--output-dir", str(out), *flags]) == 0
            assert bb.load_codebook(out / "codebook.json").size == beams
            log = json.loads((out / "design_log.json").read_text())
            assert len(log["trace_db"]) == beams
            assert log["status"] == "size reached before the stop threshold"

    @pytest.mark.parametrize("key", ["seed", "n_randomizations", "max_iterations", "candidates.count"])
    def test_null_optional_integer_designs_like_the_key_omitted(self, tmp_path, key):
        omitted = {"name": "kmeans", "size": 3, "phase_bits": 5, "init": "greedy", "candidates": {"method": "eigen"}}
        nulled = json.loads(json.dumps(omitted))
        block, _, name = key.rpartition(".")
        (nulled[block] if block else nulled)[name] = None
        for run, algorithm in (("omitted", omitted), ("null", nulled)):
            config = tmp_path / f"{run}.json"
            config.write_text(json.dumps({"arrays": [{"id": "ula", "synthetic": _ULA}], "algorithm": algorithm}))
            assert main(["design", "--config", str(config), "--output-dir", str(tmp_path / run)]) == 0
        for artifact in ("codebook.json", "design_log.json"):
            assert (tmp_path / "omitted" / artifact).read_bytes() == (tmp_path / "null" / artifact).read_bytes()

    def test_bad_config_exits_2(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"arrays": [], "algorithm": {"name": "kmeans", "size": 4}}))
        assert main(["design", "--config", str(config)]) == 2

    def test_unknown_algorithm_exits_2(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", algorithm={"name": "magic", "size": 4})
        assert main(["design", "--config", str(config)]) == 2


_KMEANS = {"name": "kmeans", "size": 4, "phase_bits": 5, "seed": 1, "init": "benchmark",
           "n_randomizations": 20}
_ULA = {"elements": 4, "spacing_lambda": 0.65, "sampling_factor": 20}

# Bad config values, each of which must be a config error (exit 2) when the
# config is loaded, whichever command loads it.
CONFIG_PROBES = {
    "negative seed": {"algorithm": {**_KMEANS, "seed": -1}},
    "non-integer seed": {"algorithm": {**_KMEANS, "seed": "x"}},
    "zero randomizations": {"algorithm": {**_KMEANS, "n_randomizations": 0}},
    "zero iterations": {"algorithm": {**_KMEANS, "max_iterations": 0}},
    "size above the 241 directions": {"algorithm": {**_KMEANS, "size": 242}},
    "empty fibonacci set": {"evaluation": {"directions": {"kind": "fibonacci", "count": 0}}},
    "zero greedy candidates": {"algorithm": {"name": "greedy", "size": 3, "phase_bits": 5,
                                             "candidates": {"count": 0}}},
    "percentile above 100": {"evaluation": {"percentiles": [150]}},
    "non-integer panel elements": {"algorithm": {**_KMEANS, "elements": "x", "spacing_lambda": 0.5}},
    "zero panel spacing": {"algorithm": {**_KMEANS, "spacing_lambda": 0}},
    "unknown kmeans init": {"algorithm": {**_KMEANS, "init": "bogus"}},
    "3c without phase_bits": {"algorithm": {"name": "3c", "size": 4, "phase_bits": None}},
    "benchmark init size not divisible by the arrays": {
        "arrays": [{"id": "a", "synthetic": _ULA}, {"id": "b", "synthetic": _ULA}],
        "algorithm": {**_KMEANS, "size": 3}},
    "benchmark init on CSV arrays without spacing_lambda": {
        "arrays": [{"id": "ula", "csv": "ula.csv"}], "algorithm": _KMEANS,
        "evaluation": {"directions": {"kind": "mesh"}}},
    "algorithm without size": {"algorithm": {**_KMEANS, "size": None}},
    "greedy init pool below size": {"algorithm": {**_KMEANS, "init": "greedy", "candidates": {"count": 2}}},
    "stop percentile above 100": {"algorithm": {"name": "greedy", "size": 3, "phase_bits": 5,
                                                "stop": {"kind": "percentile-threshold",
                                                         "percentile": 150, "threshold_db": 0}}},
    "greedy criterion region without design directions": {
        "algorithm": {"name": "greedy", "size": 3, "phase_bits": 5,
                      "criterion": {"kind": "mean", "region": {"theta": [1.0, 2.0]}}}},
    "greedy stop region without design directions": {
        "algorithm": {"name": "greedy", "size": 3, "phase_bits": 5,
                      "stop": {"kind": "mean-threshold", "threshold_db": 50, "region": {"theta": [1.0, 2.0]}}}},
    "non-string output_dir": {"output_dir": 5},
    "boolean synthetic elements": {"arrays": [{"id": "ula", "synthetic": {**_ULA, "elements": True}}],
                                   "algorithm": _KMEANS},
    "benchmark geometry with other element count than the array": {
        "algorithm": {**_KMEANS, "elements": 6, "spacing_lambda": 0.5}},
    # On the sin(theta)-weighted mesh the only nodes with theta <= 0.5 are the zero-weight pole.
    "design region of zero weight": {"algorithm": {**_KMEANS, "size": 1, "init": "uniform",
                                                   "region": {"theta": [0, 0.5]}},
                                     "evaluation": {"directions": {"kind": "mesh"}}},
    "evaluation region of zero weight": {"evaluation": {"directions": {"kind": "mesh"},
                                                        "region": {"theta": [0, 0.5]}}},
    # The config's own directory: the path exists, but reading it as a file fails.
    "CSV array path that is a directory": {"arrays": [{"id": "ula", "csv": "."}]},
    # Python's json writes and reads NaN and Infinity literals.
    "NaN stop threshold": {"algorithm": {"name": "greedy", "size": 3, "phase_bits": 5,
                                         "stop": {"kind": "mean-threshold", "threshold_db": float("nan")}}},
    "string nan stop threshold": {"algorithm": {"name": "greedy", "size": 3, "phase_bits": 5,
                                                "stop": {"kind": "mean-threshold", "threshold_db": "nan"}}},
    "infinite stop threshold": {"algorithm": {"name": "greedy", "size": 3, "phase_bits": 5,
                                              "stop": {"kind": "percentile-threshold", "percentile": 50,
                                                       "threshold_db": float("inf")}}},
}


@pytest.mark.parametrize("command", ["design", "eval"])
@pytest.mark.parametrize("probe", CONFIG_PROBES)
def test_bad_config_value_exits_2(tmp_path, probe, command):
    grid, _ = bb.generate_ula_efield(bb.SyntheticUlaSpec(4, 0.65, sampling_factor=20))
    bb.save_efield(grid, tmp_path / "ula.csv")  # so the CSV probe fails on its config, not on a missing file
    config = write_config(tmp_path / "cfg.json", **CONFIG_PROBES[probe])
    assert main([command, "--config", str(config), "--output-dir", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("command", ["design", "eval", "compare", "gen-efield"])
def test_output_dir_naming_a_file_exits_2(tmp_path, command, monkeypatch):
    designs = []
    monkeypatch.setattr(cli_module, "design_codebook", lambda config: designs.append(config))
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    config = str(write_config(tmp_path / "cfg.json"))
    args = {"design": ["--config", config, "--output-dir"], "eval": ["--config", config, "--output-dir"],
            "compare": ["--configs", config, config, "--output-dir"],
            "gen-efield": ["--elements", "4", "--spacing-lambda", "0.5", "--out"]}[command]
    assert main([command, *args, str(taken)]) == 2
    assert main([command, *args, str(taken / "sub")]) == 2
    assert taken.read_text() == "a file\n"
    assert designs == []  # the output path fails before any design runs


@pytest.mark.parametrize("command", ["design", "eval"])
def test_config_output_dir_naming_a_file_exits_2(tmp_path, command):
    (tmp_path / "taken").write_text("")
    config = write_config(tmp_path / "cfg.json", output_dir="taken")
    assert main([command, "--config", str(config)]) == 2


_BEAM = {"array": "ula", "weights": [[0.5, 0.0]] * 4}

# Bad --codebook files: (file text or None for a missing file, whether
# selfcheck must report the file as FAIL).  A JSON object without
# 'entries' is not recognisably a codebook, so selfcheck passes it as metadata.
BAD_CODEBOOKS = {
    "no phase_bits": (json.dumps({"entries": [_BEAM]}), True),
    "no entries": (json.dumps({"phase_bits": 5}), False),
    "no beams": (json.dumps({"phase_bits": 5, "entries": []}), True),
    "entry without array": (json.dumps({"phase_bits": 5, "entries": [{"weights": _BEAM["weights"]}]}), True),
    "string phase_bits": (json.dumps({"phase_bits": "x", "entries": [_BEAM]}), True),
    "non-unit-norm weights": (json.dumps({"phase_bits": 5, "entries": [{**_BEAM, "weights": [[1.0, 0.0]] * 4}]}), True),
    "weights not pairs": (json.dumps({"phase_bits": 5, "entries": [{**_BEAM, "weights": [0.5] * 4}]}), True),
    # Python's json reads NaN; the weights check must still reject it.
    "NaN weight": (json.dumps({"phase_bits": None, "entries": [
        {**_BEAM, "weights": [[float("nan"), 0.0]] + [[0.5, 0.0]] * 3}]}), True),
    "malformed JSON": ('{"phase_bits": 5,', True),
    "JSON list": ("[]", True),
    "missing file": (None, None),
}


@pytest.mark.parametrize("case", BAD_CODEBOOKS)
def test_bad_codebook_file_exits_2(tmp_path, case):
    text, selfcheck_fails = BAD_CODEBOOKS[case]
    config = write_config(tmp_path / "cfg.json")
    path = tmp_path / "codebook.json"
    if text is not None:
        path.write_text(text)
    assert main(["eval", "--config", str(config), "--codebook", str(path),
                 "--output-dir", str(tmp_path / "out")]) == 2
    if text is not None:
        assert main(["selfcheck", str(path)]) == (1 if selfcheck_fails else 0)


class TestEval:
    @pytest.fixture()
    def designed(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
        main(["design", "--config", str(config)])
        return config, tmp_path / "out"

    def test_emits_all_artifacts(self, designed):
        config, out = designed
        rc = main(["eval", "--config", str(config), "--codebook", str(out / "codebook.json")])
        assert rc == 0
        for name in ("pattern.csv", "bound.csv", "gap.csv", "stats.json", "summary.txt"):
            assert (out / name).exists()
        stats = json.loads((out / "stats.json").read_text())
        assert set(stats["percentiles"]) == {"20", "50"}
        gap = np.loadtxt(out / "gap.csv", delimiter=",", skiprows=1)
        assert np.all(gap[:, 3] >= 0.0)

    def test_single_beam_pattern_equals_beam_pattern(self, tmp_path):
        config = write_config(
            tmp_path / "cfg.json",
            algorithm={"name": "benchmark", "size": 1, "phase_bits": 5},
            output_dir=str(tmp_path / "out"),
        )
        main(["design", "--config", str(config)])
        main(["eval", "--config", str(config), "--codebook", str(tmp_path / "out/codebook.json")])
        rows = np.loadtxt(tmp_path / "out/pattern.csv", delimiter=",", skiprows=1)
        grid, dirs = bb.generate_ula_efield(bb.SyntheticUlaSpec(4, 0.65, sampling_factor=120))
        cb = bb.load_codebook(tmp_path / "out/codebook.json")
        assert cb.size == 1
        gains = field_gains(cb.entries[0].weights, *grid.fields_at(bb.snap_to_grid(dirs, grid)))
        assert_allclose(rows[:, 3], bb.db_from_linear(gains), atol=1e-12)

    def test_two_meshes_one_lookup_each(self, tmp_path, monkeypatch):
        # Two arrays on different meshes (and element counts), beams on both, interleaved.
        specs = {"a": bb.SyntheticUlaSpec(4, 0.5, sampling_factor=20),
                 "b": bb.SyntheticUlaSpec(6, 0.65, sampling_factor=31)}
        config = write_config(
            tmp_path / "cfg.json",
            arrays=[{"id": k, "synthetic": {"elements": s.num_elements, "spacing_lambda": s.spacing_over_lambda,
                                            "sampling_factor": s.sampling_factor}} for k, s in specs.items()],
            algorithm={"name": "kmeans", "size": 2, "init": "uniform"},
            evaluation={"directions": {"kind": "fibonacci", "count": 300}},
        )
        rng = np.random.default_rng(5)
        cb = bb.Codebook(tuple(
            bb.CodebookEntry(k, bb.BeamWeights.from_phases(rng.uniform(0, 2 * np.pi, specs[k].num_elements),
                                                           bb.PhaseSpec.continuous()))
            for k in "ababa"))
        bb.save_codebook(cb, tmp_path / "cb.json")

        calls = {"snap_to_grid": 0, "fields_at": 0, "field_gains": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as m:
            m.setattr(metrics_module, "snap_to_grid", counted("snap_to_grid", metrics_module.snap_to_grid))
            m.setattr(bb.EFieldGrid, "fields_at", counted("fields_at", bb.EFieldGrid.fields_at))
            m.setattr(metrics_module, "field_gains", counted("field_gains", metrics_module.field_gains))
            assert main(["eval", "--config", str(config), "--codebook", str(tmp_path / "cb.json"),
                         "--output-dir", str(tmp_path / "out")]) == 0
        assert calls == {"snap_to_grid": 2, "fields_at": 2, "field_gains": 5}

        # Each beam on its own array's mesh, computed apart from the eval path.
        dirs = bb.fibonacci_directions(300)
        grids = {k: bb.generate_ula_efield(s, array_id=k)[0] for k, s in specs.items()}
        per_beam = []
        for entry in cb.entries:
            snapped = bb.snap_to_grid(dirs, grids[entry.array_id])
            per_beam.append((snapped, field_gains(entry.weights, *grids[entry.array_id].fields_at(snapped))))
        rows = np.loadtxt(tmp_path / "out/pattern.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(rows[:, 3], bb.db_from_linear(np.max([g for _, g in per_beam], axis=0)))

        lines = (tmp_path / "out/summary.txt").read_text().splitlines()
        assert len(lines) == cb.size
        for line, entry, (snapped, g) in zip(lines, cb.entries, per_beam):
            theta, phi = re.search(r"aim=\(theta=([\d.]+), phi=([\d.]+)\)", line).groups()
            grid = grids[entry.array_id]
            assert f"array={entry.array_id} " in line
            assert np.min(np.abs(grid.theta_axis - float(theta))) <= 0.05
            assert np.min(np.abs(grid.phi_axis - float(phi))) <= 0.05
            i = int(np.argmax(g))
            assert (theta, phi) == (f"{snapped.theta[i]:.1f}", f"{snapped.phi[i]:.1f}")
            assert line.endswith(f"peak={bb.db_from_linear(g[i]):.2f} dB")

    def test_bound_only_mode(self, designed):
        config, out = designed
        rc = main(["eval", "--config", str(config), "--output-dir", str(out / "bound_only")])
        assert rc == 0
        assert (out / "bound_only" / "bound.csv").exists()
        assert not (out / "bound_only" / "pattern.csv").exists()

    def test_size_mismatch_exits_2(self, tmp_path, designed):
        config, out = designed
        other = bb.benchmark_codebook(
            bb.SyntheticUlaSpec(6, 0.5), 2, bb.PhaseSpec.discrete(5), array_ids=["ula"]
        )
        bb.save_codebook(other, tmp_path / "wrong.json")
        rc = main(["eval", "--config", str(config), "--codebook", str(tmp_path / "wrong.json"),
                   "--output-dir", str(tmp_path / "mismatch")])
        assert rc == 2
        assert not (tmp_path / "mismatch").exists()  # rejected before any output is written


class TestCompare:
    def test_three_codebooks_ordered_rows(self, tmp_path):
        bench = write_config(tmp_path / "bench.json")
        c3 = write_config(tmp_path / "c3.json", algorithm={"name": "3c", "size": 4, "phase_bits": 5})
        km = write_config(
            tmp_path / "km.json",
            algorithm={"name": "kmeans", "size": 4, "phase_bits": 5, "seed": 12345,
                       "init": "benchmark", "n_randomizations": 300},
        )
        out = tmp_path / "cmp"
        rc = main(["compare", "--configs", str(bench), str(c3), str(km), "--output-dir", str(out)])
        assert rc == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0].startswith("config,algorithm,size,mean_db,median_db")
        assert len(lines) == 4
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["bench", "c3", "km"]
        medians = [float(line.split(",")[4]) for line in lines[1:]]
        assert medians[0] < medians[1] < medians[2]

    def test_identical_configs_identical_rows(self, tmp_path):
        a = write_config(tmp_path / "a.json")
        b = write_config(tmp_path / "b.json")
        out = tmp_path / "cmp"
        main(["compare", "--configs", str(a), str(b), "--output-dir", str(out)])
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[1].split(",")[1:] == lines[2].split(",")[1:]

    def test_single_config_exits_2(self, tmp_path):
        a = write_config(tmp_path / "a.json")
        assert main(["compare", "--configs", str(a)]) == 2


class TestSelfcheck:
    def test_validates_emitted_artifacts(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
        main(["design", "--config", str(config)])
        main(["eval", "--config", str(config), "--codebook", str(tmp_path / "out/codebook.json")])
        main(["gen-efield", "--elements", "2", "--spacing-lambda", "0.5", "--out", str(tmp_path / "out")])
        assert main(["selfcheck", str(tmp_path / "out")]) == 0

    def test_detects_corruption(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
        main(["design", "--config", str(config)])
        cb_path = tmp_path / "out/codebook.json"
        data = json.loads(cb_path.read_text())
        data["entries"][0]["weights"][0] = [5.0, 0.0]  # breaks unit magnitude
        cb_path.write_text(json.dumps(data))
        assert main(["selfcheck", str(cb_path)]) == 1

    def test_missing_path_exits_2(self, tmp_path):
        assert main(["selfcheck", str(tmp_path / "nope.csv")]) == 2


class TestRegionWorkflow:
    def test_region_restricted_design_concentrates_beams(self, tmp_path):
        # beams designed for the upper hemisphere leave a much larger gap
        # in the excluded lower hemisphere
        config = write_config(
            tmp_path / "cfg.json",
            arrays=[{"id": "ula", "synthetic": {"elements": 4, "spacing_lambda": 0.5,
                                                "pattern_q": 1, "sampling_factor": 60}}],
            algorithm={"name": "kmeans", "size": 4, "phase_bits": 5, "seed": 3,
                       "init": "uniform", "n_randomizations": 300,
                       "region": {"theta": [0.0, 90.0]}},
            output_dir=str(tmp_path / "out"),
        )
        assert main(["design", "--config", str(config)]) == 0
        cb = bb.load_codebook(tmp_path / "out/codebook.json")
        grid, dirs = bb.generate_ula_efield(bb.SyntheticUlaSpec(4, 0.5, element_pattern_q=1, sampling_factor=60))
        comp = bb.composite_pattern(grid, cb, dirs)
        bound = bb.upper_bound_pattern(grid, dirs)
        gap = bb.gap_map(comp, bound).gains_db
        inside = dirs.theta <= 90.0
        strong = bound.gains_db > bound.gains_db.max() - 10.0
        gap_in = gap[inside & strong].mean()
        gap_out = gap[(~inside) & strong].mean()
        assert gap_out > gap_in
