import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import beambook as bb
import beambook.cli as cli_module
import beambook.metrics as metrics_module
from beambook.cli import design_codebook, main
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
            bb.SyntheticUlaSpec(4, 0.65), 4, bb.PhaseSpec(5), array_ids=["ula"]
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

    def test_a_greedy_init_short_of_distinct_beams_is_a_config_error(self, tmp_path, capsys):
        # Eight 1-bit eigen candidates hold fewer than six distinct beams; greedy picks each once.
        config = write_config(
            tmp_path / "cfg.json",
            algorithm={"name": "kmeans", "size": 6, "phase_bits": 1, "init": "greedy",
                       "candidates": {"count": 8, "method": "eigen"}},
            output_dir=str(tmp_path / "out"),
        )
        assert main(["design", "--config", str(config)]) == 2
        assert re.search(r"greedy init found [1-5] distinct candidate beams, fewer than size 6", capsys.readouterr().err)

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

    @pytest.mark.parametrize("name", ["kmeans", "benchmark", "3c"])
    def test_size_is_the_total_beam_count_on_a_multi_array_terminal(self, tmp_path, capsys, name):
        # The closed-form codebooks split "size" across the arrays as the benchmark K-Means init does.
        arrays = [{"id": a, "synthetic": {**_ULA, "sampling_factor": 10}} for a in "abc"]
        algorithm = {"name": name, "size": 12, "phase_bits": 3, "n_randomizations": 20}
        config = write_config(tmp_path / "cfg.json", arrays=arrays, algorithm=algorithm)
        assert main(["design", "--config", str(config), "--output-dir", str(tmp_path / "out")]) == 0
        codebook = bb.load_codebook(tmp_path / "out" / "codebook.json")
        assert [e.array_id for e in codebook.entries] == [a for a in "abc" for _ in range(4)]
        config = write_config(tmp_path / "cfg.json", arrays=arrays, algorithm={**algorithm, "size": 13})
        capsys.readouterr()
        assert main(["design", "--config", str(config), "--output-dir", str(tmp_path / "odd")]) == 2
        assert "needs a codebook size divisible by the number of arrays" in capsys.readouterr().err

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
    "NaN percentile weight": {"algorithm": {"name": "greedy", "size": 2, "phase_bits": 5,
                                            "criterion": {"kind": "percentiles", "points": [[50, float("nan")]]}}},
    "infinite percentile weight": {"algorithm": {"name": "greedy", "size": 2, "phase_bits": 5,
                                                 "criterion": {"kind": "percentiles",
                                                               "points": [[50, float("inf")], [20, 1]]}}},
    "NaN panel spacing": {"algorithm": {**_KMEANS, "spacing_lambda": float("nan")}},
    "infinite panel spacing, unused": {"algorithm": {**_KMEANS, "init": "uniform", "spacing_lambda": float("inf")}},
    "NaN synthetic spacing": {"arrays": [{"id": "ula", "synthetic": {**_ULA, "spacing_lambda": float("nan")}}]},
    "infinite synthetic spacing": {"arrays": [{"id": "ula",
                                               "synthetic": {**_ULA, "spacing_lambda": float("inf")}}]},
    "NaN synthetic pattern_q": {"arrays": [{"id": "ula", "synthetic": {**_ULA, "pattern_q": float("nan")}}]},
    "NaN design phi bound": {"algorithm": {**_KMEANS, "region": {"phi": [float("nan"), 90]}}},
    "infinite evaluation phi bound": {"evaluation": {"region": {"phi": [0, float("inf")]}}},
    # A real-valued key takes a JSON number: not a boolean, not a numeric string.
    "boolean synthetic spacing": {"arrays": [{"id": "ula", "synthetic": {**_ULA, "spacing_lambda": True}}]},
    "string synthetic spacing": {"arrays": [{"id": "ula", "synthetic": {**_ULA, "spacing_lambda": "0.5"}}]},
    "boolean synthetic pattern_q": {"arrays": [{"id": "ula", "synthetic": {**_ULA, "pattern_q": True}}]},
    "boolean percentile": {"evaluation": {"percentiles": [True]}},
    "string stop threshold": {"algorithm": {"name": "greedy", "size": 3, "phase_bits": 5,
                                            "stop": {"kind": "mean-threshold", "threshold_db": "3"}}},
    "boolean percentile points": {"algorithm": {"name": "greedy", "size": 2, "phase_bits": 5,
                                                "criterion": {"kind": "percentiles", "points": [[True, True]]}}},
    "boolean design theta bound": {"algorithm": {**_KMEANS, "region": {"theta": [False, 180]}}},
    # An integer literal that no float holds.
    "synthetic spacing beyond the float range": {
        "arrays": [{"id": "ula", "synthetic": {**_ULA, "spacing_lambda": 10**400}}]},
    "duplicate array id": {"arrays": [{"id": "ula", "synthetic": _ULA}, {"id": "ula", "synthetic": _ULA}]},
    "generator directions without a synthetic array": {
        "arrays": [{"id": "ula", "csv": "ula.csv"}], "algorithm": {"name": "greedy", "size": 3, "phase_bits": 5},
        "evaluation": {"directions": {"kind": "generator"}}},
    "unknown criterion kind": {"algorithm": {"name": "greedy", "size": 3, "phase_bits": 5,
                                             "criterion": {"kind": "median"}}},
    "unknown stop kind": {"algorithm": {"name": "greedy", "size": 3, "phase_bits": 5, "stop": {"kind": "never"}}},
}


@pytest.mark.parametrize("command", ["design", "eval"])
@pytest.mark.parametrize("probe", CONFIG_PROBES)
def test_bad_config_value_exits_2(tmp_path, probe, command):
    grid, _ = bb.generate_ula_efield(bb.SyntheticUlaSpec(4, 0.65, sampling_factor=20))
    bb.save_efield(grid, tmp_path / "ula.csv")  # so the CSV probe fails on its config, not on a missing file
    config = write_config(tmp_path / "cfg.json", **CONFIG_PROBES[probe])
    assert main([command, "--config", str(config), "--output-dir", str(tmp_path / "out")]) == 2


# Config files that are not a JSON object, or cannot be read as one: (file bytes or None for no file, message).
UNREADABLE_CONFIGS = {
    "JSON list": (b"[]", "config must be a JSON object"),
    "JSON string": (b'"ula"', "config must be a JSON object"),
    "malformed JSON": (b'{"arrays": [', "cannot read config"),
    "not UTF-8": (b'{"output_dir": "\xff"}', "cannot read config"),
    "missing file": (None, "cannot read config"),
}


# Region ranges that are not (lo, hi) pairs: (block, axis, values).
REGION_RANGES_NOT_PAIRS = {
    "design theta of three values": ("algorithm", "theta", [0, 90, 100]),
    "evaluation theta of one value": ("evaluation", "theta", [0]),
    "evaluation phi of three values": ("evaluation", "phi", [0, 90, 180]),
}


@pytest.mark.parametrize("command", ["design", "eval"])
@pytest.mark.parametrize("case", REGION_RANGES_NOT_PAIRS)
def test_a_region_range_not_a_pair_exits_2_naming_the_range(tmp_path, capsys, case, command):
    block, axis, values = REGION_RANGES_NOT_PAIRS[case]
    config = write_config(tmp_path / "cfg.json", **{block: {"region": {axis: values}}})
    assert main([command, "--config", str(config), "--output-dir", str(tmp_path / "out")]) == 2
    assert f"{axis}_range must be a (lo, hi) pair" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["design", "eval"])
@pytest.mark.parametrize("case", UNREADABLE_CONFIGS)
def test_unreadable_or_non_object_config_exits_2(tmp_path, capsys, case, command):
    data, message = UNREADABLE_CONFIGS[case]
    config = tmp_path / "cfg.json"
    if data is not None:
        config.write_bytes(data)
    assert main([command, "--config", str(config), "--output-dir", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


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


# Usage errors outside a config file: command, its arguments and the stderr message; "{tmp}" is the test's directory.
USAGE_ERRORS = [
    pytest.param("gen-efield", ["--elements", "0", "--spacing-lambda", "0.5", "--out", "{tmp}/out"],
                 "num_elements must be an integer >= 1, got 0", id="gen-efield"),
    pytest.param("compare", ["--configs", "{tmp}/cfg.json", "--output-dir", "{tmp}/out"],
                 "compare needs at least two configs", id="compare"),
    pytest.param("selfcheck", ["{tmp}/nope.csv"], "no such path: {tmp}/nope.csv", id="selfcheck-missing"),
    pytest.param("selfcheck", ["{tmp}/empty"], "nothing to check", id="selfcheck-empty"),
]


@pytest.mark.parametrize("command, args, message", USAGE_ERRORS)
def test_a_usage_error_exits_2_as_a_config_error_and_writes_nothing(tmp_path, capsys, command, args, message):
    write_config(tmp_path / "cfg.json")
    (tmp_path / "empty" / "sub").mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    assert main([command, *(arg.format(tmp=tmp_path) for arg in args)]) == 2
    assert capsys.readouterr().err == f"config error: {message.format(tmp=tmp_path)}\n"
    assert sorted(tmp_path.rglob("*")) == before


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
    # Valid codebooks on their own, which fit no array of the config.
    "beam on an unknown array": (json.dumps({"phase_bits": 5, "entries": [_BEAM, {**_BEAM, "array": "upa"}]}), False),
    "3 weights on the 4-element ula": (json.dumps({"phase_bits": 5, "entries": [
        {**_BEAM, "weights": [[3 ** -0.5, 0.0]] * 3}]}), False),
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
                                                           bb.PhaseSpec()))
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
        assert calls == {"snap_to_grid": 2, "fields_at": 2, "field_gains": 2}

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

    def test_every_text_artifact_is_written_with_lf(self, designed, tmp_path, monkeypatch):
        config, designed_out = designed
        newlines = {}
        write_text = Path.write_text

        def recording(self, data, encoding=None, errors=None, newline=None):
            newlines[self.name] = newline
            return write_text(self, data, encoding, errors, newline)

        monkeypatch.setattr(Path, "write_text", recording)
        out = tmp_path / "lf"
        assert main(["eval", "--config", str(config), "--codebook", str(designed_out / "codebook.json"),
                     "--output-dir", str(out)]) == 0
        assert sorted(newlines) == sorted(path.name for path in out.iterdir())
        assert "summary.txt" in newlines and set(newlines.values()) == {"\n"}

    def test_bound_only_mode(self, designed):
        config, out = designed
        rc = main(["eval", "--config", str(config), "--output-dir", str(out / "bound_only")])
        assert rc == 0
        assert (out / "bound_only" / "bound.csv").exists()
        assert not (out / "bound_only" / "pattern.csv").exists()

    def test_size_mismatch_exits_2(self, tmp_path, designed):
        config, out = designed
        other = bb.benchmark_codebook(
            bb.SyntheticUlaSpec(6, 0.5), 2, bb.PhaseSpec(5), array_ids=["ula"]
        )
        bb.save_codebook(other, tmp_path / "wrong.json")
        rc = main(["eval", "--config", str(config), "--codebook", str(tmp_path / "wrong.json"),
                   "--output-dir", str(tmp_path / "mismatch")])
        assert rc == 2
        assert not (tmp_path / "mismatch").exists()  # rejected before any output is written


class TestCompare:
    def test_three_codebooks_ordered_rows(self, tmp_path, monkeypatch, capsys):
        bench = write_config(tmp_path / "bench.json")
        c3 = write_config(tmp_path / "c3.json", algorithm={"name": "3c", "size": 4, "phase_bits": 5})
        km = write_config(
            tmp_path / "km.json",
            algorithm={"name": "kmeans", "size": 4, "phase_bits": 5, "seed": 12345,
                       "init": "benchmark", "n_randomizations": 300},
        )
        designed = []

        def recording(config):
            codebook, log = design_codebook(config)
            designed.append((config, codebook, log))
            return codebook, log

        monkeypatch.setattr(cli_module, "design_codebook", recording)
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
        rows = ["config,algorithm,size,mean_db,median_db,p20_db"]
        for name, (config, codebook, log) in zip(names, designed, strict=True):
            stats = bb.coverage_stats(bb.composite_pattern(config.grids, codebook, config.eval_dirs), [20.0, 50.0])
            rows.append(f"{name},{log['algorithm']},{codebook.size},"
                        f"{stats.mean_db!r},{stats.median_db!r},{stats.percentiles[20.0]!r}")
        expected = "\n".join(rows) + "\n"
        assert (out / "compare.csv").read_bytes() == expected.encode("utf-8")
        assert capsys.readouterr().out == expected

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

    def test_different_percentiles_exit_2_before_any_design(self, tmp_path, monkeypatch, capsys):
        p50 = write_config(tmp_path / "p50.json", evaluation={"percentiles": [50]})
        p5 = write_config(tmp_path / "p5.json", evaluation={"percentiles": [5, 50]})
        designs = []
        monkeypatch.setattr(cli_module, "design_codebook", lambda config: designs.append(config))
        out = tmp_path / "cmp"
        assert main(["compare", "--configs", str(p50), str(p5), "--output-dir", str(out)]) == 2
        assert designs == [] and not (out / "compare.csv").exists()
        err = capsys.readouterr().err
        assert str(p50) in err and str(p5) in err


class TestSelfcheck:
    def test_validates_emitted_artifacts(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
        main(["design", "--config", str(config)])
        main(["eval", "--config", str(config), "--codebook", str(tmp_path / "out/codebook.json")])
        main(["gen-efield", "--elements", "2", "--spacing-lambda", "0.5", "--out", str(tmp_path / "out")])
        assert main(["selfcheck", str(tmp_path / "out")]) == 0

    def test_skips_grid_caches(self, tmp_path, capsys):
        main(["gen-efield", "--elements", "2", "--spacing-lambda", "0.5", "--out", str(tmp_path / "out")])
        bb.load_efield(next((tmp_path / "out").glob("*.csv")))  # caches the grid
        assert list((tmp_path / "out" / bb.efield.GRID_CACHE_DIR).iterdir())
        capsys.readouterr()
        assert main(["selfcheck", str(tmp_path)]) == 0
        checked = capsys.readouterr().out.splitlines()
        assert len(checked) == 2 and not any(bb.efield.GRID_CACHE_DIR in line for line in checked)

    def test_parses_grids_without_the_grid_cache(self, tmp_path, capsys):
        main(["gen-efield", "--elements", "2", "--spacing-lambda", "0.5", "--out", str(tmp_path / "out")])
        assert main(["selfcheck", str(tmp_path)]) == 0
        assert not list(tmp_path.rglob(bb.efield.GRID_CACHE_DIR))  # checking writes no cache
        # A grid CSV the reader rejects, with a cache entry for its very bytes (say, from an older reader):
        # load_efield trusts the entry, selfcheck reads the file.
        grid = next((tmp_path / "out").glob("*.csv"))
        good = bb.load_efield(grid)
        lines = grid.read_text(encoding="utf-8").splitlines(keepends=True)
        grid.write_text("".join(lines + lines[-1:]), encoding="utf-8", newline="")
        key = f"{bb.efield._GRID_CACHE_FORMAT} {hashlib.sha256(grid.read_bytes()).hexdigest()}"
        bb.efield._write_grid_cache(grid.parent / bb.efield.GRID_CACHE_DIR / f"{grid.name}.grid", key, good, grid)
        assert np.array_equal(bb.load_efield(grid).e_theta, good.e_theta)
        capsys.readouterr()
        assert main(["selfcheck", str(grid)]) == 1
        assert f"{grid}:{len(lines) + 1}: duplicate sample" in capsys.readouterr().out

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

    def test_a_directory_without_files_exits_2(self, tmp_path, capsys):
        (tmp_path / "empty" / "sub").mkdir(parents=True)
        assert main(["selfcheck", str(tmp_path / "empty")]) == 2
        assert "nothing to check" in capsys.readouterr().err

    def test_accepts_a_comparison_table(self, tmp_path, capsys):
        config = str(write_config(tmp_path / "cfg.json"))
        main(["compare", "--configs", config, config, "--output-dir", str(tmp_path / "cmp")])
        capsys.readouterr()
        assert main(["selfcheck", str(tmp_path / "cmp" / "compare.csv")]) == 0
        assert "(comparison table)" in capsys.readouterr().out

    @pytest.fixture()
    def evaluated(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", output_dir=str(tmp_path / "out"))
        main(["design", "--config", str(config)])
        main(["eval", "--config", str(config), "--codebook", str(tmp_path / "out/codebook.json")])
        return tmp_path / "out"

    @pytest.mark.parametrize("edit, message", [
        (lambda row: row.split(",", 1)[1], "line 2: expected 4 fields"),
        (lambda row: ",".join(["90.0", "360.0", *row.split(",")[2:]]), "line 2: out-of-range direction or weight"),
        (lambda row: ",".join([*row.split(",")[:2], "inf", "0.0"]), "line 2: weight and gain must be finite"),
        (lambda row: ",".join([*row.split(",")[:3], "nan"]), "line 2: weight and gain must be finite"),
    ])
    def test_rejects_a_bad_pattern_row(self, evaluated, capsys, edit, message):
        path = evaluated / "pattern.csv"
        lines = path.read_text().splitlines()
        lines[1] = edit(lines[1])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["selfcheck", str(path)]) == 1
        assert f"FAIL {path}: {message}" in capsys.readouterr().out

    def test_rejects_a_decreasing_cdf(self, evaluated, capsys):
        path = evaluated / "stats.json"
        stats = json.loads(path.read_text())
        stats["cdf"][1][1], stats["cdf"][2][1] = stats["cdf"][2][1], stats["cdf"][1][1] / 2
        path.write_text(json.dumps(stats))
        capsys.readouterr()
        assert main(["selfcheck", str(path)]) == 1
        assert "cdf cumulative weights must be nondecreasing" in capsys.readouterr().out

    @pytest.mark.parametrize("key, value, message", [
        ("mean_db", float("nan"), "mean_db and every percentile must be finite numbers"),
        ("percentiles", {"50": "x"}, "mean_db and every percentile must be finite numbers"),
        ("cdf", [[5.0, 0.5], [1.0, 1.0]], "cdf gains must be nondecreasing"),
    ])
    def test_rejects_broken_stats(self, evaluated, capsys, key, value, message):
        path = evaluated / "stats.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
        capsys.readouterr()
        assert main(["selfcheck", str(path)]) == 1
        assert f"FAIL {path}: {message}" in capsys.readouterr().out

    def test_rejects_an_unknown_csv_header(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        path.write_text("a,b\n1,2\n")
        assert main(["selfcheck", str(path)]) == 1
        assert f"FAIL {path}: unknown CSV header: 'a,b'" in capsys.readouterr().out


class TestRegionWorkflow:
    def test_a_phi_span_of_360_degrees_designs_the_full_circle_wherever_it_starts(self, tmp_path):
        written = []
        for phi in ([0, 360], [-180, 180]):
            out = tmp_path / f"out{phi[0]}"
            config = write_config(
                tmp_path / "cfg.json",
                arrays=[{"id": "ula", "synthetic": {"elements": 4, "spacing_lambda": 0.5, "sampling_factor": 20}}],
                algorithm={"name": "kmeans", "size": 3, "phase_bits": 5, "seed": 1, "init": "uniform",
                           "n_randomizations": 50, "region": {"theta": [0, 120], "phi": phi}},
                output_dir=str(out),
            )
            assert main(["design", "--config", str(config)]) == 0
            written.append((out / "codebook.json").read_bytes())
        assert written[0] == written[1]

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
