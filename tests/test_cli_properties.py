"""Property test of the CLI contract: no config value makes a command exit 1."""

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from beambook.cli import main

# A tiny valid config that names every key the loader reads; keys that the
# drawn algorithm does not use are ignored by it.
BASE = {
    "arrays": [{"id": "ula", "synthetic": {"elements": 4, "spacing_lambda": 0.65, "pattern_q": 0,
                                           "sampling_factor": 10}}],
    "algorithm": {
        "name": "greedy", "size": 2, "phase_bits": 5, "seed": 1, "init": "greedy",
        "n_randomizations": 20, "max_iterations": 3,
        "candidates": {"count": 8, "method": "eigen"},
        "criterion": {"kind": "percentiles", "points": [[50, 1.0]], "region": {"theta": [0, 180]}},
        "stop": {"kind": "mean-threshold", "threshold_db": 50, "percentile": 50, "region": {"phi": [0, 360]}},
        "region": {"theta": [0, 180], "phi": [0, 360]},
        "elements": 4, "spacing_lambda": 0.65,
    },
    "evaluation": {"directions": {"kind": "generator", "count": 30}, "percentiles": [20, 50],
                   "region": {"theta": [0, 180]}},
    "output_dir": "out",
}

VARIANTS = {
    ("algorithm", "name"): ["greedy", "kmeans", "benchmark", "3c"],
    ("algorithm", "init"): ["greedy", "uniform", "benchmark"],
    ("algorithm", "criterion", "kind"): ["percentiles", "mean"],
    ("algorithm", "stop", "kind"): ["mean-threshold", "percentile-threshold", "size"],
    ("evaluation", "directions", "kind"): ["generator", "fibonacci", "mesh"],
}

MUTANTS = [None, True, False, -1, 0, 0.5, "x", [], [1, "a"], {}]


def key_paths(node, prefix=()):
    """Every key path of the config tree, list positions included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from key_paths(value, prefix + (key,))


PATHS = sorted(key_paths(BASE), key=str)


def set_path(config: dict, path: tuple, value) -> None:
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def choose(**choices) -> dict:
    """The first choice of every variant, with the named ones replaced."""
    names = {path[-1]: path for path in VARIANTS}
    return {path: values[0] for path, values in VARIANTS.items()} | {names[k]: v for k, v in choices.items()}


@settings(max_examples=120, deadline=None)
@given(
    variant=st.fixed_dictionaries({path: st.sampled_from(values) for path, values in VARIANTS.items()}),
    path=st.sampled_from(PATHS),
    value=st.sampled_from(MUTANTS),
)
# Values that once made a command exit 1: a null optional integer, and a
# boolean element count that disagreed with the benchmark geometry.
@example(variant=choose(name="kmeans"), path=("algorithm", "seed"), value=None)
@example(variant=choose(), path=("algorithm", "candidates", "count"), value=None)
@example(variant=choose(name="kmeans", init="benchmark"), path=("arrays", 0, "synthetic", "elements"), value=True)
def test_config_fuzzing_never_exits_1(variant, path, value):
    config = copy.deepcopy(BASE)
    for variant_path, choice in variant.items():
        set_path(config, variant_path, choice)
    set_path(config, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = Path(tmp) / "out"
        assert main(["design", "--config", str(cfg), "--output-dir", str(out)]) in (0, 2)
        codebook = ["--codebook", str(out / "codebook.json")] if (out / "codebook.json").exists() else []
        assert main(["eval", "--config", str(cfg), "--output-dir", str(out), *codebook]) in (0, 2)
