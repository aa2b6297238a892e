"""Config-driven command line: generate fields, design, evaluate, compare.

Commands
--------
``gen-efield``   write a synthetic linear-array grid CSV plus a spec sidecar
``design``       synthesize a codebook from a JSON run config
``eval``         emit pattern/bound/gap CSVs and coverage stats for a codebook
``compare``      run several configs and tabulate their coverage statistics
``selfcheck``    validate emitted files against the documented schemas

Exit codes: 0 success, 2 usage or config error, 1 internal error.  The
``BEAMBOOK_OUT`` environment variable supplies the default output
directory.  Every command is reproducible: the same config and seed yield
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .beamopt import PhaseSpec
from .codebook import (
    Codebook,
    GreedyInitSpec,
    KMeansConfig,
    MeanGainCriterion,
    MeanThreshold,
    PercentileMixCriterion,
    PercentileThreshold,
    SizeLimit,
    benchmark_codebook,
    codebook_802_15_3c,
    codebook_summary,
    generate_candidates,
    greedy_codebook,
    kmeans_codebook,
    load_codebook,
    restrict_region,
    save_codebook,
)
from .efield import (
    GRID_CSV_HEADER,
    CoverageRegion,
    DirectionSet,
    EFieldGrid,
    SyntheticUlaSpec,
    fibonacci_directions,
    generate_ula_efield,
    load_efield,
    mesh_directions,
    save_efield,
)
from .metrics import (
    PATTERN_CSV_HEADER,
    composite_pattern,
    coverage_stats,
    gap_map,
    stats_to_dict,
    upper_bound_pattern,
    write_pattern_csv,
    write_stats_json,
)

OUTPUT_DIR_ENV = "BEAMBOOK_OUT"


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 2)."""


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    """A run config as loaded by :func:`load_run_config`, every value checked."""

    grids: dict[str, EFieldGrid]
    synthetic_specs: dict[str, SyntheticUlaSpec]
    algorithm: dict
    evaluation: dict
    output_dir: Path
    config_dir: Path
    phase_spec: PhaseSpec
    # Evaluation directions restricted to the algorithm's and to the
    # evaluation's region, and the sorted percentiles to report (always 50).
    design_dirs: DirectionSet
    eval_dirs: DirectionSet
    percentiles: list[float]
    # Greedy selection criterion and stopping rule; None for other algorithms.
    criterion: MeanGainCriterion | PercentileMixCriterion | None
    stop: SizeLimit | MeanThreshold | PercentileThreshold | None


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigError(f"{context}: missing required key '{key}'")
    return mapping[key]


def _parse_region(data) -> CoverageRegion | None:
    if data is None:
        return None
    return CoverageRegion(theta_range=tuple(data.get("theta", (0.0, 180.0))),
                          phi_range=tuple(data.get("phi", (0.0, 360.0))))


def _parse_synthetic(block: dict) -> SyntheticUlaSpec:
    return SyntheticUlaSpec(
        num_elements=int(_require(block, "elements", "synthetic array")),
        spacing_over_lambda=float(_require(block, "spacing_lambda", "synthetic array")),
        element_pattern_q=float(block.get("pattern_q", 0.0)),
        sampling_factor=int(block["sampling_factor"]) if block.get("sampling_factor") is not None else None,
    )


def load_run_config(path: Path, overrides: dict | None = None) -> RunConfig:
    """Read a run config, build its arrays and check every value.

    This is the one validation pass: a bad value anywhere in the file is a
    ConfigError (exit 2) here, so no later stage fails on it.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    overrides = overrides or {}
    config_dir = Path(path).resolve().parent
    try:
        # The constructors of the domain objects reject bad values with these
        # exceptions; GridFormatError and ConfigError are ValueErrors too.
        grids, synth, generator_dirs = _load_arrays(_require(data, "arrays", str(path)), config_dir)
        algorithm = dict(_require(data, "algorithm", str(path)))
        for key in ("seed", "size", "phase_bits"):
            if overrides.get(key) is not None:
                algorithm[key] = overrides[key]
        evaluation = dict(data.get("evaluation", {}))
        settings = _check_settings(algorithm, evaluation, grids, generator_dirs)
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(str(exc)) from None
    out = overrides.get("output_dir") or data.get("output_dir") or os.environ.get(OUTPUT_DIR_ENV, "out")
    output_dir = Path(out)
    if not output_dir.is_absolute() and overrides.get("output_dir") is None and "output_dir" in data:
        output_dir = config_dir / output_dir
    return RunConfig(grids, synth, algorithm, evaluation, output_dir, config_dir, **settings)


def _load_arrays(arrays, config_dir: Path):
    """Grids and synthetic specs by array id, plus the first synthetic array's own directions."""
    if not isinstance(arrays, list) or not arrays:
        raise ConfigError("'arrays' must be a nonempty list")
    grids: dict[str, EFieldGrid] = {}
    synth: dict[str, SyntheticUlaSpec] = {}
    generator_dirs: DirectionSet | None = None
    for i, block in enumerate(arrays):
        array_id = str(block.get("id", f"array{i}"))
        if array_id in grids:
            raise ConfigError(f"duplicate array id '{array_id}'")
        if "synthetic" in block:
            spec = _parse_synthetic(block["synthetic"])
            grid, dirs = generate_ula_efield(spec, array_id=array_id)
            synth[array_id] = spec
            generator_dirs = dirs if generator_dirs is None else generator_dirs
        elif "csv" in block:
            csv_path = config_dir / block["csv"]  # an absolute path replaces config_dir
            if not csv_path.exists():
                raise ConfigError(f"array '{array_id}': file not found: {csv_path}")
            grid = load_efield(csv_path, array_id=array_id)
        else:
            raise ConfigError(f"array '{array_id}': needs either 'synthetic' or 'csv'")
        grids[array_id] = grid
    return grids, synth, generator_dirs


def _check_settings(algorithm: dict, evaluation: dict, grids: dict[str, EFieldGrid],
                    generator_dirs: DirectionSet | None) -> dict:
    """Check the algorithm and evaluation values; returns the RunConfig fields they resolve to."""
    name = _require(algorithm, "name", "algorithm")
    if name not in ("greedy", "kmeans", "benchmark", "3c"):
        raise ConfigError(f"unknown algorithm '{name}'")
    candidates = algorithm.get("candidates", {})
    spec = evaluation.get("directions", {"kind": "generator" if generator_dirs is not None else "fibonacci"})
    for block, key, minimum in ((algorithm, "size", 1), (algorithm, "seed", 0), (algorithm, "phase_bits", 1),
                                (algorithm, "n_randomizations", 1), (algorithm, "max_iterations", 1),
                                (algorithm, "elements", 1), (candidates, "count", 1), (spec, "count", 1)):
        value = block.get(key)
        if value is not None and (isinstance(value, bool) or not isinstance(value, int) or value < minimum):
            raise ConfigError(f"'{key}' must be an integer >= {minimum}, got {value!r}")
    spacing = algorithm.get("spacing_lambda")
    if spacing is not None and (isinstance(spacing, bool) or not isinstance(spacing, (int, float)) or spacing <= 0):
        raise ConfigError(f"'spacing_lambda' must be a positive number, got {spacing!r}")
    if candidates.get("method", "eigen") not in ("eigen", "iterative"):
        raise ConfigError(f"unknown candidates method '{candidates['method']}'")
    bits = algorithm.get("phase_bits")
    phase_spec = PhaseSpec.continuous() if bits is None else PhaseSpec.discrete(bits)

    kind = spec.get("kind", "generator")
    if kind == "generator" and generator_dirs is not None:
        dirs = generator_dirs
    elif kind == "generator":
        raise ConfigError("directions kind 'generator' requires a synthetic array")
    elif kind == "fibonacci":
        dirs = fibonacci_directions(spec.get("count", 1800))
    elif kind == "mesh":
        dirs = mesh_directions(next(iter(grids.values())))
    else:
        raise ConfigError(f"unknown directions kind '{kind}'")
    design_dirs, eval_dirs = (
        dirs if region is None else restrict_region(dirs, region)
        for region in (_parse_region(algorithm.get("region")), _parse_region(evaluation.get("region")))
    )
    if name == "kmeans" and algorithm.get("size", 0) > len(design_dirs):
        raise ConfigError(f"size {algorithm['size']} exceeds the {len(design_dirs)} design directions")

    percentiles = sorted({float(p) for p in evaluation.get("percentiles", [])} | {50.0})
    if not all(0.0 < p < 100.0 for p in percentiles):
        raise ConfigError(f"evaluation percentiles must lie in (0, 100), got {percentiles}")
    criterion = stop = None
    if name == "greedy":
        criterion = _parse_criterion(algorithm.get("criterion"))
        stop = _parse_stop(algorithm.get("stop"), _require(algorithm, "size", "algorithm"))
    return dict(phase_spec=phase_spec, design_dirs=design_dirs, eval_dirs=eval_dirs,
                percentiles=percentiles, criterion=criterion, stop=stop)


def _first_synthetic(config: RunConfig, context: str) -> SyntheticUlaSpec:
    algo = config.algorithm
    if algo.get("spacing_lambda") is not None:
        first = next(iter(config.grids.values()))
        return SyntheticUlaSpec(
            num_elements=int(algo.get("elements", first.num_elements)),
            spacing_over_lambda=float(algo["spacing_lambda"]),
        )
    if config.synthetic_specs:
        return next(iter(config.synthetic_specs.values()))
    raise ConfigError(f"{context}: needs a synthetic array or an explicit 'spacing_lambda'")


def _parse_criterion(block) -> MeanGainCriterion | PercentileMixCriterion:
    if block is None:
        return MeanGainCriterion()
    kind = block.get("kind", "mean")
    if kind == "mean":
        return MeanGainCriterion(_parse_region(block.get("region")))
    if kind == "percentiles":
        points = block.get("points")
        if not points:
            raise ConfigError("percentiles criterion needs 'points': [[percentile, weight], ...]")
        return PercentileMixCriterion(tuple((float(x), float(b)) for x, b in points))
    raise ConfigError(f"unknown criterion kind '{kind}'")


def _parse_stop(block, size: int) -> SizeLimit | MeanThreshold | PercentileThreshold:
    if block is None or block.get("kind", "size") == "size":
        return SizeLimit(int((block or {}).get("size", size)))
    kind = block["kind"]
    if kind == "mean-threshold":
        return MeanThreshold(float(_require(block, "threshold_db", "stop")), _parse_region(block.get("region")))
    if kind == "percentile-threshold":
        return PercentileThreshold(
            float(_require(block, "percentile", "stop")),
            float(_require(block, "threshold_db", "stop")),
        )
    raise ConfigError(f"unknown stopping rule '{kind}'")


def design_codebook(config: RunConfig) -> tuple[Codebook, dict]:
    """Run the configured synthesis; returns the codebook and a log record."""
    algo = config.algorithm
    name = algo["name"]
    phase_spec = config.phase_spec
    size = _require(algo, "size", "algorithm")
    seed = algo.get("seed", 0)
    log: dict = {"algorithm": name, "size": size, "seed": seed,
                 "phase_bits": phase_spec.bits, "status": "ok"}

    if name == "benchmark":
        ula = _first_synthetic(config, "benchmark codebook")
        return benchmark_codebook(ula, size, phase_spec, array_ids=list(config.grids)), log
    if name == "3c":
        if not phase_spec.is_discrete:
            raise ConfigError("the 802.15.3c codebook requires 'phase_bits'")
        L = next(iter(config.grids.values())).num_elements
        return codebook_802_15_3c(L, size, phase_spec.bits, array_ids=list(config.grids)), log

    dirs = config.design_dirs
    cand_cfg = algo.get("candidates", {})
    n_rand = algo.get("n_randomizations", 1000)

    if name == "greedy":
        candidates = generate_candidates(
            config.grids,
            cand_cfg.get("count", 363),
            cand_cfg.get("method", "eigen"),
            phase_spec,
            seed=seed,
            n_rand=n_rand,
        )
        result = greedy_codebook(candidates, config.grids, config.criterion, config.stop, dirs)
        log["trace_db"] = [float(u) for u in result.utilities_db]
        log["status"] = result.stop_reason if result.stop_reason != "stopping rule satisfied" else "ok"
        return result.codebook, log

    # kmeans
    init_name = algo.get("init", "benchmark")
    init: str | GreedyInitSpec | Codebook
    if init_name == "uniform":
        init = "uniform"
    elif init_name == "greedy":
        init = GreedyInitSpec(cand_cfg.get("count", 363), cand_cfg.get("method", "eigen"))
    elif init_name == "benchmark":
        n_arrays = len(config.grids)
        if size % n_arrays != 0:
            raise ConfigError("benchmark init needs a codebook size divisible by the number of arrays")
        ula = _first_synthetic(config, "benchmark init")
        init = benchmark_codebook(ula, size // n_arrays, phase_spec, array_ids=list(config.grids))
    else:
        raise ConfigError(f"unknown kmeans init '{init_name}'")
    kcfg = KMeansConfig(
        num_beams=size,
        direction_set=dirs,
        phase_spec=phase_spec,
        init=init,
        n_rand=n_rand,
        max_iterations=algo.get("max_iterations", 50),
        seed=seed,
    )
    result = kmeans_codebook(kcfg, config.grids)
    log["trace_db"] = [float(u) for u in result.mean_gain_trace_db]
    log["iterations"] = result.iterations
    log["status"] = "ok" if result.stop_reason != "max iterations" else "max iterations"
    return result.codebook, log


def evaluate_codebook(config: RunConfig, codebook: Codebook | None, out: Path) -> dict:
    """Write pattern/bound/gap CSVs plus stats JSON; returns the stats dict."""
    dirs = config.eval_dirs
    out.mkdir(parents=True, exist_ok=True)

    bound = upper_bound_pattern(config.grids, dirs)
    write_pattern_csv(bound, out / "bound.csv")
    if codebook is None:
        return {}

    for entry in codebook.entries:
        if entry.array_id not in config.grids:
            raise ConfigError(f"codebook references unknown array '{entry.array_id}'")
        L = config.grids[entry.array_id].num_elements
        if entry.weights.num_elements != L:
            raise ConfigError(
                f"codebook/array size mismatch on '{entry.array_id}': "
                f"{entry.weights.num_elements} weights vs {L} elements"
            )
    pattern = composite_pattern(config.grids, codebook, dirs)
    write_pattern_csv(pattern, out / "pattern.csv")
    write_pattern_csv(gap_map(pattern, bound), out / "gap.csv")
    stats = coverage_stats(pattern, config.percentiles)
    write_stats_json(stats, out / "stats.json")
    (out / "summary.txt").write_text(
        codebook_summary(codebook, config.grids, dirs) + "\n", encoding="utf-8"
    )
    return stats_to_dict(stats)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_gen_efield(args) -> int:
    try:
        spec = SyntheticUlaSpec(
            num_elements=args.elements,
            spacing_over_lambda=args.spacing_lambda,
            element_pattern_q=args.pattern_q,
            sampling_factor=args.sampling_factor,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out or os.environ.get(OUTPUT_DIR_ENV, "out"))
    out.mkdir(parents=True, exist_ok=True)
    grid, _ = generate_ula_efield(spec, array_id=args.array_id)
    csv_path = out / f"{args.name}.csv"
    save_efield(grid, csv_path)
    sidecar = {
        "elements": spec.num_elements,
        "spacing_lambda": spec.spacing_over_lambda,
        "pattern_q": spec.element_pattern_q,
        "sampling_factor": spec.effective_sampling_factor,
        "array_id": args.array_id,
    }
    (out / f"{args.name}.spec.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {csv_path} ({grid.theta_axis.size * grid.phi_axis.size} directions)")
    return 0


def _cmd_design(args) -> int:
    overrides = {"seed": args.seed, "size": args.size, "phase_bits": args.phase_bits,
                 "output_dir": args.output_dir}
    config = load_run_config(args.config, overrides)
    codebook, log = design_codebook(config)
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    save_codebook(codebook, out / "codebook.json")
    (out / "design_log.json").write_text(
        json.dumps(log, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    status = log["status"]
    print(f"wrote {out / 'codebook.json'} ({codebook.size} beams, status: {status})")
    if status not in ("ok",):
        print(f"warning: {status}", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    config = load_run_config(args.config, {"output_dir": args.output_dir})
    codebook = load_codebook(args.codebook) if args.codebook else None
    out = config.output_dir
    stats = evaluate_codebook(config, codebook, out)
    if stats:
        print(f"wrote {out / 'stats.json'} (mean {stats['mean_db']:.2f} dB, "
              f"median {stats['percentiles']['50']:.2f} dB)")
    else:
        print(f"wrote {out / 'bound.csv'} (upper bound only)")
    return 0


def _cmd_compare(args) -> int:
    if len(args.configs) < 2:
        print("error: compare needs at least two configs", file=sys.stderr)
        return 2
    rows = []
    percentiles: list[float] = []
    for path in args.configs:
        config = load_run_config(path, {"output_dir": args.output_dir})
        codebook, log = design_codebook(config)
        percentiles = percentiles or config.percentiles
        stats = coverage_stats(composite_pattern(config.grids, codebook, config.eval_dirs), percentiles)
        rows.append((Path(path).stem, log["algorithm"], codebook.size, stats))
    header = ["config", "algorithm", "size", "mean_db", "median_db"] + [
        f"p{p:g}_db" for p in percentiles if p != 50.0
    ]
    lines = [",".join(header)]
    for name, algo, size, stats in rows:
        cells = [name, algo, str(size), repr(stats.mean_db), repr(stats.percentiles[50.0])]
        cells += [repr(stats.percentiles[p]) for p in percentiles if p != 50.0]
        lines.append(",".join(cells))
    out = Path(args.output_dir or os.environ.get(OUTPUT_DIR_ENV, "out"))
    out.mkdir(parents=True, exist_ok=True)
    table = "\n".join(lines) + "\n"
    (out / "compare.csv").write_text(table, encoding="utf-8", newline="\n")
    print(table, end="")
    return 0


def _check_stats_json(data: dict) -> None:
    for key in ("mean_db", "percentiles", "cdf"):
        if key not in data:
            raise ValueError(f"missing key '{key}'")
    cdf = np.asarray(data["cdf"], dtype=float)
    if cdf.ndim != 2 or cdf.shape[1] != 2:
        raise ValueError("cdf must be a list of [gain_db, cum] pairs")
    if np.any(np.diff(cdf[:, 1]) < 0) or abs(cdf[-1, 1] - 1.0) > 1e-9:
        raise ValueError("cdf cumulative weights must be nondecreasing and end at 1")


def _check_pattern_csv(lines: list[str]) -> None:
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"line {i}: expected 4 fields")
        theta, phi, w, _gain = (float(v) for v in parts)
        if not (0.0 <= theta <= 180.0 and 0.0 <= phi < 360.0 and w >= 0.0):
            raise ValueError(f"line {i}: out-of-range direction or weight")


def _selfcheck_file(path: Path) -> tuple[bool, str]:
    try:
        if path.suffix == ".csv":
            text = path.read_text(encoding="utf-8")
            first = text.splitlines()[0].strip() if text else ""
            if first == GRID_CSV_HEADER:
                load_efield(path)
                return True, "efield grid"
            if first == PATTERN_CSV_HEADER:
                _check_pattern_csv(text.splitlines())
                return True, "gain pattern"
            if first.startswith("config,algorithm,size,mean_db,median_db"):
                return True, "comparison table"
            return False, f"unknown CSV header: {first!r}"
        if path.suffix == ".json":
            data = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(data, dict) and "entries" in data and "phase_bits" in data:
                load_codebook(path)
                return True, "codebook"
            if isinstance(data, dict) and "cdf" in data:
                _check_stats_json(data)
                return True, "coverage stats"
            if isinstance(data, dict):
                return True, "metadata"
            return False, "not a JSON object"
        if path.suffix == ".txt":
            path.read_text(encoding="utf-8")
            return True, "text summary"
        return False, "unknown file type"
    except Exception as exc:  # noqa: BLE001 - report, do not crash the sweep
        return False, str(exc)


def _cmd_selfcheck(args) -> int:
    files: list[Path] = []
    for raw in args.paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(q for q in p.rglob("*") if q.is_file()))
        elif p.exists():
            files.append(p)
        else:
            print(f"error: no such path: {p}", file=sys.stderr)
            return 2
    if not files:
        print("error: nothing to check", file=sys.stderr)
        return 2
    failures = 0
    for f in files:
        ok, kind = _selfcheck_file(f)
        if ok:
            print(f"OK   {f} ({kind})")
        else:
            print(f"FAIL {f}: {kind}")
            failures += 1
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="beambook", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"beambook {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-efield", help="write a synthetic linear-array E-field grid CSV")
    g.add_argument("--elements", type=int, required=True)
    g.add_argument("--spacing-lambda", type=float, required=True)
    g.add_argument("--pattern-q", type=float, default=0.0)
    g.add_argument("--sampling-factor", type=int, default=None)
    g.add_argument("--array-id", default="ula")
    g.add_argument("--name", default="efield")
    g.add_argument("--out", default=None)
    g.set_defaults(func=_cmd_gen_efield)

    d = sub.add_parser("design", help="synthesize a codebook from a run config")
    d.add_argument("--config", required=True)
    d.add_argument("--seed", type=int, default=None)
    d.add_argument("--size", type=int, default=None)
    d.add_argument("--phase-bits", type=int, default=None)
    d.add_argument("--output-dir", default=None)
    d.set_defaults(func=_cmd_design)

    e = sub.add_parser("eval", help="evaluate a codebook (or just the upper bound)")
    e.add_argument("--config", required=True)
    e.add_argument("--codebook", default=None)
    e.add_argument("--output-dir", default=None)
    e.set_defaults(func=_cmd_eval)

    c = sub.add_parser("compare", help="design and compare several run configs")
    c.add_argument("--configs", nargs="+", required=True)
    c.add_argument("--output-dir", default=None)
    c.set_defaults(func=_cmd_compare)

    s = sub.add_parser("selfcheck", help="validate emitted files against their schemas")
    s.add_argument("paths", nargs="+")
    s.set_defaults(func=_cmd_selfcheck)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
