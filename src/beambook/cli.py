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
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import __version__
from .beamopt import PhaseSpec
from .codebook import (Codebook, KMeansConfig, MeanGainCriterion, PercentileMixCriterion, SelectionCriterion,
                       _child_seed, benchmark_codebook, codebook_802_15_3c, codebook_summary, generate_candidates,
                       greedy_codebook, kmeans_codebook, load_codebook, restrict_region, save_codebook)
from .efield import (GRID_CSV_HEADER, CoverageRegion, DirectionSet, EFieldGrid, SyntheticUlaSpec, fibonacci_directions,
                     generate_ula_efield, load_efield, mesh_directions, save_efield, write_json)
from .metrics import (PATTERN_CSV_HEADER, CoverageStats, GainPattern, composite_gains_linear, composite_pattern,
                      coverage_stats, db_from_linear, entry_gains_linear, gap_map, resolve_directions,
                      upper_bound_gains_linear, write_pattern_csv, write_stats_json)

OUTPUT_DIR_ENV = "BEAMBOOK_OUT"


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 2)."""


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


class RunConfig(NamedTuple):
    """A run config as loaded by :func:`load_run_config`: every value checked, every default applied."""

    grids: dict[str, EFieldGrid]
    output_dir: Path
    algorithm: str
    size: int
    seed: int
    phase_spec: PhaseSpec
    n_rand: int
    max_iterations: int
    # Greedy candidate pool, also the pool of a greedy K-Means init: (count per sphere, method).
    candidates: tuple[int, str]
    # K-Means init ("benchmark", "uniform" or "greedy"); None for other algorithms.
    init: str | None
    # The linear array the benchmark codebook or the benchmark init is built for, else None.
    ula: SyntheticUlaSpec | None
    # Evaluation directions restricted to the algorithm's and to the
    # evaluation's region, and the sorted percentiles to report (always 50).
    design_dirs: DirectionSet
    eval_dirs: DirectionSet
    percentiles: list[float]
    # Greedy selection criterion (None for other algorithms) and the
    # (criterion, threshold_db) that may stop it before "size" beams.
    criterion: SelectionCriterion | None
    stop: tuple[SelectionCriterion, float] | None


def _require(mapping: dict, key: str, context: str):
    if mapping.get(key) is None:
        raise ConfigError(f"{context}: missing required key '{key}'")
    return mapping[key]


def _get(block: dict, key: str, default=None):
    """``block[key]``, or ``default`` when the key is absent or null."""
    value = block.get(key)
    return default if value is None else value


def _integer(block: dict, key: str, minimum: int, default: int | None = None) -> int | None:
    """``block[key]``, or ``default`` when absent or null: a JSON integer >= ``minimum``, or None."""
    value = _get(block, key, default)
    if value is not None and (isinstance(value, bool) or not isinstance(value, int) or value < minimum):
        raise ConfigError(f"'{key}' must be an integer >= {minimum}, got {value!r}")
    return value


def _default_output_dir() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "out"))


def _make_output_dir(out: Path) -> Path:
    """Create ``out`` with its parents; a path that cannot be made a directory is a ConfigError."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from None
    return out


def _parse_region(data) -> CoverageRegion | None:
    if data is None:
        return None
    return CoverageRegion(theta_range=tuple(_get(data, "theta", (0.0, 180.0))),
                          phi_range=tuple(_get(data, "phi", (0.0, 360.0))))


def _parse_synthetic(block: dict) -> SyntheticUlaSpec:
    _require(block, "elements", "synthetic array")
    return SyntheticUlaSpec(
        num_elements=_integer(block, "elements", 1),
        spacing_over_lambda=float(_require(block, "spacing_lambda", "synthetic array")),
        element_pattern_q=float(_get(block, "pattern_q", 0.0)),
        sampling_factor=_integer(block, "sampling_factor", 1),
    )


def load_run_config(path: Path, overrides: dict | None = None) -> RunConfig:
    """Read a run config, build its arrays and check every value.

    This is the one validation pass and the only reader of the config
    file: a bad value anywhere in it is a ConfigError (exit 2) here, so no
    later stage fails on it, and every default is applied here.
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
        grids, synthetic = _load_arrays(_require(data, "arrays", str(path)), config_dir)
        algorithm = dict(_require(data, "algorithm", str(path)))
        for key in ("seed", "size", "phase_bits"):
            if overrides.get(key) is not None:
                algorithm[key] = overrides[key]
        settings = _check_settings(algorithm, _get(data, "evaluation", {}), grids, synthetic)
        output_dir = config_dir / data["output_dir"] if data.get("output_dir") else _default_output_dir()
        if overrides.get("output_dir") is not None:
            output_dir = Path(overrides["output_dir"])
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(grids, output_dir, **settings)


def _load_arrays(arrays, config_dir: Path):
    """Grids by array id, plus the first synthetic array's spec and own directions (None without one)."""
    if not isinstance(arrays, list) or not arrays:
        raise ConfigError("'arrays' must be a nonempty list")
    grids: dict[str, EFieldGrid] = {}
    synthetic: tuple[SyntheticUlaSpec, DirectionSet] | None = None
    for i, block in enumerate(arrays):
        array_id = str(_get(block, "id", f"array{i}"))
        if array_id in grids:
            raise ConfigError(f"duplicate array id '{array_id}'")
        if "synthetic" in block:
            spec = _parse_synthetic(block["synthetic"])
            grid, dirs = generate_ula_efield(spec, array_id=array_id)
            synthetic = synthetic or (spec, dirs)
        elif "csv" in block:
            csv_path = config_dir / block["csv"]  # an absolute path replaces config_dir
            try:
                grid = load_efield(csv_path, array_id=array_id)
            except OSError as exc:  # missing, a directory, unreadable
                raise ConfigError(f"array '{array_id}': cannot read {csv_path}: {exc.strerror}") from None
        else:
            raise ConfigError(f"array '{array_id}': needs either 'synthetic' or 'csv'")
        grids[array_id] = grid
    return grids, synthetic


def _check_settings(algorithm: dict, evaluation: dict, grids: dict[str, EFieldGrid],
                    synthetic: tuple[SyntheticUlaSpec, DirectionSet] | None) -> dict:
    """Check the algorithm and evaluation values; returns the RunConfig fields they resolve to."""
    name = _require(algorithm, "name", "algorithm")
    if name not in ("greedy", "kmeans", "benchmark", "3c"):
        raise ConfigError(f"unknown algorithm '{name}'")
    _require(algorithm, "size", "algorithm")
    size = _integer(algorithm, "size", 1)
    bits = _integer(algorithm, "phase_bits", 1)
    if name == "3c" and bits is None:
        raise ConfigError("the 802.15.3c codebook requires 'phase_bits'")
    candidates = _get(algorithm, "candidates", {})
    count, method = _integer(candidates, "count", 1, 363), _get(candidates, "method", "eigen")
    if method not in ("eigen", "iterative"):
        raise ConfigError(f"unknown candidates method '{method}'")

    init = _get(algorithm, "init", "benchmark") if name == "kmeans" else None
    if name == "kmeans" and init not in ("benchmark", "uniform", "greedy"):
        raise ConfigError(f"unknown kmeans init '{init}'")
    if init == "greedy" and count * len(grids) < size:
        raise ConfigError(f"greedy init needs {size} candidates, got {count} on each of {len(grids)} arrays")
    if init == "benchmark" and size % len(grids) != 0:
        raise ConfigError("benchmark init needs a codebook size divisible by the number of arrays")
    # The benchmark geometry of CSV arrays, which carry no spec.
    elements = _integer(algorithm, "elements", 1, next(iter(grids.values())).num_elements)
    spacing = algorithm.get("spacing_lambda")
    if spacing is not None and (isinstance(spacing, bool) or not isinstance(spacing, (int, float)) or spacing <= 0):
        raise ConfigError(f"'spacing_lambda' must be a positive number, got {spacing!r}")
    ula = None
    if name == "benchmark" or init == "benchmark":
        if spacing is not None:
            ula = SyntheticUlaSpec(num_elements=elements, spacing_over_lambda=float(spacing))
        elif synthetic is not None:
            ula = synthetic[0]
        else:
            raise ConfigError(f"benchmark {'codebook' if name == 'benchmark' else 'init'}: "
                              "needs a synthetic array or an explicit 'spacing_lambda'")
        if any(grid.num_elements != ula.num_elements for grid in grids.values()):
            raise ConfigError(f"the benchmark geometry has {ula.num_elements} elements; "
                              "every array must have as many")

    spec = _get(evaluation, "directions", {})
    kind = _get(spec, "kind", "generator" if synthetic is not None else "fibonacci")
    fibonacci_count = _integer(spec, "count", 1, 1800)
    if kind == "generator" and synthetic is not None:
        dirs = synthetic[1]
    elif kind == "generator":
        raise ConfigError("directions kind 'generator' requires a synthetic array")
    elif kind == "fibonacci":
        dirs = fibonacci_directions(fibonacci_count)
    elif kind == "mesh":
        dirs = mesh_directions(next(iter(grids.values())))
    else:
        raise ConfigError(f"unknown directions kind '{kind}'")
    design_dirs, eval_dirs = (
        dirs if region is None else restrict_region(dirs, region)
        for region in (_parse_region(algorithm.get("region")), _parse_region(evaluation.get("region")))
    )
    if name == "kmeans" and size > len(design_dirs):
        raise ConfigError(f"size {size} exceeds the {len(design_dirs)} design directions")

    percentiles = sorted({float(p) for p in _get(evaluation, "percentiles", [])} | {50.0})
    if not all(0.0 < p < 100.0 for p in percentiles):
        raise ConfigError(f"evaluation percentiles must lie in (0, 100), got {percentiles}")
    criterion = stop = None
    if name == "greedy":
        criterion = _parse_criterion(algorithm.get("criterion") or {})
        stop = _parse_stop(algorithm.get("stop") or {})
        for rule in (criterion, stop and stop[0]):
            if getattr(rule, "region", None) is not None:
                restrict_region(design_dirs, rule.region)  # raises if the region holds no design direction
    return dict(algorithm=name, size=size, seed=_integer(algorithm, "seed", 0, 0),
                phase_spec=PhaseSpec.continuous() if bits is None else PhaseSpec.discrete(bits),
                n_rand=_integer(algorithm, "n_randomizations", 1, 1000),
                max_iterations=_integer(algorithm, "max_iterations", 1, 50),
                candidates=(count, method), init=init, ula=ula, design_dirs=design_dirs,
                eval_dirs=eval_dirs, percentiles=percentiles, criterion=criterion, stop=stop)


def _parse_criterion(block: dict) -> SelectionCriterion:
    kind = _get(block, "kind", "mean")
    if kind == "mean":
        return MeanGainCriterion(_parse_region(block.get("region")))
    if kind == "percentiles":
        return PercentileMixCriterion(_require(block, "points", "percentiles criterion"))
    raise ConfigError(f"unknown criterion kind '{kind}'")


def _parse_stop(block: dict) -> tuple[SelectionCriterion, float] | None:
    """The (criterion, threshold_db) that stops a greedy run before "size" beams; None for kind "size"."""
    kind = _get(block, "kind", "size")
    if kind == "size":
        return None
    if kind == "mean-threshold":
        criterion = MeanGainCriterion(_parse_region(block.get("region")))
    elif kind == "percentile-threshold":
        criterion = PercentileMixCriterion(((float(_require(block, "percentile", "stop")), 1.0),))
    else:
        raise ConfigError(f"unknown stopping rule '{kind}'")
    threshold = float(_require(block, "threshold_db", "stop"))
    if not math.isfinite(threshold):
        raise ConfigError(f"stop 'threshold_db' must be finite, got {threshold!r}")
    return criterion, threshold


def design_codebook(config: RunConfig) -> tuple[Codebook, dict]:
    """Run the configured synthesis; returns the codebook and a log record."""
    name, size, seed, phase_spec = config.algorithm, config.size, config.seed, config.phase_spec
    array_ids = list(config.grids)
    log: dict = {"algorithm": name, "size": size, "seed": seed,
                 "phase_bits": phase_spec.bits, "status": "ok"}

    if name == "benchmark":
        return benchmark_codebook(config.ula, size, phase_spec, array_ids=array_ids), log
    if name == "3c":
        L = next(iter(config.grids.values())).num_elements
        return codebook_802_15_3c(L, size, phase_spec.bits, array_ids=array_ids), log

    if name == "greedy":
        candidates = generate_candidates(config.grids, *config.candidates, phase_spec,
                                         seed=seed, n_rand=config.n_rand)
        result = greedy_codebook(candidates, config.grids, config.criterion, size, config.design_dirs,
                                 config.stop)
        log["trace_db"] = [float(u) for u in result.utilities_db]
        log["status"] = result.stop_reason if result.stop_reason != "stopping rule satisfied" else "ok"
        return result.codebook, log

    # kmeans
    init = None  # uniform
    if config.init == "greedy":
        candidates = generate_candidates(config.grids, *config.candidates, phase_spec,
                                         seed=_child_seed(seed, 0xC0DE), n_rand=config.n_rand)
        init = greedy_codebook(candidates, config.grids, MeanGainCriterion(), size, config.design_dirs).codebook
    elif config.init == "benchmark":
        init = benchmark_codebook(config.ula, size // len(array_ids), phase_spec, array_ids=array_ids)
    kcfg = KMeansConfig(num_beams=size, direction_set=config.design_dirs, phase_spec=phase_spec, init=init,
                        n_rand=config.n_rand, max_iterations=config.max_iterations, seed=seed)
    result = kmeans_codebook(kcfg, config.grids)
    log["trace_db"] = [float(u) for u in result.mean_gain_trace_db]
    log["iterations"] = result.iterations
    log["status"] = "ok" if result.stop_reason != "max iterations" else "max iterations"
    return result.codebook, log


def evaluate_codebook(config: RunConfig, codebook: Codebook | None, out: Path) -> CoverageStats | None:
    """Write pattern/bound/gap CSVs and stats JSON; the codebook (None: bound only) must fit the config's arrays.

    One mesh lookup per array and one (K, N) gain matrix: its column max is the composite, its row argmax the summary.
    """
    dirs = config.eval_dirs
    _make_output_dir(out)
    resolved = resolve_directions(config.grids, dirs)
    bound = GainPattern(dirs, db_from_linear(upper_bound_gains_linear(resolved)))
    write_pattern_csv(bound, out / "bound.csv")
    if codebook is None:
        return None
    gains = entry_gains_linear(resolved, codebook)
    pattern = GainPattern(dirs, db_from_linear(composite_gains_linear(gains)))
    write_pattern_csv(pattern, out / "pattern.csv")
    write_pattern_csv(gap_map(pattern, bound), out / "gap.csv")
    stats = coverage_stats(pattern, config.percentiles)
    write_stats_json(stats, pattern, out / "stats.json")
    (out / "summary.txt").write_text(codebook_summary(codebook, resolved, gains) + "\n", encoding="utf-8")
    return stats


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
    out = _make_output_dir(Path(args.out) if args.out else _default_output_dir())
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
    write_json(sidecar, out / f"{args.name}.spec.json")
    print(f"wrote {csv_path} ({grid.theta_axis.size * grid.phi_axis.size} directions)")
    return 0


def _cmd_design(args) -> int:
    overrides = {"seed": args.seed, "size": args.size, "phase_bits": args.phase_bits,
                 "output_dir": args.output_dir}
    config = load_run_config(args.config, overrides)
    out = _make_output_dir(config.output_dir)
    codebook, log = design_codebook(config)
    save_codebook(codebook, out / "codebook.json")
    write_json(log, out / "design_log.json")
    status = log["status"]
    print(f"wrote {out / 'codebook.json'} ({codebook.size} beams, status: {status})")
    if status not in ("ok",):
        print(f"warning: {status}", file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    config = load_run_config(args.config, {"output_dir": args.output_dir})
    codebook = None
    if args.codebook:
        try:
            codebook = load_codebook(args.codebook)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"codebook {args.codebook}: {exc}") from None
        for entry in codebook.entries:
            grid = config.grids.get(entry.array_id)
            if grid is None or entry.weights.num_elements != grid.num_elements:
                raise ConfigError(f"codebook {args.codebook}: a beam with {entry.weights.num_elements} weights "
                                  f"on array '{entry.array_id}' fits no array of the config")
    out = config.output_dir
    stats = evaluate_codebook(config, codebook, out)
    if stats is not None:
        print(f"wrote {out / 'stats.json'} (mean {stats.mean_db:.2f} dB, median {stats.median_db:.2f} dB)")
    else:
        print(f"wrote {out / 'bound.csv'} (upper bound only)")
    return 0


def _cmd_compare(args) -> int:
    if len(args.configs) < 2:
        print("error: compare needs at least two configs", file=sys.stderr)
        return 2
    out = _make_output_dir(Path(args.output_dir) if args.output_dir else _default_output_dir())
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
            if isinstance(data, dict) and "entries" in data:
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
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
