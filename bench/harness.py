"""Run one benchmark workload: set up, time design + eval jobs, check, report.

The load is a closed loop in one process, one job at a time: every cycle
runs each job of the workload once, as ``beambook design`` followed by
``beambook eval --codebook``, both through in-process calls to
``beambook.cli.main``.  Cycles repeat until the run's time is spent.  Every
timed command is followed by the speed probe (see ``probe.py``), and times
are reported in reference seconds.  A traced run alternates untraced and
traced cycles; per-layer numbers come from the traced ones and the
difference between the two kinds is the tracing overhead.  ``run.py`` is
the command-line entry point.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import probe
import tracing
import workloads
from run import THREAD_ENV_VARS

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"


# Set-up is repeated this many times; setup_s is the median.  A fixed count
# keeps the garbage of the discarded imports, and so peak_rss_mb, the same
# from run to run.
SETUP_REPS = 21

# Slack for K-Means trace monotonicity, as in the acceptance suite (criterion 5).
TRACE_SLACK_DB = 1e-12

END_TO_END = {
    "setup_s": "s",
    "design_s": "s",
    "eval_s": "s",
    "median_db": "dB",
    "mean_db": "dB",
    "bound_gap_db": "dB",
    "peak_rss_mb": "MB",
}

# Workloads on which each traced layer must record calls; every other
# layer must record calls on every workload.
EXERCISED_ON = {
    "efield.load_efield": ("panels3-csv",),
    "efield.generate_ula_efield": ("ula4-paper", "ula16-sdr"),
    "codebook.generate_candidates": ("ula4-paper",),
    "codebook.greedy_codebook": ("ula4-paper",),
}

# Bindings made by ``from .x import y`` (and one method) that the guard checks
# one by one: (binding site, layer).
GUARDED_SITES = (
    ("codebook", "beamopt.design_beam"),
    ("codebook", "efield.snap_to_grid"),
    ("metrics", "efield.snap_to_grid"),
    ("cli", "efield.load_efield"),
    ("cli", "codebook.kmeans_codebook"),
    ("cli", "codebook.generate_candidates"),
    ("cli", "codebook.greedy_codebook"),
    ("cli", "codebook.codebook_summary"),
    ("cli", "metrics.coverage_stats"),
    ("cli", "metrics.write_pattern_csv"),
    ("efield.EFieldGrid", "efield.fields_at"),
)

# Per-layer metrics: name -> (unit, layer, statistic).  Statistic "s" is total
# span time, "self_s" self time, "calls" the span count, other names sum a
# count; ratios are computed in :func:`layer_metrics`.
PER_LAYER = {
    "efield.snap_to_grid.s": ("s", "efield.snap_to_grid", "s"),
    "efield.snap_to_grid.dirs": ("count", "efield.snap_to_grid", "dirs"),
    "efield.fields_at.s": ("s", "efield.fields_at", "s"),
    "efield.fields_at.dirs": ("count", "efield.fields_at", "dirs"),
    "efield.load_efield.s": ("s", "efield.load_efield", "s"),
    "efield.load_efield.rows": ("count", "efield.load_efield", "rows"),
    "efield.generate_ula_efield.s": ("s", "efield.generate_ula_efield", "s"),
    "beamopt.solve_sdr.s": ("s", "beamopt.solve_sdr", "s"),
    "beamopt.solve_sdr.calls": ("count", "beamopt.solve_sdr", "calls"),
    "beamopt.solve_sdr.sweeps": ("count", "beamopt.solve_sdr", "sweeps"),
    "beamopt.solve_sdr.shortcut_frac": ("fraction", "beamopt.solve_sdr", "shortcut_frac"),
    "beamopt.gaussian_randomization.s": ("s", "beamopt.gaussian_randomization", "s"),
    "beamopt.gaussian_randomization.draws": ("count", "beamopt.gaussian_randomization", "draws"),
    "beamopt.coordinate_descent.s": ("s", "beamopt.coordinate_descent", "s"),
    "beamopt.coordinate_descent.sweeps": ("count", "beamopt.coordinate_descent", "sweeps"),
    "beamopt.design_beam.calls": ("count", "beamopt.design_beam", "calls"),
    "beamopt.design_beam.self_s": ("s", "beamopt.design_beam", "self_s"),
    "codebook.kmeans_codebook.self_s": ("s", "codebook.kmeans_codebook", "self_s"),
    "codebook.kmeans_codebook.iterations": ("count", "codebook.kmeans_codebook", "iterations"),
    "codebook.generate_candidates.self_s": ("s", "codebook.generate_candidates", "self_s"),
    "codebook.generate_candidates.candidates": ("count", "codebook.generate_candidates", "candidates"),
    "codebook.greedy_codebook.self_s": ("s", "codebook.greedy_codebook", "self_s"),
    "codebook.greedy_codebook.pick_frac": ("fraction", "codebook.greedy_codebook", "pick_frac"),
    "codebook.codebook_summary.s": ("s", "codebook.codebook_summary", "s"),
    "metrics.composite_gains_linear.self_s": ("s", "metrics.composite_gains_linear", "self_s"),
    "metrics.upper_bound_gains_linear.self_s": ("s", "metrics.upper_bound_gains_linear", "self_s"),
    "metrics.coverage_stats.s": ("s", "metrics.coverage_stats", "s"),
    "metrics.write_pattern_csv.s": ("s", "metrics.write_pattern_csv", "s"),
    "metrics.write_pattern_csv.bytes": ("bytes", "metrics.write_pattern_csv", "bytes"),
    "cli.load_run_config.self_s": ("s", "cli.load_run_config", "self_s"),
    "cli.self_s": ("s", "cli", "self_s"),
    "cli.artifact_bytes": ("bytes", "cli", "artifact_bytes"),
    "beamopt.solve_sdr.design_share": ("fraction", "beamopt.solve_sdr", "design_share"),
    "efield_metrics.eval_share": ("fraction", "efield_metrics", "eval_share"),
    "trace.overhead_s": ("s", "trace", "overhead_s"),
}

# Layers whose self time in eval the panels3-csv rationale groups together.
LOOKUP_IO_METRICS = ("efield.snap_to_grid", "efield.fields_at", "efield.load_efield")


class CoverageError(RuntimeError):
    """A traced callable recorded no calls on a workload that exercises it."""


@dataclass
class JobRecord:
    cycle: int
    job: str
    traced: bool
    # Reference seconds (probe-scaled) and wall seconds of each command.
    design_s: float = 0.0
    eval_s: float = 0.0
    design_wall_s: float = 0.0
    eval_wall_s: float = 0.0
    median_db: float = float("nan")
    mean_db: float = float("nan")
    bound_mean_db: float = float("nan")
    problems: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def git_commit(root: Path = REPO_ROOT) -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_ENV_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Program under test
# ---------------------------------------------------------------------------


def import_program():
    """Import ``beambook.cli`` afresh from this checkout's ``src``.

    Any previously imported ``beambook`` module is dropped first, so each
    call pays the full package import.
    """
    if not (SRC_DIR / "beambook" / "__init__.py").is_file():
        raise FileNotFoundError(f"no beambook package under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    for name in [n for n in sys.modules if n == "beambook" or n.startswith("beambook.")]:
        del sys.modules[name]
    cli = importlib.import_module("beambook.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC_DIR):
        raise ImportError(f"beambook imported from {cli.__file__}, not from {SRC_DIR}")
    return cli


def run_cli(cli, argv: list[str]) -> tuple[int, float, str]:
    """One in-process CLI command: (exit code, wall seconds, captured output)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        elapsed = time.perf_counter() - start
    return code, elapsed, sink.getvalue()


def measure_setup(jobs: list[workloads.Job], speed: probe.SpeedProbe):
    """Repeated set-ups (package import plus one config load per job).

    Returns their reference and wall times and the last imported ``cli``.
    """
    times, walls = [], []
    for _ in range(SETUP_REPS):
        gc.collect()
        start = time.perf_counter()
        cli = import_program()
        for job in jobs:
            cli.load_run_config(job.config)
        walls.append(time.perf_counter() - start)
        times.append(speed.scale(walls[-1]))
    return times, walls, cli


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


def read_pattern(path: Path) -> np.ndarray:
    """Rows of (theta, phi, weight, gain_db) from a pattern CSV."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def weighted_mean_db(pattern: np.ndarray) -> float:
    weights, gains_db = pattern[:, 2], pattern[:, 3]
    return float(10.0 * np.log10(np.dot(weights, 10.0 ** (gains_db / 10.0))))


def stats_median(out: Path) -> float:
    return float(json.loads((out / "stats.json").read_text())["percentiles"]["50"])


def reference_medians(cli, jobs: list[workloads.Job], work: Path) -> dict[str, float | None]:
    """Median of the closed-form benchmark codebook for every job with paper windows."""
    medians: dict[str, float | None] = {}
    for job in jobs:
        if job.reference is None or job.windows is None:
            continue
        out = work / f"reference-{job.name}"
        design = run_cli(cli, ["design", "--config", str(job.reference), "--output-dir", str(out)])[0]
        evaluate = run_cli(cli, ["eval", "--config", str(job.reference), "--codebook",
                                 str(out / "codebook.json"), "--output-dir", str(out)])[0]
        medians[job.name] = stats_median(out) if design == evaluate == 0 else None
    return medians


def _outside(value: float, window: tuple) -> bool:
    low, high = window
    return (low is not None and value < low) or (high is not None and value > high)


def check_job(cli, job: workloads.Job, out: Path, record: JobRecord, reference: float | None) -> None:
    """Append every failed check of one finished job to ``record.problems``."""
    code, _, text = run_cli(cli, ["selfcheck", str(out)])
    if code != 0:
        record.problems.append(f"selfcheck exit {code}: {text.strip()[-300:]}")
    try:
        gap = read_pattern(out / "gap.csv")
        if gap.size == 0 or np.min(gap[:, 3]) < 0.0:
            record.problems.append("gap.csv is empty or has a negative gap (composite above bound)")
        stats = json.loads((out / "stats.json").read_text())
        record.mean_db = float(stats["mean_db"])
        record.median_db = float(stats["percentiles"]["50"])
        record.bound_mean_db = weighted_mean_db(read_pattern(out / "bound.csv"))
        log = json.loads((out / "design_log.json").read_text())
    except (OSError, ValueError, KeyError) as exc:
        record.problems.append(f"unreadable output: {exc}")
        return
    if job.kind == "kmeans" and np.any(np.diff(log.get("trace_db", [])) < -TRACE_SLACK_DB):
        record.problems.append("K-Means trace_db decreases")
    if job.windows is not None:
        if reference is None:
            record.problems.append("benchmark codebook reference run failed")
            return
        values = {"benchmark": reference, "proposed": record.median_db, "gap": record.median_db - reference}
        for key, window in job.windows.items():
            if _outside(values[key], window):
                record.problems.append(f"{key} median {values[key]:.3f} dB outside {window}")


def check_repeat(cli, job: workloads.Job, out: Path, work: Path) -> str | None:
    """Design again with the same config and seed; artifacts must match byte for byte."""
    again = work / f"repeat-{job.name}"
    code = run_cli(cli, ["design", "--config", str(job.config), "--output-dir", str(again)])[0]
    if code != 0:
        return f"repeat design exit {code}"
    for name in ("codebook.json", "design_log.json"):
        if (out / name).read_bytes() != (again / name).read_bytes():
            return f"repeat design wrote a different {name}"
    return None


# ---------------------------------------------------------------------------
# Load loop
# ---------------------------------------------------------------------------


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def run_job(cli, job: workloads.Job, out: Path, record: JobRecord, speed: probe.SpeedProbe,
            tracer: tracing.Tracer | None) -> None:
    shutil.rmtree(out, ignore_errors=True)
    commands = (
        ("design", ["design", "--config", str(job.config), "--output-dir", str(out)]),
        ("eval", ["eval", "--config", str(job.config), "--codebook", str(out / "codebook.json"),
                  "--output-dir", str(out)]),
    )
    for command, argv in commands:
        before = artifact_bytes(out) if out.exists() else 0
        gc.collect()  # every command starts from the same heap state, as a fresh CLI process would
        if tracer is None:
            code, elapsed, text = run_cli(cli, argv)
        else:
            with tracer.root("cli", f"{record.cycle}/{job.name}/{command}") as span:
                code, elapsed, text = run_cli(cli, argv)
            span.counts = {"artifact_bytes": (artifact_bytes(out) if out.exists() else 0) - before}
        setattr(record, f"{command}_wall_s", elapsed)
        setattr(record, f"{command}_s", speed.scale(elapsed))
        if code != 0:
            record.problems.append(f"{command} exit {code}: {text.strip()[-300:]}")
            return


def run_cycles(cli, jobs, work: Path, seconds: float, speed, tracer, references) -> list[JobRecord]:
    records: list[JobRecord] = []
    start = time.perf_counter()
    cycle = 0
    min_cycles = 2 if tracer is not None else 1
    while cycle < min_cycles or time.perf_counter() - start < seconds:
        traced = tracer is not None and cycle % 2 == 1
        for job in jobs:
            record = JobRecord(cycle, job.name, traced)
            out = work / f"out-{job.name}"
            run_job(cli, job, out, record, speed, tracer if traced else None)
            if not record.problems:
                check_job(cli, job, out, record, references.get(job.name))
            records.append(record)
        cycle += 1
    return records


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def per_cycle(records: list[JobRecord], attr: str, traced: bool | None = None) -> list[float]:
    """Mean of one per-job timing within each cycle (one value per cycle)."""
    cycles: dict[int, list[float]] = {}
    for r in records:
        if traced is None or r.traced == traced:
            cycles.setdefault(r.cycle, []).append(getattr(r, attr))
    return [statistics.fmean(v) for _, v in sorted(cycles.items())]


def end_to_end(records: list[JobRecord], setup_times: list[float]) -> dict[str, float]:
    good = [r for r in records if not r.problems]
    quality = good or records
    return {
        "setup_s": statistics.median(setup_times),
        "design_s": statistics.median(per_cycle(records, "design_s", traced=False)),
        "eval_s": statistics.median(per_cycle(records, "eval_s", traced=False)),
        "median_db": statistics.fmean(r.median_db for r in quality),
        "mean_db": statistics.fmean(r.mean_db for r in quality),
        "bound_gap_db": statistics.fmean(r.bound_mean_db - r.mean_db for r in quality),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _cycle_sums(spans: list[tracing.Span], factors: dict[str, float]) -> dict:
    """Totals of one traced cycle: {layer: {"s", "self_s", "calls", counts...}} plus command times.

    Span times are scaled to reference seconds with their command's factor.
    """
    sums: dict[str, dict[str, float]] = {}
    command_s = {"design": 0.0, "eval": 0.0}
    eval_group = 0.0
    design_sdr = 0.0
    for span in spans:
        factor = factors[span.job]
        duration, self_s = span.duration * factor, span.self_s * factor
        layer = sums.setdefault(span.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        layer["s"] += duration
        layer["self_s"] += self_s
        layer["calls"] += 1
        for key, value in span.counts.items():
            layer[key] = layer.get(key, 0) + value
        command = span.job.rsplit("/", 1)[-1]
        if span.name == "cli":
            command_s[command] += duration
        elif command == "eval" and (span.name in LOOKUP_IO_METRICS or span.name.startswith("metrics.")):
            eval_group += self_s
        elif command == "design" and span.name == "beamopt.solve_sdr":
            design_sdr += self_s
    sdr = sums.setdefault("beamopt.solve_sdr", {})
    sdr["design_share"] = design_sdr / command_s["design"] if command_s["design"] else 0.0
    sdr["shortcut_frac"] = sdr.get("shortcuts", 0) / sdr["calls"] if sdr.get("calls") else 0.0
    greedy = sums.setdefault("codebook.greedy_codebook", {})
    greedy["pick_frac"] = greedy.get("picks", 0) / greedy["pool"] if greedy.get("pool") else 0.0
    sums["efield_metrics"] = {"eval_share": eval_group / command_s["eval"] if command_s["eval"] else 0.0}
    return sums


def layer_metrics(spans: list[tracing.Span], records: list[JobRecord]) -> dict[str, float]:
    """Median over traced cycles of every per-layer metric."""
    by_cycle: dict[str, list[tracing.Span]] = {}
    for span in spans:
        by_cycle.setdefault(span.job.split("/", 1)[0], []).append(span)
    factors = {f"{r.cycle}/{r.job}/{command}": getattr(r, f"{command}_s") / getattr(r, f"{command}_wall_s")
               for r in records if r.traced for command in ("design", "eval") if getattr(r, f"{command}_wall_s")}
    totals = [_cycle_sums(group, factors) for group in by_cycle.values()]

    def cycle_s(traced: bool) -> float:
        return statistics.median(d + e for d, e in zip(per_cycle(records, "design_s", traced),
                                                       per_cycle(records, "eval_s", traced)))

    out = {}
    for name, (_, layer, stat) in PER_LAYER.items():
        if name == "trace.overhead_s":
            jobs_per_cycle = len({r.job for r in records})
            out[name] = (cycle_s(True) - cycle_s(False)) * jobs_per_cycle
        else:
            out[name] = statistics.median(float(t.get(layer, {}).get(stat, 0.0)) for t in totals)
    return out


def check_coverage(tracer: tracing.Tracer, workload: str) -> None:
    """Raise CoverageError if a wrapped callable missed calls it must have had."""
    layer_calls: dict[str, int] = {}
    for (_, layer), calls in tracer.site_calls.items():
        layer_calls[layer] = layer_calls.get(layer, 0) + calls
    missing = []
    for module, attr, _ in tracing.TARGETS:
        layer = tracing.layer_name(module, attr)
        if layer in tracer.absent or workload not in EXERCISED_ON.get(layer, workloads.WORKLOADS):
            continue
        if layer_calls.get(layer, 0) == 0:
            missing.append(layer)
        for site, guarded in GUARDED_SITES:
            if guarded == layer and tracer.site_calls.get((site, layer)) == 0:
                missing.append(f"{layer} via {site}")
    if missing:
        raise CoverageError(f"no calls recorded on {workload} for: {', '.join(missing)}")


def rationale(workload: str, spans: list[tracing.Span], layers: dict[str, float]) -> list[str]:
    """Check the workload's stated reason against the traced run."""
    lines = []
    if workload in ("ula4-paper", "ula16-sdr"):
        rows = layers["efield.load_efield.rows"]
        lines.append(f"efield.load_efield.rows = {rows:g} (predicted 0): {'holds' if rows == 0 else 'does not hold'}")
    if workload == "ula16-sdr":
        self_s: dict[str, float] = {}
        for span in spans:
            if span.job.endswith("/design"):
                self_s[span.name] = self_s.get(span.name, 0.0) + span.self_s
        top = max(self_s, key=self_s.get)
        lines.append(f"largest self time in design: {top} "
                     f"(solve_sdr share {layers['beamopt.solve_sdr.design_share']:.2f}; predicted beamopt.solve_sdr): "
                     f"{'holds' if top == 'beamopt.solve_sdr' else 'does not hold'}")
    if workload == "panels3-csv":
        by_module: dict[str, float] = {"efield lookup + load_efield + metrics": 0.0}
        for span in spans:
            if not span.job.endswith("/eval"):
                continue
            if span.name in LOOKUP_IO_METRICS or span.name.startswith("metrics."):
                key = "efield lookup + load_efield + metrics"
            else:
                key = span.name.split(".", 1)[0]
            by_module[key] = by_module.get(key, 0.0) + span.self_s
        top = max(by_module, key=by_module.get)
        lines.append(f"largest self time in eval: {top} (share {layers['efield_metrics.eval_share']:.2f}; "
                     f"predicted efield lookup + load_efield + metrics): "
                     f"{'holds' if top.startswith('efield lookup') else 'does not hold'}")
    if workload == "ula4-paper":
        greedy = [s for s in spans if s.name == "beamopt.solve_sdr" and "-greedy/" in s.job]
        frac = sum(s.counts.get("shortcuts", 0) for s in greedy) / len(greedy) if greedy else 0.0
        lines.append(f"solve_sdr shortcut_frac on the greedy job = {frac:.3f} (predicted 1): "
                     f"{'holds' if frac == 1.0 else 'does not hold'}")
    return lines


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Generate inputs, set up, run the load loop, and return the report."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        inputs = workloads.generate(workload, seed, work / "inputs", tiny=tiny)
        speed = probe.SpeedProbe()
        setup_times, setup_walls, cli = measure_setup(inputs.jobs, speed)
        references = reference_medians(cli, inputs.jobs, work)
        tracer = tracing.Tracer() if trace else None
        with tracer or contextlib.nullcontext():
            records = run_cycles(cli, inputs.jobs, work, seconds, speed, tracer, references)
        last = {r.job: r for r in records}
        for job in inputs.jobs:
            if not last[job.name].problems:
                problem = check_repeat(cli, job, work / f"out-{job.name}", work)
                if problem:
                    last[job.name].problems.append(problem)
        report = {
            "workload": workload,
            "environment": environment(seed),
            "inputs": {"sha256": inputs.hashes, "digest": inputs.digest},
            "cycles": records[-1].cycle + 1,
            "jobs": len(records),
            "setup_samples": len(setup_times),
            "records": records,
            "end_to_end": end_to_end(records, setup_times),
            "wall_s": {
                "setup_s": statistics.median(setup_walls),
                "design_s": statistics.median(per_cycle(records, "design_wall_s", traced=False)),
                "eval_s": statistics.median(per_cycle(records, "eval_wall_s", traced=False)),
            },
        }
        if tracer is not None:
            check_coverage(tracer, workload)
            report["per_layer"] = layer_metrics(tracer.spans, records)
            report["rationale"] = rationale(workload, tracer.spans, report["per_layer"])
            report["absent_layers"] = tracer.absent
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description="beambook design + eval benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed load loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead of end-to-end metrics")
    return parser.parse_args(argv)


def result_line(report: dict, trace: bool) -> dict:
    """The benchmark's final JSON object."""
    failed = sum(1 for r in report["records"] if r.problems)
    if trace:
        metrics = {name: {"value": report["per_layer"][name], "unit": unit}
                   for name, (unit, _, _) in PER_LAYER.items()}
    else:
        metrics = {name: {"value": report["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": failed == 0, "attempted": len(report["records"]), "failed": failed, "metrics": metrics}


def print_report(report: dict, trace: bool) -> None:
    records = report["records"]
    untraced_cycles = len(per_cycle(records, "design_s", traced=False))
    failed = [r for r in records if r.problems]
    print(f"workload {report['workload']}  seed {report['environment']['seed']}  "
          f"cycles {report['cycles']}  jobs {len(records)}  failed_frac {len(failed) / len(records):.4f}")
    samples = {"setup_s": report["setup_samples"], "design_s": untraced_cycles, "eval_s": untraced_cycles,
               "peak_rss_mb": 1}
    for name, unit in END_TO_END.items():
        n = samples.get(name, len(records))
        wall = f"  (wall {report['wall_s'][name]:.5f} s)" if name in report["wall_s"] else ""
        print(f"  {name:<14} {report['end_to_end'][name]:>12.5f} {unit:<3} n={n}{wall}")
    if trace:
        for name, (unit, _, _) in PER_LAYER.items():
            print(f"  {name:<42} {report['per_layer'][name]:>14.6g} {unit}")
        for line in report["rationale"]:
            print(f"  rationale: {line}")
        for name in report["absent_layers"]:
            print(f"  absent from src (reads 0): {name}")
    for r in failed[:10]:
        print(f"  FAILED cycle {r.cycle} {r.job}: {'; '.join(r.problems)}")
    record = {key: report[key] for key in ("workload", "environment", "inputs", "cycles", "jobs", "wall_s")}
    record["samples"] = samples
    print(json.dumps({"record": record}, sort_keys=True))


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    width = max(len(n) for n in names)
    print(f"{'metric':<{width}} " + " ".join(f"{w:>14}" for w in results) + "  unit")
    for name in names:
        values = " ".join(f"{results[w]['metrics'][name]['value']:>14.6g}" for w in results)
        print(f"{name:<{width}} {values}  {results[workloads.WORKLOADS[0]]['metrics'][name]['unit']}")
    print(f"{'failed/attempted':<{width}} "
          + " ".join(f"{str(results[w]['failed']) + '/' + str(results[w]['attempted']):>14}" for w in results))
    print(json.dumps(results, sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report, bool(args.trace))
    print(json.dumps(result_line(report, bool(args.trace))))
    return 0
