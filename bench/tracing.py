"""Per-layer spans recorded from outside the program.

:class:`Tracer` replaces selected public callables of ``beambook`` with
wrappers that record a span (layer name, start, end, parent span, job id)
and the counts read off the call's arguments and return value.  Every
module attribute bound to the original object is replaced, including the
aliases that ``from .x import y`` creates, and :meth:`Tracer.restore` puts
every original back.  Spans stay in memory until the run ends.

Spans are recorded only inside a root span that the harness opens around
one CLI command, so the benchmark's own checks never show up as work.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    job: str
    parent: int | None
    start: float
    end: float = 0.0
    children_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time direct child spans cover (children never overlap)."""
        return self.duration - self.children_s


def _len_arg(index: int, key: str):
    def count(args, kwargs, result):
        return {key: len(args[index])}
    return count


def _arg(index: int, name: str, key: str):
    def count(args, kwargs, result):
        return {key: kwargs[name] if name in kwargs else args[index]}
    return count


def _grid_rows(args, kwargs, result):
    return {"rows": result.num_elements * result.theta_axis.size * result.phi_axis.size}


def _sdr(args, kwargs, result):
    return {"sweeps": result.iterations, "shortcuts": int(result.iterations == 0)}


def _cd_sweeps(args, kwargs, result):
    return {"sweeps": len(result.objectives) - 1}


def _kmeans_iterations(args, kwargs, result):
    return {"iterations": result.iterations}


def _candidates(args, kwargs, result):
    return {"candidates": len(result)}


def _greedy_picks(args, kwargs, result):
    return {"picks": result.codebook.size, "pool": len(args[0])}


def _bytes_written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


# (module, attribute, count function).  The layer name is "<module>.<function>".
TARGETS = (
    ("efield", "snap_to_grid", _len_arg(0, "dirs")),
    ("efield", "EFieldGrid.fields_at", _len_arg(1, "dirs")),
    ("efield", "load_efield", _grid_rows),
    ("efield", "generate_ula_efield", None),
    ("beamopt", "solve_sdr", _sdr),
    ("beamopt", "gaussian_randomization", _arg(2, "n_rand", "draws")),
    ("beamopt", "coordinate_descent", _cd_sweeps),
    ("beamopt", "design_beam", None),
    ("codebook", "kmeans_codebook", _kmeans_iterations),
    ("codebook", "generate_candidates", _candidates),
    ("codebook", "greedy_codebook", _greedy_picks),
    ("codebook", "codebook_summary", None),
    ("metrics", "composite_gains_linear", None),
    ("metrics", "upper_bound_gains_linear", None),
    ("metrics", "coverage_stats", None),
    ("metrics", "write_pattern_csv", _bytes_written),
    ("cli", "load_run_config", None),
)


def layer_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


PACKAGE = "beambook"


class Tracer:
    """Wraps the callables in :data:`TARGETS` and records their spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.site_calls: dict[tuple[str, str], int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._job = ""
        self._restore: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Replace every binding of every target inside the package."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
        for module, attr, count in TARGETS:
            name = layer_name(module, attr)
            home = modules.get(f"{PACKAGE}.{module}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, fn_name, None) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            if owner_name:  # a method: patch the class once
                self._patch(owner, fn_name, original, name, f"{module}.{owner_name}", count)
                continue
            for mod_name, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, name, mod_name.rpartition(".")[2], count)

    def _patch(self, owner, attr: str, original, name: str, site: str, count) -> None:
        site_key = (site, name)
        self.site_calls.setdefault(site_key, 0)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return original(*args, **kwargs)
            tracer.site_calls[site_key] += 1
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                tracer.spans[span].counts = count(args, kwargs, result)
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original callable back, newest patch first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._job, parent, time.perf_counter()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.duration

    @contextlib.contextmanager
    def root(self, name: str, job: str):
        """Span of one CLI command of one job; nested wrapped calls become its children."""
        self._job = job
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)
