"""Span recorder for the traced benchmark run.

The recorder wraps the package's public layer functions at the names their
caller modules bind (``memwave.pipeline.solve_gl``,
``memwave.connecting.apply_response``, ...), so the package itself is timed
from outside without a line of it changing.  Each call inside an operation
becomes a span with name, start, end, parent and operation id; spans stay in
memory until the run ends and are then folded into per-layer metrics.

A span's self time is its duration minus the durations of its direct
children.  Every operation has a root span named ``pipeline``, so the self
times of all spans of one operation add up to the root span exactly and the
root's own self time is the part no layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

# (caller module, bound name, span name, per-span tracemalloc peak)
BINDINGS = [
    ("memwave.pipeline", "read_csv", "artifacts.read_csv", False),
    ("memwave.pipeline", "write_csv", "artifacts.write_csv", False),
    ("memwave.pipeline", "write_json", "artifacts.write_json", False),
    ("memwave.pipeline", "connecting_kernel_from_response", "connecting.from_response", True),
    ("memwave.pipeline", "connecting_kernel_from_w", "connecting.from_w", False),
    ("memwave.pipeline", "connecting_form_from_kernel", "connecting.forms", False),
    ("memwave.pipeline", "connecting_form_from_interior", "connecting.forms", False),
    ("memwave.pipeline", "apply_response", "forward.apply_response", False),
    ("memwave.pipeline", "fd_forward", "forward.fd_forward", False),
    ("memwave.pipeline", "fd_boundary_trace", "forward.fd_boundary_trace", False),
    ("memwave.pipeline", "solve_gl", "gelfand_levitan.solve_gl", True),
    ("memwave.pipeline", "gl_residual", "gelfand_levitan.gl_residual", False),
    ("memwave.pipeline", "operator_identity_residual", "gelfand_levitan.operator_identity", False),
    ("memwave.pipeline", "recover_potential", "gelfand_levitan.recover", False),
    ("memwave.pipeline", "reconstruction_errors", "gelfand_levitan.errors", False),
    ("memwave.pipeline", "solve_goursat", "goursat.solve_goursat", False),
    ("memwave.pipeline", "response_kernel", "goursat.response_kernel", False),
    ("memwave.pipeline", "diagonal_residual", "goursat.diagonal_residual", False),
    ("memwave.connecting", "apply_response", "forward.apply_response", False),
    ("memwave.connecting", "fd_forward", "forward.fd_forward", False),
]

ROOT_SPAN = "pipeline"
MIB = float(1 << 20)


@dataclass
class Span:
    name: str
    op: str
    parent: int | None
    start: float
    end: float = math.nan
    n: int | None = None          # grid size N of the call, when it has one
    nbytes: int | None = None     # file size, for the artifacts spans
    peak_mb: float | None = None  # tracemalloc peak above the entry level
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class _MemFrame:
    base: int
    peak: int
    started: bool


def _grid_size(args) -> int | None:
    for a in args:
        grid = getattr(a, "grid", None)
        if grid is not None and hasattr(grid, "N"):
            return int(grid.N)
    return None


@dataclass
class Recorder:
    """In-memory span store; one instance per traced run."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _mem: list[_MemFrame] = field(default_factory=list)

    def _open(self, name: str, op: str, n=None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, op, parent, time.perf_counter(), n=n))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.duration
        return span

    def _mem_enter(self) -> None:
        if tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            for frame in self._mem:
                frame.peak = max(frame.peak, peak)
            tracemalloc.reset_peak()
            started = False
        else:
            tracemalloc.start()
            started = True
        base = tracemalloc.get_traced_memory()[0]
        self._mem.append(_MemFrame(base, base, started))

    def _mem_exit(self) -> float:
        _, peak = tracemalloc.get_traced_memory()
        frame = self._mem.pop()
        frame.peak = max(frame.peak, peak)
        if self._mem:
            self._mem[-1].peak = max(self._mem[-1].peak, frame.peak)
        if frame.started:
            tracemalloc.stop()
        return (frame.peak - frame.base) / MIB

    @contextmanager
    def op(self, op_id: str):
        """Root span of one operation; every layer span inside nests under it."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        idx = self._open(ROOT_SPAN, op_id)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, memory: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, self.spans[self._stack[0]].op, _grid_size(args))
            if name == "artifacts.read_csv":
                self.spans[idx].nbytes = os.path.getsize(args[0])
            if memory:
                self._mem_enter()
            try:
                return fn(*args, **kwargs)
            finally:
                if memory:
                    self.spans[idx].peak_mb = self._mem_exit()
                span = self._close(idx)
                if name in ("artifacts.write_csv", "artifacts.write_json"):
                    span.nbytes = os.path.getsize(args[0])
        return traced

    @contextmanager
    def installed(self):
        """Swap the traced wrappers in at the caller bindings, then restore."""
        saved = []
        try:
            for module_name, attr, name, memory in BINDINGS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, memory))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Self time, calls, bytes and peak per span name over the given spans."""
    totals: dict[str, dict] = {}
    for s in spans:
        t = totals.setdefault(s.name, {"self_s": 0.0, "calls": 0, "bytes": 0,
                                       "peak_mb": 0.0})
        t["self_s"] += s.self_s
        t["calls"] += 1
        t["bytes"] += s.nbytes or 0
        t["peak_mb"] = max(t["peak_mb"], s.peak_mb or 0.0)
    return totals


def growth_exponent(spans: list[Span], name: str) -> float:
    """Slope of log(self time) against log(N) between the two largest sizes.

    Takes the fastest call at each N, so a stray slow call does not bend the
    slope.  The top of the ladder is used because per-call overhead flattens
    the small rungs.
    """
    best: dict[int, float] = {}
    for s in spans:
        if s.name == name and s.n:
            best[s.n] = min(best.get(s.n, math.inf), s.self_s)
    if len(best) < 2:
        raise ValueError(f"{name}: calls at fewer than two grid sizes")
    (n0, t0), (n1, t1) = sorted(best.items())[-2:]
    return math.log(t1 / t0) / math.log(n1 / n0)
