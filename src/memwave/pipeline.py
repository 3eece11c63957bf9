"""Pipeline stages behind the CLI: synth, reconstruct, verify, convergence.

Every stage reads/writes a plain directory of CSV/JSON artifacts, so runs
can be chained, diffed and replayed.  report.json is deterministic (same
inputs, same bytes); wall-clock numbers go to timings.json instead.  Every
stage builds its report in one envelope, ``_report``: the schema version and
the command, then the stage's own fields; the same call writes report.json
and timings.json.  Every stage runs in this one process.

``reconstruct`` runs in one process and in one order: load the data,
assemble c_T, solve the Gelfand-Levitan equations and recover q_hat,
compute the metrics, then create the output directory and write cT.csv and
q_hat.csv, so a failed solve leaves no directory behind.  Its laps are
``load``, ``connecting``, ``gelfand_levitan``, ``metrics`` and
``artifacts``.  Its metrics are what the solve computes anyway (condition
estimate, pivots, Galerkin asymmetry) and, with truth_q.csv, the errors;
the residual checks of the solve belong to ``verify``.

The ``verify`` stage is the package's own referee: it re-derives quantities
along independent routes (finite differences vs. kernel route, probe
assembly vs. factorization identity) and fails loudly when the artifacts in
a directory are not mutually consistent.  Every check reads the data, not
truth_q.csv alone.  Each check is one function that one guard runs under
the lap named after it; a breakage (a ``NumericalFailure``) the check raises
fails it by name.  The only Goursat marches of ``verify`` are the three-way
check's factor route, in its ``three_way_connecting`` lap.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import read_csv, read_json, write_csv, write_json
from .catalog import ProblemSpec, get_problem
from .connecting import (
    connecting_form_from_interior,
    connecting_form_from_kernel,
    connecting_kernel_from_response,
    connecting_kernel_from_w,
)
from .errors import NumericalFailure, UsageError
from .forward import apply_response, fd_boundary_trace, fd_forward
from .gelfand_levitan import (
    ERROR_WINDOW,
    gl_residual,
    operator_identity_residual,
    reconstruction_errors,
    recover_potential,
    solve_gl,
)
from .goursat import diagonal_residual, response_kernel, solve_goursat
from .model import (
    CoefficientField,
    GridSpec,
    MemoryKernel,
    ResponseData,
    control_from_family,
)

__all__ = [
    "PipelineConfig",
    "load_config",
    "run_synth",
    "run_reconstruct",
    "run_verify",
    "run_convergence",
]

SCHEMA_VERSION = 7

# verify-stage acceptance bands (tuned on the catalogue problems: clean data
# passes with at least a 4x margin, a single corrupted response sample fails)
_TWO_PATH_ORDER_BAND = (1.4, 2.6)
_THREE_WAY_REL_TOL = 2e-2
_THREE_WAY_ORDER_BAND = (1.2, 3.4)
_GL_RESIDUAL_FACTOR = 1e-8


@dataclass(frozen=True)
class PipelineConfig:
    """Validated problem description for one pipeline run."""

    T: float
    N: int
    problem: ProblemSpec
    noise_sigma: float = 0.0
    noise_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.noise_sigma < np.inf:  # NaN fails too
            raise UsageError("config: noise.sigma must be finite and >= 0")
        if self.noise_seed < 0:  # numpy's generators take no negative seed
            raise UsageError(f"config: noise.seed must be >= 0, got {self.noise_seed}")

    def grid(self) -> GridSpec:
        return GridSpec(self.T, self.N)

    def fields(self) -> tuple[CoefficientField, MemoryKernel]:
        return self.problem.fields(self.grid())

    def echo(self) -> dict:
        p = self.problem
        return {
            "problem": p.name,
            "q": {"family": p.q_family, "params": list(p.q_params)},
            "K": {"family": p.k_family, "params": list(p.k_params)},
            "T": self.T,
            "N": self.N,
            "noise": {"sigma": self.noise_sigma, "seed": self.noise_seed},
        }


def _number(value, what: str, kind: type = float):
    """``value`` as ``kind``: a float from any JSON number, an int from a
    JSON integer only; a bool or a string is refused, never coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        need = "a number" if kind is float else "an integer"
        raise UsageError(f"config: {what} must be {need}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise UsageError(f"config: {what} is out of range, got {value!r}") from None


def _family_entry(raw, what: str) -> tuple[str, tuple]:
    if not isinstance(raw, dict) or set(raw) - {"family", "params"}:
        raise UsageError(f"config: {what} must be {{family, params}}")
    fam = raw.get("family")
    params = raw.get("params", [])
    if not isinstance(fam, str) or not isinstance(params, list):
        raise UsageError(f"config: {what}.family is a string, {what}.params a list")
    return fam, tuple(_number(p, f"{what}.params") for p in params)


def config_from_dict(raw: dict) -> PipelineConfig:
    allowed = {"problem", "q", "K", "T", "N", "noise"}
    unknown = set(raw) - allowed
    if unknown:
        raise UsageError(f"config: unknown keys {sorted(unknown)}")
    if "problem" in raw and ("q" in raw or "K" in raw):
        raise UsageError("config: give either a catalogue problem or explicit q/K")
    noise = raw.get("noise", {})
    if not isinstance(noise, dict) or set(noise) - {"sigma", "seed"}:
        raise UsageError("config: noise must be {sigma, seed}")
    T = _number(raw.get("T", 1.0), "T")
    N = _number(raw.get("N", 64), "N", int)
    sigma = _number(noise.get("sigma", 0.0), "noise.sigma")
    seed = _number(noise.get("seed", 0), "noise.seed", int)
    if "problem" in raw:
        name = raw["problem"]
        if not isinstance(name, str):
            raise UsageError(f"config: problem must be a catalogue name, got {name!r}")
        prob = get_problem(name)
    else:
        qf, qp = _family_entry(raw["q"], "q") if "q" in raw else ("zero", ())
        kf, kp = _family_entry(raw["K"], "K") if "K" in raw else ("zero", ())
        prob = ProblemSpec(None, qf, qp, kf, kp)
    cfg = PipelineConfig(T=T, N=N, problem=prob, noise_sigma=sigma, noise_seed=seed)
    cfg.fields()  # fail fast on bad families/params
    return cfg


def load_config(path: str) -> PipelineConfig:
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    return config_from_dict(raw)


class _Timer:
    def __init__(self):
        self.laps: dict[str, float] = {}
        self._t0 = time.perf_counter()

    @contextmanager
    def lap(self, name: str):
        """Charge the time of the ``with`` body to ``name``, on top of earlier laps."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.laps[name] = self.laps.get(name, 0.0) + time.perf_counter() - start

    def finish(self) -> dict:
        self.laps["total"] = time.perf_counter() - self._t0
        return {name: round(s, 6) for name, s in self.laps.items()}


def _add_noise(r: ResponseData, sigma: float, seed: int) -> ResponseData:
    """Seeded Gaussian noise of level sigma on every response sample but t = 0."""
    if not sigma > 0.0:
        return r
    values = r.values.copy()
    rng = np.random.default_rng(seed)
    values[1:] += sigma * rng.standard_normal(values.size - 1)
    return ResponseData(r.grid, values)


def _max_abs(a: np.ndarray) -> float:
    """max|a|, without the |a| temporary: the same float for finite a."""
    return float(max(a.max(), -a.min()))


def _grid_block(grid: GridSpec) -> dict:
    return {"T": grid.T, "N": grid.N, "h": grid.h}


def _report(outdir: str | None, timer: _Timer, command: str, **fields) -> dict:
    """The report ``{schema_version, command, **fields}``; with ``outdir``,
    also report.json and timings.json with the laps."""
    head = {"schema_version": SCHEMA_VERSION, "command": command}
    report = {**head, **fields}
    if outdir is not None:
        write_json(os.path.join(outdir, "report.json"), report)
        write_json(os.path.join(outdir, "timings.json"),
                   {**head, "wall_times_s": timer.finish()})
    return report


# --------------------------------------------------------------------------
# synth
# --------------------------------------------------------------------------

def run_synth(cfg: PipelineConfig, outdir: str, *, seed: int | None = None) -> dict:
    """Simulate the forward problem and write the boundary data set."""
    timer = _Timer()
    if seed is not None:
        cfg = replace(cfg, noise_seed=seed)
    grid = cfg.grid()
    q, K = cfg.fields()

    with timer.lap("goursat"):
        r = response_kernel(solve_goursat(q, K))
        diag_res = diagonal_residual(q)

    r = _add_noise(r, cfg.noise_sigma, cfg.noise_seed)

    with timer.lap("artifacts"):
        t_full = grid.times_full()
        write_csv(os.path.join(outdir, "response.csv"), ["t", "r"],
                  np.stack([t_full, r.values], axis=1))
        write_csv(os.path.join(outdir, "kernel_K.csv"), ["t", "value"],
                  np.stack([t_full, K.values], axis=1))
        write_csv(os.path.join(outdir, "truth_q.csv"), ["x", "value"],
                  np.stack([grid.times_half(), q.values], axis=1))

    return _report(
        outdir, timer, "synth",
        status="ok",
        config=cfg.echo(),
        grid=_grid_block(grid),
        metrics={
            "response_max_abs": float(np.max(np.abs(r.values))),
            "kernel_max_abs": float(np.max(np.abs(K.values))),
            "diagonal_residual": diag_res,
        },
        artifacts=["response.csv", "kernel_K.csv", "truth_q.csv"],
    )


# --------------------------------------------------------------------------
# loading a data directory
# --------------------------------------------------------------------------

def _read_table(datadir: str, name: str) -> np.ndarray:
    """The two columns (grid, value) of the data table ``name``."""
    _, data = read_csv(os.path.join(datadir, name))
    if data.shape[1] != 2:
        raise UsageError(f"{name} must hold two columns (grid, value), "
                         f"got {data.shape[1]}")
    return data


def _load_data(datadir: str):
    """Read (grid, response, kernel, truth-or-None) from a data directory."""
    resp = _read_table(datadir, "response.csv")
    t = resp[:, 0]
    n_rows = t.size
    if n_rows < 3 or n_rows % 2 == 0:
        raise UsageError("response.csv must hold 2N+1 samples of [0, 2T]")
    h = t[1] - t[0]
    tol = 1e-9 * max(h, 1.0)
    if h <= 0 or np.max(np.abs(np.diff(t) - h)) > tol or abs(t[0]) > 1e-12:
        raise UsageError("response.csv time column is not a uniform grid from 0")
    N = (n_rows - 1) // 2
    grid = GridSpec(T=t[N], N=N)
    r = ResponseData(grid, resp[:, 1])

    kern = _read_table(datadir, "kernel_K.csv")
    if kern.shape[0] != n_rows or np.max(np.abs(kern[:, 0] - t)) > tol:
        raise UsageError("kernel_K.csv does not match the response time grid")
    K = MemoryKernel(grid, kern[:, 1])

    q = None
    # lexists: a dangling link is a truth that fails to read, not no truth
    if os.path.lexists(os.path.join(datadir, "truth_q.csv")):
        tq = _read_table(datadir, "truth_q.csv")
        if tq.shape[0] != N + 1:
            raise UsageError("truth_q.csv must hold N+1 samples of [0, T]")
        if np.max(np.abs(tq[:, 0] - grid.times_half())) > tol:
            raise UsageError("truth_q.csv x column does not match the grid of [0, T]")
        q = CoefficientField(grid, tq[:, 1])
    return grid, r, K, q


def _subsample(grid: GridSpec, r: ResponseData, K: MemoryKernel,
               q: CoefficientField | None, n: int):
    """The data on the level of ``n`` cells, which divides ``grid.N``."""
    stride = grid.N // n
    coarse = GridSpec(grid.T, n)
    rc = ResponseData(coarse, r.values[::stride])
    Kc = MemoryKernel(coarse, K.values[::stride])
    qc = CoefficientField(coarse, q.values[::stride]) if q is not None else None
    return coarse, rc, Kc, qc


def _check_level(N: int) -> int:
    """Largest level from 8 to 64 that divides N, to bound the checks' cost;
    else N itself (never a level below 8), so every kernel check runs native."""
    for n in range(min(N, 64), 7, -1):
        if N % n == 0:
            return n
    return N


def _ladder(n: int) -> list[int]:
    """The levels n/4, n/2 and n that have at least 8 cells and divide n."""
    return [m for m in (n // 4, n // 2, n) if m >= 8 and n % m == 0]


# --------------------------------------------------------------------------
# reconstruct
# --------------------------------------------------------------------------

def run_reconstruct(datadir: str, outdir: str) -> dict:
    """Recover the potential from a data directory and write the results."""
    timer = _Timer()
    with timer.lap("load"):
        grid, r, K, q_true = _load_data(datadir)

    with timer.lap("connecting"):
        cT = connecting_kernel_from_response(r, K)

    with timer.lap("gelfand_levitan"):
        gl = solve_gl(cT)
        q_hat = recover_potential(gl)

    with timer.lap("metrics"):
        metrics = {
            "cT_max_abs": _max_abs(cT.values),
            "cond_estimate": gl.cond_estimate,
            "min_pivot": gl.min_pivot,
            "min_pivot_depth": gl.min_pivot_depth,
            "pivot_deciles": list(gl.pivot_deciles),
            "galerkin_asymmetry": cT.asymmetry,
            "q_hat_max_abs": float(np.max(np.abs(q_hat.values))),
        }
        if q_true is not None:
            err = reconstruction_errors(q_true.values, q_hat.values, grid)
            metrics["l2_rel_err"] = err["interior_rel"]
            metrics["linf_err"] = err["interior_linf"]
            metrics["max_abs_err"] = err["max_abs"]
            metrics["window"] = list(ERROR_WINDOW)
        del gl  # free the (N+1)^2 solution before the tables are formatted

    with timer.lap("artifacts"):
        # the kernel matrix itself: row i is c(t_i, .), column j holds s_j
        write_csv(os.path.join(outdir, "cT.csv"), [f"s{j}" for j in range(grid.N + 1)],
                  cT.values)
        # free the (N+1)^2 kernel before the JSON encoder's reference cycles
        # can pin the heap it sits in
        del cT
        tt = grid.times_half()
        truth_col = q_true.values if q_true is not None else np.full(grid.N + 1, np.nan)
        write_csv(os.path.join(outdir, "q_hat.csv"), ["x", "q_true", "q_hat", "abs_err"],
                  np.stack([tt, truth_col, q_hat.values,
                            np.abs(q_hat.values - truth_col)], axis=1))

    return _report(outdir, timer, "reconstruct", status="ok", grid=_grid_block(grid),
                   metrics=metrics, artifacts=["cT.csv", "q_hat.csv"])


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _check(name: str, passed: bool, metric: float, threshold, detail: str) -> dict:
    return {
        "name": name,
        "passed": bool(passed),
        "metric": float(metric),
        "threshold": threshold,
        "detail": detail,
    }


def _mean_order(errs: list[float], floor: float) -> float:
    """Mean of ``log2(coarse / fine)`` over successive levels of ``errs``,
    taking 2.0 where the finer error is below ``floor``."""
    return float(np.mean([2.0 if fine < floor else float(np.log2(coarse / fine))
                          for coarse, fine in zip(errs, errs[1:])]))


def _verify_two_path(grid, r, K, q) -> dict:
    """Response route vs. leapfrog boundary trace, across grid levels."""
    levels = _ladder(grid.N)
    errs = []
    for n in levels:
        cg, rc, Kc, qc = _subsample(grid, r, K, q, n)
        f = control_from_family("smooth_bump_control", (0.5 * cg.T, 0.25 * cg.T), cg)
        lhs = apply_response(rc, f)
        # the trace reads rows 0-2: march only their backward cone, x_max = 2h
        rhs = fd_boundary_trace(fd_forward(qc, Kc, f, cg.T, 2 * cg.h), cg.h)
        errs.append(float(np.max(np.abs(lhs - rhs))))
    if len(errs) >= 2:
        metric = _mean_order(errs, 1e-15)
        lo, hi = _TWO_PATH_ORDER_BAND
        return _check("two_path_response", lo <= metric <= hi, metric, [lo, hi],
                      f"mismatch {errs} over levels {levels}")
    return _check("two_path_response", True, errs[-1], None,
                  "grid too coarse for order estimation, skipped")


def _verify_three_way(rungs, kernels, stop) -> dict:
    """Probe-assembled kernel vs. factor route vs. interior wave states.

    Up the ladder ``rungs``, each level reads the assembly's kernel (or
    re-raises ``stop``, the breakage that ended the assembly there), then
    marches the truth for the factor route; with two or more levels the
    measured order of the mismatch is gated beside the absolute gate at the
    finest level.
    """
    level_diffs = []
    for i, (cg, _, Kc, qc) in enumerate(rungs):
        if i == len(kernels):
            raise stop
        cw = connecting_kernel_from_w(solve_goursat(qc, Kc))
        rel = np.max(np.abs(kernels[i].values - cw.values))
        level_diffs.append(float(rel / (1.0 + np.max(np.abs(cw.values)))))
    del cw  # not held through the interior marches below
    worst = level_diffs[-1]
    controls = [
        control_from_family("smooth_bump_control", (c * cg.T, 0.2 * cg.T), cg)
        for c in (0.35, 0.5, 0.65)
    ]
    interior = connecting_form_from_interior(qc, Kc, controls)
    for a, b in ((0, 1), (1, 2), (0, 2)):
        lhs = connecting_form_from_kernel(kernels[-1], controls[a], controls[b])
        rhs = interior[a, b]
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    passed = worst <= _THREE_WAY_REL_TOL
    detail = (f"mismatch {level_diffs} over levels {[rung[0].N for rung in rungs]}, "
              f"wave-state forms folded into the finest level")
    if len(level_diffs) >= 2:
        metric = _mean_order(level_diffs, 1e-12)
        lo, hi = _THREE_WAY_ORDER_BAND
        passed = passed and lo <= metric <= hi
        return _check("three_way_connecting", passed, metric,
                      [lo, hi, _THREE_WAY_REL_TOL], detail)
    return _check("three_way_connecting", passed, worst, _THREE_WAY_REL_TOL, detail)


def _verify_operator_identity(cT, gl) -> dict:
    res = operator_identity_residual(cT, gl)
    tol = cT.grid.h * cT.grid.h * (1.0 + _max_abs(cT.values))
    return _check("operator_identity", res <= tol, res, tol,
                  f"factorization identity at level N={cT.grid.N}")


def _verify_gl_residual(cT, gl) -> dict:
    res = gl_residual(cT, gl)
    tol = _GL_RESIDUAL_FACTOR * (1.0 + _max_abs(cT.values))
    return _check("gl_residual", res <= tol, res, tol, "collocation solve residual")


def _guarded(timer: _Timer, name: str, threshold, check) -> dict:
    """``check()`` timed under the lap ``name``; a breakage it raises fails
    the check ``name`` with the breakage's message."""
    with timer.lap(name):
        try:
            return check()
        except NumericalFailure as exc:
            return _check(name, False, float("inf"), threshold, str(exc))


def run_verify(datadir: str, outdir: str | None = None) -> dict:
    """Cross-validate a data directory; status 'failed' if any check fails."""
    timer = _Timer()
    with timer.lap("load"):
        grid, r, K, q = _load_data(datadir)
    checks, asymmetry = _verify_checks(grid, r, K, q, timer)

    failed = [c["name"] for c in checks if not c["passed"]]
    return _report(outdir, timer, "verify", status="failed" if failed else "ok",
                   failed_checks=failed, grid=_grid_block(grid),
                   galerkin_asymmetry=asymmetry, checks=checks)


def _verify_checks(grid, r, K, q, timer: _Timer):
    """Every check of ``run_verify`` in report order, and the Galerkin asymmetry.

    The data kernel is assembled at a bounded ladder of levels, so verify
    stays cheap on fine data sets; the coarser levels only give the
    three-way check its order, and that check needs truth_q.csv.  Each
    level's data (``rungs``) is subsampled once, for the assembly and the
    three-way check alike.  The ladder and the solve keep what they reached
    and the breakage that stopped them (``stop``), which a check that needs
    the missing part re-raises.
    """
    n_top = _check_level(grid.N)
    kernels, gl, asymmetry, stop = [], None, None, None
    with timer.lap("connecting_assembly"):
        rungs = [_subsample(grid, r, K, q, m)
                 for m in (_ladder(n_top) if q is not None else [n_top])]
        try:
            for _, rc, Kc, _ in rungs:
                kernels.append(connecting_kernel_from_response(rc, Kc))
            asymmetry = {"N": n_top, "value": kernels[-1].asymmetry}
        except NumericalFailure as exc:
            stop = exc

    checks = []
    if q is not None:
        checks.append(_guarded(timer, "two_path_response", list(_TWO_PATH_ORDER_BAND),
                               lambda: _verify_two_path(grid, r, K, q)))
        checks.append(_guarded(timer, "three_way_connecting", _THREE_WAY_REL_TOL,
                               lambda: _verify_three_way(rungs, kernels, stop)))
    # the solve's (N+1)^2 array is not held through the marches above
    with timer.lap("gl_solve"):
        if stop is None:
            try:
                gl = solve_gl(kernels[-1])
            except NumericalFailure as exc:
                stop = exc

    def solved():
        if gl is None:
            raise stop
        return kernels[-1], gl

    checks.append(_guarded(timer, "operator_identity", None,
                           lambda: _verify_operator_identity(*solved())))
    checks.append(_guarded(timer, "gl_residual", None,
                           lambda: _verify_gl_residual(*solved())))
    return checks, asymmetry


# --------------------------------------------------------------------------
# convergence
# --------------------------------------------------------------------------

def _roundoff_floor(q: np.ndarray, N: int) -> float:
    """Estimated round-off level of ``interior_rel`` at grid size N.

    The Galerkin block is scaled by h^-2 and q_hat differentiates once more,
    so rounding errors of relative size eps grow to about eps N^2 in q_hat;
    relative to max|q|, or absolute when q vanishes, as ``interior_rel`` is.
    """
    scale = float(np.max(np.abs(q)))
    return float(np.finfo(float).eps * N * N / (scale if scale > 1e-14 else 1.0))


def run_convergence(cfg: PipelineConfig, outdir: str, grids: list[int]) -> dict:
    """Reconstruction error against the truth over a ladder of grids."""
    timer = _Timer()
    if len(grids) < 2 or sorted(set(grids)) != list(grids):
        raise UsageError("convergence needs at least two strictly increasing grids")
    rows = []
    for N in grids:
        with timer.lap(f"N={N}"):
            c = replace(cfg, N=N)
            grid = c.grid()
            q, K = c.fields()
            r = _add_noise(response_kernel(solve_goursat(q, K)),
                           c.noise_sigma, c.noise_seed)
            q_hat = recover_potential(solve_gl(connecting_kernel_from_response(r, K)))
            err = reconstruction_errors(q.values, q_hat.values, grid)["interior_rel"]
            rows.append({"N": N, "error": err, "floor": _roundoff_floor(q.values, N)})
    for k, row in enumerate(rows):
        # order estimates on errors at the round-off floor are meaningless
        prev = rows[k - 1]
        if k == 0 or prev["error"] < prev["floor"] or row["error"] < row["floor"]:
            row["ratio"] = float("nan")
            row["order"] = float("nan")
        else:
            ratio = rows[k - 1]["error"] / row["error"]
            width = np.log2(row["N"] / rows[k - 1]["N"])
            row["ratio"] = float(ratio)
            row["order"] = float(np.log2(ratio) / width)

    with timer.lap("artifacts"):
        header = ["N", "error", "ratio", "order"]
        write_csv(os.path.join(outdir, "convergence.csv"), header,
                  np.array([[row[k] for k in header] for row in rows], dtype=float))
    return _report(outdir, timer, "convergence", status="ok", config=cfg.echo(),
                   rows=rows, artifacts=["convergence.csv"])
