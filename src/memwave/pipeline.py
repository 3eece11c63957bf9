"""Pipeline stages behind the CLI: synth, reconstruct, verify, convergence.

Every stage reads/writes a plain directory of CSV/JSON artifacts, so runs
can be chained, diffed and replayed.  report.json is deterministic (same
inputs, same bytes); wall-clock numbers and facts of the host, such as how
many processes formatted cT.csv, go to timings.json instead.

``reconstruct`` starts writing cT.csv as soon as the kernel is assembled;
on more than one CPU, forked workers format it while this process runs the
Gelfand-Levitan solve, writes q_hat.csv and computes the residual metrics,
and the file is made whole after them.  Its laps stay ``load``,
``connecting``, ``gelfand_levitan``, ``artifacts`` and ``metrics``: the
fork and the final wait and append are charged to ``artifacts``, and the
solve and metric laps include the time the workers take CPU from them.

The ``verify`` stage is the package's own referee: it re-derives quantities
along independent routes (finite differences vs. kernel route, probe
assembly vs. factorization identity) and fails loudly when the artifacts in
a directory are not mutually consistent.  Its diagonal law marches the
Goursat kernel at N/2 and N.  When both levels run, the march at the native
N and its diagonal residual start before every other check: from N = 512 on,
on more than one CPU, a forked worker runs them while this process runs the
assembly ladder, the GL solve, the two-path and three-way checks and the
N/2 march; otherwise this process runs them where the law reads the
residual, so a failure surfaces at the same point either way.  The fork and
the wait are charged to the ``diagonal_law`` lap, and timings.json records
the number of forked workers (0 or 1) as ``diagonal_workers``.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import CsvWrite, read_csv, write_csv, write_json
from .catalog import get_problem
from .connecting import (
    connecting_form_from_interior,
    connecting_form_from_kernel,
    connecting_kernel_from_response,
    connecting_kernel_from_w,
)
from .errors import (
    AssemblyError,
    IllConditionedError,
    NumericalInstabilityError,
    UsageError,
)
from .forward import apply_response, fd_boundary_trace, fd_forward
from .gelfand_levitan import (
    gl_residual,
    operator_identity_residual,
    reconstruction_errors,
    recover_potential,
    solve_gl,
)
from .goursat import ResponseData, diagonal_residual, response_kernel, solve_goursat
from .model import (
    CoefficientField,
    GridSpec,
    MemoryKernel,
    coefficient_from_family,
    control_from_family,
    kernel_from_family,
)
from .worker import Worker

__all__ = [
    "PipelineConfig",
    "load_config",
    "run_synth",
    "run_reconstruct",
    "run_verify",
    "run_convergence",
]

SCHEMA_VERSION = 4
# what inconsistent data can raise in verify's assembly and solve
_BREAKAGE = (AssemblyError, IllConditionedError, NumericalInstabilityError)

# verify-stage acceptance bands (tuned on the catalogue problems: clean data
# passes with at least a 4x margin, a single corrupted response sample fails)
_TWO_PATH_ORDER_BAND = (1.4, 2.6)
_THREE_WAY_REL_TOL = 2e-2
_THREE_WAY_ORDER_BAND = (1.2, 3.4)
_DIAGONAL_RATIO_BAND = (2.5, 6.5)
_OPERATOR_IDENTITY_FACTOR = 1.0
_GL_RESIDUAL_FACTOR = 1e-8
# verify runs the diagonal law's native Goursat march in a forked worker from
# this N on: on two CPUs the overlap gained 20-41 ms at 512, while below 448
# the gain stayed within run-to-run noise and changed sign between sets of
# runs (the crossover table is in CHANGES.md)
_NATIVE_FORK_MIN_N = 512


@dataclass(frozen=True)
class PipelineConfig:
    """Validated problem description for one pipeline run."""

    T: float
    N: int
    q_family: str
    q_params: tuple
    k_family: str
    k_params: tuple
    problem: str | None = None
    noise_sigma: float = 0.0
    noise_seed: int = 0

    def grid(self) -> GridSpec:
        return GridSpec(self.T, self.N)

    def fields(self) -> tuple[CoefficientField, MemoryKernel]:
        grid = self.grid()
        q = coefficient_from_family(self.q_family, self.q_params, grid)
        K = kernel_from_family(self.k_family, self.k_params, grid)
        return q, K

    def echo(self) -> dict:
        return {
            "problem": self.problem,
            "q": {"family": self.q_family, "params": list(self.q_params)},
            "K": {"family": self.k_family, "params": list(self.k_params)},
            "T": self.T,
            "N": self.N,
            "noise": {"sigma": self.noise_sigma, "seed": self.noise_seed},
        }


def _family_entry(raw, what: str) -> tuple[str, tuple]:
    if not isinstance(raw, dict) or set(raw) - {"family", "params"}:
        raise UsageError(f"config: {what} must be {{family, params}}")
    fam = raw.get("family")
    params = raw.get("params", [])
    if not isinstance(fam, str) or not isinstance(params, list):
        raise UsageError(f"config: {what}.family is a string, {what}.params a list")
    return fam, tuple(float(p) for p in params)


def config_from_dict(raw: dict) -> PipelineConfig:
    allowed = {"problem", "q", "K", "T", "N", "noise"}
    unknown = set(raw) - allowed
    if unknown:
        raise UsageError(f"config: unknown keys {sorted(unknown)}")
    if "problem" in raw and ("q" in raw or "K" in raw):
        raise UsageError("config: give either a catalogue problem or explicit q/K")
    try:
        T = float(raw.get("T", 1.0))
        N = int(raw.get("N", 64))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config: bad scalar field ({exc})") from None
    noise = raw.get("noise", {})
    if not isinstance(noise, dict) or set(noise) - {"sigma", "seed"}:
        raise UsageError("config: noise must be {sigma, seed}")
    sigma = float(noise.get("sigma", 0.0))
    seed = int(noise.get("seed", 0))
    if sigma < 0.0:
        raise UsageError("config: noise.sigma must be >= 0")
    if "problem" in raw:
        prob = get_problem(raw["problem"])
        qf, qp = prob.q_family, prob.q_params
        kf, kp = prob.k_family, prob.k_params
        name = prob.name
    else:
        qf, qp = _family_entry(raw["q"], "q") if "q" in raw else ("zero", ())
        kf, kp = _family_entry(raw["K"], "K") if "K" in raw else ("zero", ())
        name = None
    cfg = PipelineConfig(T=T, N=N, q_family=qf, q_params=qp, k_family=kf,
                         k_params=kp, problem=name, noise_sigma=sigma,
                         noise_seed=seed)
    cfg.fields()  # fail fast on bad families/params
    return cfg


def load_config(path: str) -> PipelineConfig:
    from .artifacts import read_json

    raw = read_json(path)
    if not isinstance(raw, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    return config_from_dict(raw)


class _Timer:
    def __init__(self):
        self.laps: dict[str, float] = {}
        self._t0 = time.perf_counter()

    def lap(self, name: str, start: float) -> None:
        """Charge the time since ``start`` to ``name``, on top of earlier laps."""
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


def _grid_block(grid: GridSpec) -> dict:
    return {"T": grid.T, "N": grid.N, "h": grid.h}


def _write_reports(outdir: str, report: dict, timer: _Timer, **host) -> None:
    """report.json, and timings.json with the laps and ``host`` facts.

    ``host`` holds what depends on the machine, not on the inputs (such as
    the number of processes that formatted a table), so it stays out of
    report.json.
    """
    write_json(os.path.join(outdir, "report.json"), report)
    write_json(
        os.path.join(outdir, "timings.json"),
        {
            "schema_version": SCHEMA_VERSION,
            "command": report["command"],
            "wall_times_s": timer.finish(),
            **host,
        },
    )


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

    t0 = time.perf_counter()
    sol = solve_goursat(q, K, grid)
    r = response_kernel(sol)
    diag_res = diagonal_residual(sol)
    del sol  # the march arrays are the largest; nothing below needs them
    timer.lap("goursat", t0)

    r = _add_noise(r, cfg.noise_sigma, cfg.noise_seed)

    os.makedirs(outdir, exist_ok=True)
    t_full = grid.times_full()
    write_csv(os.path.join(outdir, "response.csv"), ["t", "r"], [t_full, r.values])
    write_csv(os.path.join(outdir, "kernel_K.csv"), ["t", "value"], [t_full, K.values])
    write_csv(os.path.join(outdir, "truth_q.csv"), ["x", "value"],
              [grid.times_half(), q.values])

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "synth",
        "status": "ok",
        "config": cfg.echo(),
        "grid": _grid_block(grid),
        "metrics": {
            "response_max_abs": float(np.max(np.abs(r.values))),
            "kernel_max_abs": float(np.max(np.abs(K.values))),
            "diagonal_residual": diag_res,
        },
        "artifacts": ["response.csv", "kernel_K.csv", "truth_q.csv"],
    }
    _write_reports(outdir, report, timer)
    return report


# --------------------------------------------------------------------------
# loading a data directory
# --------------------------------------------------------------------------

def _load_data(datadir: str):
    """Read (grid, response, kernel, truth-or-None) from a data directory."""
    _, resp = read_csv(os.path.join(datadir, "response.csv"))
    t = resp[:, 0]
    n_rows = t.size
    if n_rows < 3 or n_rows % 2 == 0:
        raise UsageError("response.csv must hold 2N+1 samples of [0, 2T]")
    h = t[1] - t[0]
    if h <= 0 or np.max(np.abs(np.diff(t) - h)) > 1e-9 * max(h, 1.0) or abs(t[0]) > 1e-12:
        raise UsageError("response.csv time column is not a uniform grid from 0")
    N = (n_rows - 1) // 2
    grid = GridSpec(T=t[N], N=N)
    r = ResponseData(grid, resp[:, 1])

    _, kern = read_csv(os.path.join(datadir, "kernel_K.csv"))
    if kern.shape[0] != n_rows or np.max(np.abs(kern[:, 0] - t)) > 1e-9 * max(h, 1.0):
        raise UsageError("kernel_K.csv does not match the response time grid")
    K = MemoryKernel(grid, kern[:, 1])

    q = None
    truth_path = os.path.join(datadir, "truth_q.csv")
    if os.path.exists(truth_path):
        _, tq = read_csv(truth_path)
        if tq.shape[0] != N + 1:
            raise UsageError("truth_q.csv must hold N+1 samples of [0, T]")
        q = CoefficientField(grid, tq[:, 1])
    return grid, r, K, q


def _subsample(grid: GridSpec, r: ResponseData, K: MemoryKernel,
               q: CoefficientField | None, stride: int):
    coarse = GridSpec(grid.T, grid.N // stride)
    rc = ResponseData(coarse, r.values[::stride])
    Kc = MemoryKernel(coarse, K.values[::stride])
    qc = CoefficientField(coarse, q.values[::stride]) if q is not None else None
    return coarse, rc, Kc, qc


def _check_level(N: int, cap: int = 64) -> int:
    """Largest grid level <= cap that divides N (for bounded-cost checks)."""
    for n in range(min(N, cap), 7, -1):
        if N % n == 0:
            return n
    return N


# --------------------------------------------------------------------------
# reconstruct
# --------------------------------------------------------------------------

def run_reconstruct(datadir: str, outdir: str) -> dict:
    """Recover the potential from a data directory and write the results."""
    timer = _Timer()
    t0 = time.perf_counter()
    grid, r, K, q_true = _load_data(datadir)
    timer.lap("load", t0)

    t0 = time.perf_counter()
    cT = connecting_kernel_from_response(r, K)
    timer.lap("connecting", t0)

    t0 = time.perf_counter()
    os.makedirs(outdir, exist_ok=True)
    # the kernel matrix itself: row i is c(t_i, .), column j holds s_j; its
    # workers format it while this process solves and checks
    with CsvWrite(os.path.join(outdir, "cT.csv"),
                  [f"s{j}" for j in range(grid.N + 1)], list(cT.values.T)) as cT_csv:
        timer.lap("artifacts", t0)

        t0 = time.perf_counter()
        gl = solve_gl(cT)
        q_hat = recover_potential(gl)
        timer.lap("gelfand_levitan", t0)

        t0 = time.perf_counter()
        tt = grid.times_half()
        truth_col = q_true.values if q_true is not None else np.full(grid.N + 1, np.nan)
        write_csv(os.path.join(outdir, "q_hat.csv"), ["x", "q_true", "q_hat", "abs_err"],
                  [tt, truth_col, q_hat.values, np.abs(q_hat.values - truth_col)])
        timer.lap("artifacts", t0)

        t0 = time.perf_counter()
        metrics = {
            "cT_max_abs": float(np.max(np.abs(cT.values))),
            "gl_residual": gl_residual(cT, gl),
            "operator_identity_residual": operator_identity_residual(cT, gl),
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
            metrics["window"] = [0.1, 0.9]
        # free the (N+1)^2 arrays before the JSON encoder's reference cycles can
        # pin the heap they sit in
        del cT, gl, q_hat
        timer.lap("metrics", t0)

        t0 = time.perf_counter()
        csv_workers = cT_csv.wait()
    timer.lap("artifacts", t0)

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "reconstruct",
        "status": "ok",
        "grid": _grid_block(grid),
        "metrics": metrics,
        "artifacts": ["cT.csv", "q_hat.csv"],
    }
    _write_reports(outdir, report, timer, csv_workers=csv_workers)
    return report


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


def _verify_two_path(grid, r, K, q) -> dict:
    """Response route vs. leapfrog boundary trace, across grid levels."""
    levels = [n for n in (grid.N // 4, grid.N // 2, grid.N)
              if n >= 8 and grid.N % n == 0]
    errs = []
    for n in levels:
        cg, rc, Kc, qc = _subsample(grid, r, K, q, grid.N // n)
        f = control_from_family("smooth_bump_control", (0.5 * cg.T, 0.25 * cg.T), cg)
        lhs = apply_response(rc, f)
        rhs = fd_boundary_trace(fd_forward(qc, Kc, f, cg.T))
        errs.append(float(np.max(np.abs(lhs - rhs))))
    if len(errs) >= 2:
        orders = []
        for e_coarse, e_fine in zip(errs, errs[1:]):
            orders.append(2.0 if e_fine < 1e-15 else float(np.log2(e_coarse / e_fine)))
        metric = float(np.mean(orders))
        lo, hi = _TWO_PATH_ORDER_BAND
        return _check("two_path_response", lo <= metric <= hi, metric, [lo, hi],
                      f"mismatch {errs} over levels {levels}")
    return _check("two_path_response", True, errs[-1], None,
                  "grid too coarse for order estimation, skipped")


def _verify_three_way(cg, Kc, qc, cT_data, level_diffs, levels) -> dict:
    """Probe-assembled kernel vs. factor route vs. interior wave states.

    ``level_diffs`` holds the entrywise relative mismatch against the factor
    route at each assembly level; with two or more levels the measured order
    of decrease is reported alongside the absolute gate at the finest level.
    """
    worst = level_diffs[-1]
    controls = [
        control_from_family("smooth_bump_control", (c * cg.T, 0.2 * cg.T), cg)
        for c in (0.35, 0.5, 0.65)
    ]
    for a, b in ((0, 1), (1, 2), (0, 2)):
        lhs = connecting_form_from_kernel(cT_data, controls[a], controls[b])
        rhs = connecting_form_from_interior(qc, Kc, controls[a], controls[b])
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    passed = worst <= _THREE_WAY_REL_TOL
    detail = (f"mismatch {level_diffs} over levels {levels}, "
              f"wave-state forms folded into the finest level")
    if len(level_diffs) >= 2:
        orders = [
            2.0 if d_fine < 1e-12 else float(np.log2(d_coarse / d_fine))
            for d_coarse, d_fine in zip(level_diffs, level_diffs[1:])
        ]
        metric = float(np.mean(orders))
        lo, hi = _THREE_WAY_ORDER_BAND
        passed = passed and lo <= metric <= hi
        return _check("three_way_connecting", passed, metric,
                      [lo, hi, _THREE_WAY_REL_TOL], detail)
    return _check("three_way_connecting", passed, worst, _THREE_WAY_REL_TOL, detail)


def _native_diagonal(grid, K, q):
    """The diagonal residual of the Goursat march at the native N, as a
    ``Worker`` started now, when the diagonal law runs at both N/2 and N;
    otherwise a context that gives None."""
    if q is None or grid.N % 2 or grid.N < 16:
        return contextlib.nullcontext()
    return Worker(lambda: diagonal_residual(solve_goursat(q, K, grid)),
                  fork=grid.N >= _NATIVE_FORK_MIN_N)


def _verify_diagonal(grid, r, K, q, native: Worker | None) -> dict:
    """Grid-halving ratio of the diagonal slope law of the factor kernel;
    ``native`` gives the residual at N (None: the grid is too coarse)."""
    if native is None:
        return _check("diagonal_law", True, 0.0, None, "grid too coarse, skipped")
    cg, _, Kc, qc = _subsample(grid, r, K, q, 2)
    res = [diagonal_residual(solve_goursat(qc, Kc, cg)), native.result()]
    if res[1] < 1e-12:
        return _check("diagonal_law", True, 4.0, list(_DIAGONAL_RATIO_BAND),
                      "residual at machine level on both grids")
    ratio = res[0] / res[1]
    lo, hi = _DIAGONAL_RATIO_BAND
    return _check("diagonal_law", lo <= ratio <= hi, ratio, [lo, hi],
                  f"residuals {res} on half/full resolution")


def run_verify(datadir: str, outdir: str | None = None) -> dict:
    """Cross-validate a data directory; status 'failed' if any check fails."""
    timer = _Timer()
    grid, r, K, q = _load_data(datadir)
    # the native march of the diagonal law starts first, so that on large
    # grids a worker runs it while this process runs the other checks
    t0 = time.perf_counter()
    with _native_diagonal(grid, K, q) as native:
        if native is not None:
            timer.lap("diagonal_law", t0)
        checks, asymmetry = _verify_checks(grid, r, K, q, native, timer)

    failed = [c["name"] for c in checks if not c["passed"]]
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "status": "failed" if failed else "ok",
        "failed_checks": failed,
        "grid": _grid_block(grid),
        "galerkin_asymmetry": asymmetry,
        "checks": checks,
    }
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        _write_reports(outdir, report, timer,
                       diagonal_workers=int(native is not None and native.pid is not None))
    return report


def _verify_checks(grid, r, K, q, native: Worker | None, timer: _Timer):
    """Every check of ``run_verify`` in report order, and the Galerkin asymmetry."""
    checks = []

    # the data-route kernel feeds several checks; assemble it at a bounded
    # ladder of levels so verify stays cheap on fine data sets.  Inconsistent
    # data can already derail the assembly or the collocation solve; that
    # counts as a failure of the dependent checks, not a crash.
    t0 = time.perf_counter()
    n_top = _check_level(grid.N)
    levels = [m for m in (n_top // 4, n_top // 2, n_top)
              if m >= 8 and n_top % m == 0]
    cg, rc, Kc, qc = _subsample(grid, r, K, q, grid.N // n_top)
    cT = gl = asymmetry = None
    breakage = None
    level_diffs = []
    try:
        for m in levels:
            cgm, rcm, Kcm, qcm = _subsample(grid, r, K, q, grid.N // m)
            cTm = connecting_kernel_from_response(rcm, Kcm)
            if q is not None:
                cwm = connecting_kernel_from_w(solve_goursat(qcm, Kcm, cgm))
                rel = np.max(np.abs(cTm.values - cwm.values))
                level_diffs.append(float(rel / (1.0 + np.max(np.abs(cwm.values)))))
            cT = cTm
        asymmetry = {"N": cT.grid.N, "value": cT.asymmetry}
    except _BREAKAGE as exc:
        # drop a coarser level's kernel: the checks read the finest level
        cT = None
        breakage = str(exc)
    timer.lap("connecting_assembly", t0)

    t0 = time.perf_counter()
    if breakage is None:
        try:
            gl = solve_gl(cT)
        except _BREAKAGE as exc:
            breakage = str(exc)
    timer.lap("gl_solve", t0)

    if q is not None:
        t0 = time.perf_counter()
        checks.append(_verify_two_path(grid, r, K, q))
        timer.lap("two_path_response", t0)

        t0 = time.perf_counter()
        if cT is not None:
            checks.append(_verify_three_way(cg, Kc, qc, cT, level_diffs, levels))
        else:
            checks.append(_check("three_way_connecting", False, float("inf"),
                                 _THREE_WAY_REL_TOL, breakage))
        timer.lap("three_way_connecting", t0)

        t0 = time.perf_counter()
        checks.append(_verify_diagonal(grid, r, K, q, native))
        timer.lap("diagonal_law", t0)

    t0 = time.perf_counter()
    if gl is not None:
        scale = 1.0 + float(np.max(np.abs(cT.values)))
        res_id = operator_identity_residual(cT, gl)
        tol_id = _OPERATOR_IDENTITY_FACTOR * cg.h * cg.h * scale
        checks.append(_check("operator_identity", res_id <= tol_id, res_id, tol_id,
                             f"factorization identity at level N={cg.N}"))
        timer.lap("operator_identity", t0)

        t0 = time.perf_counter()
        res_gl = gl_residual(cT, gl)
        tol_gl = _GL_RESIDUAL_FACTOR * scale
        checks.append(_check("gl_residual", res_gl <= tol_gl, res_gl, tol_gl,
                             "collocation solve residual"))
        timer.lap("gl_residual", t0)
    else:
        checks.append(_check("operator_identity", False, float("inf"), None,
                             breakage))
        checks.append(_check("gl_residual", False, float("inf"), None, breakage))
        timer.lap("operator_identity", t0)
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
        t0 = time.perf_counter()
        c = replace(cfg, N=N)
        grid = c.grid()
        q, K = c.fields()
        sol = solve_goursat(q, K, grid)
        r = _add_noise(response_kernel(sol), c.noise_sigma, c.noise_seed)
        cT = connecting_kernel_from_response(r, K)
        q_hat = recover_potential(solve_gl(cT))
        # the rung's largest arrays: neither the next rung nor the JSON writes
        # below need them
        del sol, cT
        err = reconstruction_errors(q.values, q_hat.values, grid)["interior_rel"]
        rows.append({"N": N, "error": err, "floor": _roundoff_floor(q.values, N)})
        timer.lap(f"N={N}", t0)
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

    os.makedirs(outdir, exist_ok=True)
    write_csv(os.path.join(outdir, "convergence.csv"),
              ["N", "error", "ratio", "order"],
              [np.array([float(row[k]) for row in rows], dtype=float)
               for k in ("N", "error", "ratio", "order")])
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "convergence",
        "status": "ok",
        "config": cfg.echo(),
        "rows": rows,
        "artifacts": ["convergence.csv"],
    }
    _write_reports(outdir, report, timer)
    return report
