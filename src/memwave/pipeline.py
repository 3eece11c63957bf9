"""Pipeline stages behind the CLI: synth, reconstruct, verify, convergence.

Every stage reads/writes a plain directory of CSV/JSON artifacts, so runs
can be chained, diffed and replayed.  report.json is deterministic (same
inputs, same bytes); wall-clock numbers go to timings.json instead.  Every
stage runs in this one process.

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
truth_q.csv alone.  The only Goursat marches of ``verify`` are the factor
route of its assembly ladder.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import read_csv, read_json, write_csv, write_json
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
    coefficient_from_family,
    control_from_family,
    kernel_from_family,
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
# what inconsistent data can raise in verify's assembly and solve
_BREAKAGE = (AssemblyError, IllConditionedError, NumericalInstabilityError)

# verify-stage acceptance bands (tuned on the catalogue problems: clean data
# passes with at least a 4x margin, a single corrupted response sample fails)
_TWO_PATH_ORDER_BAND = (1.4, 2.6)
_THREE_WAY_REL_TOL = 2e-2
_THREE_WAY_ORDER_BAND = (1.2, 3.4)
_OPERATOR_IDENTITY_FACTOR = 1.0
_GL_RESIDUAL_FACTOR = 1e-8


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

    def __post_init__(self):
        if not 0.0 <= self.noise_sigma < np.inf:  # NaN fails too
            raise UsageError("config: noise.sigma must be finite and >= 0")
        if self.noise_seed < 0:  # numpy's generators take no negative seed
            raise UsageError(f"config: noise.seed must be >= 0, got {self.noise_seed}")

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


def _write_reports(outdir: str, report: dict, timer: _Timer) -> None:
    """report.json, and timings.json with the laps."""
    write_json(os.path.join(outdir, "report.json"), report)
    write_json(
        os.path.join(outdir, "timings.json"),
        {
            "schema_version": SCHEMA_VERSION,
            "command": report["command"],
            "wall_times_s": timer.finish(),
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

    with timer.lap("goursat"):
        sol = solve_goursat(q, K, grid)
        r = response_kernel(sol)
        diag_res = diagonal_residual(q)
        del sol  # the march arrays are the largest; nothing below needs them

    r = _add_noise(r, cfg.noise_sigma, cfg.noise_seed)

    with timer.lap("artifacts"):
        os.makedirs(outdir, exist_ok=True)
        t_full = grid.times_full()
        write_csv(os.path.join(outdir, "response.csv"), ["t", "r"],
                  np.stack([t_full, r.values], axis=1))
        write_csv(os.path.join(outdir, "kernel_K.csv"), ["t", "value"],
                  np.stack([t_full, K.values], axis=1))
        write_csv(os.path.join(outdir, "truth_q.csv"), ["x", "value"],
                  np.stack([grid.times_half(), q.values], axis=1))

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
    if os.path.exists(os.path.join(datadir, "truth_q.csv")):
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


def _check_level(N: int, cap: int = 64) -> int:
    """Largest grid level <= cap that divides N (for bounded-cost checks)."""
    for n in range(min(N, cap), 7, -1):
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
        os.makedirs(outdir, exist_ok=True)
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

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "reconstruct",
        "status": "ok",
        "grid": _grid_block(grid),
        "metrics": metrics,
        "artifacts": ["cT.csv", "q_hat.csv"],
    }
    _write_reports(outdir, report, timer)
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
        rhs = fd_boundary_trace(fd_forward(qc, Kc, f, cg.T, 2 * cg.h))
        errs.append(float(np.max(np.abs(lhs - rhs))))
    if len(errs) >= 2:
        metric = _mean_order(errs, 1e-15)
        lo, hi = _TWO_PATH_ORDER_BAND
        return _check("two_path_response", lo <= metric <= hi, metric, [lo, hi],
                      f"mismatch {errs} over levels {levels}")
    return _check("two_path_response", True, errs[-1], None,
                  "grid too coarse for order estimation, skipped")


def _verify_three_way(Kc, qc, cT_data, level_diffs, levels) -> dict:
    """Probe-assembled kernel vs. factor route vs. interior wave states.

    ``level_diffs`` holds the entrywise relative mismatch against the factor
    route at each assembly level; with two or more levels the measured order
    of decrease is reported alongside the absolute gate at the finest level.
    """
    cg = cT_data.grid
    worst = level_diffs[-1]
    controls = [
        control_from_family("smooth_bump_control", (c * cg.T, 0.2 * cg.T), cg)
        for c in (0.35, 0.5, 0.65)
    ]
    interior = connecting_form_from_interior(qc, Kc, controls)
    for a, b in ((0, 1), (1, 2), (0, 2)):
        lhs = connecting_form_from_kernel(cT_data, controls[a], controls[b])
        rhs = interior[a, b]
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    passed = worst <= _THREE_WAY_REL_TOL
    detail = (f"mismatch {level_diffs} over levels {levels}, "
              f"wave-state forms folded into the finest level")
    if len(level_diffs) >= 2:
        metric = _mean_order(level_diffs, 1e-12)
        lo, hi = _THREE_WAY_ORDER_BAND
        passed = passed and lo <= metric <= hi
        return _check("three_way_connecting", passed, metric,
                      [lo, hi, _THREE_WAY_REL_TOL], detail)
    return _check("three_way_connecting", passed, worst, _THREE_WAY_REL_TOL, detail)


def run_verify(datadir: str, outdir: str | None = None) -> dict:
    """Cross-validate a data directory; status 'failed' if any check fails."""
    timer = _Timer()
    with timer.lap("load"):
        grid, r, K, q = _load_data(datadir)
    checks, asymmetry = _verify_checks(grid, r, K, q, timer)

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
        _write_reports(outdir, report, timer)
    return report


def _verify_checks(grid, r, K, q, timer: _Timer):
    """Every check of ``run_verify`` in report order, and the Galerkin asymmetry."""
    checks = []

    # the data-route kernel feeds several checks; assemble it at a bounded
    # ladder of levels so verify stays cheap on fine data sets.  The checks
    # of the kernel read its top level alone; the coarser ones only give the
    # three-way check its measured order, and that check needs truth_q.csv.
    # Inconsistent data can already derail the assembly or the collocation
    # solve; that counts as a failure of the dependent checks, not a crash.
    cT = gl = asymmetry = breakage = truth_breakage = None
    level_diffs = []
    with timer.lap("connecting_assembly"):
        n_top = _check_level(grid.N)
        _, _, K_top, q_top = _subsample(grid, r, K, q, n_top)
        levels = _ladder(n_top) if q is not None else [n_top]
        try:
            for m in levels:
                cg, rc, Kc, qc = _subsample(grid, r, K, q, m)
                kernel = connecting_kernel_from_response(rc, Kc)
                if q is not None and truth_breakage is None:
                    # a truth that does not fit the data can blow up its own
                    # march; that fails the three-way check alone
                    try:
                        cw = connecting_kernel_from_w(solve_goursat(qc, Kc, cg))
                    except _BREAKAGE as exc:
                        truth_breakage = str(exc)
                    else:
                        rel = np.max(np.abs(kernel.values - cw.values))
                        level_diffs.append(float(rel / (1.0 + np.max(np.abs(cw.values)))))
                if m == n_top:
                    cT = kernel
            asymmetry = {"N": n_top, "value": cT.asymmetry}
        except _BREAKAGE as exc:
            breakage = str(exc)

    with timer.lap("gl_solve"):
        if cT is not None:
            try:
                gl = solve_gl(cT)
            except _BREAKAGE as exc:
                breakage = str(exc)

    def broken(name, threshold=None, detail=None):
        return _check(name, False, float("inf"), threshold, detail or breakage)

    def guarded(name, threshold, check):
        # a truth that does not fit the data can blow up the check's own
        # marches too
        try:
            return check()
        except _BREAKAGE as exc:
            return broken(name, threshold, str(exc))

    if q is not None:
        with timer.lap("two_path_response"):
            checks.append(guarded("two_path_response", list(_TWO_PATH_ORDER_BAND),
                                  lambda: _verify_two_path(grid, r, K, q)))
        with timer.lap("three_way_connecting"):
            if cT is None or truth_breakage is not None:
                checks.append(broken("three_way_connecting", _THREE_WAY_REL_TOL,
                                     truth_breakage))
            else:
                checks.append(guarded("three_way_connecting", _THREE_WAY_REL_TOL,
                                      lambda: _verify_three_way(K_top, q_top, cT,
                                                                level_diffs, levels)))

    with timer.lap("operator_identity"):
        if gl is None:
            checks.append(broken("operator_identity"))
        else:
            scale = 1.0 + _max_abs(cT.values)
            res_id = operator_identity_residual(cT, gl)
            tol_id = _OPERATOR_IDENTITY_FACTOR * cT.grid.h * cT.grid.h * scale
            checks.append(_check("operator_identity", res_id <= tol_id, res_id, tol_id,
                                 f"factorization identity at level N={n_top}"))
    with timer.lap("gl_residual"):
        if gl is None:
            checks.append(broken("gl_residual"))
        else:
            res_gl = gl_residual(cT, gl)
            tol_gl = _GL_RESIDUAL_FACTOR * scale
            checks.append(_check("gl_residual", res_gl <= tol_gl, res_gl, tol_gl,
                                 "collocation solve residual"))
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
            sol = solve_goursat(q, K, grid)
            r = _add_noise(response_kernel(sol), c.noise_sigma, c.noise_seed)
            cT = connecting_kernel_from_response(r, K)
            q_hat = recover_potential(solve_gl(cT))
            # the rung's largest arrays: neither the next rung nor the JSON
            # writes below need them
            del sol, cT
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
        os.makedirs(outdir, exist_ok=True)
        header = ["N", "error", "ratio", "order"]
        write_csv(os.path.join(outdir, "convergence.csv"), header,
                  np.array([[row[k] for k in header] for row in rows], dtype=float))
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
