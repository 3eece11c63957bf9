"""memwave benchmark: one workload per process, metrics as one JSON line.

    python3 perfbench/run.py --workload reconstruct-1024 --seed 1 --seconds 20 --trace 0

Runs the named workload in this process against the package under ``src/``
next to this directory.  With ``--trace 0`` it prints the end-to-end metrics
(set-up time, median operation time, peak RSS); with ``--trace 1`` it
alternates untraced and traced operations and prints the per-layer metrics.
Every operation's output is checked; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 0 only
when every check passed.  Lines before it are a human-readable report.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: BLAS threads slow the small-N solves several
# times over on two cores and change the bytes of cT.csv, so timings and
# digests are only comparable single-threaded.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
SETUP_MAX_REPEATS = 15
# every per-layer metric, in the order BENCHMARK.json lists them
TIMED_LAYERS = (
    "gelfand_levitan.solve_gl", "gelfand_levitan.gl_residual",
    "gelfand_levitan.operator_identity", "gelfand_levitan.recover",
    "gelfand_levitan.errors", "connecting.from_response", "connecting.from_w",
    "connecting.forms", "forward.apply_response", "forward.fd_forward",
    "forward.fd_boundary_trace", "goursat.solve_goursat", "goursat.response_kernel",
    "goursat.diagonal_residual", "artifacts.write_csv", "artifacts.read_csv",
    "artifacts.write_json",
)
COUNTED_LAYERS = ("gelfand_levitan.solve_gl", "connecting.from_response",
                  "forward.apply_response", "forward.fd_forward",
                  "goursat.solve_goursat")
PEAK_LAYERS = ("gelfand_levitan.solve_gl", "connecting.from_response")
GROWTH_LAYERS = ("gelfand_levitan.solve_gl", "connecting.from_response",
                 "goursat.solve_goursat")
BYTES_LAYERS = ("artifacts.write_csv", "artifacts.read_csv")


def load_package():
    """Import memwave from this checkout's src/, or exit if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "memwave", "__init__.py")):
        sys.exit(f"perfbench: no memwave package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import memwave

    if os.path.dirname(os.path.dirname(os.path.abspath(memwave.__file__))) != SRC:
        sys.exit(f"perfbench: memwave imported from {memwave.__file__}, not {SRC}")


def blas_report() -> str:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = str(getattr(lib, symbol)())
    pinned = " ".join(f"{v}={os.environ[v]}" for v in _THREAD_VARS)
    return (f"nproc={os.cpu_count()} numpy={np.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} "
            f"blas_threads={threads} ({pinned})")


@dataclass
class Record:
    label: str
    seconds: float
    traced: bool
    failures: list[str] = field(default_factory=list)


def run_op(op, recorder=None, op_id: str = "") -> Record:
    """Time one operation, traced when a recorder is given, then check it."""
    t0 = time.perf_counter()
    try:
        if recorder is None:
            report = op.run()
        else:
            with recorder.installed(), recorder.op(op_id):
                report = op.run()
        seconds = time.perf_counter() - t0
        failures = op.check(report)
    except Exception as exc:  # one broken op must not hide the rest
        traceback.print_exc()
        return Record(op.label, time.perf_counter() - t0, recorder is not None,
                      [f"{op.label} raised {type(exc).__name__}: {exc}"])
    for f in failures:
        print(f"CHECK FAILED [{op.label}]: {f}", file=sys.stderr)
    return Record(op.label, seconds, recorder is not None, failures)


def timed_setup(workload, workdir: str) -> list[float]:
    """Build the workload's inputs repeatedly; the last build is the one used.

    At least SETUP_REPEATS builds, and more while under SETUP_SECONDS in all
    (up to SETUP_MAX_REPEATS), so that a sub-second set-up still yields a
    steady median.
    """
    times = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_SECONDS
                                         and len(times) < SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        workload.setup(os.path.join(workdir, f"setup{len(times)}"))
        times.append(time.perf_counter() - t0)
    return times


def measure(workload, seconds: float, recorder=None) -> list[Record]:
    """Closed loop, one client: ops until `seconds` is spent.

    One whole cycle of the workload's ops always runs; after it, the cycle
    goes on while the next op is expected to end in time.  With a recorder
    each op runs untraced and then traced.
    """
    cycle = workload.cycle()
    records: list[Record] = []
    t_start = time.perf_counter()
    for k in itertools.count():
        op = cycle[k % len(cycle)]
        t_op = time.perf_counter()
        records.append(run_op(op))
        if recorder is not None:
            records.append(run_op(op, recorder, f"op{len(records)}"))
        now = time.perf_counter()
        if k + 1 >= len(cycle) and now - t_start + (now - t_op) > seconds:
            return records


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it.

    None below 21 samples, where that percentile would not lie above the median.
    """
    n = len(values)
    if n < 21:
        return None
    k = n - 10  # the k-th smallest value has exactly 10 samples above it
    return 100.0 * k / n, sorted(values)[k - 1]


def layer_metrics(recorder, ladder, untraced: list[float], traced: list[float]) -> dict:
    """Per-layer metrics: per-op means over the traced ops, growth from the ladder."""
    from spans import ROOT_SPAN, growth_exponent, layer_totals

    roots = [s for s in recorder.spans if s.parent is None]
    n_ops = len(roots)
    totals = layer_totals(recorder.spans)
    zero = {"self_s": 0.0, "calls": 0, "bytes": 0, "peak_mb": 0.0}
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name in TIMED_LAYERS:
        t = totals.get(name, zero)
        put(f"{name}.self_s", t["self_s"] / n_ops, "s")
        if name in COUNTED_LAYERS:
            put(f"{name}.calls", t["calls"] / n_ops, "count")
        if name in PEAK_LAYERS:
            put(f"{name}.peak_mb", t["peak_mb"], "MiB")
        if name in BYTES_LAYERS:
            put(f"{name}.bytes", t["bytes"] / n_ops, "B")
        if name in GROWTH_LAYERS:
            put(f"{name}.growth_exp", growth_exponent(ladder.spans, name), "1")
    root = totals[ROOT_SPAN]
    put("pipeline.self_s", root["self_s"] / n_ops, "s")
    put("trace.op_s", sum(s.duration for s in roots) / n_ops, "s")
    put("trace.overhead_s", statistics.median(traced) - statistics.median(untraced), "s")
    return m


def run_ladder(workdir: str, grids):
    """Traced convergence study of `full` over the study rungs, three times."""
    from memwave.pipeline import config_from_dict, run_convergence
    from spans import Recorder

    ladder = Recorder()
    cfg = config_from_dict({"problem": "full"})
    for k in range(3):
        with ladder.installed(), ladder.op(f"ladder{k}"):
            run_convergence(cfg, os.path.join(workdir, "ladder"), list(grids))
    return ladder


def run_benchmark(workload, seconds: float, trace: bool, workdir: str,
                  ladder_grids) -> tuple[dict, list[str]]:
    """Set up, measure and check one workload; returns (result, report lines)."""
    from spans import Recorder

    setup_times = timed_setup(workload, workdir)
    recorder = Recorder() if trace else None
    records = measure(workload, seconds, recorder)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = [r.seconds for r in records if not r.traced]
    failed = sum(1 for r in records if r.failures)
    extras = workload.extras()

    lines = [f"workload={workload.name} ops={len(records)} setup_repeats={len(setup_times)}"]
    p50 = statistics.median(untraced)
    lines.append(f"setup_s            {statistics.median(setup_times):.4f} s")
    lines.append(f"op_s_p50           {p50:.4f} s  ({len(untraced)} untraced ops)")
    t = tail(untraced)
    lines.append(f"op_s_tail          {t[1]:.4f} s  (p{t[0]:.1f} of {len(untraced)} ops)"
                 if t else f"op_s_tail          n/a  (needs >= 21 ops, got {len(untraced)})")
    lines.append(f"peak_rss_mb        {rss_mb:.1f} MiB")
    q_err = extras.get("q_rel_err")
    lines.append(f"q_rel_err          {q_err:.6e}" if q_err is not None
                 else "q_rel_err          n/a  (no full-size reconstruct in this workload)")
    lines.append(f"failed_share       {failed / len(records):.4f}  ({failed}/{len(records)})")
    if extras.get("verify_miss_share") is not None:
        lines.append(f"verify_miss_share  {extras['verify_miss_share']:.4f}  "
                     f"({extras['verify_misses']}/{extras['verify_corrupted']} spiked sets pass)")
    for fname, digest in extras.get("digests", {}).items():
        lines.append(f"sha256 {fname} {digest}")

    if trace:
        traced = [r.seconds for r in records if r.traced]
        ladder = run_ladder(workdir, ladder_grids)
        metrics = layer_metrics(recorder, ladder, untraced, traced)
        for name, v in metrics.items():
            lines.append(f"{name:42s} {v['value']:.6g} {v['unit']}")
    else:
        metrics = {
            "op_s_p50": {"value": p50, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
        }
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_package()
    from workloads import STUDY_GRIDS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    print(f"# {blas_report()}", flush=True)
    workload = WORKLOADS[args.workload](args.seed)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        result, lines = run_benchmark(workload, args.seconds, bool(args.trace), workdir,
                                      STUDY_GRIDS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(f"# {line}")
    print(json.dumps(result), flush=True)
    if not result["correct"]:
        print("perfbench: output checks failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
