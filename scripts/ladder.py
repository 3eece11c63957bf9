"""Per-layer ladder: time and memory of every reconstruct layer and verify's over N.

    python3 scripts/ladder.py                      # N = 256 ... 4096, writes BENCH_ladder.json
    python3 scripts/ladder.py --grids 16 32 --out /tmp/ladder.json

Runs the `full` catalogue problem (T = 1) at each N of the ladder, in this
process, with BLAS pinned to one thread.  Each layer runs as spans of the
benchmark's own ``perfbench/spans.py`` ``Recorder``: it is timed as the
minimum of ``REPEATS`` untraced calls, and then called once more under
``tracemalloc`` for its traced peak: the memory it allocates above the level
at its entry.  The parts of the assembly and of the solve are measured
inside those same calls, as spans of the production functions that run
them; a part may run inside another (the asymmetry inside
``_kernel_from_galerkin``).  The leapfrog runs to t = T with verify's
two-path bump control, once on the whole padded field and once on the
trace's backward cone; verify's oracle routes, the factor route to the
connecting kernel and the wave-state forms of its three bump controls, run
at the rung's own N.  The growth exponents are fitted between the two
largest rungs.

tracemalloc sees only the arrays numpy allocates itself, not the work copy
LAPACK makes of a matrix it factors: a Cholesky factorization of a whole
(N+1)^2 matrix holds one more such array than its traced peak shows.  So
each rung also runs ``run_reconstruct`` on a synthesized `full` set in one
fresh process and records that process's own peak resident set, LAPACK
copies included (``reconstruct_maxrss_mib``, with the interpreter and
numpy), and once more with ``MALLOC_MMAP_THRESHOLD_=131072``
(``reconstruct_maxrss_mmap_mib``): glibc then maps every block of more than
128 KiB on its own and unmaps it when it is freed, so that the peak does not
depend on where the heap placed the freed arrays.  The peak is the child's
``VmHWM``: Linux carries the spawning process's peak into the child's
``ru_maxrss`` across exec, so that would never read below this process's.
The JSON also records this process's maxrss and the host: CPUs, Python,
numpy and its BLAS.  numpy only; nothing here is part of the package.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: timings are only comparable single-threaded.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import numpy as np  # noqa: E402

import memwave as mw  # noqa: E402
from memwave import connecting, gelfand_levitan  # noqa: E402
from memwave.artifacts import write_csv  # noqa: E402
from spans import Recorder  # noqa: E402

SCHEMA = 3
GRIDS = (256, 512, 1024, 2048, 4096)
REPEATS = 3
# every layer in pipeline order, then verify's leapfrog and oracle routes; a
# layer of ``PARTS`` runs inside the layer its name extends.
# ``forward.fd_forward`` marches the whole padded field and
# ``forward.fd_forward.trace`` only the backward cone of the rows the boundary
# trace reads, as verify's two-path check does
LAYERS = (
    "goursat.solve_goursat",
    "goursat.response_kernel",
    "connecting.from_response",
    "connecting.from_response.impulse_response",
    "connecting.from_response.adjoint_weights",
    "connecting.from_response.galerkin_products",
    "connecting.from_response.asymmetry",
    "connecting.from_response.kernel_from_galerkin",
    "gelfand_levitan.solve_gl",
    "gelfand_levitan.solve_gl.inverse_cholesky",
    "gelfand_levitan.solve_gl.kappa_estimate",
    "gelfand_levitan.solve_gl.z_in_place",
    "gelfand_levitan.recover_potential",
    "gelfand_levitan.gl_residual",
    "gelfand_levitan.operator_identity",
    "artifacts.write_csv.cT",
    "forward.fd_forward",
    "forward.fd_forward.trace",
    "connecting.from_w",
    "connecting.form_from_interior",
)
# the layers measured from inside the production call that runs them:
# {layer: (module, function)}
PARTS = {
    "connecting.from_response.impulse_response": (connecting, "_impulse_response"),
    "connecting.from_response.adjoint_weights": (connecting, "_adjoint_weights"),
    "connecting.from_response.galerkin_products": (connecting, "_galerkin"),
    "connecting.from_response.asymmetry": (connecting, "_diagonal_asymmetry"),
    "connecting.from_response.kernel_from_galerkin": (connecting, "_kernel_from_galerkin"),
    "gelfand_levitan.solve_gl.inverse_cholesky": (gelfand_levitan, "_inverse_cholesky"),
    "gelfand_levitan.solve_gl.kappa_estimate": (gelfand_levitan, "_inverse_norm_estimate"),
    "gelfand_levitan.solve_gl.z_in_place": (gelfand_levitan, "_z_in_place"),
}


def host_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in _THREAD_VARS},
    }


def _unbound_inside(mod, attr, fn):
    """``fn`` with ``mod.attr`` bound back to it while it runs, so the calls
    it makes to itself (``_inverse_cholesky`` recurses) open no spans: the
    part counts once, and its traced peak holds no span objects of its own."""

    def call(*args, **kwargs):
        wrapper = getattr(mod, attr)
        setattr(mod, attr, fn)
        try:
            return fn(*args, **kwargs)
        finally:
            setattr(mod, attr, wrapper)

    return call


def measure(name: str, fn, out: dict):
    """Run ``fn`` as the layer ``name`` inside ops of a fresh ``Recorder``:
    ``REPEATS`` untraced calls, then one traced call, with the layer and
    every ``PARTS`` function wrapped as spans.  Puts (min seconds, traced
    peak MiB) of the layer and of each part that ran into ``out``, and
    returns the traced call's result."""
    recorder = Recorder()
    saved = {part: getattr(mod, attr) for part, (mod, attr) in PARTS.items()}

    def call(traced):
        for part, (mod, attr) in PARTS.items():
            inner = _unbound_inside(mod, attr, saved[part])
            setattr(mod, attr, recorder.wrap(part, inner, memory=traced))
        with recorder.op(name):
            return recorder.wrap(name, fn, memory=traced)()

    try:
        for _ in range(REPEATS):
            call(False)
        result = call(True)
    finally:
        for part, (mod, attr) in PARTS.items():
            setattr(mod, attr, saved[part])
    for part in (name, *PARTS):
        spans = [s for s in recorder.spans if s.name == part]
        if spans:
            out[part] = (min(s.duration for s in spans if s.peak_mb is None),
                         spans[-1].peak_mb)
    return result


def rung(N: int, tmpdir: str) -> dict:
    """{layer: (seconds, peak MiB)} at one N."""
    grid = mw.GridSpec(1.0, N)
    q, K = mw.get_problem("full").fields(grid)
    out = {}

    def run(name, fn):
        return measure(name, fn, out)

    sol = run("goursat.solve_goursat", lambda: mw.solve_goursat(q, K))
    r = run("goursat.response_kernel", lambda: mw.response_kernel(sol))
    run("connecting.from_w", lambda: mw.connecting_kernel_from_w(sol))
    del sol
    c = run("connecting.from_response", lambda: mw.connecting_kernel_from_response(r, K))
    gl = run("gelfand_levitan.solve_gl", lambda: mw.solve_gl(c))
    run("gelfand_levitan.recover_potential", lambda: mw.recover_potential(gl))
    run("gelfand_levitan.gl_residual", lambda: mw.gl_residual(c, gl))
    run("gelfand_levitan.operator_identity", lambda: mw.operator_identity_residual(c, gl))
    del gl
    path = os.path.join(tmpdir, "cT.csv")
    header = [f"s{j}" for j in range(N + 1)]
    run("artifacts.write_csv.cT", lambda: write_csv(path, header, c.values))
    os.unlink(path)
    del c
    f = mw.control_from_family("smooth_bump_control", (0.5 * grid.T, 0.25 * grid.T), grid)
    run("forward.fd_forward", lambda: mw.fd_forward(q, K, f, N))
    run("forward.fd_forward.trace", lambda: mw.fd_forward(q, K, f, N, rows=2))
    controls = [mw.control_from_family("smooth_bump_control", (c * grid.T, 0.2 * grid.T), grid)
                for c in (0.35, 0.5, 0.65)]
    run("connecting.form_from_interior",
        lambda: mw.connecting_form_from_interior(q, K, controls))
    return out


# run by a fresh interpreter: argv is the package's source dir, the data
# dir and the output dir; prints the process's own peak resident set in KiB
_RECONSTRUCT = """
import sys
sys.path.insert(0, sys.argv[1])
from memwave import run_reconstruct
run_reconstruct(sys.argv[2], sys.argv[3])
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
"""


def reconstruct_maxrss(N: int, tmpdir: str) -> tuple[float, float]:
    """Peak resident set in MiB of a fresh process that runs
    ``run_reconstruct`` on a `full` set synthesized here at N, BLAS pinned
    as in this process: with glibc's default heap, then with its mmap
    threshold fixed at 128 KiB."""
    cfg, data, out = (os.path.join(tmpdir, name) for name in ("cfg.json", "data", "out"))
    with open(cfg, "w") as fh:
        json.dump({"problem": "full", "T": 1.0, "N": N}, fh)
    mw.run_synth(mw.load_config(cfg), data)
    rss = []
    try:
        for extra in ({}, {"MALLOC_MMAP_THRESHOLD_": "131072"}):
            proc = subprocess.run(
                [sys.executable, "-c", _RECONSTRUCT, os.path.join(ROOT, "src"), data, out],
                check=True, capture_output=True, text=True, env={**os.environ, **extra})
            shutil.rmtree(out)
            rss.append(int(proc.stdout.split()[-1]) / 1024.0)
    finally:
        shutil.rmtree(data)
        shutil.rmtree(out, ignore_errors=True)
    return rss[0], rss[1]


def growth(values: list[float], grids: list[int]) -> float | None:
    if len(grids) < 2 or min(values[-2:]) <= 0.0:
        return None
    return math.log(values[-1] / values[-2]) / math.log(grids[-1] / grids[-2])


def ladder(grids: list[int]) -> dict:
    t_start = time.perf_counter()
    rungs = {}
    reconstruct_rss = []
    with tempfile.TemporaryDirectory() as tmpdir:
        for N in grids:
            reconstruct_rss.append(reconstruct_maxrss(N, tmpdir))
            rungs[N] = rung(N, tmpdir)
            print(f"ladder: N = {N} done at {time.perf_counter() - t_start:.1f} s",
                  file=sys.stderr, flush=True)
    layers = {}
    for name in LAYERS:
        seconds = [rungs[N][name][0] for N in grids]
        peak = [rungs[N][name][1] for N in grids]
        layers[name] = {
            "seconds": seconds,
            "peak_mib": peak,
            # in (N+1)^2 float64 arrays
            "peak_full_arrays": [p * 2**20 / (8 * (N + 1) ** 2) for p, N in zip(peak, grids)],
            "growth_exp": growth(seconds, grids),
            "peak_growth_exp": growth(peak, grids),
        }
    return {
        "schema": SCHEMA,
        "problem": "full",
        "T": 1.0,
        "grids": grids,
        "repeats": REPEATS,
        "timing": "min of `repeats` untraced calls",
        "peak": "tracemalloc peak of one more call, above the level at its entry; "
                "blind to LAPACK's work copies",
        "layers": layers,
        "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # fresh processes per rung: run_reconstruct on a synthesized set,
        # then the same under MALLOC_MMAP_THRESHOLD_=131072
        "reconstruct_maxrss_mib": [rss for rss, _ in reconstruct_rss],
        "reconstruct_maxrss_mmap_mib": [rss for _, rss in reconstruct_rss],
        "total_s": time.perf_counter() - t_start,
        "host": host_facts(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--grids", type=int, nargs="+", default=list(GRIDS))
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_ladder.json"))
    args = parser.parse_args(argv)
    if sorted(set(args.grids)) != args.grids or args.grids[0] < 16:
        parser.error("--grids must be increasing and >= 16")
    result = ladder(args.grids)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
