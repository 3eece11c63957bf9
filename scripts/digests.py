"""Digests of every output the command line writes, for byte-identity checks.

    python3 scripts/digests.py > digests.txt        # every config
    python3 scripts/digests.py --compare digests.txt
    python3 scripts/digests.py --configs full-N16 free-N16

Runs ``memwave.cli.main`` in this process, with BLAS pinned to one thread,
on each config of ``CONFIGS``.  A config runs ``synth``; ``reconstruct`` and
``verify`` on its data, then again on a copy without ``truth_q.csv``; and
``convergence --grids 16,32``.  A config may scale the value column of one
data file by a factor between ``synth`` and the stages that read it.  Every
call runs in the work directory on relative paths, so what it prints does
not name the directory.

Prints one line per call, ``<config>/<stage> exit=<code> stdout=<sha256>
stderr=<sha256>``, and then one line per file the config's calls wrote,
``<config>/<stage>/<file> <sha256>``; ``timings.json`` holds wall-clock
times and is left out.  With ``--compare FILE`` it prints only the lines that
differ from a saved run, ``-`` for the saved line and ``+`` for this run's,
and exits 1 if there is any.  numpy only; nothing here is part of the
package.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    # pinned before numpy loads: multithreaded BLAS may sum in another order
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from memwave import cli  # noqa: E402


def _families(q: tuple, K: tuple, **extra) -> dict:
    return {"q": {"family": q[0], "params": list(q[1:])},
            "K": {"family": K[0], "params": list(K[1:])}, **extra}


def _configs() -> dict:
    """``{name: (config, scaled)}``: ``scaled`` is None or a data file and
    the factor its value column is multiplied by after ``synth``."""
    configs = {}
    for problem in ("free", "memory_only_small", "potential_only_small",
                    "classical", "full"):
        for N in (16, 64, 65, 200):
            configs[f"{problem}-N{N}"] = ({"problem": problem, "N": N}, None)
    for T in (2.0**-6, 0.3, 2.0, 16.0):
        for N in (16, 65, 200):
            configs[f"full-T{T!r}-N{N}"] = ({"problem": "full", "T": T, "N": N}, None)
    bump = ("gaussian_bump", 0.5, 0.1, 1.0)
    decay = ("exp_decay", 1.0, 1.0)
    configs.update({
        "full-noise": ({"problem": "full", "N": 64,
                        "noise": {"sigma": 1e-5, "seed": 3}}, None),
        "full-q100": (_families(("gaussian_bump", 0.5, 0.1, 100.0), decay, N=64), None),
        "full-K100": (_families(bump, ("exp_decay", 100.0, 1.0), N=64), None),
        "sine-constant": (_families(("sine", 1.0, 1.0), ("constant", 0.1), N=64), None),
        "full-N10": ({"problem": "full", "N": 10}, None),
        "full-N1030": ({"problem": "full", "N": 1030}, None),
        # inputs that overflow, underflow or fail by name
        "full-T1e300": ({"problem": "full", "T": 1e300, "N": 16}, None),
        "narrow-bump": (_families(("gaussian_bump", 0.5, 1e-300, 1.0), ("zero",), N=16), None),
        "overflowing-exp": (_families(("exp_decay", 1.0, -1e5), ("zero",), N=16), None),
        "kernel-x1e150": ({"problem": "full", "N": 64}, ("kernel_K.csv", 1e150)),
        "truth-x1e300": ({"problem": "full", "N": 64}, ("truth_q.csv", 1e300)),
    })
    return configs


CONFIGS = _configs()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _scale(path: str, factor: float) -> None:
    """Multiply the value column of the CSV table at ``path`` by ``factor``."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    for k in range(1, len(lines)):
        x, v = lines[k].split(",")
        lines[k] = f"{x},{float(v) * factor!r}"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _call(key: str, argv: list[str]) -> str:
    """The line of one ``cli.main`` call: its exit code and the digests of
    what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return (f"{key} exit={code} stdout={_sha256(out.getvalue().encode())} "
            f"stderr={_sha256(err.getvalue().encode())}")


def _run_config(name: str) -> list[str]:
    """Every call of config ``name`` in the current directory, then every
    file they wrote."""
    config, scaled = CONFIGS[name]
    os.makedirs(name)
    cfg = os.path.join(name, "config.json")
    with open(cfg, "w") as fh:
        json.dump(config, fh)
    data, bare = os.path.join(name, "synth"), os.path.join(name, "data-without-truth")
    lines = [_call(f"{name}/synth", ["synth", "--config", cfg, "--out", data])]
    if os.path.isdir(data):
        if scaled is not None:
            _scale(os.path.join(data, scaled[0]), scaled[1])
        shutil.copytree(data, bare)
        os.unlink(os.path.join(bare, "truth_q.csv"))
    for src, tag in ((data, ""), (bare, "-without-truth")):
        for stage in ("reconstruct", "verify"):
            out = os.path.join(name, stage + tag)
            lines.append(_call(out, [stage, "--data", src, "--out", out]))
    out = os.path.join(name, "convergence")
    lines.append(_call(out, ["convergence", "--config", cfg, "--out", out,
                             "--grids", "16,32"]))
    # the data copy holds synth's files less one; the outputs are the rest
    shutil.rmtree(bare, ignore_errors=True)
    for stage in sorted(os.listdir(name)):
        folder = os.path.join(name, stage)
        if not os.path.isdir(folder):
            continue
        for file in sorted(os.listdir(folder)):
            if file != "timings.json":
                with open(os.path.join(folder, file), "rb") as fh:
                    lines.append(f"{name}/{stage}/{file} {_sha256(fh.read())}")
    return lines


def digest_lines(names: list[str]) -> list[str]:
    """The digest lines of the configs ``names``, run in a fresh directory."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            return [line for name in names for line in _run_config(name)]
        finally:
            os.chdir(here)


def differences(saved: list[str], lines: list[str]) -> list[str]:
    """``-`` for each saved line that this run does not repeat and ``+`` for
    each line of this run the saved run lacks, keyed by the line's first
    field."""
    old = dict(line.split(" ", 1) for line in saved)
    new = dict(line.split(" ", 1) for line in lines)
    diff = []
    for key in [*old, *(k for k in new if k not in old)]:
        if old.get(key) != new.get(key):
            diff += [f"- {key} {old[key]}"] if key in old else []
            diff += [f"+ {key} {new[key]}"] if key in new else []
    return diff


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--configs", nargs="+", default=list(CONFIGS),
                        help="configs to run, by name (default: all)")
    parser.add_argument("--compare", metavar="FILE",
                        help="print only the lines that differ from a saved run")
    args = parser.parse_args(argv)
    unknown = [name for name in args.configs if name not in CONFIGS]
    if unknown:
        parser.error(f"unknown configs {unknown}; known: {', '.join(CONFIGS)}")
    lines = digest_lines(args.configs)
    if args.compare is None:
        print("\n".join(lines))
        return 0
    with open(args.compare) as fh:
        diff = differences([line for line in fh.read().splitlines() if line], lines)
    if diff:
        print("\n".join(diff))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
