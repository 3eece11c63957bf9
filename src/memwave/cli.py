"""Command-line driver for the boundary-data pipeline.

Exit codes: 0 success, 2 bad usage/config, 3 a ``NumericalFailure``
(instability, ill-conditioning, inconsistent assembly), 4 verification
found the artifacts of a data directory mutually inconsistent.
"""

from __future__ import annotations

import argparse
import sys

from .errors import NumericalFailure, UsageError
from .pipeline import (
    load_config,
    run_convergence,
    run_reconstruct,
    run_synth,
    run_verify,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memwave",
        description="1-d wave equation with memory: boundary data synthesis, "
        "potential reconstruction and self-verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="simulate the forward problem, write data")
    p.add_argument("--config", required=True, help="JSON problem description")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="override the noise seed from the config")

    p = sub.add_parser("reconstruct", help="recover the potential from data")
    p.add_argument("--data", required=True, help="directory written by synth")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("verify", help="cross-validate a data directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="optionally write report.json here")

    p = sub.add_parser("convergence", help="error vs. grid resolution study")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--grids", required=True,
                   help="comma-separated increasing N values, e.g. 32,64,128")
    return parser


def _dispatch(args) -> int:
    if args.command == "synth":
        report = run_synth(load_config(args.config), args.out, seed=args.seed)
        print(f"synth: wrote {', '.join(report['artifacts'])} to {args.out}")
        return 0

    if args.command == "reconstruct":
        report = run_reconstruct(args.data, args.out)
        m = report["metrics"]
        line = (f"reconstruct: cond_estimate={m['cond_estimate']:.3e}, "
                f"min_pivot={m['min_pivot']:.3e}")
        if "l2_rel_err" in m:
            line += f", interior rel error={m['l2_rel_err']:.3e}"
        print(line)
        return 0

    if args.command == "verify":
        report = run_verify(args.data, args.out)
        for chk in report["checks"]:
            status = "PASS" if chk["passed"] else "FAIL"
            print(f"{status} {chk['name']}: metric={chk['metric']:.6g}")
        if report["status"] != "ok":
            names = ", ".join(report["failed_checks"])
            print(f"verification failed: {names}", file=sys.stderr)
            return 4
        return 0

    try:
        grids = [int(tok) for tok in args.grids.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"--grids must be comma-separated integers, got {args.grids!r}")
    report = run_convergence(load_config(args.config), args.out, grids)
    for row in report["rows"]:
        print(f"N={row['N']:>5d}  error={row['error']:.6e}  order={row['order']:.2f}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
