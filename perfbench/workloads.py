"""Workloads of the memwave benchmark; see README.md for why each exists.

A workload draws its inputs from the benchmark seed, builds its data sets in
``setup`` (through ``run_synth``), and hands the measuring loop one cycle of
operations.  Each operation is one call of a public pipeline entry point
(``run_reconstruct``, ``run_verify`` or ``run_convergence``) plus an output
check that runs outside the timed call.  A workload keeps what its checks
saw, so the run can report accuracy, digests and the verify miss rate.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

from memwave.catalog import get_problem
from memwave.pipeline import (
    config_from_dict,
    run_convergence,
    run_reconstruct,
    run_synth,
    run_verify,
)

# Accuracy gate of reconstruct: interior relative L2 error of q_hat below
# Q_ERR_PER_H2 * h^2.  The catalogue `full` problem sits at about 21 h^2 from
# N = 32 to 1024, so this allows twice the clean error and no more.
Q_ERR_PER_H2 = 42.0
# observed orders of the second-order problems must stay in this band
ORDER_BAND = (1.8, 2.2)
# the perturbative problems (amplitude 0.01) reconstruct to near round-off
SMALL_ERR_MAX = 1e-6
# spike amplitudes, as shares of max|r|, of the corrupted verify data sets
SPIKE_AMPLITUDES = (0.01, 0.1, 1.0, 10.0)
STUDY_PROBLEMS = ("classical", "full", "memory_only_small", "potential_only_small")
STUDY_GRIDS = (32, 64, 128, 256)


@dataclass(frozen=True)
class Op:
    """One timed call and the check of its output."""

    label: str
    run: Callable[[], dict]
    check: Callable[[dict], list[str]]  # returns the failed checks, if any


def full_config(rng: np.random.Generator, N: int):
    """The catalogue `full` problem with a seeded bump centre and width."""
    base = get_problem("full")
    centre, width, amp = base.q_params
    return config_from_dict({
        "q": {"family": base.q_family,
              "params": [centre + rng.uniform(-0.05, 0.05),
                         width * (1.0 + rng.uniform(-0.01, 0.01)), amp]},
        "K": {"family": base.k_family, "params": list(base.k_params)},
        "N": N,
    })


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def spike_faults(rng: np.random.Generator, N: int) -> list[tuple[int, float]]:
    """(response sample index, amplitude share) of each corrupted data set.

    One odd and one even index of the 2N+1 response samples, each spiked at
    every amplitude of the ladder.
    """
    odd = 2 * int(rng.integers(0, N)) + 1
    even = 2 * int(rng.integers(1, N + 1))
    return [(i, a) for i in (odd, even) for a in SPIKE_AMPLITUDES]


def write_spike(clean_dir: str, out_dir: str, index: int, amplitude: float) -> None:
    """Copy a data set, adding amplitude * max|r| to response sample `index`."""
    shutil.copytree(clean_dir, out_dir)
    path = os.path.join(out_dir, "response.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    r_max = max(abs(float(r)) for _, r in rows)
    t, r = rows[index]
    lines[index + 1] = f"{t},{float(r) + amplitude * r_max:.17g}"
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


class ReconstructWorkload:
    """run_reconstruct (response path) on one clean data set of size N."""

    def __init__(self, seed: int, N: int = 1024):
        self.name = f"reconstruct-{N}"
        self.cfg = full_config(np.random.default_rng(seed), N)
        self.q_errs: list[float] = []
        self.digests: dict[str, str] = {}

    def setup(self, workdir: str) -> None:
        self.data = os.path.join(workdir, "data")
        self.out = os.path.join(workdir, "recon")
        run_synth(self.cfg, self.data)

    def cycle(self) -> list[Op]:
        # two identical ops, so that every run checks the artifacts repeat
        # byte for byte and reports a median of more than one op
        return [Op(f"reconstruct#{k}", lambda: run_reconstruct(self.data, self.out),
                   self._check) for k in (1, 2)]

    def _check(self, report: dict) -> list[str]:
        failed = []
        if report["status"] != "ok":
            failed.append(f"reconstruct status {report['status']}")
        err = report["metrics"]["l2_rel_err"]
        limit = Q_ERR_PER_H2 * self.cfg.grid().h ** 2
        self.q_errs.append(err)
        if not err <= limit:
            failed.append(f"q_rel_err {err:.3e} above {limit:.3e}")
        digests = {f: sha256(os.path.join(self.out, f)) for f in ("cT.csv", "q_hat.csv")}
        if self.digests and digests != self.digests:
            failed.append("artifacts differ between identical reconstructs")
        self.digests = digests
        return failed

    def extras(self) -> dict:
        return {"q_rel_err": float(np.median(self.q_errs)) if self.q_errs else None,
                "digests": self.digests}


class VerifyWorkload:
    """run_verify on a clean data set of size N and its spiked copies."""

    def __init__(self, seed: int, N: int = 1024):
        rng = np.random.default_rng(seed)
        self.name = f"verify-{N}"
        self.cfg = full_config(rng, N)
        self.faults = spike_faults(rng, N)
        self.missed: dict[tuple[int, float], bool] = {}

    def setup(self, workdir: str) -> None:
        clean = os.path.join(workdir, "clean")
        run_synth(self.cfg, clean)
        self.sets = [("clean", clean, None)]
        for k, fault in enumerate(self.faults):
            d = os.path.join(workdir, f"spike{k}")
            write_spike(clean, d, *fault)
            self.sets.append((f"spike@{fault[0]}x{fault[1]:g}", d, fault))

    def cycle(self) -> list[Op]:
        return [Op(label, lambda d=d: run_verify(d), self._checker(fault))
                for label, d, fault in self.sets]

    def _checker(self, fault):
        def check(report: dict) -> list[str]:
            if fault is not None:  # either verdict is an output; a pass is a miss
                self.missed[fault] = report["status"] == "ok"
                return []
            if report["status"] != "ok":
                return [f"clean verify failed {report['failed_checks']}"]
            return []
        return check

    def extras(self) -> dict:
        if not self.missed:
            return {"verify_miss_share": None}
        return {"verify_miss_share": sum(self.missed.values()) / len(self.missed),
                "verify_misses": sum(self.missed.values()),
                "verify_corrupted": len(self.missed)}


class StudyWorkload:
    """run_convergence of the four catalogue problems, in a seeded order."""

    def __init__(self, seed: int, grids=STUDY_GRIDS):
        self.name = "study-small"
        self.grids = list(grids)
        order = np.random.default_rng(seed).permutation(len(STUDY_PROBLEMS))
        self.problems = [STUDY_PROBLEMS[k] for k in order]
        self.full_errs: list[float] = []

    def setup(self, workdir: str) -> None:
        """Synthesize each problem's data set at the finest rung."""
        self.out = os.path.join(workdir, "study")
        self.cfgs = {}
        for p in self.problems:
            self.cfgs[p] = config_from_dict({"problem": p, "N": self.grids[-1]})
            run_synth(self.cfgs[p], os.path.join(workdir, "synth", p))

    def cycle(self) -> list[Op]:
        return [Op(p, lambda p=p: run_convergence(self.cfgs[p], self.out, self.grids),
                   lambda report, p=p: self._check(p, report))
                for p in self.problems]

    def _check(self, problem: str, report: dict) -> list[str]:
        rows = report["rows"]
        if problem in ("classical", "full"):
            lo, hi = ORDER_BAND
            orders = [row["order"] for row in rows[1:]]
            if problem == "full":
                self.full_errs.append(rows[-1]["error"])
            if not all(lo <= o <= hi for o in orders):
                return [f"{problem} orders {orders} outside {ORDER_BAND}"]
            return []
        errs = [row["error"] for row in rows]
        if not all(math.isfinite(e) and e <= SMALL_ERR_MAX for e in errs):
            return [f"{problem} errors {errs} above {SMALL_ERR_MAX:g}"]
        return []

    def extras(self) -> dict:
        return {"q_rel_err": float(np.median(self.full_errs)) if self.full_errs else None}


WORKLOADS = {
    "reconstruct-1024": ReconstructWorkload,
    "verify-1024": VerifyWorkload,
    "study-small": StudyWorkload,
}
