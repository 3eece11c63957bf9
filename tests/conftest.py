"""Shared fixtures: catalogue problems solved once per session.

The Goursat march and the probe assembly are the expensive pieces, so the
moderate-resolution solutions used by several test modules are cached here.
"""

import os

import numpy as np
import pytest

import memwave as mw


@pytest.fixture(scope="session")
def grid64():
    return mw.GridSpec(1.0, 64)


@pytest.fixture(scope="session")
def grid32():
    return mw.GridSpec(1.0, 32)


@pytest.fixture(scope="session")
def full_fields(grid64):
    prob = mw.get_problem("full")
    return prob.fields(grid64)


@pytest.fixture(scope="session")
def full_goursat(grid64, full_fields):
    q, K = full_fields
    return mw.solve_goursat(q, K)


@pytest.fixture(scope="session")
def full_response(full_goursat):
    return mw.response_kernel(full_goursat)


@pytest.fixture(scope="session")
def full_ct_response(full_response, full_fields):
    _, K = full_fields
    return mw.connecting_kernel_from_response(full_response, K)


@pytest.fixture(scope="session")
def full_ct_oracle(full_goursat):
    return mw.connecting_kernel_from_w(full_goursat)


@pytest.fixture(scope="session")
def classical_goursat(grid64):
    prob = mw.get_problem("classical")
    q, K = prob.fields(grid64)
    return mw.solve_goursat(q, K)


@pytest.fixture(scope="session")
def memonly_goursat():
    grid = mw.GridSpec(1.0, 80)
    prob = mw.get_problem("memory_only_small")
    q, K = prob.fields(grid)
    return mw.solve_goursat(q, K)


@pytest.fixture
def fork_pids(monkeypatch):
    """The pid of every process forked during the test, in fork order."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def set_cpus(monkeypatch):
    """``set_cpus(n)`` makes ``os.sched_getaffinity`` report ``n`` CPUs for
    the rest of the test."""

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return set_cpus
