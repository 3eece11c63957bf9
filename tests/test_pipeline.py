"""End-to-end pipeline stages: synth, reconstruct, verify, convergence.

Each stage is run against small catalogue problems in a temp directory and
its report is checked for schema, artifacts, determinism and the frozen
quality metrics measured on the clean problems.
"""

import json
import os
import shutil
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import memwave as mw
from memwave import artifacts, cli, pipeline
from memwave.artifacts import read_csv
from memwave.pipeline import (
    SCHEMA_VERSION,
    _load_data,
    config_from_dict,
    load_config,
    run_convergence,
    run_reconstruct,
    run_synth,
    run_verify,
)
from test_connecting import asymmetry_round_off


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth") / "data"
    cfg = config_from_dict({"problem": "full", "N": 64})
    run_synth(cfg, str(out))
    return str(out)


# ------------------------------------------------------------------- config


def test_config_defaults():
    cfg = config_from_dict({})
    assert (cfg.T, cfg.N) == (1.0, 64)
    assert cfg.problem.q_family == "zero" and cfg.problem.k_family == "zero"
    assert cfg.noise_sigma == 0.0


def test_config_catalogue_expansion():
    cfg = config_from_dict({"problem": "full", "N": 32})
    assert cfg.problem.name == "full"
    assert cfg.problem.q_family == "gaussian_bump"
    assert cfg.problem.k_family == "exp_decay"
    echo = cfg.echo()
    assert echo["N"] == 32


def test_config_keeps_json_numbers():
    cfg = config_from_dict({"T": 2, "N": 16, "noise": {"sigma": 0, "seed": 3},
                            "q": {"family": "constant", "params": [1]}})
    assert (cfg.T, cfg.N, cfg.noise_sigma, cfg.noise_seed) == (2.0, 16, 0.0, 3)
    assert [type(v) for v in (cfg.T, cfg.N, cfg.noise_sigma, cfg.noise_seed)] == \
        [float, int, float, int]
    assert cfg.problem.q_params == (1.0,) and type(cfg.problem.q_params[0]) is float


def test_config_explicit_fields():
    cfg = config_from_dict(
        {
            "q": {"family": "constant", "params": [0.3]},
            "K": {"family": "exp_decay", "params": [0.5, 2.0]},
            "N": 16,
            "T": 2.0,
        }
    )
    q, K = cfg.fields()
    assert q.values[0] == pytest.approx(0.3)
    assert K.values.size == 33


@pytest.mark.parametrize(
    "raw",
    [
        {"bogus": 1},
        {"problem": "full", "q": {"family": "zero", "params": []}},
        {"problem": "unheard_of"},
        {"path": "teleport"},
        {"noise": {"sigma": -0.1}},
        {"noise": {"level": 0.1}},
        {"ridge": 0.0},  # the Lavrentiev shift is gone: an unknown key
        {"N": "many"},
        {"q": {"family": "constant"}},  # constant needs its level parameter
        {"q": {"family": "constant", "params": [1.0], "extra": 2}},
        {"noise": {"sigma": "abc"}},
        {"noise": {"sigma": None}},
        {"noise": {"sigma": float("nan")}},
        {"noise": {"sigma": float("inf")}},
        {"noise": {"seed": "x"}},
        {"noise": {"seed": float("inf")}},
        {"noise": {"sigma": 0.001, "seed": -1}},
        {"q": {"family": "constant", "params": ["a"]}},
        {"q": {"family": "constant", "params": [None]}},
        # a scalar of the wrong JSON type is refused, not coerced
        {"N": 64.9},
        {"N": 64.0},
        {"N": "64"},
        {"N": True},
        {"T": "2"},
        {"T": True},
        {"T": 10 ** 400},
        {"noise": {"seed": 1.5}},
        {"noise": {"seed": True}},
        {"noise": {"sigma": True}},
        {"noise": {"sigma": "0.1"}},
        {"q": {"family": "constant", "params": [True]}},
        {"q": {"family": "constant", "params": ["0.3"]}},
    ],
)
def test_config_rejects_bad_input(raw):
    with pytest.raises(mw.UsageError):
        config_from_dict(raw)


def test_config_rejects_bad_family_params():
    with pytest.raises(mw.UsageError):
        config_from_dict({"q": {"family": "gaussian_bump", "params": []}})


def test_load_config_roundtrip(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"problem": "classical", "N": 16}))
    cfg = load_config(str(p))
    assert cfg.problem.name == "classical" and cfg.N == 16
    p.write_text("[1, 2]")
    with pytest.raises(mw.UsageError):
        load_config(str(p))


# -------------------------------------------------------------------- synth


def test_synth_artifacts_and_report(data_dir):
    for name in ("response.csv", "kernel_K.csv", "truth_q.csv",
                 "report.json", "timings.json"):
        assert os.path.exists(os.path.join(data_dir, name))
    report = json.loads((Path(data_dir) / "report.json").read_text())
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["command"] == "synth"
    assert report["status"] == "ok"
    assert report["grid"] == {"T": 1.0, "N": 64, "h": 1.0 / 64.0}
    assert report["metrics"]["response_max_abs"] == pytest.approx(0.8, abs=0.1)
    # timing values live in their own file so reports stay reproducible
    assert "wall_times_s" not in report
    timings = json.loads((Path(data_dir) / "timings.json").read_text())
    assert timings["command"] == "synth"
    assert timings["wall_times_s"]["total"] > 0.0


def test_synth_timings_charge_named_stages(data_dir):
    laps = json.loads((Path(data_dir) / "timings.json").read_text())["wall_times_s"]
    named = ("goursat", "artifacts")
    assert set(laps) == set(named) | {"total"}
    assert sum(laps[k] for k in named) <= laps["total"]


def test_synth_response_header_and_shape(data_dir):
    lines = (Path(data_dir) / "response.csv").read_text().splitlines()
    assert lines[0] == "t,r"
    assert len(lines) == 1 + 129  # header + 2N+1 samples
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0


def test_synth_noise_is_seeded_and_reproducible(tmp_path):
    cfg = config_from_dict(
        {"problem": "classical", "N": 32, "noise": {"sigma": 1e-3, "seed": 7}}
    )
    run_synth(cfg, str(tmp_path / "a"))
    run_synth(cfg, str(tmp_path / "b"))
    run_synth(cfg, str(tmp_path / "c"), seed=8)
    a = (tmp_path / "a" / "response.csv").read_bytes()
    b = (tmp_path / "b" / "response.csv").read_bytes()
    c = (tmp_path / "c" / "response.csv").read_bytes()
    assert a == b
    assert a != c
    # noise never touches the pinned r(0) = 0 sample
    r0 = float(a.decode().splitlines()[1].split(",")[1])
    assert r0 == 0.0


# -------------------------------------------------------------- reconstruct


def test_reconstruct_metrics_and_artifacts(data_dir, tmp_path):
    out = tmp_path / "rec"
    report = run_reconstruct(data_dir, str(out))
    m = report["metrics"]
    assert report["status"] == "ok"
    assert m["l2_rel_err"] < 1e-2
    assert m["linf_err"] < 1e-2
    assert m["max_abs_err"] < 5e-2
    assert m["window"] == [0.1, 0.9]
    assert m["cond_estimate"] < 1e3
    # the residual checks of the solve are verify's (test_verify_*)
    assert "gl_residual" not in m and "operator_identity_residual" not in m
    q_lines = (out / "q_hat.csv").read_text().splitlines()
    assert q_lines[0] == "x,q_true,q_hat,abs_err"
    assert len(q_lines) == 1 + 65
    c_lines = (out / "cT.csv").read_text().splitlines()
    assert c_lines[0] == ",".join(f"s{j}" for j in range(65))
    assert len(c_lines) == 1 + 65
    # the file is the kernel matrix, row i = c(t_i, .), bit for bit
    _, r, K, _ = _load_data(data_dir)
    header, c = read_csv(str(out / "cT.csv"))
    assert header == [f"s{j}" for j in range(65)]
    assert c.shape == (65, 65)
    assert np.array_equal(c, mw.connecting_kernel_from_response(r, K).values)


def test_reconstruct_timings_charge_named_stages(tmp_path):
    cfg = config_from_dict({"problem": "full", "N": 32})
    run_synth(cfg, str(tmp_path / "d"))
    run_reconstruct(str(tmp_path / "d"), str(tmp_path / "rec"))
    laps = json.loads((tmp_path / "rec" / "timings.json").read_text())["wall_times_s"]
    named = ("load", "connecting", "gelfand_levitan", "artifacts", "metrics")
    assert set(laps) == set(named) | {"total"}
    assert sum(laps[k] for k in named) <= laps["total"]


def test_reconstruct_and_its_tables_never_fork(data_dir, tmp_path, monkeypatch, fork_pids,
                                              set_cpus):
    # 3 CPUs and 65 * 5 cells a slice: cT.csv at N = 64 is 13 slices
    monkeypatch.setattr(artifacts, "_SLICE_CELLS", 65 * 5)
    set_cpus(3)
    artifacts.write_csv(str(tmp_path / "t.csv"), ["a", "b"], np.ones((1000, 2)))
    run_reconstruct(data_dir, str(tmp_path / "o"))
    assert fork_pids == []
    timings = json.loads((tmp_path / "o" / "timings.json").read_text())
    assert set(timings) == {"schema_version", "command", "wall_times_s"}


def test_reconstruct_bytes_do_not_depend_on_blocks_or_cpus(tmp_path, monkeypatch, set_cpus):
    run_synth(config_from_dict({"problem": "full", "N": 32}), str(tmp_path / "d"))
    run_reconstruct(str(tmp_path / "d"), str(tmp_path / "one"))
    # 99 cells a slice: cT.csv is 11 slices of 3 rows, written on 3 CPUs
    monkeypatch.setattr(artifacts, "_SLICE_CELLS", 99)
    set_cpus(3)
    run_reconstruct(str(tmp_path / "d"), str(tmp_path / "many"))
    for name in ("cT.csv", "q_hat.csv", "report.json"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "many" / name).read_bytes()


def test_reconstruct_reports_min_pivot(tmp_path):
    run_synth(config_from_dict({"problem": "free", "N": 32}), str(tmp_path / "free"))
    m = run_reconstruct(str(tmp_path / "free"), str(tmp_path / "rec"))["metrics"]
    assert m["min_pivot"] == pytest.approx(1.0, rel=1e-14)
    assert m["min_pivot_depth"] == 0.0
    assert len(m["pivot_deciles"]) == 10
    assert m["pivot_deciles"] == pytest.approx([1.0] * 10, rel=1e-14)
    assert min(m["pivot_deciles"]) == m["min_pivot"]


def test_reconstruct_reports_galerkin_asymmetry(data_dir, tmp_path):
    m = run_reconstruct(data_dir, str(tmp_path / "r"))["metrics"]
    bound = asymmetry_round_off(64, m["cT_max_abs"])
    assert np.isfinite(m["galerkin_asymmetry"])
    assert 0.0 <= m["galerkin_asymmetry"] <= bound
    # the factor route assembles no Galerkin block
    grid, _, K, q = _load_data(data_dir)
    assert np.isnan(mw.connecting_kernel_from_w(mw.solve_goursat(q, K, grid)).asymmetry)


def _scaled_response(src_dir, tmp_path, factor):
    def mutate(ls):
        for k in range(1, len(ls)):
            t, r = ls[k].split(",")
            ls[k] = f"{t},{float(r) * factor!r}"

    return _patch_csv(src_dir, tmp_path, "response.csv", mutate)


def test_reconstruct_non_positive_operator_is_named(data_dir, tmp_path):
    d = _scaled_response(data_dir, tmp_path, 10.0)
    with pytest.raises(mw.IllConditionedError, match="not positive.* s = "):
        run_reconstruct(d, str(tmp_path / "o"))


def test_reconstruct_gl_failure_leaves_no_output_dir(data_dir, tmp_path):
    d = _scaled_response(data_dir, tmp_path, 10.0)
    out = tmp_path / "o"
    with pytest.raises(mw.IllConditionedError, match="not positive.* s = "):
        run_reconstruct(d, str(out))
    assert not out.exists()  # the directory is created after the solve


def test_reconstruct_creates_its_directory_after_the_solve(data_dir, tmp_path, monkeypatch):
    out = tmp_path / "o"
    out_at_solve = []
    real_solve = pipeline.solve_gl

    def solve_gl(cT):
        out_at_solve.append(out.exists())
        return real_solve(cT)

    monkeypatch.setattr(pipeline, "solve_gl", solve_gl)
    run_reconstruct(data_dir, str(out))
    assert out_at_solve == [False]
    assert sorted(os.listdir(out)) == ["cT.csv", "q_hat.csv", "report.json", "timings.json"]


def test_reconstruct_holds_the_kernel_and_one_more_array_from_the_solve_on(tmp_path,
                                                                           monkeypatch):
    # from the solve on, reconstruct holds c_T, then the solve's one array
    # (z forms in the inverse factor's storage) with its block temporaries,
    # 0.7 of an array at this N (2.77 in all); a separate z, or a |c_T|
    # temporary beside z (3.08), would add a whole array
    N = 512
    run_synth(config_from_dict({"problem": "full", "N": N}), str(tmp_path / "d"))
    real_solve = pipeline.solve_gl

    def solve_gl(cT):
        tracemalloc.reset_peak()  # the assembly's peak is its own test's
        return real_solve(cT)

    monkeypatch.setattr(pipeline, "solve_gl", solve_gl)
    tracemalloc.start()
    try:
        run_reconstruct(str(tmp_path / "d"), str(tmp_path / "o"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.9 * 8 * (N + 1) ** 2


def test_reconstruct_w_oracle_path(data_dir):
    # the factor route from the true potential's kernel w, through the same
    # solve, recovery and error metrics as reconstruct
    grid, _, K, q_true = _load_data(data_dir)
    cw = mw.connecting_kernel_from_w(mw.solve_goursat(q_true, K, grid))
    q_hat = mw.recover_potential(mw.solve_gl(cw))
    err = mw.reconstruction_errors(q_true.values, q_hat.values, grid)
    assert err["interior_rel"] < 1e-2


def test_reconstruct_w_oracle_needs_truth(data_dir, tmp_path):
    # without truth_q.csv there is no potential to march the factor route
    # from; the response route only loses its error metrics
    trimmed = tmp_path / "notruth"
    shutil.copytree(data_dir, trimmed)
    os.remove(trimmed / "truth_q.csv")
    report = run_reconstruct(str(trimmed), str(tmp_path / "out2"))
    assert "l2_rel_err" not in report["metrics"]
    assert report["metrics"]["cond_estimate"] < 1e3


# ------------------------------------------------------- data dir validation


def _patch_csv(src_dir, tmp_path, fname, mutate):
    d = tmp_path / "mutated"
    shutil.copytree(src_dir, d)
    lines = (d / fname).read_text().splitlines()
    mutate(lines)
    (d / fname).write_text("\n".join(lines) + "\n")
    return str(d)


def test_load_rejects_even_sample_count(data_dir, tmp_path):
    d = _patch_csv(data_dir, tmp_path, "response.csv", lambda ls: ls.pop())
    with pytest.raises(mw.UsageError):
        run_reconstruct(d, str(tmp_path / "o"))


def test_load_rejects_nonuniform_time(data_dir, tmp_path):
    def mutate(ls):
        t, r = ls[40].split(",")
        ls[40] = f"{float(t) + 1e-3},{r}"

    d = _patch_csv(data_dir, tmp_path, "response.csv", mutate)
    with pytest.raises(mw.UsageError):
        run_reconstruct(d, str(tmp_path / "o"))


def test_load_rejects_mismatched_kernel(data_dir, tmp_path):
    d = _patch_csv(data_dir, tmp_path, "kernel_K.csv", lambda ls: ls.pop())
    with pytest.raises(mw.UsageError):
        run_reconstruct(d, str(tmp_path / "o"))


def test_load_rejects_short_truth(data_dir, tmp_path):
    d = _patch_csv(data_dir, tmp_path, "truth_q.csv", lambda ls: ls.pop())
    with pytest.raises(mw.UsageError):
        run_reconstruct(d, str(tmp_path / "o"))


@pytest.mark.parametrize("command", ["reconstruct", "verify"])
@pytest.mark.parametrize("fname", ["response.csv", "kernel_K.csv", "truth_q.csv"])
def test_load_rejects_one_column_table(data_dir, tmp_path, capsys, fname, command):
    def mutate(ls):
        ls[:] = [line.split(",")[0] for line in ls]

    d = _patch_csv(data_dir, tmp_path, fname, mutate)
    assert cli.main([command, "--data", d, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == \
        f"error: {fname} must hold two columns (grid, value), got 1\n"


def test_load_rejects_truth_on_another_grid(data_dir, tmp_path):
    def mutate(ls):
        for k in range(1, len(ls)):
            x, value = ls[k].split(",")
            ls[k] = f"{2.0 * float(x)!r},{value}"

    d = _patch_csv(data_dir, tmp_path, "truth_q.csv", mutate)
    with pytest.raises(mw.UsageError, match="truth_q.csv x column"):
        run_reconstruct(d, str(tmp_path / "o"))
    assert cli.main(["verify", "--data", d]) == 2


# ------------------------------------------------------------------- verify


def test_verify_clean_data_passes(data_dir, tmp_path):
    out = tmp_path / "ver"
    report = run_verify(data_dir, str(out))
    assert report["status"] == "ok"
    assert report["failed_checks"] == []
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "two_path_response",
        "three_way_connecting",
        "operator_identity",
        "gl_residual",
    ]
    assert all(c["passed"] for c in report["checks"])
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["gl_residual"]["metric"] < 1e-12
    assert by_name["operator_identity"]["metric"] < 1e-5
    assert by_name["operator_identity"]["detail"].endswith("N=64")  # the native grid
    assert (out / "report.json").exists()
    asym = report["galerkin_asymmetry"]
    assert asym["N"] == 64
    assert np.isfinite(asym["value"]) and asym["value"] < 1e-8


def test_verify_timings_charge_named_stages(data_dir, tmp_path):
    run_verify(data_dir, str(tmp_path / "ver"))
    laps = json.loads((tmp_path / "ver" / "timings.json").read_text())["wall_times_s"]
    named = ("load", "connecting_assembly", "gl_solve", "two_path_response",
             "three_way_connecting", "operator_identity", "gl_residual")
    assert set(laps) == set(named) | {"total"}
    assert sum(laps[k] for k in named) <= laps["total"]


def test_verify_corrupted_sample_is_caught(data_dir, tmp_path):
    def mutate(ls):
        t, _ = ls[65].split(",")
        ls[65] = f"{t},1e3"

    d = _patch_csv(data_dir, tmp_path, "response.csv", mutate)
    report = run_verify(d)
    assert report["status"] == "failed"
    assert "operator_identity" in report["failed_checks"]


def test_verify_without_truth_runs_data_only_checks(data_dir, tmp_path):
    d = tmp_path / "nt"
    shutil.copytree(data_dir, d)
    os.remove(d / "truth_q.csv")
    report = run_verify(str(d))
    assert [c["name"] for c in report["checks"]] == [
        "operator_identity",
        "gl_residual",
    ]
    assert report["status"] == "ok"
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["gl_residual"]["metric"] < 1e-12
    assert by_name["operator_identity"]["metric"] < 1e-5
    assert by_name["operator_identity"]["detail"].endswith("N=64")
    # the assembly ran, so its Galerkin asymmetry is reported without truth
    _, r, K, _ = _load_data(str(d))
    cT = mw.connecting_kernel_from_response(r, K)
    bound = asymmetry_round_off(64, np.abs(cT.values).max())
    asym = report["galerkin_asymmetry"]
    assert asym == {"N": 64, "value": cT.asymmetry}
    assert np.isfinite(asym["value"]) and 0.0 <= asym["value"] <= bound


def test_verify_without_truth_assembles_only_the_top_level(data_dir, tmp_path,
                                                           monkeypatch):
    # the coarser levels only give the three-way check its order, and that
    # check needs truth_q.csv
    d = tmp_path / "nt"
    shutil.copytree(data_dir, d)
    os.remove(d / "truth_q.csv")
    calls = []
    real = pipeline.connecting_kernel_from_response

    def assemble(r, K):
        calls.append(r.grid.N)
        return real(r, K)

    monkeypatch.setattr(pipeline, "connecting_kernel_from_response", assemble)
    assert run_verify(str(d))["status"] == "ok"
    assert calls == [64]


_OVERFLOW = "connecting kernel has a non-finite entry at (t, s) = (0.5, 1)"


def test_verify_reports_no_asymmetry_when_the_assembly_breaks(data_dir, monkeypatch):
    def broken(r, K):
        raise mw.AssemblyError(_OVERFLOW)

    monkeypatch.setattr(pipeline, "connecting_kernel_from_response", broken)
    report = run_verify(data_dir)
    assert report["galerkin_asymmetry"] is None
    assert report["failed_checks"] == [
        "three_way_connecting", "operator_identity", "gl_residual"
    ]


def test_verify_times_every_stage_when_the_assembly_breaks(data_dir, tmp_path,
                                                          monkeypatch):
    def broken(r, K):
        raise mw.AssemblyError(_OVERFLOW)

    monkeypatch.setattr(pipeline, "connecting_kernel_from_response", broken)
    assert run_verify(data_dir, str(tmp_path / "ver"))["status"] == "failed"
    laps = _timings(tmp_path / "ver")["wall_times_s"]
    named = ("load", "connecting_assembly", "gl_solve", "two_path_response",
             "three_way_connecting", "operator_identity", "gl_residual")
    assert set(laps) == set(named) | {"total"}
    assert sum(laps[k] for k in named) <= laps["total"]


def test_verify_fails_by_name_when_only_the_finest_assembly_breaks(data_dir,
                                                                  monkeypatch):
    # the coarser levels assemble; their kernel must not stand in for the
    # finest one in the three-way check
    real = pipeline.connecting_kernel_from_response

    def broken_at_64(r, K):
        if r.grid.N == 64:
            raise mw.AssemblyError(_OVERFLOW)
        return real(r, K)

    monkeypatch.setattr(pipeline, "connecting_kernel_from_response", broken_at_64)
    report = run_verify(data_dir)
    assert report["status"] == "failed"
    assert report["galerkin_asymmetry"] is None
    assert report["failed_checks"] == [
        "three_way_connecting", "operator_identity", "gl_residual"
    ]
    three_way = next(c for c in report["checks"] if c["name"] == "three_way_connecting")
    assert three_way["detail"] == _OVERFLOW


@pytest.mark.parametrize("truth_at, assembly_at, three_way_names", [
    (16, 64, "truth"), (32, 16, "assembly"),
], ids=["truth_first", "assembly_first"])
def test_verify_names_the_first_of_two_breakages(data_dir, monkeypatch, truth_at,
                                                 assembly_at, three_way_names):
    # the three-way check walks the ladder up, reading each level's kernel
    # before it marches the truth there, so it names whichever broke first;
    # the residual checks need the top level, so they name the assembly
    messages = {"truth": f"truth march blew up at N={truth_at}",
                "assembly": f"assembly overflowed at N={assembly_at}"}
    real_march = pipeline.solve_goursat
    real_assembly = pipeline.connecting_kernel_from_response

    def march(q, K, grid):
        if grid.N == truth_at:
            raise mw.NumericalInstabilityError(messages["truth"])
        return real_march(q, K, grid)

    def assemble(r, K):
        if r.grid.N == assembly_at:
            raise mw.AssemblyError(messages["assembly"])
        return real_assembly(r, K)

    monkeypatch.setattr(pipeline, "solve_goursat", march)
    monkeypatch.setattr(pipeline, "connecting_kernel_from_response", assemble)
    report = run_verify(data_dir)
    assert report["failed_checks"] == [
        "three_way_connecting", "operator_identity", "gl_residual"
    ]
    failed = {c["name"]: c for c in report["checks"] if not c["passed"]}
    assert failed["three_way_connecting"] == {
        "name": "three_way_connecting", "passed": False, "metric": float("inf"),
        "threshold": 2e-2, "detail": messages[three_way_names]}
    for name in ("operator_identity", "gl_residual"):
        assert failed[name] == {
            "name": name, "passed": False, "metric": float("inf"),
            "threshold": None, "detail": messages["assembly"]}


def test_verify_names_non_positive_operator(data_dir, tmp_path):
    # a response ten times too strong admits no (q, K): the factor-based
    # checks fail by name with the depth, instead of crashing verify
    d = _scaled_response(data_dir, tmp_path, 10.0)
    os.remove(os.path.join(d, "truth_q.csv"))
    report = run_verify(d)
    assert report["status"] == "failed"
    assert report["failed_checks"] == ["operator_identity", "gl_residual"]
    for chk in report["checks"]:
        assert "connecting operator" in chk["detail"]
        assert "not positive" in chk["detail"] and " s = " in chk["detail"]


def test_verify_free_problem_all_exact(tmp_path):
    cfg = config_from_dict({"problem": "free", "N": 32})
    run_synth(cfg, str(tmp_path / "free"))
    report = run_verify(str(tmp_path / "free"))
    assert report["status"] == "ok"
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["operator_identity"]["metric"] == 0.0


def _timings(outdir):
    return json.loads((outdir / "timings.json").read_text())


@pytest.mark.parametrize("N", [10, 33, 64])
def test_verify_marches_no_native_grid_it_skips(tmp_path, monkeypatch, N):
    # verify marches the Goursat kernel only for the factor route of its
    # assembly ladder, and no check reads the truth alone
    d = str(tmp_path / "d")
    run_synth(config_from_dict({"problem": "full", "N": N}), d)
    calls = []
    real = pipeline.solve_goursat

    def solve_goursat(q, K, grid):
        calls.append(grid.N)
        return real(q, K, grid)

    monkeypatch.setattr(pipeline, "solve_goursat", solve_goursat)
    report = run_verify(d, str(tmp_path / "v"))
    assert calls == {10: [10], 33: [33], 64: [16, 32, 64]}[N]
    assert [c["name"] for c in report["checks"]] == [
        "two_path_response", "three_way_connecting", "operator_identity", "gl_residual"]
    assert set(_timings(tmp_path / "v")) == {"schema_version", "command", "wall_times_s"}


@pytest.mark.parametrize("march, check, threshold", [
    ("fd_forward", "two_path_response", [1.4, 2.6]),
    ("connecting_form_from_interior", "three_way_connecting", 2e-2),
], ids=["fd_forward", "connecting_form_from_interior"])
def test_verify_instability_fails_its_check_by_name(data_dir, tmp_path, monkeypatch,
                                                   capsys, march, check, threshold):
    # a blow-up of a check's own leapfrog march fails that check by name;
    # the other checks still run, and the CLI exits 4 with the report written
    message = "leapfrog blew up at level 7"

    def blown(*args):
        raise mw.NumericalInstabilityError(message)

    monkeypatch.setattr(pipeline, march, blown)
    report = run_verify(data_dir)
    assert report["failed_checks"] == [check]
    assert next(c for c in report["checks"] if c["name"] == check) == {
        "name": check, "passed": False, "metric": float("inf"),
        "threshold": threshold, "detail": message}
    assert cli.main(["verify", "--data", data_dir, "--out", str(tmp_path / "v")]) == 4
    assert capsys.readouterr().err == f"verification failed: {check}\n"
    assert json.loads((tmp_path / "v" / "report.json").read_text())["failed_checks"] == [check]


def test_verify_passes_on_a_large_grid(tmp_path):
    d = str(tmp_path / "d")
    run_synth(config_from_dict({"problem": "full", "N": 512}), d)
    report = run_verify(d)
    assert report["status"] == "ok", report["failed_checks"]


# -------------------------------------------------------------- convergence


def test_convergence_orders(tmp_path):
    cfg = config_from_dict({"problem": "full"})
    report = run_convergence(cfg, str(tmp_path / "conv"), [16, 32, 64])
    errs = [row["error"] for row in report["rows"]]
    assert errs[0] > errs[1] > errs[2]
    assert np.isnan(report["rows"][0]["order"])
    assert report["rows"][-1]["order"] == pytest.approx(2.0, abs=0.6)
    lines = (tmp_path / "conv" / "convergence.csv").read_text().splitlines()
    assert lines[0] == "N,error,ratio,order"
    assert len(lines) == 4
    laps = json.loads((tmp_path / "conv" / "timings.json").read_text())["wall_times_s"]
    named = ("N=16", "N=32", "N=64", "artifacts")
    assert set(laps) == set(named) | {"total"}
    assert sum(laps[k] for k in named) <= laps["total"]


def test_synth_and_convergence_never_build_the_dense_w(tmp_path, monkeypatch):
    # they read the response off the march's level blocks; the factor route,
    # the one reader that stacks the blocks into a dense w, is verify's alone
    def dense(sol):
        raise AssertionError("the dense w was built")

    monkeypatch.setattr(pipeline, "connecting_kernel_from_w", dense)
    cfg = config_from_dict({"problem": "full", "N": 32})
    run_synth(cfg, str(tmp_path / "synth"))
    run_convergence(cfg, str(tmp_path / "conv"), [16, 32])


def test_convergence_frees_each_march_before_its_assembly(tmp_path, monkeypatch):
    # a rung holds the Goursat march only until its response is read: the
    # assembly and the solve run without it
    marches = []
    real_march = pipeline.solve_goursat
    real_assembly = pipeline.connecting_kernel_from_response

    def march(q, K, grid):
        sol = real_march(q, K, grid)
        marches.append(weakref.ref(sol))
        return sol

    def assemble(r, K):
        assert marches[-1]() is None, "the march is alive through the assembly"
        return real_assembly(r, K)

    monkeypatch.setattr(pipeline, "solve_goursat", march)
    monkeypatch.setattr(pipeline, "connecting_kernel_from_response", assemble)
    cfg = config_from_dict({"problem": "full"})
    run_convergence(cfg, str(tmp_path / "conv"), [16, 32])
    assert len(marches) == 2


def test_convergence_blanks_orders_at_the_roundoff_floor(tmp_path):
    # potential_only_small reaches rounding level by N = 128; its errors there
    # no longer fall and an order read off them would be negative
    cfg = config_from_dict({"problem": "potential_only_small"})
    report = run_convergence(cfg, str(tmp_path / "floor"), [32, 64, 128, 256])
    rows = report["rows"]
    assert rows[1]["order"] == pytest.approx(2.0, abs=0.1)
    assert all(np.isnan(row["order"]) for row in rows[2:])
    assert all(row["error"] < row["floor"] for row in rows[2:])
    lines = (tmp_path / "floor" / "convergence.csv").read_text().splitlines()
    orders = [float(line.split(",")[3]) for line in lines[1:]]
    assert not any(o < 0 for o in orders)


def test_convergence_needs_increasing_grids(tmp_path):
    cfg = config_from_dict({"problem": "free"})
    with pytest.raises(mw.UsageError):
        run_convergence(cfg, str(tmp_path / "c"), [64, 32])
    with pytest.raises(mw.UsageError):
        run_convergence(cfg, str(tmp_path / "c"), [32])
