"""Command-line driver: subcommands, artifacts, exit codes.

Everything runs in-process through ``cli.main(argv)`` so the exit-code
contract (0 ok, 2 usage, 3 numerical failure, 4 verification failed) is
asserted directly; one subprocess smoke test covers the installed script.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from memwave import cli


@pytest.fixture()
def cfg_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"problem": "full", "N": 32}))
    return str(p)


@pytest.fixture()
def synth_dir(tmp_path, cfg_file):
    out = tmp_path / "data"
    assert cli.main(["synth", "--config", cfg_file, "--out", str(out)]) == 0
    return str(out)


def test_help_smoke_subprocess():
    # the child imports the same package as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "memwave.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "synth" in proc.stdout and "reconstruct" in proc.stdout


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_synth_then_reconstruct_then_verify(tmp_path, cfg_file, synth_dir, capsys):
    rec = tmp_path / "rec"
    assert cli.main(["reconstruct", "--data", synth_dir, "--out", str(rec)]) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(r"reconstruct: cond_estimate=\S+e[+-]\d\d, min_pivot=\S+e[+-]\d\d, "
                        r"interior rel error=\S+e[+-]\d\d\n", out)
    report = json.loads((rec / "report.json").read_text())
    assert report["command"] == "reconstruct"
    assert report["metrics"]["l2_rel_err"] < 5e-2

    assert cli.main(["verify", "--data", synth_dir]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_missing_config_file_exit_2(tmp_path):
    rc = cli.main(["synth", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
    assert rc == 2


def test_bad_config_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"problem": "full", "warp": 9}))
    rc = cli.main(["synth", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"noise": {"sigma": "abc"}}',
    '{"noise": {"sigma": null}}',
    '{"noise": {"sigma": NaN}}',
    '{"noise": {"seed": "x"}}',
    '{"q": {"family": "constant", "params": ["a"]}}',
    '{"noise": {"sigma": 0.001, "seed": -1}}',
    '{"N": 64.9}',
    '{"N": "64"}',
    '{"T": "2"}',
    '{"noise": {"seed": 1.5}}',
    '{"noise": {"sigma": true}}',
    '{"q": {"family": "constant", "params": [false]}}',
    '{"problem": ["full"]}',
    '{"problem": {"a": 1}}',
    pytest.param("[" * 100000, id="nested_past_the_recursion_limit"),
])
def test_malformed_config_exit_2(tmp_path, capsys, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    rc = cli.main(["synth", "--config", str(p), "--out", str(tmp_path / "o")])
    assert rc == 2
    # an object with a bad entry is a config error; the nesting is no JSON
    # the reader can hold
    expected = "error: config: " if text.startswith("{") else f"error: malformed JSON in {p}: "
    assert capsys.readouterr().err.startswith(expected)


@pytest.mark.parametrize("command, kind, message", [
    ("synth", "directory", "cannot read "),
    ("synth", "not_utf8", "malformed JSON in "),
    ("reconstruct", "directory", "cannot read "),
    ("verify", "not_utf8", "malformed CSV in "),
], ids=["config_directory", "config_not_utf8", "response_directory", "response_not_utf8"])
def test_unreadable_input_file_exit_2(tmp_path, cfg_file, synth_dir, capsys, command,
                                      kind, message):
    # the config of synth, or the response.csv of reconstruct and verify, is
    # a directory or holds a byte that is not UTF-8: a usage error, not a crash
    path = Path(cfg_file if command == "synth" else os.path.join(synth_dir, "response.csv"))
    if kind == "directory":
        path.unlink()
        path.mkdir()
    else:
        path.write_bytes(path.read_bytes().replace(b",", b",\xff", 1))
    where = ["--config", cfg_file] if command == "synth" else ["--data", synth_dir]
    rc = cli.main([command, *where, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {message}{path}") and "Traceback" not in err


@pytest.mark.parametrize("command", ["synth", "reconstruct", "verify", "convergence"])
def test_output_path_naming_a_file_exit_2(tmp_path, cfg_file, synth_dir, capsys, command):
    # --out names an existing file, not a directory: a usage error, not a
    # crash, and the file keeps its bytes
    out = tmp_path / "taken"
    out.write_bytes(b"a file\n")
    where = {"synth": ["--config", cfg_file], "reconstruct": ["--data", synth_dir],
             "verify": ["--data", synth_dir],
             "convergence": ["--config", cfg_file, "--grids", "16,32"]}[command]
    rc = cli.main([command, *where, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: cannot write {out}{os.sep}") and "Traceback" not in err
    assert out.read_bytes() == b"a file\n"


def test_negative_seed_flag_exit_2(tmp_path, cfg_file, capsys):
    rc = cli.main(["synth", "--config", cfg_file, "--out", str(tmp_path / "o"),
                   "--seed", "-1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: config: noise.seed must be >= 0")


def test_numerical_failure_exit_3(tmp_path, synth_dir, capsys):
    broken = tmp_path / "broken"
    shutil.copytree(synth_dir, broken)
    lines = (broken / "response.csv").read_text().splitlines()
    t, _ = lines[33].split(",")
    lines[33] = f"{t},1e308"
    (broken / "response.csv").write_text("\n".join(lines) + "\n")
    rc = cli.main(["reconstruct", "--data", str(broken), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_non_positive_operator_exit_3(tmp_path, synth_dir, capsys):
    scaled = tmp_path / "scaled"
    shutil.copytree(synth_dir, scaled)
    lines = (scaled / "response.csv").read_text().splitlines()
    for k in range(1, len(lines)):
        t, r = lines[k].split(",")
        lines[k] = f"{t},{float(r) * 10.0!r}"
    (scaled / "response.csv").write_text("\n".join(lines) + "\n")
    rc = cli.main(["reconstruct", "--data", str(scaled), "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "not positive" in err


def test_kernel_march_blow_up_exit_3(tmp_path, capsys):
    # a potential so large that the Goursat march of synth overflows at its
    # first off-diagonal node: a numerical failure, and no output directory
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"q": {"family": "constant", "params": [1e300]}, "N": 16}))
    out = tmp_path / "o"
    assert cli.main(["synth", "--config", str(p), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: kernel march blew up at grid node (i=1, j=2)\n")
    assert not out.exists()


def test_verification_failure_exit_4(tmp_path, synth_dir, capsys):
    bad = tmp_path / "bad"
    shutil.copytree(synth_dir, bad)
    lines = (bad / "response.csv").read_text().splitlines()
    t, _ = lines[33].split(",")
    lines[33] = f"{t},1e3"
    (bad / "response.csv").write_text("\n".join(lines) + "\n")
    rc = cli.main(["verify", "--data", str(bad)])
    assert rc == 4
    captured = capsys.readouterr()
    assert "verification failed:" in captured.err
    assert "FAIL" in captured.out


def _strict_json(path):
    """The JSON file at ``path``, refusing the bare NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"{path}: non-standard JSON token {token}")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


# a warning raises, so that no numpy warning can precede the named failure
@pytest.mark.filterwarnings("error")
def test_overflowing_kernel_fails_verify_4_and_reconstruct_3(tmp_path, capsys):
    # a finite response whose connecting kernel overflows: verify fails the
    # checks that read the kernel by name, reconstruct is a numerical failure
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "full", "N": 64}))
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    lines = (data / "response.csv").read_text().splitlines()
    for k in range(1, len(lines)):
        t, _ = lines[k].split(",")
        if float(t) > 0:
            lines[k] = f"{t},1e308"
    (data / "response.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["verify", "--data", str(data), "--out", str(tmp_path / "v")]) == 4
    assert capsys.readouterr().err == (
        "verification failed: two_path_response, three_way_connecting, "
        "operator_identity, gl_residual\n")
    # the broken checks' infinite metrics and the two-path NaN are nulls
    checks = {c["name"]: c for c in _strict_json(tmp_path / "v" / "report.json")["checks"]}
    assert checks["two_path_response"]["metric"] is None
    assert checks["gl_residual"]["metric"] is None
    rc = cli.main(["reconstruct", "--data", str(data), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: connecting kernel has a non-finite entry at (t, s) = ")


def test_under_resolved_strong_potential_names_the_grid(tmp_path, capsys):
    # clean data of a potential 100 times the catalogue's: at N = 64 the
    # march under-resolves them and the operator loses positivity near
    # s = T, so reconstruct exits 3 naming the depth and a finer grid, at
    # which the same problem solves
    def reconstruct(n):
        cfg = tmp_path / f"cfg{n}.json"
        cfg.write_text(json.dumps({
            "N": n, "q": {"family": "gaussian_bump", "params": [0.5, 0.1, 100]},
            "K": {"family": "exp_decay", "params": [1, 1]}}))
        data = tmp_path / f"data{n}"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
        capsys.readouterr()
        rc = cli.main(["reconstruct", "--data", str(data), "--out", str(tmp_path / f"o{n}")])
        return rc, capsys.readouterr().err

    rc, err = reconstruct(64)
    assert rc == 3
    assert err.startswith("numerical failure: connecting operator I + D^1/2 C D^1/2 is not "
                          "positive: its leading block first fails at depth s = 0.953125; "
                          "node 61 of N = 64.")
    assert err.endswith("a grid this coarse under-resolves them: try a finer grid, N = 128\n")
    assert reconstruct(128) == (0, "")


@pytest.mark.filterwarnings("error")
def test_unfit_truth_fails_verify_4_by_name(tmp_path, capsys):
    # a truth so far from the response that its own marches blow up fails
    # the two checks that march it, by name; the checks of the data alone
    # still run and pass
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": "full", "N": 64}))
    data = tmp_path / "data"
    assert cli.main(["synth", "--config", str(cfg), "--out", str(data)]) == 0
    lines = (data / "truth_q.csv").read_text().splitlines()
    for k in range(1, len(lines)):
        x, _ = lines[k].split(",")
        lines[k] = f"{x},1e12"
    (data / "truth_q.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    for out in ([], ["--out", str(tmp_path / "v")]):
        assert cli.main(["verify", "--data", str(data)] + out) == 4
        captured = capsys.readouterr()
        assert captured.err == (
            "verification failed: two_path_response, three_way_connecting\n")
        assert "PASS operator_identity" in captured.out
        assert "PASS gl_residual" in captured.out
    checks = {c["name"]: c for c in _strict_json(tmp_path / "v" / "report.json")["checks"]}
    assert checks["two_path_response"]["detail"].startswith("leapfrog march blew up")
    assert checks["three_way_connecting"]["detail"].startswith("kernel march blew up")
    assert checks["two_path_response"]["metric"] is None


def test_convergence_command(tmp_path, cfg_file, capsys):
    out = tmp_path / "conv"
    rc = cli.main(["convergence", "--config", cfg_file, "--out", str(out),
                   "--grids", "16,32"])
    assert rc == 0
    assert (out / "convergence.csv").exists()
    assert "N=   32" in capsys.readouterr().out
    # the first row has no ratio and no order: null, not a bare NaN
    rows = _strict_json(out / "report.json")["rows"]
    assert rows[0]["ratio"] is None and rows[0]["order"] is None
    assert rows[1]["order"] > 0


def test_convergence_bad_grids_exit_2(tmp_path, cfg_file):
    rc = cli.main(["convergence", "--config", cfg_file,
                   "--out", str(tmp_path / "c"), "--grids", "a,b"])
    assert rc == 2


def test_reconstruction_path_option_is_gone_exit_2(tmp_path, cfg_file, synth_dir):
    # one route to c_T: neither a --path flag nor a "path" config key exists
    for argv in (
        ["reconstruct", "--data", synth_dir, "--out", str(tmp_path / "r")],
        ["convergence", "--config", cfg_file, "--out", str(tmp_path / "c"),
         "--grids", "16,32"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--path", "w_oracle"])
        assert exc.value.code == 2
    p = tmp_path / "path.json"
    p.write_text(json.dumps({"problem": "full", "N": 32, "path": "w_oracle"}))
    assert cli.main(["synth", "--config", str(p), "--out", str(tmp_path / "s")]) == 2


def test_synth_seed_flag(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(
        {"problem": "classical", "N": 16, "noise": {"sigma": 1e-3, "seed": 1}}
    ))
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert cli.main(["synth", "--config", str(p), "--out", str(a)]) == 0
    assert cli.main(["synth", "--config", str(p), "--out", str(b), "--seed", "1"]) == 0
    assert cli.main(["synth", "--config", str(p), "--out", str(c), "--seed", "2"]) == 0
    assert (a / "response.csv").read_bytes() == (b / "response.csv").read_bytes()
    assert (a / "response.csv").read_bytes() != (c / "response.csv").read_bytes()
    # truth and kernel files carry no noise at all
    assert (a / "truth_q.csv").read_bytes() == (c / "truth_q.csv").read_bytes()
