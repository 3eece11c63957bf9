"""The digest script at two tiny configs: a run compared with itself lists
nothing, and a saved run with one flipped byte lists the line it changed."""

import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "digests.py")


def _script():
    spec = importlib.util.spec_from_file_location("digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_compare_lists_only_what_differs(tmp_path, capsys):
    digests = _script()
    configs = ["--configs", "free-N16", "full-N16"]
    assert digests.main(configs) == 0
    lines = capsys.readouterr().out.splitlines()
    # six calls per config, each with its exit code, then the files they wrote
    calls = [line for line in lines if " exit=" in line]
    assert [line.split()[0] for line in calls[:6]] == [
        "free-N16/synth", "free-N16/reconstruct", "free-N16/verify",
        "free-N16/reconstruct-without-truth", "free-N16/verify-without-truth",
        "free-N16/convergence"]
    assert len(calls) == 12
    files = [line.split()[0] for line in lines if " exit=" not in line]
    assert "full-N16/reconstruct/q_hat.csv" in files
    assert "full-N16/verify-without-truth/report.json" in files
    assert not any(name.endswith("timings.json") for name in files)

    saved = tmp_path / "saved.txt"
    saved.write_text("\n".join(lines) + "\n")
    assert digests.main(configs + ["--compare", str(saved)]) == 0
    assert capsys.readouterr().out == ""

    k = next(i for i, line in enumerate(lines)
             if line.startswith("full-N16/reconstruct/q_hat.csv "))
    flipped = list(lines)
    last = flipped[k][-1]
    flipped[k] = flipped[k][:-1] + ("0" if last != "0" else "1")
    saved.write_text("\n".join(flipped) + "\n")
    assert digests.main(configs + ["--compare", str(saved)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"- {flipped[k]}", f"+ {lines[k]}"]
