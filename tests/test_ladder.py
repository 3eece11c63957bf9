"""Smoke test of the per-layer ladder script at two small rungs."""

import json
import os
import subprocess
import sys

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "ladder.py")

LAYERS = {
    "goursat.solve_goursat", "goursat.response_kernel",
    "connecting.from_response", "connecting.from_response.impulse_response",
    "connecting.from_response.adjoint_weights",
    "connecting.from_response.galerkin_products",
    "connecting.from_response.asymmetry",
    "connecting.from_response.kernel_from_galerkin",
    "gelfand_levitan.solve_gl", "gelfand_levitan.solve_gl.inverse_cholesky",
    "gelfand_levitan.solve_gl.kappa_gram",
    "gelfand_levitan.recover_potential", "gelfand_levitan.gl_residual",
    "gelfand_levitan.operator_identity", "artifacts.write_csv.cT",
    "forward.fd_forward", "forward.fd_forward.trace",
}


def test_ladder_writes_its_schema(tmp_path):
    out = tmp_path / "ladder.json"
    subprocess.run([sys.executable, SCRIPT, "--grids", "16", "32", "--out", str(out)],
                   check=True, capture_output=True, timeout=120)
    with open(out) as fh:
        d = json.load(fh)
    assert d["schema"] == 2 and d["problem"] == "full" and d["grids"] == [16, 32]
    assert d["repeats"] == 3 and d["maxrss_mib"] > 0.0 and d["total_s"] > 0.0
    # each rung's reconstruct ran in its own process, which loads numpy
    rss = d["reconstruct_maxrss_mib"]
    assert len(rss) == 2 and all(10.0 < m < 200.0 for m in rss)
    assert set(d["layers"]) == LAYERS
    for name, layer in d["layers"].items():
        assert set(layer) == {"seconds", "peak_mib", "peak_full_arrays",
                              "growth_exp", "peak_growth_exp"}, name
        assert len(layer["seconds"]) == len(layer["peak_mib"]) == 2, name
        assert all(t > 0.0 for t in layer["seconds"]), name
        assert all(p >= 0.0 for p in layer["peak_mib"]), name
        assert isinstance(layer["growth_exp"], float), name
    host = d["host"]
    assert {"nproc", "usable_cpus", "cpu", "python", "numpy", "blas"} <= set(host)
    assert set(host["threads"].values()) == {"1"}
    # the assembly's traced peak is its own, not the rung's
    assert 0.0 < d["layers"]["connecting.from_response"]["peak_mib"][1] < 1.0
