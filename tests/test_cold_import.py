"""The CLI routes run without importing scipy; only the quadrature references load it."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import math
import sys
from pathlib import Path

import numpy as np

import rsheston as rs
import rsheston.cli as cli

tmp = Path(sys.argv[1])
set1 = Path(cli.shipped_config("set1"))
small = set1.read_text().replace("n_paths_xi = 10000", "n_paths_xi = 150")
(tmp / "set1.cfg").write_text(small)
mmh = (
    small.replace("variant = smmh_rho", "variant = mmh")
    .replace("rho = -0.8", "rho = 0.0")
    .replace("d = 1.7", "lambda_hat.1 = 1.7\nlambda_hat.2 = 2.21")
)
(tmp / "mmh.cfg").write_text(mmh)
cfg = str(tmp / "set1.cfg")
runs = [
    ["validate", cfg],
    ["solve", cfg, "--t-grid", "3", "--out", str(tmp / "ode.csv")],
    ["solve", cfg, "--t-grid", "3", "--xi-method", "mc", "--out", str(tmp / "mc.csv")],
    ["solve", str(tmp / "mmh.cfg"), "--t-grid", "3", "--out", str(tmp / "mmh.csv")],
    ["simulate", cfg, "--paths", "20", "--steps-per-year", "10", "--out", str(tmp / "sim.csv")],
    ["diagnose", cfg, "--paths", "20", "--checkpoints", "0,5", "--out", str(tmp / "diag.csv")],
]
for argv in runs:
    assert cli.main(argv) == 0, argv
assert "scipy" not in sys.modules, "a CLI route imported scipy"

path = rs.RegimePath(start=0.0, horizon=2.0, jump_times=np.array([0.5]), states=np.array([1, 2]))
val = rs.occupation_integral(path, lambda s, e: 0.5 * e, 0.0, 2.0)
assert math.isclose(val, 0.5 * 0.5 + 1.0 * 1.5, rel_tol=1e-12), val
integrand = rs.RegimeIntegrand.from_scalar(lambda s, e: 0.7, 2.0, 2)
seg = integrand.segment_integral(np.array([0.0, 0.5]), np.array([0.5, 2.0]), np.array([1, 2]))
np.testing.assert_allclose(seg, [0.35, 1.05], rtol=1e-12)
assert "scipy" in sys.modules, "the quadrature references did not use scipy"
"""


def test_cli_routes_do_not_import_scipy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    res = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True, text=True, timeout=300
    )
    assert res.returncode == 0, res.stderr
