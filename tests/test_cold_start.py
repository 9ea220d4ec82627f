"""The library path loads numpy only.

``import tvbound`` and every solve, certificate check, extraction and
density TV oracle run without scipy; only the CLI imports it.  A fresh
interpreter shows what a cold start pays for, whatever this test process
has already imported.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# one Gaussian level, one atomic level with its Hahn-Jordan extraction and
# one certify level with its certificate check; the density oracle on
# N(0, .5^2) against N(1, .5^2); then the scipy modules loaded so far
_PROBE = """
import json
import sys

from tvbound import (Atomic, Gaussian, HierarchySettings, SolveStatus,
                     exact_tv_univariate_density, moments, recover_hahn_jordan,
                     solve_level, verify_certificate)


def level(mu, nu, n, settings=None):
    m_mu, m_nu = moments(mu, 1, 2 * n), moments(nu, 1, 2 * n)
    res = solve_level(m_mu, m_nu, n, settings)
    assert res.solve.status == SolveStatus.OPTIMAL, res.solve.status
    return res, m_mu, m_nu


level(Gaussian(0.0, 0.5), Gaussian(1.0, 0.5), 3)
res, _, _ = level(Atomic.univariate([-1.0, 1.0], [0.6, 0.4]),
                  Atomic.univariate([-1.0, 0.2, 1.3], [0.3, 0.4, 0.3]), 4)
recover_hahn_jordan(res)
res, m_mu, m_nu = level(Gaussian(0.0, 0.5), Gaussian(1.0, 0.5), 2,
                        HierarchySettings(certify=True))
verify_certificate(res.certificate, m_mu, m_nu)
tv = exact_tv_univariate_density(Gaussian(0.0, 0.5), Gaussian(1.0, 0.5))
scipy_modules = sorted(name for name in sys.modules if name.startswith("scipy"))
print(json.dumps({"scipy_modules": scipy_modules, "tv": tv}))
"""


def test_library_path_imports_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["scipy_modules"] == []
    # 2 (2 Phi(1) - 1) = 2 erf(1 / sqrt 2): the two means lie two standard
    # deviations apart, and the densities cross halfway
    assert abs(report["tv"] - 2.0 * math.erf(1.0 / math.sqrt(2.0))) <= 1e-14
