"""Smoke test of the demo scripts: each runs to completion in a fresh
directory and writes exactly the files it announces."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"

WRITES = {
    "brinkman_coupling.py": [
        *(f"brinkman_normal_mu{mu}.vtk" for mu in ("1", "0.01", "0.001", "1e-06")),
        *(f"brinkman_tangential_mu{mu}_profile.csv"
          for mu in ("10", "1", "0.1", "0.01")),
    ],
    "cooks_locking.py": ["cooks_tips.csv", "cooks_solution.vtk"],
    "darcy_superconvergence.py": ["darcy_convergence.csv"],
    "element_tour.py": [],
    "nitsche_boundaries.py": [],
    "stokes_convergence.py": ["stokes_convergence.csv"],
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(WRITES)


@pytest.mark.parametrize("script", sorted(WRITES))
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(DEMOS / script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(WRITES[script])
    for name in WRITES[script]:
        assert (tmp_path / name).stat().st_size > 0
