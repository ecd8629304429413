"""Smoke test: the fast examples run to completion.

Each example asserts its own results (reference agreement, physics), so
a zero exit status is the check.  ``generate_cuda`` (writes into
``examples/``) and the slow ``paper_figures`` / ``convergence_study``
are left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "name",
    [
        "quickstart",
        "custom_kernel_lowrank",
        "heat_diffusion_2d",
        "wave_propagation_3d",
        "multi_gpu_scaling",
    ],
)
def test_example_runs(name):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
