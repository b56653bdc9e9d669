"""The fast demos run clean: exit code 0 with every warning an error.
Demos 03 and 04 are the lorenz63 and lorenz96 pipelines that the
acceptance fixtures already run, so they are left out here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FAST_DEMOS = ["01_sensor_placement_and_reconstruction.py", "02_kernel_vectors.py",
              "05_error_identity_and_bounds.py"]


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_fast_demo_runs_without_warnings(tmp_path, demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
