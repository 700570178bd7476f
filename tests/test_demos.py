"""The demos run to completion, each in a fresh one-thread process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def demo_env(tmp):
    """This checkout's package first on the path, the running interpreter
    first as ``python3``, one BLAS thread, temporary files under ``tmp``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               TMPDIR=str(tmp))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PATH"] = os.pathsep.join(
        [str(Path(sys.executable).parent)] + [p for p in [env.get("PATH")] if p])
    return env


@pytest.mark.parametrize("demo", ["simulated_recovery.py",
                                  "vca_init_and_maps.py",
                                  "cli_session.sh"])
def test_demo_exits_zero(demo, tmp_path):
    path = DEMOS / demo
    cmd = ["bash", str(path)] if demo.endswith(".sh") else [sys.executable, str(path)]
    proc = subprocess.run(cmd, cwd=tmp_path, env=demo_env(tmp_path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
