import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["families_tour.py", "roots_and_interlacing.py", "stability_certificates.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
