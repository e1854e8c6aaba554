"""The command-line scripts run end to end, each in its own interpreter, on
small profiles: exit status 0 and their header line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("args,header", [
    (["scripts/rho_sweep.py", "repeat-unit", "--trials", "2", "--rhos", "0", "1/20"],
     "strategy\trho\ttrials\tsuccess_rate\tinvariant_fired"),
    (["scripts/smoothness_probe.py", "tensor-small", "--samples", "200"],
     "code_len R: 16   queries Q: 12   lists r: 4"),
])
def test_script_runs(args, header):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == header
