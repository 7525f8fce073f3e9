"""Every demo script runs to completion against the source tree, and prints
exactly what it printed when its digest below was taken."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; a change to a demo's output must update it
STDOUT_SHA256 = {
    "order_gallery.py": "16bb1e4c7ce87080f964452b73a37f119bc92da9b9d97719d676bdfb15a6da65",
    "reduced_families.py": "d32694b8a75fcc1b51086b9e3052c5101724d3c44d7c450ee97ec1d4fe032750",
    "semigroup_tour.py": "b937291dddfb0b26f43174ce3600e23a0862011d6b09788291b8324386cdf0ed",
    "toric_vs_minors.py": "ac4c1bf761c022f44f3fa55c6ffcbfd970438fbe6bb0dacc7c80c7f8bfc307a2",
    "uniqueness_frontier.py": "9370b764d563d6889163b81172ea64d7c61082896871a8b3ebaf0452d98ef54c",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
