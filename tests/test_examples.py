"""The shipped examples run end to end as scripts."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_market_basket_example_runs():
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / "market_basket.py")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    # the miner drove the gpu-sim engine: launches and kernel time reported
    assert "simulated GPU kernel time across 3 counting launches" in done.stdout
