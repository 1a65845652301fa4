"""Traced-run report: every per-layer metric, for every workload.

Run from the repository root::

    python3 perfbench/report.py --seed 1

Each workload's traced run (``run.py --trace 1``) executes in its own
fresh process, one at a time.  The table lists every per-layer metric
by name and unit, with zeros for layers a workload does not call, and
ends with the bypass check: every metric of a layer a workload is
predicted to skip (``BYPASSED`` in ``perfbench/workloads.py``, metric
name prefixes) must read zero.  Exits
non-zero if a run fails its correctness check or a prediction fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]

from perfbench.layers import PER_LAYER  # noqa: E402
from perfbench.workloads import BYPASSED, WORKLOADS  # noqa: E402


def traced_metrics(workload: str, seed: int) -> "tuple[dict, bool]":
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode not in (0, 1):
        sys.exit(f"{workload}: traced run failed\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line["metrics"], line["correct"]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = list(WORKLOADS)
    results = {}
    ok = True
    for name in names:
        results[name], correct = traced_metrics(name, args.seed)
        ok &= correct
    width = max(len(n) for n in PER_LAYER) + 8
    print(f"{'metric [unit]':<{width}}" + "".join(f"{n:>18}" for n in names))
    for metric, unit in PER_LAYER.items():
        row = "".join(f"{results[n][metric]['value']:>18.6g}" for n in names)
        print(f"{metric + ' [' + unit + ']':<{width}}{row}")
    print("\nbypass predictions (layers that must read zero):")
    for name in names:
        for layer in BYPASSED[name]:
            nonzero = sorted(
                m for m in PER_LAYER
                if m.startswith(layer) and results[name][m]["value"]
            )
            ok &= not nonzero
            verdict = "ok" if not nonzero else "CALLED: " + ", ".join(nonzero)
            print(f"  {name:<18} {layer:<20} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
