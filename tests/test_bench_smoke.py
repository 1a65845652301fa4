"""Tier-1 bench-smoke: engine throughput vs the committed trajectory.

A scaled-down engine benchmark runs inside the tier-1 suite and is
compared against the committed ``benchmarks/BENCH_engines.json``.
Checksum mismatches (counting bugs) fail hard, and so does the
streaming incremental-vs-recount floor — both runs are timed moments
apart in this process, so an incremental carry losing to the naive
recount is a genuine pessimization on *this* machine, not hardware
variance.  Other throughput regressions only *warn* — absolute
ops/sec are hardware-dependent, so the blocking gate is the standalone
``benchmarks/check_regression.py`` run on reference hardware.
"""

import json
import sys
import warnings
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).parent.parent / "benchmarks"
REFERENCE = BENCHMARKS / "BENCH_engines.json"
if str(BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS))


@pytest.mark.bench_smoke
def test_engine_throughput_no_regression():
    if not REFERENCE.exists():
        pytest.skip("no committed BENCH_engines.json to compare against")
    import bench_engines
    import check_regression

    reference = json.loads(REFERENCE.read_text())
    fresh = bench_engines.run_bench(
        sizes=(10_000,), engines=("vector-sweep", "position-hop", "gpu-sim"),
        # a scaled-down streaming feed: its incremental-vs-recount
        # checksum equality AND speedup floor are within-process and
        # gated hard below; the smaller total_events never matches
        # reference cells, so the cross-machine throughput comparison
        # stays out of tier-1
        # best-of-2 timings per mode keep the hard incremental>=recount
        # floor off the noise floor (a GC pause or scheduler stall in
        # one 5 ms RESET run must not read as a pessimization)
        streaming=dict(n_chunks=6, chunk_events=2000, repeats=2),
        # a scaled-down telemetry workload: the overhead ceilings are
        # relative and within-process, so they gate hard at any size
        # (the absolute-jitter slack in check_telemetry absorbs noise)
        telemetry=dict(n=20_000, n_episodes=200, repeats=3),
    )
    problems = check_regression.compare(reference, fresh)
    problems += check_regression.check_invariants(fresh, min_speedup=2.0)
    # no-ops for the engine subset above (no sharded/auto-calibration
    # series), but keeps the wiring uniform with the standalone gate
    problems += check_regression.check_sharded_scaling(fresh)
    problems += check_regression.check_auto_calibration(fresh)
    problems += check_regression.check_streaming(reference, fresh)
    problems += check_regression.check_telemetry(fresh)
    # the simulated series is deterministic, so its checksum/timing gate
    # is exact even inside tier-1 (timing drift counts as correctness:
    # it means the analytic model changed without a snapshot regen)
    gpu_sim = check_regression.check_gpu_sim(reference, fresh)
    problems += [f"checksum-grade: {p}" for p in gpu_sim]
    def _hard(p: str) -> bool:
        # counting bugs, plus the streaming floor: incremental losing to
        # the per-chunk recount (or the floor going unchecked) is a
        # within-process contract violation, not hardware variance
        # telemetry overhead is likewise within-process: the NullRecorder
        # getting expensive is an observability-layer bug, not variance
        return (
            "checksum" in p
            or "per-chunk recount" in p
            or "speedup_vs_recount" in p
            or "telemetry_overhead" in p
        )

    correctness = [p for p in problems if _hard(p)]
    throughput = [p for p in problems if not _hard(p)]
    assert not correctness, correctness  # counts changed: a real bug
    for message in throughput:  # perf is advisory inside tier-1
        warnings.warn(f"engine throughput regression: {message}", stacklevel=1)
