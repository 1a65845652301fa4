"""Whole-run mining benchmark: one workload, one seed, one process.

Run from the repository root::

    python3 perfbench/run.py --workload mine-subseq --seed 1 --seconds 15 --trace 0

``--trace 0`` makes a warm-up pass, then untraced passes for
``--seconds``, and reports the end-to-end metrics scaled to a reference
host speed (``perfbench/hostspeed.py``); ``--trace 1`` runs a traced
pass (layer wrappers plus a :class:`repro.obs.Recorder`) between two
untraced ones and,
where the trie kernel runs, one tracemalloc pass, and reports the
per-layer metrics (``perfbench/report.py`` tabulates them for every
workload).  Every pass is checked against the ``scalar-oracle`` engine
outside the timed region.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is non-zero when any operation failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
#: fresh-process set-ups per run; setup_s is their median
SETUP_PROBES = 5
#: host reference samples taken on each side of a set-up
PROBE_BURST = 20

END_TO_END = {
    "wall_s": "s",
    "chunk_p50_ms": "ms",
    "chunk_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _import_program() -> None:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no program source at {ROOT / 'src'}")
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _monotonic() -> float:
    # system-wide, so a child's reading compares with its parent's
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup_seconds(workload: str, seed: int, host) -> float:
    """Median time from launching a fresh interpreter until it has
    imported the program, generated the inputs and constructed the
    miner, scaled to the reference host speed like the other times.
    The child reports when it got there: the wait for its exit polls
    once a timeout is set, which would round the figure to tens of
    milliseconds."""
    samples = []
    for _ in range(SETUP_PROBES):
        host.probe(PROBE_BURST)
        start = time.perf_counter()
        t0 = _monotonic()
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, timeout=120, capture_output=True, text=True,
        )
        took = float(probe.stdout.split()[-1]) - t0
        host.probe(PROBE_BURST)
        samples.append(took * host.scale(start, start + took))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_passes(workload, passes, seed: int) -> "tuple[int, int, list[str]]":
    """``(attempted, failed, problems)`` over a run's passes.

    The first completed pass on each input is verified against the
    oracle; every other pass on that input must reproduce it exactly.
    A pass whose result is wrong fails all of its operations; a raising
    operation fails itself.
    """
    from perfbench.workloads import verify

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.error is not None for p in passes)
    problems = [f"raised: {p.error!r}" for p in passes if p.error is not None]
    verified: "dict[int, tuple]" = {}
    for p in passes:
        if p.result is None:
            continue
        if id(p.inputs) not in verified:
            found = verify(p.result, workload.reference(p.inputs),
                           p.inputs[0].size, workload, seed)
            problems += found
            verified[id(p.inputs)] = (p.result.levels, found)
        levels, found = verified[id(p.inputs)]
        if found or p.result.levels != levels:
            failed += len(p.latencies)
    return attempted, failed, problems


def plain_pass(workload, inputs, between=None):
    """One pass with a fresh miner, freed before it returns."""
    miner = workload.build(inputs)
    gc.collect()
    return workload.run_pass(miner, inputs, between=between)


def untraced_run(workload, seed: int, seconds: float):
    """One warm-up pass, then timed passes until ``seconds`` have been
    measured, and at least ``workload.min_passes``; returns the warm-up
    pass, the timed passes, ``ru_maxrss`` (MB) after the warm-up and
    the run's :class:`~perfbench.hostspeed.HostSpeed`.

    The warm-up pays for lazy set-up and first-touch page faults, which
    a long-running miner pays once; it is checked but not timed.  Batch
    passes re-mine one database; stream passes replay a new feed each,
    drawn from the seed and the pass index.  The host reference is
    sampled between timed operations, as the workload sets.  The peak
    is read after the warm-up, the peak of mining one input, because
    the results kept for the checks grow with the number of passes a
    host fits into ``seconds``.
    """
    from perfbench.hostspeed import HostSpeed

    inputs = workload.generate(seed)
    warmup = plain_pass(workload, inputs)
    rss = peak_rss_mb()
    host = HostSpeed()
    passes: list = []

    def probe() -> None:
        host.probe(workload.reference_samples, workload.reference_gap_s)

    start = time.perf_counter()
    while warmup.error is None and (
        len(passes) < workload.min_passes
        or time.perf_counter() - start < seconds
    ):
        if workload.feed_per_pass:
            inputs = workload.generate(seed, feed=len(passes) + 1)
        passes.append(plain_pass(workload, inputs, between=probe))
        if passes[-1].error is not None:
            break
    return warmup, passes, rss, host


def scaled_times(passes, host) -> "tuple[list[float], list[float]]":
    """Every operation's latency and every pass's wall time over the
    completed passes, scaled to the reference host speed."""
    ops: "list[float]" = []
    walls: "list[float]" = []
    for p in passes:
        if p.result is None:
            continue
        scaled = [lat * host.scale(t, t + lat)
                  for t, lat in zip(p.starts, p.latencies)]
        finish = p.finish_s and p.finish_s * host.scale(
            p.finish_at, p.finish_at + p.finish_s)
        ops += scaled
        walls.append(sum(scaled) + finish)
    return ops or [0.0], walls or [0.0]


def end_to_end(workload, seed: int, seconds: float):
    warmup, passes, rss, host = untraced_run(workload, seed, seconds)
    ops, walls = scaled_times(passes, host)
    metrics = {
        "wall_s": statistics.median(walls),
        "chunk_p50_ms": float(np.percentile(ops, 50)) * 1e3,
        "chunk_p90_ms": float(np.percentile(ops, 90)) * 1e3,
        "peak_rss_mb": rss,
        "setup_s": setup_seconds(workload.name, seed, host),
    }
    raw = [t for p in passes for t in p.latencies] or [0.0]
    print(f"{workload.name} raw:"
          f" wall_s {statistics.median([p.wall_s for p in passes] or [0.0]):.6g}"
          f" chunk_p50_ms {np.percentile(raw, 50) * 1e3:.6g}"
          f" chunk_p90_ms {np.percentile(raw, 90) * 1e3:.6g}"
          f" reference_ms {statistics.median(host.durations or [0.0]) * 1e3:.6g}")
    return [warmup, *passes], {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def traced(workload, seed: int):
    """A traced pass bracketed by two untraced ones, then (trie kernel
    only) a tracemalloc pass; returns ``(passes, per-layer metrics)``.
    The bracket makes the tracing overhead robust to a
    host that speeds up or slows down during the run."""
    from repro.obs import Recorder
    from repro.streaming import StreamingMiner

    from perfbench.layers import (
        PER_LAYER,
        LayerTimer,
        install_layers,
        kernel_peak_alloc_mb,
        layer_metrics,
    )

    gen = []
    for _ in range(3):
        t0 = time.perf_counter()
        inputs = workload.generate(seed)
        gen.append(time.perf_counter() - t0)
    before = plain_pass(workload, inputs)
    recorder = Recorder()
    miner = workload.build(inputs, recorder=recorder)
    gc.collect()
    with LayerTimer() as timer:
        caches = install_layers(timer)
        traced_pass = workload.run_pass(miner, inputs)
    tracked = miner.n_tracked if isinstance(miner, StreamingMiner) else 0
    del miner
    after = plain_pass(workload, inputs)
    metrics = layer_metrics(timer, caches, recorder)
    passes = [before, traced_pass, after]
    metrics["data.generate_s"] = statistics.median(gen)
    metrics["store.tracked"] = float(tracked)
    if timer.calls.get("trie.count"):
        miner = workload.build(inputs)
        gc.collect()
        alloc_pass, metrics["trie.count.peak_alloc_mb"] = kernel_peak_alloc_mb(
            lambda: workload.run_pass(miner, inputs)
        )
        passes.append(alloc_pass)
    if all(p.result is not None for p in (before, traced_pass, after)):
        plain_s = (before.wall_s + after.wall_s) / 2
        metrics["obs.trace_overhead_pct"] = (
            (traced_pass.wall_s - plain_s) / plain_s * 100.0
        )
    return passes, {
        k: {"value": metrics[k], "unit": PER_LAYER[k]} for k in PER_LAYER
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    from repro.mining.calibration import set_active_profile

    from perfbench.workloads import WORKLOADS

    # engine auto on its built-in constants: a per-host calibration
    # file left in the checkout must not move dispatch between runs
    set_active_profile(None)

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.build(workload.generate(args.seed))
        print(_monotonic())
        return 0
    if args.trace:
        passes, metrics = traced(workload, args.seed)
    else:
        passes, metrics = end_to_end(workload, args.seed, args.seconds)
    attempted, failed, problems = check_passes(workload, passes, args.seed)
    for problem in problems[:20]:
        print(f"MISMATCH {args.workload}: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate = {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
