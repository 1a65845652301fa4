"""Self-tests of the whole-run benchmark's own machinery.

Small inputs throughout: these check the accounting and the correctness
gate, not the program's speed.
"""

from __future__ import annotations

import numpy as np

from repro.mining.engines import CountingEngine, get_engine
from repro.mining.episode import Episode, episodes_to_matrix
from repro.mining.policies import MatchPolicy
from repro.obs import Recorder

from perfbench.layers import LayerTimer, install_layers, layer_metrics
from perfbench.run import check_passes, scaled_times
from perfbench.workloads import (
    WORKLOADS,
    MineWorkload,
    StreamWorkload,
    window_counts,
)

# the check samples of the real workloads, so the self-tests show how
# strong the check is at the sizes the benchmark runs
TINY_SUBSEQ = MineWorkload(
    "tiny-subseq", "market", 4_000, MatchPolicy.SUBSEQUENCE,
    threshold=0.004, max_level=3,
    check_sample=WORKLOADS["mine-subseq"].check_sample,
)
TINY_RESET = MineWorkload(
    "tiny-reset", "uniform", 20_000, MatchPolicy.RESET,
    threshold=2 / 20_000,
    check_sample=WORKLOADS["mine-reset-paper"].check_sample,
)

TINY_STREAMS = (
    StreamWorkload("tiny-landmark", "landmark", 12, 300, MatchPolicy.SUBSEQUENCE,
                   threshold=0.02, max_level=3, path_seed=1),
    StreamWorkload("tiny-windowed", "windowed", 12, 300, MatchPolicy.EXPIRING,
                   threshold=0.02, max_level=3, window=6, horizon=1_200,
                   path_seed=2),
)


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_nested_self_times_sum_to_outer_duration():
    clock = FakeClock()
    timer = LayerTimer(clock=clock)

    def work(seconds: float) -> None:
        clock.t += seconds

    inner = timer.timed("inner", work)
    leaf = timer.timed("leaf", work)

    def middle() -> None:
        work(0.125)
        leaf(0.5)

    middle_t = timer.timed("middle", middle)

    def outer() -> None:
        work(1.0)
        inner(2.0)
        middle_t()
        work(0.25)
        inner(0.0625)

    outer_t = timer.timed("outer", outer)
    start = clock.t
    outer_t()
    total = clock.t - start
    assert timer.self_s == {
        "outer": 1.25, "inner": 2.0625, "middle": 0.125, "leaf": 0.5,
    }
    assert sum(timer.self_s.values()) == total
    assert timer.calls == {"outer": 1, "inner": 2, "middle": 1, "leaf": 1}


def test_wrappers_restore_the_original_names():
    import repro.mining.engines as engines
    import repro.streaming.store as store

    before = (engines.count_positions_trie,
              store.EpisodeStateStore.__dict__["advance"])
    with LayerTimer() as timer:
        install_layers(timer)
        assert engines.count_positions_trie is not before[0]
    assert (engines.count_positions_trie,
            store.EpisodeStateStore.__dict__["advance"]) == before


def _traced_pass(workload, seed: int):
    inputs = workload.generate(seed)
    recorder = Recorder()
    miner = workload.build(inputs, recorder=recorder)
    with LayerTimer() as timer:
        caches = install_layers(timer)
        done = workload.run_pass(miner, inputs)
    return done, layer_metrics(timer, caches, recorder)


def test_layer_self_times_fit_inside_the_pass():
    done, metrics = _traced_pass(TINY_SUBSEQ, 3)
    self_total = sum(v for k, v in metrics.items()
                     if k.endswith(".self_s"))
    assert 0 < self_total <= done.wall_s
    assert metrics["trie.count.edges"] > 0
    # level 4 is generated, then dropped by max_level=3
    assert 0 < metrics["candidates.counted_frac"] < 1


class PerturbingEngine(CountingEngine):
    """position-hop, except that level-``level`` counts are off by one:
    the largest count (a frequent episode's), or every count when
    ``every``."""

    name = "perturbing"

    def __init__(self, level: int, every: bool = False) -> None:
        self.level = level
        self.every = every

    def count(self, db, episodes, alphabet_size, policy=MatchPolicy.RESET,
              window=None, index=None):
        counts = np.array(get_engine("position-hop").count(
            db, episodes, alphabet_size, policy, window, index=index
        ))
        if np.asarray(episodes).shape[1] == self.level:
            counts[slice(None) if self.every else np.argmax(counts)] += 1
        return counts


def _failures(workload, engine, seed: int):
    inputs = workload.generate(seed)
    done = workload.run_pass(workload.build(inputs, engine=engine), inputs)
    return check_passes(workload, [done], seed)


def test_a_clean_run_passes_the_check():
    for workload in (TINY_SUBSEQ, TINY_RESET):
        assert _failures(workload, "auto", 5) == (1, 0, [])


def test_perturbed_counts_fail_the_sampled_check():
    # SUBSEQUENCE/EXPIRING recount a seeded sample per level: an error
    # in every count of a level is caught, a lone one only if sampled
    attempted, failed, problems = _failures(
        TINY_SUBSEQ, PerturbingEngine(2, every=True), 5
    )
    assert failed / attempted > 0
    assert any("level 2" in p for p in problems)


def test_one_perturbed_reset_count_fails_the_run():
    # RESET also recounts every episode by window count
    attempted, failed, problems = _failures(TINY_RESET, PerturbingEngine(3), 5)
    assert failed / attempted > 0
    assert any("level 3" in p for p in problems)


def test_window_counts_equal_the_oracle_reset_counts():
    import itertools

    alphabet, db = TINY_RESET.generate(2)
    episodes = [Episode(p) for p in itertools.permutations(range(6), 3)]
    oracle = get_engine("scalar-oracle").count(
        db, episodes_to_matrix(episodes), alphabet.size, MatchPolicy.RESET
    )
    windows = window_counts(db, 3)
    assert [windows[ep.items] for ep in episodes] == [int(c) for c in oracle]


def test_stream_passes_replay_distinct_feeds_and_each_is_checked():
    for workload in TINY_STREAMS:
        feeds = [workload.generate(4, feed=i) for i in range(2)]
        assert not all(np.array_equal(a, b) for a, b in zip(feeds[0][1], feeds[1][1]))
        assert all(np.array_equal(a, b) for a, b in
                   zip(feeds[0][1], workload.generate(4, feed=0)[1]))
        passes = [workload.run_pass(workload.build(f), f) for f in feeds]
        attempted, failed, problems = check_passes(workload, passes, 4)
        assert (attempted, failed, problems) == (24, 0, [])


def test_a_host_slowdown_cancels_in_the_scaled_times():
    from perfbench.hostspeed import REFERENCE_S, HostSpeed
    from perfbench.workloads import Pass

    def scaled(slowdown: float):
        host = HostSpeed()
        # a far-off sample, outside every operation's window
        host.stamps = [0.0, 0.5, 1.0, 1.5, 60.0]
        host.durations = [REFERENCE_S * slowdown] * 4 + [1.0]
        done = Pass(result=object(), starts=[0.2, 0.7], finish_at=1.2,
                    latencies=[0.1 * slowdown, 0.3 * slowdown],
                    finish_s=0.05 * slowdown)
        return scaled_times([done, Pass(error=RuntimeError())], host)

    ops, walls = scaled(1.0)
    assert ops == [0.1, 0.3] and walls == [0.45]
    for slowdown in (1.7, 2.5):
        assert np.allclose(scaled(slowdown)[0], ops)
        assert np.allclose(scaled(slowdown)[1], walls)


def test_work_counts_repeat_across_seeded_traced_runs(monkeypatch):
    import repro.mining.engines as engines
    from repro.mining.trie import CountCache

    # a small count cache, so a small run evicts like mine-reset-paper
    monkeypatch.setattr(engines, "CountCache", lambda: CountCache(4096))
    first = _traced_pass(TINY_RESET, 7)[1]
    second = _traced_pass(TINY_RESET, 7)[1]
    assert first["trie.cache.evictions"] > 0
    for name in ("candidates.counted_frac", "trie.cache.evictions",
                 "candidates.generated"):
        assert first[name] == second[name]
    # RESET counts by n-grams: the trie kernel and the stream layers
    # are bypassed and read zero
    for name in ("trie.count.self_s", "trie.count.edges",
                 "spanning.summary.calls", "store.advance.calls"):
        assert first[name] == 0
    tiny = (_traced_pass(TINY_SUBSEQ, 9)[1], _traced_pass(TINY_SUBSEQ, 9)[1])
    assert tiny[0]["candidates.counted_frac"] == tiny[1]["candidates.counted_frac"]


def test_every_workload_is_defined_in_benchmark_json():
    import json
    from pathlib import Path

    spec = json.loads(
        (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
    )
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    from perfbench.layers import PER_LAYER
    from perfbench.run import END_TO_END

    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
