"""The benchmark's workloads: seeded inputs, one timed pass, and the
independent correctness check.

A *pass* drives a public mining entry point end to end: one
``FrequentEpisodeMiner.mine`` call (batch workloads), or a fresh
``StreamingMiner`` fed every chunk closed-loop by one caller (stream
workloads).  An *operation* is one ``mine()`` call or one chunk
``update``; the pass records each operation's latency.

Inputs come from the seed alone and the miner only ever sees arrays
and chunks.  Stream workloads drift along a fixed per-workload random
walk of symbol weights; the seed relabels the symbols and draws the
events, so every seed loads the miner alike while no two seeds share an
input.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.data.market import MarketConfig, generate_market_stream
from repro.data.synthetic import PAPER_DB_LENGTH, random_database
from repro.mining.alphabet import UPPERCASE, Alphabet
from repro.mining.engines import get_engine
from repro.mining.episode import Episode, episodes_to_matrix
from repro.mining.miner import FrequentEpisodeMiner, MiningResult
from repro.mining.policies import MatchPolicy
from repro.streaming import StreamingMiner

__all__ = [
    "BYPASSED",
    "MineWorkload",
    "Pass",
    "StreamWorkload",
    "WORKLOADS",
    "verify",
    "window_counts",
]

#: the independent engine every result is checked against
ORACLE = "scalar-oracle"
#: stream feeds: alphabet size, and the per-chunk step of the log-weight
#: random walk (as in ``repro.data.synthetic.stream_chunks``)
STREAM_SYMBOLS = 7
STREAM_DRIFT = 0.15
#: updates a stream run pools at least, so that ten or more latencies
#: lie beyond ``chunk_p90_ms``
MIN_CHUNKS = 100
#: products of the market stream (``repro mine`` uses 12): with 10, a
#: pass takes about 2 s instead of 9, so a run holds several
MARKET_PRODUCTS = 10


@dataclass
class Pass:
    """One timed pass: per-operation latencies and the final result."""

    #: the ``(alphabet, events)`` the pass mined
    inputs: object = None
    wall_s: float = 0.0
    latencies: "list[float]" = field(default_factory=list)
    #: ``perf_counter`` reading at the start of each operation
    starts: "list[float]" = field(default_factory=list)
    #: time of ``StreamingMiner.result()`` after the last update, and
    #: when it started
    finish_s: float = 0.0
    finish_at: float = 0.0
    result: "MiningResult | None" = None
    error: "BaseException | None" = None

    @property
    def attempted(self) -> int:
        return len(self.latencies) + (self.error is not None)


@dataclass(frozen=True)
class MineWorkload:
    """``FrequentEpisodeMiner.mine`` over one in-memory database."""

    #: every pass of a run re-mines the one database: its cost barely
    #: depends on the draw, and its oracle check is the costly part
    feed_per_pass = False
    min_passes = 1
    #: host reference samples per gap between operations, and the least
    #: time between samples: a burst every gap, as gaps are seconds apart
    reference_samples = 20
    reference_gap_s = 0.0

    name: str
    source: str  # "market" (the `repro mine` stream) or "uniform"
    n_events: int
    policy: MatchPolicy
    threshold: float
    max_level: int = 4
    #: oracle-checked episodes per level and kind (frequent/infrequent)
    check_sample: int = 8

    def generate(self, seed: int) -> "tuple[Alphabet, np.ndarray]":
        if self.source == "market":
            config = MarketConfig(
                n_products=MARKET_PRODUCTS,
                n_events=self.n_events,
                rules=(((0, 1, 2), 0.05), ((3, 4), 0.06)),
                seed=seed,
            )
            return config.alphabet(), generate_market_stream(config)
        return UPPERCASE, random_database(self.n_events, UPPERCASE, seed=seed)

    def build(self, inputs, engine="auto", recorder=None) -> FrequentEpisodeMiner:
        return FrequentEpisodeMiner(
            inputs[0], self.threshold, policy=self.policy, engine=engine,
            max_level=self.max_level, recorder=recorder,
        )

    def run_pass(self, miner: FrequentEpisodeMiner, inputs, between=None) -> Pass:
        """``between()``, if given, runs untimed before and after the
        operation."""
        out = Pass(inputs=inputs)
        if between is not None:
            between()
        t0 = time.perf_counter()
        try:
            out.result = miner.mine(inputs[1])
        except Exception as exc:  # a raising call is a failed operation
            out.error = exc
            return out
        out.wall_s = time.perf_counter() - t0
        out.starts.append(t0)
        out.latencies.append(out.wall_s)
        if between is not None:
            between()
        return out

    def reference(self, inputs) -> np.ndarray:
        """The database a correct result describes."""
        return inputs[1]


@dataclass(frozen=True)
class StreamWorkload:
    """A ``StreamingMiner`` fed a drifting synthetic feed chunk by chunk."""

    #: each pass of a run replays its own feed: which chunks carry the
    #: tail depends on the draw, so pooling feeds steadies the tail
    feed_per_pass = True
    #: one sample every tenth of a second or so, between updates
    reference_samples = 1
    reference_gap_s = 0.1

    name: str
    mode: str
    n_chunks: int
    chunk_size: int
    policy: MatchPolicy
    threshold: float
    max_level: int = 4
    window: "int | None" = None
    horizon: "int | None" = None
    #: seed of the workload's fixed symbol-weight random walk
    path_seed: int = 0
    check_sample: int = 8

    @property
    def min_passes(self) -> int:
        return -(-MIN_CHUNKS // self.n_chunks)

    def generate(
        self, seed: int, feed: int = 0
    ) -> "tuple[Alphabet, list[np.ndarray]]":
        alphabet = Alphabet.of_size(STREAM_SYMBOLS)
        walk = np.random.default_rng(self.path_seed)
        rng = np.random.default_rng([seed, feed])
        relabel = rng.permutation(STREAM_SYMBOLS)
        log_weights = np.zeros(STREAM_SYMBOLS)
        chunks = []
        for _ in range(self.n_chunks):
            log_weights += walk.normal(0.0, STREAM_DRIFT, STREAM_SYMBOLS)
            weights = np.exp(log_weights - log_weights.max())[relabel]
            chunks.append(random_database(
                self.chunk_size, alphabet, seed=rng, weights=weights
            ))
        return alphabet, chunks

    def build(self, inputs, engine="auto", recorder=None) -> StreamingMiner:
        return StreamingMiner(
            inputs[0], self.threshold, policy=self.policy, window=self.window,
            engine=engine, mode=self.mode, horizon=self.horizon,
            max_level=self.max_level, recorder=recorder,
        )

    def run_pass(self, miner: StreamingMiner, inputs, between=None) -> Pass:
        """``between()``, if given, runs untimed before each update and
        after the result."""
        out = Pass(inputs=inputs)
        clock = time.perf_counter
        for chunk in inputs[1]:
            if between is not None:
                between()
            t = clock()
            try:
                miner.update(chunk)
            except Exception as exc:  # a raising update is a failed operation
                out.error = exc
                return out
            out.starts.append(t)
            out.latencies.append(clock() - t)
        out.finish_at = clock()
        out.result = miner.result()
        out.finish_s = clock() - out.finish_at
        out.wall_s = sum(out.latencies) + out.finish_s
        if between is not None:
            between()
        return out

    def reference(self, inputs) -> np.ndarray:
        """The concatenated prefix (landmark) or trailing horizon."""
        events = np.concatenate(inputs[1])
        return events if self.mode == "landmark" else events[-self.horizon:]


WORKLOADS: "dict[str, MineWorkload | StreamWorkload]" = {
    w.name: w
    for w in (
        MineWorkload(
            "mine-subseq", "market", 50_000, MatchPolicy.SUBSEQUENCE,
            threshold=0.002, check_sample=32,
        ),
        MineWorkload(
            "mine-reset-paper", "uniform", PAPER_DB_LENGTH, MatchPolicy.RESET,
            threshold=0.000055, check_sample=1,
        ),
        StreamWorkload(
            "stream-landmark", "landmark", 50, 1_000, MatchPolicy.SUBSEQUENCE,
            threshold=0.02, path_seed=1,
        ),
        StreamWorkload(
            "stream-windowed", "windowed", 50, 500, MatchPolicy.EXPIRING,
            threshold=0.02, window=6, horizon=2_000, path_seed=2,
        ),
    )
}


#: per workload, the metric-name prefixes of layers it is predicted not
#: to call; the traced report checks that they read zero
BYPASSED: "dict[str, tuple[str, ...]]" = {
    "mine-subseq": ("trie.resume.", "counting.reset.", "store.", "stream.",
                    "spanning."),
    "mine-reset-paper": ("trie.count.", "trie.resume.", "counting.index.",
                         "store.", "stream.", "spanning."),
    "stream-landmark": ("trie.count.", "trie.cache.", "counting.reset.",
                        "engines.dispatch.", "miner.level", "spanning."),
    "stream-windowed": ("trie.count.", "trie.cache.", "trie.resume.",
                        "counting.reset.", "engines.dispatch.", "miner.level",
                        "store."),
}


def _sample(rng: np.random.Generator, episodes: "list[Episode]", k: int):
    if len(episodes) <= k:
        return list(episodes)
    return [episodes[i] for i in sorted(rng.choice(len(episodes), k, replace=False))]


def _is_candidate(items: "tuple[int, ...]", below: set, contiguous: bool) -> bool:
    """Algorithm 1's prune, restated: contiguous (RESET) candidates need
    a frequent suffix, the others every drop-one sub-episode frequent
    (the prefix is frequent by construction)."""
    if contiguous:
        return items[1:] in below
    return all(items[:i] + items[i + 1:] in below for i in range(len(items)))


def window_counts(db: np.ndarray, k: int) -> Counter:
    """How often each contiguous ``k``-window occurs in ``db``.

    The items of a candidate episode are distinct, so two occurrences of
    it cannot overlap and its RESET count is its window count.
    """
    events = db.tolist()
    return Counter(zip(*(events[i:] for i in range(k))))


def verify(
    result: MiningResult,
    db: np.ndarray,
    alphabet_size: int,
    workload: "MineWorkload | StreamWorkload",
    seed: int,
) -> "list[str]":
    """Mismatches between ``result`` and an independent recount of ``db``.

    Per level: the elimination rule ``count / n > alpha`` holds for every
    reported count; a seeded sample of reported counts equals the
    ``scalar-oracle`` count; and a seeded sample of the level's
    Algorithm 1 candidates (one-item extensions of the level below that
    pass the A-priori prune) that were *not* reported is infrequent
    under the oracle, so a dropped frequent episode shows too.  Under
    RESET every reported count and every unreported candidate is also
    recounted by :func:`window_counts`.  Empty when the result is
    correct.
    """
    n = int(db.size)
    alpha = workload.threshold
    window = getattr(workload, "window", None)
    rng = np.random.default_rng(seed)
    oracle = get_engine(ORACLE)
    problems: "list[str]" = []

    def recounted(episodes: "list[Episode]", k: int):
        """``(episode, independent count)`` pairs to check at level ``k``."""
        sample = _sample(rng, episodes, workload.check_sample)
        counts = (
            oracle.count(db, episodes_to_matrix(sample), alphabet_size,
                         workload.policy, window)
            if sample else []
        )
        pairs = [(ep, int(c)) for ep, c in zip(sample, counts)]
        if workload.policy is MatchPolicy.RESET:
            windows = window_counts(db, k)
            pairs += [(ep, windows[ep.items]) for ep in episodes]
        return pairs

    levels = {lvl.level: lvl for lvl in result.levels}
    for lvl in result.levels:
        if not (len(lvl.frequent) == len(lvl.counts) == lvl.n_frequent):
            problems.append(f"level {lvl.level}: inconsistent sizes")
        for ep, c in zip(lvl.frequent, lvl.counts):
            if not c / n > alpha:
                problems.append(f"level {lvl.level}: {ep.items} count {c} fails count/n > alpha")
        reported = lvl.as_dict()
        for ep, c in recounted(list(lvl.frequent), lvl.level):
            if c != reported[ep]:
                problems.append(
                    f"level {lvl.level}: {ep.items} reported {reported[ep]}, recount {c}"
                )
    last = max(levels, default=0)
    for k in range(1, min(last + 1, workload.max_level) + 1):
        below = {()} if k == 1 else {ep.items for ep in levels[k - 1].frequent}
        here = {ep.items for ep in levels[k].frequent} if k in levels else set()
        missing = [
            Episode(items) for items in sorted(
                {b + (x,) for b in below for x in range(alphabet_size)
                 if x not in b} - here
            )
            if _is_candidate(items, below, workload.policy.is_contiguous)
        ]
        for ep, c in recounted(missing, k):
            if c / n > alpha:
                problems.append(f"level {k}: frequent {ep.items} (recount {c}) not reported")
    return problems
