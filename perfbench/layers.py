"""Outside-in per-layer timing for the whole-run benchmark.

Nothing under ``src/`` is instrumented for this.  Instead
:class:`LayerTimer` replaces a module's public function with a timing
wrapper *at the name its caller looks up* (``repro.mining.engines.
count_positions_trie``, not ``repro.mining.trie.count_positions_trie``,
because the engines module imported the name into its own namespace).
Each wrapped call is timed with ``time.perf_counter``; a layer's *self
time* is its wrapped duration minus the durations of wrapped calls
nested inside it, so the self times of a call tree sum exactly to the
outermost wrapped duration.

:func:`install_layers` wires the layer table the benchmark reports
(see ``perfbench/README.md``); :func:`layer_metrics` turns what one
traced pass collected into the named per-layer metrics.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable

__all__ = [
    "LayerTimer",
    "PER_LAYER",
    "install_layers",
    "kernel_peak_alloc_mb",
    "layer_metrics",
]

#: every per-layer metric the traced run reports, with its unit; a
#: layer a workload never calls reads zero
PER_LAYER: "dict[str, str]" = {
    "data.generate_s": "s",
    "candidates.self_s": "s",
    "candidates.generated": "count",
    "candidates.counted_frac": "frac",
    "trie.count.self_s": "s",
    "trie.count.edges": "count",
    "trie.count.completions": "count",
    "trie.count.peak_alloc_mb": "MB",
    "trie.cache.self_s": "s",
    "trie.cache.hit_frac": "frac",
    "trie.cache.evictions": "count",
    "trie.resume.self_s": "s",
    "counting.index.self_s": "s",
    "counting.index.builds": "count",
    "counting.fingerprint.self_s": "s",
    "counting.fingerprint.bytes": "bytes",
    "counting.reset.self_s": "s",
    "engines.dispatch.position-hop": "count",
    "engines.dispatch.vector-sweep": "count",
    "miner.eliminate.self_s": "s",
    "miner.level1.wall_s": "s",
    "miner.level2.wall_s": "s",
    "miner.level3.wall_s": "s",
    "miner.level4.wall_s": "s",
    "store.advance.self_s": "s",
    "store.advance.calls": "count",
    "store.retrack.self_s": "s",
    "store.retrack.episodes": "count",
    "store.tracked": "count",
    "stream.promoted": "count",
    "stream.demoted": "count",
    "stream.path.recount": "count",
    "stream.path.short-circuit": "count",
    "spanning.summary.self_s": "s",
    "spanning.summary.calls": "count",
    "spanning.summary.reuse_frac": "frac",
    "spanning.advance.self_s": "s",
    "obs.trace_overhead_pct": "%",
}

#: Observer hook: called with the wrapped call's arguments before the
#: call; may return a callable that receives the call's result.
Observer = Callable[[tuple, dict], "Callable[[Any], None] | None"]


class LayerTimer:
    """Self-time accounting for wrapped calls, plus free-form tallies.

    ``self_s[layer]`` accumulates self time, ``calls[layer]`` the number
    of wrapped calls and ``tally[name]`` whatever the observers add
    (work counts, bytes).  ``restore()`` puts every wrapped name back.
    ``clock`` is injectable so tests can drive exact durations.
    """

    def __init__(self, clock: "Callable[[], float]" = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: "dict[str, float]" = defaultdict(float)
        self.calls: "dict[str, int]" = defaultdict(int)
        self.tally: "dict[str, float]" = defaultdict(float)
        #: one [nested wrapped time] cell per wrapped call in progress
        self._stack: "list[list[float]]" = []
        self._patches: "list[tuple[object, str, object]]" = []

    def add(self, name: str, value: float = 1) -> None:
        self.tally[name] += value

    def timed(
        self, layer: str, fn: Callable, observe: "Observer | None" = None
    ) -> Callable:
        """``fn`` wrapped to charge its self time to ``layer``.

        The observer runs inside the timed interval, so its (small)
        cost stays in this layer and self times still sum exactly to
        the outermost wrapped duration.
        """
        clock = self.clock
        stack = self._stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cell = [0.0]
            stack.append(cell)
            t0 = clock()
            try:
                done = observe(args, kwargs) if observe is not None else None
                result = fn(*args, **kwargs)
                if done is not None:
                    done(result)
                return result
            finally:
                elapsed = clock() - t0
                stack.pop()
                self.self_s[layer] += elapsed - cell[0]
                self.calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        observe: "Observer | None" = None,
    ) -> None:
        """Replace ``owner.attr`` (a module global or a class method)
        with its timed wrapper until :meth:`restore`."""
        original = getattr(owner, attr)
        if isinstance(owner, type):
            # the plain function from the class dict, so the wrapper
            # binds ``self`` like the method it replaces
            original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.timed(layer, original, observe))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTimer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()


def install_layers(timer: LayerTimer) -> "list[Any]":
    """Wrap every layer the benchmark reports; returns the list the
    count caches seen during the pass are collected into."""
    import repro.mining.counting as counting
    import repro.mining.engines as engines
    import repro.mining.miner as miner
    import repro.mining.trie as trie
    import repro.streaming.miner as stream_miner
    import repro.streaming.store as store

    caches: "list[Any]" = []

    def generated(args: tuple, kwargs: dict) -> Callable[[Any], None]:
        return lambda result: timer.add("candidates.generated", len(result))

    def counted(args: tuple, kwargs: dict) -> None:
        timer.add("candidates.counted", len(args[1]))

    def trie_work(args: tuple, kwargs: dict) -> Callable[[Any], None]:
        timer.add("trie.count.edges", args[1].n_edges)
        return lambda counts: timer.add("trie.count.completions", int(counts.sum()))

    def cache_seen(args: tuple, kwargs: dict) -> None:
        cache = kwargs["cache"]
        if not any(c is cache for c in caches):
            caches.append(cache)

    def index_build(args: tuple, kwargs: dict) -> None:
        # the lazy argsort runs on the first lookup of an unsorted index
        if args[0]._order is None:
            timer.add("counting.index.builds")

    def hashed(args: tuple, kwargs: dict) -> None:
        timer.add("counting.fingerprint.bytes", args[0].nbytes)

    def dispatched(args: tuple, kwargs: dict) -> Callable[[Any], None]:
        return lambda chosen: timer.add(f"engines.dispatch.{chosen.name}")

    def retracked(args: tuple, kwargs: dict) -> Callable[[Any], None]:
        st, level = args[0], args[1]
        before = st.levels.get(level)

        def done(result: Any) -> None:
            after = st.levels.get(level)
            if after is not None and after is not before:
                timer.add("store.retrack.episodes", len(after.episodes))

        return done

    for module in (miner, stream_miner):
        timer.wrap(module, "generate_level", "candidates", generated)
        timer.wrap(module, "generate_next_level", "candidates", generated)
        timer.wrap(module, "eliminate_level", "miner.eliminate", counted)
    for module in (engines, stream_miner):
        timer.wrap(module, "cached_count_batch", "trie.cache", cache_seen)
    timer.wrap(engines, "count_positions_trie", "trie.count", trie_work)
    timer.wrap(engines, "resume_positions_trie", "trie.resume")
    timer.wrap(store, "resume_positions_trie", "trie.resume")
    timer.wrap(engines, "count_reset_batch", "counting.reset")
    for module in (engines, trie, counting):
        timer.wrap(module, "db_fingerprint", "counting.fingerprint", hashed)
    timer.wrap(counting.DatabaseIndex, "_ensure_sorted", "counting.index",
               index_build)
    timer.wrap(engines.AutoEngine, "select", "engines.select", dispatched)
    timer.wrap(store.EpisodeStateStore, "advance", "store.advance")
    timer.wrap(store.EpisodeStateStore, "retrack", "store.retrack", retracked)
    for name in ("hop_expiring_summary", "hop_subsequence_summary"):
        timer.wrap(stream_miner, name, "spanning.summary")
    for name in ("advance_expiring", "advance_subsequence"):
        timer.wrap(stream_miner, name, "spanning.advance")
    return caches


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    timer: LayerTimer,
    caches: "list[Any]",
    recorder: Any,
) -> "dict[str, float]":
    """The per-layer metrics of one traced pass.

    ``recorder`` is the pass's :class:`repro.obs.Recorder` (its
    ``level`` spans and ``stream.*`` counters are read as emitted).
    ``candidates.counted_frac`` is the candidates that reached
    elimination over those generated.  The run-level entries
    (``data.generate_s``, ``trie.count.peak_alloc_mb``,
    ``obs.trace_overhead_pct``, ``store.tracked``) are the caller's.
    """
    s, calls, tally = timer.self_s, timer.calls, timer.tally
    out: "dict[str, float]" = {name: 0.0 for name in PER_LAYER}
    for layer in ("candidates", "trie.count", "trie.cache", "trie.resume",
                  "counting.index", "counting.fingerprint", "counting.reset",
                  "miner.eliminate", "store.advance", "store.retrack",
                  "spanning.summary", "spanning.advance"):
        out[f"{layer}.self_s"] = s.get(layer, 0.0)
    generated = tally.get("candidates.generated", 0.0)
    out["candidates.generated"] = generated
    out["candidates.counted_frac"] = _frac(
        tally.get("candidates.counted", 0.0), generated
    )
    for name in ("trie.count.edges", "trie.count.completions",
                 "counting.index.builds", "counting.fingerprint.bytes",
                 "engines.dispatch.position-hop",
                 "engines.dispatch.vector-sweep", "store.retrack.episodes"):
        out[name] = tally.get(name, 0.0)
    hits = sum(c.hits for c in caches)
    misses = sum(c.misses for c in caches)
    out["trie.cache.hit_frac"] = _frac(hits, hits + misses)
    out["trie.cache.evictions"] = float(sum(c.evictions for c in caches))
    out["store.advance.calls"] = float(calls.get("store.advance", 0))
    summaries = calls.get("spanning.summary", 0)
    folds = calls.get("spanning.advance", 0)
    out["spanning.summary.calls"] = float(summaries)
    out["spanning.summary.reuse_frac"] = (
        1.0 - summaries / folds if folds else 0.0
    )
    for span in recorder.walk():
        if span.name == "level" and 1 <= span.attrs.get("level", 0) <= 4:
            out[f"miner.level{span.attrs['level']}.wall_s"] += span.duration_s
    for name in ("stream.promoted", "stream.demoted", "stream.path.recount",
                 "stream.path.short-circuit"):
        out[name] = float(recorder.counters.get(name, 0))
    return out


def kernel_peak_alloc_mb(run: "Callable[[], Any]") -> "tuple[Any, float]":
    """``(run(), peak MB)``: the largest allocation peak of any single
    trie-kernel call during ``run``.

    tracemalloc is on only inside ``count_positions_trie`` calls, so the
    rest of the pass runs at full speed; this pass is kept apart from
    the timed ones because tracing allocations slows the kernel.
    """
    import tracemalloc

    import repro.mining.engines as engines

    original = engines.count_positions_trie
    peak = 0

    def measured(*args: Any, **kwargs: Any) -> Any:
        nonlocal peak
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    engines.count_positions_trie = measured
    try:
        result = run()
    finally:
        engines.count_positions_trie = original
    return result, peak / 2**20
