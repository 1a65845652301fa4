"""The shared-prefix trie refactor (PR 8): structure and caching.

Covers the trie/batch-count contract (see ``CONTRACTS.md``): episode
index stability, deterministic child ordering, the Sequence drop-in
behaviour, subtree sharding groups, the content-addressed count cache
(including the zero-engine-calls repeat guarantee and partial hits),
and the Episode hash precompute.
"""

import pickle
import random

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.mining.alphabet import Alphabet
from repro.mining.candidates import generate_level, generate_next_level
from repro.mining.counting import (
    DatabaseIndex,
    count_batch_reference,
    count_matrix_reference,
    db_fingerprint,
)
from repro.mining.engines import BoundEngine, CountingEngine, get_engine
from repro.mining.episode import Episode, episodes_to_matrix
from repro.mining.policies import MatchPolicy
from repro.mining.trie import (
    CandidateTrie,
    CountCache,
    cached_count_batch,
    count_positions_trie,
)

ALPHA = Alphabet.of_size(6)


def small_db(seed=11, n=400, size=6):
    return np.random.default_rng(seed).integers(0, size, n).astype(np.uint8)


class TestTrieStructure:
    def test_from_episodes_preserves_input_order(self):
        eps = [Episode((2, 1)), Episode((0, 1)), Episode((2, 3))]
        trie = CandidateTrie.from_episodes(eps)
        assert list(trie) == eps
        assert [trie[i] for i in range(3)] == eps

    def test_insert_returns_stable_indices(self):
        trie = CandidateTrie()
        assert trie.insert(Episode((3, 0))) == 0
        assert trie.insert(Episode((3, 1))) == 1
        assert trie.insert(Episode((0, 3))) == 2

    def test_prefix_sharing_node_counts(self):
        # <a,b>, <a,c>, <a,d> share the <a> path: 1 root + 1 + 3 nodes
        trie = CandidateTrie.from_episodes(
            [Episode((0, 1)), Episode((0, 2)), Episode((0, 3))]
        )
        assert trie.n_nodes == 5
        assert trie.n_edges == 4  # vs 6 flat hops (3 episodes x L=2)

    def test_children_sorted_regardless_of_insertion_order(self):
        trie = CandidateTrie.from_episodes(
            [Episode((4, 0)), Episode((1, 0)), Episode((3, 0))]
        )
        symbols = [s for s, _ in trie.children_of(0)]
        assert symbols == sorted(symbols) == [1, 3, 4]

    def test_sequence_protocol(self):
        eps = generate_level(ALPHA, 2)
        trie = CandidateTrie.from_episodes(eps)
        assert len(trie) == len(eps)
        assert trie == eps
        assert eps[7] in trie
        assert Episode((0, 1, 2)) not in trie
        assert trie[3:5] == eps[3:5]

    def test_empty_trie_is_falsy_and_equals_empty_list(self):
        trie = CandidateTrie()
        assert len(trie) == 0
        assert not trie
        assert trie == []
        assert trie.matrix.shape == (0, 0)

    def test_uniform_length_enforced(self):
        trie = CandidateTrie.from_episodes([Episode((0, 1))])
        with pytest.raises(ValidationError, match="uniform"):
            trie.insert(Episode((0, 1, 2)))

    def test_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(CandidateTrie())

    def test_matrix_roundtrip(self):
        eps = generate_level(ALPHA, 3)
        trie = CandidateTrie.from_episodes(eps)
        expected = np.stack([e.array for e in eps])
        assert np.array_equal(trie.matrix, expected)

    def test_from_matrix_allows_repeats_but_has_no_episode_view(self):
        matrix = np.array([[0, 0], [1, 2], [0, 0]], dtype=np.uint8)
        trie = CandidateTrie.from_matrix(matrix)
        assert len(trie) == 3
        assert np.array_equal(trie.matrix, matrix)
        with pytest.raises(ValidationError, match="Episode view"):
            list(trie)
        with pytest.raises(ValidationError, match="matrix-built"):
            trie.insert(Episode((0, 1)))

    def test_duplicate_episodes_keep_their_own_indices(self):
        matrix = np.array([[1, 2], [1, 2]], dtype=np.uint8)
        trie = CandidateTrie.from_matrix(matrix)
        db = small_db()
        counts = count_positions_trie(db, trie)
        assert counts[0] == counts[1] > 0


class TestSubtreeGroups:
    def test_partition_is_exact_and_bounded(self):
        trie = CandidateTrie.from_episodes(generate_level(ALPHA, 2))
        for max_groups in (1, 2, 3, 4, 10):
            groups = trie.subtree_index_groups(max_groups)
            assert 1 <= len(groups) <= max_groups
            merged = np.concatenate(groups)
            assert sorted(merged.tolist()) == list(range(len(trie)))

    def test_whole_subtrees_stay_together(self):
        trie = CandidateTrie.from_episodes(generate_level(ALPHA, 2))
        groups = trie.subtree_index_groups(3)
        # all episodes with the same leading symbol land in one group
        for idxs in groups:
            leads = {int(trie.matrix[i, 0]) for i in idxs.tolist()}
            for other in groups:
                if other is idxs:
                    continue
                assert leads.isdisjoint(
                    {int(trie.matrix[i, 0]) for i in other.tolist()}
                )

    def test_empty_trie_yields_no_groups(self):
        assert CandidateTrie().subtree_index_groups(4) == []


class TestGenerationOrderInvariant:
    def test_lexicographic_regardless_of_input_order(self):
        frequent = generate_level(ALPHA, 2)
        shuffled = frequent[:]
        random.Random(5).shuffle(shuffled)
        a = generate_next_level(frequent, ALPHA, contiguous=False)
        b = generate_next_level(shuffled, ALPHA, contiguous=False)
        assert list(a) == list(b)
        items = [e.items for e in a]
        assert items == sorted(items)

    def test_duplicated_frequent_input_is_deduplicated(self):
        frequent = generate_level(ALPHA, 1)
        a = generate_next_level(frequent, ALPHA)
        b = generate_next_level(frequent * 3, ALPHA)
        assert list(a) == list(b)
        assert len(set(e.items for e in a)) == len(a)

    def test_returns_trie(self):
        out = generate_next_level(generate_level(ALPHA, 1), ALPHA)
        assert isinstance(out, CandidateTrie)
        assert generate_next_level([], ALPHA) == []


class TestTrieCounting:
    @pytest.mark.parametrize("window", [None, 3, 7])
    def test_matches_flat_reference(self, window):
        db = small_db()
        for level in (1, 2, 3):
            eps = generate_level(ALPHA, level)
            trie = CandidateTrie.from_episodes(eps)
            policy = (
                MatchPolicy.SUBSEQUENCE if window is None
                else MatchPolicy.EXPIRING
            )
            got = count_positions_trie(db, trie, window)
            ref = count_batch_reference(db, eps, ALPHA.size, policy, window)
            assert np.array_equal(got, ref), (level, window)

    def test_shared_index_reused(self):
        db = small_db()
        index = DatabaseIndex(db)
        trie = CandidateTrie.from_episodes(generate_level(ALPHA, 2))
        got = count_positions_trie(db, trie, None, index=index)
        ref = count_batch_reference(
            db, list(trie), ALPHA.size, MatchPolicy.SUBSEQUENCE, None
        )
        assert np.array_equal(got, ref)


class TestCountCache:
    def test_lru_eviction(self):
        cache = CountCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refresh: "a" is now most recent
        cache.put(("c",), 3)  # evicts "b"
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1
        assert cache.get(("c",)) == 3
        assert len(cache) == 2

    def test_stats_and_clear(self):
        cache = CountCache()
        cache.put(("k",), 9)
        cache.get(("k",))
        cache.get(("missing",))
        assert cache.stats() == {
            "hits": 1, "misses": 1, "evictions": 0, "entries": 1,
        }
        cache.clear()
        assert cache.stats() == {
            "hits": 0, "misses": 0, "evictions": 0, "entries": 0,
        }

    def test_evictions_counted(self):
        cache = CountCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.put(("c",), 3)  # evicts ("a",), the LRU entry
        assert cache.stats()["evictions"] == 1
        assert cache.stats()["entries"] == 2
        assert cache.get(("a",)) is None


class _SpyEngine:
    """Counts engine dispatches; delegates to a real engine."""

    def __init__(self):
        self.inner = get_engine("position-hop")
        self.calls = 0

    def count(self, db, batch, alphabet_size, policy, window=None,
              index=None):
        self.calls += 1
        with self.inner:
            return self.inner.count(
                db, batch, alphabet_size, policy, window, index=index
            )


class _MatrixReadingEngine(CountingEngine):
    """Overrides only ``count`` and reads the batch with ``np.asarray``,
    as code written against ``(E, L)`` matrices does."""

    name = "matrix-reading"

    def __init__(self):
        self.batches = []

    def count(self, db, episodes, alphabet_size, policy=MatchPolicy.RESET,
              window=None, index=None):
        matrix = np.asarray(episodes)
        self.batches.append(matrix.copy())
        return count_matrix_reference(db, matrix, policy, window)


class TestCachedCountBatch:
    def test_partial_hit_dispatches_only_the_misses(self):
        db = small_db()
        eps = generate_level(ALPHA, 2)
        engine, cache = _MatrixReadingEngine(), CountCache()
        policy = MatchPolicy.SUBSEQUENCE
        cached_count_batch(engine, db, CandidateTrie.from_episodes(eps[::2]),
                           ALPHA.size, policy, cache=cache)
        got = cached_count_batch(engine, db, CandidateTrie.from_episodes(eps),
                                 ALPHA.size, policy, cache=cache)
        assert np.array_equal(
            got, count_batch_reference(db, eps, ALPHA.size, policy)
        )
        # the second call's engine batch is a sub-trie of the misses
        # alone, in batch order, and reads as their matrix
        assert len(engine.batches) == 2
        assert np.array_equal(engine.batches[1], episodes_to_matrix(eps[1::2]))
        assert cache.hits == len(eps[::2])

    def test_repeat_count_makes_zero_engine_calls(self):
        db = small_db()
        trie = CandidateTrie.from_episodes(generate_level(ALPHA, 2))
        spy, cache = _SpyEngine(), CountCache()
        first = cached_count_batch(
            spy, db, trie, ALPHA.size, MatchPolicy.SUBSEQUENCE, cache=cache
        )
        assert spy.calls == 1
        second = cached_count_batch(
            spy, db, trie, ALPHA.size, MatchPolicy.SUBSEQUENCE, cache=cache
        )
        assert spy.calls == 1  # fully hit: the engine was never touched
        assert np.array_equal(first, second)
        assert cache.hits == len(trie)

    def test_partial_hit_dispatches_only_misses(self):
        db = small_db()
        eps = generate_level(ALPHA, 2)
        spy, cache = _SpyEngine(), CountCache()
        half = CandidateTrie.from_episodes(eps[: len(eps) // 2])
        cached_count_batch(
            spy, db, half, ALPHA.size, MatchPolicy.SUBSEQUENCE, cache=cache
        )
        full = CandidateTrie.from_episodes(eps)
        got = cached_count_batch(
            spy, db, full, ALPHA.size, MatchPolicy.SUBSEQUENCE, cache=cache
        )
        assert spy.calls == 2
        assert cache.hits == len(eps) // 2
        ref = count_batch_reference(
            db, eps, ALPHA.size, MatchPolicy.SUBSEQUENCE, None
        )
        assert np.array_equal(got, ref)

    def test_mutated_database_misses_cleanly(self):
        db = small_db()
        trie = CandidateTrie.from_episodes(generate_level(ALPHA, 2))
        spy, cache = _SpyEngine(), CountCache()
        cached_count_batch(
            spy, db, trie, ALPHA.size, MatchPolicy.SUBSEQUENCE, cache=cache
        )
        db2 = np.roll(db, 1)
        got = cached_count_batch(
            spy, db2, trie, ALPHA.size, MatchPolicy.SUBSEQUENCE, cache=cache
        )
        assert spy.calls == 2  # new fingerprint: a clean miss, not staleness
        ref = count_batch_reference(
            db2, list(trie), ALPHA.size, MatchPolicy.SUBSEQUENCE, None
        )
        assert np.array_equal(got, ref)

    def test_policy_and_window_are_part_of_the_key(self):
        db = small_db()
        trie = CandidateTrie.from_episodes(generate_level(ALPHA, 2))
        spy, cache = _SpyEngine(), CountCache()
        for policy, window in (
            (MatchPolicy.SUBSEQUENCE, None),
            (MatchPolicy.EXPIRING, 3),
            (MatchPolicy.EXPIRING, 4),
        ):
            got = cached_count_batch(
                spy, db, trie, ALPHA.size, policy, window, cache=cache
            )
            ref = count_batch_reference(
                db, list(trie), ALPHA.size, policy, window
            )
            assert np.array_equal(got, ref), (policy, window)
        assert spy.calls == 3  # no cross-policy/window collisions

    def test_bound_engine_repeat_count_is_fully_cached(self):
        """The miner-facing surface: a second identical level count on
        one binding is served entirely from the per-binding cache."""
        db = small_db()
        trie = CandidateTrie.from_episodes(generate_level(ALPHA, 2))
        bound = get_engine("position-hop").bind(
            ALPHA.size, MatchPolicy.SUBSEQUENCE, None
        )
        with bound:
            first = bound(db, trie)
            assert bound.cache.misses == len(trie)
            second = bound(db, trie)
        assert np.array_equal(first, second)
        assert bound.cache.hits == len(trie)


class TestEpisodeHashCaching:
    def test_hash_precomputed_at_construction(self):
        e = Episode((3, 1, 4))
        assert e._hash == hash((3, 1, 4))
        assert hash(e) == hash((3, 1, 4))

    def test_immutability_guard(self):
        e = Episode((0, 1))
        with pytest.raises(AttributeError):
            e.items = (2, 3)

    def test_pickle_roundtrip(self):
        e = Episode((5, 0, 2))
        clone = pickle.loads(pickle.dumps(e))
        assert clone == e and hash(clone) == hash(e)

    def test_slots_block_instance_dict(self):
        assert not hasattr(Episode((0, 1)), "__dict__")


class TestResumePositionsTrie:
    """Batched position-hop chunk resume (PR 9): the streaming advance
    entry point shares prefix hop-chains across tracked episodes while
    carrying each episode's own state — bit-identical to the per-episode
    sweeps, for any chunk boundary."""

    def _db(self, seed, n=300):
        return np.random.default_rng(seed).integers(
            0, ALPHA.size, n
        ).astype(np.uint8)

    def test_reset_policy_rejected(self):
        from repro.mining.trie import resume_positions_trie

        trie = CandidateTrie.from_matrix(np.array([[0, 1]], dtype=np.uint8))
        with pytest.raises(ValidationError):
            resume_positions_trie(
                self._db(1), trie, MatchPolicy.RESET, None,
                np.zeros(1, dtype=np.int64),
            )

    def test_subsequence_matches_flat_resume(self):
        from repro.mining.counting import resume_subsequence_batch
        from repro.mining.trie import resume_positions_trie

        rng = np.random.default_rng(31)
        eps = generate_level(ALPHA, 3)
        trie = CandidateTrie.from_episodes(eps)
        db = self._db(37)
        entry = rng.integers(0, 3, len(eps)).astype(np.int64)
        ref_counts, ref_exits = resume_subsequence_batch(
            db, trie.matrix, entry
        )
        counts, exits = resume_positions_trie(
            db, trie, MatchPolicy.SUBSEQUENCE, None, entry
        )
        np.testing.assert_array_equal(counts, ref_counts)
        np.testing.assert_array_equal(exits, ref_exits)

    def test_chunked_subsequence_totals_equal_batch(self):
        from repro.mining.trie import resume_positions_trie

        eps = generate_level(ALPHA, 2)
        trie = CandidateTrie.from_episodes(eps)
        db = self._db(41, n=500)
        ref = count_batch_reference(
            db, eps, ALPHA.size, MatchPolicy.SUBSEQUENCE
        )
        for cuts in ([0, 0, 7], [100, 101, 499], [250]):
            edges = [0] + sorted(cuts) + [db.size]
            state = np.zeros(len(eps), dtype=np.int64)
            total = np.zeros(len(eps), dtype=np.int64)
            for lo, hi in zip(edges[:-1], edges[1:]):
                inc, state = resume_positions_trie(
                    db[lo:hi], trie, MatchPolicy.SUBSEQUENCE, None, state,
                )
                total += inc
            np.testing.assert_array_equal(total, ref)

    def test_chunked_expiring_totals_equal_batch(self):
        from repro.mining.counting import _NEG
        from repro.mining.trie import resume_positions_trie

        window = 4
        eps = generate_level(ALPHA, 3)[::7]  # thinned level-3 grid
        trie = CandidateTrie.from_episodes(eps)
        db = self._db(43, n=500)
        ref = count_batch_reference(
            db, eps, ALPHA.size, MatchPolicy.EXPIRING, window
        )
        length = trie.matrix.shape[1]
        for cuts in ([0, 1, 13], [200, 200, 499], [333]):
            edges = [0] + sorted(cuts) + [db.size]
            state = np.full((len(eps), length + 1), _NEG, dtype=np.int64)
            total = np.zeros(len(eps), dtype=np.int64)
            for lo, hi in zip(edges[:-1], edges[1:]):
                inc, state = resume_positions_trie(
                    db[lo:hi], trie, MatchPolicy.EXPIRING, window, state,
                    t0=lo,
                )
                total += inc
            np.testing.assert_array_equal(total, ref)

    def test_expiring_summary_trie_matches_hop_summary(self):
        from repro.mining.spanning import hop_expiring_summary
        from repro.mining.trie import expiring_summary_trie

        eps = generate_level(ALPHA, 2)
        trie = CandidateTrie.from_episodes(eps)
        db = self._db(47)
        ref = hop_expiring_summary(db, trie.matrix, 3, t0=17)
        counts, exit_times = expiring_summary_trie(db, trie, 3, t0=17)
        np.testing.assert_array_equal(counts, ref.counts)
        np.testing.assert_array_equal(exit_times, ref.exit_times)
