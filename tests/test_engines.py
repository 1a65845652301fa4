"""Tests for the counting-engine subsystem.

Every registered engine must produce *identical* counts — they differ
only in speed.  The property tests here assert engine-vs-oracle
equivalence across all three policies, including window edge cases
(window=1, window >= n) and raw matrices with repeated symbols, which
the :class:`~repro.mining.episode.Episode` type cannot express.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ValidationError
from repro.mining.alphabet import Alphabet
from repro.mining.candidates import count_candidates, generate_level
from repro.mining.counting import (
    DatabaseIndex,
    count_batch,
    count_batch_reference,
    count_episode,
    count_matrix_reference,
    _count_subsequence_hopping,
)
from repro.mining.engines import (
    AutoEngine,
    BoundEngine,
    CountingEngine,
    EngineRegistry,
    GpuSimEngine,
    ShardedEngine,
    get_engine,
    list_engines,
    register_engine,
)
from repro.mining.episode import Episode
from repro.mining.miner import FrequentEpisodeMiner
from repro.mining.policies import MatchPolicy

ENGINE_NAMES = (
    "scalar-oracle", "vector-sweep", "position-hop", "auto", "gpu-sim",
    "sharded",
)

POLICIES = [
    (MatchPolicy.RESET, None),
    (MatchPolicy.SUBSEQUENCE, None),
    (MatchPolicy.EXPIRING, 4),
]

small_alphabet = st.integers(min_value=3, max_value=8)


def db_strategy(alphabet_size, max_len=300):
    return st.lists(
        st.integers(0, alphabet_size - 1), min_size=0, max_size=max_len
    ).map(lambda xs: np.array(xs, dtype=np.uint8))


def episode_strategy(alphabet_size, max_len=3):
    return st.lists(
        st.integers(0, alphabet_size - 1),
        min_size=1,
        max_size=max_len,
        unique=True,
    ).map(lambda xs: Episode(tuple(xs)))


def matrix_strategy(alphabet_size, max_eps=5, max_len=4):
    """Raw (E, L) matrices — repeated symbols within a row allowed."""
    return st.integers(1, max_len).flatmap(
        lambda length: st.lists(
            st.lists(
                st.integers(0, alphabet_size - 1),
                min_size=length,
                max_size=length,
            ),
            min_size=1,
            max_size=max_eps,
        ).map(lambda rows: np.array(rows, dtype=np.uint8))
    )


class TestRegistry:
    def test_builtin_engines_registered(self):
        for name in ENGINE_NAMES:
            assert name in list_engines()
            assert isinstance(get_engine(name), CountingEngine)

    def test_instances_cached(self):
        assert get_engine("position-hop") is get_engine("position-hop")

    def test_engine_passthrough(self):
        engine = get_engine("auto")
        assert get_engine(engine) is engine

    def test_unknown_engine(self):
        with pytest.raises(ValidationError, match="unknown counting engine"):
            get_engine("warp-speed")

    def test_duplicate_registration_rejected(self):
        registry = EngineRegistry()
        registry.register("x", AutoEngine)
        with pytest.raises(ConfigError, match="already registered"):
            registry.register("x", AutoEngine)
        registry.register("x", AutoEngine, replace=True)  # explicit ok
        assert "x" in registry

    def test_custom_engine_registration(self):
        class Doubler(CountingEngine):
            name = "test-doubler"

            def count(self, db, episodes, alphabet_size,
                      policy=MatchPolicy.RESET, window=None, index=None):
                return 2 * get_engine("auto").count(
                    db, episodes, alphabet_size, policy, window, index=index
                )

        from repro.mining.engines import REGISTRY

        register_engine("test-doubler", Doubler, replace=True)
        try:
            db = np.array([0, 1, 0, 1], dtype=np.uint8)
            got = count_batch(db, [Episode((0, 1))], 4, engine="test-doubler")
            assert got[0] == 4
        finally:
            REGISTRY.unregister("test-doubler")
        assert "test-doubler" not in REGISTRY


class TestEngineEquivalence:
    """All engines agree with the scalar oracle on every policy."""

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_small_exhaustive(self, name, policy, window):
        alpha = Alphabet.of_size(4)
        db = np.random.default_rng(11).integers(0, 4, 200).astype(np.uint8)
        for level in (1, 2, 3):
            eps = generate_level(alpha, level)
            got = get_engine(name).count(db, eps, 4, policy, window)
            ref = count_batch_reference(db, eps, 4, policy, window)
            assert np.array_equal(got, ref), (name, policy, level)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    @given(data=st.data(), n=small_alphabet)
    @settings(max_examples=25, deadline=None)
    def test_property_all_policies(self, name, data, n):
        db = data.draw(db_strategy(n))
        ep = data.draw(episode_strategy(n))
        engine = get_engine(name)
        for policy, window in POLICIES:
            got = int(engine.count(db, [ep], n, policy, window)[0])
            ref = int(count_batch_reference(db, [ep], n, policy, window)[0])
            assert got == ref, (name, policy)

    @pytest.mark.parametrize(
        "name", ("vector-sweep", "position-hop", "auto", "gpu-sim")
    )
    @given(data=st.data(), n=small_alphabet)
    @settings(max_examples=40, deadline=None)
    def test_property_repeated_symbol_matrices(self, name, data, n):
        """Raw matrices (repeated symbols allowed) against the matrix oracle."""
        db = data.draw(db_strategy(n, max_len=200))
        matrix = data.draw(matrix_strategy(n))
        window = data.draw(st.integers(1, 8))
        engine = get_engine(name)
        for policy, w in [
            (MatchPolicy.SUBSEQUENCE, None),
            (MatchPolicy.EXPIRING, window),
        ]:
            got = engine.count(db, matrix, n, policy, w)
            ref = count_matrix_reference(db, matrix, policy, w)
            assert np.array_equal(got, ref), (name, policy, matrix.tolist())

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    @given(data=st.data(), n=small_alphabet)
    @settings(max_examples=25, deadline=None)
    def test_property_window_edges(self, name, data, n):
        """window=1 (tightest legal) and window >= n (loosest)."""
        db = data.draw(db_strategy(n))
        ep = data.draw(episode_strategy(n))
        engine = get_engine(name)
        for window in (1, max(int(db.size), 1), int(db.size) + 10):
            got = int(engine.count(db, [ep], n, MatchPolicy.EXPIRING, window)[0])
            ref = int(
                count_batch_reference(db, [ep], n, MatchPolicy.EXPIRING, window)[0]
            )
            assert got == ref, (name, window)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    @given(data=st.data(), n=small_alphabet)
    @settings(max_examples=15, deadline=None)
    def test_huge_window_equals_subsequence(self, name, data, n):
        db = data.draw(db_strategy(n))
        ep = data.draw(episode_strategy(n))
        engine = get_engine(name)
        loose = int(engine.count(db, [ep], n, MatchPolicy.EXPIRING,
                                 int(db.size) + 1)[0])
        subseq = int(engine.count(db, [ep], n, MatchPolicy.SUBSEQUENCE)[0])
        assert loose == subseq

    @given(data=st.data(), n=small_alphabet)
    @settings(max_examples=30, deadline=None)
    def test_matrix_oracle_matches_fsm_oracle_on_distinct(self, data, n):
        """The two scalar oracles coincide where both are defined."""
        db = data.draw(db_strategy(n))
        ep = data.draw(episode_strategy(n))
        matrix = np.array([ep.items], dtype=np.uint8)
        for policy, window in POLICIES:
            assert int(count_matrix_reference(db, matrix, policy, window)[0]) == int(
                count_batch_reference(db, [ep], n, policy, window)[0]
            )


class TestDatabaseIndex:
    def test_positions_match_flatnonzero(self):
        db = np.random.default_rng(3).integers(0, 6, 500).astype(np.uint8)
        index = DatabaseIndex(db)
        for symbol in range(6):
            assert np.array_equal(
                index.positions(symbol), np.flatnonzero(db == symbol)
            )

    def test_positions_cached(self):
        index = DatabaseIndex(np.array([1, 0, 1], dtype=np.uint8))
        assert index.positions(1) is index.positions(1)

    def test_absent_symbol_empty(self):
        index = DatabaseIndex(np.array([0, 0], dtype=np.uint8))
        assert index.positions(7).size == 0

    def test_2d_rejected(self):
        with pytest.raises(ValidationError):
            DatabaseIndex(np.zeros((2, 2), dtype=np.uint8))

    def test_hopping_accepts_shared_index(self):
        db = np.random.default_rng(5).integers(0, 4, 300).astype(np.uint8)
        index = DatabaseIndex(db)
        for ep in generate_level(Alphabet.of_size(4), 2):
            with_index = _count_subsequence_hopping(db, ep, index=index)
            fresh = _count_subsequence_hopping(db, ep)
            assert with_index == fresh

    def test_bound_engine_reuses_index_per_db(self):
        bound = get_engine("position-hop").bind(4, MatchPolicy.SUBSEQUENCE)
        db = np.random.default_rng(9).integers(0, 4, 100).astype(np.uint8)
        first = bound.index_for(db)
        assert bound.index_for(db) is first
        other = np.random.default_rng(10).integers(0, 4, 100).astype(np.uint8)
        assert bound.index_for(other) is not first

    def test_bound_engine_frozen_array_skips_hash_but_stays_exact(self):
        """Mutating and *then* freezing must still be caught (the
        read-only fast path only applies to arrays frozen since they
        were indexed); an always-frozen array reuses its index."""
        bound = get_engine("position-hop").bind(3, MatchPolicy.SUBSEQUENCE)
        eps = [Episode((0, 1))]
        db = np.array([0, 1, 0, 1], dtype=np.uint8)
        assert int(bound(db, eps)[0]) == 2  # indexed while writeable
        db[:] = 2
        db.flags.writeable = False  # freeze AFTER mutating: no fast path
        assert int(bound(db, eps)[0]) == 0
        frozen = np.array([0, 1, 0, 1], dtype=np.uint8)
        frozen.flags.writeable = False
        first = bound.index_for(frozen)
        assert bound.index_for(frozen) is first  # fast path engaged

    def test_bound_engine_detects_inplace_mutation(self):
        """Regression: the index cache was keyed by object identity, so
        mutating the database array in place silently returned counts
        from the stale index."""
        bound = get_engine("position-hop").bind(3, MatchPolicy.SUBSEQUENCE)
        db = np.array([0, 1, 0, 1, 0, 1], dtype=np.uint8)
        eps = [Episode((0, 1))]
        assert int(bound(db, eps)[0]) == 3
        db[:] = 2  # same object, new content
        assert int(bound(db, eps)[0]) == 0


class TestCountEpisodeDirect:
    """count_episode must not materialize the N**L gram table (satellite)."""

    def test_reset_single_no_gram_table(self):
        # alphabet_size**level = 8e13 entries: the old batch path would
        # try to allocate that bincount table and die
        rng = np.random.default_rng(17)
        alphabet_size = 200_000
        db = rng.integers(0, alphabet_size, 50_000).astype(np.int64)
        episode = Episode((int(db[10]), int(db[11]), int(db[12])))
        got = count_episode(db, episode, alphabet_size)
        fsm_ref = int(
            count_batch_reference(db, [episode], alphabet_size)[0]
        )
        assert got == fsm_ref
        assert got >= 1

    @given(data=st.data(), n=small_alphabet)
    @settings(max_examples=40, deadline=None)
    def test_reset_single_matches_oracle(self, data, n):
        db = data.draw(db_strategy(n))
        ep = data.draw(episode_strategy(n))
        assert count_episode(db, ep, n) == int(
            count_batch_reference(db, [ep], n)[0]
        )

    @given(data=st.data(), n=small_alphabet, window=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_expiring_single_matches_oracle(self, data, n, window):
        db = data.draw(db_strategy(n))
        ep = data.draw(episode_strategy(n))
        got = count_episode(db, ep, n, MatchPolicy.EXPIRING, window)
        assert got == int(
            count_batch_reference(db, [ep], n, MatchPolicy.EXPIRING, window)[0]
        )


class TestShardedEngine:
    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_sharding_engaged_matches_oracle(self, policy, window):
        """min_shard_work=0 forces the MapReduce split even on small data."""
        engine = ShardedEngine(inner="auto", workers=3, min_shard_work=0)
        alpha = Alphabet.of_size(5)
        db = np.random.default_rng(23).integers(0, 5, 400).astype(np.uint8)
        eps = generate_level(alpha, 2)
        got = engine.count(db, eps, 5, policy, window)
        ref = count_batch_reference(db, eps, 5, policy, window)
        assert np.array_equal(got, ref), policy

    def test_small_problems_run_inline(self):
        engine = ShardedEngine(workers=4)  # default threshold: stays inline
        db = np.array([0, 1, 0, 1], dtype=np.uint8)
        assert engine.count(db, [Episode((0, 1))], 3)[0] == 2

    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_empty_database_with_forced_sharding(self, policy, window):
        """Regression: n=0 with min_shard_work=0 left the RESET job with
        zero shards (all segments zero-width) and a KeyError."""
        engine = ShardedEngine(workers=4, min_shard_work=0)
        got = engine.count(
            np.array([], dtype=np.uint8), [Episode((0, 1))], 3, policy, window
        )
        assert np.array_equal(got, np.zeros(1, dtype=np.int64)), policy

    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_more_workers_than_characters(self, policy, window):
        """Degenerate splits (workers > n) must skip the zero-width
        segment/boundary shards and still count exactly."""
        engine = ShardedEngine(workers=8, min_shard_work=0)
        db = np.array([0, 1, 2, 0, 1], dtype=np.uint8)
        eps = [Episode((0, 1)), Episode((1, 2))]
        got = engine.count(db, eps, 3, policy, window)
        ref = count_batch_reference(db, eps, 3, policy, window)
        assert np.array_equal(got, ref), policy

    def test_episode_axis_preserves_order(self):
        """More episodes than one chunk: concatenation must keep order."""
        engine = ShardedEngine(workers=2, min_shard_work=0)
        alpha = Alphabet.of_size(6)
        db = np.random.default_rng(29).integers(0, 6, 300).astype(np.uint8)
        eps = generate_level(alpha, 2)
        got = engine.count(db, eps, 6, MatchPolicy.SUBSEQUENCE)
        ref = count_batch(db, eps, 6, MatchPolicy.SUBSEQUENCE)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("policy,window", POLICIES)
    def test_gpu_sim_inner_matches_oracle(self, policy, window):
        """The simulated-GPU engine composes under the sharded wrapper."""
        engine = ShardedEngine(inner="gpu-sim", workers=3, min_shard_work=0)
        alpha = Alphabet.of_size(5)
        db = np.random.default_rng(31).integers(0, 5, 400).astype(np.uint8)
        eps = generate_level(alpha, 2)
        got = engine.count(db, eps, 5, policy, window)
        ref = count_batch_reference(db, eps, 5, policy, window)
        assert np.array_equal(got, ref), policy

    def test_bad_workers(self):
        with pytest.raises(ConfigError):
            ShardedEngine(workers=0)

    def test_bad_axis(self):
        with pytest.raises(ConfigError, match="axis"):
            ShardedEngine(axis="diagonal")

    def test_nested_sharding_rejected(self):
        with pytest.raises(ConfigError, match="wrap itself"):
            ShardedEngine(inner="sharded")

    def test_unregistered_inner_instance_rejected(self):
        """Workers resolve the inner engine by name; an instance that is
        not the registered one would silently diverge, so it is refused."""

        class Custom(CountingEngine):
            name = "never-registered"

            def count(self, db, episodes, alphabet_size,
                      policy=MatchPolicy.RESET, window=None, index=None):
                raise AssertionError("unreachable")

        with pytest.raises(ConfigError, match="register_engine"):
            ShardedEngine(inner=Custom())


def _pools_available() -> bool:
    """True where this platform can spawn process-pool workers."""
    from repro.mapreduce.cpu_engine import ProcessPoolEngine

    try:
        with ProcessPoolEngine(workers=2):
            return True
    except (OSError, RuntimeError):
        return False


class TestShardedDatabaseAxisCarry:
    """The SUBSEQUENCE/EXPIRING database-axis split (two-pass state
    carry) must match the scalar oracle — the paper's §3.3.3 spanning
    problem solved for the non-decomposable policies."""

    @pytest.mark.parametrize("workers", (3, 8))
    @given(data=st.data(), n=small_alphabet)
    @settings(max_examples=20, deadline=None)
    def test_property_database_axis_vs_oracle(self, workers, data, n):
        engine = ShardedEngine(workers=workers, min_shard_work=0,
                               axis="database")
        db = data.draw(db_strategy(n, max_len=200))
        ep = data.draw(episode_strategy(n))
        window = data.draw(st.integers(1, 8))
        for policy, w in [
            (MatchPolicy.SUBSEQUENCE, None),
            (MatchPolicy.EXPIRING, window),
        ]:
            got = int(engine.count(db, [ep], n, policy, w)[0])
            ref = int(count_batch_reference(db, [ep], n, policy, w)[0])
            assert got == ref, (policy, w, workers)

    def test_occurrence_straddles_three_plus_segments(self):
        """One symbol per worker segment: the occurrence spans them all."""
        alpha = Alphabet.of_size(6)
        db = alpha.encode("ADBECF")
        ep = Episode.from_symbols("ABC", alpha)
        engine = ShardedEngine(workers=6, min_shard_work=0, axis="database")
        for policy, w in [
            (MatchPolicy.SUBSEQUENCE, None),
            (MatchPolicy.EXPIRING, 2),
        ]:
            assert int(engine.count(db, [ep], 6, policy, w)[0]) == 1, policy

    def test_window_edge_at_segment_boundary(self):
        """EXPIRING gaps that exactly equal / exceed the window right at
        a segment boundary (workers=2 splits this db at index 3)."""
        alpha = Alphabet.of_size(4)
        engine = ShardedEngine(workers=2, min_shard_work=0, axis="database")
        # A at 2, B at 3 (boundary): gap 1 <= window 1 -> counts
        db = alpha.encode("DDABDD")
        ep = Episode.from_symbols("AB", alpha)
        assert int(engine.count(db, [ep], 4, MatchPolicy.EXPIRING, 1)[0]) == 1
        # A at 1, B at 3: gap 2 > window 1 -> expires across the boundary
        db = alpha.encode("DADBDD")
        assert int(engine.count(db, [ep], 4, MatchPolicy.EXPIRING, 1)[0]) == 0
        ref = count_batch_reference(db, [ep], 4, MatchPolicy.EXPIRING, 1)
        assert int(ref[0]) == 0

    def test_repeated_symbol_matrices_database_axis(self):
        """Raw matrices (repeated symbols) through the carry split."""
        engine = ShardedEngine(workers=4, min_shard_work=0, axis="database")
        rng = np.random.default_rng(43)
        db = rng.integers(0, 4, 300).astype(np.uint8)
        matrix = np.array([[0, 0, 1], [2, 2, 2]], dtype=np.uint8)
        for policy, w in [
            (MatchPolicy.SUBSEQUENCE, None),
            (MatchPolicy.EXPIRING, 3),
        ]:
            got = engine.count(db, matrix, 4, policy, w)
            ref = count_matrix_reference(db, matrix, policy, w)
            assert np.array_equal(got, ref), policy

    def test_auto_axis_prefers_database_for_narrow_batches(self):
        engine = ShardedEngine(workers=4)
        assert engine._pick_axis(n_eps=2) == "database"
        assert engine._pick_axis(n_eps=100) == "episode"
        pinned = ShardedEngine(workers=4, axis="episode")
        assert pinned._pick_axis(n_eps=2) == "episode"


class TestShardedRunScope:
    """Run-scoped pool lifecycle: one pool per `with` scope, shared by
    every counting call inside (the tentpole's amortization claim)."""

    @pytest.fixture()
    def workload(self):
        alpha = Alphabet.of_size(5)
        db = np.random.default_rng(47).integers(0, 5, 600).astype(np.uint8)
        return alpha, db

    def test_one_pool_across_many_counts(self, workload):
        if not _pools_available():
            pytest.skip("platform cannot spawn process pools")
        alpha, db = workload
        eps = generate_level(alpha, 2)
        engine = ShardedEngine(workers=2, min_shard_work=0)
        refs = {}
        with engine:
            assert not engine.pool_active  # lazy: nothing sharded yet
            for policy, w in POLICIES:
                refs[policy] = engine.count(db, eps, 5, policy, w)
                assert engine.pool_active  # first sharding call spawned it
            assert engine.pools_spawned == 1  # one pool, many calls
        assert not engine.pool_active
        for policy, w in POLICIES:
            assert np.array_equal(
                refs[policy], count_batch_reference(db, eps, 5, policy, w)
            ), policy

    def test_scope_is_reentrant_and_reusable(self, workload):
        if not _pools_available():
            pytest.skip("platform cannot spawn process pools")
        alpha, db = workload
        eps = generate_level(alpha, 2)
        engine = ShardedEngine(workers=2, min_shard_work=0)
        with engine:
            with engine:  # nested scope must not spawn a second pool
                engine.count(db, eps, 5, MatchPolicy.SUBSEQUENCE)
            assert engine.pool_active  # outer scope still open
            assert engine.pools_spawned == 1
        with engine:  # a second run acquires a fresh pool
            engine.count(db, eps, 5, MatchPolicy.SUBSEQUENCE)
        assert engine.pools_spawned == 2

    def test_unscoped_counts_stay_correct(self, workload):
        """Outside a scope every call pools (or serial-falls-back) alone."""
        alpha, db = workload
        eps = generate_level(alpha, 2)
        engine = ShardedEngine(workers=2, min_shard_work=0)
        got = engine.count(db, eps, 5, MatchPolicy.SUBSEQUENCE)
        ref = count_batch_reference(db, eps, 5, MatchPolicy.SUBSEQUENCE)
        assert np.array_equal(got, ref)
        assert not engine.pool_active

    def test_inline_only_run_spawns_no_pool(self, workload):
        """A scope whose every call stays below min_shard_work must not
        pay worker spawns (the pool is acquired lazily)."""
        alpha, db = workload
        eps = generate_level(alpha, 2)
        engine = ShardedEngine(workers=2)  # default threshold: all inline
        with engine:
            got = engine.count(db, eps, 5, MatchPolicy.SUBSEQUENCE)
        assert engine.pools_spawned == 0
        assert np.array_equal(
            got, count_batch_reference(db, eps, 5, MatchPolicy.SUBSEQUENCE)
        )

    def test_miner_run_spawns_one_pool(self, workload):
        """FrequentEpisodeMiner brackets the whole level loop in the
        engine's run scope: one pool serves every level."""
        if not _pools_available():
            pytest.skip("platform cannot spawn process pools")
        alpha, db = workload
        engine = ShardedEngine(workers=2, min_shard_work=0)
        baseline = FrequentEpisodeMiner(alpha, 0.01, max_level=3).mine(db)
        mined = FrequentEpisodeMiner(
            alpha, 0.01, max_level=3, engine=engine
        ).mine(db)
        assert mined.all_frequent == baseline.all_frequent
        assert engine.pools_spawned == 1
        assert not engine.pool_active  # released when mine() returned

    def test_inplace_mutation_between_scoped_calls(self, workload):
        """Worker-side index caches are keyed by content fingerprint, so
        mutating the database in place between calls of one run must
        re-derive, never serve stale counts."""
        alpha, _ = workload
        db = np.zeros(400, dtype=np.uint8)
        db[::2] = 1
        eps = generate_level(alpha, 2)
        engine = ShardedEngine(workers=2, min_shard_work=0)
        with engine:
            first = engine.count(db, eps, 5, MatchPolicy.SUBSEQUENCE)
            db[:] = 2  # same array object, new content
            second = engine.count(db, eps, 5, MatchPolicy.SUBSEQUENCE)
        assert np.array_equal(
            first,
            count_batch_reference(
                np.where(np.arange(400) % 2 == 0, 1, 0).astype(np.uint8),
                eps, 5, MatchPolicy.SUBSEQUENCE,
            ),
        )
        assert np.array_equal(
            second,
            count_batch_reference(db, eps, 5, MatchPolicy.SUBSEQUENCE),
        )


class TestMapperExceptionPropagation:
    """A bug raised inside a worker must propagate, not be silently
    swallowed into a serial re-execution (old behaviour caught every
    RuntimeError around the whole job)."""

    def test_worker_exception_propagates(self):
        import multiprocessing

        from repro.mining.engines import REGISTRY

        class WorkerOnlyExploder(CountingEngine):
            name = "test-worker-exploder"

            def count(self, db, episodes, alphabet_size,
                      policy=MatchPolicy.RESET, window=None, index=None):
                if multiprocessing.parent_process() is not None:
                    # only inside a pool worker: the old blanket except
                    # would swallow this and quietly re-run serially
                    raise RuntimeError("mapper bug")
                return get_engine("auto").count(
                    db, episodes, alphabet_size, policy, window, index=index
                )

        if not _pools_available():
            pytest.skip("platform cannot spawn process pools")
        register_engine("test-worker-exploder", WorkerOnlyExploder)
        try:
            engine = ShardedEngine(
                inner="test-worker-exploder", workers=2, min_shard_work=0,
                axis="episode",
            )
            db = np.random.default_rng(51).integers(0, 5, 300).astype(np.uint8)
            eps = generate_level(Alphabet.of_size(5), 2)
            with pytest.raises(RuntimeError, match="mapper bug"):
                engine.count(db, eps, 5, MatchPolicy.SUBSEQUENCE)
        finally:
            REGISTRY.unregister("test-worker-exploder")


class TestMinerIntegration:
    @pytest.fixture(scope="class")
    def workload(self):
        alpha = Alphabet.of_size(6)
        rng = np.random.default_rng(41)
        pattern = alpha.encode("ABC" * 80)
        noise = rng.integers(0, 6, 1500).astype(np.uint8)
        return alpha, np.concatenate([pattern, noise])

    @pytest.mark.parametrize(
        "name", ("vector-sweep", "position-hop", "auto", "gpu-sim")
    )
    @pytest.mark.parametrize(
        "policy,window",
        [(MatchPolicy.SUBSEQUENCE, None), (MatchPolicy.EXPIRING, 5)],
    )
    def test_engine_name_threads_through_miner(self, workload, name, policy, window):
        alpha, db = workload
        baseline = FrequentEpisodeMiner(
            alpha, 0.05, policy=policy, window=window, max_level=3,
            engine="scalar-oracle",
        ).mine(db)
        mined = FrequentEpisodeMiner(
            alpha, 0.05, policy=policy, window=window, max_level=3, engine=name
        ).mine(db)
        assert mined.all_frequent == baseline.all_frequent

    def test_engine_instance_accepted(self, workload):
        alpha, db = workload
        engine = ShardedEngine(workers=2, min_shard_work=0)
        mined = FrequentEpisodeMiner(alpha, 0.05, max_level=2, engine=engine).mine(db)
        default = FrequentEpisodeMiner(alpha, 0.05, max_level=2).mine(db)
        assert mined.all_frequent == default.all_frequent

    def test_plain_callable_engine_rejected(self, workload):
        alpha, _ = workload
        with pytest.raises(ValidationError, match="CountingEngine"):
            FrequentEpisodeMiner(
                alpha, 0.05, engine=lambda db, eps: np.zeros(len(eps))
            )


class TestGpuSimEngine:
    """The simulated-GPU registry tier: validation, reports, caching."""

    @pytest.fixture()
    def workload(self):
        alpha = Alphabet.of_size(6)
        db = np.random.default_rng(53).integers(0, 6, 600).astype(np.uint8)
        return alpha, db

    def test_registered_and_resolvable(self):
        assert "gpu-sim" in list_engines()
        assert isinstance(get_engine("gpu-sim"), GpuSimEngine)

    def test_card_configurable_factory(self, workload):
        """register_engine() can bind the tier to a different card."""
        from repro.mining.engines import REGISTRY

        register_engine(
            "gpu-sim-8800", lambda: GpuSimEngine(device="8800GTS512")
        )
        try:
            alpha, db = workload
            eps = generate_level(alpha, 2)
            a = get_engine("gpu-sim-8800").count(db, eps, 6)
            b = get_engine("gpu-sim").count(db, eps, 6)
            assert np.array_equal(a, b)  # cards differ in time, never counts
        finally:
            REGISTRY.unregister("gpu-sim-8800")

    def test_reports_accumulate_and_flow_through_bind(self, workload):
        alpha, db = workload
        engine = GpuSimEngine()
        bound = engine.bind(alpha.size, MatchPolicy.SUBSEQUENCE)
        bound(db, generate_level(alpha, 1))
        bound(db, generate_level(alpha, 2))
        assert len(bound.reports) == 2
        assert bound.total_kernel_ms > 0
        assert bound.total_kernel_ms == pytest.approx(engine.total_kernel_ms)

    def test_host_bound_engine_reports_empty(self, workload):
        alpha, db = workload
        bound = get_engine("position-hop").bind(alpha.size)
        bound(db, generate_level(alpha, 1))
        assert list(bound.reports) == []
        assert bound.total_kernel_ms == 0.0

    def test_symbols_beyond_uint8_rejected(self, workload):
        """Regression: symbols >= 256 used to wrap modulo 256 silently."""
        engine = GpuSimEngine()
        db = np.array([0, 1, 300], dtype=np.int64)
        with pytest.raises(ValidationError, match="refusing to truncate"):
            engine.count(db, [Episode((0, 1))], alphabet_size=256)

    def test_out_of_alphabet_codes_rejected(self, workload):
        engine = GpuSimEngine()
        db = np.array([0, 1, 9], dtype=np.uint8)
        with pytest.raises(ValidationError, match="outside the alphabet"):
            engine.count(db, [Episode((0, 1))], alphabet_size=4)

    def test_episode_codes_beyond_alphabet_rejected(self):
        """Regression: episode codes >= 256 must raise before the uint8
        matrix coercion can overflow or wrap them."""
        engine = GpuSimEngine()
        db = np.zeros(10, dtype=np.uint8)
        with pytest.raises(ValidationError, match="episode code 300"):
            engine.count(db, [Episode((0, 300))], alphabet_size=256)
        with pytest.raises(ValidationError, match="episode code 300"):
            engine.count(
                db, np.array([[0, 300]], dtype=np.int64), alphabet_size=256
            )

    def test_oversized_alphabet_rejected(self, workload):
        alpha, db = workload
        engine = GpuSimEngine()
        with pytest.raises(ValidationError, match="256"):
            engine.count(db, [Episode((0, 1))], alphabet_size=1000)

    def test_float_database_rejected(self, workload):
        engine = GpuSimEngine()
        with pytest.raises(ValidationError, match="integer-coded"):
            engine.count(
                np.array([0.5, 1.0]), [Episode((0, 1))], alphabet_size=4
            )

    def test_fixed_algorithm_mode(self, workload):
        alpha, db = workload
        eps = generate_level(alpha, 2)
        fixed = GpuSimEngine(algorithm=1, threads_per_block=64)
        got = fixed.count(db, eps, alpha.size, MatchPolicy.SUBSEQUENCE)
        ref = count_batch_reference(db, eps, alpha.size, MatchPolicy.SUBSEQUENCE)
        assert np.array_equal(got, ref)
        assert fixed.selector is None

    def test_bad_config_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            GpuSimEngine(algorithm=9)
        with pytest.raises(ConfigError):
            GpuSimEngine(threads_per_block=0)

    def test_empty_batch_returns_empty(self, workload):
        alpha, db = workload
        engine = GpuSimEngine()
        out = engine.count(db, np.zeros((0, 2), dtype=np.uint8), alpha.size)
        assert out.shape == (0,)


class TestSelectionCache:
    """Memoized adaptive selection must be invisible except in speed."""

    def test_cached_config_identical_to_fresh_sweep(self):
        from repro.algos import AdaptiveSelector, MiningProblem
        from repro.gpu.specs import GEFORCE_GTX_280

        alpha = Alphabet.of_size(8)
        db = np.random.default_rng(61).integers(0, 8, 2000).astype(np.uint8)
        cached = AdaptiveSelector(GEFORCE_GTX_280)
        fresh = AdaptiveSelector(GEFORCE_GTX_280)
        for level in (1, 2, 3):
            for policy, window in POLICIES:
                eps = tuple(generate_level(alpha, level)[:20])
                problem = MiningProblem(db, eps, 8, policy, window)
                a = cached.select_cached(problem)
                b = fresh.select(problem)
                assert (a.algorithm_id, a.threads_per_block) == (
                    b.algorithm_id, b.threads_per_block,
                ), (level, policy)

    def test_cache_hit_skips_resweep(self):
        from repro.algos import AdaptiveSelector, MiningProblem
        from repro.gpu.specs import GEFORCE_GTX_280

        alpha = Alphabet.of_size(6)
        db = np.random.default_rng(67).integers(0, 6, 500).astype(np.uint8)
        selector = AdaptiveSelector(GEFORCE_GTX_280)
        eps = tuple(generate_level(alpha, 2)[:10])
        problem = MiningProblem(db, eps, 6)
        first = selector.select_cached(problem)
        assert selector.cache_size == 1
        # same shape bucket -> same object, no second sweep
        again = MiningProblem(db, tuple(generate_level(alpha, 2)[:12]), 6)
        assert selector.select_cached(again) is first
        assert selector.cache_size == 1
        selector.cache_clear()
        assert selector.cache_size == 0


class TestAutoSelection:
    def test_long_db_prefers_position_hop(self):
        auto = AutoEngine()
        chosen = auto.select(100_000, 500, MatchPolicy.SUBSEQUENCE)
        assert chosen.name == "position-hop"

    def test_short_db_large_batch_prefers_sweep(self):
        auto = AutoEngine()
        chosen = auto.select(300, 650, MatchPolicy.SUBSEQUENCE)
        assert chosen.name == "vector-sweep"

    def test_count_candidates_guard(self):
        # sanity for the pipeline cap logic
        assert count_candidates(26, 3) == 15_600
