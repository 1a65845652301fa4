"""Tests for segmented counting and the Fig. 5 boundary-span fix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.mining.alphabet import Alphabet, UPPERCASE
from repro.mining.candidates import generate_level
from repro.mining.counting import (
    _NEG,
    count_batch,
    count_batch_reference,
    resume_expiring_batch,
    resume_subsequence_batch,
)
from repro.mining.episode import Episode
from repro.mining.policies import MatchPolicy
from repro.mining.spanning import (
    compose_expiring,
    compose_subsequence,
    count_segmented,
    hop_expiring_summary,
    hop_subsequence_summary,
    segment_bounds,
)
from repro.mining.trie import CandidateTrie, resume_positions_trie


class TestSegmentBounds:
    def test_even_split(self):
        assert segment_bounds(10, 2) == [(0, 5), (5, 10)]

    def test_ragged_split(self):
        bounds = segment_bounds(10, 3)
        assert bounds[0] == (0, 4)
        assert bounds[-1][1] == 10
        # contiguous cover
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo

    def test_more_segments_than_elements(self):
        bounds = segment_bounds(3, 8)
        assert bounds[0] == (0, 1)
        assert all(lo <= hi for lo, hi in bounds)
        assert bounds[-1] == (3, 3)

    def test_invalid(self):
        with pytest.raises(ValidationError):
            segment_bounds(10, 0)
        with pytest.raises(ValidationError):
            segment_bounds(-1, 2)


class TestFig5Example:
    """The paper's worked example: B->C over 'ABCBCA' split in half."""

    def test_without_span_fix_undercounts(self):
        db = UPPERCASE.encode("ABCBCA")
        ep = Episode.from_symbols("BC", UPPERCASE)
        seg = count_segmented(db, [ep], 26, n_segments=2, fix_spanning=False)
        # split 'ABC' | 'BCA': each half has one BC... the 3-char split is
        # ABC/BCA -> 1 + 1 = 2; force the paper's split after 'ABCB'
        # by using an explicit uneven database instead:
        db2 = UPPERCASE.encode("ABCB" + "CA")  # boundary between B and C
        seg2 = count_segmented(db2, [ep], 26, n_segments=3, fix_spanning=False)
        exact = int(count_batch(db2, [ep], 26)[0])
        assert exact == 2
        # segments of 2: AB|CB|CA -> both occurrences span boundaries
        assert int(seg2.totals[0]) < exact

    def test_with_span_fix_is_exact(self):
        db = UPPERCASE.encode("ABCBCA")
        ep = Episode.from_symbols("BC", UPPERCASE)
        for n_seg in (2, 3, 6):
            seg = count_segmented(db, [ep], 26, n_segments=n_seg, fix_spanning=True)
            assert int(seg.totals[0]) == 2, n_seg


class TestExactness:
    def test_matches_whole_db_count_level2(self, small_db):
        eps = generate_level(UPPERCASE, 2)[:30]
        exact = count_batch(small_db, eps, 26)
        for n_seg in (2, 7, 64, striking := 500):
            seg = count_segmented(small_db, eps, 26, n_segments=n_seg)
            assert np.array_equal(seg.totals, exact), n_seg

    def test_matches_whole_db_count_level3(self, small_db):
        eps = generate_level(UPPERCASE, 3)[:20]
        exact = count_batch(small_db, eps, 26)
        seg = count_segmented(small_db, eps, 26, n_segments=128)
        assert np.array_equal(seg.totals, exact)

    def test_single_segment_no_boundaries(self, small_db):
        eps = generate_level(UPPERCASE, 2)[:5]
        seg = count_segmented(small_db, eps, 26, n_segments=1)
        assert seg.boundary_counts.shape[0] == 0
        assert np.array_equal(seg.totals, count_batch(small_db, eps, 26))

    def test_level1_never_spans(self, small_db):
        eps = generate_level(UPPERCASE, 1)
        seg = count_segmented(small_db, eps, 26, n_segments=64)
        assert seg.spanning_total == 0

    def test_carry_mode_for_subsequence_is_exact(self):
        rng = np.random.default_rng(11)
        db = rng.integers(0, 5, 400).astype(np.uint8)
        # carry mode additionally supports mixed-length batches
        eps = [Episode((0, 1)), Episode((2, 3, 4))]
        exact = count_batch_reference(db, eps, 5, MatchPolicy.SUBSEQUENCE)
        seg = count_segmented(
            db, eps, 5, n_segments=7, policy=MatchPolicy.SUBSEQUENCE
        )
        assert np.array_equal(seg.totals, exact)

    def test_carry_mode_for_expiring_is_exact(self):
        rng = np.random.default_rng(13)
        db = rng.integers(0, 5, 400).astype(np.uint8)
        eps = [Episode((0, 1)), Episode((2, 3, 4))]
        exact = count_batch_reference(db, eps, 5, MatchPolicy.EXPIRING, 4)
        seg = count_segmented(
            db, eps, 5, n_segments=7, policy=MatchPolicy.EXPIRING, window=4
        )
        assert np.array_equal(seg.totals, exact)

    def test_empty_episode_list_rejected(self, small_db):
        with pytest.raises(ValidationError):
            count_segmented(small_db, [], 26, n_segments=4)

    def test_carry_mode_rejects_oversized_codes(self, small_db):
        with pytest.raises(ValidationError, match="alphabet"):
            count_segmented(
                small_db, [Episode((0, 30))], 26, n_segments=4,
                policy=MatchPolicy.SUBSEQUENCE,
            )


class TestTwoPassCarry:
    """The parallel-prefix state-summarization decomposition: pass-1
    segment summaries composed sequentially must equal the scalar FSM
    on the whole database — including occurrences straddling 3+
    segments and degenerate (zero-width) splits."""

    def test_occurrence_straddling_many_segments(self):
        """A single occurrence spread one symbol per segment."""
        alpha = Alphabet.of_size(6)
        db = alpha.encode("ADBECF")  # A..B..C spread across 6 segments of 1
        ep = Episode.from_symbols("ABC", alpha)
        for policy, window in [
            (MatchPolicy.SUBSEQUENCE, None),
            (MatchPolicy.EXPIRING, 2),
        ]:
            exact = count_batch_reference(db, [ep], 6, policy, window)
            seg = count_segmented(
                db, [ep], 6, n_segments=6, policy=policy, window=window
            )
            assert np.array_equal(seg.totals, exact), policy
            assert int(seg.totals[0]) == 1

    def test_more_segments_than_characters(self):
        db = np.array([0, 1, 2], dtype=np.uint8)
        ep = Episode((0, 1, 2))
        for policy, window in [
            (MatchPolicy.SUBSEQUENCE, None),
            (MatchPolicy.EXPIRING, 1),
        ]:
            seg = count_segmented(
                db, [ep], 3, n_segments=11, policy=policy, window=window
            )
            assert int(seg.totals[0]) == 1, policy

    @given(
        data=st.data(),
        n=st.integers(3, 6),
        n_segments=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_subsequence_segmented_equals_whole(self, data, n, n_segments):
        length = data.draw(st.integers(0, 300))
        seed = data.draw(st.integers(0, 10_000))
        db = np.random.default_rng(seed).integers(0, n, length).astype(np.uint8)
        items = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
        )
        ep = Episode(tuple(items))
        exact = count_batch_reference(db, [ep], n, MatchPolicy.SUBSEQUENCE)
        seg = count_segmented(
            db, [ep], n, n_segments=n_segments, policy=MatchPolicy.SUBSEQUENCE
        )
        assert int(seg.totals[0]) == int(exact[0])

    @given(
        data=st.data(),
        n=st.integers(3, 6),
        n_segments=st.integers(1, 40),
        window=st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_expiring_segmented_equals_whole(self, data, n, n_segments, window):
        length = data.draw(st.integers(0, 300))
        seed = data.draw(st.integers(0, 10_000))
        db = np.random.default_rng(seed).integers(0, n, length).astype(np.uint8)
        items = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
        )
        ep = Episode(tuple(items))
        exact = count_batch_reference(
            db, [ep], n, MatchPolicy.EXPIRING, window
        )
        seg = count_segmented(
            db, [ep], n, n_segments=n_segments, policy=MatchPolicy.EXPIRING,
            window=window,
        )
        assert int(seg.totals[0]) == int(exact[0])

    def test_subsequence_summary_tables_compose(self):
        """Direct pass-1/pass-2 API: summaries from segment slices
        composed by table lookup equal the whole-database count."""
        rng = np.random.default_rng(17)
        db = rng.integers(0, 4, 200).astype(np.uint8)
        matrix = np.array([[0, 1, 2], [3, 2, 1]], dtype=np.uint8)
        bounds = segment_bounds(db.size, 9)
        summaries = [
            hop_subsequence_summary(db[lo:hi], matrix) for lo, hi in bounds
        ]
        seg_counts, exit_states = compose_subsequence(summaries, 2)
        from repro.mining.counting import count_matrix_reference

        ref = count_matrix_reference(db, matrix, MatchPolicy.SUBSEQUENCE)
        assert np.array_equal(seg_counts.sum(axis=0), ref)
        assert exit_states.shape == (2,)

    def test_expiring_summaries_compose(self):
        rng = np.random.default_rng(19)
        db = rng.integers(0, 4, 200).astype(np.uint8)
        matrix = np.array([[0, 1, 2], [3, 2, 1]], dtype=np.uint8)
        bounds = segment_bounds(db.size, 9)
        summaries = [
            hop_expiring_summary(db[lo:hi], matrix, 3, lo)
            for lo, hi in bounds
        ]
        seg_counts = compose_expiring(db, matrix, 3, bounds, summaries)
        from repro.mining.counting import count_matrix_reference

        ref = count_matrix_reference(db, matrix, MatchPolicy.EXPIRING, 3)
        assert np.array_equal(seg_counts.sum(axis=0), ref)


class TestPropertyBased:
    @given(
        data=st.data(),
        n=st.integers(3, 6),
        n_segments=st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_segmented_equals_whole(self, data, n, n_segments):
        """The map + span-fix + reduce decomposition is exact for RESET —
        the correctness claim behind the paper's block-level kernels."""
        length = data.draw(st.integers(0, 300))
        seed = data.draw(st.integers(0, 10_000))
        db = np.random.default_rng(seed).integers(0, n, length).astype(np.uint8)
        items = data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
        )
        ep = Episode(tuple(items))
        exact = int(count_batch(db, [ep], n)[0])
        seg = count_segmented(db, [ep], n, n_segments=n_segments)
        assert int(seg.totals[0]) == exact

    @given(data=st.data(), n=st.integers(3, 6))
    @settings(max_examples=40, deadline=None)
    def test_unfixed_never_overcounts(self, data, n):
        """Dropping the span fix can only lose occurrences (Fig. 5a)."""
        length = data.draw(st.integers(0, 300))
        seed = data.draw(st.integers(0, 10_000))
        n_segments = data.draw(st.integers(1, 30))
        db = np.random.default_rng(seed).integers(0, n, length).astype(np.uint8)
        items = data.draw(
            st.lists(st.integers(0, n - 1), min_size=2, max_size=3, unique=True)
        )
        ep = Episode(tuple(items))
        exact = int(count_batch(db, [ep], n)[0])
        unfixed = count_segmented(
            db, [ep], n, n_segments=n_segments, fix_spanning=False
        )
        assert int(unfixed.totals[0]) <= exact


def _hop_case(data, n):
    """Random (db, matrix) pair for hop-vs-sweep parity checks.

    Repeated symbols within an episode are deliberately allowed — the
    position-hop chain must handle them exactly like the sweep does.
    """
    length = data.draw(st.integers(0, 200))
    seed = data.draw(st.integers(0, 10_000))
    db = np.random.default_rng(seed).integers(0, n, length).astype(np.uint8)
    ep_len = data.draw(st.integers(1, 3))
    eps = data.draw(
        st.lists(
            st.lists(
                st.integers(0, n - 1), min_size=ep_len, max_size=ep_len
            ).map(tuple),
            min_size=1, max_size=5, unique=True,
        )
    )
    matrix = np.array(eps, dtype=np.uint8)
    return db, matrix


def _sweep_subsequence_table(db, matrix):
    """The full SUBSEQUENCE entry table from the vector sweep: all L
    entry states tiled into one ``E*L``-lane resume, reshaped to
    ``(L, E)``."""
    n_eps, length = matrix.shape
    entry = np.repeat(np.arange(length, dtype=np.int64), n_eps)
    counts, exits = resume_subsequence_batch(
        db, np.tile(matrix, (length, 1)), entry
    )
    return counts.reshape(length, n_eps), exits.reshape(length, n_eps)


def _sweep_expiring_summary(db, matrix, window, t0):
    """The EXPIRING vector sweep from the empty (all-``_NEG``) state."""
    times = np.full((matrix.shape[0], matrix.shape[1] + 1), _NEG,
                    dtype=np.int64)
    return resume_expiring_batch(db, matrix, window, times, t0)


class TestPositionHopParity:
    """The trie-shared position-hop resume and summaries are
    bit-identical to the per-character vector sweeps — counts AND
    carried exit state, for any entry state."""

    @given(data=st.data(), n=st.integers(3, 6))
    @settings(max_examples=50, deadline=None)
    def test_hop_resume_matches_subsequence_sweep(self, data, n):
        db, matrix = _hop_case(data, n)
        n_eps, length = matrix.shape
        entry = np.array(
            data.draw(
                st.lists(
                    st.integers(0, length - 1),
                    min_size=n_eps, max_size=n_eps,
                )
            ),
            dtype=np.int64,
        )
        ref_counts, ref_exits = resume_subsequence_batch(db, matrix, entry)
        counts, exits = resume_positions_trie(
            db, CandidateTrie.from_matrix(matrix), MatchPolicy.SUBSEQUENCE,
            None, entry,
        )
        np.testing.assert_array_equal(counts, ref_counts)
        np.testing.assert_array_equal(exits, ref_exits)

    @given(data=st.data(), n=st.integers(3, 6))
    @settings(max_examples=40, deadline=None)
    def test_hop_summary_matches_subsequence_sweep(self, data, n):
        db, matrix = _hop_case(data, n)
        ref_counts, ref_exits = _sweep_subsequence_table(db, matrix)
        hop = hop_subsequence_summary(db, matrix)
        np.testing.assert_array_equal(hop.counts, ref_counts)
        np.testing.assert_array_equal(hop.exits, ref_exits)

    @given(data=st.data(), n=st.integers(3, 6))
    @settings(max_examples=40, deadline=None)
    def test_hop_summary_matches_expiring_sweep(self, data, n):
        db, matrix = _hop_case(data, n)
        window = data.draw(st.integers(1, 6))
        t0 = data.draw(st.integers(0, 50))
        ref_counts, ref_times = _sweep_expiring_summary(db, matrix, window, t0)
        hop = hop_expiring_summary(db, matrix, window, t0)
        np.testing.assert_array_equal(hop.counts, ref_counts)
        np.testing.assert_array_equal(hop.exit_times, ref_times)

    @given(data=st.data(), n=st.integers(3, 6))
    @settings(max_examples=40, deadline=None)
    def test_hop_resume_composes_across_a_split(self, data, n):
        """Chunk composition through the hop path equals the whole-db
        count: segment 1 from the zero state, segment 2 resumed from
        segment 1's exits."""
        db, matrix = _hop_case(data, n)
        trie = CandidateTrie.from_matrix(matrix)
        cut = data.draw(st.integers(0, db.size))
        first, rest = db[:cut], db[cut:]
        c1, exits = resume_positions_trie(
            first, trie, MatchPolicy.SUBSEQUENCE, None,
            np.zeros(matrix.shape[0], dtype=np.int64),
        )
        c2, _ = resume_positions_trie(
            rest, trie, MatchPolicy.SUBSEQUENCE, None, exits
        )
        whole, _ = resume_subsequence_batch(
            db, matrix, np.zeros(matrix.shape[0], dtype=np.int64)
        )
        np.testing.assert_array_equal(c1 + c2, whole)

    #: rows in descending order with a duplicate and a repeated symbol,
    #: so trie (ascending-symbol) order differs from row order
    OFF_ORDER = np.array(
        [[3, 2, 1], [0, 1, 2], [3, 2, 1], [2, 2, 0], [1, 3, 0]],
        dtype=np.uint8,
    )

    def test_subsequence_summary_slot_i_is_row_i(self):
        db = np.random.default_rng(53).integers(0, 4, 300).astype(np.uint8)
        ref_counts, ref_exits = _sweep_subsequence_table(db, self.OFF_ORDER)
        hop = hop_subsequence_summary(db, self.OFF_ORDER)
        np.testing.assert_array_equal(hop.counts, ref_counts)
        np.testing.assert_array_equal(hop.exits, ref_exits)

    @pytest.mark.parametrize("length", (3, 4))
    def test_subsequence_summary_builds_one_table_per_terminal(
        self, monkeypatch, length
    ):
        """The L entry-state resumes of a terminal share one set of
        jump tables: E terminals build at most E, however large L."""
        import repro.mining.counting as counting

        built = []
        real = counting._jump_tables

        def counted(ends, starts):
            built.append(int(ends.size))
            return real(ends, starts)

        monkeypatch.setattr(counting, "_jump_tables", counted)
        db = np.random.default_rng(61).integers(0, 5, 500).astype(np.uint8)
        episodes = generate_level(Alphabet.of_size(5), length)
        matrix = np.array([ep.items for ep in episodes], dtype=np.uint8)
        hop = hop_subsequence_summary(db, matrix)
        assert 0 < len(built) <= len(episodes)
        ref_counts, ref_exits = _sweep_subsequence_table(db, matrix)
        np.testing.assert_array_equal(hop.counts, ref_counts)
        np.testing.assert_array_equal(hop.exits, ref_exits)

    def test_expiring_summary_slot_i_is_row_i(self):
        db = np.random.default_rng(59).integers(0, 4, 300).astype(np.uint8)
        ref_counts, ref_times = _sweep_expiring_summary(
            db, self.OFF_ORDER, 4, 31
        )
        hop = hop_expiring_summary(db, self.OFF_ORDER, 4, 31)
        np.testing.assert_array_equal(hop.counts, ref_counts)
        np.testing.assert_array_equal(hop.exit_times, ref_times)
