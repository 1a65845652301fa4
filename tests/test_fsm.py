"""Tests for the episode FSM (paper Fig. 3) under all policies."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.mining.alphabet import UPPERCASE
from repro.mining.episode import Episode
from repro.mining.fsm import EpisodeFSM, build_transition_table
from repro.mining.policies import MatchPolicy, validate_window


def run(ep_symbols, db_symbols, policy=MatchPolicy.RESET, window=None):
    ep = Episode.from_symbols(ep_symbols, UPPERCASE)
    fsm = EpisodeFSM(ep, UPPERCASE.size, policy, window)
    return fsm.run(UPPERCASE.encode(db_symbols))


class TestResetPolicy:
    """Fig. 3's literal semantics = substring counting for distinct items."""

    def test_simple_match(self):
        assert run("AB", "XABX") == 1

    def test_two_matches(self):
        assert run("AB", "ABAB") == 2

    def test_restart_at_a1(self):
        """Partial 'A' then another 'A': the FSM restarts at state 1."""
        assert run("AB", "AAB") == 1

    def test_reset_to_start_on_mismatch(self):
        assert run("ABC", "ABXABC") == 1

    def test_restart_mid_pattern(self):
        assert run("ABC", "ABABC") == 1

    def test_no_subsequence_matching(self):
        """RESET requires contiguity: A_B with a gap does not count."""
        assert run("AB", "AXB") == 0

    def test_single_item(self):
        assert run("Q", "QXQXQ") == 3

    def test_paper_fig5_example(self):
        """Fig. 5: searching B->C in 'ABCBCA' finds 2 occurrences."""
        assert run("BC", "ABCBCA") == 2


class TestSubsequencePolicy:
    def test_gap_allowed(self):
        assert run("AB", "AXXB", MatchPolicy.SUBSEQUENCE) == 1

    def test_non_overlapped_greedy(self):
        # AABB: the greedy pass consumes A@0,B@2 (the second A arrives
        # while the FSM already waits for B); only 'B' remains -> 1
        assert run("AB", "AABB", MatchPolicy.SUBSEQUENCE) == 1
        # ABAB yields two disjoint occurrences
        assert run("AB", "ABAB", MatchPolicy.SUBSEQUENCE) == 2

    def test_count_limited_by_scarcest_symbol(self):
        assert run("AB", "AAAB", MatchPolicy.SUBSEQUENCE) == 1

    def test_order_respected(self):
        assert run("AB", "BBBA", MatchPolicy.SUBSEQUENCE) == 0


class TestExpiringPolicy:
    def test_within_window_counts(self):
        assert run("AB", "AXB", MatchPolicy.EXPIRING, window=2) == 1

    def test_beyond_window_expires(self):
        assert run("AB", "AXXXB", MatchPolicy.EXPIRING, window=2) == 0

    def test_expired_partial_can_restart(self):
        assert run("AB", "AXXXAB", MatchPolicy.EXPIRING, window=2) == 1

    def test_wide_window_equals_subsequence(self):
        db = "AQWEBXAYYB"
        assert run("AB", db, MatchPolicy.EXPIRING, window=100) == run(
            "AB", db, MatchPolicy.SUBSEQUENCE
        )

    def test_window_one_requires_adjacency(self):
        assert run("AB", "AB", MatchPolicy.EXPIRING, window=1) == 1
        assert run("AB", "AXB", MatchPolicy.EXPIRING, window=1) == 0

    def test_needs_timestamps(self):
        ep = Episode((0, 1))
        fsm = EpisodeFSM(ep, 26, MatchPolicy.EXPIRING, window=3)
        with pytest.raises(ValidationError, match="index"):
            fsm.step(0)


class TestTransitionTable:
    def test_reset_table_shape(self):
        ep = Episode((0, 1, 2))
        t = build_transition_table(ep, 26, MatchPolicy.RESET)
        assert t.shape == (4, 26)

    def test_reset_table_semantics(self):
        ep = Episode((0, 1))  # "AB"
        t = build_transition_table(ep, 4, MatchPolicy.RESET)
        assert t[0, 0] == 1  # start --A--> 1
        assert t[0, 2] == 0  # start --C--> start
        assert t[1, 1] == 2  # 1 --B--> final
        assert t[1, 0] == 1  # 1 --A--> restart at 1
        assert t[1, 3] == 0  # 1 --D--> start
        # final row behaves like start
        assert t[2, 0] == 1

    def test_subsequence_table_self_loops(self):
        ep = Episode((0, 1))
        t = build_transition_table(ep, 4, MatchPolicy.SUBSEQUENCE)
        assert t[1, 2] == 1  # waits in place
        assert t[1, 0] == 1  # even on a1, stays (already matched)

    def test_table_driven_run_matches_fsm(self):
        ep = Episode((2, 0, 1))
        db = np.random.default_rng(3).integers(0, 4, 500).astype(np.uint8)
        for policy in (MatchPolicy.RESET, MatchPolicy.SUBSEQUENCE):
            table = build_transition_table(ep, 4, policy)
            state, count = 0, 0
            for c in db:
                state = int(table[state, int(c)])
                if state == ep.length:
                    count += 1
                    state = 0
            fsm = EpisodeFSM(ep, 4, policy)
            assert count == fsm.run(db)

    def test_expiring_table_rejected(self):
        with pytest.raises(ValidationError):
            build_transition_table(Episode((0, 1)), 26, MatchPolicy.EXPIRING)

    def test_episode_exceeding_alphabet_rejected(self):
        with pytest.raises(ValidationError):
            build_transition_table(Episode((0, 30)), 26, MatchPolicy.RESET)


class TestPolicyValidation:
    def test_expiring_requires_window(self):
        with pytest.raises(ValidationError):
            validate_window(MatchPolicy.EXPIRING, None)

    def test_reset_rejects_window(self):
        with pytest.raises(ValidationError):
            validate_window(MatchPolicy.RESET, 5)

    def test_valid_combinations(self):
        assert validate_window(MatchPolicy.EXPIRING, 3) == 3
        assert validate_window(MatchPolicy.RESET, None) == 0

    def test_policy_flags(self):
        assert MatchPolicy.RESET.is_contiguous
        assert not MatchPolicy.SUBSEQUENCE.is_contiguous
        assert MatchPolicy.EXPIRING.needs_window


class TestFsmStateManagement:
    def test_reset_clears_state(self):
        ep = Episode((0, 1))
        fsm = EpisodeFSM(ep, 26)
        fsm.step(0)
        assert fsm.state == 1
        fsm.reset()
        assert fsm.state == 0
        assert fsm.count == 0
