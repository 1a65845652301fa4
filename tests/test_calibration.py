"""Tests for the measured per-host engine calibration.

Covers the profile round-trip, the robustness guarantees (corrupted or
wrong-schema files fall back to fixed heuristics with a warning, never
a crash; a host-fingerprint mismatch triggers recalibration advice),
threshold fitting, precedence of the profile sources, and — the
acceptance criterion — that ``AutoEngine``/``ShardedEngine``/the miner
provably consult a profile: swapping profiles changes engine choices.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.mining import calibration as cal
from repro.mining.alphabet import Alphabet
from repro.mining.calibration import (
    ANY_HOST,
    CALIBRATION_SCHEMA,
    CalibrationProfile,
    PolicyThresholds,
    ShardingCosts,
    fit_thresholds,
    host_fingerprint,
    load_profile,
    save_profile,
)
from repro.mining.candidates import generate_level
from repro.mining.counting import count_batch_reference
from repro.mining.engines import AutoEngine, ShardedEngine, get_engine
from repro.mining.episode import Episode
from repro.mining.miner import FrequentEpisodeMiner
from repro.mining.policies import MatchPolicy

FIXTURE = Path(__file__).parent / "fixtures" / "calibration.json"


@pytest.fixture(autouse=True)
def _isolated_ambient_profile():
    """Every test starts with no pinned/cached ambient profile and
    leaves none behind."""
    cal.reset_active_profile()
    yield
    cal.reset_active_profile()


def make_profile(sweep_max_n, chars, host=ANY_HOST, sharding=None):
    return CalibrationProfile(
        thresholds={
            "subsequence": PolicyThresholds(sweep_max_n, chars),
            "expiring": PolicyThresholds(sweep_max_n, chars),
        },
        sharding=sharding,
        host=host,
        created="2026-07-27T00:00:00+00:00",
    )


SWEEP_ALWAYS = make_profile(10**9, 10.0**9)
HOP_ALWAYS = make_profile(0, 0.0)


class TestProfileRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        costs = ShardingCosts(
            pool_spawn_s=0.01, dispatch_s=0.001, ops_per_sec=1e8,
            probed_workers=4,
        )
        profile = make_profile(4096, 8.0, host=host_fingerprint(),
                               sharding=costs)
        path = save_profile(profile, tmp_path / "calibration.json")
        loaded = load_profile(path)
        assert loaded is not None
        assert loaded.thresholds == profile.thresholds
        assert loaded.sharding == costs
        assert loaded.host == profile.host
        assert loaded.schema == CALIBRATION_SCHEMA

    def test_committed_fixture_loads(self):
        """The CI fixture profile stays valid on any host."""
        profile = load_profile(FIXTURE)
        assert profile is not None
        assert profile.host == ANY_HOST
        assert profile.matches_host()
        for policy in (MatchPolicy.SUBSEQUENCE, MatchPolicy.EXPIRING):
            assert profile.thresholds_for(policy) is not None

    def test_fixture_thresholds_match_fixed_constants(self):
        """The CI fixture must stay behaviour-neutral: its thresholds
        mirror the fixed AutoEngine constants, so a constant change
        must update the fixture too (this test is the tripwire)."""
        profile = load_profile(FIXTURE)
        for policy in (MatchPolicy.SUBSEQUENCE, MatchPolicy.EXPIRING):
            t = profile.thresholds_for(policy)
            assert t.sweep_max_n == AutoEngine.SWEEP_MAX_N
            assert t.sweep_chars_per_episode == AutoEngine.SWEEP_CHARS_PER_EPISODE

    def test_missing_file_is_quiet_none(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            assert load_profile(tmp_path / "absent.json") is None


class TestProfileRobustness:
    """Corrupted profiles degrade to fixed heuristics, never crash."""

    def test_corrupted_json_warns_and_falls_back(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text("{not json at all")
        with pytest.warns(RuntimeWarning, match="unreadable calibration"):
            assert load_profile(path) is None

    def test_wrong_schema_warns_and_falls_back(self, tmp_path):
        profile = make_profile(4096, 8.0)
        payload = profile.to_payload()
        payload["schema"] = CALIBRATION_SCHEMA + 1
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(payload))
        with pytest.warns(RuntimeWarning, match="schema"):
            assert load_profile(path) is None

    def test_missing_thresholds_warns_and_falls_back(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps({"schema": CALIBRATION_SCHEMA}))
        with pytest.warns(RuntimeWarning, match="unreadable calibration"):
            assert load_profile(path) is None

    def test_unknown_policy_name_is_schema_error(self, tmp_path):
        payload = make_profile(4096, 8.0).to_payload()
        payload["thresholds"]["teleporting"] = {
            "sweep_max_n": 1, "sweep_chars_per_episode": 1.0,
        }
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(payload))
        with pytest.warns(RuntimeWarning, match="unreadable calibration"):
            assert load_profile(path) is None

    def test_host_mismatch_advises_recalibration(self, tmp_path):
        path = save_profile(
            make_profile(4096, 8.0, host="deadbeef0000"),
            tmp_path / "calibration.json",
        )
        with pytest.warns(RuntimeWarning, match="repro calibrate"):
            assert load_profile(path) is None

    def test_host_mismatch_explicit_path_still_loads(self, tmp_path):
        """CLI --calibration PATH honors the user's file, warning only."""
        path = save_profile(
            make_profile(4096, 8.0, host="deadbeef0000"),
            tmp_path / "calibration.json",
        )
        with pytest.warns(RuntimeWarning, match="repro calibrate"):
            profile = load_profile(path, require_host=False)
        assert profile is not None

    def test_engines_survive_corrupted_ambient_profile(self, tmp_path,
                                                       monkeypatch):
        """Dispatch never crashes on a bad profile: counts stay exact."""
        path = tmp_path / "calibration.json"
        path.write_text("][")
        monkeypatch.setenv(cal.ENV_VAR, str(path))
        cal.reset_active_profile()
        db = np.random.default_rng(5).integers(0, 4, 200).astype(np.uint8)
        eps = generate_level(Alphabet.of_size(4), 2)
        with pytest.warns(RuntimeWarning, match="unreadable calibration"):
            got = get_engine("auto").count(
                db, eps, 4, MatchPolicy.SUBSEQUENCE
            )
        ref = count_batch_reference(db, eps, 4, MatchPolicy.SUBSEQUENCE)
        assert np.array_equal(got, ref)


class TestThresholdFitting:
    def test_fit_separates_clear_crossover(self):
        rows = []
        for policy in ("subsequence", "expiring"):
            # sweep decisively wins the small-n cells, hop the large-n
            rows += [
                {"policy": policy, "n": 100, "episodes": 100,
                 "sweep_s": 0.001, "hop_s": 0.010},
                {"policy": policy, "n": 5000, "episodes": 100,
                 "sweep_s": 0.050, "hop_s": 0.002},
            ]
        fitted = fit_thresholds(rows)
        for policy in ("subsequence", "expiring"):
            t = fitted[policy]
            assert t.prefers_sweep(100, 100)
            assert not t.prefers_sweep(5000, 100)

    def test_fit_hop_dominant_grid_never_picks_sweep(self):
        rows = [
            {"policy": "subsequence", "n": n, "episodes": e,
             "sweep_s": 0.01 * n / 100, "hop_s": 0.0001}
            for n in (100, 1000, 10_000) for e in (8, 64)
        ]
        t = fit_thresholds(rows)["subsequence"]
        for row in rows:
            assert not t.prefers_sweep(row["n"], row["episodes"])

    def test_probe_grid_rows_have_both_timings(self):
        rows = cal.probe_engine_grid(
            sizes=(64, 256), episode_counts=(4,), repeats=1
        )
        assert len(rows) == 4  # 2 sizes x 1 E x 2 policies
        for row in rows:
            assert row["sweep_s"] > 0 and row["hop_s"] > 0
        fitted = fit_thresholds(rows)
        assert set(fitted) == {"subsequence", "expiring"}

    def test_run_calibration_quick_profile_is_persistable(self, tmp_path):
        profile = cal.run_calibration(quick=True, repeats=1,
                                      include_sharding=False)
        assert profile.host == host_fingerprint()
        path = save_profile(profile, tmp_path / "calibration.json")
        assert load_profile(path) is not None


class TestPrecedence:
    def test_env_var_resolves_ambient(self, tmp_path, monkeypatch):
        path = save_profile(SWEEP_ALWAYS, tmp_path / "calibration.json")
        monkeypatch.setenv(cal.ENV_VAR, str(path))
        cal.reset_active_profile()
        active = cal.active_profile()
        assert active is not None
        assert active.thresholds_for(MatchPolicy.SUBSEQUENCE).sweep_max_n == 10**9

    def test_pinned_profile_beats_env(self, tmp_path, monkeypatch):
        path = save_profile(SWEEP_ALWAYS, tmp_path / "calibration.json")
        monkeypatch.setenv(cal.ENV_VAR, str(path))
        cal.set_active_profile(HOP_ALWAYS)
        assert cal.active_profile() is HOP_ALWAYS

    def test_pinned_none_disables(self, tmp_path, monkeypatch):
        path = save_profile(SWEEP_ALWAYS, tmp_path / "calibration.json")
        monkeypatch.setenv(cal.ENV_VAR, str(path))
        cal.set_active_profile(None)
        assert cal.active_profile() is None

    def test_explicit_engine_profile_beats_ambient(self):
        cal.set_active_profile(SWEEP_ALWAYS)
        auto = AutoEngine(profile=HOP_ALWAYS)
        chosen = auto.select(100, 1000, MatchPolicy.SUBSEQUENCE)
        assert chosen.name == "position-hop"


class TestAutoEngineConsultsProfile:
    """The acceptance criterion: swapping profiles changes choices."""

    SHAPE = (2000, 500)  # fixed constants choose vector-sweep here

    def test_profile_swap_flips_the_choice(self):
        n, n_eps = self.SHAPE
        sweep = AutoEngine(profile=SWEEP_ALWAYS).select(
            n, n_eps, MatchPolicy.SUBSEQUENCE
        )
        hop = AutoEngine(profile=HOP_ALWAYS).select(
            n, n_eps, MatchPolicy.SUBSEQUENCE
        )
        assert sweep.name == "vector-sweep"
        assert hop.name == "position-hop"

    def test_ambient_profile_consulted(self):
        n, n_eps = self.SHAPE
        cal.set_active_profile(HOP_ALWAYS)
        assert AutoEngine().select(
            n, n_eps, MatchPolicy.SUBSEQUENCE
        ).name == "position-hop"
        cal.set_active_profile(SWEEP_ALWAYS)
        assert AutoEngine().select(
            n, n_eps, MatchPolicy.SUBSEQUENCE
        ).name == "vector-sweep"

    def test_no_profile_falls_back_to_fixed_constants(self):
        cal.set_active_profile(None)
        auto = AutoEngine()
        assert auto.select(300, 650, MatchPolicy.SUBSEQUENCE).name == \
            "vector-sweep"
        assert auto.select(100_000, 500, MatchPolicy.SUBSEQUENCE).name == \
            "position-hop"

    def test_reset_always_takes_ngram_path(self):
        assert AutoEngine(profile=SWEEP_ALWAYS).select(
            10, 10, MatchPolicy.RESET
        ).name == "position-hop"

    def test_profile_moves_choice_never_counts(self):
        db = np.random.default_rng(9).integers(0, 4, 300).astype(np.uint8)
        eps = generate_level(Alphabet.of_size(4), 2)
        ref = count_batch_reference(db, eps, 4, MatchPolicy.SUBSEQUENCE)
        for profile in (SWEEP_ALWAYS, HOP_ALWAYS, None):
            auto = AutoEngine(profile=profile)
            got = auto.count(db, eps, 4, MatchPolicy.SUBSEQUENCE)
            assert np.array_equal(got, ref), profile

    def test_with_profile_returns_configured_clone(self):
        auto = get_engine("auto")
        clone = auto.with_profile(HOP_ALWAYS)
        assert clone is not auto
        assert clone.profile is HOP_ALWAYS
        assert auto.with_profile(None) is auto


class TestShardedEngineUsesProfile:
    COSTS = ShardingCosts(
        pool_spawn_s=0.02, dispatch_s=0.004, ops_per_sec=1e8,
        probed_workers=6,
    )

    def test_derived_defaults_from_measured_costs(self):
        profile = make_profile(4096, 8.0, sharding=self.COSTS)
        engine = ShardedEngine(profile=profile)
        assert engine.workers == self.COSTS.recommend_workers()
        assert engine.min_shard_work == self.COSTS.recommend_min_shard_work()
        # 4 * 0.004s * 1e8 ops/s = 1.6e6, inside the clamps
        assert engine.min_shard_work == int(4 * 0.004 * 1e8)

    def test_explicit_values_beat_profile(self):
        profile = make_profile(4096, 8.0, sharding=self.COSTS)
        engine = ShardedEngine(workers=2, min_shard_work=123, profile=profile)
        assert engine.workers == 2
        assert engine.min_shard_work == 123

    def test_no_profile_keeps_fixed_defaults(self):
        cal.set_active_profile(None)
        engine = ShardedEngine()
        assert engine.min_shard_work == ShardedEngine.DEFAULT_MIN_SHARD_WORK

    def test_recommendation_clamps(self):
        lazy = ShardingCosts(pool_spawn_s=0.0, dispatch_s=1e-9,
                             ops_per_sec=1.0, probed_workers=4)
        assert lazy.recommend_min_shard_work() == cal.MIN_SHARD_WORK_FLOOR
        greedy = ShardingCosts(pool_spawn_s=0.0, dispatch_s=10.0,
                               ops_per_sec=1e12, probed_workers=4)
        assert greedy.recommend_min_shard_work() == cal.MIN_SHARD_WORK_CEIL

    def test_profile_workers_capped_per_call_by_work(self):
        profile = make_profile(4096, 8.0, sharding=self.COSTS)
        engine = ShardedEngine(profile=profile)
        per_worker = engine.min_shard_work
        assert engine._effective_workers(per_worker * 2) == min(2, engine.workers)
        assert engine._effective_workers(per_worker * 100) == engine.workers
        pinned = ShardedEngine(workers=5, profile=profile)
        assert pinned._effective_workers(1) == 5  # explicit: honored verbatim

    def test_with_profile_clone_keeps_explicit_settings(self):
        profile = make_profile(4096, 8.0, sharding=self.COSTS)
        engine = ShardedEngine(workers=3, axis="episode")
        clone = engine.with_profile(profile)
        assert clone is not engine
        assert clone.workers == 3  # explicit setting survives the clone
        assert clone.axis == "episode"
        assert clone.min_shard_work == self.COSTS.recommend_min_shard_work()

    def test_sharded_counts_exact_under_profile(self):
        profile = make_profile(4096, 8.0, sharding=self.COSTS)
        engine = ShardedEngine(workers=3, min_shard_work=0, profile=profile)
        db = np.random.default_rng(13).integers(0, 5, 400).astype(np.uint8)
        eps = generate_level(Alphabet.of_size(5), 2)
        for policy, window in [
            (MatchPolicy.RESET, None),
            (MatchPolicy.SUBSEQUENCE, None),
            (MatchPolicy.EXPIRING, 4),
        ]:
            got = engine.count(db, eps, 5, policy, window)
            ref = count_batch_reference(db, eps, 5, policy, window)
            assert np.array_equal(got, ref), policy


class TestWorkerCalibrationShipping:
    """Sharded workers dispatch per the *parent's* calibration decision,
    not whatever ambient profile the worker process would resolve."""

    def test_payload_ships_explicit_profile(self):
        profile = make_profile(1234, 5.0)
        engine = ShardedEngine(workers=2, min_shard_work=0, profile=profile)
        payload = engine._payload(
            np.zeros(4, dtype=np.uint8),
            np.zeros((1, 2), dtype=np.uint8),
            4, MatchPolicy.SUBSEQUENCE, None,
        )
        shipped = payload["calibration"]
        assert shipped["thresholds"]["subsequence"]["sweep_max_n"] == 1234
        assert "measurements" not in shipped  # bulk is trimmed

    def test_payload_ships_none_when_uncalibrated(self):
        cal.set_active_profile(None)
        engine = ShardedEngine(workers=2, min_shard_work=0)
        payload = engine._payload(
            np.zeros(4, dtype=np.uint8),
            np.zeros((1, 2), dtype=np.uint8),
            4, MatchPolicy.SUBSEQUENCE, None,
        )
        assert payload["calibration"] is None

    def test_payload_ships_ambient_profile(self):
        cal.set_active_profile(SWEEP_ALWAYS)
        engine = ShardedEngine(workers=2, min_shard_work=0)
        payload = engine._payload(
            np.zeros(4, dtype=np.uint8),
            np.zeros((1, 2), dtype=np.uint8),
            4, MatchPolicy.SUBSEQUENCE, None,
        )
        assert payload["calibration"]["thresholds"]["subsequence"][
            "sweep_max_n"] == 10**9

    def test_mapper_counts_exactly_under_shipped_profile(self):
        """The mapper path with a shipped (and a corrupt) profile."""
        from repro.mapreduce.types import KeyValue
        from repro.mining.engines import _sharded_mapper

        db = np.random.default_rng(19).integers(0, 4, 120).astype(np.uint8)
        matrix = np.array([[0, 1], [2, 3]], dtype=np.uint8)
        ref = count_batch_reference(
            db, [Episode((0, 1)), Episode((2, 3))], 4,
            MatchPolicy.SUBSEQUENCE, None,
        )
        for calibration in (
            None,
            {k: v for k, v in HOP_ALWAYS.to_payload().items()
             if k != "measurements"},
            {"schema": -1, "garbage": True},  # corrupt: empty-profile fallback
        ):
            payload = {
                "kind": "segment", "db": db, "matrix": matrix,
                "alphabet_size": 4,
                "policy": MatchPolicy.SUBSEQUENCE.value, "window": None,
                "engine": "auto", "calibration": calibration,
            }
            (result,) = _sharded_mapper(KeyValue("k", payload))
            assert np.array_equal(result.value, ref), calibration


class TestMinerThreadsCalibration:
    def test_miner_applies_profile_to_named_engine(self):
        alpha = Alphabet.of_size(4)
        miner = FrequentEpisodeMiner(
            alpha, 0.05, engine="auto", calibration=HOP_ALWAYS
        )
        assert miner._engine.engine.profile is HOP_ALWAYS

    def test_miner_profile_changes_dispatch_not_results(self):
        alpha = Alphabet.of_size(4)
        db = np.random.default_rng(17).integers(0, 4, 500).astype(np.uint8)
        results = [
            FrequentEpisodeMiner(
                alpha, 0.02, engine="auto", calibration=profile, max_level=3
            ).mine(db).all_frequent
            for profile in (SWEEP_ALWAYS, HOP_ALWAYS, None)
        ]
        assert results[0] == results[1] == results[2]

    def test_plain_callable_engine_rejects_calibration(self):
        alpha = Alphabet.of_size(4)
        with pytest.raises(ValidationError, match="registry engine"):
            FrequentEpisodeMiner(
                alpha, 0.05, engine=lambda db, eps: np.zeros(len(eps)),
                calibration=HOP_ALWAYS,
            )

    def test_pipeline_miner_accepts_calibration(self):
        from repro.gpu.specs import get_card
        from repro.mining.pipeline import PipelinedMiner

        miner = PipelinedMiner(
            get_card("GTX280"), Alphabet.of_size(4), 0.05,
            calibration=HOP_ALWAYS,
        )
        assert miner._engine.profile is HOP_ALWAYS


class TestAutoVsFixedProbe:
    def test_probe_rows_record_choice_and_ratio(self):
        rows = cal.probe_auto_vs_fixed(
            HOP_ALWAYS, sizes=(128,), episode_counts=(4,), repeats=1
        )
        assert len(rows) == 2
        for row in rows:
            assert row["chosen"] == "position-hop"  # profile forces hop
            assert row["best_engine"] in ("vector-sweep", "position-hop")
            assert row["auto_s"] > 0 and row["ratio_vs_best"] > 0


class TestProfileStaleness:
    """created_at round-trip + the one-time stale-profile warning."""

    def _dated_profile(self, created):
        profile = make_profile(4096, 8.0)
        return CalibrationProfile(
            thresholds=profile.thresholds, host=ANY_HOST, created=created
        )

    def test_created_at_written_and_preferred_on_read(self, tmp_path):
        path = save_profile(
            self._dated_profile("2026-07-01T00:00:00+00:00"),
            tmp_path / "calibration.json",
        )
        payload = json.loads(path.read_text())
        assert payload["created_at"] == "2026-07-01T00:00:00+00:00"
        assert payload["created"] == payload["created_at"]
        payload["created_at"] = "2026-07-02T00:00:00+00:00"
        assert (
            CalibrationProfile.from_payload(payload).created
            == "2026-07-02T00:00:00+00:00"
        )

    def test_age_days(self):
        from datetime import datetime, timezone

        now = datetime(2026, 7, 27, tzinfo=timezone.utc)
        fresh = self._dated_profile("2026-07-26T00:00:00+00:00")
        assert fresh.age_days(now) == pytest.approx(1.0)
        naive = self._dated_profile("2026-07-17T00:00:00")  # assumed UTC
        assert naive.age_days(now) == pytest.approx(10.0)
        assert self._dated_profile("").age_days(now) is None
        assert self._dated_profile("not-a-date").age_days(now) is None

    def test_stale_profile_warns_once_with_hint(self, tmp_path):
        path = save_profile(
            self._dated_profile("2020-01-01T00:00:00+00:00"),
            tmp_path / "calibration.json",
        )
        with pytest.warns(RuntimeWarning, match="repro calibrate"):
            profile = load_profile(path)
        assert profile is not None  # stale profiles are still used
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second load: silence
            assert load_profile(path) is not None

    def test_reset_rearms_the_warning(self, tmp_path):
        path = save_profile(
            self._dated_profile("2020-01-01T00:00:00+00:00"),
            tmp_path / "calibration.json",
        )
        with pytest.warns(RuntimeWarning, match="days old"):
            load_profile(path)
        cal.reset_active_profile()
        with pytest.warns(RuntimeWarning, match="days old"):
            load_profile(path)

    def test_fresh_profile_stays_silent(self, tmp_path):
        from datetime import datetime, timezone

        path = save_profile(
            self._dated_profile(
                datetime.now(timezone.utc).isoformat(timespec="seconds")
            ),
            tmp_path / "calibration.json",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_profile(path) is not None

    def test_legacy_profile_without_created_stays_silent(self, tmp_path):
        path = save_profile(
            self._dated_profile(""), tmp_path / "calibration.json"
        )
        payload = json.loads(path.read_text())
        del payload["created_at"]
        del payload["created"]
        path.write_text(json.dumps(payload))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_profile(path) is not None

    def test_age_limit_configurable(self, tmp_path, monkeypatch):
        from datetime import datetime, timezone

        from repro.obs import clock

        monkeypatch.setattr(
            clock, "utc_now", lambda: datetime(2026, 7, 27, tzinfo=timezone.utc)
        )
        path = save_profile(
            self._dated_profile("2026-07-20T00:00:00+00:00"),  # 1 week old
            tmp_path / "calibration.json",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # inside the default horizon
            assert load_profile(path) is not None
        with pytest.warns(RuntimeWarning, match="days old"):
            load_profile(path, max_age_days=1.0)
        cal.reset_active_profile()
        monkeypatch.setenv(cal.MAX_AGE_ENV_VAR, "2")
        with pytest.warns(RuntimeWarning, match="days old"):
            load_profile(path)

    def test_age_limit_zero_disables(self, tmp_path, monkeypatch):
        path = save_profile(
            self._dated_profile("2020-01-01T00:00:00+00:00"),
            tmp_path / "calibration.json",
        )
        monkeypatch.setenv(cal.MAX_AGE_ENV_VAR, "0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_profile(path) is not None


class TestPerCandidateDispatchCost:
    def test_derived_from_dispatch_probe(self):
        costs = ShardingCosts(
            pool_spawn_s=0.05, dispatch_s=0.004, ops_per_sec=2e8,
            probed_workers=4,
        )
        assert costs.per_candidate_dispatch_ms() == pytest.approx(1.0)

    def test_floored_against_degenerate_probes(self):
        costs = ShardingCosts(
            pool_spawn_s=0.0, dispatch_s=0.0, ops_per_sec=1e8,
            probed_workers=0,
        )
        assert costs.per_candidate_dispatch_ms() >= 1e-3
