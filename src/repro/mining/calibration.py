"""Measured per-host calibration of the counting-engine crossovers.

The paper's central result is that the best counting configuration is
*multi-dimensional*: it shifts with database size, episode count, and
matching policy, and the crossover locations are hardware facts that
must be measured, not hard-coded.  This module is the host-side
analogue of the paper's dynamic adaptation: a micro-probe harness that
times the registered engines on a small deterministic grid of
``(n, E, policy)`` shapes, fits per-policy crossover boundaries, and
persists them as a versioned profile that
:class:`~repro.mining.engines.AutoEngine` and
:class:`~repro.mining.engines.ShardedEngine` consult at dispatch time.

Profile file format (``calibration.json``)
------------------------------------------
A single JSON object::

    {
      "schema": 1,                 # CALIBRATION_SCHEMA at write time
      "host": "2f0c9ab14d3e",      # host_fingerprint(), or "*" (fixture
                                   # profiles valid on any host)
      "created": "2026-07-27T12:00:00+00:00",
      "created_at": "2026-07-27T12:00:00+00:00",  # same value; the
                                   # documented key ("created" kept for
                                   # pre-staleness readers).  Profiles
                                   # older than the staleness horizon
                                   # (DEFAULT_MAX_PROFILE_AGE_DAYS, or
                                   # REPRO_CALIBRATION_MAX_AGE_DAYS)
                                   # warn once per process on load —
                                   # and are still used.
      "grid": {"sizes": [...], "episodes": [...], "repeats": 2},
      "thresholds": {              # per-policy AutoEngine boundaries
        "subsequence": {"sweep_max_n": 8192,
                        "sweep_chars_per_episode": 16.0},
        "expiring":    {...}
      },
      "sharding": {                # ShardedEngine cost model, or null
        "pool_spawn_s": 0.05,      # spawning+probing the process pool
        "dispatch_s": 0.004,       # per-job dispatch overhead
        "ops_per_sec": 2.0e8,      # inline episode-chars/sec baseline
        "probed_workers": 4        # workers the probe pool held
      },
      "measurements": [...]        # raw probe rows, for transparency
    }

``thresholds`` plug directly into the :class:`AutoEngine` rule (sweep
iff ``n < sweep_max_n`` *and* ``n < sweep_chars_per_episode * E``);
they are fitted by exhaustive search minimizing the measured *regret*
(time lost to picking the slower engine) over the probe grid.
``sharding`` feeds :meth:`ShardingCosts.recommend_workers` and
:meth:`ShardingCosts.recommend_min_shard_work`; it is ``null`` on
platforms whose process pools cannot spawn.

Precedence
----------
Consumers resolve the active profile in this order (first hit wins):

1. an explicit profile object (CLI ``mine --calibration PATH``,
   ``FrequentEpisodeMiner(..., calibration=...)``,
   ``AutoEngine(profile=...)``); an *empty* profile
   (``CalibrationProfile(thresholds={})``) explicitly pins the fixed
   heuristics — CLI ``--no-calibration`` uses this, so it never mutates
   process-global state;
2. :func:`set_active_profile` (process-wide pin; ``None`` disables);
3. the ``REPRO_CALIBRATION`` environment variable (a path);
4. the default path beside ``benchmarks/BENCH_engines.json``
   (:func:`default_profile_path`);
5. no profile: the fixed constants baked into
   :class:`~repro.mining.engines.AutoEngine` /
   :class:`~repro.mining.engines.ShardedEngine`.

Robustness: a missing, corrupted, wrong-schema, or host-mismatched
profile never crashes dispatch — :func:`load_profile` warns and falls
back to the fixed constants (a mismatched host additionally gets
``repro calibrate`` recalibration advice).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import numpy as np

from repro.errors import ConfigError, ValidationError
from repro.mining.policies import MatchPolicy
from repro.obs import clock

__all__ = [
    "CALIBRATION_SCHEMA",
    "ANY_HOST",
    "ENV_VAR",
    "MAX_AGE_ENV_VAR",
    "DEFAULT_MAX_PROFILE_AGE_DAYS",
    "PolicyThresholds",
    "ShardingCosts",
    "CalibrationProfile",
    "host_fingerprint",
    "default_profile_path",
    "load_profile",
    "save_profile",
    "active_profile",
    "set_active_profile",
    "reset_active_profile",
    "run_calibration",
    "fit_thresholds",
    "probe_engine_grid",
    "probe_auto_vs_fixed",
    "probe_sharding_costs",
]

#: bump when the profile layout changes; older files fall back to the
#: fixed constants instead of being misread
CALIBRATION_SCHEMA = 1

#: ``host`` value marking a profile valid on any machine (CI fixtures)
ANY_HOST = "*"

#: environment variable naming a profile path (precedence step 3)
ENV_VAR = "REPRO_CALIBRATION"

#: environment variable overriding the staleness age limit, in days
#: (``0`` or negative disables the staleness warning entirely)
MAX_AGE_ENV_VAR = "REPRO_CALIBRATION_MAX_AGE_DAYS"

#: default staleness horizon: profiles older than this warn (once per
#: process) that the measured crossovers may have drifted
DEFAULT_MAX_PROFILE_AGE_DAYS = 30.0

#: probe grid of the full calibration run (policy-sensitive engines are
#: timed on every (n, E) cell); sized so a full run stays in seconds
FULL_SIZES = (512, 2_048, 8_192, 24_576)
FULL_EPISODES = (8, 64, 256)
QUICK_SIZES = (512, 4_096, 16_384)
QUICK_EPISODES = (16, 128)

#: window used for the EXPIRING probe cells (mid-range: tight enough to
#: exercise expiry, loose enough that counts stay nonzero)
PROBE_WINDOW = 6

#: episode length of the probe matrices (level-2 shapes dominate real
#: mining runs: the candidate space peaks there)
PROBE_LEVEL = 2

PROBE_SEED = 20_090_525  # IPDPS 2009

#: clamps on the min_shard_work recommendation, so a wildly noisy
#: dispatch probe can never disable sharding or shard everything
MIN_SHARD_WORK_FLOOR = 1 << 18
MIN_SHARD_WORK_CEIL = 1 << 24


def host_fingerprint() -> str:
    """A short stable identity for *this* host's performance envelope.

    Hashes the machine/OS/Python/NumPy identity plus the CPU count —
    the facts that move the measured crossovers.  Deliberately excludes
    anything ephemeral (load, frequency scaling); a profile is advisory
    and exactness never depends on it.
    """
    parts = (
        platform.machine(),
        platform.system(),
        platform.python_implementation(),
        ".".join(platform.python_version_tuple()[:2]),
        np.__version__,
        str(os.cpu_count() or 1),
    )
    return hashlib.sha1("|".join(parts).encode()).hexdigest()[:12]


def default_profile_path() -> "Path | None":
    """``benchmarks/calibration.json`` beside ``BENCH_engines.json``.

    Resolved from the source layout; ``None`` when the package is
    installed without its benchmarks directory (site-packages).
    """
    bench_dir = Path(__file__).resolve().parents[3] / "benchmarks"
    return bench_dir / "calibration.json" if bench_dir.is_dir() else None


@dataclass(frozen=True)
class PolicyThresholds:
    """Fitted AutoEngine crossover boundaries for one policy.

    The sweep is chosen iff ``n < sweep_max_n`` and
    ``n < sweep_chars_per_episode * n_episodes`` — the same rule shape
    as the fixed constants, with measured values.
    """

    sweep_max_n: int
    sweep_chars_per_episode: float

    def prefers_sweep(self, n: int, n_episodes: int) -> bool:
        return (
            n < self.sweep_max_n
            and n < self.sweep_chars_per_episode * n_episodes
        )

    def as_dict(self) -> dict:
        return {
            "sweep_max_n": int(self.sweep_max_n),
            "sweep_chars_per_episode": float(self.sweep_chars_per_episode),
        }


@dataclass(frozen=True)
class ShardingCosts:
    """Measured process-pool cost model for :class:`ShardedEngine`."""

    #: seconds to spawn + probe the worker pool (paid once per run scope)
    pool_spawn_s: float
    #: seconds of per-job dispatch overhead (paid on every sharded call)
    dispatch_s: float
    #: inline counting throughput (episode-chars/sec) the overhead
    #: competes against
    ops_per_sec: float
    #: workers the probe pool held
    probed_workers: int

    def recommend_workers(self, cpu_count: "int | None" = None) -> int:
        """Worker count for this host (bounded by what was probed)."""
        cpu = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
        return max(1, min(cpu, self.probed_workers, 8))

    def recommend_min_shard_work(self) -> int:
        """Smallest ``n x E`` worth sharding.

        A sharded call pays ``dispatch_s`` before any worker helps, so
        sharding only wins once the inline time is a few multiples of
        that: ``work / ops_per_sec >= 4 * dispatch_s``.  Clamped so a
        noisy probe can neither disable sharding nor shard trivia.
        """
        if self.ops_per_sec <= 0:
            return MIN_SHARD_WORK_FLOOR
        work = int(4.0 * self.dispatch_s * self.ops_per_sec)
        return max(MIN_SHARD_WORK_FLOOR, min(work, MIN_SHARD_WORK_CEIL))

    def per_candidate_dispatch_ms(self) -> float:
        """Measured host-side handling cost per dispatched record (ms).

        The dispatch probe times a ``probed_workers``-record MapReduce
        round trip, so per record it measured
        ``dispatch_s / probed_workers`` — the per-candidate host
        overhead :class:`~repro.mining.pipeline.PipelinedMiner` charges
        for generation/reconciliation work hidden behind a kernel
        (previously a hard-coded default).  Floored at 1 µs so a
        degenerate probe never models free host work.
        """
        per_record_s = self.dispatch_s / max(1, self.probed_workers)
        return max(1e-6, per_record_s) * 1e3

    def as_dict(self) -> dict:
        return {
            "pool_spawn_s": float(self.pool_spawn_s),
            "dispatch_s": float(self.dispatch_s),
            "ops_per_sec": float(self.ops_per_sec),
            "probed_workers": int(self.probed_workers),
        }


@dataclass(frozen=True)
class CalibrationProfile:
    """A persisted per-host engine calibration (see module docstring)."""

    thresholds: "dict[str, PolicyThresholds]"
    sharding: "ShardingCosts | None" = None
    host: str = ANY_HOST
    created: str = ""
    schema: int = CALIBRATION_SCHEMA
    grid: dict = field(default_factory=dict)
    measurements: tuple = ()

    def thresholds_for(self, policy: MatchPolicy) -> "PolicyThresholds | None":
        return self.thresholds.get(policy.value)

    def matches_host(self) -> bool:
        return self.host == ANY_HOST or self.host == host_fingerprint()

    def age_days(self, now: "datetime | None" = None) -> "float | None":
        """Profile age in days, or ``None`` when ``created`` is absent
        or unparsable (legacy files; staleness then cannot be judged)."""
        if not self.created:
            return None
        try:
            created = datetime.fromisoformat(self.created)
        except ValueError:
            return None
        if created.tzinfo is None:
            created = created.replace(tzinfo=timezone.utc)
        now = now if now is not None else clock.utc_now()
        return (now - created).total_seconds() / 86_400.0

    def to_payload(self) -> dict:
        return {
            "schema": self.schema,
            "host": self.host,
            # both spellings: "created_at" is the documented key,
            # "created" keeps pre-staleness readers working
            "created": self.created,
            "created_at": self.created,
            "grid": self.grid,
            "thresholds": {
                policy: t.as_dict() for policy, t in sorted(self.thresholds.items())
            },
            "sharding": self.sharding.as_dict() if self.sharding else None,
            "measurements": list(self.measurements),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CalibrationProfile":
        if not isinstance(payload, dict):
            raise ValidationError("calibration profile must be a JSON object")
        schema = payload.get("schema")
        if schema != CALIBRATION_SCHEMA:
            raise ValidationError(
                f"calibration schema {schema!r} != supported "
                f"{CALIBRATION_SCHEMA}"
            )
        raw = payload.get("thresholds")
        if not isinstance(raw, dict):
            raise ValidationError("calibration profile lacks 'thresholds'")
        thresholds: dict[str, PolicyThresholds] = {}
        for policy, t in raw.items():
            MatchPolicy(policy)  # unknown policy names are a schema error
            thresholds[policy] = PolicyThresholds(
                sweep_max_n=int(t["sweep_max_n"]),
                sweep_chars_per_episode=float(t["sweep_chars_per_episode"]),
            )
        raw_sharding = payload.get("sharding")
        sharding = None
        if raw_sharding is not None:
            sharding = ShardingCosts(
                pool_spawn_s=float(raw_sharding["pool_spawn_s"]),
                dispatch_s=float(raw_sharding["dispatch_s"]),
                ops_per_sec=float(raw_sharding["ops_per_sec"]),
                probed_workers=int(raw_sharding["probed_workers"]),
            )
        return cls(
            thresholds=thresholds,
            sharding=sharding,
            host=str(payload.get("host", ANY_HOST)),
            created=str(payload.get("created_at") or payload.get("created", "")),
            schema=int(schema),
            grid=payload.get("grid", {}) or {},
            measurements=tuple(payload.get("measurements", ())),
        )


def save_profile(profile: CalibrationProfile, path: "Path | str") -> Path:
    """Write ``profile`` as ``calibration.json`` at ``path``.

    The write is atomic (temp file + ``os.replace``;
    :mod:`repro.resilience.atomic`): a crash or ^C mid-calibrate leaves
    any previous profile intact instead of a half-written file that
    every later run would reject with a corrupt-profile warning.
    """
    from repro.resilience.atomic import atomic_write_text

    return atomic_write_text(
        path, json.dumps(profile.to_payload(), indent=2) + "\n"
    )


#: one-time latch for the staleness warning (advisory: a stale profile
#: is still *used*, unlike host/schema mismatches); reset alongside the
#: ambient cache by :func:`reset_active_profile`
_stale_warned = False


def _resolved_max_age_days(max_age_days: "float | None") -> float:
    if max_age_days is not None:
        return float(max_age_days)
    env = os.environ.get(MAX_AGE_ENV_VAR)
    if env:
        try:
            return float(env)
        except ValueError:
            warnings.warn(
                f"ignoring non-numeric {MAX_AGE_ENV_VAR}={env!r}",
                RuntimeWarning,
                stacklevel=3,
            )
    return DEFAULT_MAX_PROFILE_AGE_DAYS


def _warn_if_stale(
    profile: CalibrationProfile, path: Path, max_age_days: "float | None"
) -> None:
    """Once per process, flag a profile past the staleness horizon.

    Staleness is advisory — measured crossovers drift with OS/library
    updates but never affect exactness — so the profile is still used;
    the warning just carries the recalibration hint.  A profile without
    a parsable ``created_at`` (legacy files) cannot be judged and stays
    silent.
    """
    global _stale_warned
    if _stale_warned:
        return
    limit = _resolved_max_age_days(max_age_days)
    if limit <= 0:
        return  # staleness checking disabled
    age = profile.age_days()
    if age is None or age <= limit:
        return
    _stale_warned = True
    warnings.warn(
        f"calibration profile {path} is {age:.0f} days old "
        f"(staleness limit {limit:g} days; configure via "
        f"{MAX_AGE_ENV_VAR}); the measured crossovers may have drifted "
        "— refresh with `repro calibrate`",
        RuntimeWarning,
        stacklevel=3,
    )


def load_profile(
    path: "Path | str",
    *,
    require_host: bool = True,
    max_age_days: "float | None" = None,
) -> "CalibrationProfile | None":
    """Load a profile, degrading to ``None`` instead of crashing.

    A missing file is a quiet ``None``; a corrupted or wrong-schema
    file warns and returns ``None`` (dispatch falls back to the fixed
    constants).  When ``require_host`` is true, a fingerprint mismatch
    also warns — with recalibration advice — and returns ``None``;
    explicit CLI paths pass ``require_host=False`` to honor the user's
    choice while still surfacing the advice.  A profile older than
    ``max_age_days`` (default :data:`DEFAULT_MAX_PROFILE_AGE_DAYS`,
    overridable via the :data:`MAX_AGE_ENV_VAR` environment variable;
    ``<= 0`` disables) warns once per process — and is still used:
    staleness is advice, not an error.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text())
        profile = CalibrationProfile.from_payload(payload)
    except (ValidationError, ValueError, KeyError, TypeError, OSError) as exc:
        warnings.warn(
            f"ignoring unreadable calibration profile {path}: {exc}; "
            "falling back to fixed engine heuristics "
            "(regenerate with `repro calibrate`)",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    if not profile.matches_host():
        warnings.warn(
            f"calibration profile {path} was measured on host "
            f"{profile.host!r} but this is {host_fingerprint()!r}; "
            "run `repro calibrate` to re-measure"
            + ("" if require_host else " (using it anyway: explicit path)"),
            RuntimeWarning,
            stacklevel=2,
        )
        if require_host:
            return None
    _warn_if_stale(profile, path, max_age_days)
    return profile


# ---------------------------------------------------------------------------
# Ambient (process-wide) profile resolution
# ---------------------------------------------------------------------------

_UNSET = object()
_active: "CalibrationProfile | None | object" = _UNSET


def set_active_profile(profile: "CalibrationProfile | None") -> None:
    """Pin the ambient profile (``None`` disables calibration entirely)."""
    global _active
    _active = profile


def reset_active_profile() -> None:
    """Forget any pinned/cached ambient profile (re-resolve lazily).

    Also re-arms the one-time staleness warning: after ``repro
    calibrate`` rewrites the file (or a test swaps profiles), the next
    stale load should speak up again.
    """
    global _active, _stale_warned
    _active = _UNSET
    _stale_warned = False


def active_profile() -> "CalibrationProfile | None":
    """The ambient profile: pinned value, else env var, else default path.

    Resolution is memoized; :func:`reset_active_profile` clears it
    (tests, or after `repro calibrate` rewrote the default file).
    """
    global _active
    if _active is not _UNSET:
        return _active  # type: ignore[return-value]
    env = os.environ.get(ENV_VAR)
    if env:
        _active = load_profile(env)
    else:
        default = default_profile_path()
        _active = load_profile(default) if default is not None else None
    return _active  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Micro-probe harness
# ---------------------------------------------------------------------------

def _time_best(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = clock.now()
        fn()
        best = min(best, clock.now() - t0)
    return best


def _probe_matrix(rng: np.random.Generator, n_episodes: int,
                  alphabet_size: int) -> np.ndarray:
    """Deterministic level-``PROBE_LEVEL`` episode batch (distinct rows
    are irrelevant to timing; repeated symbols are allowed downstream)."""
    return rng.integers(
        0, alphabet_size, (n_episodes, PROBE_LEVEL)
    ).astype(np.uint8)


def probe_engine_grid(
    sizes: "tuple[int, ...]" = FULL_SIZES,
    episode_counts: "tuple[int, ...]" = FULL_EPISODES,
    repeats: int = 2,
    alphabet_size: int = 26,
    seed: int = PROBE_SEED,
) -> "list[dict]":
    """Time ``vector-sweep`` vs ``position-hop`` on every grid cell.

    Returns one row per (policy, n, E) with both engines' best-of
    seconds.  RESET is excluded: both engines take the same O(n) n-gram
    path there, so there is no crossover to measure.
    """
    from repro.mining.counting import DatabaseIndex
    from repro.mining.engines import get_engine

    rng = np.random.default_rng(seed)
    rows: list[dict] = []
    sweep = get_engine("vector-sweep")
    hop = get_engine("position-hop")
    for n in sizes:
        db = rng.integers(0, alphabet_size, n).astype(np.uint8)
        index = DatabaseIndex(db)
        for n_eps in episode_counts:
            matrix = _probe_matrix(rng, n_eps, alphabet_size)
            for policy, window in (
                (MatchPolicy.SUBSEQUENCE, None),
                (MatchPolicy.EXPIRING, PROBE_WINDOW),
            ):
                t_sweep = _time_best(
                    # repro: noqa REP003 probe times the bare counting call; scope entry would pollute the measurement
                    lambda: sweep.count(db, matrix, alphabet_size, policy,
                                        window),
                    repeats,
                )
                t_hop = _time_best(
                    # repro: noqa REP003 probe times the bare counting call; scope entry would pollute the measurement
                    lambda: hop.count(db, matrix, alphabet_size, policy,
                                      window, index=index),
                    repeats,
                )
                rows.append(
                    {
                        "policy": policy.value,
                        "n": n,
                        "episodes": n_eps,
                        "sweep_s": round(t_sweep, 6),
                        "hop_s": round(t_hop, 6),
                    }
                )
    return rows


def probe_auto_vs_fixed(
    profile: "CalibrationProfile | None",
    sizes: "tuple[int, ...]" = QUICK_SIZES,
    episode_counts: "tuple[int, ...]" = QUICK_EPISODES,
    repeats: int = 2,
    alphabet_size: int = 26,
    seed: int = PROBE_SEED,
    fixed_rows: "list[dict] | None" = None,
) -> "list[dict]":
    """Time calibrated-auto against both fixed engines on the grid.

    One row per (policy, n, E): the fixed engines' best-of seconds, the
    calibrated :class:`AutoEngine`'s seconds, and the engine it chose —
    the evidence behind the ``auto_calibration`` benchmark series
    (``check_regression.check_auto_calibration`` asserts auto stays
    within tolerance of the best fixed engine).

    ``fixed_rows`` (rows shaped like :func:`probe_engine_grid` output —
    typically ``profile.measurements`` when the profile was fitted on
    the same grid and seed) supplies already-measured sweep/hop seconds
    so only the auto column is timed; cells absent from it are measured
    fresh.
    """
    from repro.mining.counting import DatabaseIndex
    from repro.mining.engines import AutoEngine, get_engine

    auto = AutoEngine(profile=profile)
    sweep = get_engine("vector-sweep")
    hop = get_engine("position-hop")
    measured = {
        (row["policy"], row["n"], row["episodes"]): row
        for row in (fixed_rows or ())
    }
    rng = np.random.default_rng(seed)
    rows: list[dict] = []
    for n in sizes:
        db = rng.integers(0, alphabet_size, n).astype(np.uint8)
        index = DatabaseIndex(db)
        for n_eps in episode_counts:
            matrix = _probe_matrix(rng, n_eps, alphabet_size)
            for policy, window in (
                (MatchPolicy.SUBSEQUENCE, None),
                (MatchPolicy.EXPIRING, PROBE_WINDOW),
            ):
                prior = measured.get((policy.value, n, n_eps))
                if prior is not None:
                    t_sweep, t_hop = prior["sweep_s"], prior["hop_s"]
                else:
                    t_sweep = _time_best(
                        # repro: noqa REP003 probe times the bare counting call; scope entry would pollute the measurement
                        lambda: sweep.count(db, matrix, alphabet_size, policy,
                                            window),
                        repeats,
                    )
                    t_hop = _time_best(
                        # repro: noqa REP003 probe times the bare counting call; scope entry would pollute the measurement
                        lambda: hop.count(db, matrix, alphabet_size, policy,
                                          window, index=index),
                        repeats,
                    )
                t_auto = _time_best(
                    lambda: auto.count(db, matrix, alphabet_size, policy,
                                       window, index=index),
                    repeats,
                )
                best_s = min(t_sweep, t_hop)
                rows.append(
                    {
                        "policy": policy.value,
                        "n": n,
                        "episodes": n_eps,
                        "sweep_s": round(t_sweep, 6),
                        "hop_s": round(t_hop, 6),
                        "auto_s": round(t_auto, 6),
                        "chosen": auto.select(n, n_eps, policy).name,
                        "best_engine": (
                            "vector-sweep" if t_sweep <= t_hop
                            else "position-hop"
                        ),
                        "ratio_vs_best": round(t_auto / best_s, 3)
                        if best_s > 0 else 1.0,
                    }
                )
    return rows


def fit_thresholds(rows: "list[dict]") -> "dict[str, PolicyThresholds]":
    """Fit per-policy crossover boundaries from probe rows.

    Exhaustive search over candidate ``(sweep_max_n,
    chars_per_episode)`` pairs (grid values plus the fixed defaults),
    scoring each by the *regret* it would incur on the measured grid —
    the summed time lost on cells where the rule picks the slower
    engine.  Minimizing regret (not misclassification count) makes
    don't-care cells, where both engines tie, cost nothing.
    """
    from repro.mining.engines import AutoEngine

    # the fixed fallback constants anchor the candidate set and the
    # tie-break, so profiles degrade gracefully toward them when the
    # grid cannot distinguish (never a hard-coded copy that can drift)
    default_n = int(AutoEngine.SWEEP_MAX_N)
    default_c = float(AutoEngine.SWEEP_CHARS_PER_EPISODE)
    by_policy: dict[str, list[dict]] = {}
    for row in rows:
        by_policy.setdefault(row["policy"], []).append(row)
    fitted: dict[str, PolicyThresholds] = {}
    for policy, cells in by_policy.items():
        ns = sorted({c["n"] for c in cells})
        ratios = sorted({c["n"] / c["episodes"] for c in cells})
        n_candidates = [0] + ns + [2 * ns[-1]] + [default_n]
        # a hair above each grid value so `n < bound` includes the cell
        n_candidates += [n + 1 for n in ns]
        c_candidates = sorted(
            {1.0, default_c, *(r for r in ratios),
             *(r * 1.01 for r in ratios)}
        )
        best: "tuple[float, float, PolicyThresholds] | None" = None
        for max_n in sorted(set(n_candidates)):
            for chars in c_candidates:
                t = PolicyThresholds(int(max_n), float(chars))
                regret = 0.0
                for c in cells:
                    pick_sweep = t.prefers_sweep(c["n"], c["episodes"])
                    chosen = c["sweep_s"] if pick_sweep else c["hop_s"]
                    regret += chosen - min(c["sweep_s"], c["hop_s"])
                # tie-break toward the fixed defaults (smallest distance
                # keeps profiles stable when the grid cannot distinguish)
                distance = abs(max_n - default_n) + abs(chars - default_c)
                key = (regret, distance)
                if best is None or key < (best[0], best[1]):
                    best = (regret, distance, t)
        assert best is not None  # by_policy never yields empty cell lists
        fitted[policy] = best[2]
    return fitted


def probe_sharding_costs(
    workers: "int | None" = None,
    n: int = 24_576,
    n_episodes: int = 256,
    repeats: int = 2,
    alphabet_size: int = 26,
    seed: int = PROBE_SEED,
) -> "ShardingCosts | None":
    """Measure pool spawn + dispatch overheads and inline throughput.

    Returns ``None`` on platforms whose process pools cannot spawn
    (sandboxes) — :class:`ShardedEngine` keeps its fixed defaults there.
    """
    from repro.mapreduce.cpu_engine import ProcessPoolEngine
    from repro.mapreduce.types import KeyValue, MapReduceJob
    from repro.mining.counting import DatabaseIndex
    from repro.mining.engines import get_engine

    w = workers if workers is not None else min(os.cpu_count() or 1, 8)
    t0 = clock.now()
    pool = ProcessPoolEngine(workers=w)
    try:
        pool.__enter__()
    except (OSError, RuntimeError):
        return None
    spawn_s = clock.now() - t0
    try:
        job = MapReduceJob(
            inputs=[KeyValue(i, i) for i in range(w)],
            mapper=_identity_mapper,
            reducer=_first_value_reducer,
        )
        dispatch_s = _time_best(lambda: pool.run(job), repeats)
    finally:
        pool.__exit__(None, None, None)
    rng = np.random.default_rng(seed)
    db = rng.integers(0, alphabet_size, n).astype(np.uint8)
    matrix = _probe_matrix(rng, n_episodes, alphabet_size)
    index = DatabaseIndex(db)
    hop = get_engine("position-hop")
    inline_s = _time_best(
        # repro: noqa REP003 probe times the bare counting call; scope entry would pollute the measurement
        lambda: hop.count(db, matrix, alphabet_size,
                          MatchPolicy.SUBSEQUENCE, None, index=index),
        repeats,
    )
    ops = (n * n_episodes / inline_s) if inline_s > 0 else 0.0
    return ShardingCosts(
        pool_spawn_s=round(spawn_s, 6),
        dispatch_s=round(max(dispatch_s, 1e-6), 6),
        ops_per_sec=round(ops, 1),
        probed_workers=w,
    )


def _identity_mapper(record: object) -> "list[object]":
    """Trivial mapper for the dispatch probe (module-level: picklable)."""
    return [record]


def _first_value_reducer(key: object, values: list) -> object:
    return values[0]


def run_calibration(
    quick: bool = False,
    workers: "int | None" = None,
    repeats: int = 2,
    include_sharding: bool = True,
    host: "str | None" = None,
    recorder: "object | None" = None,
) -> CalibrationProfile:
    """Run the full micro-probe harness and return a fitted profile.

    ``quick`` shrinks the grid (used by benchmarks and tests);
    ``host=ANY_HOST`` stamps a fixture profile valid on any machine.
    ``recorder`` (a :class:`~repro.obs.recorder.Recorder`) traces the
    probe phases — grid probing, threshold fitting, the sharding-cost
    probe — as spans, with the probed cell count as a counter.
    """
    from repro.obs.recorder import resolve_recorder

    rec = resolve_recorder(recorder)  # type: ignore[arg-type]
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    sizes = QUICK_SIZES if quick else FULL_SIZES
    episode_counts = QUICK_EPISODES if quick else FULL_EPISODES
    with rec.span("probe-grid", sizes=len(sizes),
                  episodes=len(episode_counts), repeats=repeats):
        rows = probe_engine_grid(sizes, episode_counts, repeats=repeats)
    rec.count("calibration.probe_cells", len(rows))
    with rec.span("fit-thresholds"):
        thresholds = fit_thresholds(rows)
    with rec.span("probe-sharding", included=include_sharding):
        sharding = (
            probe_sharding_costs(workers=workers, repeats=repeats)
            if include_sharding
            else None
        )
    return CalibrationProfile(
        thresholds=thresholds,
        sharding=sharding,
        host=host if host is not None else host_fingerprint(),
        created=clock.utc_stamp(),
        schema=CALIBRATION_SCHEMA,
        grid={
            "sizes": list(sizes),
            "episodes": list(episode_counts),
            "repeats": repeats,
            "level": PROBE_LEVEL,
            "window": PROBE_WINDOW,
        },
        measurements=tuple(rows),
    )
