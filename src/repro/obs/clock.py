"""The sanctioned timing seam (REP006).

Counting paths (``repro.mining`` / ``repro.streaming``) must stay pure
functions of the event stream — REP006 forbids clock reads there, and
checkpoint/resume bit-identity depends on it.  But the *measurement*
side of the reproduction (calibration probes, the reference miner's
timing report, span telemetry) legitimately reads the monotonic clock.
This module is the one blessed route: every timing read in the repo
goes through :func:`now`, so the lint rule can treat ``repro.obs.clock``
as the sole sanctioned seam and the full set of timing sites stays
greppable in one place.

Nothing here may ever feed *counted* state — timings go into spans,
reports, and calibration profiles, never into candidate generation or
elimination decisions.
"""

from __future__ import annotations

import time
from datetime import datetime, timezone

__all__ = ["now", "utc_now", "utc_stamp"]


def now() -> float:
    """Monotonic seconds for interval measurement (``perf_counter``)."""
    return time.perf_counter()


def utc_now() -> datetime:
    """Timezone-aware UTC wallclock time, for provenance and artifact
    age; tests freeze it by monkeypatching this function."""
    return datetime.now(timezone.utc)


def utc_stamp() -> str:
    """ISO-8601 UTC wallclock stamp for artifact provenance fields."""
    return utc_now().isoformat(timespec="seconds")
