"""Compatibility shim left from the removed per-host calibration.

Engine dispatch now always applies the fixed rules of
:class:`~repro.mining.engines.AutoEngine` and
:class:`~repro.mining.engines.ShardedEngine`.  The only reason this
module exists is that the frozen whole-run benchmark
(``perfbench/run.py``) imports :func:`set_active_profile` and calls it
with ``None``.  The next benchmark change drops that import, and then
this module.
"""

from __future__ import annotations


def set_active_profile(profile: None) -> None:
    """No-op: there is no calibration profile to pin."""
