"""MapReduce framework (paper §2.2).

The paper frames all four mining algorithms as MapReduce programs:
*map* emits (episode, partial-count) pairs, an optional intermediate
step repairs boundary-spanning occurrences, *reduce* sums partials per
episode.  This package provides the general framework (usable for any
key/value job) and CPU engines (serial, thread-pool, and
process-pool).  Counting on the simulated GPU is the ``gpu-sim``
registry engine (:class:`repro.mining.engines.GpuSimEngine`).
"""

from repro.mapreduce.types import KeyValue, MapReduceJob
from repro.mapreduce.framework import MapReduceEngine, run_job
from repro.mapreduce.cpu_engine import (
    ProcessPoolEngine,
    SerialEngine,
    ThreadPoolEngine,
)
from repro.mapreduce.combiner import sum_combiner, group_by_key

__all__ = [
    "KeyValue",
    "MapReduceJob",
    "MapReduceEngine",
    "run_job",
    "SerialEngine",
    "ThreadPoolEngine",
    "ProcessPoolEngine",
    "sum_combiner",
    "group_by_key",
]
