"""Optional multiprocessing shard runner for paper-scale batches.

Lookups grouped by source AS are embarrassingly parallel: each group
touches one Dijkstra row and never mutates shared state (the engine keeps
no stores).  The runner splits the source-AS groups of a batch into
``n_jobs`` row-balanced shards and fans them out over a fork-based
``multiprocessing.Pool``:

* the engine and :class:`~repro.fastpath.engine.GuidBatch` are published
  through a module global *before* forking, so workers inherit them
  copy-on-write and nothing heavyweight (trie, topology, CSR matrices)
  is ever pickled;
* each worker runs the same serial group loop the in-process path uses,
  and its per-row results are scattered back by explicit row indices —
  output is therefore bit-identical to ``n_jobs=1`` regardless of worker
  scheduling;
* platforms without the ``fork`` start method (or ``n_jobs=1``, or a
  single source group) silently fall back to the serial path.

Availability models are not supported here: probe callables may close
over unpicklable scenario state and their memoization is per-process, so
the engine only dispatches availability-free workloads to this runner.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import List, Optional, Tuple

import numpy as np

from .engine import (
    BatchLookupResult,
    FastpathEngine,
    GuidBatch,
    cut_at_groups,
    source_groups,
)

#: (engine, batch) inherited by forked workers; set only around a Pool run.
_SHARED: Optional[Tuple[FastpathEngine, GuidBatch]] = None


def _run_shard(
    shard: Tuple[np.ndarray, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Worker body: run the serial engine over one shard's rows."""
    guid_idx, sources = shard
    engine, batch = _SHARED
    result = engine._lookup_serial(batch, guid_idx, sources, None)
    return (
        result.rtt_ms,
        result.served_by,
        result.used_local,
        result.attempts,
        result.success,
    )


def default_jobs() -> int:
    """Worker count when the caller asks for "all cores"."""
    return os.cpu_count() or 1


def _shard_rows(sources: np.ndarray, n_shards: int) -> List[np.ndarray]:
    """Split row indices into ≤ ``n_shards`` row-balanced shards, cutting
    only at source-AS group boundaries (each group needs its Dijkstra row
    in exactly one worker)."""
    order, edges = source_groups(sources)
    n_shards = max(1, min(n_shards, len(edges) - 1))
    cuts = cut_at_groups(edges, (np.arange(1, n_shards) * len(sources)) // n_shards)
    return [order[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]


def run_sharded(
    engine: FastpathEngine,
    batch: GuidBatch,
    guid_idx: np.ndarray,
    sources: np.ndarray,
    n_jobs: int,
) -> BatchLookupResult:
    """Execute a lookup batch across ``n_jobs`` worker processes.

    Falls back to the serial path when sharding cannot help (one group,
    one job) or fork is unavailable.
    """
    shards = _shard_rows(sources, n_jobs)
    if len(shards) <= 1:
        return engine._lookup_serial(batch, guid_idx, sources, None)
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return engine._lookup_serial(batch, guid_idx, sources, None)

    n = len(sources)
    rtt = np.empty(n, dtype=np.float64)
    served = np.empty(n, dtype=np.int64)
    used_local = np.empty(n, dtype=bool)
    attempts = np.empty(n, dtype=np.int64)
    success = np.empty(n, dtype=bool)

    global _SHARED
    _SHARED = (engine, batch)
    try:
        with ctx.Pool(processes=len(shards)) as pool:
            payloads = [(guid_idx[rows], sources[rows]) for rows in shards]
            for rows, parts in zip(shards, pool.map(_run_shard, payloads)):
                rtt[rows], served[rows], used_local[rows] = parts[0], parts[1], parts[2]
                attempts[rows], success[rows] = parts[3], parts[4]
    finally:
        _SHARED = None
    return BatchLookupResult(rtt, served, used_local, attempts, success)
