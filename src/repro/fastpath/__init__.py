"""Vectorized batch execution engine for the DMap insert/lookup pipeline.

The scalar :class:`~repro.core.resolver.DMapResolver` replays the paper's
workload (10^5 inserts, 10^6 Mandelbrot-Zipf lookups, §IV-B.1) one GUID at
a time through Python; at paper scale that loop dominates wall-clock.
This package executes the *same protocol arithmetic* as whole numpy
arrays:

* :mod:`repro.fastpath.placement` — :func:`resolve_batch`, the one
  vectorized Algorithm 1 (GUID hashing, interval-index LPM, vectorized
  IP-hole rehash, deputy fallback) that the engine, Fig. 6 and the
  rehash probe all run, plus the §VII AS-number / weighted variants;
* :mod:`repro.fastpath.engine` — :class:`FastpathEngine`: lookups grouped
  by source AS and walked in blocks of whole groups, with §III-D.3
  failed-attempt accounting as row-wise prefix sums and the §III-C race
  decided by :func:`repro.core.resolver.race_verdict`;
* :mod:`repro.fastpath.runner` — an optional ``multiprocessing`` shard
  runner that splits source-AS groups across workers for paper scale.

The scalar resolver remains the semantic *oracle*: the engine is checked
against it per query (exact RTTs, chosen replicas and attempt counts) in
``tests/test_fastpath.py`` and continuously by the ``repro.validation``
differential harness's fastpath lane, which compares every lookup's
trace byte for byte.
"""

from .engine import (
    BatchLookupResult,
    FastpathEngine,
    FastpathUnsupportedError,
    LookupStream,
)
from .placement import batch_resolutions, resolve_batch

__all__ = [
    "BatchLookupResult",
    "FastpathEngine",
    "FastpathUnsupportedError",
    "LookupStream",
    "batch_resolutions",
    "resolve_batch",
]
