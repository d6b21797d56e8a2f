"""The batched lookup/insert engine (semantically identical to the resolver).

:class:`FastpathEngine` executes the DMap protocol arithmetic of
:class:`~repro.core.resolver.DMapResolver` over whole workloads at once:

* GUIDs are placed **once** per unique identifier (the scalar resolver
  re-derives the K hosting ASs on every lookup);
* lookups are grouped by source AS, so each group needs exactly one
  cached Dijkstra row; the group loop only gathers the planes that
  depend on the querier (selection keys, RTTs, the §III-C local branch),
  and whole groups are batched into blocks of about :data:`BLOCK_ROWS`;
* each block is walked once: a row-wise stable ``argsort`` of the keys
  (the tie-breaking of :class:`~repro.core.replication.ReplicaSelector`),
  the §III-D.3 failed-attempt accounting (one RTT per "GUID missing", an
  adaptive timeout per dead replica) as prefix sums over the walk-cost
  matrix, and :func:`~repro.core.resolver.race_verdict` for the §III-C
  local race.  Without an availability model every replica hits, so
  the walk stops at the best-ranked one.

Latency arithmetic reproduces the scalar path bit for bit: selection
keys use the same float32-row + float64-intra expression as
``Router.one_way_to_many``, and final RTTs widen the row to float64
before the identical left-to-right sum (see ``Router.rtt_to_many``), so
equivalence tests can assert exact equality, not just closeness.

Deliberate limits (the scalar resolver stays the oracle):

* the prefix table must not mutate between placement and lookup — BGP
  churn replays belong to :class:`DMapResolver` / :mod:`repro.sim`;
* the engine models the *converged* post-write state: every global
  replica of an inserted GUID holds the mapping (availability models can
  still inject timeouts/stale misses per (AS, GUID) pair);
* the ``"random"`` selection policy draws from a per-lookup RNG stream
  whose consumption order is inherently sequential, and is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..bgp.table import GlobalPrefixTable
from ..core.guid import GUID, guid_like
from ..core.resolver import (
    DEFAULT_TIMEOUT_MS,
    adaptive_timeout_ms,
    local_branch,
    race_verdict,
)
from ..errors import ConfigurationError, DMapError, RoutingError
from ..hashing.hashers import HashFamily, Sha256Hasher
from ..hashing.rehash import DEFAULT_MAX_REHASHES, GuidPlacer
from ..obs.trace import (
    NULL_TRACER,
    OUTCOME_HIT,
    OUTCOME_MISSING,
    OUTCOME_TIMEOUT,
    PlacementRecord,
    QueryTrace,
    Tracer,
    build_query_trace,
)
from ..topology.routing import Router
from .placement import batch_resolutions

#: Selection policies the batch engine reproduces exactly.
SUPPORTED_POLICIES = ("latency", "hops")

#: Lookups walked and decided together: whole source-AS groups are
#: gathered until a block holds about this many rows, which keeps the
#: per-attempt planes small while amortizing numpy call overhead.
BLOCK_ROWS = 8192

#: Integer outcome codes for the vectorized walk.
_HIT, _MISSING, _TIMEOUT = 0, 1, 2
_OUTCOME_CODES = {
    OUTCOME_HIT: _HIT,
    OUTCOME_MISSING: _MISSING,
    OUTCOME_TIMEOUT: _TIMEOUT,
}
_CODE_OUTCOMES = {code: name for name, code in _OUTCOME_CODES.items()}


class FastpathUnsupportedError(DMapError):
    """The requested configuration needs the scalar oracle."""


class _ProbeAdapter:
    """Wrap a bare ``(asn, guid) -> outcome`` probe as a failure model."""

    def __init__(self, probe: Callable[[int, GUID], str]) -> None:
        self._probe = probe

    def lookup_outcome(self, asn: int, guid: GUID) -> str:
        """Fate of a global lookup arriving at ``asn``."""
        return self._probe(asn, guid)

    def is_down(self, asn: int) -> bool:
        """Bare probes cannot mark a querier's own AS as down."""
        return False


@dataclass
class GuidBatch:
    """A workload's unique GUIDs with their (frozen) placements.

    Attributes
    ----------
    guids:
        Unique identifiers, in workload order.
    placements:
        ``(len(guids), K)`` hosting ASNs in replica order.
    local_asns:
        Current attachment AS per GUID (where the §III-C local copy
        lives), or ``-1`` when the GUID has no local copy.
    hash_attempts / via_deputy:
        ``(len(guids), K)`` Algorithm 1 provenance planes (hash
        applications per chain; deputy-fallback flag), matching the
        scalar placer's ``resolve_all`` exactly.
    """

    guids: List[GUID]
    placements: np.ndarray
    local_asns: np.ndarray
    hash_attempts: np.ndarray
    via_deputy: np.ndarray

    def placement_records(self, guid_index: int) -> Tuple[PlacementRecord, ...]:
        """The trace-layer placement view of one indexed GUID."""
        asns = self.placements[guid_index]
        return tuple(
            PlacementRecord(
                int(asn),
                int(self.hash_attempts[guid_index, j]),
                bool(self.via_deputy[guid_index, j]),
            )
            for j, asn in enumerate(asns)
        )


@dataclass
class BatchLookupResult:
    """Per-lookup outcomes, aligned with the query arrays passed in."""

    rtt_ms: np.ndarray
    served_by: np.ndarray
    used_local: np.ndarray
    attempts: np.ndarray
    success: np.ndarray

    def __len__(self) -> int:
        return len(self.rtt_ms)


class FastpathEngine:
    """Vectorized twin of :class:`~repro.core.resolver.DMapResolver`.

    Constructor parameters mirror the resolver's; ``placer`` is any
    shipped placer (:data:`repro.fastpath.placement.Placer`).
    """

    def __init__(
        self,
        table: GlobalPrefixTable,
        router: Router,
        k: int = 5,
        hash_family: Optional[HashFamily] = None,
        selection_policy: str = "latency",
        local_replica: bool = True,
        max_rehashes: int = DEFAULT_MAX_REHASHES,
        timeout_ms: float = DEFAULT_TIMEOUT_MS,
        placer=None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if timeout_ms <= 0:
            raise ConfigurationError("timeout_ms must be positive")
        if selection_policy not in SUPPORTED_POLICIES:
            raise FastpathUnsupportedError(
                f"selection policy {selection_policy!r} is not batchable; "
                f"use the scalar resolver (supported: {SUPPORTED_POLICIES})"
            )
        self.table = table
        self.router = router
        self.hash_family = hash_family or Sha256Hasher(k, address_bits=table.bits)
        self.placer = placer or GuidPlacer(self.hash_family, table, max_rehashes)
        self.selection_policy = selection_policy
        self.local_replica = local_replica
        self.timeout_ms = timeout_ms
        # Explicit None check: an empty CollectingTracer is falsy (len 0).
        self.tracer = tracer if tracer is not None else NULL_TRACER

    @classmethod
    def from_resolver(cls, resolver) -> "FastpathEngine":
        """Build an engine sharing a resolver's exact configuration."""
        return cls(
            resolver.table,
            resolver.router,
            selection_policy=resolver.selector.policy,
            local_replica=resolver.local_replica,
            timeout_ms=resolver.timeout_ms,
            placer=resolver.placer,
            tracer=resolver.tracer,
        )

    @property
    def k(self) -> int:
        """Replication factor."""
        return self.placer.k

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def index_guids(
        self,
        guids: Sequence[Union[GUID, int, str]],
        local_asns: Optional[Sequence[int]] = None,
    ) -> GuidBatch:
        """Resolve every GUID's K hosting ASs once, up front.

        ``local_asns`` records where each GUID's local copy currently
        lives (its latest insert/update source); omit it when the
        engine's ``local_replica`` is off.
        """
        glist = [guid_like(g) for g in guids]
        placements, hash_attempts, via_deputy = batch_resolutions(
            self.placer, [g.value for g in glist]
        )
        if local_asns is None:
            local = np.full(len(glist), -1, dtype=np.int64)
        else:
            local = np.asarray(local_asns, dtype=np.int64)
            if local.shape != (len(glist),):
                raise ConfigurationError(
                    "local_asns must align one-to-one with guids"
                )
        return GuidBatch(glist, placements, local, hash_attempts, via_deputy)

    # ------------------------------------------------------------------
    # Write path (accounting only — the engine keeps no stores)
    # ------------------------------------------------------------------
    def write_rtts(
        self,
        batch: GuidBatch,
        guid_idx: np.ndarray,
        sources: np.ndarray,
    ) -> np.ndarray:
        """Insert/update RTTs: the max of the K parallel replica writes."""
        guid_idx = np.asarray(guid_idx, dtype=np.int64)
        sources = np.asarray(sources, dtype=np.int64)
        out = np.empty(len(guid_idx), dtype=np.float64)
        order, edges = source_groups(sources)
        for lo, hi in zip(edges[:-1], edges[1:]):
            rows = order[lo:hi]
            cand = batch.placements[guid_idx[rows]]
            rtts = self.router.rtt_to_many(int(sources[rows[0]]), cand.ravel())
            out[rows] = rtts.reshape(cand.shape).max(axis=1)
        return out

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def lookup_batch(
        self,
        batch: GuidBatch,
        guid_idx: np.ndarray,
        sources: np.ndarray,
        availability=None,
        n_jobs: int = 1,
        issued_at: Optional[np.ndarray] = None,
    ) -> BatchLookupResult:
        """Resolve many lookups; row ``i`` queries ``batch.guids[guid_idx[i]]``
        from AS ``sources[i]``.

        ``availability`` is either a failure model exposing
        ``lookup_outcome(asn, guid)`` / ``is_down(asn)`` (as in
        :mod:`repro.validation.scenarios`) or a bare probe callable; it
        must be deterministic per (AS, GUID) so batch evaluation order
        cannot change outcomes.  ``n_jobs > 1`` shards source-AS groups
        across worker processes (availability-free workloads only).
        ``issued_at`` stamps each lookup's issue time onto its emitted
        trace (tracing only; the arithmetic itself is time-free).
        """
        guid_idx = np.asarray(guid_idx, dtype=np.int64)
        sources = np.asarray(sources, dtype=np.int64)
        if guid_idx.shape != sources.shape or guid_idx.ndim != 1:
            raise ConfigurationError("guid_idx and sources must be 1-D and aligned")
        model = availability
        if model is not None and not hasattr(model, "lookup_outcome"):
            model = _ProbeAdapter(model)
        if n_jobs > 1:
            if model is not None:
                raise FastpathUnsupportedError(
                    "sharded execution supports availability-free workloads only"
                )
            if self.tracer.enabled:
                raise FastpathUnsupportedError(
                    "per-query traces cannot cross process shards; "
                    "run tracing with n_jobs=1"
                )
            from .runner import run_sharded

            return run_sharded(self, batch, guid_idx, sources, n_jobs)
        return self._lookup_serial(batch, guid_idx, sources, model, issued_at)

    def _lookup_serial(
        self,
        batch: GuidBatch,
        guid_idx: np.ndarray,
        sources: np.ndarray,
        model=None,
        issued_at: Optional[np.ndarray] = None,
    ) -> BatchLookupResult:
        n = len(guid_idx)
        rtt = np.empty(n, dtype=np.float64)
        served = np.full(n, -1, dtype=np.int64)
        used_local = np.zeros(n, dtype=bool)
        attempts = np.zeros(n, dtype=np.int64)
        success = np.zeros(n, dtype=bool)
        tracing = self.tracer.enabled
        trace_slots: List[Optional[QueryTrace]] = [None] * n if tracing else []
        times = None
        if tracing:
            times = (
                np.zeros(n, dtype=np.float64)
                if issued_at is None
                else np.asarray(issued_at, dtype=np.float64)
            )
            if times.shape != (n,):
                raise ConfigurationError(
                    "issued_at must align one-to-one with guid_idx"
                )
        order, edges = source_groups(sources)
        cuts = cut_at_groups(edges, np.arange(BLOCK_ROWS, n, BLOCK_ROWS))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            rows = order[lo:hi]
            first, last = np.searchsorted(edges, (lo, hi))
            block = self._lookup_block(
                batch,
                guid_idx[rows],
                sources[rows],
                edges[first : last + 1] - lo,
                model,
                times[rows] if tracing else None,
            )
            rtt[rows], served[rows], used_local[rows], attempts[rows], success[rows] = block[:5]
            if tracing:
                for row, trace in zip(rows.tolist(), block[5]):
                    trace_slots[row] = trace
        if not np.all(np.isfinite(rtt)):
            bad = int(np.flatnonzero(~np.isfinite(rtt))[0])
            raise RoutingError(
                f"lookup {bad} reached an unreachable replica "
                f"(source AS {int(sources[bad])})"
            )
        # Emit in input-row order so raw emission order matches the
        # workload's issue order (the canonical JSONL sort is on top).
        for trace in trace_slots:
            if trace is not None:
                self.tracer.record(trace)
        return BatchLookupResult(rtt, served, used_local, attempts, success)

    # -- one block of whole source-AS groups ----------------------------
    def _selection_keys(self, src: int, cand_idx: np.ndarray) -> np.ndarray:
        """Ordering keys, identical to ``ReplicaSelector.order_candidates``."""
        router = self.router
        src_idx = router.topology.index_of(src)
        if self.selection_policy == "latency":
            # Same expression as Router.one_way_to_many (float32 row +
            # float64 intra), so ranking ties break identically.
            row = router.latency_row(src)
            intra = router.intra_array
            key = intra[src_idx] + row[cand_idx] + intra[cand_idx]
            key[cand_idx == src_idx] = intra[src_idx]
            return key
        row = router.hop_row(src)
        key = row[cand_idx].astype(np.float64)
        key[cand_idx == src_idx] = 0.0
        return key

    def _lookup_block(
        self,
        batch: GuidBatch,
        gidx: np.ndarray,
        src: np.ndarray,
        edges: np.ndarray,
        model=None,
        issued_at: Optional[np.ndarray] = None,
    ) -> Tuple[object, ...]:
        """Walk and decide a block of whole source groups in one pass.

        Group ``g`` is rows ``edges[g]:edges[g + 1]`` (one querier AS,
        hence one Dijkstra row).  The group loop only gathers the per-row
        planes that depend on the querier; the walk and the §III-C
        verdict then run once over the whole block.  Per-row traces are
        appended to the result when ``issued_at`` is given.
        """
        cand = batch.placements[gidx]
        m, k = cand.shape
        cand_idx = self.router.indices_of(cand)
        key = np.empty((m, k), dtype=np.float64)
        rtt_all = np.empty((m, k), dtype=np.float64)
        branch = np.empty(m, dtype=bool)
        local_end = np.empty(m, dtype=np.float64)
        src_down = np.zeros(m, dtype=bool)
        for lo, hi in zip(edges[:-1], edges[1:]):
            asn = int(src[lo])
            key[lo:hi] = self._selection_keys(asn, cand_idx[lo:hi])
            rtt_all[lo:hi] = self.router.rtt_to_many(
                asn, cand[lo:hi].ravel(), strict=False
            ).reshape(hi - lo, k)
            down = model is not None and model.is_down(asn)
            branch[lo:hi], local_end[lo:hi] = local_branch(self, asn, cand[lo:hi], down)
            src_down[lo:hi] = down
        # A down querier's local store never answers.
        local_entry = branch & (batch.local_asns[gidx] == src) & ~src_down
        if model is None:
            outcome = np.zeros((m, k), dtype=np.int8)  # every replica hits
        else:
            outcome = _outcome_matrix(batch, gidx, cand, model)

        order = np.argsort(key, axis=1, kind="stable")
        s_cand = np.take_along_axis(cand, order, axis=1)
        s_out = np.take_along_axis(outcome, order, axis=1)
        s_rtt = np.take_along_axis(rtt_all, order, axis=1)
        # Duplicate hash chains landing in one AS are a single queryable
        # host: later occurrences are skipped at zero cost.
        dup = np.zeros((m, k), dtype=bool)
        for j in range(1, k):
            dup[:, j] = (s_cand[:, :j] == s_cand[:, j : j + 1]).any(axis=1)
        cost = np.where(
            s_out == _TIMEOUT, adaptive_timeout_ms(self.timeout_ms, s_rtt), s_rtt
        )
        cost = np.where(dup, 0.0, cost)
        hit = (~dup) & (s_out == _HIT)
        has_hit = hit.any(axis=1)
        first_hit = np.argmax(hit, axis=1)
        after = has_hit[:, None] & (np.arange(k)[None, :] > first_hit[:, None])
        walk_cost = np.where(after, 0.0, cost)
        elapsed = np.cumsum(walk_cost, axis=1)

        # Nothing is charged after the first hit, so the last column is
        # the walk's end: the hit's RTT, or the whole failed walk.
        won, rtt = race_verdict(local_entry, local_end, branch, has_hit, elapsed[:, -1])
        success = has_hit | local_entry
        served = np.where(
            won, src, np.where(has_hit, s_cand[np.arange(m), first_hit], -1)
        )
        # The walk issues every non-duplicate attempt up to the first
        # hit, except those due once the winning local reply has landed.
        issued = (~dup) & ~after
        issued &= ~won[:, None] | (elapsed - walk_cost < local_end[:, None])
        result = (rtt, served, won, issued.sum(axis=1), success)
        if issued_at is None:
            return result
        local_codes = np.where(
            src_down, _TIMEOUT, np.where(local_entry, _HIT, _MISSING)
        )
        traces = [
            build_query_trace(
                batch.guids[gidx[r]].value, int(src[r]), float(issued_at[r]),
                batch.placement_records(int(gidx[r])),
                (
                    (int(s_cand[r, j]), _CODE_OUTCOMES[int(s_out[r, j])],
                     float(cost[r, j]))
                    for j in np.flatnonzero(issued[r])
                ),
                bool(branch[r]),
                _CODE_OUTCOMES[int(local_codes[r])] if branch[r] else None,
                float(local_end[r]) if branch[r] else None, won[r],
                int(served[r]) if success[r] else None, float(rtt[r]),
            )
            for r in range(m)
        ]
        return result + (traces,)


def _outcome_matrix(
    batch: GuidBatch, gidx: np.ndarray, cand: np.ndarray, model
) -> np.ndarray:
    """Outcome codes per (row, replica), probing each (AS, GUID) once."""
    pairs = np.stack([cand.ravel(), np.repeat(gidx, cand.shape[1])], axis=1)
    unique, inverse = np.unique(pairs, axis=0, return_inverse=True)
    codes = np.empty(len(unique), dtype=np.int8)
    for i, (asn, gi) in enumerate(unique.tolist()):
        raw = model.lookup_outcome(asn, batch.guids[gi])
        if raw not in _OUTCOME_CODES:
            raise ConfigurationError(f"probe returned unknown outcome {raw!r}")
        codes[i] = _OUTCOME_CODES[raw]
    return codes[inverse.ravel()].reshape(cand.shape)


def source_groups(sources: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rows grouped by source AS: ``(order, edges)``.

    ``order`` is the stable argsort of ``sources``, so each group keeps
    the original row order; group ``g`` is ``order[edges[g]:edges[g + 1]]``
    (``edges`` runs from 0 to ``len(sources)``).
    """
    order = np.argsort(sources, kind="stable")
    sorted_src = sources[order]
    starts = np.ones(len(sorted_src), dtype=bool)
    starts[1:] = sorted_src[1:] != sorted_src[:-1]
    return order, np.r_[np.flatnonzero(starts), len(sorted_src)]


def cut_at_groups(edges: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Cut points for slicing grouped rows near row ``targets``.

    Each target moves up to the next group edge, so no group is split;
    the result starts at 0, ends at the row count, and is strictly
    increasing.
    """
    cuts = edges[np.searchsorted(edges, targets, side="left")]
    return np.unique(np.r_[edges[0], cuts, edges[-1]])
