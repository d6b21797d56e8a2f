"""Replay one scenario through both execution paths and diff everything.

The analytic path drives a :class:`~repro.core.resolver.DMapResolver`
(churn via :mod:`repro.core.consistency`); the event path drives a
:class:`~repro.sim.simulation.DMapSimulation`.  Both receive independent
copies of the scenario's prefix table, the *shared* read-only router, the
same availability oracle, and replica selectors seeded identically — so
every remaining difference in behaviour is a protocol divergence, not an
environment artifact.

Per-lookup outcomes are matched by issue time (unique per operation) and
compared field by field; RTTs are compared with a tolerance because the
DES accumulates the same latency terms in a different association order.
The fastpath lane (no-churn scenarios) is exact: each lookup's canonical
trace line must equal the analytic one byte for byte.
The final storage state, the two prefix tables, and a three-way LPM
sweep (trie / interval index / flat scan) complete the diff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..bgp.interval_index import HOLE
from ..bgp.table import GlobalPrefixTable
from ..core.consistency import handle_new_announcement, prepare_withdrawal
from ..core.guid import GUID
from ..core.resolver import DMapResolver
from ..errors import LookupFailedError
from ..fastpath import FastpathEngine, LookupStream
from ..obs.export import dumps_trace
from ..obs.trace import CollectingTracer, QueryTrace
from ..sim.simulation import DMapSimulation
from .report import (
    KIND_FASTPATH_TRACE,
    KIND_FASTPATH_WRITE_RTT,
    KIND_LOOKUP_ATTEMPTS,
    KIND_LOOKUP_LOST,
    KIND_LOOKUP_RTT,
    KIND_LOOKUP_SERVED_BY,
    KIND_LOOKUP_SUCCESS,
    KIND_LOOKUP_USED_LOCAL,
    KIND_LPM,
    KIND_STORAGE,
    KIND_TABLE,
    KIND_WRITE_RTT,
    Mismatch,
)
from .scenarios import (
    OP_ANNOUNCE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    OP_WITHDRAW,
    Scenario,
)

#: RTT comparison tolerance: the two paths sum identical float terms in
#: different orders, so exact equality is too strict but anything beyond
#: accumulation noise is a real divergence.
_REL_TOL = 1e-9
_ABS_TOL = 1e-6

#: Domain separation for the LPM probe-address stream.
_LPM_STREAM = 0x1B4D

#: DES-lane lookup fields, in comparison order, with their mismatch kinds.
_LOOKUP_KINDS = {
    "success": KIND_LOOKUP_SUCCESS,
    "served_by": KIND_LOOKUP_SERVED_BY,
    "used_local": KIND_LOOKUP_USED_LOCAL,
    "attempts": KIND_LOOKUP_ATTEMPTS,
    "rtt_ms": KIND_LOOKUP_RTT,
}


@dataclass(frozen=True)
class LookupOutcome:
    """Normalized per-lookup observation from either path."""

    success: bool
    served_by: Optional[int]
    used_local: bool
    attempts: int
    rtt_ms: float


@dataclass
class PathResult:
    """Everything one execution path produced for the diff."""

    lookups: Dict[float, LookupOutcome]
    write_rtts: Dict[float, float]
    storage: Dict[int, frozenset]
    table: GlobalPrefixTable
    replica_addresses: Tuple[int, ...]
    #: Per-lookup traces keyed by issue time; attached to divergence
    #: reports so a mismatch arrives with both sides' full provenance.
    traces: Dict[float, QueryTrace] = field(default_factory=dict)


@dataclass
class ScenarioDiff:
    """Outcome of diffing one scenario."""

    seed: int
    config_line: str
    lookups: int
    writes: int
    lpm_checks: int
    mismatches: Tuple[Mismatch, ...]
    fastpath_lookups: int = 0

    @property
    def clean(self) -> bool:
        return not self.mismatches


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)


def _storage_snapshot(stores: Dict[int, object]) -> Dict[int, frozenset]:
    """Per-AS content sets.  Versions/timestamps are excluded on purpose:
    the resolver derives versions from surviving copies while the DES
    uses a source-side counter, and the two legitimately differ."""
    snapshot: Dict[int, frozenset] = {}
    for asn in sorted(stores):
        store = stores[asn]
        content = frozenset(
            (entry.guid.value, entry.locators) for entry in store
        )
        if content:
            snapshot[asn] = content
    return snapshot


def run_analytic(scenario: Scenario) -> PathResult:
    """Replay the trace through the instant-accounting resolver."""
    table = scenario.fresh_table()
    config = scenario.config
    tracer = CollectingTracer()
    resolver = DMapResolver(
        table,
        scenario.router,
        selection_policy=config.selection_policy,
        local_replica=config.local_replica,
        timeout_ms=config.timeout_ms,
        selection_rng=np.random.default_rng(scenario.selector_seed),
        placer=scenario.make_placer(table),
        tracer=tracer,
    )
    availability = scenario.availability
    lookups: Dict[float, LookupOutcome] = {}
    write_rtts: Dict[float, float] = {}
    for op in scenario.trace:
        if op.kind == OP_INSERT:
            result = resolver.insert(
                GUID(op.guid_value), op.locators, op.asn, time=op.at
            )
            write_rtts[op.at] = result.rtt_ms
        elif op.kind == OP_UPDATE:
            result = resolver.update(
                GUID(op.guid_value), op.locators, op.asn, time=op.at
            )
            write_rtts[op.at] = result.rtt_ms
        elif op.kind == OP_WITHDRAW:
            prepare_withdrawal(resolver, op.prefix)
        elif op.kind == OP_ANNOUNCE:
            handle_new_announcement(resolver, op.announcement, eager=False)
        elif op.kind == OP_LOOKUP:
            try:
                found = resolver.lookup(
                    GUID(op.guid_value),
                    op.asn,
                    probe=availability.lookup_outcome,
                    is_down=availability.is_down,
                    time=op.at,
                )
                lookups[op.at] = LookupOutcome(
                    success=True,
                    served_by=found.served_by,
                    used_local=found.used_local,
                    attempts=len(found.attempts),
                    rtt_ms=found.rtt_ms,
                )
            except LookupFailedError as failure:
                lookups[op.at] = LookupOutcome(
                    success=False,
                    served_by=None,
                    used_local=False,
                    attempts=failure.attempts,
                    rtt_ms=failure.elapsed_ms,
                )
    replica_addresses: List[int] = []
    if config.placement == "address":
        for guid in sorted(resolver.replica_sets, key=lambda g: g.value):
            for res in resolver.replica_sets[guid].global_replicas:
                replica_addresses.append(int(res.address))
    return PathResult(
        lookups=lookups,
        write_rtts=write_rtts,
        storage=_storage_snapshot(resolver.stores),
        table=table,
        replica_addresses=tuple(replica_addresses),
        traces={trace.issued_at: trace for trace in tracer.traces},
    )


def run_simulation(scenario: Scenario) -> PathResult:
    """Replay the trace through the discrete-event simulation."""
    table = scenario.fresh_table()
    config = scenario.config
    tracer = CollectingTracer()
    sim = DMapSimulation(
        scenario.topology,
        table,
        selection_policy=config.selection_policy,
        local_replica=config.local_replica,
        timeout_ms=config.timeout_ms,
        failure_model=scenario.availability,
        router=scenario.router,
        seed=scenario.selector_seed,
        placer=scenario.make_placer(table),
        tracer=tracer,
    )
    for op in scenario.trace:
        if op.kind == OP_INSERT:
            sim.schedule_insert(GUID(op.guid_value), op.locators, op.asn, at=op.at)
        elif op.kind == OP_UPDATE:
            sim.schedule_update(GUID(op.guid_value), op.locators, op.asn, at=op.at)
        elif op.kind == OP_WITHDRAW:
            sim.schedule_withdrawal(op.prefix, at=op.at)
        elif op.kind == OP_ANNOUNCE:
            sim.schedule_announcement(op.announcement, at=op.at)
        elif op.kind == OP_LOOKUP:
            sim.schedule_lookup(GUID(op.guid_value), op.asn, at=op.at)
    sim.run()

    lookups: Dict[float, LookupOutcome] = {}
    for record in sim.metrics.records + sim.metrics.failed:
        lookups[record.issued_at] = LookupOutcome(
            success=record.success,
            served_by=record.served_by,
            used_local=record.used_local,
            attempts=record.attempts,
            rtt_ms=record.rtt_ms,
        )
    write_rtts = {
        record.issued_at: record.rtt_ms for record in sim.insert_records
    }
    stores = {asn: node.store for asn, node in sim.nodes.items()}
    return PathResult(
        lookups=lookups,
        write_rtts=write_rtts,
        storage=_storage_snapshot(stores),
        table=table,
        replica_addresses=(),
        traces={trace.issued_at: trace for trace in tracer.traces},
    )


def _table_signature(table: GlobalPrefixTable) -> Tuple[Tuple[int, int, int], ...]:
    return tuple(
        sorted(
            (ann.prefix.base, ann.prefix.length, ann.asn) for ann in iter(table)
        )
    )


def _flat_scan_lpm(
    bases: np.ndarray,
    lengths: np.ndarray,
    owners: np.ndarray,
    bits: int,
    address: int,
) -> int:
    """Third, independent LPM: flat scan for the longest containing prefix."""
    shifts = (bits - lengths).astype(np.uint64)
    match = ((bases ^ np.uint64(address)) >> shifts) == 0
    if not bool(match.any()):
        return HOLE
    matched_lengths = np.where(match, lengths, -1)
    return int(owners[int(matched_lengths.argmax())])


def _lpm_probes(scenario: Scenario, analytic: PathResult) -> List[int]:
    """Probe addresses: every replica address, the boundaries of every
    churned prefix, plus a seeded uniform sample."""
    bits = analytic.table.bits
    space = 1 << bits
    probes = set(analytic.replica_addresses)
    for op in scenario.trace:
        prefix = None
        if op.kind == OP_WITHDRAW:
            prefix = op.prefix
        elif op.kind == OP_ANNOUNCE:
            prefix = op.announcement.prefix
        if prefix is not None:
            for address in (
                prefix.base - 1,
                prefix.base,
                prefix.last,
                prefix.last + 1,
            ):
                if 0 <= address < space:
                    probes.add(address)
    rng = np.random.default_rng(
        np.random.SeedSequence((_LPM_STREAM, scenario.config.seed))
    )
    probes.update(int(v) for v in rng.integers(0, space, size=128))
    return sorted(probes)


def _diff_lpm(scenario: Scenario, analytic: PathResult) -> Tuple[List[Mismatch], int]:
    """Three-way LPM agreement on the final analytic table."""
    table = analytic.table
    announcements = list(table)
    if not announcements:
        return [], 0
    seed = scenario.config.seed
    index = table.interval_index()
    bases = np.array([ann.prefix.base for ann in announcements], dtype=np.uint64)
    lengths = np.array([ann.prefix.length for ann in announcements], dtype=np.int64)
    owners = np.array([ann.asn for ann in announcements], dtype=np.int64)
    mismatches: List[Mismatch] = []
    probes = _lpm_probes(scenario, analytic)
    for address in probes:
        ann = table.resolve(address)
        via_trie = HOLE if ann is None else ann.asn
        via_index = index.lookup_one(address)
        via_scan = _flat_scan_lpm(bases, lengths, owners, table.bits, address)
        if not (via_trie == via_index == via_scan):
            mismatches.append(
                Mismatch(
                    seed,
                    KIND_LPM,
                    subject=f"address={address:#x}",
                    analytic=f"trie={via_trie}",
                    simulated=f"interval={via_index} scan={via_scan}",
                )
            )
            if len(mismatches) >= 8:
                break
    return mismatches, len(probes)


def _entry_repr(item: Tuple[int, tuple]) -> str:
    guid_value, locators = item
    rendered = ",".join(str(loc) for loc in locators)
    return f"{guid_value:#x}@[{rendered}]"


def _diff_storage(
    seed: int, analytic: PathResult, simulated: PathResult
) -> List[Mismatch]:
    mismatches: List[Mismatch] = []
    for asn in sorted(set(analytic.storage) | set(simulated.storage)):
        ours = analytic.storage.get(asn, frozenset())
        theirs = simulated.storage.get(asn, frozenset())
        if ours == theirs:
            continue
        only_analytic = sorted(ours - theirs)
        only_sim = sorted(theirs - ours)
        mismatches.append(
            Mismatch(
                seed,
                KIND_STORAGE,
                subject=f"as={asn}",
                analytic=";".join(_entry_repr(e) for e in only_analytic) or "-",
                simulated=";".join(_entry_repr(e) for e in only_sim) or "-",
                detail=f"{len(ours)} vs {len(theirs)} entries",
            )
        )
        if len(mismatches) >= 8:
            break
    return mismatches


def _trace_pair(
    ours: Optional[QueryTrace], theirs: Optional[QueryTrace]
) -> str:
    """Both sides' compact provenance, for a divergence bundle's detail."""
    left = ours.compact() if ours is not None else "-"
    right = theirs.compact() if theirs is not None else "-"
    return f"ours[{left}] theirs[{right}]"


def _diff_lookup(
    seed: int,
    subject: str,
    ours: LookupOutcome,
    theirs: LookupOutcome,
    trace_detail: str = "",
) -> List[Mismatch]:
    """DES lane: one lookup field by field, RTTs within tolerance."""
    mismatches: List[Mismatch] = []
    for name, kind in _LOOKUP_KINDS.items():
        left, right = getattr(ours, name), getattr(theirs, name)
        if name == "rtt_ms":
            if _close(left, right):
                continue
            left, right = f"{left:.6f}", f"{right:.6f}"
        elif left == right:
            continue
        mismatches.append(
            Mismatch(seed, kind, subject, str(left), str(right), detail=trace_detail)
        )
        if name == "success":
            break  # dependent fields are meaningless on disagreement
    return mismatches


def fastpath_supported(scenario: Scenario) -> bool:
    """Whether the batched engine can replay this scenario exactly.

    The fastpath lane models the *converged, table-frozen* regime: BGP
    churn mutates the prefix table mid-trace, and the ``"random"``
    selection policy consumes a sequential per-lookup RNG stream —
    both need the scalar oracle.
    """
    config = scenario.config
    return not config.with_churn and config.selection_policy in ("latency", "hops")


def run_fastpath(
    scenario: Scenario,
) -> Tuple[Dict[float, float], Dict[float, QueryTrace]]:
    """Replay a (no-churn) trace through the batched fastpath engine.

    Returns per-write RTTs and per-lookup traces keyed by issue time,
    shaped like the analytic :class:`PathResult` fields.
    """
    table = scenario.fresh_table()
    config = scenario.config
    tracer = CollectingTracer()
    engine = FastpathEngine(
        table,
        scenario.router,
        selection_policy=config.selection_policy,
        local_replica=config.local_replica,
        timeout_ms=config.timeout_ms,
        placer=scenario.make_placer(table),
        tracer=tracer,
    )
    ops = [
        op for op in scenario.trace if op.kind in (OP_INSERT, OP_UPDATE, OP_LOOKUP)
    ]
    stream = LookupStream.from_ops(
        (op.kind == OP_LOOKUP, op.guid_value, op.asn, op.at) for op in ops
    )
    batch = engine.index_guids(stream.guids, stream.local_asns)
    write_rtts = engine.write_rtts(batch, *stream.writes.T)
    engine.lookup_batch(
        batch,
        stream.guid_idx,
        stream.sources,
        availability=scenario.availability,
        issued_at=stream.issued_at,
    )
    write_times = [op.at for op in ops if op.kind != OP_LOOKUP]
    return (
        dict(zip(write_times, write_rtts.tolist())),
        {trace.issued_at: trace for trace in tracer.traces},
    )


def _diff_fastpath(
    scenario: Scenario, analytic: PathResult, ops_by_time: Dict[float, object]
) -> Tuple[List[Mismatch], int]:
    """Fastpath lane: batched engine vs the analytic oracle, exactly.

    Each lookup's canonical JSONL trace line must equal the analytic
    one byte for byte, and each write RTT must be equal under ``==``.
    """
    seed = scenario.config.seed
    fp_writes, fp_traces = run_fastpath(scenario)
    mismatches: List[Mismatch] = []
    for at in sorted(analytic.lookups):
        ours = analytic.traces.get(at)
        theirs = fp_traces.get(at)
        if None not in (ours, theirs) and dumps_trace(ours) == dumps_trace(theirs):
            continue
        op = ops_by_time[at]
        mismatches.append(
            Mismatch(
                seed,
                KIND_FASTPATH_TRACE,
                f"guid={op.guid_value:#x} querier={op.asn} t={at:g}",
                "no trace" if ours is None else f"rtt={ours.rtt_ms!r}",
                "no trace" if theirs is None else f"rtt={theirs.rtt_ms!r}",
                detail=_trace_pair(ours, theirs),
            )
        )
    for at in sorted(analytic.write_rtts):
        ours_rtt = analytic.write_rtts[at]
        theirs_rtt = fp_writes.get(at)
        if theirs_rtt != ours_rtt:
            op = ops_by_time[at]
            mismatches.append(
                Mismatch(
                    seed,
                    KIND_FASTPATH_WRITE_RTT,
                    f"guid={op.guid_value:#x} source={op.asn} t={at:g}",
                    repr(ours_rtt),
                    "no record" if theirs_rtt is None else repr(theirs_rtt),
                )
            )
    return mismatches, len(fp_traces)


def diff_scenario(scenario: Scenario, fastpath: bool = True) -> ScenarioDiff:
    """Run both paths on ``scenario`` and return the structured diff.

    ``fastpath`` additionally replays supported scenarios (no churn,
    deterministic selection policy) through the batched engine and diffs
    it against the analytic resolver — three-way validation.
    """
    seed = scenario.config.seed
    analytic = run_analytic(scenario)
    simulated = run_simulation(scenario)
    mismatches: List[Mismatch] = []

    ops_by_time = {op.at: op for op in scenario.trace}
    for at in sorted(analytic.lookups):
        op = ops_by_time[at]
        subject = f"guid={op.guid_value:#x} querier={op.asn} t={at:g}"
        ours = analytic.lookups[at]
        theirs = simulated.lookups.get(at)
        if theirs is None:
            mismatches.append(
                Mismatch(
                    seed,
                    KIND_LOOKUP_LOST,
                    subject,
                    analytic=(
                        f"success={ours.success} rtt={ours.rtt_ms:.3f} "
                        f"attempts={ours.attempts}"
                    ),
                    simulated="no record (lookup never completed)",
                    detail=_trace_pair(analytic.traces.get(at), None),
                )
            )
            continue
        mismatches.extend(
            _diff_lookup(
                seed,
                subject,
                ours,
                theirs,
                trace_detail=_trace_pair(
                    analytic.traces.get(at), simulated.traces.get(at)
                ),
            )
        )

    for at in sorted(analytic.write_rtts):
        op = ops_by_time[at]
        subject = f"guid={op.guid_value:#x} source={op.asn} t={at:g}"
        ours_rtt = analytic.write_rtts[at]
        theirs_rtt = simulated.write_rtts.get(at)
        if theirs_rtt is None or not _close(ours_rtt, theirs_rtt):
            mismatches.append(
                Mismatch(
                    seed,
                    KIND_WRITE_RTT,
                    subject,
                    f"{ours_rtt:.6f}",
                    "no record (write never completed)"
                    if theirs_rtt is None
                    else f"{theirs_rtt:.6f}",
                )
            )

    if _table_signature(analytic.table) != _table_signature(simulated.table):
        mismatches.append(
            Mismatch(
                seed,
                KIND_TABLE,
                subject="prefix-table",
                analytic=f"{len(analytic.table)} announcements",
                simulated=f"{len(simulated.table)} announcements",
                detail="tables diverged under the identical churn schedule",
            )
        )

    mismatches.extend(_diff_storage(seed, analytic, simulated))
    lpm_mismatches, lpm_checks = _diff_lpm(scenario, analytic)
    mismatches.extend(lpm_mismatches)

    fastpath_lookups = 0
    if fastpath and fastpath_supported(scenario):
        fastpath_mismatches, fastpath_lookups = _diff_fastpath(
            scenario, analytic, ops_by_time
        )
        mismatches.extend(fastpath_mismatches)

    return ScenarioDiff(
        seed=seed,
        config_line=scenario.config.describe(),
        lookups=scenario.n_lookup_ops,
        writes=scenario.n_write_ops,
        lpm_checks=lpm_checks,
        mismatches=tuple(mismatches),
        fastpath_lookups=fastpath_lookups,
    )
