"""Workload generation: GUID insert / update / lookup event streams.

Reproduces the paper's workload (§IV-B.1):

* each GUID's **home AS** (insert origin) is drawn population-weighted;
* **lookup targets** follow the Mandelbrot-Zipf popularity model (Eq. 1);
* **lookup origins** are drawn population-weighted, independently of the
  target, globally distributing sources;
* inserts happen in a first phase, lookups in a second, so every query
  targets a fully inserted mapping (the paper verified convergence at
  10^5 GUIDs / 10^6 queries).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..bgp.table import GlobalPrefixTable
from ..core.guid import GUID, NetworkAddress
from ..errors import LookupFailedError, WorkloadError
from ..topology.graph import ASTopology
from .popularity import MandelbrotZipf, PAPER_ALPHA, PAPER_Q
from .sources import SourceSampler


class EventKind(enum.Enum):
    """The three event types the paper simulates (§IV-B.1)."""

    INSERT = "insert"
    UPDATE = "update"
    LOOKUP = "lookup"


@dataclass(frozen=True)
class WorkloadEvent:
    """One scheduled protocol operation."""

    kind: EventKind
    time_ms: float
    guid: GUID
    source_asn: int


@dataclass
class WorkloadConfig:
    """Workload shape parameters.

    Defaults follow the paper's converged configuration: 10^5 GUIDs and
    10^6 lookups (scale down for tests via the constructor).
    """

    n_guids: int = 100_000
    n_lookups: int = 1_000_000
    alpha: float = PAPER_ALPHA
    q: float = PAPER_Q
    insert_window_ms: float = 60_000.0
    lookup_window_ms: float = 600_000.0
    gap_ms: float = 10_000.0
    seed: int = 0

    def validate(self) -> None:
        if self.n_guids < 1:
            raise WorkloadError("n_guids must be >= 1")
        if self.n_lookups < 0:
            raise WorkloadError("n_lookups must be >= 0")
        if self.insert_window_ms < 0 or self.lookup_window_ms < 0 or self.gap_ms < 0:
            raise WorkloadError("windows must be non-negative")


@dataclass
class Workload:
    """A fully materialized event stream plus host placement."""

    config: WorkloadConfig
    home_asn: Dict[GUID, int]
    events: List[WorkloadEvent]

    @property
    def guids(self) -> List[GUID]:
        """All GUIDs, rank order (rank 1 = most popular)."""
        return list(self.home_asn)

    def locator_for(self, guid: GUID, table: GlobalPrefixTable) -> NetworkAddress:
        """The locator a host inserts: an address inside its home AS."""
        return table.representative_address(self.home_asn[guid])

    def apply_to_simulation(self, simulation, table: GlobalPrefixTable) -> None:
        """Schedule every event onto a
        :class:`~repro.sim.simulation.DMapSimulation`."""
        for event in self.events:
            locator = self.locator_for(event.guid, table)
            if event.kind is EventKind.INSERT:
                simulation.schedule_insert(
                    event.guid, [locator], event.source_asn, at=event.time_ms
                )
            elif event.kind is EventKind.UPDATE:
                simulation.schedule_update(
                    event.guid, [locator], event.source_asn, at=event.time_ms
                )
            else:
                simulation.schedule_lookup(
                    event.guid, event.source_asn, at=event.time_ms
                )

    def run_through_resolver(
        self,
        resolver,
        table: GlobalPrefixTable,
        probe=None,
        max_retry_rounds: int = 20,
        group_by_source: bool = True,
    ) -> List[float]:
        """Execute the stream on an instant-mode
        :class:`~repro.core.resolver.DMapResolver`; returns lookup RTTs.

        This is the fast path for latency experiments — identical protocol
        arithmetic to the event simulation (cross-checked in tests), but
        without per-message event scheduling overhead.

        When every replica fails a lookup (possible under injected churn),
        the querier retries the whole replica set, carrying the time
        already spent — the §III-D.2 "keep checking" behaviour — up to
        ``max_retry_rounds`` rounds.

        ``group_by_source`` processes events grouped by (phase, source AS)
        instead of strict time order.  Instant-mode execution is
        order-independent within a phase (inserts all precede lookups, and
        lookups mutate nothing), so the RTT multiset is unchanged — but
        each source's routing row is computed once instead of being evicted
        and recomputed, which is what makes the paper-scale run (26k ASs,
        10^6 lookups) tractable.
        """
        events = self.events
        has_updates = any(e.kind is EventKind.UPDATE for e in events)
        if group_by_source and not has_updates:
            # Updates interleaved with lookups are time-sensitive (a lookup
            # must see the binding of its era), so grouping only applies to
            # the insert-then-lookup workloads the generator produces.
            events = sorted(
                events,
                key=lambda e: (e.kind is EventKind.LOOKUP, e.source_asn, e.time_ms),
            )
        rtts: List[float] = []
        for event in events:
            if event.kind is EventKind.LOOKUP:
                carried_ms = 0.0
                for _round in range(max_retry_rounds):
                    try:
                        result = resolver.lookup(
                            event.guid,
                            event.source_asn,
                            probe=probe,
                            time=event.time_ms,
                        )
                        break
                    except LookupFailedError as exc:
                        carried_ms += exc.elapsed_ms
                else:
                    raise WorkloadError(
                        f"lookup of {event.guid} kept failing for "
                        f"{max_retry_rounds} rounds"
                    )
                rtts.append(result.rtt_ms + carried_ms)
            else:
                locator = self.locator_for(event.guid, table)
                op = (
                    resolver.insert
                    if event.kind is EventKind.INSERT
                    else resolver.update
                )
                op(event.guid, [locator], event.source_asn, time=event.time_ms)
        return rtts


class WorkloadGenerator:
    """Builds :class:`Workload` instances over a topology."""

    def __init__(self, topology: ASTopology, config: Optional[WorkloadConfig] = None):
        self.topology = topology
        self.config = config or WorkloadConfig()
        self.config.validate()

    def generate(self) -> Workload:
        """Materialize the event stream (deterministic in the seed)."""
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        sampler = SourceSampler(self.topology, rng)

        # Rank r GUID is "guid-r"; popularity rank == naming rank.
        guids = [GUID.from_name(f"guid-{rank}") for rank in range(1, cfg.n_guids + 1)]
        homes = sampler.sample(cfg.n_guids)
        home_asn = {guid: int(asn) for guid, asn in zip(guids, homes)}

        events: List[WorkloadEvent] = []
        insert_times = np.sort(rng.uniform(0.0, cfg.insert_window_ms, cfg.n_guids))
        for guid, time_ms, asn in zip(guids, insert_times, homes):
            events.append(
                WorkloadEvent(EventKind.INSERT, float(time_ms), guid, int(asn))
            )

        if cfg.n_lookups:
            popularity = MandelbrotZipf(cfg.n_guids, cfg.alpha, cfg.q)
            ranks = popularity.sample_ranks(cfg.n_lookups, rng)
            lookup_sources = sampler.sample(cfg.n_lookups)
            start = cfg.insert_window_ms + cfg.gap_ms
            lookup_times = np.sort(
                rng.uniform(start, start + cfg.lookup_window_ms, cfg.n_lookups)
            )
            for rank, time_ms, asn in zip(ranks, lookup_times, lookup_sources):
                events.append(
                    WorkloadEvent(
                        EventKind.LOOKUP, float(time_ms), guids[int(rank) - 1], int(asn)
                    )
                )

        events.sort(key=lambda e: e.time_ms)
        return Workload(cfg, home_asn, events)
