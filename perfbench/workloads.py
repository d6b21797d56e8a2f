"""The benchmark's workloads, built only on ``repro``'s public API.

Every workload makes its inputs from the harness seed.  The substrate (AS
topology, prefix table) is fixed at ``SUBSTRATE_SEED`` so that a new
workload seed never pays a cold topology build; the seed drives the GUID
population, the lookup stream, the mobility schedule and the live traffic
mix.

Every run sets its workload up ``MIN_SETUPS`` times (the median is
``setup_s``).  Offline workloads then repeat a timed pass over the last
set-up, each with an empty router row cache, until the run's seconds are
used; the live workload drives one cluster for the run's seconds.  A
traced run measures one untraced and one traced pass and derives the
per-layer metrics from :mod:`layers`.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.guid import GUID, NetworkAddress
from repro.core.resolver import DMapResolver
from repro.errors import LookupFailedError, WriteFailedError
from repro.experiments.common import SCALES, Environment
from repro.experiments.fig4_response_time import FIG4_K_VALUES, run_fig4
from repro.net.cluster import ClusterConfig, LocalCluster
from repro.sim.simulation import DMapSimulation
from repro.topology.routing import Router
from repro.workload.generator import EventKind, Workload, WorkloadConfig, WorkloadGenerator
from repro.workload.mobility import MobilityModel

from layers import LayerTracer

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / ".perfbench_cache"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

SUBSTRATE = SCALES["medium"]
SUBSTRATE_SEED = 0

#: Router rows kept by ``fig4-spill``: below the ~2,680 distinct lookup
#: sources of the medium workload, so every K pass recomputes every row.
SPILL_CACHE_ROWS = 2048

# mobility: a tenth of the paper-shaped 10^4 / 3x10^4 / ~2x10^4 stream,
# so several passes through both engines fit a run.
MOBILITY_GUIDS = 1_000
MOBILITY_LOOKUPS = 3_000
MOBILITY_UPDATES_PER_DAY = 300.0
MOBILITY_K = 5

# live-mixed
LIVE_NODES = 50
LIVE_GUIDS = 250
LIVE_LOOKUPS = 20_000
LIVE_K = 5
LIVE_TIME_SCALE = 0.5
LIVE_CALLERS = 32
LIVE_UPDATE_SHARE = 0.10
LIVE_MAX_OPS_PER_S = 3_000

MIN_SETUPS = 3
RTT_MATCH_ATOL_MS = 1e-6
#: Writes reach every replica within 5 s on this substrate (slowest seen:
#: 4.8 s); lookups closer than this to a write of their GUID are not
#: compared between the instant resolver and the DES.
QUIESCE_BEFORE_MS = 10_000.0
QUIESCE_AFTER_MS = 5_000.0
ORACLE_SAMPLE = 200


# ----------------------------------------------------------------------
# Result containers
# ----------------------------------------------------------------------
@dataclass
class Check:
    name: str
    ok: bool
    detail: str


@dataclass
class Outcome:
    """Everything one run of one workload measured."""

    setup_s: List[float] = field(default_factory=list)
    pass_s: List[float] = field(default_factory=list)
    pass_ops: List[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    latencies_ms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: Printed alongside the end-to-end metrics, not part of the result:
    #: ``(name, value, unit, sample count)``.
    notes: List[Tuple[str, float, str, int]] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    provenance: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(c.ok for c in self.checks)

    def rates(self) -> List[float]:
        return [ops / s for ops, s in zip(self.pass_ops, self.pass_s)]


def cache_is_warm() -> bool:
    """Whether the substrate's topology archive already exists."""
    return any(CACHE_DIR.glob(f"topology-{SUBSTRATE.name}-*-seed{SUBSTRATE_SEED}.npz"))


def environment() -> Environment:
    return Environment(SUBSTRATE, SUBSTRATE_SEED, cache_dir=str(CACHE_DIR))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rtt_digest(rtts: np.ndarray) -> str:
    """Order-free digest of response times, rounded well above float noise."""
    rounded = np.round(np.sort(np.asarray(rtts, dtype=np.float64)), 6)
    return hashlib.sha256(rounded.tobytes()).hexdigest()[:16]


def _timed(fn: Callable, *args):
    gc.collect()
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def _repeat(setup: Callable, prepare: Callable, run_pass: Callable, seconds: float,
            outcome: Outcome):
    """Set up ``MIN_SETUPS`` times, then run passes over the last set-up
    until ``seconds`` have elapsed.  ``prepare`` (untimed) gives each pass
    fresh mutable state.  Returns ``(pass results, set-up state)``."""
    state = None
    for _ in range(MIN_SETUPS):
        state = None  # never hold two substrates at once
        state, setup_s = _timed(setup)
        outcome.setup_s.append(setup_s)
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        prepare(state)
        result, pass_s = _timed(run_pass, state)
        outcome.pass_s.append(pass_s)
        results.append(result)
    return results, state


def _traced_pair(setup: Callable, prepare: Callable, run_pass: Callable, outcome: Outcome):
    """One untraced set-up and pass, then one traced set-up and pass.

    Returns ``([untraced result, traced result], traced state, set-up
    capture, pass capture)`` where a capture is the tracer's accumulators;
    both pass times land in ``outcome.pass_s``.
    """
    state, setup_s = _timed(setup)
    outcome.setup_s.append(setup_s)
    prepare(state)
    plain, pass_s = _timed(run_pass, state)
    outcome.pass_s.append(pass_s)
    state = None
    with LayerTracer() as tracer:
        state, _ = _timed(setup)
        setup_capture = capture(tracer)
        prepare(state)
        tracer.reset()
        traced, traced_s = _timed(run_pass, state)
        pass_capture = capture(tracer)
    outcome.pass_s.append(traced_s)
    return [plain, traced], state, setup_capture, pass_capture


def capture(tracer: LayerTracer) -> Dict[str, object]:
    return {
        "self": dict(tracer.self_s),
        "calls": dict(tracer.calls),
        "dijkstra_rows": tracer.dijkstra_rows,
        "distinct_sources": len(tracer.dijkstra_sources),
        "batch_placements": tracer.batch_placements,
        "source_groups": tracer.source_groups,
        "events_generated": tracer.events_generated,
    }


# ----------------------------------------------------------------------
# Per-layer metric assembly
# ----------------------------------------------------------------------
PER_LAYER = (
    "topology.load_s", "bgp.prefix_table_s", "routing.init_s",
    "workload.mobility_s", "net.cluster_build_s", "net.cluster_start_s",
    "routing.dijkstra_runs", "routing.distinct_sources", "routing.row_reuse",
    "routing.rows_s", "routing.queries", "routing.query_s", "routing.cache_rows",
    "bgp.interval_index_builds", "bgp.interval_index_s", "bgp.lpm_calls", "bgp.lpm_s",
    "hashing.placements", "hashing.placements_per_op", "hashing.placement_s",
    "workload.generate_s", "workload.events", "workload.locator_calls",
    "workload.locator_s", "workload.replay_s",
    "fastpath.index_guids_s", "fastpath.lookup_batch_s", "fastpath.source_groups",
    "core.lookups", "core.lookup_s", "core.writes", "core.write_s", "core.ops_per_s",
    "sim.init_s", "sim.schedule_s", "sim.run_s", "sim.events_executed",
    "sim.messages_sent", "sim.ops_per_s",
    "net.encode_us", "net.decode_us", "net.frames_per_op", "net.useful_response_ratio",
    "net.relays", "net.attempt_timeouts", "net.write_timeouts", "net.cpu_busy_frac",
    "net.cpu_ms_per_op", "net.loop_lag_p99_ms", "net.driver_cpu_frac",
    "net.update_p50_ms", "net.update_p99_ms",
    "experiments.render_s",
    "trace.overhead_frac", "trace.attributed_frac",
    "input.distinct_sources", "input.router_cache_rows", "input.write_share",
    "input.callers",
)


def layer_metrics(setup: Dict, timed: Dict, ops: int, per_op_s: float,
                  untraced_per_op_s: float, extra: Dict[str, float]) -> Dict[str, float]:
    """Named per-layer metrics from one traced set-up and pass.

    ``ops`` is the traced pass's successful operation count and
    ``per_op_s`` its wall time per operation; ``untraced_per_op_s`` is the
    same for the untraced pass.  ``extra`` supplies metrics the tracer
    cannot see (input properties, engine rates, net counters).  Metrics of
    layers the workload does not exercise read 0.
    """
    s_self = setup["self"]
    t_self, t_calls = timed["self"], timed["calls"]
    runs = timed["dijkstra_rows"]
    placements = t_calls.get("hashing.placement", 0) + timed["batch_placements"]
    encodes = t_calls.get("net.encode", 0)
    decodes = t_calls.get("net.decode", 0) + t_calls.get("net.client_decode", 0)
    pass_s = per_op_s * ops
    out = {name: 0.0 for name in PER_LAYER}
    out.update({
        "topology.load_s": s_self.get("topology.load", 0.0),
        "bgp.prefix_table_s": s_self.get("bgp.prefix_table", 0.0),
        "routing.init_s": s_self.get("routing.init", 0.0),
        "workload.mobility_s": s_self.get("workload.mobility", 0.0),
        "routing.dijkstra_runs": float(runs),
        "routing.distinct_sources": float(timed["distinct_sources"]),
        "routing.row_reuse": timed["distinct_sources"] / runs if runs else 0.0,
        "routing.rows_s": t_self.get("routing.rows", 0.0),
        "routing.queries": float(t_calls.get("routing.query", 0)),
        "routing.query_s": t_self.get("routing.query", 0.0),
        "bgp.interval_index_builds": float(t_calls.get("bgp.interval_index", 0)),
        "bgp.interval_index_s": t_self.get("bgp.interval_index", 0.0),
        "bgp.lpm_calls": float(t_calls.get("bgp.lpm", 0)),
        "bgp.lpm_s": t_self.get("bgp.lpm", 0.0),
        "hashing.placements": float(placements),
        "hashing.placements_per_op": placements / ops if ops else 0.0,
        "hashing.placement_s": t_self.get("hashing.placement", 0.0)
        + t_self.get("hashing.batch_placement", 0.0),
        "workload.generate_s": t_self.get("workload.generate", 0.0),
        "workload.events": float(timed["events_generated"]),
        "workload.locator_calls": float(t_calls.get("workload.locator", 0)),
        "workload.locator_s": t_self.get("workload.locator", 0.0),
        "workload.replay_s": t_self.get("workload.replay", 0.0),
        "fastpath.index_guids_s": t_self.get("fastpath.index_guids", 0.0),
        "fastpath.lookup_batch_s": t_self.get("fastpath.lookup_batch", 0.0),
        "fastpath.source_groups": float(timed["source_groups"]),
        "core.lookups": float(t_calls.get("core.lookup", 0)),
        "core.lookup_s": t_self.get("core.lookup", 0.0),
        "core.writes": float(t_calls.get("core.write", 0)),
        "core.write_s": t_self.get("core.write", 0.0),
        "sim.init_s": t_self.get("sim.init", 0.0),
        "sim.schedule_s": t_self.get("sim.schedule", 0.0),
        "sim.run_s": t_self.get("sim.run", 0.0),
        "net.encode_us": 1e6 * t_self.get("net.encode", 0.0) / encodes if encodes else 0.0,
        "net.decode_us": 1e6 * (t_self.get("net.decode", 0.0) + t_self.get("net.client_decode", 0.0)) / decodes
        if decodes else 0.0,
        "net.frames_per_op": encodes / ops if ops else 0.0,
        "net.useful_response_ratio": ops / t_calls["net.client_decode"]
        if t_calls.get("net.client_decode") else 0.0,
        "experiments.render_s": t_self.get("experiments.render", 0.0),
        "trace.overhead_frac": per_op_s / untraced_per_op_s - 1.0,
        "trace.attributed_frac": sum(t_self.values()) / pass_s if pass_s else 0.0,
    })
    out.update(extra)
    unknown = set(out) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
    return out


def offline_layers(outcome: Outcome, setup_cap: Dict, pass_cap: Dict,
                   extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of a traced pair: untraced pass first, traced second."""
    (plain_ops, traced_ops), (plain_s, traced_s) = outcome.pass_ops, outcome.pass_s
    return layer_metrics(setup_cap, pass_cap, traced_ops, traced_s / traced_ops,
                         plain_s / plain_ops, extra)


# ----------------------------------------------------------------------
# fig4-medium / fig4-spill
# ----------------------------------------------------------------------
def load_golden() -> Dict[str, str]:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())["fig4_render_sha256"]


def fresh_router(env: Environment, cache_rows: Optional[int] = None) -> None:
    """Give the substrate an empty row cache, so every pass computes the
    rows it needs (``cache_rows`` overrides the router's default size)."""
    if cache_rows is None:
        env.router = Router(env.topology)
    else:
        env.router = Router(env.topology, cache_size=cache_rows)


def fig4_pass(env: Environment, seed: int):
    result = run_fig4(environment=env, engine="fastpath", n_jobs=1, seed=seed)
    return result, result.render()


def fig4_workload(env: Environment, seed: int) -> Workload:
    """The lookup stream ``run_fig4`` generates for ``seed``."""
    return WorkloadGenerator(
        env.topology,
        WorkloadConfig(n_guids=SUBSTRATE.n_guids, n_lookups=SUBSTRATE.n_lookups, seed=seed),
    ).generate()


def check_fig4(seed: int, passes: list, golden: Dict[str, str], env: Environment) -> List[Check]:
    """Render digests equal each other and the recorded one for ``seed``;
    a seeded sample of lookups re-resolved by the scalar resolver on
    ``env`` matches the last pass's batch-engine RTTs exactly."""
    digests = {digest(text) for _, text in passes}
    checks = [Check("fig4.passes_agree", len(digests) == 1, f"{len(digests)} distinct render digest(s)")]
    expected = golden.get(str(seed))
    if expected is None:
        checks.append(Check("fig4.golden_render", True, f"no recorded digest for seed {seed}; oracle check only"))
    else:
        got = next(iter(digests))
        checks.append(Check("fig4.golden_render", got == expected and len(digests) == 1,
                            f"sha256 {got[:16]} vs recorded {expected[:16]}"))
    checks.append(check_fig4_oracle(env, seed, passes[-1][0].rtts_by_k))
    return checks


def check_fig4_oracle(env: Environment, seed: int, rtts_by_k: Dict[int, np.ndarray]) -> Check:
    workload = fig4_workload(env, seed)
    lookups = [e for e in workload.events if e.kind is EventKind.LOOKUP]
    rng = np.random.default_rng(seed)
    sample = np.sort(rng.choice(len(lookups), size=min(ORACLE_SAMPLE, len(lookups)), replace=False))
    mismatches = 0
    for k in FIG4_K_VALUES:
        got = np.asarray(rtts_by_k[k])
        if len(got) != len(lookups):
            return Check("fig4.scalar_oracle", False, f"K={k}: {len(got)} RTTs for {len(lookups)} lookups")
        resolver = DMapResolver(env.table, env.router, k=k)
        for guid in {lookups[i].guid for i in sample}:
            resolver.insert(guid, [workload.locator_for(guid, env.table)], workload.home_asn[guid])
        for i in sample:
            event = lookups[i]
            want = resolver.lookup(event.guid, event.source_asn, time=event.time_ms).rtt_ms
            mismatches += int(want != got[i])
    total = len(sample) * len(FIG4_K_VALUES)
    return Check("fig4.scalar_oracle", mismatches == 0, f"{mismatches}/{total} sampled lookups differ from the scalar resolver")


def run_fig4_workload(seed: int, seconds: float, trace: bool, cache_rows: Optional[int]) -> Outcome:
    outcome = Outcome()
    prepare = lambda env: fresh_router(env, cache_rows)  # noqa: E731
    run_pass = lambda env: fig4_pass(env, seed)  # noqa: E731
    if trace:
        passes, env, setup_cap, pass_cap = _traced_pair(environment, prepare, run_pass, outcome)
    else:
        passes, env = _repeat(environment, prepare, run_pass, seconds, outcome)
    for result, _ in passes:
        ops = sum(len(v) for v in result.rtts_by_k.values())
        failed = sum(result.failed_by_k.values())
        outcome.pass_ops.append(ops)
        outcome.attempted += ops + failed
        outcome.failed += failed
    last = passes[-1][0]
    outcome.latencies_ms = np.concatenate([last.rtts_by_k[k] for k in FIG4_K_VALUES])
    if trace:
        workload = fig4_workload(env, seed)
        extra = {
            "routing.cache_rows": float(env.router.cache_stats()["latency_rows"]),
            "input.distinct_sources": float(len({e.source_asn for e in workload.events if e.kind is EventKind.LOOKUP})),
            "input.router_cache_rows": float(env.router.cache_size),
        }
        outcome.layers = offline_layers(outcome, setup_cap, pass_cap, extra)
    outcome.checks = check_fig4(seed, passes, load_golden(), env)
    return outcome


# ----------------------------------------------------------------------
# mobility
# ----------------------------------------------------------------------
def mobility_stream(env: Environment, seed: int) -> Workload:
    """Inserts, Zipf lookups and global-regime mobility updates, merged
    in time order."""
    config = WorkloadConfig(n_guids=MOBILITY_GUIDS, n_lookups=MOBILITY_LOOKUPS, seed=seed)
    base = WorkloadGenerator(env.topology, config).generate()
    start = config.insert_window_ms + config.gap_ms
    model = MobilityModel(env.topology, updates_per_day=MOBILITY_UPDATES_PER_DAY,
                          regime="global", seed=seed + 1)
    moves = model.moves_for_population(base.home_asn, horizon_ms=start + config.lookup_window_ms,
                                       start_ms=start)
    events = sorted(base.events + MobilityModel.to_update_events(moves), key=lambda e: e.time_ms)
    return Workload(config, base.home_asn, events)


def mobility_setup(seed: int):
    env = environment()
    return env, mobility_stream(env, seed)


@dataclass
class MobilityPass:
    #: Scalar lookup RTTs, in the stream's lookup order.
    scalar_rtts: np.ndarray
    scalar_s: float
    #: ``(guid value, source AS, issue time) -> RTT`` of each completed
    #: DES lookup.
    des_rtts: Dict[Tuple[int, int, float], float]
    des_s: float
    des_completed: int
    des_failed_lookups: int
    events: int
    lookups: int
    events_executed: int
    messages_sent: int


def mobility_pass(state, seed: int) -> MobilityPass:
    """The stream through the scalar resolver, then through the DES, both
    routing over the substrate's (fresh) router."""
    env, stream = state
    start = time.perf_counter()
    resolver = DMapResolver(env.table, env.router, k=MOBILITY_K)
    scalar = stream.run_through_resolver(resolver, env.table)
    middle = time.perf_counter()
    sim = DMapSimulation(env.topology, env.table, k=MOBILITY_K, router=env.router, seed=seed)
    stream.apply_to_simulation(sim, env.table)
    sim.run()
    end = time.perf_counter()
    return MobilityPass(
        scalar_rtts=np.asarray(scalar, dtype=np.float64),
        scalar_s=middle - start,
        des_rtts={(r.guid_value, r.source_asn, r.issued_at): r.rtt_ms for r in sim.metrics.records},
        des_s=end - middle,
        des_completed=len(sim.insert_records) + len(sim.metrics.records),
        des_failed_lookups=len(sim.metrics.failed),
        events=len(stream.events),
        lookups=sum(1 for e in stream.events if e.kind is EventKind.LOOKUP),
        events_executed=sim.simulator.events_executed,
        messages_sent=sim.network.messages_sent,
    )


def quiet_lookups(stream: Workload) -> List[Tuple[Tuple[int, int, float], bool]]:
    """Each lookup's match key, and whether no write of its GUID falls in
    ``[t - QUIESCE_BEFORE_MS, t + QUIESCE_AFTER_MS]``.

    The instant resolver applies a write at once; the DES delivers it, and
    retires the old attachment's copy, after network delays (seconds for
    the slowest stub ASs).  The two agree only on lookups no write is in
    flight around, the quiescence the program's validation scenarios
    impose by spacing their phases apart.
    """
    writes: Dict[GUID, List[float]] = {}
    for e in stream.events:
        if e.kind is not EventKind.LOOKUP:
            writes.setdefault(e.guid, []).append(e.time_ms)
    out = []
    for e in stream.events:
        if e.kind is EventKind.LOOKUP:
            quiet = not any(e.time_ms - QUIESCE_BEFORE_MS <= w <= e.time_ms + QUIESCE_AFTER_MS
                            for w in writes.get(e.guid, ()))
            out.append(((e.guid.value, e.source_asn, e.time_ms), quiet))
    return out


def check_mobility(passes: List[MobilityPass], stream: Workload) -> List[Check]:
    """Scalar and DES RTTs agree on every quiet lookup; every DES op
    completes; passes agree."""
    lookups = quiet_lookups(stream)
    quiet = sum(q for _, q in lookups)
    checks = []
    for n, p in enumerate(passes):
        missing = sum(key not in p.des_rtts for key, _ in lookups)
        differ = sum(
            abs(p.des_rtts.get(key, np.inf) - rtt) > RTT_MATCH_ATOL_MS
            for (key, q), rtt in zip(lookups, p.scalar_rtts) if q
        )
        ok = len(p.scalar_rtts) == len(lookups) and missing == 0 and differ == 0
        checks.append(Check(f"mobility.pass{n}.rtts_match", ok,
                            f"{differ}/{quiet} quiet lookups differ, {missing} missing from the DES, "
                            f"{len(lookups) - quiet} near a write not compared; scalar "
                            f"{rtt_digest(p.scalar_rtts)} DES {rtt_digest(list(p.des_rtts.values()))}"))
        checks.append(Check(f"mobility.pass{n}.des_complete",
                            p.des_failed_lookups == 0 and p.des_completed == p.events,
                            f"{p.des_completed}/{p.events} DES ops completed, "
                            f"{p.des_failed_lookups} failed lookups"))
    digests = {rtt_digest(p.scalar_rtts) for p in passes}
    checks.append(Check("mobility.passes_agree", len(digests) == 1, f"{len(digests)} distinct RTT digest(s)"))
    return checks


def run_mobility(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    setup = lambda: mobility_setup(seed)  # noqa: E731
    prepare = lambda state: fresh_router(state[0])  # noqa: E731
    run_pass = lambda state: mobility_pass(state, seed)  # noqa: E731
    if trace:
        passes, state, setup_cap, pass_cap = _traced_pair(setup, prepare, run_pass, outcome)
    else:
        passes, state = _repeat(setup, prepare, run_pass, seconds, outcome)
    for p in passes:
        outcome.pass_ops.append(p.events + p.des_completed)
        outcome.attempted += 2 * p.events
        outcome.failed += p.events - p.des_completed
    outcome.latencies_ms = passes[-1].scalar_rtts
    outcome.notes += [
        ("scalar_ops_per_s", float(np.median([p.events / p.scalar_s for p in passes])), "1/s", len(passes)),
        ("des_ops_per_s", float(np.median([p.des_completed / p.des_s for p in passes])), "1/s", len(passes)),
    ]
    outcome.checks = check_mobility(passes, state[1])
    if trace:
        plain, traced = passes
        env, stream = state
        writes = plain.events - plain.lookups
        extra = {
            "core.ops_per_s": plain.events / plain.scalar_s,
            "sim.ops_per_s": plain.des_completed / plain.des_s,
            "sim.events_executed": float(traced.events_executed),
            "sim.messages_sent": float(traced.messages_sent),
            "routing.cache_rows": float(env.router.cache_stats()["latency_rows"]),
            "workload.events": float(traced.events),
            "input.distinct_sources": float(len({e.source_asn for e in stream.events})),
            "input.router_cache_rows": float(env.router.cache_size),
            "input.write_share": writes / plain.events,
        }
        outcome.layers = offline_layers(outcome, setup_cap, pass_cap, extra)
    return outcome


# ----------------------------------------------------------------------
# live-mixed
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LiveOp:
    """One prepared client call: a lookup, or an update to ``version``."""

    guid: GUID
    source_asn: int
    locator: Optional[NetworkAddress] = None
    version: int = 0

    @property
    def is_update(self) -> bool:
        return self.locator is not None


def live_config(seed: int) -> ClusterConfig:
    return ClusterConfig(scale=SUBSTRATE.name, seed=seed, k=LIVE_K, max_nodes=LIVE_NODES,
                         n_guids=LIVE_GUIDS, n_lookups=LIVE_LOOKUPS, time_scale=LIVE_TIME_SCALE)


def live_ops(cluster: LocalCluster, seed: int, count: int) -> List[LiveOp]:
    """The traffic mix, fully materialized before the timed phase:
    servable lookups in stream order, and updates that rebind a GUID to a
    node AS with increasing versions."""
    rng = np.random.default_rng(seed + 2)
    stream = cluster.lookup_stream()
    table = cluster.resolver.table
    locators = {asn: table.representative_address(asn) for asn in cluster.node_asns}
    versions: Dict[GUID, int] = {}
    ops = []
    update_draws = rng.random(count) < LIVE_UPDATE_SHARE
    targets = rng.integers(0, len(cluster.node_asns), size=count)
    for i in range(count):
        guid = stream[i % len(stream)].guid
        if update_draws[i]:
            asn = int(cluster.node_asns[int(targets[i])])
            versions[guid] = versions.get(guid, 0) + 1
            ops.append(LiveOp(guid, asn, locators[asn], versions[guid]))
        else:
            ops.append(LiveOp(guid, stream[i % len(stream)].source_asn))
    return ops


@dataclass
class LiveSession:
    issued: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    driver_s: float = 0.0
    lookup_ms: List[float] = field(default_factory=list)
    update_ms: List[float] = field(default_factory=list)
    failed_ops: List[int] = field(default_factory=list)
    wrong_answers: int = 0
    loop_lag_ms: List[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.issued - len(self.failed_ops)


async def drive(cluster: LocalCluster, ops: List[LiveOp], seconds: float,
                lag_probe: bool = False) -> LiveSession:
    """Closed loop: ``LIVE_CALLERS`` tasks on one client, each issuing its
    next prepared op when the previous one returns, until ``seconds`` pass."""
    loop = asyncio.get_running_loop()
    shaper = cluster.shaper
    session = LiveSession()
    client = cluster.client()
    await client.start()
    cursor = iter(range(len(ops)))
    stop_probe = asyncio.Event()

    async def caller() -> None:
        clock = time.perf_counter
        driver_start = clock()
        for i in cursor:
            op = ops[i]
            session.issued += 1
            session.driver_s += clock() - driver_start
            sent = loop.time()
            try:
                if op.is_update:
                    await client.update(op.guid, [op.locator], op.source_asn, op.version)
                else:
                    result = await client.lookup(op.guid, op.source_asn)
            except (LookupFailedError, WriteFailedError):
                driver_start = clock()
                session.failed_ops.append(i)
            else:
                driver_start = clock()
                latency = shaper.virtual_ms(loop.time() - sent)
                if op.is_update:
                    session.update_ms.append(latency)
                else:
                    session.lookup_ms.append(latency)
                    session.wrong_answers += int(result.guid_value != op.guid.value)
            if loop.time() >= deadline:
                break
        session.driver_s += clock() - driver_start

    async def probe() -> None:
        interval = 0.01
        while not stop_probe.is_set():
            due = loop.time() + interval
            await asyncio.sleep(interval)
            session.loop_lag_ms.append(1000.0 * (loop.time() - due))

    probe_task = loop.create_task(probe()) if lag_probe else None
    cpu_start = time.process_time()
    start = loop.time()
    deadline = start + seconds
    try:
        await asyncio.gather(*(caller() for _ in range(LIVE_CALLERS)))
    finally:
        session.wall_s = loop.time() - start
        session.cpu_s = time.process_time() - cpu_start
        stop_probe.set()
        if probe_task is not None:
            await probe_task
        client.close()
    return session


def check_live(cluster: LocalCluster, ops: List[LiveOp], session: LiveSession) -> List[Check]:
    """Every hosting replica holds each updated GUID's last version."""
    failed = set(session.failed_ops)
    final: Dict[GUID, LiveOp] = {}
    tainted = set()
    for i in range(session.issued):
        op = ops[i]
        if not op.is_update:
            continue
        if i in failed:
            tainted.add(op.guid)
        elif op.guid not in final or op.version > final[op.guid].version:
            final[op.guid] = op
    stale = 0
    checked = 0
    for guid, op in final.items():
        if guid in tainted:
            continue
        for asn in set(cluster.resolver.placer.hosting_asns(guid)):
            entry = cluster.resolver.store_at(int(asn)).get(guid)
            checked += 1
            if entry is None or entry.version != op.version or \
                    [int(x) for x in entry.locators] != [int(op.locator)]:
                stale += 1
    return [
        Check("live.replicas_hold_final_version", stale == 0 and (checked > 0 or not final),
              f"{stale}/{checked} replica entries differ from the last acknowledged update"),
        Check("live.lookup_answers", session.wrong_answers == 0,
              f"{session.wrong_answers} lookups answered for another GUID"),
    ]


def check_no_failures(session: LiveSession) -> Check:
    """No node of the benchmark's cluster is killed and no packet is
    dropped, so every failed lookup or update is a wrong result."""
    return Check("live.no_failed_ops", not session.failed_ops,
                 f"{len(session.failed_ops)}/{session.issued} operations failed")


async def live_setup(seed: int) -> LocalCluster:
    env = environment()
    cluster = LocalCluster.build(live_config(seed), environment=env)
    await cluster.start()
    warm_rows(cluster)
    return cluster


def warm_rows(cluster: LocalCluster) -> None:
    """Fill the router's rows for every AS the traffic can send from, so
    the timed phase measures the steady serving path, not first-touch
    Dijkstra runs on the event loop."""
    sources = {s.source_asn for s in cluster.lookup_stream()} | set(cluster.node_asns)
    for asn in sorted(sources):
        cluster.resolver.router.latency_row(int(asn))


def summarize_live(outcome: Outcome, session: LiveSession) -> None:
    outcome.pass_s.append(session.wall_s)
    outcome.pass_ops.append(session.completed)
    outcome.attempted += session.issued
    outcome.failed += len(session.failed_ops)
    outcome.latencies_ms = np.asarray(session.lookup_ms, dtype=np.float64)
    if session.update_ms:
        for q in (50, 99):
            outcome.notes.append((f"update_p{q}_ms", float(np.percentile(session.update_ms, q)),
                                  "ms", len(session.update_ms)))


async def live_run(seed: int, seconds: float, trace: bool) -> Outcome:
    """``MIN_SETUPS`` cluster set-ups, then closed-loop traffic on the last
    one; a traced run splits the seconds between an untraced and a traced
    cluster."""
    outcome = Outcome()
    cluster = None
    for _ in range(MIN_SETUPS):
        if cluster is not None:
            await cluster.stop()
        gc.collect()
        start = time.perf_counter()
        cluster = await live_setup(seed)
        outcome.setup_s.append(time.perf_counter() - start)
    segment = seconds / 2.0 if trace else seconds
    ops = live_ops(cluster, seed, max(1_000, int(segment * LIVE_MAX_OPS_PER_S)))
    gc.collect()
    try:
        session = await drive(cluster, ops, segment, lag_probe=trace)
    finally:
        await cluster.stop()
    summarize_live(outcome, session)
    outcome.checks = check_live(cluster, ops, session) + [check_no_failures(session)]
    if trace:
        await trace_live(seed, segment, outcome, cluster, session)
    return outcome


async def trace_live(seed: int, seconds: float, outcome: Outcome, plain_cluster: LocalCluster,
                     plain: LiveSession) -> None:
    with LayerTracer() as tracer:
        gc.collect()
        env = environment()
        mid = time.perf_counter()
        cluster = LocalCluster.build(live_config(seed), environment=env)
        built = time.perf_counter()
        await cluster.start()
        started = time.perf_counter()
        warm_rows(cluster)
        setup_cap = capture(tracer)
        ops = live_ops(cluster, seed, max(1_000, int(seconds * LIVE_MAX_OPS_PER_S)))
        gc.collect()
        tracer.reset()
        try:
            session = await drive(cluster, ops, seconds, lag_probe=True)
        finally:
            await cluster.stop()
        pass_cap = capture(tracer)
    checks = check_live(cluster, ops, session) + [check_no_failures(session)]
    outcome.checks += [Check(f"traced.{c.name}", c.ok, c.detail) for c in checks]
    counters = plain_cluster.registry
    updates = [op for op in ops[: session.issued] if op.is_update]
    extra = {
        "net.cluster_build_s": built - mid,
        "net.cluster_start_s": started - built,
        "net.relays": float(counters.counter("net.node.relays").total()),
        "net.attempt_timeouts": float(counters.counter("net.client.attempt_timeouts").total()),
        "net.write_timeouts": float(counters.counter("net.client.write_timeouts").total()),
        "net.cpu_busy_frac": plain.cpu_s / plain.wall_s,
        "net.cpu_ms_per_op": 1000.0 * plain.cpu_s / max(plain.completed, 1),
        "net.loop_lag_p99_ms": float(np.percentile(plain.loop_lag_ms, 99)) if plain.loop_lag_ms else 0.0,
        "net.driver_cpu_frac": plain.driver_s / plain.cpu_s if plain.cpu_s else 0.0,
        "net.update_p50_ms": float(np.percentile(plain.update_ms, 50)) if plain.update_ms else 0.0,
        "net.update_p99_ms": float(np.percentile(plain.update_ms, 99)) if plain.update_ms else 0.0,
        "routing.cache_rows": float(cluster.resolver.router.cache_stats()["latency_rows"]),
        "input.distinct_sources": float(len({op.source_asn for op in ops[: session.issued]})),
        "input.router_cache_rows": float(cluster.resolver.router.cache_size),
        "input.write_share": len(updates) / max(session.issued, 1),
        "input.callers": float(LIVE_CALLERS),
    }
    outcome.layers = layer_metrics(setup_cap, pass_cap, session.completed,
                                   session.wall_s / max(session.completed, 1),
                                   plain.wall_s / max(plain.completed, 1), extra)


def run_live(seed: int, seconds: float, trace: bool) -> Outcome:
    return asyncio.run(live_run(seed, seconds, trace))


WORKLOADS: Dict[str, Callable[[int, float, bool], Outcome]] = {
    "fig4-medium": lambda seed, seconds, trace: run_fig4_workload(seed, seconds, trace, None),
    "fig4-spill": lambda seed, seconds, trace: run_fig4_workload(seed, seconds, trace, SPILL_CACHE_ROWS),
    "mobility": run_mobility,
    "live-mixed": run_live,
}
