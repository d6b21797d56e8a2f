"""E1 — Figure 4: CDF of round-trip query response times for K ∈ {1,3,5}.

The paper inserts 10^5 GUIDs, issues 10^6 Mandelbrot-Zipf lookups from
population-weighted sources, and plots the response-time CDF per K
(§IV-B.2a).  Expected shape: each added replica shifts the CDF left;
K=5 roughly halves the 95th percentile relative to K=1 (86 ms vs 173 ms
in the paper); a long tail of queries from pathological-latency stub ASs
remains at every K.

Run: ``python -m repro.experiments fig4 [--scale small|medium|paper]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..core.resolver import DMapResolver
from ..errors import ConfigurationError
from ..fastpath.engine import FastpathEngine, LookupStream
from ..sim.metrics import LatencySummary, summarize
from ..sim.simulation import DMapSimulation
from ..workload.generator import EventKind, WorkloadConfig, WorkloadGenerator
from .common import Environment, get_environment
from .reporting import ascii_cdf, format_cdf_table, format_table, percentile_row

#: The K values of Fig. 4.
FIG4_K_VALUES = (1, 3, 5)

#: The replays ``run_fig4`` can pick.
FIG4_ENGINES = ("scalar", "fastpath", "simulation")


@dataclass
class Fig4Result:
    """Response-time samples and summaries per replication factor."""

    scale: str
    rtts_by_k: Dict[int, np.ndarray]
    local_hit_fraction: Dict[int, float]
    failed_by_k: Dict[int, int] = field(default_factory=dict)

    def summaries(self) -> Dict[int, LatencySummary]:
        """Table-I-style stats per K (with the failed-lookup count)."""
        return {
            k: summarize(v, failed=self.failed_by_k.get(k, 0))
            for k, v in self.rtts_by_k.items()
        }

    def render(self) -> str:
        """The textual Fig. 4: CDF read-offs plus summary rows."""
        thresholds = (10, 20, 40, 60, 86, 100, 173, 250, 500, 1000)
        series = {f"K={k}": v for k, v in self.rtts_by_k.items()}
        parts = [
            f"Figure 4 — round-trip query response time CDF ({self.scale} scale)",
            format_cdf_table(series, thresholds),
            "",
            format_table(
                ["config", "mean [ms]", "median [ms]", "95th [ms]", "success"],
                [
                    percentile_row(
                        f"K={k}", v, failed=self.failed_by_k.get(k, 0)
                    )
                    for k, v in self.rtts_by_k.items()
                ],
            ),
        ]
        max_k = max(self.rtts_by_k)
        parts.append("")
        parts.append(ascii_cdf(self.rtts_by_k[max_k], label=f"(K={max_k})"))
        return "\n".join(parts)


def run_fig4(
    scale: Optional[str] = None,
    k_values: Sequence[int] = FIG4_K_VALUES,
    seed: int = 0,
    local_replica: bool = True,
    selection_policy: str = "latency",
    environment: Optional[Environment] = None,
    workload_override: Optional[WorkloadConfig] = None,
    engine: str = "scalar",
    n_jobs: int = 1,
    trace_path: Optional[str] = None,
) -> Fig4Result:
    """Run the Fig. 4 experiment.

    ``engine`` picks the replay: ``"scalar"`` (the instant resolver),
    ``"fastpath"`` (the batched
    :class:`~repro.fastpath.engine.FastpathEngine`, bit-identical RTTs;
    ``n_jobs`` shards source-AS groups across processes) or
    ``"simulation"`` (the discrete-event engine).  ``local_replica`` and
    ``selection_policy`` expose the paper's §III-C and §IV-B.2a design
    knobs for ablation.

    ``trace_path`` writes a canonical JSONL per-query trace file there
    (plus a run manifest at ``<trace_path>.manifest.json``), from which
    ``python -m repro.obs summarize-traces`` reconstructs this report.
    Tracing forces single-process execution: per-query traces cannot
    cross process shards.
    """
    from ..obs.export import metrics_report, write_traces
    from ..obs.manifest import RunManifest, manifest_path_for
    from ..obs.trace import NULL_TRACER, CollectingTracer

    if engine not in FIG4_ENGINES:
        raise ConfigurationError(
            f"unknown fig4 engine {engine!r} (expected one of {FIG4_ENGINES})"
        )
    if n_jobs > 1 and engine != "fastpath":
        raise ConfigurationError("n_jobs > 1 needs engine='fastpath'")
    env = environment or get_environment(scale, seed)
    workload_config = workload_override or WorkloadConfig(
        n_guids=env.scale.n_guids, n_lookups=env.scale.n_lookups, seed=seed
    )
    workload = WorkloadGenerator(env.topology, workload_config).generate()
    if engine == "fastpath":
        stream = LookupStream.from_ops(
            (e.kind is EventKind.LOOKUP, e.guid, e.source_asn, e.time_ms)
            for e in workload.events
        )

    tracing = trace_path is not None
    tracer = CollectingTracer() if tracing else NULL_TRACER
    if tracing:
        n_jobs = 1
    manifest = RunManifest(
        experiment="fig4",
        config={
            "scale": env.scale.name,
            "seed": seed,
            "k_values": list(k_values),
            "engine": engine,
            "local_replica": local_replica,
            "selection_policy": selection_policy,
            "n_guids": workload_config.n_guids,
            "n_lookups": workload_config.n_lookups,
        },
    )

    rtts_by_k: Dict[int, np.ndarray] = {}
    local_hits: Dict[int, float] = {}
    failed_by_k: Dict[int, int] = {}
    for k in k_values:
        with manifest.phase(f"k={k}"):
            if engine == "simulation":
                sim = DMapSimulation(
                    env.topology,
                    env.table,
                    k=k,
                    router=env.router,
                    local_replica=local_replica,
                    selection_policy=selection_policy,
                    seed=seed,
                    tracer=tracer,
                )
                workload.apply_to_simulation(sim, env.table)
                sim.run()
                rtts_by_k[k] = sim.metrics.rtts()
                local_hits[k] = sim.metrics.local_hit_fraction()
                failed_by_k[k] = len(sim.metrics.failed)
                continue
            if engine == "fastpath":
                fast = FastpathEngine(
                    env.table,
                    env.router,
                    k=k,
                    local_replica=local_replica,
                    selection_policy=selection_policy,
                    tracer=tracer,
                )
                batch = fast.index_guids(stream.guids, stream.local_asns)
                rtts = fast.lookup_batch(
                    batch,
                    stream.guid_idx,
                    stream.sources,
                    n_jobs=n_jobs,
                    issued_at=stream.issued_at,
                ).rtt_ms
            else:
                resolver = DMapResolver(
                    env.table,
                    env.router,
                    k=k,
                    local_replica=local_replica,
                    selection_policy=selection_policy,
                    tracer=tracer,
                )
                rtts = workload.run_through_resolver(resolver, env.table)
            rtts_by_k[k] = np.asarray(rtts, dtype=float)
            local_hits[k] = float("nan")
            # Both instant engines model converged lookups (the scalar
            # one retries whole replica-set rounds until it succeeds),
            # so they record no failures.
            failed_by_k[k] = 0
    if tracing:
        with manifest.phase("export"):
            count = write_traces(trace_path, tracer.traces)
            manifest.extra["trace_file"] = trace_path
            manifest.extra["trace_count"] = count
            manifest.extra["metrics"] = metrics_report(tracer.traces)
        manifest.write(manifest_path_for(trace_path))
    return Fig4Result(env.scale.name, rtts_by_k, local_hits, failed_by_k)


def main(
    scale: Optional[str] = None,
    engine: str = "scalar",
    n_jobs: int = 1,
    trace_path: Optional[str] = None,
) -> Fig4Result:
    """CLI entry point: run and print."""
    result = run_fig4(scale, engine=engine, n_jobs=n_jobs, trace_path=trace_path)
    print(result.render())
    return result


if __name__ == "__main__":
    main()
