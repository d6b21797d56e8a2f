"""Per-layer timers and counters, installed around the program's public
entry points for the duration of a traced run.

The program itself carries no benchmark instrumentation: :class:`LayerTracer`
replaces selected functions and methods of ``repro`` with wrappers that
record a span per call, and restores the originals on exit.  Spans nest on
one stack (the program is single-threaded; asyncio callbacks run the
wrapped functions synchronously), so each layer's *self* time is its
inclusive time minus the time of the spans it caused.

Only the outermost call of a layer counts as one call of that layer:
``Router.rtt_ms`` calling ``Router.one_way_ms`` is one routing query.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute path, layer).  An attribute path with a dot names a
# method on a class of that module.  Functions imported by name into a
# consumer module are patched where the consumer looks them up.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.experiments.common", "cached_topology", "topology.load"),
    ("repro.experiments.common", "generate_global_prefix_table", "bgp.prefix_table"),
    ("repro.topology.routing", "Router.__init__", "routing.init"),
    ("repro.topology.routing", "dijkstra", "routing.rows"),
    ("repro.topology.routing", "Router.latency_row", "routing.query"),
    ("repro.topology.routing", "Router.hop_row", "routing.query"),
    ("repro.topology.routing", "Router.path_latency_ms", "routing.query"),
    ("repro.topology.routing", "Router.hops", "routing.query"),
    ("repro.topology.routing", "Router.one_way_ms", "routing.query"),
    ("repro.topology.routing", "Router.rtt_ms", "routing.query"),
    ("repro.topology.routing", "Router.indices_of", "routing.query"),
    ("repro.topology.routing", "Router.one_way_to_many", "routing.query"),
    ("repro.topology.routing", "Router.rtt_to_many", "routing.query"),
    ("repro.topology.routing", "Router.closest_of", "routing.query"),
    ("repro.bgp.table", "GlobalPrefixTable.build_interval_index", "bgp.interval_index"),
    ("repro.bgp.table", "GlobalPrefixTable.resolve", "bgp.lpm"),
    ("repro.bgp.table", "GlobalPrefixTable.nearest", "bgp.lpm"),
    ("repro.bgp.table", "GlobalPrefixTable.owner_asn", "bgp.lpm"),
    ("repro.hashing.rehash", "GuidPlacer.resolve_all", "hashing.placement"),
    ("repro.hashing.rehash", "GuidPlacer.hosting_asns", "hashing.placement"),
    ("repro.fastpath.engine", "batch_resolutions", "hashing.batch_placement"),
    ("repro.workload.generator", "WorkloadGenerator.generate", "workload.generate"),
    ("repro.workload.generator", "Workload.locator_for", "workload.locator"),
    ("repro.workload.generator", "Workload.run_through_resolver", "workload.replay"),
    ("repro.workload.generator", "Workload.apply_to_simulation", "workload.replay"),
    ("repro.workload.mobility", "MobilityModel.moves_for_population", "workload.mobility"),
    ("repro.workload.mobility", "MobilityModel.to_update_events", "workload.mobility"),
    ("repro.fastpath.engine", "FastpathEngine.index_guids", "fastpath.index_guids"),
    ("repro.fastpath.engine", "FastpathEngine.lookup_batch", "fastpath.lookup_batch"),
    ("repro.core.resolver", "DMapResolver.lookup", "core.lookup"),
    ("repro.core.resolver", "DMapResolver.insert", "core.write"),
    ("repro.core.resolver", "DMapResolver.update", "core.write"),
    ("repro.sim.simulation", "DMapSimulation.__init__", "sim.init"),
    ("repro.sim.simulation", "DMapSimulation.schedule_insert", "sim.schedule"),
    ("repro.sim.simulation", "DMapSimulation.schedule_update", "sim.schedule"),
    ("repro.sim.simulation", "DMapSimulation.schedule_lookup", "sim.schedule"),
    ("repro.sim.simulation", "DMapSimulation.run", "sim.run"),
    ("repro.experiments.fig4_response_time", "Fig4Result.render", "experiments.render"),
    ("repro.net.node", "encode", "net.encode"),
    ("repro.net.client", "encode", "net.encode"),
    ("repro.net.node", "decode", "net.decode"),
    ("repro.net.client", "decode", "net.client_decode"),
)


class LayerTracer:
    """Span stack plus per-layer self time, call counts and extras.

    Use as a context manager; wrappers are live only inside it.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[List] = []
        self._restore: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Zero every accumulator (start of a new measured phase)."""
        self.self_s.clear()
        self.calls.clear()
        self.dijkstra_sources: set = set()
        self.dijkstra_rows = 0
        self.batch_placements = 0
        self.source_groups = 0
        self.events_generated = 0

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        for module_name, path, layer in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._restore.append((owner, attr, original))
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self._wrap(original.__func__, layer, path))
            else:
                wrapped = self._wrap(original, layer, path)
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn: Callable, layer: str, path: str) -> Callable:
        observe = self._observer(path)
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not stack or stack[-1][0] != layer
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if outer:
                    calls[layer] += 1
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _observer(self, path: str) -> Optional[Callable]:
        """Boundary counters beyond call counts, keyed by wrapped path."""
        if path == "dijkstra":
            return self._on_dijkstra
        if path == "batch_resolutions":
            return self._on_batch_resolutions
        if path == "FastpathEngine.lookup_batch":
            return self._on_lookup_batch
        if path == "WorkloadGenerator.generate":
            return self._on_generate
        return None

    # ------------------------------------------------------------------
    # Boundary observers
    # ------------------------------------------------------------------
    def _on_dijkstra(self, args, kwargs, result) -> None:
        import numpy as np

        indices = np.atleast_1d(np.asarray(kwargs["indices"] if "indices" in kwargs else args[2]))
        self.dijkstra_rows += int(indices.size)
        self.dijkstra_sources.update(int(i) for i in indices.tolist())

    def _on_batch_resolutions(self, args, kwargs, result) -> None:
        self.batch_placements += len(args[1])

    def _on_lookup_batch(self, args, kwargs, result) -> None:
        import numpy as np

        sources = args[3] if len(args) > 3 else kwargs["sources"]
        self.source_groups += int(np.unique(np.asarray(sources)).size)

    def _on_generate(self, args, kwargs, result) -> None:
        self.events_generated += len(result.events)
