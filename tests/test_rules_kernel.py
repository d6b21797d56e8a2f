"""The lookup rules are written once: structural and rule-level guards.

The scalar resolver, the fastpath engine, the DES and the live client
execute one protocol.  Its decisions live in single functions —
:func:`repro.core.resolver.adaptive_timeout_ms` (§III-D.3),
:func:`repro.core.resolver.local_branch` and
:func:`repro.core.resolver.race_verdict` (§III-C),
:func:`repro.obs.trace.build_query_trace` and Algorithm 1's placement
chain (:meth:`repro.hashing.rehash.GuidPlacer.resolve_one` and its
vectorized form :func:`repro.fastpath.placement.resolve_batch`) — and
these tests keep the engines from growing private copies again.  The
fastpath engine is fed one way too: through
:meth:`repro.fastpath.engine.LookupStream.from_ops`, from fig4 and the
differential harness only.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Tuple

import numpy as np
import pytest

from repro.core.guid import GUID, NetworkAddress
from repro.core.resolver import (
    DMapResolver,
    adaptive_timeout_ms,
    race_verdict,
)
from repro.fastpath import FastpathEngine
from repro.obs import CollectingTracer
from repro.obs.export import dumps_traces
from repro.sim.failures import FailureModel

SRC_REPRO = Path(__file__).parent.parent / "src" / "repro"


def _walk_with_function(tree: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """Every node with the name of its innermost enclosing function."""
    stack: List[Tuple[ast.AST, str]] = [(tree, "<module>")]
    while stack:
        node, func = stack.pop()
        yield node, func
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        stack.extend((child, func) for child in ast.iter_child_nodes(node))


def _call_name(node: ast.Call) -> str:
    target = node.func
    if isinstance(target, ast.Attribute):
        return target.attr
    return target.id if isinstance(target, ast.Name) else ""


def _is_doubling(node: ast.AST) -> bool:
    """``2.0 * x`` or ``x * 2.0``."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and any(
            isinstance(side, ast.Constant) and side.value == 2.0
            for side in (node.left, node.right)
        )
    )


def _sites(predicate) -> List[Tuple[str, str]]:
    """``(module path, enclosing function)`` of every matching call."""
    sites = []
    for path in sorted(SRC_REPRO.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node, func in _walk_with_function(tree):
            if isinstance(node, ast.Call) and predicate(node):
                sites.append((path.relative_to(SRC_REPRO).as_posix(), func))
    return sites


class TestOneDefinition:
    def test_query_trace_is_built_only_in_obs(self):
        sites = _sites(lambda call: _call_name(call) == "QueryTrace")
        assert sorted(sites) == [
            ("obs/export.py", "trace_from_dict"),
            ("obs/trace.py", "build_query_trace"),
        ]

    def test_adaptive_timeout_is_spelled_only_once(self):
        # ``max(floor, 2.0 * rtt)`` in any spelling (builtin or numpy).
        sites = _sites(
            lambda call: _call_name(call) in ("max", "maximum")
            and any(_is_doubling(arg) for arg in call.args)
        )
        assert sites and {func for _, func in sites} == {"adaptive_timeout_ms"}
        assert {module for module, _ in sites} == {"core/resolver.py"}

    def test_deputy_fallback_only_in_the_placement_kernel(self):
        # Algorithm 1 has one scalar oracle and one vectorized kernel.
        sites = _sites(lambda call: _call_name(call) == "nearest")
        assert sorted(sites) == [
            ("fastpath/placement.py", "resolve_batch"),
            ("hashing/rehash.py", "resolve_one"),
        ]

    def test_no_duck_typed_provenance(self):
        # Every placer's resolutions carry ``attempts`` and ``via_deputy``.
        sites = _sites(
            lambda call: _call_name(call) == "getattr"
            and len(call.args) > 1
            and isinstance(call.args[1], ast.Constant)
            and call.args[1].value in ("attempts", "via_deputy")
        )
        assert sites == []

    def test_race_verdict_is_reached_once_per_engine(self):
        # The scalar oracle and the fastpath block call the one rule.
        sites = _sites(lambda call: _call_name(call) == "race_verdict")
        assert sorted(sites) == [
            ("core/resolver.py", "lookup"),
            ("fastpath/engine.py", "_lookup_block"),
        ]

    def test_batch_lookups_are_driven_from_two_places(self):
        # fig4 and the differential harness are the engine's only
        # callers; both feed it through ``LookupStream.from_ops``.  The
        # other sites call the interval index's own (LPM) lookup_batch.
        sites = _sites(lambda call: _call_name(call) == "lookup_batch")
        lpm_sites = [
            ("bgp/interval_index.py", "is_announced_batch"),
            ("bgp/interval_index.py", "lookup_one"),
            ("fastpath/placement.py", "resolve_batch"),
        ]
        assert sorted(sites) == sorted(
            lpm_sites
            + [
                ("experiments/fig4_response_time.py", "run_fig4"),
                ("validation/differ.py", "run_fastpath"),
            ]
        )

    def test_workload_does_not_import_the_fastpath(self):
        # The workload module describes streams; engines consume them.
        imported = []
        for path in sorted((SRC_REPRO / "workload").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    imported.append(node.module or "")
                elif isinstance(node, ast.Import):
                    imported.extend(alias.name for alias in node.names)
        assert imported
        assert not [name for name in imported if "fastpath" in name.split(".")]

    def test_adaptive_timeout_scalar_and_array(self):
        scalar = adaptive_timeout_ms(1000.0, 700.0)
        assert type(scalar) is float and scalar == 1400.0
        assert adaptive_timeout_ms(1000.0, 30.0) == 1000.0
        array = adaptive_timeout_ms(1000.0, np.array([30.0, 700.0]))
        assert np.array_equal(array, [1000.0, 1400.0])


def _fastpath_traces(base_table, router, asns, k, local, availability, seed):
    """Canonical JSONL of one traced fastpath batch."""
    rng = np.random.default_rng(seed)
    resolver = DMapResolver(base_table, router, k=k, local_replica=local)
    guids = [
        GUID(int(v))
        for v in rng.integers(0, np.iinfo(np.uint64).max, size=40, dtype=np.uint64)
    ]
    write_src = [int(a) for a in rng.choice(asns, size=len(guids))]
    for g, src in zip(guids, write_src):
        resolver.insert(g, [NetworkAddress(1)], src)
    tracer = CollectingTracer()
    engine = FastpathEngine(base_table, router, k=k, local_replica=local, tracer=tracer)
    batch = engine.index_guids(guids, write_src if local else None)
    gidx = rng.integers(0, len(guids), size=150)
    # Query from the writers' ASs too, so local races are won and lost.
    srcs = np.where(
        rng.random(150) < 0.5,
        np.asarray(write_src)[gidx],
        rng.choice(asns, size=150),
    )
    times = rng.uniform(0.0, 1000.0, size=150)
    engine.lookup_batch(batch, gidx, srcs, availability=availability, issued_at=times)
    assert len(tracer) == 150
    return dumps_traces(tracer.traces)


class TestNoModelIsAllHitModel:
    """No availability model traces exactly like a model where all hit."""

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("local", [True, False])
    def test_byte_identical_jsonl(self, base_table, router, asns, k, local):
        no_model = _fastpath_traces(base_table, router, asns, k, local, None, 40 + k)
        modelled = _fastpath_traces(
            base_table, router, asns, k, local, FailureModel(), 40 + k
        )
        assert no_model == modelled
        if local:
            assert '"used_local":true' in no_model


#: ``(local_hit, local_end, launched, global_hit, walk_ms)`` ->
#: ``(used_local, rtt_ms)``: every branch of the §III-C verdict.
RACE_CASES = [
    # The local reply wins ties, and beats a slower global hit.
    ((True, 3.0, True, True, 3.0), (True, 3.0)),
    ((True, 3.0, True, True, 9.0), (True, 3.0)),
    # A faster global hit beats the local reply.
    ((True, 3.0, True, True, 2.0), (False, 2.0)),
    # Global miss with a local hit: the local reply serves, even late.
    ((True, 3.0, True, False, 1.5), (True, 3.0)),
    # Global hit, local branch launched but missing or not launched.
    ((False, 3.0, True, True, 9.0), (False, 9.0)),
    ((False, 3.0, False, True, 1.0), (False, 1.0)),
    # Both fail: the later branch ends the lookup when it was launched...
    ((False, 3.0, True, False, 1.5), (False, 3.0)),
    ((False, 3.0, True, False, 7.5), (False, 7.5)),
    # ...and the failed walk alone when it was not.
    ((False, 3.0, False, False, 1.5), (False, 1.5)),
]


class TestRaceVerdict:
    @pytest.mark.parametrize("inputs, expected", RACE_CASES)
    def test_scalar_truth_table(self, inputs, expected):
        used_local, rtt_ms = race_verdict(*inputs)
        assert type(used_local) is bool and type(rtt_ms) is float
        assert (used_local, rtt_ms) == expected

    def test_array_matches_scalar_elementwise(self):
        columns = list(zip(*(inputs for inputs, _ in RACE_CASES)))
        local_hit, local_end, launched, global_hit, walk_ms = (
            np.asarray(col) for col in columns
        )
        used_local, rtt_ms = race_verdict(
            local_hit, local_end, launched, global_hit, walk_ms
        )
        assert isinstance(used_local, np.ndarray)
        assert isinstance(rtt_ms, np.ndarray)
        assert used_local.tolist() == [exp[0] for _, exp in RACE_CASES]
        assert rtt_ms.tolist() == [exp[1] for _, exp in RACE_CASES]
