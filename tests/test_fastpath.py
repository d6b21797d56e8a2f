"""Exact-equivalence tests: :mod:`repro.fastpath` vs the scalar oracle.

The batched engine promises *bit-identical* results to
:class:`~repro.core.resolver.DMapResolver` (the ISSUE floor is 1e-9
relative RTT; we assert plain ``==`` which is stronger).  Every test
builds a converged deployment — all writes precede all lookups — because
that is the regime the engine models; interleaved streams are covered by
the rejection tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.guid import GUID, NetworkAddress
from repro.core.resolver import (
    OUTCOME_HIT,
    OUTCOME_MISSING,
    OUTCOME_TIMEOUT,
    DMapResolver,
)
from repro.errors import ConfigurationError, LookupFailedError
from repro.fastpath import (
    FastpathEngine,
    FastpathUnsupportedError,
    LookupStream,
    batch_resolutions,
    resolve_batch,
)
from repro.fastpath import engine as engine_module
from repro.fastpath.engine import cut_at_groups, source_groups
from repro.fastpath.runner import _shard_rows, run_sharded
from repro.hashing.asnum_placer import ASNumberPlacer, WeightedASPlacer
from repro.hashing.hashers import FastHasher, Sha256Hasher
from repro.hashing.rehash import GuidPlacer
from repro.obs import CollectingTracer
from repro.obs.export import dumps_traces
from repro.sim.failures import FailureModel
from repro.workload.generator import EventKind, WorkloadConfig, WorkloadGenerator

N_GUIDS = 40
N_LOOKUPS = 150


# ----------------------------------------------------------------------
# Deployment helpers
# ----------------------------------------------------------------------
def _deploy(base_table, router, asns, *, k=5, policy="latency", local=True,
            placer=None, seed=101):
    """A converged deployment plus an aligned query stream.

    Returns ``(resolver, engine, batch, guid_idx, sources, guids)``.
    Roughly a quarter of the GUIDs get an update from a new source, so
    the local copy has moved for some of them.
    """
    rng = np.random.default_rng(seed)
    resolver = DMapResolver(
        base_table,
        router,
        k=k,
        selection_policy=policy,
        local_replica=local,
        placer=placer,
    )
    values = rng.integers(0, np.iinfo(np.uint64).max, size=N_GUIDS, dtype=np.uint64)
    guids = [GUID(int(v)) for v in values]
    write_src = rng.choice(asns, size=N_GUIDS)
    local_asn = {}
    for g, src in zip(guids, write_src):
        loc = NetworkAddress(int(rng.integers(0, 2**32)))
        resolver.insert(g, [loc], int(src))
        local_asn[g] = int(src)
    for i in rng.choice(N_GUIDS, size=N_GUIDS // 4, replace=False):
        src = int(rng.choice(asns))
        resolver.update(guids[i], [NetworkAddress(int(rng.integers(0, 2**32)))], src)
        local_asn[guids[i]] = src

    engine = FastpathEngine(
        base_table,
        router,
        selection_policy=policy,
        local_replica=local,
        placer=resolver.placer,
    )
    batch = engine.index_guids(guids, [local_asn[g] for g in guids])
    guid_idx = rng.integers(0, N_GUIDS, size=N_LOOKUPS)
    sources = rng.choice(asns, size=N_LOOKUPS)
    return resolver, engine, batch, guid_idx, sources, guids


def _assert_lookup_parity(resolver, result, guids, guid_idx, sources,
                          probe=None, is_down=None):
    """Row-by-row comparison against the scalar walk (exact equality)."""
    for i in range(len(guid_idx)):
        g, src = guids[int(guid_idx[i])], int(sources[i])
        try:
            scalar = resolver.lookup(g, src, probe=probe, is_down=is_down)
        except LookupFailedError as exc:
            assert not result.success[i]
            assert result.served_by[i] == -1
            assert result.rtt_ms[i] == exc.elapsed_ms
            assert result.attempts[i] == exc.attempts
            continue
        assert result.success[i]
        assert result.rtt_ms[i] == scalar.rtt_ms
        assert result.served_by[i] == scalar.served_by
        assert bool(result.used_local[i]) == scalar.used_local
        assert result.attempts[i] == len(scalar.attempts)


# ----------------------------------------------------------------------
# No availability model: every replica answers
# ----------------------------------------------------------------------
class TestFailureFreeEquivalence:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("local", [True, False])
    def test_latency_policy(self, base_table, router, asns, k, local):
        resolver, engine, batch, gidx, srcs, guids = _deploy(
            base_table, router, asns, k=k, local=local
        )
        result = engine.lookup_batch(batch, gidx, srcs)
        assert result.success.all()
        _assert_lookup_parity(resolver, result, guids, gidx, srcs)

    @pytest.mark.parametrize("local", [True, False])
    def test_hops_policy(self, base_table, router, asns, local):
        resolver, engine, batch, gidx, srcs, guids = _deploy(
            base_table, router, asns, policy="hops", local=local, seed=202
        )
        result = engine.lookup_batch(batch, gidx, srcs)
        _assert_lookup_parity(resolver, result, guids, gidx, srcs)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_asnum_placement(self, base_table, router, asns, k):
        placer = ASNumberPlacer(asns, k=k)
        resolver, engine, batch, gidx, srcs, guids = _deploy(
            base_table, router, asns, k=k, placer=placer, seed=303
        )
        result = engine.lookup_batch(batch, gidx, srcs)
        _assert_lookup_parity(resolver, result, guids, gidx, srcs)

    def test_write_rtts_match_resolver(self, base_table, router, asns, rng):
        resolver = DMapResolver(base_table, router, k=5)
        engine = FastpathEngine(base_table, router, k=5)
        values = rng.integers(0, np.iinfo(np.uint64).max, size=30, dtype=np.uint64)
        guids = [GUID(int(v)) for v in values]
        sources = rng.choice(asns, size=30)
        scalar = [
            resolver.insert(g, [NetworkAddress(1)], int(s)).rtt_ms
            for g, s in zip(guids, sources)
        ]
        batch = engine.index_guids(guids)
        fast = engine.write_rtts(batch, np.arange(30), sources)
        assert fast.tolist() == scalar


# ----------------------------------------------------------------------
# Availability models (churn staleness, dead replicas, dead queriers)
# ----------------------------------------------------------------------
class _Model:
    """Deterministic per-(AS, GUID) availability — a pure function."""

    def __init__(self, down_asns=()):
        self._down = frozenset(int(a) for a in down_asns)

    def lookup_outcome(self, asn, guid):
        v = (asn * 2654435761 + int(guid) * 40503) % 10
        if v < 2:
            return OUTCOME_TIMEOUT
        if v < 5:
            return OUTCOME_MISSING
        return OUTCOME_HIT

    def is_down(self, asn):
        return asn in self._down


class _Always(FailureModel):
    """Every global replica answers with one fixed outcome."""

    def __init__(self, outcome):
        self.outcome = outcome

    def lookup_outcome(self, asn, guid):
        return self.outcome


class TestAvailabilityEquivalence:
    def test_mixed_outcomes(self, base_table, router, asns):
        resolver, engine, batch, gidx, srcs, guids = _deploy(
            base_table, router, asns, seed=404
        )
        model = _Model()
        result = engine.lookup_batch(batch, gidx, srcs, availability=model)
        _assert_lookup_parity(
            resolver, result, guids, gidx, srcs,
            probe=model.lookup_outcome, is_down=model.is_down,
        )

    def test_dead_querier_local_timeout(self, base_table, router, asns):
        resolver, engine, batch, gidx, srcs, guids = _deploy(
            base_table, router, asns, seed=505
        )
        model = _Model(down_asns=srcs[:40])
        result = engine.lookup_batch(batch, gidx, srcs, availability=model)
        _assert_lookup_parity(
            resolver, result, guids, gidx, srcs,
            probe=model.lookup_outcome, is_down=model.is_down,
        )

    def test_total_failure_without_local(self, base_table, router, asns):
        resolver, engine, batch, gidx, srcs, guids = _deploy(
            base_table, router, asns, local=False, seed=606
        )
        dead = _Always(OUTCOME_TIMEOUT)
        result = engine.lookup_batch(batch, gidx, srcs, availability=dead)
        assert not result.success.any()
        assert (result.served_by == -1).all()
        _assert_lookup_parity(
            resolver, result, guids, gidx, srcs, probe=dead.lookup_outcome
        )

    def test_local_fallback_after_failed_walk(self, base_table, router, asns):
        resolver, engine, batch, gidx, srcs, guids = _deploy(
            base_table, router, asns, seed=707
        )
        # Route half the queries from their GUID's own attachment AS so
        # the §III-C fallback branch is guaranteed to be exercised.
        srcs = srcs.copy()
        srcs[::2] = batch.local_asns[gidx[::2]]
        missing = _Always(OUTCOME_MISSING)
        result = engine.lookup_batch(batch, gidx, srcs, availability=missing)
        _assert_lookup_parity(
            resolver, result, guids, gidx, srcs, probe=missing.lookup_outcome
        )
        assert result.used_local.any()


# ----------------------------------------------------------------------
# Block loop: many blocks, groups straddling the nominal block edges
# ----------------------------------------------------------------------
TINY_BLOCK = 7


class TestBlockLoop:
    @staticmethod
    def _sources(asns, gidx, batch, rng):
        """Three heavy querier ASs (groups far larger than a block), light
        ones that share blocks, and rows from the GUID's own local AS."""
        heavy = rng.choice(asns, size=3, replace=False)
        srcs = np.where(
            rng.random(len(gidx)) < 0.5,
            heavy[rng.integers(0, 3, size=len(gidx))],
            rng.choice(asns, size=len(gidx)),
        )
        srcs[::5] = batch.local_asns[gidx[::5]]
        return srcs, heavy

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("local", [True, False])
    @pytest.mark.parametrize("with_model", [False, True])
    def test_tiny_blocks_match_scalar(self, monkeypatch, base_table, router,
                                      asns, k, local, with_model):
        monkeypatch.setattr(engine_module, "BLOCK_ROWS", TINY_BLOCK)
        resolver, engine, batch, gidx, _, guids = _deploy(
            base_table, router, asns, k=k, local=local, seed=1000 + k
        )
        rng = np.random.default_rng(2000 + k)
        srcs, heavy = self._sources(asns, gidx, batch, rng)

        # The stream really exercises the block cutter.
        _, edges = source_groups(srcs)
        targets = np.arange(TINY_BLOCK, len(srcs), TINY_BLOCK)
        cuts = cut_at_groups(edges, targets)
        assert len(cuts) > 3
        assert any(
            np.searchsorted(edges, hi) - np.searchsorted(edges, lo) > 1
            for lo, hi in zip(cuts[:-1], cuts[1:])
        )  # some block holds several groups
        assert len(np.setdiff1d(targets, edges))  # a group straddles a target

        model = _Model(down_asns=heavy[:1]) if with_model else None
        probe = model.lookup_outcome if with_model else None
        is_down = model.is_down if with_model else None
        resolver.tracer = CollectingTracer()
        engine.tracer = CollectingTracer()
        keyed = []
        selection_keys = engine._selection_keys

        def record_keys(src, cand_idx):
            keyed.append(src)
            return selection_keys(src, cand_idx)

        monkeypatch.setattr(engine, "_selection_keys", record_keys)
        result = engine.lookup_batch(batch, gidx, srcs, availability=model)
        # Blocks never split a group: one Dijkstra row request per source.
        assert sorted(keyed) == sorted(set(srcs.tolist()))
        _assert_lookup_parity(
            resolver, result, guids, gidx, srcs, probe=probe, is_down=is_down
        )
        if local:
            assert result.used_local.any()
        assert dumps_traces(engine.tracer.traces) == dumps_traces(
            resolver.tracer.traces
        )

    def test_block_cuts_fall_on_group_edges(self):
        sources = np.array([7, 3, 7, 3, 9, 9, 9, 1, 3, 7, 9, 9])
        order, edges = source_groups(sources)
        assert edges.tolist() == [0, 1, 4, 7, 12]
        cuts = cut_at_groups(edges, np.array([2, 5, 6]))
        assert cuts.tolist() == [0, 4, 7, 12]
        assert sources[order].tolist() == sorted(sources.tolist())
        _, empty_edges = source_groups(np.array([], dtype=np.int64))
        assert empty_edges.tolist() == [0]
        assert cut_at_groups(empty_edges, np.array([], dtype=np.int64)).tolist() == [0]


# ----------------------------------------------------------------------
# Sharded runner
# ----------------------------------------------------------------------
class TestShardedRunner:
    def test_sharded_matches_serial(self, base_table, router, asns):
        _, engine, batch, gidx, srcs, _ = _deploy(
            base_table, router, asns, seed=909
        )
        serial = engine.lookup_batch(batch, gidx, srcs)
        for n_jobs in (2, 3):
            sharded = engine.lookup_batch(batch, gidx, srcs, n_jobs=n_jobs)
            assert np.array_equal(serial.rtt_ms, sharded.rtt_ms)
            assert np.array_equal(serial.served_by, sharded.served_by)
            assert np.array_equal(serial.used_local, sharded.used_local)
            assert np.array_equal(serial.attempts, sharded.attempts)
            assert np.array_equal(serial.success, sharded.success)

    def test_shard_rows_partition_on_group_boundaries(self):
        sources = np.array([7, 3, 7, 3, 9, 9, 9, 1, 3, 7])
        shards = _shard_rows(sources, 3)
        all_rows = np.concatenate(shards)
        assert sorted(all_rows.tolist()) == list(range(len(sources)))
        seen = set()
        for rows in shards:
            groups = set(sources[rows].tolist())
            assert not groups & seen  # no source AS split across shards
            seen |= groups

    def test_single_group_falls_back_to_serial(self, base_table, router, asns):
        _, engine, batch, gidx, _, _ = _deploy(base_table, router, asns, seed=111)
        srcs = np.full(len(gidx), int(asns[0]))
        serial = engine.lookup_batch(batch, gidx, srcs)
        sharded = run_sharded(engine, batch, gidx, srcs, n_jobs=4)
        assert np.array_equal(serial.rtt_ms, sharded.rtt_ms)


# ----------------------------------------------------------------------
# Unsupported configurations fall back loudly
# ----------------------------------------------------------------------
class TestRejections:
    def test_random_policy_rejected(self, base_table, router):
        with pytest.raises(FastpathUnsupportedError):
            FastpathEngine(base_table, router, selection_policy="random")

    def test_nonpositive_timeout_rejected(self, base_table, router):
        with pytest.raises(ConfigurationError):
            FastpathEngine(base_table, router, timeout_ms=0.0)

    def test_sharded_availability_rejected(self, base_table, router, asns):
        _, engine, batch, gidx, srcs, _ = _deploy(
            base_table, router, asns, seed=121
        )
        with pytest.raises(FastpathUnsupportedError):
            engine.lookup_batch(batch, gidx, srcs, availability=_Model(), n_jobs=2)

    def test_misaligned_local_asns_rejected(self, base_table, router):
        engine = FastpathEngine(base_table, router)
        with pytest.raises(ConfigurationError):
            engine.index_guids([GUID(1), GUID(2)], local_asns=[5])

    def test_misaligned_queries_rejected(self, base_table, router, asns):
        _, engine, batch, gidx, srcs, _ = _deploy(
            base_table, router, asns, seed=131
        )
        with pytest.raises(ConfigurationError):
            engine.lookup_batch(batch, gidx[:-1], srcs)


# ----------------------------------------------------------------------
# Placement kernels (fig6 path)
# ----------------------------------------------------------------------
class TestBatchPlacement:
    def test_resolve_batch_matches_batch_resolutions(self, base_table):
        # fig6 and the rehash probe pass folded uint64 arrays straight
        # in; the engine goes through batch_resolutions with int lists.
        rng = np.random.default_rng(41)
        folded = rng.integers(
            0, np.iinfo(np.uint64).max, size=2000, dtype=np.uint64
        )
        hasher = FastHasher(5, address_bits=base_table.bits, seed=0)
        placer = GuidPlacer(hasher, base_table)
        fast = resolve_batch(placer, folded)
        listed = batch_resolutions(placer, folded.tolist())
        for a, b in zip(fast, listed):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("scheme", ["guid", "guid-sha256", "asnum", "weighted"])
    def test_batch_hosting_matches_scalar(self, base_table, asns, scheme):
        rng = np.random.default_rng(42)
        values = [int(v) for v in rng.integers(0, 2**64, size=64, dtype=np.uint64)]
        if scheme == "guid":
            placer = GuidPlacer(FastHasher(5, address_bits=base_table.bits), base_table)
        elif scheme == "guid-sha256":
            # The resolver's default family takes the per-value hash and
            # rehash loops; M=2 sends many chains to the deputy fallback.
            placer = GuidPlacer(
                Sha256Hasher(5, address_bits=base_table.bits),
                base_table,
                max_rehashes=2,
            )
        elif scheme == "asnum":
            placer = ASNumberPlacer(asns, k=5)
        else:
            weights = {int(a): float(i % 7 + 1) for i, a in enumerate(asns)}
            placer = WeightedASPlacer(weights, k=5)
        asns_m, attempts_m, deputy_m = batch_resolutions(placer, values)
        for row, v in enumerate(values):
            scalar = placer.resolve_all(GUID(v))
            assert asns_m[row].tolist() == [res.asn for res in scalar]
            assert attempts_m[row].tolist() == [res.attempts for res in scalar]
            assert deputy_m[row].tolist() == [res.via_deputy for res in scalar]


class TestPlacementTracksTable:
    def test_index_guids_after_withdraw_matches_scalar(self, table, router):
        # The engine places against the table as it stands at each call,
        # not against a snapshot taken at its first call.
        engine = FastpathEngine(table, router, k=5)
        rng = np.random.default_rng(51)
        guids = [
            GUID(int(v))
            for v in rng.integers(0, np.iinfo(np.uint64).max, size=300, dtype=np.uint64)
        ]
        first = engine.index_guids(guids)
        asn_values, counts = np.unique(first.placements, return_counts=True)
        victim = int(asn_values[np.argmax(counts)])
        for prefix in table.prefixes_of(victim):
            table.withdraw(prefix)
        second = engine.index_guids(guids)
        assert victim not in second.placements
        assert second.placements.tolist() == [
            [res.asn for res in engine.placer.resolve_all(g)] for g in guids
        ]


# ----------------------------------------------------------------------
# Op-stream adapter
# ----------------------------------------------------------------------
class TestLookupStream:
    def test_first_write_order_and_last_write_local(self):
        ops = [
            (False, "b", 10, 0.0),
            (False, "a", 11, 1.0),
            (False, "b", 12, 2.0),  # update: b's local copy moves to 12
            (True, "a", 20, 3.0),
            (True, "b", 21, 4.0),
            (True, "a", 22, 5.0),
        ]
        stream = LookupStream.from_ops(iter(ops))
        assert stream.guids == ["b", "a"]
        assert stream.local_asns.tolist() == [12, 11]
        assert stream.writes.tolist() == [[0, 10], [1, 11], [0, 12]]
        assert stream.guid_idx.tolist() == [1, 0, 1]
        assert stream.sources.tolist() == [20, 21, 22]
        assert stream.issued_at.tolist() == [3.0, 4.0, 5.0]
        assert stream.guid_idx.dtype == np.int64
        assert stream.issued_at.dtype == np.float64

    def test_lookup_of_never_written_guid_rejected(self):
        with pytest.raises(FastpathUnsupportedError, match="never-written"):
            LookupStream.from_ops([(False, "a", 1, 0.0), (True, "b", 2, 1.0)])

    def test_write_after_first_lookup_rejected(self):
        ops = [(False, "a", 1, 0.0), (True, "a", 2, 1.0), (False, "a", 3, 2.0)]
        with pytest.raises(FastpathUnsupportedError, match="interleaved"):
            LookupStream.from_ops(ops)


# ----------------------------------------------------------------------
# Workload integration
# ----------------------------------------------------------------------
class TestWorkloadEngine:
    @pytest.fixture(scope="class")
    def workload(self, topology):
        config = WorkloadConfig(n_guids=30, n_lookups=120, seed=3)
        return WorkloadGenerator(topology, config).generate()

    def test_fastpath_rtts_match_scalar(self, topology, base_table, router, workload):
        scalar = workload.run_through_resolver(
            DMapResolver(base_table, router, k=5), base_table
        )
        stream = LookupStream.from_ops(
            (e.kind is EventKind.LOOKUP, e.guid, e.source_asn, e.time_ms)
            for e in workload.events
        )
        engine = FastpathEngine(base_table, router, k=5)
        batch = engine.index_guids(stream.guids, stream.local_asns)
        fast = engine.lookup_batch(batch, stream.guid_idx, stream.sources)
        # Scalar returns grouped order, fastpath event order: compare as
        # sorted sequences (both exact, no tolerance).
        assert sorted(fast.rtt_ms.tolist()) == sorted(scalar)
        assert len(fast) == workload.config.n_lookups
