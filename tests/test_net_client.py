"""Client fault paths: loss, dead replicas, exhaustion, retry schedules."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import LookupFailedError, WriteFailedError
from repro.net.client import AttemptPlan, ClientConfig, attempt_schedule
from repro.net.cluster import ClusterConfig, LocalCluster
from repro.net.loadgen import LoadgenConfig, run_loadgen
from repro.obs.trace import OUTCOME_HIT, OUTCOME_TIMEOUT, CollectingTracer

#: Short adaptive-timeout floor (virtual ms) so fault scenarios that
#: must exhaust retries finish in tens of wall milliseconds.
FAST_CLIENT = ClientConfig(
    timeout_floor_ms=150.0,
    max_attempts=2,
    backoff_base_ms=20.0,
    backoff_cap_ms=40.0,
    seed=0,
)

#: Loss scenarios need enough retry headroom to always recover, and a
#: loss rate high enough that some lookup drops *every* replica's first
#: response (only then does a probe outlive the winner long enough to
#: time out — otherwise the first success cancels the losers early).
#: should_drop is a pure seeded hash, so this outcome is pinned, not
#: probabilistic: seed 0 at 60% loss yields both hits and timeouts.
LOSSY_CLIENT = ClientConfig(
    timeout_floor_ms=150.0,
    max_attempts=4,
    backoff_base_ms=20.0,
    backoff_cap_ms=40.0,
    seed=0,
)
LOSS_RATE = 0.6


def _config(**overrides):
    base = dict(
        scale="small",
        seed=0,
        k=5,
        max_nodes=25,
        n_guids=100,
        n_lookups=400,
        timeout_floor_ms=150.0,
    )
    base.update(overrides)
    return ClusterConfig(**base)


class TestAttemptSchedule:
    def test_deterministic_under_equal_seeds(self):
        config = ClientConfig(seed=123)
        first = attempt_schedule(config, 80.0, trace_id=42, k_index=3)
        second = attempt_schedule(config, 80.0, trace_id=42, k_index=3)
        assert first == second
        # A different seed perturbs the jittered backoffs but nothing else.
        other = attempt_schedule(
            ClientConfig(seed=124), 80.0, trace_id=42, k_index=3
        )
        assert other != first
        assert [p.timeout_ms for p in other] == [p.timeout_ms for p in first]

    def test_adaptive_timeout_is_max_of_floor_and_twice_rtt(self):
        config = ClientConfig(timeout_floor_ms=1000.0)
        assert attempt_schedule(config, 80.0)[0].timeout_ms == 1000.0
        assert attempt_schedule(config, 900.0)[0].timeout_ms == 1800.0

    def test_backoff_exponential_and_capped(self):
        config = ClientConfig(
            max_attempts=6,
            backoff_base_ms=50.0,
            backoff_factor=2.0,
            backoff_cap_ms=300.0,
            jitter_fraction=0.0,
        )
        backoffs = [p.backoff_ms for p in attempt_schedule(config, 10.0)]
        assert backoffs == [50.0, 100.0, 200.0, 300.0, 300.0, 0.0]

    def test_last_attempt_never_backs_off(self):
        for attempts in (1, 2, 4):
            plans = attempt_schedule(
                ClientConfig(max_attempts=attempts), 10.0
            )
            assert len(plans) == attempts
            assert plans[-1].backoff_ms == 0.0

    def test_jitter_varies_by_attempt_and_bounded(self):
        config = ClientConfig(
            max_attempts=5, jitter_fraction=0.1, backoff_cap_ms=1e9
        )
        plans = attempt_schedule(config, 10.0, trace_id=7, k_index=1)
        for attempt, plan in enumerate(plans[:-1]):
            base = config.backoff_base_ms * config.backoff_factor ** attempt
            assert base <= plan.backoff_ms <= base * 1.1

    def test_plans_are_value_objects(self):
        assert AttemptPlan(1.0, 2.0) == AttemptPlan(1.0, 2.0)


class TestInjectedLoss:
    def test_lookups_survive_packet_loss_via_retry(self):
        cluster = LocalCluster.build(_config(loss_rate=LOSS_RATE))

        async def scenario():
            await cluster.start()
            client = cluster.client(config=LOSSY_CLIENT)
            await client.start()
            try:
                results = []
                for lookup in cluster.lookup_stream(30):
                    results.append(
                        await client.lookup(lookup.guid, lookup.source_asn)
                    )
                return results
            finally:
                client.close()
                await cluster.stop()

        results = asyncio.run(scenario())
        assert len(results) == 30
        # The shaper provably dropped responses and the client provably
        # timed out and retried past them.
        assert cluster.registry.counter("net.node.shaped_drops").total() > 0
        assert (
            cluster.registry.counter("net.client.attempt_timeouts").total() > 0
        )

    def test_timeout_attempts_land_in_traces(self):
        cluster = LocalCluster.build(_config(loss_rate=LOSS_RATE))
        tracer = CollectingTracer()

        async def scenario():
            await cluster.start()
            client = cluster.client(config=LOSSY_CLIENT, tracer=tracer)
            await client.start()
            try:
                for lookup in cluster.lookup_stream(20):
                    await client.lookup(lookup.guid, lookup.source_asn)
            finally:
                client.close()
                await cluster.stop()

        asyncio.run(scenario())
        assert len(tracer.traces) == 20
        outcomes = {
            attempt.outcome
            for trace in tracer.traces
            for attempt in trace.attempts
        }
        assert OUTCOME_HIT in outcomes
        assert OUTCOME_TIMEOUT in outcomes
        assert all(trace.success for trace in tracer.traces)


class TestDeadReplicas:
    def test_one_dead_replica_of_k_still_succeeds(self):
        cluster = LocalCluster.build(_config())

        async def scenario():
            await cluster.start()
            client = cluster.client(config=FAST_CLIENT)
            await client.start()
            try:
                lookup = cluster.servable[0]
                hosting = [
                    int(a)
                    for a in cluster.resolver.placer.hosting_asns(lookup.guid)
                ]
                victim = hosting[0]
                cluster.kill_node(victim)
                result = await client.lookup(lookup.guid, lookup.source_asn)
                assert result.served_by in set(hosting) - {victim}
                return result
            finally:
                client.close()
                await cluster.stop()

        result = asyncio.run(scenario())
        assert result.rtt_ms > 0.0

    def test_all_replicas_dead_exhausts_with_error(self):
        cluster = LocalCluster.build(_config())

        async def scenario():
            await cluster.start()
            client = cluster.client(config=FAST_CLIENT)
            await client.start()
            try:
                lookup = cluster.servable[0]
                for asn in sorted(
                    {
                        int(a)
                        for a in cluster.resolver.placer.hosting_asns(
                            lookup.guid
                        )
                    }
                ):
                    cluster.kill_node(asn)
                with pytest.raises(LookupFailedError):
                    await client.lookup(lookup.guid, lookup.source_asn)
            finally:
                client.close()
                await cluster.stop()

        asyncio.run(scenario())
        # Every probe burned its full 2-attempt schedule.
        assert (
            cluster.registry.counter("net.client.lookup_failures").total() == 1
        )
        assert (
            cluster.registry.counter("net.client.attempt_timeouts").total() > 0
        )

    def test_write_to_dead_replica_fails_loudly(self):
        cluster = LocalCluster.build(_config())

        async def scenario():
            await cluster.start()
            client = cluster.client(config=FAST_CLIENT)
            await client.start()
            try:
                lookup = cluster.servable[0]
                hosting = cluster.resolver.placer.hosting_asns(lookup.guid)
                cluster.kill_node(int(hosting[0]))
                with pytest.raises(WriteFailedError):
                    await client.update(
                        lookup.guid, [1], lookup.source_asn, version=2
                    )
            finally:
                client.close()
                await cluster.stop()

        asyncio.run(scenario())
        assert (
            cluster.registry.counter("net.client.write_failures").total() == 1
        )


class TestLoadgenRates:
    def test_goodput_excludes_failed_lookups(self):
        cluster = LocalCluster.build(_config())
        victim = cluster.servable[0].guid

        async def scenario():
            await cluster.start()
            try:
                # Kill every replica of the first lookup's GUID: each of
                # its lookups in the run fails, the rest succeed.
                for asn in sorted(
                    {int(a) for a in cluster.resolver.placer.hosting_asns(victim)}
                ):
                    cluster.kill_node(asn)
                return await run_loadgen(
                    cluster,
                    LoadgenConfig(qps=400.0, n_queries=40),
                    client_config=FAST_CLIENT,
                )
            finally:
                await cluster.stop()

        report = asyncio.run(scenario())
        assert 0 < report.n_failed < report.n_queries
        assert report.goodput_qps == report.n_success / report.wall_s
        assert report.completed_qps == report.n_queries / report.wall_s
        assert report.goodput_qps < report.completed_qps
        payload = report.as_dict()
        assert payload["goodput_qps"] == report.goodput_qps
        assert payload["completed_qps"] == report.completed_qps
        assert "achieved_qps" not in payload
