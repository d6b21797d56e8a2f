"""Self-tests of the benchmark's output checks and failure accounting.

Usage, from the repository root::

    python3 perfbench/selftest.py

Each output check is fed a genuine output and then a corrupted copy, and
must pass the first and fail the second.  A tiny ``live-mixed`` run with
one hosting node killed must count the writes that need that node as
failed, and leave them out of the throughput; a run that loses a mapping
without a kill must fail the no-failed-operations check.  Needs the
topology archive that ``run.py`` builds on its first run (built here if
missing).
"""

from __future__ import annotations

import asyncio
import copy
import json
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from repro.core.mapping import MappingEntry  # noqa: E402


def failing(checks):
    return [c.name for c in checks if not c.ok]


class Fig4CheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.seed = 5
        cls.env = wl.environment()
        cls.passes = [wl.fig4_pass(cls.env, cls.seed)]
        cls.golden = {str(cls.seed): wl.digest(cls.passes[0][1])}

    def test_genuine_output_passes(self):
        self.assertEqual(failing(wl.check_fig4(self.seed, self.passes, self.golden, self.env)), [])

    def test_corrupt_render_fails_golden(self):
        result, text = self.passes[0]
        corrupt = [(result, text.replace("K=5", "K=6", 1))]
        self.assertIn("fig4.golden_render", failing(wl.check_fig4(self.seed, corrupt, self.golden, self.env)))

    def test_corrupt_rtts_fail_oracle(self):
        result, text = self.passes[0]
        bad = copy.copy(result)
        bad.rtts_by_k = {k: v + 1e-9 for k, v in result.rtts_by_k.items()}
        self.assertIn("fig4.scalar_oracle", failing(wl.check_fig4(self.seed, [(bad, text)], self.golden, self.env)))

    def test_passes_must_agree(self):
        result, text = self.passes[0]
        two = [self.passes[0], (result, text + " ")]
        self.assertIn("fig4.passes_agree", failing(wl.check_fig4(self.seed, two, {}, self.env)))


class MobilityCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sizes = (wl.MOBILITY_GUIDS, wl.MOBILITY_LOOKUPS)
        wl.MOBILITY_GUIDS, wl.MOBILITY_LOOKUPS = 200, 600
        try:
            state = wl.mobility_setup(3)
            wl.fresh_router(state[0])
            cls.genuine = wl.mobility_pass(state, 3)
            cls.stream = state[1]
        finally:
            wl.MOBILITY_GUIDS, wl.MOBILITY_LOOKUPS = sizes

    def variant(self, **changes):
        p = copy.copy(self.genuine)
        for name, value in changes.items():
            setattr(p, name, value)
        return p

    def check(self, p):
        return failing(wl.check_mobility([p], self.stream))

    def test_genuine_output_passes(self):
        self.assertEqual(self.check(self.genuine), [])

    def test_shifted_des_rtt_fails(self):
        key = next(key for key, quiet in wl.quiet_lookups(self.stream) if quiet)
        des = dict(self.genuine.des_rtts)
        des[key] += 1.0
        self.assertIn("mobility.pass0.rtts_match", self.check(self.variant(des_rtts=des)))

    def test_missing_lookup_fails(self):
        des = dict(self.genuine.des_rtts)
        des.popitem()
        self.assertIn("mobility.pass0.rtts_match", self.check(self.variant(des_rtts=des)))

    def test_failed_des_lookup_fails(self):
        p = self.variant(des_failed_lookups=1, des_completed=self.genuine.des_completed - 1)
        self.assertIn("mobility.pass0.des_complete", self.check(p))


class LiveTest(unittest.TestCase):
    def run_session(self, kill: bool, seconds: float, lose_mapping: bool = False):
        async def go():
            cluster = await wl.live_setup(7)
            ops = wl.live_ops(cluster, 7, 20_000)
            if lose_mapping:
                lost = next(op.guid for op in ops if not op.is_update)
                for asn in set(cluster.resolver.placer.hosting_asns(lost)):
                    cluster.resolver.store_at(int(asn)).delete(lost)
            killed = None
            if kill:
                updated = next(op for op in ops if op.is_update)
                killed = int(cluster.resolver.placer.hosting_asns(updated.guid)[0])
                cluster.kill_node(killed)
            try:
                session = await wl.drive(cluster, ops, seconds)
            finally:
                await cluster.stop()
            return cluster, ops, session, killed

        return asyncio.run(go())

    def test_genuine_then_corrupt_replica(self):
        cluster, ops, session, _ = self.run_session(kill=False, seconds=2.0)
        self.assertEqual(failing(wl.check_live(cluster, ops, session)), [])
        self.assertTrue(wl.check_no_failures(session).ok)
        last = max((op for op in ops[: session.issued] if op.is_update), key=lambda op: op.version)
        asn = int(cluster.resolver.placer.hosting_asns(last.guid)[0])
        store = cluster.resolver.store_at(asn)
        store.delete(last.guid)
        store.insert(MappingEntry(last.guid, (last.locator,), version=last.version - 1))
        self.assertIn("live.replicas_hold_final_version", failing(wl.check_live(cluster, ops, session)))

    def test_lost_mapping_fails_check(self):
        _, ops, session, _ = self.run_session(kill=False, seconds=1.0, lose_mapping=True)
        first_lookup = next(i for i, op in enumerate(ops) if not op.is_update)
        self.assertIn(first_lookup, session.failed_ops)
        self.assertFalse(wl.check_no_failures(session).ok)

    def test_killed_node_writes_fail_and_are_not_throughput(self):
        cluster, ops, session, killed = self.run_session(kill=True, seconds=4.0)
        outcome = wl.Outcome()
        wl.summarize_live(outcome, session)
        needs_killed = {
            i for i in range(session.issued)
            if ops[i].is_update and killed in cluster.resolver.placer.hosting_asns(ops[i].guid)
        }
        self.assertTrue(needs_killed)
        self.assertEqual(set(session.failed_ops), needs_killed)
        self.assertEqual(outcome.failed, len(needs_killed))
        self.assertEqual(outcome.attempted, session.issued)
        self.assertEqual(outcome.pass_ops, [session.issued - len(needs_killed)])
        self.assertAlmostEqual(outcome.rates()[0], (session.issued - len(needs_killed)) / session.wall_s)
        self.assertEqual(failing(wl.check_live(cluster, ops, session)), [])


class ContractTest(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(wl.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual(set(run.WORKLOAD_NAMES), set(wl.WORKLOADS))

    def test_unused_layers_read_zero(self):
        cap = {"self": {}, "calls": {}, "dijkstra_rows": 0, "distinct_sources": 0,
               "batch_placements": 0, "source_groups": 0, "events_generated": 0}
        layers = wl.layer_metrics(cap, cap, 10, 0.1, 0.1, {})
        self.assertEqual(set(layers), set(wl.PER_LAYER))
        self.assertTrue(all(np.isfinite(v) for v in layers.values()))


if __name__ == "__main__":
    if not wl.cache_is_warm():
        wl.environment()
    unittest.main(verbosity=2)
