"""Tier-1 coverage for the differential cross-validation harness.

The pinned seeds below each reproduced a *real* analytic-vs-DES
divergence before the corresponding fix landed in this repo; keeping
them here makes every one of those bugs a permanent regression test.
Reproduce any of them interactively with::

    python -m repro.validation --scenarios 1 --seed <seed>
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.validation import diff_scenario, differ, generate_scenario
from repro.validation.__main__ import build_report, main
from repro.validation.differ import LookupOutcome, fastpath_supported
from repro.validation.report import (
    KIND_FASTPATH_TRACE,
    KIND_FASTPATH_WRITE_RTT,
    KIND_LOOKUP_ATTEMPTS,
    KIND_LOOKUP_LOST,
    KIND_LOOKUP_RTT,
    KIND_LOOKUP_SERVED_BY,
    KIND_LOOKUP_SUCCESS,
    KIND_LOOKUP_USED_LOCAL,
    KIND_STORAGE,
    Mismatch,
    ValidationReport,
)

#: Each seed reproduced a distinct divergence family before its fix:
#:   0 — a GUID Update left the stale local copy at the host's previous
#:       attachment AS (the DES processed updates as plain inserts)
#:   1 — local-vs-global race: the resolver raced the local branch even
#:       when the source AS was itself a global candidate, and broke
#:       ties toward the global reply (served_by / rtt / used_local)
#:   8 — a lookup issued from a dead AS never completed in the DES: the
#:       swallowed local request left the lookup pending forever
#:  13 — failed-lookup time ignored the local branch, and a replica
#:       that should host a mapping after an announcement never pulled
#:       it on the analytic path (lazy migration, §III-D.1)
#:  26 — attempt over-counting: the resolver kept charging global
#:       attempts after the local reply had already won the race
REGRESSION_SEEDS = (0, 1, 8, 13, 26)


class TestDifferentialRegression:
    @pytest.mark.parametrize("seed", REGRESSION_SEEDS)
    def test_pinned_divergence_seed_stays_clean(self, seed):
        diff = diff_scenario(generate_scenario(seed))
        assert diff.clean, "\n".join(m.render() for m in diff.mismatches)

    def test_smoke_consecutive_scenarios_agree(self):
        report = build_report(3, seed=200)
        assert report.clean, report.render()
        assert report.scenarios == 3
        assert report.lookups > 0
        assert report.writes > 0
        assert report.lpm_checks > 0

    def test_cli_exit_code_and_output(self, capsys):
        assert main(["--scenarios", "1", "--seed", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["scenarios"] == 1


class TestScenarioGeneration:
    def test_generation_is_deterministic(self):
        first = generate_scenario(5)
        second = generate_scenario(5)
        assert first.config == second.config
        assert first.trace == second.trace
        assert first.selector_seed == second.selector_seed

    def test_distinct_seeds_vary_the_trace(self):
        assert generate_scenario(3).trace != generate_scenario(4).trace

    def test_fresh_tables_are_independent(self):
        scenario = generate_scenario(0)
        one, two = scenario.fresh_table(), scenario.fresh_table()
        assert one is not two
        assert one is not scenario.base_table


class TestReport:
    def _mismatch(self, seed=3, kind=KIND_STORAGE):
        return Mismatch(
            seed=seed,
            kind=kind,
            subject="AS 7",
            analytic="a",
            simulated="b",
            detail="context",
        )

    def test_clean_flips_on_first_mismatch(self):
        report = ValidationReport()
        report.add_scenario("cfg", 4, 2, 10, ())
        assert report.clean
        report.add_scenario("cfg2", 4, 2, 10, (self._mismatch(),))
        assert not report.clean
        assert report.scenarios == 2
        assert report.lookups == 8

    def test_grouping_and_reproducer_seeds(self):
        report = ValidationReport()
        report.add_scenario(
            "cfg",
            1,
            1,
            1,
            (
                self._mismatch(seed=9, kind=KIND_LOOKUP_LOST),
                self._mismatch(seed=9, kind=KIND_STORAGE),
                self._mismatch(seed=4, kind=KIND_STORAGE),
            ),
        )
        grouped = report.by_kind()
        assert set(grouped) == {KIND_LOOKUP_LOST, KIND_STORAGE}
        assert len(grouped[KIND_STORAGE]) == 2
        assert report.reproducer_seeds() == [4, 9]

    def test_render_names_a_reproducer(self):
        report = ValidationReport()
        report.add_scenario("k=5 churn", 1, 1, 1, (self._mismatch(seed=7),))
        rendered = report.render()
        assert "--seed 7" in rendered
        assert "k=5 churn" in rendered

    def test_as_dict_is_json_serializable(self):
        report = ValidationReport()
        report.add_scenario("cfg", 1, 1, 1, (self._mismatch(),))
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["clean"] is False
        assert payload["mismatches"][0]["kind"] == KIND_STORAGE


#: A no-churn, latency-policy scenario (K=5, local replicas on) that the
#: fastpath lane replays.
FASTPATH_SEED = 11

BASE_OUTCOME = LookupOutcome(
    success=True, served_by=7, used_local=False, attempts=2, rtt_ms=80.0
)


class TestDesLane:
    """``_diff_lookup`` reports exactly the field that differs."""

    @pytest.mark.parametrize(
        "field, value, kind",
        [
            ("success", False, KIND_LOOKUP_SUCCESS),
            ("served_by", 8, KIND_LOOKUP_SERVED_BY),
            ("used_local", True, KIND_LOOKUP_USED_LOCAL),
            ("attempts", 3, KIND_LOOKUP_ATTEMPTS),
            ("rtt_ms", 80.5, KIND_LOOKUP_RTT),
        ],
    )
    def test_one_field_one_kind(self, field, value, kind):
        theirs = replace(BASE_OUTCOME, **{field: value})
        found = differ._diff_lookup(3, "subj", BASE_OUTCOME, theirs, "ctx")
        assert [(m.kind, m.subject, m.detail) for m in found] == [
            (kind, "subj", "ctx")
        ]
        assert found[0].analytic != found[0].simulated

    def test_success_disagreement_hides_dependent_fields(self):
        theirs = replace(
            BASE_OUTCOME, success=False, served_by=None, attempts=5, rtt_ms=1.0
        )
        found = differ._diff_lookup(3, "subj", BASE_OUTCOME, theirs)
        assert [m.kind for m in found] == [KIND_LOOKUP_SUCCESS]

    def test_rtt_accumulation_noise_agrees(self):
        theirs = replace(BASE_OUTCOME, rtt_ms=80.0 * (1.0 + 1e-12))
        assert differ._diff_lookup(3, "subj", BASE_OUTCOME, theirs) == []

    def test_lost_lookup(self, monkeypatch):
        real = differ.run_simulation

        def lose_first_lookup(scenario):
            result = real(scenario)
            del result.lookups[min(result.lookups)]
            return result

        monkeypatch.setattr(differ, "run_simulation", lose_first_lookup)
        diff = diff_scenario(generate_scenario(FASTPATH_SEED), fastpath=False)
        assert [m.kind for m in diff.mismatches] == [KIND_LOOKUP_LOST]


class TestFastpathLane:
    """The fastpath lane is exact: trace bytes and write RTTs."""

    @pytest.fixture(scope="class")
    def replay(self):
        scenario = generate_scenario(FASTPATH_SEED)
        assert fastpath_supported(scenario)
        ops_by_time = {op.at: op for op in scenario.trace}
        return scenario, differ.run_analytic(scenario), ops_by_time

    def _diff(self, monkeypatch, replay, edit):
        real = differ.run_fastpath

        def edited(scenario):
            writes, traces = real(scenario)
            edit(writes, traces)
            return writes, traces

        monkeypatch.setattr(differ, "run_fastpath", edited)
        mismatches, _ = differ._diff_fastpath(*replay)
        return mismatches

    def test_unedited_replay_is_clean(self, replay):
        scenario = replay[0]
        mismatches, lookups = differ._diff_fastpath(*replay)
        assert mismatches == []
        assert lookups == scenario.n_lookup_ops

    def test_one_ulp_rtt_nudge_is_a_trace_mismatch(self, monkeypatch, replay):
        seen = {}

        def nudge(writes, traces):
            at = min(traces)
            seen["old"] = traces[at]
            traces[at] = replace(
                traces[at], rtt_ms=float(np.nextafter(traces[at].rtt_ms, np.inf))
            )
            seen["new"] = traces[at]

        found = self._diff(monkeypatch, replay, nudge)
        assert [m.kind for m in found] == [KIND_FASTPATH_TRACE]
        old, new = seen["old"], seen["new"]
        assert found[0].detail == f"ours[{old.compact()}] theirs[{new.compact()}]"
        assert found[0].analytic != found[0].simulated
        # The DES lane's tolerance cannot see a 1-ulp nudge.
        assert differ._close(old.rtt_ms, new.rtt_ms)

    def test_dropped_trace_is_a_trace_mismatch(self, monkeypatch, replay):
        seen = {}

        def drop(writes, traces):
            seen["old"] = traces.pop(min(traces))

        found = self._diff(monkeypatch, replay, drop)
        assert [m.kind for m in found] == [KIND_FASTPATH_TRACE]
        assert found[0].simulated == "no trace"
        assert found[0].detail == f"ours[{seen['old'].compact()}] theirs[-]"

    def test_one_ulp_write_rtt_nudge_is_caught(self, monkeypatch, replay):
        def nudge(writes, traces):
            at = min(writes)
            writes[at] = float(np.nextafter(writes[at], np.inf))

        found = self._diff(monkeypatch, replay, nudge)
        assert [m.kind for m in found] == [KIND_FASTPATH_WRITE_RTT]
