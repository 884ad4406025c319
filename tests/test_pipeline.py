import collections
import copy
import functools
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import ptrun
from ptrun import pipeline, ruledsl, semantic
from ptrun.bench import bench_metadata
from ptrun.core import (RULE_MEMO_ENTRIES, RULE_MEMO_MAX_TEXT, AutoRuleSpec, Metadata, Profile,
                        RecoverySpec, RuleSet, Task, parse_rule)
from ptrun.pipeline import (REPAIR_APPLIED_FLAG, REPAIR_REJECTED_FLAG, RunConfig,
                            ToolEnvironment, _compare, kb_side_file, replay_trace, run_ptr)
from ptrun.router import RiskWeights, RouteMode, RouteThresholds
from ptrun.semantic import (ModelResponse, PriceEntry, ScriptedModel, ScriptExhaustedError, Usage,
                            build_profile_prompt)
from ptrun.trace import (SCHEMA_VERSION, VOLATILE_KEYS, TraceSchemaError, canonical_json,
                         read_trace, strip_volatile)
from ptrun.verifier import PenaltyCoefficients, verify

import helpers_dsl
from helpers_scenarios import KB as SCENARIO_KB, build_model, execute_phase, make_scenario

KB = [
    {"title": "Alan Turing", "body": "Alan Turing introduced the Turing machine and worked "
                                     "at Bletchley Park.", "links": []},
    {"title": "Paris", "body": "Paris is the capital of France.", "links": []},
]

CLEAN_PROFILE = {
    "workflow": {"steps": [
        {"tool_id": "kb_search", "params": {"query": "turing machine", "limit": 2}},
        {"tool_id": "kb_lookup", "params": {"title": {"placeholder": "result.kb_search_1.top_title"}}},
    ]},
    "confidence": 0.9,
}

FAILING_PROFILE = {
    "workflow": {"steps": [
        {"tool_id": "kb_lookup", "params": {"title": "Missing One"}},
        {"tool_id": "kb_lookup", "params": {"title": "Missing Two"}},
    ]},
    "confidence": 0.5,
}

GOOD_PATCH = {
    "workflow": {"steps": [{"tool_id": "kb_lookup", "params": {"title": "Alan Turing"}}]},
    "confidence": 0.95,
}

BAD_PATCH = {
    "workflow": {"steps": [{"tool_id": "summarize", "params": {}}]},
}


# Record types whose every leaf replay checks: each type after the header
# but model_call, whose recorded prompt replay takes on trust.
RECOMPUTED = ("profile", "risk", "route", "step", "verification", "repair", "reason", "abort",
              "report")


def replies(records: list[dict], role: str) -> list[str]:
    """The replies of a trace's model calls of one role, in order."""
    return [r["response_text"] for r in records
            if r["type"] == "model_call" and r["role"] == role]


def environment(fault_scripts=None):
    return ToolEnvironment(articles=tuple(KB), fault_scripts=fault_scripts or {})


def task():
    return Task(objective="Who introduced the Turing machine?", context={"audience": "test"})


def scripted(*entries):
    return ScriptedModel([dict(e) for e in entries])


def profile_entry(profile):
    return {"role": "profile", "text": json.dumps(profile)}


REASON = {"role": "reason", "text": "Alan Turing"}


class TestStepRecord:
    def test_the_writer_and_trace_lookups_share_each_step_record(self, monkeypatch):
        states, writers = [], []
        run_workflow = pipeline.run_workflow

        def spy_run_workflow(workflow, config, registry, state, rules=None):
            states.append(state)
            return run_workflow(workflow, config, registry, state, rules)

        class SpyWriter(pipeline.TraceWriter):
            def __init__(self, path=None):
                super().__init__(path)
                writers.append(self)

        monkeypatch.setattr(pipeline, "run_workflow", spy_run_workflow)
        monkeypatch.setattr(pipeline, "TraceWriter", SpyWriter)
        report = run_ptr(task(), bench_metadata(), RunConfig(),
                         scripted(profile_entry(CLEAN_PROFILE), REASON), environment())
        assert report.outcome == "ok"
        (state,), (writer,) = states, writers
        written = [record["event"] for record in writer.records if record["type"] == "step"]
        assert len(written) == len(state.trace) == 2
        for event, record in zip(state.trace, written):
            assert event.to_dict() is record and event.to_dict() is event.to_dict()
            fresh = replace(event).to_dict()
            assert fresh == record and fresh is not record
        found, attempts = state.resolve_path(("trace", "0", "attempts"))
        assert found and attempts is written[0]["attempts"]


class TestHappyPath:
    def test_clean_run_two_calls(self, tmp_path):
        model = scripted(profile_entry(CLEAN_PROFILE), REASON)
        report = run_ptr(task(), bench_metadata(), RunConfig(), model, environment(),
                         trace_path=str(tmp_path / "run.jsonl"))
        assert report.outcome == "ok"
        assert report.answer == "Alan Turing"
        assert report.model_calls == 2 and report.raw_model_calls == 2
        assert report.repaired is False
        assert report.verification["trust"] == 1.0

    def test_no_model_calls_during_execution(self):
        model = scripted(profile_entry(CLEAN_PROFILE), REASON)
        report = run_ptr(task(), bench_metadata(), RunConfig(), model, environment())
        # every raw model call is accounted to a semantic stage
        assert model.calls == report.raw_model_calls == 2

    def test_stage_ordering_in_trace(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        model = scripted(profile_entry(CLEAN_PROFILE), REASON)
        run_ptr(task(), bench_metadata(), RunConfig(), model, environment(), trace_path=path)
        kinds = [r["type"] for r in read_trace(path)]
        assert kinds == ["header", "model_call", "profile", "risk", "route",
                         "step", "step", "verification", "model_call", "reason", "report"]

    def test_env_seeded_from_task_context(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        model = scripted(profile_entry(CLEAN_PROFILE), REASON)
        run_ptr(task(), bench_metadata(), RunConfig(), model, environment(), trace_path=path)
        header = read_trace(path)[0]
        assert header["task"]["context"] == {"audience": "test"}


class TestRepair:
    def test_low_trust_triggers_single_repair(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        model = scripted(profile_entry(FAILING_PROFILE),
                         {"role": "repair", "text": json.dumps(GOOD_PATCH)}, REASON)
        report = run_ptr(task(), bench_metadata(), RunConfig(), model, environment(),
                         trace_path=path)
        assert report.outcome == "ok"
        assert report.model_calls == 3
        assert report.repaired is True
        assert REPAIR_APPLIED_FLAG in report.verification["flags"]
        records = read_trace(path)
        assert sum(1 for r in records if r["type"] == "repair") == 1
        assert sum(1 for r in records if r["type"] == "verification") == 2

    def test_failed_reexecution_still_reasons_with_caveats(self):
        # the patch fails too; no second repair is ever attempted
        model = scripted(profile_entry(FAILING_PROFILE),
                         {"role": "repair", "text": json.dumps(FAILING_PROFILE)}, REASON)
        report = run_ptr(task(), bench_metadata(), RunConfig(), model, environment())
        assert report.outcome == "ok"
        assert report.model_calls == 3
        assert report.repaired is True
        assert report.answer == "Alan Turing"
        assert report.verification["status"] == "failed"
        assert report.ledger["stage_counts"].get("repair") == 1

    def test_inadmissible_patch_rejected_with_flag(self):
        model = scripted(profile_entry(FAILING_PROFILE),
                         {"role": "repair", "text": json.dumps(BAD_PATCH)}, REASON)
        report = run_ptr(task(), bench_metadata(), RunConfig(), model, environment())
        assert report.outcome == "ok"
        assert report.repaired is True  # the repair call itself still happened
        assert REPAIR_REJECTED_FLAG in report.verification["flags"]
        assert report.model_calls == 3

    def test_unparseable_patch_rejected_with_flag(self):
        model = scripted(profile_entry(FAILING_PROFILE),
                         {"role": "repair", "text": "not a profile at all"}, REASON)
        report = run_ptr(task(), bench_metadata(), RunConfig(), model, environment())
        assert report.repaired is True
        assert REPAIR_REJECTED_FLAG in report.verification["flags"]

    def test_identical_patch_is_admitted_and_rerun(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        model = scripted(profile_entry(FAILING_PROFILE),
                         {"role": "repair", "text": json.dumps(FAILING_PROFILE)}, REASON)
        run_ptr(task(), bench_metadata(), RunConfig(), model, environment(), trace_path=path)
        repair_record = next(r for r in read_trace(path) if r["type"] == "repair")
        assert repair_record["accepted"] is True


class TestParseOnce:
    @pytest.fixture(autouse=True)
    def empty_rule_memo(self):
        parse_rule.cache_clear()

    def test_each_branch_rule_is_parsed_once_per_run(self, monkeypatch):
        calls = {"parse_predicate": 0, "parse_modifier": 0}
        for name in calls:
            original = getattr(ruledsl, name)

            def counting(source, _name=name, _original=original):
                calls[_name] += 1
                return _original(source)

            monkeypatch.setattr(ruledsl, name, counting)
        failing = dict(FAILING_PROFILE, branch_rules=[
            {"predicate": "failed(kb_lookup_1)", "modifier": 'set title = "Missing Three"',
             "target_step": 2},
            {"predicate": "exists(trace.0)", "modifier": "", "target_step": 2},
            {"predicate": 'failure.0.classified == "hard"', "modifier": "", "target_step": 1},
        ])
        patch = dict(GOOD_PATCH, branch_rules=[
            {"predicate": "exists(branch.0)", "modifier": 'set title = "Paris"',
             "target_step": 1},
            {"predicate": "env.audience == \"test\"", "modifier": "", "target_step": 1},
        ])
        model = scripted(profile_entry(failing),
                         {"role": "repair", "text": json.dumps(patch)}, REASON)
        report = run_ptr(task(), bench_metadata(), RunConfig(), model, environment())
        assert report.model_calls == 3
        assert REPAIR_APPLIED_FLAG in report.verification["flags"]
        # one parse per distinct text per process: the empty modifier, carried
        # by two rules of the failing profile and one of the patch, is parsed once
        assert calls == {name: len({rule[key] for profile in (failing, patch)
                                    for rule in profile["branch_rules"]})
                         for name, key in (("parse_predicate", "predicate"),
                                           ("parse_modifier", "modifier"))}
        assert calls == {"parse_predicate": 5, "parse_modifier": 3}

    SHARED_PREDICATE = 'env.audience == "nobody"'
    SHARED_MODIFIER = "set limit = 3"
    BAD_PREDICATE = "result.kb_search_1.count <"
    SHARED_TEXTS_PROFILE = {
        "workflow": {"steps": [
            {"tool_id": "kb_search", "params": {"query": "turing machine", "limit": 2}},
            {"tool_id": "kb_lookup",
             "params": {"title": {"placeholder": "result.kb_search_1.top_title"}}},
            {"tool_id": "kb_search", "params": {"query": "paris", "limit": 1}},
        ]},
        "confidence": 0.9,
        "replan_conditions": [SHARED_PREDICATE],
        "branch_rules": [
            {"predicate": SHARED_PREDICATE, "modifier": SHARED_MODIFIER, "target_step": 1},
            {"predicate": SHARED_PREDICATE, "modifier": 'set title = "Paris"', "target_step": 2},
            {"predicate": "exists(result.kb_search_1)", "modifier": SHARED_MODIFIER,
             "target_step": 3},
            {"predicate": SHARED_PREDICATE, "modifier": SHARED_MODIFIER, "target_step": 3},
        ],
    }

    def test_rules_that_share_a_text_share_its_parse(self, monkeypatch, tmp_path):
        calls: collections.Counter = collections.Counter()
        for name in ("parse_predicate", "parse_modifier"):
            original = getattr(ruledsl, name)

            def counting(source, _name=name, _original=original):
                calls[_name, source] += 1
                return _original(source)

            monkeypatch.setattr(ruledsl, name, counting)
        good = self.SHARED_TEXTS_PROFILE
        profile = Profile.from_dict(good)
        assert pipeline.check_admissibility(profile, bench_metadata()).admissible
        compiled = pipeline.compile_rules(bench_metadata(), profile).branch_rules
        assert [(r.rule_index, r.target_step) for r in compiled] == [(0, 1), (1, 2), (2, 3), (3, 3)]
        assert compiled[0].predicate is compiled[1].predicate is compiled[3].predicate
        assert compiled[0].modifier is compiled[2].modifier is compiled[3].modifier
        assert set(calls.values()) == {1}
        # two distinct predicates, the replan condition's among them, and two modifiers
        assert len(calls) == 4

        # the unparseable text, carried by two rules, is parsed once and
        # gives one violation per rule
        bad_rules = [dict(rule, predicate=self.BAD_PREDICATE) for rule in good["branch_rules"][:2]]
        bad = dict(good, branch_rules=good["branch_rules"][:1] + bad_rules[:1]
                   + good["branch_rules"][1:] + bad_rules[1:])
        calls.clear()
        report = pipeline.check_admissibility(Profile.from_dict(bad), bench_metadata())
        assert not report.admissible
        assert [(v.step, v.kind, v.detail.split(":")[0]) for v in report.violations] == [
            (1, "unevaluable_branch_rule", "branch rule 2"),
            (2, "unevaluable_branch_rule", "branch rule 6")]
        assert report.violations[0].detail[len("branch rule 2"):] == \
            report.violations[1].detail[len("branch rule 6"):]
        assert calls["parse_predicate", self.BAD_PREDICATE] == 1
        assert set(calls.values()) == {1}

        # a run whose first reply carries the bad rules retries with the
        # good profile, and its trace replays
        path = str(tmp_path / "run.jsonl")
        model = scripted(profile_entry(bad), profile_entry(good), REASON)
        run = run_ptr(task(), bench_metadata(), RunConfig(), model, environment(),
                      trace_path=path)
        assert run.outcome == "ok" and run.raw_model_calls == 3
        assert replay_trace(path).matched

    def test_each_rule_source_is_parsed_once_per_run_and_per_replay(self, monkeypatch,
                                                                      tmp_path):
        calls: collections.Counter = collections.Counter()
        for name in ("parse_predicate", "parse_modifier", "parse_auto_expr", "parse_arith"):
            original = getattr(ruledsl, name)

            def counting(source, _name=name, _original=original):
                calls[_name, source] += 1
                return _original(source)

            monkeypatch.setattr(ruledsl, name, counting)
        # auto and recovery rules as in the long-workflow benchmark, plus a
        # constraint predicate; every source differs from every other
        constraints = RuleSet(
            auto_rules=(AutoRuleSpec("top_hit", 'result.kb_search_1.top_title ?? "Paris"'),),
            recovery_rules=(RecoverySpec("timeout", 'set title = "Paris"'),
                            RecoverySpec("rate_limited", "")),
            constraint_predicates=("exists(result.kb_lookup_1)",),
        )
        metadata = Metadata(schema={}, tool_catalog=bench_metadata().tool_catalog,
                            constraints=constraints)
        failing = dict(FAILING_PROFILE, branch_rules=[
            {"predicate": "failed(kb_lookup_1)", "modifier": 'set title = "Missing Three"',
             "target_step": 2},
            {"predicate": 'failure.0.classified == "hard"', "modifier": 'set title = "Four"',
             "target_step": 1},
        ])
        patch = dict(GOOD_PATCH, branch_rules=[
            {"predicate": "exists(branch.0)", "modifier": 'set title = "Alan Turing"',
             "target_step": 1},
        ])
        sources = (
            [("parse_auto_expr", rule.expr) for rule in constraints.auto_rules]
            + [("parse_modifier", rule.modifier) for rule in constraints.recovery_rules]
            + [("parse_predicate", source) for source in constraints.constraint_predicates]
            + [(name, rule[key]) for rule in failing["branch_rules"] + patch["branch_rules"]
               for name, key in (("parse_predicate", "predicate"), ("parse_modifier", "modifier"))]
        )
        expected = collections.Counter(sources)
        assert set(expected.values()) == {1}

        path = str(tmp_path / "run.jsonl")
        model = scripted(profile_entry(failing),
                         {"role": "repair", "text": json.dumps(patch)}, REASON)
        report = run_ptr(task(), metadata, RunConfig(), model, environment(), trace_path=path)
        assert report.model_calls == 3
        assert REPAIR_APPLIED_FLAG in report.verification["flags"]
        assert calls == expected

        # in the same process the replay finds every text in the memo; after
        # a memo clear it parses each text once
        calls.clear()
        assert replay_trace(path).matched
        assert not calls
        parse_rule.cache_clear()
        assert replay_trace(path).matched
        assert calls == expected


class TestRuleTextsTheMemoDoesNotKeep:
    """A run admits a reply and then builds its rules, reading each text
    through the rule memo both times. A text the memo does not keep, or one
    evicted between the two reads, is parsed twice per admitted reply."""

    @pytest.fixture(autouse=True)
    def empty_rule_memo(self):
        parse_rule.cache_clear()

    MODIFIER = 'set title = "Paris"'

    @pytest.mark.parametrize("predicates", [
        [" and ".join(["exists(result.kb_search_1)"] * 12)],
        [f'env.audience == "{i}"' for i in range(RULE_MEMO_ENTRIES - 1)]
        + ['env.audience == "test"'],
    ], ids=["text-over-the-length-bound", "more-texts-than-the-memo-holds"])
    def test_rule_fires_replays_and_each_text_is_parsed_at_most_twice(
            self, predicates, monkeypatch, tmp_path):
        texts = set(predicates) | {self.MODIFIER}
        assert (max(map(len, texts)) > RULE_MEMO_MAX_TEXT
                or len(texts) == RULE_MEMO_ENTRIES + 1)
        calls: collections.Counter = collections.Counter()
        for name in ("parse_predicate", "parse_modifier"):
            original = getattr(ruledsl, name)

            def counting(source, _original=original):
                calls[source] += 1
                return _original(source)

            monkeypatch.setattr(ruledsl, name, counting)
        profile = dict(CLEAN_PROFILE, branch_rules=[
            {"predicate": predicate, "modifier": self.MODIFIER, "target_step": 2}
            for predicate in predicates])
        path = str(tmp_path / "run.jsonl")
        report = run_ptr(task(), bench_metadata(), RunConfig(mode_override=RouteMode.GUARDED),
                         scripted(profile_entry(profile), REASON), environment(),
                         trace_path=path)
        assert report.outcome == "ok" and report.model_calls == 2
        steps = [r["event"] for r in read_trace(path) if r["type"] == "step"]
        assert steps[1]["branched_params"] == {"title": "Paris"}
        # one admitted reply: each predicate is read to admit it and again to
        # build its rules, and the shared modifier stays in the memo
        assert calls == {**{predicate: 2 for predicate in predicates}, self.MODIFIER: 1}

        calls.clear()
        assert replay_trace(path).matched
        assert max(calls.values()) <= 2 and set(calls) <= texts


class TestApplyRepair:
    def repair_record(self, patch, tmp_path):
        path = str(tmp_path / "run.jsonl")
        model = scripted(profile_entry(FAILING_PROFILE),
                         {"role": "repair", "text": json.dumps(patch)}, REASON)
        report = run_ptr(task(), bench_metadata(), RunConfig(), model, environment(),
                         trace_path=path)
        assert report.repaired is True
        records = read_trace(path)
        return next(r for r in records if r["type"] == "repair"), records

    def test_valid_patch_admitted(self, tmp_path):
        record, records = self.repair_record(GOOD_PATCH, tmp_path)
        assert record == {"type": "repair", "accepted": True}
        assert len(json.loads(replies(records, "repair")[0])["workflow"]["steps"]) == 1
        assert sum(1 for r in records if r["type"] == "step" and r["phase"] == "repair") == 1

    def test_unknown_tool_patch_not_admissible(self, tmp_path):
        record, _ = self.repair_record(BAD_PATCH, tmp_path)
        assert record["accepted"] is False
        assert record["reason"] == ("profile is not admissible: step 1: unknown_tool "
                                    "(tool 'summarize' not in catalog)")


class TestProfileStage:
    def test_parse_failure_retried_once_then_ok(self):
        model = scripted({"role": "profile", "text": "garbage"},
                         profile_entry(CLEAN_PROFILE), REASON)
        report = run_ptr(task(), bench_metadata(), RunConfig(), model, environment())
        assert report.outcome == "ok"
        assert report.raw_model_calls == 3  # two profile attempts + reason
        assert report.model_calls == 2      # still a two-stage run

    def test_two_parse_failures_abort_run_invalid(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        model = scripted({"role": "profile", "text": "garbage"},
                         {"role": "profile", "text": "more garbage"})
        report = run_ptr(task(), bench_metadata(), RunConfig(), model, environment(),
                         trace_path=path)
        assert report.outcome == "run_invalid"
        assert report.answer is None
        records = read_trace(path)
        assert any(r["type"] == "abort" and r["reason"] == "run_invalid" for r in records)
        assert records[-1]["type"] == "report"

    @pytest.mark.parametrize("number", ["1e400", "-1e400"])
    def test_param_that_overflows_to_infinity_takes_the_retry(self, number, tmp_path):
        overflowing = json.dumps(CLEAN_PROFILE).replace('"limit": 2', f'"limit": {number}')
        assert number in overflowing
        path = str(tmp_path / "run.jsonl")
        model = scripted({"role": "profile", "text": overflowing},
                         profile_entry(CLEAN_PROFILE), REASON)
        report = run_ptr(task(), bench_metadata(), RunConfig(), model, environment(),
                         trace_path=path)
        assert report.outcome == "ok"
        assert report.raw_model_calls == 3
        retry_prompt = [r["prompt"] for r in read_trace(path) if r["type"] == "model_call"][1]
        assert "is not a finite number" in retry_prompt
        assert replay_trace(path).matched

    def test_param_that_overflows_twice_aborts_run_invalid(self, tmp_path):
        overflowing = {"role": "profile", "text": json.dumps(CLEAN_PROFILE).replace(
            '"limit": 2', '"limit": 1e400')}
        path = str(tmp_path / "run.jsonl")
        report = run_ptr(task(), bench_metadata(), RunConfig(),
                         scripted(overflowing, overflowing), environment(), trace_path=path)
        assert report.outcome == "run_invalid"
        abort = next(r for r in read_trace(path) if r["type"] == "abort")
        assert "is not a finite number" in abort["detail"]
        assert replay_trace(path).matched

    def test_too_deeply_nested_replies_abort_run_invalid(self):
        deep = '{"a":' * 100_000  # past the decoder's recursion on every supported Python
        model = scripted({"role": "profile", "text": deep}, {"role": "profile", "text": deep})
        report = run_ptr(task(), bench_metadata(), RunConfig(), model, environment())
        assert report.outcome == "run_invalid"
        assert model.calls == 2  # the corrective retry was made

    def test_inadmissible_profile_retried_with_diagnostic(self):
        inadmissible = {"workflow": {"steps": [{"tool_id": "bogus", "params": {}}]}}
        model = scripted({"role": "profile", "text": json.dumps(inadmissible)},
                         profile_entry(CLEAN_PROFILE), REASON)
        report = run_ptr(task(), bench_metadata(), RunConfig(), model, environment())
        assert report.outcome == "ok"
        assert report.raw_model_calls == 3

    def test_budget_exceeded_aborts(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        cfg = RunConfig(budget_micros=1)
        model = ScriptedModel([profile_entry(CLEAN_PROFILE), REASON],
                              price=PriceEntry(input_micros_per_1k=10**6,
                                               output_micros_per_1k=10**6))
        report = run_ptr(task(), bench_metadata(), cfg, model, environment(), trace_path=path)
        assert report.outcome == "budget_exceeded"
        assert any(r["type"] == "abort" and r["reason"] == "budget_exceeded"
                   for r in read_trace(path))

    def test_invalid_metadata_is_a_precondition_error(self):
        from ptrun.core import Metadata, RuleSet, AutoRuleSpec
        bad = Metadata(tool_catalog=bench_metadata().tool_catalog,
                       constraints=RuleSet(auto_rules=(AutoRuleSpec("x", "?? 1"),)))
        with pytest.raises(ValueError):
            run_ptr(task(), bad, RunConfig(), scripted(REASON), environment())


class TestModeOverride:
    def test_override_bypasses_router_and_is_recorded(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        cfg = RunConfig(mode_override=RouteMode.GUARDED)
        model = scripted(profile_entry(CLEAN_PROFILE), REASON)
        report = run_ptr(task(), bench_metadata(), cfg, model, environment(), trace_path=path)
        assert report.route["mode"] == "guarded"
        route_record = next(r for r in read_trace(path) if r["type"] == "route")
        assert route_record["override"] is True

    def test_pure_override_keeps_branch_log_empty(self):
        profile = dict(CLEAN_PROFILE)
        profile["branch_rules"] = [{"predicate": "exists(result.kb_search_1)",
                                    "modifier": "set title = \"Paris\"", "target_step": 2}]
        cfg = RunConfig(mode_override=RouteMode.PURE)
        model = scripted(profile_entry(profile), REASON)
        report = run_ptr(task(), bench_metadata(), cfg, model, environment())
        assert report.verification["issues"] == []


class TestReplay:
    def run_and_replay(self, *entries, cfg=None, fault_scripts=None, tmp_path=None):
        path = str(tmp_path / "run.jsonl")
        model = scripted(*entries)
        report = run_ptr(task(), bench_metadata(), cfg or RunConfig(), model,
                         environment(fault_scripts), trace_path=path)
        return report, replay_trace(path), path

    def test_clean_trace_full_match(self, tmp_path):
        _, replay, _ = self.run_and_replay(profile_entry(CLEAN_PROFILE), REASON,
                                           tmp_path=tmp_path)
        assert replay.matched and replay.divergence is None

    def test_repaired_trace_full_match(self, tmp_path):
        _, replay, _ = self.run_and_replay(
            profile_entry(FAILING_PROFILE),
            {"role": "repair", "text": json.dumps(GOOD_PATCH)}, REASON, tmp_path=tmp_path)
        assert replay.matched

    def test_fault_injected_trace_full_match(self, tmp_path):
        # injected timeout -> missing placeholder -> hard failure -> repair;
        # the repair re-execution consumes the wrapper's next entry ("ok"), so
        # replay must continue the rebuilt wrapper across both phases
        search_patch = {"workflow": {"steps": [
            {"tool_id": "kb_search", "params": {"query": "turing machine", "limit": 2}}]}}
        report, replay, _ = self.run_and_replay(
            profile_entry(CLEAN_PROFILE),
            {"role": "repair", "text": json.dumps(search_patch)}, REASON,
            fault_scripts={"kb_search": ["timeout", "ok"]}, tmp_path=tmp_path)
        assert report.repaired is True
        assert replay.matched

    def test_tampered_step_detected(self, tmp_path):
        _, _, path = self.run_and_replay(profile_entry(CLEAN_PROFILE), REASON,
                                         tmp_path=tmp_path)
        records = read_trace(path)
        for record in records:
            if record["type"] == "step":
                record["event"]["outcome"] = "failure"
                break
        replay = replay_trace(records)
        assert not replay.matched
        assert replay.divergence["section"] == "step[initial]"
        assert replay.divergence["index"] == 0

    def test_mode_override_honored_in_replay(self, tmp_path):
        report, replay, _ = self.run_and_replay(
            profile_entry(CLEAN_PROFILE), REASON,
            cfg=RunConfig(mode_override=RouteMode.PURE), tmp_path=tmp_path)
        assert report.route["mode"] == "pure"
        assert replay.matched

    def test_schema_version_checked(self, tmp_path):
        _, _, path = self.run_and_replay(profile_entry(CLEAN_PROFILE), REASON,
                                         tmp_path=tmp_path)
        records = read_trace(path)
        records[0]["schema_version"] = 999
        with pytest.raises(TraceSchemaError):
            replay_trace(records)

    def test_corrupt_line_is_schema_error_naming_line(self, tmp_path):
        _, _, path = self.run_and_replay(profile_entry(CLEAN_PROFILE), REASON,
                                         tmp_path=tmp_path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(lines)[:-40])
        with pytest.raises(TraceSchemaError, match=f"line {len(lines)} "):
            replay_trace(path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(lines[:3]) + "[1, 2]\n")
        with pytest.raises(TraceSchemaError, match="line 4 is not a JSON object"):
            replay_trace(path)

    @pytest.mark.parametrize("entries", [
        (profile_entry(CLEAN_PROFILE), REASON),
        (profile_entry(FAILING_PROFILE), {"role": "repair", "text": json.dumps(GOOD_PATCH)},
         REASON),
        ({"role": "profile", "text": "garbage"}, {"role": "profile", "text": "garbage"}),
    ], ids=["clean", "repaired", "aborted"])
    def test_every_cut_trace_is_incomplete(self, entries, tmp_path):
        _, replay, path = self.run_and_replay(*entries, tmp_path=tmp_path)
        assert replay.matched
        records = read_trace(path)
        assert records[-1]["type"] == "report"
        for cut in range(1, len(records)):
            replay = replay_trace(records[:cut])
            assert not replay.matched
            assert replay.divergence["section"] == "incomplete"
            assert replay.divergence["recorded"] == records[cut - 1]["type"]

    def test_shared_environment_keeps_fault_injectors_per_run(self, tmp_path):
        # one environment, hence one KB, serves both runs; each run's fault
        # script starts from its first entry, so the traces are the same
        search_patch = {"workflow": {"steps": [
            {"tool_id": "kb_search", "params": {"query": "turing machine", "limit": 2}}]}}
        env = environment({"kb_search": ["timeout", "ok"], "kb_lookup": ["not_found"]})
        traces = []
        for name in ("first", "second"):
            path = str(tmp_path / f"{name}.jsonl")
            model = scripted(profile_entry(CLEAN_PROFILE),
                             {"role": "repair", "text": json.dumps(search_patch)}, REASON)
            report = run_ptr(task(), bench_metadata(), RunConfig(), model, env, trace_path=path)
            assert report.repaired is True
            assert replay_trace(path).matched
            traces.append(strip_volatile(read_trace(path)))
        assert traces[0] == traces[1]
        first_step = next(r for r in traces[0] if r["type"] == "step")
        assert first_step["event"]["error_class"] == "timeout"

    @pytest.mark.parametrize("key", ["task", "metadata", "config", "environment"])
    def test_header_without_input_is_schema_error(self, key, tmp_path):
        _, _, path = self.run_and_replay(profile_entry(CLEAN_PROFILE), REASON,
                                         tmp_path=tmp_path)
        records = read_trace(path)
        del records[0][key]
        with pytest.raises(TraceSchemaError, match=f"trace header has no {key} object"):
            replay_trace(records)

    @pytest.mark.parametrize("key, value", [
        ("task", {"objective": 3}),
        ("metadata", {"tool_catalog": [{"id": ""}]}),
        # metadata that parses but that run_ptr would refuse
        ("metadata", dict(bench_metadata().to_dict(), constraints={
            "recovery_rules": [{"error_class": "bogus", "modifier": ""}]})),
        ("metadata", dict(bench_metadata().to_dict(), constraints={
            "auto_rules": [{"id": "a", "expr": "result.x ?? "}]})),
        # a catalog tool that the built-in registry lacks
        ("metadata", dict(bench_metadata().to_dict(), tool_catalog=[{"id": "x"}])),
        ("config", {"route_thresholds": {"lower": 0.5}}),
        ("config", {"repair_threshold": 2.0}),
        ("config", {"penalties": [1]}),
        ("environment", {"kb": [{"body": "no title"}]}),
        ("environment", {"kb": [], "fault_scripts": {"kb_search": [7]}}),
        ("environment", {"kb": 5}),
        ("environment", {"kb": [], "fault_scripts": {"kb_search": None}}),
        ("environment", {"kb": [], "fault_scripts": ["kb_search"]}),
    ])
    def test_malformed_header_input_is_schema_error(self, key, value, tmp_path):
        _, _, path = self.run_and_replay(profile_entry(CLEAN_PROFILE), REASON,
                                         tmp_path=tmp_path)
        records = read_trace(path)
        records[0][key] = value
        with pytest.raises(TraceSchemaError, match="trace header is malformed"):
            replay_trace(records)

    def test_aborted_run_replay_is_trivially_matched(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        model = scripted({"role": "profile", "text": "garbage"},
                         {"role": "profile", "text": "garbage"})
        run_ptr(task(), bench_metadata(), RunConfig(), model, environment(), trace_path=path)
        replay = replay_trace(path)
        assert replay.matched and replay.sections_checked == 4

    def test_sections_checked_counts_compared_records(self, tmp_path):
        _, replay, path = self.run_and_replay(
            profile_entry(FAILING_PROFILE),
            {"role": "repair", "text": json.dumps(GOOD_PATCH)}, REASON, tmp_path=tmp_path)
        compared = [r["type"] for r in read_trace(path)[1:]]
        assert compared == ["model_call", "profile", "risk", "route", "step", "step",
                            "verification", "model_call", "repair", "step", "verification",
                            "model_call", "reason", "report"]
        assert replay.sections_checked == len(compared)

    @pytest.mark.parametrize("edit, section, index", [
        ("flip route.override", "route", 0),
        ("duplicate risk", "route", 0),
        ("duplicate verification[initial]", "model_call", 1),
        ("delete verification[repair]", "verification[repair]", 0),
        ("swap reason model_call and verification[repair]", "verification[repair]", 0),
    ])
    def test_record_count_and_override_edits_diverge(self, edit, section, index, tmp_path):
        _, _, path = self.run_and_replay(
            profile_entry(FAILING_PROFILE),
            {"role": "repair", "text": json.dumps(GOOD_PATCH)}, REASON, tmp_path=tmp_path)
        records = read_trace(path)

        def position(kind, phase=None):
            return next(i for i, r in enumerate(records)
                        if r["type"] == kind and r.get("phase") == phase)

        if edit == "flip route.override":
            records[position("route")]["override"] = True
        elif edit == "duplicate risk":
            records.insert(position("risk"), dict(records[position("risk")]))
        elif edit == "duplicate verification[initial]":
            i = position("verification", "initial")
            records.insert(i, dict(records[i]))
        elif edit == "delete verification[repair]":
            del records[position("verification", "repair")]
        else:
            i = position("verification", "repair")
            assert records[i + 1]["type"] == "model_call" and records[i + 1]["role"] == "reason"
            records[i], records[i + 1] = records[i + 1], records[i]
        replay = replay_trace(records)
        assert not replay.matched
        assert (replay.divergence["section"], replay.divergence["index"]) == (section, index)

    @pytest.mark.parametrize("reply", [
        json.dumps({"workflow": 5}),
        "{}",
        json.dumps(dict(GOOD_PATCH, branch_rules=[
            {"predicate": "exists(", "modifier": "", "target_step": 1}])),
    ], ids=["workflow-not-an-object", "no-workflow", "unparseable-branch-rule"])
    @pytest.mark.parametrize("role", ["profile", "repair"])
    def test_reply_that_no_longer_admits_diverges(self, role, reply, tmp_path):
        _, _, path = self.run_and_replay(
            profile_entry(FAILING_PROFILE),
            {"role": "repair", "text": json.dumps(GOOD_PATCH)}, REASON, tmp_path=tmp_path)
        records = read_trace(path)
        next(r for r in records
             if r["type"] == "model_call" and r["role"] == role)["response_text"] = reply
        replay = replay_trace(records)
        assert not replay.matched
        assert (replay.divergence["section"], replay.divergence["index"]) == (role, 0)

    @pytest.mark.parametrize("edit", [
        lambda record: record.update(response_text=5),
        lambda record: record.update(cost_micros="1"),
        lambda record: record.pop("cost_micros"),
        lambda record: record.update(prompt=None),
        lambda record: record.update(prompt=2.5),
        lambda record: record.update(prompt={}),
    ], ids=["reply-not-a-string", "cost-not-an-integer", "no-cost", "prompt-null",
            "prompt-number", "prompt-object"])
    def test_malformed_model_call_is_schema_error(self, edit, tmp_path):
        _, _, path = self.run_and_replay(profile_entry(CLEAN_PROFILE), REASON,
                                         tmp_path=tmp_path)
        records = read_trace(path)
        edit([r for r in records if r["type"] == "model_call"][1])
        with pytest.raises(TraceSchemaError, match="model_call record 1 is malformed"):
            replay_trace(records)

    @pytest.mark.parametrize("usage", [None, {"input_tokens": 1}, {"input_tokens": -1,
                                                                   "output_tokens": 0},
                                       {"input_tokens": 1.5, "output_tokens": 0}])
    def test_model_call_with_malformed_usage_is_schema_error(self, usage, tmp_path):
        _, _, path = self.run_and_replay(profile_entry(CLEAN_PROFILE), REASON,
                                         tmp_path=tmp_path)
        records = read_trace(path)
        [r for r in records if r["type"] == "model_call"][0]["usage"] = usage
        with pytest.raises(TraceSchemaError, match="model_call record 0 is malformed"):
            replay_trace(records)

    def test_each_reply_is_stored_once(self, tmp_path):
        _, replay, path = self.run_and_replay(
            profile_entry(FAILING_PROFILE),
            {"role": "repair", "text": json.dumps(GOOD_PATCH)}, REASON, tmp_path=tmp_path)
        assert replay.matched
        records = read_trace(path)
        text = Path(path).read_text(encoding="utf-8")
        for role in ("profile", "repair"):
            (reply,) = replies(records, role)
            assert text.count(json.dumps(reply)[1:-1]) == 1
        assert [r for r in records if r["type"] in ("profile", "repair")] == [
            {"type": "profile", "attempts": 1}, {"type": "repair", "accepted": True}]

    @pytest.mark.parametrize("patch", [GOOD_PATCH, BAD_PATCH], ids=["accepted", "rejected"])
    @pytest.mark.parametrize("calls", [1, 2, 3])
    def test_budget_abort_replays_matched_and_its_records_are_checked(self, calls, patch,
                                                                      tmp_path):
        # the budget admits calls - 1 calls of 1,000 micro-dollars each
        path = str(tmp_path / "run.jsonl")
        model = FixedCostModel([profile_entry(FAILING_PROFILE),
                                {"role": "repair", "text": json.dumps(patch)}, REASON])
        cfg = RunConfig(budget_micros=1000 * (calls - 1))
        report = run_ptr(task(), bench_metadata(), cfg, model, environment(), trace_path=path)
        assert report.outcome == "budget_exceeded" and model.calls == calls
        records = read_trace(path)
        assert replay_trace(records).matched
        stages = [r for r in records if r["type"] in ("profile", "repair")]
        assert len(stages) == min(calls - 1, 2)
        for stage in stages:
            assert not replay_trace([r for r in records if r is not stage]).matched

    @pytest.mark.parametrize("edit, section, index", [
        ("reason answer", "reason", 0),
        ("report answer", "report", 0),
        ("report model_calls", "report", 0),
        ("reason reply", "reason", 0),
        ("profile call cost", "report", 0),
        ("delete reason model_call", "reason", 0),
        ("delete reason", "reason", 0),
        ("extra model_call", "reason", 0),
        ("credentials not redacted", "model_call", 1),
        ("extra key", "model_call", 1),
        ("extra volatile key", "model_call", 1),
        ("credentials flag 1", "model_call", 1),
    ])
    def test_edit_of_a_record_replay_once_trusted_diverges(self, edit, section, index,
                                                           tmp_path):
        _, replay, path = self.run_and_replay(profile_entry(CLEAN_PROFILE), REASON,
                                              tmp_path=tmp_path)
        assert replay.matched
        records = read_trace(path)
        calls = [r for r in records if r["type"] == "model_call"]
        reason = next(r for r in records if r["type"] == "reason")
        report = records[-1]["report"]
        if edit == "reason answer":
            reason["answer"] = "Ada Lovelace"
        elif edit == "report answer":
            report["answer"] = "Ada Lovelace"
        elif edit == "report model_calls":
            report["model_calls"] = 3
        elif edit == "reason reply":
            calls[1]["response_text"] = "Ada Lovelace"
        elif edit == "profile call cost":
            calls[0]["cost_micros"] += 1
        elif edit == "delete reason model_call":
            records.remove(calls[1])
        elif edit == "delete reason":
            records.remove(reason)
        elif edit == "credentials not redacted":
            calls[1]["credentials_redacted"] = False
        elif edit == "extra key":
            calls[1]["api_key"] = "sk-test"
        elif edit == "extra volatile key":  # the compare skips this key
            calls[1]["timing"] = "sk-test"
        elif edit == "credentials flag 1":  # the compare reads 1 == True
            calls[1]["credentials_redacted"] = 1
        else:  # a copy of the last model_call record, after it
            records.insert(records.index(calls[1]) + 1, dict(calls[1]))
        replay = replay_trace(records)
        assert not replay.matched
        assert (replay.divergence["section"], replay.divergence["index"]) == (section, index)

    @pytest.mark.parametrize("done, stopped", [
        ((), profile_entry(FAILING_PROFILE)),
        (({"role": "profile", "text": "garbage"},), profile_entry(FAILING_PROFILE)),
        ((profile_entry(FAILING_PROFILE),), {"role": "repair", "text": json.dumps(GOOD_PATCH)}),
        ((profile_entry(FAILING_PROFILE), {"role": "repair", "text": json.dumps(GOOD_PATCH)}),
         REASON),
    ], ids=["profile", "profile-retry", "repair", "reason"])
    @pytest.mark.parametrize("outcome", ["budget_exceeded", "model_error"])
    def test_abort_at_each_stage_replays_matched(self, outcome, done, stopped, tmp_path):
        path = str(tmp_path / "run.jsonl")
        if outcome == "budget_exceeded":
            model = FixedCostModel([*done, stopped])
            cfg = RunConfig(budget_micros=1000 * len(done))
        else:
            model, cfg = RaisingModel(done, len(done), TimeoutError("no reply")), RunConfig()
        report = run_ptr(task(), bench_metadata(), cfg, model, environment(), trace_path=path)
        assert report.outcome == outcome
        records = read_trace(path)
        assert records[-2]["type"] == "abort"
        if outcome == "model_error":
            assert records[-2]["detail"].startswith(f"{stopped['role']} call raised ")
        replay = replay_trace(path)
        assert replay.matched
        assert replay.sections_checked == len(records) - 1

    # 600 levels decode on every supported Python; whether copying them for
    # the report recurses too deeply depends on the version. 5,000 levels
    # (a 3.13 decoder takes them) always do.
    @pytest.mark.parametrize("depth", [600, 5000])
    @pytest.mark.parametrize("where", ["step", "last"])
    def test_deeply_nested_recorded_value_is_a_divergence_or_schema_error(
            self, where, depth, tmp_path):
        _, _, path = self.run_and_replay(profile_entry(CLEAN_PROFILE), REASON,
                                         tmp_path=tmp_path)
        records = read_trace(path)
        if where == "step":
            next(r for r in records if r["type"] == "step")["event"]["outcome"] = nested(depth)
        else:
            records[-1]["type"] = nested(depth)
        try:
            replay = replay_trace(records)
        except TraceSchemaError as exc:
            assert "nests values too deeply" in str(exc)
        else:
            assert depth == 600 and not replay.matched

    def test_too_deeply_nested_pair_is_schema_error(self):
        with pytest.raises(TraceSchemaError, match="compared record 1 nests values too deeply"):
            _compare([{"type": "step", "event": nested(100_000, 1)}],
                     [{"type": "step", "event": nested(100_000, 2)}])


class FixedCostModel(ScriptedModel):
    """A scripted model whose every call costs 1,000 micro-dollars."""

    def complete(self, request):
        return replace(super().complete(request), cost_micros=1000)


def nested(depth: int, leaf=0) -> list:
    value = leaf
    for _ in range(depth):
        value = [value]
    return value


@functools.cache
def scenario_traces() -> tuple:
    """Traces of seeded scenario runs, as read back from disk: 16 that end
    ok, then 8 whose calls cost 1,000 micro-dollars each under a budget that
    stops the run at a seeded call."""
    rng = random.Random(7007)
    traces = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(24):
            scenario = make_scenario(rng)
            model, cfg = build_model(scenario), scenario["cfg"]
            if i >= 16:
                model = FixedCostModel(scenario["script"])
                cfg = replace(cfg, budget_micros=1000 * rng.randrange(len(scenario["script"])))
            path = os.path.join(tmp, f"{i}.jsonl")
            run_ptr(scenario["task"], scenario["metadata"], cfg, model,
                    scenario["environment"], trace_path=path)
            traces.append(read_trace(path))
    return tuple(traces)


def leaf_paths(node, path=()):
    """Key paths of every non-volatile leaf; an empty container is a leaf."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            if key not in VOLATILE_KEYS:
                yield from leaf_paths(value, path + (key,))
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from leaf_paths(value, path + (i,))
    else:
        yield path


def edited(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    return "x"


def rerun_without_prompts(records: list[dict]) -> list[dict]:
    """The records a scenario run writes from a trace's header inputs and
    recorded replies, wall-clock fields and model-call prompts left out."""
    header = records[0]
    environment = ToolEnvironment(articles=tuple(SCENARIO_KB),
                                  fault_scripts=header["environment"]["fault_scripts"])
    model = RecordedCostModel([r for r in records if r["type"] == "model_call"])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rerun.jsonl")
        run_ptr(Task.from_dict(header["task"]), Metadata.from_dict(header["metadata"]),
                RunConfig.from_dict(header["config"]), model, environment, trace_path=path)
        return without_prompts(read_trace(path))


def without_prompts(records: list[dict]) -> list[dict]:
    return [strip_volatile({k: v for k, v in r.items() if k != "prompt"}) for r in records]


class RecordedCostModel(ScriptedModel):
    """A scripted model that gives the replies and costs of model_call records."""

    def __init__(self, calls: list[dict]):
        super().__init__([{"role": r["role"], "text": r["response_text"]} for r in calls])
        self.costs = [r["cost_micros"] for r in calls]

    def complete(self, request):
        cost = self.costs[self.calls] if self.calls < len(self.costs) else 0
        return replace(super().complete(request), cost_micros=cost)


# The fields of a model_call record that replay checks, apart from its reply.
CALL_EDITS = [("role",), ("usage", "input_tokens"), ("usage", "output_tokens"),
              ("cost_micros",)]


class TestReplayTampering:
    @given(st.data())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_tampered_recomputed_record_never_matches(self, data):
        records = copy.deepcopy(data.draw(st.sampled_from(scenario_traces())))
        kind = data.draw(st.sampled_from(("edit", "delete", "duplicate", "swap", "reply",
                                          "call")))
        # an edit changes a recomputed record; the other kinds act on any
        # record after the header, model_call included
        positions = [i for i, r in enumerate(records)
                     if i > 0 and (kind != "edit" or r["type"] in RECOMPUTED)]
        i = data.draw(st.sampled_from(positions))
        if kind in ("edit", "reply", "call"):
            if kind == "reply":
                # one leaf of a profile or repair reply's JSON, re-serialized
                call = data.draw(st.sampled_from([
                    r for r in records
                    if r["type"] == "model_call" and r["role"] in ("profile", "repair")]))
                root = json.loads(call["response_text"])
            elif kind == "call":
                # a model_call record's role, usage or cost, or the reason reply
                root = data.draw(st.sampled_from([r for r in records
                                                  if r["type"] == "model_call"]))
            else:
                root = records[i]
            leaves = [p for p in leaf_paths(root) if kind != "call" or p in CALL_EDITS
                      or p == ("response_text",) and root["role"] == "reason"]
            *parents, last = data.draw(st.sampled_from(leaves))
            node = root
            for key in parents:
                node = node[key]
            node[last] = edited(node[last])
            if kind == "reply":
                call["response_text"] = json.dumps(root)
        elif kind == "delete":
            del records[i]
        elif kind == "duplicate":
            records.insert(i, copy.deepcopy(records[i]))
        else:
            j = data.draw(st.sampled_from([
                j for j in positions
                if strip_volatile(records[j]) != strip_volatile(records[i])]))
            records[i], records[j] = records[j], records[i]
        if replay_trace(records).matched:
            # Only a reply edited where the run never acts on it (a fragile
            # point's wording, a skipped step's params, the reply of the call
            # that took the run over budget) may match: the trace is then the
            # one a run given that reply writes, but for a later prompt quoting
            # the reply, which replay takes on trust.
            assert kind == "reply" or kind == "call" and last == "response_text"
            assert rerun_without_prompts(records) == without_prompts(records)


class TestUntrustedRuleText:
    @pytest.mark.parametrize("predicate", [
        "result.x == \u00b2",
        "result.a == \u0661\u0662",
        "exists(trace.\u0663)",
        "(" * 1000 + "exists(env.audience)" + ")" * 1000,
        " and ".join(["exists(env.audience)"] * 1500),
        helpers_dsl.left_nested("exists(env.audience)", "and"),
    ], ids=["superscript-two", "arabic-indic-number", "arabic-indic-index", "nested-parens",
            "and-chain", "left-nested-and"])
    def test_bad_branch_predicate_ends_in_a_recorded_outcome(self, predicate, tmp_path):
        path = str(tmp_path / "run.jsonl")
        profile = dict(CLEAN_PROFILE, branch_rules=[
            {"predicate": predicate, "modifier": "", "target_step": 2}])
        model = scripted(profile_entry(profile), profile_entry(profile))
        report = run_ptr(task(), bench_metadata(), RunConfig(mode_override=RouteMode.GUARDED),
                         model, environment(), trace_path=path)
        assert report.outcome == "run_invalid"
        abort = next(r for r in read_trace(path) if r["type"] == "abort")
        assert "unevaluable_branch_rule" in abort["detail"]
        assert replay_trace(path).matched

    @pytest.mark.parametrize("expression", [
        " + ".join(["1"] * 1500),
        helpers_dsl.left_nested("1", "+"),
    ], ids=["sum-chain", "left-nested-sum"])
    def test_long_calc_chain_is_a_recorded_step_failure(self, expression, tmp_path):
        path = str(tmp_path / "run.jsonl")
        profile = {"workflow": {"steps": [
            {"tool_id": "calc", "params": {"expression": expression}}]}}
        report = run_ptr(task(), bench_metadata(), RunConfig(), scripted(
            profile_entry(profile), {"role": "repair", "text": json.dumps(GOOD_PATCH)}, REASON),
            environment(), trace_path=path)
        assert report.outcome == "ok"
        step = next(r for r in read_trace(path) if r["type"] == "step")
        assert step["event"]["error_class"] == "invalid_params"
        assert replay_trace(path).matched


HASH_SEED_SCRIPT = """
import json, os, random, tempfile
from helpers_scenarios import build_model, make_scenario
from ptrun.pipeline import run_ptr
from ptrun.trace import read_trace, strip_volatile
rng = random.Random(5005)
with tempfile.TemporaryDirectory() as tmp:
    for i in range(20):
        scenario = make_scenario(rng)
        path = os.path.join(tmp, "run.jsonl")
        run_ptr(scenario["task"], scenario["metadata"], scenario["cfg"], build_model(scenario),
                scenario["environment"], trace_path=path)
        for record in strip_volatile(read_trace(path)):
            print(json.dumps(record))
"""


class TestTraceKeyOrder:
    def test_header_rebuilds_the_recorded_profile_prompt(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        model = scripted(profile_entry(CLEAN_PROFILE), REASON)
        run_ptr(task(), bench_metadata(), RunConfig(), model, environment(), trace_path=path)
        header, call = read_trace(path)[:2]
        rebuilt = build_profile_prompt(Task.from_dict(header["task"]),
                                       Metadata.from_dict(header["metadata"]))
        assert "- kb_search: slots: query (string" in rebuilt
        assert rebuilt == call["prompt"]

    def test_traces_do_not_depend_on_the_hash_seed(self):
        path = os.pathsep.join([str(Path(ptrun.__file__).parents[1]), str(Path(__file__).parent),
                                os.environ.get("PYTHONPATH", "")])
        outputs = [
            subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT], capture_output=True,
                           text=True, check=True,
                           env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)).stdout
            for seed in ("1", "2")
        ]
        assert outputs[0] and outputs[0] == outputs[1]


class TestImport:
    def test_import_does_not_load_uuid(self):
        # uuid imports platform, which costs a cold import of ptrun about 3 ms
        path = os.pathsep.join([str(Path(ptrun.__file__).parents[1]),
                                os.environ.get("PYTHONPATH", "")])

        def modules(statement: str) -> set[str]:
            return set(subprocess.run([sys.executable, "-c", f"{statement}\nimport sys\n"
                                       "print(*sys.modules)"], capture_output=True, text=True,
                                      check=True, env=dict(os.environ, PYTHONPATH=path)
                                      ).stdout.split())

        added = modules("import ptrun") - modules("pass")
        assert {"ptrun.pipeline", "ptrun.core"} <= added
        assert "uuid" not in added


# Constraint predicates over the keys and env of helpers_scenarios runs; each
# holds on some runs and is false on others.
PREDICATE_POOL = (
    "exists(result.kb_search_1)",
    "exists(result.kb_lookup_1)",
    "not failed(kb_lookup_1)",
    "failed(kb_search_1)",
    "env.flag == 1",
    "env.flag == 2",
    "result.kb_search_1.count >= 1",
    "empty(kb_search_1)",
    "result.calc_1.value > 5",
    'trace.0.outcome == "success"',
    "exists(failure.0) or exists(branch.0)",
)


class TestConstraintPredicates:
    """The metadata's constraint predicates are the verifier's diagnostics:
    evaluated over each phase's final state, recorded and replayed."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           sources=st.lists(st.sampled_from(PREDICATE_POOL), max_size=5), data=st.data())
    def test_false_predicates_set_delta_diag_and_replay(self, seed, sources, data):
        scenario = make_scenario(random.Random(seed), tuple(sources))
        metadata, cfg = scenario["metadata"], scenario["cfg"]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.jsonl")
            report = run_ptr(scenario["task"], metadata, cfg, build_model(scenario),
                             scenario["environment"], trace_path=path)
            assert report.outcome == "ok"
            records = read_trace(path)
            mode = RouteMode(next(r for r in records if r["type"] == "route")["mode"])
            profiles = {"initial": json.loads(replies(records, "profile")[0])}
            for record in records:
                if record["type"] == "repair" and record["accepted"]:
                    profiles["repair"] = json.loads(replies(records, "repair")[0])
            verifications = [r for r in records if r["type"] == "verification"]
            assert [r["phase"] for r in verifications] == list(profiles)
            registry = scenario["environment"].build_registry()
            for record in verifications:
                profile = Profile.from_dict(profiles[record["phase"]])
                state, _ = execute_phase(metadata, profile, cfg, registry, scenario["task"], mode)
                false = [i for i, source in enumerate(sources, start=1)
                         if not ruledsl.eval_predicate(ruledsl.parse_predicate(source), state)]
                assert record["counters"]["delta_diag"] == (1.0 if false else 0.0)
                issues = [i for i in record["object"]["issues"]
                          if i["kind"] == "diagnostic_contradiction"]
                assert issues == ([{
                    "kind": "diagnostic_contradiction", "count": len(false),
                    "detail": f"constraint predicate(s) {', '.join(map(str, false))} false "
                              "over the final state"}] if false else [])
                without = verify(state, metadata, profile, cfg.penalties, cfg.repair_threshold,
                                 cfg.thin_output_threshold, route_mode=mode)
                assert record["object"]["trust"] <= without.trust
                if not false:
                    assert record["object"]["trust"] == without.trust
            assert replay_trace(path).matched

            if sources:
                index = data.draw(st.integers(0, len(sources) - 1))
                predicates = records[0]["metadata"]["constraints"]["constraint_predicates"]
                predicates[index] = f"not ({sources[index]})"
                divergence = replay_trace(records).divergence
                assert divergence["section"] == "verification[initial]"
                predicates[index] = "exists("
                with pytest.raises(TraceSchemaError, match="constraint predicate"):
                    replay_trace(records)


class TestStrictJson:
    def test_overflowing_calc_keeps_the_trace_strict_json(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        profile = {"workflow": {"steps": [
            {"tool_id": "calc", "params": {"expression": " * ".join(["99999999999"] * 40)}}]}}
        report = run_ptr(task(), bench_metadata(), RunConfig(), scripted(
            profile_entry(profile), {"role": "repair", "text": json.dumps(GOOD_PATCH)}, REASON),
            environment(), trace_path=path)
        assert report.outcome == "ok"

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line, parse_constant=reject) for line in fh]
        step = next(r for r in records if r["type"] == "step")
        assert step["event"]["error_class"] == "invalid_params"
        assert replay_trace(path).matched


class TestBounds:
    def test_tool_call_bound_example(self):
        # L=4, no repair, N_rec=2 -> at most 12 tool invocations
        profile = {
            "workflow": {"steps": [
                {"tool_id": "kb_search", "params": {"query": "turing", "limit": 1}},
                {"tool_id": "kb_search", "params": {"query": "paris", "limit": 1}},
                {"tool_id": "kb_lookup", "params": {"title": "Paris"}},
                {"tool_id": "calc", "params": {"expression": "1 + 1"}},
            ]},
        }
        model = scripted(profile_entry(profile), REASON)
        report = run_ptr(task(), bench_metadata(), RunConfig(recovery_retries=2), model,
                         environment(), trace_path=None)
        assert report.outcome == "ok"
        assert (4 + 0) * (1 + 2) == 12  # the bound instantiated

    def test_run_config_round_trip(self):
        cfg = RunConfig(mode_override=RouteMode.GUARDED, budget_micros=123,
                        recovery_retries=1)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        assert cfg.config_hash() == RunConfig.from_dict(cfg.to_dict()).config_hash()

    @pytest.mark.parametrize("key", sorted(RunConfig().to_dict()))
    def test_run_config_key_left_out_takes_the_default(self, key):
        # every value differs from the default, so only the key left out can match it
        cfg = RunConfig(weights=RiskWeights(0.4, 0.15, 0.15, 0.15, 0.15),
                        thresholds=RouteThresholds(0.3, 0.8),
                        penalties=PenaltyCoefficients(fail=0.5), repair_threshold=0.7,
                        recovery_retries=3, thin_output_threshold=6, budget_micros=123,
                        seed=7, mode_override=RouteMode.GUARDED,
                        price_table={"default": PriceEntry(1, 2)})
        data = cfg.to_dict()
        default = RunConfig().to_dict()
        assert all(data[name] != default[name] for name in data)
        del data[key]
        assert RunConfig.from_dict(data).to_dict() == dict(cfg.to_dict(), **{key: default[key]})
        assert RunConfig.from_dict({}) == RunConfig()


class RoleModel:
    """Answers each role with its fixed text, however often it is asked."""

    def __init__(self, texts: dict):
        self.texts = texts

    def complete(self, request):
        text = self.texts[request.role]
        return ModelResponse(text=text, usage=Usage(len(request.prompt.split()),
                                                    len(text.split())))


class RaisingModel:
    """A scripted model that raises `error` instead of making call `fail_at`
    (0-based)."""

    def __init__(self, entries, fail_at, error):
        self.inner = scripted(*entries)
        self.fail_at, self.error, self.calls = fail_at, error, 0

    def complete(self, request):
        call, self.calls = self.calls, self.calls + 1
        if call == self.fail_at:
            raise self.error
        return self.inner.complete(request)


def assert_model_error(report, path, role):
    assert report.outcome == "model_error" and report.answer is None
    records = read_trace(path)
    assert [r["type"] for r in records[-2:]] == ["abort", "report"]
    assert records[-2]["reason"] == "model_error"
    assert records[-2]["detail"].startswith(f"{role} call raised ")
    assert records[-1]["report"]["outcome"] == "model_error"
    assert replay_trace(path).matched


class TestModelErrors:
    @pytest.mark.parametrize("entries, fail_at, role, stages", [
        ((), 0, "profile", {"profile": 1}),
        (({"role": "profile", "text": "garbage"},), 1, "profile", {"profile": 1}),
        ((profile_entry(FAILING_PROFILE),), 1, "repair", {"profile": 1, "repair": 1}),
        ((profile_entry(CLEAN_PROFILE),), 1, "reason", {"profile": 1, "reason": 1}),
        ((profile_entry(FAILING_PROFILE), {"role": "repair", "text": json.dumps(GOOD_PATCH)}),
         2, "reason", {"profile": 1, "repair": 1, "reason": 1}),
    ], ids=["profile", "profile-retry", "repair", "reason", "reason-after-repair"])
    def test_raising_model_ends_in_model_error(self, entries, fail_at, role, stages, tmp_path):
        path = str(tmp_path / "run.jsonl")
        model = RaisingModel(entries, fail_at, ConnectionError("connection reset"))
        report = run_ptr(task(), bench_metadata(), RunConfig(), model, environment(),
                         trace_path=path)
        assert_model_error(report, path, role)
        abort = read_trace(path)[-2]
        assert abort["detail"] == f"{role} call raised ConnectionError: connection reset"
        assert report.raw_model_calls == fail_at
        assert report.ledger["stage_counts"] == stages
        assert report.repaired is ("repair" in stages)
        assert (report.route is None) is (role == "profile")
        assert role in report.timing

    @pytest.mark.parametrize("content", [None, 7, ["Alan Turing"]])
    def test_provider_reply_without_text_is_a_model_error(self, content, monkeypatch,
                                                          tmp_path):
        monkeypatch.setenv("PTRUN_API_KEY", "secret")
        model = semantic.HttpProviderModel(
            endpoint="http://example/chat", model="m1",
            transport=lambda payload, headers: {"choices": [{"message": {"content": content}}]})
        path = str(tmp_path / "run.jsonl")
        report = run_ptr(task(), bench_metadata(), RunConfig(), model, environment(),
                         trace_path=path)
        assert_model_error(report, path, "profile")
        assert read_trace(path)[-2]["detail"] == (
            "profile call raised SemanticError: provider reply has no text: its content is "
            + type(content).__name__)

    def test_exhausted_script_is_a_model_error(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        report = run_ptr(task(), bench_metadata(), RunConfig(),
                         scripted(profile_entry(CLEAN_PROFILE)), environment(), trace_path=path)
        assert_model_error(report, path, "reason")
        assert "ScriptExhaustedError" in read_trace(path)[-2]["detail"]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_any_model_exception_at_any_call_is_recorded(self, seed, data):
        scenario = make_scenario(random.Random(seed))
        script = scenario["script"]
        fail_at = data.draw(st.integers(0, len(script) - 1))
        error = data.draw(st.sampled_from([
            ConnectionError("reset"), TimeoutError(), RuntimeError("provider said no"),
            KeyError("choices"), ValueError("bad usage"), ScriptExhaustedError("empty")]))
        model = RaisingModel(script, fail_at, error)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.jsonl")
            report = run_ptr(scenario["task"], scenario["metadata"], scenario["cfg"], model,
                             scenario["environment"], trace_path=path)
            assert_model_error(report, path, script[fail_at]["role"])


class TestRunsThatEndAbnormally:
    """The trace file is written when the run ends, however it ends."""

    def test_interrupt_at_the_reason_call_keeps_the_records_before_it(self, tmp_path):
        path, full = tmp_path / "run.jsonl", tmp_path / "full.jsonl"
        model = RaisingModel((profile_entry(CLEAN_PROFILE),), 1, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            run_ptr(task(), bench_metadata(), RunConfig(), model, environment(),
                    trace_path=str(path))
        run_ptr(task(), bench_metadata(), RunConfig(), scripted(profile_entry(CLEAN_PROFILE),
                                                                REASON),
                environment(), trace_path=str(full))
        written = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        whole = read_trace(str(full))
        assert [r["type"] for r in whole[len(written):]] == ["model_call", "reason", "report"]
        assert strip_volatile(written) == strip_volatile(whole[:len(written)])

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_failed_final_write_raises_and_closes_the_file(self, tmp_path, monkeypatch):
        opened = []

        class RecordingWriter(pipeline.TraceWriter):
            def __init__(self, path=None):
                super().__init__(path)
                opened.append(self._fh)
        monkeypatch.setattr(pipeline, "TraceWriter", RecordingWriter)
        path = tmp_path / "run.jsonl"
        path.symlink_to("/dev/full")  # every write to it fails with ENOSPC
        with pytest.raises(OSError, match="No space left on device"):
            run_ptr(task(), bench_metadata(), RunConfig(),
                    scripted(profile_entry(CLEAN_PROFILE), REASON), environment(),
                    trace_path=str(path))
        assert len(opened) == 1 and opened[0].closed


class TestStatePathIndexes:
    """A list index in a placeholder is ASCII digits; anything else is a
    missing placeholder, recorded in the trace like any other."""

    def run_placeholder(self, segment, path):
        profile = {"workflow": {"steps": [
            {"tool_id": "kb_search", "params": {"query": "turing machine", "limit": 2}},
            {"tool_id": "kb_lookup",
             "params": {"title": {"placeholder": f"result.kb_search_1.titles.{segment}"}}},
        ]}}
        model = RoleModel({"profile": json.dumps(profile), "repair": json.dumps(GOOD_PATCH),
                           "reason": "Alan Turing"})
        return run_ptr(task(), bench_metadata(), RunConfig(), model, environment(),
                       trace_path=path)

    def lookup_step(self, path):
        return next(r["event"] for r in read_trace(path)
                    if r["type"] == "step" and r["event"]["tool_id"] == "kb_lookup")

    @pytest.mark.parametrize("segment", ["²", "١", "٠", "9" * 5000, "0" * 5000 + "1",
                                         "1", "-0", " 0", "0x0", ""],
                             ids=["superscript-two", "arabic-indic-one", "arabic-indic-zero",
                                  "5000-nines", "5000-zeros-then-one", "past-the-end",
                                  "negative", "space", "hex", "empty"])
    def test_non_index_is_a_missing_placeholder(self, segment, tmp_path):
        path = str(tmp_path / "run.jsonl")
        report = self.run_placeholder(segment, path)
        assert report.outcome == "ok"
        step = self.lookup_step(path)
        assert step["outcome"] == "failure"
        assert step["error_class"] == "missing_placeholder"
        assert replay_trace(path).matched

    @pytest.mark.parametrize("segment", ["0", "00", "0" * 5000])
    def test_ascii_index_reads_the_entry(self, segment, tmp_path):
        path = str(tmp_path / "run.jsonl")
        self.run_placeholder(segment, path)
        step = self.lookup_step(path)
        assert step["outcome"] == "success"
        assert step["resolved_params"] == {"title": "Alan Turing"}

    @settings(max_examples=150, deadline=None)
    @given(segment=st.text(max_size=40))
    def test_any_segment_text_ends_in_a_recorded_outcome(self, segment):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "run.jsonl")
            report = self.run_placeholder(segment, path)
            assert report.outcome == "ok"
            assert read_trace(path)[-1]["type"] == "report"
            assert replay_trace(path).matched


TOOLS = ("kb_search", "kb_lookup", "calc")
ARTICLE_TEXT = st.text(max_size=30) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\u2028", "café \U0001f600", "alpha"])
FAULT_ENTRY = st.sampled_from(["ok", "timeout", "not_found",
                               {"fail": "rate_limited", "message": 'slöw "down" \\'}])


@st.composite
def articles(draw):
    """Article dicts with unique titles; keys in any order, body and links
    optional."""
    titles = draw(st.lists(ARTICLE_TEXT, unique=True, max_size=5))
    result = []
    for title in titles:
        fields = [("title", title)]
        if draw(st.booleans()):
            fields.append(("body", draw(ARTICLE_TEXT)))
        if draw(st.booleans()):
            fields.append(("links", draw(st.lists(ARTICLE_TEXT, max_size=3))))
        result.append(dict(draw(st.permutations(fields))))
    return result


def kb_digest(articles) -> str:
    return hashlib.sha256(canonical_json(list(articles)).encode("utf-8")).hexdigest()


def expected_header_line(cfg, articles, fault_scripts) -> str:
    """The header line as json.dumps writes the whole header record."""
    return json.dumps({
        "type": "header",
        "schema_version": SCHEMA_VERSION,
        "task": task().to_dict(),
        "metadata": bench_metadata().to_dict(),
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "environment": {"kb_digest": kb_digest(articles),
                        "fault_scripts": {k: list(v) for k, v in fault_scripts.items()}},
    }, allow_nan=False)


def header_line(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.readline().rstrip("\n")


SEARCH_THEN_CALC = {"workflow": {"steps": [
    {"tool_id": "kb_search", "params": {"query": "alpha café"}},
    {"tool_id": "calc", "params": {"expression": "1 + 2"}},
]}}


def role_model():
    return RoleModel({"profile": json.dumps(SEARCH_THEN_CALC),
                      "repair": json.dumps(SEARCH_THEN_CALC), "reason": "done"})


@pytest.fixture
def empty_kb_memo(monkeypatch):
    """An empty KB memo for one test; the process's own memo is back after it."""
    memo = collections.OrderedDict()
    monkeypatch.setattr(pipeline, "_KB_MEMO", memo)
    return memo


class TestEnvironmentHeader:
    @settings(max_examples=80, deadline=None)
    @given(kb=articles(),
           fault_scripts=st.dictionaries(st.sampled_from(TOOLS),
                                         st.lists(FAULT_ENTRY, min_size=1, max_size=3),
                                         max_size=3))
    def test_header_line_is_the_whole_record_encoded(self, kb, fault_scripts):
        env = ToolEnvironment(articles=tuple(kb), fault_scripts=fault_scripts)
        cfg = RunConfig()
        expected = expected_header_line(cfg, kb, fault_scripts)
        with tempfile.TemporaryDirectory() as tmp:
            for name in ("first", "later", "last"):
                path = os.path.join(tmp, f"{name}.jsonl")
                run_ptr(task(), bench_metadata(), cfg, role_model(), env, trace_path=path)
                assert header_line(path) == expected
                assert json.dumps(read_trace(path)[0], allow_nan=False) == expected
                assert replay_trace(path).matched
            side_file = Path(kb_side_file(path, kb_digest(kb)))
            assert side_file.read_bytes() == canonical_json(kb).encode("utf-8")
            assert os.listdir(side_file.parent) == [side_file.name]

    def test_kb_is_encoded_at_build_and_stored_only_for_a_trace_file(self, monkeypatch,
                                                                      tmp_path):
        encoded, replaced = [], []
        encode, replace_file = pipeline.canonical_json, os.replace
        monkeypatch.setattr(pipeline, "canonical_json",
                            lambda obj: encoded.append(obj) or encode(obj))
        monkeypatch.setattr(os, "replace",
                            lambda *args: replaced.append(args) or replace_file(*args))
        env = environment()
        assert len(encoded) == 1  # building the environment encodes its KB
        report = run_ptr(task(), bench_metadata(), RunConfig(), role_model(), env)
        assert report.outcome == "ok"
        assert not (tmp_path / "kb").exists() and replaced == []
        for name in ("first", "second"):
            run_ptr(task(), bench_metadata(), RunConfig(), role_model(), env,
                    trace_path=str(tmp_path / f"{name}.jsonl"))
        side_file = Path(kb_side_file(tmp_path / "first.jsonl", env.kb_digest))
        assert len(replaced) == 1  # the second trace found the side file there
        side_file.unlink()
        run_ptr(task(), bench_metadata(), RunConfig(), role_model(), env,
                trace_path=str(tmp_path / "third.jsonl"))
        assert len(replaced) == 2
        assert side_file.read_bytes() == canonical_json(KB).encode("utf-8")
        # building encodes the KB once, and so does each write of its side file
        assert len(encoded) == 1 + len(replaced)
        assert sorted(os.listdir(tmp_path / "kb")) == [side_file.name]
        side_file.write_bytes(side_file.read_bytes()[:-1])
        run_ptr(task(), bench_metadata(), RunConfig(), role_model(), env,
                trace_path=str(tmp_path / "fourth.jsonl"))
        assert len(replaced) == 3  # a side file of the wrong size is written again
        assert len(encoded) == 4
        assert side_file.read_bytes() == canonical_json(KB).encode("utf-8")

    def test_list_changed_in_place_is_not_stored_under_the_old_digest(self, tmp_path):
        kb = [dict(article, links=["Paris"]) for article in KB]
        env = ToolEnvironment(articles=tuple(kb))
        kb[0]["links"].append("France")
        path = tmp_path / "run.jsonl"
        with pytest.raises(ValueError, match="changed in place"):
            run_ptr(task(), bench_metadata(), RunConfig(), role_model(), env,
                    trace_path=str(path))
        assert not path.exists() and not (tmp_path / "kb").exists()

    @pytest.mark.parametrize("extra", [{1, 2}, float("nan")], ids=["set", "nan"])
    def test_article_that_is_not_json_is_value_error(self, extra):
        with pytest.raises(ValueError, match="knowledge base is not JSON"):
            ToolEnvironment(articles=({"title": "a", "extra": extra},))

    def test_caller_changes_after_build_reach_neither_run_nor_header(self, tmp_path):
        kb = [dict(article, links=["Paris"]) for article in KB]
        scripts = {"kb_search": ["timeout", "ok"]}
        original = copy.deepcopy(kb)
        expected = expected_header_line(RunConfig(), kb, scripts)
        profile = {"workflow": {"steps": [
            {"tool_id": "kb_search", "params": {"query": "turing machine"}},
            {"tool_id": "kb_lookup", "params": {"title": "Paris"}}]}}
        model = functools.partial(RoleModel, {"profile": json.dumps(profile),
                                              "repair": json.dumps(profile), "reason": "ok"})
        env = ToolEnvironment(articles=tuple(kb), fault_scripts=scripts)
        built_kb, built_digest = env.kb, env.kb_digest
        assert built_digest == kb_digest(original)

        def mutate():
            scripts["kb_search"][0] = "ok"
            scripts["kb_search"].append("not_found")
            scripts["kb_lookup"] = ["not_found"]
            kb[0]["links"].append("France")
            kb[1]["body"] = "changed"
            kb[1]["links"] = ["Alan Turing"]
            kb.append({"title": "Added"})

        traces = []
        for name in ("before", "after"):
            path = str(tmp_path / f"{name}.jsonl")
            run_ptr(task(), bench_metadata(), RunConfig(), model(), env, trace_path=path)
            assert header_line(path) == expected
            traces.append(strip_volatile(read_trace(path)))
            mutate()
        assert traces[0] == traces[1]
        first_step = next(r for r in traces[0] if r["type"] == "step")
        assert first_step["event"]["error_class"] == "timeout"
        assert env.kb_digest == built_digest and env.kb is built_kb
        assert pipeline._KB_MEMO[built_digest][0].to_list() == original
        assert json.loads(Path(kb_side_file(path, built_digest)).read_text()) == original

        # a change made before the first run does not reach it either
        kb = [dict(article, links=["Paris"]) for article in KB]
        scripts = {"kb_search": ["timeout", "ok"]}
        env = ToolEnvironment(articles=tuple(kb), fault_scripts=scripts)
        mutate()
        path = str(tmp_path / "mutated-first.jsonl")
        run_ptr(task(), bench_metadata(), RunConfig(), model(), env, trace_path=path)
        assert header_line(path) == expected
        assert strip_volatile(read_trace(path)) == traces[0]
        assert pipeline._KB_MEMO[env.kb_digest][0].to_list() == original


def run_clean(env, path) -> str:
    """A traced two-call run over `env`; returns the trace path."""
    report = run_ptr(task(), bench_metadata(), RunConfig(),
                     scripted(profile_entry(CLEAN_PROFILE), REASON), env, trace_path=str(path))
    assert report.outcome == "ok"
    return str(path)


def rewrite_header(path, edit) -> None:
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    header = json.loads(lines[0])
    edit(header)
    Path(path).write_text(json.dumps(header) + "\n" + "".join(lines[1:]), encoding="utf-8")


def numbered_kb(tag: str, count: int) -> tuple:
    return tuple({"title": f"{tag} {i}", "body": f"turing machine {tag} {i}"}
                 for i in range(count))


class TestKbMemo:
    def test_hit_reads_no_side_file_and_builds_no_kb(self, empty_kb_memo, tmp_path,
                                                     monkeypatch):
        env = environment()
        path = run_clean(env, tmp_path / "run.jsonl")
        assert list(empty_kb_memo) == [env.kb_digest]

        def no_rebuild(*args):
            raise AssertionError("a memo hit rebuilt the KB")

        def no_read(*args, **kwargs):
            raise AssertionError("a memo hit read the side file")

        monkeypatch.setattr(pipeline, "KnowledgeBase", no_rebuild)
        monkeypatch.setattr(pipeline, "open", no_read, raising=False)
        assert replay_trace(path).matched
        assert replay_trace(read_trace(path)).matched

    def test_hit_still_needs_the_side_file_at_its_size(self, empty_kb_memo, tmp_path):
        env = environment()
        path = run_clean(env, tmp_path / "run.jsonl")
        side_file = Path(kb_side_file(path, env.kb_digest))
        content = side_file.read_bytes()
        side_file.write_bytes(content[:-1])
        with pytest.raises(TraceSchemaError, match="does not hash to its digest"):
            replay_trace(path)
        side_file.unlink()
        with pytest.raises(TraceSchemaError, match=f"{env.kb_digest} cannot be read"):
            replay_trace(path)
        assert list(empty_kb_memo) == [env.kb_digest]
        assert replay_trace(read_trace(path)).matched  # a record list has no side file
        side_file.write_bytes(content)
        assert replay_trace(path).matched

    @pytest.mark.parametrize("script", [[7], ["bogus"], [{"fail": "unknown_tool"}]])
    def test_fault_scripts_are_checked_on_a_hit(self, script, tmp_path):
        path = run_clean(environment(), tmp_path / "run.jsonl")
        records = read_trace(path)
        records[0]["environment"]["fault_scripts"] = {"kb_search": script}
        with pytest.raises(TraceSchemaError, match="bad fault script entry"):
            replay_trace(records)

    def test_evicted_kb_is_reloaded_from_its_side_file(self, empty_kb_memo, tmp_path):
        first = environment()
        path = run_clean(first, tmp_path / "first.jsonl")
        others = [ToolEnvironment(articles=numbered_kb(f"kb{n}", 2))
                  for n in range(pipeline.KB_MEMO_SIZE)]
        assert list(empty_kb_memo) == [first.kb_digest]  # building memoizes nothing
        for env in others:
            assert run_ptr(task(), bench_metadata(), RunConfig(), role_model(), env).outcome == "ok"
        assert len({env.kb_digest for env in others + [first]}) == pipeline.KB_MEMO_SIZE + 1
        assert list(empty_kb_memo) == [env.kb_digest for env in others]
        with pytest.raises(TraceSchemaError, match=first.kb_digest):
            replay_trace(read_trace(path))
        assert replay_trace(path).matched
        reloaded = empty_kb_memo[first.kb_digest][0]
        assert reloaded is not first.kb and reloaded.to_list() == first.kb.to_list()
        assert list(empty_kb_memo)[-1] == first.kb_digest
        assert others[0].kb_digest not in empty_kb_memo
        assert len(empty_kb_memo) == pipeline.KB_MEMO_SIZE
        assert replay_trace(read_trace(path)).matched

    def test_each_run_makes_its_kb_the_most_recent(self, empty_kb_memo):
        envs = [ToolEnvironment(articles=numbered_kb(f"kb{n}", 2))
                for n in range(pipeline.KB_MEMO_SIZE + 1)]
        for env in envs[1:] + envs[:1]:
            run_ptr(task(), bench_metadata(), RunConfig(), role_model(), env)
        assert list(empty_kb_memo) == [env.kb_digest for env in envs[2:] + envs[:1]]

    def test_header_size_does_not_depend_on_kb_size(self, tmp_path):
        sizes = []
        for count in (2, 500):
            env = ToolEnvironment(articles=numbered_kb("Alan Turing", count))
            path = run_clean(env, tmp_path / f"kb{count}.jsonl")
            sizes.append(len(header_line(path)))
            assert replay_trace(path).matched
        assert sizes[0] == sizes[1] < 2048


class TestKbTamper:
    """Each edit of the side file or of the header's KB reference is a schema
    error, never a match."""

    def trace(self, tmp_path):
        env = environment()
        path = run_clean(env, tmp_path / "run.jsonl")
        pipeline._KB_MEMO.clear()
        return path, env.kb_digest

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_flipped_side_file_byte_is_schema_error(self, data):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "_KB_MEMO", collections.OrderedDict())
            path, digest = self.trace(Path(tmp))
            side_file = Path(kb_side_file(path, digest))
            content = bytearray(side_file.read_bytes())
            position = data.draw(st.integers(0, len(content) - 1), label="position")
            content[position] ^= data.draw(st.integers(1, 255), label="mask")
            side_file.write_bytes(bytes(content))
            with pytest.raises(TraceSchemaError, match="does not hash to its digest"):
                replay_trace(path)

    def test_deleted_side_file_is_schema_error(self, empty_kb_memo, tmp_path):
        path, digest = self.trace(tmp_path)
        os.remove(kb_side_file(path, digest))
        with pytest.raises(TraceSchemaError, match=f"knowledge base {digest} cannot be read"):
            replay_trace(path)

    @pytest.mark.parametrize("edit", [
        lambda digest: "../kb/x",
        lambda digest: digest.upper(),
        lambda digest: digest[:63],
        lambda digest: digest + "\n",
        lambda digest: None,
        lambda digest: 7,
    ], ids=["traversal", "upper-case", "63-chars", "newline", "missing", "number"])
    def test_malformed_kb_digest_is_schema_error(self, edit, tmp_path):
        env = environment()
        path = run_clean(env, tmp_path / "run.jsonl")
        # a file the traversal would reach, holding the trace's own KB
        (tmp_path / "kb" / "x.json").write_bytes(
            Path(kb_side_file(path, env.kb_digest)).read_bytes())
        rewrite_header(path, lambda header: header["environment"].update(
            kb_digest=edit(env.kb_digest)))
        with pytest.raises(TraceSchemaError, match="is not 64 lowercase hex digits"):
            replay_trace(path)

    def test_untitled_article_in_matching_side_file_is_schema_error(self, empty_kb_memo,
                                                                     tmp_path):
        path, _ = self.trace(tmp_path)
        text = canonical_json([{"body": "no title"}])
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        Path(kb_side_file(path, digest)).write_text(text, encoding="utf-8")
        rewrite_header(path, lambda header: header["environment"].update(kb_digest=digest))
        with pytest.raises(TraceSchemaError, match="article 0: title must be a string"):
            replay_trace(path)
        assert digest not in empty_kb_memo

    def test_side_file_that_is_not_a_kb_is_schema_error(self, empty_kb_memo, tmp_path):
        path, _ = self.trace(tmp_path)
        for text in ('{"title": "x"}', "[" * 100_000, "not json"):
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            Path(kb_side_file(path, digest)).write_text(text, encoding="utf-8")
            rewrite_header(path, lambda header: header["environment"].update(kb_digest=digest))
            with pytest.raises(TraceSchemaError, match="is malformed"):
                replay_trace(path)

    def test_version_2_header_with_inline_kb_is_schema_error(self, tmp_path):
        path = run_clean(environment(), tmp_path / "run.jsonl")
        rewrite_header(path, lambda header: header["environment"].update(kb=KB))
        with pytest.raises(TraceSchemaError, match="does not embed it"):
            replay_trace(path)

    def test_version_1_header_with_kb_digest_is_schema_error(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        path.write_bytes(V1_TRACE.read_bytes())
        rewrite_header(path, lambda header: header["environment"].update(
            kb_digest=hashlib.sha256(b"").hexdigest()))
        with pytest.raises(TraceSchemaError, match="has no kb_digest"):
            replay_trace(path)


V1_TRACE = Path(__file__).parent / "data" / "trace_v1_demo.jsonl"


class TestVersion1Traces:
    """A version 1 trace (tests/data/trace_v1_demo.jsonl, the bundled demo run
    as the version 1 writer wrote it) embeds its KB and still replays."""

    def test_fixture_replays_matched(self, empty_kb_memo):
        header = read_trace(V1_TRACE)[0]
        assert header["schema_version"] == 1 and "kb" in header["environment"]
        replay = replay_trace(V1_TRACE)
        assert replay.matched and replay.sections_checked == 10
        assert len(empty_kb_memo) == 0  # an embedded KB is not memoized
        assert replay_trace(read_trace(V1_TRACE)).matched

    def test_header_line_is_the_whole_record_encoded(self):
        line = header_line(V1_TRACE)
        assert json.dumps(json.loads(line), allow_nan=False) == line

    @pytest.mark.parametrize("value", [
        {"kb": [{"body": "no title"}]},
        {"kb": [], "fault_scripts": {"kb_search": [7]}},
        {"kb": 5},
        {"kb": [], "fault_scripts": {"kb_search": None}},
        {"kb": [], "fault_scripts": ["kb_search"]},
    ])
    def test_malformed_environment_is_schema_error(self, value):
        records = read_trace(V1_TRACE)
        records[0]["environment"] = value
        with pytest.raises(TraceSchemaError, match="trace header is malformed"):
            replay_trace(records)

    @pytest.mark.parametrize("edit, section", [("step outcome", "step[initial]"),
                                               ("swap profile model_call", "model_call")])
    def test_edited_trace_diverges(self, edit, section):
        records = read_trace(V1_TRACE)
        if edit == "step outcome":
            next(r for r in records if r["type"] == "step")["event"]["outcome"] = "failure"
        else:
            assert [r["type"] for r in records[1:3]] == ["model_call", "profile"]
            records[1], records[2] = records[2], records[1]
        replay = replay_trace(records)
        assert not replay.matched
        assert (replay.divergence["section"], replay.divergence["index"]) == (section, 0)


V2_TRACE = Path(__file__).parent / "data" / "trace_v2_demo.jsonl"


class TestVersion2Traces:
    """A version 2 trace (tests/data/trace_v2_demo.jsonl, the bundled suite's
    item q07, which repairs, as the version 2 writer wrote it beside its kb/
    directory) copies each reply into its profile or repair record; replay
    checks the copies against the replies instead of trusting them."""

    def test_fixture_replays_matched(self, empty_kb_memo):
        records = read_trace(V2_TRACE)
        assert records[0]["schema_version"] == 2
        assert [r["accepted"] for r in records if r["type"] == "repair"] == [True]
        replay = replay_trace(V2_TRACE)
        assert replay.matched and replay.sections_checked == 15
        assert list(empty_kb_memo) == [records[0]["environment"]["kb_digest"]]

    @pytest.mark.parametrize("kind, edit", [
        ("profile", lambda record: record.update(raw=record["raw"] + " ")),
        ("profile", lambda record: record["parsed"].update(confidence=0.5)),
        ("repair", lambda record: record["parsed"]["workflow"]["steps"][0]["params"].update(
            limit=4)),
    ], ids=["profile-raw", "profile-parsed", "repair-parsed"])
    def test_edited_copy_diverges(self, kind, edit, empty_kb_memo):
        assert replay_trace(V2_TRACE).matched  # puts the trace's KB in the memo
        records = read_trace(V2_TRACE)
        edit(next(r for r in records if r["type"] == kind))
        replay = replay_trace(records)
        assert not replay.matched
        assert (replay.divergence["section"], replay.divergence["index"]) == (kind, 0)


def limit_reply(limit) -> str:
    """A profile reply whose search step's `limit` is the given value."""
    return json.dumps({"workflow": {"steps": [
        {"tool_id": "kb_search", "params": {"query": "turing machine", "limit": limit}}]}})


LIMIT_VALUES = st.lists(st.integers(), max_size=2000) | st.recursive(
    st.none() | st.booleans() | st.text(max_size=50) | st.floats(allow_nan=False),
    lambda children: st.lists(children, max_size=20)
    | st.dictionaries(st.text(max_size=10), children, max_size=20),
    max_leaves=200)


class TestRetryPromptBound:
    """The corrective retry prompt is at most the base prompt plus a constant,
    whatever the rejected reply holds."""

    # the retry section's fixed text, the cut marker and the kept diagnostic
    CONSTANT = 1200

    @settings(max_examples=60, deadline=None)
    @given(reply=st.text(max_size=5000) | st.builds(limit_reply, LIMIT_VALUES))
    @example(reply=limit_reply(list(range(20_000))))
    @example(reply="{" * 50_000)
    def test_retry_prompt_is_the_base_prompt_plus_a_constant(self, reply):
        prompts = []
        model = scripted({"role": "profile", "text": reply}, profile_entry(CLEAN_PROFILE),
                         REASON)
        complete = model.complete
        model.complete = lambda request: prompts.append(request.prompt) or complete(request)
        report = run_ptr(task(), bench_metadata(), RunConfig(), model, environment())
        assume(report.raw_model_calls == 3)  # the reply was rejected
        base, retry = prompts[:2]
        assert retry.startswith(base)
        assert len(retry) <= len(base) + self.CONSTANT


class TestRunInvalidTraceBound:
    """A run_invalid trace holds the two rejected replies, which its
    model_call records must keep; apart from them its size does not grow
    with the replies: the retry prompt and the abort record's detail quote
    a capped diagnostic."""

    @staticmethod
    def size_without_replies(reply: str, directory: str) -> int | None:
        path = os.path.join(directory, "run.jsonl")
        model = scripted({"role": "profile", "text": reply}, {"role": "profile", "text": reply},
                         REASON)
        report = run_ptr(task(), bench_metadata(), RunConfig(), model, environment(),
                         trace_path=path)
        if report.outcome != "run_invalid":
            return None
        replies = sum(len(json.dumps(record["response_text"]))
                      for record in read_trace(path) if record["type"] == "model_call")
        return os.path.getsize(path) - replies

    @settings(max_examples=40, deadline=None)
    @given(reply=st.text(max_size=5000) | st.builds(limit_reply, LIMIT_VALUES))
    @example(reply=limit_reply(list(range(20_000))))
    @example(reply="{" * 50_000)
    def test_trace_less_its_replies_is_bounded(self, reply):
        with tempfile.TemporaryDirectory() as tmp:
            base = self.size_without_replies("no profile here", tmp)
            size = self.size_without_replies(reply, tmp)
        assume(size is not None)  # both replies were rejected
        # The retry prompt and the abort detail each add at most the cap in
        # characters; the trace escapes a character in at most 12 bytes.
        assert size <= base + 2 * 12 * TestRetryPromptBound.CONSTANT
