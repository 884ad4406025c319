import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from ptrun.core import (AutoParam, AutoRuleSpec, BranchRule, Metadata, PlaceholderParam,
                        Profile, RecoverySpec, RuleSet, Workflow, WorkflowStep)
from ptrun.executor import (ExecutionConfig, branch_step, compile_rules, initial_state,
                            resolve_step, run_workflow)
from ptrun.router import RouteMode
from ptrun.tools import KnowledgeBase, builtin_registry
from ptrun.trace import strip_volatile
from ptrun import ruledsl

import helpers_scenarios

KB = KnowledgeBase([
    {"title": "Alan Turing", "body": "Alan Turing was a mathematician who introduced the "
                                     "Turing machine.", "links": []},
    {"title": "Paris", "body": "Paris is the capital of France.", "links": []},
])

BENCH_TOOLS = builtin_registry(KB).specs()


def metadata_with_rules(auto=(), recovery=()):
    return Metadata(schema={}, tool_catalog=tuple(BENCH_TOOLS),
                    constraints=RuleSet(auto_rules=tuple(auto), recovery_rules=tuple(recovery)))


def workflow_of(*steps):
    return Workflow(steps=tuple(WorkflowStep(tool_id=t, params=p) for t, p in steps))


def run(workflow, mode=RouteMode.PURE, n_rec=2, fault_scripts=None, rules=None, env=None):
    registry = builtin_registry(KB, fault_scripts)
    config = ExecutionConfig(recovery_retries=n_rec, mode=mode)
    state = initial_state(env)
    run_workflow(workflow, config, registry, state, rules)
    return state


class TestResolve:
    def test_literal_identity(self):
        params = {"query": "x", "limit": 3}
        assert resolve_step(params, {}, initial_state()) == params

    def test_placeholder_substitution(self):
        state = initial_state()
        state.store("kb_search_1", {"top_title": "Paris"})
        params = {"title": PlaceholderParam("result.kb_search_1.top_title")}
        assert resolve_step(params, {}, state) == {"title": "Paris"}

    def test_auto_marker_resolution(self):
        rule = ruledsl.AutoRule(id="top", expr=ruledsl.parse_auto_expr(
            'result.kb_search_1.top_title ?? "fallback"'))
        resolved = resolve_step({"title": AutoParam("top")}, {"top": rule}, initial_state())
        assert resolved == {"title": "fallback"}

    def test_unresolved_auto_is_hard_and_step_not_executed(self):
        rule_spec = AutoRuleSpec(id="top", expr="result.kb_search_1.top_title")
        metadata = metadata_with_rules(auto=[rule_spec])
        workflow = workflow_of(("kb_lookup", {"title": AutoParam("top")}))
        profile = Profile(workflow=workflow)
        state = run(workflow, rules=compile_rules(metadata, profile))
        event = state.trace[0]
        assert event.outcome == "failure"
        assert event.error_class == "unresolved_auto"
        assert event.attempts == []  # tool never invoked
        assert state.failure_log[0].classified == "hard"


class TestBranch:
    def compiled(self, predicate, modifier, target=1):
        profile = Profile(
            workflow=workflow_of(("kb_search", {"query": "x", "limit": 5})),
            branch_rules=(BranchRule(predicate=predicate, modifier=modifier, target_step=target),),
        )
        return compile_rules(metadata_with_rules(), profile)

    def test_pure_mode_is_identity(self):
        bundle = self.compiled("result.kb_search_1.count == 0", "set limit = limit * 2")
        state = initial_state()
        state.store("kb_search_1", {"count": 0})
        params, firings = branch_step({"limit": 5}, bundle.branch_rules_for(1),
                                      RouteMode.PURE, state)
        assert params == {"limit": 5} and firings == []

    def test_guarded_fires_and_logs(self):
        bundle = self.compiled("result.kb_search_1.count == 0", "set limit = limit * 2")
        state = initial_state()
        state.store("kb_search_1", {"count": 0})
        params, firings = branch_step({"limit": 5}, bundle.branch_rules_for(1),
                                      RouteMode.GUARDED, state)
        assert params == {"limit": 10}
        assert len(firings) == 1
        assert firings[0].before == {"limit": 5} and firings[0].after == {"limit": 10}

    def test_false_predicate_no_log_entry(self):
        bundle = self.compiled("result.kb_search_1.count == 0", "set limit = limit * 2")
        state = initial_state()
        state.store("kb_search_1", {"count": 2})
        params, firings = branch_step({"limit": 5}, bundle.branch_rules_for(1),
                                      RouteMode.GUARDED, state)
        assert params == {"limit": 5} and firings == []

    def test_repair_eligible_behaves_like_guarded(self):
        bundle = self.compiled("result.kb_search_1.count == 0", "set limit = limit * 2")
        state = initial_state()
        state.store("kb_search_1", {"count": 0})
        params, _ = branch_step({"limit": 5}, bundle.branch_rules_for(1),
                                RouteMode.REPAIR_ELIGIBLE, state)
        assert params == {"limit": 10}


class TestExecuteStep:
    def test_success_single_attempt(self):
        state = run(workflow_of(("kb_search", {"query": "paris", "limit": 2})))
        event = state.trace[0]
        assert event.outcome == "success"
        assert len(event.attempts) == 1
        assert state.result_store["kb_search_1"]["top_title"] == "Paris"

    def test_recovery_retry_succeeds(self):
        metadata = metadata_with_rules(
            recovery=[RecoverySpec(error_class="timeout", modifier="set limit = limit + 1")])
        workflow = workflow_of(("kb_search", {"query": "paris", "limit": 2}))
        rules = compile_rules(metadata, Profile(workflow=workflow))
        state = run(workflow, n_rec=2, fault_scripts={"kb_search": ["timeout"]}, rules=rules)
        event = state.trace[0]
        assert event.outcome == "success"
        assert len(event.attempts) == 2
        assert event.attempts[1].params == {"query": "paris", "limit": 3}

    def test_retries_exhausted_is_soft_and_run_continues(self):
        metadata = metadata_with_rules(
            recovery=[RecoverySpec(error_class="any", modifier="set limit = limit + 1")])
        workflow = workflow_of(("kb_search", {"query": "paris", "limit": 2}),
                               ("kb_lookup", {"title": "Paris"}))
        rules = compile_rules(metadata, Profile(workflow=workflow))
        state = run(workflow, n_rec=2,
                    fault_scripts={"kb_search": ["timeout", "timeout", "timeout"]}, rules=rules)
        first, second = state.trace
        assert first.outcome == "failure" and len(first.attempts) == 3  # 1 + n_rec
        step_one_entries = [e for e in state.failure_log if e.step == 1]
        assert [e.attempt for e in step_one_entries] == [1, 2, 3]
        assert all(e.classified == "soft" for e in step_one_entries)
        assert second.outcome == "success"  # soft failure does not halt

    def test_no_matching_recovery_rule_single_attempt(self):
        state = run(workflow_of(("kb_lookup", {"title": "Nowhere"})))
        event = state.trace[0]
        assert event.outcome == "failure" and len(event.attempts) == 1
        assert state.failure_log[0].classified == "soft"

    def test_invalid_params_after_retries_is_hard(self):
        state = run(workflow_of(("kb_search", {"query": ""}),
                                ("kb_lookup", {"title": "Paris"})))
        assert state.trace[0].error_class == "invalid_params"
        assert state.failure_log[0].classified == "hard"
        assert state.trace[1].outcome == "skipped"

    def test_unknown_tool_is_hard(self):
        state = run(workflow_of(("frobnicate", {}), ("kb_lookup", {"title": "Paris"})))
        assert state.trace[0].error_class == "unknown_tool"
        assert state.failure_log[0].classified == "hard"
        assert state.trace[1].outcome == "skipped"

    def test_modifier_error_during_branch_is_hard(self):
        profile = Profile(
            workflow=workflow_of(("kb_search", {"query": "paris", "limit": 1})),
            branch_rules=(BranchRule(predicate="env.go == 1",
                                     modifier='set limit = limit + "x"', target_step=1),),
        )
        rules = compile_rules(metadata_with_rules(), profile)
        state = run(profile.workflow, mode=RouteMode.GUARDED, rules=rules, env={"go": 1})
        assert state.trace[0].error_class == "modifier_error"
        assert state.failure_log[-1].classified == "hard"


class TestRunWorkflow:
    def test_three_step_happy_path(self):
        workflow = workflow_of(
            ("kb_search", {"query": "turing", "limit": 1}),
            ("kb_lookup", {"title": "Alan Turing"}),
            ("calc", {"expression": "1 + 1"}),
        )
        state = run(workflow)
        assert [e.outcome for e in state.trace] == ["success"] * 3
        assert set(state.result_store) == {"kb_search_1", "kb_lookup_1", "calc_1"}

    def test_hard_failure_skips_remaining(self):
        workflow = workflow_of(
            ("kb_search", {"query": "turing", "limit": 1}),
            ("kb_search", {"query": ""}),  # invalid_params -> hard
            ("kb_lookup", {"title": "Paris"}),
        )
        state = run(workflow)
        assert [e.outcome for e in state.trace] == ["success", "failure", "skipped"]

    def test_same_tool_twice_gets_sequential_keys(self):
        workflow = workflow_of(
            ("kb_search", {"query": "turing", "limit": 1}),
            ("kb_search", {"query": "paris", "limit": 1}),
        )
        state = run(workflow)
        assert set(state.result_store) == {"kb_search_1", "kb_search_2"}

    def test_placeholder_chain_between_steps(self):
        workflow = workflow_of(
            ("kb_search", {"query": "capital france", "limit": 1}),
            ("kb_lookup", {"title": PlaceholderParam("result.kb_search_1.top_title")}),
        )
        state = run(workflow)
        assert state.trace[1].resolved_params == {"title": "Paris"}

    def test_store_never_overwritten(self):
        state = initial_state()
        state.store("k", 1)
        with pytest.raises(RuntimeError):
            state.store("k", 2)


class TestProperties:
    def fuzz_workflows(self):
        return [
            workflow_of(("kb_search", {"query": "turing", "limit": 2})),
            workflow_of(("kb_search", {"query": "zzz"}), ("kb_lookup", {"title": "Paris"})),
            workflow_of(("calc", {"expression": "3 + 4 * 2"}),
                        ("kb_lookup", {"title": "Missing"}),
                        ("kb_search", {"query": "capital"})),
        ]

    def test_determinism_two_runs_identical(self):
        for workflow in self.fuzz_workflows():
            for scripts in (None, {"kb_search": ["timeout", "ok"]}):
                a = run(workflow, fault_scripts=dict(scripts) if scripts else None)
                b = run(workflow, fault_scripts=dict(scripts) if scripts else None)
                assert strip_volatile(a.to_dict()) == strip_volatile(b.to_dict())

    def test_attempt_and_invocation_bounds(self):
        metadata = metadata_with_rules(
            recovery=[RecoverySpec(error_class="any", modifier="set limit = 1")])
        for n_rec in (0, 1, 2, 3):
            workflow = workflow_of(
                ("kb_search", {"query": "paris", "limit": 1}),
                ("kb_search", {"query": "zzz", "limit": 1}),
                ("kb_lookup", {"title": "Nowhere"}),
            )
            rules = compile_rules(metadata, Profile(workflow=workflow))
            state = run(workflow, n_rec=n_rec,
                        fault_scripts={"kb_search": ["timeout"] * 6}, rules=rules)
            total = sum(len(e.attempts) for e in state.trace)
            for event in state.trace:
                assert len(event.attempts) <= 1 + n_rec
            assert total <= len(workflow) * (1 + n_rec)

    def test_pure_mode_branch_log_always_empty(self):
        profile = Profile(
            workflow=workflow_of(("kb_search", {"query": "paris", "limit": 1})),
            branch_rules=(BranchRule(predicate="env.go == 1", modifier="set limit = 2",
                                     target_step=1),),
        )
        rules = compile_rules(metadata_with_rules(), profile)
        state = run(profile.workflow, mode=RouteMode.PURE, rules=rules, env={"go": 1})
        assert state.branch_log == []

    def test_trace_events_serializable(self):
        state = run(self.fuzz_workflows()[2])
        for event in state.trace:
            json.dumps(event.to_dict())


# Root of a state path -> the key of to_dict() it reads.
STATE_FIELDS = {"result": "result_store", "trace": "trace", "failure": "failure_log",
                "branch": "branch_log", "env": "env"}
FIRING_PREDICATES = ("exists(trace.0)", 'trace.0.outcome == "success"', "exists(failure.0)",
                     "env.flag == 1", "exists(branch.0)")
MODIFIERS = {"kb_search": "set limit = 2", "kb_lookup": 'set title = "Paris"',
             "calc": 'set expression = "1 + 1"'}


def reference_lookup(state, parts):
    """The oracle: walk the path through the whole of state.to_dict()."""
    if parts[0] not in STATE_FIELDS:
        return (False, None)
    node = state.to_dict()[STATE_FIELDS[parts[0]]]
    for segment in parts[1:]:
        if isinstance(node, dict) and segment in node:
            node = node[segment]
        elif (isinstance(node, list) and segment.isascii() and segment.isdigit()
              and int(segment) < len(node)):
            node = node[int(segment)]
        else:
            return (False, None)
    return (True, node)


def scenario_state(rng):
    """A guarded run with fault scripts, recovery retries and firing branch rules."""
    length = rng.randint(2, 9)
    steps = helpers_scenarios.gen_workflow_steps(rng, length)
    rules = []
    for target in sorted(rng.sample(range(2, length + 1), rng.randint(1, length - 1))):
        rules.append({"predicate": rng.choice(FIRING_PREDICATES),
                      "modifier": MODIFIERS[steps[target - 1]["tool_id"]],
                      "target_step": target})
    profile = Profile.from_dict({"workflow": {"steps": steps}, "branch_rules": rules})
    metadata = metadata_with_rules(recovery=[RecoverySpec(error_class="any", modifier="")])
    return run(profile.workflow, mode=RouteMode.GUARDED, n_rec=rng.randint(0, 2),
               fault_scripts=helpers_scenarios.gen_fault_scripts(rng),
               rules=compile_rules(metadata, profile), env={"flag": 1, "tags": ["a", "b"]})


class TestStatePaths:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_lookup_equals_reference_walk(self, seed, data):
        state = scenario_state(random.Random(seed))
        root = data.draw(st.sampled_from(sorted(STATE_FIELDS) + ["bogus"]))
        parts = [root]
        node = state.to_dict().get(STATE_FIELDS.get(root))
        while len(parts) < 8 and data.draw(st.booleans()):
            # Mostly follow the real structure, so deep fields are reached;
            # otherwise step out of range or off the structure.
            choices = [st.integers(0, 12).map(str),
                       st.sampled_from(("outcome", "ok", "x", "01", "-1", "", "\u00b2",
                                        "\u0661", "\u0660"))]
            if isinstance(node, dict) and node:
                choices += [st.sampled_from(sorted(node))] * 3
            if isinstance(node, list) and node:
                choices += [st.integers(0, len(node) - 1).map(str)] * 3
            segment = data.draw(st.one_of(choices))
            parts.append(segment)
            if isinstance(node, dict):
                node = node.get(segment)
            elif (isinstance(node, list) and segment.isascii() and segment.isdigit()
                  and int(segment) < len(node)):
                node = node[int(segment)]
            else:
                node = None
        parts = tuple(parts)
        assert state.resolve_path(parts) == reference_lookup(state, parts)

    def test_named_paths(self):
        metadata = metadata_with_rules(recovery=[RecoverySpec(error_class="timeout",
                                                              modifier="")])
        profile = Profile(
            workflow=workflow_of(("kb_search", {"query": "paris", "limit": 1}),
                                 ("kb_search", {"query": "turing", "limit": 1}),
                                 ("kb_lookup", {"title": "Paris"}),
                                 ("kb_lookup", {"title": "Nowhere"})),
            branch_rules=(BranchRule(predicate="exists(trace.0)", modifier="set limit = 2",
                                     target_step=2),),
        )
        state = run(profile.workflow, mode=RouteMode.GUARDED,
                    fault_scripts={"kb_lookup": ["ok", "timeout", "ok"]},
                    rules=compile_rules(metadata, profile))
        paths = ["trace", "failure", "branch", "trace.3.attempts.0.outcome.ok",
                 "trace.3.attempts.1.outcome.error_class", "trace.1.branched_params.limit",
                 "failure.0.classified", "branch.0.after.limit", "trace.4", "failure.9",
                 "branch.1", "trace.outcome", "trace.0.attempts.7"]
        found = {path: state.resolve_path(tuple(path.split("."))) for path in paths}
        for path, value in found.items():
            assert value == reference_lookup(state, tuple(path.split(".")))
        assert found["trace.3.attempts.0.outcome.ok"] == (True, False)
        assert found["trace.1.branched_params.limit"] == (True, 2)
        assert found["branch.0.after.limit"] == (True, 2)
        assert found["trace"] == (True, [event.to_dict() for event in state.trace])
        for path in ("trace.4", "failure.9", "branch.1", "trace.outcome", "trace.0.attempts.7"):
            assert found[path] == (False, None)
        assert ruledsl.eval_predicate(ruledsl.parse_predicate("exists(trace)"), state)
        assert not ruledsl.eval_predicate(ruledsl.parse_predicate("exists(trace.4)"), state)

    @pytest.mark.parametrize("index", ["\u00b2", "\u0661", "\u0660", "9" * 5000, "4", "-0",
                                       "+1", " 1", "1 ", "1_0", "\uff11", ""],
                             ids=["superscript-two", "arabic-indic-one", "arabic-indic-zero",
                                  "5000-nines", "past-the-end", "signed-zero", "plus-one",
                                  "leading-space", "trailing-space", "underscore",
                                  "fullwidth-one", "empty"])
    @pytest.mark.parametrize("root", ["trace", "result.kb_search_1.titles",
                                      "trace.0.attempts"])
    def test_index_that_is_not_ascii_digits_in_range_is_missing(self, root, index):
        state = run(workflow_of(("kb_search", {"query": "turing paris", "limit": 3})))
        assert len(state.result_store["kb_search_1"]["titles"]) == 2
        parts = tuple(root.split(".")) + (index,)
        assert state.resolve_path(parts) == (False, None)

    @pytest.mark.parametrize("index, entry", [("0", 0), ("00", 0), ("0" * 5000, 0), ("01", 1)],
                             ids=["zero", "two-zeros", "5000-zeros", "zero-one"])
    def test_leading_zeros_name_the_same_entry(self, index, entry):
        state = run(workflow_of(("kb_search", {"query": "turing paris", "limit": 3})))
        titles = state.result_store["kb_search_1"]["titles"]
        assert state.resolve_path(("result", "kb_search_1", "titles", index)) == \
            (True, titles[entry])
        assert state.resolve_path(("trace", index, "key"))[0] is (entry == 0)
