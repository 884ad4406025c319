import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from ptrun import ruledsl
from ptrun.core import (AutoParam, AutoRuleSpec, HistorySummary, Metadata,
                        PlaceholderParam, Profile, ProfileFormatError, RecoverySpec,
                        RuleSet, SlotSpec, Task, ToolSpec, Workflow, WorkflowStep,
                        check_admissibility, store_keys, validate_metadata)


def make_tool(tool_id="search", slots=None, output_kind="results"):
    slots = slots if slots is not None else {"query": SlotSpec(type="string")}
    return ToolSpec(id=tool_id, param_schema=slots, output_kind=output_kind)


def make_metadata(tools=None, constraints=None, history=None):
    tools = tools if tools is not None else (
        make_tool("search", {"query": SlotSpec(type="string"),
                             "limit": SlotSpec(type="number", required=False,
                                               auto_resolvable=True)}),
        make_tool("lookup", {"title": SlotSpec(type="string", auto_resolvable=True)}),
    )
    return Metadata(schema={"domain": "test"}, tool_catalog=tuple(tools),
                    constraints=constraints or RuleSet(), history=history)


def profile_of(*steps, **kwargs):
    workflow = Workflow(steps=tuple(
        WorkflowStep(tool_id=t, params=p) for t, p in steps))
    return Profile(workflow=workflow, **kwargs)


class TestDomainTypes:
    def test_task_requires_non_blank_objective(self):
        with pytest.raises(ValueError):
            Task(objective="   ")

    def test_history_rate_bounds(self):
        with pytest.raises(ValueError):
            HistorySummary(prior_run_count=1, prior_failure_rate=1.5)

    def test_workflow_needs_a_step(self):
        with pytest.raises(ValueError):
            Workflow(steps=())

    def test_confidence_bounds(self):
        with pytest.raises(ValueError):
            profile_of(("search", {"query": "x"}), confidence=1.2)

    def test_branch_target_must_exist(self):
        from ptrun.core import BranchRule
        with pytest.raises(ValueError):
            Profile(
                workflow=Workflow(steps=(WorkflowStep(tool_id="search", params={}),)),
                branch_rules=(BranchRule(predicate="env.a == 1", modifier="set query = \"x\"",
                                         target_step=5),),
            )

    def test_store_keys_sequential_suffix(self):
        workflow = Workflow(steps=(
            WorkflowStep(tool_id="kb_search", params={}),
            WorkflowStep(tool_id="kb_lookup", params={}),
            WorkflowStep(tool_id="kb_search", params={}),
        ))
        assert store_keys(workflow) == ("kb_search_1", "kb_lookup_1", "kb_search_2")

    def test_profile_serialization_round_trip(self):
        profile = profile_of(
            ("search", {"query": "turing", "limit": 3}),
            ("lookup", {"title": PlaceholderParam("result.search_1.top_title")}),
            confidence=0.8,
            assumptions=("corpus is complete",),
            fragile_points=("phrasing",),
            replan_conditions=("result.search_1.count == 0",),
        )
        assert Profile.from_dict(profile.to_dict()) == profile

    def test_metadata_serialization_round_trip(self):
        metadata = make_metadata(
            constraints=RuleSet(
                auto_rules=(AutoRuleSpec(id="t", expr="result.search_1.top_title ?? \"x\""),),
                recovery_rules=(RecoverySpec(error_class="timeout", modifier="set limit = 1"),),
                constraint_predicates=("env.flag == 1",),
            ),
            history=HistorySummary(prior_run_count=2, prior_failure_rate=0.25),
        )
        assert Metadata.from_dict(metadata.to_dict()) == metadata

    def test_param_markers_round_trip(self):
        step = WorkflowStep(tool_id="search", params={
            "a": AutoParam("rule"), "b": PlaceholderParam("result.x_1"), "c": 5, "d": "text",
        })
        assert WorkflowStep.from_dict(step.to_dict()) == step

    def test_profile_missing_workflow_rejected(self):
        with pytest.raises(ProfileFormatError, match="workflow"):
            Profile.from_dict({"confidence": 0.5})


class TestValidateMetadata:
    def test_duplicate_tool_id(self):
        metadata = Metadata(tool_catalog=(make_tool("search"), make_tool("search")))
        issues = validate_metadata(metadata).issues
        assert [i.kind for i in issues] == ["duplicate_tool_id"]

    def test_wellformed_two_tools_empty_rules(self):
        assert validate_metadata(make_metadata()).issues == ()

    def test_unparseable_constraint_predicate(self):
        # oracle: the DSL parser itself rejects this source
        with pytest.raises(ruledsl.DslParseError):
            ruledsl.parse_predicate("count === ")
        metadata = make_metadata(constraints=RuleSet(constraint_predicates=("count === ",)))
        issues = validate_metadata(metadata).issues
        assert [i.kind for i in issues] == ["bad_rule_syntax"]

    def test_unparseable_auto_and_recovery_rules(self):
        metadata = make_metadata(constraints=RuleSet(
            auto_rules=(AutoRuleSpec(id="bad", expr="?? 3"),),
            recovery_rules=(RecoverySpec(error_class="timeout", modifier="set = 5"),
                            RecoverySpec(error_class="bogus", modifier="set limit = 1")),
        ))
        kinds = sorted(i.kind for i in validate_metadata(metadata).issues)
        assert kinds == ["bad_error_class", "bad_rule_syntax", "bad_rule_syntax"]

    def test_require_valid_names_kind_and_detail_of_each_finding(self):
        metadata = make_metadata(
            tools=(make_tool("search"), make_tool("search")),
            constraints=RuleSet(recovery_rules=(RecoverySpec("bogus", "set query = 1"),)))
        report = validate_metadata(metadata)
        assert all(issue.step is None for issue in report.issues)
        with pytest.raises(ValueError) as exc_info:
            report.require_valid()
        assert str(exc_info.value) == (
            "metadata is invalid: [{'kind': 'duplicate_tool_id', 'detail': \"tool id 'search' "
            "registered twice\"}, {'kind': 'bad_error_class', 'detail': \"recovery rule 1: "
            "unknown error class 'bogus'\"}]")


    @pytest.mark.parametrize("number", ["1e400", "-1e400"])
    def test_param_that_overflows_to_infinity_is_refused(self, number):
        step = json.loads('{"tool_id": "search", "params": {"limit": %s}}' % number)
        with pytest.raises(ProfileFormatError, match="not a finite number"):
            WorkflowStep.from_dict(step)

    def test_finite_float_param_is_kept(self):
        step = WorkflowStep.from_dict({"tool_id": "search", "params": {"limit": 1e300}})
        assert step.params == {"limit": 1e300}


class TestAdmissibility:
    def test_unknown_tool_at_step_two(self):
        profile = profile_of(("search", {"query": "x"}), ("summarize", {"query": "y"}))
        report = check_admissibility(profile, make_metadata())
        assert not report.admissible
        assert any(v.step == 2 and v.kind == "unknown_tool" for v in report.violations)

    def test_all_literal_params_admissible(self):
        profile = profile_of(("search", {"query": "x", "limit": 3}), ("lookup", {"title": "T"}))
        report = check_admissibility(profile, make_metadata())
        assert report.admissible and report.violations == ()

    def test_truncated_branch_predicate(self):
        # oracle: DSL parser rejects the truncated source
        with pytest.raises(ruledsl.DslParseError):
            ruledsl.parse_predicate("result.s1.count <")
        from ptrun.core import BranchRule
        profile = Profile(
            workflow=Workflow(steps=(WorkflowStep(tool_id="search", params={"query": "x"}),)),
            branch_rules=(BranchRule(predicate="result.s1.count <",
                                     modifier="set limit = 1", target_step=1),),
        )
        report = check_admissibility(profile, make_metadata())
        assert any(v.kind == "unevaluable_branch_rule" for v in report.violations)

    def test_unknown_param_rejected_strict(self):
        profile = profile_of(("search", {"query": "x", "frobs": 1}))
        report = check_admissibility(profile, make_metadata())
        assert any(v.kind == "unknown_param" for v in report.violations)

    def test_missing_required_param(self):
        profile = profile_of(("search", {"limit": 3}))
        report = check_admissibility(profile, make_metadata())
        assert any(v.kind == "missing_required_param" for v in report.violations)

    def test_param_type_mismatch(self):
        profile = profile_of(("search", {"query": 42}))
        report = check_admissibility(profile, make_metadata())
        assert any(v.kind == "param_type_mismatch" for v in report.violations)

    def test_auto_on_non_auto_slot_rejected(self):
        tools = (make_tool("search", {"query": SlotSpec(type="string", auto_resolvable=False)}),)
        metadata = Metadata(tool_catalog=tools,
                            constraints=RuleSet(auto_rules=(AutoRuleSpec("r", "env.q ?? \"x\""),)))
        profile = profile_of(("search", {"query": AutoParam("r")}))
        report = check_admissibility(profile, metadata)
        assert any(v.kind == "auto_not_allowed" for v in report.violations)

    def test_unknown_auto_rule(self):
        profile = profile_of(("lookup", {"title": AutoParam("nope")}))
        report = check_admissibility(profile, make_metadata())
        assert any(v.kind == "unknown_auto_rule" for v in report.violations)

    def test_forward_placeholder_inadmissible(self):
        # references its own step's key
        profile = profile_of(("search", {"query": PlaceholderParam("result.search_1.top")}))
        report = check_admissibility(profile, make_metadata())
        assert any(v.kind == "forward_placeholder" for v in report.violations)

    def test_later_step_placeholder_inadmissible(self):
        profile = profile_of(
            ("lookup", {"title": PlaceholderParam("result.search_1.top_title")}),
            ("search", {"query": "x"}),
        )
        report = check_admissibility(profile, make_metadata())
        assert any(v.kind == "forward_placeholder" for v in report.violations)

    def test_placeholder_must_root_at_result(self):
        profile = profile_of(("search", {"query": "a"}),
                             ("lookup", {"title": PlaceholderParam("env.title")}))
        report = check_admissibility(profile, make_metadata())
        assert any(v.kind == "bad_placeholder" for v in report.violations)

    def test_earlier_placeholder_admissible(self):
        profile = profile_of(
            ("search", {"query": "x"}),
            ("lookup", {"title": PlaceholderParam("result.search_1.top_title")}),
        )
        assert check_admissibility(profile, make_metadata()).admissible

    def test_modifier_slot_must_exist_on_target_tool(self):
        from ptrun.core import BranchRule
        profile = Profile(
            workflow=Workflow(steps=(WorkflowStep(tool_id="search", params={"query": "x"}),)),
            branch_rules=(BranchRule(predicate="env.a == 1", modifier="set bogus = 1",
                                     target_step=1),),
        )
        report = check_admissibility(profile, make_metadata())
        assert any(v.kind == "bad_modifier_slot" for v in report.violations)

    def test_unparseable_replan_condition(self):
        profile = profile_of(("search", {"query": "x"}),
                             replan_conditions=("result.s1.count <",))
        report = check_admissibility(profile, make_metadata())
        assert any(v.kind == "unevaluable_replan_condition" for v in report.violations)

    def test_purity_repeated_calls_identical(self):
        profile = profile_of(("search", {"query": "x"}), ("summarize", {"q": "y"}))
        metadata = make_metadata()
        assert check_admissibility(profile, metadata) == check_admissibility(profile, metadata)


@st.composite
def admissible_profiles(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    steps = []
    for i in range(n):
        if i > 0 and draw(st.booleans()):
            steps.append(("lookup", {"title": PlaceholderParam(f"result.search_{i}.top")}))
        else:
            steps.append(("search", {"query": draw(st.text(min_size=1, max_size=5))}))
    return profile_of(*steps)


class TestCatalogMonotonicity:
    @given(admissible_profiles(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_admissible_under_superset(self, profile, extra):
        metadata = make_metadata()
        if not check_admissibility(profile, metadata).admissible:
            return  # placeholder indices may not line up; only admissible inputs matter
        extra_tools = tuple(make_tool(f"extra_{i}") for i in range(extra))
        wider = Metadata(schema=metadata.schema,
                         tool_catalog=metadata.tool_catalog + extra_tools,
                         constraints=metadata.constraints, history=metadata.history)
        assert check_admissibility(profile, wider).admissible

    def test_placeholder_order_violation_always_inadmissible(self):
        rng = random.Random(7)
        metadata = make_metadata()
        for _ in range(100):
            n = rng.randint(1, 5)
            target = rng.randint(1, n)  # key of step `target` referenced from step <= target
            steps = []
            for i in range(1, n + 1):
                if i == min(target, n):
                    steps.append(("lookup",
                                  {"title": PlaceholderParam(f"result.search_{target}.top")}))
                else:
                    steps.append(("search", {"query": "q"}))
            profile = profile_of(*steps)
            report = check_admissibility(profile, metadata)
            assert not report.admissible


def slice_rule_violations(profile: Profile) -> list:
    """Placeholder violations by the rule that scans the keys of the steps
    before each step; the reference for check_admissibility's key positions."""
    keys = store_keys(profile.workflow)
    out = []
    for index, step in enumerate(profile.workflow.steps, start=1):
        for value in step.params.values():
            parts = value.parts()
            if len(parts) < 2 or parts[0] != "result":
                out.append((index, "bad_placeholder"))
            elif parts[1] not in keys[: index - 1]:
                out.append((index, "forward_placeholder"))
    return out


@st.composite
def placeholder_workflows(draw):
    """Workflows whose every param is a placeholder naming a backward, own,
    forward or absent store key, or a malformed path."""
    tools = draw(st.lists(st.sampled_from(["search", "lookup"]), min_size=1, max_size=12))
    keys = store_keys(Workflow(steps=tuple(WorkflowStep(tool_id=t, params={}) for t in tools)))
    steps = []
    for tool in tools:
        key = draw(st.sampled_from(keys + ("search_0", "lookup_99")))
        path = draw(st.sampled_from([f"result.{key}.top", f"result.{key}", f"env.{key}",
                                     "result"]))
        steps.append((tool, {"query" if tool == "search" else "title": PlaceholderParam(path)}))
    return profile_of(*steps)


class TestForwardPlaceholder:
    @settings(max_examples=200, deadline=None)
    @given(profile=placeholder_workflows())
    def test_matches_the_slice_rule(self, profile):
        report = check_admissibility(profile, make_metadata())
        assert [(v.step, v.kind) for v in report.violations] == slice_rule_violations(profile)
