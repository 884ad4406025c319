import itertools

import pytest
from hypothesis import given, settings, strategies as st

from ptrun.core import Metadata, Profile, RuleSet, Workflow, WorkflowStep
from ptrun.executor import ExecutionConfig, initial_state, run_workflow
from ptrun.router import RouteMode
from ptrun.ruledsl import parse_predicate
from ptrun.tools import KnowledgeBase, builtin_registry
from ptrun.verifier import (PenaltyCoefficients, TraceCounters, VerifyStatus,
                            extract_counters, repair_indicator, trust_score, verify)

KB = KnowledgeBase([
    {"title": "Paris", "body": "Paris is the capital of France and sits on the Seine.",
     "links": []},
    {"title": "Tiny", "body": "", "links": []},
])

METADATA = Metadata(schema={}, tool_catalog=tuple(builtin_registry(KB).specs()),
                    constraints=RuleSet())


def run_state(*steps, fault_scripts=None, mode=RouteMode.PURE):
    workflow = Workflow(steps=tuple(WorkflowStep(tool_id=t, params=p) for t, p in steps))
    state = initial_state()
    run_workflow(workflow, ExecutionConfig(mode=mode), builtin_registry(KB, fault_scripts), state)
    return Profile(workflow=workflow), state


def counters_of(**kwargs):
    base = dict(n_fail=0, n_empty=0, n_thin=0, n_branch=0, delta_diag=0.0, hard_failure=False)
    base.update(kwargs)
    return TraceCounters(**base)


class TestExtractCounters:
    def test_clean_run_all_zero(self):
        _, state = run_state(
            ("kb_lookup", {"title": "Paris"}),
            ("kb_search", {"query": "capital france", "limit": 2}),
            ("calc", {"expression": "40 + 2"}),
        )
        counters = extract_counters(state, thin_output_threshold=2)
        assert counters == counters_of()

    def test_soft_failure_and_branch_counted(self):
        from ptrun.core import BranchRule
        from ptrun.executor import compile_rules
        workflow = Workflow(steps=(
            WorkflowStep(tool_id="kb_lookup", params={"title": "Nowhere"}),
            WorkflowStep(tool_id="kb_search", params={"query": "paris", "limit": 1}),
        ))
        profile = Profile(workflow=workflow, branch_rules=(
            BranchRule(predicate="failed(kb_lookup_1)", modifier="set limit = 2",
                       target_step=2),))
        state = initial_state()
        run_workflow(workflow, ExecutionConfig(mode=RouteMode.GUARDED),
                     builtin_registry(KB), state, compile_rules(METADATA, profile))
        counters = extract_counters(state)
        assert counters.n_fail == 1
        assert counters.n_branch == 1
        assert counters.hard_failure is False

    def test_thin_output_counted(self):
        # calc success serializes to {"value": 42} -> 2 whitespace tokens < 5
        _, state = run_state(("calc", {"expression": "42"}))
        counters = extract_counters(state, thin_output_threshold=5)
        assert counters.n_thin == 1
        assert extract_counters(state, thin_output_threshold=2).n_thin == 0

    def test_empty_value_counted(self):
        # lookup of an article with empty body yields a dict, not empty; build
        # an empty store entry directly through a state
        _, state = run_state(("kb_lookup", {"title": "Paris"}))
        state.result_store["kb_lookup_1"] = []
        counters = extract_counters(state)
        assert counters.n_empty == 1

    def test_skipped_counts_as_fail(self):
        _, state = run_state(("kb_search", {"query": ""}),
                             ("kb_lookup", {"title": "Paris"}))
        counters = extract_counters(state)
        assert counters.n_fail == 2  # hard failure + skipped step
        assert counters.hard_failure is True

    def test_diagnostics_flag_contradiction(self):
        # delta_diag is set by a constraint predicate that is false over the
        # final state, and the counters name it by its 1-based index
        _, state = run_state(("kb_lookup", {"title": "Paris"}))
        holds, fails = parse_predicate("exists(result.kb_lookup_1)"), parse_predicate(
            "failed(kb_lookup_1)")
        counters = extract_counters(state, predicates=(holds, fails, holds))
        assert counters.delta_diag == 1.0
        assert counters.false_predicates == (2,)
        assert "false_predicates" not in counters.to_dict()
        assert extract_counters(state, predicates=(holds,)).delta_diag == 0.0
        assert extract_counters(state).delta_diag == 0.0

    def test_recomputable(self):
        _, state = run_state(("kb_lookup", {"title": "Nowhere"}))
        assert extract_counters(state) == extract_counters(state)


class TestTrustScore:
    def test_zero_counters_full_trust(self):
        assert trust_score(counters_of(), PenaltyCoefficients()) == 1.0

    def test_hand_computed_defaults(self):
        # 1 - 0.25*2 - 0.10*1 = 0.40
        kappa = trust_score(counters_of(n_fail=2, n_empty=1), PenaltyCoefficients())
        assert kappa == pytest.approx(0.40, abs=1e-12)

    def test_clamped_at_zero(self):
        assert trust_score(counters_of(n_fail=5), PenaltyCoefficients()) == 0.0

    def test_exhaustive_monotone_non_increase(self):
        coefficients = PenaltyCoefficients()
        values = range(0, 5)
        for vector in itertools.product(values, values, values, values, (0.0, 1.0)):
            base = trust_score(counters_of(
                n_fail=vector[0], n_empty=vector[1], n_thin=vector[2],
                n_branch=vector[3], delta_diag=vector[4]), coefficients)
            for field, bumped in (
                ("n_fail", vector[0] + 1), ("n_empty", vector[1] + 1),
                ("n_thin", vector[2] + 1), ("n_branch", vector[3] + 1),
                ("delta_diag", 1.0),
            ):
                kwargs = dict(n_fail=vector[0], n_empty=vector[1], n_thin=vector[2],
                              n_branch=vector[3], delta_diag=vector[4])
                kwargs[field] = bumped
                assert trust_score(counters_of(**kwargs), coefficients) <= base

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            PenaltyCoefficients(fail=-0.1)


class TestVerify:
    def test_clean_run_ok_no_repair(self):
        profile, state = run_state(("kb_lookup", {"title": "Paris"}))
        z = verify(state, METADATA, profile, PenaltyCoefficients(), 0.60,
                   thin_output_threshold=2)
        assert z.trust == 1.0
        assert z.status == VerifyStatus.OK
        assert z.issues == () and z.flags == ()
        assert z.repair_recommended is False

    def test_low_trust_triggers_repair(self):
        profile, state = run_state(("kb_lookup", {"title": "Nowhere"}),
                                   ("kb_lookup", {"title": "Missing"}))
        state.result_store["padding"] = []  # not counted: no trace success event
        z = verify(state, METADATA, profile, PenaltyCoefficients(), 0.60)
        assert z.trust == pytest.approx(0.50, abs=1e-12)
        assert z.repair_recommended is True
        assert z.status == VerifyStatus.FAILED

    def test_hard_failure_forces_repair_despite_high_trust(self):
        profile, state = run_state(("kb_search", {"query": ""}))
        z = verify(state, METADATA, profile, PenaltyCoefficients(fail=0.05), 0.60)
        assert z.trust >= 0.60
        assert z.repair_recommended is True
        assert z.status == VerifyStatus.DEGRADED
        assert any(issue.kind == "hard_failure" for issue in z.issues)

    def test_every_nonzero_counter_contributes_issue_and_flag(self):
        profile, state = run_state(("kb_lookup", {"title": "Nowhere"}),
                                   ("calc", {"expression": "1"}))
        z = verify(state, METADATA, profile, PenaltyCoefficients(), 0.01,
                   thin_output_threshold=5)
        kinds = {issue.kind for issue in z.issues}
        assert {"failed_steps", "thin_outputs"} <= kinds
        assert len(z.flags) == len(z.issues)

    def test_repair_eligible_route_surfaces_issue(self):
        profile, state = run_state(("kb_lookup", {"title": "Paris"}))
        z = verify(state, METADATA, profile, PenaltyCoefficients(), 0.60,
                   thin_output_threshold=2, route_mode=RouteMode.REPAIR_ELIGIBLE)
        assert any(issue.kind == "repair_eligible_route" for issue in z.issues)
        assert z.status == VerifyStatus.DEGRADED
        assert z.repair_recommended is False  # the marker lowers no thresholds

    def test_indicator_formula_fixture_095_with_hard_failure(self):
        # kappa = 1 - 0.05*1 = 0.95 yet a hard failure forces the indicator
        counters = counters_of(n_thin=1, hard_failure=True)
        kappa = trust_score(counters, PenaltyCoefficients())
        assert kappa == pytest.approx(0.95, abs=1e-12)
        assert repair_indicator(kappa, True, 0.60) is True
        assert repair_indicator(kappa, False, 0.60) is False

    @given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
           st.booleans(), st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=300, deadline=None)
    def test_indicator_definition_fuzzed(self, nf, ne, nt, nb, hard, threshold):
        counters = counters_of(n_fail=nf, n_empty=ne, n_thin=nt, n_branch=nb,
                               hard_failure=hard)
        kappa = trust_score(counters, PenaltyCoefficients())
        assert repair_indicator(kappa, hard, threshold) == (kappa < threshold or hard)

    def test_determinism(self):
        profile, state = run_state(("kb_lookup", {"title": "Nowhere"}))
        first = verify(state, METADATA, profile, PenaltyCoefficients(), 0.6)
        second = verify(state, METADATA, profile, PenaltyCoefficients(), 0.6)
        assert first == second
