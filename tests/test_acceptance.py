"""Acceptance suite: one test per release criterion, each printing a PASS line
with the measured evidence. Tolerances are pinned here, not configured."""

import itertools
import json
import random
import time
from pathlib import Path

import pytest

from ptrun import ruledsl
from ptrun.bench import (load_scriptbook, load_suite, render_results, results_document,
                         run_bench, scripted_model_factory)
from ptrun.cli import bundled_data
from ptrun.metrics import BenchmarkItem, EvalResult, compare, exact_match, token_f1
from ptrun.pipeline import RunConfig, ToolEnvironment, replay_trace, run_ptr
from ptrun.router import RiskWeights, RouteMode, RouteThresholds, compute_risk, route
from ptrun.trace import read_trace, strip_volatile
from ptrun.verifier import (PenaltyCoefficients, TraceCounters, repair_indicator,
                            trust_score)

import helpers_dsl
from helpers_scenarios import build_model, make_scenario

BOUNDEDNESS_SCENARIOS = 1000
BOUNDEDNESS_BUDGET_S = 60.0
DETERMINISM_SCENARIOS = 100
RISK_TOLERANCE = 1e-9
F1_TOLERANCE = 1e-12
GOLDEN_RUN_BUDGET_S = 10.0
ROUND_TRIP_ASTS = 1000


def report_pass(criterion: int, detail: str) -> None:
    print(f"[PASS] criterion {criterion}: {detail}")


def tool_calls_in_trace(records: list[dict]) -> int:
    return sum(len(r["event"]["attempts"]) for r in records if r["type"] == "step")


def test_criterion_1_boundedness():
    rng = random.Random(1001)
    started = time.perf_counter()
    repairs = 0
    for _ in range(BOUNDEDNESS_SCENARIOS):
        scenario = make_scenario(rng)
        report = run_ptr(scenario["task"], scenario["metadata"], scenario["cfg"],
                         build_model(scenario), scenario["environment"])
        assert report.outcome == "ok"
        assert report.model_calls in (2, 3), \
            f"model calls {report.model_calls} outside {{2,3}}"
        assert report.model_calls == (3 if report.repaired else 2)
        assert report.model_calls == 2 + int(report.ledger["stage_counts"].get("repair", 0))
        repairs += int(report.repaired)
    elapsed = time.perf_counter() - started
    assert elapsed <= BOUNDEDNESS_BUDGET_S, f"fuzz took {elapsed:.1f}s"
    report_pass(1, f"{BOUNDEDNESS_SCENARIOS} scenarios, model calls always in {{2,3}}, "
                   f"{repairs} repaired, {elapsed:.1f}s")


def test_criterion_1_tool_call_bound(tmp_path):
    rng = random.Random(1002)
    checked = 0
    for i in range(250):
        scenario = make_scenario(rng)
        path = str(tmp_path / f"b{i}.jsonl")
        report = run_ptr(scenario["task"], scenario["metadata"], scenario["cfg"],
                         build_model(scenario), scenario["environment"], trace_path=path)
        records = read_trace(path)
        repair_records = [r for r in records if r["type"] == "repair"]
        assert len(repair_records) <= 1, "a trace may contain at most one repair record"
        repaired_length = 0
        if repair_records and repair_records[0]["accepted"]:
            reply = next(r["response_text"] for r in records
                         if r["type"] == "model_call" and r["role"] == "repair")
            repaired_length = len(json.loads(reply)["workflow"]["steps"])
        bound = (scenario["length"] + repaired_length) * (1 + scenario["cfg"].recovery_retries)
        calls = tool_calls_in_trace(records)
        assert calls <= bound, f"{calls} tool calls exceed bound {bound}"
        assert report.outcome == "ok"
        checked += 1
    report_pass(1, f"tool calls within (L + L_rep)(1 + N_rec) on {checked} traced scenarios; "
                   "no trace carries two repair records")


def test_criterion_2_determinism(tmp_path):
    rng = random.Random(2001)
    for i in range(DETERMINISM_SCENARIOS):
        scenario = make_scenario(rng)
        path_a = str(tmp_path / f"a{i}.jsonl")
        path_b = str(tmp_path / f"b{i}.jsonl")
        run_ptr(scenario["task"], scenario["metadata"], scenario["cfg"],
                build_model(scenario), scenario["environment"], trace_path=path_a)
        run_ptr(scenario["task"], scenario["metadata"], scenario["cfg"],
                build_model(scenario), scenario["environment"], trace_path=path_b)
        records_a = read_trace(path_a)
        records_b = read_trace(path_b)
        assert strip_volatile(records_a) == strip_volatile(records_b), \
            f"scenario {i}: independent executions diverged"
        for path in (path_a, path_b):
            replay = replay_trace(path)
            assert replay.matched, f"scenario {i}: replay diverged: {replay.divergence}"
    report_pass(2, f"{DETERMINISM_SCENARIOS} scenarios: double runs structurally identical, "
                   "every trace replay-verified")


def test_criterion_3_risk_algebra():
    rng = random.Random(3001)
    weight_sets = [
        RiskWeights(),
        RiskWeights(schema=0.3, planning=0.25, method=0.2, scale=0.15, history=0.1),
        RiskWeights(schema=0.05, planning=0.05, method=0.05, scale=0.05, history=0.8),
    ]
    cases = 0
    for weights in weight_sets:
        for _ in range(700):
            components = [rng.random() for _ in range(5)]
            index = rng.randrange(5)
            perturbed = list(components)
            perturbed[index] = rng.random()
            delta_c = perturbed[index] - components[index]
            delta_r = (compute_risk(tuple(perturbed), weights)
                       - compute_risk(tuple(components), weights))
            expected = weights.as_tuple()[index] * delta_c
            assert abs(delta_r - expected) <= RISK_TOLERANCE
            cases += 1

    thresholds = RouteThresholds(lower=0.35, upper=0.70)
    assert route(0.35, thresholds) == RouteMode.GUARDED
    assert route(0.70, thresholds) == RouteMode.REPAIR_ELIGIBLE
    assert route(0.35 - 1e-12, thresholds) == RouteMode.PURE
    assert route(0.70 - 1e-12, thresholds) == RouteMode.GUARDED
    for _ in range(200):
        lower = rng.uniform(0.05, 0.6)
        upper = rng.uniform(lower + 0.01, 0.99)
        t = RouteThresholds(lower=lower, upper=upper)
        assert route(lower, t) == RouteMode.GUARDED
        assert route(upper, t) == RouteMode.REPAIR_ELIGIBLE
    report_pass(3, f"dR/dc_i = w_i within {RISK_TOLERANCE} on {cases} perturbations; "
                   "boundary inclusion exact at both thresholds")


def test_criterion_4_trust_monotonicity():
    coefficients = PenaltyCoefficients()
    checked = 0
    for vector in itertools.product(range(5), range(5), range(5), range(5), (0.0, 1.0)):
        def kappa(nf=vector[0], ne=vector[1], nt=vector[2], nb=vector[3], dd=vector[4]):
            return trust_score(TraceCounters(n_fail=nf, n_empty=ne, n_thin=nt,
                                             n_branch=nb, delta_diag=dd,
                                             hard_failure=False), coefficients)
        base = kappa()
        assert 0.0 <= base <= 1.0
        assert kappa(nf=vector[0] + 1) <= base
        assert kappa(ne=vector[1] + 1) <= base
        assert kappa(nt=vector[2] + 1) <= base
        assert kappa(nb=vector[3] + 1) <= base
        assert kappa(dd=1.0) <= base
        checked += 1
    zero = TraceCounters(n_fail=0, n_empty=0, n_thin=0, n_branch=0, delta_diag=0.0,
                         hard_failure=False)
    assert trust_score(zero, coefficients) == 1.0
    clamped = TraceCounters(n_fail=5, n_empty=0, n_thin=0, n_branch=0, delta_diag=0.0,
                            hard_failure=False)
    assert trust_score(clamped, coefficients) == 0.0
    report_pass(4, f"monotone non-increase over all {checked} counter vectors; "
                   "trust 1 at zero vector; clamp at 0 verified (n_fail=5)")


def test_criterion_5_repair_gating():
    coefficients = PenaltyCoefficients()
    # kappa = 1 - 0.25*2 - 0.10*1 = 0.40 < 0.60 -> repair
    low = trust_score(TraceCounters(n_fail=2, n_empty=1, n_thin=0, n_branch=0,
                                    delta_diag=0.0, hard_failure=False), coefficients)
    assert low == pytest.approx(0.40, abs=1e-12)
    assert repair_indicator(low, False, 0.60) is True
    # kappa = 1 - 0.05 = 0.95 >= 0.60 but a hard failure forces the indicator
    high = trust_score(TraceCounters(n_fail=0, n_empty=0, n_thin=1, n_branch=0,
                                     delta_diag=0.0, hard_failure=True), coefficients)
    assert high == pytest.approx(0.95, abs=1e-12)
    assert repair_indicator(high, True, 0.60) is True
    assert repair_indicator(high, False, 0.60) is False
    # clean run
    clean = trust_score(TraceCounters(0, 0, 0, 0, 0.0, False), coefficients)
    assert clean == 1.0
    assert repair_indicator(clean, False, 0.60) is False

    # end-to-end: the same gates drive the pipeline (see also criterion 1 for
    # the no-second-repair assertion over the fuzzed corpus)
    kb = ({"title": "Alan Turing", "body": "Alan Turing introduced the Turing machine.",
           "links": []},)
    from ptrun.bench import bench_metadata
    from ptrun.core import Task
    from ptrun.semantic import ScriptedModel
    failing = {"workflow": {"steps": [
        {"tool_id": "kb_lookup", "params": {"title": "Missing One"}},
        {"tool_id": "kb_lookup", "params": {"title": "Missing Two"}}]}}
    patch = {"workflow": {"steps": [
        {"tool_id": "kb_lookup", "params": {"title": "Alan Turing"}}]}}
    model = ScriptedModel([
        {"role": "profile", "text": json.dumps(failing)},
        {"role": "repair", "text": json.dumps(patch)},
        {"role": "reason", "text": "Alan Turing"},
    ])
    report = run_ptr(Task(objective="who?"), bench_metadata(), RunConfig(), model,
                     ToolEnvironment(articles=kb))
    assert report.repaired is True and report.model_calls == 3
    report_pass(5, "indicator fixtures exact (0.40 -> repair, 0.95+hard -> repair, "
                   "clean -> none); single-shot repair verified end to end")


def test_criterion_6_metrics_oracle():
    # the concrete anchor cases
    assert exact_match("18.0", BenchmarkItem(id="n", question="?", gold=("18",),
                                             answer_kind="numeric")) == 1
    nyc = BenchmarkItem(id="a", question="?", gold=("New York City", "NYC", "New York"),
                        answer_kind="free_text")
    assert exact_match("NYC", nyc) == 1
    assert token_f1("new york city", "york city") == pytest.approx(0.8, abs=F1_TOLERANCE)

    from test_metrics import oracle_exact_match, oracle_f1

    rng = random.Random(6001)
    vocab = ["new", "york", "city", "alan", "turing", "paris", "blue", "deep", "answer"]
    cases = 0
    for _ in range(200):
        aliases = tuple(" ".join(rng.choices(vocab, k=rng.randint(1, 4)))
                        for _ in range(rng.randint(1, 4)))
        style = rng.random()
        if style < 0.4:
            prediction = "The " + rng.choice(aliases) + rng.choice(["", ".", "!?"])
        elif style < 0.5:
            prediction = rng.choice(aliases).upper()
        else:
            prediction = " ".join(rng.choices(vocab, k=rng.randint(1, 6)))
        bench_item = BenchmarkItem(id="g", question="?", gold=aliases,
                                   answer_kind="free_text")
        assert exact_match(prediction, bench_item) == oracle_exact_match(prediction, aliases)
        for alias in aliases:
            assert token_f1(prediction, alias) == pytest.approx(
                oracle_f1(prediction, alias), abs=F1_TOLERANCE)
        cases += 1
    report_pass(6, f"EM/F1 agree with the brute-force oracle on {cases} generated cases; "
                   "18.0=18, NYC alias, and the 0.8 F1 case exact")


def test_criterion_7_comparison_arithmetic():
    def result(mean_em):
        return EvalResult(framework="x", per_item=[], mean_em=mean_em, mean_f1=None,
                          model_calls=0, input_tokens=0, output_tokens=0,
                          cost_micros=0, mean_latency_s=None)

    first = compare(result(0.660), result(0.160))
    assert first.delta_em == 0.500
    assert first.advantage == "ptr"
    second = compare(result(0.320), result(0.780))
    assert second.delta_em == -0.460
    assert second.advantage == "react"
    report_pass(7, "published EM pairs give delta_em +0.500/-0.460 exactly with "
                   "advantages ptr/react")


def test_criterion_8_golden_run():
    suite = load_suite(bundled_data("suite.json"))
    book = load_scriptbook(bundled_data("scripts.json"))
    cfg = RunConfig.from_dict(json.loads(Path(bundled_data("config.json")).read_text()))
    environment = ToolEnvironment.from_kb_path(bundled_data("kb.json"))

    started = time.perf_counter()
    outputs = []
    for _ in range(2):
        results = run_bench(suite, cfg, scripted_model_factory(book), environment,
                            scripted=True)
        outputs.append(render_results(results_document(suite, cfg, *results)))
    elapsed = time.perf_counter() - started
    assert outputs[0] == outputs[1], "results file must be byte-stable across runs"
    assert elapsed <= GOLDEN_RUN_BUDGET_S

    ptr_result, react_result, comparison = results
    assert all(entry["model_calls"] in (2, 3) for entry in ptr_result.per_item)
    assert all(entry["model_calls"] <= 8 for entry in react_result.per_item)
    assert ptr_result.mean_em == 1.0 and react_result.mean_em == 0.7  # frozen at first build
    report_pass(8, f"two bench passes byte-identical in {elapsed:.1f}s; per-item calls "
                   "bounded (PTR in {2,3}, baseline <= 8)")


def test_criterion_9_rule_dsl():
    corpus = json.loads((Path(__file__).parent / "data" / "dsl_corpus.json").read_text())
    assert len(corpus) >= 50
    parse = {"predicate": ruledsl.parse_predicate, "modifier": ruledsl.parse_modifier,
             "auto": ruledsl.parse_auto_expr}
    printer = {"predicate": ruledsl.predicate_to_source, "modifier": ruledsl.modifier_to_source,
               "auto": ruledsl.auto_expr_to_source}
    valid = invalid = 0
    for entry in corpus:
        if entry["ok"]:
            ast = parse[entry["kind"]](entry["source"])
            assert printer[entry["kind"]](ast) == entry["printed"]
            valid += 1
        else:
            with pytest.raises(ruledsl.DslParseError) as exc_info:
                parse[entry["kind"]](entry["source"])
            assert exc_info.value.offset == entry["error_offset"]
            invalid += 1

    rng = random.Random(9001)
    failures = 0
    for i in range(ROUND_TRIP_ASTS):
        kind = i % 3
        if kind == 0:
            ast = helpers_dsl.gen_predicate(rng)
            ok = ruledsl.parse_predicate(ruledsl.predicate_to_source(ast)) == ast
        elif kind == 1:
            ast = helpers_dsl.gen_modifier(rng)
            ok = ruledsl.parse_modifier(ruledsl.modifier_to_source(ast)) == ast
        else:
            ast = helpers_dsl.gen_auto(rng)
            ok = ruledsl.parse_auto_expr(ruledsl.auto_expr_to_source(ast)) == ast
        failures += 0 if ok else 1
    assert failures == 0
    report_pass(9, f"corpus of {valid + invalid} sources ({valid} valid / {invalid} "
                   f"invalid) golden-checked; {ROUND_TRIP_ASTS} round trips, 0 failures")
