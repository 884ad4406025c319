import json
from pathlib import Path

import pytest

from ptrun.bench import (EmptySuiteError, Suite, format_table, load_suite,
                         load_scriptbook, render_results, results_document, run_bench,
                         scripted_model_factory)
from ptrun.cli import bundled_data
from ptrun.metrics import BenchmarkItem
from ptrun.pipeline import RunConfig, ToolEnvironment

# The bundled suite's results file, frozen; `ptrun bench --out` writes these bytes.
GOLDEN_RESULTS = Path(__file__).parent / "golden" / "bench_results.json"


@pytest.fixture(scope="module")
def bundled():
    suite = load_suite(bundled_data("suite.json"))
    book = load_scriptbook(bundled_data("scripts.json"))
    cfg = RunConfig.from_dict(json.loads(bundled_data("config.json").read_text()))
    env = ToolEnvironment.from_kb_path(bundled_data("kb.json"))
    return suite, book, cfg, env


def run_bundled(bundled):
    suite, book, cfg, env = bundled
    return run_bench(suite, cfg, scripted_model_factory(book), env, scripted=True)


class TestBundledSuite:
    def test_expected_scores(self, bundled):
        # established at first build and frozen: PTR answers all ten items,
        # the baseline misses q03/q06/q09
        ptr, react, comparison = run_bundled(bundled)
        assert ptr.mean_em == 1.0
        assert react.mean_em == 0.7
        assert comparison.delta_em == 0.3
        assert comparison.advantage == "ptr"
        assert comparison.cost_ratio is None  # scripted runs cost zero

    def test_byte_stable_across_runs(self, bundled):
        suite, _, cfg, _ = bundled
        first = render_results(results_document(suite, cfg, *run_bundled(bundled)))
        second = render_results(results_document(suite, cfg, *run_bundled(bundled)))
        assert first == second

    def test_results_file_matches_golden(self, bundled):
        suite, _, cfg, _ = bundled
        rendered = render_results(results_document(suite, cfg, *run_bundled(bundled)))
        assert rendered == GOLDEN_RESULTS.read_text(encoding="utf-8")

    def test_call_bounds_per_item(self, bundled):
        ptr, react, _ = run_bundled(bundled)
        assert all(entry["model_calls"] in (2, 3) for entry in ptr.per_item)
        assert all(entry["model_calls"] <= 8 for entry in react.per_item)

    def test_repair_item_uses_three_calls(self, bundled):
        ptr, _, _ = run_bundled(bundled)
        by_id = {entry["id"]: entry for entry in ptr.per_item}
        assert by_id["q07"]["model_calls"] == 3
        assert sum(1 for e in ptr.per_item if e["model_calls"] == 3) == 1

    def test_cap_item_uses_eight_calls(self, bundled):
        _, react, _ = run_bundled(bundled)
        by_id = {entry["id"]: entry for entry in react.per_item}
        assert by_id["q10"]["model_calls"] == 8

    def test_free_text_f1_reported(self, bundled):
        ptr, react, _ = run_bundled(bundled)
        assert ptr.mean_f1 == 1.0
        assert react.mean_f1 is not None and 0.0 < react.mean_f1 < 1.0

    def test_latency_null_in_scripted_mode(self, bundled):
        ptr, react, _ = run_bundled(bundled)
        assert ptr.mean_latency_s is None and react.mean_latency_s is None

    def test_table_renders(self, bundled):
        suite, _, cfg, _ = bundled
        document = results_document(suite, cfg, *run_bundled(bundled))
        table = format_table(document)
        assert "ptr" in table and "react" in table and "advantage: ptr" in table


class TestSuiteLoading:
    def test_empty_suite_rejected(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"name": "empty", "answer_kind": "free_text", "items": []}))
        with pytest.raises(EmptySuiteError):
            load_suite(path)

    # Each file is valid but for one number where its reader ignores the value.
    @pytest.mark.parametrize("load, template", [
        (load_suite, '{"answer_kind": "free_text", "items": '
                     '[{"id": "q1", "question": "Who?", "gold": ["Ada"], "weight": %s}]}'),
        (load_scriptbook, '{"q1": {"ptr": [{"role": "reason", "text": "Ada", "p": %s}]}}'),
        (ToolEnvironment.from_kb_path, '[{"title": "Ada", "body": "", "rank": %s}]'),
    ], ids=["suite", "scriptbook", "kb"])
    @pytest.mark.parametrize("number", ["NaN", "1e400"])
    def test_file_loaders_refuse_non_finite_numbers(self, load, template, number, tmp_path):
        path = tmp_path / "input.json"
        path.write_text(template % number)
        with pytest.raises(ValueError, match=number):
            load(path)

    def test_kind_fixed_per_suite(self, bundled):
        suite = bundled[0]
        assert {item.answer_kind for item in suite.items} == {suite.answer_kind}

    def test_singleton_suite_means_equal_item(self, bundled):
        _, book, cfg, env = bundled
        suite = Suite(name="one", answer_kind="free_text",
                      items=(BenchmarkItem(id="q01", question="Who introduced the Turing machine?",
                                           gold=("Alan Turing",), answer_kind="free_text"),))
        ptr, react, _ = run_bench(suite, cfg, scripted_model_factory(book), env)
        assert ptr.mean_em == float(ptr.per_item[0]["em"]) == 1.0
        assert react.mean_em == float(react.per_item[0]["em"])

    def test_missing_script_recorded_as_item_failure(self, bundled):
        suite_full, book, cfg, env = bundled
        suite = Suite(name="x", answer_kind="free_text",
                      items=(BenchmarkItem(id="unknown_item", question="?",
                                           gold=("g",), answer_kind="free_text"),))
        ptr, _, _ = run_bench(suite, cfg, scripted_model_factory(book), env)
        entry = ptr.per_item[0]
        assert entry["em"] == 0
        assert entry["reason"] is not None

    def test_raising_model_is_model_error_for_both_frameworks(self, bundled):
        _, _, cfg, env = bundled
        suite = Suite(name="x", answer_kind="free_text",
                      items=(BenchmarkItem(id="q1", question="Who introduced the Turing machine?",
                                           gold=("Alan Turing",), answer_kind="free_text"),))
        # each framework's script runs out before its run can end
        book = {"q1": {"ptr": [], "react": [{"role": "react",
                                             "text": "Action: kb_search[turing]"}]}}
        ptr, react, _ = run_bench(suite, cfg, scripted_model_factory(book), env)
        for result in (ptr, react):
            assert result.per_item[0]["reason"] == "model_error"
            assert result.per_item[0]["em"] == 0
