"""Desk-scale benchmark harness: run both frameworks over a suite with
scripted (or provider) models and emit a results file plus a comparison table.

Items are evaluated independently and aggregated in item order, so the
results file is byte-stable across runs when the models are scripted;
scripted wall-clock latency is recorded as null because it carries no signal.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from .core import Metadata, RuleSet, Task
from .metrics import BenchmarkItem, Comparison, EvalResult, compare, exact_match, item_f1
from .pipeline import RunConfig, ToolEnvironment, run_ptr
from .react import run_react_baseline
from .semantic import ScriptedModel
from .tools import CALC_SPEC, KB_LOOKUP_SPEC, KB_SEARCH_SPEC
from .trace import load_json


class EmptySuiteError(ValueError):
    pass


@dataclass(frozen=True)
class Suite:
    name: str
    answer_kind: str
    items: tuple[BenchmarkItem, ...]

    @classmethod
    def from_dict(cls, data: dict, default_name: str) -> "Suite":
        if not isinstance(data, dict):
            raise ValueError("suite must be a JSON object")
        items_raw = data.get("items", [])
        if not items_raw:
            raise EmptySuiteError(f"suite {data.get('name', default_name)!r} has no items")
        kind = data["answer_kind"]
        items = []
        for entry in items_raw:
            item_id, question, gold = str(entry["id"]), entry["question"], entry["gold"]
            if not isinstance(question, str) or not question.strip():
                raise ValueError(f"item {item_id}: question must be a non-blank string")
            if not (isinstance(gold, list) and gold and all(isinstance(g, str) for g in gold)):
                raise ValueError(f"item {item_id}: gold must be a non-empty list of strings")
            items.append(BenchmarkItem(id=item_id, question=question, gold=tuple(gold),
                                       answer_kind=kind))
        return cls(name=data.get("name", default_name), answer_kind=kind, items=tuple(items))


def load_suite(path: str | Path) -> Suite:
    return Suite.from_dict(load_json(path), str(path))


def load_scriptbook(path: str | Path) -> dict:
    """Per-item model scripts: {item_id: {"ptr": [...], "react": [...]}}."""
    return load_json(path)


def bench_metadata() -> Metadata:
    return Metadata(schema={}, tool_catalog=(KB_SEARCH_SPEC, KB_LOOKUP_SPEC, CALC_SPEC),
                    constraints=RuleSet(), history=None)


def scripted_model_factory(scriptbook: dict):
    """The bench's model factory over a scriptbook. ValueError unless the
    book maps item ids to objects of framework scripts ScriptedModel
    accepts; a missing item or framework is a KeyError when asked for."""
    if not isinstance(scriptbook, dict):
        raise ValueError("scriptbook must be an object of per-item scripts")
    for item_id, scripts in scriptbook.items():
        if not isinstance(scripts, dict):
            raise ValueError(f"scriptbook item {item_id!r} must be an object of framework scripts")
        for framework, entries in scripts.items():
            try:
                ScriptedModel(entries)
            except ValueError as exc:
                raise ValueError(f"scriptbook item {item_id!r}, {framework} script: {exc}") from None

    def factory(framework: str, item_id: str):
        try:
            entries = scriptbook[item_id][framework]
        except KeyError:
            raise KeyError(f"scriptbook has no {framework!r} script for item {item_id!r}") from None
        return ScriptedModel(entries)

    return factory


def _evaluate_framework(framework: str, suite: Suite, cfg: RunConfig, model_factory,
                        environment: ToolEnvironment, metadata: Metadata,
                        scripted: bool) -> EvalResult:
    per_item = []
    latencies = []
    total_calls = total_in = total_out = total_cost = 0
    for item in suite.items:
        task = Task(objective=item.question)
        answer = None
        reason = None
        report = None
        started = time.perf_counter()
        try:
            model = model_factory(framework, item.id)
            if framework == "ptr":
                report = run_ptr(task, metadata, cfg, model, environment)
            else:
                report = run_react_baseline(task, metadata, cfg, model, environment)
            if report.outcome == "ok":
                answer = report.answer
            else:
                reason = report.outcome
        except Exception as exc:  # per-item failures score 0 with a reason
            reason = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - started)
        if report is not None:
            total_calls += report.model_calls
            total_in += report.ledger.get("input_tokens", 0)
            total_out += report.ledger.get("output_tokens", 0)
            total_cost += report.ledger.get("total_micros", 0)
        em = exact_match(answer, item) if answer is not None else 0
        f1 = item_f1(answer, item) if answer is not None else 0.0
        per_item.append({
            "id": item.id,
            "em": em,
            "f1": f1 if suite.answer_kind == "free_text" else None,
            "answer": answer,
            "model_calls": report.model_calls if report else 0,
            "reason": reason,
        })
    n = len(suite.items)
    mean_f1 = None
    if suite.answer_kind == "free_text":
        mean_f1 = sum(entry["f1"] for entry in per_item) / n
    return EvalResult(
        framework=framework,
        per_item=per_item,
        mean_em=sum(entry["em"] for entry in per_item) / n,
        mean_f1=mean_f1,
        model_calls=total_calls,
        input_tokens=total_in,
        output_tokens=total_out,
        cost_micros=total_cost,
        mean_latency_s=None if scripted else sum(latencies) / n,
    )


def run_bench(suite: Suite, cfg: RunConfig, model_factory, environment: ToolEnvironment,
              scripted: bool = True) -> tuple[EvalResult, EvalResult, Comparison]:
    metadata = bench_metadata()
    ptr_result = _evaluate_framework("ptr", suite, cfg, model_factory, environment,
                                     metadata, scripted)
    react_result = _evaluate_framework("react", suite, cfg, model_factory, environment,
                                       metadata, scripted)
    return ptr_result, react_result, compare(ptr_result, react_result)


def results_document(suite: Suite, cfg: RunConfig, ptr_result: EvalResult,
                     react_result: EvalResult, comparison: Comparison) -> dict:
    return {
        "suite": suite.name,
        "answer_kind": suite.answer_kind,
        "items": len(suite.items),
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "frameworks": {"ptr": ptr_result.to_dict(), "react": react_result.to_dict()},
        "comparison": comparison.to_dict(),
    }


def render_results(document: dict) -> str:
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


def write_results(document: dict, path: str | Path) -> None:
    Path(path).write_text(render_results(document), encoding="utf-8")


def _fmt(value, spec=".3f") -> str:
    return "n/a" if value is None else format(value, spec)


def format_table(document: dict) -> str:
    ptr = document["frameworks"]["ptr"]
    react = document["frameworks"]["react"]
    comparison = document["comparison"]
    lines = [
        f"suite: {document['suite']}  ({document['items']} items, kind {document['answer_kind']})",
        "framework  EM      F1      calls  tokens(in/out)   cost($)   latency(s)",
    ]
    for result in (ptr, react):
        cost = result["cost_micros"] / 1_000_000
        lines.append(
            f"{result['framework']:<9}  {_fmt(result['mean_em'])}  {_fmt(result['mean_f1'])}"
            f"  {result['model_calls']:<5}  {result['input_tokens']}/{result['output_tokens']:<10}"
            f"  {cost:.6f}  {_fmt(result['mean_latency_s'])}")
    lines.append(
        f"delta_em: {comparison['delta_em']:+.3f}   "
        f"cost_ratio: {_fmt(comparison['cost_ratio'])}   "
        f"advantage: {comparison['advantage']}")
    return "\n".join(lines)
