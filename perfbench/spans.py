"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: each public function below is
replaced, at the name its caller looks it up by, with a wrapper that records
(name, start, end, parent, run id, observed value). Spans stay in memory and
are written once the measured phase ends. A run id groups the spans of one
public API call (the root span).

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Root span name -> scope the per-layer metrics are normalised by.
ROOT_SCOPES = {"pipeline.run_ptr": "run", "pipeline.replay_trace": "replay",
               "react.run": "react"}


def _tool_span(args) -> str:
    return "invoke." + str(args[1])


def _utf8_len(text) -> int:
    return len(text.encode("utf-8"))


def _patch_table():
    """(owner, attribute, span name, observe, reentrant) for every wrapped
    function. The owner is the module or class the caller looks it up on."""
    modules = sys.modules
    pipeline, ruledsl = modules["ptrun.pipeline"], modules["ptrun.ruledsl"]
    executor, semantic = modules["ptrun.executor"], modules["ptrun.semantic"]
    tools, trace = modules["ptrun.tools"], modules["ptrun.trace"]
    verifier, react = modules["ptrun.verifier"], modules["ptrun.react"]

    table = [
        (pipeline, "run_ptr", "pipeline.run_ptr", lambda r: int(r.model_calls == 3), True),
        (pipeline, "replay_trace", "pipeline.replay_trace", None, True),
        (react, "run_react_baseline", "react.run", None, True),
        (pipeline, "validate_metadata", "core.validate_metadata", None, True),
        (pipeline, "check_admissibility", "core.check_admissibility", None, True),
        (pipeline, "decide_route", "router.decide_route", None, True),
        (pipeline, "compile_rules", "executor.compile_rules", None, True),
        (pipeline, "run_workflow", "executor.run_workflow", lambda s: len(s.trace), True),
        (executor.ExecutionState, "resolve_path", "executor.resolve_path", None, True),
        (ruledsl, "eval_predicate", "ruledsl.eval_predicate", None, False),
        (tools.ToolRegistry, "invoke", _tool_span, lambda o: int(o.ok), True),
        (pipeline.ToolEnvironment, "build_registry", "tools.registry_build", None, True),
        (pipeline.ToolEnvironment, "describe", "trace.env_describe", None, True),
        (trace.TraceWriter, "write", "trace.write", None, True),
        (pipeline, "read_trace", "trace.read", None, True),
        (pipeline, "structurally_equal", "trace.compare", None, True),
        (pipeline, "verify", "verifier.verify", None, True),
        (pipeline, "extract_counters", "verifier.extract_counters", None, True),
        (verifier, "extract_counters", "verifier.extract_counters", None, True),
        (pipeline, "parse_profile_response", "semantic.parse_profile", None, True),
        (semantic.ScriptedModel, "complete", "semantic.model_complete", None, True),
    ]
    for name in ("parse_predicate", "parse_modifier", "parse_auto_expr", "parse_arith"):
        table.append((ruledsl, name, "ruledsl.parse", None, True))
    for name in ("build_profile_prompt", "build_profile_retry_prompt",
                 "build_repair_prompt", "build_reason_prompt"):
        table.append((pipeline, name, "semantic.prompt_build", _utf8_len, True))
    return table


class SpanRecorder:
    """Wraps the public functions of each ptrun module and records spans."""

    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, run id, observed value)
        self.spans: list[tuple] = []
        self._stack: list[tuple[int, str]] = []  # (index, name) of open spans
        self._run = 0
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, observe, reentrant):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            if not reentrant and stack and stack[-1][1] == span_name:
                return fn(*args, **kwargs)
            if not stack:
                self._run += 1
            run, parent, index = self._run, stack[-1][0] if stack else -1, len(spans)
            spans.append(None)
            stack.append((index, span_name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (span_name, start, clock(), parent, run, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            # Finished spans are tuples of atoms, which the cyclic garbage
            # collector stops tracking; lists would make every collection walk
            # all recorded spans.
            spans[index] = (span_name, start, end, parent, run,
                            None if observe is None else observe(result))
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, name, observe, reentrant in _patch_table():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, observe, reentrant))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path, environment: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"environment": environment,
                                 "fields": ["name", "start_ns", "end_ns", "parent",
                                            "run", "value"]}) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


class _Totals:
    __slots__ = ("count", "ns", "self_ns", "value")

    def __init__(self):
        self.count = self.ns = self.self_ns = self.value = 0


def aggregate(spans: list[tuple]) -> tuple[dict, dict]:
    """Totals per (scope, span name), plus the number of roots per scope.
    Scope "any" counts a span whatever its root is."""
    child_ns = [0] * len(spans)
    for record in spans:
        if record[3] >= 0:
            child_ns[record[3]] += record[2] - record[1]
    root_scope = {record[4]: ROOT_SCOPES[record[0]] for record in spans if record[3] < 0}
    roots: dict[str, int] = defaultdict(int)
    totals: dict[tuple[str, str], _Totals] = defaultdict(_Totals)
    for i, (name, start, end, parent, run, value) in enumerate(spans):
        scope = root_scope[run]
        if parent < 0:
            roots[scope] += 1
        for key in ((scope, name), ("any", name)):
            t = totals[key]
            t.count += 1
            t.ns += end - start
            t.self_ns += end - start - child_ns[i]
            t.value += value or 0
    return totals, roots


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics from the recorded spans. Unless the name says
    otherwise a value is per run_ptr call and counts only spans under it;
    ``*_per_call`` values average over every call wherever it was made."""
    totals, roots = aggregate(spans)
    runs = roots.get("run", 0)

    def t(name: str, scope: str = "run") -> _Totals:
        return totals.get((scope, name)) or _Totals()

    def per_root(name: str, field: str, scope: str = "run") -> float:
        """Total of `field` over the named spans in `scope`, per root call."""
        value = getattr(t(name, scope), field)
        if field.endswith("ns"):
            value /= 1000.0
        return _per(value, roots.get(scope, 0))

    def us_per_call(name: str) -> float:
        return _per(t(name, "any").ns / 1000.0, t(name, "any").count)

    invokes = [v for (scope, name), v in totals.items()
               if scope == "run" and name.startswith("invoke.")]
    attempts = sum(v.count for v in invokes)
    return {
        "tools.kb_search.calls": per_root("invoke.kb_search", "count"),
        "tools.kb_search.us_per_call": us_per_call("invoke.kb_search"),
        "tools.kb_lookup.us_per_call": us_per_call("invoke.kb_lookup"),
        "tools.calc.us_per_call": us_per_call("invoke.calc"),
        "tools.registry_build.us": per_root("tools.registry_build", "ns"),
        "tools.registry_build.replay_us": per_root("tools.registry_build", "ns", "replay"),
        "tools.attempts": _per(attempts, runs),
        "tools.ok_ratio": _per(sum(v.value for v in invokes), attempts),
        "trace.records": per_root("trace.write", "count"),
        "trace.write.us": per_root("trace.write", "ns"),
        "trace.env_describe.us": per_root("trace.env_describe", "ns"),
        "trace.read.us": per_root("trace.read", "ns", "replay"),
        "trace.compare.us": per_root("trace.compare", "ns", "replay"),
        "executor.steps": per_root("executor.run_workflow", "value"),
        "executor.compile_rules.us": per_root("executor.compile_rules", "ns"),
        "executor.run_workflow.self_us": per_root("executor.run_workflow", "self_ns"),
        "executor.run_workflow.replay_us": per_root("executor.run_workflow", "ns", "replay"),
        "executor.resolve_path.calls": per_root("executor.resolve_path", "count"),
        "executor.resolve_path.us": per_root("executor.resolve_path", "ns"),
        "ruledsl.parse.calls": per_root("ruledsl.parse", "count"),
        "ruledsl.parse.us": per_root("ruledsl.parse", "ns"),
        "ruledsl.eval_predicate.calls": per_root("ruledsl.eval_predicate", "count"),
        "ruledsl.eval_predicate.us": per_root("ruledsl.eval_predicate", "ns"),
        "core.validate_metadata.us": per_root("core.validate_metadata", "ns"),
        "core.check_admissibility.calls": per_root("core.check_admissibility", "count"),
        "core.check_admissibility.us": per_root("core.check_admissibility", "ns"),
        "verifier.verify.us": per_root("verifier.verify", "ns"),
        "verifier.extract_counters.calls": per_root("verifier.extract_counters", "count"),
        "verifier.extract_counters.us": per_root("verifier.extract_counters", "ns"),
        "semantic.model_calls": per_root("semantic.model_complete", "count"),
        "semantic.prompt_build.us": per_root("semantic.prompt_build", "ns"),
        "semantic.prompt_bytes": per_root("semantic.prompt_build", "value"),
        "semantic.parse_profile.us": per_root("semantic.parse_profile", "ns"),
        "semantic.model_complete.us": per_root("semantic.model_complete", "ns"),
        "router.decide_route.us": per_root("router.decide_route", "ns"),
        "react.run.self_us": per_root("react.run", "self_ns", "react"),
        "react.iterations": per_root("semantic.model_complete", "count", "react"),
        "pipeline.run_ptr.self_us": per_root("pipeline.run_ptr", "self_ns"),
        "pipeline.replay_trace.self_us": per_root("pipeline.replay_trace", "self_ns", "replay"),
        "pipeline.repair_share": per_root("pipeline.run_ptr", "value"),
    }
