"""Minimal reactive baseline: thought-action-observation iterations over the
same tool registry and model interface as the bounded pipeline.

One model call per iteration, capped at eight. Actions are parsed from lines
of the form ``Action: tool[args]`` or ``Action: finish[answer]``; an
unparseable action consumes the iteration and feeds a format-error
observation back to the model.
"""

from __future__ import annotations

import re
import time

from .core import Metadata, Task
from .pipeline import RunConfig, RunReport, ToolEnvironment
from .semantic import BudgetExceededError, BudgetLedger, ModelRequest
from .tools import ToolRegistry

MAX_ITERATIONS = 8

_ACTION_RE = re.compile(r"Action\s*:\s*([A-Za-z_]\w*)\[(.*)\]\s*$")

FORMAT_ERROR_OBSERVATION = (
    "could not parse an action; reply with Action: tool[args] or Action: finish[answer]")


def parse_action(text: str) -> tuple[str, str] | None:
    """Last well-formed action line in the response, or None."""
    action = None
    for line in text.splitlines():
        match = _ACTION_RE.match(line.strip())
        if match:
            action = (match.group(1), match.group(2))
    return action


def _primary_slot(registry: ToolRegistry, tool_id: str) -> str | None:
    spec = registry.spec(tool_id)
    for name, slot in spec.param_schema.items():
        if slot.required:
            return name
    return next(iter(spec.param_schema), None)


def build_react_prompt(task: Task, metadata: Metadata, transcript: list[str]) -> str:
    tools = ", ".join(f"{spec.id}[{'|'.join(spec.param_schema)}]" for spec in metadata.tool_catalog)
    parts = [
        "Answer the question by interleaving Thought, Action and Observation steps.",
        f"Available actions: {tools}, finish[answer].",
        "Each reply must contain exactly one line of the form Action: tool[args]",
        "or Action: finish[answer] once you know the answer.",
        "",
        f"Question: {task.objective}",
    ]
    parts.extend(transcript)
    return "\n".join(parts)


def run_react_baseline(task: Task, metadata: Metadata, cfg: RunConfig, model,
                       environment: ToolEnvironment) -> RunReport:
    """Run the reactive loop; stops at finish or at the iteration cap (then the
    last response text stands as the best-effort answer). A model that raises
    ends the run as ``model_error``, one over budget as ``budget_exceeded``."""
    import json

    registry = environment.build_registry()
    ledger = BudgetLedger(limit_micros=cfg.budget_micros)
    transcript: list[str] = []
    answer: str | None = None
    last_text = ""
    started = time.perf_counter()

    def report(outcome: str, answer: str | None) -> RunReport:
        return RunReport(
            outcome=outcome, answer=answer, trace_path=None, verification=None,
            ledger=ledger.summary(), route=None, repaired=False,
            timing={"react": time.perf_counter() - started},
            model_calls=sum(ledger.stage_counts.values()),
            raw_model_calls=len(ledger.entries),
        )

    for _ in range(MAX_ITERATIONS):
        prompt = build_react_prompt(task, metadata, transcript)
        request = ModelRequest(role="react", prompt=prompt, temperature=0.0, seed=cfg.seed)
        ledger.count_stage("react")
        try:
            response = model.complete(request)
        except Exception:  # a raising model ends the run, as it ends run_ptr
            return report("model_error", None)
        try:
            ledger.record_and_check("react", response)
        except BudgetExceededError:
            return report("budget_exceeded", None)
        last_text = response.text
        transcript.append(response.text)
        action = parse_action(response.text)
        if action is None:
            transcript.append(f"Observation: {FORMAT_ERROR_OBSERVATION}")
            continue
        name, arg = action
        if name == "finish":
            answer = arg
            break
        if not registry.has(name):
            transcript.append(f"Observation: ERROR(not_found): no tool named {name!r}")
            continue
        slot = _primary_slot(registry, name)
        params = {slot: arg} if slot else {}
        outcome = registry.invoke(name, params, None)
        if outcome.ok:
            observation = json.dumps(outcome.value, sort_keys=True)
        else:
            observation = f"ERROR({outcome.error_class}): {outcome.message}"
        transcript.append(f"Observation: {observation}")

    return report("ok", last_text if answer is None else answer)
