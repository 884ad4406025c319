"""Deterministic workflow execution over the five-part state.

Each step runs the fixed sub-stage order resolve -> branch -> invoke ->
recover -> store, with at most ``recovery_retries`` deterministic retries per
step. Nothing here raises for execution failures: every failure is recorded
in the state, classified soft (execution continues with degraded evidence) or
hard (the workflow is structurally inexecutable and remaining steps are
skipped). No model call ever happens inside this module.

A run's parsed rules are one RuleBundle, which only ``compile_rules``
builds, once the metadata and the profile have passed their checks in
``core``. A step's attempts and tool outcomes, and a compiled branch rule,
are slotted, not frozen, as they are built on every step or rule; nothing
mutates them once built. A step event builds its trace record once, and the
trace writer and ``trace.N`` lookups read that same dict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import ruledsl
from .core import (ERROR_CLASSES, AutoParam, Metadata, PlaceholderParam, Profile, Workflow,
                   parse_rule, store_keys)
from .router import RouteMode
from .tools import ToolOutcome, ToolRegistry

# State roots that address an append-only log by 0-based entry index.
_LOG_ROOTS = {"trace": "trace", "failure": "failure_log", "branch": "branch_log"}


def _list_index(segment: str, length: int) -> int | None:
    """The index a path segment gives into a list of ``length`` entries, or
    None when it gives none. An index is ASCII digits only, as the rule
    grammar defines a digit. One with more significant digits than
    ``length`` has is out of range and is never converted, so its length
    does not matter."""
    if not (segment.isascii() and segment.isdigit()):
        return None
    digits = segment.lstrip("0") or "0"
    if len(digits) > len(str(length)):
        return None
    index = int(digits)
    return index if index < length else None


class _StepAbort(Exception):
    """Internal: step could not reach the invoke sub-stage."""

    def __init__(self, error_class: str, message: str):
        super().__init__(message)
        self.error_class = error_class
        self.message = message


@dataclass(slots=True)
class Attempt:
    params: dict
    outcome: ToolOutcome

    def to_dict(self) -> dict:
        return {"params": dict(self.params), "outcome": self.outcome.to_dict()}


@dataclass
class StepEvent:
    """Trace record for one workflow step, appended regardless of outcome.
    Nothing mutates an event or its record once it is built."""

    index: int
    tool_id: str
    key: str
    resolved_params: dict | None
    branched_params: dict | None  # only set when different from resolved
    attempts: list[Attempt]
    outcome: str  # success | failure | skipped
    error_class: str | None
    stored_key: str | None
    wall_time: float
    _record: dict | None = field(default=None, init=False, repr=False, compare=False)

    def to_dict(self) -> dict:
        """The step's record, built on the first call; every later call
        returns that same dict, which the trace writer and resolve_path
        share. Nothing mutates it."""
        if self._record is None:
            self._record = {
                "index": self.index,
                "tool_id": self.tool_id,
                "key": self.key,
                "resolved_params": self.resolved_params,
                "branched_params": self.branched_params,
                "attempts": [a.to_dict() for a in self.attempts],
                "outcome": self.outcome,
                "error_class": self.error_class,
                "stored_key": self.stored_key,
                "wall_time": self.wall_time,
            }
        return self._record


@dataclass
class BranchFiring:
    step: int
    rule_index: int
    before: dict
    after: dict

    def to_dict(self) -> dict:
        return {"step": self.step, "rule_index": self.rule_index,
                "before": dict(self.before), "after": dict(self.after)}


@dataclass
class FailureEntry:
    step: int
    error_class: str
    attempt: int
    classified: str  # soft | hard

    def to_dict(self) -> dict:
        return {"step": self.step, "error_class": self.error_class,
                "attempt": self.attempt, "classified": self.classified}


@dataclass
class ExecutionState:
    """Five-part run state: result store, trace, branch log, failure log, env.

    Owned by exactly one run at a time; the trace is append-only and stored
    values are never overwritten.
    """

    result_store: dict[str, object] = field(default_factory=dict)
    trace: list[StepEvent] = field(default_factory=list)
    branch_log: list[BranchFiring] = field(default_factory=list)
    failure_log: list[FailureEntry] = field(default_factory=list)
    env: dict = field(default_factory=dict)

    def store(self, key: str, value) -> None:
        if key in self.result_store:
            raise RuntimeError(f"result store key {key!r} would be overwritten")
        self.result_store[key] = value

    def step_failed(self, key: str) -> bool:
        return any(event.key == key and event.outcome == "failure" for event in self.trace)

    def resolve_path(self, parts: tuple[str, ...]) -> tuple[bool, object]:
        """Look a state path up in the value ``to_dict()`` would give.

        A ``trace``, ``failure`` or ``branch`` path indexes its log and
        reads only the addressed entry's record (a step event's is built
        once), so a lookup does not grow with the run; only a bare log root
        yields the whole log.
        """
        root, rest = parts[0], parts[1:]
        if root == "result":
            node: object = self.result_store
        elif root == "env":
            node = self.env
        elif root in _LOG_ROOTS:
            log = getattr(self, _LOG_ROOTS[root])
            if not rest:
                return (True, [entry.to_dict() for entry in log])
            index = _list_index(rest[0], len(log))
            if index is None:
                return (False, None)
            node, rest = log[index].to_dict(), rest[1:]
        else:
            return (False, None)
        for segment in rest:
            if isinstance(node, dict):
                if segment not in node:
                    return (False, None)
                node = node[segment]
            elif isinstance(node, (list, tuple)):
                index = _list_index(segment, len(node))
                if index is None:
                    return (False, None)
                node = node[index]
            else:
                return (False, None)
        return (True, node)

    def hard_failure(self) -> bool:
        return any(entry.classified == "hard" for entry in self.failure_log)

    def to_dict(self) -> dict:
        return {
            "result_store": dict(self.result_store),
            "trace": [event.to_dict() for event in self.trace],
            "branch_log": [entry.to_dict() for entry in self.branch_log],
            "failure_log": [entry.to_dict() for entry in self.failure_log],
            "env": dict(self.env),
        }


@dataclass(frozen=True)
class ExecutionConfig:
    recovery_retries: int = 2
    thin_output_threshold: int = 5
    mode: RouteMode = RouteMode.PURE

    def __post_init__(self):
        if self.recovery_retries < 0:
            raise ValueError("recovery_retries must be non-negative")


@dataclass(slots=True)
class CompiledBranchRule:
    rule_index: int  # position in the profile's branch_rules list
    predicate: ruledsl.PredicateAst
    modifier: ruledsl.ModifierAst
    target_step: int


@dataclass(frozen=True)
class RuleBundle:
    """Parsed rules a run executes with: auto, recovery, and branch rules,
    plus the constraint predicates its phases are verified against."""

    auto_rules: dict[str, ruledsl.AutoRule] = field(default_factory=dict)
    recovery_rules: tuple[tuple[str, ruledsl.ModifierAst], ...] = ()
    branch_rules: tuple[CompiledBranchRule, ...] = ()
    constraint_predicates: tuple[ruledsl.PredicateAst, ...] = ()
    _by_step: dict[int, tuple[CompiledBranchRule, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        for rule in self.branch_rules:
            self._by_step[rule.target_step] = self._by_step.get(rule.target_step, ()) + (rule,)

    def branch_rules_for(self, step_index: int) -> tuple[CompiledBranchRule, ...]:
        return self._by_step.get(step_index, ())

    def first_recovery_for(self, error_class: str) -> ruledsl.ModifierAst | None:
        for matcher, modifier in self.recovery_rules:
            if matcher == error_class or matcher == "any":
                return modifier
        return None


def compile_rules(metadata: Metadata, profile: Profile) -> RuleBundle:
    """The parsed rules of a metadata and a profile, every text read through
    the rule memo (``core.parse_rule``). Precondition: the metadata passed
    ``validate_metadata`` and the profile ``check_admissibility``, so each
    text parses and, while the memo holds it, is not parsed again here;
    otherwise a rule text's DslParseError propagates."""
    constraints = metadata.constraints
    return RuleBundle(
        auto_rules={rule.id: ruledsl.AutoRule(rule.id, parse_rule("auto_expr", rule.expr))
                    for rule in constraints.auto_rules},
        recovery_rules=tuple((rule.error_class, parse_rule("modifier", rule.modifier))
                             for rule in constraints.recovery_rules),
        branch_rules=tuple(CompiledBranchRule(i, parse_rule("predicate", rule.predicate),
                                              parse_rule("modifier", rule.modifier),
                                              rule.target_step)
                           for i, rule in enumerate(profile.branch_rules)),
        constraint_predicates=tuple(parse_rule("predicate", source)
                                    for source in constraints.constraint_predicates),
    )


def resolve_step(params: dict, auto_rules: dict[str, ruledsl.AutoRule], state: ExecutionState) -> dict:
    """Replace auto markers and placeholders with concrete values."""
    resolved = {}
    for slot, value in params.items():
        if isinstance(value, AutoParam):
            rule = auto_rules.get(value.rule_id)
            if rule is None:
                raise _StepAbort("unresolved_auto", f"auto rule {value.rule_id!r} is not defined")
            try:
                resolved[slot] = ruledsl.eval_auto_rule(rule, state)
            except ruledsl.UnresolvedAutoError as exc:
                raise _StepAbort("unresolved_auto", str(exc)) from None
        elif isinstance(value, PlaceholderParam):
            found, stored = state.resolve_path(value.parts())
            if not found:
                raise _StepAbort("missing_placeholder", f"placeholder {value.path!r} has no stored value")
            resolved[slot] = stored
        else:
            resolved[slot] = value
    return resolved


def branch_step(params: dict, rules: tuple[CompiledBranchRule, ...], mode: RouteMode,
                state: ExecutionState) -> tuple[dict, list[BranchFiring]]:
    """Apply every firing branch rule in listed order; identity in pure mode.

    Predicates are all evaluated against the pre-step state; modifiers chain
    on the params.
    """
    if mode == RouteMode.PURE:
        return params, []
    current = params
    firings = []
    for rule in rules:
        if ruledsl.eval_predicate(rule.predicate, state):
            try:
                updated = ruledsl.apply_modifier(rule.modifier, current, state)
            except ruledsl.ModifierEvalError as exc:
                raise _StepAbort("modifier_error", str(exc)) from None
            firings.append(BranchFiring(step=0, rule_index=rule.rule_index,
                                        before=dict(current), after=dict(updated)))
            current = updated
    return current, firings


def execute_step(step, index: int, key: str, config: ExecutionConfig, registry: ToolRegistry,
                 rules: RuleBundle, state: ExecutionState) -> str:
    """Run one step through resolve -> branch -> invoke -> recover -> store.

    Returns "success", "soft", or "hard"; the StepEvent is appended either way.
    A step that cannot go on (_StepAbort) fails hard.
    """
    started = time.perf_counter()
    resolved = branched = None
    attempts: list[Attempt] = []
    try:
        resolved = resolve_step(step.params, rules.auto_rules, state)
        branched, firings = branch_step(resolved, rules.branch_rules_for(index), config.mode, state)
        for firing in firings:
            firing.step = index
            state.branch_log.append(firing)
        if not registry.has(step.tool_id):
            message = f"no tool registered under id {step.tool_id!r}"
            attempts.append(Attempt(params=branched,
                                    outcome=ToolOutcome.failure("not_found", message)))
            raise _StepAbort("unknown_tool", message)
        outcome = registry.invoke(step.tool_id, branched, state)
        attempts.append(Attempt(params=branched, outcome=outcome))
        # The recovery rule is selected by the first error and reused for
        # every retry; retry params derive from the branched params.
        recovery = None if outcome.ok else rules.first_recovery_for(outcome.error_class)
        while not outcome.ok and recovery is not None and len(attempts) <= config.recovery_retries:
            state.failure_log.append(FailureEntry(
                step=index, error_class=outcome.error_class,
                attempt=len(attempts), classified="soft"))
            try:
                retry_params = ruledsl.apply_modifier(recovery, branched, state)
            except ruledsl.ModifierEvalError as exc:
                raise _StepAbort("modifier_error", str(exc)) from None
            outcome = registry.invoke(step.tool_id, retry_params, state)
            attempts.append(Attempt(params=retry_params, outcome=outcome))
    except _StepAbort as abort:
        final_class, classification = abort.error_class, "hard"
    else:
        if outcome.ok:
            state.store(key, outcome.value)
            final_class, classification = None, None
        else:
            final_class = outcome.error_class
            classification = ERROR_CLASSES.get(final_class, ("soft", False))[0]
    if classification is not None:
        state.failure_log.append(FailureEntry(
            step=index, error_class=final_class,
            attempt=len(attempts), classified=classification))

    state.trace.append(StepEvent(
        index=index, tool_id=step.tool_id, key=key, resolved_params=resolved,
        branched_params=branched if branched != resolved else None,
        attempts=attempts, outcome="failure" if classification else "success",
        error_class=final_class, stored_key=None if classification else key,
        wall_time=time.perf_counter() - started,
    ))
    return classification or "success"


def run_workflow(workflow: Workflow, config: ExecutionConfig, registry: ToolRegistry,
                 state: ExecutionState, rules: RuleBundle | None = None) -> ExecutionState:
    """Fold execute_step over all steps; halt early only on hard failure."""
    rules = rules or RuleBundle()
    keys = store_keys(workflow)
    halted_at = None
    for position, step in enumerate(workflow.steps):
        index = position + 1
        result = execute_step(step, index, keys[position], config, registry, rules, state)
        if result == "hard":
            halted_at = index
            break
    if halted_at is not None:
        for position in range(halted_at, len(workflow.steps)):
            state.trace.append(StepEvent(
                index=position + 1, tool_id=workflow.steps[position].tool_id,
                key=keys[position], resolved_params=None, branched_params=None,
                attempts=[], outcome="skipped", error_class=None,
                stored_key=None, wall_time=0.0,
            ))
    return state


def initial_state(context: dict | None = None) -> ExecutionState:
    """Fresh run state; env seeded from the task context."""
    return ExecutionState(env=dict(context or {}))
