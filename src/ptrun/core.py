"""Shared domain types: tasks, metadata, tool schemas, workflows and profiles,
plus structural admissibility checking.

The types built once per run or per input, such as tasks, metadata, specs,
rule sets, workflows, profiles and reports, are frozen. The types built per
step, param or branch rule (WorkflowStep, AutoParam, PlaceholderParam,
BranchRule, CompiledBranchRule) are slotted and not frozen, since creating
a frozen instance costs several times as much; nothing mutates them once
built. Serialization uses plain dicts with snake_case field names; the JSON
contract is documented in docs/schemas.md and is what the planner model is
asked to emit. Every rule text is parsed through ``parse_rule``'s memo.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from . import ruledsl

# Every error class a step can end in: (severity, whether tools, fault scripts and
# recovery rules may name it). A class outside the table, from a custom tool, is soft.
ERROR_CLASSES = {
    "timeout": ("soft", True), "not_found": ("soft", True), "empty_result": ("soft", True),
    "rate_limited": ("soft", True), "invalid_params": ("hard", True),
    "unresolved_auto": ("hard", False), "missing_placeholder": ("hard", False),
    "unknown_tool": ("hard", False), "modifier_error": ("hard", False),
}
TOOL_ERROR_CLASSES = tuple(name for name, (_, tool) in ERROR_CLASSES.items() if tool)
SEMANTIC_TYPES = ("string", "number", "boolean")


class ProfileFormatError(ValueError):
    """A profile/metadata dict does not match the documented schema."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ProfileFormatError(message)


@dataclass(frozen=True)
class Task:
    """One task instance: objective plus optional data reference and context."""

    objective: str
    data_ref: str | None = None
    context: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.objective, str) or not self.objective.strip():
            raise ValueError("task objective must be non-empty")

    def to_dict(self) -> dict:
        return {"objective": self.objective, "data_ref": self.data_ref, "context": dict(self.context)}

    @classmethod
    def from_dict(cls, data: dict) -> "Task":
        _require(isinstance(data, dict), "task must be an object")
        _require(isinstance(data.get("objective"), str), "task.objective must be a string")
        context = data.get("context") or {}
        _require(isinstance(context, dict), "task.context must be an object")
        data_ref = data.get("data_ref")
        _require(data_ref is None or isinstance(data_ref, str), "task.data_ref must be a string or null")
        return cls(objective=data["objective"], data_ref=data_ref, context=dict(context))


@dataclass(frozen=True)
class SlotSpec:
    """Descriptor for one tool parameter slot."""

    type: str
    required: bool = True
    auto_resolvable: bool = False

    def __post_init__(self):
        if self.type not in SEMANTIC_TYPES:
            raise ValueError(f"unknown semantic type {self.type!r}")

    def to_dict(self) -> dict:
        return {"type": self.type, "required": self.required, "auto_resolvable": self.auto_resolvable}

    @classmethod
    def from_dict(cls, data: dict) -> "SlotSpec":
        _require(isinstance(data, dict), "slot descriptor must be an object")
        _require(data.get("type") in SEMANTIC_TYPES, f"slot type must be one of {SEMANTIC_TYPES}")
        return cls(
            type=data["type"],
            required=bool(data.get("required", True)),
            auto_resolvable=bool(data.get("auto_resolvable", False)),
        )


@dataclass(frozen=True)
class ToolSpec:
    """Identity and parameter schema of one tool; the transition lives in the registry."""

    id: str
    param_schema: dict[str, SlotSpec]
    output_kind: str

    def __post_init__(self):
        if not self.id:
            raise ValueError("tool id must be non-empty")

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "param_schema": {name: slot.to_dict() for name, slot in self.param_schema.items()},
            "output_kind": self.output_kind,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ToolSpec":
        _require(isinstance(data, dict), "tool spec must be an object")
        _require(isinstance(data.get("id"), str) and data["id"], "tool id must be a non-empty string")
        schema = data.get("param_schema") or {}
        _require(isinstance(schema, dict), "param_schema must be an object")
        return cls(
            id=data["id"],
            param_schema={name: SlotSpec.from_dict(slot) for name, slot in schema.items()},
            output_kind=str(data.get("output_kind", "")),
        )


@dataclass(frozen=True)
class AutoRuleSpec:
    """Named auto-resolution rule source (parsed lazily by the rule DSL)."""

    id: str
    expr: str

    def to_dict(self) -> dict:
        return {"id": self.id, "expr": self.expr}


@dataclass(frozen=True)
class RecoverySpec:
    """Error-class matcher paired with a retry-parameter modifier source."""

    error_class: str
    modifier: str

    def to_dict(self) -> dict:
        return {"error_class": self.error_class, "modifier": self.modifier}


@dataclass(frozen=True)
class RuleSet:
    """Deterministic constraint rules shipped with the metadata.

    Constraint predicates are shown to the planner and evaluated by the
    verifier over each phase's final state; a false one sets delta_diag.
    """

    auto_rules: tuple[AutoRuleSpec, ...] = ()
    recovery_rules: tuple[RecoverySpec, ...] = ()
    constraint_predicates: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "auto_rules": [r.to_dict() for r in self.auto_rules],
            "recovery_rules": [r.to_dict() for r in self.recovery_rules],
            "constraint_predicates": list(self.constraint_predicates),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RuleSet":
        data = data or {}
        _require(isinstance(data, dict), "constraints must be an object")
        autos = []
        for entry in data.get("auto_rules", []):
            _require(isinstance(entry, dict), "auto rule must be an object")
            _require(isinstance(entry.get("id"), str) and entry["id"], "auto rule id must be non-empty")
            _require(isinstance(entry.get("expr"), str), "auto rule expr must be a string")
            autos.append(AutoRuleSpec(id=entry["id"], expr=entry["expr"]))
        recoveries = []
        for entry in data.get("recovery_rules", []):
            _require(isinstance(entry, dict), "recovery rule must be an object")
            _require(isinstance(entry.get("error_class"), str), "recovery error_class must be a string")
            _require(isinstance(entry.get("modifier"), str), "recovery modifier must be a string")
            recoveries.append(RecoverySpec(error_class=entry["error_class"], modifier=entry["modifier"]))
        predicates = data.get("constraint_predicates", [])
        _require(isinstance(predicates, list) and all(isinstance(p, str) for p in predicates),
                 "constraint_predicates must be a list of strings")
        return cls(auto_rules=tuple(autos), recovery_rules=tuple(recoveries),
                   constraint_predicates=tuple(predicates))


@dataclass(frozen=True)
class HistorySummary:
    """Optional prior-run summary used to calibrate history risk."""

    prior_run_count: int
    prior_failure_rate: float

    def __post_init__(self):
        if self.prior_run_count < 0:
            raise ValueError("prior_run_count must be non-negative")
        if not 0.0 <= self.prior_failure_rate <= 1.0:
            raise ValueError("prior_failure_rate must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {"prior_run_count": self.prior_run_count, "prior_failure_rate": self.prior_failure_rate}

    @classmethod
    def from_dict(cls, data: dict) -> "HistorySummary":
        _require(isinstance(data, dict), "history must be an object")
        return cls(
            prior_run_count=int(data.get("prior_run_count", 0)),
            prior_failure_rate=float(data.get("prior_failure_rate", 0.0)),
        )


@dataclass(frozen=True)
class Metadata:
    """Structured execution context: schema descriptor, tool catalog, rules, history."""

    schema: dict = field(default_factory=dict)
    tool_catalog: tuple[ToolSpec, ...] = ()
    constraints: RuleSet = field(default_factory=RuleSet)
    history: HistorySummary | None = None

    def tool(self, tool_id: str) -> ToolSpec | None:
        for spec in self.tool_catalog:
            if spec.id == tool_id:
                return spec
        return None

    def to_dict(self) -> dict:
        return {
            "schema": dict(self.schema),
            "tool_catalog": [t.to_dict() for t in self.tool_catalog],
            "constraints": self.constraints.to_dict(),
            "history": self.history.to_dict() if self.history else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Metadata":
        _require(isinstance(data, dict), "metadata must be an object")
        schema = data.get("schema") or {}
        _require(isinstance(schema, dict), "metadata.schema must be an object")
        catalog = data.get("tool_catalog") or []
        _require(isinstance(catalog, list), "tool_catalog must be a list")
        history = data.get("history")
        return cls(
            schema=dict(schema),
            tool_catalog=tuple(ToolSpec.from_dict(t) for t in catalog),
            constraints=RuleSet.from_dict(data.get("constraints") or {}),
            history=HistorySummary.from_dict(history) if history else None,
        )


# --- workflow / profile -----------------------------------------------------


@dataclass(slots=True)
class AutoParam:
    """Param marker: resolve via the named auto rule at execution time."""

    rule_id: str


@dataclass(slots=True)
class PlaceholderParam:
    """Param marker: substitute a value stored by an earlier step.

    The path is dot-separated and rooted at ``result``, e.g.
    ``result.kb_search_1.top_title``.
    """

    path: str

    def parts(self) -> tuple[str, ...]:
        return tuple(self.path.split("."))


def encode_param(value) -> object:
    if isinstance(value, AutoParam):
        return {"auto": value.rule_id}
    if isinstance(value, PlaceholderParam):
        return {"placeholder": value.path}
    return value


def decode_param(value) -> object:
    """Decode one param value. Single-key objects 'auto'/'placeholder' are markers."""
    if isinstance(value, dict) and len(value) == 1:
        if "auto" in value and isinstance(value["auto"], str):
            return AutoParam(rule_id=value["auto"])
        if "placeholder" in value and isinstance(value["placeholder"], str):
            return PlaceholderParam(path=value["placeholder"])
    if isinstance(value, float) and not math.isfinite(value):
        # json.loads reads 1e400 as inf; a trace cannot hold it
        raise ProfileFormatError(f"param value {value!r} is not a finite number")
    if value is None or isinstance(value, (str, bool, int, float)):
        return value
    raise ProfileFormatError(f"unsupported param value: {value!r}")


def literal_type_tag(value) -> str | None:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return None


@dataclass(slots=True)
class WorkflowStep:
    tool_id: str
    params: dict[str, object] = field(default_factory=dict)
    annotation: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "tool_id": self.tool_id,
            "params": {k: encode_param(v) for k, v in self.params.items()},
            "annotation": dict(self.annotation),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkflowStep":
        _require(isinstance(data, dict), "workflow step must be an object")
        _require(isinstance(data.get("tool_id"), str) and data["tool_id"], "step tool_id must be non-empty")
        params = data.get("params") or {}
        _require(isinstance(params, dict), "step params must be an object")
        annotation = data.get("annotation") or {}
        _require(isinstance(annotation, dict), "step annotation must be an object")
        return cls(
            tool_id=data["tool_id"],
            params={k: decode_param(v) for k, v in params.items()},
            annotation=dict(annotation),
        )


@dataclass(frozen=True)
class Workflow:
    steps: tuple[WorkflowStep, ...]

    def __post_init__(self):
        if len(self.steps) < 1:
            raise ValueError("workflow must have at least one step")

    def __len__(self) -> int:
        return len(self.steps)

    def to_dict(self) -> dict:
        return {"steps": [s.to_dict() for s in self.steps]}

    @classmethod
    def from_dict(cls, data: dict) -> "Workflow":
        _require(isinstance(data, dict), "workflow must be an object")
        steps = data.get("steps")
        _require(isinstance(steps, list) and len(steps) >= 1, "workflow.steps must be a non-empty list")
        return cls(steps=tuple(WorkflowStep.from_dict(s) for s in steps))


def store_keys(workflow: Workflow) -> tuple[str, ...]:
    """Static result-store key per step: ``<tool_id>_<k>``, k counting uses of that tool."""
    seen: dict[str, int] = {}
    keys = []
    for step in workflow.steps:
        seen[step.tool_id] = seen.get(step.tool_id, 0) + 1
        keys.append(f"{step.tool_id}_{seen[step.tool_id]}")
    return tuple(keys)


@dataclass(slots=True)
class BranchRule:
    """Predicate + parameter modifier attached to a workflow step."""

    predicate: str
    modifier: str
    target_step: int

    def to_dict(self) -> dict:
        return {"predicate": self.predicate, "modifier": self.modifier, "target_step": self.target_step}

    @classmethod
    def from_dict(cls, data: dict) -> "BranchRule":
        _require(isinstance(data, dict), "branch rule must be an object")
        _require(isinstance(data.get("predicate"), str), "branch rule predicate must be a string")
        _require(isinstance(data.get("modifier"), str), "branch rule modifier must be a string")
        target = data.get("target_step")
        _require(isinstance(target, int) and not isinstance(target, bool), "branch target_step must be an integer")
        return cls(predicate=data["predicate"], modifier=data["modifier"], target_step=target)


@dataclass(slots=True)
class CompiledBranchRule:
    rule_index: int  # position in the profile's branch_rules list
    predicate: object
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


# A rule's AST takes 0.5-1 KB, and that of the densest text kept about 6 KB,
# so a full memo holds about 0.5 MB, and never more than about 3 MB.
RULE_MEMO_ENTRIES = 512
RULE_MEMO_MAX_TEXT = 256


@functools.lru_cache(maxsize=RULE_MEMO_ENTRIES)
def _memo(kind: str, source: str):
    try:  # read on every miss, so a wrapper installed on ruledsl's parsers sees it
        return getattr(ruledsl, "parse_" + kind)(source)
    except ruledsl.DslParseError as exc:
        exc.__traceback__ = exc.__context__ = None  # the memo keeps no frames
        return exc


def parse_rule(kind: str, source: str):
    """The AST of a rule text of one kind ("predicate", "modifier",
    "auto_expr" or "arith") from ``ruledsl.parse_<kind>``, parsed once while
    the memo holds it: a thread-safe LRU memo of RULE_MEMO_ENTRIES texts of
    at most RULE_MEMO_MAX_TEXT characters. Raises the text's DslParseError, a
    fresh copy each time, so no caller's frames stay in the memo."""
    result = (_memo if len(source) <= RULE_MEMO_MAX_TEXT else _memo.__wrapped__)(kind, source)
    if isinstance(result, ruledsl.DslParseError):
        error = type(result).__new__(type(result))
        error.args = result.args
        error.__dict__.update(result.__dict__)
        raise error
    return result


parse_rule.cache_info, parse_rule.cache_clear = _memo.cache_info, _memo.cache_clear


def compile_branch_rule(rule_index: int, rule: BranchRule) -> CompiledBranchRule:
    """Parse one branch rule's predicate and modifier; raises DslParseError."""
    return CompiledBranchRule(
        rule_index=rule_index,
        predicate=parse_rule("predicate", rule.predicate),
        modifier=parse_rule("modifier", rule.modifier),
        target_step=rule.target_step,
    )


@dataclass(frozen=True)
class Profile:
    """Planner output: workflow plus epistemic and control descriptors."""

    workflow: Workflow
    confidence: float = 1.0
    assumptions: tuple[str, ...] = ()
    fragile_points: tuple[str, ...] = ()
    replan_conditions: tuple[str, ...] = ()
    branch_rules: tuple[BranchRule, ...] = ()
    aux_annotations: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must lie in [0, 1]")
        for rule in self.branch_rules:
            if not 1 <= rule.target_step <= len(self.workflow):
                raise ValueError(f"branch rule target step {rule.target_step} outside workflow")

    def to_dict(self) -> dict:
        return {
            "workflow": self.workflow.to_dict(),
            "confidence": self.confidence,
            "assumptions": list(self.assumptions),
            "fragile_points": list(self.fragile_points),
            "replan_conditions": list(self.replan_conditions),
            "branch_rules": [r.to_dict() for r in self.branch_rules],
            "aux_annotations": dict(self.aux_annotations),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Profile":
        _require(isinstance(data, dict), "profile must be an object")
        _require("workflow" in data, "profile is missing required field 'workflow'")
        confidence = data.get("confidence", 1.0)
        _require(isinstance(confidence, (int, float)) and not isinstance(confidence, bool),
                 "profile.confidence must be a number")
        _require(0.0 <= float(confidence) <= 1.0, "profile.confidence must lie in [0, 1]")

        def _texts(key: str) -> tuple[str, ...]:
            raw = data.get(key) or []
            _require(isinstance(raw, list) and all(isinstance(v, str) for v in raw),
                     f"profile.{key} must be a list of strings")
            return tuple(raw)

        rules_raw = data.get("branch_rules") or []
        _require(isinstance(rules_raw, list), "profile.branch_rules must be a list")
        aux = data.get("aux_annotations") or {}
        _require(isinstance(aux, dict), "profile.aux_annotations must be an object")
        workflow = Workflow.from_dict(data["workflow"])
        rules = tuple(BranchRule.from_dict(r) for r in rules_raw)
        return cls(
            workflow=workflow,
            confidence=float(confidence),
            assumptions=_texts("assumptions"),
            fragile_points=_texts("fragile_points"),
            replan_conditions=_texts("replan_conditions"),
            branch_rules=rules,
            aux_annotations=dict(aux),
        )


# --- validation / admissibility ----------------------------------------------


@dataclass(frozen=True)
class Violation:
    """One finding of an input check: its kind, what it says, and the 1-based
    workflow step it concerns, or None when it concerns no single step."""

    step: int | None
    kind: str
    detail: str


@dataclass(frozen=True)
class AdmissibilityReport:
    """Verdict of check_admissibility. An admissible report also carries the
    profile's branch rules as parsed by the check, so a run does not parse
    them again; an inadmissible one carries none."""

    admissible: bool
    violations: tuple[Violation, ...] = ()
    branch_rules: tuple[CompiledBranchRule, ...] = ()


@dataclass(frozen=True)
class MetadataReport:
    """Verdict of validate_metadata. Its ``rules`` hold the metadata's auto
    and recovery rules and constraint predicates as parsed by the check, and
    no branch rules, so a run does not parse them again; a rule that does not
    parse is left out and reported as an issue. Metadata has no steps, so no
    finding names one."""

    issues: tuple[Violation, ...] = ()
    rules: RuleBundle = field(default_factory=RuleBundle)

    def require_valid(self) -> "MetadataReport":
        """This report; ValueError naming the issues when there are any."""
        if self.issues:
            found = [{"kind": i.kind, "detail": i.detail} for i in self.issues]
            raise ValueError(f"metadata is invalid: {found}")
        return self


def validate_metadata(metadata: Metadata) -> MetadataReport:
    """Structural checks on metadata: unique tool ids and parseable rule sources."""
    issues: list[Violation] = []
    seen: set[str] = set()
    for spec in metadata.tool_catalog:
        if spec.id in seen:
            issues.append(Violation(None, "duplicate_tool_id",
                                    f"tool id {spec.id!r} registered twice"))
        seen.add(spec.id)
    auto_rules: dict[str, ruledsl.AutoRule] = {}
    for rule in metadata.constraints.auto_rules:
        try:
            auto_rules[rule.id] = ruledsl.AutoRule(rule.id, parse_rule("auto_expr", rule.expr))
        except ruledsl.DslParseError as exc:
            issues.append(Violation(None, "bad_rule_syntax", f"auto rule {rule.id!r}: {exc}"))
    recovery_rules: list[tuple[str, ruledsl.ModifierAst]] = []
    for i, rule in enumerate(metadata.constraints.recovery_rules, start=1):
        if rule.error_class not in TOOL_ERROR_CLASSES + ("any",):
            issues.append(Violation(
                None, "bad_error_class", f"recovery rule {i}: unknown error class {rule.error_class!r}"))
        try:
            recovery_rules.append((rule.error_class, parse_rule("modifier", rule.modifier)))
        except ruledsl.DslParseError as exc:
            issues.append(Violation(None, "bad_rule_syntax", f"recovery rule {i}: {exc}"))
    predicates: list[ruledsl.PredicateAst] = []
    for i, source in enumerate(metadata.constraints.constraint_predicates, start=1):
        try:
            predicates.append(parse_rule("predicate", source))
        except ruledsl.DslParseError as exc:
            issues.append(Violation(None, "bad_rule_syntax", f"constraint predicate {i}: {exc}"))
    return MetadataReport(tuple(issues), RuleBundle(
        auto_rules, tuple(recovery_rules), constraint_predicates=tuple(predicates)))


def check_admissibility(profile: Profile, metadata: Metadata) -> AdmissibilityReport:
    """Structural admissibility of a profile against a validated metadata object.

    Checks, per step: the tool is in the catalog, params are schema-compatible
    or deferred (auto marker on an auto-resolvable slot, placeholder referencing
    a strictly earlier step's store key); and, per profile: branch rules parse
    and bind to existing steps with schema-known slots, replan conditions parse
    as state predicates. Every rule text goes through the rule memo
    (``parse_rule``). An admissible report carries the parsed branch rules.
    """
    violations: list[Violation] = []
    # Store keys are unique, so a key's position is the step that stores it.
    positions = {key: position for position, key in enumerate(store_keys(profile.workflow))}
    auto_ids = {rule.id for rule in metadata.constraints.auto_rules}

    for index, step in enumerate(profile.workflow.steps, start=1):
        spec = metadata.tool(step.tool_id)
        if spec is None:
            violations.append(Violation(index, "unknown_tool", f"tool {step.tool_id!r} not in catalog"))
            continue
        for slot, value in step.params.items():
            if slot not in spec.param_schema:
                violations.append(Violation(index, "unknown_param", f"slot {slot!r} not in {step.tool_id!r} schema"))
                continue
            descr = spec.param_schema[slot]
            if isinstance(value, AutoParam):
                if not descr.auto_resolvable:
                    violations.append(Violation(index, "auto_not_allowed", f"slot {slot!r} is not auto-resolvable"))
                if value.rule_id not in auto_ids:
                    violations.append(Violation(index, "unknown_auto_rule", f"auto rule {value.rule_id!r} not defined"))
            elif isinstance(value, PlaceholderParam):
                parts = value.parts()
                if len(parts) < 2 or parts[0] != "result":
                    violations.append(Violation(
                        index, "bad_placeholder", f"placeholder {value.path!r} must start with 'result.<key>'"))
                elif positions.get(parts[1], index) >= index - 1:
                    violations.append(Violation(
                        index, "forward_placeholder",
                        f"placeholder {value.path!r} does not reference an earlier step's key"))
            else:
                tag = literal_type_tag(value)
                if tag is None or tag != descr.type:
                    violations.append(Violation(
                        index, "param_type_mismatch",
                        f"slot {slot!r} expects {descr.type}, got {tag or type(value).__name__}"))
        for slot, descr in spec.param_schema.items():
            if descr.required and slot not in step.params:
                violations.append(Violation(index, "missing_required_param", f"slot {slot!r} is required"))

    # Profile.__post_init__ keeps every branch target inside the workflow.
    compiled: list[CompiledBranchRule] = []
    for i, rule in enumerate(profile.branch_rules, start=1):
        target_spec = metadata.tool(profile.workflow.steps[rule.target_step - 1].tool_id)
        try:
            branch = compile_branch_rule(i - 1, rule)
        except ruledsl.DslParseError as exc:
            violations.append(Violation(rule.target_step, "unevaluable_branch_rule", f"branch rule {i}: {exc}"))
            continue
        compiled.append(branch)
        if target_spec is not None:
            for assignment in branch.modifier.assignments:
                if assignment.slot not in target_spec.param_schema:
                    violations.append(Violation(
                        rule.target_step, "bad_modifier_slot",
                        f"branch rule {i} assigns unknown slot {assignment.slot!r}"))

    for i, source in enumerate(profile.replan_conditions, start=1):
        try:
            parse_rule("predicate", source)
        except ruledsl.DslParseError as exc:
            violations.append(Violation(None, "unevaluable_replan_condition", f"replan condition {i}: {exc}"))

    if violations:
        return AdmissibilityReport(admissible=False, violations=tuple(violations))
    return AdmissibilityReport(admissible=True, branch_rules=tuple(compiled))
