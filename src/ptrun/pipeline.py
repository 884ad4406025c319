"""End-to-end orchestration: PROFILE -> ROUTE -> EXECUTE -> VERIFY ->
(REPAIR -> re-EXECUTE -> re-VERIFY) -> REASON.

One run makes exactly one profile call and one reason call, plus at most one
repair call, so completed runs use two or three model calls total. Everything
between the semantic stages is deterministic and is persisted to a
self-contained JSONL trace that `replay_trace` can recompute and check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .core import (AdmissibilityReport, CompiledBranchRule, Metadata, Profile, Task,
                   check_admissibility, validate_metadata)
from .executor import ExecutionConfig, bundle_rules, compile_rules, initial_state, run_workflow
from .router import RiskWeights, RouteMode, RouteThresholds, decide_route
from .semantic import (BudgetExceededError, BudgetLedger, ModelRequest, PriceEntry,
                       ProfileParseError, build_profile_prompt, build_profile_retry_prompt,
                       build_reason_prompt, build_repair_prompt, parse_profile_response)
from .tools import KnowledgeBase, ToolRegistry, builtin_registry, parse_fault_script
from .trace import (SCHEMA_VERSION, TraceSchemaError, TraceWriter, digest, read_trace,
                    structurally_equal, strip_volatile)
from .verifier import PenaltyCoefficients, extract_counters, verify

REPAIR_REJECTED_FLAG = "repair_rejected"
REPAIR_APPLIED_FLAG = "repair_applied"


class RunInvalidError(Exception):
    """Profile unusable after the single corrective retry."""


@dataclass(frozen=True)
class RunConfig:
    """Single-document run configuration; all knobs the runtime accepts."""

    weights: RiskWeights = field(default_factory=RiskWeights)
    thresholds: RouteThresholds = field(default_factory=RouteThresholds)
    penalties: PenaltyCoefficients = field(default_factory=PenaltyCoefficients)
    repair_threshold: float = 0.60
    recovery_retries: int = 2
    thin_output_threshold: int = 5
    budget_micros: int = 10_000_000
    seed: int = 42
    mode_override: RouteMode | None = None
    price_table: dict[str, PriceEntry] = field(default_factory=lambda: {"default": PriceEntry()})

    def __post_init__(self):
        if not 0.0 < self.repair_threshold < 1.0:
            raise ValueError("repair_threshold must lie in (0, 1)")
        if self.recovery_retries < 0:
            raise ValueError("recovery_retries must be non-negative")
        if self.budget_micros < 0:
            raise ValueError("budget_micros must be non-negative")

    def price_for(self, model_name: str) -> PriceEntry:
        return self.price_table.get(model_name, self.price_table.get("default", PriceEntry()))

    def to_dict(self) -> dict:
        return {
            "risk_weights": self.weights.to_dict(),
            "route_thresholds": self.thresholds.to_dict(),
            "penalties": self.penalties.to_dict(),
            "repair_threshold": self.repair_threshold,
            "recovery_retries": self.recovery_retries,
            "thin_output_threshold": self.thin_output_threshold,
            "budget_micros": self.budget_micros,
            "seed": self.seed,
            "mode_override": self.mode_override.value if self.mode_override else None,
            "price_table": {name: entry.to_dict() for name, entry in self.price_table.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        for key in ("risk_weights", "route_thresholds", "penalties", "price_table"):
            if not isinstance(data.get(key, {}), dict):
                raise ValueError(f"config {key} must be an object")
        override = data.get("mode_override")
        prices = data.get("price_table") or {"default": {}}
        if not all(isinstance(entry, dict) for entry in prices.values()):
            raise ValueError("config price_table entries must be objects")
        return cls(
            weights=RiskWeights.from_dict(data.get("risk_weights", RiskWeights().to_dict())),
            thresholds=RouteThresholds.from_dict(
                data.get("route_thresholds", RouteThresholds().to_dict())),
            penalties=PenaltyCoefficients.from_dict(
                data.get("penalties", PenaltyCoefficients().to_dict())),
            repair_threshold=float(data.get("repair_threshold", 0.60)),
            recovery_retries=int(data.get("recovery_retries", 2)),
            thin_output_threshold=int(data.get("thin_output_threshold", 5)),
            budget_micros=int(data.get("budget_micros", 10_000_000)),
            seed=int(data.get("seed", 42)),
            mode_override=RouteMode(override) if override else None,
            price_table={name: PriceEntry.from_dict(entry) for name, entry in prices.items()},
        )

    def config_hash(self) -> str:
        return digest(self.to_dict())


@dataclass(frozen=True)
class ToolEnvironment:
    """Rebuildable tool setup for a run: knowledge-base articles plus optional
    per-tool fault scripts. Embedded in the trace header so replay can
    reconstruct an identical registry.

    The articles are read once, when the environment is built: its one
    read-only KnowledgeBase serves every run, and only the fault injectors
    are built per run. Malformed articles or fault scripts raise ValueError
    here."""

    articles: tuple = ()
    fault_scripts: dict = field(default_factory=dict)
    kb: KnowledgeBase = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "kb", KnowledgeBase(self.articles))
        if not isinstance(self.fault_scripts, dict):
            raise ValueError("fault scripts must map tool ids to scripts")
        for script in self.fault_scripts.values():
            if script:
                parse_fault_script(script)

    @classmethod
    def from_kb_path(cls, path, fault_scripts: dict | None = None) -> "ToolEnvironment":
        kb = KnowledgeBase.load(path)
        return cls(articles=tuple(kb.to_list()), fault_scripts=dict(fault_scripts or {}))

    def build_registry(self) -> ToolRegistry:
        return builtin_registry(self.kb, self.fault_scripts)

    def describe(self) -> dict:
        return {"kb": [dict(a) for a in self.articles],
                "fault_scripts": {k: list(v) for k, v in self.fault_scripts.items()}}

    @classmethod
    def from_description(cls, data: dict) -> "ToolEnvironment":
        return cls(articles=tuple(data.get("kb", ())),
                   fault_scripts=dict(data.get("fault_scripts", {})))


@dataclass
class RunReport:
    outcome: str  # ok | run_invalid | budget_exceeded
    answer: str | None
    trace_path: str | None
    verification: dict | None
    ledger: dict
    route: dict | None
    repaired: bool
    timing: dict
    model_calls: int
    raw_model_calls: int

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "answer": self.answer,
            "trace_path": self.trace_path,
            "verification": self.verification,
            "ledger": self.ledger,
            "route": self.route,
            "repaired": self.repaired,
            "timing": self.timing,
            "model_calls": self.model_calls,
            "raw_model_calls": self.raw_model_calls,
        }


def _model_call(model, role: str, prompt: str, cfg: RunConfig, ledger: BudgetLedger,
                writer: TraceWriter):
    """One raw model call: persisted to the trace, then budget-checked."""
    request = ModelRequest(role=role, prompt=prompt, temperature=0.0, seed=cfg.seed)
    response = model.complete(request)
    writer.write({
        "type": "model_call",
        "role": role,
        "prompt": prompt,
        "response_text": response.text,
        "usage": response.usage.to_dict(),
        "cost_micros": response.cost_micros,
        # provider credentials travel in transport headers only
        "credentials_redacted": True,
    })
    ledger.record_and_check(role, response)
    return response


def _admissibility_diagnostic(report: AdmissibilityReport) -> str:
    details = "; ".join(
        f"step {v.step}: {v.kind} ({v.detail})" if v.step else f"{v.kind} ({v.detail})"
        for v in report.violations
    )
    return f"profile is not admissible: {details}"


def _obtain_profile(task: Task, metadata: Metadata, cfg: RunConfig, model,
                    ledger: BudgetLedger, writer: TraceWriter
                    ) -> tuple[Profile, tuple[CompiledBranchRule, ...], str, int]:
    """Profile stage: one call, then at most one corrective retry before abort.

    Returns the profile with the branch rules admissibility compiled for it.
    """
    prompt = build_profile_prompt(task, metadata)
    response = _model_call(model, "profile", prompt, cfg, ledger, writer)
    attempts = 1
    diagnostic = None
    profile = None
    try:
        profile = parse_profile_response(response.text)
    except ProfileParseError as exc:
        diagnostic = exc.diagnostic
    if profile is not None:
        report = check_admissibility(profile, metadata)
        if not report.admissible:
            diagnostic = _admissibility_diagnostic(report)
            profile = None
    if profile is not None:
        return profile, report.branch_rules, response.text, attempts

    retry_prompt = build_profile_retry_prompt(prompt, diagnostic)
    response = _model_call(model, "profile", retry_prompt, cfg, ledger, writer)
    attempts = 2
    try:
        profile = parse_profile_response(response.text)
    except ProfileParseError as exc:
        raise RunInvalidError(exc.diagnostic) from None
    report = check_admissibility(profile, metadata)
    if not report.admissible:
        raise RunInvalidError(_admissibility_diagnostic(report))
    return profile, report.branch_rules, response.text, attempts


def _with_flag(z, flag: str):
    return replace(z, flags=z.flags + (flag,))


def _write_steps(writer: TraceWriter, state, phase: str) -> None:
    for event in state.trace:
        writer.write({"type": "step", "phase": phase, "event": event.to_dict()})


def _write_verification(writer: TraceWriter, z, counters, phase: str) -> None:
    writer.write({"type": "verification", "phase": phase,
                  "object": z.to_dict(), "counters": counters.to_dict()})


def run_ptr(task: Task, metadata: Metadata, cfg: RunConfig, model,
            environment: ToolEnvironment, trace_path: str | None = None) -> RunReport:
    """Run the full bounded pipeline for one task instance.

    Raises ValueError on violated preconditions (invalid metadata, registry
    not covering the catalog); every run-level failure mode (unusable profile,
    budget exhaustion) is reported in the returned RunReport and recorded in
    the trace.
    """
    issues = validate_metadata(metadata)
    if issues:
        raise ValueError(f"metadata is invalid: {[i.to_dict() for i in issues]}")
    registry = environment.build_registry()
    for spec in metadata.tool_catalog:
        if not registry.has(spec.id):
            raise ValueError(f"registry does not cover catalog tool {spec.id!r}")

    writer = TraceWriter(trace_path)
    try:
        return _run(task, metadata, cfg, model, registry, environment, writer)
    finally:
        writer.close()


def _abort_report(writer: TraceWriter, outcome: str, detail: str, ledger: BudgetLedger,
                  timing: dict, repaired: bool = False, route: dict | None = None) -> RunReport:
    writer.write({"type": "abort", "reason": outcome, "detail": detail})
    report = RunReport(
        outcome=outcome, answer=None, trace_path=writer.path, verification=None,
        ledger=ledger.summary(), route=route, repaired=repaired, timing=timing,
        model_calls=sum(ledger.stage_counts.values()), raw_model_calls=len(ledger.entries),
    )
    writer.write({"type": "report", "report": report.to_dict()})
    return report


def _run(task: Task, metadata: Metadata, cfg: RunConfig, model, registry: ToolRegistry,
         environment: ToolEnvironment, writer: TraceWriter) -> RunReport:
    writer.write({
        "type": "header",
        "schema_version": SCHEMA_VERSION,
        "task": task.to_dict(),
        "metadata": metadata.to_dict(),
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "environment": environment.describe(),
    })
    ledger = BudgetLedger(limit_micros=cfg.budget_micros)
    timing: dict[str, float] = {}

    # PROFILE (semantic call #1; one corrective retry inside the same stage)
    started = time.perf_counter()
    ledger.count_stage("profile")
    try:
        profile, branch_rules, raw_profile, attempts = _obtain_profile(
            task, metadata, cfg, model, ledger, writer)
    except BudgetExceededError as exc:
        timing["profile"] = time.perf_counter() - started
        return _abort_report(writer, "budget_exceeded", str(exc), ledger, timing)
    except RunInvalidError as exc:
        timing["profile"] = time.perf_counter() - started
        return _abort_report(writer, "run_invalid", str(exc), ledger, timing)
    timing["profile"] = time.perf_counter() - started
    writer.write({"type": "profile", "raw": raw_profile,
                  "parsed": profile.to_dict(), "attempts": attempts})

    # ROUTE (deterministic)
    started = time.perf_counter()
    decision = decide_route(metadata, profile, cfg.weights, cfg.thresholds)
    mode = cfg.mode_override or decision.mode
    timing["route"] = time.perf_counter() - started
    writer.write({"type": "risk", "breakdown": decision.breakdown.to_dict()})
    writer.write({"type": "route", "mode": mode.value,
                  "override": cfg.mode_override is not None})
    route_dict = {"mode": mode.value, "breakdown": decision.breakdown.to_dict()}

    exec_config = ExecutionConfig(recovery_retries=cfg.recovery_retries,
                                  thin_output_threshold=cfg.thin_output_threshold, mode=mode)

    # EXECUTE + VERIFY (deterministic)
    started = time.perf_counter()
    rules = bundle_rules(metadata, branch_rules)
    state = initial_state(task.context)
    run_workflow(profile.workflow, exec_config, registry, state, rules)
    timing["execute"] = time.perf_counter() - started
    _write_steps(writer, state, "initial")

    started = time.perf_counter()
    z = verify(state, metadata, profile, cfg.penalties, cfg.repair_threshold,
               cfg.thin_output_threshold, route_mode=mode)
    counters = extract_counters(state, cfg.thin_output_threshold)
    timing["verify"] = time.perf_counter() - started
    _write_verification(writer, z, counters, "initial")

    # REPAIR (optional; at most one semantic call, never more). `repaired`
    # records that the stage was invoked, so it tracks the 2-vs-3-call split
    # even when the patch is rejected; the repair_rejected flag and the trace
    # record say what became of the patch.
    repaired = False
    final_state, final_z = state, z
    if z.repair_recommended:
        started = time.perf_counter()
        ledger.count_stage("repair")
        repaired = True
        prompt = build_repair_prompt(task, metadata, profile, state, z)
        try:
            response = _model_call(model, "repair", prompt, cfg, ledger, writer)
        except BudgetExceededError as exc:
            timing["repair"] = time.perf_counter() - started
            return _abort_report(writer, "budget_exceeded", str(exc), ledger, timing,
                                 repaired=True, route=route_dict)
        patched = None
        reject_reason = None
        try:
            patched = parse_profile_response(response.text)
        except ProfileParseError as exc:
            reject_reason = f"parse_error: {exc.diagnostic}"
        if patched is not None:
            report = check_admissibility(patched, metadata)
            if not report.admissible:
                reject_reason = _admissibility_diagnostic(report)
                patched = None
        if patched is None:
            writer.write({"type": "repair", "accepted": False, "reason": reject_reason})
            final_z = _with_flag(z, REPAIR_REJECTED_FLAG)
            timing["repair"] = time.perf_counter() - started
        else:
            writer.write({"type": "repair", "accepted": True, "raw": response.text,
                          "parsed": patched.to_dict()})
            repair_rules = bundle_rules(metadata, report.branch_rules)
            repair_state = initial_state(task.context)
            run_workflow(patched.workflow, exec_config, registry, repair_state, repair_rules)
            _write_steps(writer, repair_state, "repair")
            z2 = verify(repair_state, metadata, patched, cfg.penalties, cfg.repair_threshold,
                        cfg.thin_output_threshold, route_mode=mode)
            z2 = _with_flag(z2, REPAIR_APPLIED_FLAG)
            counters2 = extract_counters(repair_state, cfg.thin_output_threshold)
            _write_verification(writer, z2, counters2, "repair")
            final_state, final_z = repair_state, z2
            timing["repair"] = time.perf_counter() - started

    # REASON (semantic call #2 or #3)
    started = time.perf_counter()
    ledger.count_stage("reason")
    prompt = build_reason_prompt(task, metadata, final_state, final_z)
    try:
        response = _model_call(model, "reason", prompt, cfg, ledger, writer)
    except BudgetExceededError as exc:
        timing["reason"] = time.perf_counter() - started
        return _abort_report(writer, "budget_exceeded", str(exc), ledger, timing,
                             repaired=repaired, route=route_dict)
    timing["reason"] = time.perf_counter() - started
    writer.write({"type": "reason", "answer": response.text})

    report = RunReport(
        outcome="ok",
        answer=response.text,
        trace_path=writer.path,
        verification=final_z.to_dict(),
        ledger=ledger.summary(),
        route=route_dict,
        repaired=repaired,
        timing=timing,
        model_calls=sum(ledger.stage_counts.values()),
        raw_model_calls=len(ledger.entries),
    )
    writer.write({"type": "report", "report": report.to_dict()})
    return report


def apply_repair(task: Task, metadata: Metadata, profile: Profile, state, z, model,
                 seed: int = 42):
    """Standalone repair operator: one model call, parse, re-admit.

    Returns (patched profile, admissibility report, response); raises
    ProfileParseError when the patch is unparseable (no retry at this stage).
    """
    prompt = build_repair_prompt(task, metadata, profile, state, z)
    response = model.complete(ModelRequest(role="repair", prompt=prompt, temperature=0.0, seed=seed))
    patched = parse_profile_response(response.text)
    report = check_admissibility(patched, metadata)
    return patched, report, response


# --- trace replay -----------------------------------------------------------------


@dataclass
class ReplayReport:
    matched: bool
    divergence: dict | None
    sections_checked: int

    def to_dict(self) -> dict:
        return {"matched": self.matched, "divergence": self.divergence,
                "sections_checked": self.sections_checked}


def _diverge(section: str, index: int | None, recorded, recomputed) -> dict:
    return {
        "section": section,
        "index": index,
        "recorded": strip_volatile(recorded),
        "recomputed": strip_volatile(recomputed),
    }


def _read_header(header: dict, environment: ToolEnvironment | None
                 ) -> tuple[Task, Metadata, RunConfig, ToolEnvironment]:
    """The run inputs a trace header embeds; TraceSchemaError when one is
    missing or malformed (a malformed embedded KB included)."""
    for key in ("task", "metadata", "config", "environment"):
        if not isinstance(header.get(key), dict):
            raise TraceSchemaError(f"trace header has no {key} object")
    try:
        task = Task.from_dict(header["task"])
        metadata = Metadata.from_dict(header["metadata"])
        cfg = RunConfig.from_dict(header["config"])
        env = environment or ToolEnvironment.from_description(header["environment"])
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceSchemaError(f"trace header is malformed: {exc}") from None
    return task, metadata, cfg, env


def replay_trace(source, environment: ToolEnvironment | None = None) -> ReplayReport:
    """Recompute every deterministic stage from the recorded profile(s) and
    compare structurally against the recorded events; wall-clock fields are
    ignored. Reports the first divergence or a full match. Every run_ptr
    trace ends in a report record, so one that does not is a divergence in
    section ``incomplete``. Raises TraceSchemaError for a malformed trace,
    including a header whose task, metadata, config or environment is
    missing or malformed."""
    records = read_trace(source)
    if records[-1].get("type") != "report":
        return ReplayReport(False, _diverge("incomplete", len(records) - 1,
                                            records[-1].get("type"), "report"), 0)
    task, metadata, cfg, env = _read_header(records[0], environment)
    registry = env.build_registry()

    def section(kind: str, phase: str | None = None) -> list[dict]:
        return [r for r in records if r.get("type") == kind
                and (phase is None or r.get("phase") == phase)]

    checked = 0
    profile_records = section("profile")
    if not profile_records:
        # Run aborted before any deterministic stage; nothing to recompute.
        return ReplayReport(matched=True, divergence=None, sections_checked=0)
    profile = Profile.from_dict(profile_records[0]["parsed"])

    decision = decide_route(metadata, profile, cfg.weights, cfg.thresholds)
    mode = cfg.mode_override or decision.mode
    risk_records = section("risk")
    if risk_records:
        checked += 1
        if risk_records[0]["breakdown"] != decision.breakdown.to_dict():
            return ReplayReport(False, _diverge("risk", None, risk_records[0]["breakdown"],
                                                decision.breakdown.to_dict()), checked)
    route_records = section("route")
    if route_records:
        checked += 1
        if route_records[0]["mode"] != mode.value:
            return ReplayReport(False, _diverge("route", None, route_records[0]["mode"],
                                                mode.value), checked)

    exec_config = ExecutionConfig(recovery_retries=cfg.recovery_retries,
                                  thin_output_threshold=cfg.thin_output_threshold, mode=mode)

    def replay_execution(active_profile: Profile, phase: str, flag: str | None):
        nonlocal checked
        rules = compile_rules(metadata, active_profile)
        state = initial_state(task.context)
        run_workflow(active_profile.workflow, exec_config, registry, state, rules)
        recorded_steps = section("step", phase)
        recomputed = [event.to_dict() for event in state.trace]
        if len(recorded_steps) != len(recomputed):
            return None, _diverge(f"step[{phase}]", None,
                                  len(recorded_steps), len(recomputed))
        for i, (rec, new) in enumerate(zip(recorded_steps, recomputed)):
            checked += 1
            if not structurally_equal(rec["event"], new):
                return None, _diverge(f"step[{phase}]", i, rec["event"], new)
        z = verify(state, metadata, active_profile, cfg.penalties, cfg.repair_threshold,
                   cfg.thin_output_threshold, route_mode=mode)
        if flag:
            z = _with_flag(z, flag)
        counters = extract_counters(state, cfg.thin_output_threshold)
        ver_records = section("verification", phase)
        if ver_records:
            checked += 1
            recomputed_ver = {"object": z.to_dict(), "counters": counters.to_dict()}
            recorded_ver = {"object": ver_records[0]["object"],
                            "counters": ver_records[0]["counters"]}
            if recorded_ver != recomputed_ver:
                return None, _diverge(f"verification[{phase}]", None, recorded_ver, recomputed_ver)
        return state, None

    _, divergence = replay_execution(profile, "initial", None)
    if divergence:
        return ReplayReport(False, divergence, checked)

    repair_records = section("repair")
    if repair_records and repair_records[0].get("accepted"):
        patched = Profile.from_dict(repair_records[0]["parsed"])
        _, divergence = replay_execution(patched, "repair", REPAIR_APPLIED_FLAG)
        if divergence:
            return ReplayReport(False, divergence, checked)

    return ReplayReport(matched=True, divergence=None, sections_checked=checked)
