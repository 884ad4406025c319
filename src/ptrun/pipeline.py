"""End-to-end orchestration: PROFILE -> ROUTE -> EXECUTE -> VERIFY ->
(REPAIR -> re-EXECUTE -> re-VERIFY) -> REASON.

One run makes exactly one profile call and one reason call, plus at most one
repair call, so completed runs use two or three model calls total. Everything
between the semantic stages is deterministic and is persisted to a JSONL
trace; `replay_trace` runs the same stages again with the recorded model
replies and checks every record they write. The trace header names
the knowledge base by digest; a traced run stores the articles once per
directory in a ``kb/<digest>.json`` side file, and replay takes the KB from
a bounded memo of verified KBs or from that file, after checking its bytes.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import os
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from itertools import zip_longest
from pathlib import Path

from .core import Metadata, Profile, Task, check_admissibility, validate_metadata
from .executor import ExecutionConfig, compile_rules, initial_state, run_workflow
from .router import RiskWeights, RouteMode, RouteThresholds, decide_route
from .semantic import (BudgetExceededError, BudgetLedger, ModelRequest, ModelResponse,
                       PriceEntry, ProfileParseError, Usage, build_profile_prompt,
                       build_profile_retry_prompt, build_reason_prompt, build_repair_prompt,
                       cap_diagnostic, parse_profile_response)
from .tools import KnowledgeBase, ToolRegistry, builtin_registry, check_fault_scripts
from .trace import (SCHEMA_VERSION, TraceSchemaError, TraceWriter, canonical_json, digest,
                    read_trace, structurally_equal, strip_volatile)
# extract_counters is not called here: perfbench's span table wraps
# pipeline.extract_counters, so the name stays importable from this module.
from .verifier import PenaltyCoefficients, extract_counters, verify  # noqa: F401

REPAIR_REJECTED_FLAG = "repair_rejected"
REPAIR_APPLIED_FLAG = "repair_applied"


class RunInvalidError(Exception):
    """Profile unusable after the single corrective retry."""


class ModelCallError(Exception):
    """The model raised instead of answering (a provider, credential or
    script error); the run ends in ``model_error``."""


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
            repair_threshold=float(data.get("repair_threshold", cls.repair_threshold)),
            recovery_retries=int(data.get("recovery_retries", cls.recovery_retries)),
            thin_output_threshold=int(data.get("thin_output_threshold", cls.thin_output_threshold)),
            budget_micros=int(data.get("budget_micros", cls.budget_micros)),
            seed=int(data.get("seed", cls.seed)),
            mode_override=RouteMode(override) if override else None,
            price_table={name: PriceEntry.from_dict(entry) for name, entry in prices.items()},
        )

    def config_hash(self) -> str:
        return digest(self.to_dict())


# Verified knowledge bases by digest, least recently used first, each with
# the size in bytes of its canonical JSON text. Each run adds or refreshes its
# environment's KB, so the KB of an environment in use stays in the memo and
# an environment that never runs holds no place in it; replay adds a side
# file's KB once the file's bytes hash to the digest. A KB is read-only and
# its key is its content, so an entry never goes stale.
KB_MEMO_SIZE = 8
_KB_MEMO: OrderedDict[str, tuple[KnowledgeBase, int]] = OrderedDict()
_KB_MEMO_LOCK = threading.Lock()
_KB_DIGEST = re.compile(r"[0-9a-f]{64}")


def _remember_kb(kb_digest: str, kb: KnowledgeBase, size: int) -> None:
    with _KB_MEMO_LOCK:
        _KB_MEMO[kb_digest] = (kb, size)
        _KB_MEMO.move_to_end(kb_digest)
        if len(_KB_MEMO) > KB_MEMO_SIZE:
            _KB_MEMO.popitem(last=False)


def _memoized_kb(kb_digest: str) -> tuple[KnowledgeBase, int] | None:
    with _KB_MEMO_LOCK:
        entry = _KB_MEMO.get(kb_digest)
        if entry is not None:
            _KB_MEMO.move_to_end(kb_digest)
        return entry


def kb_side_file(trace_path, kb_digest: str) -> str:
    """Where a trace's knowledge base is stored: ``<trace dir>/kb/<digest>.json``."""
    return os.path.join(os.path.dirname(os.fspath(trace_path)), "kb", f"{kb_digest}.json")


def _file_size(path: str) -> int | None:
    try:
        return os.stat(path).st_size
    except OSError:
        return None


@dataclass(frozen=True)
class ToolEnvironment:
    """Tool setup for a run: knowledge-base articles plus optional per-tool
    fault scripts. Trace headers name the KB by digest and embed the fault
    scripts, so replay can build an identical registry.

    The inputs are fixed when the environment is built. The articles are
    read once into one read-only KnowledgeBase that serves every run, and
    the sha256 (``kb_digest``) and size (``kb_size``) of their canonical
    JSON text are computed once; only the fault injectors are built per run.
    The environment also keeps its own copy of each article dict (not of the
    lists inside one) and of the fault scripts, so a caller who later
    changes them changes neither the runs nor their headers. Malformed
    articles or fault scripts raise ValueError here."""

    articles: tuple = ()
    fault_scripts: dict = field(default_factory=dict)
    kb: KnowledgeBase = field(init=False, repr=False, compare=False)
    kb_digest: str = field(init=False, repr=False, compare=False)
    kb_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kb = KnowledgeBase(self.articles)
        check_fault_scripts(self.fault_scripts)
        articles = tuple(map(dict, self.articles))
        try:
            data = canonical_json(articles).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"knowledge base is not JSON: {exc}") from None
        object.__setattr__(self, "kb", kb)
        object.__setattr__(self, "kb_digest", hashlib.sha256(data).hexdigest())
        object.__setattr__(self, "kb_size", len(data))
        object.__setattr__(self, "articles", articles)
        object.__setattr__(self, "fault_scripts", copy.deepcopy(self.fault_scripts))

    @classmethod
    def from_kb_path(cls, path, fault_scripts: dict | None = None) -> "ToolEnvironment":
        kb = KnowledgeBase.load(path)
        return cls(articles=tuple(kb.to_list()), fault_scripts=fault_scripts or {})

    def build_registry(self) -> ToolRegistry:
        return builtin_registry(self.kb, self.fault_scripts)

    def describe(self) -> dict:
        """The header's environment member."""
        return {"kb_digest": self.kb_digest,
                "fault_scripts": {k: list(v) for k, v in self.fault_scripts.items()}}

    def store_kb(self, trace_path) -> None:
        """Write the KB side file of a trace at ``trace_path`` unless it
        exists at ``kb_size`` bytes. Its bytes are the articles' canonical
        JSON text, encoded again here; they are written to a temporary file
        that is then moved into place, so a reader never sees a part. A
        ValueError when they no longer hash to ``kb_digest``: a list inside
        an article was changed in place after the environment was built."""
        path = kb_side_file(trace_path, self.kb_digest)
        if _file_size(path) == self.kb_size:
            return
        data = canonical_json(self.articles).encode("utf-8")
        if hashlib.sha256(data).hexdigest() != self.kb_digest:
            raise ValueError("the articles were changed in place after the environment was "
                             "built; they no longer hash to its kb_digest")
        Path(path).parent.mkdir(exist_ok=True)  # the trace's own directory must exist
        partial = f"{path}.{os.urandom(16).hex()}.tmp"
        try:
            with open(partial, "xb") as fh:
                fh.write(data)
            os.replace(partial, path)
        except BaseException:
            if os.path.exists(partial):
                os.unlink(partial)
            raise


@dataclass
class RunReport:
    outcome: str  # ok | run_invalid | budget_exceeded | model_error
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


class InadmissibleProfileError(ProfileParseError):
    """A reply that parses as a profile the metadata does not admit."""


def _admit(text: str, metadata: Metadata) -> Profile:
    """Parse a profile or repair reply and check its admissibility.

    Raises ProfileParseError when the text holds no profile and
    InadmissibleProfileError, whose diagnostic lists the violations, when the
    profile is not admissible.
    """
    profile = parse_profile_response(text)
    report = check_admissibility(profile, metadata)
    if not report.admissible:
        details = "; ".join(
            f"step {v.step}: {v.kind} ({v.detail})" if v.step else f"{v.kind} ({v.detail})"
            for v in report.violations
        )
        raise InadmissibleProfileError(f"profile is not admissible: {details}")
    return profile


def _reply_record(version: int, kind: str, text: str, profile: Profile | None,
                  **fields) -> dict:
    """The ``profile`` or ``repair`` record of a reply, as trace schema
    ``version`` writes it. From version 3 the reply is stored once, in its
    ``model_call`` record; earlier versions copy an admitted reply into
    ``raw`` and its profile into ``parsed``."""
    record = {"type": kind, **fields}
    if version < 3 and profile is not None:
        record.update(raw=text, parsed=profile.to_dict())
    return record


def _admit_repair(text: str, metadata: Metadata, version: int) -> tuple[Profile | None, dict]:
    """The patched profile a repair reply holds, None when the patch is
    rejected, with the repair record."""
    try:
        patched = _admit(text, metadata)
    except InadmissibleProfileError as exc:
        rejection = exc.diagnostic
    except ProfileParseError as exc:
        rejection = f"parse_error: {exc.diagnostic}"
    else:
        return patched, _reply_record(version, "repair", text, patched, accepted=True)
    return None, _reply_record(version, "repair", text, None, accepted=False, reason=rejection)


def _obtain_profile(task: Task, metadata: Metadata, call) -> tuple[Profile, str, int]:
    """Profile stage: one call, then at most one corrective retry before abort.

    Returns the profile, the admitted reply and the number of attempts.
    """
    prompt = functools.cache(lambda: build_profile_prompt(task, metadata))
    text = call("profile", prompt).text
    try:
        return _admit(text, metadata), text, 1
    except ProfileParseError as exc:
        diagnostic = exc.diagnostic
    text = call("profile", lambda: build_profile_retry_prompt(prompt(), diagnostic)).text
    try:
        return _admit(text, metadata), text, 2
    except ProfileParseError as exc:
        raise RunInvalidError(cap_diagnostic(exc.diagnostic)) from None


def _with_flag(z, flag: str):
    return replace(z, flags=z.flags + (flag,))


def _route(metadata: Metadata, profile: Profile, cfg: RunConfig, writer: TraceWriter
           ) -> tuple[RouteMode, dict]:
    """Route stage: writes the risk and route records; returns the mode and
    the report's route."""
    decision = decide_route(metadata, profile, cfg.weights, cfg.thresholds)
    mode = cfg.mode_override or decision.mode
    writer.write({"type": "risk", "breakdown": decision.breakdown.to_dict()})
    writer.write({"type": "route", "mode": mode.value,
                  "override": cfg.mode_override is not None})
    return mode, {"mode": mode.value, "breakdown": decision.breakdown.to_dict()}


def _execute(task: Task, metadata: Metadata, cfg: RunConfig, registry: ToolRegistry,
             profile: Profile, mode: RouteMode, phase: str, writer: TraceWriter,
             timing: dict | None = None):
    """Execute stage of one phase (``initial`` or ``repair``) of an admitted
    profile: builds its rules, runs its workflow, writes its step records,
    verifies, and writes the verification record, which in the repair phase
    carries the repair_applied flag. Sets the execute and verify durations in
    ``timing`` when one is given; returns the state and the verification
    object."""
    started = time.perf_counter()
    rules = compile_rules(metadata, profile)
    exec_config = ExecutionConfig(recovery_retries=cfg.recovery_retries,
                                  thin_output_threshold=cfg.thin_output_threshold, mode=mode)
    state = initial_state(task.context)
    run_workflow(profile.workflow, exec_config, registry, state, rules)
    execute_s = time.perf_counter() - started
    for event in state.trace:
        writer.write({"type": "step", "phase": phase, "event": event.to_dict()})

    started = time.perf_counter()
    z = verify(state, metadata, profile, cfg.penalties, cfg.repair_threshold,
               cfg.thin_output_threshold, rules.constraint_predicates, route_mode=mode)
    if phase == "repair":
        z = _with_flag(z, REPAIR_APPLIED_FLAG)
    verify_s = time.perf_counter() - started
    writer.write({"type": "verification", "phase": phase,
                  "object": z.to_dict(), "counters": z.counters.to_dict()})
    if timing is not None:
        timing.update(execute=execute_s, verify=verify_s)
    return state, z


def run_ptr(task: Task, metadata: Metadata, cfg: RunConfig, model,
            environment: ToolEnvironment, trace_path: str | None = None) -> RunReport:
    """Run the full bounded pipeline for one task instance.

    Raises ValueError on violated preconditions (invalid metadata, registry
    not covering the catalog); every run-level failure mode (unusable profile,
    budget exhaustion, a model that raises) is reported in the returned
    RunReport and recorded in the trace.
    """
    validate_metadata(metadata).require_valid()
    registry = _covering(environment.build_registry(), metadata)

    _remember_kb(environment.kb_digest, environment.kb, environment.kb_size)
    if trace_path:
        environment.store_kb(trace_path)
    writer = TraceWriter(trace_path)
    try:
        writer.write({
            "type": "header",
            "schema_version": SCHEMA_VERSION,
            "task": task.to_dict(),
            "metadata": metadata.to_dict(),
            "config": cfg.to_dict(),
            "config_hash": cfg.config_hash(),
            "environment": environment.describe(),
        })
        return _run(task, metadata, cfg, _model_caller(model, cfg, writer), registry, writer,
                    SCHEMA_VERSION)
    finally:
        writer.close()


def _covering(registry: ToolRegistry, metadata: Metadata) -> ToolRegistry:
    """The registry; ValueError when it lacks a tool of the metadata's catalog."""
    for spec in metadata.tool_catalog:
        if not registry.has(spec.id):
            raise ValueError(f"registry does not cover catalog tool {spec.id!r}")
    return registry


def _model_caller(model, cfg: RunConfig, writer: TraceWriter):
    """The run's model call: builds the prompt, asks the model and writes
    the call's ``model_call`` record. Any exception the model raises becomes
    a ModelCallError."""
    def call(role: str, prompt) -> ModelResponse:
        text = prompt()
        request = ModelRequest(role=role, prompt=text, temperature=0.0, seed=cfg.seed)
        try:
            response = model.complete(request)
        except Exception as exc:
            raise ModelCallError(f"{role} call raised {type(exc).__name__}: {exc}") from exc
        writer.write({
            "type": "model_call",
            "role": role,
            "prompt": text,
            "response_text": response.text,
            "usage": response.usage.to_dict(),
            "cost_micros": response.cost_micros,
            # provider credentials travel in transport headers only
            "credentials_redacted": True,
        })
        return response
    return call


def _run(task: Task, metadata: Metadata, cfg: RunConfig, call, registry: ToolRegistry,
         writer: TraceWriter, version: int) -> RunReport:
    """The stages of a run after its header, for run and replay alike. The
    model's replies come from ``call(role, prompt)``, where ``prompt`` builds
    the call's prompt when called; ``version`` is the trace schema version
    the stage records follow."""
    ledger = BudgetLedger(limit_micros=cfg.budget_micros)
    timing: dict[str, float] = {}
    repaired, route_dict, answer, verification = False, None, None, None

    def budgeted_call(role: str, prompt) -> ModelResponse:
        response = call(role, prompt)
        ledger.record_and_check(role, response)
        return response

    # Each semantic stage may abort the run; `stage` and `started` name the
    # stage in progress, whose time the abort report records.
    stage, started = "profile", time.perf_counter()
    try:
        # PROFILE (semantic call #1; one corrective retry inside the same stage)
        ledger.count_stage("profile")
        profile, raw_profile, attempts = _obtain_profile(task, metadata, budgeted_call)
        timing["profile"] = time.perf_counter() - started
        writer.write(_reply_record(version, "profile", raw_profile, profile, attempts=attempts))

        # ROUTE, EXECUTE + VERIFY (deterministic)
        route_started = time.perf_counter()
        mode, route_dict = _route(metadata, profile, cfg, writer)
        timing["route"] = time.perf_counter() - route_started
        state, z = _execute(task, metadata, cfg, registry, profile, mode, "initial", writer,
                            timing)

        # REPAIR (optional; at most one semantic call, never more). `repaired`
        # records that the stage was invoked, so it tracks the 2-vs-3-call split
        # even when the patch is rejected; the repair_rejected flag and the trace
        # record say what became of the patch.
        final_state, final_z = state, z
        if z.repair_recommended:
            stage, started = "repair", time.perf_counter()
            ledger.count_stage("repair")
            repaired = True
            text = budgeted_call(
                "repair", lambda: build_repair_prompt(task, metadata, profile, state, z)).text
            patched, record = _admit_repair(text, metadata, version)
            writer.write(record)
            if patched is None:
                final_z = _with_flag(z, REPAIR_REJECTED_FLAG)
            else:
                final_state, final_z = _execute(task, metadata, cfg, registry, patched, mode,
                                                "repair", writer)
            timing["repair"] = time.perf_counter() - started

        # REASON (semantic call #2 or #3)
        stage, started = "reason", time.perf_counter()
        ledger.count_stage("reason")
        answer = budgeted_call(
            "reason", lambda: build_reason_prompt(task, metadata, final_state, final_z)).text
        timing["reason"] = time.perf_counter() - started
    except BudgetExceededError as exc:
        outcome, detail = "budget_exceeded", str(exc)
    except RunInvalidError as exc:
        outcome, detail = "run_invalid", str(exc)
    except ModelCallError as exc:
        outcome, detail = "model_error", str(exc)
    else:
        outcome, verification = "ok", final_z.to_dict()
        writer.write({"type": "reason", "answer": answer})
    if outcome != "ok":
        timing[stage] = time.perf_counter() - started
        writer.write({"type": "abort", "reason": outcome, "detail": detail})
    report = RunReport(
        outcome=outcome, answer=answer, trace_path=writer.path, verification=verification,
        ledger=ledger.summary(), route=route_dict, repaired=repaired, timing=timing,
        model_calls=sum(ledger.stage_counts.values()), raw_model_calls=len(ledger.entries),
    )
    writer.write({"type": "report", "report": report.to_dict()})
    return report


# --- trace replay -----------------------------------------------------------------


@dataclass
class ReplayReport:
    matched: bool
    divergence: dict | None
    sections_checked: int  # records compared: all after the header but model_call

    def to_dict(self) -> dict:
        return {"matched": self.matched, "divergence": self.divergence,
                "sections_checked": self.sections_checked}


def _diverge(section: str, index: int, recorded, recomputed) -> dict:
    try:
        recorded, recomputed = strip_volatile(recorded), strip_volatile(recomputed)
    except RecursionError:
        raise TraceSchemaError(f"{section} record {index} nests values too deeply") from None
    return {"section": section, "index": index, "recorded": recorded, "recomputed": recomputed}


def _read_header(header: dict, source) -> tuple[Task, Metadata, RunConfig, ToolRegistry]:
    """The run inputs a trace header holds, with a registry over the trace's
    KB and fault scripts; TraceSchemaError when one is missing or malformed
    (invalid metadata, a catalog tool the registry lacks, a malformed fault
    script, a version 1 header's malformed embedded KB and a later header's
    KB that cannot be resolved included)."""
    for key in ("task", "metadata", "config", "environment"):
        if not isinstance(header.get(key), dict):
            raise TraceSchemaError(f"trace header has no {key} object")
    environment = header["environment"]
    version = header["schema_version"]
    try:
        task = Task.from_dict(header["task"])
        metadata = Metadata.from_dict(header["metadata"])
        validate_metadata(metadata).require_valid()
        cfg = RunConfig.from_dict(header["config"])
        fault_scripts = environment.get("fault_scripts", {})
        check_fault_scripts(fault_scripts)
        if version == 1:
            if "kb_digest" in environment:
                raise ValueError("a version 1 environment embeds its kb and has no kb_digest")
            kb = KnowledgeBase(environment.get("kb", ()))
        else:
            if "kb" in environment:
                raise ValueError(f"a version {version} environment names its kb by "
                                 "kb_digest and does not embed it")
            kb_digest = environment.get("kb_digest")
            # checked before the digest names a file, so it cannot name another path
            if not (isinstance(kb_digest, str) and _KB_DIGEST.fullmatch(kb_digest)):
                raise ValueError(f"kb_digest {kb_digest!r} is not 64 lowercase hex digits")
            kb = None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise TraceSchemaError(f"trace header is malformed: {reason}") from None
    if kb is None:
        kb = _resolve_kb(environment["kb_digest"], source)
    try:
        registry = _covering(builtin_registry(kb, fault_scripts), metadata)
    except ValueError as exc:
        raise TraceSchemaError(f"trace header is malformed: {exc}") from None
    return task, metadata, cfg, registry


def _resolve_kb(kb_digest: str, source) -> KnowledgeBase:
    """The verified KB a version 2 or 3 header names: from the memo, else,
    for a trace file, from its side file once the file's bytes hash to the digest.
    A trace file takes the memo's KB only while its side file is there at
    the KB's size, a cheap check that a missing or cut side file fails; the
    bytes of a file of that size are not read or hashed again. TraceSchemaError,
    naming the digest or the file, when neither holds the KB or the side
    file is not a valid KB."""
    entry = _memoized_kb(kb_digest)
    if isinstance(source, list):
        if entry is None:
            raise TraceSchemaError(f"knowledge base {kb_digest} is not loaded in this process; "
                                   "replay the trace file beside its kb/ directory")
        return entry[0]
    path = kb_side_file(source, kb_digest)
    if entry is not None and _file_size(path) == entry[1]:
        return entry[0]
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise TraceSchemaError(f"knowledge base {kb_digest} cannot be read from {path}: "
                               f"{exc.strerror}") from None
    if hashlib.sha256(data).hexdigest() != kb_digest:
        raise TraceSchemaError(f"knowledge base file {path} does not hash to its digest")
    try:
        kb = KnowledgeBase(json.loads(data))
    except (ValueError, RecursionError) as exc:
        raise TraceSchemaError(f"knowledge base file {path} is malformed: {exc}") from None
    _remember_kb(kb_digest, kb, len(data))
    return kb


class _Stop(Exception):
    """The recomputed run asked for a model call the trace does not hold next."""


# The keys of a model_call record, as _model_caller writes them.
_MODEL_CALL_KEYS = frozenset(("type", "role", "prompt", "response_text", "usage", "cost_micros",
                              "credentials_redacted"))


class _RecordedCalls:
    """Replay's model call: the reply, usage and cost of the trace's next
    ``model_call`` record, which must be of the role asked for; the prompt
    is never built. Past the last record, the ModelCallError of a recorded
    ``model_error`` abort for that role. Otherwise the recomputation stops."""

    def __init__(self, records: list[dict]):
        self.records = [r for r in records if r.get("type") == "model_call"]
        self.abort = records[-2] if records[-2].get("type") == "abort" else {}
        self.used = 0

    def __call__(self, role: str, prompt) -> ModelResponse:
        if self.used == len(self.records):
            detail = self.abort.get("detail")
            if (self.abort.get("reason") == "model_error"
                    and str(detail).startswith(f"{role} call raised ")):
                raise ModelCallError(detail)
            raise _Stop
        record = self.records[self.used]
        if record.get("role") != role:
            raise _Stop
        text, usage, cost = (record.get("response_text"), record.get("usage"),
                             record.get("cost_micros"))
        if not (record.keys() == _MODEL_CALL_KEYS and record["credentials_redacted"] is True
                and isinstance(text, str) and type(cost) is int and isinstance(usage, dict)
                and usage.keys() == {"input_tokens", "output_tokens"}
                and all(type(n) is int and n >= 0 for n in usage.values())):
            raise TraceSchemaError(
                f"model_call record {self.used} is malformed: it needs exactly the keys "
                f"{', '.join(sorted(_MODEL_CALL_KEYS))}, with a response_text string, a usage "
                "object of two token counts, a cost_micros integer and credentials_redacted true")
        self.used += 1
        return ModelResponse(text, Usage(**usage), cost)


def _section(record: dict) -> str:
    phase = record.get("phase")
    return record["type"] if phase is None else f"{record['type']}[{phase}]"


def _compare(recorded: list[dict], recomputed: list[dict]) -> ReplayReport:
    """Compare two record lists in order. The first pair that differs, or the
    first record one list has beyond the other's end, is the divergence: it
    is named by that record's section and its index inside the section.
    TraceSchemaError when a pair nests values too deeply to compare."""
    for position, (rec, new) in enumerate(zip_longest(recorded, recomputed)):
        try:
            equal = rec is not None and new is not None and structurally_equal(rec, new)
        except RecursionError:
            raise TraceSchemaError(
                f"compared record {position + 1} nests values too deeply") from None
        if not equal:
            side = recorded if new is None else recomputed
            section = _section(side[position])
            index = sum(_section(r) == section for r in side[:position])
            return ReplayReport(False, _diverge(section, index, rec, new), position + 1)
    return ReplayReport(matched=True, divergence=None, sections_checked=len(recorded))


def replay_trace(source) -> ReplayReport:
    """Re-run the trace's run with ``_run``, from its header inputs and its
    recorded model calls, and compare every record after the header but the
    ``model_call`` records with the recomputed ones; wall-clock fields are
    ignored. Reports the first divergence or a full match. A ``model_call``
    record left unused is a divergence in section ``model_call``, and a
    trace that does not end in a report record one in section
    ``incomplete``. Raises TraceSchemaError for a malformed trace, including
    a header whose task, metadata, config or environment is missing or
    malformed, a header whose metadata is invalid, a malformed model_call
    record and a record that nests values too deeply to compare or report."""
    records = read_trace(source)
    if records[-1].get("type") != "report":
        return ReplayReport(False, _diverge("incomplete", len(records) - 1,
                                            records[-1].get("type"), "report"), 0)
    header = records[0]
    task, metadata, cfg, registry = _read_header(header, source)
    calls, recomputed = _RecordedCalls(records), TraceWriter()
    try:
        _run(task, metadata, cfg, calls, registry, recomputed, header["schema_version"])
    except _Stop:
        pass  # the records compared below differ where it stopped
    report = _compare([r for r in records[1:] if r.get("type") != "model_call"],
                      recomputed.records)
    if report.matched and calls.used < len(calls.records):
        return ReplayReport(False, _diverge("model_call", calls.used,
                                            calls.records[calls.used], None),
                            report.sections_checked)
    return report
