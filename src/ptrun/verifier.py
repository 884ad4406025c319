"""Post-execution trust assessment from structural trace counters.

The trust score takes a penalty form over counters extracted from the
completed run state and is monotonically non-increasing in every counter.
No semantic content is inspected; a run is judged only on whether its trace
is structurally adequate to support final interpretation and on whether
the metadata's constraint predicates hold over its final state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from . import ruledsl
from .core import Metadata, Profile
from .executor import ExecutionState
from .router import RouteMode


class VerifyStatus(str, enum.Enum):
    OK = "ok"
    DEGRADED = "degraded"
    FAILED = "failed"


@dataclass(frozen=True)
class TraceCounters:
    """Structural degradation counters recomputable from any completed state.
    ``false_predicates`` holds the 1-based indices of the constraint
    predicates that are false; it is not one of the serialized counters."""

    n_fail: int
    n_empty: int
    n_thin: int
    n_branch: int
    delta_diag: float
    hard_failure: bool
    false_predicates: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        return {"n_fail": self.n_fail, "n_empty": self.n_empty, "n_thin": self.n_thin,
                "n_branch": self.n_branch, "delta_diag": self.delta_diag,
                "hard_failure": self.hard_failure}


@dataclass(frozen=True)
class PenaltyCoefficients:
    fail: float = 0.25
    empty: float = 0.10
    thin: float = 0.05
    branch: float = 0.05
    diag: float = 0.15

    def __post_init__(self):
        if any(a < 0 for a in (self.fail, self.empty, self.thin, self.branch, self.diag)):
            raise ValueError("penalty coefficients must be non-negative")

    def to_dict(self) -> dict:
        return {"fail": self.fail, "empty": self.empty, "thin": self.thin,
                "branch": self.branch, "diag": self.diag}

    @classmethod
    def from_dict(cls, data: dict) -> "PenaltyCoefficients":
        return cls(**{k: float(v) for k, v in data.items()})


@dataclass(frozen=True)
class Issue:
    kind: str
    count: int
    detail: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "count": self.count, "detail": self.detail}


@dataclass(frozen=True)
class VerificationObject:
    """Trust score, status label, issues, reasoner flags, repair indicator,
    and the counters the score came from, which ``to_dict`` leaves out."""

    trust: float
    status: VerifyStatus
    issues: tuple[Issue, ...]
    flags: tuple[str, ...]
    repair_recommended: bool
    counters: TraceCounters | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "trust": self.trust,
            "status": self.status.value,
            "issues": [issue.to_dict() for issue in self.issues],
            "flags": list(self.flags),
            "repair_recommended": self.repair_recommended,
        }


DEFAULT_REPAIR_THRESHOLD = 0.60

_FLAG_TEXTS = {
    "failed_steps": "some workflow steps failed or were skipped; expected evidence is missing",
    "empty_outputs": "some tool outputs were empty collections",
    "thin_outputs": "some tool outputs were unusually thin",
    "branch_firings": "parameters were adapted mid-run by branch rules",
    "diagnostic_contradiction": "a constraint predicate was false over the final state",
    "hard_failure": "a hard failure made part of the workflow inexecutable",
    "repair_eligible_route": "the run was routed as repair-eligible on pre-execution risk",
}


def extract_counters(state: ExecutionState, thin_output_threshold: int = 5,
                     predicates: tuple[ruledsl.PredicateAst, ...] = ()) -> TraceCounters:
    """Counters from a completed run state.

    n_fail counts steps whose final outcome is failure or skipped; n_empty
    counts successes storing an empty value; n_thin counts successes below the
    thin-output threshold; n_branch counts branch-rule firings. delta_diag is
    1 when any of the parsed constraint predicates is false over the state,
    else 0; evaluating a predicate never raises.
    """
    n_fail = sum(1 for event in state.trace if event.outcome in ("failure", "skipped"))
    n_empty = 0
    n_thin = 0
    for event in state.trace:
        if event.outcome != "success":
            continue
        value = state.result_store.get(event.stored_key)
        if ruledsl.is_empty_value(value):
            n_empty += 1
        if event.attempts and event.attempts[-1].outcome.output_size < thin_output_threshold:
            n_thin += 1
    false_predicates = tuple(i for i, predicate in enumerate(predicates, start=1)
                             if not ruledsl.eval_predicate(predicate, state))
    return TraceCounters(
        n_fail=n_fail,
        n_empty=n_empty,
        n_thin=n_thin,
        n_branch=len(state.branch_log),
        delta_diag=1.0 if false_predicates else 0.0,
        hard_failure=state.hard_failure(),
        false_predicates=false_predicates,
    )


def trust_score(counters: TraceCounters, coefficients: PenaltyCoefficients) -> float:
    raw = (1.0
           - coefficients.fail * counters.n_fail
           - coefficients.empty * counters.n_empty
           - coefficients.thin * counters.n_thin
           - coefficients.branch * counters.n_branch
           - coefficients.diag * counters.delta_diag)
    return max(0.0, raw)


def repair_indicator(trust: float, hard_failure: bool, repair_threshold: float) -> bool:
    """Repair is recommended exactly when trust falls below the threshold or a
    hard failure occurred."""
    return trust < repair_threshold or hard_failure


def verify(state: ExecutionState, metadata: Metadata, profile: Profile,
           coefficients: PenaltyCoefficients,
           repair_threshold: float = DEFAULT_REPAIR_THRESHOLD,
           thin_output_threshold: int = 5,
           predicates: tuple[ruledsl.PredicateAst, ...] = (),
           route_mode: RouteMode | None = None) -> VerificationObject:
    """Build the verification object for a completed run state.

    The repair indicator is set exactly when trust falls below the repair
    threshold or a hard failure occurred. Every nonzero counter contributes
    an issue, and each issue class contributes one reasoner flag; the
    constraint issue names the false predicates by 1-based index.
    """
    counters = extract_counters(state, thin_output_threshold, predicates)
    trust = trust_score(counters, coefficients)

    issues: list[Issue] = []
    if counters.n_fail:
        issues.append(Issue("failed_steps", counters.n_fail,
                            f"{counters.n_fail} step(s) ended in failure or were skipped"))
    if counters.n_empty:
        issues.append(Issue("empty_outputs", counters.n_empty,
                            f"{counters.n_empty} success(es) stored an empty value"))
    if counters.n_thin:
        issues.append(Issue("thin_outputs", counters.n_thin,
                            f"{counters.n_thin} success(es) below {thin_output_threshold} output tokens"))
    if counters.n_branch:
        issues.append(Issue("branch_firings", counters.n_branch,
                            f"{counters.n_branch} branch rule firing(s)"))
    if counters.false_predicates:
        false = counters.false_predicates
        issues.append(Issue("diagnostic_contradiction", len(false), "constraint predicate(s) "
                            f"{', '.join(map(str, false))} false over the final state"))
    if counters.hard_failure:
        issues.append(Issue("hard_failure", 1, "at least one failure was classified hard"))
    if route_mode == RouteMode.REPAIR_ELIGIBLE:
        issues.append(Issue("repair_eligible_route", 1, "router marked this run repair-eligible"))

    repair_recommended = repair_indicator(trust, counters.hard_failure, repair_threshold)
    if trust < repair_threshold:
        status = VerifyStatus.FAILED
    elif issues:
        status = VerifyStatus.DEGRADED
    else:
        status = VerifyStatus.OK
    flags = tuple(_FLAG_TEXTS[issue.kind] for issue in issues)
    return VerificationObject(
        trust=trust,
        status=status,
        issues=tuple(issues),
        flags=flags,
        repair_recommended=repair_recommended,
        counters=counters,
    )
