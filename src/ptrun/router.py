"""Deterministic risk scoring and execution-mode routing.

Five bounded risk components are combined convexly into a scalar score, and
two thresholds split [0, 1] into the pure / guarded / repair_eligible modes.
The component formulas are this runtime's own definitions; weights and
thresholds are configuration, not code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .core import AutoParam, Metadata, PlaceholderParam, Profile

WEIGHT_SUM_TOLERANCE = 1e-9
NEUTRAL_HISTORY_RISK = 0.5


class RouteMode(str, enum.Enum):
    PURE = "pure"
    GUARDED = "guarded"
    REPAIR_ELIGIBLE = "repair_eligible"


@dataclass(frozen=True)
class RiskWeights:
    """Convex weights over the five risk components."""

    schema: float = 0.2
    planning: float = 0.2
    method: float = 0.2
    scale: float = 0.2
    history: float = 0.2

    def __post_init__(self):
        values = self.as_tuple()
        if any(w <= 0 for w in values):
            raise ValueError("risk weights must be positive")
        if abs(sum(values) - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise ValueError("risk weights must sum to 1")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.schema, self.planning, self.method, self.scale, self.history)

    def to_dict(self) -> dict:
        return {"schema": self.schema, "planning": self.planning, "method": self.method,
                "scale": self.scale, "history": self.history}

    @classmethod
    def from_dict(cls, data: dict) -> "RiskWeights":
        return cls(**{k: float(v) for k, v in data.items()})


@dataclass(frozen=True)
class RouteThresholds:
    """Lower/upper split points for the three execution modes."""

    lower: float = 0.35
    upper: float = 0.70

    def __post_init__(self):
        if not 0.0 < self.lower < self.upper < 1.0:
            raise ValueError("thresholds must satisfy 0 < lower < upper < 1")

    def to_dict(self) -> dict:
        return {"lower": self.lower, "upper": self.upper}

    @classmethod
    def from_dict(cls, data: dict) -> "RouteThresholds":
        return cls(lower=float(data["lower"]), upper=float(data["upper"]))


@dataclass(frozen=True)
class RiskBreakdown:
    """Per-component risk values plus their convex combination."""

    schema: float
    planning: float
    method: float
    scale: float
    history: float
    total: float

    def components(self) -> tuple[float, float, float, float, float]:
        return (self.schema, self.planning, self.method, self.scale, self.history)

    def to_dict(self) -> dict:
        return {"schema": self.schema, "planning": self.planning, "method": self.method,
                "scale": self.scale, "history": self.history, "total": self.total}


@dataclass(frozen=True)
class RouteDecision:
    mode: RouteMode
    breakdown: RiskBreakdown


def _clamp01(x: float) -> float:
    return min(1.0, max(0.0, x))


def compute_components(metadata: Metadata, profile: Profile) -> tuple[float, float, float, float, float]:
    """Five risk components, each in [0, 1], deterministic in (metadata, profile).

    schema:   fraction of workflow param slots that defer resolution (auto or
              placeholder) -- more deferred resolution, more fragility.
    planning: clamp(0.6*(1 - confidence) + 0.2*min(|fragile|,5)/5
              + 0.2*min(|replan|,5)/5).
    method:   fraction of steps carrying at least one branch rule.
    scale:    min(L, 10)/10 for workflow length L.
    history:  prior failure rate when history is present, else the neutral 0.5.
    """
    steps = profile.workflow.steps
    total_slots = sum(len(step.params) for step in steps)
    deferred = sum(
        1
        for step in steps
        for value in step.params.values()
        if isinstance(value, (AutoParam, PlaceholderParam))
    )
    c_schema = deferred / total_slots if total_slots else 0.0

    c_planning = _clamp01(
        0.6 * (1.0 - profile.confidence)
        + 0.2 * min(len(profile.fragile_points), 5) / 5
        + 0.2 * min(len(profile.replan_conditions), 5) / 5
    )

    targeted = {rule.target_step for rule in profile.branch_rules}
    c_method = len(targeted) / len(steps)

    c_scale = min(len(steps), 10) / 10

    if metadata.history is not None:
        c_history = metadata.history.prior_failure_rate
    else:
        c_history = NEUTRAL_HISTORY_RISK

    return (c_schema, c_planning, c_method, c_scale, c_history)


def compute_risk(components: tuple[float, float, float, float, float], weights: RiskWeights) -> float:
    return sum(w * c for w, c in zip(weights.as_tuple(), components))


def route(risk: float, thresholds: RouteThresholds) -> RouteMode:
    if risk < thresholds.lower:
        return RouteMode.PURE
    if risk < thresholds.upper:
        return RouteMode.GUARDED
    return RouteMode.REPAIR_ELIGIBLE


def decide_route(metadata: Metadata, profile: Profile, weights: RiskWeights,
                 thresholds: RouteThresholds) -> RouteDecision:
    components = compute_components(metadata, profile)
    total = compute_risk(components, weights)
    breakdown = RiskBreakdown(*components, total=total)
    return RouteDecision(mode=route(total, thresholds), breakdown=breakdown)
