"""Bounded profile-then-reason runtime for tool-augmented language agents.

One semantic call synthesizes a workflow, deterministic operators execute and
verify it, at most one repair call patches it, and one final call interprets
the verified trace: two model calls in the nominal case, three in the worst
case, regardless of workflow length.
"""

from .core import (AdmissibilityReport, BranchRule, HistorySummary, Metadata, MetadataReport,
                   Profile, Task, ToolSpec, Workflow, WorkflowStep, check_admissibility,
                   validate_metadata)
from .executor import ExecutionConfig, ExecutionState, run_workflow
from .metrics import BenchmarkItem, compare, exact_match, normalize_answer, token_f1
from .pipeline import (ReplayReport, RunConfig, RunReport, ToolEnvironment, replay_trace,
                       run_ptr)
from .react import run_react_baseline
from .router import RiskWeights, RouteMode, RouteThresholds, compute_risk, route
from .semantic import BudgetLedger, ModelRequest, ModelResponse, ScriptedModel
from .tools import KnowledgeBase, ToolOutcome, ToolRegistry, builtin_registry
from .verifier import PenaltyCoefficients, VerificationObject, trust_score, verify

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport", "BenchmarkItem", "BranchRule", "BudgetLedger",
    "ExecutionConfig", "ExecutionState", "HistorySummary", "KnowledgeBase",
    "Metadata", "MetadataReport", "ModelRequest", "ModelResponse", "PenaltyCoefficients",
    "Profile", "ReplayReport", "RiskWeights", "RouteMode", "RouteThresholds", "RunConfig",
    "RunReport", "ScriptedModel", "Task", "ToolEnvironment", "ToolOutcome",
    "ToolRegistry", "ToolSpec", "VerificationObject", "Workflow", "WorkflowStep",
    "builtin_registry", "check_admissibility", "compare", "compute_risk",
    "exact_match", "normalize_answer", "replay_trace", "route", "run_ptr",
    "run_react_baseline", "run_workflow", "token_f1", "trust_score",
    "validate_metadata", "verify",
]
