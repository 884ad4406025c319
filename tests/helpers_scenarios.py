"""Seeded random pipeline scenarios for the boundedness/determinism suites.

Each scenario is a fully scripted run: a generated admissible profile, a
fault-injected tool environment, randomized thresholds and retry budgets, and
a model script assembled by deterministically pre-computing whether the first
verification will recommend repair (the downstream stages are deterministic,
so the prediction is exact).
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

from ptrun.bench import bench_metadata
from ptrun.core import Metadata, Profile, Task
from ptrun.executor import (ExecutionConfig, ExecutionState, RuleBundle, compile_rules,
                            initial_state, run_workflow)
from ptrun.pipeline import RunConfig, ToolEnvironment
from ptrun.router import RouteMode, RouteThresholds, decide_route
from ptrun.semantic import ScriptedModel
from ptrun.tools import ToolRegistry
from ptrun.verifier import verify

KB = [
    {"title": "Alan Turing", "body": "Alan Turing introduced the Turing machine and worked "
                                     "at Bletchley Park on the Enigma cipher.", "links": []},
    {"title": "Turing machine", "body": "An abstract model of computation on an infinite tape.",
     "links": ["Alan Turing"]},
    {"title": "Paris", "body": "Paris is the capital of France.", "links": ["France"]},
    {"title": "France", "body": "France is a country in Western Europe.", "links": ["Paris"]},
    {"title": "Radium", "body": "A radioactive element discovered by Marie Curie.", "links": []},
]

_QUERIES = ("turing machine", "capital france", "radioactive element", "enigma cipher",
            "model computation", "zz_nothing_matches")
_TITLES = ("Alan Turing", "Paris", "Radium", "Missing Article", "Another Missing")
_EXPRESSIONS = ("3 + 4 * 2", "7", "1 + 2 + 3", "10 - 4", "2 * 2 * 2")
_FAULTS = ("timeout", "not_found", "empty_result", "rate_limited", "invalid_params", "ok")


def gen_workflow_steps(rng: random.Random, length: int) -> list[dict]:
    steps = []
    search_keys: list[str] = []
    counts: dict[str, int] = {}
    for _ in range(length):
        tool = rng.choice(("kb_search", "kb_lookup", "calc"))
        counts[tool] = counts.get(tool, 0) + 1
        key = f"{tool}_{counts[tool]}"
        if tool == "kb_search":
            params: dict = {"query": rng.choice(_QUERIES)}
            if rng.random() < 0.7:
                params["limit"] = rng.randint(1, 4)
            steps.append({"tool_id": tool, "params": params, "annotation": {}})
            search_keys.append(key)
        elif tool == "kb_lookup":
            if search_keys and rng.random() < 0.4:
                ref = rng.choice(search_keys)
                params = {"title": {"placeholder": f"result.{ref}.top_title"}}
            else:
                params = {"title": rng.choice(_TITLES)}
            steps.append({"tool_id": tool, "params": params, "annotation": {}})
        else:
            steps.append({"tool_id": tool,
                          "params": {"expression": rng.choice(_EXPRESSIONS)},
                          "annotation": {}})
    return steps


def gen_profile_dict(rng: random.Random, length: int) -> dict:
    steps = gen_workflow_steps(rng, length)
    branch_rules = []
    if rng.random() < 0.5:
        target = rng.randint(1, length)
        tool = steps[target - 1]["tool_id"]
        modifier = {
            "kb_search": "set limit = 2",
            "kb_lookup": 'set title = "Paris"',
            "calc": 'set expression = "1 + 1"',
        }[tool]
        predicate = rng.choice((
            "env.flag == 1",
            "exists(result.kb_search_1)",
            "failed(kb_lookup_1)",
            "result.kb_search_1.count >= 1",
        ))
        branch_rules.append({"predicate": predicate, "modifier": modifier, "target_step": target})
    return {
        "workflow": {"steps": steps},
        "confidence": round(rng.random(), 3),
        "assumptions": [],
        "fragile_points": ["guessed phrasing"] if rng.random() < 0.4 else [],
        "replan_conditions": ["result.kb_search_1.count == 0"] if rng.random() < 0.3 else [],
        "branch_rules": branch_rules,
        "aux_annotations": {},
    }


def gen_fault_scripts(rng: random.Random) -> dict:
    scripts = {}
    for tool in ("kb_search", "kb_lookup", "calc"):
        if rng.random() < 0.6:
            entries = [rng.choice(_FAULTS) for _ in range(rng.randint(1, 4))]
            scripts[tool] = entries
    return scripts


def gen_config(rng: random.Random) -> RunConfig:
    lower = round(rng.uniform(0.05, 0.6), 3)
    upper = round(rng.uniform(lower + 0.05, 0.95), 3)
    return RunConfig(
        thresholds=RouteThresholds(lower=lower, upper=upper),
        recovery_retries=rng.randint(0, 3),
        repair_threshold=round(rng.uniform(0.3, 0.9), 3),
    )


def execute_phase(metadata: Metadata, profile: Profile, cfg: RunConfig,
                  registry: ToolRegistry, task: Task, mode: RouteMode
                  ) -> tuple[ExecutionState, RuleBundle]:
    """Execute a profile as one phase of a run does; returns the final state
    and the rules it ran with. A run's phases share one registry, so fault
    scripts go on where the last phase left them."""
    exec_config = ExecutionConfig(recovery_retries=cfg.recovery_retries,
                                  thin_output_threshold=cfg.thin_output_threshold, mode=mode)
    state = initial_state(task.context)
    rules = compile_rules(metadata, profile)
    run_workflow(profile.workflow, exec_config, registry, state, rules)
    return state, rules


def predict_repair(metadata: Metadata, profile: Profile, cfg: RunConfig,
                   environment: ToolEnvironment, task: Task) -> bool:
    """Deterministically pre-run route + execution + verification on a fresh
    registry to learn whether the pipeline will request a repair call."""
    decision = decide_route(metadata, profile, cfg.weights, cfg.thresholds)
    mode = cfg.mode_override or decision.mode
    state, rules = execute_phase(metadata, profile, cfg, environment.build_registry(), task,
                                 mode)
    z = verify(state, metadata, profile, cfg.penalties, cfg.repair_threshold,
               cfg.thin_output_threshold, rules.constraint_predicates, route_mode=mode)
    return z.repair_recommended


def make_scenario(rng: random.Random, constraint_predicates: tuple[str, ...] = ()) -> dict:
    """One complete scripted scenario; see the module docstring. The bench
    metadata gets the given constraint predicates, which draw nothing from
    ``rng``."""
    metadata = bench_metadata()
    metadata = replace(metadata, constraints=replace(
        metadata.constraints, constraint_predicates=tuple(constraint_predicates)))
    task = Task(objective="What does the knowledge base say?", context={"flag": 1})
    length = rng.randint(1, 8)
    profile_dict = gen_profile_dict(rng, length)
    profile = Profile.from_dict(profile_dict)
    cfg = gen_config(rng)
    environment = ToolEnvironment(articles=tuple(KB), fault_scripts=gen_fault_scripts(rng))

    needs_repair = predict_repair(metadata, profile, cfg, environment, task)
    script = [{"role": "profile", "text": json.dumps(profile_dict)}]
    repair_length = 0
    if needs_repair:
        repair_length = rng.randint(1, 8)
        repair_dict = gen_profile_dict(rng, repair_length)
        script.append({"role": "repair", "text": json.dumps(repair_dict)})
    script.append({"role": "reason", "text": "the stored evidence says enough"})

    return {
        "task": task,
        "metadata": metadata,
        "cfg": cfg,
        "environment": environment,
        "script": script,
        "length": length,
        "repair_length": repair_length,
        "needs_repair": needs_repair,
    }


def build_model(scenario: dict) -> ScriptedModel:
    return ScriptedModel(list(scenario["script"]))
