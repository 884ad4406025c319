"""Workload generators for the ptrun benchmark.

A workload is a list of items. Each item is the ops one closed-loop caller
sends in order: a ``run_ptr``, a ``replay_trace`` and a
``run_react_baseline`` call, each with a check of its output. All inputs come from
the seed; the program sees only the generated tasks, metadata, scripts, KB
files and fault scripts.

Every ptrun import happens inside ``build`` so that the benchmark can drop
the package from ``sys.modules`` and time a fresh import as part of set-up.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

REFERENCE_PATH = Path(__file__).resolve().parent / "desk_reference.json"

# kind -> (module, attribute) of the public API call the op makes. The
# runner looks the function up on every call, so a tracer patch is seen.
API = {
    "run": ("ptrun.pipeline", "run_ptr"),
    "react": ("ptrun.react", "run_react_baseline"),
    "replay": ("ptrun.pipeline", "replay_trace"),
}

SIZES = {
    "full": {"kb_articles": 500, "kb_targets": 16, "lw_profiles": 24,
             "lw_min_steps": 50, "lw_max_steps": 200},
    "tiny": {"kb_articles": 100, "kb_targets": 4, "lw_profiles": 3,
             "lw_min_steps": 8, "lw_max_steps": 16},
}


@dataclass
class Op:
    """One public API call: ``make_args`` builds fresh arguments (a new
    scripted model each time) outside the timed region, ``check`` returns
    True when the output is correct."""

    kind: str
    make_args: Callable[[], tuple]
    check: Callable[[object], bool]


@dataclass
class Workload:
    params: dict
    items: list[list[Op]] = field(default_factory=list)


def build(name: str, seed: int, size: str, workdir: Path) -> Workload:
    """Import ptrun and build the named workload from the seed."""
    return BUILDERS[name](random.Random(seed), SIZES[size], workdir)


def _data_dir() -> Path:
    import ptrun
    return Path(ptrun.__file__).parent / "data"


def _model(entries):
    from ptrun.semantic import ScriptedModel
    return ScriptedModel(entries)


def _run_check(expected_calls: int, expected_answer: str):
    def check(report) -> bool:
        return (report.outcome == "ok" and report.model_calls in (2, 3)
                and report.model_calls == expected_calls
                and report.answer == expected_answer)
    return check


def _react_check(expected_calls: int, expected_answer: str):
    def check(report) -> bool:
        return (report.outcome == "ok" and report.model_calls == expected_calls
                and report.answer == expected_answer)
    return check


def _replay_matched(report) -> bool:
    return report.matched


def _react_script(actions: list[str], answer: str) -> list[dict]:
    lines = [f"Thought: next step.\nAction: {action}" for action in actions]
    lines.append(f"Thought: done.\nAction: finish[{answer}]")
    return [{"role": "react", "text": text} for text in lines]


# --- desk-suite ---------------------------------------------------------------


def _desk_suite(rng: random.Random, size: dict, workdir: Path) -> Workload:
    """The bundled 10-item suite, scripts and 14-article KB, as ``run_bench``
    drives them: run_ptr and the ReAct baseline with traces in memory, plus a
    replay of each item's trace written once during set-up."""
    from ptrun.bench import bench_metadata, load_scriptbook, load_suite
    from ptrun.metrics import exact_match
    from ptrun.pipeline import RunConfig, ToolEnvironment, run_ptr
    from ptrun.core import Task

    data = _data_dir()
    suite = load_suite(data / "suite.json")
    scripts = load_scriptbook(data / "scripts.json")
    environment = ToolEnvironment.from_kb_path(data / "kb.json")
    with open(data / "config.json", encoding="utf-8") as fh:
        cfg = RunConfig.from_dict(json.load(fh))
    metadata = bench_metadata()
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)["items"]

    items = list(suite.items)
    rng.shuffle(items)
    workload = Workload({"suite_items": len(items),
                         "kb_articles": len(environment.articles),
                         "item_order": [item.id for item in items]})
    for item in items:
        task = Task(objective=item.question)
        trace_path = str(workdir / f"desk-{item.id}.jsonl")
        run_ptr(task, metadata, cfg, _model(scripts[item.id]["ptr"]), environment,
                trace_path=trace_path)
        ref = reference[item.id]

        def answer_check(framework, item=item, ref=ref):
            expected = ref[framework]

            def check(report) -> bool:
                return (report.outcome == "ok" and report.answer == expected["answer"]
                        and report.model_calls == expected["model_calls"]
                        and exact_match(report.answer, item) == expected["em"])
            return check

        workload.items.append([
            Op("run", lambda task=task, item=item: (
                task, metadata, cfg, _model(scripts[item.id]["ptr"]), environment),
               answer_check("ptr")),
            Op("replay", lambda path=trace_path: (path,), _replay_matched),
            Op("react", lambda task=task, item=item: (
                task, metadata, cfg, _model(scripts[item.id]["react"]), environment),
               answer_check("react")),
        ])
    return workload


# --- kb-large -----------------------------------------------------------------


def _word(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(4, 9)))


def _kb_large(rng: random.Random, size: dict, workdir: Path) -> Workload:
    """A synthetic KB far larger than the per-run work. Each item searches for
    three tokens: all three are planted in one target article, the third also
    in four decoys, so the exact ranking (-overlap, title) is known. The run
    looks the top hit up through a placeholder; the trace goes to disk and is
    replayed."""
    from ptrun.bench import bench_metadata
    from ptrun.core import Task
    from ptrun.pipeline import RunConfig, ToolEnvironment

    n_articles = size["kb_articles"]
    vocabulary = sorted({_word(rng) for _ in range(600)})
    titles = [f"Entry {i:04d} {rng.choice(vocabulary)}" for i in range(n_articles)]
    targets = rng.sample(range(n_articles), size["kb_targets"])
    planted: dict[int, list[str]] = {}
    expected_hits = {}
    for t in targets:
        decoys = rng.sample([i for i in range(n_articles) if i != t], 4)
        planted.setdefault(t, []).extend((f"pin{t}a", f"pin{t}b", f"pin{t}c"))
        for d in decoys:
            planted.setdefault(d, []).append(f"pin{t}c")
        expected_hits[t] = [titles[t]] + sorted(titles[d] for d in decoys)[:2]
    articles = []
    for i, title in enumerate(titles):
        words = [rng.choice(vocabulary) for _ in range(rng.randint(30, 50))]
        body = " ".join(words + planted.get(i, [])) + "."
        links = rng.sample(titles, rng.randint(0, 2))
        articles.append({"title": title, "body": body, "links": links})
    kb_path = workdir / "kb-large.json"
    kb_path.write_text(json.dumps(articles), encoding="utf-8")

    environment = ToolEnvironment.from_kb_path(kb_path)
    metadata = bench_metadata()
    cfg = RunConfig()
    trace_path = str(workdir / "kb-large.jsonl")
    workload = Workload({"kb_articles": n_articles, "items": len(targets), "steps_per_run": 2,
                         "kb_file_bytes": kb_path.stat().st_size})
    for t in targets:
        query = f"pin{t}a pin{t}b pin{t}c"
        title, body = titles[t], articles[t]["body"]
        task = Task(objective=f"What does the knowledge base say about {query}?")
        profile = {
            "workflow": {"steps": [
                {"tool_id": "kb_search", "params": {"query": query, "limit": 3}, "annotation": {}},
                {"tool_id": "kb_lookup",
                 "params": {"title": {"placeholder": "result.kb_search_1.top_title"}},
                 "annotation": {}},
            ]},
            "confidence": 0.9, "assumptions": [], "fragile_points": [],
            "replan_conditions": [], "branch_rules": [], "aux_annotations": {},
        }
        ptr_script = [{"role": "profile", "text": json.dumps(profile)},
                      {"role": "reason", "text": title}]
        react_script = _react_script([f"kb_search[{query}]", f"kb_lookup[{title}]"], title)
        run_ok = _run_check(2, title)

        def run_check(report, body=body, hits=expected_hits[t], run_ok=run_ok) -> bool:
            if not run_ok(report):
                return False
            stored = _stored_values(report.trace_path)
            return (stored.get("kb_search_1", {}).get("titles") == hits
                    and stored.get("kb_lookup_1", {}).get("body") == body)

        workload.items.append([
            Op("run", lambda task=task, script=ptr_script: (
                task, metadata, cfg, _model(script), environment, trace_path), run_check),
            Op("replay", lambda: (trace_path,), _replay_matched),
            Op("react", lambda task=task, script=react_script: (
                task, metadata, cfg, _model(script), environment),
               _react_check(len(react_script), title)),
        ])
    return workload


def _stored_values(trace_path: str) -> dict:
    """Values the successful steps stored, by store key, read from the trace's
    step records (the header line, which embeds the KB, is skipped unparsed)."""
    stored = {}
    with open(trace_path, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            record = json.loads(line)
            if record.get("type") == "step" and record["event"]["outcome"] == "success":
                event = record["event"]
                stored[event["stored_key"]] = event["attempts"][-1]["outcome"]["value"]
    return stored


# --- long-workflow ------------------------------------------------------------

LW_QUERIES = ("turing machine", "capital france", "analytical engine", "grace hopper cobol",
              "marie curie radium", "bletchley park enigma", "moon landing",
              "python programming language", "ada lovelace algorithm", "charles babbage")
LW_MISSING_TITLES = ("Missing Article", "Atlantis")
LW_EXPRESSIONS = ("3 + 4 * 2", "10 - 4", "2 * 2 * 2", "1 + 2 + 3")
LW_MODIFIERS = {"kb_search": "set limit = 2", "kb_lookup": 'set title = "Paris"',
                "calc": 'set expression = "1 + 1"'}

# Branch predicates over the trace, failure and branch roots. On a run whose
# faults are all recovered the "quiet" ones are false; the "firing" ones are
# mostly true. {j}: an earlier trace position, {k}: a failure-log position,
# {key}: the store key of the step at position j.
QUIET_PREDICATES = (
    'trace.{j}.outcome == "failure"',
    'trace.{j}.outcome == "skipped" or failure.{k}.classified == "hard"',
    "branch.0.step > 0",
    'not (trace.{j}.stored_key == "{key}")',
    "exists(failure.{k}) and trace.{j}.attempts.0.outcome.ok == false and exists(branch.0)",
)
FIRING_PREDICATES = (
    'trace.{j}.outcome == "success"',
    "exists(failure.0)",
    "exists(branch.0) or trace.{j}.attempts.0.outcome.ok == false",
)


def _lw_metadata():
    from ptrun.bench import bench_metadata
    from ptrun.core import AutoRuleSpec, Metadata, RecoverySpec, RuleSet

    base = bench_metadata()
    rules = RuleSet(
        auto_rules=(AutoRuleSpec("top_hit", 'result.kb_search_1.top_title ?? "Paris"'),),
        recovery_rules=(RecoverySpec("timeout", ""), RecoverySpec("rate_limited", "")),
    )
    return Metadata(schema={}, tool_catalog=base.tool_catalog, constraints=rules)


def _lw_profile(rng: random.Random, length: int, quiet: bool, titles: list[str]) -> dict:
    """A profile of `length` steps. Every block of nine steps holds four
    searches and five lookups (four and a calc when not quiet), so the cost of
    a profile follows its length rather than the seed. Quiet profiles use no
    calc (its outputs are thin), no missing titles and non-firing predicates."""
    block = ["kb_search"] * 4 + ["kb_lookup"] * (5 if quiet else 4) + ([] if quiet else ["calc"])
    tools: list[str] = []
    while len(tools) < length:
        rng.shuffle(block)
        tools += block
    tools = ["kb_search"] + tools[:length - 1]

    steps, keys, searches, counts = [], [], [], {}
    for tool in tools:
        counts[tool] = counts.get(tool, 0) + 1
        key = f"{tool}_{counts[tool]}"
        if tool == "kb_search":
            params: dict = {"query": rng.choice(LW_QUERIES)}
            if rng.random() < 0.5:
                params["limit"] = rng.randint(1, 4)
            searches.append(key)
        elif tool == "kb_lookup":
            r = rng.random()
            if r < 0.4:
                params = {"title": {"placeholder": f"result.{rng.choice(searches)}.top_title"}}
            elif r < 0.55:
                params = {"title": {"auto": "top_hit"}}
            elif not quiet and r < 0.7:
                params = {"title": rng.choice(LW_MISSING_TITLES)}
            else:
                params = {"title": rng.choice(titles)}
        else:
            params = {"expression": rng.choice(LW_EXPRESSIONS)}
        steps.append({"tool_id": tool, "params": params, "annotation": {}})
        keys.append(key)

    templates = QUIET_PREDICATES if quiet else FIRING_PREDICATES
    branch_rules = []
    for target in sorted(rng.sample(range(3, length + 1), round(0.7 * (length - 2)))):
        j = rng.randrange(target - 1)
        predicate = rng.choice(templates).format(j=j, k=rng.randrange(4), key=keys[j])
        branch_rules.append({"predicate": predicate,
                             "modifier": LW_MODIFIERS[tools[target - 1]],
                             "target_step": target})
    return {
        "workflow": {"steps": steps},
        "confidence": round(rng.uniform(0.3, 0.6), 3),
        "assumptions": [],
        "fragile_points": ["long plan"],
        "replan_conditions": ["failed(kb_search_1)", "exists(failure.5)"],
        "branch_rules": branch_rules,
        "aux_annotations": {},
    }


def _lw_faults(rng: random.Random, profile: dict, quiet: bool) -> dict:
    """Per-tool fault scripts. Every tool gets isolated timeouts and rate
    limits, which one retry recovers. When not quiet, lookups and calc also
    get bursts that exhaust the retries and unrecoverable not_found faults.
    Searches never fail for good, so placeholders that read them resolve and
    no run halts on a hard failure."""
    scripts = {}
    for tool in ("kb_search", "kb_lookup", "calc"):
        calls = sum(1 for s in profile["workflow"]["steps"] if s["tool_id"] == tool)
        lasting = not quiet and tool != "kb_search"
        entries: list = []
        while len(entries) < calls:
            r = rng.random()
            if entries and entries[-1] != "ok":
                entries.append("ok")
            elif r < 0.1:
                entries.append(rng.choice(("timeout", "rate_limited")))
            elif lasting and r < 0.13:
                entries += ["timeout"] * 3
            elif lasting and r < 0.16:
                entries.append("not_found")
            else:
                entries.append("ok")
        if any(entry != "ok" for entry in entries):
            scripts[tool] = entries
    return scripts


def _lw_react_actions(index: int, titles: list[str]) -> list[str]:
    """Three searches and four lookups, alternating. The queries and titles
    rotate with the item's index, not with the seed, so every seed times the
    same set of ReAct runs and react_p50_us follows the code, not the draw."""
    queries = [LW_QUERIES[(3 * index + k) % len(LW_QUERIES)] for k in range(3)]
    looked_up = [titles[(4 * index + k) % len(titles)] for k in range(4)]
    actions = [f"kb_lookup[{looked_up[0]}]"]
    for query, title in zip(queries, looked_up[1:]):
        actions += [f"kb_search[{query}]", f"kb_lookup[{title}]"]
    return actions


def _predicted_calls(task, metadata, profile, cfg, environment) -> tuple[int, str]:
    """Route, execute and verify once, as run_ptr will, to learn whether the
    run asks for a repair (three model calls) or not (two)."""
    from ptrun.executor import ExecutionConfig, compile_rules, initial_state, run_workflow
    from ptrun.router import decide_route
    from ptrun.verifier import verify

    mode = decide_route(metadata, profile, cfg.weights, cfg.thresholds).mode
    exec_config = ExecutionConfig(recovery_retries=cfg.recovery_retries,
                                  thin_output_threshold=cfg.thin_output_threshold, mode=mode)
    state = initial_state(task.context)
    run_workflow(profile.workflow, exec_config, environment.build_registry(), state,
                 compile_rules(metadata, profile))
    z = verify(state, metadata, profile, cfg.penalties, cfg.repair_threshold,
               cfg.thin_output_threshold, route_mode=mode)
    return (3 if z.repair_recommended else 2), mode.value


def _long_workflow(rng: random.Random, size: dict, workdir: Path) -> Workload:
    """Profiles of 50-200 steps over the bundled KB with branch rules on every
    few steps, metadata auto and recovery rules, and fault scripts. Lengths
    are spread evenly over the range; every other profile is quiet (its
    faults are recovered, so it needs no repair)."""
    from ptrun.core import Profile, Task
    from ptrun.pipeline import RunConfig, ToolEnvironment

    data = _data_dir()
    base_env = ToolEnvironment.from_kb_path(data / "kb.json")
    titles = [article["title"] for article in base_env.articles]
    metadata = _lw_metadata()
    cfg = RunConfig()
    task = Task(objective="Collect what the knowledge base says about early computing.",
                context={"topic": "computing"})
    trace_path = str(workdir / "long-workflow.jsonl")

    n, lo, hi = size["lw_profiles"], size["lw_min_steps"], size["lw_max_steps"]
    plans = [(lo + round((hi - lo) * i / max(n - 1, 1)), i % 2 == 0) for i in range(n)]
    rng.shuffle(plans)
    steps, calls, modes, rules = [], [], [], []
    workload = Workload({"kb_articles": len(titles), "profiles": n})
    for index, (length, quiet) in enumerate(plans):
        profile_dict = _lw_profile(rng, length, quiet, titles)
        environment = ToolEnvironment(articles=base_env.articles,
                                      fault_scripts=_lw_faults(rng, profile_dict, quiet))
        expected, mode = _predicted_calls(task, metadata, Profile.from_dict(profile_dict),
                                          cfg, environment)
        script = [{"role": "profile", "text": json.dumps(profile_dict)}]
        if expected == 3:
            repair = _lw_profile(rng, max(length // 4, 3), True, titles)
            script.append({"role": "repair", "text": json.dumps(repair)})
        script.append({"role": "reason", "text": "done"})
        steps.append(length)
        rules.append(len(profile_dict["branch_rules"]))
        calls.append(expected)
        modes.append(mode)

        react_script = _react_script(_lw_react_actions(index, titles), "done")

        workload.items.append([
            Op("run", lambda script=script, environment=environment: (
                task, metadata, cfg, _model(script), environment, trace_path),
               _run_check(expected, "done")),
            Op("replay", lambda: (trace_path,), _replay_matched),
            Op("react", lambda script=react_script: (
                task, metadata, cfg, _model(script), base_env),
               _react_check(len(react_script), "done")),
        ])
    workload.params.update(steps=steps, branch_rules=rules, predicted_model_calls=calls,
                           route_modes=modes)
    return workload


BUILDERS = {"desk-suite": _desk_suite, "kb-large": _kb_large, "long-workflow": _long_workflow}
