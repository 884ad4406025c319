"""Command-line interface: run, replay, bench, verify-trace.

Exit codes: 0 success / full match, 2 usage, divergence, a malformed
trace, an unusable input file or a trace that cannot be written,
3 run_invalid, 4 budget_exceeded, 5 model_error.
Provider credentials are read from the environment variable named in the
provider config (default PTRUN_API_KEY) and never appear in traces or
results.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .bench import (Suite, format_table, results_document, run_bench, scripted_model_factory,
                    write_results)
from .core import Metadata, Task, validate_metadata
from .pipeline import ReplayReport, RunConfig, ToolEnvironment, replay_trace, run_ptr
from .semantic import HttpProviderModel, ScriptedModel
from .tools import KnowledgeBase
from .trace import TraceSchemaError, load_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGENCE = 2
EXIT_RUN_INVALID = 3
EXIT_BUDGET = 4
EXIT_MODEL_ERROR = 5

_OUTCOME_EXIT = {"ok": EXIT_OK, "run_invalid": EXIT_RUN_INVALID, "budget_exceeded": EXIT_BUDGET,
                 "model_error": EXIT_MODEL_ERROR}


def bundled_data(name: str) -> Path:
    return Path(str(resources.files("ptrun").joinpath("data", name)))


class UsageError(Exception):
    """A bad argument or an input file that cannot be used; the CLI prints it
    on one line and exits 2."""


def _input(label: str, path: str | Path, build=lambda raw: raw):
    """Load one JSON input file and build from it; any failure to read,
    parse or build, JSON nested too deeply included, becomes a UsageError
    naming the file."""
    try:
        return build(load_json(path))
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise UsageError(f"{label} file {path}: {reason}") from None


def _config(raw) -> tuple[RunConfig, dict]:
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    return RunConfig.from_dict(raw), raw.get("providers", {})


def _metadata(raw) -> Metadata:
    metadata = Metadata.from_dict(raw)
    validate_metadata(metadata).require_valid()
    return metadata


def _build_model(spec: str, cfg: RunConfig, providers: dict):
    kind, _, detail = spec.partition(":")
    if kind == "scripted" and detail:
        return _input("script", detail,
                      lambda entries: ScriptedModel(entries, price=cfg.price_for("scripted")))
    if kind == "provider" and detail:
        if not isinstance(providers, dict):
            raise UsageError("config providers must be an object of provider entries")
        provider = providers.get(detail)
        if provider is None:
            raise UsageError(f"config has no provider entry named {detail!r}")
        if not (isinstance(provider, dict)
                and all(isinstance(provider.get(key), str) for key in ("endpoint", "model"))
                and isinstance(provider.get("api_key_env", ""), str)):
            raise UsageError(f"provider entry {detail!r} needs string endpoint and model "
                             "fields and an optional string api_key_env")
        return HttpProviderModel(
            endpoint=provider["endpoint"],
            model=provider["model"],
            price=cfg.price_for(provider["model"]),
            api_key_env=provider.get("api_key_env", "PTRUN_API_KEY"),
        )
    raise UsageError(f"--model must be scripted:<script-file> or provider:<id>, got {spec!r}")


def _environment(kb_path: str | None, fault_scripts_path: str | None) -> ToolEnvironment:
    kb = _input("knowledge-base", kb_path or bundled_data("kb.json"), KnowledgeBase)
    articles = tuple(kb.to_list())
    if not fault_scripts_path:
        return ToolEnvironment(articles=articles)
    return _input("fault-script", fault_scripts_path,
                  lambda faults: ToolEnvironment(articles=articles, fault_scripts=faults))


def cmd_run(args) -> int:
    cfg, providers = _input("config", args.config, _config)
    task = _input("task", args.task_file, Task.from_dict)
    metadata = _input("metadata", args.metadata, _metadata)
    model = _build_model(args.model, cfg, providers)
    environment = _environment(args.kb, args.fault_scripts)
    try:
        report = run_ptr(task, metadata, cfg, model, environment, trace_path=args.trace_out)
    except OSError as exc:  # the trace or its kb/ side file cannot be written
        raise UsageError(f"cannot write trace {args.trace_out}: {exc.strerror or exc}") from None
    except ValueError as exc:  # the registry does not cover the metadata's catalog
        raise UsageError(f"metadata file {args.metadata}: {exc}") from None
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return _OUTCOME_EXIT[report.outcome]


def _print_replay(report: ReplayReport) -> int:
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return EXIT_OK if report.matched else EXIT_DIVERGENCE


def _replay_file(path: str) -> ReplayReport | None:
    """Replay a trace file; a malformed one gets a one-line error and None."""
    try:
        return replay_trace(path)
    except TraceSchemaError as exc:
        print(f"error: malformed trace {path}: {exc}", file=sys.stderr)
        return None


def cmd_replay(args) -> int:
    report = _replay_file(args.trace)
    return EXIT_DIVERGENCE if report is None else _print_replay(report)


def cmd_verify_trace(args) -> int:
    report = _replay_file(args.trace)
    if report is None:
        return EXIT_DIVERGENCE
    if report.matched:
        print(f"trace verified: {report.sections_checked} records match")
        return EXIT_OK
    divergence = report.divergence or {}
    print(f"trace diverged at {divergence.get('section')} (index {divergence.get('index')})")
    return EXIT_DIVERGENCE


def cmd_bench(args) -> int:
    cfg, providers = _input("config", args.config, _config)
    suite = _input("suite", args.suite, lambda raw: Suite.from_dict(raw, str(args.suite)))
    kind, _, detail = args.model.partition(":")
    scripted = kind == "scripted"
    if scripted:
        factory = _input("scriptbook", detail, scripted_model_factory)
    else:
        # A bad spec or provider entry stops the command here, not item by item.
        _build_model(args.model, cfg, providers)

        def factory(framework: str, item_id: str):
            return _build_model(args.model, cfg, providers)
    environment = _environment(args.kb, None)
    ptr_result, react_result, comparison = run_bench(suite, cfg, factory, environment,
                                                     scripted=scripted)
    document = results_document(suite, cfg, ptr_result, react_result, comparison)
    if args.out:
        write_results(document, args.out)
    print(format_table(document))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptrun",
        description="Bounded profile-then-reason runtime for tool-augmented agents",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one task through the bounded pipeline")
    run_p.add_argument("--task-file", required=True, help="task JSON (objective/data_ref/context)")
    run_p.add_argument("--metadata", required=True, help="metadata JSON (schema/tools/constraints)")
    run_p.add_argument("--config", required=True, help="run configuration JSON")
    run_p.add_argument("--model", required=True, help="scripted:<script-file> or provider:<id>")
    run_p.add_argument("--trace-out", required=True, help="JSONL trace output path")
    run_p.add_argument("--kb", help="knowledge-base JSON (default: bundled corpus)")
    run_p.add_argument("--fault-scripts", help="per-tool fault script JSON (testing)")
    run_p.set_defaults(func=cmd_run)

    replay_p = sub.add_parser("replay", help="recompute a trace's deterministic stages")
    replay_p.add_argument("--trace", required=True)
    replay_p.set_defaults(func=cmd_replay)

    verify_p = sub.add_parser("verify-trace", help="exit nonzero when a trace diverges on replay")
    verify_p.add_argument("--trace", required=True)
    verify_p.set_defaults(func=cmd_verify_trace)

    bench_p = sub.add_parser("bench", help="evaluate both frameworks over a suite")
    bench_p.add_argument("--suite", required=True, help="benchmark suite JSON")
    bench_p.add_argument("--config", required=True, help="run configuration JSON")
    bench_p.add_argument("--model", required=True,
                         help="scripted:<scriptbook-file> or provider:<id>")
    bench_p.add_argument("--out", help="results JSON output path")
    bench_p.add_argument("--kb", help="knowledge-base JSON (default: bundled corpus)")
    bench_p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
