import collections
import copy
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ptrun
from ptrun import pipeline, semantic
from ptrun.cli import (EXIT_BUDGET, EXIT_DIVERGENCE, EXIT_MODEL_ERROR, EXIT_OK,
                       EXIT_RUN_INVALID, EXIT_USAGE, bundled_data, main)
from ptrun.tools import KnowledgeBase


@pytest.fixture
def demo_args(tmp_path):
    return {
        "task": str(bundled_data("demo_task.json")),
        "metadata": str(bundled_data("demo_metadata.json")),
        "config": str(bundled_data("config.json")),
        "script": str(bundled_data("demo_script.json")),
        "trace": str(tmp_path / "trace.jsonl"),
    }


# JSON nesting that every supported Python's decoder refuses with a
# RecursionError (3.13's takes about 10,000 levels, 3.11's about 1,000).
DEEPER_THAN_ANY_DECODER = 100_000


def run_cli(*argv):
    return main(list(argv))


class TestRunCommand:
    def test_successful_run(self, demo_args, capsys):
        code = run_cli("run", "--task-file", demo_args["task"],
                       "--metadata", demo_args["metadata"],
                       "--config", demo_args["config"],
                       "--model", f"scripted:{demo_args['script']}",
                       "--trace-out", demo_args["trace"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["outcome"] == "ok"
        assert report["answer"] == "Alan Turing"
        assert report["model_calls"] == 2

    def test_run_invalid_exit_code(self, demo_args, tmp_path, capsys):
        bad_script = tmp_path / "bad.json"
        bad_script.write_text(json.dumps([
            {"role": "profile", "text": "nope"},
            {"role": "profile", "text": "still nope"},
        ]))
        code = run_cli("run", "--task-file", demo_args["task"],
                       "--metadata", demo_args["metadata"],
                       "--config", demo_args["config"],
                       "--model", f"scripted:{bad_script}",
                       "--trace-out", demo_args["trace"])
        assert code == EXIT_RUN_INVALID

    def test_budget_exceeded_exit_code(self, demo_args, tmp_path, capsys):
        config = json.loads(bundled_data("config.json").read_text())
        config["budget_micros"] = 1
        config["price_table"] = {"default": {"input_micros_per_1k": 0,
                                             "output_micros_per_1k": 0},
                                 "scripted": {"input_micros_per_1k": 10**6,
                                              "output_micros_per_1k": 10**6}}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code = run_cli("run", "--task-file", demo_args["task"],
                       "--metadata", demo_args["metadata"],
                       "--config", str(config_path),
                       "--model", f"scripted:{demo_args['script']}",
                       "--trace-out", demo_args["trace"])
        assert code == EXIT_BUDGET

    def test_exhausted_script_exits_5(self, demo_args, tmp_path, capsys):
        script = json.loads(bundled_data("demo_script.json").read_text())[:1]
        script_path = tmp_path / "short.json"
        script_path.write_text(json.dumps(script))
        code = run_cli("run", "--task-file", demo_args["task"],
                       "--metadata", demo_args["metadata"],
                       "--config", demo_args["config"],
                       "--model", f"scripted:{script_path}",
                       "--trace-out", demo_args["trace"])
        assert code == EXIT_MODEL_ERROR == 5
        assert json.loads(capsys.readouterr().out)["outcome"] == "model_error"
        assert run_cli("verify-trace", "--trace", demo_args["trace"]) == EXIT_OK

    def test_provider_without_credentials_exits_5(self, demo_args, tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.delenv("PTRUN_TEST_UNSET_KEY", raising=False)
        config = json.loads(bundled_data("config.json").read_text())
        # the missing key is reported before any request is built
        config["providers"] = {"local": {"endpoint": "http://127.0.0.1:9/", "model": "m",
                                         "api_key_env": "PTRUN_TEST_UNSET_KEY"}}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code = run_cli("run", "--task-file", demo_args["task"],
                       "--metadata", demo_args["metadata"],
                       "--config", str(config_path),
                       "--model", "provider:local",
                       "--trace-out", demo_args["trace"])
        assert code == EXIT_MODEL_ERROR
        report = json.loads(capsys.readouterr().out)
        assert report["outcome"] == "model_error" and report["model_calls"] == 1
        assert run_cli("verify-trace", "--trace", demo_args["trace"]) == EXIT_OK

    def test_provider_reply_without_text_exits_5(self, demo_args, tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.setenv("PTRUN_TEST_KEY", "secret")
        monkeypatch.setattr(semantic.HttpProviderModel, "_requests_transport",
                            lambda self, payload, headers: {
                                "choices": [{"message": {"content": None}}]})
        config = json.loads(bundled_data("config.json").read_text())
        config["providers"] = {"local": {"endpoint": "http://127.0.0.1:9/", "model": "m",
                                         "api_key_env": "PTRUN_TEST_KEY"}}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        code = run_cli("run", "--task-file", demo_args["task"],
                       "--metadata", demo_args["metadata"],
                       "--config", str(config_path),
                       "--model", "provider:local",
                       "--trace-out", demo_args["trace"])
        assert code == EXIT_MODEL_ERROR
        assert json.loads(capsys.readouterr().out)["outcome"] == "model_error"
        assert run_cli("verify-trace", "--trace", demo_args["trace"]) == EXIT_OK

    def test_bad_model_spec(self, demo_args):
        assert run_cli("run", "--task-file", demo_args["task"],
                       "--metadata", demo_args["metadata"],
                       "--config", demo_args["config"],
                       "--model", "telepathy",
                       "--trace-out", demo_args["trace"]) == EXIT_USAGE


class TestModelSpecErrors:
    """A bad --model spec or provider entry gives one error line and exit 2."""

    def run_with(self, demo_args, tmp_path, model, providers=None, command="run"):
        config = json.loads(bundled_data("config.json").read_text())
        if providers is not None:
            config["providers"] = providers
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        if command == "bench":
            return run_cli("bench", "--suite", str(bundled_data("suite.json")),
                           "--config", str(config_path), "--model", model)
        return run_cli("run", "--task-file", demo_args["task"],
                       "--metadata", demo_args["metadata"],
                       "--config", str(config_path),
                       "--model", model,
                       "--trace-out", demo_args["trace"])

    @pytest.mark.parametrize("model, providers, message", [
        ("bogus", None, "--model must be scripted:<script-file> or provider:<id>"),
        ("provider:nope", {"local": {"endpoint": "http://127.0.0.1:9/", "model": "m"}},
         "no provider entry named 'nope'"),
        ("provider:bad", {"bad": {"model": "m"}}, "provider entry 'bad' needs"),
        ("provider:bad", {"bad": {"endpoint": "http://127.0.0.1:9/", "model": 5}},
         "provider entry 'bad' needs"),
        ("provider:bad", {"bad": {"endpoint": "e", "model": "m", "api_key_env": 1}},
         "provider entry 'bad' needs"),
        ("provider:bad", {"bad": "http://127.0.0.1:9/"}, "provider entry 'bad' needs"),
        ("provider:x", [1], "config providers must be an object"),
    ])
    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_exits_2_with_one_error_line(self, demo_args, tmp_path, capsys, model, providers,
                                         message, command):
        code = self.run_with(demo_args, tmp_path, model, providers, command)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "trace.jsonl").exists()


class TestReplayAndVerify:
    def produce_trace(self, demo_args):
        assert run_cli("run", "--task-file", demo_args["task"],
                       "--metadata", demo_args["metadata"],
                       "--config", demo_args["config"],
                       "--model", f"scripted:{demo_args['script']}",
                       "--trace-out", demo_args["trace"]) == EXIT_OK

    def test_replay_matches(self, demo_args, capsys):
        self.produce_trace(demo_args)
        capsys.readouterr()
        assert run_cli("replay", "--trace", demo_args["trace"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["matched"] is True

    def test_verify_trace_ok(self, demo_args, capsys):
        self.produce_trace(demo_args)
        assert run_cli("verify-trace", "--trace", demo_args["trace"]) == EXIT_OK

    @pytest.mark.parametrize("kind, edit, section", [
        ("step", lambda record: record["event"].update(outcome="failure"), "step[initial]"),
        ("reason", lambda record: record.update(answer=record["answer"] + "x"), "reason"),
    ], ids=["step-outcome", "reason-answer"])
    def test_verify_trace_detects_tampering(self, kind, edit, section, demo_args, tmp_path,
                                            capsys):
        self.produce_trace(demo_args)
        lines = []
        with open(demo_args["trace"]) as fh:
            for line in fh:
                record = json.loads(line)
                if record.get("type") == kind:
                    edit(record)
                lines.append(json.dumps(record))
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("verify-trace", "--trace", str(tampered)) == EXIT_DIVERGENCE
        assert capsys.readouterr().out == f"trace diverged at {section} (index 0)\n"

    @pytest.mark.parametrize("command", ["replay", "verify-trace"])
    def test_corrupt_last_line_exits_2(self, command, demo_args, tmp_path, capsys):
        self.produce_trace(demo_args)
        text = Path(demo_args["trace"]).read_text(encoding="utf-8")
        cut = tmp_path / "cut.jsonl"
        cut.write_text(text[:-40])
        capsys.readouterr()
        assert run_cli(command, "--trace", str(cut)) == EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("error: malformed trace") and err.count("\n") == 1
        assert f"line {text.count(chr(10))} is not valid JSON" in err

    @pytest.mark.parametrize("command", ["replay", "verify-trace"])
    def test_too_deeply_nested_line_exits_2(self, command, demo_args, tmp_path, capsys):
        self.produce_trace(demo_args)
        text = Path(demo_args["trace"]).read_text(encoding="utf-8")
        deep = tmp_path / "deep.jsonl"
        deep.write_text(text + "[" * DEEPER_THAN_ANY_DECODER + "\n")
        capsys.readouterr()
        assert run_cli(command, "--trace", str(deep)) == EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("error: malformed trace") and err.count("\n") == 1
        assert f"line {text.count(chr(10)) + 1} nests JSON too deeply" in err

    @pytest.mark.parametrize("command", ["replay", "verify-trace"])
    def test_bad_schema_version_exits_2(self, command, demo_args, tmp_path, capsys):
        self.produce_trace(demo_args)
        lines = Path(demo_args["trace"]).read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["schema_version"] = 999
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        capsys.readouterr()
        assert run_cli(command, "--trace", str(bad)) == EXIT_DIVERGENCE
        assert "unsupported trace schema version 999" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["replay", "verify-trace"])
    def test_non_finite_wall_time_exits_2(self, command, demo_args, tmp_path, capsys):
        self.produce_trace(demo_args)
        records = [json.loads(line) for line in
                   Path(demo_args["trace"]).read_text(encoding="utf-8").splitlines()]
        number, step = next((n, r) for n, r in enumerate(records, start=1)
                            if r["type"] == "step")
        step["event"]["wall_time"] = float("nan")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()
        assert run_cli(command, "--trace", str(bad)) == EXIT_DIVERGENCE
        assert_one_error_line(capsys, "malformed trace", f"line {number} is not valid JSON",
                              "NaN")

    @pytest.mark.parametrize("command", ["replay", "verify-trace"])
    def test_header_budget_that_overflows_exits_2(self, command, demo_args, tmp_path, capsys):
        self.produce_trace(demo_args)
        lines = Path(demo_args["trace"]).read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["config"]["budget_micros"] = "BUDGET"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(header).replace('"BUDGET"', "1e400")]
                                 + lines[1:]) + "\n")
        capsys.readouterr()
        assert run_cli(command, "--trace", str(bad)) == EXIT_DIVERGENCE
        assert_one_error_line(capsys, "malformed trace", "trace header is malformed")

    @pytest.mark.parametrize("command", ["replay", "verify-trace"])
    def test_record_without_a_type_exits_2(self, command, demo_args, tmp_path, capsys):
        self.produce_trace(demo_args)
        records = [json.loads(line) for line in
                   Path(demo_args["trace"]).read_text(encoding="utf-8").splitlines()]
        number, call = next((n, r) for n, r in enumerate(records, start=1)
                            if r["type"] == "model_call")
        del call["type"]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()
        assert run_cli(command, "--trace", str(bad)) == EXIT_DIVERGENCE
        assert_one_error_line(capsys, "malformed trace", f"line {number} has no type")

    def test_truncated_trace_fails_verification(self, demo_args, tmp_path, capsys):
        self.produce_trace(demo_args)
        lines = Path(demo_args["trace"]).read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["type"] for line in lines[-2:]] == ["reason", "report"]
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(lines[:-2]) + "\n")
        capsys.readouterr()
        assert run_cli("verify-trace", "--trace", str(truncated)) == EXIT_DIVERGENCE
        assert "trace diverged at incomplete" in capsys.readouterr().out


class TestBenchCommand:
    def test_bench_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "results.json"
        code = run_cli("bench",
                       "--suite", str(bundled_data("suite.json")),
                       "--config", str(bundled_data("config.json")),
                       "--model", f"scripted:{bundled_data('scripts.json')}",
                       "--out", str(out))
        assert code == EXIT_OK
        document = json.loads(out.read_text())
        assert document["comparison"]["advantage"] == "ptr"
        assert "advantage: ptr" in capsys.readouterr().out

    def test_bench_matches_library_output(self, tmp_path):
        from ptrun.bench import (load_scriptbook, load_suite, render_results,
                                 results_document, run_bench, scripted_model_factory)
        from ptrun.pipeline import RunConfig, ToolEnvironment
        out = tmp_path / "results.json"
        run_cli("bench",
                "--suite", str(bundled_data("suite.json")),
                "--config", str(bundled_data("config.json")),
                "--model", f"scripted:{bundled_data('scripts.json')}",
                "--out", str(out))
        suite = load_suite(bundled_data("suite.json"))
        cfg = RunConfig.from_dict(json.loads(bundled_data("config.json").read_text()))
        env = ToolEnvironment.from_kb_path(bundled_data("kb.json"))
        results = run_bench(suite, cfg, scripted_model_factory(
            load_scriptbook(bundled_data("scripts.json"))), env)
        assert out.read_text() == render_results(results_document(suite, cfg, *results))

    def test_empty_suite_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"name": "e", "answer_kind": "free_text", "items": []}))
        code = run_cli("bench", "--suite", str(empty),
                       "--config", str(bundled_data("config.json")),
                       "--model", f"scripted:{bundled_data('scripts.json')}")
        assert code == EXIT_DIVERGENCE
        assert "error" in capsys.readouterr().err


def run_args(demo_args, **overrides):
    args = {"--task-file": demo_args["task"], "--metadata": demo_args["metadata"],
            "--config": demo_args["config"], "--model": f"scripted:{demo_args['script']}",
            "--trace-out": demo_args["trace"]}
    args.update(overrides)
    return ["run"] + [part for pair in args.items() for part in pair]


def bench_args(**overrides):
    args = {"--suite": str(bundled_data("suite.json")),
            "--config": str(bundled_data("config.json")),
            "--model": f"scripted:{bundled_data('scripts.json')}"}
    args.update(overrides)
    return ["bench"] + [part for pair in args.items() for part in pair]


DEMO_METADATA = json.loads(bundled_data("demo_metadata.json").read_text(encoding="utf-8"))

BAD_KB_FILES = {
    "duplicate-title": json.dumps([{"title": "A", "body": ""}, {"title": "A", "body": ""}]),
    "truncated": json.dumps([{"title": "A", "body": "text"}])[:-5],
    "not-a-list": json.dumps({"title": "A", "body": ""}),
    "untitled-article": json.dumps([{"body": "no title"}]),
    "non-finite": '[{"title": "A", "body": "", "score": NaN}]',
}


def assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err


class TestInputFiles:
    @pytest.mark.parametrize("case", sorted(BAD_KB_FILES))
    def test_run_with_unusable_kb_exits_2(self, case, demo_args, tmp_path, capsys):
        kb = tmp_path / "kb.json"
        kb.write_text(BAD_KB_FILES[case])
        assert run_cli(*run_args(demo_args, **{"--kb": str(kb)})) == EXIT_USAGE
        assert_one_error_line(capsys, "knowledge-base file", str(kb))

    @pytest.mark.parametrize("case", ["duplicate-title", "truncated"])
    def test_bench_with_unusable_kb_exits_2(self, case, tmp_path, capsys):
        kb = tmp_path / "kb.json"
        kb.write_text(BAD_KB_FILES[case])
        assert run_cli(*bench_args(**{"--kb": str(kb)})) == EXIT_USAGE
        assert_one_error_line(capsys, "knowledge-base file")

    @pytest.mark.parametrize("content, reason", [
        (json.dumps([1]), "suite must be a JSON object"),
        (json.dumps({"items": [{}]}), "answer_kind"),
        ("{", "Expecting property name enclosed in double quotes"),
        pytest.param("[" * DEEPER_THAN_ANY_DECODER, "maximum recursion depth exceeded",
                     id="nested-too-deeply"),
        pytest.param(json.dumps({"answer_kind": "numeric", "items": [
            {"id": "q1", "question": "How many?", "gold": [1.5]}]}),
            "item q1: gold must be a non-empty list of strings", id="number-gold"),
        pytest.param(json.dumps({"answer_kind": "free_text", "items": [
            {"id": "q1", "question": "Which?", "gold": "abc"}]}),
            "item q1: gold must be a non-empty list of strings", id="string-gold"),
        pytest.param(json.dumps({"answer_kind": "free_text", "items": [
            {"id": "q01", "question": "   ", "gold": ["Alan Turing"]}]}),
            "item q01: question must be a non-blank string", id="blank-question"),
        pytest.param(json.dumps({"items": [{"id": "q1", "question": "Who?", "gold": ["x"]}]}),
                     "missing key 'answer_kind'", id="missing-answer-kind")])
    def test_bench_with_malformed_suite_exits_2(self, content, reason, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(content)
        assert run_cli(*bench_args(**{"--suite": str(suite)})) == EXIT_USAGE
        assert_one_error_line(capsys, f"suite file {suite}", reason)

    @pytest.mark.parametrize("content, reason", [
        (json.dumps([]), "scriptbook must be an object"),
        (json.dumps({"q01": []}), "scriptbook item 'q01' must be an object"),
        (json.dumps({"q01": {"ptr": "x"}}),
         "scriptbook item 'q01', ptr script: script must be a list"),
    ], ids=["not-an-object", "item-not-an-object", "script-not-a-list"])
    def test_bench_with_malformed_scriptbook_exits_2(self, content, reason, tmp_path, capsys):
        book = tmp_path / "scripts.json"
        book.write_text(content)
        assert run_cli(*bench_args(**{"--model": f"scripted:{book}"})) == EXIT_USAGE
        assert_one_error_line(capsys, f"scriptbook file {book}", reason)

    def test_missing_kb_file_exits_2(self, demo_args, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert run_cli(*run_args(demo_args, **{"--kb": missing})) == EXIT_USAGE
        assert_one_error_line(capsys, "knowledge-base file", missing)

    def test_infinity_in_task_context_exits_2(self, demo_args, tmp_path, capsys):
        task = json.loads(Path(demo_args["task"]).read_text(encoding="utf-8"))
        task_path = tmp_path / "task.json"
        task_path.write_text(json.dumps(task)[:-1] + ', "context": {"x": Infinity}}')
        assert run_cli(*run_args(demo_args, **{"--task-file": str(task_path)})) == EXIT_USAGE
        assert_one_error_line(capsys, "task file", "Infinity")

    @pytest.mark.parametrize("number", ["1e400", "-1e400", "1.5e999"])
    def test_budget_that_overflows_to_infinity_exits_2(self, number, demo_args, tmp_path,
                                                       capsys):
        config = json.loads(Path(demo_args["config"]).read_text(encoding="utf-8"))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config)[:-1] + f', "budget_micros": {number}}}')
        assert run_cli(*run_args(demo_args, **{"--config": str(config_path)})) == EXIT_USAGE
        assert_one_error_line(capsys, f"config file {config_path}", number)

    @pytest.mark.parametrize("flag, label, content, reason", [
        ("--task-file", "task", json.dumps({"objective": 7}), "task.objective must be a string"),
        ("--task-file", "task", "{", "Expecting property name enclosed in double quotes"),
        pytest.param("--task-file", "task", "[" * DEEPER_THAN_ANY_DECODER,
                     "maximum recursion depth exceeded", id="task-nested-too-deeply"),
        ("--metadata", "metadata", json.dumps({"tool_catalog": "kb_search"}),
         "tool_catalog must be a list"),
        ("--metadata", "metadata", json.dumps({"constraints": {
            "auto_rules": [{"id": "a", "expr": "result."}]}}),
         "auto rule 'a': unexpected 'end of input' (at byte 7)"),
        pytest.param("--metadata", "metadata", json.dumps(dict(DEMO_METADATA, tool_catalog=[
            dict(DEMO_METADATA["tool_catalog"][0], id="x"), *DEMO_METADATA["tool_catalog"][1:]])),
            "registry does not cover catalog tool 'x'", id="catalog-tool-not-built-in"),
        ("--config", "config", json.dumps([1, 2]), "config must be a JSON object"),
        ("--config", "config", json.dumps({"route_thresholds": {"lower": 0.1}}), "upper"),
        ("--config", "config", json.dumps({"risk_weights": 5}),
         "config risk_weights must be an object"),
        ("--config", "config", json.dumps({"price_table": {"default": []}}),
         "config price_table entries must be objects"),
        ("--model", "script", json.dumps([{"role": "profile"}]),
         "role and text must be strings"),
        ("--model", "script", json.dumps([{"role": "profile", "text": 5}]),
         "role and text must be strings"),
        ("--fault-scripts", "fault-script", json.dumps({"kb_search": [{"message": "x"}]}),
         "bad fault script entry: {'message': 'x'} names no tool error class"),
        ("--fault-scripts", "fault-script", json.dumps(["timeout"]),
         "fault scripts must map tool ids to scripts"),
        ("--fault-scripts", "fault-script", json.dumps({"kb_search": None}),
         "fault script must be a non-empty list"),
        ("--fault-scripts", "fault-script", json.dumps({"kb_search": ["bogus"]}),
         "bad fault script entry: 'bogus' names no tool error class"),
        ("--fault-scripts", "fault-script", json.dumps({"kb_search": [{"fail": "unknown_tool"}]}),
         "bad fault script entry: {'fail': 'unknown_tool'} names no tool error class"),
        pytest.param("--config", "config", json.dumps({"route_thresholds": {"upper": 0.9}}),
                     "missing key 'lower'", id="thresholds-without-lower"),
    ])
    def test_malformed_run_input_exits_2(self, flag, label, content, reason, demo_args,
                                         tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(content)
        value = f"scripted:{path}" if flag == "--model" else str(path)
        assert run_cli(*run_args(demo_args, **{flag: value})) == EXIT_USAGE
        assert_one_error_line(capsys, f"{label} file {path}", reason)
        assert not Path(demo_args["trace"]).exists()

    @pytest.mark.parametrize("flag", ["--task-file", "--metadata", "--config"])
    def test_missing_run_input_exits_2(self, flag, demo_args, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert run_cli(*run_args(demo_args, **{flag: missing})) == EXIT_USAGE
        assert_one_error_line(capsys, missing)

    def test_trace_into_a_missing_directory_exits_2(self, demo_args, tmp_path, capsys):
        trace = str(tmp_path / "absent" / "trace.jsonl")
        assert run_cli(*run_args(demo_args, **{"--trace-out": trace})) == EXIT_USAGE
        assert_one_error_line(capsys, f"cannot write trace {trace}")
        assert not (tmp_path / "absent").exists()

    def test_trace_onto_a_directory_exits_2(self, demo_args, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.mkdir()
        assert run_cli(*run_args(demo_args, **{"--trace-out": str(trace)})) == EXIT_USAGE
        assert_one_error_line(capsys, f"cannot write trace {trace}")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_trace_whose_write_fails_exits_2(self, demo_args, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.symlink_to("/dev/full")  # every write to it fails with ENOSPC
        assert run_cli(*run_args(demo_args, **{"--trace-out": str(trace)})) == EXIT_USAGE
        assert_one_error_line(capsys, f"cannot write trace {trace}: No space left on device")

    @pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
    def test_a_killed_run_leaves_no_trace_that_verifies(self, demo_args, capsys):
        assert run_cli(*run_args(demo_args)) == EXIT_OK
        assert run_cli("verify-trace", "--trace", demo_args["trace"]) == EXIT_OK
        capsys.readouterr()
        # The same run again, killed at its reason call: it would have
        # written the same trace as the one at the path.
        path = os.pathsep.join([str(Path(ptrun.__file__).parents[1]),
                                os.environ.get("PYTHONPATH", "")])
        killed = subprocess.run([sys.executable, "-c", KILLED_AT_REASON, *run_args(demo_args)],
                                capture_output=True, env=dict(os.environ, PYTHONPATH=path))
        assert killed.returncode == -signal.SIGKILL
        assert run_cli("verify-trace", "--trace", demo_args["trace"]) == EXIT_DIVERGENCE
        assert_one_error_line(capsys, "trace is unfinished")


# Runs the CLI on its arguments, with the scripted model killing the process
# when the reason call comes.
KILLED_AT_REASON = """
import os, signal, sys
from ptrun import cli, semantic

complete = semantic.ScriptedModel.complete


def complete_unless_reasoning(self, request):
    if request.role == "reason":
        os.kill(os.getpid(), signal.SIGKILL)
    return complete(self, request)


semantic.ScriptedModel.complete = complete_unless_reasoning
cli.main(sys.argv[1:])
"""


class TestMalformedTraceHeader:
    def rewrite_header(self, demo_args, tmp_path, edit):
        TestReplayAndVerify().produce_trace(demo_args)
        lines = Path(demo_args["trace"]).read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        edit(header)
        bad = tmp_path / "bad-header.jsonl"
        bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        return str(bad)

    @pytest.mark.parametrize("command", ["replay", "verify-trace"])
    def test_header_without_task_exits_2(self, command, demo_args, tmp_path, capsys):
        bad = self.rewrite_header(demo_args, tmp_path, lambda header: header.pop("task"))
        capsys.readouterr()
        assert run_cli(command, "--trace", bad) == EXIT_DIVERGENCE
        assert_one_error_line(capsys, "malformed trace", "no task object")

    @pytest.mark.parametrize("command", ["replay", "verify-trace"])
    def test_thresholds_without_upper_exits_2(self, command, demo_args, tmp_path, capsys):
        bad = self.rewrite_header(demo_args, tmp_path, lambda header: header["config"][
            "route_thresholds"].pop("upper"))
        capsys.readouterr()
        assert run_cli(command, "--trace", bad) == EXIT_DIVERGENCE
        assert_one_error_line(capsys, "malformed trace",
                              "trace header is malformed: missing key 'upper'")

    @pytest.mark.parametrize("command", ["replay", "verify-trace"])
    def test_untitled_embedded_article_exits_2(self, command, tmp_path, capsys):
        # a version 1 header embeds its KB
        def drop_title(header):
            del header["environment"]["kb"][0]["title"]

        bad = tmp_path / "bad-header.jsonl"
        bad.write_bytes(V1_TRACE.read_bytes())
        edit_header(bad, drop_title)
        assert run_cli(command, "--trace", str(bad)) == EXIT_DIVERGENCE
        assert_one_error_line(capsys, "malformed trace", "article 0: title must be a string")


V1_TRACE = Path(__file__).parent / "data" / "trace_v1_demo.jsonl"
V2_TRACE = Path(__file__).parent / "data" / "trace_v2_demo.jsonl"


def edit_header(path, edit) -> None:
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    header = json.loads(lines[0])
    edit(header)
    Path(path).write_text(json.dumps(header) + "\n" + "".join(lines[1:]), encoding="utf-8")


def side_file(trace) -> Path:
    digest = json.loads(Path(trace).read_text(encoding="utf-8").splitlines()[0])[
        "environment"]["kb_digest"]
    return Path(trace).parent / "kb" / f"{digest}.json"


def flip_byte(trace):
    path = side_file(trace)
    content = bytearray(path.read_bytes())
    content[len(content) // 2] ^= 0x01
    path.write_bytes(bytes(content))


def untitled_side_file(trace):
    text = json.dumps([{"body": "no title"}], sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    (Path(trace).parent / "kb" / f"{digest}.json").write_text(text, encoding="utf-8")
    edit_header(trace, lambda header: header["environment"].update(kb_digest=digest))


def set_digest(value):
    return lambda trace: edit_header(
        trace, lambda header: header["environment"].update(kb_digest=value(
            header["environment"]["kb_digest"])))


# edit of a fresh demo trace -> a fragment of the error line it gives
KB_TAMPERING = {
    "flipped-byte": (flip_byte, "does not hash to its digest"),
    "deleted-side-file": (lambda trace: side_file(trace).unlink(), "cannot be read"),
    "traversal": (set_digest(lambda digest: "../kb/x"), "not 64 lowercase hex"),
    "upper-case": (set_digest(str.upper), "not 64 lowercase hex"),
    "63-chars": (set_digest(lambda digest: digest[:63]), "not 64 lowercase hex"),
    "untitled-article": (untitled_side_file, "article 0: title must be a string"),
    "inline-kb": (lambda trace: edit_header(
        trace, lambda header: header["environment"].update(kb=[])), "does not embed it"),
}


class TestKbSideFile:
    @pytest.fixture(autouse=True)
    def empty_kb_memo(self, monkeypatch):
        # a fresh memo, as in a new process: replay must read the side file
        monkeypatch.setattr(pipeline, "_KB_MEMO", collections.OrderedDict())

    def test_run_writes_the_side_file_once(self, demo_args, capsys):
        TestReplayAndVerify().produce_trace(demo_args)
        path = side_file(demo_args["trace"])
        # the CLI reads the KB file into a KnowledgeBase, whose articles are in title order
        kb = KnowledgeBase.load(bundled_data("kb.json")).to_list()
        text = json.dumps(kb, sort_keys=True, separators=(",", ":"))
        assert path.read_bytes() == text.encode("utf-8")
        assert path.name == hashlib.sha256(text.encode("utf-8")).hexdigest() + ".json"
        before = path.stat()
        TestReplayAndVerify().produce_trace(demo_args)
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert os.listdir(path.parent) == [path.name]

    @pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
    @pytest.mark.parametrize("command", ["replay", "verify-trace"])
    def test_trace_verifies_from_its_side_file(self, command, relative, demo_args, monkeypatch,
                                               tmp_path, capsys):
        TestReplayAndVerify().produce_trace(demo_args)
        pipeline._KB_MEMO.clear()
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        trace = os.path.relpath(demo_args["trace"]) if relative else demo_args["trace"]
        capsys.readouterr()
        assert run_cli(command, "--trace", trace) == EXIT_OK

    @pytest.mark.parametrize("case", sorted(KB_TAMPERING))
    @pytest.mark.parametrize("command", ["replay", "verify-trace"])
    def test_kb_tampering_exits_2(self, command, case, demo_args, capsys):
        edit, fragment = KB_TAMPERING[case]
        TestReplayAndVerify().produce_trace(demo_args)
        pipeline._KB_MEMO.clear()
        edit(demo_args["trace"])
        capsys.readouterr()
        assert run_cli(command, "--trace", demo_args["trace"]) == EXIT_DIVERGENCE
        assert_one_error_line(capsys, "malformed trace", fragment)

    @pytest.mark.parametrize("command", ["replay", "verify-trace"])
    def test_version_1_trace_verifies(self, command, capsys):
        assert run_cli(command, "--trace", str(V1_TRACE)) == EXIT_OK
        out = capsys.readouterr().out
        assert "trace verified: 8 records match" in out or json.loads(out)["matched"] is True

    @pytest.mark.parametrize("command", ["replay", "verify-trace"])
    def test_version_2_trace_verifies_beside_its_kb_directory_only(self, command, tmp_path,
                                                                   capsys):
        assert run_cli(command, "--trace", str(V2_TRACE)) == EXIT_OK
        out = capsys.readouterr().out
        assert "trace verified: 12 records match" in out or json.loads(out)["matched"] is True
        alone = tmp_path / V2_TRACE.name
        alone.write_bytes(V2_TRACE.read_bytes())
        assert run_cli(command, "--trace", str(alone)) == EXIT_DIVERGENCE
        assert_one_error_line(capsys, "malformed trace", "cannot be read")

    @pytest.mark.parametrize("command", ["replay", "verify-trace"])
    def test_version_1_header_with_kb_digest_exits_2(self, command, tmp_path, capsys):
        bad = tmp_path / "mixed.jsonl"
        bad.write_bytes(V1_TRACE.read_bytes())
        edit_header(bad, lambda header: header["environment"].update(kb_digest="0" * 64))
        assert run_cli(command, "--trace", str(bad)) == EXIT_DIVERGENCE
        assert_one_error_line(capsys, "malformed trace", "has no kb_digest")


class TestUnadmittedProfileReply:
    """Replay admits the recorded profile reply again, so a reply edited until
    it no longer admits is a divergence at the profile record."""

    @pytest.mark.parametrize("reply", [json.dumps({"workflow": 5}), "{}"],
                             ids=["workflow-not-an-object", "no-workflow"])
    @pytest.mark.parametrize("command", ["replay", "verify-trace"])
    def test_reply_that_no_longer_admits_exits_2(self, command, reply, demo_args, tmp_path,
                                                 capsys):
        TestReplayAndVerify().produce_trace(demo_args)
        text = Path(demo_args["trace"]).read_text(encoding="utf-8")
        records = [json.loads(line) for line in text.splitlines()]
        next(r for r in records
             if r["type"] == "model_call" and r["role"] == "profile")["response_text"] = reply
        bad = tmp_path / "bad-profile.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()
        assert run_cli(command, "--trace", str(bad)) == EXIT_DIVERGENCE
        out, err = capsys.readouterr()
        assert err == ""
        if command == "verify-trace":
            assert out == "trace diverged at profile (index 0)\n"
        else:
            assert json.loads(out)["divergence"]["section"] == "profile"


# Trace file fuzz: each example makes one edit to a valid trace and runs
# `ptrun verify-trace` on it, which must exit 0 or 2 and never raise. About
# one edit in 230 deletes the type of a trace's first model_call record, so
# 200 examples would miss a regression there in about 4 seeds of 10.
TRACE_FUZZ_EXAMPLES = 1000
TRACE_FUZZ_BUDGET_S = 30.0
# one JSON value of each type; a leaf is replaced by one of another type
JSON_VALUES = (None, True, 7, 2.5, "x", [], {})


def json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def nested(node):
    """Every dict and list inside a JSON value, the value itself included."""
    found = [node]
    for child in (node.values() if isinstance(node, dict) else node):
        if isinstance(child, (dict, list)):
            found += nested(child)
    return found


def delete_key(records, rng) -> str:
    """Delete a key of a record, at its top level half the time."""
    record = rng.choice(records)
    dicts = [d for d in nested(record) if isinstance(d, dict) and d]
    target = record if rng.random() < 0.5 else rng.choice(dicts)
    key = rng.choice(list(target))
    del target[key]
    return f"delete key {key!r} of a {record.get('type')} record"


def retype_leaf(records, rng) -> str:
    """Set a leaf to a value of another JSON type."""
    record = rng.choice(records)
    leaves = [(node, key) for node in nested(record)
              for key in (node if isinstance(node, dict) else range(len(node)))
              if not isinstance(node[key], (dict, list))]
    node, key = rng.choice(leaves)
    value = rng.choice([v for v in JSON_VALUES if json_type(v) != json_type(node[key])])
    node[key] = copy.deepcopy(value)
    return f"set {key!r} of a {record.get('type')} record to {value!r}"


def delete_record(records, rng) -> str:
    position = rng.randrange(len(records))
    return f"delete record {position} ({records.pop(position).get('type')})"


def duplicate_record(records, rng) -> str:
    position = rng.randrange(len(records))
    records.insert(position, copy.deepcopy(records[position]))
    return f"duplicate record {position} ({records[position].get('type')})"


def swap_records(records, rng) -> str:
    i, j = rng.sample(range(len(records)), 2)
    records[i], records[j] = records[j], records[i]
    return f"swap records {i} and {j}"


TRACE_EDITS = (delete_key, retype_leaf, delete_record, duplicate_record, swap_records)


class TestTraceFileFuzz:
    def traces(self, demo_args, tmp_path) -> dict[str, Path]:
        """Copies of the v1 and v2 fixtures and a fresh v3 demo trace, each
        in its own directory beside its kb/ directory, if it has one."""
        TestReplayAndVerify().produce_trace(demo_args)
        v3 = Path(demo_args["trace"])
        paths = {}
        for name, source, kb in (("v1", V1_TRACE, None), ("v2", V2_TRACE, V2_TRACE.parent / "kb"),
                                 ("v3", v3, v3.parent / "kb")):
            directory = tmp_path / name
            directory.mkdir()
            if kb is not None:
                shutil.copytree(kb, directory / "kb")
            paths[name] = directory / "fuzz.jsonl"
            paths[name].write_bytes(source.read_bytes())
        return paths

    def test_one_edit_never_raises(self, demo_args, tmp_path, capsys):
        rng = random.Random(3001)
        paths = self.traces(demo_args, tmp_path)
        originals = {name: path.read_text(encoding="utf-8") for name, path in paths.items()}
        for path in paths.values():
            assert run_cli("verify-trace", "--trace", str(path)) == EXIT_OK
        exits: collections.Counter = collections.Counter()
        started = time.perf_counter()
        for example in range(TRACE_FUZZ_EXAMPLES):
            name = rng.choice(sorted(paths))
            records = [json.loads(line) for line in originals[name].splitlines()]
            edit = rng.choice(TRACE_EDITS)(records, rng)
            paths[name].write_text("".join(json.dumps(r) + "\n" for r in records),
                                   encoding="utf-8")
            try:
                code = run_cli("verify-trace", "--trace", str(paths[name]))
            except Exception as exc:  # name the edit that made it raise
                pytest.fail(f"example {example}, {name} trace, {edit}: "
                            f"{type(exc).__name__}: {exc}")
            assert code in (EXIT_OK, EXIT_DIVERGENCE), f"example {example}, {name}, {edit}"
            exits[code] += 1
        elapsed = time.perf_counter() - started
        capsys.readouterr()
        assert elapsed <= TRACE_FUZZ_BUDGET_S, f"fuzz took {elapsed:.1f}s"
        print(f"[PASS] {TRACE_FUZZ_EXAMPLES} edited traces, exits {dict(exits)}, "
              f"{elapsed:.1f}s")
