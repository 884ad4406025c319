import json
from pathlib import Path

import pytest

from ptrun.cli import (EXIT_BUDGET, EXIT_DIVERGENCE, EXIT_MODEL_ERROR, EXIT_OK,
                       EXIT_RUN_INVALID, EXIT_USAGE, bundled_data, main)


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

    def test_verify_trace_detects_tampering(self, demo_args, tmp_path, capsys):
        self.produce_trace(demo_args)
        lines = []
        with open(demo_args["trace"]) as fh:
            for line in fh:
                record = json.loads(line)
                if record.get("type") == "step":
                    record["event"]["outcome"] = "failure"
                lines.append(json.dumps(record))
        tampered = tmp_path / "tampered.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        assert run_cli("verify-trace", "--trace", str(tampered)) == EXIT_DIVERGENCE

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

    @pytest.mark.parametrize("content", [
        json.dumps([1]), json.dumps({"items": [{}]}), "{",
        pytest.param("[" * DEEPER_THAN_ANY_DECODER, id="nested-too-deeply")])
    def test_bench_with_malformed_suite_exits_2(self, content, tmp_path, capsys):
        suite = tmp_path / "suite.json"
        suite.write_text(content)
        assert run_cli(*bench_args(**{"--suite": str(suite)})) == EXIT_USAGE
        assert_one_error_line(capsys, f"suite file {suite}")

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

    @pytest.mark.parametrize("flag, label, content", [
        ("--task-file", "task", json.dumps({"objective": 7})),
        ("--task-file", "task", "{"),
        pytest.param("--task-file", "task", "[" * DEEPER_THAN_ANY_DECODER,
                     id="task-nested-too-deeply"),
        ("--metadata", "metadata", json.dumps({"tool_catalog": "kb_search"})),
        ("--metadata", "metadata", json.dumps({"constraints": {
            "auto_rules": [{"id": "a", "expr": "result."}]}})),
        ("--config", "config", json.dumps([1, 2])),
        ("--config", "config", json.dumps({"route_thresholds": {"lower": 0.1}})),
        ("--config", "config", json.dumps({"risk_weights": 5})),
        ("--config", "config", json.dumps({"price_table": {"default": []}})),
        ("--model", "script", json.dumps([{"role": "profile"}])),
        ("--model", "script", json.dumps([{"role": "profile", "text": 5}])),
        ("--fault-scripts", "fault-script", json.dumps({"kb_search": [{"message": "x"}]})),
        ("--fault-scripts", "fault-script", json.dumps(["timeout"])),
        ("--fault-scripts", "fault-script", json.dumps({"kb_search": None})),
    ])
    def test_malformed_run_input_exits_2(self, flag, label, content, demo_args, tmp_path,
                                         capsys):
        path = tmp_path / "input.json"
        path.write_text(content)
        value = f"scripted:{path}" if flag == "--model" else str(path)
        assert run_cli(*run_args(demo_args, **{flag: value})) == EXIT_USAGE
        assert_one_error_line(capsys, f"{label} file {path}")

    @pytest.mark.parametrize("flag", ["--task-file", "--metadata", "--config"])
    def test_missing_run_input_exits_2(self, flag, demo_args, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert run_cli(*run_args(demo_args, **{flag: missing})) == EXIT_USAGE
        assert_one_error_line(capsys, missing)


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
    def test_untitled_embedded_article_exits_2(self, command, demo_args, tmp_path, capsys):
        def drop_title(header):
            del header["environment"]["kb"][0]["title"]

        bad = self.rewrite_header(demo_args, tmp_path, drop_title)
        capsys.readouterr()
        assert run_cli(command, "--trace", bad) == EXIT_DIVERGENCE
        assert_one_error_line(capsys, "malformed trace", "article 0: title must be a string")


class TestMalformedProfileRecord:
    @pytest.mark.parametrize("edit", [
        lambda record: record.update(parsed={"workflow": 5}),
        lambda record: record.pop("parsed"),
    ], ids=["workflow-not-an-object", "no-parsed"])
    @pytest.mark.parametrize("command", ["replay", "verify-trace"])
    def test_malformed_profile_record_exits_2(self, command, edit, demo_args, tmp_path, capsys):
        TestReplayAndVerify().produce_trace(demo_args)
        text = Path(demo_args["trace"]).read_text(encoding="utf-8")
        records = [json.loads(line) for line in text.splitlines()]
        edit(next(r for r in records if r["type"] == "profile"))
        bad = tmp_path / "bad-profile.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()
        assert run_cli(command, "--trace", str(bad)) == EXIT_DIVERGENCE
        assert_one_error_line(capsys, "malformed trace", "profile record is malformed")
