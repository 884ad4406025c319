from ptrun.bench import bench_metadata
from ptrun.core import Task
from ptrun.pipeline import RunConfig, ToolEnvironment
from ptrun.react import MAX_ITERATIONS, parse_action, run_react_baseline
from ptrun.semantic import ModelRequest, PriceEntry, ScriptedModel

KB = [
    {"title": "Alan Turing", "body": "Alan Turing introduced the Turing machine.", "links": []},
    {"title": "Paris", "body": "Paris is the capital of France.", "links": []},
]


def environment():
    return ToolEnvironment(articles=tuple(KB))


def task():
    return Task(objective="Who introduced the Turing machine?")


class RequestCapturingModel:
    """ScriptedModel wrapper that keeps every prompt for observation checks."""

    def __init__(self, script):
        self.inner = ScriptedModel(script)
        self.prompts = []

    @property
    def calls(self):
        return self.inner.calls

    def complete(self, request: ModelRequest):
        self.prompts.append(request.prompt)
        return self.inner.complete(request)


class TestParseAction:
    def test_tool_action(self):
        assert parse_action("Thought: hmm\nAction: kb_search[turing]") == ("kb_search", "turing")

    def test_finish_action(self):
        assert parse_action("Action: finish[Alan Turing]") == ("finish", "Alan Turing")

    def test_last_action_line_wins(self):
        text = "Action: kb_search[a]\nAction: finish[b]"
        assert parse_action(text) == ("finish", "b")

    def test_unparseable(self):
        assert parse_action("I think the answer is 42") is None

    def test_brackets_inside_args(self):
        assert parse_action("Action: finish[a [weird] answer]") == ("finish", "a [weird] answer")


class TestLoop:
    def test_two_iteration_episode(self):
        model = ScriptedModel([
            {"role": "react", "text": "Thought: search.\nAction: kb_search[Turing machine]"},
            {"role": "react", "text": "Action: finish[Alan Turing]"},
        ])
        report = run_react_baseline(task(), bench_metadata(), RunConfig(), model, environment())
        assert report.outcome == "ok"
        assert report.answer == "Alan Turing"
        assert report.model_calls == 2

    def test_iteration_cap_enforced(self):
        script = [{"role": "react", "text": f"Thought: step {i}.\nAction: kb_search[turing]"}
                  for i in range(MAX_ITERATIONS - 1)]
        script.append({"role": "react", "text": "final best effort text"})
        model = ScriptedModel(script)
        report = run_react_baseline(task(), bench_metadata(), RunConfig(), model, environment())
        assert report.model_calls == MAX_ITERATIONS == 8
        assert report.answer == "final best effort text"

    def test_malformed_action_consumes_iteration_with_error_observation(self):
        model = RequestCapturingModel([
            {"role": "react", "text": "I forgot the action format entirely"},
            {"role": "react", "text": "Action: finish[Alan Turing]"},
        ])
        report = run_react_baseline(task(), bench_metadata(), RunConfig(), model, environment())
        assert report.model_calls == 2
        assert report.answer == "Alan Turing"
        assert "could not parse an action" in model.prompts[1]

    def test_tool_observation_fed_back(self):
        model = RequestCapturingModel([
            {"role": "react", "text": "Action: kb_lookup[Paris]"},
            {"role": "react", "text": "Action: finish[Paris]"},
        ])
        run_react_baseline(task(), bench_metadata(), RunConfig(), model, environment())
        assert "capital of France" in model.prompts[1]

    def test_unknown_tool_error_observation(self):
        model = RequestCapturingModel([
            {"role": "react", "text": "Action: frobnicate[x]"},
            {"role": "react", "text": "Action: finish[done]"},
        ])
        report = run_react_baseline(task(), bench_metadata(), RunConfig(), model, environment())
        assert report.model_calls == 2
        assert "ERROR(not_found)" in model.prompts[1]

    def test_tool_failure_observation(self):
        model = RequestCapturingModel([
            {"role": "react", "text": "Action: kb_lookup[Nowhere]"},
            {"role": "react", "text": "Action: finish[unknown]"},
        ])
        run_react_baseline(task(), bench_metadata(), RunConfig(), model, environment())
        assert "ERROR(not_found)" in model.prompts[1]

    def test_budget_exceeded(self):
        model = ScriptedModel(
            [{"role": "react", "text": "Action: kb_search[turing]"}] * 3,
            price=PriceEntry(input_micros_per_1k=10**6, output_micros_per_1k=10**6))
        report = run_react_baseline(task(), bench_metadata(), RunConfig(budget_micros=1),
                                    model, environment())
        assert report.outcome == "budget_exceeded"
        assert report.answer is None

    def test_raising_model_ends_the_run_as_model_error(self):
        # a one-entry script runs out at the second iteration
        model = ScriptedModel([{"role": "react", "text": "Action: kb_search[turing]"}])
        report = run_react_baseline(task(), bench_metadata(), RunConfig(), model, environment())
        assert report.outcome == "model_error"
        assert report.answer is None
        assert report.raw_model_calls == 1  # the ledger holds the call that answered
        assert report.ledger["raw_calls_by_role"] == {"react": 1}
        assert report.model_calls == 2  # the call that raised counts as a stage

    def test_same_registry_tools_as_pipeline(self):
        model = ScriptedModel([
            {"role": "react", "text": "Action: calc[3 + 4 * 2]"},
            {"role": "react", "text": "Action: finish[11]"},
        ])
        report = run_react_baseline(task(), bench_metadata(), RunConfig(), model, environment())
        assert report.answer == "11"
