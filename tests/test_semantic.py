import bisect
import json
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from ptrun import semantic
from ptrun.core import Metadata, Profile
from ptrun.semantic import (BudgetExceededError, BudgetLedger, HttpProviderModel,
                            MissingCredentialsError, ModelRequest, ModelResponse,
                            NO_EVIDENCE_SENTENCE, PriceEntry, ProfileParseError,
                            RoleMismatchError, ScriptExhaustedError, ScriptedModel, Usage,
                            build_profile_prompt, build_profile_retry_prompt,
                            build_reason_prompt, build_repair_prompt,
                            extract_first_json_object, parse_profile_response)
from ptrun.executor import initial_state
from ptrun.trace import reject_constant

from helpers_fixtures import (failing_state, failing_verification, golden_metadata,
                              golden_profile, golden_task)

GOLDEN = Path(__file__).parent / "golden"
# An integer the decoder refuses to convert, as it does NaN and Infinity.
OVERSIZED_INT = "9" * (sys.get_int_max_str_digits() + 1)


class TestProfilePrompt:
    def test_embeds_tools_and_required_slots(self):
        prompt = build_profile_prompt(golden_task(), golden_metadata())
        for needle in ("kb_search", "kb_lookup", "query", "title", "limit"):
            assert needle in prompt

    def test_history_section_elided_when_absent(self):
        metadata = golden_metadata()
        without = Metadata(schema=metadata.schema, tool_catalog=metadata.tool_catalog,
                           constraints=metadata.constraints, history=None)
        prompt = build_profile_prompt(golden_task(), without)
        assert "## History" not in prompt
        assert "## History" in build_profile_prompt(golden_task(), metadata)

    def test_golden_file_stable(self):
        prompt = build_profile_prompt(golden_task(), golden_metadata())
        assert prompt == (GOLDEN / "profile_prompt.txt").read_text()

    def test_pure_function(self):
        a = build_profile_prompt(golden_task(), golden_metadata())
        b = build_profile_prompt(golden_task(), golden_metadata())
        assert a == b

    def test_retry_prompt_appends_diagnostic(self):
        base = build_profile_prompt(golden_task(), golden_metadata())
        retry = build_profile_retry_prompt(base, "missing field workflow")
        assert retry.startswith(base)
        assert "missing field workflow" in retry

    def test_retry_prompt_cuts_a_long_diagnostic_and_says_how_much(self):
        base = build_profile_prompt(golden_task(), golden_metadata())
        kept = build_profile_retry_prompt(base, "d" * semantic.RETRY_DIAGNOSTIC_CHARS)
        assert "d" * semantic.RETRY_DIAGNOSTIC_CHARS + "\n" in kept and "cut]" not in kept
        retry = build_profile_retry_prompt(base, "d" * (semantic.RETRY_DIAGNOSTIC_CHARS + 500))
        assert "d" * semantic.RETRY_DIAGNOSTIC_CHARS + " [500 more characters cut]\n" in retry
        assert len(retry) == len(kept) + len(" [500 more characters cut]")


class TestRepairPrompt:
    def test_embeds_failed_step_error_classes(self):
        state = failing_state()
        z = failing_verification(state)
        prompt = build_repair_prompt(golden_task(), golden_metadata(), golden_profile(),
                                     state, z)
        for event in state.trace:
            if event.outcome == "failure":
                assert event.error_class in prompt

    def test_contains_answer_prohibition(self):
        state = failing_state()
        prompt = build_repair_prompt(golden_task(), golden_metadata(), golden_profile(),
                                     state, failing_verification(state))
        assert "prohibited from generating a final answer" in prompt

    def test_golden_file_stable(self):
        state = failing_state()
        prompt = build_repair_prompt(golden_task(), golden_metadata(), golden_profile(),
                                     state, failing_verification(state))
        assert prompt == (GOLDEN / "repair_prompt.txt").read_text()


class TestReasonPrompt:
    def test_flags_propagated(self):
        state = failing_state()
        z = failing_verification(state)
        assert len(z.flags) >= 2
        prompt = build_reason_prompt(golden_task(), golden_metadata(), state, z)
        for flag in z.flags:
            assert flag in prompt

    def test_empty_store_states_no_evidence(self):
        state = failing_state()  # both steps failed; store is empty
        assert state.result_store == {}
        prompt = build_reason_prompt(golden_task(), golden_metadata(), state,
                                     failing_verification(state))
        assert NO_EVIDENCE_SENTENCE in prompt

    def test_stored_results_embedded(self):
        state = initial_state()
        state.store("kb_lookup_1", {"body": "Turing introduced it."})
        z = failing_verification(failing_state())
        prompt = build_reason_prompt(golden_task(), golden_metadata(), state, z)
        assert "Turing introduced it." in prompt

    def test_golden_file_stable(self):
        state = failing_state()
        prompt = build_reason_prompt(golden_task(), golden_metadata(), state,
                                     failing_verification(state))
        assert prompt == (GOLDEN / "reason_prompt.txt").read_text()


def json_text(obj):
    """What json.dumps(sort_keys=True, indent=2) writes for obj, or the
    class of the error it raises."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2)
    except (TypeError, ValueError) as exc:
        return type(exc)


def dump_text(obj):
    try:
        return semantic._dump(obj)
    except (TypeError, ValueError) as exc:
        return type(exc)


JSON_STRINGS = st.text(alphabet=st.one_of(
    st.characters(exclude_categories=()),  # lone surrogates included
    st.sampled_from(["\ud800", "\udfff", "\x00", "\x1f", "\x7f", " ", "é",
                     "\U0001f600", '"', "\\", "/", "\n", "\t"])))
JSON_NUMBERS = st.one_of(
    st.integers(),
    st.integers(min_value=-10 ** 700, max_value=10 ** 700),
    st.floats(),  # nan, the infinities and -0.0 included
    st.sampled_from([-0.0, 1e300, -1e-300, 5e-324, float("inf"), float("nan")]))
JSON_KEYS = st.one_of(JSON_STRINGS, JSON_NUMBERS, st.booleans(), st.none())
JSON_TREES = st.recursive(
    st.one_of(st.none(), st.booleans(), JSON_NUMBERS, JSON_STRINGS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(JSON_STRINGS, children, max_size=4),
        # one key type per dict, so the keys sort
        st.sampled_from([st.integers(), st.floats(), st.booleans(), st.none()]).flatmap(
            lambda keys: st.dictionaries(keys, children, max_size=4)),
        # any keys, mixed types among them
        st.dictionaries(JSON_KEYS, children, max_size=3)),
    max_leaves=20)


class TestPromptJson:
    """Prompts embed JSON as json.dumps(sort_keys=True, indent=2) writes it."""

    @settings(max_examples=200, deadline=None)
    @given(JSON_TREES)
    @example({"b": [1, (2.5, "é")], "a": {"": [], "x": {}, "y": ()}})
    @example(["\ud800", "\udfff\ud800", "\x00\x1f\x7f ", "\U0001f600"])
    @example([10 ** 699, -(10 ** 699), 0, -0.0, 1e300, 1e16, float("inf"), float("-inf"),
              float("nan"), True, False, None])
    @example({1: "int", 2.5: "float", float("nan"): "nan"})
    @example({True: 1, False: 0})
    @example({None: "null"})
    @example({1: "int", "1": "str"})
    @example({None: 1, 0: 2})
    @example({10: "a", 9: "b"})  # sorted by raw key, so not as strings
    @example({True: 1, 0: 2})
    @example([[], {}, (), [[[]]], {"k": {"k": {}}}])
    @example({(1, 2): "tuple key"})
    @example([{1, 2}])
    @example({"bytes": b"x"})
    @example({"x": object()})
    @example("top-level string")
    @example(7)
    def test_writer_matches_json(self, obj):
        assert dump_text(obj) == json_text(obj)


class TestResponseParsing:
    def test_clean_json(self):
        profile = golden_profile()
        parsed = parse_profile_response(json.dumps(profile.to_dict()))
        assert parsed == profile

    def test_fenced_json_with_commentary(self):
        profile = golden_profile()
        text = ("Sure! Here is the plan you asked for:\n```json\n"
                + json.dumps(profile.to_dict()) + "\n```\nLet me know.")
        assert parse_profile_response(text) == profile

    def test_missing_workflow_is_parse_error(self):
        with pytest.raises(ProfileParseError):
            parse_profile_response('{"confidence": 0.9}')

    def test_no_object_is_parse_error(self):
        with pytest.raises(ProfileParseError):
            parse_profile_response("no json here at all")

    def test_first_object_wins(self):
        text = '{"workflow": {"steps": [{"tool_id": "kb_search", "params": {}}]}} {"x": 1}'
        assert isinstance(parse_profile_response(text), Profile)

    def test_extract_skips_broken_candidates(self):
        text = "{not json} then {\"a\": 1}"
        assert extract_first_json_object(text) == {"a": 1}

    @pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_constant_is_parse_error(self, constant):
        text = ('{"workflow": {"steps": [{"tool_id": "kb_search", '
                '"params": {"query": "x", "limit": %s}}]}}' % constant)
        with pytest.raises(ProfileParseError):
            parse_profile_response(text)

    def test_serialize_parse_identity(self):
        profile = golden_profile()
        assert parse_profile_response(json.dumps(profile.to_dict())) == profile

    # Deeper than any supported Python's decoder recurses (3.13's takes
    # about 10,000 levels, 3.11's about 1,000).
    @pytest.mark.parametrize("text", ['{"a":' * 100_000, 'x {"a": ' + "[" * 100_000],
                             ids=["objects", "arrays"])
    def test_too_deeply_nested_reply_is_parse_error(self, text):
        with pytest.raises(ProfileParseError, match="too deeply"):
            extract_first_json_object(text)

    @pytest.mark.parametrize("shape", [
        lambda d: '{"a":' * d + "1" + "}" * d,
        lambda d: '{"a": ' + "[" * (d - 1) + "]" * (d - 1) + "}",
        lambda d: '{"a": "' + "[{" * 200 + '", "b": ' + "[" * (d - 1) + "]" * (d - 1) + "}",
    ], ids=["objects", "arrays", "brackets-in-strings"])
    def test_nesting_bound_holds_on_every_python(self, shape):
        depth = semantic.MAX_JSON_DEPTH
        assert isinstance(extract_first_json_object(shape(depth)), dict)
        with pytest.raises(ProfileParseError, match="too deeply"):
            extract_first_json_object(shape(depth + 1))

    @pytest.mark.parametrize("text", [
        '{"a":' * 65,
        'prose ' + '{"a":' * 65 + "1 ]",
        '{"a": ' + "[" * 64 + " x",
        '{"a":' * 65 + "NaN",
        '{"a":' * 65 + "-" + OVERSIZED_INT,
    ], ids=["unterminated", "fails-past-the-bound", "arrays-then-garbage", "refused-constant",
            "refused-integer"])
    def test_failed_parse_past_the_bound_is_too_deep(self, text):
        with pytest.raises(ProfileParseError, match="too deeply"):
            extract_first_json_object(text)

    @pytest.mark.parametrize("text", ["{" * 80000, '{"{' * 30000, '{"a":1 ' * 12000,
                                      '{"a":' * 4000],
                             ids=["braces", "keys", "members", "nested-objects"])
    def test_failed_candidates_do_not_read_the_rest(self, text, monkeypatch):
        decoded = []
        raw_decode = json.JSONDecoder.raw_decode

        def counting(self, s, idx=0):
            decoded.append(len(s) - idx)
            return raw_decode(self, s, idx)
        monkeypatch.setattr(json.JSONDecoder, "raw_decode", counting)
        with pytest.raises(ProfileParseError):
            extract_first_json_object(text)
        # The first candidate reads the whole text; each later one a window.
        assert sum(decoded) <= len(text) + (len(decoded) - 1) * (semantic._WINDOW + 1)


def first_object_by_slices(text: str):
    """First JSON object decoded from the whole rest of the text at every
    brace; the reference for the windowed search."""
    decoder = json.JSONDecoder(parse_constant=reject_constant)
    for start, ch in enumerate(text):
        if ch == "{":
            try:
                return decoder.raw_decode(text[start:])[0]
            except ValueError:
                continue
    return None


JSON_OBJECTS = st.builds(
    json.dumps,
    st.dictionaries(
        st.text(st.sampled_from('a{"'), max_size=2),
        st.recursive(
            st.none() | st.booleans() | st.integers(-99, 10**30)
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.text(st.sampled_from('ab"\\{}\u00e9\U0001f600\n'), max_size=24),
            lambda children: st.lists(children, max_size=3)
            | st.dictionaries(st.text(st.sampled_from('a{"'), max_size=2), children, max_size=3),
            max_leaves=8),
        max_size=4),
    indent=st.sampled_from([None, 1]))


@st.composite
def replies(draw):
    """A candidate that fails, then prose, whole and cut JSON objects, and the
    tokens a cut can split."""
    pieces = [draw(st.sampled_from(["", '{"x"} ', '{ "a": ]', '{"{']))]
    for piece in draw(st.lists(JSON_OBJECTS | st.sampled_from([
            "{", "}", '"', "\\", " ", "\n", ":", ",", "[", "-Infinity", "NaN", "false",
            "1e", "\\u12", "\\ud83d\\ude00", "plan:", '{"k": ']), max_size=6)):
        cut = draw(st.integers(0, len(piece)))
        pieces.append(piece if draw(st.booleans()) else piece[:cut])
    return "".join(pieces)


def open_levels(text: str) -> int:
    """Most objects and arrays open at once in a JSON text or a prefix of one,
    read character by character; the reference for the nesting bound."""
    depth = deepest = 0
    in_string = escaped = False
    for ch in text:
        if in_string:
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif ch in "]}":
            depth -= 1
    return deepest


class TestNestingBound:
    @settings(max_examples=300, deadline=None)
    @given(text=JSON_OBJECTS, data=st.data())
    def test_matches_reading_character_by_character(self, text, data):
        start = data.draw(st.integers(0, 3))
        end = start + data.draw(st.integers(0, len(text)))
        text = json.dumps(json.loads(text), ensure_ascii=data.draw(st.booleans()))
        end = min(end, start + len(text))
        text = "x{]"[:start] + text  # the bound reads only from start
        bound = data.draw(st.integers(0, 6))
        with mock.patch.object(semantic, "MAX_JSON_DEPTH", bound):
            assert semantic._nests_too_deeply(text, start, end) == (
                open_levels(text[start:end]) > bound)


class TestWindowedSearch:
    @settings(max_examples=200, deadline=None)
    @given(text=replies(), window=st.integers(1, 64))
    def test_matches_decoding_each_whole_rest(self, text, window):
        expected = first_object_by_slices(text)
        with mock.patch.object(semantic, "_WINDOW", window):
            try:
                found = extract_first_json_object(text)
            except ProfileParseError:
                found = None
        assert found == expected

    @settings(max_examples=100, deadline=None)
    @given(text=JSON_OBJECTS)
    def test_a_window_cut_anywhere_grows_to_the_whole_object(self, text):
        expected = json.loads(text)
        for width in range(1, len(text) + 1):
            assert semantic._decode_object_at(text + " {", 0, width) == (expected, len(text))


def count_decoded(monkeypatch) -> list[int]:
    """The length of each text the decoder is handed from now on."""
    decoded = []
    raw_decode = json.JSONDecoder.raw_decode

    def counting(self, s, idx=0):
        decoded.append(len(s) - idx)
        return raw_decode(self, s, idx)
    monkeypatch.setattr(json.JSONDecoder, "raw_decode", counting)
    return decoded


# Nested candidates, what can follow them, and tokens the decoder refuses.
# Oversized integers in a row, then an exponent, make a number that a grown
# window can cut into an integer the decoder refuses.
HELD_OPEN_TEXTS = st.lists(
    st.sampled_from(['{"a":', "[", '{"k": "{}"', ", ", "1,", "]", "}", "x", "NaN", "Infinity",
                     "-Infinity", '"NaN"', "-", OVERSIZED_INT, ".5", "e", "e-9"])
    | replies(), max_size=12).map("".join)


class TestHeldOpenCandidates:
    """A candidate that a failed parse held open where it failed would fail
    there too, so the search does not decode it."""

    @pytest.mark.parametrize("size", [16 * 1024, 64 * 1024, 320 * 1024])
    def test_nested_candidates_before_a_long_tail_are_decoded_once(self, size, monkeypatch):
        text = '{"a":' * 63 + "["
        text += "1," * ((size - len(text)) // 2)
        decoded = count_decoded(monkeypatch)
        with pytest.raises(ProfileParseError, match="no JSON object found"):
            extract_first_json_object(text)
        assert sum(decoded) <= 4 * len(text)

    @pytest.mark.parametrize("size", [16 * 1024, 64 * 1024, 320 * 1024])
    @pytest.mark.parametrize("refused", ["NaN", "Infinity", "-Infinity", OVERSIZED_INT],
                             ids=["nan", "infinity", "minus-infinity", "oversized-integer"])
    @pytest.mark.parametrize("rest", ["", "]" + "}" * 63], ids=["cut", "closed"])
    def test_nested_candidates_before_a_refused_token_are_decoded_once(self, size, refused,
                                                                       rest, monkeypatch):
        text = '{"a":' * 63 + "["
        text += "1," * ((size - len(text) - len(refused) - len(rest)) // 2) + refused + rest
        decoded = count_decoded(monkeypatch)
        with pytest.raises(ProfileParseError, match="no JSON object found"):
            extract_first_json_object(text)
        assert sum(decoded) <= 4 * len(text)

    def test_objects_closed_before_the_failure_are_still_tried(self):
        assert extract_first_json_object('{"a": {"b": 1}, "c": [{"d": 2}') == {"b": 1}
        assert extract_first_json_object('{"a": "{}", "c": ') == {}

    @settings(max_examples=300, deadline=None)
    @given(text=HELD_OPEN_TEXTS, window=st.integers(1, 64))
    def test_same_result_as_decoding_every_candidate(self, text, window):
        with mock.patch.object(semantic, "_WINDOW", window):
            assert search_outcome(extract_first_json_object, text) == search_outcome(
                search_every_candidate, text)

    @pytest.mark.parametrize("accepted", [
        "", '"NaN", ', OVERSIZED_INT + ".5, ", OVERSIZED_INT + "e1, ", "1e" + OVERSIZED_INT + ", ",
        "1e-" + OVERSIZED_INT + ", ", "-0." + OVERSIZED_INT + ", "],
        ids=["none", "string", "fraction", "exponent", "long-exponent", "signed-exponent",
             "long-fraction"])
    @pytest.mark.parametrize("refused", ["NaN", "-Infinity", OVERSIZED_INT, "-" + OVERSIZED_INT,
                                         OVERSIZED_INT + "e"],
                             ids=["nan", "minus-infinity", "integer", "negative", "bare-e"])
    def test_the_refused_token_is_found_past_accepted_ones(self, accepted, refused):
        text = '{"a": [' + accepted
        whole = text + refused + "]}"
        assert semantic._refused_token(whole, 0, len(whole)).start() == len(text)

    @pytest.mark.parametrize("window", [9, 1024])
    @pytest.mark.parametrize("rest", ["", " NaN", "}}} -Infinity", " " + OVERSIZED_INT],
                             ids=["none", "nan", "braces-then-infinity", "oversized-integer"])
    def test_a_number_a_window_cuts_into_a_refused_integer_grows_the_window(self, window,
                                                                             rest):
        # The windows grow to 4,608 and 8,192 characters, and each ends inside
        # the integer part past the digits int() converts; the exponent that
        # makes it a float follows.
        number = "1" * 9000 + "e-8990"
        text = '{"z": x} {"b": ' + number + "}" + rest
        with mock.patch.object(semantic, "_WINDOW", window):
            assert extract_first_json_object(text) == {"b": float(number)}
        assert search_every_candidate(text) == {"b": float(number)}

    @settings(max_examples=300, deadline=None)
    @given(text=HELD_OPEN_TEXTS)
    def test_a_refused_parse_stops_at_the_token_it_refuses(self, text):
        for opening in semantic._OBJECT_OPENING.finditer(text):
            start = opening.start()
            try:
                semantic._DECODER.raw_decode(text[start:])
            except json.JSONDecodeError:
                pass
            except ValueError:
                refused = text[semantic._refused_token(text, start, len(text)).start():
                               start + refused_prefix(text, start)]
                assert re.fullmatch(r"NaN|-?Infinity|-?[0-9]+", refused)


def search_outcome(search, text: str):
    try:
        return "object", search(text)
    except ProfileParseError as exc:
        return "error", str(exc)


def search_every_candidate(text: str) -> dict:
    """The search decoding every candidate from the whole rest of the text,
    held open by a failed parse or not; the reference for windows and for
    skipping held-open candidates."""
    for opening in semantic._OBJECT_OPENING.finditer(text):
        start = opening.start()
        try:
            obj, read = semantic._DECODER.raw_decode(text[start:])
        except json.JSONDecodeError as exc:
            obj, read = None, exc.pos
        except ValueError:
            obj, read = None, refused_prefix(text, start)
        except RecursionError:
            obj, read = None, None
        if read is None or semantic._nests_too_deeply(text, start, start + read):
            raise ProfileParseError("the response nests JSON too deeply")
        if obj is not None:
            return obj
    raise ProfileParseError("no JSON object found in the response")


def refused_prefix(text: str, start: int) -> int:
    """Length of the shortest text from ``text[start]`` that the strict
    decoder refuses, NUL appended, with a plain ValueError: a parse refused
    that way reads valid JSON up to the token it refuses, so shorter texts
    fail on the NUL and longer ones on the token."""
    def refused(length):
        try:
            semantic._DECODER.raw_decode(text[start:start + length] + "\0")
        except json.JSONDecodeError:
            return False
        except ValueError:
            return True
        return False
    return bisect.bisect_left(range(len(text) - start + 1), True, key=refused)


class TestBudgetLedger:
    def response(self, cost):
        return ModelResponse(text="x", usage=Usage(10, 10), cost_micros=cost)

    def test_three_small_calls_under_limit(self):
        ledger = BudgetLedger(limit_micros=50_000)  # $0.05
        for _ in range(3):
            ledger.record_and_check("profile", self.response(10_000))  # $0.01 each
        assert ledger.total_micros == 30_000

    def test_exceeding_call_raises_on_that_check(self):
        ledger = BudgetLedger(limit_micros=25_000)  # $0.025
        ledger.record_and_check("profile", self.response(10_000))
        ledger.record_and_check("repair", self.response(10_000))
        with pytest.raises(BudgetExceededError):
            ledger.record_and_check("reason", self.response(10_000))  # total $0.03
        assert len(ledger.entries) == 3  # the entry is recorded before the check

    def test_zero_cost_never_exceeds(self):
        ledger = BudgetLedger(limit_micros=1)
        for _ in range(20):
            ledger.record_and_check("reason", self.response(0))

    def test_total_is_exact_integer_sum(self):
        ledger = BudgetLedger(limit_micros=10**9)
        costs = [1, 3, 7, 11, 13]
        for cost in costs:
            ledger.record_and_check("profile", self.response(cost))
        assert ledger.total_micros == sum(costs)

    def test_price_entry_integer_arithmetic(self):
        price = PriceEntry(input_micros_per_1k=150, output_micros_per_1k=600)
        assert price.cost_micros(Usage(input_tokens=2000, output_tokens=500)) == 600

    def test_role_counts(self):
        ledger = BudgetLedger(limit_micros=10**9)
        ledger.record_and_check("profile", self.response(0))
        ledger.record_and_check("profile", self.response(0))
        ledger.record_and_check("reason", self.response(0))
        assert ledger.call_count_by_role() == {"profile": 2, "reason": 1}


class TestScriptedModel:
    def test_in_order_consumption(self):
        model = ScriptedModel([{"role": "profile", "text": "P"},
                               {"role": "reason", "text": "R"}])
        assert model.complete(ModelRequest(role="profile", prompt="a")).text == "P"
        assert model.complete(ModelRequest(role="reason", prompt="b")).text == "R"
        assert model.calls == 2

    def test_role_mismatch(self):
        model = ScriptedModel([{"role": "reason", "text": "R"}])
        with pytest.raises(RoleMismatchError):
            model.complete(ModelRequest(role="repair", prompt="x"))

    def test_exhaustion(self):
        model = ScriptedModel([{"role": "profile", "text": "P"}])
        model.complete(ModelRequest(role="profile", prompt="x"))
        with pytest.raises(ScriptExhaustedError):
            model.complete(ModelRequest(role="profile", prompt="x"))

    def test_synthetic_usage_proportional_to_lengths(self):
        model = ScriptedModel([{"role": "reason", "text": "three word answer"}])
        response = model.complete(ModelRequest(role="reason", prompt="one two"))
        assert response.usage.input_tokens == 2
        assert response.usage.output_tokens == 3


class TestHttpProvider:
    def test_payload_shape(self):
        model = HttpProviderModel(endpoint="http://example/chat", model="m1")
        payload = model.build_payload(ModelRequest(role="reason", prompt="hello", seed=42))
        assert payload == {"model": "m1",
                           "messages": [{"role": "user", "content": "hello"}],
                           "temperature": 0.0, "seed": 42}

    def test_missing_credentials(self, monkeypatch):
        monkeypatch.delenv("PTRUN_API_KEY", raising=False)
        model = HttpProviderModel(endpoint="http://example/chat", model="m1")
        with pytest.raises(MissingCredentialsError):
            model.complete(ModelRequest(role="reason", prompt="hi"))

    def test_fake_transport_round_trip(self, monkeypatch):
        monkeypatch.setenv("PTRUN_API_KEY", "secret")
        captured = {}

        def transport(payload, headers):
            captured["payload"] = payload
            captured["headers"] = headers
            return {"choices": [{"message": {"content": "pong"}}],
                    "usage": {"prompt_tokens": 5, "completion_tokens": 2}}

        model = HttpProviderModel(endpoint="http://example/chat", model="m1",
                                  price=PriceEntry(1000, 2000), transport=transport)
        response = model.complete(ModelRequest(role="reason", prompt="ping"))
        assert response.text == "pong"
        assert response.usage.output_tokens == 2
        assert response.cost_micros == (5 * 1000 + 2 * 2000) // 1000
        assert captured["headers"]["Authorization"] == "Bearer secret"
