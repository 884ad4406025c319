import json
import random
import re
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ptrun import core, ruledsl as r
from ptrun.executor import ExecutionState

import helpers_dsl

CORPUS_PATH = Path(__file__).parent / "data" / "dsl_corpus.json"


LEFT_NESTED_SUM = helpers_dsl.left_nested("1", "+")
LEFT_NESTED_AND = helpers_dsl.left_nested("exists(env.a)", "and")


def nth_operator(source: str, pattern: str, n: int = r.MAX_DEPTH) -> int:
    """Offset of the operator past the bound: the (n+1)th match of `pattern`."""
    return [m.start() for m in re.finditer(pattern, source)][n]


def state_with(result_store=None, env=None):
    return ExecutionState(result_store=dict(result_store or {}), env=dict(env or {}))


class TestParsing:
    def test_single_comparison_atom(self):
        ast = r.parse_predicate("result.search_1.count == 0")
        assert ast == r.Comparison(op="==", path=r.PathRef(("result", "search_1", "count")),
                                   value=0.0)

    def test_conjunction_round_trips(self):
        source = "failed(lookup_1) and result.search_1.count < 3"
        ast = r.parse_predicate(source)
        assert isinstance(ast, r.And)
        assert r.parse_predicate(r.predicate_to_source(ast)) == ast

    def test_path_root_error(self):
        with pytest.raises(r.PathRootError):
            r.parse_predicate("weather.today == 1")

    def test_syntax_error_carries_offset_and_expected(self):
        with pytest.raises(r.DslParseError) as exc_info:
            r.parse_predicate("result.s1.count <")
        assert exc_info.value.offset == len("result.s1.count <")
        assert "literal" in exc_info.value.expected

    def test_triple_equals_rejected(self):
        with pytest.raises(r.DslParseError):
            r.parse_predicate("result.count === ")

    # py_scanstring is the scanner where _json is missing; it reads a \u's
    # digits with int(), so the lexer must refuse these itself.
    @pytest.mark.parametrize("scanner", ["c_scanstring", "py_scanstring"])
    @pytest.mark.parametrize("escape", ["\\u 1_a", "\\u+041", "\\u-041"])
    def test_u_escape_takes_exactly_four_hex_digits(self, escape, scanner, monkeypatch):
        if getattr(json.decoder, scanner) is None:
            pytest.skip("this interpreter has no _json")
        monkeypatch.setattr(json.decoder, "scanstring", getattr(json.decoder, scanner))
        with pytest.raises(r.DslParseError) as exc_info:
            r.parse_predicate(f'result.x == "{escape}"')
        assert exc_info.value.offset == len('result.x == "\\')  # at the u

    def test_surrogate_pair_escape_is_one_character(self):
        ast = r.parse_predicate('result.x == "\\ud83d\\ude00"')
        assert ast.value == "\U0001f600"
        assert r.predicate_to_source(ast) == 'result.x == "\\ud83d\\ude00"'
        assert r.parse_predicate(r.predicate_to_source(ast)) == ast
        assert r.eval_predicate(ast, state_with({"x": "\U0001f600"})) is True

    def test_lone_surrogate_escape_is_one_code_point(self):
        ast = r.parse_predicate('result.x == "\\ud83d"')
        assert ast.value == "\ud83d"
        assert r.parse_predicate(r.predicate_to_source(ast)) == ast

    # A raw high and low pair would print as the escapes of U+1F600 and read
    # back as that one character, so a raw surrogate is refused where it stands.
    @pytest.mark.parametrize("literal, index, message", [
        ('"\ud83d\ude00"', 1, "raw surrogate U+D83D in a string literal"),
        ('"\\ud83d\ude00"', 7, "raw surrogate U+DE00 in a string literal"),
        ('"a\ud800\\q"', 2, "raw surrogate U+D800 in a string literal"),
        ('"a\ud800', 2, "raw surrogate U+D800 in a string literal"),
        ('"\\q\ud800"', 1, "Invalid \\escape"),
        ('"\\u12\ud800"', 2, "Invalid \\uXXXX escape"),
    ], ids=["raw-pair", "escape-then-raw-low", "before-bad-escape", "unterminated",
            "after-bad-escape", "after-bad-u-escape"])
    def test_raw_surrogate_in_a_literal_is_refused(self, literal, index, message):
        prefix = "result.x == "
        with pytest.raises(r.DslParseError) as exc_info:
            r.parse_predicate(prefix + literal)
        assert exc_info.value.offset == len(prefix) + index  # ASCII before the fault
        assert str(exc_info.value) == f"{message} (at byte {exc_info.value.offset})"
        assert helpers_dsl.lex_outcome(r._tokenize, literal) == \
            helpers_dsl.lex_outcome(helpers_dsl.reference_tokenize, literal)

    def test_precedence_and_binds_tighter_than_or(self):
        ast = r.parse_predicate("env.a == 1 or env.b == 1 and env.c == 1")
        assert isinstance(ast, r.Or)
        assert isinstance(ast.right, r.And)

    def test_not_and_parens(self):
        ast = r.parse_predicate("not (exists(env.a) or exists(env.b))")
        assert isinstance(ast, r.Not)
        assert isinstance(ast.operand, r.Or)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(r.DslParseError):
            r.parse_predicate("exists(env.a) exists(env.b)")

    def test_modifier_multi_assignment_order_preserved(self):
        ast = r.parse_modifier("set limit = 1; set query = \"x\"")
        assert [a.slot for a in ast.assignments] == ["limit", "query"]

    def test_arith_rejects_references(self):
        with pytest.raises(r.DslParseError):
            r.parse_arith("limit + 1")
        with pytest.raises(r.DslParseError):
            r.parse_arith("result.x + 1")


class TestEvaluation:
    def test_exists_present_key(self):
        state = state_with({"search_1": {"count": 2}})
        assert r.eval_predicate(r.parse_predicate("exists(result.search_1)"), state) is True

    def test_missing_path_comparison_false(self):
        state = state_with({"search_1": {}})
        assert r.eval_predicate(r.parse_predicate("result.search_1.count == 0"), state) is False

    def test_disjunction_truth_table_case(self):
        # failed(search_1)=false, count>=2 with count=2 -> true; whole: true
        state = state_with({"search_1": {"count": 2}})
        ast = r.parse_predicate("failed(search_1) or result.search_1.count >= 2")
        assert r.eval_predicate(ast, state) is True

    def test_empty_sugar(self):
        state = state_with({"a_1": [], "b_1": {"x": 1}})
        assert r.eval_predicate(r.parse_predicate("empty(a_1)"), state) is True
        assert r.eval_predicate(r.parse_predicate("empty(b_1)"), state) is False
        assert r.eval_predicate(r.parse_predicate("empty(missing_9)"), state) is False

    def test_type_mix_comparisons_are_false_not_errors(self):
        state = state_with({"k_1": {"s": "abc", "n": 3, "b": True, "lst": [1]}})
        for source in ("result.k_1.s < 3", "result.k_1.n == \"abc\"",
                       "result.k_1.b > 0", "result.k_1.lst == 1"):
            assert r.eval_predicate(r.parse_predicate(source), state) is False

    def test_boolean_equality(self):
        state = state_with({"k_1": {"b": True}})
        assert r.eval_predicate(r.parse_predicate("result.k_1.b == true"), state) is True
        assert r.eval_predicate(r.parse_predicate("result.k_1.b != false"), state) is True

    def test_list_indexing_path(self):
        state = state_with({"s_1": {"titles": ["Paris", "France"]}})
        ast = r.parse_predicate('result.s_1.titles.1 == "France"')
        assert r.eval_predicate(ast, state) is True

    def test_numeric_int_float_equivalence(self):
        state = state_with({"k_1": {"n": 3}})
        assert r.eval_predicate(r.parse_predicate("result.k_1.n == 3"), state) is True
        assert r.eval_predicate(r.parse_predicate("result.k_1.n < 3.5"), state) is True


class TestModifiers:
    def test_double_limit(self):
        ast = r.parse_modifier("set limit = limit * 2")
        out = r.apply_modifier(ast, {"limit": 5}, state_with())
        assert out == {"limit": 10}

    def test_empty_modifier_is_identity(self):
        ast = r.parse_modifier("")
        params = {"limit": 5}
        assert r.apply_modifier(ast, params, state_with()) == params

    def test_path_assignment(self):
        state = state_with({"search_1": {"top_title": "Alan Turing"}})
        ast = r.parse_modifier("set query = result.search_1.top_title")
        assert r.apply_modifier(ast, {"query": "old"}, state)["query"] == "Alan Turing"

    def test_input_map_not_mutated(self):
        params = {"limit": 5}
        r.apply_modifier(r.parse_modifier("set limit = limit + 1"), params, state_with())
        assert params == {"limit": 5}

    def test_assignments_see_earlier_assignments(self):
        ast = r.parse_modifier("set a = 1; set b = a + 1")
        out = r.apply_modifier(ast, {"a": 0, "b": 0}, state_with())
        assert out == {"a": 1.0, "b": 2.0}

    def test_string_concatenation(self):
        ast = r.parse_modifier('set query = query + " extra"')
        assert r.apply_modifier(ast, {"query": "base"}, state_with())["query"] == "base extra"

    def test_non_finite_arithmetic_raises(self):
        ast = r.parse_modifier("set limit = limit * " + " * ".join(["99999999999"] * 30))
        with pytest.raises(r.ModifierEvalError, match="not finite"):
            r.apply_modifier(ast, {"limit": 2}, state_with())

    def test_too_large_literal_is_parse_error(self):
        with pytest.raises(r.DslParseError, match="too large"):
            r.parse_modifier("set limit = " + "9" * 400)

    def test_mixed_type_arithmetic_raises(self):
        ast = r.parse_modifier('set x = x + "a"')
        with pytest.raises(r.ModifierEvalError):
            r.apply_modifier(ast, {"x": 3}, state_with())

    def test_missing_path_raises(self):
        ast = r.parse_modifier("set x = result.nope.value")
        with pytest.raises(r.ModifierEvalError):
            r.apply_modifier(ast, {"x": 1}, state_with())


class TestAutoRules:
    def test_lookup_hit(self):
        rule = r.AutoRule(id="t", expr=r.parse_auto_expr("result.search_1.top_title"))
        state = state_with({"search_1": {"top_title": "Paris"}})
        assert r.eval_auto_rule(rule, state) == "Paris"

    def test_default_fallback(self):
        rule = r.AutoRule(id="t", expr=r.parse_auto_expr('result.search_1.top_title ?? "unknown"'))
        assert r.eval_auto_rule(rule, state_with()) == "unknown"

    def test_missing_without_default_raises(self):
        rule = r.AutoRule(id="t", expr=r.parse_auto_expr("result.search_1.top_title"))
        with pytest.raises(r.UnresolvedAutoError):
            r.eval_auto_rule(rule, state_with())


class TestRoundTrip:
    def test_predicate_round_trip_seeded(self):
        rng = random.Random(901)
        for _ in range(300):
            ast = helpers_dsl.gen_predicate(rng)
            assert r.parse_predicate(r.predicate_to_source(ast)) == ast

    def test_modifier_round_trip_seeded(self):
        rng = random.Random(902)
        for _ in range(300):
            ast = helpers_dsl.gen_modifier(rng)
            assert r.parse_modifier(r.modifier_to_source(ast)) == ast

    def test_auto_round_trip_seeded(self):
        rng = random.Random(903)
        for _ in range(200):
            ast = helpers_dsl.gen_auto(rng)
            assert r.parse_auto_expr(r.auto_expr_to_source(ast)) == ast

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=200, deadline=None)
    def test_predicate_round_trip_hypothesis(self, seed):
        ast = helpers_dsl.gen_predicate(random.Random(seed))
        assert r.parse_predicate(r.predicate_to_source(ast)) == ast


class TestTotality:
    def test_eval_never_raises_on_valid_ast(self):
        rng = random.Random(904)
        states = [
            state_with(),
            state_with({"kb_search_1": {"count": 2, "titles": ["A", "B"], "top_title": "A"}},
                       env={"flag": 1, "name": "x"}),
            state_with({"kb_lookup_1": "", "x_1": None, "value_2": [1, 2, 3]}),
        ]
        for _ in range(400):
            ast = helpers_dsl.gen_predicate(rng)
            for state in states:
                result = r.eval_predicate(ast, state)
                assert isinstance(result, bool)

    def test_determinism_repeated_eval(self):
        state = state_with({"kb_search_1": {"count": 2}})
        ast = r.parse_predicate("result.kb_search_1.count >= 2 and not failed(kb_search_1)")
        results = {r.eval_predicate(ast, state) for _ in range(50)}
        assert results == {True}


class TestCorpus:
    def test_corpus_is_large_enough(self):
        corpus = json.loads(CORPUS_PATH.read_text())
        assert len(corpus) >= 50
        assert any(not entry["ok"] for entry in corpus)
        assert any(entry["ok"] for entry in corpus)

    def test_corpus_golden(self):
        corpus = json.loads(CORPUS_PATH.read_text())
        parse = {"predicate": r.parse_predicate, "modifier": r.parse_modifier,
                 "auto": r.parse_auto_expr}
        printer = {"predicate": r.predicate_to_source, "modifier": r.modifier_to_source,
                   "auto": r.auto_expr_to_source}
        for entry in corpus:
            kind, source = entry["kind"], entry["source"]
            if entry["ok"]:
                ast = parse[kind](source)
                assert printer[kind](ast) == entry["printed"], source
            else:
                with pytest.raises(r.DslParseError) as exc_info:
                    parse[kind](source)
                assert exc_info.value.offset == entry["error_offset"], source


class TestLexerMatchesReference:
    """The master-regex lexer gives the reference lexer's tokens, or its
    error message and byte offset, on every input."""

    # letters and non-letters that \w matches, combining marks, lone
    # surrogates, string escapes, signs glued to digits, whitespace the
    # grammar does not allow
    FRAGMENTS = ("é", "ß", "İ", "一", "²", "½", "Ⅻ", "١", "\u0301", "\u20dd", "\ud800", "\udc00",
                 '"', "\\", "\\u", "\\u00e9", "\\u12", "\\uD83D", "\\uDE00", "\\u 1_a", "\\u+041",
                 "\\n", "\\q",
                 "-", "-1", "-0.5", "1.", ".5", "12", "\t", "\n", "\r", "\x0b", "\xa0",
                 "==", "??", "!", "?", "and", "set", "trace", "_x9")

    @given(st.one_of(
        st.lists(st.one_of(st.sampled_from(FRAGMENTS), st.characters(max_codepoint=127)),
                 max_size=40).map("".join),
        st.text(alphabet=st.characters(exclude_categories=())),
    ))
    @settings(max_examples=1000, deadline=None)
    def test_same_tokens_or_same_error(self, source):
        assert helpers_dsl.lex_outcome(r._tokenize, source) == \
            helpers_dsl.lex_outcome(helpers_dsl.reference_tokenize, source)

    @pytest.mark.parametrize("source", [
        "", "   ", "x \t\r\n", "x\x0b", "x²", "x١", "é1_ü", "一二 == 三", "½", "Ⅻ", "x\u0301",
        "a-1", "a - 1", "--1", "1.5.5", "1..5", "-", "9" * 400, '"ab', '"ab\\', '"a\\"',
        '"\\u00e9\\n"', '"\\u12"', '"\\u 1_a"', '"\\q"', '"a" "b', "\ud800", "result.x ==\ud800",
        '"\\u+041"', '"\\ud83d\\ude00"',
    ])
    def test_edge_cases(self, source):
        assert helpers_dsl.lex_outcome(r._tokenize, source) == \
            helpers_dsl.lex_outcome(helpers_dsl.reference_tokenize, source)

    def test_corpus_and_generated_sources(self):
        rng = random.Random(7)
        sources = [entry["source"] for entry in json.loads(CORPUS_PATH.read_text())]
        sources += [r.predicate_to_source(helpers_dsl.gen_predicate(rng)) for _ in range(200)]
        sources += [r.modifier_to_source(helpers_dsl.gen_modifier(rng)) for _ in range(200)]
        for source in sources:
            assert helpers_dsl.lex_outcome(r._tokenize, source) == \
                helpers_dsl.lex_outcome(helpers_dsl.reference_tokenize, source), source


class TestUntrustedText:
    TOKENS = ("result", "trace", "env", "x", ".", "0", "12", "1.5", "-3", "==", "<", "(", ")",
              "and", "or", "not", "exists", "failed", "set", "=", "+", "-", "*", ";", "??",
              '"s"', '"\\u00e9"', "²", "١٢", "٣", "\ud800", "_", "é")

    @given(st.one_of(st.text(alphabet=st.characters(exclude_categories=())),
                     st.lists(st.sampled_from(TOKENS), max_size=40).map(" ".join),
                     st.lists(st.sampled_from(TOKENS), max_size=40).map("".join)))
    @settings(max_examples=400, deadline=None)
    def test_any_text_parses_or_raises_dsl_parse_error(self, source):
        for parse in (r.parse_predicate, r.parse_modifier, r.parse_auto_expr, r.parse_arith):
            try:
                parse(source)
            except r.DslParseError:
                pass

    @pytest.mark.parametrize("source, offset", [
        ("result.x == ²", len("result.x == ")),
        ("result.a == ١٢", len("result.a == ")),
        ("exists(trace.٣)", len("exists(trace.")),
        ("env.x١ == 1", len("env.x")),
    ])
    def test_only_ascii_digits_are_digits(self, source, offset):
        with pytest.raises(r.DslParseError) as exc_info:
            r.parse_predicate(source)
        assert exc_info.value.offset == offset

    def test_nesting_at_the_bound_parses(self):
        depth = r.MAX_DEPTH
        assert r.parse_predicate("(" * depth + "exists(env.a)" + ")" * depth) == \
            r.Exists(path=r.PathRef(("env", "a")))
        assert r.eval_predicate(r.parse_predicate("not " * depth + "exists(env.a)"),
                                state_with(env={"a": 1})) is True
        assert r.eval_expr(r.parse_arith(" + ".join(["1"] * (depth + 1))), {}, None) == depth + 1

    @pytest.mark.parametrize("source, parse, offset", [
        ("(" * 1000 + "exists(env.a)" + ")" * 1000, r.parse_predicate, r.MAX_DEPTH),
        ("not " * 1000 + "exists(env.a)", r.parse_predicate, 4 * r.MAX_DEPTH),
        (" and ".join(["exists(env.a)"] * 1500), r.parse_predicate,
         len("exists(env.a) and ") * r.MAX_DEPTH + len("exists(env.a)") + 1),
        (" or ".join(["env.a == 1"] * 1500), r.parse_predicate,
         len("env.a == 1 or ") * r.MAX_DEPTH + len("env.a == 1") + 1),
        (" + ".join(["1"] * 1500), r.parse_arith, 4 * r.MAX_DEPTH + 2),
        (" * ".join(["2"] * 1500), r.parse_arith, 4 * r.MAX_DEPTH + 2),
        ("set x = " + "(" * 1000 + "1" + ")" * 1000, r.parse_modifier,
         len("set x = ") + r.MAX_DEPTH),
        ("(env.a == 1 and " * 40 + "env.a == 1" + ")" * 40, r.parse_predicate,
         len("(env.a == 1 and ") * 32),
        (LEFT_NESTED_SUM, r.parse_arith, nth_operator(LEFT_NESTED_SUM, r"[(+]")),
        (LEFT_NESTED_AND, r.parse_predicate,
         nth_operator(LEFT_NESTED_AND, r"(?<!exists)\(|\band\b")),
    ], ids=["parens", "not", "and-chain", "or-chain", "plus-chain", "times-chain",
            "modifier-parens", "mixed", "left-nested-sum", "left-nested-and"])
    def test_nesting_past_the_bound_is_a_parse_error_at_its_token(self, source, parse, offset):
        with pytest.raises(r.DslParseError, match="nesting operators") as exc_info:
            parse(source)
        assert exc_info.value.offset == offset


MEMO_KINDS = ("predicate", "modifier", "auto_expr", "arith")


def parse_outcome(parse, kind, source):
    """A parse's AST, or its error's type, message, offset and expected tokens."""
    try:
        return parse(kind, source)
    except r.DslParseError as exc:
        return type(exc), str(exc), exc.offset, exc.expected


def fresh_parse(kind, source):
    return getattr(r, "parse_" + kind)(source)


class TestRuleMemo:
    @pytest.fixture(autouse=True)
    def empty_rule_memo(self):
        core.parse_rule.cache_clear()

    def assert_memo_matches_fresh_parse(self, kind, source):
        fresh = parse_outcome(fresh_parse, kind, source)
        assert parse_outcome(core.parse_rule, kind, source) == fresh, (kind, source)
        assert parse_outcome(core.parse_rule, kind, source) == fresh, (kind, source)

    def test_corpus_matches_a_fresh_parse(self):
        corpus = json.loads(CORPUS_PATH.read_text())
        for entry in corpus:
            for kind in MEMO_KINDS:
                self.assert_memo_matches_fresh_parse(kind, entry["source"])
        assert core.parse_rule.cache_info().currsize == \
            len({entry["source"] for entry in corpus}) * len(MEMO_KINDS)

    @given(st.sampled_from(MEMO_KINDS),
           st.one_of(st.text(alphabet=st.characters(exclude_categories=())),
                     st.lists(st.sampled_from(TestUntrustedText.TOKENS), max_size=40).map(" ".join),
                     st.lists(st.sampled_from(TestUntrustedText.TOKENS), max_size=40).map("".join)))
    @settings(max_examples=400, deadline=None)
    def test_drawn_text_matches_a_fresh_parse(self, kind, source):
        core.parse_rule.cache_clear()
        self.assert_memo_matches_fresh_parse(kind, source)

    def test_rules_that_share_a_text_share_one_ast_and_errors_are_fresh(self):
        assert core.parse_rule("predicate", "exists(env.a)") is \
            core.parse_rule("predicate", "exists(env.a)")
        errors = []
        for _ in range(2):
            with pytest.raises(r.DslParseError) as exc_info:
                core.parse_rule("predicate", "env.a <")
            errors.append(exc_info.value)
        assert errors[0] is not errors[1] and str(errors[0]) == str(errors[1])

    def test_memo_holds_at_most_its_bound(self):
        for i in range(core.RULE_MEMO_ENTRIES + 50):
            core.parse_rule("predicate", f"env.a == {i}")
            assert core.parse_rule.cache_info().currsize <= core.RULE_MEMO_ENTRIES
        assert core.parse_rule.cache_info().currsize == core.RULE_MEMO_ENTRIES

    def test_over_length_text_is_parsed_but_not_kept(self, monkeypatch):
        calls = []

        def counting(source, _original=r.parse_predicate):
            calls.append(source)
            return _original(source)

        monkeypatch.setattr(r, "parse_predicate", counting)
        long_ok = 'env.a == "' + "x" * core.RULE_MEMO_MAX_TEXT + '"'
        long_bad = long_ok + " <"
        for source in (long_ok, long_bad, long_ok, long_bad):
            self.assert_memo_matches_fresh_parse("predicate", source)
        assert core.parse_rule.cache_info().currsize == 0
        # three parses per check: the fresh one and both memo lookups
        assert len(calls) == 4 * 3

    def test_threads_sharing_texts_get_equal_results(self):
        texts = [("predicate", f"result.s_{i}.count >= {i}") for i in range(40)]
        texts += [("modifier", f"set limit = {i} *") for i in range(5)]  # unparseable
        texts += [("arith", f"{i} + {i} * 2") for i in range(5)]
        expected = [parse_outcome(fresh_parse, kind, source) for kind, source in texts]
        barrier = threading.Barrier(8)
        results, failures = [], []

        def work():
            try:
                barrier.wait()
                results.append([parse_outcome(core.parse_rule, kind, source)
                                for kind, source in texts])
            except Exception as exc:  # noqa: BLE001 - any exception fails the test
                failures.append(exc)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        assert results == [expected] * 8
