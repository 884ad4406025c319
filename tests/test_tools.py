import collections
import functools
import json
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ptrun import pipeline
from ptrun.bench import bench_metadata
from ptrun.core import SlotSpec, Task, ToolSpec
from ptrun.pipeline import RunConfig, ToolEnvironment, replay_trace, run_ptr
from ptrun.semantic import ScriptedModel
from ptrun.tools import (Article, DuplicateToolError, KnowledgeBase, ToolOutcome, ToolRegistry,
                         builtin_registry, calc, make_kb_lookup, make_kb_search,
                         parse_fault_script, tokenize)

FIXTURE = [
    {"title": "Alan Turing", "body": "Alan Turing was a mathematician.", "links": ["Turing machine"]},
    {"title": "Turing machine", "body": "An abstract machine model of computation.", "links": []},
    {"title": "Paris", "body": "Paris is the capital of France.", "links": ["France"]},
]


@pytest.fixture
def kb():
    return KnowledgeBase(FIXTURE)


def hand_score(query, articles):
    """Independent oracle: distinct query tokens found in title+body."""
    scores = {}
    q = set(tokenize(query))
    for a in articles:
        scores[a["title"]] = len(q & set(tokenize(a["title"] + " " + a["body"])))
    return scores


class TestKbSearch:
    def test_hand_scored_ranking(self, kb):
        # hand score for "turing machine": Turing machine 2, Alan Turing 1, Paris 0
        scores = hand_score("turing machine", FIXTURE)
        assert scores["Turing machine"] > scores["Alan Turing"] > scores["Paris"]
        outcome = make_kb_search(kb)({"query": "turing machine", "limit": 3}, None)
        assert outcome.ok
        assert outcome.value["top_title"] == "Turing machine"
        assert outcome.value["titles"] == ["Turing machine", "Alan Turing"]
        assert outcome.value["count"] == 2

    def test_lexicographic_tiebreak(self):
        kb = KnowledgeBase([
            {"title": "Beta", "body": "shared token", "links": []},
            {"title": "Alpha", "body": "shared token", "links": []},
        ])
        outcome = make_kb_search(kb)({"query": "shared", "limit": 2}, None)
        assert outcome.value["titles"] == ["Alpha", "Beta"]

    def test_no_overlap_is_empty_result(self, kb):
        outcome = make_kb_search(kb)({"query": "zzzz qqqq", "limit": 3}, None)
        assert not outcome.ok and outcome.error_class == "empty_result"

    def test_empty_query_invalid_params(self, kb):
        outcome = make_kb_search(kb)({"query": "   ", "limit": 3}, None)
        assert not outcome.ok and outcome.error_class == "invalid_params"

    def test_limit_validation(self, kb):
        search = make_kb_search(kb)
        assert search({"query": "paris", "limit": 0}, None).error_class == "invalid_params"
        assert search({"query": "paris", "limit": 2.5}, None).error_class == "invalid_params"
        assert search({"query": "paris", "limit": True}, None).error_class == "invalid_params"

    def test_limit_caps_titles_and_count(self, kb):
        rng = random.Random(3)
        search = make_kb_search(kb)
        queries = ["turing machine paris capital", "machine", "alan paris", "computation capital"]
        for _ in range(50):
            query = rng.choice(queries)
            limit = rng.randint(1, 4)
            outcome = search({"query": query, "limit": limit}, None)
            if outcome.ok:
                assert len(outcome.value["titles"]) <= limit
                assert outcome.value["count"] == len(outcome.value["titles"])
                assert len(set(outcome.value["titles"])) == len(outcome.value["titles"])

    def test_default_limit(self, kb):
        outcome = make_kb_search(kb)({"query": "turing"}, None)
        assert outcome.ok

    def test_unknown_slot_rejected(self, kb):
        outcome = make_kb_search(kb)({"query": "x", "bogus": 1}, None)
        assert outcome.error_class == "invalid_params"


def scan_search(kb, query, limit):
    """Reference kb_search: tokenize every article on every call (the oracle
    for the indexed search)."""
    query_tokens = set(tokenize(query))
    scored = []
    for title in kb.titles():
        article = kb.articles[title]
        overlap = len(query_tokens & set(tokenize(f"{article.title} {article.body}")))
        if overlap > 0:
            scored.append((-overlap, title))
    if not scored:
        return ToolOutcome.failure("empty_result", f"no article shares a token with {query!r}")
    scored.sort()
    titles = [title for _, title in scored[:limit]]
    return ToolOutcome.success({"count": len(titles), "top_title": titles[0], "titles": titles})


# Small alphabet so tokens collide and nest; "İ" lower-cases to two code
# points, the Kelvin sign "K" to ASCII "k", "ß" and "é" are letters outside
# [a-z0-9], the rest split tokens.
TEXT_ALPHABET = "ab1pinİKßé .,-!\n"
texts = st.text(alphabet=TEXT_ALPHABET, max_size=24)


@st.composite
def kb_and_query(draw):
    titles = draw(st.lists(st.text(alphabet=TEXT_ALPHABET, max_size=10),
                           min_size=1, max_size=8, unique=True))
    articles = [{"title": title, "body": draw(texts), "links": []} for title in titles]
    pool = sorted({token for a in articles for token in tokenize(f"{a['title']} {a['body']}")})
    # substrings of article tokens, so "pin1" meets "pin12" and title tokens
    pieces = sorted({token[i:j] for token in pool
                     for i in range(len(token)) for j in range(i + 1, len(token) + 1)})
    words = draw(st.lists(st.sampled_from(pieces), max_size=4)) if pieces else []
    query = " ".join(words + [draw(texts)])
    limit = draw(st.integers(min_value=1, max_value=9))
    return articles, query, limit


class TestKbSearchMatchesScan:
    @settings(max_examples=400, deadline=None)
    @given(kb_and_query())
    def test_same_outcome_as_linear_scan(self, case):
        articles, query, limit = case
        assume(query.strip())
        kb = KnowledgeBase(articles)
        outcome = make_kb_search(kb)({"query": query, "limit": limit}, None)
        assert outcome.to_dict() == scan_search(kb, query, limit).to_dict()

    @pytest.mark.parametrize("query, limit", [
        ("pin1", 3), ("pin12", 3), ("pin", 3), ("entry", 1), ("entry pin1", 2),
        ("istanbul", 3), ("zeta", 3), ("strasse", 3), ("nothing here", 3), ("1", 5),
        ("\u212aelvin", 3)])
    def test_named_cases(self, query, limit):
        kb = KnowledgeBase([
            {"title": "Entry 12", "body": "pin12 and xpin1y", "links": []},
            {"title": "Entry 1", "body": "pin1, pin1.", "links": []},
            {"title": "İİİİstanbul", "body": "", "links": []},
            {"title": "Straße", "body": "", "links": []},
            {"title": "Zeta", "body": "!!", "links": []},
            {"title": "\u212aelvin", "body": "", "links": []},  # the Kelvin sign lower-cases to "k"
            {"title": "Scale", "body": "kelvin", "links": []},
        ])
        outcome = make_kb_search(kb)({"query": query, "limit": limit}, None)
        assert outcome.to_dict() == scan_search(kb, query, limit).to_dict()

    def test_substring_of_a_longer_token_is_not_a_hit(self):
        kb = KnowledgeBase([{"title": "Long", "body": "pin12 xpin1", "links": []},
                            {"title": "Short", "body": "pin1.", "links": []}])
        outcome = make_kb_search(kb)({"query": "pin1"}, None)
        assert outcome.value["titles"] == ["Short"]

    def test_hit_after_length_changing_lowercase(self):
        # "İ".lower() is two code points, so offsets come from the lowered text
        kb = KnowledgeBase([{"title": "A" + "İ" * 50, "body": "", "links": []},
                            {"title": "B", "body": "target", "links": []},
                            {"title": "C", "body": "", "links": []},
                            {"title": "D", "body": "", "links": []}])
        assert make_kb_search(kb)({"query": "target"}, None).value["titles"] == ["B"]

    def test_empty_kb_is_empty_result(self):
        outcome = make_kb_search(KnowledgeBase([]))({"query": "anything"}, None)
        assert outcome.error_class == "empty_result"

    def test_one_article_kb(self):
        kb = KnowledgeBase([{"title": "Only", "body": "", "links": []}])
        search = make_kb_search(kb)
        assert search({"query": "only", "limit": 4}, None).value["titles"] == ["Only"]
        assert search({"query": "onl"}, None).error_class == "empty_result"

    @pytest.mark.parametrize("query, limit", [("common", 3), ("common 7", 5), ("common 9999", 2)])
    def test_token_in_every_article_of_a_large_kb(self, query, limit):
        kb = KnowledgeBase([{"title": f"Common {i}", "body": f"entry {i % 10}", "links": []}
                            for i in range(10_000)])
        outcome = make_kb_search(kb)({"query": query, "limit": limit}, None)
        assert outcome.to_dict() == scan_search(kb, query, limit).to_dict()


@pytest.fixture
def index_builds(monkeypatch):
    """The KnowledgeBase objects whose token index was built, one entry per build."""
    builds = []
    build = KnowledgeBase._postings.func

    def counting(kb):
        builds.append(kb)
        return build(kb)

    counted = functools.cached_property(counting)
    counted.__set_name__(KnowledgeBase, "_postings")
    monkeypatch.setattr(KnowledgeBase, "_postings", counted)
    return builds


class TestKbIndex:
    def test_built_once_across_searches_a_run_and_a_memo_hit_replay(
            self, index_builds, monkeypatch, tmp_path):
        monkeypatch.setattr(pipeline, "_KB_MEMO", collections.OrderedDict())
        env = ToolEnvironment(articles=tuple(FIXTURE))
        search = make_kb_search(env.kb)
        for query in ("turing", "paris capital", "machine model", "nothing"):
            search({"query": query}, None)
        profile = {"workflow": {"steps": [{"tool_id": "kb_search", "params": {"query": "turing"}}]}}
        model = ScriptedModel([{"role": "profile", "text": json.dumps(profile)},
                               {"role": "reason", "text": "Alan Turing"}])
        path = str(tmp_path / "run.jsonl")
        report = run_ptr(Task(objective="Who was Turing?"), bench_metadata(), RunConfig(),
                         model, env, trace_path=path)
        assert report.outcome == "ok"
        assert list(pipeline._KB_MEMO) == [env.kb_digest]
        assert replay_trace(path).matched
        assert index_builds == [env.kb]

    def test_kb_never_searched_builds_no_index(self, index_builds):
        kb = KnowledgeBase(FIXTURE)
        assert kb.get("paris").title == "Paris"
        assert make_kb_lookup(kb)({"title": "Alan Turing"}, None).ok
        assert kb.titles() and kb.to_list()
        assert index_builds == []


class TestKnowledgeBaseInput:
    def test_articles_are_read_only(self, kb):
        with pytest.raises(TypeError):
            kb.articles["New"] = Article(title="New", body="")
        with pytest.raises(TypeError):
            del kb.articles["Paris"]

    @pytest.mark.parametrize("articles, message", [
        ({"title": "A"}, "knowledge base must be a list"),
        (["A"], "article 0 is not an object"),
        ([{"title": "A"}, {"body": "x"}], "article 1: title must be a string"),
        ([{"title": 3}], "article 0: title must be a string"),
        ([{"title": "A", "body": 5}], "article 0: body must be a string"),
        ([{"title": "A", "links": "B"}], "article 0: links must be a list of strings"),
        ([{"title": "A", "links": ["B", 1]}], "article 0: links must be a list of strings"),
        ([{"title": "A"}, {"title": "A"}], "article 1: duplicate title 'A'"),
    ])
    def test_malformed_entries_are_value_errors(self, articles, message):
        with pytest.raises(ValueError, match=message):
            KnowledgeBase(articles)


class TestKbLookup:
    def test_exact_title(self, kb):
        outcome = make_kb_lookup(kb)({"title": "Paris"}, None)
        assert outcome.ok and outcome.value["body"].startswith("Paris is")

    def test_case_insensitive(self, kb):
        outcome = make_kb_lookup(kb)({"title": "pArIs"}, None)
        assert outcome.ok

    def test_absent_title_not_found(self, kb):
        outcome = make_kb_lookup(kb)({"title": "Nowhere"}, None)
        assert not outcome.ok and outcome.error_class == "not_found"

    def test_links_surface(self, kb):
        outcome = make_kb_lookup(kb)({"title": "Alan Turing"}, None)
        assert outcome.value["links"] == ["Turing machine"]


class TestCalc:
    def test_precedence(self):
        outcome = calc({"expression": "3 + 4 * 2"}, None)
        assert outcome.ok and outcome.value["value"] == 11

    def test_literal(self):
        assert calc({"expression": "7"}, None).value["value"] == 7

    def test_syntax_error(self):
        assert calc({"expression": "3 +"}, None).error_class == "invalid_params"

    def test_references_rejected(self):
        assert calc({"expression": "limit + 1"}, None).error_class == "invalid_params"
        assert calc({"expression": "result.x + 1"}, None).error_class == "invalid_params"

    def test_parens_and_negatives(self):
        assert calc({"expression": "(2 + 3) * -2"}, None).value["value"] == -10

    def test_non_finite_result_is_invalid_params(self):
        overflow = calc({"expression": " * ".join(["99999999999"] * 40)}, None)
        assert overflow.error_class == "invalid_params" and "not finite" in overflow.message
        assert calc({"expression": "1" * 400}, None).error_class == "invalid_params"


class TestRegistry:
    def test_register_and_invoke(self, kb):
        registry = ToolRegistry()
        spec = ToolSpec(id="kb_search", param_schema={"query": SlotSpec(type="string")},
                        output_kind="results")
        registry.register(spec, make_kb_search(kb))
        outcome = registry.invoke("kb_search", {"query": "paris"}, None)
        assert outcome.ok

    def test_duplicate_registration(self, kb):
        registry = ToolRegistry()
        spec = ToolSpec(id="kb_search", param_schema={}, output_kind="results")
        registry.register(spec, make_kb_search(kb))
        with pytest.raises(DuplicateToolError):
            registry.register(spec, make_kb_search(kb))

    def test_unregistered_id_not_found(self):
        outcome = ToolRegistry().invoke("frobnicate", {}, None)
        assert not outcome.ok and outcome.error_class == "not_found"


def search_with_faults(kb, script):
    """A kb_search call through a registry that runs the fault script, as a run's does."""
    registry = builtin_registry(kb, {"kb_search": script})
    return lambda params: registry.invoke("kb_search", params, None)


class TestFaultInjector:
    def test_scripted_failure_then_delegate(self, kb):
        search = search_with_faults(kb, ["timeout"])
        first = search({"query": "paris", "limit": 1})
        second = search({"query": "paris", "limit": 1})
        assert first.error_class == "timeout"
        assert second.ok

    def test_two_consecutive_empties(self, kb):
        search = search_with_faults(kb, ["empty_result", "empty_result"])
        assert search({"query": "paris"}).error_class == "empty_result"
        assert search({"query": "paris"}).error_class == "empty_result"
        assert search({"query": "paris"}).ok

    def test_ok_entry_delegates(self, kb):
        search = search_with_faults(kb, ["ok", "timeout"])
        assert search({"query": "paris"}).ok
        assert search({"query": "paris"}).error_class == "timeout"

    def test_empty_script_rejected(self):
        with pytest.raises(ValueError):
            parse_fault_script([])

    def test_message_override(self, kb):
        search = search_with_faults(kb, [{"fail": "rate_limited", "message": "slow down"}])
        assert search({"query": "paris"}).message == "slow down"

    @pytest.mark.parametrize("scripts", [
        {"kb_search": None}, {"kb_search": ["bogus"]}, {"kb_search": [{"fail": "unknown_tool"}]},
        {"frobnicate": None}, ["kb_search"]])
    @pytest.mark.parametrize("build", [
        builtin_registry,
        lambda kb, scripts: ToolEnvironment(articles=tuple(kb.to_list()), fault_scripts=scripts),
    ], ids=["registry", "environment"])
    def test_malformed_fault_scripts_are_value_errors(self, build, scripts, kb):
        with pytest.raises(ValueError, match="fault script"):
            build(kb, scripts)


# Strings whose whitespace json.dumps escapes (tab, newline, \x1c, U+2003) or
# keeps (runs of spaces), and non-ASCII text.
SPACED_TEXT = st.text(alphabet=" \t\n\x1c\u2003\u00e9\u4e2dab\"\\", max_size=8)
OUTPUT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | SPACED_TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(SPACED_TEXT | st.integers() | st.floats() | st.booleans() | st.none(),
                      children, max_size=4),
    max_leaves=16)


class TestOutputSizeEncoder:
    @settings(max_examples=300, deadline=None)
    @given(value=OUTPUT_VALUES)
    @example(value="a  b\tc\nd\x1ce \u2003 f")
    @example(value={"x y": [1, "z  w"], 2: {}, None: [], 1.5: "\u00e9 \u00e9",
                    True: float("nan")})
    @example(value=[float("nan"), float("inf"), -float("inf"), [], {}])
    def test_output_size_is_the_token_count_of_json_dumps(self, value):
        assert ToolOutcome.success(value).output_size == len(json.dumps(value).split())

    @pytest.mark.parametrize("value", [{"x": object()}, [{1, 2}], {(1, 2): 3}],
                             ids=["object", "set", "tuple-key"])
    def test_a_value_json_cannot_serialize_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(value)
        with pytest.raises(TypeError):
            ToolOutcome.success(value)


class TestDeterminismAndPurity:
    def test_repeated_invocation_identical(self, kb):
        search = make_kb_search(kb)
        outcomes = [search({"query": "turing machine", "limit": 2}, None) for _ in range(5)]
        dumps = {json.dumps(o.to_dict(), sort_keys=True) for o in outcomes}
        assert len(dumps) == 1

    def test_kb_not_mutated(self, kb):
        before = json.dumps(kb.to_list(), sort_keys=True)
        make_kb_search(kb)({"query": "turing"}, None)
        make_kb_lookup(kb)({"title": "Paris"}, None)
        assert json.dumps(kb.to_list(), sort_keys=True) == before

    def test_duplicate_titles_rejected(self):
        with pytest.raises(ValueError):
            KnowledgeBase([{"title": "A", "body": ""}, {"title": "A", "body": ""}])

    def test_output_size_is_token_count_of_serialized_value(self):
        outcome = ToolOutcome.success({"value": 7})
        assert outcome.output_size == len(json.dumps({"value": 7}, sort_keys=True).split())

    @settings(max_examples=200, deadline=None)
    @given(value=st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=4), children, max_size=4),
        max_leaves=16))
    def test_output_size_does_not_depend_on_key_order(self, value):
        sorted_count = len(json.dumps(value, sort_keys=True).split())
        assert ToolOutcome.success(value).output_size == sorted_count

    def test_builtin_registry_covers_three_tools(self, kb):
        registry = builtin_registry(kb)
        assert all(registry.has(t) for t in ("kb_search", "kb_lookup", "calc"))
