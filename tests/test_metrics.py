import random

import pytest
from hypothesis import given, settings, strategies as st

from ptrun.metrics import (BenchmarkItem, EvalResult, ExtractionFailedError,
                           canonical_number, compare, exact_match, item_f1,
                           normalize_answer, normalize_free_text, token_f1)


def item(gold, kind="free_text", qid="q"):
    return BenchmarkItem(id=qid, question="?", gold=tuple(gold), answer_kind=kind)


def result_with(mean_em, cost=0):
    return EvalResult(framework="x", per_item=[], mean_em=mean_em, mean_f1=None,
                      model_calls=0, input_tokens=0, output_tokens=0,
                      cost_micros=cost, mean_latency_s=None)


# independent normalization for the brute-force oracle: no regex, character walk
def oracle_normalize(text):
    lowered = text.lower()
    cleaned = []
    for ch in lowered:
        if ch.isalnum() or ch.isspace():
            cleaned.append(ch)
    words = "".join(cleaned).split()
    return " ".join(w for w in words if w not in ("a", "an", "the"))


def oracle_exact_match(prediction, aliases):
    normalized = oracle_normalize(prediction)
    return 1 if any(normalized == oracle_normalize(alias) for alias in aliases) else 0


def oracle_f1(prediction, gold):
    pred = sorted(oracle_normalize(prediction).split())
    gold_tokens = sorted(oracle_normalize(gold).split())
    i = j = same = 0
    while i < len(pred) and j < len(gold_tokens):
        if pred[i] == gold_tokens[j]:
            same += 1
            i += 1
            j += 1
        elif pred[i] < gold_tokens[j]:
            i += 1
        else:
            j += 1
    if same == 0:
        return 0.0
    precision = same / len(pred)
    recall = same / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


class TestNormalization:
    def test_free_text_articles_punctuation_whitespace(self):
        assert normalize_answer("The Answer.", "free_text") == "answer"

    def test_free_text_collapses_whitespace(self):
        assert normalize_free_text("  a   big\tdog ") == "big dog"

    def test_numeric_trailing_zero(self):
        assert normalize_answer("18.0", "numeric") == "18"
        assert normalize_answer("18", "numeric") == "18"

    def test_numeric_commas_and_prose(self):
        assert normalize_answer("The total is 1,234 dollars", "numeric") == "1234"

    def test_numeric_takes_last_number(self):
        assert normalize_answer("buy 3 apples for 18.50", "numeric") == "18.5"

    def test_numeric_extraction_failed(self):
        with pytest.raises(ExtractionFailedError):
            normalize_answer("no digits here", "numeric")

    def test_canonical_number_strips_fraction_zeros(self):
        assert canonical_number("0.500") == "0.5"
        assert canonical_number("-0.460") == "-0.46"
        assert canonical_number("100") == "100"

    @pytest.mark.parametrize("token", ["0", "-0", "-0.0", "0.000", "-0e5", "+0"])
    def test_canonical_number_spells_every_zero_as_zero(self, token):
        assert canonical_number(token) == "0"

    def test_negative_zero_answer_matches_gold_zero(self):
        gold = item(["0"], kind="numeric")
        assert exact_match("-0", gold) == exact_match("0.0", gold) == 1

    def test_choice_parenthesized(self):
        assert normalize_answer("The answer is (C).", "choice_a_e") == "C"

    def test_choice_standalone_upper(self):
        assert normalize_answer("Answer: B", "choice_a_e") == "B"

    def test_choice_single_lower_letter(self):
        assert normalize_answer(" c ", "choice_a_e") == "C"

    def test_choice_article_a_not_confused(self):
        # lowercase article "a" must not read as choice A
        with pytest.raises(ExtractionFailedError):
            normalize_answer("a dog walked home", "choice_a_e")

    def test_yes_no_extraction(self):
        assert normalize_answer("Yes, definitely.", "yes_no") == "yes"
        assert normalize_answer("I think... no", "yes_no") == "no"
        with pytest.raises(ExtractionFailedError):
            normalize_answer("maybe", "yes_no")


class TestExactMatch:
    def test_alias_match_nyc(self):
        aliases = ("New York City", "NYC", "New York")
        assert exact_match("NYC", item(aliases)) == 1

    def test_reflexivity(self):
        assert exact_match("same string", item(["same string"])) == 1

    def test_disjoint(self):
        assert exact_match("alpha", item(["omega"])) == 0

    def test_extraction_failure_scores_zero(self):
        assert exact_match("maybe", item(["yes"], kind="yes_no")) == 0

    def test_numeric_em(self):
        assert exact_match("The answer is 18.0", item(["18"], kind="numeric")) == 1

    def test_alias_permutation_invariance(self):
        aliases = ["New York City", "NYC", "New York"]
        rng = random.Random(5)
        for _ in range(10):
            rng.shuffle(aliases)
            assert exact_match("new york", item(list(aliases))) == 1

    def test_whitespace_punctuation_appendix_invariance(self):
        base = item(["Paris"])
        for suffix in ("", "  ", "...", " !?", ".\n"):
            assert exact_match("Paris" + suffix, base) == 1


class TestTokenF1:
    def test_identical_strings(self):
        assert token_f1("alan turing", "alan turing") == 1.0

    def test_disjoint_zero_convention(self):
        assert token_f1("alpha beta", "gamma delta") == 0.0

    def test_hand_computed_partial_overlap(self):
        # P = {new, york, city}, G = {york, city}: prec 2/3, rec 1 -> F1 0.8
        assert token_f1("new york city", "york city") == pytest.approx(0.8, abs=1e-12)

    def test_multiset_counting(self):
        # P = [go, go], G = [go]: same=1, prec 1/2, rec 1 -> 2/3
        assert token_f1("go go", "go") == pytest.approx(2 / 3, abs=1e-12)

    def test_swap_symmetry(self):
        rng = random.Random(17)
        vocab = ["alpha", "beta", "gamma", "delta"]
        for _ in range(50):
            a = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
            b = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
            assert token_f1(a, b) == pytest.approx(token_f1(b, a), abs=1e-12)

    def test_item_f1_max_over_aliases(self):
        bi = item(["york city", "unrelated words"])
        assert item_f1("new york city", bi) == pytest.approx(0.8, abs=1e-12)

    def test_item_f1_equals_em_for_non_free_text(self):
        for kind, pred, gold in (("yes_no", "Yes!", "yes"), ("numeric", "42.0", "42"),
                                 ("choice_a_e", "(B)", "B")):
            bi = item([gold], kind=kind)
            assert item_f1(pred, bi) == float(exact_match(pred, bi))


class TestOracleAgreement:
    def corpus(self, n=200):
        rng = random.Random(6)
        vocab = ["new", "york", "city", "alan", "turing", "paris", "answer", "blue"]
        cases = []
        for _ in range(n):
            aliases = []
            for _ in range(rng.randint(1, 4)):
                words = rng.choices(vocab, k=rng.randint(1, 4))
                aliases.append(" ".join(words))
            pred_words = rng.choices(vocab, k=rng.randint(1, 6))
            prediction = " ".join(pred_words)
            style = rng.random()
            if style < 0.4:
                prediction = "The " + rng.choice(aliases) + rng.choice(["", ".", "!!"])
            elif style < 0.5:
                prediction = rng.choice(aliases).upper()
            cases.append((prediction, tuple(aliases)))
        return cases

    def test_exact_match_agrees_with_brute_force(self):
        for prediction, aliases in self.corpus():
            assert exact_match(prediction, item(aliases)) == \
                oracle_exact_match(prediction, aliases)

    def test_f1_agrees_with_independent_implementation(self):
        for prediction, aliases in self.corpus():
            for alias in aliases:
                assert token_f1(prediction, alias) == \
                    pytest.approx(oracle_f1(prediction, alias), abs=1e-12)


class TestComparison:
    def test_published_pair_ptr_advantage(self):
        comparison = compare(result_with(0.660), result_with(0.160))
        assert comparison.delta_em == 0.500
        assert comparison.advantage == "ptr"

    def test_published_pair_react_advantage(self):
        comparison = compare(result_with(0.320), result_with(0.780))
        assert comparison.delta_em == -0.460
        assert comparison.advantage == "react"

    def test_tie_on_equal_em(self):
        comparison = compare(result_with(0.5), result_with(0.5))
        assert comparison.advantage == "tie" and comparison.delta_em == 0.0

    def test_cost_ratio(self):
        comparison = compare(result_with(0.5, cost=2_000_000), result_with(0.4, cost=5_000_000))
        assert comparison.cost_ratio == pytest.approx(2.5)

    def test_zero_ptr_cost_ratio_undefined(self):
        assert compare(result_with(0.5, cost=0), result_with(0.4, cost=10)).cost_ratio is None

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(1, 50))
    @settings(max_examples=200, deadline=None)
    def test_advantage_iff_sign_of_delta(self, hits_a, hits_b, n):
        em_a, em_b = min(hits_a, n) / n, min(hits_b, n) / n
        comparison = compare(result_with(em_a), result_with(em_b))
        if em_a > em_b:
            assert comparison.advantage == "ptr" and comparison.delta_em > 0
        elif em_b > em_a:
            assert comparison.advantage == "react" and comparison.delta_em < 0
        else:
            assert comparison.advantage == "tie" and comparison.delta_em == 0


class TestBenchmarkItem:
    def test_gold_must_be_non_empty(self):
        with pytest.raises(ValueError):
            BenchmarkItem(id="x", question="?", gold=(), answer_kind="free_text")

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            BenchmarkItem(id="x", question="?", gold=("a",), answer_kind="essay")
