"""Evaluation metrics: answer normalization, exact match, token F1, and
framework comparison arithmetic.

Normalization is benchmark-kind specific: free text is lowercased with
articles, punctuation and redundant whitespace removed; yes/no and choice
answers are pattern-extracted; numeric answers are canonicalized through
decimal arithmetic so 18.0 and 18 compare equal without float pitfalls.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

ANSWER_KINDS = ("free_text", "yes_no", "numeric", "choice_a_e")

_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")
_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")
_PAREN_CHOICE_RE = re.compile(r"\(([A-Ea-e])\)")
_UPPER_CHOICE_RE = re.compile(r"\b([A-E])\b")
_PUNC_TABLE = str.maketrans("", "", string.punctuation)


class ExtractionFailedError(ValueError):
    """No answer of the expected kind could be extracted; scores as EM 0."""


def normalize_free_text(text: str) -> str:
    """Lowercase, strip punctuation and articles, collapse whitespace."""
    lowered = text.lower()
    no_punc = lowered.translate(_PUNC_TABLE)
    no_articles = _ARTICLE_RE.sub(" ", no_punc)
    return " ".join(no_articles.split())


def _extract_yes_no(text: str) -> str:
    for token in normalize_free_text(text).split():
        if token in ("yes", "no"):
            return token
    raise ExtractionFailedError(f"no standalone yes/no in {text!r}")


def canonical_number(token: str) -> str:
    """Decimal-exact canonical form: trailing fractional zeros stripped, and
    negative zero spelled as zero."""
    try:
        value = Decimal(token)
    except InvalidOperation:
        raise ExtractionFailedError(f"not a number: {token!r}") from None
    if value.is_zero():
        return "0"
    return format(value.normalize(), "f")


def _extract_numeric(text: str) -> str:
    matches = _NUMBER_RE.findall(text.replace(",", ""))
    if not matches:
        raise ExtractionFailedError(f"no number in {text!r}")
    return canonical_number(matches[-1])


def _extract_choice(text: str) -> str:
    match = _PAREN_CHOICE_RE.search(text)
    if match:
        return match.group(1).upper()
    match = _UPPER_CHOICE_RE.search(text)
    if match:
        return match.group(1)
    stripped = text.strip().lower()
    if len(stripped) == 1 and stripped in "abcde":
        return stripped.upper()
    raise ExtractionFailedError(f"no A-E choice in {text!r}")


def normalize_answer(text: str, kind: str) -> str:
    if kind == "free_text":
        return normalize_free_text(text)
    if kind == "yes_no":
        return _extract_yes_no(text)
    if kind == "numeric":
        return _extract_numeric(text)
    if kind == "choice_a_e":
        return _extract_choice(text)
    raise ValueError(f"unknown answer kind {kind!r}")


@dataclass(frozen=True)
class BenchmarkItem:
    id: str
    question: str
    gold: tuple[str, ...]
    answer_kind: str

    def __post_init__(self):
        if not self.gold:
            raise ValueError("gold alias list must be non-empty")
        if self.answer_kind not in ANSWER_KINDS:
            raise ValueError(f"unknown answer kind {self.answer_kind!r}")


def exact_match(prediction: str, item: BenchmarkItem) -> int:
    """1 iff the normalized prediction equals any normalized gold alias."""
    try:
        normalized = normalize_answer(prediction, item.answer_kind)
    except ExtractionFailedError:
        return 0
    for alias in item.gold:
        try:
            if normalized == normalize_answer(alias, item.answer_kind):
                return 1
        except ExtractionFailedError:
            continue
    return 0


def token_f1(prediction: str, gold: str) -> float:
    """Token-multiset F1 over normalized free text; 0.0 when nothing overlaps."""
    pred_tokens = normalize_free_text(prediction).split()
    gold_tokens = normalize_free_text(gold).split()
    common = Counter(pred_tokens) & Counter(gold_tokens)
    num_same = sum(common.values())
    if num_same == 0:
        return 0.0
    precision = num_same / len(pred_tokens)
    recall = num_same / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def item_f1(prediction: str, item: BenchmarkItem) -> float:
    """Best F1 across aliases for free text; elsewhere it coincides with EM."""
    if item.answer_kind != "free_text":
        return float(exact_match(prediction, item))
    return max(token_f1(prediction, alias) for alias in item.gold)


@dataclass
class EvalResult:
    """Aggregate outcome of one framework over one suite."""

    framework: str
    per_item: list[dict]
    mean_em: float
    mean_f1: float | None
    model_calls: int
    input_tokens: int
    output_tokens: int
    cost_micros: int
    mean_latency_s: float | None

    def to_dict(self) -> dict:
        return {
            "framework": self.framework,
            "per_item": self.per_item,
            "mean_em": self.mean_em,
            "mean_f1": self.mean_f1,
            "model_calls": self.model_calls,
            "input_tokens": self.input_tokens,
            "output_tokens": self.output_tokens,
            "cost_micros": self.cost_micros,
            "mean_latency_s": self.mean_latency_s,
        }


@dataclass(frozen=True)
class Comparison:
    delta_em: float
    cost_ratio: float | None  # react cost / ptr cost; None when ptr cost is zero
    advantage: str  # ptr | react | tie

    def to_dict(self) -> dict:
        return {"delta_em": self.delta_em, "cost_ratio": self.cost_ratio, "advantage": self.advantage}


def compare(ptr: EvalResult, react: EvalResult) -> Comparison:
    """Accuracy gap and relative cost. The EM difference is computed through
    decimal strings so published decimal scores subtract exactly."""
    delta = float(Decimal(str(ptr.mean_em)) - Decimal(str(react.mean_em)))
    if ptr.mean_em > react.mean_em:
        advantage = "ptr"
    elif react.mean_em > ptr.mean_em:
        advantage = "react"
    else:
        advantage = "tie"
    cost_ratio = None if ptr.cost_micros == 0 else react.cost_micros / ptr.cost_micros
    return Comparison(delta_em=delta, cost_ratio=cost_ratio, advantage=advantage)
