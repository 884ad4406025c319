"""Tool registry and built-in deterministic tools.

The built-ins emulate a search/lookup pair against an offline knowledge base
(a single JSON file of {title, body, links} articles) plus a literal
arithmetic calculator. Every tool is a pure function of (params, state, kb);
repeated invocation with identical inputs yields identical outcomes.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from . import ruledsl
from .core import TOOL_ERROR_CLASSES, SlotSpec, ToolSpec, parse_rule
from .trace import json_encoder, load_json

_TOKEN_RE = re.compile(r"[a-z0-9]+")
# Encodes as json.dumps(value) does; a cyclic value raises RecursionError.
_encode_value = json_encoder()


class DuplicateToolError(ValueError):
    pass


@dataclass(slots=True)
class ToolOutcome:
    """Success with a serializable value, or a classified failure. Built per
    attempt and never mutated."""

    ok: bool
    value: object = None
    output_size: int = 0  # whitespace tokens of the serialized success value
    error_class: str | None = None
    message: str | None = None

    @classmethod
    def success(cls, value) -> "ToolOutcome":
        size = len(_encode_value(value).split())
        return cls(ok=True, value=value, output_size=size)

    @classmethod
    def failure(cls, error_class: str, message: str) -> "ToolOutcome":
        return cls(ok=False, error_class=error_class, message=message)

    def to_dict(self) -> dict:
        if self.ok:
            return {"ok": True, "value": self.value, "output_size": self.output_size}
        return {"ok": False, "error_class": self.error_class, "message": self.message}


class Article(NamedTuple):
    title: str
    body: str
    links: tuple[str, ...] = ()


class KnowledgeBase:
    """Read-only titled-article store with case-insensitive exact lookup.

    Built once and shared by every run that searches it. Besides the articles
    it keeps the sorted titles and, from the first search on, a token index.
    """

    def __init__(self, articles: list[dict]):
        if not isinstance(articles, (list, tuple)):
            raise ValueError("knowledge base must be a list of articles")
        table: dict[str, Article] = {}
        self._by_folded: dict[str, str] = {}
        for index, raw in enumerate(articles):
            article = _article(index, raw)
            if article.title in table:
                raise ValueError(f"article {index}: duplicate title {article.title!r}")
            table[article.title] = article
            self._by_folded[article.title.casefold()] = article.title
        self.articles = MappingProxyType(table)
        self._titles = tuple(sorted(table))

    @classmethod
    def load(cls, path: str | Path) -> "KnowledgeBase":
        return cls(load_json(path))

    def titles(self) -> list[str]:
        return list(self._titles)

    def get(self, title: str) -> Article | None:
        exact = self._by_folded.get(title.casefold())
        return self.articles[exact] if exact else None

    @cached_property
    def _postings(self) -> dict[str, list[int]]:
        """token -> positions in the sorted titles of the articles whose
        ``"title body"`` holds it, in ascending order."""
        postings: dict[str, list[int]] = {}
        for position, title in enumerate(self._titles):
            for token in set(tokenize(f"{title} {self.articles[title].body}")):
                postings.setdefault(token, []).append(position)
        return postings

    def rank(self, query_tokens: set[str]) -> list[str]:
        """Titles of the articles sharing a token with the query, ordered by
        (-overlap, title), where overlap counts the distinct query tokens
        among the article's tokens."""
        overlap = Counter()
        for token in query_tokens:
            overlap.update(self._postings.get(token, ()))
        # The sort is stable, so equal overlaps keep ascending positions, and
        # positions follow the sorted titles.
        ranked = sorted(sorted(overlap), key=overlap.__getitem__, reverse=True)
        return [self._titles[position] for position in ranked]

    def to_list(self) -> list[dict]:
        return [
            {"title": a.title, "body": a.body, "links": list(a.links)}
            for a in (self.articles[t] for t in self._titles)
        ]


def _article(index: int, raw) -> Article:
    """One KB entry, checked; a malformed one is a ValueError naming its index."""
    if not isinstance(raw, dict):
        raise ValueError(f"article {index} is not an object")
    title = raw.get("title")
    if not isinstance(title, str):
        raise ValueError(f"article {index}: title must be a string")
    body = raw.get("body", "")
    if not isinstance(body, str):
        raise ValueError(f"article {index}: body must be a string")
    links = raw.get("links", ())
    if not isinstance(links, (list, tuple)) or not all(isinstance(link, str) for link in links):
        raise ValueError(f"article {index}: links must be a list of strings")
    return Article(title, body, tuple(links))


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


class ToolRegistry:
    """Maps tool ids to (spec, transition). Immutable after setup by convention."""

    def __init__(self):
        self._tools: dict[str, tuple[ToolSpec, object]] = {}

    def register(self, spec: ToolSpec, transition) -> "ToolRegistry":
        if spec.id in self._tools:
            raise DuplicateToolError(f"tool {spec.id!r} already registered")
        self._tools[spec.id] = (spec, transition)
        return self

    def has(self, tool_id: str) -> bool:
        return tool_id in self._tools

    def spec(self, tool_id: str) -> ToolSpec:
        return self._tools[tool_id][0]

    def specs(self) -> list[ToolSpec]:
        return [entry[0] for entry in self._tools.values()]

    def invoke(self, tool_id: str, params: dict, state) -> ToolOutcome:
        entry = self._tools.get(tool_id)
        if entry is None:
            return ToolOutcome.failure("not_found", f"no tool registered under id {tool_id!r}")
        return entry[1](params, state)


# --- built-in tools -----------------------------------------------------------


KB_SEARCH_SPEC = ToolSpec(
    id="kb_search",
    param_schema={
        "query": SlotSpec(type="string", required=True, auto_resolvable=True),
        "limit": SlotSpec(type="number", required=False),
    },
    output_kind="search_results",
)

KB_LOOKUP_SPEC = ToolSpec(
    id="kb_lookup",
    param_schema={"title": SlotSpec(type="string", required=True, auto_resolvable=True)},
    output_kind="article",
)

CALC_SPEC = ToolSpec(
    id="calc",
    param_schema={"expression": SlotSpec(type="string", required=True, auto_resolvable=True)},
    output_kind="number",
)

DEFAULT_SEARCH_LIMIT = 3


def _reject_unknown_slots(params: dict, spec: ToolSpec) -> ToolOutcome | None:
    for slot in params:
        if slot not in spec.param_schema:
            return ToolOutcome.failure("invalid_params", f"unknown slot {slot!r}")
    return None


def make_kb_search(kb: KnowledgeBase):
    def kb_search(params: dict, state) -> ToolOutcome:
        bad = _reject_unknown_slots(params, KB_SEARCH_SPEC)
        if bad:
            return bad
        query = params.get("query")
        if not isinstance(query, str) or not query.strip():
            return ToolOutcome.failure("invalid_params", "query must be a non-empty string")
        limit = params.get("limit", DEFAULT_SEARCH_LIMIT)
        if isinstance(limit, bool) or not isinstance(limit, (int, float)) or limit < 1 or limit != int(limit):
            return ToolOutcome.failure("invalid_params", "limit must be an integer >= 1")
        limit = int(limit)
        titles = kb.rank(set(tokenize(query)))[:limit]
        if not titles:
            return ToolOutcome.failure("empty_result", f"no article shares a token with {query!r}")
        return ToolOutcome.success({"count": len(titles), "top_title": titles[0], "titles": titles})

    return kb_search


def make_kb_lookup(kb: KnowledgeBase):
    def kb_lookup(params: dict, state) -> ToolOutcome:
        bad = _reject_unknown_slots(params, KB_LOOKUP_SPEC)
        if bad:
            return bad
        title = params.get("title")
        if not isinstance(title, str) or not title.strip():
            return ToolOutcome.failure("invalid_params", "title must be a non-empty string")
        article = kb.get(title)
        if article is None:
            return ToolOutcome.failure("not_found", f"no article titled {title!r}")
        return ToolOutcome.success({"body": article.body, "links": list(article.links)})

    return kb_lookup


def calc(params: dict, state) -> ToolOutcome:
    bad = _reject_unknown_slots(params, CALC_SPEC)
    if bad:
        return bad
    expression = params.get("expression")
    if not isinstance(expression, str) or not expression.strip():
        return ToolOutcome.failure("invalid_params", "expression must be a non-empty string")
    try:
        ast = parse_rule("arith", expression)
        value = ruledsl.eval_expr(ast, {}, None)
    except ruledsl.DslError as exc:
        return ToolOutcome.failure("invalid_params", str(exc))
    if isinstance(value, float) and value.is_integer() and abs(value) <= ruledsl.MAX_EXACT_INT:
        value = int(value)
    return ToolOutcome.success({"value": value})


def parse_fault_script(script) -> list[tuple[str, str | None]]:
    """(error class or "ok", message) per entry of a fault script.

    Script entries: "ok" delegates one call to the inner transition; a tool
    error class (or {"fail": class, "message": text}) produces that failure.
    Raises ValueError for a script that is not a non-empty list of entries.
    """
    if not isinstance(script, (list, tuple)) or not script:
        raise ValueError("fault script must be a non-empty list")
    normalized = []
    for entry in script:
        if entry == "ok":
            normalized.append(("ok", None))
        elif isinstance(entry, str) and entry in TOOL_ERROR_CLASSES:
            normalized.append((entry, f"injected {entry}"))
        elif isinstance(entry, dict) and entry.get("fail") in TOOL_ERROR_CLASSES:
            normalized.append((entry["fail"], entry.get("message", f"injected {entry['fail']}")))
        else:
            raise ValueError(f"bad fault script entry: {entry!r} names no tool error class")
    return normalized


def check_fault_scripts(fault_scripts) -> dict[str, list[tuple[str, str | None]]]:
    """Each non-empty script of a {tool id: fault script} mapping, parsed, or ValueError."""
    if not isinstance(fault_scripts, dict):
        raise ValueError("fault scripts must map tool ids to scripts")
    return {tool_id: parse_fault_script(script)
            for tool_id, script in fault_scripts.items() if script not in ([], ())}


def make_fault_injector(inner, script: list):
    """Wrap a transition with a finite outcome script (see parse_fault_script),
    then delegate to it."""
    return _inject_faults(inner, parse_fault_script(script))


def _inject_faults(inner, normalized: list[tuple[str, str | None]]):
    pending = iter(normalized)

    def wrapped(params: dict, state) -> ToolOutcome:
        kind, message = next(pending, ("ok", None))
        if kind != "ok":
            return ToolOutcome.failure(kind, message)
        return inner(params, state)

    return wrapped


def builtin_registry(kb: KnowledgeBase, fault_scripts: dict[str, list] | None = None) -> ToolRegistry:
    """Registry with the three built-ins, optionally fault-wrapped per tool id.

    The KB is read-only and may be shared by many registries. A registry with
    fault wrappers is stateful across calls and therefore belongs to exactly
    one run; build a fresh one per run.
    """
    scripts = check_fault_scripts({} if fault_scripts is None else fault_scripts)
    registry = ToolRegistry()
    for spec, transition in (
        (KB_SEARCH_SPEC, make_kb_search(kb)),
        (KB_LOOKUP_SPEC, make_kb_lookup(kb)),
        (CALC_SPEC, calc),
    ):
        script = scripts.get(spec.id)
        if script:
            transition = _inject_faults(transition, script)
        registry.register(spec, transition)
    return registry
