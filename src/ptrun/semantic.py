"""Everything that touches the language model.

Holds the provider abstraction (scripted deterministic model for desk-scale
testing, plus an HTTP chat-endpoint adapter), the prompt builders and output
parsers for the three semantic stages, and the budget ledger. Costs are held
as integer micro-dollars so ledger arithmetic is exact; price tables live in
configuration, never in code.
"""

from __future__ import annotations

import json
import os
import re
import sys
from dataclasses import dataclass, field

from .core import Metadata, Profile, Task
# The profile search decodes with the trace reader's strict decoder.
from .trace import STRICT_DECODER as _DECODER, reject_constant as _reject_constant  # noqa: F401

ROLES = ("profile", "repair", "reason", "react")

REPAIR_PROHIBITION = "You are prohibited from generating a final answer."
NO_EVIDENCE_SENTENCE = "No evidence is available from tool execution."

PROFILE_SCHEMA_TEXT = """\
{
  "workflow": {"steps": [{"tool_id": "<catalog id>",
                          "params": {"<slot>": <literal>
                                     | {"auto": "<rule id>"}
                                     | {"placeholder": "result.<key>.<field>"}},
                          "annotation": {}}]},
  "confidence": <number in [0,1]>,
  "assumptions": ["<text>"],
  "fragile_points": ["<text>"],
  "replan_conditions": ["<state predicate>"],
  "branch_rules": [{"predicate": "<state predicate>",
                    "modifier": "set <slot> = <expr>",
                    "target_step": <1-based step index>}],
  "aux_annotations": {}
}"""


class SemanticError(Exception):
    pass


class BudgetExceededError(SemanticError):
    def __init__(self, total_micros: int, limit_micros: int):
        super().__init__(f"budget exceeded: {total_micros} micro-dollars against limit {limit_micros}")
        self.total_micros = total_micros
        self.limit_micros = limit_micros


class ScriptExhaustedError(SemanticError):
    pass


class RoleMismatchError(SemanticError):
    """A call arrived out of the scripted order: a pipeline-sequencing bug."""


class ProfileParseError(SemanticError):
    def __init__(self, diagnostic: str):
        super().__init__(f"profile response unusable: {diagnostic}")
        self.diagnostic = diagnostic


class MissingCredentialsError(SemanticError):
    pass


@dataclass(frozen=True)
class ModelRequest:
    role: str
    prompt: str
    temperature: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown model role {self.role!r}")


@dataclass(frozen=True)
class Usage:
    input_tokens: int
    output_tokens: int

    def __post_init__(self):
        if self.input_tokens < 0 or self.output_tokens < 0:
            raise ValueError("token counts must be non-negative")

    def to_dict(self) -> dict:
        return {"input_tokens": self.input_tokens, "output_tokens": self.output_tokens}


@dataclass(frozen=True)
class ModelResponse:
    text: str
    usage: Usage
    cost_micros: int = 0


@dataclass(frozen=True)
class PriceEntry:
    """Micro-dollars per 1000 input/output tokens."""

    input_micros_per_1k: int = 0
    output_micros_per_1k: int = 0

    def cost_micros(self, usage: Usage) -> int:
        return (usage.input_tokens * self.input_micros_per_1k
                + usage.output_tokens * self.output_micros_per_1k) // 1000

    def to_dict(self) -> dict:
        return {"input_micros_per_1k": self.input_micros_per_1k,
                "output_micros_per_1k": self.output_micros_per_1k}

    @classmethod
    def from_dict(cls, data: dict) -> "PriceEntry":
        return cls(input_micros_per_1k=int(data.get("input_micros_per_1k", 0)),
                   output_micros_per_1k=int(data.get("output_micros_per_1k", 0)))


@dataclass
class BudgetLedger:
    """Append-only per-run cost ledger with a hard limit check after each
    call; each entry is a call's role and response."""

    limit_micros: int
    entries: list[tuple[str, ModelResponse]] = field(default_factory=list)
    stage_counts: dict[str, int] = field(default_factory=dict)

    @property
    def total_micros(self) -> int:
        return sum(response.cost_micros for _, response in self.entries)

    def call_count_by_role(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for role, _ in self.entries:
            counts[role] = counts.get(role, 0) + 1
        return counts

    def count_stage(self, role: str) -> None:
        self.stage_counts[role] = self.stage_counts.get(role, 0) + 1

    def record_and_check(self, role: str, response: ModelResponse) -> None:
        self.entries.append((role, response))
        total = self.total_micros
        if total > self.limit_micros:
            raise BudgetExceededError(total, self.limit_micros)

    def summary(self) -> dict:
        return {
            "limit_micros": self.limit_micros,
            "total_micros": self.total_micros,
            "input_tokens": sum(response.usage.input_tokens for _, response in self.entries),
            "output_tokens": sum(response.usage.output_tokens for _, response in self.entries),
            "raw_calls_by_role": self.call_count_by_role(),
            "stage_counts": dict(self.stage_counts),
        }


class ScriptedModel:
    """Deterministic test double: canned responses consumed strictly in order.
    ValueError unless the script is a list of {role, text} objects of strings."""

    def __init__(self, script: list[dict], price: PriceEntry | None = None):
        if not isinstance(script, (list, tuple)):
            raise ValueError("script must be a list of {role, text} entries")
        self.script: list[tuple[str, str]] = []
        for entry in script:
            if not isinstance(entry, dict):
                raise ValueError(f"script entry {entry!r} is not a {{role, text}} object")
            role, text = entry.get("role"), entry.get("text")
            if not (isinstance(role, str) and isinstance(text, str)):
                raise ValueError(f"script entry {entry!r}: role and text must be strings")
            self.script.append((role, text))
        self.price = price or PriceEntry()
        self.calls = 0  # replies given so far; the next is script[calls]

    def complete(self, request: ModelRequest) -> ModelResponse:
        if self.calls >= len(self.script):
            raise ScriptExhaustedError(
                f"script exhausted after {len(self.script)} entries (requested role {request.role!r})")
        role, text = self.script[self.calls]
        if role != request.role:
            raise RoleMismatchError(
                f"script expects role {role!r} next but {request.role!r} was requested")
        self.calls += 1
        usage = Usage(input_tokens=len(request.prompt.split()),
                      output_tokens=len(text.split()))
        return ModelResponse(text=text, usage=usage,
                             cost_micros=self.price.cost_micros(usage))


class HttpProviderModel:
    """Chat-endpoint adapter behind the same interface as the scripted model.

    Credentials come from an environment variable and are never logged or
    written to traces. Excluded from the acceptance suite: it is not
    deterministic at desk scale.
    """

    def __init__(self, endpoint: str, model: str, price: PriceEntry | None = None,
                 api_key_env: str = "PTRUN_API_KEY", transport=None, timeout: float = 60.0):
        self.endpoint = endpoint
        self.model = model
        self.price = price or PriceEntry()
        self.api_key_env = api_key_env
        self.timeout = timeout
        self._transport = transport or self._requests_transport
        self.calls = 0

    def _requests_transport(self, payload: dict, headers: dict) -> dict:
        import requests

        response = requests.post(self.endpoint, json=payload, headers=headers, timeout=self.timeout)
        response.raise_for_status()
        return response.json()

    def build_payload(self, request: ModelRequest) -> dict:
        return {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "seed": request.seed,
        }

    def complete(self, request: ModelRequest) -> ModelResponse:
        api_key = os.environ.get(self.api_key_env)
        if not api_key:
            raise MissingCredentialsError(f"set {self.api_key_env} to use the HTTP provider")
        headers = {"Authorization": f"Bearer {api_key}", "Content-Type": "application/json"}
        data = self._transport(self.build_payload(request), headers)
        self.calls += 1
        text = data["choices"][0]["message"]["content"]
        if not isinstance(text, str):
            raise SemanticError(
                f"provider reply has no text: its content is {type(text).__name__}")
        usage_raw = data.get("usage", {})
        usage = Usage(input_tokens=int(usage_raw.get("prompt_tokens", 0)),
                      output_tokens=int(usage_raw.get("completion_tokens", 0)))
        return ModelResponse(text=text, usage=usage, cost_micros=self.price.cost_micros(usage))


# --- prompt builders -------------------------------------------------------------


_quote = json.encoder.encode_basestring_ascii
_INFINITY = float("inf")


def _float_text(value: float) -> str:
    """A float as json spells it, NaN and the infinities included."""
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


def _key_text(key) -> str:
    """A dict key as json converts it to a string."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write(obj, out: list, newline: str) -> None:
    """Append obj's JSON text to out; newline starts the line obj ends on."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in obj:
            out.append(separator)
            _write(item, out, inner)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(separator + _quote(_key_text(key)) + ": ")
            _write(value, out, inner)
            separator = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dump(obj) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=2). With an indent,
    json runs its pure-Python encoder; this writes the same text directly."""
    out: list[str] = []
    _write(obj, out, "\n")
    return "".join(out)


def _tool_lines(metadata: Metadata) -> list[str]:
    lines = []
    for spec in metadata.tool_catalog:
        slots = ", ".join(
            f"{name} ({slot.type}{', required' if slot.required else ''}"
            f"{', auto-resolvable' if slot.auto_resolvable else ''})"
            for name, slot in spec.param_schema.items()
        )
        lines.append(f"- {spec.id}: slots: {slots or 'none'} -> {spec.output_kind}")
    return lines


def build_profile_prompt(task: Task, metadata: Metadata) -> str:
    """Planning prompt: task, schema, catalog, constraints, optional history,
    and the profile JSON contract."""
    parts = [
        "You are the planning stage of a bounded tool-execution runtime.",
        "Plan a complete workflow now; no further planning happens during execution.",
        "",
        "## Objective",
        task.objective,
    ]
    if task.data_ref:
        parts += ["", "## Data reference", task.data_ref]
    if task.context:
        parts += ["", "## Context", _dump(task.context)]
    parts += ["", "## Schema descriptor", _dump(metadata.schema)]
    parts += ["", "## Tool catalog"] + _tool_lines(metadata)
    constraints = metadata.constraints
    parts += ["", "## Constraints"]
    if constraints.auto_rules or constraints.recovery_rules or constraints.constraint_predicates:
        for rule in constraints.auto_rules:
            parts.append(f"- auto rule {rule.id}: {rule.expr}")
        for rule in constraints.recovery_rules:
            parts.append(f"- recovery on {rule.error_class}: {rule.modifier}")
        for source in constraints.constraint_predicates:
            parts.append(f"- constraint: {source}")
    else:
        parts.append("none")
    if metadata.history is not None:
        parts += ["", "## History",
                  f"prior runs: {metadata.history.prior_run_count}, "
                  f"failure rate: {metadata.history.prior_failure_rate}"]
    parts += [
        "",
        "## Output format",
        "Respond with exactly one JSON object and nothing else, matching:",
        PROFILE_SCHEMA_TEXT,
    ]
    return "\n".join(parts)


# A diagnostic may quote the rejected reply, so the retry prompt and the
# run_invalid abort record embed at most this many of its characters: each is
# then bounded by a constant, whatever the reply.
RETRY_DIAGNOSTIC_CHARS = 1000


def cap_diagnostic(diagnostic: str) -> str:
    cut = len(diagnostic) - RETRY_DIAGNOSTIC_CHARS
    if cut > 0:
        return f"{diagnostic[:RETRY_DIAGNOSTIC_CHARS]} [{cut} more characters cut]"
    return diagnostic


def build_profile_retry_prompt(base_prompt: str, diagnostic: str) -> str:
    return (
        f"{base_prompt}\n\n## Correction required\n"
        f"Your previous reply was rejected: {cap_diagnostic(diagnostic)}\n"
        "Respond again with exactly one JSON object matching the schema above."
    )


def _trace_lines(state) -> list[str]:
    lines = []
    for event in state.trace:
        if event.outcome == "success":
            lines.append(f"- step {event.index} {event.tool_id}: success, stored as {event.stored_key}")
        elif event.outcome == "skipped":
            lines.append(f"- step {event.index} {event.tool_id}: skipped")
        else:
            lines.append(
                f"- step {event.index} {event.tool_id}: failure ({event.error_class}), "
                f"{len(event.attempts)} attempt(s)")
    return lines


def build_repair_prompt(task: Task, metadata: Metadata, profile: Profile, state, z) -> str:
    """Repair prompt: task, original profile, trace, diagnostics; patched profile only."""
    parts = [
        "You are the repair stage of a bounded tool-execution runtime.",
        "The executed workflow was judged unreliable. Emit a patched profile only.",
        REPAIR_PROHIBITION,
        "",
        "## Objective",
        task.objective,
        "",
        "## Original profile",
        _dump(profile.to_dict()),
        "",
        "## Execution trace",
    ]
    parts += _trace_lines(state)
    parts += [
        "",
        "## Verification diagnostics",
        _dump(z.to_dict()),
        "",
        "## Tool catalog",
    ]
    parts += _tool_lines(metadata)
    parts += [
        "",
        "## Output format",
        "Respond with exactly one JSON object and nothing else, matching:",
        PROFILE_SCHEMA_TEXT,
    ]
    return "\n".join(parts)


def build_reason_prompt(task: Task, metadata: Metadata, state, z) -> str:
    """Interpretation prompt over the realized evidence and verification flags."""
    parts = [
        "You are the reasoning stage of a bounded tool-execution runtime.",
        "Answer the objective using only the stored evidence below.",
        "Every substantive claim must reference a stored result; do not invent data.",
        "Propagate every caveat listed under flags into your answer where relevant.",
        "",
        "## Objective",
        task.objective,
        "",
        "## Stored evidence",
    ]
    if state.result_store:
        parts.append(_dump(state.result_store))
    else:
        parts.append(NO_EVIDENCE_SENTENCE)
    parts += ["", "## Verification"]
    parts.append(f"trust: {z.trust}, status: {z.status.value}")
    if z.flags:
        parts += ["flags:"] + [f"- {flag}" for flag in z.flags]
    else:
        parts.append("flags: none")
    parts += ["", "## Output format", "Reply with the final answer text only."]
    return "\n".join(parts)


# --- response parsing --------------------------------------------------------------

# Where a JSON object can open: a brace, JSON whitespace, then a key or the
# closing brace.
_OBJECT_OPENING = re.compile(r'\{[ \t\n\r]*["}]')
# A JSON string, to its closing quote or to the end of a text cut inside it,
# or a bracket.
_STRING_OR_BRACKET = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?|[{}\[\]]', re.DOTALL)
# A JSON string, or a token the strict decoder refuses with a plain
# ValueError, which names no position: a NaN or Infinity constant, or an
# integer part of more digits than any limit Python sets on int() (640 at
# least) that no fraction or exponent follows.
_STRING_OR_REFUSED = re.compile(
    r'"[^"\\]*(?:\\.[^"\\]*)*"?|-?Infinity|NaN'
    r'|(?<![0-9.eE+-])-?(?P<digits>[0-9]{641,})(?![0-9]|\.[0-9]|[eE][-+]?[0-9])', re.DOTALL)
# Later candidate objects are decoded from a window of the text that starts
# this wide and grows eightfold while a parse runs into its end.
_WINDOW = 1024
# A strict decoder refuses NUL everywhere, so a parse of a window with NUL
# appended that runs into the window's end fails at most a token's length
# before it (``-Infinity`` is the longest); a failure further back is one
# the whole text has too.
_TOKEN_REACH = 16
# Objects and arrays a reply may hold open at once. Every supported Python's
# decoder recurses further (3.11's about 1,000 levels, 3.13's about 10,000),
# so a reply past the bound is refused the same way on each of them.
MAX_JSON_DEPTH = 64
# Translating with these keeps only quotes and brackets, the brackets as braces.
_AS_BRACES = bytes.maketrans(b"[]", b"{}")
_NOT_QUOTE_OR_BRACKET = bytes(sorted(set(range(128)) - set(b'"{}[]')))


def extract_first_json_object(text: str) -> dict:
    """First JSON object in the text, tolerating surrounding prose and fences.

    NaN and Infinity are refused: a profile's values reach the trace, which
    is strict JSON. A candidate that opens more than MAX_JSON_DEPTH objects
    and arrays at once ends the search with a ProfileParseError. A failed
    candidate costs about as much as the text its parse read, not the rest
    of the response, and a candidate that a failed parse held open where it
    failed is not decoded: its own parse would read the same text and fail
    there.
    """
    # Replies usually open with their object: the first candidate is decoded whole.
    width = len(text)
    held_open: set[int] = set()
    for opening in _OBJECT_OPENING.finditer(text):
        start = opening.start()
        if start in held_open:
            continue
        obj, stopped = _decode_object_at(text, start, width)
        if obj is not None:
            return obj
        held_open.update(_open_objects(text, start, stopped))
        width = _WINDOW
    raise ProfileParseError("no JSON object found in the response")


def _decode_object_at(text: str, start: int, width: int) -> tuple[dict | None, int]:
    """The JSON object that opens at ``text[start]``, or None when none does,
    with where its parse stopped."""
    while True:
        end = start + width
        truncated = end < len(text)
        grow = False
        try:
            obj, read = _DECODER.raw_decode(text[start:end] + "\0" if truncated else text[start:])
        except json.JSONDecodeError as exc:
            obj, read = None, exc.pos
            grow = truncated and exc.pos >= width - _TOKEN_REACH
        except ValueError:
            refused = _refused_token(text, start, end if truncated else len(text))
            obj, read = None, (refused.start() if refused else start) - start
            # The window's end can cut a number into an integer the decoder
            # refuses; a token that ends well inside the window is refused in
            # the whole text too.
            grow = truncated and (refused is None or refused.end() > end - _TOKEN_REACH)
        except RecursionError:
            obj, read = None, None
        # The text a parse read is valid JSON, so its brackets outside strings
        # are the levels the decoder opened.
        if read is None or _nests_too_deeply(text, start, start + read):
            raise ProfileParseError("the response nests JSON too deeply")
        if not grow:
            return obj, start + read
        width *= 8


def _refused_token(text: str, start: int, end: int) -> re.Match | None:
    """The token that the strict decoder refused with a plain ValueError in
    the JSON text ``text[start:end]``, NUL appended, or None when it holds
    none. The text before that token is valid JSON, so it is the first such
    token outside a string."""
    limit = sys.get_int_max_str_digits()
    for mark in _STRING_OR_REFUSED.finditer(text, start, end):
        digits = mark["digits"]
        if text[mark.start()] != '"' and (digits is None or 0 < limit < len(digits)):
            return mark
    return None


def _open_objects(text: str, start: int, end: int) -> list[int]:
    """Where the objects begin that the JSON text ``text[start:end]``, a
    prefix of one, leaves open at its end."""
    opened = []
    for mark in _STRING_OR_BRACKET.finditer(text, start, end):
        at = mark.start()
        if text[at] in "{[":
            opened.append(at)
        elif text[at] != '"':
            opened.pop()
    return [at for at in opened if text[at] == "{"]


def _nests_too_deeply(text: str, start: int, end: int) -> bool:
    """Whether the JSON text ``text[start:end]``, or a prefix of one, holds
    more than MAX_JSON_DEPTH objects and arrays open at once."""
    data = text[start:end].encode("ascii", "ignore")
    if b"\\" in data:
        # Escaped backslashes and quotes go first, pairing each run of
        # backslashes from its start as the decoder does.
        data = data.replace(b"\\\\", b"").replace(b'\\"', b"")
    marks = data.translate(_AS_BRACES, _NOT_QUOTE_OR_BRACKET)
    if marks.count(b"{") <= MAX_JSON_DEPTH:
        return False
    # Two adjacent quotes are an empty string, or one string's end and the
    # next one's start, so dropping them first, which leaves little to split,
    # moves no brace into or out of a string. The quotes left alternate
    # opening and closing.
    braces = b"".join(marks.replace(b'""', b"").split(b'"')[::2])
    braces += b"}" * (braces.count(b"{") - braces.count(b"}"))  # close what a prefix left open
    # Each pass removes the innermost pairs, so balanced braces nested d deep
    # are gone after d passes.
    for _ in range(MAX_JSON_DEPTH):
        braces = braces.replace(b"{}", b"")
        if not braces:
            return False
    return True


def parse_profile_response(text: str) -> Profile:
    obj = extract_first_json_object(text)
    try:
        return Profile.from_dict(obj)
    except (ValueError, TypeError) as exc:
        raise ProfileParseError(str(exc)) from None
