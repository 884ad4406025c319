"""Grammar-based engine for the deterministic rule layer.

Four rule forms share one tokenizer and expression core:

* branch predicates    -- boolean expressions over the execution state
* parameter modifiers  -- ordered ``set <slot> = <expr>`` assignments
* auto-resolution      -- ``<path>`` with an optional ``?? <literal>`` default
* recovery modifiers   -- same grammar as parameter modifiers

State paths are dot-separated and must be rooted at one of the five state
components (result, trace, failure, branch, env). Missing paths make
comparison atoms and ``exists`` false; evaluation is total on well-formed
ASTs and never raises. The full grammar is documented in docs/grammar.md.

Numbers are 64-bit floats (exact integer behaviour below 2**53); a string
literal is a JSON string, and string comparison is code-point-wise.

AST and rule nodes are slotted, not frozen: a run builds them for every rule
it parses, and creating a frozen instance costs several times as much.
Nothing mutates a node once the parser has built it; rules that share a text
share its AST through one process-wide memo (``core.parse_rule``).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

STATE_ROOTS = ("result", "trace", "failure", "branch", "env")

_KEYWORDS = frozenset(("and", "or", "not", "exists", "failed", "empty", "set", "true", "false"))

MAX_EXACT_INT = float(2**53)

# Bound on the nesting operators in one rule: every open parenthesis, every
# `not` and every and/or/+/-/* counts once, wherever it stands. The count
# never drops, so it bounds the AST's height however the operators combine,
# and keeps parsing, printing and evaluation well inside Python's recursion
# limit.
MAX_DEPTH = 64


class DslError(ValueError):
    """Base class for rule-DSL errors."""


class DslParseError(DslError):
    """Source text rejected by the grammar; carries byte offset and expected tokens."""

    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset
        self.expected = expected


class PathRootError(DslParseError):
    """State path not rooted at one of the five state components."""


class ModifierEvalError(DslError):
    """Modifier expression failed at evaluation time (type mix or missing path)."""


class UnresolvedAutoError(DslError):
    """Auto rule path absent from the state and no default literal given."""


# --- tokenizer ----------------------------------------------------------------


# A token is a plain (kind, text, value, pos) tuple, read through these
# indexes: kind is ident, number, string, symbol, keyword or end, and pos is
# a character offset into the source. Building each token as a NamedTuple
# instead doubles the lexer's cost per token.
_KIND, _TEXT, _VALUE, _POS = range(4)


# Each token follows the whitespace before it (group 1) and is an identifier
# (group 2) or any other token (group 3). At each position the first
# alternative that matches wins, so two-character symbols come before their
# one-character prefixes, and `-` glued to a digit starts a number before the
# one-character catch-all can take it. Identifier characters are rechecked
# against str.isalpha where the match is not ASCII (see _tokenize). A string
# runs to its closing quote or to the end of the source. No alternative can
# fail after scanning ahead, so the cost is linear in the length of the
# source.
_TOKEN_RE = re.compile(r"""
    ([ \t\r\n]*)
    (?:([^\W\d]\w*)
      |(==|!=|<=|>=|\?\?|-?[0-9]+(?:\.[0-9]+)?|"[^"\\]*(?:\\.[^"\\]*)*"?|[^ \t\r\n]))
""", re.VERBOSE | re.DOTALL)
# A string literal's longest prefix whose escapes are all valid JSON escapes.
_VALID_ESCAPES_RE = re.compile(r'"(?:[^\\]+|\\["\\/bfnrt]|\\u[0-9a-fA-F]{4})*')
_SYMBOLS = frozenset(("==", "!=", "<=", ">=", "??", "<", ">", "(", ")", ".", "=", "+", "*",
                      ";", "-"))


def _byte_offset(source: str, pos: int) -> int:
    return len(source[:pos].encode("utf-8", "surrogatepass"))


def _tokenize(source: str) -> list[tuple]:
    """Split a source into tokens in one pass; the cost is linear in its length."""
    tokens: list[tuple] = []
    append = tokens.append
    pos = 0
    # findall gives one tuple of group texts per token. Trailing whitespace is
    # stripped, as no token follows it; the matches are then contiguous, so a
    # token's position is the sum of the lengths before it.
    for space, ident, text in _TOKEN_RE.findall(source.rstrip(" \t\r\n")):
        pos += len(space)
        if ident:
            # \w also matches digits and numerals that are not letters (², ½,
            # Ⅻ, ١); a letter is what str.isalpha says, and a digit is ASCII.
            if not ident.isascii():
                for i, ch in enumerate(ident):
                    if not (ch.isalpha() or ch == "_" or "0" <= ch <= "9"):
                        raise DslParseError(f"unexpected character {ch!r}",
                                            _byte_offset(source, pos + i))
            append(("keyword" if ident in _KEYWORDS else "ident", ident, ident, pos))
            pos += len(ident)
            continue
        if text in _SYMBOLS:
            append(("symbol", text, text, pos))
        elif text[0] == '"':
            if "\\" in text or len(text) < 2 or text[-1] != '"':
                # escapes, or no closing quote: a literal is a JSON string, so
                # JSON's own scanner decodes it or says where it goes wrong.
                # Not strict: raw control characters pass, as they do above.
                # The C scanner refuses a \u without four hex digits; the pure
                # Python one, used where _json is missing, reads them with
                # int(), which takes " 1_a" and "+041", so they are refused here.
                stop = _VALID_ESCAPES_RE.match(text).end()
                if text.startswith("\\u", stop):
                    raise DslParseError("Invalid \\uXXXX escape",
                                        _byte_offset(source, pos + stop + 1))
                try:
                    value = json.decoder.scanstring(source, pos + 1, False)[0]
                except json.JSONDecodeError as exc:
                    raise DslParseError(exc.msg, _byte_offset(source, exc.pos)) from None
            else:
                value = text[1:-1]
            append(("string", text, value, pos))
        elif text[0] in "-0123456789":  # a lone "-" is a symbol
            value = float(text)
            if not math.isfinite(value):
                raise DslParseError("number literal is too large", _byte_offset(source, pos))
            append(("number", text, value, pos))
        else:
            raise DslParseError(f"unexpected character {text!r}", _byte_offset(source, pos))
        pos += len(text)
    append(("end", "", None, len(source)))
    return tokens


# --- AST nodes ------------------------------------------------------------------


@dataclass(slots=True)
class PathRef:
    parts: tuple[str, ...]  # parts[0] in STATE_ROOTS; later segments ident or digits

    def source(self) -> str:
        return ".".join(self.parts)


@dataclass(slots=True)
class Comparison:
    op: str  # == != < <= > >=
    path: PathRef
    value: object  # float | str | bool


@dataclass(slots=True)
class Exists:
    path: PathRef


@dataclass(slots=True)
class Failed:
    step_key: str


@dataclass(slots=True)
class Empty:
    step_key: str


@dataclass(slots=True)
class Not:
    operand: object


@dataclass(slots=True)
class And:
    left: object
    right: object


@dataclass(slots=True)
class Or:
    left: object
    right: object


PredicateAst = object  # union of the predicate node classes above


@dataclass(slots=True)
class Lit:
    value: object


@dataclass(slots=True)
class StatePath:
    path: PathRef


@dataclass(slots=True)
class SlotRef:
    name: str


@dataclass(slots=True)
class BinOp:
    op: str  # + - *
    left: object
    right: object


@dataclass(slots=True)
class Assignment:
    slot: str
    expr: object


@dataclass(slots=True)
class ModifierAst:
    assignments: tuple[Assignment, ...]


@dataclass(slots=True)
class AutoExpr:
    path: PathRef
    default: object | None = None  # Lit, or None when the rule has no default


@dataclass(slots=True)
class AutoRule:
    id: str
    expr: AutoExpr


# --- parser ---------------------------------------------------------------------

_NAME_KINDS = ("ident", "keyword")
_COMPARISON_OPS = frozenset(("==", "!=", "<=", ">=", "<", ">"))


class _Parser:
    """Recursive descent over the token list. `tok` is the current token, and
    `self.tok = self.next_token()` moves past it; the parser never moves past
    the end token.

    Symbols and keywords are matched by their text alone: no token of another
    kind has the same text, as strings keep their quotes, numbers are digits
    and a word that is a keyword always lexes as one.
    """

    def __init__(self, source: str, allow_refs: bool = True):
        self.source = source
        self.next_token = iter(_tokenize(source)).__next__
        self.tok = self.next_token()
        self.allow_refs = allow_refs
        self.depth = 0

    def fail(self, expected: set[str]) -> DslParseError:
        token = self.tok
        what = token[_TEXT] or "end of input"
        return DslParseError(
            f"unexpected {what!r}",
            _byte_offset(self.source, token[_POS]),
            frozenset(expected),
        )

    def nest(self) -> None:
        """Count one nesting operator at the current token."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise DslParseError(f"rule holds more than {MAX_DEPTH} nesting operators",
                                _byte_offset(self.source, self.tok[_POS]))

    def expect_symbol(self, sym: str) -> None:
        if self.tok[_TEXT] != sym:
            raise self.fail({sym})
        self.tok = self.next_token()

    def expect_end(self) -> None:
        if self.tok[_KIND] != "end":
            raise self.fail({"end of input"})

    # path := root ("." segment)*
    def parse_path(self) -> PathRef:
        root = self.tok
        if root[_KIND] not in _NAME_KINDS:
            raise self.fail({"state path"})
        if root[_TEXT] not in STATE_ROOTS:
            raise PathRootError(
                f"path root {root[_TEXT]!r} is not a state component",
                _byte_offset(self.source, root[_POS]),
                frozenset(STATE_ROOTS),
            )
        parts = [root[_TEXT]]
        next_token = self.next_token
        tok = next_token()
        while tok[_TEXT] == ".":
            tok = next_token()
            if tok[_KIND] in _NAME_KINDS or (tok[_KIND] == "number" and tok[_TEXT].isdigit()):
                parts.append(tok[_TEXT])
                tok = next_token()
            else:
                self.tok = tok
                raise self.fail({"path segment"})
        self.tok = tok
        return PathRef(tuple(parts))

    def parse_literal(self) -> object:
        token = self.tok
        if token[_KIND] == "number" or token[_KIND] == "string":
            self.tok = self.next_token()
            return token[_VALUE]
        if token[_TEXT] == "true" or token[_TEXT] == "false":
            self.tok = self.next_token()
            return token[_TEXT] == "true"
        raise self.fail({"literal"})

    # predicate := or_expr
    def parse_predicate(self) -> PredicateAst:
        node = self.parse_and()
        while self.tok[_TEXT] == "or":
            self.nest()
            self.tok = self.next_token()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> PredicateAst:
        node = self.parse_not()
        while self.tok[_TEXT] == "and":
            self.nest()
            self.tok = self.next_token()
            node = And(node, self.parse_not())
        return node

    def parse_not(self) -> PredicateAst:
        if self.tok[_TEXT] == "not":
            self.nest()
            self.tok = self.next_token()
            return Not(self.parse_not())
        return self.parse_atom()

    def parse_atom(self) -> PredicateAst:
        text = self.tok[_TEXT]
        if text == "(":
            self.nest()
            self.tok = self.next_token()
            node = self.parse_predicate()
            self.expect_symbol(")")
            return node
        if text == "exists":
            self.tok = self.next_token()
            self.expect_symbol("(")
            path = self.parse_path()
            self.expect_symbol(")")
            return Exists(path)
        if text == "failed" or text == "empty":
            self.tok = self.next_token()
            self.expect_symbol("(")
            key = self.tok
            if key[_KIND] not in _NAME_KINDS:
                raise self.fail({"step key"})
            self.tok = self.next_token()
            self.expect_symbol(")")
            return Failed(key[_TEXT]) if text == "failed" else Empty(key[_TEXT])
        path = self.parse_path()
        op = self.tok[_TEXT]
        if op in _COMPARISON_OPS:
            self.tok = self.next_token()
            return Comparison(op, path, self.parse_literal())
        raise self.fail({"==", "!=", "<", "<=", ">", ">="})

    # modifier := assignment (";" assignment)* [";"]
    def parse_modifier(self) -> ModifierAst:
        assignments: list[Assignment] = []
        if self.tok[_KIND] == "end":
            return ModifierAst(())
        while True:
            if self.tok[_TEXT] != "set":
                raise self.fail({"set"})
            slot = self.tok = self.next_token()
            if slot[_KIND] not in _NAME_KINDS:
                raise self.fail({"slot name"})
            self.tok = self.next_token()
            self.expect_symbol("=")
            assignments.append(Assignment(slot[_TEXT], self.parse_expr()))
            if self.tok[_TEXT] != ";":
                break
            self.tok = self.next_token()
            if self.tok[_KIND] == "end":
                break
        return ModifierAst(tuple(assignments))

    # expr := term (("+"|"-") term)* ; term := factor ("*" factor)*
    def parse_expr(self) -> object:
        node = self.parse_term()
        while self.tok[_TEXT] == "+" or self.tok[_TEXT] == "-":
            self.nest()
            op = self.tok[_TEXT]
            self.tok = self.next_token()
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> object:
        node = self.parse_factor()
        while self.tok[_TEXT] == "*":
            self.nest()
            self.tok = self.next_token()
            node = BinOp("*", node, self.parse_factor())
        return node

    def parse_factor(self) -> object:
        token = self.tok
        kind = token[_KIND]
        if kind == "number" or kind == "string":
            self.tok = self.next_token()
            return Lit(token[_VALUE])
        if token[_TEXT] == "(":
            self.nest()
            self.tok = self.next_token()
            node = self.parse_expr()
            self.expect_symbol(")")
            return node
        if token[_TEXT] == "true" or token[_TEXT] == "false":
            self.tok = self.next_token()
            return Lit(token[_TEXT] == "true")
        if kind in _NAME_KINDS:
            if not self.allow_refs:
                raise self.fail({"number", "("})
            if token[_TEXT] in STATE_ROOTS:
                return StatePath(self.parse_path())
            self.tok = self.next_token()
            return SlotRef(token[_TEXT])
        raise self.fail({"expression"})

    # auto := path ["??" literal]
    def parse_auto(self) -> AutoExpr:
        path = self.parse_path()
        if self.tok[_TEXT] == "??":
            self.tok = self.next_token()
            value = self.parse_literal()
            return AutoExpr(path, Lit(value))
        return AutoExpr(path)


def parse_predicate(source: str) -> PredicateAst:
    parser = _Parser(source)
    node = parser.parse_predicate()
    parser.expect_end()
    return node


def parse_modifier(source: str) -> ModifierAst:
    parser = _Parser(source)
    node = parser.parse_modifier()
    parser.expect_end()
    return node


def parse_auto_expr(source: str) -> AutoExpr:
    parser = _Parser(source)
    node = parser.parse_auto()
    parser.expect_end()
    return node


def parse_arith(source: str) -> object:
    """Parse the literal arithmetic sub-grammar (no paths, no slot refs)."""
    parser = _Parser(source, allow_refs=False)
    node = parser.parse_expr()
    parser.expect_end()
    return node


# --- pretty printers --------------------------------------------------------------

_PRED_PREC = {Or: 1, And: 2, Not: 3}
_EXPR_PREC = {"+": 1, "-": 1, "*": 2}


def format_number(value: float) -> str:
    if value == int(value) and abs(value) <= MAX_EXACT_INT:
        return str(int(value))
    return repr(value)


def format_literal(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_number(value)
    return json.dumps(value)


def predicate_to_source(node: PredicateAst) -> str:
    def prec(n: object) -> int:
        return _PRED_PREC.get(type(n), 4)

    def render(n: object) -> str:
        if isinstance(n, Or) or isinstance(n, And):
            word = "or" if isinstance(n, Or) else "and"
            left = render(n.left)
            right = render(n.right)
            if prec(n.left) < prec(n):
                left = f"({left})"
            if prec(n.right) <= prec(n):
                right = f"({right})"
            return f"{left} {word} {right}"
        if isinstance(n, Not):
            inner = render(n.operand)
            if prec(n.operand) < prec(n):
                inner = f"({inner})"
            return f"not {inner}"
        if isinstance(n, Comparison):
            return f"{n.path.source()} {n.op} {format_literal(n.value)}"
        if isinstance(n, Exists):
            return f"exists({n.path.source()})"
        if isinstance(n, Failed):
            return f"failed({n.step_key})"
        if isinstance(n, Empty):
            return f"empty({n.step_key})"
        raise TypeError(f"not a predicate node: {n!r}")

    return render(node)


def expr_to_source(node: object) -> str:
    def prec(n: object) -> int:
        return _EXPR_PREC[n.op] if isinstance(n, BinOp) else 3

    def render(n: object) -> str:
        if isinstance(n, BinOp):
            left = render(n.left)
            right = render(n.right)
            if prec(n.left) < prec(n):
                left = f"({left})"
            if prec(n.right) <= prec(n):
                right = f"({right})"
            return f"{left} {n.op} {right}"
        if isinstance(n, Lit):
            return format_literal(n.value)
        if isinstance(n, StatePath):
            return n.path.source()
        if isinstance(n, SlotRef):
            return n.name
        raise TypeError(f"not an expression node: {n!r}")

    return render(node)


def modifier_to_source(node: ModifierAst) -> str:
    return "; ".join(f"set {a.slot} = {expr_to_source(a.expr)}" for a in node.assignments)


def auto_expr_to_source(node: AutoExpr) -> str:
    if node.default is not None:
        return f"{node.path.source()} ?? {format_literal(node.default.value)}"
    return node.path.source()


# --- evaluation --------------------------------------------------------------------
#
# The state argument duck-types two methods:
#   resolve_path(parts: tuple[str, ...]) -> tuple[bool, object]
#   step_failed(key: str) -> bool

_MISSING = object()


def is_empty_value(value: object) -> bool:
    if value is None:
        return True
    return isinstance(value, (str, list, tuple, dict)) and len(value) == 0


def _lookup(state, path: PathRef) -> object:
    found, value = state.resolve_path(path.parts)
    return value if found else _MISSING


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compare(op: str, left: object, right: object) -> bool:
    """Total comparison: type mixes and non-scalars evaluate false, never raise."""
    if _is_number(left) and _is_number(right):
        pass
    elif isinstance(left, str) and isinstance(right, str):
        pass
    elif isinstance(left, bool) and isinstance(right, bool):
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        return False
    else:
        return False
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise TypeError(f"unknown comparison op {op!r}")


def eval_predicate(node: PredicateAst, state) -> bool:
    if isinstance(node, Or):
        return eval_predicate(node.left, state) or eval_predicate(node.right, state)
    if isinstance(node, And):
        return eval_predicate(node.left, state) and eval_predicate(node.right, state)
    if isinstance(node, Not):
        return not eval_predicate(node.operand, state)
    if isinstance(node, Comparison):
        value = _lookup(state, node.path)
        if value is _MISSING:
            return False
        return _compare(node.op, value, node.value)
    if isinstance(node, Exists):
        return _lookup(state, node.path) is not _MISSING
    if isinstance(node, Failed):
        return state.step_failed(node.step_key)
    if isinstance(node, Empty):
        value = _lookup(state, PathRef(parts=("result", node.step_key)))
        return value is not _MISSING and is_empty_value(value)
    raise TypeError(f"not a predicate node: {node!r}")


def eval_expr(node: object, params: dict, state) -> object:
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, StatePath):
        value = _lookup(state, node.path)
        if value is _MISSING:
            raise ModifierEvalError(f"state path {node.path.source()!r} is absent")
        return value
    if isinstance(node, SlotRef):
        if node.name not in params:
            raise ModifierEvalError(f"slot {node.name!r} has no current value")
        return params[node.name]
    if isinstance(node, BinOp):
        left = eval_expr(node.left, params, state)
        right = eval_expr(node.right, params, state)
        if node.op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        if _is_number(left) and _is_number(right):
            if node.op == "+":
                value = left + right
            elif node.op == "-":
                value = left - right
            else:
                value = left * right
            # Traces are strict JSON, which has no infinity or NaN.
            if isinstance(value, float) and not math.isfinite(value):
                raise ModifierEvalError(f"operator {node.op!r} gives a number that is not finite")
            return value
        raise ModifierEvalError(
            f"operator {node.op!r} cannot combine {type(left).__name__} and {type(right).__name__}")
    raise TypeError(f"not an expression node: {node!r}")


def apply_modifier(node: ModifierAst, params: dict, state) -> dict:
    """Apply assignments in listed order; returns a new map, input untouched."""
    updated = dict(params)
    for assignment in node.assignments:
        updated[assignment.slot] = eval_expr(assignment.expr, updated, state)
    return updated


def eval_auto_rule(rule: AutoRule, state) -> object:
    value = _lookup(state, rule.expr.path)
    if value is not _MISSING:
        return value
    if rule.expr.default is not None:
        return rule.expr.default.value
    raise UnresolvedAutoError(
        f"auto rule {rule.id!r}: path {rule.expr.path.source()!r} absent and no default")
