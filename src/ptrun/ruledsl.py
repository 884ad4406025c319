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

Numbers are 64-bit floats (exact integer behaviour below 2**53); string
comparison is code-point-wise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

STATE_ROOTS = ("result", "trace", "failure", "branch", "env")

_KEYWORDS = ("and", "or", "not", "exists", "failed", "empty", "set", "true", "false")
_SYMBOLS = ("==", "!=", "<=", ">=", "??", "<", ">", "(", ")", ".", "=", "+", "-", "*", ";")
_DIGITS = frozenset("0123456789")

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


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | number | string | symbol | keyword | end
    text: str
    value: object
    pos: int  # character offset into the source


def _byte_offset(source: str, pos: int) -> int:
    return len(source[:pos].encode("utf-8", "surrogatepass"))


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == '"':
            text, value, end = _read_string(source, i)
            tokens.append(_Token("string", text, value, i))
            i = end
            continue
        if ch in _DIGITS or (ch == "-" and i + 1 < n and source[i + 1] in _DIGITS):
            j = i + 1
            while j < n and source[j] in _DIGITS:
                j += 1
            if j + 1 < n and source[j] == "." and source[j + 1] in _DIGITS:
                j += 2
                while j < n and source[j] in _DIGITS:
                    j += 1
            text = source[i:j]
            number = float(text)
            if not math.isfinite(number):
                raise DslParseError("number literal is too large", _byte_offset(source, i))
            tokens.append(_Token("number", text, number, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (source[j].isalpha() or source[j] in _DIGITS or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "keyword" if text in _KEYWORDS else "ident"
            tokens.append(_Token(kind, text, text, i))
            i = j
            continue
        for sym in _SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(_Token("symbol", sym, sym, i))
                i += len(sym)
                break
        else:
            raise DslParseError(f"unexpected character {ch!r}", _byte_offset(source, i))
    tokens.append(_Token("end", "", None, n))
    return tokens


def _read_string(source: str, start: int) -> tuple[str, str, int]:
    escapes = {'"': '"', "\\": "\\", "/": "/", "n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f"}
    out = []
    i = start + 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == '"':
            return source[start: i + 1], "".join(out), i + 1
        if ch == "\\":
            if i + 1 >= n:
                break
            esc = source[i + 1]
            if esc == "u":
                if i + 6 > n:
                    raise DslParseError("truncated \\u escape", _byte_offset(source, i))
                try:
                    out.append(chr(int(source[i + 2: i + 6], 16)))
                except ValueError:
                    raise DslParseError("bad \\u escape", _byte_offset(source, i)) from None
                i += 6
                continue
            if esc not in escapes:
                raise DslParseError(f"bad escape \\{esc}", _byte_offset(source, i))
            out.append(escapes[esc])
            i += 2
            continue
        out.append(ch)
        i += 1
    raise DslParseError("unterminated string literal", _byte_offset(source, start))


# --- AST nodes ------------------------------------------------------------------


@dataclass(frozen=True)
class PathRef:
    parts: tuple[str, ...]  # parts[0] in STATE_ROOTS; later segments ident or digits

    def source(self) -> str:
        return ".".join(self.parts)


@dataclass(frozen=True)
class Comparison:
    op: str  # == != < <= > >=
    path: PathRef
    value: object  # float | str | bool


@dataclass(frozen=True)
class Exists:
    path: PathRef


@dataclass(frozen=True)
class Failed:
    step_key: str


@dataclass(frozen=True)
class Empty:
    step_key: str


@dataclass(frozen=True)
class Not:
    operand: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


PredicateAst = object  # union of the predicate node classes above


@dataclass(frozen=True)
class Lit:
    value: object


@dataclass(frozen=True)
class StatePath:
    path: PathRef


@dataclass(frozen=True)
class SlotRef:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # + - *
    left: object
    right: object


@dataclass(frozen=True)
class Assignment:
    slot: str
    expr: object


@dataclass(frozen=True)
class ModifierAst:
    assignments: tuple[Assignment, ...]


@dataclass(frozen=True)
class AutoExpr:
    path: PathRef
    default: object | None = None  # Lit or None
    has_default: bool = False


@dataclass(frozen=True)
class AutoRule:
    id: str
    expr: AutoExpr


# --- parser ---------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str, allow_refs: bool = True):
        self.source = source
        self.tokens = _tokenize(source)
        self.index = 0
        self.allow_refs = allow_refs
        self.depth = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def fail(self, expected: set[str]) -> DslParseError:
        token = self.current
        what = token.text or "end of input"
        return DslParseError(
            f"unexpected {what!r}",
            _byte_offset(self.source, token.pos),
            frozenset(expected),
        )

    def nest(self) -> None:
        """Count one nesting operator at the current token."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise DslParseError(f"rule holds more than {MAX_DEPTH} nesting operators",
                                _byte_offset(self.source, self.current.pos))

    def expect_symbol(self, sym: str) -> _Token:
        if self.current.kind == "symbol" and self.current.text == sym:
            return self.advance()
        raise self.fail({sym})

    def at_symbol(self, *symbols: str) -> bool:
        return self.current.kind == "symbol" and self.current.text in symbols

    def at_keyword(self, *words: str) -> bool:
        return self.current.kind == "keyword" and self.current.text in words

    def expect_end(self) -> None:
        if self.current.kind != "end":
            raise self.fail({"end of input"})

    # path := root ("." segment)*
    def parse_path(self) -> PathRef:
        if self.current.kind not in ("ident", "keyword"):
            raise self.fail({"state path"})
        root_token = self.advance()
        if root_token.text not in STATE_ROOTS:
            raise PathRootError(
                f"path root {root_token.text!r} is not a state component",
                _byte_offset(self.source, root_token.pos),
                frozenset(STATE_ROOTS),
            )
        parts = [root_token.text]
        while self.at_symbol("."):
            self.advance()
            seg = self.current
            if seg.kind in ("ident", "keyword") or (seg.kind == "number" and seg.text.isdigit()):
                parts.append(seg.text)
                self.advance()
            else:
                raise self.fail({"path segment"})
        return PathRef(parts=tuple(parts))

    def parse_literal(self) -> object:
        token = self.current
        if token.kind == "number":
            self.advance()
            return token.value
        if token.kind == "string":
            self.advance()
            return token.value
        if self.at_keyword("true", "false"):
            self.advance()
            return token.text == "true"
        raise self.fail({"literal"})

    # predicate := or_expr
    def parse_predicate(self) -> PredicateAst:
        node = self.parse_and()
        while self.at_keyword("or"):
            self.nest()
            self.advance()
            node = Or(left=node, right=self.parse_and())
        return node

    def parse_and(self) -> PredicateAst:
        node = self.parse_not()
        while self.at_keyword("and"):
            self.nest()
            self.advance()
            node = And(left=node, right=self.parse_not())
        return node

    def parse_not(self) -> PredicateAst:
        if self.at_keyword("not"):
            self.nest()
            self.advance()
            return Not(operand=self.parse_not())
        return self.parse_atom()

    def parse_atom(self) -> PredicateAst:
        if self.at_symbol("("):
            self.nest()
            self.advance()
            node = self.parse_predicate()
            self.expect_symbol(")")
            return node
        if self.at_keyword("exists"):
            self.advance()
            self.expect_symbol("(")
            path = self.parse_path()
            self.expect_symbol(")")
            return Exists(path=path)
        if self.at_keyword("failed", "empty"):
            word = self.advance().text
            self.expect_symbol("(")
            key = self.current
            if key.kind not in ("ident", "keyword"):
                raise self.fail({"step key"})
            self.advance()
            self.expect_symbol(")")
            return Failed(step_key=key.text) if word == "failed" else Empty(step_key=key.text)
        path = self.parse_path()
        op_token = self.current
        if op_token.kind == "symbol" and op_token.text in ("==", "!=", "<=", ">=", "<", ">"):
            self.advance()
            value = self.parse_literal()
            return Comparison(op=op_token.text, path=path, value=value)
        raise self.fail({"==", "!=", "<", "<=", ">", ">="})

    # modifier := assignment (";" assignment)* [";"]
    def parse_modifier(self) -> ModifierAst:
        assignments: list[Assignment] = []
        if self.current.kind == "end":
            return ModifierAst(assignments=())
        while True:
            if not self.at_keyword("set"):
                raise self.fail({"set"})
            self.advance()
            slot = self.current
            if slot.kind not in ("ident", "keyword"):
                raise self.fail({"slot name"})
            self.advance()
            self.expect_symbol("=")
            expr = self.parse_expr()
            assignments.append(Assignment(slot=slot.text, expr=expr))
            if self.at_symbol(";"):
                self.advance()
                if self.current.kind == "end":
                    break
                continue
            break
        return ModifierAst(assignments=tuple(assignments))

    # expr := term (("+"|"-") term)* ; term := factor ("*" factor)*
    def parse_expr(self) -> object:
        node = self.parse_term()
        while self.at_symbol("+", "-"):
            self.nest()
            op = self.advance().text
            node = BinOp(op=op, left=node, right=self.parse_term())
        return node

    def parse_term(self) -> object:
        node = self.parse_factor()
        while self.at_symbol("*"):
            self.nest()
            self.advance()
            node = BinOp(op="*", left=node, right=self.parse_factor())
        return node

    def parse_factor(self) -> object:
        token = self.current
        if self.at_symbol("("):
            self.nest()
            self.advance()
            node = self.parse_expr()
            self.expect_symbol(")")
            return node
        if token.kind in ("number", "string") or self.at_keyword("true", "false"):
            return Lit(value=self.parse_literal())
        if token.kind in ("ident", "keyword"):
            if not self.allow_refs:
                raise self.fail({"number", "("})
            if token.text in STATE_ROOTS:
                return StatePath(path=self.parse_path())
            self.advance()
            return SlotRef(name=token.text)
        raise self.fail({"expression"})

    # auto := path ["??" literal]
    def parse_auto(self) -> AutoExpr:
        path = self.parse_path()
        if self.at_symbol("??"):
            self.advance()
            value = self.parse_literal()
            return AutoExpr(path=path, default=Lit(value=value), has_default=True)
        return AutoExpr(path=path)


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
    if node.has_default:
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
    if rule.expr.has_default:
        return rule.expr.default.value
    raise UnresolvedAutoError(
        f"auto rule {rule.id!r}: path {rule.expr.path.source()!r} absent and no default")
