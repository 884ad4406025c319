"""Seeded random generators for rule-DSL ASTs, and a reference lexer, shared
by property tests."""

from __future__ import annotations

import math
import random

from ptrun import ruledsl as r

_IDENTS = ("kb_search_1", "kb_lookup_1", "count", "top_title", "titles", "limit",
           "query", "body", "items", "x", "value_2", "flag")
_ROOTS = r.STATE_ROOTS
_STRINGS = ("", "Alan Turing", "paris", "a b c", 'quote " inside', "tab\there", "ünïcode",
            "\U0001f600")
_NUMBERS = (0.0, 1.0, -1.0, 3.5, 42.0, -0.25, 1e6, 9007199254740992.0, 0.1)


def gen_path(rng: random.Random) -> r.PathRef:
    # consecutive numeric segments are not expressible (they would lex as a
    # float literal), so never emit a digit segment right after another
    parts = [rng.choice(_ROOTS)]
    last_numeric = False
    for _ in range(rng.randint(0, 3)):
        if not last_numeric and rng.random() < 0.2:
            parts.append(str(rng.randint(0, 9)))
            last_numeric = True
        else:
            parts.append(rng.choice(_IDENTS))
            last_numeric = False
    return r.PathRef(parts=tuple(parts))


def gen_literal(rng: random.Random):
    kind = rng.random()
    if kind < 0.45:
        return rng.choice(_NUMBERS)
    if kind < 0.85:
        return rng.choice(_STRINGS)
    return rng.choice((True, False))


def gen_predicate(rng: random.Random, depth: int = 0):
    if depth >= 4 or rng.random() < 0.4:
        kind = rng.random()
        if kind < 0.5:
            op = rng.choice(("==", "!=", "<", "<=", ">", ">="))
            return r.Comparison(op=op, path=gen_path(rng), value=gen_literal(rng))
        if kind < 0.7:
            return r.Exists(path=gen_path(rng))
        if kind < 0.85:
            return r.Failed(step_key=rng.choice(_IDENTS))
        return r.Empty(step_key=rng.choice(_IDENTS))
    kind = rng.random()
    if kind < 0.4:
        return r.And(left=gen_predicate(rng, depth + 1), right=gen_predicate(rng, depth + 1))
    if kind < 0.8:
        return r.Or(left=gen_predicate(rng, depth + 1), right=gen_predicate(rng, depth + 1))
    return r.Not(operand=gen_predicate(rng, depth + 1))


def gen_expr(rng: random.Random, depth: int = 0):
    if depth >= 3 or rng.random() < 0.45:
        kind = rng.random()
        if kind < 0.5:
            return r.Lit(value=gen_literal(rng))
        if kind < 0.75:
            return r.StatePath(path=gen_path(rng))
        return r.SlotRef(name=rng.choice(_IDENTS))
    op = rng.choice(("+", "-", "*"))
    return r.BinOp(op=op, left=gen_expr(rng, depth + 1), right=gen_expr(rng, depth + 1))


def gen_modifier(rng: random.Random) -> r.ModifierAst:
    assignments = tuple(
        r.Assignment(slot=rng.choice(_IDENTS), expr=gen_expr(rng))
        for _ in range(rng.randint(1, 3))
    )
    return r.ModifierAst(assignments=assignments)


def gen_auto(rng: random.Random) -> r.AutoExpr:
    if rng.random() < 0.5:
        return r.AutoExpr(path=gen_path(rng), default=r.Lit(value=gen_literal(rng)))
    return r.AutoExpr(path=gen_path(rng))


def left_nested(atom: str, op: str, levels: int = 64) -> str:
    """`(… (a op a) op a op a …) op a …`: each level wraps the last in parentheses
    and adds one more link. Nesting never passes `levels`, but the left spine
    of the AST grows with the sum of the chain lengths (2080 at 64 levels)."""
    source = f"{atom} {op} {atom}"
    for links in range(2, levels + 1):
        source = f"({source})" + f" {op} {atom}" * links
    return source


# --- reference lexer ------------------------------------------------------------
#
# The rule DSL's original per-character lexer, kept as the oracle that the
# master-regex lexer in ruledsl must agree with token for token and error for
# error. It returns (kind, text, value, pos) tuples. Its string reader follows
# JSON's rules (RFC 8259) and CPython's json decoder's messages and positions,
# one character at a time, without calling that decoder.

_REF_KEYWORDS = ("and", "or", "not", "exists", "failed", "empty", "set", "true", "false")
_REF_SYMBOLS = ("==", "!=", "<=", ">=", "??", "<", ">", "(", ")", ".", "=", "+", "-", "*", ";")
_REF_DIGITS = frozenset("0123456789")


def _ref_byte_offset(source: str, pos: int) -> int:
    return len(source[:pos].encode("utf-8", "surrogatepass"))


def reference_tokenize(source: str) -> list[tuple]:
    tokens: list[tuple] = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == '"':
            text, value, end = _ref_read_string(source, i)
            tokens.append(("string", text, value, i))
            i = end
            continue
        if ch in _REF_DIGITS or (ch == "-" and i + 1 < n and source[i + 1] in _REF_DIGITS):
            j = i + 1
            while j < n and source[j] in _REF_DIGITS:
                j += 1
            if j + 1 < n and source[j] == "." and source[j + 1] in _REF_DIGITS:
                j += 2
                while j < n and source[j] in _REF_DIGITS:
                    j += 1
            text = source[i:j]
            number = float(text)
            if not math.isfinite(number):
                raise r.DslParseError("number literal is too large", _ref_byte_offset(source, i))
            tokens.append(("number", text, number, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (source[j].isalpha() or source[j] in _REF_DIGITS or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "keyword" if text in _REF_KEYWORDS else "ident"
            tokens.append((kind, text, text, i))
            i = j
            continue
        for sym in _REF_SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(("symbol", sym, sym, i))
                i += len(sym)
                break
        else:
            raise r.DslParseError(f"unexpected character {ch!r}", _ref_byte_offset(source, i))
    tokens.append(("end", "", None, n))
    return tokens


_REF_ESCAPES = {'"': '"', "\\": "\\", "/": "/", "n": "\n", "t": "\t", "r": "\r", "b": "\b",
                "f": "\f"}
_REF_HEX = frozenset("0123456789abcdefABCDEF")


def _ref_hex4(source: str, u: int) -> int:
    """The code unit of the four characters after the `u` at `u`; an error at
    the `u` unless all four are hex digits. The caller has checked that the
    source holds them."""
    code = 0
    for ch in source[u + 1: u + 5]:
        if ch not in _REF_HEX:
            raise r.DslParseError("Invalid \\uXXXX escape", _ref_byte_offset(source, u))
        code = code * 16 + int(ch, 16)
    return code


def _ref_read_string(source: str, start: int) -> tuple[str, str, int]:
    """A string literal read as JSON reads one: the escapes above and \\uXXXX
    with four hex digits, where a high and a low surrogate escape in a row
    are one character. An error carries JSON's message and position: an
    unterminated literal is reported at its opening quote, a bad escape at
    its backslash, and a bad \\u escape, or one whose digits reach the end of
    the source, at its `u`."""
    out = []
    i = start + 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == '"':
            return source[start: i + 1], "".join(out), i + 1
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= n:
            break
        esc = source[i + 1]
        if esc != "u":
            if esc not in _REF_ESCAPES:
                raise r.DslParseError("Invalid \\escape", _ref_byte_offset(source, i))
            out.append(_REF_ESCAPES[esc])
            i += 2
            continue
        if i + 6 >= n:
            raise r.DslParseError("Invalid \\uXXXX escape", _ref_byte_offset(source, i + 1))
        code = _ref_hex4(source, i + 1)
        i += 6
        if 0xD800 <= code <= 0xDBFF and i + 6 < n and source[i: i + 2] == "\\u":
            low = _ref_hex4(source, i + 1)
            if 0xDC00 <= low <= 0xDFFF:
                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                i += 6
        out.append(chr(code))
    raise r.DslParseError("Unterminated string starting at", _ref_byte_offset(source, start))


def lex_outcome(tokenize, source: str):
    """A lexer's tokens as (kind, text, value, pos) tuples, or its error as
    ("error", message, byte offset)."""
    try:
        return [tuple(token) for token in tokenize(source)]
    except r.DslParseError as exc:
        return ("error", str(exc), exc.offset)
