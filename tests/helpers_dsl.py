"""Seeded random generators for rule-DSL ASTs, shared by property tests."""

from __future__ import annotations

import random

from ptrun import ruledsl as r

_IDENTS = ("kb_search_1", "kb_lookup_1", "count", "top_title", "titles", "limit",
           "query", "body", "items", "x", "value_2", "flag")
_ROOTS = r.STATE_ROOTS
_STRINGS = ("", "Alan Turing", "paris", "a b c", 'quote " inside', "tab\there", "ünïcode")
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
        return r.AutoExpr(path=gen_path(rng), default=r.Lit(value=gen_literal(rng)),
                          has_default=True)
    return r.AutoExpr(path=gen_path(rng))


def left_nested(atom: str, op: str, levels: int = 64) -> str:
    """`(… (a op a) op a op a …) op a …`: each level wraps the last in parentheses
    and adds one more link. Nesting never passes `levels`, but the left spine
    of the AST grows with the sum of the chain lengths (2080 at 64 levels)."""
    source = f"{atom} {op} {atom}"
    for links in range(2, levels + 1):
        source = f"({source})" + f" {op} {atom}" * links
    return source
