"""The lambda-calculus grammar, written once over shared Term values.

Terms are Adt-encoded: ``Var(name)``, ``Abs(binder, body)``,
``App(fun, arg)``.  The surface syntax is exactly::

    term ::= ident | "λ" ident "." term | "(" term " " term ")"
    ident ::= letter alphanumeric*        (ASCII only)

λ is U+03BB with no ASCII alias, and no whitespace is admitted anywhere
except the single mandatory space separating the two halves of an
application.  The three alternatives start with different chars (a
letter, λ or an opening parenthesis), so the next char picks the one
alternative a parse tries, on both engines, and their order does not
matter.

Identifiers live as Text inside terms but as lists of characters inside
the grammar, which lifts one iso at the boundary.  The grammar is a
tier-2 descriptor; the stacked engine runs it compiled by
`stacked.from_descriptor`.
"""

from __future__ import annotations

import functools
from typing import Optional

from . import stacked as st
from . import tier2 as t2
from .values import (
    Adt, Char, ContractViolation, Iso, List, Text, Value, adt_prism,
    value_from_json, value_to_json,
)

LAMBDA = "λ"
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def var(name: str) -> Value:
    return Adt("Var", (Text(name),))


def abs_(binder: str, body: Value) -> Value:
    return Adt("Abs", (Text(binder), body))


def app(fun: Value, arg: Value) -> Value:
    return Adt("App", (fun, arg))


def is_term(v: Value) -> bool:
    """Shape check: the Var/Abs/App encoding with Text identifiers."""
    if not isinstance(v, Adt):
        return False
    if v.tag == "Var":
        return len(v.args) == 1 and isinstance(v.args[0], Text)
    if v.tag == "Abs":
        return (len(v.args) == 2 and isinstance(v.args[0], Text)
                and is_term(v.args[1]))
    if v.tag == "App":
        return len(v.args) == 2 and is_term(v.args[0]) and is_term(v.args[1])
    return False


def _is_letter(c: str) -> bool:
    return c.isascii() and c.isalpha()


def _is_alnum(c: str) -> bool:
    return c.isascii() and c.isalnum()


def _unpack(v: Value) -> Value:
    if not isinstance(v, Text):
        raise ContractViolation(f"identifier wants a Text, got {v!r}")
    return List(tuple(Char(c) for c in v.s))


def _pack(v: Value) -> Value:
    assert isinstance(v, List)
    return Text("".join(c.c for c in v.items))


_IDENT = Iso("ident", _unpack, _pack)


# ---------------------------------------------------------------------------
# The grammar


@functools.cache
def term_cassette() -> t2.Descriptor2:
    """The grammar as a tier-2 descriptor.  Built once, shared freely."""
    letter = t2.satisfy(_is_letter, "letter", _LETTERS)
    alnum = t2.satisfy(_is_alnum, "alphanumeric", _LETTERS + "0123456789")
    ident = t2.iso_lift(_IDENT) >> t2.cons_lead() >> letter + t2.many(alnum)
    var_l = t2.prism_lead(adt_prism("Var", 1))
    abs_l = t2.prism_lead(adt_prism("Abs", 2))
    app_l = t2.prism_lead(adt_prism("App", 2))
    sep = t2.lit(" ")

    def parens(p):
        return t2.lit("(") + p + t2.lit(")")

    term = t2.defer(lambda:
                    var_l >> ident
                    | abs_l >> t2.lit(LAMBDA) + ident + t2.lit(".") + term
                    | app_l >> parens(term + sep + term))
    return term


@functools.cache
def term_stacked() -> st.Choice:
    """The same grammar, compiled to a stacked choice action."""
    return st.from_descriptor(term_cassette())


# ---------------------------------------------------------------------------
# Entry points over both engines


ENGINES = ("cassette", "stacked")


def parse_term(text: str, engine: str = "cassette") -> Optional[Value]:
    if engine == "stacked":
        return st.parse(term_stacked(), text)
    return t2.parse(term_cassette(), text)


def pretty_term(term: Value, engine: str = "cassette") -> Optional[str]:
    if engine == "stacked":
        return st.pretty(term_stacked(), term)
    return t2.pretty(term_cassette(), term)


def term_to_json(term: Value) -> str:
    return value_to_json(term)


def term_from_json(s: str) -> Optional[Value]:
    v = value_from_json(s)
    if v is None or not is_term(v):
        return None
    return v
