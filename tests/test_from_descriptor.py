"""`stacked.from_descriptor` against a hand-written reference and tier 2.

`reference_term_stacked` is the λ grammar written directly with the
stacked combinators, as `lam` wrote it before its stacked grammar was
compiled from the tier-2 descriptor.  The compiled grammar must agree
with it on every print and parse.
"""

import pytest

from cassette import lam, stacked as st, tier2 as t2
from cassette.values import (
    Adt, Char, ContractViolation, Int, List, Pair, Unit, adt_prism,
)

import lam_corpus


def reference_term_stacked() -> st.Choice:
    """The λ grammar as a hand-wired stacked choice action."""
    letter = st.alt_satisfy(lam._is_letter, "letter")
    alnum = st.alt_satisfy(lam._is_alnum, "alphanumeric")
    ident = st.alt_prism_lead(lam._IDENT).ap(
        st.alt_cons_lead().ap(letter).ap(st.alt_many(alnum)))
    var_l = st.alt_prism_lead(adt_prism("Var", 1))
    abs_l = st.alt_prism_lead(adt_prism("Abs", 2))
    app_l = st.alt_prism_lead(adt_prism("App", 2))
    sep = st.alt_lit(" ")

    def parens(p):
        return st.alt_lit("(").right(p).left(st.alt_lit(")"))

    term = st.alt_defer(lambda:
                        var_l.ap(ident)
                        | abs_l.left(st.alt_lit(lam.LAMBDA)).ap(ident)
                               .left(st.alt_lit(".")).ap(term)
                        | parens(app_l.ap(term).left(sep).ap(term)))
    return term


def outcome(run, *args):
    """run(*args), or ContractViolation if it raised one."""
    try:
        return run(*args)
    except ContractViolation:
        return ContractViolation


def test_the_compiled_lambda_grammar_agrees_with_the_reference():
    compiled, reference = lam.term_stacked(), reference_term_stacked()
    texts = list(lam_corpus.NEGATIVE_CASES)
    for t in lam_corpus.generated_terms(2000, seed=7):
        text = st.pretty(reference, t)
        assert st.pretty(compiled, t) == text
        texts += [text, text + " x", text + ")"]
    for text in texts:
        assert st.parse(compiled, text) == st.parse(reference, text), text


SMALL_GRAMMARS = {
    "integer": (t2.integer(),
                [Int(0), Int(407), Int(-1), Char("1")],
                ["0", "407x", "", "x", "-1"]),
    "many_digit": (t2.many(t2.digit()),
                   [List(()), List((Int(1), Int(2))), List((Int(12),))],
                   ["", "12a", "a"]),
    "some_char": (t2.some(t2.char()),
                  [List((Char("a"), Char("b"))), List(()), List((Int(1),))],
                  ["ab", "", "λ"]),
    "lit_unit": (t2.lit_unit("T"), [Unit(), Int(1)], ["T", "Tx", "x", ""]),
    "pair": (t2.pair_lead() + t2.char() + t2.char(),
             [Pair(Char("a"), Char("b")), Pair(Char("a"), Int(1)), Unit()],
             ["ab", "abc", "a", ""]),
    "fail": (t2.fail(), [Unit(), Char("a")], ["", "a"]),
    "bracketed_pair": (t2.lit("<") + t2.pair_lead() + t2.char() + t2.char()
                       + t2.lit(">"),
                       [Pair(Char("a"), Char("b")), Pair(Char("a"), Int(1)), Unit()],
                       ["<ab>", "<ab", "ab>", "", "<ab>x"]),
    "prefixed_char": (t2.lit("#") + t2.char() + t2.lit(";"),
                      [Char("a"), Int(1), Unit()],
                      ["#a;", "#a", "a;", "", "#a;x"]),
}


@pytest.mark.parametrize("name", SMALL_GRAMMARS)
def test_small_grammars_print_and_parse_as_on_tier_2(name):
    d, values, texts = SMALL_GRAMMARS[name]
    compiled = st.from_descriptor(d)
    for v in values:
        assert outcome(st.pretty, compiled, v) == outcome(t2.pretty, d, v), v
    for text in texts:
        assert outcome(st.parse, compiled, text) == outcome(t2.parse, d, text), text


@pytest.mark.parametrize("d", [
    t2.optional(t2.char()),
    t2.char() + t2.char(),
    t2.pair_lead() + t2.char(),
    t2.defer(lambda: t2.lit("x")),
], ids=["unequal_branches", "two_values", "short_lead", "valueless_defer"])
def test_a_descriptor_with_no_stacked_form_is_refused_when_built(d):
    with pytest.raises(ContractViolation):
        st.from_descriptor(d)


def test_compiled_choice_is_committed_on_the_parse_side():
    d = (t2.lit_unit("a") | t2.lit_unit("ab")) + t2.lit("c")
    assert t2.parse(d, "abc") == Unit()
    assert st.parse(st.from_descriptor(d), "abc") is None
    assert st.parse(st.from_descriptor(d), "ac") == Unit()
    assert st.pretty(st.from_descriptor(d), Unit()) == "ac"


def test_a_recursive_grammar_with_a_nullary_lead_round_trips():
    tree = t2.defer(lambda: t2.prism_lead(adt_prism("Leaf", 0)) + t2.lit(".")
                    | t2.prism_lead(adt_prism("Node", 2))
                    + t2.lit("(") + tree + tree + t2.lit(")"))
    compiled = st.from_descriptor(tree)
    leaf = Adt("Leaf", ())
    v = Adt("Node", (leaf, Adt("Node", (leaf, leaf))))
    assert st.pretty(compiled, v) == t2.pretty(tree, v) == "(.(..))"
    assert st.parse(compiled, "(.(..))") == v
