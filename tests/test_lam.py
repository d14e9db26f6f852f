import random

import pytest
from hypothesis import given, settings, strategies as hs

from cassette import lam, tier2, stacked, values
from cassette.values import Adt, ContractViolation, Int, Text

import cfg_oracle as cfg
import lam_corpus


SELF_APPLY = lam.abs_("x", lam.app(lam.var("x"), lam.var("x")))


def test_parse_of_the_self_application():
    assert lam.parse_term("λx.(x x)") == SELF_APPLY
    assert lam.parse_term("λx.(x x)", "stacked") == SELF_APPLY


def test_pretty_of_the_self_application():
    assert lam.pretty_term(SELF_APPLY) == "λx.(x x)"
    assert lam.pretty_term(SELF_APPLY, "stacked") == "λx.(x x)"


def test_alternatives_are_tried_var_first():
    assert lam.parse_term("x") == lam.var("x")


def test_truncated_input_fails():
    assert lam.parse_term("λ") is None
    assert lam.parse_term("(x", "stacked") is None


def test_no_space_is_admitted_after_the_dot():
    assert lam.parse_term("λx. (x x)") is None
    assert lam.parse_term("λx. (x x)", "stacked") is None


def test_identifier_lexing_is_maximal_munch():
    assert lam.parse_term("ab cd") == lam.var("ab")
    assert lam.parse_term("ab cd", "stacked") == lam.var("ab")


def test_lambda_is_the_unicode_scalar_only():
    assert lam.parse_term("\\x.x") is None
    assert lam.parse_term("λx.x") == lam.abs_("x", lam.var("x"))


@pytest.mark.parametrize("engine", lam.ENGINES)
def test_round_trip_on_generated_terms(engine):
    for t in lam_corpus.generated_terms(120, seed=5):
        s = lam.pretty_term(t, engine)
        assert s is not None
        assert lam.parse_term(s, engine) == t


@pytest.mark.parametrize("engine", lam.ENGINES)
def test_negative_cases_fail_to_parse(engine):
    for s in lam_corpus.NEGATIVE_CASES:
        assert lam.parse_term(s, engine) is None, s


def test_engines_agree_on_the_full_corpus():
    positives = lam_corpus.positive_strings()
    assert len(positives) >= 50
    assert len(lam_corpus.NEGATIVE_CASES) >= 25
    for s in positives + lam_corpus.NEGATIVE_CASES:
        assert lam.parse_term(s, "cassette") == lam.parse_term(s, "stacked"), s
    for s in positives:
        t = lam.parse_term(s)
        assert lam.pretty_term(t, "cassette") == lam.pretty_term(t, "stacked")
    for t in [Adt("Bogus", ()), lam.var("")]:
        assert lam.pretty_term(t, "cassette") is None
        assert lam.pretty_term(t, "stacked") is None


# Identifiers mix printable ones with empty, digit-first, spaced, "λ",
# "." and non-ASCII ones, which no engine may print.
IDENTS = hs.one_of(
    hs.from_regex(r"[A-Za-z][A-Za-z0-9]{0,3}", fullmatch=True),
    hs.text(alphabet="ab1 λ.(Zé_", max_size=4),
    hs.text(max_size=3),
)
TERMS_BY_DEPTH = [IDENTS.map(lam.var)]
for _ in range(6):
    _sub = TERMS_BY_DEPTH[-1]
    TERMS_BY_DEPTH.append(hs.one_of(
        IDENTS.map(lam.var),
        hs.builds(lam.abs_, IDENTS, _sub),
        hs.builds(lam.app, _sub, _sub)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(TERMS_BY_DEPTH[-1])
def test_engines_agree_on_arbitrary_terms(t):
    printed = lam.pretty_term(t, "cassette")
    assert lam.pretty_term(t, "stacked") == printed
    if printed is not None:
        for engine in lam.ENGINES:
            assert lam.parse_term(printed, engine) == t, engine


def test_print_parse_coherence_on_the_corpus():
    for s in lam_corpus.positive_strings():
        t = lam.parse_term(s)
        assert t is not None
        s2 = lam.pretty_term(t)
        assert s2 is not None
        assert lam.parse_term(s2) == t


def test_empty_identifier_cannot_print():
    assert lam.pretty_term(lam.var("")) is None
    assert lam.pretty_term(lam.var(""), "stacked") is None


def test_malformed_payload_is_a_violation_not_a_silent_failure():
    with pytest.raises(ContractViolation):
        lam.pretty_term(Adt("Var", (Int(3),)))


def test_composition_is_associative_over_grammar_pieces():
    # reassociating the identifier pipeline changes nothing observable
    from cassette.values import Iso
    rng = random.Random(3)
    letter = tier2.satisfy(lam._is_letter, "letter")
    alnum = tier2.satisfy(lam._is_alnum, "alphanumeric")
    iso = tier2.iso_lift(Iso("ident", lam._unpack, lam._pack))
    pieces = [iso, tier2.cons_lead(), letter, tier2.many(alnum)]
    flat = tier2.compose(*pieces)
    left = tier2.compose(tier2.compose(tier2.compose(pieces[0], pieces[1]),
                                       pieces[2]), pieces[3])
    right = tier2.compose(pieces[0], tier2.compose(pieces[1],
                                                   tier2.compose(pieces[2], pieces[3])))
    probes = ["x", "ab", "q0", "", "0a", "zz9 tail"]
    probes += ["".join(rng.choice("ab0 ") for _ in range(4)) for _ in range(14)]
    for text in probes:
        outs = {str(tier2.run_parse(d, text)) for d in (flat, left, right)}
        assert len(outs) == 1
    for ident in (Text("ab"), Text("q0"), Text(""), Text("9no")):
        outs = {str(tier2.run_print(d, [ident])) for d in (flat, left, right)}
        assert len(outs) == 1


# ---------------------------------------------------------------------------
# Unambiguity against the derivation oracle


def term_cfg():
    is_letter, is_alnum = lam._is_letter, lam._is_alnum
    many_alnum = cfg.Ref(lambda: cfg.Or(
        cfg.Cat(cfg.Sat(is_alnum), many_alnum), cfg.Lit("")))
    ident = cfg.Cat(cfg.Sat(is_letter), many_alnum)
    term = cfg.Ref(lambda: cfg.Or(
        ident,
        cfg.Cat(cfg.Lit(lam.LAMBDA), ident, cfg.Lit("."), term),
        cfg.Cat(cfg.Lit("("), term, cfg.Lit(" "), term, cfg.Lit(")"))))
    return term


def test_corpus_strings_have_exactly_one_derivation():
    g = term_cfg()
    for s, _ in lam_corpus.file_positives():
        assert cfg.count_trees(g, s) == 1, s


def test_parse_matches_the_derivation_oracle_on_short_strings():
    g = term_cfg()
    rng = random.Random(13)
    alphabet = "xyλ.() "
    inputs = {"x", "λx.x", "(x y)", ""}
    for _ in range(500):
        inputs.add("".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 9))))
    for s in inputs:
        engine_says = tier2.run_parse(lam.term_cassette(), s) is not None
        oracle_says = cfg.derives_prefix(g, s)
        assert engine_says == oracle_says, s


# ---------------------------------------------------------------------------
# JSON


def test_json_fixed_forms():
    assert lam.term_to_json(lam.var("x")) == '{"Var":"x"}'
    assert lam.term_from_json('{"Var":"x"}') == lam.var("x")
    two = lam.term_to_json(SELF_APPLY)
    assert two == '{"Abs":["x",{"App":[{"Var":"x"},{"Var":"x"}]}]}'


def test_json_round_trips_generated_terms():
    for t in lam_corpus.generated_terms(500, seed=11):
        assert lam.term_from_json(lam.term_to_json(t)) == t


def test_json_rejects_non_terms():
    assert lam.term_from_json("{}") is None
    assert lam.term_from_json("{boom") is None
    assert lam.term_from_json('{"Var":5}') is None
    assert lam.term_from_json('{"Var":["x","y"]}') is None
    assert lam.term_from_json('{"Abs":["x"]}') is None
    assert lam.term_from_json('{"Op":[{"Var":"x"}]}') is None
    assert lam.term_from_json('"x"') is None


@pytest.mark.parametrize("engine", lam.ENGINES)
def test_identifier_runs_copy_linearly_many_list_items(engine, monkeypatch):
    # count every List item copied into a tuple: on construction from a
    # tuple, and when a cons chain or view is materialised
    copied = [0]
    init, flatten = values.List.__init__, values._flatten

    def counting_init(lst, items=()):
        init(lst, items)
        copied[0] += len(lst.items)

    def counting_flatten(lst):
        items = flatten(lst)
        copied[0] += len(items)
        return items

    monkeypatch.setattr(values.List, "__init__", counting_init)
    monkeypatch.setattr(values, "_flatten", counting_flatten)
    text = "a" + "b1" * 1500
    n = len(text)
    term = lam.var(text)
    copied[0] = 0
    assert lam.pretty_term(term, engine) == text
    assert copied[0] <= 3 * n, copied[0]
    copied[0] = 0
    assert lam.parse_term(text, engine) == term
    assert copied[0] <= 3 * n, copied[0]
