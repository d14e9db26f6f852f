import gc
import os
import pathlib
import random
import subprocess
import sys
import textwrap
import threading

import pytest

from cassette import cli, lam, stacked as st, tier2
from cassette.values import (
    Adt, Bool, Char, ContractViolation, Int, Iso, List, Pair, Text, Unit,
    adt_prism, const_prism,
)


def chars(s):
    return List(tuple(Char(c) for c in s))


# ---------------------------------------------------------------------------
# Linear variant


def test_push_then_pop_returns_the_value():
    action = st.lin_push(Int(9)).right(st.lin_pop())
    text, result, stack = st.run_linear_print(action, [])
    assert (text, result) == ("", Int(9))
    assert stack.is_empty()


def test_pop_underscore_drops_the_top():
    action = st.lin_pop_()
    text, result, stack = st.run_linear_print(action, [Char("x"), Int(1)])
    assert result == Unit()
    assert stack.values() == (Int(1),)


def test_curry_stack_pairs_the_two_top_values():
    action = st.lin_curry_stack().right(st.lin_pop())
    text, result, stack = st.run_linear_print(action, [Int(1), Char("a")])
    assert result == Pair(Int(1), Char("a"))
    assert stack.is_empty()


def test_emit_appends_in_textual_order():
    action = st.lin_emit("ab").right(st.lin_emit("c"))
    text, result, stack = st.run_linear_print(action, [])
    assert text == "abc"
    noop = st.lin_emit("")
    assert st.run_linear_print(noop, [])[0] == ""


def test_satisfy_prints_the_popped_char():
    text, result, _ = st.run_linear_print(st.lin_satisfy(str.isalpha), [Char("q")])
    assert text == "q" and result == Char("q")


def test_satisfy_parse_is_terminal_on_mismatch():
    assert st.lin_satisfy(str.isdigit).pa("5x", 0) == (Char("5"), 1)
    with pytest.raises(ContractViolation):
        st.lin_satisfy(str.isdigit).pa("x", 0)


def test_lit_needs_no_argument():
    text, result, stack = st.run_linear_print(st.lin_lit("hi"), [])
    assert text == "hi" and result == Unit() and stack.is_empty()
    assert st.lin_lit("hi").pa("hi there", 0) == (Unit(), 2)


def test_keep_left_of_a_literal_extends_text_but_not_the_result():
    m = st.lin_satisfy(str.isalpha)
    extended = m.left(st.lin_lit("!"))
    assert st.run_linear_print(m, [Char("q")])[:2] == ("q", Char("q"))
    assert st.run_linear_print(extended, [Char("q")])[:2] == ("q!", Char("q"))
    assert extended.pa("q!rest", 0) == (Char("q"), 2)


def test_digit_converts_on_both_sides():
    text, result, _ = st.run_linear_print(st.lin_digit(), [Int(5)])
    assert text == "5" and result == Int(5)
    assert st.lin_digit().pa("7", 0) == (Int(7), 1)


def test_digit_refuses_values_outside_0_to_9():
    for n in (10, 12, -1, -3):
        with pytest.raises(ContractViolation, match="digit wants 0 to 9"):
            st.run_linear_print(st.lin_digit(), [Int(n)])
        with pytest.raises(ContractViolation, match="digit wants 0 to 9"):
            st.sprintf(st.nth_char_format(), [Int(n), Char("a"), Char("f")])


def test_satisfy_print_refuses_a_char_its_predicate_rejects():
    with pytest.raises(ContractViolation, match="does not satisfy"):
        st.run_linear_print(st.lin_satisfy(str.isalpha, "letter"), [Char("1")])
    letter = st.alt_satisfy(str.isalpha, "letter")
    assert st.run_choice_print(letter, [Char("1")]) is None
    # the rejected char is restored for the next alternative
    got = st.run_choice_print(letter | st.alt_satisfy(str.isdigit), [Char("1")])
    assert got is not None and got[0] == "1" and got[2].is_empty()


def test_linear_format_prints_the_reference_line():
    got = st.sprintf(st.nth_char_format(), [Int(5), Char("a"), Char("f")])
    assert got == "5-th character after a is f"


def test_linear_format_scans_the_reference_line():
    got = st.sscanf(st.nth_char_format(), "5-th character after a is f")
    assert got == List((Int(5), Char("a"), Char("f")))


def test_linear_format_scan_mismatch_is_terminal():
    with pytest.raises(ContractViolation):
        st.sscanf(st.nth_char_format(), "nope")


def test_linear_has_no_choice():
    with pytest.raises(TypeError):
        st.lin_char() | st.lin_char()


def test_sprintf_flags_leftover_arguments():
    with pytest.raises(ContractViolation):
        st.sprintf(st.lin_char(), [Char("a"), Char("b")])
    with pytest.raises(ContractViolation):
        st.sprintf(st.lin_char(), [])


# Indexed-monad laws, observationally


def lin_probe(action, seeds, texts):
    out = []
    for seed in seeds:
        try:
            text, result, stack = st.run_linear_print(action, seed)
            out.append(("ok", text, result, stack.entries()))
        except ContractViolation as e:
            out.append(("violation", str(e)))
    for t in texts:
        try:
            out.append(("ok",) + action.pa(t, 0))
        except ContractViolation as e:
            out.append(("violation", str(e)))
    return out


def lin_atoms(rng):
    return rng.choice([
        lambda: st.Linear.ret(Int(rng.randrange(5))),
        lambda: st.lin_emit(rng.choice(["", "x", "yz"])),
        lambda: st.lin_push(Char(rng.choice("pq"))),
        lambda: st.lin_pop_(),
        lambda: st.lin_satisfy(str.islower, "lower"),
        lambda: st.lin_lit(rng.choice(["a", "ab"])),
    ])()


def lin_konts(rng):
    return rng.choice([
        lambda a: st.Linear.ret(a),
        lambda a: st.lin_emit("k").right(st.Linear.ret(a)),
        lambda a: st.lin_satisfy(str.islower, "lower"),
        lambda a: st.lin_push(Char("z")).right(st.Linear.ret(a)),
    ])


def seeds_and_texts(rng):
    pool = [Char("a"), Char("b"), Int(2), Unit()]
    seeds = [[rng.choice(pool) for _ in range(rng.randrange(4))] for _ in range(6)]
    texts = ["", "a", "ab", "abc", "5a", "zzz"][:6]
    return seeds, texts


def test_linear_monad_laws():
    rng = random.Random(41)
    for _ in range(60):
        m = lin_atoms(rng)
        f, g = lin_konts(rng), lin_konts(rng)
        x = Char(rng.choice("ab"))
        seeds, texts = seeds_and_texts(rng)
        assert lin_probe(st.Linear.ret(x).bind(f), seeds, texts) == \
            lin_probe(f(x), seeds, texts)
        assert lin_probe(m.bind(st.Linear.ret), seeds, texts) == \
            lin_probe(m, seeds, texts)
        assert lin_probe(m.bind(f).bind(g), seeds, texts) == \
            lin_probe(m.bind(lambda a: f(a).bind(g)), seeds, texts)


def test_output_pair_law():
    # a balanced print action always produces the same (text, result),
    # whatever sits below it on the stack
    rng = random.Random(43)
    balanced = [
        st.lin_emit("hello").right(st.Linear.ret(Int(1))),
        st.lin_push(Char("c")).right(st.lin_satisfy(lambda c: True)),
        st.lin_lit("ab"),
        st.nth_char_format(),  # balanced once its three arguments are present
    ]
    args = [[], [], [], [Int(5), Char("a"), Char("f")]]
    junk_pool = [Int(7), Char("j"), Text("junk")]
    for action, need in zip(balanced, args):
        base_text, base_result, _ = st.run_linear_print(action, need)
        for _ in range(10):
            junk = [rng.choice(junk_pool) for _ in range(rng.randrange(1, 4))]
            text, result, stack = st.run_linear_print(action, need + junk)
            assert (text, result) == (base_text, base_result)
            assert stack.values() == tuple(junk)


def test_the_flat_demo_format_equals_its_applicative_spelling():
    # the demo format is one sequence run; the reference spells it with
    # ap and left, as the paper sequences its printers
    triple = lambda a: lambda b: lambda c: List((a, b, c))
    reference = (st.Linear.ret(triple)
                 .ap(st.lin_digit()).left(st.lin_lit("-th character after "))
                 .ap(st.lin_char()).left(st.lin_lit(" is "))
                 .ap(st.lin_char()))
    args = [Int(5), Char("a"), Char("f")]
    seeds = [args, [Int(12)] + args[1:], [Int(5), Int(1), Char("f")],
             args[:2], [], [Text("5")] + args[1:], args + [Int(7), Text("junk")]]
    line = "5-th character after a is f"
    texts = [line, "nope", line[:-5], ""]
    got = lin_probe(st.nth_char_format(), seeds, texts)
    assert got == lin_probe(reference, seeds, texts)
    assert {outcome[0] for outcome in got} == {"ok", "violation"}


def test_parse_side_ignores_stack_operations():
    rng = random.Random(47)
    base = st.lin_satisfy(str.isalpha).bind(
        lambda a: st.lin_satisfy(str.isalpha).map(lambda b: Pair(a, b)))
    noise = [
        lambda: st.lin_push(Char("n")),
        lambda: st.lin_pop_(),
        lambda: st.lin_stack_map(lambda k: k),
    ]
    for _ in range(40):
        action = st.lin_satisfy(str.isalpha)
        for _ in range(rng.randrange(4)):
            action = rng.choice(noise)().right(action)
        action = action.bind(
            lambda a: st.lin_satisfy(str.isalpha).map(lambda b: Pair(a, b)))
        for text in ("ab", "xy tail"):
            assert action.pa(text, 0) == base.pa(text, 0)


# ---------------------------------------------------------------------------
# Choice variant


def test_fail_is_the_unit_of_choice():
    m = st.alt_satisfy(str.isdigit)
    for text in ("5", "x"):
        assert (st.Choice.fail() | m).pa(text, 0) == m.pa(text, 0)
        assert (m | st.Choice.fail()).pa(text, 0) == m.pa(text, 0)


def test_choice_parse_is_left_biased():
    d = st.alt_lit("ab") | st.alt_lit("a")
    assert d.pa("ab", 0) == (Unit(), 2)
    assert d.pa("ax", 0) == (Unit(), 1)


def test_pop_restores_the_value_when_an_alternative_fails():
    # first branch pops the subject and then fails; the restoring
    # continuation must push it back for the second branch to consume
    first = st.alt_pop().right(st.Choice.fail())
    second = st.alt_satisfy(lambda c: True)
    got = st.run_choice_print(first | second, [Char("z")])
    assert got is not None
    text, result, stack = got
    assert text == "z" and result == Char("z") and stack.is_empty()


def test_push_is_undone_when_an_alternative_fails():
    first = st.alt_push(Char("w")).right(st.Choice.fail())
    second = st.alt_satisfy(lambda c: True)
    got = st.run_choice_print(first | second, [Char("v")])
    assert got is not None
    text, _, stack = got
    assert text == "v" and stack.is_empty()


def test_emitted_text_is_discarded_when_an_alternative_fails():
    first = st.alt_emit("junk").right(st.Choice.fail())
    second = st.alt_emit("good")
    got = st.run_choice_print(first | second, [])
    assert got is not None and got[0] == "good"


def test_cons_lead_fails_over_and_unrolls_on_the_empty_list():
    handle_empty = st.alt_pop_().right(st.Choice.ret(Unit()))
    d = st.alt_cons_lead() | handle_empty
    got = st.run_choice_print(d, [List(())])
    assert got is not None
    _, result, stack = got
    assert result == Unit() and stack.is_empty()


def test_prism_lead_parse_returns_the_curried_constructor():
    d = st.alt_prism_lead(adt_prism("Var", 1)).ap(
        st.alt_satisfy(str.isalpha).map(lambda c: Text(c.c)))
    assert st.parse(d, "x") == Adt("Var", (Text("x"),))


def test_prism_lead_print_deconstructs_or_fails_over():
    var_lead = st.alt_prism_lead(adt_prism("Var", 1))
    d = var_lead.ap(st.alt_satisfy(lambda c: True).map(lambda c: Text(c.c)))
    text_of = st.alt_stack_guard(
        lambda fl, k: st.consume(lambda v: st.supply(k, Char(v.s))),
        lambda fl: st.consume(lambda w: st.supply(fl, Text(w.c))),
    ).right(st.Choice.ret(lambda v: Text(v.c)))
    d = var_lead.ap(text_of.ap(st.alt_satisfy(lambda c: True)))
    assert st.pretty(d, Adt("Var", (Text("x"),))) == "x"
    assert st.pretty(d, Adt("App", (Text("x"), Text("y")))) is None


def test_bool_grammar_with_choice_actions():
    true_p = st.alt_prism_lead(const_prism("True", Bool(True))).left(st.alt_lit("T"))
    false_p = st.alt_prism_lead(const_prism("False", Bool(False))).left(st.alt_lit("F"))

    def finish(p):
        # the constant prism exposes one Unit component
        return p.ap(st.Choice.ret(Unit()).right(st.alt_pop_()).right(st.Choice.ret(Unit())))

    # keep it simpler: the Unit component is consumed by ap-ing a popper
    unit_arg = st.alt_pop_().right(st.Choice.ret(Unit()))
    bool_d = (true_p.ap(unit_arg)) | (false_p.ap(unit_arg))
    assert st.pretty(bool_d, Bool(True)) == "T"
    assert st.pretty(bool_d, Bool(False)) == "F"
    assert st.parse(bool_d, "T") == Bool(True)
    assert st.parse(bool_d, "F") == Bool(False)
    assert st.parse(bool_d, "Q") is None


def test_many_collects_greedily():
    letter = st.alt_satisfy(str.isalpha, "letter")
    got = st.parse(st.alt_some(letter), "ab1")
    assert got == chars("ab")
    assert st.parse(st.alt_some(letter), "1") is None
    assert st.parse(st.alt_many(letter), "1") == List(())


def test_many_prints_lists():
    letter = st.alt_satisfy(str.isalpha, "letter")
    assert st.pretty(st.alt_many(letter), chars("abc")) == "abc"
    assert st.pretty(st.alt_many(letter), chars("")) == ""
    # the print side of satisfy checks its predicate
    assert st.pretty(st.alt_many(letter), chars("a1")) is None
    # the empty case matches only the empty list
    assert st.pretty(st.alt_many(letter), Text("abc")) is None


def test_an_iso_lifts_through_the_prism_lead_like_tier_2_iso_lift():
    digit = st.alt_satisfy(tier2.is_ascii_digit, "digit")
    number = st.alt_prism_lead(tier2.int_text_iso()).ap(st.alt_some(digit))
    number2 = tier2.iso_lift(tier2.int_text_iso()) + tier2.some(
        tier2.satisfy(tier2.is_ascii_digit, "digit"))
    for n in (0, 7, 45, 1234567890, -5):
        assert st.pretty(number, Int(n)) == tier2.pretty(number2, Int(n))
    for text in ("0", "45", "0042x", "", "x"):
        assert st.parse(number, text) == tier2.parse(number2, text)


def test_a_later_failure_hands_the_next_branch_the_value_rebuilt_by_from():
    iso = tier2.int_text_iso()
    rebuilt = []

    def from_(v):
        rebuilt.append(v)
        return iso.from_(v)

    binary = st.alt_satisfy(lambda c: c in "01", "binary digit")
    lead = st.alt_prism_lead(Iso("int", iso.to, from_))
    # "12" prints its "1", then fails on "2" and retries the other branch
    d = lead.ap(st.alt_some(binary)) | st.alt_pop()
    text, result, stack = st.run_choice_print(d, [Int(12)])
    assert (text, result) == ("", Int(12)) and stack.is_empty()
    assert rebuilt == [chars("12")]
    assert st.run_choice_print(d, [Int(10)])[:2] == ("10", Int(10))


def test_lit_parse_fails_recoverably():
    assert st.alt_lit("x").pa("y", 0) is None
    assert st.parse(st.alt_lit("x") | st.alt_lit("y"), "y") == Unit()


# Choice-variant law suites


def alt_probe(action, seeds, texts):
    out = []
    for seed in seeds:
        try:
            r = st.run_choice_print(action, seed)
            if r is None:
                out.append(("fail",))
            else:
                text, result, stack = r
                out.append(("ok", text, result, stack.entries()))
        except ContractViolation as e:
            out.append(("violation", str(e)))
    for t in texts:
        r = action.pa(t, 0)
        out.append(("fail",) if r is None else ("ok",) + r)
    return out


def alt_atoms(rng):
    return rng.choice([
        lambda: st.Choice.ret(Int(rng.randrange(5))),
        lambda: st.Choice.fail(),
        lambda: st.alt_emit(rng.choice(["", "x"])),
        lambda: st.alt_push(Char(rng.choice("pq"))),
        lambda: st.alt_pop_(),
        lambda: st.alt_satisfy(str.islower, "lower"),
        lambda: st.alt_lit(rng.choice(["a", "ab"])),
    ])()


def alt_konts(rng):
    return rng.choice([
        lambda a: st.Choice.ret(a),
        lambda a: st.alt_emit("k").right(st.Choice.ret(a)),
        lambda a: st.alt_satisfy(str.islower, "lower"),
        lambda a: st.Choice.fail(),
        lambda a: st.alt_push(Char("z")).right(st.Choice.ret(a)),
    ])


def test_choice_monad_laws():
    rng = random.Random(53)
    for _ in range(60):
        m = alt_atoms(rng)
        f, g = alt_konts(rng), alt_konts(rng)
        x = Char(rng.choice("ab"))
        seeds, texts = seeds_and_texts(rng)
        assert alt_probe(st.Choice.ret(x).bind(f), seeds, texts) == \
            alt_probe(f(x), seeds, texts)
        assert alt_probe(m.bind(st.Choice.ret), seeds, texts) == \
            alt_probe(m, seeds, texts)
        assert alt_probe(m.bind(f).bind(g), seeds, texts) == \
            alt_probe(m.bind(lambda a: f(a).bind(g)), seeds, texts)


def test_choice_monoid_laws():
    rng = random.Random(59)
    for _ in range(60):
        a, b, c = (alt_atoms(rng) for _ in range(3))
        seeds, texts = seeds_and_texts(rng)
        assert alt_probe((a | b) | c, seeds, texts) == \
            alt_probe(a | (b | c), seeds, texts)
        assert alt_probe(st.Choice.fail() | a, seeds, texts) == \
            alt_probe(a, seeds, texts)
        assert alt_probe(a | st.Choice.fail(), seeds, texts) == \
            alt_probe(a, seeds, texts)


# ---------------------------------------------------------------------------
# Staged combinators against the paper's derivations


def derived_map(m, g):
    return m.bind(lambda a: m.ret(g(a)))


def derived_ap(m, n):
    return m.bind(lambda g: n.bind(lambda a: m.ret(g(a))))


def derived_left(m, n):
    return derived_ap(derived_map(m, lambda a: lambda _u: a), n)


def derived_right(m, n):
    return derived_ap(derived_map(m, lambda _a: lambda b: b), n)


def derived_lit(push, satisfy, ret, text):
    """Push each char, then satisfy it: a literal needs no argument."""
    if not text:
        return ret(Unit())
    c, rest = text[0], text[1:]
    one = derived_right(push(Char(c)), satisfy(lambda x: x == c, f"lit {c!r}"))
    return one.bind(lambda _c: derived_lit(push, satisfy, ret, rest))


def derived_lin_lit(text):
    return derived_lit(st.lin_push, st.lin_satisfy, st.Linear.ret, text)


def derived_alt_lit(text):
    return derived_lit(st.alt_push, st.alt_satisfy, st.Choice.ret, text)


def pair_with(a):
    return lambda b: Pair(a, b)


def tag(a):
    return Pair(a, Unit())


def staged_and_derived(m, n):
    """(staged, derived) pairs of every sequencing combinator over m, n."""
    f = derived_map(m, pair_with)
    return [
        (m.map(tag), derived_map(m, tag)),
        (f.ap(n), derived_ap(f, n)),
        (f @ n, derived_ap(f, n)),
        (m.left(n), derived_left(m, n)),
        (m << n, derived_left(m, n)),
        (m.right(n), derived_right(m, n)),
        (m >> n, derived_right(m, n)),
    ]


def test_staged_linear_sequencing_equals_the_bind_derivation():
    rng = random.Random(61)
    for _ in range(60):
        m, n = lin_atoms(rng), lin_atoms(rng)
        seeds, texts = seeds_and_texts(rng)
        for staged, derived in staged_and_derived(m, n):
            assert lin_probe(staged, seeds, texts) == lin_probe(derived, seeds, texts)


def test_staged_choice_sequencing_equals_the_bind_derivation():
    rng = random.Random(67)
    for _ in range(60):
        m, n, o = alt_atoms(rng), alt_atoms(rng), alt_atoms(rng)
        seeds, texts = seeds_and_texts(rng)
        for staged, derived in staged_and_derived(m, n):
            # also followed by an action and as a first alternative, so
            # the failure answers the staged forms thread are exercised
            for wrap in (lambda a: a, lambda a: a.right(o), lambda a: a | o):
                assert alt_probe(wrap(staged), seeds, texts) == \
                    alt_probe(wrap(derived), seeds, texts)


LITERALS = ["", "a", "ab", "λ.", "-th "]
LIT_TEXTS = ["", "a", "ab", "abc", "ax", "xb", "λ", "λ.x", "-th c", "-t"]


def test_whole_literals_equal_push_then_satisfy_per_char():
    rng = random.Random(71)
    for text in LITERALS:
        for _ in range(10):
            seeds, _ = seeds_and_texts(rng)
            lin_next, alt_other = lin_atoms(rng), alt_atoms(rng)
            staged, derived = st.lin_lit(text), derived_lin_lit(text)
            for wrap in (lambda a: a, lambda a: a.right(lin_next)):
                assert lin_probe(wrap(staged), seeds, LIT_TEXTS) == \
                    lin_probe(wrap(derived), seeds, LIT_TEXTS)
            staged, derived = st.alt_lit(text), derived_alt_lit(text)
            for wrap in (lambda a: a, lambda a: a.right(alt_other),
                         lambda a: a | alt_other, lambda a: alt_other | a):
                assert alt_probe(wrap(staged), seeds, LIT_TEXTS) == \
                    alt_probe(wrap(derived), seeds, LIT_TEXTS)


def test_lin_lit_mismatch_names_the_first_differing_char():
    def outcome(action, s, i):
        try:
            return action.pa(s, i)
        except ContractViolation as e:
            return str(e)

    for text in LITERALS:
        for s in LIT_TEXTS:
            for i in range(len(s) + 2):
                assert outcome(st.lin_lit(text), s, i) == \
                    outcome(derived_lin_lit(text), s, i)
    assert outcome(st.lin_lit("-th "), "5-tx", 1) == \
        "lit 'h': unexpected 'x' at offset 3"


def test_choice_is_committed_on_the_parse_side_unlike_tier_2():
    a_or_ab = st.alt_lit("a") | st.alt_lit("ab")
    assert st.parse(a_or_ab.right(st.alt_lit("c")), "abc") is None
    t2 = (tier2.lit("a") | tier2.lit("ab")) + tier2.lit("c")
    assert tier2.run_parse(t2, "abc") is not None
    # the other order parses, and "ac" does either way
    ab_or_a = st.alt_lit("ab") | st.alt_lit("a")
    assert st.parse(ab_or_a.right(st.alt_lit("c")), "abc") == Unit()
    assert st.parse(a_or_ab.right(st.alt_lit("c")), "ac") == Unit()


# ---------------------------------------------------------------------------
# The runner: in place, under a raised recursion limit, one run at a time


def test_a_run_restores_the_recursion_limit_even_when_it_raises():
    seen = []

    def spy(c):
        seen.append(sys.getrecursionlimit())
        return True

    saved = sys.getrecursionlimit()
    before = saved + 7  # a limit no earlier run could have left behind
    sys.setrecursionlimit(before)
    try:
        assert st.parse(st.alt_satisfy(spy), "x") == Char("x")
        assert seen == [st._DEEP_LIMIT]
        assert sys.getrecursionlimit() == before
        with pytest.raises(ContractViolation):
            st.sscanf(st.nth_char_format(), "nope")
        assert sys.getrecursionlimit() == before
    finally:
        sys.setrecursionlimit(saved)


def test_a_run_nested_in_a_running_job_returns_in_place():
    inner = st.alt_lit("a")
    outer = st.alt_satisfy(lambda c: st.parse(inner, c) is not None)
    got = []
    caller = threading.Thread(target=lambda: got.append(st.parse(outer, "ab")),
                              daemon=True)
    caller.start()
    caller.join(timeout=10)
    assert not caller.is_alive()
    assert got == [Char("a")]


def test_an_exception_in_a_job_reaches_the_caller_with_its_type():
    class Boom(Exception):
        pass

    def explode(c):
        raise Boom(c)

    with pytest.raises(Boom, match="x"):
        st.parse(st.alt_satisfy(explode), "x")
    with pytest.raises(Boom):
        st.pretty(st.alt_satisfy(explode), Char("y"))
    # later runs are unaffected
    assert st.parse(st.alt_lit("x"), "x") == Unit()


def abs_chain(depth):
    term = lam.var("x")
    for _ in range(depth):
        term = lam.abs_("y", term)
    return term


def test_concurrent_runs_take_turns_and_restore_the_limit():
    # the recursion limit is global: runs that overlapped would see each
    # other's raise and restore and could leave the raised limit behind
    texts = ["λx.(x x)", "((ab c1) λc.c)", "(f λy.(y z9))"]
    terms = [lam.parse_term(t) for t in texts]
    seen, results, errors = [], [], []

    def spy(c):
        seen.append(sys.getrecursionlimit())
        return True

    probe = st.alt_satisfy(spy)

    def rounds():
        try:
            for _ in range(200):
                for text, term in zip(texts, terms):
                    results.append(lam.pretty_term(term, "stacked") == text)
                    parsed = lam.parse_term(text, "stacked")
                    results.append(lam.pretty_term(parsed, "cassette") == text)
                results.append(st.parse(probe, "q") == Char("q"))
        except BaseException as e:
            errors.append(e)

    before = sys.getrecursionlimit()
    threads = [threading.Thread(target=rounds) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(results) == 4 * 200 * 7 and all(results)
    assert len(seen) == 4 * 200 and set(seen) == {st._DEEP_LIMIT}
    assert sys.getrecursionlimit() == before


def test_a_deep_run_needs_no_large_thread_stack():
    # Python 3.11 calls Python functions without using C stack, so a deep
    # continuation chain fits a small thread stack.  A C-stack overflow
    # kills the child, which shows as a negative return code.
    src = pathlib.Path(st.__file__).resolve().parents[1]
    script = textwrap.dedent("""
        import threading
        from cassette import lam

        depth = 3000
        chain = lam.var("x")
        for _ in range(depth):
            chain = lam.abs_("y", chain)
        tree = lam.var("x")
        for _ in range(10):
            tree = lam.app(tree, tree)
        # an Abs chain, a long identifier (the cons and nil leads,
        # satisfy and the retry of their choice) and an App tree
        cases = [("\\u03bby." * depth + "x", chain),
                 ("a" * 10000, lam.var("a" * 10000)),
                 (lam.pretty_term(tree, "cassette"), tree)]
        ok = []

        def round_trip():
            for text, term in cases:
                printed = lam.pretty_term(term, "stacked")
                parsed = lam.parse_term(text, "stacked")
                ok.append(printed == text
                          and lam.pretty_term(parsed, "cassette") == text)

        threading.stack_size(256 * 1024)
        t = threading.Thread(target=round_trip)
        t.start()
        t.join()
        print(ok)
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[True, True, True]\n"


def test_frame_exhaustion_is_a_one_line_contract_violation(
        monkeypatch, tmp_path, capsysbinary):
    monkeypatch.setattr(st, "_DEEP_LIMIT", 2000)
    before = sys.getrecursionlimit()
    deep, text = abs_chain(1000), "λy." * 1000 + "x"
    too_deep = "^term nests too deeply for the stacked engine$"
    with pytest.raises(ContractViolation, match=too_deep):
        lam.pretty_term(deep, "stacked")
    with pytest.raises(ContractViolation, match=too_deep):
        lam.parse_term(text, "stacked")
    assert sys.getrecursionlimit() == before
    src = tmp_path / "deep.lam"
    src.write_text(text + "\n", encoding="utf-8")
    assert cli.main(["roundtrip", "--engine", "stacked", "--input", str(src)]) == 2
    out, err = capsysbinary.readouterr()
    assert out == b""
    assert err == b"contract violation: term nests too deeply for the stacked engine\n"
    # the same chain runs under the usual limit
    monkeypatch.undo()
    assert lam.pretty_term(deep, "stacked") == text


def test_failing_branches_emit_nothing(monkeypatch):
    # a prism lead runs the rest of its branch only once the value
    # matched, so each char is emitted once, by the branch that prints it
    emitted = []
    trace = st.TracedK.trace

    def spy(wk, chunk):
        emitted.append(chunk)
        return trace(wk, chunk)

    terms = {t: lam.parse_term(t, "stacked")
             for t in ("(f x)", "λx.(x x)", "((ab c1) λc.c)")}
    monkeypatch.setattr(st.TracedK, "trace", spy)
    for text, term in terms.items():
        emitted.clear()
        assert lam.pretty_term(term, "stacked") == text
        assert "".join(emitted) == text


@pytest.mark.parametrize("text", ["a" * 2000, "λy." * 500 + "x"],
                         ids=["identifier_2000", "abs_chain_500"])
def test_a_print_keeps_few_tracked_objects_live_per_char(monkeypatch, text):
    # what a print allocates stays live down the continuation chain until
    # the run returns, and every full collection rescans it; with the
    # collector paused, the count of tracked objects made since the
    # print started is that live set
    term = lam.parse_term(text, "cassette")
    assert lam.pretty_term(term, "stacked") == text  # grammar built
    counts = []
    trace = st.TracedK.trace

    def spy(wk, chunk):
        counts.append(gc.get_count()[0])
        return trace(wk, chunk)

    monkeypatch.setattr(st.TracedK, "trace", spy)
    gc.collect()
    gc.disable()
    try:
        start = gc.get_count()[0]
        assert lam.pretty_term(term, "stacked") == text
    finally:
        gc.enable()
    assert (counts[-1] - start) / len(text) <= 40


def _live_per_char(monkeypatch, text):
    """Tracked objects made since the print started, per char, at the
    last char emitted, with the collector paused: the print's live set."""
    term = lam.parse_term(text, "cassette")
    assert lam.pretty_term(term, "stacked") == text  # grammar built
    counts = []
    trace = st.TracedK.trace

    def spy(wk, chunk):
        counts.append(gc.get_count()[0])
        return trace(wk, chunk)

    monkeypatch.setattr(st.TracedK, "trace", spy)
    gc.collect()
    gc.disable()
    try:
        start = gc.get_count()[0]
        assert lam.pretty_term(term, "stacked") == text
    finally:
        gc.enable()
    return (counts[-1] - start) / len(text)


@pytest.mark.parametrize("text", ["a" * 2000, "λy." * 500 + "x"],
                         ids=["identifier_2000", "abs_chain_500"])
def test_a_print_keeps_at_most_20_tracked_objects_live_per_char(monkeypatch, text):
    # a value's key picks its branch, so no choice leaves a retry closure
    # behind, and past the last choice left to retry no leaf wraps the
    # failure answer: 17.0 and 14.0 here, where they were 23.0 and 20.7
    assert _live_per_char(monkeypatch, text) <= 20


def test_stacked_runs_leave_no_cyclic_garbage():
    # printing frees its continuation chain by reference counting alone:
    # nothing a run builds is left for the cyclic collector to find
    texts = ("x", "λab.(ab c1)", "((f x) λy.(y y))", "λx." * 40 + "z9")
    terms = [lam.parse_term(t, "cassette") for t in texts]
    fmt = st.nth_char_format()
    args = [Int(3), Char("a"), Char("b")]
    for text, term in zip(texts, terms):  # grammars built, caches filled
        assert lam.pretty_term(term, "stacked") == text
    st.sprintf(fmt, args)
    gc.collect()
    gc.disable()
    try:
        for text, term in zip(texts, terms):
            assert lam.pretty_term(term, "stacked") == text
            assert lam.parse_term(text, "stacked") == term
        assert st.sprintf(fmt, args) == "3-th character after a is b"
        assert gc.collect() == 0
    finally:
        gc.enable()
