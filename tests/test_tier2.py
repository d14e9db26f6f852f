import gc
import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest

from cassette import lam, stacked, tier2
from cassette.values import (
    Adt, Bool, Char, ContractViolation, Int, List, Pair, Text, Unit,
    adt_prism, const_prism,
)

import cfg_oracle as cfg
import lam_corpus


def outcome_parse(d, text, seed=()):
    try:
        r = tier2.run_parse(d, text, seed)
    except ContractViolation:
        return ("violation",)
    if r is None:
        return ("fail",)
    pos, stack = r
    return ("ok", pos, stack.entries())


def outcome_print(d, seed):
    try:
        r = tier2.run_print(d, seed)
    except ContractViolation:
        return ("violation",)
    if r is None:
        return ("fail",)
    text, stack = r
    return ("ok", text, stack.entries())


def chars(s):
    return List(tuple(Char(c) for c in s))


# ---------------------------------------------------------------------------
# Primitives


def test_compose_runs_left_to_right_and_fails_recoverably():
    d = tier2.lit("a") + tier2.lit("b")
    assert tier2.run_parse(d, "ab") is not None
    assert tier2.run_parse(d, "ax") is None


def test_choice_takes_the_first_matching_branch():
    d = tier2.lit("T") | tier2.lit("F")
    assert tier2.run_parse(d, "F") is not None
    assert tier2.run_parse(d, "Q") is None


def test_fail_is_a_unit_for_choice():
    d = tier2.satisfy(str.isdigit, "digit")
    for text in ("5", "x", ""):
        assert outcome_parse(tier2.fail() | d, text) == outcome_parse(d, text)
        assert outcome_parse(d | tier2.fail(), text) == outcome_parse(d, text)


def test_choice_is_one_flat_node_whose_empty_form_is_fail():
    a, b, c = tier2.lit("a"), tier2.lit("b"), tier2.lit("c")
    for d in ((a | b) | c, a | (b | c), tier2.fail() | a | b | c):
        assert type(d) is tier2._Alt and d.branches == (a, b, c)
    assert type(tier2.fail()) is tier2._Alt and tier2.fail().branches == ()
    assert tier2.run_parse(tier2.fail(), "a") is None
    assert [tier2.run_parse((a | b) | c, t)[0] for t in "abc"] == [1, 1, 1]


def test_optional_consumes_nothing_on_mismatch():
    d = tier2.optional(tier2.lit("hi"))
    pos, stack = tier2.run_parse(d, "xx")
    assert pos == 0 and stack.is_empty()
    pos, _ = tier2.run_parse(d, "hix")
    assert pos == 2


def test_satisfy_parse_failure_is_recoverable():
    assert tier2.run_parse(tier2.satisfy(str.isdigit, "digit"), "q") is None


def test_satisfy_print_checks_the_predicate():
    r = tier2.run_print(tier2.satisfy(str.isdigit, "digit"), [Char("7")])
    assert r is not None and r[0] == "7"
    assert tier2.run_print(tier2.satisfy(str.isdigit, "digit"), [Char("x")]) is None


def test_satisfy_print_type_errors_are_terminal():
    with pytest.raises(ContractViolation):
        tier2.run_print(tier2.char(), [Int(3)])
    with pytest.raises(ContractViolation):
        tier2.run_print(tier2.char(), [])


def test_backtracking_reparses_the_same_char():
    d = (tier2.char() + tier2.lit("!")) | tier2.char()
    pos, stack = tier2.run_parse(d, "a?")
    assert pos == 1
    assert stack.values() == (Char("a"),)


def test_choice_rewinds_even_after_the_branch_succeeded():
    # first branch consumes "ab", then the outer literal wants "!", which
    # only matches if the choice rewinds to the shorter branch
    d = (tier2.lit("ab") | tier2.lit("a")) + tier2.lit("b!")
    assert tier2.run_parse(d, "ab!") is not None


def test_empty_lit_behaves_like_identity():
    for text in ("", "q"):
        assert outcome_parse(tier2.lit(""), text) == outcome_parse(tier2.identity(), text)


def test_print_side_rewind_restores_text_and_stack():
    doomed = tier2.cons_lead() + tier2.char() + tier2.fail()
    d = doomed | tier2.identity()
    text, stack = tier2.run_print(d, [List((Char("a"), Char("b")))])
    # the first branch split the list and emitted "a" before failing;
    # both effects must be undone
    assert text == ""
    assert stack.values() == (List((Char("a"), Char("b"))),)


# ---------------------------------------------------------------------------
# Leads


def test_cons_lead_in_splits_a_list():
    r = tier2.run_print(tier2.cons_lead(), [List((Int(1), Int(2)))])
    assert r is not None
    _, stack = r
    assert stack.values() == (Int(1), List((Int(2),)))


def test_cons_lead_in_fails_on_the_empty_list():
    assert tier2.run_print(tier2.cons_lead(), [List(())]) is None


def test_nil_lead_out_pushes_an_empty_list_immediately():
    pos, stack = tier2.run_parse(tier2.nil_lead(), "anything")
    assert pos == 0
    assert stack.values() == (List(()),)


def test_lead_out_never_fails_and_collects_components():
    d = tier2.prism_lead(adt_prism("Var", 1)) + tier2.char()
    pos, stack = tier2.run_parse(d, "x")
    assert stack.values() == (Adt("Var", (Char("x"),)),)


def test_leftover_pending_frames_are_misuse():
    d = tier2.prism_lead(adt_prism("Var", 1)) + tier2.char()
    with pytest.raises(ContractViolation):
        tier2.parse(d + tier2.pair_lead() + d, "xy")  # pair never completed
    pos, stack = tier2.run_parse(tier2.cons_lead(), "")
    with pytest.raises(ContractViolation):
        stack.values()
    with pytest.raises(ContractViolation):
        stack.pop()  # a pending frame cannot be popped as a value


def test_bool_grammar_from_constant_prisms():
    true_p = tier2.prism_lead(const_prism("True", Bool(True))) + tier2.lit_unit("T")
    false_p = tier2.prism_lead(const_prism("False", Bool(False))) + tier2.lit_unit("F")
    bool_d = true_p | false_p
    assert tier2.pretty(bool_d, Bool(True)) == "T"
    assert tier2.pretty(bool_d, Bool(False)) == "F"
    assert tier2.parse(bool_d, "F") == Bool(False)
    assert tier2.parse(bool_d, "T") == Bool(True)
    assert tier2.parse(bool_d, "Q") is None


def test_pair_lead_round_trips():
    d = tier2.pair_lead() + tier2.digit() + tier2.char()
    assert tier2.pretty(d, Pair(Int(3), Char("z"))) == "3z"
    assert tier2.parse(d, "3z") == Pair(Int(3), Char("z"))


def test_lead_misuse_raises_through_choice_instead_of_failing_over():
    # each left branch would refuse the value; the right one would print it
    pair_or_char = (tier2.pair_lead() + tier2.char() + tier2.char()) | tier2.char()
    with pytest.raises(ContractViolation, match="pair lead wants a Pair"):
        tier2.pretty(pair_or_char, Char("x"))
    for other in (tier2.integer(), tier2.char()):
        with pytest.raises(ContractViolation, match="digit wants 0 to 9"):
            tier2.pretty(tier2.digit() | other, Int(12))
    with pytest.raises(ContractViolation, match="lit_unit wants a Unit"):
        tier2.pretty(tier2.lit_unit("T") | tier2.char(), Char("x"))


# ---------------------------------------------------------------------------
# Repetition


def digit_char():
    return tier2.satisfy(lambda c: "0" <= c <= "9", "digit")


def test_many_is_maximal_munch():
    d = tier2.many(digit_char())
    for text in ("123a rest", "", "9", "007", "a1"):
        expected = "".join(itertools.takewhile(str.isdigit, text))
        pos, stack = tier2.run_parse(d, text)
        assert pos == len(expected)
        assert stack.values() == (chars(expected),)


def test_many_backtracks_from_maximal_munch():
    d = tier2.many(tier2.char()) + tier2.lit("!")
    pos, stack = tier2.run_parse(d, "ab!")
    assert stack.values() == (chars("ab"),)
    # brute force over split points agrees: only "ab" + "!" works
    splits = [k for k in range(4) if "ab!"[k:].startswith("!")]
    assert splits == [2]


def test_some_needs_at_least_one():
    d = tier2.some(digit_char())
    assert tier2.run_parse(d, "") is None
    assert tier2.run_parse(d, "x") is None
    pos, stack = tier2.run_parse(d, "5")
    assert stack.values() == (chars("5"),)


def test_integer_parse_matches_the_digit_fold():
    for text in ("123", "7", "000", "90x"):
        digits = "".join(itertools.takewhile(str.isdigit, text))
        folded = 0
        for c in digits:
            folded = folded * 10 + (ord(c) - ord("0"))
        assert tier2.parse(tier2.integer(), text) == Int(folded)


def test_integer_prints_decimal_and_rejects_negatives():
    assert tier2.pretty(tier2.integer(), Int(45)) == "45"
    assert tier2.pretty(tier2.integer(), Int(0)) == "0"
    assert tier2.pretty(tier2.integer(), Int(-5)) is None
    assert tier2.parse(tier2.integer(), "x") is None


# ---------------------------------------------------------------------------
# Laws, observationally


ATOMS = [
    lambda: tier2.lit("a"),
    lambda: tier2.lit("ab"),
    lambda: tier2.lit(""),
    lambda: tier2.satisfy(str.islower, "lower"),
    lambda: digit_char(),
    lambda: tier2.char(),
    lambda: tier2.digit(),
    lambda: tier2.fail(),
]


def random_descriptor(rng, depth=2):
    if depth == 0:
        return rng.choice(ATOMS)()
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice(ATOMS)()
    if kind == 1:
        return tier2.compose(random_descriptor(rng, depth - 1),
                             random_descriptor(rng, depth - 1))
    return tier2.choice(random_descriptor(rng, depth - 1),
                        random_descriptor(rng, depth - 1))


def random_seed_values(rng):
    pool = [Char("a"), Char("5"), Char("!"), Int(3), Int(7),
            List((Char("a"),)), Unit()]
    return [rng.choice(pool) for _ in range(rng.randrange(4))]


def probe_texts(rng, n=20):
    alphabet = "ab5! "
    return ["".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))
            for _ in range(n)]


def assert_observationally_equal(rng, d1, d2):
    for text in probe_texts(rng):
        assert outcome_parse(d1, text) == outcome_parse(d2, text)
    for _ in range(20):
        seed = random_seed_values(rng)
        assert outcome_print(d1, seed) == outcome_print(d2, seed)


def test_category_laws():
    rng = random.Random(17)
    for _ in range(100):
        a, b, c = (random_descriptor(rng) for _ in range(3))
        assert_observationally_equal(
            rng,
            tier2.compose(tier2.compose(a, b), c),
            tier2.compose(a, tier2.compose(b, c)))
        assert_observationally_equal(rng, tier2.compose(tier2.identity(), a), a)
        assert_observationally_equal(rng, tier2.compose(a, tier2.identity()), a)


def test_choice_monoid_laws():
    rng = random.Random(19)
    for _ in range(100):
        a, b, c = (random_descriptor(rng) for _ in range(3))
        assert_observationally_equal(
            rng,
            tier2.choice(tier2.choice(a, b), c),
            tier2.choice(a, tier2.choice(b, c)))
        assert_observationally_equal(rng, tier2.choice(tier2.fail(), a), a)
        assert_observationally_equal(rng, tier2.choice(a, tier2.fail()), a)


def test_frame_rule():
    rng = random.Random(23)
    junk_pool = [Int(9), Char("j"), Text("junk"), List((Int(1), Int(2))),
                 Pair(Int(1), Char("k")), Adt("Var", (Text("v"),))]
    for _ in range(100):
        d = random_descriptor(rng)
        junk = [rng.choice(junk_pool) for _ in range(rng.randrange(1, 4))]
        for text in probe_texts(rng, 5):
            bare = outcome_parse(d, text)
            framed = outcome_parse(d, text, seed=junk)
            if bare[0] != "ok":
                assert framed[0] == bare[0]
            else:
                _, pos, entries = bare
                _, fpos, fentries = framed
                assert fpos == pos
                assert list(fentries[len(fentries) - len(junk):]) == \
                    [e for e in tier2.run_parse(tier2.identity(), "", junk)[1].entries()]
                assert fentries[:len(fentries) - len(junk)] == entries


def test_frame_rule_for_printing():
    rng = random.Random(29)
    # unary printable descriptors and values in their domain
    cases = [
        (tier2.char(), lambda: Char(rng.choice("abc"))),
        (tier2.digit(), lambda: Int(rng.randrange(10))),
        (tier2.integer(), lambda: Int(rng.randrange(1000))),
        (tier2.many(digit_char()),
         lambda: chars("".join(rng.choice("0123456789") for _ in range(rng.randrange(4))))),
    ]
    junk_pool = [Int(9), Char("j"), Text("junk")]
    for _ in range(100):
        d, gen = rng.choice(cases)
        v = gen()
        junk = [rng.choice(junk_pool) for _ in range(rng.randrange(1, 4))]
        bare = tier2.run_print(d, [v])
        framed = tier2.run_print(d, [v] + junk)
        assert bare is not None and framed is not None
        assert framed[0] == bare[0]
        assert list(framed[1].values()) == junk
        assert bare[1].is_empty()


# ---------------------------------------------------------------------------
# Backtracking completeness against the derivation oracle


def grammar_family():
    # each entry: (descriptor, oracle grammar, alphabet)
    is_a = lambda c: c == "a"
    g1 = (tier2.many(tier2.satisfy(is_a, "a")) + tier2.lit("b"),
          cfg.Cat(cfg.Ref(lambda: many_a), cfg.Lit("b")),
          "ab")
    many_a = cfg.Or(cfg.Cat(cfg.Sat(is_a), cfg.Ref(lambda: many_a)), cfg.Lit(""))

    balanced = tier2.defer(
        lambda: (tier2.lit("(") + balanced + tier2.lit(")") + balanced) | tier2.identity())
    o_bal = cfg.Ref(lambda: cfg.Or(
        cfg.Cat(cfg.Lit("("), o_bal, cfg.Lit(")"), o_bal), cfg.Lit("")))
    g2 = (balanced + tier2.lit("."), cfg.Cat(o_bal, cfg.Lit(".")), "().")

    g3 = ((tier2.lit("ab") | tier2.lit("a")) + (tier2.lit("ba") | tier2.lit("a")),
          cfg.Cat(cfg.Or(cfg.Lit("ab"), cfg.Lit("a")),
                  cfg.Or(cfg.Lit("ba"), cfg.Lit("a"))),
          "ab")

    rep = tier2.defer(lambda: ((tier2.lit("ab") | tier2.lit("aab")) + rep) | tier2.lit("c"))
    o_rep = cfg.Ref(lambda: cfg.Or(
        cfg.Cat(cfg.Or(cfg.Lit("ab"), cfg.Lit("aab")), o_rep), cfg.Lit("c")))
    g4 = (rep, o_rep, "abc")
    return [g1, g2, g3, g4]


def test_parse_success_matches_the_derivation_enumerator():
    rng = random.Random(31)
    for d, oracle, alphabet in grammar_family():
        inputs = [""]
        for n in range(1, 8):
            inputs.extend("".join(p) for p in itertools.product(alphabet, repeat=n))
        inputs.extend("".join(rng.choice(alphabet) for _ in range(rng.randrange(9, 13)))
                      for _ in range(400))
        for text in inputs:
            engine_says = tier2.run_parse(d, text) is not None
            oracle_says = cfg.derives_prefix(oracle, text)
            assert engine_says == oracle_says, (text, engine_says, oracle_says)


# ---------------------------------------------------------------------------
# The choice guard: each choice tries, at the next char, only the
# branches that can succeed there


def reachable(d):
    """Every node of the grammar under d."""
    seen, todo = {}, [d]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo.extend(getattr(node, "items", ()) or getattr(node, "branches", ()))
            if type(node) is tier2._Defer:
                todo.append(node.force())
    return list(seen.values())


def unguarded(d):
    """d analysed, with every choice made to try all its branches again."""
    tier2._analyse(d)
    for node in reachable(d):
        if type(node) is tier2._Alt:
            node.table, node.other = {}, node.entry
    return d


def tried(alt, c):
    """The branches of `alt` that a parse tries at char c ("" at the end
    of input), in order."""
    tier2._analyse(alt)
    entry = alt.table.get(c, alt.other)
    return () if entry is None else (entry[0],) + entry[1][::-1]


def test_shipped_char_sets_hold_exactly_what_their_predicates_accept():
    every = [chr(c) for c in range(sys.maxunicode + 1)]
    declared = {(node.pred, node.info[0])
                for d in (tier2.digit(), tier2.integer(), lam.term_cassette())
                for node in reachable(d)
                if type(node) is tier2._Satisfy and node.info[0] is not None}
    assert len(declared) == 3  # digit, letter, alphanumeric
    for pred, chars in declared:
        assert set(filter(pred, every)) == chars
    assert tier2.char().info[0] is None


GUARD_EDGES = {
    "nullable branch": lambda: tier2.lit("a") | tier2.identity(),
    "undeclared satisfy": lambda: (tier2.satisfy(str.isalpha, "alpha")
                                   | tier2.lit("1")),
    "end of input": lambda: tier2.many(tier2.lit_unit("a")) + tier2.lit("b"),
    "fail": lambda: (tier2.fail() | tier2.lit("a") + tier2.fail()
                     | tier2.lit("ab")),
    "prism lead": lambda: (
        tier2.prism_lead(adt_prism("A", 1))
        + tier2.satisfy("ab".__contains__, "ab", "ab")
        | tier2.prism_lead(adt_prism("B", 1)) + tier2.lit_unit("c")
        | tier2.nil_lead()),
    "empty lit": lambda: (tier2.lit("") + tier2.lit("b") | tier2.lit("a")
                          | tier2.lit("")),
    "optional first": lambda: (tier2.optional(tier2.lit("a")) + tier2.lit("b")
                               | tier2.lit("a") + tier2.lit("c")),
}


@pytest.mark.parametrize("name", GUARD_EDGES)
def test_the_guard_changes_no_parse(name):
    make = GUARD_EDGES[name]
    d, everything = make(), unguarded(make())
    for n in range(5):
        for text in map("".join, itertools.product("abc1", repeat=n)):
            assert outcome_parse(d, text) == outcome_parse(everything, text), text


def test_the_guard_skips_only_branches_that_must_consume_another_char():
    a, b, empty = tier2.lit("a"), tier2.lit("b"), tier2.identity()
    assert tried(a | empty, "a") == (a, empty)
    assert tried(a | empty, "b") == tried(a | empty, "") == (empty,)
    alpha = tier2.satisfy(str.isalpha, "alpha")  # no chars: never skipped
    assert tried(alpha | a, "a") == (alpha, a)
    assert tried(alpha | a, "1") == tried(alpha | a, "") == (alpha,)
    assert tried(a | b, "b") == (b,) and tried(a | b, "") == ()
    assert tried(tier2.fail(), "a") == ()
    lead = tier2.prism_lead(adt_prism("A", 1))
    led, bare = lead + tier2.satisfy("xy".__contains__, "xy", "xy"), lead
    assert tried(led | a, "y") == (led,) and tried(led | a, "a") == (a,)
    assert tried(bare | a, "z") == (bare,)  # a lead alone consumes nothing
    blank = tier2.lit("") + b
    assert tried(blank | a, "b") == (blank,) and tried(blank | a, "a") == (a,)
    maybe = tier2.optional(a) + b
    assert tried(maybe | a, "a") == (maybe, a) and tried(maybe | a, "b") == (maybe,)


def test_the_lambda_corpus_parses_without_a_failing_consuming_step(monkeypatch):
    texts = [lam.pretty_term(t) for t in lam_corpus.generated_terms(500, seed=2024)]
    steps = {"all": 0, "failed": 0}

    def counted(step):
        def counted_step(node, text, pos, stack):
            moved = step(node, text, pos, stack)
            steps["all"] += 1
            steps["failed"] += moved is None
            return moved
        return counted_step
    consuming = (tier2._Satisfy, tier2._Lit)
    monkeypatch.setattr(tier2, "_PARSE_STEPS", {
        kind: counted(step) if kind in consuming else step
        for kind, step in tier2._PARSE_STEPS.items()})
    for text in texts:
        assert lam.parse_term(text, "cassette") is not None
    # trying every branch took 1.49 consuming steps per char, 0.49 failing
    assert steps["failed"] == 0
    assert steps["all"] <= sum(map(len, texts))


def test_the_lambda_corpus_prints_without_a_failing_leaf_step(monkeypatch):
    terms = lam_corpus.generated_terms(500, seed=2024)
    steps = {"all": 0, "failed": 0}

    def counted(step):
        def counted_step(node, text, out, stack):
            moved = step(node, text, out, stack)
            steps["all"] += 1
            steps["failed"] += moved is None
            return moved
        return counted_step
    monkeypatch.setattr(tier2, "_PRINT_STEPS", {
        kind: counted(step) for kind, step in tier2._PRINT_STEPS.items()})
    chars = sum(len(lam.pretty_term(t, "cassette")) for t in terms)
    # trying every branch took 2.80 leaf steps per char, 0.489 failing
    assert steps["failed"] == 0
    assert steps["all"] <= 2.4 * chars


def test_a_choice_of_a_satisfy_and_a_lead_prints_in_either_order():
    # the value's key picks the lead, so the satisfy never meets the Adt;
    # a branch's keys are found past its lits, and inside a defer
    letter = tier2.satisfy(str.isalpha, "letter")
    lead = tier2.prism_lead(adt_prism("T", 0))
    bang = tier2.lit("!")
    for d, q in ((letter | lead, "q"), (lead | letter, "q"),
                 (tier2.defer(lambda: letter + bang) | lead, "q!"),
                 ((letter | tier2.lit("?") + letter) + bang | lead, "q!")):
        compiled = stacked.from_descriptor(d)
        for engine_pretty, grammar in ((tier2.pretty, d), (stacked.pretty, compiled)):
            assert engine_pretty(grammar, Adt("T", ())) == ""
            assert engine_pretty(grammar, Char("q")) == q
            assert engine_pretty(grammar, Char("1")) is None
            # a key no branch declares tries every branch, which raises
            with pytest.raises(ContractViolation,
                               match=r"^letter wants a Char, got Adt\('U'\)$"):
                engine_pretty(grammar, Adt("U", ()))


LEFT_RECURSIVE = """
from cassette import stacked as st, tier2 as t2
from cassette.values import ContractViolation, adt_prism

steps = []
t2._PARSE_STEPS = {kind: lambda *args, step=step: steps.append(args) or step(*args)
                   for kind, step in t2._PARSE_STEPS.items()}
a = t2.defer(lambda: t2.prism_lead(adt_prism("A", 1)) + a + t2.lit("a")
             | t2.satisfy(str.isalpha, "letter"))
for d in (t2.many(t2.lit_unit("")), a):
    for parse in (t2.run_parse, lambda d, text: st.parse(st.from_descriptor(d), text)):
        try:
            print("parsed", parse(d, "c"))
        except ContractViolation as e:
            print(e, len(steps))
"""


def test_left_recursion_is_refused_before_any_step_on_both_engines():
    # in a child bounded in memory and time: a machine that does not
    # refuse left recursion grows its choice stack without end
    src = pathlib.Path(tier2.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))

    def bounded():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    proc = subprocess.run([sys.executable, "-c", LEFT_RECURSIVE], env=env,
                          preexec_fn=bounded, capture_output=True, text=True,
                          timeout=60)
    refusal = "left recursion: a defer reaches itself without consuming input 0"
    assert proc.stdout.splitlines() == [refusal] * 4, proc.stderr


def test_left_recursive_grammars_still_print():
    a = tier2.defer(lambda: tier2.prism_lead(adt_prism("A", 1)) + a + tier2.lit("a")
                    | tier2.satisfy(str.isalpha, "letter"))
    v = Adt("A", (Adt("A", (Char("c"),)),))
    assert tier2.pretty(a, v) == stacked.pretty(stacked.from_descriptor(a), v) == "caa"
    units = tier2.many(tier2.lit_unit(""))
    assert tier2.pretty(units, List((Unit(),) * 3)) == ""
    assert stacked.pretty(stacked.from_descriptor(units), List((Unit(),) * 3)) == ""


# ---------------------------------------------------------------------------
# Scale


def test_long_digit_run_parses_fast_and_flat():
    import time
    text = "1234567890" * 1000
    d = tier2.many(digit_char())
    start = time.perf_counter()
    pos, stack = tier2.run_parse(d, text)
    elapsed = time.perf_counter() - start
    assert pos == 10000
    assert len(stack.values()[0].items) == 10000
    assert elapsed < 1.0


def test_tier2_runs_leave_no_cyclic_garbage():
    # choice points hold stacks and output chains; a run frees them by
    # reference counting alone, a rejected one included
    texts = ("x", "λab.(ab c1)", "((f x) λy.(y y))", "λx." * 40 + "z9")
    terms = [lam.parse_term(t, "cassette") for t in texts]
    for text, term in zip(texts, terms):  # grammar forced
        assert lam.pretty_term(term, "cassette") == text
    gc.collect()
    gc.disable()
    try:
        for text, term in zip(texts, terms):
            assert lam.pretty_term(term, "cassette") == text
            assert lam.parse_term(text, "cassette") == term
        assert lam.parse_term("(f x", "cassette") is None
        assert lam.pretty_term(lam.var("1x"), "cassette") is None
        assert gc.collect() == 0
    finally:
        gc.enable()
