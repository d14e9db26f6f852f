import gc
import random
import string

import pytest

from cassette import tier1
from cassette.values import Char, ContractViolation, Int, Pair, pair_iso


# Family of shipped descriptors, each with a generator of valid arguments.
def _digit_char(rng):
    return Char(rng.choice(string.digits))


def _any_char(rng):
    return Char(rng.choice(string.ascii_lowercase + string.digits))


FAMILY = [
    (lambda: tier1.lit("ab"), lambda rng: []),
    (lambda: tier1.lit(""), lambda rng: []),
    (lambda: tier1.satisfy(str.islower, "lower"), lambda rng: [Char(rng.choice("xyz"))]),
    (lambda: tier1.satisfy(lambda c: c == "!", "bang"), lambda rng: [Char("!")]),
    (lambda: tier1.char(), lambda rng: [_any_char(rng)]),
    (lambda: tier1.digit(), lambda rng: [Int(rng.randrange(10))]),
]


def outcome_print(d, args):
    try:
        return ("ok", tier1.sprintf(d, args))
    except ContractViolation:
        return ("violation",)


def outcome_parse(d, text):
    try:
        return ("ok", tier1.sscanf(d, text))
    except ContractViolation:
        return ("violation",)


def test_satisfy_parse_consumes_one_matching_char():
    d = tier1.satisfy(str.isdigit, "digit")
    assert tier1.sscanf(d, "5x") == (Char("5"),)


def test_satisfy_print_pops_and_emits():
    assert tier1.sprintf(tier1.char(), [Char("a")]) == "a"


def test_satisfy_violations_are_terminal():
    d = tier1.satisfy(str.isdigit, "digit")
    with pytest.raises(ContractViolation):
        tier1.sscanf(d, "x")
    with pytest.raises(ContractViolation):
        tier1.sscanf(d, "")
    with pytest.raises(ContractViolation):
        tier1.sprintf(tier1.char(), [Int(3)])


def test_lit_consumes_exactly_its_text():
    d = tier1.lit("ab")
    assert tier1.sscanf(d, "abc") == ()
    assert tier1.sprintf(tier1.lit("-th "), []) == "-th "
    with pytest.raises(ContractViolation):
        tier1.sscanf(d, "ax")


def test_empty_lit_behaves_like_identity():
    for text in ("", "zz"):
        assert outcome_parse(tier1.lit(""), text) == outcome_parse(tier1.identity(), text)
    assert tier1.sprintf(tier1.lit(""), []) == tier1.sprintf(tier1.identity(), [])


def test_composition_is_left_to_right():
    d = tier1.lit("a") + tier1.lit("b")
    assert tier1.sscanf(d, "ab") == ()
    with pytest.raises(ContractViolation):
        tier1.sscanf(d, "ba")


def test_digit_print_uses_decimal_rendering():
    for n in range(10):
        assert tier1.sprintf(tier1.digit(), [Int(n)]) == str(n)


def test_digit_refuses_values_outside_0_to_9():
    for n in (10, 12, -1, -3):
        with pytest.raises(ContractViolation, match="digit wants 0 to 9"):
            tier1.digit_iso().to(Int(n))
        with pytest.raises(ContractViolation, match="digit wants 0 to 9"):
            tier1.sprintf(tier1.nth_char_format(), [Int(n), Char("a"), Char("f")])


def test_pair_lead_splits_and_rebuilds():
    d = tier1.pair_lead() + tier1.digit() + tier1.char()
    assert tier1.sprintf(d, [Pair(Int(1), Char("a"))]) == "1a"
    assert tier1.sscanf(d, "1a") == (Pair(Int(1), Char("a")),)


def test_iso_lift_of_identity_iso_changes_nothing():
    from cassette.values import identity_iso
    d = tier1.iso_lift(identity_iso()) + tier1.char()
    assert tier1.sprintf(d, [Char("q")]) == "q"
    assert tier1.sscanf(d, "q") == (Char("q"),)


def test_pair_iso_witnesses_the_pair_view():
    iso = pair_iso()
    p = Pair(Int(1), Char("a"))
    assert iso.from_(iso.to(p)) == p


# ---------------------------------------------------------------------------
# The demo format


def test_nth_char_format_prints_the_reference_line():
    spec = tier1.nth_char_format()
    got = tier1.sprintf(spec, [Int(5), Char("a"), Char("f")])
    assert got == "5-th character after a is f"


def test_nth_char_format_scans_the_reference_line():
    spec = tier1.nth_char_format()
    got = tier1.sscanf(spec, "5-th character after a is f")
    assert got == (Int(5), Char("a"), Char("f"))


def test_nth_char_format_rejects_a_bad_first_char():
    with pytest.raises(ContractViolation):
        tier1.sscanf(tier1.nth_char_format(), "X-th character after a is f")


def test_sprintf_checks_arity():
    with pytest.raises(ContractViolation):
        tier1.sprintf(tier1.nth_char_format(), [Int(5), Char("a")])


def test_violation_diagnostics_name_the_position():
    spec = tier1.nth_char_format()
    with pytest.raises(ContractViolation, match="argument 2"):
        tier1.sprintf(spec, [Int(5), Int(9), Char("f")])


def test_violation_diagnostics_number_the_argument_a_value_came_from():
    # both components of a Pair carry the Pair's argument number
    d = tier1.pair_lead() + tier1.digit() + tier1.char()
    with pytest.raises(ContractViolation,
                       match=r"^argument 1: char wants a Char, got Int\(2\)$"):
        tier1.sprintf(d, [Pair(Int(1), Int(2))])
    d = (tier1.char() + tier1.pair_lead() + tier1.char()
         + tier1.satisfy(str.isdigit, "digit") + tier1.char())
    with pytest.raises(ContractViolation,
                       match=r"^argument 2: 'c' does not satisfy digit$"):
        tier1.sprintf(d, [Char("a"), Pair(Char("b"), Char("c")), Char("d")])
    with pytest.raises(ContractViolation,
                       match=r"^argument 3: char wants a Char, got Int\(4\)$"):
        tier1.sprintf(d, [Char("a"), Pair(Char("b"), Char("5")), Int(4)])


def test_a_satisfy_before_the_lead_it_needs_is_refused_up_front():
    # the arity check passes: the lead would push the value satisfy
    # wants, but only after satisfy has run short of arguments
    with pytest.raises(ContractViolation,
                       match=r"^descriptor needs 2 arguments while printing, "
                             r"got 0$"):
        tier1.sprintf(tier1.char() + tier1.pair_lead(), [])


def test_a_non_pair_under_pair_lead_is_misuse():
    d = tier1.pair_lead() + tier1.char() + tier1.char()
    with pytest.raises(ContractViolation, match="pair lead wants a Pair"):
        tier1.sprintf(d, [Char("x")])


# ---------------------------------------------------------------------------
# Properties


def test_round_trip_at_any_arity():
    rng = random.Random(3)
    for _ in range(200):
        parts = [rng.choice(FAMILY) for _ in range(rng.randrange(1, 5))]
        d = tier1.compose(*(mk() for mk, _ in parts))
        args = []
        for _, gen in parts:
            args.extend(gen(rng))
        text = tier1.sprintf(d, args)
        assert tier1.sscanf(d, text) == tuple(args)


def test_composition_is_associative_and_unital():
    rng = random.Random(5)
    for _ in range(200):
        mks = [rng.choice(FAMILY) for _ in range(3)]
        a, b, c = (mk() for mk, _ in mks)
        left = tier1.compose(tier1.compose(a, b), c)
        right = tier1.compose(a, tier1.compose(b, c))
        plain = tier1.compose(a, b, c)
        with_units = tier1.compose(tier1.identity(), a, b, c, tier1.identity())
        args = []
        for _, gen in mks:
            args.extend(gen(rng))
        probes_p = [args] + [[_any_char(rng) for _ in args] for _ in range(3)]
        for probe in probes_p:
            outs = {str(outcome_print(d, probe)) for d in (left, right, plain, with_units)}
            assert len(outs) == 1
        good = tier1.sprintf(left, args)
        probes_s = [good] + ["".join(rng.choice("ab5!") for _ in range(len(good)))
                             for _ in range(19)]
        for text in probes_s:
            outs = {str(outcome_parse(d, text)) for d in (left, right, plain, with_units)}
            assert len(outs) == 1


def test_print_is_concatenation_of_the_parts():
    rng = random.Random(9)
    for _ in range(100):
        (mk_a, gen_a), (mk_b, gen_b) = rng.choice(FAMILY), rng.choice(FAMILY)
        a, b = mk_a(), mk_b()
        args_a, args_b = gen_a(rng), gen_b(rng)
        assert tier1.sprintf(a + b, args_a + args_b) == \
            tier1.sprintf(a, args_a) + tier1.sprintf(b, args_b)


def test_scan_ignores_trailing_input():
    spec = tier1.nth_char_format()
    got = tier1.sscanf(spec, "5-th character after a is f, obviously")
    assert got == (Int(5), Char("a"), Char("f"))


def test_tier1_runs_leave_no_cyclic_garbage():
    spec = tier1.nth_char_format()
    args = (Int(3), Char("a"), Char("b"))
    line = "3-th character after a is b"
    gc.collect()
    gc.disable()
    try:
        assert tier1.sprintf(spec, args) == line
        assert tier1.sscanf(spec, line) == args
        assert gc.collect() == 0
    finally:
        gc.enable()
