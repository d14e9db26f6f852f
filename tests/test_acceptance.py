"""Acceptance gate: one test per criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import itertools
import json
import pathlib
import random
import string
import subprocess
import sys
import time

import pytest

from cassette import lam, stacked as st, tier1, tier2
from cassette.values import (
    Char, ContractViolation, Int, List, Pair, Text, Unit,
)

import cfg_oracle as cfg
import lam_corpus
from test_values import SHIPPED_PRISMS, UNIVERSE, valid_components

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE_LINE = "5-th character after a is f"
REFERENCE_ARGS = [Int(5), Char("a"), Char("f")]


def ok(n, label):
    print(f"ACCEPTANCE {n:02d} PASS: {label}")


def test_c01_tier1_reference_reproduction():
    spec = tier1.nth_char_format()
    assert tier1.sprintf(spec, REFERENCE_ARGS) == REFERENCE_LINE
    assert tier1.sscanf(spec, REFERENCE_LINE) == tuple(REFERENCE_ARGS)
    start = time.perf_counter()
    tier1.sprintf(spec, REFERENCE_ARGS)
    tier1.sscanf(spec, REFERENCE_LINE)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    ok(1, "tier-1 printf/scanf reproduces the reference line in "
          f"{elapsed * 1000:.3f} ms")


def test_c02_tier3_linear_reproduction():
    spec = st.nth_char_format()
    assert st.sprintf(spec, REFERENCE_ARGS) == REFERENCE_LINE
    assert st.sscanf(spec, REFERENCE_LINE) == List(tuple(REFERENCE_ARGS))
    ok(2, "tier-3 linear printf/scanf reproduces both reference lines")


def test_c03_lambda_repl_reproduction_on_both_engines():
    expected = lam.abs_("x", lam.app(lam.var("x"), lam.var("x")))
    for engine in lam.ENGINES:
        assert lam.parse_term("λx.(x x)", engine) == expected, engine
        assert lam.pretty_term(expected, engine) == "λx.(x x)", engine
    ok(3, "both engines parse and print the self-application exactly")


def test_c04_round_trip_500_terms_under_10s():
    terms = lam_corpus.generated_terms(500, seed=2024, depth=6)
    start = time.perf_counter()
    for engine in lam.ENGINES:
        for t in terms:
            s = lam.pretty_term(t, engine)
            assert s is not None
            assert lam.parse_term(s, engine) == t
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    ok(4, f"500-term round trip on both engines in {elapsed:.2f} s")


def test_c05_print_parse_coherence():
    checked = 0
    for engine in lam.ENGINES:
        for s in lam_corpus.positive_strings():
            t = lam.parse_term(s, engine)
            assert t is not None, s
            s2 = lam.pretty_term(t, engine)
            assert s2 is not None, s
            assert lam.parse_term(s2, engine) == t, s
            checked += 1
    ok(5, f"print-parse coherence on {checked} corpus runs")


# --- criterion 6: law suites -------------------------------------------------

CASES_PER_LAW = 200
PROBES_PER_CASE = 20


def _t1_family(rng):
    digits = string.digits
    return rng.choice([
        lambda: tier1.lit(rng.choice(["", "a", "ab"])),
        lambda: tier1.satisfy(str.islower, "lower"),
        lambda: tier1.satisfy(lambda c: c in digits, "digit-class"),
        lambda: tier1.char(),
        lambda: tier1.digit(),
    ])()


def _t1_outcome(d, probe):
    kind, payload = probe
    try:
        if kind == "parse":
            return ("ok", tier1.sscanf(d, payload))
        return ("ok", tier1.sprintf(d, payload))
    except ContractViolation:
        return ("violation",)


def _t1_probes(rng, arity):
    probes = []
    for _ in range(PROBES_PER_CASE // 2):
        probes.append(("parse", "".join(rng.choice("ab5x!") for _ in range(6))))
        args = [rng.choice([Char("a"), Char("5"), Int(rng.randrange(10))])
                for _ in range(arity)]
        probes.append(("print", args))
    return probes


def test_c06a_tier1_compose_laws():
    rng = random.Random(101)
    for _ in range(CASES_PER_LAW):
        a, b, c = (_t1_family(rng) for _ in range(3))
        left = tier1.compose(tier1.compose(a, b), c)
        right = tier1.compose(a, tier1.compose(b, c))
        unital = tier1.compose(tier1.identity(), a, b, c, tier1.identity())
        for probe in _t1_probes(rng, left.arity):
            outs = {str(_t1_outcome(d, probe)) for d in (left, right, unital)}
            assert len(outs) == 1
    ok(6, f"tier-1 compose associativity and identity, {CASES_PER_LAW} cases")


def _t2_family(rng, depth=2):
    atoms = [
        lambda: tier2.lit(rng.choice(["", "a", "ab"])),
        lambda: tier2.satisfy(str.islower, "lower"),
        lambda: tier2.satisfy(lambda c: "0" <= c <= "9", "digit-class"),
        lambda: tier2.char(),
        lambda: tier2.digit(),
        lambda: tier2.fail(),
    ]
    if depth == 0 or rng.random() < 0.5:
        return rng.choice(atoms)()
    if rng.random() < 0.5:
        return tier2.compose(_t2_family(rng, depth - 1), _t2_family(rng, depth - 1))
    return tier2.choice(_t2_family(rng, depth - 1), _t2_family(rng, depth - 1))


def _t2_outcome(d, probe):
    kind, payload = probe
    try:
        r = tier2.run_parse(d, payload) if kind == "parse" \
            else tier2.run_print(d, payload)
    except ContractViolation:
        return ("violation",)
    if r is None:
        return ("fail",)
    return ("ok", r[0], r[1].entries())


def _t2_probes(rng):
    pool = [Char("a"), Char("5"), Int(4), Unit(), List((Char("a"),))]
    probes = []
    for _ in range(PROBES_PER_CASE // 2):
        probes.append(("parse", "".join(rng.choice("ab5x!") for _ in range(6))))
        probes.append(("print", [rng.choice(pool) for _ in range(rng.randrange(4))]))
    return probes


def test_c06b_tier2_compose_laws():
    rng = random.Random(103)
    for _ in range(CASES_PER_LAW):
        a, b, c = (_t2_family(rng) for _ in range(3))
        left = tier2.compose(tier2.compose(a, b), c)
        right = tier2.compose(a, tier2.compose(b, c))
        unital = tier2.compose(tier2.identity(), a, b, c, tier2.identity())
        for probe in _t2_probes(rng):
            outs = {str(_t2_outcome(d, probe)) for d in (left, right, unital)}
            assert len(outs) == 1
    ok(6, f"tier-2 compose associativity and identity, {CASES_PER_LAW} cases")


def test_c06c_tier2_choice_monoid_laws():
    rng = random.Random(107)
    for _ in range(CASES_PER_LAW):
        a, b, c = (_t2_family(rng) for _ in range(3))
        left = tier2.choice(tier2.choice(a, b), c)
        right = tier2.choice(a, tier2.choice(b, c))
        for probe in _t2_probes(rng):
            assert _t2_outcome(left, probe) == _t2_outcome(right, probe)
            assert _t2_outcome(tier2.choice(tier2.fail(), a), probe) == \
                _t2_outcome(a, probe)
            assert _t2_outcome(tier2.choice(a, tier2.fail()), probe) == \
                _t2_outcome(a, probe)
    ok(6, f"tier-2 choice monoid laws, {CASES_PER_LAW} cases")


def _t3_atoms(rng):
    return rng.choice([
        lambda: st.Choice.ret(Int(rng.randrange(5))),
        lambda: st.Choice.fail(),
        lambda: st.alt_emit(rng.choice(["", "x"])),
        lambda: st.alt_push(Char(rng.choice("pq"))),
        lambda: st.alt_pop_(),
        lambda: st.alt_satisfy(str.islower, "lower"),
        lambda: st.alt_lit(rng.choice(["a", "ab"])),
    ])()


def _t3_konts(rng):
    return rng.choice([
        lambda a: st.Choice.ret(a),
        lambda a: st.alt_emit("k").right(st.Choice.ret(a)),
        lambda a: st.alt_satisfy(str.islower, "lower"),
        lambda a: st.Choice.fail(),
        lambda a: st.alt_push(Char("z")).right(st.Choice.ret(a)),
    ])


def _t3_outcome(action, probe):
    kind, payload = probe
    try:
        if kind == "parse":
            r = action.pa(payload, 0)
            return ("fail",) if r is None else ("ok",) + r
        r = st.run_choice_print(action, payload)
        if r is None:
            return ("fail",)
        return ("ok", r[0], r[1], r[2].entries())
    except ContractViolation:
        return ("violation",)


def _t3_probes(rng):
    pool = [Char("a"), Char("b"), Int(2), Unit()]
    probes = []
    for _ in range(PROBES_PER_CASE // 2):
        probes.append(("parse", rng.choice(["", "a", "ab", "abc", "5a", "zz"])))
        probes.append(("print", [rng.choice(pool) for _ in range(rng.randrange(4))]))
    return probes


def test_c06d_tier3_choice_monoid_laws():
    rng = random.Random(109)
    for _ in range(CASES_PER_LAW):
        a, b, c = (_t3_atoms(rng) for _ in range(3))
        for probe in _t3_probes(rng):
            assert _t3_outcome((a | b) | c, probe) == _t3_outcome(a | (b | c), probe)
            assert _t3_outcome(st.Choice.fail() | a, probe) == _t3_outcome(a, probe)
            assert _t3_outcome(a | st.Choice.fail(), probe) == _t3_outcome(a, probe)
    ok(6, f"tier-3 choice monoid laws, {CASES_PER_LAW} cases")


def test_c06e_tier3_indexed_monad_laws():
    rng = random.Random(113)
    for _ in range(CASES_PER_LAW):
        m = _t3_atoms(rng)
        f, g = _t3_konts(rng), _t3_konts(rng)
        x = Char(rng.choice("ab"))
        for probe in _t3_probes(rng):
            assert _t3_outcome(st.Choice.ret(x).bind(f), probe) == \
                _t3_outcome(f(x), probe)
            assert _t3_outcome(m.bind(st.Choice.ret), probe) == \
                _t3_outcome(m, probe)
            assert _t3_outcome(m.bind(f).bind(g), probe) == \
                _t3_outcome(m.bind(lambda a: f(a).bind(g)), probe)
    ok(6, f"tier-3 indexed-monad unit and associativity, {CASES_PER_LAW} cases")


def test_c07_frame_rule():
    rng = random.Random(127)
    junk_pool = [Int(9), Char("j"), Text("junk"), List((Int(1),)),
                 Pair(Int(1), Char("k"))]
    pairs = 0
    while pairs < 100:
        d = _t2_family(rng)
        junk = [rng.choice(junk_pool) for _ in range(rng.randrange(1, 4))]
        text = "".join(rng.choice("ab5x") for _ in range(5))
        bare = _t2_outcome(d, ("parse", text))
        if bare[0] != "ok":
            continue
        framed = tier2.run_parse(d, text, junk)
        assert framed is not None
        pos, stack = framed
        assert pos == bare[1]
        entries = stack.entries()
        keep = len(entries) - len(junk)
        assert entries[:keep] == bare[2]
        assert list(entries[keep:]) == junk
        pairs += 1
    ok(7, "frame rule held for 100 descriptor/junk-stack pairs")


def test_c08_prism_laws_exhaustive():
    checked = 0
    for prism in SHIPPED_PRISMS:
        for v in UNIVERSE:
            xs = prism.preview(v)
            if xs is not None:
                assert prism.review(xs) == v
            checked += 1
        for xs in valid_components(prism):
            assert prism.preview(prism.review(xs)) == tuple(xs)
            checked += 1
    ok(8, f"prism laws over {checked} exhaustive checks, "
          f"{len(SHIPPED_PRISMS)} shipped prisms")


def test_c09_backtracking_matches_the_enumerator():
    from test_tier2 import grammar_family
    rng = random.Random(131)
    total = 0
    for d, oracle, alphabet in grammar_family():
        inputs = [""]
        for n in range(1, 8):
            inputs.extend("".join(p) for p in itertools.product(alphabet, repeat=n))
        inputs.extend("".join(rng.choice(alphabet) for _ in range(rng.randrange(9, 13)))
                      for _ in range(400))
        for text in inputs:
            assert (tier2.run_parse(d, text) is not None) == \
                cfg.derives_prefix(oracle, text), text
            total += 1
    ok(9, f"backtracking agreed with the derivation enumerator on {total} inputs")


def test_c10_cross_engine_equivalence():
    positives = lam_corpus.positive_strings()
    negatives = lam_corpus.NEGATIVE_CASES
    assert len(positives) >= 50 and len(negatives) >= 25
    for s in positives + negatives:
        assert lam.parse_term(s, "cassette") == lam.parse_term(s, "stacked"), s
    for s in positives:
        t = lam.parse_term(s, "cassette")
        assert lam.pretty_term(t, "cassette") == lam.pretty_term(t, "stacked"), s
    ok(10, f"engines agree on {len(positives)} positive and "
           f"{len(negatives)} negative cases")


def test_c11_integer_behaviour():
    folded = 0
    for c in "123":
        folded = folded * 10 + (ord(c) - ord("0"))
    assert tier2.parse(tier2.integer(), "123") == Int(folded)
    assert tier2.pretty(tier2.integer(), Int(45)) == "45"
    assert tier2.pretty(tier2.integer(), Int(-5)) is None
    ok(11, "integer descriptor: digit fold, decimal print, no negatives")


def test_c12_desk_scale_performance():
    text = "0123456789" * 1000
    d = tier2.many(tier2.satisfy(lambda c: "0" <= c <= "9", "digit"))
    start = time.perf_counter()
    r = tier2.run_parse(d, text)
    elapsed = time.perf_counter() - start
    assert r is not None and r[0] == 10000
    assert len(r[1].values()[0].items) == 10000
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    ok(12, f"10,000-digit run parsed in {elapsed * 1000:.0f} ms, iteratively")


def test_c13_cli_golden():
    gold = ROOT / "tests" / "golden"
    manifest = json.loads((gold / "manifest.json").read_text(encoding="utf-8"))
    commands = {case["argv"][0] for case in manifest}
    assert commands == {"parse", "pretty", "roundtrip", "fmt", "test-corpus"}
    for case in manifest:
        proc = subprocess.run(
            [sys.executable, "-m", "cassette.cli", *case["argv"]],
            input=case["stdin"].encode("utf-8"), capture_output=True, cwd=ROOT)
        assert proc.stdout == (gold / f"{case['name']}.out").read_bytes(), case["name"]
        assert proc.stderr == (gold / f"{case['name']}.err").read_bytes(), case["name"]
        assert proc.returncode == case["exit"], case["name"]
    ok(13, f"{len(manifest)} golden CLI invocations matched bit-exactly")
