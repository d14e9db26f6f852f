"""Tests of the benchmark itself: reproducible inputs, a checker that
catches wrong outputs, and traced counts that repeat exactly."""

import random
from array import array

import pytest

import measure
import tracing
import workloads as W
from cassette import lam
from cassette.values import Stack


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    a, b, other = W.build(name, 7), W.build(name, 7), W.build(name, 8)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != other.fingerprint()


def test_expectations_match_the_library_on_generated_terms():
    rng = random.Random(3)
    for t in [W.gen_small(rng, 6) for _ in range(50)] + [W.balanced_app(rng, 3)]:
        v = W.to_value(t)
        assert lam.pretty_term(v) == W.term_text(t)
        assert lam.term_to_json(v) == W.term_json(t)
        assert W.same_term(lam.parse_term(W.term_text(t)), t)


def test_deep_terms_are_compared_without_recursion():
    t = W.abs_chain(random.Random(1), 20_000)
    assert W.same_term(W.to_value(t), t)
    assert W.term_depth(t) == 20_001
    assert W.term_text(t).count(W.LAMBDA) == 20_000


def _check(op):
    try:
        value, ok = op.run(), True
    except Exception as e:
        value, ok = e, False
    return op.check(ok, value)


def test_constructed_rejects_have_no_parseable_prefix():
    oracle = W._load_test_module("cfg_oracle")
    grammar = W._oracle_grammar(oracle)
    rng = random.Random(6)
    for t in [W.abs_chain(rng, 3), W.balanced_app(rng, 2), ("A", ("V", "f"), ("L", "x", ("V", "y")))]:
        assert oracle.derives_prefix(grammar, W.term_text(t))
        assert not oracle.derives_prefix(grammar, W.without_last_ident(t))


def test_checker_flags_wrong_outputs():
    rng = random.Random(5)
    t = ("A", ("V", "f"), ("L", "x", ("V", "x")))
    other = ("A", ("V", "f"), ("L", "y", ("V", "x")))
    print_op, parse_op, *_ = W.term_ops(t, fit=False)
    assert _check(print_op) is None and _check(parse_op) is None
    wrong_print = print_op.check(True, "(f λy.x)")
    wrong_parse = parse_op.check(True, W.to_value(other))
    assert wrong_print is not None and wrong_print.known is None
    assert wrong_parse is not None and wrong_parse.known is None
    assert W.reject_op("((", "tier2").check(True, W.to_value(t)).known is None
    fmt = [op for op in W.fmt_ops(rng, 10, refused=1)[0] if op.label == "fmt.tier1"][0]
    assert fmt.check(True, ("0-th character after a is b", ())) is not None


def test_known_defects_are_named_and_nothing_else_is():
    deep = W.abs_chain(random.Random(2), W.DEEP_JSON_DEPTH)
    json_op = W.json_op(deep, W.to_value(deep), W.term_json(deep))
    failure = _check(json_op)
    assert failure is not None and failure.known == W.DEEP_JSON
    shallow = ("V", "x")
    wrong = W.json_op(shallow, W.to_value(shallow), W.term_json(shallow))
    assert wrong.check(True, ('{"Var":"y"}', None)).known is None
    case = [c for c in W.generated_cli_cases(random.Random(4), W._load_test_module("cfg_oracle"))
            if c.known == W.CLI_DEEP_PARSE][0]
    assert case.check(True, (1, b"", b"RecursionError: maximum")).known == W.CLI_DEEP_PARSE
    assert case.check(True, (0, b"{}\n", b"")).known is None


def test_traced_counts_repeat_exactly_and_originals_come_back():
    wl = W.build("terms_small", 11)
    ops = wl.ops[:40] + wl.ops[-12:]
    original_push = Stack.push
    measure.run_round(ops, measure.Tally())  # forces the lazy grammar parts, as the warm-up does
    runs = []
    for _ in range(2):
        with tracing.Tracer(fine=True) as tracer:
            measure.run_round(ops, measure.Tally(), tracer)
        counts = {k: v for k, (v, unit) in measure.layer_counts(tracer).items()
                  if not k.endswith("_ms")}
        runs.append(counts)
    assert Stack.push is original_push
    assert runs[0] == runs[1]
    assert runs[0]["stacked.trace_calls_per_char"] > 0
    assert runs[0]["values.frames_per_node.tier2"] > 0


def test_latency_windows_hold_whole_rounds_and_a_slow_spell_stays_local():
    per_round = 44
    steady = [40.0 + i % 4 for i in range(per_round * 9)]
    p50, p90, windows = measure.latency_percentiles(array("d", steady), per_round)
    assert windows == 3
    slow = [x + 30 * (i < per_round * 3) for i, x in enumerate(steady)]
    assert measure.latency_percentiles(array("d", slow), per_round) == (p50, p90, 3)
