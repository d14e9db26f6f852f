import pathlib
import random
import subprocess
import sys

import pytest

from cassette import tier2
from cassette.values import (
    Adt, Bool, Char, ContractViolation, Int, List, Pair, Prism, Text,
    Unit, adt_prism, cons_prism, const_prism, identity_iso, key_of,
    nil_prism, pair_iso, stack_of, value_from_json, value_to_json,
    EMPTY_STACK,
)


def bounded_values(depth):
    """Every Value of the given depth budget over small atom alphabets."""
    atoms = [Unit(), Bool(True), Bool(False), Int(0), Int(7),
             Char('a'), Char('z'), Text(""), Text("ab")]
    if depth == 0:
        return atoms
    inner = bounded_values(depth - 1)
    out = list(atoms)
    out.append(List(()))
    out.extend(List((x,)) for x in inner)
    out.extend(List((x, y)) for x in inner[:6] for y in inner[:6])
    out.extend(Pair(x, y) for x in inner[:6] for y in inner[:6])
    out.extend(Adt("Var", (x,)) for x in inner[:6])
    out.extend(Adt("Abs", (x, y)) for x in inner[:4] for y in inner[:4])
    out.append(Adt("Nil", ()))
    return out


UNIVERSE = bounded_values(3)


def test_equality_is_structural_and_deep():
    assert Adt("Var", (Text("x"),)) == Adt("Var", (Text("x"),))
    assert Adt("Var", (Text("x"),)) != Adt("Var", (Text("y"),))
    assert List((Int(1), Int(2))) != List((Int(1),))
    assert Pair(Int(1), Int(2)) != List((Int(1), Int(2)))
    assert Unit() == Unit()
    assert Bool(True) != Int(1)
    # a value's class is part of it
    a, b = Int(1), Char('b')
    for v, w in [(Bool(False), Int(0)), (Unit(), List(())),
                 (Adt("Pair", (a, b)), Pair(a, b)), (Char('x'), Text("x")),
                 (Text("Nil"), Adt("Nil", ())), (Adt("Nil", ()), List(()))]:
        assert v != w and w != v
        assert not (v == w or w == v)
    for v in (Unit(), Bool(False), Int(0), Text(""), List(()), Adt("Nil", ())):
        assert v != None and None != v
        assert v != () and v != 0 and v != ""
    for v in UNIVERSE[:40]:
        for w in UNIVERSE:
            if v == w:
                assert hash(v) == hash(w)


SUFFIX = cons_prism().preview(List((Int(0), Int(1), Int(2))))[1]
CONS = cons_prism().review((Int(1), List((Int(2),))))


@pytest.mark.parametrize("value, shown", [
    (Unit(), "Unit"),
    (Bool(True), "Bool(True)"),
    (Bool(False), "Bool(False)"),
    (Int(12), "Int(12)"),
    (Int(-3), "Int(-3)"),
    (Char('a'), "Char('a')"),
    (Char("'"), 'Char("\'")'),
    (Char('λ'), "Char('λ')"),
    (Text("a b"), "Text('a b')"),
    (Text(""), "Text('')"),
    (List(()), "List[]"),
    (List((Int(1), Char('c'))), "List[Int(1), Char('c')]"),
    (SUFFIX, "List[Int(1), Int(2)]"),
    (CONS, "List[Int(1), Int(2)]"),
    (Pair(Int(1), Unit()), "Pair(Int(1), Unit)"),
    (Adt("Nil", ()), "Adt('Nil')"),
    (Adt("Var", (Text("x"),)), "Adt('Var', Text('x'))"),
    (Adt("Abs", (Text("x"), Adt("Var", (Text("x"),)))),
     "Adt('Abs', Text('x'), Adt('Var', Text('x')))"),
])
def test_repr_shows_the_class_and_its_parts(value, shown):
    assert repr(value) == shown


def test_equality_is_an_equivalence_relation():
    rng = random.Random(7)
    sample = rng.sample(UNIVERSE, 60)
    for v in sample:
        assert v == v
    for v in sample:
        for w in rng.sample(UNIVERSE, 10):
            assert (v == w) == (w == v)
            if v == w:
                assert hash(v) == hash(w)


def test_repr_is_injective_on_the_universe():
    seen = {}
    for v in UNIVERSE:
        r = repr(v)
        if r in seen:
            assert seen[r] == v
        seen[r] = v
    reprs = {repr(v) for v in UNIVERSE}
    distinct = []
    for v in UNIVERSE:
        if v not in distinct:
            distinct.append(v)
    assert len(reprs) == len(distinct)


def test_char_wants_a_single_scalar():
    with pytest.raises(ContractViolation):
        Char("ab")
    assert Char("λ").c == "λ"


# ---------------------------------------------------------------------------
# Stacks


def random_stack(rng):
    s = EMPTY_STACK
    for _ in range(rng.randrange(5)):
        s = s.push(rng.choice(UNIVERSE[:20]))
    return s


def test_push_pop_are_inverse_on_generated_stacks():
    rng = random.Random(11)
    for _ in range(200):
        s = random_stack(rng)
        v = rng.choice(UNIVERSE[:30])
        w, rest = s.push(v).pop()
        assert w == v
        assert rest == s


def test_underflow_and_kind_mismatch_are_detected():
    with pytest.raises(ContractViolation):
        EMPTY_STACK.pop()
    s = EMPTY_STACK.open_frame("Var", 1, lambda xs: Adt("Var", xs))
    with pytest.raises(ContractViolation):
        s.pop()
    with pytest.raises(ContractViolation):
        s.values()


def test_deliver_reduces_completed_frames_innermost_first():
    s = EMPTY_STACK.open_frame("Abs", 2, lambda xs: Adt("Abs", xs))
    s = s.deliver(Text("x"))
    s = s.open_frame("Var", 1, lambda xs: Adt("Var", xs))
    s = s.deliver(Text("y"))
    assert s.values() == (Adt("Abs", (Text("x"), Adt("Var", (Text("y"),)))),)


def test_arity_zero_frames_never_persist():
    s = EMPTY_STACK.open_frame("nil", 0, lambda xs: List(()))
    assert s.values() == (List(()),)


def test_stack_of_puts_first_value_on_top():
    s = stack_of([Int(1), Int(2)])
    v, s = s.pop()
    assert v == Int(1)
    v, s = s.pop()
    assert v == Int(2)
    assert s.is_empty()


# ---------------------------------------------------------------------------
# Prisms


SHIPPED_PRISMS = [
    adt_prism("Var", 1),
    adt_prism("Abs", 2),
    adt_prism("App", 2),
    adt_prism("Nil", 0),
    cons_prism(),
    nil_prism(),
    const_prism("True", Bool(True)),
    const_prism("False", Bool(False)),
]


def valid_components(prism):
    """Component tuples inside each shipped prism's domain."""
    small = bounded_values(1)
    if prism.tag == "cons":
        tails = [List(()), List((Int(1),)), List((Char('a'), Char('b')))]
        return [(h, t) for h in small[:8] for t in tails]
    if prism.tag in ("nil", "Nil"):
        return [()]
    if prism.tag in ("True", "False"):
        return [(Unit(),)]
    if prism.arity == 1:
        return [(x,) for x in small]
    return [(x, y) for x in small[:8] for y in small[:8]]


@pytest.mark.parametrize("prism", SHIPPED_PRISMS, ids=lambda p: p.tag)
def test_preview_then_review_recovers_the_value(prism):
    for v in UNIVERSE:
        xs = prism.preview(v)
        if xs is not None:
            assert prism.review(xs) == v


@pytest.mark.parametrize("prism", SHIPPED_PRISMS, ids=lambda p: p.tag)
def test_review_then_preview_recovers_components(prism):
    for xs in valid_components(prism):
        assert prism.preview(prism.review(xs)) == tuple(xs)


def test_adt_prism_examples():
    var = adt_prism("Var", 1)
    assert var.review((Text("x"),)) == Adt("Var", (Text("x"),))
    t, u = Adt("Var", (Text("t"),)), Adt("Var", (Text("u"),))
    assert var.preview(Adt("App", (t, u))) is None
    assert adt_prism("Abs", 2).preview(Adt("Abs", (Text("x"), t))) == (Text("x"), t)
    with pytest.raises(ContractViolation):
        var.review((Text("x"), Text("y")))


def test_adt_prism_arity_must_match_to_preview():
    assert adt_prism("Var", 2).preview(Adt("Var", (Text("x"),))) is None


def test_cons_and_nil_examples():
    cons = cons_prism()
    assert cons.preview(List((Int(1), Int(2), Int(3)))) == (Int(1), List((Int(2), Int(3))))
    assert cons.preview(List(())) is None
    assert nil_prism().preview(List(())) == ()
    with pytest.raises(ContractViolation):
        cons.review((Int(1), Int(2)))


def _cons_chain(items):
    """items as a chain of cons nodes, built by the cons prism."""
    cons = cons_prism()
    lst = nil_prism().review(())
    for x in reversed(items):
        lst = cons.review((x, lst))
    return lst


def _tails(lst):
    """lst and every tail the cons prism takes of it, outermost first."""
    out = [lst]
    while (xs := cons_prism().preview(out[-1])) is not None:
        out.append(xs[1])
    return out


def _same_list(got, want):
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert value_to_json(got) == value_to_json(want)
    assert nil_prism().preview(got) == nil_prism().preview(want)


@pytest.mark.parametrize("items", [
    (), (Int(1),), (Char('a'), Char('b'), Char('c')),
    (List((Int(1), Int(2))), Text("ab"), Adt("Var", (Text("x"),)), List(())),
], ids=len)
def test_lists_built_or_taken_apart_by_cons_equal_tuple_built_ones(items):
    _same_list(_cons_chain(items), List(items))
    # every tail a preview takes of a tuple-built List, and of a chain
    for k, tail in enumerate(_tails(List(items))):
        _same_list(tail, List(items[k:]))
    for k, tail in enumerate(_tails(_cons_chain(items))):
        _same_list(tail, List(items[k:]))
    # cons onto a view, and a chain whose tail was already materialised
    for k, tail in enumerate(_tails(List(items))):
        _same_list(cons_prism().review((Int(9), tail)),
                   List((Int(9),) + items[k:]))
    chain = _cons_chain(items)
    for tail in reversed(_tails(chain)):
        tail.items
    _same_list(cons_prism().review((Int(9), chain)), List((Int(9),) + items))
    assert len(_tails(List(items))) == len(items) + 1


def test_a_long_cons_chain_materialises_without_recursion():
    n = 100_000
    chain = _cons_chain(tuple(Int(i % 7) for i in range(n)))
    items = chain.items
    assert len(items) == n and items[:3] == (Int(0), Int(1), Int(2))
    assert chain.items is items
    assert chain == List(items) and hash(chain) == hash(List(items))
    del chain, items  # freeing the chain must not recurse either


def test_pair_iso_round_trips():
    iso = pair_iso()
    assert iso.to(Pair(Int(1), Char('a'))) == List((Int(1), Char('a')))
    assert iso.from_(List((Int(1), Char('a')))) == Pair(Int(1), Char('a'))
    p = Pair(Adt("Var", (Text("t"),)), Text("u"))
    assert iso.from_(iso.to(p)) == p
    with pytest.raises(ContractViolation):
        iso.to(Int(3))


# ---------------------------------------------------------------------------
# JSON


def test_json_fixed_encodings():
    assert value_to_json(Unit()) == "null"
    assert value_to_json(Bool(True)) == "true"
    assert value_to_json(Int(5)) == "5"
    assert value_to_json(Char('c')) == '{"char":"c"}'
    assert value_to_json(Text("hi")) == '"hi"'
    assert value_to_json(List((Int(1), Int(2)))) == "[1,2]"
    assert value_to_json(Pair(Int(1), Text("x"))) == '{"pair":[1,"x"]}'
    assert value_to_json(Adt("Var", (Text("x"),))) == '{"Var":"x"}'
    assert value_to_json(Adt("App", (Adt("Var", (Text("x"),)),) * 2)) == \
        '{"App":[{"Var":"x"},{"Var":"x"}]}'


def test_json_round_trips_the_universe():
    for v in UNIVERSE:
        assert value_from_json(value_to_json(v)) == v


def test_json_single_list_argument_stays_unambiguous():
    v = Adt("Wrap", (List((Int(1), Int(2))),))
    assert value_to_json(v) == '{"Wrap":[[1,2]]}'
    assert value_from_json(value_to_json(v)) == v


def test_json_rejects_garbage():
    assert value_from_json("{}") is None
    assert value_from_json("{boom") is None
    assert value_from_json('{"a":1,"b":2}') is None
    assert value_from_json("1.5") is None


# ---------------------------------------------------------------------------
# Isos are the prisms that always match


def _shipped_isos():
    pairs = [v for v in UNIVERSE if isinstance(v, Pair)]
    ints = [Int(n) for n in (0, 7, 9, 10, 45, 1234567890)]
    return [
        (pair_iso(), "Iso(pair)", pairs),
        (identity_iso(), "Iso(id)", UNIVERSE),
        (tier2.digit_iso(), "Iso(digit)", [Int(n) for n in range(10)]),
        (tier2.int_text_iso(), "Iso(int)", ints),
    ]


@pytest.mark.parametrize("iso, shown, domain", _shipped_isos(),
                         ids=["pair", "id", "digit", "int"])
def test_a_shipped_iso_is_an_arity_one_prism(iso, shown, domain):
    assert isinstance(iso, Prism)
    assert (iso.tag, iso.arity) == (iso.name, 1)
    assert repr(iso) == shown
    for v in domain:
        assert iso.preview(v) == (iso.to(v),)
        assert iso.review((iso.to(v),)) == v


def test_importing_the_grammar_leaves_json_unimported():
    # a fresh interpreter that only parses and prints does not pay for it
    src = pathlib.Path(tier2.__file__).resolve().parents[1]
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import cassette.lam; print('json' in sys.modules)")
    proc = subprocess.run([sys.executable, "-S", "-I", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == "False\n", proc.stderr


# Keys: a prism that matches a value declares its key


def _key_samples():
    ab = List((Char("a"), Char("b")))
    cons = cons_prism()
    suffix = cons.preview(ab)[1]  # a suffix view, one item left
    return UNIVERSE + [
        Adt("T", ()), Adt("T", (Int(1),)), Adt("U", (Int(1), Int(2))),
        Adt("Var", (Text("x"),)), Adt("Abs", (Text("x"), Adt("T", ()))),
        List(()), ab, suffix, cons.preview(suffix)[1],
        cons.review((Char("c"), ab)), cons.review((Char("c"), List(()))),
        Pair(Int(1), Unit()), Unit(), Char("a"), Int(3), Text("ab"),
    ]


@pytest.mark.parametrize("prism", [
    adt_prism("T", 0), adt_prism("T", 1), adt_prism("U", 2),
    adt_prism("Var", 1), adt_prism("Abs", 2), cons_prism(), nil_prism(),
], ids=repr)
def test_a_shipped_keyed_prism_matches_only_values_of_its_keys(prism):
    matched = [v for v in _key_samples() if prism.preview(v) is not None]
    assert matched and prism.keys
    for v in matched:
        assert key_of(v) in prism.keys, v
    assert len({key_of(v) for v in matched}) == 1


def test_key_of_tells_the_list_forms_apart_by_emptiness_alone():
    ab = List((Char("a"), Char("b")))
    cons = cons_prism()
    suffix = cons.preview(ab)[1]
    assert {key_of(ab), key_of(suffix), key_of(cons.review((Char("c"), List(()))))} == {"cons"}
    assert {key_of(List(())), key_of(cons.preview(suffix)[1])} == {"nil"}
    assert key_of(Adt("T", (Unit(),))) == ("T", 1)
    assert [key_of(v) for v in (Char("a"), Unit(), Pair(Unit(), Unit()))] == [Char, Unit, Pair]


def test_isos_and_constant_prisms_declare_no_keys():
    assert identity_iso().keys is None and pair_iso().keys is None
    assert const_prism("T", Bool(True)).keys is None
