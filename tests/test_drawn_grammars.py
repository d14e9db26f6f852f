"""Differential tests of `stacked.from_descriptor` over drawn grammars.

A drawn grammar is a tier-2 descriptor built from lit, satisfy over a
small char set, sequence, choice, `many` and `Adt` prism leads, with one
recursive reference back to its root, optionally wrapped in literals.
Every node yields one value, so every drawn grammar compiles.

Both engines backtrack fully when printing, among the branches that the
value's key admits, so the compiled print must equal the tier-2 print
on every grammar and value.  Parsing is compared
only on grammars that are LL(1) by construction, where committed and
backtracking choice coincide: there every literal and satisfy has chars
of its own, every `Adt` lead is followed by an opening and ends with a
closing literal, `many` and choice range over leads and satisfies, and
the root is reached only from inside a lead.

On every grammar, each engine parses alike whether or not the satisfies
declare their chars, so the choice guard changes no parse, and tier-2
membership agrees with the derivation oracle `cfg_oracle`.  Each engine
also prints alike whether or not the prisms declare their keys, so the
print-side dispatch changes no print.
"""

import functools
import itertools
import operator

import pytest
from hypothesis import given, settings, strategies as hs

from cassette import stacked as st, tier2 as t2
from cassette.values import Adt, Char, ContractViolation, List, Prism, adt_prism

import cfg_oracle as cfg
from test_from_descriptor import outcome


def draw_grammar(draw, ll1, depth=3, declare=True):
    """(descriptor, value_of(depth) -> Value, chars its terminals use).

    `value_of` draws a value shaped by the grammar, recursing through
    the root reference at most `depth` times; past that it draws a Char,
    which the reference may fail to print.  With `declare` each satisfy
    declares its chars.
    """
    fresh = (chr(c) for c in itertools.count(ord("A")))
    tags = itertools.count()
    used = set()

    def terminal(choices):
        text = next(fresh) if ll1 else draw(hs.sampled_from(choices))
        used.update(text)
        return text

    def satisfy():
        chars = terminal(["a", "b", "ab", "bc"]) + (next(fresh) if ll1 else "")
        used.update(chars)
        return (t2.satisfy(chars.__contains__, "set", chars if declare else None),
                lambda d: Char(draw(hs.sampled_from(chars + ("" if ll1 else "ab")))))

    def lead(depth):
        tag = f"T{next(tags)}" if ll1 else draw(hs.sampled_from(["T", "U"]))
        items, parts = [], []
        if ll1 or draw(hs.booleans()):
            items.append(t2.lit(terminal(["", "a", "ab"])))
        for _ in range(draw(hs.integers(0, 2 if depth > 0 else 0))):
            d, v = part(depth - 1)
            items.append(d)
            parts.append(v)
            if not ll1 and draw(hs.booleans()):
                items.append(t2.lit(terminal(["", "b", "ba"])))
        if ll1:
            items.append(t2.lit(terminal([])))
        return (t2.compose(t2.prism_lead(adt_prism(tag, len(parts))), *items),
                lambda d: Adt(tag, tuple(v(d) for v in parts)))

    def branch(depth):
        return lead(depth) if draw(hs.booleans()) else satisfy()

    def choice(depth):
        branches = [branch(depth) for _ in range(draw(hs.integers(1, 3)))]
        return (functools.reduce(operator.or_, [b[0] for b in branches]),
                lambda d: draw(hs.sampled_from(branches))[1](d))

    def part(depth):
        kind = draw(hs.sampled_from(["satisfy", "rec", "lead", "choice", "many"]))
        if kind == "satisfy" or (depth < 0 and kind != "rec"):
            return satisfy()
        if kind == "rec":
            return root, lambda d: root_value(d - 1) if d > 0 else Char("a")
        if kind == "lead":
            return lead(depth)
        if kind == "choice":
            return choice(depth)
        d, v = branch(depth - 1)
        return t2.many(d), lambda dd: List(tuple(
            v(dd) for _ in range(draw(hs.integers(0, 3)))))

    root = t2.defer(lambda: body)
    body, root_value = choice(depth)
    if draw(hs.booleans()):
        return (t2.lit(terminal(["", "a"])) + root + t2.lit(terminal(["", "b"])),
                root_value, used)
    return root, root_value, used


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hs.data())
def test_compiled_print_equals_tier_2_print(data):
    grammar, value_of, _ = draw_grammar(data.draw, ll1=data.draw(hs.booleans()))
    compiled = st.from_descriptor(grammar)
    for _ in range(3):
        v = value_of(3)
        assert outcome(st.pretty, compiled, v) == outcome(t2.pretty, grammar, v), v


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(hs.data())
def test_compiled_parse_equals_tier_2_parse_on_ll1_grammars(data):
    grammar, value_of, used = draw_grammar(data.draw, ll1=True)
    compiled = st.from_descriptor(grammar)
    alphabet = sorted(used)
    texts = [data.draw(hs.text(alphabet, max_size=8))]
    for _ in range(3):
        v = value_of(3)
        text = t2.pretty(grammar, v)
        if text is None:  # past its depth, v holds a Char its root may not print
            continue
        assert st.parse(compiled, text) == t2.parse(grammar, text) == v
        cut = data.draw(hs.integers(0, len(text)))
        junk = data.draw(hs.sampled_from(alphabet))
        texts += [text[:cut], text[:cut] + junk + text[cut:], text + junk]
    for text in texts:
        assert st.parse(compiled, text) == t2.parse(grammar, text), text


def oracle_of(d, refs=None):
    """The `cfg_oracle` grammar of a tier-2 descriptor."""
    refs = {} if refs is None else refs
    kind = type(d)
    if kind is t2._Lit:
        return cfg.Lit(d.text)
    if kind is t2._Satisfy:
        return cfg.Sat(d.pred)
    if kind is t2._PrismLead:
        return cfg.Lit("")
    if kind is t2._Seq:
        return cfg.Cat(*(oracle_of(item, refs) for item in d.items))
    if kind is t2._Alt:
        return cfg.Or(*(oracle_of(branch, refs) for branch in d.branches))
    if d not in refs:
        refs[d] = cfg.Ref(lambda: oracle_of(d.force(), refs))
    return refs[d]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(hs.data())
def test_the_guard_changes_no_parse_and_tier_2_parses_the_oracle_language(data):
    ll1 = data.draw(hs.booleans())
    draws = []

    def recording(strategy):
        draws.append(data.draw(strategy))
        return draws[-1]
    grammar, value_of, used = draw_grammar(recording, ll1)
    replay = iter(list(draws))
    bare, _, _ = draw_grammar(lambda _strategy: next(replay), ll1, declare=False)
    compiled, compiled_bare = st.from_descriptor(grammar), st.from_descriptor(bare)
    oracle = oracle_of(grammar)
    alphabet = sorted(used | {"a", "b", "c"})
    texts = [data.draw(hs.text(alphabet, max_size=8)) for _ in range(3)]
    for _ in range(2):
        text = outcome(t2.pretty, grammar, value_of(3))
        if isinstance(text, str):
            texts += [text, text[:-1], text + data.draw(hs.sampled_from(alphabet))]
    for text in texts:
        try:
            member = cfg.derives_prefix(oracle, text)
        except cfg.LeftRecursion:
            # refused by the analysis alone, before any parse could loop
            with pytest.raises(ContractViolation, match="left recursion"):
                t2._analyse(grammar)
            continue
        parsed = outcome(t2.run_parse, grammar, text)
        assert parsed == outcome(t2.run_parse, bare, text), text
        assert outcome(st.parse, compiled, text) == outcome(st.parse, compiled_bare, text)
        if parsed is ContractViolation:  # left recursion the oracle did not reach
            with pytest.raises(ContractViolation, match="left recursion"):
                t2._analyse(grammar)
        else:
            assert (parsed is not None) == member, text


def without_keys(d, copies=None):
    """A copy of a tier-2 descriptor whose prisms declare no keys."""
    copies = {} if copies is None else copies
    kind = type(d)
    if kind is t2._PrismLead:
        p = d.prism
        return t2.prism_lead(Prism(p.tag, p.arity, p.preview, p.review))
    if kind is t2._Seq:
        return t2._Seq(tuple(without_keys(item, copies) for item in d.items))
    if kind is t2._Alt:
        return t2._Alt(tuple(without_keys(branch, copies) for branch in d.branches))
    if kind is t2._Defer:
        if d not in copies:
            copies[d] = t2.defer(lambda: without_keys(d.force(), copies))
        return copies[d]
    return d


def printed(pretty, grammar, v):
    """The text, None, or the message of the violation raised."""
    try:
        return pretty(grammar, v)
    except ContractViolation as e:
        return ("raised", str(e))


def agree(keyed, bare):
    """Prints agree, but for one case: at a key that no branch of a keyed
    choice declares, the choice tries every branch, and a satisfy among
    them raises on the value, where the branches of the bare choice, whose
    keys are unknown, admit it, and the satisfy is not tried."""
    return keyed == bare or isinstance(keyed, tuple) and "wants a Char" in keyed[1]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(hs.data())
def test_declared_keys_change_no_print_on_either_engine(data):
    grammar, value_of, _ = draw_grammar(data.draw, ll1=data.draw(hs.booleans()))
    bare = without_keys(grammar)
    compiled, compiled_bare = st.from_descriptor(grammar), st.from_descriptor(bare)
    for _ in range(3):
        v = value_of(3)
        assert agree(printed(t2.pretty, grammar, v), printed(t2.pretty, bare, v)), v
        assert agree(printed(st.pretty, compiled, v), printed(st.pretty, compiled_bare, v)), v
