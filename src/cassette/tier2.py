"""Format descriptors with failure and choice.

A `Descriptor2` still pairs a print side with a parse side over one
value stack, but every mismatch now flows to a failure continuation
instead of blowing up, and `choice` composes descriptors vertically.
That is enough to express full context-free grammars: leads lift prisms
onto the stack, `many`/`some` iterate, and `defer` ties recursive knots.
Like `+`, `|` flattens into one node; its unit `fail()` has no branches.

The engine is a defunctionalized form of the two-continuation string
transformers: instead of threading hand-written restoring continuations
it snapshots (remaining program, cursor, stack) at every choice point
and rewinds on failure to that snapshot alone, which restores exactly
the state those restoring continuations would rebuild.  All three parts
are persistent: the cursor is the input position when parsing and the
`_Output` emitted so far when printing, so nothing needs undoing.
Choice is unlimited backtracking; a failure after a choice succeeded
still rewinds into the untried branch.

A parse pushes no choice point that can only fail: one analysis per
grammar works out each node's first chars and whether it can succeed
without consuming, and each choice tries, at the next char, only the
branches that can succeed there.  It also refuses left recursion.  A
print mirrors it: each choice tries only the branches whose first leaf
to touch the stack may take the top value, by the value's key (see
`Prism`), and at a key that no branch admits, every branch, so misuse
still raises.

Failure is recoverable and silent; stack type errors are descriptor
misuse and raise `ContractViolation` through any amount of choice.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Sequence

from .values import (
    Char, ContractViolation, Int, Iso, List, Pair, Prism, Unit, Value,
    _NO_OUTPUT, _Output, cons_prism, key_of, nil_prism, stack_of,
)


class Descriptor2:
    """A print/parse pair with failure and choice.

    `a + b` splices (run a, then b); `a | b` tries a, falling back to b;
    `a >> b` is a synonym for `a + b`, read "lead into".
    """

    # (first chars, None for any; may succeed without consuming), set
    # when a leaf is built or by the grammar analysis
    __slots__ = ("info",)

    def __add__(self, other: "Descriptor2") -> "Descriptor2":
        return compose(self, other)

    __rshift__ = __add__

    def __or__(self, other: "Descriptor2") -> "Descriptor2":
        return choice(self, other)


def _entry(branches: tuple) -> Optional[tuple]:
    # the first branch and the rest reversed, which pop in order
    return (branches[0], branches[:0:-1]) if branches else None


class _Seq(Descriptor2):
    __slots__ = ("items",)

    def __init__(self, items: tuple):
        self.items = items
        self.info = None


class _Alt(Descriptor2):
    # `entry` tries every branch.  The analysis sets `table`, from the
    # next char to the entry of the branches worth parsing there, and
    # `other`, the entry at any other char and at the end of input.
    # `keyed`, set on the first print, is the same pair by the top value's
    # key, whose `other` tries the branches of unknown keys, else all.
    __slots__ = ("branches", "entry", "table", "other", "keyed")

    def __init__(self, branches: tuple):
        self.branches = branches
        self.entry = _entry(branches)
        self.info = self.table = self.other = self.keyed = None


# Leaves.  Each has a parse step and a print step of one shape,
# `(text, cursor, stack) -> (cursor, stack) | None`, None being failure.
# Parsing reads `text` at offset `cursor`; printing ignores `text`, and
# its cursor is the `_Output` so far, which it returns one chunk longer.


class _Satisfy(Descriptor2):
    __slots__ = ("pred", "label")

    def __init__(self, pred: Callable[[str], bool], label: str,
                 chars: Optional[str] = None):
        self.pred = pred
        self.label = label
        self.info = (None if chars is None else frozenset(chars), False)

    def parse_step(self, text, pos, stack):
        if pos < len(text) and self.pred(text[pos]):
            return pos + 1, stack.deliver(Char(text[pos]))
        return None

    def print_step(self, text, out, stack):
        v, rest = stack.pop()
        if not isinstance(v, Char):
            raise ContractViolation(f"{self.label} wants a Char, got {v!r}")
        if not self.pred(v.c):
            return None
        return _Output(v.c, out, out.size + 1), rest


class _Lit(Descriptor2):
    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text
        self.info = (frozenset(text[:1]), not text)

    def parse_step(self, text, pos, stack):
        if not text.startswith(self.text, pos):
            return None
        return pos + len(self.text), stack

    def print_step(self, text, out, stack):
        return _Output(self.text, out, out.size + len(self.text)), stack


class _PrismLead(Descriptor2):
    __slots__ = ("prism",)

    def __init__(self, prism: Prism):
        self.prism = prism
        self.info = (frozenset(), True)

    def parse_step(self, text, pos, stack):
        p = self.prism
        return pos, stack.open_frame(p.tag, p.arity, p.review)

    def print_step(self, text, out, stack):
        v, stack = stack.pop()
        components = self.prism.preview(v)
        if components is None:
            return None
        for c in reversed(components):
            stack = stack.push(c)
        return out, stack


class _Defer(Descriptor2):
    __slots__ = ("force",)

    def __init__(self, thunk: Callable[[], Descriptor2]):
        # construction is pure, so a racing first use is harmless
        self.force = functools.cache(thunk)
        self.info = None


# ---------------------------------------------------------------------------
# Constructors


def identity() -> Descriptor2:
    return _Seq(())


def compose(*descriptors: Descriptor2) -> Descriptor2:
    """Splice descriptors left to right.  Deferred parts stay deferred."""
    items = []
    for d in descriptors:
        if isinstance(d, _Seq):
            items.extend(d.items)
        else:
            items.append(d)
    return _Seq(tuple(items))


def choice(a: Descriptor2, b: Descriptor2) -> Descriptor2:
    """Try a; on any later failure before the next choice point, try b."""
    branches = ()
    for d in (a, b):
        branches += d.branches if isinstance(d, _Alt) else (d,)
    return _Alt(branches)


def fail() -> Descriptor2:
    """Always fails: the choice with no branches, the unit of `|`."""
    return _Alt(())


def optional(p: Descriptor2) -> Descriptor2:
    """Apply a descriptor if it matches, otherwise do nothing."""
    return p | identity()


def satisfy(pred: Callable[[str], bool], label: str = "satisfy",
            chars: Optional[str] = None) -> Descriptor2:
    """One char that `pred` accepts.  `chars`, if given, must hold every
    char `pred` accepts: parsing then skips a branch opening with this
    satisfy at any other char.  Without it no char is ruled out."""
    return _Satisfy(pred, label, chars)


def char() -> Descriptor2:
    return satisfy(lambda c: True, "char")


def is_ascii_digit(c: str) -> bool:
    return "0" <= c <= "9"


def digit_iso() -> Iso:
    """A one-digit Int against its decimal character."""
    def to(v: Value) -> Value:
        if not isinstance(v, Int):
            raise ContractViolation(f"digit wants an Int, got {v!r}")
        if not 0 <= v.n <= 9:
            raise ContractViolation(f"digit wants 0 to 9, got {v!r}")
        return Char(str(v.n))

    def from_(v: Value) -> Value:
        assert isinstance(v, Char)
        return Int(int(v.c))

    return Iso("digit", to, from_)


def digit() -> Descriptor2:
    return iso_lift(digit_iso()) + satisfy(is_ascii_digit, "digit",
                                           "0123456789")


def lit(text: str) -> Descriptor2:
    return _Lit(text)


def _unit_components(v: Value) -> tuple:
    # a non-Unit is misuse, not a failed match
    if not isinstance(v, Unit):
        raise ContractViolation(f"lit_unit wants a Unit, got {v!r}")
    return ()


_UNIT_LEAD = _PrismLead(Prism("unit", 0, _unit_components, lambda xs: Unit()))


def lit_unit(text: str) -> Descriptor2:
    """Like `lit`, but also consumes/produces one Unit value, so that
    leads of constant constructors have something to hand over."""
    return _UNIT_LEAD + lit(text)


def iso_lift(iso: Iso) -> Descriptor2:
    """Map the top value through an iso: a prism lead that always matches."""
    return _PrismLead(iso)


def prism_lead(prism: Prism) -> Descriptor2:
    """Lift a prism: print deconstructs (and may fail), parse rebuilds."""
    return _PrismLead(prism)


def _pair_components(v: Value) -> tuple:
    # a non-Pair is misuse, not a failed match
    if not isinstance(v, Pair):
        raise ContractViolation(f"pair lead wants a Pair, got {v!r}")
    return v.first, v.second


def pair_lead() -> Descriptor2:
    return _PrismLead(Prism("pair", 2, _pair_components,
                            lambda xs: Pair(xs[0], xs[1])))


def cons_lead() -> Descriptor2:
    return prism_lead(cons_prism())


def nil_lead() -> Descriptor2:
    return prism_lead(nil_prism())


def defer(thunk: Callable[[], Descriptor2]) -> Descriptor2:
    """Delay construction until first use; this is how grammars recurse."""
    return _Defer(thunk)


def many(p: Descriptor2) -> Descriptor2:
    """Zero or more p, collected into a List.  Greedy, backtrackable.

    p must consume input when it succeeds: recursion must stay behind
    at least one consuming descriptor, and parsing refuses left
    recursion.
    """
    d = defer(lambda: (cons_lead() + p + d) | nil_lead())
    return d


def some(p: Descriptor2) -> Descriptor2:
    """One or more p, collected into a List."""
    return cons_lead() + p + many(p)


def int_text_iso() -> Iso:
    """An Int against the List of its decimal digit characters."""
    def to(v: Value) -> Value:
        if not isinstance(v, Int):
            raise ContractViolation(f"integer wants an Int, got {v!r}")
        return List(tuple(Char(c) for c in str(v.n)))

    def from_(v: Value) -> Value:
        assert isinstance(v, List)
        return Int(int("".join(c.c for c in v.items)))

    return Iso("int", to, from_)


def integer() -> Descriptor2:
    """A maximal non-empty digit run as a non-negative Int."""
    return iso_lift(int_text_iso()) + some(satisfy(is_ascii_digit, "digit",
                                                   "0123456789"))


# ---------------------------------------------------------------------------
# The grammar analysis
#
# A node's `info` follows from its heads, the parts that start where it
# starts: one depth-first walk over heads works it out, and a node met
# again on its own path is left recursion.  A node with its `info` was
# analysed with all it reaches, so a later walk stops there.

_ANY = (None, True)  # what is known of a node that is no descriptor


def _guard(branches: tuple, infos: list) -> tuple:
    """A choice's (table, other): a branch that must consume and has
    known first chars is tried at those chars only."""
    table, other = {}, ()  # char -> the branches tried there, in order
    for branch, (first, nullable) in zip(branches, infos):
        if first is None or nullable:
            other += (branch,)
            for c in table:
                table[c] += (branch,)
        else:
            for c in first:
                table[c] = table.get(c, other) + (branch,)
    for c in table:
        table[c] = _entry(table[c])
    return table, _entry(other)


def _visit(node, found: dict, todo: list) -> tuple:
    """The `info` of `node`.  `found` holds the walk's results, and None
    for the nodes on the current path; `todo` gets the parts that start
    later."""
    info = getattr(node, "info", _ANY) or found.get(node, False)
    if info:
        return info
    if info is None:
        raise ContractViolation(
            "left recursion: a defer reaches itself without consuming input")
    found[node] = None
    kind = type(node)
    parts = (node.items if kind is _Seq else node.branches if kind is _Alt
             else (node.force(),))
    got, first, nullable = [], frozenset(), kind is _Seq
    for part in parts:
        got.append(_visit(part, found, todo))
        f, n = got[-1]
        first = None if first is None or f is None else first | f
        if kind is not _Seq:
            nullable = nullable or n
        elif not n:
            nullable = False
            todo.extend(parts[len(got):])
            break
    if kind is _Alt:
        node.table, node.other = _guard(parts, got)
    found[node] = first, nullable
    return found[node]


def _analyse(root) -> None:
    """Give every node under `root` its `info` and every choice its guard,
    unless done.  Left recursion raises `ContractViolation` and sets no
    `info`, so every later walk refuses it again."""
    if getattr(root, "info", _ANY) is not None:
        return
    found, todo = {}, [root]
    while todo:
        _visit(todo.pop(), found, todo)
    for node, info in found.items():
        node.info = info


def _keys(node, seen: dict):
    """The keys of the first leaf under `node` that touches the stack: a
    frozenset, None if unknown, or False if no leaf does (lits only).
    `seen` holds the walk's results, and None for the nodes on its path,
    so a cycle is unknown, as an iso is."""
    kind = type(node)
    if kind is _Lit:
        return False
    if kind is _Satisfy:
        return frozenset([Char])
    if kind is _PrismLead:
        return node.prism.keys
    if node not in seen:
        seen[node] = None
        if kind is _Seq:
            heads = (_keys(item, seen) for item in node.items)
            seen[node] = next((k for k in heads if k is not False), False)
        elif kind is _Alt:  # unknown if a branch is, or touches nothing
            found = [_keys(branch, seen) for branch in node.branches]
            seen[node] = frozenset().union(*found) if all(found) else None
        elif kind is _Defer:
            seen[node] = _keys(node.force(), seen)
    return seen[node]


def _keyed(node: _Alt) -> tuple:
    """`node.keyed`, worked out once: a branch whose keys are known is
    tried only at those keys."""
    seen = {}
    infos = [(_keys(b, seen) or None, False) for b in node.branches]
    table, other = _guard(node.branches, infos)
    node.keyed = table, other or node.entry
    return node.keyed


# ---------------------------------------------------------------------------
# The machine
#
# The remaining program is a cons list of nodes; a choice point snapshots
# (program, cursor, stack), and failure rewinds to that snapshot.

_LEAVES = (_Satisfy, _Lit, _PrismLead)
_PARSE_STEPS = {leaf: leaf.parse_step for leaf in _LEAVES}
_PRINT_STEPS = {leaf: leaf.print_step for leaf in _LEAVES}


def _run(d: Descriptor2, steps: dict, text, cursor, stack) -> Optional[tuple]:
    work = (d, None)
    alts = []
    while True:
        if work is None:
            return cursor, stack
        node, work = work
        kind = type(node)
        step = steps.get(kind)
        if step is not None:
            moved = step(node, text, cursor, stack)
            if moved is not None:
                cursor, stack = moved
                continue
        elif kind is _Seq:
            for item in reversed(node.items):
                work = (item, work)
            continue
        elif kind is _Alt:
            if text is not None:
                entry = node.table.get(
                    text[cursor] if cursor < len(text) else "", node.other)
            else:
                table, other = node.keyed or _keyed(node)
                entry = table.get(key_of(stack.entry), other)
            if entry is not None:  # no branch to try is failure
                for branch in entry[1]:
                    alts.append(((branch, work), cursor, stack))
                work = (entry[0], work)
                continue
        elif kind is _Defer:
            work = (node.force(), work)
            continue
        else:
            raise ContractViolation(f"not a descriptor: {node!r}")
        # failure: rewind to the newest choice point
        if not alts:
            return None
        work, cursor, stack = alts.pop()


def run_parse(d: Descriptor2, text: str,
              seed: Sequence[Value] = ()) -> Optional[tuple]:
    """Parse a prefix of `text`; (end position, final stack) or None."""
    _analyse(d)
    return _run(d, _PARSE_STEPS, text, 0, stack_of(seed))


def run_print(d: Descriptor2, seed: Sequence[Value] = ()) -> Optional[tuple]:
    """Print from a seeded stack; (emitted text, final stack) or None."""
    result = _run(d, _PRINT_STEPS, None, _NO_OUTPUT, stack_of(seed))
    if result is None:
        return None
    return result[0].text(), result[1]


def parse(d: Descriptor2, text: str) -> Optional[Value]:
    """Parse one value.  Trailing unconsumed input is ignored."""
    result = run_parse(d, text)
    if result is None:
        return None
    _, stack = result
    values = stack.values()
    if len(values) != 1:
        raise ContractViolation(
            f"descriptor is not unary: parse left {len(values)} values")
    return values[0]


def pretty(d: Descriptor2, v: Value) -> Optional[str]:
    """Print one value to its canonical text."""
    result = run_print(d, [v])
    if result is None:
        return None
    text, stack = result
    if not stack.is_empty():
        raise ContractViolation(
            f"descriptor is not unary: print left {stack.size} values")
    return text
