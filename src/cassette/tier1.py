"""Choice-free format descriptors.

A `Descriptor1` is a run of tier-2 leaves over one value stack: the
print side pops arguments and emits text, the parse side consumes text
and pushes values.  Composition splices runs.  There is no choice, so
the runners are straight-line loops over the leaves' own steps, and any
mismatch raises `ContractViolation` at the first leaf that fails.

Of the two ways to type the parse side of such descriptors, this engine
realizes the one that instantiates the printing answer types with
flipped polarities; the naive flip of the top-most arrow composes its
results in reverse order and is not implemented.
"""

from __future__ import annotations

from typing import Callable, Sequence

from . import tier2
from .tier2 import _Lit, _Satisfy, digit_iso, is_ascii_digit
from .values import (
    ContractViolation, Iso, Value, _NO_OUTPUT, stack_of, EMPTY_STACK,
)


class Descriptor1:
    """A splice-able run of tier-2 leaves, without choice.  `_owners`
    holds, per node, the argument whose value it pops: a satisfy or a
    lead pops the top value, and a lead of k components pushes k values
    of the argument it took apart.  `_need` is the number of arguments
    popped in all, and `arity` that number less the components no leaf
    pops.  All three are worked out once, when the run is built."""

    __slots__ = ("nodes", "arity", "_need", "_owners")

    def __init__(self, nodes: tuple):
        self.nodes = nodes
        need, owners, left = 0, [], []  # left: unpopped components' owners, top last
        for node in nodes:
            nth = None
            if type(node) is not _Lit:
                if not left:  # the top value is the next argument
                    need += 1
                    left.append(need)
                nth = left.pop()
                if type(node) is not _Satisfy:  # a lead pushes components
                    left += [nth] * node.prism.arity
            owners.append(nth)
        self._owners = tuple(owners)
        self._need = need
        self.arity = need - len(left)

    def __add__(self, other: "Descriptor1") -> "Descriptor1":
        return compose(self, other)


# ---------------------------------------------------------------------------
# Public constructors


def identity() -> Descriptor1:
    """The empty splice: emits nothing, consumes nothing."""
    return Descriptor1(())


def compose(*descriptors: Descriptor1) -> Descriptor1:
    """Splice descriptors; both sides run left to right."""
    return Descriptor1(tuple(node for d in descriptors for node in d.nodes))


def satisfy(pred: Callable[[str], bool], label: str = "satisfy") -> Descriptor1:
    """One character passing `pred`: parse pushes it, print pops it."""
    return Descriptor1((tier2.satisfy(pred, label),))


def lit(text: str) -> Descriptor1:
    """A fixed literal; touches no values."""
    return Descriptor1((tier2.lit(text),))


def iso_lift(iso: Iso) -> Descriptor1:
    """Map the value at the top of the stack through an isomorphism."""
    return Descriptor1((tier2.iso_lift(iso),))


def pair_lead() -> Descriptor1:
    """Split a Pair into its components (print) or rebuild one (parse)."""
    return Descriptor1((tier2.pair_lead(),))


def char() -> Descriptor1:
    return satisfy(lambda c: True, "char")


def digit() -> Descriptor1:
    return iso_lift(digit_iso()) + satisfy(is_ascii_digit, "digit")


def nth_char_format() -> Descriptor1:
    """The demo format: ``"<n>-th character after <c> is <c>"``."""
    return (digit() + lit("-th character after ") + char()
            + lit(" is ") + char())


# ---------------------------------------------------------------------------
# Runners


def sprintf(d: Descriptor1, args: Sequence[Value]) -> str:
    """Run the print side over `args`, first format slot first."""
    if len(args) != d.arity:
        raise ContractViolation(
            f"descriptor takes {d.arity} arguments, got {len(args)}")
    if d._need > d.arity:  # a leaf would pop what no lead has pushed yet
        raise ContractViolation(
            f"descriptor needs {d._need} arguments while printing, "
            f"got {len(args)}")
    out = _NO_OUTPUT
    stack = stack_of(args)
    for k, node in enumerate(d.nodes):
        try:
            moved = node.print_step(None, out, stack)
            if moved is None:  # only a satisfy whose predicate rejects fails
                raise ContractViolation(
                    f"{stack.entry.c!r} does not satisfy {node.label}")
        except ContractViolation as e:
            if type(node) is not _Satisfy or stack.is_empty():
                raise  # lead misuse, or an underflow that no argument owns
            raise ContractViolation(f"argument {d._owners[k]}: {e}") from None
        out, stack = moved
    if not stack.is_empty():
        raise ContractViolation(
            f"{stack.size} unconsumed arguments after printing")
    return out.text()


def sscanf(d: Descriptor1, text: str) -> tuple:
    """Run the parse side; extracted values come back in textual order.

    Input beyond what the descriptor consumes is ignored.
    """
    pos = 0
    stack = EMPTY_STACK
    for node in d.nodes:
        moved = node.parse_step(text, pos, stack)
        if moved is None:
            raise ContractViolation(_scan_failure(node, text, pos))
        pos, stack = moved
    return tuple(reversed(stack.values()))


def _scan_failure(node, text: str, pos: int) -> str:
    """The message for a literal or satisfy leaf that failed at `pos`."""
    if type(node) is _Lit:
        found = text[pos:pos + len(node.text)]
        return f"literal {node.text!r}: found {found!r} at offset {pos}"
    if pos >= len(text):
        return f"{node.label}: ran out of input"
    return f"{node.label}: unexpected {text[pos]!r} at offset {pos}"
