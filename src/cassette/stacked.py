"""Indexed-monadic format descriptors.

The third engine drops the symmetric cassette shape: an action pairs a
continuation-passing printer with a plain forward parser, and the two
sides are sequenced together monadically.  Stack shapes before and
after printing are the indices of the monad; the parse side carries its
result as the monadic value and ignores the stack entirely.

Printing is an effect added to continuations through an output comonad:
a continuation is wrapped together with the text emitted so far
(`TracedK`), `extend` threads that prefix through sequencing, and
`trace` appends one more chunk.  The continuation is uncurried, as in
Danvy's functional unparsing: `fn(out, value, failure) -> answer`
takes the output, the value and the failure answer in one call.  A
plain monad-transformer continuation cannot express the stack
operations: with a continuation of type ``() -> m r`` there is no stack
value to hand to a rewriting function, and anything printed would have
to be chosen before the popped value is seen.  Wrapping the
continuation in a comonad is what makes `pop` possible at all, which is
why both variants here are built on it.  The text so far is the
persistent chunk cons `_Output` that tiers 1 and 2 print into as well;
the runners join it once, at the end of a run, so emitting a chunk
copies no earlier output.

The typed presentation gives the stack abstraction two signatures; in
this dynamic port they share one machine, whose print sides all take a
wrapped continuation and a failure answer:

* `Choice`  -- alternatives compose as a monoid at every index, and
  stack rewrites carry an unrolling function that restores popped
  values when a later alternative retries.
* `Linear`  -- the failure-free fragment, as tier 1 is tier 2's
  choice-free one: no `|`, and leaves raise on a mismatch, so the
  failure answer is threaded but never taken.

Answers (the things continuations return) are realized as computations
that consume the runtime value stack.  `consume` and `supply` convert
between "function of the top value" and "answer", which is all the
curried answer types of the typed presentation amount to.  The leaves
that pop, the prism lead and `satisfy`, are each one answer: they pop
in place, and on a mismatch hand the failure answer the stack unpopped.

Actions are staged: all sequencing is one n-ary run (`_sequence`) that
wires its actions' sides together once, when it is built, and leaves
print and match directly, literals whole.  `ap`, `left`, `right` and
`map` are runs of one or two actions, and a prism lead with the items
that supply its components is one run.  Running a grammar built from
these builds no further actions; only `bind` makes its next action per
value.  `from_descriptor` builds them from a tier-2 descriptor, once.
A print run makes no reference cycles, so what it allocates is freed by
reference counting as soon as the run returns.  Until then it is all
live down the continuation chain, and every full collection of the
cyclic collector rescans it, so the print path allocates little: about
17 tracked objects per printed char of a long identifier.
"""

from __future__ import annotations

import functools
import sys
import threading
from typing import Callable, Optional, Sequence

from .tier2 import (Descriptor2, _Alt, _analyse, _Defer, _keyed, _Lit,
                    _PrismLead, _Satisfy, _Seq, digit_iso, is_ascii_digit)
from .values import (
    Char, ContractViolation, List, Pair, Prism, Stack, Unit, Value,
    _NO_OUTPUT, _Output, cons_prism, key_of, nil_prism, stack_of,
)

_UNIT = Unit()

# An Answer consumes a stack and produces the run's final outcome.
Answer = Callable[[Stack], object]


def _no_print(stack: Stack) -> None:
    """A print run's first failure answer.  Nothing is left to retry
    after it, so the leaves that restore the stack pass it on as is."""


def consume(f: Callable[[Value], Answer]) -> Answer:
    """The answer that pops the top value and continues as f(value)."""
    def answer(stack: Stack):
        v, rest = stack.pop()
        return f(v)(rest)
    return answer


def supply(answer: Answer, v: Value) -> Answer:
    """Apply an answer to a value, i.e. hand it one pre-pushed argument."""
    return lambda stack: answer(stack.push(v))


class TracedK:
    """A value continuation wrapped with the output emitted so far.

    Realizes the output comonad over continuations as an explicit
    (prefix, continuation) pair.  The continuation is uncurried:
    `fn(out, value, failure) -> answer` takes the total output, the
    value and the failure answer at once.  `extract` closes the output,
    `extend` lets a sequenced action observe and grow it, and `trace`
    returns the continuation with one more chunk emitted.  The output is
    an `_Output` chunk cons, so `trace` copies no text; the runners join
    it once, at the end of a run.
    """

    __slots__ = ("fn", "prefix")

    def __init__(self, fn: Callable[[_Output, Value, Answer], Answer],
                 prefix: _Output = _NO_OUTPUT):
        self.fn = fn
        self.prefix = prefix

    def extract(self):
        fn, prefix = self.fn, self.prefix
        return lambda value, failure: fn(prefix, value, failure)

    def extend(self, h) -> "TracedK":
        fn = self.fn
        return TracedK(
            lambda total, value, failure: h(TracedK(fn, total))(value, failure),
            self.prefix)

    def trace(self, chunk: str) -> "TracedK":
        prefix = self.prefix
        return TracedK(self.fn,
                       _Output(chunk, prefix, prefix.size + len(chunk)))


def _resume(wk: TracedK, value, failure: Answer) -> Answer:
    """Continue with a value: `wk`'s continuation, at its output."""
    return wk.fn(wk.prefix, value, failure)


# Closures made while printing take what they use as default arguments,
# not as closure cells.  Each one stays live down the continuation chain
# until the run returns, and a function with defaults is two tracked
# objects, itself and its defaults, where one that closes over n fresh
# cells is n + 2.


def _pop_char(v: Value, label: str) -> str:
    if not isinstance(v, Char):
        raise ContractViolation(f"{label} wants a Char, got {v!r}")
    return v.c


class _Action:
    """An action of either variant: `pr(wrapped_continuation,
    failure_answer) -> answer` prints, `pa(text, i) -> (result, i')`
    parses.  `map`, `ap`, `left` and `right` are each one `_sequence`
    run, which wires the actions' sides together when it is built.  A
    prism lead's run keeps `lead`, the `(prism, then)` its print matches.

    `a @ b` applies, `a << b` keeps the left result, `a >> b` the right.
    """

    __slots__ = ("pr", "pa", "lead")

    def __init__(self, pr, pa, lead=None):
        self.pr = pr
        self.pa = pa
        self.lead = lead

    @classmethod
    def ret(cls, x):
        return _sequence(cls, (), lambda _got: x)

    def bind(self, f: Callable[[object], "_Action"]):
        def pr(wk, fl):
            return self.pr(
                wk.extend(lambda wk2: lambda x, fl2: f(x).pr(wk2, fl2)),
                fl)

        def pa(s, i):
            r = self.pa(s, i)
            if r is None:
                return None
            a, j = r
            return f(a).pa(s, j)

        return type(self)(pr, pa)

    def map(self, g):
        return _sequence(type(self), ((self, True),), lambda got: g(got[0]))

    def ap(self, other):
        return _sequence(type(self), ((self, True), (other, True)),
                         lambda got: got[0](got[1]))

    def left(self, other):
        return _sequence(type(self), ((self, True), (other, False)), _only)

    def right(self, other):
        return _sequence(type(self), ((self, False), (other, True)), _only)

    __matmul__ = ap
    __lshift__ = left
    __rshift__ = right


class Linear(_Action):
    """An indexed action without failure: `Choice`'s fragment with no `|`.

    Its leaves raise `ContractViolation` on a mismatch instead of taking
    the failure answer, so the print side threads that answer through
    but never takes it, and the parse side never returns None.
    """

    __slots__ = ()


class Choice(_Action):
    """An indexed action with failure and choice.

    The print side may take its failure answer, the parse side may
    return None.  `a | b` falls back to b on failure of a, restoring
    input, output and stack.

    Choice is committed on the parse side, as in a PEG: once `a` has
    parsed, `a | b` never tries `b`, even if what follows `a | b` then
    fails.  So `(alt_lit("a") | alt_lit("ab")) >> alt_lit("c")` rejects
    "abc", which tier 2, backtracking into every alternative, accepts.
    The print side retries `b` on any later failure.  Grammars whose
    alternatives start with different chars, like the λ grammar, are
    unaffected.
    """

    __slots__ = ()

    # an entry of Choice's own, so that building a Choice can be wrapped
    # without wrapping Linear
    __init__ = _Action.__init__

    @staticmethod
    def fail() -> "Choice":
        return Choice(lambda wk, fl: fl, lambda s, i: None)

    def alt(self, other: "Choice") -> "Choice":
        pr1, pa1, pr2, pa2 = self.pr, self.pa, other.pr, other.pa

        def pr(wk, fl):
            # the untried branch is the failure answer of the first one;
            # built lazily so cyclic grammars stay finite
            return pr1(wk, lambda stack, pr2=pr2, wk=wk, fl=fl:
                       pr2(wk, fl)(stack))

        def pa(s, i):
            r = pa1(s, i)
            return r if r is not None else pa2(s, i)

        return Choice(pr, pa)

    __or__ = alt


# ---------------------------------------------------------------------------
# Leaves of both variants


def _parse_nothing(s, i):
    return Unit(), i


def _shift(cls, f):
    """f(success: failure answer -> answer, failure: answer) -> answer;
    unit result, parse no-op."""
    return cls(lambda wk, fl:
               f(lambda fl2, wk=wk: _resume(wk, _UNIT, fl2), fl),
               _parse_nothing)


def _shiftw(cls, f):
    """Like `_shift` but hands f the full value continuation.  Print side
    only."""
    def pa(s, i):
        raise ContractViolation("this action has no parse side")

    return cls(lambda wk, fl: f(wk.extract(), fl), pa)


def _emit(chunk: str):
    """The print side that appends `chunk` to the output."""
    return lambda wk, fl: _resume(wk.trace(chunk), _UNIT, fl)


def _curried(build: Callable[[tuple], Value], arity: int):
    def step(got):
        if len(got) == arity:
            return build(got)
        return lambda v: step(got + (v,))
    return step(())


def _unroll(prism: Prism, fl: Answer) -> Answer:
    """The failure answer after a match of `prism`: pop the components
    the match pushed, rebuild the value and hand it to fl."""
    def answer(stack, prism=prism, fl=fl):
        got = []
        for _ in range(prism.arity):
            v, stack = stack.pop()
            got.append(v)
        return fl(stack.push(prism.review(got)))
    return answer


def _by_key(table: dict, other):
    """The print side whose answer runs what `table` holds at the top
    value's key, and `other` at any other key: a print side, or the
    `(prism, then)` of a prism lead.  A lead's answer pops the top
    value; if `prism` matches it, the components are pushed, the first
    on top, and the answer goes on as `then(wk, failure)`, else fl gets
    the stack unpopped.  `then` runs only after the match: before it,
    anything the rest emits would be emitted by a branch that fails."""
    def pr(wk, fl):
        def answer(stack, wk=wk, fl=fl, table=table, other=other):
            got = table.get(key_of(stack.entry), other) if table else other
            if type(got) is not tuple:
                return got(wk, fl)(stack)
            prism, then = got
            v, rest = stack.pop()
            components = prism.preview(v)
            if components is None:
                return fl(stack)
            for c in reversed(components):
                rest = rest.push(c)
            return then(wk, fl if fl is _no_print else _unroll(prism, fl))(rest)
        return answer
    return pr


def _only(got: tuple) -> Value:
    """The one value a sequence collected, or Unit if it collected none."""
    return got[0] if got else _UNIT


def _sequence(cls, items: Sequence[tuple], finish,
              prism: Optional[Prism] = None):
    """The actions of `items` run in order, as one action whose result
    is `finish` of their values.  `items` pairs each action with whether
    it yields a value; the values are collected in a tuple, in order.
    The print side makes one continuation per item and the parse side is
    one loop.  A run of no items is `ret` of its result, worked out once,
    when it is built.

    With a `prism` the run is that prism's lead: its print side matches
    the top value first, through `_by_key`, the items supply the
    components, and `finish` rebuilds the value from them.  A `Linear`
    run has no failure answer to take, so as a `Linear` a lead is sound
    only for prisms that always match, such as an `Iso`."""
    steps = tuple((action.pr, action.pa, yields) for action, yields in items)
    if not steps:
        result = finish(())

        def pr(wk, fl):
            return _resume(wk, result, fl)

        def pa(s, i):
            return result, i
    else:
        last = len(steps) - 1

        def run(i, got, fn, out, fl):
            # steps[i] at `out`, with `got` the values so far, then the
            # next step; past the last one, finish
            if i > last:
                return fn(out, finish(got), fl)
            pr1, _, yields = steps[i]

            def then(out2, r, fl2, i=i, got=got, fn=fn, yields=yields, run=run):
                return run(i + 1, got + (r,) if yields else got, fn, out2, fl2)
            return pr1(TracedK(then, out), fl)

        def pr(wk, fl):
            return run(0, (), wk.fn, wk.prefix, fl)

        def pa(s, i):
            got = ()
            for _, pa1, yields in steps:
                r = pa1(s, i)
                if r is None:
                    return None
                if yields:
                    got += (r[0],)
                i = r[1]
            return finish(got), i

    if prism is None:
        return cls(pr, pa)
    return cls(_by_key({}, (prism, pr)), pa, (prism, pr))


# ---------------------------------------------------------------------------
# Linear leaves


def lin_stack_map(rewrite: Callable[[Answer], Answer]) -> Linear:
    """Rewrite the print-side stack; `rewrite` maps the continuation's
    answer over the stack it expects.  Unit result, parse no-op."""
    return _shift(Linear, lambda k, fl: rewrite(k(fl)))


def lin_push(v: Value) -> Linear:
    """Print side pushes v; parse side does nothing."""
    return lin_stack_map(lambda k: supply(k, v))


def lin_pop_() -> Linear:
    """Print side drops the top value; parse side does nothing."""
    return lin_stack_map(lambda k: consume(lambda _v: k))


def lin_pop() -> Linear:
    """Print side pops and returns the top value.  Print side only."""
    return _shiftw(Linear, lambda k, fl: consume(lambda a: k(a, fl)))


def lin_curry_stack() -> Linear:
    """Replace the two top print-stack values a, b by Pair(a, b)."""
    return lin_stack_map(
        lambda k: consume(lambda a: consume(lambda b: supply(k, Pair(a, b)))))


def lin_emit(chunk: str) -> Linear:
    """Append text to the print output; parse side does nothing."""
    return Linear(_emit(chunk), _parse_nothing)


def lin_satisfy(pred: Callable[[str], bool], label: str = "satisfy") -> Linear:
    """Print pops a Char and emits it; parse consumes one passing char.
    A char the predicate rejects is a violation on both sides."""
    def pr(wk, fl):
        def answer(stack, wk=wk, fl=fl, pred=pred, label=label):
            c, rest = stack.pop()
            if not pred(_pop_char(c, label)):
                raise ContractViolation(f"{c.c!r} does not satisfy {label}")
            return _resume(wk.trace(c.c), c, fl)(rest)
        return answer

    def pa(s, i):
        if i < len(s) and pred(s[i]):
            return Char(s[i]), i + 1
        found = s[i] if i < len(s) else "end of input"
        raise ContractViolation(f"{label}: unexpected {found!r} at offset {i}")

    return Linear(pr, pa)


def lin_lit(text: str) -> Linear:
    """A literal, printed and matched whole, so no argument is needed.
    Unit result.  A mismatch names the first char that differs."""
    if not text:
        return Linear.ret(Unit())

    def pa(s, i):
        if s.startswith(text, i):
            return Unit(), i + len(text)
        j = i
        while j < len(s) and s[j] == text[j - i]:
            j += 1
        found = s[j] if j < len(s) else "end of input"
        raise ContractViolation(
            f"lit {text[j - i]!r}: unexpected {found!r} at offset {j}")

    return Linear(_emit(text), pa)


def lin_char() -> Linear:
    return lin_satisfy(lambda c: True, "char")


def lin_digit() -> Linear:
    """One decimal digit as an Int."""
    iso = digit_iso()
    return _sequence(Linear, ((lin_satisfy(is_ascii_digit, "digit"), True),),
                     iso.review, iso)


def nth_char_format() -> Linear:
    """The demo format, with its result packaged as a three-element List."""
    return _sequence(Linear, ((lin_digit(), True),
                              (lin_lit("-th character after "), False),
                              (lin_char(), True),
                              (lin_lit(" is "), False),
                              (lin_char(), True)), List)


# ---------------------------------------------------------------------------
# Choice leaves


def alt_push(v: Value) -> Choice:
    """Push on the print side; on later failure the value is dropped again."""
    return _shift(Choice, lambda k, fl: supply(k(consume(lambda _v: fl)), v))


def alt_pop_() -> Choice:
    """Drop the print-side top; on later failure it is pushed back."""
    return _shift(Choice, lambda k, fl: consume(lambda a: k(supply(fl, a))))


def alt_pop() -> Choice:
    """Pop and return the print-side top; restored on later failure."""
    return _shiftw(Choice,
                   lambda k, fl: consume(lambda a: k(a, supply(fl, a))))


def alt_stack_guard(rewrite, unroll) -> Choice:
    """A matching stack rewrite for the print side.

    `rewrite(failure, success)` builds the answer that deconstructs the
    top of the stack, handing components to `success` or declaring
    failure; `unroll(failure)` rebuilds the original stack from the
    components if a later alternative has to retry.
    """
    return _shift(Choice, lambda k, fl: rewrite(fl, k(unroll(fl))))


def alt_emit(chunk: str) -> Choice:
    return Choice(_emit(chunk), _parse_nothing)


def alt_satisfy(pred, label: str = "satisfy") -> Choice:
    """Print pops a Char and emits it; either side fails recoverably on
    a char the predicate rejects."""
    def pr(wk, fl):
        def answer(stack, wk=wk, fl=fl, pred=pred, label=label):
            c, rest = stack.pop()
            if not pred(_pop_char(c, label)):
                return fl(stack)
            # a later failure hands fl the stack this answer was given
            return _resume(wk.trace(c.c), c, fl if fl is _no_print else
                           lambda _rest, fl=fl, stack=stack: fl(stack))(rest)
        return answer

    def pa(s, i):
        if i < len(s) and pred(s[i]):
            return Char(s[i]), i + 1
        return None

    return Choice(pr, pa)


def alt_lit(text: str) -> Choice:
    """A literal, printed and matched whole; Unit result."""
    if not text:
        return Choice.ret(Unit())

    def pa(s, i):
        return (Unit(), i + len(text)) if s.startswith(text, i) else None

    return Choice(_emit(text), pa)


def alt_defer(thunk: Callable[[], Choice]) -> Choice:
    """Delay construction until first use, for recursive grammars."""
    force = functools.cache(thunk)
    return Choice(lambda wk, fl: force().pr(wk, fl),
                  lambda s, i: force().pa(s, i))


def alt_prism_lead(prism: Prism) -> Choice:
    """Lift a prism: the print side deconstructs the top value into its
    components (or fails over), the parse side returns the curried
    constructor for the results that follow."""
    return _sequence(Choice, (),
                     lambda _got: _curried(prism.review, prism.arity), prism)


def alt_cons_lead() -> Choice:
    return alt_prism_lead(cons_prism())


def alt_many(p: Choice) -> Choice:
    """Zero or more p as a List."""
    d = alt_defer(lambda: alt_some_with(p, d) | alt_prism_lead(nil_prism()))
    return d


def alt_some_with(p: Choice, rest: Choice) -> Choice:
    cons = cons_prism()
    return _sequence(Choice, ((p, True), (rest, True)), cons.review, cons)


def alt_some(p: Choice) -> Choice:
    """One or more p as a List."""
    return alt_some_with(p, alt_many(p))


def from_descriptor(d: Descriptor2) -> Choice:
    """The `Choice` of a tier-2 descriptor, wired once, when it is built.

    Leaves become `alt_lit` and `alt_satisfy`, a defer `alt_defer` and a
    choice `|`.  In a sequence a prism lead opens, a later item joins the
    innermost open lead, and a full lead closes as one value.  Every
    closed frame is one `_sequence` run: a lead with the items that
    supply its components, and a sequence of several items with the one
    value it yields, or Unit.
    Print-side choice tries only the branches that the tier-2 print
    table admits at the top value's key, in order (see `_choose`).
    Parse-side choice stays committed (see `Choice`) and tries only the
    branches that the tier-2 guard admits at the next char, in order; a
    left-recursive grammar raises when parsed.  Refuses, with
    `ContractViolation`, a choice whose branches yield unequal numbers of
    values, a sequence that yields two, a defer that yields other than
    one, and a lead short of components.
    """
    refuse = _refusal(d)
    defers = {}

    def compile_(node):  # (action, the number of values it yields)
        kind = type(node)
        if kind is _Lit:
            return alt_lit(node.text), 0
        if kind is _Satisfy:
            return alt_satisfy(node.pred, node.label), 1
        if kind is _Alt:
            compiled = list(map(compile_, node.branches)) or [(Choice.fail(), 1)]
            actions, counts = zip(*compiled)
            if len(set(counts)) > 1:
                raise ContractViolation(f"choice branches yield {counts} values")
            return _choose(node, actions, refuse), counts[0]
        if kind is _Defer:
            if node not in defers:
                defers[node] = alt_defer(lambda: body)
                body, count = compile_(node.force())
                if count != 1:
                    raise ContractViolation(f"a defer yields {count} values")
            return defers[node], 1
        if kind is not _Seq and kind is not _PrismLead:
            raise ContractViolation(f"not a descriptor: {node!r}")
        # [prism, values wanted, (action, yields) items]: the sequence,
        # then the open leads
        open_ = [[None, 1, []]]
        for item in node.items if kind is _Seq else (node,):
            if type(item) is _PrismLead:
                open_.append([item.prism, item.prism.arity, []])
            else:
                join(open_[-1], *compile_(item))
            while len(open_) > 1 and not open_[-1][1]:
                prism, _, items = open_.pop()
                join(open_[-1], _sequence(Choice, items, prism.review, prism), 1)
        if len(open_) > 1:
            raise ContractViolation(f"a lead lacks {open_[-1][1]} components")
        _, wanted, items = open_[0]
        if len(items) == 1:
            return items[0][0], 1 - wanted
        return _sequence(Choice, items, _only), 1 - wanted

    def join(frame, action, count):
        if count > frame[1]:
            raise ContractViolation("a sequence yields two values outside a lead")
        frame[1] -= count
        frame[2].append((action, count == 1))

    action = compile_(d)[0]
    return Choice(action.pr, refuse) if refuse else action


def _refusal(d: Descriptor2):
    """None, or for a left-recursive grammar, which still prints, a parse
    side that walks it again, which raises."""
    try:
        _analyse(d)
    except ContractViolation:
        return lambda s, i: _analyse(d)
    return None


def _choose(node: _Alt, actions: Sequence[Choice], refuse) -> Choice:
    """A compiled choice.  Its print side tries, at the top value's key,
    the branches that the tier-2 print table admits there, and matches a
    lone admitted lead in place, with no retry: no other branch could
    print the value.  Its parse side, unless `refuse` stands in for it,
    tries the branches that the tier-2 guard admits at the next char."""
    action_of = dict(zip(node.branches, actions))

    @functools.cache
    def tries(entry) -> Choice:  # the `|` of an entry's branches, in order
        if entry is None:
            return Choice.fail()
        branches = (entry[0],) + entry[1][::-1]
        return functools.reduce(Choice.alt, map(action_of.get, branches))

    table, other = node.keyed or _keyed(node)
    pr = _by_key({key: tries(e).lead or tries(e).pr for key, e in table.items()},
                 tries(other).lead or tries(other).pr)
    if refuse:
        return Choice(pr, refuse)
    pas = {c: tries(e).pa for c, e in node.table.items()}
    other_pa = tries(node.other).pa

    def pa(s, i):
        return pas.get(s[i] if i < len(s) else "", other_pa)(s, i)
    return Choice(pr, pa)


# ---------------------------------------------------------------------------
# Runners
#
# Continuation chains nest a few Python frames per emitted or consumed
# character.  Since Python 3.11 a Python-to-Python call uses no C stack,
# so only the recursion limit binds, and runs happen in place on the
# caller's thread with the limit raised for the length of the run.  So
# the chain must hold only plain Python functions: a call through a
# `functools.partial` or an object with a Python `__call__` goes through
# C, uses C stack per link, and overflows a small thread stack.  The
# limit is global to the interpreter, so runs take turns: concurrent
# callers would otherwise interleave their raise and restore, and could
# leave the raised limit behind for everyone.  A run nested in a running
# one (say, in a predicate) holds the lock already and runs in place.

_DEEP_LIMIT = 150_000

_deep_lock = threading.RLock()


def _run_deep(fn):
    """fn() under `_DEEP_LIMIT`, restoring the limit it found."""
    with _deep_lock:
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_DEEP_LIMIT)
        try:
            return fn()
        except RecursionError:
            pass  # raised below, so the deep traceback is not kept alive
        finally:
            sys.setrecursionlimit(limit)
    raise ContractViolation("term nests too deeply for the stacked engine")


def run_linear_print(action: Linear, seed: Sequence[Value]):
    """(emitted text, result, leftover stack) of the print side."""
    return run_choice_print(action, seed)


def sprintf(action: Linear, args: Sequence[Value]) -> str:
    """Run the linear print side over args, first format slot first."""
    text, _result, stack = run_linear_print(action, args)
    if not stack.is_empty():
        raise ContractViolation(
            f"{stack.size} unconsumed arguments after printing")
    return text


def sscanf(action: Linear, text: str) -> Value:
    """Run the linear parse side; the result is the action's own value.

    Trailing input is ignored; a mismatch is terminal.
    """
    result, _end = _run_deep(lambda: action.pa(text, 0))
    return result


def run_choice_print(action: Choice, seed: Sequence[Value]):
    """(emitted, result, leftover stack) of the print side, or None."""
    wk0 = TracedK(lambda total, a, fl: lambda stack: (total.text(), a, stack))
    return _run_deep(lambda: action.pr(wk0, _no_print)(stack_of(seed)))


def pretty(action: Choice, v: Value) -> Optional[str]:
    """Print one value to text, None if no alternative accepts it."""
    r = run_choice_print(action, [v])
    return None if r is None else r[0]


def parse(action: Choice, text: str) -> Optional[Value]:
    """Parse one value, ignoring trailing input; None on failure."""
    r = _run_deep(lambda: action.pa(text, 0))
    return None if r is None else r[0]
