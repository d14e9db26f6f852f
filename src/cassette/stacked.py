"""Indexed-monadic format descriptors.

The third engine drops the symmetric cassette shape: an action pairs a
continuation-passing printer with a plain forward parser, and the two
sides are sequenced together monadically.  Stack shapes before and
after printing are the indices of the monad; the parse side carries its
result as the monadic value and ignores the stack entirely.

Printing is an effect added to continuations through an output comonad:
a continuation is wrapped together with the text emitted so far
(`TracedK`), `extend` threads that prefix through sequencing, and
`emit` feeds it one more chunk.  A plain monad-transformer continuation
cannot express the stack operations: with a continuation of type
``() -> m r`` there is no stack value to hand to a rewriting function,
and anything printed would have to be chosen before the popped value is
seen.  Wrapping the continuation in a comonad is what makes `pop`
possible at all, which is why both variants here are built on it.

Two variants are provided, mirroring the two signatures of the stack
abstraction:

* `Linear`  -- one continuation; parse mismatches are terminal.
* `Choice`  -- a second, failure answer threads through every action;
  alternatives compose as a monoid at every index, and stack rewrites
  carry an unrolling function that restores popped values when a later
  alternative retries.

Answers (the things continuations return) are realized as computations
that consume the runtime value stack.  `consume` and `supply` convert
between "function of the top value" and "answer", which is all the
curried answer types of the typed presentation amount to.
"""

from __future__ import annotations

import sys
import threading
from typing import Callable, Optional, Sequence

from .tier2 import digit_iso, is_ascii_digit
from .values import (
    Char, ContractViolation, List, Pair, Prism, Stack, Unit, Value,
    cons_prism, nil_prism, stack_of,
)

# An Answer consumes a stack and produces the run's final outcome.
Answer = Callable[[Stack], object]


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
    """A continuation wrapped with the output emitted so far.

    Realizes the output comonad over continuations as an explicit
    (prefix, function of total output) pair: `extract` closes the
    output, `extend` lets a sequenced action observe and grow it,
    `trace` feeds one emitted chunk.
    """

    __slots__ = ("fn", "prefix")

    def __init__(self, fn: Callable[[str], object], prefix: str = ""):
        self.fn = fn
        self.prefix = prefix

    def extract(self):
        return self.fn(self.prefix)

    def extend(self, h) -> "TracedK":
        fn = self.fn
        return TracedK(lambda total: h(TracedK(fn, total)), self.prefix)

    def fmap(self, g) -> "TracedK":
        fn = self.fn
        return TracedK(lambda total: g(fn(total)), self.prefix)

    def trace(self, chunk: str):
        return self.fn(self.prefix + chunk)


def _pop_char(v: Value) -> str:
    if not isinstance(v, Char):
        raise ContractViolation(f"print wants a Char on the stack, got {v!r}")
    return v.c


class _Applicative:
    """Sequencing derived from `ret` and `bind`, shared by both variants.

    `a @ b` applies, `a << b` keeps the left result, `a >> b` the right.
    """

    __slots__ = ()

    def map(self, g):
        return self.bind(lambda a: self.ret(g(a)))

    def ap(self, other):
        return self.bind(lambda g: other.bind(lambda a: self.ret(g(a))))

    def left(self, other):
        return self.map(lambda a: lambda _u: a).ap(other)

    def right(self, other):
        return self.map(lambda _a: lambda b: b).ap(other)

    __matmul__ = ap
    __lshift__ = left
    __rshift__ = right


# ---------------------------------------------------------------------------
# Linear variant


class Linear(_Applicative):
    """An indexed action without failure.

    `pr(wrapped_continuation) -> answer` is the print side;
    `pa(text, i) -> (result, i')` the parse side, raising
    `ContractViolation` on mismatch.
    """

    __slots__ = ("pr", "pa")

    def __init__(self, pr, pa):
        self.pr = pr
        self.pa = pa

    @staticmethod
    def ret(x) -> "Linear":
        return Linear(lambda wk: wk.extract()(x),
                      lambda s, i: (x, i))

    def bind(self, f: Callable[[object], "Linear"]) -> "Linear":
        def pr(wk):
            return self.pr(wk.extend(lambda wk2: lambda x: f(x).pr(wk2)))

        def pa(s, i):
            a, j = self.pa(s, i)
            return f(a).pa(s, j)

        return Linear(pr, pa)


def _lin_shift(f: Callable[[Answer], Linear]) -> Linear:
    """Expose the continuation-as-answer to f; unit result, parse no-op."""
    def pr(wk):
        k = wk.extract()(Unit())
        return f(k).pr(TracedK(lambda _total: lambda y: y))

    return Linear(pr, lambda s, i: (Unit(), i))


def _lin_shiftw(f) -> Linear:
    """Like `_lin_shift` but hands f the full value continuation."""
    def pr(wk):
        return f(wk.extract()).pr(TracedK(lambda _total: lambda y: y))

    def pa(s, i):
        raise ContractViolation("this action has no parse side")

    return Linear(pr, pa)


def lin_push(v: Value) -> Linear:
    """Print side pushes v; parse side does nothing."""
    return _lin_shift(lambda k: Linear.ret(supply(k, v)))


def lin_pop_() -> Linear:
    """Print side drops the top value; parse side does nothing."""
    return _lin_shift(lambda k: Linear.ret(consume(lambda _v: k)))


def lin_stack_map(rewrite: Callable[[Answer], Answer]) -> Linear:
    """Rewrite the print-side stack; `rewrite` maps the continuation's
    answer over the stack it expects."""
    return _lin_shift(lambda k: Linear.ret(rewrite(k)))


def lin_pop() -> Linear:
    """Print side pops and returns the top value.  Print side only."""
    return _lin_shiftw(lambda k: Linear.ret(consume(lambda a: k(a))))


def lin_curry_stack() -> Linear:
    """Replace the two top print-stack values a, b by Pair(a, b)."""
    return lin_stack_map(
        lambda k: consume(lambda a: consume(lambda b: supply(k, Pair(a, b)))))


def lin_emit(chunk: str) -> Linear:
    """Append text to the print output; parse side does nothing."""
    def pr(wk):
        return wk.fmap(lambda content: content(Unit())).trace(chunk)

    return Linear(pr, lambda s, i: (Unit(), i))


def lin_satisfy(pred: Callable[[str], bool], label: str = "satisfy") -> Linear:
    """Print pops a Char and emits it; parse consumes one passing char.
    A char the predicate rejects is a violation on both sides."""
    def print_char(c):
        if not pred(_pop_char(c)):
            raise ContractViolation(f"{c.c!r} does not satisfy {label}")
        return lin_emit(c.c).right(Linear.ret(c))

    print_side = lin_pop().bind(print_char)

    def pa(s, i):
        if i < len(s) and pred(s[i]):
            return Char(s[i]), i + 1
        found = s[i] if i < len(s) else "end of input"
        raise ContractViolation(f"{label}: unexpected {found!r} at offset {i}")

    return Linear(print_side.pr, pa)


def lin_lit(text: str) -> Linear:
    """A literal; each char is pushed before printing so no argument is
    needed.  Unit result."""
    if not text:
        return Linear.ret(Unit())
    c, rest = text[0], text[1:]
    return lin_push(Char(c)).right(lin_satisfy(lambda x: x == c, f"lit {c!r}")) \
        .bind(lambda _c: lin_lit(rest))


def lin_char() -> Linear:
    return lin_satisfy(lambda c: True, "char")


def lin_digit() -> Linear:
    """One decimal digit as an Int."""
    iso = digit_iso()
    to_char = lin_stack_map(lambda k: consume(lambda v: supply(k, iso.to(v))))
    return Linear.ret(iso.from_).left(to_char).ap(
        lin_satisfy(is_ascii_digit, "digit"))


def nth_char_format() -> Linear:
    """The demo format, with its result packaged as a three-element List."""
    triple = lambda a: lambda b: lambda c: List((a, b, c))
    return (Linear.ret(triple)
            .ap(lin_digit()).left(lin_lit("-th character after "))
            .ap(lin_char()).left(lin_lit(" is "))
            .ap(lin_char()))


# ---------------------------------------------------------------------------
# Choice variant


class Choice(_Applicative):
    """An indexed action with failure and choice.

    `pr(wrapped_continuation, failure_answer) -> answer`;
    `pa(text, i) -> (result, i') or None`.  `a | b` falls back to b on
    failure of a, restoring input, output and stack.
    """

    __slots__ = ("pr", "pa")

    def __init__(self, pr, pa):
        self.pr = pr
        self.pa = pa

    @staticmethod
    def ret(x) -> "Choice":
        return Choice(lambda wk, fl: wk.extract()(x)(fl),
                      lambda s, i: (x, i))

    @staticmethod
    def fail() -> "Choice":
        return Choice(lambda wk, fl: fl, lambda s, i: None)

    def bind(self, f: Callable[[object], "Choice"]) -> "Choice":
        def pr(wk, fl):
            return self.pr(
                wk.extend(lambda wk2: lambda x: lambda fl2: f(x).pr(wk2, fl2)),
                fl)

        def pa(s, i):
            r = self.pa(s, i)
            if r is None:
                return None
            a, j = r
            return f(a).pa(s, j)

        return Choice(pr, pa)

    def alt(self, other: "Choice") -> "Choice":
        def pr(wk, fl):
            # the untried branch is the failure answer of the first one;
            # built lazily so cyclic grammars stay finite
            return self.pr(wk, lambda stack: other.pr(wk, fl)(stack))

        def pa(s, i):
            r = self.pa(s, i)
            return r if r is not None else other.pa(s, i)

        return Choice(pr, pa)

    __or__ = alt


def _alt_shift(f) -> Choice:
    """f(success: answer -> answer, failure: answer) -> pure Choice."""
    def pr(wk, fl):
        k = wk.extract()(Unit())
        return f(k, fl).pr(TracedK(lambda _t: lambda x: lambda _fl: x), fl)

    return Choice(pr, lambda s, i: (Unit(), i))


def _alt_shiftw(f) -> Choice:
    def pr(wk, fl):
        return f(wk.extract(), fl).pr(TracedK(lambda _t: lambda x: lambda _fl: x), fl)

    def pa(s, i):
        raise ContractViolation("this action has no parse side")

    return Choice(pr, pa)


def alt_push(v: Value) -> Choice:
    """Push on the print side; on later failure the value is dropped again."""
    return _alt_shift(
        lambda k, fl: Choice.ret(supply(k(consume(lambda _v: fl)), v)))


def alt_pop_() -> Choice:
    """Drop the print-side top; on later failure it is pushed back."""
    return _alt_shift(
        lambda k, fl: Choice.ret(consume(lambda a: k(supply(fl, a)))))


def alt_pop() -> Choice:
    """Pop and return the print-side top; restored on later failure."""
    return _alt_shiftw(
        lambda k, fl: Choice.ret(consume(lambda a: k(a)(supply(fl, a)))))


def alt_stack_guard(rewrite, unroll) -> Choice:
    """A matching stack rewrite for the print side.

    `rewrite(failure, success)` builds the answer that deconstructs the
    top of the stack, handing components to `success` or declaring
    failure; `unroll(failure)` rebuilds the original stack from the
    components if a later alternative has to retry.
    """
    return _alt_shift(
        lambda k, fl: Choice.ret(rewrite(fl, k(unroll(fl)))))


def alt_emit(chunk: str) -> Choice:
    def pr(wk, fl):
        return wk.fmap(lambda content: content(Unit())).trace(chunk)(fl)

    return Choice(pr, lambda s, i: (Unit(), i))


def alt_satisfy(pred, label: str = "satisfy") -> Choice:
    """Print pops a Char and emits it; either side fails recoverably on
    a char the predicate rejects."""
    def print_char(c):
        if not pred(_pop_char(c)):
            return Choice.fail()
        return alt_emit(c.c).right(Choice.ret(c))

    print_side = alt_pop().bind(print_char)

    def pa(s, i):
        if i < len(s) and pred(s[i]):
            return Char(s[i]), i + 1
        return None

    return Choice(print_side.pr, pa)


def alt_lit(text: str) -> Choice:
    if not text:
        return Choice.ret(Unit())
    c, rest = text[0], text[1:]
    return alt_push(Char(c)).right(alt_satisfy(lambda x: x == c, f"lit {c!r}")) \
        .bind(lambda _c: alt_lit(rest))


def alt_defer(thunk: Callable[[], Choice]) -> Choice:
    """Delay construction until first use, for recursive grammars."""
    built = []

    def force():
        if not built:
            built.append(thunk())
        return built[0]

    return Choice(lambda wk, fl: force().pr(wk, fl),
                  lambda s, i: force().pa(s, i))


def _curried(build: Callable[[tuple], Value], arity: int):
    def step(got):
        if len(got) == arity:
            return build(got)
        return lambda v: step(got + (v,))
    return step(())


def alt_prism_lead(prism: Prism) -> Choice:
    """Lift a prism: the print side deconstructs the top value into its
    components (or fails over), the parse side returns the curried
    constructor for the results that follow."""
    arity = prism.arity

    def rewrite(fl, success):
        def on_top(v):
            components = prism.preview(v)
            if components is None:
                return supply(fl, v)
            # supplied first means popped first: first component on top
            answer = success
            for c in components:
                answer = supply(answer, c)
            return answer
        return consume(on_top)

    def unroll(fl):
        def collect(got):
            if len(got) == arity:
                return supply(fl, prism.review(got))
            return consume(lambda v: collect(got + (v,)))
        return collect(())

    return alt_stack_guard(rewrite, unroll).right(
        Choice.ret(_curried(prism.review, arity)))


def alt_cons_lead() -> Choice:
    return alt_prism_lead(cons_prism())


def alt_many(p: Choice) -> Choice:
    """Zero or more p as a List."""
    d = alt_defer(lambda: alt_some_with(p, d) | alt_prism_lead(nil_prism()))
    return d


def alt_some_with(p: Choice, rest: Choice) -> Choice:
    return alt_cons_lead().ap(p).ap(rest)


def alt_some(p: Choice) -> Choice:
    """One or more p as a List."""
    return alt_some_with(p, alt_many(p))


# ---------------------------------------------------------------------------
# Runners
#
# Continuation chains nest one Python frame per emitted or consumed
# character, so runs happen on a worker thread with a large stack.

_DEEP_STACK_BYTES = 192 * 1024 * 1024
_DEEP_LIMIT = 150_000
_DEEP_LOCK = threading.Lock()


def _run_deep(fn):
    box = []

    def go():
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_DEEP_LIMIT)
        try:
            box.append((True, fn()))
        except BaseException as e:
            box.append((False, e))
        finally:
            sys.setrecursionlimit(limit)

    with _DEEP_LOCK:
        old = threading.stack_size(_DEEP_STACK_BYTES)
        try:
            worker = threading.Thread(target=go)
            worker.start()
        finally:
            threading.stack_size(old)
    worker.join()
    ok, payload = box[0]
    if not ok:
        raise payload
    return payload


def run_linear_print(action: Linear, seed: Sequence[Value]):
    """(emitted text, result, leftover stack) of the print side."""
    wk0 = TracedK(lambda total: lambda a: lambda stack: (total, a, stack))
    return _run_deep(lambda: action.pr(wk0)(stack_of(seed)))


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
    wk0 = TracedK(
        lambda total: lambda a: lambda fl: lambda stack: (total, a, stack))
    fl0 = lambda stack: None
    return _run_deep(lambda: action.pr(wk0, fl0)(stack_of(seed)))


def pretty(action: Choice, v: Value) -> Optional[str]:
    """Print one value to text, None if no alternative accepts it."""
    wk0 = TracedK(
        lambda total: lambda _a: lambda _fl: lambda _stack: total)
    fl0 = consume(lambda _v: lambda _stack: None)
    return _run_deep(lambda: action.pr(wk0, fl0)(stack_of([v])))


def parse(action: Choice, text: str) -> Optional[Value]:
    """Parse one value, ignoring trailing input; None on failure."""
    r = _run_deep(lambda: action.pa(text, 0))
    return None if r is None else r[0]
