"""Universal runtime values, stacks, output, prisms and isomorphisms.

Every engine in this package moves the same dynamically-typed `Value`
data through a persistent `Stack`, and prints into the same persistent
`_Output`.  Sum types are encoded uniformly as `Adt(tag, args)` and
taken apart / rebuilt with `Prism` objects; an `Iso` always matches.
`Value` alone defines `==`, `hash` and `repr`: by class and parts.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence


class ContractViolation(Exception):
    """Terminal misuse of a descriptor or stack.  Never caught by choice."""


# ---------------------------------------------------------------------------
# Values


class Value:
    """A value is its class and its parts (the fields its `__slots__`
    names, unless it overrides `_parts`), for `==`, `hash` and `repr`."""

    __slots__ = ()

    def _parts(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return type(other) is type(self) and self._parts() == other._parts()

    def __hash__(self):
        return hash((type(self), self._parts()))

    def __repr__(self):
        name, parts = type(self).__name__, self._parts()  # (x,) shows a comma
        return f"{name}({parts[0]!r})" if len(parts) == 1 else name + repr(parts)


class Unit(Value):
    __slots__ = ()

    def __repr__(self):
        return "Unit"


class Bool(Value):
    __slots__ = ("flag",)

    def __init__(self, flag: bool):
        self.flag = bool(flag)


class Int(Value):
    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = int(n)


class Char(Value):
    __slots__ = ("c",)

    def __init__(self, c: str):
        if len(c) != 1:
            raise ContractViolation(f"Char wants a single scalar, got {c!r}")
        self.c = c


class Text(Value):
    __slots__ = ("s",)

    def __init__(self, s: str):
        self.s = s


class List(Value):
    """A finite sequence of values; `.items` is the tuple of them.

    Besides the tuple a List is built from, there are two forms that
    `cons_prism` makes, each in O(1): a cons node (`_head` in front of
    the List `_tail`) and a suffix view (`_base[_off:]`, the tail a
    preview takes of a tuple).  For those `.items` is built once, by one
    walk down the cons nodes, and cached.  The form only shows in cost:
    `==`, `hash`, `repr` (through `_parts`) and JSON go through `.items`.
    """

    __slots__ = ("_items", "_base", "_off", "_head", "_tail")

    def __init__(self, items: Iterable[Value] = ()):
        self._items = self._base = tuple(items)
        self._off = 0
        self._tail = None

    @property
    def items(self) -> tuple:
        items = self._items
        if items is None:
            items = self._items = _flatten(self)
        return items

    def _parts(self) -> tuple:
        return self.items

    def __repr__(self):
        return "List[" + ", ".join(map(repr, self.items)) + "]"


def _cons(head: Value, tail: List) -> List:
    lst = List.__new__(List)
    lst._items = None
    lst._head = head
    lst._tail = tail
    return lst


def _suffix(base: tuple, off: int) -> List:
    lst = List.__new__(List)
    lst._items = None
    lst._base = base
    lst._off = off
    lst._tail = None
    return lst


def _flatten(lst: List) -> tuple:
    """The items of a cons node or suffix view, without recursion."""
    heads = []
    while lst._items is None and lst._tail is not None:
        heads.append(lst._head)
        lst = lst._tail
    rest = lst._items if lst._items is not None else lst._base[lst._off:]
    return tuple(heads) + rest if heads else rest


class Pair(Value):
    __slots__ = ("first", "second")

    def __init__(self, first: Value, second: Value):
        self.first = first
        self.second = second


class Adt(Value):
    __slots__ = ("tag", "args")

    def __init__(self, tag: str, args: Iterable[Value] = ()):
        self.tag = tag
        self.args = tuple(args)

    def _parts(self) -> tuple:
        return (self.tag,) + self.args


# ---------------------------------------------------------------------------
# Stacks


class Pending:
    """Stack entry for a value under construction by a lead-out.

    Collects `arity` component values; the moment the last one arrives
    the entry is replaced by `build(components)`.
    """

    __slots__ = ("tag", "arity", "got", "build")

    def __init__(self, tag: str, arity: int, got: tuple,
                 build: Callable[[tuple], Value]):
        self.tag = tag
        self.arity = arity
        self.got = got
        self.build = build

    def __eq__(self, other):
        return (isinstance(other, Pending) and self.tag == other.tag
                and self.arity == other.arity and self.got == other.got)

    def __repr__(self):
        return f"Pending({self.tag!r}, {len(self.got)}/{self.arity})"


class Stack:
    """Persistent stack, top first.  Push and pop share structure.

    Each entry is a finished value itself or a `Pending` frame.
    """

    __slots__ = ("entry", "rest", "size")

    def __init__(self, entry=None, rest=None, size=0):
        self.entry = entry
        self.rest = rest
        self.size = size

    def is_empty(self) -> bool:
        return self.size == 0

    def push(self, v: Value) -> "Stack":
        """Push a finished value without touching pending frames."""
        return Stack(v, self, self.size + 1)

    def pop(self):
        """Pop a finished value; pending frames on top are misuse."""
        if self.size == 0:
            raise ContractViolation("stack underflow")
        entry = self.entry
        if isinstance(entry, Pending):
            raise ContractViolation(f"popped unfinished frame {entry!r}")
        return entry, self.rest

    def open_frame(self, tag: str, arity: int,
                   build: Callable[[tuple], Value]) -> "Stack":
        """Start collecting `arity` values for a constructor application."""
        if arity == 0:
            return self.deliver(build(()))
        return Stack(Pending(tag, arity, (), build), self, self.size + 1)

    def deliver(self, v: Value) -> "Stack":
        """Push a value, feeding and reducing pending frames innermost first."""
        stack = self
        while isinstance(stack.entry, Pending):  # the empty stack's is None
            p = stack.entry
            got = p.got + (v,)
            if len(got) < p.arity:
                return Stack(Pending(p.tag, p.arity, got, p.build),
                             stack.rest, stack.size)
            v = p.build(got)
            stack = stack.rest
        return Stack(v, stack, stack.size + 1)

    def entries(self) -> tuple:
        """All entries, top first."""
        out = []
        s = self
        while s.size:
            out.append(s.entry)
            s = s.rest
        return tuple(out)

    def values(self) -> tuple:
        """All values, top first.  Pending frames are a violation."""
        entries = self.entries()
        for entry in entries:
            if isinstance(entry, Pending):
                raise ContractViolation(f"unfinished frame left on stack: {entry!r}")
        return entries

    def __eq__(self, other):
        return isinstance(other, Stack) and self.entries() == other.entries()

    def __repr__(self):
        return "Stack[" + ", ".join(map(repr, self.entries())) + "]"


EMPTY_STACK = Stack()


def stack_of(values: Sequence[Value]) -> Stack:
    """Build a stack with values[0] on top."""
    s = EMPTY_STACK
    for v in reversed(values):
        s = s.push(v)
    return s


# ---------------------------------------------------------------------------
# Output


class _Output:
    """Emitted text as a persistent cons of chunks, newest first.

    Appending a chunk shares everything emitted before it, so a run
    copies no text until `text` joins the chunks once, at its end: the
    output is a difference list (Hughes, "A novel representation of
    lists", 1986).  `len` is the number of chars emitted.
    """

    __slots__ = ("chunk", "rest", "size")

    def __init__(self, chunk: str, rest: Optional["_Output"], size: int):
        self.chunk = chunk
        self.rest = rest
        self.size = size

    def __len__(self) -> int:
        return self.size

    def text(self) -> str:
        chunks = []
        out = self
        while out.size:
            chunks.append(out.chunk)
            out = out.rest
        chunks.reverse()
        return "".join(chunks)


_NO_OUTPUT = _Output("", None, 0)


# ---------------------------------------------------------------------------
# Prisms


class Prism:
    """One constructor of a sum type: total `review`, partial `preview`.

    `keys`, if given, must hold `key_of(v)` for every `v` that `preview`
    matches: printing then skips a choice branch opening with this prism
    for a value of any other key.  None, as for an `Iso`, rules out no
    value.
    """

    __slots__ = ("tag", "arity", "_preview", "_review", "keys")

    def __init__(self, tag: str, arity: int, preview, review, keys=None):
        self.tag = tag
        self.arity = arity
        self._preview = preview
        self._review = review
        self.keys = None if keys is None else frozenset(keys)

    def preview(self, v: Value) -> Optional[tuple]:
        """Components of v if it matches this constructor, else None."""
        return self._preview(v)

    def review(self, components: Sequence[Value]) -> Value:
        """Rebuild the value from exactly `arity` components."""
        components = tuple(components)
        if len(components) != self.arity:
            raise ContractViolation(
                f"prism {self.tag} wants {self.arity} components, got {len(components)}")
        return self._review(components)

    def __repr__(self):
        return f"Prism({self.tag}/{self.arity})"


class Iso(Prism):
    """A named pair of mutually inverse value maps: the prism of a
    constructor that always matches, with the one component `to(v)`.

    `to` is applied when printing (outer form to inner form), `from_`
    when parsing (inner form back to outer form).
    """

    __slots__ = ("name", "to", "from_")

    def __init__(self, name: str, to: Callable[[Value], Value],
                 from_: Callable[[Value], Value]):
        super().__init__(name, 1, lambda v: (to(v),), lambda xs: from_(xs[0]))
        self.name = name
        self.to = to
        self.from_ = from_

    def __repr__(self):
        return f"Iso({self.name})"


def key_of(v: Value):
    """The key a prism declares for `v`: `(tag, arity)` of an `Adt`,
    "cons" or "nil" for a non-empty or empty `List`, else its class."""
    kind = type(v)
    if kind is Adt:
        return v.tag, len(v.args)
    if kind is List:
        return "cons" if v._tail is not None or v._off < len(v._base) else "nil"
    return kind


def pair_iso() -> Iso:
    """Witness of currying: Pair(a, b) against its two-component view."""
    def split(v: Value) -> Value:
        if not isinstance(v, Pair):
            raise ContractViolation(f"pair_iso.to wants a Pair, got {v!r}")
        return List((v.first, v.second))

    def join(v: Value) -> Value:
        if not isinstance(v, List) or len(v.items) != 2:
            raise ContractViolation(f"pair_iso.from_ wants two components, got {v!r}")
        return Pair(v.items[0], v.items[1])

    return Iso("pair", split, join)


def identity_iso() -> Iso:
    return Iso("id", lambda v: v, lambda v: v)


def adt_prism(tag: str, arity: int) -> Prism:
    """Prism for the `Adt(tag, ...)` constructor of the given arity."""
    if arity < 0:
        raise ContractViolation("prism arity must be non-negative")

    def preview(v):
        if isinstance(v, Adt) and v.tag == tag and len(v.args) == arity:
            return v.args
        return None

    return Prism(tag, arity, preview, lambda xs: Adt(tag, xs), [(tag, arity)])


def cons_prism() -> Prism:
    """Head/tail view of a non-empty List."""
    def preview(v):
        if not isinstance(v, List):
            return None
        if v._tail is not None:
            return (v._head, v._tail)
        base, off = v._base, v._off
        if off < len(base):
            return (base[off], _suffix(base, off + 1))
        return None

    def review(xs):
        head, tail = xs
        if not isinstance(tail, List):
            raise ContractViolation(f"cons wants a List tail, got {tail!r}")
        return _cons(head, tail)

    return Prism("cons", 2, preview, review, ["cons"])


def nil_prism() -> Prism:
    """The empty List, with no components."""
    def preview(v):
        if isinstance(v, List) and v._tail is None and v._off == len(v._base):
            return ()
        return None

    return Prism("nil", 0, preview, lambda xs: List(()), ["nil"])


def const_prism(tag: str, value: Value) -> Prism:
    """Match one specific value, exposing a single Unit component."""
    def preview(v):
        return (Unit(),) if v == value else None

    return Prism(tag, 1, preview, lambda xs: value)


# ---------------------------------------------------------------------------
# JSON encoding
#
# Unit -> null, Bool -> true/false, Int -> number, Text -> string,
# Char -> {"char": "c"}, List -> array, Pair -> {"pair": [x, y]},
# Adt  -> {"<tag>": [args...]}, collapsed to {"<tag>": arg} for a single
# argument whose encoding is not itself an array.  The keys "char" and
# "pair" are reserved and unavailable as Adt tags.

_RESERVED_TAGS = ("char", "pair")


def _encode(v: Value):
    if isinstance(v, Unit):
        return None
    if isinstance(v, Bool):
        return v.flag
    if isinstance(v, Int):
        return v.n
    if isinstance(v, Char):
        return {"char": v.c}
    if isinstance(v, Text):
        return v.s
    if isinstance(v, List):
        return [_encode(x) for x in v.items]
    if isinstance(v, Pair):
        return {"pair": [_encode(v.first), _encode(v.second)]}
    if isinstance(v, Adt):
        if v.tag in _RESERVED_TAGS:
            raise ContractViolation(f"Adt tag {v.tag!r} is reserved by the JSON encoding")
        args = [_encode(a) for a in v.args]
        if len(args) == 1 and not isinstance(args[0], list):
            return {v.tag: args[0]}
        return {v.tag: args}
    raise ContractViolation(f"not a Value: {v!r}")


def _decode(x) -> Value:
    if x is None:
        return Unit()
    if isinstance(x, bool):
        return Bool(x)
    if isinstance(x, int):
        return Int(x)
    if isinstance(x, str):
        return Text(x)
    if isinstance(x, list):
        return List(tuple(_decode(e) for e in x))
    if isinstance(x, dict) and len(x) == 1:
        [(key, payload)] = x.items()
        if key == "char":
            if isinstance(payload, str) and len(payload) == 1:
                return Char(payload)
            raise ValueError("char wants a one-character string")
        if key == "pair":
            if isinstance(payload, list) and len(payload) == 2:
                return Pair(_decode(payload[0]), _decode(payload[1]))
            raise ValueError("pair wants two elements")
        if isinstance(payload, list):
            return Adt(key, tuple(_decode(e) for e in payload))
        return Adt(key, (_decode(payload),))
    raise ValueError(f"no Value reading for {x!r}")


def value_to_json(v: Value) -> str:
    import json  # here, so that an import of the grammar does not pay for it
    return json.dumps(_encode(v), separators=(",", ":"), ensure_ascii=False)


def value_from_json(s: str) -> Optional[Value]:
    import json
    try:
        return _decode(json.loads(s))
    except (ValueError, RecursionError):
        return None
