"""Spans and counts at the library's public boundaries, for the traced run.

`Tracer` patches wrappers over the boundaries while it is active and
puts the originals back when it leaves; nothing is patched outside a
traced run.  Two levels:

* *entry* spans wrap the entry points of each layer (`cli.main`, the
  `lam` term functions, `tier1`/`tier2`/`stacked` runners).  Each call
  keeps one record: name, layer, start, end, parent, op id, input or
  output size, outcome, and the counts made while it was the innermost
  entry span (for a tier-2 parse, also the nodes of the parsed term).
  Records hold plain values only, so the collections timed with every
  op need not scan them.
* *fine* boundaries (`Stack` operations, `Prism.preview`/`review`,
  `TracedK.trace`/`extend`, `Choice` and `List` construction) run many
  times per character, far too often to keep a record each.  They are
  timed and counted into the innermost entry span instead, and their
  self time goes to their layer.

A layer's self time is the time its spans cover minus the time of the
spans nested in them.  The stacked engine runs its work on a worker
thread while the calling thread waits in `join`, so one span stack
serves both threads.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns

from cassette import cli, lam, stacked, tier1, tier2
from cassette.values import List, Prism, Stack
from workloads import node_count

ENTRY_POINTS = (
    (cli, "main", "cli", None),
    (lam, "parse_term", "lam", "arg"),
    (lam, "pretty_term", "lam", "result"),
    (lam, "term_to_json", "lam", "result"),
    (lam, "term_from_json", "lam", "arg"),
    (tier1, "sprintf", "tier1", "result"),
    (tier1, "sscanf", "tier1", "arg"),
    (tier2, "parse", "tier2", "arg"),
    (tier2, "pretty", "tier2", "result"),
    (stacked, "parse", "stacked", "arg"),
    (stacked, "pretty", "stacked", "result"),
    (stacked, "sprintf", "stacked", "result"),
    (stacked, "sscanf", "stacked", "arg"),
)


def _size(value):
    return len(value) if isinstance(value, str) else 0


class Tracer:
    """Context manager that traces entry points, and fine boundaries
    too when `fine` is set."""

    def __init__(self, fine: bool):
        self.fine = fine
        self.records = []        # one dict per entry-span call
        self.self_ns = defaultdict(int)
        self.fine_calls = defaultdict(int)
        self.fine_ns = defaultdict(int)
        self.op = -1
        self._frames = [[0]]     # child-time accumulators, outermost first
        self._open = []          # indices of open entry records
        self._counts = defaultdict(int)
        self._saved = []

    # -- entry spans -------------------------------------------------------

    def _entry(self, module, attr, layer, measure):
        orig = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        def wrapper(*args, **kwargs):
            record = {"name": name, "layer": layer, "op": tracer.op,
                      "parent": tracer._open[-1] if tracer._open else None}
            if measure == "arg":
                record["size"] = _size(args[-1] if module is not lam else args[0])
            if module is lam and attr in ("parse_term", "pretty_term"):
                record["engine"] = args[1] if len(args) > 1 else kwargs.get("engine", "cassette")
            tracer.records.append(record)
            tracer._open.append(len(tracer.records) - 1)
            frame = [0]
            tracer._frames.append(frame)
            outer_counts = tracer._counts
            tracer._counts = defaultdict(int)
            start = perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            except BaseException as e:
                tracer._close(record, layer, frame, outer_counts, start, perf_counter_ns())
                record["status"] = type(e).__name__
                raise
            tracer._close(record, layer, frame, outer_counts, start, perf_counter_ns())
            record["status"] = "none" if result is None else "value"
            if measure == "result":
                record["size"] = _size(result)
            if name == "tier2.parse":
                record["nodes"] = node_count(result)
            return result

        self._saved.append((module, attr, orig))
        setattr(module, attr, wrapper)

    def _close(self, record, layer, frame, outer_counts, start, end):
        record["start"], record["end"] = start, end
        record["counts"] = dict(self._counts)
        self._counts = outer_counts
        self._frames.pop()
        self._open.pop()
        self._frames[-1][0] += end - start
        self.self_ns[layer] += end - start - frame[0]

    # -- fine boundaries ---------------------------------------------------

    def _fine(self, cls, attr, layer, tally):
        """Wrap `cls.attr`: time it, and let `tally(counts, obj, args,
        result)` count what the call did into the innermost entry span."""
        orig = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        tracer, frames = self, self._frames
        self_ns, fine_calls, fine_ns = self.self_ns, self.fine_calls, self.fine_ns

        def wrapper(obj, *args):
            frame = [0]
            frames.append(frame)
            start = perf_counter_ns()
            try:
                result = orig(obj, *args)
            finally:
                d = perf_counter_ns() - start
                frames.pop()
                frames[-1][0] += d
                self_ns[layer] += d - frame[0]
                fine_calls[name] += 1
                fine_ns[name] += d
            tally(tracer._counts, obj, args, result)
            return result

        self._saved.append((cls, attr, orig))
        setattr(cls, attr, wrapper)

    def _install_fine(self):
        def stack_op(c, obj, args, result):
            c["stack_ops"] += 1

        def open_frame(c, obj, args, result):
            c["stack_ops"] += 1
            c["open_frame"] += 1

        def preview(c, prism, args, result):
            c["preview"] += 1
            c["preview_hit"] += result is not None

        def review(c, prism, args, result):
            c["review"] += 1

        def list_init(c, lst, args, result):
            c["list_items"] += len(lst.items)

        def trace(c, k, args, result):
            c["trace"] += 1
            c["trace_chars"] += len(k.prefix) + len(args[0])

        def extend(c, k, args, result):
            c["extend"] += 1

        def choice_built(c, action, args, result):
            c["choice_built"] += 1

        for attr in ("push", "pop", "deliver"):
            self._fine(Stack, attr, "values", stack_op)
        self._fine(Stack, "open_frame", "values", open_frame)
        self._fine(Prism, "preview", "values", preview)
        self._fine(Prism, "review", "values", review)
        self._fine(List, "__init__", "values", list_init)
        self._fine(stacked.TracedK, "trace", "stacked", trace)
        self._fine(stacked.TracedK, "extend", "stacked", extend)
        self._fine(stacked.Choice, "__init__", "stacked", choice_built)

    # -- context -----------------------------------------------------------

    def __enter__(self):
        for module, attr, layer, measure in ENTRY_POINTS:
            self._entry(module, attr, layer, measure)
        if self.fine:
            self._install_fine()
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        return False
