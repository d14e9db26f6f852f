"""Workload process of the cassette benchmark: warm up, measure, check.

Run by `run.py` in a fresh interpreter per workload, so that its peak
memory belongs to that workload alone.  It prints one JSON object as its
last line of standard output.

Untraced (`--trace 0`) it runs rounds of the workload's ops one at a
time until `--seconds` would be exceeded, timing every op and checking
every outcome.  Traced (`--trace 1`) it runs the round untraced and with
entry spans only, three times each (per-layer times are medians), then
once with every boundary traced (counts, which repeat exactly for a
given seed, and self time).  The overhead is the fully traced round
against the untraced one.

Both kinds of run freeze what exists after the warm-up out of the cyclic
collector, once, so that collections scan what the library allocates
rather than the benchmark's own inputs.  Every collection is timed as
part of an op (see `run_round`), so what a run records as it goes is
kept in arrays, which the collector does not scan: a list of 36 000
floats adds about 90 us to every collection.
"""

from __future__ import annotations

import argparse
import gc
from array import array
import json
import math
import pathlib
import resource
import statistics
import sys
from time import perf_counter_ns

import tracing
import workloads
from cassette import stacked

FAMILIES = {
    "print_chars_per_s.tier2": ("print.tier2", "char/s"),
    "print_chars_per_s.stacked": ("print.stacked", "char/s"),
    "parse_chars_per_s.tier2": ("parse.tier2", "char/s"),
    "parse_chars_per_s.stacked": ("parse.stacked", "char/s"),
    "reject_inputs_per_s.tier2": ("reject.tier2", "input/s"),
    "reject_inputs_per_s.stacked": ("reject.stacked", "input/s"),
    "json_chars_per_s": ("json", "char/s"),
    "fmt_ops_per_s.tier1": ("fmt.tier1", "pair/s"),
    "fmt_ops_per_s.stacked": ("fmt.stacked", "pair/s"),
}
RUNNER_FLOOR_REPEATS = 300
TIMED_PASSES = 3
LATENCY_WINDOW = 100


class Tally:
    """Attempted and failed ops, with the reasons of failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.known = {}

    def record(self, op, failure):
        self.attempted += 1
        if failure is None:
            return
        self.failed += 1
        if failure.known is None:
            if len(self.unexpected) < 20:
                self.unexpected.append(f"{op.label}: {failure.reason}")
        else:
            self.known[failure.known] = self.known.get(failure.known, 0) + 1


def run_round(ops, tally, tracer=None):
    """Run every op once; per-op times in ns and per-op success.

    An op's time is that of its call plus that of a collection made once
    its outcome is checked and dropped.  Each op thus pays for the cyclic
    garbage it leaves, and the next one starts with the collector's
    counts at zero, so that the collector runs at the same points of an
    op in every round.
    """
    times, ok = array("q"), bytearray()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = perf_counter_ns()
        try:
            value, raised = op.run(), False
        except Exception as e:  # an op's exception is its outcome, checked below
            value, raised = e, True
        elapsed = perf_counter_ns() - start
        failure = op.check(not raised, value)
        del value
        start = perf_counter_ns()
        gc.collect()
        times.append(elapsed + perf_counter_ns() - start)
        tally.record(op, failure)
        ok.append(failure is None)
    return times, ok


def warm_and_freeze(wl):
    """Warm up, then freeze everything alive out of the cyclic collector."""
    run_round(wl.warmup, Tally())
    gc.collect()
    gc.freeze()


def latency_percentiles(latencies, per_round):
    """p50 and p90 in ms: the median over windows of each window's own
    percentile.  A window is the requests of consecutive whole rounds,
    at least `LATENCY_WINDOW` of them, so its p90 has ten or more
    requests beyond it; a run too short for one window is one window.
    Every request of a window counts, yet a slow spell of the host that
    covers fewer than half the windows moves neither figure."""
    size = per_round * math.ceil(LATENCY_WINDOW / per_round)
    windows = [latencies[i:i + size] for i in range(0, len(latencies) - size + 1, size)]
    windows = windows or [latencies]
    p50 = statistics.median(statistics.median(w) for w in windows)
    p90 = statistics.median(statistics.quantiles(w, n=10)[-1] for w in windows)
    return p50, p90, len(windows)


def end_to_end(wl, seconds):
    """Rounds of the workload until the next one would pass `seconds`.

    A family's throughput is the work of one round's ops of that family
    that always had the expected outcome, divided by the sum of each of
    its ops' fastest time in the run.  Identical calls do identical work
    here (the same collections, at the same points), yet their times
    spread up to threefold on a shared host, so the fastest time is what
    repeats from run to run.

    A request (see `workloads.Op`) is a term's round trip on the terms
    workloads and an invocation on cli.  On cli the latency percentiles
    are taken over every invocation of the run, window by window (see
    `latency_percentiles`).  On the terms workloads a request's latency
    is the sum of its ops' fastest times, for the reason above, and the
    percentiles are taken over the round's requests, that is over the
    workload's terms.
    """
    tally = Tally()
    ops = wl.ops
    requests = {}
    slot = [-1 if op.request is None else requests.setdefault(op.request, len(requests))
            for op in ops]
    fastest = array("q", [2 ** 63 - 1]) * len(ops)
    always_ok = bytearray([1]) * len(ops)
    latencies = array("d")
    per_invocation = wl.name == "cli"
    budget = seconds * 1e9
    rounds = 0
    warm_and_freeze(wl)
    try:
        start = perf_counter_ns()
        while True:
            round_start = perf_counter_ns()
            times, ok = run_round(ops, tally)
            rounds += 1
            for i, t in enumerate(times):
                fastest[i] = min(fastest[i], t)
                always_ok[i] &= ok[i]
            if per_invocation:
                request_ns = array("q", [0]) * len(requests)
                for i, t in enumerate(times):
                    request_ns[slot[i]] += t
                latencies.extend(t / 1e6 for t in request_ns)
            now = perf_counter_ns()
            if now - start + (now - round_start) > budget:
                break
    finally:
        gc.unfreeze()
    metrics = {}
    for metric, (family, unit) in FAMILIES.items():
        members = [i for i, op in enumerate(ops) if family in op.work]
        work = sum(ops[i].work[family] for i in members if always_ok[i])
        busy = sum(fastest[i] for i in members)
        metrics[metric] = (work / (busy / 1e9) if busy else 0.0, unit)
    if per_invocation:
        p50, p90, windows = latency_percentiles(latencies, len(requests))
        samples = len(latencies)
    else:
        best = [0.0] * len(requests)
        for i, j in enumerate(slot):
            if j >= 0:
                best[j] += fastest[i] / 1e6
        p50 = statistics.median(best)
        p90 = statistics.quantiles(best, n=10, method="inclusive")[-1]
        windows, samples = 0, len(best)
    metrics["latency_p50_ms"] = (p50, "ms")
    metrics["latency_p90_ms"] = (p90, "ms")
    metrics["ok_ratio"] = (1 - tally.failed / tally.attempted, "ratio")
    # The cli workload's requests run in processes of their own.
    usage = resource.RUSAGE_CHILDREN if per_invocation else resource.RUSAGE_SELF
    metrics["peak_rss_mb"] = (resource.getrusage(usage).ru_maxrss / 1024, "MiB")
    notes = {"rounds": rounds, "ops_per_round": len(wl.ops), "latency_samples": samples,
             "latency_windows": windows,
             "measured_s": (perf_counter_ns() - start) / 1e9}
    return tally, metrics, notes


# ---------------------------------------------------------------------------
# Traced run


def _sum(records, name, key="dur", status=None):
    return sum(r["end"] - r["start"] if key == "dur" else r[key]
               for r in _calls(records, name, status))


def _calls(records, name, status=None):
    return [r for r in records if r["name"] == name and (status is None or r["status"] == status)]


def _per(num, den):
    return num / den if den else 0.0


def _fit_exponent(points):
    """Least-squares slope of log(time) against log(size)."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def _fit_points(records, ops, name):
    return [(r["size"], r["end"] - r["start"]) for r in _calls(records, name, "value")
            if ops[r["op"]].fit]


def layer_times(records, ops):
    """Per-layer times from a round traced at entry points only."""
    m = {}
    ok = "value"
    m["lam.to_json_us_per_char"] = (_per(_sum(records, "lam.term_to_json", status=ok) / 1e3,
                                         _sum(records, "lam.term_to_json", "size", ok)), "us/char")
    m["lam.from_json_us_per_char"] = (_per(_sum(records, "lam.term_from_json", status=ok) / 1e3,
                                           _sum(records, "lam.term_from_json", "size", ok)),
                                      "us/char")
    for layer in ("tier1", "stacked"):
        for fn in ("sprintf", "sscanf"):
            calls = _calls(records, f"{layer}.{fn}")
            m[f"{layer}.{fn}_us"] = (_per(_sum(calls, f"{layer}.{fn}") / 1e3, len(calls)), "us")
    for layer in ("tier2", "stacked"):
        for fn, direction in (("pretty", "print"), ("parse", "parse")):
            name = f"{layer}.{fn}"
            m[f"{layer}.{fn}_us_per_char"] = (_per(_sum(records, name, status=ok) / 1e3,
                                                   _sum(records, name, "size", ok)), "us/char")
            m[f"{layer}.exponent.{direction}"] = (_fit_exponent(_fit_points(records, ops, name)),
                                                  "slope")
        rejects = _calls(records, f"{layer}.parse", "none")
        m[f"{layer}.reject_us_per_input"] = (_per(_sum(rejects, f"{layer}.parse") / 1e3,
                                                  len(rejects)), "us")
    return m


def layer_counts(tracer):
    """Per-layer counts per printed or parsed character, from a round
    with every boundary traced."""
    records = tracer.records
    m = {}

    def totals(name):
        calls = _calls(records, name, "value")
        chars = sum(r["size"] for r in calls)
        counts = {}
        for r in calls:
            for k, v in r["counts"].items():
                counts[k] = counts.get(k, 0) + v
        return counts, chars, calls

    per_char = "1/char"
    c, chars, _ = totals("stacked.pretty")
    m["stacked.trace_calls_per_char"] = (_per(c.get("trace", 0), chars), per_char)
    m["stacked.trace_chars_copied_per_char"] = (_per(c.get("trace_chars", 0), chars), per_char)
    m["stacked.extend_calls_per_char"] = (_per(c.get("extend", 0), chars), per_char)
    m["stacked.actions_built_per_char"] = (_per(c.get("choice_built", 0), chars), per_char)
    for engine in ("tier2", "stacked"):
        for fn, direction in (("pretty", "print"), ("parse", "parse")):
            c, chars, calls = totals(f"{engine}.{fn}")
            # The stacked parse side never touches the value stack.
            if (engine, direction) != ("stacked", "parse"):
                m[f"values.stack_ops_per_char.{engine}.{direction}"] = (
                    _per(c.get("stack_ops", 0), chars), per_char)
            m[f"values.cons_items_copied_per_char.{engine}.{direction}"] = (
                _per(c.get("list_items", 0), chars), per_char)
    c, _, calls = totals("tier2.parse")
    nodes = sum(r["nodes"] for r in calls)
    m["values.frames_per_node.tier2"] = (_per(c.get("open_frame", 0), nodes), "1/node")
    for engine in ("tier2", "stacked"):
        hits = tries = 0
        for r in records:
            if r["layer"] == engine:
                hits += r["counts"].get("preview_hit", 0)
                tries += r["counts"].get("preview", 0)
        m[f"values.preview_hit_ratio.{engine}"] = (_per(hits, tries), "ratio")
    for layer in ("lam", "tier1", "tier2", "stacked", "values"):
        m[f"{layer}.self_ms"] = (tracer.self_ns.get(layer, 0) / 1e6, "ms")
    return m


def runner_floor_us():
    action = stacked.alt_lit("x")
    times = []
    for _ in range(RUNNER_FLOOR_REPEATS):
        start = perf_counter_ns()
        stacked.parse(action, "x")
        times.append(perf_counter_ns() - start)
    return statistics.median(times) / 1e3


def median_spans(passes):
    """Entry spans of the first pass, each given the median duration of
    the same call over all passes; the calls repeat in the same order."""
    if any(len(p) != len(passes[0]) for p in passes):
        return passes[0]
    out = []
    for same in zip(*passes):
        r = dict(same[0])
        r["end"] = r["start"] + statistics.median(x["end"] - x["start"] for x in same)
        out.append(r)
    return out


def traced(wl, out_path):
    tally = Tally()
    ops = wl.traced_ops
    warm_and_freeze(wl)
    try:
        plain = [run_round(ops, tally)[0] for _ in range(TIMED_PASSES)]
        coarse = []
        for _ in range(TIMED_PASSES):
            with tracing.Tracer(fine=False) as tracer:
                run_round(ops, tally, tracer)
            coarse.append(tracer.records)
        with tracing.Tracer(fine=True) as fine:
            traced_times, _ = run_round(ops, tally, fine)
    finally:
        gc.unfreeze()
    plain_ns = sum(statistics.median(t) for t in zip(*plain))
    metrics = layer_times(median_spans(coarse), ops)
    metrics.update(layer_counts(fine))
    metrics["stacked.runner_floor_us"] = (runner_floor_us(), "us")
    metrics["trace.overhead_pct"] = (100 * (sum(traced_times) / plain_ns - 1), "%")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump({"workload": wl.name, "seed": wl.seed,
                   "entry_spans": fine.records,
                   "fine_boundaries": {k: {"calls": fine.fine_calls[k], "ns": fine.fine_ns[k]}
                                       for k in sorted(fine.fine_calls)},
                   "self_ns": dict(fine.self_ns)}, f)
    notes = {"ops_per_round": len(ops), "untraced_round_s": plain_ns / 1e9,
             "traced_round_s": sum(traced_times) / 1e9, "spans_file": str(out_path)}
    return tally, metrics, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans", required=True, help="where the traced run writes its spans")
    args = ap.parse_args(argv)
    wl = workloads.build(args.workload, args.seed)
    if args.trace:
        tally, metrics, notes = traced(wl, pathlib.Path(args.spans))
    else:
        tally, metrics, notes = end_to_end(wl, args.seconds)
    print(json.dumps({"attempted": tally.attempted, "failed": tally.failed,
                      "unexpected": tally.unexpected, "known_defects": tally.known,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                      "notes": notes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
