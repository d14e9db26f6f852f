"""The cassette benchmark.

    python3 bench/run.py --workload terms_small --seed 1 --seconds 30 --trace 0

Workloads (`BENCHMARK.json` gives the reason for each):

* ``terms_small`` -- library traffic of small λ-terms, rejects and
  demo-format pairs, where per-call costs dominate;
* ``terms_large`` -- a few large terms (long identifiers, deep `Abs`
  chains, balanced `App` trees), where per-character costs dominate;
* ``cli`` -- one client running ``python -m cassette.cli`` invocations
  back to back (a closed loop), where start-up dominates.

Every workload runs every kind of request, so each end-to-end metric
exists on each workload.  A request is a print or a parse on one
engine, a JSON encode+decode, a rejected parse, a demo-format
sprintf+sscanf pair, or one CLI invocation.  A run repeats a fixed round
of requests.  Throughputs are the work of one round divided by the sum
of each op's fastest time in the run, counting as work only ops that
always had the expected outcome.
Latencies are percentiles of requests.  On cli a request is one
invocation, and the percentiles are over every invocation of the run,
taken in windows of at least 100 and reported as the median window.  On
the terms workloads a request is one term's round trip on both engines
and through JSON, its latency is the sum of its ops' fastest times in
the run, and the percentiles are over the workload's terms.  Rejects and demo-format
pairs feed no latency.

With ``--trace 0`` the run prints every end-to-end metric; with
``--trace 1`` it prints every per-layer metric and the tracing overhead,
and writes its spans under ``bench/out/``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed`` counts ops whose outcome is not
the expected one, known defects of the library included; ``correct`` is
false when any failure is not one of those known defects.

The library is imported from the checkout's own ``src/``; nothing needs
to be installed.  Each workload runs in its own child process
(``measure.py``), and set-up time is measured in fresh interpreters
(``setup_probe.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REQUIRED = ("BENCHMARK.json", "src/cassette/__init__.py", "tests/cfg_oracle.py",
            "tests/golden/manifest.json", "corpus")
SETUP_SAMPLES = 15
CLI_PROBE_REPEATS = 5
RUN_LIMIT_S = 170
CLI_PROBES = {
    "parse": (["parse"], "λx.(x x)\n"),
    "pretty": (["pretty"], '{"Abs":["x",{"App":[{"Var":"x"},{"Var":"x"}]}]}\n'),
    "roundtrip": (["roundtrip"], "λx.(x x)\n"),
    "fmt": (["fmt", "print", "5", "a", "f"], ""),
    "test-corpus": (["test-corpus", "corpus"], ""),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def git_sha() -> str:
    """The checked-out commit, or "unknown" outside a git checkout."""
    try:
        code, out, _ = run_checked(["git", "rev-parse", "HEAD"], 10)
    except (OSError, BenchError):
        return "unknown"
    return out.decode().strip() if code == 0 else "unknown"


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_checked(cmd, timeout, stdin=b"", env=None):
    """Run a command in its own process group; kill the whole group if
    it outlives `timeout`.  Returns (exit code, stdout, stderr)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(stdin, timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(map(str, cmd[:3]))} ran past {timeout:.0f} s")
    return proc.returncode, out, err


def probe_json(cmd):
    code, out, err = run_checked(cmd, 60)
    if code != 0:
        raise BenchError(f"probe failed: {err.decode(errors='replace')[-400:]}")
    return json.loads(out.decode().splitlines()[-1])


def setup_probes():
    """Set-up time and grammar build times, medians over fresh interpreters."""
    samples = [probe_json([sys.executable, str(BENCH / "setup_probe.py"), "setup", str(SRC)])
               for _ in range(SETUP_SAMPLES)]
    med = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    return {"setup_s": (med["setup_s"], "s"),
            "lam.grammar_build_ms.tier2": (med["tier2_s"] * 1e3, "ms"),
            "lam.grammar_build_ms.stacked": (med["stacked_s"] * 1e3, "ms")}


def wall_ms(cmd, stdin=b"", env=None):
    start = time.perf_counter()
    code, _, err = run_checked(cmd, 60, stdin, env)
    elapsed = (time.perf_counter() - start) * 1e3
    if code != 0:
        raise BenchError(f"{cmd[3:]} exited {code}: {err.decode(errors='replace')[-400:]}")
    return elapsed


def cli_probes():
    """Per-process CLI costs: the interpreter floor, the import of the
    CLI, and one small invocation of each subcommand."""
    env = cli_env()
    reps = range(CLI_PROBE_REPEATS)
    m = {"cli.interp_floor_ms": (statistics.median(
        wall_ms([sys.executable, "-c", "pass"]) for _ in reps), "ms")}
    m["cli.import_ms"] = (statistics.median(
        probe_json([sys.executable, str(BENCH / "setup_probe.py"), "cli-import", str(SRC)])
        ["import_s"] for _ in reps) * 1e3, "ms")
    for sub, (argv, stdin) in CLI_PROBES.items():
        cmd = [sys.executable, "-m", "cassette.cli", *argv]
        m[f"cli.process_ms.{sub}"] = (statistics.median(
            wall_ms(cmd, stdin.encode(), env) for _ in reps), "ms")
    return m


def run_workload(args, deadline):
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    cmd = [sys.executable, str(BENCH / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spans", str(spans)]
    code, out, err = run_checked(cmd, max(1.0, deadline - time.monotonic()), env=cli_env())
    sys.stderr.write(err.decode(errors="replace"))
    if code != 0:
        raise BenchError(f"workload process exited {code}")
    return json.loads(out.decode().splitlines()[-1])


def check_checkout():
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        raise BenchError("not a cassette checkout; missing " + ", ".join(missing))
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="the cassette benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        spec = check_checkout()
        whys = {w["name"]: w["why"] for w in spec["workloads"]}
        if args.workload not in whys:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(whys)}")
        declared = spec["per_layer" if args.trace else "end_to_end"]
        metrics = setup_probes()
        child = run_workload(args, deadline)
        metrics.update({k: (v["value"], v["unit"]) for k, v in child["metrics"].items()})
        if args.trace:
            metrics.update(cli_probes())
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    bad = [m["name"] for m in declared if m["name"] in metrics
           and (not math.isfinite(metrics[m["name"]][0]) or metrics[m["name"]][1] != m["unit"])]
    if missing or bad:
        print(f"bench: metrics missing {missing}, malformed {bad}", file=sys.stderr)
        return 2

    context = {"workload": args.workload, "why": whys[args.workload], "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "python": platform.python_version(), "nproc": os.cpu_count(),
               "machine": platform.machine(), "git_sha": git_sha()}
    correct = not child["unexpected"]
    result = {"correct": correct, "attempted": child["attempted"], "failed": child["failed"],
              "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                          for m in declared}}
    OUT.mkdir(exist_ok=True)
    report = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps({"context": context, "notes": child["notes"],
                                  "known_defects": child["known_defects"],
                                  "unexpected": child["unexpected"], **result}, indent=1),
                      encoding="utf-8")

    print("# context " + json.dumps(context, ensure_ascii=False))
    print(f"# notes {json.dumps(child['notes'])}")
    print(f"# failed {child['failed']} of {child['attempted']}: known defects "
          f"{json.dumps(child['known_defects'])}, unexpected {len(child['unexpected'])}")
    for line in child["unexpected"]:
        print(f"#   unexpected: {line}")
    for m in declared:
        value, unit = metrics[m["name"]]
        print(f"{m['name']:<48} {value:>16.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
