"""Seeded workloads for the cassette benchmark, with independent expectations.

Every workload is a fixed list of ops (one *round*) built from the seed
alone.  An op calls one public function of the library (or runs the
CLI) and carries its own expected outcome.  Expected outcomes never come
from the engine under test:

* terms are generated here as plain tuples, and their canonical text and
  JSON are serialised here, iteratively, so deep terms cannot hit the
  recursion limit of the checker;
* reject verdicts come from construction or from ``tests/cfg_oracle.py``;
* demo-format lines come from an f-string;
* CLI cases come from ``tests/golden/`` plus the expectations above.

Known defects of the program stay in the workloads.  An op that hits one
fails (it is counted in ``failed``) and names the defect, so the result
stays ``correct`` as long as nothing else goes wrong.
"""

from __future__ import annotations

import functools
import importlib.util
import io
import json
import pathlib
import random
import string
import subprocess
import sys
from collections import Counter, defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
TESTS = ROOT / "tests"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from cassette import cli, lam, stacked, tier1  # noqa: E402
from cassette.values import Adt, Char, ContractViolation, Int, List, Text  # noqa: E402

LAMBDA = "λ"
ENGINES = {"tier2": "cassette", "stacked": "stacked"}
ALNUM = string.ascii_letters + string.digits

# Known defects an op may hit today.  A failure that names one of these
# is still a failure; it only keeps `correct` true.
DIGIT_TRUNCATION = "digit-truncation"   # fmt print of n >= 10 prints str(n)[0]
DEEP_JSON = "deep-json"                 # JSON of terms nested >= 500 deep recurses
CLI_DEEP_PARSE = "cli-deep-parse"       # `cassette parse` of such a term exits 1
DEEP_JSON_DEPTH = 500


class Failure:
    __slots__ = ("reason", "known")

    def __init__(self, reason: str, known: str | None = None):
        self.reason = reason
        self.known = known

    def __repr__(self):
        return f"Failure({self.reason!r}, known={self.known!r})"


class Op:
    """One request of a workload.

    `run()` performs it; `check(ok, value)` returns None when the
    outcome is the expected one, else a `Failure`.  `work` maps the
    end-to-end families this op feeds to the units of work it does when
    it succeeds.  `fit` marks the ops whose engine calls feed the
    exponent fits of the traced run.  Ops that share a `request` key
    make up one request of a user, whose latency sums their times (see
    `measure.end_to_end`); ops without one feed no latency.
    """

    __slots__ = ("label", "run", "check", "work", "fit", "request")

    def __init__(self, label, run, check, work, fit=False, request=None):
        self.label = label
        self.run = run
        self.check = check
        self.work = work
        self.fit = fit
        self.request = request


@functools.cache
def _load_test_module(name):
    """A helper module of the test suite, loaded from `tests/` by path."""
    spec = importlib.util.spec_from_file_location(name, TESTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# Terms as plain tuples: ("V", name) | ("L", binder, body) | ("A", fun, arg)


def from_value(v):
    """The tuple term of a small library λ-term value (as the test
    suite's generator builds them), read off its structure."""
    name_or_fun, *rest = v.args
    if v.tag == "Var":
        return ("V", name_or_fun.s)
    if v.tag == "Abs":
        return ("L", name_or_fun.s, from_value(rest[0]))
    return ("A", from_value(name_or_fun), from_value(rest[0]))


def _corpus():
    """The test suite's seeded λ-term generator (acceptance test c04)."""
    return _load_test_module("lam_corpus")


def gen_small(rng, depth):
    return from_value(_corpus().gen_term(rng, depth))


def terms_of_lengths(rng, depth, lengths):
    """Generated terms whose texts have exactly the given lengths, in
    order: every seed then draws the same sizes and only the terms
    differ.  Latencies follow the size of a round trip, and free draws
    move the median term length from 9 to 14 chars between seeds."""
    need = Counter(lengths)
    found = defaultdict(list)
    while need:
        t = gen_small(rng, depth)
        n = len(term_text(t))
        if n in need:
            found[n].append(t)
            need[n] -= 1
            if not need[n]:
                del need[n]
    return [found[n].pop(0) for n in lengths]


def long_ident(rng, n):
    return rng.choice(string.ascii_letters) + "".join(
        rng.choice(ALNUM) for _ in range(n - 1))


def abs_chain(rng, depth):
    gen_ident = _corpus().gen_ident
    t = ("V", gen_ident(rng))
    for _ in range(depth):
        t = ("L", gen_ident(rng), t)
    return t


def balanced_app(rng, depth):
    level = [("V", _corpus().gen_ident(rng)) for _ in range(2 ** depth)]
    while len(level) > 1:
        level = [("A", level[i], level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def _serialise(t, expand):
    out, todo = [], [t]
    while todo:
        x = todo.pop()
        if isinstance(x, str):
            out.append(x)
        else:
            todo.extend(reversed(expand(x)))
    return "".join(out)


def _text_parts(t):
    if t[0] == "V":
        return [t[1]]
    if t[0] == "L":
        return [LAMBDA, t[1], ".", t[2]]
    return ["(", t[1], " ", t[2], ")"]


def _json_parts(t):
    if t[0] == "V":
        return ['{"Var":', json.dumps(t[1]), "}"]
    if t[0] == "L":
        return ['{"Abs":[', json.dumps(t[1]), ",", t[2], "]}"]
    return ['{"App":[', t[1], ",", t[2], "]}"]


def term_text(t) -> str:
    """Canonical surface text, built without any engine."""
    return _serialise(t, _text_parts)


def term_json(t) -> str:
    """The compact JSON syntax tree, built without any engine."""
    return _serialise(t, _json_parts)


def term_depth(t) -> int:
    best, todo = 0, [(t, 1)]
    while todo:
        x, d = todo.pop()
        best = max(best, d)
        if x[0] != "V":
            todo.extend((c, d + 1) for c in x[2 if x[0] == "L" else 1:])
    return best


def to_value(t):
    """The library's Adt encoding of a tuple term, built iteratively."""
    done, todo = [], [(t, False)]
    while todo:
        x, ready = todo.pop()
        if x[0] == "V":
            done.append(Adt("Var", (Text(x[1]),)))
        elif not ready:
            todo.append((x, True))
            todo.extend((c, False) for c in reversed(x[2 if x[0] == "L" else 1:]))
        elif x[0] == "L":
            done.append(Adt("Abs", (Text(x[1]), done.pop())))
        else:
            arg = done.pop()
            done.append(Adt("App", (done.pop(), arg)))
    return done[0]


def same_term(v, t) -> bool:
    """Iterative comparison of a library value with a tuple term; never
    calls `Value.__eq__`, which recurses."""
    todo = [(v, t)]
    while todo:
        v, t = todo.pop()
        if not isinstance(v, Adt):
            return False
        if t[0] == "V":
            if (v.tag != "Var" or len(v.args) != 1 or not isinstance(v.args[0], Text)
                    or v.args[0].s != t[1]):
                return False
        elif t[0] == "L":
            if (v.tag != "Abs" or len(v.args) != 2 or not isinstance(v.args[0], Text)
                    or v.args[0].s != t[1]):
                return False
            todo.append((v.args[1], t[2]))
        else:
            if v.tag != "App" or len(v.args) != 2:
                return False
            todo.append((v.args[0], t[1]))
            todo.append((v.args[1], t[2]))
    return True


def node_count(v) -> int:
    """Adt nodes of a library value, counted iteratively."""
    n, todo = 0, [v]
    while todo:
        x = todo.pop()
        if isinstance(x, Adt):
            n += 1
            todo.extend(x.args)
    return n


# ---------------------------------------------------------------------------
# Reject verdicts


def _oracle_grammar(o):
    letter = o.Sat(lambda c: c.isascii() and c.isalpha())
    alnum = o.Sat(lambda c: c.isascii() and c.isalnum())
    rest = o.Ref(lambda: o.Or(o.Cat(alnum, rest), o.Lit("")))
    ident = o.Cat(letter, rest)
    term = o.Ref(lambda: o.Or(
        ident,
        o.Cat(o.Lit(LAMBDA), ident, o.Lit("."), term),
        o.Cat(o.Lit("("), term, o.Lit(" "), term, o.Lit(")"))))
    return term


def malformed_small(rng, count, oracle):
    """`count` mutated small terms that have no parseable prefix at all,
    as decided by the brute-force oracle (parsers ignore trailing input,
    so only a string with no parseable prefix must be rejected)."""
    grammar = _oracle_grammar(oracle)
    noise = LAMBDA + ".() " + "xy1"
    out = []
    while len(out) < count:
        s = term_text(gen_small(rng, 3))
        i = rng.randrange(len(s) + 1)
        how = rng.randrange(4)
        if how == 0:
            s = s[:i] + s[i + 1:]
        elif how == 1:
            s = s[:i] + rng.choice(noise) + s[i:]
        elif how == 2:
            s = s[:i] + rng.choice(noise) + s[i + 1:]
        else:
            s = rng.choice(noise) + s
        if not oracle.derives_prefix(grammar, s):
            out.append(s)
    return out


def without_last_ident(t) -> str:
    """The text of an `Abs` or `App` term with its last identifier
    deleted.  The innermost λ then has no body, or the innermost
    application no argument, and no prefix of the text parses: a reject
    by construction."""
    leaf = t
    while leaf[0] != "V":
        leaf = leaf[-1]
    s = term_text(t)
    body = s.rstrip(")")
    return body[:-len(leaf[1])] + s[len(body):]


# ---------------------------------------------------------------------------
# Library ops


def _expect_text(expected):
    def check(ok, value):
        if not ok:
            return Failure(f"raised {value!r}")
        if value != expected:
            return Failure(f"printed {str(value)[:60]!r}")
        return None
    return check


def _expect_term(t):
    def check(ok, value):
        if not ok:
            return Failure(f"raised {value!r}")
        if not same_term(value, t):
            return Failure("parsed a different term")
        return None
    return check


def _expect_reject(ok, value):
    if not ok:
        return Failure(f"raised {value!r}")
    if value is not None:
        return Failure("accepted a malformed input")
    return None


def print_op(t, value, text, engine, fit):
    e = ENGINES[engine]
    return Op(f"print.{engine}", lambda: lam.pretty_term(value, e),
              _expect_text(text), {f"print.{engine}": len(text)}, fit)


def parse_op(t, text, engine, fit):
    e = ENGINES[engine]
    return Op(f"parse.{engine}", lambda: lam.parse_term(text, e),
              _expect_term(t), {f"parse.{engine}": len(text)}, fit)


def reject_op(text, engine):
    e = ENGINES[engine]
    return Op(f"reject.{engine}", lambda: lam.parse_term(text, e),
              _expect_reject, {f"reject.{engine}": 1})


def json_op(t, value, js):
    deep = term_depth(t) >= DEEP_JSON_DEPTH

    def run():
        try:
            encoded = lam.term_to_json(value)
        except RecursionError as e:
            encoded = e
        return encoded, lam.term_from_json(js)

    def check(ok, result):
        if not ok:
            return Failure(f"raised {result!r}")
        encoded, decoded = result
        if encoded == js and decoded is not None and same_term(decoded, t):
            return None
        recursed = isinstance(encoded, RecursionError) or decoded is None
        return Failure("deep term JSON failed" if recursed else "wrong JSON",
                       DEEP_JSON if deep and recursed else None)

    return Op("json", run, check, {"json": len(js)})


def _fmt_line(n, c1, c2):
    return f"{n}-th character after {c1} is {c2}"


def fmt_op(tier, fmt, n, c1, c2):
    """A sprintf+sscanf pair of the demo format; n >= 10 must be refused."""
    engine = tier1 if tier == "tier1" else stacked
    line = _fmt_line(n, c1, c2)
    args = [Int(n), Char(c1), Char(c2)]

    if n >= 10:
        truncated = _fmt_line(str(n)[0], c1, c2)

        def run():
            try:
                return engine.sprintf(fmt, args)
            except ContractViolation:
                return None

        def check(ok, value):
            if not ok:
                return Failure(f"raised {value!r}")
            if value is None:
                return None
            return Failure(f"printed {value!r} for n={n}",
                           DIGIT_TRUNCATION if value == truncated else None)

        return Op(f"fmt.{tier}", run, check, {f"fmt.{tier}": 1})

    def run():
        return engine.sprintf(fmt, args), engine.sscanf(fmt, line)

    def check(ok, value):
        if not ok:
            return Failure(f"raised {value!r}")
        printed, scanned = value
        if printed != line:
            return Failure(f"printed {printed!r}")
        if isinstance(scanned, List):
            scanned = scanned.items
        if list(map(repr, scanned)) != list(map(repr, args)):
            return Failure(f"scanned {scanned!r}")
        return None

    return Op(f"fmt.{tier}", run, check, {f"fmt.{tier}": 1})


def _fmt_triple(rng, wide):
    return (rng.randrange(10, 100) if wide else rng.randrange(10),
            rng.choice(ALNUM), rng.choice(ALNUM))


def fmt_args(rng, count, refused):
    """`count` demo-format argument triples, of which `refused` (seeded
    positions) have a two-digit n, which the format must refuse."""
    wide = set(rng.sample(range(count), refused))
    return [_fmt_triple(rng, i in wide) for i in range(count)]


def term_ops(t, fit):
    """The round trip of one term on both engines and through JSON: one
    request, whose latency sums the times of its five ops."""
    value, text, js = to_value(t), term_text(t), term_json(t)
    ops = []
    for engine in ENGINES:
        ops.append(print_op(t, value, text, engine, fit))
        ops.append(parse_op(t, text, engine, fit))
    ops.append(json_op(t, value, js))
    request = object()
    for op in ops:
        op.request = request
    return ops


def fmt_ops(rng, count, refused):
    """Demo-format pairs on tier 1 and the linear stacked variant, and
    their argument triples."""
    formats = {"tier1": tier1.nth_char_format(), "stacked": stacked.nth_char_format()}
    args = {tier: fmt_args(rng, count, refused) for tier in formats}
    return [fmt_op(tier, formats[tier], *a) for tier in formats for a in args[tier]], args


# ---------------------------------------------------------------------------
# CLI ops


class CliCase:
    """One CLI invocation with its expected bytes and exit code.

    The expected stderr is only a prefix (`err_prefix`) where the exact
    message is not fixed.  `known` names the defect a failure of this
    case may show, and `truncated` is the output that shows it for a
    demo-format print.
    """

    def __init__(self, name, argv, stdin, out, err, code,
                 err_prefix=False, known=None, truncated=""):
        self.name = name
        self.argv = argv
        self.stdin = stdin.encode("utf-8")
        self.out = out.encode("utf-8")
        self.err = err.encode("utf-8")
        self.code = code
        self.work = _cli_work(argv, stdin, out, code)
        self.err_prefix = err_prefix
        self.known = known
        self.truncated = truncated.encode("utf-8")

    @property
    def subcommand(self):
        return self.argv[0]

    def check(self, ok, value):
        if not ok:
            return Failure(f"raised {value!r}")
        code, out, err = value
        err_ok = err.startswith(self.err) if self.err_prefix else err == self.err
        if code == self.code and out == self.out and err_ok:
            return None
        return Failure(f"{self.name}: exit {code}, stdout {out[:60]!r}, stderr {err[-80:]!r}",
                       self.known_failure(code, out, err))

    def known_failure(self, code, out, err):
        if self.known == CLI_DEEP_PARSE and code == 1 and b"RecursionError" in err:
            return self.known
        if self.known == DIGIT_TRUNCATION and code == 0 and out == self.truncated:
            return self.known
        return None


def _golden_cases():
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    cases = []
    for c in manifest:
        out = (GOLDEN / f"{c['name']}.out").read_text(encoding="utf-8")
        err = (GOLDEN / f"{c['name']}.err").read_text(encoding="utf-8")
        cases.append(CliCase(c["name"], c["argv"], c["stdin"], out, err, c["exit"]))
    return cases


def _cli_engine(argv):
    pairs = set(zip(argv, argv[1:]))
    return "stacked" if {("--engine", "stacked"), ("--tier", "3")} & pairs else "tier2"


def _cli_work(argv, stdin, out, code):
    """End-to-end families a CLI case feeds, with its units of work."""
    sub, engine = argv[0], _cli_engine(argv)
    text, printed = stdin.rstrip("\n"), out.rstrip("\n")
    if sub == "fmt":
        return {f"fmt.{'stacked' if engine == 'stacked' else 'tier1'}": 0.5}
    if sub == "parse":
        if code == 1:
            return {f"reject.{engine}": 1}
        if code == 0:
            return {f"parse.{engine}": len(text), "json": len(printed)}
    if code != 0:
        return {}
    if sub == "pretty":
        return {f"print.{engine}": len(printed), "json": len(text)}
    if sub == "roundtrip":
        return {f"parse.{engine}": len(text), f"print.{engine}": len(printed)}
    return {}


def _engine_flag(engine):
    return ["--engine", "stacked"] if engine == "stacked" else []


# An invocation costs about the same whatever its term, so its chars per
# second follow the term's length: with free draws the CLI throughputs
# spread 0.5-1.2 (IQR/median) over ten seeds.
CLI_TERM_CHARS = 24


def generated_cli_cases(rng, oracle):
    cases = []
    terms = terms_of_lengths(rng, 4, [CLI_TERM_CHARS] * 4)
    for i, (engine, t) in enumerate(zip(["tier2", "stacked", "tier2", "stacked"], terms)):
        text, js = term_text(t), term_json(t)
        for sub, stdin, out in (("parse", text, js), ("pretty", js, text),
                                ("roundtrip", text, text)):
            argv = [sub] + _engine_flag(engine)
            cases.append(CliCase(f"gen_{sub}_{i}", argv, stdin + "\n", out + "\n", "", 0))
    for i, (engine, bad) in enumerate(zip(ENGINES, malformed_small(rng, 2, oracle))):
        argv = ["parse"] + _engine_flag(engine)
        cases.append(CliCase(f"gen_reject_{i}", argv, bad + "\n", "",
                             "parse failed: not a term\n", 1))
    for tier, flag in (("tier1", []), ("stacked", ["--tier", "3"])):
        for i in range(2):
            n, c1, c2 = _fmt_triple(rng, wide=False)
            line = _fmt_line(n, c1, c2)
            cases.append(CliCase(f"gen_fmt_print_{tier}_{i}", ["fmt", *flag, "print", str(n), c1, c2],
                                 "", line + "\n", "", 0))
            cases.append(CliCase(f"gen_fmt_scan_{tier}_{i}", ["fmt", *flag, "scan", line],
                                 "", f"{n}\n{c1}\n{c2}\n", "", 0))
        n, c1, c2 = _fmt_triple(rng, wide=True)
        cases.append(CliCase(f"gen_fmt_wide_{tier}", ["fmt", *flag, "print", str(n), c1, c2],
                             "", "", "format violation: ", 2, err_prefix=True,
                             known=DIGIT_TRUNCATION,
                             truncated=_fmt_line(str(n)[0], c1, c2) + "\n"))
    deep = abs_chain(rng, 600)
    cases.append(CliCase("gen_parse_deep", ["parse"], term_text(deep) + "\n",
                         term_json(deep) + "\n", "", 0, known=CLI_DEEP_PARSE))
    return cases


def run_cli_subprocess(case: CliCase):
    """One CLI invocation; `run.py` puts the checkout's `src/` on the
    PYTHONPATH this process and its children inherit."""
    proc = subprocess.run([sys.executable, "-m", "cassette.cli", *case.argv],
                          input=case.stdin, capture_output=True, cwd=ROOT, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_in_process(case: CliCase):
    """`cli.main` in this process, with the standard streams swapped; an
    uncaught exception maps to exit 1 and a one-line report, as the
    interpreter would give."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.BytesIO(), io.BytesIO()
    sys.stdin = io.TextIOWrapper(io.BytesIO(case.stdin), encoding="utf-8")
    sys.stdout = io.TextIOWrapper(out, encoding="utf-8")
    sys.stderr = io.TextIOWrapper(err, encoding="utf-8")
    try:
        try:
            code = cli.main(case.argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # the interpreter's own report of an uncaught error
            sys.stderr.write(f"Traceback (most recent call last):\n{type(e).__name__}: {e}\n")
            code = 1
        sys.stdout.flush()
        sys.stderr.flush()
        return code, out.getvalue(), err.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def cli_op(case, in_process):
    run = run_cli_in_process if in_process else run_cli_subprocess
    return Op(f"cli.{case.subcommand}", lambda: run(case), case.check, case.work,
              fit=case.subcommand in ("parse", "pretty", "roundtrip"), request=case.name)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """One round of ops, the ops to warm up with, and the ops of the
    traced run (the same ops, except that CLI cases run in-process there
    so that their layers can be traced)."""

    def __init__(self, name, seed, ops, warmup, traced_ops, inputs):
        self.name = name
        self.seed = seed
        self.ops = ops
        self.warmup = warmup
        self.traced_ops = traced_ops
        self.inputs = inputs

    def fingerprint(self) -> bytes:
        """Canonical bytes of every generated input, for reproducibility."""
        return json.dumps(self.inputs, ensure_ascii=False, sort_keys=True).encode("utf-8")


def _rng(name, seed):
    return random.Random(f"{name}:{seed}")


def terms_small(seed, n_terms=500):
    """`n_terms` generated terms with the text lengths of the terms of
    acceptance test c04, and as many malformed strings and demo-format
    pairs, so that every family of requests gets the same number of
    samples per round.  One pair in ten has a two-digit n, which the
    format must refuse."""
    rng = _rng("terms_small", seed)
    c04 = _corpus().generated_terms(n_terms, seed=2024, depth=6)
    terms = terms_of_lengths(rng, 6, [len(term_text(from_value(v))) for v in c04])
    bad = malformed_small(rng, n_terms, _load_test_module("cfg_oracle"))
    ops = [op for t in terms for op in term_ops(t, fit=True)]
    ops += [reject_op(s, e) for s in bad for e in ENGINES]
    fmts, args = fmt_ops(rng, n_terms, refused=n_terms // 10)
    ops += fmts
    warm = term_ops(terms[0], False) + [reject_op(bad[0], e) for e in ENGINES] + fmts[:2]
    inputs = {"terms": [term_text(t) for t in terms], "reject": bad, "fmt": args}
    return Workload("terms_small", seed, ops, warm, ops, inputs)


# Larger terms stay out: a stacked print of a 4000-char identifier or of
# a depth-9 tree takes 0.6-0.9 s, most of it in full collections whose
# time varies twofold from call to call, so a 40 s run would hold about
# 12 rounds, too few for each op's fastest time to repeat
# (print_chars_per_s.stacked then spreads 0.27-0.30 between runs).  The
# depth-500 chain stays for the deep-JSON defect.
LARGE_IDENT_CHARS = (1000, 2000)
LARGE_ABS_DEPTHS = (250, 500)
LARGE_APP_DEPTHS = (8,)
LARGE_FMT_PAIRS = 100


def terms_large(seed):
    """Large terms of three shapes, and each chain and tree also with
    its last identifier deleted (a reject; an identifier has no such
    variant).  The demo-format pairs only make their metrics exist here,
    so none is refused (terms_small and cli keep the refused ones);
    `LARGE_FMT_PAIRS` is the count at which their figures hold steady
    (one pair per term was too few)."""
    rng = _rng("terms_large", seed)
    idents = [("V", long_ident(rng, n)) for n in LARGE_IDENT_CHARS]
    chains = [abs_chain(rng, d) for d in LARGE_ABS_DEPTHS]
    trees = [balanced_app(rng, d) for d in LARGE_APP_DEPTHS]
    terms = idents + chains + trees
    bad = [without_last_ident(t) for t in chains + trees]
    ops = [op for t in idents for op in term_ops(t, fit=True)]
    ops += [op for t in chains + trees for op in term_ops(t, fit=False)]
    ops += [reject_op(s, e) for s in bad for e in ENGINES]
    fmts, args = fmt_ops(rng, LARGE_FMT_PAIRS, refused=0)
    ops += fmts
    warm = term_ops(("V", long_ident(rng, 100)), False) + [
        reject_op(without_last_ident(("L", "x", ("V", "x"))), e) for e in ENGINES] + fmts[:2]
    inputs = {"terms": [term_text(t) for t in terms], "reject": bad, "fmt": args}
    return Workload("terms_large", seed, ops, warm, ops, inputs)


def cli_workload(seed):
    rng = _rng("cli", seed)
    cases = _golden_cases() + generated_cli_cases(rng, _load_test_module("cfg_oracle"))
    ops = [cli_op(c, False) for c in cases]
    warm_names = {"parse_selfapp", "pretty_selfapp", "roundtrip_q0", "fmt_print",
                  "corpus_cassette"}
    warm = [cli_op(c, False) for c in cases if c.name in warm_names]
    traced = [cli_op(c, True) for c in cases]
    inputs = {"cases": [[c.name, c.argv, c.stdin.decode("utf-8")] for c in cases]}
    return Workload("cli", seed, ops, warm, traced, inputs)


WORKLOADS = {"terms_small": terms_small, "terms_large": terms_large, "cli": cli_workload}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
