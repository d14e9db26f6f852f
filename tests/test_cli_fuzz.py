"""A derandomized fuzz of `cli.main`, run in process.

argv is drawn from the documented command grammar plus junk, stdin from
short arbitrary bytes, term-like text or JSON of depth at most 6 (deep
input has known defects of its own).  Every run must exit 0, 1 or 2; a
nonzero exit leaves stdout empty and exactly one line on stderr, and
exit 0 leaves stderr empty.
"""

import io
import json
import sys

from hypothesis import given, settings, strategies as hs

from cassette import cli

MISSING = "no-such-corpus-directory"

JUNK = hs.one_of(
    hs.sampled_from(["--bogus", "-x", "--", "--engine", "--input", "--tier",
                     "print", "scan", "2", "λ", "", "x\ny"]),
    hs.text(max_size=8),
)
ENGINE = hs.one_of(hs.sampled_from(["cassette", "stacked"]), JUNK)
TERM_COMMAND = hs.tuples(
    hs.sampled_from(["parse", "pretty", "roundtrip"]),
    hs.lists(hs.one_of(hs.tuples(hs.just("--engine"), ENGINE),
                       hs.tuples(hs.just("--input"), hs.just(MISSING))),
             max_size=2),
).map(lambda t: [t[0], *(x for flag in t[1] for x in flag)])
FMT_COMMAND = hs.tuples(
    hs.one_of(hs.sampled_from(["print", "scan"]), JUNK),
    hs.lists(hs.sampled_from(["--tier", "1", "3"]), max_size=2),
    hs.lists(hs.one_of(hs.from_regex(r"-?[0-9]{1,2}", fullmatch=True),
                       hs.text(max_size=3)), max_size=4),
).map(lambda t: ["fmt", *t[1], t[0], *t[2]])
ARGV = hs.one_of(
    TERM_COMMAND,
    FMT_COMMAND,
    hs.just(["test-corpus", MISSING]),
    hs.tuples(hs.one_of(TERM_COMMAND, FMT_COMMAND), hs.lists(JUNK, max_size=3))
      .map(lambda t: t[0] + t[1]),
    hs.lists(JUNK, max_size=4),
)

SCALARS = hs.one_of(hs.none(), hs.booleans(), hs.integers(), hs.text(max_size=6))
JSON_BY_DEPTH = [SCALARS]
for _ in range(6):
    _sub = JSON_BY_DEPTH[-1]
    JSON_BY_DEPTH.append(hs.one_of(
        SCALARS,
        hs.lists(_sub, max_size=3),
        hs.dictionaries(hs.sampled_from(["Var", "Abs", "App", "char", "pair", "x"]),
                        _sub, max_size=2)))
STDIN = hs.one_of(
    hs.binary(max_size=24),
    hs.text(alphabet="λx1.() \n", max_size=16).map(lambda s: s.encode("utf-8")),
    JSON_BY_DEPTH[-1].map(lambda v: json.dumps(v, ensure_ascii=False).encode("utf-8")),
)


def run_main(argv, stdin):
    """(exit code, stdout bytes, stderr bytes) of one in-process run."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.BytesIO(), io.BytesIO()
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    sys.stdout = io.TextIOWrapper(out, encoding="utf-8")
    sys.stderr = io.TextIOWrapper(err, encoding="utf-8", errors="backslashreplace")
    try:
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        sys.stdout.flush()
        sys.stderr.flush()
        return code, out.getvalue(), err.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(ARGV, STDIN)
def test_every_run_ends_in_a_documented_exit_and_one_line(argv, stdin):
    code, out, err = run_main(argv, stdin)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == b""
    else:
        assert out == b""
        assert err.count(b"\n") == 1 and err.endswith(b"\n"), err


# A lone surrogate is how Python hands over a byte of argv that is not
# UTF-8; it and a newline go into printed chars, scanned text and paths.
ODD = hs.one_of(hs.sampled_from(["\udcff", "\n"]),
                hs.text(alphabet="a\n\udcff", max_size=4))
TIER = hs.sampled_from([[], ["--tier", "3"]])
ODD_ARGV = hs.one_of(
    hs.tuples(TIER, hs.sampled_from(["1", "5"]), ODD, ODD)
      .map(lambda t: ["fmt", *t[0], "print", *t[1:]]),
    hs.tuples(TIER, ODD, ODD)
      .map(lambda t: ["fmt", *t[0], "scan", f"5-th character after {t[1]} is {t[2]}"]),
    ODD.map(lambda s: ["test-corpus", MISSING + s]),
    hs.tuples(TERM_COMMAND, ODD).map(lambda t: [*t[0], "--input", MISSING + t[1]]),
    hs.lists(hs.one_of(JUNK, ODD), max_size=4),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ODD_ARGV, STDIN)
def test_argv_holding_a_surrogate_or_newline_ends_in_one_line(argv, stdin):
    code, out, err = run_main(argv, stdin)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == b""
    else:
        assert out == b""
        assert err.count(b"\n") == 1 and err.endswith(b"\n"), err
