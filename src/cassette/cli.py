"""Command line front end.

Subcommands::

    parse        read a term, print its JSON syntax tree
    pretty       read a JSON syntax tree, print the canonical term
    roundtrip    parse then pretty
    fmt          the printf/scanf demo format (tiers 1 and 3)
    test-corpus  check a directory of .lam/.json/.canon.lam triples

Exit codes: 0 on success, 1 on a recoverable syntax failure, 2 on I/O
errors, bad usage, or a contract violation.  All output is UTF-8 and
newline terminated, independent of the locale.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from . import lam, stacked, tier1
from .values import Char, ContractViolation, Int, List


def _out(text: str) -> None:
    sys.stdout.buffer.write(text.encode("utf-8", "backslashreplace"))
    sys.stdout.buffer.flush()


def _err(message: str) -> None:
    """Write one stderr line; a newline inside the message shows as \\n."""
    line = message.replace("\n", "\\n") + "\n"
    sys.stderr.buffer.write(line.encode("utf-8", "backslashreplace"))
    sys.stderr.buffer.flush()


def _not_utf8(source, e: UnicodeDecodeError) -> OSError:
    """Undecodable input, reported like unreadable input (exit 2)."""
    return OSError(f"{source}: not UTF-8 ({e.reason} at byte {e.start})")


def _read_file(path: pathlib.Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise _not_utf8(path, e) from None


def _read_input(path: str | None) -> str:
    if path is None:
        try:
            return sys.stdin.buffer.read().decode("utf-8")
        except UnicodeDecodeError as e:
            raise _not_utf8("stdin", e) from None
    return _read_file(pathlib.Path(path))


def _strip_newline(text: str) -> str:
    return text[:-1] if text.endswith("\n") else text


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _err(f"{self.prog}: error: {message}")  # no usage line first
        self.exit(2)


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="cassette",
        description="parse and pretty-print with one grammar value")
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--engine", choices=lam.ENGINES, default="cassette",
                       help="descriptor engine (default: cassette)")
        p.add_argument("--input", metavar="PATH",
                       help="read from this file instead of stdin")

    add_common(sub.add_parser("parse", help="term text to JSON syntax tree"))
    add_common(sub.add_parser("pretty", help="JSON syntax tree to term text"))
    add_common(sub.add_parser("roundtrip", help="parse then pretty"))

    fmt = sub.add_parser("fmt", help="the demo format descriptor")
    fmt.add_argument("mode", choices=["print", "scan"])
    fmt.add_argument("--tier", type=int, choices=[1, 3], default=1)
    fmt.add_argument("args", nargs="*",
                     help="print: INT CHAR CHAR; scan: TEXT")

    corpus = sub.add_parser("test-corpus", help="run a golden corpus directory")
    corpus.add_argument("directory")
    corpus.add_argument("--engine", choices=lam.ENGINES, default="cassette")
    return top


def _cmd_parse(args) -> int:
    text = _strip_newline(_read_input(args.input))
    term = lam.parse_term(text, args.engine)
    if term is None:
        _err("parse failed: not a term")
        return 1
    _out(lam.term_to_json(term) + "\n")
    return 0


def _cmd_pretty(args) -> int:
    term = lam.term_from_json(_read_input(args.input))
    if term is None:
        _err("pretty failed: not a term syntax tree")
        return 1
    text = lam.pretty_term(term, args.engine)
    if text is None:
        _err("pretty failed: term has no printable form")
        return 1
    _out(text + "\n")
    return 0


def _cmd_roundtrip(args) -> int:
    text = _strip_newline(_read_input(args.input))
    term = lam.parse_term(text, args.engine)
    if term is None:
        _err("parse failed: not a term")
        return 1
    canonical = lam.pretty_term(term, args.engine)
    if canonical is None:
        _err("pretty failed: term has no printable form")
        return 1
    _out(canonical + "\n")
    return 0


def _cmd_fmt(args) -> int:
    if args.mode == "print":
        try:
            n, c1, c2 = args.args
            if not (n.lstrip("-").isdigit() and len(c1) == 1 and len(c2) == 1):
                raise ValueError
            values = [Int(int(n)), Char(c1), Char(c2)]
        except ValueError:  # a wrong count, or "²": isdigit passes it
            _err("usage: cassette fmt print INT CHAR CHAR")
            return 2
        try:
            if args.tier == 1:
                line = tier1.sprintf(tier1.nth_char_format(), values)
            else:
                line = stacked.sprintf(stacked.nth_char_format(), values)
        except ContractViolation as e:
            _err(f"format violation: {e}")
            return 2
        _out(line + "\n")
        return 0

    if len(args.args) != 1:
        _err("usage: cassette fmt scan TEXT")
        return 2
    text = args.args[0]
    if args.tier == 1:
        try:
            values = tier1.sscanf(tier1.nth_char_format(), text)
        except ContractViolation as e:
            _err(f"scan violation: {e}")
            return 2
    else:
        try:
            scanned = stacked.sscanf(stacked.nth_char_format(), text)
        except ContractViolation:
            _err("scan failed: input does not match")
            return 1
        assert isinstance(scanned, List)
        values = scanned.items
    n, c1, c2 = values
    _out(f"{n.n}\n{c1.c}\n{c2.c}\n")
    return 0


def _cmd_test_corpus(args) -> int:
    directory = pathlib.Path(args.directory)
    if not directory.is_dir():
        _err(f"not a directory: {directory}")
        return 2
    cases = sorted(p for p in directory.glob("*.lam")
                   if not p.name.endswith(".canon.lam"))
    if not cases:
        _err(f"no .lam files in {directory}")
        return 2
    passed = 0
    for case in cases:
        failure = _check_case(case, args.engine)
        if failure is None:
            passed += 1
            _out(f"PASS {case.name}\n")
        else:
            _out(f"FAIL {case.name}: {failure}\n")
    _out(f"{passed}/{len(cases)} passed\n")
    return 0 if passed == len(cases) else 1


def _check_case(case: pathlib.Path, engine: str):
    json_path = case.with_suffix(".json")
    canon_path = case.with_suffix(".canon.lam")
    if not json_path.exists() or not canon_path.exists():
        return "missing expectation files"
    text = _strip_newline(_read_file(case))
    expected_json = _strip_newline(_read_file(json_path))
    expected_canon = _strip_newline(_read_file(canon_path))
    term = lam.parse_term(text, engine)
    if term is None:
        return "parse failed"
    got_json = lam.term_to_json(term)
    if got_json != expected_json:
        return f"syntax tree mismatch: {got_json}"
    got_canon = lam.pretty_term(term, engine)
    if got_canon != expected_canon:
        return f"pretty mismatch: {got_canon!r}"
    return None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "parse":
            return _cmd_parse(args)
        if args.command == "pretty":
            return _cmd_pretty(args)
        if args.command == "roundtrip":
            return _cmd_roundtrip(args)
        if args.command == "fmt":
            return _cmd_fmt(args)
        return _cmd_test_corpus(args)
    except OSError as e:
        _err(f"i/o error: {e}")
        return 2
    except ContractViolation as e:
        _err(f"contract violation: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
