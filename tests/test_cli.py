import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLD = ROOT / "tests" / "golden"
MANIFEST = json.loads((GOLD / "manifest.json").read_text(encoding="utf-8"))


def run_cli(argv, stdin=""):
    return subprocess.run(
        [sys.executable, "-m", "cassette.cli", *argv],
        input=stdin.encode("utf-8"), capture_output=True, cwd=ROOT)


@pytest.mark.parametrize("case", MANIFEST, ids=lambda c: c["name"])
def test_golden(case):
    proc = run_cli(case["argv"], case["stdin"])
    expected_out = (GOLD / f"{case['name']}.out").read_bytes()
    expected_err = (GOLD / f"{case['name']}.err").read_bytes()
    assert proc.stdout == expected_out
    assert proc.stderr == expected_err
    assert proc.returncode == case["exit"]


def test_engine_flag_never_changes_corpus_output():
    a = run_cli(["test-corpus", "corpus"])
    b = run_cli(["test-corpus", "corpus", "--engine", "stacked"])
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


def test_unknown_flags_are_rejected():
    proc = run_cli(["parse", "--bogus"], "x\n")
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ["fmt", "print", "12", "a", "f"],
    ["fmt", "print", "--", "-3", "a", "f"],
    ["fmt", "--tier", "3", "print", "12", "a", "f"],
    ["fmt", "--tier", "3", "print", "--", "-3", "a", "f"],
], ids=["t1_12", "t1_minus3", "t3_12", "t3_minus3"])
def test_fmt_print_refuses_a_digit_out_of_range(argv):
    proc = run_cli(argv)
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode("utf-8").splitlines()
    assert len(lines) == 1 and lines[0].startswith("format violation: digit")


def test_pretty_refuses_an_unprintable_identifier_on_both_engines():
    for engine in ("cassette", "stacked"):
        for tree in ('{"Var":"1x"}', '{"Var":"b."}'):
            proc = run_cli(["pretty", "--engine", engine], tree + "\n")
            assert proc.returncode == 1, (engine, tree)
            assert proc.stdout == b""
            assert proc.stderr == b"pretty failed: term has no printable form\n"


def test_corpus_runner_reports_failures():
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        d = pathlib.Path(d)
        (d / "bad.lam").write_text("((\n", encoding="utf-8")
        (d / "bad.json").write_text('{"Var":"x"}\n', encoding="utf-8")
        (d / "bad.canon.lam").write_text("((\n", encoding="utf-8")
        proc = run_cli(["test-corpus", str(d)])
        assert proc.returncode == 1
        assert b"FAIL bad.lam: parse failed" in proc.stdout
        assert b"0/1 passed" in proc.stdout
    proc = run_cli(["test-corpus", "no-such-dir"])
    assert proc.returncode == 2


def test_roundtrip_is_idempotent_on_the_corpus():
    for lam_path in sorted((ROOT / "corpus").glob("*.lam")):
        if lam_path.name.endswith(".canon.lam"):
            continue
        once = run_cli(["roundtrip"], lam_path.read_text(encoding="utf-8"))
        assert once.returncode == 0
        twice = run_cli(["roundtrip"], once.stdout.decode("utf-8"))
        assert twice.returncode == 0
        assert twice.stdout == once.stdout


def test_output_is_newline_terminated_utf8():
    for case in MANIFEST:
        out = (GOLD / f"{case['name']}.out").read_bytes()
        err = (GOLD / f"{case['name']}.err").read_bytes()
        for blob in (out, err):
            blob.decode("utf-8")
            if blob:
                assert blob.endswith(b"\n")
