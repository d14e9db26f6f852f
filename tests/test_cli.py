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
    ["parse", "--bogus"],
    ["parse", "--engine", "x"],
    ["fmt", "--tier", "2", "print", "1", "a", "b"],
    ["nosuch"],
    [],
    ["parse", "x\ny"],
], ids=["bogus_flag", "bad_engine", "bad_tier", "bad_command", "no_command",
        "newline_in_argument"])
def test_a_usage_error_is_one_stderr_line(argv):
    proc = run_cli(argv, "x\n")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"cassette")
    assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")


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


@pytest.mark.parametrize("argv", [
    ["fmt", "print", "--", "²", "a", "f"],
    ["fmt", "print", "--", "--5", "a", "f"],
    ["fmt", "--tier", "3", "print", "--", "²", "a", "f"],
    ["fmt", "--tier", "3", "print", "--", "--5", "a", "f"],
], ids=["t1_superscript", "t1_double_minus", "t3_superscript", "t3_double_minus"])
def test_fmt_print_refuses_an_int_that_only_looks_like_digits(argv):
    proc = run_cli(argv)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"usage: cassette fmt print INT CHAR CHAR\n"


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


def _one_io_error(proc):
    assert proc.returncode == 2
    lines = proc.stderr.decode("utf-8").splitlines()
    assert len(lines) == 1 and lines[0].startswith("i/o error: "), lines
    assert "not UTF-8" in lines[0]


def test_non_utf8_stdin_is_an_io_error():
    proc = subprocess.run([sys.executable, "-m", "cassette.cli", "parse"],
                          input=b"\xff", capture_output=True, cwd=ROOT)
    _one_io_error(proc)
    assert proc.stdout == b""


def test_non_utf8_input_file_is_an_io_error(tmp_path):
    src = tmp_path / "bad.lam"
    src.write_bytes(b"x\xc3(\n")
    proc = run_cli(["roundtrip", "--input", str(src)])
    _one_io_error(proc)
    assert proc.stdout == b""


def test_non_utf8_corpus_file_is_an_io_error(tmp_path):
    for name in ("a_ok", "b_bad"):
        (tmp_path / f"{name}.lam").write_text("x\n", encoding="utf-8")
        (tmp_path / f"{name}.json").write_text('{"Var":"x"}\n', encoding="utf-8")
        (tmp_path / f"{name}.canon.lam").write_text("x\n", encoding="utf-8")
    (tmp_path / "b_bad.json").write_bytes(b'{"Var":"\xe9"}\n')
    proc = run_cli(["test-corpus", str(tmp_path)])
    _one_io_error(proc)
    assert proc.stdout == b"PASS a_ok.lam\n"


def _corpus_with_an_undecodable_name(tmp_path):
    for suffix, body in ((".lam", b"x\n"), (".json", b'{"Var":"x"}\n'),
                         (".canon.lam", b"x\n")):
        (tmp_path / f"x\udcff{suffix}").write_bytes(body)
    return ["test-corpus", str(tmp_path)]


def _undecodable_input_at_a_path_with_a_newline(tmp_path):
    path = tmp_path / "a\nb.lam"
    path.write_bytes(b"\xff\n")
    return ["parse", "--input", str(path)]


# "\udcff" is how Python hands over the byte 0xff of an argument or a
# file name that is not UTF-8
@pytest.mark.parametrize("argv, code", [
    (["fmt", "print", "1", "\udcff", "b"], 0),
    (["fmt", "--tier", "3", "print", "1", "\udcff", "b"], 0),
    (["fmt", "scan", "5-th character after \udcff is b"], 0),
    (["fmt", "--tier", "3", "scan", "5-th character after \udcff is b"], 0),
    (_corpus_with_an_undecodable_name, 0),
    (["test-corpus", "no\nsuch"], 2),
    (_undecodable_input_at_a_path_with_a_newline, 2),
], ids=["fmt_print_t1", "fmt_print_t3", "fmt_scan_t1", "fmt_scan_t3",
        "corpus_case_name", "corpus_dir_newline", "input_path_newline"])
def test_odd_arguments_neither_crash_nor_split_a_failure(argv, code, tmp_path):
    if callable(argv):
        argv = argv(tmp_path)
    proc = run_cli(argv)
    assert b"Traceback" not in proc.stderr
    assert proc.returncode == code
    if code == 0:
        assert proc.stderr == b""
        assert b"\\udcff" in proc.stdout
    else:
        assert proc.stdout == b""
        assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")
        assert b"\\n" in proc.stderr
