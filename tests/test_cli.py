"""CLI behavior: parsing, output formats, exit codes, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

import starring
import starring.harness as harness_mod
from starring.cli import main, parse_ring
from starring.geninv import verify_group, verify_penrose
from starring.matrix import Matrix, parse_matrix
from starring.starfield import FieldKind
from starring.theorems import Kind, TheoremEntry


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def invert_blocks(text):
    """Split invert output into its three labeled sections."""
    sections = {}
    label = None
    for line in text.splitlines():
        if line.endswith(":") and " " not in line:
            label = line[:-1]
            sections[label] = []
        elif label and line.strip():
            sections[label].append(line)
    return {k: "\n".join(v) for k, v in sections.items()}


# -- ring flag -----------------------------------------------------------------

def test_parse_ring():
    assert parse_ring("q").kind is FieldKind.RATIONAL
    assert parse_ring("qi").kind is FieldKind.GAUSSIAN_RATIONAL
    assert parse_ring("f3").kind is FieldKind.PRIME and parse_ring("f3").p == 3
    assert parse_ring("f2").p == 2
    f9 = parse_ring("f32")
    assert f9.kind is FieldKind.QUAD_EXT and f9.p == 3
    assert parse_ring("f22").kind is FieldKind.QUAD_EXT
    for bad in ("f4", "f9", "z", "f", "f2x"):
        with pytest.raises(Exception):
            parse_ring(bad)


# -- invert ---------------------------------------------------------------------

def test_invert_round_trip(capsys):
    rc, out, _ = run(capsys, "invert", "--matrix", "1 1; 0 0", "--ring", "q")
    assert rc == 0
    blocks = invert_blocks(out)
    a = parse_matrix(blocks["input"])
    mp = parse_matrix(blocks["mp_inverse"])
    group = parse_matrix(blocks["group_inverse"])
    assert mp.to_tokens() == [["1/2", "0"], ["1/2", "0"]]
    assert group.to_tokens() == [["1", "1"], ["0", "0"]]
    assert all(verify_penrose(a, mp))
    assert all(verify_group(a, group))


def test_invert_zero(capsys):
    rc, out, _ = run(capsys, "invert", "--matrix", "0 0; 0 0", "--ring", "q")
    assert rc == 0
    blocks = invert_blocks(out)
    assert parse_matrix(blocks["mp_inverse"]).is_zero()
    assert parse_matrix(blocks["group_inverse"]).is_zero()


def test_invert_nilpotent_reports_absence(capsys):
    rc, out, _ = run(capsys, "invert", "--matrix", "0 1; 0 0", "--ring", "q")
    assert rc == 0
    blocks = invert_blocks(out)
    assert blocks["group_inverse"] == "does not exist"
    assert parse_matrix(blocks["mp_inverse"]).to_tokens() == [["0", "0"], ["1", "0"]]


def test_invert_from_file_json(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("ring fp 3 n=2\n1 2\n0 1\n")
    rc, out, _ = run(capsys, "invert", "--in", str(path), "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["hasMpInverse"] and doc["hasGroupInverse"]
    assert doc["mpInverse"] == [["1", "1"], ["0", "1"]]  # inverse of [[1,2],[0,1]] mod 3


@pytest.mark.parametrize("ring,rows,digest", [
    ("q", "2 1; 0 0", "d5f15afecddc0b3b537967a09f726edc6e8f7c4f1ec7fcea1904b2fd998b7cf1"),
    ("qi", "1 1i; 0 0", "5ed67fcd59e138cffac6a964fc66336561bcc65ecccfcd600596fda5c160ae19"),
    ("f5", "1 2; 0 0", "71754a3debedadba9197940bf56d8cf42fd41309f25fdfc702c7ddb98aefe00c"),
    ("f32", "1 1w; 0 0", "5b555ac600a96eb9078320824b72f4f0047a9113bdd3f9b6d04fccdbcf972ad7"),
])
def test_invert_json_pinned(capsys, ring, rows, digest):
    # sha256 of the whole stdout, recorded before the field arithmetic moved
    # into one class per field
    rc, out, _ = run(capsys, "invert", "--matrix", rows, "--ring", ring, "--format", "json")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_invert_parse_failure_exit_2(capsys):
    rc, _, err = run(capsys, "invert", "--matrix", "1 x; 0 0", "--ring", "q")
    assert rc == 2 and "error" in err
    rc, _, err = run(capsys, "invert", "--matrix", "1 1; 0 0")
    assert rc == 2  # inline needs --ring
    rc, _, err = run(capsys, "invert")
    assert rc == 2


@pytest.mark.parametrize("argv,message", [
    (["--ring", "f5", "--matrix", "; ".join([" ".join("1" * 7)] * 7)],
     "error: dimension 7 outside 1..6\n"),
    (["--ring", "q", "--matrix", "\u0661"], "error: not a scalar over Q: '\u0661'\n"),
    (["--ring", "qi", "--matrix", "1+\uff12i"], "error: not a scalar over Q(i): '1+\uff12i'\n"),
], ids=["7x7-inline", "arabic-indic-digit", "fullwidth-digit"])
def test_invert_inline_usage_error_exit_2(capsys, argv, message):
    rc, out, err = run(capsys, "invert", *argv)
    assert (rc, out, err) == (2, "", message)


def test_header_dimension_needs_ascii_digits(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("ring q n=\u0662\n1 0\n0 1\n", encoding="utf-8")
    rc, out, err = run(capsys, "invert", "--in", str(path))
    assert rc == 2 and out == ""
    assert err.startswith("error: bad header: ") and "Traceback" not in err


@pytest.mark.parametrize("ring", ["q", "f5"])
def test_invert_oversized_token_exit_2(capsys, ring):
    # 4400 digits is past the interpreter's integer-string conversion limit
    rc, out, err = run(capsys, "invert", "--matrix", "1" * 4400, "--ring", ring)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("via", ["flag", "header"])
@pytest.mark.parametrize("digits,rc", [
    (str(10 ** 18 + 3), 0),  # a prime
    ("9" * 25, 2),  # as many digits as the primality test's bound, above it
    ("1" * 30, 2),
    ("1" * 4400, 2),  # past the interpreter's integer-string conversion limit
], ids=["prime-1e18+3", "25-nines", "30-ones", "4400-ones"])
def test_invert_huge_modulus(capsys, tmp_path, via, digits, rc):
    if via == "flag":
        argv = ["--matrix", "1", "--ring", f"f{digits}"]
    else:
        path = tmp_path / "m.txt"
        path.write_text(f"ring fp {digits} n=1\n1\n")
        argv = ["--in", str(path)]
    t0 = time.perf_counter()
    code, out, err = run(capsys, "invert", "--format", "json", *argv)
    assert time.perf_counter() - t0 < 5  # trial division needs 5*10^8 steps on 10^18+3
    assert code == rc
    if rc == 0:
        doc = json.loads(out)
        assert doc["p"] == int(digits) and doc["mpInverse"] == [["1"]]
    else:
        assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_invert_internal_error_exit_3(capsys):
    # the inverse has entries with more digits than the interpreter prints
    x = "1" * 3000
    rc, out, err = run(capsys, "invert", "--matrix", f"{x} 1; 1 {x}", "--ring", "q")
    assert rc == 3 and out == ""
    assert err.splitlines()[-1].startswith("error: internal error: ValueError")


def _feed(monkeypatch, tmp_path, source, data):
    """The --in argument that hands `data` to the CLI from a file or stdin."""
    if source == "file":
        path = tmp_path / "m.txt"
        path.write_bytes(data)
        return str(path)
    # stdin as the interpreter opens it: text over a byte buffer, which
    # turns undecodable bytes into lone surrogates
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))
    return "-"


@pytest.mark.parametrize("command", ["invert", "classify"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_non_utf8_input_exit_2(capsys, monkeypatch, tmp_path, command, source):
    arg = _feed(monkeypatch, tmp_path, source, b"ring q n=1\n\xff\n")
    name = "stdin" if arg == "-" else arg
    rc, out, err = run(capsys, command, "--in", arg)
    assert rc == 2 and out == ""
    assert err == f"error: {name} is not UTF-8 text: byte 0xff at offset 11\n"


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_leading_byte_order_mark_is_dropped(capsys, monkeypatch, tmp_path, source):
    body = b"ring qi n=2\n1 1i\n0 2\n"
    plain = run(capsys, "invert", "--in", _feed(monkeypatch, tmp_path, source, body))
    marked = run(capsys, "invert",
                 "--in", _feed(monkeypatch, tmp_path, source, b"\xef\xbb\xbf" + body))
    assert plain[0] == 0 and plain[1]
    assert marked == plain
    # a mark anywhere else is not text the grammar accepts; the message
    # names its row and shows the invisible mark
    rc, out, err = run(capsys, "invert", "--in", _feed(
        monkeypatch, tmp_path, source, b"ring q n=1\n\xef\xbb\xbf2\n"))
    assert rc == 2 and out == ""
    assert err == "error: row 1: not a scalar over Q: '\\ufeff2'\n"
    # offsets of bad bytes still count the leading mark
    rc, _, err = run(capsys, "invert", "--in", _feed(
        monkeypatch, tmp_path, source, b"\xef\xbb\xbfring q n=1\n\xff\n"))
    assert rc == 2 and err.endswith("byte 0xff at offset 14\n")


# -- classify ----------------------------------------------------------------------

def test_classify_projection(capsys):
    rc, out, _ = run(capsys, "classify", "--matrix", "1 0; 0 0", "--ring", "q")
    assert rc == 0
    assert "projection: true" in out and "sep: true" in out


def test_classify_ep_only(capsys):
    rc, out, _ = run(capsys, "classify", "--matrix", "2 0; 0 0", "--ring", "q",
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc == {"projection": False, "ep": True, "pi": False, "sep": False,
                   "mp_invertible": True, "group_invertible": True}


def test_classify_shift(capsys):
    rc, out, _ = run(capsys, "classify", "--matrix", "0 1; 0 0", "--ring", "q")
    assert rc == 0
    assert "pi: true" in out
    assert "ep: false" in out
    assert "group_invertible: false" in out


# -- verify ------------------------------------------------------------------------

def test_verify_exhaustive_json(capsys):
    rc, out, _ = run(capsys, "verify", "--ring", "f3", "--dim", "2",
                     "--exhaustive", "--entries", "all", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == "starring-report/1"
    assert doc["totals"]["generated"] == 81
    assert all(not t["counterexamples"] for t in doc["perTheorem"].values())


def test_verify_deterministic_output(capsys):
    argv = ["verify", "--ring", "q", "--dim", "2", "--random", "--seed", "7",
            "--count", "100", "--entries", "T2.5", "--format", "json"]
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2 == 0
    strip = lambda s: [ln for ln in s.splitlines() if "wallTime" not in ln]
    assert strip(out1) == strip(out2)
    assert any("wallTime" in ln for ln in out1.splitlines())


def test_verify_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    rc, out, _ = run(capsys, "verify", "--ring", "f2", "--dim", "2",
                     "--exhaustive", "--format", "json", "--out", str(path))
    assert rc == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["totals"]["bothInvertible"] == 9


def test_verify_text_evidence_line(capsys):
    rc, out, _ = run(capsys, "verify", "--ring", "f2", "--dim", "2", "--exhaustive")
    assert rc == 0
    assert ("evidence: sep elements 5 | L2.8 non-vacuous 31 of 44 | L3.1 pairs 256"
            in out.splitlines())
    assert "warning:" not in out
    rc, out, _ = run(capsys, "verify", "--ring", "f2", "--dim", "2", "--exhaustive",
                     "--format", "json")
    assert rc == 0 and "evidence" not in out and "warning" not in out


def test_verify_text_warns_on_missing_evidence(capsys):
    # five random M_2(Q) elements: no SEP element, so L2.8 has nothing to check
    rc, out, _ = run(capsys, "verify", "--ring", "q", "--dim", "2", "--random",
                     "--seed", "3", "--count", "5")
    assert rc == 0
    lines = out.splitlines()
    at = lines.index("evidence: sep elements 0 | L2.8 non-vacuous 0 of 0 | L3.1 pairs 25")
    assert lines[at + 1:at + 4] == [
        "warning: no strongly-EP element in the stream: no entry was checked in the "
        "direction sep => condition",
        "warning: L2.8 gathered zero evidence (0 checks, none non-vacuous)",
        "counterexamples: none"]


def test_verify_unknown_entry_exit_2(capsys):
    rc, _, err = run(capsys, "verify", "--ring", "f3", "--dim", "2",
                     "--exhaustive", "--entries", "T9.9")
    assert rc == 2 and "T9.9" in err


def test_verify_missing_seed_exit_2(capsys):
    rc, _, err = run(capsys, "verify", "--ring", "q", "--dim", "2",
                     "--random", "--count", "10")
    assert rc == 2 and "seed" in err


@pytest.mark.parametrize("command", ["verify", "enumerate"])
@pytest.mark.parametrize("kind", ["sep", "ep", "pi"])
def test_constructed_over_large_field_exit_2(capsys, command, kind):
    # F_{10007^2} has about 10^8 elements; the scalar pools would walk them all
    t0 = time.perf_counter()
    rc, out, err = run(capsys, command, "--ring", "f100072", "--dim", "2",
                       "--constructed", kind, "--count", "1", "--seed", "1")
    assert time.perf_counter() - t0 < 5
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "budget" in err


@pytest.mark.parametrize("command", ["verify", "enumerate"])
@pytest.mark.parametrize("mode", [["--random"], ["--constructed", "sep"]])
def test_count_above_budget_exit_2(capsys, monkeypatch, command, mode):
    built = []
    init = Matrix.__init__

    def counted_init(self, field, rows):
        built.append(None)
        init(self, field, rows)

    monkeypatch.setattr(Matrix, "__init__", counted_init)
    t0 = time.perf_counter()
    rc, out, err = run(capsys, command, "--ring", "q", "--dim", "2", *mode,
                       "--count", "1000001", "--seed", "1")
    assert time.perf_counter() - t0 < 1
    assert rc == 2 and out == "" and "1000001" in err and "budget" in err
    assert built == []  # refused before any element was drawn


def test_dim_zero_is_out_of_range_not_missing(capsys):
    rc, _, err = run(capsys, "verify", "--ring", "q", "--dim", "0",
                     "--random", "--seed", "1", "--count", "3")
    assert rc == 2 and err == "error: dimension 0 outside 1..6\n"
    rc, _, err = run(capsys, "verify", "--ring", "q", "--random", "--seed", "1",
                     "--count", "3")
    assert rc == 2 and err == "error: --dim is required\n"


@pytest.mark.parametrize("flag, value", [
    *((flag, value) for flag in ("--dim", "--seed", "--count")
      for value in ("\u0662", "2_0", "\uff13", " 2 ", "+2", "-")),
    ("--dim", "-2"), ("--count", "-2")])
def test_numeric_flags_take_ascii_digits_only(capsys, flag, value):
    # int() reads Arabic-Indic two, 2_0 as 20, fullwidth three and " 2 ";
    # the last occurrence of a flag is the one argparse keeps
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--ring", "f2", "--random", "--dim=2", "--seed=1", "--count=3",
              f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}: {value!r} is not a decimal number" in capsys.readouterr().err


def test_seed_may_be_negative(capsys):
    rc, out, _ = run(capsys, "enumerate", "--ring", "f5", "--dim", "2", "--random",
                     "--seed", "-3", "--count", "2")
    spec = harness_mod.GeneratorSpec(harness_mod.Mode.RANDOM, parse_ring("f5"), 2,
                                     sample_count=2, seed=-3)
    assert rc == 0 and out == "\n\n".join(m.to_text() for m in harness_mod.generate(spec)) + "\n"


def test_verify_counterexample_exit_1(capsys, monkeypatch):
    broken = TheoremEntry("T2.1", Kind.SEP, "always false", lambda b: False)
    monkeypatch.setattr(harness_mod, "registry", lambda: [broken])
    monkeypatch.setattr(harness_mod, "registry_map", lambda: {"T2.1": broken})
    rc, out, _ = run(capsys, "verify", "--ring", "f2", "--dim", "2",
                     "--exhaustive", "--entries", "T2.1")
    assert rc == 1
    assert "counterexamples: 5" in out  # the five SEP elements of M_2(F_2)


def test_unknown_flag_is_an_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--ring", "f3", "--dim", "2", "--exhaustive",
              "--frobnicate"])
    assert exc.value.code == 2


def test_missing_subcommand_is_an_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# -- enumerate -----------------------------------------------------------------------

def test_enumerate_exhaustive_text(capsys):
    rc, out, _ = run(capsys, "enumerate", "--ring", "f2", "--dim", "1",
                     "--exhaustive")
    assert rc == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    assert parse_matrix(blocks[0]).is_zero()


def test_enumerate_json(capsys):
    rc, out, _ = run(capsys, "enumerate", "--ring", "qi", "--dim", "2",
                     "--random", "--seed", "3", "--count", "4",
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["elements"]) == 4
    assert doc["spec"]["mode"] == "random"


# -- theorems ------------------------------------------------------------------------

def test_theorems_table(capsys):
    rc, out, _ = run(capsys, "theorems")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 32  # 30 registry entries + 2 lemma rows
    assert any(ln.startswith("T2.5") for ln in lines)
    assert any(ln.startswith("L3.1") for ln in lines)


def test_theorems_section_filter(capsys):
    rc, out, _ = run(capsys, "theorems", "--section", "3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(ln.startswith("T3.") for ln in lines)


@pytest.mark.parametrize("argv,digest", [
    ((), "38570e30501d2075d9803b640c51c5aa89bd3ced96eab849e329329ea2069a4e"),
    (("--format", "json"),
     "15220c2cf155ea914f5a88d73b98f67943da62285a8d63434331b5e69ee26a6d"),
])
def test_theorems_pinned(capsys, argv, digest):
    # sha256 of the whole stdout, recorded while each entry's kind and gating
    # were still written beside its statement rather than read from it
    rc, out, _ = run(capsys, "theorems", *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_theorems_json(capsys):
    rc, out, _ = run(capsys, "theorems", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["entries"]) == 30
    assert {e["id"] for e in doc["entries"]} >= {"T2.1", "X3", "T3.4e"}
    assert [l["id"] for l in doc["lemmas"]] == ["L2.8", "L3.1"]
    gated = {e["id"]: e["gated"] for e in doc["entries"]}
    assert gated["T3.4e"] is False and gated["T2.1"] is True


# -- scripts/run_verification.py ------------------------------------------------------

def test_battery_script_unknown_entry_exit_2(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.dirname(starring.__file__)))
    script = os.path.join(root, "scripts", "run_verification.py")
    out_dir = tmp_path / "reports"
    done = subprocess.run(
        [sys.executable, script, "--entries", "X1, X9", "--out-dir", str(out_dir)],
        capture_output=True, text=True, timeout=60)
    # ids are stripped as in `verify --entries`, and the bad one is named
    assert done.returncode == 2, done.stdout + done.stderr
    assert "error:" in done.stderr and "'X9'" in done.stderr
    assert "Traceback" not in done.stderr
    # rejected before any sweep ran: no summary row, no report directory
    assert done.stdout == ""
    assert not out_dir.exists()
