"""Command-line contract: output formats, exit codes, determinism."""

import argparse
import json
import operator
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from itertools import repeat
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rns3 import channels, cli, converter, core
from rns3.cli import main

TRANSCRIPT = Path(__file__).parent / "golden" / "cli.txt"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _transcript_runs(text):
    """(argv, exit code, stdout, stderr) for each block of a transcript: a
    `$ rns3 ARGS` line, an `exit N` line, the command's stdout verbatim,
    then its stderr with `! ` before each line."""
    if not text.endswith("\n"):
        raise ValueError("the last block's output has no final newline")
    head, *blocks = re.split(r"^\$ rns3 ", text, flags=re.M)
    if head:
        raise ValueError(f"text before the first block: {head[:40]!r}")
    runs = []
    for block in blocks:
        args, *lines = block.split("\n")[:-1]
        if not (lines and re.fullmatch(r"exit \d+", lines[0])):
            raise ValueError(f"no exit line after `$ rns3 {args[:40]}`")
        out = "".join(line + "\n" for line in lines[1:]
                      if not line.startswith("! "))
        err = "".join(line[2:] + "\n" for line in lines[1:]
                      if line.startswith("! "))
        runs.append((args.split(), int(lines[0][5:]), out, err))
    return runs


CLI_RUNS = _transcript_runs(TRANSCRIPT.read_text())
# The paper's Tables 1-3 at four sizes in both formats, and Tables 1-2 at
# an m of their own; test_costs_tables_match_golden runs these blocks and
# test_cli_transcript the rest.
COSTS_TABLES = {f"costs --table {t} --n {n} --format {fmt}"
                for t in "123" for n in (1, 4, 13, 64)
                for fmt in ("text", "csv")}
COSTS_TABLES |= {f"costs --table {t} --n 4 --m 9 --format {fmt}"
                 for t in "12" for fmt in ("text", "csv")}
COSTS_RUNS = [r for r in CLI_RUNS if " ".join(r[0]) in COSTS_TABLES]
OTHER_RUNS = [r for r in CLI_RUNS if " ".join(r[0]) not in COSTS_TABLES]


def _run_id(argv):
    return " ".join(a if len(a) <= 24 else f"{a[:6]}...({len(a)} chars)"
                    for a in argv)


def _check_block(capsys, monkeypatch, argv, code, out, err):
    # argparse wraps help and usage errors to the terminal width, which
    # it reads from COLUMNS first.
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize("argv, code, out, err", OTHER_RUNS,
                         ids=[_run_id(argv) for argv, *_ in OTHER_RUNS])
def test_cli_transcript(capsys, monkeypatch, argv, code, out, err):
    _check_block(capsys, monkeypatch, argv, code, out, err)


@pytest.mark.parametrize("argv, code, out, err", COSTS_RUNS,
                         ids=[" ".join(argv[1:]) for argv, *_ in COSTS_RUNS])
def test_costs_tables_match_golden(capsys, monkeypatch, argv, code, out, err):
    _check_block(capsys, monkeypatch, argv, code, out, err)


def test_verify_random_deterministic(capsys):
    args = ("verify", "--n", "16", "--random", "--samples", "2000",
            "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith("checked 2000 values, 0 failures\n")


# The checker's references reduce by end-around folds; these pin the folds
# to Python's remainder, on every v in [0, M^2) that a product can reach.
@pytest.mark.parametrize("n", [1, 2])
def test_checker_folds_match_remainder_exhaustive(n):
    ms = core.make_moduli_set(n)
    M, W = ms.M, (1 << 4 * n) - 1
    vs = range(M * M)
    assert all(map(operator.eq, map(cli._fold_mod_mersenne, vs, repeat(4 * n)),
                   map(operator.mod, vs, repeat(W))))
    assert all(map(operator.eq, map(cli._reduce_mod_M, repeat(ms), vs),
                   map(operator.mod, vs, repeat(M))))


@st.composite
def set_and_square_range_value(draw):
    """A moduli set with n up to 4096 and a value in [0, M^2)."""
    ms = core.make_moduli_set(draw(st.one_of(st.integers(1, 8),
                                             st.integers(1, 4096))))
    return ms, draw(st.integers(0, ms.M ** 2 - 1))


@settings(max_examples=100, deadline=None)
@given(set_and_square_range_value())
def test_checker_folds_match_remainder(case):
    ms, v = case
    n, M = ms.n, ms.M
    W = (1 << 4 * n) - 1
    # The edges are checked on every example, next to the drawn value.
    for u in (0, M - 1, M, (M - 1) ** 2, W, W + 1, W * W, v):
        assert cli._fold_mod_mersenne(u, 4 * n) == u % W
        assert cli._reduce_mod_M(ms, u) == u % M


def test_verify_catches_wrong_product_at_large_n(capsys, monkeypatch):
    rns_op = channels.rns_op

    def r2_off_by_one_for_mul(ms, op, a, b):
        rv = rns_op(ms, op, a, b)
        if op != "mul":
            return rv
        return core.ResidueVector(rv.r1, (rv.r2 + 1) % ms.m2, rv.r3)

    monkeypatch.setattr(channels, "rns_op", r2_off_by_one_for_mul)
    code, out, _ = run(capsys, "verify", "--n", "1024", "--random",
                       "--samples", "5")
    assert code == 1
    lines = out.splitlines()
    assert lines[:3] == ["roundtrip: checked 5, failed 0",
                         "operand lemmas: checked 5, failed 0",
                         "homomorphism: checked 5, failed 5"]
    assert lines[3].startswith("homomorphism failures (first 10 of 5): (")
    assert lines[3].count(", 'mul')") == 5
    assert lines[4:] == ["checked 5 values, 5 failures"]


def test_verify_catches_wrong_operand_word_at_large_n(capsys, monkeypatch):
    r2_summand = converter.r2_summand
    monkeypatch.setattr(converter, "r2_summand", lambda n, r2: converter.BitWord(
        r2_summand(n, r2).value ^ 1, 4 * n))
    code, out, _ = run(capsys, "verify", "--n", "1024", "--random",
                       "--samples", "5")
    assert code == 1
    lines = out.splitlines()
    assert lines[:3] == ["roundtrip: checked 5, failed 0",
                         "operand lemmas: checked 5, failed 5",
                         "homomorphism: checked 5, failed 0"]
    assert lines[3].startswith("operand lemmas failures (first 10 of 5): (")
    assert lines[4:] == ["checked 5 values, 5 failures"]


def test_verify_lists_roundtrip_and_lemma_failures(capsys, monkeypatch):
    monkeypatch.setattr(core, "crt_reconstruct", lambda ms, rv: 0)
    monkeypatch.setattr(converter, "r2_summand",
                        lambda n, r2: converter.BitWord(0, 4 * n))
    code, out, _ = run(capsys, "verify", "--n", "1", "--exhaustive")
    assert code == 1
    assert out.splitlines() == [
        "roundtrip: checked 30, failed 29",
        "operand lemmas: checked 13, failed 2",
        "homomorphism: checked 1114, failed 0",
        "roundtrip failures (first 10 of 29): 1, 2, 3, 4, 5, 6, 7, 8, 9, 10",
        "operand lemmas failures (first 10 of 2): (0, 1, 0), (0, 2, 0)",
        "checked 30 values, 31 failures",
    ]


def test_verify_lists_channel_failures(capsys, monkeypatch):
    rns_op = channels.rns_op
    monkeypatch.setattr(channels, "rns_op", lambda ms, op, a, b: (
        rns_op(ms, op, a, b) if a._set is ms and b._set is ms
        else core.ResidueVector(-1, -1, -1)))
    code, out, _ = run(capsys, "verify", "--n", "1", "--exhaustive")
    assert code == 1
    # 1000 sampled pairs still pass through rns_op; every channel case fails.
    first = [(0, 0, op, kind) for op in ("add", "mul", "sub")
             for kind in ("pow2", "pow2_minus1", "pow2_plus1")]
    first.append((0, 1, "add", "pow2"))
    assert out.splitlines() == [
        "roundtrip: checked 30, failed 0",
        "operand lemmas: checked 13, failed 0",
        "homomorphism: checked 1114, failed 114",
        "homomorphism failures (first 10 of 114): "
        + ", ".join(map(repr, first)),
        "checked 30 values, 114 failures",
    ]


def test_verify_lists_pair_failures(capsys, monkeypatch):
    monkeypatch.setattr(channels, "rns_op",
                        lambda ms, op, a, b: core.ResidueVector(-1, -1, -1))
    code, out, _ = run(capsys, "verify", "--n", "1", "--random",
                       "--samples", "2", "--seed", "3")
    assert code == 1
    # The pairs come after two values and two (r1, r2, r3) triples.
    rng = Random(3)
    for bound in (30, 30, 2, 3, 5, 2, 3, 5):
        rng.randrange(bound)
    pairs = [(rng.randrange(30), rng.randrange(30)) for _ in range(2)]
    fails = sorted((x, y, op) for x, y in pairs for op in ("add", "sub", "mul"))
    assert out.splitlines()[2:] == [
        "homomorphism: checked 2, failed 6",
        "homomorphism failures (first 10 of 6): " + ", ".join(map(repr, fails)),
        "checked 2 values, 6 failures",
    ]


def test_verify_under_python_O(capsys):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for n in ("2", "3"):
        argv = ("verify", "--n", n, "--exhaustive")
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "rns3", *argv], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run(capsys, *argv)[1]


def test_costs_golden_covers_tables_1_to_3():
    runs = {" ".join(argv) for argv, *_ in CLI_RUNS}
    want = set(COSTS_TABLES)
    # Each boundary of every subcommand, error exits included.
    big, huge = "0x400000000000000000", "0x" + "f" * 5000
    for n in ("0", "65537", big):
        want |= {f"encode --n {n} 1", f"decode --n {n} 0 0 0",
                 f"verify --n {n} --random --samples 1"}
    want |= {f"costs --table {t} --n {n}"
             for t in "123" for n in ("4", "65536", "0x100001", big)}
    want |= {
        "--help", "encode --n 2 1020", f"encode --n 2 {huge}",
        "decode --n 2 0 10 15", "decode --n 2 --trace 0 10 15",
        f"decode --n 2 0 10 {huge}",
        *(f"verify --n {n} --exhaustive" for n in range(1, 6)),
        "verify --n 1 --random", "verify --n 16 --random --samples 500 --seed 7",
        "verify --n 4096 --random --samples 40 --seed 1",
        "verify --n 65536 --random --samples 1",
        "costs --table 4", "costs --table 4 --format csv", "costs --table 2",
        "costs --table 9", f"costs --table {huge}", f"costs --table 3 --n {huge}",
        "bench --n 0", "bench --n 2 --iters 0", f"bench --n 1 --iters {2**63}",
    }
    assert want - runs == set()


def test_bench_minimal(capsys):
    code, out, _ = run(capsys, "bench", "--n", "1", "--iters", "1")
    assert code == 0
    assert len(out.splitlines()) == 6
    code, out, _ = run(capsys, "bench", "--n", "16", "--iters", "2000")
    assert code == 0
    assert out.startswith("forward_convert:")


def test_parser_is_built_once_and_keeps_no_state():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    first = parser.parse_args(["costs", "--table", "4", "--format", "csv"])
    again = parser.parse_args(["costs", "--table", "4"])
    assert (first.format, again.format) == ("csv", "text")
    traced = parser.parse_args(["decode", "--n", "2", "--trace", "1", "2", "3"])
    plain = parser.parse_args(["decode", "--n", "2", "1", "2", "3"])
    assert (traced.trace, plain.trace) == (True, False)


def test_command_replaced_on_the_module_runs(capsys, monkeypatch):
    # The parser is built once, so commands are found by name per call.
    cli.build_parser()
    monkeypatch.setattr(cli, "cmd_encode", lambda args: print("stub") or 0)
    assert run(capsys, "encode", "--n", "2", "100") == (0, "stub\n", "")


def test_bench_json_schema(capsys):
    for n, iters in ((2, 3), (4096, 200)):
        code, out, _ = run(capsys, "bench", "--n", str(n), "--iters",
                           str(iters), "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert set(record) == {"python", "platform", "nproc", "n", "iters",
                               "repeats", "us_per_op"}
        assert record["python"] == platform.python_version()
        assert isinstance(record["platform"], str) and record["platform"]
        assert type(record["nproc"]) is int and record["nproc"] >= 1
        assert (record["n"], record["iters"]) == (n, iters)
        assert record["repeats"] == cli.BENCH_REPEATS
        assert list(record["us_per_op"]) == [
            "forward_convert", "reverse_convert", "crt_reconstruct",
            "rns_op add", "rns_op sub", "rns_op mul"]
        assert all(type(us) is float and us >= 0
                   for us in record["us_per_op"].values())


def test_bench_memory_does_not_grow_with_iters(capsys, monkeypatch):
    # Timed functions stubbed out: what is left is the loop's own storage.
    # A list of one input per iteration holds 200000 8-byte pointers, 1.6 MB.
    for module, name in ((core, "forward_convert"), (converter, "reverse_convert"),
                         (core, "crt_reconstruct")):
        monkeypatch.setattr(module, name, lambda ms, x: None)
    monkeypatch.setattr(channels, "rns_op", lambda ms, op, a, b: None)
    tracemalloc.start()
    try:
        code = main(["bench", "--n", "1", "--iters", "200000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert peak < 1_000_000


def test_bench_interleaves_passes(capsys, monkeypatch):
    calls = []
    for module, name in ((core, "forward_convert"), (converter, "reverse_convert"),
                         (core, "crt_reconstruct")):
        monkeypatch.setattr(module, name,
                            lambda ms, x, name=name: calls.append(name))
    monkeypatch.setattr(channels, "rns_op",
                        lambda ms, op, a, b: calls.append(op))
    code, out, _ = run(capsys, "bench", "--n", "1", "--iters", "1")
    assert code == 0
    one_pass = ["forward_convert", "reverse_convert", "crt_reconstruct",
                "add", "sub", "mul"]
    # The first forward_convert call encodes the one bench input.
    assert calls == ["forward_convert"] + one_pass * cli.BENCH_REPEATS
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "forward_convert", "reverse_convert", "crt_reconstruct",
        "rns_op add", "rns_op sub", "rns_op mul"]


def test_verify_memory_does_not_grow_with_samples(capsys, monkeypatch):
    # Checks stubbed out: what is left is the storage of the drawn cases.
    # Drawing every case up front holds 20000 values, triples and pairs, ~7 MB.
    for name in ("_roundtrip_fails", "_lemma_fails", "_homomorphism_fails"):
        monkeypatch.setattr(cli, name, lambda ms, case: ())
    tracemalloc.start()
    try:
        code = main(["verify", "--n", "16", "--random", "--samples", "20000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out.endswith("checked 20000 values, 0 failures\n")
    assert peak < 1_000_000


def _verify_peak_with_every_value_failing(monkeypatch, samples):
    monkeypatch.setattr(cli, "_roundtrip_fails", lambda ms, x: (x,))
    for name in ("_lemma_fails", "_homomorphism_fails"):
        monkeypatch.setattr(cli, name, lambda ms, case: ())
    tracemalloc.start()
    try:
        code = main(["verify", "--n", "16", "--random",
                     "--samples", str(samples)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    return peak


def test_verify_memory_does_not_grow_with_failures(capsys, monkeypatch):
    # A list of every failure holds 20000 80-bit ints, ~0.9 MB more than 2000.
    small = _verify_peak_with_every_value_failing(monkeypatch, 2000)
    out = capsys.readouterr().out
    assert "roundtrip: checked 2000, failed 2000\n" in out
    big = _verify_peak_with_every_value_failing(monkeypatch, 20000)
    out = capsys.readouterr().out
    assert "roundtrip failures (first 10 of 20000): " in out
    assert out.endswith("checked 20000 values, 20000 failures\n")
    assert big < small + 100_000


def _from_digits(digits):
    x = 0
    for d in digits:
        x = x * 10 + int(d)
    return x


# At n = 3000, X has up to about 4515 decimal digits: more than the 4300
# that str(int) converts by default.
BIG_N = 3000


def test_decode_beyond_int_str_digit_limit(capsys):
    rng = Random(BIG_N)
    want = str(rng.randrange(1, 10)) + "".join(
        str(rng.randrange(10)) for _ in range(4499))
    x = _from_digits(want)
    residues = [hex(x % m) for m in (
        1 << BIG_N, (1 << 2 * BIG_N) - 1, (1 << 2 * BIG_N) + 1)]
    code, out, _ = run(capsys, "decode", "--n", str(BIG_N), *residues)
    assert code == 0
    assert out == f"X={want}\n"
    code, out, _ = run(capsys, "decode", "--n", str(BIG_N), "--trace",
                       *residues)
    assert code == 0
    assert out.splitlines()[-1] == f"Y={x >> BIG_N} X={want}"


def test_parse_uint_beyond_int_str_digit_limit():
    # 4501 digits: four full chunks and a short last one.
    rng = Random(4501)
    text = "".join(str(rng.randrange(10)) for _ in range(4501))
    assert cli.parse_uint(text) == _from_digits(text)


# Spellings of a string of digits, each {} a piece of it, and what
# parse_uint reads from each: their value (None), or the start of its error.
DECIMAL_FORMS = {
    "+{}": None, "{}_{}": None, "+{}_{}_{}": None,
    "-{}": "value must be >= 0", "{}__{}": "not an unsigned integer",
    "{}_": "not an unsigned integer", "_{}": "not an unsigned integer",
    "+-{}": "not an unsigned integer",
}


@pytest.mark.parametrize("form, error", DECIMAL_FORMS.items(), ids=DECIMAL_FORMS)
def test_parse_uint_reads_decimal_forms_alike_past_the_digit_limit(form, error):
    # At 12 digits int(t, 10) reads the text; at 4501 parse_uint must read
    # it alike, in chunks.
    rng = Random(4501)
    for size in (12, 4501):
        digits = "".join(str(rng.randrange(1, 10)) for _ in range(size))
        cut = [size * i // form.count("{}") for i in range(form.count("{}") + 1)]
        text = form.format(*(digits[a:b] for a, b in zip(cut, cut[1:])))
        if error is None:
            assert cli.parse_uint(text) == _from_digits(digits)
        else:
            with pytest.raises(argparse.ArgumentTypeError, match=f"^{error}: "):
                cli.parse_uint(text)


def test_encode_beyond_int_str_digit_limit(capsys):
    n = 7200  # r2 and r3 of x below have about 4335 digits
    x = (1 << 2 * n) - 2
    code, out, _ = run(capsys, "encode", "--n", str(n), hex(x))
    assert code == 0
    residues = [_from_digits(part.split("=")[1]) for part in out.split()]
    assert residues == [(1 << n) - 2, x, x]


def test_verify_lists_failures_beyond_int_str_digit_limit(capsys, monkeypatch):
    monkeypatch.setattr(converter, "reverse_convert", lambda ms, rv: -1)
    code, out, _ = run(capsys, "verify", "--n", str(BIG_N), "--random",
                       "--samples", "1", "--seed", "5")
    assert code == 1
    prefix = "roundtrip failures (first 10 of 1): "
    listed = next(line for line in out.splitlines() if line.startswith(prefix))
    M = (1 << BIG_N) * ((1 << 4 * BIG_N) - 1)
    assert _from_digits(listed[len(prefix):]) == Random(5).randrange(M)
    # A failing pair is listed as a tuple, each of its ints in full.
    monkeypatch.setattr(channels, "rns_op", lambda ms, op, a, b: a)
    code, out, _ = run(capsys, "verify", "--n", str(BIG_N), "--random",
                       "--samples", "1", "--seed", "5")
    assert code == 1
    prefix = "homomorphism failures (first 10 of 3): ("
    listed = next(line for line in out.splitlines() if line.startswith(prefix))
    x, y, op = listed[len(prefix):].split(")")[0].split(", ")
    rng = Random(5)
    for bound in (M, 1 << BIG_N, (1 << 2 * BIG_N) - 1, (1 << 2 * BIG_N) + 1):
        rng.randrange(bound)
    assert (_from_digits(x), _from_digits(y), op) == (
        rng.randrange(M), rng.randrange(M), "'add'")
