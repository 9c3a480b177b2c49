"""The three benchmark workloads: inputs, the op under test, output checks.

Inputs and expected outputs come from a seeded `random.Random` and plain
integer arithmetic only, so the references share no code with rns3.
`rns3` is imported inside `bind`, which is what the set-up timing covers.
Each op catches its own exceptions and returns them, so a failing call is
counted instead of ending the run.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import prod
from pathlib import Path
from random import Random
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_TABLE4 = ROOT / "tests" / "golden" / "table4.csv"

EDGE_SHARE = 0.01
POLY_DEGREE = 16
VERIFY_SAMPLES = 40


def moduli(n: int) -> tuple[int, int, int]:
    return (1 << n, (1 << 2 * n) - 1, (1 << 2 * n) + 1)


def crt(n: int, residues) -> int:
    """Reference reconstruction by the textbook CRT sum."""
    mods = moduli(n)
    M = prod(mods)
    return sum(r * (M // m) * pow(M // m, -1, m)
               for r, m in zip(residues, mods)) % M


def decimal(x: int) -> str:
    """str(x) for any size, in chunks that stay under the int-to-str limit."""
    chunk = 10 ** 1000
    parts = []
    while x >= chunk:
        x, low = divmod(x, chunk)
        parts.append(f"{low:01000d}")
    parts.append(str(x))
    return "".join(reversed(parts))


def draw_values(rng: Random, n: int, count: int) -> list[int]:
    """Uniform X in [0, M), with EDGE_SHARE of them edge values.

    Edge values are 0, M-1, and X with one residue forced to 0 or m_i-1.
    """
    mods = moduli(n)
    M = prod(mods)
    xs = []
    for _ in range(count):
        if rng.random() >= EDGE_SHARE:
            xs.append(rng.randrange(M))
            continue
        kind = rng.randrange(3)
        if kind < 2:
            xs.append(0 if kind == 0 else M - 1)
            continue
        res = [rng.randrange(m) for m in mods]
        i = rng.randrange(3)
        res[i] = rng.choice((0, mods[i] - 1))
        xs.append(crt(n, res))
    return xs


@dataclass
class Inputs:
    args: list        # what each op receives
    expect: list      # the reference for each op, same order
    extra: dict       # inputs shared by every op


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    dominant: str     # the layer with most of the traced self time
    batch: int        # ops per timed batch
    pool: int         # distinct generated inputs, cycled in order
    generate: Callable[[int, int], Inputs]
    bind: Callable[[Inputs], Callable]
    # (expected, outcome) -> (attempted, failed, wrong, first failure or None)
    check: Callable[[object, object], tuple[int, int, bool, str | None]]


# codec-n16: forward_convert then reverse_convert, the paper's decode path.

def codec_generate(seed: int, pool: int) -> Inputs:
    xs = draw_values(Random(seed), 16, pool)
    mods = moduli(16)
    return Inputs(xs, [(x, tuple(x % m for m in mods)) for x in xs], {})


def codec_bind(inputs: Inputs) -> Callable:
    from rns3 import converter, core
    ms = core.make_moduli_set(16)

    def op(x):
        try:
            rv = core.forward_convert(ms, x)
            return rv, converter.reverse_convert(ms, rv)
        except Exception as exc:
            return exc
    return op


def codec_check(expect, out):
    if isinstance(out, Exception):
        return 1, 1, False, repr(out)
    x, residues = expect
    rv, back = out
    if (rv.r1, rv.r2, rv.r3) == residues and back == x:
        return 1, 0, False, None
    return 1, 1, True, f"X={x}: residues {rv}, decoded {back}"


# poly-n16: Horner evaluation through rns_op, decoded once.

def poly_generate(seed: int, pool: int) -> Inputs:
    rng = Random(seed)
    M = prod(moduli(16))
    coeffs = [rng.randrange(M) for _ in range(POLY_DEGREE + 1)]  # c0..c16
    xs = draw_values(rng, 16, pool)
    expect = []
    for x in xs:
        acc = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = (acc * x + c) % M
        expect.append(acc)
    return Inputs(xs, expect, {"coeffs": coeffs})


def poly_bind(inputs: Inputs) -> Callable:
    from rns3 import channels, converter, core
    ms = core.make_moduli_set(16)
    enc = [core.forward_convert(ms, c) for c in inputs.extra["coeffs"]]
    lead, rest = enc[-1], enc[-2::-1]

    def op(x):
        try:
            rv = core.forward_convert(ms, x)
            acc = lead
            for c in rest:
                acc = channels.rns_op(ms, "add",
                                      channels.rns_op(ms, "mul", acc, rv), c)
            return converter.reverse_convert(ms, acc)
        except Exception as exc:
            return exc
    return op


def poly_check(expect, out):
    if isinstance(out, Exception):
        return 1, 1, False, repr(out)
    if out == expect:
        return 1, 0, False, None
    return 1, 1, True, f"p(x) = {expect}, decoded {out}"


# verify-n4096: one paper-reproduction round through the CLI, in process.
#
# `decode --n N` prints X in decimal, which for N >= 2858 exceeds Python's
# 4300-digit int-to-str limit: the command raises ValueError instead of
# printing X.  Every decode here fails that way until the library is fixed,
# and the failure is counted, not avoided.

def verify_generate(seed: int, pool: int) -> Inputs:
    rng = Random(seed)
    n = 4096
    mods = moduli(n)
    M = prod(mods)
    golden = GOLDEN_TABLE4.read_text()
    args, expect = [], []
    for _ in range(pool):
        vseed = rng.randrange(1 << 32)
        x = rng.randrange(M)
        args.append((
            ["verify", "--n", str(n), "--random",
             "--samples", str(VERIFY_SAMPLES), "--seed", str(vseed)],
            ["decode", "--n", str(n), "--trace", *(str(x % m) for m in mods)],
            ["costs", "--table", "4", "--format", "csv"],
        ))
        expect.append((
            f"\nchecked {VERIFY_SAMPLES} values, 0 failures\n",
            f" X={decimal(x)}\n",
            golden,
        ))
    return Inputs(args, expect, {})


def verify_bind(inputs: Inputs) -> Callable:
    from rns3 import cli

    def command(argv):
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:
            return exc
        return code, out.getvalue()

    def op(argvs):
        return [command(argv) for argv in argvs]
    return op


def verify_check(expect, out):
    """verify must end with 0 failures, decode must end with X, costs must
    equal the golden csv; a raised exception fails a command without a
    wrong output."""
    failed, wrong, first = 0, False, None
    verify_tail, decode_tail, golden = expect
    for name, result, good in zip(("verify", "decode", "costs"), out, (
        lambda t: t.endswith(verify_tail),
        lambda t: t.endswith(decode_tail),
        lambda t: t == golden,
    )):
        if isinstance(result, Exception):
            failed += 1
            first = first or f"{name}: {result!r}"
            continue
        code, text = result
        if code != 0 or not good(text):
            failed += 1
            wrong = True
            first = first or f"{name}: exit {code}, output ends {text[-80:]!r}"
    return 3, failed, wrong, first


WORKLOADS = {w.name: w for w in (
    Workload("codec-n16", 16, "converter", batch=200, pool=4000,
             generate=codec_generate, bind=codec_bind, check=codec_check),
    Workload("poly-n16", 16, "channels", batch=20, pool=1000,
             generate=poly_generate, bind=poly_bind, check=poly_check),
    Workload("verify-n4096", 4096, "cli", batch=1, pool=32,
             generate=verify_generate, bind=verify_bind, check=verify_check),
)}
