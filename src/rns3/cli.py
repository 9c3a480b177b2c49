"""Command-line front end: encode, decode, verify, costs, bench.

Exit codes: 0 success, 2 usage or range error, 1 verification failure.
Numbers are accepted in decimal or 0x-prefixed hexadecimal.  Random
verification draws from random.Random (Mersenne Twister) with the given
seed, so identical invocations produce byte-identical output on every
platform.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import itertools
import operator
import os
import re
import sys
import time
from random import Random

from rns3 import channels, converter, core
from rns3.errors import RnsError, _shown

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Sizes whose full value range is small enough to sweep end to end.
EXHAUSTIVE_MAX_N = 3

# Decimal digits per chunk when reading and printing big integers; well
# under the interpreter's int-str limit (4300 digits by default).
DECIMAL_CHUNK_DIGITS = 1000

# Failures listed per verify check, smallest first.
SHOWN_FAILURES = 10

# Timed passes per bench function; the fastest is reported, since load
# from other processes only ever slows a pass down.
BENCH_REPEATS = 5


def parse_uint(text: str) -> int:
    t = text.strip().lower()
    try:
        value = int(t, 16) if t.startswith("0x") else int(t, 10)
    except ValueError:
        # More digits than int() takes: read them as it reads fewer (a sign,
        # single _ between digits), in chunks as format_decimal writes them.
        if not re.fullmatch(r"[+-]?\d+(?:_\d+)*", t):
            raise argparse.ArgumentTypeError(
                f"not an unsigned integer: {_shown(text)}")
        digits = t.lstrip("+-").replace("_", "")
        value = 0
        for i in range(0, len(digits), DECIMAL_CHUNK_DIGITS):
            chunk = digits[i:i + DECIMAL_CHUNK_DIGITS]
            value = value * 10 ** len(chunk) + int(chunk)
        value = -value if t[0] == "-" else value
    if value < 0:
        raise argparse.ArgumentTypeError(f"value must be >= 0: {_shown(text)}")
    return value


def parse_positive(text: str) -> int:
    value = parse_uint(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"value must be >= 1: {_shown(text)}")
    return value


def format_decimal(x: int) -> str:
    """str(x) for x >= 0 of any size, without the int-to-str digit limit."""
    chunk = 10 ** DECIMAL_CHUNK_DIGITS
    parts = []
    while x >= chunk:
        x, low = divmod(x, chunk)
        parts.append(f"{low:0{DECIMAL_CHUNK_DIGITS}d}")
    parts.append(str(x))
    return "".join(reversed(parts))


def _show(value) -> str:
    """repr(value) for a failure: an int or a tuple of ints and strings."""
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_show, value)) + ")"
    return format_decimal(value) if isinstance(value, int) else repr(value)


@functools.cache  # built once per process; parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rns3",
        description="Residue codec for the moduli set {2^n, 2^(2n)-1, 2^(2n)+1}.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="integer to residue triple")
    enc.add_argument("--n", type=parse_positive, required=True,
                     help="set size parameter")
    enc.add_argument("x", type=parse_uint, help="value in [0, M)")

    dec = sub.add_parser("decode", help="residue triple to integer")
    dec.add_argument("--n", type=parse_positive, required=True)
    dec.add_argument("--trace", action="store_true",
                     help="print operand words and adder intermediates")
    dec.add_argument("r1", type=parse_uint)
    dec.add_argument("r2", type=parse_uint)
    dec.add_argument("r3", type=parse_uint)

    ver = sub.add_parser("verify", help="roundtrip / lemma / homomorphism campaign")
    ver.add_argument("--n", type=parse_positive, required=True)
    mode = ver.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true",
                      help=f"sweep all of [0, M); n <= {EXHAUSTIVE_MAX_N} only")
    mode.add_argument("--random", action="store_true", help="sampled campaign")
    ver.add_argument("--samples", type=parse_positive, default=10000)
    ver.add_argument("--seed", type=parse_uint, default=0)

    cst = sub.add_parser("costs", help="unit-gate cost tables")
    cst.add_argument("--table", type=parse_uint, required=True,
                     help="1 bills, 2 converter delays, 3 channel-adder delays, "
                          "4 area/delay comparison")
    cst.add_argument("--format", choices=("text", "csv"), default="text")
    cst.add_argument("--n", type=parse_positive,
                     help="size parameter for tables 1-3")
    cst.add_argument("--m", type=parse_positive,
                     help="classic-set width override for tables 1-2")

    ben = sub.add_parser("bench", help="micro-benchmarks")
    ben.add_argument("--n", type=parse_positive, required=True)
    ben.add_argument("--iters", type=parse_positive, default=10000)
    ben.add_argument("--seed", type=parse_uint, default=0)
    ben.add_argument("--format", choices=("text", "json"), default="text",
                     help="json: one object with the machine, n and iters "
                          "beside the timings")

    return parser


def cmd_encode(args) -> int:
    ms = core.make_moduli_set(args.n)
    rv = core.forward_convert(ms, args.x)
    print("R1={} R2={} R3={}".format(*map(format_decimal, rv.astuple())))
    return EXIT_OK


def cmd_decode(args) -> int:
    ms = core.make_moduli_set(args.n)
    rv = core.ResidueVector(args.r1, args.r2, args.r3)
    if not args.trace:
        print(f"X={format_decimal(converter.reverse_convert(ms, rv))}")
        return EXIT_OK
    t = converter.decode_trace(ms, rv)
    print(f"S1'={t.s1_prime.to_binary()}")
    print(f"S2={t.s2.to_binary()}")
    print(f"S31={t.s31.to_binary()}")
    print(f"CSA sum={t.sum.to_binary()} carry={t.carry.to_binary()}")
    print(f"Y={format_decimal(t.y.value)} X={format_decimal(t.x.value)}")
    return EXIT_OK


def _roundtrip_fails(ms, x):
    rv = core.forward_convert(ms, x)
    if converter.reverse_convert(ms, rv) != x or core.crt_reconstruct(ms, rv) != x:
        yield x


def _fold_mod_mersenne(v, k):
    """v mod 2^k - 1 for v >= 0: the k-bit chunks of v added end around,
    all-ones -> 0.  No division, and no rns3 call, so the references that
    use it stay independent of the library they check."""
    mask = (1 << k) - 1
    while v > mask:
        v = (v & mask) + (v >> k)
    return 0 if v == mask else v


def _residues(n, v):
    """(v mod 2^n, v mod 2^(2n) - 1, v mod 2^(2n) + 1) for v >= 0.  Both
    2n-bit moduli divide 2^(4n) - 1, so v is first folded to 4n bits; its
    2n-bit halves then reduce as lo + hi (2^(2n) = 1 mod 2^(2n) - 1) and
    as lo - hi (2^(2n) = -1 mod 2^(2n) + 1)."""
    k = 2 * n
    f = _fold_mod_mersenne(v, 2 * k)
    hi, lo = f >> k, f & ((1 << k) - 1)
    r3 = lo - hi
    return (v & ((1 << n) - 1), _fold_mod_mersenne(lo + hi, k),
            r3 + (1 << k) + 1 if r3 < 0 else r3)


def _lemma_fails(ms, triple):
    """The triple if an operand word misses its coefficient product mod 2^(4n)-1."""
    r1, r2, r3 = triple
    n = ms.n
    w = 4 * n
    s1 = converter.r1_summand(n, r1)
    s2 = converter.r2_summand(n, r2)
    s31 = converter.r3_rot_summand(n, r3)
    s32 = converter.r3_comp_summand(n, r3)
    s1p = converter.merged_summand(n, r1, r3)

    def same(u, v):
        return _fold_mod_mersenne(u, w) == _fold_mod_mersenne(v, w)

    # The coefficients -2^(3n), 2^(3n-1) + 2^(n-1) and 2^(3n-1) - 2^(n-1),
    # applied as shifts; r1 << 3n < 2^(4n) - 1, so the first side is >= 0.
    if not (
        same(s1, ((1 << w) - 1) - (r1 << 3 * n))
        and same(s2, (r2 << 3 * n - 1) + (r2 << n - 1))
        and same(s31 + s32, (r3 << 3 * n - 1) - (r3 << n - 1))
        and same(s1 + s32, s1p)
    ):
        yield triple


_REFERENCE = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def _channel_results(n, op, u, v):
    """x op y in each channel, from the residues u and v of x and y: u_i op
    v_i, plus m_i for sub so that it is never negative, reduced by
    _residues.  The moduli are built from n, so that the reference reads
    nothing from the moduli set it checks."""
    f = _REFERENCE[op]
    pads = (1 << n, (1 << 2 * n) - 1, (1 << 2 * n) + 1) if op == "sub" else (0, 0, 0)
    return tuple(_residues(n, f(s, t) + pad)[i]
                 for i, (s, t, pad) in enumerate(zip(u, v, pads)))


def _homomorphism_fails(ms, case):
    """rns_op on an (i, op, a, b) case, a and b in channel i and 0 in the
    others, against the big-integer result reduced modulo m_i; or under
    every op on an (X, Y) pair, against _channel_results on the checker's
    own residues of X and Y."""
    if len(case) == 4:
        i, op, a, b = case
        u, v = [0, 0, 0], [0, 0, 0]
        u[i], v[i] = a, b
        got = channels.rns_op(ms, op, core.ResidueVector(*u), core.ResidueVector(*v))
        if got.astuple()[i] != _REFERENCE[op](a, b) % ms.moduli()[i]:
            yield a, b, op, ms.channels()[i].kind.value
        return
    x, y = case
    n = ms.n
    a, b = core.forward_convert(ms, x), core.forward_convert(ms, y)
    u, v = _residues(n, x), _residues(n, y)
    for op in channels.CHANNEL_OPS:
        if channels.rns_op(ms, op, a, b).astuple() != _channel_results(n, op, u, v):
            yield x, y, op


def cmd_verify(args) -> int:
    if args.exhaustive and args.n > EXHAUSTIVE_MAX_N:
        print(f"exhaustive mode supports n <= {EXHAUSTIVE_MAX_N} only; "
              "use --random", file=sys.stderr)
        return EXIT_USAGE
    ms = core.make_moduli_set(args.n)
    rng = Random(args.seed)
    # Cases are drawn lazily, as each check consumes them, so memory does
    # not grow with --samples; the checks run in turn, so the RNG still
    # draws all values, then all triples, then all pairs.
    if args.exhaustive:
        values = range(ms.M)
        triples = itertools.chain(
            ((0, r2, 0) for r2 in range(ms.m2)),
            ((r1, 0, r3) for r1 in range(ms.m1) for r3 in range(ms.m3)))
        homs = ((i, op, a, b)
                for i, m in enumerate(ms.moduli()) for op in channels.CHANNEL_OPS
                for a in range(m) for b in range(m))
        pairs = 1000
    else:
        values = (rng.randrange(ms.M) for _ in range(args.samples))
        triples = ((rng.randrange(ms.m1), rng.randrange(ms.m2), rng.randrange(ms.m3))
                   for _ in range(args.samples))
        homs = ()
        pairs = args.samples
    homs = itertools.chain(homs, ((rng.randrange(ms.M), rng.randrange(ms.M))
                                  for _ in range(pairs)))

    # Each check keeps a failure count and its SHOWN_FAILURES smallest
    # failures, so memory does not grow with the number of failures either.
    checks = []
    for label, fails_of, cases in (("roundtrip", _roundtrip_fails, values),
                                   ("operand lemmas", _lemma_fails, triples),
                                   ("homomorphism", _homomorphism_fails, homs)):
        checked, failed, first = 0, 0, []
        for checked, case in enumerate(cases, 1):
            for fail in fails_of(ms, case):
                failed += 1
                bisect.insort(first, fail)
                del first[SHOWN_FAILURES:]
        checks.append((label, checked, failed, first))
    for label, checked, failed, _ in checks:
        print(f"{label}: checked {checked}, failed {failed}")
    for label, _, failed, first in checks:
        if failed:
            shown = ", ".join(map(_show, first))
            print(f"{label} failures (first {SHOWN_FAILURES} of {failed}): {shown}")
    failures = sum(failed for _, _, failed, _ in checks)
    print(f"checked {checks[0][1]} values, {failures} failures")
    return EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_costs(args) -> int:
    # Imported here, so that no other command loads the cost model.
    from rns3 import costs

    if args.table == 4:
        print(costs.emit_table(costs.table4(), args.format), end="")
        return EXIT_OK
    if args.table not in (1, 2, 3):
        print(f"unknown table id {_shown(args.table)} (expected 1-4)",
              file=sys.stderr)
        return EXIT_USAGE
    if args.n is None:
        print(f"table {_shown(args.table)} needs --n", file=sys.stderr)
        return EXIT_USAGE
    if args.table == 1:
        out = costs.render_bill_table(args.n, args.m, args.format)
    elif args.table == 2:
        out = costs.render_delay_table(args.n, args.m, args.format)
    else:
        out = costs.render_channel_delay_table(args.n, args.format)
    print(out, end="")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.iters > sys.maxsize:  # itertools.islice takes no more
        print(f"--iters must be <= {sys.maxsize}, got {_shown(args.iters)}",
              file=sys.stderr)
        return EXIT_USAGE
    ms = core.make_moduli_set(args.n)
    rng = Random(args.seed)
    xs = [rng.randrange(ms.M) for _ in range(min(args.iters, 4096))]
    rvs = [core.forward_convert(ms, x) for x in xs]
    # label, function, and a builder of its argument tuples, called just
    # before each pass so that only one argument list is alive at a time.
    benches = [
        ("forward_convert", core.forward_convert, lambda: [(ms, x) for x in xs]),
        ("reverse_convert", converter.reverse_convert,
         lambda: [(ms, rv) for rv in rvs]),
        ("crt_reconstruct", core.crt_reconstruct,
         lambda: [(ms, rv) for rv in rvs]),
    ] + [
        (f"rns_op {op}", channels.rns_op,
         lambda op=op: [(ms, op, rvs[i - 1], rv) for i, rv in enumerate(rvs)])
        for op in channels.CHANNEL_OPS
    ]

    def clock(fn, calls):
        # calls: the argument tuples, cycled through for args.iters calls.
        t0 = time.perf_counter()
        for call in itertools.islice(itertools.cycle(calls), args.iters):
            fn(*call)
        return time.perf_counter() - t0

    # Pass i of every function runs before any pass i + 1, so a slow phase
    # of the machine slows one pass of each, not every pass of one.
    rounds = [[clock(fn, build()) for _, fn, build in benches]
              for _ in range(BENCH_REPEATS)]
    us_per_op = {label: min(passes) / args.iters * 1e6
                 for (label, _, _), passes in zip(benches, zip(*rounds))}
    if args.format == "json":
        # Imported here: at module level they add ~5 ms to every command.
        import json
        import platform

        # Rounded as the text output rounds them, beside the interpreter,
        # the platform, the CPUs this process may use, n and the iterations.
        print(json.dumps({
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": (len(os.sched_getaffinity(0))
                      if hasattr(os, "sched_getaffinity") else os.cpu_count()),
            "n": args.n,
            "iters": args.iters,
            "repeats": BENCH_REPEATS,
            "us_per_op": {label: round(us, 3) for label, us in us_per_op.items()},
        }))
        return EXIT_OK
    for label, us in us_per_op.items():
        print(f"{label}: {us:.3f} us/op ({args.iters} iters)")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # Looked up by name on each call, not bound into the parser, which
        # is built once: a command replaced on this module still runs.
        return globals()[f"cmd_{args.command}"](args)
    except RnsError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
