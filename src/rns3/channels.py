"""Carry-free arithmetic in the channel moduli 2^k, 2^k - 1 and 2^k + 1.

reduce_mod folds any x >= 0: the power-of-two channel masks low bits,
the 2^k - 1 channel adds k-bit chunks end-around (2^k == 1 there), and
the 2^k + 1 channel sums chunks with alternating signs (2^k == -1 there)
and canonicalizes that short sum with one final modulo.

Channel arithmetic needs far less, because its operands are canonical.
A sum or difference lies within one modulus of the range, and a product
is below 2^(2k) (at most 2^(2k) itself in the 2^k + 1 channel), so each
channel kind has a kernel that finishes in a fixed number of steps,
without a loop or a division:

- 2^k: one mask.
- 2^k - 1: one end-around fold after add or sub, two after mul (the
  first fold leaves at most k + 1 bits); the all-ones word, the alias
  of zero, becomes 0.
- 2^k + 1: a + b - m and a - b lie in [-m, m), so one conditional +m
  finishes them; a product p becomes (p mod 2^k) - (p >> k), which lies
  in [-2^k, 2^k) even for p = 2^(2k), and takes the same +m.

channel_op runs these kernels, for any width.  rns_op runs them fused,
as one straight-line block per op over the set's channels of widths n,
2n and 2n; the per-kind kernels are the reference its tests check it
against.  rns_op trusts operands stamped with its set (see
core.ResidueVector); others pass _check_origin, then channel_op's
operand-then-op check per channel.  It stamps its result with the set.

rotl_mod_pow2_minus1 and neg_mod_pow2_minus1 state two bit tricks:
multiplying by 2^p modulo 2^k - 1 is a circular left shift of the k-bit
word, and negating modulo 2^k - 1 is the one's complement.  The converter
does not call them; it builds both into the wiring of its summands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from rns3.core import ModuliSet, ResidueVector, _canonical, _check_origin
from rns3.errors import ParameterError, ResidueError

CHANNEL_OPS = ("add", "sub", "mul")


class ChannelKind(Enum):
    POW2 = "pow2"
    POW2_MINUS1 = "pow2_minus1"
    POW2_PLUS1 = "pow2_plus1"


@dataclass(frozen=True)
class ChannelId:
    """One arithmetic channel: a modulus shape plus its width k in bits."""

    kind: ChannelKind
    k: int
    modulus: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.kind, ChannelKind):
            raise ParameterError(
                f"channel kind {self.kind!r} is not a ChannelKind")
        if type(self.k) is not int:
            raise ParameterError(f"channel width {self.k!r} is not an int")
        if self.k < 1:
            raise ParameterError(f"channel width must be >= 1, got {self.k}")
        modulus = 1 << self.k
        if self.kind is ChannelKind.POW2_MINUS1:
            modulus -= 1
        elif self.kind is ChannelKind.POW2_PLUS1:
            modulus += 1
        object.__setattr__(self, "modulus", modulus)  # frozen: set once


def reduce_mod(chan: ChannelId, x: int) -> int:
    """Reduce x >= 0 into [0, modulus) using chunk folds."""
    if not isinstance(chan, ChannelId):
        raise ParameterError(f"expected a ChannelId, got {chan!r}")
    if type(x) is not int:
        raise ParameterError(f"reduce_mod expects an int, got {x!r}")
    if x < 0:
        raise ParameterError("reduce_mod expects a non-negative value")
    k = chan.k
    mask = (1 << k) - 1
    if chan.kind is ChannelKind.POW2:
        return x & mask
    if chan.kind is ChannelKind.POW2_MINUS1:
        while x > mask:
            x = (x & mask) + (x >> k)
        return 0 if x == mask else x
    # 2^k + 1: chunk i weighs (-1)^i; the short alternating sum is
    # canonicalized with one small modulo at the end.
    acc = 0
    sign = 1
    while x:
        acc += sign * (x & mask)
        x >>= k
        sign = -sign
    return acc % (mask + 2)


# The kernels: op, one of CHANNEL_OPS, on canonical a, b of the channel
# of width k and modulus m.

def _pow2_op(k: int, m: int, op: str, a: int, b: int) -> int:
    if op == "mul":
        t = a * b
    elif op == "add":
        t = a + b
    else:
        t = a - b
    return t & (m - 1)


def _pow2_minus1_op(k: int, m: int, op: str, a: int, b: int) -> int:
    if op == "mul":
        t = a * b  # below 2^(2k): two folds
        t = (t & m) + (t >> k)
    elif op == "add":
        t = a + b
    else:
        t = a - b + m  # a plus the one's complement of b
    t = (t & m) + (t >> k)
    return 0 if t == m else t


def _pow2_plus1_op(k: int, m: int, op: str, a: int, b: int) -> int:
    if op == "mul":
        t = a * b  # at most 2^(2k), so t >> k is at most 2^k
        t = (t & (m - 2)) - (t >> k)
    elif op == "add":
        t = a + b - m
    else:
        t = a - b
    return t + m if t < 0 else t


_KERNELS = {
    ChannelKind.POW2: _pow2_op,
    ChannelKind.POW2_MINUS1: _pow2_minus1_op,
    ChannelKind.POW2_PLUS1: _pow2_plus1_op,
}


def _check_operand(v, m: int, name: str = "operand") -> None:
    if type(v) is not int:
        raise ResidueError(f"{name} {v!r} is not an int")
    if not 0 <= v < m:
        raise ResidueError(f"{name} {v} out of range for modulus {m}")


def _check_channel(m: int, op: str, a, b) -> None:
    """Check one channel's operands, then op: the order every caller keeps."""
    _check_operand(a, m)
    _check_operand(b, m)
    if op not in CHANNEL_OPS:
        raise ParameterError(f"unknown channel op {op!r}")


def channel_op(chan: ChannelId, op: str, a: int, b: int) -> int:
    """Apply add/sub/mul to two canonical residues of one channel."""
    if not isinstance(chan, ChannelId):
        raise ParameterError(f"expected a ChannelId, got {chan!r}")
    m = chan.modulus
    _check_channel(m, op, a, b)
    return _KERNELS[chan.kind](chan.k, m, op, a, b)


def rns_op(ms: ModuliSet, op: str, a: ResidueVector, b: ResidueVector) -> ResidueVector:
    """Component-wise arithmetic on two residue vectors of the same set."""
    try:
        checked = a._set is ms and b._set is ms  # both canonical for ms
    except AttributeError:  # not a vector; _check_origin raises
        checked = False
    if not checked:
        _check_origin(ms, a)
        _check_origin(ms, b)
        for m, u, v in zip(ms.moduli(), a.astuple(), b.astuple()):
            _check_channel(m, op, u, v)
    a1, a2, a3 = a.r1, a.r2, a.r3
    b1, b2, b3 = b.r1, b.r2, b.r3
    m1, m2, m3 = ms.m1, ms.m2, ms.m3
    # The three kernels, fused for widths n, w and w: the 2^w - 1 channel
    # shares one fold after every op, and m3 - 2 == m2 is the w-bit mask of
    # the 2^w + 1 channel's product fold.
    w = 2 * ms.n
    if op == "mul":
        t1 = a1 * b1
        t2 = a2 * b2
        t2 = (t2 & m2) + (t2 >> w)
        t3 = a3 * b3
        t3 = (t3 & m2) - (t3 >> w)
    elif op == "add":
        t1 = a1 + b1
        t2 = a2 + b2
        t3 = a3 + b3 - m3
    elif op == "sub":
        t1 = a1 - b1
        t2 = a2 - b2 + m2
        t3 = a3 - b3
    else:
        raise ParameterError(f"unknown channel op {op!r}")
    t2 = (t2 & m2) + (t2 >> w)
    return _canonical(ms, t1 & (m1 - 1), 0 if t2 == m2 else t2,
                      t3 + m3 if t3 < 0 else t3)


def rotl_mod_pow2_minus1(v: int, k: int, p: int) -> int:
    """v * 2^p mod (2^k - 1), computed as a circular left shift by p.

    Bit j of the k-bit word moves to position (j + p) mod k; no adder is
    involved, which is why the converter can absorb all coefficient
    multiplications into wiring.
    """
    if type(k) is not int or k < 1 or type(p) is not int:
        raise ParameterError(f"need an int width >= 1 and an int shift count, "
                             f"got {k!r} and {p!r}")
    mask = (1 << k) - 1
    _check_operand(v, mask, "value")
    if p < 0:
        raise ParameterError("shift count must be >= 0")
    p %= k
    return ((v << p) & mask) | (v >> (k - p))


def neg_mod_pow2_minus1(v: int, k: int) -> int:
    """-v mod (2^k - 1) via one's complement; all-ones canonicalizes to 0."""
    if type(k) is not int or k < 1:
        raise ParameterError(f"need an int width >= 1, got {k!r}")
    mask = (1 << k) - 1
    _check_operand(v, mask, "value")
    c = v ^ mask
    return 0 if c == mask else c
