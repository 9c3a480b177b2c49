"""Carry-free arithmetic in the channel moduli 2^k, 2^k - 1 and 2^k + 1.

rns_op is the kernel: add, sub or mul on two residue vectors, one
straight-line block per op over the set's channels of widths n, 2n and
2n.  Canonical operands bound each raw result (a sum or difference lies
within one modulus of the range, a product in a 2n-bit channel is at
most 2^(4n)), so every channel finishes in a fixed number of steps,
without a loop or a division:

- 2^n: one mask.
- 2^(2n) - 1: one end-around fold after add or sub, two after mul (the
  first fold leaves at most 2n + 1 bits); the all-ones word, the alias
  of zero, becomes 0.
- 2^(2n) + 1: a + b - m and a - b lie in [-m, m), so one conditional +m
  finishes them; a product p becomes (p mod 2^(2n)) - (p >> 2n), which
  lies in [-2^(2n), 2^(2n)) even for p = 2^(4n), and takes the same +m.

rns_op reads its masks and the width 2n from the set, which derives them
once (see core.ModuliSet).  It trusts operands stamped with its set (see
core.ResidueVector); others pass core.validate_residues, a in full, then
b, and the kernel's own branch on op then refuses an unknown op.  It
builds its result stamped with the set, by four plain slot stores into
a core._Blank that then becomes a ResidueVector (see core.ResidueVector).

channel_op and reduce_mod are the plain references, for one channel of
any width: they check their arguments, then reduce with Python's %.
They share no arithmetic with rns_op or core.forward_convert, which the
tests check against them.

rotl_mod_pow2_minus1 and neg_mod_pow2_minus1 state two bit tricks:
multiplying by 2^p modulo 2^k - 1 is a circular left shift of the k-bit
word, and negating modulo 2^k - 1 is the one's complement.  The converter
does not call them; it builds both into the wiring of its summands.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from rns3.core import MAX_WIDTH, ModuliSet, ResidueVector, _Blank, validate_residues
from rns3.errors import ParameterError, _check_int, _check_residue, _shown

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

    def __post_init__(self):
        if not isinstance(self.kind, ChannelKind):
            raise ParameterError(
                f"channel kind {_shown(self.kind)} is not a ChannelKind")
        _check_int(self.k, "channel width", 1, MAX_WIDTH)
        modulus = 1 << self.k
        if self.kind is ChannelKind.POW2_MINUS1:
            modulus -= 1
        elif self.kind is ChannelKind.POW2_PLUS1:
            modulus += 1
        object.__setattr__(self, "modulus", modulus)  # frozen: set once


def reduce_mod(chan: ChannelId, x: int) -> int:
    """x >= 0 reduced into [0, modulus) by Python's %."""
    if not isinstance(chan, ChannelId):
        raise ParameterError(f"expected a ChannelId, got {_shown(chan)}")
    _check_int(x, "x", 0)
    return x % chan.modulus


def channel_op(chan: ChannelId, op: str, a: int, b: int) -> int:
    """add/sub/mul of two canonical residues of one channel, by Python's %."""
    if not isinstance(chan, ChannelId):
        raise ParameterError(f"expected a ChannelId, got {_shown(chan)}")
    m = chan.modulus
    _check_residue(a, m, "operand ")
    _check_residue(b, m, "operand ")
    if op not in CHANNEL_OPS:
        raise ParameterError(f"unknown channel op {_shown(op)}")
    if op == "mul":
        return a * b % m
    return (a + b if op == "add" else a - b) % m


def rns_op(ms: ModuliSet, op: str, a: ResidueVector, b: ResidueVector) -> ResidueVector:
    """Component-wise arithmetic on two residue vectors of the same set."""
    try:
        checked = a._set is ms and b._set is ms  # both canonical for ms
    except AttributeError:  # not a vector; validate_residues raises
        checked = False
    if not checked:  # a in full, then b; the kernel below checks op
        validate_residues(ms, a)
        validate_residues(ms, b)
    a1, a2, a3 = a.r1, a.r2, a.r3
    b1, b2, b3 = b.r1, b.r2, b.r3
    m2, m3, w = ms.m2, ms.m3, ms.chan_bits
    # The three channels in one block, of widths n, w and w: the 2^w - 1
    # channel shares one fold after every op, and m3 - 2 == m2 is the w-bit
    # mask of the 2^w + 1 channel's product fold.
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
        raise ParameterError(f"unknown channel op {_shown(op)}")
    t2 = (t2 & m2) + (t2 >> w)
    rv = _Blank()  # stamped, then retyped: see core.ResidueVector
    rv.r1 = t1 & ms.pow2_mask
    rv.r2 = 0 if t2 == m2 else t2
    rv.r3 = t3 + m3 if t3 < 0 else t3
    rv._set = ms
    rv.__class__ = ResidueVector
    return rv


def rotl_mod_pow2_minus1(v: int, k: int, p: int) -> int:
    """v * 2^p mod (2^k - 1), computed as a circular left shift by p.

    Bit j of the k-bit word moves to position (j + p) mod k; no adder is
    involved, which is why the converter can absorb all coefficient
    multiplications into wiring.
    """
    _check_int(k, "width", 1, MAX_WIDTH)
    _check_int(p, "shift count", 0)
    mask = (1 << k) - 1
    _check_residue(v, mask, "value ")
    p %= k
    return ((v << p) & mask) | (v >> (k - p))


def neg_mod_pow2_minus1(v: int, k: int) -> int:
    """-v mod (2^k - 1) via one's complement; all-ones canonicalizes to 0."""
    _check_int(k, "width", 1, MAX_WIDTH)
    mask = (1 << k) - 1
    _check_residue(v, mask, "value ")
    c = v ^ mask
    return 0 if c == mask else c
