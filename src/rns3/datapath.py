"""The staged reference datapath of rns3.converter, loaded on first use.

rns3.converter forwards these names and imports this module on the first
read of one, so a process that only encodes and decodes never compiles
it; decode --trace, verify's lemma check and the gate census load it.

LAYOUTS is the operand wiring, written once: the layout functions
evaluate its rows through _wired, and the gate census of rns3.costs
reads them.  Modulo 2^(4n)-1 the rows are -2^(3n)*r1 (s1),
(2^(3n-1)+2^(n-1))*r2 (s2), 2^(3n-1)*r3 (s31), -2^(n-1)*r3 (s32) and
s1 + s32 (s1_prime), as shifts are rotations and negations complements;
the all-ones word left over is congruent to zero, so one carry-save
level over s1_prime, s2 and s31 suffices.  BitWord holds only the words
that prepare_operands, csa_eac and decode_trace return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from rns3.core import MAX_WIDTH, ModuliSet, ResidueVector, _setstate, validate_residues
from rns3.errors import ParameterError, _check_int, _shown


@dataclass(frozen=True)
class BitWord:
    """Fixed-width unsigned word; bit j of value weighs 2^j."""

    value: int
    width: int
    __setstate__ = _setstate  # a pickle or copy passes __post_init__

    def __post_init__(self):
        _check_int(self.value, "value", 0)
        _check_int(self.width, "width", 0, MAX_WIDTH)
        if self.value >> self.width:
            raise ParameterError(
                f"value {_shown(self.value)} does not fit in "
                f"{_shown(self.width)} bits")

    def to_binary(self) -> str:
        """MSB-first bit string, exactly width characters."""
        return format(self.value, f"0{self.width}b") if self.width else ""


# One row per summand: (complemented, fields), fields(n) MSB first, each
# (residue, low, width) for the bits [low, low + width) of r1, r2 or r3,
# or zeros for residue 0; the fillers of a complemented row are ones.
LAYOUTS = {
    "s1": (True, lambda n: ((1, 0, n), (0, 0, 3 * n))),
    "s2": (False, lambda n: ((2, 0, n + 1), (2, 0, 2 * n), (2, n + 1, n - 1))),
    "s31": (False, lambda n: ((3, 0, n + 1), (0, 0, 2 * n - 1), (3, n + 1, n))),
    "s32": (True, lambda n: ((0, 0, n), (3, 0, 2 * n + 1), (0, 0, n - 1))),
    "s1_prime": (True, lambda n: ((1, 0, n), (3, 0, 2 * n + 1), (0, 0, n - 1))),
}


def _wired(n: int, name: str, r1: int = 0, r2: int = 0, r3: int = 0) -> int:
    """Row name of LAYOUTS at size n as one 4n-bit int."""
    complemented, fields = LAYOUTS[name]
    residues, value = (0, r1, r2, r3), 0
    for residue, low, w in fields(n):
        bits = residues[residue] >> low if low else residues[residue]  # no copy
        value = value << w | bits & ((1 << w) - 1)
    return value ^ ((1 << 4 * n) - 1) if complemented else value


def r1_summand(n: int, r1: int) -> int:
    """Complemented r1 over an all-ones tail: -2^(3n)*r1 mod 2^(4n)-1."""
    return _wired(n, "s1", r1=r1)


def r2_summand(n: int, r2: int) -> int:
    """Both rotations of r2 in one word: (2^(3n-1) + 2^(n-1)) * r2.

    The two rotated copies occupy disjoint bit positions, so their sum is
    plain concatenation and costs no adder.
    """
    return _wired(n, "s2", r2=r2)


def r3_rot_summand(n: int, r3: int) -> int:
    """r3 rotated left by 3n-1: +2^(3n-1)*r3 mod 2^(4n)-1."""
    return _wired(n, "s31", r3=r3)


def r3_comp_summand(n: int, r3: int) -> int:
    """Complemented, rotated r3 between ones fillers: -2^(n-1)*r3."""
    return _wired(n, "s32", r3=r3)


def merged_summand(n: int, r1: int, r3: int) -> int:
    """r1_summand and r3_comp_summand folded into a single word.

    The ones tail of the first summand and the ones fillers of the second
    are swapped so that all the ones collect in one word (congruent to
    zero) and the residue bits collect here.
    """
    return _wired(n, "s1_prime", r1=r1, r3=r3)


@dataclass(frozen=True)
class OperandSet:
    """The three 4n-bit summands fed to the carry-save stage."""

    s1_prime: BitWord
    s2: BitWord
    s31: BitWord

    @property
    def width(self) -> int:
        return self.s1_prime.width


def prepare_operands(ms: ModuliSet, rv: ResidueVector) -> OperandSet:
    """Assemble the three summands; the fourth collapses to all-ones == 0."""
    validate_residues(ms, rv)
    n, w = ms.n, ms.word_bits
    return OperandSet(BitWord(merged_summand(n, rv.r1, rv.r3), w),
                      BitWord(r2_summand(n, rv.r2), w),
                      BitWord(r3_rot_summand(n, rv.r3), w))


def csa_eac(a: BitWord, b: BitWord, c: BitWord) -> tuple[BitWord, BitWord]:
    """One carry-save level with the MSB carry wrapped around to bit 0.

    Returns (sum, carry) with a + b + c == sum + carry (mod 2^width - 1).
    """
    if not all(isinstance(w, BitWord) for w in (a, b, c)):
        raise ParameterError("csa_eac operands must be BitWords")
    if not a.width == b.width == c.width:
        raise ParameterError("csa_eac operands must share one width")
    w, mask = a.width, (1 << a.width) - 1
    a, b, c = a.value, b.value, c.value
    carry = ((a & b) | (a & c) | (b & c)) << 1  # its MSB wraps to bit 0
    return BitWord(a ^ b ^ c, w), BitWord((carry & mask) | (carry >> w), w)


def mod_add_end_around(a: BitWord, b: BitWord) -> int:
    """(a + b) mod 2^width - 1, canonical: the all-ones pattern becomes 0."""
    if not (isinstance(a, BitWord) and isinstance(b, BitWord)):
        raise ParameterError("mod_add_end_around operands must be BitWords")
    if a.width != b.width:
        raise ParameterError("mod_add_end_around operands must share one width")
    w, mask = a.width, (1 << a.width) - 1
    t = a.value + b.value
    t = (t & mask) + (t >> w)  # one end-around carry; t was < 2^(w+1)
    return 0 if t == mask else t


class DecodeTrace(NamedTuple):
    """Every named intermediate of one reverse conversion."""

    s1_prime: BitWord
    s2: BitWord
    s31: BitWord
    sum: BitWord    # CSA-EAC sum word
    carry: BitWord  # CSA-EAC carry word, already rotated
    y: BitWord      # floor(X / 2^n), the end-around sum
    x: BitWord      # Y concatenated with r1


def decode_trace(ms: ModuliSet, rv: ResidueVector) -> DecodeTrace:
    """reverse_convert stage by stage, with its intermediates kept as words.

    It runs prepare_operands, csa_eac and mod_add_end_around in turn, so
    it is the staged reference of reverse_convert's fused kernel.
    """
    ops = prepare_operands(ms, rv)
    s, carry = csa_eac(ops.s1_prime, ops.s2, ops.s31)
    y = BitWord(mod_add_end_around(s, carry), ops.width)
    return DecodeTrace(ops.s1_prime, ops.s2, ops.s31, s, carry, y,
                       x=BitWord(y.value << ms.n | rv.r1, 5 * ms.n))
