"""The staged reference datapath of rns3.converter, loaded on first use.

rns3.converter forwards these names and imports this module on the first
read of one, so a process that only encodes and decodes never compiles
it; decode --trace, verify's lemma check and the gate census load it.

Summand layouts, MSB first, segment widths in brackets:

    s1_prime = ~r1[n]    | ~r3[2n+1]     | ones[n-1]
    s2       = r2[n..0]  | r2[2n-1..0]   | r2[2n-1..n+1]
    s31      = r3[n..0]  | zeros[2n-1]   | r3[2n..n+1]

Their values modulo 2^(4n)-1 are the three coefficient products
-2^(3n)*r1 - 2^(n-1)*r3, (2^(3n-1)+2^(n-1))*r2 and 2^(3n-1)*r3: shifts
are rotations in this modulus and negations are complements.  s1_prime
folds the r1 word and the complemented-r3 word into one summand; the
leftover filler is the all-ones word, which is congruent to zero, so a
single carry-save level suffices for all three channels.

Each layout function lists its summand's segments as (bits, width)
pairs in the order drawn above, bits[hi..lo] as bits >> lo, and joins
them into one int, the one reference for this wiring.  BitWord holds
only the words that prepare_operands, csa_eac and decode_trace return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from rns3.core import MAX_WIDTH, ModuliSet, ResidueVector, validate_residues
from rns3.errors import ParameterError, _check_int, _shown


@dataclass(frozen=True)
class BitWord:
    """Fixed-width unsigned word; bit j of value weighs 2^j."""

    value: int
    width: int

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


def _wired(*segments: tuple[int, int]) -> int:
    """One word from (bits, width) segments, MSB first: each segment keeps
    the low width bits of its bits, so ~r is r complemented and -1 is
    ones."""
    value = 0
    for bits, w in segments:
        value = value << w | bits & ((1 << w) - 1)
    return value


def r1_summand(n: int, r1: int) -> int:
    """Complemented r1 over an all-ones tail: -2^(3n)*r1 mod 2^(4n)-1."""
    return _wired((~r1, n), (-1, 3 * n))


def r2_summand(n: int, r2: int) -> int:
    """Both rotations of r2 in one word: (2^(3n-1) + 2^(n-1)) * r2.

    The two rotated copies occupy disjoint bit positions, so their sum is
    plain concatenation and costs no adder.
    """
    return _wired((r2, n + 1), (r2, 2 * n), (r2 >> n + 1, n - 1))


def r3_rot_summand(n: int, r3: int) -> int:
    """r3 rotated left by 3n-1: +2^(3n-1)*r3 mod 2^(4n)-1."""
    return _wired((r3, n + 1), (0, 2 * n - 1), (r3 >> n + 1, n))


def r3_comp_summand(n: int, r3: int) -> int:
    """Complemented, rotated r3 between ones fillers: -2^(n-1)*r3."""
    return _wired((-1, n), (~r3, 2 * n + 1), (-1, n - 1))


def merged_summand(n: int, r1: int, r3: int) -> int:
    """r1_summand and r3_comp_summand folded into a single word.

    The ones tail of the first summand and the ones fillers of the second
    are swapped so that all the ones collect in one word (congruent to
    zero) and the residue bits collect here.
    """
    return _wired((~r1, n), (~r3, 2 * n + 1), (-1, n - 1))


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
