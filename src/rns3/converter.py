"""Bit-level residue-to-binary converter.

The decoder mirrors the hardware datapath.  An operand-preparation stage
assembles three 4n-bit summands out of residue bits (inverters and wiring
only), one carry-save adder with end-around carry compresses them to a
sum/carry pair, and a final modulo 2^(4n)-1 addition yields
Y = floor(X / 2^n).  X is then the concatenation of Y with r1.

reverse_convert runs the datapath as one fused kernel on plain integers,
reading its masks and shift amounts from the ModuliSet, which derives
them once.  decode_trace runs it through the public stage functions
(prepare_operands, which calls the summand layouts, csa_eac and
mod_add_end_around) and keeps every intermediate as a BitWord; that
staged path is the reference the fused kernel is tested against.

Only reverse_convert is defined here.  The staged path, from BitWord to
decode_trace, and the summand layouts it wires are in rns3.datapath,
which loads on the first read of one of its names from this module (the
name is then bound here), so a process that only encodes and decodes
never compiles it.
"""

from __future__ import annotations

from rns3.core import ModuliSet, ResidueVector, validate_residues

# The staged path's names, defined in rns3.datapath.  Listed, not tried,
# so that other reads (an import probes __path__) leave it unloaded.
_DATAPATH = frozenset((
    "BitWord", "DecodeTrace", "OperandSet", "_wired", "csa_eac",
    "decode_trace", "merged_summand", "mod_add_end_around",
    "prepare_operands", "r1_summand", "r2_summand", "r3_comp_summand",
    "r3_rot_summand"))


def reverse_convert(ms: ModuliSet, rv: ResidueVector) -> int:
    """Residues to integer, bit for bit as the adder datapath computes it.

    The summand layouts, csa_eac and mod_add_end_around inlined into one
    kernel on plain integers, with no call or intermediate word;
    decode_trace runs them staged and is its reference.
    """
    try:
        checked = rv._set is ms  # stamped with ms: canonical for it
    except AttributeError:  # not a vector; validate_residues raises
        checked = False
    if not checked:
        validate_residues(ms, rv)
    r1, r2, r3 = rv.r1, rv.r2, rv.r3
    mask, low, k = ms.word_mask, ms.low_mask, ms.word_bits
    s3n, s3n_m1 = ms.shift_3n, ms.shift_3n_m1
    sn_m1, sn_p1 = ms.shift_n_m1, ms.shift_n_p1
    a = mask ^ ((r1 << s3n) | (r3 << sn_m1))                        # S1'
    b = ((r2 & low) << s3n_m1) | (r2 << sn_m1) | (r2 >> sn_p1)     # S2
    c = ((r3 & low) << s3n_m1) | (r3 >> sn_p1)                     # S31
    carry = ((a & b) | (a & c) | (b & c)) << 1
    # Rotate the carry word (its MSB wraps to bit 0) onto the parity word.
    t = (a ^ b ^ c) + ((carry & mask) | (carry >> k))
    t = (t & mask) + (t >> k)  # one end-around carry; t was < 2^(4n+1)
    return (0 if t == mask else t) << ms.n | r1  # X = Y * 2^n + r1


def __getattr__(name):
    if name not in _DATAPATH:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    from rns3 import datapath

    value = globals()[name] = getattr(datapath, name)  # later reads skip this
    return value
