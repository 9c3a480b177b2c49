"""The three-channel moduli set {2^n, 2^(2n)-1, 2^(2n)+1}.

For a size parameter n the set spans the dynamic range
M = 2^n * (2^(4n) - 1), and the reconstruction weights have closed forms:

    mhat1 = 2^(4n) - 1           inv1 = 2^n - 1
    mhat2 = 2^n * (2^(2n) + 1)   inv2 = 2^(n-1)
    mhat3 = 2^n * (2^(2n) - 1)   inv3 = 2^(n-1)

n fixes all of these, so a set is its n: ModuliSet(n) derives every
other value and compares, hashes and prints by n alone.

forward_convert splits an integer X < 2^(5n) into three 2n-bit chunks
lo, mid and hi; since 2^(2n) is 1 modulo 2^(2n)-1 and -1 modulo
2^(2n)+1, the residues are the chunk sums lo + mid + hi and lo - mid + hi,
each brought into range in a fixed number of steps.  crt_reconstruct is
the weighted-sum decoder used as the correctness oracle for the bit-level
converter; it applies the weights above as shifts and rotations, with no
multiplication or division, and stays independent of the library because
a test pins it to a textbook CRT that calls no rns3 code.  Everything is
arbitrary precision, but n is capped at MAX_N (see there).

forward_convert reads its masks and widths from the set, which derives
them once (see ModuliSet), and builds the vector it returns stamped with
the set: four plain slot stores into a _Blank, which then becomes a
ResidueVector.  The two hot kernels, rns_op and reverse_convert,
trust a vector by its set stamp alone (see ResidueVector); every other
vector, and every vector that crt_reconstruct decodes, passes
validate_residues, which checks its set, then each residue in turn.
"""

from __future__ import annotations

import functools
import math
from dataclasses import FrozenInstanceError, dataclass

from rns3.errors import (OutOfRangeError, ParameterError, ResidueError, _check_int,
                          _check_residue, _shown)


# The largest n a set accepts, checked before any shift: an n near 10^9
# would allocate gigabytes, or 2^70 overflow, unchecked.
MAX_N = 1 << 16

# The widest word, or channel, that BitWord, ChannelId and the 2^k - 1 bit
# tricks accept, checked before any shift.  It admits every word the
# library builds: the cost model's 4n-bit summands up to n = 2^20
# (costs.MAX_SIZE) and decode_trace's 5n-bit X up to n = MAX_N.
MAX_WIDTH = 1 << 22


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self.__match_args__])


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self):
    return hash(_values(self))


def _repr(self):
    shown = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({', '.join(shown)})"


def _refuse_set(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_del(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _getstate(self):
    return {name: getattr(self, name) for name in self.__match_args__}


def _setstate(self, state):
    self.__init__(*map(state.get, self.__match_args__))


def _record(cls):
    """cls as a frozen dataclass with its own __init__ and the methods above:
    a pickle or copy holds the fields alone, and loads through __init__.
    A decorator, not a base class: ResidueVector keeps the layout _Blank copies."""
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_del
    cls.__getstate__, cls.__setstate__ = _getstate, _setstate
    return dataclass(init=False, repr=False, eq=False)(cls)


@_record
class ModuliSet:
    """The moduli set of size 1 <= n <= MAX_N: n is its only field.

    ModuliSet(n) checks n and derives the rest once, as plain
    attributes, not fields: the moduli, M and the weights of the module
    docstring, and the masks and shift amounts that rns_op,
    forward_convert and reverse_convert read, so that they compute none
    per call:

        pow2_mask    2^n - 1        the 2^n channel: r1, and X's low bits
        chan_bits    2n             the width of the 2^(2n) +- 1 channels
        word_mask    2^(4n) - 1     the converter's word
        word_bits    4n             its width: the end-around carry's shift
        low_mask     2^(n+1) - 1    the low n+1 residue bits
        shift_3n     3n             r1's place in the summand S1'
        shift_3n_m1  3n - 1         the rotations of r2 and r3 in the
        shift_n_m1   n - 1          summands: left by 3n - 1 or n - 1,
        shift_n_p1   n + 1          and the bits above n wrapped to bit 0

    So a set is its n: ==, hash and repr read n alone, replace(ms, n=k)
    is the set of k, and replace() refuses a derived name with TypeError;
    a pickle or copy carries n alone and loads as the shared set of
    make_moduli_set, so no derived value is trusted from outside.
    channels() builds the channel ids on call.  Sets are frozen, and
    make_moduli_set shares one per n.
    """

    n: int

    def __init__(self, n: int) -> None:
        _check_int(n, "set parameter n", 1, MAX_N)
        m1, m2, m3 = 1 << n, (1 << 2 * n) - 1, (1 << 2 * n) + 1
        mhat1 = (1 << 4 * n) - 1  # = m2 * m3; every M // m_i is a shift
        for name, value in dict(
                n=n, m1=m1, m2=m2, m3=m3, M=mhat1 << n,
                mhat1=mhat1, mhat2=m3 << n, mhat3=m2 << n,
                inv1=m1 - 1, inv2=1 << (n - 1), inv3=1 << (n - 1),
                pow2_mask=(1 << n) - 1, chan_bits=2 * n,
                word_mask=(1 << 4 * n) - 1, word_bits=4 * n,
                low_mask=(1 << n + 1) - 1, shift_3n=3 * n,
                shift_3n_m1=3 * n - 1, shift_n_m1=n - 1, shift_n_p1=n + 1,
        ).items():  # one store each: vars(self) would slow the kernels' reads
            object.__setattr__(self, name, value)  # frozen: set once, here

    def __reduce__(self):
        return (make_moduli_set, (self.n,))

    def moduli(self) -> tuple[int, int, int]:
        return (self.m1, self.m2, self.m3)

    def channels(self) -> tuple:
        """The three channels as channels.ChannelId, in the order of moduli()."""
        # Imported on call, so that loading core does not load channels:
        # only verify --exhaustive calls this, to name a failing channel.
        from rns3.channels import ChannelId, ChannelKind

        n = self.n
        return (ChannelId(ChannelKind.POW2, n),
                ChannelId(ChannelKind.POW2_MINUS1, 2 * n),
                ChannelId(ChannelKind.POW2_PLUS1, 2 * n))


_UNSTAMPED = object()  # not None, which a bad set argument could be


@_record
class ResidueVector:
    """Canonical residue triple; bit j of a residue weighs 2^j.

    A vector that forward_convert or rns_op returns carries a private
    stamp: the ModuliSet its residues were made canonical for.  Those two
    kernels are the only places that stamp a vector; each builds its
    result as a _Blank (below), four plain slot stores (r1, r2, r3, _set),
    then retypes it to ResidueVector, with no __init__ frame.
    rns_op and reverse_convert trust a vector stamped with the set they
    are given; every entry point rejects one stamped with a set of another
    n, and checks any other vector in full.  The stamp is not a field, so
    fields(), repr, ==, hash and dataclasses.replace ignore it; a vector
    built by hand, and every replace(), copy and unpickled vector, holds
    _UNSTAMPED.

    The four values live in slots, with no instance __dict__, so field
    reads are plain slot reads: vars(rv) raises TypeError, and a vector
    cannot be weakly referenced.
    """

    __slots__ = ("r1", "r2", "r3", "_set")

    r1: int
    r2: int
    r3: int

    def __init__(self, r1: int, r2: int, r3: int) -> None:
        object.__setattr__(self, "r1", r1)  # frozen: set once, here
        object.__setattr__(self, "r2", r2)
        object.__setattr__(self, "r3", r3)
        object.__setattr__(self, "_set", _UNSTAMPED)  # built by hand

    def astuple(self) -> tuple[int, int, int]:
        return (self.r1, self.r2, self.r3)


# The kernels' builder: a mutable twin of ResidueVector, with its slots but
# not its frozen __setattr__, so a store is a plain slot store, not a slot
# descriptor call (about 60 ns each).  A kernel stores all four slots, none
# of which can raise, then retypes it to ResidueVector: no _Blank escapes.
class _Blank:
    __slots__ = ResidueVector.__slots__


def make_moduli_set(n: int) -> ModuliSet:
    """The validated moduli set for size parameter 1 <= n <= MAX_N.

    Sets are frozen and shared, one per n: the sets of the 16 sizes used
    last are kept, so a repeated call returns the same object, built once.
    """
    # Checked before the cache lookup, which would raise TypeError, not
    # ParameterError, for an unhashable n such as [1].
    _check_int(n, "set parameter n", 1, MAX_N)
    return _moduli_set(n)


_moduli_set = functools.lru_cache(maxsize=16)(ModuliSet)


def pairwise_coprime(values: list[int]) -> bool:
    """True iff every pair of values has gcd 1."""
    if not isinstance(values, (list, tuple)):
        raise ParameterError(f"expected a list of ints, got {_shown(values)}")
    if not values:
        raise ParameterError("need at least one value")
    if any(type(v) is not int for v in values):
        raise ParameterError(f"values must be ints, got {_shown(values)}")
    if any(v < 1 for v in values):
        raise ParameterError("values must be >= 1")
    return all(
        math.gcd(a, b) == 1
        for i, a in enumerate(values)
        for b in values[i + 1:]
    )


def validate_residues(ms: ModuliSet, rv: ResidueVector) -> None:
    """Raise an RnsError unless ms is a ModuliSet and rv a ResidueVector,
    not stamped with a set of another n, whose residues are canonical."""
    if not isinstance(ms, ModuliSet):
        raise ParameterError(f"expected a ModuliSet, got {_shown(ms)}")
    if not isinstance(rv, ResidueVector):
        raise ResidueError(f"expected a ResidueVector, got {_shown(rv)}")
    stamp = rv._set  # the ranges of a smaller set nest in ours, unseen below
    if stamp is not _UNSTAMPED and stamp.n != ms.n:
        raise ResidueError(f"the vector was built for the set of n={stamp.n}, "
                           f"not for n={ms.n}")
    _check_residue(rv.r1, ms.m1, "R1=")
    _check_residue(rv.r2, ms.m2, "R2=")
    _check_residue(rv.r3, ms.m3, "R3=")


def forward_convert(ms: ModuliSet, x: int) -> ResidueVector:
    """Split x in [0, M) into its canonical residue triple."""
    if type(x) is not int:
        raise OutOfRangeError(f"X must be an int, got {_shown(x)}")
    if x < 0:
        raise OutOfRangeError("X must be >= 0")
    try:
        M = ms.M
    except AttributeError:
        raise ParameterError(f"expected a ModuliSet, got {_shown(ms)}") from None
    if x >= M:
        raise OutOfRangeError(f"X must be < {_shown(M)}")
    w, m2, m3 = ms.chan_bits, ms.m2, ms.m3
    lo, mid, hi = x & m2, (x >> w) & m2, x >> ms.word_bits  # hi < 2^n
    r2 = lo + mid + hi  # below 3 * 2^w: two end-around folds
    r2 = (r2 & m2) + (r2 >> w)
    r2 = (r2 & m2) + (r2 >> w)
    r3 = lo - mid + hi  # in (-m3, 2 * m3): one conditional +-m3
    if r3 < 0:
        r3 += m3
    elif r3 >= m3:
        r3 -= m3
    rv = _Blank()  # stamped, then retyped: see ResidueVector
    rv.r1 = x & ms.pow2_mask
    rv.r2 = 0 if r2 == m2 else r2
    rv.r3 = r3
    rv._set = ms
    rv.__class__ = ResidueVector
    return rv


def crt_reconstruct(ms: ModuliSet, rv: ResidueVector) -> int:
    """The unique X in [0, M) with the given residues, by weighted sum.

    X = sum of mhat_i * |inv_i * r_i|_{m_i} modulo M, with every product
    taken in closed form: t1 = -r1 mod 2^n, t2 is r2 rotated left by n - 1
    in 2n bits, t3 is r3 << n - 1 folded once modulo 2^(2n) + 1, and the
    mhats are shifts.  Each term is below M, so the sum is below 3M.

    As the oracle that the stamping kernels are checked against, it trusts
    no stamp: every vector passes validate_residues.
    """
    validate_residues(ms, rv)
    r1, r2, r3 = rv.r1, rv.r2, rv.r3
    n, m2, M = ms.n, ms.m2, ms.M
    t1 = -r1 & (ms.m1 - 1)
    t2 = ((r2 << n - 1) & m2) | (r2 >> n + 1)
    t3 = r3 << n - 1
    t3 = (t3 & m2) - (t3 >> 2 * n)  # 2^(2n) is -1 modulo m3
    if t3 < 0:
        t3 += ms.m3
    x = (t1 << 4 * n) - t1 + ((t2 + t3) << 3 * n) + ((t2 - t3) << n)
    if x >= M:
        x -= M
        if x >= M:
            x -= M
    return x


def inverse_constants(ms: ModuliSet) -> tuple[int, int, int]:
    """The closed-form weights (2^n - 1, 2^(n-1), 2^(n-1)), re-verified."""
    if not isinstance(ms, ModuliSet):
        raise ParameterError(f"expected a ModuliSet, got {_shown(ms)}")
    for mhat, inv, m in ((ms.mhat1, ms.inv1, ms.m1),
                         (ms.mhat2, ms.inv2, ms.m2),
                         (ms.mhat3, ms.inv3, ms.m3)):
        if mhat * inv % m != 1:
            raise ParameterError(f"weight {_shown(inv)} is not the inverse of "
                                 f"{_shown(mhat)} modulo {_shown(m)}")
    return (ms.inv1, ms.inv2, ms.inv3)
