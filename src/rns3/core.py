"""The three-channel moduli set {2^n, 2^(2n)-1, 2^(2n)+1}.

For a size parameter n the set spans the dynamic range
M = 2^n * (2^(4n) - 1), and the reconstruction weights have closed forms:

    mhat1 = 2^(4n) - 1           inv1 = 2^n - 1
    mhat2 = 2^n * (2^(2n) + 1)   inv2 = 2^(n-1)
    mhat3 = 2^n * (2^(2n) - 1)   inv3 = 2^(n-1)

forward_convert splits an integer X < 2^(5n) into three 2n-bit chunks
lo, mid and hi; since 2^(2n) is 1 modulo 2^(2n)-1 and -1 modulo
2^(2n)+1, the residues are the chunk sums lo + mid + hi and lo - mid + hi,
each brought into range in a fixed number of steps.  crt_reconstruct is
the weighted-sum decoder used as the correctness oracle for the bit-level
converter; it applies the weights above as shifts and rotations, with no
multiplication or division, and stays independent of the library because
a test pins it to a textbook CRT that calls no rns3 code.  Everything is
arbitrary precision, so n is unbounded.

A vector is trusted by its set stamp alone (see ResidueVector); any other
vector passes _check_origin, then a check of each residue in turn.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from rns3.errors import OutOfRangeError, ParameterError, ResidueError

if TYPE_CHECKING:
    from rns3.channels import ChannelId


def _derived():
    return field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class ModuliSet:
    """Moduli, dynamic range and reconstruction weights for one size n.

    The reverse converter's masks are derived from n once, here, so the
    hot path only reads them; channels() builds the channel ids on call.
    Sets are frozen, and make_moduli_set shares one per n.
    """

    n: int
    m1: int
    m2: int
    m3: int
    M: int
    mhat1: int
    mhat2: int
    mhat3: int
    inv1: int
    inv2: int
    inv3: int
    word_mask: int = _derived()  # 2^(4n) - 1, the converter's word
    low_mask: int = _derived()   # 2^(n+1) - 1, the low n+1 residue bits

    def __post_init__(self):
        n = self.n
        setattr_ = object.__setattr__  # frozen: derived fields are set once
        setattr_(self, "word_mask", (1 << 4 * n) - 1)
        setattr_(self, "low_mask", (1 << n + 1) - 1)

    def moduli(self) -> tuple[int, int, int]:
        return (self.m1, self.m2, self.m3)

    def channels(self) -> tuple[ChannelId, ChannelId, ChannelId]:
        # Imported on call, so that loading core does not load channels:
        # only verify --exhaustive calls this, to name a failing channel.
        from rns3.channels import ChannelId, ChannelKind

        n = self.n
        return (ChannelId(ChannelKind.POW2, n),
                ChannelId(ChannelKind.POW2_MINUS1, 2 * n),
                ChannelId(ChannelKind.POW2_PLUS1, 2 * n))


_UNSTAMPED = object()  # not None, which a bad set argument could be


@dataclass(frozen=True)
class ResidueVector:
    """Canonical residue triple; bit j of a residue weighs 2^j.

    A vector that forward_convert or rns_op returns carries a private
    stamp: the ModuliSet its residues were made canonical for.  The entry
    points trust a vector stamped with the set they are given, and reject
    one stamped with a set of another n; any other vector is checked in
    full.  The stamp is not a field, so fields(), repr, ==, hash and
    dataclasses.replace ignore it, and replace(), copies and pickles
    return unstamped vectors.
    """

    r1: int
    r2: int
    r3: int
    _set = _UNSTAMPED  # the stamp of a vector built by hand; not a field

    def __getstate__(self):
        # The fields without the stamp, so that pickles and copies are
        # the same as those of a vector built by hand.
        return {"r1": self.r1, "r2": self.r2, "r3": self.r3}

    def astuple(self) -> tuple[int, int, int]:
        return (self.r1, self.r2, self.r3)


_new = object.__new__


def _canonical(ms: ModuliSet, r1: int, r2: int, r3: int) -> ResidueVector:
    """A vector of residues already canonical for ms, stamped with ms.

    The one builder of stamped vectors; it runs no __init__ frame.
    """
    rv = _new(ResidueVector)
    d = rv.__dict__
    d["r1"] = r1
    d["r2"] = r2
    d["r3"] = r3
    d["_set"] = ms
    return rv


def _check_origin(ms: ModuliSet, rv) -> None:
    """Raise ParameterError unless ms is a ModuliSet, and ResidueError unless
    rv is a ResidueVector not stamped with a set of another n: the channel
    ranges of a smaller set nest in a larger one's, unseen by range checks."""
    if not isinstance(ms, ModuliSet):
        raise ParameterError(f"expected a ModuliSet, got {ms!r}")
    if not isinstance(rv, ResidueVector):
        raise ResidueError(f"expected a ResidueVector, got {rv!r}")
    stamp = rv._set
    if stamp is not _UNSTAMPED and stamp.n != ms.n:
        raise ResidueError(f"the vector was built for the set of n={stamp.n}, "
                           f"not for n={ms.n}")


def make_moduli_set(n: int) -> ModuliSet:
    """The validated moduli set for size parameter n >= 1.

    Sets are frozen and shared, one per n: the sets of the 16 sizes used
    last are kept, so a repeated call returns the same object, built and
    checked once.
    """
    # Type-check before the cache lookup: True == 1 and the two hash alike.
    if type(n) is not int:
        raise ParameterError(f"set parameter n must be an int, got {n!r}")
    if n < 1:
        raise ParameterError(f"set parameter n must be >= 1, got {n}")
    return _moduli_set(n)


@functools.lru_cache(maxsize=16)
def _moduli_set(n: int) -> ModuliSet:
    m1, m2, m3 = 1 << n, (1 << 2 * n) - 1, (1 << 2 * n) + 1
    mhat1 = (1 << 4 * n) - 1  # = m2 * m3; every M // m_i is a shift
    ms = ModuliSet(
        n=n, m1=m1, m2=m2, m3=m3, M=mhat1 << n,
        mhat1=mhat1, mhat2=m3 << n, mhat3=m2 << n,
        inv1=m1 - 1, inv2=1 << (n - 1), inv3=1 << (n - 1),
    )
    # Failures here are library defects, not user errors; they are checked
    # explicitly so that they also hold under python -O.  A build that
    # raises is not cached.
    if not pairwise_coprime([m1, m2, m3]):
        raise ParameterError(f"moduli {ms.moduli()} are not pairwise coprime")
    _check_weights(ms)
    return ms


def _check_weights(ms: ModuliSet) -> None:
    for mhat, inv, m in ((ms.mhat1, ms.inv1, ms.m1),
                         (ms.mhat2, ms.inv2, ms.m2),
                         (ms.mhat3, ms.inv3, ms.m3)):
        if mhat * inv % m != 1:
            raise ParameterError(
                f"weight {inv} is not the inverse of {mhat} modulo {m}")


def pairwise_coprime(values: list[int]) -> bool:
    """True iff every pair of values has gcd 1."""
    if not isinstance(values, (list, tuple)):
        raise ParameterError(f"expected a list of ints, got {values!r}")
    if not values:
        raise ParameterError("need at least one value")
    if any(type(v) is not int for v in values):
        raise ParameterError(f"values must be ints, got {values!r}")
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
    _check_origin(ms, rv)
    for idx, (r, m) in enumerate(zip(rv.astuple(), ms.moduli()), start=1):
        if type(r) is not int:
            raise ResidueError(f"R{idx}={r!r} is not an int")
        if not 0 <= r < m:
            raise ResidueError(f"R{idx}={r} out of range for modulus {m}")


def forward_convert(ms: ModuliSet, x: int) -> ResidueVector:
    """Split x in [0, M) into its canonical residue triple."""
    if type(x) is not int:
        raise OutOfRangeError(f"X must be an int, got {x!r}")
    if x < 0:
        raise OutOfRangeError("X must be >= 0")
    try:
        M = ms.M
    except AttributeError:
        raise ParameterError(f"expected a ModuliSet, got {ms!r}") from None
    if x >= M:
        raise OutOfRangeError(f"X must be < {M}")
    w, m2, m3 = 2 * ms.n, ms.m2, ms.m3
    lo, mid, hi = x & m2, (x >> w) & m2, x >> 2 * w  # hi < 2^n
    r2 = lo + mid + hi  # below 3 * 2^w: two end-around folds
    r2 = (r2 & m2) + (r2 >> w)
    r2 = (r2 & m2) + (r2 >> w)
    r3 = lo - mid + hi  # in (-m3, 2 * m3): one conditional +-m3
    if r3 < 0:
        r3 += m3
    elif r3 >= m3:
        r3 -= m3
    return _canonical(ms, x & (ms.m1 - 1), 0 if r2 == m2 else r2, r3)


def crt_reconstruct(ms: ModuliSet, rv: ResidueVector) -> int:
    """The unique X in [0, M) with the given residues, by weighted sum.

    X = sum of mhat_i * |inv_i * r_i|_{m_i} modulo M, with every product
    taken in closed form: t1 = -r1 mod 2^n, t2 is r2 rotated left by n - 1
    in 2n bits, t3 is r3 << n - 1 folded once modulo 2^(2n) + 1, and the
    mhats are shifts.  Each term is below M, so the sum is below 3M.
    """
    try:
        checked = rv._set is ms  # stamped with ms: canonical for it
    except AttributeError:  # not a vector; validate_residues raises
        checked = False
    if not checked:
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
        raise ParameterError(f"expected a ModuliSet, got {ms!r}")
    _check_weights(ms)
    return (ms.inv1, ms.inv2, ms.inv3)
