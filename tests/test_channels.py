"""Channel reductions, channel/vector arithmetic and the two bit tricks."""

import dataclasses
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rns3 import channels
from rns3.channels import (
    CHANNEL_OPS,
    ChannelId,
    ChannelKind,
    channel_op,
    neg_mod_pow2_minus1,
    reduce_mod,
    rns_op,
    rotl_mod_pow2_minus1,
)
from rns3.core import MAX_WIDTH, ResidueVector, forward_convert, make_moduli_set
from rns3.errors import ParameterError, ResidueError

POW2 = ChannelKind.POW2
MINUS1 = ChannelKind.POW2_MINUS1
PLUS1 = ChannelKind.POW2_PLUS1

REFERENCE_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def test_channel_modulus():
    assert ChannelId(POW2, 4).modulus == 16
    assert ChannelId(MINUS1, 4).modulus == 15
    assert ChannelId(PLUS1, 4).modulus == 17
    with pytest.raises(ParameterError):
        ChannelId(POW2, 0)


@pytest.mark.parametrize("k", [True, 2.0])
def test_channel_id_rejects_non_int_width(k):
    with pytest.raises(ParameterError):
        ChannelId(POW2, k)


@pytest.mark.parametrize("kind", ["pow2_plus1", "pow2", None, 1])
def test_channel_id_rejects_non_kind(kind):
    # A non-member would get the 2^k modulus, and channel_op would raise
    # KeyError on it.
    with pytest.raises(ParameterError):
        ChannelId(kind, 2)


def test_channel_modulus_is_a_derived_field():
    chan = ChannelId(PLUS1, 4)
    assert vars(chan)["modulus"] == 17
    assert repr(chan) == "ChannelId(kind=<ChannelKind.POW2_PLUS1: 'pow2_plus1'>, k=4)"
    assert chan == ChannelId(PLUS1, 4) != ChannelId(MINUS1, 4)
    assert hash(chan) == hash(ChannelId(PLUS1, 4))


def test_reduce_mod_examples():
    # chunks of 300 mod 15: 12 + 2 + 1 = 15 -> 0
    assert reduce_mod(ChannelId(MINUS1, 4), 300) == 0
    # alternating chunks mod 17: 12 - 2 + 1 = 11
    assert reduce_mod(ChannelId(PLUS1, 4), 300) == 11
    assert reduce_mod(ChannelId(POW2, 2), 300) == 0


def test_reduce_mod_edge_cases():
    assert reduce_mod(ChannelId(MINUS1, 4), 15) == 0     # all-ones word
    assert reduce_mod(ChannelId(MINUS1, 4), 0) == 0
    assert reduce_mod(ChannelId(PLUS1, 4), 16) == 16     # 2^k is canonical
    assert reduce_mod(ChannelId(PLUS1, 4), 17) == 0
    with pytest.raises(ParameterError):
        reduce_mod(ChannelId(POW2, 4), -1)


@pytest.mark.parametrize("x", [3.0, True])
def test_reduce_mod_rejects_non_int(x):
    with pytest.raises(ParameterError):
        reduce_mod(ChannelId(MINUS1, 4), x)


def test_reduce_mod_matches_generic_modulo():
    rng = random.Random(77)
    for kind in (POW2, MINUS1, PLUS1):
        for k in (1, 2, 3, 4, 5, 8, 16, 37):
            chan = ChannelId(kind, k)
            m = chan.modulus
            for _ in range(500):
                x = rng.randrange(1 << (8 * k))
                assert reduce_mod(chan, x) == x % m
            for x in (0, 1, m - 1, m, m + 1, 2 * m, (1 << (8 * k)) - 1):
                assert reduce_mod(chan, x) == x % m


def test_channel_op_examples():
    assert channel_op(ChannelId(MINUS1, 4), "add", 10, 12) == 7
    assert channel_op(ChannelId(PLUS1, 4), "mul", 15, 6) == 5
    for a in range(4):
        assert channel_op(ChannelId(POW2, 2), "sub", a, a) == 0


def test_channel_op_rejects_bad_operands():
    chan = ChannelId(MINUS1, 4)
    with pytest.raises(ResidueError):
        channel_op(chan, "add", 15, 0)
    with pytest.raises(ResidueError):
        channel_op(chan, "add", 0, -1)
    with pytest.raises(ParameterError):
        channel_op(chan, "xor", 1, 2)


def test_channel_op_rejects_non_int_operands():
    c2 = make_moduli_set(2).channels()[1]
    for a, b in ((2.0, 3), (2, 3.0), (True, 3), (2, False)):
        with pytest.raises(ResidueError, match="is not an int"):
            channel_op(c2, "mul", a, b)


def test_channel_op_exhaustive_small_widths():
    for kind in (POW2, MINUS1, PLUS1):
        for k in (1, 2, 3):
            chan = ChannelId(kind, k)
            m = chan.modulus
            for a in range(m):
                for b in range(m):
                    assert channel_op(chan, "add", a, b) == (a + b) % m
                    assert channel_op(chan, "sub", a, b) == (a - b) % m
                    assert channel_op(chan, "mul", a, b) == (a * b) % m


def test_rns_op_examples():
    ms = make_moduli_set(2)
    a = forward_convert(ms, 100)   # (0, 10, 15)
    b = forward_convert(ms, 57)    # (1, 12, 6)
    assert rns_op(ms, "add", a, b) == forward_convert(ms, 157)
    assert rns_op(ms, "add", a, b).astuple() == (1, 7, 4)
    assert rns_op(ms, "mul", a, b) == forward_convert(ms, 100 * 57 % ms.M)
    assert rns_op(ms, "mul", a, b).astuple() == (0, 0, 5)


def test_rns_op_additive_identity():
    for n in (1, 2, 5):
        ms = make_moduli_set(n)
        zero = forward_convert(ms, 0)
        for x in (0, 1, ms.M - 1, ms.M // 2):
            a = forward_convert(ms, x)
            assert rns_op(ms, "add", a, zero) == a


def test_rns_op_rejects_bad_operands():
    ms = make_moduli_set(2)
    good = ResidueVector(1, 2, 3)
    for bad, message in ((ResidueVector(1, True, 3), "operand True is not an int"),
                         (ResidueVector(1, 2, 3.0), "operand 3.0 is not an int"),
                         (ResidueVector(1, 15, 3), "operand 15 out of range for modulus 15"),
                         (ResidueVector(1, 2, -1), "operand -1 out of range for modulus 17")):
        for a, b in ((bad, good), (good, bad)):
            with pytest.raises(ResidueError, match=f"^{message}$"):
                rns_op(ms, "add", a, b)
    # A stamped operand skips the checks above; the op is checked still.
    for v in (good, forward_convert(ms, 100)):
        with pytest.raises(ParameterError, match="unknown channel op 'xor'"):
            rns_op(ms, "xor", v, v)


def test_rns_op_checks_hand_built_operands_channel_by_channel():
    # Channel 1's operands, a before b, then the op, then channels 2 and 3:
    # the order in which channel_op checks one channel.
    ms = make_moduli_set(2)
    good = ResidueVector(1, 2, 3)
    for op, a, b, error, message in (
            ("xor", ResidueVector(1, 15, 3), good, ParameterError,
             "unknown channel op 'xor'"),
            ("xor", good, ResidueVector(1, 2, -1), ParameterError,
             "unknown channel op 'xor'"),
            ("xor", ResidueVector(4, 15, 3), good, ResidueError,
             "operand 4 out of range for modulus 4"),
            ("xor", good, ResidueVector(1.0, 2, 3), ResidueError,
             "operand 1.0 is not an int"),
            ("add", ResidueVector(1, 2, 3.0), ResidueVector(1, 15, 3), ResidueError,
             "operand 15 out of range for modulus 15")):
        with pytest.raises(error, match=f"^{message}$"):
            rns_op(ms, op, a, b)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rns_op_matches_channel_op_exhaustive(n):
    # Every operand pair of every channel of the set: channel i takes the
    # pair, the other channels take the same values reduced into range.
    ms = make_moduli_set(n)
    mods = ms.moduli()
    for m_i in mods:
        for x in range(m_i):
            a = ResidueVector(*(x % m for m in mods))
            for y in range(m_i):
                b = ResidueVector(*(y % m for m in mods))
                for op in CHANNEL_OPS:
                    assert rns_op(ms, op, a, b).astuple() == tuple(
                        channel_op(chan, op, u, v) for chan, u, v in
                        zip(ms.channels(), a.astuple(), b.astuple()))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rns_op_matches_channel_op_exhaustive_stamped(n):
    # As above, with the operands from forward_convert: they carry the
    # set's stamp, so rns_op skips its checks and runs the kernel directly.
    ms = make_moduli_set(n)
    mods = ms.moduli()
    for m_i in mods:
        for x in range(m_i):
            a = forward_convert(ms, x)
            for y in range(m_i):
                b = forward_convert(ms, y)
                for op in CHANNEL_OPS:
                    assert rns_op(ms, op, a, b).astuple() == tuple(
                        channel_op(chan, op, u, v) for chan, u, v in
                        zip(ms.channels(), a.astuple(), b.astuple()))


def test_rns_op_guards_only_unstamped_operands(monkeypatch):
    seen = []
    monkeypatch.setattr(channels, "_check_origin", lambda ms, rv: seen.append(rv))
    ms = make_moduli_set(2)
    a, b = forward_convert(ms, 100), forward_convert(ms, 57)
    product = rns_op(ms, "mul", a, b)
    assert rns_op(ms, "add", product, a) == forward_convert(ms, (100 * 57 + 100) % ms.M)
    assert seen == []  # stamped operands and results skip the guard
    hand = ResidueVector(*a.astuple())
    checked = rns_op(ms, "mul", hand, b)
    assert checked == product and seen == [hand, b]
    rns_op(ms, "add", checked, a)
    assert seen == [hand, b]  # a result of checked operands is stamped too


def test_rns_op_rejects_a_tuple():
    ms = make_moduli_set(2)
    good = forward_convert(ms, 57)
    for a, b in (((0, 10, 15), good), (good, (0, 10, 15))):
        with pytest.raises(ResidueError, match=r"^expected a ResidueVector, got \(0, 10, 15\)$"):
            rns_op(ms, "add", a, b)


def test_rns_op_rejects_vectors_of_another_set():
    # Every channel range of n = 2 nests in the one of n = 3, so the
    # residues of a and b are in range there: only the stamps tell.
    ms2, ms3 = make_moduli_set(2), make_moduli_set(3)
    a, b = forward_convert(ms2, 17), forward_convert(ms2, 25)
    mine, hand = forward_convert(ms3, 25), ResidueVector(1, 2, 3)
    for x, y in ((a, b), (a, mine), (mine, a), (hand, b), (b, hand)):
        with pytest.raises(ResidueError, match="^the vector was built for "
                                               "the set of n=2, not for n=3$"):
            rns_op(ms3, "add", x, y)


def test_rns_op_checks_vectors_of_an_equal_set():
    # A set equal to ms but not ms itself: its vectors are checked in full,
    # then used, and the result is stamped with the set it was given.
    ms = make_moduli_set(3)
    twin = dataclasses.replace(ms)
    assert twin == ms and twin is not ms
    a, b = forward_convert(ms, 1000), forward_convert(ms, 77)
    for op in CHANNEL_OPS:
        assert rns_op(twin, op, a, b) == rns_op(ms, op, a, b)
    with pytest.raises(ResidueError, match="out of range"):
        rns_op(twin, "add", a, dataclasses.replace(b, r3=ms.m3))


@st.composite
def set_and_operands(draw):
    """A moduli set with n up to 4096 and two residue vectors of it.

    Each residue is 0, m - 1 or uniform; m - 1 is 2^(2n) in the 2^(2n) + 1
    channel, whose square is the only product there above 2^(4n) - 1.
    """
    ms = make_moduli_set(draw(st.one_of(st.integers(1, 8), st.integers(1, 4096))))

    def vector():
        return ResidueVector(*(draw(st.one_of(st.sampled_from((0, m - 1)),
                                              st.integers(0, m - 1)))
                               for m in ms.moduli()))
    return ms, vector(), vector()


@settings(max_examples=300, deadline=None)
@given(set_and_operands())
def test_rns_op_property(case):
    ms, a, b = case
    for op in CHANNEL_OPS:
        got = rns_op(ms, op, a, b).astuple()
        assert got == tuple(REFERENCE_OPS[op](x, y) % m for x, y, m in
                            zip(a.astuple(), b.astuple(), ms.moduli()))


def test_homomorphism_random_large_n():
    rng = random.Random(5)
    for n in (4, 8, 16):
        ms = make_moduli_set(n)
        for _ in range(2000):
            x, y = rng.randrange(ms.M), rng.randrange(ms.M)
            a, b = forward_convert(ms, x), forward_convert(ms, y)
            assert rns_op(ms, "add", a, b) == forward_convert(ms, (x + y) % ms.M)
            assert rns_op(ms, "sub", a, b) == forward_convert(ms, (x - y) % ms.M)
            assert rns_op(ms, "mul", a, b) == forward_convert(ms, x * y % ms.M)


def test_rotl_examples():
    assert rotl_mod_pow2_minus1(6, 4, 2) == 9    # 6 * 4 = 24 = 9 mod 15
    assert rotl_mod_pow2_minus1(8, 4, 1) == 1    # 16 = 1 mod 15
    for v in (0, 1, 7, 14):
        assert rotl_mod_pow2_minus1(v, 4, 0) == v


def test_rotl_exhaustive():
    for k in range(1, 9):
        m = (1 << k) - 1
        for v in range(m):
            for p in range(2 * k):
                assert rotl_mod_pow2_minus1(v, k, p) == (v << p) % m


def test_rotl_rejects_bad_input():
    with pytest.raises(ResidueError):
        rotl_mod_pow2_minus1(15, 4, 1)
    with pytest.raises(ParameterError):
        rotl_mod_pow2_minus1(3, 4, -1)


@pytest.mark.parametrize("v, k, p, error", [
    (True, 4, 1, ResidueError),
    (1.0, 4, 1, ResidueError),
    (1, 4, 1.0, ParameterError),
    (1, 4.0, 1, ParameterError),
    (1, -1, 1, ParameterError),
])
def test_rotl_rejects_non_int_or_bad_width(v, k, p, error):
    with pytest.raises(error):
        rotl_mod_pow2_minus1(v, k, p)


def test_neg_examples():
    assert neg_mod_pow2_minus1(6, 4) == 9
    assert neg_mod_pow2_minus1(0, 4) == 0    # complement 1111 canonicalizes
    assert neg_mod_pow2_minus1(14, 4) == 1


def test_neg_exhaustive():
    for k in range(1, 9):
        m = (1 << k) - 1
        for v in range(m):
            assert neg_mod_pow2_minus1(v, k) == (m - v) % m


def test_neg_rejects_noncanonical():
    with pytest.raises(ResidueError):
        neg_mod_pow2_minus1(15, 4)


@pytest.mark.parametrize("v, k, error", [
    (True, 4, ResidueError),
    (2.0, 4, ResidueError),
    (2, 4.0, ParameterError),
    (2, -1, ParameterError),
])
def test_neg_rejects_non_int_or_bad_width(v, k, error):
    with pytest.raises(error):
        neg_mod_pow2_minus1(v, k)


def test_widths_up_to_the_ceiling_are_admitted():
    assert ChannelId(PLUS1, MAX_WIDTH).modulus == 2 ** MAX_WIDTH + 1
    assert rotl_mod_pow2_minus1(1, MAX_WIDTH, MAX_WIDTH - 1) == 2 ** (MAX_WIDTH - 1)
    assert neg_mod_pow2_minus1(0, MAX_WIDTH) == 0


@pytest.mark.parametrize("k", [MAX_WIDTH + 1, 2 ** 70])
def test_widths_above_the_ceiling_are_refused(k):
    # Checked before any shift: 2^70 would overflow, 2^40 take 128 GiB.
    bound = rf"in \[1, {MAX_WIDTH}\]"
    with pytest.raises(ParameterError, match=f"{bound}, got {k}$"):
        ChannelId(PLUS1, k)
    with pytest.raises(ParameterError, match=f"{bound} .*, got {k} and 1$"):
        rotl_mod_pow2_minus1(1, k, 1)
    with pytest.raises(ParameterError, match=f"{bound}, got {k}$"):
        neg_mod_pow2_minus1(1, k)
