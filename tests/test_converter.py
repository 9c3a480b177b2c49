"""Bit words, operand preparation, the carry-save stage and full decoding."""

import itertools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rns3 import converter, datapath
from rns3.converter import (
    BitWord,
    csa_eac,
    decode_trace,
    mod_add_end_around,
    prepare_operands,
    reverse_convert,
)
from rns3.core import (
    MAX_N,
    MAX_WIDTH,
    ResidueVector,
    crt_reconstruct,
    forward_convert,
    make_moduli_set,
)
from rns3.costs import MAX_SIZE
from rns3.errors import ParameterError, ResidueError


def test_bitword_validation():
    BitWord(0, 0)
    BitWord(255, 8)
    with pytest.raises(ParameterError):
        BitWord(256, 8)
    with pytest.raises(ParameterError):
        BitWord(-1, 8)
    with pytest.raises(ParameterError):
        BitWord(1, 0)
    with pytest.raises(ParameterError):
        BitWord(0, -1)
    for value, width, message in ((1.5, 2, "value must be an int, got 1.5"),
                                  (1, 2.0, "width must be an int, got 2.0"),
                                  (True, 1, "value must be an int, got True"),
                                  (1, True, "width must be an int, got True")):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            BitWord(value, width)


@pytest.mark.parametrize("width", [MAX_WIDTH + 1, 2 ** 70])
def test_bitword_widths_above_the_ceiling_are_refused(width):
    # Checked before any shift: 2^70 would overflow, 2^40 take 128 GiB.
    message = f"^width must be <= {MAX_WIDTH}, got {width}$"
    with pytest.raises(ParameterError, match=message):
        BitWord(0, width)


def test_the_width_ceiling_admits_every_word_the_library_builds():
    # The cost model's widest summand is 4n bits at n = MAX_SIZE.
    assert 4 * MAX_SIZE == MAX_WIDTH
    assert (datapath.merged_summand(MAX_SIZE, 0, 0)
            == BitWord((1 << MAX_WIDTH) - 1, MAX_WIDTH))
    # decode_trace's widest word is the 5n-bit X of the largest set.
    ms = make_moduli_set(MAX_N)
    trace = decode_trace(ms, forward_convert(ms, ms.M - 1))
    assert trace.x == BitWord(ms.M - 1, 5 * MAX_N)


def test_bitword_to_binary():
    assert BitWord(0b01010101, 8).to_binary() == "01010101"
    assert BitWord(0, 3).to_binary() == "000"
    assert BitWord(0, 0).to_binary() == ""


def test_prepare_operands_worked_example():
    ms = make_moduli_set(2)
    ops = prepare_operands(ms, ResidueVector(0, 10, 15))
    assert ops.s1_prime == BitWord(225, 8)
    assert ops.s2 == BitWord(85, 8)
    assert ops.s31 == BitWord(225, 8)
    assert ops.width == 8


def test_prepare_operands_n1_zero_width_segments():
    ms = make_moduli_set(1)
    ops = prepare_operands(ms, ResidueVector(1, 2, 3))
    assert (ops.s1_prime.value, ops.s2.value, ops.s31.value) == (4, 10, 12)
    assert ops.width == 4


def test_prepare_operands_zero_residues():
    ms = make_moduli_set(2)
    ops = prepare_operands(ms, ResidueVector(0, 0, 0))
    # complement of zeros is the all-ones word, congruent to 0
    assert ops.s1_prime == BitWord(255, 8)
    assert ops.s2.value == 0 and ops.s31.value == 0


def test_prepare_operands_rejects_bad_residues():
    ms = make_moduli_set(2)
    with pytest.raises(ResidueError):
        prepare_operands(ms, ResidueVector(0, 15, 0))


def test_operand_lemmas_are_proved_for_every_n_up_to_64_and_at_1024_and_4096():
    """The four operand-value lemmas and the merge identity, proved per n.

    Each summand layout is wiring only: residue bits, complemented residue
    bits and constants.  So its value is affine in the residue bits,
    L(r) = L(0) + the sum over the set bits j of r of (L(2^j) - L(0)), and
    a lemma L(r) == c * r (mod 2^(4n) - 1) holds for every residue iff it
    holds at r = 0 and at each unit residue 2^j: j < n for r1, j < 2n for
    r2 and j <= 2n for r3, each 2^j a canonical residue.  merged_summand
    is affine in r1 and r3 together, so the merge identity needs the same
    points for each residue with the other at 0.  This test does not check
    affinity itself: criterion 4's exhaustive sweep at n <= 3 would catch
    a layout that stopped being wiring.
    """
    for n in (*range(1, 65), 1024, 4096):
        modw = (1 << 4 * n) - 1
        units = [1 << j for j in range(2 * n + 1)]  # r1 takes n, r2 2n

        def lemma(layout, coeff, bits):
            """{r: L(r)} at 0 and the units, each checked against coeff * r."""
            values = {r: layout(n, r).value for r in (0, *units[:bits])}
            assert values[0] % modw == 0, (layout.__name__, n, 0)
            want = coeff % modw  # coeff * r at r = 1, doubled per unit
            for r in units[:bits]:
                assert values[r] % modw == want, (layout.__name__, n, r)
                want = 2 * want % modw
            return values

        s1 = lemma(datapath.r1_summand, -(1 << 3 * n), n)
        lemma(datapath.r2_summand, (1 << 3 * n - 1) + (1 << n - 1), 2 * n)
        lemma(datapath.r3_rot_summand, 1 << 3 * n - 1, 2 * n + 1)
        # With the lemma above, the r3 pair sums to (2^(3n-1) - 2^(n-1))*r3.
        s32 = lemma(datapath.r3_comp_summand, -(1 << n - 1), 2 * n + 1)
        for r1, r3 in ((0, 0), *((r, 0) for r in units[:n]),
                       *((0, r) for r in units)):
            merged = datapath.merged_summand(n, r1, r3).value
            assert (merged - s1[r1] - s32[r3]) % modw == 0, (n, r1, r3)


def test_csa_eac_examples():
    s, c = csa_eac(BitWord(225, 8), BitWord(85, 8), BitWord(225, 8))
    assert (s.value, c.value) == (85, 195)
    assert (225 + 85 + 225) % 255 == (85 + 195) % 255

    s, c = csa_eac(BitWord(0, 8), BitWord(0, 8), BitWord(0, 8))
    assert (s.value, c.value) == (0, 0)

    s, c = csa_eac(BitWord(255, 8), BitWord(255, 8), BitWord(255, 8))
    assert (s.value, c.value) == (255, 255)


def test_csa_eac_width_mismatch():
    with pytest.raises(ParameterError):
        csa_eac(BitWord(0, 8), BitWord(0, 8), BitWord(0, 4))


def test_stages_reject_non_bitword_operands():
    w = BitWord(3, 2)
    for call in (lambda: csa_eac(1, 2, 3), lambda: csa_eac(w, w, 3),
                 lambda: mod_add_end_around(w, 5),
                 lambda: mod_add_end_around(3, w)):
        with pytest.raises(ParameterError, match="must be BitWords$"):
            call()


def test_csa_eac_identity_random():
    # Every triple at width 4 (4096 of them), sampled triples above.
    rng = random.Random(42)
    for width in (4, 8, 12, 16):
        top = 1 << width
        m = top - 1
        triples = (itertools.product(range(top), repeat=3) if width == 4 else
                   ((rng.randrange(top), rng.randrange(top), rng.randrange(top))
                    for _ in range(100000)))
        for a, b, c in triples:
            s, carry = csa_eac(BitWord(a, width), BitWord(b, width),
                               BitWord(c, width))
            assert (a + b + c) % m == (s.value + carry.value) % m


def test_mod_add_end_around_examples():
    assert mod_add_end_around(BitWord(85, 8), BitWord(195, 8)) == 25
    assert mod_add_end_around(BitWord(255, 8), BitWord(0, 8)) == 0
    assert mod_add_end_around(BitWord(200, 8), BitWord(100, 8)) == 45
    assert mod_add_end_around(BitWord(255, 8), BitWord(255, 8)) == 0
    with pytest.raises(ParameterError):
        mod_add_end_around(BitWord(0, 8), BitWord(0, 4))


def test_mod_add_end_around_canonical():
    rng = random.Random(7)
    for width in (4, 8, 16):
        top = 1 << width
        m = top - 1
        for _ in range(20000):
            a, b = rng.randrange(top), rng.randrange(top)
            got = mod_add_end_around(BitWord(a, width), BitWord(b, width))
            assert got == (a + b) % m
            assert 0 <= got < m


def test_reverse_convert_examples():
    ms = make_moduli_set(2)
    assert reverse_convert(ms, ResidueVector(0, 10, 15)) == 100
    assert reverse_convert(make_moduli_set(1), ResidueVector(1, 2, 3)) == 23
    for n in (1, 2, 4):
        assert reverse_convert(make_moduli_set(n), ResidueVector(0, 0, 0)) == 0


def test_reverse_convert_rejects_noncanonical_residues():
    for n in (1, 2, 16):
        ms = make_moduli_set(n)
        m1, m2, m3 = ms.moduli()
        # m2 is the all-ones alias of zero in the 2^(2n)-1 channel
        for idx, rv in ((1, ResidueVector(m1, 0, 0)),
                        (2, ResidueVector(0, m2, 0)),
                        (3, ResidueVector(0, 0, m3)),
                        (1, ResidueVector(-1, 0, 0)),
                        (2, ResidueVector(0, -1, 0)),
                        (3, ResidueVector(0, 0, -1))):
            r, m = rv.astuple()[idx - 1], ms.moduli()[idx - 1]
            message = f"^R{idx}={r} out of range for modulus {m}$"
            with pytest.raises(ResidueError, match=message):
                reverse_convert(ms, rv)
            with pytest.raises(ResidueError, match=message):
                decode_trace(ms, rv)


def test_reverse_convert_rejects_non_int_residues():
    ms = make_moduli_set(2)
    for idx, rv in ((1, ResidueVector(1.0, 2, 3)),
                    (2, ResidueVector(1, True, 3)),
                    (3, ResidueVector(1, 2, 3.0))):
        message = f"^R{idx}=.* is not an int$"
        for decode in (reverse_convert, decode_trace, prepare_operands):
            with pytest.raises(ResidueError, match=message):
                decode(ms, rv)


def test_reverse_convert_edge_grid():
    # Every residue 0, 1 or m - 1, for n = 1..64: 27 vectors per n, among
    # them r3 = 2^(2n), the only residue with bit 2n set.
    for n in range(1, 65):
        ms = make_moduli_set(n)
        for r in itertools.product(*((0, 1, m - 1) for m in ms.moduli())):
            rv = ResidueVector(*r)
            assert reverse_convert(ms, rv) == decode_trace(ms, rv).x.value \
                == crt_reconstruct(ms, rv)


def test_decode_trace_worked_example():
    t = decode_trace(make_moduli_set(2), ResidueVector(0, 10, 15))
    assert (t.s1_prime, t.s2, t.s31) == (
        BitWord(225, 8), BitWord(85, 8), BitWord(225, 8))
    assert (t.sum, t.carry) == (BitWord(85, 8), BitWord(195, 8))
    assert t.y == BitWord(25, 8)
    assert t.x == BitWord(100, 10)


def test_decode_trace_runs_each_public_stage_once(monkeypatch):
    calls = []
    for name in ("prepare_operands", "csa_eac", "mod_add_end_around"):
        def spy(*args, real=getattr(datapath, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(datapath, name, spy)
    ms = make_moduli_set(3)
    assert decode_trace(ms, forward_convert(ms, 1234)).x == BitWord(1234, 15)
    assert calls == ["prepare_operands", "csa_eac", "mod_add_end_around"]


@pytest.mark.parametrize("n", [1, 16, 4096])
def test_stages_build_only_the_words_they_return(monkeypatch, n):
    # One BitWord per summand, and one per DecodeTrace field in all.
    built = []
    post_init = BitWord.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)
    monkeypatch.setattr(BitWord, "__post_init__", counted)
    ms = make_moduli_set(n)
    rv = forward_convert(ms, ms.M - 1)
    ops = prepare_operands(ms, rv)
    assert len(built) == 3
    assert all(map(operator.is_, built, (ops.s1_prime, ops.s2, ops.s31)))
    built.clear()
    trace = decode_trace(ms, rv)
    assert len(built) == len(trace) == 7
    assert all(map(operator.is_, built, trace))


def test_decode_trace_matches_fast_path_exhaustive():
    for n in (1, 2, 3):
        ms = make_moduli_set(n)
        for r1, r2, r3 in itertools.product(
                range(ms.m1), range(ms.m2), range(ms.m3)):
            rv = ResidueVector(r1, r2, r3)
            assert decode_trace(ms, rv).x.value == reverse_convert(ms, rv)


def test_decode_trace_matches_fast_path_exhaustive_stamped():
    # As above, with every vector from forward_convert: stamped with the
    # set, so reverse_convert skips its checks.
    for n in (1, 2):
        ms = make_moduli_set(n)
        for x in range(ms.M):
            rv = forward_convert(ms, x)
            assert decode_trace(ms, rv).x.value == reverse_convert(ms, rv) == x


def test_reverse_convert_validates_only_unstamped_vectors(monkeypatch):
    seen = []
    monkeypatch.setattr(converter, "validate_residues",
                        lambda ms, rv: seen.append(rv))
    ms = make_moduli_set(2)
    rv = forward_convert(ms, 100)
    assert reverse_convert(ms, rv) == 100 and seen == []
    hand = ResidueVector(0, 10, 15)
    assert reverse_convert(ms, hand) == 100 and seen == [hand]


@pytest.mark.parametrize("decode", [reverse_convert, decode_trace, prepare_operands])
def test_decoders_reject_a_tuple(decode):
    with pytest.raises(ResidueError, match=r"^expected a ResidueVector, got \(0, 10, 15\)$"):
        decode(make_moduli_set(2), (0, 10, 15))


@pytest.mark.parametrize("decode", [reverse_convert, decode_trace, prepare_operands])
def test_decoders_reject_a_vector_of_another_set(decode):
    # forward_convert(ms2, 17) is (1, 2, 0): in range for n = 3 as well,
    # where it would decode to 65.
    rv = forward_convert(make_moduli_set(2), 17)
    with pytest.raises(ResidueError, match="^the vector was built for "
                                           "the set of n=2, not for n=3$"):
        decode(make_moduli_set(3), rv)


@st.composite
def set_and_residues(draw):
    """A moduli set with n up to 4096 and a residue vector of it, each
    residue 0, m - 1 or uniform."""
    ms = make_moduli_set(draw(st.one_of(st.integers(1, 8), st.integers(1, 4096))))
    return ms, ResidueVector(*(draw(st.one_of(st.sampled_from((0, m - 1)),
                                              st.integers(0, m - 1)))
                               for m in ms.moduli()))


@st.composite
def set_and_value(draw):
    """A moduli set with n up to 4096 and an X of it: 0, M - 1, uniform, or
    the value of a residue vector drawn as in set_and_residues."""
    ms, rv = draw(set_and_residues())
    x = draw(st.one_of(st.sampled_from((0, ms.M - 1, crt_reconstruct(ms, rv))),
                       st.integers(0, ms.M - 1)))
    return ms, x


@settings(max_examples=200, deadline=None)
@given(set_and_value())
def test_reverse_convert_inverts_forward_convert_property(case):
    ms, x = case
    assert reverse_convert(ms, forward_convert(ms, x)) == x


@settings(max_examples=200, deadline=None)
@given(set_and_residues())
def test_reverse_convert_matches_crt_reconstruct_property(case):
    ms, rv = case
    assert reverse_convert(ms, rv) == crt_reconstruct(ms, rv)


@settings(max_examples=200, deadline=None)
@given(set_and_residues())
def test_decode_trace_matches_reverse_convert_property(case):
    ms, rv = case
    assert decode_trace(ms, rv).x.value == reverse_convert(ms, rv)


def test_converter_forwards_every_name_the_staged_path_defines():
    defined = {name for name, value in vars(datapath).items()
               if getattr(value, "__module__", None) == datapath.__name__}
    assert converter._DATAPATH == defined
    assert all(getattr(converter, name) is getattr(datapath, name)
               for name in defined)
