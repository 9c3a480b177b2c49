"""Moduli set construction, forward conversion and the weighted-sum decoder."""

import ast
import copy
import copyreg
import dataclasses
import gc
import inspect
import io
import pickle
import random
import subprocess
import sys
from itertools import repeat
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rns3 import core
from rns3.channels import (
    ChannelId,
    ChannelKind,
    channel_op,
    neg_mod_pow2_minus1,
    reduce_mod,
    rns_op,
    rotl_mod_pow2_minus1,
)
from rns3.converter import BitWord, decode_trace, prepare_operands, reverse_convert
from rns3.core import (
    ResidueVector,
    crt_reconstruct,
    forward_convert,
    inverse_constants,
    make_moduli_set,
    pairwise_coprime,
    validate_residues,
)
from rns3.costs import (
    MAX_SIZE,
    ChannelAdder,
    ConverterDesign,
    Design,
    ceil_log2,
    channel_adder_delay,
    emit_table,
    truncate_pct,
)
from rns3.errors import (SHOWN_CHARS, OutOfRangeError, ParameterError, ResidueError,
                         RnsError, _shown)


def brute_force_decode(ms, rv):
    """Independent oracle: scan [0, M) for the value with these residues."""
    return next(
        x for x in range(ms.M)
        if (x % ms.m1, x % ms.m2, x % ms.m3) == rv.astuple()
    )


def test_make_moduli_set_n2():
    ms = make_moduli_set(2)
    assert ms.moduli() == (4, 15, 17)
    assert ms.M == 1020
    assert (ms.mhat1, ms.mhat2, ms.mhat3) == (255, 68, 60)
    assert (ms.inv1, ms.inv2, ms.inv3) == (3, 2, 2)


def test_make_moduli_set_n1():
    ms = make_moduli_set(1)
    assert ms.moduli() == (2, 3, 5)
    assert ms.M == 30


def test_make_moduli_set_rejects_nonpositive():
    make_moduli_set(1)  # cached, and 0 and -1 must not reach the cache
    for n in (0, -1, -3):
        with pytest.raises(ParameterError, match="must be >= 1"):
            make_moduli_set(n)


def test_make_moduli_set_rejects_non_int():
    # Checked before the set cache, whose key for [1] would raise
    # TypeError (unhashable), not ParameterError.
    for n in (True, 1.0, 2.0, "2", [1]):
        with pytest.raises(ParameterError, match="must be an int"):
            make_moduli_set(n)


def test_make_moduli_set_refuses_n_above_the_ceiling():
    # Checked before any shift: 2^70 would overflow, 10^9 take gigabytes.
    assert make_moduli_set(core.MAX_N).n == core.MAX_N
    for n in (core.MAX_N + 1, 2 ** 70):
        with pytest.raises(ParameterError, match="must be <= 65536"):
            make_moduli_set(n)


def test_make_moduli_set_shares_one_set_per_n():
    ms = make_moduli_set(4096)
    assert make_moduli_set(4096) is ms
    assert make_moduli_set(1) is make_moduli_set(1)
    assert make_moduli_set(2) is not make_moduli_set(1)


def test_moduli_set_product_invariants():
    # mhat_i * m_i == M pins the shift-built weights to M // m_i.
    for n in [*range(1, 65), 1024, 4096, core.MAX_N]:
        ms = make_moduli_set(n)
        assert ms.m1 * ms.m2 * ms.m3 == ms.M
        assert ms.mhat1 * ms.m1 == ms.M
        assert ms.mhat2 * ms.m2 == ms.M
        assert ms.mhat3 * ms.m3 == ms.M


# Every value a set derives from n, by its closed form: the moduli, the
# range and the weights, then the constants of the hot kernels.
DERIVED = {
    "m1": lambda n: 2 ** n,
    "m2": lambda n: 2 ** (2 * n) - 1,
    "m3": lambda n: 2 ** (2 * n) + 1,
    "M": lambda n: 2 ** n * (2 ** (4 * n) - 1),
    "mhat1": lambda n: 2 ** (4 * n) - 1,
    "mhat2": lambda n: 2 ** n * (2 ** (2 * n) + 1),
    "mhat3": lambda n: 2 ** n * (2 ** (2 * n) - 1),
    "inv1": lambda n: 2 ** n - 1,
    "inv2": lambda n: 2 ** (n - 1),
    "inv3": lambda n: 2 ** (n - 1),
    "pow2_mask": lambda n: 2 ** n - 1,
    "chan_bits": lambda n: 2 * n,
    "word_mask": lambda n: 2 ** (4 * n) - 1,
    "word_bits": lambda n: 4 * n,
    "low_mask": lambda n: 2 ** (n + 1) - 1,
    "shift_3n": lambda n: 3 * n,
    "shift_3n_m1": lambda n: 3 * n - 1,
    "shift_n_m1": lambda n: n - 1,
    "shift_n_p1": lambda n: n + 1,
}


def test_derived_constants_match_closed_forms():
    # A set derives these and re-proves none of them: the closed forms and
    # coprimality are checked here, the weights' inverses by criterion 5
    # and test_inverse_constants.
    for n in [*range(1, 65), 4096, core.MAX_N]:
        ms = make_moduli_set(n)
        # vars() on an unshared set: on 3.11 and 3.12 it moves the values
        # into an instance dict, which the shared set must not get.
        assert vars(core.ModuliSet(n)).keys() == {"n", *DERIVED}
        assert pairwise_coprime(ms.moduli()), n
        twin = dataclasses.replace(ms)
        unpickled = pickle.loads(pickle.dumps(ms))
        for s in (ms, twin, unpickled):
            for name, form in DERIVED.items():
                assert getattr(s, name) == form(n), (n, name)
        # The derived values leave ==, hash and repr to n, even when they
        # disagree.
        odd = core.ModuliSet(n)  # unshared: a copy would be the shared set
        for name in DERIVED:
            object.__setattr__(odd, name, -1)
        for s in (twin, unpickled, odd):
            assert s == ms and hash(s) == hash(ms) == hash((n,))
            assert repr(s) == repr(ms)
        if sys.version_info >= (3, 11):  # the shared set read here keeps
            assert dict not in map(type, gc.get_referents(ms))  # no dict
    assert repr(make_moduli_set(1)) == "ModuliSet(n=1)"


def test_a_pickled_or_copied_set_is_the_shared_set_of_its_n():
    # A pickle carries n alone: a forged derived value does not travel,
    # and loading checks n and returns the one set make_moduli_set shares.
    forged = core.ModuliSet(2)
    object.__setattr__(forged, "m2", 7)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(forged, protocol))
        assert loaded is make_moduli_set(2) and loaded.m2 == 15
    assert copy.copy(forged) is copy.deepcopy(forged) is make_moduli_set(2)
    assert len(pickle.dumps(make_moduli_set(core.MAX_N))) < 100


def test_a_set_is_its_n():
    assert tuple(f.name for f in dataclasses.fields(core.ModuliSet)) == ("n",)
    ms = make_moduli_set(2)
    for twin in (dataclasses.replace(ms, n=3), core.ModuliSet(3)):
        assert twin == make_moduli_set(3) and hash(twin) == hash((3,))
        assert twin.moduli() == (8, 63, 65) and twin.M == 8 * 4095
        assert crt_reconstruct(twin, forward_convert(twin, 100)) == 100
        assert reverse_convert(twin, forward_convert(twin, 100)) == 100
    # A derived value is no field, so replace() refuses it on every
    # Python version, as an unexpected keyword argument.
    for name in ("m2", "M", "inv2", "pow2_mask"):
        with pytest.raises(TypeError, match=name):
            dataclasses.replace(ms, **{name: 7})
    assert repr(make_moduli_set(4096)) == "ModuliSet(n=4096)"


@pytest.mark.parametrize("n, message", [
    (0, "must be >= 1"), (-3, "must be >= 1"), (True, "must be an int"),
    (2.0, "must be an int"), ("2", "must be an int"),
    (core.MAX_N + 1, "must be <= 65536, got 65537$"),
    (2 ** 70, "must be <= 65536, got 1180591620717411303424$")])
def test_moduli_set_checks_n(n, message):
    with pytest.raises(ParameterError, match=message):
        core.ModuliSet(n)
    with pytest.raises(ParameterError, match=message):
        dataclasses.replace(make_moduli_set(2), n=n)


def test_pairwise_coprime():
    assert pairwise_coprime([4, 15, 17])
    assert not pairwise_coprime([2, 4, 15])
    # the 2^(2n)-1 / 2^(2n)+1 pair at n=4
    assert pairwise_coprime([2**8 - 1, 2**8 + 1])


def test_pairwise_coprime_bad_input():
    with pytest.raises(ParameterError):
        pairwise_coprime([])
    with pytest.raises(ParameterError):
        pairwise_coprime([0, 3])


# Each call passes an argument of the wrong type, which must be refused
# at the boundary, not surface as an AttributeError, ValueError or
# TypeError from inside, nor be taken for an int.
WRONG_TYPED_INPUTS = {
    "inverse_constants-None": lambda: inverse_constants(None),
    "pairwise_coprime-bool": lambda: pairwise_coprime([True, 3]),
    "pairwise_coprime-float": lambda: pairwise_coprime([1.5, 3]),
    "pairwise_coprime-int": lambda: pairwise_coprime(5),
    "emit_table-int": lambda: emit_table(5),
}


@pytest.mark.parametrize("call", WRONG_TYPED_INPUTS.values(), ids=WRONG_TYPED_INPUTS)
def test_wrong_typed_inputs_raise_parameter_error(call):
    with pytest.raises(ParameterError):
        call()


# An int of 5000 decimal digits: more than int-to-str writes by default.
HUGE = 10 ** 5000 - 1

# Each call hands an entry point a value whose repr is longer than
# errors.SHOWN_CHARS, or refused (an int, or a tuple holding one, too long
# to write in decimal), with the text its message must show in its place:
# an RnsError, not a ValueError from the int-to-str conversion, and no
# value written out in full.  The last row's repr just fits, and is shown.
HUGE_INPUTS = {
    "forward_convert-M": (
        lambda: forward_convert(make_moduli_set(4096), make_moduli_set(4096).M),
        "X must be < <20480-bit int>"),
    "forward_convert-M-1542-digits": (
        lambda: forward_convert(make_moduli_set(1024), make_moduli_set(1024).M),
        "X must be < <5120-bit int>"),
    "validate_residues": (
        lambda: validate_residues(make_moduli_set(2), ResidueVector(0, HUGE, 0)),
        "R2=<16610-bit int> out of range for modulus 15"),
    "validate_residues-set": (
        lambda: validate_residues(HUGE, ResidueVector(0, 0, 0)),
        "expected a ModuliSet, got <16610-bit int>"),
    "reverse_convert": (
        lambda: reverse_convert(make_moduli_set(2), ResidueVector(0, 0, HUGE)),
        "R3=<16610-bit int> out of range for modulus 17"),
    "crt_reconstruct": (
        lambda: crt_reconstruct(make_moduli_set(2), ResidueVector(-HUGE, 0, 0)),
        "R1=<negative 16610-bit int> out of range for modulus 4"),
    "crt_reconstruct-tuple": (
        lambda: crt_reconstruct(make_moduli_set(2), (0, HUGE, 0)),
        "expected a ResidueVector, got <tuple too large to show>"),
    "rns_op": (
        lambda: rns_op(make_moduli_set(2), "add", ResidueVector(0, 0, 0),
                       ResidueVector(0, 0, HUGE)),
        "R3=<16610-bit int> out of range for modulus 17"),
    "make_moduli_set": (
        lambda: make_moduli_set(-HUGE),
        "must be >= 1, got <negative 16610-bit int>"),
    "BitWord": (
        lambda: BitWord(HUGE, 8),
        "value <16610-bit int> does not fit in 8 bits"),
    "rns_op-101-character-op": (
        lambda: rns_op(make_moduli_set(2), "x" * 101, ResidueVector(0, 0, 0),
                       ResidueVector(0, 0, 0)),
        "unknown channel op <101-character text>"),
    "crt_reconstruct-list": (
        lambda: crt_reconstruct(make_moduli_set(2), [0] * 40),
        "expected a ResidueVector, got <list too large to show>"),
    "rns_op-98-character-op": (
        lambda: rns_op(make_moduli_set(2), "x" * 98, ResidueVector(0, 0, 0),
                       ResidueVector(0, 0, 0)),
        f"unknown channel op '{'x' * 98}'"),
}


@pytest.mark.parametrize("call, shown", HUGE_INPUTS.values(), ids=HUGE_INPUTS)
def test_messages_show_huge_ints_by_bit_length(call, shown):
    with pytest.raises(RnsError) as info:
        call()
    assert shown in str(info.value)
    assert len(str(info.value)) <= 2 * SHOWN_CHARS


# Every argument that errors._check_int guards: a call of the value with
# the site's other arguments valid, and the site's bounds lo and hi (None
# for no upper bound).
INT_GUARDED = {
    "ModuliSet": (core.ModuliSet, 1, core.MAX_N),
    "make_moduli_set": (make_moduli_set, 1, core.MAX_N),
    "ChannelId": (lambda k: ChannelId(ChannelKind.POW2, k), 1, core.MAX_WIDTH),
    "reduce_mod": (lambda x: reduce_mod(ChannelId(ChannelKind.POW2, 2), x), 0, None),
    "rotl_mod_pow2_minus1-k": (lambda k: rotl_mod_pow2_minus1(0, k, 1),
                               1, core.MAX_WIDTH),
    "rotl_mod_pow2_minus1-p": (lambda p: rotl_mod_pow2_minus1(0, 4, p), 0, None),
    "neg_mod_pow2_minus1": (lambda k: neg_mod_pow2_minus1(0, k), 1, core.MAX_WIDTH),
    "BitWord-value": (lambda v: BitWord(v, 8), 0, None),
    "BitWord-width": (lambda w: BitWord(0, w), 0, core.MAX_WIDTH),
    "ceil_log2": (ceil_log2, 1, None),
    "ConverterDesign": (lambda s: ConverterDesign(Design.OURS, s), 1, MAX_SIZE),
    "channel_adder_delay": (lambda n: channel_adder_delay(ChannelAdder.MOD_HIASAT, n),
                            1, MAX_SIZE),
    "truncate_pct-denominator": (lambda d: truncate_pct(1, d, 2), 1, None),
    "truncate_pct-places": (lambda p: truncate_pct(1, 3, p), 0, 4300),
}


@pytest.mark.parametrize("call, lo, hi", INT_GUARDED.values(), ids=INT_GUARDED)
def test_every_int_argument_is_guarded(call, lo, hi):
    # Wrong types, then values past each bound: 2^70 and a 5000-digit int
    # past hi, or, at a site with no hi, their negatives past lo.
    beyond = (lo - 1, -2 ** 70, -HUGE) if hi is None else (lo - 1, hi + 1, 2 ** 70, HUGE)
    for value in (None, 1.5, True, "3", *beyond):
        with pytest.raises(RnsError) as info:
            call(value)
        assert info.type is ParameterError
        assert str(info.value).endswith(f", got {_shown(value)}")
    for value in (lo,) if hi is None else (lo, hi):
        call(value)


# Every call site of the residue check, each given a non-int and an
# out-of-range value, with the exact ResidueError text it must raise: the
# three residues of validate_residues, channel_op's two operands in the
# channel 2^4 - 1, and the value of each 2^k - 1 bit trick at k = 4.
C15 = ChannelId(ChannelKind.POW2_MINUS1, 4)
RESIDUE_CHECKED = {
    "validate_residues-R1-type": (
        lambda: validate_residues(make_moduli_set(2), ResidueVector(1.0, 2, 3)),
        "R1=1.0 is not an int"),
    "validate_residues-R1-range": (
        lambda: validate_residues(make_moduli_set(2), ResidueVector(4, 2, 3)),
        "R1=4 out of range for modulus 4"),
    "validate_residues-R2-type": (
        lambda: validate_residues(make_moduli_set(2), ResidueVector(1, True, 3)),
        "R2=True is not an int"),
    "validate_residues-R2-range": (
        lambda: validate_residues(make_moduli_set(2), ResidueVector(1, 15, 3)),
        "R2=15 out of range for modulus 15"),
    "validate_residues-R3-type": (
        lambda: validate_residues(make_moduli_set(2), ResidueVector(1, 2, "3")),
        "R3='3' is not an int"),
    "validate_residues-R3-range": (
        lambda: validate_residues(make_moduli_set(2), ResidueVector(1, 2, -1)),
        "R3=-1 out of range for modulus 17"),
    "channel_op-a-type": (lambda: channel_op(C15, "add", 2.0, 3),
                          "operand 2.0 is not an int"),
    "channel_op-a-range": (lambda: channel_op(C15, "add", 15, 0),
                           "operand 15 out of range for modulus 15"),
    "channel_op-b-type": (lambda: channel_op(C15, "mul", 2, False),
                          "operand False is not an int"),
    "channel_op-b-range": (lambda: channel_op(C15, "add", 0, -1),
                           "operand -1 out of range for modulus 15"),
    "rotl_mod_pow2_minus1-type": (lambda: rotl_mod_pow2_minus1(True, 4, 1),
                                  "value True is not an int"),
    "rotl_mod_pow2_minus1-range": (lambda: rotl_mod_pow2_minus1(15, 4, 1),
                                   "value 15 out of range for modulus 15"),
    "neg_mod_pow2_minus1-type": (lambda: neg_mod_pow2_minus1(2.0, 4),
                                 "value 2.0 is not an int"),
    "neg_mod_pow2_minus1-range": (lambda: neg_mod_pow2_minus1(15, 4),
                                  "value 15 out of range for modulus 15"),
}


@pytest.mark.parametrize("call, message", RESIDUE_CHECKED.values(), ids=RESIDUE_CHECKED)
def test_every_residue_check_names_its_value(call, message):
    with pytest.raises(RnsError) as info:
        call()
    assert (info.type, str(info.value)) == (ResidueError, message)


def test_forward_convert_examples():
    ms = make_moduli_set(2)
    assert forward_convert(ms, 100).astuple() == (0, 10, 15)
    assert forward_convert(ms, 0).astuple() == (0, 0, 0)
    assert forward_convert(make_moduli_set(1), 23).astuple() == (1, 2, 3)


def test_forward_convert_range_check():
    ms = make_moduli_set(2)
    with pytest.raises(OutOfRangeError, match="1020"):
        forward_convert(ms, 1020)
    with pytest.raises(OutOfRangeError):
        forward_convert(ms, -1)
    # the top of the range is fine
    assert forward_convert(ms, 1019).astuple() == (3, 14, 16)


def test_forward_convert_rejects_non_int():
    ms = make_moduli_set(2)
    for x in (True, False, 3.0, "3"):
        with pytest.raises(OutOfRangeError, match="must be an int"):
            forward_convert(ms, x)


def _reference_residues(ms, x):
    residues = tuple(reduce_mod(chan, x) for chan in ms.channels())
    assert residues == (x % ms.m1, x % ms.m2, x % ms.m3)
    return residues


def test_forward_convert_kernel_exhaustive_small_n():
    for n in (1, 2, 3):
        ms = make_moduli_set(n)
        for x in range(ms.M):
            assert forward_convert(ms, x).astuple() == _reference_residues(ms, x)


@st.composite
def set_and_value(draw):
    """A moduli set with n up to 4096 and an X in [0, M) built from its
    2n-bit chunks lo, mid and hi, aimed at each step of the kernel."""
    n = draw(st.one_of(st.integers(1, 8), st.integers(1, 4096)))
    ms = make_moduli_set(n)
    m2 = ms.m2
    hi_max = (1 << n) - 2  # any lo and mid keep X below M
    shape = draw(st.sampled_from(
        ("zero", "top", "minus_m3", "plus_m3", "second_fold", "uniform")))
    if shape == "zero":
        return ms, 0
    if shape == "top":
        return ms, ms.M - 1
    if shape == "uniform":
        return ms, draw(st.integers(0, ms.M - 1))
    if shape == "minus_m3" and n > 1:  # lo - mid + hi >= m3; none at n = 1
        lo, mid, hi = m2, 0, draw(st.integers(2, hi_max))
    elif shape == "second_fold":  # lo + mid + hi = 2 * m2 + hi
        lo, mid, hi = m2, m2, draw(st.integers(0, hi_max))
    else:  # mid > lo + hi, so lo - mid + hi < 0
        mid = draw(st.integers(1, m2))
        lo = draw(st.integers(0, mid - 1))
        hi = draw(st.integers(0, min(hi_max, mid - 1 - lo)))
    return ms, lo | mid << 2 * n | hi << 4 * n


@settings(max_examples=300, deadline=None)
@given(set_and_value())
def test_forward_convert_kernel_property(case):
    ms, x = case
    assert 0 <= x < ms.M
    assert forward_convert(ms, x).astuple() == _reference_residues(ms, x)


def test_residue_vector_contract():
    # ResidueVector keeps the frozen dataclass behaviour, its stamp aside.
    rv = ResidueVector(1, 2, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rv.r2 = 5
    twin = ResidueVector(r1=1, r2=2, r3=3)
    assert rv == twin and hash(rv) == hash(twin)
    assert rv != ResidueVector(1, 2, 4)
    assert rv != (1, 2, 3)
    assert repr(rv) == "ResidueVector(r1=1, r2=2, r3=3)"
    assert dataclasses.replace(rv, r3=7) == ResidueVector(1, 2, 7)
    assert dataclasses.astuple(rv) == rv.astuple() == (1, 2, 3)
    assert [f.name for f in dataclasses.fields(rv)] == ["r1", "r2", "r3"]


# Each record class of core._record: the values of its fields, other values
# for them, a name that is no field, its repr and its signature.
RECORDS = {
    "ModuliSet": (core.ModuliSet, (2,), (3,), "m2", "ModuliSet(n=2)",
                  "(n: int) -> None"),
    "ResidueVector": (ResidueVector, (1, 2, 3), (1, 2, 4), "_set",
                      "ResidueVector(r1=1, r2=2, r3=3)",
                      "(r1: int, r2: int, r3: int) -> None"),
    "ChannelId": (ChannelId, (ChannelKind.POW2_PLUS1, 4),
                  (ChannelKind.POW2_PLUS1, 5), "modulus",
                  "ChannelId(kind=<ChannelKind.POW2_PLUS1: 'pow2_plus1'>, k=4)",
                  "(kind: rns3.channels.ChannelKind, k: int) -> None"),
}


@pytest.mark.parametrize("record", RECORDS)
def test_record_contract(record):
    # Each record behaves as a dataclass(frozen=True) of its fields would.
    cls, values, others, derived, text, signature = RECORDS[record]
    rec = cls(*values)
    names = tuple(f.name for f in dataclasses.fields(cls))
    assert dataclasses.is_dataclass(rec) and names == cls.__match_args__
    assert tuple(getattr(rec, name) for name in names) == values
    assert str(inspect.signature(cls, eval_str=True)) == signature
    # == and hash read the field tuple, and only between records of one class.
    twin = cls(**dict(zip(names, values)))
    assert rec == twin and hash(rec) == hash(twin) == hash(values)
    assert rec != cls(*others) and hash(cls(*others)) == hash(others)
    assert rec != values and rec.__eq__(values) is NotImplemented
    lookalike = type("Lookalike", (cls,), {})(*values)  # same fields, other class
    assert rec != lookalike and lookalike != rec
    assert repr(rec) == text
    assert dataclasses.replace(rec) == rec
    assert dataclasses.replace(rec, **{names[-1]: others[-1]}) == cls(*others)
    with pytest.raises(TypeError, match=derived):
        dataclasses.replace(rec, **{derived: values[-1]})
    for name in (*names, derived, "other"):
        with pytest.raises(dataclasses.FrozenInstanceError, match="assign to"):
            setattr(rec, name, values[-1])
        with pytest.raises(dataclasses.FrozenInstanceError, match="delete"):
            delattr(rec, name)
    assert tuple(getattr(rec, name) for name in names) == values
    copies = [copy.copy(rec), copy.deepcopy(rec)] + [
        pickle.loads(pickle.dumps(rec, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is cls and other == rec and repr(other) == text


@pytest.mark.parametrize("record", [
    name for name, row in RECORDS.items() if "__slots__" not in vars(row[0])])
def test_a_record_keeps_its_values_inline(record):
    # From 3.11, values stored one by one stay inline in the object, and
    # the kernels' reads of them specialise to the fastest attribute load;
    # vars(rec), as test_derived_constants_match_closed_forms calls it on
    # an unshared set, moves them into a dict.
    if sys.version_info < (3, 11):
        pytest.skip("3.10 keeps every instance's values in a dict")
    cls, values = RECORDS[record][:2]
    assert dict not in map(type, gc.get_referents(cls(*values)))


def forged_pickle(rec, state, protocol):
    """A pickle of rec that carries state as its state, in the form that
    pickle's default reduction writes: the class, then the state."""
    class Forger(pickle.Pickler):
        def reducer_override(self, obj):
            if obj is rec:
                return copyreg.__newobj__, (type(rec),), state
            return NotImplemented

    out = io.BytesIO()
    Forger(out, protocol).dump(rec)
    return out.getvalue()


def refusal(fn, *args):
    """The class and the message of the RnsError that fn(*args) raises."""
    with pytest.raises(RnsError) as caught:
        fn(*args)
    return type(caught.value), str(caught.value)


# Each record that checks or derives a value: the values of its fields, a
# name that is no field with a wrong value for it, and field values that
# its constructor refuses (None for ResidueVector, which checks none).
FORGED = {
    "ModuliSet": (core.ModuliSet, (2,), ("m2", 7), (0,)),
    "ResidueVector": (ResidueVector, (1, 2, 3), ("_set", make_moduli_set(1)),
                      None),
    "ChannelId": (ChannelId, (ChannelKind.POW2, 3), ("modulus", 7),
                  (ChannelKind.POW2, core.MAX_WIDTH + 1)),
    "BitWord": (BitWord, (15, 4), ("extra", 1), (255, 4)),
    "ConverterDesign": (ConverterDesign, (Design.OURS, 2), ("extra", 1),
                        (Design.OURS, 0)),
}


@pytest.mark.parametrize("record", FORGED)
def test_a_forged_state_loads_through_init(record):
    # Every pickle and copy loads through the class's own __init__: a value
    # that is no field is derived again or dropped, and a field that the
    # constructor refuses, or a missing one, raises its RnsError.  (A
    # vector's own state pair re-built it before the records shared one.)
    cls, values, (name, wrong), bad = FORGED[record]
    names = cls.__match_args__
    real, forged = cls(*values), cls(*values)
    object.__setattr__(forged, name, wrong)
    state = {**dict(zip(names, values)), name: wrong}
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    for other in [copy.copy(forged), copy.deepcopy(forged)] + [
            pickle.loads(forged_pickle(real, state, p)) for p in protocols]:
        assert type(other) is cls and other == real
        assert getattr(other, name, None) == getattr(real, name, None)
    if bad is None:
        return
    for fields in (bad, (None, *values[1:])):  # out of range, then missing
        want = refusal(cls, *fields)
        state = {key: value for key, value in zip(names, fields)
                 if value is not None}
        for p in protocols:
            assert refusal(pickle.loads, forged_pickle(real, state, p)) == want
    for key, value in zip(names, bad):
        object.__setattr__(forged, key, value)
    assert refusal(copy.copy, forged) == refusal(copy.deepcopy, forged) == \
        refusal(cls, *bad)


@pytest.mark.parametrize("n", [1, 16, 1024])
def test_stamped_vector_contract(n):
    # forward_convert and rns_op build their results as core._Blank, then
    # retype them: each comes back a frozen ResidueVector stamped with ms,
    # like its twin built by hand in all but the stamp.
    ms = make_moduli_set(n)
    a, b = forward_convert(ms, ms.M // 3), forward_convert(ms, ms.M - 1)
    for rv in (a, b, *(rns_op(ms, op, a, b) for op in ("add", "sub", "mul"))):
        assert type(rv) is ResidueVector and rv._set is ms
        for name in ("r1", "r2", "r3", "_set"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rv, name, 0)
        with pytest.raises(TypeError):
            vars(rv)
        twin = ResidueVector(*rv.astuple())
        assert rv == twin and hash(rv) == hash(twin) and repr(rv) == repr(twin)
        assert pickle.dumps(rv) == pickle.dumps(twin)


def test_stamped_vector_pickles_as_its_hand_built_twin():
    # The stamp is not pickled or copied: a stamped vector and its twin
    # built by hand give the same bytes, and copies come back unstamped.
    for n in (1, 2, 16):
        ms = make_moduli_set(n)
        rv = forward_convert(ms, ms.M - 1)
        twin = ResidueVector(*rv.astuple())
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(rv, protocol) == pickle.dumps(twin, protocol)
        for other in (copy.copy(rv), copy.deepcopy(rv), pickle.loads(pickle.dumps(rv))):
            assert other == rv and other.astuple() == twin.astuple()
            assert other._set is twin._set is core._UNSTAMPED


# pickle.dumps(ResidueVector(1, 2, 3), protocol) as written while vectors
# kept their fields in an instance __dict__, for protocols 0, 2 and 5.
DICT_ERA_PICKLES = {
    0: b"ccopy_reg\n_reconstructor\np0\n(crns3.core\nResidueVector\np1\n"
       b"c__builtin__\nobject\np2\nNtp3\nRp4\n(dp5\nVr1\np6\nI1\nsVr2\n"
       b"p7\nI2\nsVr3\np8\nI3\nsb.",
    2: b"\x80\x02crns3.core\nResidueVector\nq\x00)\x81q\x01}q\x02(X\x02\x00"
       b"\x00\x00r1q\x03K\x01X\x02\x00\x00\x00r2q\x04K\x02X\x02\x00\x00\x00"
       b"r3q\x05K\x03ub.",
    5: b"\x80\x05\x95<\x00\x00\x00\x00\x00\x00\x00\x8c\trns3.core\x94\x8c"
       b"\rResidueVector\x94\x93\x94)\x81\x94}\x94(\x8c\x02r1\x94K\x01\x8c"
       b"\x02r2\x94K\x02\x8c\x02r3\x94K\x03ub.",
}


@pytest.mark.parametrize("protocol", sorted(DICT_ERA_PICKLES))
def test_vectors_pickled_with_an_instance_dict_still_load(protocol, monkeypatch):
    data = DICT_ERA_PICKLES[protocol]
    rv = pickle.loads(data)
    assert type(rv) is ResidueVector and rv == ResidueVector(1, 2, 3)
    assert rv._set is core._UNSTAMPED
    assert pickle.dumps(rv, protocol) == data  # and written the same today
    # crt_reconstruct checks it in full before decoding it:
    # X = 23 is 1, 2 and 3 modulo the moduli 2, 3 and 5 of n = 1.
    ms = make_moduli_set(1)
    checked = []
    real = core.validate_residues
    monkeypatch.setattr(core, "validate_residues",
                        lambda *args: checked.append(args) or real(*args))
    assert crt_reconstruct(ms, rv) == 23
    assert checked == [(ms, rv)]


# pickle.dumps(ChannelId(ChannelKind.POW2, 3), protocol) as written while
# channel pickles carried the derived modulus, 8, for protocols 0, 2 and 5,
# and the same bytes with the modulus changed to 7.
MODULUS_ERA_PICKLES = {
    0: (b"ccopy_reg\n_reconstructor\np0\n(crns3.channels\nChannelId\np1\n"
        b"c__builtin__\nobject\np2\nNtp3\nRp4\n(dp5\nVkind\np6\n"
        b"crns3.channels\nChannelKind\np7\n(Vpow2\np8\ntp9\nRp10\nsVk\np11\n"
        b"I3\nsVmodulus\np12\nI8\nsb.", b"I8\nsb.", b"I7\nsb."),
    2: (b"\x80\x02crns3.channels\nChannelId\nq\x00)\x81q\x01}q\x02(X\x04\x00"
        b"\x00\x00kindq\x03crns3.channels\nChannelKind\nq\x04X\x04\x00\x00\x00"
        b"pow2q\x05\x85q\x06Rq\x07X\x01\x00\x00\x00kq\x08K\x03X\x07\x00\x00"
        b"\x00modulusq\tK\x08ub.", b"K\x08ub.", b"K\x07ub."),
    5: (b"\x80\x05\x95]\x00\x00\x00\x00\x00\x00\x00\x8c\rrns3.channels\x94"
        b"\x8c\tChannelId\x94\x93\x94)\x81\x94}\x94(\x8c\x04kind\x94h\x00\x8c"
        b"\x0bChannelKind\x94\x93\x94\x8c\x04pow2\x94\x85\x94R\x94\x8c\x01k"
        b"\x94K\x03\x8c\x07modulus\x94K\x08ub.", b"K\x08ub.", b"K\x07ub."),
}


@pytest.mark.parametrize("protocol", sorted(MODULUS_ERA_PICKLES))
def test_channels_pickled_with_their_modulus_load_it_derived(protocol):
    # The modulus in such a pickle is not read: a forged 7 made
    # reduce_mod(chan, 9) return 2 and channel_op add 3 + 4 return 0.
    data, real, forged = MODULUS_ERA_PICKLES[protocol]
    assert data.count(real) == 1
    for chan in (pickle.loads(data), pickle.loads(data.replace(real, forged))):
        assert chan == ChannelId(ChannelKind.POW2, 3) and chan.modulus == 8
        assert reduce_mod(chan, 9) == 1 and channel_op(chan, "add", 3, 4) == 7


# Each entry point, with rv as its (first) vector operand.
ENTRY_POINTS = {
    "crt_reconstruct": crt_reconstruct,
    "reverse_convert": reverse_convert,
    "decode_trace": decode_trace,
    "rns_op": lambda ms, rv: rns_op(ms, "add", rv, forward_convert(ms, 1)),
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_replaced_or_unpickled_vectors_are_checked_in_full(call):
    ms2, ms3 = make_moduli_set(2), make_moduli_set(3)
    replaced = dataclasses.replace(forward_convert(ms2, 100), r2=ms2.m2)
    with pytest.raises(ResidueError, match="15 out of range for modulus 15"):
        call(ms2, replaced)
    # (7, 63, 64) from n = 3 comes back unstamped, so it is not refused
    # for its set but for its residues.
    unpickled = pickle.loads(pickle.dumps(forward_convert(ms3, ms3.M - 1)))
    with pytest.raises(ResidueError, match="7 out of range for modulus 4"):
        call(ms2, unpickled)


# Each entry point that takes a set and a vector; rns_op takes rv twice,
# as forward_convert would reject a bad set before rns_op saw it.
SET_ENTRY_POINTS = {
    **ENTRY_POINTS,
    "validate_residues": validate_residues,
    "prepare_operands": prepare_operands,
    "rns_op": lambda ms, rv: rns_op(ms, "add", rv, rv),
}


@pytest.mark.parametrize("stamped", [False, True], ids=["hand_built", "stamped"])
@pytest.mark.parametrize("call", SET_ENTRY_POINTS.values(), ids=SET_ENTRY_POINTS)
def test_entry_points_reject_a_non_set(call, stamped):
    # Were the default stamp None, a vector built by hand would pass the
    # stamp test at ms=None, and the set would go unchecked.
    rv = forward_convert(make_moduli_set(2), 100)
    if not stamped:
        rv = ResidueVector(*rv.astuple())
    for bad in (None, (4, 15, 17)):
        with pytest.raises(ParameterError, match="^expected a ModuliSet, got "):
            call(bad, rv)


def test_forward_convert_rejects_a_non_set():
    with pytest.raises(ParameterError, match="^expected a ModuliSet, got None$"):
        forward_convert(None, 1)


def test_crt_reconstruct_rejects_a_tuple():
    with pytest.raises(ResidueError, match=r"^expected a ResidueVector, got \(0, 10, 15\)$"):
        crt_reconstruct(make_moduli_set(2), (0, 10, 15))


def test_crt_reconstruct_rejects_a_vector_of_another_set():
    # forward_convert(ms2, 17) is (1, 2, 0): in range for n = 3 as well,
    # where it would reconstruct to 65.
    rv = forward_convert(make_moduli_set(2), 17)
    with pytest.raises(ResidueError, match="^the vector was built for "
                                           "the set of n=2, not for n=3$"):
        crt_reconstruct(make_moduli_set(3), rv)


def test_crt_reconstruct_checks_a_stamped_vector():
    # The oracle trusts no stamp: a stamped vector whose r2 is set to m2
    # keeps its stamp, and reverse_convert, which trusts it, decodes
    # (0, 15, 15) to 780.
    ms2 = make_moduli_set(2)
    rv = forward_convert(ms2, 100)
    object.__setattr__(rv, "r2", ms2.m2)
    assert rv._set is ms2
    with pytest.raises(ResidueError, match="^R2=15 out of range for modulus 15$"):
        crt_reconstruct(ms2, rv)


def test_validate_residues():
    ms = make_moduli_set(2)
    validate_residues(ms, ResidueVector(3, 14, 16))
    with pytest.raises(ResidueError, match="R2"):
        validate_residues(ms, ResidueVector(0, 15, 0))
    with pytest.raises(ResidueError):
        validate_residues(ms, ResidueVector(-1, 0, 0))


def test_crt_reconstruct_examples():
    ms = make_moduli_set(2)
    rv = ResidueVector(0, 10, 15)
    assert brute_force_decode(ms, rv) == 100
    assert crt_reconstruct(ms, rv) == 100

    ms1 = make_moduli_set(1)
    rv1 = ResidueVector(1, 2, 3)
    assert brute_force_decode(ms1, rv1) == 23
    assert crt_reconstruct(ms1, rv1) == 23

    for n in (1, 2, 5):
        assert crt_reconstruct(make_moduli_set(n), ResidueVector(0, 0, 0)) == 0


def textbook_crt(n, residues):
    """Independent oracle for crt_reconstruct: the CRT weighted sum over the
    moduli written out from n, with weights by division and inverses by
    pow.  It calls no rns3 code."""
    moduli = (1 << n, (1 << 2 * n) - 1, (1 << 2 * n) + 1)
    M = moduli[0] * moduli[1] * moduli[2]
    return sum(r * (M // m) * pow(M // m, -1, m)
               for r, m in zip(residues, moduli)) % M


def test_crt_reconstruct_matches_textbook_crt_exhaustive_small_n():
    for n in (1, 2, 3):
        ms = make_moduli_set(n)
        for r1 in range(ms.m1):
            for r2 in range(ms.m2):
                for r3 in range(ms.m3):
                    want = textbook_crt(n, (r1, r2, r3))
                    assert crt_reconstruct(ms, ResidueVector(r1, r2, r3)) == want


@st.composite
def set_and_residues(draw):
    """A moduli set with n up to 4096 and residues drawn from the edges
    {0, m - 1} or uniformly."""
    n = draw(st.one_of(st.integers(1, 8), st.integers(1, 4096)))
    ms = make_moduli_set(n)
    return ms, tuple(
        draw(st.one_of(st.sampled_from((0, m - 1)), st.integers(0, m - 1)))
        for m in ms.moduli())


@settings(max_examples=200, deadline=None)
@given(set_and_residues())
def test_crt_reconstruct_matches_textbook_crt_property(case):
    ms, residues = case
    want = textbook_crt(ms.n, residues)
    assert crt_reconstruct(ms, ResidueVector(*residues)) == want


def test_codec_at_the_largest_n():
    # The property tests draw n <= 4096; the guard admits n up to MAX_N.
    ms = make_moduli_set(core.MAX_N)
    rng = random.Random(65536)
    for x in (0, ms.M - 1, *(rng.randrange(ms.M) for _ in range(3))):
        rv = forward_convert(ms, x)
        assert rv.astuple() == (x % ms.m1, x % ms.m2, x % ms.m3)
        assert reverse_convert(ms, rv) == x
        assert crt_reconstruct(ms, rv) == x
    x, y = rng.randrange(ms.M), rng.randrange(ms.M)
    a, b = forward_convert(ms, x), forward_convert(ms, y)
    for op, want in (("add", x + y), ("sub", x - y), ("mul", x * y)):
        assert reverse_convert(ms, rns_op(ms, op, a, b)) == want % ms.M


# What each call leaves allocated: a stamped vector and its three residues,
# or one decoded int.  At n = 2 cached small ints read below these counts.
@pytest.mark.parametrize("n", [16, 1024])
@pytest.mark.parametrize("kernel, blocks", [
    ("forward_convert", 4), ("rns_op add", 4), ("rns_op sub", 4),
    ("rns_op mul", 4), ("reverse_convert", 1), ("crt_reconstruct", 1),
])
def test_kernels_allocate_a_fixed_number_of_blocks_per_call(kernel, blocks, n):
    ms = make_moduli_set(n)
    rng = random.Random(n)
    xs = [rng.randrange(ms.M) for _ in range(2000)]
    a = [forward_convert(ms, x) for x in xs]
    fn, *columns = {
        "forward_convert": (forward_convert, repeat(ms), xs),
        "rns_op add": (rns_op, repeat(ms), repeat("add"), a, a[::-1]),
        "rns_op sub": (rns_op, repeat(ms), repeat("sub"), a, a[::-1]),
        "rns_op mul": (rns_op, repeat(ms), repeat("mul"), a, a[::-1]),
        "reverse_convert": (reverse_convert, repeat(ms), a),
        "crt_reconstruct": (crt_reconstruct, repeat(ms), a),
    }[kernel]
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        kept = list(map(fn, *columns))  # the results stay alive
        after = sys.getallocatedblocks()
    finally:
        gc.enable()
    assert (after - before) / len(kept) == pytest.approx(blocks, abs=0.05)


def executed_bytecodes(fn, *args):
    """Bytecodes that fn(*args) executes, its callees' included."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        count += event == "opcode"
        return trace

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(outer)
    return count


def kernel_bytecodes(n):
    """{kernel: bytecodes per call} at size n, on the operand M // 3."""
    ms = make_moduli_set(n)
    x = ms.M // 3
    a = forward_convert(ms, x)
    return {
        "forward_convert": executed_bytecodes(forward_convert, ms, x),
        "reverse_convert": executed_bytecodes(reverse_convert, ms, a),
        "reverse_convert hand-built": executed_bytecodes(
            reverse_convert, ms, ResidueVector(*a.astuple())),
        "crt_reconstruct": executed_bytecodes(crt_reconstruct, ms, a),
        "rns_op mul": executed_bytecodes(rns_op, ms, "mul", a, a),
        "rns_op add": executed_bytecodes(rns_op, ms, "add", a, a),
        "decode_trace": executed_bytecodes(decode_trace, ms, a),
    }


# Per minor version, each kernel's bytecodes per call, in the order of
# kernel_bytecodes: 3.10.13, 3.11.7, 3.12.1 and 3.13.0.
BYTECODE_BUDGETS = {
    (3, 10): (111, 127, 226, 197, 120, 113, 1332),
    (3, 11): (108, 120, 228, 202, 114, 107, 1388),
    (3, 12): (105, 119, 214, 189, 114, 107, 1263),
    (3, 13): (88, 105, 201, 181, 104, 99, 1203),
}


def test_kernels_execute_a_fixed_number_of_bytecodes_per_call():
    """Each kernel executes the same bytecodes at every n, exactly its
    budget for the running minor version.

    A count is exact where a timing is not, so a budget sees one bytecode
    more, such as a mask computed per call instead of read from the set.
    A change that lowers a count lowers its budget; one that raises it
    says why.  Counts do not see big-int work: rns_op mul's three products
    are one bytecode each at any n, so at large n timed runs stay the
    evidence.  With no budget row for the running version, the test
    checks only that no count depends on n, and prints the counts.
    """
    executed_bytecodes(make_moduli_set, 2)  # 3.12 counts 0 on a first trace
    counts = [kernel_bytecodes(n) for n in (2, 16, 1024)]
    assert counts[0] == counts[1] == counts[2]
    budget = BYTECODE_BUDGETS.get(sys.version_info[:2])
    if budget is None:
        print(f"bytecodes per call on {sys.version.split()[0]}: {counts[0]}")
    else:
        assert counts[0] == dict(zip(counts[0], budget))


# The stdlib modules that rns3 imports at module level, loaded before a
# count starts, so that the modules counted are rns3's and those it adds.
PRELOADED = ("__future__", "argparse", "bisect", "dataclasses", "enum",
             "functools", "itertools", "math", "operator", "random", "re", "time")

# Run as python -c COLD_START SRC MODULE [NAME ...]: imports MODULE (from
# MODULE import NAME, ...) and prints the bytecodes of rns3 code that it
# executes, the AST nodes of the rns3 sources that it loads, the modules
# that it loads, the code that it execs that is no module's body, and the
# functions that this code defines, not counting the builder in which
# dataclass() wraps them.  ast is imported after the count of modules.
COLD_START = f"""
import os, sys
src, module, *fromlist = sys.argv[1:]
sys.path.insert(0, src)
package = os.path.join(src, "rns3", "")
for name in {PRELOADED!r}:
    __import__(name)
execs = []


def hook(event, args):
    if event == "exec":
        execs.append(args[0])


def trace(frame, event, arg):
    global count
    frame.f_trace_opcodes = True  # on every frame: 3.12 needs it set once
    if not frame.f_code.co_filename.startswith(package):
        return None  # stdlib code may change between patch releases
    count += event == "opcode"
    return trace


def traced(fn, *args):
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(None)


def defined(code):
    inner = [c for c in code.co_consts if hasattr(c, "co_code")]
    return sum(defined(c) + (c.co_name != "__create_fn__") for c in inner)


sys.addaudithook(hook)
count = 0
traced(lambda: None)  # 3.12 counts 0 on a first trace
count, before = 0, set(sys.modules)
traced(__import__, module, None, None, fromlist)
loaded = [sys.modules[name] for name in sys.modules.keys() - before]
bodies = {{getattr(m, "__file__", None) for m in sys.modules.values()}}
made = [code for code in execs if code.co_filename not in bodies]
import ast
sources = [m.__loader__.get_source(m.__name__) for m in loaded
           if getattr(m, "__file__", "").startswith(package)]
nodes = sum(len(list(ast.walk(ast.parse(source)))) for source in sources)
print(count, nodes, len(loaded), len(made), sum(map(defined, made)))
"""

# The codec, computing on vectors, and the CLI.
COLD_START_IMPORTS = {
    "from rns3 import converter, core": ("rns3", "converter", "core"),
    "from rns3 import channels, converter, core": (
        "rns3", "channels", "converter", "core"),
    "import rns3.cli": ("rns3.cli",),
}

# Per minor version, for each import of COLD_START_IMPORTS in turn: the
# bytecodes of rns3 code executed, the AST nodes of the rns3 sources
# loaded, the modules loaded, the code execed that is no module's body and
# the functions that it defines, on 3.10.13, 3.11.7, 3.12.1 and 3.13.0.
# 3.13's dataclass() execs one builder per class even when it generates
# no method: hence its 2 and 3 execs that define nothing.
COLD_START_BUDGETS = {
    (3, 10): ((499, 2578, 4, 0, 0), (676, 3440, 5, 0, 0), (852, 6554, 6, 0, 0)),
    (3, 11): ((502, 2578, 4, 0, 0), (681, 3440, 5, 0, 0), (841, 6554, 6, 0, 0)),
    (3, 12): ((467, 2578, 4, 0, 0), (637, 3440, 5, 0, 0), (795, 6554, 6, 0, 0)),
    (3, 13): ((514, 2578, 4, 2, 0), (700, 3440, 5, 3, 0), (870, 6554, 6, 3, 0)),
}


def test_imports_execute_a_fixed_number_of_bytecodes_and_generate_no_code(tmp_path):
    """Each import executes exactly its budget of rns3 bytecodes for the
    running minor version, compiles its budget of AST nodes, loads its
    budget of modules and defines no function from code generated at run
    time, such as the methods that dataclass(frozen=True) compiles.

    Each import runs in a fresh -I -S -B process that compiles every rns3
    module from source (its pycache_prefix is an empty directory), so that
    neither a stale __pycache__, PYTHONPATH nor a site .pth file changes
    the importer's path.  Only rns3's own frames are counted: the stdlib's
    code, such as importlib's and dataclass()'s, may change between patch
    releases, and the execs and the functions that they define are counted
    instead.  Bytecodes do not see compiling, which runs in C and takes
    time in step with the AST nodes of the sources loaded, so those are
    counted too: a shorter module compiles faster.  A change that lowers a
    count lowers its budget; one that raises it says why.  With no budget
    row for the running version, the test prints the counts.
    """
    src = str(Path(core.__file__).parent.parent)
    counts = []
    for module, *fromlist in COLD_START_IMPORTS.values():
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-B", "-X", f"pycache_prefix={tmp_path}",
             "-c", COLD_START, src, module, *fromlist],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        counts.append(tuple(map(int, proc.stdout.split())))
    budget = COLD_START_BUDGETS.get(sys.version_info[:2])
    if budget is None:
        print(f"import counts on {sys.version.split()[0]}: {counts}")
    else:
        assert dict(zip(COLD_START_IMPORTS, counts)) == \
            dict(zip(COLD_START_IMPORTS, budget))


def test_crt_reconstruct_rejects_bad_residue():
    ms = make_moduli_set(2)
    with pytest.raises(ResidueError):
        crt_reconstruct(ms, ResidueVector(4, 0, 0))


def test_non_int_residues_are_rejected():
    ms = make_moduli_set(2)
    for idx, rv in ((1, ResidueVector(1.0, 2, 3)),
                    (2, ResidueVector(1, True, 3)),
                    (3, ResidueVector(1, 2, "3"))):
        with pytest.raises(ResidueError, match=f"^R{idx}=.* is not an int$"):
            validate_residues(ms, rv)
        with pytest.raises(ResidueError, match=f"^R{idx}="):
            crt_reconstruct(ms, rv)


def test_inverse_constants():
    assert inverse_constants(make_moduli_set(2)) == (3, 2, 2)
    assert inverse_constants(make_moduli_set(1)) == (1, 1, 1)
    n = core.MAX_N  # the weights are re-verified, as no set build does
    assert inverse_constants(make_moduli_set(n)) == (
        2 ** n - 1, 2 ** (n - 1), 2 ** (n - 1))
    # direct products for n=2
    assert 68 * 2 % 15 == 1
    assert 60 * 2 % 17 == 1


def test_library_has_no_code_that_python_O_removes():
    # python -O strips assert statements and code that depends on
    # __debug__, and nothing else; sys.flags is how code could tell.
    paths = sorted(Path(core.__file__).parent.glob("*.py"))
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Name) and node.id == "__debug__"
             or isinstance(node, ast.Attribute) and node.attr == "flags"]
    assert len(paths) > 1 and found == []


def test_inverse_constants_rejects_a_wrong_weight():
    ms = core.ModuliSet(4)  # unshared, so the forged weight stays here
    object.__setattr__(ms, "inv2", 3)
    with pytest.raises(ParameterError, match="not the inverse"):
        inverse_constants(ms)
