"""Moduli set construction, forward conversion and the weighted-sum decoder."""

import copy
import dataclasses
import functools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rns3 import core
from rns3.channels import reduce_mod, rns_op
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
from rns3.costs import emit_table
from rns3.errors import OutOfRangeError, ParameterError, ResidueError


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
    make_moduli_set(1)  # cached; True == 1 and 1.0 == 1 must not hit it
    for n in (True, 1.0, 2.0, "2"):
        with pytest.raises(ParameterError, match="must be an int"):
            make_moduli_set(n)


def test_make_moduli_set_shares_one_set_per_n():
    ms = make_moduli_set(4096)
    assert make_moduli_set(4096) is ms
    assert make_moduli_set(1) is make_moduli_set(1)
    assert make_moduli_set(2) is not make_moduli_set(1)


def test_failed_build_is_not_cached(monkeypatch):
    builder = functools.lru_cache(maxsize=None)(core._moduli_set.__wrapped__)
    monkeypatch.setattr(core, "_moduli_set", builder)
    with monkeypatch.context() as broken:
        broken.setattr(core, "pairwise_coprime", lambda values: False)
        with pytest.raises(ParameterError, match="not pairwise coprime"):
            make_moduli_set(5)
    assert builder.cache_info().currsize == 0
    ms = make_moduli_set(5)
    assert make_moduli_set(5) is ms and ms.moduli() == (32, 1023, 1025)


def test_moduli_set_product_invariants():
    # mhat_i * m_i == M pins the shift-built weights to M // m_i.
    for n in [*range(1, 65), 1024, 4096]:
        ms = make_moduli_set(n)
        assert ms.m1 * ms.m2 * ms.m3 == ms.M
        assert ms.mhat1 * ms.m1 == ms.M
        assert ms.mhat2 * ms.m2 == ms.M
        assert ms.mhat3 * ms.m3 == ms.M


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
    "BitWord.concat-int": lambda: BitWord.concat([1]),
    "BitWord.ones-negative": lambda: BitWord.ones(-1),
    "BitWord.ones-str": lambda: BitWord.ones("3"),
    "emit_table-int": lambda: emit_table(5),
}


@pytest.mark.parametrize("call", WRONG_TYPED_INPUTS.values(), ids=WRONG_TYPED_INPUTS)
def test_wrong_typed_inputs_raise_parameter_error(call):
    with pytest.raises(ParameterError):
        call()


def test_coprimality_up_to_64():
    for n in range(1, 65):
        ms = make_moduli_set(n)
        assert pairwise_coprime(list(ms.moduli()))


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
            assert other == rv and vars(other) == vars(twin)


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
    # direct products for n=2
    assert 68 * 2 % 15 == 1
    assert 60 * 2 % 17 == 1


def test_inverse_law_up_to_64():
    for n in range(1, 65):
        ms = make_moduli_set(n)
        assert ms.mhat1 * ms.inv1 % ms.m1 == 1
        assert ms.mhat2 * ms.inv2 % ms.m2 == 1
        assert ms.mhat3 * ms.inv3 % ms.m3 == 1
        assert (ms.inv1, ms.inv2, ms.inv3) == (2**n - 1, 2**(n - 1), 2**(n - 1))


def test_roundtrip_exhaustive_small_n():
    for n in (1, 2, 3):
        ms = make_moduli_set(n)
        for x in range(ms.M):
            assert crt_reconstruct(ms, forward_convert(ms, x)) == x


def test_roundtrip_random_large_n():
    rng = random.Random(1234)
    for n in (4, 8, 16, 32):
        ms = make_moduli_set(n)
        for _ in range(10000):
            x = rng.randrange(ms.M)
            assert crt_reconstruct(ms, forward_convert(ms, x)) == x


def test_set_invariants_are_checked_without_assert(monkeypatch):
    # Bypass the set cache, so that n = 4 is built here, not looked up.
    monkeypatch.setattr(core, "_moduli_set", core._moduli_set.__wrapped__)
    monkeypatch.setattr(core, "pairwise_coprime", lambda values: False)
    with pytest.raises(ParameterError, match="not pairwise coprime"):
        make_moduli_set(4)


def test_inverse_constants_rejects_a_wrong_weight():
    ms = dataclasses.replace(make_moduli_set(4), inv2=3)
    with pytest.raises(ParameterError, match="not the inverse"):
        inverse_constants(ms)


# Runs under python -O, where assert statements are stripped: every
# check here raises SystemExit instead.
OPTIMIZED_SCRIPT = """
import random
from rns3 import converter, core
from rns3.errors import ParameterError

if __debug__:
    raise SystemExit("not running under -O")
rng = random.Random(1)
for n in (1, 16):
    ms = core.make_moduli_set(n)
    for x in [0, ms.M - 1] + [rng.randrange(ms.M) for _ in range(500)]:
        rv = core.forward_convert(ms, x)
        if converter.reverse_convert(ms, rv) != x:
            raise SystemExit(f"n={n}: round trip of {x} failed")
core.pairwise_coprime = lambda values: False
try:
    core.make_moduli_set(2)
except ParameterError:
    pass
else:
    raise SystemExit("set invariant not checked under -O")
"""


ROOT = Path(__file__).resolve().parent.parent


def _run_optimized(*args):
    """python -O with args, importing rns3 from this checkout's src."""
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-O", *args], cwd=ROOT,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def test_roundtrip_and_invariants_under_python_O():
    proc = _run_optimized("-c", OPTIMIZED_SCRIPT)
    assert proc.returncode == 0, proc.stderr


def test_property_tests_under_python_O():
    # pytest rewrites the asserts of test modules, so the properties are
    # still checked while the library runs with -O.
    proc = _run_optimized(
        "-m", "pytest", "-q", "-p", "no:cacheprovider", "-m", "hypothesis",
        *(f"tests/test_{name}.py" for name in ("channels", "core", "converter")))
    assert proc.returncode == 0, proc.stdout + proc.stderr
