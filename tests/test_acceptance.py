"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines
and timings.
"""

import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import rns3
from rns3.channels import rns_op
from rns3.converter import (
    BitWord,
    csa_eac,
    merged_summand,
    mod_add_end_around,
    prepare_operands,
    r1_summand,
    r2_summand,
    r3_comp_summand,
    r3_rot_summand,
    reverse_convert,
)
from rns3.core import (
    ResidueVector,
    crt_reconstruct,
    forward_convert,
    make_moduli_set,
)
from rns3.costs import (
    ChannelAdder,
    ConverterDesign,
    Design,
    case_census,
    ceil_log2,
    channel_adder_delay,
    delay_case,
    delay_total,
    matched_three_channel_size,
    modular_adder_delay,
    table4,
)

GOLDEN = Path(__file__).parent / "golden" / "table4.csv"

TABLE4_EXPECTED = (
    (8, 2, 3, 151, 136, "11.02", 12, 14, "14.2"),
    (16, 4, 6, 341, 298, "14.42", 14, 16, "12.5"),
    (32, 7, 11, 674, 604, "11.58", 16, 18, "11.1"),
    (64, 13, 22, 1400, 1330, "5.26", 18, 20, "10"),
)


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS "
          f"[{time.perf_counter() - start:.2f}s]")


def test_criterion_1_exhaustive_roundtrip():
    with criterion(1, "exhaustive roundtrip n=1..3"):
        for n, m_expected in ((1, 30), (2, 1020), (3, 32760)):
            ms = make_moduli_set(n)
            assert ms.M == m_expected
            for x in range(ms.M):
                rv = forward_convert(ms, x)
                assert reverse_convert(ms, rv) == x
                assert crt_reconstruct(ms, rv) == x


def test_criterion_2_randomized_roundtrip():
    with criterion(2, "randomized roundtrip n=4,8,16,32"):
        rng = random.Random(20240)
        for n in (4, 8, 16, 32):
            ms = make_moduli_set(n)
            for _ in range(10000):
                x = rng.randrange(ms.M)
                rv = forward_convert(ms, x)
                assert reverse_convert(ms, rv) == x
                assert crt_reconstruct(ms, rv) == x


def test_criterion_3_worked_example():
    with criterion(3, "worked example (0,10,15) at n=2"):
        ms = make_moduli_set(2)
        rv = ResidueVector(0, 10, 15)
        ops = prepare_operands(ms, rv)
        assert ops.s1_prime == BitWord(225, 8)
        assert ops.s2 == BitWord(85, 8)
        assert ops.s31 == BitWord(225, 8)
        s, carry = csa_eac(ops.s1_prime, ops.s2, ops.s31)
        assert (s.value, carry.value) == (85, 195)
        y = mod_add_end_around(s, carry)
        assert y == 25
        assert reverse_convert(ms, rv) == 100


def test_criterion_4_operand_value_lemmas():
    with criterion(4, "operand-value lemmas and merge identity"):
        for n in (1, 2, 3):
            ms = make_moduli_set(n)
            modw = (1 << 4 * n) - 1
            coeff2 = (1 << (3 * n - 1)) + (1 << (n - 1))
            coeff3 = (1 << (3 * n - 1)) - (1 << (n - 1))
            for r1 in range(ms.m1):
                assert (r1_summand(n, r1) % modw
                        == (-(1 << 3 * n) * r1) % modw)
            for r2 in range(ms.m2):
                assert r2_summand(n, r2) % modw == coeff2 * r2 % modw
            for r3 in range(ms.m3):
                rot = r3_rot_summand(n, r3)
                comp = r3_comp_summand(n, r3)
                assert rot % modw == (1 << 3 * n - 1) * r3 % modw
                assert (rot + comp) % modw == coeff3 * r3 % modw
            for r1 in range(ms.m1):
                s1 = r1_summand(n, r1)
                for r3 in range(ms.m3):
                    s32 = r3_comp_summand(n, r3)
                    assert ((s1 + s32) % modw
                            == merged_summand(n, r1, r3) % modw)


def test_criterion_5_reconstruction_weights():
    with criterion(5, "closed-form weights are inverses, n=1..64"):
        for n in range(1, 65):
            ms = make_moduli_set(n)
            assert ms.mhat1 * ms.inv1 % ms.m1 == 1
            assert ms.mhat2 * ms.inv2 % ms.m2 == 1
            assert ms.mhat3 * ms.inv3 % ms.m3 == 1


def test_criterion_6_comparison_table_cells():
    with criterion(6, "comparison table reproduction (32 cells)"):
        rows = table4()
        assert len(rows) == 4
        for row, want in zip(rows, TABLE4_EXPECTED):
            got = (row.dr_bits, row.n, row.m, row.a_ours, row.a_ref11,
                   row.extra_area_pct, row.t_ours, row.t_ref11,
                   row.speedup_pct)
            assert got == want


def test_criterion_7_delay_model_consistency():
    with criterion(7, "delay decompositions, channel comparison, census"):
        for n in range(1, 51):
            L = ceil_log2(n)
            assert delay_total(ConverterDesign(Design.OURS, n)) == \
                1 + 2 + modular_adder_delay(4 * n) == 2 * L + 10
            assert delay_total(ConverterDesign(Design.REF1, n)) == \
                1 + 3 * 2 + modular_adder_delay(4 * n) == 2 * L + 14
            assert delay_total(ConverterDesign(Design.REF9, n)) == \
                1 + 4 * 2 + modular_adder_delay(4 * n) == 2 * L + 16
            m = matched_three_channel_size(n)
            t11 = delay_total(ConverterDesign(Design.REF11, m))
            assert t11 == 1 + 2 + 2 + modular_adder_delay(2 * m)
            case = delay_case(n, m)
            assert case in (1, 2)
            assert t11 == 2 * L + (12 if case == 1 else 10)
        # addition mod 2^(2n)+1 strictly beats the five-channel bound
        for n in range(2, 1001):
            assert (channel_adder_delay(ChannelAdder.MOD_2POW2N_PLUS1, n)
                    < channel_adder_delay(ChannelAdder.MOD_HIASAT, n))
        case1, case2 = case_census(1, 50)
        assert abs(case1 - 73.0) <= 2.0
        assert abs(case2 - 26.0) <= 2.0


def test_criterion_8_homomorphism():
    with criterion(8, "vector arithmetic matches big-integer arithmetic"):
        # additive homomorphism, every pair, n=1 and n=2
        for n in (1, 2):
            ms = make_moduli_set(n)
            vecs = [forward_convert(ms, x) for x in range(ms.M)]
            for x in range(ms.M):
                a = vecs[x]
                for y in range(ms.M):
                    assert rns_op(ms, "add", a, vecs[y]) == vecs[(x + y) % ms.M]
        # n=3: every per-channel operand pair, plus sampled vector composition
        # (a direct pair sweep would be 32760^2 vector ops)
        ms = make_moduli_set(3)
        for i, m in enumerate(ms.moduli()):
            # r in channel i, 0 in the others
            vecs = [ResidueVector(*(r if j == i else 0 for j in range(3)))
                    for r in range(m)]
            for a in range(m):
                for b in range(m):
                    got = rns_op(ms, "add", vecs[a], vecs[b])
                    assert got.astuple()[i] == (a + b) % m
        rng = random.Random(83)
        for _ in range(10000):
            x, y = rng.randrange(ms.M), rng.randrange(ms.M)
            got = rns_op(ms, "add", forward_convert(ms, x),
                         forward_convert(ms, y))
            assert got == forward_convert(ms, (x + y) % ms.M)
        # multiplicative homomorphism: every pair at n=1, sampled above
        ms = make_moduli_set(1)
        vecs = [forward_convert(ms, x) for x in range(ms.M)]
        for x in range(ms.M):
            for y in range(ms.M):
                assert rns_op(ms, "mul", vecs[x], vecs[y]) == vecs[x * y % ms.M]
        for n in (2, 3, 4, 8):
            ms = make_moduli_set(n)
            rng = random.Random(1000 + n)
            for _ in range(100000):
                x, y = rng.randrange(ms.M), rng.randrange(ms.M)
                got = rns_op(ms, "mul", forward_convert(ms, x),
                             forward_convert(ms, y))
                assert got == forward_convert(ms, x * y % ms.M)


def test_criterion_9_csv_byte_stability():
    with criterion(9, "comparison-table csv is byte-identical to golden"):
        proc = subprocess.run(
            [sys.executable, "-m", "rns3", "costs", "--table", "4",
             "--format", "csv"],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == GOLDEN.read_bytes()


# The package's public names load their submodule on first read.  Which
# modules a process has loaded is process state, so those checks run in
# fresh interpreters.

SRC = str(Path(__file__).resolve().parent.parent / "src")
PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
SUBMODULES = ("errors", "channels", "core", "converter", "datapath", "costs",
              "cli")


def fresh_python(code):
    """Run code in a new interpreter importing rns3 from this checkout."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(statement):
    return fresh_python(
        f"import sys\n{statement}\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'rns3'))"
    ).split()


def test_import_rns3_loads_no_submodule():
    # dir() lists every export without loading any.
    assert loaded_after(
        "import rns3\n"
        "assert set(rns3.__all__) <= set(dir(rns3))") == ["rns3"]


def test_codec_import_leaves_channels_and_costs_unloaded():
    assert loaded_after("from rns3 import converter, core") == \
        ["rns3", "rns3.converter", "rns3.core", "rns3.errors"]


def test_readme_library_example_runs_and_loads_the_modules_it_names():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "assert reverse_convert(" in example
    assert loaded_after(example) == [
        "rns3", "rns3.channels", "rns3.converter", "rns3.core", "rns3.errors"]


def test_converter_loads_the_staged_path_on_first_read():
    fresh_python(
        "import sys\n"
        "from rns3.converter import reverse_convert\n"
        "from rns3 import converter\n"
        "try:\n"
        "    converter.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('converter.no_such_name resolved')\n"
        "assert 'rns3.datapath' not in sys.modules\n"
        "assert 'decode_trace' not in vars(converter)\n"
        "f = converter.decode_trace\n"
        "assert vars(converter)['decode_trace'] is f\n"
        "assert f is sys.modules['rns3.datapath'].decode_trace")


@pytest.mark.parametrize("argv, staged", [
    (["encode", "--n", "16", "12345"], False),
    (["decode", "--n", "2", "0", "10", "15"], False),
    (["decode", "--n", "2", "--trace", "0", "10", "15"], True),
])
def test_cli_codec_commands_leave_costs_unloaded(argv, staged):
    # Only decode --trace loads the staged datapath; no codec command
    # loads the cost model.
    loaded = fresh_python(
        "import sys\n"
        "from rns3.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'rns3'))"
    ).splitlines()[-1].split()
    assert "rns3.costs" not in loaded
    assert ("rns3.datapath" in loaded) is staged


@pytest.mark.parametrize("module", SUBMODULES)
def test_each_submodule_can_be_imported_first(module):
    out = fresh_python(
        f"import rns3.{module}\n"
        "import rns3\n"
        "print(len([getattr(rns3, name) for name in rns3.__all__]))")
    assert out == f"{len(rns3.__all__)}\n"


def test_channels_loads_on_demand_for_moduli_set_channels():
    out = fresh_python(
        "import sys\n"
        "from rns3.core import make_moduli_set\n"
        "assert 'rns3.channels' not in sys.modules\n"
        "print(*((c.kind.value, c.k, c.modulus)\n"
        "        for c in make_moduli_set(3).channels()))")
    assert out == "('pow2', 3, 8) ('pow2_minus1', 6, 63) ('pow2_plus1', 6, 65)\n"


def test_the_benchmark_tracer_resolves_every_name_it_wraps():
    # perfbench/tracer.py wraps rns3 functions and counts BitWords by
    # name, so install raises AttributeError on a renamed one.
    out = fresh_python(
        "import sys\n"
        f"sys.path.insert(0, {PERFBENCH!r})\n"
        "from tracer import COUNTS, SPANS, Tracer\n"
        "from rns3 import datapath, decode_trace, forward_convert, make_moduli_set\n"
        "stage = datapath.prepare_operands\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "ms = make_moduli_set(16)\n"
        "assert decode_trace(ms, forward_convert(ms, 99)).x.value == 99\n"
        "tracer.uninstall()\n"
        "assert datapath.prepare_operands is stage\n"
        "print(tracer.calls[SPANS.index('converter.prepare_operands')],\n"
        "      tracer.counts[COUNTS.index('converter.BitWord')])")
    assert out == "1 7\n"


# The public API: these names, in this order, are a contract.
PUBLIC_NAMES = """
    BitWord ChannelAdder ChannelId ChannelKind ConverterDesign
    CostReport Design GateCosts HwBill ModuliSet OperandSet
    OutOfRangeError ParameterError ResidueError ResidueVector RnsError
    area_total channel_adder_delay channel_op crt_reconstruct csa_eac
    decode_trace delay_total emit_table forward_convert hw_bill
    inverse_constants make_moduli_set mod_add_end_around
    neg_mod_pow2_minus1 pairwise_coprime prepare_operands reduce_mod
    reverse_convert rns_op rotl_mod_pow2_minus1 table4 validate_residues
""".split()


def test_exports_are_the_defining_modules_objects():
    assert rns3.__all__ == PUBLIC_NAMES
    for name in rns3.__all__:
        obj = getattr(rns3, name)
        assert obj.__module__.startswith("rns3.")
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from rns3 import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == rns3.__all__
    out = fresh_python("from rns3 import *\n"
                       "print(forward_convert(make_moduli_set(16), 12345))")
    assert out == "ResidueVector(r1=12345, r2=12345, r3=12345)\n"


@pytest.mark.parametrize("name", ["no_such_name", "merged_summand", "Enum"])
def test_unknown_name_raises_attribute_error(name):
    # merged_summand and Enum are module-level names of submodules, but
    # not exports.
    with pytest.raises(AttributeError, match=name):
        getattr(rns3, name)
    assert not hasattr(rns3, name)


def test_first_read_binds_the_name_into_the_package():
    fresh_python(
        "import rns3\n"
        "assert 'decode_trace' not in vars(rns3)\n"
        "f = rns3.decode_trace\n"
        "assert vars(rns3)['decode_trace'] is f\n"
        "assert f is rns3.converter.decode_trace")
