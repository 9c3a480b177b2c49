"""Unit-gate cost model: bills, totals, comparison table, census."""

import pytest

from rns3 import converter, core, costs, datapath
from rns3.channels import channel_op, reduce_mod
from rns3.costs import (
    ChannelAdder,
    ConverterDesign,
    Design,
    GateCosts,
    area_total,
    case_census,
    ceil_log2,
    channel_adder_delay,
    delay_case,
    delay_total,
    emit_table,
    hw_bill,
    matched_three_channel_size,
    modular_adder_area,
    table4,
    truncate_pct,
)
from rns3.errors import ParameterError

def test_ceil_log2():
    assert [ceil_log2(x) for x in (1, 2, 3, 4, 5, 8, 9, 1024, 1025)] == \
        [0, 1, 2, 2, 3, 3, 4, 10, 11]
    with pytest.raises(ParameterError):
        ceil_log2(0)


def test_gate_cost_reference_values():
    c = GateCosts()
    assert (c.delay_inv, c.delay_and, c.delay_xor, c.delay_fa, c.delay_mux) == \
        (1, 1, 2, 2, 2)
    assert (c.area_not, c.area_and, c.area_or, c.area_xor, c.area_xnor) == \
        (1, 1, 1, 2, 2)


def test_gate_costs_refuse_overrides():
    # area_total and delay_total read the class; nothing else could reach them.
    with pytest.raises(TypeError):
        GateCosts(delay_fa=3)
    with pytest.raises(AttributeError):
        GateCosts().delay_fa = 3
    assert delay_total(ConverterDesign(Design.OURS, 2)) == 12


def test_composite_cells_are_primitive_sums():
    c = GateCosts()
    assert c.area_fa == 2 * c.area_xor + 2 * c.area_and + c.area_or
    assert c.area_xor_and_pair == c.area_ha == c.area_xor + c.area_and
    assert c.area_xnor_or_pair == c.area_xnor + c.area_or
    # The modular adder: w generate/propagate cells (AND + XOR), L levels
    # of w prefix cells (AND-OR for generate, AND for propagate, which the
    # last level lacks) and w sum XORs.
    for w in (1, 2, 3, 8, 26, 1024):
        L = ceil_log2(w)
        prefix = (2 * c.area_and + c.area_or) * w * L - c.area_and * w
        assert modular_adder_area(w) == (
            w * (c.area_and + c.area_xor) + prefix + w * c.area_xor)


def test_hw_bill_ours():
    b = hw_bill(ConverterDesign(Design.OURS, 2))
    assert (b.inverters, b.full_adders, b.xor_and_pairs, b.xnor_or_pairs) == \
        (7, 4, 3, 1)
    assert b.ma_width == 8 and not b.approximate


def test_hw_bill_ours_counted_matches_closed_forms():
    for n in range(1, 257):
        b = hw_bill(ConverterDesign(Design.OURS, n))
        assert (b.inverters, b.full_adders, b.xor_and_pairs, b.xnor_or_pairs,
                b.ma_width) == (3 * n + 1, n + 2, 2 * n - 1, n - 1, 4 * n)
        assert (b.extra_inverters, b.xors, b.half_adders, b.mux2, b.mux4) == \
            (0, 0, 0, 0, 0) and not b.approximate


def test_hw_bill_ours_counts_at_the_size_ceiling():
    # The census builds 4n-bit words, which the width ceiling admits.
    top = costs.MAX_SIZE
    assert 4 * top == core.MAX_WIDTH
    b = hw_bill(ConverterDesign(Design.OURS, top))
    assert (b.inverters, b.full_adders, b.xor_and_pairs, b.xnor_or_pairs,
            b.ma_width) == (3 * top + 1, top + 2, 2 * top - 1, top - 1, 4 * top)


def test_hw_bill_ours_follows_the_summand_wiring(monkeypatch):
    real = converter.r3_rot_summand(4, 181)
    # S31 with its low r3 field, the top n + 1 bits of the word, a filler.
    monkeypatch.setitem(datapath.LAYOUTS, "s31", (False, lambda n: (
        (0, 0, n + 1), (0, 0, 2 * n - 1), (3, n + 1, n))))
    # The layout and the census read one table: both lose the field.
    assert converter.r3_rot_summand(4, 181) == real & (1 << 11) - 1
    # Those columns keep two wires beside a 0.
    b = hw_bill(ConverterDesign(Design.OURS, 4))
    assert (b.inverters, b.full_adders, b.xor_and_pairs, b.xnor_or_pairs) == \
        (13, 1, 12, 3)
    assert area_total(b) != 341


def test_hw_bill_ours_builds_no_moduli_set(monkeypatch):
    # The census needs three masks of the set, not its 5n-bit weights.
    def refuse(n):
        raise AssertionError("hw_bill(OURS) built a moduli set")
    monkeypatch.setattr(core, "make_moduli_set", refuse)
    monkeypatch.setattr(costs, "make_moduli_set", refuse, raising=False)
    bill = hw_bill(ConverterDesign(Design.OURS, 300000))
    assert (bill.inverters, bill.full_adders, bill.ma_width) == (
        3 * 300000 + 1, 300000 + 2, 4 * 300000)


def test_hw_bill_ref11():
    b = hw_bill(ConverterDesign(Design.REF11, 3))
    assert (b.inverters, b.full_adders) == (7, 6)
    assert (b.xors, b.half_adders, b.mux2) == (1, 1, 2)
    assert b.ma_width == 6


def test_hw_bill_ref9():
    b = hw_bill(ConverterDesign(Design.REF9, 2))
    assert (b.inverters, b.full_adders, b.xor_and_pairs, b.xnor_or_pairs) == \
        (8, 30, 14, 4)
    assert b.mux4 == 1 and b.ma_width == 8 and b.approximate


def test_hw_bill_ref1_clamps_extra_inverters():
    assert hw_bill(ConverterDesign(Design.REF1, 1)).extra_inverters == 0
    assert hw_bill(ConverterDesign(Design.REF1, 4)).extra_inverters == 5


def test_design_size_validation():
    with pytest.raises(ParameterError):
        ConverterDesign(Design.OURS, 0)


@pytest.mark.parametrize(
    "tag", ["ours", "ref11", None, ChannelAdder.MOD_HIASAT])
def test_design_tag_must_be_a_design(tag):
    # hw_bill would bill an unknown tag as ref11, and delay_total would
    # raise KeyError on it.
    with pytest.raises(ParameterError):
        ConverterDesign(tag, 2)


@pytest.mark.parametrize("bad", [2.0, True, "2", None])
def test_sizes_must_be_int(bad):
    with pytest.raises(ParameterError):
        ConverterDesign(Design.OURS, bad)
    with pytest.raises(ParameterError):
        channel_adder_delay(ChannelAdder.MOD_HIASAT, bad)
    with pytest.raises(ParameterError):
        ceil_log2(bad)


def test_area_examples():
    assert area_total(hw_bill(ConverterDesign(Design.OURS, 2))) == 151
    assert area_total(hw_bill(ConverterDesign(Design.REF11, 3))) == 136
    assert area_total(hw_bill(ConverterDesign(Design.OURS, 13))) == 1400


def test_delay_examples():
    assert delay_total(ConverterDesign(Design.OURS, 2)) == 12
    assert delay_total(ConverterDesign(Design.OURS, 13)) == 18
    assert delay_total(ConverterDesign(Design.REF11, 3)) == 14
    assert delay_total(ConverterDesign(Design.REF11, 22)) == 20
    assert delay_total(ConverterDesign(Design.REF1, 2)) == 16


def test_delay_closed_forms():
    for n in range(1, 51):
        L = ceil_log2(n)
        assert delay_total(ConverterDesign(Design.OURS, n)) == 2 * L + 10
        assert delay_total(ConverterDesign(Design.REF1, n)) == 2 * L + 14
        assert delay_total(ConverterDesign(Design.REF9, n)) == 2 * L + 16
        assert delay_total(ConverterDesign(Design.REF11, n)) == \
            2 * ceil_log2(2 * n) + 8


def test_channel_adder_delay():
    assert channel_adder_delay(ChannelAdder.MOD_2POW2N_PLUS1, 4) == 12
    assert channel_adder_delay(ChannelAdder.MOD_HIASAT, 4) == 15
    assert channel_adder_delay(ChannelAdder.MOD_2POW2N_PLUS1, 2) == 10
    assert channel_adder_delay(ChannelAdder.MOD_HIASAT, 2) == 11
    with pytest.raises(ParameterError):
        channel_adder_delay(ChannelAdder.MOD_HIASAT, 0)


def test_sizes_above_the_ceiling_are_refused():
    top = costs.MAX_SIZE
    assert top > matched_three_channel_size(core.MAX_N) > core.MAX_N
    for tag in Design:
        assert ConverterDesign(tag, top).size == top
    assert channel_adder_delay(ChannelAdder.MOD_HIASAT, top) == 4 * 20 + 7
    for n in (top + 1, 2 ** 70):
        for tag in Design:
            with pytest.raises(ParameterError, match=f"^design size must be <= {top}, "):
                ConverterDesign(tag, n)
        for kind in ChannelAdder:
            with pytest.raises(ParameterError, match=f"^n must be <= {top}, "):
                channel_adder_delay(kind, n)


@pytest.mark.parametrize(
    "kind", ["mod_2pow2n_plus1", "mod_hiasat", None, Design.OURS])
def test_channel_adder_kind_must_be_a_channel_adder(kind):
    # Unchecked, a string falls through to the Hiasat figure: 15, not 12,
    # at n = 3.
    with pytest.raises(ParameterError, match="is not a ChannelAdder$"):
        channel_adder_delay(kind, 3)


# Each call passes an argument of the wrong type, which must be refused
# before any of its attributes is read.
WRONG_TYPED_CALLS = {
    "hw_bill": lambda: hw_bill("ours"),
    "delay_total": lambda: delay_total(None),
    "area_total": lambda: area_total(None),
    "channel_op": lambda: channel_op(None, "add", 1, 2),
    "reduce_mod": lambda: reduce_mod("x", 3),
    "emit_table": lambda: emit_table([1]),
}


@pytest.mark.parametrize("call", WRONG_TYPED_CALLS.values(), ids=WRONG_TYPED_CALLS)
def test_wrong_typed_arguments_raise_parameter_error(call):
    with pytest.raises(ParameterError, match="^expected an? [A-Za-z]+, got "):
        call()


def test_truncate_pct():
    assert truncate_pct(15, 136, 2) == "11.02"     # 11.029... truncates
    assert truncate_pct(2, 14, 1) == "14.2"        # 14.285...
    assert truncate_pct(2, 20, 1) == "10"          # exact, zeros stripped
    assert truncate_pct(1, 8, 1) == "12.5"
    assert truncate_pct(0, 7, 2) == "0"
    # negative percentages truncate toward zero, and never print "-0"
    assert truncate_pct(-1, 3, 2) == "-33.33"      # -33.333...
    assert truncate_pct(-2, 14, 1) == "-14.2"
    assert truncate_pct(-2, 20, 1) == "-10"
    assert truncate_pct(-1, 1000, 0) == "0"        # -0.1 truncates to 0
    with pytest.raises(ParameterError):
        truncate_pct(1, 0, 2)
    # A result too long for str() to print is refused before the division.
    assert truncate_pct(2 ** 12900, 1, 0) == str(2 ** 12900 * 100)
    with pytest.raises(ParameterError, match="^100\\*<16610-bit int>/3 has too many digits$"):
        truncate_pct(10 ** 5000 - 1, 3, 2)
    with pytest.raises(ParameterError, match="^places must be <= 4300, got 5000$"):
        truncate_pct(1, 3, 5000)


@pytest.mark.parametrize("args", [
    (1, 3, -1),       # gave '29.0.0.09999999999999984'
    (1.5, 3, 2),      # gave '50.0.0.'
    (1, 3, 2.0),
    (True, 3, 2),
    (1, 3.0, 2),
])
def test_truncate_pct_rejects_bad_arguments(args):
    with pytest.raises(ParameterError):
        truncate_pct(*args)


def test_emit_table_csv():
    out = emit_table(table4(), "csv")
    lines = out.splitlines()
    assert lines[0] == ("dr_bits,n,m,a_ours,a_ref11,extra_area_pct,"
                        "t_ours,t_ref11,speedup_pct")
    assert lines[1] == "8,2,3,151,136,11.02,12,14,14.2"
    assert len(lines) == 5 and out.endswith("\n")


def test_emit_table_text_and_errors():
    out = emit_table(table4()[:1], "text")
    assert out.splitlines()[0].startswith("dr_bits")
    assert "151" in out
    with pytest.raises(ParameterError):
        emit_table([], "csv")
    with pytest.raises(ParameterError):
        emit_table(table4(), "html")


def test_monotonic_in_size():
    for tag in Design:
        prev_area, prev_delay = -1, -1
        for size in range(1, 61):
            d = ConverterDesign(tag, size)
            a, t = area_total(hw_bill(d)), delay_total(d)
            assert a >= prev_area and t >= prev_delay
            prev_area, prev_delay = a, t


def test_delay_case_and_census():
    # table sizes land in the favorable case
    for _, n, m in ((None, 2, 3), (None, 4, 6), (None, 7, 11), (None, 13, 22)):
        assert delay_case(n, m) == 1
    case1, case2 = case_census(1, 50)
    assert case1 == 74.0 and case2 == 26.0
    # every size falls in one of the two cases
    for n in range(1, 51):
        assert delay_case(n, matched_three_channel_size(n)) in (1, 2)


def test_ours_is_smaller_and_faster_than_ref1_and_ref9():
    # The abstract's first claim, against the two converters whose sets
    # have the same dynamic range.
    for n in range(1, 257):
        ours = ConverterDesign(Design.OURS, n)
        for tag in (Design.REF1, Design.REF9):
            ref = ConverterDesign(tag, n)
            assert area_total(hw_bill(ours)) < area_total(hw_bill(ref)), (n, tag)
            assert delay_total(ours) < delay_total(ref), (n, tag)


def test_ours_is_faster_than_ref11_but_larger_at_table4_sizes():
    # The abstract's second claim, at the 8-, 16-, 32- and 64-bit ranges.
    for _, n, m in costs.TABLE4_SIZES:
        ours = ConverterDesign(Design.OURS, n)
        ref11 = ConverterDesign(Design.REF11, m)
        assert delay_total(ours) < delay_total(ref11), n
        assert area_total(hw_bill(ours)) > area_total(hw_bill(ref11)), n
