"""Unit-gate area and delay model for four reverse-converter designs.

Delay units: inverter/AND 1; XOR, full adder and 2:1 mux 2.  Area units:
NOT/AND/OR 1, XOR/XNOR 2.  Composite-cell areas are primitive sums (full
adder 7 = 2 XOR + 2 AND + OR; XOR/AND pair, XNOR/OR pair and half adder
3 = XOR or XNOR + AND or OR), and the final modular adder of width w is a
cyclic Kogge-Stone adder with carry recirculation, L = ceil(log2 w):

    area(w) = 3*w*L + 4*w      delay(w) = 2*L + 3

The area is its primitive count with XOR propagate, the delay that of
its OR-propagate variant.  Calibrated, not derived, are only the
full-adder delay 2 (a three-input XOR is 4 deep in primitives) and the
2:1 mux area 2, which only the ref11 rows of the golden table fix; the
README gives the derivation.

Designs compared:

    OURS    three-channel set {2^n, 2^(2n)-1, 2^(2n)+1} (this library)
    REF1    four-channel set {2^n-1, 2^n, 2^n+1, 2^(2n)+1}
    REF9    five-channel set {2^n, 2^n-1, 2^n+1, 2^n-2^((n+1)/2)+1,
            2^n+2^((n+1)/2)+1}
    REF11   classic three-channel set {2^m-1, 2^m, 2^m+1}

REF1/REF9/REF11 are modeled from their published gate bills only; their
datapaths are not implemented here.  The OURS bill is counted from the
operand wiring table, rns3.datapath.LAYOUTS, whose rows take only n, so
no ModuliSet with its 5n-bit weights is built.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from enum import Enum

from rns3.datapath import LAYOUTS
from rns3.errors import ParameterError, _check_int, _shown

# The largest size a design or a channel takes, checked before any shift.
# The model builds 4n-bit wire masks but no moduli set, so it goes past
# core.MAX_N: the OURS bill at this size counts in about 5 ms, and the
# classic set's m matched to every n <= core.MAX_N lies below it.  An n
# near 10^9 would build masks of gigabytes, or 2^70 overflow, unchecked.
MAX_SIZE = 1 << 20


def ceil_log2(x: int) -> int:
    """Smallest e with 2^e >= x, for x >= 1."""
    _check_int(x, "x", 1)
    return (x - 1).bit_length()


class GateCosts:
    """Unit-gate constants: the model's fixed reference values, which
    area_total and delay_total read here; nothing overrides them."""

    __slots__ = ()  # so GateCosts().area_fa = 5 raises too

    delay_inv = 1
    delay_and = 1
    delay_xor = 2
    delay_fa = 2
    delay_mux = 2
    area_not = 1
    area_and = 1
    area_or = 1
    area_xor = 2
    area_xnor = 2
    # composite cells: primitive sums, except the fitted mux
    area_fa = 7
    area_xor_and_pair = 3
    area_xnor_or_pair = 3
    area_ha = 3
    area_mux2 = 2


class Design(Enum):
    OURS = "ours"
    REF1 = "ref1"
    REF9 = "ref9"
    REF11 = "ref11"


@dataclass(frozen=True)
class ConverterDesign:
    """A design tag plus its size parameter (n, or m for REF11), at most
    MAX_SIZE."""

    tag: Design
    size: int

    def __post_init__(self):
        if not isinstance(self.tag, Design):
            raise ParameterError(f"design tag {_shown(self.tag)} is not a Design")
        _check_int(self.size, "design size", 1, MAX_SIZE)


@dataclass(frozen=True)
class HwBill:
    """Gate bill of one reverse converter."""

    design: Design
    inverters: int
    full_adders: int
    xor_and_pairs: int = 0
    xnor_or_pairs: int = 0
    extra_inverters: int = 0
    xors: int = 0
    half_adders: int = 0
    mux2: int = 0
    mux4: int = 0
    ma_width: int = 0
    approximate: bool = False


# Per design: (CSA levels, 2:1-mux levels) on the critical path, and the
# width of the final modular adder per unit of size.
_PATH_LEVELS = {Design.OURS: (1, 0, 4), Design.REF1: (3, 0, 4),
                Design.REF9: (4, 0, 4), Design.REF11: (1, 1, 2)}


def _counted_bill(n: int) -> HwBill:
    """The OURS bill at size n, counted from the wiring table LAYOUTS: in
    s1_prime, s2 and s31 a residue field is wires (inverters if its row is
    complemented), a filler constants (ones if complemented).  A CSA column
    of three wires takes a full adder; two wires take an XOR/AND pair
    beside a constant 0, an XNOR/OR pair beside a constant 1.
    """
    wires, ones, inverters = [], 0, 0
    for name in ("s1_prime", "s2", "s31"):
        complemented, layout = LAYOUTS[name]
        row = 0
        for residue, _, width in layout(n):
            row = row << width | ((1 << width) - 1 if residue else 0)
        wires.append(row)
        if complemented:
            inverters += row.bit_count()
            ones |= ((1 << 4 * n) - 1) ^ row
    a, b, c = wires
    three = a & b & c
    two = ((a & b) | (a & c) | (b & c)) ^ three
    return HwBill(Design.OURS, inverters=inverters,
                  full_adders=three.bit_count(),
                  xor_and_pairs=(two & ~ones).bit_count(),
                  xnor_or_pairs=(two & ones).bit_count(),
                  ma_width=_PATH_LEVELS[Design.OURS][2] * n)


def hw_bill(design: ConverterDesign) -> HwBill:
    """Component counts of the named converter at its size parameter."""
    if not isinstance(design, ConverterDesign):
        raise ParameterError(f"expected a ConverterDesign, got {_shown(design)}")
    s = design.size
    if design.tag is Design.OURS:
        return _counted_bill(s)
    ma_width = _PATH_LEVELS[design.tag][2] * s
    if design.tag is Design.REF1:
        # the published 2s-3 extra-inverter term is negative for s=1;
        # counts are clamped at zero
        return HwBill(Design.REF1, inverters=5 * s + 3, full_adders=7 * s + 6,
                      xor_and_pairs=2 * s - 1, xnor_or_pairs=4 * s,
                      extra_inverters=max(0, 2 * s - 3), ma_width=ma_width)
    if design.tag is Design.REF9:
        # pair counts are approximate (mux-selected operand assumed half
        # ones, half zeros); flagged so renderers can mark them
        return HwBill(Design.REF9, inverters=4 * s, full_adders=15 * s,
                      xor_and_pairs=7 * s, xnor_or_pairs=2 * s, mux4=1,
                      ma_width=ma_width, approximate=True)
    return HwBill(Design.REF11, inverters=2 * s + 1, full_adders=2 * s,
                  xors=1, half_adders=1, mux2=2, ma_width=ma_width)


def modular_adder_area(width: int) -> int:
    """Primitive area of the final end-around modular adder (XOR propagate)."""
    return 3 * width * ceil_log2(width) + 4 * width


def modular_adder_delay(width: int) -> int:
    """Parallel-prefix modular adder delay, OR propagate: 2*ceil(log2 w) + 3."""
    return 2 * ceil_log2(width) + 3


def area_total(bill: HwBill) -> int:
    """Unit-gate area of a bill, modular adder included."""
    if not isinstance(bill, HwBill):
        raise ParameterError(f"expected an HwBill, got {_shown(bill)}")
    area = (bill.inverters + bill.extra_inverters) * GateCosts.area_not
    area += bill.full_adders * GateCosts.area_fa
    area += bill.xor_and_pairs * GateCosts.area_xor_and_pair
    area += bill.xnor_or_pairs * GateCosts.area_xnor_or_pair
    area += bill.xors * GateCosts.area_xor
    area += bill.half_adders * GateCosts.area_ha
    area += bill.mux2 * GateCosts.area_mux2
    area += bill.mux4 * 3 * GateCosts.area_mux2  # 4:1 mux as three 2:1 muxes
    if bill.ma_width:
        area += modular_adder_area(bill.ma_width)
    return area


def delay_total(design: ConverterDesign) -> int:
    """Critical-path delay: operand prep + adder levels (+ mux) + modular add."""
    if not isinstance(design, ConverterDesign):
        raise ParameterError(f"expected a ConverterDesign, got {_shown(design)}")
    csa, mux, ma_per_size = _PATH_LEVELS[design.tag]
    return (GateCosts.delay_inv + csa * GateCosts.delay_fa
            + mux * GateCosts.delay_mux
            + modular_adder_delay(ma_per_size * design.size))


class ChannelAdder(Enum):
    MOD_2POW2N_PLUS1 = "mod_2pow2n_plus1"   # modulus 2^(2n) + 1
    MOD_HIASAT = "mod_hiasat"               # modulus 2^n + 2^((n+1)/2) + 1


def channel_adder_delay(kind: ChannelAdder, n: int) -> int:
    """Delay of one addition in the channel that bounds each moduli set.

    The 2^n + 2^((n+1)/2) + 1 figure is approximate by construction.
    """
    if not isinstance(kind, ChannelAdder):
        raise ParameterError(
            f"channel adder kind {_shown(kind)} is not a ChannelAdder")
    _check_int(n, "n", 1, MAX_SIZE)
    if kind is ChannelAdder.MOD_2POW2N_PLUS1:
        return 2 * ceil_log2(2 * n) + 6
    return 4 * ceil_log2(n) + 7


@dataclass(frozen=True)
class CostReport:
    """One comparison row: sizes, unit-gate totals, derived percentages."""

    dr_bits: int
    n: int
    m: int
    a_ours: int
    a_ref11: int
    extra_area_pct: str
    t_ours: int
    t_ref11: int
    speedup_pct: str


# Fixed (dynamic-range label, n, m) triples of the comparison table.
TABLE4_SIZES = ((8, 2, 3), (16, 4, 6), (32, 7, 11), (64, 13, 22))


def truncate_pct(numer: int, denom: int, places: int) -> str:
    """100*numer/denom truncated toward zero to `places` decimals, zeros
    stripped; a result that truncates to zero prints "0", never "-0".

    Exact integer arithmetic; "10" rather than "10.0", "11.02" kept as is.
    """
    if type(numer) is not int:
        raise ParameterError(f"numerator {_shown(numer)} is not an int")
    _check_int(denom, "denominator", 1)
    _check_int(places, "places", 0, 4300)  # str()'s default digit limit
    if abs(numer).bit_length() - denom.bit_length() > 3 * 4300:  # else < 3900 digits
        raise ParameterError(f"100*{_shown(numer)}/{_shown(denom)} has too many digits")
    scaled = abs(numer) * 100 * 10**places // denom
    whole, frac = divmod(scaled, 10**places)
    digits = str(frac).rjust(places, "0").rstrip("0")
    sign = "-" if numer < 0 and scaled else ""
    return sign + (f"{whole}.{digits}" if digits else str(whole))


def table4() -> list[CostReport]:
    """The four fixed-size comparison rows against the classic set."""
    rows = []
    for dr, n, m in TABLE4_SIZES:
        a = area_total(hw_bill(ConverterDesign(Design.OURS, n)))
        a11 = area_total(hw_bill(ConverterDesign(Design.REF11, m)))
        t = delay_total(ConverterDesign(Design.OURS, n))
        t11 = delay_total(ConverterDesign(Design.REF11, m))
        rows.append(CostReport(
            dr_bits=dr, n=n, m=m, a_ours=a, a_ref11=a11,
            extra_area_pct=truncate_pct(a - a11, a11, 2),
            t_ours=t, t_ref11=t11,
            speedup_pct=truncate_pct(t11 - t, t11, 1),
        ))
    return rows


def _render(cells: list[list[str]], format: str) -> str:
    """Byte-stable text/csv rendering of a header row plus data rows."""
    if format == "csv":
        return "\n".join(",".join(row) for row in cells) + "\n"
    if format != "text":
        raise ParameterError(f"unknown format {_shown(format)}")
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    lines = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in cells
    ]
    return "\n".join(lines) + "\n"


def emit_table(rows: list[CostReport], format: str = "text") -> str:
    """Render comparison rows; csv output is contract-stable."""
    if not isinstance(rows, (list, tuple)):
        raise ParameterError(f"expected a list of CostReports, got {_shown(rows)}")
    if not rows:
        raise ParameterError("need at least one row")
    for r in rows:
        if not isinstance(r, CostReport):
            raise ParameterError(f"expected a CostReport, got {_shown(r)}")
    cells = [[f.name for f in fields(CostReport)]]
    cells += [[str(v) for v in astuple(r)] for r in rows]
    return _render(cells, format)


def matched_three_channel_size(n: int) -> int:
    """Width m of the classic set with (almost) the dynamic range of size n."""
    return 5 * n // 3


def case_census(n_lo: int = 1, n_hi: int = 50) -> tuple[float, float]:
    """Percentages of sizes n in [n_lo, n_hi] in delay cases 1 and 2: a
    delay_total gap of 2 (REF11 at the matched m one mux level slower) or
    of 0 (OURS one prefix level deeper, which that mux offsets)."""
    if not 1 <= n_lo <= n_hi:
        raise ParameterError("need 1 <= n_lo <= n_hi")
    gaps = [delay_total(ConverterDesign(Design.REF11, matched_three_channel_size(n)))
            - delay_total(ConverterDesign(Design.OURS, n))
            for n in range(n_lo, n_hi + 1)]
    total = len(gaps)
    return 100.0 * gaps.count(2) / total, 100.0 * gaps.count(0) / total


def _compared_designs(n: int, m: int | None) -> list[ConverterDesign]:
    """Every design at size n, the classic set at m (matched to n by default)."""
    m = matched_three_channel_size(n) if m is None else m
    return [ConverterDesign(tag, m if tag is Design.REF11 else n)
            for tag in Design]


def render_bill_table(n: int, m: int | None = None, format: str = "text") -> str:
    """Hardware bills of all four designs at size n (m for the classic set)."""
    counts = [f.name for f in fields(HwBill)][1:-1]  # all but design, approximate
    cells = [["design", "size", *counts, "area", "approximate"]]
    for d in _compared_designs(n, m):
        b = hw_bill(d)
        cells.append([str(v) for v in (d.tag.value, d.size, *astuple(b)[1:-1],
                                       area_total(b), b.approximate)])
    return _render(cells, format)


def render_delay_table(n: int, m: int | None = None, format: str = "text") -> str:
    """Unit-gate delay totals of all four designs at size n (m for REF11)."""
    cells = [["design", "size", "delay"]]
    for d in _compared_designs(n, m):
        cells.append([d.tag.value, str(d.size), str(delay_total(d))])
    return _render(cells, format)


def render_channel_delay_table(n: int, format: str = "text") -> str:
    """Delay of one addition in the two speed-limiting channel moduli."""
    cells = [["modulus", "n", "delay"]]
    for kind, label in ((ChannelAdder.MOD_2POW2N_PLUS1, "2^(2n)+1"),
                        (ChannelAdder.MOD_HIASAT, "2^n+2^((n+1)/2)+1")):
        delay = channel_adder_delay(kind, n)  # checks n before str(n)
        cells.append([label, str(n), str(delay)])
    return _render(cells, format)
