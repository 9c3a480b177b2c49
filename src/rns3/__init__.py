"""Residue number system codec for the moduli set {2^n, 2^(2n)-1, 2^(2n)+1}.

Three layers: channel arithmetic (fold reductions and the complement /
rotation bit tricks), the weighted-sum reconstruction oracle, and a
bit-level reverse converter that decodes residues exactly as the hardware
datapath would.  A unit-gate cost model and a CLI sit on top.
"""

from rns3.channels import (
    ChannelId,
    ChannelKind,
    channel_op,
    neg_mod_pow2_minus1,
    reduce_mod,
    rns_op,
    rotl_mod_pow2_minus1,
)
from rns3.converter import (
    BitWord,
    OperandSet,
    csa_eac,
    decode_trace,
    mod_add_end_around,
    prepare_operands,
    reverse_convert,
)
from rns3.core import (
    ModuliSet,
    ResidueVector,
    crt_reconstruct,
    forward_convert,
    inverse_constants,
    make_moduli_set,
    pairwise_coprime,
    validate_residues,
)
from rns3.costs import (
    ChannelAdder,
    ConverterDesign,
    CostReport,
    Design,
    GateCosts,
    HwBill,
    area_total,
    channel_adder_delay,
    delay_total,
    emit_table,
    hw_bill,
    table4,
)
from rns3.errors import OutOfRangeError, ParameterError, ResidueError, RnsError

__version__ = "0.1.0"

__all__ = [
    "BitWord",
    "ChannelAdder",
    "ChannelId",
    "ChannelKind",
    "ConverterDesign",
    "CostReport",
    "Design",
    "GateCosts",
    "HwBill",
    "ModuliSet",
    "OperandSet",
    "OutOfRangeError",
    "ParameterError",
    "ResidueError",
    "ResidueVector",
    "RnsError",
    "area_total",
    "channel_adder_delay",
    "channel_op",
    "crt_reconstruct",
    "csa_eac",
    "decode_trace",
    "delay_total",
    "emit_table",
    "forward_convert",
    "hw_bill",
    "inverse_constants",
    "make_moduli_set",
    "mod_add_end_around",
    "neg_mod_pow2_minus1",
    "pairwise_coprime",
    "prepare_operands",
    "reduce_mod",
    "reverse_convert",
    "rns_op",
    "rotl_mod_pow2_minus1",
    "table4",
    "validate_residues",
]
