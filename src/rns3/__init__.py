"""Residue number system codec for the moduli set {2^n, 2^(2n)-1, 2^(2n)+1}.

Three layers: channel arithmetic (fold reductions and the complement /
rotation bit tricks), the weighted-sum reconstruction oracle, and a
bit-level reverse converter that decodes residues exactly as the hardware
datapath would.  A unit-gate cost model and a CLI sit on top.

The names in `__all__` resolve on demand: `import rns3` loads no
submodule, and each submodule loads when one of its names is first read
from the package, which then binds that name so later reads are plain
lookups.  A program that only encodes and decodes never loads the cost
model in `rns3.costs`; cost-model users pay for it on first use.
"""

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("ChannelId", "ChannelKind", "channel_op",
                     "neg_mod_pow2_minus1", "reduce_mod", "rns_op",
                     "rotl_mod_pow2_minus1"), "channels"),
    **dict.fromkeys(("BitWord", "OperandSet", "csa_eac", "decode_trace",
                     "mod_add_end_around", "prepare_operands",
                     "reverse_convert"), "converter"),
    **dict.fromkeys(("ModuliSet", "ResidueVector", "crt_reconstruct",
                     "forward_convert", "inverse_constants",
                     "make_moduli_set", "pairwise_coprime",
                     "validate_residues"), "core"),
    **dict.fromkeys(("ChannelAdder", "ConverterDesign", "CostReport",
                     "Design", "GateCosts", "HwBill", "area_total",
                     "channel_adder_delay", "delay_total", "emit_table",
                     "hw_bill", "table4"), "costs"),
    **dict.fromkeys(("OutOfRangeError", "ParameterError", "ResidueError",
                     "RnsError"), "errors"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    # __import__, unlike importlib.import_module, is timed by -X importtime.
    value = getattr(__import__(f"{__name__}.{module}", fromlist=(name,)), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())
