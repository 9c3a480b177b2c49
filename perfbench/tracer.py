"""Per-layer spans for rns3, installed at run time from outside the package.

Each traced function is replaced, in every `rns3.*` namespace that binds
it, by a wrapper that counts calls and accumulates self time: its own
duration minus the part covered by traced functions it calls.  Patching
every binding catches internal calls such as reverse_convert ->
prepare_operands -> validate_residues.  No library file is edited, and
`uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns

LAYERS = {
    "core": ("make_moduli_set", "forward_convert", "crt_reconstruct",
             "validate_residues"),
    "channels": ("reduce_mod", "channel_op", "rns_op"),
    "converter": ("reverse_convert", "prepare_operands", "csa_eac",
                  "mod_add_end_around", "merged_summand", "r1_summand",
                  "r2_summand", "r3_rot_summand", "r3_comp_summand"),
    "costs": ("table4", "hw_bill", "emit_table"),
    "cli": ("cmd_verify", "cmd_decode", "cmd_costs"),
}

# Methods whose calls are counted, not timed: BitWord objects built (each
# runs __post_init__) and ModuliSet.channels() calls.
COUNTED = {
    "converter.BitWord": ("converter", "BitWord", "__post_init__"),
    "core.ModuliSet.channels": ("core", "ModuliSet", "channels"),
}

SPANS = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]
COUNTS = list(COUNTED)


class Tracer:
    def __init__(self):
        self.calls = [0] * len(SPANS)
        self.self_ns = [0] * len(SPANS)
        self.counts = [0] * len(COUNTS)
        self._open = []  # child time so far, one entry per open span
        self._undo = []

    def reset(self):
        for i in range(len(SPANS)):
            self.calls[i] = self.self_ns[i] = 0
        for i in range(len(COUNTS)):
            self.counts[i] = 0

    def span(self, i: int, fn):
        """fn wrapped to record one span in slot i per call."""
        calls, self_ns, open_ = self.calls, self.self_ns, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                self_ns[i] += dt - open_.pop()
                calls[i] += 1
                if open_:
                    open_[-1] += dt
        return traced

    def counter(self, i: int, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[i] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        for mod in LAYERS:
            importlib.import_module(f"rns3.{mod}")
        namespaces = [m for name, m in sys.modules.items()
                      if name == "rns3" or name.startswith("rns3.")]
        for i, name in enumerate(SPANS):
            mod, fn = name.split(".")
            orig = getattr(sys.modules[f"rns3.{mod}"], fn)
            traced = self.span(i, orig)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is orig:
                        self._patch(ns, attr, traced)
        for i, (mod, cls, meth) in enumerate(COUNTED.values()):
            klass = getattr(sys.modules[f"rns3.{mod}"], cls)
            self._patch(klass, meth, self.counter(i, getattr(klass, meth)))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)
