"""Mutation check of the fused kernels, the staged reference datapath and
the checks around them.

Each row of MUTANTS names a source file, a piece of text that occurs in
it exactly once, a replacement, what the mutant breaks and, optionally,
the test file or the test (a pytest node id, tests/test_x.py::test_y)
that kills it.  For each row the script copies src/, tests/ and
pyproject.toml into a temporary directory, applies the replacement there
(never in the working tree) and runs

    python -m pytest -x -q --keep-duplicates -k "not python_O" <TEST_FILES>

on the copy, with the row's test file first: by default the mutated
module's own, tests/test_<module>.py, since it most often fails first.
A row that names a test runs it before all of TEST_FILES, so that -x
stops there without waiting for the tests ahead of it in its file.
The same command first runs once on an unmutated copy, and the script
exits 1 unless that run passes, so a kill counts only against a suite
that passes on the clean tree.  A mutant is killed when pytest fails.
The script exits 1 if any mutant survives,
if any row's text (EQUIVALENT rows included) does not occur exactly
once, or if a row names a test that its file does not define (or a
parametrized case, test[id], whose id it does not quote), so the table
keeps pace with the code and the tests.

Run every row from the repository root:

    python tests/mutants.py

A change to a kernel adds its mutants here.  The file is not named
test_*, so the tier-1 suite does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TEST_FILES = ("tests/test_core.py", "tests/test_channels.py",
              "tests/test_converter.py", "tests/test_cli.py",
              "tests/test_costs.py")

# (label, file, text, replacement, what the mutant breaks[, test file
# or test run first, when it is not the module's own file])
MUTANTS = [
    ("rns_op mul first fold", "src/rns3/channels.py",
     "t2 = a2 * b2\n        t2 = (t2 & m2) + (t2 >> w)\n",
     "t2 = a2 * b2\n",
     "a 4n-bit product needs two end-around folds in 2^(2n) - 1"),
    ("rns_op add -m3", "src/rns3/channels.py",
     "t3 = a3 + b3 - m3", "t3 = a3 + b3",
     "a 2^(2n) + 1 sum is left up to 2 * m3"),
    ("rns_op +m3 tail", "src/rns3/channels.py",
     "t3 + m3 if t3 < 0 else t3", "t3",
     "negative 2^(2n) + 1 results stay negative"),
    ("rns_op all-ones -> 0", "src/rns3/channels.py",
     "0 if t2 == m2 else t2", "t2",
     "the all-ones alias of zero leaks out of the 2^(2n) - 1 channel"),
    ("rns_op op check", "src/rns3/channels.py",
     'else:\n        raise ParameterError(f"unknown channel op {_shown(op)}")',
     "else:\n        pass",
     "an unknown op on stamped operands raises UnboundLocalError, "
     "not ParameterError"),
    ("rns_op 2^w+1 product fold", "src/rns3/channels.py",
     "t3 = (t3 & m2) - (t3 >> w)", "t3 = (t3 & m2) + (t3 >> w)",
     "2^(2n) is -1 modulo 2^(2n) + 1, not +1"),
    ("rns_op pow2 mask", "src/rns3/channels.py",
     "rv.r1 = t1 & ms.pow2_mask", "rv.r1 = t1",
     "the 2^n channel is never reduced"),
    ("rns_op pow2 mask per call", "src/rns3/channels.py",
     "rv.r1 = t1 & ms.pow2_mask", "rv.r1 = t1 & (1 << ms.n) - 1",
     "rns_op computes the 2^n mask per call instead of reading the set's",
     "tests/test_core.py::"
     "test_kernels_execute_a_fixed_number_of_bytecodes_per_call"),
    ("rns_op stamp store", "src/rns3/channels.py",
     "rv._set = ms", 'rv._set = __import__("rns3.core").core._UNSTAMPED',
     "results come back unstamped, so the next rns_op checks them in full"),
    ("rns_op retype", "src/rns3/channels.py",
     "    rv.__class__ = ResidueVector\n", "",
     "results escape as mutable core._Blank, not frozen ResidueVectors",
     "tests/test_core.py::test_stamped_vector_contract"),
    ("rns_op stamp of b", "src/rns3/channels.py",
     "checked = a._set is ms and b._set is ms", "checked = a._set is ms",
     "a hand-built b skips its checks beside a stamped a"),
    ("forward_convert second r2 fold", "src/rns3/core.py",
     "    r2 = (r2 & m2) + (r2 >> w)\n    r2 = (r2 & m2) + (r2 >> w)\n",
     "    r2 = (r2 & m2) + (r2 >> w)\n",
     "a three-chunk sum can carry twice"),
    ("forward_convert +m3", "src/rns3/core.py",
     "r3 += m3", "pass",
     "lo - mid + hi < 0 stays negative"),
    ("forward_convert -m3", "src/rns3/core.py",
     "r3 -= m3", "pass",
     "lo - mid + hi >= m3 stays out of range"),
    ("forward_convert all-ones -> 0", "src/rns3/core.py",
     "0 if r2 == m2 else r2", "r2",
     "X = m2 encodes r2 as m2, not 0"),
    ("forward_convert stamp store", "src/rns3/core.py",
     "rv._set = ms", "rv._set = _UNSTAMPED",
     "vectors come back unstamped, so every kernel checks them in full"),
    ("forward_convert retype", "src/rns3/core.py",
     "    rv.__class__ = ResidueVector\n", "",
     "vectors escape as mutable _Blank, not frozen ResidueVectors",
     "tests/test_core.py::test_stamped_vector_contract"),
    ("ResidueVector.__init__ unstamping store", "src/rns3/core.py",
     '        object.__setattr__(self, "_set", _UNSTAMPED)  # built by hand\n',
     "",
     "hand-built, copied and unpickled vectors have no stamp at all, so "
     "reading it raises AttributeError"),
    ("_setstate stores the state as it is", "src/rns3/core.py",
     "    self.__init__(*map(state.get, self.__match_args__))",
     "    for name, value in state.items():\n"
     "        object.__setattr__(self, name, value)",
     "a pickle or copy skips __init__: a forged channel modulus loads as "
     "it is, and a refused field loads unchecked",
     "tests/test_core.py::test_a_forged_state_loads_through_init"),
    ("BitWord without __setstate__", "src/rns3/datapath.py",
     "    __setstate__ = _setstate  # a pickle or copy passes __post_init__\n",
     "",
     "a pickled or copied word skips __post_init__: BitWord(255, 4) loads, "
     "and its to_binary() gives 8 digits",
     "tests/test_core.py::test_a_forged_state_loads_through_init[BitWord]"),
    ("ModuliSet stores through vars", "src/rns3/core.py",
     "object.__setattr__(self, name, value)  # frozen: set once, here",
     "vars(self)[name] = value",
     "the set's values move into an instance dict, and the kernels' reads "
     "of them specialise to a slower attribute load (3.11 and 3.12)",
     "tests/test_core.py::test_a_record_keeps_its_values_inline"),
    ("ChannelId stores through vars", "src/rns3/channels.py",
     "object.__setattr__(self, name, value)  # frozen: one store each",
     "vars(self)[name] = value",
     "a channel's values move into an instance dict, and reduce_mod's and "
     "channel_op's reads of its modulus specialise to a slower attribute "
     "load (3.11 and 3.12)",
     "tests/test_core.py::test_a_record_keeps_its_values_inline"),
    ("record == without the class check", "src/rns3/core.py",
     "    if other.__class__ is self.__class__:\n"
     "        return _values(self) == _values(other)\n    return NotImplemented\n",
     "    return _values(self) == _values(other)\n",
     "a record compared with a tuple raises AttributeError, and one of a "
     "subclass with the same fields compares equal",
     "tests/test_core.py::test_record_contract"),
    ("record hash over one field", "src/rns3/core.py",
     "return hash(_values(self))", "return hash(_values(self)[:1])",
     "a record's hash is not that of its field tuple: vectors equal in r1 "
     "hash alike",
     "tests/test_core.py::test_record_contract"),
    ("record __setattr__ stores", "src/rns3/core.py",
     'raise FrozenInstanceError(f"cannot assign to field {name!r}")',
     "object.__setattr__(self, name, value)",
     "records are mutable: a field or a derived value can be reassigned",
     "tests/test_core.py::test_record_contract"),
    ("record __delattr__ no-op", "src/rns3/core.py",
     'raise FrozenInstanceError(f"cannot delete field {name!r}")', "pass",
     "del on a record's attribute passes silently, with no FrozenInstanceError",
     "tests/test_core.py::test_record_contract"),
    ("ModuliSet under dataclass(frozen=True)", "src/rns3/core.py",
     "@_record\nclass ModuliSet:", "@dataclass(frozen=True)\nclass ModuliSet:",
     "the set behaves the same, but importing core compiles and execs "
     "its generated methods again",
     "tests/test_core.py::"
     "test_imports_execute_a_fixed_number_of_bytecodes_and_generate_no_code"),
    ("core imports typing", "src/rns3/core.py",
     "import functools\nimport math\n",
     "import functools\nimport math\nimport typing\n",
     "the codec import loads typing, which no rns3 code needs",
     "tests/test_core.py::"
     "test_imports_execute_a_fixed_number_of_bytecodes_and_generate_no_code"),
    ("derived pow2 mask", "src/rns3/core.py",
     "pow2_mask=(1 << n) - 1", "pow2_mask=(1 << n + 1) - 1",
     "the 2^n channel keeps bit n: r1 reaches 2^(n+1) - 1"),
    ("derived M", "src/rns3/core.py",
     "M=mhat1 << n,", "M=mhat1 << n - 1,",
     "the range is halved: forward_convert refuses X in [M/2, M)"),
    ("derived inv2", "src/rns3/core.py",
     "inv2=1 << (n - 1),", "inv2=(1 << (n - 1)) + m2,",
     "a weight congruent to the inverse, so inverse_constants passes it, "
     "but not canonical"),
    ("ModuliSet n >= 1", "src/rns3/core.py",
     '_check_int(n, "set parameter n", 1, MAX_N)\n        m1',
     '_check_int(n, "set parameter n", 0, MAX_N)\n        m1',
     "ModuliSet(0) raises ValueError from a negative shift, "
     "not ParameterError"),
    ("make_moduli_set guard", "src/rns3/core.py",
     '_check_int(n, "set parameter n", 1, MAX_N)\n    return',
     "pass\n    return",
     "make_moduli_set([1]) raises TypeError from the set cache, "
     "not ParameterError"),
    ("huge int by bit length", "src/rns3/errors.py",
     'return f"<{sign}{value.bit_length()}-bit int>"', "return str(value)",
     "a message naming a 5000-digit residue raises ValueError, not RnsError"),
    ("shown length compare", "src/rns3/errors.py",
     "if len(text) <= SHOWN_CHARS:", "if len(text) < SHOWN_CHARS:",
     "a message shows a value whose repr is exactly SHOWN_CHARS long by "
     "its size, not in full",
     "tests/test_core.py::"
     "test_messages_show_huge_ints_by_bit_length[rns_op-98-character-op]"),
    ("reverse_convert carry wrap", "src/rns3/converter.py",
     "((carry & mask) | (carry >> k))", "(carry & mask)",
     "the CSA carry out of the MSB is dropped, not wrapped to bit 0"),
    ("reverse_convert end-around carry", "src/rns3/converter.py",
     "t = (t & mask) + (t >> k)", "t = t & mask",
     "the final adder's carry out is dropped"),
    ("reverse_convert all-ones -> 0", "src/rns3/converter.py",
     "(0 if t == mask else t) << ms.n | r1", "t << ms.n | r1",
     "Y = 2^(4n) - 1 is returned for Y = 0"),
    ("reverse_convert S2 wiring", "src/rns3/converter.py",
     "| (r2 << sn_m1) |", "| (r2 << sn_m1 + 1) |",
     "the middle copy of r2 is wired one bit too high"),
    ("reverse_convert S2 low copy", "src/rns3/converter.py",
     "| (r2 >> sn_p1)", "| (r2 >> ms.n)",
     "the low copy of r2 keeps bit n, one bit too many",
     "tests/test_converter.py::"
     "test_decoder_is_proved_for_every_n_up_to_256_and_at_1024_and_4096"),
    ("csa_eac carry wrap", "src/rns3/datapath.py",
     "BitWord((carry & mask) | (carry >> w), w)", "BitWord(carry & mask, w)",
     "the staged CSA drops the carry out of the MSB",
     "tests/test_converter.py"),
    ("mod_add_end_around all-ones -> 0", "src/rns3/datapath.py",
     "return 0 if t == mask else t", "return t",
     "the staged adder returns Y = 2^(4n) - 1 for Y = 0",
     "tests/test_converter.py"),
    ("s1_prime field order", "src/rns3/datapath.py",
     "lambda n: ((1, 0, n), (3, 0, 2 * n + 1), (0, 0, n - 1))",
     "lambda n: ((3, 0, 2 * n + 1), (1, 0, n), (0, 0, n - 1))",
     "S1' carries the complemented r1 and r3 in each other's bits",
     "tests/test_converter.py::"
     "test_operand_lemmas_are_proved_per_field_for_every_n_up_to_MAX_N"),
    ("layout field mask", "src/rns3/datapath.py",
     "value = value << w | bits & ((1 << w) - 1)",
     "value = value << w | bits",
     "a field's residue bits above its width spill into the fields before "
     "it", "tests/test_converter.py"),
    ("S2 middle field width", "src/rns3/datapath.py",
     "(2, 0, 2 * n), (2, n + 1, n - 1)",
     "(2, 0, 2 * n - 1), (2, n + 1, n - 1)",
     "S2 loses the top bit of its middle r2 copy and is one bit narrow",
     "tests/test_converter.py::"
     "test_operand_lemmas_are_proved_per_field_for_every_n_up_to_MAX_N"),
    ("S31 flagged complemented", "src/rns3/datapath.py",
     '"s31": (False,', '"s31": (True,',
     "S31 is complemented, so it carries -2^(3n-1)*r3 over ones fillers",
     "tests/test_converter.py::"
     "test_operand_lemmas_are_proved_per_field_for_every_n_up_to_MAX_N"),
    ("ModuliSet n ceiling", "src/rns3/core.py",
     '_check_int(n, "set parameter n", 1, MAX_N)\n        m1',
     '_check_int(n, "set parameter n", 1)\n        m1',
     "n = 2^70 raises OverflowError from a shift, not ParameterError"),
    ("BitWord width ceiling", "src/rns3/datapath.py",
     '_check_int(self.width, "width", 0, MAX_WIDTH)',
     '_check_int(self.width, "width", 0)',
     "BitWord(0, 2^70) is built, a word no shift could fill",
     "tests/test_core.py::test_every_int_argument_is_guarded"),
    ("ChannelId width ceiling", "src/rns3/channels.py",
     '_check_int(k, "channel width", 1, MAX_WIDTH)',
     '_check_int(k, "channel width", 1)',
     "ChannelId(kind, 2^70) raises OverflowError from a shift, "
     "not ParameterError"),
    ("rotl width ceiling", "src/rns3/channels.py",
     '_check_int(k, "width", 1, MAX_WIDTH)\n    _check_int(p,',
     '_check_int(k, "width", 1)\n    _check_int(p,',
     "rotl_mod_pow2_minus1 at k = 2^70 raises OverflowError from a shift, "
     "not ParameterError"),
    ("neg width ceiling", "src/rns3/channels.py",
     'canonicalizes to 0."""\n    _check_int(k, "width", 1, MAX_WIDTH)',
     'canonicalizes to 0."""\n    _check_int(k, "width", 1)',
     "neg_mod_pow2_minus1 at k = 2^70 raises OverflowError from a shift, "
     "not ParameterError"),
    ("cost model size ceiling", "src/rns3/costs.py",
     '_check_int(self.size, "design size", 1, MAX_SIZE)',
     '_check_int(self.size, "design size", 1)',
     "costs --table 1 at n = 2^70 raises OverflowError from a shift, "
     "not ParameterError"),
    ("guard type test", "src/rns3/errors.py",
     "if type(value) is not int:\n        raise ParameterError",
     "if False:\n        raise ParameterError",
     "1.5 and True pass as ints, and None and '3' raise TypeError from "
     "the bound compare, not ParameterError",
     "tests/test_core.py::test_every_int_argument_is_guarded"),
    ("guard lo compare", "src/rns3/errors.py",
     "if value < lo:", "if value < lo - 1:",
     "every guarded argument admits lo - 1",
     "tests/test_core.py::test_every_int_argument_is_guarded"),
    ("residue type test", "src/rns3/errors.py",
     "if type(value) is not int:\n        raise ResidueError",
     "if False:\n        raise ResidueError",
     "True and 1.0 pass as residues, and '3' raises TypeError from the "
     "range compare, not ResidueError",
     "tests/test_core.py::test_every_residue_check_names_its_value"),
    ("residue range compare", "src/rns3/errors.py",
     "if not 0 <= value < modulus:", "if not 0 <= value <= modulus:",
     "every residue check admits the modulus itself, the all-ones alias "
     "of zero in a 2^k - 1 channel",
     "tests/test_core.py::test_every_residue_check_names_its_value"),
    ("guard hi compare", "src/rns3/errors.py",
     "if hi is not None and value > hi:", "if hi is not None and value > hi + 1:",
     "every bounded argument admits hi + 1",
     "tests/test_core.py::test_every_int_argument_is_guarded"),
    ("census counts inverters in an uncomplemented row", "src/rns3/costs.py",
     "wires.append(row)\n        if complemented:\n"
     "            inverters += row.bit_count()\n",
     "wires.append(row)\n        inverters += row.bit_count()\n"
     "        if complemented:\n",
     "the wires of S2 and S31 are billed as inverters too",
     "tests/test_costs.py::test_hw_bill_ours_counted_matches_closed_forms"),
    ("census pair polarity", "src/rns3/costs.py",
     "xor_and_pairs=(two & ~ones).bit_count(),\n"
     "                  xnor_or_pairs=(two & ones).bit_count(),",
     "xor_and_pairs=(two & ones).bit_count(),\n"
     "                  xnor_or_pairs=(two & ~ones).bit_count(),",
     "a two-wire column beside a constant 1 is billed an XOR/AND pair, "
     "one beside a 0 an XNOR/OR pair"),
    ("census gap count", "src/rns3/costs.py",
     "100.0 * gaps.count(2) / total", "100.0 * gaps.count(1) / total",
     "case 1 counts delay gaps of one unit, which no size has, not two",
     "tests/test_costs.py::test_case_census"),
    ("channel delay table checks n first", "src/rns3/costs.py",
     "delay = channel_adder_delay(kind, n)  # checks n before str(n)\n"
     "        cells.append([label, str(n), str(delay)])",
     "cells.append([label, str(n), str(channel_adder_delay(kind, n))])",
     "costs --table 3 at a 5000-digit n raises ValueError from str(n), "
     "not ParameterError",
     "tests/test_cli.py::test_cli_transcript"),
    ("decimal chunk scale", "src/rns3/cli.py",
     "value = value * 10 ** len(chunk) + int(chunk)",
     "value = value * 10 ** DECIMAL_CHUNK_DIGITS + int(chunk)",
     "a decimal argument past the int-str limit whose last chunk is short "
     "is read with that chunk's digits too high",
     "tests/test_cli.py::test_parse_uint_beyond_int_str_digit_limit"),
    ("decimal sign", "src/rns3/cli.py",
     'value = -value if t[0] == "-" else value', "pass",
     "a negative decimal argument past the int-str limit is read as its "
     "magnitude, not refused",
     "tests/test_cli.py::test_parse_uint_reads_decimal_forms_alike_past_the_digit_limit"),
    ("truncate_pct digit ceiling", "src/rns3/costs.py",
     "> 3 * 4300:", "> 4 * 4300:",
     "a percentage of 4300 to 5200 digits raises ValueError from str(), "
     "not ParameterError", "tests/test_costs.py::test_truncate_pct"),
    ("bench iters ceiling", "src/rns3/cli.py",
     "if args.iters > sys.maxsize:", "if False:",
     "bench --iters above sys.maxsize raises ValueError from islice, "
     "not exit 2", "tests/test_cli.py::test_cli_transcript"),
    ("crt_reconstruct second -M", "src/rns3/core.py",
     "        x -= M\n        if x >= M:\n            x -= M\n",
     "        x -= M\n",
     "a weighted sum in [2M, 3M) is left above M"),
    ("crt_reconstruct t2 rotation", "src/rns3/core.py",
     "t2 = ((r2 << n - 1) & m2) | (r2 >> n + 1)",
     "t2 = (r2 << n - 1) & m2",
     "the bits rotated out of 2n are lost"),
    ("crt_reconstruct t3 +m3", "src/rns3/core.py",
     "t3 += ms.m3", "pass",
     "a negative folded r3 weight stays negative"),
    ("crt_reconstruct trusts the stamp", "src/rns3/core.py",
     "    validate_residues(ms, rv)\n    r1, r2, r3 = rv.r1, rv.r2, rv.r3\n",
     "    if rv._set is not ms:\n        validate_residues(ms, rv)\n"
     "    r1, r2, r3 = rv.r1, rv.r2, rv.r3\n",
     "the oracle decodes a stamped vector whose residue was put out of "
     "range, as the kernel it checks does",
     "tests/test_core.py::test_crt_reconstruct_checks_a_stamped_vector"),
    ("verify fold loop", "src/rns3/cli.py",
     "while v > mask:", "if v > mask:",
     "the checker's mod 2^k - 1 reference folds only once"),
    ("verify fold all-ones -> 0", "src/rns3/cli.py",
     "return 0 if v == mask else v", "return v",
     "the checker's reference keeps the all-ones alias of zero"),
    ("verify r1 low bits", "src/rns3/cli.py",
     "(v & ((1 << n) - 1),", "(v & (1 << n),",
     "the checker's mod 2^n residue keeps bit n, not the bits below it",
     "tests/test_cli.py::test_checker_folds_match_remainder_exhaustive"),
    ("verify r3 +m3", "src/rns3/cli.py",
     "r3 + (1 << k) + 1 if r3 < 0 else r3", "r3",
     "the checker's mod 2^(2n) + 1 residue stays negative when hi > lo",
     "tests/test_cli.py::test_checker_folds_match_remainder_exhaustive"),
    ("verify sub pad modulus", "src/rns3/cli.py",
     "(1 << 2 * n) + 1) if op", "(1 << 2 * n) - 1) if op",
     "the pair reference pads sub in channel 3 by m2, off by 2 mod m3",
     "tests/test_cli.py::test_pair_reference_is_the_integer_result"),
    ("verify lemma S1 clause", "src/rns3/cli.py",
     "same(s1, ((1 << w) - 1) - (r1 << 3 * n))", "True",
     "verify's operand check passes an S1 word off -2^(3n)*r1",
     "tests/test_cli.py::test_verify_catches_wrong_operand_word_at_large_n[s1]"),
    ("verify lemma S2 clause", "src/rns3/cli.py",
     "same(s2, (r2 << 3 * n - 1) + (r2 << n - 1))", "True",
     "verify's operand check passes an S2 word off its coefficient product",
     "tests/test_cli.py::test_verify_catches_wrong_operand_word_at_large_n[s2]"),
    ("verify lemma S31 + S32 clause", "src/rns3/cli.py",
     "same(s31 + s32, (r3 << 3 * n - 1) - (r3 << n - 1))", "True",
     "verify's operand check passes an r3 pair off its coefficient product",
     "tests/test_cli.py::test_verify_catches_wrong_operand_word_at_large_n[s31_s32]"),
    ("verify lemma merge clause", "src/rns3/cli.py",
     "same(s1 + s32, s1p)", "True",
     "verify's operand check passes an S1' that is not S1 + S32",
     "tests/test_cli.py::test_verify_catches_wrong_operand_word_at_large_n[merge]"),
    ("verify channel component", "src/rns3/cli.py",
     "got.astuple()[i] !=", "got.astuple()[0] !=",
     "verify's channel cases read channel 1 whatever the channel"),
    ("validate_residues other n", "src/rns3/core.py",
     "if stamp is not _UNSTAMPED and stamp.n != ms.n:", "if False:",
     "a vector from a smaller set passes, its ranges nested in ours"),
    ("validate_residues vector type", "src/rns3/core.py",
     "if not isinstance(rv, ResidueVector):", "if False:",
     "a non-vector raises AttributeError, not ResidueError"),
]

# Mutants that change no result, so no test can kill them; their text is
# checked like any row's, but they are not run.
EQUIVALENT = [
    ("verify sub without pad", "src/rns3/cli.py",
     "f(s, t) + pad", "f(s, t)",
     "for -m_i < t < 0, t & (2^n - 1) is t mod 2^n, and the fold leaves t, "
     "so hi = -1, lo = t + 2^(2n), lo + hi = t + m2 and lo - hi = t + m3"),
]


def check_table() -> list[str]:
    """A complaint for each row whose text does not occur exactly once, and
    for each row that names a test its file does not define, or a
    parametrized case whose id the file does not quote: pytest exits
    non-zero on an unknown node id, which would count as a kill."""
    bad = []
    for label, path, text, *_ in MUTANTS + EQUIVALENT:
        count = (ROOT / path).read_text().count(text)
        if count != 1:
            bad.append(f"{label}: text occurs {count} times in {path}")
    for label, *_, first in (row for row in MUTANTS if len(row) == 6):
        path, _, test = first.partition("::")
        test, _, case = test.partition("[")
        source = ROOT / path
        text = source.read_text() if source.is_file() else ""
        if test and f"def {test}(" not in text:
            bad.append(f"{label}: {path} defines no {test}")
        elif case and f'"{case[:-1]}"' not in text:
            bad.append(f"{label}: {path} quotes no case id {case[:-1]}")
    return bad


def run_mutant(path: str, text: str, replacement: str,
               first: str | None = None) -> tuple[bool, float]:
    """(killed, seconds) for one mutant, run on a temporary copy; the test
    file first (by default the module's own) runs before the others, and
    a test first runs before all of them."""
    with tempfile.TemporaryDirectory(prefix="rns3-mutant-") as tmp:
        tmp = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, tmp / tree,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = tmp / path
        target.write_text(target.read_text().replace(text, replacement))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        first = first or f"tests/test_{Path(path).stem}.py"
        if "::" in first:  # a test: it runs again in its file's turn
            files = [first, *TEST_FILES]
        else:
            files = sorted(TEST_FILES, key=lambda f: f != first)
        t0 = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--keep-duplicates", "-k", "not python_O", *files],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        return result.returncode != 0, time.perf_counter() - t0


def main() -> int:
    bad = check_table()
    for complaint in bad:
        print(f"STALE  {complaint}")
    if bad:
        return 1
    for label, _, _, _, why in EQUIVALENT:
        print(f"equivalent, not run: {label}: {why}")
    _, path, text, *_ = MUTANTS[0]
    failed, seconds = run_mutant(path, text, text)  # the text left as it is
    if failed:
        print(f"FAILED   {seconds:5.1f} s  the suite on an unmutated copy")
        return 1
    print(f"passed   {seconds:5.1f} s  the suite on an unmutated copy", flush=True)
    survivors = []
    for label, path, text, replacement, breaks, *first in MUTANTS:
        killed, seconds = run_mutant(path, text, replacement, *first)
        print(f"{'killed' if killed else 'SURVIVED':8} {seconds:5.1f} s  "
              f"{label}: {breaks}", flush=True)
        if not killed:
            survivors.append(label)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
