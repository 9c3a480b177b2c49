"""Mutation check of the fused kernels and the checks around them.

Each row of MUTANTS names a source file, a piece of text that occurs in
it exactly once, a replacement and what the mutant breaks.  For each row
the script copies src/, tests/ and pyproject.toml into a temporary
directory, applies the replacement there (never in the working tree) and
runs

    python -m pytest -x -q -k "not python_O" <TEST_FILES>

on the copy, with the mutated module's own test file first, since it
most often fails first.  The same command first runs once on an
unmutated copy, and the script exits 1 unless that run passes, so a kill
counts only against a suite that passes on the clean tree.  A mutant is
killed when pytest fails.  The script exits 1 if any mutant survives, or
if any row's text (EQUIVALENT rows included) does not occur exactly
once, so the table keeps pace with the code.

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
              "tests/test_converter.py", "tests/test_cli.py")

# (label, file, text, replacement, what the mutant breaks)
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
    ("rns_op 2^w+1 product fold", "src/rns3/channels.py",
     "t3 = (t3 & m2) - (t3 >> w)", "t3 = (t3 & m2) + (t3 >> w)",
     "2^(2n) is -1 modulo 2^(2n) + 1, not +1"),
    ("rns_op pow2 mask", "src/rns3/channels.py",
     "t1 & (m1 - 1)", "t1",
     "the 2^n channel is never reduced"),
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
    ("reverse_convert carry wrap", "src/rns3/converter.py",
     "((carry & mask) | (carry >> 4 * n))", "(carry & mask)",
     "the CSA carry out of the MSB is dropped, not wrapped to bit 0"),
    ("reverse_convert end-around carry", "src/rns3/converter.py",
     "t = (t & mask) + (t >> 4 * n)", "t = t & mask",
     "the final adder's carry out is dropped"),
    ("reverse_convert all-ones -> 0", "src/rns3/converter.py",
     "(0 if t == mask else t) << n | r1", "t << n | r1",
     "Y = 2^(4n) - 1 is returned for Y = 0"),
    ("reverse_convert S2 wiring", "src/rns3/converter.py",
     "| (r2 << n - 1) |", "| (r2 << n) |",
     "the middle copy of r2 is wired one bit too high"),
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
    ("verify fold loop", "src/rns3/cli.py",
     "while v > mask:", "if v > mask:",
     "the checker's mod 2^k - 1 reference folds only once"),
    ("verify fold all-ones -> 0", "src/rns3/cli.py",
     "return 0 if v == mask else v", "return v",
     "the checker's reference keeps the all-ones alias of zero"),
    ("verify mod M low bits", "src/rns3/cli.py",
     "(v & ((1 << n) - 1))", "(v & (1 << n))",
     "the checker's mod M reference drops the low n bits"),
    ("verify channel component", "src/rns3/cli.py",
     "got.astuple()[i] !=", "got.astuple()[0] !=",
     "verify's channel cases read channel 1 whatever the channel"),
    ("_check_origin other n", "src/rns3/core.py",
     "if stamp is not _UNSTAMPED and stamp.n != ms.n:", "if False:",
     "a vector from a smaller set passes, its ranges nested in ours"),
    ("_check_origin vector type", "src/rns3/core.py",
     "if not isinstance(rv, ResidueVector):", "if False:",
     "a non-vector raises AttributeError, not ResidueError"),
]

# Mutants that change no result, so no test can kill them; their text is
# checked like any row's, but they are not run.
EQUIVALENT = [
    ("rns_op sub without +m2", "src/rns3/channels.py",
     "t2 = a2 - b2 + m2", "t2 = a2 - b2",
     "for -m2 < t < 0, (t & m2) + (t >> w) is t + 2^w - 1 = t + m2, "
     "since t >> w is -1: the fold adds the modulus itself"),
    ("census S31 inverters", "src/rns3/costs.py",
     "for z, w in zip(zero, wires))", "for z, w in zip(zero[:2], wires[:2]))",
     "S31 reads 0 at all-zero residues, so it adds no inverter"),
]


def check_table() -> list[str]:
    """A complaint for each row whose text does not occur exactly once."""
    bad = []
    for label, path, text, _, _ in MUTANTS + EQUIVALENT:
        count = (ROOT / path).read_text().count(text)
        if count != 1:
            bad.append(f"{label}: text occurs {count} times in {path}")
    return bad


def run_mutant(path: str, text: str, replacement: str) -> tuple[bool, float]:
    """(killed, seconds) for one mutant, run on a temporary copy."""
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
        own = f"tests/test_{Path(path).stem}.py"
        files = sorted(TEST_FILES, key=lambda f: f != own)
        t0 = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "-k", "not python_O", *files],
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
    _, path, text, _, _ = MUTANTS[0]
    failed, seconds = run_mutant(path, text, text)  # the text left as it is
    if failed:
        print(f"FAILED   {seconds:5.1f} s  the suite on an unmutated copy")
        return 1
    print(f"passed   {seconds:5.1f} s  the suite on an unmutated copy", flush=True)
    survivors = []
    for label, path, text, replacement, breaks in MUTANTS:
        killed, seconds = run_mutant(path, text, replacement)
        print(f"{'killed' if killed else 'SURVIVED':8} {seconds:5.1f} s  "
              f"{label}: {breaks}", flush=True)
        if not killed:
            survivors.append(label)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
