"""Frozen golden files: seeds, draws, every scheme's numbers and the codebook's bits.

Run-against-run comparisons cannot see a change that moves every run alike;
these files can. A change that moves the numbers on purpose re-freezes them
with `PYTHONPATH=src python tests/test_golden.py` and lists every changed row
or line.

The frozen bits depend on numpy's SIMD dispatch, not only on its version:
float64 arcsin, exp, log2 and angle take other code paths, with other last
bits, when AVX-512 dispatch is off (complex abs and multiply too when AVX2 is
off). The codebook's grid angles come from arcsin, so on a machine or a
NPY_DISABLE_CPU_FEATURES setting without AVX-512 most of these files differ.
Each assertion message names numpy's version and its X86_V4 flag for that
reason. sin, cos and complex exp do not move with the dispatch.
"""

import csv
import difflib
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from nfbf.codebook import build_codebook
from nfbf.geometry import ArrayConfig
from nfbf.harness import SCHEMES, ExperimentSpec, PatternSpec, run_beam_pattern, run_experiment

GOLDEN_DIR = Path(__file__).parent / "golden"
# printed with every golden mismatch: the bits depend on both (module docstring)
DISPATCH = f"numpy {np.__version__}, X86_V4 dispatch {__cpu_features__.get('X86_V4')}"
_SMALL = dict(n_bs=16, k=3, l=2, n_dis=40, trials=2, base_seed=3)
GOLDEN_SPECS = {
    "sumrate_vs_snr.csv": ExperimentSpec(
        experiment="sumrate-vs-snr", schemes=SCHEMES, sweep=(10.0, 20.0), **_SMALL
    ),
    "aux_sweep.csv": ExperimentSpec(
        experiment="aux-sweep", schemes=("aobf-imperfect",), sweep=(1, 2), **_SMALL
    ),
    "sumrate_vs_nbs.csv": ExperimentSpec(
        experiment="sumrate-vs-nbs", schemes=SCHEMES, sweep=(8, 16), **_SMALL
    ),
    "sumrate_vs_k.csv": ExperimentSpec(
        experiment="sumrate-vs-k", schemes=SCHEMES, sweep=(1, 2, 3), **_SMALL
    ),
    # the int 0 pins how an int sweep value prints
    "ee_vs_snr.csv": ExperimentSpec(
        experiment="ee-vs-snr", schemes=SCHEMES, sweep=(0, 10.0), **_SMALL
    ),
}

PATTERN_GOLDEN = "beam_pattern.txt"
PATTERN_SPEC = PatternSpec(n_bs=16, n_dis=40)


def pattern_digest(spec):
    """The gain table verbatim, then the SHA-256 of the full pattern CSV
    (43,441 lines for the default schemes, too large to freeze)."""
    res = run_beam_pattern(spec)
    sha = hashlib.sha256(res.to_csv().encode()).hexdigest()
    return f"{res.gain_table()}\nto_csv sha256 {sha}\n"


CODEBOOK_GOLDEN = "codebook_sha256.txt"
# the default 320 rings and beta = 1.6; the last array has a non-default spacing
# and a wavelength whose division takes the complex path
CODEBOOK_ARRAYS = (
    ArrayConfig(n_bs=16),
    ArrayConfig(n_bs=64),
    ArrayConfig(n_bs=16, wavelength=0.01, spacing=0.7),
)


def codebook_digest(arrays):
    """One line per array: its parameters and the SHA-256 of its codeword bytes."""
    lines = []
    for cfg in arrays:
        cb = build_codebook(cfg)
        sha = hashlib.sha256(cb.flat().tobytes()).hexdigest()
        lines.append(f"n_bs={cfg.n_bs} wavelength={cfg.wavelength!r} spacing={cfg.spacing!r} "
                     f"n_dis={cb.n_dis} beta={cb.beta!r} sha256 {sha}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_golden_csv_is_byte_identical(name):
    want = (GOLDEN_DIR / name).read_text()
    assert run_experiment(GOLDEN_SPECS[name]).to_csv() == want, DISPATCH


def test_golden_beam_pattern_is_identical():
    assert pattern_digest(PATTERN_SPEC) == (GOLDEN_DIR / PATTERN_GOLDEN).read_text(), DISPATCH


def test_golden_codebook_is_bit_identical():
    assert codebook_digest(CODEBOOK_ARRAYS) == (GOLDEN_DIR / CODEBOOK_GOLDEN).read_text(), DISPATCH


def _keyed_rows(text):
    return {(r["sweep"], r["scheme"], r["metric"]): r for r in csv.DictReader(io.StringIO(text))}


def _rel(old, new):
    old, new = float(old), float(new)
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    return (new - old) / abs(old)


def changed_rows(old_csv, new_csv):
    """One line per row that differs between two result CSVs: old -> new mean
    with its relative delta, and the stderr and trial count where they moved."""
    old, new = _keyed_rows(old_csv), _keyed_rows(new_csv)
    lines = []
    for key in [*old, *(k for k in new if k not in old)]:
        label = ",".join(key)
        if key not in new:
            lines.append(f"{label}: removed")
        elif key not in old:
            lines.append(f"{label}: added, mean {new[key]['mean']}")
        elif old[key] != new[key]:
            o, n = old[key], new[key]
            parts = [f"mean {o['mean']} -> {n['mean']} ({_rel(o['mean'], n['mean']):+.2e})"]
            if o["stderr"] != n["stderr"]:
                parts.append(f"stderr {_rel(o['stderr'], n['stderr']):+.2e}")
            if o["trials"] != n["trials"]:
                parts.append(f"trials {o['trials']} -> {n['trials']}")
            lines.append(f"{label}: " + ", ".join(parts))
    return lines


def test_changed_rows_lists_every_moved_row():
    old = "sweep,scheme,metric,mean,stderr,trials\n1,a,m,2.0,1.0,2\n1,b,m,3.0,1.0,2\n"
    new = "sweep,scheme,metric,mean,stderr,trials\n1,a,m,2.0,1.0,2\n1,b,m,3.3,1.0,1\n1,c,m,4.0,0.0,1\n"
    assert changed_rows(old, old) == []
    assert changed_rows(old, new) == [
        "1,b,m: mean 3.0 -> 3.3 (+1.00e-01), trials 2 -> 1",
        "1,c,m: added, mean 4.0",
    ]
    assert changed_rows(new, old)[-1] == "1,c,m: removed"


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, spec in GOLDEN_SPECS.items():
        path = GOLDEN_DIR / name
        csv_text = run_experiment(spec).to_csv()
        old_text = path.read_text() if path.exists() else ""
        lines = changed_rows(old_text, csv_text)
        print(f"{name}: {len(lines)} changed row(s)")
        for line in lines:
            print(f"  {line}")
        path.write_text(csv_text)
    for name, text in ((PATTERN_GOLDEN, pattern_digest(PATTERN_SPEC)),
                       (CODEBOOK_GOLDEN, codebook_digest(CODEBOOK_ARRAYS))):
        path = GOLDEN_DIR / name
        old_text = path.read_text() if path.exists() else ""
        diff = difflib.ndiff(old_text.splitlines(), text.splitlines())
        lines = [d for d in diff if d[:2] in ("- ", "+ ")]
        print(f"{name}: {len(lines)} changed line(s)")
        for line in lines:
            print(f"  {line}")
        path.write_text(text)
