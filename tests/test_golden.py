"""Frozen golden CSVs: seeds, draws and every scheme's numbers, byte for byte.

Run-against-run comparisons cannot see a change that moves every run alike;
these files can. A change that moves the numbers on purpose re-freezes them
with `PYTHONPATH=src python tests/test_golden.py` and lists every changed row.
"""

from pathlib import Path

import pytest

from nfbf.harness import SCHEMES, ExperimentSpec, run_experiment

GOLDEN_DIR = Path(__file__).parent / "golden"
_SMALL = dict(n_bs=16, k=3, l=2, n_dis=40, trials=2, base_seed=3)
GOLDEN_SPECS = {
    "sumrate_vs_snr.csv": ExperimentSpec(
        experiment="sumrate-vs-snr", schemes=SCHEMES, sweep=(10.0, 20.0), **_SMALL
    ),
    "aux_sweep.csv": ExperimentSpec(
        experiment="aux-sweep", schemes=("aobf-imperfect",), sweep=(1, 2), **_SMALL
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_golden_csv_is_byte_identical(name):
    want = (GOLDEN_DIR / name).read_text()
    assert run_experiment(GOLDEN_SPECS[name]).to_csv() == want


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, spec in GOLDEN_SPECS.items():
        (GOLDEN_DIR / name).write_text(run_experiment(spec).to_csv())
