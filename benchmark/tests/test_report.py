"""The report names every metric of BENCHMARK.json with its unit, counts operations,
records the environment, and the benchmark refuses to run where it cannot."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from workloads import ALL_SCHEMES, Workload

REPO = os.path.dirname(run.HERE)
with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

TINY = Workload(
    name="test-tiny",
    why="a few small trials of every scheme, for testing the benchmark itself",
    config={
        "experiment": "sumrate-vs-snr",
        "schemes": list(ALL_SCHEMES),
        "sweep": [0.0, 20.0],
        "n_bs": 16,
        "k": 2,
        "l": 3,
        "wavelength": 1.0,
        "spacing": 0.5,
        "n_dis": 20,
        "beta": 1.6,
        "p": 1.0,
        "r_count": 2,
        "s_count": 2,
        "snr_db": 20.0,
        "mm": {"t_max": 50},
    },
    trials=2,
    rate_rounds=2,
    required=tuple(f"{m}.{n}" for m, n in (
        ("channel", "random_scenario"), ("mm", "aobf_imperfect_csi"), ("hbf", "hbf_wmmse"))),
)
CELLS = 2 * len(ALL_SCHEMES)


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _check_output(result, report, want_units):
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want_units
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0 and result["attempted"] % CELLS == 0
    lines = run.output_lines(result, report)
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    for name, unit in want_units.items():
        assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}")
                   for line in lines)
    env = report["environment"]
    assert set(env) == {"nproc", "python", "numpy", "blas", "thread_vars", "loadavg_start"}
    assert env["nproc"] >= 1 and "OPENBLAS_NUM_THREADS" in env["thread_vars"]


def test_untraced_report_prints_every_end_to_end_metric():
    result, report = run.run(TINY, seed=3, seconds=0, trace=False)
    _check_output(result, report, _units("end_to_end"))
    assert result["attempted"] == TINY.rate_rounds * CELLS
    assert all(r["setup_s"] > 0 and r["post_setup_s"] > 0 for r in report["rounds"])


def test_traced_report_prints_every_per_layer_metric():
    result, report = run.run(TINY, seed=3, seconds=0, trace=True)
    _check_output(result, report, _units("per_layer"))
    # one traced round, then the same round untraced
    assert result["attempted"] == 2 * CELLS
    assert result["metrics"]["channel.random_scenario.calls"]["value"] == TINY.trials


def test_traced_run_fails_when_a_required_layer_records_no_call():
    no_wmmse = dataclasses.replace(TINY, config=dict(TINY.config, schemes=["aobf-imperfect"]))
    with pytest.raises(tracing.MissingLayerError, match="hbf.hbf_wmmse"):
        run.run(no_wmmse, seed=3, seconds=0, trace=True)


def test_a_round_without_output_fails_every_cell():
    scored = run.score_tables(TINY, 3, [(0, None)])
    assert scored["attempted"] == scored["failed"] == CELLS


def test_benchmark_json_matches_the_workloads():
    from workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert _units("end_to_end") == run.END_TO_END_UNITS


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("out"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "snr-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
