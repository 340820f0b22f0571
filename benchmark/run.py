"""Benchmark of nfbf: seeded Monte Carlo workloads with end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 benchmark/run.py --workload snr-sweep --seed 1 --seconds 30 --trace 0

With --trace 0 the workload runs as a sequence of rounds, each one fresh
`nfbf run` child process (src/ on PYTHONPATH, NFBF_THREADS removed, no BLAS
thread variable set), started one at a time; the run keeps starting rounds
until --seconds have passed and at least the workload's sum-rate rounds are
done. It prints the end-to-end metrics. With --trace 1 the workload runs
in-process with a span around every call into the program's layers, and it
prints the per-layer metrics (see tracing.py).

Every round's result table is checked apart from the program (checks.py). The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. An operation is one (sweep value, scheme) cell
of a result table. The full report, the result tables and the spans go to
benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

import numpy as np

import checks
import tracing
from workloads import WORKLOADS, chunk_seed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
RUN_LIMIT_S = 170.0  # a run must end within 180 s; a child still running then is killed

END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sum_rate.aobf-imperfect": "bit/s/Hz",
    "sum_rate.mean": "bit/s/Hz",
}
THREAD_VARS = (
    "NFBF_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def environment() -> dict:
    """What produced the numbers: cores, interpreter, numpy and BLAS, threads, load."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"
    except (KeyError, TypeError, ValueError):
        blas_id = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_id,
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "loadavg_start": list(os.getloadavg()),
    }


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NFBF_THREADS"}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(workload, base_seed: int, prefix: str, deadline: float) -> dict:
    """One round as a fresh `nfbf run` process; times and peak memory of that process."""
    config, csv_path = prefix + ".json", prefix + ".csv"
    marker, errors = prefix + ".marker", prefix + ".stderr"
    with open(config, "w") as fh:
        json.dump(workload.round_config(), fh)
    cmd = [sys.executable, CHILD, marker, "run", "--config", config,
           "--seed", str(base_seed), "--out", csv_path]
    with open(errors, "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"base_seed": base_seed, "returncode": proc.returncode,
              "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6, "wall_s": t1 - t0}
    if os.path.exists(marker):
        with open(marker) as fh:
            first_trial = float(fh.read())
        record["setup_s"] = first_trial - t0
        record["post_setup_s"] = t1 - first_trial
    if proc.returncode == 0 and os.path.exists(csv_path):
        with open(csv_path) as fh:
            record["csv"] = fh.read()
    else:
        with open(errors) as fh:
            record["stderr"] = fh.read()[-4000:]
    return record


def untraced_run(workload, seed: int, seconds: float, run_dir: str) -> list[dict]:
    """Rounds as child processes until `seconds` have passed and the sum-rate rounds are done."""
    start = time.monotonic()
    children = []
    while len(children) < workload.rate_rounds or time.monotonic() - start < seconds:
        i = len(children)
        children.append(run_child(workload, chunk_seed(seed, i, workload.trials),
                                  os.path.join(run_dir, f"round{i}"), start + RUN_LIMIT_S))
    return children


def score_tables(workload, seed: int, tables) -> dict:
    """Check every round's table; count attempted and failed cells.

    tables is a list of (round index, CSV text or None when the round produced none).
    """
    config = workload.config
    expected = set(checks.expected_cells(config))
    attempted = failed = 0
    problems, unexpected = [], []
    bounds_by_round = {}
    for r, text in tables:
        cells = checks.parse_csv(text) if text is not None else {}
        if r not in bounds_by_round:
            bounds_by_round[r] = checks.rate_bounds(config, chunk_seed(seed, r, workload.trials),
                                                    workload.trials)
        failures = checks.check_table(config, cells, workload.trials, bounds_by_round[r])
        attempted += len(expected)
        failed += len(failures)
        problems += [f"round {r} cell {key}: {why}" for key, why in sorted(failures.items())]
        unexpected += [f"round {r} unexpected cell {key}" for key in sorted(set(cells) - expected)]
    return {"attempted": attempted, "failed": failed, "cell_failures": problems,
            "unexpected": unexpected}


def sum_rate_metrics(tables) -> dict[str, float]:
    """Means over every finite (sweep value, scheme) cell of the given tables."""
    all_cells, aobf_i = [], []
    for text in tables:
        for (_, scheme), (mean, _) in checks.parse_csv(text).items():
            if math.isfinite(mean):
                all_cells.append(mean)
                if scheme == "aobf-imperfect":
                    aobf_i.append(mean)
    return {"sum_rate.aobf-imperfect": statistics.fmean(aobf_i),
            "sum_rate.mean": statistics.fmean(all_cells)}


def end_to_end_metrics(workload, children) -> dict[str, float]:
    completed = [c for c in children if c["returncode"] == 0]
    if not completed:
        raise RuntimeError("no round completed; the first one said:\n" + children[0]["stderr"])
    if any("setup_s" not in c for c in completed):
        raise RuntimeError("a round completed without a first trial: the harness no longer calls "
                           "random_scenario through its module namespace, so set-up time is unseen")
    rated = [c["csv"] for c in children[: workload.rate_rounds] if "csv" in c]
    if not rated:
        raise RuntimeError("no sum-rate round produced a result table")
    metrics = {
        "trials_per_s": (workload.trials * len(completed)
                         / sum(c["post_setup_s"] for c in completed)),
        "setup_s": statistics.median(c["setup_s"] for c in completed),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in completed),
    }
    metrics.update(sum_rate_metrics(rated))
    return metrics


def import_program():
    """Import nfbf.harness and nfbf.mm from this checkout's src/."""
    sys.path.insert(0, SRC)
    import nfbf
    from nfbf import harness, mm

    where = os.path.realpath(os.path.dirname(nfbf.__file__))
    if where != os.path.realpath(os.path.join(SRC, "nfbf")):
        raise RuntimeError(f"imported nfbf from {where}, not from {SRC}")
    return harness, mm


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full report)."""
    run_dir = os.path.join(OUT, f"{workload.name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    report = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment()}
    problems = []
    if trace:
        harness, mm = import_program()
        traced = tracing.traced_run(workload, seed, seconds, harness, mm)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in traced["metrics"].items()}
        tables = traced["tables"]
        problems += traced["problems"]
        for i, (r, text) in enumerate(tables):
            name = f"round{r}.csv" if i < len(tables) - 1 else f"round{r}-untraced.csv"
            with open(os.path.join(run_dir, name), "w") as fh:
                fh.write(text)
        with open(os.path.join(run_dir, "spans.json"), "w") as fh:
            json.dump({"fields": tracing.SPAN_FIELDS, "spans": traced["spans"]}, fh)
        report["untraced_wall_s"] = traced["untraced_wall_s"]
        report["round_walls_s"] = traced["round_walls_s"]
    else:
        children = untraced_run(workload, seed, seconds, run_dir)
        values = end_to_end_metrics(workload, children)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        tables = [(i, c.get("csv")) for i, c in enumerate(children)]
        report["rounds"] = [{k: v for k, v in c.items() if k != "csv"} for c in children]
    scored = score_tables(workload, seed, tables)
    problems += scored["unexpected"]
    result = {"correct": not problems, "attempted": scored["attempted"],
              "failed": scored["failed"], "metrics": metrics}
    report.update(result, problems=problems, cell_failures=scored["cell_failures"])
    with open(os.path.join(run_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "nfbf", "__init__.py")):
        print(f"error: no nfbf sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        result, report = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except Exception:  # the run cannot report: say why and fail, printing no result
        traceback.print_exc()
        return 1
    print("\n".join(output_lines(result, report)))
    return 0


def output_lines(result: dict, report: dict) -> list[str]:
    """The environment, each metric with its unit, failed checks, then the result line."""
    lines = ["environment " + json.dumps(report["environment"])]
    lines += [f"metric {name} {m['value']!r} {m['unit']}" for name, m in result["metrics"].items()]
    lines += ["check failed: " + msg for msg in report["problems"] + report["cell_failures"]]
    lines.append(json.dumps(result))
    return lines


if __name__ == "__main__":
    sys.exit(main())
