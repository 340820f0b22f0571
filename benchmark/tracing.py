"""The traced run: spans around the public functions nfbf.harness and nfbf.mm call.

The tracer replaces, in those two modules' namespaces, the names they import
from channel, codebook, mm, hbf and metrics with timing wrappers defined here;
no file of the program changes. Each call records a span (layer, start, end,
parent span, trial, round, exception). Spans stay in memory and are written
out when the run ends. A layer's time is its self time: span duration minus
the durations of its child spans. The wrappers also keep the MMReport and
WMMSEReport objects the harness discards, and the beamformers and rates the
checks below examine once the timed rounds are over.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

import checks
from workloads import Workload, chunk_seed

# Names nfbf.harness and nfbf.mm import and call; each becomes the layer
# "<defining module>.<function>".
HARNESS_NAMES = (
    "random_scenario",
    "build_codebook",
    "beam_sweep",
    "aobf_perfect_csi",
    "aobf_imperfect_csi",
    "analog_beam_steering",
    "effective_channel",
    "hbf_zf",
    "hbf_wmmse",
    "sum_rate",
)
MM_NAMES = ("approximate_channel_matrices",)

MM_LAYERS = ("mm.aobf_perfect_csi", "mm.aobf_imperfect_csi")
TIMED_LAYERS = (
    "mm.aobf_imperfect_csi",
    "mm.aobf_perfect_csi",
    "codebook.approximate_channel_matrices",
    "hbf.hbf_wmmse",
    "hbf.hbf_zf",
    "hbf.effective_channel",
    "hbf.analog_beam_steering",
    "codebook.build_codebook",
    "codebook.beam_sweep",
    "channel.random_scenario",
    "metrics.sum_rate",
)
COUNTED_LAYERS = (
    "hbf.hbf_wmmse",
    "hbf.hbf_zf",
    "codebook.beam_sweep",
    "channel.random_scenario",
    "metrics.sum_rate",
)
_CODEWORD_BYTES = 16  # complex128

SPAN_FIELDS = ("layer", "start", "end", "parent", "trial", "round", "error")
LAYER, START, END, PARENT, TRIAL, ROUND, ERROR = range(len(SPAN_FIELDS))


class MissingLayerError(RuntimeError):
    """A layer the workload must reach recorded no call, or cannot be wrapped."""


class Tracer:
    """Installs the wrappers, records spans and keeps what the checks need."""

    def __init__(self):
        self.spans: list[list] = []
        self.trial = None
        self.round = None
        self.sample_trial = None  # trial whose scenarios and sweeps the oracles re-derive
        self.mm_reports: dict[str, list] = defaultdict(list)
        self.wmmse_reports: list = []
        self.analog: list[tuple[str, np.ndarray]] = []
        self.hybrid: list[tuple[str, np.ndarray]] = []
        self.rates: list[tuple] = []
        self.sampled_scenarios: list = []
        self.sampled_sweeps: list[tuple] = []
        self.codebook_mb: list[float] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def install(self, harness, mm) -> None:
        for module, names in ((harness, HARNESS_NAMES), (mm, MM_NAMES)):
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    self.uninstall()
                    raise MissingLayerError(f"{module.__name__} no longer has {name!r} to wrap")
                setattr(module, name, self._wrap(original))
                self._installed.append((module, name, original))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._installed):
            setattr(module, name, original)
        self._installed.clear()

    def _wrap(self, original):
        layer = f"{original.__module__.rsplit('.', 1)[-1]}.{original.__name__}"
        observe = getattr(self, "_observe_" + original.__name__, None)
        new_trial = original.__name__ == "random_scenario"

        def wrapper(*args, **kwargs):
            if new_trial:
                self.trial = kwargs["seed"] if "seed" in kwargs else args[3]
            span = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.trial, self.round, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(layer, args, kwargs, result)
            return result

        return wrapper

    # Observers keep references only; the checks run after the timed rounds.

    def _observe_random_scenario(self, layer, args, kwargs, scenario):
        if self.trial == self.sample_trial:
            self.sampled_scenarios.append(scenario)

    def _observe_build_codebook(self, layer, args, kwargs, cb):
        n = cb.array.n_bs
        self.codebook_mb.append(n * cb.n_dis * n * _CODEWORD_BYTES / 1e6)

    def _observe_beam_sweep(self, layer, args, kwargs, index):
        if self.trial == self.sample_trial:
            cb, h = args[0], np.asarray(args[1] if len(args) > 1 else kwargs["h"])
            self.sampled_sweeps.append((cb.array.n_bs, cb.n_dis, cb.beta, cb.array.wavelength,
                                        cb.array.spacing, h, (index.p, index.q)))

    def _observe_aobf_perfect_csi(self, layer, args, kwargs, result):
        self.analog.append((layer, result[0].matrix))
        self.mm_reports[layer].append((self.round, result[1]))

    _observe_aobf_imperfect_csi = _observe_aobf_perfect_csi

    def _observe_analog_beam_steering(self, layer, args, kwargs, bf):
        self.analog.append((layer, bf.matrix))

    def _observe_hbf_zf(self, layer, args, kwargs, hybrid):
        self.hybrid.append((layer, hybrid.composite.matrix))

    def _observe_hbf_wmmse(self, layer, args, kwargs, result):
        self.hybrid.append((layer, result[0].composite.matrix))
        self.wmmse_reports.append(result[1])

    def _observe_sum_rate(self, layer, args, kwargs, value):
        scenario, f, p, sigma2 = args
        self.rates.append((scenario, np.asarray(getattr(f, "matrix", f)), p, sigma2, value))


def self_times(spans) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    own = np.array([s[END] - s[START] for s in spans])
    out = own.copy()
    for s, d in zip(spans, own):
        if s[PARENT] >= 0:
            out[s[PARENT]] -= d
    return out


def layer_metrics(tracer: Tracer, round_walls: dict[int, float],
                  post_setup: dict[int, float], trials: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures, each the mean over the traced rounds."""
    rounds = len(round_walls)
    spans = tracer.spans
    own = self_times(spans)
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    top_level = 0.0
    for s, t in zip(spans, own):
        busy[s[LAYER]] += t
        calls[s[LAYER]] += 1
        if s[ERROR] is not None:
            errors[s[LAYER]] += 1
        if s[PARENT] < 0:
            top_level += s[END] - s[START]

    out: dict[str, tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.s"] = (busy[layer] / rounds, "s")
    for layer in COUNTED_LAYERS:
        out[f"{layer}.calls"] = (calls[layer] / rounds, "count")
    for layer in MM_LAYERS:
        reports = [r for _, r in tracer.mm_reports[layer]]
        designs = sum(len(r.iterations_used) for r in reports)
        iterations = sum(sum(r.iterations_used) for r in reports)
        out[f"{layer}.designs"] = (designs / rounds, "count")
        out[f"{layer}.iterations"] = (iterations / rounds, "count")
        out[f"{layer}.converged"] = (sum(sum(r.converged) for r in reports) / rounds, "count")
        out[f"{layer}.us_per_iteration"] = (
            1e6 * busy[layer] / iterations if iterations else 0.0, "us")
    wmmse = tracer.wmmse_reports
    out["hbf.hbf_wmmse.iterations"] = (sum(r.iterations_used for r in wmmse) / rounds, "count")
    out["hbf.hbf_wmmse.converged"] = (sum(r.converged for r in wmmse) / rounds, "count")
    out["hbf.hbf_zf.singular"] = (errors["hbf.hbf_zf"] / rounds, "count")
    out["codebook.build_codebook.mb"] = (sum(tracer.codebook_mb) / rounds, "MB")
    out["harness.self.s"] = ((sum(round_walls.values()) - top_level) / rounds, "s")
    out["trace.trials_per_s"] = (trials * rounds / sum(post_setup.values()), "trials/s")
    return out


def check_traced(tracer: Tracer) -> list[str]:
    """Property and oracle checks on what the traced rounds produced; [] when all hold."""
    problems = []
    for layer, reports in tracer.mm_reports.items():
        for round_index, report in reports:
            for user, trace in enumerate(report.objective_trace):
                if checks.trace_rises(trace):
                    problems.append(f"{layer} round {round_index} user {user}: objective rises")
    for layer, matrix in tracer.analog:
        err = checks.modulus_error(matrix)
        if not err <= checks.RTOL:
            problems.append(f"{layer}: entry modulus off 1/sqrt(N) by {err:.3e}")
    for layer, matrix in tracer.hybrid:
        err = checks.column_norm_error(matrix)
        if not err <= checks.RTOL:
            problems.append(f"{layer}: composite column norm off 1 by {err:.3e}")
    for scenario, f, p, sigma2, value in tracer.rates:
        h = np.stack([u.vector for u in scenario.users], axis=1)
        want = checks.oracle_sum_rate(h, f, p, sigma2)
        if not checks.relative_gap(value, want) <= checks.RTOL:
            problems.append(f"metrics.sum_rate returned {value!r}, the SINR oracle gives {want!r}")
    for scenario in tracer.sampled_scenarios:
        cfg = scenario.array
        want = checks.scenario_channels(cfg.n_bs, scenario.k, len(scenario.users[0].paths),
                                        scenario.seed, cfg.wavelength, cfg.spacing)
        got = np.stack([u.vector for u in scenario.users])
        gap = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        if not gap <= checks.RTOL:
            problems.append(f"scenario seed {scenario.seed} N={cfg.n_bs} differs from the "
                            f"oracle draw by {gap:.3e}")
    by_grid = defaultdict(list)
    for *grid, h, pick in tracer.sampled_sweeps:
        by_grid[tuple(grid)].append((h, pick))
    for grid, items in by_grid.items():
        best, picked = checks.polar_grid_scores(*grid, np.array([h for h, _ in items]),
                                                [pick for _, pick in items])
        for (h, pick), b, got in zip(items, best, picked):
            if not got >= b * (1.0 - checks.RTOL):
                problems.append(f"beam_sweep at N={grid[0]} picked {pick} scoring {got!r}; "
                                f"the polar grid holds {b!r}")
    return problems


def traced_run(workload: Workload, seed: int, seconds: float, harness, mm) -> dict:
    """Run the workload in-process: traced rounds until time is up, then the last one untraced.

    The last round runs twice, traced and then untraced, on the same trials:
    the ratio of their wall times is the tracing overhead, and their CSVs must
    be identical. It is the last round, not the first, so that both runs are
    past the slower first round a fresh process has.
    """
    def spec(r):
        doc = dict(workload.round_config(), base_seed=chunk_seed(seed, r, workload.trials))
        return harness.spec_from_dict(doc)

    start = time.monotonic()
    tracer = Tracer()
    tracer.sample_trial = chunk_seed(seed, 0, workload.trials)
    tables: dict[int, str] = {}
    walls: dict[int, float] = {}
    post: dict[int, float] = {}
    tracer.install(harness, mm)
    try:
        r = 0
        while r == 0 or time.monotonic() - start < seconds:
            tracer.round = r
            first_span = len(tracer.spans)
            t0 = time.perf_counter()
            tables[r] = harness.run_experiment(spec(r)).to_csv()
            t1 = time.perf_counter()
            walls[r] = t1 - t0
            trial_starts = [s[START] for s in tracer.spans[first_span:]
                            if s[LAYER] == "channel.random_scenario"]
            post[r] = t1 - min(trial_starts) if trial_starts else walls[r]
            r += 1
    finally:
        tracer.uninstall()
    last = r - 1
    t0 = time.perf_counter()
    untraced = harness.run_experiment(spec(last)).to_csv()
    untraced_wall = time.perf_counter() - t0

    reached = {s[LAYER] for s in tracer.spans}
    missing = [layer for layer in workload.required if layer not in reached]
    if missing:
        raise MissingLayerError(
            f"{workload.name}: no call recorded for {', '.join(missing)}; the run no longer "
            "goes through the wrapped names, so its per-layer figures would read 0")

    metrics = layer_metrics(tracer, walls, post, workload.trials)
    metrics["trace.overhead_pct"] = (100.0 * (walls[last] / untraced_wall - 1.0), "%")
    problems = check_traced(tracer)
    if tables[last] != untraced:
        problems.append(f"round {last} traced and untraced gave different CSVs")
    return {
        "metrics": metrics,
        "problems": problems,
        "tables": sorted(tables.items()) + [(last, untraced)],
        "spans": tracer.spans,
        "untraced_wall_s": {last: untraced_wall},
        "round_walls_s": walls,
    }
