"""Every check of the benchmark passes on the program's real output and rejects a corrupted copy."""

import copy
import math

import numpy as np
import pytest

import checks
import tracing
from nfbf import ArrayConfig, beam_sweep, build_codebook, random_scenario, sum_rate
from nfbf.harness import ExperimentSpec, run_experiment
from nfbf.mm import MMConfig, aobf_perfect_csi

SMALL = {
    "experiment": "sumrate-vs-snr",
    "schemes": ["aobf-perfect", "steer-perfect", "hbf-zf-perfect", "hbf-wmmse-perfect"],
    "sweep": [0.0, 10.0, 20.0],
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
    "mm": {"t_max": 100},
}
TRIALS = 3
SEED = 40


@pytest.fixture(scope="module")
def small_table():
    from nfbf.harness import spec_from_dict

    spec = spec_from_dict(dict(SMALL, trials=TRIALS, base_seed=SEED))
    return checks.parse_csv(run_experiment(spec).to_csv())


@pytest.mark.parametrize("n", [16, 64, 256])
def test_scenario_oracle_draws_the_program_scenario(n):
    sc = random_scenario(ArrayConfig(n_bs=n), k=3, l=3, seed=7)
    want = np.stack([u.vector for u in sc.users])
    got = checks.scenario_channels(n, 3, 3, 7, 1.0, 0.5)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_rate_bound_holds_for_every_beamformer_of_unit_columns():
    rng = np.random.default_rng(0)
    sc = random_scenario(ArrayConfig(n_bs=16), k=2, l=3, seed=SEED)
    sigma2 = checks.noise_power(1.0, 2, 10.0)
    bound = checks.rate_bounds(dict(SMALL, sweep=[10.0]), SEED, 1)[10.0]
    for _ in range(20):
        f = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
        f /= np.linalg.norm(f, axis=0)
        assert sum_rate(sc, f, 1.0, sigma2) < bound


def test_table_checks_pass_on_program_output(small_table):
    bounds = checks.rate_bounds(SMALL, SEED, TRIALS)
    assert checks.check_table(SMALL, small_table, TRIALS, bounds) == {}


def test_table_check_rejects_a_rate_above_the_bound(small_table):
    bounds = checks.rate_bounds(SMALL, SEED, TRIALS)
    cells = dict(small_table)
    key = (20.0, "steer-perfect")
    cells[key] = (bounds[20.0] * (1 + 1e-6), TRIALS)
    failures = checks.check_table(SMALL, cells, TRIALS, bounds)
    assert list(failures) == [key] and "above the matched-filter bound" in failures[key]


def test_table_check_rejects_a_missing_cell(small_table):
    cells = dict(small_table)
    del cells[(10.0, "hbf-wmmse-perfect")]
    failures = checks.check_table(SMALL, cells, TRIALS, checks.rate_bounds(SMALL, SEED, TRIALS))
    assert failures == {(10.0, "hbf-wmmse-perfect"): "missing"}


@pytest.mark.parametrize("mean, trials, scheme, reason", [
    (math.nan, TRIALS, "hbf-wmmse-perfect", "not finite"),
    (1.0, TRIALS - 1, "aobf-perfect", "trials"),
    (-1.0, TRIALS, "hbf-wmmse-perfect", "not positive"),
])
def test_table_check_rejects_bad_cells(small_table, mean, trials, scheme, reason):
    cells = dict(small_table)
    cells[(0.0, scheme)] = (mean, trials)
    failures = checks.check_table(SMALL, cells, TRIALS, checks.rate_bounds(SMALL, SEED, TRIALS))
    assert reason in failures[(0.0, scheme)]


def test_zero_forcing_may_drop_singular_trials(small_table):
    cells = dict(small_table)
    mean, _ = cells[(0.0, "hbf-zf-perfect")]
    cells[(0.0, "hbf-zf-perfect")] = (mean, TRIALS - 1)
    assert checks.check_table(SMALL, cells, TRIALS, checks.rate_bounds(SMALL, SEED, TRIALS)) == {}


def test_table_check_rejects_a_rate_that_does_not_rise_with_snr(small_table):
    cells = dict(small_table)
    cells[(20.0, "aobf-perfect")] = (cells[(10.0, "aobf-perfect")][0], TRIALS)
    failures = checks.check_table(SMALL, cells, TRIALS, checks.rate_bounds(SMALL, SEED, TRIALS))
    key = (20.0, "aobf-perfect")
    assert list(failures) == [key] and "does not rise" in failures[key]


def test_wmmse_need_not_rise_with_snr(small_table):
    cells = dict(small_table)
    cells[(20.0, "hbf-wmmse-perfect")] = (cells[(10.0, "hbf-wmmse-perfect")][0], TRIALS)
    assert checks.check_table(SMALL, cells, TRIALS, checks.rate_bounds(SMALL, SEED, TRIALS)) == {}


def test_trace_check():
    assert not checks.trace_rises([3.0, 2.0, 2.0, -1.0])
    assert not checks.trace_rises([-5.0, -5.0 * (1 - 1e-12)])  # rounding-level wobble
    assert checks.trace_rises([3.0, 2.0, 2.0 + 1e-6, 1.0])


def test_sum_rate_oracle_matches_program():
    rng = np.random.default_rng(1)
    sc = random_scenario(ArrayConfig(n_bs=32), k=3, l=3, seed=2)
    f = rng.standard_normal((32, 3)) + 1j * rng.standard_normal((32, 3))
    h = np.stack([u.vector for u in sc.users], axis=1)
    want = sum_rate(sc, f, 1.0, 0.01)
    assert checks.relative_gap(checks.oracle_sum_rate(h, f, 1.0, 0.01), want) <= 1e-12


def test_polar_grid_oracle_agrees_with_the_sweep():
    cfg = ArrayConfig(n_bs=32)
    cb = build_codebook(cfg, n_dis=30)
    sc = random_scenario(cfg, k=4, l=3, seed=3)
    hs = np.stack([u.vector for u in sc.users])
    picks = [(i.p, i.q) for i in (beam_sweep(cb, h) for h in hs)]
    best, picked = checks.polar_grid_scores(32, 30, 1.6, 1.0, 0.5, hs, picks)
    want = np.max(np.abs(cb.flat().conj() @ hs.T), axis=0)
    assert np.allclose(best, want, rtol=1e-9) and np.allclose(picked, want, rtol=1e-9)


def _good_tracer():
    """A tracer holding real program output of every kind the traced checks examine."""
    cfg = ArrayConfig(n_bs=16)
    sc = random_scenario(cfg, k=2, l=3, seed=SEED)
    cb = build_codebook(cfg, n_dis=20)
    bf, report = aobf_perfect_csi(sc, MMConfig(t_max=50))
    hybrid = np.linalg.qr(np.stack([u.vector for u in sc.users], axis=1))[0]
    t = tracing.Tracer()
    t.mm_reports["mm.aobf_perfect_csi"].append((0, report))
    t.analog.append(("mm.aobf_perfect_csi", bf.matrix.copy()))
    t.hybrid.append(("hbf.hbf_zf", hybrid))
    t.rates.append((sc, bf.matrix, 1.0, 0.01, sum_rate(sc, bf, 1.0, 0.01)))
    t.sampled_scenarios.append(sc)
    for u in sc.users:
        idx = beam_sweep(cb, u.vector)
        t.sampled_sweeps.append((16, 20, 1.6, 1.0, 0.5, u.vector, (idx.p, idx.q)))
    return t


def test_traced_checks_pass_on_program_output():
    assert tracing.check_traced(_good_tracer()) == []


def _corrupt_trace(t):
    trace = t.mm_reports["mm.aobf_perfect_csi"][0][1].objective_trace[0]
    trace[-1] = trace[-2] + 1e-6 * abs(trace[-2])


def _corrupt_modulus(t):
    t.analog[0][1][3, 1] *= 1 + 1e-6


def _corrupt_norm(t):
    t.hybrid[0][1][:, 0] *= 1 + 1e-6


def _corrupt_rate(t):
    sc, f, p, sigma2, value = t.rates[0]
    t.rates[0] = (sc, f, p, sigma2, value * (1 + 1e-7))


def _corrupt_sweep(t):
    *grid, h, (p, q) = t.sampled_sweeps[0]
    t.sampled_sweeps[0] = (*grid, h, (p % 16 + 1, q))


def _corrupt_scenario(t):
    sc = copy.deepcopy(t.sampled_scenarios[0])
    sc.users[0].vector[0] *= -1
    t.sampled_scenarios[0] = sc


@pytest.mark.parametrize("corrupt, words", [
    (_corrupt_trace, "objective rises"),
    (_corrupt_modulus, "modulus"),
    (_corrupt_norm, "column norm"),
    (_corrupt_rate, "SINR oracle"),
    (_corrupt_sweep, "polar grid"),
    (_corrupt_scenario, "oracle draw"),
])
def test_traced_checks_reject_corrupted_output(corrupt, words):
    t = _good_tracer()
    corrupt(t)
    problems = tracing.check_traced(t)
    assert problems and all(words in p for p in problems), problems


def test_workload_configs_name_every_key_the_checks_read():
    # A config that left one out would fall back to a program default the checks do not know.
    from workloads import WORKLOADS

    for w in WORKLOADS.values():
        for key in ("n_bs", "k", "l", "wavelength", "spacing", "n_dis", "beta", "p", "snr_db"):
            assert key in w.config, (w.name, key)
        ExperimentSpec(**{k: (tuple(v) if isinstance(v, list) else v)
                          for k, v in w.round_config().items()})
