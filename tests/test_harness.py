"""Tests for the Monte Carlo experiment harness."""

import dataclasses
import json

import numpy as np
import pytest

from nfbf.channel import random_scenario
from nfbf.harness import (
    CSV_HEADER,
    DEFAULT_AUX_SWEEP,
    DEFAULT_K_SWEEP,
    DEFAULT_NBS_SWEEP,
    DEFAULT_SNR_SWEEP,
    EXPERIMENTS,
    SCHEMES,
    ExperimentSpec,
    BeamPatternResult,
    pattern_scenario,
    resolved_sweep,
    run_beam_pattern,
    run_experiment,
    scheme_power_model,
    spec_from_dict,
)
from nfbf.metrics import noise_from_snr, total_power


def _tiny_spec(**kw):
    base = dict(
        experiment="sumrate-vs-snr",
        schemes=("steer-perfect", "hbf-zf-perfect"),
        trials=3,
        sweep=(0.0, 10.0),
        n_bs=16,
        k=2,
        l=2,
        n_dis=10,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(experiment="nope")
    with pytest.raises(ValueError):
        _tiny_spec(schemes=())
    with pytest.raises(ValueError):
        _tiny_spec(schemes=("steer-perfect", "typo"))
    with pytest.raises(ValueError):
        _tiny_spec(trials=0)
    with pytest.raises(ValueError):
        _tiny_spec(k=0)
    spec = _tiny_spec()
    assert spec.array_config().n_bs == 16
    assert spec.array_config(32).n_bs == 32
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.trials = 5


def test_resolved_sweep_defaults():
    assert resolved_sweep(ExperimentSpec(experiment="sumrate-vs-snr")) == DEFAULT_SNR_SWEEP
    assert resolved_sweep(ExperimentSpec(experiment="ee-vs-snr")) == DEFAULT_SNR_SWEEP
    assert resolved_sweep(ExperimentSpec(experiment="sumrate-vs-nbs")) == DEFAULT_NBS_SWEEP
    assert resolved_sweep(ExperimentSpec(experiment="sumrate-vs-k")) == DEFAULT_K_SWEEP
    assert resolved_sweep(
        ExperimentSpec(experiment="aux-sweep", schemes=("aobf-imperfect",))
    ) == DEFAULT_AUX_SWEEP
    assert resolved_sweep(_tiny_spec(sweep=(5.0,))) == (5.0,)


def test_run_is_deterministic_and_csv_stable():
    spec = _tiny_spec()
    t1 = run_experiment(spec)
    t2 = run_experiment(spec)
    assert t1.to_csv() == t2.to_csv()
    lines = t1.to_csv().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    # one sum_rate row per (sweep value, scheme)
    assert len(lines) == 1 + 2 * 2
    parsed = json.loads(t1.to_json())
    assert len(parsed) == 4
    assert parsed[0]["metric"] == "sum_rate"


def test_result_table_lookup():
    spec = _tiny_spec(trials=2)
    table = run_experiment(spec)
    row = table.value(10.0, "steer-perfect", "sum_rate")
    assert row.trials == 2
    assert np.isfinite(row.mean) and row.mean > 0
    with pytest.raises(KeyError):
        table.value(10.0, "steer-perfect", "energy_efficiency")
    with pytest.raises(KeyError):
        table.value(7.0, "steer-perfect", "sum_rate")


def test_trials_use_distinct_consecutive_seeds():
    spec = _tiny_spec(schemes=("steer-perfect",), trials=2, sweep=(5.0,))
    both = run_experiment(spec).value(5.0, "steer-perfect", "sum_rate")
    r0 = run_experiment(dataclasses.replace(spec, trials=1)).value(
        5.0, "steer-perfect", "sum_rate"
    )
    r1 = run_experiment(dataclasses.replace(spec, trials=1, base_seed=1)).value(
        5.0, "steer-perfect", "sum_rate"
    )
    assert r0.mean != r1.mean
    assert r0.stderr == 0.0 and r0.trials == 1
    assert both.mean == pytest.approx((r0.mean + r1.mean) / 2.0, rel=1e-15)


def test_stderr_matches_per_trial_rates():
    spec = _tiny_spec(schemes=("steer-perfect",), trials=3, sweep=(0.0,))
    row = run_experiment(spec).value(0.0, "steer-perfect", "sum_rate")
    singles = [
        run_experiment(dataclasses.replace(spec, trials=1, base_seed=t))
        .value(0.0, "steer-perfect", "sum_rate")
        .mean
        for t in range(3)
    ]
    assert row.mean == pytest.approx(np.mean(singles), rel=1e-12)
    assert row.stderr == pytest.approx(
        np.std(singles, ddof=1) / np.sqrt(3.0), rel=1e-12
    )


def test_single_user_steering_rate_oracle():
    spec = _tiny_spec(schemes=("steer-perfect",), trials=1, sweep=(5.0,), k=1, l=1)
    row = run_experiment(spec).value(5.0, "steer-perfect", "sum_rate")
    sc = random_scenario(spec.array_config(), 1, 1, seed=0)
    h = sc.users[0].vector
    gain = (np.sum(np.abs(h)) / np.sqrt(16.0)) ** 2
    sigma2 = noise_from_snr(1.0, 1, 5.0)
    want = np.log2(1.0 + gain / sigma2)
    assert row.mean == pytest.approx(want, rel=1e-12)


def test_energy_efficiency_rows_compose_rate_and_power():
    spec = _tiny_spec(
        experiment="ee-vs-snr",
        schemes=("steer-perfect", "hbf-wmmse-perfect"),
        trials=2,
        sweep=(10.0,),
    )
    table = run_experiment(spec)
    for scheme in spec.schemes:
        rate = table.value(10.0, scheme, "sum_rate")
        ee = table.value(10.0, scheme, "energy_efficiency")
        p_tot = total_power(scheme_power_model(spec, scheme), 16, 2)
        assert ee.mean == pytest.approx(rate.mean / p_tot, rel=1e-12)
        assert ee.trials == rate.trials == 2
    # the analog front end is cheaper: no baseband term in its budget
    p_analog = total_power(scheme_power_model(spec, "steer-perfect"), 16, 2)
    p_hybrid = total_power(scheme_power_model(spec, "hbf-wmmse-perfect"), 16, 2)
    assert p_hybrid - p_analog == pytest.approx(spec.power.p_bb, rel=1e-12)


def test_nbs_and_k_sweeps_change_the_draw():
    spec = _tiny_spec(
        experiment="sumrate-vs-nbs",
        schemes=("steer-perfect",),
        trials=2,
        sweep=(8, 16),
    )
    table = run_experiment(spec)
    r8 = table.value(8, "steer-perfect", "sum_rate")
    r16 = table.value(16, "steer-perfect", "sum_rate")
    assert r8.mean != r16.mean
    spec_k = _tiny_spec(
        experiment="sumrate-vs-k", schemes=("steer-perfect",), trials=2, sweep=(1, 2)
    )
    table_k = run_experiment(spec_k)
    assert table_k.value(1, "steer-perfect", "sum_rate").trials == 2
    assert table_k.value(2, "steer-perfect", "sum_rate").trials == 2


def test_aux_sweep_restricted_to_aobf_imperfect():
    with pytest.raises(ValueError):
        run_experiment(
            _tiny_spec(experiment="aux-sweep", schemes=("aobf-imperfect", "steer-perfect"))
        )
    spec = _tiny_spec(
        experiment="aux-sweep",
        schemes=("aobf-imperfect",),
        trials=1,
        sweep=(1, 2),
        n_bs=8,
        n_dis=6,
    )
    table = run_experiment(spec)
    assert table.value(1, "aobf-imperfect", "sum_rate").trials == 1
    assert table.value(2, "aobf-imperfect", "sum_rate").trials == 1


def test_beam_pattern_rejected_by_run_experiment():
    with pytest.raises(ValueError):
        run_experiment(ExperimentSpec(experiment="beam-pattern"))
    with pytest.raises(ValueError):
        run_beam_pattern(_tiny_spec())


def test_singular_zero_forcing_becomes_nan_policy():
    # more users than antennas: the effective channel is always rank deficient,
    # so zero forcing fails on every trial while analog steering still reports
    spec = ExperimentSpec(
        experiment="sumrate-vs-snr",
        schemes=("steer-perfect", "hbf-zf-perfect"),
        trials=2,
        sweep=(0.0,),
        n_bs=4,
        k=8,
        l=1,
    )
    table = run_experiment(spec)
    zf = table.value(0.0, "hbf-zf-perfect", "sum_rate")
    st = table.value(0.0, "steer-perfect", "sum_rate")
    assert zf.trials == 0
    assert np.isnan(zf.mean) and np.isnan(zf.stderr)
    assert st.trials == 2 and np.isfinite(st.mean)


def test_mm_mu_mode_from_config_reaches_aobf_imperfect():
    doc = dict(
        experiment="sumrate-vs-snr",
        schemes=["aobf-perfect", "aobf-imperfect"],
        trials=2,
        sweep=[10.0],
        n_bs=16,
        k=2,
        l=2,
        n_dis=10,
        r_count=2,
        s_count=2,
    )
    default = run_experiment(spec_from_dict(doc))
    spectral = run_experiment(spec_from_dict(dict(doc, mm={"mu_mode": "spectral"})))
    paper = run_experiment(spec_from_dict(dict(doc, mm={"mu_mode": "paper-exact"})))
    assert default.to_csv() == spectral.to_csv()
    assert paper.value(10.0, "aobf-imperfect", "sum_rate") != default.value(
        10.0, "aobf-imperfect", "sum_rate"
    )


def test_all_schemes_run_on_a_tiny_problem():
    spec = ExperimentSpec(
        experiment="sumrate-vs-snr",
        schemes=SCHEMES,
        trials=1,
        sweep=(10.0,),
        n_bs=16,
        k=2,
        l=2,
        n_dis=10,
        r_count=2,
        s_count=2,
    )
    table = run_experiment(spec)
    assert len(table.rows) == len(SCHEMES)
    for scheme in SCHEMES:
        row = table.value(10.0, scheme, "sum_rate")
        assert np.isfinite(row.mean) and row.mean > 0


def test_pattern_scenario_locations_and_modes():
    spec = ExperimentSpec(experiment="beam-pattern", n_bs=16)
    sc = pattern_scenario(spec)
    assert sc.k == 3
    locs = sc.user_locations()
    assert locs[0].angle == pytest.approx(np.deg2rad(-23.57), rel=1e-15)
    assert locs[0].radius == pytest.approx(50.0, rel=1e-15)
    assert all(len(u.paths) == 1 and u.paths[0].gain == 1.0 for u in sc.users)
    rnd = dataclasses.replace(spec, pattern_random_paths=True)
    sc_r1 = pattern_scenario(rnd)
    sc_r2 = pattern_scenario(rnd)
    assert all(len(u.paths) == 3 for u in sc_r1.users)
    for u1, u2 in zip(sc_r1.users, sc_r2.users):
        assert np.array_equal(u1.vector, u2.vector)
    assert not np.array_equal(sc_r1.users[0].vector, sc.users[0].vector)


def test_run_beam_pattern_grids_and_gains():
    spec = ExperimentSpec(
        experiment="beam-pattern",
        schemes=("steer-perfect", "aobf-perfect"),
        n_bs=16,
    )
    res = run_beam_pattern(spec)
    assert isinstance(res, BeamPatternResult)
    assert res.angles_deg.shape == (181,)
    assert res.radii.shape == (30,)
    for scheme in spec.schemes:
        assert res.grids[scheme].shape == (181, 30)
        assert res.gains[scheme].shape == (3, 3)
        assert np.all(np.isfinite(res.gains_db(scheme)))
    # unit-gain single-path users: conjugate-phase steering hits gain 1 on its
    # own user and strictly less elsewhere
    g = res.gains["steer-perfect"]
    for beam in range(3):
        assert g[beam, beam] == pytest.approx(1.0, rel=1e-12)
        for j in range(3):
            if j != beam:
                assert g[beam, j] < g[beam, beam]
    csv_text = res.to_csv()
    lines = csv_text.splitlines()
    assert lines[0] == "scheme,angle_deg,radius,gain_db"
    assert len(lines) == 1 + 2 * 181 * 30
    table = res.gain_table()
    assert table.count("\n") + 1 == 2 * 3
    assert "UE1" in table and "steer-perfect" in table


def test_spec_from_dict_roundtrip_and_unknown_keys():
    doc = {
        "experiment": "sumrate-vs-snr",
        "schemes": ["steer-perfect"],
        "trials": 2,
        "sweep": [0.0, 5.0],
        "n_bs": 16,
        "k": 2,
        "mm": {"omega": 500.0, "t_max": 50},
        "power": {"p_bb": 0.3},
    }
    spec = spec_from_dict(doc)
    assert spec.schemes == ("steer-perfect",)
    assert spec.sweep == (0.0, 5.0)
    assert spec.mm.omega == 500.0 and spec.mm.t_max == 50
    assert spec.power.p_bb == 0.3 and spec.power.p_tx == 1.0
    with pytest.raises(ValueError):
        spec_from_dict({"experiment": "sumrate-vs-snr", "typo": 1})
    with pytest.raises(ValueError):
        spec_from_dict({"experiment": "sumrate-vs-snr", "mm": {"typo": 1}})
    with pytest.raises(ValueError):
        spec_from_dict({"experiment": "sumrate-vs-snr", "power": {"typo": 1}})
    with pytest.raises(ValueError):
        spec_from_dict(["not", "a", "dict"])


def test_experiment_names_are_stable():
    assert EXPERIMENTS == (
        "sumrate-vs-snr",
        "sumrate-vs-nbs",
        "sumrate-vs-k",
        "ee-vs-snr",
        "beam-pattern",
        "aux-sweep",
    )
    assert len(SCHEMES) == 8


def test_imperfect_pilot_noise_changes_hybrid_only_with_factor():
    spec = _tiny_spec(
        schemes=("hbf-zf-imperfect",), trials=2, sweep=(0.0,), n_bs=8, n_dis=6
    )
    noisy = run_experiment(spec).value(0.0, "hbf-zf-imperfect", "sum_rate")
    clean = run_experiment(
        dataclasses.replace(spec, pilot_noise_factor=0.0)
    ).value(0.0, "hbf-zf-imperfect", "sum_rate")
    assert noisy.mean != clean.mean
    # analog schemes never consult the pilot noise factor
    spec_a = _tiny_spec(schemes=("steer-imperfect",), trials=2, sweep=(0.0,), n_bs=8, n_dis=6)
    a1 = run_experiment(spec_a).value(0.0, "steer-imperfect", "sum_rate")
    a2 = run_experiment(
        dataclasses.replace(spec_a, pilot_noise_factor=0.0)
    ).value(0.0, "steer-imperfect", "sum_rate")
    assert a1.mean == a2.mean
