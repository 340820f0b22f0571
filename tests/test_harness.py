"""Tests for the Monte Carlo experiment harness."""

import contextlib
import dataclasses
import gc
import io
import json
import weakref

import numpy as np
import pytest

import nfbf.codebook
import nfbf.harness
import nfbf.metrics
from nfbf.channel import random_scenario
from nfbf.cli import main
from nfbf.geometry import steering_matrix
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
    spec_from_dict,
    value_spec,
)
from nfbf.hbf import analog_beam_steering
from nfbf.metrics import PowerModel, noise_from_snr, total_power


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
        p_tot = total_power(spec.power, 1.0, 16, 2, baseband=scheme.startswith("hbf-"))
        assert ee.mean == pytest.approx(rate.mean / p_tot, rel=1e-12)
        assert ee.trials == rate.trials == 2
    # the analog front end is cheaper: no baseband term in its budget
    p_analog = total_power(spec.power, 1.0, 16, 2, baseband=False)
    p_hybrid = total_power(spec.power, 1.0, 16, 2, baseband=True)
    assert p_hybrid - p_analog == pytest.approx(spec.power.p_bb, rel=1e-12)


def test_energy_efficiency_divides_by_the_runs_transmit_power():
    # the budget's transmit term is the P the rates were computed at
    spec = _tiny_spec(experiment="ee-vs-snr", schemes=SCHEMES, trials=2, sweep=(10.0,), p=2.0)
    table = run_experiment(spec)
    pw = PowerModel()
    for scheme in SCHEMES:
        rate = table.value(10.0, scheme, "sum_rate")
        ee = table.value(10.0, scheme, "energy_efficiency")
        p_tot = 2.0 + 2 * pw.p_rf + 16 * 2 * pw.p_ps
        if scheme.startswith("hbf-"):
            p_tot += pw.p_bb
        assert ee.mean == pytest.approx(rate.mean / p_tot, rel=1e-12), scheme


@pytest.mark.parametrize(
    "bad", [{"p": 0.0}, {"p": -1.0}, {"p": float("nan")}, {"pilot_noise_factor": -1.0}]
)
def test_spec_rejects_nonsense_power_inputs(bad):
    with pytest.raises(ValueError):
        _tiny_spec(**bad)


@pytest.mark.parametrize(
    "bad", [{"n_dis": 0}, {"beta": 0.0}, {"beta": -1.0}, {"beta": float("nan")},
            {"r_count": 0}, {"s_count": 0}]
)
def test_spec_rejects_bad_codebook_fields(bad):
    # the schemes are perfect-CSI, so no codebook build would catch these
    with pytest.raises(ValueError, match=next(iter(bad))):
        _tiny_spec(**bad)


def test_a_bad_aux_sweep_value_fails_before_any_build_or_draw(monkeypatch):
    log = _counted(monkeypatch, ["build_codebook", "random_scenario"])
    spec = _tiny_spec(experiment="aux-sweep", schemes=("aobf-imperfect",), sweep=(1, 0))
    with pytest.raises(ValueError, match="r_count and s_count must be >= 1"):
        run_experiment(spec)
    assert log == []


@pytest.mark.parametrize("snr_db", [4000.0, -4000.0])
def test_an_snr_with_no_finite_noise_power_fails_before_any_build_or_draw(monkeypatch, snr_db):
    # 10^400 overflows and 10^-400 is 0: either leaves no finite noise power
    log = _counted(monkeypatch, ["build_codebook", "random_scenario"])
    with pytest.raises(ValueError, match="snr_db"):
        _tiny_spec(snr_db=snr_db)
    spec = _tiny_spec(schemes=("aobf-imperfect",), sweep=(0.0, snr_db))
    with pytest.raises(ValueError, match="snr_db"):
        run_experiment(spec)
    assert log == []


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


def _cells(rows):
    return [(r.scheme, r.metric, r.mean, r.stderr, r.trials) for r in rows]


@pytest.mark.parametrize(
    "experiment, sweep, by_hand",
    [
        ("sumrate-vs-nbs", (8, 16), lambda v: dict(n_bs=v)),
        ("sumrate-vs-k", (1, 2), lambda v: dict(k=v)),
        ("aux-sweep", (1, 2), lambda v: dict(r_count=v, s_count=v)),
        ("ee-vs-snr", (0, 10.0), lambda v: dict(snr_db=float(v))),
    ],
)
def test_each_sweep_value_equals_a_one_point_run_with_its_field_set(experiment, sweep, by_hand):
    # a sweep value runs exactly the spec with that value's field set by hand,
    # run as a one-point SNR sweep at the spec's own SNR (an EE sweep for EE)
    schemes = ("aobf-imperfect",) if experiment == "aux-sweep" else SCHEMES
    spec = _tiny_spec(
        experiment=experiment, schemes=schemes, trials=2, sweep=sweep, r_count=2, s_count=2
    )
    table = run_experiment(spec)
    one_point = "ee-vs-snr" if experiment == "ee-vs-snr" else "sumrate-vs-snr"
    for v in sweep:
        manual = dataclasses.replace(spec, experiment=one_point, **by_hand(v))
        want = run_experiment(dataclasses.replace(manual, sweep=(manual.snr_db,)))
        got = [row for row in table.rows if row.sweep == v]
        assert [r.sweep for r in got] == [v] * len(want.rows)
        assert _cells(got) == _cells(want.rows)


def test_int_snr_in_config_does_not_truncate_a_fractional_sweep_point():
    doc = dict(
        experiment="sumrate-vs-snr",
        schemes=["steer-perfect", "hbf-zf-perfect"],
        trials=2,
        sweep=[2.5],
        n_bs=16,
        k=2,
        l=2,
        n_dis=10,
    )
    as_int = run_experiment(spec_from_dict(dict(doc, snr_db=20))).to_csv()
    assert as_int == run_experiment(spec_from_dict(dict(doc, snr_db=20.0))).to_csv()
    assert as_int != run_experiment(spec_from_dict(dict(doc, sweep=[2]))).to_csv()


@pytest.mark.parametrize(
    "experiment, fields",
    [
        ("sumrate-vs-nbs", ("n_bs",)),
        ("sumrate-vs-k", ("k",)),
        ("aux-sweep", ("r_count", "s_count")),
    ],
)
def test_int_axis_rejects_a_non_integral_sweep_value(experiment, fields):
    spec = spec_from_dict({"experiment": experiment, "sweep": [16.5]})
    with pytest.raises(ValueError, match="16.5"):
        value_spec(spec, 16.5)
    for v in (20, 20.0):
        vs = value_spec(spec, v)
        assert all(type(getattr(vs, name)) is int and getattr(vs, name) == 20 for name in fields)


@pytest.mark.parametrize(
    "experiment, schemes, sweep",
    [
        ("sumrate-vs-snr", ("steer-perfect",), (0.0, 0.0)),
        ("ee-vs-snr", ("steer-perfect",), (0, 10.0, 0.0)),
        ("sumrate-vs-nbs", ("steer-perfect",), (8, 16, 16.0)),
        ("sumrate-vs-k", ("steer-perfect",), (1, 1)),
        ("aux-sweep", ("aobf-imperfect",), (1, 2, 1.0)),
    ],
)
def test_a_repeated_sweep_value_is_rejected(experiment, schemes, sweep):
    # values compare after the axis cast, so 16 and 16.0 on an int axis repeat
    spec = _tiny_spec(experiment=experiment, schemes=schemes, sweep=sweep)
    with pytest.raises(ValueError, match="repeats an earlier value"):
        run_experiment(spec)


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


def test_singular_zero_forcing_is_attempted_once_per_trial(monkeypatch):
    # a design that raised is cached like one that returned: perfect-CSI ZF
    # does not depend on the SNR, so one failed attempt decides every SNR cell
    calls = []
    real = nfbf.harness.hbf_zf

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(nfbf.harness, "hbf_zf", counted)
    spec = ExperimentSpec(
        experiment="sumrate-vs-snr",
        schemes=("hbf-zf-perfect",),
        trials=2,
        sweep=(0.0, 10.0, 20.0),
        n_bs=4,
        k=8,
        l=1,
    )
    table = run_experiment(spec)
    assert all(r.trials == 0 and np.isnan(r.mean) for r in table.rows)
    assert len(calls) == spec.trials


def test_an_mm_key_the_config_has_no_field_for_is_rejected(tmp_path):
    # MMConfig has one mu rule per regime and no mu_mode; a config that sets it
    # fails by name, in spec_from_dict and at the command line
    doc = dict(
        experiment="sumrate-vs-snr",
        schemes=["aobf-imperfect"],
        trials=1,
        sweep=[10.0],
        n_bs=16,
        k=2,
        l=2,
        n_dis=10,
        mm={"mu_mode": "spectral"},
    )
    with pytest.raises(ValueError, match="unknown keys in config key 'mm': \\['mu_mode'\\]"):
        spec_from_dict(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path)])
    assert code == 2 and "mu_mode" in err.getvalue()


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
    # the one path: no random-path mode, and no seed for a pattern to read
    with pytest.raises(ValueError, match="unknown keys.*pattern_random_paths"):
        spec_from_dict({"experiment": "beam-pattern", "pattern_random_paths": True})
    with pytest.raises(SystemExit) as exc:
        main(["pattern", "--seed", "1"])
    assert exc.value.code == 2


def test_run_beam_pattern_builds_one_steering_grid(monkeypatch):
    # every scheme and every beam column is read on the same (A, R, N) grid
    grids = []
    real = nfbf.metrics.steering_matrix

    def counted(cfg, angles, radii):
        out = real(cfg, angles, radii)
        grids.append(out.shape)
        return out

    monkeypatch.setattr(nfbf.metrics, "steering_matrix", counted)
    spec = ExperimentSpec(experiment="beam-pattern", n_bs=16, n_dis=10)
    res = run_beam_pattern(spec)
    assert grids == [(181, 30, 16)]
    assert len(res.grids) == len(SCHEMES)


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
    # each gain keeps the bits of its own pair's product u_j^H f_beam
    sc = pattern_scenario(spec)
    f = analog_beam_steering("perfect", scenario=sc).matrix
    for j, loc in enumerate(sc.user_locations()):
        u = steering_matrix(sc.array, loc.angle, loc.radius)
        for beam in range(3):
            assert g[beam, j] == np.abs(u.conj() @ f[:, beam]) ** 2
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
    assert spec.power == PowerModel(p_bb=0.3) and spec.p == 1.0
    with pytest.raises(ValueError):
        spec_from_dict({"experiment": "sumrate-vs-snr", "typo": 1})
    with pytest.raises(ValueError):
        spec_from_dict({"experiment": "sumrate-vs-snr", "mm": {"typo": 1}})
    with pytest.raises(ValueError):
        spec_from_dict({"experiment": "sumrate-vs-snr", "power": {"typo": 1}})
    with pytest.raises(ValueError):
        spec_from_dict(["not", "a", "dict"])
    with pytest.raises(ValueError, match="experiment"):
        spec_from_dict({"trials": 2})
    wrong_types = (
        {"trials": True},
        {"n_bs": 16.0},
        {"sweep": 5},
        {"power": 5},
        {"mm": {"t_max": 1.5}},
    )
    for bad in wrong_types:
        with pytest.raises(ValueError):
            spec_from_dict({"experiment": "sumrate-vs-snr", **bad})


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


def test_zero_pilot_noise_solves_zero_forcing_once_per_regime(monkeypatch):
    # with pilot_noise_factor = 0 neither regime's effective channel depends on
    # the SNR, so each regime's ZF design is solved once per trial, not per SNR
    calls = {"hbf_zf": 0, "effective_channel": 0}
    for name in calls:
        real = getattr(nfbf.harness, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(nfbf.harness, name, counted)
    spec = _tiny_spec(
        schemes=("hbf-zf-perfect", "hbf-zf-imperfect"),
        trials=2,
        sweep=(0.0, 10.0, 20.0),
        pilot_noise_factor=0.0,
    )
    table = run_experiment(spec)
    assert all(r.trials == spec.trials for r in table.rows)
    assert calls == {"hbf_zf": 2 * spec.trials, "effective_channel": 2 * spec.trials}


def _counted(monkeypatch, names):
    """Wrap each harness name so every call appends (name, args) to the returned log."""
    log = []
    for name in names:
        real = getattr(nfbf.harness, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            log.append((_name, args))
            return _real(*args, **kwargs)

        monkeypatch.setattr(nfbf.harness, name, counted)
    return log


def test_aux_sweep_designs_each_grid_once_per_chunk(monkeypatch):
    # 6 trials and 3 (R, S) values: one MM batch of all 6 trials per (R, S),
    # 3 calls where a per-trial loop made 18
    log = _counted(monkeypatch, ["aobf_imperfect_csi"])
    spec = _tiny_spec(experiment="aux-sweep", schemes=("aobf-imperfect",), trials=6,
                      sweep=(1, 2, 3))
    run_experiment(spec)
    assert [(len(args[1]), args[2:4]) for _, args in log] == [(6, (1, 1)), (6, (2, 2)),
                                                              (6, (3, 3))]


def test_snr_sweep_designs_each_regime_once_per_chunk(monkeypatch):
    # 5 trials in chunks of 2: one perfect and one imperfect batch per chunk,
    # whatever the number of SNR points, and the same CSV as one chunk of 5
    spec = _tiny_spec(schemes=("aobf-perfect", "aobf-imperfect"), trials=5,
                      sweep=(0.0, 10.0, 20.0))
    whole = run_experiment(spec).to_csv()
    log = _counted(monkeypatch, ["aobf_perfect_csi", "aobf_imperfect_csi"])
    monkeypatch.setattr(nfbf.harness, "TRIAL_CHUNK", 2)
    assert run_experiment(spec).to_csv() == whole
    assert [(name, len(args[0] if name == "aobf_perfect_csi" else args[1]))
            for name, args in log] == [
        ("aobf_perfect_csi", 2), ("aobf_imperfect_csi", 2),
        ("aobf_perfect_csi", 2), ("aobf_imperfect_csi", 2),
        ("aobf_perfect_csi", 1), ("aobf_imperfect_csi", 1),
    ]


def test_snr_sweep_solves_wmmse_once_per_chunk(monkeypatch):
    # 5 trials in chunks of 2: one WMMSE batch per chunk holding every trial,
    # SNR point and regime of the chunk, and the same CSV as one chunk of 5
    spec = _tiny_spec(schemes=("hbf-wmmse-perfect", "hbf-wmmse-imperfect"), trials=5,
                      sweep=(0.0, 10.0, 20.0))
    whole = run_experiment(spec).to_csv()
    log = _counted(monkeypatch, ["hbf_wmmse"])
    monkeypatch.setattr(nfbf.harness, "TRIAL_CHUNK", 2)
    assert run_experiment(spec).to_csv() == whole
    assert [len(args[0]) for _, args in log] == [2 * 3 * 2, 2 * 3 * 2, 1 * 3 * 2]


def test_k_sweep_solves_wmmse_once_per_chunk_and_k(monkeypatch):
    # each K is its own (N, K) group, and the groups run in turn: one batch
    # per chunk and K, all of K = 1's chunks before K = 2's
    spec = _tiny_spec(experiment="sumrate-vs-k",
                      schemes=("hbf-wmmse-perfect", "hbf-wmmse-imperfect"), trials=3,
                      sweep=(1, 2, 3))
    whole = run_experiment(spec).to_csv()
    log = _counted(monkeypatch, ["hbf_wmmse"])
    monkeypatch.setattr(nfbf.harness, "TRIAL_CHUNK", 2)
    assert run_experiment(spec).to_csv() == whole
    assert [(len(args[0]), args[1][0].shape) for _, args in log] == [
        (trials * 2, (k, k)) for k in (1, 2, 3) for trials in (2, 1)]


def test_each_trials_sweeps_follow_its_own_draw(monkeypatch):
    # two array sizes, so each trial draws twice, every trial of the larger
    # array first: each draw is followed by one beam sweep per user, of that
    # draw's channels, before any later draw
    events = []
    real_draw, real_sweep = nfbf.harness.random_scenario, nfbf.harness.beam_sweep
    monkeypatch.setattr(nfbf.harness, "random_scenario",
                        lambda *args: events.append(real_draw(*args)) or events[-1])
    monkeypatch.setattr(nfbf.harness, "beam_sweep",
                        lambda cb, h: events.append(h) or real_sweep(cb, h))
    spec = _tiny_spec(experiment="sumrate-vs-nbs", schemes=("aobf-imperfect", "steer-imperfect"),
                      trials=3, sweep=(8, 16))
    run_experiment(spec)
    k = spec.k
    assert len(events) == (1 + k) * 2 * spec.trials
    draws = events[:: 1 + k]
    assert [(sc.seed, sc.array.n_bs) for sc in draws] == [(t, n) for n in (16, 8) for t in range(3)]
    for i, scenario in enumerate(draws):
        swept = events[i * (1 + k) + 1 : (i + 1) * (1 + k)]
        assert all(h is u.vector for h, u in zip(swept, scenario.users, strict=True))


def test_every_stage_runs_once_per_design_and_cell(monkeypatch):
    # 3 trials, 3 SNR points, all 8 schemes, pilot noise on: steering once per
    # trial and regime, the effective channel and ZF once per trial for perfect
    # CSI and once per trial and SNR for imperfect CSI, one batch per MM regime
    # and for WMMSE, and one sum_rate per cell
    names = ("random_scenario", "beam_sweep", "analog_beam_steering", "effective_channel",
             "hbf_zf", "hbf_wmmse", "aobf_perfect_csi", "aobf_imperfect_csi", "sum_rate")
    log = _counted(monkeypatch, names)
    spec = ExperimentSpec(experiment="sumrate-vs-snr", trials=3, sweep=(0.0, 10.0, 20.0),
                          n_bs=16, k=3, l=2, n_dis=40, base_seed=3, pilot_noise_factor=1.0)
    run_experiment(spec)
    counts = {name: sum(1 for called, _ in log if called == name) for name in names}
    assert counts == {
        "random_scenario": 3,
        "beam_sweep": 9,
        "analog_beam_steering": 6,
        "effective_channel": 12,
        "hbf_zf": 12,
        "hbf_wmmse": 1,
        "aobf_perfect_csi": 1,
        "aobf_imperfect_csi": 1,
        "sum_rate": 72,
    }


def _basis_lifetimes(monkeypatch):
    """Weak references to every basis array build_codebook returns to the
    harness, and a log of each _design_table call: whether every basis was
    freed by then and whether the codebook it got was grid-only."""
    refs, designs = [], []
    real_build, real_design = nfbf.harness.build_codebook, nfbf.harness._design_table

    def build(*args):
        cb = real_build(*args)
        refs.extend([weakref.ref(cb.sums), weakref.ref(cb.diffs)])
        return cb

    def design(spec, chunk, cb, *args):
        gc.collect()
        designs.append((all(ref() is None for ref in refs), cb is None or cb.sums is None))
        return real_design(spec, chunk, cb, *args)

    monkeypatch.setattr(nfbf.harness, "build_codebook", build)
    monkeypatch.setattr(nfbf.harness, "_design_table", design)
    return refs, designs


def test_a_one_chunk_run_frees_every_basis_before_its_designs(monkeypatch):
    # two arrays, so two codebooks: both bases are gone when the first design
    # table starts, and every table gets a grid-only codebook
    refs, designs = _basis_lifetimes(monkeypatch)
    spec = _tiny_spec(experiment="sumrate-vs-nbs", schemes=("aobf-imperfect", "steer-imperfect"),
                      trials=3, sweep=(8, 16))
    run_experiment(spec)
    assert len(refs) == 4
    assert designs == [(True, True), (True, True)]


def test_a_chunked_run_holds_each_basis_through_its_last_sweep(monkeypatch):
    # 5 trials in chunks of 2: the bases live through the designs of chunks 1
    # and 2 and through every sweep of chunk 3, and are gone at its designs;
    # the CSV is the one-chunk run's
    spec = _tiny_spec(schemes=("aobf-imperfect", "hbf-zf-imperfect"), trials=5,
                      sweep=(0.0, 10.0))
    whole = run_experiment(spec).to_csv()
    refs, designs = _basis_lifetimes(monkeypatch)
    sweeps = []
    real_sweep = nfbf.harness.beam_sweep
    monkeypatch.setattr(nfbf.harness, "beam_sweep", lambda cb, h: sweeps.append(
        all(ref() is not None for ref in refs) and cb.sums is not None) or real_sweep(cb, h))
    monkeypatch.setattr(nfbf.harness, "TRIAL_CHUNK", 2)
    assert run_experiment(spec).to_csv() == whole
    assert len(refs) == 2
    assert sweeps == [True] * spec.trials * spec.k
    assert designs == [(False, True), (False, True), (True, True)]


def test_every_sweep_reads_the_one_basis_alive(monkeypatch):
    # three arrays, given smallest first: every trial of the largest array
    # runs first, and at each beam sweep the one basis alive is the swept
    # codebook's, of the swept channel's N
    refs, _ = _basis_lifetimes(monkeypatch)
    sweeps = []
    real_sweep = nfbf.harness.beam_sweep

    def sweep(cb, h):
        gc.collect()
        alive = [ref() for ref in refs if ref() is not None]
        one = len(alive) == 2 and alive[0] is cb.sums and alive[1] is cb.diffs
        sweeps.append((cb.array.n_bs, h.size, one))
        return real_sweep(cb, h)

    monkeypatch.setattr(nfbf.harness, "beam_sweep", sweep)
    spec = _tiny_spec(experiment="sumrate-vs-nbs", schemes=("aobf-imperfect", "steer-imperfect"),
                      trials=3, sweep=(8, 16, 12))
    run_experiment(spec)
    assert len(refs) == 6
    assert sweeps == [(n, n, True) for n in (16, 12, 8) for _ in range(spec.trials * spec.k)]


def test_each_array_builds_its_codebook_once(monkeypatch):
    # three K at one N, in chunks of 2: one codebook serves every chunk of
    # the three groups; two arrays in chunks of 2: one codebook each, the
    # larger first, and the CSV of one chunk
    log = _counted(monkeypatch, ["build_codebook"])
    k_spec = _tiny_spec(experiment="sumrate-vs-k", schemes=("aobf-imperfect",), sweep=(1, 2, 3))
    nbs_spec = _tiny_spec(experiment="sumrate-vs-nbs",
                          schemes=("aobf-imperfect", "hbf-zf-imperfect"), trials=5, sweep=(8, 16))
    whole = run_experiment(nbs_spec).to_csv()
    monkeypatch.setattr(nfbf.harness, "TRIAL_CHUNK", 2)
    log.clear()
    run_experiment(k_spec)
    assert [args[0].n_bs for _, args in log] == [16]
    log.clear()
    assert run_experiment(nbs_spec).to_csv() == whole
    assert [args[0].n_bs for _, args in log] == [16, 8]


def test_a_run_too_large_for_memory_fails_before_its_first_draw(monkeypatch):
    # memory for the N = 8 basis but not the N = 16 one: the larger array is
    # built first, though listed last, so the run fails with no trial drawn
    log = _counted(monkeypatch, ["build_codebook", "random_scenario"])
    basis = 8 * 10 * 16 * 8  # ceil(N/2) * n_dis * N entries of 8 bytes at N = 16
    monkeypatch.setattr(nfbf.codebook, "_available_memory", lambda: basis - 1)
    spec = _tiny_spec(experiment="sumrate-vs-nbs", schemes=("aobf-imperfect",), sweep=(8, 16))
    with pytest.raises(ValueError, match="GB of memory available"):
        run_experiment(spec)
    assert [(name, args[0].n_bs) for name, args in log] == [("build_codebook", 16)]


def test_beam_pattern_frees_the_basis_after_its_sweep(monkeypatch):
    refs, designs = _basis_lifetimes(monkeypatch)
    spec = ExperimentSpec(experiment="beam-pattern",
                          schemes=("aobf-imperfect", "steer-imperfect"), n_bs=16, n_dis=20)
    run_beam_pattern(spec)
    assert len(refs) == 2
    assert designs == [(True, True)]
