"""Tests for link metrics, the power model, and beamformer validation."""

import numpy as np
import pytest

from nfbf.channel import PathComponent, Scenario, make_user_channel
from nfbf.geometry import ArrayConfig, PolarCoord, steering_matrix
from nfbf.metrics import (
    ANALOG_ONLY,
    HYBRID_COMPOSITE,
    BeamformerMatrix,
    PowerModel,
    beam_pattern_grid,
    noise_from_snr,
    sum_rate,
    total_power,
)
from oracles import sinr


def _scenario(cfg, locations, gains=None):
    if gains is None:
        gains = [1.0 + 0.0j] * len(locations)
    users = [
        make_user_channel(cfg, [PathComponent(g, loc)])
        for g, loc in zip(gains, locations)
    ]
    return Scenario(users=users, array=cfg, seed=None)


def _random_scenario_and_f(rng, n, k):
    cfg = ArrayConfig(n_bs=n)
    locs = [
        PolarCoord(rng.uniform(-np.pi / 2, np.pi / 2), rng.uniform(3.0, 100.0))
        for _ in range(k)
    ]
    gains = [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(k)]
    sc = _scenario(cfg, locs, gains)
    f = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    f /= np.linalg.norm(f, axis=0, keepdims=True)
    return cfg, sc, f


def test_noise_from_snr_oracle():
    assert noise_from_snr(1.0, 4, 20.0) == 0.0025
    assert noise_from_snr(1.0, 2, -5.0) == 1.5811388300841895
    # doubling the transmit power at a fixed SNR doubles the noise floor
    assert noise_from_snr(2.0, 4, 20.0) == pytest.approx(0.005, abs=0)


def test_sinr_single_user_reduces_to_snr():
    cfg = ArrayConfig(n_bs=8)
    loc = PolarCoord(0.3, 40.0)
    sc = _scenario(cfg, [loc])
    f = steering_matrix(cfg, loc.angle, loc.radius)[:, None]
    # matched filter: |h^H f|^2 = N * 1 (gain 1, prefactor sqrt(N))
    got = sinr(sc, f, 0, 1.0, 0.01)
    assert got == pytest.approx(8.0 / 0.01, rel=1e-12)


def test_sinr_manual_two_user_oracle():
    # hand-buildable 2x2 case: h_0 = e_0*2, h_1 = e_1, f = I columns
    cfg = ArrayConfig(n_bs=2)
    sc = _scenario(cfg, [PolarCoord(0.0, 50.0), PolarCoord(0.5, 60.0)])
    h0 = np.array([2.0, 0.0], dtype=complex)
    h1 = np.array([0.0, 1.0], dtype=complex)
    sc.users[0].vector = h0
    sc.users[1].vector = h1
    f = np.eye(2, dtype=complex)
    p, s2 = 1.0, 0.1
    # user 0: (0.5*4) / (0.5*0 + 0.1) = 20
    assert sinr(sc, f, 0, p, s2) == pytest.approx(20.0, rel=1e-12)
    assert sinr(sc, f, 1, p, s2) == pytest.approx(5.0, rel=1e-12)
    want = np.log2(21.0) + np.log2(6.0)
    assert sum_rate(sc, f, p, s2) == pytest.approx(want, rel=1e-12)


def test_sinr_interference_lowers_rate():
    rng = np.random.default_rng(3)
    for _ in range(20):
        cfg, sc, f = _random_scenario_and_f(rng, 16, 3)
        s2 = 0.05
        for k in range(3):
            full = sinr(sc, f, k, 1.0, s2)
            # same per-user power P/K = 1/3 with the interferers removed
            sc_k = Scenario(users=[sc.users[k]], array=cfg, seed=None)
            alone = sinr(sc_k, f[:, [k]], 0, 1.0 / 3.0, s2)
            assert full <= alone + 1e-12


def _loop_sum_rate(sc, f, p, sigma2):
    """Reference sum rate: a per-user loop, each user's gains from its own h_k^H F."""
    rates = []
    for k in range(f.shape[1]):
        gains = np.abs(sc.users[k].vector.conj() @ f) ** 2
        per_user = p / f.shape[1]
        interference = per_user * (np.sum(gains) - gains[k])
        rates.append(float(np.log2(1.0 + float(per_user * gains[k] / (interference + sigma2)))))
    return float(sum(rates))


@pytest.mark.parametrize("n", [2, 3, 64, 256])
def test_sum_rate_equals_per_user_loop_bit_for_bit(n):
    # == and not approx: every reported rate keeps its bits, beyond the
    # shapes the golden files cover (N < K included)
    rng = np.random.default_rng(n)
    for k in (1, 2, 3, 4, 6, 8):
        for _ in range(3):
            cfg, sc, f = _random_scenario_and_f(rng, n, k)
            analog = np.exp(1j * np.angle(f)) / np.sqrt(n)
            for snr_db in (-10.0, 0.0, 20.0, 30.0):
                s2 = noise_from_snr(1.0, k, snr_db)
                for m in (f, analog):
                    assert sum_rate(sc, m, 1.0, s2) == _loop_sum_rate(sc, m, 1.0, s2)


def test_global_phase_invariance():
    rng = np.random.default_rng(11)
    cfg, sc, f = _random_scenario_and_f(rng, 16, 3)
    rot = f * np.exp(1j * 1.234)
    for k in range(3):
        assert sinr(sc, rot, k, 1.0, 0.1) == pytest.approx(
            sinr(sc, f, k, 1.0, 0.1), rel=1e-12
        )
    assert sum_rate(sc, rot, 1.0, 0.1) == pytest.approx(
        sum_rate(sc, f, 1.0, 0.1), rel=1e-12
    )


def test_sum_rate_user_permutation_invariance():
    rng = np.random.default_rng(13)
    cfg, sc, f = _random_scenario_and_f(rng, 16, 4)
    perm = [2, 0, 3, 1]
    sc_p = Scenario(users=[sc.users[i] for i in perm], array=cfg, seed=None)
    f_p = f[:, perm]
    assert sum_rate(sc_p, f_p, 1.0, 0.2) == pytest.approx(
        sum_rate(sc, f, 1.0, 0.2), rel=1e-12
    )


def test_beam_gain_cauchy_schwarz_bound():
    rng = np.random.default_rng(17)
    cfg = ArrayConfig(n_bs=32)
    for _ in range(50):
        angles, radii = rng.uniform(-np.pi / 2, np.pi / 2, 3), rng.uniform(3.0, 500.0, 4)
        f = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        f /= np.linalg.norm(f)
        assert np.max(beam_pattern_grid(cfg, f, angles, radii)) <= 1.0 + 1e-12
    # matched filter achieves the bound
    f = steering_matrix(cfg, -0.4, 25.0)
    assert beam_pattern_grid(cfg, f, [-0.4], [25.0])[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_beam_pattern_grid_matches_pointwise():
    rng = np.random.default_rng(19)
    cfg = ArrayConfig(n_bs=16)
    f = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    f /= np.linalg.norm(f)
    angles = np.deg2rad([-60.0, -10.0, 0.0, 35.0])
    radii = np.array([5.0, 50.0, 200.0])
    grid = beam_pattern_grid(cfg, f, angles, radii)
    assert grid.shape == (4, 3)
    for i, a in enumerate(angles):
        for j, r in enumerate(radii):
            want = abs(np.vdot(steering_matrix(cfg, a, r), f)) ** 2
            assert grid[i, j] == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        beam_pattern_grid(cfg, f, np.array([]), radii)


def test_total_power_oracle():
    m = PowerModel()
    assert total_power(m, 1.0, 64, 4, baseband=True) == 3.8640000000000003
    assert total_power(m, 1.0, 64, 4, baseband=False) == 3.664
    assert total_power(m, 1.0, 64, 1, baseband=False) == 1.666
    # the transmit power is the run's P, not a model component
    assert total_power(m, 2.0, 64, 4, baseband=False) == 4.664


def test_energy_efficiency_favors_analog_front_end():
    # at equal sum rate, the single-chain no-baseband front end wins
    p_analog = total_power(PowerModel(), 1.0, 64, 1, baseband=False)
    p_hybrid = total_power(PowerModel(), 1.0, 64, 4, baseband=True)
    assert p_analog < p_hybrid
    assert p_hybrid == pytest.approx(3.864, rel=1e-15)


def test_power_model_rejects_negative_component():
    with pytest.raises(ValueError):
        PowerModel(p_ps=-0.01)
    for name in ("p_rf", "p_ps", "p_bb"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=name):
                PowerModel(**{name: bad})


def test_beamformer_matrix_validation():
    n = 16
    good = np.exp(1j * np.linspace(0.0, 3.0, n * 2).reshape(n, 2)) / np.sqrt(n)
    BeamformerMatrix(good, ANALOG_ONLY).validate()
    bad = good.copy()
    bad[0, 0] *= 1.5
    with pytest.raises(ValueError):
        BeamformerMatrix(bad, ANALOG_ONLY).validate()

    rng = np.random.default_rng(23)
    m = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    m /= np.linalg.norm(m, axis=0, keepdims=True)
    BeamformerMatrix(m, HYBRID_COMPOSITE).validate()
    with pytest.raises(ValueError):
        BeamformerMatrix(2.0 * m, HYBRID_COMPOSITE).validate()
    with pytest.raises(ValueError):
        BeamformerMatrix(m, "something-else").validate()


@pytest.mark.parametrize("kind", [ANALOG_ONLY, HYBRID_COMPOSITE])
@pytest.mark.parametrize("where", ["all", "one"])
def test_validation_rejects_nan(kind, where):
    # a NaN error compares False with the tolerance either way, so an
    # all-NaN matrix, or one NaN among valid entries, must still raise
    n = 16
    m = (np.exp(1j * np.linspace(0.0, 3.0, n * 2).reshape(n, 2)) / np.sqrt(n)).astype(complex)
    BeamformerMatrix(m, kind).validate()
    if where == "all":
        m[:] = np.nan
    else:
        m[3, 1] = np.nan
    with pytest.raises(ValueError, match="violation: nan"):
        BeamformerMatrix(m, kind).validate()


def test_metrics_accept_wrapped_or_raw_matrix():
    rng = np.random.default_rng(29)
    cfg, sc, f = _random_scenario_and_f(rng, 8, 2)
    wrapped = BeamformerMatrix(f, HYBRID_COMPOSITE)
    assert sum_rate(sc, wrapped, 1.0, 0.1) == sum_rate(sc, f, 1.0, 0.1)
    assert sinr(sc, wrapped, 1, 1.0, 0.1) == sinr(sc, f, 1, 1.0, 0.1)


def test_dimension_mismatch_errors():
    rng = np.random.default_rng(31)
    cfg, sc, f = _random_scenario_and_f(rng, 8, 2)
    with pytest.raises(ValueError):
        sinr(sc, f[:4, :], 0, 1.0, 0.1)
