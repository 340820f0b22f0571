import numpy as np
import pytest

from nfbf.channel import (
    DEFAULT_RHO_MIN_WAVELENGTHS,
    PathComponent,
    make_user_channel,
    random_scenario,
    scenario_from_json,
    scenario_to_json,
    synthesize_channel,
)
from nfbf.geometry import ArrayConfig, PolarCoord, nearfield_steering, rayleigh_distance


def test_single_path_norm():
    cfg = ArrayConfig(n_bs=16)
    h = synthesize_channel(cfg, [PathComponent(1.0 + 0j, PolarCoord(0.2, 10.0))])
    assert abs(np.linalg.norm(h) - 4.0) < 1e-12


def test_zero_gain_second_path():
    cfg = ArrayConfig(n_bs=8)
    loc1 = PolarCoord(-0.3, 6.0)
    loc2 = PolarCoord(0.5, 3.0)
    a1 = 0.7 - 0.2j
    h2 = synthesize_channel(cfg, [PathComponent(a1, loc1), PathComponent(0j, loc2)])
    want = np.sqrt(8 / 2) * a1 * nearfield_steering(cfg, loc1)
    assert np.max(np.abs(h2 - want)) < 1e-12


def test_term_by_term_oracle():
    cfg = ArrayConfig(n_bs=8)
    rng = np.random.default_rng(0)
    paths = []
    for _ in range(3):
        g = complex(rng.standard_normal(), rng.standard_normal())
        loc = PolarCoord(rng.uniform(-1.5, 1.5), rng.uniform(3.0, 15.0))
        paths.append(PathComponent(g, loc))
    h = synthesize_channel(cfg, paths)
    want = np.zeros(8, dtype=complex)
    for p in paths:
        want += p.gain * nearfield_steering(cfg, p.location)
    want *= np.sqrt(8 / 3)
    assert np.max(np.abs(h - want)) < 1e-12


def test_synthesize_empty_paths_error():
    with pytest.raises(ValueError):
        synthesize_channel(ArrayConfig(n_bs=4), [])


def test_synthesis_linearity():
    cfg = ArrayConfig(n_bs=8)
    paths = [
        PathComponent(0.5 + 0.5j, PolarCoord(0.1, 5.0)),
        PathComponent(-0.2j, PolarCoord(-0.4, 7.0)),
    ]
    scaled = [PathComponent(3j * p.gain, p.location) for p in paths]
    assert np.max(np.abs(synthesize_channel(cfg, scaled) - 3j * synthesize_channel(cfg, paths))) < 1e-12


def test_random_scenario_deterministic():
    cfg = ArrayConfig(n_bs=16)
    a = random_scenario(cfg, 4, 3, seed=42)
    b = random_scenario(cfg, 4, 3, seed=42)
    assert a.seed == b.seed == 42
    for ua, ub in zip(a.users, b.users):
        assert np.array_equal(ua.vector, ub.vector)
        for pa, pb in zip(ua.paths, ub.paths):
            assert pa.gain == pb.gain
            assert pa.location == pb.location


def test_random_scenario_gain_statistics():
    cfg = ArrayConfig(n_bs=4)
    los = []
    scatter = []
    for seed in range(1000):
        sc = random_scenario(cfg, 10, 5, seed=seed)
        for u in sc.users:
            los.append(u.paths[0].gain)
            scatter.extend(p.gain for p in u.paths[1:])
    los = np.array(los)
    scatter = np.array(scatter)
    assert los.size == 10**4
    v1 = np.mean(np.abs(los) ** 2)
    v2 = np.mean(np.abs(scatter) ** 2)
    assert 0.9 <= v1 <= 1.1
    assert 0.009 <= v2 <= 0.011


def test_random_scenario_distance_range():
    cfg = ArrayConfig(n_bs=16)
    d_r = rayleigh_distance(cfg)
    for seed in range(20):
        sc = random_scenario(cfg, 3, 3, seed=seed)
        for u in sc.users:
            for p in u.paths:
                assert 3.0 <= p.location.radius <= d_r
                assert -np.pi / 2 <= p.location.angle < np.pi / 2


def test_random_scenario_count_errors():
    cfg = ArrayConfig(n_bs=8)
    with pytest.raises(ValueError):
        random_scenario(cfg, 0, 3, seed=0)
    with pytest.raises(ValueError):
        random_scenario(cfg, 2, 0, seed=0)


def test_random_scenario_needs_the_minimum_distance_below_the_rayleigh_distance():
    # at N = 2 the Rayleigh distance is 2 wavelengths, inside the 3-wavelength floor
    cfg = ArrayConfig(n_bs=2)
    assert rayleigh_distance(cfg) < DEFAULT_RHO_MIN_WAVELENGTHS * cfg.wavelength
    with pytest.raises(ValueError, match="below the Rayleigh distance"):
        random_scenario(cfg, 1, 1, seed=0)
    random_scenario(ArrayConfig(n_bs=3), 1, 1, seed=0)  # 4.5 wavelengths clears it


def test_expected_channel_power():
    # fixed locations, gain randomness only: E||h||^2 = (N/L)(1 + 0.01(L-1))
    cfg = ArrayConfig(n_bs=64)
    total = 0.0
    count = 0
    for seed in range(100):
        sc = random_scenario(cfg, 25, 3, seed=seed)
        for u in sc.users:
            total += float(np.linalg.norm(u.vector) ** 2)
            count += 1
    mean = total / count
    want = 64 / 3 * 1.02  # 21.76
    assert abs(mean - want) / want < 0.05


def test_scenario_json_roundtrip():
    cfg = ArrayConfig(n_bs=16)
    sc = random_scenario(cfg, 3, 3, seed=11)
    back = scenario_from_json(scenario_to_json(sc))
    assert back.seed == sc.seed
    assert back.array == sc.array
    for ua, ub in zip(sc.users, back.users):
        assert np.max(np.abs(ua.vector - ub.vector)) < 1e-12


def test_user_channel_vector_matches_paths():
    cfg = ArrayConfig(n_bs=8)
    paths = [PathComponent(0.3 + 1j, PolarCoord(0.0, 5.0))]
    uc = make_user_channel(cfg, paths)
    assert np.max(np.abs(uc.vector - synthesize_channel(cfg, paths))) == 0.0
