import numpy as np
import pytest

from nfbf.geometry import (
    ArrayConfig,
    CartesianCoord,
    PolarCoord,
    cartesian_to_polar,
    element_distance,
    element_distances,
    farfield_steering,
    nearfield_steering,
    polar_to_cartesian,
    rayleigh_distance,
    steering_matrix,
)


def test_array_config_offsets_sum_to_zero():
    for n in (2, 3, 8, 64):
        cfg = ArrayConfig(n_bs=n)
        g = cfg.offsets()
        assert g.shape == (n,)
        assert abs(np.sum(g)) < 1e-12
        assert cfg.spacing == 0.5


def test_array_config_validation():
    with pytest.raises(ValueError):
        ArrayConfig(n_bs=1)
    with pytest.raises(ValueError):
        ArrayConfig(n_bs=4, wavelength=0.0)
    with pytest.raises(ValueError):
        ArrayConfig(n_bs=4, spacing=-0.1)


def test_polar_coord_validation():
    with pytest.raises(ValueError):
        PolarCoord(np.pi / 2, 1.0)  # half-open interval
    with pytest.raises(ValueError):
        PolarCoord(0.0, 0.0)


def test_polar_to_cartesian_broadside():
    c = polar_to_cartesian(PolarCoord(0.0, 5.0))
    assert c.x == 0.0
    assert c.y == 5.0


def test_polar_to_cartesian_thirty_degrees():
    # direct trigonometric evaluation: (pi/6, 2) -> (1, sqrt(3))
    c = polar_to_cartesian(PolarCoord(np.pi / 6, 2.0))
    assert abs(c.x - 1.0) < 1e-12
    assert abs(c.y - 1.7320508075688772) < 1e-12


def test_cartesian_to_polar_examples():
    p = cartesian_to_polar(CartesianCoord(0.0, 5.0))
    assert p.angle == 0.0
    assert p.radius == 5.0
    p = cartesian_to_polar(CartesianCoord(1.0, 1.7320508075688772))
    assert abs(p.angle - np.pi / 6) < 1e-12
    assert abs(p.radius - 2.0) < 1e-12


def test_cartesian_to_polar_mirror_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.uniform(-10, 10)
        y = rng.uniform(0.1, 10)
        a = cartesian_to_polar(CartesianCoord(x, y))
        b = cartesian_to_polar(CartesianCoord(-x, y))
        assert abs(a.angle + b.angle) < 1e-12
        assert abs(a.radius - b.radius) < 1e-12


def test_cartesian_to_polar_errors():
    with pytest.raises(ValueError):
        cartesian_to_polar(CartesianCoord(0.0, 0.0))
    with pytest.raises(ValueError):
        cartesian_to_polar(CartesianCoord(1.0, -2.0))


def test_roundtrip_random():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        p = PolarCoord(rng.uniform(-np.pi / 2, np.pi / 2), rng.uniform(1e-3, 1e3))
        c = polar_to_cartesian(p)
        p2 = cartesian_to_polar(CartesianCoord(c.x, c.y))
        assert abs(p2.angle - p.angle) <= 1e-12 * max(1.0, abs(p.angle))
        assert abs(p2.radius - p.radius) <= 1e-12 * p.radius


def test_element_distance_broadside_symmetry():
    cfg = ArrayConfig(n_bs=8)
    p = PolarCoord(0.0, 7.0)
    d = element_distances(cfg, p.angle, p.radius)
    # gamma symmetric pairs give equal distances at broadside
    assert np.allclose(d, d[::-1], rtol=0, atol=1e-13)
    g = cfg.spacing * cfg.offsets()
    assert np.allclose(d, np.sqrt(49.0 + g * g), rtol=0, atol=1e-13)


def test_element_distance_center_element_odd_array():
    cfg = ArrayConfig(n_bs=5)
    p = PolarCoord(0.4, 9.0)
    assert abs(element_distance(cfg, p, 3) - 9.0) < 1e-12  # gamma_3 = 0


def test_element_distance_cartesian_oracle():
    rng = np.random.default_rng(2)
    cfg = ArrayConfig(n_bs=16)
    for _ in range(300):
        p = PolarCoord(rng.uniform(-np.pi / 2, np.pi / 2), rng.uniform(1.0, 2000.0))
        n = int(rng.integers(1, 17))
        c = polar_to_cartesian(p)
        g = cfg.spacing * cfg.offsets()[n - 1]
        want = np.hypot(c.x - g, c.y)
        assert abs(element_distance(cfg, p, n) - want) <= 1e-12 * want


def test_steering_matrix_matches_cartesian_oracle():
    # the oracle builds each vector from Cartesian distances (np.hypot), not
    # from the law of cosines steering_matrix uses
    rng = np.random.default_rng(17)
    for cfg in (
        ArrayConfig(n_bs=8),
        ArrayConfig(n_bs=16, wavelength=0.01),
        ArrayConfig(n_bs=9, spacing=0.7),
    ):
        lam = cfg.wavelength
        x_n = cfg.spacing * cfg.offsets()
        cases = [  # scalar, (P, 1) x (P, Q) as in the codebook, (A, 1) x (1, R) as in patterns
            (float(rng.uniform(-1.5, 1.5)), float(rng.uniform(1.0, 300.0)) * lam),
            (rng.uniform(-1.5, 1.5, (4, 1)), rng.uniform(1.0, 300.0, (4, 5)) * lam),
            (rng.uniform(-1.5, 1.5, (6, 1)), rng.uniform(1.0, 300.0, (1, 3)) * lam),
        ]
        for a, r in cases:
            u = steering_matrix(cfg, a, r)
            shape = np.broadcast_shapes(np.shape(a), np.shape(r))
            assert u.shape == shape + (cfg.n_bs,)
            a_b, r_b = np.broadcast_arrays(a, r)
            for idx in np.ndindex(shape):
                p = PolarCoord(float(a_b[idx]), float(r_b[idx]))
                c = polar_to_cartesian(p)
                want = np.exp(-2j * np.pi * np.hypot(c.x - x_n, c.y) / lam) / np.sqrt(cfg.n_bs)
                assert np.max(np.abs(u[idx] - want)) <= 1e-12
                assert np.array_equal(
                    nearfield_steering(cfg, p), steering_matrix(cfg, p.angle, p.radius)
                )


@pytest.mark.parametrize("wavelength", [1.0, 0.01])  # 0.01 divides on the complex path
def test_steering_matrix_keeps_the_allocating_formula_bits(wavelength):
    cfg = ArrayConfig(n_bs=16, wavelength=wavelength)
    rng = np.random.default_rng(23)
    radii = rng.uniform(1.0, 300.0, (4, 5)) * wavelength
    cases = [  # scalar point, (P, 1) x (P, Q) as in a codebook, () x (Q,) as in a codebook tile
        (0.3, 7.0 * wavelength),
        (rng.uniform(-1.5, 1.5, (4, 1)), radii),
        (np.float64(-0.6), radii[1]),
    ]
    for a, r in cases:
        want = np.exp(-2j * np.pi * element_distances(cfg, a, r) / wavelength) / np.sqrt(16)
        assert np.array_equal(steering_matrix(cfg, a, r), want)


def complex_exp_steering(cfg, angles, radii):
    """The complex-exp formula steering_matrix's cos/sin kernel replaced, kept as
    its bit oracle: complex multiply, division by the wavelength, complex exp and
    division by sqrt(N)."""
    out = np.multiply(-2j * np.pi, element_distances(cfg, angles, radii))
    out /= cfg.wavelength
    np.exp(out, out=out)
    out /= np.sqrt(cfg.n_bs)
    return out


@pytest.mark.parametrize("spacing", [None, 0.7])  # half a wavelength, or 0.7 wavelengths
@pytest.mark.parametrize("wavelength", [1.0, 0.01, 0.0107])
@pytest.mark.parametrize("n", [2, 3, 16, 63, 64, 100, 256])
def test_steering_kernel_matches_the_complex_exp_formula_bit_for_bit(n, wavelength, spacing):
    cfg = ArrayConfig(n_bs=n, wavelength=wavelength,
                      spacing=None if spacing is None else spacing * wavelength)
    rng = np.random.default_rng(n)
    radii = rng.uniform(1.0, 2.0 * n * n, (6, 40)) * wavelength
    cases = [  # scalar point, (P, 1) x (P, Q) as in a codebook, () x (Q,) as in a
        # codebook tile, (A, 1) x (1, R) as in a beam pattern
        (0.3, 7.0 * wavelength),
        (rng.uniform(-1.5, 1.5, (6, 1)), radii),
        (np.float64(-0.6), radii[1]),
        (rng.uniform(-1.5, 1.5, (5, 1)), radii[2, None, :7]),
    ]
    for a, r in cases:
        want = complex_exp_steering(cfg, a, r)
        assert np.array_equal(steering_matrix(cfg, a, r).view(float), want.view(float))


def test_element_distance_index_bounds():
    cfg = ArrayConfig(n_bs=4)
    p = PolarCoord(0.0, 5.0)
    with pytest.raises(ValueError):
        element_distance(cfg, p, 0)
    with pytest.raises(ValueError):
        element_distance(cfg, p, 5)


def test_nearfield_steering_invariants():
    rng = np.random.default_rng(3)
    cfg = ArrayConfig(n_bs=64)
    for _ in range(20):
        p = PolarCoord(rng.uniform(-np.pi / 2, np.pi / 2), rng.uniform(3.0, 2048.0))
        u = nearfield_steering(cfg, p)
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12
        assert np.max(np.abs(np.abs(u) - 1 / 8.0)) < 1e-12


def test_nearfield_matched_filter_gain():
    cfg = ArrayConfig(n_bs=32)
    p = PolarCoord(-0.5, 40.0)
    u = nearfield_steering(cfg, p)
    f = np.exp(1j * np.angle(u)) / np.sqrt(cfg.n_bs)
    assert abs(np.abs(u.conj() @ f) ** 2 - 1.0) < 1e-12


def test_nearfield_converges_to_farfield():
    cfg = ArrayConfig(n_bs=32)
    d_r = rayleigh_distance(cfg)
    angle = 0.37
    v = farfield_steering(cfg, angle)
    prev = None
    for mult in (10.0, 1e2, 1e3, 1e4):
        u = nearfield_steering(cfg, PolarCoord(angle, mult * d_r))
        phase = np.angle(u * v.conj())
        dev = float(np.max(np.abs(phase - phase.mean())))
        if prev is not None:
            assert dev < prev
        prev = dev
    assert prev < 1e-3


def test_farfield_broadside_all_equal():
    cfg = ArrayConfig(n_bs=16)
    v = farfield_steering(cfg, 0.0)
    assert np.allclose(v, 0.25 + 0j, rtol=0, atol=1e-15)


def test_farfield_linear_phase():
    cfg = ArrayConfig(n_bs=16)
    angle = -0.8
    v = farfield_steering(cfg, angle)
    steps = np.angle(v[1:] * v[:-1].conj())
    expected = 2 * np.pi * cfg.spacing * np.sin(angle) / cfg.wavelength
    expected = np.angle(np.exp(1j * expected))  # wrap to principal branch
    assert np.allclose(steps, expected, rtol=0, atol=1e-12)


def test_farfield_inner_product_dirichlet_oracle():
    cfg = ArrayConfig(n_bs=16)
    rng = np.random.default_rng(4)
    for _ in range(50):
        a1, a2 = rng.uniform(-np.pi / 2, np.pi / 2, size=2)
        got = abs(farfield_steering(cfg, a1).conj() @ farfield_steering(cfg, a2))
        # direct summation over element phases
        g = cfg.spacing * cfg.offsets()
        w = 2 * np.pi * g * (np.sin(a2) - np.sin(a1)) / cfg.wavelength
        want = abs(np.sum(np.exp(1j * w))) / cfg.n_bs
        assert abs(got - want) < 1e-12


def test_rayleigh_distance_values():
    assert rayleigh_distance(ArrayConfig(n_bs=64)) == 2048.0
    assert rayleigh_distance(ArrayConfig(n_bs=2)) == 2.0
    assert rayleigh_distance(ArrayConfig(n_bs=32)) * 4 == rayleigh_distance(ArrayConfig(n_bs=64))
