"""Tests for the constant-modulus MM beamformer design."""

import numpy as np
import pytest

from nfbf.channel import PathComponent, Scenario, make_user_channel, random_scenario
from nfbf.codebook import (
    CodewordIndex,
    approximate_channel_matrices,
    auxiliary_points,
    beam_sweep,
    build_codebook,
)
from nfbf.geometry import ArrayConfig, PolarCoord
from nfbf.metrics import ANALOG_ONLY
from nfbf.mm import (
    MMConfig,
    aobf_imperfect_csi,
    aobf_perfect_csi,
    imperfect_objective,
    mm_update_imperfect,
    mm_update_perfect,
    slnr_objective,
)


def _random_channels(rng, n, k):
    return [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(k)]


def _random_cm(rng, n):
    """Random constant-modulus vector with entries of modulus 1/sqrt(n)."""
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)) / np.sqrt(n)


def _perfect_g(h_all, k, omega, mode):
    """Independent reconstruction of the perfect-CSI update matrix."""
    n = h_all[0].shape[0]
    g = np.outer(h_all[k], h_all[k].conj()).astype(complex)
    others = [h for i, h in enumerate(h_all) if i != k]
    norms2 = [float(np.linalg.norm(h) ** 2) for h in others]
    for h in others:
        g -= omega * np.outer(h, h.conj())
    if mode == "spectral":
        mu = sum(norms2)
    else:
        mu = max(norms2) * len(others)
    return g + omega * mu * np.eye(n)


def test_mm_config_validation():
    MMConfig(epsilon=np.inf)  # "run exactly one update" sentinel is allowed
    with pytest.raises(ValueError):
        MMConfig(omega=-1.0)
    with pytest.raises(ValueError):
        MMConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        MMConfig(t_max=0)
    with pytest.raises(ValueError):
        MMConfig(mu_mode="bogus")
    with pytest.raises(ValueError):
        MMConfig(mu_mode=None)
    assert MMConfig().mu_mode == "spectral"


def test_slnr_objective_brute_force():
    rng = np.random.default_rng(0)
    h_all = _random_channels(rng, 8, 4)
    f = _random_cm(rng, 8)
    for k in range(4):
        want = -abs(np.vdot(h_all[k], f)) ** 2
        for i in range(4):
            if i != k:
                want += 7.5 * abs(np.vdot(h_all[i], f)) ** 2
        assert slnr_objective(h_all, f, k, 7.5) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        slnr_objective(h_all, f, 4, 7.5)
    with pytest.raises(ValueError):
        slnr_objective(h_all, f, -1, 7.5)


def test_update_matches_reconstructed_projection():
    rng = np.random.default_rng(1)
    for mode in ("spectral", "paper-exact"):
        cfg = MMConfig(omega=50.0, mu_mode=mode)
        for _ in range(10):
            h_all = _random_channels(rng, 8, 3)
            f = _random_cm(rng, 8)
            for k in range(3):
                g = _perfect_g(h_all, k, 50.0, mode)
                want = np.exp(1j * np.angle(g @ f)) / np.sqrt(8.0)
                got = mm_update_perfect(h_all, f, k, cfg)
                assert np.allclose(got, want, rtol=0, atol=1e-13)
                assert np.allclose(np.abs(got), 1.0 / np.sqrt(8.0), rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        mm_update_perfect(h_all, f, 3, MMConfig())


def test_update_is_separable_phase_maximizer():
    # the surrogate minimizer maximizes Re(f^H G f~) entrywise; a 720-point
    # phase grid per entry must not beat the closed form
    rng = np.random.default_rng(2)
    h_all = _random_channels(rng, 3, 2)
    f = _random_cm(rng, 3)
    cfg = MMConfig(omega=10.0, mu_mode="spectral")
    got = mm_update_perfect(h_all, f, 0, cfg)
    gf = _perfect_g(h_all, 0, 10.0, "spectral") @ f
    grid = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False))
    for n in range(3):
        best = np.max(np.real(np.conj(grid / np.sqrt(3.0)) * gf[n]))
        closed = float(np.real(np.conj(got[n]) * gf[n]))
        assert closed >= best - 1e-12


def test_surrogate_dominates_objective():
    # g(f | f~) = mu - 2 Re(f^H G f~) + f~^H G f~ with ||f||^2 = 1 must equal
    # the objective at f~ and upper-bound it everywhere on the modulus sphere
    rng = np.random.default_rng(3)
    omega = 25.0
    h_all = _random_channels(rng, 8, 3)
    k = 1
    g = _perfect_g(h_all, k, omega, "spectral")
    mu = omega * sum(
        float(np.linalg.norm(h) ** 2) for i, h in enumerate(h_all) if i != k
    )
    f_t = _random_cm(rng, 8)

    def surrogate(f):
        return float(
            mu - 2.0 * np.real(f.conj() @ g @ f_t) + np.real(f_t.conj() @ g @ f_t)
        )

    obj_t = slnr_objective(h_all, f_t, k, omega)
    assert surrogate(f_t) == pytest.approx(obj_t, rel=1e-9)
    f_plus = mm_update_perfect(h_all, f_t, k, MMConfig(omega=omega, mu_mode="spectral"))
    for _ in range(200):
        f = _random_cm(rng, 8)
        assert surrogate(f) >= slnr_objective(h_all, f, k, omega) - 1e-9
        # and the closed-form update is the surrogate minimizer
        assert surrogate(f_plus) <= surrogate(f) + 1e-9


def test_zero_omega_aligns_with_target():
    rng = np.random.default_rng(4)
    h_all = _random_channels(rng, 16, 3)
    f = _random_cm(rng, 16)
    got = mm_update_perfect(h_all, f, 2, MMConfig(omega=0.0))
    # one step lands on the matched phase profile: |h^H f| = ||h||_1 / sqrt(N)
    want = float(np.sum(np.abs(h_all[2])) / np.sqrt(16.0))
    assert abs(np.vdot(h_all[2], got)) == pytest.approx(want, rel=1e-12)


def test_zero_update_entry_retains_previous_value():
    h = np.array([1.0, 0.0, 1.0j], dtype=complex)
    f0 = np.array([1.0, np.exp(0.7j), 1.0j]) / np.sqrt(3.0)
    got = mm_update_perfect([h], f0, 0, MMConfig())
    assert got[1] == f0[1]
    assert got[0] == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)
    assert got[2] == pytest.approx(1.0j / np.sqrt(3.0), rel=1e-12)


def _manual_scenario(cfg, gain_loc_pairs):
    users = [
        make_user_channel(cfg, [PathComponent(g, loc)]) for g, loc in gain_loc_pairs
    ]
    return Scenario(users=users, array=cfg, seed=None)


def test_single_user_conjugate_phase_is_fixed_point():
    cfg = ArrayConfig(n_bs=16)
    sc = _manual_scenario(cfg, [(1.0 + 0.5j, PolarCoord(0.2, 30.0))])
    f, rep = aobf_perfect_csi(sc)
    h = sc.users[0].vector
    want = np.exp(1j * np.angle(h)) / 4.0
    assert np.allclose(f.matrix[:, 0], want, rtol=0, atol=1e-13)
    assert rep.iterations_used == [1]
    assert rep.converged == [True]
    # beamforming gain of the matched phase profile is the global optimum
    assert abs(np.vdot(h, f.matrix[:, 0])) == pytest.approx(
        np.sum(np.abs(h)) / 4.0, rel=1e-12
    )


def test_epsilon_inf_runs_exactly_one_update():
    sc = random_scenario(ArrayConfig(n_bs=16), 3, 2, seed=5)
    cfg = MMConfig(epsilon=np.inf)
    f, rep = aobf_perfect_csi(sc, cfg)
    assert rep.iterations_used == [1, 1, 1]
    assert all(rep.converged)
    hh = sc.channel_matrix()
    h_list = [hh[:, i] for i in range(3)]
    for k in range(3):
        f0 = np.exp(1j * np.angle(hh[:, k])) / 4.0
        want = mm_update_perfect(h_list, f0, k, cfg)
        assert np.array_equal(f.matrix[:, k], want)
        assert len(rep.objective_trace[k]) == 2


def test_perfect_design_descends_and_reports_consistently():
    cfg = MMConfig(mu_mode="spectral")
    for seed in range(30):
        sc = random_scenario(ArrayConfig(n_bs=16), 3, 2, seed=seed)
        f, rep = aobf_perfect_csi(sc, cfg)
        f.validate(atol=1e-9)
        for trace, conv, used in zip(
            rep.objective_trace, rep.converged, rep.iterations_used
        ):
            scale = np.maximum(1.0, np.abs(trace[:-1]))
            assert np.all(np.diff(trace) <= 1e-9 * scale)
            assert len(trace) == used + 1
            # the flag is false exactly when the iteration budget ran out
            assert conv == (used < cfg.t_max) or used == cfg.t_max


def test_perfect_design_deterministic():
    sc = random_scenario(ArrayConfig(n_bs=32), 4, 3, seed=6)
    f1, r1 = aobf_perfect_csi(sc)
    f2, r2 = aobf_perfect_csi(sc)
    assert np.array_equal(f1.matrix, f2.matrix)
    assert r1.iterations_used == r2.iterations_used
    assert f1.kind == ANALOG_ONLY


def test_global_phase_equivariance():
    cfg = ArrayConfig(n_bs=16)
    pairs = [
        (0.8 - 0.3j, PolarCoord(-0.5, 20.0)),
        (1.1 + 0.2j, PolarCoord(0.4, 60.0)),
    ]
    sc = _manual_scenario(cfg, pairs)
    rot = np.exp(1.3j)
    pairs_rot = [(rot * pairs[0][0], pairs[0][1]), pairs[1]]
    sc_rot = _manual_scenario(cfg, pairs_rot)
    f, rep = aobf_perfect_csi(sc)
    f_rot, rep_rot = aobf_perfect_csi(sc_rot)
    # rotating h_0 rotates column 0 by the same phase and changes nothing else
    assert np.allclose(f_rot.matrix[:, 0], rot * f.matrix[:, 0], rtol=0, atol=1e-12)
    assert np.allclose(f_rot.matrix[:, 1], f.matrix[:, 1], rtol=0, atol=1e-12)
    assert np.allclose(rep_rot.objective_trace[0], rep.objective_trace[0], rtol=1e-10)


def test_imperfect_objective_brute_force():
    rng = np.random.default_rng(7)
    aux = [
        rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        for _ in range(3)
    ]
    f = _random_cm(rng, 8)
    for k in range(3):
        want = 0.0
        for i in range(3):
            tot = sum(abs(np.vdot(aux[i][m], f)) ** 2 for m in range(4))
            want += -tot if i == k else 12.0 * tot
        assert imperfect_objective(aux, f, k, 12.0) == pytest.approx(want, rel=1e-12)


def test_imperfect_update_matches_reconstruction():
    rng = np.random.default_rng(8)
    n = 8
    aux = [
        rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
        for _ in range(3)
    ]
    f = _random_cm(rng, n)
    omega = 40.0
    for k in range(3):
        zk = sum(np.outer(u, u.conj()) for u in aux[k])
        z_int = np.zeros((n, n), dtype=complex)
        count = 0
        for i in range(3):
            if i != k:
                z_int += sum(np.outer(u, u.conj()) for u in aux[i])
                count += aux[i].shape[0]
        for mode, mu in (
            ("spectral", float(np.linalg.eigvalsh(z_int)[-1])),
            ("paper-exact", count / n),
        ):
            g = zk - omega * z_int + omega * mu * np.eye(n)
            want = np.exp(1j * np.angle(g @ f)) / np.sqrt(n)
            got = mm_update_imperfect(aux, f, k, MMConfig(omega=omega, mu_mode=mode))
            assert np.allclose(got, want, rtol=0, atol=1e-13)
    with pytest.raises(ValueError):
        mm_update_imperfect(aux, f, 5, MMConfig())


def test_imperfect_single_user_gain_does_not_drop():
    # K=1: no interference, so the design can only grow the summed aux gain
    cfg = ArrayConfig(n_bs=16)
    cb = build_codebook(cfg, n_dis=20)
    idx = CodewordIndex(p=5, q=3)
    f, rep = aobf_imperfect_csi(cb, [idx], 2, 2, MMConfig(mu_mode="spectral"))
    trace = rep.objective_trace[0]
    assert trace[-1] <= trace[0] + 1e-9
    assert len(rep.iterations_used) == 1


def test_imperfect_design_starts_at_codeword_and_descends():
    cfg = ArrayConfig(n_bs=16)
    cb = build_codebook(cfg, n_dis=20)
    rng = np.random.default_rng(9)
    indices = []
    for _ in range(3):
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        indices.append(beam_sweep(cb, h))
    mm = MMConfig(mu_mode="spectral", epsilon=np.inf)
    f1, rep1 = aobf_imperfect_csi(cb, indices, 2, 2, mm)
    # one-update run reproduces a manual step from the codeword initialization
    aux = approximate_channel_matrices(
        cb, [auxiliary_points(cb, i, 2, 2) for i in indices]
    )
    for k, idx in enumerate(indices):
        want = mm_update_imperfect(aux, cb.codeword(idx), k, mm)
        assert np.array_equal(f1.matrix[:, k], want)
    # full spectral run descends and stays constant-modulus
    f2, rep2 = aobf_imperfect_csi(cb, indices, 2, 2, MMConfig(mu_mode="spectral"))
    f2.validate(atol=1e-9)
    for trace in rep2.objective_trace:
        scale = np.maximum(1.0, np.abs(trace[:-1]))
        assert np.all(np.diff(trace) <= 1e-9 * scale)


def test_imperfect_default_mode_is_spectral():
    cfg = ArrayConfig(n_bs=8)
    cb = build_codebook(cfg, n_dis=10)
    indices = [CodewordIndex(2, 3), CodewordIndex(6, 1)]
    small = MMConfig(t_max=5, epsilon=1e-30)
    f_default, _ = aobf_imperfect_csi(cb, indices, 2, 2, small)
    explicit = MMConfig(t_max=5, epsilon=1e-30, mu_mode="spectral")
    f_explicit, _ = aobf_imperfect_csi(cb, indices, 2, 2, explicit)
    assert np.array_equal(f_default.matrix, f_explicit.matrix)
    paper = MMConfig(t_max=5, epsilon=1e-30, mu_mode="paper-exact")
    f_paper, _ = aobf_imperfect_csi(cb, indices, 2, 2, paper)
    assert not np.array_equal(f_default.matrix, f_paper.matrix)


def test_imperfect_design_deterministic():
    cfg = ArrayConfig(n_bs=16)
    cb = build_codebook(cfg, n_dis=20)
    indices = [CodewordIndex(4, 2), CodewordIndex(12, 5), CodewordIndex(9, 1)]
    mm = MMConfig(mu_mode="spectral")
    f1, r1 = aobf_imperfect_csi(cb, indices, 2, 3, mm)
    f2, r2 = aobf_imperfect_csi(cb, indices, 2, 3, mm)
    assert np.array_equal(f1.matrix, f2.matrix)
    assert r1.iterations_used == r2.iterations_used


def test_interference_nulling_beats_matched_filter_in_slnr():
    # two users close in angle: the MM design trades a little beam gain for a
    # large leakage reduction relative to the conjugate-phase initialization
    cfg = ArrayConfig(n_bs=64)
    sc = _manual_scenario(
        cfg,
        [
            (1.0, PolarCoord(0.10, 40.0)),
            (1.0, PolarCoord(0.16, 55.0)),
        ],
    )
    hh = sc.channel_matrix()
    h_list = [hh[:, i] for i in range(2)]
    f, _ = aobf_perfect_csi(sc, MMConfig(mu_mode="spectral"))
    for k in range(2):
        f0 = np.exp(1j * np.angle(hh[:, k])) / 8.0
        assert slnr_objective(h_list, f.matrix[:, k], k, 1000.0) <= slnr_objective(
            h_list, f0, k, 1000.0
        )
        leak = sum(
            abs(np.vdot(hh[:, i], f.matrix[:, k])) ** 2 for i in range(2) if i != k
        )
        leak0 = sum(abs(np.vdot(hh[:, i], f0)) ** 2 for i in range(2) if i != k)
        assert leak < 0.05 * leak0


def _swept_designs(seed, mm):
    """Both regimes on one random scenario, with their objective oracles' inputs."""
    cfg = ArrayConfig(n_bs=16)
    cb = build_codebook(cfg, n_dis=40)
    sc = random_scenario(cfg, 3, 2, seed=seed)
    hh = sc.channel_matrix()
    indices = [beam_sweep(cb, u.vector) for u in sc.users]
    aux = approximate_channel_matrices(cb, [auxiliary_points(cb, i, 2, 2) for i in indices])
    perfect = (aobf_perfect_csi(sc, mm), list(hh.T), slnr_objective,
               [np.exp(1j * np.angle(h)) / 4.0 for h in hh.T])
    imperfect = (aobf_imperfect_csi(cb, indices, 2, 2, mm), aux, imperfect_objective,
                 [cb.codeword(i) for i in indices])
    return perfect, imperfect


def test_trace_endpoints_match_objective_oracles():
    # the loop reads its trace off G f; the first and last values must agree
    # with the objectives evaluated directly at the start and returned columns
    mm = MMConfig(t_max=300)
    for seed in range(4):
        for (f, rep), support, objective, starts in _swept_designs(seed, mm):
            for k, f0 in enumerate(starts):
                trace = rep.objective_trace[k]
                want0 = objective(support, f0, k, mm.omega)
                want1 = objective(support, f.matrix[:, k], k, mm.omega)
                assert trace[0] == pytest.approx(want0, rel=1e-9, abs=0)
                assert trace[-1] == pytest.approx(want1, rel=1e-9, abs=0)


def test_trace_error_is_bounded_by_the_shift_when_the_objective_vanishes():
    # two users on one codeword: each design nulls the shared support, the
    # objective falls toward 0 and the trace keeps only an absolute accuracy
    # of a few ulps of omega * mu (the shift it subtracts from)
    cfg = ArrayConfig(n_bs=16)
    cb = build_codebook(cfg, n_dis=20)
    indices = [CodewordIndex(5, 1), CodewordIndex(5, 1), CodewordIndex(12, 2)]
    mm = MMConfig()
    f, rep = aobf_imperfect_csi(cb, indices, 1, 1, mm)
    aux = approximate_channel_matrices(cb, [auxiliary_points(cb, i, 1, 1) for i in indices])
    for k in range(2):
        z_int = sum(aux[i].T @ aux[i].conj() for i in range(3) if i != k)
        shift = mm.omega * float(np.linalg.eigvalsh(z_int)[-1])
        want = imperfect_objective(aux, f.matrix[:, k], k, mm.omega)
        assert abs(want) < 1e-8 * shift
        assert abs(rep.objective_trace[k][-1] - want) <= 1e-14 * shift


def test_perfect_design_matches_an_independent_loop():
    # the engine's update matrix sums per-user outer products; an independent
    # loop on _perfect_g over the reported iteration count lands on the same
    # columns to rounding
    for seed in range(3):
        sc = random_scenario(ArrayConfig(n_bs=16), 3, 2, seed=seed)
        f, rep = aobf_perfect_csi(sc)
        h_all = list(sc.channel_matrix().T)
        for k in range(3):
            g = _perfect_g(h_all, k, 1000.0, "spectral")
            col = np.exp(1j * np.angle(h_all[k])) / 4.0
            for _ in range(rep.iterations_used[k]):
                col = np.exp(1j * np.angle(g @ col)) / 4.0
            assert np.allclose(f.matrix[:, k], col, rtol=0, atol=1e-12)
