"""Tests for the constant-modulus MM beamformer design."""

import numpy as np
import pytest

import nfbf.mm
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
    _dense_form,
    _design,
    _imperfect_mu,
    _perfect_mu,
    _UpdateProduct,
    _top_gram_eigenvalue,
    aobf_imperfect_csi,
    aobf_perfect_csi,
)
from oracles import imperfect_objective, mm_update_imperfect, mm_update_perfect, slnr_objective


def _random_channels(rng, n, k):
    return [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(k)]


def _random_cm(rng, n):
    """Random constant-modulus vector with entries of modulus 1/sqrt(n)."""
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)) / np.sqrt(n)


def _perfect_g(h_all, k, omega):
    """Independent reconstruction of the perfect-CSI update matrix."""
    n = h_all[0].shape[0]
    g = np.outer(h_all[k], h_all[k].conj()).astype(complex)
    others = [h for i, h in enumerate(h_all) if i != k]
    for h in others:
        g -= omega * np.outer(h, h.conj())
    mu = sum(float(np.linalg.norm(h) ** 2) for h in others)
    return g + omega * mu * np.eye(n)


def test_mm_config_validation():
    MMConfig(epsilon=np.inf)  # "run exactly one update" sentinel is allowed
    with pytest.raises(ValueError):
        MMConfig(omega=-1.0)
    with pytest.raises(ValueError):
        MMConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        MMConfig(t_max=0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="omega"):
            MMConfig(omega=bad)
    for bad in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="epsilon"):
            MMConfig(epsilon=bad)


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
    cfg = MMConfig(omega=50.0)
    for _ in range(10):
        h_all = _random_channels(rng, 8, 3)
        f = _random_cm(rng, 8)
        for k in range(3):
            g = _perfect_g(h_all, k, 50.0)
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
    cfg = MMConfig(omega=10.0)
    got = mm_update_perfect(h_all, f, 0, cfg)
    gf = _perfect_g(h_all, 0, 10.0) @ f
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
    g = _perfect_g(h_all, k, omega)
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
    f_plus = mm_update_perfect(h_all, f_t, k, MMConfig(omega=omega))
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
    cfg = MMConfig()
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
        for i in range(3):
            if i != k:
                z_int += sum(np.outer(u, u.conj()) for u in aux[i])
        mu = float(np.linalg.eigvalsh(z_int)[-1])
        g = zk - omega * z_int + omega * mu * np.eye(n)
        want = np.exp(1j * np.angle(g @ f)) / np.sqrt(n)
        got = mm_update_imperfect(aux, f, k, MMConfig(omega=omega))
        assert np.allclose(got, want, rtol=0, atol=1e-13)
    with pytest.raises(ValueError):
        mm_update_imperfect(aux, f, 5, MMConfig())


def test_imperfect_single_user_gain_does_not_drop():
    # K=1: no interference, so the design can only grow the summed aux gain
    cfg = ArrayConfig(n_bs=16)
    cb = build_codebook(cfg, n_dis=20)
    idx = CodewordIndex(p=5, q=3)
    f, rep = aobf_imperfect_csi(cb, [idx], 2, 2, MMConfig())
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
    mm = MMConfig(epsilon=np.inf)
    f1, rep1 = aobf_imperfect_csi(cb, indices, 2, 2, mm)
    # one-update run reproduces a manual step from the codeword initialization
    aux = approximate_channel_matrices(
        cb, [auxiliary_points(cb, i, 2, 2) for i in indices]
    )
    for k, word in enumerate(cb.codewords_at(indices)):
        want = mm_update_imperfect(aux, word, k, mm)
        assert np.array_equal(f1.matrix[:, k], want)
    # a full run descends and stays constant-modulus
    f2, rep2 = aobf_imperfect_csi(cb, indices, 2, 2, MMConfig())
    f2.validate(atol=1e-9)
    for trace in rep2.objective_trace:
        scale = np.maximum(1.0, np.abs(trace[:-1]))
        assert np.all(np.diff(trace) <= 1e-9 * scale)


def test_imperfect_design_deterministic():
    cfg = ArrayConfig(n_bs=16)
    cb = build_codebook(cfg, n_dis=20)
    indices = [CodewordIndex(4, 2), CodewordIndex(12, 5), CodewordIndex(9, 1)]
    mm = MMConfig()
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
    f, _ = aobf_perfect_csi(sc)
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
                 list(cb.codewords_at(indices)))
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
    # two users on one codeword: each design nulls the shared support and the
    # objective falls toward 0; the trace, read off the low-rank part of the
    # product, subtracts no omega * mu and stays within a few ulps of it
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
    # the engine never forms an update matrix; an independent loop on the
    # dense _perfect_g over the reported iteration count lands on the same
    # columns to rounding
    for seed in range(3):
        sc = random_scenario(ArrayConfig(n_bs=16), 3, 2, seed=seed)
        f, rep = aobf_perfect_csi(sc)
        h_all = list(sc.channel_matrix().T)
        for k in range(3):
            g = _perfect_g(h_all, k, 1000.0)
            col = np.exp(1j * np.angle(h_all[k])) / 4.0
            for _ in range(rep.iterations_used[k]):
                col = np.exp(1j * np.angle(g @ col)) / 4.0
            assert np.allclose(f.matrix[:, k], col, rtol=0, atol=1e-12)


# The dense per-user engine the batched kernel replaced, kept as its oracle:
# user k's N x N update matrix G = U_k^T U_k^* - omega (Z_k - mu I) and its own
# loop of projected matvecs, with mu taken from the N x N interference matrix.
def _dense_power(u):
    return float(np.sum(np.abs(u) ** 2))


_DENSE_MU = {
    "perfect": lambda others, z_int: sum(_dense_power(u) for u in others),
    "imperfect": lambda others, z_int: float(np.linalg.eigvalsh(z_int)[-1]),
}


def _dense_update_matrix(stacks, k, omega, mu_rule):
    g = stacks[k].T @ stacks[k].conj()
    others = [u for i, u in enumerate(stacks) if i != k]
    if not others:
        return g, 0.0
    n = g.shape[0]
    z_int = np.zeros((n, n), dtype=complex)
    for u in others:
        z_int += u.T @ u.conj()
    mu = mu_rule(others, z_int)
    return g - omega * z_int + omega * mu * np.eye(n), mu


def _dense_project(gf, f):
    out = np.exp(1j * np.angle(gf)) / np.sqrt(f.shape[0])
    zero = gf == 0
    if np.any(zero):
        out[zero] = f[zero]
    return out


def _dense_run_mm(g_mat, f0, cfg, offset):
    f = f0
    gf = g_mat @ f
    trace = [offset * np.vdot(f, f).real - np.vdot(f, gf).real]
    converged = False
    t = 0
    for t in range(1, cfg.t_max + 1):
        f_new = _dense_project(gf, f)
        diff = float(np.sum(np.abs(f_new - f) ** 2))
        f = f_new
        gf = g_mat @ f
        trace.append(offset * np.vdot(f, f).real - np.vdot(f, gf).real)
        if diff <= cfg.epsilon:
            converged = True
            break
    return f, t, np.array(trace), converged


def _dense_design(stacks, starts, cfg, regime):
    """Per user: (column, iterations, trace, converged) from the dense engine."""
    out = []
    for k, f0 in enumerate(starts):
        g, mu = _dense_update_matrix(stacks, k, cfg.omega, _DENSE_MU[regime])
        out.append(_dense_run_mm(g, f0, cfg, cfg.omega * mu))
    return out


def _regime_runs(n, seeds, rs_values, mm):
    """Per run: (regime, one batched design of every seed, and per seed its
    dense oracle and support stacks, objective)."""
    cfg = ArrayConfig(n_bs=n)
    scs = [random_scenario(cfg, 4, 3, seed=seed) for seed in seeds]
    channels = [list(sc.channel_matrix().T) for sc in scs]
    dense = [_dense_design([h[None, :] for h in hs],
                           [np.exp(1j * np.angle(h)) / np.sqrt(n) for h in hs], mm, "perfect")
             for hs in channels]
    runs = [("perfect", aobf_perfect_csi(scs, mm), dense, channels, slnr_objective)]
    if rs_values:
        cb = build_codebook(cfg, n_dis=40)
        indices = [[beam_sweep(cb, u.vector) for u in sc.users] for sc in scs]
    for rs in rs_values:
        aux = [approximate_channel_matrices(cb, [auxiliary_points(cb, i, rs, rs) for i in idx])
               for idx in indices]
        dense = [_dense_design(a, list(cb.codewords_at(idx)), mm, "imperfect")
                 for a, idx in zip(aux, indices)]
        runs.append(("imperfect", aobf_imperfect_csi(cb, indices, rs, rs, mm), dense, aux,
                     imperfect_objective))
    return runs


def test_batched_kernel_matches_the_dense_engine():
    # seeds 0-2 as one batch; per seed, the same flags and iteration counts as
    # the dense engine in both regimes, and final objectives, each evaluated at
    # the returned column, within 1e-9 relative
    mm = MMConfig()
    for regime, (f, rep), dense, supports, objective in _regime_runs(64, range(3), (1, 4, 6), mm):
        for seed, (oracle, support) in enumerate(zip(dense, supports)):
            cols = slice(4 * seed, 4 * seed + 4)
            assert rep.converged[cols] == [d[3] for d in oracle], (seed, regime)
            assert rep.iterations_used[cols] == [d[1] for d in oracle], (seed, regime)
            for k, (col, _, _, _) in enumerate(oracle):
                got = objective(support, f.matrix[:, 4 * seed + k], k, mm.omega)
                want = objective(support, col, k, mm.omega)
                assert got == pytest.approx(want, rel=1e-9, abs=0), (seed, regime, k)


def test_converged_columns_leave_the_batch():
    # perfect CSI at N = 64, seed 0: the users converge at different
    # iterations; each column's count, trace length and value are those of its
    # own dense run, and a converged column is masked, its value fixed, while
    # the others iterate
    mm = MMConfig()
    [(_, (f, rep), [dense], _, _)] = _regime_runs(64, [0], (), mm)
    assert len(set(rep.iterations_used)) == 4
    assert max(rep.iterations_used) < mm.t_max
    for k, (col, used, trace, _) in enumerate(dense):
        assert rep.iterations_used[k] == used
        assert len(rep.objective_trace[k]) == len(trace) == used + 1
        assert np.allclose(f.matrix[:, k], col, rtol=0, atol=1e-12)
    sc = random_scenario(ArrayConfig(n_bs=64), 4, 3, seed=0)
    first = int(np.argmin(rep.iterations_used))
    f_cut, rep_cut = aobf_perfect_csi(sc, MMConfig(t_max=rep.iterations_used[first]))
    assert rep_cut.converged[first]
    assert np.array_equal(f_cut.matrix[:, first], f.matrix[:, first])
    assert np.array_equal(rep_cut.objective_trace[first], rep.objective_trace[first])


def _assert_trial_equals_alone(f, rep, t, alone):
    """Trial t of a batched design is bit-equal to the (f, rep) of its design alone."""
    f1, rep1 = alone
    k = f1.matrix.shape[1]
    cols = slice(k * t, k * t + k)
    assert np.array_equal(f.matrix[:, cols], f1.matrix), t
    assert rep.iterations_used[cols] == rep1.iterations_used, t
    assert rep.converged[cols] == rep1.converged, t
    assert len(rep.objective_trace[cols]) == k
    for got, want in zip(rep.objective_trace[cols], rep1.objective_trace):
        assert np.array_equal(got, want), t


def test_each_trial_of_a_batch_equals_its_design_alone():
    # five trials designed as one batch, in both regimes and at R = S = 1, 4,
    # 6: each trial's columns, counts, flags and traces are bit-equal to that
    # trial designed alone
    mm = MMConfig()
    cfg = ArrayConfig(n_bs=64)
    cb = build_codebook(cfg, n_dis=40)
    scs = [random_scenario(cfg, 4, 3, seed=seed) for seed in range(5)]
    indices = [[beam_sweep(cb, u.vector) for u in sc.users] for sc in scs]
    runs = [(aobf_perfect_csi(scs, mm), [aobf_perfect_csi(sc, mm) for sc in scs])]
    for rs in (1, 4, 6):
        runs.append((aobf_imperfect_csi(cb, indices, rs, rs, mm),
                     [aobf_imperfect_csi(cb, idx, rs, rs, mm) for idx in indices]))
    for (f, rep), alone in runs:
        assert f.matrix.shape == (64, 20)
        assert len(rep.iterations_used) == len(rep.converged) == 20
        for t, one in enumerate(alone):
            _assert_trial_equals_alone(f, rep, t, one)


def test_a_converged_trial_leaves_the_batch(monkeypatch):
    # perfect CSI at N = 64, seeds 0 and 1: seed 0's columns have all
    # converged after a iterations, seed 1's after b > a; iterations 1..a
    # project both trials, a+1..b seed 1's alone, and each trial equals its
    # design alone
    cfg = ArrayConfig(n_bs=64)
    scs = [random_scenario(cfg, 4, 3, seed=seed) for seed in (0, 1)]
    alone = [aobf_perfect_csi(sc) for sc in scs]
    a, b = (max(rep.iterations_used) for _, rep in alone)
    assert a < b < MMConfig().t_max
    sizes = []
    project = nfbf.mm._project
    monkeypatch.setattr(nfbf.mm, "_project", lambda gf, f: sizes.append(len(f)) or project(gf, f))
    f, rep = aobf_perfect_csi(scs)
    assert sizes == [2] * a + [1] * (b - a)
    for t, one in enumerate(alone):
        _assert_trial_equals_alone(f, rep, t, one)


def test_zero_update_entry_retains_previous_value_inside_a_batch():
    # omega = 0, so G f = h (h^H f): trial 0's first user has h = 0 at entry 1,
    # which keeps its starting value; trial 1 has no zero entry, and neither
    # trial's columns depend on the other's
    rng = np.random.default_rng(10)
    h_zero = np.array([1.0, 0.0, 1.0j])
    h = [[h_zero, rng.standard_normal(3) + 1j * rng.standard_normal(3)],
         [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2)]]
    rows = np.array(h)[:, :, None, :]
    starts = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (2, 3, 2))) / np.sqrt(3.0)
    mm = MMConfig(omega=0.0)
    f, rep = _design(rows, starts, mm, _perfect_mu)
    assert f.matrix[1, 0] == starts[0, 1, 0]
    assert abs(f.matrix[1, 0]) == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)
    assert np.all(f.matrix[[0, 2], 0] != starts[0, [0, 2], 0])
    assert all(rep.converged)
    for t in range(2):
        _assert_trial_equals_alone(f, rep, t, _design(rows[t:t + 1], starts[t:t + 1], mm,
                                                      _perfect_mu))


@pytest.mark.parametrize("rs, gram_size", [(2, 12), (6, 64)])
def test_spectral_mu_from_the_smaller_gram(rs, gram_size, monkeypatch):
    # (K-1) R S = 12 < N = 64 decomposes the 12 x 12 Gram V^* V^T; 108 > 64
    # decomposes Z_k itself; both give the top eigenvalue of the N x N Z_k
    cfg = ArrayConfig(n_bs=64)
    cb = build_codebook(cfg, n_dis=40)
    sc = random_scenario(cfg, 4, 3, seed=1)
    indices = [beam_sweep(cb, u.vector) for u in sc.users]
    aux = approximate_channel_matrices(cb, [auxiliary_points(cb, i, rs, rs) for i in indices])
    eigvalsh = np.linalg.eigvalsh
    for k in range(4):
        others = [u for i, u in enumerate(aux) if i != k]
        z_int = sum(u.T @ u.conj() for u in others)
        sizes = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: sizes.append(a.shape) or eigvalsh(a))
        got = _top_gram_eigenvalue(np.concatenate(others))
        monkeypatch.undo()
        assert sizes == [(gram_size, gram_size)]
        assert got == pytest.approx(float(eigvalsh(z_int)[-1]), rel=1e-12, abs=0)


def _random_rows(seed, t, k, rs, n):
    """(t, k, rs, n) random rows of norm about 1."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((t, k, rs, n)) + 1j * rng.standard_normal((t, k, rs, n))) / np.sqrt(2 * n)


@pytest.mark.parametrize("n, k, rs, dense", [
    (64, 4, 16, True), (64, 4, 36, True), (64, 4, 1, False), (128, 4, 16, False),
    (256, 4, 16, False),
])
def test_product_form_follows_the_flop_rule(n, k, rs, dense):
    # dense N x N matrices wherever N <= K R S, the low-rank product elsewhere,
    # whatever the trial count
    assert _dense_form(n, k, rs) is dense
    for t in (1, 3):
        product = _UpdateProduct(_random_rows(0, t, k, rs, n), 1000.0, _imperfect_mu)
        assert (product.dense is not None) is dense
        if dense:
            assert product.dense.shape == (t, k, n, n)
            assert not hasattr(product, "stack") and not hasattr(product, "rows_conj")


def test_perfect_csi_takes_the_low_rank_form(monkeypatch):
    # one row per user and K < N: no N x N matrix is formed
    forms = []
    dense_form = nfbf.mm._dense_form

    def spy(*shape):
        forms.append((shape, dense_form(*shape)))
        return forms[-1][1]

    monkeypatch.setattr(nfbf.mm, "_dense_form", spy)
    scs = [random_scenario(ArrayConfig(n_bs=64), 4, 3, seed=seed) for seed in range(2)]
    aobf_perfect_csi(scs, MMConfig(t_max=3))
    assert forms == [((64, 4, 1), False)]


@pytest.mark.parametrize("k, rs", [(4, 16), (4, 36), (4, 1)])
def test_both_product_forms_agree(k, rs, monkeypatch):
    # the same batch through each form: (low, gf) within 1e-12 of the larger entry
    rows = _random_rows(1, 3, k, rs, 64)
    rng = np.random.default_rng(2)
    f = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (3, 64, k))) / 8.0
    mu_rule = _imperfect_mu
    chosen = _UpdateProduct(rows, 1000.0, mu_rule)
    dense_form = nfbf.mm._dense_form
    monkeypatch.setattr(nfbf.mm, "_dense_form", lambda *shape: not dense_form(*shape))
    other = _UpdateProduct(rows, 1000.0, mu_rule)
    assert (chosen.dense is None) != (other.dense is None)
    for got, want in zip(chosen(f), other(f)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_a_dense_form_batch_drops_converged_trials(monkeypatch):
    # N = 16, K = 3, R = S = 4 takes the dense form; a large epsilon makes the
    # four trials converge at different iterations, each leaves the batch
    # through keep(), and each trial stays bit-equal to its design alone
    cfg = ArrayConfig(n_bs=16)
    cb = build_codebook(cfg, n_dis=40)
    scs = [random_scenario(cfg, 3, 2, seed=seed) for seed in range(4)]
    indices = [[beam_sweep(cb, u.vector) for u in sc.users] for sc in scs]
    mm = MMConfig(epsilon=1e-4)
    alone = [aobf_imperfect_csi(cb, idx, 4, 4, mm) for idx in indices]
    ends = [max(rep.iterations_used) for _, rep in alone]
    assert len(set(ends)) == 4 and max(ends) < mm.t_max
    left = []
    keep = nfbf.mm._UpdateProduct.keep

    def spy(self, trials):
        keep(self, trials)
        left.append(len(self.dense))

    monkeypatch.setattr(nfbf.mm._UpdateProduct, "keep", spy)
    f, rep = aobf_imperfect_csi(cb, indices, 4, 4, mm)
    assert left == [sum(end > e for end in ends) for e in sorted(ends)[:-1]]
    for t, one in enumerate(alone):
        _assert_trial_equals_alone(f, rep, t, one)
