"""Tests for analog steering and the hybrid ZF/WMMSE baselines."""

import numpy as np
import pytest

from nfbf import hbf
from nfbf.channel import PathComponent, Scenario, make_user_channel, random_scenario
from nfbf.codebook import CodewordIndex, beam_sweep, build_codebook
from nfbf.geometry import ArrayConfig, PolarCoord
from nfbf.hbf import (
    _NEWTON_CAP,
    SingularEffectiveChannelError,
    analog_beam_steering,
    effective_channel,
    hbf_wmmse,
    hbf_zf,
)
from nfbf.metrics import (
    ANALOG_ONLY,
    HYBRID_COMPOSITE,
    BeamformerMatrix,
    channel_sum_rates,
    noise_from_snr,
    sum_rate,
)


def test_steering_perfect_is_conjugate_phase():
    sc = random_scenario(ArrayConfig(n_bs=16), 3, 2, seed=0)
    f = analog_beam_steering("perfect", scenario=sc)
    assert f.kind == ANALOG_ONLY
    f.validate(atol=1e-12)
    hh = sc.channel_matrix()
    want = np.exp(1j * np.angle(hh)) / 4.0
    assert np.allclose(f.matrix, want, rtol=0, atol=1e-15)
    # conjugate phase maximizes per-user beam gain over analog columns
    for k in range(3):
        assert abs(np.vdot(hh[:, k], f.matrix[:, k])) == pytest.approx(
            np.sum(np.abs(hh[:, k])) / 4.0, rel=1e-12
        )


def test_steering_imperfect_uses_swept_codewords():
    cfg = ArrayConfig(n_bs=8)
    cb = build_codebook(cfg, n_dis=6)
    indices = [CodewordIndex(3, 2), CodewordIndex(7, 5), CodewordIndex(1, 1)]
    f = analog_beam_steering("imperfect", cb=cb, indices=indices)
    assert f.matrix.shape == (8, 3)
    for k, idx in enumerate(indices):
        assert np.array_equal(f.matrix[:, k], cb.codeword(idx))
    # column order follows the index list
    f2 = analog_beam_steering("imperfect", cb=cb, indices=indices[::-1])
    assert np.array_equal(f2.matrix, f.matrix[:, ::-1])


def test_steering_input_errors():
    with pytest.raises(ValueError):
        analog_beam_steering("perfect")
    with pytest.raises(ValueError):
        analog_beam_steering("imperfect", cb=None, indices=[CodewordIndex(1, 1)])
    with pytest.raises(ValueError):
        analog_beam_steering("imperfect", cb=build_codebook(ArrayConfig(n_bs=4), 2))
    with pytest.raises(ValueError):
        analog_beam_steering("typo")


def test_effective_channel_oracle():
    rng = np.random.default_rng(10)
    sc = random_scenario(ArrayConfig(n_bs=16), 3, 2, seed=1)
    a = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    eff = effective_channel(BeamformerMatrix(a, ANALOG_ONLY), sc)
    hh = sc.channel_matrix()
    assert eff.shape == (3, 3)
    for k in range(3):
        for j in range(3):
            assert eff[j, k] == pytest.approx(
                np.vdot(a[:, j], hh[:, k]), rel=1e-12
            )
    with pytest.raises(ValueError):
        effective_channel(BeamformerMatrix(a[:8, :], ANALOG_ONLY), sc)


def test_effective_channel_estimation_noise():
    sc = random_scenario(ArrayConfig(n_bs=16), 3, 2, seed=2)
    f = analog_beam_steering("perfect", scenario=sc)
    with pytest.raises(ValueError):
        effective_channel(f, sc, sigma_e2=0.1)
    e0 = effective_channel(f, sc)
    e1 = effective_channel(f, sc, sigma_e2=0.1, rng=np.random.default_rng(3))
    e1b = effective_channel(f, sc, sigma_e2=0.1, rng=np.random.default_rng(3))
    assert np.array_equal(e1, e1b)
    assert not np.array_equal(e0, e1)
    # the standard error draw is shared across noise levels for a fixed seed
    e2 = effective_channel(f, sc, sigma_e2=0.4, rng=np.random.default_rng(3))
    assert np.allclose((e2 - e0), 2.0 * (e1 - e0), rtol=1e-12, atol=0)


def test_zf_on_diagonal_effective_channel():
    # orthonormal analog columns and a diagonal effective channel make the
    # digital stage diagonal, so each composite column is the analog column
    a = np.eye(4, dtype=complex)[:, :2]
    hb = hbf_zf(BeamformerMatrix(a, ANALOG_ONLY), np.diag([2.0 + 0.0j, -1.0j]))
    assert np.allclose(np.abs(hb.composite.matrix), np.abs(a), rtol=0, atol=1e-12)
    hb.composite.validate(atol=1e-12)


def test_zf_nulls_cross_user_terms():
    for seed in range(20):
        sc = random_scenario(ArrayConfig(n_bs=32), 4, 3, seed=seed)
        f_ab = analog_beam_steering("perfect", scenario=sc)
        eff = effective_channel(f_ab, sc)
        hb = hbf_zf(f_ab, eff)
        hb.composite.validate(atol=1e-9)
        assert hb.composite.kind == HYBRID_COMPOSITE
        hh = sc.channel_matrix()
        cross = hh.conj().T @ hb.composite.matrix
        diag = np.abs(np.diag(cross))
        off = np.abs(cross - np.diag(np.diag(cross)))
        assert np.max(off) <= 1e-9 * np.max(diag)


def test_zf_scaling_matches_digital_definition():
    sc = random_scenario(ArrayConfig(n_bs=16), 3, 2, seed=30)
    f_ab = analog_beam_steering("perfect", scenario=sc)
    eff = effective_channel(f_ab, sc)
    hb = hbf_zf(f_ab, eff)
    raw = np.linalg.inv(eff.conj().T)
    want = raw / np.linalg.norm(f_ab.matrix @ raw, axis=0)
    assert np.allclose(hb.digital, want, rtol=1e-12, atol=0)
    assert np.allclose(
        hb.composite.matrix, f_ab.matrix @ hb.digital, rtol=0, atol=1e-14
    )


def test_zf_singular_effective_channel_raises():
    cfg = ArrayConfig(n_bs=16)
    loc = PolarCoord(0.3, 50.0)
    users = [
        make_user_channel(cfg, [PathComponent(1.0 + 0.0j, loc)]) for _ in range(2)
    ]
    sc = Scenario(users=users, array=cfg, seed=None)
    f_ab = analog_beam_steering("perfect", scenario=sc)
    eff = effective_channel(f_ab, sc)
    with pytest.raises(SingularEffectiveChannelError):
        hbf_zf(f_ab, eff)
    # the error is also an ordinary ValueError for generic handling
    assert issubclass(SingularEffectiveChannelError, ValueError)


def test_wmmse_single_user_matches_matched_filter_rate():
    sc = random_scenario(ArrayConfig(n_bs=32), 1, 2, seed=7)
    f_ab = analog_beam_steering("perfect", scenario=sc)
    eff = effective_channel(f_ab, sc)
    p, sigma2 = 1.0, 0.05
    [(hb, rep)] = _solve_batch([(sc, f_ab, eff, p, sigma2)])
    hb.composite.validate(atol=1e-9)
    h = sc.users[0].vector
    col = f_ab.matrix[:, 0] / np.linalg.norm(f_ab.matrix[:, 0])
    want = np.log2(1.0 + p * abs(np.vdot(h, col)) ** 2 / sigma2)
    got = sum_rate(sc, hb.composite, p, sigma2)
    assert got == pytest.approx(want, rel=1e-9)
    assert rep.iterations_used >= 1
    assert len(rep.sumrate_trace) == rep.iterations_used + 1


def test_wmmse_not_worse_than_zf_at_low_snr():
    # 100 random drops at SNR = 0 dB; WMMSE must match or beat zero forcing
    p = 1.0
    k = 4
    sigma2 = noise_from_snr(p, k, 0.0)
    drops = []
    for seed in range(100):
        sc = random_scenario(ArrayConfig(n_bs=64), k, 3, seed=seed)
        f_ab = analog_beam_steering("perfect", scenario=sc)
        drops.append((sc, f_ab, effective_channel(f_ab, sc), p, sigma2))
    for (sc, f_ab, eff, _, _), (hb, _) in zip(drops, _solve_batch(drops)):
        rate_zf = sum_rate(sc, hbf_zf(f_ab, eff).composite, p, sigma2)
        assert sum_rate(sc, hb.composite, p, sigma2) >= rate_zf - 1e-9


@pytest.fixture(scope="module")
def cb64():
    return build_codebook(ArrayConfig(n_bs=64))


def _analog_and_eff(sc, cb, sigma2, seed=0):
    """(analog, effective channel) for perfect CSI and for swept codewords
    with a noisy effective-channel estimate of error variance sigma2."""
    f_p = analog_beam_steering("perfect", scenario=sc)
    f_i = analog_beam_steering(
        "imperfect", cb=cb, indices=[beam_sweep(cb, u.vector) for u in sc.users]
    )
    eff_i = effective_channel(f_i, sc, sigma_e2=sigma2, rng=np.random.default_rng(seed))
    return [(f_p, effective_channel(f_p, sc)), (f_i, eff_i)]


def _stopping_rule(trace, tol=1e-6):
    return abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-2]))


def test_wmmse_trace_is_nondecreasing(cb64):
    # converged is the stopping rule read off the last two trace values, in
    # both CSI regimes; the imperfect one sees a noisy effective channel
    p, sigma2 = 1.0, 0.1
    for seed in (0, 1, 2, 3, 4):
        sc = random_scenario(cb64.array, 4, 3, seed=seed)
        for f_ab, eff in _analog_and_eff(sc, cb64, sigma2):
            [(_, rep)] = _solve_batch([(sc, f_ab, eff, p, sigma2)])
            trace = rep.sumrate_trace
            assert len(trace) == rep.iterations_used + 1
            assert np.all(np.diff(trace) >= -1e-9)
            assert rep.converged == _stopping_rule(trace)
            assert rep.converged or rep.iterations_used == 100


def test_wmmse_deterministic():
    sc = random_scenario(ArrayConfig(n_bs=32), 4, 3, seed=11)
    f_ab = analog_beam_steering("perfect", scenario=sc)
    eff = effective_channel(f_ab, sc)
    [(hb1, r1)] = _solve_batch([(sc, f_ab, eff, 1.0, 0.02)])
    [(hb2, r2)] = _solve_batch([(sc, f_ab, eff, 1.0, 0.02)])
    assert np.array_equal(hb1.composite.matrix, hb2.composite.matrix)
    assert r1.iterations_used == r2.iterations_used


def test_hybrid_on_swept_codewords():
    # imperfect-CSI analog stage feeds the same digital machinery
    cfg = ArrayConfig(n_bs=16)
    cb = build_codebook(cfg, n_dis=20)
    sc = random_scenario(cfg, 3, 2, seed=12)
    indices = [beam_sweep(cb, u.vector) for u in sc.users]
    f_ab = analog_beam_steering("imperfect", cb=cb, indices=indices)
    eff = effective_channel(f_ab, sc)
    hb = hbf_zf(f_ab, eff)
    hb.composite.validate(atol=1e-9)
    hh = sc.channel_matrix()
    cross = np.abs(hh.conj().T @ hb.composite.matrix)
    assert np.max(cross - np.diag(np.diag(cross))) <= 1e-9 * np.max(cross)


def _oracle_wmmse(f_ab, eff, p, sigma2, iters=100, tol=1e-6):
    """WMMSE with the power step solved by bisecting mu in lstsq(A + mu B, C).

    Independent reference for hbf_wmmse: every trial multiplier costs one K x K
    least-squares solve. Returns (composite, iterations_used, converged).
    """
    a = f_ab.matrix
    kk = eff.shape[1]
    per_user = p / kk
    g = np.sqrt(per_user) * eff
    b = a.conj().T @ a

    def rate(v):
        pw = per_user * np.abs(eff.conj().T @ v) ** 2
        sig = np.diag(pw)
        return float(np.sum(np.log2(1.0 + sig / (np.sum(pw, axis=1) - sig + sigma2))))

    v = np.linalg.pinv(g.conj().T)
    pw = np.real(np.einsum("ik,ij,jk->k", v.conj(), b, v))
    pw[pw == 0] = 1.0
    v = v / np.sqrt(pw)
    trace = [rate(v)]
    converged = False
    it = 0
    for it in range(1, iters + 1):
        t = g.conj().T @ v
        q = np.sum(np.abs(t) ** 2, axis=1) + sigma2
        tkk = np.diag(t)
        u = tkk.conj() / q
        w = 1.0 / np.maximum(1.0 - np.abs(tkk) ** 2 / q, 1e-12)
        a_mat = (g * (w * np.abs(u) ** 2)) @ g.conj().T
        c = g * (w * u.conj())

        def solve(mu):
            return np.linalg.lstsq(a_mat + mu * b, c, rcond=None)[0]

        def power(vv):
            return float(np.real(np.einsum("ik,ij,jk->", vv.conj(), b, vv)))

        v = solve(0.0)
        if power(v) > kk:
            lo, hi = 0.0, 1.0
            while power(solve(hi)) > kk:
                hi *= 2.0
                if hi > 1e12:
                    break
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if power(solve(mid)) > kk:
                    lo = mid
                else:
                    hi = mid
            v = solve(hi)
        trace.append(rate(v))
        if _stopping_rule(trace, tol):
            converged = True
            break
    return _unit_columns(a, v), it, converged


def _unit_columns(a, v):
    """Composite a @ v with unit columns; a column of v below the normal
    floats, a user WMMSE switched off until it underflowed, takes its analog
    column instead."""
    comp = a @ v
    gone = np.all(np.abs(v) < np.finfo(float).tiny, axis=0)
    comp[:, gone] = a[:, gone]
    comp = comp / np.max(np.abs(comp), axis=0)  # decayed columns clear of underflow
    return comp / np.linalg.norm(comp, axis=0)


def _per_call_wmmse(f_ab, eff, p, sigma2, iters=100, tol=1e-6):
    """The one-problem-per-call WMMSE engine the batched one replaced.

    Each precoder step solves lstsq(A, C) and, over the budget, bisects mu on
    a scalar power function built from one whitening of A + B. Returns
    (composite, iterations_used, converged).
    """
    a = f_ab.matrix
    kk = eff.shape[1]
    per_user = p / kk
    g = np.sqrt(per_user) * eff
    b = a.conj().T @ a

    def power_limited(a_mat, c):
        s, vecs = np.linalg.eigh(a_mat + b)
        keep = s > s[-1] * len(s) * np.finfo(s.dtype).eps
        w = vecs[:, keep] / np.sqrt(s[keep])
        gamma, q = np.linalg.eigh(w.conj().T @ b @ w)
        wq = w @ q
        y = wq.conj().T @ c
        terms = list(zip(gamma.tolist(), (gamma * np.sum(np.abs(y) ** 2, axis=1)).tolist()))

        def power(mu):
            return sum(t / (1.0 + (mu - 1.0) * gg) ** 2 for gg, t in terms)

        lo, hi = 0.0, 1.0
        while power(hi) > kk:
            hi *= 2.0
            if hi > 1e12:
                break
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if power(mid) > kk:
                lo = mid
            else:
                hi = mid
        return wq @ (y / (1.0 + (hi - 1.0) * gamma)[:, None])

    v = np.linalg.pinv(g.conj().T)
    pw = np.real(np.einsum("ik,ij,jk->k", v.conj(), b, v))
    pw[pw == 0] = 1.0
    v = v / np.sqrt(pw)
    trace = [float(channel_sum_rates(eff, v, p, sigma2))]
    converged = False
    it = 0
    for it in range(1, iters + 1):
        t = g.conj().T @ v
        q = np.sum(np.abs(t) ** 2, axis=1) + sigma2
        tkk = np.diag(t)
        u = tkk.conj() / q
        w = 1.0 / np.maximum(1.0 - np.abs(tkk) ** 2 / q, 1e-12)
        a_mat = (g * (w * np.abs(u) ** 2)) @ g.conj().T
        c = g * (w * u.conj())
        v = np.linalg.lstsq(a_mat, c, rcond=None)[0]
        if np.real(np.einsum("ik,ij,jk->", v.conj(), b, v)) > kk:
            v = power_limited(a_mat, c)
        trace.append(float(channel_sum_rates(eff, v, p, sigma2)))
        if _stopping_rule(trace, tol):
            converged = True
            break
    return _unit_columns(a, v), it, converged


def _assert_matches_oracles(sc, f_ab, eff, p, sigma2, hb, rep):
    """hb and rep, one problem's WMMSE solution, against both oracles: the
    lstsq bisection within 1e-8 in composite and rate, the per-call engine
    within 1e-8 in rate; equal counts and flags with both."""
    got = BeamformerMatrix(hb.composite.matrix, HYBRID_COMPOSITE)
    for oracle in (_oracle_wmmse, _per_call_wmmse):
        want, it, converged = oracle(f_ab, eff, p, sigma2)
        if oracle is _oracle_wmmse:
            assert np.max(np.abs(got.matrix - want)) <= 1e-8 * np.max(np.abs(want))
        assert sum_rate(sc, got, p, sigma2) == pytest.approx(
            sum_rate(sc, BeamformerMatrix(want, HYBRID_COMPOSITE), p, sigma2), rel=1e-8, abs=0
        )
        assert (rep.iterations_used, rep.converged) == (it, converged)
    return hb


def _assert_matches_oracle(*drop):
    return _assert_matches_oracles(*drop, *_solve_batch([drop])[0])


def _solve_batch(drops):
    """Every (scenario, analog, effective channel, p, sigma2) drop as one
    hbf_wmmse batch; one (HybridBeamformer, WMMSEReport) per drop."""
    hb, rep = hbf_wmmse([d[1] for d in drops], [d[2] for d in drops],
                        [d[3] for d in drops], [d[4] for d in drops])
    return list(zip(hb.split(), rep.reports))


def _assert_batch_matches_oracles(drops):
    for drop, solved in zip(drops, _solve_batch(drops), strict=True):
        _assert_matches_oracles(*drop, *solved).composite.validate(atol=1e-9)


def _regime_drops(cb, seeds, snrs):
    """(scenario, analog, effective channel, p, sigma2) for both CSI regimes of
    every seed and SNR point; the imperfect regime sees a noisy estimate."""
    p, k = 1.0, 4
    for seed in seeds:
        sc = random_scenario(cb.array, k, 3, seed=seed)
        for snr_db in snrs:
            sigma2 = noise_from_snr(p, k, snr_db)
            for f_ab, eff in _analog_and_eff(sc, cb, sigma2, seed):
                yield sc, f_ab, eff, p, sigma2


@pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0, 20.0, 30.0])
def test_wmmse_matches_lstsq_bisection_oracle(cb64, snr_db):
    # 10 drops x 2 CSI regimes per SNR, one batch each: 100 problems over the
    # five SNR points
    _assert_batch_matches_oracles(list(_regime_drops(cb64, range(10), [snr_db])))


def _duplicate_codeword_drops(cb, sigma_e2, seeds=range(4), snrs=(-10.0, 10.0, 30.0)):
    """Drops whose users 0 and 1 share one swept codeword, so the analog Gram
    B = F_AB^H F_AB is singular; without estimation noise (sigma_e2 = 0) the
    effective channel repeats a row, so A + B is singular as well."""
    p, k = 1.0, 4
    for seed in seeds:
        sc = random_scenario(cb.array, k, 3, seed=seed)
        indices = [beam_sweep(cb, u.vector) for u in sc.users]
        indices[1] = indices[0]
        f_ab = analog_beam_steering("imperfect", cb=cb, indices=indices)
        rng = np.random.default_rng(seed)
        eff = effective_channel(f_ab, sc, sigma_e2=sigma_e2, rng=rng)
        assert np.linalg.matrix_rank(f_ab.matrix.conj().T @ f_ab.matrix) == k - 1
        assert (np.linalg.matrix_rank(eff) == k - 1) == (sigma_e2 == 0)
        for snr_db in snrs:
            yield sc, f_ab, eff, p, noise_from_snr(p, k, snr_db)


def test_wmmse_with_singular_analog_gram_matches_oracle(cb64):
    _assert_batch_matches_oracles(list(_duplicate_codeword_drops(cb64, sigma_e2=0.1)))


def test_wmmse_with_singular_whitening_matrix_matches_oracle(cb64):
    # A + B is singular, so only its numerical range is whitened; here WMMSE
    # also switches users off, and their decayed columns must still normalize
    _assert_batch_matches_oracles(list(_duplicate_codeword_drops(cb64, sigma_e2=0.0)))


def _bisected_precoder(a_mat, b, c, budget):
    """The power-limited step the Newton solve replaced: the same whitening and
    scalar power function, with each problem's mu bracketed by doubling and
    bisected 60 times, all problems at once."""
    s, vecs = np.linalg.eigh(a_mat + b)
    keep = s > s[:, -1:] * s.shape[-1] * np.finfo(s.dtype).eps
    w = np.where(keep[:, None, :], vecs / np.sqrt(np.where(keep, s, 1.0))[:, None, :], 0.0)
    gamma, q = np.linalg.eigh(w.conj().mT @ b @ w)
    wq = w @ q
    y = wq.conj().mT @ c
    weights = gamma * np.sum(np.abs(y) ** 2, axis=-1)

    def power(mu):
        return np.add.reduce(weights / (1.0 + (mu[:, None] - 1.0) * gamma) ** 2, axis=-1)

    lo, hi = np.zeros(len(s)), np.ones(len(s))
    grow = power(hi) > budget
    while grow.any():
        hi = np.where(grow, 2.0 * hi, hi)
        grow &= (hi <= 1e12) & (power(hi) > budget)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        over = power(mid) > budget
        lo = np.where(over, mid, lo)
        hi = np.where(over, hi, mid)
    return wq @ (y / (1.0 + (hi[:, None] - 1.0) * gamma)[..., None])


def test_power_limited_step_matches_the_bisection_oracle(cb64, monkeypatch):
    # every stack hbf_wmmse hands its power-limited step while it solves the
    # regime drops and both duplicate-codeword sets (singular B, and singular
    # A + B) as one batch
    stacks = []
    solve = hbf._power_limited_precoder

    def record(*args):
        stacks.append(args)
        return solve(*args)

    monkeypatch.setattr(hbf, "_power_limited_precoder", record)
    _solve_batch([*_regime_drops(cb64, range(10), [-10.0, 0.0, 10.0, 20.0, 30.0]),
                  *_duplicate_codeword_drops(cb64, sigma_e2=0.1),
                  *_duplicate_codeword_drops(cb64, sigma_e2=0.0)])
    monkeypatch.undo()
    assert stacks
    for a_mat, b, c, budget in stacks:
        v, steps = solve(a_mat, b, c, budget)
        want = _bisected_precoder(a_mat, b, c, budget)
        error = np.max(np.abs(v - want), axis=(-2, -1))
        assert np.all(error <= 1e-9 * np.max(np.abs(want), axis=(-2, -1)))
        power = np.real(np.einsum("pik,pij,pjk->p", v.conj(), b, v))
        assert np.all(np.abs(power - budget) <= 1e-12 * budget)
        assert np.all(steps < _NEWTON_CAP)
        for i in range(len(v)):
            alone, alone_steps = solve(a_mat[i : i + 1], b[i : i + 1], c[i : i + 1], budget)
            assert np.array_equal(alone[0], v[i])
            assert alone_steps[0] == steps[i]


def _mixed_budget_stack(budget=2.0):
    """(A, B, C, budget) stacks of K = 2 problems: random ones scaled so that
    the least-power solution of A V = C uses a quarter of the budget or four
    times it, a third of them with a rank-one A whose range holds C, and
    A = diag(2, 0), B = I, C = diag(0.1, 0), whose null direction of A divides
    0 by 0 at mu = 0."""
    rng = np.random.default_rng(5)
    a_mats, bs, cs = [], [], []
    for i in range(12):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        f = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        if i % 3 == 2:
            g[:, 1] = 0.0
        a_mat, b, c = g @ g.conj().T, f.conj().T @ f, g * (1.0 + rng.uniform(size=2))
        power = _stack_power(_least_power_solution(a_mat[None], b[None], c[None]), b[None])
        c *= np.sqrt((0.25 if i % 2 else 4.0) * budget / power[0])
        a_mats.append(a_mat), bs.append(b), cs.append(c)
    a_mats.append(np.diag([2.0, 0.0]).astype(complex))
    bs.append(np.eye(2, dtype=complex))
    cs.append(np.diag([0.1, 0.0]).astype(complex))
    return np.stack(a_mats), np.stack(bs), np.stack(cs), budget


def _stack_power(v, b):
    """tr(V^H B V) of each problem of (P, K, K) stacks."""
    return np.real(np.einsum("pik,pij,pjk->p", v.conj(), b, v))


def _least_power_solution(a_mat, b, c):
    """The solution of A V = C with the least power tr(V^H B V), the limit of
    pinv(A + mu B) C as mu -> 0, for C in the range of A: pinv(A) C moved along
    the null space Z of A by -Z (Z^H B Z)^(-1) Z^H B pinv(A) C."""
    v = np.linalg.pinv(a_mat, hermitian=True) @ c
    for i, (s, vecs) in enumerate(zip(*np.linalg.eigh(a_mat))):
        z = vecs[:, s <= 1e-12 * s[-1]]
        zb = z.conj().T @ b[i]
        v[i] -= z @ np.linalg.solve(zb @ z, zb @ v[i])
    return v


def test_power_limited_step_keeps_the_unconstrained_solution_where_it_meets_the_budget():
    # problems over the budget, within it, and with a singular A, in one stack;
    # within the budget the step keeps mu = 0: pinv(A) C where A is nonsingular
    # or B = I, and otherwise the least-power solution of A V = C
    a_mat, b, c, budget = _mixed_budget_stack()
    v, steps = hbf._power_limited_precoder(a_mat, b, c, budget)
    assert np.all(np.isfinite(v))
    power = _stack_power(v, b)
    assert np.all(power <= budget * (1.0 + 1e-12))
    want = _least_power_solution(a_mat, b, c)
    free = _stack_power(want, b) <= budget
    assert free.sum() == 7 and np.all(steps[free] == 0)
    assert np.all(np.abs(power[~free] - budget) <= 1e-12 * budget)
    error = np.max(np.abs(v - want), axis=(-2, -1)) / np.max(np.abs(want), axis=(-2, -1))
    assert np.all(error[free] <= 1e-12)  # diag(0.05, 0) for A = diag(2, 0) among them
    for i in range(len(v)):
        alone, alone_steps = hbf._power_limited_precoder(
            a_mat[i : i + 1], b[i : i + 1], c[i : i + 1], budget)
        assert np.array_equal(alone[0], v[i])
        assert alone_steps[0] == steps[i]


@pytest.mark.parametrize("snr_db", [100.0, 150.0, 200.0])
def test_wmmse_at_high_snr_where_steps_meet_the_budget_unconstrained(cb64, snr_db):
    # from 100 dB up, some steps keep mu = 0. Where two users sweep to one
    # codeword, B is singular and the near-noiseless estimate makes A nearly
    # so; such a drop's trace can fall whichever way its steps are solved
    # (seed 5's imperfect regime does), so only its composite is checked
    drops = list(_regime_drops(cb64, range(10), [snr_db]))
    distinct = 0
    for drop, (hb, rep) in zip(drops, _solve_batch(drops), strict=True):
        assert np.all(np.isfinite(hb.composite.matrix))
        hb.composite.validate(atol=1e-9)
        f_ab = drop[1].matrix
        if np.linalg.matrix_rank(f_ab.conj().T @ f_ab) == f_ab.shape[1]:
            distinct += 1
            assert np.all(np.diff(rep.sumrate_trace) >= -1e-9)
    assert distinct == len(drops) - 1


def _switched_off_drop():
    # user 1 of this harness drop (perfect CSI, 0 dB) is switched off: its
    # precoder column decays to ~1e-173, whose squares underflow to zero
    sc = random_scenario(ArrayConfig(n_bs=64), 4, 3, seed=1500043)
    f_ab = analog_beam_steering("perfect", scenario=sc)
    return sc, f_ab, effective_channel(f_ab, sc), 1.0, noise_from_snr(1.0, 4, 0.0)


def test_wmmse_normalizes_a_switched_off_user():
    hb = _assert_matches_oracle(*_switched_off_drop())
    assert np.all(np.isfinite(hb.composite.matrix))
    hb.composite.validate(atol=1e-9)


def test_each_problem_of_a_mixed_batch_equals_itself_solved_alone(cb64):
    # both regimes from -10 to 30 dB, singular B, singular A + B and a
    # switched-off user, interleaved in one batch: each problem's composite,
    # count, flag and trace are bit-identical to that problem solved as a
    # batch of one.
    # At 200 dB some unconstrained steps meet the budget, so the batch mixes
    # problems whose step keeps mu = 0 with problems whose step raises it.
    drops = [*_regime_drops(cb64, range(3), [-10.0, 0.0, 10.0, 20.0, 30.0]),
             *_regime_drops(cb64, range(2), [200.0]),
             *_duplicate_codeword_drops(cb64, sigma_e2=0.1, seeds=range(2)),
             *_duplicate_codeword_drops(cb64, sigma_e2=0.0, seeds=range(2)),
             _switched_off_drop()]
    drops = [drops[i] for i in np.random.default_rng(0).permutation(len(drops))]
    hb, rep = hbf_wmmse([d[1] for d in drops], [d[2] for d in drops], 1.0,
                        [d[4] for d in drops])
    k = 4
    assert hb.composite.matrix.shape == (64, k * len(drops))
    assert hb.digital.shape == (len(drops), k, k)
    assert rep.iterations_used == sum(r.iterations_used for r in rep.reports)
    assert rep.converged == sum(r.converged for r in rep.reports)
    assert rep.converged < len(drops)  # some problems stop at the cap, others leave early
    for i, (drop, one, one_rep) in enumerate(zip(drops, hb.split(), rep.reports, strict=True)):
        [(alone, alone_rep)] = _solve_batch([drop])
        assert np.array_equal(hb.composite.matrix[:, i * k : (i + 1) * k],
                              alone.composite.matrix)
        assert np.array_equal(one.composite.matrix, alone.composite.matrix)
        assert np.array_equal(one.digital, alone.digital)
        assert np.array_equal(one.analog, alone.analog)
        assert one_rep.iterations_used == alone_rep.iterations_used
        assert one_rep.converged == alone_rep.converged
        assert np.array_equal(one_rep.sumrate_trace, alone_rep.sumrate_trace)


def test_wmmse_batch_input_errors():
    sc = random_scenario(ArrayConfig(n_bs=16), 2, 2, seed=0)
    f_ab = analog_beam_steering("perfect", scenario=sc)
    eff = effective_channel(f_ab, sc)
    with pytest.raises(ValueError):
        hbf_wmmse([f_ab, f_ab], [eff], 1.0, 0.1)
    with pytest.raises(ValueError):
        hbf_wmmse([f_ab, f_ab], [eff, eff], 1.0, [0.1, 0.2, 0.3])
