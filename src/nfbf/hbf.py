"""Baseline schemes: analog beam steering and hybrid beamforming (ZF/WMMSE).

The hybrid baselines compose a constant-modulus analog stage with a K x K
digital stage designed on the effective channel (the channel seen through the
analog stage). Composite columns carry no power gain: ||F_AB d_k|| = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebook import CodewordIndex, PolarCodebook
from .metrics import (
    ANALOG_ONLY,
    HYBRID_COMPOSITE,
    BeamformerMatrix,
    channel_sum_rates,
    conjugate_phase,
)

COND_LIMIT = 1e12


class SingularEffectiveChannelError(ValueError):
    """Effective channel too ill-conditioned for a zero-forcing inverse."""


@dataclass
class HybridBeamformer:
    """Analog stage, digital stage, and their composite.

    A batch of B problems holds (N, B K) analog and composite matrices,
    problem-major, and a (B, K, K) digital stack.
    """

    analog: np.ndarray
    digital: np.ndarray
    composite: BeamformerMatrix

    def split(self) -> list[HybridBeamformer]:
        """Each problem of a batch as its own beamformer; one problem gives [self]."""
        if self.digital.ndim == 2:
            return [self]
        k = self.digital.shape[-1]
        return [
            HybridBeamformer(
                analog=np.ascontiguousarray(self.analog[:, i * k : (i + 1) * k]),
                digital=d,
                composite=BeamformerMatrix(
                    np.ascontiguousarray(self.composite.matrix[:, i * k : (i + 1) * k]),
                    self.composite.kind,
                ),
            )
            for i, d in enumerate(self.digital)
        ]


@dataclass
class WMMSEReport:
    iterations_used: int
    converged: bool
    sumrate_trace: np.ndarray


@dataclass
class WMMSEBatchReport:
    """Diagnostics of a batch: reports[b] is problem b's own WMMSEReport.

    iterations_used (the iterations summed over the batch) and converged (the
    count of converged problems) are totals, so they add up as B one-problem
    reports do.
    """

    reports: list[WMMSEReport]

    @property
    def iterations_used(self) -> int:
        return sum(r.iterations_used for r in self.reports)

    @property
    def converged(self) -> int:
        return sum(r.converged for r in self.reports)


def analog_beam_steering(
    mode: str,
    scenario=None,
    cb: PolarCodebook | None = None,
    indices: list[CodewordIndex] | None = None,
) -> BeamformerMatrix:
    """Analog-only steering columns.

    mode "perfect": column k is the conjugate-phase beamformer of user k's
    channel vector (requires scenario). mode "imperfect": column k is the
    swept codeword (requires cb and indices).
    """
    if mode == "perfect":
        if scenario is None:
            raise ValueError("perfect mode needs a scenario")
        cols = conjugate_phase(scenario.channel_matrix())
    elif mode == "imperfect":
        if cb is None or indices is None:
            raise ValueError("imperfect mode needs a codebook and indices")
        cols = np.ascontiguousarray(cb.codewords_at(indices).T)
    else:
        raise ValueError(f"unknown mode: {mode!r}")
    return BeamformerMatrix(matrix=cols, kind=ANALOG_ONLY)


def effective_channel(
    f_ab,
    scenario,
    sigma_e2: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Channel through the analog stage: the K x K matrix whose column k is F_AB^H h_k.

    Computed noiselessly by default (pilot estimation is abstracted). With
    sigma_e2 > 0 each entry gets an additive CN(0, sigma_e2) estimation error;
    the underlying standard draw does not depend on sigma_e2, so a fixed rng
    seed reuses one error realization across noise levels.
    """
    a = f_ab.matrix
    hh = scenario.channel_matrix()
    if a.shape[0] != hh.shape[0]:
        raise ValueError("dimension mismatch")
    m = a.conj().T @ hh
    if sigma_e2 > 0:
        if rng is None:
            raise ValueError("estimation noise needs an rng")
        g = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        m = m + np.sqrt(sigma_e2 / 2.0) * g
    return m


def _composite(analog: np.ndarray, digital: np.ndarray) -> HybridBeamformer:
    comp = analog @ digital
    return HybridBeamformer(
        analog=analog,
        digital=digital,
        composite=BeamformerMatrix(matrix=comp, kind=HYBRID_COMPOSITE),
    )


def hbf_zf(f_ab: BeamformerMatrix, eff: np.ndarray) -> HybridBeamformer:
    """Zero-forcing digital stage on the effective channel.

    Column k of the digital matrix satisfies eff_i^H d_k = 0 for i != k, then
    is scaled so the composite column has unit norm.
    """
    a = f_ab.matrix
    if np.linalg.cond(eff) > COND_LIMIT:
        raise SingularEffectiveChannelError("effective channel condition number > 1e12")
    d = np.linalg.inv(eff.conj().T)
    norms = np.linalg.norm(a @ d, axis=0)
    d = d / norms
    return _composite(a, d)


_NEWTON_CAP = 100
_WMMSE_ITERS = 100
_WMMSE_TOL = 1e-6


def _power_limited_precoder(
    a_mat: np.ndarray, b: np.ndarray, c: np.ndarray, budget: float
) -> tuple[np.ndarray, np.ndarray]:
    """pinv(A + mu B) C at the least multiplier mu >= 0 where tr(V^H B V) meets
    budget, for each problem of (P, K, K) stacks; also each problem's Newton
    step count.

    For mu > 0 every A + mu B has the range of A + B, so whitening by A + B on
    that range, W = V diag(s)^(-1/2) with the columns of eigenvalues below the
    range cut to zero, and diagonalizing W^H B W = Q diag(gamma) Q^H give
    pinv(A + mu B) = W Q diag(1/(1 + (mu-1) gamma)) Q^H W^H. With y = Q^H W^H C,
    the power on the live directions (gamma_i > 0 and a_i > 0) is the secular
    function sum_i a_i / (mu + c_i)^2, with a_i = |y_i|^2 / gamma_i and
    c_i = (1 - gamma_i) / gamma_i clamped at 0. Where the budget holds at
    mu = 0, V is the limit as mu -> 0, the least-power solution of A V = C
    (pinv(A) C for a nonsingular A), with 0 on the null directions of A
    (1 - gamma_i within the cut), where y_i is roundoff of C. Elsewhere Newton on
    power^(-1/2) - budget^(-1/2), which is concave and increasing in mu (Moré &
    Sorensen, SIAM J. Sci. Stat. Comput. 1983), rises monotonically to the root
    from mu0 = max(0, max_i sqrt(a_i / budget) - c_i), where one term alone
    meets the budget. A problem stops once its step is at most 1e-15 mu, so its
    step count and bits do not depend on the other problems of the stack;
    _NEWTON_CAP steps bound the loop.
    """
    s, vecs = np.linalg.eigh(a_mat + b)
    cut = s.shape[-1] * np.finfo(s.dtype).eps
    keep = s > s[:, -1:] * cut
    w = np.where(keep[:, None, :], vecs / np.sqrt(np.where(keep, s, 1.0))[:, None, :], 0.0)
    gamma, q = np.linalg.eigh(w.conj().mT @ b @ w)
    wq = w @ q
    y = wq.conj().mT @ c
    y2 = np.sum(np.abs(y) ** 2, axis=-1)
    live = (gamma > 0) & (y2 > 0)
    # a dead direction adds 0 / (mu + 1)^2
    g = np.where(live, gamma, 1.0)
    a = np.where(live, y2 / g, 0.0)
    c_mu = np.where(live, np.maximum((1.0 - g) / g, 0.0), 1.0)

    null = gamma >= 1.0 - cut  # a null direction of A, up to roundoff
    d = 1.0 / np.where(null, np.inf, c_mu)
    free = np.add.reduce(a * d * d, axis=-1) <= budget
    mu = np.maximum(np.max(np.sqrt(a / budget) - c_mu, axis=-1), 0.0)
    steps = np.zeros(len(mu), dtype=int)
    active = ~free
    for _ in range(_NEWTON_CAP):
        d = 1.0 / (mu[:, None] + c_mu)
        terms = a * d * d
        # add.reduce, not np.sum: np.sum's dispatch dominates on (P, K) arrays
        power = np.add.reduce(terms, axis=-1)
        step = (np.sqrt(power / budget) - 1.0) * power / np.add.reduce(terms * d, axis=-1)
        active &= step > 1e-15 * mu
        if not active.any():
            break
        mu = np.where(active, mu + step, mu)
        steps += active
    mu[free] = 0.0
    scale = 1.0 + (mu[:, None] - 1.0) * gamma
    scale[null & free[:, None]] = np.inf
    return wq @ (y / scale[..., None]), steps


def _precoder_power(v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each column's composite power, the diagonal of V^H B V, for (P, K, K) stacks."""
    return np.real(np.sum(v.conj() * (b @ v), axis=-2))


def hbf_wmmse(f_ab: list, eff: list, p, sigma2) -> tuple[HybridBeamformer, WMMSEBatchReport]:
    """Weighted-MMSE digital stage on the effective channel, for a batch of problems.

    f_ab is a list of B analog stages of equal (N, K), eff the list of their
    B (K, K) effective channels, and p and sigma2 are scalars or one value per
    problem. It returns one HybridBeamformer of (N, B K) analog and composite
    matrices, problem-major, with a (B, K, K) digital stack, and a
    WMMSEBatchReport. Each problem of a batch is bit-identical, in its
    composite, count, flag and trace, to that problem solved as a batch of
    one: every step is a stacked product or decomposition whose items are
    computed one by one, and a converged problem leaves the batch.

    Alternates per-user scalar receivers, MSE weights, and a digital precoder
    solved from the weighted normal equations A V = C under the composite power
    budget sum_k ||F_AB d_k||^2 <= K: every step takes V = pinv(A + mu B) C at
    the least Lagrange multiplier mu >= 0 that meets the budget, found by Newton
    on the scalar secular power function (`_power_limited_precoder`); mu = 0,
    the unconstrained solution, where that already meets it. Iterates until the
    relative sum-rate change drops below _WMMSE_TOL (1e-6) or _WMMSE_ITERS
    (100) steps are taken. A final per-column renormalization enforces unit
    composite column norms, also for a user that WMMSE switched off: its
    decayed column keeps its direction, or, once it has decayed below the
    normal floats, is replaced by the user's analog column.
    """
    a = np.stack([f.matrix for f in f_ab])
    h = np.stack(eff)
    n_prob, kk = h.shape[0], h.shape[-1]
    if a.shape[0] != n_prob:
        raise ValueError("one analog stage per effective channel")
    p = np.broadcast_to(np.asarray(p, dtype=float), (n_prob,))
    sigma2 = np.broadcast_to(np.asarray(sigma2, dtype=float), (n_prob,))
    # absorb the per-stream transmit power into the channel
    g = np.sqrt(p / kk)[:, None, None] * h
    b = a.conj().mT @ a

    # zero-forcing style initialization, scaled to the power budget
    v = np.linalg.pinv(g.conj().mT)
    pw = _precoder_power(v, b)
    pw[pw == 0] = 1.0
    v = v / np.sqrt(pw)[:, None, :]

    last = channel_sum_rates(h, v, p, sigma2)
    traces = [[r] for r in last.tolist()]
    used = np.full(n_prob, _WMMSE_ITERS)
    converged = np.zeros(n_prob, dtype=bool)
    done_v = v.copy()
    ids = np.arange(n_prob)  # the problems still iterating
    for it in range(1, _WMMSE_ITERS + 1):
        t = g.conj().mT @ v  # t[k, i] = g_k^H v_i
        q = np.sum(np.abs(t) ** 2, axis=-1) + sigma2[ids, None]
        tkk = np.diagonal(t, axis1=-2, axis2=-1)
        u = tkk.conj() / q
        e = np.maximum(1.0 - np.abs(tkk) ** 2 / q, 1e-12)
        w = 1.0 / e

        wu2 = w * np.abs(u) ** 2
        a_mat = (g * wu2[:, None, :]) @ g.conj().mT
        c = g * (w * u.conj())[:, None, :]

        v, _ = _power_limited_precoder(a_mat, b, c, kk)
        rate = channel_sum_rates(h[ids], v, p[ids], sigma2[ids])
        for i, r in zip(ids.tolist(), rate.tolist()):
            traces[i].append(r)
        prev, last[ids] = last[ids], rate
        stop = np.abs(rate - prev) <= _WMMSE_TOL * np.maximum(1.0, np.abs(prev))
        if stop.any():
            done_v[ids[stop]] = v[stop]
            used[ids[stop]] = it
            converged[ids[stop]] = True
            stay = ~stop
            ids, g, b, v = ids[stay], g[stay], b[stay], v[stay]
            if not ids.size:
                break
    done_v[ids] = v

    # a user WMMSE switches off keeps a column that decays geometrically: bring
    # it to unit scale, or its squared entries underflow in the norm; a column
    # that has decayed below the normal floats is served by its analog column
    v = done_v
    peak = np.max(np.abs(v), axis=-2)
    off = peak < np.finfo(peak.dtype).tiny
    v = v / np.where(off, 1.0, peak)[:, None, :]
    v = np.where(off[:, None, :], np.eye(kk), v)
    norms = np.linalg.norm(a @ v, axis=-2)
    norms[norms == 0] = 1.0
    v = v / norms[:, None, :]
    comp = a @ v
    reports = [WMMSEReport(iterations_used=int(n), converged=bool(c), sumrate_trace=np.array(tr))
               for n, c, tr in zip(used, converged, traces)]
    hybrid = HybridBeamformer(
        analog=_problem_major(a),
        digital=v,
        composite=BeamformerMatrix(_problem_major(comp), HYBRID_COMPOSITE),
    )
    return hybrid, WMMSEBatchReport(reports)


def _problem_major(stack: np.ndarray) -> np.ndarray:
    """(B, N, K) stack as the (N, B K) matrix whose columns b K to b K + K - 1 are item b."""
    return stack.transpose(1, 0, 2).reshape(stack.shape[1], -1)
