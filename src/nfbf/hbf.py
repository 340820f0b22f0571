"""Baseline schemes: analog beam steering and hybrid beamforming (ZF/WMMSE).

The hybrid baselines compose a constant-modulus analog stage with a K x K
digital stage designed on the effective channel (the channel seen through the
analog stage). Composite columns carry no power gain: ||F_AB d_k|| = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebook import CodewordIndex, PolarCodebook
from .metrics import ANALOG_ONLY, HYBRID_COMPOSITE, BeamformerMatrix, channel_sum_rate

COND_LIMIT = 1e12


class SingularEffectiveChannelError(ValueError):
    """Effective channel too ill-conditioned for a zero-forcing inverse."""


@dataclass
class EffectiveChannel:
    """K x K matrix whose column k is F_AB^H h_k."""

    matrix: np.ndarray


@dataclass
class HybridBeamformer:
    """Analog stage, digital stage, and their composite."""

    analog: np.ndarray
    digital: np.ndarray
    composite: BeamformerMatrix


@dataclass
class WMMSEReport:
    iterations_used: int
    converged: bool
    sumrate_trace: np.ndarray


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
        hh = scenario.channel_matrix()
        cols = np.exp(1j * np.angle(hh)) / np.sqrt(hh.shape[0])
    elif mode == "imperfect":
        if cb is None or indices is None:
            raise ValueError("imperfect mode needs a codebook and indices")
        cols = np.stack([cb.codeword(idx) for idx in indices], axis=1)
    else:
        raise ValueError(f"unknown mode: {mode!r}")
    return BeamformerMatrix(matrix=cols, kind=ANALOG_ONLY)


def effective_channel(
    f_ab,
    scenario,
    sigma_e2: float = 0.0,
    rng: np.random.Generator | None = None,
) -> EffectiveChannel:
    """Channel through the analog stage: column k = F_AB^H h_k.

    Computed noiselessly by default (pilot estimation is abstracted). With
    sigma_e2 > 0 each entry gets an additive CN(0, sigma_e2) estimation error;
    the underlying standard draw does not depend on sigma_e2, so a fixed rng
    seed reuses one error realization across noise levels.
    """
    a = np.asarray(getattr(f_ab, "matrix", f_ab))
    hh = scenario.channel_matrix()
    if a.shape[0] != hh.shape[0]:
        raise ValueError("dimension mismatch")
    m = a.conj().T @ hh
    if sigma_e2 > 0:
        if rng is None:
            raise ValueError("estimation noise needs an rng")
        g = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
        m = m + np.sqrt(sigma_e2 / 2.0) * g
    return EffectiveChannel(matrix=m)


def _composite(analog: np.ndarray, digital: np.ndarray) -> HybridBeamformer:
    comp = analog @ digital
    return HybridBeamformer(
        analog=analog,
        digital=digital,
        composite=BeamformerMatrix(matrix=comp, kind=HYBRID_COMPOSITE),
    )


def hbf_zf(f_ab, eff: EffectiveChannel) -> HybridBeamformer:
    """Zero-forcing digital stage on the effective channel.

    Column k of the digital matrix satisfies eff_i^H d_k = 0 for i != k, then
    is scaled so the composite column has unit norm.
    """
    a = np.asarray(getattr(f_ab, "matrix", f_ab))
    m = eff.matrix
    if np.linalg.cond(m) > COND_LIMIT:
        raise SingularEffectiveChannelError("effective channel condition number > 1e12")
    d = np.linalg.inv(m.conj().T)
    norms = np.linalg.norm(a @ d, axis=0)
    d = d / norms
    return _composite(a, d)


def _power_limited_precoder(
    a_mat: np.ndarray, b: np.ndarray, c: np.ndarray, budget: float
) -> np.ndarray:
    """pinv(A + mu B) C at the multiplier mu > 0 where tr(V^H B V) meets budget.

    For mu > 0 every A + mu B has the range of A + B, so whitening by A + B on
    that range, W = V_r diag(s_r)^(-1/2), and diagonalizing W^H B W =
    Q diag(gamma) Q^H give pinv(A + mu B) = W Q diag(1/(1 + (mu-1) gamma)) Q^H W^H.
    The power is then sum_i gamma_i |y_i|^2 / (1 + (mu-1) gamma_i)^2 with
    y = Q^H W^H C, and mu is bracketed by doubling and bisected in scalars.
    """
    s, vecs = np.linalg.eigh(a_mat + b)
    keep = s > s[-1] * len(s) * np.finfo(s.dtype).eps
    w = vecs[:, keep] / np.sqrt(s[keep])
    gamma, q = np.linalg.eigh(w.conj().T @ b @ w)
    wq = w @ q
    y = wq.conj().T @ c
    weights = gamma * np.sum(np.abs(y) ** 2, axis=1)
    terms = list(zip(gamma.tolist(), weights.tolist()))

    def power(mu: float) -> float:
        return sum(t / (1.0 + (mu - 1.0) * g) ** 2 for g, t in terms)

    lo, hi = 0.0, 1.0
    while power(hi) > budget:
        hi *= 2.0
        if hi > 1e12:
            break
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if power(mid) > budget:
            lo = mid
        else:
            hi = mid
    return wq @ (y / (1.0 + (hi - 1.0) * gamma)[:, None])


def hbf_wmmse(
    f_ab,
    eff: EffectiveChannel,
    p: float,
    sigma2: float,
    iters: int = 100,
    tol: float = 1e-6,
) -> tuple[HybridBeamformer, WMMSEReport]:
    """Weighted-MMSE digital stage on the effective channel.

    Alternates per-user scalar receivers, MSE weights, and a digital precoder
    solved from the weighted normal equations. When that solution exceeds the
    composite power budget sum_k ||F_AB d_k||^2 <= K, the precoder takes the
    Lagrange multiplier that meets the budget, bisected on a scalar power
    function (`_power_limited_precoder`). Iterates until the relative sum-rate
    change drops below tol or iters is reached. A final per-column
    renormalization enforces unit composite column norms, also for a user that
    WMMSE switched off: its decayed column keeps its direction, or, once it has
    decayed below the normal floats, is replaced by the user's analog column.
    """
    a = np.asarray(getattr(f_ab, "matrix", f_ab))
    kk = eff.matrix.shape[1]
    per_user = p / kk
    # absorb the per-stream transmit power into the channel
    g = np.sqrt(per_user) * eff.matrix
    b = a.conj().T @ a

    # zero-forcing style initialization, scaled to the power budget
    v = np.linalg.pinv(g.conj().T)
    pw = np.real(np.einsum("ik,ij,jk->k", v.conj(), b, v))
    pw[pw == 0] = 1.0
    v = v / np.sqrt(pw)

    trace = [channel_sum_rate(eff.matrix, v, p, sigma2)]
    converged = False
    it = 0
    for it in range(1, iters + 1):
        t = g.conj().T @ v  # t[k, i] = g_k^H v_i
        q = np.sum(np.abs(t) ** 2, axis=1) + sigma2
        tkk = np.diag(t)
        u = tkk.conj() / q
        e = np.maximum(1.0 - np.abs(tkk) ** 2 / q, 1e-12)
        w = 1.0 / e

        wu2 = w * np.abs(u) ** 2
        a_mat = (g * wu2) @ g.conj().T
        c = g * (w * u.conj())

        v = np.linalg.lstsq(a_mat, c, rcond=None)[0]
        if np.real(np.einsum("ik,ij,jk->", v.conj(), b, v)) > kk:
            v = _power_limited_precoder(a_mat, b, c, kk)
        trace.append(channel_sum_rate(eff.matrix, v, p, sigma2))
        if abs(trace[-1] - trace[-2]) <= tol * max(1.0, abs(trace[-2])):
            converged = True
            break

    # a user WMMSE switches off keeps a column that decays geometrically: bring
    # it to unit scale, or its squared entries underflow in the norm; a column
    # that has decayed below the normal floats is served by its analog column
    peak = np.max(np.abs(v), axis=0)
    off = peak < np.finfo(peak.dtype).tiny
    v = v / np.where(off, 1.0, peak)
    v[:, off] = np.eye(kk)[:, off]
    norms = np.linalg.norm(a @ v, axis=0)
    norms[norms == 0] = 1.0
    v = v / norms
    hybrid = _composite(a, v)
    return hybrid, WMMSEReport(
        iterations_used=it, converged=converged, sumrate_trace=np.array(trace)
    )
