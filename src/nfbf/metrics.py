"""Analytic link metrics: SINR, sum rates, beam gain, and the power model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import steering_matrix

ANALOG_ONLY = "analog-only"
HYBRID_COMPOSITE = "hybrid-composite"


@dataclass
class BeamformerMatrix:
    """(N, K) beamformer, one column per user.

    kind "analog-only" carries the constant-modulus invariant (every entry has
    modulus 1/sqrt(N)); kind "hybrid-composite" carries unit column norms (no
    power gain from the hybrid structure).
    """

    matrix: np.ndarray
    kind: str

    def validate(self, atol: float = 1e-9) -> None:
        """Raise ValueError if the kind-specific invariant is violated or any entry is NaN."""
        if self.kind == ANALOG_ONLY:
            want = 1.0 / np.sqrt(self.matrix.shape[0])
            err = np.max(np.abs(np.abs(self.matrix) - want))
            if not err <= atol:  # NaN fails too
                raise ValueError(f"constant-modulus violation: {err:.3e}")
        elif self.kind == HYBRID_COMPOSITE:
            norms = np.linalg.norm(self.matrix, axis=0)
            err = np.max(np.abs(norms - 1.0))
            if not err <= atol:
                raise ValueError(f"unit-column-norm violation: {err:.3e}")
        else:
            raise ValueError(f"unknown beamformer kind: {self.kind!r}")

    def split(self, count: int) -> list[BeamformerMatrix]:
        """An item-major (N, count K) batch as its count (N, K) items, each a
        contiguous copy of this kind."""
        return [BeamformerMatrix(np.ascontiguousarray(cols), self.kind)
                for cols in np.split(self.matrix, count, axis=1)]


def conjugate_phase(hh: np.ndarray) -> np.ndarray:
    """The conjugate-phase analog beamformer of the (..., N, K) channel
    columns hh: each entry has h's phase and modulus 1/sqrt(N)."""
    return np.exp(1j * np.angle(hh)) / np.sqrt(hh.shape[-2])


@dataclass(frozen=True)
class PowerModel:
    """Component power draws (watts) for energy-efficiency accounting."""

    p_rf: float = 0.026
    p_ps: float = 0.010
    p_bb: float = 0.200

    def __post_init__(self):
        for name in ("p_rf", "p_ps", "p_bb"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be nonnegative and finite")


def _matrix_of(f) -> np.ndarray:
    return np.asarray(getattr(f, "matrix", f))


def _sinrs(hh: np.ndarray, m: np.ndarray, p, sigma2) -> np.ndarray:
    """Every user's SINR for channel columns h_k and beamformer columns f_i, at
    equal power P/K per stream: the one place the gains |h_k^H f_i|^2 are formed.

    hh and m may carry leading stack axes, one problem per item, with p and
    sigma2 scalars or one value per problem; each item's SINRs are bit-equal
    to that problem's alone."""
    if m.shape[-2] != hh.shape[-2]:
        raise ValueError("dimension mismatch")
    # stacked products of contiguous rows h_k^H with F round as each h_k^H F alone;
    # one (K, N) @ (N, K) product or strided rows round differently
    rows = np.ascontiguousarray(np.swapaxes(hh, -1, -2)).conj()[..., None, :]
    g = np.abs((rows @ m[..., None, :, :])[..., 0, :]) ** 2
    per_user = np.asarray(p)[..., None] / m.shape[-1]
    signal = np.diagonal(g, axis1=-2, axis2=-1)
    interference = per_user * (np.sum(g, axis=-1) - signal)
    return per_user * signal / (interference + np.asarray(sigma2)[..., None])


def channel_sum_rates(hh: np.ndarray, f, p, sigma2) -> np.ndarray:
    """Sum of per-user achievable rates over the channel columns hh, for
    every problem of a stack: hh and f are (..., N, K), p and sigma2 scalars or
    one value per problem."""
    rates = np.log2(1.0 + _sinrs(hh, _matrix_of(f), p, sigma2))
    # added in user order: numpy's pairwise sum rounds differently from K = 8 on
    total = rates[..., 0]
    for k in range(1, rates.shape[-1]):
        total = total + rates[..., k]
    return total


def sum_rate(scenario, f, p: float, sigma2: float) -> float:
    """Sum of per-user achievable rates."""
    return float(channel_sum_rates(scenario.channel_matrix(), f, p, sigma2))


def beam_pattern_grid(cfg, f, angle_grid, radius_grid) -> np.ndarray:
    """Summed beam gains of the (N, C) beamformer array f; entry (i, j) = sum
    over columns f_c of |u(angle_i, radius_j)^H f_c|^2.

    f may carry leading stack axes, one beamformer per item, all read on one
    steering grid: the result is (..., A, R)."""
    angle_grid = np.asarray(angle_grid, dtype=float)
    radius_grid = np.asarray(radius_grid, dtype=float)
    if angle_grid.size == 0 or radius_grid.size == 0:
        raise ValueError("grids must be nonempty")
    m = np.asarray(f)
    if m.ndim < 2:
        raise ValueError("f must be an (N, C) beamformer array or a stack of them")
    u = steering_matrix(cfg, angle_grid[:, None], radius_grid).conj()  # (A, R, N)
    total = np.zeros(m.shape[:-2] + u.shape[:-1])
    # each column's product on the grid, added in column order: one
    # (A R, N) @ (N, C) product rounds differently
    for item in np.ndindex(m.shape[:-2]):
        for column in m[item].T:
            total[item] += np.abs(u @ column) ** 2
    return total


def total_power(model: PowerModel, p: float, n_bs: int, n_rf: int, baseband: bool) -> float:
    """p + N_RF P_RF + N_BS N_RF P_PS (+ P_BB with a baseband stage), p the run's P."""
    total = p + n_rf * model.p_rf + n_bs * n_rf * model.p_ps
    if baseband:
        total += model.p_bb
    return float(total)


def noise_from_snr(p: float, k: int, snr_db: float) -> float:
    """sigma2 = P / (K * 10^(SNR_dB/10)), a scheme-independent operating point."""
    return float(p / (k * 10.0 ** (snr_db / 10.0)))
