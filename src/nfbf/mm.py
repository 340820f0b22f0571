"""Constant-modulus beamformer design by majorization-minimization.

Per user k the design minimizes a leakage-regularized objective
-sum |u^H f|^2 + omega * (same sum over the other users' rows) over
unit-modulus-entry vectors, where each user is represented by a stack of rows
U_k. Each iteration majorizes the objective by a linear surrogate and
minimizes it in closed form: f <- (1/sqrt(N)) exp(j angle(G f)) with
G = U_k^T U_k^* - omega (Z_k - mu I), Z_k the interference matrix
sum_{i != k} U_i^T U_i^* and mu a constant that certifies the surrogate.

One engine serves both regimes. Perfect CSI gives each user the single row
h_k^T and starts at the conjugate-phase beamformer; imperfect CSI gives each
user the steering vectors at the auxiliary points around its swept codeword
and starts at that codeword. The regimes differ only in these rows, the
starting columns and the rule for mu. The loop reads the objective trace off
the product it already computes: obj(f) = omega mu ||f||^2 - Re(f^H G f).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codebook import (
    AuxiliaryGrid,
    CodewordIndex,
    PolarCodebook,
    approximate_channel_matrices,
    auxiliary_points,
)
from .metrics import ANALOG_ONLY, BeamformerMatrix

MU_SPECTRAL = "spectral"
MU_PAPER_EXACT = "paper-exact"
_MU_MODES = (MU_SPECTRAL, MU_PAPER_EXACT)


@dataclass(frozen=True)
class MMConfig:
    """MM loop parameters.

    mu_mode selects the additive constant that certifies the interference
    surrogate. "spectral" (the default in both regimes) uses sum_i ||h_i||^2
    for perfect CSI and the top eigenvalue of the interference matrix for
    imperfect CSI; both are certified majorizers, so the objective descends.
    "paper-exact" uses (K-1) max_i ||h_i||^2 for perfect CSI and the literal
    1/N per auxiliary point for imperfect CSI (not a certified majorizer
    there; descent may fail).
    """

    omega: float = 1000.0
    epsilon: float = 1e-9
    t_max: int = 1000
    mu_mode: str = MU_SPECTRAL

    def __post_init__(self):
        if self.omega < 0:
            raise ValueError("omega must be nonnegative")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.mu_mode not in _MU_MODES:
            raise ValueError(f"unknown mu_mode: {self.mu_mode!r}")


@dataclass
class MMReport:
    """Per-user diagnostics of one design run.

    objective_trace[k][0] is the objective at the initial point, followed by
    one value per iteration. With spectral mu the trace is nonincreasing.
    """

    iterations_used: list[int] = field(default_factory=list)
    objective_trace: list[np.ndarray] = field(default_factory=list)
    converged: list[bool] = field(default_factory=list)


def _row_power(u: np.ndarray) -> float:
    return float(np.sum(np.abs(u) ** 2))


# mu rules: (other users' row stacks, their interference matrix) -> mu
_PERFECT_MU = {
    MU_SPECTRAL: lambda others, z_int: sum(_row_power(u) for u in others),
    MU_PAPER_EXACT: lambda others, z_int: max(_row_power(u) for u in others) * len(others),
}
_IMPERFECT_MU = {
    MU_SPECTRAL: lambda others, z_int: float(np.linalg.eigvalsh(z_int)[-1]),
    MU_PAPER_EXACT: lambda others, z_int: sum(u.shape[0] for u in others) / z_int.shape[0],
}


def _update_matrix(stacks: list[np.ndarray], k: int, omega: float, mu_rule) -> tuple:
    """(G, mu) for user k: G = U_k^T U_k^* - omega (Z_k - mu I), mu = 0 without interferers."""
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


def _project(gf: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Closed-form surrogate minimizer: the unit phases of G f.

    Entries where (G f) is exactly zero keep the previous entry (any phase is
    optimal there; retention keeps the update deterministic).
    """
    out = np.exp(1j * np.angle(gf)) / np.sqrt(f.shape[0])
    zero = gf == 0
    if np.any(zero):
        out[zero] = f[zero]
    return out


def _run_mm(g_mat: np.ndarray, f0: np.ndarray, cfg: MMConfig, offset: float) -> tuple:
    """Iterate the phase step from f0; returns (f, iterations, trace, converged).

    offset is omega * mu, so each trace value is offset ||f||^2 - Re(f^H G f),
    read off the product G f that the next step projects.
    """
    f = f0
    gf = g_mat @ f
    trace = [offset * np.vdot(f, f).real - np.vdot(f, gf).real]
    converged = False
    t = 0
    for t in range(1, cfg.t_max + 1):
        f_new = _project(gf, f)
        diff = float(np.sum(np.abs(f_new - f) ** 2))
        f = f_new
        gf = g_mat @ f
        trace.append(offset * np.vdot(f, f).real - np.vdot(f, gf).real)
        if diff <= cfg.epsilon:
            converged = True
            break
    return f, t, np.array(trace), converged


def _design(stacks: list[np.ndarray], starts: list[np.ndarray], cfg: MMConfig,
            mu_rules: dict) -> tuple[BeamformerMatrix, MMReport]:
    """Run the MM loop for every user's column from its start."""
    cols = np.empty((starts[0].shape[0], len(starts)), dtype=complex)
    report = MMReport()
    for k, f0 in enumerate(starts):
        g, mu = _update_matrix(stacks, k, cfg.omega, mu_rules[cfg.mu_mode])
        f, t, trace, conv = _run_mm(g, f0, cfg, cfg.omega * mu)
        cols[:, k] = f
        report.iterations_used.append(t)
        report.objective_trace.append(trace)
        report.converged.append(conv)
    return BeamformerMatrix(matrix=cols, kind=ANALOG_ONLY), report


def _checked_stacks(stacks, k: int) -> list[np.ndarray]:
    stacks = [np.asarray(u) for u in stacks]
    if not 0 <= k < len(stacks):
        raise ValueError("bad user index")
    return stacks


def _perfect_stacks(h_all) -> list[np.ndarray]:
    return [np.asarray(h)[None, :] for h in h_all]


def imperfect_objective(aux_vectors_all, f_col, k: int, omega: float) -> float:
    """Surrogate-support objective: -sum_rs |u_k^H f|^2 + omega * leakage."""
    stacks = _checked_stacks(aux_vectors_all, k)
    f = np.asarray(f_col)
    totals = np.array([np.sum(np.abs(u.conj() @ f) ** 2) for u in stacks])
    return float(-totals[k] + omega * (np.sum(totals) - totals[k]))


def slnr_objective(h_all, f_col, k: int, omega: float) -> float:
    """-|h_k^H f|^2 + omega * sum_{i != k} |h_i^H f|^2."""
    return imperfect_objective(_perfect_stacks(h_all), f_col, k, omega)


def _single_step(stacks, f_col, k: int, cfg: MMConfig, mu_rules: dict) -> np.ndarray:
    stacks = _checked_stacks(stacks, k)
    g, _ = _update_matrix(stacks, k, cfg.omega, mu_rules[cfg.mu_mode])
    f = np.asarray(f_col)
    return _project(g @ f, f)


def mm_update_perfect(h_all, f_col, k: int, cfg: MMConfig) -> np.ndarray:
    """One perfect-CSI MM iteration for user k's column."""
    return _single_step(_perfect_stacks(h_all), f_col, k, cfg, _PERFECT_MU)


def mm_update_imperfect(aux_vectors_all, f_col, k: int, cfg: MMConfig) -> np.ndarray:
    """One imperfect-CSI MM iteration for user k's column.

    aux_vectors_all holds one (R*S, N) steering stack per user, as returned by
    approximate_channel_matrices.
    """
    return _single_step(aux_vectors_all, f_col, k, cfg, _IMPERFECT_MU)


def aobf_perfect_csi(scenario, cfg: MMConfig | None = None) -> tuple[BeamformerMatrix, MMReport]:
    """Design all K analog columns from exact channels.

    Each column starts at the conjugate-phase beamformer of its user's channel
    and iterates the MM update until the squared step norm drops to epsilon or
    t_max is hit.
    """
    hh = scenario.channel_matrix()
    n = hh.shape[0]
    starts = [np.exp(1j * np.angle(h)) / np.sqrt(n) for h in hh.T]
    return _design(_perfect_stacks(hh.T), starts, cfg or MMConfig(), _PERFECT_MU)


def aobf_imperfect_csi(
    cb: PolarCodebook,
    indices: list[CodewordIndex],
    r_count: int,
    s_count: int,
    cfg: MMConfig | None = None,
) -> tuple[BeamformerMatrix, MMReport]:
    """Design all K analog columns from swept codeword indices.

    Column k starts at the selected codeword, and iterates the MM update on
    steering vectors at the R x S auxiliary points of each user's cell. Fully
    deterministic given inputs.
    """
    grids: list[AuxiliaryGrid] = [
        auxiliary_points(cb, idx, r_count, s_count) for idx in indices
    ]
    stacks = approximate_channel_matrices(cb, grids)
    starts = [cb.codeword(idx).copy() for idx in indices]
    return _design(stacks, starts, cfg or MMConfig(), _IMPERFECT_MU)
