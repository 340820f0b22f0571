"""Constant-modulus beamformer design by majorization-minimization.

Per user k the design minimizes a leakage-regularized objective
-sum |u^H f|^2 + omega * (same sum over the other users' rows) over
unit-modulus-entry vectors, where each user is represented by a stack of rows
U_k. Each iteration majorizes the objective by a linear surrogate and
minimizes it in closed form: f <- (G f) / (sqrt(N) |G f|) entrywise, with
G = U_k^T U_k^* - omega (Z_k - mu I), Z_k the interference matrix
sum_{i != k} U_i^T U_i^* and mu a constant that certifies the surrogate.

One engine serves both regimes. Perfect CSI gives each user the single row
h_k^T and starts at the conjugate-phase beamformer; imperfect CSI gives each
user the steering vectors at the auxiliary points around its swept codeword
and starts at that codeword. The regimes differ only in these rows, the
starting columns and the rule for mu.

All K columns iterate together on one stack U of every user's rows:
G F = U^T (W o (U^* F)) + F diag(omega mu), with W[r, k] = 1 on user k's rows
and -omega elsewhere. No N x N matrix is formed, and an iteration costs about
2 K (sum R) N multiply-adds in two matrix products. A column leaves the batch
once it converges. The loop reads the objective trace off the low-rank part
of that product: obj(f) = omega mu ||f||^2 - Re(f^H G f) = -Re(f^H U^T (W o U^* f)),
so no term of size omega mu is subtracted.
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
    one value per iteration of user k's column, so its length is
    iterations_used[k] + 1. The columns iterate as one batch, and a converged
    column leaves it, so none of these fields depends on the other users'
    iteration counts. With spectral mu the trace is nonincreasing.
    """

    iterations_used: list[int] = field(default_factory=list)
    objective_trace: list[np.ndarray] = field(default_factory=list)
    converged: list[bool] = field(default_factory=list)


def _row_power(u: np.ndarray) -> float:
    return float(np.sum(np.abs(u) ** 2))


def _top_gram_eigenvalue(rows: np.ndarray) -> float:
    """Largest eigenvalue of Z = V^T V^* for the (M, N) row stack V.

    Z and the (M, M) Gram V^* V^T share their nonzero eigenvalues, so the
    smaller of the two is decomposed: with fewer rows than N no N x N matrix
    is formed.
    """
    m, n = rows.shape
    gram = rows.conj() @ rows.T if m < n else rows.T @ rows.conj()
    return float(np.linalg.eigvalsh(gram)[-1])


# mu rules: the other users' row stacks -> mu
_PERFECT_MU = {
    MU_SPECTRAL: lambda others: sum(_row_power(u) for u in others),
    MU_PAPER_EXACT: lambda others: max(_row_power(u) for u in others) * len(others),
}
_IMPERFECT_MU = {
    MU_SPECTRAL: lambda others: _top_gram_eigenvalue(np.concatenate(others)),
    MU_PAPER_EXACT: lambda others: sum(u.shape[0] for u in others) / others[0].shape[1],
}


class _UpdateProduct:
    """Every user's G_k f_k at once, from one stack of all users' rows.

    With U the (sum R, N) concatenation of the per-user stacks and W[r, k] = 1
    where row r is user k's and -omega otherwise,
    G F = U^T (W o (U^* F)) + F diag(omega mu), column k being G_k f_k; no
    N x N matrix is formed. Columns are selected by passing the matching
    columns of weights and shift.
    """

    def __init__(self, stacks: list[np.ndarray], omega: float, mu_rule):
        rows = np.concatenate(stacks)
        owner = np.repeat(np.arange(len(stacks)), [u.shape[0] for u in stacks])
        self.rows_conj = rows.conj()
        self.rows_t = rows.T
        own = owner[:, None] == np.arange(len(stacks))
        # complex, so the product's elementwise step casts nothing
        self.weights = np.where(own, 1.0, -omega).astype(complex)
        # mu = 0 without interferers
        mu = [mu_rule([u for i, u in enumerate(stacks) if i != k]) if len(stacks) > 1 else 0.0
              for k in range(len(stacks))]
        self.shift = omega * np.array(mu)

    def __call__(self, f: np.ndarray, weights: np.ndarray, shift: np.ndarray) -> tuple:
        """(G F - F diag(omega mu), G F) for the columns f."""
        low = self.rows_t @ (weights * (self.rows_conj @ f))
        return low, low + f * shift


def _project(gf: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Closed-form surrogate minimizer: the unit phases of G f, scaled to 1/sqrt(N).

    Entries where (G f) is exactly zero keep the previous entry (any phase is
    optimal there; retention keeps the update deterministic).
    """
    mag = np.abs(gf)
    out = f.astype(complex)
    np.divide(gf, mag * np.sqrt(f.shape[0]), out=out, where=mag > 0)
    return out


def _column_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(a_k^H b_k) for every column k."""
    return np.einsum("ij,ij->j", a.conj(), b).real


def _design(stacks: list[np.ndarray], starts: list[np.ndarray], cfg: MMConfig,
            mu_rules: dict) -> tuple[BeamformerMatrix, MMReport]:
    """Iterate every user's column together from its start.

    A column leaves the batch once its squared step is <= epsilon, so its
    iteration count, trace and returned value are its own.
    """
    product = _UpdateProduct(stacks, cfg.omega, mu_rules[cfg.mu_mode])
    cols = np.stack(starts, axis=1).astype(complex)
    k_users = cols.shape[1]
    used = np.full(k_users, cfg.t_max)
    converged = np.zeros(k_users, dtype=bool)
    # the active columns and their slices of the product's inputs
    ids, f, weights, shift = np.arange(k_users), cols, product.weights, product.shift
    low, gf = product(f, weights, shift)
    obj = -_column_inner(f, low)
    rows = [obj]
    for t in range(1, cfg.t_max + 1):
        f_new = _project(gf, f)
        diff = f_new - f
        step = _column_inner(diff, diff)
        f = f_new
        low, gf = product(f, weights, shift)
        obj = obj.copy()
        obj[ids] = -_column_inner(f, low)
        rows.append(obj)
        if step.min() <= cfg.epsilon:
            done = step <= cfg.epsilon
            cols[:, ids[done]] = f[:, done]
            used[ids[done]] = t
            converged[ids[done]] = True
            keep = ~done
            ids, f, gf = ids[keep], f[:, keep], gf[:, keep]
            weights, shift = weights[:, keep], shift[keep]
            if not ids.size:
                break
    cols[:, ids] = f
    trace = np.array(rows)
    report = MMReport(
        iterations_used=used.tolist(),
        objective_trace=[trace[: u + 1, k].copy() for k, u in enumerate(used)],
        converged=converged.tolist(),
    )
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
    """One update of user k's column through a design's first K-wide product.

    Every column of the batch holds f_col and column k is returned, so the
    result is bit-equal to column k of a design's first iteration from f_col.
    """
    stacks = _checked_stacks(stacks, k)
    product = _UpdateProduct(stacks, cfg.omega, mu_rules[cfg.mu_mode])
    f = np.repeat(np.asarray(f_col, dtype=complex)[:, None], len(stacks), axis=1)
    _, gf = product(f, product.weights, product.shift)
    return _project(gf, f)[:, k]


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
