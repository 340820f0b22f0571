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

All K columns of a trial iterate together on one stack U of every user's
rows: G F = U^T (W o (U^* F)) + F diag(omega mu), with W[r, k] = 1 on user
k's rows and -omega elsewhere. Its low-rank part U^T (W o (U^* F)) takes
one of two forms, chosen by flop count. With R rows per user and N <= K R
(imperfect CSI at N <= K R S), each user's part L_k = U^T diag(W[:, k]) U^*
is formed once as an N x N matrix, and a column costs N^2 multiply-adds in
one matrix-vector product. Otherwise, as in every perfect-CSI design with
K < N, no N x N matrix is formed, and a column costs about 2 K R N in two
matrix products. The choice reads only N, K and R. Trials whose users have
equal row counts iterate as one (T, N, K) batch through batched matrix
products, each trial's slice its own product, so a trial's result is
bit-identical to its design alone. A converged column is masked, keeping its
own count, trace and value; a trial whose columns are all masked leaves the
batch. The loop reads the objective trace off the low-rank part of that
product: obj(f) = omega mu ||f||^2 - Re(f^H G f) = -Re(f^H U^T (W o U^* f)),
so no term of size omega mu is subtracted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import Scenario
from .codebook import (
    AuxiliaryGrid,
    CodewordIndex,
    PolarCodebook,
    approximate_channel_matrices,
    auxiliary_points,
)
from .metrics import ANALOG_ONLY, BeamformerMatrix, conjugate_phase


@dataclass(frozen=True)
class MMConfig:
    """MM loop parameters: the leakage weight omega, the squared-step stop
    epsilon and the iteration cap t_max."""

    omega: float = 1000.0
    epsilon: float = 1e-9
    t_max: int = 1000

    def __post_init__(self):
        if self.omega < 0:
            raise ValueError("omega must be nonnegative")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")


@dataclass
class MMReport:
    """Per-column diagnostics of one design run.

    Entry c is column c of the design's matrix: user k of trial t at
    c = t K + k, so a one-trial design has one entry per user.
    objective_trace[c][0] is the objective at the initial point, followed by
    one value per iteration of column c, so its length is
    iterations_used[c] + 1. The columns iterate as one batch, and a converged
    column is masked, so none of these fields depends on the other columns'
    iteration counts. Each regime's mu certifies its surrogate, so the trace
    is nonincreasing.
    """

    iterations_used: list[int] = field(default_factory=list)
    objective_trace: list[np.ndarray] = field(default_factory=list)
    converged: list[bool] = field(default_factory=list)


def _row_powers(rows: np.ndarray) -> np.ndarray:
    """(T, K) squared norm of each user's row stack in the (T, K, R, N) rows."""
    return np.sum(np.abs(rows.reshape(*rows.shape[:2], -1)) ** 2, axis=-1)


def _top_gram_eigenvalue(rows: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of Z = V^T V^* for each (M, N) row stack V in rows.

    Z and the (M, M) Gram V^* V^T share their nonzero eigenvalues, so the
    smaller of the two is decomposed: with fewer rows than N no N x N matrix
    is formed. Leading axes of rows are batch axes.
    """
    m, n = rows.shape[-2:]
    gram = rows.conj() @ rows.mT if m < n else rows.mT @ rows.conj()
    return np.linalg.eigvalsh(gram)[..., -1]


# mu rules: the (T, K-1, R, N) rows of the other users -> (T,) mu, each a
# certified majorizer of its regime's interference term
def _perfect_mu(others: np.ndarray) -> np.ndarray:
    """sum_i ||h_i||^2, the users' powers added one by one, in order."""
    return sum(_row_powers(others).T)


def _imperfect_mu(others: np.ndarray) -> np.ndarray:
    """The top eigenvalue of the interference matrix sum_i U_i^T U_i^*."""
    return _top_gram_eigenvalue(others.reshape(others.shape[0], -1, others.shape[-1]))


def _dense_form(n: int, k_users: int, r_count: int) -> bool:
    """Whether users with r_count rows each iterate on N x N matrices.

    A column costs N^2 multiply-adds on its user's matrix against about
    2 K R N in the low-rank product, but a matrix-vector product streams its
    matrix at a lower rate than the low-rank matrix products run, so the
    dense form is taken only up to N = K R. The rule reads no trial count, so
    a trial takes the same form, and gives the same bits, in any batch.
    """
    return n <= k_users * r_count


class _UpdateProduct:
    """Every user's G_k f_k at once, for every trial of a batch.

    rows is (T, K, R, N): user k of trial t has the R rows rows[t, k]. With U
    a trial's (K R, N) stack of rows and W[r, k] = 1 where row r is user k's
    and -omega otherwise, G F = U^T (W o (U^* F)) + F diag(omega mu), column k
    being G_k f_k. Where _dense_form holds, the low-rank part of each user's
    G_k is formed once, dense[t, k] = U^T diag(W[:, k]) U^*, an N x N matrix,
    and each column is one matrix-vector product; otherwise no N x N matrix
    is formed. Each trial's slice is its own matrix product, so no trial's
    columns reach another's.
    """

    def __init__(self, rows: np.ndarray, omega: float, mu_rule):
        # C order whatever the rows' layout, so every trial count takes the
        # same BLAS and SIMD paths
        rows = np.ascontiguousarray(rows)
        t_count, k_users, r_count, n = rows.shape
        stack = rows.reshape(t_count, k_users * r_count, n)
        own = np.repeat(np.arange(k_users), r_count)[:, None] == np.arange(k_users)
        # complex, so the product's elementwise step casts nothing
        self.weights = np.where(own, 1.0, -omega).astype(complex)
        # mu = 0 without interferers
        mu = [mu_rule(np.delete(rows, k, axis=1)) if k_users > 1 else np.zeros(t_count)
              for k in range(k_users)]
        self.shift = omega * np.stack(mu, axis=-1)[:, None, :]
        if _dense_form(n, k_users, r_count):
            # one trial's conjugate rows and one user's weighted copy at a time
            self.dense = np.empty((t_count, k_users, n, n), dtype=complex)
            for t in range(t_count):
                rows_conj = stack[t].conj()
                for k in range(k_users):
                    np.matmul(stack[t].mT, self.weights[:, k, None] * rows_conj,
                              out=self.dense[t, k])
        else:
            self.dense = None
            self.stack, self.rows_conj = stack, stack.conj()

    def keep(self, trials: np.ndarray) -> None:
        """Drop every trial whose entry in the boolean mask is False."""
        if self.dense is None:
            self.stack, self.rows_conj = self.stack[trials], self.rows_conj[trials]
        else:
            self.dense = self.dense[trials]
        self.shift = self.shift[trials]

    def __call__(self, f: np.ndarray) -> tuple:
        """(G F - F diag(omega mu), G F) for the (T, N, K) columns f."""
        if self.dense is None:
            low = self.stack.mT @ (self.weights * (self.rows_conj @ f))
        else:
            # one matrix-vector product per column, then back to the columns'
            # layout, so the elementwise steps run contiguous
            low = np.ascontiguousarray((self.dense @ f.mT[..., None])[..., 0].mT)
        return low, low + f * self.shift


def _project(gf: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Closed-form surrogate minimizer: the unit phases of G f, scaled to 1/sqrt(N).

    Entries where (G f) is exactly zero keep the previous entry (any phase is
    optimal there; retention keeps the update deterministic).
    """
    mag = np.abs(gf)
    if mag.all():
        return gf / (mag * np.sqrt(f.shape[-2]))
    with np.errstate(invalid="ignore"):
        out = gf / (mag * np.sqrt(f.shape[-2]))
    np.copyto(out, f, where=mag == 0)
    return out


def _design(rows: np.ndarray, starts: np.ndarray, cfg: MMConfig,
            mu_rule) -> tuple[BeamformerMatrix, MMReport]:
    """Iterate every column of every trial together from its start.

    rows is (T, K, R, N) and starts (T, N, K). A column whose squared step is
    <= epsilon is masked: its count, trace and returned value are fixed there
    while its trial's other columns iterate. A trial leaves the batch once
    all its columns are masked. The matrix is (N, T K), trial-major, and the
    report holds one entry per column in that order.
    """
    product = _UpdateProduct(rows, cfg.omega, mu_rule)
    f = np.ascontiguousarray(starts, dtype=complex)
    t_count, n, k_users = f.shape
    cols = f.copy()
    used = np.full((t_count, k_users), cfg.t_max)
    converged = np.zeros((t_count, k_users), dtype=bool)
    # a live column's step is held to epsilon, a masked one's to -1, which no step meets
    bar = np.full((t_count, k_users), float(cfg.epsilon))
    ids = np.arange(t_count)  # the trials still in the batch
    low, gf = product(f)
    rows_of_trace = [-np.vecdot(f, low, axis=-2).real]
    for t in range(1, cfg.t_max + 1):
        f_new = _project(gf, f)
        diff = f_new - f
        step = np.vecdot(diff, diff, axis=-2).real
        f = f_new
        low, gf = product(f)
        obj = -np.vecdot(f, low, axis=-2).real
        if ids.size < t_count:
            # a trial that left keeps its last values; they lie past its counts
            full = rows_of_trace[-1].copy()
            full[ids] = obj
            obj = full
        rows_of_trace.append(obj)
        done = step <= bar
        if done.any():
            trial, col = np.nonzero(done)
            cols[ids[trial], :, col] = f[trial, :, col]
            used[ids[trial], col] = t
            converged[ids[trial], col] = True
            bar[done] = -1.0
            stay = (bar >= 0).any(axis=1)
            if not stay.all():
                ids, f, gf, bar = ids[stay], f[stay], gf[stay], bar[stay]
                if not ids.size:
                    break
                product.keep(stay)
    trial, col = np.nonzero(bar >= 0)
    cols[ids[trial], :, col] = f[trial, :, col]
    trace = np.array(rows_of_trace)
    report = MMReport(
        iterations_used=used.ravel().tolist(),
        objective_trace=[trace[: u + 1, i, k].copy() for (i, k), u in np.ndenumerate(used)],
        converged=converged.ravel().tolist(),
    )
    matrix = cols.transpose(1, 0, 2).reshape(n, t_count * k_users)
    return BeamformerMatrix(matrix=matrix, kind=ANALOG_ONLY), report


def aobf_perfect_csi(scenarios, cfg: MMConfig | None = None) -> tuple[BeamformerMatrix, MMReport]:
    """Design all K analog columns of one trial, or of a batch of trials, from exact channels.

    scenarios is one Scenario, giving an (N, K) matrix, or a sequence of T
    scenarios with equal N and K, giving an (N, T K) trial-major matrix whose
    trial t equals that trial designed alone, bit for bit. Each column starts
    at the conjugate-phase beamformer of its user's channel and iterates the
    MM update until the squared step norm drops to epsilon or t_max is hit.
    """
    if isinstance(scenarios, Scenario):
        scenarios = [scenarios]
    hh = np.stack([sc.channel_matrix() for sc in scenarios])
    return _design(hh.mT[:, :, None, :], conjugate_phase(hh), cfg or MMConfig(), _perfect_mu)


def aobf_imperfect_csi(
    cb: PolarCodebook,
    indices: list,
    r_count: int,
    s_count: int,
    cfg: MMConfig | None = None,
) -> tuple[BeamformerMatrix, MMReport]:
    """Design all K analog columns of one trial, or of a batch of trials, from swept codewords.

    indices is one trial's K CodewordIndex values, giving an (N, K) matrix, or
    a sequence of T such lists of equal length, giving an (N, T K)
    trial-major matrix whose trial t equals that trial designed alone, bit
    for bit. Column k starts at the selected codeword, and iterates the MM
    update on steering vectors at the R x S auxiliary points of each user's
    cell. Fully deterministic given inputs.
    """
    trials = [indices] if not indices or isinstance(indices[0], CodewordIndex) else indices
    k_users = len(trials[0])
    if any(len(trial) != k_users for trial in trials):
        raise ValueError("every trial of a batch must have the same number of users")
    grids: list[AuxiliaryGrid] = [
        auxiliary_points(cb, idx, r_count, s_count) for trial in trials for idx in trial
    ]
    stacks = approximate_channel_matrices(cb, grids)
    rows = np.stack(stacks).reshape(len(trials), k_users, r_count * s_count, -1)
    starts = cb.codewords_at([idx for trial in trials for idx in trial])
    starts = starts.reshape(len(trials), k_users, cb.array.n_bs).mT
    return _design(rows, starts, cfg or MMConfig(), _imperfect_mu)
