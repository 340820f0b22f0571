"""Reference functions the tests check the package against.

sinr reads one user's SINR off the metrics module's gain product, so that
hand-computed cases check that product user by user. The MM functions take
one update of one user's column through the engine's first K-wide product, and
evaluate a user's design objective by a per-user loop: the oracles of the
batched designs in nfbf.mm.
"""

import numpy as np

from nfbf.metrics import _matrix_of, _sinrs
from nfbf.mm import MMConfig, _imperfect_mu, _perfect_mu, _project, _UpdateProduct


def sinr(scenario, f, k: int, p: float, sigma2: float) -> float:
    """(P/K)|h_k^H f_k|^2 / ((P/K) sum_{i != k} |h_k^H f_i|^2 + sigma2)."""
    return float(_sinrs(scenario.channel_matrix(), _matrix_of(f), p, sigma2)[k])


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


def _single_step(stacks, f_col, k: int, cfg: MMConfig, mu_rule) -> np.ndarray:
    """One update of user k's column through a design's first K-wide product.

    Every column of a one-trial batch holds f_col and column k is returned, so
    the result is bit-equal to column k of a design's first iteration from f_col.
    """
    stacks = _checked_stacks(stacks, k)
    product = _UpdateProduct(np.stack(stacks)[None], cfg.omega, mu_rule)
    f = np.repeat(np.asarray(f_col, dtype=complex)[None, :, None], len(stacks), axis=2)
    _, gf = product(f)
    return _project(gf, f)[0, :, k]


def mm_update_perfect(h_all, f_col, k: int, cfg: MMConfig) -> np.ndarray:
    """One perfect-CSI MM iteration for user k's column."""
    return _single_step(_perfect_stacks(h_all), f_col, k, cfg, _perfect_mu)


def mm_update_imperfect(aux_vectors_all, f_col, k: int, cfg: MMConfig) -> np.ndarray:
    """One imperfect-CSI MM iteration for user k's column.

    aux_vectors_all holds one (R*S, N) steering stack per user, as returned by
    approximate_channel_matrices.
    """
    return _single_step(aux_vectors_all, f_col, k, cfg, _imperfect_mu)
