"""Invariant suite runnable from the CLI.

Each check exercises one module's contracts on seeded random inputs and
validates every beamformer it emits (constant modulus for analog matrices,
unit column norms for hybrid composites). run_selftest returns the per-check
results; the CLI turns them into an exit status.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import random_scenario
from .codebook import CodewordIndex, auxiliary_points, beam_sweep, build_codebook
from .geometry import (
    ArrayConfig,
    element_distances,
    farfield_steering,
    rayleigh_distance,
    steering_matrix,
)
from . import hbf, mm
from .harness import ExperimentSpec, run_experiment
from .hbf import analog_beam_steering, effective_channel, hbf_wmmse, hbf_zf
from .metrics import beam_pattern_grid, sum_rate
from .mm import MMConfig, aobf_imperfect_csi, aobf_perfect_csi

MODULUS_TOL = 1e-9


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        suffix = f": {self.detail}" if self.detail else ""
        return f"{status:4s} {self.name}{suffix}"


def _check_distance_oracle(rng) -> str:
    cfg = ArrayConfig(n_bs=16)
    g = cfg.spacing * cfg.offsets()
    for _ in range(200):
        angle, radius = rng.uniform(-np.pi / 2, np.pi / 2), rng.uniform(1.0, 200.0)
        x, y = radius * np.sin(angle), radius * np.cos(angle)
        want = np.hypot(x - g, y)
        got = element_distances(cfg, angle, radius)
        if np.max(np.abs(got - want) / np.maximum(1.0, want)) > 1e-12:
            return f"distance mismatch at ({angle}, {radius})"
    return ""


def _check_steering_invariants(rng) -> str:
    cfg = ArrayConfig(n_bs=32)
    angles = rng.uniform(-np.pi / 2, np.pi / 2, 50)
    u = steering_matrix(cfg, angles, rng.uniform(1.0, 500.0, 50))
    if np.max(np.abs(np.linalg.norm(u, axis=-1) - 1.0)) > 1e-12:
        return "near-field norm off"
    if np.max(np.abs(np.abs(u) - 1.0 / np.sqrt(cfg.n_bs))) > 1e-12:
        return "near-field modulus off"
    for angle in angles:
        if abs(np.linalg.norm(farfield_steering(cfg, angle)) - 1.0) > 1e-12:
            return "far-field norm off"
    u = steering_matrix(cfg, 0.3, 1e4 * rayleigh_distance(cfg))
    v = farfield_steering(cfg, 0.3)
    phase = np.angle(u * v.conj())
    if np.max(np.abs(phase - phase.mean())) > 1e-3:
        return "near/far asymptote off"
    return ""


def _check_codebook_self_selection(rng) -> str:
    cfg = ArrayConfig(n_bs=8)
    cb = build_codebook(cfg, n_dis=6, beta=1.6)
    indices = [CodewordIndex(p, q) for p in range(1, cfg.n_bs + 1) for q in range(1, cb.n_dis + 1)]
    for idx, word in zip(indices, cb.codewords_at(indices)):
        got = beam_sweep(cb, np.sqrt(cfg.n_bs) * word)
        if got != idx:
            return f"self-selection failed at {idx}: got {got}"
    return ""


def _check_codebook_mirror(rng) -> str:
    # the sweep basis holds bins 1..ceil(N/2) as sums and differences of each
    # codeword with its reverse, which stands for bins ceil(N/2)+1..N only where
    # this install's sin and arcsin are odd: every basis entry must lie within
    # its bound of the sum or difference of one whole-grid steering call, each
    # codeword must be that grid's row bit for bit, and the sweep must pick what
    # a sweep of the grid picks
    for n in (64, 63):
        cfg = ArrayConfig(n_bs=n)
        cb = build_codebook(cfg, n_dis=40, beta=1.6)
        whole = steering_matrix(cfg, cb.angles[:, None], cb.radii)
        half, pairs = (n + 1) // 2, n // 2
        # antenna-major, as the basis stores them
        v, rev = np.moveaxis(whole[:half], -1, 0), np.moveaxis(whole[:half, :, ::-1], -1, 0)
        tol = cb.basis_error * 2.0 / np.sqrt(n)
        if not np.max(np.abs(cb.sums - (v[:half] + rev[:half]))) <= tol:
            return f"basis sums of N = {n} stray beyond their bound from the whole grid's"
        if not np.max(np.abs(cb.diffs - (v[:pairs] - rev[:pairs]))) <= tol:
            return f"basis differences of N = {n} stray beyond their bound from the whole grid's"
        if not np.array_equal(whole[half:], whole[: n - half][::-1, :, ::-1]):
            return f"bins {half + 1}..{n} of N = {n} are not their mirrors reversed"
        picked = [CodewordIndex(p, q) for p in (1, half, half + 1, 40, n) for q in (1, 17, 40)]
        for idx, word in zip(picked, cb.codewords_at(picked)):
            if not np.array_equal(word, whole[idx.p - 1, idx.q - 1]):
                return f"codeword ({idx.p}, {idx.q}) of N = {n} differs from the whole grid's"
        flat = whole.reshape(-1, n)
        for seed in range(3):
            for u in random_scenario(cfg, 4, 3, seed=seed).users:
                best = int(np.argmax(np.abs(flat @ u.vector.conj())))
                want = CodewordIndex(best // cb.n_dis + 1, best % cb.n_dis + 1)
                got = beam_sweep(cb, u.vector)
                if got != want:
                    return f"sweep at N = {n} picked {got}, the whole grid's sweep {want}"
    return ""


def _check_aux_intervals(rng) -> str:
    cfg = ArrayConfig(n_bs=16)
    cb = build_codebook(cfg, n_dis=8, beta=1.6)
    c_of = cfg.n_bs**2 * cfg.spacing**2 / (2.0 * cb.beta**2 * cfg.wavelength)
    for q in range(2, cb.n_dis):
        grid = auxiliary_points(cb, CodewordIndex(5, q), 3, 4)
        for r in range(3):
            cell = c_of * (1.0 - np.sin(grid.angles[r]) ** 2)
            v = grid.radii[r] / cell  # recovered 1/q_hat values
            if not np.all((v > 1.0 / (q + 1)) & (v < 1.0 / (q - 1))):
                return f"aux reciprocal out of cell at q={q}"
    return ""


def _check_channel_determinism(rng) -> str:
    cfg = ArrayConfig(n_bs=16)
    a = random_scenario(cfg, 3, 2, seed=123)
    b = random_scenario(cfg, 3, 2, seed=123)
    for ua, ub in zip(a.users, b.users):
        if not np.array_equal(ua.vector, ub.vector):
            return "same seed produced different channels"
    return ""


def _check_metric_invariants(rng) -> str:
    cfg = ArrayConfig(n_bs=8)
    scen = random_scenario(cfg, 3, 2, seed=7)
    f, _ = aobf_perfect_csi(scen, MMConfig(t_max=50))
    base = sum_rate(scen, f, 1.0, 0.01)
    rot = f.matrix * np.exp(1j * 0.7)
    if abs(sum_rate(scen, rot, 1.0, 0.01) - base) > 1e-9:
        return "sum rate not phase invariant"
    # 50 unit-norm columns, each its own (N, 1) beamformer of one stack
    cols = rng.standard_normal((50, cfg.n_bs, 1)) + 1j * rng.standard_normal((50, cfg.n_bs, 1))
    cols /= np.linalg.norm(cols, axis=1, keepdims=True)
    gains = beam_pattern_grid(cfg, cols, rng.uniform(-np.pi / 2, np.pi / 2, 10),
                              rng.uniform(1.0, 30.0, 10))
    if np.max(gains) > 1.0 + 1e-12:
        return "beam gain above 1"
    return ""


def _check_mm_descent(rng) -> str:
    # the 5 seeds run as one batch per regime; each seed's columns, counts and
    # traces must equal that seed designed alone, bit for bit
    cfg = ArrayConfig(n_bs=16)
    mm = MMConfig()
    cb = build_codebook(cfg, n_dis=16, beta=1.6)
    scens = [random_scenario(cfg, 3, 2, seed=seed) for seed in range(5)]
    idx = [[beam_sweep(cb, u.vector) for u in scen.users] for scen in scens]
    regimes = {
        "perfect": (aobf_perfect_csi(scens, mm), [aobf_perfect_csi(s, mm) for s in scens]),
        "imperfect": (aobf_imperfect_csi(cb, idx, 2, 2, mm),
                      [aobf_imperfect_csi(cb, i, 2, 2, mm) for i in idx]),
    }
    for regime, ((f, rep), alone) in regimes.items():
        f.validate(MODULUS_TOL)
        for col, tr in enumerate(rep.objective_trace):
            rises = np.diff(tr) > 1e-9 * np.abs(tr[:-1])
            if np.any(rises):
                return f"{regime}-CSI objective rose (seed {col // 3})"
        for seed, (fa, repa) in enumerate(alone):
            cols = slice(3 * seed, 3 * seed + 3)
            same = (np.array_equal(f.matrix[:, cols], fa.matrix)
                    and rep.iterations_used[cols] == repa.iterations_used
                    and rep.converged[cols] == repa.converged
                    and all(map(np.array_equal, rep.objective_trace[cols], repa.objective_trace)))
            if not same:
                return f"{regime}-CSI batch differs from seed {seed} designed alone"
    return ""


def _check_mm_product_forms(rng) -> str:
    # N = 16 <= K R S = 48 takes the dense form; its (low, gf) must match the
    # low-rank product of the same rows within 1e-12
    t_count, k_users, rs, n = 3, 3, 16, 16
    shape = (t_count, k_users, rs, n)
    rows = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2 * n)
    f = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (t_count, n, k_users))) / np.sqrt(n)
    product = mm._UpdateProduct(rows, 1000.0, mm._imperfect_mu)
    if product.dense is None:
        return "N = 16, K R S = 48 did not take the dense form"
    stack = rows.reshape(t_count, k_users * rs, n)
    low = stack.mT @ (product.weights * (stack.conj() @ f))
    for name, got, want in zip(("low", "gf"), product(f), (low, low + f * product.shift)):
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        if err > 1e-12:
            return f"dense and low-rank {name} differ by {err:.1e} relative"
    return ""


def _check_hbf_invariants(rng) -> str:
    # the 5 seeds' WMMSE problems run as one batch; every step must go through
    # the power-limited precoder and meet the budget where the unconstrained
    # solution exceeds it, and each seed's composite, count, flag and trace
    # must equal that seed solved alone, bit for bit
    cfg = ArrayConfig(n_bs=16)
    scens = [random_scenario(cfg, 3, 2, seed=seed) for seed in range(5)]
    analog = [analog_beam_steering("perfect", scenario=scen) for scen in scens]
    effs = [effective_channel(f_ab, scen) for f_ab, scen in zip(analog, scens)]
    solve, limited = hbf._power_limited_precoder, []

    def record(a_mat, b, c, budget):
        v, steps = solve(a_mat, b, c, budget)
        free = np.linalg.pinv(a_mat, hermitian=True) @ c
        limited.append((hbf._precoder_power(v, b).sum(axis=-1),
                        hbf._precoder_power(free, b).sum(axis=-1), budget))
        return v, steps

    hbf._power_limited_precoder = record
    try:
        batch, batch_rep = hbf_wmmse(analog, effs, 1.0, 0.1)
    finally:
        hbf._power_limited_precoder = solve
    if len(limited) != max(r.iterations_used for r in batch_rep.reports):
        return "a WMMSE step did not go through the power-limited precoder"
    for power, free_power, budget in limited:
        miss = np.max(np.where(free_power > budget, np.abs(power - budget), power - budget))
        if miss > 1e-12 * budget:
            return f"WMMSE step missed its budget by {miss / budget:.1e} relative"
    batch.composite.validate(MODULUS_TOL)
    for seed, (scen, f_ab, eff, one, one_rep) in enumerate(
            zip(scens, analog, effs, batch.composite.split(len(scens)), batch_rep.reports)):
        f_ab.validate(MODULUS_TOL)
        zf = hbf_zf(f_ab, eff)
        zf.composite.validate(MODULUS_TOL)
        hh = scen.channel_matrix()
        cross = hh.conj().T @ zf.composite.matrix
        signal = np.min(np.abs(np.diag(cross)) ** 2)
        worst = np.max(np.abs(cross - np.diag(np.diag(cross))) ** 2)
        if worst > 1e-9 * signal:
            return f"ZF leakage too high (seed {seed})"
        wm, alone_rep = hbf_wmmse([f_ab], [eff], 1.0, 0.1)
        (rep,) = alone_rep.reports
        wm.composite.validate(MODULUS_TOL)
        if np.any(np.diff(rep.sumrate_trace) < -1e-9):
            return f"WMMSE trace decreased (seed {seed})"
        same = (np.array_equal(one.matrix, wm.composite.matrix)
                and one_rep.iterations_used == rep.iterations_used
                and one_rep.converged == rep.converged
                and np.array_equal(one_rep.sumrate_trace, rep.sumrate_trace))
        if not same:
            return f"WMMSE batch differs from seed {seed} solved alone"
    return ""


def _check_all_schemes_emit_valid_beamformers(rng) -> str:
    # the harness validates every emitted beamformer before computing metrics,
    # so a clean run certifies the constant-modulus / unit-norm invariants
    spec = ExperimentSpec(
        experiment="sumrate-vs-snr",
        trials=2,
        sweep=(10.0, 20.0),
        n_bs=16,
        k=3,
        l=2,
        n_dis=40,
        base_seed=3,
    )
    a = run_experiment(spec).to_csv()
    b = run_experiment(spec).to_csv()
    if a != b:
        return "harness output not deterministic"
    return ""


# every check, in the order run_selftest runs them: (name, check of an rng,
# returning "" or what failed)
CHECKS = (
    ("geometry-distance-oracle", _check_distance_oracle),
    ("geometry-steering-invariants", _check_steering_invariants),
    ("codebook-self-selection", _check_codebook_self_selection),
    ("codebook-mirror", _check_codebook_mirror),
    ("codebook-aux-intervals", _check_aux_intervals),
    ("channel-determinism", _check_channel_determinism),
    ("metrics-invariants", _check_metric_invariants),
    ("mm-descent-and-modulus", _check_mm_descent),
    ("mm-product-forms", _check_mm_product_forms),
    ("hbf-invariants", _check_hbf_invariants),
    ("harness-all-schemes-deterministic", _check_all_schemes_emit_valid_beamformers),
)


def run_selftest(seed: int = 0) -> list[CheckResult]:
    """Run every check of CHECKS; returns one result per check."""
    rng = np.random.default_rng(seed)
    results = []
    for name, fn in CHECKS:
        try:
            detail = fn(rng)
        except Exception as exc:  # a crash is a failed check, not a crashed suite
            detail = f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, ok=not detail, detail=detail))
    return results
