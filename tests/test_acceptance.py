"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS/FAIL line with the measured quantities, then
asserts the criterion at its stated tolerance. Criteria 1 and 2 share a single
100-scenario design run; the Monte Carlo criteria (5, 6, 7, 9) each run their
own seeded experiment at desk scale.
"""

import time

import numpy as np

from nfbf.channel import random_scenario
from nfbf.codebook import CodewordIndex, beam_sweep, build_codebook
from nfbf.geometry import ArrayConfig, PolarCoord, element_distances
from nfbf.harness import SCHEMES, ExperimentSpec, PatternSpec, run_beam_pattern, run_experiment
from nfbf.mm import MMConfig, aobf_perfect_csi
from oracles import mm_update_perfect
from nfbf.selftest import run_selftest

_CACHE = {}


def _descent_run():
    """100 seeded perfect-CSI designs shared by criteria 1 and 2."""
    if "descent" not in _CACHE:
        cfg = ArrayConfig(n_bs=64)
        mm = MMConfig(omega=1000.0, epsilon=1e-9, t_max=1000)
        traces = []
        converged = []
        t0 = time.monotonic()
        for seed in range(100):
            sc = random_scenario(cfg, 4, 3, seed=seed)
            _, rep = aobf_perfect_csi(sc, mm)
            traces.extend(rep.objective_trace)
            converged.extend(rep.converged)
        _CACHE["descent"] = (traces, converged, time.monotonic() - t0)
    return _CACHE["descent"]


def test_criterion_1_mm_descent():
    traces, _, dt = _descent_run()
    worst = -np.inf
    for trace in traces:
        scale = np.maximum(1.0, np.abs(trace[:-1]))
        worst = max(worst, float(np.max(np.diff(trace) / scale)))
    ok = worst <= 1e-9 and dt < 120.0
    print(
        f"criterion 1 (MM descent): {'PASS' if ok else 'FAIL'} - worst relative "
        f"increase {worst:.3e} over {len(traces)} traces, runtime {dt:.1f}s"
    )
    assert worst <= 1e-9
    assert dt < 120.0


def test_criterion_2_convergence_rate():
    _, converged, _ = _descent_run()
    frac = float(np.mean(converged))
    ok = frac >= 0.95
    print(
        f"criterion 2 (convergence): {'PASS' if ok else 'FAIL'} - "
        f"{100.0 * frac:.2f}% of {len(converged)} user optimizations converged"
    )
    assert frac >= 0.95


def test_criterion_3_constant_modulus_selftest():
    results = run_selftest(seed=0)
    failed = [r.name for r in results if not r.ok]
    ok = not failed
    print(
        f"criterion 3 (constant modulus / selftest): {'PASS' if ok else 'FAIL'} - "
        f"{len(results) - len(failed)}/{len(results)} checks passed"
        + (f", failed: {failed}" if failed else "")
    )
    assert not failed


def test_criterion_4_beam_pattern_gains():
    spec = PatternSpec(schemes=("aobf-perfect", "steer-perfect"), n_bs=64)
    res = run_beam_pattern(spec)
    a = res.gains_db("aobf-perfect")
    s = res.gains_db("steer-perfect")
    k = a.shape[0]
    diag = np.eye(k, dtype=bool)

    # Steering does not null: each single-path user's steering beam is its own
    # near-field steering vector, so its leakage at another user is exactly the
    # squared cross-coherence of the two vectors. Build them from Cartesian
    # distances to a half-wavelength-spaced array (the spec default),
    # independently of nfbf.geometry and nfbf.metrics.
    lam = spec.wavelength
    xs = (np.arange(spec.n_bs) - (spec.n_bs - 1) / 2.0) * lam / 2.0
    u = np.empty((spec.n_bs, k), dtype=complex)
    for col, (a_deg, r_lam) in enumerate(spec.locations):
        ang, r = np.deg2rad(a_deg), r_lam * lam
        dist = np.hypot(r * np.sin(ang) - xs, r * np.cos(ang))
        u[:, col] = np.exp(-2j * np.pi * dist / lam) / np.sqrt(spec.n_bs)
    coherence_db = 10.0 * np.log10(np.abs(u.conj().T @ u) ** 2)
    oracle_dev = float(np.max(np.abs(s[~diag] - coherence_db.T[~diag])))
    contrast = float(np.min(s[~diag]) - np.max(a[~diag]))

    checks = {
        "aobf target >= -0.1 dB": float(np.min(a[diag])) >= -0.1,
        "aobf non-target <= -25 dB": float(np.max(a[~diag])) <= -25.0,
        "steer target >= -0.01 dB": float(np.min(s[diag])) >= -0.01,
        "steer non-target == coherence floor within 1e-6 dB": oracle_dev <= 1e-6,
        "steer non-target min >= aobf non-target max + 5 dB": contrast >= 5.0,
    }
    ok = all(checks.values())
    detail = (
        f"aobf diag min {np.min(a[diag]):.3f} dB, offdiag max {np.max(a[~diag]):.3f} dB; "
        f"steer diag min {np.min(s[diag]):.4f} dB, offdiag min {np.min(s[~diag]):.3f} dB; "
        f"steer vs coherence oracle max dev {oracle_dev:.1e} dB, "
        f"steer-over-aobf contrast {contrast:.1f} dB"
    )
    failed = [name for name, good in checks.items() if not good]
    print(
        f"criterion 4 (beam pattern): {'PASS' if ok else 'FAIL'} - {detail}"
        + (f"; failed: {failed}" if failed else "")
    )
    assert ok, f"failed subchecks: {failed} ({detail})"


def test_criterion_5_sum_rate_ordering():
    spec = ExperimentSpec(
        experiment="sumrate-vs-snr",
        schemes=(
            "aobf-perfect",
            "hbf-wmmse-perfect",
            "aobf-imperfect",
            "steer-imperfect",
        ),
        trials=200,
        sweep=(20.0,),
    )
    t0 = time.monotonic()
    table = run_experiment(spec)
    dt = time.monotonic() - t0
    wmmse = table.value(20.0, "hbf-wmmse-perfect", "sum_rate").mean
    aobf = table.value(20.0, "aobf-perfect", "sum_rate").mean
    aobf_i = table.value(20.0, "aobf-imperfect", "sum_rate").mean
    steer_i = table.value(20.0, "steer-imperfect", "sum_rate").mean
    ok = (
        wmmse >= aobf >= 0.9 * wmmse
        and aobf_i >= 1.15 * steer_i
        and dt < 600.0
    )
    print(
        f"criterion 5 (sum-rate ordering): {'PASS' if ok else 'FAIL'} - "
        f"wmmse-p {wmmse:.3f}, aobf-p {aobf:.3f} (ratio {aobf / wmmse:.3f}), "
        f"aobf-i {aobf_i:.3f}, steer-i {steer_i:.3f} "
        f"(ratio {aobf_i / steer_i:.3f}), runtime {dt:.1f}s"
    )
    assert wmmse >= aobf
    assert aobf >= 0.9 * wmmse
    assert aobf_i >= 1.15 * steer_i
    assert dt < 600.0


def test_criterion_6_energy_efficiency():
    spec = ExperimentSpec(
        experiment="ee-vs-snr",
        schemes=("aobf-imperfect", "hbf-wmmse-imperfect", "steer-imperfect"),
        trials=200,
        sweep=(10.0,),
    )
    table = run_experiment(spec)
    ee_aobf = table.value(10.0, "aobf-imperfect", "energy_efficiency").mean
    ee_wmmse = table.value(10.0, "hbf-wmmse-imperfect", "energy_efficiency").mean
    ee_steer = table.value(10.0, "steer-imperfect", "energy_efficiency").mean
    ok = ee_aobf >= 1.05 * ee_wmmse and ee_aobf >= 1.15 * ee_steer
    print(
        f"criterion 6 (energy efficiency): {'PASS' if ok else 'FAIL'} - "
        f"aobf-i {ee_aobf:.4f}, wmmse-i {ee_wmmse:.4f} "
        f"(ratio {ee_aobf / ee_wmmse:.3f}), steer-i {ee_steer:.4f} "
        f"(ratio {ee_aobf / ee_steer:.3f}) bits/s/Hz/W"
    )
    assert ee_aobf >= 1.05 * ee_wmmse
    assert ee_aobf >= 1.15 * ee_steer


def test_criterion_7_auxiliary_point_plateau():
    spec = ExperimentSpec(
        experiment="aux-sweep",
        schemes=("aobf-imperfect",),
        trials=200,
        sweep=(1, 4, 6),
    )
    table = run_experiment(spec)
    r1 = table.value(1, "aobf-imperfect", "sum_rate")
    r4 = table.value(4, "aobf-imperfect", "sum_rate")
    r6 = table.value(6, "aobf-imperfect", "sum_rate")
    gain_margin = 2.0 * np.hypot(r1.stderr, r4.stderr)
    flat_margin = 2.0 * np.hypot(r4.stderr, r6.stderr)
    grows = r4.mean - r1.mean >= gain_margin
    flat = abs(r6.mean - r4.mean) < flat_margin
    ok = grows and flat
    print(
        f"criterion 7 (auxiliary plateau): {'PASS' if ok else 'FAIL'} - "
        f"R=S=1: {r1.mean:.3f}, R=S=4: {r4.mean:.3f}, R=S=6: {r6.mean:.3f}; "
        f"gain {r4.mean - r1.mean:.3f} vs margin {gain_margin:.3f}, "
        f"step {abs(r6.mean - r4.mean):.3f} vs margin {flat_margin:.3f}"
    )
    assert grows
    assert flat


def test_criterion_8_oracle_equivalences():
    # (a) beam sweeping equals exhaustive first-max scoring on 100 channels
    cfg = ArrayConfig(n_bs=16)
    cb = build_codebook(cfg, n_dis=20)
    rng = np.random.default_rng(2024)
    sweep_ok = True
    every = [CodewordIndex(p, q) for p in range(1, 17) for q in range(1, 21)]
    words = dict(zip(every, cb.codewords_at(every)))
    for _ in range(100):
        h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        best, best_idx = -1.0, None
        for p in range(1, 17):
            for q in range(1, 21):
                score = abs(np.vdot(h, words[CodewordIndex(p, q)]))
                if score > best:
                    best, best_idx = score, CodewordIndex(p, q)
        if beam_sweep(cb, h) != best_idx:
            sweep_ok = False
            break

    # (b) closed-form element distance equals the Cartesian oracle
    dist_err = 0.0
    for _ in range(100):
        n = int(rng.choice([8, 64]))
        lam = float(rng.choice([1.0, 0.01]))
        c = ArrayConfig(n_bs=n, wavelength=lam)
        loc = PolarCoord(
            float(rng.uniform(-np.pi / 2, np.pi / 2)),
            float(rng.uniform(3.0 * lam, 3000.0 * lam)),
        )
        got = element_distances(c, loc.angle, loc.radius)
        x, y = loc.radius * np.sin(loc.angle), loc.radius * np.cos(loc.angle)
        xs = c.spacing * c.offsets()
        want = np.hypot(x - xs, y)
        dist_err = max(
            dist_err, float(np.max(np.abs(got - want) / np.maximum(1.0, want)))
        )
    dist_ok = dist_err <= 1e-12

    # (c) the closed-form update matches a 720-point separable grid search
    grid = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)) / np.sqrt(3.0)
    step_ok = True
    worst_gap = 0.0
    for _ in range(50):
        h_all = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(2)]
        f = np.exp(1j * rng.uniform(0, 2 * np.pi, 3)) / np.sqrt(3.0)
        got = mm_update_perfect(h_all, f, 0, MMConfig(omega=10.0))
        g = np.outer(h_all[0], h_all[0].conj()) - 10.0 * np.outer(
            h_all[1], h_all[1].conj()
        ) + 10.0 * float(np.linalg.norm(h_all[1]) ** 2) * np.eye(3)
        gf = g @ f
        for n in range(3):
            best = np.max(np.real(np.conj(grid) * gf[n]))
            gap = best - float(np.real(np.conj(got[n]) * gf[n]))
            worst_gap = max(worst_gap, gap)
            if gap > 1e-12:
                step_ok = False
    ok = sweep_ok and dist_ok and step_ok
    print(
        f"criterion 8 (oracle equivalences): {'PASS' if ok else 'FAIL'} - "
        f"sweep {'ok' if sweep_ok else 'MISMATCH'}, "
        f"distance max rel err {dist_err:.2e}, "
        f"grid-search gap {worst_gap:.2e}"
    )
    assert sweep_ok
    assert dist_ok
    assert step_ok


def test_criterion_9_nbs_monotonic():
    spec = ExperimentSpec(
        experiment="sumrate-vs-nbs",
        schemes=SCHEMES,
        trials=50,
        sweep=(16, 32, 64),
    )
    table = run_experiment(spec)
    bad = []
    means = {}
    for scheme in SCHEMES:
        m = [table.value(v, scheme, "sum_rate").mean for v in (16, 32, 64)]
        means[scheme] = m
        if not (m[0] < m[1] < m[2]):
            bad.append(scheme)
    ok = not bad
    summary = "; ".join(
        f"{s}: {means[s][0]:.2f}<{means[s][1]:.2f}<{means[s][2]:.2f}" for s in SCHEMES
    )
    print(
        f"criterion 9 (antenna-count trend): {'PASS' if ok else 'FAIL'} - {summary}"
        + (f"; non-monotone: {bad}" if bad else "")
    )
    assert not bad
