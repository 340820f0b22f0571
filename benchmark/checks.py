"""Checks on nfbf's outputs, computed apart from the program.

Nothing here imports nfbf. Scenarios, steering vectors, the polar grid and the
SINR are rebuilt from the model's definitions, with element distances taken
from Cartesian coordinates (`np.hypot`), so a fault in the program's own
geometry or metrics cannot hide from them. No check compares against a stored
copy of earlier output.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

RTOL = 1e-9
# Their designs do not depend on the noise level, so their mean rate must rise with SNR.
SNR_MONOTONE_SCHEMES = (
    "aobf-perfect",
    "aobf-imperfect",
    "steer-perfect",
    "steer-imperfect",
    "hbf-zf-perfect",
)
_RHO_MIN_WAVELENGTHS = 3.0
_SCATTER_AMPLITUDE = 0.1  # scatterer paths have gain variance 0.01


def steering(n: int, wavelength: float, spacing: float, angle, radius) -> np.ndarray:
    """Near-field steering vectors, shape angle.shape + (n,), from Cartesian distances.

    Element n sits at x = spacing * (n - (N+1)/2) on the array axis; the source
    at polar (angle, radius) sits at (radius sin(angle), radius cos(angle)).
    """
    x_el = spacing * (np.arange(1, n + 1) - (n + 1) / 2.0)
    angle = np.asarray(angle, dtype=float)[..., None]
    radius = np.asarray(radius, dtype=float)[..., None]
    dist = np.hypot(radius * np.sin(angle) - x_el, radius * np.cos(angle))
    return np.exp(-2j * np.pi * dist / wavelength) / np.sqrt(n)


def scenario_channels(n: int, k: int, l: int, seed: int, wavelength: float,
                      spacing: float) -> np.ndarray:
    """(K, N) channel rows of the seeded random scenario.

    Per user: L angles uniform on [-pi/2, pi/2), L radii uniform between 3
    wavelengths and the Rayleigh distance, then L real and L imaginary gain
    parts; path 0 is CN(0, 1) and scatterers CN(0, 0.01). h = sqrt(N/L) sum of
    gain times steering vector.
    """
    rng = np.random.default_rng(seed)
    rayleigh = 2.0 * n * n * spacing * spacing / wavelength
    rows = []
    for _ in range(k):
        angles = rng.uniform(-np.pi / 2, np.pi / 2, size=l)
        radii = rng.uniform(_RHO_MIN_WAVELENGTHS * wavelength, rayleigh, size=l)
        re = rng.standard_normal(l)
        im = rng.standard_normal(l)
        gains = (re + 1j * im) / np.sqrt(2.0)
        gains[1:] *= _SCATTER_AMPLITUDE
        rows.append(np.sqrt(n / l) * (gains @ steering(n, wavelength, spacing, angles, radii)))
    return np.array(rows)


def noise_power(p: float, k: int, snr_db: float) -> float:
    """sigma^2 at which P/K over sigma^2 is the stated SNR."""
    return p / (k * 10.0 ** (snr_db / 10.0))


def sweep_points(config: dict) -> list[tuple[float, int, float]]:
    """(sweep value, antenna count, SNR in dB) for every sweep value of a config."""
    experiment = config["experiment"]
    out = []
    for v in config["sweep"]:
        n = int(v) if experiment == "sumrate-vs-nbs" else int(config["n_bs"])
        snr = float(v) if experiment == "sumrate-vs-snr" else float(config["snr_db"])
        out.append((float(v), n, snr))
    return out


def rate_bounds(config: dict, base_seed: int, trials: int) -> dict[float, float]:
    """Largest per-trial matched-filter bound at each sweep value.

    Bound of one trial: sum_k log2(1 + (P/K) ||h_k||^2 / sigma^2). Any
    beamformer whose columns have unit norm stays below it, since interference
    only lowers a user's SINR and |h^H f| <= ||h||.
    """
    k, p = int(config["k"]), float(config["p"])
    norms: dict[tuple[int, int], np.ndarray] = {}
    out = {}
    for v, n, snr in sweep_points(config):
        sigma2 = noise_power(p, k, snr)
        best = -math.inf
        for seed in range(base_seed, base_seed + trials):
            if (n, seed) not in norms:
                h = scenario_channels(n, k, int(config["l"]), seed,
                                      float(config["wavelength"]), float(config["spacing"]))
                norms[(n, seed)] = np.sum(np.abs(h) ** 2, axis=1)
            bound = float(np.sum(np.log2(1.0 + (p / k) * norms[(n, seed)] / sigma2)))
            best = max(best, bound)
        out[v] = best
    return out


def parse_csv(text: str) -> dict[tuple[float, str], tuple[float, int]]:
    """sum_rate rows of a result CSV as {(sweep, scheme): (mean, trials)}."""
    cells = {}
    for row in csv.DictReader(io.StringIO(text)):
        if row["metric"] == "sum_rate":
            cells[(float(row["sweep"]), row["scheme"])] = (float(row["mean"]), int(row["trials"]))
    return cells


def expected_cells(config: dict) -> list[tuple[float, str]]:
    return [(float(v), s) for v in config["sweep"] for s in config["schemes"]]


def check_table(config: dict, cells: dict, trials: int,
                bounds: dict[float, float]) -> dict[tuple[float, str], str]:
    """Failed cells of one result table, each with the reason.

    A cell fails when it is missing, not finite, has the wrong trial count
    (zero-forcing may drop singular trials), is not positive, exceeds the
    matched-filter bound, or, on an SNR sweep, does not rise above the cell at
    the next lower SNR for a scheme whose design ignores the noise level.
    """
    failures = {}
    for key in expected_cells(config):
        v, scheme = key
        if key not in cells:
            failures[key] = "missing"
            continue
        mean, n = cells[key]
        may_drop = scheme.startswith("hbf-zf")
        if not math.isfinite(mean):
            failures[key] = "not finite"
        elif n != trials and not (may_drop and 1 <= n < trials):
            failures[key] = f"trials {n}, expected {trials}"
        elif mean <= 0.0:
            failures[key] = f"mean {mean!r} not positive"
        elif mean > bounds[v]:
            failures[key] = f"mean {mean!r} above the matched-filter bound {bounds[v]!r}"
    if config["experiment"] == "sumrate-vs-snr":
        snrs = sorted(float(v) for v in config["sweep"])
        for scheme in SNR_MONOTONE_SCHEMES:
            if scheme not in config["schemes"]:
                continue
            for lo, hi in zip(snrs, snrs[1:]):
                a, b = cells.get((lo, scheme)), cells.get((hi, scheme))
                if a is None or b is None or (hi, scheme) in failures:
                    continue
                if not b[0] > a[0]:
                    failures[(hi, scheme)] = (
                        f"mean {b[0]!r} does not rise above {a[0]!r} at {lo} dB")
    return failures


def trace_rises(trace) -> bool:
    """True when an objective trace increases anywhere by more than RTOL relative."""
    t = np.asarray(trace, dtype=float)
    if t.size < 2:
        return False
    scale = np.maximum(np.abs(t[:-1]), np.abs(t[1:]))
    return bool(np.any(np.diff(t) > RTOL * scale))


def modulus_error(matrix) -> float:
    """Largest deviation of an entry's modulus from 1/sqrt(N)."""
    m = np.asarray(matrix)
    return float(np.max(np.abs(np.abs(m) - 1.0 / np.sqrt(m.shape[0]))))


def column_norm_error(matrix) -> float:
    """Largest deviation of a column's Euclidean norm from 1."""
    m = np.asarray(matrix)
    return float(np.max(np.abs(np.sqrt(np.sum(np.abs(m) ** 2, axis=0)) - 1.0)))


def oracle_sum_rate(channels, f, p: float, sigma2: float) -> float:
    """Sum rate from G = |H^H F|^2 with equal power P/K per stream.

    channels is (N, K) with column k user k's channel; f is (N, K).
    """
    g = np.abs(np.asarray(channels).conj().T @ np.asarray(f)) ** 2  # [k, i] = |h_k^H f_i|^2
    per_stream = p / g.shape[1]
    signal = per_stream * np.diag(g)
    interference = per_stream * np.sum(g, axis=1) - signal
    return float(np.sum(np.log2(1.0 + signal / (interference + sigma2))))


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), np.finfo(float).tiny)


def polar_grid_scores(n: int, n_dis: int, beta: float, wavelength: float, spacing: float,
                      channels, picks) -> tuple[np.ndarray, np.ndarray]:
    """Best codeword score over the whole polar grid, and the score of each pick.

    channels is (M, N), one channel per row; picks holds M 1-based (p, q)
    pairs. The grid has angle arcsin((2p - 1)/N - 1) for p = 1..N and, per
    angle, ring radii N^2 d^2 cos^2(angle) / (2 q beta^2 wavelength) for
    q = 1..n_dis. It is scored one angle at a time, so memory stays
    O(n_dis * N) even where the whole grid would not fit.
    """
    h = np.asarray(channels)
    c = n * n * spacing * spacing / (2.0 * beta * beta * wavelength)
    q = np.arange(1, n_dis + 1, dtype=float)
    best = np.zeros(h.shape[0])
    picked = np.full(h.shape[0], np.nan)
    for p in range(1, n + 1):
        angle = math.asin((2.0 * p - 1.0) / n - 1.0)
        radii = c * math.cos(angle) ** 2 / q
        words = steering(n, wavelength, spacing, np.full(n_dis, angle), radii)  # (Q, N)
        scores = np.abs(words.conj() @ h.T)  # (Q, M)
        best = np.maximum(best, scores.max(axis=0))
        for m, (pp, qq) in enumerate(picks):
            if pp == p:
                picked[m] = scores[qq - 1, m]
    return best, picked
