"""Seeded Monte Carlo experiment runner.

Experiments sweep one axis (SNR, antenna count, user count, or auxiliary grid
size), run every requested scheme on common per-trial random scenarios, and
aggregate per-scheme metric means with standard errors into a ResultTable.
Per-trial seeds are base_seed + trial index, so runs are reproducible and
sweeps share random scenarios across schemes and sweep values where the
configuration allows it.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .channel import PathComponent, Scenario, make_user_channel, random_scenario
from .codebook import PolarCodebook, beam_sweep, build_codebook
from .geometry import ArrayConfig, PolarCoord
from .hbf import (
    SingularEffectiveChannelError,
    analog_beam_steering,
    effective_channel,
    hbf_wmmse,
    hbf_zf,
)
from .metrics import (
    PowerModel,
    beam_gain,
    beam_pattern_grid,
    noise_from_snr,
    sum_rate,
    total_power,
)
from .mm import MMConfig, aobf_imperfect_csi, aobf_perfect_csi

SCHEMES = (
    "aobf-perfect",
    "aobf-imperfect",
    "steer-perfect",
    "steer-imperfect",
    "hbf-zf-perfect",
    "hbf-zf-imperfect",
    "hbf-wmmse-perfect",
    "hbf-wmmse-imperfect",
)
ANALOG_SCHEMES = frozenset(
    {"aobf-perfect", "aobf-imperfect", "steer-perfect", "steer-imperfect"}
)
EXPERIMENTS = (
    "sumrate-vs-snr",
    "sumrate-vs-nbs",
    "sumrate-vs-k",
    "ee-vs-snr",
    "beam-pattern",
    "aux-sweep",
)
DEFAULT_SNR_SWEEP = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
DEFAULT_NBS_SWEEP = (16, 32, 64)
DEFAULT_K_SWEEP = (1, 2, 4, 8)
DEFAULT_AUX_SWEEP = (1, 2, 4, 6)
DEFAULT_PATTERN_LOCATIONS = ((-23.57, 50.0), (17.46, 150.0), (-64.16, 100.0))
_EST_STREAM = 0x5EED  # fixed offset stream for estimation-noise draws
CSV_HEADER = ("sweep", "scheme", "metric", "mean", "stderr", "trials")


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one experiment run."""

    experiment: str
    schemes: tuple[str, ...] = SCHEMES
    trials: int = 200
    sweep: tuple = ()
    base_seed: int = 0
    n_bs: int = 64
    k: int = 4
    l: int = 3
    wavelength: float = 1.0
    spacing: float | None = None
    n_dis: int = 320
    beta: float = 1.6
    r_count: int = 4
    s_count: int = 4
    snr_db: float = 20.0
    p: float = 1.0
    mm: MMConfig = field(default_factory=MMConfig)
    power: PowerModel = field(default_factory=PowerModel)
    pilot_noise_factor: float = 1.0
    pattern_random_paths: bool = False
    pattern_locations: tuple = DEFAULT_PATTERN_LOCATIONS

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment: {self.experiment!r}")
        if not self.schemes:
            raise ValueError("schemes must be nonempty")
        bad = [s for s in self.schemes if s not in SCHEMES]
        if bad:
            raise ValueError(f"unknown schemes: {bad}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.k < 1 or self.l < 1:
            raise ValueError("k and l must be >= 1")

    def array_config(self, n_bs: int | None = None) -> ArrayConfig:
        return ArrayConfig(
            n_bs=self.n_bs if n_bs is None else n_bs,
            wavelength=self.wavelength,
            spacing=self.spacing,
        )


def resolved_sweep(spec: ExperimentSpec) -> tuple:
    """The sweep values actually used (spec.sweep or the experiment default)."""
    if spec.sweep:
        return tuple(spec.sweep)
    return {
        "sumrate-vs-snr": DEFAULT_SNR_SWEEP,
        "ee-vs-snr": DEFAULT_SNR_SWEEP,
        "sumrate-vs-nbs": DEFAULT_NBS_SWEEP,
        "sumrate-vs-k": DEFAULT_K_SWEEP,
        "aux-sweep": DEFAULT_AUX_SWEEP,
    }.get(spec.experiment, ())


@dataclass(frozen=True)
class ResultRow:
    sweep: float
    scheme: str
    metric: str
    mean: float
    stderr: float
    trials: int


@dataclass
class ResultTable:
    rows: list[ResultRow]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for r in self.rows:
            w.writerow([repr(r.sweep), r.scheme, r.metric, repr(r.mean), repr(r.stderr), r.trials])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            [
                {
                    "sweep": r.sweep,
                    "scheme": r.scheme,
                    "metric": r.metric,
                    "mean": r.mean,
                    "stderr": r.stderr,
                    "trials": r.trials,
                }
                for r in self.rows
            ],
            indent=2,
        )

    def value(self, sweep, scheme: str, metric: str) -> ResultRow:
        for r in self.rows:
            if r.sweep == sweep and r.scheme == scheme and r.metric == metric:
                return r
        raise KeyError((sweep, scheme, metric))


def _est_rng(seed: int) -> np.random.Generator:
    # independent stream per trial for pilot-noise draws, stable across sweeps
    return np.random.default_rng((_EST_STREAM, seed))


def _needs_codebook(schemes) -> bool:
    return any(s.endswith("-imperfect") for s in schemes)


class _TrialState:
    """Per-trial artifacts reusable across the sweep values that keep the array and K."""

    def __init__(self, spec: ExperimentSpec, scenario: Scenario, cb: PolarCodebook | None):
        self.spec = spec
        self.scenario = scenario
        self.cb = cb
        self.seed = scenario.seed
        self._cache: dict = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def indices(self):
        return self._get(
            "indices",
            lambda: [beam_sweep(self.cb, u.vector) for u in self.scenario.users],
        )

    def steering(self, csi: str):
        if csi == "perfect":
            return self._get(
                "steer-p", lambda: analog_beam_steering("perfect", scenario=self.scenario)
            )
        return self._get(
            "steer-i",
            lambda: analog_beam_steering("imperfect", cb=self.cb, indices=self.indices()),
        )

    def analog(self, scheme: str, aux: tuple[int, int]):
        """Analog-only beamformer; aux = (R, S) sizes the aobf-imperfect grid."""
        if scheme == "aobf-perfect":
            return self._get("aobf-p", lambda: aobf_perfect_csi(self.scenario, self.spec.mm)[0])
        if scheme == "aobf-imperfect":
            return self._get(
                ("aobf-i", aux),
                lambda: aobf_imperfect_csi(self.cb, self.indices(), *aux, self.spec.mm)[0],
            )
        if scheme in ("steer-perfect", "steer-imperfect"):
            return self.steering(scheme.removeprefix("steer-"))
        raise ValueError(scheme)

    def eff(self, csi: str, sigma2: float):
        """Effective channel for the hybrid schemes of one CSI regime."""
        f_ab = self.steering(csi)
        if csi == "perfect":
            return self._get("eff-p", lambda: effective_channel(f_ab, self.scenario))
        sigma_e2 = self.spec.pilot_noise_factor * sigma2
        if sigma_e2 == 0:
            return self._get("eff-i0", lambda: effective_channel(f_ab, self.scenario))
        return self._get(
            ("eff-i", sigma2),
            lambda: effective_channel(
                f_ab, self.scenario, sigma_e2=sigma_e2, rng=_est_rng(self.seed)
            ),
        )

    def beamformer(self, scheme: str, sigma2: float, aux: tuple[int, int]):
        """Beamformer matrix for metrics; may raise SingularEffectiveChannelError."""
        if scheme in ANALOG_SCHEMES:
            return self.analog(scheme, aux)
        csi = "perfect" if scheme.endswith("-perfect") else "imperfect"
        f_ab = self.steering(csi)
        eff = self.eff(csi, sigma2)
        if scheme.startswith("hbf-zf"):
            key = ("zf", csi, sigma2 if csi == "imperfect" else None)
            return self._get(key, lambda: hbf_zf(f_ab, eff)).composite
        key = ("wmmse", csi, sigma2)
        return self._get(key, lambda: hbf_wmmse(f_ab, eff, self.spec.p, sigma2)[0]).composite

    def rate(self, scheme: str, sigma2: float, aux: tuple[int, int]) -> float:
        try:
            f = self.beamformer(scheme, sigma2, aux)
        except SingularEffectiveChannelError:
            return float("nan")
        f.validate()
        return sum_rate(self.scenario, f, self.spec.p, sigma2)


def scheme_power_model(spec: ExperimentSpec, scheme: str) -> PowerModel:
    """Analog-only schemes drop the baseband stage from the power budget."""
    return replace(spec.power, includes_baseband=scheme not in ANALOG_SCHEMES)


def _aggregate(values: np.ndarray) -> tuple[float, float, int]:
    ok = np.isfinite(values)
    n = int(np.sum(ok))
    if n == 0:
        return float("nan"), float("nan"), 0
    vals = values[ok]
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, stderr, n


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    """Run one sweep experiment and aggregate per-scheme metrics."""
    if spec.experiment == "beam-pattern":
        raise ValueError("beam-pattern runs through run_beam_pattern")
    if spec.experiment == "aux-sweep":
        bad = [s for s in spec.schemes if s != "aobf-imperfect"]
        if bad:
            raise ValueError(f"aux-sweep only supports aobf-imperfect, got {bad}")
    sweep = resolved_sweep(spec)
    if not sweep:
        raise ValueError("sweep values must be nonempty")

    # one (value, array, K, (R, S), noise power) entry per sweep value
    aux = (spec.r_count, spec.s_count)
    sigma2 = noise_from_snr(spec.p, spec.k, spec.snr_db)
    if spec.experiment in ("sumrate-vs-snr", "ee-vs-snr"):
        per_value = [
            (v, spec.array_config(), spec.k, aux, noise_from_snr(spec.p, spec.k, v))
            for v in sweep
        ]
    elif spec.experiment == "sumrate-vs-nbs":
        per_value = [(v, spec.array_config(int(v)), spec.k, aux, sigma2) for v in sweep]
    elif spec.experiment == "sumrate-vs-k":
        per_value = [
            (v, spec.array_config(), int(v), aux, noise_from_snr(spec.p, int(v), spec.snr_db))
            for v in sweep
        ]
    else:  # aux-sweep
        per_value = [(v, spec.array_config(), spec.k, (int(v), int(v)), sigma2) for v in sweep]

    codebooks: dict[int, PolarCodebook] = {}
    if _needs_codebook(spec.schemes):
        for _, cfg, _, _, _ in per_value:
            if cfg.n_bs not in codebooks:
                codebooks[cfg.n_bs] = build_codebook(cfg, spec.n_dis, spec.beta)

    def run_trial(trial: int) -> dict:
        # sweep values that keep the array and K share one scenario draw and sweep
        seed = spec.base_seed + trial
        states: dict = {}
        out = {}
        for v, cfg, k, rs, s2 in per_value:
            if (cfg, k) not in states:
                states[(cfg, k)] = _TrialState(
                    spec, random_scenario(cfg, k, spec.l, seed), codebooks.get(cfg.n_bs)
                )
            for scheme in spec.schemes:
                out[(v, scheme)] = states[(cfg, k)].rate(scheme, s2, rs)
        return out

    per_trial = [run_trial(t) for t in range(spec.trials)]

    rows: list[ResultRow] = []
    for v, cfg, k, _, _ in per_value:
        for scheme in spec.schemes:
            rates = np.array([per_trial[t][(v, scheme)] for t in range(spec.trials)])
            mean, stderr, n = _aggregate(rates)
            rows.append(ResultRow(v, scheme, "sum_rate", mean, stderr, n))
            if spec.experiment == "ee-vs-snr":
                p_tot = total_power(scheme_power_model(spec, scheme), cfg.n_bs, k)
                ee = rates / p_tot
                mean, stderr, n = _aggregate(ee)
                rows.append(ResultRow(v, scheme, "energy_efficiency", mean, stderr, n))
    return ResultTable(rows=rows)


@dataclass
class BeamPatternResult:
    """Per-scheme beam-pattern grids and per-UE gain readouts (linear scale)."""

    schemes: tuple[str, ...]
    angles_deg: np.ndarray
    radii: np.ndarray
    grids: dict  # scheme -> (angles, radii) array of summed beam gains
    gains: dict  # scheme -> (K, K) array, [k, j] = gain of beam k at UE j

    def gains_db(self, scheme: str) -> np.ndarray:
        return 10.0 * np.log10(np.maximum(self.gains[scheme], 1e-300))

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["scheme", "angle_deg", "radius", "gain_db"])
        for scheme in self.schemes:
            g_db = 10.0 * np.log10(np.maximum(self.grids[scheme], 1e-300))
            for i, a in enumerate(self.angles_deg):
                for j, r in enumerate(self.radii):
                    w.writerow([scheme, repr(float(a)), repr(float(r)), repr(float(g_db[i, j]))])
        return buf.getvalue()

    def gain_table(self) -> str:
        lines = []
        for scheme in self.schemes:
            g_db = self.gains_db(scheme)
            k = g_db.shape[0]
            for beam in range(k):
                cells = ", ".join(f"UE{j + 1}: {g_db[beam, j]:8.3f} dB" for j in range(k))
                lines.append(f"{scheme:22s} beam {beam + 1}: {cells}")
        return "\n".join(lines)


def pattern_scenario(spec: ExperimentSpec) -> Scenario:
    """Fixed-location scenario for beam-pattern runs.

    Default: one deterministic unit-gain path per user at the configured
    locations. With pattern_random_paths=True each user gets a random complex
    gain on the fixed path plus two random scatterer paths (seeded).
    """
    cfg = spec.array_config()
    lam = cfg.wavelength
    locs = [
        PolarCoord(np.deg2rad(a_deg), r_lam * lam) for a_deg, r_lam in spec.pattern_locations
    ]
    users = []
    if not spec.pattern_random_paths:
        for loc in locs:
            users.append(make_user_channel(cfg, [PathComponent(1.0 + 0j, loc)]))
    else:
        rng = np.random.default_rng(spec.base_seed)
        from .channel import DEFAULT_RHO_MIN_WAVELENGTHS
        from .geometry import rayleigh_distance

        d_r = rayleigh_distance(cfg)
        for loc in locs:
            g0 = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
            paths = [PathComponent(complex(g0), loc)]
            for _ in range(2):
                ang = rng.uniform(-np.pi / 2, np.pi / 2)
                rad = rng.uniform(DEFAULT_RHO_MIN_WAVELENGTHS * lam, d_r)
                gs = 0.1 * (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
                paths.append(PathComponent(complex(gs), PolarCoord(float(ang), float(rad))))
            users.append(make_user_channel(cfg, paths))
    return Scenario(users=users, array=cfg, seed=spec.base_seed)


def run_beam_pattern(spec: ExperimentSpec) -> BeamPatternResult:
    """Beam patterns and per-UE gains for the fixed-location configuration."""
    if spec.experiment != "beam-pattern":
        raise ValueError("spec.experiment must be beam-pattern")
    cfg = spec.array_config()
    scenario = pattern_scenario(spec)
    k = scenario.k
    sigma2 = noise_from_snr(spec.p, k, spec.snr_db)
    cb = build_codebook(cfg, spec.n_dis, spec.beta) if _needs_codebook(spec.schemes) else None
    # patterns are deterministic readouts, so the effective channel stays noiseless
    pattern_spec = replace(spec, pilot_noise_factor=0.0, k=k)
    state = _TrialState(pattern_spec, scenario, cb)

    lam = cfg.wavelength
    angles_deg = np.arange(-90.0, 91.0, 1.0)
    radii = np.arange(10.0, 301.0, 10.0) * lam
    angle_rad = np.deg2rad(angles_deg)
    locs = scenario.user_locations()

    grids = {}
    gains = {}
    for scheme in spec.schemes:
        f = state.beamformer(scheme, sigma2, (spec.r_count, spec.s_count))
        f.validate()
        m = f.matrix
        total = np.zeros((angles_deg.size, radii.size))
        for col in range(m.shape[1]):
            total += beam_pattern_grid(cfg, m[:, col], angle_rad, radii)
        grids[scheme] = total
        g = np.empty((k, k))
        for beam in range(k):
            for j in range(k):
                g[beam, j] = beam_gain(cfg, m[:, beam], locs[j])
        gains[scheme] = g
    return BeamPatternResult(
        schemes=tuple(spec.schemes),
        angles_deg=angles_deg,
        radii=radii,
        grids=grids,
        gains=gains,
    )


_MM_KEYS = {"omega", "epsilon", "t_max", "mu_mode"}
_POWER_KEYS = {"p_tx", "p_rf", "p_ps", "p_bb", "includes_baseband"}


def spec_from_dict(doc: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from a JSON config document (fail-fast)."""
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    allowed = {f.name for f in fields(ExperimentSpec)}
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(doc)
    if "mm" in kwargs:
        mm_doc = kwargs["mm"]
        bad = set(mm_doc) - _MM_KEYS
        if bad:
            raise ValueError(f"unknown mm keys: {sorted(bad)}")
        kwargs["mm"] = MMConfig(**mm_doc)
    if "power" in kwargs:
        p_doc = kwargs["power"]
        bad = set(p_doc) - _POWER_KEYS
        if bad:
            raise ValueError(f"unknown power keys: {sorted(bad)}")
        kwargs["power"] = PowerModel(**p_doc)
    for key in ("schemes", "sweep"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    if "pattern_locations" in kwargs:
        kwargs["pattern_locations"] = tuple(tuple(x) for x in kwargs["pattern_locations"])
    return ExperimentSpec(**kwargs)
