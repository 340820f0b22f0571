"""Seeded Monte Carlo experiment runner.

Experiments sweep one axis (SNR, antenna count, user count, or auxiliary grid
size), run every requested scheme on common per-trial random scenarios, and
aggregate per-scheme metric means with standard errors into a ResultTable.
Per-trial seeds are base_seed + trial index, so runs are reproducible and
sweeps share random scenarios across schemes and sweep values where the
configuration allows it.
"""

from __future__ import annotations

import collections
import csv
import io
import json
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np

from .channel import PathComponent, Scenario, make_user_channel, random_scenario
from .codebook import DEFAULT_BETA, DEFAULT_N_DIS, PolarCodebook, beam_sweep, build_codebook
from .geometry import ArrayConfig, PolarCoord, steering_matrix
from .hbf import (
    SingularEffectiveChannelError,
    analog_beam_steering,
    effective_channel,
    hbf_wmmse,
    hbf_zf,
)
from .metrics import (
    BeamformerMatrix,
    PowerModel,
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
DEFAULT_SNR_SWEEP = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
DEFAULT_NBS_SWEEP = (16, 32, 64)
DEFAULT_K_SWEEP = (1, 2, 4, 8)
DEFAULT_AUX_SWEEP = (1, 2, 4, 6)


def _integral(v) -> int:
    """v as an int; a ValueError where v is not integral, so 16.5 cannot run as 16."""
    if not float(v).is_integer():
        raise ValueError(f"sweep value {v!r} is not an integer")
    return int(v)


# The one map from experiment to the ExperimentSpec fields one sweep value
# sets, the cast the value gets there and the default sweep values. The cast
# is explicit: a JSON "snr_db": 20 must not make a 2.5 dB sweep point an int.
SweepAxis = collections.namedtuple("SweepAxis", "fields cast default")
SWEEP_AXES = {
    "sumrate-vs-snr": SweepAxis(("snr_db",), float, DEFAULT_SNR_SWEEP),
    "sumrate-vs-nbs": SweepAxis(("n_bs",), _integral, DEFAULT_NBS_SWEEP),
    "sumrate-vs-k": SweepAxis(("k",), _integral, DEFAULT_K_SWEEP),
    "ee-vs-snr": SweepAxis(("snr_db",), float, DEFAULT_SNR_SWEEP),
    "beam-pattern": SweepAxis((), None, ()),
    "aux-sweep": SweepAxis(("r_count", "s_count"), _integral, DEFAULT_AUX_SWEEP),
}
EXPERIMENTS = tuple(SWEEP_AXES)
DEFAULT_PATTERN_LOCATIONS = ((-23.57, 50.0), (17.46, 150.0), (-64.16, 100.0))
_EST_STREAM = 0x5EED  # fixed offset stream for estimation-noise draws
# Trials run_experiment holds at once: for one array and K it draws and
# sweeps this many, builds their design table (each MM regime and grid, and
# all WMMSE problems, as one batch), then computes their rates, so memory
# stays bounded however many trials a run has.
TRIAL_CHUNK = 32
CSV_HEADER = ("sweep", "scheme", "metric", "mean", "stderr", "trials")


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of one experiment run."""

    experiment: str
    schemes: tuple[str, ...] = SCHEMES
    trials: int = 200
    sweep: tuple[float, ...] = ()
    base_seed: int = 0
    n_bs: int = 64
    k: int = 4
    l: int = 3
    wavelength: float = 1.0
    spacing: float | None = None
    n_dis: int = DEFAULT_N_DIS
    beta: float = DEFAULT_BETA
    r_count: int = 4
    s_count: int = 4
    snr_db: float = 20.0
    p: float = 1.0
    mm: MMConfig = field(default_factory=MMConfig)
    power: PowerModel = field(default_factory=PowerModel)
    pilot_noise_factor: float = 1.0
    pattern_locations: tuple[tuple[float, float], ...] = DEFAULT_PATTERN_LOCATIONS

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment: {self.experiment!r}")
        if not self.schemes:
            raise ValueError("schemes must be nonempty")
        bad = [s for s in self.schemes if s not in SCHEMES]
        if bad:
            raise ValueError(f"unknown schemes: {bad}")
        repeated = sorted({s for s in self.schemes if self.schemes.count(s) > 1})
        if repeated:
            raise ValueError(f"repeated schemes: {repeated}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.k < 1 or self.l < 1:
            raise ValueError("k and l must be >= 1")
        # the codebook's own checks, made here so that a bad sweep value fails
        # in value_spec, before any codebook is built or trial drawn
        if self.n_dis < 1:
            raise ValueError("n_dis must be >= 1")
        if not 0 < self.beta < np.inf:
            raise ValueError("beta must be positive and finite")
        if self.r_count < 1 or self.s_count < 1:
            raise ValueError("r_count and s_count must be >= 1")
        if not 0 < self.p < np.inf:
            raise ValueError("p must be positive and finite")
        if not self.pattern_locations:
            raise ValueError("pattern_locations must be nonempty")
        users = len(self.pattern_locations) if self.experiment == "beam-pattern" else self.k
        try:
            sigma2 = noise_from_snr(self.p, users, self.snr_db)
        except (OverflowError, ZeroDivisionError):
            sigma2 = 0.0
        if not 0 < sigma2 < np.inf:  # NaN fails too
            raise ValueError(f"snr_db must be finite and give a positive finite noise power, "
                             f"got {self.snr_db!r}")
        if not 0 <= self.pilot_noise_factor < np.inf:
            raise ValueError("pilot_noise_factor must be nonnegative and finite")
        self.array_config()  # the array's own checks, likewise

    def array_config(self) -> ArrayConfig:
        return ArrayConfig(n_bs=self.n_bs, wavelength=self.wavelength, spacing=self.spacing)


def resolved_sweep(spec: ExperimentSpec) -> tuple:
    """The sweep values actually used (spec.sweep or the experiment default)."""
    return tuple(spec.sweep) or SWEEP_AXES[spec.experiment].default


def value_spec(spec: ExperimentSpec, v) -> ExperimentSpec:
    """The spec one sweep value runs: every field the experiment sweeps set to v."""
    axis = SWEEP_AXES[spec.experiment]
    return replace(spec, **{name: axis.cast(v) for name in axis.fields})


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
        return json.dumps([asdict(r) for r in self.rows], indent=2)

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


def _swept_indices(scenario: Scenario, cb: PolarCodebook | None) -> list | None:
    """Each user's swept codeword index; None without a codebook."""
    return None if cb is None else [beam_sweep(cb, u.vector) for u in scenario.users]


def _zero_forcing(f_ab, eff):
    """hbf_zf's composite, or the SingularEffectiveChannelError it raised."""
    try:
        return hbf_zf(f_ab, eff).composite
    except SingularEffectiveChannelError as exc:
        return exc


def _mm_columns(spec: ExperimentSpec, chunk: list, cb: PolarCodebook | None, csi: str,
                aux: tuple[int, int]) -> list:
    """One regime's analog MM design of every trial as one batch; each trial's (N, K) columns."""
    if csi == "perfect":
        bf, _ = aobf_perfect_csi([scenario for scenario, _ in chunk], spec.mm)
    else:
        bf, _ = aobf_imperfect_csi(cb, [indices for _, indices in chunk], *aux, spec.mm)
    return [BeamformerMatrix(np.ascontiguousarray(cols), bf.kind)
            for cols in np.split(bf.matrix, len(chunk), axis=1)]


def _wmmse_composites(trials: int, steering: dict, eff: dict, problems: list, p: float) -> dict:
    """Every trial's (regime, pilot-noise power, noise power) WMMSE problems as
    one batch: {problem: each trial's composite}. Only the composites outlive
    the call, so the batch's analog and digital stacks are freed before the
    chunk's rates are computed."""
    todo = [(t, problem) for t in range(trials) for problem in problems]
    hybrid, _ = hbf_wmmse(
        [steering[csi][t] for t, (csi, _, _) in todo],
        [eff[csi, sigma_e2][t] for t, (csi, sigma_e2, _) in todo],
        p,
        [sigma2 for _, (_, _, sigma2) in todo],
    )
    out = {problem: [] for problem in problems}
    for (_, problem), hb in zip(todo, hybrid.split()):
        out[problem].append(hb.composite)
    return out


def _design_table(spec: ExperimentSpec, chunk: list, cb: PolarCodebook | None, cells,
                  pilot_noise_factor: float) -> dict:
    """Every cell's beamformers for a chunk of trials that share N and K.

    chunk holds each trial's (scenario, swept indices or None), cb the
    grid-only codebook or None, cells the (scheme, noise power, (R, S)) keys.
    The result maps each cell to one entry per trial: a BeamformerMatrix, or
    the SingularEffectiveChannelError its ZF design raised. Each design is
    made once, keyed on what it depends on: steering, the effective channel
    and ZF per trial, each MM regime and grid as one batch, and every WMMSE
    problem as one batch.
    """
    design_of = {}  # cell -> (kind, regime, what else its design depends on)
    for scheme, sigma2, aux in cells:
        kind, csi = scheme.rsplit("-", 1)
        sigma_e2 = pilot_noise_factor * sigma2 if csi == "imperfect" else 0.0
        design_of[scheme, sigma2, aux] = {
            "steer": (kind, csi),
            "aobf": (kind, csi, aux),
            "hbf-zf": (kind, csi, sigma_e2),
            "hbf-wmmse": (kind, csi, sigma_e2, sigma2),
        }[kind]
    keys = list(dict.fromkeys(design_of.values()))

    designs = {key: _mm_columns(spec, chunk, cb, *key[1:]) for key in keys if key[0] == "aobf"}
    steering = {
        csi: [analog_beam_steering("perfect", scenario=scenario) if csi == "perfect"
              else analog_beam_steering("imperfect", cb=cb, indices=indices)
              for scenario, indices in chunk]
        for csi in dict.fromkeys(key[1] for key in keys if key[0] != "aobf")
    }
    designs.update((("steer", csi), columns) for csi, columns in steering.items())
    eff = {
        (csi, sigma_e2): [effective_channel(f, scenario, sigma_e2, _est_rng(scenario.seed))
                          for f, (scenario, _) in zip(steering[csi], chunk)]
        for csi, sigma_e2 in dict.fromkeys(key[1:3] for key in keys if key[0].startswith("hbf"))
    }
    problems = [key[1:] for key in keys if key[0] == "hbf-wmmse"]
    if problems:
        for problem, composites in _wmmse_composites(len(chunk), steering, eff, problems,
                                                     spec.p).items():
            designs[("hbf-wmmse", *problem)] = composites
    for key in keys:
        if key[0] == "hbf-zf":
            designs[key] = [_zero_forcing(f, e) for f, e in zip(steering[key[1]], eff[key[1:]])]
    return {cell: designs[key] for cell, key in design_of.items()}


def _rate(scenario: Scenario, f, p: float, sigma2: float) -> float:
    """One cell's sum rate; NaN where its ZF design found the effective channel singular."""
    if isinstance(f, SingularEffectiveChannelError):
        return float("nan")
    f.validate()
    return sum_rate(scenario, f, p, sigma2)


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
    """Run one sweep experiment and aggregate per-scheme metrics.

    Sweep values that share the array and K form one group, which draws and
    sweeps its trials once for all of them. Groups run in turn, the largest
    array first, and each works through its trials in chunks of TRIAL_CHUNK:
    each chunk's trials are drawn and swept, then designed in one
    _design_table, then rated. Each array's codebook is built just before its
    first group, so the largest is built before the first draw, and the sweeps
    alone read its basis: every design table gets the grid-only codebook, and
    the run drops the basis once the last chunk of that array's last group is
    swept, before that chunk's designs. At most one basis is thus alive at a
    time, and a run of at most TRIAL_CHUNK trials designs and rates without
    any basis held.
    """
    if spec.experiment == "beam-pattern":
        raise ValueError("beam-pattern runs through run_beam_pattern")
    if spec.experiment == "aux-sweep":
        bad = [s for s in spec.schemes if s != "aobf-imperfect"]
        if bad:
            raise ValueError(f"aux-sweep only supports aobf-imperfect, got {bad}")
    sweep = resolved_sweep(spec)
    if not sweep:
        raise ValueError("sweep values must be nonempty")

    # one (value, that value's spec, noise power) entry per sweep value; a value
    # equal to an earlier one after the axis cast (16 and 16.0 on an int axis)
    # would repeat its rows and every rate
    per_value, seen = [], set()
    for v in sweep:
        cast = SWEEP_AXES[spec.experiment].cast(v)
        if cast in seen:
            raise ValueError(f"sweep value {v!r} repeats an earlier value")
        seen.add(cast)
        vs = value_spec(spec, v)
        per_value.append((v, vs, noise_from_snr(vs.p, vs.k, vs.snr_db)))

    # per array and K: the spec of its first sweep value, and the (value, noise
    # power, (R, S)) of each of its sweep values
    groups: dict = {}
    for v, vs, sigma2 in per_value:
        groups.setdefault((vs.n_bs, vs.k), (vs, []))[1].append(
            (v, sigma2, (vs.r_count, vs.s_count)))
    order = sorted(groups, key=lambda key: -key[0])  # largest array first, stable within one
    last_of_array = {key[0]: key for key in order}  # each array's last group

    rates = {(v, scheme): np.empty(spec.trials) for v, _, _ in per_value for scheme in spec.schemes}
    cb = grid = None
    for key in order:
        vs, values = groups[key]
        if cb is None and _needs_codebook(spec.schemes):
            # cb is None here only at an array's first group: each basis is
            # dropped after the last sweep of its array's last group
            cb = build_codebook(vs.array_config(), vs.n_dis, vs.beta)
            grid = cb.without_basis()
        cells = [(scheme, sigma2, aux) for _, sigma2, aux in values for scheme in spec.schemes]
        for first in range(0, spec.trials, TRIAL_CHUNK):
            chunk = []
            for t in range(first, min(first + TRIAL_CHUNK, spec.trials)):
                # each draw is swept at once, before the next draw, so every
                # beam_sweep call follows its own trial's random_scenario call,
                # which is how benchmark/tracing.py attributes calls to trials
                scenario = random_scenario(vs.array_config(), vs.k, spec.l, spec.base_seed + t)
                chunk.append((scenario, _swept_indices(scenario, cb)))
            if key == last_of_array[key[0]] and first + TRIAL_CHUNK >= spec.trials:
                cb = None  # the basis's last sweep is done: free it before the designs
            table = _design_table(spec, chunk, grid, cells, spec.pilot_noise_factor)
            for t, (scenario, _) in enumerate(chunk):
                for v, sigma2, aux in values:
                    for scheme in spec.schemes:
                        rates[v, scheme][first + t] = _rate(scenario, table[scheme, sigma2, aux][t],
                                                            spec.p, sigma2)

    rows: list[ResultRow] = []
    for v, vs, _ in per_value:
        for scheme in spec.schemes:
            mean, stderr, n = _aggregate(rates[v, scheme])
            rows.append(ResultRow(v, scheme, "sum_rate", mean, stderr, n))
            if spec.experiment == "ee-vs-snr":
                # only the hybrid schemes have a baseband stage to power
                hybrid = scheme.startswith("hbf-")
                p_tot = total_power(spec.power, vs.p, vs.n_bs, vs.k, baseband=hybrid)
                ee = rates[v, scheme] / p_tot
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
    """Fixed-location scenario for beam-pattern runs: one deterministic
    unit-gain path per user at the configured locations."""
    cfg = spec.array_config()
    users = [
        make_user_channel(cfg, [PathComponent(1.0 + 0j, PolarCoord(np.deg2rad(a_deg),
                                                                   r_lam * cfg.wavelength))])
        for a_deg, r_lam in spec.pattern_locations
    ]
    return Scenario(users=users, array=cfg, seed=spec.base_seed)


def run_beam_pattern(spec: ExperimentSpec) -> BeamPatternResult:
    """Beam patterns and per-UE gains for the fixed-location configuration."""
    if spec.experiment != "beam-pattern":
        raise ValueError("spec.experiment must be beam-pattern")
    cfg = spec.array_config()
    scenario = pattern_scenario(spec)
    sigma2 = noise_from_snr(spec.p, scenario.k, spec.snr_db)
    cb = build_codebook(cfg, spec.n_dis, spec.beta) if _needs_codebook(spec.schemes) else None
    aux = (spec.r_count, spec.s_count)
    chunk = [(scenario, _swept_indices(scenario, cb))]
    if cb is not None:
        cb = cb.without_basis()  # its one sweep is done: free the basis before the designs
    # patterns are deterministic readouts, so the effective channel stays noiseless
    table = _design_table(spec, chunk, cb, [(scheme, sigma2, aux) for scheme in spec.schemes],
                          0.0)

    angles_deg = np.arange(-90.0, 91.0, 1.0)
    radii = np.arange(10.0, 301.0, 10.0) * cfg.wavelength
    locs = scenario.user_locations()
    # (K, N) steering vectors at the users; vecdot keeps the bits of each
    # pair's u.conj() @ f, where a matrix product would not
    at_users = steering_matrix(cfg, [loc.angle for loc in locs], [loc.radius for loc in locs])

    matrices = []
    for scheme in spec.schemes:
        (f,) = table[scheme, sigma2, aux]
        if isinstance(f, SingularEffectiveChannelError):
            raise f
        f.validate()
        matrices.append(f.matrix)
    # every scheme's (N, K) beamformer read on one steering grid
    stacked = beam_pattern_grid(cfg, np.stack(matrices), np.deg2rad(angles_deg), radii)
    grids = dict(zip(spec.schemes, stacked))
    gains = {scheme: np.abs(np.vecdot(at_users, m.T[:, None, :])) ** 2
             for scheme, m in zip(spec.schemes, matrices)}
    return BeamPatternResult(
        schemes=tuple(spec.schemes),
        angles_deg=angles_deg,
        radii=radii,
        grids=grids,
        gains=gains,
    )


# The JSON values each field type accepts, and their name; a bool is no number
_JSON_TYPES = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
    tuple: (list, "a list"),
}


def _from_json(value, hint, where: str):
    """The JSON value as the type hint's Python value, or a ValueError where it
    does not fit: null fits an optional hint, a list becomes a tuple whose
    items each fit the tuple's first type, and an object becomes a dataclass."""
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
        args = typing.get_args(hint)
    if is_dataclass(hint):
        return hint(**_json_kwargs(hint, value, where))
    origin = typing.get_origin(hint) or hint
    if origin not in _JSON_TYPES:
        return value
    want, label = _JSON_TYPES[origin]
    if not isinstance(value, want) or isinstance(value, bool) != (origin is bool):
        raise ValueError(f"{where} must be {label}, got {value!r}")
    if origin is tuple:
        return tuple(_from_json(x, args[0], f"{where}[{i}]") for i, x in enumerate(value))
    return value


def _json_kwargs(cls, doc, what: str) -> dict:
    """doc as keyword arguments for the dataclass cls. A document that is not
    an object, a key cls has no field for, a missing key cls has no default
    for, or a value that does not fit its field's type is a ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown keys in {what}: {sorted(unknown)}")
    # a field with neither a default nor a default factory must be given
    required = {f.name for f in fields(cls) if f.default is f.default_factory is MISSING}
    if required - set(doc):
        raise ValueError(f"missing keys in {what}: {sorted(required - set(doc))}")
    hints = typing.get_type_hints(cls)
    return {name: _from_json(v, hints[name], f"{what} key {name!r}") for name, v in doc.items()}


def spec_from_dict(doc: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from a JSON config document (fail-fast)."""
    return _from_json(doc, ExperimentSpec, "config")
