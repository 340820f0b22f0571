"""Spherical-wave multipath channels and random multiuser scenarios."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayConfig, PolarCoord, nearfield_steering, rayleigh_distance

DEFAULT_RHO_MIN_WAVELENGTHS = 3.0
SCATTER_GAIN_VAR = 0.01


@dataclass(frozen=True)
class PathComponent:
    """One propagation path: complex gain and polar location."""

    gain: complex
    location: PolarCoord


@dataclass
class UserChannel:
    """Multipath channel of one user; path 0 is the line of sight to the UE.

    vector is derived from paths; build instances through make_user_channel so
    the two stay consistent.
    """

    paths: list[PathComponent]
    vector: np.ndarray


def make_user_channel(cfg: ArrayConfig, paths: list[PathComponent]) -> UserChannel:
    """Construct a UserChannel with its vector synthesized from the paths."""
    paths = list(paths)
    return UserChannel(paths=paths, vector=synthesize_channel(cfg, paths))


@dataclass
class Scenario:
    """K-user scenario: channels, array, and the seed that generated it."""

    users: list[UserChannel]
    array: ArrayConfig
    seed: int

    @property
    def k(self) -> int:
        return len(self.users)

    def channel_matrix(self) -> np.ndarray:
        """(N, K) matrix whose column k is user k's channel vector."""
        return np.stack([u.vector for u in self.users], axis=1)

    def user_locations(self) -> list[PolarCoord]:
        """Physical UE locations (path 0 of every user)."""
        return [u.paths[0].location for u in self.users]


def synthesize_channel(cfg: ArrayConfig, paths: list[PathComponent]) -> np.ndarray:
    """h = sqrt(N/L) * sum_l gain_l * steering(location_l)."""
    if not paths:
        raise ValueError("path list must be nonempty")
    h = np.zeros(cfg.n_bs, dtype=complex)
    for p in paths:
        h += p.gain * nearfield_steering(cfg, p.location)
    return np.sqrt(cfg.n_bs / len(paths)) * h


def random_scenario(cfg: ArrayConfig, k: int, l: int, seed: int) -> Scenario:
    """Draw a K-user, L-path scenario.

    Angles are i.i.d. uniform on [-pi/2, pi/2); distances i.i.d. uniform on
    [rho_min, rayleigh_distance] with rho_min = DEFAULT_RHO_MIN_WAVELENGTHS
    wavelengths; path-0 gains CN(0,1), scatterer gains CN(0, 0.01).
    Deterministic under a fixed seed.
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be >= 1")
    rho_min = DEFAULT_RHO_MIN_WAVELENGTHS * cfg.wavelength
    d_r = rayleigh_distance(cfg)
    if rho_min >= d_r:
        raise ValueError(f"the minimum distance {rho_min:g} must be below the Rayleigh distance")
    rng = np.random.default_rng(seed)
    users = []
    for _ in range(k):
        angles = rng.uniform(-np.pi / 2, np.pi / 2, size=l)
        radii = rng.uniform(rho_min, d_r, size=l)
        re = rng.standard_normal(l)
        im = rng.standard_normal(l)
        gains = (re + 1j * im) / np.sqrt(2.0)
        gains[1:] *= np.sqrt(SCATTER_GAIN_VAR)
        paths = [
            PathComponent(complex(gains[i]), PolarCoord(float(angles[i]), float(radii[i])))
            for i in range(l)
        ]
        users.append(make_user_channel(cfg, paths))
    return Scenario(users=users, array=cfg, seed=seed)


def scenario_to_json(sc: Scenario) -> str:
    """Serialize a scenario (seed, array, per-user paths) to JSON."""
    doc = {
        "seed": sc.seed,
        "array": {
            "n_bs": sc.array.n_bs,
            "wavelength": sc.array.wavelength,
            "spacing": sc.array.spacing,
        },
        "users": [
            [
                {
                    "gain_re": p.gain.real,
                    "gain_im": p.gain.imag,
                    "angle": p.location.angle,
                    "radius": p.location.radius,
                }
                for p in u.paths
            ]
            for u in sc.users
        ],
    }
    return json.dumps(doc)


def scenario_from_json(text: str) -> Scenario:
    """Rebuild a scenario from scenario_to_json output (vectors re-synthesized)."""
    doc = json.loads(text)
    cfg = ArrayConfig(
        n_bs=int(doc["array"]["n_bs"]),
        wavelength=float(doc["array"]["wavelength"]),
        spacing=float(doc["array"]["spacing"]),
    )
    users = []
    for paths in doc["users"]:
        comps = [
            PathComponent(
                complex(p["gain_re"], p["gain_im"]),
                PolarCoord(float(p["angle"]), float(p["radius"])),
            )
            for p in paths
        ]
        users.append(make_user_channel(cfg, comps))
    return Scenario(users=users, array=cfg, seed=int(doc["seed"]))
