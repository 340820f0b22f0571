"""Spherical-wave multipath channels and random multiuser scenarios."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ArrayConfig, PolarCoord, rayleigh_distance, steering_matrix

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
    """Construct a UserChannel with its vector synthesized from the paths:
    h = sqrt(N/L) * sum_l gain_l * steering(location_l).

    The L steering vectors come from one steering_matrix call, and the terms
    are added in path order, starting from the first.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("path list must be nonempty")
    angles = [p.location.angle for p in paths]
    radii = [p.location.radius for p in paths]
    terms = steering_matrix(cfg, angles, radii)
    h = paths[0].gain * terms[0]
    for p, u in zip(paths[1:], terms[1:]):
        h += p.gain * u
    return UserChannel(paths=paths, vector=np.sqrt(cfg.n_bs / len(paths)) * h)


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

