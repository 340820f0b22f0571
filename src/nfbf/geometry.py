"""Uniform linear array geometry: coordinates, element distances, steering vectors.

The array lies on the x axis, centered at the origin, with antenna n (1-based)
at x = spacing * gamma_n where gamma_n = n - (N+1)/2. Locations in front of the
array are described either in Cartesian (x, y) or polar (angle, radius) form,
with the angle measured from the broadside (y) axis. All distances default to
units of one wavelength (wavelength=1.0); pass a physical wavelength to work in
meters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ArrayConfig:
    """ULA description: antenna count, wavelength, and element spacing."""

    n_bs: int
    wavelength: float = 1.0
    spacing: float | None = None

    def __post_init__(self):
        if self.n_bs < 2:
            raise ValueError("n_bs must be >= 2")
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if self.spacing is None:
            object.__setattr__(self, "spacing", self.wavelength / 2.0)
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")

    def offsets(self) -> np.ndarray:
        """Signed element offsets gamma_n = n - (N+1)/2 for n = 1..N (sum to 0)."""
        return np.arange(1, self.n_bs + 1) - (self.n_bs + 1) / 2.0


@dataclass(frozen=True)
class PolarCoord:
    """Location at angle (radians, in [-pi/2, pi/2)) and radius > 0."""

    angle: float
    radius: float

    def __post_init__(self):
        if not (-np.pi / 2 <= self.angle < np.pi / 2):
            raise ValueError("angle must lie in [-pi/2, pi/2)")
        if self.radius <= 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class CartesianCoord:
    x: float
    y: float


def polar_to_cartesian(p: PolarCoord) -> CartesianCoord:
    """(angle, radius) -> (x, y) with x = r sin(angle), y = r cos(angle)."""
    return CartesianCoord(p.radius * np.sin(p.angle), p.radius * np.cos(p.angle))


def cartesian_to_polar(c: CartesianCoord) -> PolarCoord:
    """(x, y) -> (angle, radius); requires y > 0 (in front of the array)."""
    if c.x == 0.0 and c.y == 0.0:
        raise ValueError("origin has no polar representation")
    if c.y <= 0:
        raise ValueError("location must satisfy y > 0")
    return PolarCoord(np.arctan2(c.x, c.y), float(np.hypot(c.x, c.y)))


def element_distances(cfg: ArrayConfig, angle, radius) -> np.ndarray:
    """Distances from sources at (angle, radius) to every array element.

    angle and radius broadcast; entry [..., n-1] of the broadcast shape + (N,)
    result is sqrt(radius^2 + d^2 gamma_n^2 - 2 d gamma_n radius sin(angle)).
    """
    g = cfg.spacing * cfg.offsets()
    r = np.asarray(radius, dtype=float)[..., None]
    sin_a = np.sin(np.asarray(angle, dtype=float))[..., None]
    return np.sqrt(r * r + g * g - 2.0 * g * r * sin_a)


def element_distance(cfg: ArrayConfig, p: PolarCoord, n: int) -> float:
    """Distance from location p to antenna n (1-based, 1 <= n <= N)."""
    if not 1 <= n <= cfg.n_bs:
        raise ValueError("antenna index out of range")
    return float(element_distances(cfg, p.angle, p.radius)[n - 1])


def steering_matrix(cfg: ArrayConfig, angles, radii) -> np.ndarray:
    """Spherical-wave steering vectors for sources at (angles, radii).

    Codewords, auxiliary stacks and beam patterns all come from this formula.
    angles and radii broadcast; entry [..., n-1] of the broadcast shape + (N,)
    result is (1/sqrt(N)) exp(-j 2 pi dist_n / wavelength): unit norm, constant
    entry modulus 1/sqrt(N).

    The entry is computed as cos(theta) s + j sin(theta) s with theta =
    (-2 pi dist_n) (1/wavelength) and s = 1/sqrt(N), written into the real and
    imaginary parts of the result. These are the bits of the complex formula
    np.exp(-2j * np.pi * dist / wavelength) / np.sqrt(N): its complex multiply
    leaves a zero real part, its division by a real scalar multiplies by the
    reciprocal, and exp of 0 + j theta is (cos, sin).
    """
    theta = element_distances(cfg, angles, radii)
    theta *= -2.0 * np.pi
    theta *= 1.0 / cfg.wavelength
    out = np.empty(theta.shape, dtype=complex)
    scale = 1.0 / np.sqrt(cfg.n_bs)
    np.multiply(np.cos(theta, out=out.real), scale, out=out.real)
    np.multiply(np.sin(theta, out=out.imag), scale, out=out.imag)
    return out


def nearfield_steering(cfg: ArrayConfig, p: PolarCoord) -> np.ndarray:
    """Spherical-wave steering vector for a source at p, shape (N,)."""
    return steering_matrix(cfg, p.angle, p.radius)


def farfield_steering(cfg: ArrayConfig, angle: float) -> np.ndarray:
    """Planar-wave steering vector for a source at the given angle.

    Entry n = (1/sqrt(N)) exp(+j 2 pi d gamma_n sin(angle) / wavelength); the
    distance-only common phase is dropped, so phases are linear in n.
    """
    g = cfg.spacing * cfg.offsets()
    return np.exp(2j * np.pi * g * np.sin(angle) / cfg.wavelength) / np.sqrt(cfg.n_bs)


def rayleigh_distance(cfg: ArrayConfig) -> float:
    """Near/far-field boundary 2 N^2 d^2 / wavelength."""
    return 2.0 * cfg.n_bs**2 * cfg.spacing**2 / cfg.wavelength
