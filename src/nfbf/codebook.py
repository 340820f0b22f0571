"""Polar-domain near-field codebook, beam sweeping, and auxiliary points.

The codebook samples N_BS angles uniformly in the sin domain and, per angle,
N_DIS distance rings whose radii fall off as 1/q. Beam sweeping scores every
codeword against a channel and returns the best (p, q) index. Auxiliary points
subdivide the selected codeword's angular and reciprocal-distance cell to form
a surrogate channel support for imperfect-CSI beamformer design.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .geometry import ArrayConfig, steering_matrix

DEFAULT_N_DIS = 320
DEFAULT_BETA = 1.6
# build_codebook fills the sweep basis in place, in tiles of one angle row and
# at most this many entries, so each tile's float64 temporaries stay small and
# the peak of the build is the basis itself.
_TILE_ENTRIES = 1 << 15
# where build_codebook reads the memory it may fill: the kernel's estimate of
# allocatable memory, and the cgroup v2 and v1 limits
_MEMINFO = "/proc/meminfo"
_CGROUP_LIMITS = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")
# c of PolarCodebook: numpy's float32 cos and sin are taken within c 2^-24 of
# exact on [-pi, pi]
_TRIG_ERROR = 2.0


@dataclass(frozen=True)
class CodewordIndex:
    """1-based codebook index: angle bin p in [1, N_BS], ring q in [1, N_DIS]."""

    p: int
    q: int


@dataclass(frozen=True)
class PolarCodebook:
    """Immutable angle-by-distance grid of unit-norm near-field codewords.

    The codebook holds the grid (angles, radii) and the sweep basis (sums,
    diffs); codewords are steering vectors made on demand, in complex128.
    beam_sweep is the only reader of the basis. The grid-only form, from
    codebook_grid or without_basis, has sums and diffs None and serves every
    design: codewords, auxiliary points and their steering stacks come from
    the grid alone, bit for bit as from the full codebook. A run drops the
    basis once its last sweep is done (see harness.run_experiment).

    The grid sines of bins p and N+1-p are exact negations (see grid_angle),
    so their radii rows are equal and, the element offsets being
    antisymmetric, bin N+1-p's codeword is bin p's reversed along the antenna
    axis, bit for bit. The basis therefore keeps only bins 1..ceil(N/2): for
    each such bin's codeword v at each ring, sums[n, p-1, q-1] = v[n] +
    v[N-1-n] for n < ceil(N/2) (the middle antenna of an odd N doubled) and
    diffs[n, p-1, q-1] = v[n] - v[N-1-n] for n < floor(N/2), N entries a
    codeword in all, each complex64, 8 bytes. The antenna index comes first,
    so a sweep reads each antenna's entries of every codeword as one
    contiguous row. Every array is read-only.

    The basis only screens codewords, and beam_sweep rescores the few it
    keeps in float64, so its entries are made from float32 phases (see
    _basis_tile). Each lies within epsilon (2/sqrt(N)) of the float64 sum or
    difference s64 of the steering_matrix codewords, with

        epsilon = 1.01 ((pi + sqrt(2) c + 3) u32 + 12 pi u64 D),

    u32 = 2^-24, u64 = 2^-53, c = 2 (_TRIG_ERROR) and D the largest distance
    in wavelengths from a grid point to an antenna, which basis_error takes
    as the largest radius plus half the aperture. Take psi = -2 pi dist /
    wavelength, the exact phase of an antenna's distance dist, which the
    tiles compute bit for bit as element_distances does. Per antenna, in
    units of 1/sqrt(N):
    - steering_matrix's phase fl(fl(dist fl(-2 pi)) fl(1/wavelength)) is off
      psi by at most 4 u64 |psi|, four roundings;
    - the tile's turns t = fl(dist fl(1/wavelength)) are off dist /
      wavelength by at most 2 u64 dist / wavelength, and t - rint(t) is
      exact and differs from t by whole turns; its product with fl(-2 pi),
      in [-pi, pi], is off by at most 2 pi u64, and its rounding to float32
      by at most pi u32. Since |e^(jx) - e^(jy)| <= |x - y|, the two phases
      put the unit phasors at most pi u32 + 12 pi u64 D + 2 pi u64 apart;
    - float32 cos and sin are each within c u32 of exact on [-pi, pi], so
      sqrt(2) c u32 in modulus. numpy documents its SIMD float32 sin and cos
      within 1.49 ulp, an ulp below 1 being at most u32, and glibc's sinf and
      cosf within 1 ulp; every float32 in [-pi, pi] measured within 1.19 u32
      at AVX-512 and at AVX2 dispatch, and within 0.55 u32 below them;
    - float32(1/sqrt(N)) is off 1/sqrt(N) by at most u32 + 2 u64 relative,
      and the product with it rounds each part once: 2 u32;
    - steering_matrix's own cos, sin and scale are off by a few u64.
    The two antennas of an entry add up to 2 (pi + sqrt(2) c + 2) u32 +
    24 pi u64 D, and rounding their float32 sum or difference, of modulus
    2/sqrt(N) to first order, adds u32 2/sqrt(N), hence epsilon. The 1.01
    covers every other term: the u64 terms not growing with D, the float64
    rounding of s64 itself, and products of two roundings, together under
    1e-6 of epsilon.
    """

    array: ArrayConfig
    n_dis: int
    beta: float
    angles: np.ndarray  # (P,) grid angles, strictly increasing
    radii: np.ndarray  # (P, Q) ring radii, strictly decreasing in q
    # (ceil(N/2), ceil(P/2), Q) complex64, v[n] + v[N-1-n] of bins 1..ceil(P/2);
    # None in the grid-only form
    sums: np.ndarray | None = None
    # (floor(N/2), ceil(P/2), Q) complex64, v[n] - v[N-1-n] of the same; None likewise
    diffs: np.ndarray | None = None

    def without_basis(self) -> PolarCodebook:
        """The grid-only form of this codebook: the same angles and radii
        arrays, shared and not copied, and no sweep basis."""
        return replace(self, sums=None, diffs=None)

    def codewords_at(self, indices) -> np.ndarray:
        """(len(indices), N) array whose row i is the steering vector of
        codeword indices[i], a new array made by one steering_matrix call."""
        for idx in indices:
            self._check(idx)
        p = np.array([idx.p - 1 for idx in indices], dtype=int)
        q = np.array([idx.q - 1 for idx in indices], dtype=int)
        return steering_matrix(self.array, self.angles[p], self.radii[p, q])

    @property
    def codewords(self) -> np.ndarray:
        """(P, Q, N) array of the whole grid, made by one steering_matrix call."""
        return steering_matrix(self.array, self.angles[:, None], self.radii)

    def flat(self) -> np.ndarray:
        """(P*Q, N) array of the codewords, row-major in (p, q)."""
        return self.codewords.reshape(-1, self.array.n_bs)

    @property
    def basis_error(self) -> float:
        """epsilon: every basis entry lies within epsilon (2/sqrt(N)) of the
        float64 sum or difference of the whole-grid codewords."""
        cfg = self.array
        # the largest distance in wavelengths from a grid point to an antenna;
        # each bin's radii fall with q
        reach = (self.radii[:, 0].max() + cfg.spacing * (cfg.n_bs - 1) / 2.0) / cfg.wavelength
        return float(1.01 * ((np.pi + np.sqrt(2.0) * _TRIG_ERROR + 3.0) * 2.0**-24
                             + 12.0 * np.pi * 2.0**-53 * reach))

    def _check(self, idx: CodewordIndex) -> None:
        if not (1 <= idx.p <= self.array.n_bs and 1 <= idx.q <= self.n_dis):
            raise ValueError("codeword index out of bounds")


@dataclass
class AuxiliaryGrid:
    """R x S polar locations tiling a codeword's angular/distance cell."""

    angles: np.ndarray  # (R,)
    radii: np.ndarray  # (R, S)
    r_count: int
    s_count: int


def grid_angle(n_bs: int, p, r_count: int = 1) -> np.ndarray:
    """Angle of bin p on an r_count-times refined sin-domain grid.

    The sine is (2p - 1 - m) / m with m = r_count * N: its numerator is an
    exact integer, so bins p and m+1-p have exactly negated sines at every N.
    With r_count=1 this is the codebook angle; refined grids place r_count
    angles inside each original bin.
    """
    p = np.asarray(p, dtype=float)
    m = r_count * n_bs
    return np.arcsin((2.0 * p - 1.0 - m) / m)


def _ring_scale(cfg: ArrayConfig, beta: float) -> float:
    """N^2 d^2 / (2 beta^2 wavelength), the radius of ring q = 1 at broadside."""
    return cfg.n_bs**2 * cfg.spacing**2 / (2.0 * beta**2 * cfg.wavelength)


def ring_radius(cfg: ArrayConfig, sin_angle, q, beta: float) -> np.ndarray:
    """Ring radius N^2 d^2 (1 - sin^2) / (2 q beta^2 wavelength)."""
    sin_angle = np.asarray(sin_angle, dtype=float)
    q = np.asarray(q, dtype=float)
    return _ring_scale(cfg, beta) * (1.0 - sin_angle**2) / q


def _available_memory() -> int | None:
    """Bytes this process may still allocate: the smaller of MemAvailable and
    the cgroup memory limit, each where readable; None where neither is."""
    found = []
    try:
        with open(_MEMINFO) as fh:
            found += [int(line.split()[1]) * 1024 for line in fh
                      if line.startswith("MemAvailable:")]
    except (OSError, ValueError, IndexError):
        pass
    for path in _CGROUP_LIMITS:
        try:
            with open(path) as fh:
                found.append(int(fh.read()))  # v2 writes "max" where there is no limit
        except (OSError, ValueError):
            pass
    return min(found) if found else None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _basis_tile(cfg: ArrayConfig, angle, radii: np.ndarray,
                sums: np.ndarray, diffs: np.ndarray) -> None:
    """Write the basis entries of the codewords at angle and radii into sums,
    a (ceil(N/2), rings) complex64 view, and diffs, a (floor(N/2), rings) one.

    element_distances takes sqrt(a - b) with a = r^2 + g^2 and b = 2 g r
    sin(angle); antenna N-1-n has the same a and, its offset being antenna
    n's negated, b negated exactly, so one a and b give the distances of both
    bit for bit. Each phase is taken in turns, t = dist (1/wavelength), less
    its nearest integer, which is exact, then multiplied by -2 pi and rounded
    once to float32. Its float32 cosine and sine are scaled by
    float32(1/sqrt(N)), and the entries of each mirror pair are added and
    subtracted in float32 straight into the basis.
    """
    n = cfg.n_bs
    half, pairs = (n + 1) // 2, n // 2
    g = cfg.spacing * cfg.offsets()[:half, None]
    r = np.asarray(radii, dtype=float)
    a = r * r + g * g
    b = np.multiply(2.0 * g, r)
    b *= np.sin(np.asarray(angle, dtype=float))
    scale = np.float32(1.0 / np.sqrt(n))
    # antenna n, then antenna N-1-n; arrays of half a tile each stay under
    # malloc's mmap threshold at N = 64, so each tile reuses the heap memory
    # the one before it freed
    parts = []
    for dist in (a - b, np.add(a, b, out=a)):
        np.sqrt(dist, out=dist)
        turns = np.multiply(dist, 1.0 / cfg.wavelength, out=dist)
        turns -= np.rint(turns, out=b)
        turns *= -2.0 * np.pi
        phase = turns.astype(np.float32)
        cos = np.cos(phase)
        cos *= scale
        sin = np.sin(phase, out=phase)
        sin *= scale
        parts.append((cos, sin))
    (cos, sin), (cos_rev, sin_rev) = parts
    np.add(cos, cos_rev, out=sums.real)
    np.add(sin, sin_rev, out=sums.imag)
    np.subtract(cos[:pairs], cos_rev[:pairs], out=diffs.real)
    np.subtract(sin[:pairs], sin_rev[:pairs], out=diffs.imag)


def codebook_grid(
    cfg: ArrayConfig, n_dis: int = DEFAULT_N_DIS, beta: float = DEFAULT_BETA
) -> PolarCodebook:
    """The grid-only codebook: build_codebook's angles and radii, bit for
    bit, without the sweep basis, so nothing of N * N_dis * N entries is
    allocated."""
    if n_dis < 1:
        raise ValueError("n_dis must be >= 1")
    if beta <= 0:
        raise ValueError("beta must be positive")
    angles = grid_angle(cfg.n_bs, np.arange(1, cfg.n_bs + 1))
    q = np.arange(1, n_dis + 1, dtype=float)
    radii = ring_radius(cfg, np.sin(angles)[:, None], q[None, :], beta)
    return PolarCodebook(array=cfg, n_dis=n_dis, beta=beta, angles=_read_only(angles),
                         radii=_read_only(radii))


def build_codebook(
    cfg: ArrayConfig, n_dis: int = DEFAULT_N_DIS, beta: float = DEFAULT_BETA
) -> PolarCodebook:
    """Construct the polar codebook for the given array: codebook_grid's grid
    and the sweep basis.

    Only bins 1..ceil(N/2) are built, into the sweep basis; the rest are their
    mirror images (see PolarCodebook). The basis is filled in place, in order
    on the calling thread, in tiles of one angle row and at most _TILE_ENTRIES
    entries, each with _basis_tile, from float32 phases; no codeword is made.
    A codebook whose basis is larger than the memory available is a
    ValueError, raised before anything that grows with N * n_dis is allocated.
    """
    n = cfg.n_bs
    half, pairs = (n + 1) // 2, n // 2
    need = half * n_dis * n * np.dtype(np.complex64).itemsize
    available = _available_memory()
    if available is not None and need > available:
        raise ValueError(f"the codebook of N = {n} with {n_dis} rings needs {need / 1e9:.3g} GB, "
                         f"more than the {available / 1e9:.3g} GB of memory available")
    grid = codebook_grid(cfg, n_dis, beta)
    sums = np.empty((half, half, n_dis), dtype=np.complex64)
    diffs = np.empty((pairs, half, n_dis), dtype=np.complex64)
    rings = max(1, _TILE_ENTRIES // n)
    for p in range(half):
        for lo in range(0, n_dis, rings):
            _basis_tile(cfg, grid.angles[p], grid.radii[p, lo : lo + rings],
                        sums[:, p, lo : lo + rings], diffs[:, p, lo : lo + rings])
    return replace(grid, sums=_read_only(sums), diffs=_read_only(diffs))


def _halves(h: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """h+* and h-* of beam_sweep, on the half-length index, in complex128."""
    half, pairs = (n + 1) // 2, n // 2
    hc = np.asarray(h, dtype=complex).conj()
    rev = hc[::-1]
    plus = hc[:half] + rev[:half]
    plus[pairs:] = hc[pairs:half]  # the odd middle antenna, which sums holds doubled
    return plus, hc[:pairs] - rev[:pairs]


def _ldexp(z: np.ndarray, exp: int) -> np.ndarray:
    """z in complex128 times 2**exp, exact where no part overflows or underflows."""
    return np.ldexp(np.ascontiguousarray(z, dtype=complex).view(float), exp).view(complex)


def _screen(cb: PolarCodebook, plus: np.ndarray, minus: np.ndarray) -> tuple[np.ndarray, float]:
    """(P*Q,) float32-product scores of every codeword in (p, q) order, and
    their error bound E (see beam_sweep)."""
    n = cb.array.n_bs
    half, pairs = (n + 1) // 2, n // 2
    # a power of two scales every score exactly and keeps the float32 products
    # far from overflow and underflow
    size = np.abs(plus), np.abs(minus)
    exp = int(np.frexp(max(size[0].max(), size[1].max()))[1])
    # the scores' parts even and odd under reversal of the antenna axis, joined
    # in float64
    even = _ldexp(_ldexp(plus, -exp).astype(np.complex64) @ cb.sums.reshape(half, -1), exp)
    odd = _ldexp(_ldexp(minus, -exp).astype(np.complex64) @ cb.diffs.reshape(pairs, -1), exp)
    direct = np.abs(even + odd).reshape(half, cb.n_dis)
    mirror = np.abs(even - odd).reshape(half, cb.n_dis)
    # bins ceil(N/2)+1..N mirror bins N-ceil(N/2)..1
    scores = np.concatenate([direct, mirror[: n - half][::-1]]).reshape(-1)
    k = 2 * half
    gamma = [k * u / (1.0 - k * u) for u in (2.0**-24, 2.0**-53)]
    bound = (1.01 * (np.sqrt(2.0) * sum(gamma) + 2.0**-24 + cb.basis_error) * 2.0 / np.sqrt(n)
             * (size[0].sum() + size[1].sum()))
    return scores, float(bound)


def beam_sweep(cb: PolarCodebook, h: np.ndarray) -> CodewordIndex:
    """Best codeword index argmax_{p,q} |h^H v_{p,q}|.

    Scoring is noiseless (the pilot procedure is abstracted), and ties break
    to the smallest (p, q). The sweep runs on the half-length basis: with
    h+[n] = h[n] + h[N-1-n] (the middle antenna of an odd N taken once) and
    h-[n] = h[n] - h[N-1-n], a stored bin scores 2 h^H v = h+^H s + h-^H d and
    its mirror 2 h^H rev(v) = h+^H s - h-^H d, N multiply-adds per stored
    codeword.

    Screen. Every codeword is scored with two complex64 vector-matrix
    products, h+* and h-* rounded to complex64 against the complex64 basis,
    the parts joined and their modulus taken in float64. Its gap to sigma64,
    any float64 evaluation of the same products on the float64 basis, the
    sums and differences s, d of steering_matrix codewords (a full-basis
    matrix product, or the rescore below), is at most

        E = 1.01 (sqrt(2) (gamma32_k + gamma64_k) + u32 + epsilon) (2 / sqrt(N)) (||h+||_1 + ||h-||_1),

    with m = ceil(N/2), k = 2m, u32 = 2^-24, u64 = 2^-53, gamma_k =
    k u / (1 - k u) and epsilon the basis bound cb.basis_error (see
    PolarCodebook). Take sigma, the exact score of the float64 halves h+, h-
    and the float64 basis s, d, for which |s|, |d| <= 2/sqrt(N). Then:
    - each product's real part is a sum of 2m rounded real products and its
      imaginary part another; in any order, with or without fused
      multiply-adds, at any BLAS thread count or SIMD dispatch, each part is
      off by at most gamma_k times the sum of its terms' moduli, at most
      sum |h+*||s|; hence sqrt(2) gamma_k (2/sqrt(N)) ||h+||_1 per product.
      That is Higham's complex inner-product bound sqrt(2) gamma_{m+2}
      (Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.6)
      with k = 2m in place of m + 2, which covers a kernel that accumulates
      the real products apart, and holds for m >= 1;
    - rounding h+ to complex64 moves each term h+* s by at most
      u32 |h+||s|, and the complex64 entry, within epsilon (2/sqrt(N)) of s,
      moves it by at most epsilon (2/sqrt(N)) |h+|: hence (u32 + epsilon)
      (2/sqrt(N)) ||h+||_1 to first order; likewise for h- and d;
    - sigma64 is itself off sigma by at most sqrt(2) gamma64_k times the same
      sums, the float64 products' own rounding.
    The factor 1.01 covers every second-order term: the u32 epsilon and
    gamma32 (u32 + epsilon) terms, |s| and |d| exceeding 2/sqrt(N) by a few
    u64 and the complex64 entries by up to epsilon, the float64 sum,
    difference and modulus of the joined parts (a few u64 of the sums), the
    rounding of E itself and of the threshold below, together under 1e-6 of
    E. The products run on h+ and h- scaled by a power of two
    to a largest modulus in [1/2, 1), which scales every score exactly and
    keeps float32 clear of overflow; an entry underflowing float32 adds at
    most about 2m 2^-149 to a scaled product, also inside the 1.01.

    Rescore. A codeword is a candidate when its screened score is at least
    max - 2E. The candidates, nearly always one to a few, are rescored in
    float64 in the sum/difference form h+^H s +- h-^H d: their stored bins'
    codewords come from one steering_matrix call, and each row is multiplied
    and summed apart, so a codeword's rescore does not depend on which
    others are candidates. The sweep returns the first maximum in (p, q)
    order. With sigma64 the rescore of every codeword, its first maximum j*
    is a candidate: score32(j*) >= sigma64(j*) - E >= sigma64(j) - E >=
    score32(j) - 2E for every j. A lone candidate is therefore j* and is
    returned without a rescore, which is the usual case. The sweep returns
    the first maximum of the float64 rescore over the whole grid, and the
    argmax of a full-basis float64 product, a candidate too, differs from it
    only where two codewords score within that product's rounding. A
    broadside-symmetric h has h- = 0, so a mirror pair ties exactly and the
    smaller p wins.

    The sweep reads cb's basis, so a grid-only codebook (see PolarCodebook)
    is a ValueError.
    """
    if cb.sums is None or cb.diffs is None:
        raise ValueError("cannot sweep a codebook without its sweep basis (sums, diffs); "
                         "build_codebook makes one")
    h = np.asarray(h)
    if not np.all(np.isfinite(h)):
        raise ValueError("cannot sweep a non-finite channel")
    if np.linalg.norm(h) == 0:
        raise ValueError("cannot sweep a zero channel")
    n = cb.array.n_bs
    half, pairs = (n + 1) // 2, n // 2
    plus, minus = _halves(h, n)
    scores, bound = _screen(cb, plus, minus)
    found = np.flatnonzero(scores >= scores.max() - 2.0 * bound)  # in (p, q) order
    idx = int(found[0])
    if found.size > 1:  # a lone candidate is the float64 first maximum
        p, q = np.divmod(found, cb.n_dis)
        stored = np.minimum(p, n - 1 - p)
        v = steering_matrix(cb.array, cb.angles[stored], cb.radii[stored, q])
        rev = v[:, ::-1]
        # each row is multiplied and summed apart, so the rows of a mirror pair,
        # one stored bin's, score alike bit for bit
        even = ((v[:, :half] + rev[:, :half]) * plus).sum(axis=1)
        odd = ((v[:, :pairs] - rev[:, :pairs]) * minus).sum(axis=1)
        rescored = np.abs(np.where(p < half, even + odd, even - odd))
        idx = int(found[np.argmax(rescored)])  # first max = lexicographic smallest
    return CodewordIndex(p=idx // cb.n_dis + 1, q=idx % cb.n_dis + 1)


def auxiliary_points(
    cb: PolarCodebook, idx: CodewordIndex, r_count: int, s_count: int
) -> AuxiliaryGrid:
    """R x S auxiliary locations inside codeword idx's cell.

    Angles refine the selected sin-domain bin into r_count sub-bins. Distances
    are midpoints of s_count equal subintervals of the selected ring's cell in
    the reciprocal ring domain v = 1/q: the cell spans the midpoints toward
    rings q-1 and q+1. The outermost ring (q = 1) has no outer neighbor; its
    cell extends to the Rayleigh distance, whose reciprocal image is
    8 beta^2 - 1/q independent of the array.
    """
    if r_count < 1 or s_count < 1:
        raise ValueError("r_count and s_count must be >= 1")
    cb._check(idx)
    n = cb.array.n_bs
    p_hat = r_count * (idx.p - 1) + np.arange(1, r_count + 1)
    ang = grid_angle(n, p_hat, r_count)
    sin_a = np.sin(ang)

    q = float(idx.q)
    a_here = 1.0 / q
    a_inner = 1.0 / (q + 1.0)
    a_outer = (8.0 * cb.beta**2 - 1.0 / q) if idx.q == 1 else 1.0 / (q - 1.0)
    s = np.arange(1, s_count + 1, dtype=float)
    v = (a_here + a_inner) / 2.0 + (a_outer - a_inner) * (2.0 * s - 1.0) / (4.0 * s_count)

    radii = _ring_scale(cb.array, cb.beta) * (1.0 - sin_a[:, None] ** 2) * v[None, :]
    return AuxiliaryGrid(angles=ang, radii=radii, r_count=r_count, s_count=s_count)


def approximate_channel_matrices(
    cb: PolarCodebook, grids: list[AuxiliaryGrid]
) -> list[np.ndarray]:
    """Per-user stacks of steering vectors at the auxiliary points.

    Returns one (R*S, N) array per grid, row r*S + s the steering vector at
    (angles[r], radii[r, s]); these act as the surrogate channel support for
    imperfect-CSI design.
    """
    if not grids:
        raise ValueError("grids must be nonempty")
    cfg = cb.array
    return [
        steering_matrix(cfg, grid.angles[:, None], grid.radii).reshape(-1, cfg.n_bs)
        for grid in grids
    ]


def export_codebook_csv(cb: PolarCodebook, path: str) -> None:
    """Write (p, q, angle_rad, radius_wavelengths) rows for inspection."""
    lam = cb.array.wavelength
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["p", "q", "angle_rad", "radius_wavelengths"])
        for p in range(cb.array.n_bs):
            for q in range(cb.n_dis):
                w.writerow([p + 1, q + 1, repr(float(cb.angles[p])), repr(float(cb.radii[p, q] / lam))])
