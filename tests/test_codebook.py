"""Tests for the polar codebook, beam sweeping, and auxiliary points."""

import csv
import dataclasses
import threading

import numpy as np
import pytest

import nfbf.codebook
from nfbf.codebook import (
    CodewordIndex,
    approximate_channel_matrices,
    auxiliary_points,
    beam_sweep,
    build_codebook,
    codebook_grid,
    export_codebook_csv,
    grid_angle,
    ring_radius,
)
from nfbf.channel import random_scenario
from nfbf.geometry import ArrayConfig, rayleigh_distance, steering_matrix
from nfbf.hbf import analog_beam_steering
from nfbf.mm import MMConfig, aobf_imperfect_csi

def whole_grid_basis(whole):
    """The antenna-major sweep basis of bins 1..ceil(N/2) from a whole-grid
    (P, Q, N) array, in the grid's complex128."""
    n = whole.shape[-1]
    half, pairs = (n + 1) // 2, n // 2
    v = np.moveaxis(whole[:half], -1, 0)
    rev = v[::-1]
    return v[:half] + rev[:half], v[:pairs] - rev[:pairs]


def assert_basis_within_its_bound(cb, whole):
    """Every entry of cb's basis lies within epsilon (2/sqrt(N)) of
    whole_grid_basis(whole), the float64 basis of the same grid."""
    tol = cb.basis_error * 2.0 / np.sqrt(whole.shape[-1])
    for got, want in zip((cb.sums, cb.diffs), whole_grid_basis(whole)):
        assert got.dtype == np.complex64 and got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= tol


def codeword(cb, idx):
    """Codeword idx from its own steering_matrix call at its grid point."""
    return steering_matrix(cb.array, cb.angles[idx.p - 1], cb.radii[idx.p - 1, idx.q - 1])


def test_grid_angle_first_bin_n4():
    # arcsin((2*1 - 1 - 4) / 4) = arcsin(-0.75)
    assert float(grid_angle(4, 1)) == pytest.approx(-0.848062078981481, rel=1e-15)


def test_grid_angles_monotone_and_sin_spaced():
    for n in (4, 16, 48, 64, 100):
        for r_count in (1, 3, 6):
            m = r_count * n
            ang = grid_angle(n, np.arange(1, m + 1), r_count)
            assert np.all(np.diff(ang) > 0)
            # uniform 2/m spacing in the sin domain, exactly symmetric about
            # zero: the codebook stores one bin of each mirror pair on it
            s = np.sin(ang)
            assert np.allclose(np.diff(s), 2.0 / m, rtol=0, atol=1e-12)
            assert np.array_equal(s, -s[::-1]), (n, r_count)
            assert np.all(np.abs(ang) < np.pi / 2)


def test_ring_radius_oracle_and_halving():
    cfg = ArrayConfig(n_bs=64)
    assert float(ring_radius(cfg, 0.0, 1, 1.6)) == pytest.approx(
        199.99999999999997, rel=1e-15
    )
    assert float(ring_radius(cfg, 0.0, 2, 1.6)) == pytest.approx(
        99.99999999999999, rel=1e-15
    )
    # radius scales as 1/q and shrinks off broadside as 1 - sin^2
    r1 = float(ring_radius(cfg, 0.5, 3, 1.6))
    r2 = float(ring_radius(cfg, 0.5, 6, 1.6))
    assert r1 == pytest.approx(2.0 * r2, rel=1e-12)
    assert float(ring_radius(cfg, 0.5, 1, 1.6)) == pytest.approx(
        0.75 * float(ring_radius(cfg, 0.0, 1, 1.6)), rel=1e-12
    )


def test_build_codebook_shapes_and_locations():
    cfg = ArrayConfig(n_bs=8)
    cb = build_codebook(cfg, n_dis=6, beta=1.6)
    assert cb.angles.shape == (8,)
    assert cb.radii.shape == (8, 6)
    assert cb.flat().shape == (8 * 6, 8)
    assert np.all(np.diff(cb.radii, axis=1) < 0)
    with pytest.raises(ValueError):
        cb.codewords_at([CodewordIndex(p=0, q=1)])
    with pytest.raises(ValueError):
        cb.codewords_at([CodewordIndex(p=1, q=7)])
    with pytest.raises(ValueError):
        build_codebook(cfg, n_dis=0)
    with pytest.raises(ValueError):
        build_codebook(cfg, beta=0.0)


def test_codewords_are_steering_vectors():
    cfg = ArrayConfig(n_bs=16)
    cb = build_codebook(cfg, n_dis=10)
    for p, q in [(1, 1), (5, 3), (16, 10), (9, 7)]:
        idx = CodewordIndex(p=p, q=q)
        (word,) = cb.codewords_at([idx])
        assert np.allclose(word, codeword(cb, idx), rtol=0, atol=1e-14)
    # every codeword keeps the analog constant modulus
    assert np.allclose(np.abs(cb.flat()), 1.0 / 4.0, rtol=0, atol=1e-12)


def test_codewords_at_equals_per_index_codewords():
    # one steering_matrix call over a batch of indices makes each row with the
    # bits of the per-index call; the imperfect steering matrix is that batch
    rng = np.random.default_rng(7)
    for n in (16, 33, 64, 100, 256):
        cb = build_codebook(ArrayConfig(n_bs=n), n_dis=40)
        for _ in range(28):
            batch = [CodewordIndex(int(p), int(q)) for p, q in zip(
                rng.integers(1, n + 1, size=rng.integers(1, 13)), rng.integers(1, 41, size=12))]
            rows = cb.codewords_at(batch)
            assert rows.shape == (len(batch), n)
            for row, idx in zip(rows, batch):
                assert np.array_equal(row, codeword(cb, idx)), (n, idx)
            cols = analog_beam_steering("imperfect", cb=cb, indices=batch).matrix
            assert np.array_equal(cols, np.stack([codeword(cb, idx) for idx in batch], axis=1))
            assert cols.flags.c_contiguous
    assert cb.codewords_at([]).shape == (0, 256)
    for bad in (CodewordIndex(0, 1), CodewordIndex(257, 1), CodewordIndex(1, 41)):
        with pytest.raises(ValueError):
            cb.codewords_at([CodewordIndex(1, 1), bad])


@pytest.mark.parametrize("wavelength", [1.0, 0.01])
@pytest.mark.parametrize("n, tile_entries, grid_tiles", [
    # the default 2^15-entry tiles hold a whole row of 320 rings up to N = 102
    (16, 1 << 15, 16), (48, 1 << 15, 48), (64, 1 << 15, 64),
    # 1100 entries hold 22 rings at N = 48: 15 tiles a row, the last of 12 rings
    (48, 1100, 48 * 15),
])
def test_blocked_build_equals_one_whole_grid_steering_call(
    n, tile_entries, grid_tiles, wavelength, monkeypatch
):
    # grid_tiles is the tile count of the whole grid; only stored bins are built
    cfg = ArrayConfig(n_bs=n, wavelength=wavelength)
    shapes = []
    real = nfbf.codebook._basis_tile
    monkeypatch.setattr(nfbf.codebook, "_TILE_ENTRIES", tile_entries)
    monkeypatch.setattr(nfbf.codebook, "_basis_tile",
                        lambda cfg, angle, radii, sums, diffs: shapes.append(np.shape(radii))
                        or real(cfg, angle, radii, sums, diffs))
    cb = build_codebook(cfg)
    assert len(shapes) == grid_tiles // n * ((n + 1) // 2)
    # the tiles' rings add up to the stored bins' rows, whatever np.empty left in the rest
    assert sum(rings for (rings,) in shapes) == (n + 1) // 2 * 320
    assert cb.sums.shape == (n // 2, n // 2, 320)
    assert_basis_within_its_bound(cb, steering_matrix(cfg, cb.angles[:, None], cb.radii))


@pytest.mark.parametrize("wavelength", [1.0, 0.01])
@pytest.mark.parametrize("n", [16, 48, 64, 100, 128])
def test_materialized_grid_equals_one_whole_grid_steering_call(n, wavelength):
    cfg = ArrayConfig(n_bs=n, wavelength=wavelength)
    cb = build_codebook(cfg)
    half = (n + 1) // 2
    assert cb.sums.shape == (half, half, 320)
    assert cb.diffs.shape == (n // 2, half, 320)
    whole = steering_matrix(cfg, cb.angles[:, None], cb.radii)
    assert_basis_within_its_bound(cb, whole)
    assert np.array_equal(cb.flat(), whole.reshape(-1, n))
    assert np.array_equal(cb.codewords_at([CodewordIndex(p + 1, 5) for p in range(n)]),
                          whole[:, 4])


def test_every_small_grid_equals_one_whole_grid_steering_call():
    # the basis holds bins 1..ceil(N/2) at every N, odd and even, powers of two
    # or not, and bins ceil(N/2)+1..N are their reversed mirrors bit for bit
    for n in range(2, 131):
        cfg = ArrayConfig(n_bs=n)
        cb = build_codebook(cfg, n_dis=3)
        half = (n + 1) // 2
        assert cb.sums.shape == (half, half, 3) and cb.diffs.shape == (n // 2, half, 3)
        whole = steering_matrix(cfg, cb.angles[:, None], cb.radii)
        assert_basis_within_its_bound(cb, whole)
        assert np.array_equal(whole[half:], whole[: n - half][::-1, :, ::-1]), n


def test_codebook_is_read_only():
    cb = build_codebook(ArrayConfig(n_bs=16), n_dis=4)
    for field in ("angles", "radii", "sums", "diffs"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(cb, field)[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cb.n_dis = 5
    # codewords are made on demand: a write into one, or into the materialized
    # grid, reaches neither the codebook nor the next codeword of any bin, bin 12
    # the mirror of bin 5 included
    for p in (5, 12):
        word = cb.codewords_at([CodewordIndex(p, 2)])
        word[:] = 0.0
        assert np.all(np.abs(cb.codewords_at([CodewordIndex(p, 2)])) > 0)
    grid = cb.flat()
    grid[:] = 0.0
    assert np.all(np.abs(cb.flat()) > 0)
    h = codeword(cb, CodewordIndex(12, 2))
    assert beam_sweep(cb, h) == CodewordIndex(12, 2)


def test_every_tile_runs_on_the_calling_thread(monkeypatch):
    threads = []
    real = nfbf.codebook._basis_tile
    monkeypatch.setattr(nfbf.codebook, "_basis_tile",
                        lambda *args: threads.append(threading.get_ident()) or real(*args))
    build_codebook(ArrayConfig(n_bs=16))
    # one tile for each of the 8 stored bins' rows of 320 rings
    assert threads == [threading.get_ident()] * 8


def test_an_error_in_one_tile_propagates(monkeypatch):
    class TileError(RuntimeError):
        pass

    cfg = ArrayConfig(n_bs=16)
    bad_angle = grid_angle(16, 8)  # a stored bin; bin 9 mirrors it and is not built
    real = nfbf.codebook._basis_tile

    def tile(cfg, angle, radii, sums, diffs):
        if angle == bad_angle:
            raise TileError
        real(cfg, angle, radii, sums, diffs)

    monkeypatch.setattr(nfbf.codebook, "_basis_tile", tile)
    with pytest.raises(TileError):
        build_codebook(cfg)


def test_oversized_codebook_fails_before_allocating():
    # N = 200 000 with 320 rings stores 100 000 bins at 8 bytes an entry, 5.12e13 bytes
    if nfbf.codebook._available_memory() is None:
        pytest.skip("no readable memory figure on this platform")
    with pytest.raises(ValueError, match=r"N = 200000 with 320 rings needs 5.12e\+04 GB"):
        build_codebook(ArrayConfig(n_bs=200_000))


def test_available_memory_is_the_smaller_readable_limit(tmp_path, monkeypatch):
    meminfo = tmp_path / "meminfo"
    meminfo.write_text("MemTotal:  8000000 kB\nMemAvailable:  4000000 kB\n")
    v2, v1 = tmp_path / "memory.max", tmp_path / "missing"
    monkeypatch.setattr(nfbf.codebook, "_MEMINFO", str(meminfo))
    monkeypatch.setattr(nfbf.codebook, "_CGROUP_LIMITS", (str(v2), str(v1)))
    v2.write_text("max\n")
    assert nfbf.codebook._available_memory() == 4000000 * 1024
    v2.write_text("1000000\n")
    assert nfbf.codebook._available_memory() == 1000000
    # a codebook whose 8 stored bins are over the limit fails; one within it builds
    with pytest.raises(ValueError, match="GB of memory available"):
        build_codebook(ArrayConfig(n_bs=16), n_dis=977)
    cb = build_codebook(ArrayConfig(n_bs=16), n_dis=976)
    assert cb.sums.nbytes + cb.diffs.nbytes == 8 * 976 * 16 * 8 <= 1000000
    monkeypatch.setattr(nfbf.codebook, "_MEMINFO", str(v1))
    monkeypatch.setattr(nfbf.codebook, "_CGROUP_LIMITS", (str(v1),))
    assert nfbf.codebook._available_memory() is None


def test_flat_is_row_major_in_p_then_q():
    cfg = ArrayConfig(n_bs=4)
    cb = build_codebook(cfg, n_dis=3)
    flat = cb.flat()
    assert flat.shape == (12, 4)
    k = 0
    for p in range(1, 5):
        for q in range(1, 4):
            assert np.array_equal(flat[k], codeword(cb, CodewordIndex(p, q)))
            k += 1


def test_beam_sweep_self_selection():
    # a channel equal to a codeword must select that codeword
    cfg = ArrayConfig(n_bs=8)
    cb = build_codebook(cfg, n_dis=6)
    for p in range(1, 9):
        for q in range(1, 7):
            idx = CodewordIndex(p, q)
            h = np.sqrt(8.0) * codeword(cb, idx)
            assert beam_sweep(cb, h) == idx


def test_beam_sweep_exhaustive_oracle():
    cfg = ArrayConfig(n_bs=8)
    cb = build_codebook(cfg, n_dis=5)
    rng = np.random.default_rng(41)
    for _ in range(30):
        h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        best, best_idx = -1.0, None
        for p in range(1, 9):
            for q in range(1, 6):
                score = abs(np.vdot(h, codeword(cb, CodewordIndex(p, q))))
                if score > best:
                    best, best_idx = score, CodewordIndex(p, q)
        assert beam_sweep(cb, h) == best_idx


def test_beam_sweep_tie_breaks_to_first():
    # a broadside-symmetric channel scores bins p and N+1-p exactly alike; the
    # smaller p must win, at odd N as at even
    for n in (4, 16, 33, 63, 64, 100):
        cfg = ArrayConfig(n_bs=n)
        cb = build_codebook(cfg, n_dis=8)
        broadside = steering_matrix(cfg, 0.0, float(cb.radii[n // 2, 2]))
        # a codeword plus its mirror, whose best pair is not the odd middle bin
        pair = codeword(cb, CodewordIndex(2, 5)) + codeword(cb, CodewordIndex(n - 1, 5))
        for h in (broadside, pair):
            assert np.array_equal(h, h[::-1])
            # the full grid's product sums each pair in a different order, so
            # its pair ties only to rounding
            scores = np.abs(cb.flat() @ h.conj()).reshape(n, cb.n_dis)
            p, q = np.unravel_index(np.argmax(scores), scores.shape)
            assert scores[n - 1 - p, q] == pytest.approx(scores[p, q], rel=1e-12)
            assert beam_sweep(cb, h) == CodewordIndex(p=min(p, n - 1 - p) + 1, q=q + 1)
        assert 2 * p != n - 1  # the pair channel's best bin is not its own mirror


@pytest.mark.parametrize("n", [16, 32, 33, 48, 64, 100, 128, 256])
def test_beam_sweep_matches_the_full_grid_sweep(n):
    # the oracle is the sweep of the materialized grid: argmax |flat() @ h*|
    cfg = ArrayConfig(n_bs=n)
    cb = build_codebook(cfg)
    hs = np.stack([u.vector for seed in range(100)
                   for u in random_scenario(cfg, 4, 3, seed=seed).users])
    want = np.argmax(np.abs(cb.flat() @ hs.conj().T), axis=0)
    got = [beam_sweep(cb, h) for h in hs]
    assert [(i.p - 1) * cb.n_dis + i.q - 1 for i in got] == want.tolist()


def float64_sweep_scores(cb, hs):
    """(len(hs), P*Q) scores of the channels hs in (p, q) order from float64
    products on the float64 basis, a block of stored bins at a time."""
    n = cb.array.n_bs
    half, pairs = (n + 1) // 2, n // 2
    plus, minus = (np.stack(part) for part in zip(*(nfbf.codebook._halves(h, n) for h in hs)))
    even, odd = [], []
    for lo in range(0, half, 16):
        block = steering_matrix(cb.array, cb.angles[lo : min(lo + 16, half), None],
                                cb.radii[lo : min(lo + 16, half)])
        sums, diffs = whole_grid_basis(block)
        even.append(plus @ sums.reshape(half, -1))
        odd.append(minus @ diffs.reshape(pairs, -1))
    even, odd = np.concatenate(even, axis=1), np.concatenate(odd, axis=1)
    direct = np.abs(even + odd).reshape(len(hs), half, cb.n_dis)
    mirror = np.abs(even - odd).reshape(len(hs), half, cb.n_dis)
    return np.concatenate([direct, mirror[:, : n - half][:, ::-1]], axis=1).reshape(len(hs), -1)


def sweep_channels(cb, seeds):
    """Scenario users of the given seeds, then channels made to test the
    screen's bound: broadside-symmetric, i.i.d. Gaussian, one codeword, and
    a scenario user scaled far below and far above unit size."""
    cfg = cb.array
    n = cfg.n_bs
    users = [u.vector for seed in seeds for u in random_scenario(cfg, 4, 3, seed=seed).users]
    rng = np.random.default_rng(n)
    return users + [
        steering_matrix(cfg, 0.0, float(cb.radii[n // 2, 3])),
        rng.standard_normal(n) + 1j * rng.standard_normal(n),
        np.sqrt(n) * codeword(cb, CodewordIndex(n // 3 + 1, 7)),
        users[0] * 1e-30,
        users[1] * 1e30,
    ]


@pytest.mark.parametrize("n", [16, 33, 63, 64, 128, 255, 256])
def test_sweep_screen_stays_within_its_error_bound(n):
    # every codeword's complex64 screen score lies within E of the float64
    # score of the unrounded basis, 51 channels at each N
    cb = build_codebook(ArrayConfig(n_bs=n))
    hs = sweep_channels(cb, range(100, 112))
    want = float64_sweep_scores(cb, hs)
    for h, w in zip(hs, want):
        got, bound = nfbf.codebook._screen(cb, *nfbf.codebook._halves(h, n))
        assert got.shape == w.shape == (n * cb.n_dis,)
        assert 0 < bound < 1e-3 * w.max()
        assert np.max(np.abs(got - w)) <= bound


@pytest.mark.parametrize("n", [16, 33, 64, 128, 256])
def test_sweep_keeps_few_candidates(n):
    # the screen keeps at least the float64 argmax, and on these seeds no more
    # than a handful of codewords to rescore
    cb = build_codebook(ArrayConfig(n_bs=n))
    counts = []
    for h in sweep_channels(cb, range(200, 250)):
        scores, bound = nfbf.codebook._screen(cb, *nfbf.codebook._halves(h, n))
        counts.append(int(np.count_nonzero(scores >= scores.max() - 2.0 * bound)))
    assert min(counts) >= 1
    assert np.median(counts) == 1
    assert max(counts) <= 64, max(counts)


@pytest.mark.parametrize("wavelength", [1.0, 0.01])
@pytest.mark.parametrize("n", [16, 33, 63, 64, 255, 256])
def test_sweep_basis_within_its_bound(n, wavelength):
    # every entry of the default codebook's basis, against the float64 sums
    # and differences of its steering_matrix codewords
    cfg = ArrayConfig(n_bs=n, wavelength=wavelength)
    cb = build_codebook(cfg)
    half = (n + 1) // 2
    assert_basis_within_its_bound(cb, steering_matrix(cfg, cb.angles[:half, None], cb.radii[:half]))


def test_sweep_basis_within_its_bound_at_the_largest_radii():
    # ring q's radius does not depend on n_dis, so a 4-ring codebook holds the
    # default codebook's four largest rings, whose phases the float64 terms
    # of the bound grow with
    cfg = ArrayConfig(n_bs=1024)
    cb = build_codebook(cfg, n_dis=4)
    assert cb.radii.max() > 5e4
    tol = cb.basis_error * 2.0 / np.sqrt(cfg.n_bs)
    for lo in range(0, 512, 128):
        block = steering_matrix(cfg, cb.angles[lo : lo + 128, None], cb.radii[lo : lo + 128])
        for got, want in zip((cb.sums, cb.diffs), whole_grid_basis(block)):
            assert np.max(np.abs(got[:, lo : lo + 128] - want)) <= tol


def test_sweep_rescores_only_several_candidates(monkeypatch):
    # a lone candidate is the float64 first maximum, returned with no
    # steering_matrix call; a broadside-symmetric channel keeps a mirror pair
    # and is rescored
    cfg = ArrayConfig(n_bs=64)
    cb = build_codebook(cfg)
    calls = []
    real = nfbf.codebook.steering_matrix
    monkeypatch.setattr(nfbf.codebook, "steering_matrix",
                        lambda *args: calls.append(args) or real(*args))
    user = random_scenario(cfg, 4, 3, seed=7).users[0].vector
    best = int(np.argmax(np.abs(cb.flat() @ user.conj())))
    broadside = steering_matrix(cfg, 0.0, float(cb.radii[32, 3]))
    # bins 32 and 33 flank broadside and tie exactly; the smaller p wins
    for h, rescores, want in ((user, 0, CodewordIndex(best // 320 + 1, best % 320 + 1)),
                              (broadside, 1, CodewordIndex(32, 4))):
        scores, bound = nfbf.codebook._screen(cb, *nfbf.codebook._halves(h, 64))
        kept = np.flatnonzero(scores >= scores.max() - 2.0 * bound)
        assert (kept.size > 1) == rescores
        calls.clear()
        assert beam_sweep(cb, h) == want
        assert len(calls) == rescores


def test_beam_sweep_zero_channel_error():
    cb = build_codebook(ArrayConfig(n_bs=4), n_dis=2)
    with pytest.raises(ValueError, match="zero channel"):
        beam_sweep(cb, np.zeros(4, dtype=complex))
    for bad in (np.nan, np.inf, complex(0, -np.inf)):
        with pytest.raises(ValueError, match="non-finite channel"):
            beam_sweep(cb, np.array([1.0, bad, 1.0, 1.0]))


def test_auxiliary_points_r1_keeps_codebook_angle():
    cfg = ArrayConfig(n_bs=16)
    cb = build_codebook(cfg, n_dis=10)
    grid = auxiliary_points(cb, CodewordIndex(p=7, q=4), r_count=1, s_count=3)
    assert grid.angles.shape == (1,)
    assert float(grid.angles[0]) == pytest.approx(float(cb.angles[6]), rel=1e-15)


def test_auxiliary_angles_refine_the_bin():
    # N=4, R=2, p=1: refined sines are (2p_hat - 1)/8 - 1 for p_hat in {1, 2}
    cfg = ArrayConfig(n_bs=4)
    cb = build_codebook(cfg, n_dis=4)
    grid = auxiliary_points(cb, CodewordIndex(p=1, q=2), r_count=2, s_count=1)
    assert grid.angles == pytest.approx(
        [-1.0654358165107394, -0.6751315329370317], rel=1e-15
    )
    # both refined angles stay inside the parent sin-domain cell
    for n in (4, 16):
        cbn = build_codebook(ArrayConfig(n_bs=n), n_dis=4)
        for p in (1, n // 2, n):
            g = auxiliary_points(cbn, CodewordIndex(p=p, q=2), r_count=4, s_count=1)
            lo = (2.0 * p - 2.0) / n - 1.0
            hi = (2.0 * p) / n - 1.0
            assert np.all(np.sin(g.angles) >= lo - 1e-12)
            assert np.all(np.sin(g.angles) <= hi + 1e-12)


def test_auxiliary_radii_interior_ring_reciprocal_cell():
    # q=3: cell spans reciprocal midpoints toward q=4 and q=2, i.e. [7/24, 5/12]
    cfg = ArrayConfig(n_bs=16)
    cb = build_codebook(cfg, n_dis=10)
    idx = CodewordIndex(p=8, q=3)
    grid = auxiliary_points(cb, idx, r_count=1, s_count=2)
    sin_a = np.sin(grid.angles[0])
    c = float(ring_radius(cb.array, sin_a, 1, cb.beta))
    v = grid.radii[0] / c
    assert v == pytest.approx([0.32291666666666663, 0.38541666666666663], rel=1e-12)
    assert np.all(v > 1.0 / 4.0) and np.all(v < 1.0 / 2.0)


def test_auxiliary_radii_outermost_ring_extends_to_boundary():
    # q=1 has no outer neighbor; its reciprocal cell reaches 8*beta^2 - 1 so
    # that at broadside the outer edge midpoint (1 + a_outer)/2 = 4*beta^2
    # maps exactly to the near-field boundary 2 N^2 d^2 / wavelength
    cfg = ArrayConfig(n_bs=4)
    cb = build_codebook(cfg, n_dis=4, beta=1.6)
    grid = auxiliary_points(cb, CodewordIndex(p=1, q=1), r_count=1, s_count=2)
    assert grid.radii[0] == pytest.approx(
        [1.0672607421875, 2.6890869140625], rel=1e-12
    )
    # broadside check on an even array: use the cell edge identity directly
    beta = 1.6
    a_outer = 8.0 * beta**2 - 1.0
    edge_v = (1.0 + a_outer) / 2.0
    cfg64 = ArrayConfig(n_bs=64)
    edge_radius = float(ring_radius(cfg64, 0.0, 1.0 / edge_v, beta))
    assert edge_radius == pytest.approx(rayleigh_distance(cfg64), rel=1e-12)


def test_auxiliary_radii_positive_and_ordered():
    cfg = ArrayConfig(n_bs=64)
    cb = build_codebook(cfg)
    for q in (1, 2, 160, 320):
        grid = auxiliary_points(cb, CodewordIndex(p=20, q=q), r_count=4, s_count=4)
        assert np.all(grid.radii > 0)
        # reciprocal-domain points increase with s, so radii increase too
        assert np.all(np.diff(grid.radii, axis=1) > 0)
    with pytest.raises(ValueError):
        auxiliary_points(cb, CodewordIndex(p=20, q=2), 0, 4)
    with pytest.raises(ValueError):
        auxiliary_points(cb, CodewordIndex(p=20, q=2), 4, 0)
    with pytest.raises(ValueError):
        auxiliary_points(cb, CodewordIndex(p=65, q=2), 4, 4)


def test_auxiliary_grid_locations_row_major():
    # the R*S points of a grid run row-major: row r*S + s of its steering
    # stack is the point (angles[r], radii[r, s]), bit for bit
    cfg = ArrayConfig(n_bs=16)
    cb = build_codebook(cfg, n_dis=10)
    grid = auxiliary_points(cb, CodewordIndex(p=5, q=4), r_count=2, s_count=3)
    assert grid.angles.shape == (2,) and grid.radii.shape == (2, 3)
    (mat,) = approximate_channel_matrices(cb, [grid])
    assert mat.shape == (6, 16)
    k = 0
    for r in range(2):
        for s in range(3):
            assert np.array_equal(mat[k], steering_matrix(cfg, grid.angles[r], grid.radii[r, s]))
            k += 1


def test_approximate_channel_matrices_pointwise():
    cfg = ArrayConfig(n_bs=16)
    cb = build_codebook(cfg, n_dis=10)
    g1 = auxiliary_points(cb, CodewordIndex(p=3, q=2), r_count=2, s_count=2)
    g2 = auxiliary_points(cb, CodewordIndex(p=12, q=7), r_count=3, s_count=1)
    mats = approximate_channel_matrices(cb, [g1, g2])
    assert len(mats) == 2
    assert mats[0].shape == (4, 16)
    assert mats[1].shape == (3, 16)
    for mat, grid in zip(mats, [g1, g2]):
        for row, (r, s) in zip(mat, np.ndindex(grid.radii.shape), strict=True):
            want = steering_matrix(cfg, grid.angles[r], grid.radii[r, s])
            assert np.allclose(row, want, rtol=0, atol=1e-13)
    with pytest.raises(ValueError):
        approximate_channel_matrices(cb, [])


def test_export_codebook_csv(tmp_path):
    cfg = ArrayConfig(n_bs=4, wavelength=2.0)
    cb = build_codebook(cfg, n_dis=3)
    path = tmp_path / "cb.csv"
    export_codebook_csv(cb, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "q", "angle_rad", "radius_wavelengths"]
    assert len(rows) == 1 + 12
    assert rows[1][0] == "1" and rows[1][1] == "1"
    assert float(rows[1][2]) == pytest.approx(float(cb.angles[0]), rel=1e-15)
    assert float(rows[1][3]) == pytest.approx(float(cb.radii[0, 0]) / 2.0, rel=1e-15)


def test_default_codebook_spans_near_field():
    cfg = ArrayConfig(n_bs=64)
    cb = build_codebook(cfg)
    assert cb.n_dis == 320 and cb.beta == 1.6
    # broadside column: outermost ring at 200 wavelengths, innermost well
    # inside the array near field
    mid = 32  # angles[31] and angles[32] straddle broadside for even N
    assert float(np.sin(cb.angles[mid])) == pytest.approx(1.0 / 64.0, abs=1e-12)
    r = cb.radii[mid]
    assert float(r[0]) == pytest.approx(200.0 * (1 - 1.0 / 64.0**2), rel=1e-12)
    assert float(r[-1]) == pytest.approx(r[0] / 320.0, rel=1e-12)


def test_sweep_rejects_a_grid_only_codebook():
    cfg = ArrayConfig(n_bs=16)
    cb = build_codebook(cfg, n_dis=10)
    h = codeword(cb, CodewordIndex(3, 4))
    for grid in (cb.without_basis(), codebook_grid(cfg, n_dis=10)):
        with pytest.raises(ValueError, match="without its sweep basis"):
            beam_sweep(grid, h)
    assert beam_sweep(cb, h) == CodewordIndex(3, 4)


def test_grid_only_codebooks_share_the_full_codebooks_grid():
    # without_basis shares the arrays themselves; codebook_grid makes the same
    # bits anew; both stay read-only and hold no basis
    cfg = ArrayConfig(n_bs=16)
    cb = build_codebook(cfg, n_dis=10)
    shared = cb.without_basis()
    assert shared.angles is cb.angles and shared.radii is cb.radii
    made = codebook_grid(cfg, n_dis=10)
    assert np.array_equal(made.angles, cb.angles) and np.array_equal(made.radii, cb.radii)
    for grid in (shared, made):
        assert (grid.array, grid.n_dis, grid.beta) == (cfg, 10, cb.beta)
        assert grid.sums is None and grid.diffs is None
        for field in ("angles", "radii"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(grid, field)[0] = 0
    assert cb.sums is not None and cb.diffs is not None  # the full codebook keeps its basis
    with pytest.raises(ValueError):
        codebook_grid(cfg, n_dis=0)
    with pytest.raises(ValueError):
        codebook_grid(cfg, beta=0.0)


@pytest.mark.parametrize("n", [16, 33, 64])
def test_grid_only_designs_equal_the_full_codebooks_bit_for_bit(n):
    # every design reads only the grid: imperfect MM, imperfect steering,
    # auxiliary grids, their steering stacks and codewords are the same bits
    # from either grid-only form as from the full codebook
    cfg = ArrayConfig(n_bs=n)
    cb = build_codebook(cfg, n_dis=40)
    indices = [[beam_sweep(cb, u.vector) for u in random_scenario(cfg, 2, 2, seed).users]
               for seed in range(2)]
    flat = [idx for trial in indices for idx in trial]
    mm = MMConfig(t_max=20)
    want_mm, _ = aobf_imperfect_csi(cb, indices, 2, 2, mm)
    want_aux = [auxiliary_points(cb, idx, 2, 3) for idx in flat]
    for grid in (cb.without_basis(), codebook_grid(cfg, n_dis=40)):
        got_mm, _ = aobf_imperfect_csi(grid, indices, 2, 2, mm)
        assert np.array_equal(got_mm.matrix, want_mm.matrix)
        for trial in indices:
            assert np.array_equal(analog_beam_steering("imperfect", cb=grid, indices=trial).matrix,
                                  analog_beam_steering("imperfect", cb=cb, indices=trial).matrix)
        got_aux = [auxiliary_points(grid, idx, 2, 3) for idx in flat]
        for got, want in zip(got_aux, want_aux, strict=True):
            assert np.array_equal(got.angles, want.angles)
            assert np.array_equal(got.radii, want.radii)
        for got, want in zip(approximate_channel_matrices(grid, got_aux),
                             approximate_channel_matrices(cb, want_aux), strict=True):
            assert np.array_equal(got, want)
        assert np.array_equal(grid.codewords_at(flat), cb.codewords_at(flat))
        assert np.array_equal(grid.flat(), cb.flat())
