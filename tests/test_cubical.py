import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from phkit import compute_persistence, oracle_persistence
from phkit.complexes import CELL_CAP
from phkit.cubical import Bitmap, cubical_filtration, distance_transform
from phkit.errors import TooLarge, UniformBitmap


def test_two_voxel_strip():
    f = cubical_filtration(np.array([1.0, 5.0]))
    assert [int((f.dims == d).sum()) for d in range(2)] == [3, 2]
    assert np.allclose(np.sort(f.values[f.dims == 0]), [1, 1, 5])
    assert np.allclose(np.sort(f.values[f.dims == 1]), [1, 5])
    _, diagrams = compute_persistence(f)
    diagrams[0].sort()
    assert diagrams[0].pairs == [(1.0, np.inf)]


def test_ring_bitmap_hole():
    img = np.zeros((3, 3))
    img[1, 1] = 9.0
    f = cubical_filtration(img)
    _, diagrams = compute_persistence(f)
    diagrams[1].sort()
    assert diagrams[1].pairs == [(0.0, 9.0)]
    assert diagrams[0].pairs == [(0.0, np.inf)]


def test_constant_bitmap():
    f = cubical_filtration(np.full((4, 4), 2.5))
    _, diagrams = compute_persistence(f)
    assert diagrams[0].pairs == [(2.5, np.inf)]
    assert all(len(d) == 0 for d in diagrams[1:])


def test_cell_counts_2d():
    r, c = 3, 5
    f = cubical_filtration(np.zeros((r, c)))
    counts = [int((f.dims == d).sum()) for d in range(3)]
    assert counts == [(r + 1) * (c + 1), r * (c + 1) + c * (r + 1), r * c]


def test_cell_counts_3d_and_euler():
    f = cubical_filtration(np.zeros((2, 2, 2)))
    counts = [int((f.dims == d).sum()) for d in range(4)]
    assert counts == [27, 54, 36, 8]
    assert counts[0] - counts[1] + counts[2] - counts[3] == 1


def test_values_are_min_over_incident_voxels():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 5, size=(4, 3)).astype(float)
    f = cubical_filtration(img)
    for i in range(len(f)):
        cube = f.cell(i)
        lo = []
        for voxel in product(*[
            range(max(0, a - (1 - e)), min(s, a + 1))
            for a, e, s in zip(cube.anchor, cube.extent, img.shape)
        ]):
            lo.append(img[voxel])
        assert f.values[i] == min(lo)


def test_prefix_covers_sublevel_voxels():
    rng = np.random.default_rng(7)
    img = rng.integers(0, 4, size=(3, 3)).astype(float)
    f = cubical_filtration(img)
    for t in [0.0, 1.0, 2.0, 3.0]:
        k = f.prefix_length(t)
        tops = {f.cell(i).anchor for i in range(k)
                if f.cell(i).dimension == 2}
        want = {tuple(v) for v in np.argwhere(img <= t)}
        assert tops == want


def test_matches_rank_oracle_on_random_bitmaps():
    rng = np.random.default_rng(21)
    for _ in range(6):
        img = rng.integers(0, 3, size=(4, 4)).astype(float)
        f = cubical_filtration(img)
        _, engine = compute_persistence(f)
        oracle = oracle_persistence(f)
        for pd_e, pd_o in zip(engine, oracle):
            pd_e.sort()
            pd_o.sort()
            assert np.array_equal(pd_e.pairs, pd_o.pairs)


def test_build_peak_memory_stays_near_the_result():
    # the traced peak of a build against the bytes its filtration holds:
    # about 1.55x when _assemble frees the builder's values and facets as
    # it consumes them; 1.8x when they lived to the end of the build, and
    # sorted copies of the cell tables reached 2.2x
    vol = np.random.default_rng(3).random((16, 16, 16))
    cubical_filtration(vol)
    tracemalloc.start()
    try:
        f = cubical_filtration(vol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bm = f.boundary_matrix()
    held = sum(a.nbytes for a in (f.dims, f.values, f._rows, bm.indptr,
                                  bm.indices, *f._tables.values()))
    assert peak < 1.7 * held


def test_cell_cap_is_checked_before_any_cube_is_made():
    # 4,096 voxels of rank 12 make 5**12 = 244M cubes
    vol = np.zeros((2,) * 12)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            cubical_filtration(vol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the baseline's 64^3 volume stays well under the cap
    assert math.prod(2 * s + 1 for s in (64, 64, 64)) < CELL_CAP / 4


def test_distance_transform_1d_examples():
    out = distance_transform(np.array([False, True, False]))
    assert np.allclose(out.values, [1.0, -1.0, 1.0])
    out = distance_transform(np.array([True, True, False, False]))
    assert np.allclose(out.values, [-2.0, -1.0, 1.0, 2.0])


def test_distance_transform_sign_flip():
    base = distance_transform(np.array([True, False]))
    flipped = distance_transform(np.array([True, False]),
                                 positive_inside=True)
    assert np.allclose(flipped.values, -base.values)


def test_distance_transform_uniform_rejected():
    with pytest.raises(UniformBitmap):
        distance_transform(np.ones((3, 3), dtype=bool))
    with pytest.raises(UniformBitmap):
        distance_transform(np.zeros(5, dtype=bool))


def brute_signed_edt(fg):
    coords = np.argwhere(np.ones_like(fg, dtype=bool)).astype(float)
    fg_flat = fg.ravel()
    out = np.empty(fg.size)
    for k, c in enumerate(coords):
        opposite = coords[fg_flat != fg_flat[k]]
        d = np.sqrt(((opposite - c) ** 2).sum(axis=1)).min()
        out[k] = -d if fg_flat[k] else d
    return out.reshape(fg.shape)


def test_distance_transform_matches_brute_force():
    rng = np.random.default_rng(12)
    shapes = [(9,), (6, 7), (4, 5, 4)]
    for shape in shapes:
        for _ in range(3):
            fg = rng.random(shape) < 0.4
            if fg.all() or not fg.any():
                continue
            out = distance_transform(fg).values
            assert np.allclose(out, brute_signed_edt(fg), atol=1e-9)


def test_bitmap_validation():
    with pytest.raises(ValueError):
        Bitmap(np.zeros(0))
    with pytest.raises(ValueError):
        Bitmap(np.array([np.inf, 1.0]))
    b = Bitmap(np.array([True, False]))
    assert b.binary


def test_bitmap_repr():
    assert repr(Bitmap(np.zeros((2, 3)))) == \
        "Bitmap(shape=(2, 3), grayscale)"
    assert repr(Bitmap(np.ones(4, dtype=bool))) == \
        "Bitmap(shape=(4,), binary)"
