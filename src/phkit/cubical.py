"""Cubical sublevel filtrations from bitmaps, plus the signed distance map.

Voxels are the top-dimensional cubes and carry their own gray value; every
lower cube gets the minimum over the voxels containing it, so the prefix
at level t covers exactly the voxels with value <= t. Binary bitmaps are
turned into gray ones by the signed Euclidean distance transform: negative
inside the object, positive outside, growing the object from its core.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from scipy import ndimage

from .complexes import CELL_CAP, Filtration, _assemble
from .errors import TooLarge, UniformBitmap


class Bitmap:
    """A rank >= 1 array of voxel values, grayscale or boolean."""

    def __init__(self, values):
        arr = np.asarray(values)
        if arr.ndim < 1 or arr.size == 0:
            raise ValueError("bitmap must have rank >= 1 and be non-empty")
        self.binary = arr.dtype == bool
        if not self.binary:
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            if not np.isfinite(arr).all():
                raise ValueError("bitmap values must be finite")
        self.values = arr

    @property
    def shape(self):
        return self.values.shape

    def __repr__(self):
        kind = "binary" if self.binary else "grayscale"
        return f"Bitmap(shape={self.shape}, {kind})"


def _min_pool(arr: np.ndarray, axis: int) -> np.ndarray:
    """Min over each adjacent voxel pair along axis, edges clamped.

    Output is one longer along the axis: entry a is the minimum of the
    voxels at a-1 and a, clipped to the array.
    """
    width = [(0, 0)] * arr.ndim
    width[axis] = (1, 0)
    lo = np.pad(arr, width, mode="edge")
    width[axis] = (0, 1)
    hi = np.pad(arr, width, mode="edge")
    return np.minimum(lo, hi)


def cubical_filtration(bitmap) -> Filtration:
    """Sublevel filtration of a grayscale bitmap (voxels = top cubes).

    Raises TooLarge, before any cell is made, when the bitmap's
    prod(2 n_i + 1) cubes pass complexes.CELL_CAP.
    """
    if not isinstance(bitmap, Bitmap):
        bitmap = Bitmap(bitmap)
    cells = math.prod(2 * s + 1 for s in bitmap.shape)
    if cells > CELL_CAP:
        raise TooLarge(f"a bitmap of shape {bitmap.shape} has {cells} cubes; "
                       f"filtrations hold at most {CELL_CAP} cells")
    vals = bitmap.values.astype(np.float64)
    k = vals.ndim
    shape = vals.shape
    extents = list(product((1, 0), repeat=k))
    # cubes of one extent form a block of anchors; a dimension's rows are
    # its blocks in this order
    block_shape = {e: tuple(s + 1 - x for s, x in zip(shape, e))
                   for e in extents}
    offset, rows_in_dim = {}, [0] * (k + 1)
    for e in extents:
        offset[e] = rows_in_dim[sum(e)]
        rows_in_dim[sum(e)] += math.prod(block_shape[e])
    tables = {d: np.empty((m, 2 * k), dtype=np.int64)
              for d, m in enumerate(rows_in_dim)}
    values = {d: np.empty(m) for d, m in enumerate(rows_in_dim)}
    facets = {d: np.empty((m, 2 * d), dtype=np.int64)
              for d, m in enumerate(rows_in_dim) if d}
    for extent in extents:
        arr = vals
        for axis in range(k):
            if extent[axis] == 0:
                arr = _min_pool(arr, axis)
        d = sum(extent)
        block = slice(offset[extent], offset[extent] + arr.size)
        grid = np.indices(arr.shape)
        tables[d][block, :k] = grid.reshape(k, -1).T
        tables[d][block, k:] = extent
        values[d][block] = arr.ravel()
        # the two facets along an extended axis: same anchor, and one step
        # up that axis, in the block with the axis collapsed
        for slot, axis in enumerate(np.flatnonzero(extent)):
            face = extent[:axis] + (0,) + extent[axis + 1:]
            fshape = block_shape[face]
            lo = offset[face] + np.ravel_multi_index(grid, fshape).ravel()
            facets[d][block, 2 * slot] = lo
            lo += math.prod(fshape[axis + 1:])
            facets[d][block, 2 * slot + 1] = lo
    return _assemble("cubical", tables, values, facets)


def distance_transform(bitmap, positive_inside: bool = False) -> Bitmap:
    """Signed exact Euclidean distance map of a binary bitmap.

    Foreground voxels get minus their distance to the nearest background
    voxel center, background voxels plus their distance to the nearest
    foreground; positive_inside flips the sign convention.
    """
    if not isinstance(bitmap, Bitmap):
        bitmap = Bitmap(bitmap)
    fg = bitmap.values.astype(bool)
    if fg.all() or not fg.any():
        raise UniformBitmap("bitmap has a single phase")
    inside = ndimage.distance_transform_edt(fg)
    outside = ndimage.distance_transform_edt(~fg)
    signed = outside - inside
    if positive_inside:
        signed = -signed
    return Bitmap(signed)
