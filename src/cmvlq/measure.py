"""Equal-weight particle measures on R^d and their moments.

A measure is a cloud of N points, each carrying weight 1/N.  The value
and the lifted costs of the LQ theory depend on a cloud only through its
mean and second moment, exact finite sums over the particles, so identity
checks downstream carry no quadrature error.  Functions on raw arrays take
a stack of clouds (..., N, d) and reduce each cloud alone.

Reductions over the particle index always go through ``tree_sum``, numpy's
pairwise tree over a C-contiguous last axis, fixed by the row length alone
(not by threading, alignment or the other rows of a stack).  Moments are
taken of coordinate rows (``row_moments``), one contiguous reduction for
the coordinates and their products x_i x_j, i <= j, in ``triu`` order.
So a cloud's moments are the same bits whatever stack it sits in.
"""

from __future__ import annotations

from functools import cache

import numpy as np


def tree_sum(a, axis=0):
    """Sum along `axis` with numpy's pairwise tree.

    np.add.reduce sums a contiguous last axis pairwise: up to 128 elements
    in 8 interleaved accumulators, above that split at n/2 rounded down to
    a multiple of 8.  Over any other axis, or a strided one, it adds in
    sequence, so `axis` is moved last and copied unless already C-contiguous.
    """
    w = np.asarray(a, dtype=np.float64)
    w = w if axis in (-1, w.ndim - 1) else np.moveaxis(w, axis, -1)
    return np.add.reduce(np.ascontiguousarray(w), axis=-1)


def tree_mean(a, axis=0):
    return tree_sum(a, axis=axis) / np.shape(a)[axis]


def moments(x):
    """Mean (..., d) and second moment (..., d(d+1)/2) of the clouds x (..., N, d).

    Copies the coordinates into rows and reduces them with row_moments, so
    the mean is tree_mean(x, axis=-2)'s bits.
    """
    *lead, n, d = x.shape
    rows = np.empty((d + d * (d + 1) // 2, *lead, n))
    rows[:d] = np.moveaxis(x, -1, 0)
    return row_moments(rows, d)


@cache
def triu(d):
    """np.triu_indices(d), read-only and made once per d: the order of a second moment's entries."""
    iu = np.triu_indices(d)
    for a in iu:
        a.setflags(write=False)
    return iu


def row_moments(rows, d, last=False):
    """Mean (..., d) and second moment (..., d(d+1)/2) of clouds held as coordinate rows.

    rows (d + d(d+1)/2, ..., N) holds the d coordinates first, or last with
    `last`; the other rows are filled with the products x_i x_j, i <= j, in
    triu(d) order, one multiply per i, and one tree_sum gives both.
    """
    c, r = (len(rows) - d, 0) if last else (0, d)
    for i in range(d):
        np.multiply(rows[c + i:c + i + 1], rows[c + i:c + d], out=rows[r:r + d - i])
        r += d - i
    s = tree_sum(rows, axis=-1)
    s = np.divide(s.transpose(*range(1, s.ndim), 0), rows.shape[-1],
                  out=np.empty(s.shape[1:] + s.shape[:1]))
    return (s[..., c:], s[..., :c]) if last else (s[..., :d], s[..., d:])


class EmpiricalMeasure:
    """Equal-weight cloud of N >= 1 points in R^d.

    Points are copied and frozen at construction; instances are immutable
    and safe to share.
    """

    __slots__ = ("points",)

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must be an (N, d) array with N, d >= 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("particle cloud contains non-finite coordinates")
        pts = pts.copy()
        pts.setflags(write=False)
        self.points = pts

    @classmethod
    def _wrap(cls, pts):
        # internal: adopt an already-validated float64 (N, d) array, no copy
        obj = object.__new__(cls)
        pts.setflags(write=False)
        object.__setattr__(obj, "points", pts)
        return obj

    def __setattr__(self, name, value):
        if not hasattr(self, "points"):
            object.__setattr__(self, name, value)
        else:
            raise AttributeError("EmpiricalMeasure is immutable")

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


def mean(mu):
    """Particle mean of the measure mu."""
    return tree_mean(mu.points, axis=0)


def load_csv(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"empty particle file: {path}")
    header = lines[0].split(",")
    if header[0] != "x0":
        raise ValueError(f"bad particle file header: {lines[0]!r}")
    pts = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    arr = np.asarray(pts, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != len(header):
        raise ValueError("particle file rows do not match header width")
    return EmpiricalMeasure(arr)
