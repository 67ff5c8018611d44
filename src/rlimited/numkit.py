"""Shared numerics: stable special functions, point sets, sampled fields.

Everything here is pure and safe to call from any thread.
"""
from __future__ import annotations

import numpy as np
from dataclasses import dataclass, field

# Below this the direct formulas lose digits to cancellation; degree-10
# Taylor polynomials are exact to < 1e-14 there.
_SERIES_CUT = 1e-3


def sinc(x):
    """sin(x)/x with the removable singularity filled in; sinc(0) = 1.

    Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) <= _SERIES_CUT
    xs = np.where(small, 1.0, x)  # keeps the direct branch NaN-free
    x2 = x * x
    series = 1.0 + x2 * (-1.0 / 6.0 + x2 * (1.0 / 120.0 + x2 * (
        -1.0 / 5040.0 + x2 * (1.0 / 362880.0 - x2 / 39916800.0))))
    out = np.where(small, series, np.sin(xs) / xs)
    return float(out) if out.ndim == 0 else out


def cosinc(x):
    """(1 - cos x)/x, the odd companion of sinc; cosinc(0) = 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) <= _SERIES_CUT
    xs = np.where(small, 1.0, x)
    x2 = x * x
    series = x * (0.5 + x2 * (-1.0 / 24.0 + x2 * (1.0 / 720.0 + x2 * (
        -1.0 / 40320.0 + x2 / 3628800.0))))
    out = np.where(small, series, (1.0 - np.cos(xs)) / xs)
    return float(out) if out.ndim == 0 else out


def expc(z):
    """(e^z - 1)/z for complex z; expc(0) = 1.

    Satisfies expc(ix) = sinc(x) + i*cosinc(x) for real x.
    """
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) <= _SERIES_CUT
    zs = np.where(small, 1.0, z)
    # Horner for sum_{k=0..10} z^k/(k+1)!
    series = 1.0 + z * (1.0 / 2.0 + z * (1.0 / 6.0 + z * (1.0 / 24.0 + z * (
        1.0 / 120.0 + z * (1.0 / 720.0 + z * (1.0 / 5040.0 + z * (
            1.0 / 40320.0 + z * (1.0 / 362880.0 + z * (
                1.0 / 3628800.0 + z / 39916800.0)))))))))
    out = np.where(small, series, (np.exp(zs) - 1.0) / zs)
    return complex(out) if out.ndim == 0 else out


def power_exp_integral(k: int, z) -> complex:
    """∫₀¹ v^k e^{z v} dv for complex z.

    Series for |z| <= 8, upward recurrence from expc above.  For purely
    imaginary z the magnitude is bounded by 1/(k+1), which keeps the
    recurrence well behaved for the small k used here.
    """
    z = complex(z)
    if abs(z) <= 8.0:
        term = 1.0 + 0.0j
        total = term / (k + 1)
        j = 0
        while j < 300:
            j += 1
            term *= z / j
            c = term / (k + j + 1)
            total += c
            if abs(c) <= 1e-17 * max(1.0, abs(total)) and j > 3:
                break
        return total
    ez = np.exp(z)
    val = (ez - 1.0) / z
    for i in range(1, k + 1):
        val = (ez - i * val) / z
    return complex(val)


@dataclass(frozen=True)
class PointSet:
    """A finite list of points in R^d, shape (n, d); a scalar or 1-D array
    holds one-dimensional points."""
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim < 2:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise ValueError("points must have shape (n, d), got %r"
                             % (pts.shape,))
        if not np.isfinite(pts).all():
            raise ValueError("PointSet contains non-finite coordinates")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class SampledField:
    """Complex values attached to an explicit point set."""
    points: PointSet
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex).ravel()
        if len(vals) != len(self.points):
            raise ValueError("values/points length mismatch: %d vs %d"
                             % (len(vals), len(self.points)))
        if not np.isfinite(vals).all():
            raise ValueError("SampledField contains non-finite values")
        self.values = vals


def make_grid(lo, hi, counts) -> PointSet:
    """Tensor-product uniform grid including both endpoints."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    counts = np.atleast_1d(np.asarray(counts, dtype=int))
    if not (len(lo) == len(hi) == len(counts)):
        raise ValueError("lo/hi/counts dimension mismatch")
    if np.any(hi <= lo):
        raise ValueError("need lo < hi componentwise")
    if np.any(counts < 2):
        raise ValueError("need at least 2 points per axis")
    axes = [np.linspace(lo[i], hi[i], counts[i]) for i in range(len(lo))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return PointSet(np.stack([m.ravel() for m in mesh], axis=-1))


def grid_axes(points: np.ndarray, tol: float = 1e-9):
    """Recover per-axis coordinates of a tensor grid from its flat point list.

    Raises if the points are not a full tensor product (row-major order not
    required; membership is what is checked).
    """
    pts = np.atleast_2d(points)
    axes = []
    for d in range(pts.shape[1]):
        col = np.sort(np.unique(pts[:, d]))
        # collapse float-fuzzy duplicates
        keep = [col[0]]
        for v in col[1:]:
            if v - keep[-1] > tol * max(1.0, abs(v)):
                keep.append(v)
        axes.append(np.asarray(keep))
    n_expect = int(np.prod([len(a) for a in axes]))
    if n_expect != len(pts):
        raise ValueError("points do not form a tensor grid "
                         "(%d points vs %d grid slots)" % (len(pts), n_expect))
    return axes


def write_field_csv(fld: SampledField, path) -> None:
    """CSV layout: header 'dim,n_points', its values, then x1..xd,re,im rows."""
    pts = fld.points.points
    with open(path, "w") as fh:
        fh.write("dim,n_points\n")
        fh.write("%d,%d\n" % (pts.shape[1], pts.shape[0]))
        for row, v in zip(pts, fld.values):
            coords = ",".join("%.17g" % c for c in row)
            fh.write("%s,%.17g,%.17g\n" % (coords, v.real, v.imag))


def read_field_csv(path, label: str = "") -> SampledField:
    with open(path) as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "dim,n_points":
            raise ValueError("bad field CSV header: %r" % header)
        dim, n = (int(t) for t in fh.readline().split(","))
        pts = np.empty((n, dim))
        vals = np.empty(n, dtype=complex)
        for i in range(n):
            parts = fh.readline().split(",")
            if len(parts) != dim + 2:
                raise ValueError("row %d has %d columns, expected %d"
                                 % (i + 3, len(parts), dim + 2))
            pts[i] = [float(t) for t in parts[:dim]]
            vals[i] = complex(float(parts[dim]), float(parts[dim + 1]))
    return SampledField(PointSet(pts), vals, label=label)
