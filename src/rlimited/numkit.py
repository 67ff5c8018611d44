"""Shared numerics: stable special functions, point sets, sampled fields,
and the artifact codec (JSON and CSV text).

Everything here is pure and safe to call from any thread.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

# Below this the direct formulas lose digits to cancellation; degree-10
# Taylor polynomials are exact to < 1e-14 there.
_SERIES_CUT = 1e-3


def _scalar(out):
    """A 0-d result as the Python scalar of its dtype; arrays pass."""
    return out.item() if out.ndim == 0 else out


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
    return _scalar(out)


def cosinc(x):
    """(1 - cos x)/x, the odd companion of sinc; cosinc(0) = 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) <= _SERIES_CUT
    xs = np.where(small, 1.0, x)
    x2 = x * x
    series = x * (0.5 + x2 * (-1.0 / 24.0 + x2 * (1.0 / 720.0 + x2 * (
        -1.0 / 40320.0 + x2 / 3628800.0))))
    out = np.where(small, series, 2.0 * np.sin(0.5 * xs) ** 2 / xs)
    return _scalar(out)


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
    return _scalar(out)


def power_exp_integral(k, z):
    """I_k(z) = ∫₀¹ v^k e^{z v} dv for complex z, elementwise.

    k is a non-negative int or an int array broadcast against z
    (ValueError otherwise); scalar k and z give a Python complex.  For
    |z| <= 8 the series sum_j z^j / (j! (k+j+1)) stops at a term below
    1e-17 of the total (4 to 300 terms), real and imaginary parts kept in
    a scalar complex loop's order of operations, so each element gets
    that loop's bits.  Above 8 the upward recurrence from expc, which is
    well behaved for imaginary z (|I_k| <= 1/(k+1)) and small k.
    """
    ks = np.asarray(k)
    if ks.dtype.kind not in "iu" or np.any(ks < 0):
        raise ValueError("k must be a non-negative int, got %r" % (k,))
    k, z = np.broadcast_arrays(ks, np.asarray(z, dtype=complex))
    out = np.empty(z.shape, dtype=complex)
    near = np.hypot(z.real, z.imag) <= 8.0
    zf, kf = z[~near], k[~near]
    ez = np.exp(zf)
    val = (ez - 1.0) / zf
    for i in range(1, int(kf.max(initial=0)) + 1):
        val = np.where(kf >= i, (ez - i * val) / zf, val)
    out[~near] = val
    flat, live = out.reshape(-1), np.flatnonzero(near)
    zr, zi, d = z.real[near], z.imag[near], k[near] + 1.0
    tr, ti = np.ones(live.size), np.zeros(live.size)
    sr, si = tr / d, ti / d
    for j in range(1, 301):
        wr, wi = zr / j, zi / j
        tr, ti = tr * wr - ti * wi, tr * wi + ti * wr
        d += 1.0
        cr, ci = tr / d, ti / d
        sr += cr
        si += ci
        if j > 3:   # an element leaves `live` at its own stop test
            done = np.hypot(cr, ci) <= 1e-17 * np.fmax(1.0, np.hypot(sr, si))
            if done.any():
                idx = live[done]
                flat.real[idx], flat.imag[idx] = sr[done], si[done]
                live, zr, zi, d, tr, ti, sr, si = (
                    x[~done] for x in (live, zr, zi, d, tr, ti, sr, si))
            if not live.size:
                break
    flat.real[live], flat.imag[live] = sr, si
    return _scalar(out)


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
    """Recover a tensor grid from its flat point list: (axes, slot), the
    sorted coordinates of each axis and each point's row-major index into
    the grid.  Row order is free, but every slot must hold exactly one
    point; a missing, extra or duplicated point raises ValueError.
    """
    pts = np.atleast_2d(points)
    axes, idx = [], []
    for col in pts.T:
        order = np.argsort(col, kind="stable")
        v = col[order]
        # a gap above tol starts a new coordinate; smaller ones are fuzz
        new = np.diff(v, prepend=-np.inf) > tol * np.maximum(1.0, np.abs(v))
        axes.append(v[new])
        idx.append((np.cumsum(new) - 1)[np.argsort(order)])
    slot = np.ravel_multi_index(idx, [len(a) for a in axes])
    filled = np.bincount(slot, minlength=int(np.prod([len(a) for a in axes])))
    if not len(pts) or np.any(filled != 1):
        raise ValueError("points do not form a tensor grid (%d points, %d "
                         "empty slots)" % (len(pts), np.sum(filled == 0)))
    return axes, slot


def write_field_csv(fld: SampledField, path) -> None:
    """CSV layout: header 'dim,n_points', its values, then x1..xd,re,im rows."""
    pts = fld.points.points
    with open(path, "w") as fh:
        fh.write("dim,n_points\n%d,%d\n" % (pts.shape[1], pts.shape[0]))
        fh.write(format_rows([pts, fld.values.real, fld.values.imag]))


def read_field_csv(path, label: str = "") -> SampledField:
    """Read write_field_csv's layout.  The body must hold exactly n_points
    rows of dim + 2 values; trailing blank lines are ignored."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "dim,n_points":
            raise ValueError("bad field CSV header: %r" % header)
        size = fh.readline()
        rows = fh.read().rstrip().splitlines()
    try:
        dim, n = (int(t) for t in size.split(","))
    except ValueError:
        raise ValueError("bad field CSV size line: %r" % size.strip()) \
            from None
    if dim < 1 or n < 0:
        raise ValueError("field CSV needs dim >= 1 and n_points >= 0, "
                         "got %d,%d" % (dim, n))
    if len(rows) != n:
        raise ValueError("field CSV header says %d points, body has %d rows"
                         % (n, len(rows)))
    commas = list(map(str.count, rows, repeat(",")))
    if commas.count(dim + 1) != n:
        i = next(i for i, c in enumerate(commas) if c != dim + 1)
        raise ValueError("row %d has %d columns, expected %d"
                         % (i + 3, commas[i] + 1, dim + 2))
    a = np.array(",".join(rows).split(",") if n else [], dtype=float)
    a = a.reshape(n, dim + 2)
    vals = np.empty(n, dtype=complex)
    vals.real, vals.imag = a[:, dim], a[:, dim + 1]   # keeps -0.0 parts
    return SampledField(PointSet(np.ascontiguousarray(a[:, :dim])), vals,
                        label=label)


# ---------------------------------------------------------------- artifacts
# Artifacts are indent-2 JSON with shortest-repr floats (the text json.dump
# writes) and %.17g CSV.  Both are formatted through %-templates, one call
# per block of numbers, which gives the same bytes as per-element
# formatting; each distinct magnitude is formatted once (_float_texts).


def _float_texts(values, fmt):
    """fmt % v ("%r" or "%.17g") for each float v of values, in order, as an
    object array, formatting each distinct magnitude once.  Both formats
    spell -x as "-" + the text of x; NaN keeps its sign bit in the dedupe
    key, since it is spelled "nan" either way."""
    key = np.array(values, dtype=float).reshape(-1).view(np.uint64)
    neg = key ^ (1 << 63) <= 0x7FF0000000000000  # sign bit set, not NaN
    key[neg] ^= 1 << 63
    mags, inv = np.unique(key, return_inverse=True)
    texts = " ".join([fmt] * len(mags)) % tuple(mags.view(float).tolist())
    texts = np.array(texts.split(" "), dtype=object)
    # "-" + text, once per magnitude that occurs negative
    flip = np.bincount(inv[neg], minlength=len(texts)) > 0
    negated = np.empty_like(texts)
    negated[flip] = "-" + texts[flip]
    inv[neg] += len(texts)
    return np.concatenate([texts, negated])[inv]


def format_rows(cols) -> str:
    """CSV body lines for the columns (1-D arrays, or 2-D blocks of columns),
    every value written with %.17g, each distinct magnitude formatted once."""
    data = np.column_stack(cols)
    row_fmt = ",".join(["%s"] * data.shape[1])
    return ((row_fmt + "\n") * len(data)) % tuple(_float_texts(data, "%.17g"))


def dumps_json(doc) -> str:
    """The text json.dump(doc, fh, indent=2) writes, once numpy arrays and
    scalars are read as Python values and complex numbers as [re, im].

    A list of finite floats, or of equal-length rows of them, is spelled
    with float.__repr__ (which json uses as well), each distinct magnitude
    formatted once; other values are spelled element by element the way
    json spells them.  Unsupported types raise json's TypeError.
    """
    out = []
    _put_json(doc, 0, out)
    return "".join(out)


def _json_atom(v):
    """json's spelling of None, a bool, an int or a float; None otherwise."""
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if v == math.inf:
            return "Infinity"
        if v == -math.inf:
            return "-Infinity"
        return float.__repr__(v)
    return None


def _finite_floats(seq) -> bool:
    # a sum of floats is finite only if every term is
    return set(map(type, seq)) == {float} and math.isfinite(sum(seq))


def _put_json(obj, level, out) -> None:
    atom = _json_atom(obj)
    if atom is not None:
        out.append(atom)
    elif isinstance(obj, str):
        out.append(_json_str(obj))
    elif isinstance(obj, (list, tuple)):
        _put_json_list(obj, level, out)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        nl = "\n" + "  " * (level + 1)
        sep = "{" + nl
        for k, v in obj.items():
            key = k if isinstance(k, str) else _json_atom(k)
            if key is None:
                raise TypeError("keys must be str, int, float, bool or None, "
                                "not %s" % type(k).__name__)
            out.append(sep + _json_str(key) + ": ")
            sep = "," + nl
            _put_json(v, level + 1, out)
        out.append("\n" + "  " * level + "}")
    elif isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            obj = np.stack([obj.real, obj.imag], axis=-1)
        _put_json(obj.tolist(), level, out)
    elif isinstance(obj, (np.floating, np.integer)):
        _put_json(obj.item(), level, out)
    elif isinstance(obj, complex):
        _put_json([obj.real, obj.imag], level, out)
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(obj).__name__)


def _put_json_list(lst, level, out) -> None:
    if not lst:
        out.append("[]")
        return
    nl0 = "\n" + "  " * level
    nl1 = nl0 + "  "
    flat, item = lst, "%s"
    m = len(lst[0]) if isinstance(lst[0], (list, tuple)) else 0
    if m and set(map(type, lst)) <= {list, tuple} \
            and set(map(len, lst)) == {m}:
        nl2 = nl1 + "  "
        flat = list(chain.from_iterable(lst))
        item = "[" + nl2 + ("%s," + nl2) * (m - 1) + "%s" + nl1 + "]"
    if _finite_floats(flat):  # finite floats, or equal-length rows of them
        block = "[" + nl1 + ("," + nl1).join([item] * len(lst)) + nl0 + "]"
        out.append(block % tuple(_float_texts(flat, "%r")))
        return
    sep = "[" + nl1
    for v in lst:
        out.append(sep)
        sep = "," + nl1
        _put_json(v, level + 1, out)
    out.append(nl0 + "]")
