"""Shared numerics: stable special functions, point sets, sampled fields,
and the artifact codec (JSON and CSV text).

Everything here is pure and safe to call from any thread.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

# Below this the direct formulas lose digits to cancellation; degree-10
# Taylor polynomials are exact to < 1e-14 there.
_SERIES_CUT = 1e-3


def _scalar(out):
    """A 0-d result as the Python scalar of its dtype; arrays pass."""
    return out.item() if out.ndim == 0 else out


def _quad(*args, **kwargs):
    """scipy.integrate.quad, imported when first called.

    scipy.integrate brings scipy.optimize with it, a longer import than
    numpy's, which no cold start should pay.  kernels, projection and
    verify bind this as their module-level ``quad``, so that name stays
    rebindable (a counting wrapper, say).
    """
    from scipy.integrate import quad
    return quad(*args, **kwargs)


def sinc(x):
    """sin(x)/x with the removable singularity filled in; sinc(0) = 1.

    Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    small = np.abs(x) <= _SERIES_CUT
    xs = np.where(small, 1.0, x)  # keeps the direct branch NaN-free
    out = np.asarray(np.sin(xs) / xs)
    if small.any():               # the series only where it is taken
        xm = x[small] if x.ndim else x    # a 0-d x stays a scalar
        x2 = xm * xm
        out[small] = 1.0 + x2 * (-1.0 / 6.0 + x2 * (1.0 / 120.0 + x2 * (
            -1.0 / 5040.0 + x2 * (1.0 / 362880.0 - x2 / 39916800.0))))
    return _scalar(out)


def cosinc(x):
    """(1 - cos x)/x, the odd companion of sinc; cosinc(0) = 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) <= _SERIES_CUT
    xs = np.where(small, 1.0, x)
    out = np.asarray(2.0 * np.sin(0.5 * xs) ** 2 / xs)
    if small.any():
        xm = x[small] if x.ndim else x
        x2 = xm * xm
        out[small] = xm * (0.5 + x2 * (-1.0 / 24.0 + x2 * (1.0 / 720.0 + x2 * (
            -1.0 / 40320.0 + x2 / 3628800.0))))
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


def grid_axes(points: np.ndarray):
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
        # a gap above 1e-9 max(1, |v|) starts a new coordinate; less is fuzz
        new = np.diff(v, prepend=-np.inf) > 1e-9 * np.maximum(1.0, np.abs(v))
        axes.append(v[new])
        pos = np.empty_like(order)
        pos[order] = np.cumsum(new) - 1     # back to the points' row order
        idx.append(pos)
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


def read_field_csv(path) -> SampledField:
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
    a = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2) if n \
        else np.empty((0, dim + 2))
    vals = np.empty(n, dtype=complex)
    vals.real, vals.imag = a[:, dim], a[:, dim + 1]   # keeps -0.0 parts
    return SampledField(PointSet(np.ascontiguousarray(a[:, :dim])), vals)


# ---------------------------------------------------------------- artifacts
# Artifacts are indent-2 JSON with shortest-repr floats (the text json.dump
# writes) and %.17g CSV.  A document is one %s-template, filled from one
# _float_texts call over every float list of a JSON document or every cell
# of a CSV body, so the call's fixed cost is paid once per document;
# _float_texts spells each distinct float64 bit pattern once.  The spelling
# is a numpy kernel, not CPython's formatter, but the bytes are the same:
# every text it writes is proven equal to CPython's repr or %.17g, and every
# value it cannot prove so (zeros, non-finite values, exact ties, Ryu's
# trailing-zero cases, ...) is formatted by CPython itself, one at a time.
#
# Digits come from Ryu (Adams, "Ryu: fast float-to-string conversion", PLDI
# 2018): x = mv 2^e2 with mv = 4 m2, and 125-bit powers of five give
# vr = floor(x / 10^e10) and the floors vp, vm of the halfway points to x's
# neighbours, exactly, from 64 x 64 -> 128-bit products built from 32-bit
# limbs.  repr removes digits while vp and vm still differ (Ryu's common
# case); %.17g rounds vr to 17 digits.  The digits are then laid out by
# CPython's rules in 24-byte rows of three uint64 words.  The kernel runs on
# blocks of _BLOCK distinct values, so its temporaries stay small.

_M64 = np.uint64((1 << 64) - 1)   # a modulus and a mask that no mv meets
_BLOCK = 1 << 13                   # values per kernel block
_POW10 = np.array([10 ** k for k in range(20)], dtype=np.uint64)


@lru_cache(maxsize=None)
def _ryu_table():
    """Ryu's constants per biased exponent b of a double (row 2047, of inf
    and nan, is a dummy): the 128-bit multiplier (low, high words), the
    shift s with vr = (2 m2 mul) >> (64 + s), e10, and five = 5^q, two =
    2^q - 1 (else _M64), so that x / 10^e10 is an integer iff mv % five == 0
    or mv & two == 0.  Built on first use, like the other cached tables, so
    a process that spells no float list does not hold them."""
    e2 = np.maximum(np.arange(2048), 1) - 1077
    e2[-1] = e2[-2]
    up = e2 >= 0
    q = np.where(up, ((e2 * 78913) >> 18) - (e2 > 3),
                 ((-e2 * 732923) >> 20) - (-e2 > 1))
    i = np.where(up, q, -e2 - q)        # the power of five
    p5 = [5 ** k for k in range(343)]
    n5 = np.array([p.bit_length() for p in p5])
    # per power k of five, with n its bits: 2^(n + 124) / 5^k rounded up
    # (for e2 >= 0), and 5^k cut to 125 bits (for e2 < 0)
    inv = [(1 << (n + 124)) // p + 1 for p, n in zip(p5, n5.tolist())]
    fwd = [p << 125 >> n for p, n in zip(p5, n5.tolist())]
    words = lambda ints: np.array([[m % 2**64, m >> 64] for m in ints],
                                  dtype=np.uint64)
    mul = np.where(up[:, None], words(inv)[i], words(fwd)[i])
    shift = np.where(up, q - e2 + 124 + n5[i], q - n5[i] + 125) - 65
    five = np.where(up & (q <= 23), np.array(p5[:24], dtype=np.uint64)
                    [np.minimum(q, 23)], _M64)
    two = np.where(~up & (q < 64), (1 << np.minimum(q, 63).astype(np.uint64))
                   - np.uint64(1), _M64)
    return tuple(map(_read_only, (mul[:, 0].copy(), mul[:, 1].copy(),
                                  shift.astype(np.uint64),
                                  np.where(up, q, q + e2), five, two)))


@lru_cache(maxsize=None)
def _digits4():
    """0..9999 as four ASCII digits in the low bytes of a little-endian
    uint64."""
    k = np.arange(10000, dtype=np.uint64)
    return _read_only(sum((k // 10**(3 - j) % 10 + 0x30) << 8 * j
                          for j in range(4)))


def _read_only(a):
    a.flags.writeable = False
    return a


# per word w of a 24-byte row, indexed by a byte position k: the mask of
# the bytes below k, and "." at k
_BELOW = np.array([[(1 << 8 * min(max(k - 8 * w, 0), 8)) - 1
                    for k in range(28)] for w in range(3)], dtype=np.uint64)
_DOT = np.array([[0x2E << 8 * (k - 8 * w) if k // 8 == w else 0
                  for k in range(27)] for w in range(3)], dtype=np.uint64)
# "e-324" .. "e+308" as little-endian bytes, indexed by exponent + 324
_EXPONENT = np.array([int.from_bytes(b"e%+03d" % e, "little")
                      for e in range(-324, 309)], dtype=np.uint64)


def _mul128(a0, a1, b):
    """(low, high) 64-bit words of a * b, a = a1 2^32 + a0 in 32-bit limbs."""
    b0, b1 = b & 0xFFFFFFFF, b >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & 0xFFFFFFFF) + (p10 & 0xFFFFFFFF)
    return ((mid << 32) | (p00 & 0xFFFFFFFF),
            a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32))


def _spell(bits, short):
    """fmt % x ("%r" if short, else "%.17g") for the doubles x with these
    bit patterns, as an object array: the kernel's text where _decimal
    certifies the digits, CPython's elsewhere."""
    digits, n, decpt, ok = _decimal(bits, short)
    texts = np.empty(len(bits), dtype=object)
    texts[ok] = _lay_out(digits[ok], n[ok], decpt[ok], bits[ok] >> 63 != 0,
                         short)
    fmt = "%r" if short else "%.17g"
    slow = ~ok
    texts[slow] = [fmt % x for x in bits[slow].view(float).tolist()]
    return texts


def _decimal(bits, short):
    """(digits, n, decpt, ok) for the doubles x with these bit patterns: the
    n significant digits of repr(x) (short) or of x to 17 digits, left-
    aligned in a 17-digit uint64, and the decimal point's place, so that
    |x| = 0.d1...dn 10^decpt.  ok is False where the digits are not proven:
    zero, inf and nan, Ryu's trailing-zero cases, a power of two in repr, a
    17-digit exact tie, or too few digits in vr for 17."""
    b = ((bits >> 52) & 0x7FF).astype(np.intp)
    frac = bits & 0xFFFFFFFFFFFFF
    m2 = frac | (b != 0).astype(np.uint64) << 52
    mv = m2 << 2
    mul_lo_of, mul_hi_of, shift_of, e10_of, five_of, two_of = _ryu_table()
    mul_lo, mul_hi, s = mul_lo_of[b], mul_hi_of[b], shift_of[b]
    a0, a1 = (m2 << 1) & 0xFFFFFFFF, m2 >> 31
    lo, t = _mul128(a0, a1, mul_lo)
    mid, hi = _mul128(a0, a1, mul_hi)
    mid += t
    hi += mid < t
    vr = (hi << (64 - s)) | (mid >> s)
    five = five_of[b]
    r5 = mv % five
    exact = (r5 == 0) | (mv & two_of[b] == 0)   # vr = x / 10^e10
    if short:
        # vp, vm: (2 m2 +- 1) mul at the same shift.  vm's mm = mv - 2 is
        # the lower halfway point unless the significand is a power of two
        # above the subnormals; those go to CPython
        lo2 = lo + mul_lo
        mid2 = mid + mul_hi + (lo2 < lo)
        vp = ((hi + (mid2 < mid)) << (64 - s)) | (mid2 >> s)
        lo3 = lo - mul_lo
        mid3 = mid - mul_hi - (lo3 > lo)
        vm = ((hi - (mid3 > mid)) << (64 - s)) | (mid3 >> s)
        even = (m2 & 1) == 0
        vp -= ~even & (r5 == five - 2)   # an excluded upper bound
        ok = ~exact & ~(even & (r5 == 2)) & ((frac != 0) | (b <= 1))
        # Ryu drops digits while vp // 10 > vm // 10: that is, the largest
        # k with vp % 10^k < vp - vm, which is D - 1 for the D digits of
        # vp - vm, or D and the zeros of vp above them
        w = vp - vm
        digs = np.minimum(np.searchsorted(_POW10, w, side="right"), 19)
        scale = _POW10[digs]
        top = vp // scale
        hit = vp - top * scale < w
        removed = np.minimum(digs - 1 + hit * (1 + _trailing_zeros(top)), 19)
        scale = _POW10[removed]
        digits = vr // scale
        rest = vr - digits * scale
        digits += (digits == vm // scale) | (rest >= scale - rest)
        ok &= digits % 10 != 0
        n = np.searchsorted(_POW10, digits, side="right")
        decpt = e10_of[b] + removed + n
        digits *= _POW10[17 - n]
    else:
        # 17 digits of vr, correctly rounded; an exact tie is left to CPython
        k = np.searchsorted(_POW10, vr, side="right") - 17
        ok = k >= 1
        scale = _POW10[np.maximum(k, 0)]
        digits = vr // scale
        rest = vr - digits * scale
        half = scale >> 1
        ok &= ~(exact & (rest == half))
        digits += rest >= half
        carry = digits == _POW10[17]
        digits[carry] = _POW10[16]
        decpt = e10_of[b] + k + carry + 17
        n = 17 - _trailing_zeros(digits)
    return digits, n, decpt, ok & (b != 2047)


def _trailing_zeros(x):
    """The trailing decimal zeros of each uint64 in x (31 for a zero)."""
    zeros = np.zeros(len(x), dtype=np.intp)
    i = np.flatnonzero(x % 10 == 0)
    x, z = x[i], zeros[i]
    for k in (16, 8, 4, 2, 1):
        q = x // 10**k
        hit = q * 10**k == x
        x = np.where(hit, q, x)
        z += k * hit
    zeros[i] = z
    return zeros


@lru_cache(maxsize=None)
def _layout_table(short):
    """How CPython lays out repr (short) or %.17g of 0.d1...dn 10^decpt,
    for decpt clipped to -4..18 (every value beyond is in exponent
    notation alike), n = 0..17 and the sign: rows of (the bits to shift the
    "0000000" + 17 digits row down by, the mask that turns a leading "0"
    into "-", the dot's byte, the end's byte, exponent notation or not).
    Exponent notation when decpt < -3 or decpt > 16 (repr) or 17; else
    zeros between the point and the digits, or after the digits up to the
    point, and repr's ".0" on integers."""
    decpt, n, neg = np.ix_(np.arange(-4, 19), np.arange(18), np.arange(2))
    expo = (decpt < -3) | (decpt > (16 if short else 17))
    small = ~expo & (decpt <= 0)
    whole = ~expo & (decpt >= n)
    lead = np.where(small, 1 - decpt, 0) + neg    # "-0.000" before the digits
    # the dot's byte; 25 (beyond the row) for none
    dot = np.where(expo | small, np.where(expo & (n == 1), 25, 1), decpt)
    end = np.where(small, 1 - decpt + n + 1, np.where(expo, n + (n > 1), n + 1))
    if short:
        end = np.where(whole, decpt + 2, end)        # digits, zeros, ".0"
    else:
        dot, end = np.where(whole, 25, dot), np.where(whole, decpt, end)
    rows = (56 - 8 * lead, 0x1D * neg, dot + neg, end + neg, expo)
    return _read_only(np.stack([np.broadcast_to(r, (23, 18, 2)).reshape(-1)
                                for r in rows]))


def _lay_out(digits, n, decpt, neg, short):
    """Texts of the numbers -+0.d1...dn x 10^decpt (minus where neg), with
    the digits d left-aligned in 17-digit uint64 digits (d1 > 0), as CPython
    lays them out (see _layout_table)."""
    hi, lo = np.divmod(digits, 10**8)
    top, hi = np.divmod(hi, 10**8)
    d = [_digits4()[c] for c in np.divmod(hi, 10**4) + np.divmod(lo, 10**4)]
    # "0000000" + the 17 digits, in three words
    w = ((top | 0x30) << 56 | 0x30303030303030,
         d[0] | d[1] << 32, d[2] | d[3] << 32)
    row = (np.minimum(np.maximum(decpt, -4), 18) + 4) * 36 + n * 2 + neg
    s, minus, dot, end, expo = _layout_table(short)[:, row]
    s, minus = s.astype(np.uint64), minus.astype(np.uint64)
    # the text from the sign on, then one byte up from the dot
    e = [(w[0] >> s) | (w[1] << (64 - s)), (w[1] >> s) | (w[2] << (64 - s)),
         w[2] >> s]
    e[0] ^= minus
    up = [e[0] << 8, (e[1] << 8) | (e[0] >> 56), (e[2] << 8) | (e[1] >> 56)]
    out = np.empty((len(digits), 3), dtype=np.uint64)
    for k in range(3):
        below = _BELOW[k]
        out[:, k] = ((e[k] & below[dot]) | (up[k] & ~below[dot + 1])
                     | _DOT[k][dot]) & below[end]
    rows = np.flatnonzero(expo)
    if rows.size:
        suffix = _EXPONENT[decpt[rows] + 323]
        at = end[rows]
        word, shift = rows * 3 + (at >> 3), (8 * (at & 7)).astype(np.uint64)
        flat = out.reshape(-1)
        flat[word] |= suffix << shift
        spill = (at >> 3) < 2              # a suffix crosses into the next word
        flat[word[spill] + 1] |= suffix[spill] >> (64 - shift[spill])
    return out.view(np.uint8).astype(np.uint32).view("<U24").ravel()


def _float_texts(values, fmt):
    """fmt % v ("%r" or "%.17g") for each float v of values, in order, as an
    object array, spelling each distinct bit pattern once."""
    if fmt not in ("%r", "%.17g"):
        raise ValueError("fmt must be '%%r' or '%%.17g', got %r" % (fmt,))
    key = np.array(values, dtype=float).reshape(-1).view(np.uint64)
    keys, inv = np.unique(key, return_inverse=True)
    texts = np.empty(len(keys), dtype=object)
    for i in range(0, len(keys), _BLOCK):
        texts[i:i + _BLOCK] = _spell(keys[i:i + _BLOCK], fmt == "%r")
    return texts[inv]


def format_rows(cols) -> str:
    """CSV body lines for the columns (1-D arrays, or 2-D blocks of columns),
    every value written as %.17g writes it (see _float_texts)."""
    data = np.column_stack(cols)
    row_fmt = ",".join(["%s"] * data.shape[1])
    return ((row_fmt + "\n") * len(data)) % tuple(_float_texts(data, "%.17g"))


def dumps_json(doc) -> str:
    """The text json.dump(doc, fh, indent=2) writes, once numpy arrays and
    scalars are read as Python values and complex numbers as [re, im].

    A list of finite floats, or of equal-length rows of them, is spelled
    as float.__repr__ spells it (which json uses as well); every such list
    of the document goes through one _float_texts call, which spells each
    distinct value once.  Other values are spelled element by element the
    way json spells them.  Unsupported types raise json's TypeError.
    """
    out, flat = [], []
    _put_json(doc, 0, out, flat)
    template = "".join(out)   # literal "%" doubled, each float list's as %s
    del out
    texts = tuple(_float_texts(flat, "%r"))
    del flat
    return template % texts


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


def _template_str(s: str) -> str:
    """json's spelling of s, with "%" doubled for the final fill."""
    return _json_str(s).replace("%", "%%")


def _put_json(obj, level, out, flat) -> None:
    """Append obj's template text to out and its float-list values to
    flat, in the order of their %s slots."""
    atom = _json_atom(obj)
    if atom is not None:
        out.append(atom)
    elif isinstance(obj, str):
        out.append(_template_str(obj))
    elif isinstance(obj, (list, tuple)):
        _put_json_list(obj, level, out, flat)
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
            out.append(sep + _template_str(key) + ": ")
            sep = "," + nl
            _put_json(v, level + 1, out, flat)
        out.append("\n" + "  " * level + "}")
    elif isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            obj = np.stack([obj.real, obj.imag], axis=-1)
        _put_json(obj.tolist(), level, out, flat)
    elif isinstance(obj, (np.floating, np.integer)):
        _put_json(obj.item(), level, out, flat)
    elif isinstance(obj, complex):
        _put_json([obj.real, obj.imag], level, out, flat)
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(obj).__name__)


def _put_json_list(lst, level, out, flat) -> None:
    if not lst:
        out.append("[]")
        return
    nl0 = "\n" + "  " * level
    nl1 = nl0 + "  "
    values, item = lst, "%s"
    m = len(lst[0]) if isinstance(lst[0], (list, tuple)) else 0
    if m and set(map(type, lst)) <= {list, tuple} \
            and set(map(len, lst)) == {m}:
        nl2 = nl1 + "  "
        values = list(chain.from_iterable(lst))
        item = "[" + nl2 + ("%s," + nl2) * (m - 1) + "%s" + nl1 + "]"
    if _finite_floats(values):  # finite floats, or equal-length rows of them
        out.append("[" + nl1 + ("," + nl1).join([item] * len(lst)) + nl0
                   + "]")
        flat.extend(values)
        return
    sep = "[" + nl1
    for v in lst:
        out.append(sep)
        sep = "," + nl1
        _put_json(v, level + 1, out, flat)
    out.append(nl0 + "]")


# ---------------------------------------------------------------- documents
# Every artifact reader is its key table plus the dataclass call.  A Table
# names its document (each message starts with the name) and maps each key
# to a Key: its JSON type (a _JSON name, a (test, what) pair, or a Table read
# in turn), whether it is required, whether null reads as absent, and for
# numbers a shape in the symbols n (any length), d (the document's
# dimension, fixed by its first use) and 2.  A shaped "array" holds numbers
# ([re, im] pairs of them too, with pairs), a shaped "object" their
# {"re", "im"} split, im optional.
Key = namedtuple("Key", "type required null shape pairs",
                 defaults=(True, False, "", False))
Table = namedtuple("Table", "name keys what", defaults=("an object",))


def _real(v) -> bool:
    """A finite JSON number; booleans do not count."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= 1.7976931348623157e308)   # the largest float


_JSON = {"object": (lambda v: isinstance(v, dict), "an object"),
         "array": (lambda v: isinstance(v, list), "an array"),
         "rows": (lambda v: isinstance(v, list) and all(
             isinstance(r, list) for r in v), "an array of arrays"),
         "string": (lambda v: isinstance(v, str), "a string"),
         "bool": (lambda v: isinstance(v, bool), "true or false"),
         "number>0": (lambda v: _real(v) and v > 0, "a finite number > 0"),
         "number>=0": (lambda v: _real(v) and v >= 0,
                       "a finite number >= 0"),
         "int>=0": (lambda v: type(v) is int and v >= 0, "an int >= 0")}


def read_doc(doc, table: Table, dims=None) -> dict:
    """doc's keys, checked against table: numbers parsed into arrays,
    sub-tables read in turn, and any other value (null too, where it reads
    as absent) kept as it is.  dims holds d once a shape has fixed it."""
    if not isinstance(doc, dict):
        raise ValueError("%s must be %s, not %s"
                         % (table.name, table.what, type(doc).__name__))
    dims = {} if dims is None else dims
    out = dict(doc)
    for key, k in table.keys.items():
        v, path = doc.get(key), "%s %s" % (table.name, key)
        if v is None and (k.null or key not in doc):
            if k.required:
                raise ValueError("%s has no %r key" % (table.name, key))
        elif isinstance(k.type, Table):
            out[key] = read_doc(v, k.type, dims)
        elif not _JSON.get(k.type, k.type)[0](v):
            raise ValueError("%s must be %s: %r"
                             % (path, _JSON.get(k.type, k.type)[1], v))
        elif k.shape:
            out[key] = _read_numbers(v, k.shape.split(), path, dims, k.pairs)
        elif k.type in ("number>0", "number>=0"):
            out[key] = float(v)
    return out


def _read_numbers(v, axes, path, dims, pairs=False):
    """v as a float array of shape axes, or complex for pairs and for the
    split; ValueError naming path, and the first bad entry, otherwise."""
    if isinstance(v, dict):   # the {"re", "im"} split, im optional
        parts = [v.get("re")] + ([v["im"]] if "im" in v else [])
        if not all(isinstance(p, list) for p in parts):
            raise ValueError("%s must hold arrays re and im" % path)
        re, *im = (_read_numbers(p, axes, path, dims) for p in parts)
        if im and im[0].shape != re.shape:
            raise ValueError("%s re and im differ in shape" % path)
        return np.stack([re, *im], -1).view(complex)[..., 0] if im else re
    if not isinstance(v, list):
        raise ValueError("%s must be an array: %r" % (path, v))
    cx = pairs and bool(v) and isinstance(v[0], list)
    axes = axes + ["2"] * cx
    a = _numbers(v, axes, dims)
    if a is not None:
        return a.view(complex)[:, 0] if cx else a
    bad = next((i for i, e in enumerate(v)
                if _numbers(e, axes[1:], dims) is None), None)
    raise ValueError("%s must hold %s (%s)%s" % (
        path, "finite numbers or [re, im] pairs of them" if pairs else
        "matrices of finite numbers" if len(axes) > 2 else
        "equal-length rows of finite numbers" if len(axes) > 1 else
        "finite numbers", " x ".join(str(dims.get(s, s)) for s in axes),
        "" if bad is None else "; entry %d is %r" % (bad, v[bad])))


def _numbers(v, axes, dims):
    """v as a float array of finite, non-boolean numbers whose axes fit the
    symbols axes (d bound on first use), or None."""
    try:
        a = np.array(v, dtype=object)   # ragged rows stay lists
        if a.ndim != len(axes) or not (set(map(type, a.flat)) <= {int, float}
                                       or all(map(_real, a.flat))):
            return None
        a = a.astype(float)
    except (ValueError, OverflowError):   # an int past the largest float
        return None
    for n, s in zip(a.shape, axes):
        if s == "d" and n:    # an empty axis fixes no d
            dims.setdefault(s, n)
        if n != (n if s == "n" else dims.get(s, 0) if s == "d" else int(s)):
            return None
    return a if np.isfinite(a).all() else None


def _num_to_json(a):
    """Real arrays as a list of floats, complex ones as [re, im] rows."""
    a = np.asarray(a)
    return (np.stack([a.real, a.imag], axis=-1) if np.iscomplexobj(a)
            else a.astype(float)).tolist()


def _c_to_json(a):
    """The {"re", "im"} split; real arrays have no im."""
    a = np.asarray(a)
    return ({"re": a.real.tolist(), "im": a.imag.tolist()}
            if np.iscomplexobj(a) else {"re": a.tolist()})
