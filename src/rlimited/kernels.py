"""Closed-form Fourier kernels of wedge, tetrahedral, cone and ball regions,
plus the cascaded quadratures that turn each kernel into a finite
exponential sum.

Conventions: the kernel of a region R is K_R(x) = int_R e^{i 2 pi k.x} dk,
so K_R(0) = |R|.  The light cone pairs (w, k) with (t, x) through
w t - k.x; since every azimuth node set used here is sign symmetric, node
clouds still store plain (w, k) rows.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from collections import namedtuple
from dataclasses import dataclass, field, replace

from .numkit import _quad as quad, _real, _scalar, sinc, cosinc, expc, \
    power_exp_integral, Key, Table, read_doc
from .sincapprox import symmetric_sinc_rule, one_sided_unit_rule
from .moments import Quadrature1D, chebyshev_rule_for_j0

# --------------------------------------------------------------------------
# region descriptions


@dataclass(frozen=True)
class Region:
    """Tagged Fourier-support description.

    kind is union or a row of _KINDS, whose parameter names the (name,
    value) pairs in params must cover; transform an optional matrix A
    mapping the base region (kernel |det A| K(A^T x)); parts the members
    of a union, all of one dimension.  symmetric marks R = -R.
    """
    kind: str
    params: tuple = ()
    transform: tuple | None = None
    parts: tuple | None = None
    symmetric: bool = False

    def __post_init__(self):
        d = region_dim(self)  # refuses what the kind does not define
        if self.transform is not None and np.shape(self.transform) != (d, d):
            raise ValueError("region transform must be %d x %d" % (d, d))

    def param(self, name: str) -> float:
        return dict(self.params)[name]

    def transform_matrix(self) -> np.ndarray | None:
        if self.transform is None:
            return None
        return np.asarray(self.transform, dtype=float)


def interval_region() -> Region:
    """The symmetric unit interval [-1, 1] on the frequency axis."""
    return Region("interval", symmetric=True)


def triangle_region(dp: float, s: float) -> Region:
    return Region("triangle", (("dp", float(dp)), ("s", float(s))))


def tetrahedron_region(h: float, dp: float, s: float) -> Region:
    return Region("tetrahedron", (("h", float(h)), ("dp", float(dp)),
                                  ("s", float(s))))


def cone_region(omega0: float, pmax: float, n: int = 2) -> Region:
    return Region("cone", (("omega0", float(omega0)),
                           ("pmax", float(pmax)), ("n", int(n))),
                  symmetric=True)


def ball_region(k_max: float) -> Region:
    return Region("ball", (("k_max", float(k_max)),), symmetric=True)


def transformed_region(base: Region, A) -> Region:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    prev = base.transform_matrix()
    if prev is not None:
        A = A @ prev
    return replace(base, transform=tuple(map(tuple, A.tolist())))


def union_region(parts) -> Region:
    return Region("union", parts=tuple(parts))


def _require_positive(**numbers) -> None:
    """ValueError unless every shape number is finite and positive."""
    for name, v in numbers.items():
        if not (math.isfinite(v) and v > 0):
            raise ValueError("%s must be positive and finite, got %r"
                             % (name, v))


@dataclass(frozen=True)
class TriangleSpec:
    """Isosceles wedge 0 <= kx <= dp, |ky| <= s kx."""
    dp: float
    s: float

    def __post_init__(self):
        _require_positive(dp=self.dp, s=self.s)

    @property
    def area(self) -> float:
        return self.dp ** 2 * self.s


@dataclass(frozen=True)
class TetraSpec:
    """Cone over a wedge: 0 <= kz <= h, 0 <= ky <= dp kz, |kx| <= s ky."""
    h: float
    dp: float
    s: float

    def __post_init__(self):
        _require_positive(h=self.h, dp=self.dp, s=self.s)

    @property
    def volume(self) -> float:
        return self.h ** 3 * self.dp ** 2 * self.s / 3.0


@dataclass(frozen=True)
class ConeSpec:
    """|k| <= |w| pmax for |w| <= omega0, spatial dimension n in {1,2,3}."""
    omega0: float
    pmax: float
    n: int = 2

    def __post_init__(self):
        _require_positive(omega0=self.omega0, pmax=self.pmax)
        if self.n not in (1, 2, 3):
            raise ValueError("spatial dimension must be 1, 2 or 3")

    @property
    def measure(self) -> float:
        w0, p = self.omega0, self.pmax
        if self.n == 1:
            return 2.0 * w0 ** 2 * p
        if self.n == 2:
            return (2.0 * np.pi / 3.0) * w0 ** 3 * p ** 2
        return (2.0 * np.pi / 3.0) * w0 ** 4 * p ** 3


def equilateral_spec() -> TriangleSpec:
    """The unit-side equilateral as one wedge with a vertex at the origin."""
    return TriangleSpec(dp=math.sqrt(3.0) / 2.0, s=1.0 / math.sqrt(3.0))


def regular_tetra_spec() -> TetraSpec:
    """Stated parametrization of the regular-tetrahedron field figures."""
    h = math.sqrt(2.0 / 3.0)
    return TetraSpec(h=h, dp=(math.sqrt(3.0) / 6.0) * h, s=math.sqrt(3.0))


@dataclass
class QuadratureND:
    """Weighted node cloud in R^d standing in for a region kernel:
    sum_m w_m e^{i 2 pi (B k_m).x}.

    nodes are base frequencies k_m inside region; band is the d x d matrix
    B (None means the identity, as cascades build it) and weights are the
    weights of the banded sum, summing to the measure of B R.  provenance
    carries construction parameters and, when measured, the error profile
    {"max_err", "box", "grid_n"}: max_err bounds
    |sum(x) - |det B| K_R(B^T x)| wherever B^T x lies in the
    base-coordinate box.  symmetry_group lists rotations the node multiset
    is invariant under.
    """
    weights: np.ndarray
    nodes: np.ndarray
    region: Region
    band: np.ndarray | None = None
    symmetry_group: list | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        self.nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        d = self.nodes.shape[1]
        Bm = np.eye(d) if self.band is None \
            else np.atleast_2d(np.asarray(self.band, dtype=float))
        if Bm.shape != (d, d):
            raise ValueError("band must be a %d x %d matrix" % (d, d))
        if abs(float(np.linalg.det(Bm))) <= 1e-14:
            raise ValueError("band matrix is singular")
        self.band = Bm
        if len(self.weights) != len(self.nodes):
            raise ValueError("weights/nodes length mismatch")
        if d != region_dim(self.region):
            raise ValueError("nodes have %d columns, but a %s region is %dD"
                             % (d, self.region.kind, region_dim(self.region)))
        inside = region_contains(self.region, self.nodes, tol=1e-9)
        if not np.all(inside):
            raise ValueError("%d kernel nodes fall outside the region"
                             % int(np.sum(~inside)))

    def det_band(self) -> float:
        return abs(float(np.linalg.det(self.band)))

    def base_weights(self) -> np.ndarray:
        return self.weights / self.det_band()

    def scaled_nodes(self) -> np.ndarray:
        return self.nodes @ self.band.T

    def scaled_error_max(self) -> float:
        prof = self.provenance.get("error_profile")
        return float(prof["max_err"]) if prof else math.inf

    def eval_sum(self, x):
        """The banded sum at offsets x of shape (..., d); 1D points may
        come without their trailing axis."""
        flat, lead = _as_points(x, self.nodes.shape[1])
        out = np.exp(2j * np.pi * (flat @ self.scaled_nodes().T)) \
            @ self.weights.astype(complex)
        out = out.reshape(lead)
        return complex(out) if lead == () else out

    def eval_grid(self, axes) -> np.ndarray:
        """The banded sum on the tensor grid of the d 1D arrays axes, with
        shape tuple(map(len, axes)) in meshgrid "ij" order: eval_sum at
        those points, contracted one axis at a time (_grid_sum)."""
        axes = [np.asarray(ax, dtype=float) for ax in axes]
        d = self.nodes.shape[1]
        if len(axes) != d or any(ax.ndim != 1 for ax in axes):
            raise ValueError("a %dD cloud needs %d 1D grid axes" % (d, d))
        return _grid_sum(self.weights, self.scaled_nodes(), axes)


def quadrature_nd_to_json(q: QuadratureND) -> dict:
    """The band is written only when it is not the identity, so cascade
    artifacts keep their layout."""
    d = {"weights": q.weights.tolist(), "nodes": q.nodes.tolist(),
         "region": region_to_json(q.region)}
    if not np.array_equal(q.band, np.eye(len(q.band))):
        d["band"] = q.band.tolist()
    d["provenance"] = q.provenance
    if q.symmetry_group is not None:
        d["symmetry_group"] = [np.asarray(m, dtype=float).tolist()
                               for m in q.symmetry_group]
    return d


_PROFILE = Table("kernel error_profile", {
    "max_err": Key("number>=0"), "box": Key("array", shape="d 2"),
    "grid_n": Key("int>=0", required=False)})
_CLOUD = Table("kernel", {
    "weights": Key("array", shape="n"), "nodes": Key("array", shape="n d"),
    "band": Key("array", False, True, "d d"),
    "symmetry_group": Key("array", False, True, "n d d"),
    "region": Key("object"),
    "provenance": Key(Table("kernel provenance", {
        "error_profile": Key(_PROFILE, False, True)}), False, True),
    "error_profile": Key(_PROFILE, False, True)}, "a JSON object")


def quadrature_nd_from_json(d: dict) -> QuadratureND:
    """The cloud of quadrature_nd_to_json's layout, or of the older one with
    error_profile at top level; ValueError unless it reads against _CLOUD."""
    v = read_doc(d, _CLOUD)
    prov, group = v.get("provenance") or {}, v.get("symmetry_group")
    prof = v.get("error_profile") or prov.get("error_profile")
    if prof:
        prov["error_profile"] = dict(prof, box=prof["box"].tolist())
    return QuadratureND(v["weights"], v["nodes"],
                        region_from_json(v["region"]), v.get("band"),
                        group if group is None else list(group), prov)


def region_to_json(r: Region) -> dict:
    d = {"kind": r.kind, "params": {k: v for k, v in r.params},
         "symmetric": r.symmetric}
    if r.transform is not None:
        d["transform"] = [list(row) for row in r.transform]
    if r.parts is not None:
        d["parts"] = [region_to_json(p) for p in r.parts]
    return d


_REGION = Table("region", {
    "kind": Key("string"), "params": Key("object", required=False),
    "transform": Key("rows", False, True, "d d"),
    "parts": Key("array", False, True), "symmetric": Key("bool", False, True)})


def region_from_json(d: dict) -> Region:
    """The Region of region_to_json's layout; ValueError unless it, and
    each part in turn, reads against _REGION."""
    v = read_doc(d, _REGION)
    A, P = v.get("transform"), v.get("parts")
    return Region(v["kind"], tuple(v.get("params", {}).items()),
                  A if A is None else tuple(map(tuple, A.tolist())),
                  P if P is None else tuple(map(region_from_json, P)),
                  v.get("symmetric") is True)


# One row per region kind: its parameter names, then functions of their
# values giving its dimension, its membership mask at points k with absolute
# slack tol on every face, and its closed-form kernel at offsets x.  Every
# parameter is a finite number > 0 (region_dim); a dimension function
# refuses any other value its kind does not define.
_Kind = namedtuple("_Kind", "params dim contains kernel")


def _cone_dim(w0, p, n) -> int:
    if type(n) is not int or n not in (1, 2, 3):
        raise ValueError("a cone region needs an int 1, 2 or 3 for n, got %r"
                         % (n,))
    return 1 + n


_KINDS = {
    "interval": _Kind(
        (), lambda: 1,
        lambda k, tol: np.abs(k[:, 0]) <= 1.0 + tol,
        lambda x: 2.0 * sinc(2.0 * np.pi * x[:, 0])),
    "triangle": _Kind(
        ("dp", "s"), lambda *_: 2,
        lambda k, tol, dp, s: ((k[:, 0] >= -tol) & (k[:, 0] <= dp + tol)
                               & (np.abs(k[:, 1]) <= s * k[:, 0] + tol)),
        lambda x, dp, s: k_triangle(TriangleSpec(dp, s), *x.T)),
    "tetrahedron": _Kind(
        ("h", "dp", "s"), lambda *_: 3,
        lambda k, tol, h, dp, s: (
            (k[:, 2] >= -tol) & (k[:, 2] <= h + tol) & (k[:, 1] >= -tol)
            & (k[:, 1] <= dp * k[:, 2] + tol)
            & (np.abs(k[:, 0]) <= s * k[:, 1] + tol)),
        lambda x, h, dp, s: k_tetra(TetraSpec(h, dp, s), *x.T)),
    "cone": _Kind(
        ("omega0", "pmax", "n"), _cone_dim,
        lambda k, tol, w0, p, n: (
            (np.abs(k[:, 0]) <= w0 + tol)
            & (np.linalg.norm(k[:, 1:], axis=1) <= p * np.abs(k[:, 0]) + tol)),
        lambda x, w0, p, n: k_cone(ConeSpec(w0, p, n), x[:, 0],
                                   x[:, 1] if n == 1 else x[:, 1:])),
    "ball": _Kind(
        ("k_max",), lambda *_: 3,
        lambda k, tol, km: np.linalg.norm(k, axis=1) <= km + tol,
        lambda x, km: k_ball(km, x)),
}


_STACK = 1 << 15        # stacked points per row call of a union's parts


def _evaluate(r: Region, pts: np.ndarray, column: str, *tol):
    """Column "contains" (slack tol) or "kernel" of r's row at the rows of
    pts, through the one unwrap step: a transform A tests A^-1 k and scales
    the kernel to |det A| K(A^T x); a union ors masks and sums kernels in
    part order.  The parts that share a base region (a union's rotated
    copies) go through one call of its row on their stacked mapped points,
    as many parts per call as keep the stack within _STACK points (one
    part at least); every row is elementwise, so each part's values keep
    their bits."""
    dtype = complex if column == "kernel" else bool
    union = r.kind == "union" and r.transform is None
    parts = r.parts if union else (r,)
    groups = {}
    for i, part in enumerate(parts):
        groups.setdefault(replace(part, transform=None), []).append(i)
    per = max(1, _STACK // max(len(pts), 1))    # parts per row call
    values, done = {}, 0
    total = np.zeros(len(pts), dtype=dtype)
    for base, idx in [(b, run[j:j + per]) for b, run in groups.items()
                      for j in range(0, len(run), per)]:
        mats = [parts[i].transform_matrix() for i in idx]
        maps = [pts if A is None else pts @ A if column == "kernel"
                else pts @ np.linalg.inv(A).T for A in mats]
        if base.kind == "union":    # a transformed union: unwrap it
            out = [_evaluate(base, x, column, *tol) for x in maps]
        else:
            row = _KINDS[base.kind]
            out = np.asarray(getattr(row, column)(
                np.concatenate(maps), *tol, *map(base.param, row.params)),
                dtype=dtype).reshape(len(idx), len(pts))
        for i, A, v in zip(idx, mats, out):
            values[i] = (v if A is None or column == "contains"
                         else abs(float(np.linalg.det(A))) * v)
        while union and done in values:   # summed as soon as it is next
            total += values.pop(done)      # on masks + is or
            done += 1
    return total if union else values[0]


def region_contains(r: Region, points, tol: float = 1e-9) -> np.ndarray:
    """Membership mask with absolute slack tol on every face constraint."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _evaluate(r, pts, "contains", tol)


def region_dim(r: Region) -> int:
    """ValueError for a kind that is neither union nor a row of _KINDS, a
    missing parameter, one that is not a finite number > 0 (a boolean is
    not a number) or that its row's dimension function refuses, or a union
    without parts or of mixed dimension."""
    if r.kind == "union":
        dims = sorted({region_dim(p) for p in r.parts or ()})
        if len(dims) != 1:
            raise ValueError("a union region needs at least one part, all "
                             "of one dimension; got dimensions %s" % dims)
        return dims[0]
    row = _KINDS.get(r.kind)
    if row is None:
        raise ValueError("unknown region kind %r" % r.kind)
    if not set(row.params) <= set(dict(r.params)):
        raise ValueError("a %s region needs parameters %s, got %s"
                         % (r.kind, row.params, r.params))
    values = [r.param(name) for name in row.params]
    if not all(_real(v) and v > 0 for v in values):
        raise ValueError("a %s region needs finite real numbers > 0 for %s, "
                         "got %s" % (r.kind, row.params, r.params))
    return row.dim(*values)


def _as_points(x, d: int) -> tuple:
    """(flat, lead): x as an (n, d) array plus the leading shape that
    restores it.  1D points may come without their trailing axis."""
    pts = np.asarray(x, dtype=float)
    if d == 1 and (pts.ndim == 0 or pts.shape[-1] != 1):
        pts = pts[..., None]
    if pts.ndim == 0 or pts.shape[-1] != d:
        raise ValueError("points need a last axis of length %d" % d)
    return pts.reshape(-1, d), pts.shape[:-1]


def region_kernel_exact(r: Region, x):
    """K_R(x) = int_R e^{i 2 pi k.x} dk via the closed forms (fixed
    Gauss-Legendre panels for the n=2 cone); K_R(0) is the region measure."""
    flat, lead = _as_points(x, region_dim(r))
    out = _evaluate(r, flat, "kernel").reshape(lead)
    return complex(out) if lead == () else out


# --------------------------------------------------------------------------
# wedge (triangle) kernel

_DQ_CUT = 1e-3


def k_triangle(spec: TriangleSpec, x, y):
    """Kernel of the wedge, finite on both symmetry lines.

    With a = 2 pi dp x, b = 2 pi dp s y and g(u) = cosinc(u) - i sinc(u),
    K = 2 dp^2 s (g(a+b) - g(a-b)) / (2b).  The difference quotient turns
    into a centred series in b (odd g-derivatives are i^{k-1} I_k(ia))
    below |b| = 1e-3, where the direct form would cancel.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x, y = np.broadcast_arrays(x, y)
    a = 2.0 * np.pi * spec.dp * x
    b = 2.0 * np.pi * spec.dp * spec.s * y
    small = np.abs(b) <= _DQ_CUT
    bs = np.where(small, 1.0, b)
    gp = cosinc(a + bs) - 1j * sinc(a + bs)
    gm = cosinc(a - bs) - 1j * sinc(a - bs)
    dq = np.asarray((gp - gm) / (2.0 * bs), dtype=complex)
    if np.any(small):
        ik = power_exp_integral(np.arange(1, 8, 2)[:, None], 1j * a[small])
        b2 = b[small] ** 2
        dq[small] = (ik[0] - b2 * ik[1] / 6.0 + b2 ** 2 * ik[2] / 120.0 -
                     b2 ** 3 * ik[3] / 5040.0)
    out = 2.0 * spec.dp ** 2 * spec.s * dq
    return _scalar(out)


def triangle_scaling_refine(spec: TriangleSpec, x, y, value_pair):
    """One level up: K(x,y) from the half-argument pair.

    value_pair = (K(x/2, y/2), K(-x/2, y/2));
    K(x,y) = 1/4 [v1 (1 + 2 e^{i pi dp x} cos(pi dp s y)) + e^{2 i pi dp x} v2].
    """
    v1, v2 = value_pair
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c = np.cos(np.pi * spec.dp * spec.s * y)
    p = 1.0 + 2.0 * np.exp(1j * np.pi * spec.dp * x) * c
    q = np.exp(2j * np.pi * spec.dp * x)
    return 0.25 * (np.asarray(v1) * p + q * np.asarray(v2))


# --------------------------------------------------------------------------
# cascade engine, error profiles and group copies


def _difference_widths(target_box):
    """Per-axis width of the difference set {a - b : a, b in box}."""
    return tuple(float(hi - lo) for lo, hi in target_box)


def _grid_sum(w, k, axes) -> np.ndarray:
    """sum_m w_m e^{i 2 pi k_m.x} on the tensor grid of axes, with shape
    tuple(map(len, axes)) in meshgrid "ij" order; k is (N, d) in the axes'
    coordinates.

    e^{i 2 pi k.x} factors over the axes, so the sum is contracted one axis
    at a time from d factors E_j = e^{i 2 pi x_j k_j} of G_j x N (N nodes):
    E_0 w in 1D, (E_0 w) E_1^T in 2D, and one such product per point of
    axis 0 in 3D.  That takes sum_j G_j N exponentials instead of
    prod_j G_j N, and O(G N) temporary memory.
    """
    E = [np.exp(2j * np.pi * np.outer(ax, k[:, j]))
         for j, ax in enumerate(axes)]
    if len(E) == 1:
        return E[0] @ w
    out = np.empty(tuple(len(ax) for ax in axes), dtype=complex)
    for lead in itertools.product(*map(range, out.shape[:-2])):
        wl = w
        for j, i in enumerate(lead):
            wl = wl * E[j][i]
        out[lead] = (E[-2] * wl) @ E[-1].T
    return out


def _error_profile(cloud, exact, box, grid_n: int) -> dict:
    """max |exact - sum_m w_m e^{i 2 pi k_m.x}| on a grid_n^d tensor grid
    over box; cloud is (w, k) with k in the grid's coordinates and exact
    takes the (n, d) grid points in meshgrid "ij" order.  The sum is
    _grid_sum's per-axis contraction."""
    box = [[float(lo), float(hi)] for lo, hi in box]
    axes = [np.linspace(lo, hi, grid_n) for lo, hi in box]
    approx = _grid_sum(*cloud, axes)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    err = np.max(np.abs(np.asarray(exact(pts)) - approx.ravel()))
    return {"max_err": float(err), "box": box, "grid_n": int(grid_n)}


def _measured_profile(q: QuadratureND, box, grid_n: int) -> dict:
    """The error profile of cloud q over the base-coordinate box: its sum
    at base points Y, sum_m w_m e^{i 2 pi Y.k_m}, against the closed form
    |det B| K_R(Y) of its own region, as _KINDS evaluates it."""
    det = q.det_band()
    return _error_profile((q.weights, q.nodes),
                          lambda Y: det * region_kernel_exact(q.region, Y),
                          box, grid_n)


def _cloud(weights, nodes, region: Region, target, profile_grid: int,
           symmetry_group=None, **provenance) -> QuadratureND:
    """A built cloud whose provenance holds the keywords in call order,
    then the error profile over the difference box of the target box
    target (skipped when profile_grid is 0)."""
    q = QuadratureND(weights=weights, nodes=nodes, region=region,
                     symmetry_group=symmetry_group, provenance=provenance)
    if profile_grid:
        box = [[-w, w] for w in _difference_widths(target)]
        q.provenance["error_profile"] = _measured_profile(q, box,
                                                          profile_grid)
    return q


def _cascade(scale: float, stages, node_map):
    """Weights and nodes of a nested cascade of 1D rules.

    stages[i] maps the node coordinates of the stages before it to the
    rule of stage i: a Quadrature1D or a (weights, nodes) pair whose
    weights may be a tuple of factors.  A leaf weight is scale times its
    stage factors multiplied left to right; node_map turns the per-stage
    coordinate columns into nodes.
    """
    w = np.array([scale], dtype=float)
    cols = []
    for stage in stages:
        ws, ns, take = [], [], []
        for i, wi in enumerate(w):
            rule = stage(*(c[i] for c in cols))
            factors, nodes = ((rule.weights, rule.nodes)
                              if isinstance(rule, Quadrature1D) else rule)
            for f in factors if isinstance(factors, tuple) else (factors,):
                wi = wi * f
            nodes = np.asarray(nodes, dtype=float)
            ws.append(np.broadcast_to(wi, len(nodes)))
            ns.append(nodes)
            take += [i] * len(nodes)
        cols = [c[take] for c in cols] + [np.concatenate(ns)]
        w = np.concatenate(ws)
    return w, node_map(*cols)


def _sine(tau):
    """sqrt(1 - tau^2), clipped at zero."""
    return np.sqrt(np.maximum(0.0, 1.0 - tau * tau))


def _azimuth_ring(M_t: int):
    """Equiangular circle rule: the four sign copies of each Chebyshev
    (tau, sqrt(1-tau^2)) pair, 4 M_t points each weighted pi/(2 M_t)."""
    tau = np.asarray(chebyshev_rule_for_j0(M_t).nodes, dtype=float)
    signs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    az = (np.stack([tau, _sine(tau)], axis=-1)[:, None, :] * signs)
    return np.pi / (2.0 * M_t), az.reshape(-1, 2)


def _group_copies(base: QuadratureND, group, placement, construction: str,
                  target_box, profile_grid: int) -> QuadratureND:
    """Copy a piece rule through a rotation group (after an optional
    placement); the node multiset is group invariant by construction, and
    the region is the union of the piece region mapped by each R placement.
    """
    placed, maps = base.nodes, group
    if placement is not None:
        placed = placed @ placement.T
        maps = [R @ placement for R in group]
    return _cloud(np.concatenate([base.weights] * len(group)),
                  np.concatenate([placed @ R.T for R in group]),
                  union_region([transformed_region(base.region, A)
                                for A in maps]),
                  target_box, profile_grid, [R.copy() for R in group],
                  construction=construction, piece=dict(base.provenance))


def _box_provenance(target_box) -> list:
    return [list(map(float, bx)) for bx in target_box]


# --------------------------------------------------------------------------
# wedge cascade and the equilateral assembly


def triangle_quadrature(spec: TriangleSpec, M_outer: int, M_inner: int,
                        target_box=((-0.5, 0.5), (-0.5, 0.5)),
                        profile_grid: int = 41) -> QuadratureND:
    """Cascade: axis-weighted one-sided rule, then a symmetric rule across
    the wedge at each axis node.

    K = dp^2 s int_0^1 v int_{-1}^{1} e^{i 2 pi dp v (x + s u y)} du dv;
    bands are sized on the difference set of target_box, so the recorded
    error profile covers every difference the caller can form within it.
    """
    Wx, Wy = _difference_widths(target_box)
    outer = one_sided_unit_rule(
        2.0 * np.pi * spec.dp * (Wx + spec.s * Wy), M_outer, power=1)
    weights, nodes = _cascade(
        spec.area, [lambda: outer, lambda v: symmetric_sinc_rule(
            2.0 * np.pi * spec.dp * spec.s * v * Wy, M_inner)],
        lambda v, u: np.stack([spec.dp * v, spec.dp * spec.s * v * u], -1))
    return _cloud(weights, nodes, triangle_region(spec.dp, spec.s),
                  target_box, profile_grid, construction="wedge-cascade",
                  M_outer=M_outer, M_inner=M_inner,
                  target_box=_box_provenance(target_box))


def _rot2(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def equilateral_symmetric_quadrature(M_outer: int, M_inner: int,
                                     target_box=((-0.5, 0.5), (-0.5, 0.5)),
                                     profile_grid: int = 41) -> QuadratureND:
    """Node cloud for the centred unit-side equilateral, C3 invariant by
    construction: one centroid wedge copied through the three rotations.

    The wedge runs from the centroid to a side: dp = inradius sqrt(3)/6,
    s = sqrt(3) (half-side over inradius), area sqrt(3)/12 each.
    """
    spec = TriangleSpec(dp=math.sqrt(3.0) / 6.0, s=math.sqrt(3.0))
    base = triangle_quadrature(spec, M_outer, M_inner, target_box,
                               profile_grid=0)
    return _group_copies(
        base, [_rot2(2.0 * np.pi * j / 3.0) for j in range(3)], None,
        "equilateral-three-wedges", target_box, profile_grid)


# --------------------------------------------------------------------------
# tetrahedral kernel

_PHI_TAYLOR_CUT = 1e-2
_PHI_SERIES_TERMS = 12


def _expc_derivs(ks, c) -> np.ndarray:
    """F^{(k)}(c) = i^k I_k(ic) of F(c) = expc(ic), one row per k in ks,
    over a real array c; sinc and cosinc are Re F and Im F."""
    return (np.array([1j ** k for k in ks])[:, None]
            * power_exp_integral(np.array(ks)[:, None], 1j * c))


def _phi_derivs(a, v, kmax: int) -> np.ndarray:
    """Phi^{(k)}(v), k = 0..kmax in rows, for Phi(u) = (F(a+u) - F(a))/u
    and F(c) = expc(ic), elementwise over 1-D arrays a, v.

    Upward recurrence Phi^{(k)} = (F^{(k)}(a+v) - k Phi^{(k-1)})/v away
    from v = 0; below |v| = 1e-2 the Taylor ladder
    Phi^{(k)}(v) = sum_i F^{(i+k+1)}(a) v^i / (i! (i+k+1)).
    """
    out = np.empty((kmax + 1, len(a)), dtype=complex)
    up = np.abs(v) >= _PHI_TAYLOR_CUT
    au, vu = a[up], v[up]
    fav = _expc_derivs(range(kmax + 1), au + vu)
    phi = (fav[0] - power_exp_integral(0, 1j * au)) / vu
    out[0, up] = phi
    for k in range(1, kmax + 1):
        phi = (fav[k] - k * phi) / vu
        out[k, up] = phi
    at, vt = a[~up], v[~up]
    fd = _expc_derivs(range(kmax + _PHI_SERIES_TERMS + 1), at)
    ks = np.arange(kmax + 1)[:, None]
    acc = np.zeros((kmax + 1, len(at)), dtype=complex)
    ifac, vpow = 1.0, np.ones(len(at))
    for i in range(_PHI_SERIES_TERMS):
        if i:
            ifac *= i
            vpow = vpow * vt
        acc = acc + fd[i + 1:i + kmax + 2] * vpow / (ifac * (i + ks + 1))
    out[:, ~up] = acc
    return out


def k_tetra(spec: TetraSpec, x, y, z):
    """Kernel of the tetrahedral wedge.

    With a = 2 pi h z, v = 2 pi h dp y, b = 2 pi h dp s x:
    K = -2 h^3 dp^2 s (Phi(v+b) - Phi(v-b)) / (2b),
    Phi(u) = (F(a+u) - F(a))/u, F(c) = expc(ic).  Both difference
    quotients switch to series ladders near their vanishing denominators.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    x, y, z = np.broadcast_arrays(x, y, z)
    a = 2.0 * np.pi * spec.h * z
    v = 2.0 * np.pi * spec.h * spec.dp * y
    b = 2.0 * np.pi * spec.h * spec.dp * spec.s * x
    far = ((np.abs(b) > _DQ_CUT) & (np.abs(v + b) >= _PHI_TAYLOR_CUT)
           & (np.abs(v - b) >= _PHI_TAYLOR_CUT))
    bs = np.where(far, b, 1.0)
    vp = np.where(far, v + b, 1.0)
    vm = np.where(far, v - b, 1.0)
    fa = expc(1j * a)
    phi_p = (expc(1j * (a + vp)) - fa) / vp
    phi_m = (expc(1j * (a + vm)) - fa) / vm
    D = np.asarray((phi_p - phi_m) / (2.0 * bs), dtype=complex)
    if not np.all(far):
        # series in b near x = 0, else the quotient of two Phi values
        on = ~far & (np.abs(b) <= _DQ_CUT)
        off = ~far & ~on
        ao, vo, bo = a[off], v[off], b[off]
        ph = _phi_derivs(np.concatenate([a[on], ao, ao]),
                         np.concatenate([v[on], vo + bo, vo - bo]), 5)
        ph_on, pp, pm = np.split(ph, np.cumsum([on.sum(), len(bo)]), axis=1)
        bn = b[on]
        D[on] = (ph_on[1] + bn ** 2 * ph_on[3] / 6.0 +
                 bn ** 4 * ph_on[5] / 120.0)
        D[off] = (pp[0] - pm[0]) / (2.0 * bo)
    out = -2.0 * spec.h ** 3 * spec.dp ** 2 * spec.s * D
    return _scalar(out)


def tetra_quadrature(spec: TetraSpec, M1: int, M2: int, M3: int,
                     target_box=((-0.3, 0.3),) * 3,
                     profile_grid: int = 7) -> QuadratureND:
    """Three-stage cascade for the tetrahedral wedge.

    K = h^3 dp^2 s int w^2 int v int e^{i 2 pi h w (z + dp v (y + s u x))},
    outer w on (0,1) weighted w^2, middle v on (0,1) weighted v, inner u
    symmetric on (-1,1); bands sized from the difference box.
    """
    Wx, Wy, Wz = _difference_widths(target_box)
    span = Wy + spec.s * Wx
    outer = one_sided_unit_rule(
        2.0 * np.pi * spec.h * (Wz + spec.dp * span), M1, power=2)

    def node_map(w, v, u):
        ky = spec.dp * spec.h * w * v
        return np.stack([spec.s * ky * u, ky, spec.h * w], -1)

    weights, nodes = _cascade(spec.h ** 3 * spec.dp ** 2 * spec.s, [
        lambda: outer,
        lambda w: one_sided_unit_rule(
            2.0 * np.pi * spec.h * spec.dp * w * span, M2, power=1),
        lambda w, v: symmetric_sinc_rule(
            2.0 * np.pi * spec.h * spec.dp * spec.s * w * v * Wx, M3)],
        node_map)
    return _cloud(weights, nodes, tetrahedron_region(spec.h, spec.dp, spec.s),
                  target_box, profile_grid, construction="tetra-cascade",
                  M1=M1, M2=M2, M3=M3, target_box=_box_provenance(target_box))


# --------------------------------------------------------------------------
# tetrahedral symmetry

_SQ3 = math.sqrt(3.0)
_SQ6 = math.sqrt(6.0)

# unit-edge regular tetrahedron centred at the origin
TETRA_VERTICES = np.array([
    [-0.5, -_SQ3 / 6.0, -_SQ6 / 12.0],
    [0.5, -_SQ3 / 6.0, -_SQ6 / 12.0],
    [0.0, _SQ3 / 3.0, -_SQ6 / 12.0],
    [0.0, 0.0, _SQ6 / 4.0],
])


def rotation_matrix(axis, theta: float) -> np.ndarray:
    """Axis-angle rotation, axis need not be normalized."""
    u = np.asarray(axis, dtype=float)
    u = u / np.linalg.norm(u)
    c, s = np.cos(theta), np.sin(theta)
    ux = np.array([[0.0, -u[2], u[1]],
                   [u[2], 0.0, -u[0]],
                   [-u[1], u[0], 0.0]])
    return c * np.eye(3) + s * ux + (1.0 - c) * np.outer(u, u)


def tetra_symmetry_group() -> list:
    """The 12 rotations of the regular tetrahedron.

    Generated by closure from two vertex rotations; the canonical sort of
    the rounded entries keeps the output order deterministic.
    """
    g1 = rotation_matrix(TETRA_VERTICES[3], 2.0 * np.pi / 3.0)
    g2 = rotation_matrix(TETRA_VERTICES[0], 2.0 * np.pi / 3.0)

    def key(m):
        return tuple(np.round(m, 9).ravel())

    group = {key(np.eye(3)): np.eye(3)}
    frontier = [np.eye(3)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in (g1, g2):
                prod = g @ m
                k = key(prod)
                if k not in group:
                    group[k] = prod
                    nxt.append(prod)
        frontier = nxt
    mats = [group[k] for k in sorted(group)]
    if len(mats) != 12:
        raise RuntimeError("tetra rotation closure has %d elements, "
                           "expected 12" % len(mats))
    return mats


def tetra_contains(points, tol: float = 1e-9) -> np.ndarray:
    """Barycentric membership test against the unit regular tetrahedron."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    A = np.vstack([TETRA_VERTICES.T, np.ones(4)])
    rhs = np.vstack([pts.T, np.ones(len(pts))])
    lam = np.linalg.solve(A, rhs)
    return np.all(lam >= -tol, axis=0)


def sub_tetra_spec() -> TetraSpec:
    """Twelfth piece of the unit tetrahedron: centroid over a third of a
    face; h = 1/sqrt(24) (centroid-to-face distance), dp = sqrt(2),
    s = sqrt(3)."""
    return TetraSpec(h=1.0 / math.sqrt(24.0), dp=math.sqrt(2.0),
                     s=math.sqrt(3.0))


# maps the parametrization frame onto the piece over the bottom face:
# +z of the wedge runs from the centroid toward the face centre, +y toward
# the v1-v2 edge midpoint; a rotation by pi about x does both.
SUB_TETRA_PLACEMENT = np.diag([1.0, -1.0, -1.0])


def tetra_symmetric_quadrature(M1: int, M2: int, M3: int,
                               target_box=((-0.3, 0.3),) * 3,
                               profile_grid: int = 7) -> QuadratureND:
    """Rule for the centred unit regular tetrahedron.

    One sub-piece cascade, placed onto the bottom face and copied through
    the 12-element rotation group; invariance of the node multiset is then
    automatic.  Weight total 12 x piece volume = 1/(6 sqrt 2).
    """
    base = tetra_quadrature(sub_tetra_spec(), M1, M2, M3, target_box,
                            profile_grid=0)
    return _group_copies(base, tetra_symmetry_group(), SUB_TETRA_PLACEMENT,
                         "tetra-twelve-pieces", target_box, profile_grid)


# --------------------------------------------------------------------------
# light-cone kernels


def k_cone(spec: ConeSpec, t, x):
    """Kernel of the light cone at time t and spatial offset x.

    n=1 and n=3 are closed forms built on cosinc differences; n=2 sums
    4 pi w0^3 p^2 u^2 j1c(2 pi w0 p r u) cos(2 pi w0 t u) over equal panels
    of a 32-node Gauss-Legendre rule on [0, 1], each spanning at most 24 rad
    of phase, to about 1e-15 |R|; it is the oracle for the sinc surrogate.
    A scalar or 1-D x holds radii (signed offsets for n=1); for n >= 2 an
    x with two or more axes holds spatial points along its last axis.
    """
    if spec.n == 1:
        return _k_cone_1(spec, t, x)
    if spec.n == 2:
        return _k_cone_2(spec, t, x)
    return _k_cone_3(spec, t, x)


def _spatial_radius(x, n: int):
    """|x| for radii (scalar or 1-D x), row norms for n-dimensional points
    (2-D or more, last axis of length n)."""
    x = np.asarray(x, dtype=float)
    if x.ndim >= 2:
        if x.shape[-1] != n:
            raise ValueError("spatial points need a last axis of length %d"
                             % n)
        return np.sqrt(np.sum(x * x, axis=-1))
    return np.abs(x)


def _k_cone_1(spec: ConeSpec, t, x):
    w0, p = spec.omega0, spec.pmax
    t = np.asarray(t, dtype=float)
    r = np.asarray(x, dtype=float)
    t, r = np.broadcast_arrays(t, r)
    a = 2.0 * np.pi * w0 * t
    b = 2.0 * np.pi * w0 * p * r
    small = np.abs(b) <= _DQ_CUT
    bs = np.where(small, 1.0, b)
    dq = np.asarray((cosinc(a + bs) - cosinc(a - bs)) / (2.0 * bs),
                    dtype=float)
    if np.any(small):
        asm = a[small]
        b2 = b[small] ** 2
        cd = _expc_derivs((1, 3, 5), asm).imag    # cosinc^{(k)}(a)
        dq[small] = cd[0] + b2 * cd[1] / 6.0 + b2 ** 2 * cd[2] / 120.0
    out = (4.0 * w0 ** 2 * p * dq).astype(complex)
    return _scalar(out)


def _j1c(z):
    """J1(z)/z of a float array, with the limit 1/2 at zero."""
    from scipy.special import j1 as bessel_j1
    small = np.abs(z) <= 1e-4
    zs = np.where(small, 1.0, z)
    return np.where(small, 0.5 - z * z / 16.0 + z ** 4 / 384.0,
                    bessel_j1(zs) / zs)


_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)
_GL_X, _GL_W = 0.5 * (_GL_X + 1.0), 0.5 * _GL_W      # on [0, 1]
_CHUNK = 1 << 18        # points x nodes per chunk of the n=2 cone sum


def _k_cone_2(spec: ConeSpec, t, x):
    w0, p = spec.omega0, spec.pmax
    r = _spatial_radius(x, spec.n)
    t, r = np.broadcast_arrays(np.asarray(t, dtype=float), r)
    a = 2.0 * np.pi * w0 * t.ravel()
    b = 2.0 * np.pi * w0 * p * r.ravel()
    panels = (np.abs(a) + b) // 24.0 + 1       # at most 24 rad per panel
    out = np.empty(a.shape)
    for n in np.unique(panels):
        idx = np.flatnonzero(panels == n)
        j = np.arange(n)[:, None]
        u = ((j + _GL_X) / n).ravel()
        wu2 = np.tile(_GL_W / n, int(n)) * u * u
        step = max(1, _CHUNK // u.size)
        for i in np.split(idx, range(step, idx.size, step)):
            # a u rounded would cost up to eps |a| of phase; so g = a/n
            # splits into a 26-bit head, whose product with j is exact
            g = a[i, None, None] / n
            head = g * 134217729.0 - (g * 134217729.0 - g)
            c = (np.exp(1j * head * j) * np.exp(1j * (g - head) * j)
                 * np.exp(1j * g * _GL_X)).real.reshape(i.size, -1)
            out[i] = np.sum(wu2 * _j1c(b[i, None] * u) * c, axis=1)
    out = (4.0 * np.pi * w0 ** 3 * p ** 2 * out).reshape(t.shape)
    return _scalar(out.astype(complex))


def _k_cone_3(spec: ConeSpec, t, x):
    w0, p = spec.omega0, spec.pmax
    t = np.asarray(t, dtype=float)
    r = _spatial_radius(x, spec.n)
    t, r = np.broadcast_arrays(t, r)
    a = 2.0 * np.pi * w0 * t
    kap = 2.0 * np.pi * w0 * p
    b = kap * r
    small = np.abs(b) <= 0.5
    bs = np.where(small, 1.0, b)
    rs = np.where(small, 1.0, r)
    bracket = ((cosinc(a + bs) - cosinc(a - bs)) / rs ** 3
               - (kap / rs ** 2) * (_cd1(a + bs) + _cd1(a - bs)))
    out = np.asarray((w0 / (2.0 * np.pi ** 2)) * bracket, dtype=float)
    if np.any(small):
        asm = a[small]
        bsm = b[small]
        cd = _expc_derivs(range(3, 14, 2), asm).imag    # cosinc^{(j)}(a)
        acc = np.zeros_like(asm)
        for j, cdj in zip(range(3, 14, 2), cd):
            acc += cdj * bsm ** (j - 3) * (1.0 - j) / math.factorial(j)
        out[small] = (w0 / np.pi ** 2) * kap ** 3 * acc
    out = out.astype(complex)
    return _scalar(out)


def _cd1(u):
    """First derivative of cosinc: (sin u)/u - (1 - cos u)/u^2, stable."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) <= _DQ_CUT
    us = np.where(small, 1.0, u)
    direct = np.sin(us) / us - (1.0 - np.cos(us)) / us ** 2
    series = 0.5 - u * u / 8.0 + u ** 4 / 144.0
    out = np.where(small, series, direct)
    return _scalar(out)


def j1_expansion_from_rule(j1_rule: Quadrature1D):
    """(alpha_m, gamma_m) with J1(u) ~ sum alpha_m cosinc(gamma_m u).

    The moment solver hands back (w_m, g_m) matching the j1_cosinc moments
    as sum w g^n; the expansion nodes are gamma = sqrt(g) with coefficients
    alpha = w / gamma.
    """
    g = np.asarray(j1_rule.nodes)
    if np.iscomplexobj(g):
        if np.max(np.abs(g.imag)) > 1e-8 * np.max(np.abs(g)):
            raise ValueError("j1 rule has genuinely complex nodes")
        g = g.real
    if np.any(g <= 0):
        raise ValueError("j1 rule has non-positive nodes")
    gamma = np.sqrt(g)
    w = np.asarray(j1_rule.weights)
    if np.iscomplexobj(w):
        w = w.real
    return w / gamma, gamma


def tilde_k_cone(spec: ConeSpec, j1_rule: Quadrature1D, t, r):
    """Sinc-combination surrogate of the n=2 cone kernel.

    K~ = (w0 / (pi r^2)) sum_m (alpha_m/gamma_m) [sinc(at)
         - (sinc(c_m - at) + sinc(c_m + at))/2],  at = 2 pi w0 t,
    c_m = 2 pi w0 gamma_m pmax r; its frequency support lies in the cone
    dilated by max gamma_m.  Small r switches to the even-derivative
    series of the bracket.
    """
    if spec.n != 2:
        raise ValueError("surrogate defined for the n=2 cone")
    alpha, gamma = j1_expansion_from_rule(j1_rule)
    w0, p = spec.omega0, spec.pmax
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    t, r = np.broadcast_arrays(t, r)
    at = 2.0 * np.pi * w0 * t
    big = 2.0 * np.pi * w0 * p * np.abs(r) * np.max(gamma) > 0.5
    out = np.zeros(t.shape, dtype=float)
    if np.any(big):
        atb = at[big]
        rb = r[big]
        acc = np.zeros_like(atb)
        for am, gm in zip(alpha, gamma):
            cm = 2.0 * np.pi * w0 * gm * p * rb
            acc += (am / gm) * (sinc(atb) - 0.5 * (sinc(cm - atb) +
                                                   sinc(cm + atb)))
        out[big] = (w0 / np.pi) * acc / rb ** 2
    if np.any(~big):
        # bracket = -sum_{even j>=2} sinc^{(j)}(at) c^j / j!; the j=2 term
        # carries r^2, so divide it out analytically before summing
        ats = at[~big]
        rsm = r[~big]
        sd = _expc_derivs(range(2, 13, 2), ats).real    # sinc^{(j)}(at)
        scale = (2.0 * np.pi * w0 * p) ** 2
        acc = np.zeros_like(ats)
        for am, gm in zip(alpha, gamma):
            g2s = scale * gm * gm
            c2 = g2s * rsm * rsm
            inner = np.zeros_like(ats)
            cpow = np.ones_like(ats)
            for j, sdj in zip(range(2, 13, 2), sd):
                inner += sdj * g2s * cpow / math.factorial(j)
                cpow = cpow * c2
            acc += (am / gm) * inner
        out[~big] = -(w0 / np.pi) * acc
    out = out.astype(complex)
    return _scalar(out)


def _x_overlap(gamma: float) -> float:
    """int_0^inf J1(u) cosinc(gamma u) du / u, closed form.

    gamma/2 below 1; above, gamma/2 - sqrt(g^2-1)/2 + arccosh(g)/(2g).
    """
    if gamma <= 1.0:
        return gamma / 2.0
    root = math.sqrt(gamma * gamma - 1.0)
    return gamma / 2.0 - root / 2.0 + math.log(gamma + root) / (2.0 * gamma)


def _w_cross(gm: float, gp: float) -> float:
    """int_0^inf cosinc(gm u) cosinc(gp u) du / u, closed form.

    With lambda = (a, b, a + b, |a - b|) and c = (-1, -1, 1/2, 1/2) it is
    sum c_i lambda_i^2 ln lambda_i / (2 a b), 0^2 ln 0 = 0.  sum c_i
    lambda_i^2 = 0, so only t = min/max enters:
    [(1+t)^2 ln(1+t) + (1-t)^2 ln(1-t) - 2 t^2 ln t] / (4 t).
    """
    t = min(gm, gp) / max(gm, gp)
    odd = (1.0 - t) ** 2 * math.log1p(-t) if t < 1.0 else 0.0
    return ((1.0 + t) ** 2 * math.log1p(t) + odd
            - 2.0 * t * t * math.log(t)) / (4.0 * t)


def cone_ls_error(spec: ConeSpec, j1_rule: Quadrature1D) -> float:
    """Integrated squared error of the sinc surrogate against the cone
    kernel: (4 pi / 3) w0^3 p^2 (1/2 - 2 sum a X(g) + sum a w a)."""
    alpha, gamma = j1_expansion_from_rule(j1_rule)
    V = 0.5 - 2.0 * sum(a * _x_overlap(g) for a, g in zip(alpha, gamma))
    for i, (ai, gi) in enumerate(zip(alpha, gamma)):
        for j, (aj, gj) in enumerate(zip(alpha, gamma)):
            if j < i:
                continue
            w = _w_cross(gi, gj)
            V += ai * aj * w * (1.0 if i == j else 2.0)
    return (4.0 * np.pi / 3.0) * spec.omega0 ** 3 * spec.pmax ** 2 * V


def cone_ls_error_bruteforce(spec: ConeSpec, j1_rule: Quadrature1D) -> float:
    """Independent squared-error estimate through the frequency domain.

    By Plancherel the error integral equals
    (4 pi/3) w0^3 p^2 int_0^inf |chi_{u<1} - H(u)|^2 u du with
    H(u) = sum_m (alpha_m/gamma_m) arccosh(gamma_m/u) over u < gamma_m,
    the radial transform shape of the surrogate disc profile.
    """
    alpha, gamma = j1_expansion_from_rule(j1_rule)

    def H(u):
        acc = 0.0
        for am, gm in zip(alpha, gamma):
            if u < gm:
                acc += (am / gm) * math.acosh(gm / u)
        return acc

    def integrand(u):
        chi = 1.0 if u < 1.0 else 0.0
        d = chi - H(u)
        return d * d * u

    # piecewise between the kinks at u = gamma_m and u = 1; the integrand
    # vanishes identically beyond max(1, gamma_max)
    cuts = sorted(set([0.0, 1.0] + [float(g) for g in gamma]))
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        total += quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-10,
                      limit=300)[0]
    pref = (4.0 * np.pi / 3.0) * spec.omega0 ** 3 * spec.pmax ** 2
    return pref * total


def cone_quadrature(spec: ConeSpec, M_w: int, M_p: int, M_t: int,
                    target_box=((-0.5, 0.5),) * 3,
                    profile_grid: int = 7) -> QuadratureND:
    """Cascade for the n=2 cone: symmetric frequency rule weighted w^2,
    per-frequency radial rule weighted rho, equiangular azimuth ring.
    """
    if spec.n != 2:
        raise ValueError("cascade implemented for the n=2 cone")
    w0, p = spec.omega0, spec.pmax
    Wt, Wx, Wy = _difference_widths(target_box)
    Wr = math.hypot(Wx, Wy)
    outer = symmetric_sinc_rule(2.0 * np.pi * w0 * (Wt + p * Wr), M_w)
    ring = _azimuth_ring(M_t)

    def node_map(Om, rho, az):
        kr = w0 * np.abs(Om) * p * rho
        return np.stack([w0 * Om, kr * az[:, 0], kr * az[:, 1]], -1)

    # w^2 enters as two factors right after A (w0^3 p^2 A w w B az_w); this
    # order keeps the weights' rounding at every omega0, pmax
    weights, nodes = _cascade(w0 ** 3 * p ** 2, [
        lambda: ((outer.weights, outer.nodes, outer.nodes), outer.nodes),
        lambda Om: one_sided_unit_rule(
            2.0 * np.pi * w0 * abs(Om) * p * Wr, M_p, power=1),
        lambda Om, rho: ring], node_map)
    return _cloud(weights, nodes, cone_region(w0, p, 2), target_box,
                  profile_grid, construction="cone-cascade", M_w=M_w,
                  M_p=M_p, M_t=M_t, target_box=_box_provenance(target_box))


# --------------------------------------------------------------------------
# ball


# |R| 3 (sin u - u cos u)/u^3 = |R| sum_{k>=1} (-1)^(k+1) 6k u^(2k-2)/(2k+1)!
# for u <= 0.5, where the direct difference loses up to eps/u^2; eight terms
# leave out less than 1e-20 at the cut.  Highest power of u^2 first.
_BALL_CUT = 0.5
_BALL_SERIES = [(-1) ** (k + 1) * 6.0 * k / math.factorial(2 * k + 1)
                for k in range(8, 0, -1)]


def k_ball(k_max: float, x):
    """Kernel of the radius-k_max ball:
    (sin u - u cos u)/(2 pi^2 r^3) with u = 2 pi k_max r.

    A scalar or 1-D x holds radii; an x with two or more axes holds 3D
    points along its last axis.
    """
    _require_positive(k_max=k_max)
    r = _spatial_radius(x, 3)
    u = 2.0 * np.pi * k_max * np.asarray(r, dtype=float)
    small = np.abs(u) <= _BALL_CUT
    us = np.where(small, 1.0, u)
    rs = np.where(small, 1.0, r)
    direct = (np.sin(us) - us * np.cos(us)) / (2.0 * np.pi ** 2 * rs ** 3)
    vol = 4.0 * np.pi * k_max ** 3 / 3.0
    series = vol * np.polyval(_BALL_SERIES, u * u)
    out = np.where(small, series, direct).astype(complex)
    return _scalar(out)


def ball_quadrature(k_max: float, M_r: int, M_th: int, M_t: int,
                    target_box=((-0.5, 0.5),) * 3,
                    profile_grid: int = 7) -> QuadratureND:
    """Cascade for the ball: rho^2-weighted radial rule, symmetric polar
    rule, equiangular azimuth; weights sum to the ball volume."""
    _require_positive(k_max=k_max)
    Wx, Wy, Wz = _difference_widths(target_box)
    WR = math.sqrt(Wx * Wx + Wy * Wy + Wz * Wz)
    radial = one_sided_unit_rule(2.0 * np.pi * k_max * WR, M_r, power=2)
    ring = _azimuth_ring(M_t)

    def node_map(rho, tau, az):
        kt = k_max * rho * _sine(tau)
        return np.stack([kt * az[:, 0], kt * az[:, 1], k_max * rho * tau], -1)

    weights, nodes = _cascade(k_max ** 3, [
        lambda: radial,
        lambda rho: symmetric_sinc_rule(2.0 * np.pi * k_max * rho * WR, M_th),
        lambda rho, tau: ring], node_map)
    return _cloud(weights, nodes, ball_region(k_max), target_box,
                  profile_grid, construction="ball-cascade", M_r=M_r,
                  M_th=M_th, M_t=M_t, target_box=_box_provenance(target_box))
