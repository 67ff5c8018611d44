"""Band-limited and region-limited projections from exponential-sum kernels.

The continuous projection onto functions with spectrum in B R is
convolution with kappa_B(x) = |det B| K_R(B x); replacing kappa_B by a
finite exponential sum turns both the projection and its sampling
reconstruction into small dense linear algebra.  All routines here keep
the exact closed-form kernels and the surrogate sums side by side so each
result can carry a computable error bound.
"""
from __future__ import annotations

import math

import numpy as np
from dataclasses import dataclass, field, replace

from .numkit import _quad as quad, _scalar, sinc, PointSet, SampledField, \
    grid_axes
from .moments import Quadrature1D, uniform_rule
from .sincapprox import CosineSumApprox, error_epsilon_B
from .kernels import (QuadratureND, interval_region, region_dim,
                      region_kernel_exact, _as_points, _measured_profile)

__all__ = [
    "ProjectionResult", "expsum_kernel", "region_dim",
    "region_kernel_exact", "bandlimited_projection_oracle",
    "discrete_fourier_repr_1d", "discrete_repr_error_bound",
    "nyquist_delta_train_check", "sampling_interpolation_1d",
    "rlimited_discrete_fourier", "ra_sampling_interpolation",
    "patched_projection", "patched_sample_points",
    "needed_base_box", "measure_kernel_profile",
]

_MU_MIN = 1e-8


# --------------------------------------------------------------------------
# exponential-sum kernels


def expsum_kernel(q, band=None) -> QuadratureND:
    """Attach a band to a quadrature rule.

    A symmetric 1D frequency rule becomes an interval cloud (weights
    already sum to 2 B); a cascade QuadratureND becomes a copy whose
    weights and error profile get the |det B| scaling here.
    """
    if isinstance(q, Quadrature1D):
        if not q.symmetric:
            raise ValueError("1D kernels need a symmetric rule")
        B0 = float(np.atleast_2d(q.band if band is None else band)[0, 0])
        w = np.asarray(q.weights, dtype=float) * (B0 / float(q.band))
        return QuadratureND(weights=w,
                            nodes=np.asarray(q.nodes, dtype=float)[:, None],
                            region=interval_region(), band=np.array([[B0]]))
    if not isinstance(q, QuadratureND):
        raise TypeError("expected Quadrature1D or QuadratureND")
    d = q.nodes.shape[1]
    if not np.array_equal(q.band, np.eye(d)):
        raise ValueError("the node cloud already carries a band")
    Bm = np.atleast_2d(np.asarray(np.eye(d) if band is None else band,
                                  dtype=float))
    det = abs(float(np.linalg.det(Bm)))
    prov = dict(q.provenance)
    prof = prov.get("error_profile")
    if prof:
        prov["error_profile"] = dict(prof, max_err=det * prof["max_err"])
    return replace(q, weights=det * q.weights, band=Bm, provenance=prov)


@dataclass
class ProjectionResult:
    field: SampledField
    error_bound: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.error_bound >= 0:
            raise ValueError("error bound must be nonnegative")


# --------------------------------------------------------------------------
# 1D band-limited projection


def bandlimited_projection_oracle(f, B: float, t, support=(-1.0, 1.0)):
    """Adaptive quadrature of int f(s) 2B sinc(2 pi B (t - s)) ds.

    The integrand is split at the sinc peak; this is the reference every
    1D projection route is tested against, so accuracy beats speed here.
    The verify suite uses a composite Gauss oracle instead, which the tests
    cross-check against this one.
    """
    lo, hi = float(support[0]), float(support[1])
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(len(ts))
    for i, ti in enumerate(ts):
        def g(s):
            return float(f(s)) * 2.0 * B * sinc(2.0 * np.pi * B * (ti - s))
        cuts = [lo, ti, hi] if lo < ti < hi else [lo, hi]
        acc = 0.0
        for a0, b0 in zip(cuts[:-1], cuts[1:]):
            val, err = quad(g, a0, b0, epsabs=1e-10, epsrel=1e-11,
                            limit=400)
            acc += val
        out[i] = acc
    return float(out[0]) if np.ndim(t) == 0 else out


def discrete_fourier_repr_1d(fhat_at_nodes, q: Quadrature1D, B: float, t):
    """sum_m a_m fhat(B w_m) e^{i 2 pi B w_m t}.

    The rule's weights rescale by B / q.band, so one frequency rule serves
    every band; with the uniform rule this is the discrete inverse Fourier
    transform.
    """
    vals = np.asarray(fhat_at_nodes, dtype=complex)
    om = np.asarray(q.nodes, dtype=float)
    if len(vals) != len(om):
        raise ValueError("need one spectrum value per node")
    a = np.asarray(q.weights, dtype=float) * (float(B) / float(q.band))
    t = np.asarray(t, dtype=float)
    out = np.exp(2j * np.pi * B * t[..., None] * om) @ (a * vals)
    return _scalar(out)


def discrete_repr_error_bound(a: CosineSumApprox, B: float, T: float, f_max):
    """Worst-case bound 2 T max|f| max_{|t| <= 2T} |eps_B(2 pi t)| for the
    discrete representation of the band-B projection of a function
    supported on [-T, T]; eps_B carries the 2B factor, and its max is
    taken over 4001 points of [-2T, 2T].

    f_max may be an array of max|f| values: eps_B is then evaluated once
    and one bound is returned per entry.
    """
    t = np.linspace(-2.0 * T, 2.0 * T, 4001)
    x = 2.0 * np.pi * t * (float(B) / a.B0)
    eps = 2.0 * float(B) * np.abs(error_epsilon_B(a, x))
    out = 2.0 * T * np.asarray(f_max, dtype=float) * np.max(eps)
    return float(out) if out.ndim == 0 else out


def nyquist_delta_train_check(f_k, M: int, K: int, B: float = 1.0) -> dict:
    """Delta-train identity at Nyquist spacing.

    The train sum_l f_l delta(t - l/(2B)), |l| <= K, projects to
    f_B(t) = sum_l f_l 2B sinc(2 pi B (t - l/(2B))); the uniform-rule
    representation recovers f_B(l/(2B)) = 2B f_l exactly once M >= K,
    because the node phases telescope to Kronecker deltas.
    """
    f_k = np.atleast_1d(np.asarray(f_k, dtype=complex))
    if len(f_k) != 2 * K + 1:
        raise ValueError("need 2K+1 train coefficients")
    if M < K:
        raise ValueError("uniform rule order M must be at least K")
    B = float(B)
    q = uniform_rule(B, M)
    ls = np.arange(-K, K + 1)
    sites = ls / (2.0 * B)
    xi = B * np.asarray(q.nodes, dtype=float)
    fhat = np.exp(-2j * np.pi * np.outer(xi, sites)) @ f_k
    rec = discrete_fourier_repr_1d(fhat, q, B, sites)
    expected = 2.0 * B * f_k
    err = float(np.max(np.abs(rec - expected)))
    return {"max_abs_error": err, "recovered": rec, "expected": expected,
            "M": int(M), "K": int(K), "B": B,
            "passed": err <= 1e-9 * 2.0 * B,
            "support_T": (2 * K + 1) / (4.0 * B)}


# --------------------------------------------------------------------------
# sampling interpolation


def _samples_at(f, sites: np.ndarray, what: str) -> np.ndarray:
    """Sample values at the (n, d) sites: a SampledField whose points match
    the sites (1e-9 relative), or one value per site."""
    if isinstance(f, SampledField):
        pts = _as_points(f.points.points, sites.shape[1])[0]
        if pts.shape != sites.shape or not np.allclose(
                pts, sites, atol=1e-9 * max(1.0, float(np.abs(sites).max()))):
            raise ValueError("sample points do not match the %s" % what)
        return np.asarray(f.values, dtype=complex)
    vals = np.asarray(f, dtype=complex)
    if len(vals) != len(sites):
        raise ValueError("sample count does not match the %s" % what)
    return vals


_BLOCK = 2 ** 18  # kernel values per block of the interpolation sum


def _interpolate(v, kernel: QuadratureND, args, basis, regularization: str,
                 mu_min: float):
    """The sampling reconstruction in base weights w, as (out, F):

      out = sum_k |det B| K_R(args[..., k, :]) w_k F_k,

    with F = R^(p) D_w v for the regularized inverse frame operator:

      direct    F = v (unregularized completeness limit)
      kernel    F = kappa_B D_w v, kappa_B[l,m] = |det B| K_R(B (k_l - k_m))
      spectral  F = sum_{mu_n >= mu_min} mu_n^{-1} phi_n phi_n^H D_w v,
                phi_n scaled to sum_m w_m |phi_n|^2 = 1; needs basis

    Both sums evaluate the kernel in blocks of about _BLOCK values, so no
    P x N kernel matrix is built whole.
    """
    w = kernel.base_weights()
    d = kernel.nodes.shape[1]

    def ksum(args, c):
        n = args.shape[-2]
        flat = args.reshape(-1, n, d)
        c = kernel.weights * c  # |det B| w c
        out = np.empty(len(flat), dtype=complex)
        step = max(1, _BLOCK // n)
        for i in range(0, len(flat), step):
            blk = flat[i:i + step]
            out[i:i + step] = region_kernel_exact(
                kernel.region, blk.reshape(-1, d)).reshape(len(blk), n) @ c
        return out.reshape(args.shape[:-2])

    if regularization == "direct":
        F = v
    elif regularization == "kernel":
        nodes = kernel.nodes
        F = ksum((nodes[:, None, :] - nodes[None, :, :]) @ kernel.band.T, v)
    elif regularization == "spectral":
        if basis is None:
            raise ValueError("spectral regularization needs an eigenbasis")
        vecs = np.asarray(basis.eigenvectors)
        if len(vecs) != len(v):
            raise ValueError("basis size does not match the samples")
        phi = vecs / np.sqrt(w @ np.abs(vecs) ** 2)
        mu = np.asarray(basis.eigenvalues_mu, dtype=float)
        keep = mu >= mu_min
        F = phi[:, keep] @ ((phi[:, keep].conj().T @ (w * v)) / mu[keep])
    else:
        raise ValueError("unknown regularization %r" % regularization)
    return ksum(args, F), F


def sampling_interpolation_1d(f_at_nodes, q: Quadrature1D, B: float, t,
                              basis=None, regularization: str = "kernel",
                              mu_min: float = _MU_MIN):
    """Band-limited interpolation through weighted node samples, the
    interval case of the region route (_interpolate) with the kernel
    expsum_kernel(q, band=B): base weights a / B for the band-B weights a,
    and |det B| K_R(B (t - w)) = 2B sinc(2 pi B (t - w)), so

      out(t) = sum_k a_k 2 sinc(2 pi B (t - w_k)) F_k.

    "spectral" needs the kernel-system basis of the rule.  At the Nyquist
    uniform rule every route collapses to plain sinc interpolation of the
    samples.
    """
    kernel = expsum_kernel(q, band=B)
    om = kernel.nodes
    v = _samples_at(f_at_nodes, om, "rule nodes")
    t = np.asarray(t, dtype=float)
    out, _ = _interpolate(v, kernel, float(B) * (t[..., None, None] - om),
                          basis, regularization, mu_min)
    return _scalar(out)


# --------------------------------------------------------------------------
# region-limited projection


def _trapezoid_weights(ax: np.ndarray) -> np.ndarray:
    if len(ax) == 1:
        return np.ones(1)
    return 0.5 * np.r_[ax[1] - ax[0], ax[2:] - ax[:-2], ax[-1] - ax[-2]]


def _grid_fhat(f: SampledField, xi: np.ndarray):
    """Spectrum samples fhat(xi) = sum_g W_g f(x_g) e^{-i 2 pi xi.x_g}, the
    trapezoid rule over the sample grid; returns (fhat, axes).  The samples
    (any row order) fill a grid array that is contracted one axis at a time
    against W_d[j] e^{-i 2 pi xi_d x_d[j]}: d n N exponentials for N nodes
    and n points per axis, not N G for G grid points, in node blocks that
    keep temporaries under 4e6 elements."""
    axes, slot = grid_axes(f.points.points)
    grid = np.zeros((len(axes[0]), len(slot) // len(axes[0])), complex)
    grid.flat[slot] = f.values
    out = np.empty(len(xi), dtype=complex)
    step = max(1, int(4e6 // max(grid.shape[1], *map(len, axes))))
    for i0 in range(0, len(xi), step):
        blk = xi[i0:i0 + step]
        acc = None
        for d, ax in enumerate(axes):
            e = _trapezoid_weights(ax) * np.exp(
                -2j * np.pi * blk[:, d, None] * ax)
            acc = e @ grid if acc is None else np.einsum(
                "mj,mjr->mr", e, acc.reshape(len(blk), len(ax), -1))
        out[i0:i0 + step] = acc[:, 0]
    return out, axes


def _coverage_check(kernel: QuadratureND, eval_pts: np.ndarray,
                    support_box) -> None:
    """Every difference (eval - support) must map inside the kernel's
    verified base box under B^T."""
    prof = kernel.provenance.get("error_profile")
    if not prof:
        raise ValueError("kernel carries no error profile to verify "
                         "coverage against")
    need = np.asarray(needed_base_box(kernel, eval_pts, support_box))
    box = np.asarray(prof["box"], dtype=float)
    slack = 1e-9 * np.maximum(1.0, np.abs(box).max())
    if np.any(need[:, 0] < box[:, 0] - slack) or \
            np.any(need[:, 1] > box[:, 1] + slack):
        raise ValueError("kernel error profile does not cover the "
                         "difference set of evaluation points and support")


def needed_base_box(kernel: QuadratureND, eval_pts: np.ndarray,
                    support_box) -> list:
    """Base-coordinate box that covers every evaluation-minus-support
    difference once mapped through B^T; linearity puts the extremes at
    corners."""
    eval_pts = np.atleast_2d(np.asarray(eval_pts, dtype=float))
    lo = eval_pts.min(axis=0) - np.array([hi for _, hi in support_box])
    hi = eval_pts.max(axis=0) - np.array([lo_ for lo_, _ in support_box])
    d = eval_pts.shape[1]
    corners = np.array([[(lo, hi)[(i >> j) & 1][j] for j in range(d)]
                        for i in range(1 << d)])
    mapped = corners @ kernel.band
    return [[float(m), float(M)] for m, M in zip(mapped.min(axis=0),
                                                 mapped.max(axis=0))]


def measure_kernel_profile(kernel: QuadratureND, base_box,
                           grid_n: int = 101) -> QuadratureND:
    """Copy of the kernel carrying a freshly measured error profile, by the
    routine every cascade records its profile with: the sum against |det B|
    times its own region's closed form on a grid_n^d tensor grid over
    base_box (base coordinates: the range of B^T(x - s) differences the
    kernel must cover)."""
    prof = _measured_profile(kernel, base_box, grid_n)
    return replace(kernel, provenance={**kernel.provenance,
                                       "error_profile": prof})


def rlimited_discrete_fourier(f: SampledField, kernel: QuadratureND,
                              x) -> ProjectionResult:
    """Project grid samples onto the kernel's scaled exponentials:
    out(x) = sum_m w_m fhat(B k_m) e^{i 2 pi (B k_m).x}.

    fhat is the trapezoid rule over the sample grid, one axis at a time
    (_grid_fhat: d n N exponentials for N nodes, n points per axis).  The
    error bound is |X| max|f| max|eps_K| from the kernel's scaled profile,
    provided the profile covers every evaluation-minus-support difference
    (refused otherwise).  Trapezoid discretization error is recorded but
    not bounded.  A grid with one point on some axis (|X| = 0) is refused.
    """
    pts, lead = _as_points(x, kernel.nodes.shape[1])
    xi = kernel.scaled_nodes()
    fhat, axes = _grid_fhat(f, xi)
    if min(map(len, axes)) < 2:
        raise ValueError("a sample grid needs at least 2 points on every axis")
    support = [(float(ax[0]), float(ax[-1])) for ax in axes]
    _coverage_check(kernel, pts, support)
    out = np.exp(2j * np.pi * (pts @ xi.T)) @ (kernel.weights * fhat)
    measure = float(np.prod([hi - lo for lo, hi in support]))
    fmax = float(np.max(np.abs(f.values)))
    bound = measure * fmax * kernel.scaled_error_max()
    res_field = SampledField(points=PointSet(pts),
                             values=np.asarray(out, dtype=complex),
                             label="rlimited projection")
    prov = {"route": "discrete-fourier", "n_nodes": len(kernel.weights),
            "support": support, "fhat_rule": "trapezoid",
            "grid_shape": [len(ax) for ax in axes],
            "scalar_input": lead == ()}
    return ProjectionResult(field=res_field, error_bound=bound,
                            provenance=prov)


# --------------------------------------------------------------------------
# transformed-region sampling reconstruction


def ra_sampling_interpolation(f_at_transformed_nodes, kernel: QuadratureND,
                              A, x, basis=None,
                              regularization: str = "kernel",
                              mu_min: float = _MU_MIN) -> ProjectionResult:
    """Reconstruct the R_A-limited projection from samples at A k_m.

    With B = A^T A, g(x) = f(A x) is R_B-limited and the symmetric-band
    reconstruction applies (_interpolate, base weights w):

      out(x) = sum_k w_k |det B| K_R(A^T (x - A k_k)) F_k.

    A = identity reduces to the plain symmetric-band case; on the interval
    region this is sampling_interpolation_1d.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    d = kernel.nodes.shape[1]
    if A.shape != (d, d):
        raise ValueError("transform matrix has wrong shape")
    if abs(float(np.linalg.det(A))) <= 1e-14:
        raise ValueError("transform matrix is singular")
    B = A.T @ A
    if not np.allclose(B, kernel.band,
                       atol=1e-9 * max(1.0, float(np.abs(B).max()))):
        raise ValueError("kernel band does not equal A^T A")
    sites = kernel.nodes @ A.T
    v = _samples_at(f_at_transformed_nodes, sites, "transformed nodes")
    pts, lead = _as_points(x, d)
    out, F = _interpolate(v, kernel, (pts[:, None, :] - sites) @ A, basis,
                          regularization, mu_min)
    w = kernel.base_weights()
    eps = kernel.scaled_error_max()
    bound = float(eps * np.sum(np.abs(w * F))) if math.isfinite(eps) \
        else math.inf
    res_field = SampledField(points=PointSet(pts),
                             values=np.asarray(out, dtype=complex),
                             label="ra sampling interpolation")
    prov = {"route": "ra-sampling", "regularization": regularization,
            "n_nodes": len(sites), "transform": A.tolist(),
            "mu_min": mu_min, "scalar_input": lead == (),
            "bound_note": "first-order kernel-surrogate term"}
    return ProjectionResult(field=res_field, error_bound=bound,
                            provenance=prov)


def patched_sample_points(parts) -> np.ndarray:
    """Union of per-part sample sites A_l k_m, concatenated in part order."""
    if not parts:
        raise ValueError("no parts")
    return np.vstack([k.nodes @ np.atleast_2d(np.asarray(A, float)).T
                      for A, k in parts])


def patched_projection(parts, f, x) -> ProjectionResult:
    """Sum of per-part transformed reconstructions, each through the
    kernel route of ra_sampling_interpolation.

    parts is a list of (A_l, kernel_l); the transformed regions must
    overlap only in measure zero (caller's assertion, recorded).  Sample
    values follow the concatenation order of patched_sample_points.
    """
    vals = _samples_at(f, patched_sample_points(parts), "part layout")
    out = None
    bound = 0.0
    prov_parts = []
    start = 0
    for A, kern in parts:
        n = len(kern.nodes)
        res = ra_sampling_interpolation(vals[start:start + n], kern, A, x)
        start += n
        out = res.field.values if out is None else out + res.field.values
        bound += res.error_bound
        prov_parts.append(res.provenance)
    pts, lead = _as_points(x, parts[0][1].nodes.shape[1])
    res_field = SampledField(points=PointSet(pts), values=out,
                             label="patched projection")
    return ProjectionResult(field=res_field, error_bound=bound,
                            provenance={"route": "patched",
                                        "n_parts": len(parts),
                                        "overlap": "measure-zero asserted "
                                                   "by caller",
                                        "scalar_input": lead == (),
                                        "parts": prov_parts})
