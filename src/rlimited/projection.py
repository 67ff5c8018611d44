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
from scipy.integrate import quad

from .numkit import _scalar, sinc, PointSet, SampledField, grid_axes
from .moments import Quadrature1D, uniform_rule
from .sincapprox import CosineSumApprox, error_epsilon_B
from .kernels import (QuadratureND, interval_region, region_dim,
                      region_kernel_exact, _as_points, _error_profile)

__all__ = [
    "ProjectionResult", "expsum_kernel", "region_dim",
    "region_kernel_exact", "bandlimited_projection_oracle",
    "discrete_fourier_repr_1d", "discrete_repr_error_bound",
    "nyquist_delta_train_check", "sampling_interpolation_1d",
    "sampling_interpolation_scaled", "reconstruction_stability_constant",
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
        prov["error_profile"] = {
            "max_err": det * float(prof["max_err"]),
            "box": [list(map(float, b)) for b in prof["box"]],
            "grid_n": int(prof.get("grid_n", 0))}
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


def bandlimited_projection_oracle(f, B: float, t, support=(-1.0, 1.0),
                                  epsabs: float = 1e-10):
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
            val, err = quad(g, a0, b0, epsabs=epsabs, epsrel=1e-11,
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


def discrete_repr_error_bound(a: CosineSumApprox, B: float, T: float,
                              f_max: float, grid: int = 4001) -> float:
    """Worst-case bound 2 T max|f| max_{|t| <= 2T} |eps_B(2 pi t)| for the
    discrete representation of the band-B projection of a function
    supported on [-T, T]; eps_B carries the 2B factor."""
    t = np.linspace(-2.0 * T, 2.0 * T, int(grid))
    x = 2.0 * np.pi * t * (float(B) / a.B0)
    eps = 2.0 * float(B) * np.abs(error_epsilon_B(a, x))
    return float(2.0 * T * f_max * np.max(eps))


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
# 1D sampling interpolation


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


def _rescaled_vectors(basis, weights: np.ndarray, target: float):
    """Columns scaled so sum_m a_m |phi(w_m)|^2 = target."""
    vecs = np.asarray(basis.eigenvectors)
    nrm2 = np.einsum("m,mn->n", weights, np.abs(vecs) ** 2)
    return vecs * np.sqrt(target / nrm2)[None, :]


def _frame_coefficients(v, w, gram, basis, target: float, mu_min: float,
                        regularization: str) -> np.ndarray:
    """R^(p) D_w v for the regularized inverse frame operator.

    "kernel" applies the Gram matrix gram() (built only on this route);
    "spectral" applies sum_{mu_n >= mu_min} mu_n^{-1} phi_n phi_n^H with
    phi_n scaled to sum_m w_m |phi_n|^2 = target.
    """
    if regularization == "kernel":
        return gram() @ (w * v)
    if regularization != "spectral":
        raise ValueError("unknown regularization %r" % regularization)
    if basis is None:
        raise ValueError("spectral regularization needs an eigenbasis")
    if len(basis.eigenvectors) != len(v):
        raise ValueError("basis size does not match the samples")
    phi = _rescaled_vectors(basis, w, target)
    mu = np.asarray(basis.eigenvalues_mu, dtype=float)
    keep = mu >= mu_min
    proj = phi[:, keep].conj().T @ (w * v)
    return phi[:, keep] @ (proj / mu[keep])


def sampling_interpolation_1d(f_at_nodes, q: Quadrature1D, B: float, t,
                              basis=None, sample_kind: str = "function",
                              regularization: str = "kernel",
                              mu_min: float = _MU_MIN):
    """Band-limited interpolation through weighted node samples.

    out(t) = sum_k a_k 2B sinc(2 pi B (t - w_k)) c_k with
    c = R^(p) D_a v / B^2 for the regularized inverse frame operator:

      kernel    R^(1)[m,k] = 2B sinc(2 pi B (w_m - w_k)); no basis needed
      spectral  R^(-1) = sum_{mu_n >= mu_min} mu_n^{-1} phi_n phi_n^H,
                phi_n scaled to sum_m a_m |phi_n(w_m)|^2 = B; needs basis
      direct    c = v / B (unregularized completeness limit)

    sample_kind records whether v holds samples of f or of its projection
    f_B; the algebra is identical, the interpretation is not.  At the
    Nyquist uniform rule the kernel route collapses to plain sinc
    interpolation of the samples.
    """
    if sample_kind not in ("function", "projection"):
        raise ValueError("sample_kind must be function or projection")
    if not q.symmetric:
        raise ValueError("interpolation needs a symmetric rule")
    B = float(B)
    om = np.asarray(q.nodes, dtype=float)
    al = np.asarray(q.weights, dtype=float) * (B / float(q.band))
    v = _samples_at(f_at_nodes, om[:, None], "rule nodes")
    if regularization == "direct":
        c = v / B
    else:
        c = _frame_coefficients(
            v, al, lambda: (2.0 * B * sinc(
                2.0 * np.pi * B * (om[:, None] - om[None, :]))).T,
            basis, B, mu_min, regularization) / B ** 2
    t = np.asarray(t, dtype=float)
    kern = 2.0 * B * sinc(2.0 * np.pi * B * (t[..., None] - om))
    out = kern @ (al * c)
    return _scalar(out)


def sampling_interpolation_scaled(f_at_nodes, q: Quadrature1D, B: float,
                                  T: float, t, **kw):
    """Support [-T, T] wrapper: g(u) = f(T u) is handled at band B T, and
    f_B(t) = g_{BT}(t / T) exactly."""
    t = np.asarray(t, dtype=float)
    return sampling_interpolation_1d(f_at_nodes, q, B * float(T), t / T,
                                     **kw)


def reconstruction_stability_constant(basis, eps0: float, eps_max: float,
                       mu_min: float = _MU_MIN) -> float:
    """Stability constant of the spectrally regularized reconstruction:

    C = sum_n [ 2 B^{-1/2} mu_n^{-3/2} (2B - eps0)
                + 8 B mu_n^{-2} eps_max ] / eps contribution scale,

    summed over the retained eigenpairs.  Grows fast as mu -> 0, which is
    exactly why the mu_min floor exists.
    """
    B = float(np.atleast_2d(basis.band)[0, 0])
    mu = np.asarray(basis.eigenvalues_mu, dtype=float)
    mu = mu[mu >= mu_min]
    return float(np.sum(2.0 * B ** -0.5 * mu ** -1.5 * (2.0 * B - eps0)
                        + 8.0 * B * mu ** -2.0 * eps_max))


# --------------------------------------------------------------------------
# region-limited projection


def _trapezoid_weights(ax: np.ndarray) -> np.ndarray:
    if len(ax) == 1:
        return np.ones(1)
    w = np.empty(len(ax))
    w[0] = 0.5 * (ax[1] - ax[0])
    w[-1] = 0.5 * (ax[-1] - ax[-2])
    w[1:-1] = 0.5 * (ax[2:] - ax[:-2])
    return w


def _grid_fhat(f: SampledField, xi: np.ndarray):
    """Spectrum samples fhat(xi) = sum_g W_g f(x_g) e^{-i 2 pi xi.x_g}
    by tensor-grid trapezoid over the sample grid.

    Point order is free: each point's weight is the product of its per-axis
    trapezoid weights, found by coordinate lookup."""
    pts = f.points.points
    axes = grid_axes(pts)
    wg = np.ones(len(pts))
    for d, ax in enumerate(axes):
        aw = _trapezoid_weights(ax)
        idx = np.clip(np.searchsorted(ax, pts[:, d]), 0, len(ax) - 1)
        left = np.maximum(idx - 1, 0)
        pick = np.where(np.abs(ax[left] - pts[:, d])
                        < np.abs(ax[idx] - pts[:, d]), left, idx)
        wg = wg * aw[pick]
    wf = wg * np.asarray(f.values, dtype=complex)
    out = np.empty(len(xi), dtype=complex)
    step = max(1, int(4e6 // max(len(pts), 1)))
    for i0 in range(0, len(xi), step):
        blk = xi[i0:i0 + step]
        out[i0:i0 + step] = np.exp(-2j * np.pi * (pts @ blk.T)).T @ wf
    support = [(float(ax[0]), float(ax[-1])) for ax in axes]
    return out, support


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
    """Copy of the kernel carrying a freshly measured error profile.

    The surrogate is compared against the exact closed-form region kernel
    on a tensor grid over base_box (base coordinates, i.e. the range of
    B^T(x - s) differences the kernel must cover).
    """
    det = kernel.det_band()
    inv = np.linalg.inv(kernel.band)
    prof = _error_profile(
        lambda Y: kernel.eval_sum(Y @ inv),
        lambda Y: det * region_kernel_exact(kernel.region, Y),
        base_box, grid_n)
    return replace(kernel, provenance={**kernel.provenance,
                                       "error_profile": prof})


def rlimited_discrete_fourier(f: SampledField, kernel: QuadratureND, x,
                              check_coverage: bool = True) -> ProjectionResult:
    """Project grid samples onto the kernel's scaled exponentials:
    out(x) = sum_m w_m fhat(B k_m) e^{i 2 pi (B k_m).x}.

    fhat comes from trapezoid integration over the tensor sample grid; the
    error bound is |X| max|f| max|eps_K| from the kernel's scaled profile,
    provided the profile covers every evaluation-minus-support difference
    (refused otherwise).  Trapezoid discretization error is recorded but
    not bounded.
    """
    pts, lead = _as_points(x, kernel.nodes.shape[1])
    xi = kernel.scaled_nodes()
    fhat, support = _grid_fhat(f, xi)
    if check_coverage:
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
            "grid_shape": [len(ax) for ax in grid_axes(f.points.points)],
            "scalar_input": lead == ()}
    return ProjectionResult(field=res_field, error_bound=bound,
                            provenance=prov)


# --------------------------------------------------------------------------
# transformed-region sampling reconstruction


def _kappa_matrix(kernel: QuadratureND, diffs: np.ndarray) -> np.ndarray:
    """kappa_B on a stack of base-coordinate differences: the exact region
    kernel at B delta, scaled by |det B|."""
    det = kernel.det_band()
    shape = diffs.shape[:-1]
    flat = diffs.reshape(-1, diffs.shape[-1]) @ kernel.band.T
    K = region_kernel_exact(kernel.region, flat)
    return det * np.asarray(K, dtype=complex).reshape(shape)


def ra_sampling_interpolation(f_at_transformed_nodes, kernel: QuadratureND,
                              A, x, basis=None,
                              regularization: str = "kernel",
                              mu_min: float = _MU_MIN) -> ProjectionResult:
    """Reconstruct the R_A-limited projection from samples at A k_m.

    With B = A^T A, g(x) = f(A x) is R_B-limited and the symmetric-band
    reconstruction applies:

      out(x) = sum_k w_k |det B| K_R(A^T (x - A k_k)) F_k,
      F = R^(p) D_w v,  R^(1)[k,m] = |det B| K_R(B (k_k - k_m)),

    with base weights w.  "spectral" swaps R^(1) for the truncated
    eigen-expansion (Mercer-normalized vectors, sum_m w_m |phi|^2 = 1);
    "direct" uses F = v.  A = identity reduces to the plain symmetric-band
    case; on the interval region the pipeline collapses to the 1D routine.
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
    nodes = kernel.nodes
    sites = nodes @ A.T
    v = _samples_at(f_at_transformed_nodes, sites, "transformed nodes")
    w = kernel.base_weights()
    if regularization == "direct":
        F = v
    else:
        F = _frame_coefficients(
            v, w, lambda: _kappa_matrix(
                kernel, nodes[:, None, :] - nodes[None, :, :]),
            basis, 1.0, mu_min, regularization)
    pts, lead = _as_points(x, d)
    diffs = (pts[:, None, :] - sites[None, :, :]) @ A
    K = region_kernel_exact(kernel.region,
                            diffs.reshape(-1, d)).reshape(len(pts),
                                                          len(nodes))
    det = kernel.det_band()
    out = (det * K) @ (w * F)
    eps = kernel.scaled_error_max()
    bound = float(eps * np.sum(np.abs(w * F))) if math.isfinite(eps) \
        else math.inf
    res_field = SampledField(points=PointSet(pts),
                             values=np.asarray(out, dtype=complex),
                             label="ra sampling interpolation")
    prov = {"route": "ra-sampling", "regularization": regularization,
            "n_nodes": len(nodes), "transform": A.tolist(),
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


def patched_projection(parts, f, x, bases=None,
                       regularization: str = "kernel",
                       mu_min: float = _MU_MIN) -> ProjectionResult:
    """Sum of per-part transformed reconstructions.

    parts is a list of (A_l, kernel_l); the transformed regions must
    overlap only in measure zero (caller's assertion, recorded).  Sample
    values follow the concatenation order of patched_sample_points.
    """
    vals = _samples_at(f, patched_sample_points(parts), "part layout")
    counts = [len(k.nodes) for _, k in parts]
    out = None
    bound = 0.0
    prov_parts = []
    start = 0
    for i, (A, kern) in enumerate(parts):
        seg = vals[start:start + counts[i]]
        start += counts[i]
        res = ra_sampling_interpolation(
            seg, kern, A, x, basis=None if bases is None else bases[i],
            regularization=regularization, mu_min=mu_min)
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
