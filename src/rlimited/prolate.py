"""Approximate prolate bases from quadrature-discretized operators.

Two discrete eigensystems produce the same concentrated functions: the
exponential system (a scaled Fourier matrix over the rule's nodes) and the
kernel system (the sinc or region-kernel Gram matrix).  Eigenvalues mu
live in (0, 1] and measure energy concentration; lambda are the Fourier
eigenvalues with mu = B |lambda|^2 in 1D and mu = |det B| |lambda|^2 in ND.
"""
from __future__ import annotations

import numpy as np
from dataclasses import dataclass, field

from .numkit import _scalar, sinc
from .moments import Quadrature1D
from .kernels import (QuadratureND, region_kernel_exact, region_to_json,
                      region_from_json)

_TIE_TOL = 1e-10
# mu is a concentration ratio, so mu_max - 1 beyond rounding means the rule
# does not resolve the band: resolved solves stay below 1e-13 (n <= 800),
# under-resolved ones read 1e-2 and more
_MU_EXCESS_TOL = 1e-9
_MIRROR_TOL = 1e-14  # relative; a symmetric rule's nodes and weights
_REBUILD = "; rebuild the basis with `rlimited pswf`"


def _identity(v):
    return v


@dataclass
class EigenBasis:
    """Eigenpairs of one discretized concentration operator.

    eigenvectors holds phi_n sampled at the rule's nodes, one unit-norm
    column per n, ordered by descending mu with deterministic tie-breaks.
    kind is "exp_system" or "kernel_system".
    """
    eigenvalues_mu: np.ndarray
    eigenvalues_lambda: np.ndarray
    eigenvectors: np.ndarray
    quadrature: object
    band: object
    kind: str
    provenance: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.eigenvalues_mu)


def _order_and_fix(mu: np.ndarray, lam: np.ndarray, vecs: np.ndarray):
    """Descending mu; ties by ascending dominant-component index; the
    dominant component of each column is rotated to the positive real axis."""
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    dom = np.argmax(np.abs(vecs), axis=0)
    order = np.lexsort((dom, -mu))
    mu, lam, vecs, dom = mu[order], lam[order], vecs[:, order], dom[order]
    piv = vecs[dom, np.arange(vecs.shape[1])]
    # hypot, as scalar abs(); np.abs of a complex array can differ by 1 ulp
    mag = np.hypot(piv.real, piv.imag)
    vecs = vecs * np.where(mag > 0, np.conj(piv) / mag, 1)
    if not np.iscomplexobj(lam):
        lam = lam.astype(complex)
    return mu, lam, vecs


def _degenerate_blocks(mu: np.ndarray) -> list:
    """Index runs of numerically equal eigenvalues, for reporting."""
    blocks, start = [], 0
    scale = max(float(mu[0]), 1.0) if len(mu) else 1.0
    for i in range(1, len(mu) + 1):
        if i == len(mu) or abs(mu[i] - mu[start]) > _TIE_TOL * scale:
            if i - start > 1:
                blocks.append(list(range(start, i)))
            start = i
    return blocks


def _positive_weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("eigensystem symmetrization needs positive weights")
    return w


def _solve(blocks, scale: float, quadrature, band, hermitian: bool,
           extra_provenance: dict) -> EigenBasis:
    """Eigenpairs of weight-symmetrized blocks, mapped back to node values.

    Each block (M_hat, d, unit, lift) holds M_hat = D M D^{-1}, D = diag(d),
    on one invariant subspace; lift takes its values psi / d to all nodes.
    hermitian: eigh gives mu directly and lambda = sqrt(mu / scale) in
    magnitude (kernel system); otherwise lambda = unit * eigenvalue, by eigh
    for a real symmetric block or eig for a complex symmetric one, and
    mu = scale |lambda|^2 (exponential system).  A top mu more than
    _MU_EXCESS_TOL above 1 raises ValueError: the rule under-resolves the
    band.
    """
    mus, lams, vecs = [], [], []
    for M_hat, d, unit, lift in blocks:
        if hermitian or not np.iscomplexobj(M_hat):
            ev, psi = np.linalg.eigh(M_hat)
            ev, psi = ev[::-1].copy(), psi[:, ::-1].copy()
        else:
            ev, psi = np.linalg.eig(M_hat)
        if hermitian:
            mu, lam = ev, np.sqrt(np.maximum(ev, 0.0) / scale)
        else:
            lam = unit * ev + 0.0  # + 0.0 drops the -0.0 real parts of 1j * ev
            mu = scale * np.abs(lam) ** 2
        mus.append(mu)
        lams.append(lam)
        vecs.append(lift(psi / d[:, None]))
    mu, lam, vecs = _order_and_fix(np.concatenate(mus), np.concatenate(lams),
                                   np.hstack(vecs))
    if len(mu) and mu[0] - 1.0 > _MU_EXCESS_TOL:
        raise ValueError("under-resolved rule: top mu %.12g exceeds 1 by more "
                         "than %g; use more nodes or a smaller band"
                         % (mu[0], _MU_EXCESS_TOL))
    prov = {"degenerate_blocks": _degenerate_blocks(mu),
            "n_nodes": len(vecs), **extra_provenance}
    if hermitian:
        prov["lambda_magnitude_only"] = True
    return EigenBasis(eigenvalues_mu=mu, eigenvalues_lambda=lam,
                      eigenvectors=vecs, quadrature=quadrature, band=band,
                      kind="kernel_system" if hermitian else "exp_system",
                      provenance=prov)


def _half_rule(q: Quadrature1D, hint: str = ""):
    """The positive half of a mirror rule, as (z, h, p, a).

    z is 1 when a node sits at zero and h = len(nodes) // 2, so p holds
    nodes[h:] with that node set to 0, and a their weights, the zero
    node's halved.  Raises ValueError, with hint appended, unless the rule
    is flagged symmetric and has ascending mirror-pair nodes with
    mirror-equal weights.
    """
    if not q.symmetric:
        raise ValueError("the parity split needs a symmetric rule" + hint)
    w = np.asarray(q.weights, dtype=float)
    om = np.asarray(q.nodes, dtype=float)
    if (np.any(np.diff(om) <= 0)
            or np.any(np.abs(om + om[::-1]) > _MIRROR_TOL * np.abs(om).max())
            or np.any(np.abs(w - w[::-1]) > _MIRROR_TOL * np.abs(w))):
        raise ValueError("symmetric rule needs ascending mirror-pair nodes "
                         "with mirror-equal weights" + hint)
    z, h = len(om) % 2, len(om) // 2
    p = np.concatenate([[0.0] * z, om[h + z:]])
    return z, h, p, np.concatenate([0.5 * w[h:h + z], w[h + z:]])


def _parity_solve(q: Quadrature1D, B: float, kernels,
                  hermitian: bool) -> EigenBasis:
    """Both 1D systems commute with the reflection w -> -w of a mirror rule,
    so they split into an even and an odd block over the half-rule p > 0
    with d = sqrt(a).  kernels(p) gives the two blocks' node kernels; the
    odd block's eigenvalues are i lambda.  A node at zero joins the even
    block with half its weight, which makes its border row carry the
    sqrt(2) of the normalized even vector (e_w + e_-w) / sqrt(2).
    """
    z, h, p, a = _half_rule(q)
    if B <= 0:
        raise ValueError("band must be positive")
    d = np.sqrt(_positive_weights(a))
    dd = d[:, None] * d[None, :]
    even, odd = kernels(p)
    blocks = [(dd * even, d, 1.0,
               lambda v: np.concatenate([v[z:][::-1], v])),
              ((dd * odd)[z:, z:], d[z:], 1j,
               lambda v: np.concatenate([-v[::-1], np.zeros((z, v.shape[1])),
                                         v]))]
    return _solve(blocks, B, q, float(B), hermitian, {})


def pswf_exp_eigensystem(q: Quadrature1D, B: float) -> EigenBasis:
    """Eigen-decompose E[k,m] = (1/B) a_m e^{i 2 pi B w_m w_k}.

    On a mirror-symmetric rule the weight-symmetrized matrix splits into
    the real symmetric blocks (2/B) d d cos(2 pi B p p') (eigenvalue
    lambda) and (2/B) d d sin(2 pi B p p') (eigenvalue i lambda), so the
    eigenvectors are real, even or odd, and orthonormal in the weighted
    inner product, and mu = B |lambda|^2 holds exactly.
    """
    def kernels(p):
        arg = 2.0 * np.pi * B * np.outer(p, p)
        return (2.0 / B) * np.cos(arg), (2.0 / B) * np.sin(arg)
    return _parity_solve(q, B, kernels, False)


def pswf_kernel_eigensystem(q: Quadrature1D, B: float) -> EigenBasis:
    """Eigen-decompose S[m,k] = 2 a_k sinc(2 pi B (w_m - w_k)).

    On a mirror-symmetric rule the weight-symmetrized PSD matrix splits
    into 2 d d [sinc(2 pi B (p - p')) +- sinc(2 pi B (p + p'))] on the even
    and odd vectors; eigenvalues are the concentration ratios mu directly,
    lambda is stored as the magnitude sqrt(mu / B).
    """
    def kernels(p):
        minus = sinc(2.0 * np.pi * B * (p[:, None] - p[None, :]))
        plus = sinc(2.0 * np.pi * B * (p[:, None] + p[None, :]))
        return 2.0 * (minus + plus), 2.0 * (minus - plus)
    return _parity_solve(q, B, kernels, True)


@dataclass
class ProlateEvaluator:
    """Holds the basis that extend_prolate extends; the basis kind picks
    the extension formula."""
    basis: EigenBasis


def extend_prolate(ev: ProlateEvaluator, n: int, t, mu_min: float = 1e-8):
    """Continuous-argument phi_n(t); exact at the quadrature nodes.

    The basis kind picks the formula.  exp_system:
    (1/(B lambda_n)) sum_m a_m e^{i 2 pi B w_m t} phi_n(w_m), summed over
    the half-rule p > 0 of the mirror rule: an even phi_n gives
    (1/(B lambda_n)) [sum_p 2 a_p phi_n(p) cos(2 pi B t p) + a_0 phi_n(0)],
    the a_0 term only when a node sits at 0, and an odd one
    (i/(B lambda_n)) sum_p 2 a_p phi_n(p) sin(2 pi B t p).  So the exp route
    needs a parity basis: a real phi_n that is exactly even or odd on a
    mirror rule, as the eigensystems here build; anything else raises
    ValueError.
    kernel_system: (1/(B mu_n)) sum_m a_m 2B sinc(2 pi B (t-w_m)) phi_n(w_m)

    Error amplification goes as 1/mu_n, so eigenpairs below mu_min are
    refused rather than silently extended.  Both routes return complex
    values.
    """
    b = ev.basis
    if not isinstance(b.quadrature, Quadrature1D):
        raise ValueError("extension formulas need a 1D basis, not a "
                         "node-cloud (ND) one")
    if b.kind not in ("exp_system", "kernel_system"):
        raise ValueError("unknown basis kind %r" % (b.kind,))
    if not 0 <= n < len(b):
        raise IndexError("eigenpair index %d out of range" % n)
    mu = float(b.eigenvalues_mu[n])
    if mu < mu_min:
        raise ValueError("mu_%d = %.3e below the regularization floor %.1e"
                         % (n, mu, mu_min))
    B = float(b.band)
    phi = b.eigenvectors[:, n]
    t = np.asarray(t, dtype=float)
    if b.kind == "exp_system":
        lam = complex(b.eigenvalues_lambda[n])
        if abs(lam) == 0:
            raise ValueError("lambda_%d = 0, extension undefined" % n)
        _, h, p, a = _half_rule(b.quadrature, _REBUILD)
        if np.iscomplexobj(phi):
            if np.any(phi.imag != 0):
                raise ValueError("phi_%d is complex, not a parity "
                                 "eigenvector%s" % (n, _REBUILD))
            phi = phi.real
        if np.array_equal(phi, phi[::-1]):
            trig, unit = np.cos, 2.0
        elif np.array_equal(phi, -phi[::-1]):
            trig, unit = np.sin, 2.0j
        else:
            raise ValueError("phi_%d is neither exactly even nor exactly "
                             "odd%s" % (n, _REBUILD))
        out = trig(2.0 * np.pi * B * t[..., None] * p) @ (a * phi[h:]) \
            * (unit / (B * lam))
    else:
        a = np.asarray(b.quadrature.weights, dtype=float)
        om = np.asarray(b.quadrature.nodes, dtype=float)
        kern = 2.0 * B * sinc(2.0 * np.pi * B * (t[..., None] - om))
        out = kern @ (a * phi) / (B * mu)
    # complex on both routes, also for real eigenvectors and a scalar t
    return _scalar(np.asarray(out, dtype=complex))


# --------------------------------------------------------------------------
# ND region eigensystems


def rslepian_exp_eigensystem(kernel: QuadratureND) -> EigenBasis:
    """ND exponential system over the kernel's own node cloud.

    E[l,m] = w_m e^{i 2 pi (B k_m) . k_l} with the base weights w and the
    kernel's band B; the eigenvalue relation becomes
    mu = |det B| |lambda|^2.  B must be symmetric so the
    weight-symmetrized matrix is complex symmetric.
    """
    Bm = kernel.band
    if not np.allclose(Bm, Bm.T, atol=1e-12 * max(1.0, np.abs(Bm).max())):
        raise ValueError("exponential eigensystem needs symmetric band")
    w = _positive_weights(kernel.base_weights())
    nodes = kernel.nodes
    d = np.sqrt(w)
    phase = 2j * np.pi * (nodes @ Bm.T @ nodes.T).T
    A_hat = d[:, None] * d[None, :] * np.exp(phase)
    det = kernel.det_band()
    return _solve([(A_hat, d, 1, _identity)], det, kernel, Bm, False,
                  {"det_band": det})


def rslepian_kernel_eigensystem(kernel: QuadratureND) -> EigenBasis:
    """ND kernel system S[l,m] = w_m |det B| K_R(B (k_l - k_m)) with the
    kernel's band B.

    The weight-symmetrized matrix is Hermitian PSD (real for symmetric
    regions); eigh returns the concentration eigenvalues mu directly.
    """
    Bm = kernel.band
    w = _positive_weights(kernel.base_weights())
    nodes = kernel.nodes
    det = kernel.det_band()
    diffs = (nodes[:, None, :] - nodes[None, :, :]) @ Bm.T
    K = np.asarray(region_kernel_exact(kernel.region,
                                       diffs.reshape(-1, nodes.shape[1])),
                   dtype=complex).reshape(len(nodes), len(nodes))
    d = np.sqrt(w)
    S_hat = det * d[:, None] * d[None, :] * K
    herm_defect = float(np.max(np.abs(S_hat - S_hat.conj().T)))
    S_hat = 0.5 * (S_hat + S_hat.conj().T)
    if np.max(np.abs(S_hat.imag)) <= 1e-12 * max(1.0, np.max(np.abs(S_hat))):
        S_hat = S_hat.real
    return _solve([(S_hat, d, 1, _identity)], det, kernel, Bm, True,
                  {"det_band": det, "hermitian_defect": herm_defect})


# --------------------------------------------------------------------------
# serialization


def _c_to_json(a: np.ndarray):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return {"re": a.real.tolist(), "im": a.imag.tolist()}
    return {"re": a.tolist()}


def _c_from_json(d) -> np.ndarray:
    re = np.asarray(d["re"], dtype=float)
    if "im" in d:
        return re + 1j * np.asarray(d["im"], dtype=float)
    return re


def eigenbasis_to_json(b: EigenBasis) -> dict:
    nodes = np.asarray(b.quadrature.nodes, dtype=float)
    band = b.band
    doc = {"kind": b.kind,
           "mu": np.asarray(b.eigenvalues_mu, dtype=float).tolist(),
           "lambda": _c_to_json(b.eigenvalues_lambda),
           "eigenvectors": _c_to_json(b.eigenvectors),
           "nodes": nodes.tolist(),
           "weights": np.asarray(b.quadrature.weights,
                                 dtype=float).tolist(),
           "band": band.tolist() if isinstance(band, np.ndarray)
           else float(band),
           "provenance": dict(b.provenance)}
    if isinstance(b.quadrature, QuadratureND):
        doc["region"] = region_to_json(b.quadrature.region)
    return doc


def eigenbasis_from_json(d: dict) -> EigenBasis:
    """Rebuild the eigenpairs with their rule: a Quadrature1D for 1D
    documents, the banded node cloud for ND ones."""
    band = d["band"]
    band = np.asarray(band, dtype=float) if isinstance(band, list) \
        else float(band)
    nodes = np.asarray(d["nodes"], dtype=float)
    if nodes.ndim == 1:
        q = Quadrature1D(weights=np.asarray(d["weights"], dtype=float),
                         nodes=nodes, band=float(np.atleast_1d(band)[0]),
                         symmetric=True)
        _half_rule(q, _REBUILD)
    else:
        q = QuadratureND(weights=np.asarray(d["weights"], dtype=float),
                         nodes=nodes, region=region_from_json(d["region"]),
                         band=band)
    return EigenBasis(eigenvalues_mu=np.asarray(d["mu"], dtype=float),
                      eigenvalues_lambda=_c_from_json(d["lambda"]),
                      eigenvectors=_c_from_json(d["eigenvectors"]),
                      quadrature=q, band=band, kind=d["kind"],
                      provenance=dict(d.get("provenance", {})))

