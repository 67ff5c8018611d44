"""Approximate prolate bases from quadrature-discretized operators.

In 1D two discrete eigensystems produce the same concentrated functions:
the exponential system (a scaled Fourier matrix over the rule's nodes) and
the kernel system (the sinc Gram matrix).  ND has one solver, the cloud's
own Gram, for any cloud and any nonsingular band.  Eigenvalues mu live in
(0, 1] and measure energy concentration; lambda are the Fourier
eigenvalues with mu = B |lambda|^2 in 1D, magnitudes only in ND.
"""
from __future__ import annotations

import numpy as np
from dataclasses import dataclass, field

from .numkit import _scalar, sinc, Key, Table, _c_to_json, read_doc
from .moments import Quadrature1D
from .kernels import QuadratureND, region_to_json, region_from_json

_TIE_TOL = 1e-10
# mu is a concentration ratio, so mu_max - 1 beyond rounding means the rule
# does not resolve the band: resolved solves stay below 1e-13 (n <= 800),
# under-resolved ones read 1e-2 and more
_MU_EXCESS_TOL = 1e-9
_MIRROR_TOL = 1e-14  # relative; a symmetric rule's nodes and weights
_REBUILD = "; rebuild the basis with `rlimited pswf`"


@dataclass
class EigenBasis:
    """Eigenpairs of one discretized concentration operator.

    eigenvectors holds phi_n sampled at the rule's nodes, one unit-norm
    column per n, ordered by descending mu with deterministic tie-breaks.
    kind is "exp_system" or "kernel_system"; ND bases are kernel systems.
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
    dominant component of each column is rotated to the positive real axis.
    Normalizes and rotates vecs in place."""
    vecs /= np.linalg.norm(vecs, axis=0, keepdims=True)
    dom = np.argmax(np.abs(vecs), axis=0)
    order = np.lexsort((dom, -mu))
    mu, lam, dom = mu[order], lam[order], dom[order]
    vecs = np.take(vecs, order, axis=1)
    piv = vecs[dom, np.arange(vecs.shape[1])]
    # hypot, as scalar abs(); np.abs of a complex array can differ by 1 ulp
    mag = np.hypot(piv.real, piv.imag)
    vecs *= np.where(mag > 0, np.conj(piv) / mag, 1)  # real when vecs is
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


def _solve(blocks, scale: float, quadrature, band, kernel_system: bool,
           extra_provenance: dict) -> EigenBasis:
    """Eigenpairs of weight-symmetrized Hermitian blocks, by eigh.

    Each block (M_hat, d, unit, lift) holds M_hat = D M D^{-1}, D = diag(d),
    on one invariant subspace; lift takes its values psi / d to all nodes.
    kernel_system: the eigenvalues are mu, and lambda = sqrt(mu / scale) in
    magnitude; otherwise lambda = unit * eigenvalue of a real symmetric
    block and mu = scale |lambda|^2 (exponential system).  A top mu more
    than _MU_EXCESS_TOL above 1 raises ValueError: the rule under-resolves
    the band.
    """
    mus, lams, lifted = [], [], []
    for M_hat, d, unit, lift in blocks:
        ev, psi = np.linalg.eigh(M_hat)
        ev = ev[::-1].copy()
        if kernel_system:
            mu, lam = ev, np.sqrt(np.maximum(ev, 0.0) / scale)
        else:
            lam = unit * ev + 0.0  # + 0.0 drops the -0.0 real parts of 1j * ev
            mu = scale * np.abs(lam) ** 2
        mus.append(mu)
        lams.append(lam)
        lifted.append(lift(psi[:, ::-1] / d[:, None]))
    vecs = np.hstack(lifted)
    del lifted, psi  # vecs is the one copy of the eigenvectors from here on
    mu, lam, vecs = _order_and_fix(np.concatenate(mus), np.concatenate(lams),
                                   vecs)
    if len(mu) and mu[0] - 1.0 > _MU_EXCESS_TOL:
        raise ValueError("under-resolved rule: top mu %.12g exceeds 1 by more "
                         "than %g; use more nodes or a smaller band"
                         % (mu[0], _MU_EXCESS_TOL))
    prov = {"degenerate_blocks": _degenerate_blocks(mu),
            "n_nodes": len(vecs), **extra_provenance}
    if kernel_system:
        prov["lambda_magnitude_only"] = True
    return EigenBasis(eigenvalues_mu=mu, eigenvalues_lambda=lam,
                      eigenvectors=vecs, quadrature=quadrature, band=band,
                      kind="kernel_system" if kernel_system else "exp_system",
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
                  kernel_system: bool) -> EigenBasis:
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
    return _solve(blocks, B, q, float(B), kernel_system, {})


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
    the extension formula.

    It also keeps one grid's tables, those of the last t it extended on,
    so a loop over modes on one grid builds each table once.  The exp
    route keeps cos and sin of 2 pi B t p over the half-rule, up to
    2 len(t) h doubles; the kernel route 2B sinc(2 pi B (t - w)) over the
    rule, len(t) N doubles.  A new grid replaces them, and so does a basis
    that is not the same object: grids are told apart by shape and exact
    bits, so -0.0 is not 0.0 and a t changed in place is a new grid.
    """
    basis: EigenBasis
    # (basis, t.shape, t.tobytes(), {route: table}), replaced as one tuple
    # so that concurrent calls each read one consistent slot
    _slot: tuple = field(default=None, init=False, repr=False, compare=False)

    def _table(self, b: EigenBasis, t: np.ndarray, route, build):
        """Basis b's table for the route on grid t: kept, or build()."""
        slot, key = self._slot, (t.shape, t.tobytes())
        if slot is None or slot[0] is not b or slot[1:3] != key:
            slot = self._slot = (b, *key, {})
        if route not in slot[3]:
            slot[3][route] = build()
        return slot[3][route]


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
    values.  The checks run on every call; the trig or sinc table comes
    from ev when t is the grid of its last call (see ProlateEvaluator).
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
        table = ev._table(
            b, t, trig, lambda: trig(2.0 * np.pi * B * t[..., None] * p))
        out = table @ (a * phi[h:]) * (unit / (B * lam))
    else:
        a = np.asarray(b.quadrature.weights, dtype=float)
        om = np.asarray(b.quadrature.nodes, dtype=float)
        kern = ev._table(b, t, sinc, lambda: 2.0 * B * sinc(
            2.0 * np.pi * B * (t[..., None] - om)))
        out = kern @ (a * phi) / (B * mu)
    # complex on both routes, also for real eigenvectors and a scalar t
    return _scalar(np.asarray(out, dtype=complex))


# --------------------------------------------------------------------------
# ND region eigensystems


def rslepian_kernel_eigensystem(kernel: QuadratureND) -> EigenBasis:
    """ND concentration eigensystem over the kernel's own node cloud, for
    any cloud and any nonsingular band B.

    With base weights w, d = sqrt(w) and
    A_hat[l,m] = d_l d_m e^{i 2 pi k_l . B k_m}, the Hermitian PSD Gram
    S_hat = |det B| A_hat A_hat^H is D S D^{-1} for the cloud's own kernel
    matrix S[l,m] = w_m sum_j |det B| w_j e^{i 2 pi (B k_j).(k_l - k_m)},
    which stands in for w_m |det B| K_R(B^T (k_l - k_m)).  eigh gives mu
    directly, with eigenvectors orthonormal in the weights; lambda is the
    magnitude sqrt(mu / |det B|) only.

    The stand-in holds where the cloud's profile does: the provenance
    records how far the offsets B^T (k_l - k_m) reach on each axis
    (gram_offset_reach) next to the box of the recorded profile
    (profile_box, None without one).  A reach past the box is recorded,
    not refused.
    """
    d = np.sqrt(_positive_weights(kernel.base_weights()))
    k = kernel.nodes
    A_hat = np.outer(d, d) * np.exp(2j * np.pi * (k @ kernel.band @ k.T))
    det = kernel.det_band()
    reach = np.ptp(k @ kernel.band, axis=0).tolist()
    prof = kernel.provenance.get("error_profile") or {}
    return _solve([(det * (A_hat @ A_hat.conj().T), d, 1, lambda v: v)], det,
                  kernel, kernel.band, True,
                  {"det_band": det, "gram_offset_reach": reach,
                   "profile_box": prof.get("box")})


def rslepian_exp_eigensystem(kernel: QuadratureND) -> EigenBasis:
    """rslepian_kernel_eigensystem's basis: the ND exponential system
    A_hat = D E D^{-1}, E[l,m] = w_m e^{i 2 pi (B k_m) . k_l}, has
    mu = |det B| |lambda|^2 only where it is normal (centrally symmetric
    clouds), but mu = |det B| sigma^2, sigma its singular values, always."""
    return rslepian_kernel_eigensystem(kernel)


# --------------------------------------------------------------------------
# serialization


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


_BASIS = Table("eigenbasis", {
    "kind": Key((("exp_system", "kernel_system").__contains__,
                 "a string, exp_system or kernel_system")),
    "band": Key("number>0"),
    "mu": Key("array", shape="n"), "lambda": Key("object", shape="n"),
    "eigenvectors": Key("object", shape="n n"),
    "nodes": Key("array", shape="n"), "weights": Key("array", shape="n"),
    "provenance": Key("object", required=False)}, "a JSON object")
_BASIS_ND = _BASIS._replace(keys=dict(
    _BASIS.keys, band=Key("array", shape="d d"),
    nodes=Key("array", shape="n d"), region=Key("object")))


def eigenbasis_from_json(d: dict) -> EigenBasis:
    """Rebuild the eigenpairs with their rule: a Quadrature1D for 1D
    documents, the banded node cloud for ND ones (band an array).
    ValueError unless it reads against _BASIS or _BASIS_ND, and its
    eigenpair arrays fit mu and the nodes."""
    nd = isinstance(d, dict) and isinstance(d.get("band"), list)
    v = read_doc(d, _BASIS_ND if nd else _BASIS)
    if nd:
        q = QuadratureND(v["weights"], v["nodes"],
                         region_from_json(v["region"]), v["band"])
    else:
        q = Quadrature1D(v["weights"], v["nodes"], v["band"], True)
        _half_rule(q, _REBUILD)
    mu, lam, vecs = v["mu"], v["lambda"], v["eigenvectors"]
    if lam.shape != mu.shape or vecs.shape != (len(v["nodes"]), len(mu)):
        raise ValueError("eigenbasis needs one lambda per mu, and "
                         "eigenvectors with a row per node, a column per mu")
    return EigenBasis(eigenvalues_mu=mu, eigenvalues_lambda=lam,
                      eigenvectors=vecs, quadrature=q, band=v["band"],
                      kind=v["kind"], provenance=dict(v.get("provenance", {})))
