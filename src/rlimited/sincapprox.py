"""Cosine-sum and chirplet surrogates for sinc at large bandwidth.

The pipeline solves a small moment problem at a reduced band B = B0/3^n and
expands back up: each level triples the band while multiplying the pointwise
error by (2 cos(2*3^l B x) + 1)/3, so the expanded error never exceeds the
base error and vanishes on the lattice x = m pi / B.
"""
from __future__ import annotations

import math

import numpy as np
from dataclasses import dataclass

from .numkit import _scalar, sinc
from .moments import (Quadrature1D, gauss_legendre_01, preset_moments,
                      solve_moment_problem, symmetrize)


def reduction_level(B0: float) -> int:
    """Number of tripling levels: 0 for B0 < 1, else floor(log3 B0) + 1."""
    if B0 <= 0:
        raise ValueError("band must be positive")
    return max(0, math.floor(math.log(B0, 3.0) + 1e-12) + 1)


@dataclass
class CosineSumApprox:
    """sinc(B0 x) ~ sum_j w_j cos(nu_j x) on |x| <= 1.

    base_quadrature holds the reduced-band half rule (weights a_m, nodes
    t_m in (0,1)); expanded holds the angular-frequency nodes nu_j after
    level expansion, weights a_m/3^n folded to nu >= 0.
    """
    base_quadrature: Quadrature1D
    level: int
    B0: float
    expanded: Quadrature1D


def _expand_levels(weights: np.ndarray, theta: np.ndarray, B: float,
                   n: int, B0: float) -> Quadrature1D:
    K = (3 ** n - 1) // 2
    shifts = np.arange(-K, K + 1)
    nu = np.abs((theta[None, :] + 2.0 * shifts[:, None]) * B).ravel()
    w = np.broadcast_to(weights / 3 ** n, (len(shifts), len(theta))).ravel()
    order = np.argsort(nu)
    nu, w = nu[order], w[order]
    # merge nodes that folded onto each other (exact collisions only occur
    # for rules with a zero or rational node; harmless for Gauss nodes)
    keep_nu, keep_w = [nu[0]], [w[0]]
    tol = 1e-12 * max(1.0, B0)
    for v, ww in zip(nu[1:], w[1:]):
        if v - keep_nu[-1] <= tol:
            keep_w[-1] += ww
        else:
            keep_nu.append(v)
            keep_w.append(ww)
    return Quadrature1D(weights=np.asarray(keep_w), nodes=np.asarray(keep_nu),
                        band=B0, symmetric=False,
                        provenance={"node_kind": "angular", "levels": n})


def build_sinc_cosine_approx(B0: float, M: int) -> CosineSumApprox:
    """M-term base rule at band B0/3^n, expanded through n tripling levels.

    The Gauss-Legendre half rule solves the reduced moment problem exactly
    (the band scales out of h_n / B^{2n}), which sidesteps the ill
    conditioning a Hankel solve would hit at useful M.
    """
    n = reduction_level(B0)
    B = B0 / 3 ** n
    base = gauss_legendre_01(M)
    base.band = B
    expanded = _expand_levels(np.asarray(base.weights, dtype=float),
                              np.asarray(base.nodes, dtype=float), B, n, B0)
    return CosineSumApprox(base_quadrature=base, level=n, B0=B0,
                           expanded=expanded)


def eval_cosine_sum(a: CosineSumApprox, x):
    """sum_j w_j cos(nu_j x); approximates sinc(B0 x) on |x| <= 1."""
    x = np.asarray(x, dtype=float)
    nu = np.asarray(a.expanded.nodes, dtype=float)
    w = np.asarray(a.expanded.weights, dtype=float)
    out = np.cos(x[..., None] * nu) @ w
    return _scalar(out)


def error_epsilon_B(a: CosineSumApprox, x):
    """Pointwise error sinc(B0 x) - eval_cosine_sum(a, x)."""
    x = np.asarray(x, dtype=float)
    out = sinc(a.B0 * x) - eval_cosine_sum(a, x)
    return float(out) if np.ndim(out) == 0 else out


def frequency_rule(a: CosineSumApprox) -> Quadrature1D:
    """Symmetric rule for int_{-B0}^{B0} g(xi) dxi with nodes B0 w_m.

    Folds the cosine sum 2 B0 sum_j w_j cos(nu_j x) ~ 2 B0 sinc(B0 x) into
    exponential pairs: nodes +-nu_j / B0 in (-1, 1), weights B0 w_j each,
    summing to 2 B0.  No node sits at zero because every expanded nu is
    strictly positive.
    """
    half = Quadrature1D(
        weights=np.asarray(a.expanded.weights, dtype=float).copy(),
        nodes=np.asarray(a.expanded.nodes, dtype=float) / a.B0,
        band=a.B0, symmetric=False,
        provenance={"node_kind": "frequency", "level": a.level})
    return symmetrize(half, a.B0)


def periodic_sinc(B: float, N: int, x):
    """sin(Bx) / ((2N+1) sin(Bx/(2N+1))), the periodized comparator.

    Evaluated as sinc(u)/sinc(u/(2N+1)) after folding u = Bx into the
    central period, which is stable through every zero of the denominator.
    """
    x = np.asarray(x, dtype=float)
    per = np.pi * (2 * N + 1)
    k = np.round(B * x / per)
    u = B * x - k * per
    out = sinc(u) / sinc(u / (2 * N + 1))
    return float(out) if np.ndim(out) == 0 else out


def uniform_max_error(B: float, N: int):
    """(location, value) of max |sinc(Bx) - periodic_sinc| on the first period.

    The maximum sits at x* = (2N+1) pi / (2B) where sinc has a zero of the
    shifted numerator and the comparator alternates sign; the value is
    (1 - 2/pi)/(2N+1).
    """
    x_star = (2 * N + 1) * np.pi / (2.0 * B)
    return x_star, (1.0 - 2.0 / np.pi) / (2 * N + 1)


def scaling_multiplier(B: float, n: int, x):
    """(1/3^n)(1 + 2 sum_{l=1..L} cos(2Blx)), L = (3^n-1)/2.

    Multiplying samples of sinc(Bx) by this gives samples of sinc(3^n Bx)
    exactly; applied to an approximation it reproduces the level expansion.
    """
    x = np.asarray(x, dtype=float)
    L = (3 ** n - 1) // 2
    acc = np.ones_like(x)
    for l in range(1, L + 1):
        acc = acc + 2.0 * np.cos(2.0 * B * l * x)
    out = acc / 3 ** n
    return _scalar(out)


def scale_general(values, B: float, n: int, x):
    """Push per-point samples of a band-B surrogate up n tripling levels."""
    values = np.asarray(values)
    x = np.asarray(x, dtype=float)
    if values.shape != x.shape:
        raise ValueError("values/x shape mismatch")
    return values * scaling_multiplier(B, n, x)


@dataclass
class ChirpletApprox:
    """sinc(B0 x) ~ Re sum over Gaussian chirps; weights come in conjugate
    pairs so the sum itself is real up to rounding."""
    weights: np.ndarray
    gammas: np.ndarray
    B0: float
    level: int
    band: float


def build_chirplet_approx(B0: float, M: int) -> ChirpletApprox:
    """Moment solve against the sinc_gauss profile at the reduced band.

    Nodes are genuinely complex (conjugate pairs with positive real part);
    a node in the closed left half plane is a hard failure since the chirps
    would not decay.
    """
    n = reduction_level(B0)
    B = B0 / 3 ** n
    h = preset_moments("sinc_gauss", B, 2 * M - 1)
    q = solve_moment_problem(h, M, tol=1e-8)
    gam = np.atleast_1d(np.asarray(q.nodes, dtype=complex))
    alpha = np.atleast_1d(np.asarray(q.weights, dtype=complex))
    if np.any(gam.real <= 0):
        raise ValueError("chirplet solve produced a non-decaying node")
    return ChirpletApprox(weights=alpha, gammas=gam, B0=B0, level=n, band=B)


def eval_chirplet_sum(c: ChirpletApprox, x):
    """Evaluate the expanded chirplet sum at x (complex output).

    Each base term is translated through the level lattice l = -L..L with
    weight alpha/3^n; the chirp-centred form and the plain algebraic form
    e^{-g x^2 + i 2 B l x} agree identically, the latter is used when the
    node is purely real.
    """
    x = np.asarray(x, dtype=float)
    L = (3 ** c.level - 1) // 2
    ls = np.arange(-L, L + 1)
    B = c.band
    out = np.zeros(x.shape, dtype=complex)
    for alpha, gam in zip(c.weights, c.gammas):
        gr, gi = gam.real, gam.imag
        if abs(gi) > 1e-12 * abs(gam):
            # centre shift Bl/gi with the compensating phase (Bl)^2/gi
            phase = np.exp(1j * (B * ls) ** 2 / gi)
            shifted = x[..., None] - B * ls / gi
            term = np.exp(-gr * x[..., None] ** 2) * np.exp(
                -1j * gi * shifted ** 2) * phase
        else:
            term = np.exp(-gam * x[..., None] ** 2 +
                          2j * B * ls * x[..., None])
        out = out + (alpha / 3 ** c.level) * term.sum(axis=-1)
    return _scalar(out)


# Largest base band the M ~ 8 Gauss half rule still resolves to ~1e-13;
# cascade helpers only reduce above this, keeping node counts manageable.
_HELPER_SAT_BAND = 6.0


def _saturated_cosine_rule(B0: float, M: int,
                           sat: float = _HELPER_SAT_BAND):
    """Expanded cosine rule for sinc(B0 x) reducing only down to band sat."""
    B0 = max(float(B0), 1e-9)
    if B0 <= sat:
        n = 0
    else:
        n = int(math.ceil(math.log(B0 / sat, 3.0) - 1e-12))
    B = B0 / 3 ** n
    base = gauss_legendre_01(M)
    return _expand_levels(np.asarray(base.weights, dtype=float),
                          np.asarray(base.nodes, dtype=float), B, n, B0)


def symmetric_sinc_rule(band: float, M: int) -> Quadrature1D:
    """Nodes u_j in (-1,1), weights summing to 2, with
    int_{-1}^{1} e^{i b u} du ~ sum_j w_j e^{i b u_j} for |b| <= band."""
    band = max(float(band), 1e-9)
    exp_rule = _saturated_cosine_rule(band, M)
    nu = np.asarray(exp_rule.nodes, dtype=float) / band
    w = np.asarray(exp_rule.weights, dtype=float)
    nodes = np.concatenate([-nu[::-1], nu])
    weights = np.concatenate([w[::-1], w])
    return Quadrature1D(weights=weights, nodes=nodes, band=band,
                        symmetric=True,
                        provenance={"node_kind": "unit-interval",
                                    "levels": exp_rule.provenance["levels"]})


def one_sided_unit_rule(band: float, M: int, power: int = 0) -> Quadrature1D:
    """Nodes v_j in (0,1) with
    int_0^1 v^power e^{i t v} dv ~ sum_j w_j e^{i t v_j} for |t| <= band.

    Built from int_0^1 e^{itv} dv = e^{it/2} sinc(t/2): the cosine rule for
    sinc at band/2 splits into node pairs (1 +- nu/B0)/2.  Monomial factors
    ride along by multiplying the weights by v^power; each extra power is a
    bounded t-derivative of the same approximation, so the error stays at
    the cosine-rule level.
    """
    band = max(float(band), 1e-9)
    exp_rule = _saturated_cosine_rule(band / 2.0, M)
    frac = np.asarray(exp_rule.nodes, dtype=float) / (band / 2.0)
    w = np.asarray(exp_rule.weights, dtype=float) / 2.0
    nodes = np.concatenate([(1.0 - frac) / 2.0, (1.0 + frac) / 2.0])
    weights = np.concatenate([w, w])
    order = np.argsort(nodes)
    nodes, weights = nodes[order], weights[order]
    if power:
        weights = weights * nodes ** power
    return Quadrature1D(weights=weights, nodes=nodes, band=band,
                        symmetric=False,
                        provenance={"node_kind": "unit-interval",
                                    "power": power,
                                    "levels": exp_rule.provenance["levels"]})
