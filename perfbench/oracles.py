"""Reference values that do not come from the code under test.

Every oracle here is plain numpy (plus scipy.special for J1) applied to the
defining integral of the quantity: product Gauss-Legendre rules over the
region in frequency space, closed-form measures, and textbook moments.
None of them calls into rlimited.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import j1


def gauss01(n: int):
    """n-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


# ------------------------------------------------------------ measures

def wedge_area(dp: float, s: float) -> float:
    """{0 <= kx <= dp, |ky| <= s kx}."""
    return s * dp * dp


def tetra_wedge_volume(h: float, dp: float, s: float) -> float:
    """{0 <= kz <= h, 0 <= ky <= dp kz, |kx| <= s ky}."""
    return s * dp * dp * h ** 3 / 3.0


def cone_measure(omega0: float, pmax: float) -> float:
    """Integral of pi (p |w|)^2 over |w| <= omega0 (the n=2 light cone)."""
    return 2.0 * math.pi * pmax ** 2 * omega0 ** 3 / 3.0


def ball_volume(k: float) -> float:
    return 4.0 * math.pi * k ** 3 / 3.0


REGULAR_TETRA_VOLUME = 1.0 / (6.0 * math.sqrt(2.0))   # unit edge
EQUILATERAL_AREA = math.sqrt(3.0) / 4.0               # unit side


# ------------------------------------------------------------ 1D moments

def even_moments_uniform(n_max: int) -> np.ndarray:
    """h_n = int_0^1 w^(2n) dw = 1/(2n+1), n = 0..n_max."""
    return 1.0 / (2.0 * np.arange(n_max + 1) + 1.0)


def even_moments_arcsine(n_max: int) -> np.ndarray:
    """h_n = (2n)! / (4^n n!^2), the moments of the J0 (arcsine) profile."""
    return np.array([math.comb(2 * n, n) / 4.0 ** n
                     for n in range(n_max + 1)])


# ------------------------------------------------------------ region kernels

def wedge_nodes(dp: float, s: float, n: int = 48):
    """Product Gauss rule over the wedge {0 <= kx <= dp, |ky| <= s kx}.

    kx = dp v, ky = dp s v u with v in (0,1), u in (-1,1): the Jacobian
    dp^2 s v makes the integrand smooth, so the rule converges spectrally
    while 2 pi dp (|x| + s|y|) stays well below n.
    """
    v, wv = gauss01(n)
    u, wu = leggauss(n)
    V, U = np.meshgrid(v, u, indexing="ij")
    wt = (dp * dp * s) * np.outer(wv * v, wu).ravel()
    return np.stack([(dp * V).ravel(), (dp * s * V * U).ravel()], axis=-1), wt


def wedge_kernel(dp: float, s: float, pts, n: int = 48) -> np.ndarray:
    """K(x) = int over the wedge of e^{i 2 pi k.x} dk at each row of pts."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    k, wt = wedge_nodes(dp, s, n)
    out = np.empty(len(pts), dtype=complex)
    for i in range(0, len(pts), 256):    # bounded temporaries
        out[i:i + 256] = np.exp(2j * np.pi * (pts[i:i + 256] @ k.T)) @ wt
    return out


def tetra_wedge_kernel(h: float, dp: float, s: float, pts,
                       n: int = 32) -> np.ndarray:
    """Tetrahedral wedge kernel by a product rule in (w, v, u):
    kz = h w, ky = h dp w v, kx = h dp s w v u, Jacobian h^3 dp^2 s w^2 v."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    g, gw = gauss01(n)
    u, wu = leggauss(n)
    W, V, U = np.meshgrid(g, g, u, indexing="ij")
    wt = (h ** 3 * dp * dp * s
          * np.einsum("i,j,k->ijk", gw * g * g, gw * g, wu)).ravel()
    kz = (h * W).ravel()
    ky = (h * dp * W * V).ravel()
    kx = (h * dp * s * W * V * U).ravel()
    out = np.empty(len(pts), dtype=complex)
    for i, (x, y, z) in enumerate(pts):
        out[i] = np.exp(2j * np.pi * (x * kx + y * ky + z * kz)) @ wt
    return out


def ball_kernel(k: float, r, n: int = 64) -> np.ndarray:
    """K(r) = int_0^k 4 pi rho^2 sinc(2 pi rho r) d rho."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    rho, w = gauss01(n)
    rho, w = k * rho, k * w
    arg = 2.0 * np.pi * np.outer(r, rho)
    return (np.sinc(arg / np.pi) @ (4.0 * np.pi * rho * rho * w)).astype(
        complex)


def cone_kernel(omega0: float, pmax: float, t, r, n: int = 1200) -> np.ndarray:
    """n=2 light-cone kernel for r > 0 from the disc transform:
    int_{|rho| <= a} e^{i 2 pi rho.x} d rho = a J1(2 pi a r) / r, so
    K(t, r) = 2 int_0^omega0 cos(2 pi w t) p w J1(2 pi p w r) / r dw.
    The rule resolves phases up to 2 pi omega0 (|t| + p r) << n."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    w, gw = gauss01(n)
    w, gw = omega0 * w, omega0 * gw
    out = np.empty(len(t), dtype=complex)
    for i, (ti, ri) in enumerate(zip(t, r)):
        f = np.cos(2 * np.pi * w * ti) * pmax * w * j1(2 * np.pi * pmax * w
                                                       * ri) / ri
        out[i] = 2.0 * (f @ gw)
    return out


# ------------------------------------------------------------ eigenbases

def weighted_gram_defect(vecs, weights) -> float:
    """Largest off-diagonal entry of the unit-diagonal weighted Gram matrix
    V^H diag(w) V."""
    v = np.asarray(vecs)
    g = v.conj().T @ (np.asarray(weights, dtype=float)[:, None] * v)
    d = np.sqrt(np.abs(np.diag(g)))
    g = np.abs(g) / np.outer(d, d)
    np.fill_diagonal(g, 0.0)
    return float(g.max()) if g.size else 0.0
