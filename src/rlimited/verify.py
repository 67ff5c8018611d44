"""Release-gate checks: each suite measures a property against its claimed
bound and reports one row per measurement.

A row is {"name", "bound_claimed", "value_measured", "pass"}; a suite
passes when every row does.  Each suite takes only a seed: its bounds and
grid sizes are constants.  `run_all` drives any subset and is shared by
the test suite and the command line front end.
"""
from __future__ import annotations

import itertools
import time
from math import isnan, lgamma, log

import numpy as np

from .numkit import _quad as quad, sinc, make_grid, SampledField
from .moments import (
    gauss_legendre_01,
    chebyshev_rule_for_j0,
    uniform_rule,
    symmetrize,
    solve_moment_problem,
    preset_moments,
)
from .sincapprox import (
    build_sinc_cosine_approx,
    error_epsilon_B,
    frequency_rule,
    periodic_sinc,
    uniform_max_error,
)
from .kernels import (
    TriangleSpec,
    ConeSpec,
    k_triangle,
    triangle_scaling_refine,
    triangle_quadrature,
    equilateral_symmetric_quadrature,
    tetra_symmetry_group,
    tetra_symmetric_quadrature,
    tetra_contains,
    TETRA_VERTICES,
    k_cone,
    tilde_k_cone,
    j1_expansion_from_rule,
    cone_ls_error,
    cone_ls_error_bruteforce,
    cone_quadrature,
    ball_quadrature,
)
from .prolate import pswf_exp_eigensystem, pswf_kernel_eigensystem
from .projection import (
    discrete_fourier_repr_1d,
    discrete_repr_error_bound,
    nyquist_delta_train_check,
    expsum_kernel,
    rlimited_discrete_fourier,
)


def _row(name: str, bound: float, value: float) -> dict:
    ok = bool(value <= bound) if bound >= 0 else False
    return {"name": name, "bound_claimed": float(bound),
            "value_measured": float(value), "pass": ok}


def _max(*values):
    """The largest of values, or the first NaN among them.  The builtin
    max keeps its running value when a later one is NaN, so a NaN
    measurement would read as that value and its row would pass."""
    return max(values, key=lambda v: (isnan(v), v))


def _cosine_profile(rng: np.random.Generator):
    """Terms (cs, ks) of a compactly supported test function with a
    closed-form transform: f(t) = sum c cos(pi k t) on [-1, 1]."""
    n_terms = int(rng.integers(2, 5))
    ks = rng.integers(0, 7, n_terms)
    cs = rng.normal(size=n_terms)
    return cs, ks


def _cosines(profiles, t) -> dict:
    """cos(pi k t) for each distinct k of the profiles."""
    return {k: np.cos(np.pi * k * t)
            for k in set().union(*(ks for _, ks in profiles))}


def _cosine_f(terms, t, cos_k):
    """A profile's f at t, its terms added in their own order; cos_k holds
    `_cosines` at t, shared by the profiles it was built for."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for c, k in zip(*terms):
        out = out + c * cos_k[k]
    return np.where(np.abs(t) <= 1.0, out, 0.0)


def _cosine_fhat(terms, xi):
    """The transform of `_cosine_f`'s function at xi."""
    xi = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi)
    for c, k in zip(*terms):
        out = out + c * (sinc(np.pi * (2 * xi - k))
                         + sinc(np.pi * (2 * xi + k)))
    return out


def _interval_projection(profiles, B: float, ts):
    """int_{-1}^{1} f(s) 2B sinc(2 pi B (t - s)) ds for every profile's f
    and every t in ts, one row per profile.

    Composite Gauss-Legendre, split at the sinc peak s = t: eight 16-node
    panels on each side, all t at once.  The panel rule, each side's sinc
    table and cosines are built once per call and shared by the profiles.
    Agrees with the adaptive `projection.bandlimited_projection_oracle`
    (the tests check it against that and against mpmath) to a few 1e-15;
    one high-order panel per side does not.
    """
    panels = 8
    x, w = np.polynomial.legendre.leggauss(16)
    u = ((np.arange(panels)[:, None] + 0.5 * (x + 1.0)) / panels).ravel()
    wu = np.tile(0.5 * w / panels, panels)
    ts = np.asarray(ts, dtype=float)[:, None]
    out = np.zeros((len(profiles), len(ts)))
    for a, b in ((-1.0, ts), (ts, 1.0)):
        s = a + (b - a) * u
        kernel = sinc(2.0 * np.pi * B * (ts - s))
        cos_k = _cosines(profiles, s)
        for row, terms in zip(out, profiles):
            g = _cosine_f(terms, s, cos_k) * 2.0 * B * kernel
            row += (b - a)[:, 0] * (g @ wu)
    return out


def _wedge_projection(spec, W: float, a_vecs, x) -> np.ndarray:
    """P f(x) = int_R fhat(k) e^{i 2 pi k.x} dk over the wedge R of spec for
    f(s) = cos^2(pi s1 / 2W) cos^2(pi s2 / 2W) cos(2 pi a.s) on [-W, W]^2,
    one row per a_vec.  fhat(k) = [T(k - a) + T(k + a)] / 2 with T(k) =
    t(k1) t(k2), t(xi) = W sinc(2W xi) + W [sinc(2W xi - 1) + sinc(2W xi
    + 1)] / 2 (normalized sinc).  R takes a collapsed 24^2 Gauss product
    rule: kx = dp v, ky = dp s v u, weight dp^2 s v."""
    def t(xi):
        u = 2.0 * W * xi
        return W * np.sinc(u) + 0.5 * W * (np.sinc(u - 1.0) + np.sinc(u + 1.0))
    u, wu = np.polynomial.legendre.leggauss(24)
    V, U = np.meshgrid(0.5 * (u + 1.0), u, indexing="ij")
    k = np.stack([spec.dp * V.ravel(), spec.dp * spec.s * (V * U).ravel()], -1)
    wt = 0.5 * spec.dp ** 2 * spec.s * (V * np.outer(wu, wu)).ravel()
    fhats = [0.5 * wt * (t(k - a).prod(axis=1) + t(k + a).prod(axis=1))
             for a in a_vecs]
    return np.array(fhats) @ np.exp(2j * np.pi * (k @ np.asarray(x).T))


# ---------------------------------------------------------------- suites

def check_moment_exactness(seed=None):
    t0 = time.time()
    # the exact moments for n = 0..63: 1 / (2n + 1), and (2n)! / (2^n n!)^2
    # assembled in log space
    legendre = 1.0 / (2 * np.arange(64) + 1)
    cosine_power = np.array([np.exp(lgamma(2 * n + 1)
                                    - 2 * (n * log(2.0) + lgamma(n + 1)))
                             for n in range(64)])

    def worst_error(q, target):
        """max_n |sum_i w_i x_i^(2n) - target_n| over n < 2M, one power
        table per rule."""
        n = np.arange(2 * len(q.nodes))
        powers = q.nodes ** (2 * n)[:, None]
        powers[1] = q.nodes ** 2    # numpy squares x ** 2; pow may differ
        h = np.sum(q.weights * powers, axis=1)
        return float(np.max(np.abs(h - target[n])))

    worst_gl = worst_ch = 0.0
    for M in range(1, 33):
        worst_gl = _max(worst_gl, worst_error(gauss_legendre_01(M),
                                              legendre))
        worst_ch = _max(worst_ch, worst_error(chebyshev_rule_for_j0(M),
                                              cosine_power))
    return [
        _row("half-gauss-legendre even moments", 1e-13, worst_gl),
        _row("cosine-power even moments", 1e-13, worst_ch),
        _row("moment suite runtime [s]", 1.0, time.time() - t0),
    ]


def check_cascade_pipeline(seed=None):
    t0 = time.time()
    a = build_sinc_cosine_approx(20.0, 6)
    level_err = 0.0 if a.level == 3 else 1.0
    band_err = abs(a.B0 / 3 ** a.level - 20.0 / 27.0)
    xs = np.linspace(-2.0, 2.0, 4001)
    e_reduced = float(np.max(np.abs(error_epsilon_B(a, xs))))
    q0 = gauss_legendre_01(6)
    direct = np.cos(np.outer(xs, 2 * np.pi * 20.0 * q0.nodes)) @ q0.weights
    e_direct = float(np.max(np.abs(sinc(20.0 * xs) - direct)))
    return [
        _row("band reduction level is 3", 0.0, level_err),
        _row("reduced band equals 20/27", 0.0, band_err),
        _row("reduced error vs unreduced + 1e-14", e_direct + 1e-14, e_reduced),
        _row("cascade suite runtime [s]", 5.0, time.time() - t0),
    ]


def check_lattice_identity(seed=None):
    worst = 0.0
    B = 20.0 / 27.0
    a_lo = build_sinc_cosine_approx(B, 6)
    for n_lvl in range(0, 4):
        a_hi = build_sinc_cosine_approx(3 ** (n_lvl + 1) * B, 6)
        for m in range(-5, 6):
            x = m * np.pi / B
            lo = error_epsilon_B(a_lo, np.array([x]))[0]
            hi = error_epsilon_B(a_hi, np.array([x]))[0]
            worst = _max(worst, abs(hi - lo))
    return [_row("error lattice match across bands", 1e-12, worst)]


def check_uniform_sampling(seed=None):
    B = 3.0
    worst_rel = 0.0
    for N in (5, 13, 40):
        xs = np.linspace(0.0, (2 * N + 1) * np.pi / (2 * B), 20001)
        measured = float(np.max(np.abs(sinc(B * xs) - periodic_sinc(B, N, xs))))
        _, predicted = uniform_max_error(B, N)
        worst_rel = _max(worst_rel, abs(measured - predicted) / predicted)
    x0 = np.array([0.37])
    Ns = np.array([8, 16, 32, 64, 128])
    vals = np.array([abs(sinc(B * x0) - periodic_sinc(B, int(N), x0))[0]
                     for N in Ns])
    slope = float(np.polyfit(np.log(2 * Ns + 1.0), np.log(vals), 1)[0])
    return [
        _row("uniform-rule max error formula (rel)", 1e-6, worst_rel),
        _row("near-zero decay exponent within 0.1 of -2", 0.1, abs(slope + 2.0)),
    ]


def check_prolate_identities(seed=None):
    t0 = time.time()
    rows = []
    worst = 0.0
    for B in (2.0, 5.0):
        M = int(np.ceil(4 * B)) + 6
        q = symmetrize(gauss_legendre_01(M), B)
        for builder in (pswf_exp_eigensystem, pswf_kernel_eigensystem):
            basis = builder(q, B)
            mu = basis.eigenvalues_mu
            lam2 = B * np.abs(basis.eigenvalues_lambda) ** 2
            keep = mu > 1e-13 * mu.max()
            worst = _max(worst, float(np.max(np.abs(lam2[keep] - mu[keep])
                                             / mu[keep])))
    rows.append(_row("concentration = band x |eigenvalue|^2 (rel)", 1e-9, worst))

    # cross-system spectra differ by at most the Gram-matrix gap
    B, M = 2.0, 10
    q = symmetrize(gauss_legendre_01(M), B)
    al, om = q.weights, q.nodes
    d = np.sqrt(al)
    A_hat = (1.0 / B) * d[:, None] * d[None, :] * np.exp(
        2j * np.pi * B * om[:, None] * om[None, :])
    G_e = B * (A_hat @ A_hat.conj().T)
    S_hat = 2.0 * d[:, None] * d[None, :] * sinc(
        2 * np.pi * B * (om[None, :] - om[:, None]))
    gap = float(np.linalg.norm(G_e - S_hat, 2))
    mu_e = np.sort(np.linalg.eigvalsh(G_e))
    mu_s = np.sort(np.linalg.eigvalsh(S_hat))
    rows.append(_row("cross-system eigenvalue gap vs matrix gap",
                     gap + 1e-10 * np.linalg.norm(S_hat, 2),
                     float(np.max(np.abs(mu_e - mu_s)))))

    M = 10
    Bu = (2 * M + 1) / 4.0
    qu = uniform_rule(Bu, M)
    bk = pswf_kernel_eigensystem(qu, Bu)
    rows.append(_row("uniform-rule kernel eigenvalues all one", 1e-10,
                     float(np.max(np.abs(bk.eigenvalues_mu - 1.0)))))
    be = pswf_exp_eigensystem(qu, Bu)
    lam = be.eigenvalues_lambda
    c = float(np.abs(lam).max())
    targets = np.array([c, -c, 1j * c, -1j * c])
    dist = float(np.max(np.min(np.abs(lam[:, None] - targets[None, :]),
                               axis=1)))
    rows.append(_row("uniform-rule exp spectrum is a 4-point set", 1e-12, dist))
    rows.append(_row("prolate suite runtime [s]", 30.0, time.time() - t0))
    return rows


def check_eigenvalue_count(seed=None):
    B, M = 5.0, 26
    q = symmetrize(gauss_legendre_01(M), B)
    bk = pswf_kernel_eigensystem(q, B)
    n_half = int(np.sum(bk.eigenvalues_mu > 0.5))
    return [_row("count above 1/2 within 3 of 20", 3.0, abs(n_half - 20))]


def check_projection_bounds(seed=None):
    t0 = time.time()
    rng = np.random.default_rng(11 if seed is None else int(seed))
    rows = []

    # interval route: twenty random profiles, composite-Gauss oracle
    B, T, M = 2.0, 1.0, 10
    a = build_sinc_cosine_approx(B, M)
    q = frequency_rule(a)
    ts = np.linspace(-T, T, 41)
    profiles = [_cosine_profile(rng) for _ in range(20)]
    t_max = np.linspace(-1, 1, 2001)
    cos_max = _cosines(profiles, t_max)
    bounds = discrete_repr_error_bound(
        a, B, T, [float(np.max(np.abs(_cosine_f(terms, t_max, cos_max))))
                  for terms in profiles])
    oracles = _interval_projection(profiles, B, ts)
    worst_ratio = 0.0
    for terms, oracle, bound in zip(profiles, oracles, bounds):
        vals = discrete_fourier_repr_1d(_cosine_fhat(terms, B * q.nodes),
                                        q, B, ts)
        err = float(np.max(np.abs(vals - oracle)))
        worst_ratio = _max(worst_ratio, err / bound)
    rows.append(_row("interval projection error within bound (x20)",
                     1.0, worst_ratio))

    # planar wedge route: five tapered profiles against the frequency-side
    # closed-form oracle, which never calls k_triangle or projection
    spec = TriangleSpec(0.8, 0.7)
    W = 0.3
    qt = triangle_quadrature(spec, 3, 3, target_box=((-W, W), (-W, W)))
    kern = expsum_kernel(qt)
    samples = make_grid([-W, -W], [W, W], [161, 161])
    s1, s2 = samples.points.T
    ex = np.linspace(-W, W, 21)
    E1, E2 = np.meshgrid(ex, ex, indexing="ij")
    epts = np.stack([E1.ravel(), E2.ravel()], axis=-1)
    a_vecs = [rng.uniform(-0.6, 0.6, 2) for _ in range(5)]
    taper = (np.cos(np.pi * s1 / (2 * W)) ** 2
             * np.cos(np.pi * s2 / (2 * W)) ** 2)
    worst2 = 0.0
    for a_vec, orc in zip(a_vecs, _wedge_projection(spec, W, a_vecs, epts)):
        vals = taper * np.cos(2 * np.pi * (a_vec[0] * s1 + a_vec[1] * s2))
        res = rlimited_discrete_fourier(
            SampledField(samples, vals.astype(complex)), kern, epts)
        err = float(np.max(np.abs(res.field.values - orc)))
        worst2 = _max(worst2, err / res.error_bound)
    rows.append(_row("region projection error within bound (x5)",
                     1.0, worst2))
    rows.append(_row("projection suite runtime [s]", 180.0, time.time() - t0))
    return rows


def check_nyquist(seed=None):
    rng = np.random.default_rng(5 if seed is None else int(seed))
    B = 1.0
    worst = 0.0
    for K in (0, 2, 4, 8):
        fk = rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1)
        for M in range(K, K + 5):
            rep = nyquist_delta_train_check(fk, max(M, K), K, B=B)
            worst = _max(worst, rep["max_abs_error"])
    return [_row("delta-train lattice reconstruction", 1e-9 * 2 * B, worst)]


def check_triangle_kernel(seed=None):
    t0 = time.time()
    rng = np.random.default_rng(7 if seed is None else int(seed))
    spec = TriangleSpec(0.8, 0.7)
    rows = []

    xs = rng.uniform(-3, 3, 1000)
    ys = rng.uniform(-3, 3, 1000)
    K_full = k_triangle(spec, xs, ys)
    out = triangle_scaling_refine(spec, xs, ys,
                                  (k_triangle(spec, xs / 2, ys / 2),
                                   k_triangle(spec, -xs / 2, ys / 2)))
    den = np.maximum(np.abs(K_full), 1e-6 * spec.area)
    rows.append(_row("half-argument identity (rel, x1000)", 1e-12,
                     float(np.max(np.abs(out - K_full) / den))))

    W = 0.3
    q = triangle_quadrature(spec, 3, 3, target_box=((-W, W), (-W, W)))
    prof = q.provenance["error_profile"]
    box = prof["box"]
    gx = np.linspace(box[0][0], box[0][1], 101)
    gy = np.linspace(box[1][0], box[1][1], 101)
    GX, GY = np.meshgrid(gx, gy, indexing="ij")
    fine = float(np.max(np.abs(q.eval_grid((gx, gy)).ravel()
                               - k_triangle(spec, GX.ravel(), GY.ravel()))))
    rows.append(_row("surrogate within recorded profile (fine regrid)",
                     1.10 * prof["max_err"], fine))

    # per-level error may not beat the quarter-combination of its parents
    n_g = 41
    g1 = np.linspace(box[0][0], box[0][1], n_g)
    GX, GY = np.meshgrid(g1, g1, indexing="ij")
    X, Y = GX.ravel(), GY.ravel()

    # the closed form at (+-X, Y) / 2^e, e = 0..5: every level below reads
    # these twelve argument arrays, each evaluated once
    exact = [(k_triangle(spec, X / 2.0 ** e, Y / 2.0 ** e),
              k_triangle(spec, -X / 2.0 ** e, Y / 2.0 ** e))
             for e in range(6)]

    slack = 1e-12 * spec.area     # evaluator noise allowance per comparison
    worst_viol = -np.inf
    worst_final = 0.0
    for m in range(1, 6):
        sc = 2.0 ** m
        # the surrogate on the tensor grids (+-g1, g1) / sc, raveled as X, Y
        Vp = q.eval_grid((g1 / sc, g1 / sc)).ravel()
        Vm = q.eval_grid((-g1 / sc, g1 / sc)).ravel()
        Ep = np.abs(Vp - exact[m][0])
        Em = np.abs(Vm - exact[m][1])
        for j in range(1, m + 1):
            s2 = 2.0 ** (m - j)
            xj, yj = X / s2, Y / s2
            Vp_new = triangle_scaling_refine(spec, xj, yj, (Vp, Vm))
            Vm_new = triangle_scaling_refine(spec, -xj, yj, (Vm, Vp))
            Ep_new = np.abs(Vp_new - exact[m - j][0])
            Em_new = np.abs(Vm_new - exact[m - j][1])
            worst_viol = _max(worst_viol,
                              float(np.max(Ep_new - 0.25 * (3 * Ep + Em))),
                              float(np.max(Em_new - 0.25 * (3 * Em + Ep))))
            Vp, Vm, Ep, Em = Vp_new, Vm_new, Ep_new, Em_new
        worst_final = _max(worst_final, float(Ep.max()))
    rows.append(_row("refined error within quarter-combination bound",
                     slack, worst_viol))
    rows.append(_row("refined grid error vs level-0 profile",
                     prof["max_err"] + 1e-12, worst_final))
    rows.append(_row("triangle suite runtime [s]", 60.0, time.time() - t0))
    return rows


def check_symmetry(seed=None):
    from scipy.spatial import cKDTree
    rows = []
    q = equilateral_symmetric_quadrature(4, 4, profile_grid=0)
    th = 2 * np.pi / 3
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    tree = cKDTree(q.nodes)
    dist, idx = tree.query(q.nodes @ R.T)
    perm_defect = 0.0 if len(set(idx)) == len(q.nodes) else 1.0
    wmatch = float(np.max(np.abs(q.weights[idx] - q.weights)))
    rows.append(_row("third-turn node match distance", 1e-12,
                     float(dist.max()) + perm_defect))
    rows.append(_row("third-turn weight match", 1e-12, wmatch))

    G = tetra_symmetry_group()
    defect = 0.0 if len(G) == 12 else 1.0
    defect = _max(defect, *(float(np.max(np.abs(g @ g.T - np.eye(3))))
                            for g in G))
    defect = _max(defect, *(abs(float(np.linalg.det(g)) - 1.0) for g in G))
    vt = cKDTree(TETRA_VERTICES)
    for g in G:
        dv, iv = vt.query(TETRA_VERTICES @ g.T)
        defect = _max(defect, float(dv.max()))
        if len(set(iv)) != 4:
            defect = _max(defect, 1.0)
    keys = set(tuple(np.round(g.ravel(), 9)) for g in G)
    if not all(tuple(np.round((a @ b).ravel(), 9)) in keys
               for a, b in itertools.product(G, G)):
        defect = _max(defect, 1.0)
    rows.append(_row("rotation group: size 12, orthogonal, closed", 1e-12,
                     defect))

    qt = tetra_symmetric_quadrature(3, 3, 3, profile_grid=0)
    tr = cKDTree(qt.nodes)
    worst = 0.0
    for g in G:
        d2, i2 = tr.query(qt.nodes @ g.T)
        worst = _max(worst, float(d2.max()))
        if len(set(i2)) != len(qt.nodes):
            worst = _max(worst, 1.0)
    rows.append(_row("tetra node cloud invariant under group", 1e-12, worst))
    inside = tetra_contains(qt.nodes, tol=1e-9)
    rows.append(_row("tetra nodes inside the region", 0.0,
                     float(len(qt.nodes) - int(np.sum(inside)))))
    return rows


def check_cone_ball(seed=None):
    rows = []
    spec = ConeSpec(1.0, 1.0, 2)
    rule = solve_moment_problem(preset_moments("j1_cosinc", 1.0, 11), 6)
    ls = cone_ls_error(spec, rule)
    brute = cone_ls_error_bruteforce(spec, rule)
    rows.append(_row("squared-error level: two routes agree (rel)", 1e-8,
                     abs(brute / ls - 1.0)))

    T_w = R_w = 6.0
    nt = nr = 21
    ts = np.linspace(0.0, T_w, nt)
    rs = np.linspace(R_w / nr, R_w, nr)
    T, R = (g.ravel() for g in np.meshgrid(ts, rs, indexing="ij"))
    err2 = (np.abs(k_cone(spec, T, R) - tilde_k_cone(spec, rule, T, R))
            ** 2).reshape(nt, nr)
    wt = np.ones(nt)
    wt[0] = wt[-1] = 0.5
    wt *= T_w / (nt - 1)
    wr = np.ones(nr)
    wr[0] = wr[-1] = 0.5
    wr *= (R_w - R_w / nr) / (nr - 1)
    window = 2.0 * float(np.einsum("i,j,ij->", wt, wr * 2 * np.pi * rs, err2))
    rows.append(_row("windowed squared error within level (x1.05)",
                     1.05 * ls, window))

    q = cone_quadrature(spec, 6, 6, 6, profile_grid=0)
    meas, _ = quad(lambda w: np.pi * (spec.pmax * abs(w)) ** 2,
                   -spec.omega0, spec.omega0)
    rows.append(_row("cone weights sum to measure (rel)", 1e-6,
                     abs(float(np.real(np.sum(q.weights))) - meas) / meas))
    qb = ball_quadrature(1.0, 6, 6, 6, profile_grid=0)
    measb, _ = quad(lambda r: 4 * np.pi * r ** 2, 0.0, 1.0)
    rows.append(_row("ball weights sum to measure (rel)", 1e-6,
                     abs(float(np.real(np.sum(qb.weights))) - measb) / measb))
    return rows


SUITES = {
    "moments": check_moment_exactness,
    "cascade": check_cascade_pipeline,
    "lattice": check_lattice_identity,
    "uniform-sampling": check_uniform_sampling,
    "prolate": check_prolate_identities,
    "eigen-count": check_eigenvalue_count,
    "projection": check_projection_bounds,
    "nyquist": check_nyquist,
    "triangle-kernel": check_triangle_kernel,
    "symmetry": check_symmetry,
    "cone-ball": check_cone_ball,
}


def run_all(suites=None, seed=None) -> dict:
    """Run the named suites (all by default) and collect a report."""
    picked = list(SUITES) if not suites else list(suites)
    unknown = [s for s in picked if s not in SUITES]
    if unknown:
        raise KeyError("unknown suites %r; available: %s"
                       % (unknown, ", ".join(SUITES)))
    t0 = time.time()
    checks = []
    for name in picked:
        for row in SUITES[name](seed=seed):
            row["name"] = "%s: %s" % (name, row["name"])
            checks.append(row)
    return {"checks": checks, "runtime_s": time.time() - t0}
