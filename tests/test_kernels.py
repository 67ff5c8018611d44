"""Region kernels, scaling identities, cascades, and symmetry machinery."""
import functools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad, dblquad
from scipy.special import j1 as bessel_j1

from rlimited import kernels as K
from rlimited.moments import (Quadrature1D, preset_moments,
                              solve_moment_problem)
from rlimited.numkit import sinc
from rlimited.projection import expsum_kernel, measure_kernel_profile

TRI = K.TriangleSpec(0.8, 0.7)
TET = K.TetraSpec(1.0, 0.8, 0.7)


def tri_oracle(spec, x, y):
    # integrate the analytic inner strip: K = int_0^dp e^{i2pi ux}
    #   * 2 sin(2 pi s u y) / (2 pi y) du, with the y -> 0 limit 2 s u
    if abs(y) < 1e-14:
        g = lambda u: np.exp(2j * np.pi * u * x) * 2 * spec.s * u
    else:
        g = lambda u: (np.exp(2j * np.pi * u * x)
                       * np.sin(2 * np.pi * spec.s * u * y) / (np.pi * y))
    re, _ = quad(lambda u: g(u).real, 0, spec.dp, epsabs=1e-13, limit=200)
    im, _ = quad(lambda u: g(u).imag, 0, spec.dp, epsabs=1e-13, limit=200)
    return re + 1j * im


def test_k_triangle_against_quadrature_oracle():
    rng = np.random.default_rng(21)
    for _ in range(5):
        x, y = rng.uniform(-2, 2, 2)
        got = K.k_triangle(TRI, x, y)
        assert abs(got - tri_oracle(TRI, x, y)) < 1e-12, (x, y)
    # the centred-series branch and both symmetry lines
    for x, y in [(0.9, 0.0), (0.9, 1e-5), (0.9, 2e-4), (0.0, 0.6)]:
        assert abs(K.k_triangle(TRI, x, y) - tri_oracle(TRI, x, y)) < 1e-12


def test_k_triangle_at_origin_is_area():
    assert K.k_triangle(TRI, 0.0, 0.0) == TRI.area
    assert abs(TRI.area - TRI.dp ** 2 * TRI.s) < 1e-16


def test_triangle_refine_matches_direct():
    x, y = 1.3, -0.8
    pair = (K.k_triangle(TRI, x / 2, y / 2), K.k_triangle(TRI, -x / 2, y / 2))
    got = K.triangle_scaling_refine(TRI, x, y, pair)
    assert abs(got - K.k_triangle(TRI, x, y)) < 1e-13
    # vectorized path agrees with the scalar one
    xs = np.array([0.3, 1.3, -0.7])
    ys = np.array([0.2, -0.8, 0.5])
    vp = K.k_triangle(TRI, xs / 2, ys / 2)
    vm = K.k_triangle(TRI, -xs / 2, ys / 2)
    vec = K.triangle_scaling_refine(TRI, xs, ys, (vp, vm))
    assert np.max(np.abs(vec - K.k_triangle(TRI, xs, ys))) < 1e-13


def tet_oracle(spec, X, Y, Z):
    def inner(y, z, part):
        v = (np.exp(2j * np.pi * (z * Z + y * Y))
             * 2 * spec.s * y * np.sinc(2 * spec.s * y * X))
        return v.real if part == 0 else v.imag
    re, _ = dblquad(lambda y, z: inner(y, z, 0), 0, spec.h,
                    0, lambda z: spec.dp * z, epsabs=1e-11)
    im, _ = dblquad(lambda y, z: inner(y, z, 1), 0, spec.h,
                    0, lambda z: spec.dp * z, epsabs=1e-11)
    return re + 1j * im


def test_k_tetra_against_quadrature_oracle():
    pts = [(0.3, -0.4, 0.6), (1.2, 0.5, -0.9), (0.0, 0.0, 0.0),
           (1e-4, 0.2, 0.3), (0.5, 1e-4, 0.2)]
    for pt in pts:
        assert abs(K.k_tetra(TET, *pt) - tet_oracle(TET, *pt)) < 1e-9, pt
    assert K.k_tetra(TET, 0.0, 0.0, 0.0) == TET.volume


def test_k_cone_n1_against_quadrature_oracle():
    spec = K.ConeSpec(3.0, 0.8, 1)

    def oracle(t, x):
        if abs(x) < 1e-13:
            f = lambda w: 2 * np.cos(2 * np.pi * t * w) * 2 * spec.pmax * w
        else:
            f = lambda w: (2 * np.cos(2 * np.pi * t * w)
                           * np.sin(2 * np.pi * spec.pmax * w * x)
                           / (np.pi * x))
        return quad(f, 0, spec.omega0, epsabs=1e-13, limit=300)[0]

    for t, x in [(0.1, 0.2), (0.5, -0.7), (0.0, 0.0), (0.3, 1e-5),
                 (1.1, 0.9)]:
        assert abs(K.k_cone(spec, t, x) - oracle(t, x)) < 1e-12, (t, x)
    assert abs(K.k_cone(spec, 0, 0) - spec.measure) < 1e-14


def test_k_cone_n3_against_quadrature_oracle():
    spec = K.ConeSpec(2.0, 0.9, 3)

    def ball_val(km, r):
        if r < 1e-13:
            return 4 * np.pi * km ** 3 / 3
        u = 2 * np.pi * km * r
        return (np.sin(u) - u * np.cos(u)) / (2 * np.pi ** 2 * r ** 3)

    def oracle(t, r):
        f = lambda w: 2 * np.cos(2 * np.pi * t * w) * ball_val(
            spec.pmax * w, r)
        return quad(f, 0, spec.omega0, epsabs=1e-12, limit=300)[0]

    for t, r in [(0.13, 0.21), (0.4, 0.55), (0.0, 0.0), (0.2, 1e-4),
                 (0.8, 0.05)]:
        assert abs(K.k_cone(spec, t, r) - oracle(t, r)) < 1e-8, (t, r)
    assert abs(K.k_cone(spec, 0, 0) - spec.measure) < 1e-12


def test_k_cone_n2_against_bessel_oracle():
    spec = K.ConeSpec(50.0, 1.0, 2)

    def oracle(t, r):
        def g(w):
            R = spec.pmax * w
            z = 2 * np.pi * R * r
            disc = np.pi * R * R if z < 1e-10 else R * bessel_j1(z) / r
            return 2 * np.cos(2 * np.pi * t * w) * disc
        return quad(g, 0, spec.omega0, epsabs=1e-9, epsrel=1e-11,
                    limit=500)[0]

    for t, r in [(0.0, 0.0), (0.003, 0.0), (0.01, 0.02), (0.04, 0.01),
                 (0.02, 0.005)]:
        rel = abs(K.k_cone(spec, t, r) - oracle(t, r)) / spec.measure
        assert rel < 1e-9, (t, r, rel)


def _k_cone_2_quad(spec, t, r):
    """The n=2 cone kernel by one adaptive `quad` per point, the route
    k_cone took before its fixed composite rule."""
    def j1c(z):
        if abs(z) <= 1e-4:
            return 0.5 - z * z / 16.0 + z ** 4 / 384.0
        return bessel_j1(z) / z

    def sph_ratio(b):
        # (sin b - b cos b)/b^3 with the limit 1/3
        if abs(b) <= 1e-3:
            b2 = b * b
            return 1.0 / 3.0 - b2 / 30.0 + b2 * b2 / 840.0
        return (math.sin(b) - b * math.cos(b)) / b ** 3

    w0, p = spec.omega0, spec.pmax
    t, r = np.broadcast_arrays(np.asarray(t, float), np.asarray(r, float))
    out = np.empty(t.size, dtype=complex)
    pref = 4.0 * np.pi * w0 ** 3 * p ** 2
    for i, (ti, ri) in enumerate(zip(t.ravel(), r.ravel())):
        bt = 2.0 * np.pi * w0 * ti
        if abs(ri) <= 1e-12:
            # radial limit: j1c -> 1/2, the integral closes in elementary
            # terms
            out[i] = pref * 0.5 * (sinc(bt) - 2.0 * sph_ratio(bt))
            continue
        br = 2.0 * np.pi * w0 * p * ri
        val = quad(lambda u: u * u * j1c(br * u) * math.cos(bt * u),
                   0.0, 1.0, epsabs=1e-11, epsrel=1e-11, limit=400)[0]
        out[i] = pref * val
    return out.reshape(t.shape)


@pytest.mark.parametrize("omega0", [1.0, 50.0])
def test_k_cone_n2_matches_quad_oracle(omega0):
    spec = K.ConeSpec(omega0, 0.7, 2)
    rng = np.random.default_rng(5)
    scale = 3.0 / omega0
    # every node of the tiny radius lands in the |z| <= 1e-4 series; the
    # nodes of the cut radius fall on both sides of the cut
    tiny, cut = np.array([0.5e-4, 1.5e-4]) / (2 * np.pi * omega0 * spec.pmax)
    t = np.concatenate([[0.0, 0.3 * scale, 0.0, -0.2 * scale, 0.1 * scale],
                        rng.uniform(-scale, scale, 8)])
    r = np.concatenate([[0.0, 0.0, tiny, tiny, cut],
                        rng.uniform(0.0, scale, 8)])
    got = K.k_cone(spec, t, r)
    assert np.max(np.abs(got - _k_cone_2_quad(spec, t, r))) \
        <= 1e-14 * spec.measure


@functools.lru_cache(maxsize=None)
def _mp_gauss_legendre(n):
    return mp.gauss_quadrature(n, "legendre")


@functools.lru_cache(maxsize=None)
def mp_cone_2_integral(alpha, beta):
    """int_0^1 u^2 J1(beta u)/(beta u) cos(alpha u) du to 30 digits.

    Through J1(z) = (1/pi) int_0^pi cos(th - z sin th) dth the u integral
    closes: the term odd about th = pi/2 cancels and what is left is
    (1/(pi beta)) int_0^{pi/2} sin th [A(beta sin th + alpha)
    + A(beta sin th - alpha)] dth with A(c) = (sin c - c cos c)/c^2, an
    elementary integrand whose phase moves at most beta per radian of th.
    It is summed on panels of at most 24 rad with 30 nodes each, whose
    error is far below 1e-30.  beta = 0 is the closed form of
    (1/2) int_0^1 u^2 cos(alpha u) du.
    """
    with mp.workdps(30):
        a, b = abs(mp.mpf(alpha)), mp.mpf(beta)
        if b == 0:
            if a == 0:
                return mp.mpf(1) / 6
            z = 1j * a
            return mp.re((mp.exp(z) * (z * z - 2 * z + 2) - 2) / z ** 3) / 2

        def A(c):
            if abs(c) < mp.mpf("1e-3"):
                return mp.fsum((-1) ** (k + 1) * 2 * k * c ** (2 * k - 1)
                               / mp.factorial(2 * k + 1) for k in range(1, 8))
            return (mp.sin(c) - c * mp.cos(c)) / c ** 2

        x, w = _mp_gauss_legendre(30)
        n = int(b * mp.pi / 2 / 24) + 1
        h = mp.pi / 2 / n
        acc = 0
        for j in range(n):
            for xi, wi in zip(x, w):
                st = mp.sin(h * (j + (xi + 1) / 2))
                acc += wi * st * (A(b * st + a) + A(b * st - a))
        return acc * h / 2 / (mp.pi * b)


def test_k_cone_n2_against_mpmath_at_high_band():
    # omega0 = 400 puts |alpha| + |beta| up to 5000 rad, about 210 panels
    spec = K.ConeSpec(400.0, 1.0, 2)
    kap = 2 * np.pi * spec.omega0
    # the nodes of these radii straddle the 1e-4 series cut of J1(z)/z
    cut = np.array([0.5e-4, 1.5e-4, 3e-4]) / (kap * spec.pmax)
    t = np.concatenate([[0.99, -0.99, 1.0, -1.0, 0.0, 0.0, 0.37],
                        [0.0, 0.013, -0.4]])
    r = np.concatenate([[1.0, 1.0, 0.0, 0.0, 0.0, 0.61, 0.25], cut])
    got = K.k_cone(spec, t, r)
    for ti, ri, g in zip(t, r, got):
        ref = complex(4 * mp.pi * spec.omega0 ** 3 * spec.pmax ** 2
                      * mp_cone_2_integral(kap * ti, kap * spec.pmax * ri))
        assert abs(g - ref) <= 1e-15 * spec.measure, (ti, ri)


def test_k_cone_n2_memory_does_not_grow_with_points():
    # unchunked, the 20,000 x 32P node matrices alone would take 20 MiB
    # each; the chunks hold about 2^18 elements whatever the point count
    spec = K.ConeSpec(400.0, 1.0, 2)
    rng = np.random.default_rng(11)
    t = rng.uniform(-0.05, 0.05, 20000)
    r = rng.uniform(0.0, 0.05, 20000)
    tracemalloc.start()
    try:
        K.k_cone(spec, t, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2 ** 20, peak


def test_j1c_across_series_cut_against_mpmath():
    cut = np.linspace(0.5e-4, 2e-4, 61)
    near = np.array([np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0)])
    z = np.concatenate([cut, -cut, near, -near])
    got = K._j1c(z)
    # J1(z)/z sits just below 1/2 here, where the spacing halves; the
    # ulps are counted at 1/2
    ulp = np.spacing(0.5)
    with mp.workdps(30):
        for zi, g in zip(z, got):
            ref = float(mp.besselj(1, mp.mpf(float(zi))) / float(zi))
            assert abs(g - ref) <= 2 * ulp, zi


def test_k_cone_rejects_bad_dimension():
    with pytest.raises(ValueError):
        K.k_cone(K.ConeSpec(1.0, 1.0, 4), 0.0, 0.0)


def test_shape_numbers_must_be_positive_and_finite():
    for make in (lambda: K.TriangleSpec(0.8, 0.0),
                 lambda: K.TetraSpec(1.0, -0.8, 0.7),
                 lambda: K.TetraSpec(1.0, 0.8, np.nan),
                 lambda: K.ConeSpec(np.inf, 1.0, 2),
                 lambda: K.k_ball(0.0, 0.3),
                 lambda: K.ball_quadrature(-1.0, 2, 2, 2)):
        with pytest.raises(ValueError):
            make()


def test_1d_spatial_input_holds_radii():
    r = np.array([0.1, 0.2, 0.3])
    got = K.k_ball(1.0, r)
    assert got.shape == (3,)
    assert np.array_equal(got, [K.k_ball(1.0, ri) for ri in r])
    pts = np.stack([r, 0 * r, 0 * r], axis=-1)
    assert np.array_equal(K.k_ball(1.0, pts), got)
    spec = K.ConeSpec(1.0, 1.0, 2)
    t, rc = np.array([0.1, 0.2]), np.array([0.3, 0.4])
    got = K.k_cone(spec, t, rc)
    assert got.shape == (2,)
    assert np.array_equal(got, [K.k_cone(spec, ti, ri)
                                for ti, ri in zip(t, rc)])
    # the kernel-eval cone grid (15^2, omega0 = 50): each point's value is
    # the same alone, in the whole grid or in a random subset of it
    spec = K.ConeSpec(50.0, 1.0, 2)
    T, R = np.meshgrid(np.linspace(-1.0, 1.0, 15),
                       np.linspace(1.0 / 15, 1.0, 15), indexing="ij")
    t, rc = T.ravel(), R.ravel()
    got = K.k_cone(spec, t, rc)
    assert np.array_equal(got, [K.k_cone(spec, ti, ri)
                                for ti, ri in zip(t, rc)])
    sub = np.random.default_rng(3).choice(t.size, 40, replace=False)
    assert np.array_equal(K.k_cone(spec, t[sub], rc[sub]), got[sub])


def test_spatial_points_need_the_spatial_width():
    # 2-D points are not 3-D ball offsets, nor 5-D ones planar cone offsets
    with pytest.raises(ValueError):
        K.k_ball(1.0, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        K.k_cone(K.ConeSpec(1.0, 1.0, 2), 0.1, np.zeros((2, 5)))
    with pytest.raises(ValueError):
        K.k_cone(K.ConeSpec(1.0, 1.0, 3), 0.1, np.zeros((2, 2)))


def test_k_ball_against_quadrature_oracle():
    km = 1.7

    def oracle(r):
        f = lambda rho: 4 * np.pi * rho ** 2 * np.sinc(2 * rho * r)
        return quad(f, 0, km, epsabs=1e-13)[0]

    for r in (0.0, 1e-5, 0.3, 1.2):
        assert abs(K.k_ball(km, r) - oracle(r)) < 1e-12, r
    assert abs(K.k_ball(km, 0.0) - 4 * np.pi * km ** 3 / 3) < 1e-12


def test_preset_specs_geometry():
    eq = K.equilateral_spec()
    assert abs(eq.area - math.sqrt(3) / 4) < 1e-15
    rt = K.regular_tetra_spec()
    assert abs(rt.volume - rt.h ** 3 * rt.dp ** 2 * rt.s / 3) < 1e-15
    st = K.sub_tetra_spec()
    assert abs(12 * st.volume - 1 / (6 * math.sqrt(2))) < 1e-15


def test_rotation_matrix_properties():
    R = K.rotation_matrix([1.0, 2.0, -0.5], 0.7)
    assert np.max(np.abs(R @ R.T - np.eye(3))) < 1e-14
    assert abs(np.linalg.det(R) - 1.0) < 1e-12
    assert abs(np.trace(R) - (1 + 2 * np.cos(0.7))) < 1e-14
    axis = np.array([1.0, 2.0, -0.5])
    assert np.max(np.abs(R @ axis - axis)) < 1e-14


def test_tetra_symmetry_group():
    G = K.tetra_symmetry_group()
    assert len(G) == 12
    for R in G:
        assert np.max(np.abs(R @ R.T - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(R) - 1.0) < 1e-12
        # each rotation permutes the vertex set
        for v in K.TETRA_VERTICES:
            d = np.min(np.linalg.norm(K.TETRA_VERTICES - R @ v, axis=1))
            assert d < 1e-12
    # closure under composition
    for A in G:
        for B in G:
            assert any(np.allclose(A @ B, C, atol=1e-12) for C in G)


def test_tetra_contains():
    assert K.tetra_contains(K.TETRA_VERTICES).all()
    assert K.tetra_contains([[0.0, 0.0, 0.0]])[0]
    assert not K.tetra_contains([[1.0, 1.0, 1.0]])[0]


def test_cone_ls_error_decreases_with_terms():
    spec = K.ConeSpec(2.0, 1.0, 2)
    vals = []
    for M in (2, 4, 6, 8):
        rule = solve_moment_problem(preset_moments("j1_cosinc", 1.0,
                                                   2 * M - 1), M)
        vals.append(K.cone_ls_error(spec, rule))
    assert all(v > 0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:])), vals


@pytest.mark.parametrize("M", [4, 6])
def test_cone_ls_error_matches_bruteforce(M):
    spec = K.ConeSpec(2.0, 1.0, 2)
    rule = solve_moment_problem(preset_moments("j1_cosinc", 1.0, 2 * M - 1),
                                M)
    ls = K.cone_ls_error(spec, rule)
    bf = K.cone_ls_error_bruteforce(spec, rule)
    assert abs(bf / ls - 1) < 1e-9, (ls, bf)


def _w_cross_mpmath(a, b, R=12):
    """int_0^inf cosinc(au) cosinc(bu) du/u directly: mpmath quadrature on
    [0, R], then the exact tail of (1 - cos au)(1 - cos bu) / (a b u^3),
    whose cos(lam u)/u^3 pieces integrate through the cosine integral."""
    with mp.workdps(30):
        a, b = mp.mpf(a), mp.mpf(b)
        body = mp.quad(lambda u: (1 - mp.cos(a * u)) * (1 - mp.cos(b * u))
                       / (a * b * u ** 3), mp.linspace(0, R, 4 * R + 1))

        def tail(lam):
            if lam == 0:
                return 1 / (2 * mp.mpf(R) ** 2)
            x = lam * R
            return lam ** 2 * (mp.cos(x) / (2 * x ** 2) - mp.sin(x) / (2 * x)
                               + mp.ci(x) / 2)
        rest = (tail(0) - tail(a) - tail(b) + tail(a + b) / 2
                + tail(abs(a - b)) / 2) / (a * b)
        return float(body + rest)


@pytest.mark.parametrize("a,b", [(0.7, 0.7), (1.0, 1.0 + 1e-9),
                                 (1.0, 1.0 - 1e-7), (0.5, 1.3),
                                 (2.0, 0.01), (30.0, 0.02), (1.0, 1e-3)])
def test_w_cross_closed_form_matches_mpmath(a, b):
    got = K._w_cross(a, b)
    assert got == K._w_cross(b, a)
    assert abs(got / _w_cross_mpmath(a, b) - 1.0) < 1e-13, got
    if a == b:
        assert abs(got - math.log(2.0)) < 1e-15


def test_j1_expansion_rejects_bad_nodes():
    bad = Quadrature1D(weights=np.array([1.0]), nodes=np.array([-0.5]),
                       band=1.0, symmetric=False, provenance={})
    with pytest.raises(ValueError):
        K.j1_expansion_from_rule(bad)


def test_tilde_k_cone_branch_continuity():
    spec = K.ConeSpec(50.0, 1.0, 2)
    rule = solve_moment_problem(preset_moments("j1_cosinc", 1.0, 11), 6)
    _, gamma = K.j1_expansion_from_rule(rule)
    r_sw = 0.5 / (2 * np.pi * spec.omega0 * spec.pmax * np.max(gamma))
    lo = K.tilde_k_cone(spec, rule, 0.013, r_sw * 0.999)
    hi = K.tilde_k_cone(spec, rule, 0.013, r_sw * 1.001)
    assert abs(lo - hi) / spec.measure < 1e-3
    with pytest.raises(ValueError):
        K.tilde_k_cone(K.ConeSpec(1.0, 1.0, 3), rule, 0.0, 0.0)


def test_quadrature_weight_totals():
    tq = K.triangle_quadrature(TRI, 4, 4, profile_grid=0)
    assert abs(tq.weights.sum() - TRI.area) < 1e-14
    eq = K.equilateral_symmetric_quadrature(3, 3, profile_grid=0)
    assert abs(eq.weights.sum() - math.sqrt(3) / 4) < 1e-14
    tt = K.tetra_quadrature(TET, 3, 3, 3, profile_grid=0)
    assert abs(tt.weights.sum() - TET.volume) < 1e-14
    tsym = K.tetra_symmetric_quadrature(2, 2, 2, profile_grid=0)
    assert abs(tsym.weights.sum() - 1 / (6 * math.sqrt(2))) < 1e-14
    spec = K.ConeSpec(2.0, 1.0, 2)
    cq = K.cone_quadrature(spec, 4, 3, 3, target_box=((-0.4, 0.4),) * 3,
                           profile_grid=0)
    assert abs(cq.weights.sum() - spec.measure) < 1e-12 * spec.measure
    vol = 4 * np.pi * 1.3 ** 3 / 3
    bq = K.ball_quadrature(1.3, 4, 4, 3, target_box=((-0.4, 0.4),) * 3,
                           profile_grid=0)
    assert abs(bq.weights.sum() - vol) < 1e-12 * vol


def test_cascade_profiles_and_containment():
    tq = K.triangle_quadrature(TRI, 6, 6, profile_grid=21)
    assert tq.provenance["error_profile"]["max_err"] < 1e-13
    assert K.region_contains(tq.region, tq.nodes, tol=1e-9).all()

    eq = K.equilateral_symmetric_quadrature(4, 4, profile_grid=11)
    assert eq.provenance["error_profile"]["max_err"] < 1e-8
    assert K.region_contains(eq.region, eq.nodes, tol=1e-9).all()

    tt = K.tetra_quadrature(TET, 6, 5, 4, target_box=((-0.3, 0.3),) * 3,
                            profile_grid=5)
    assert tt.provenance["error_profile"]["max_err"] < 1e-13
    assert K.region_contains(tt.region, tt.nodes, tol=1e-9).all()

    vol = 4 * np.pi * 1.3 ** 3 / 3
    bq = K.ball_quadrature(1.3, 7, 6, 4, target_box=((-0.4, 0.4),) * 3,
                           profile_grid=5)
    assert bq.provenance["error_profile"]["max_err"] < 1e-3 * vol
    assert K.region_contains(bq.region, bq.nodes, tol=1e-9).all()


PROFILE_BUILDERS = {
    "triangle": lambda: K.triangle_quadrature(TRI, 4, 4, profile_grid=9),
    "equilateral": lambda: K.equilateral_symmetric_quadrature(
        3, 3, profile_grid=9),
    "tetra": lambda: K.tetra_quadrature(TET, 3, 3, 3, profile_grid=4),
    "tetra-symmetric": lambda: K.tetra_symmetric_quadrature(
        2, 2, 2, profile_grid=3),
    "cone": lambda: K.cone_quadrature(
        K.ConeSpec(2.0, 1.0, 2), 4, 3, 3, target_box=((-0.4, 0.4),) * 3,
        profile_grid=3),
    "ball": lambda: K.ball_quadrature(
        1.3, 4, 4, 3, target_box=((-0.4, 0.4),) * 3, profile_grid=4),
}


@pytest.mark.parametrize("name", sorted(PROFILE_BUILDERS))
def test_recorded_profile_matches_measure_kernel_profile(name):
    q = PROFILE_BUILDERS[name]()
    prof = q.provenance["error_profile"]
    again = measure_kernel_profile(expsum_kernel(q), prof["box"],
                                   prof["grid_n"]).provenance["error_profile"]
    assert again == prof


def test_cone_cascade_profile_improves_with_terms():
    spec = K.ConeSpec(2.0, 1.0, 2)
    box = ((-0.4, 0.4),) * 3
    lo = K.cone_quadrature(spec, 4, 3, 3, target_box=box, profile_grid=5)
    hi = K.cone_quadrature(spec, 8, 5, 4, target_box=box, profile_grid=5)
    e_lo = lo.provenance["error_profile"]["max_err"]
    e_hi = hi.provenance["error_profile"]["max_err"]
    assert e_hi < 0.1 * e_lo, (e_lo, e_hi)
    assert K.region_contains(lo.region, lo.nodes, tol=1e-9).all()


def test_quadrature_nd_json_round_trip():
    eq = K.equilateral_symmetric_quadrature(3, 3, profile_grid=0)
    back = K.quadrature_nd_from_json(K.quadrature_nd_to_json(eq))
    assert np.array_equal(back.nodes, eq.nodes)
    assert np.array_equal(back.weights, eq.weights)
    assert back.region == eq.region
    assert len(back.symmetry_group) == 3
    plain = K.triangle_quadrature(TRI, 3, 3, profile_grid=0)
    doc = K.quadrature_nd_to_json(plain)
    assert "band" not in doc  # identity band: cascade layout unchanged
    back2 = K.quadrature_nd_from_json(doc)
    assert back2.symmetry_group is None
    assert np.array_equal(back2.band, np.eye(2))


def test_quadrature_nd_validation_and_eval():
    tri = K.triangle_region(0.8, 0.7)
    inside = np.array([[0.4, 0.1], [0.5, -0.2]])
    for bad in (dict(weights=np.ones(3), nodes=inside),       # lengths
                dict(weights=np.ones(2), nodes=inside + 2.0),  # outside
                dict(weights=np.ones(2), nodes=inside,
                     band=np.ones((2, 3))),                    # not square
                dict(weights=np.ones(2), nodes=inside,
                     band=np.eye(3)),                          # not d x d
                dict(weights=np.ones(2), nodes=inside,
                     band=np.ones((2, 2)))):                   # singular
        with pytest.raises(ValueError):
            K.QuadratureND(region=tri, **bad)
    q = K.triangle_quadrature(TRI, 3, 3, profile_grid=0)
    one = q.eval_sum(np.array([0.1, 0.2]))
    many = q.eval_sum(np.array([[0.1, 0.2], [0.0, 0.0]]))
    assert np.ndim(one) == 0 and many.shape == (2,)
    assert abs(many[0] - one) < 1e-15
    assert abs(many[1] - q.weights.sum()) < 1e-14
    # a 1-D cloud reads a flat array as n points
    line = K.QuadratureND(weights=np.array([0.5, 1.5]),
                          nodes=np.array([[-0.5], [0.25]]),
                          region=K.interval_region(), band=[[2.0]])
    x = np.array([0.1, -0.3, 0.7])
    got = line.eval_sum(x)
    want = np.exp(2j * np.pi * np.outer(x, [-1.0, 0.5])) @ [0.5, 1.5]
    assert got.shape == (3,)
    assert np.max(np.abs(got - want)) < 1e-15
    assert np.array_equal(line.eval_sum(x[:, None]), got)


def test_region_transform_and_union_semantics():
    A = np.array([[1.0, 0.3], [0.0, 0.8]])
    base = K.triangle_region(0.8, 0.7)
    tr = K.transformed_region(base, A)
    pts = np.random.default_rng(4).uniform(-1, 1, (200, 2))
    lhs = K.region_contains(tr, pts)
    rhs = K.region_contains(base, pts @ np.linalg.inv(A).T)
    assert np.array_equal(lhs, rhs)
    uni = K.union_region([base, tr])
    both = K.region_contains(uni, pts)
    assert np.array_equal(both, lhs | K.region_contains(base, pts))


def per_part_column(r, pts, column, tol=1e-9):
    """A region's column by one row call per part, summed in part order."""
    A = r.transform_matrix()
    if A is not None:
        base = K.Region(r.kind, r.params, None, r.parts, r.symmetric)
        if column == "contains":
            return per_part_column(base, pts @ np.linalg.inv(A).T, column,
                                   tol)
        return abs(float(np.linalg.det(A))) * per_part_column(
            base, pts @ A, column)
    if r.kind == "union":
        zero = np.zeros(len(pts), dtype=complex if column == "kernel"
                        else bool)
        return sum((per_part_column(p, pts, column, tol) for p in r.parts),
                   zero)
    row = K._KINDS[r.kind]
    values = [r.param(name) for name in row.params]
    if column == "contains":
        return np.asarray(row.contains(pts, tol, *values), dtype=bool)
    return np.asarray(row.kernel(pts, *values), dtype=complex)


def _mixed_union():
    # an untransformed wedge between two transformed copies of it: one
    # row call holds parts with and without a |det A| scaling
    tri = K.triangle_region(0.8, 0.7)
    return K.union_region([K.transformed_region(tri, K._rot2(2 * np.pi / 3)),
                           tri,
                           K.transformed_region(tri, [[1.0, 0.3],
                                                      [0.0, 0.8]])])


@pytest.mark.parametrize("make", [
    lambda: K.tetra_symmetric_quadrature(2, 2, 2, profile_grid=0).region,
    lambda: K.equilateral_symmetric_quadrature(2, 2, profile_grid=0).region,
    _mixed_union,
], ids=["tetra", "equilateral", "mixed"])
def test_union_route_equals_the_per_part_sum_bitwise(make, monkeypatch):
    # parts sharing a base region go through one row call on their stacked
    # points (two parts per call under a stack bound of two point sets);
    # each part's values, and so the sum in part order, keep their bits.
    # Offsets on a grid through zero reach every series branch.
    r = make()
    d = K.region_dim(r)
    ax = np.linspace(-0.6, 0.6, 7)
    grid = np.stack([m.ravel() for m in np.meshgrid(*[ax] * d)], axis=-1)
    pts = np.concatenate([grid, np.random.default_rng(5).uniform(
        -1.5, 1.5, (200, d))])
    for stack in (K._STACK, 2 * len(pts)):
        monkeypatch.setattr(K, "_STACK", stack)
        for column in ("kernel", "contains"):
            got = (K.region_kernel_exact(r, pts) if column == "kernel"
                   else K.region_contains(r, pts))
            want = per_part_column(r, pts, column)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), (stack, column)
    assert K.region_contains(r, pts).any() and not K.region_contains(
        r, pts).all()


def test_region_json_round_trip():
    A = np.array([[1.0, 0.3], [0.0, 0.8]])
    tr = K.transformed_region(K.triangle_region(0.8, 0.7), A)
    assert K.region_from_json(K.region_to_json(tr)) == tr
    uni = K.union_region([K.triangle_region(0.8, 0.7), tr])
    assert K.region_from_json(K.region_to_json(uni)) == uni
    cone = K.cone_region(50.0, 1.0, 2)
    assert K.region_from_json(K.region_to_json(cone)) == cone
    with pytest.raises(ValueError):
        K.region_contains(K.Region("pentagon"), np.zeros((1, 2)))


@pytest.mark.parametrize("make, match", [
    (lambda: K.Region("pentagon"), "unknown region kind"),
    (lambda: K.Region("triangle", (("dp", 0.8),)), "needs parameters"),
    (lambda: K.Region("cone", (("omega0", 1.0), ("pmax", 1.0))),
     "needs parameters"),
    (lambda: K.Region("union"), "at least one part"),
    (lambda: K.union_region([]), "at least one part"),
    (lambda: K.region_from_json({"kind": "union"}), "at least one part"),
    (lambda: K.union_region([K.triangle_region(0.8, 0.7),
                             K.ball_region(1.0)]), r"dimensions \[2, 3\]"),
    (lambda: K.region_from_json({"kind": "triangle", "params": [0.8, 0.7]}),
     "params must be an object"),
    (lambda: K.region_from_json({"kind": "triangle",
                                 "params": {"dp": "a", "s": 0.7}}),
     "finite real numbers"),
    (lambda: K.Region("ball", (("k_max", float("nan")),)),
     "finite real numbers"),
    (lambda: K.Region("cone", (("omega0", 1.0), ("pmax", None), ("n", 2))),
     "finite real numbers"),
    (lambda: K.region_from_json({"kind": "triangle",
                                 "params": {"dp": True, "s": 0.7}}),
     "finite real numbers"),
    (lambda: K.region_from_json({"kind": "triangle",
                                 "params": {"dp": 0.8, "s": 0}}),
     "finite real numbers"),
    (lambda: K.region_from_json({"kind": "ball", "params": {"k_max": 0}}),
     "finite real numbers"),
    (lambda: K.region_from_json({"kind": "cone", "params": {
        "omega0": 1.0, "pmax": 1.0, "n": 2.5}}), "an int 1, 2 or 3 for n"),
    (lambda: K.region_from_json({"kind": "cone", "params": {
        "omega0": 1.0, "pmax": 1.0, "n": 4}}), "an int 1, 2 or 3 for n"),
    (lambda: K.region_from_json([{"kind": "interval"}]),
     "region must be an object"),
    (lambda: K.region_from_json({"kind": ["interval"]}),
     "region kind must be a string"),
    (lambda: K.region_from_json({"kind": "interval", "transform": 5}),
     "region transform must be an array of arrays"),
    (lambda: K.region_from_json({"kind": "interval", "transform": [5]}),
     "region transform must be an array of arrays"),
    (lambda: K.region_from_json({"kind": "union", "parts": 5}),
     "region parts must be an array"),
    (lambda: K.region_from_json({"kind": "union", "parts": [5]}),
     "region must be an object"),
    (lambda: K.region_from_json({"kind": "interval", "symmetric": "no"}),
     "region symmetric must be true or false"),
    (lambda: K.region_from_json({"kind": "triangle", "params": {
        "dp": 0.8, "s": 0.7}, "transform": [[1.0]]}),
     "region transform must be 2 x 2"),
    (lambda: K.transformed_region(K.ball_region(1.0), np.eye(2)),
     "region transform must be 3 x 3"),
], ids=["unknown-kind", "missing-param", "cone-without-n", "union-no-parts",
        "union-empty", "union-json-no-parts", "union-mixed-dims",
        "json-params-list", "json-param-string", "param-nan", "param-none",
        "json-param-bool", "json-param-zero", "json-kmax-zero",
        "json-cone-n-fraction", "json-cone-n-4",
        "json-region-list", "json-kind-list", "json-transform-int",
        "json-transform-row-int", "json-parts-int", "json-part-int",
        "json-symmetric-string", "json-transform-1x1", "transform-2x2-on-3d"])
def test_region_refuses_what_its_kind_does_not_define(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("region, width", [
    (K.triangle_region(0.8, 0.7), 3), (K.ball_region(1.0), 2),
    (K.interval_region(), 2)], ids=["triangle-3", "ball-2", "interval-2"])
def test_node_cloud_width_must_be_the_region_dimension(region, width):
    # every node lies inside the region by the columns its test reads
    nodes = np.zeros((2, width))
    nodes[:, 0] = 0.5
    with pytest.raises(ValueError, match="columns"):
        K.QuadratureND(weights=np.ones(2), nodes=nodes, region=region)
