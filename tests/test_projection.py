"""Projection routes: representations, interpolation, region pipelines."""
import json
import tracemalloc

import numpy as np
import pytest

from rlimited import kernels as K
from rlimited import projection as P
from rlimited import prolate as PR
from rlimited.moments import gauss_legendre_01, symmetrize, uniform_rule
from rlimited.numkit import SampledField, PointSet, make_grid, sinc
from rlimited.sincapprox import build_sinc_cosine_approx, frequency_rule

B = 2.0
TRI = K.TriangleSpec(0.8, 0.7)


@pytest.fixture(scope="module")
def freq_rule():
    return frequency_rule(build_sinc_cosine_approx(B, 10))


@pytest.fixture(scope="module")
def approx():
    return build_sinc_cosine_approx(B, 10)


def test_region_kernel_at_zero_is_measure():
    cases = [
        (K.interval_region(), np.array([0.0]), 2.0),
        (K.triangle_region(0.8, 0.7), np.zeros(2), TRI.area),
        (K.tetrahedron_region(1.0, 0.8, 0.7), np.zeros(3),
         K.TetraSpec(1.0, 0.8, 0.7).volume),
        (K.cone_region(3.0, 0.8, 1), np.zeros(2),
         K.ConeSpec(3.0, 0.8, 1).measure),
        (K.cone_region(2.0, 1.0, 2), np.zeros(3),
         K.ConeSpec(2.0, 1.0, 2).measure),
        (K.ball_region(1.3), np.zeros(3), 4 * np.pi * 1.3 ** 3 / 3),
    ]
    for region, origin, measure in cases:
        got = P.region_kernel_exact(region, origin)
        assert abs(got - measure) < 1e-12 * max(1.0, measure), region.kind
    assert {region.kind for region, _, _ in cases} == set(K._KINDS)
    A = np.array([[2.0, 0.0], [1.0, 1.5]])
    tr = K.transformed_region(K.triangle_region(0.8, 0.7), A)
    got = P.region_kernel_exact(tr, np.zeros(2))
    assert abs(got - abs(np.linalg.det(A)) * TRI.area) < 1e-12
    uni = K.union_region([K.triangle_region(0.8, 0.7), tr])
    got = P.region_kernel_exact(uni, np.zeros(2))
    assert abs(got - (1 + abs(np.linalg.det(A))) * TRI.area) < 1e-12


def test_region_dim():
    cases = [(K.interval_region(), 1), (K.triangle_region(1, 1), 2),
             (K.tetrahedron_region(1, 1, 1), 3), (K.cone_region(1, 1, 1), 2),
             (K.cone_region(1, 1, 2), 3), (K.ball_region(1), 3)]
    for region, dim in cases:
        assert P.region_dim(region) == dim, region
    assert {region.kind for region, _ in cases} == set(K._KINDS)
    assert P.region_dim(K.union_region([K.ball_region(1)])) == 3


def test_square_tiling_kernel_closed_form():
    # two sheared copies of the unit right wedge tile the unit square, so
    # the union kernel must factor into two shifted 1D interval kernels
    A1 = np.array([[1.0, 0.0], [0.5, 0.5]])
    A2 = np.array([[0.5, 0.5], [1.0, 0.0]])
    tri = K.triangle_region(1.0, 1.0)
    uni = K.union_region([K.transformed_region(tri, A1),
                          K.transformed_region(tri, A2)])
    pts = np.random.default_rng(3).uniform(-2, 2, (40, 2))
    got = P.region_kernel_exact(uni, pts)
    x, y = pts[:, 0], pts[:, 1]
    want = (np.exp(1j * np.pi * x) * sinc(np.pi * x)
            * np.exp(1j * np.pi * y) * sinc(np.pi * y))
    assert np.max(np.abs(got - want)) < 1e-14
    probe = np.array([[0.25, 0.75], [0.99, 0.01], [-0.05, 0.5],
                      [0.5, 1.05]])
    assert list(K.region_contains(uni, probe)) == [True, True, False, False]


def _fhat_of_cos(k, xi):
    # transform of cos(pi k s) restricted to [-1, 1]
    return sinc(np.pi * (2 * xi - k)) + sinc(np.pi * (2 * xi + k))


def test_discrete_repr_matches_oracle_within_bound(freq_rule, approx):
    ts = np.linspace(-0.9, 0.9, 7)
    bound = P.discrete_repr_error_bound(approx, B, 1.0, 1.0)
    assert bound < 1e-13
    for k in (0, 1, 3):
        f = lambda s, k=k: np.cos(np.pi * k * s) if abs(s) <= 1 else 0.0
        fhat = _fhat_of_cos(k, B * np.asarray(freq_rule.nodes))
        rec = P.discrete_fourier_repr_1d(fhat, freq_rule, B, ts)
        orc = P.bandlimited_projection_oracle(f, B, ts)
        assert np.max(np.abs(rec - orc)) <= bound, k
    with pytest.raises(ValueError):
        P.discrete_fourier_repr_1d(np.ones(3), freq_rule, B, 0.0)


def test_repr_error_bound_recompute(approx):
    T, f_max = 1.5, 2.0
    t = np.linspace(-2 * T, 2 * T, 4001)
    from rlimited.sincapprox import error_epsilon_B
    x = 2 * np.pi * t * (B / approx.B0)
    eps = 2 * B * np.abs(error_epsilon_B(approx, x))
    want = 2 * T * f_max * np.max(eps)
    assert P.discrete_repr_error_bound(approx, B, T, f_max) == want


def test_repr_error_bound_per_f_max(approx):
    # an array of f_max values: one eps_B evaluation, each entry the bits of
    # its own scalar call
    f_maxes = [2.0, 0.3, 7.0]
    many = P.discrete_repr_error_bound(approx, B, 1.5, f_maxes)
    assert list(many) == [P.discrete_repr_error_bound(approx, B, 1.5, f)
                          for f in f_maxes]


@pytest.mark.parametrize("Kc,M", [(0, 0), (2, 2), (3, 5)])
def test_nyquist_delta_train_recovery(Kc, M):
    rng = np.random.default_rng(5)
    f_k = rng.normal(size=2 * Kc + 1) + 1j * rng.normal(size=2 * Kc + 1)
    rep = P.nyquist_delta_train_check(f_k, M, Kc, B=1.0)
    assert rep["passed"]
    assert rep["max_abs_error"] < 1e-12 * 2.0
    assert np.allclose(rep["expected"], 2.0 * f_k)


def test_nyquist_guards():
    with pytest.raises(ValueError):
        P.nyquist_delta_train_check(np.ones(5), 1, 2)  # M < K
    with pytest.raises(ValueError):
        P.nyquist_delta_train_check(np.ones(4), 3, 2)  # wrong length


def test_interpolation_routes_collapse_at_resolving_band():
    M = 10
    Bu = (2 * M + 1) / 4.0
    q = uniform_rule(Bu, M)
    rng = np.random.default_rng(11)
    v = rng.normal(size=2 * M + 1) + 1j * rng.normal(size=2 * M + 1)
    t = np.linspace(-0.9, 0.9, 11)
    out_k = P.sampling_interpolation_1d(v, q, Bu, t, regularization="kernel")
    out_d = P.sampling_interpolation_1d(v, q, Bu, t, regularization="direct")
    basis = PR.pswf_kernel_eigensystem(q, Bu)
    out_s = P.sampling_interpolation_1d(v, q, Bu, t, basis=basis,
                                        regularization="spectral")
    assert np.max(np.abs(out_k - out_d)) < 1e-13
    assert np.max(np.abs(out_s - out_d)) < 1e-13
    # and all three are plain sinc interpolation of the samples
    om = np.asarray(q.nodes)
    plain = sum((4 * Bu / (2 * M + 1)) * v[k]
                * sinc(2 * np.pi * Bu * (t - om[k]))
                for k in range(2 * M + 1))
    assert np.max(np.abs(out_d - plain)) < 1e-13


def dense_sinc_interpolation(v, q, B, t, basis=None,
                             regularization="kernel", mu_min=1e-8):
    """The dense 1D formula the interpolation engine replaced:
    out(t) = sum_k a_k 2B sinc(2 pi B (t - w_k)) c_k with c = v / B
    (direct), the sinc Gram matrix applied to a v over B^2 (kernel), or the
    mu >= mu_min eigen-expansion with sum_m a_m |phi|^2 = B over B^2
    (spectral), all built whole."""
    om = np.asarray(q.nodes, dtype=float)
    al = np.asarray(q.weights, dtype=float) * (B / float(q.band))
    if regularization == "direct":
        c = v / B
    elif regularization == "kernel":
        gram = 2.0 * B * sinc(2.0 * np.pi * B * (om[:, None] - om[None, :]))
        c = gram.T @ (al * v) / B ** 2
    else:
        vecs = np.asarray(basis.eigenvectors)
        phi = vecs * np.sqrt(B / (al @ np.abs(vecs) ** 2))[None, :]
        mu = np.asarray(basis.eigenvalues_mu)
        keep = mu >= mu_min
        c = phi[:, keep] @ ((phi[:, keep].conj().T @ (al * v)) / mu[keep]) \
            / B ** 2
    t = np.asarray(t, dtype=float)
    kern = 2.0 * B * sinc(2.0 * np.pi * B * (t[..., None] - om))
    return kern @ (al * c)


@pytest.fixture(scope="module")
def rule200():
    return symmetrize(gauss_legendre_01(100), 5.0)


@pytest.mark.parametrize("regularization,samples", [
    ("kernel", "noise"), ("direct", "noise"), ("spectral", "train"),
    ("spectral", "noise")])
def test_interpolation_matches_the_dense_formula(rule200, regularization,
                                                 samples):
    # 4001 points x 200 nodes: the kernel sum runs in several blocks
    rng = np.random.default_rng(8)
    om = np.asarray(rule200.nodes)
    if samples == "noise":
        v = rng.normal(size=200) + 1j * rng.normal(size=200)
    else:   # a band-5 sinc train, the band-limited input the route is for
        tau, amp = rng.uniform(-0.8, 0.8, 12), rng.normal(size=12)
        v = np.sinc(5.0 * (om[:, None] - tau)) @ amp + 0j
    t = np.linspace(-1.0, 1.0, 4001)
    basis = None
    tol = 1e-14
    if regularization == "spectral":
        basis = PR.pswf_kernel_eigensystem(rule200, 5.0)
        mu = basis.eigenvalues_mu
        # both formulas round the projections onto the kept modes, and
        # 1/mu amplifies that: on white noise they differ by up to
        # eps / min mu (1.4e-10 to 1.0e-9 over seeds 0-8)
        tol = 1e-9 if samples == "train" \
            else np.finfo(float).eps / mu[mu >= 1e-8].min()
    kw = dict(basis=basis, regularization=regularization, mu_min=1e-8)
    got = P.sampling_interpolation_1d(v, rule200, 5.0, t, **kw)
    want = dense_sinc_interpolation(v, rule200, 5.0, t, **kw)
    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert err <= tol, err
    # a scalar t gives a Python complex, a 2-D t keeps its shape
    one = P.sampling_interpolation_1d(v, rule200, 5.0, 0.3, **kw)
    assert type(one) is complex
    assert abs(one - dense_sinc_interpolation(v, rule200, 5.0, 0.3, **kw)) \
        <= tol * np.max(np.abs(want))
    grid = P.sampling_interpolation_1d(v, rule200, 5.0, t[:4000].reshape(
        80, 50), **kw)
    assert grid.shape == (80, 50)
    assert np.array_equal(grid.ravel(), P.sampling_interpolation_1d(
        v, rule200, 5.0, t[:4000], **kw))


def test_interpolation_memory_on_4001_points(rule200):
    # the dense route held the 4001 x 200 sinc matrix and its temporaries
    # (37.4 MiB); the blocked kernel sum stays well below
    v = np.random.default_rng(8).normal(size=200) + 0j
    t = np.linspace(-1.0, 1.0, 4001)
    tracemalloc.start()
    try:
        P.sampling_interpolation_1d(v, rule200, 5.0, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 * 2 ** 20, peak / 2 ** 20


def test_scaled_wrapper_identities(freq_rule):
    T = 2.5
    # support scaling: f_B(t) = g_{BT}(t/T) for g(u) = f(Tu)
    f = lambda s: np.exp(-s * s) * np.cos(1.7 * s)
    g = lambda u: f(T * u)
    for tt in (0.3, -1.1):
        lhs = P.bandlimited_projection_oracle(f, B, tt, support=(-T, T))
        rhs = P.bandlimited_projection_oracle(g, B * T, tt / T)
        assert abs(lhs - rhs) < 1e-9


def test_interpolation_input_guards(freq_rule):
    v = np.zeros(len(freq_rule.nodes), dtype=complex)
    with pytest.raises(ValueError):
        P.sampling_interpolation_1d(v, freq_rule, B, 0.0,
                                    regularization="tikhonov")
    with pytest.raises(ValueError):
        P.sampling_interpolation_1d(v, freq_rule, B, 0.0,
                                    regularization="spectral")
    with pytest.raises(ValueError):
        P.sampling_interpolation_1d(v[:-1], freq_rule, B, 0.0)
    from rlimited.moments import gauss_legendre_01
    with pytest.raises(ValueError):
        P.sampling_interpolation_1d(np.zeros(4), gauss_legendre_01(4), B,
                                    0.0)
    # SampledField input equals the plain-array call
    om = np.asarray(freq_rule.nodes)
    rng = np.random.default_rng(2)
    vals = rng.normal(size=len(om)) + 0j
    fld = SampledField(PointSet(om[:, None]), vals)
    t = np.linspace(-0.5, 0.5, 5)
    a1 = P.sampling_interpolation_1d(fld, freq_rule, B, t)
    a2 = P.sampling_interpolation_1d(vals, freq_rule, B, t)
    assert np.array_equal(a1, a2)
    bad = SampledField(PointSet(om[:, None] + 0.1), vals)
    with pytest.raises(ValueError):
        P.sampling_interpolation_1d(bad, freq_rule, B, t)


@pytest.mark.parametrize("regularization", ["direct", "kernel", "spectral"])
def test_ra_reduces_to_1d_interpolation(freq_rule, regularization):
    kern = P.expsum_kernel(freq_rule)
    rng = np.random.default_rng(11)
    v = rng.normal(size=len(freq_rule.nodes)) \
        + 1j * rng.normal(size=len(freq_rule.nodes))
    t = np.linspace(-0.8, 0.8, 7)
    spectral = regularization == "spectral"
    # 1/mu amplifies rounding in the spectral route, so it keeps only
    # modes with mu >= 1e-4 and is held to a relative bound
    kw = dict(regularization=regularization, mu_min=1e-4)
    one_d = P.sampling_interpolation_1d(
        v, freq_rule, B, t,
        basis=PR.pswf_kernel_eigensystem(freq_rule, B) if spectral else None,
        **kw)
    ra = P.ra_sampling_interpolation(
        v, kern, np.array([[np.sqrt(B)]]), (np.sqrt(B) * t)[:, None],
        basis=PR.rslepian_kernel_eigensystem(kern) if spectral else None,
        **kw)
    err = np.max(np.abs(ra.field.values - one_d))
    if spectral:
        assert err < 1e-11 * np.max(np.abs(one_d)), err
    else:
        assert err < 1e-13, err


def test_ra_guards(freq_rule):
    kern = P.expsum_kernel(freq_rule)
    v = np.zeros(len(kern.nodes), dtype=complex)
    with pytest.raises(ValueError):
        P.ra_sampling_interpolation(v, kern, np.eye(2), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        P.ra_sampling_interpolation(v, kern, np.array([[0.0]]),
                                    np.zeros((1, 1)))
    with pytest.raises(ValueError):  # A^T A != band
        P.ra_sampling_interpolation(v, kern, np.array([[1.0]]),
                                    np.zeros((1, 1)))
    with pytest.raises(ValueError):
        P.ra_sampling_interpolation(v[:-1], kern,
                                    np.array([[np.sqrt(B)]]),
                                    np.zeros((1, 1)))
    with pytest.raises(ValueError):
        P.ra_sampling_interpolation(v, kern, np.array([[np.sqrt(B)]]),
                                    np.zeros((1, 1)),
                                    regularization="spectral")


def test_ra_spectral_recovers_in_span_function():
    tq = K.triangle_quadrature(TRI, 6, 6, target_box=((-0.6, 0.6),) * 2,
                               profile_grid=0)
    kern = P.expsum_kernel(tq)
    basis = PR.rslepian_kernel_eigensystem(kern)
    y0 = np.array([0.07, -0.04])
    f = lambda p: K.k_triangle(TRI, (p - y0)[..., 0], (p - y0)[..., 1])
    v = f(kern.nodes)
    X = np.random.default_rng(3).uniform(-0.2, 0.2, (9, 2))
    truth = f(X)
    scale = np.max(np.abs(truth))
    errs = {}
    for mm in (1e-2, 1e-6):
        rec = P.ra_sampling_interpolation(v, kern, np.eye(2), X,
                                          basis=basis,
                                          regularization="spectral",
                                          mu_min=mm)
        errs[mm] = np.max(np.abs(rec.field.values - truth)) / scale
    assert errs[1e-6] < 1e-3, errs
    assert errs[1e-6] < 0.01 * errs[1e-2], errs


def test_patched_is_the_sum_of_parts():
    tq = K.triangle_quadrature(TRI, 4, 4, target_box=((-0.6, 0.6),) * 2,
                               profile_grid=21)
    kern = P.expsum_kernel(tq)
    I2 = np.eye(2)
    rng = np.random.default_rng(3)
    n = len(kern.nodes)
    v1 = rng.normal(size=n) + 1j * rng.normal(size=n)
    v2 = rng.normal(size=n) + 1j * rng.normal(size=n)
    X = rng.uniform(-0.4, 0.4, (9, 2))
    single = P.patched_projection([(I2, kern)], v1, X)
    ra1 = P.ra_sampling_interpolation(v1, kern, I2, X)
    assert np.array_equal(single.field.values, ra1.field.values)
    parts = [(I2, kern), (-I2, kern)]
    both = P.patched_projection(parts, np.concatenate([v1, v2]), X)
    ra2 = P.ra_sampling_interpolation(v2, kern, -I2, X)
    assert np.max(np.abs(both.field.values
                         - (ra1.field.values + ra2.field.values))) == 0.0
    assert both.error_bound == ra1.error_bound + ra2.error_bound
    sites = P.patched_sample_points(parts)
    assert np.array_equal(sites, np.vstack([kern.nodes, -kern.nodes]))
    with pytest.raises(ValueError):
        P.patched_projection(parts, v1, X)  # sample count mismatch
    with pytest.raises(ValueError):
        P.patched_projection([], v1, X)
    with pytest.raises(ValueError):
        P.patched_sample_points([])


def test_rlimited_discrete_fourier_1d(freq_rule):
    # taper vanishing at the support edge keeps the trapezoid spectrum
    # clean, so the measured error sits near the kernel-term bound
    f = lambda s: np.cos(np.pi * s / 2) ** 2 * np.cos(1.7 * s)
    grid = make_grid([-1.0], [1.0], [801])
    fld = SampledField(grid, f(grid.points[:, 0]).astype(complex))
    ts = np.linspace(-0.9, 0.9, 7)
    kern = P.expsum_kernel(freq_rule)
    box = P.needed_base_box(kern, ts[:, None], [(-1.0, 1.0)])
    kern = P.measure_kernel_profile(kern, box, grid_n=1001)
    res = P.rlimited_discrete_fourier(fld, kern, ts[:, None])
    orc = P.bandlimited_projection_oracle(f, B, ts)
    assert np.max(np.abs(res.field.values - orc)) < 1e-10
    assert res.error_bound < 1e-13
    assert res.provenance["route"] == "discrete-fourier"
    assert res.provenance["grid_shape"] == [801]


def dense_grid_fhat(f, xi):
    """The dense route the per-axis contraction replaced: one exponential
    per node and grid point, each point weighted by the product of its
    per-axis trapezoid weights."""
    pts = f.points.points
    wg = np.ones(len(pts))
    for d in range(pts.shape[1]):
        ax = np.unique(pts[:, d])
        wg = wg * P._trapezoid_weights(ax)[np.searchsorted(ax, pts[:, d])]
    return np.exp(-2j * np.pi * (pts @ xi.T)).T @ (wg * f.values)


def _fhat_case(case):
    """(field, nodes) with the field's rows in a seeded random order."""
    rng = np.random.default_rng(4)
    if case.startswith("triangle"):
        W, M = 0.3, int(case[len("triangle-M"):])
        pts = make_grid([-W, -W], [W, W], [161, 161]).points
        vals = (np.cos(np.pi * pts[:, 0] / (2 * W)) ** 2
                * np.cos(np.pi * pts[:, 1] / (2 * W)) ** 2
                * np.cos(2 * np.pi * (0.31 * pts[:, 0] - 0.47 * pts[:, 1])))
        q = K.triangle_quadrature(TRI, M, M, target_box=((-W, W),) * 2,
                                  profile_grid=0)
        xi = P.expsum_kernel(q).scaled_nodes()
    else:
        if case == "3d":
            pts = make_grid([-1.0, -0.5, 0.0], [1.0, 0.5, 2.0],
                            [9, 7, 5]).points
        else:       # a length-1 first axis, 250 nodes in three blocks
            yz = make_grid([-0.4, 0.0], [0.4, 0.6], [200, 201]).points
            pts = np.column_stack([np.full(len(yz), 0.25), yz])
        vals = rng.normal(size=len(pts)) + 1j * rng.normal(size=len(pts))
        xi = rng.normal(size=(60 if case == "3d" else 250, 3))
    perm = rng.permutation(len(pts))
    return SampledField(PointSet(pts[perm]),
                        np.asarray(vals, dtype=complex)[perm]), xi


@pytest.mark.parametrize("case", ["triangle-M3", "triangle-M4",
                                  "triangle-M8", "3d", "length-1-axis"])
def test_grid_fhat_matches_the_dense_route(case):
    fld, xi = _fhat_case(case)
    got, axes = P._grid_fhat(fld, xi)
    want = dense_grid_fhat(fld, xi)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert [len(ax) for ax in axes] == [len(np.unique(c))
                                        for c in fld.points.points.T]


def test_rlimited_coverage_guards(freq_rule):
    f = lambda s: np.cos(np.pi * s / 2) ** 2
    grid = make_grid([-1.0], [1.0], [201])
    fld = SampledField(grid, f(grid.points[:, 0]).astype(complex))
    ts = np.linspace(-0.9, 0.9, 5)
    bare = P.expsum_kernel(freq_rule)
    with pytest.raises(ValueError):  # no profile recorded at all
        P.rlimited_discrete_fourier(fld, bare, ts[:, None])
    small = P.measure_kernel_profile(bare, [[-1.0, 1.0]], grid_n=31)
    with pytest.raises(ValueError):  # profile box too small
        P.rlimited_discrete_fourier(fld, small, ts[:, None])
    wide = P.measure_kernel_profile(
        bare, P.needed_base_box(bare, ts[:, None], [(-1.0, 1.0)]),
        grid_n=31)
    res = P.rlimited_discrete_fourier(fld, wide, ts[:, None])
    assert len(res.field.values) == len(ts)
    # 1D kernels accept bare scalars and flatten any array shape
    one = P.rlimited_discrete_fourier(fld, wide, 0.3)
    assert one.provenance["scalar_input"] and len(one.field.values) == 1
    flat = P.rlimited_discrete_fourier(fld, wide, np.zeros((2, 2)))
    assert len(flat.field.values) == 4


def test_needed_base_box_covers_all_differences(freq_rule):
    kern = P.expsum_kernel(freq_rule)
    ts = np.linspace(-0.9, 0.9, 7)
    box = P.needed_base_box(kern, ts[:, None], [(-1.0, 1.0)])
    diffs = (ts[:, None, None]
             - np.linspace(-1, 1, 201)[None, :, None]).reshape(-1, 1)
    mapped = diffs @ kern.band
    assert box[0][0] <= mapped.min() and mapped.max() <= box[0][1]
    assert abs(box[0][0] - mapped.min()) < 1e-12
    assert abs(box[0][1] - mapped.max()) < 1e-12


def test_measure_kernel_profile_recompute(freq_rule):
    kern = P.measure_kernel_profile(P.expsum_kernel(freq_rule),
                                    [[-2.0, 2.0]], grid_n=201)
    prof = kern.provenance["error_profile"]
    Y = np.linspace(-2.0, 2.0, 201)[:, None]
    exact = kern.det_band() * np.asarray(
        P.region_kernel_exact(kern.region, Y[:, 0]))
    X = Y @ np.linalg.inv(kern.band)
    direct = float(np.max(np.abs(kern.eval_sum(X) - exact)))
    assert prof["max_err"] == direct


def test_expsum_kernel_json_round_trip(freq_rule):
    kern = P.measure_kernel_profile(P.expsum_kernel(freq_rule),
                                    [[-2.0, 2.0]], grid_n=51)
    doc = json.loads(json.dumps(K.quadrature_nd_to_json(kern)))
    assert doc["band"] == [[B]]
    back = K.quadrature_nd_from_json(doc)
    assert np.array_equal(back.weights, kern.weights)
    assert np.array_equal(back.nodes, kern.nodes)
    assert np.array_equal(back.band, kern.band)
    assert back.region == kern.region
    assert back.provenance["error_profile"]["max_err"] \
        == kern.provenance["error_profile"]["max_err"]


def test_expsum_kernel_guards(freq_rule):
    with pytest.raises(TypeError):
        P.expsum_kernel([1, 2, 3])
    from rlimited.moments import gauss_legendre_01
    with pytest.raises(ValueError):
        P.expsum_kernel(gauss_legendre_01(4))
    # a node outside the declared region is refused
    with pytest.raises(ValueError):
        K.QuadratureND(weights=np.array([1.0]), nodes=np.array([[2.0]]),
                       region=K.interval_region(),
                       band=np.array([[1.0]]))
    # a band is attached once
    with pytest.raises(ValueError):
        P.expsum_kernel(P.expsum_kernel(freq_rule), band=[[1.0]])
