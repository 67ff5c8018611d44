"""Verify-suite oracles against independent references, the suites that
build each table once against their per-iteration route, and NaN
measurements failing their rows."""
from math import lgamma, log
from types import SimpleNamespace

import numpy as np
import pytest

from rlimited import kernels, verify
from rlimited.kernels import (ConeSpec, TriangleSpec, k_cone, k_triangle,
                              tilde_k_cone, triangle_quadrature,
                              triangle_scaling_refine)
from rlimited.moments import (chebyshev_rule_for_j0, gauss_legendre_01,
                              preset_moments, solve_moment_problem)
from rlimited.numkit import SampledField, make_grid
from rlimited.projection import (bandlimited_projection_oracle,
                                 discrete_fourier_repr_1d,
                                 discrete_repr_error_bound, expsum_kernel,
                                 rlimited_discrete_fourier)
from rlimited.sincapprox import build_sinc_cosine_approx, frequency_rule
from rlimited.verify import (_cosine_f, _cosine_fhat, _cosine_profile,
                             _cosines, _interval_projection, _row,
                             _wedge_projection)

B = 2.0
W = 0.3
SPEC = TriangleSpec(0.8, 0.7)


def test_interval_oracle_matches_adaptive_quad():
    ts = np.linspace(-1.0, 1.0, 41)
    rng = np.random.default_rng(11)       # the projection suite's profiles
    profiles = [_cosine_profile(rng) for _ in range(3)]
    for terms, got in zip(profiles, _interval_projection(profiles, B, ts)):
        ref = bandlimited_projection_oracle(
            lambda s: _cosine_f(terms, s, _cosines([terms], s)), B, ts)
        assert np.max(np.abs(got - ref)) <= 5e-15


def test_interval_oracle_matches_mpmath():
    import mpmath

    ts = (-1.0, -0.35, 0.0, 1.0)
    profiles = [((0.7, -1.3, 0.4), (0, 3, 6)), ((1.1, 0.5), (2, 5))]
    rows = _interval_projection(profiles, B, np.array(ts))
    for (cs, ks), got in zip(profiles, rows):
        with mpmath.workdps(30):
            for t, g in zip(ts, got):
                def h(s):
                    fs = sum(mpmath.mpf(c) * mpmath.cos(mpmath.pi * k * s)
                             for c, k in zip(cs, ks))
                    return fs * 2 * B * mpmath.sinc(2 * mpmath.pi * B * (t - s))

                cuts = [-1, t, 1] if -1.0 < t < 1.0 else [-1, 1]
                assert abs(g - float(mpmath.quad(h, cuts))) <= 2e-15, t


def taper_cosine(a_vec, s1, s2):
    """The projection suite's planar profiles on [-W, W]^2."""
    taper = (np.cos(np.pi * s1 / (2 * W)) ** 2
             * np.cos(np.pi * s2 / (2 * W)) ** 2)
    return taper * np.cos(2 * np.pi * (a_vec[0] * s1 + a_vec[1] * s2))


def spatial_wedge_projection(a_vecs, x):
    """The spatial oracle the frequency-side one replaced: int_X f(s)
    K(x - s) ds by an 80^2 Gauss product rule over X = [-W, W]^2, with K
    the closed-form wedge kernel k_triangle."""
    gl_x, gl_w = np.polynomial.legendre.leggauss(80)
    S1, S2 = np.meshgrid(W * gl_x, W * gl_x, indexing="ij")
    wfs = np.array([np.outer(W * gl_w, W * gl_w).ravel()
                    * taper_cosine(a, S1, S2).ravel() for a in a_vecs])
    out = np.empty((len(a_vecs), len(x)), complex)
    for i, xp in enumerate(x):
        out[:, i] = wfs @ k_triangle(SPEC, xp[0] - S1.ravel(),
                                     xp[1] - S2.ravel())
    return out


@pytest.fixture(scope="module")
def planar_profiles():
    """The projection suite's five planar profiles at its default seed,
    and its 21^2 evaluation grid."""
    rng = np.random.default_rng(11)
    for _ in range(20):                  # the interval route draws first
        _cosine_profile(rng)
    a_vecs = [rng.uniform(-0.6, 0.6, 2) for _ in range(5)]
    return a_vecs, make_grid([-W, -W], [W, W], [21, 21]).points


def test_wedge_oracle_matches_the_spatial_oracle(planar_profiles):
    # Both are float64 quadratures at their rounding floor: at 21 points of
    # one profile, a 30-digit evaluation of the same integral puts each
    # within 1.6e-17 of the truth on a 0.036 scale.  They differ by up to
    # 1.3e-15 of that scale, so 1e-15 would test rounding noise.
    a_vecs, epts = planar_profiles
    new = _wedge_projection(SPEC, W, a_vecs, epts)
    old = spatial_wedge_projection(a_vecs, epts)
    for got, ref in zip(new, old):
        assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref))


def test_planar_projection_within_its_bound(planar_profiles):
    # the 2D M=3 route of the projection suite, measured against the
    # frequency-side oracle
    a_vecs, epts = planar_profiles
    kern = expsum_kernel(triangle_quadrature(SPEC, 3, 3,
                                             target_box=((-W, W),) * 2))
    grid = make_grid([-W, -W], [W, W], [161, 161])
    g = grid.points
    oracle = _wedge_projection(SPEC, W, a_vecs, epts)
    for a_vec, orc in zip(a_vecs, oracle):
        fld = SampledField(grid, taper_cosine(a_vec, g[:, 0], g[:, 1])
                           .astype(complex))
        res = rlimited_discrete_fourier(fld, kern, epts)
        assert np.max(np.abs(res.field.values - orc)) <= res.error_bound
        assert res.provenance["grid_shape"] == [161, 161]


# ------------------------------------------- one evaluation per oracle value

def per_iteration_projection_rows(seed):
    """The projection suite's rows as its per-iteration route made them:
    the bound taken again for every profile, 4001 eps_B points each."""
    rng = np.random.default_rng(11 if seed is None else int(seed))
    B, T, M = 2.0, 1.0, 10
    a = build_sinc_cosine_approx(B, M)
    q = frequency_rule(a)
    ts = np.linspace(-T, T, 41)
    worst_ratio = 0.0
    for _ in range(20):
        terms = _cosine_profile(rng)
        t_max = np.linspace(-1, 1, 2001)
        f_max = float(np.max(np.abs(_cosine_f(terms, t_max,
                                              _cosines([terms], t_max)))))
        vals = discrete_fourier_repr_1d(_cosine_fhat(terms, B * q.nodes),
                                        q, B, ts)
        oracle = _interval_projection([terms], B, ts)[0]
        err = float(np.max(np.abs(vals - oracle)))
        worst_ratio = max(worst_ratio,
                          err / discrete_repr_error_bound(a, B, T, f_max))
    rows = [_row("interval projection error within bound (x20)",
                 1.0, worst_ratio)]
    spec = TriangleSpec(0.8, 0.7)
    kern = expsum_kernel(triangle_quadrature(spec, 3, 3,
                                             target_box=((-W, W), (-W, W))))
    samples = make_grid([-W, -W], [W, W], [161, 161])
    s1, s2 = samples.points.T
    epts = make_grid([-W, -W], [W, W], [21, 21]).points
    a_vecs = [rng.uniform(-0.6, 0.6, 2) for _ in range(5)]
    worst2 = 0.0
    for a_vec, orc in zip(a_vecs, _wedge_projection(spec, W, a_vecs, epts)):
        res = rlimited_discrete_fourier(SampledField(
            samples, taper_cosine(a_vec, s1, s2).astype(complex)), kern, epts)
        err = float(np.max(np.abs(res.field.values - orc)))
        worst2 = max(worst2, err / res.error_bound)
    rows.append(_row("region projection error within bound (x5)",
                     1.0, worst2))
    return rows


def per_iteration_triangle_rows(seed):
    """The triangle-kernel suite's rows as its per-iteration route made
    them: k_triangle taken again at every level, 44 calls."""
    rng = np.random.default_rng(7 if seed is None else int(seed))
    spec = SPEC
    xs = rng.uniform(-3, 3, 1000)
    ys = rng.uniform(-3, 3, 1000)
    K_full = k_triangle(spec, xs, ys)
    out = triangle_scaling_refine(spec, xs, ys,
                                  (k_triangle(spec, xs / 2, ys / 2),
                                   k_triangle(spec, -xs / 2, ys / 2)))
    den = np.maximum(np.abs(K_full), 1e-6 * spec.area)
    rows = [_row("half-argument identity (rel, x1000)", 1e-12,
                 float(np.max(np.abs(out - K_full) / den)))]
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
    g1 = np.linspace(box[0][0], box[0][1], 41)
    GX, GY = np.meshgrid(g1, g1, indexing="ij")
    X, Y = GX.ravel(), GY.ravel()
    worst_viol, worst_final = -np.inf, 0.0
    for m in range(1, 6):
        sc = 2.0 ** m
        Vp = q.eval_grid((g1 / sc, g1 / sc)).ravel()
        Vm = q.eval_grid((-g1 / sc, g1 / sc)).ravel()
        Ep = np.abs(Vp - k_triangle(spec, X / sc, Y / sc))
        Em = np.abs(Vm - k_triangle(spec, -X / sc, Y / sc))
        for j in range(1, m + 1):
            s2 = 2.0 ** (m - j)
            xj, yj = X / s2, Y / s2
            Vp_new = triangle_scaling_refine(spec, xj, yj, (Vp, Vm))
            Vm_new = triangle_scaling_refine(spec, -xj, yj, (Vm, Vp))
            Ep_new = np.abs(Vp_new - k_triangle(spec, xj, yj))
            Em_new = np.abs(Vm_new - k_triangle(spec, -xj, yj))
            worst_viol = max(worst_viol,
                             float(np.max(Ep_new - 0.25 * (3 * Ep + Em))),
                             float(np.max(Em_new - 0.25 * (3 * Em + Ep))))
            Vp, Vm, Ep, Em = Vp_new, Vm_new, Ep_new, Em_new
        worst_final = max(worst_final, float(Ep.max()))
    rows.append(_row("refined error within quarter-combination bound",
                     1e-12 * spec.area, worst_viol))
    rows.append(_row("refined grid error vs level-0 profile",
                     prof["max_err"] + 1e-12, worst_final))
    return rows


def per_iteration_moment_rows():
    """The moment suite's rows as its per-iteration route made them: one
    np.sum per moment, 2,112 in all."""
    worst_gl = 0.0
    for M in range(1, 33):
        q = gauss_legendre_01(M)
        for n in range(2 * M):
            h = float(np.sum(q.weights * q.nodes ** (2 * n)))
            worst_gl = max(worst_gl, abs(h - 1.0 / (2 * n + 1)))
    worst_ch = 0.0
    for M in range(1, 33):
        q = chebyshev_rule_for_j0(M)
        for n in range(2 * M):
            target = np.exp(lgamma(2 * n + 1) - 2 * (n * log(2.0)
                                                     + lgamma(n + 1)))
            h = float(np.sum(q.weights * q.nodes ** (2 * n)))
            worst_ch = max(worst_ch, abs(h - target))
    return [_row("half-gauss-legendre even moments", 1e-13, worst_gl),
            _row("cosine-power even moments", 1e-13, worst_ch)]


def per_iteration_cone_window_row():
    """The cone-ball suite's windowed row as its per-iteration route made
    it: k_cone and tilde_k_cone called once per time, 21 points each."""
    spec = ConeSpec(1.0, 1.0, 2)
    rule = solve_moment_problem(preset_moments("j1_cosinc", 1.0, 11), 6)
    T_w = R_w = 6.0
    nt = nr = 21
    ts = np.linspace(0.0, T_w, nt)
    rs = np.linspace(R_w / nr, R_w, nr)
    err2 = np.empty((nt, nr))
    for i, t in enumerate(ts):
        Ko = k_cone(spec, np.full(nr, t), rs)
        Ks = tilde_k_cone(spec, rule, np.full(nr, t), rs)
        err2[i] = np.abs(Ko - Ks) ** 2
    wt = np.ones(nt)
    wt[0] = wt[-1] = 0.5
    wt *= T_w / (nt - 1)
    wr = np.ones(nr)
    wr[0] = wr[-1] = 0.5
    wr *= (R_w - R_w / nr) / (nr - 1)
    window = 2.0 * float(np.einsum("i,j,ij->", wt, wr * 2 * np.pi * rs, err2))
    return _row("windowed squared error within level (x1.05)",
                1.05 * kernels.cone_ls_error(spec, rule), window)


_BUILDERS = ("equilateral_symmetric_quadrature",
             "tetra_symmetric_quadrature", "cone_quadrature",
             "ball_quadrature")


def profiled_route_rows(monkeypatch, suite, seed):
    """A suite's rows with its clouds built at the builders' default
    profile_grid, so each build measures its error profile again."""
    with monkeypatch.context() as mp:
        for name in _BUILDERS:
            build = getattr(verify, name)
            mp.setattr(verify, name,
                       lambda *a, build=build, **kw: build(*a))
        return suite(seed=seed)


def counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *a, **kw: calls.append(1) or fn(*a, **kw))
    return calls


def without_runtime(rows):
    return [r for r in rows if "runtime" not in r["name"]]


@pytest.mark.parametrize("seed", [None, 7919])
def test_projection_and_triangle_rows_match_the_per_iteration_route(seed):
    assert (without_runtime(verify.check_projection_bounds(seed=seed))
            == per_iteration_projection_rows(seed))
    assert (without_runtime(verify.check_triangle_kernel(seed=seed))
            == per_iteration_triangle_rows(seed))


def test_moment_and_cone_window_rows_match_the_per_iteration_route():
    assert (without_runtime(verify.check_moment_exactness())
            == per_iteration_moment_rows())
    window = per_iteration_cone_window_row()
    assert [r for r in verify.check_cone_ball()
            if r["name"] == window["name"]] == [window]


@pytest.mark.parametrize("suite", ["symmetry", "cone-ball"])
@pytest.mark.parametrize("seed", [None, 7919])
def test_profile_free_rows_match_the_profiled_route(monkeypatch, suite,
                                                    seed):
    check = verify.SUITES[suite]
    calls = counting(monkeypatch, kernels, "_measured_profile")
    old = profiled_route_rows(monkeypatch, check, seed)
    assert len(calls) == 2          # one profile per cloud the suite builds
    del calls[:]
    assert check(seed=seed) == old
    assert calls == []              # no row reads a profile


def test_triangle_suite_evaluates_each_closed_form_argument_once(
        monkeypatch):
    # 4 calls before the refinement, then (+-X, Y) / 2^e for e = 0..5; the
    # per-iteration route made 44
    calls = counting(monkeypatch, verify, "k_triangle")
    verify.check_triangle_kernel()
    assert len(calls) <= 16, len(calls)


# ------------------------------------------ a NaN measurement fails its row

def poisoned_on_third_call(monkeypatch, name, poison):
    """Make verify.<name> hand back poison(its result) on its third call."""
    fn = getattr(verify, name)
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(1)
        out = fn(*args, **kwargs)
        return poison(out) if len(calls) == 3 else out
    monkeypatch.setattr(verify, name, wrapped)


def nan_like(values):
    return np.full_like(values, np.nan)


@pytest.mark.parametrize("suite, name, poison, row", [
    ("projection", "discrete_fourier_repr_1d", nan_like,
     "interval projection error within bound (x20)"),
    ("nyquist", "nyquist_delta_train_check",
     lambda rep: {**rep, "max_abs_error": float("nan")},
     "delta-train lattice reconstruction"),
    ("lattice", "error_epsilon_B", nan_like,
     "error lattice match across bands"),
    ("moments", "gauss_legendre_01",
     lambda q: SimpleNamespace(nodes=q.nodes, weights=nan_like(q.weights)),
     "half-gauss-legendre even moments"),
], ids=["interval", "nyquist", "lattice", "moments"])
def test_a_nan_measurement_fails_its_row(monkeypatch, suite, name, poison,
                                         row):
    # the builtin max keeps its running value when a later one is NaN,
    # which read each of these rows as a pass
    poisoned_on_third_call(monkeypatch, name, poison)
    got = [r for r in verify.SUITES[suite]() if r["name"] == row]
    assert len(got) == 1
    assert np.isnan(got[0]["value_measured"]) and got[0]["pass"] is False
