"""Verify-suite oracles against independent references."""
import numpy as np
import pytest

from rlimited.kernels import TriangleSpec, k_triangle, triangle_quadrature
from rlimited.numkit import SampledField, make_grid
from rlimited.projection import (bandlimited_projection_oracle,
                                 expsum_kernel, rlimited_discrete_fourier)
from rlimited.verify import (_cosine_profile, _interval_projection,
                             _wedge_projection)

B = 2.0
W = 0.3
SPEC = TriangleSpec(0.8, 0.7)


def test_interval_oracle_matches_adaptive_quad():
    ts = np.linspace(-1.0, 1.0, 41)
    rng = np.random.default_rng(11)       # the projection suite's profiles
    for _ in range(3):
        f, _, _ = _cosine_profile(rng)
        got = _interval_projection(f, B, ts)
        ref = bandlimited_projection_oracle(f, B, ts)
        assert np.max(np.abs(got - ref)) <= 5e-15


def test_interval_oracle_matches_mpmath():
    import mpmath

    ts = (-1.0, -0.35, 0.0, 1.0)
    for cs, ks in (((0.7, -1.3, 0.4), (0, 3, 6)), ((1.1, 0.5), (2, 5))):
        def f(s):
            s = np.asarray(s, dtype=float)
            out = sum(c * np.cos(np.pi * k * s) for c, k in zip(cs, ks))
            return np.where(np.abs(s) <= 1.0, out, 0.0)

        got = _interval_projection(f, B, np.array(ts))
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
