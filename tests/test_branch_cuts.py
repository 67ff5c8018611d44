"""Series/direct branch cuts of the closed-form kernels and of
power_exp_integral, against mpmath.

Each switch is probed just below and just above its cut: both sides must
match an mpmath value of the defining integral, and so agree with each
other.  The references integrate the region slice by slice (a sinc across
the wedge, a ball or a segment per cone frequency) rather than reusing
the closed forms.  The ball kernel is swept over shells across its cut.
Also K(-x) = conj K(x) and K(0) = |R| for each closed form.
"""
import math

import mpmath as mp
import numpy as np
import pytest

from rlimited import kernels as K
from rlimited import power_exp_integral, preset_moments, solve_moment_problem
from rlimited.kernels import _DQ_CUT, _PHI_TAYLOR_CUT

TWO_PI = 2.0 * math.pi
# a few ulps either side of a cut: the switch is crossed, while the
# kernels themselves move by well under 1e-15 between the two points
BELOW, ABOVE = 1.0 - 1e-14, 1.0 + 1e-14
# Series branches hold 1e-14.  The direct difference quotient just above
# |b| = 1e-3 divides cosinc's own rounding (an ulp or two) by 2b, which
# leaves up to about 1e-13 on the wedge and n=1 cone kernels there.
SERIES_TOL = 1e-14
DIRECT_TOL = 3e-13

TRI = K.TriangleSpec(0.8, 0.7)
TET = K.TetraSpec(0.7, 0.9, 1.3)
CONE1 = K.ConeSpec(0.9, 0.8, 1)
CONE2 = K.ConeSpec(0.9, 0.8, 2)
CONE3 = K.ConeSpec(0.9, 0.8, 3)


def mp_triangle(spec, x, y):
    # int_0^dp e^{i 2 pi kx x} (2 s kx) sinc(2 pi s kx y) dkx
    with mp.workdps(30):
        s, x, y = mp.mpf(spec.s), mp.mpf(x), mp.mpf(y)
        return complex(mp.quad(
            lambda kx: mp.expj(2 * mp.pi * kx * x) * 2 * s * kx
            * mp.sinc(2 * mp.pi * s * kx * y), [0, mp.mpf(spec.dp)]))


def mp_tetra(spec, x, y, z):
    # the slice kz of the tetrahedral wedge is a wedge of depth dp kz:
    # int_0^L e^{i al ky} (2 s / be) sin(be ky) dky with al = 2 pi y,
    # be = 2 pi s x, integrated in closed form, then over kz numerically
    with mp.workdps(30):
        s, x, y, z = (mp.mpf(v) for v in (spec.s, x, y, z))
        al, be = 2 * mp.pi * y, 2 * mp.pi * s * x

        def seg(u, L):          # int_0^L e^{i u k} dk
            return L if u == 0 else (mp.expj(u * L) - 1) / (1j * u)

        def wedge(kz):
            L = mp.mpf(spec.dp) * kz
            return s / (1j * be) * (seg(al + be, L) - seg(al - be, L))
        return complex(mp.quad(lambda kz: mp.expj(2 * mp.pi * kz * z)
                               * wedge(kz), [0, mp.mpf(spec.h)]))


def mp_cone(spec, t, r):
    # the slice at frequency w is a segment (n=1) or ball (n=3) of radius
    # |w| pmax; the cone is symmetric in w, so only cos(2 pi w t) remains
    with mp.workdps(30):
        p, t, r = mp.mpf(spec.pmax), mp.mpf(t), mp.mpf(r)

        def slice_kernel(w):
            R = w * p
            u = 2 * mp.pi * R * r
            if spec.n == 1:
                return 2 * R * mp.sinc(u)
            return 4 * mp.pi * R ** 3 * (mp.sin(u) - u * mp.cos(u)) / u ** 3
        return complex(2 * mp.quad(lambda w: mp.cos(2 * mp.pi * w * t)
                                   * slice_kernel(w),
                                   [0, mp.mpf(spec.omega0)]))


def mp_ball(k_max, x):
    # (sin u - u cos u)/(2 pi^2 r^3), u = 2 pi k_max r, at 40 digits: the
    # difference cancels to u^3/3, which costs 15 of them at u = 1e-5
    with mp.workdps(40):
        r = mp.sqrt(sum(mp.mpf(float(c)) ** 2 for c in np.atleast_1d(x)))
        u = 2 * mp.pi * mp.mpf(k_max) * r
        return float((mp.sin(u) - u * mp.cos(u)) / (2 * mp.pi ** 2 * r ** 3))


def mp_tilde(spec, rule, t, r):
    # the surrogate's sinc form, summed with 30 digits so the small-r
    # cancellation costs nothing
    alpha, gamma = K.j1_expansion_from_rule(rule)
    with mp.workdps(30):
        w0, p, t, r = (mp.mpf(v) for v in (spec.omega0, spec.pmax, t, r))
        at = 2 * mp.pi * w0 * t
        acc = 0
        for am, gm in zip(alpha, gamma):
            c = 2 * mp.pi * w0 * mp.mpf(gm) * p * r
            acc += (mp.mpf(am) / mp.mpf(gm)) * (
                mp.sinc(at) - (mp.sinc(c - at) + mp.sinc(c + at)) / 2)
        return float(w0 / mp.pi * acc / r ** 2)


def mp_power_exp_integral(k, z):
    with mp.workdps(30):
        return complex(mp.quad(lambda v: v ** k * mp.exp(mp.mpc(z) * v),
                               [0, 1]))


@pytest.fixture(scope="module")
def j1_rule():
    return solve_moment_problem(preset_moments("j1_cosinc", 1.0, 11), 6)


def _check_cut(kernel, reference, points_below, points_above, tol_below,
               tol_above):
    got_b = [kernel(*p) for p in points_below]
    got_a = [kernel(*p) for p in points_above]
    for p, g in zip(points_below, got_b):
        assert abs(g - reference(*p)) <= tol_below, (p, g)
    for p, g in zip(points_above, got_a):
        assert abs(g - reference(*p)) <= tol_above, (p, g)
    for gb, ga in zip(got_b, got_a):
        assert abs(gb - ga) <= tol_below + tol_above


@pytest.mark.parametrize("x", [0.0, 0.37, -1.2])
def test_triangle_dq_cut(x):
    # |b| = 2 pi dp s |y| switches to the centred series at 1e-3
    yc = _DQ_CUT / (TWO_PI * TRI.dp * TRI.s)
    _check_cut(lambda *p: K.k_triangle(TRI, *p),
               lambda *p: mp_triangle(TRI, *p),
               [(x, yc * BELOW), (x, -yc * BELOW)],
               [(x, yc * ABOVE), (x, -yc * ABOVE)], SERIES_TOL, DIRECT_TOL)


@pytest.mark.parametrize("t", [0.0, 0.31, -0.8])
def test_cone_1_dq_cut(t):
    rc = _DQ_CUT / (TWO_PI * CONE1.omega0 * CONE1.pmax)
    _check_cut(lambda *p: K.k_cone(CONE1, *p),
               lambda *p: mp_cone(CONE1, *p),
               [(t, rc * BELOW), (t, -rc * BELOW)],
               [(t, rc * ABOVE), (t, -rc * ABOVE)], SERIES_TOL, DIRECT_TOL)


@pytest.mark.parametrize("t", [0.0, 0.31, -0.8])
def test_cone_3_half_cut(t):
    # b = 2 pi w0 p r switches to the odd-derivative series at 0.5
    rc = 0.5 / (TWO_PI * CONE3.omega0 * CONE3.pmax)
    _check_cut(lambda *p: K.k_cone(CONE3, *p),
               lambda *p: mp_cone(CONE3, *p),
               [(t, rc * BELOW)], [(t, rc * ABOVE)], SERIES_TOL, 1e-13)


@pytest.mark.parametrize("k_max", [1.0, 0.37])
def test_ball_shell_sweep(k_max):
    # shells u = 2 pi k_max |x| from 1e-5 to 1, on both sides of the 0.5
    # series cut, as radii and as 3D points, a third of them squeezed
    # toward a coordinate plane
    rng = np.random.default_rng(11)
    u = np.geomspace(1e-5, 1.0, 61)
    r = u / (TWO_PI * k_max)
    d = rng.normal(size=(len(r), 3))
    d[::3, rng.integers(0, 3)] *= 1e-6
    pts = r[:, None] * d / np.linalg.norm(d, axis=1, keepdims=True)
    vol = 4.0 * math.pi * k_max ** 3 / 3.0
    for x in (r, pts):          # radii, and points along the last axis
        want = [mp_ball(k_max, xi) for xi in x]
        err = np.abs(K.k_ball(k_max, x) - want)
        assert np.max(err) <= 1e-13 * vol, (x[np.argmax(err)],
                                            np.max(err) / vol)


@pytest.mark.parametrize("y,z", [(0.2, 0.3), (-0.35, -0.4)])
def test_tetra_dq_cut(y, z):
    # |b| = 2 pi h dp s |x| switches to the series in b at 1e-3
    xc = _DQ_CUT / (TWO_PI * TET.h * TET.dp * TET.s)
    _check_cut(lambda *p: K.k_tetra(TET, *p),
               lambda *p: mp_tetra(TET, *p),
               [(xc * BELOW, y, z)], [(xc * ABOVE, y, z)], SERIES_TOL, 1e-13)


@pytest.mark.parametrize("x,sign,z", [(0.1, -1.0, 0.25), (0.1, 1.0, -0.5),
                                      (-0.05, 1.0, 0.1)])
def test_tetra_phi_taylor_cut(x, sign, z):
    # |v -+ b| crosses 1e-2 with |b| > 1e-3: one Phi leaves its Taylor
    # ladder for the upward recurrence
    sc = TWO_PI * TET.h * TET.dp
    b = sc * TET.s * x

    def y_at(f):            # v = sign * b + (cut * f) away from v = sign b
        return (sign * b + _PHI_TAYLOR_CUT * f) / sc
    _check_cut(lambda *p: K.k_tetra(TET, *p),
               lambda *p: mp_tetra(TET, *p),
               [(x, y_at(BELOW), z)], [(x, y_at(ABOVE), z)],
               SERIES_TOL, 1e-13)


@pytest.mark.parametrize("t", [0.0, 0.13, -0.6])
def test_tilde_k_cone_big_switch(j1_rule, t):
    _, gamma = K.j1_expansion_from_rule(j1_rule)
    rc = 0.5 / (TWO_PI * CONE2.omega0 * CONE2.pmax * np.max(gamma))
    _check_cut(lambda *p: K.tilde_k_cone(CONE2, j1_rule, *p),
               lambda *p: mp_tilde(CONE2, j1_rule, *p),
               [(t, rc * BELOW)], [(t, rc * ABOVE)], SERIES_TOL, 1e-13)


@pytest.mark.parametrize("k", [0, 1, 5, 13, 17, 20])
def test_power_exp_integral_radius_8_cut(k):
    # series up to |z| = 8, upward recurrence above; the recurrence keeps
    # its error relative to |e^z|
    for z in (8j, -8j, 8 * np.exp(1j), 8 * np.exp(2.5j)):
        got = [power_exp_integral(k, z * f) for f in (BELOW, 1.0, ABOVE)]
        for f, g in zip((BELOW, 1.0, ABOVE), got):
            tol = 1e-13 * max(1.0, abs(np.exp(z)))
            assert abs(g - mp_power_exp_integral(k, z * f)) <= tol, (k, z, f)
        assert abs(got[0] - got[2]) <= 1e-12 * max(1.0, abs(np.exp(z)))


def _conj_pairs():
    rng = np.random.default_rng(3)
    u = rng.uniform(-0.8, 0.8, (40, 4))
    u[:10, 1] = 0.0                       # wedge y = 0 line, tetra v = 0
    u[10:20, 0] = 0.0                     # tetra x = 0 plane
    u[20:25, 1] = -TET.s * u[20:25, 0]    # tetra y = -s x
    u[25:30, 1] = 1e-5 * rng.uniform(-1, 1, 5)
    return u


def test_conjugate_symmetry_of_each_closed_form(j1_rule):
    u = _conj_pairs()
    cases = [
        (lambda p: K.k_triangle(TRI, p[:, 0], p[:, 1]), u),
        (lambda p: K.k_tetra(TET, *p[:, :3].T), u),
        (lambda p: K.k_cone(CONE1, p[:, 0], p[:, 1]), u),
        (lambda p: K.k_cone(CONE2, p[:, 0], p[:, 1:3]), u),
        (lambda p: K.k_cone(CONE3, p[:, 0], p[:, 1:]), u),
        (lambda p: K.tilde_k_cone(CONE2, j1_rule, p[:, 0],
                                  np.abs(p[:, 1]) * 1e-2), u),
    ]
    for f, pts in cases:
        plus, minus = f(pts), f(-pts)
        scale = np.max(np.abs(plus))
        assert np.max(np.abs(minus - np.conj(plus))) <= 1e-14 * scale


def test_kernel_at_zero_is_the_measure(j1_rule):
    assert abs(K.k_triangle(TRI, 0.0, 0.0) - TRI.area) <= 1e-15 * TRI.area
    assert abs(K.k_tetra(TET, 0.0, 0.0, 0.0) - TET.volume) \
        <= 1e-15 * TET.volume
    for spec in (CONE1, CONE2, CONE3):
        assert abs(K.k_cone(spec, 0.0, 0.0) - spec.measure) \
            <= 1e-15 * spec.measure
    # the surrogate's value at 0 is its own measure, the n=2 cone's up to
    # how well the rule matches J1's first moment
    assert abs(K.tilde_k_cone(CONE2, j1_rule, 0.0, 0.0) - CONE2.measure) \
        <= 1e-10 * CONE2.measure
    for f in (K.k_triangle(TRI, 0.0, 0.0), K.k_tetra(TET, 0.0, 0.0, 0.0),
              K.k_cone(CONE1, 0.0, 0.0), K.k_cone(CONE2, 0.0, 0.0),
              K.k_cone(CONE3, 0.0, 0.0),
              K.tilde_k_cone(CONE2, j1_rule, 0.0, 0.0)):
        assert type(f) is complex
