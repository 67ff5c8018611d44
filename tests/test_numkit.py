"""Scalar kernels, point containers, and CSV round trips."""
import numpy as np
import pytest
from scipy.integrate import quad

from rlimited import (sinc, cosinc, expc, power_exp_integral, PointSet,
                      SampledField, make_grid, write_field_csv,
                      read_field_csv)
from rlimited.numkit import grid_axes


def test_sinc_basic_values():
    assert sinc(0.0) == 1.0
    assert abs(sinc(np.pi)) < 1e-15
    x = 0.7
    assert abs(sinc(x) - np.sin(x) / x) < 1e-16
    out = sinc(np.array([0.0, 1.0, 2.0]))
    assert out.shape == (3,)
    assert np.isscalar(sinc(1.0)) or np.ndim(sinc(1.0)) == 0


def test_cosinc_basic_values():
    assert cosinc(0.0) == 0.0
    x = 1.3
    assert abs(cosinc(x) - (1 - np.cos(x)) / x) < 1e-15


def test_small_argument_branches_match_taylor():
    # below the series cut the direct formulas cancel, so compare against
    # short Taylor references whose truncation error is far below one ulp
    xs = np.array([1e-8, 1e-6, 1e-5, 1e-4, 5e-4, 9e-4])
    ref_s = 1 - xs ** 2 / 6 + xs ** 4 / 120
    ref_c = xs / 2 - xs ** 3 / 24 + xs ** 5 / 720
    ref_e = 1 + xs / 2 + xs ** 2 / 6 + xs ** 3 / 24 + xs ** 4 / 120
    assert np.max(np.abs(sinc(xs) - ref_s)) < 1e-15
    assert np.max(np.abs(cosinc(xs) / ref_c - 1)) < 1e-14
    assert np.max(np.abs(expc(xs) - ref_e)) < 1e-15


def test_expc_identity_against_power_integral():
    # int_0^1 e^{zv} dv equals (e^z - 1)/z for any z
    for z in (0.3, -2.0, 4.0 + 1.5j, 1e-5, 20.0):
        lhs = power_exp_integral(0, z)
        assert abs(lhs - expc(z)) < 1e-13 * max(1.0, abs(expc(z))), z


@pytest.mark.parametrize("k,z", [(0, 0.5), (1, 2.0), (3, -1.2),
                                 (2, 3.0j), (4, 6.0 + 2.0j), (5, 12.0)])
def test_power_exp_integral_vs_quadrature(k, z):
    re, _ = quad(lambda v: (v ** k * np.exp(z * v)).real, 0, 1, epsabs=1e-13)
    im, _ = quad(lambda v: (v ** k * np.exp(z * v)).imag, 0, 1, epsabs=1e-13)
    val = power_exp_integral(k, z)
    assert abs(val - (re + 1j * im)) < 1e-11, (k, z, val)


def test_sinc_derivative_identity():
    # d/du sinc at u: Re[i I_1(iu)] by differentiating under the integral
    u = 0.7
    h = 1e-6
    fd = (sinc(u + h) - sinc(u - h)) / (2 * h)
    an = (1j * power_exp_integral(1, 1j * u)).real
    assert abs(fd - an) < 1e-9


def test_pointset_validation():
    p = PointSet(np.zeros((5, 2)))
    assert p.dim == 2
    assert len(p.points) == 5
    with pytest.raises(ValueError):
        PointSet(np.zeros((2, 3, 4)))
    # a flat array holds n one-dimensional points
    line = PointSet(np.array([0.1, 0.2, 0.3]))
    assert line.points.shape == (3, 1)
    fld = SampledField(line, np.ones(3))
    assert len(fld.points) == 3


def test_sampled_field_length_mismatch():
    pts = PointSet(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        SampledField(pts, np.zeros(4, dtype=complex))


def test_make_grid_and_axes():
    pts = make_grid([-1.0, 0.0], [1.0, 2.0], [5, 3])
    assert pts.points.shape == (15, 2)
    axes = grid_axes(pts.points)
    assert np.allclose(axes[0], np.linspace(-1, 1, 5))
    assert np.allclose(axes[1], np.linspace(0, 2, 3))
    # permuting the rows must not matter: membership is what counts
    rng = np.random.default_rng(0)
    perm = rng.permutation(15)
    axes2 = grid_axes(pts.points[perm])
    assert np.allclose(axes2[0], axes[0])
    with pytest.raises(ValueError):
        grid_axes(pts.points[:-1])      # not a full tensor grid


def test_field_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(11, 3))
    vals = rng.normal(size=11) + 1j * rng.normal(size=11)
    fld = SampledField(PointSet(pts), vals, label="x")
    path = tmp_path / "f.csv"
    write_field_csv(fld, path)
    back = read_field_csv(path)
    assert np.array_equal(back.points.points, pts), "17g must round trip"
    assert np.array_equal(back.values, vals)


def test_field_csv_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nonsense\n")
    with pytest.raises(ValueError):
        read_field_csv(path)
