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


def scalar_power_exp_integral(k, z):
    """The scalar routine the array ladder replaced, kept as its bitwise
    reference."""
    z = complex(z)
    if abs(z) <= 8.0:
        term = 1.0 + 0.0j
        total = term / (k + 1)
        j = 0
        while j < 300:
            j += 1
            term *= z / j
            c = term / (k + j + 1)
            total += c
            if abs(c) <= 1e-17 * max(1.0, abs(total)) and j > 3:
                break
        return total
    ez = np.exp(z)
    val = (ez - 1.0) / z
    for i in range(1, k + 1):
        val = (ez - i * val) / z
    return complex(val)


def _bits(z):
    z = np.asarray(z, dtype=complex)
    return np.stack([z.real, z.imag]).view(np.uint64)


def test_power_exp_integral_matches_the_scalar_routine_bitwise():
    # 10^4 values on each side of |z| = 8, purely imaginary (as the kernels
    # pass them) and general complex; each value is checked at three k of
    # 0..20, the special values at every k.  Both the per-k call and one
    # broadcast ladder call must reproduce the scalar routine bit for bit.
    rng = np.random.default_rng(20)
    n = 5000
    ia = 1j * np.concatenate([rng.uniform(-8, 8, n), rng.uniform(8, 40, n)
                              * rng.choice([-1.0, 1.0], n)])
    zc = np.concatenate([
        rng.uniform(0, 8, n) * np.exp(2j * np.pi * rng.uniform(size=n)),
        rng.uniform(8, 40, n) * np.exp(2j * np.pi * rng.uniform(size=n))])
    z = np.concatenate([ia, zc])
    assert np.sum(np.abs(z) <= 8) == np.sum(np.abs(z) > 8) == 10 ** 4
    ks = np.arange(21)
    k_of = np.stack([np.arange(len(z)) % 21, (np.arange(len(z)) + 7) % 21,
                     (np.arange(len(z)) + 14) % 21])
    special = np.concatenate([
        1j * np.array([0.0, -0.0, 1e-8, -1e-8, 8.0, -8.0, np.nextafter(8, 9),
                       np.nextafter(8, 7), 1e-300]),
        [0j, 1e-8, -1e-8, 8.0, -8.0, 8 * np.exp(0.3j), 1e-8 + 1e-8j]])
    for kk in k_of:
        want = np.array([scalar_power_exp_integral(int(k), v)
                         for k, v in zip(kk, z.tolist())])
        assert np.array_equal(_bits(power_exp_integral(kk, z)), _bits(want))
        for k in ks:
            sel = kk == k
            assert np.array_equal(_bits(power_exp_integral(int(k), z[sel])),
                                  _bits(want[sel])), k
    ladder = power_exp_integral(ks[:, None], special)
    for k in ks:
        want = [scalar_power_exp_integral(int(k), v) for v in special.tolist()]
        assert np.array_equal(_bits(ladder[k]), _bits(want)), k
        for v, w in zip(special.tolist(), want):
            got = power_exp_integral(int(k), v)
            assert type(got) is complex
            assert _bits(got).tolist() == _bits(w).tolist(), (k, v)


@pytest.mark.parametrize("k,z", [(-1, 10j), (-1, 1j), (2.5, 10j)])
def test_power_exp_integral_rejects_a_bad_k(k, z):
    # these once returned I_0, divided by zero and raised TypeError
    with pytest.raises(ValueError, match="non-negative int"):
        power_exp_integral(k, z)


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


@pytest.mark.parametrize("body, match", [
    ("1,2\n0,1,0\n1,2,0\n2,3,0\n", "says 2 points, body has 3 rows"),
    ("1,3\n0,1,0\n1,2,0\n", "says 3 points, body has 2 rows"),
    ("0,2\n1,0\n2,0\n", "dim >= 1"),
    ("1,-1\n", "n_points >= 0"),
    ("2,2\n0,1,0,0\n1,2,0\n", "row 4 has 3 columns, expected 4"),
    ("1,2,3\n0,1,0\n", "bad field CSV size line"),
], ids=["extra-row", "missing-row", "dim-0", "negative-n", "short-row",
        "size-line"])
def test_field_csv_header_body_mismatch_raises(tmp_path, body, match):
    path = tmp_path / "bad.csv"
    path.write_text("dim,n_points\n" + body)
    with pytest.raises(ValueError, match=match):
        read_field_csv(path)
