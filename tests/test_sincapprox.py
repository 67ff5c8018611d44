"""Cosine-sum / chirplet surrogates and the helper rules built on them."""
import numpy as np
import pytest
from scipy.integrate import quad

from rlimited.numkit import sinc
from rlimited.sincapprox import (build_sinc_cosine_approx, CosineSumApprox,
                                 eval_cosine_sum, error_epsilon_B,
                                 frequency_rule, periodic_sinc,
                                 uniform_max_error, scaling_multiplier,
                                 build_chirplet_approx,
                                 eval_chirplet_sum, reduction_level,
                                 symmetric_sinc_rule, one_sided_unit_rule)


@pytest.mark.parametrize("B0,n", [(0.5, 0), (0.99, 0), (1.0, 1), (3.0, 2),
                                  (20.0, 3), (27.0, 4), (80.9, 4)])
def test_reduction_level_table(B0, n):
    assert reduction_level(B0) == n


def test_reduction_level_rejects_nonpositive():
    with pytest.raises(ValueError):
        reduction_level(0.0)


def test_cosine_approx_accuracy_and_structure():
    a = build_sinc_cosine_approx(20.0, 6)
    assert a.level == 3
    assert abs(a.base_quadrature.band - 20.0 / 27.0) < 1e-15
    # 6 base nodes through 3 tripling levels, no collisions for Gauss nodes
    assert len(a.expanded.nodes) == 6 * 27
    assert np.all(a.expanded.nodes > 0)
    x = np.linspace(-1, 1, 4001)
    assert np.max(np.abs(error_epsilon_B(a, x))) < 1e-14


def test_eval_cosine_sum_is_the_advertised_sum():
    a = build_sinc_cosine_approx(5.0, 4)
    w = a.expanded.weights
    nu = a.expanded.nodes
    for x in (0.0, 0.31, -0.9):
        direct = float(np.sum(w * np.cos(nu * x)))
        assert abs(eval_cosine_sum(a, x) - direct) < 1e-15


def test_error_vanishes_on_reduced_band_lattice():
    # the expansion multiplier equals one at x = m pi / B, so the expanded
    # error there equals the base error, which the Gauss rule drives to
    # rounding level
    a = build_sinc_cosine_approx(20.0, 6)
    B = a.base_quadrature.band
    lat = np.arange(-3, 4) * np.pi / B
    assert np.max(np.abs(scaling_multiplier(B, a.level, lat) - 1.0)) == 0.0


def test_scaling_multiplier_is_exact_on_true_sinc():
    B = 0.9
    x = np.linspace(-4, 4, 1201)
    for n in (1, 2, 3):
        got = sinc(B * x) * scaling_multiplier(B, n, x)
        assert np.max(np.abs(got - sinc(3 ** n * B * x))) < 5e-15, n


def test_frequency_rule_contract():
    a = build_sinc_cosine_approx(20.0, 6)
    fr = frequency_rule(a)
    assert fr.symmetric
    assert abs(float(np.sum(fr.weights)) - 2 * a.B0) < 1e-12 * a.B0
    assert np.all((fr.nodes > -1) & (fr.nodes < 1))
    assert np.min(np.abs(fr.nodes)) > 0, "no node at zero"
    srt = np.sort(fr.nodes)
    assert np.array_equal(srt, -srt[::-1]), "node set is symmetric"
    # the symmetric exponential sum reproduces 2 B0 sinc(B0 x)
    for x in (0.0, 0.3, 0.77, 1.0):
        s = np.sum(fr.weights * np.exp(1j * fr.nodes * a.B0 * x))
        assert abs(s - 2 * a.B0 * sinc(a.B0 * x)) < 1e-12 * a.B0, x


def test_periodic_sinc_matches_direct_formula():
    B, N = 2.0, 5
    x = np.linspace(0.1, 30.0, 997)
    direct = np.sin(B * x) / ((2 * N + 1) * np.sin(B * x / (2 * N + 1)))
    assert np.max(np.abs(periodic_sinc(B, N, x) - direct)) < 1e-12
    assert periodic_sinc(B, N, 0.0) == 1.0
    per = (2 * N + 1) * np.pi / B
    shifted = periodic_sinc(B, N, x + 2 * per)
    assert np.max(np.abs(periodic_sinc(B, N, x) - shifted)) < 1e-13


@pytest.mark.parametrize("N", [5, 13, 40])
def test_uniform_max_error_location_and_value(N):
    B = 2.0
    x_star, val = uniform_max_error(B, N)
    assert abs(x_star - (2 * N + 1) * np.pi / (2 * B)) < 1e-14
    assert abs(val - (1 - 2 / np.pi) / (2 * N + 1)) < 1e-16
    grid = np.linspace(0.0, x_star, 20001)
    scan = np.max(np.abs(sinc(B * grid) - periodic_sinc(B, N, grid)))
    assert abs(scan / val - 1) < 1e-6, (N, scan, val)
    at_star = abs(sinc(B * x_star) - periodic_sinc(B, N, x_star))
    assert abs(at_star - val) < 1e-15


def test_chirplet_approx_b20():
    c = build_chirplet_approx(20.0, 6)
    assert c.level == 3
    assert np.all(c.gammas.real > 0), "chirps must decay"
    x = np.linspace(-1, 1, 2001)
    z = eval_chirplet_sum(c, x)
    assert np.max(np.abs(z.real - sinc(20.0 * x))) < 5e-11
    assert np.max(np.abs(z.imag)) < 1e-13


def test_chirplet_weights_pair_up():
    c = build_chirplet_approx(20.0, 6)
    # conjugate pairing keeps the sum real; every complex node has its twin
    gam = np.sort_complex(c.gammas)
    twin = np.sort_complex(np.conj(c.gammas))
    assert np.allclose(gam, twin, atol=1e-10)


@pytest.mark.parametrize("band,M", [(0.5, 6), (5.0, 8), (30.0, 8)])
def test_symmetric_sinc_rule(band, M):
    r = symmetric_sinc_rule(band, M)
    assert abs(float(np.sum(r.weights)) - 2.0) < 1e-12
    assert np.all((r.nodes > -1) & (r.nodes < 1))
    for b in (0.0, 0.4 * band, band):
        approx = np.sum(r.weights * np.exp(1j * b * r.nodes))
        assert abs(approx - 2 * sinc(b)) < 1e-10, (band, b)


@pytest.mark.parametrize("power", [0, 1, 3])
def test_one_sided_unit_rule(power):
    band = 12.0
    r = one_sided_unit_rule(band, 8, power=power)
    assert np.all((r.nodes > 0) & (r.nodes < 1))
    assert abs(float(np.sum(r.weights)) - 1.0 / (power + 1)) < 1e-13
    for t in (3.0, band):
        re, _ = quad(lambda v: v ** power * np.cos(t * v), 0, 1,
                     epsabs=1e-14)
        im, _ = quad(lambda v: v ** power * np.sin(t * v), 0, 1,
                     epsabs=1e-14)
        approx = np.sum(r.weights * np.exp(1j * t * r.nodes))
        assert abs(approx - (re + 1j * im)) < 1e-10, (power, t)


def test_scalar_call_paths_return_python_scalars():
    a = build_sinc_cosine_approx(3.0, 4)
    assert isinstance(eval_cosine_sum(a, 0.3), float)
    assert isinstance(error_epsilon_B(a, 0.3), float)
    assert isinstance(periodic_sinc(2.0, 5, 0.3), float)
    c = build_chirplet_approx(3.0, 4)
    assert isinstance(eval_chirplet_sum(c, 0.4), complex)
