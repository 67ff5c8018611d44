"""Moment presets, 1D rules, the Hankel-pencil solver, serialization."""
import numpy as np
import pytest
from math import lgamma, log

from rlimited import (preset_moments, solve_moment_problem, gauss_legendre_01,
                      chebyshev_rule_for_j0, uniform_rule, symmetrize,
                      verify_moments, Quadrature1D)
from rlimited.moments import quadrature_to_json, quadrature_from_json, \
    PRESET_NAMES


def test_preset_names_complete():
    assert set(PRESET_NAMES) == {"sinc_cos", "j0_cos", "gauss_cos",
                                 "sinc_gauss", "j0_sinc", "j1_cosinc"}


def test_gauss_legendre_01_contract():
    for M in (1, 4, 16, 32):
        q = gauss_legendre_01(M)
        assert len(q.nodes) == M
        assert np.all((q.nodes > 0) & (q.nodes < 1))
        assert abs(float(np.sum(q.weights)) - 1.0) < 5e-15
        worst = max(abs(np.sum(q.weights * q.nodes ** (2 * n))
                        - 1.0 / (2 * n + 1)) for n in range(2 * M))
        assert worst < 1e-13, (M, worst)


def test_gauss_legendre_01_is_a_fresh_rule_on_cached_arrays():
    # the rule is built once per M; each call gets its own Quadrature1D,
    # since callers set band (build_sinc_cosine_approx) or edit provenance
    first = gauss_legendre_01(6)
    first.band = 3.0
    first.provenance["residuals"].append(1.0)
    again = gauss_legendre_01(6)
    assert again is not first and again.band == 1.0
    assert len(again.provenance["residuals"]) == 12
    assert again.nodes is first.nodes and again.weights is first.weights
    for a in (again.nodes, again.weights):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.5
    x, w = np.polynomial.legendre.leggauss(12)
    assert np.array_equal(again.nodes, x[x > 0])
    assert np.array_equal(again.weights, w[x > 0])


def test_chebyshev_rule_contract():
    for M in (1, 5, 32):
        q = chebyshev_rule_for_j0(M)
        m = np.arange(1, M + 1)
        ref = np.sort(np.cos((2 * m - 1) * np.pi / (4 * M)))
        assert np.allclose(np.sort(q.nodes), ref)
        assert np.all(q.weights == 1.0 / M)
        worst = 0.0
        for n in range(2 * M):
            target = np.exp(lgamma(2 * n + 1)
                            - 2 * (n * log(2.0) + lgamma(n + 1)))
            worst = max(worst, abs(np.sum(q.weights * q.nodes ** (2 * n))
                                   - target))
        assert worst < 1e-13, (M, worst)


def test_uniform_rule_contract():
    B, M = 2.75, 7
    q = uniform_rule(B, M)
    assert q.symmetric
    m = np.arange(-M, M + 1)
    assert np.allclose(q.nodes, 2 * m / (2 * M + 1))
    assert np.all(q.weights == 2 * B / (2 * M + 1))
    assert abs(np.sum(q.weights) - 2 * B) < 1e-14


def test_symmetrize():
    B = 3.0
    q = symmetrize(gauss_legendre_01(5), B)
    assert q.symmetric
    assert abs(float(np.sum(q.weights)) - 2 * B) < 1e-13
    assert np.allclose(np.sort(q.nodes), -np.sort(-q.nodes)[::-1] * 1.0)
    with pytest.raises(ValueError):
        symmetrize(q, B)                       # already symmetric

    # a zero node keeps a single copy at doubled weight
    half = Quadrature1D(weights=np.array([0.25, 0.75]),
                        nodes=np.array([0.0, 0.6]),
                        band=1.0, symmetric=False, provenance={})
    full = symmetrize(half, B)
    at_zero = full.weights[full.nodes == 0.0]
    assert len(at_zero) == 1
    assert abs(at_zero[0] - 2 * B * 0.25) < 1e-15
    assert abs(float(np.sum(full.weights)) - 2 * B) < 1e-13

    # a genuinely complex rule (sinc_gauss at M=4) is refused, not cast
    cplx = solve_moment_problem(preset_moments("sinc_gauss", 1.0, 7), 4)
    assert np.iscomplexobj(cplx.nodes)
    with pytest.raises(ValueError, match="complex"):
        symmetrize(cplx, B)


def test_solver_reproduces_half_gauss_rule():
    M = 4
    q = solve_moment_problem(preset_moments("sinc_cos", 1.0, 2 * M - 1), M)
    gl = gauss_legendre_01(M)
    # solver works in the squared-node variable
    assert np.allclose(np.sort(q.nodes), np.sort(gl.nodes ** 2), atol=1e-10)
    assert np.allclose(np.sort(q.weights), np.sort(gl.weights), atol=1e-10)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_solver_matches_presets(name):
    M = 5
    seq = preset_moments(name, 1.0, 2 * M - 1)
    q = solve_moment_problem(seq, M)
    rep = verify_moments(q, seq)
    scale = max(1.0, float(np.max(np.abs(seq.values))))
    assert rep["max_abs"] < 1e-7 * scale, (name, rep["residuals"])


def test_verify_moments_reports_residuals():
    q = gauss_legendre_01(3)
    seq = preset_moments("sinc_cos", 1.0, 5)
    rep = verify_moments(q, seq)
    assert len(rep["residuals"]) == 6
    assert rep["max_abs"] == max(abs(rep["residuals"]))


def test_quadrature_json_round_trip():
    q = symmetrize(gauss_legendre_01(4), 2.5)
    back = quadrature_from_json(quadrature_to_json(q))
    assert np.array_equal(back.nodes, q.nodes)
    assert np.array_equal(back.weights, q.weights)
    assert back.band == q.band
    assert back.symmetric == q.symmetric
