"""Discrete prolate eigensystems: spectra, extensions, serialization."""
import json

import numpy as np
import pytest

from rlimited import kernels as K
from rlimited import prolate as P
from rlimited.moments import Quadrature1D, gauss_legendre_01, uniform_rule
from rlimited.projection import expsum_kernel
from rlimited.sincapprox import build_sinc_cosine_approx, frequency_rule

B = 2.0


@pytest.fixture(scope="module")
def freq_rule():
    return frequency_rule(build_sinc_cosine_approx(B, 10))


@pytest.fixture(scope="module")
def exp_basis(freq_rule):
    return P.pswf_exp_eigensystem(freq_rule, B)


@pytest.fixture(scope="module")
def ker_basis(freq_rule):
    return P.pswf_kernel_eigensystem(freq_rule, B)


def test_exp_system_eigenvalue_relation(exp_basis):
    mu = exp_basis.eigenvalues_mu
    lam = exp_basis.eigenvalues_lambda
    assert np.max(np.abs(mu - B * np.abs(lam) ** 2)) == 0.0
    assert np.all(np.diff(mu) <= 1e-12), "mu ordered descending"
    assert mu[0] <= 1.0 + 1e-9, "concentration cannot exceed one"


def test_two_systems_share_a_spectrum(exp_basis, ker_basis):
    d = np.max(np.abs(np.sort(exp_basis.eigenvalues_mu)
                      - np.sort(ker_basis.eigenvalues_mu)))
    assert d < 1e-12, d


def test_kernel_trace_identity(ker_basis):
    # trace of the symmetrized Gram is 2 sum(weights) = 4B
    assert abs(ker_basis.eigenvalues_mu.sum() - 4 * B) < 1e-12


def test_extension_is_node_exact(exp_basis, ker_basis, freq_rule):
    nodes = np.asarray(freq_rule.nodes)
    for basis in (exp_basis, ker_basis):
        ev = P.ProlateEvaluator(basis)
        for n in range(3):
            vals = P.extend_prolate(ev, n, nodes)
            err = np.max(np.abs(vals - basis.eigenvectors[:, n]))
            assert err < 1e-13, (basis.kind, n, err)


def test_extensions_agree_off_nodes(exp_basis, ker_basis):
    t = np.linspace(-1, 1, 301)
    e0 = P.extend_prolate(P.ProlateEvaluator(exp_basis), 0, t)
    k0 = P.extend_prolate(P.ProlateEvaluator(ker_basis), 0, t)
    phase = np.vdot(k0, e0)
    phase /= abs(phase)
    assert np.max(np.abs(e0 - phase * k0)) < 1e-8


def test_extension_guards(exp_basis, freq_rule):
    ev = P.ProlateEvaluator(exp_basis)
    with pytest.raises(IndexError):
        P.extend_prolate(ev, len(exp_basis), 0.0)
    # the deep tail sits far below any sensible regularization floor
    with pytest.raises(ValueError):
        P.extend_prolate(ev, len(exp_basis) - 1, 0.0, mu_min=1e-8)
    with pytest.raises(ValueError):
        P.ProlateEvaluator(exp_basis, mode="midpoint")
    # the extension formulas are 1D; an ND (node-cloud) basis is refused
    nd = P.rslepian_exp_eigensystem(expsum_kernel(freq_rule))
    with pytest.raises(ValueError):
        P.extend_prolate(P.ProlateEvaluator(nd), 0, 0.0)


def test_eigensystem_input_guards(freq_rule):
    half = gauss_legendre_01(4)
    with pytest.raises(ValueError):
        P.pswf_exp_eigensystem(half, B)
    with pytest.raises(ValueError):
        P.pswf_kernel_eigensystem(half, B)
    with pytest.raises(ValueError):
        P.pswf_exp_eigensystem(freq_rule, 0.0)
    bad = Quadrature1D(weights=np.array([-1.0, 1.0]),
                       nodes=np.array([-0.5, 0.5]), band=1.0,
                       symmetric=True, provenance={})
    with pytest.raises(ValueError):
        P.pswf_kernel_eigensystem(bad, 1.0)


def test_uniform_rule_kernel_spectrum_is_flat():
    M = 10
    Bu = (2 * M + 1) / 4.0
    basis = P.pswf_kernel_eigensystem(uniform_rule(Bu, M), Bu)
    assert len(basis) == 2 * M + 1
    assert np.max(np.abs(basis.eigenvalues_mu - 1.0)) < 1e-12


def test_uniform_rule_exp_spectrum_has_four_clusters():
    M = 10
    Bu = (2 * M + 1) / 4.0
    basis = P.pswf_exp_eigensystem(uniform_rule(Bu, M), Bu)
    c = 2.0 / np.sqrt(2 * M + 1)
    targets = np.array([c, -c, 1j * c, -1j * c])
    lam = basis.eigenvalues_lambda
    dist = np.min(np.abs(lam[:, None] - targets[None, :]), axis=1)
    assert np.max(dist) < 1e-12
    # flat mu means one degenerate block spanning the whole spectrum
    blocks = basis.provenance["degenerate_blocks"]
    assert blocks == [list(range(2 * M + 1))]


def test_nd_machinery_reduces_to_1d(freq_rule, exp_basis, ker_basis):
    kern = expsum_kernel(freq_rule)
    re = P.rslepian_exp_eigensystem(kern)
    rk = P.rslepian_kernel_eigensystem(kern)
    assert np.max(np.abs(np.sort(re.eigenvalues_mu)
                         - np.sort(exp_basis.eigenvalues_mu))) < 1e-12
    assert np.max(np.abs(np.sort(rk.eigenvalues_mu)
                         - np.sort(ker_basis.eigenvalues_mu))) < 1e-12


def test_rslepian_triangle_trace_identity():
    tq = K.triangle_quadrature(K.TriangleSpec(0.8, 0.7), 4, 4,
                               profile_grid=0)
    kern = expsum_kernel(tq)
    basis = P.rslepian_kernel_eigensystem(kern)
    # diagonal of the Gram carries K(0) = area at every node
    area = K.TriangleSpec(0.8, 0.7).area
    want = area * kern.base_weights().sum()
    assert abs(basis.eigenvalues_mu.sum() - want) < 1e-12
    assert basis.provenance["hermitian_defect"] < 1e-12


def test_rslepian_rejects_asymmetric_band(freq_rule):
    tq = K.triangle_quadrature(K.TriangleSpec(0.8, 0.7), 3, 3,
                               profile_grid=0)
    kern = expsum_kernel(tq, band=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        P.rslepian_exp_eigensystem(kern)


def test_eigenbasis_json_round_trip(exp_basis):
    doc = json.loads(json.dumps(P.eigenbasis_to_json(exp_basis)))
    assert "region" not in doc  # 1D documents keep their layout
    back = P.eigenbasis_from_json(doc)
    assert np.array_equal(back.eigenvalues_mu, exp_basis.eigenvalues_mu)
    assert np.array_equal(back.eigenvectors, exp_basis.eigenvectors)
    assert back.kind == exp_basis.kind
    t = np.linspace(-1, 1, 51)
    orig = P.extend_prolate(P.ProlateEvaluator(exp_basis), 0, t)
    rebuilt = P.extend_prolate(P.ProlateEvaluator(back), 0, t)
    assert np.array_equal(orig, rebuilt)


def test_nd_eigenbasis_json_round_trip():
    tq = K.triangle_quadrature(K.TriangleSpec(0.8, 0.7), 3, 3,
                               profile_grid=0)
    kern = expsum_kernel(tq, band=np.array([[1.2, 0.3], [0.3, 0.8]]))
    for basis in (P.rslepian_exp_eigensystem(kern),
                  P.rslepian_kernel_eigensystem(kern)):
        doc = json.loads(json.dumps(P.eigenbasis_to_json(basis)))
        back = P.eigenbasis_from_json(doc)
        assert np.array_equal(back.eigenvalues_mu, basis.eigenvalues_mu)
        assert np.array_equal(back.eigenvectors, basis.eigenvectors)
        assert np.array_equal(back.band, kern.band)
        q = back.quadrature
        assert isinstance(q, K.QuadratureND)
        assert np.array_equal(q.band, kern.band)
        assert np.array_equal(q.weights, kern.weights)
        assert np.array_equal(q.nodes, kern.nodes)
        assert q.region == kern.region
