"""Discrete prolate eigensystems: spectra, extensions, serialization."""
import json

import numpy as np
import pytest

from rlimited import kernels as K
from rlimited import prolate as P
from rlimited.moments import (Quadrature1D, gauss_legendre_01, symmetrize,
                              uniform_rule)
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


def test_extension_is_complex_on_both_routes(exp_basis, ker_basis):
    # the kernel route sums real eigenvectors, yet like the exp route it
    # returns complex values, for a scalar t and an array t alike
    t = np.array([-0.3, 0.0, 0.7])
    for basis in (exp_basis, ker_basis):
        ev = P.ProlateEvaluator(basis)
        arr = P.extend_prolate(ev, 1, t)
        assert arr.dtype == complex, basis.kind
        for ti, vi in zip(t, arr):
            one = P.extend_prolate(ev, 1, ti)
            assert type(one) is complex
            assert abs(one - vi) <= 1e-14 * max(1.0, abs(vi))


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


def _flagged(nodes, weights):
    return Quadrature1D(weights=np.asarray(weights, dtype=float),
                        nodes=np.asarray(nodes, dtype=float), band=1.0,
                        symmetric=True, provenance={})


@pytest.mark.parametrize("eigensystem", [P.pswf_exp_eigensystem,
                                     P.pswf_kernel_eigensystem])
def test_symmetric_flag_needs_a_mirror_rule(eigensystem):
    w3 = [0.5, 1.0, 0.5]
    bad = [_flagged([-0.5, 0.0, 0.3], w3),          # not mirror pairs
           _flagged([0.5, 0.0, -0.5], w3),          # mirror, descending
           _flagged([-0.5, -0.5, 0.5, 0.5], [0.5] * 4),  # repeated node
           _flagged([-0.5, 0.0, 0.5], [0.5, 1.0, 0.5 * (1 + 1e-13)]),
           _flagged([-0.5, 0.5], [0.5, 0.6])]
    for q in bad:
        with pytest.raises(ValueError):
            eigensystem(q, 1.0)
    # a mirror rule whose weights differ by 1 ulp is accepted
    ok = _flagged([-0.5, 0.0, 0.5], [0.5, 1.0, np.nextafter(0.5, 1.0)])
    assert len(eigensystem(ok, 1.0)) == 3


def _eig_route(q, B):
    """The unsplit route: dense eig of the complex-symmetric exponential
    matrix and dense eigh of the full sinc Gram, mu in descending order."""
    w = np.asarray(q.weights, dtype=float)
    om = np.asarray(q.nodes, dtype=float)
    d = np.sqrt(w)
    A_hat = (1.0 / B) * d[:, None] * d[None, :] * np.exp(
        2j * np.pi * B * om[:, None] * om[None, :])
    S_hat = 2.0 * d[:, None] * d[None, :] * np.sinc(
        2.0 * B * (om[:, None] - om[None, :]))
    mu_exp = np.sort(B * np.abs(np.linalg.eigvals(A_hat)) ** 2)[::-1]
    mu_ker = np.linalg.eigvalsh(S_hat)[::-1]
    return {"exp_system": mu_exp, "kernel_system": mu_ker}


def _operator(basis):
    """The discretized operator on node values: E[k,m] = (1/B) a_m
    e^{i 2 pi B w_m w_k} or S[k,m] = 2 a_m sinc(2 pi B (w_k - w_m))."""
    B = float(basis.band)
    a = np.asarray(basis.quadrature.weights, dtype=float)
    om = np.asarray(basis.quadrature.nodes, dtype=float)
    if basis.kind == "exp_system":
        return (1.0 / B) * a[None, :] * np.exp(
            2j * np.pi * B * om[:, None] * om[None, :]), \
            basis.eigenvalues_lambda
    return 2.0 * a[None, :] * np.sinc(2.0 * B * (om[:, None] - om[None, :])), \
        basis.eigenvalues_mu


@pytest.mark.parametrize("rule", ["gauss-400", "uniform-201", "frequency"])
def test_parity_split_against_the_eig_route(rule, freq_rule):
    q, Bq = {"gauss-400": (symmetrize(gauss_legendre_01(200), 5.0), 5.0),
             "uniform-201": (uniform_rule(5.0, 100), 5.0),
             "frequency": (freq_rule, B)}[rule]
    oracle = _eig_route(q, Bq)
    a = np.asarray(q.weights, dtype=float)
    for eigensystem in (P.pswf_exp_eigensystem, P.pswf_kernel_eigensystem):
        basis = eigensystem(q, Bq)
        again = eigensystem(q, Bq)
        assert np.array_equal(basis.eigenvalues_mu, again.eigenvalues_mu)
        assert np.array_equal(basis.eigenvalues_lambda,
                              again.eigenvalues_lambda)
        assert np.array_equal(basis.eigenvectors, again.eigenvectors)
        mu = basis.eigenvalues_mu
        assert np.max(np.abs(mu - oracle[basis.kind])) <= 1e-13
        phi = basis.eigenvectors
        assert not np.iscomplexobj(phi)
        flip = phi[::-1]
        assert all(np.array_equal(flip[:, j], phi[:, j])
                   or np.array_equal(flip[:, j], -phi[:, j])
                   for j in range(phi.shape[1]))
        g = phi.T @ (a[:, None] * phi)
        g = np.abs(g) / np.sqrt(np.outer(np.diag(g), np.diag(g)))
        np.fill_diagonal(g, 0.0)
        assert g.max() <= 1e-12, (basis.kind, g.max())
        op, ev = _operator(basis)
        res = np.max(np.abs(op @ phi - phi * ev[None, :]))
        assert res <= 1e-13, (basis.kind, res)


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


def _order_and_fix_by_column(mu, lam, vecs):
    """Reference for prolate._order_and_fix: the same ordering with the
    pivot rotation applied one column at a time."""
    vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    dom = np.argmax(np.abs(vecs), axis=0)
    order = np.lexsort((dom, -mu))
    mu, lam, vecs, dom = mu[order], lam[order], vecs[:, order], dom[order]
    for j in range(vecs.shape[1]):
        piv = vecs[dom[j], j]
        if abs(piv) > 0:
            vecs[:, j] = vecs[:, j] * (np.conj(piv) / abs(piv))
    return mu, lam.astype(complex), vecs


def test_order_and_fix_matches_column_loop_bitwise():
    tq = K.triangle_quadrature(K.TriangleSpec(0.8, 0.7), 4, 4,
                               profile_grid=0)
    nodes, d = tq.nodes, np.sqrt(tq.weights)
    A_hat = d[:, None] * d[None, :] * np.exp(2j * np.pi * nodes @ nodes.T)
    lam, psi = np.linalg.eig(A_hat)
    S_hat = np.real(A_hat @ A_hat.conj().T)
    mu_s, psi_s = np.linalg.eigh(0.5 * (S_hat + S_hat.T))
    for mu, lam, vecs in ((np.abs(lam) ** 2, lam, psi / d[:, None]),
                          (mu_s, np.sqrt(mu_s.clip(0)), psi_s / d[:, None])):
        want = _order_and_fix_by_column(mu, lam, vecs.copy())
        got = P._order_and_fix(mu, lam, vecs.copy())
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()


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
    # 1D eigenvectors are real and written without an "im" part; documents
    # that carry one still read back
    assert "im" not in doc["eigenvectors"]
    doc["eigenvectors"]["im"] = np.zeros_like(exp_basis.eigenvectors).tolist()
    legacy = P.eigenbasis_from_json(doc)
    assert np.iscomplexobj(legacy.eigenvectors)
    assert np.array_equal(legacy.eigenvectors, exp_basis.eigenvectors)


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
