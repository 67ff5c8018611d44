"""Discrete prolate eigensystems: spectra, extensions, serialization."""
import json
import sys
import threading
import tracemalloc

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
    # both routes sum real eigenvectors, yet they return complex values,
    # for a scalar t and an array t alike, on an even and an odd mode
    t = np.array([-0.3, 0.0, 0.7])
    assert exp_basis.eigenvalues_lambda[0].imag == 0
    assert exp_basis.eigenvalues_lambda[1].real == 0
    for basis in (exp_basis, ker_basis):
        ev = P.ProlateEvaluator(basis)
        for n in (0, 1):
            arr = P.extend_prolate(ev, n, t)
            assert arr.dtype == complex, basis.kind
            for ti, vi in zip(t, arr):
                one = P.extend_prolate(ev, n, ti)
                assert type(one) is complex
                assert abs(one - vi) <= 1e-14 * max(1.0, abs(vi))


def test_extension_guards(exp_basis, freq_rule):
    ev = P.ProlateEvaluator(exp_basis)
    with pytest.raises(IndexError):
        P.extend_prolate(ev, len(exp_basis), 0.0)
    # the deep tail sits far below any sensible regularization floor
    with pytest.raises(ValueError):
        P.extend_prolate(ev, len(exp_basis) - 1, 0.0, mu_min=1e-8)
    # the extension formulas are 1D; an ND (node-cloud) basis is refused
    nd = P.rslepian_exp_eigensystem(expsum_kernel(freq_rule))
    with pytest.raises(ValueError):
        P.extend_prolate(P.ProlateEvaluator(nd), 0, 0.0)


@pytest.mark.parametrize("mode", ["exp_extension", "kernel_extension",
                                  "midpoint"])
def test_evaluator_takes_no_mode(mode):
    # the route follows basis.kind: the exp formula on a kernel-system
    # basis, whose lambda is a magnitude only, gave modes 1-3 off by a
    # factor of +-i or -1
    ker = P.pswf_kernel_eigensystem(symmetrize(gauss_legendre_01(12), 2.0),
                                    2.0)
    with pytest.raises(TypeError):
        P.ProlateEvaluator(ker, mode=mode)


def test_extension_refuses_an_unknown_basis_kind(exp_basis):
    doc = json.loads(json.dumps(P.eigenbasis_to_json(exp_basis)))
    doc["kind"] = "midpoint_system"
    with pytest.raises(ValueError, match="basis kind"):
        P.extend_prolate(P.ProlateEvaluator(P.eigenbasis_from_json(doc)), 0,
                         0.1)


def _exp_oracle(basis, n, t):
    """The complex route: (1/(B lambda_n)) sum_m a_m e^{i 2 pi B w_m t}
    phi_n(w_m) over the full rule."""
    Bb = float(basis.band)
    a = np.asarray(basis.quadrature.weights, dtype=float)
    om = np.asarray(basis.quadrature.nodes, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.exp(2j * np.pi * Bb * t[..., None] * om) \
        @ (a * basis.eigenvectors[:, n]) / (Bb * basis.eigenvalues_lambda[n])


@pytest.mark.parametrize("rule", ["uniform-201", "gauss-200"])
def test_exp_extension_matches_the_complex_route(rule):
    # 201 nodes with one at zero, and 200 without
    q = {"uniform-201": uniform_rule(5.0, 100),
         "gauss-200": symmetrize(gauss_legendre_01(100), 5.0)}[rule]
    basis = P.pswf_exp_eigensystem(q, 5.0)
    ev = P.ProlateEvaluator(basis)
    t = np.concatenate([np.linspace(-1.3, 1.3, 1201), q.nodes])
    mu = basis.eigenvalues_mu
    checked = 0
    for n in range(len(basis)):
        if n >= 20 and mu[n] < 1e-8:
            break
        got = P.extend_prolate(ev, n, t)
        want = _exp_oracle(basis, n, t)
        scale = np.max(np.abs(basis.eigenvectors[:, n]))
        if n >= 20:
            scale /= np.sqrt(mu[n])
        err = np.max(np.abs(got - want))
        assert err <= 1e-14 * scale, (n, err / scale)
        checked += 1
    assert checked >= 20


@pytest.fixture(scope="module")
def bases_200():
    # the benchmark's extension rule: 200 Gauss nodes, band 5, and 20
    # modes above the default mu floor
    q = symmetrize(gauss_legendre_01(100), 5.0)
    return {"exp": P.pswf_exp_eigensystem(q, 5.0),
            "kernel": P.pswf_kernel_eigensystem(q, 5.0)}


def _same_bits(got, want):
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert got.dtype == want.dtype == complex
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("route", ["exp", "kernel"])
def test_evaluator_tables_give_a_fresh_evaluators_bits(bases_200, route):
    basis = bases_200[route]
    ev = P.ProlateEvaluator(basis)

    def check(n, t):
        _same_bits(P.extend_prolate(ev, n, t),
                   P.extend_prolate(P.ProlateEvaluator(ev.basis), n, t))

    t = np.concatenate([np.linspace(-1.0, 1.0, 401), basis.quadrature.nodes])
    for n in range(20):                 # even and odd modes on one grid
        check(n, t)
    slot = ev._slot
    assert sorted(f.__name__ for f in slot[3]) == (
        ["cos", "sin"] if route == "exp" else ["sinc"])
    check(7, t.copy())                  # equal bits: the tables are kept
    assert ev._slot is slot
    # same shape, new values; then grids that differ only in a zero's sign
    zero = t == 0.0
    assert np.count_nonzero(zero) == 1
    slots = []
    for grid in (0.9 * t, np.where(zero, 0.0, t), np.where(zero, -0.0, t)):
        for n in (0, 1, 2, 3):
            check(n, grid)
        slots.append(ev._slot)
    assert slots[1] is not slots[2]     # -0.0 makes a new grid
    # a grid the caller changes in place between calls
    grid = t.copy()
    check(1, grid)
    grid[5] += 0.1
    check(1, grid)
    check(0, grid)
    for n, x in ((0, 0.3), (1, 0.3), (1, -0.7)):    # a scalar t
        assert type(P.extend_prolate(ev, n, x)) is complex
        check(n, x)
    # the index and mu-floor refusals still run with the tables in place
    with pytest.raises(IndexError):
        P.extend_prolate(ev, len(basis), 0.3)
    with pytest.raises(ValueError, match="regularization floor"):
        P.extend_prolate(ev, 0, 0.3, mu_min=2.0)
    # another basis of the same kind and size, on the same grid
    check(0, t)
    solve = {"exp": P.pswf_exp_eigensystem,
             "kernel": P.pswf_kernel_eigensystem}[route]
    ev.basis = solve(symmetrize(gauss_legendre_01(100), 4.0), 4.0)
    for n in (0, 1):
        check(n, t)


def test_evaluator_shared_between_threads(bases_200):
    # four threads switch one evaluator between four grids: each call
    # still gets a fresh evaluator's bits, since a slot is replaced whole
    basis = bases_200["exp"]
    grids = [s * np.linspace(-1.0, 1.0, 101) for s in (1.0, 0.8, 0.6, 0.4)]
    want = [[P.extend_prolate(P.ProlateEvaluator(basis), n, g)
             for n in range(4)] for g in grids]
    ev, bad = P.ProlateEvaluator(basis), []

    def work(i):
        for _ in range(600):
            for n in range(4):
                got = P.extend_prolate(ev, n, grids[i])
                if not np.array_equal(got.view(np.uint64),
                                      want[i][n].view(np.uint64)):
                    bad.append((i, n))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not bad, bad[:5]


def test_kernel_eigensystem_peak_memory():
    # the eigenvectors are stacked once, then normalized, permuted and
    # rotated in place: 20.8 MiB on numpy 2.4, 26.9 MiB with a copy per step
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        P.pswf_kernel_eigensystem(symmetrize(gauss_legendre_01(400), 5), 5)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 22.0 * 2 ** 20, peak / 2 ** 20


def _doc(basis):
    return json.loads(json.dumps(P.eigenbasis_to_json(basis)))


def test_exp_extension_refuses_what_cannot_be_parity_split(exp_basis):
    # a pre-parity-split artifact: eigenvectors carry a complex phase
    doc = _doc(exp_basis)
    vecs = exp_basis.eigenvectors * np.exp(0.3j)
    doc["eigenvectors"] = {"re": vecs.real.tolist(), "im": vecs.imag.tolist()}
    rotated = P.ProlateEvaluator(P.eigenbasis_from_json(doc))
    with pytest.raises(ValueError, match="rlimited pswf"):
        P.extend_prolate(rotated, 0, 0.1)
    # one entry moved by one ulp: neither exactly even nor exactly odd
    for n in (0, 1):
        doc = _doc(exp_basis)
        row = doc["eigenvectors"]["re"][3]
        row[n] = float(np.nextafter(row[n], np.inf))
        bent = P.ProlateEvaluator(P.eigenbasis_from_json(doc))
        with pytest.raises(ValueError, match="rlimited pswf"):
            P.extend_prolate(bent, n, 0.1)
        # the untouched modes still extend
        P.extend_prolate(bent, 1 - n, 0.1)
    # a 1D document whose nodes are not mirror pairs is refused on reading
    doc = _doc(exp_basis)
    doc["nodes"][0] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="rlimited pswf"):
        P.eigenbasis_from_json(doc)
    doc = _doc(exp_basis)
    doc["weights"][-1] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="rlimited pswf"):
        P.eigenbasis_from_json(doc)
    # and so is a hand-built basis over such a rule
    q = exp_basis.quadrature
    skew = Quadrature1D(weights=q.weights, nodes=np.asarray(q.nodes) + 1e-3,
                        band=q.band, symmetric=True, provenance={})
    bad = P.EigenBasis(exp_basis.eigenvalues_mu, exp_basis.eigenvalues_lambda,
                       exp_basis.eigenvectors, skew, exp_basis.band,
                       exp_basis.kind)
    with pytest.raises(ValueError, match="rlimited pswf"):
        P.extend_prolate(P.ProlateEvaluator(bad), 0, 0.1)


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


@pytest.mark.parametrize("eigensystem", [P.pswf_exp_eigensystem,
                                         P.pswf_kernel_eigensystem])
@pytest.mark.parametrize("B,M", [(5.0, 10), (5.0, 16), (20.0, 40)])
def test_under_resolved_rule_raises(eigensystem, B, M):
    # mu_max - 1 was between 0.03 and 1.2 here, returned silently
    with pytest.raises(ValueError, match="under-resolved rule"):
        eigensystem(symmetrize(gauss_legendre_01(M), B), B)


@pytest.mark.parametrize("eigensystem", [P.pswf_exp_eigensystem,
                                         P.pswf_kernel_eigensystem])
def test_resolved_rule_mu_within_tolerance(eigensystem):
    for B, M in ((2.0, 10), (5.0, 24), (5.0, 200)):
        mu = eigensystem(symmetrize(gauss_legendre_01(M), B), B) \
            .eigenvalues_mu
        assert mu[0] - 1.0 <= 1e-13


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
    # a mirror rule whose weights differ by 1 ulp is accepted; 9 Gauss
    # nodes resolve band 1, so the solve passes the mu <= 1 check too
    x, w = np.polynomial.legendre.leggauss(9)
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    ok = _flagged(x, np.append(w[:-1], np.nextafter(w[-1], 1.0)))
    assert len(eigensystem(ok, 1.0)) == 9


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


def _weighted_gram_defect(basis):
    """Largest off-diagonal entry of the unit-diagonal Gram V^H diag(w) V
    of the eigenvectors in the cloud's base weights."""
    v = basis.eigenvectors
    g = v.conj().T @ (basis.quadrature.base_weights()[:, None] * v)
    d = np.sqrt(np.abs(np.diag(g)))
    g = np.abs(g) / np.outer(d, d)
    np.fill_diagonal(g, 0.0)
    return float(g.max())


def test_rslepian_matches_the_closed_form_gram():
    # the oracle: w_m |det B| K_R(B^T (k_l - k_m)) from the wedge's closed
    # form, weight-symmetrized; the target box makes the cloud's profile
    # cover every offset the Gram forms.  The triangle cloud is not
    # centrally symmetric, and the last band is not symmetric
    tq = K.triangle_quadrature(K.TriangleSpec(0.8, 0.7), 4, 4,
                               target_box=((-1.5, 1.5),) * 2, profile_grid=0)
    for band in (np.eye(2), np.array([[1.2, 0.3], [0.3, 0.8]]),
                 np.array([[1.0, 0.5], [0.0, 1.0]])):
        kern = expsum_kernel(tq, band=band)
        d = np.sqrt(kern.base_weights())
        offsets = (kern.nodes[:, None, :] - kern.nodes[None, :, :]) @ band
        gram = np.asarray(K.region_kernel_exact(kern.region, offsets))
        want = np.linalg.eigvalsh(kern.det_band() * d[:, None] * d[None, :]
                                  * gram)[::-1]
        for solve in (P.rslepian_exp_eigensystem,
                      P.rslepian_kernel_eigensystem):
            basis = solve(kern)
            assert basis.kind == "kernel_system"
            assert np.max(np.abs(basis.eigenvalues_mu - want)) <= 1e-13
            assert _weighted_gram_defect(basis) <= 1e-12


@pytest.mark.parametrize("half, inside", [(0.5, False), (1.5, True)])
def test_rslepian_records_gram_offsets_against_the_profile_box(half, inside):
    # the Gram forms the cloud's sum at offsets k_l - k_m up to 1.05 apart
    # on the wedge's y axis; the profile of the default +-0.5 target box
    # covers +-1 only.  The solve records that and goes on
    tq = K.triangle_quadrature(K.TriangleSpec(0.8, 0.7), 4, 4,
                               target_box=((-half, half),) * 2)
    prov = P.rslepian_kernel_eigensystem(tq).provenance
    reach, box = prov["gram_offset_reach"], prov["profile_box"]
    k = tq.nodes
    assert reach == np.max(np.abs(k[:, None] - k[None]), axis=(0, 1)).tolist()
    assert 1.0 < max(reach) < 1.1
    assert box == tq.provenance["error_profile"]["box"] == [[-2 * half,
                                                            2 * half]] * 2
    assert all(-lo >= r and hi >= r for r, (lo, hi) in zip(reach, box)) \
        == inside
    bare = K.triangle_quadrature(K.TriangleSpec(0.8, 0.7), 4, 4,
                                 profile_grid=0)
    assert P.rslepian_kernel_eigensystem(bare).provenance["profile_box"] \
        is None


@pytest.mark.parametrize("b", [6.0, 9.0])
def test_rslepian_landau_count(b):
    # Landau: about |R| |b R| = b^2 |R|^2 concentration ratios exceed 1/2
    spec = K.TriangleSpec(1.0, 0.5)
    tq = K.triangle_quadrature(spec, 2, 2, target_box=((-b / 2, b / 2),) * 2,
                               profile_grid=0)
    kern = expsum_kernel(tq, band=b * np.eye(2))
    basis = P.rslepian_kernel_eigensystem(kern)
    count = int(np.sum(basis.eigenvalues_mu > 0.5))
    assert abs(count - b * b * spec.area ** 2) <= 2


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
    # and extend bit for bit like the real basis, even and odd modes alike
    for n in range(6):
        want = P.extend_prolate(P.ProlateEvaluator(exp_basis), n, t)
        got = P.extend_prolate(P.ProlateEvaluator(legacy), n, t)
        assert got.tobytes() == want.tobytes(), n


def _nd_doc():
    tq = K.triangle_quadrature(K.TriangleSpec(0.8, 0.7), 3, 3,
                               profile_grid=0)
    kern = expsum_kernel(tq, band=np.array([[1.0, 0.5], [0.0, 1.0]]))
    return P.eigenbasis_to_json(P.rslepian_kernel_eigensystem(kern))


_SHAPE = "column per mu|re and im differ"


@pytest.mark.parametrize("nd", [False, True], ids=["1d", "nd"])
@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["weights"].__setitem__(0, None),
     "eigenbasis weights must hold finite numbers"),
    (lambda d: d.update(band=0),
     "eigenbasis band must be a finite number > 0"),
    (lambda d: d.update(mu=5), "eigenbasis mu must be an array"),
    (lambda d: d.update(kind=7), "eigenbasis kind must be a string"),
    (lambda d: d.update(kind="a"),
     "eigenbasis kind must be a string, exp_system or kernel_system"),
    (lambda d: d.update(provenance=5),
     "eigenbasis provenance must be an object"),
    (lambda d: d.update(mu=d["mu"][:3]), _SHAPE),
    (lambda d: d["lambda"].update(re=d["lambda"]["re"][:3]), _SHAPE),
    (lambda d: d["eigenvectors"].update(
        re=[r[:3] for r in d["eigenvectors"]["re"]]), _SHAPE)],
    ids=["weights-null", "band-0", "mu-int", "kind-int", "kind-unknown",
         "provenance-int",
         "mu-short", "lambda-short", "eigenvectors-narrow"])
def test_eigenbasis_from_json_names_the_bad_key(ker_basis, nd, mutate,
                                                message):
    doc = json.loads(json.dumps(_nd_doc() if nd
                                else P.eigenbasis_to_json(ker_basis)))
    P.eigenbasis_from_json(doc)
    mutate(doc)
    with pytest.raises(ValueError, match=message):
        P.eigenbasis_from_json(doc)


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
