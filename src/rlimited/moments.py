"""Moment sequences and the small quadrature rules built from them.

A rule here is a weight/node pair reproducing the power moments of one of
the named band-limited profiles.  Two node conventions coexist and are
recorded in provenance["node_kind"]:

  "even"   the rule stores frequency nodes w and reproduces
           h_n = sum_m a_m w_m^(2n)  (half rules and symmetric full rules)
  "direct" the rule stores the raw solver nodes g and reproduces
           h_n = sum_m a_m g_m^n     (output of solve_moment_problem)

Callers wanting frequency nodes from a "direct" rule take sqrt(g).
"""
from __future__ import annotations

import numpy as np
from dataclasses import dataclass, field
from numpy.polynomial.legendre import leggauss
from scipy.linalg import hankel, svd, eig, lstsq

PRESET_NAMES = ("sinc_cos", "j0_cos", "gauss_cos", "sinc_gauss",
                "j0_sinc", "j1_cosinc")


@dataclass(frozen=True)
class MomentSequence:
    """h_n for n = 0..N_mom, plus where the sequence came from."""
    values: np.ndarray
    preset_name: str | None = None
    band: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=float))

    def __len__(self) -> int:
        return len(self.values)


def _preset_ratio(name: str, B: float):
    """h_n / h_{n-1} as a function of n >= 1; every preset has h_0 = 1."""
    b2 = B * B
    if name == "sinc_cos":
        return lambda n: b2 * (2 * n - 1) / (2 * n + 1)
    if name == "j0_cos":
        return lambda n: b2 * (2 * n - 1) / (2 * n)
    if name == "gauss_cos":
        return lambda n: 2.0 * b2 * (2 * n - 1)
    if name == "sinc_gauss":
        return lambda n: b2 / (2.0 * (2 * n + 1))
    if name in ("j0_sinc", "j1_cosinc"):
        # The two closed forms (2n+1)! B^2n / (2^n n!)^2 and
        # B^2n (2n+2)! / (2^(2n+1) n! (n+1)!) are identical sequences.
        return lambda n: b2 * (2 * n + 1) / (2 * n)
    raise ValueError("unknown preset %r (choose from %s)"
                     % (name, ", ".join(PRESET_NAMES)))


def preset_moments(name: str, B: float, N_mom: int) -> MomentSequence:
    """Moments h_0..h_N of the named profile at band B.

    Ratio recursions keep each h_n to a few ulp, which the exactness
    tolerances downstream rely on.  Overflow is reported, never saturated.
    """
    if N_mom < 0:
        raise ValueError("N_mom must be >= 0")
    if B < 0:
        raise ValueError("band must be >= 0")
    ratio = _preset_ratio(name, B)
    h = np.empty(N_mom + 1)
    h[0] = 1.0
    with np.errstate(over="ignore"):      # reported just below
        for n in range(1, N_mom + 1):
            h[n] = h[n - 1] * ratio(n)
    if not np.isfinite(h).all():
        bad = int(np.argmax(~np.isfinite(h)))
        raise OverflowError("preset %r overflows at n=%d (B=%g)"
                            % (name, bad, B))
    return MomentSequence(h, preset_name=name, band=B)


@dataclass
class Quadrature1D:
    """Weights and nodes of a 1D rule; complex entries allowed.

    band records the frequency scale the rule was built for; symmetric
    marks full rules whose node set is mirror symmetric about zero.
    """
    weights: np.ndarray
    nodes: np.ndarray
    band: float
    symmetric: bool
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.atleast_1d(np.asarray(self.weights))
        self.nodes = np.atleast_1d(np.asarray(self.nodes))
        if self.weights.shape != self.nodes.shape:
            raise ValueError("weights/nodes shape mismatch")


def _real_if_close(a: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    a = np.asarray(a)
    if np.iscomplexobj(a):
        scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
        if float(np.max(np.abs(a.imag))) <= tol * scale:
            return a.real.copy()
    return a


def gauss_legendre_01(M: int) -> Quadrature1D:
    """Positive half of the 2M-point Gauss-Legendre rule on [-1, 1].

    M nodes in (0, 1), weights summing to 1; reproduces
    h_n = 1/(2n+1) = sum_m a_m w_m^(2n) exactly for n = 0..2M-1.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    x, w = leggauss(2 * M)
    pos = x > 0
    q = Quadrature1D(weights=w[pos], nodes=x[pos], band=1.0, symmetric=False,
                     provenance={"preset": "gauss-legendre", "M": M,
                                 "node_kind": "even"})
    rep = verify_moments(q, preset_moments("sinc_cos", 1.0, 2 * M - 1))
    q.provenance["residuals"] = [float(r) for r in rep["residuals"]]
    return q


def chebyshev_rule_for_j0(M: int) -> Quadrature1D:
    """Half rule with nodes cos((2m-1)pi/(4M)) and equal weights 1/M.

    Reproduces the j0_cos moments (2n)!/(4^n n!^2) for n = 0..2M-1.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    m = np.arange(1, M + 1)
    nodes = np.cos((2 * m - 1) * np.pi / (4 * M))[::-1].copy()
    q = Quadrature1D(weights=np.full(M, 1.0 / M), nodes=nodes, band=1.0,
                     symmetric=False,
                     provenance={"preset": "chebyshev", "M": M,
                                 "node_kind": "even"})
    rep = verify_moments(q, preset_moments("j0_cos", 1.0, 2 * M - 1))
    q.provenance["residuals"] = [float(r) for r in rep["residuals"]]
    return q


def uniform_rule(B: float, M: int) -> Quadrature1D:
    """Full symmetric rule: nodes 2m/(2M+1) for m = -M..M, weights 2B/(2M+1)."""
    if M < 0:
        raise ValueError("M must be >= 0")
    if not B > 0:
        raise ValueError("band must be positive")
    m = np.arange(-M, M + 1)
    nodes = 2.0 * m / (2 * M + 1)
    weights = np.full(2 * M + 1, 2.0 * B / (2 * M + 1))
    return Quadrature1D(weights=weights, nodes=nodes, band=B, symmetric=True,
                        provenance={"preset": "uniform", "M": M,
                                    "node_kind": "even"})


def symmetrize(q: Quadrature1D, B: float) -> Quadrature1D:
    """Expand a half rule into the full symmetric rule at band B.

    Nodes +-w_m get weight B*a_m each (a zero node would get 2B*a_0), so the
    weights sum to 2B when the half weights sum to 1.
    """
    if q.symmetric:
        raise ValueError("rule is already symmetric")
    if not B > 0:
        raise ValueError("band must be positive")
    nodes, weights = _real_if_close(q.nodes), _real_if_close(q.weights)
    if np.iscomplexobj(nodes) or np.iscomplexobj(weights):
        raise ValueError("cannot symmetrize a rule with complex weights "
                         "or nodes")
    nodes, weights = nodes.astype(float), weights.astype(float)
    at_zero = np.abs(nodes) <= 1e-15
    pos = nodes[~at_zero]
    wpos = weights[~at_zero]
    full_nodes = np.concatenate([-pos[::-1], nodes[at_zero], pos])
    full_w = np.concatenate([B * wpos[::-1], 2.0 * B * weights[at_zero],
                             B * wpos])
    prov = dict(q.provenance)
    prov["symmetrized_band"] = B
    return Quadrature1D(weights=full_w, nodes=full_nodes, band=B,
                        symmetric=True, provenance=prov)


def solve_moment_problem(h: MomentSequence, M: int,
                         tol: float = 1e-8) -> Quadrature1D:
    """Recover an M-term rule whose power sums match h_0..h_{2M-1}.

    Hankel pencil with SVD rank reveal; rank deficiency shrinks the rule and
    leaves a notice in provenance.  Output nodes are the raw pencil
    eigenvalues (node_kind "direct"): sum_m a_m g_m^n reproduces h_n within
    tol * max|h| over all n supplied, or a ValueError is raised.
    """
    hv = np.asarray(h.values, dtype=float)
    if len(hv) < 2 * M:
        raise ValueError("need at least 2M=%d moments, got %d"
                         % (2 * M, len(hv)))
    if M < 1:
        raise ValueError("M must be >= 1")
    H0 = hankel(hv[:M], hv[M - 1:2 * M - 1])
    H1 = hankel(hv[1:M + 1], hv[M:2 * M])
    U, S, Vt = svd(H0)
    r = int(np.sum(S > 1e-12 * S[0]))
    r = max(1, min(r, M))
    notice = None
    if r < M:
        notice = ("rank %d < requested %d terms; returning the smaller rule"
                  % (r, M))
    P = (U[:, :r].conj().T @ H1 @ Vt[:r].conj().T) / S[:r, None]
    gamma = eig(P)[0]
    gamma = _real_if_close(gamma)
    V = gamma[None, :] ** np.arange(len(hv))[:, None]
    alpha = lstsq(V, hv.astype(V.dtype))[0]
    alpha = _real_if_close(alpha)
    res = hv - (V @ alpha).real if not np.iscomplexobj(alpha) \
        else hv - np.real(V @ alpha)
    scale = float(np.max(np.abs(hv)))
    max_rel = float(np.max(np.abs(res))) / scale
    if max_rel > tol:
        raise ValueError("moment problem unrecoverable at M=%d: residual "
                         "%.3e exceeds tol %.1e" % (M, max_rel, tol))
    prov = {"preset": h.preset_name, "M": r, "node_kind": "direct",
            "residuals": [float(x) for x in res]}
    if notice:
        prov["notice"] = notice
    return Quadrature1D(weights=alpha, nodes=gamma,
                        band=h.band if h.band is not None else 1.0,
                        symmetric=False, provenance=prov)


def verify_moments(q: Quadrature1D, h: MomentSequence) -> dict:
    """Residuals e_n = h_n - sum_m a_m g_m^n with g per node_kind."""
    kind = q.provenance.get("node_kind", "even")
    if kind == "even":
        g = np.asarray(q.nodes) ** 2
    elif kind == "direct":
        g = np.asarray(q.nodes)
    else:
        raise ValueError("cannot verify rule with node_kind=%r" % kind)
    hv = np.asarray(h.values, dtype=float)
    powers = g[None, :] ** np.arange(len(hv))[:, None]
    sums = powers @ np.asarray(q.weights)
    eps = hv - np.real(sums)
    scale = float(np.max(np.abs(hv)))
    return {"residuals": eps,
            "max_abs": float(np.max(np.abs(eps))),
            "max_rel": float(np.max(np.abs(eps))) / scale if scale else 0.0}


def _num_to_json(a: np.ndarray):
    """Real arrays as a list of floats, complex ones as [re, im] rows."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return np.stack([a.real, a.imag], axis=-1).tolist()
    return a.astype(float).tolist()


def _num_from_json(lst) -> np.ndarray:
    if lst and isinstance(lst[0], (list, tuple)):
        return np.asarray([complex(re, im) for re, im in lst])
    return np.asarray([float(v) for v in lst])


def quadrature_to_json(q: Quadrature1D) -> dict:
    return {"band": float(q.band), "symmetric": bool(q.symmetric),
            "weights": _num_to_json(q.weights),
            "nodes": _num_to_json(q.nodes),
            "provenance": dict(q.provenance)}


def quadrature_from_json(d: dict) -> Quadrature1D:
    return Quadrature1D(weights=_num_from_json(d["weights"]),
                        nodes=_num_from_json(d["nodes"]),
                        band=float(d["band"]),
                        symmetric=bool(d["symmetric"]),
                        provenance=dict(d.get("provenance", {})))
