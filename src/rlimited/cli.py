"""Command line front end.

One job per invocation: build a quadrature, expand the sinc, diagonalize a
concentration operator, evaluate a kernel field, project user data, or run
the verification suites.  Artifacts are CSV (plot-ready) plus one JSON
sidecar each; exit codes are 0 on success, 1 for a failed verification,
2 for bad input.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import verify as verify_mod
from .numkit import sinc, PointSet, SampledField, write_field_csv, \
    read_field_csv, dumps_json, format_rows
from .moments import (preset_moments, solve_moment_problem,
                      gauss_legendre_01, chebyshev_rule_for_j0, uniform_rule,
                      symmetrize, verify_moments, quadrature_to_json,
                      PRESET_NAMES)
from .sincapprox import (build_sinc_cosine_approx, error_epsilon_B,
                         build_chirplet_approx, eval_chirplet_sum)
from .kernels import (TriangleSpec, ConeSpec, triangle_quadrature,
                      equilateral_symmetric_quadrature, tetra_quadrature,
                      tetra_symmetric_quadrature, cone_quadrature,
                      ball_quadrature, regular_tetra_spec,
                      quadrature_nd_to_json, quadrature_nd_from_json,
                      k_triangle, k_tetra, k_cone, k_ball)
from .prolate import (pswf_exp_eigensystem, pswf_kernel_eigensystem,
                      eigenbasis_to_json)
from .projection import (expsum_kernel, rlimited_discrete_fourier,
                         needed_base_box, measure_kernel_profile)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_json(doc))
        fh.write("\n")


def _write_rule_csv(path: str, weights, nodes) -> None:
    """Columns x1..xd,w_re,w_im; complex nodes (the sinc_gauss rules)
    write each coordinate as an x<i>_re,x<i>_im pair."""
    w = np.asarray(weights, dtype=complex)
    nod = np.atleast_2d(np.asarray(nodes))
    if nod.shape[0] != len(w):
        nod = nod.T
    names = ["x%d" % (i + 1) for i in range(nod.shape[1])]
    if np.iscomplexobj(nod):
        names = [x + part for x in names for part in ("_re", "_im")]
        nod = np.stack([nod.real, nod.imag], axis=-1).reshape(len(w), -1)
    with open(path, "w") as fh:
        fh.write(",".join(names) + ",w_re,w_im\n")
        fh.write(format_rows([nod.astype(float), w.real, w.imag]))


def _grid_points(extent: float, n: int, dim: int):
    ax = np.linspace(-extent, extent, n)
    grids = np.meshgrid(*([ax] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


# ---------------------------------------------------------------- commands

def cmd_quad(args) -> int:
    out = args.out
    if args.region is None and args.preset is None:
        print("quad: pass --preset or --region", file=sys.stderr)
        return 2
    if args.region is None:
        M = args.M
        if args.preset == "gauss-legendre":
            q = gauss_legendre_01(M)
        elif args.preset == "chebyshev":
            q = chebyshev_rule_for_j0(M)
        elif args.preset == "uniform":
            q = uniform_rule(args.band, M)
        elif args.preset in PRESET_NAMES:
            q = solve_moment_problem(preset_moments(args.preset, 1.0,
                                                    2 * M - 1), M)
        else:
            print("quad: unknown preset %r" % args.preset, file=sys.stderr)
            return 2
        if args.symmetric and not q.symmetric:
            q = symmetrize(q, args.band)
        rep = verify_moments(q, preset_moments(
            "sinc_cos" if args.preset in ("gauss-legendre", "uniform")
            else "j0_cos" if args.preset == "chebyshev" else args.preset,
            1.0, 2 * M - 1)) if not q.symmetric else None
        _write_json(os.path.join(out, "quadrature.json"),
                    quadrature_to_json(q))
        _write_rule_csv(os.path.join(out, "quadrature_nodes.csv"),
                        q.weights, q.nodes)
        if rep is not None:
            print("max moment residual: %.3e" % rep["max_abs"])
        wsum = np.sum(q.weights)
        print("nodes: %d  weight sum: %s" % (
            len(q.weights), "%.12g" % wsum if np.isrealobj(wsum)
            else "%.12g%+.12gj" % (wsum.real, wsum.imag)))
        return 0

    M = args.M
    if args.region == "triangle":
        spec = TriangleSpec(args.dp, args.s)
        q = triangle_quadrature(spec, M, M)
    elif args.region == "equilateral":
        if args.symmetric:
            q = equilateral_symmetric_quadrature(M, M)
        else:
            from .kernels import equilateral_spec
            q = triangle_quadrature(equilateral_spec(), M, M)
    elif args.region == "tetra":
        spec = regular_tetra_spec()
        q = (tetra_symmetric_quadrature(M, M, M) if args.symmetric
             else tetra_quadrature(spec, M, M, M))
    elif args.region == "cone":
        q = cone_quadrature(ConeSpec(args.omega0, args.pmax, 2), M, M, M)
    elif args.region == "ball":
        q = ball_quadrature(args.kmax, M, M, M)
    else:
        print("quad: unknown region %r" % args.region, file=sys.stderr)
        return 2
    _write_json(os.path.join(out, "quadrature.json"), quadrature_nd_to_json(q))
    _write_rule_csv(os.path.join(out, "quadrature_nodes.csv"),
                    q.weights, q.nodes)
    prof = q.provenance.get("error_profile", {})
    print("nodes: %d  weight sum: %.12g  profile max err: %s"
          % (len(q.weights), float(np.real(np.sum(q.weights))),
             ("%.3e" % prof["max_err"]) if prof else "n/a"))
    return 0


def cmd_approx_sinc(args) -> int:
    xs = np.linspace(-2.0, 2.0, args.grid if args.grid else 2001)
    if args.chirplet:
        ch = build_chirplet_approx(args.B0, args.M)
        err = np.abs(sinc(args.B0 * xs) - eval_chirplet_sum(ch, xs))
        doc = {"kind": "chirplet", "B0": args.B0, "M": args.M,
               "weights": [{"re": w.real, "im": w.imag}
                           for w in ch.weights],
               "nodes": [{"re": g.real, "im": g.imag} for g in ch.gammas],
               "max_error_on_[-2,2]": float(err.max())}
        _write_json(os.path.join(args.out, "sinc_approx.json"), doc)
    else:
        a = build_sinc_cosine_approx(args.B0, args.M)
        err = np.abs(error_epsilon_B(a, xs))
        doc = {"kind": "cosine-sum", "B0": a.B0, "M": args.M,
               "level": a.level, "reduced_band": a.B0 / 3 ** a.level,
               "frequencies": np.asarray(a.expanded.nodes,
                                         dtype=float).tolist(),
               "weights": np.asarray(a.expanded.weights,
                                     dtype=float).tolist(),
               "max_error_on_[-2,2]": float(err.max())}
        _write_json(os.path.join(args.out, "sinc_approx.json"), doc)
    with open(os.path.join(args.out, "sinc_approx_error.csv"), "w") as fh:
        fh.write("x,abs_error\n")
        fh.write(format_rows([xs, err]))
    print("max |sinc - approx| on [-2,2]: %.6e" % err.max())
    return 0


def cmd_pswf(args) -> int:
    B, M = args.band, args.M
    if args.uniform:
        q = uniform_rule(B, M)
    else:
        q = symmetrize(gauss_legendre_01(M), B)
    basis = (pswf_kernel_eigensystem(q, B) if args.kind == "kernel"
             else pswf_exp_eigensystem(q, B))
    _write_json(os.path.join(args.out, "eigenbasis.json"),
                eigenbasis_to_json(basis))
    with open(os.path.join(args.out, "eigenvalues.csv"), "w") as fh:
        lam = np.asarray(basis.eigenvalues_lambda)
        fh.write("n,mu,lambda_re,lambda_im\n")
        fh.write(format_rows([np.arange(len(lam)), basis.eigenvalues_mu,
                              lam.real, lam.imag]))
    n_half = int(np.sum(basis.eigenvalues_mu > 0.5))
    print("modes: %d  concentrated (mu > 1/2): %d  top mu: %.12g"
          % (len(basis.eigenvalues_mu), n_half,
             float(basis.eigenvalues_mu[0])))
    return 0


def cmd_kernel_eval(args) -> int:
    n = args.grid if args.grid else 41
    if args.region == "triangle":
        spec = TriangleSpec(args.dp, args.s)
        pts = _grid_points(args.extent, n, 2)
        vals = k_triangle(spec, pts[:, 0], pts[:, 1])
    elif args.region == "tetra":
        spec = regular_tetra_spec()
        pts = _grid_points(args.extent, n, 3)
        vals = k_tetra(spec, pts[:, 0], pts[:, 1], pts[:, 2])
    elif args.region == "cone":
        spec = ConeSpec(args.omega0, args.pmax, 2)
        ax = np.linspace(-args.extent, args.extent, n)
        rx = np.linspace(args.extent / n, args.extent, n)
        T, R = np.meshgrid(ax, rx, indexing="ij")
        pts = np.stack([T.ravel(), R.ravel()], axis=-1)
        vals = k_cone(spec, T.ravel(), R.ravel())
    elif args.region == "ball":
        pts = _grid_points(args.extent, n, 1)
        vals = k_ball(args.kmax, np.abs(pts[:, 0]))
    else:
        print("kernel-eval: unknown region %r" % args.region,
              file=sys.stderr)
        return 2
    fld = SampledField(PointSet(pts), np.asarray(vals, dtype=complex),
                       label="%s kernel" % args.region)
    write_field_csv(fld, os.path.join(args.out, "kernel_field.csv"))
    print("wrote %d samples; max |K| = %.6g"
          % (len(pts), float(np.max(np.abs(vals)))))
    return 0


def _load_kernel(path: str):
    """Node-cloud JSON (a cascade or a banded kernel), or a 1D rule JSON
    promoted to a unit-band interval kernel."""
    with open(path) as fh:
        doc = json.load(fh)
    if "region" in doc:
        return quadrature_nd_from_json(doc)
    from .moments import quadrature_from_json
    return expsum_kernel(quadrature_from_json(doc))


def cmd_project(args) -> int:
    fld = read_field_csv(args.field)
    kern = _load_kernel(args.kernel)
    if args.grid:
        pts = fld.points.points
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        axes = [np.linspace(a, b, args.grid) for a, b in zip(lo, hi)]
        grids = np.meshgrid(*axes, indexing="ij")
        epts = np.stack([g.ravel() for g in grids], axis=-1)
    else:
        epts = fld.points.points
    if not kern.provenance.get("error_profile"):
        pts = fld.points.points
        support = [(float(a), float(b)) for a, b in zip(pts.min(axis=0),
                                                        pts.max(axis=0))]
        box = needed_base_box(kern, epts, support)
        box = [[lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo)]
               for lo, hi in box]
        n_meas = {1: 2001, 2: 121, 3: 31}.get(kern.nodes.shape[1], 31)
        kern = measure_kernel_profile(kern, box, grid_n=n_meas)
        print("measured kernel profile: max err %.3e over %s"
              % (kern.scaled_error_max(), box))
    res = rlimited_discrete_fourier(fld, kern, epts)
    write_field_csv(res.field, os.path.join(args.out, "projection.csv"))
    _write_json(os.path.join(args.out, "projection_bound.json"),
                {"error_bound": res.error_bound,
                 "provenance": res.provenance})
    print("projected %d -> %d points; error bound %.6e"
          % (len(fld.values), len(epts), res.error_bound))
    return 0


def cmd_verify(args) -> int:
    suites = None
    if args.suite:
        suites = []
        for chunk in args.suite:
            suites.extend(s for s in chunk.split(",") if s)
    report = verify_mod.run_all(suites=suites, grid=args.grid,
                                tol=args.tol, seed=args.seed)
    _write_json(os.path.join(args.out, "verify_report.json"), report)
    failed = []
    for row in report["checks"]:
        mark = "pass" if row["pass"] else "FAIL"
        print("[%s] %-55s  measured %.6e  bound %.6e"
              % (mark, row["name"], row["value_measured"],
                 row["bound_claimed"]))
        if not row["pass"]:
            failed.append(row["name"])
    print("runtime: %.1f s  (%d checks, %d failed)"
          % (report["runtime_s"], len(report["checks"]), len(failed)))
    if failed:
        print("failed: %s" % "; ".join(failed), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--grid", type=int, default=None,
                        help="grid points per axis where applicable")
    common.add_argument("--tol", type=float, default=None,
                        help="extra relative slack for verify bounds")
    common.add_argument("--seed", type=int, default=None,
                        help="seed for generated test data")

    p = argparse.ArgumentParser(prog="rlimited",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quad", parents=[common],
                       help="build a quadrature rule")
    q.add_argument("--preset", default=None,
                   help="1D moment preset (gauss-legendre, chebyshev, "
                        "uniform, or a solver preset name)")
    q.add_argument("--region", default=None,
                   choices=["triangle", "equilateral", "tetra", "cone",
                            "ball"])
    q.add_argument("--M", type=int, default=8)
    q.add_argument("--band", type=float, default=1.0)
    q.add_argument("--symmetric", action="store_true")
    q.add_argument("--dp", type=float, default=0.8)
    q.add_argument("--s", type=float, default=0.7)
    q.add_argument("--omega0", type=float, default=1.0)
    q.add_argument("--pmax", type=float, default=1.0)
    q.add_argument("--kmax", type=float, default=1.0)
    q.set_defaults(func=cmd_quad)

    a = sub.add_parser("approx-sinc", parents=[common],
                       help="cosine or chirplet expansion of the sinc")
    a.add_argument("--B0", type=float, default=20.0)
    a.add_argument("--M", type=int, default=6)
    a.add_argument("--chirplet", action="store_true")
    a.set_defaults(func=cmd_approx_sinc)

    w = sub.add_parser("pswf", parents=[common],
                       help="concentration eigensystem on a rule")
    w.add_argument("--band", type=float, default=2.0)
    w.add_argument("--M", type=int, default=10)
    w.add_argument("--kind", choices=["exp", "kernel"], default="kernel")
    w.add_argument("--uniform", action="store_true")
    w.set_defaults(func=cmd_pswf)

    k = sub.add_parser("kernel-eval", parents=[common],
                       help="closed-form kernel field on a grid")
    k.add_argument("--region", required=True,
                   choices=["triangle", "tetra", "cone", "ball"])
    k.add_argument("--dp", type=float, default=75.0)
    k.add_argument("--s", type=float, default=1.0 / np.sqrt(3.0))
    k.add_argument("--omega0", type=float, default=50.0)
    k.add_argument("--pmax", type=float, default=1.0)
    k.add_argument("--kmax", type=float, default=1.0)
    k.add_argument("--extent", type=float, default=1.0)
    k.set_defaults(func=cmd_kernel_eval)

    j = sub.add_parser("project", parents=[common],
                       help="apply an exponential-sum kernel to a field")
    j.add_argument("--field", required=True, help="input SampledField CSV")
    j.add_argument("--kernel", required=True, help="kernel JSON")
    j.set_defaults(func=cmd_project)

    v = sub.add_parser("verify", parents=[common],
                       help="run the release-gate suites")
    v.add_argument("--suite", action="append", default=None,
                   help="suite name, repeatable or comma separated "
                        "(default: all)")
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except (ValueError, KeyError, OSError, OverflowError,
            json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
