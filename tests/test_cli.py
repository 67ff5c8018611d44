"""CLI front end: exit codes, artifacts, determinism."""
import json
import os
import warnings

import numpy as np
import pytest

from rlimited.cli import main
from rlimited.kernels import k_ball
from rlimited.moments import quadrature_from_json, quadrature_to_json
from rlimited.numkit import SampledField, dumps_json, make_grid, \
    read_field_csv, write_field_csv
from rlimited.projection import bandlimited_projection_oracle
from rlimited.sincapprox import build_sinc_cosine_approx, frequency_rule


def test_quad_preset_gauss_legendre(tmp_path, capsys):
    rc = main(["quad", "--preset", "gauss-legendre", "--M", "8",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max moment residual" in out and "nodes: 8" in out
    q = quadrature_from_json(
        json.load(open(tmp_path / "quadrature.json")))
    assert len(q.weights) == 8
    assert abs(float(np.sum(q.weights)) - 1.0) < 1e-14
    lines = open(tmp_path / "quadrature_nodes.csv").read().splitlines()
    assert lines[0] == "x1,w_re,w_im"
    assert len(lines) == 9


def test_quad_complex_rule_csv_keeps_imaginary_parts(tmp_path, capsys):
    # sinc_gauss at M=4 has two conjugate node pairs; the CSV must carry
    # the imaginary parts and the printed weight sum must be complex
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["quad", "--preset", "sinc_gauss", "--M", "4",
                     "--out", str(tmp_path)]) == 0
    q = quadrature_from_json(json.load(open(tmp_path / "quadrature.json")))
    lines = open(tmp_path / "quadrature_nodes.csv").read().splitlines()
    assert lines[0] == "x1_re,x1_im,w_re,w_im"
    rows = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]])
    nodes = rows[:, 0] + 1j * rows[:, 1]
    weights = rows[:, 2] + 1j * rows[:, 3]
    assert np.array_equal(nodes, q.nodes)
    assert np.array_equal(weights, q.weights)
    assert nodes[0] == np.conj(nodes[1]) and nodes[0].imag != 0.0
    wsum = np.sum(q.weights)
    out = capsys.readouterr().out
    assert "weight sum: %.12g%+.12gj" % (wsum.real, wsum.imag) in out


def test_quad_preset_uniform_symmetric(tmp_path, capsys):
    rc = main(["quad", "--preset", "uniform", "--band", "5.25",
               "--M", "10", "--symmetric", "--out", str(tmp_path)])
    assert rc == 0
    q = quadrature_from_json(
        json.load(open(tmp_path / "quadrature.json")))
    assert q.symmetric and len(q.weights) == 21
    assert abs(float(np.sum(q.weights)) - 2 * 5.25) < 1e-12


def test_quad_region_triangle(tmp_path, capsys):
    rc = main(["quad", "--region", "triangle", "--M", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nodes: 36" in out and "profile max err" in out
    assert "weight sum: 0.448" in out
    doc = json.load(open(tmp_path / "quadrature.json"))
    assert doc["region"]["kind"] == "triangle"
    assert len(open(tmp_path / "quadrature_nodes.csv")
               .read().splitlines()) == 37


def test_quad_bad_input_exit_2(tmp_path, capsys):
    assert main(["quad", "--out", str(tmp_path)]) == 2
    assert main(["quad", "--preset", "bogus", "--out", str(tmp_path)]) == 2
    assert main(["quad", "--preset", "sinc_gauss", "--M", "4", "--symmetric",
                 "--out", str(tmp_path)]) == 2
    with warnings.catch_warnings():    # the overflow prints no warning
        warnings.simplefilter("error")
        assert main(["quad", "--preset", "gauss_cos", "--M", "100",
                     "--out", str(tmp_path)]) == 2
    for bad in (["--region", "ball", "--kmax", "-1"],
                ["--region", "cone", "--omega0", "-1"],
                ["--region", "triangle", "--dp", "-0.5"],
                ["--region", "triangle", "--s", "0"],
                ["--preset", "uniform", "--band", "-2"]):
        assert main(["quad", *bad, "--M", "3", "--out", str(tmp_path)]) == 2
    assert main(["kernel-eval", "--region", "ball", "--kmax", "-1",
                 "--grid", "3", "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "quadrature.json").exists()
    assert not (tmp_path / "kernel_field.csv").exists()
    err = capsys.readouterr().err
    assert "pass --preset or --region" in err
    assert "unknown preset" in err
    assert "error: cannot symmetrize a rule with complex" in err
    assert "error: preset 'gauss_cos' overflows" in err
    assert "Traceback" not in err


def test_quad_rerun_is_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["quad", "--preset", "gauss-legendre", "--M", "6",
                     "--out", str(d)]) == 0
    assert (d1 / "quadrature.json").read_bytes() \
        == (d2 / "quadrature.json").read_bytes()
    assert (d1 / "quadrature_nodes.csv").read_bytes() \
        == (d2 / "quadrature_nodes.csv").read_bytes()


def test_approx_sinc_cosine(tmp_path, capsys):
    rc = main(["approx-sinc", "--grid", "501", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.load(open(tmp_path / "sinc_approx.json"))
    assert doc["kind"] == "cosine-sum"
    assert doc["level"] == 3
    assert abs(doc["reduced_band"] - 20.0 / 27.0) < 1e-15
    assert len(doc["frequencies"]) == 162
    assert doc["max_error_on_[-2,2]"] < 1e-14
    lines = open(tmp_path / "sinc_approx_error.csv").read().splitlines()
    assert lines[0] == "x,abs_error" and len(lines) == 502


def test_approx_sinc_chirplet(tmp_path, capsys):
    rc = main(["approx-sinc", "--chirplet", "--B0", "20", "--M", "6",
               "--grid", "301", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.load(open(tmp_path / "sinc_approx.json"))
    assert doc["kind"] == "chirplet"
    assert len(doc["nodes"]) == 4
    assert doc["max_error_on_[-2,2]"] < 1e-10


def test_pswf_uniform_resolving_band(tmp_path, capsys):
    rc = main(["pswf", "--uniform", "--band", "5.25", "--M", "10",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "concentrated (mu > 1/2): 21" in out
    lines = open(tmp_path / "eigenvalues.csv").read().splitlines()
    assert lines[0] == "n,mu,lambda_re,lambda_im" and len(lines) == 22
    mu = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert np.max(np.abs(mu - 1.0)) < 1e-10
    assert (tmp_path / "eigenbasis.json").exists()


@pytest.mark.parametrize("grid", [11, 3])
def test_kernel_eval_ball_matches_direct(tmp_path, capsys, grid):
    rc = main(["kernel-eval", "--region", "ball", "--kmax", "1.0",
               "--grid", str(grid), "--extent", "0.9", "--out",
               str(tmp_path)])
    assert rc == 0
    fld = read_field_csv(str(tmp_path / "kernel_field.csv"))
    pts = fld.points.points
    assert len(pts) == grid
    direct = k_ball(1.0, np.abs(pts[:, 0]))
    assert np.max(np.abs(fld.values - direct)) < 1e-15


@pytest.fixture()
def project_inputs(tmp_path):
    fr = frequency_rule(build_sinc_cosine_approx(2.0, 10))
    kpath = tmp_path / "rule.json"
    kpath.write_text(dumps_json(quadrature_to_json(fr)))
    f = lambda s: np.cos(np.pi * s / 2) ** 2 * np.cos(1.7 * s)
    grid = make_grid([-1.0], [1.0], [801])
    fld = SampledField(grid, f(grid.points[:, 0]).astype(complex))
    fpath = tmp_path / "field.csv"
    write_field_csv(fld, str(fpath))
    return fpath, kpath, f


def test_project_round_trip(tmp_path, capsys, project_inputs):
    fpath, kpath, f = project_inputs
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        rc = main(["project", "--field", str(fpath),
                   "--kernel", str(kpath), "--out", str(out)])
        assert rc == 0
    text = capsys.readouterr().out
    assert "measured kernel profile" in text
    assert (out1 / "projection.csv").read_bytes() \
        == (out2 / "projection.csv").read_bytes()
    res = read_field_csv(str(out1 / "projection.csv"))
    orc = bandlimited_projection_oracle(f, 2.0, res.points.points[:, 0])
    assert np.max(np.abs(res.values - orc)) < 1e-10
    doc = json.load(open(out1 / "projection_bound.json"))
    assert doc["error_bound"] < 1e-12
    assert doc["provenance"]["route"] == "discrete-fourier"


def test_project_reads_banded_kernel_layout(tmp_path, capsys,
                                            project_inputs):
    # the kernel JSON layout with a top-level band and error profile, here
    # the interval kernel of the band-2 frequency rule (band [[2.0]])
    fpath, kpath, _ = project_inputs
    fr = frequency_rule(build_sinc_cosine_approx(2.0, 10))
    kernel = {"weights": [float(w) for w in fr.weights],
              "nodes": [[float(k)] for k in fr.nodes],
              "band": [[2.0]],
              "region": {"kind": "interval", "params": {},
                         "symmetric": True},
              "error_profile": {"max_err": 1e-14,  # a stand-in value
                                "box": [[-5.0, 5.0]],
                                "grid_n": 2001}}
    banded = tmp_path / "kernel.json"
    banded.write_text(json.dumps(kernel))
    outs = tmp_path / "rule", tmp_path / "kernel"
    for kernel_path, out in zip((kpath, banded), outs):
        assert main(["project", "--field", str(fpath), "--kernel",
                     str(kernel_path), "--out", str(out)]) == 0
    # the rule route measures a profile; the kernel route uses its own
    assert capsys.readouterr().out.count("measured kernel profile") == 1
    assert (outs[0] / "projection.csv").read_bytes() \
        == (outs[1] / "projection.csv").read_bytes()
    doc = json.load(open(outs[1] / "projection_bound.json"))
    assert doc["error_bound"] == 2.0 * 1.0 * 1e-14  # |X| max|f| max_err


def test_project_missing_field_exit_2(tmp_path, capsys, project_inputs):
    _, kpath, _ = project_inputs
    rc = main(["project", "--field", str(tmp_path / "nope.csv"),
               "--kernel", str(kpath), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_project_field_row_count_mismatch_exit_2(tmp_path, capsys,
                                                project_inputs):
    # one row more than the header declares
    fpath, kpath, _ = project_inputs
    lines = fpath.read_text().splitlines()
    fpath.write_text("\n".join(lines + [lines[-1]]) + "\n")
    rc = main(["project", "--field", str(fpath), "--kernel", str(kpath),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: field CSV header says 801 points, body has "
                          "802 rows") and err.count("\n") == 1
    assert not (tmp_path / "o" / "projection.csv").exists()


def test_verify_single_suite(tmp_path, capsys):
    rc = main(["verify", "--suite", "moments", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[pass]" in out and "FAIL" not in out
    report = json.load(open(tmp_path / "verify_report.json"))
    assert all(row["pass"] for row in report["checks"])


def test_verify_unknown_suite_exit_2(tmp_path, capsys):
    rc = main(["verify", "--suite", "nonsense", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
