"""CLI front end: exit codes, artifacts, determinism."""
import json
import os
import warnings

import numpy as np
import pytest

from rlimited import cli
from rlimited.cli import main
from rlimited.kernels import k_ball, quadrature_nd_from_json
from rlimited.moments import quadrature_from_json, quadrature_to_json
from rlimited.numkit import PointSet, SampledField, dumps_json, make_grid, \
    read_field_csv, write_field_csv
from rlimited.projection import bandlimited_projection_oracle, \
    expsum_kernel, measure_kernel_profile
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


@pytest.mark.parametrize("band,M,kind", [("20", "40", "exp"),
                                          ("5", "16", "exp"),
                                          ("5", "16", "kernel")])
def test_pswf_under_resolved_band_exit_2(tmp_path, capsys, band, M, kind):
    # top mu was 2.21 (B=20, M=40) and 1.04 (B=5, M=16), printed with exit 0
    rc = main(["pswf", "--band", band, "--M", M, "--kind", kind,
               "--out", str(tmp_path)])
    assert rc == 2
    cap = capsys.readouterr()
    assert cap.err.startswith("error: under-resolved rule") \
        and cap.err.count("\n") == 1
    assert "top mu" not in cap.out
    assert not (tmp_path / "eigenbasis.json").exists()


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


def test_project_field_with_a_duplicated_grid_point_exit_2(tmp_path, capsys):
    # four points for four slots of a 2x2 grid, but (0,0) twice and (1,1)
    # missing: the projection would silently integrate the wrong field
    assert main(["quad", "--region", "triangle", "--M", "2",
                 "--out", str(tmp_path / "k")]) == 0
    pts = np.array([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0)])
    fpath = tmp_path / "field.csv"
    write_field_csv(SampledField(PointSet(pts), np.ones(4, dtype=complex)),
                    str(fpath))
    capsys.readouterr()
    rc = main(["project", "--field", str(fpath), "--kernel",
               str(tmp_path / "k" / "quadrature.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "do not form a tensor grid" in capsys.readouterr().err
    assert not (tmp_path / "o" / "projection.csv").exists()


def _line_field(path):
    """41 samples of a cos^2 bump along x = 0: a 1 x 41 grid in 2D."""
    y = np.linspace(-0.5, 0.5, 41)
    pts = np.stack([np.zeros_like(y), y], axis=-1)
    write_field_csv(SampledField(PointSet(pts),
                                 (np.cos(np.pi * y) ** 2).astype(complex)),
                    str(path))


def test_project_field_with_a_length_1_axis_exit_2(tmp_path, capsys):
    # |X| is the product of the axis extents, so the bound read 0.0 while
    # the projected values reached 0.133
    assert main(["quad", "--region", "triangle", "--M", "3",
                 "--out", str(tmp_path / "k")]) == 0
    _line_field(tmp_path / "field.csv")
    capsys.readouterr()
    rc = main(["project", "--field", str(tmp_path / "field.csv"), "--kernel",
               str(tmp_path / "k" / "quadrature.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "at least 2 points on every axis" in capsys.readouterr().err
    assert not (tmp_path / "o" / "projection.csv").exists()


def test_project_kernel_union_without_parts_exit_2(tmp_path, capsys):
    # the region parsed, and the first membership test iterated
    # parts=None: a TypeError traceback and exit 1
    kpath = tmp_path / "kernel.json"
    kpath.write_text(json.dumps({"weights": [1.0], "nodes": [[0.5, 0.0]],
                                 "region": {"kind": "union"}}))
    _line_field(tmp_path / "field.csv")
    rc = main(["project", "--field", str(tmp_path / "field.csv"),
               "--kernel", str(kpath), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "union region needs at least one part" in capsys.readouterr().err


@pytest.mark.parametrize("params, match", [
    ([0.8, 0.7], "params must be an object"),
    ({"dp": "a", "s": 0.7}, "needs finite real numbers")],
    ids=["list", "string-value"])
def test_project_kernel_with_malformed_params_exit_2(tmp_path, capsys,
                                                     params, match):
    # params as a list raised AttributeError in region_from_json, and a
    # string value TypeError in the triangle membership test: exit 1
    kpath = tmp_path / "kernel.json"
    kpath.write_text(json.dumps({"weights": [1.0], "nodes": [[0.5, 0.0]],
                                 "region": {"kind": "triangle",
                                            "params": params}}))
    _line_field(tmp_path / "field.csv")
    capsys.readouterr()
    rc = main(["project", "--field", str(tmp_path / "field.csv"),
               "--kernel", str(kpath), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert match in err[0]


@pytest.mark.parametrize("region, match", [
    ({"kind": "triangle", "params": {"dp": 0.8, "s": 0.7}, "transform": 5},
     "region transform must be an array of arrays"),
    ({"kind": "union", "parts": 5}, "region parts must be an array"),
    ([{"kind": "triangle", "params": {"dp": 0.8, "s": 0.7}}],
     "region must be an object"),
    ({"kind": "triangle", "params": {"dp": 0.8, "s": 0.7},
      "symmetric": "no"}, "region symmetric must be true or false")],
    ids=["transform-int", "parts-int", "region-list", "symmetric-string"])
def test_project_kernel_with_malformed_region_exit_2(tmp_path, capsys,
                                                     region, match):
    # transform and parts raised TypeError and a list region AttributeError,
    # each a traceback with exit 1; "symmetric": "no" was read as true and
    # the projection exited 0
    kpath = tmp_path / "kernel.json"
    kpath.write_text(json.dumps({"weights": [1.0], "nodes": [[0.5, 0.0]],
                                 "region": region}))
    _line_field(tmp_path / "field.csv")
    capsys.readouterr()
    rc = main(["project", "--field", str(tmp_path / "field.csv"),
               "--kernel", str(kpath), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert match in err[0]
    assert not (tmp_path / "o" / "projection.csv").exists()


_RULE = {"band": 2.0, "symmetric": True, "weights": [1.0], "nodes": [0.5]}


@pytest.mark.parametrize("doc, match", [
    ([], "1D rule must be a JSON object, not list"),
    (5, "1D rule must be a JSON object, not int"),
    ({k: v for k, v in _RULE.items() if k != "band"},
     "1D rule has no 'band' key"),
    ({k: v for k, v in _RULE.items() if k != "symmetric"},
     "1D rule has no 'symmetric' key"),
    (dict(_RULE, symmetric="no"), "1D rule symmetric must be true or false"),
    (dict(_RULE, weights=5), "1D rule weights must be an array"),
    (dict(_RULE, weights=[None]), "1D rule weights must hold finite"),
    (dict(_RULE, weights=[float("nan")]), "1D rule weights must hold finite"),
    (dict(_RULE, nodes=[[1, 2, 3]]), "1D rule nodes must hold finite"),
    (dict(_RULE, weights=[1.0, 2.0], nodes=[[0.5, 0.0], 0.25]),
     "1D rule nodes must hold finite"),
    (dict(_RULE, provenance=5), "1D rule provenance must be an object"),
    (dict(_RULE, band=0), "1D rule band must be a finite number > 0"),
    (dict(_RULE, band=-2.0), "1D rule band must be a finite number > 0"),
    (dict(_RULE, band=float("nan")),
     "1D rule band must be a finite number > 0")],
    ids=["list", "int", "no-band", "no-symmetric", "symmetric-string",
         "weights-int", "weights-null", "weights-nan", "nodes-3-row",
         "nodes-mixed", "provenance-int", "band-zero", "band-negative",
         "band-nan"])
def test_project_malformed_rule_document_exit_2(tmp_path, capsys, doc,
                                                match):
    # a list or int document, a null entry, a mixed nodes array and an int
    # provenance raised TypeError (exit 1), a 3-entry row printed only "too
    # many values to unpack", a missing key printed only the bare KeyError
    # text, "symmetric": "no" read as true, a zero band divided by zero
    # (exit 1), and a negative or NaN band reached the projection
    kpath = tmp_path / "rule.json"
    kpath.write_text(json.dumps(doc))
    _line_field(tmp_path / "field.csv")
    capsys.readouterr()
    rc = main(["project", "--field", str(tmp_path / "field.csv"),
               "--kernel", str(kpath), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert match in err[0]
    assert not (tmp_path / "o" / "projection.csv").exists()


_CLOUD = {"weights": [1.0], "nodes": [[0.5, 0.0]],
          "region": {"kind": "triangle", "params": {"dp": 0.8, "s": 0.7}}}
_PROFILE = {"max_err": 1e-9, "box": [[-1.0, 1.0], [-1.0, 1.0]], "grid_n": 5}


def _profiled(**profile):
    """_CLOUD with _PROFILE, changed by profile, in its provenance."""
    return dict(_CLOUD, provenance={"error_profile": dict(_PROFILE,
                                                          **profile)})


@pytest.mark.parametrize("doc, match", [
    (dict(_CLOUD, provenance=5), "kernel provenance must be an object"),
    (dict(_CLOUD, error_profile=5), "kernel error_profile must be an object"),
    (dict(_CLOUD, weights=5), "kernel weights must be an array"),
    (dict(_CLOUD, weights=[None]), "kernel weights must hold finite numbers"),
    (dict(_CLOUD, weights=[float("nan")]),
     "kernel weights must hold finite numbers"),
    (dict(_CLOUD, weights=[True]), "kernel weights must hold finite numbers"),
    (dict(_CLOUD, nodes=[[0.5, None]]),
     "kernel nodes must hold equal-length rows of finite numbers"),
    (dict(_CLOUD, weights=[1.0, 1.0], nodes=[[0.5, 0.0], [0.25]]),
     "kernel nodes must hold equal-length rows of finite numbers"),
    (dict(_CLOUD, weights=[1.0, 1.0], nodes=[0.5, 0.0]),
     "kernel nodes must hold equal-length rows of finite numbers"),
    (dict(_CLOUD, band=[[1.0, None], [0.0, 1.0]]),
     "kernel band must hold equal-length rows of finite numbers"),
    (dict(_CLOUD, provenance={"error_profile": 5}),
     "kernel error_profile must be an object"),
    (_profiled(max_err=None),
     "kernel error_profile max_err must be a finite number >= 0"),
    (_profiled(max_err=-1.0), "kernel error_profile max_err must be"),
    (_profiled(box={}), "kernel error_profile box must be an array"),
    (_profiled(box=None), "kernel error_profile box must be an array"),
    (_profiled(box=[[-1.0, 1.0]]), "kernel error_profile box must hold"),
    (_profiled(box=[[-1.0, 0.0, 1.0]] * 2),
     "kernel error_profile box must hold"),
    (_profiled(grid_n="a"), "kernel error_profile grid_n must be an int"),
    (dict(_CLOUD, error_profile=dict(_PROFILE, box=None)),
     "kernel error_profile box must be an array"),
    (dict(_CLOUD, symmetry_group=[{}]), "kernel symmetry_group must hold"),
    (dict(_CLOUD, symmetry_group=[None]), "kernel symmetry_group must hold"),
    (dict(_CLOUD, symmetry_group=[5]), "kernel symmetry_group must hold"),
    (dict(_CLOUD, symmetry_group=[[1, 2]]), "kernel symmetry_group must hold"),
    (dict(_CLOUD, symmetry_group=[np.eye(3).tolist()]),
     "kernel symmetry_group must hold"),
    (dict(_CLOUD, region=dict(_CLOUD["region"],
                              transform=[[1, "a"], [0, 1]])),
     "region transform must hold"),
    (dict(_CLOUD, region=dict(_CLOUD["region"], transform=[[1]])),
     "region transform must be 2 x 2"),
    (dict(_profiled(), region={"kind": "triangle",
                               "params": {"dp": True, "s": 0.7}}),
     "a triangle region needs finite real numbers > 0")],
    ids=["provenance-int", "error-profile-int", "weights-int", "weights-null",
         "weights-nan", "weights-bool", "nodes-null", "nodes-ragged",
         "nodes-flat", "band-null", "profile-int", "max-err-null",
         "max-err-negative", "box-object", "box-null", "box-one-row",
         "box-3-columns", "grid-n-string", "top-level-box-null",
         "group-object", "group-null", "group-int", "group-row", "group-3x3",
         "transform-string", "transform-1x1", "region-param-bool"])
def test_project_malformed_cloud_document_exit_2(tmp_path, capsys, doc,
                                                 match):
    # an int provenance or error_profile raised TypeError (exit 1); null,
    # NaN and boolean entries were read as numbers and reached the
    # projection, and ragged or flat nodes failed without naming the key.
    # The profile in provenance was read unchecked: an int profile, a null
    # max_err or an object box raised TypeError, a null box IndexError, and
    # a string grid_n was read; a symmetry_group entry {} raised TypeError,
    # and null, 5 or a row were read as matrices; a transform with text or
    # of the wrong size failed with numpy's text, naming no key; a boolean
    # region parameter read as 1
    kpath = tmp_path / "kernel.json"
    kpath.write_text(json.dumps(doc))
    _line_field(tmp_path / "field.csv")
    capsys.readouterr()
    rc = main(["project", "--field", str(tmp_path / "field.csv"),
               "--kernel", str(kpath), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert match in err[0]
    assert not (tmp_path / "o" / "projection.csv").exists()


@pytest.mark.parametrize("argv", [
    ["quad", "--preset", "gauss-legendre", "--M", "4"],
    ["quad", "--preset", "sinc_cos", "--M", "4", "--symmetric"],
    ["quad", "--preset", "sinc_gauss", "--M", "4"],
    ["quad", "--preset", "j1_cosinc", "--M", "4"]],
    ids=["gauss-legendre", "sinc_cos-symmetric", "sinc_gauss-complex",
         "j1_cosinc"])
def test_quad_rule_documents_read_back(tmp_path, capsys, argv):
    # the reader's entry checks pass every rule quad writes, real entries
    # and complex [re, im] rows alike
    assert main(argv + ["--out", str(tmp_path)]) == 0
    doc = json.load(open(tmp_path / "quadrature.json"))
    assert quadrature_to_json(quadrature_from_json(doc)) == doc


QUAD_REGIONS = {
    "triangle": ["--region", "triangle"],
    "equilateral": ["--region", "equilateral"],
    "equilateral-symmetric": ["--region", "equilateral", "--symmetric"],
    "tetra": ["--region", "tetra"],
    "tetra-symmetric": ["--region", "tetra", "--symmetric"],
    "cone": ["--region", "cone"],
    "ball": ["--region", "ball"],
}


@pytest.mark.parametrize("name", sorted(QUAD_REGIONS))
def test_quad_region_profile_reads_back_as_measured(tmp_path, capsys, name):
    # the recorded profile, after the JSON round trip, is the one project's
    # routine measures on the same box and grid; the tetra pieces' union
    # differed by the |det(R P)| = 1 +- 4e-16 factor of each copy
    assert main(["quad", *QUAD_REGIONS[name], "--M", "4",
                 "--out", str(tmp_path)]) == 0
    q = quadrature_nd_from_json(json.load(open(tmp_path / "quadrature.json")))
    prof = q.provenance["error_profile"]
    again = measure_kernel_profile(expsum_kernel(q), prof["box"],
                                   prof["grid_n"])
    assert again.provenance["error_profile"] == prof


@pytest.mark.parametrize("argv", [
    ["quad", "--preset", "gauss-legendre", "--M", "4", "--tol", "1"],
    ["quad", "--preset", "gauss-legendre", "--M", "4", "--seed", "9"],
    ["quad", "--preset", "gauss-legendre", "--M", "4", "--grid", "7"],
    ["pswf", "--grid", "5"],
    ["kernel-eval", "--region", "ball", "--seed", "3"],
    ["project", "--field", "f.csv", "--kernel", "k.json", "--tol", "1"],
    ["verify", "--tol", "1"],
    ["verify", "--grid", "5"]],
    ids=["quad-tol", "quad-seed", "quad-grid", "pswf-grid",
         "kernel-eval-seed", "project-tol", "verify-tol", "verify-grid"])
def test_option_the_command_does_not_read_exit_2(tmp_path, capsys, argv):
    # every subcommand took --grid, --tol and --seed and ignored those it
    # does not read, with exit 0; verify read --tol as slack on its bounds
    # and --grid as two suites' grid sizes
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


BAD_SIZES = [(cmd, "--grid", v) for cmd in ("approx-sinc", "kernel-eval",
                                            "project")
             for v in ("0", "1", "-3")] \
    + [("kernel-eval", "--extent", v) for v in ("0", "-1", "nan")]


@pytest.mark.parametrize("command, option, value", BAD_SIZES,
                         ids=["%s%s=%s" % c for c in BAD_SIZES])
def test_grid_and_extent_out_of_range_exit_2(tmp_path, capsys,
                                             project_inputs, command, option,
                                             value):
    # --grid 0 read as no --grid (2001 points, a 41^2 field, or the field's
    # own points), --grid 1 ran on one point per axis and --grid -3 exited 2
    # with numpy's message only; --extent 0 wrote copies of the origin,
    # --extent -1 a mirrored grid (negative cone radii), --extent nan NaNs
    fpath, kpath, _ = project_inputs
    argv = {"approx-sinc": ["approx-sinc", "--M", "4"],
            "kernel-eval": ["kernel-eval", "--region", "triangle"],
            "project": ["project", "--field", str(fpath),
                        "--kernel", str(kpath)]}[command]
    capsys.readouterr()
    rc = main(argv + [option, value, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: " + option), err
    assert not (tmp_path / "o").exists()


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


def test_main_twice_in_one_process(tmp_path, capsys, monkeypatch):
    # the parser is built once and kept: a command rebound after the first
    # call is the one the second call runs, and no option value of the
    # first call carries over into the second
    assert main(["verify", "--seed", "9", "--out", str(tmp_path / "a")]) == 0
    assert json.load(open(tmp_path / "a" / "verify_report.json"))["checks"]
    seen = []
    monkeypatch.setattr(cli, "cmd_verify",
                        lambda args: seen.append(vars(args).copy()) or 0)
    assert main(["verify", "--suite", "nyquist", "--out",
                 str(tmp_path / "b")]) == 0
    assert seen == [{"command": "verify", "out": str(tmp_path / "b"),
                     "suite": ["nyquist"], "seed": None}]
    assert not (tmp_path / "b" / "verify_report.json").exists()
