"""Artifact codec: dumps_json and format_rows against the writers they
replaced, json.dump over a numpy-stripping walk and per-element %.17g rows.
"""
import io
import json
import math
import os

import numpy as np
import pytest

from rlimited import cli
from rlimited.cli import main
from rlimited.kernels import TriangleSpec, quadrature_nd_to_json, \
    triangle_quadrature
from rlimited.numkit import PointSet, SampledField, dumps_json, \
    format_rows, make_grid, read_field_csv, write_field_csv


# ------------------------------------------------------------ the oracles

def old_plain(obj):
    """Recursively strip numpy types for json dumping."""
    if isinstance(obj, dict):
        return {k: old_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [old_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return old_plain(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def old_json(doc) -> str:
    fh = io.StringIO()
    json.dump(old_plain(doc), fh, indent=2)
    return fh.getvalue()


def old_rows(cols) -> str:
    """One value at a time, each through its own %.17g call."""
    lines = []
    for i in range(len(cols[0])):
        vals = []
        for c in cols:
            v = c[i]
            vals.extend(v if np.ndim(v) else [v])
        lines.append(",".join("%.17g" % v for v in vals) + "\n")
    return "".join(lines)


def old_write_json(path, doc):
    with open(path, "w") as fh:
        fh.write(old_json(doc) + "\n")


def old_write_rule_csv(path, weights, nodes):
    # per-element rows; complex nodes as x<i>_re,x<i>_im column pairs
    w = np.asarray(weights)
    nod = np.atleast_2d(np.asarray(nodes))
    if nod.shape[0] != len(w):
        nod = nod.T
    names = ["x%d" % (i + 1) for i in range(nod.shape[1])]
    if np.iscomplexobj(nod):
        names = [x + part for x in names for part in ("_re", "_im")]
        nod = [[p for c in row for p in (c.real, c.imag)] for row in nod]
    with open(path, "w") as fh:
        fh.write(",".join(names) + ",w_re,w_im\n")
        for row, wv in zip(nod, w):
            wc = complex(wv)
            fh.write(",".join("%.17g" % c for c in row)
                     + ",%.17g,%.17g\n" % (wc.real, wc.imag))


def old_write_field_csv(fld, path):
    pts = fld.points.points
    with open(path, "w") as fh:
        fh.write("dim,n_points\n")
        fh.write("%d,%d\n" % (pts.shape[1], pts.shape[0]))
        for row, v in zip(pts, fld.values):
            coords = ",".join("%.17g" % c for c in row)
            fh.write("%s,%.17g,%.17g\n" % (coords, v.real, v.imag))


# ------------------------------------------------------------ JSON

SUB = 5e-324                      # smallest subnormal
SPECIAL = [0.1, -0.0, 0.0, SUB, 2.5e-310, -1e-320, 1.7976931348623157e308,
           math.nan, math.inf, -math.inf, 1e16, 123456789.0]
RNG = np.random.default_rng(7)
WIDE = RNG.standard_normal((9, 4)) * 10.0 ** RNG.integers(-300, 300, (9, 4))

DOCS = {
    "finite-floats": [0.1, -0.0, SUB, 2.5e-310, 1.7976931348623157e308, 3.0],
    "non-finite": SPECIAL,
    "nan-only": [math.nan],
    "rows": WIDE.tolist(),
    "rows-with-inf": [[1.0, math.inf], [-0.0, 2.0]],
    "ragged-rows": [[1.0, 2.0], [3.0]],
    "rows-of-ints": [[1, 2], [3, 4]],
    "mixed": [1, 2.0, "x", None, True, False, [], {}],
    "bool-int": [True, 1, False, 0, 1.0],
    "empties": {"l": [], "d": {}, "ll": [[], []], "ld": [{}, {}]},
    "tuples": (1.5, (2.5, -0.0), ((1.0, 2.0), (3.0, 4.0))),
    "row-tuples": [(1.0, 2.0), [3.0, 4.0]],
    "keys": {3: "int", 2.5: "float", True: "bool", None: "none",
             math.inf: "inf", "é\n\"": "str"},
    "strings": ["", "a\tb", "é☃", "\"q\"", "\\"],
    "np-scalars": [np.float32(0.1), np.float64(-0.0), np.int64(7),
                   np.int32(-3), np.complex128(1 - 2j), complex(0.5, -0.0),
                   np.float64(math.nan)],
    "np-float-list": [np.float64(0.25), np.float64(1e-310)],
    "arrays": {"f64": WIDE, "f32": RNG.standard_normal((3, 4)).astype(np.float32),
               "i64": np.arange(-3, 3), "bool": np.array([True, False]),
               "c128": np.array([1 + 2j, -0.0 - 0.0j, complex(SUB, -SUB)]),
               "c128-2d": (WIDE[:2] + 1j * WIDE[2:4]),
               "c64": np.array([0.1 + 0.2j], dtype=np.complex64),
               "zero-d": np.array(2.5), "zero-d-c": np.array(1 - 1j),
               "empty": np.empty(0), "empty-rows": np.empty((0, 3)),
               "empty-cols": np.empty((3, 0)),
               "non-finite": np.array(SPECIAL)},
    "nested": {"a": [{"b": [1.0, 2.0], "c": {"d": [[0.5]]}}], "e": 1e-5},
    "scalar-float": 0.30000000000000004,
    "scalar-nan": math.nan,
    "scalar-str": "s",
    "scalar-none": None,
}


@pytest.mark.parametrize("name", sorted(DOCS))
def test_dumps_json_matches_json_dump(name):
    doc = DOCS[name]
    assert dumps_json(doc) == old_json(doc)


@pytest.mark.parametrize("doc", [
    {"flag": np.bool_(True)},
    [1.0, np.bool_(False)],
    {"c": np.complex64(1 + 1j)},
    {"o": object()},
    {(1, 2): "tuple key"},
    {"g": (i for i in range(2))},
], ids=["np-bool", "np-bool-in-list", "np-complex64", "object", "tuple-key",
        "generator"])
def test_dumps_json_rejects_what_json_rejects(doc):
    with pytest.raises(TypeError) as new:
        dumps_json(doc)
    with pytest.raises(TypeError) as old:
        old_json(doc)
    assert str(new.value) == str(old.value)


def test_dumps_json_large_rule_round_trips():
    nodes = RNG.standard_normal((500, 3))
    doc = {"weights": RNG.standard_normal(500).tolist(),
           "nodes": nodes.tolist()}
    text = dumps_json(doc)
    assert text == old_json(doc)
    back = np.asarray(json.loads(text)["nodes"])
    assert np.array_equal(back, nodes)


# ------------------------------------------------------------ CSV

@pytest.mark.parametrize("cols", [
    [np.array(SPECIAL), -np.array(SPECIAL)],
    [WIDE, np.array(SPECIAL[:9])],
    [np.empty(0), np.empty(0)],
], ids=["special", "block-and-column", "empty"])
def test_format_rows_matches_per_element_rows(cols):
    assert format_rows(cols) == old_rows(cols)


def test_format_rows_index_column_matches_the_old_pswf_rows():
    # pswf's eigenvalues.csv used to write its index with %d; %.17g spells
    # the float index the same way
    n = np.array([0, 1, 9, 10, 799, 123456, 10**15, 2**53])
    mu, lam = WIDE[:8, 0], WIDE[:8, 1] + 1j * WIDE[:8, 0]
    old = "".join("%d,%.17g,%.17g,%.17g\n" % (i, m, l.real, l.imag)
                  for i, m, l in zip(n.tolist(), mu, lam))
    assert format_rows([n, mu, lam.real, lam.imag]) == old


def test_field_csv_round_trip_is_bitwise(tmp_path):
    pts = np.array([[-0.0, 1.0], [SUB, -2.5e-310], [0.1, -0.0],
                    [1.7976931348623157e308, -1e-300]])
    vals = np.array([complex(-0.0, -0.0), complex(SUB, -0.0),
                     complex(0.0, -SUB), complex(-1e308, 0.3)])
    fld = SampledField(PointSet(pts), vals)
    path, ref = tmp_path / "f.csv", tmp_path / "ref.csv"
    write_field_csv(fld, path)
    old_write_field_csv(fld, ref)
    assert path.read_bytes() == ref.read_bytes()
    back = read_field_csv(path)
    bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
    assert np.array_equal(bits(back.points.points), bits(pts))
    assert np.array_equal(bits(back.values.real), bits(vals.real))
    assert np.array_equal(bits(back.values.imag), bits(vals.imag))


# ------------------------------------------------------------ CLI artifacts

def check_writers(monkeypatch) -> list:
    """Make every CLI artifact write go a second time through the writer it
    replaced, requiring byte-identical files, and check format_rows against
    per-element rows wherever the CLI calls it.  Returns the list that the
    names of checked files, and "format_rows" per checked call, go to."""
    written = []
    new_json, new_rule = cli._write_json, cli._write_rule_csv
    new_field = cli.write_field_csv

    def compare(path, write_old):
        alt = path + ".old"
        write_old(alt)
        with open(path, "rb") as a, open(alt, "rb") as b:
            assert a.read() == b.read(), os.path.basename(path)
        os.remove(alt)
        written.append(os.path.basename(path))

    def write_json(path, doc):
        new_json(path, doc)
        compare(path, lambda alt: old_write_json(alt, doc))

    def write_rule(path, weights, nodes):
        new_rule(path, weights, nodes)
        compare(path, lambda alt: old_write_rule_csv(alt, weights, nodes))

    def write_field(fld, path):
        new_field(fld, path)
        compare(path, lambda alt: old_write_field_csv(fld, alt))

    def rows(cols):
        text = format_rows(cols)
        assert text == old_rows(cols)
        written.append("format_rows")
        return text

    monkeypatch.setattr(cli, "_write_json", write_json)
    monkeypatch.setattr(cli, "_write_rule_csv", write_rule)
    monkeypatch.setattr(cli, "write_field_csv", write_field)
    monkeypatch.setattr(cli, "format_rows", rows)
    return written


def _project_argv(tmp_path):
    # a profile-less triangle kernel, so project measures and records one
    W = 0.3
    grid = make_grid([-W, -W], [W, W], [9, 9])
    x = grid.points / W
    vals = (np.cos(np.pi * x[:, 0] / 2) * np.cos(np.pi * x[:, 1] / 2)) ** 2
    field = tmp_path / "field.csv"
    write_field_csv(SampledField(grid, vals.astype(complex)), str(field))
    kq = triangle_quadrature(TriangleSpec(0.8, 0.7), 3, 3,
                             target_box=((-W, W),) * 2, profile_grid=0)
    kernel = tmp_path / "kernel.json"
    kernel.write_text(dumps_json(quadrature_nd_to_json(kq)))
    return ["project", "--field", str(field), "--kernel", str(kernel),
            "--grid", "5"]


CLI_JOBS = {
    "quad-preset": (["quad", "--preset", "gauss-legendre", "--M", "8"],
                    ["quadrature.json", "quadrature_nodes.csv"]),
    "quad-preset-complex": (["quad", "--preset", "sinc_gauss", "--M", "4"],
                            ["quadrature.json", "quadrature_nodes.csv"]),
    "quad-region": (["quad", "--region", "triangle", "--M", "3"],
                    ["quadrature.json", "quadrature_nodes.csv"]),
    "quad-region-symmetric": (["quad", "--region", "tetra", "--symmetric",
                               "--M", "2"],
                              ["quadrature.json", "quadrature_nodes.csv"]),
    "approx-sinc-cosine": (["approx-sinc", "--M", "4"],
                           ["sinc_approx.json", "sinc_approx_error.csv"]),
    "approx-sinc-chirplet": (["approx-sinc", "--chirplet", "--M", "4"],
                             ["sinc_approx.json", "sinc_approx_error.csv"]),
    "pswf-exp": (["pswf", "--kind", "exp", "--M", "12"],
                 ["eigenbasis.json", "eigenvalues.csv"]),
    "pswf-kernel": (["pswf", "--kind", "kernel", "--M", "12"],
                    ["eigenbasis.json", "eigenvalues.csv"]),
    "kernel-eval": (["kernel-eval", "--region", "triangle", "--grid", "7"],
                    ["kernel_field.csv"]),
    "project": (_project_argv, ["projection.csv", "projection_bound.json"]),
    "verify": (["verify", "--suite", "nyquist"], ["verify_report.json"]),
}


@pytest.mark.parametrize("job", sorted(CLI_JOBS))
@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
def test_cli_artifacts_match_the_old_writers(tmp_path, capsys, monkeypatch,
                                             job):
    argv, files = CLI_JOBS[job]
    if callable(argv):
        argv = argv(tmp_path)
    checked = check_writers(monkeypatch)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == files
    # files not compared whole are CSVs the command formats inline
    inline = set(files) - set(checked)
    assert all(f.endswith(".csv") for f in inline)
    assert checked.count("format_rows") >= len(inline)
