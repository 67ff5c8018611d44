"""Artifact codec: dumps_json and format_rows against the writers they
replaced, json.dump over a numpy-stripping walk and per-element %.17g rows.
"""
import io
import json
import math
import os
import tracemalloc
from itertools import zip_longest

import numpy as np
import pytest

from rlimited import cli, numkit
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
    # the document is one %-template: its own "%" must come out as written
    "percent": {"%": "%s", "%%": ["%", "a%sb", "%%", 1.5], "%s": [0.5, -2.0],
                "x%d": {"%(k)s": [[1.0, 2.0]], "%": "100%"}},
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


def python_field(path):
    """A field CSV parsed one token at a time by float(): (points, re, im)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    dim, n = map(int, lines[1].split(","))
    a = np.array([[float(t) for t in row.split(",")] for row in lines[2:]])
    assert a.shape == (n, dim + 2)
    return a[:, :dim], a[:, dim], a[:, dim + 1]


def _tapered_field(path):
    # the solve-project workload's project input: a cos^2-tapered wave on
    # a 161^2 grid over [-0.3, 0.3]^2
    g = np.linspace(-0.3, 0.3, 161)
    G1, G2 = np.meshgrid(g, g, indexing="ij")
    f = (np.cos(np.pi * G1 / 0.6) ** 2 * np.cos(np.pi * G2 / 0.6) ** 2
         * np.cos(2 * np.pi * (0.31 * G1 - 0.47 * G2)))
    pts = np.stack([G1.ravel(), G2.ravel()], axis=-1)
    write_field_csv(SampledField(PointSet(pts), f.ravel()), str(path))


def _projection(tmp_path):
    _tapered_field(tmp_path / "field.csv")
    kq = triangle_quadrature(TriangleSpec(0.8, 0.7), 3, 3,
                             target_box=((-0.3, 0.3),) * 2, profile_grid=0)
    (tmp_path / "kernel.json").write_text(dumps_json(quadrature_nd_to_json(kq)))
    assert main(["project", "--field", str(tmp_path / "field.csv"),
                 "--kernel", str(tmp_path / "kernel.json"), "--grid", "21",
                 "--out", str(tmp_path)]) == 0
    return tmp_path / "projection.csv"


def _kernel_eval(*args):
    def run(tmp_path):
        assert main(["kernel-eval", "--region", *args,
                     "--out", str(tmp_path)]) == 0
        return tmp_path / "kernel_field.csv"
    return run


# the field CSVs the benchmark workloads and the CLI tests write
FIELD_CSVS = {
    "kernel-eval-triangle": _kernel_eval("triangle", "--extent", "0.02",
                                         "--grid", "201"),
    "kernel-eval-tetra": _kernel_eval("tetra", "--grid", "31"),
    "kernel-eval-ball": _kernel_eval("ball", "--grid", "2001"),
    "kernel-eval-ball-kmax": _kernel_eval("ball", "--kmax", "1.0", "--grid",
                                          "11", "--extent", "0.9"),
    "kernel-eval-cone": _kernel_eval("cone", "--grid", "15"),
    "tapered-field": lambda tmp_path: (_tapered_field(tmp_path / "f.csv"),
                                       tmp_path / "f.csv")[1],
    "projection": _projection,
}


@pytest.mark.parametrize("make", FIELD_CSVS.values(), ids=FIELD_CSVS.keys())
def test_read_field_csv_is_bitwise_on_written_fields(tmp_path, capsys, make):
    path = make(tmp_path)
    pts, re, im = python_field(path)
    fld = read_field_csv(path)
    bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
    assert np.array_equal(bits(fld.points.points), bits(pts))
    assert np.array_equal(bits(fld.values.real), bits(re))
    assert np.array_equal(bits(fld.values.imag), bits(im))


@pytest.mark.parametrize("token", ["abc", "", "1.5.5", "0x10"])
def test_project_field_with_a_bad_token_exit_2(tmp_path, capsys, token):
    path = tmp_path / "field.csv"
    path.write_text("dim,n_points\n2,4\n0,0,1,0\n0,1,1,0\n1,0,%s,0\n"
                    "1,1,1,0\n" % token)
    kq = triangle_quadrature(TriangleSpec(0.8, 0.7), 3, 3, profile_grid=0)
    (tmp_path / "kernel.json").write_text(dumps_json(quadrature_nd_to_json(kq)))
    capsys.readouterr()
    assert main(["project", "--field", str(path), "--kernel",
                 str(tmp_path / "kernel.json"), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: could not convert"), err


# ------------------------------------------------------------ repeated values
# The codec spells each distinct value once and reuses its text, so hold
# it against the per-element writers on arrays that repeat a small pool of
# magnitudes under random signs.

# where repr switches between positional and exponent notation
SWITCH = [1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05]
EDGES = [0.0, SUB, 2.5e-310, 1.7976931348623157e308] + SWITCH


def repeated(n, non_finite=False, seed=0):
    """n floats from a pool of 40 random magnitudes plus EDGES (and nan,
    inf when non_finite), each with a random sign; every pool value occurs
    with both signs."""
    rng = np.random.default_rng(seed)
    pool = np.concatenate([
        rng.standard_normal(40) * 10.0 ** rng.integers(-30, 30, 40), EDGES,
        [math.nan, math.inf] if non_finite else []])
    vals = rng.choice(pool, n - 2 * len(pool))
    vals = np.where(rng.random(len(vals)) < 0.5, -vals, vals)
    return np.concatenate([pool, -pool, vals])


def first_difference(new, old):
    """None for equal texts, else the first pair of lines that differ (a
    short failure message where pytest would diff whole texts)."""
    if new == old:
        return None
    pairs = zip_longest(new.splitlines(), old.splitlines())
    return next((a, b) for a, b in pairs if a != b)


def _complex(re, im):
    # re + 1j * im would turn -0.0 real parts into 0.0
    out = np.empty(len(re), dtype=complex)
    out.real, out.imag = re, im
    return out


@pytest.mark.parametrize("non_finite", [False, True],
                         ids=["finite", "non-finite"])
def test_format_rows_on_repeated_values(non_finite):
    a, b, c = (repeated(12_000, non_finite, seed) for seed in (1, 2, 3))
    z = _complex(b, c)
    for cols in ([a], [np.stack([a, b], axis=-1), c, -a], [z.real, z.imag]):
        assert first_difference(format_rows(cols), old_rows(cols)) is None


@pytest.mark.parametrize("non_finite", [False, True],
                         ids=["finite", "non-finite"])
def test_dumps_json_on_repeated_values(non_finite):
    a, b = (repeated(12_000, non_finite, seed) for seed in (4, 5))
    doc = {"list": a.tolist(),
           "rows": a.reshape(-1, 3).tolist(),
           "row-tuples": [tuple(r) for r in b.reshape(-1, 4).tolist()],
           "ndarray": b.reshape(-1, 2),
           "complex": _complex(a, b),
           "complex-2d": _complex(b, a).reshape(-1, 3)}
    assert first_difference(dumps_json(doc), old_json(doc)) is None


# ------------------------------------------------------------ the float kernel
# _float_texts spells floats with a numpy kernel and hands CPython only the
# values the kernel cannot prove; every text must be CPython's own.

FORMATS = ["%r", "%.17g"]


def cpython_mismatches(values, fmt):
    """The first (value, text, CPython's text) triples that differ."""
    values = np.asarray(values, dtype=float)
    got = numkit._float_texts(values, fmt).tolist()
    return [(v, g, fmt % v) for v, g in zip(values.tolist(), got)
            if g != fmt % v][:5]


def certified(values, fmt):
    """The kernel's own verdict per value: digits proven, no fallback."""
    bits = np.asarray(values, dtype=float).view(np.uint64)
    return numkit._decimal(bits, fmt == "%r")[3]


def structured_corpus():
    big = 1.7976931348623157e308
    edges = np.array([1e15, 1e16, 1e17, 1e-4, 1e-5, 9999999999999998.0])
    vals = np.concatenate([
        [0.0, SUB, 2 * SUB, 3 * SUB, 1e-320, 2.5e-310, 2.0 ** -1022 - SUB,
         2.0 ** -1022, big, np.nextafter(big, 0)],
        [2.0 ** k for k in range(-1074, 1024)],
        [10.0 ** k for k in range(-30, 31)],
        [float(2 ** 53 + i) for i in range(-64, 65)],
        edges, np.nextafter(edges, np.inf), np.nextafter(edges, 0)])
    return np.concatenate([vals, -vals])


def exact_ties(seed=0, per_exponent=20):
    """Doubles x = m 2^-k, m odd, with m 5^k of 18 digits: x's exact
    decimal expansion has 18 significant digits and ends in 5, so its 17
    digits sit exactly at one half."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(3, 25):
        lo, hi = -(-10 ** 17 // 5 ** k), 10 ** 18 // 5 ** k
        for m in rng.integers(lo, hi - 1, per_exponent).tolist():
            m |= 1
            assert 10 ** 17 <= m * 5 ** k < 10 ** 18 and m < 2 ** 53
            out.append(math.ldexp(m, -k))
    return np.array(out)


@pytest.mark.parametrize("fmt", FORMATS)
def test_float_texts_on_random_bit_patterns(fmt):
    bits = np.random.default_rng(17).integers(0, 2 ** 64, 200_000,
                                               dtype=np.uint64)
    assert cpython_mismatches(bits.view(float), fmt) == []


@pytest.mark.parametrize("fmt", FORMATS)
def test_float_texts_on_the_structured_corpus(fmt):
    nan_payload = np.array([0x7FF8000000000001, 0xFFF0000000000002],
                           dtype=np.uint64).view(float)
    vals = np.concatenate([structured_corpus(), nan_payload,
                           [math.nan, -math.nan, math.inf, -math.inf]])
    assert cpython_mismatches(vals, fmt) == []


def test_exact_17_digit_ties_go_to_cpython():
    ties = exact_ties()
    assert len(ties) == 22 * 20
    assert not certified(ties, "%.17g").any()
    assert cpython_mismatches(np.concatenate([ties, -ties]), "%.17g") == []
    # one ulp away there is no tie, and the kernel spells the value itself
    near = np.nextafter(ties, np.inf)
    assert certified(near, "%.17g").all()
    assert cpython_mismatches(near, "%.17g") == []


@pytest.mark.parametrize("fmt, values", [
    ("%r", [1.0, 3.0, 0.5, 1e22, 2.0 ** -30, 2.0 ** 100, 123456789.0]),
    ("%.17g", [0.0, SUB, 2.5e-310, 2.0 ** 54, 2.0 ** 56 + 16.0]),
    ("%r", [0.0, math.nan, math.inf]),
    ("%.17g", [-0.0, math.nan, -math.inf])],
    ids=["repr-trailing-zeros", "17g-short-vr", "repr-non-finite",
         "17g-non-finite"])
def test_known_fallback_values_take_the_fallback(fmt, values):
    assert not certified(values, fmt).any()
    assert cpython_mismatches(values, fmt) == []


@pytest.mark.parametrize("fmt", FORMATS)
def test_the_kernel_spells_most_values_itself(fmt):
    # a kernel that sent everything to CPython would pass the tests above;
    # below 2^52 a float of this mix is not an integer, and not a short
    # binary fraction but by rare chance
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(20_000) * 10.0 ** rng.integers(-20, 10, 20_000)
    assert certified(vals, fmt).mean() > 0.99


def test_float_texts_takes_two_formats():
    with pytest.raises(ValueError):
        numkit._float_texts([1.0], "%.16g")


def test_dumps_json_memory_on_the_pswf_eigenbasis(tmp_path, monkeypatch):
    # 162,001 floats, half of them distinct: the magnitude-deduplicating
    # codec that CPython's formatter served peaked at 19.2 MiB, one Python
    # str per distinct magnitude and its negation
    docs = []
    monkeypatch.setattr(cli, "_write_json", lambda path, doc: docs.append(doc))
    assert main(["pswf", "--band", "5", "--M", "200", "--kind", "exp",
                 "--out", str(tmp_path)]) == 0
    doc, = docs
    tracemalloc.start()
    try:
        text = dumps_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count(",") >= 160_000
    assert peak <= 19.2 * 2**20, peak / 2**20


def test_format_rows_memory_on_the_triangle_field(tmp_path, monkeypatch):
    # 161,604 values of the 201^2 kernel-eval field; a Python str or int
    # per element would push the peak well past the bound
    fields = []
    monkeypatch.setattr(cli, "write_field_csv",
                        lambda fld, path: fields.append(fld))
    assert main(["kernel-eval", "--region", "triangle", "--grid", "201",
                 "--out", str(tmp_path)]) == 0
    fld, = fields
    cols = [fld.points.points, fld.values.real, fld.values.imag]
    assert sum(np.size(c) for c in cols) == 161_604
    tracemalloc.start()
    try:
        format_rows(cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13 * 2**20, peak / 2**20


# ------------------------------------------------------------ CLI artifacts

def check_writers(monkeypatch) -> list:
    """Make every CLI artifact write go a second time through the writer it
    replaced, requiring byte-identical files, and check format_rows against
    per-element rows wherever the CLI calls it.  Returns the list that the
    names of checked files, and "format_rows" per checked call, go to."""
    written, spelled = [], []
    new_json, new_rule = cli._write_json, cli._write_rule_csv
    new_field = cli.write_field_csv
    spell = numkit._float_texts
    monkeypatch.setattr(numkit, "_float_texts",
                        lambda *a: spelled.append(a) or spell(*a))

    def compare(path, write_old):
        alt = path + ".old"
        write_old(alt)
        with open(path, "rb") as a, open(alt, "rb") as b:
            assert a.read() == b.read(), os.path.basename(path)
        os.remove(alt)
        written.append(os.path.basename(path))

    def write_json(path, doc):
        spelled.clear()
        new_json(path, doc)
        # every float list of a document goes through one spelling call
        assert len(spelled) <= 1, (os.path.basename(path), len(spelled))
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
    "quad-cascade-cone": (["quad", "--region", "cone", "--M", "3"],
                          ["quadrature.json", "quadrature_nodes.csv"]),
    "quad-region-symmetric": (["quad", "--region", "tetra", "--symmetric",
                               "--M", "2"],
                              ["quadrature.json", "quadrature_nodes.csv"]),
    # 28 float lists, one spelling call: weights, nodes, the 12 parts'
    # transforms, two boxes and the 12 symmetry-group matrices
    "quad-region-symmetric-M5": (["quad", "--region", "tetra", "--symmetric",
                                  "--M", "5"],
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
