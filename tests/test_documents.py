"""Every artifact document refuses every single-key mutation loudly.

Each document the CLI writes is mutated one key path at a time: the key is
deleted, or its value replaced by null, 5, "a", [], {}, [1, 2] or true.  A
mutated kernel must make `rlimited project` exit 2 with one `error:` line
and no artifact; a mutated eigenbasis must make eigenbasis_from_json raise
ValueError.  Mutations that leave a valid document are skipped: a number for
a number, a boolean for a boolean, [1, 2] for a pair of numbers, and
deleting (or nulling, where null reads as absent) a key README lists as
optional.  A provenance subtree other than error_profile is ignored:
mutating it must leave the output unchanged.
"""
import json

import numpy as np
import pytest

from rlimited import kernels as K
from rlimited import prolate as P
from rlimited.cli import main
from rlimited.numkit import PointSet, SampledField, make_grid, \
    write_field_csv
from rlimited.projection import expsum_kernel

DELETE = object()
REPLACEMENTS = (None, 5, "a", [], {}, [1, 2], True)
_ABSENT = {DELETE, None}     # deleting, or null where null reads as absent

# the optional keys of each document (README, "Artifact documents"): the
# mutations there that leave a valid document; index 0 stands for any entry
_REGION_OPTIONAL = {("params",): {DELETE}, ("transform",): _ABSENT,
                    ("parts",): _ABSENT, ("symmetric",): _ABSENT}
_CLOUD_OPTIONAL = {
    ("band",): _ABSENT, ("symmetry_group",): _ABSENT,
    ("provenance",): _ABSENT | {"{}"}, ("error_profile",): _ABSENT,
    ("provenance", "error_profile"): _ABSENT,
    ("provenance", "error_profile", "grid_n"): {DELETE},
    **{("region",) + p: ops for p, ops in _REGION_OPTIONAL.items()},
    **{("region", "parts", 0) + p: ops
       for p, ops in _REGION_OPTIONAL.items()}}
_RULE_OPTIONAL = {("provenance",): {DELETE, "{}"}}
_BASIS_OPTIONAL = {
    ("provenance",): {DELETE, "{}"}, ("lambda", "im"): {DELETE},
    ("eigenvectors", "im"): {DELETE},
    **{("region",) + p: ops for p, ops in _REGION_OPTIONAL.items()}}


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _paths(doc, prefix=()):
    """Every key path of doc; the first entry stands for each array."""
    items = doc.items() if isinstance(doc, dict) else list(enumerate(doc))[:1]
    for key, v in items:
        yield prefix + (key,)
        if isinstance(v, (dict, list)):
            yield from _paths(v, prefix + (key,))


def _leaves_valid(old, new, valid):
    """Whether replacing old by new (DELETE: deleting it) leaves a valid
    document; valid holds the optional key's valid mutations."""
    if isinstance(new, bool):       # True == 1, yet no number
        return isinstance(old, bool)
    if new is not DELETE and new == old:
        return True
    if new is DELETE or new is None or new == {}:
        return ("{}" if new == {} else new) in valid
    return _number(old) and _number(new) or new == [1, 2] and isinstance(
        old, list) and len(old) == 2 and all(map(_number, old))


def _mutations(doc, optional, ignored):
    """(path, new, ignored) for each mutation that is not skipped."""
    for path in _paths(doc):
        old = doc
        for key in path:
            old = old[key]
        valid = optional.get(tuple(0 if isinstance(k, int) else k
                                   for k in path), set())
        for new in ((DELETE,) if isinstance(path[-1], str) else ()) \
                + REPLACEMENTS:
            if ignored(path) or not _leaves_valid(old, new, valid):
                yield path, new, ignored(path)


def _mutated(doc, path, new):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if new is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


def _provenance_but_profile(path):
    return len(path) > 1 and path[0] == "provenance" \
        and path[1] != "error_profile"


def _project(tmp, field, kernel_doc, name):
    """(exit code, stderr lines, output bytes or None) of one project run."""
    kpath, out = tmp / (name + ".json"), tmp / name
    kpath.write_text(json.dumps(kernel_doc))
    try:
        rc = main(["project", "--field", str(field), "--kernel", str(kpath),
                   "--out", str(out)])
    except Exception as exc:    # a traceback: exit 1
        return 1, ["%s: %s" % (type(exc).__name__, exc)], None
    files = [out / "projection.csv", out / "projection_bound.json"]
    return rc, None, (b"".join(f.read_bytes() for f in files)
                      if all(f.exists() for f in files) else None)


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("documents")
    jobs = {"equilateral": ["quad", "--region", "equilateral", "--symmetric",
                            "--M", "3"],
            "triangle": ["quad", "--region", "triangle", "--M", "3"],
            "rule": ["quad", "--preset", "gauss-legendre", "--M", "4",
                     "--symmetric", "--band", "2"],
            "pswf": ["pswf", "--band", "2", "--M", "12"]}
    out = {}
    for name, argv in jobs.items():
        assert main(argv + ["--out", str(tmp / name)]) == 0, name
        fname = "eigenbasis.json" if name == "pswf" else "quadrature.json"
        out[name] = json.loads((tmp / name / fname).read_text())
    tq = K.triangle_quadrature(K.TriangleSpec(0.8, 0.7), 3, 3,
                               profile_grid=0)
    kern = expsum_kernel(tq, band=np.array([[1.0, 0.5], [0.0, 1.0]]))
    out["nd-basis"] = json.loads(json.dumps(
        P.eigenbasis_to_json(P.rslepian_kernel_eigensystem(kern))))
    grid = make_grid([-0.2, -0.2], [0.2, 0.2], [5, 5])
    x = grid.points
    write_field_csv(SampledField(grid, np.cos(3 * x[:, 0]) + 1j * x[:, 1]),
                    str(tmp / "field2.csv"))
    t = np.linspace(-0.5, 0.5, 9)
    write_field_csv(SampledField(PointSet(t), np.cos(2 * t).astype(complex)),
                    str(tmp / "field1.csv"))
    out["tmp"] = tmp
    return out


@pytest.mark.parametrize("name, field", [
    ("equilateral", "field2.csv"), ("triangle", "field2.csv"),
    ("rule", "field1.csv")])
def test_every_kernel_mutation_exits_2(docs, capsys, name, field):
    tmp, doc = docs["tmp"], docs[name]
    optional = _RULE_OPTIONAL if name == "rule" else _CLOUD_OPTIONAL
    if name != "rule":    # the documents hold what the mutations reach
        assert "error_profile" in doc["provenance"]
        if name == "equilateral":
            assert doc["symmetry_group"] and doc["region"]["parts"]
    rc, _, want = _project(tmp, tmp / field, doc, name + "-ok")
    assert rc == 0 and want is not None
    capsys.readouterr()
    bad, runs = [], 0
    for path, new, ignored in _mutations(doc, optional,
                                         _provenance_but_profile):
        runs += 1
        rc, err, got = _project(tmp, tmp / field, _mutated(doc, path, new),
                                "%s-%d" % (name, runs))
        err = err or capsys.readouterr().err.splitlines()
        what = (path, "delete" if new is DELETE else new, rc, err[-1:])
        if ignored:
            if rc != 0 or got != want:
                bad.append(what)
        elif rc != 2 or got is not None or len(err) != 1 \
                or not err[0].startswith("error: "):
            bad.append(what)
    assert runs > 50
    assert not bad, "%d of %d mutations: %s" % (len(bad), runs, bad[:10])


@pytest.mark.parametrize("name", ["pswf", "nd-basis"])
def test_every_eigenbasis_mutation_raises_value_error(docs, name):
    doc = docs[name]
    want = P.eigenbasis_to_json(P.eigenbasis_from_json(doc))
    want.pop("provenance")
    bad, runs = [], 0
    for path, new, ignored in _mutations(doc, _BASIS_OPTIONAL,
                                         lambda p: p[0] == "provenance"
                                         and len(p) > 1):
        runs += 1
        what = (path, "delete" if new is DELETE else new)
        try:
            got = P.eigenbasis_to_json(
                P.eigenbasis_from_json(_mutated(doc, path, new)))
        except ValueError:
            if ignored:
                bad.append(what + ("ValueError",))
            continue
        except Exception as exc:
            bad.append(what + (type(exc).__name__,))
            continue
        got.pop("provenance")
        if not ignored or json.dumps(got) != json.dumps(want):
            bad.append(what + ("read",))
    assert runs > 30
    assert not bad, "%d of %d mutations: %s" % (len(bad), runs, bad[:10])


def test_every_field_csv_mutation_exits_2(docs, capsys):
    # each cell of the header, the size line and the first row: deleted,
    # or replaced by each replacement's JSON text (5 skipped in data cells)
    tmp = docs["tmp"]
    kernel = tmp / "triangle" / "quadrature.json"
    lines = (tmp / "field2.csv").read_text().splitlines()
    bad, runs = [], 0
    for row in range(3):
        cells = lines[row].split(",")
        for col in range(len(cells)):
            for new in (DELETE,) + REPLACEMENTS:
                if new == 5 and row == 2:
                    continue
                text = cells[:col] + ([] if new is DELETE
                                      else [json.dumps(new)]) + cells[col + 1:]
                mutated = lines[:row] + [",".join(text)] + lines[row + 1:]
                runs += 1
                fpath, out = tmp / ("field-%d.csv" % runs), tmp / "f-out"
                fpath.write_text("\n".join(mutated) + "\n")
                try:
                    rc = main(["project", "--field", str(fpath), "--kernel",
                               str(kernel), "--out", str(out / str(runs))])
                except Exception as exc:
                    bad.append((row, col, new, type(exc).__name__))
                    continue
                err = capsys.readouterr().err.splitlines()
                if rc != 2 or len(err) != 1 or not err[0].startswith(
                        "error: ") or (out / str(runs)).exists() and any(
                        (out / str(runs)).iterdir()):
                    bad.append((row, col, new, rc, err[-1:]))
    assert runs > 50
    assert not bad, "%d of %d mutations: %s" % (len(bad), runs, bad[:10])
