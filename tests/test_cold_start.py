"""scipy loads where it is used, never at import.

Importing the package and running the CLI jobs that need no scipy call
site leave sys.modules free of scipy; the jobs that do need one load it
on first use and succeed.  The module-level ``quad`` names stay
rebindable, so a counting wrapper sees every adaptive integration.
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from rlimited import kernels, projection, verify
from rlimited.moments import (preset_moments, quadrature_to_json,
                              solve_moment_problem)
from rlimited.numkit import dumps_json, make_grid, SampledField, \
    write_field_csv
from rlimited.sincapprox import build_sinc_cosine_approx, frequency_rule

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")

# runs cli.main on argv, then prints its exit code and the scipy modules
# loaded, as the last line of stdout
_PROBE = """
import json, sys
import rlimited, rlimited.cli
rc = rlimited.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([rc, sorted(m for m in sys.modules
                             if m.split(".")[0] == "scipy")]))
"""


def _probe(cwd, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout.splitlines()[-1])
    return rc, loaded


def test_import_loads_no_scipy(tmp_path):
    assert _probe(tmp_path) == (0, [])


@pytest.fixture()
def rule_and_field(tmp_path):
    fr = frequency_rule(build_sinc_cosine_approx(2.0, 10))
    (tmp_path / "rule.json").write_text(dumps_json(quadrature_to_json(fr)))
    grid = make_grid([-1.0], [1.0], [201])
    s = grid.points[:, 0]
    write_field_csv(SampledField(grid, (np.cos(np.pi * s / 2) ** 2)
                                 .astype(complex)), str(tmp_path / "f.csv"))
    return tmp_path


@pytest.mark.parametrize("argv", [
    ["quad", "--preset", "gauss-legendre", "--M", "32"],
    ["pswf", "--M", "20"],
    ["kernel-eval", "--region", "triangle"],
    ["project", "--field", "f.csv", "--kernel", "rule.json"]],
    ids=["quad-gauss-legendre", "pswf", "kernel-eval-triangle",
         "project-rule"])
def test_jobs_without_a_scipy_call_site_load_none(rule_and_field, argv):
    assert _probe(rule_and_field, *argv, "--out", "o") == (0, [])


@pytest.mark.parametrize("argv, needs", [
    (["kernel-eval", "--region", "cone"], ["scipy.special"]),
    (["quad", "--preset", "sinc_cos", "--M", "6"], ["scipy.linalg"]),
    (["verify", "--suite", "symmetry,cone-ball"],
     ["scipy.integrate", "scipy.linalg", "scipy.spatial"])],
    ids=["kernel-eval-cone", "quad-sinc_cos", "verify-symmetry-cone-ball"])
def test_jobs_with_a_scipy_call_site_load_it_on_use(tmp_path, argv, needs):
    rc, loaded = _probe(tmp_path, *argv, "--out", "o")
    assert rc == 0
    assert set(needs) <= set(loaded), loaded


def test_quad_names_count_every_adaptive_integration(monkeypatch):
    calls = dict.fromkeys(("kernels", "projection", "verify"), 0)
    for name, mod in (("kernels", kernels), ("projection", projection),
                      ("verify", verify)):
        def counted(*args, _name=name, _quad=mod.quad, **kwargs):
            calls[_name] += 1
            return _quad(*args, **kwargs)
        monkeypatch.setattr(mod, "quad", counted)

    spec = kernels.ConeSpec(1.0, 1.0, 2)
    rule = solve_moment_problem(preset_moments("j1_cosinc", 1.0, 11), 6)
    assert kernels.cone_ls_error_bruteforce(spec, rule) > 0.0
    # one integral per piece between the kinks at 0, 1 and the 6 nodes
    assert calls == {"kernels": 7, "projection": 0, "verify": 0}

    out = projection.bandlimited_projection_oracle(
        lambda s: 1.0 - s * s, 2.0, np.array([-0.5, 0.0, 0.5]))
    assert np.all(np.isfinite(out))
    # each point inside the support splits the integral at the sinc peak
    assert calls["projection"] == 6

    rows = verify.check_cone_ball()
    assert all(row["pass"] for row in rows)
    # the cone and ball measure integrals, plus the suite's brute-force
    # squared-error route
    assert calls == {"kernels": 14, "projection": 6, "verify": 2}
