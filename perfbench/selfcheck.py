"""Tests of the benchmark itself: python3 perfbench/selfcheck.py

Checks that BENCHMARK.json and the reported metrics agree, that the oracles
reproduce closed forms, that the tracer closes its time accounting and
leaves nothing installed, that a corrupted artifact fails its check, and
that run.py refuses to report when the package is missing.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import time

import run

run.import_rlimited()

import numpy as np       # noqa: E402

import oracles           # noqa: E402
import tracer as trc     # noqa: E402
import workloads as wl   # noqa: E402


def check(ok, what):
    if not ok:
        raise SystemExit("selfcheck FAILED: %s" % what)


def test_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    check(layer == trc.LAYER_METRICS, "per_layer differs from LAYER_METRICS")
    e2e = {m["name"] for m in doc["end_to_end"]}
    check(e2e == {"pass_s", "setup_s", "peak_rss_mb"}, "end_to_end names")
    check({w["name"] for w in doc["workloads"]} == set(wl.WORKLOADS),
          "workload names")


def test_oracles():
    area = oracles.wedge_area(0.8, 0.7)
    check(abs(oracles.wedge_kernel(0.8, 0.7, [[0.0, 0.0]])[0] - area)
          < 1e-14, "wedge oracle at 0")
    h, dp, s = wl._regular_tetra()
    vol = oracles.tetra_wedge_volume(h, dp, s)
    check(abs(oracles.tetra_wedge_kernel(h, dp, s, [[0.0, 0.0, 0.0]])[0]
              - vol) < 1e-15, "tetra oracle at 0")
    check(abs(oracles.ball_kernel(1.0, [0.0])[0] - 4 * math.pi / 3) < 1e-13,
          "ball oracle at 0")
    # small r: the disc transform tends to the cone measure
    k = oracles.cone_kernel(2.0, 1.0, [0.0], [1e-7])[0]
    check(abs(k - oracles.cone_measure(2.0, 1.0)) < 1e-9, "cone oracle near 0")
    q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(6, 6)))
    check(oracles.weighted_gram_defect(q, np.ones(6)) < 1e-14, "gram defect")


def test_tracer_closure_and_uninstall():
    import rlimited as rl
    from rlimited import projection
    plain_k = projection.k_triangle
    tr = trc.Tracer()
    tr.install()
    try:
        check(projection.k_triangle is not plain_k, "alias not rebound")
        check(trc.installed_wrappers() > 100, "too few wrappers")
        with tr.job_span("t"):
            t0 = time.perf_counter()
            q = rl.triangle_quadrature(rl.TriangleSpec(0.8, 0.7), 4, 4,
                                       profile_grid=11)
            rl.rslepian_kernel_eigensystem(rl.expsum_kernel(q))
            wall = time.perf_counter() - t0
        m = trc.pass_layer_metrics(tr.stats, tr.quad_calls, tr.suite_fns,
                                   wall)
    finally:
        tr.uninstall()
    check(trc.installed_wrappers() == 0, "wrappers left after uninstall")
    check(projection.k_triangle is plain_k, "alias not restored")
    check(m["trace.closure"] < trc.CLOSURE_TOL, "closure %r" % m["trace.closure"])
    check(m["kernels.cascade.self_s"] > 0 and m["prolate.kernel_eig.self_s"] > 0,
          "layers not attributed")
    check(m["kernels.closed_form.points"] >= 121, "closed-form points")
    ids = {i for i, s in enumerate(tr.spans)}
    check(all(s[3] in ids or s[3] == -1 for s in tr.spans), "span parents")


def test_corrupted_artifact_fails():
    work = wl.fresh_dir(os.path.join(run.WORK, "selfcheck"))
    try:
        job = [j for j in wl.setup_rules(1, work) if j.name == "quad-triangle"][0]
        rc = job.run()
        path = os.path.join(job.outdir, "quadrature_nodes.csv")
        with open(path) as fh:
            lines = fh.readlines()
        row = lines[1].rstrip("\n").split(",")
        row[-2] = repr(2.0 * float(row[-2]))    # double the first weight
        lines[1] = ",".join(row) + "\n"
        with open(path, "w") as fh:
            fh.writelines(lines)
        try:
            wl.check_cli(job, rc, wl.PassRecord(), {})
        except wl.CheckFailed:
            return
        check(False, "a corrupted weight passed its check")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_refuses_without_package():
    bare = wl.fresh_dir(os.path.join(run.WORK, "bare"))
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH="")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "rules",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=120)
        check(proc.returncode != 0, "exit 0 without the package")
        check('"correct"' not in proc.stdout, "printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok  %s" % name)
