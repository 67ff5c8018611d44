"""Benchmark for rlimited: seeded job-mix workloads, end to end and by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rules --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): rules, solve-project, verify-gate.  One
process runs one job at a time (closed loop) with every BLAS pool pinned
to one thread (RLIMIT_THREADS=1).  Passes over the workload's job list
repeat until --seconds have been measured; every output is checked.

--trace 0 reports the end-to-end metrics: pass_s (median wall time of a
pass, checks excluded), setup_s (median over fresh interpreters that
import rlimited and build the workload's untimed inputs) and peak_rss_mb.
--trace 1 spends half the time untraced and half with tracer.py installed
and reports the per-layer metrics.  A readable table goes first; the last
line of stdout is one JSON object with correct, attempted, failed and
metrics.  Timers are process-local; nothing system-wide is measured.
"""
import os

THREAD_VARS = ("RLIMIT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:          # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse          # noqa: E402
import json              # noqa: E402
import resource          # noqa: E402
import shutil            # noqa: E402
import statistics        # noqa: E402
import subprocess        # noqa: E402
import sys               # noqa: E402
import threading         # noqa: E402
import time              # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_STARTS = 5
GROUP_NAMES = ("rule", "field", "eigen", "project")


def import_rlimited():
    """Import the package from this checkout's src/, or stop."""
    sys.path.insert(0, SRC)
    try:
        import rlimited
    except ImportError as exc:
        sys.exit("perfbench: cannot import rlimited from %s: %s" % (SRC, exc))
    if not os.path.abspath(rlimited.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: rlimited imported from %s, not from %s"
                 % (rlimited.__file__, SRC))
    return rlimited


def quartiles(values):
    """(q1, median, q3) of the values, as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def time_fresh_setups(args) -> list:
    """Wall time of SETUP_STARTS fresh interpreters doing the set-up only.

    The wait blocks in waitpid (a timeout would make subprocess poll, which
    rounds the time to its polling step); a timer kills a child that hangs.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, cwd=ROOT)
        watchdog = threading.Timer(150.0, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        out.append(time.perf_counter() - t0)
        if rc != 0:
            sys.exit("perfbench: set-up exited with %d" % rc)
    return out


class PassResult:
    def __init__(self, times, groups, rec, failures):
        self.times, self.groups = times, groups
        self.rec, self.failures = rec, failures

    @property
    def pass_s(self):
        return sum(self.times.values())


def run_pass(jobs, expected, tracer=None) -> PassResult:
    import workloads as wl
    rec = wl.PassRecord()
    times, groups, failures = {}, {}, []
    for job in jobs:
        result, error = None, None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = job.run()
            else:
                with tracer.job_span(job.name):
                    result = job.run()
        except Exception as exc:       # a job that raises is a failed job
            error = exc
        dt = time.perf_counter() - t0
        times[job.name] = dt
        groups[job.group] = groups.get(job.group, 0.0) + dt
        if error is None:
            try:
                if job.outdir:
                    wl.check_cli(job, result, rec, expected)
                else:
                    job.check(result, rec)
            except Exception as exc:   # includes CheckFailed
                error = exc
        if error is not None:
            failures.append("%s: %s: %s" % (job.name, type(error).__name__,
                                            error))
    return PassResult(times, groups, rec, failures)


def run_passes(jobs, expected, seconds, tracer=None, on_pass=None) -> list:
    """Passes until `seconds` of wall time have gone by (at least one)."""
    out = []
    t_end = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.reset()
        p = run_pass(jobs, expected, tracer)
        if on_pass is not None:
            on_pass(p)
        out.append(p)
        if time.perf_counter() >= t_end:
            return out


def expected_digests(seed) -> dict:
    import workloads as wl
    doc = wl.load_digests()
    want = dict(doc.get("fixed", {}))
    want.update(doc.get("seeded", {}).get(str(seed), {}))
    return want


def end_to_end(workload, passes, setup_times) -> dict:
    """name -> (unit, values) for every end-to-end metric, in report order;
    values is None where the metric does not apply to the workload."""
    import workloads as wl
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    margins = [max(p.rec.margins) for p in passes if p.rec.margins]
    m = {"setup_s": ("s", setup_times),
         "pass_s": ("s", [p.pass_s for p in passes])}
    for group in GROUP_NAMES:
        m[group + "_s"] = ("s", [p.groups[group] for p in passes]
                           if group in wl.GROUPS[workload] else None)
    m["peak_rss_mb"] = ("MiB", [resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0])
    m["fail_ratio"] = ("1", [failed / attempted])
    m["worst_margin"] = ("1", margins or None)
    return m


def print_table(title, metrics) -> None:
    print("%s" % title)
    print("  %-38s %-6s %14s %14s %14s %4s" % ("metric", "unit", "median",
                                              "q1", "q3", "n"))
    for name, (unit, values) in metrics.items():
        if values is None:
            print("  %-38s %-6s %14s" % (name, unit, "absent"))
            continue
        q1, med, q3 = quartiles(values)
        print("  %-38s %-6s %14.6g %14.6g %14.6g %4d"
              % (name, unit, med, q1, q3, len(values)))


def traced_run(jobs, expected, seconds, workload):
    """Half the time untraced, half traced; per-layer medians over passes."""
    import tracer as trc
    plain = run_passes(jobs, expected, seconds / 2.0)
    tr = trc.Tracer()
    per_pass, records = [], []

    def collect(p):
        records.append(tr.snapshot())
        m = trc.pass_layer_metrics(tr.stats, tr.quad_calls, tr.suite_fns,
                                   p.pass_s)
        m["cli.bytes_written"] = p.rec.bytes_written
        m["cli.artifacts_changed"] = p.rec.artifacts_changed
        m["cli.artifacts_compared"] = p.rec.artifacts_compared
        per_pass.append(m)

    tr.install()
    try:
        traced = run_passes(jobs, expected, seconds / 2.0, tr, collect)
    finally:
        tr.uninstall()
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    with open(os.path.join(WORK, "traces", "%s.json" % workload), "w") as fh:
        json.dump(records, fh)
    passes = plain + traced
    plain_s = statistics.median(p.pass_s for p in plain)
    layer = {name: statistics.median(m[name] for m in per_pass)
             for name in per_pass[0]}
    health = [p.rec for p in passes]
    layer.update({
        "prolate.max_order": max(r.max_order for r in health),
        "prolate.orth_defect": max([d for r in health for d in r.orth_defect],
                                   default=0.0),
        "prolate.mu_excess": max([d for r in health for d in r.mu_excess],
                                 default=0.0),
        "verify.worst_margin": max([d for r in health for d in r.margins],
                                   default=0.0),
        "projection.m4_bound_ratio": max(
            [r.project_m4_ratio for r in health
             if r.project_m4_ratio is not None], default=0.0),
        "e2e.pass_s": plain_s,
        "trace.overhead": statistics.median(p.pass_s for p in traced)
        / plain_s - 1.0,
    })
    for group in GROUP_NAMES:
        layer["e2e.%s_s" % group] = statistics.median(
            p.groups.get(group, 0.0) for p in plain)
    if set(layer) != set(trc.LAYER_METRICS):
        raise RuntimeError("layer metrics out of step with LAYER_METRICS: %s"
                           % sorted(set(layer) ^ set(trc.LAYER_METRICS)))
    closure = max(m["trace.closure"] for m in per_pass)
    problems = []
    if closure > trc.CLOSURE_TOL:
        problems.append("trace closure %.3e above %.0e" % (closure,
                                                           trc.CLOSURE_TOL))
    return passes, len(traced), layer, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload's inputs and exit (used to "
                         "time set-up in a fresh interpreter)")
    args = ap.parse_args(argv)
    import_rlimited()
    import tracer as trc
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        sys.exit("perfbench: unknown workload %r (choose from %s)"
                 % (args.workload, ", ".join(wl.WORKLOADS)))
    work = wl.fresh_dir(os.path.join(WORK, "%s-%d" % (args.workload,
                                                      os.getpid())))
    try:
        if args.setup_only:
            wl.WORKLOADS[args.workload](args.seed, work)
            return 0
        setup_times = [] if args.trace else time_fresh_setups(args)
        jobs = wl.WORKLOADS[args.workload](args.seed, work)
        expected = expected_digests(args.seed)
        if trc.installed_wrappers():
            sys.exit("perfbench: tracer wrappers are installed before an "
                     "untraced run")
        if args.trace:
            passes, n_traced, layer, problems = traced_run(
                jobs, expected, args.seconds, args.workload)
            units = trc.LAYER_METRICS
            metrics = {k: {"value": layer[k], "unit": units[k]} for k in units}
            print("per-layer metrics (%s, seed %d, median over %d traced "
                  "passes)" % (args.workload, args.seed, n_traced))
            for k, unit in units.items():
                print("  %-38s %-6s %14.6g" % (k, unit, layer[k]))
        else:
            passes = run_passes(jobs, expected, args.seconds)
            problems = []
            if trc.installed_wrappers():
                problems.append("tracer wrappers found after an untraced run")
            e2e = end_to_end(args.workload, passes, setup_times)
            print_table("end-to-end metrics (%s, seed %d, %d passes, "
                        "RLIMIT_THREADS=%s)"
                        % (args.workload, args.seed, len(passes),
                           os.environ["RLIMIT_THREADS"]), e2e)
            metrics = {k: {"value": statistics.median(e2e[k][1]),
                           "unit": e2e[k][0]}
                       for k in ("pass_s", "setup_s", "peak_rss_mb")}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = [f for p in passes for f in p.failures]
    for f in failures[:20] + problems:
        print("perfbench: %s" % f, file=sys.stderr)
    attempted = sum(len(p.times) for p in passes)
    print(json.dumps({"correct": not failures and not problems,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
