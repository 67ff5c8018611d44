"""Span tracer over rlimited, installed from outside the package.

install() wraps every public function and public method of the eight
modules and rebinds every module-level name that refers to one of them
(the ``rlimited`` re-exports, ``from .x import y`` aliases and the entries
of ``verify.SUITES``), so calls between layers are caught without editing
the package.  The scipy ``quad`` names in kernels, projection and verify
are replaced by a counter of adaptive integrations.

Each call records a span (name, start, end, parent) kept in memory; a
layer's self time is its span time minus the time its child spans cover.
Functions called thousands of times per pass (HOT) are timed into the same
per-function counters but leave no span record.  uninstall() restores
every binding.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("numkit", "moments", "sincapprox", "kernels", "prolate",
           "projection", "verify", "cli")
QUAD_ALIASES = ("kernels", "projection", "verify")

# Scalar helpers called 10^4-10^5 times per pass (power_exp_integral from
# the series ladders, sinc inside adaptive-quad integrands).
HOT = {"numkit.power_exp_integral", "numkit.sinc", "numkit.cosinc",
       "numkit.expc"}

CASCADE = {"kernels." + n for n in (
    "triangle_quadrature", "equilateral_symmetric_quadrature",
    "tetra_quadrature", "tetra_symmetric_quadrature", "cone_quadrature",
    "ball_quadrature")}
CLOSED_FORM = {"kernels." + n for n in ("k_triangle", "k_tetra", "k_cone",
                                        "k_ball")}
SUBLAYERS = {
    "kernels.cascade": CASCADE,
    "kernels.closed_form": CLOSED_FORM,
    "kernels.eval_sum": {"kernels.QuadratureND.eval_sum"},
    "prolate.exp_eig": {"prolate.pswf_exp_eigensystem",
                        "prolate.rslepian_exp_eigensystem"},
    "prolate.kernel_eig": {"prolate.pswf_kernel_eigensystem",
                           "prolate.rslepian_kernel_eigensystem"},
    "prolate.extend": {"prolate.extend_prolate"},
    "projection.fhat_synth": {"projection.rlimited_discrete_fourier",
                              "projection.ExpSumKernel.eval",
                              "projection.discrete_fourier_repr_1d"},
    "projection.profile": {"projection.measure_kernel_profile"},
    "projection.interp": {"projection.sampling_interpolation_1d",
                          "projection.sampling_interpolation_scaled",
                          "projection.ra_sampling_interpolation",
                          "projection.patched_projection"},
}
# Layers that split a module; what is left of the module is "<mod>.other".
SPLIT = {"kernels", "prolate", "projection"}
MOMENT_RULES = {"moments." + n for n in (
    "gauss_legendre_01", "chebyshev_rule_for_j0", "uniform_rule", "symmetrize",
    "solve_moment_problem")}
STAGE_RULES = {"sincapprox.symmetric_sinc_rule",
               "sincapprox.one_sided_unit_rule"}


def layer_of(name: str) -> str:
    for layer, names in SUBLAYERS.items():
        if name in names:
            return layer
    mod = name.split(".", 1)[0]
    return mod + ".other" if mod in SPLIT else mod


def _size(out) -> int:
    return int(np.size(out)) if isinstance(out, (np.ndarray, complex, float)) \
        else 0


def _items(name, args, out, parent):
    """Work done by one call, in the unit its per-item metric uses:
    points for closed forms, nodes x points for exponential sums, nodes for
    an outermost cascade."""
    if name in CLOSED_FORM:
        return _size(out)
    if name == "kernels.QuadratureND.eval_sum":
        return len(args[0].nodes) * _size(out)
    if name == "projection.ExpSumKernel.eval":
        return len(args[0].nodes) * _size(out)
    if name == "projection.discrete_fourier_repr_1d":
        return len(args[1].nodes) * _size(out)
    if name == "projection.rlimited_discrete_fourier":
        return len(args[1].nodes) * (len(args[0].values)
                                     + len(out.field.values))
    if name in CASCADE and parent not in CASCADE:
        return len(out.weights)
    return 0


class Tracer:
    """Per-pass span records and per-(job, function) counters."""

    def __init__(self):
        self._bindings = []
        self.suite_fns = {}
        self.reset()

    # ---------------------------------------------------------- recording

    def reset(self):
        self.stack = [[0.0, None, -1]]  # [child time, name, span id]
        self.stats = {}     # (job, name) -> [calls, incl s, self s, items]
        self.spans = []     # (name, start, end, parent span id)
        self.quad_calls = dict.fromkeys(QUAD_ALIASES, 0)
        self.job = None

    def _wrap(self, fn, name):
        hot = name in HOT
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            stack = tr.stack
            parent = stack[-1]
            sid = -1
            if not hot:
                sid = len(tr.spans)
                tr.spans.append(None)
            frame = [0.0, name, sid]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kw)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dt = t1 - t0
                parent[0] += dt
                st = tr.stats.get((tr.job, name))
                if st is None:
                    st = tr.stats[(tr.job, name)] = [0, 0.0, 0.0, 0]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
                if not hot:
                    tr.spans[sid] = (name, t0, t1, parent[2])
            st[3] += _items(name, args, out, parent[1])
            return out

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _quad_counter(self, fn, alias):
        tr = self

        @functools.wraps(fn)
        def counted(*args, **kw):
            tr.quad_calls[alias] += 1
            return fn(*args, **kw)

        counted.__perfbench_original__ = fn
        return counted

    @contextlib.contextmanager
    def job_span(self, name):
        """Root span of one benchmark job.  Its self time (inside the job,
        outside every wrapped call) is reported as unattributed."""
        self.job = name
        sid = len(self.spans)
        self.spans.append(None)
        frame = [0.0, None, sid]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = ("job:" + name, t0, t1, -1)
            st = self.stats.setdefault((name, "bench.job"), [0, 0.0, 0.0, 0])
            st[0] += 1
            st[1] += t1 - t0
            st[2] += t1 - t0 - frame[0]
            self.job = None

    # ---------------------------------------------------------- install

    def install(self):
        mods = [importlib.import_module("rlimited." + m) for m in MODULES]
        pkg = importlib.import_module("rlimited")
        wrappers = {}
        for short, mod in zip(MODULES, mods):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__",
                                                   None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self._wrap(obj, "%s.%s" % (short, attr))
                elif inspect.isclass(obj):
                    for mattr, meth in list(vars(obj).items()):
                        if not mattr.startswith("_") and inspect.isfunction(meth):
                            self._bind(obj, mattr, self._wrap(
                                meth, "%s.%s.%s" % (short, attr, mattr)))
        for mod in [pkg] + mods:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._bind(mod, attr, wrappers[id(obj)])
        suites = importlib.import_module("rlimited.verify").SUITES
        self.suite_fns = {key: "verify." + fn.__name__
                          for key, fn in suites.items()}
        for key, fn in list(suites.items()):
            if id(fn) in wrappers:
                self._bind(suites, key, wrappers[id(fn)])
        for short in QUAD_ALIASES:
            mod = importlib.import_module("rlimited." + short)
            self._bind(mod, "quad", self._quad_counter(mod.quad, short))

    def _bind(self, owner, key, value):
        if isinstance(owner, dict):
            self._bindings.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._bindings.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._bindings):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._bindings = []

    # ---------------------------------------------------------- reporting

    def snapshot(self) -> dict:
        """The pass's spans and counters as plain data, for writing out."""
        return {"spans": self.spans,
                "stats": [[j, n] + v for (j, n), v in self.stats.items()],
                "quad_calls": dict(self.quad_calls)}


def installed_wrappers() -> int:
    """Number of rlimited names currently bound to a tracer wrapper."""
    count = 0
    pkg = importlib.import_module("rlimited")
    mods = [pkg] + [importlib.import_module("rlimited." + m) for m in MODULES]
    for mod in mods:
        for obj in vars(mod).values():
            if hasattr(obj, "__perfbench_original__"):
                count += 1
            elif inspect.isclass(obj):
                count += sum(hasattr(m, "__perfbench_original__")
                             for m in vars(obj).values())
    suites = importlib.import_module("rlimited.verify").SUITES
    count += sum(hasattr(f, "__perfbench_original__") for f in suites.values())
    return count


# ------------------------------------------------------------ layer metrics

SUITE_KEYS = ("moments", "cascade", "lattice", "uniform-sampling", "prolate",
              "eigen-count", "projection", "nyquist", "triangle-kernel",
              "symmetry", "cone-ball")
SELF_LAYERS = ("cli", "numkit", "moments", "sincapprox", "kernels.cascade",
               "kernels.closed_form", "kernels.eval_sum", "kernels.other",
               "prolate.exp_eig", "prolate.kernel_eig", "prolate.extend",
               "prolate.other", "projection.fhat_synth", "projection.profile",
               "projection.interp", "projection.other", "verify")
# Per-layer metrics reported by a traced run, with units.  Ratios with
# nothing to divide (no such call in the workload) read 0.
LAYER_METRICS = dict(
    [(layer + ".self_s", "s") for layer in SELF_LAYERS]
    + [("verify.%s.s" % k, "s") for k in SUITE_KEYS]
    + [("cli.bytes_written", "bytes"), ("cli.artifacts_changed", "count"),
       ("cli.artifacts_compared", "count"),
       ("numkit.csv_io_s", "s"), ("numkit.power_exp_integral.calls", "count"),
       ("moments.rules_built", "count"), ("sincapprox.stage_rules", "count"),
       ("kernels.cascade.us_per_node", "us"),
       ("kernels.closed_form.points", "count"),
       ("kernels.k_cone.us_per_pt", "us"), ("kernels.quad_calls", "count"),
       ("kernels.k_triangle.series_us_per_pt", "us"),
       ("kernels.k_triangle.grid_us_per_pt", "us"),
       ("kernels.k_tetra.us_per_pt", "us"),
       ("kernels.eval_sum.ns_per_term", "ns"),
       ("prolate.max_order", "count"), ("prolate.orth_defect", "1"),
       ("prolate.mu_excess", "1"),
       ("projection.fhat_synth.ns_per_term", "ns"),
       ("projection.quad_calls", "count"), ("verify.quad_calls", "count"),
       ("verify.worst_margin", "1"), ("projection.m4_bound_ratio", "1"),
       ("e2e.pass_s", "s"), ("e2e.rule_s", "s"), ("e2e.field_s", "s"),
       ("e2e.eigen_s", "s"), ("e2e.project_s", "s"),
       ("trace.pass_s", "s"), ("trace.overhead", "1"),
       ("trace.unattributed_s", "s"), ("trace.closure", "1")])
# Symmetry-line and grid jobs that split k_triangle's per-point cost.
SERIES_JOB, GRID_JOB = "k-triangle-symmetry-line", "kernel-eval-triangle"
CLOSURE_TOL = 1e-3


def _ratio(num, den, scale):
    return scale * num / den if den else 0.0


def pass_layer_metrics(stats, quad_calls, suite_fns, pass_s) -> dict:
    """Layer numbers of one traced pass from the tracer's counters.

    trace.closure is |sum of self times + unattributed - pass| / pass,
    where unattributed is time inside a job's root span but outside every
    wrapped call, and pass is the runner's own clock around the jobs.
    suite_fns maps a verify suite name to its traced function name."""
    by_name = {}
    by_job_name = {}
    layer_self = dict.fromkeys(SELF_LAYERS, 0.0)
    unattributed = 0.0
    for (job, name), (calls, incl, self_s, items) in stats.items():
        if name == "bench.job":
            unattributed += self_s
            continue
        layer_self[layer_of(name)] += self_s
        agg = by_name.setdefault(name, [0, 0.0, 0.0, 0])
        for i, v in enumerate((calls, incl, self_s, items)):
            agg[i] += v
        by_job_name[(job, name)] = (calls, incl, self_s, items)

    def total(names, i):
        return sum(by_name.get(n, (0, 0.0, 0.0, 0))[i] for n in names)

    m = {layer + ".self_s": v for layer, v in layer_self.items()}
    for key in SUITE_KEYS:
        m["verify.%s.s" % key] = total([suite_fns.get(key)], 1)
    series = by_job_name.get((SERIES_JOB, "kernels.k_triangle"), (0, 0.0, 0.0, 0))
    grid = by_job_name.get((GRID_JOB, "kernels.k_triangle"), (0, 0.0, 0.0, 0))
    fhat = SUBLAYERS["projection.fhat_synth"]
    m.update({
        "numkit.csv_io_s": total(["numkit.write_field_csv",
                                  "numkit.read_field_csv"], 1),
        "numkit.power_exp_integral.calls": total(["numkit.power_exp_integral"], 0),
        "moments.rules_built": total(MOMENT_RULES, 0),
        "sincapprox.stage_rules": total(STAGE_RULES, 0),
        "kernels.cascade.us_per_node": _ratio(layer_self["kernels.cascade"],
                                              total(CASCADE, 3), 1e6),
        "kernels.closed_form.points": total(CLOSED_FORM, 3),
        "kernels.k_cone.us_per_pt": _ratio(total(["kernels.k_cone"], 1),
                                           total(["kernels.k_cone"], 3), 1e6),
        "kernels.quad_calls": quad_calls["kernels"],
        "kernels.k_triangle.series_us_per_pt": _ratio(series[1], series[3], 1e6),
        "kernels.k_triangle.grid_us_per_pt": _ratio(grid[1], grid[3], 1e6),
        "kernels.k_tetra.us_per_pt": _ratio(total(["kernels.k_tetra"], 1),
                                            total(["kernels.k_tetra"], 3), 1e6),
        "kernels.eval_sum.ns_per_term": _ratio(
            layer_self["kernels.eval_sum"],
            total(["kernels.QuadratureND.eval_sum"], 3), 1e9),
        "projection.fhat_synth.ns_per_term": _ratio(
            layer_self["projection.fhat_synth"], total(fhat, 3), 1e9),
        "projection.quad_calls": quad_calls["projection"],
        "verify.quad_calls": quad_calls["verify"],
        "trace.pass_s": pass_s,
        "trace.unattributed_s": unattributed,
        "trace.closure": abs(sum(layer_self.values()) + unattributed - pass_s)
        / pass_s,
    })
    return m
