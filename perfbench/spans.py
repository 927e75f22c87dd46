"""In-memory span tracing of beltrami_lab, installed from outside the package.

`Tracer.install()` replaces every public function of the traced modules
with a wrapper, in every module that holds a reference to it (so a name
that `linear_solver` or `quasilinear` from-imports is wrapped there too),
plus the few methods that mark layer boundaries (GridField construction
and save, LinearProblem validation). A wrapper records a span
(name, start, end, parent, op id, attributes) only while the tracer is
active, so correctness checks that call the same library functions
between operations leave no spans.

`layer_metrics()` turns the spans of one operation cycle into the
per-layer numbers listed in BENCHMARK.json. Self time of a span is its
duration minus the durations of its direct children (the program is
single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time

PACKAGE = "beltrami_lab"
MODULES = ("expressions", "coefficients", "dilatation", "grid", "transforms",
           "linear_solver", "quasilinear", "verify")

# span index fields
NAME, START, END, PARENT, OP, ATTRS = range(6)


def _transform_attrs(args, kwargs, result):
    """Grid size and FFT count of one transform call (T and S take two FFTs)."""
    return {"n": args[0].n, "ffts": 2}


def _derivative_attrs(args, kwargs, result):
    method = kwargs.get("method", args[1] if len(args) > 1 else "spectral")
    return {"n": args[0].n, "ffts": 3 if method == "spectral" else 0}


# extra attributes recorded per span name: f(args, kwargs, result) -> dict
ATTRS_BY_NAME = {
    "transforms.cauchy_transform": _transform_attrs,
    "transforms.beurling_transform": _transform_attrs,
    "transforms.derivatives": _derivative_attrs,
    "quasilinear.solve_quasilinear": lambda a, k, r: {"max_outer": a[1].max_outer},
    "quasilinear.frozen_coefficient_fields": lambda a, k, r: {"rung": a[2] if len(a) > 2 else k["rung"]},
    "verify.inverse_dilatation_audit": lambda a, k, r: {"located_fraction": r["located_fraction"]},
    "grid.load": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "grid.GridField.save": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
}


class Tracer:
    """Collects spans in memory; one instance per benchmark process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.active = False
        self.op = None
        self._patched = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn):
        attrs = ATTRS_BY_NAME.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if attrs is not None:
                span[ATTRS] = attrs(args, kwargs, result)
            return result

        return traced

    def call(self, name, op, fn, *args):
        """Run fn(*args) as the root span of operation `op`."""
        self.op = op
        self.active = True
        try:
            return self.wrap(name, fn)(*args)
        finally:
            self.active = False
            self.op = None

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the public functions of MODULES wherever they are referenced."""
        import importlib

        mods = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        importlib.import_module(f"{PACKAGE}.cli")
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        package = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        grid = sys.modules[f"{PACKAGE}.grid"]
        linear_solver = sys.modules[f"{PACKAGE}.linear_solver"]
        for cls, attr, name in ((grid.GridField, "__post_init__", "grid.GridField"),
                                (grid.GridField, "save", "grid.GridField.save"),
                                (linear_solver.LinearProblem, "__post_init__",
                                 "linear_solver.LinearProblem")):
            orig = cls.__dict__[attr]
            self._patched.append((cls, attr, orig))
            setattr(cls, attr, self.wrap(name, orig))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def write(self, path, env):
        with open(path, "w") as fh:
            json.dump({"env": env,
                       "fields": ["name", "start", "end", "parent", "op", "attrs"],
                       "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# per-layer numbers from the spans of one cycle

def _layer(name):
    return name.split(".", 1)[0]


class SpanView:
    """Spans of a set of operation ids, with parent links and self times."""

    def __init__(self, spans, ops):
        ops = set(ops)
        self.spans = spans
        self.idx = [i for i, s in enumerate(spans) if s[OP] in ops]
        child_time = {}
        for i in self.idx:
            p = spans[i][PARENT]
            if p >= 0:
                child_time[p] = child_time.get(p, 0.0) + spans[i][END] - spans[i][START]
        self.child_time = child_time

    def named(self, *names):
        return [i for i in self.idx if self.spans[i][NAME] in names]

    def count(self, *names):
        return len(self.named(*names))

    def dur(self, i):
        return self.spans[i][END] - self.spans[i][START]

    def self_time(self, i):
        return self.dur(i) - self.child_time.get(i, 0.0)

    def busy(self, match):
        """Time covered by spans matching `match`, counting nested matches once."""
        total = 0.0
        for i in self.idx:
            if not match(self.spans[i][NAME]):
                continue
            p = self.spans[i][PARENT]
            while p >= 0 and not match(self.spans[p][NAME]):
                p = self.spans[p][PARENT]
            if p < 0:
                total += self.dur(i)
        return total

    def layer_busy(self, layer):
        return self.busy(lambda name: _layer(name) == layer)

    def name_busy(self, *names):
        return self.busy(lambda name: name in names)

    def self_sum(self, match):
        return sum(self.self_time(i) for i in self.idx if match(self.spans[i][NAME]))

    def busy_under(self, root, name):
        """Duration of `name` spans nested anywhere below span `root`."""
        total = 0.0
        for i in self.idx:
            if self.spans[i][NAME] != name:
                continue
            p = self.spans[i][PARENT]
            while p >= 0 and p != root:
                p = self.spans[p][PARENT]
            if p == root:
                total += self.dur(i)
        return total

    def attr(self, i, key):
        return self.spans[i][ATTRS][key]


LINEAR_SELF = ("linear_solver.solve_linear", "linear_solver.picard_step",
               "linear_solver.LinearProblem")
TRANSFORMS = ("transforms.cauchy_transform", "transforms.beurling_transform",
              "transforms.derivatives")
IO = ("grid.GridField.save", "grid.load")


def _rung_steps(view):
    """Outer steps per (ladder run, rung): solve_linear spans directly under
    solve_quasilinear, each attributed to the rung of the coefficient
    sampling that preceded it."""
    steps = {}
    current = {}
    for i in view.idx:
        name, parent = view.spans[i][NAME], view.spans[i][PARENT]
        if parent < 0 or view.spans[parent][NAME] != "quasilinear.solve_quasilinear":
            continue
        if name == "quasilinear.frozen_coefficient_fields":
            current[parent] = view.attr(i, "rung")
            steps.setdefault((parent, current[parent]), 0)
        elif name == "linear_solver.solve_linear":
            key = (parent, current.get(parent))
            steps[key] = steps.get(key, 0) + 1
    return steps


# work counts: identical between two traced cycles of one seed
COUNTS = ("transforms.calls", "transforms.gflop_computed", "grid.fields_built", "grid.io_bytes",
          "linear_solver.solves", "linear_solver.picard_steps", "quasilinear.rungs",
          "quasilinear.outer_steps", "quasilinear.capped_rungs", "coefficients.calls")
UNITS = {"transforms.gflop_computed": "GFLOP", "grid.io_bytes": "B",
         "verify.located_fraction": "fraction", "trace.overhead_frac": "fraction"}


def unit(name):
    return UNITS.get(name, "count" if name in COUNTS else "s")


def layer_metrics(spans, ops):
    """Per-layer counts and times of the spans belonging to operation ids `ops`."""
    v = SpanView(spans, ops)
    gflop = 0.0
    for i in v.named(*TRANSFORMS):
        a = spans[i][ATTRS]
        N = a["n"] ** 2
        gflop += a["ffts"] * 5.0 * N * math.log2(N) / 1e9
    steps = _rung_steps(v)
    max_outer = {i: v.attr(i, "max_outer") for i in v.named("quasilinear.solve_quasilinear")}
    located = [v.attr(i, "located_fraction") for i in v.named("verify.inverse_dilatation_audit")]
    inverse_s = sum(
        v.dur(i) - v.busy_under(i, "verify.injectivity_check")
        for i in v.named("verify.inverse_dilatation_audit")
    )
    return {
        "transforms.calls": v.count(*TRANSFORMS),
        "transforms.busy_s": v.layer_busy("transforms"),
        "transforms.gflop_computed": gflop,
        "grid.fields_built": v.count("grid.GridField"),
        "grid.build_s": v.name_busy("grid.GridField"),
        "grid.io_s": v.name_busy(*IO),
        "grid.io_bytes": sum(v.attr(i, "bytes") for i in v.named(*IO)),
        "linear_solver.solves": v.count("linear_solver.solve_linear"),
        "linear_solver.picard_steps": v.count("linear_solver.picard_step"),
        "linear_solver.self_s": v.self_sum(lambda name: name in LINEAR_SELF),
        "linear_solver.normalize_s": v.name_busy("linear_solver.normalize_solution"),
        "quasilinear.rungs": len(steps),
        "quasilinear.outer_steps": sum(steps.values()),
        "quasilinear.capped_rungs": sum(1 for (p, _), s in steps.items() if s >= max_outer[p]),
        "quasilinear.sample_s": v.name_busy("quasilinear.frozen_coefficient_fields"),
        "quasilinear.self_s": v.self_sum(lambda name: _layer(name) == "quasilinear"),
        "coefficients.calls": v.count("coefficients.coefficient_fields"),
        "coefficients.busy_s": v.layer_busy("coefficients"),
        "expressions.busy_s": v.layer_busy("expressions"),
        "verify.residual_s": v.name_busy("verify.residual"),
        "verify.injectivity_s": v.name_busy("verify.injectivity_check"),
        "verify.inverse_s": inverse_s,
        "verify.located_fraction": sum(located) / len(located) if located else 0.0,
        "dilatation.busy_s": v.layer_busy("dilatation"),
        "cli.self_s": v.self_sum(lambda name: _layer(name) == "cli"),
    }


# per-layer metric -> (spans it is derived from, workloads where they must
# occur). "caller>callee" asks for a callee span directly under a caller
# span, which shows that the callee's name is wrapped in the caller's module.
ALL = ("sec4-256", "wdamped-128", "disk-512")
SOLVER = ("sec4-256", "wdamped-128")
BEURLING = "linear_solver.picard_step>transforms.beurling_transform"
CAUCHY = "linear_solver.solve_linear>transforms.cauchy_transform"
SOLVES = "quasilinear.solve_quasilinear>linear_solver.solve_linear"
SAMPLING = "quasilinear.solve_quasilinear>quasilinear.frozen_coefficient_fields"
SELF_TEST = {
    "transforms.calls": ((BEURLING, CAUCHY), ALL),
    "transforms.busy_s": ((BEURLING, CAUCHY), ALL),
    "transforms.gflop_computed": ((BEURLING, CAUCHY), ALL),
    "grid.fields_built": (("transforms.beurling_transform>grid.GridField",), ALL),
    "grid.build_s": (("transforms.beurling_transform>grid.GridField",), ALL),
    "linear_solver.solves": ((SOLVES,), ALL),
    "linear_solver.picard_steps": (("linear_solver.solve_linear>linear_solver.picard_step",), ALL),
    "linear_solver.self_s": ((SOLVES, "quasilinear.solve_quasilinear>linear_solver.LinearProblem"),
                             SOLVER),
    "linear_solver.normalize_s": (("linear_solver.solve_linear>linear_solver.normalize_solution",),
                                  SOLVER),
    "quasilinear.rungs": ((SAMPLING,), SOLVER),
    "quasilinear.outer_steps": ((SAMPLING, SOLVES), SOLVER),
    "quasilinear.capped_rungs": ((SAMPLING, SOLVES), SOLVER),
    "quasilinear.sample_s": ((SAMPLING,), SOLVER),
    "quasilinear.self_s": (("cli.main>quasilinear.solve_quasilinear",), SOLVER),
    "coefficients.calls": (
        ("quasilinear.frozen_coefficient_fields>coefficients.coefficient_fields",), ("sec4-256",)),
    "coefficients.busy_s": (
        ("quasilinear.frozen_coefficient_fields>coefficients.coefficient_fields",), ("sec4-256",)),
    "expressions.busy_s": (("coefficients.coefficient_fields>expressions.evaluate",), ("sec4-256",)),
    "grid.io_s": (("linear_solver.save_solution>grid.GridField.save",
                   "linear_solver.load_solution>grid.load"), ("disk-512",)),
    "grid.io_bytes": (("linear_solver.save_solution>grid.GridField.save",
                       "linear_solver.load_solution>grid.load"), ("disk-512",)),
    "verify.residual_s": (("verify.verification_report>verify.residual",), ("disk-512",)),
    "verify.injectivity_s": (("verify.verification_report>verify.injectivity_check",),
                             ("disk-512",)),
    "verify.inverse_s": (("verify.verification_report>verify.inverse_dilatation_audit",),
                         ("disk-512",)),
    "verify.located_fraction": (("verify.verification_report>verify.inverse_dilatation_audit",),
                                ("disk-512",)),
    "dilatation.busy_s": (("verify.jacobian_stats>dilatation.jacobian",
                           "verify.inverse_dilatation_audit>dilatation.inner_dilatation_p"),
                          ("disk-512",)),
    "cli.self_s": (("cli.main",), ALL),
}


def self_test(spans, ops, workload):
    """Per-layer metrics of `workload` with a required span missing, and which."""
    v = SpanView(spans, ops)
    seen = set()
    for i in v.idx:
        name, parent = spans[i][NAME], spans[i][PARENT]
        seen.add(name)
        if parent >= 0:
            seen.add(f"{spans[parent][NAME]}>{name}")
    return sorted(f"{metric} ({req})" for metric, (reqs, workloads) in SELF_TEST.items()
                  if workload in workloads for req in reqs if req not in seen)
