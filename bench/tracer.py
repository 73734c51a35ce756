"""Outside-in tracer for the traced benchmark run.

It wraps every public function of each toricsing module, and the public
methods of the classes the module defines, in a timing span named
``<module>.<function>``. Names that other modules bound with
``from .x import y`` are rebound to the same wrapper, or their calls would
bypass it. The arithmetic dunders of GaussianRational, Poly and
RationalFunction are timed as ``<module>.ops`` spans on the class itself.
No file of the program changes.

Spans nest on one stack (the benchmark is single-threaded). A span's self
time is its duration minus the time covered by its child spans. A span at
a layer boundary (its caller is in another module) is also kept as a
record (id, parent, name, start, end, problem) and written out when the
run ends; calls inside a module and the arithmetic of the classes above
are only counted and timed.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("cli", "parser", "variety", "lattice", "linalg", "newton",
           "checks", "solvers", "family", "polynomials", "rationals",
           "report")

# Arithmetic dunders counted as "<module>.ops" (+ - * / ** and mod).
DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
           "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
           "__mod__")
ARITHMETIC_CLASSES = {"rationals": ("GaussianRational",),
                      "polynomials": ("Poly", "RationalFunction")}


class Tracer:
    """Span stack with per-name call counts and self times."""

    MAX_RECORDS = 100_000

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.stack = []  # frames: [name, start, child_time, span_id]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()  # counters fed by observers
        self.distinct = defaultdict(set)  # name -> distinct input keys
        self.records = []
        self.problem = None
        self._next_id = 0

    def enter(self, name, record=True):
        span_id = None
        if record and (not self.stack or name.split(".", 1)[0]
                       != self.stack[-1][0].split(".", 1)[0]):
            span_id = self._next_id
            self._next_id += 1
        frame = [name, self.clock(), 0.0, span_id]
        self.stack.append(frame)
        return frame

    def exit(self, frame):
        end = self.clock()
        self.stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if span_id is not None:
            if len(self.records) < self.MAX_RECORDS:
                parent = next((f[3] for f in reversed(self.stack)
                               if f[3] is not None), None)
                self.records.append(
                    (span_id, parent, name, start, end, self.problem))

    def span(self, name, func, record=True, observe=None):
        """A wrapper of func that runs it inside a span called name."""
        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = self.enter(name, record)
            try:
                result = func(*args, **kwargs)
            finally:
                self.exit(frame)
            if observe is not None:
                observe(self, args, result)
            return result
        return traced

    def summary(self):
        """Totals of the run as plain JSON data."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts),
                "distinct": {k: len(v) for k, v in self.distinct.items()}}

    def write_records(self, path):
        """JSON lines: a header naming the fields, then one span a line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "name", "start", "end",
                                 "problem"]) + "\n")
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")


# -- observers: counters measured where the work happens --------------------

def _polar_description(tracer, args, result):
    tracer.distinct["lattice.polar_description"].add(repr(args))
    tracer.counts["lattice.dd_rays"] += len(result[1])


def _random_search(tracer, args, result):
    tracer.counts["solvers.random_search.hits"] += result is not None


def _newton_polyhedron(tracer, args, result):
    tracer.counts["newton.faces"] += len(result._faces or ())


def _parsed(tracer, args, result):
    tracer.counts["parser.terms_out"] += len(result.terms)


OBSERVERS = {
    "lattice.polar_description": _polar_description,
    "solvers.random_search": _random_search,
    "newton.newton_polyhedron": _newton_polyhedron,
    "parser.parse_polynomial": _parsed,
    "parser.parse_family": _parsed,
}


def install(tracer):
    """Wrap toricsing's public functions and methods; returns a callable
    that restores every patched attribute."""
    mods = {m: importlib.import_module(f"toricsing.{m}") for m in MODULES}
    pkg = importlib.import_module("toricsing")
    wrappers = {}  # id(original) -> wrapper
    restore = []

    def patch(owner, attr, value):
        restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for short, mod in mods.items():
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) and value.__module__ == mod.__name__:
                name = f"{short}.{attr}"
                wrapper = tracer.span(name, value,
                                      observe=OBSERVERS.get(name))
                wrappers[id(value)] = wrapper
                patch(mod, attr, wrapper)
            elif (inspect.isclass(value) and value.__module__ == mod.__name__
                  and not issubclass(value, BaseException)):
                _wrap_methods(tracer, short, value, patch)
        for cls_name in ARITHMETIC_CLASSES.get(short, ()):
            cls = getattr(mod, cls_name)
            for attr in DUNDERS:
                if attr in cls.__dict__:
                    patch(cls, attr, tracer.span(f"{short}.ops",
                                                 cls.__dict__[attr],
                                                 record=False))
    for mod in list(mods.values()) + [pkg]:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers and value is not wrappers[id(value)]:
                patch(mod, attr, wrappers[id(value)])

    def uninstall():
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)
    return uninstall


def _wrap_methods(tracer, short, cls, patch):
    # methods of the arithmetic classes are too hot to keep as records
    record = cls.__name__ not in ARITHMETIC_CLASSES.get(short, ())
    for attr, value in list(cls.__dict__.items()):
        if attr.startswith("_"):
            continue
        name = f"{short}.{attr}"
        if inspect.isfunction(value):
            patch(cls, attr, tracer.span(name, value, record))
        elif isinstance(value, staticmethod):
            patch(cls, attr, staticmethod(tracer.span(name, value.__func__,
                                                      record)))


def module_self_s(summary, module):
    prefix = module + "."
    return sum(v for k, v in summary["self_s"].items() if k.startswith(prefix))


def layer_metrics(summary, verdicts, overhead_s):
    """The per-layer metrics of one traced run, from its ``summary()``.

    ``verdicts`` counts the verdict objects of the run's reports by
    ``method.<name>`` and by status; ``overhead_s`` is the traced loop's
    wall time minus the untraced loop's on the same problems.
    """
    calls = Counter(summary["calls"])
    self_s = defaultdict(float, summary["self_s"])
    counts = Counter(summary["counts"])
    polar = "lattice.polar_description"
    distinct = summary["distinct"].get(polar, 0)
    search_calls = calls["solvers.random_search"]
    m = {
        "lattice.self_s": module_self_s(summary, "lattice"),
        "lattice.polar_description.calls": calls[polar],
        "lattice.polar_description.repeat_ratio":
            calls[polar] / distinct if distinct else 0.0,
        "lattice.dd_rays": counts["lattice.dd_rays"],
        "lattice.hilbert_basis.calls": calls["lattice.hilbert_basis"],
        "lattice.hilbert_basis.self_s": self_s["lattice.hilbert_basis"],
        "lattice.face_lattice.self_s": self_s["lattice.face_lattice"],
        "linalg.self_s": module_self_s(summary, "linalg"),
        "rationals.ops": calls["rationals.ops"],
        "rationals.self_s": module_self_s(summary, "rationals"),
        "solvers.self_s": module_self_s(summary, "solvers"),
        "solvers.random_search.self_s": self_s["solvers.random_search"],
        "solvers.random_search.hit_ratio":
            counts["solvers.random_search.hits"] / search_calls
            if search_calls else 0.0,
        "solvers.verify.self_s": self_s["solvers.verify"],
        "checks.self_s": module_self_s(summary, "checks"),
        "newton.self_s": module_self_s(summary, "newton"),
        "newton.faces": counts["newton.faces"],
        "family.self_s": module_self_s(summary, "family"),
        "family.check_condition_I.self_s": self_s["family.check_condition_I"],
        "family.check_condition_II.self_s":
            self_s["family.check_condition_II"],
        "polynomials.ops": calls["polynomials.ops"],
        "polynomials.self_s": module_self_s(summary, "polynomials"),
        "parser.self_s": module_self_s(summary, "parser"),
        "parser.terms_out": counts["parser.terms_out"],
        "variety.build_variety.self_s": self_s["variety.build_variety"],
        "report.self_s": module_self_s(summary, "report"),
        "report.render_json.self_s": self_s["report.render_json"],
        "report.replay_witnesses.self_s": self_s["report.replay_witnesses"],
        "cli.self_s": module_self_s(summary, "cli"),
        "tracing.overhead_s": overhead_s,
    }
    for name in ("linalg.solve_rational", "linalg.rank",
                 "linalg.nonneg_solve_exact", "linalg.smith_normal_form",
                 "solvers.decide_gradient_system",
                 "solvers.decide_equation_system", "solvers.random_search",
                 "solvers.verify", "solvers.gaussian_roots",
                 "newton.newton_polyhedron", "newton.face_function",
                 "family.specialize", "variety.build_variety"):
        m[name + ".calls"] = calls[name]
    for key in ("method.ExactSubclass", "method.SymbolicCriterion",
                "method.RandomSearchCertified", "method.Capped",
                "holds", "fails", "unknown"):
        m["checks." + key] = verdicts.get(key, 0)
    return m
