"""Span tracing of mixwass's public functions, installed from outside.

Each traced function is replaced, in every ``mixwass`` namespace that
binds it (the package, its defining module and the modules that import it
by name), with a wrapper that records a span: name, start, end, parent span
and op index.  Spans stay in memory until the run ends.  Private helpers
such as ``_em_batch`` are not wrapped, so their time is the self time of
their public caller.  A few wrappers also keep a note from the result
(EM iterations, vertex count, failures) so that counts are taken
where the work happens.
"""

from __future__ import annotations

import functools
import sys
import weakref
from statistics import median
from time import perf_counter

import numpy as np


def _rows(directions) -> int:
    U = np.asarray(directions)
    return 1 if U.ndim == 1 else int(U.shape[0])


def _note_mle(args, kwargs, out):
    return {"iterations": out.iterations, "converged": out.converged, "kkt_gap": out.kkt_gap}


def _note_support(args, kwargs, out):
    return {"directions": _rows(args[1] if len(args) > 1 else kwargs["directions"])}


def _note_failures(args, kwargs, out):
    return {"failures": int(out.failures)}


# (module, function, note) for the public functions the ops reach.  Module
# names are relative to the package.
TARGETS = (
    ("io", "load_counts", None),
    ("numlin", "pinv", None),
    ("numlin", "psd_sqrt", None),
    ("transport", "cost_matrix", None),
    ("transport", "kr_dual_value", None),
    ("transport", "support_batch", _note_support),
    ("transport", "restricted_polytope", None),
    ("estimators", "mle_weights", _note_mle),
    ("estimators", "debias", None),
    ("estimators", "sigma_hat", None),
    ("inference", "distance_estimate", None),
    ("inference", "limit_sampler", None),
    ("inference", "confidence_interval", None),
    ("inference", "derivative_bootstrap", None),
    ("inference", "m_out_of_n_bootstrap", None),
    ("simulate", "run_ci_experiment", _note_failures),
)
VERTICES = "transport.vertices"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "note")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.note = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # Polytopes whose vertices() has run before: a later call is a
        # cache read, the first one is an enumeration.
        self._queried = weakref.WeakSet()

    def _wrap(self, name, fn, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            if note is not None:
                span.note = note(args, kwargs, out)
            return out

        return traced

    def _note_vertices(self, args, kwargs, out):
        poly = args[0]
        first = poly not in self._queried
        self._queried.add(poly)
        return {"enumeration": first, "count": 0 if out is None else int(out.shape[0])}

    def install(self, warm_polytopes=()) -> None:
        """Wrap every target in every loaded mixwass module that binds it."""
        modules = [m for n, m in list(sys.modules.items()) if m is not None and (n == "mixwass" or n.startswith("mixwass."))]
        for modname, attr, note in TARGETS:
            orig = getattr(sys.modules[f"mixwass.{modname}"], attr)
            wrapper = self._wrap(f"{modname}.{attr}", orig, note)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patched.append((m, key, orig))
                        setattr(m, key, wrapper)
        cls = sys.modules["mixwass.transport"].DualPolytope
        self._patched.append((cls, "vertices", cls.vertices))
        cls.vertices = self._wrap(VERTICES, cls.vertices, self._note_vertices)
        for poly in warm_polytopes:
            self._queried.add(poly)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()


def _self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time covered by its direct children.

    One thread runs the ops, so children of a span never overlap.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span], n_ops: int, window: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Times are seconds per op averaged over the pass.  Counts cover the first
    ``window`` ops only, a fixed set of inputs, so they repeat exactly
    between runs of the same code and seed.
    """
    selfs = _self_times(spans)
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    for s, st in zip(spans, selfs):
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + st

    def per_op(table, name):
        return table.get(name, 0.0) / n_ops

    win = [s for s in spans if s.op < window]

    def notes(name):
        return [s.note for s in win if s.name == name and s.note is not None]

    def calls(name):
        return sum(1 for s in win if s.name == name)

    mle = notes("estimators.mle_weights")
    verts = notes(VERTICES)
    directions = sum(n["directions"] for n in notes("transport.support_batch"))
    lp_in_support = sum(
        1 for s in win if s.name == "transport.kr_dual_value" and s.parent >= 0 and spans[s.parent].name == "transport.support_batch"
    )
    return {
        "io.load_counts.busy_s": per_op(busy, "io.load_counts"),
        "estimators.mle_weights.busy_s": per_op(busy, "estimators.mle_weights"),
        "estimators.mle_weights.calls": len(mle),
        "estimators.mle_weights.iterations_p50": float(median(n["iterations"] for n in mle)) if mle else 0.0,
        "estimators.mle_weights.unconverged": sum(1 for n in mle if not n["converged"]),
        "estimators.mle_weights.kkt_gap_max": max((n["kkt_gap"] for n in mle), default=0.0),
        "estimators.debias.busy_s": per_op(busy, "estimators.debias"),
        "estimators.sigma_hat.busy_s": per_op(busy, "estimators.sigma_hat"),
        "numlin.pinv.calls": calls("numlin.pinv"),
        "numlin.pinv.busy_s": per_op(busy, "numlin.pinv"),
        "numlin.psd_sqrt.busy_s": per_op(busy, "numlin.psd_sqrt"),
        "transport.vertices.busy_s": per_op(busy, VERTICES),
        "transport.vertices.enumerations": sum(1 for n in verts if n["enumeration"]),
        "transport.vertices.count_max": max((n["count"] for n in verts), default=0),
        "transport.support_batch.busy_s": per_op(busy, "transport.support_batch"),
        "transport.support_batch.directions": directions,
        "transport.support_batch.lp_share": lp_in_support / directions if directions else 0.0,
        "transport.kr_dual_value.calls": calls("transport.kr_dual_value"),
        "transport.kr_dual_value.busy_s": per_op(busy, "transport.kr_dual_value"),
        "inference.limit_sampler.busy_s": per_op(busy, "inference.limit_sampler"),
        "inference.limit_sampler.self_s": per_op(own, "inference.limit_sampler"),
        "simulate.run_ci_experiment.self_s": per_op(own, "simulate.run_ci_experiment"),
        "simulate.failures": sum(n["failures"] for n in notes("simulate.run_ci_experiment")),
    }


def span_table(spans: list[Span], kinds: dict[int, str]) -> dict[str, dict[str, dict[str, float]]]:
    """Calls, busy and self seconds per span name, for each op kind."""
    out: dict[str, dict[str, dict[str, float]]] = {}
    for s, st in zip(spans, _self_times(spans)):
        row = out.setdefault(kinds[s.op], {}).setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += s.duration
        row["self_s"] += st
    return out
