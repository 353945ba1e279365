"""Span tracing of a4csl's layers from outside the program.

install() rebinds every public function of the layer modules, and the
listed methods of their classes, to a timing wrapper, in every a4csl
namespace that holds the function: modules use ``from .x import y``, so
patching only the defining module would miss most calls.  uninstall()
puts the originals back.

Each call records one span (name, start, end, parent).  A shortvec
generator records one aggregated span: its busy time is the sum of its
resumes, and its node count is read from the NodeBudget passed in (one
with an unreachable limit is supplied when the caller passes none).
Spans stay in memory; self time is busy time minus the busy time of the
child spans.  Z[tau] integer arithmetic (OInt) is not wrapped: it is too
fine-grained, and its time counts toward the layer that calls it.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("field", "quaternion", "icosian", "hnf", "lattice", "shortvec", "csl", "counting", "cli")

# Methods traced besides the public module functions.
METHODS = {
    "field": {"KNum": ("__add__", "__sub__", "__mul__", "__truediv__", "inverse")},
    "quaternion": {
        "Quat": ("__add__", "__sub__", "__mul__", "scale", "conj", "nr", "twist", "inverse"),
    },
    "icosian": {
        "Icosian": (
            "__mul__", "nr", "content", "is_primitive", "primitive_part", "is_admissible",
            "scale_o", "conj", "twist", "phi_plus", "quat", "from_quat",
        ),
        "Rank8Module": ("from_rows", "contains"),
    },
    "lattice": {"SublatticeL": ("from_integer_rows", "from_rational_rows", "contains")},
}

# The hnf functions that take rows to reduce.  A call counts toward hnf.calls
# and hnf.rows_in only when it enters the layer from outside, so the counts
# measure the work other layers ask of hnf, not how hnf.py is split up.
HNF_ENTRIES = ("hnf.hnf", "hnf.hnf_square", "hnf.left_kernel", "hnf.intersect_rows")
_UNBOUNDED = 1 << 62


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # One entry per span, in opening order.
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_busy: list[float] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_busy.append(0.0)
        return idx

    def _call_wrapper(self, fn, name: str):
        name_id = self._intern(name)
        stack = self._stack
        opened = self._open
        starts, ends, busy = self.span_start, self.span_end, self.span_busy
        counts = self.counts
        names, span_name = self.names, self.span_name

        def timed(*args, **kwargs):
            idx = opened(name_id)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx], ends[idx], busy[idx] = t0, t1, t1 - t0

        wrapper = timed
        if name in HNF_ENTRIES:

            def wrapper(rows, *args, **kwargs):
                parent = stack[-1]
                if parent < 0 or not names[span_name[parent]].startswith("hnf."):
                    if not hasattr(rows, "__len__"):
                        rows = list(rows)
                    counts["hnf.calls"] += 1
                    counts["hnf.rows_in"] += len(rows)
                    if name == "hnf.intersect_rows":
                        counts["hnf.rows_in"] += len(args[0])
                return timed(rows, *args, **kwargs)

        elif name == "counting.enumerate_rotations":

            def wrapper(*args, **kwargs):
                reps = timed(*args, **kwargs)
                counts["counting.classes"] += len(reps)
                return reps

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator_wrapper(self, fn, name: str, budget_cls):
        name_id = self._intern(name)
        takes_budget = "budget" in inspect.signature(fn).parameters

        def wrapper(*args, **kwargs):
            budget = kwargs.get("budget")
            if takes_budget and budget is None:
                budget = kwargs["budget"] = budget_cls(_UNBOUNDED)
            before = budget.used if budget is not None else 0
            gen = fn(*args, **kwargs)
            return self._resumes(gen, self._open(name_id), name, budget, before)

        wrapper.__wrapped__ = fn
        return wrapper

    def _resumes(self, gen, idx: int, name: str, budget, before: int):
        """Re-yield gen's items, timing each resume into the span idx."""
        stack = self._stack
        first = True
        try:
            while True:
                stack.append(idx)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    if first:
                        self.span_start[idx] = t0
                        first = False
                    self.span_end[idx] = t1
                    self.span_busy[idx] += t1 - t0
                self.counts[name + ".vectors"] += 1
                yield item
        finally:
            gen.close()
            if budget is not None:
                self.counts[name + ".nodes"] += budget.used - before

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        budget_cls = importlib.import_module("a4csl.shortvec").NodeBudget
        namespaces = [m for n, m in sys.modules.items() if n == "a4csl" or n.startswith("a4csl.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"a4csl.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    wrapper = self._generator_wrapper(obj, name, budget_cls)
                else:
                    wrapper = self._call_wrapper(obj, name)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, key, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    raw = vars(cls).get(meth) if cls is not None else None
                    if raw is None:
                        continue  # renamed or removed: its metric reads zero
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        wrapper = classmethod(self._call_wrapper(raw.__func__, name))
                    else:
                        wrapper = self._call_wrapper(raw, name)
                    self._patch(cls, meth, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def summary(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        child = [0.0] * len(self.span_name)
        for parent, busy in zip(self.span_parent, self.span_busy):
            if parent >= 0:
                child[parent] += busy
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += self.span_busy[i] - child[i]
        return calls, self_s

    def spans(self) -> dict:
        return {
            "names": self.names,
            "name": self.span_name,
            "parent": self.span_parent,
            "start": self.span_start,
            "end": self.span_end,
            "busy": self.span_busy,
        }


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    calls, self_s = tracer.summary()
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_s.items() if k.split(".", 1)[0] == layer)

    nodes = sum(v for k, v in counts.items() if k.startswith("shortvec.") and k.endswith(".nodes"))
    vectors = sum(v for k, v in counts.items() if k.startswith("shortvec.") and k.endswith(".vectors"))
    sv_self = layer_self("shortvec")
    out["shortvec.nodes"] = (nodes, "count")
    out["shortvec.vectors"] = (vectors, "count")
    out["shortvec.self_s"] = (sv_self, "s")
    out["shortvec.nodes_per_s"] = (nodes / sv_self if sv_self > 0 else 0.0, "1/s")

    classes = counts["counting.classes"]
    dfs_vectors = counts["shortvec.enumerate_two_forms.vectors"]
    out["counting.classes"] = (classes, "count")
    out["counting.useful_ratio"] = (classes / dfs_vectors if dfs_vectors else 0.0, "ratio")
    out["counting.self_s"] = (layer_self("counting"), "s")

    out["csl.self_s"] = (layer_self("csl"), "s")
    for fn in ("rotation_of", "csl_Lq", "csl_intersection", "csl_ideal_form", "criterion_ideal", "equal_csl"):
        out[f"csl.{fn}.self_s"] = (self_s[f"csl.{fn}"], "s")
        out[f"csl.{fn}.calls"] = (calls[f"csl.{fn}"], "count")

    out["lattice.self_s"] = (layer_self("lattice"), "s")
    for fn in ("is_g_orthogonal", "phi_plus_image", "module_to_L", "int_L_coords"):
        out[f"lattice.{fn}.self_s"] = (self_s[f"lattice.{fn}"], "s")

    out["hnf.calls"] = (counts["hnf.calls"], "count")
    out["hnf.rows_in"] = (counts["hnf.rows_in"], "count")
    out["hnf.self_s"] = (layer_self("hnf"), "s")

    out["icosian.mul_calls"] = (calls["icosian.Icosian.__mul__"], "count")
    for fn in ("glcd", "right_ideal", "same_right_ideal"):
        out[f"icosian.{fn}.self_s"] = (self_s[f"icosian.{fn}"], "s")
    out["icosian.self_s"] = (layer_self("icosian"), "s")

    out["field.gcd_o.calls"] = (calls["field.gcd_o"], "count")
    out["field.unit_normalize.calls"] = (calls["field.unit_normalize"], "count")
    out["field.self_s"] = (layer_self("field"), "s")

    out["quaternion.inverse.calls"] = (calls["quaternion.Quat.inverse"], "count")
    out["quaternion.self_s"] = (layer_self("quaternion"), "s")

    out["cli.self_s"] = (layer_self("cli"), "s")
    return out


# Counts that must repeat exactly when the same inputs are traced again.
EXACT_COUNTS = (
    "shortvec.nodes",
    "shortvec.vectors",
    "counting.classes",
    "hnf.rows_in",
    "icosian.mul_calls",
    "field.gcd_o.calls",
)
