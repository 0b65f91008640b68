"""Span tracing of the lab's layers, installed from outside the library.

`Tracer.install()` wraps every public function of the traced modules, and
the vectorized methods of `FieldCtx`, at every module that binds them by
name (`ranks` binds `linalg.rref`, `checks` binds `ranks.zero_set_count`,
the package binds most of them again).  Each call records a span
(name, start, end, parent span, item id) plus the work counts its
arguments or result give.  `uninstall()` puts the original objects back.

The per-layer metric set is `LAYER_METRICS`.  A function named there that
the library no longer has is reported as absent, never as an error.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

import numpy as np

TRACED_MODULES = ("gfq", "linalg", "forms", "ranks", "pencils", "checks", "survey")
FIELD_METHODS = ("add_arr", "neg_arr", "sub_arr", "mul_arr", "inv_arr", "trace_arr",
                 "char_table", "extension")

# (module, function, stats) -> metric names "<module>.<function>.<stat>"
LAYER_METRICS = (
    ("gfq", "add_arr", ("calls", "elems", "self_s")),
    ("gfq", "neg_arr", ("calls", "self_s")),
    ("gfq", "mul_arr", ("calls", "elems", "self_s")),
    ("gfq", "extension", ("calls", "self_s")),
    ("linalg", "rref", ("calls", "self_s")),
    ("linalg", "subspace_bases", ("calls", "self_s")),
    ("linalg", "batch_rank", ("calls", "mats", "self_s")),
    ("linalg", "matmul_arr", ("calls", "self_s")),
    ("linalg", "kernel_basis", ("calls", "self_s")),
    ("forms", "restrict_axis_arr", ("calls", "self_s")),
    ("ranks", "zero_set_count", ("calls", "points", "self_s")),
    ("ranks", "analytic_rank_charsum", ("calls", "points", "self_s")),
    ("ranks", "slice_rank_exact", ("calls", "self_s", "rank_tests", "inexact")),
    ("ranks", "codim_estimate", ("calls", "self_s", "ambiguous")),
    ("pencils", "kernel_image_check", ("calls", "self_s")),
    ("pencils", "max_rank_reduction", ("calls", "self_s", "tried", "success_per_tried")),
    ("checks", "check_suite", ("calls", "self_s", "heuristics_skipped")),
    ("survey", "run_survey", ("self_s",)),
)

# exact work counts: these must repeat bit for bit between two traced runs
EXACT_STATS = ("calls", "points", "elems", "mats", "rank_tests", "tried")


def _elems(args, kwargs, result):
    return {"elems": int(np.size(result))}


def _zero_points(args, kwargs, result):
    return {"points": (args[0].ctx.q ** result.extension_degree) ** result.ambient}


def _charsum_points(args, kwargs, result):
    form = args[0]
    return {"points": form.ctx.q ** sum(form.dims)}


def _mats(args, kwargs, result):
    return {"mats": int(np.shape(args[1])[0])}


def _slice(args, kwargs, result):
    return {"inexact": int(not result.exact)}


def _tried(args, kwargs, result):
    return {"tried": result.tried_base + result.tried_ext, "successes": int(result.success)}


# work counts read from a call's arguments or result, by qualified name
COUNTERS = {
    "gfq.add_arr": _elems,
    "gfq.mul_arr": _elems,
    "ranks.zero_set_count": _zero_points,
    "ranks.analytic_rank_charsum": _charsum_points,
    "linalg.batch_rank": _mats,
    "ranks.slice_rank_exact": _slice,
    "ranks.codim_estimate": lambda a, k, r: {"ambiguous": int(r.ambiguous)},
    "checks.check_suite": lambda a, k, r: {"heuristics_skipped": int(r.heuristics_skipped)},
    "pencils.max_rank_reduction": _tried,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "counts")

    def __init__(self, name, start, end, parent, item, counts=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.item = item
        self.counts = counts


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children may overlap each other or stick out of their parent; only the
    union of child intervals clipped to the parent interval is subtracted.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None and s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[k].start, s.start), min(spans[k].end, s.end))
                             for k in kids):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


class Tracer:
    """Records spans while installed; one tracer per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(qualname)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(qualname, perf_counter(), None, stack[-1] if stack else -1,
                        tracer.item)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        return traced

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the traced layers at every binding inside the loaded package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers, names = {}, set()
        for modname in TRACED_MODULES:
            mod = importlib.import_module(f"trlab.{modname}")
            for attr, obj in sorted(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = self._wrap(f"{modname}.{attr}", obj)
                names.add(f"{modname}.{attr}")
        for name, mod in sorted(sys.modules.items()):
            if mod is None or not (name == "trlab" or name.startswith("trlab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, attr, wrappers[id(obj)])
        ctx_cls = importlib.import_module("trlab.gfq").FieldCtx
        for meth in FIELD_METHODS:
            if meth in vars(ctx_cls):
                self._set(ctx_cls, meth, self._wrap(f"gfq.{meth}", vars(ctx_cls)[meth]))
                names.add(f"gfq.{meth}")
        self.absent = sorted({f"{m}.{f}" for m, f, _ in LAYER_METRICS} - names)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation -----------------------------------------------------

    def by_function(self) -> dict[str, dict[str, float]]:
        """calls, self_s and summed work counts per traced function."""
        selfs = self_times(self.spans)
        out: dict[str, dict[str, float]] = {}
        # rank tests made inside each slice-rank search: rref calls plus
        # matrices ranked in batch, charged to the nearest enclosing search
        anc = [-1] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s.name == "ranks.slice_rank_exact":
                anc[i] = i
            elif s.parent is not None and s.parent >= 0:
                anc[i] = anc[s.parent]
        rank_tests: dict[int, int] = {}
        for i, s in enumerate(self.spans):
            a = anc[i]
            if a < 0:
                continue
            if s.name == "linalg.rref":
                rank_tests[a] = rank_tests.get(a, 0) + 1
            elif s.name == "linalg.batch_rank" and s.counts:
                rank_tests[a] = rank_tests.get(a, 0) + s.counts["mats"]
        for i, (s, st) in enumerate(zip(self.spans, selfs)):
            agg = out.setdefault(s.name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += st
            for k, v in (s.counts or {}).items():
                agg[k] = agg.get(k, 0) + v
            if s.name == "ranks.slice_rank_exact":
                agg["rank_tests"] = agg.get("rank_tests", 0) + rank_tests.get(i, 0)
        return out


def layer_values(funcs: dict[str, dict[str, float]], absent: list[str]) -> dict[str, float]:
    """The `LAYER_METRICS` values from a `Tracer.by_function()` table.

    Absent functions and functions never called report 0.
    """
    out = {}
    for mod, fn, stats in LAYER_METRICS:
        agg = funcs.get(f"{mod}.{fn}", {})
        for stat in stats:
            if stat == "success_per_tried":
                tried = agg.get("tried", 0)
                val = agg.get("successes", 0) / tried if tried else 0.0
            else:
                val = agg.get(stat, 0)
            out[f"{mod}.{fn}.{stat}"] = val
    return out


def span_records(spans: list[Span]) -> list[dict]:
    """Spans as plain dicts, times relative to the first span's start."""
    if not spans:
        return []
    t0 = spans[0].start
    return [{"name": s.name, "start": round(s.start - t0, 7), "end": round(s.end - t0, 7),
             "parent": s.parent, "item": s.item, **(s.counts or {})} for s in spans]
