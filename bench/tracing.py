"""Span tracing of ``equicoh`` from outside the program.

``install`` replaces the public functions of each module (the layers) and a
few public methods with wrappers that record one span per call: name, start,
end and parent.  Every name a module binds to a wrapped function is replaced
too (``spectral.subquotient``, ``cli.cohomology``, ...), so calls across
modules are seen.  ``uninstall`` puts every original object back.

Spans are kept in flat arrays in memory and written by ``write_spans`` at
the end.  A span's self time is its duration minus the durations of its
direct children.  The code is single-threaded, so spans nest strictly and no
layer ever waits on another; there is no wait time to report.

Sizes such as ``in_cells`` or ``cells_copied`` are computed from the shapes
of arguments and results, not reported by the program.  Computing them is
kept off the span clock: the time spent is added to ``hidden`` and
subtracted from every later clock reading.

Helpers too small to wrap (``bases``, the entry-wise ``ratlin`` helpers)
count in their callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from array import array
from typing import Callable, Optional

LAYERS = ("ratlin", "core", "poly", "lie", "gdiff", "spectral", "poisson",
          "cli")

# Module-level public functions left unwrapped: they touch single entries
# or copy rows, and are called far too often for a span each.
SKIP = {
    "ratlin": {"q", "scalar_str", "zeros", "identity", "transpose", "mat_add",
               "mat_sub", "mat_scale", "mat_eq", "is_zero", "hstack",
               "vstack", "mat_from_columns", "columns", "ncols"},
}

# Span names that differ from "<layer>.<function>".
RENAMED = {"gdiff.check_gdiff_axioms": "gdiff.check"}

# Public methods wrapped: (layer, class, method, span name).
METHODS = (
    ("core", "LinearMap", "from_blocks", "core.from_blocks"),
    ("core", "LinearMap", "block", "core.block"),
    ("core", "LinearMap", "compose", "core.compose"),
    ("core", "LinearMap", "add", "core.map_add"),
    ("core", "LinearMap", "scale", "core.map_scale"),
    ("core", "LinearMap", "apply", "core.apply"),
    ("core", "Subspace", "from_spans", "core.from_spans"),
    ("core", "Subspace", "contains", "core.contains"),
    ("core", "Subspace", "add", "core.space_add"),
    ("core", "Subspace", "intersect", "core.intersect"),
    ("core", "SubquotientResult", "project", "core.project"),
    ("core", "CochainComplex", "build", "core.complex_build"),
    ("poly", "PolyMultivector", "__init__", "poly.PolyMultivector"),
    ("poly", "PolyForm", "__init__", "poly.PolyForm"),
    ("poly", "_Graded", "add", "poly.add"),
    ("poly", "_Graded", "scale", "poly.scale"),
)

ROOT = "bench.solve"   # layer "bench": time outside any wrapped call


class Tracer:
    """Spans of one traced run, as parallel arrays, plus per-name totals."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("i")
        self.stack: list = []        # [span index, child time] per open span
        self.self_s: list = []       # per name id
        self.calls: list = []        # per name id
        self.counts: dict = {}       # derived counters by metric name
        self.hidden = 0.0            # time spent computing counters

    def name_id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return sid

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def parent_name(self) -> Optional[str]:
        return self.names[self.name[self.stack[-1][0]]] if self.stack else None

    def wrap(self, fn: Callable, span: str,
             counter: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span named ``span`` per call."""
        sid = self.name_id(span)
        clock = time.perf_counter
        tr = self
        stack, starts, ends = self.stack, self.start, self.end
        names, parents = self.name, self.parent
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock() - tr.hidden
            idx = len(starts)
            starts.append(t0)
            ends.append(t0)
            names.append(sid)
            parents.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock() - tr.hidden
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                self_s[sid] += dur - frame[1]
                calls[sid] += 1
                if stack:
                    stack[-1][1] += dur
            if counter is not None:
                h0 = clock()
                counter(tr, args, kwargs, result)
                tr.hidden += clock() - h0
            return result

        return wrapper

    def totals(self) -> dict:
        """Span name -> (calls, self seconds)."""
        return {n: (self.calls[i], self.self_s[i])
                for i, n in enumerate(self.names) if self.calls[i]}


# ---------------------------------------------------------------------------
# Counters computed from arguments and results


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _bits(x) -> int:
    if isinstance(x, int):
        return x.bit_length()
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _count_rref(tr, args, kwargs, result):
    a = _arg(args, kwargs, 0, "a")
    rows = len(a)
    tr.add("ratlin.rref.in_cells", rows * (len(a[0]) if rows else 0))
    tr.add("ratlin.rref.in_nnz", sum(1 for row in a for x in row if x))
    tr.add("ratlin.rref.rows", rows)
    reduced, pivots = result
    tr.add("ratlin.rref.pivots", len(pivots))
    tr.peak("ratlin.rref.max_bits",
            max((_bits(x) for row in reduced for x in row if x), default=0))


def _count_block(tr, args, kwargs, result):
    tr.add("core.block.cells_copied",
           len(result) * (len(result[0]) if result else 0))


def _count_from_blocks(tr, args, kwargs, result):
    blocks = _arg(args, kwargs, 3, "blocks")
    tr.add("core.from_blocks.cells",
           sum(len(m) * len(m[0]) for m in blocks.values() if m))


def _leibniz_budget() -> Optional[int]:
    from equicoh import gdiff
    fn = getattr(gdiff, "_check_leibniz", None)
    if fn is None:
        return None
    param = inspect.signature(fn).parameters.get("budget")
    return None if param is None else param.default


def _count_check(tr, args, kwargs, result):
    """Basis pairs of the Leibniz check, computed from the space dims the
    way the check chooses them: all pairs up to its budget, else a fixed
    number of partners per basis element."""
    c = _arg(args, kwargs, 0, "c")
    check_product = _arg(args, kwargs, 1, "check_product")
    if check_product is not False and c.product is not None:
        dims = sum(c.space.dim(n) for n in c.space.degrees())
        budget = _leibniz_budget()
        pairs = dims * dims
        if budget is not None and pairs > budget:
            pairs = max(1, budget // max(1, dims)) * dims
        tr.add("gdiff.check.basis_pairs", pairs)
    tr.add("gdiff.check.failures", len(result.failures))


def _count_cartan_model(tr, args, kwargs, result):
    tr.add("gdiff.cartan_model.model_dim", result.model_space.total_dim())


def _count_subquotient(tr, args, kwargs, result):
    if tr.parent_name() == "spectral.pages":
        tr.add("spectral.cells", 1)
        if not any(result.dims.values()):
            tr.add("spectral.cells_empty", 1)


def _count_pages(tr, args, kwargs, result):
    tr.add("spectral.pages.count", len(result))


def _count_poly_model(tr, args, kwargs, result):
    tr.add("poisson.build_poly_model.basis_dim", result.space.total_dim())


def _count_verify_identity(tr, args, kwargs, result):
    tr.add("poisson.verify_identity.witnesses", len(result.witnesses))


COUNTERS = {
    "ratlin.rref": _count_rref,
    "core.block": _count_block,
    "core.from_blocks": _count_from_blocks,
    "core.subquotient": _count_subquotient,
    "gdiff.check": _count_check,
    "gdiff.cartan_model": _count_cartan_model,
    "spectral.pages": _count_pages,
    "poisson.build_poly_model": _count_poly_model,
    "poisson.verify_identity": _count_verify_identity,
}


# ---------------------------------------------------------------------------
# Installing and removing the wrappers


def _modules() -> list:
    import equicoh
    mods = [equicoh]
    for layer in LAYERS + ("bases",):
        mods.append(importlib.import_module(f"equicoh.{layer}"))
    return mods


def install(tr: Tracer) -> list:
    """Wrap every target; returns the records ``uninstall`` needs."""
    wrappers = {}   # id(original) -> (original, wrapper)
    for layer in LAYERS:
        mod = importlib.import_module(f"equicoh.{layer}")
        for fname, value in vars(mod).items():
            if (fname.startswith("_") or fname in SKIP.get(layer, ())
                    or not inspect.isfunction(value)
                    or value.__module__ != mod.__name__):
                continue
            span = RENAMED.get(f"{layer}.{fname}", f"{layer}.{fname}")
            wrappers[id(value)] = (value, tr.wrap(value, span,
                                                  COUNTERS.get(span)))
    restore = []
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                restore.append((mod, attr, value))
                setattr(mod, attr, hit[1])
    for layer, cls_name, meth, span in METHODS:
        cls = getattr(importlib.import_module(f"equicoh.{layer}"),
                      cls_name, None)
        raw = None if cls is None else vars(cls).get(meth)
        if raw is None:
            continue
        counter = COUNTERS.get(span)
        if isinstance(raw, staticmethod):
            new = staticmethod(tr.wrap(raw.__func__, span, counter))
        else:
            new = tr.wrap(raw, span, counter)
        restore.append((cls, meth, raw))
        setattr(cls, meth, new)
    return restore


def uninstall(restore: list) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics


# Spans reported by call count ("<span>.calls") and by self time
# ("<span>.self_s"), beside the self time of every layer.
CALLS = ("ratlin.rref", "ratlin.rank", "ratlin.mat_mul", "core.block",
         "core.from_blocks", "core.subquotient", "core.project",
         "core.from_spans", "core.compose", "gdiff.check",
         "poisson.verify_identity", "poisson.schouten", "poisson.d_pi")
SELF = ("ratlin.mat_mul", "core.block", "core.from_blocks", "gdiff.check",
        "gdiff.weil_algebra", "gdiff.tensor_product", "gdiff.cartan_model",
        "spectral.contraction_filtration", "poisson.build_poly_model",
        "poisson.operator_matrix")
# Counters reported as they are; the other counters feed the ratios.
COUNTED = ("ratlin.rref.in_cells", "ratlin.rref.in_nnz",
           "ratlin.rref.max_bits", "core.block.cells_copied",
           "core.from_blocks.cells", "gdiff.check.basis_pairs",
           "gdiff.check.failures", "gdiff.cartan_model.model_dim",
           "spectral.pages.count", "spectral.cells",
           "poisson.build_poly_model.basis_dim",
           "poisson.verify_identity.witnesses")


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced job, by name."""
    totals = tr.totals()
    out = {f"{layer}.self_s": sum((s for n, (_, s) in totals.items()
                                   if n.split(".", 1)[0] == layer), 0.0)
           for layer in LAYERS + ("bench",)}
    out.update({f"{s}.calls": totals.get(s, (0, 0.0))[0] for s in CALLS})
    out.update({f"{s}.self_s": totals.get(s, (0, 0.0))[1] for s in SELF})
    out.update({k: tr.counts.get(k, 0) for k in COUNTED})

    def ratio(num, den):
        den = tr.counts.get(den, 0)
        return tr.counts.get(num, 0) / den if den else 0.0

    out["ratlin.rref.rank_ratio"] = ratio("ratlin.rref.pivots",
                                          "ratlin.rref.rows")
    out["spectral.subquotient.empty_frac"] = ratio("spectral.cells_empty",
                                                   "spectral.cells")
    out["trace.spans"] = len(tr.start)
    out["trace.count_s"] = tr.hidden
    return out


# ---------------------------------------------------------------------------
# Writing and reading spans


def write_spans(tr: Tracer, prefix: str) -> None:
    """``<prefix>.json`` names the arrays; ``<prefix>.bin`` holds start and
    end (float64 seconds), name id (uint16) and parent index (int32, -1 at
    the root), one array after the other, in native byte order."""
    os.makedirs(os.path.dirname(prefix) or ".", exist_ok=True)
    with open(prefix + ".bin", "wb") as fh:
        for arr in (tr.start, tr.end, tr.name, tr.parent):
            arr.tofile(fh)
    meta = {"count": len(tr.start), "names": tr.names,
            "arrays": [["start", "d"], ["end", "d"], ["name", "H"],
                       ["parent", "i"]]}
    with open(prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


def read_spans(prefix: str) -> tuple:
    """(names, start, end, name, parent) as written by ``write_spans``."""
    with open(prefix + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    arrays = []
    with open(prefix + ".bin", "rb") as fh:
        for _, code in meta["arrays"]:
            arr = array(code)
            arr.fromfile(fh, meta["count"])
            arrays.append(arr)
    return (meta["names"], *arrays)


def self_times(names, start, end, name, parent) -> dict:
    """Self seconds per span name: duration minus the direct children's."""
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    out = {}
    for i in range(len(start)):
        key = names[name[i]]
        out[key] = out.get(key, 0.0) + (end[i] - start[i]) - child[i]
    return out
