"""Span recorder installed on weddle from outside the package.

Nothing under ``src/`` knows about tracing.  ``Recorder.install`` replaces
the public functions of each layer module with timing wrappers, on the
defining module and on every other module that imported the same object
by name (``suite`` imports ``nullspace`` and ``chordal_distance``
directly, ``curves`` imports ``fit_hypersurface``, and so on).  A few
class methods get spans as well; scalar arithmetic (``Fp``, ``Cyc``) and
validated ``SymplecticMat`` constructions are only counted, because
timing a sub-microsecond call distorts it.

A span is ``(name, start, end, parent)``.  Spans stay in memory and are
written once, by ``Recorder.dump``, when the operation has finished.
``layer_metrics`` turns a dump into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import time
import types

import numpy as np

LAYERS = ("fields", "poly", "linalg", "symplectic", "heisenberg", "burkhardt",
          "theta", "curves", "suite", "cli")

# class methods that get spans: (module, class, method)
METHOD_SPANS = (
    ("poly", "SparsePoly", "evaluate"),
    ("poly", "SparsePoly", "substitute_linear"),
    ("linalg", "Matrix", "mat_mul"),
    ("linalg", "Matrix", "mat_vec"),
)

# class methods that are only counted: metric name -> (module, class, methods)
COUNTED = {
    "fields.Fp.ops": ("fields", "Fp", (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__")),
    "fields.Cyc.ops": ("fields", "Cyc", (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__", "inv")),
    "symplectic.SymplecticMat.calls": ("symplectic", "SymplecticMat", ("__init__",)),
}

# constructions that silently refit with more data when the first fit is
# not unique; their direct fit_hypersurface children are reported as `fits`
REFITTING = ("curves.weddle_prime_fit", "theta.weddle_from_theta")


def _fit_domain(domain) -> str:
    name = getattr(domain, "name", "")
    if name.startswith("Fp:"):
        return "gf"
    if name == "C":
        return "c"
    return "exact"


def _shape_entries(a) -> int:
    shape = np.shape(a)
    return int(shape[0] * shape[1]) if len(shape) == 2 else 0


class Recorder:
    """Spans and counters of one traced operation."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.outer = []           # no enclosing span of the same name
        self._stack = [-1]
        self._active: dict[int, int] = {}
        self.counts: dict[str, int] = {}
        self.caches: dict[str, object] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._active[self._ids[name]] = 0
        return self._ids[name]

    def span(self, qualname: str, fn, split=None, count=None, rename=None):
        """Wrap ``fn`` so that each call records one span.

        ``split(args, kwargs)`` appends a suffix to the span name,
        ``count(args, kwargs)`` adds to the counter ``<qualname>.<key>``,
        ``rename(result)`` names the span after the call returns.
        """
        base = self._id(qualname)
        active, stack = self._active, self._stack
        name, start, end = self.name, self.start, self.end
        parent, outer, counts = self.parent, self.outer, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = base
            if split is not None:
                nid = self._id("%s.%s" % (qualname, split(args, kwargs)))
            if count is not None:
                key, n = count(args, kwargs)
                key = "%s.%s" % (qualname, key)
                counts[key] = counts.get(key, 0) + n
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            outer.append(active[nid] == 0)
            end.append(0.0)
            active[nid] += 1
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                active[nid] -= 1
            if rename is not None:
                name[i] = self._id(rename(result))
            return result

        return traced

    def counter(self, key: str, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layer modules of an imported ``weddle`` package."""
        import importlib

        mods = {m: importlib.import_module("%s.%s" % (package.__name__, m))
                for m in LAYERS}
        replaced = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if hasattr(obj, "cache_info"):
                    self.caches["%s.%s" % (short, attr)] = obj
                elif not isinstance(obj, types.FunctionType):
                    continue
                replaced[id(obj)] = (obj, self._wrap_function(short, attr, obj))
        # every module that imported one of these objects by name
        for mod in [package] + list(mods.values()):
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        # the check registry holds the check functions themselves
        suite = mods["suite"]
        suite.CHECKS = tuple(
            (s, replaced[id(fn)][1] if id(fn) in replaced else fn)
            for s, fn in suite.CHECKS)
        for short, cls, meth in METHOD_SPANS:
            klass = getattr(mods[short], cls)
            setattr(klass, meth, self.span("%s.%s.%s" % (short, cls, meth),
                                           vars(klass)[meth]))
        for key, (short, cls, meths) in COUNTED.items():
            klass = getattr(mods[short], cls)
            for meth in meths:
                setattr(klass, meth, self.counter(key, vars(klass)[meth]))

    def _wrap_function(self, short: str, attr: str, fn):
        qual = "%s.%s" % (short, attr)
        if qual == "linalg.fit_hypersurface":
            return self.span(qual, fn, split=lambda a, k: _fit_domain(
                k.get("domain", a[2] if len(a) > 2 else None)))
        if qual == "linalg.rref_mod_p":
            return self.span(qual, fn, count=lambda a, k: ("entries", _shape_entries(a[0])))
        if qual == "linalg.eval_poly_mod_p":
            return self.span(qual, fn, count=lambda a, k: ("point_evals", len(a[1])))
        if short == "suite" and attr.startswith("check_"):
            return self.span(qual, fn, rename=lambda rec: "suite.%s" % rec.id)
        return self.span(qual, fn)

    # -- output -------------------------------------------------------------

    def dump(self, path: str) -> None:
        counts = dict(self.counts)
        for key, fn in self.caches.items():
            info = fn.cache_info()
            counts[key + ".misses"] = info.misses
            counts[key + ".hits"] = info.hits
        np.savez(path,
                 name=np.asarray(self.name, dtype=np.int32),
                 start=np.asarray(self.start, dtype=np.float64),
                 end=np.asarray(self.end, dtype=np.float64),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 outer=np.asarray(self.outer, dtype=bool),
                 meta=np.asarray(json.dumps({"names": self.names,
                                             "counts": counts})))


def layer_metrics(path: str) -> dict:
    """Per-function, per-module and count metrics of one span dump.

    For a function: ``s`` is inclusive time (outermost spans only, so
    recursion is not counted twice), ``self_s`` is span time minus the time
    covered by child spans, ``calls`` is the number of spans.  For a
    module, ``<module>.self_s`` sums the self time of its spans.
    ``span_s`` is the time covered by top-level spans.
    """
    with np.load(path) as z:
        name, start, end = z["name"], z["start"], z["end"]
        parent, outer = z["parent"], z["outer"]
        meta = json.loads(str(z["meta"]))
    names = meta["names"]
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    self_t = dur - covered
    k = len(names)
    calls = np.bincount(name, minlength=k)
    incl = np.bincount(name[outer], weights=dur[outer], minlength=k)
    self_by = np.bincount(name, weights=self_t, minlength=k)
    out = {}
    modules = {}
    for i, n in enumerate(names):
        if not calls[i]:
            continue
        out[n + ".calls"] = int(calls[i])
        out[n + ".s"] = float(incl[i])
        out[n + ".self_s"] = float(self_by[i])
        mod = n.split(".", 1)[0]
        modules[mod] = modules.get(mod, 0.0) + float(self_by[i])
    for mod in LAYERS:
        out[mod + ".self_s"] = modules.get(mod, 0.0)
    fit_ids = {i for i, n in enumerate(names) if n.startswith("linalg.fit_hypersurface.")}
    is_fit = np.isin(name, list(fit_ids)) & child
    for qual in REFITTING:
        if qual in names:
            pid = names.index(qual)
            out[qual + ".fits"] = int(np.sum(name[parent[is_fit]] == pid))
    out.update(meta["counts"])
    out["span_s"] = float(dur[~child].sum())
    return out
