"""Per-layer tracing of the dihedralcat engine, from outside the library.

Every public function of a layer module is replaced by a wrapper that
counts calls and measures self time: its own wall time minus the time of
the wrapped calls it made.  The wrapper is installed on the defining module
and on every other module that bound the same object with
``from .x import y``; methods are wrapped on the class attribute.  An
``lru_cache`` object is wrapped, not replaced, so its cache is still shared
by every caller.

K_m scalar and polynomial operations are hot and tiny, so they are counted
but not timed; their time lands in the caller's self time.  The ``series``
and ``cli`` modules are not wrapped either.
"""

import importlib
import inspect
import time

PACKAGE = "dihedralcat"
LAYERS = ("field", "ring", "linalg", "modules", "bimodule", "complexes",
          "trace", "homology", "hecke", "serre")
UNWRAPPED = ("series", "cli")

# (module, class, metric name, attributes sharing that counter)
COUNTED_METHODS = (
    ("field", "FieldScalar", "inverse", ("inverse",)),
    ("field", "FieldScalar", "mul", ("__mul__", "__rmul__")),
    ("field", "FieldScalar", "add", ("__add__", "__radd__")),
    ("ring", "RingElement", "mul", ("__mul__", "__rmul__")),
)
TIMED_METHODS = (
    ("modules", "ModuleGB", "init", "__init__"),
    ("modules", "ModuleGB", "lift", "lift"),
)


def _hom_unknowns(dom, cod, degree=0):
    """Number of unknowns of the linear system hom_degree_basis solves."""
    total = 0
    for dc in cod.degrees:
        for dd in dom.degrees:
            d = degree + dd - dc
            if d >= 0 and d % 2 == 0:
                total += d // 2 + 1
    return total


class Tracer:
    """Holds the counters; ``install`` patches the modules and starts
    counting, ``uninstall`` puts every original object back."""

    def __init__(self):
        self.stats = {}      # name -> {"calls": n, "self_s": t, extra: n}
        self._stack = []     # time spent in wrapped callees, per open frame
        self._patches = []   # (owner, attribute, original)
        self._lru = {}       # name -> lru_cache object, for hit/miss deltas
        self._lru_base = {}

    # -- recording --------------------------------------------------------

    def _entry(self, name, timed=True):
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = (
                {"calls": 0, "self_s": 0.0} if timed else {"calls": 0})
        return entry

    def _counted(self, name, fn):
        entry = self._entry(name, timed=False)

        def wrapper(*args, **kwargs):
            entry["calls"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, name, fn, extras=None, prepare=None):
        entry = self._entry(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            if prepare is not None:
                args = prepare(entry, args)
            stack.append(0.0)
            done = False
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t2 = clock()
                entry["calls"] += 1
                entry["self_s"] += (t2 - t1) - stack.pop()
                if done and extras is not None:
                    extras(entry, args, kwargs, result)
                if stack:
                    stack[-1] += clock() - t0
            return result
        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = {name: importlib.import_module("%s.%s" % (PACKAGE, name))
                   for name in LAYERS + UNWRAPPED}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) \
                        or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                if hasattr(obj, "cache_info"):
                    self._lru[name] = obj
                wrapped = self._timed(name, obj, *_EXTRAS.get(name, ()))
                for other in modules.values():
                    if vars(other).get(attr) is obj:
                        self._patch(other, attr, wrapped)
        for layer, cls_name, metric, attrs in COUNTED_METHODS:
            cls = getattr(modules[layer], cls_name)
            name = "%s.%s.%s" % (layer, cls_name, metric)
            for attr in attrs:
                self._patch(cls, attr, self._counted(name, vars(cls)[attr]))
        for layer, cls_name, metric, attr in TIMED_METHODS:
            cls = getattr(modules[layer], cls_name)
            name = "%s.%s.%s" % (layer, cls_name, metric)
            self._patch(cls, attr, self._timed(
                name, vars(cls)[attr], *_EXTRAS.get(name, ())))
        self._lru_base = {n: f.cache_info() for n, f in self._lru.items()}

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Flat {metric name: value} over every traced name."""
        out = {}
        for name, entry in self.stats.items():
            for key, value in entry.items():
                out["%s.%s" % (name, key)] = value
        for name, fn in self._lru.items():
            info, base = fn.cache_info(), self._lru_base[name]
            out[name + ".hits"] = info.hits - base.hits
            out[name + ".misses"] = info.misses - base.misses
        for layer in LAYERS:
            timed = [entry["self_s"] for name, entry in self.stats.items()
                     if name.split(".")[0] == layer and "self_s" in entry]
            if timed:
                out[layer + ".self_s"] = sum(timed)
        calls = out.get("bimodule.is_invertible.calls", 0)
        out["bimodule.is_invertible.hit_ratio"] = (
            out.get("complexes.gaussian_eliminate.calls", 0) / calls
            if calls else 0.0)
        return out


def _add(entry, key, value):
    entry[key] = entry.get(key, 0) + value


def _listify_rows(entry, args):
    rows, rest = list(args[0]), args[1:]
    _add(entry, "rows", len(rows))
    return (rows,) + rest


# name -> (extras(entry, args, kwargs, result), prepare(entry, args))
_EXTRAS = {
    "modules.ModuleGB.init": (
        lambda e, a, k, r: _add(e, "basis_size", len(a[0]._basis)),),
    "linalg.sparse_kernel_basis": (
        lambda e, a, k, r: (_add(e, "cols", a[1]),
                            _add(e, "kernel_dim", len(r))),
        _listify_rows),
    "bimodule.hom_degree_basis": (
        lambda e, a, k, r: _add(e, "unknowns", _hom_unknowns(*a, **k)),),
    "complexes.decompose_bimodule": (
        lambda e, a, k, r: _add(e, "summands", len(r)),),
    "complexes.minimal_form": (
        lambda e, a, k, r: (_add(e, "atoms_in", a[0].atom_count()),
                            _add(e, "atoms_out", r.atom_count())),),
}
