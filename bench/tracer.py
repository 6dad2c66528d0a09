"""Span tracing installed around the package's public calls at run time.

The package source is never edited.  :func:`install` replaces every
public function, every value-type constructor, a few named methods, the
verification family table and ``np.einsum`` with wrappers, in every
module namespace that holds the wrapped object.  Each wrapper records
one span: name, start, end, parent span and iteration id.  Spans stay
in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children.  The layer of a span is the first component of its name: a
module of the package, or ``kernel`` for ``np.einsum``.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "nondisturbing"
LAYERS = (
    "linalg", "objects", "probes", "channels", "models",
    "catalog", "scenario", "serialization", "verify", "cli",
)

# Methods wrapped besides the module-level API: (module, class, attribute) -> span name.
METHODS = {
    ("channels", "NDChannel", "as_operation"): "channels.as_operation",
    ("channels", "NDChannel", "induced_kraus"): "channels.induced_kraus",
    ("objects", "Observable", "from_matrices"): "objects.Observable.from_matrices",
}


def einsum_flop(subscripts, operands, optimize) -> int:
    """FLOP count of one einsum as issued, read from ``numpy.einsum_path``.

    Without ``optimize`` numpy contracts all operands in one naive loop,
    so the count is the path report's naive one; with ``optimize`` set,
    it is the count of the chosen path.
    """
    label = "Optimized FLOP count:" if optimize else "Naive FLOP count:"
    _, text = np.einsum_path(subscripts, *operands, optimize=optimize or "greedy")
    for line in text.splitlines():
        if label in line:
            return int(float(line.split(":")[1]))
    raise ValueError(f"einsum_path gave no {label!r} line")


class Tracer:
    """In-memory span store plus the counters the wrappers feed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.iteration = 0
        self.name = array("i")
        self.parent = array("i")
        self.span_iteration = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.failed = array("b")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self._flop_cache: dict = {}

    def intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, nid: int, func, args, kwargs):
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.span_iteration.append(self.iteration)
        self.end.append(0.0)
        self.self_time.append(0.0)
        self.failed.append(0)
        self._stack.append(index)
        self._child.append(0.0)
        t0 = perf_counter()
        self.start.append(t0)
        try:
            return func(*args, **kwargs)
        except BaseException:
            self.failed[index] = 1
            raise
        finally:
            t1 = perf_counter()
            self._stack.pop()
            duration = t1 - t0
            self.end[index] = t1
            self.self_time[index] = duration - self._child.pop()
            if self._child:
                self._child[-1] += duration

    def wrap(self, name: str, func, hook=None):
        nid = self.intern(name)
        call = self.call

        if hook is None:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                return call(nid, func, args, kwargs)
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                result = call(nid, func, args, kwargs)
                hook(self, args, kwargs, result)
                return result
        return wrapper

    def einsum_wrapper(self, einsum):
        nid = self.intern("kernel.einsum")
        call = self.call
        cache = self._flop_cache
        counters = self.counters

        @functools.wraps(einsum)
        def wrapper(*operands, **kwargs):
            optimize = kwargs.get("optimize", False)
            key = (operands[0], tuple(np.shape(op) for op in operands[1:]), str(optimize))
            flop = cache.get(key)
            if flop is None:
                flop = cache[key] = einsum_flop(operands[0], operands[1:], optimize)
            counters["kernel.einsum.flop"] += flop
            return call(nid, einsum, operands, kwargs)
        return wrapper

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Totals per span name and per layer over every recorded span."""
        per_name: dict[str, dict[str, float]] = {}
        per_layer: dict[str, dict[str, float]] = {}
        layer_of = [n.split(".", 1)[0] for n in self.names]
        for i in range(len(self.name)):
            nid = self.name[i]
            name = self.names[nid]
            duration = self.end[i] - self.start[i]
            entry = per_name.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += self.self_time[i]
            entry["total_s"] += duration
            layer = layer_of[nid]
            lentry = per_layer.setdefault(layer, {"calls": 0, "self_s": 0.0, "errors": 0})
            lentry["calls"] += 1
            lentry["self_s"] += self.self_time[i]
            if self.failed[i]:
                parent = self.parent[i]
                if parent < 0 or layer_of[self.name[parent]] != layer:
                    lentry["errors"] += 1
        return {"names": per_name, "layers": per_layer}

    def save(self, path) -> None:
        """Write every span to ``path`` as a NumPy ``.npz`` archive."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            iteration=np.frombuffer(self.span_iteration, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            self_time=np.frombuffer(self.self_time, dtype=np.float64),
            failed=np.frombuffer(self.failed, dtype=np.int8),
        )


def _kron_bytes(tracer, args, kwargs, result):
    tracer.counters["linalg.kron.out_bytes"] += result.nbytes


# The distinct sets hold the objects themselves (hashed by identity), not
# their ids: that keeps them alive, so an id is never reused for another.

def _channel_identity(tracer, args, kwargs, result):
    tracer.distinct["channels.as_operation"].add((tracer.iteration, args[0]))


def _model_state_pair(tracer, args, kwargs, result):
    mm = args[0] if args else kwargs["mm"]
    rho = args[1] if len(args) > 1 else kwargs["rho"]
    digest = hashlib.blake2b(np.ascontiguousarray(rho.matrix).tobytes(), digest_size=16)
    tracer.distinct["models.post_probe_observable"].add((tracer.iteration, mm, digest.digest()))


HOOKS = {
    "linalg.kron": _kron_bytes,
    "channels.as_operation": _channel_identity,
    "models.post_probe_observable": _model_state_pair,
}


def install(tracer: Tracer) -> int:
    """Wrap the package's public calls in place; return the number wrapped.

    A function is replaced in every loaded module of the package that
    holds it, so both ``module.f`` and names bound by ``from module
    import f`` reach the wrapper.
    """
    modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in LAYERS}
    replacements: dict[int, object] = {}
    for layer, module in modules.items():
        for attr in module.__all__:
            obj = getattr(module, attr)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                replacements[id(obj)] = tracer.wrap(name, obj, HOOKS.get(name))
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                init = obj.__dict__.get("__init__")
                if init is not None:
                    obj.__init__ = tracer.wrap(f"{layer}.{attr}.init", init)
    for (layer, cls_name, attr), name in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        raw = cls.__dict__[attr]
        hook = HOOKS.get(name)
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, hook)))
        elif isinstance(raw, functools.cached_property):
            prop = functools.cached_property(tracer.wrap(name, raw.func, hook))
            prop.__set_name__(cls, attr)
            setattr(cls, attr, prop)
        else:
            setattr(cls, attr, tracer.wrap(name, raw, hook))
    families = modules["verify"]._FAMILIES
    for family, check in list(families.items()):
        families[family] = tracer.wrap(f"verify.family.{family}", check)

    traced_np = types.ModuleType("numpy")
    traced_np.__dict__.update(np.__dict__)
    traced_np.einsum = tracer.einsum_wrapper(np.einsum)
    targets = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for module in targets:
        namespace = module.__dict__
        for attr, value in list(namespace.items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                namespace[attr] = wrapper
            elif value is np:
                namespace[attr] = traced_np
    return len(replacements) + len(METHODS) + len(families) + 1
