"""Layer spans for the traced benchmark run, installed from outside the library.

``install()`` wraps the public functions of every traced module (the names
in its ``__all__``) and a few hot methods, then rebinds each wrapped object
under every name any ``nestohedra`` module holds it by.  Modules that did
``from .ringcalc import fpoly`` keep their own reference, so patching only
the defining module would leave those call sites untraced and their spans
reading zero.

Spans nest on one stack (the CLI runs one op on one thread), and each name
keeps four sums in memory: calls, inclusive seconds (outermost activation
only, so recursion is not double counted), self seconds (inclusive minus
the time covered by child spans) and calls that exited by an exception.
``snapshot()`` hands them over once the op has finished.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

LAYERS = ("buildingset", "ringcalc", "algebra", "series", "invariants", "cli")

# (module, class, method, span name)
METHODS = (
    ("algebra", "Poly2", "__mul__", "algebra.Poly2.mul"),
    ("algebra", "Poly2", "__add__", "algebra.Poly2.add"),
    ("series", "Series2", "__mul__", "series.Series2.mul"),
    ("ringcalc", "FPolyCache", "lookup", "ringcalc.FPolyCache.lookup"),
)


def _size(value: object, attr: str) -> int:
    """Term count of a Poly2 or Series2 operand; a scalar counts as one."""
    inner = getattr(value, attr, None)
    return 1 if inner is None else len(inner)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self.counters = {
            "algebra.Poly2.mul.term_pairs": 0,
            "series.Series2.mul.slot_pairs": 0,
            "ringcalc.boundary.terms": 0,
            "ringcalc.memo.hits": 0,
            "ringcalc.depth_max": 0,
        }
        self.caches: list = []
        self._stack: list[list[float]] = []
        self._active: dict[str, int] = {}
        self._fpoly_depth = 0
        # Counters taken where the work happens.  ``before`` sees the call's
        # positional arguments; ``after`` sees the result, or None when the
        # call raised.  Both run outside their own span's timed interval.
        self._before = {
            "algebra.Poly2.mul": self._count_term_pairs,
            "series.Series2.mul": self._count_slot_pairs,
            "ringcalc.fpoly": self._enter_fpoly,
        }
        self._after = {
            "ringcalc.boundary": self._count_boundary_terms,
            "ringcalc.FPolyCache.lookup": self._count_memo_hit,
            "ringcalc.fpoly": self._leave_fpoly,
        }

    def _count_term_pairs(self, args) -> None:
        self.counters["algebra.Poly2.mul.term_pairs"] += _size(args[0], "_terms") * _size(
            args[1], "_terms"
        )

    def _count_slot_pairs(self, args) -> None:
        self.counters["series.Series2.mul.slot_pairs"] += _size(
            args[0], "_coeffs"
        ) * _size(args[1], "_coeffs")

    def _enter_fpoly(self, args) -> None:
        self._fpoly_depth += 1
        if self._fpoly_depth > self.counters["ringcalc.depth_max"]:
            self.counters["ringcalc.depth_max"] = self._fpoly_depth

    def _leave_fpoly(self, result) -> None:
        self._fpoly_depth -= 1

    def _count_boundary_terms(self, result) -> None:
        if result is not None:
            # len(result.terms()) without the sort terms() does
            self.counters["ringcalc.boundary.terms"] += len(result._terms)

    def _count_memo_hit(self, result) -> None:
        if result is not None:
            self.counters["ringcalc.memo.hits"] += 1

    def wrap(self, name: str, fn):
        # [calls, inclusive s, self s, errors]
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        active = self._active
        active[name] = 0
        before = self._before.get(name)
        after = self._after.get(name)

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                stats[3] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                active[name] -= 1
                stats[0] += 1
                stats[2] += elapsed - frame[0]
                if not active[name]:
                    stats[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if after is not None:
                    after(result)

        traced.__wrapped__ = fn
        traced.span = name
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def snapshot(self) -> dict:
        """Per-span sums and counters for the op that just ran."""
        counters = dict(self.counters)
        counters["ringcalc.memo.entries"] = sum(len(cache) for cache in self.caches)
        return {
            "spans": {name: list(values) for name, values in self.stats.items()},
            "counters": counters,
        }


def install() -> Tracer:
    """Wrap and rebind every traced name; returns the tracer holding the sums."""
    tracer = Tracer()
    modules = {layer: importlib.import_module(f"nestohedra.{layer}") for layer in LAYERS}
    replacements: dict[int, object] = {}
    for layer, module in modules.items():
        for public in module.__all__:
            obj = getattr(module, public)
            if isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-exported from another layer, wrapped there
            replacements[id(obj)] = tracer.wrap(f"{layer}.{public}", obj)
    for layer, cls_name, method, span in METHODS:
        cls = getattr(modules[layer], cls_name)
        setattr(cls, method, tracer.wrap(span, getattr(cls, method)))

    cache_cls = modules["ringcalc"].FPolyCache
    cache_init = cache_cls.__init__

    def tracked_init(cache, *args, **kwargs):
        cache_init(cache, *args, **kwargs)
        tracer.caches.append(cache)

    cache_cls.__init__ = tracked_init

    for name, module in list(sys.modules.items()):
        if name != "nestohedra" and not name.startswith("nestohedra."):
            continue
        for attr, value in list(vars(module).items()):
            wrapped = replacements.get(id(value))
            if wrapped is not None:
                setattr(module, attr, wrapped)
    return tracer
