"""Per-layer spans recorded from outside the package.

``install()`` wraps the public functions at each layer boundary and
rebinds every name the package's modules look them up by (``engine``
and ``characters`` import ``enumerate_coset_matrices`` by name, the
package ``__init__`` re-exports it, and so on), so no source file
changes.  Spans are aggregated in memory per function: call count,
self time (span time minus the time covered by nested spans) and a few
work counters.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

PKG = "steinberg_distinction"


def _count(stat: dict, name: str, amount: int) -> None:
    stat[name] = stat.get(name, 0) + amount


def _feasible(stat: dict, result) -> None:
    _count(stat, "feasible", bool(result.feasible))


def _matrices(stat: dict, result) -> None:
    _count(stat, "matrices", len(result))


def _flags(stat: dict, result) -> None:
    _count(stat, "flags", len(result))


def _cache_load(stat: dict, result) -> None:
    _count(stat, "hits", result is not None)
    _count(stat, "misses", result is None)


# (span name, module, attribute, work counter update)
FUNCTIONS = [
    ("cli.main", "cli", "main", None),
    ("engine.steinberg_decision", "engine", "steinberg_decision", None),
    ("engine.cross_check", "engine", "cross_check", None),
    ("characters.orbit_supports", "characters", "orbit_supports", _feasible),
    ("cosets.enumerate_coset_matrices", "cosets", "enumerate_coset_matrices", _matrices),
    ("cosets.is_open", "cosets", "is_open", None),
    ("cosets.closure_compare", "cosets", "closure_compare", None),
    ("cosets.fine_layout", "cosets", "fine_layout", None),
    ("cosets.block_involution", "cosets", "block_involution", None),
    ("cosets.coarsen", "cosets", "coarsen", None),
    ("cosets.build_us_odd", "cosets", "build_us_odd", None),
    ("lfactor.eval_nonvanishing_at_s0", "lfactor", "eval_nonvanishing_at_s0", None),
    ("lfactor.gj_L_trivial", "lfactor", "gj_L_trivial", None),
    ("lfactor.i2_ratio", "lfactor", "i2_ratio", None),
    ("flags.enumerate_flags", "oracles.flags", "enumerate_flags", _flags),
    ("flags.flag_profile", "oracles.flags", "flag_profile", None),
    ("flags.representative_flag", "oracles.flags", "representative_flag", None),
    ("flags.reduce_to_representative", "oracles.flags", "reduce_to_representative", None),
]

# (span name, module, class, method names sharing the span, work counter update)
METHODS = [
    ("lfactor.RationalFunc.from_expr", "lfactor", "RationalFunc", ("from_expr",), None),
    ("lfactor.RationalFunc.arith", "lfactor", "RationalFunc",
     ("__add__", "__sub__", "__mul__", "__truediv__"), None),
    ("lfactor.RationalFunc.eval_exact", "lfactor", "RationalFunc", ("eval_exact",), None),
    ("flags.cache.load", "oracles.flags", "FlagCache", ("load",), _cache_load),
    ("flags.cache.store", "oracles.flags", "FlagCache", ("store",), None),
    ("finite_field.rref", "oracles.finite_field", "QuadraticExtension", ("rref",), None),
    ("finite_field.intersect", "oracles.finite_field", "QuadraticExtension", ("intersect",), None),
    ("finite_field.matrix_inv", "oracles.finite_field", "QuadraticExtension", ("matrix_inv",), None),
]


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, dict] = {}
        # time covered by nested spans, one slot per open span plus a root
        self._child_time = [0.0]

    def wrap(self, name: str, fn, update=None):
        stat = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        child_time = self._child_time

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                nested = child_time.pop()
                child_time[-1] += elapsed
                stat["calls"] += 1
                stat["self_s"] += elapsed - nested
            if update is not None:
                update(stat, result)
            return result

        return span

    def table(self) -> dict[str, dict]:
        return {name: dict(stat) for name, stat in self.stats.items()}


def install() -> Tracer:
    """Wrap every traced function of the imported package."""
    import steinberg_distinction.cli  # noqa: F401  (loads every traced module)

    tracer = Tracer()
    modules = [m for name, m in list(sys.modules.items()) if name == PKG or name.startswith(PKG + ".")]
    for name, module, attr, update in FUNCTIONS:
        original = getattr(sys.modules[f"{PKG}.{module}"], attr)
        wrapped = tracer.wrap(name, original, update)
        for mod in modules:
            for global_name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, global_name, wrapped)
    for name, module, cls_name, methods, update in METHODS:
        cls = getattr(sys.modules[f"{PKG}.{module}"], cls_name)
        for method in methods:
            raw = inspect.getattr_static(cls, method)
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(tracer.wrap(name, raw.__func__, update)))
            else:
                setattr(cls, method, tracer.wrap(name, raw, update))
    return tracer
