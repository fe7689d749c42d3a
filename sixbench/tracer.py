"""Per-layer tracing of one sixch process, installed from outside.

`Tracer.install` replaces the public functions of every sixch module (and
the scipy.fft and lgmres entry points sixch calls) with wrappers that
time and count each call.  Every replacement is made in each module
namespace that binds the original, so `from .model import mu` in the
stepper is traced too.  A wrapped call is a span: its self time is its
duration minus the time of the spans it caused, and each span's self
time is charged to its layer (the sixch module name, plus `fft` for the
scipy.fft entry points, `pocketfft` for the compiled transforms beneath
them, and `krylov` for scipy's lgmres).  Spans are aggregated per
function in memory; `report` returns the aggregate.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

SIXCH_MODULES = ("cli", "diagnostics", "grid", "initdata", "model", "potential",
                 "snapshots", "stepper")
FFT_NAMES = ("dct", "dst", "fftn", "ifftn")
# Methods traced as spans besides the modules' public functions.
METHODS = {
    "potential": {"Nonlinearity": ("check", "beta_all", "beta", "beta3", "f", "fprime",
                                   "F", "g_all", "g")},
    "diagnostics": {"RunLedger": ("record", "write_csv")},
}
# Private helpers traced because a per-layer metric is defined on them.
PRIVATE = {"cli": ("_write_provenance",)}
# Called tens of thousands of times per run: counted, not timed.
COUNTED = {"potential": ("_check_open", "_check_closed")}


class Stat:
    __slots__ = ("layer", "calls", "total", "self_time")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = {}
        self.matvecs = 0
        self._stack: list[float] = []

    # -- wrappers ------------------------------------------------------------

    def span(self, layer: str, name: str, fn):
        stat = self.stats.setdefault(name, Stat(layer))
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import scipy.fft._pocketfft as pocketfft
        from scipy.fft._pocketfft import basic, realtransforms

        modules = {name: sys.modules[f"sixch.{name}"] for name in SIXCH_MODULES}
        replace: dict[int, object] = {}

        for name, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    replace[id(obj)] = self.span(name, f"{name}.{attr}", obj)
            for attr in PRIVATE.get(name, ()):
                obj = getattr(mod, attr)
                replace[id(obj)] = self.span(name, f"{name}.{attr}", obj)
            for attr in COUNTED.get(name, ()):
                obj = getattr(mod, attr)
                replace[id(obj)] = self.counter(f"{name}.{attr}", obj)
            for cls_name, methods in METHODS.get(name, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    setattr(cls, meth, self.span(name, f"{name}.{cls_name}.{meth}",
                                                 vars(cls)[meth]))

        grid = modules["grid"]
        for attr in FFT_NAMES:
            replace[id(getattr(grid, attr))] = self.span("fft", f"scipy.fft.{attr}",
                                                         getattr(grid, attr))
        replace[id(modules["stepper"].lgmres)] = self._lgmres(modules["stepper"].lgmres)
        field = grid.ScalarField
        field.__init__ = self.counter("grid.ScalarField.__init__", field.__init__)

        for mod in [m for n, m in sys.modules.items() if n == "sixch" or n.startswith("sixch.")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])
        steppers = modules["stepper"]._STEPPERS
        for key, fn in steppers.items():
            steppers[key] = replace.get(id(fn), fn)

        # The compiled transforms under scipy.fft: their time is the compute
        # share, the rest of each scipy.fft span is Python dispatch.
        pfft = pocketfft.pypocketfft
        timed = {attr: self.span("pocketfft", f"pypocketfft.{attr}", getattr(pfft, attr))
                 for attr in ("c2c", "dct", "dst")}
        basic.pfft = _Proxy(pfft, timed)
        pocketfft.dct = functools.partial(realtransforms._r2r, True, timed["dct"])
        pocketfft.dst = functools.partial(realtransforms._r2r, True, timed["dst"])

    def _lgmres(self, lgmres):
        from scipy.sparse.linalg import LinearOperator

        def counted_lgmres(A, b, *args, **kwargs):
            def matvec(x):
                self.matvecs += 1
                return A.matvec(x)

            op = LinearOperator(A.shape, matvec=matvec, dtype=A.dtype)
            return lgmres(op, b, *args, **kwargs)

        return self.span("krylov", "scipy.sparse.linalg.lgmres", counted_lgmres)

    # -- aggregation ---------------------------------------------------------

    def report(self) -> dict:
        return {
            "functions": {name: {"layer": s.layer, "calls": s.calls, "total_s": s.total,
                                 "self_s": s.self_time}
                          for name, s in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "krylov_matvecs": self.matvecs,
        }


class _Proxy:
    """Stands in for the pypocketfft module with some functions replaced."""

    def __init__(self, module, replaced: dict):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)
