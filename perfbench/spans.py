"""Per-layer timing from outside the package: wrap public callables, keep
per-name totals in memory.

``Tracer.install(package)`` replaces every public method of the public
classes defined in the traced modules (plus the constructors named in
``TRACED_INITS``) and every public module-level function with a timing
wrapper.  Private classes stay untraced, so their time counts as the self
time of the public call that reached them.  A function imported elsewhere with ``from .m import f`` is
rebound in each module that looks it up, so those calls are seen too.
Generator functions are left alone: timing them would measure only the
creation of the generator.

For each name the tracer keeps the number of calls, the self time (the
call's duration minus the time of the traced calls it made) and the
longest single call, including its callees.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager

TRACED_MODULES = ("array_packing", "block_scheduler", "classic", "dynamic_dtm",
                  "dynamic_lis", "exact_lis", "grid_packing", "indexed_sequence",
                  "partitioner")
TRACED_INITS = ("grid_packing.GridPacking", "array_packing.ArrayPacking")


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}   # name -> [calls, self_s, max_s]
        self.enabled = True
        self._stack: list[float] = []      # callee time of each open call
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[1] += dt - stack.pop()
                if dt > stats[2]:
                    stats[2] = dt
                if stack:
                    stack[-1] += dt
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        modules = {name: getattr(package, name) for name in TRACED_MODULES}
        everywhere = [m for m in vars(package).values() if inspect.ismodule(m)]
        everywhere.append(package)
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._patch_class(short, obj)
                elif (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                      and not attr.startswith("_")
                      and not inspect.isgeneratorfunction(obj)):
                    traced = self._wrap(f"{short}.{attr}", obj)
                    for where in everywhere:
                        if where.__dict__.get(attr) is obj:
                            self._patch(where, attr, traced)

    def _patch_class(self, short: str, cls) -> None:
        if cls.__name__.startswith("_"):
            return
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__":
                if f"{short}.{cls.__name__}" not in TRACED_INITS:
                    continue
                label = "init"
            elif attr.startswith("_"):
                continue
            else:
                label = attr
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            traced = self._wrap(f"{short}.{cls.__name__}.{label}", fn)
            self._patch(cls, attr, kind(traced) if kind else traced)

    @contextmanager
    def paused(self):
        """Calls made inside this block are not counted."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- reading ---------------------------------------------------------------

    def get(self, name: str, field: str) -> float:
        """``field`` is 'calls', 'self_s' or 'max_ms'; names never called read 0."""
        calls, self_s, max_s = self.stats.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "self_s": self_s, "max_ms": max_s * 1e3}[field]

    def module_total(self, short: str, field: str) -> float:
        """Sum of 'calls' or 'self_s' over every traced name of one module."""
        prefix = short + "."
        return sum(self.get(name, field) for name in self.stats if name.startswith(prefix))

    def table(self) -> dict[str, dict[str, float]]:
        return {name: {"calls": c, "self_s": s, "max_ms": m * 1e3}
                for name, (c, s, m) in sorted(self.stats.items())}
