"""Layer tracer: wraps the package's public functions where they are bound.

A layer is a named group of functions.  ``install`` looks each function up
in the module that defines it and then replaces every binding of that same
object in every loaded module of the package, so a function imported into
several modules (``routh_hurwitz_stable`` lives in ``numerics`` and is
imported into ``entanglement``) is traced on every call path.  A function
or module that no longer exists is recorded as absent and skipped; a module
that exists but was never imported has no callers and is skipped silently.

Spans are kept per thread.  A call into a layer from inside the same layer
is not a new span, so ``calls`` counts entries into the layer from outside
it.  A span's self time is its duration minus the durations of its child
spans.  Durations are thread CPU time: the CLI runs its sweeps on a thread
pool, and under the interpreter lock two threads' wall-clock spans overlap
and would be counted twice, while their CPU times overlap only where NumPy
releases the lock.
"""

from __future__ import annotations

import functools
import importlib.util
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

_clock = time.thread_time


@dataclass(frozen=True)
class Target:
    """One function of a layer.  ``counted=False`` adds its time to the
    layer without counting its entries as calls; ``extra(args, result)``
    returns per-call quantities to sum (computed flops, branch counts)."""

    module: str
    name: str
    counted: bool = True
    extra: Callable | None = None


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    sums: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, package: str, layers: dict[str, list[Target]]):
        self.package = package
        self.layers = layers
        self.stats = {name: LayerStats() for name in layers}
        self.absent: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def install(self):
        prefix = self.package + "."
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(prefix))
        ]
        for layer, targets in self.layers.items():
            for t in targets:
                home = sys.modules.get(prefix + t.module)
                if home is None and importlib.util.find_spec(prefix + t.module) is not None:
                    continue
                orig = getattr(home, t.name, None)
                if not callable(orig):
                    self.absent.append(f"{t.module}.{t.name}")
                    continue
                wrapper = self._wrap(layer, t, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, layer: str, target: Target, orig):
        stats = self.stats[layer]
        lock = self._lock

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][0] == layer:
                return orig(*args, **kwargs)
            frame = [layer, 0.0]  # layer, CPU time of child spans
            stack.append(frame)
            t0 = _clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                dur = _clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                with lock:
                    stats.self_s += dur - frame[1]
                    if target.counted:
                        stats.calls += 1
            if target.extra is not None:
                try:
                    extra = target.extra(args, result)
                except Exception:  # noqa: BLE001 - a changed signature must not stop the run
                    extra = {}
                with lock:
                    for k, v in extra.items():
                        stats.sums[k] = stats.sums.get(k, 0.0) + v
            return result

        return wrapper

    def snapshot(self) -> dict:
        with self._lock:
            return {
                name: {"calls": s.calls, "self_s": s.self_s, **s.sums}
                for name, s in self.stats.items()
            }
