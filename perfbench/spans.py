"""Span recording around the program's public functions, from outside.

The traced run wraps named functions and methods of the program in the
benchmark's own process: each call becomes a span with a start, an end
and the span that caused it, kept in memory. A layer's self time is its
span time minus the time of the spans it caused.

Targets are looked up by import path when the tracer is installed. A
target that no longer exists (a later change deleted or renamed it) is
recorded as absent instead of failing the run, and its metrics read 0.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Target:
    """One function to wrap.

    ``path`` is ``"module:attr"`` or ``"module:Class.method"``. A method
    is wrapped on the class and on every subclass that overrides it.
    ``count`` maps the call's arguments to a work count (rows, shards).
    """

    name: str
    path: str
    count: Callable[..., int] | None = None


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0


@dataclass
class Tracer:
    targets: list[Target]
    stats: dict[str, SpanStats] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    _patched: list[tuple[Any, str, Any]] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self) -> None:
        for target in self.targets:
            self.stats.setdefault(target.name, SpanStats())

    # ------------------------------------------------------------------ #

    def install(self) -> "Tracer":
        for target in self.targets:
            owners = resolve(target.path)
            if not owners:
                self.absent.append(target.path)
            for owner, attr in owners:
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(target, original))
                self._patched.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #

    def _stack(self) -> list[list[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        name, count = target.name, target.count
        record = self.stats[name]
        stack_of, lock = self._stack, self._lock

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                with lock:
                    record.total_s += elapsed
                    record.self_s += elapsed - frame[1]
                    # A method calling its own override (super()) is one call.
                    if not stack or stack[-1][0] != name:
                        record.calls += 1
                        if count is not None:
                            record.work += int(count(*args, **kwargs))
                if stack:
                    stack[-1][1] += elapsed

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def self_total_s(self) -> float:
        return sum(s.self_s for s in self.stats.values())


def resolve(path: str) -> list[tuple[Any, str]]:
    """``(owner, attribute)`` pairs to patch for *path*; empty if absent."""
    module_name, _, dotted = path.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    parts = dotted.split(".")
    owner: Any = module
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    attr = parts[-1]
    if not isinstance(owner, type):
        return [(owner, attr)] if attr in vars(owner) else []
    found = []
    seen: set[type] = set()
    stack = [owner]
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if attr in cls.__dict__:
            found.append((cls, attr))
        stack.extend(cls.__subclasses__())
    return found


def wrapper_cost_us(calls: int = 20000) -> float:
    """Extra microseconds one traced call costs, measured on a no-op."""

    class _Probe:
        def noop(self) -> None:
            return None

    probe = _Probe()
    plain = _best_loop(lambda: _Probe.noop(probe), calls)
    tracer = Tracer([Target("probe", "")])
    probe_traced = tracer._wrap(tracer.targets[0], _Probe.noop)
    traced = _best_loop(lambda: probe_traced(probe), calls)
    return max(0.0, (traced - plain) / calls * 1e6)


def _best_loop(fn: Callable[[], Any], calls: int) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - start)
    return best
