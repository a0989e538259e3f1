"""Pluggable training execution backends.

Where a fit's shard scoring runs: serially in the calling process
(:class:`LocalBackend`, the default, one worker), or in persistent
worker processes fed by pipes over one shared-memory data placement
(:class:`MultiprocessBackend` — bit-identical to local at every worker
count). See
``docs/architecture.md`` ("Training backends") and :func:`make_backend`
for the string spec the API layer exposes as
``RunConfig(backend=..., workers=...)``.
"""

from __future__ import annotations

from .base import LOCAL_WORKERS_REMOVED, Backend, BackendError, LocalBackend
from .multiprocess import MultiprocessBackend

#: Valid ``backend=`` spec strings, in registry order.
BACKEND_NAMES = ("local", "multiprocess")

#: The error for ``backend="remote"``, a spec this package no longer has.
REMOTE_REMOVED = (
    "the remote training backend was removed; backend='local' or "
    "'multiprocess' gives the same results"
)

_REGISTRY = {
    LocalBackend.name: LocalBackend,
    MultiprocessBackend.name: MultiprocessBackend,
}


def make_backend(
    spec: str | Backend | None, workers: int | str | None = None
) -> Backend:
    """Resolve a backend spec string (or pass an instance through).

    ``None`` means the default (``"local"``). *workers* counts the
    ``"multiprocess"`` worker processes (int >= 1, -1, or ``"auto"``);
    ``"local"`` takes only 1. It is rejected when *spec* is already a
    constructed instance.
    """
    if isinstance(spec, Backend):
        if workers is not None:
            raise ValueError("workers cannot be overridden on a constructed Backend instance")
        return spec
    name = "local" if spec is None else str(spec)
    if name == "remote":
        raise ValueError(REMOTE_REMOVED)
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValueError(f"backend must be one of {BACKEND_NAMES}, got {spec!r}")
    return cls(workers)


__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "BackendError",
    "LocalBackend",
    "MultiprocessBackend",
    "make_backend",
]
