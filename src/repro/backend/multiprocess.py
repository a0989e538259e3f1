"""Shared-memory multiprocess backend: one data placement, many scorers.

The fit's static data — the point matrix, every categorical code
vector, every (already standardized) numeric value vector — is written
into ``multiprocessing.shared_memory`` segments **once** per fit by
:meth:`MultiprocessBackend.start`, next to three input/output segments
sized for the whole dataset: a batch's row indices, their labels and
their ``(rows, k)`` deltas. ``start`` also starts the persistent worker
processes, each with one ``multiprocessing`` Pipe. A worker attaches
every segment, rebuilds genuine attribute specs on top of the zero-copy
views, and constructs one real :class:`~repro.core.state.ClusterState`
over them.

Per batch, :meth:`MultiprocessBackend.map_score` writes the shards'
rows and labels into the input segments once and sends each worker
**one** message: the small additive statistics
(``export_scoring_stats`` — O(k·(d+v)) floats), λ, and the bounds of
its contiguous run of shards. The worker scores each of its shards into
its rows of the delta segment and acknowledges; the parent waits for
every acknowledgement and hands back the shards' slices of one copy of
the deltas, in shard order, so the merge is deterministic no matter
which worker ran which shard.

Bit-identity argument: the worker's state holds the same float64 bytes
for ``points``/codes/values as the parent (shared memory), recomputes
the same derived constants (``dataset_distribution``, ``dataset_mean``,
``point_sqnorm`` — same arrays, same expressions), installs the
parent's exact statistics, and then calls the *same*
``batch_move_deltas`` on the *same* shard partition. Same inputs, same
code, same machine → same bits. ``tests/backend/test_multiprocess.py``
property-tests this across methods and worker counts.

Numeric specs are rebuilt with ``standardize=False`` from the parent's
*post*-standardization values: re-standardizing an already-unit-variance
column would divide by a std of ``1.0 ± ulp`` and shift bits.
"""

from __future__ import annotations

import os
import secrets
import time
import traceback
from multiprocessing import get_context, parent_process, shared_memory
from multiprocessing.connection import wait
from typing import Any, Sequence

import numpy as np

from .base import Backend, BackendError

#: Shared-memory segment name prefix (lifecycle tests scan for leaks).
SEGMENT_PREFIX = "repro_bk"

#: Seconds ``shutdown`` waits for the workers to exit before killing them.
JOIN_TIMEOUT_S = 5.0

_WORKER_DIED = (
    "a multiprocess scoring worker died mid-fit; "
    "the fit cannot continue bit-identically and was aborted"
)

# Worker-process globals, set once by _init_worker.
_WORKER_STATE: Any = None
_WORKER_SEGMENTS: list[shared_memory.SharedMemory] = []
_WORKER_INJECTOR: Any = False  # False = not yet resolved; None = no plan


def _pick_context():
    """``fork`` where available (much cheaper than ``spawn``), else ``spawn``."""
    import multiprocessing

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    return get_context(method)


def _attach_array(name: str, shape: tuple[int, ...], dtype: str) -> np.ndarray:
    """Worker-side: map a named segment as an ndarray view.

    The parent owns each segment's lifetime, but
    ``SharedMemory(name=...)`` also *registers* it with the resource
    tracker (no ``track=False`` before Python 3.13), which would make
    the tracker unlink — or at least complain about — segments the
    worker merely attached. Registration is suppressed for the
    duration of the attach; worker init is single-threaded.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        shm = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original
    _WORKER_SEGMENTS.append(shm)
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)


def _init_worker(spec: dict[str, Any]) -> None:
    """Build the worker's ClusterState over the shared segments."""
    global _WORKER_STATE
    from ..core.attributes import CategoricalSpec, NumericSpec
    from ..core.state import ClusterState

    n = spec["n"]
    points = _attach_array(spec["points"]["shm"], (n, spec["dim"]), spec["points"]["dtype"])
    cats = [
        CategoricalSpec(
            c["name"],
            _attach_array(c["shm"], (n,), c["dtype"]),
            n_values=c["n_values"],
            weight=c["weight"],
        )
        for c in spec["cats"]
    ]
    nums = [
        NumericSpec(
            m["name"],
            _attach_array(m["shm"], (n,), m["dtype"]),
            weight=m["weight"],
            # Parent ships post-standardization values; see module doc.
            standardize=False,
        )
        for m in spec["nums"]
    ]
    _WORKER_STATE = ClusterState(points, np.zeros(n, dtype=np.int64), spec["k"], cats, nums)


def _worker_injector() -> Any:
    """Lazily resolve the env-gated fault injector for this worker.

    Resolved once per process from ``REPRO_FAULT_PLAN`` (the injector's
    per-site counters must persist across shards to hit ``at`` indices),
    and only inside worker processes — the parent's hot path never pays
    for it.
    """
    global _WORKER_INJECTOR
    if _WORKER_INJECTOR is False:
        from ..faults.plan import FaultInjector

        _WORKER_INJECTOR = FaultInjector.from_env()
    return _WORKER_INJECTOR


def _score_shard(task: tuple[np.ndarray, np.ndarray, dict[str, Any], float]) -> np.ndarray:
    """Worker-side: install the round's stats, scatter labels, score."""
    injector = _worker_injector()
    if injector is not None:
        event = injector.fire("backend.score")
        if event is not None and event.kind == "sigkill":
            import signal

            os.kill(os.getpid(), signal.SIGKILL)  # pipe breaks; map_score raises
    indices, labels, stats, lam = task
    state = _WORKER_STATE
    if state is None:  # pragma: no cover - initializer always ran
        raise BackendError("multiprocess worker was not initialized")
    state.install_scoring_stats(stats)
    state.labels[np.asarray(indices)] = labels
    return state.batch_move_deltas(np.asarray(indices), lam)


def _worker_main(conn: Any, spec: dict[str, Any]) -> None:
    """Worker process: attach the placement, then serve batch messages.

    Each message is ``(stats, lambda, bounds)``; the worker scores the
    rows ``[lo, hi)`` of the input segments for every ``(lo, hi)`` in
    *bounds* into the same rows of the delta segment, then replies
    ``None``, or ``(exception, its traceback)`` if scoring raised. A
    ``None`` message, or the parent's exit, ends the loop.
    """
    _init_worker(spec)
    n, k, io = spec["n"], spec["k"], spec["io"]
    indices = _attach_array(io["indices"], (n,), "<i8")
    labels = _attach_array(io["labels"], (n,), "<i8")
    out = _attach_array(io["deltas"], (n, k), "<f8")
    # A forked sibling may hold a copy of this pipe's parent end, so
    # the parent's exit is watched through its sentinel instead.
    parent = parent_process()
    watched = [conn] if parent is None else [conn, parent.sentinel]
    while conn in wait(watched):
        try:
            message = conn.recv()
        except EOFError:  # the parent is gone
            return
        if message is None:
            return
        stats, lam, bounds = message
        reply: Any = None
        try:
            for lo, hi in bounds:
                out[lo:hi] = _score_shard((indices[lo:hi], labels[lo:hi], stats, lam))
        except Exception as exc:
            reply = (exc, _RemoteTraceback(traceback.format_exc()))
        conn.send(reply)


class _RemoteTraceback(Exception):
    """A worker's traceback text, raised as the ``__cause__`` of its error."""

    def __str__(self) -> str:
        return str(self.args[0])


class MultiprocessBackend(Backend):
    """Score shards in persistent worker processes over shared memory.

    Construction is cheap and allocates nothing; :meth:`start` places
    the data and the input/output segments and starts the workers,
    :meth:`shutdown` (idempotent, run by the engine's ``finally``)
    stops them and unlinks every segment — including after a worker was
    SIGKILLed mid-fit, in which case :meth:`map_score` surfaces a
    :class:`BackendError` instead of hanging.
    """

    name = "multiprocess"

    def __init__(self, workers: int | str | None = None) -> None:
        super().__init__(workers)
        self._segments: list[shared_memory.SharedMemory] = []
        self._procs: list[Any] = []
        self._conns: list[Any] = []
        # Parent-side views of the input/output segments.
        self._indices: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._out: np.ndarray | None = None

    # -- data placement ------------------------------------------------ #

    def _segment(self, shape: tuple[int, ...], dtype: Any) -> tuple[np.ndarray, str]:
        """A fresh named segment and a parent-side view of it."""
        dtype = np.dtype(dtype)
        shm = shared_memory.SharedMemory(
            create=True,
            size=max(1, int(np.prod(shape)) * dtype.itemsize),
            name=f"{SEGMENT_PREFIX}_{os.getpid()}_{secrets.token_hex(4)}",
        )
        self._segments.append(shm)
        return np.ndarray(shape, dtype=dtype, buffer=shm.buf), shm.name

    def _place(self, array: np.ndarray) -> dict[str, str]:
        """Copy *array* into a fresh named segment; return its spec."""
        array = np.ascontiguousarray(array)
        view, name = self._segment(array.shape, array.dtype)
        view[...] = array
        return {"shm": name, "dtype": array.dtype.str}

    def start(self, state: Any) -> None:
        self.shutdown()  # reusable across fits: re-place fresh data
        n, k = int(state.n), int(state.k)
        self._indices, indices_name = self._segment((n,), np.int64)
        self._labels, labels_name = self._segment((n,), np.int64)
        self._out, deltas_name = self._segment((n, k), np.float64)
        spec: dict[str, Any] = {
            "n": n,
            "dim": int(state.dim),
            "k": k,
            "points": self._place(state.points),
            "cats": [
                {
                    "name": s.name,
                    "n_values": int(s.n_values),
                    "weight": float(s.weight),
                    **self._place(s.codes),
                }
                for s in state.categorical_specs
            ],
            "nums": [
                {"name": s.name, "weight": float(s.weight), **self._place(s.values)}
                for s in state.numeric_specs
            ],
            "io": {"indices": indices_name, "labels": labels_name, "deltas": deltas_name},
        }
        ctx = _pick_context()
        for _ in range(self.workers):
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_worker_main, args=(child, spec), daemon=True)
            proc.start()
            # Close the child's end here before the next fork, so a dead
            # worker reads as EOF on its pipe.
            child.close()
            self._procs.append(proc)
            self._conns.append(conn)

    def shutdown(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:  # the worker is already gone
                pass
        deadline = time.monotonic() + JOIN_TIMEOUT_S
        for proc in self._procs:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join()
        for conn in self._conns:
            conn.close()
        self._procs, self._conns = [], []
        # Views must go before their segments close.
        self._indices = self._labels = self._out = None
        for shm in self._segments:
            try:
                shm.close()
            except Exception:  # pragma: no cover
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []

    # -- scoring ------------------------------------------------------- #

    def map_score(
        self, state: Any, shards: Sequence[np.ndarray], lambda_: float
    ) -> list[np.ndarray]:
        if not self._conns:
            raise BackendError("MultiprocessBackend.map_score before start()")
        if not shards:
            return []
        ends = np.cumsum([0, *(len(shard) for shard in shards)]).tolist()
        rows = ends[-1]
        # No local view of a segment: a raised error's traceback would
        # keep it alive and stop ``shutdown`` from closing the segment.
        np.concatenate(shards, out=self._indices[:rows])
        self._labels[:rows] = state.labels[self._indices[:rows]]
        stats = state.export_scoring_stats()
        lam = float(lambda_)
        bounds = list(zip(ends[:-1], ends[1:]))
        per = -(-len(bounds) // len(self._conns))  # ceil division
        sent, errors = [], []
        for w, conn in enumerate(self._conns):
            run = bounds[w * per : (w + 1) * per]
            if not run:
                break
            try:
                conn.send((stats, lam, run))
            except OSError as exc:
                errors.append((BackendError(_WORKER_DIED), exc))
                break
            sent.append(conn)
        for conn in sent:  # every reply is read, so none is left in a pipe
            try:
                reply = conn.recv()
            except (EOFError, OSError) as exc:
                reply = (BackendError(_WORKER_DIED), exc)
            if reply is not None:
                errors.append(reply)
        if errors:
            error, cause = errors[0]
            raise error from cause
        # One copy: no view of the shared buffer leaves this call.
        out = self._out[:rows].copy()
        return [out[lo:hi] for lo, hi in bounds]

    # -- introspection (lifecycle tests) ------------------------------- #

    def segment_names(self) -> list[str]:
        """Names of the currently placed shared-memory segments."""
        return [shm.name for shm in self._segments]

    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes."""
        return [proc.pid for proc in self._procs if proc.is_alive()]
