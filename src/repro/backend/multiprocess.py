"""Shared-memory multiprocess backend: one data placement, many scorers.

The fit's static data — the point matrix, every categorical code
vector, every (already standardized) numeric value vector — is written
into ``multiprocessing.shared_memory`` segments **once** per fit by
:meth:`MultiprocessBackend.start`. Each worker process attaches the
segments in its initializer, rebuilds genuine attribute specs on top of
the zero-copy views, and constructs one real
:class:`~repro.core.state.ClusterState` over them. Per scoring round
only the small additive statistics travel (``export_scoring_stats`` —
O(k·(d+v)) floats), plus the shard's indices and labels; the deltas
come back through the executor **in submission order**, so the merge is
deterministic no matter which worker ran which shard.

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
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context, shared_memory
from typing import Any, Sequence

import numpy as np

from .base import Backend, BackendError

#: Shared-memory segment name prefix (lifecycle tests scan for leaks).
SEGMENT_PREFIX = "repro_bk"

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

            os.kill(os.getpid(), signal.SIGKILL)  # pool breaks; map_score raises
    indices, labels, stats, lam = task
    state = _WORKER_STATE
    if state is None:  # pragma: no cover - initializer always ran
        raise BackendError("multiprocess worker was not initialized")
    state.install_scoring_stats(stats)
    state.labels[np.asarray(indices)] = labels
    return state.batch_move_deltas(np.asarray(indices), lam)


class MultiprocessBackend(Backend):
    """Score shards in worker processes over one shared data placement.

    Construction is cheap and allocates nothing; :meth:`start` places
    the data and creates the (lazy) process pool, :meth:`shutdown`
    (idempotent, run by the engine's ``finally``) tears both down and
    unlinks every segment — including after a worker was SIGKILLed
    mid-fit, in which case :meth:`map_score` surfaces a
    :class:`BackendError` instead of hanging.
    """

    name = "multiprocess"

    def __init__(self, workers: int | str | None = None) -> None:
        super().__init__(workers)
        self._segments: list[shared_memory.SharedMemory] = []
        self._executor: ProcessPoolExecutor | None = None

    # -- data placement ------------------------------------------------ #

    def _place(self, array: np.ndarray) -> dict[str, str]:
        """Copy *array* into a fresh named segment; return its spec."""
        array = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(
            create=True,
            size=max(1, array.nbytes),
            name=f"{SEGMENT_PREFIX}_{os.getpid()}_{secrets.token_hex(4)}",
        )
        self._segments.append(shm)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        return {"shm": shm.name, "dtype": array.dtype.str}

    def start(self, state: Any) -> None:
        self.shutdown()  # reusable across fits: re-place fresh data
        spec: dict[str, Any] = {
            "n": int(state.n),
            "dim": int(state.dim),
            "k": int(state.k),
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
        }
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=_pick_context(),
            initializer=_init_worker,
            initargs=(spec,),
        )

    def shutdown(self) -> None:
        if self._executor is not None:
            try:
                self._executor.shutdown(wait=True, cancel_futures=True)
            except Exception:  # pragma: no cover - broken pools still release
                pass
            self._executor = None
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
        if self._executor is None:
            raise BackendError("MultiprocessBackend.map_score before start()")
        stats = state.export_scoring_stats()
        lam = float(lambda_)
        tasks = [(shard, state.labels[shard], stats, lam) for shard in shards]
        try:
            # executor.map yields results in submission order: the merge
            # is deterministic regardless of worker scheduling.
            return list(self._executor.map(_score_shard, tasks))
        except BrokenProcessPool as exc:
            raise BackendError(
                "a multiprocess scoring worker died mid-fit (pool is broken); "
                "the fit cannot continue bit-identically and was aborted"
            ) from exc

    # -- introspection (lifecycle tests) ------------------------------- #

    def segment_names(self) -> list[str]:
        """Names of the currently placed shared-memory segments."""
        return [shm.name for shm in self._segments]

    def worker_pids(self) -> list[int]:
        """PIDs of spawned worker processes (empty before first dispatch)."""
        if self._executor is None or not getattr(self._executor, "_processes", None):
            return []
        return list(self._executor._processes)
