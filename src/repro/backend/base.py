"""The pluggable training-backend protocol and the in-process default.

A *backend* answers one question for the optimizer: given a frozen
:class:`~repro.core.state.ClusterState` and a batch of row indices, who
computes the per-shard move-delta statistics and how do the pieces come
back together? The FairKM objective decomposes into additive per-cluster
sufficient statistics, so a shard's deltas depend only on (static data,
frozen stats, shard rows) — which is exactly what lets the same sweep
code score shards in the calling process or in worker processes over
shared memory.

The protocol keeps the repo's standing correctness bar structural:

* :meth:`Backend.shard` partitions rows by a *size*, never by the
  worker count, so the task list is identical at every parallelism.
* :meth:`Backend.map_score` returns shard results **in shard order**
  regardless of which worker computed what.
* :meth:`Backend.merge_stats` concatenates in that fixed order.

Hold those three and a backend's fit is bit-identical to the serial
one — property-tested in ``tests/backend/``.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..core.parallel import resolve_workers, validate_workers

#: The error for a local backend asked for more than one worker.
LOCAL_WORKERS_REMOVED = (
    "the local backend's thread pool was removed: it scores in the calling "
    "process; use backend='multiprocess' for more than one worker"
)


class BackendError(RuntimeError):
    """A backend lost a worker or its data placement mid-fit."""


class Backend:
    """Base class / protocol for training execution backends.

    Lifecycle: :meth:`start` is called once per fit with the freshly
    built state (its job is *data placement* — e.g. copying the matrix
    into shared memory); :meth:`map_score` runs once per scoring round;
    :meth:`shutdown` always runs in a ``finally`` and must be
    idempotent. A backend instance is reusable across fits: ``start``
    re-places the new fit's data.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    def __init__(self, workers: int | str | None = None) -> None:
        self.workers = resolve_workers(workers)

    # -- lifecycle ----------------------------------------------------- #

    def start(self, state: Any) -> None:
        """Place *state*'s static data (points + specs) for the workers."""

    def shutdown(self) -> None:
        """Release workers and placed data (idempotent)."""

    # -- scoring ------------------------------------------------------- #

    def shard(self, indices: np.ndarray, rows_per_shard: int) -> list[np.ndarray]:
        """Fixed partition of *indices* into contiguous shards.

        Depends only on ``rows_per_shard`` — never on ``self.workers``
        — so every backend at every worker count scores the exact same
        task list in the exact same order.
        """
        indices = np.asarray(indices)
        size = int(rows_per_shard)
        if size < 1:
            raise ValueError(f"rows_per_shard must be >= 1, got {rows_per_shard}")
        return [indices[off : off + size] for off in range(0, indices.shape[0], size)]

    def map_score(
        self, state: Any, shards: Sequence[np.ndarray], lambda_: float
    ) -> list[np.ndarray]:
        """Score every shard against *state*'s frozen statistics.

        Returns one ``(rows, k)`` delta matrix per shard, in shard
        order. Subclasses implement.
        """
        raise NotImplementedError

    def merge_stats(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        """Merge per-shard results in the fixed shard order."""
        return np.vstack(parts)

    # -- introspection ------------------------------------------------- #

    def describe(self) -> dict[str, Any]:
        """Diagnostics payload: who ran the fit, at what width."""
        return {"name": self.name, "workers": self.workers}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(workers={self.workers})"


class LocalBackend(Backend):
    """Score shards serially in the calling process (the default).

    ``start`` and ``shutdown`` are no-ops: there is no data to place
    and nothing to release. Its one worker is the calling process;
    more workers take :class:`~repro.backend.MultiprocessBackend`.
    """

    name = "local"

    def __init__(self, workers: int | str | None = None) -> None:
        if validate_workers(workers) != 1:
            raise ValueError(f"{LOCAL_WORKERS_REMOVED} (got workers={workers!r})")
        super().__init__()

    def map_score(
        self, state: Any, shards: Sequence[np.ndarray], lambda_: float
    ) -> list[np.ndarray]:
        lam = float(lambda_)
        return [state.batch_move_deltas(shard, lam) for shard in shards]
