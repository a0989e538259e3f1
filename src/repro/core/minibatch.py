"""Mini-batch FairKM — the §6.1 "future work" extension, implemented.

The paper identifies the per-move prototype/representation update as
FairKM's bottleneck and proposes deferring those updates to once per
mini-batch. This module realizes that idea via the shared
:class:`~repro.core.engine.OptimizerEngine` with a
:class:`~repro.core.engine.MiniBatchSweep`:

* an iteration partitions the (shuffled) objects into batches of
  ``batch_size``;
* within a batch, every object's best target cluster is decided against
  the statistics *frozen at the start of the batch*
  (:meth:`ClusterState.batch_move_deltas`);
* all accepted moves are applied, then the statistics are rebuilt once.

With ``batch_size=1`` this degenerates to exact FairKM (with per-move
resync); larger batches trade objective quality for wall-clock speed —
quantified by ``benchmarks/bench_ablation_minibatch.py``.
"""

from __future__ import annotations

import numpy as np

from .engine import MiniBatchSweep
from .fairkm import FairKM


class MiniBatchFairKM(FairKM):
    """FairKM with batched assignment updates (§6.1).

    Accepts the hyper-parameters of :class:`FairKM` except ``engine``
    and ``chunk_size``, plus ``batch_size`` and the shard-scoring
    execution spec: ``backend`` (``"local"``, serial in this process,
    the default; ``"multiprocess"``; or a
    :class:`repro.backend.Backend` instance) and ``workers``, the
    number of ``"multiprocess"`` worker processes (an integer >= 1, -1
    or ``"auto"`` for one per usable CPU; ``"local"`` takes only
    ``None``/1; a ``Backend`` instance carries its own, so ``workers``
    stays unset). Results are identical for every backend and worker
    count. See the module docstring for semantics.

    Note on ``resync_every``: the mini-batch scheme rebuilds the cluster
    statistics after every batch that moved objects — that is intrinsic
    to the algorithm and not configurable. ``resync_every`` controls the
    end-of-iteration cache rebuild the shared engine performs (the same
    knob :class:`FairKM` exposes), which runs only when a move changed
    the state since the last rebuild. A mini-batch sweep always leaves
    its caches fresh, so that rebuild is skipped and every
    ``resync_every`` gives byte-identical results.
    """

    def __init__(
        self,
        k: int,
        *,
        batch_size: int = 256,
        lambda_: float | str = "auto",
        max_iter: int = 30,
        tol: float = 1e-9,
        init: str = "random",
        allow_empty: bool = True,
        shuffle: bool = True,
        resync_every: int = 1,
        backend: str | None = None,
        workers: int | str | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        sweep = MiniBatchSweep(batch_size, workers=workers, backend=backend)
        self.batch_size = sweep.batch_size
        super().__init__(
            k,
            lambda_=lambda_,
            max_iter=max_iter,
            tol=tol,
            init=init,
            allow_empty=allow_empty,
            shuffle=shuffle,
            resync_every=resync_every,
            engine=sweep,
            seed=seed,
        )
