"""Shared optimizer engine for the FairKM family.

:class:`OptimizerEngine` owns the fit lifecycle that used to be
duplicated between ``FairKM.fit`` and ``MiniBatchFairKM.fit`` — input
validation, λ resolution, initialization, the sweep loop, convergence
detection, history bookkeeping and result construction. What varies
between optimizers is *how one pass over the objects is executed*, which
is delegated to a pluggable :class:`SweepStrategy`:

* :class:`SequentialSweep` — the paper's Algorithm 1 literally: visit
  each object, score it against every cluster and apply the best
  improving move immediately, in one fused
  :meth:`~repro.core.state.ClusterState.step`.
* :class:`ChunkedSweep` — the vectorized *exact* sweep. Whole chunks are
  scored at once via
  :meth:`~repro.core.state.ClusterState.batch_move_deltas`; moves are
  still applied one at a time, and any move invalidates the frozen
  scores of the objects still pending in the chunk, so the remainder is
  re-scored against the updated statistics. Decisions are therefore
  identical to :class:`SequentialSweep` (same visit order, same state at
  every decision) while the per-object NumPy overhead of the sequential
  loop is amortized across chunks. Sweeps with few moves — the long tail
  of any FairKM run — collapse to a handful of vectorized batch calls.
* :class:`MiniBatchSweep` — the §6.1 approximation: all objects of a
  batch decide against statistics frozen at the batch start, accepted
  moves are scattered into the labels at once, then the caches are rebuilt.

The engine also fixes a reporting subtlety: ``objective_history``
entries are recorded *after* the periodic
:meth:`~repro.core.state.ClusterState.resync`, so reported objectives
never include accumulated floating-point drift from the incremental
cache updates.
"""

from __future__ import annotations

import time

import numpy as np

from ..cluster.init import initial_labels
from ..obs.metrics import record_fit_sweep
from .attributes import CategoricalSpec, NumericSpec
from .config import FairKMConfig, FairKMResult
from .lambda_heuristic import resolve_lambda
from .parallel import resolve_workers
from .state import ClusterState, RowBlock


class SweepStrategy:
    """One pass over the objects of a FairKM-style local search.

    A strategy mutates *state* in place and returns the number of
    accepted moves. Strategies may keep per-fit adaptive state;
    :meth:`reset` is called by the engine at the start of every fit.

    After each :meth:`sweep` the strategy leaves a dict of per-sweep
    facts in :attr:`last_stats` (mode taken, realized window/batch
    sizing, scoring vs repair wall time); the engine folds these into
    ``FairKMResult.diagnostics`` so cost-model tuning of the sizing
    constants has measured data to work from.
    """

    #: Registry name; subclasses override.
    name = "base"

    #: Per-sweep diagnostics of the most recent :meth:`sweep` call.
    last_stats: dict

    def __init__(self) -> None:
        self.last_stats = {}

    def reset(self) -> None:
        """Clear any adaptive per-fit state (called once per fit)."""
        self.last_stats = {}

    def sweep(
        self, state: ClusterState, order: np.ndarray, lam: float, cfg: FairKMConfig
    ) -> int:
        """Visit the objects in *order* once; return accepted moves."""
        raise NotImplementedError


class SequentialSweep(SweepStrategy):
    """Point-at-a-time round-robin pass (paper Steps 4–7)."""

    name = "sequential"

    def sweep(
        self, state: ClusterState, order: np.ndarray, lam: float, cfg: FairKMConfig
    ) -> int:
        start = time.perf_counter()
        moves = 0
        for i in order.tolist():
            if not cfg.allow_empty and state.sizes[state.labels[i]] == 1:
                continue
            moves += state.step(i, lam, cfg.tol)
        self.last_stats = {
            "mode": "sequential",
            "scoring_s": time.perf_counter() - start,
        }
        return moves


def _resolve_backend(backend, workers: int):
    """Normalize a sweep's ``backend`` argument to a Backend instance.

    Imported lazily: ``repro.backend`` depends on ``repro.core`` (the
    other direction of this call), so the import must not run at this
    module's import time.
    """
    from ..backend import Backend, make_backend

    if isinstance(backend, Backend):
        return backend
    return make_backend(backend, workers)


class ChunkedSweep(SweepStrategy):
    """Vectorized chunked-exact sweep.

    Objects are scored a window at a time with ``batch_move_deltas``
    (frozen statistics), then scanned in visit order. Until a move is
    accepted, the frozen scores equal what ``move_deltas`` would have
    returned — the statistics have not changed — so non-movers are
    dispatched purely vectorized. An accepted move changes the
    statistics, so the rows still pending in the window are re-scored
    with one ``batch_move_deltas`` call: the same stateless kernel that
    scores fresh windows, so a repaired row holds exactly the value a
    fresh window would. A window's row-side inputs are gathered once
    (:meth:`ClusterState.gather`); each repair scores a suffix view. After each repair the pending scores equal what
    the sequential sweep would compute at its visit time, so the
    decision sequence — visit order, accepted moves, chosen targets — is
    exactly the sequential sweep's.

    The first iteration after ``reset`` (unknown move rate; the shuffle
    after a random init, where most objects move) runs the sequential
    inner loop: repairing after nearly every move would cost more than
    it saves. Every later sweep starts chunked; a mid-sweep safety valve
    hands the rest of the sweep to the sequential loop if the realized
    move rate crosses ``dense_threshold``.

    The window scored per batch call shrinks adaptively in movey sweeps
    (≈ ``4 / move_rate``, floored at 32): every accepted move repairs
    the rows still pending in its window, so bounding the expected moves
    per window bounds the repair work.

    With ``workers > 1`` the sweep prefetches: groups of
    :data:`PREFETCH_WINDOWS` windows are scored concurrently against the
    frozen statistics (NumPy's GEMMs release the GIL), then the group is
    scanned serially, one window at a time, with the same per-move
    repair confined to the current window. A window entered after a
    move in its group is re-scored whole first. The task partition —
    window boundaries and group size — depends only on ``chunk_size``
    and the adaptive window, never on the worker count, so every thread
    count computes the identical delta arrays and the decision sequence
    stays exactly the sequential sweep's. Prefetching coarsens the
    safety valve to group boundaries: a sweep that turns dense mid-group
    pays repair for at most the remaining prefetched windows before the
    valve fires — a bounded wall-clock cost, never a decision change.

    Args:
        chunk_size: maximum objects scored per vectorized batch call.
        dense_threshold: realized move rate above which the rest of a
            sweep runs the sequential inner loop instead of chunk scoring.
        workers: worker threads scoring windows concurrently (``1``
            serial, ``-1`` or ``"auto"`` one per usable CPU). Decisions
            are identical for every value.
        backend: execution backend scoring the window groups — a
            :class:`repro.backend.Backend` instance, a name for
            :func:`repro.backend.make_backend`, or ``None`` for the
            default thread-pool :class:`~repro.backend.LocalBackend`
            at ``workers`` width. Decisions are identical for every
            backend (see ``tests/backend/``).
    """

    name = "chunked"

    #: Window sizing: aim for about this many expected moves per window.
    MOVES_PER_WINDOW = 4.0
    #: Minimum adaptive window; below this the fixed per-call NumPy
    #: overhead of ``batch_move_deltas`` dominates.
    MIN_WINDOW = 32
    #: Windows scored ahead per parallel round. Fixed (never derived
    #: from ``workers``) so the task partition — and therefore every
    #: computed array — is identical for every worker count.
    PREFETCH_WINDOWS = 8

    def __init__(
        self,
        chunk_size: int = 256,
        dense_threshold: float = 0.4,
        workers: int | str | None = 1,
        backend=None,
    ) -> None:
        super().__init__()
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if not 0.0 < dense_threshold <= 1.0:
            raise ValueError(
                f"dense_threshold must be in (0, 1], got {dense_threshold}"
            )
        self.chunk_size = int(chunk_size)
        self.dense_threshold = float(dense_threshold)
        self.backend = _resolve_backend(backend, resolve_workers(workers))
        self._sequential = SequentialSweep()
        self._prev_rate: float | None = None

    def reset(self) -> None:
        super().reset()
        self._prev_rate = None

    def _window(self) -> int:
        rate = self._prev_rate
        if not rate:
            return self.chunk_size
        return min(self.chunk_size, max(self.MIN_WINDOW, int(self.MOVES_PER_WINDOW / rate)))

    def sweep(
        self, state: ClusterState, order: np.ndarray, lam: float, cfg: FairKMConfig
    ) -> int:
        n = order.shape[0]
        if self._prev_rate is None:
            moves = self._sequential.sweep(state, order, lam, cfg)
            self._prev_rate = moves / n
            self.last_stats = {**self._sequential.last_stats, "mode": "dense_fallback"}
            return moves

        window = self._window()
        stats = {
            "mode": "chunked",
            "window": window,
            "backend": self.backend.name,
            "workers": self.backend.workers,
            "scoring_s": 0.0,
            "repair_s": 0.0,
        }
        # One parallel round scans this many objects: a single window
        # serially, a prefetched group of windows when the backend is
        # wider than one worker.
        stride = window if self.backend.workers == 1 else window * self.PREFETCH_WINDOWS
        moves = 0
        for start in range(0, n, stride):
            # Mid-sweep safety valve: if this sweep turned out dense
            # after all, stop paying for per-move repairs.
            if start >= 2 * window and moves / start > self.dense_threshold:
                moves += self._sequential.sweep(state, order[start:], lam, cfg)
                stats["mode"] = "chunked+dense_tail"
                break
            group = order[start : start + stride]
            blocks = [state.gather(group[lo : lo + window]) for lo in range(0, len(group), window)]
            deltas = self._score_group(state, group, blocks, window, lam, stats)
            moved = False
            for lo, block in zip(range(0, len(group), window), blocks):
                if moved:  # the prefetched scores of this window are stale
                    repair_start = time.perf_counter()
                    deltas[lo : lo + window] = state.batch_move_deltas(block, lam)
                    stats["repair_s"] += time.perf_counter() - repair_start
                hits = self._scan_window(state, block, lam, cfg, deltas[lo : lo + window], stats)
                moved = moved or hits > 0
                moves += hits
        self._prev_rate = moves / n
        self.last_stats = stats
        return moves

    def _score_group(
        self,
        state: ClusterState,
        group: np.ndarray,
        blocks: list[RowBlock],
        window: int,
        lam: float,
        stats: dict,
    ) -> np.ndarray:
        """Score every window of *group* against the frozen statistics.

        The window partition (:meth:`Backend.shard`) is identical for
        every worker count and backend; the backend only decides
        *where* each per-window ``batch_move_deltas`` call runs, so the
        merged result is the same array serial scoring would produce.
        A one-window group is scored in process from its gathered block.
        """
        start = time.perf_counter()
        if len(blocks) == 1:
            deltas = state.batch_move_deltas(blocks[0], lam)
        else:
            parts = self.backend.map_score(state, self.backend.shard(group, window), lam)
            deltas = self.backend.merge_stats(parts)
        stats["scoring_s"] += time.perf_counter() - start
        return deltas

    @staticmethod
    def _scan_window(
        state: ClusterState,
        block: RowBlock,
        lam: float,
        cfg: FairKMConfig,
        deltas: np.ndarray,
        stats: dict,
    ) -> int:
        """Scan one scored window in visit order, repairing per move.

        *block* is the window gathered once; each repair scores the
        pending suffix ``block[r:]`` of it.
        """
        best = np.minimum.reduce(deltas, axis=1)
        w = len(block)
        moves = 0
        r = 0
        while True:
            hit = -1
            for rc in (r + (best[r:] < -cfg.tol).nonzero()[0]).tolist():
                if not cfg.allow_empty and state.sizes[block.cur[rc]] == 1:
                    best[rc] = 0.0  # vetoed: visited without moving
                    continue
                hit = rc
                break
            if hit < 0:
                return moves
            state.apply_move(int(block.index[hit]), int(deltas[hit].argmin()))
            moves += 1
            r = hit + 1
            if r >= w:
                return moves
            # Re-score the rows still pending in the window.
            repair_start = time.perf_counter()
            deltas[r:] = state.batch_move_deltas(block[r:], lam)
            best[r:] = np.minimum.reduce(deltas[r:], axis=1)
            stats["repair_s"] += time.perf_counter() - repair_start


class MiniBatchSweep(SweepStrategy):
    """Batched assignment updates (§6.1 mini-batch approximation).

    Every object of a batch decides against the statistics frozen at the
    batch start; all accepted moves are applied (decisions may have gone
    stale within the batch — that is the approximation), then the caches
    are rebuilt once.

    With ``workers > 1`` the frozen-snapshot scoring of each batch is
    *sharded*: the execution backend scores fixed-size shards of the
    batch concurrently against the frozen statistics (threads by
    default; worker processes over a shared-memory data placement with
    ``backend="multiprocess"``), the shard deltas are stacked back in
    visit order, and the accepted moves are merged by one label scatter
    and the batch's single resync, which rebuilds every cache from the
    labels. The ``allow_empty=False`` veto replays the moves in visit
    order on an integer size ledger, so the decisions equal those of a
    one-move-at-a-time merge. Shard boundaries depend only on the batch
    size, never on the worker count or backend.
    """

    name = "minibatch"

    #: Minimum rows per scoring shard; below this the per-task overhead
    #: outweighs the GIL-released GEMM work.
    MIN_SHARD = 512
    #: Maximum shards per batch (bounds per-batch task overhead).
    MAX_SHARDS = 8

    def __init__(
        self, batch_size: int = 256, workers: int | str | None = 1, backend=None
    ) -> None:
        super().__init__()
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.batch_size = int(batch_size)
        self.backend = _resolve_backend(backend, resolve_workers(workers))
        self._shards = 0

    def reset(self) -> None:
        super().reset()
        self._shards = 0

    def _score_batch(self, state: ClusterState, batch: np.ndarray, lam: float) -> np.ndarray:
        """Frozen-snapshot deltas for one batch, sharded when wide.

        The shard partition depends only on the batch size — a batch
        wider than one shard is scored shard-by-shard even at
        ``workers=1`` — so every worker count and backend performs the
        identical per-shard calls and bit-identity is structural, not
        an assumption about BLAS reductions being shape-independent.
        """
        b = batch.shape[0]
        shard = max(self.MIN_SHARD, -(-b // self.MAX_SHARDS))  # ceil division
        if b <= shard:
            return state.batch_move_deltas(batch, lam)
        shards = self.backend.shard(batch, shard)
        self._shards += len(shards)
        parts = self.backend.map_score(state, shards, lam)
        return self.backend.merge_stats(parts)

    def sweep(
        self, state: ClusterState, order: np.ndarray, lam: float, cfg: FairKMConfig
    ) -> int:
        stats = {
            "mode": "minibatch",
            "batch_size": self.batch_size,
            "backend": self.backend.name,
            "workers": self.backend.workers,
            "scoring_s": 0.0,
            "merge_s": 0.0,
        }
        shards_before = self._shards
        moves = 0
        for start in range(0, order.shape[0], self.batch_size):
            batch = order[start : start + self.batch_size]
            t0 = time.perf_counter()
            deltas = self._score_batch(state, batch, lam)
            t1 = time.perf_counter()
            stats["scoring_s"] += t1 - t0
            targets = np.argmin(deltas, axis=1)
            rows = np.arange(batch.shape[0])
            improves = deltas[rows, targets] < -cfg.tol
            cur = state.labels[batch]
            movers = np.flatnonzero(improves & (targets != cur))
            if not cfg.allow_empty:
                # Veto in visit order on an integer size ledger.
                ledger, kept = state.sizes.tolist(), []
                for r, src, dst in zip(movers, cur[movers].tolist(), targets[movers].tolist()):
                    if ledger[src] > 1:
                        ledger[src] -= 1
                        ledger[dst] += 1
                        kept.append(r)
                movers = np.array(kept, dtype=np.int64)
            if movers.size:
                state.labels[batch[movers]] = targets[movers]
                state.resync()
            stats["merge_s"] += time.perf_counter() - t1
            moves += movers.size
        stats["shards"] = self._shards - shards_before
        self.last_stats = stats
        return moves


#: Engine name -> strategy class, the registry behind ``engine="..."``
#: constructor arguments and the CLI's ``--engine`` flag.
SWEEP_STRATEGIES: dict[str, type[SweepStrategy]] = {
    SequentialSweep.name: SequentialSweep,
    ChunkedSweep.name: ChunkedSweep,
    MiniBatchSweep.name: MiniBatchSweep,
}


def make_sweep(
    engine: str | SweepStrategy,
    *,
    chunk_size: int | None = None,
    workers: int | str | None = None,
    backend=None,
) -> SweepStrategy:
    """Resolve an ``engine`` argument into a :class:`SweepStrategy`.

    Args:
        engine: a strategy instance (returned as-is) or a name from
            :data:`SWEEP_STRATEGIES`.
        chunk_size: chunk size for ``"chunked"``; doubles as the batch
            size for ``"minibatch"``. ``None`` keeps each strategy's
            default. Rejected alongside a strategy *instance* — the
            instance already carries its own sizing.
        workers: scoring worker count for the ``"chunked"`` and
            ``"minibatch"`` strategies (``None``/1 serial, -1 or
            ``"auto"`` one per usable CPU). Ignored by
            ``"sequential"``, whose decision loop is inherently serial;
            like ``chunk_size``, rejected alongside a strategy instance.
        backend: execution backend for the parallel strategies — a
            :class:`repro.backend.Backend` instance or a
            :data:`repro.backend.BACKEND_NAMES` name (``None`` keeps
            the thread-pool default). Ignored by ``"sequential"``;
            rejected alongside a strategy instance.
    """
    if isinstance(engine, SweepStrategy):
        if chunk_size is not None or workers is not None or backend is not None:
            raise ValueError(
                "chunk_size/workers/backend cannot be combined with a "
                "SweepStrategy instance; configure the instance directly"
            )
        return engine
    workers = resolve_workers(workers)
    if engine == SequentialSweep.name:
        return SequentialSweep()
    if engine == ChunkedSweep.name:
        if chunk_size is None:
            return ChunkedSweep(workers=workers, backend=backend)
        return ChunkedSweep(chunk_size, workers=workers, backend=backend)
    if engine == MiniBatchSweep.name:
        if chunk_size is None:
            return MiniBatchSweep(workers=workers, backend=backend)
        return MiniBatchSweep(chunk_size, workers=workers, backend=backend)
    raise ValueError(
        f"unknown engine {engine!r}; expected one of {sorted(SWEEP_STRATEGIES)} "
        "or a SweepStrategy instance"
    )


def build_result(
    state: ClusterState,
    lam: float,
    n_iter: int,
    converged: bool,
    moves_per_iter: list[int],
    objective_history: list[float],
    diagnostics: dict | None = None,
) -> FairKMResult:
    """Assemble a :class:`FairKMResult` from the final optimizer state."""
    km = state.kmeans_term()
    fair = state.fairness_term()
    return FairKMResult(
        labels=state.labels.copy(),
        centers=state.centroids(),
        objective=km + lam * fair,
        kmeans_term=km,
        fairness_term=fair,
        lambda_=lam,
        n_iter=n_iter,
        converged=converged,
        moves_per_iter=moves_per_iter,
        objective_history=objective_history,
        fractional_representations=state.fractional_representations(),
        diagnostics=diagnostics or {},
    )


class OptimizerEngine:
    """The fit lifecycle shared by every FairKM-family optimizer.

    Validates inputs, resolves λ, initializes the assignment, runs the
    configured :class:`SweepStrategy` until convergence or the iteration
    cap, maintains the periodic cache resync and the per-iteration
    history, and builds the result.

    Args:
        config: hyper-parameters of the run.
        sweep: the sweep strategy executing each pass.
        rng: generator driving initialization and per-iteration shuffles.
    """

    def __init__(
        self,
        config: FairKMConfig,
        sweep: SweepStrategy,
        rng: np.random.Generator,
    ) -> None:
        self.config = config
        self.sweep_strategy = sweep
        self._rng = rng

    def fit(
        self,
        points: np.ndarray,
        categorical: list[CategoricalSpec] | None = None,
        numeric: list[NumericSpec] | None = None,
        initial: np.ndarray | None = None,
    ) -> FairKMResult:
        """Run the local search; same contract as ``FairKM.fit``."""
        cfg = self.config
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        if not np.isfinite(points).all():
            raise ValueError("points must be finite (no NaN or inf)")
        n = points.shape[0]
        if n < cfg.k:
            raise ValueError(f"need at least k={cfg.k} objects, got {n}")
        lam = resolve_lambda(cfg.lambda_, n, cfg.k)

        if initial is not None:
            labels = np.asarray(initial, dtype=np.int64).copy()
            if labels.shape != (n,):
                raise ValueError(f"initial labels must have shape ({n},)")
        else:
            labels = initial_labels(points, cfg.k, cfg.init, self._rng)

        state = ClusterState(points, labels, cfg.k, categorical, numeric)
        self.sweep_strategy.reset()
        moves_per_iter: list[int] = []
        objective_history: list[float] = []
        sweep_stats: list[dict] = []
        converged = False
        n_iter = 0
        # The sweep's execution backend owns the fit's data placement
        # (e.g. shared-memory segments): started once per fit, torn
        # down unconditionally so a failed fit leaks nothing.
        backend = getattr(self.sweep_strategy, "backend", None)
        if backend is not None:
            backend.start(state)
        try:
            for n_iter in range(1, cfg.max_iter + 1):
                order = self._rng.permutation(n) if cfg.shuffle else np.arange(n)
                moves = self.sweep_strategy.sweep(state, order, lam, cfg)
                moves_per_iter.append(moves)
                sweep_stats.append(
                    {
                        "iteration": n_iter,
                        "moves": moves,
                        "move_rate": moves / n,
                        **self.sweep_strategy.last_stats,
                    }
                )
                record_fit_sweep(sweep_stats[-1], engine=self.sweep_strategy.name)
                if cfg.resync_every and n_iter % cfg.resync_every == 0:
                    state.resync()
                # Recorded after the periodic resync: reported objectives
                # never carry incremental floating-point drift.
                objective_history.append(state.objective(lam))
                if moves == 0:
                    converged = True
                    break
        finally:
            if backend is not None:
                backend.shutdown()
        diagnostics = {"engine": self.sweep_strategy.name, "sweeps": sweep_stats}
        if backend is not None:
            diagnostics["backend"] = backend.describe()
        return build_result(
            state, lam, n_iter, converged, moves_per_iter, objective_history, diagnostics
        )
