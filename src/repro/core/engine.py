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
  moves are scattered into the labels at once, then the caches are rebuilt
  (:meth:`~repro.core.state.ClusterState.relabel`).

The engine also fixes a reporting subtlety: ``objective_history``
entries are recorded *after* the periodic
:meth:`~repro.core.state.ClusterState.resync`, so reported objectives
never include accumulated floating-point drift from the incremental
cache updates. That rebuild runs only when a move has changed the state
since the last one; caches that are already fresh are kept.
"""

from __future__ import annotations

import time

import numpy as np

from ..cluster.init import initial_labels
from ..obs.metrics import record_fit_sweep
from .attributes import CategoricalSpec, NumericSpec
from .config import FairKMConfig, FairKMResult
from .lambda_heuristic import resolve_lambda
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
    (:meth:`ClusterState.gather`); each repair scores a suffix view.
    After each repair the pending scores equal what the sequential sweep
    would compute at its visit time, so the decision sequence — visit
    order, accepted moves, chosen targets — is exactly the sequential
    sweep's. The sweep is serial by nature (Algorithm 1's every move
    changes the statistics the next object decides against), so one
    window is scored at a time.

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

    Args:
        chunk_size: maximum objects scored per vectorized batch call.
        dense_threshold: realized move rate above which the rest of a
            sweep runs the sequential inner loop instead of chunk scoring.
    """

    name = "chunked"

    #: Window sizing: aim for about this many expected moves per window.
    MOVES_PER_WINDOW = 4.0
    #: Minimum adaptive window; below this the fixed per-call NumPy
    #: overhead of ``batch_move_deltas`` dominates.
    MIN_WINDOW = 32

    def __init__(self, chunk_size: int = 256, dense_threshold: float = 0.4) -> None:
        super().__init__()
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if not 0.0 < dense_threshold <= 1.0:
            raise ValueError(
                f"dense_threshold must be in (0, 1], got {dense_threshold}"
            )
        self.chunk_size = int(chunk_size)
        self.dense_threshold = float(dense_threshold)
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
            "scoring_s": 0.0,
            "repair_s": 0.0,
        }
        moves = 0
        for start in range(0, n, window):
            # Mid-sweep safety valve: if this sweep turned out dense
            # after all, stop paying for per-move repairs.
            if start >= 2 * window and moves / start > self.dense_threshold:
                moves += self._sequential.sweep(state, order[start:], lam, cfg)
                stats["mode"] = "chunked+dense_tail"
                break
            block = state.gather(order[start : start + window])
            scoring_start = time.perf_counter()
            deltas = state.batch_move_deltas(block, lam)
            stats["scoring_s"] += time.perf_counter() - scoring_start
            moves += self._scan_window(state, block, lam, cfg, deltas, stats)
        self._prev_rate = moves / n
        self.last_stats = stats
        return moves

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
    are rebuilt once (:meth:`ClusterState.relabel`). A batch that moved
    no row is not rebuilt, and the caches end every sweep fresh, so the
    engine's end-of-iteration rebuild is skipped.

    A batch wider than one shard is scored in fixed-size shards by the
    execution backend against the frozen statistics: serially in this
    process by default, or in ``workers`` worker processes over a
    shared-memory data placement with ``backend="multiprocess"``. The
    shard deltas are stacked back in visit order, and the accepted moves
    are merged by one label scatter and the batch's single resync, which
    rebuilds every cache from the labels. The ``allow_empty=False`` veto
    replays the moves in visit order on an integer size ledger, so the
    decisions equal those of a one-move-at-a-time merge. Shard
    boundaries depend only on the batch size, never on the worker count
    or backend.
    """

    name = "minibatch"

    #: Minimum rows per scoring shard; below this a shard's share of the
    #: batch message and its acknowledgement outweighs the GEMM work.
    MIN_SHARD = 512
    #: Maximum shards per batch (bounds the per-batch scoring calls).
    MAX_SHARDS = 8

    def __init__(
        self, batch_size: int = 256, workers: int | str | None = None, backend=None
    ) -> None:
        super().__init__()
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.batch_size = int(batch_size)
        # Imported lazily: ``repro.backend`` depends on ``repro.core``.
        from ..backend import make_backend

        self.backend = make_backend(backend, workers)
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
                state.relabel(batch[movers], targets[movers])
            stats["merge_s"] += time.perf_counter() - t1
            moves += movers.size
        stats["shards"] = self._shards - shards_before
        self.last_stats = stats
        return moves


#: Exact engine name -> strategy class, the registry behind
#: ``engine="..."`` constructor arguments and the CLI's ``--engine``
#: flag. The §6.1 approximation is not an engine name: it is
#: :class:`~repro.core.minibatch.MiniBatchFairKM`, which passes its own
#: :class:`MiniBatchSweep` instance.
SWEEP_STRATEGIES: dict[str, type[SweepStrategy]] = {
    SequentialSweep.name: SequentialSweep,
    ChunkedSweep.name: ChunkedSweep,
}


def make_sweep(engine: str | SweepStrategy, *, chunk_size: int | None = None) -> SweepStrategy:
    """Resolve an ``engine`` argument into a :class:`SweepStrategy`.

    Args:
        engine: a strategy instance (returned as-is) or a name from
            :data:`SWEEP_STRATEGIES`.
        chunk_size: chunk size for ``"chunked"``; ``None`` keeps its
            default. Rejected alongside a strategy *instance* — the
            instance already carries its own sizing.
    """
    if isinstance(engine, SweepStrategy):
        if chunk_size is not None:
            raise ValueError(
                "chunk_size cannot be combined with a SweepStrategy "
                "instance; configure the instance directly"
            )
        return engine
    if engine == SequentialSweep.name:
        return SequentialSweep()
    if engine == ChunkedSweep.name:
        return ChunkedSweep() if chunk_size is None else ChunkedSweep(chunk_size)
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
            raw = np.asarray(initial)
            if raw.shape != (n,):
                raise ValueError(f"initial labels must have shape ({n},)")
            if raw.dtype.kind == "f" and not (np.isfinite(raw) & (raw == np.trunc(raw))).all():
                raise ValueError("initial labels must be integers")
            labels = raw.astype(np.int64)
        else:
            labels = initial_labels(points, cfg.k, cfg.init, self._rng)

        state = ClusterState(points, labels, cfg.k, categorical, numeric)
        self.sweep_strategy.reset()
        moves_per_iter: list[int] = []
        objective_history: list[float] = []
        sweep_stats: list[dict] = []
        converged = False
        n_iter = 0
        # A mini-batch sweep's execution backend owns the fit's data
        # placement (e.g. shared-memory segments): started once per fit,
        # torn down unconditionally so a failed fit leaks nothing.
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
                stale = state.mutations != state.resynced_at
                if stale and cfg.resync_every and n_iter % cfg.resync_every == 0:
                    state.resync()
                # Recorded after the periodic resync: reported objectives
                # never carry incremental floating-point drift. Caches no
                # move has touched since their last rebuild are already
                # what a rebuild would give, so they are not rebuilt.
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
