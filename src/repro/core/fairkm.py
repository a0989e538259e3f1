"""FairKM — Fair K-Means with multiple sensitive attributes (Alg. 1).

The optimizer follows the paper exactly:

1. initialize k clusters (random assignment by default, Step 1–2);
2. repeat until convergence or ``max_iter``: visit every object in
   round-robin fashion, re-assigning it to the cluster that most decreases
   the objective (Step 5, Eqs. 9–19), updating prototypes (Step 6) and
   fractional representations (Step 7) after each move;
3. return the assignment (Step 8).

The fit lifecycle lives in :class:`~repro.core.engine.OptimizerEngine`;
this class binds it to a sweep strategy. ``engine="sequential"``
(default) is the paper's literal point-at-a-time loop;
``engine="chunked"`` produces the identical decision sequence but scores
whole chunks at once via the vectorized
:meth:`~repro.core.state.ClusterState.batch_move_deltas`, which is the
fast path for large n; ``engine="minibatch"`` is the §6.1 approximation
(also available with its own knobs as
:class:`~repro.core.minibatch.MiniBatchFairKM`).

Move deltas come from :class:`~repro.core.state.ClusterState`, which keeps
sufficient statistics so each candidate evaluation is O(|N| + |S|) instead
of a full objective recomputation.

Example:
    >>> import numpy as np
    >>> from repro.core import FairKM, CategoricalSpec
    >>> rng = np.random.default_rng(0)
    >>> x = np.vstack([rng.normal(0, 1, (50, 2)), rng.normal(6, 1, (50, 2))])
    >>> gender = CategoricalSpec("gender", rng.integers(0, 2, 100))
    >>> result = FairKM(k=2, seed=0).fit(x, categorical=[gender])
    >>> result.labels.shape
    (100,)
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .attributes import CategoricalSpec, NumericSpec, normalize_sensitive
from .config import FairKMConfig, FairKMResult
from .engine import OptimizerEngine, SweepStrategy, make_sweep
from .protocol import EstimatorMixin


class FairKM(EstimatorMixin):
    """Fair K-Means clustering over multiple sensitive attributes.

    Args:
        k: number of clusters.
        lambda_: fairness weight; ``"auto"`` (default) applies the paper's
            ``(n/k)²`` heuristic at fit time.
        max_iter: round-robin iteration cap (paper: 30).
        tol: minimum strict improvement for a move to be accepted.
        init: ``"random"`` | ``"kmeans++"`` | ``"random_points"``.
        allow_empty: permit moves that empty a cluster (paper-faithful).
        shuffle: randomize visiting order each iteration.
        resync_every: rebuild caches every N iterations (0 = never).
        engine: sweep strategy — ``"sequential"`` (paper-literal,
            default), ``"chunked"`` (vectorized, identical decisions) or
            ``"minibatch"`` (§6.1 approximation) — or a
            :class:`~repro.core.engine.SweepStrategy` instance.
        chunk_size: chunk size of the ``"chunked"`` engine (doubles as
            the batch size of ``"minibatch"``); ``None`` keeps the
            strategy default.
        n_jobs: worker threads for the parallel scoring paths of the
            ``"chunked"`` and ``"minibatch"`` engines (1 serial, -1 one
            per CPU). Results are identical for every value; ignored by
            ``"sequential"``.
        backend: execution backend for those parallel scoring paths —
            ``"local"`` (thread pool, default), ``"multiprocess"``
            (worker processes over a shared-memory data placement;
            bit-identical results), or a :class:`repro.backend.Backend`
            instance. Ignored by ``"sequential"``.
        workers: worker count for *backend* (int >= 1, -1 or
            ``"auto"`` for one per usable CPU); ``None`` inherits
            ``n_jobs``. Results are identical for every value.
        seed: RNG seed or generator for initialization and shuffling.
    """

    def __init__(
        self,
        k: int,
        *,
        lambda_: float | str = "auto",
        max_iter: int = 30,
        tol: float = 1e-9,
        init: str = "random",
        allow_empty: bool = True,
        shuffle: bool = True,
        resync_every: int = 1,
        engine: str | SweepStrategy = "sequential",
        chunk_size: int | None = None,
        n_jobs: int | None = None,
        backend: str | None = None,
        workers: int | str | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        self.config = FairKMConfig(
            k=k,
            lambda_=lambda_,
            max_iter=max_iter,
            tol=tol,
            init=init,
            allow_empty=allow_empty,
            shuffle=shuffle,
            resync_every=resync_every,
        )
        self.sweep = make_sweep(
            engine,
            chunk_size=chunk_size,
            n_jobs=workers if workers is not None else n_jobs,
            backend=backend,
        )
        self._rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    def fit(
        self,
        points: np.ndarray,
        categorical: list[CategoricalSpec] | None = None,
        numeric: list[NumericSpec] | None = None,
        initial: np.ndarray | None = None,
        *,
        sensitive: Any = None,
    ) -> FairKMResult:
        """Cluster *points* fairly with respect to the sensitive specs.

        Args:
            points: non-sensitive feature matrix ``(n, d_N)``.
            categorical: categorical sensitive attributes.
            numeric: numeric sensitive attributes (Eq. 22 extension).
            initial: optional explicit initial label vector (overrides
                ``init``); useful for warm starts and controlled studies.
            sensitive: protocol-style alternative to ``categorical=`` /
                ``numeric=``: any input accepted by
                :func:`~repro.core.attributes.normalize_sensitive`.

        Returns:
            A :class:`FairKMResult`.
        """
        if sensitive is not None:
            if categorical is not None or numeric is not None:
                raise ValueError(
                    "pass either sensitive= or categorical=/numeric=, not both"
                )
            categorical, numeric = normalize_sensitive(sensitive)
        result = OptimizerEngine(self.config, self.sweep, self._rng).fit(
            points, categorical, numeric, initial
        )
        self.result_ = result
        return result


def fairkm_fit(
    points: np.ndarray,
    k: int,
    categorical: list[CategoricalSpec] | None = None,
    numeric: list[NumericSpec] | None = None,
    *,
    seed: int | np.random.Generator | None = None,
    **kwargs,
) -> FairKMResult:
    """Convenience wrapper: ``FairKM(k, seed=seed, **kwargs).fit(...)``."""
    return FairKM(k, seed=seed, **kwargs).fit(points, categorical, numeric)
