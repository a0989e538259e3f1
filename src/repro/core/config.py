"""Configuration and result containers for FairKM."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..cluster.init import INIT_STRATEGIES
from .lambda_heuristic import check_lambda


@dataclass(frozen=True)
class FairKMConfig:
    """Hyper-parameters of a FairKM run.

    Attributes:
        k: number of clusters.
        lambda_: fairness weight λ (Eq. 1); the string ``"auto"`` applies
            the §5.4 heuristic ``(n/k)²``.
        max_iter: cap on round-robin iterations (paper uses 30).
        tol: minimum objective improvement required to accept a move;
            guards against floating-point oscillation.
        init: initial assignment strategy — ``"random"`` (the paper's
            Step 1), ``"kmeans++"`` or ``"random_points"`` (nearest-seed
            assignment).
        allow_empty: when True (paper-faithful, Eq. 3 defines the empty
            cluster's deviation as 0) a move may empty a cluster; when
            False such moves are vetoed.
        shuffle: visit objects in a fresh random order each iteration
            instead of index order. Index order is the paper's literal
            round-robin; shuffling is the standard bias-avoiding variant.
        resync_every: rebuild the incremental caches from scratch every
            this-many iterations (0 disables; 1 is cheap and keeps float
            drift at zero). Caches no move has changed since their last
            rebuild are not rebuilt again.
    """

    k: int
    lambda_: float | str = "auto"
    max_iter: int = 30
    tol: float = 1e-9
    init: str = "random"
    allow_empty: bool = True
    shuffle: bool = True
    resync_every: int = 1

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.max_iter <= 0:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError(f"tol must be a finite non-negative number, got {self.tol}")
        if self.init not in INIT_STRATEGIES:
            raise ValueError(f"init must be one of {INIT_STRATEGIES}, got {self.init!r}")
        check_lambda(self.lambda_)
        if self.resync_every < 0:
            raise ValueError(f"resync_every must be non-negative, got {self.resync_every}")


@dataclass
class FairKMResult:
    """Outcome of a FairKM fit.

    Attributes:
        labels: final cluster assignment, shape ``(n,)``.
        centers: cluster prototypes over the non-sensitive attributes.
        objective: final O = K-Means term + λ·fairness term.
        kmeans_term: final coherence loss (the paper's CO of this
            clustering).
        fairness_term: final deviation_S(C, X).
        lambda_: the resolved (numeric) fairness weight used.
        n_iter: iterations executed.
        converged: True when an iteration completed with zero moves.
        moves_per_iter: accepted moves in each iteration.
        objective_history: objective value after each iteration.
        fractional_representations: per sensitive attribute, the final
            Fr_C(s) matrix (k × n_values).
        diagnostics: per-sweep engine telemetry — for each iteration the
            realized move rate plus the sweep strategy's own facts
            (mode, window/batch sizing, scoring vs repair wall time) —
            the measured data cost-model autotuning of the sweep
            constants works from.
    """

    labels: np.ndarray
    centers: np.ndarray
    objective: float
    kmeans_term: float
    fairness_term: float
    lambda_: float
    n_iter: int
    converged: bool
    moves_per_iter: list[int] = field(default_factory=list)
    objective_history: list[float] = field(default_factory=list)
    fractional_representations: dict[str, np.ndarray] = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def n_nonempty(self) -> int:
        """Number of clusters that ended up with at least one member."""
        return int(np.unique(self.labels).size)

    def assign(self, points: np.ndarray) -> np.ndarray:
        """Assign *new* objects to their nearest cluster prototype.

        Deployment helper: once FairKM has produced a fair clustering,
        incoming records are routed to the nearest prototype over the
        non-sensitive attributes (the fairness term shaped the prototypes
        during training; assignment itself stays S-blind).
        """
        from ..cluster.distance import nearest_center

        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.centers.shape[1]:
            raise ValueError(
                f"expected {self.centers.shape[1]} features, got {points.shape[1]}"
            )
        labels, _ = nearest_center(points, self.centers)
        return labels
