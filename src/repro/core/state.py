"""Incremental sufficient statistics for the FairKM objective.

This module is the computational heart of the reproduction. It maintains,
per cluster, exactly the quantities needed to evaluate the *change* in the
FairKM objective (Eq. 9/10) for moving one object between clusters in
O(|N| + |S|) — the optimized form of the paper's Eqs. 11–19.

K-Means term. For cluster C keep ``m = |C|``, ``S = Σ x``, ``Q = Σ ‖x‖²``;
then ``SSE(C) = Q − ‖S‖²/m`` and point insertion/removal deltas are closed
forms in ``(m, S·x, ‖S‖², ‖x‖²)``. These are algebraically identical to the
paper's Eqs. 11–15 (prototype re-normalization folded in).

Categorical fairness term. Eq. 7 for one cluster/attribute equals
``(1/n²) · f / |V(S)|`` with ``f = Σ_s (c_s − m·p_s)²`` (c_s = cluster value
count, p_s = dataset fraction). Because ``Σ_s c_s = m`` and ``Σ_s p_s = 1``,
moving an object whose value is j changes f by

    Δf(±) = ±2·[(c_j − m·p_j) − (h − m·P2)] + (1 − 2·p_j + P2)

where ``h = Σ_s p_s·c_s`` and ``P2 = Σ_s p_s²`` — both maintained
incrementally. This is the same quantity as the paper's Eqs. 16–18 with the
indicator bookkeeping folded into two cached scalars per cluster.

Numeric fairness term (Eq. 22). Keep ``d = Σ_{x∈C} x_S − m·mean_X(S)`` per
cluster/attribute; the cluster's term is ``(1/n²)·d²`` and the delta of
moving a point with centered value y is ``±y·(2d ± y)``.

Floating-point hygiene: thousands of incremental updates accumulate error,
so :meth:`ClusterState.resync` recomputes every cache from the raw label
vector (the optimizer calls it once per outer iteration) and
:meth:`ClusterState.consistency_error` exposes the drift for tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.utils import validate_labels
from .attributes import CategoricalSpec, NumericSpec, validate_specs


@dataclass
class _CategoricalState:
    """Caches for one categorical sensitive attribute."""

    spec: CategoricalSpec
    p: np.ndarray  # dataset distribution, shape (v,)
    p2: float  # Σ p_s²
    counts: np.ndarray  # (k, v) cluster value counts
    f: np.ndarray  # (k,) Σ_s (c_s − m p_s)²
    h: np.ndarray  # (k,) Σ_s p_s c_s
    norm: float  # weight / |Values(S)|


@dataclass
class _NumericState:
    """Caches for one numeric sensitive attribute."""

    spec: NumericSpec
    centered: np.ndarray  # (n,) values − dataset mean
    d: np.ndarray  # (k,) Σ_{x∈C} centered(x)
    weight: float


def shard_move_deltas(
    xb: np.ndarray,
    x2: np.ndarray,
    cur: np.ndarray,
    sums: np.ndarray,
    sum_sqnorm: np.ndarray,
    sizes_f: np.ndarray,
    cats: list[tuple[np.ndarray, np.ndarray, float, np.ndarray, np.ndarray, float]],
    nums: list[tuple[np.ndarray, float, np.ndarray]],
    lambda_: float,
    n2: float,
) -> np.ndarray:
    """Pure-function core of :meth:`ClusterState.batch_move_deltas`.

    Every scoring path in the system — in-process, multiprocess workers,
    and the fleet ``/score`` route — must funnel through this one
    expression sequence so their float operation order is identical and
    remote fits stay bit-for-bit equal to local ones.

    Args:
        xb: shard rows of the point matrix, shape ``(b, d)``.
        x2: shard rows of the squared norms, shape ``(b,)``.
        cur: current cluster of each shard row, shape ``(b,)``.
        sums: frozen per-cluster sums ``S``, shape ``(k, d)``.
        sum_sqnorm: frozen ``‖S_C‖²``, shape ``(k,)``.
        sizes_f: frozen cluster sizes as float64, shape ``(k,)``.
        cats: per categorical attribute, the tuple
            ``(codes_b, p, p2, counts, h, norm)`` with ``codes_b`` already
            gathered for the shard rows.
        nums: per numeric attribute, the tuple ``(y, weight, d)`` with
            ``y`` the gathered centered values.
        lambda_: fairness trade-off.
        n2: dataset ``n²`` as float (see :class:`ClusterState`).

    Returns:
        ``(b, k)`` matrix of objective deltas.
    """
    k = sums.shape[0]
    b = xb.shape[0]
    rows = np.arange(b)
    m = sizes_f

    dots = xb @ sums.T  # (b, k)
    delta_in = (
        x2[:, None]
        + (sum_sqnorm / np.where(m > 0, m, 1.0))[None, :]
        - (sum_sqnorm[None, :] + 2.0 * dots + x2[:, None]) / (m + 1.0)[None, :]
    )
    delta_in = np.where(m[None, :] > 0, delta_in, 0.0)

    m_cur = m[cur]
    dots_cur = dots[rows, cur]
    s2_minus = sum_sqnorm[cur] - 2.0 * dots_cur + x2
    delta_out = np.where(
        m_cur <= 1.0,
        0.0,
        -x2 - s2_minus / np.maximum(m_cur - 1.0, 1.0) + sum_sqnorm[cur] / np.maximum(m_cur, 1.0),
    )

    fair_in = np.zeros((b, k), dtype=np.float64)
    fair_out = np.zeros(b, dtype=np.float64)
    for codes_b, p, p2, counts, h, norm in cats:
        p_j = p[codes_b]  # (b,)
        self_term = 1.0 - 2.0 * p_j + p2  # (b,)
        # gap[r, c] = (counts[c, j_r] − m_c p_{j_r}) − (h_c − m_c P2)
        gap = counts[:, codes_b].T - m[None, :] * p_j[:, None] - (
            h[None, :] - m[None, :] * p2
        )
        fair_in += norm * (2.0 * gap + self_term[:, None])
        fair_out += norm * (-2.0 * gap[rows, cur] + self_term)
    for y, weight, d in nums:
        fair_in += weight * (y[:, None] * (2.0 * d[None, :] + y[:, None]))
        fair_out += weight * (-y * (2.0 * d[cur] - y))

    deltas = delta_in + delta_out[:, None]
    deltas += (lambda_ / n2) * (fair_in + fair_out[:, None])
    deltas[rows, cur] = 0.0
    return deltas


class ClusterState:
    """Mutable clustering state with O(1)-amortized move deltas.

    Args:
        points: non-sensitive feature matrix, shape ``(n, d_N)``.
        labels: initial cluster assignment, shape ``(n,)``.
        k: number of clusters.
        categorical: categorical sensitive attribute specs.
        numeric: numeric sensitive attribute specs.
    """

    def __init__(
        self,
        points: np.ndarray,
        labels: np.ndarray,
        k: int,
        categorical: list[CategoricalSpec] | None = None,
        numeric: list[NumericSpec] | None = None,
    ) -> None:
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        if self.points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {self.points.shape}")
        self.n, self.dim = self.points.shape
        self.k = int(k)
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.labels = validate_labels(labels, self.k, n=self.n).copy()
        self.categorical_specs = list(categorical or [])
        self.numeric_specs = list(numeric or [])
        validate_specs(self.n, self.categorical_specs, self.numeric_specs)
        self.point_sqnorm = np.einsum("ij,ij->i", self.points, self.points)
        # n² is exact in float64 for any realistic n, so λ/n² computed
        # through this hoisted constant is bit-identical to the inline
        # division while saving the per-call int multiply.
        self._n2 = float(self.n * self.n)
        #: Mutation counter: bumped by every apply_move/resync so frozen
        #: scoring views (repro.core.parallel) can detect races.
        self.mutations = 0

        # Allocated once; filled by resync().
        self.sizes = np.zeros(self.k, dtype=np.int64)
        self.sums = np.zeros((self.k, self.dim), dtype=np.float64)
        self.sum_sqnorm = np.zeros(self.k, dtype=np.float64)  # ‖S_C‖²
        self.sq_total = np.zeros(self.k, dtype=np.float64)  # Q_C = Σ ‖x‖²
        self._cat: list[_CategoricalState] = []
        for spec in self.categorical_specs:
            p = spec.dataset_distribution
            self._cat.append(
                _CategoricalState(
                    spec=spec,
                    p=p,
                    p2=float(np.sum(p * p)),
                    counts=np.zeros((self.k, spec.n_values), dtype=np.float64),
                    f=np.zeros(self.k, dtype=np.float64),
                    h=np.zeros(self.k, dtype=np.float64),
                    norm=spec.weight / spec.n_values,
                )
            )
        self._num: list[_NumericState] = []
        for spec in self.numeric_specs:
            centered = spec.values - spec.dataset_mean
            self._num.append(
                _NumericState(
                    spec=spec,
                    centered=centered,
                    d=np.zeros(self.k, dtype=np.float64),
                    weight=spec.weight,
                )
            )
        self.resync()

    # ------------------------------------------------------------------ #
    # Cache (re)construction                                              #
    # ------------------------------------------------------------------ #

    def resync(self) -> None:
        """Recompute every cache from ``self.labels`` (clears float drift)."""
        self.mutations += 1
        labels, k = self.labels, self.k
        # bincount adds each bin's terms in index order, exactly as
        # np.add.at would, so the sums are bit-identical to an
        # object-by-object accumulation. One column at a time keeps the
        # temporaries at O(n), never O(n·d).
        self.sizes = np.bincount(labels, minlength=k)
        for j in range(self.dim):
            self.sums[:, j] = np.bincount(labels, weights=self.points[:, j], minlength=k)
        self.sum_sqnorm = np.einsum("ij,ij->i", self.sums, self.sums)
        self.sq_total[:] = np.bincount(labels, weights=self.point_sqnorm, minlength=k)
        # Cached float view of sizes; kept exact by the incremental ±1
        # updates in apply_move (small integers are exact in float64).
        self._sizes_f = self.sizes.astype(np.float64)
        m = self._sizes_f
        for cat in self._cat:
            v = cat.counts.shape[1]
            cat.counts[:] = np.bincount(labels * v + cat.spec.codes, minlength=k * v).reshape(k, v)
            resid = cat.counts - m[:, None] * cat.p[None, :]
            cat.f = np.einsum("ij,ij->i", resid, resid)
            cat.h = cat.counts @ cat.p
        for num in self._num:
            num.d[:] = np.bincount(labels, weights=num.centered, minlength=k)

    def export_scoring_stats(self) -> dict[str, object]:
        """Everything :meth:`batch_move_deltas` reads besides the data.

        Returns the live per-cluster sufficient statistics — the arrays
        a remote scorer must install next to its own copy of the static
        data (points + attribute specs) to reproduce this state's
        scoring bit for bit. The values are *live views*, frozen only
        by the no-mutation-during-scoring protocol; callers shipping
        them across a process boundary get copies from serialization.
        """
        return {
            "sums": self.sums,
            "sum_sqnorm": self.sum_sqnorm,
            "sizes_f": self._sizes_f,
            "cat_counts": [cat.counts for cat in self._cat],
            "cat_h": [cat.h for cat in self._cat],
            "num_d": [num.d for num in self._num],
        }

    def export_shard_inline(self, indices: np.ndarray) -> dict[str, object]:
        """Everything a *stateless* remote scorer needs for *indices*.

        The self-contained sibling of :meth:`export_scoring_stats`: the
        shard's data rows are gathered here so the peer needs no copy of
        the static data at all — it feeds the returned arrays straight
        into :func:`shard_move_deltas`. This is the payload of the fleet
        ``/score`` route's inline mode.
        """
        indices = np.asarray(indices, dtype=np.int64)
        return {
            "xb": self.points[indices],
            "x2": self.point_sqnorm[indices],
            "cur": self.labels[indices],
            "sums": self.sums,
            "sum_sqnorm": self.sum_sqnorm,
            "sizes_f": self._sizes_f,
            "cats": [
                (cat.spec.codes[indices], cat.p, cat.p2, cat.counts, cat.h, cat.norm)
                for cat in self._cat
            ],
            "nums": [(num.centered[indices], num.weight, num.d) for num in self._num],
            "n2": self._n2,
        }

    def install_scoring_stats(self, stats: dict[str, object]) -> None:
        """Install a peer's :meth:`export_scoring_stats` snapshot.

        Used by backend worker processes: the static data (points,
        specs) lives in shared memory, only these additive statistics
        travel per scoring round. Scoring after install is bit-identical
        to the exporting state's because :meth:`batch_move_deltas` reads
        exactly these arrays (plus labels, which the caller scatters).
        """
        self.sums = np.ascontiguousarray(stats["sums"], dtype=np.float64)
        self.sum_sqnorm = np.ascontiguousarray(stats["sum_sqnorm"], dtype=np.float64)
        self._sizes_f = np.ascontiguousarray(stats["sizes_f"], dtype=np.float64)
        self.sizes = self._sizes_f.astype(np.int64)
        for cat, counts, h in zip(self._cat, stats["cat_counts"], stats["cat_h"]):
            cat.counts = np.ascontiguousarray(counts, dtype=np.float64)
            cat.h = np.ascontiguousarray(h, dtype=np.float64)
        for num, d in zip(self._num, stats["num_d"]):
            num.d = np.ascontiguousarray(d, dtype=np.float64)
        self.mutations += 1

    def consistency_error(self) -> float:
        """Max absolute difference between live caches and a fresh rebuild."""
        snapshot = ClusterState(
            self.points, self.labels, self.k, self.categorical_specs, self.numeric_specs
        )
        err = float(np.max(np.abs(self.sums - snapshot.sums), initial=0.0))
        err = max(err, float(np.max(np.abs(self.sum_sqnorm - snapshot.sum_sqnorm), initial=0.0)))
        err = max(err, float(np.max(np.abs(self.sq_total - snapshot.sq_total), initial=0.0)))
        err = max(err, float(np.max(np.abs(self.sizes - snapshot.sizes), initial=0)))
        for mine, theirs in zip(self._cat, snapshot._cat):
            err = max(err, float(np.max(np.abs(mine.counts - theirs.counts), initial=0.0)))
            err = max(err, float(np.max(np.abs(mine.f - theirs.f), initial=0.0)))
            err = max(err, float(np.max(np.abs(mine.h - theirs.h), initial=0.0)))
        for mine, theirs in zip(self._num, snapshot._num):
            err = max(err, float(np.max(np.abs(mine.d - theirs.d), initial=0.0)))
        return err

    # ------------------------------------------------------------------ #
    # Objective evaluation from caches                                    #
    # ------------------------------------------------------------------ #

    def kmeans_term(self) -> float:
        """Current K-Means loss Σ_C (Q_C − ‖S_C‖²/|C|)."""
        m = self._sizes_f
        nonempty = m > 0
        sse = self.sq_total[nonempty] - self.sum_sqnorm[nonempty] / m[nonempty]
        return float(np.maximum(sse, 0.0).sum())

    def fairness_term(self) -> float:
        """Current deviation_S(C, X) per Eqs. 7 / 22 / 23."""
        inv_n2 = 1.0 / self._n2
        total = 0.0
        for cat in self._cat:
            total += cat.norm * float(cat.f.sum())
        for num in self._num:
            total += num.weight * float(np.sum(num.d * num.d))
        return inv_n2 * total

    def objective(self, lambda_: float) -> float:
        """O = K-Means term + λ · fairness term (Eq. 1)."""
        return self.kmeans_term() + lambda_ * self.fairness_term()

    def centroids(self) -> np.ndarray:
        """Cluster prototypes (means); empty clusters get the global mean."""
        m = self._sizes_f
        centers = np.empty_like(self.sums)
        nonempty = m > 0
        centers[nonempty] = self.sums[nonempty] / m[nonempty, None]
        if not nonempty.all():
            centers[~nonempty] = self.points.mean(axis=0)
        return centers

    # ------------------------------------------------------------------ #
    # Move deltas and application                                         #
    # ------------------------------------------------------------------ #

    def move_deltas(self, i: int, lambda_: float) -> np.ndarray:
        """Objective change for moving object *i* to each cluster.

        Returns a length-k vector whose entry c is
        ``O(labels with i→c) − O(labels)``; the entry for i's current
        cluster is exactly 0. This is Eq. 10 evaluated for all candidate
        clusters at once.
        """
        cur = int(self.labels[i])
        x = self.points[i]
        x2 = float(self.point_sqnorm[i])
        m = self._sizes_f

        # --- K-Means term ------------------------------------------------
        dots = self.sums @ x  # S_C · x for every C
        with np.errstate(divide="ignore", invalid="ignore"):
            delta_in = x2 + self.sum_sqnorm / np.where(m > 0, m, 1.0) - (
                self.sum_sqnorm + 2.0 * dots + x2
            ) / (m + 1.0)
        delta_in = np.where(m > 0, delta_in, 0.0)

        m_cur = float(m[cur])
        if m_cur <= 1.0:
            delta_out = 0.0
        else:
            s2_minus = self.sum_sqnorm[cur] - 2.0 * dots[cur] + x2
            delta_out = -x2 - s2_minus / (m_cur - 1.0) + self.sum_sqnorm[cur] / m_cur
        deltas = delta_in + delta_out

        # --- Fairness term ------------------------------------------------
        fair_in = np.zeros(self.k, dtype=np.float64)
        fair_out = 0.0
        for cat in self._cat:
            j = int(cat.spec.codes[i])
            p_j = float(cat.p[j])
            self_term = 1.0 - 2.0 * p_j + cat.p2
            gap = (cat.counts[:, j] - m * p_j) - (cat.h - m * cat.p2)
            fair_in += cat.norm * (2.0 * gap + self_term)
            fair_out += cat.norm * (-2.0 * float(gap[cur]) + self_term)
        for num in self._num:
            y = float(num.centered[i])
            fair_in += num.weight * (y * (2.0 * num.d + y))
            fair_out += num.weight * (-y * (2.0 * float(num.d[cur]) - y))
        deltas += (lambda_ / self._n2) * (fair_in + fair_out)

        deltas[cur] = 0.0
        return deltas

    def batch_move_deltas(self, indices: np.ndarray, lambda_: float) -> np.ndarray:
        """Vectorized :meth:`move_deltas` for many objects at once.

        Returns a ``(len(indices), k)`` matrix of objective deltas, each
        row evaluated against the *current frozen* statistics — i.e., the
        rows do not see each other's hypothetical moves. This is the
        computational primitive of the mini-batch extension (§6.1): within
        a batch, decisions are made against a stale snapshot and applied
        together.
        """
        # Divisors are clamped to >= 1 everywhere, so no errstate guards
        # are needed (this is a hot call for the chunked/mini-batch
        # sweeps, where small batches make fixed overhead visible).
        indices = np.asarray(indices, dtype=np.int64)
        return shard_move_deltas(
            self.points[indices],
            self.point_sqnorm[indices],
            self.labels[indices],
            self.sums,
            self.sum_sqnorm,
            self._sizes_f,
            [
                (cat.spec.codes[indices], cat.p, cat.p2, cat.counts, cat.h, cat.norm)
                for cat in self._cat
            ],
            [(num.centered[indices], num.weight, num.d) for num in self._num],
            float(lambda_),
            self._n2,
        )

    def batch_move_deltas_cols(
        self, indices: np.ndarray, clusters: np.ndarray, lambda_: float
    ) -> np.ndarray:
        """Exact move deltas for *indices* × *clusters* only.

        The same quantity as the ``clusters`` columns of
        :meth:`batch_move_deltas`, in O(b·|clusters|) instead of O(b·k).
        This is the chunked sweep's repair primitive: applying one move
        (source → target) only perturbs those two clusters' statistics,
        so for every pending object still assigned elsewhere just these
        two columns of its frozen delta row need recomputing.

        Entries where a cluster equals the object's current cluster are
        0, mirroring :meth:`batch_move_deltas`.
        """
        indices = np.asarray(indices, dtype=np.int64)
        clusters = np.asarray(clusters, dtype=np.int64)
        xb = self.points[indices]  # (b, d)
        x2 = self.point_sqnorm[indices]  # (b,)
        cur = self.labels[indices]  # (b,)
        b = indices.shape[0]
        m = self._sizes_f

        sums_c = self.sums[clusters]  # (c, d)
        ssq_c = self.sum_sqnorm[clusters]  # (c,)
        m_c = m[clusters]  # (c,)
        dots = xb @ sums_c.T  # (b, c)
        delta_in = (
            x2[:, None]
            + (ssq_c / np.where(m_c > 0, m_c, 1.0))[None, :]
            - (ssq_c[None, :] + 2.0 * dots + x2[:, None]) / (m_c + 1.0)[None, :]
        )
        delta_in = np.where(m_c[None, :] > 0, delta_in, 0.0)

        m_cur = m[cur]
        dots_cur = np.einsum("ij,ij->i", xb, self.sums[cur])
        s2_minus = self.sum_sqnorm[cur] - 2.0 * dots_cur + x2
        delta_out = np.where(
            m_cur <= 1.0,
            0.0,
            -x2 - s2_minus / np.maximum(m_cur - 1.0, 1.0)
            + self.sum_sqnorm[cur] / np.maximum(m_cur, 1.0),
        )

        fair_in = np.zeros((b, clusters.shape[0]), dtype=np.float64)
        fair_out = np.zeros(b, dtype=np.float64)
        for cat in self._cat:
            j = cat.spec.codes[indices]  # (b,)
            p_j = cat.p[j]  # (b,)
            self_term = 1.0 - 2.0 * p_j + cat.p2  # (b,)
            # Single (c, b) gather; the naive counts[clusters][:, j] would
            # materialize an intermediate (c, v) copy first.
            gap = cat.counts[np.ix_(clusters, j)].T - m_c[None, :] * p_j[:, None] - (
                cat.h[clusters][None, :] - m_c[None, :] * cat.p2
            )
            fair_in += cat.norm * (2.0 * gap + self_term[:, None])
            gap_cur = (cat.counts[cur, j] - m_cur * p_j) - (cat.h[cur] - m_cur * cat.p2)
            fair_out += cat.norm * (-2.0 * gap_cur + self_term)
        for num in self._num:
            y = num.centered[indices]  # (b,)
            fair_in += num.weight * (
                y[:, None] * (2.0 * num.d[clusters][None, :] + y[:, None])
            )
            fair_out += num.weight * (-y * (2.0 * num.d[cur] - y))

        deltas = delta_in + delta_out[:, None]
        deltas += (lambda_ / self._n2) * (fair_in + fair_out[:, None])
        deltas[clusters[None, :] == cur[:, None]] = 0.0
        return deltas

    def apply_move(self, i: int, target: int) -> None:
        """Move object *i* to cluster *target*, updating all caches.

        Implements the paper's Steps 6–7 (prototype and fractional-
        representation updates, Eqs. 11/13/20/21) via the sufficient
        statistics.
        """
        cur = int(self.labels[i])
        if target == cur:
            return
        if not 0 <= target < self.k:
            raise ValueError(f"target cluster {target} out of range [0, {self.k})")
        x = self.points[i]
        x2 = float(self.point_sqnorm[i])
        m = self._sizes_f

        for cat in self._cat:
            j = int(cat.spec.codes[i])
            p_j = float(cat.p[j])
            self_term = 1.0 - 2.0 * p_j + cat.p2
            # Removal from cur (counts still include i).
            gap_cur = (cat.counts[cur, j] - m[cur] * p_j) - (cat.h[cur] - m[cur] * cat.p2)
            cat.f[cur] += -2.0 * gap_cur + self_term
            cat.h[cur] -= p_j
            cat.counts[cur, j] -= 1.0
            # Insertion into target (counts exclude i).
            gap_tgt = (cat.counts[target, j] - m[target] * p_j) - (
                cat.h[target] - m[target] * cat.p2
            )
            cat.f[target] += 2.0 * gap_tgt + self_term
            cat.h[target] += p_j
            cat.counts[target, j] += 1.0

        for num in self._num:
            y = float(num.centered[i])
            num.d[cur] -= y
            num.d[target] += y

        self.sums[cur] -= x
        self.sums[target] += x
        self.sq_total[cur] -= x2
        self.sq_total[target] += x2
        self.sum_sqnorm[cur] = float(self.sums[cur] @ self.sums[cur])
        self.sum_sqnorm[target] = float(self.sums[target] @ self.sums[target])
        self.sizes[cur] -= 1
        self.sizes[target] += 1
        # Keep the cached float view exact without a full astype pass.
        self._sizes_f[cur] -= 1.0
        self._sizes_f[target] += 1.0
        self.labels[i] = target
        self.mutations += 1

    # ------------------------------------------------------------------ #
    # Reporting helpers                                                   #
    # ------------------------------------------------------------------ #

    def fractional_representations(self) -> dict[str, np.ndarray]:
        """Fr_C(s) matrices per categorical attribute, shape (k, n_values).

        Rows of empty clusters are all-NaN.
        """
        out: dict[str, np.ndarray] = {}
        m = self._sizes_f
        for cat in self._cat:
            frac = np.full_like(cat.counts, np.nan)
            nonempty = m > 0
            frac[nonempty] = cat.counts[nonempty] / m[nonempty, None]
            out[cat.spec.name] = frac
        return out
