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

Stacked categorical layout. All A categorical attributes share one code
space of ΣV = Σ|V(S)| values: attribute a's value s is code
``offset_a + s``. The caches are ``codes (A, n)`` (the narrowest unsigned
dtype that holds ΣV), ``counts (ΣV, k)``, ``p (ΣV,)``, and per attribute
``p2, norm (A,)`` and ``h, f (A, k)``, so every kernel is a fixed number
of numpy calls whatever A is. Accumulation-order rule: each element is
computed by the same expression as the scalar per-attribute formula, and
the A terms are added in attribute order starting from 0.0 — by reducing
over the *leading* attribute axis (:func:`_attr_sum`), never by a
``.sum`` over a contiguous innermost axis, which numpy adds pairwise.
Scores are therefore bit-identical to one-attribute-at-a-time evaluation.

Kernels. The batch kernel :func:`shard_move_deltas` tabulates the
categorical terms once per call over the ΣV codes — a join table
``T[v, c] = (2·gap + self_v)·norm`` and a leave table
``U[v, c] = norm·(−2·gap + self_v)`` — and gathers them per row by code,
with the same elementwise expressions a per-row evaluation uses. Its
row-side inputs come gathered once in a :class:`RowBlock`, so a chunked
window's repairs score suffix views of it. The dense sweep's fused
:meth:`ClusterState.step` scores one row and, if it moves, applies the
``±2·gap + self`` f increments the scoring already formed — the values
:meth:`ClusterState.apply_move` computes for a move on its own.

Floating-point hygiene: thousands of incremental updates accumulate error,
so :meth:`ClusterState.resync` recomputes every cache from the raw label
vector and :meth:`ClusterState.consistency_error` exposes the drift for
tests. The optimizer rebuilds at the end of an outer iteration only when a
move has changed the state since the last rebuild
(:attr:`ClusterState.resynced_at`); the mini-batch sweep rebuilds through
:meth:`ClusterState.relabel` after every batch that moved rows. A rebuild
sums each column of the points per cluster from a column-major ``(d, n)``
copy of the points, one n·d float64 array that the first rebuild after
construction allocates. A state that never rebuilds after construction,
such as a multiprocess worker's, never holds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.utils import validate_labels
from .attributes import CategoricalSpec, NumericSpec, validate_specs


@dataclass
class _NumericState:
    """Caches for one numeric sensitive attribute."""

    spec: NumericSpec
    centered: np.ndarray  # (n,) values − dataset mean
    d: np.ndarray  # (k,) Σ_{x∈C} centered(x)
    weight: float


def _attr_sum(terms: np.ndarray) -> np.ndarray:
    """Σ over the leading attribute axis, in attribute order from 0.0.

    numpy reduces a leading axis slice by slice, the order of the
    per-attribute formulas, but sums a run of one-element slices
    pairwise; that case is padded to two columns first.
    """
    if terms.size == terms.shape[0] > 0:
        padded = np.concatenate([terms, np.zeros_like(terms)], axis=-1)
        return np.add.reduce(padded, axis=0)[..., :1]
    return np.add.reduce(terms, axis=0)


#: Scales of the join and leave tables of :func:`shard_move_deltas`.
_JOIN_LEAVE = np.array([2.0, -2.0]).reshape(2, 1, 1)


@dataclass(slots=True, eq=False)
class RowBlock:
    """The row-side inputs of :func:`shard_move_deltas`, gathered once.

    :meth:`ClusterState.gather` builds one for a set of rows; ``block[r:]``
    is the block of rows ``r:`` as views, so a chunked window gathered
    once serves its fresh scoring and every per-move repair of its
    pending suffix. The suffix rows' ``cur`` stays valid across moves
    because a move only relabels a row the scan has already passed.

    Attributes:
        index: the rows' object indices, shape ``(b,)``.
        xb: their points, shape ``(b, d)``.
        x2: their squared norms, shape ``(b,)``.
        cur: their current clusters, shape ``(b,)``.
        codes: their stacked categorical codes, shape ``(A, b)``.
        cur_at: ``codes·k + cur``, the flat index of each (code, current
            cluster) entry of a ``(ΣV, k)`` table, shape ``(A, b)``.
        ys: their centered numeric values, one row per numeric
            attribute, shape ``(N, b)``.
    """

    index: np.ndarray
    xb: np.ndarray
    x2: np.ndarray
    cur: np.ndarray
    codes: np.ndarray
    cur_at: np.ndarray
    ys: np.ndarray

    def __len__(self) -> int:
        return self.x2.shape[0]

    def __getitem__(self, rows: slice) -> RowBlock:
        return RowBlock(self.index[rows], self.xb[rows], self.x2[rows], self.cur[rows],
                        self.codes[:, rows], self.cur_at[:, rows], self.ys[:, rows])


def shard_move_deltas(
    block: RowBlock,
    sums: np.ndarray,
    sum_sqnorm: np.ndarray,
    sizes_f: np.ndarray,
    cats: tuple,
    nums: list[tuple[float, np.ndarray]],
    lambda_: float,
    n2: float,
) -> np.ndarray:
    """Pure-function core of :meth:`ClusterState.batch_move_deltas`.

    Every scoring path in the system — in process and in multiprocess
    workers — funnels through this one expression sequence
    so their float operation order is identical and a multiprocess fit
    stays bit for bit equal to a local one.

    The categorical terms depend on a row only through its codes, so
    they are tabulated once per call over the ΣV stacked codes (module
    docstring) and gathered per row: the join table
    ``T[v, c] = (2·gap + self_v)·norm`` and the leave table
    ``U[v, c] = norm·(−2·gap + self_v)``, with
    ``gap(v, c) = (counts[v, c] − m_c·p_v) − (h[a, c] − m_c·P2_a)``.

    Args:
        block: the rows to score (:meth:`ClusterState.gather`).
        sums: frozen per-cluster sums ``S``, shape ``(k, d)``.
        sum_sqnorm: frozen ``‖S_C‖²``, shape ``(k,)``.
        sizes_f: frozen cluster sizes as float64, shape ``(k,)``.
        cats: the stacked categorical attributes
            ``(p, p2, attr_of, self_v, norm_v, counts, h)``: ``attr_of``,
            ``self_v = 1 − 2·p + P2`` and ``norm_v`` are per code.
        nums: per numeric attribute, the tuple ``(weight, d)``; the
            rows' values are ``block.ys``.
        lambda_: fairness trade-off.
        n2: dataset ``n²`` as float (see :class:`ClusterState`).

    Returns:
        ``(b, k)`` matrix of objective deltas.
    """
    x2, cur = block.x2, block.cur
    rows = np.arange(x2.shape[0])
    m = sizes_f
    lo = np.minimum.reduce(m)
    ssq_cur = sum_sqnorm[cur]
    m_cur = m[cur]
    x2c = x2[:, None]
    # K-Means term, delta_in = x2 + ‖S‖²/m − (‖S‖² + 2·S·x + x2)/(m + 1),
    # built in the dots buffer. The masks only matter for an empty
    # cluster (m = 0) or a singleton current cluster (m ≤ 1); divisors
    # are clamped to >= 1, so no errstate guard is needed.
    q = block.xb @ sums.T  # (b, k)
    s2_minus = ssq_cur - 2.0 * q[rows, cur] + x2
    q *= 2.0
    q += sum_sqnorm
    q += x2c
    q /= m + 1.0
    deltas = x2c + sum_sqnorm / (m if lo > 0.0 else np.where(m > 0, m, 1.0))
    deltas -= q
    if lo <= 0.0:
        deltas[:, m == 0] = 0.0
    if lo > 1.0:
        delta_out = -x2 - s2_minus / (m_cur - 1.0) + ssq_cur / m_cur
    else:
        delta_out = np.where(
            m_cur <= 1.0,
            0.0,
            -x2 - s2_minus / np.maximum(m_cur - 1.0, 1.0) + ssq_cur / np.maximum(m_cur, 1.0),
        )
    deltas += delta_out[:, None]

    p, p2, attr_of, self_v, norm_v, counts, h = cats
    gap = counts - p[:, None] * m  # (ΣV, k)
    gap -= (h - m * p2[:, None]).take(attr_of, axis=0)
    join, leave = tables = gap * _JOIN_LEAVE  # (2, ΣV, k): 2·gap, −2·gap
    tables += self_v[:, None]
    tables *= norm_v[:, None]
    fair_in = _attr_sum(join.take(block.codes, axis=0))
    fair_out = _attr_sum(leave.take(block.cur_at))
    for y, (weight, d) in zip(block.ys, nums):
        fair_in += weight * (y[:, None] * (2.0 * d[None, :] + y[:, None]))
        fair_out += weight * (-y * (2.0 * d[cur] - y))

    fair_in += fair_out[:, None]
    fair_in *= lambda_ / n2
    deltas += fair_in
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
        #: Mutation counter: bumped by every apply_move, resync and
        #: install_scoring_stats; the engine compares it with
        #: ``resynced_at`` to skip a rebuild when nothing changed.
        self.mutations = 0
        #: ``mutations`` as the last resync left it: the caches are
        #: fresh while the two are equal.
        self.resynced_at = 0
        # Column-major copy of the points for resync, built by the first
        # rebuild after construction (see the module docstring).
        self._columns: np.ndarray | None = None

        # Allocated once; filled by resync().
        self.sizes = np.zeros(self.k, dtype=np.int64)
        self.sums = np.zeros((self.k, self.dim), dtype=np.float64)
        self.sum_sqnorm = np.zeros(self.k, dtype=np.float64)  # ‖S_C‖²
        self.sq_total = np.zeros(self.k, dtype=np.float64)  # Q_C = Σ ‖x‖²
        # Stacked categorical attributes (see the module docstring).
        cats = self.categorical_specs
        dists = [spec.dataset_distribution for spec in cats]
        sizes = [spec.n_values for spec in cats]
        offsets = np.cumsum([0, *sizes])
        self._segments = [slice(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])]
        self._codes = np.empty((len(cats), self.n), dtype=np.min_scalar_type(offsets[-1]))
        for a, spec in enumerate(cats):
            np.add(spec.codes, offsets[a], out=self._codes[a], casting="unsafe")
        self._p = np.concatenate([np.zeros(0), *dists])
        self._p2 = np.array([float(np.sum(p * p)) for p in dists])
        self._norm = np.array([spec.weight / spec.n_values for spec in cats])
        # counts (ΣV, k), h (A, k) and f (A, k) are views of one flat cache.
        v, a, k = int(offsets[-1]), len(cats), self.k
        self._cache = np.zeros((v + 2 * a) * k)
        self._counts = self._cache[: v * k].reshape(v, k)
        self._h = self._cache[v * k : (v + a) * k].reshape(a, k)
        self._f = self._cache[(v + a) * k :].reshape(a, k)
        # Per-code constants of the scoring kernels: attribute index,
        # the self term 1 − 2·p_v + P2_a and the weight w_a/|V_a|.
        self._attr_of = np.repeat(np.arange(a), sizes)
        self._self_v = 1.0 - 2.0 * self._p + np.repeat(self._p2, sizes)
        self._norm_v = np.repeat(self._norm, sizes)
        # A move updates 2A slots, (leave cur, join target) × attribute,
        # in flat 1-D arrays: row 0 of _slots is set per move to the codes'
        # counts rows, rows 1-2 are the h and f rows; p_j and the self term
        # are looked up per counts entry; _steps[0] are signs.
        self._rows = np.arange(v) * k
        self._slots = np.zeros((3, 2 * a), dtype=np.intp)
        self._slots[1:] = np.tile(k * (v + np.arange(2 * a).reshape(2, a)), 2)
        self._slot_cluster = np.zeros(2 * a, dtype=np.intp)
        self._slot_p2 = np.tile(self._p2, 2)
        self._entry = np.repeat([self._p, self._self_v], k, 1)
        self._steps = np.empty((3, 2 * a))
        self._steps[0] = np.repeat([-1.0, 1.0], a)
        # Centered numeric values, one row per attribute (n_num, n).
        self._centered = np.array(
            [spec.values - spec.dataset_mean for spec in self.numeric_specs], dtype=np.float64
        ).reshape(-1, self.n)
        self._num = [
            _NumericState(spec=spec, centered=centered, d=np.zeros(self.k), weight=spec.weight)
            for spec, centered in zip(self.numeric_specs, self._centered)
        ]
        self.resync()

    # ------------------------------------------------------------------ #
    # Cache (re)construction                                              #
    # ------------------------------------------------------------------ #

    def resync(self) -> None:
        """Recompute every cache from ``self.labels`` (clears float drift)."""
        if self.mutations and self._columns is None:  # not the constructor's fill
            self._columns = np.ascontiguousarray(self.points.T)
        columns = self.points.T if self._columns is None else self._columns
        self.mutations += 1
        labels, k = self.labels, self.k
        # bincount adds each bin's terms in index order, exactly as
        # np.add.at would, so the sums are bit-identical to an
        # object-by-object accumulation. A strided column of the C-order
        # points is copied by bincount on every call; the rows of the
        # (d, n) copy are read in place. Only that one n·d copy is kept:
        # the temporaries stay O(n).
        self.sizes = np.bincount(labels, minlength=k)
        for j in range(self.dim):
            self.sums[:, j] = np.bincount(labels, weights=columns[j], minlength=k)
        self.sum_sqnorm = np.einsum("ij,ij->i", self.sums, self.sums)
        self.sq_total[:] = np.bincount(labels, weights=self.point_sqnorm, minlength=k)
        # Cached float view of sizes; kept exact by the incremental ±1
        # updates in apply_move (small integers are exact in float64).
        self._sizes_f = self.sizes.astype(np.float64)
        m = self._sizes_f
        v = self._p.shape[0]
        # Keys for max(n, 2¹⁶)/A rows at a time keep the temporaries O(n),
        # as one attribute at a time did; integer counts add exactly.
        step = max(self.n, 1 << 16) // max(len(self._segments), 1)
        counts = sum(
            np.bincount((labels[lo : lo + step] * v + self._codes[:, lo : lo + step]).ravel(),
                        minlength=k * v)
            for lo in range(0, self.n, step)
        ).reshape(k, v).astype(np.float64)
        resid = counts - m[:, None] * self._p[None, :]
        # einsum's and BLAS's accumulation order depends on the vector
        # length, so f and h reduce each attribute's own (k, |V|) block:
        # the only way they stay bit-identical to per-attribute caches.
        self._f[...] = np.array(
            [np.einsum("ij,ij->i", resid[:, s], resid[:, s]) for s in self._segments]
        ).reshape(-1, k)
        self._h[...] = np.array([counts[:, s] @ self._p[s] for s in self._segments]).reshape(-1, k)
        self._counts[...] = counts.T
        for num in self._num:
            num.d[:] = np.bincount(labels, weights=num.centered, minlength=k)
        self.resynced_at = self.mutations

    def relabel(self, rows: np.ndarray, targets: np.ndarray) -> None:
        """Move objects *rows* to clusters *targets* at once, then resync."""
        self.labels[rows] = targets
        self.resync()

    def export_scoring_stats(self) -> dict[str, object]:
        """Everything :meth:`batch_move_deltas` reads besides the data.

        Returns the live per-cluster sufficient statistics — the arrays
        a backend worker must install next to its own copy of the static
        data (points + attribute specs) to reproduce this state's
        scoring bit for bit. The values are *live views*, frozen only
        by the no-mutation-during-scoring protocol; callers shipping
        them across a process boundary get copies from serialization.
        """
        return {
            "sums": self.sums,
            "sum_sqnorm": self.sum_sqnorm,
            "sizes_f": self._sizes_f,
            "counts": self._counts,
            "h": self._h,
            "num_d": [num.d for num in self._num],
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
        self._counts[...] = stats["counts"]  # views of the flat cache: fill in place
        self._h[...] = stats["h"]
        for num, d in zip(self._num, stats["num_d"]):
            num.d = np.ascontiguousarray(d, dtype=np.float64)
        self.mutations += 1

    def consistency_error(self) -> float:
        """Max absolute difference between live caches and a fresh rebuild."""
        snapshot = ClusterState(
            self.points, self.labels, self.k, self.categorical_specs, self.numeric_specs
        )
        names = ("sums", "sum_sqnorm", "sq_total", "sizes", "_counts", "_f", "_h")
        pairs = [(getattr(self, name), getattr(snapshot, name)) for name in names]
        pairs += [(mine.d, theirs.d) for mine, theirs in zip(self._num, snapshot._num)]
        return max(float(np.max(np.abs(mine - theirs), initial=0.0)) for mine, theirs in pairs)

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
        total = float(_attr_sum((self._norm * self._f.sum(axis=1))[:, None])[0])
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

    def _row_deltas(self, i: int, lambda_: float):
        """Eq. 10 for object *i* against every cluster, with its parts.

        Returns ``(deltas, cur, j, incs)``: the length-k deltas, i's
        current cluster, its stacked codes ``j (A,)`` and the
        ``(A, k + 1)`` f increments a move applies:
        column c < k is joining c, ``2·gap + self``, column k is leaving
        cur, ``−2·gap[:, cur] + self``.
        """
        cur = int(self.labels[i])
        x = self.points[i]
        x2 = float(self.point_sqnorm[i])
        m = self._sizes_f
        nonempty = np.minimum.reduce(m) > 0.0

        # --- K-Means term ------------------------------------------------
        dots = self.sums @ x  # S_C · x for every C
        # Divisors are clamped to >= 1, so no errstate guard is needed;
        # the masks only matter when a cluster is empty.
        deltas = x2 + self.sum_sqnorm / (m if nonempty else np.where(m > 0, m, 1.0)) - (
            self.sum_sqnorm + 2.0 * dots + x2
        ) / (m + 1.0)
        if not nonempty:
            deltas[m == 0] = 0.0

        m_cur = float(m[cur])
        if m_cur > 1.0:
            s2_minus = self.sum_sqnorm[cur] - 2.0 * dots[cur] + x2
            deltas += -x2 - s2_minus / (m_cur - 1.0) + self.sum_sqnorm[cur] / m_cur

        # --- Fairness term -----------------------------------------------
        j = self._codes[:, i]
        p_j = self._p[j]
        gap = (self._counts[j] - m * p_j[:, None]) - (self._h - m * self._p2[:, None])
        incs = np.empty((j.shape[0], self.k + 1))
        np.multiply(gap, 2.0, out=incs[:, :-1])
        np.multiply(gap[:, cur], -2.0, out=incs[:, -1])
        incs += self._self_v[j][:, None]
        fair = _attr_sum(incs * self._norm[:, None])
        fair_in, fair_out = fair[:-1], float(fair[-1])
        for num in self._num:
            y = float(num.centered[i])
            fair_in += num.weight * (y * (2.0 * num.d + y))
            fair_out += num.weight * (-y * (2.0 * float(num.d[cur]) - y))
        deltas += (lambda_ / self._n2) * (fair_in + fair_out)

        deltas[cur] = 0.0
        return deltas, cur, j, incs

    def move_deltas(self, i: int, lambda_: float) -> np.ndarray:
        """Objective change for moving object *i* to each cluster.

        Returns a length-k vector whose entry c is
        ``O(labels with i→c) − O(labels)``; the entry for i's current
        cluster is exactly 0. This is Eq. 10 evaluated for all candidate
        clusters at once.
        """
        return self._row_deltas(i, lambda_)[0]

    def step(self, i: int, lambda_: float, tol: float) -> bool:
        """One visit of the round robin: score *i*, move it if that pays.

        :meth:`move_deltas` and :meth:`apply_move` fused: *i* moves to
        the first cluster of least delta when that delta is below
        ``−tol``, and the move reuses the scoring's codes and f
        increments. Returns whether *i* moved.
        """
        deltas, cur, j, incs = self._row_deltas(i, lambda_)
        target = int(deltas.argmin())
        if target == cur or not deltas[target] < -tol:
            return False
        self._commit(i, cur, target, j, incs)
        return True

    def gather(self, indices: np.ndarray) -> RowBlock:
        """The rows' inputs to :func:`shard_move_deltas` (see :class:`RowBlock`)."""
        indices = np.asarray(indices, dtype=np.int64)
        codes = self._codes.take(indices, axis=1)
        cur = self.labels[indices]
        cur_at = np.multiply(codes, self.k, dtype=np.intp)
        cur_at += cur
        return RowBlock(indices, self.points[indices], self.point_sqnorm[indices], cur,
                        codes, cur_at, self._centered.take(indices, axis=1))

    def batch_move_deltas(self, indices: np.ndarray | RowBlock, lambda_: float) -> np.ndarray:
        """Vectorized :meth:`move_deltas` for many objects at once.

        Returns a ``(len(indices), k)`` matrix of objective deltas, each
        row evaluated against the *current frozen* statistics — i.e., the
        rows do not see each other's hypothetical moves. This is the
        computational primitive of the mini-batch extension (§6.1): within
        a batch, decisions are made against a stale snapshot and applied
        together. *indices* is an index array or a :class:`RowBlock`
        already gathered by :meth:`gather`.
        """
        block = indices if isinstance(indices, RowBlock) else self.gather(indices)
        return shard_move_deltas(
            block,
            self.sums,
            self.sum_sqnorm,
            self._sizes_f,
            (self._p, self._p2, self._attr_of, self._self_v, self._norm_v,
             self._counts, self._h),
            [(num.weight, num.d) for num in self._num],
            float(lambda_),
            self._n2,
        )

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
        self._commit(i, cur, target, self._codes[:, i], None)

    def _commit(
        self, i: int, cur: int, target: int, j: np.ndarray, incs: np.ndarray | None
    ) -> None:
        """Update every cache for *i*, with codes *j*, moving cur → target.

        Removal from cur (counts still include i) and insertion into
        target (counts exclude i) touch disjoint entries of the flat
        cache, so both go at once as columns (cur, target);
        ``x + (−1)·y`` is ``x − y``. The f increments ``∓2·gap + self``
        are taken from *incs*, the ``(A, k + 1)`` matrix of
        :meth:`_row_deltas`, or without it computed from the two
        columns' gathered entries by the same expressions.
        """
        a = j.shape[0]
        slots, clusters, steps = self._slots, self._slot_cluster, self._steps
        slots[0, :a] = slots[0, a:] = self._rows[j]
        clusters[:a], clusters[a:] = cur, target
        at = slots + clusters  # flat counts, h, f entries: (3, 2A)
        old = self._cache[at]
        p_j = self._entry[0][at[0]]
        np.multiply(steps[0], p_j, out=steps[1])  # [±1, ±p_j, f increment]
        if incs is None:
            m_at = self._sizes_f[clusters]
            gap = (old[0] - m_at * p_j) - (old[1] - m_at * self._slot_p2)
            np.multiply(steps[0], gap, out=steps[2])
            steps[2] *= 2.0
            steps[2] += self._entry[1][at[0]]
        else:
            steps[2, :a] = incs[:, -1]
            steps[2, a:] = incs[:, target]
        old += steps
        self._cache[at] = old
        x = self.points[i]
        x2 = float(self.point_sqnorm[i])

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
        nonempty = m > 0
        for spec, s in zip(self.categorical_specs, self._segments):
            frac = np.full((self.k, spec.n_values), np.nan)
            frac[nonempty] = self._counts[s].T[nonempty] / m[nonempty, None]
            out[spec.name] = frac
        return out
