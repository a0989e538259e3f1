"""Tests for the incremental ClusterState engine.

The load-bearing guarantee: ``move_deltas`` must equal the brute-force
objective difference for every candidate move, and caches must never drift
from a from-scratch rebuild. Both are exercised under hypothesis-driven
random move sequences.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import CategoricalSpec, FairKM, NumericSpec
from repro.core.objective import fairkm_objective, fairness_term, kmeans_term
from repro.core.state import ClusterState
from tests.conftest import random_specs


def build_state(seed: int, n: int = 24, k: int = 3, dim: int = 3) -> tuple[ClusterState, float]:
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dim))
    cats, nums = random_specs(rng, n)
    labels = rng.integers(0, k, n)
    lam = float(rng.uniform(0.0, 50.0))
    return ClusterState(points, labels, k, cats, nums), lam


def test_initial_terms_match_direct():
    state, _ = build_state(0)
    assert state.kmeans_term() == pytest.approx(
        kmeans_term(state.points, state.labels, state.k), rel=1e-9
    )
    assert state.fairness_term() == pytest.approx(
        fairness_term(state.categorical_specs, state.numeric_specs, state.labels, state.k),
        rel=1e-9,
        abs=1e-12,
    )


def test_objective_combines_terms():
    state, lam = build_state(1)
    assert state.objective(lam) == pytest.approx(
        state.kmeans_term() + lam * state.fairness_term()
    )


def test_move_delta_current_cluster_zero():
    state, lam = build_state(2)
    for i in range(state.n):
        deltas = state.move_deltas(i, lam)
        assert deltas[state.labels[i]] == 0.0


def test_move_deltas_match_bruteforce():
    state, lam = build_state(3)
    for i in range(state.n):
        before = fairkm_objective(
            state.points,
            state.categorical_specs,
            state.numeric_specs,
            state.labels,
            state.k,
            lam,
        )
        deltas = state.move_deltas(i, lam)
        for target in range(state.k):
            trial = state.labels.copy()
            trial[i] = target
            after = fairkm_objective(
                state.points,
                state.categorical_specs,
                state.numeric_specs,
                trial,
                state.k,
                lam,
            )
            assert deltas[target] == pytest.approx(after - before, rel=1e-7, abs=1e-8)


def test_apply_move_updates_labels_and_sizes():
    state, _ = build_state(4)
    i = 0
    old = int(state.labels[i])
    target = (old + 1) % state.k
    old_sizes = state.sizes.copy()
    state.apply_move(i, target)
    assert state.labels[i] == target
    assert state.sizes[old] == old_sizes[old] - 1
    assert state.sizes[target] == old_sizes[target] + 1


def test_apply_move_to_same_cluster_is_noop():
    state, _ = build_state(5)
    before = state.labels.copy()
    state.apply_move(0, int(state.labels[0]))
    np.testing.assert_array_equal(state.labels, before)


def test_apply_move_validates_target():
    state, _ = build_state(6)
    with pytest.raises(ValueError, match="out of range"):
        state.apply_move(0, 99)


@given(st.integers(0, 10_000), st.integers(10, 40), st.integers(2, 5))
@settings(max_examples=30, deadline=None)
def test_random_move_sequences_keep_caches_exact(seed, n, k):
    """After any sequence of moves, caches equal a fresh rebuild and the
    incremental objective equals the direct objective."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, 3))
    cats, nums = random_specs(rng, n)
    labels = rng.integers(0, k, n)
    lam = float(rng.uniform(0.0, 100.0))
    state = ClusterState(points, labels, k, cats, nums)
    for _ in range(30):
        i = int(rng.integers(0, n))
        target = int(rng.integers(0, k))
        predicted = state.move_deltas(i, lam)[target]
        before = state.objective(lam)
        state.apply_move(i, target)
        after = state.objective(lam)
        assert after - before == pytest.approx(predicted, rel=1e-6, abs=1e-7)
    assert state.consistency_error() < 1e-7
    direct = fairkm_objective(points, cats, nums, state.labels, k, lam)
    assert state.objective(lam) == pytest.approx(direct, rel=1e-7, abs=1e-8)


@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_cache_drift_stays_bounded_over_long_runs_without_resync(offset):
    """20,000 incremental moves and no resync (the ``resync_every=0``
    regime): every cache stays within 1e-9 of its own largest magnitude
    of a fresh rebuild, also for points far from the origin, where the
    squared-norm caches are large."""
    rng = np.random.default_rng(0)
    n, k, moves = 500, 8, 20_000
    points = rng.normal(size=(n, 3)) + offset
    cats = [CategoricalSpec("c", rng.integers(0, 4, n), n_values=4)]
    nums = [NumericSpec("z", rng.normal(size=n))]
    state = ClusterState(points, rng.integers(0, k, n), k, cats, nums)
    for i, target in zip(rng.integers(0, n, moves).tolist(), rng.integers(0, k, moves).tolist()):
        state.apply_move(i, target)
    fresh = ClusterState(points, state.labels, k, cats, nums)
    names = ("sums", "sum_sqnorm", "sq_total", "sizes", "_counts", "_f", "_h")
    pairs = [(name, getattr(state, name), getattr(fresh, name)) for name in names]
    pairs += [("d", mine.d, theirs.d) for mine, theirs in zip(state._num, fresh._num)]
    for name, live, rebuilt in pairs:
        scale = float(np.max(np.abs(rebuilt)))
        assert float(np.max(np.abs(live - rebuilt))) <= 1e-9 * scale, name


def test_batch_move_deltas_match_single(rng):
    state, lam = build_state(7, n=30, k=4)
    indices = np.arange(state.n)
    batch = state.batch_move_deltas(indices, lam)
    for i in range(state.n):
        np.testing.assert_allclose(batch[i], state.move_deltas(i, lam), atol=1e-9)


def test_emptying_a_cluster_is_consistent():
    rng = np.random.default_rng(8)
    points = rng.normal(size=(6, 2))
    cats = [CategoricalSpec("c", np.array([0, 1, 0, 1, 0, 1]))]
    labels = np.array([0, 0, 0, 0, 0, 1])
    state = ClusterState(points, labels, 2, cats, [])
    lam = 5.0
    predicted = state.move_deltas(5, lam)[0]
    before = state.objective(lam)
    state.apply_move(5, 0)  # cluster 1 becomes empty
    assert state.sizes[1] == 0
    assert state.objective(lam) - before == pytest.approx(predicted, abs=1e-9)
    assert state.consistency_error() < 1e-9
    # And it can be repopulated.
    state.apply_move(0, 1)
    assert state.consistency_error() < 1e-9


def test_resync_clears_drift():
    state, lam = build_state(9, n=50)
    rng = np.random.default_rng(9)
    for _ in range(200):
        state.apply_move(int(rng.integers(0, state.n)), int(rng.integers(0, state.k)))
    state.resync()
    assert state.consistency_error() == 0.0


def _add_at_rebuild(state: ClusterState) -> dict[str, object]:
    """Oracle: every additive cache accumulated object by object."""
    labels, k = state.labels, state.k
    sums = np.zeros((k, state.dim))
    np.add.at(sums, labels, state.points)
    sq_total = np.zeros(k)
    np.add.at(sq_total, labels, state.point_sqnorm)
    counts = []
    for spec in state.categorical_specs:
        c = np.zeros((k, spec.n_values))
        np.add.at(c, (labels, spec.codes), 1.0)
        counts.append(c)
    d = []
    for spec in state.numeric_specs:
        dd = np.zeros(k)
        np.add.at(dd, labels, spec.values - spec.dataset_mean)
        d.append(dd)
    return {"sums": sums, "sq_total": sq_total, "cat_counts": counts, "num_d": d}


@given(st.integers(0, 10_000), st.integers(1, 60), st.integers(1, 12), st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_resync_equals_add_at_rebuild_bitwise(seed, n, k, dim):
    """resync's bincount caches equal an np.add.at rebuild exactly, with
    empty clusters and single-valued attributes in play."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dim)) * rng.uniform(0.1, 1e3)
    cats, nums = random_specs(rng, n)
    cats.append(CategoricalSpec("single", np.zeros(n, dtype=int)))
    cats.append(CategoricalSpec("unseen", np.full(n, 2), n_values=4))
    nums.append(NumericSpec("flat", np.full(n, 3.5)))
    # Labels drawn from a subset of the clusters, so some stay empty.
    labels = rng.integers(0, max(1, k - 2), n)
    state = ClusterState(points, labels, k, cats, nums)
    for _ in range(10):
        state.apply_move(int(rng.integers(0, n)), int(rng.integers(0, k)))
    state.resync()
    oracle = _add_at_rebuild(state)
    stats = state.export_scoring_stats()
    assert np.array_equal(state.sizes, np.bincount(state.labels, minlength=k))
    assert np.array_equal(stats["sums"], oracle["sums"])
    sum_sqnorm = np.einsum("ij,ij->i", oracle["sums"], oracle["sums"])
    assert np.array_equal(stats["sum_sqnorm"], sum_sqnorm)
    assert np.array_equal(state.sq_total, oracle["sq_total"])
    assert np.array_equal(stats["counts"], np.concatenate([c.T for c in oracle["cat_counts"]]))
    for mine, theirs in zip(stats["num_d"], oracle["num_d"]):
        assert np.array_equal(mine, theirs)
    assert state.consistency_error() == 0.0


def test_relabel_equals_label_write_and_resync():
    """relabel is the batch scatter plus one rebuild, and leaves the
    caches fresh; a move makes them stale until the next rebuild."""
    state, _ = build_state(4, n=40)
    twin, _ = build_state(4, n=40)
    assert state.resynced_at == state.mutations
    rows, targets = np.array([3, 9, 17]), np.array([2, 0, 1])
    state.relabel(rows, targets)
    twin.labels[rows] = targets
    twin.resync()
    assert state.resynced_at == state.mutations
    assert np.array_equal(state.labels, twin.labels)
    assert np.array_equal(state.sums, twin.sums)
    assert np.array_equal(state.export_scoring_stats()["counts"],
                          twin.export_scoring_stats()["counts"])
    assert state.consistency_error() == 0.0
    state.apply_move(5, (int(state.labels[5]) + 1) % state.k)
    assert state.resynced_at != state.mutations


@pytest.mark.parametrize("engine", ["chunked", "sequential"])
def test_exact_fit_rebuilds_after_every_sweep_that_moved(monkeypatch, engine):
    """One rebuild at construction, one per sweep that moved rows; the
    converged sweep moved nothing and its caches are not rebuilt."""
    rng = np.random.default_rng(21)
    n = 300
    points = rng.normal(size=(n, 4))
    cats, nums = random_specs(rng, n)
    calls: list[int] = []
    resync = ClusterState.resync

    def counting(self):
        calls.append(self.mutations)
        resync(self)

    monkeypatch.setattr(ClusterState, "resync", counting)
    res = FairKM(4, seed=3, engine=engine, max_iter=50).fit(
        points, categorical=cats, numeric=nums
    )
    assert res.converged and res.moves_per_iter[-1] == 0
    assert len(calls) == 1 + sum(moves > 0 for moves in res.moves_per_iter)


def test_centroids_global_mean_for_empty():
    rng = np.random.default_rng(10)
    points = rng.normal(size=(5, 2))
    cats = [CategoricalSpec("c", np.zeros(5, dtype=int), n_values=2)]
    state = ClusterState(points, np.zeros(5, dtype=int), 3, cats, [])
    centers = state.centroids()
    np.testing.assert_allclose(centers[1], points.mean(axis=0))
    np.testing.assert_allclose(centers[2], points.mean(axis=0))


def test_fractional_representations():
    points = np.zeros((4, 2))
    cats = [CategoricalSpec("c", np.array([0, 0, 1, 1]), n_values=2)]
    state = ClusterState(points, np.array([0, 0, 1, 1]), 2, cats, [])
    frac = state.fractional_representations()["c"]
    np.testing.assert_allclose(frac[0], [1.0, 0.0])
    np.testing.assert_allclose(frac[1], [0.0, 1.0])


def test_numeric_only_state():
    rng = np.random.default_rng(11)
    points = rng.normal(size=(20, 2))
    nums = [NumericSpec("age", rng.normal(40, 5, 20))]
    labels = rng.integers(0, 2, 20)
    state = ClusterState(points, labels, 2, [], nums)
    direct = fairness_term([], nums, labels, 2)
    assert state.fairness_term() == pytest.approx(direct, rel=1e-9, abs=1e-12)


def test_rejects_mismatched_spec_length():
    with pytest.raises(ValueError, match="entries, expected"):
        ClusterState(
            np.zeros((5, 2)),
            np.zeros(5, dtype=int),
            2,
            [CategoricalSpec("c", np.zeros(4, dtype=int), n_values=2)],
            [],
        )


def test_rejects_duplicate_spec_names():
    with pytest.raises(ValueError, match="duplicate"):
        ClusterState(
            np.zeros((4, 2)),
            np.zeros(4, dtype=int),
            2,
            [
                CategoricalSpec("c", np.zeros(4, dtype=int), n_values=2),
                CategoricalSpec("c", np.ones(4, dtype=int), n_values=2),
            ],
            [],
        )


class _PerAttributeOracle:
    """The per-attribute caches and move-delta formulas, one attribute at
    a time, as they stood before the attributes were stacked into one code
    space. An independent reference for the stacked kernels: every
    engine-vs-engine bit-identity battery changes together with them.
    """

    def __init__(self, state: ClusterState) -> None:
        self.points, self.x2, self.k, self.n2 = state.points, state.point_sqnorm, state.k, state._n2
        self.labels = state.labels.copy()
        self.cats = [
            {"codes": s.codes, "p": s.dataset_distribution, "norm": s.weight / s.n_values}
            for s in state.categorical_specs
        ]
        for cat in self.cats:
            cat["p2"] = float(np.sum(cat["p"] * cat["p"]))
        self.nums = [
            {"y": s.values - s.dataset_mean, "weight": s.weight} for s in state.numeric_specs
        ]
        self.resync()

    def resync(self) -> None:
        labels, k = self.labels, self.k
        self.sizes_f = np.bincount(labels, minlength=k).astype(np.float64)
        self.sums = np.stack(
            [np.bincount(labels, weights=col, minlength=k) for col in self.points.T], axis=1
        )
        self.sum_sqnorm = np.einsum("ij,ij->i", self.sums, self.sums)
        for cat in self.cats:
            v = cat["p"].shape[0]
            cat["counts"] = np.bincount(labels * v + cat["codes"], minlength=k * v).reshape(k, v)
            cat["counts"] = cat["counts"].astype(np.float64)
            resid = cat["counts"] - self.sizes_f[:, None] * cat["p"][None, :]
            cat["f"] = np.einsum("ij,ij->i", resid, resid)
            cat["h"] = cat["counts"] @ cat["p"]
        for num in self.nums:
            num["d"] = np.bincount(labels, weights=num["y"], minlength=k)

    def move_deltas(self, i: int, lam: float) -> np.ndarray:
        cur, x, x2, m = int(self.labels[i]), self.points[i], float(self.x2[i]), self.sizes_f
        dots = self.sums @ x
        with np.errstate(divide="ignore", invalid="ignore"):
            delta_in = x2 + self.sum_sqnorm / np.where(m > 0, m, 1.0) - (
                self.sum_sqnorm + 2.0 * dots + x2
            ) / (m + 1.0)
        delta_in = np.where(m > 0, delta_in, 0.0)
        m_cur = float(m[cur])
        delta_out = 0.0
        if m_cur > 1.0:
            s2_minus = self.sum_sqnorm[cur] - 2.0 * dots[cur] + x2
            delta_out = -x2 - s2_minus / (m_cur - 1.0) + self.sum_sqnorm[cur] / m_cur
        deltas = delta_in + delta_out
        fair_in, fair_out = np.zeros(self.k), 0.0
        for cat in self.cats:
            j = int(cat["codes"][i])
            p_j = float(cat["p"][j])
            self_term = 1.0 - 2.0 * p_j + cat["p2"]
            gap = (cat["counts"][:, j] - m * p_j) - (cat["h"] - m * cat["p2"])
            fair_in += cat["norm"] * (2.0 * gap + self_term)
            fair_out += cat["norm"] * (-2.0 * float(gap[cur]) + self_term)
        for num in self.nums:
            y = float(num["y"][i])
            fair_in += num["weight"] * (y * (2.0 * num["d"] + y))
            fair_out += num["weight"] * (-y * (2.0 * float(num["d"][cur]) - y))
        deltas += (lam / self.n2) * (fair_in + fair_out)
        deltas[cur] = 0.0
        return deltas

    def batch_move_deltas(self, indices: np.ndarray, lam: float) -> np.ndarray:
        """The b×k shard kernel."""
        xb, x2, cur, m = self.points[indices], self.x2[indices], self.labels[indices], self.sizes_f
        b, rows = indices.shape[0], np.arange(indices.shape[0])
        ssq = self.sum_sqnorm
        dots = xb @ self.sums.T
        delta_in = (
            x2[:, None]
            + (ssq / np.where(m > 0, m, 1.0))[None, :]
            - (ssq[None, :] + 2.0 * dots + x2[:, None]) / (m + 1.0)[None, :]
        )
        delta_in = np.where(m[None, :] > 0, delta_in, 0.0)
        m_cur = m[cur]
        s2_minus = self.sum_sqnorm[cur] - 2.0 * dots[rows, cur] + x2
        delta_out = np.where(
            m_cur <= 1.0,
            0.0,
            -x2 - s2_minus / np.maximum(m_cur - 1.0, 1.0)
            + self.sum_sqnorm[cur] / np.maximum(m_cur, 1.0),
        )
        fair_in, fair_out = np.zeros((b, self.k)), np.zeros(b)
        for cat in self.cats:
            j = cat["codes"][indices]
            p_j = cat["p"][j]
            self_term = 1.0 - 2.0 * p_j + cat["p2"]
            gap = cat["counts"][:, j].T - m[None, :] * p_j[:, None] - (
                cat["h"][None, :] - m[None, :] * cat["p2"]
            )
            fair_in += cat["norm"] * (2.0 * gap + self_term[:, None])
            gap_cur = (cat["counts"][cur, j] - m_cur * p_j) - (cat["h"][cur] - m_cur * cat["p2"])
            fair_out += cat["norm"] * (-2.0 * gap_cur + self_term)
        for num in self.nums:
            y = num["y"][indices]
            fair_in += num["weight"] * (y[:, None] * (2.0 * num["d"][None, :] + y[:, None]))
            fair_out += num["weight"] * (-y * (2.0 * num["d"][cur] - y))
        deltas = delta_in + delta_out[:, None]
        deltas += (lam / self.n2) * (fair_in + fair_out[:, None])
        deltas[rows, cur] = 0.0
        return deltas

    def apply_move(self, i: int, target: int) -> None:
        cur = int(self.labels[i])
        if target == cur:
            return
        m = self.sizes_f
        for cat in self.cats:
            j = int(cat["codes"][i])
            p_j = float(cat["p"][j])
            self_term = 1.0 - 2.0 * p_j + cat["p2"]
            gap_cur = (cat["counts"][cur, j] - m[cur] * p_j) - (cat["h"][cur] - m[cur] * cat["p2"])
            cat["f"][cur] += -2.0 * gap_cur + self_term
            cat["h"][cur] -= p_j
            cat["counts"][cur, j] -= 1.0
            gap_tgt = (cat["counts"][target, j] - m[target] * p_j) - (
                cat["h"][target] - m[target] * cat["p2"]
            )
            cat["f"][target] += 2.0 * gap_tgt + self_term
            cat["h"][target] += p_j
            cat["counts"][target, j] += 1.0
        for num in self.nums:
            y = float(num["y"][i])
            num["d"][cur] -= y
            num["d"][target] += y
        x = self.points[i]
        self.sums[cur] -= x
        self.sums[target] += x
        self.sum_sqnorm[cur] = float(self.sums[cur] @ self.sums[cur])
        self.sum_sqnorm[target] = float(self.sums[target] @ self.sums[target])
        m[cur] -= 1.0
        m[target] += 1.0
        self.labels[i] = target

    def fairness_term(self) -> float:
        total = 0.0
        for cat in self.cats:
            total += cat["norm"] * float(cat["f"].sum())
        for num in self.nums:
            total += num["weight"] * float(np.sum(num["d"] * num["d"]))
        return (1.0 / self.n2) * total


def _assert_caches_equal(state: ClusterState, oracle: _PerAttributeOracle) -> None:
    k, stats = state.k, state.export_scoring_stats()
    cats = oracle.cats
    stacked = np.concatenate([np.zeros((0, k))] + [c["counts"].T for c in cats])
    assert np.array_equal(stats["counts"], stacked)
    assert np.array_equal(stats["h"], np.array([c["h"] for c in cats]).reshape(-1, k))
    assert np.array_equal(state._f, np.array([c["f"] for c in cats]).reshape(-1, k))
    for mine, theirs in zip(stats["num_d"], oracle.nums):
        assert np.array_equal(mine, theirs["d"])
    assert np.array_equal(stats["sums"], oracle.sums)
    assert np.array_equal(stats["sum_sqnorm"], oracle.sum_sqnorm)
    assert np.array_equal(stats["sizes_f"], oracle.sizes_f)
    assert state.fairness_term() == oracle.fairness_term()


_KINDS = st.sampled_from(["plain", "unobserved", "single", "weight0"])


def _oracle_problem(rng: np.random.Generator, n: int, kinds: list[str], n_num: int):
    cats = []
    for a, kind in enumerate(kinds):
        v = int(rng.integers(2, 7))
        codes = rng.integers(0, v, n)
        if kind == "unobserved":  # a declared value no object takes
            cats.append(CategoricalSpec(f"c{a}", codes, n_values=v + 1))
        elif kind == "single":
            cats.append(CategoricalSpec(f"c{a}", np.zeros(n, dtype=int)))
        else:
            weight = 0.0 if kind == "weight0" else float(rng.uniform(0.5, 2))
            cats.append(CategoricalSpec(f"c{a}", codes, n_values=v, weight=weight))
    nums = [NumericSpec(f"z{a}", rng.normal(size=n), weight=float(rng.uniform(0.5, 2)))
            for a in range(n_num)]
    if not cats and not nums:
        nums = [NumericSpec("z", rng.normal(size=n))]
    return cats, nums


def _sparse_labels(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Labels with an empty cluster and a singleton one wherever k allows."""
    labels = rng.integers(0, max(1, k - 2), n)
    if k >= 2:
        labels[int(rng.integers(0, n))] = k - 1  # a singleton; k - 2 stays empty
    return labels


def _oracle_sweep(
    oracle: _PerAttributeOracle, order: np.ndarray, lam: float, cfg, repair: bool
) -> None:
    """The round robin on the oracle: each visited row scored one at a
    time (``repair=False``) or as the head of the pending suffix, as a
    chunked window's repair scores it (``repair=True``)."""
    for r, i in enumerate(order.tolist()):
        cur = int(oracle.labels[i])
        if not cfg.allow_empty and oracle.sizes_f[cur] == 1:
            continue
        if repair:
            deltas = oracle.batch_move_deltas(order[r:], lam)[0]
        else:
            deltas = oracle.move_deltas(i, lam)
        target = int(np.argmin(deltas))
        if target != cur and deltas[target] < -cfg.tol:
            oracle.apply_move(i, target)


@given(
    st.integers(0, 10_000),
    st.lists(_KINDS, max_size=10),
    st.integers(0, 2),
    st.integers(1, 12),
    st.sampled_from([1, 2, 33, 300]),
    st.booleans(),
    st.booleans(),
)
@example(seed=1, kinds=[], n_num=1, k=4, b=33, sparse=True, allow_empty=False)  # numeric only
@example(seed=2, kinds=["plain"], n_num=0, k=5, b=33, sparse=True, allow_empty=True)
@example(seed=3, kinds=["plain"] * 11, n_num=1, k=6, b=2, sparse=True, allow_empty=False)
@settings(max_examples=60, deadline=None)
def test_stacked_kernels_match_per_attribute_oracle(seed, kinds, n_num, k, b, sparse, allow_empty):
    """Deltas and every cache equal the per-attribute formulas bit for
    bit, across interleaved apply_move and resync: window scoring, the
    repair of every suffix of a gathered window, the fused dense step
    and a chunked window scan, with empty and singleton clusters."""
    from repro.core.config import FairKMConfig
    from repro.core.engine import ChunkedSweep, SequentialSweep

    rng = np.random.default_rng(seed)
    n = int(rng.integers(max(k, 2), 80))
    points = rng.normal(size=(n, 3)) * rng.uniform(0.1, 100.0)
    cats, nums = _oracle_problem(rng, n, kinds, n_num)
    lam = float(rng.uniform(0.0, 1e4))
    labels = _sparse_labels(rng, n, k) if sparse else rng.integers(0, k, n)
    state = ClusterState(points, labels, k, cats, nums)
    oracle = _PerAttributeOracle(state)
    cfg = FairKMConfig(k=k, allow_empty=allow_empty)
    for step in range(6):
        indices = rng.integers(0, n, b)
        assert np.array_equal(
            state.batch_move_deltas(indices, lam), oracle.batch_move_deltas(indices, lam)
        )
        window = indices[:40]
        block = state.gather(window)
        for r in range(len(window)):
            assert np.array_equal(
                state.batch_move_deltas(block[r:], lam), oracle.batch_move_deltas(window[r:], lam)
            )
        for i in indices[:5]:
            assert np.array_equal(state.move_deltas(int(i), lam), oracle.move_deltas(int(i), lam))
        # One visit per row of a short order: the fused step (sequential
        # sweep) or a gathered window scanned with per-move repairs.
        order = rng.permutation(n)[:24]
        if step % 2:
            block = state.gather(order)
            ChunkedSweep._scan_window(
                state, block, lam, cfg, state.batch_move_deltas(block, lam), {"repair_s": 0.0}
            )
        else:
            SequentialSweep().sweep(state, order, lam, cfg)
        _oracle_sweep(oracle, order, lam, cfg, repair=bool(step % 2))
        assert np.array_equal(state.labels, oracle.labels)
        _assert_caches_equal(state, oracle)
        for _ in range(int(rng.integers(0, 8))):
            i, target = int(rng.integers(0, n)), int(rng.integers(0, k))
            state.apply_move(i, target)
            oracle.apply_move(i, target)
        _assert_caches_equal(state, oracle)
        if rng.random() < 0.3:
            state.resync()
            oracle.resync()
            _assert_caches_equal(state, oracle)


@pytest.mark.parametrize("b", [1, 3])
def test_attribute_sums_stay_ordered_past_eight_attributes(b):
    """numpy sums a run of eight or more single elements pairwise; the
    attribute axis must still be added in order (b=1 hits that case)."""
    rng = np.random.default_rng(b)
    n, k = 40, 3
    cats = [CategoricalSpec(f"c{a}", rng.integers(0, 3, n), weight=float(rng.uniform(0.1, 9)))
            for a in range(11)]
    state = ClusterState(rng.normal(size=(n, 2)), rng.integers(0, k, n), k, cats, [])
    oracle = _PerAttributeOracle(state)
    indices = rng.integers(0, n, b)
    lam, i = 7e3, int(indices[0])
    assert np.array_equal(
        state.batch_move_deltas(indices, lam), oracle.batch_move_deltas(indices, lam)
    )
    assert np.array_equal(state.move_deltas(i, lam), oracle.move_deltas(i, lam))
    assert state.fairness_term() == oracle.fairness_term()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fairness_term_equals_the_section_5_2_euclidean_deviation(seed):
    """On a chunked fit's final labels, the fairness term of Eqs. 7 / 22 is
    the §5.2 per-cluster Euclidean deviation: categorical attributes add
    (w/|V|) Σ_C (|C|/n)²·eucl_C², numeric ones w Σ_C (|C|/n)²·(std·dev_C)²
    (``numeric_fairness`` divides the mean gap by std, or by 1 for a
    constant attribute, whose gaps are all 0)."""
    from repro.core import FairKM
    from repro.metrics.fairness import categorical_fairness, numeric_fairness

    rng = np.random.default_rng(seed)
    n, k = 600, 6
    cats = [
        CategoricalSpec("unobserved", rng.integers(0, 3, n), n_values=4),
        CategoricalSpec("weighted", rng.integers(0, 5, n), weight=2.5),
        CategoricalSpec("plain", rng.integers(0, 2, n)),
    ]
    nums = [
        NumericSpec("age", rng.normal(40.0, 9.0, n), weight=1.5, standardize=False),
        NumericSpec("constant", np.full(n, 7.0)),
    ]
    points = rng.normal(size=(n, 3)) + 3.0 * cats[1].codes[:, None]
    result = FairKM(k, engine="chunked", chunk_size=64, seed=seed).fit(
        points, categorical=cats, numeric=nums
    )
    labels = result.labels
    sizes = np.bincount(labels, minlength=k).astype(np.float64)
    expected = 0.0
    for spec in cats:
        eucl = categorical_fairness(spec.codes, labels, k, spec.n_values).per_cluster_euclidean
        eucl = np.nan_to_num(eucl, nan=0.0)  # empty clusters deviate by nothing
        expected += spec.weight / spec.n_values * float(np.sum(sizes**2 * eucl**2))
    for spec in nums:
        dev = numeric_fairness(spec.values, labels, k).per_cluster_euclidean
        dev = np.nan_to_num(dev, nan=0.0)
        expected += spec.weight * float(np.sum(sizes**2 * (spec.values.std() * dev) ** 2))
    expected /= float(n) ** 2
    actual = ClusterState(points, labels, k, cats, nums).fairness_term()
    assert actual > 0.0
    np.testing.assert_allclose(actual, expected, rtol=1e-12)
