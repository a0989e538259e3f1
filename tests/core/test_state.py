"""Tests for the incremental ClusterState engine.

The load-bearing guarantee: ``move_deltas`` must equal the brute-force
objective difference for every candidate move, and caches must never drift
from a from-scratch rebuild. Both are exercised under hypothesis-driven
random move sequences.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CategoricalSpec, NumericSpec
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
    for mine, theirs in zip(stats["cat_counts"], oracle["cat_counts"]):
        assert np.array_equal(mine, theirs)
    for mine, theirs in zip(stats["num_d"], oracle["num_d"]):
        assert np.array_equal(mine, theirs)
    assert state.consistency_error() == 0.0


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
