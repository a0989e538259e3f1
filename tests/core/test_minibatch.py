"""Tests for the mini-batch FairKM extension (§6.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CategoricalSpec, FairKM, MiniBatchFairKM, MiniBatchSweep, NumericSpec
from repro.core.objective import fairkm_objective
from repro.core.state import ClusterState
from repro.metrics import categorical_fairness
from tests.conftest import correlated_attribute, make_blobs


@pytest.fixture
def data(rng):
    points, truth = make_blobs(rng, [120, 120], [[0, 0], [2.2, 2.2]])
    return points, correlated_attribute(rng, truth, 0.85)


def test_runs_and_reports_consistent_objective(data):
    points, sensitive = data
    spec = CategoricalSpec("s", sensitive)
    res = MiniBatchFairKM(k=2, batch_size=32, seed=0).fit(points, categorical=[spec])
    direct = fairkm_objective(points, [spec], [], res.labels, 2, res.lambda_)
    assert res.objective == pytest.approx(direct, rel=1e-9)


def test_batch_size_one_close_to_exact(data):
    """batch_size=1 is exact FairKM; from the same seed the trajectories
    coincide."""
    points, sensitive = data
    spec = CategoricalSpec("s", sensitive)
    exact = FairKM(k=2, seed=5).fit(points, categorical=[spec])
    mb = MiniBatchFairKM(k=2, batch_size=1, seed=5).fit(points, categorical=[spec])
    np.testing.assert_array_equal(exact.labels, mb.labels)
    assert exact.objective == pytest.approx(mb.objective)


def test_large_batches_still_improve_fairness(data):
    points, sensitive = data
    spec = CategoricalSpec("s", sensitive)
    from repro.cluster import KMeans

    blind = KMeans(k=2, seed=0).fit(points)
    mb = MiniBatchFairKM(k=2, batch_size=64, seed=0, lambda_=1e5).fit(
        points, categorical=[spec]
    )
    ae_blind = categorical_fairness(sensitive, blind.labels, 2, 2).ae
    ae_mb = categorical_fairness(sensitive, mb.labels, 2, 2).ae
    assert ae_mb < ae_blind


def test_objective_quality_close_to_exact(data):
    points, sensitive = data
    spec = CategoricalSpec("s", sensitive)
    exact = FairKM(k=2, seed=1, max_iter=50).fit(points, categorical=[spec])
    mb = MiniBatchFairKM(k=2, batch_size=48, seed=1, max_iter=50).fit(
        points, categorical=[spec]
    )
    # Mini-batch is an approximation; allow slack but catch regressions.
    assert mb.objective <= exact.objective * 1.25 + 1e-9


def test_rejects_bad_batch_size():
    with pytest.raises(ValueError, match="batch_size"):
        MiniBatchFairKM(k=2, batch_size=0)


def test_deterministic(data):
    points, sensitive = data
    spec = CategoricalSpec("s", sensitive)
    a = MiniBatchFairKM(k=2, batch_size=16, seed=3).fit(points, categorical=[spec])
    b = MiniBatchFairKM(k=2, batch_size=16, seed=3).fit(points, categorical=[spec])
    np.testing.assert_array_equal(a.labels, b.labels)


class PerMoveMergeSweep(MiniBatchSweep):
    """Oracle: the merge as one move at a time through ``apply_move``.

    Scores each batch exactly as :class:`MiniBatchSweep` does, then
    applies the accepted moves in visit order, vetoing a move out of a
    singleton cluster under ``allow_empty=False`` against the live
    sizes, and resyncs once per batch. Counts the vetoes it makes.
    """

    def reset(self) -> None:
        super().reset()
        self.vetoes = 0

    def sweep(self, state, order, lam, cfg):
        moves = 0
        for start in range(0, order.shape[0], self.batch_size):
            batch = order[start : start + self.batch_size]
            deltas = self._score_batch(state, batch, lam)
            targets = np.argmin(deltas, axis=1)
            improves = deltas[np.arange(batch.shape[0]), targets] < -cfg.tol
            cur = state.labels[batch]
            batch_moves = 0
            for r in np.flatnonzero(improves & (targets != cur)):
                i = int(batch[r])
                if not cfg.allow_empty and state.sizes[state.labels[i]] == 1:
                    self.vetoes += 1
                    continue
                state.apply_move(i, int(targets[r]))
                batch_moves += 1
            if batch_moves:
                state.resync()
            moves += batch_moves
        self.last_stats = {"mode": "minibatch"}
        return moves


def _merge_pair(points, cats, nums, k, batch_size, allow_empty, seed, lam="auto"):
    oracle = PerMoveMergeSweep(batch_size)
    kw = dict(lambda_=lam, allow_empty=allow_empty, max_iter=8, seed=seed)
    expected = FairKM(k, engine=oracle, **kw).fit(points, categorical=cats, numeric=nums)
    got = MiniBatchFairKM(k, batch_size=batch_size, **kw).fit(
        points, categorical=cats, numeric=nums
    )
    return oracle, expected, got


def _assert_same_fit(expected, got):
    np.testing.assert_array_equal(got.labels, expected.labels)
    assert got.objective_history == expected.objective_history
    assert got.moves_per_iter == expected.moves_per_iter


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(8, 120),
    k_frac=st.floats(0.05, 1.0),
    batch_size=st.sampled_from([1, 4, 16, 64, 1024]),
    allow_empty=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_label_scatter_merge_equals_per_move_merge(seed, n, k_frac, batch_size, allow_empty):
    """The one-scatter merge reproduces the per-move merge bit for bit,
    including the visit-order veto when k is close to n."""
    rng = np.random.default_rng(seed)
    k = max(2, min(n, int(round(k_frac * n))))
    points = rng.normal(size=(n, 3))
    cats = [CategoricalSpec("c", rng.integers(0, 4, n), n_values=4)]
    nums = [NumericSpec("z", rng.normal(size=n))]
    _, expected, got = _merge_pair(points, cats, nums, k, batch_size, allow_empty, seed)
    _assert_same_fit(expected, got)
    if not allow_empty:
        assert np.bincount(got.labels, minlength=k).min() >= 1


@pytest.mark.parametrize("k", [20, 40])
def test_veto_ledger_matches_per_move_merge_when_vetoes_fire(k):
    """A whole-dataset batch with k near n/2 makes the ledger veto: the
    oracle must actually veto, and the results must still agree."""
    rng = np.random.default_rng(k)
    n = 2 * k + 5
    points = rng.normal(size=(n, 2))
    cats = [CategoricalSpec("c", rng.integers(0, 3, n), n_values=3)]
    oracle, expected, got = _merge_pair(points, cats, [], k, n, False, seed=1, lam=1e3)
    assert oracle.vetoes > 0
    _assert_same_fit(expected, got)
    assert np.bincount(got.labels, minlength=k).min() >= 1


@pytest.mark.parametrize("allow_empty", [True, False])
@pytest.mark.parametrize("batch_size", [7, 64, 100])  # 240 rows: short last batches
def test_end_of_sweep_rebuild_changes_no_byte(data, allow_empty, batch_size):
    """A mini-batch sweep leaves its caches fresh, so the engine's
    end-of-iteration rebuild (resync_every=1) and none (0) agree byte for
    byte."""
    points, sensitive = data
    spec = CategoricalSpec("s", sensitive)
    fits = [
        MiniBatchFairKM(k=3, batch_size=batch_size, resync_every=every,
                        allow_empty=allow_empty, max_iter=8, seed=2).fit(
            points, categorical=[spec]
        )
        for every in (0, 1)
    ]
    a, b = fits
    assert a.labels.tobytes() == b.labels.tobytes()
    assert a.centers.tobytes() == b.centers.tobytes()
    assert np.array(a.objective_history).tobytes() == np.array(b.objective_history).tobytes()


@pytest.mark.parametrize("batch_size", [16, 100])
def test_fit_rebuilds_once_per_batch_that_moved(data, monkeypatch, batch_size):
    """One rebuild at construction plus one per batch that moved rows:
    no batch without a move and no end-of-sweep pass rebuilds."""
    points, sensitive = data
    spec = CategoricalSpec("s", sensitive)
    rebuilds: list[np.ndarray] = []
    batch_starts: list[np.ndarray] = []
    resync, score = ClusterState.resync, MiniBatchSweep._score_batch

    def counting_resync(self):
        rebuilds.append(self.labels.copy())
        resync(self)

    def recording_score(self, state, batch, lam):
        batch_starts.append(state.labels.copy())
        return score(self, state, batch, lam)

    monkeypatch.setattr(ClusterState, "resync", counting_resync)
    monkeypatch.setattr(MiniBatchSweep, "_score_batch", recording_score)
    res = MiniBatchFairKM(k=3, batch_size=batch_size, max_iter=6, seed=4).fit(
        points, categorical=[spec]
    )
    snapshots = [*batch_starts, res.labels]
    moved = sum(not np.array_equal(a, b) for a, b in zip(snapshots, snapshots[1:]))
    assert moved > 0
    assert len(batch_starts) > moved  # some batches moved nothing
    assert len(rebuilds) == 1 + moved
