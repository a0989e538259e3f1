"""Tests for the shared optimizer engine and its sweep strategies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    SWEEP_STRATEGIES,
    CategoricalSpec,
    ChunkedSweep,
    ClusterState,
    FairKM,
    MiniBatchFairKM,
    MiniBatchSweep,
    SequentialSweep,
    make_sweep,
)
from tests.conftest import correlated_attribute, make_blobs, random_specs


@pytest.fixture
def problem(rng):
    points, truth = make_blobs(rng, [130, 130], [[0, 0, 0], [2.3, 2.3, 2.3]])
    cats, nums = random_specs(rng, points.shape[0])
    cats.append(CategoricalSpec("corr", correlated_attribute(rng, truth, 0.85)))
    return points, cats, nums


# --------------------------------------------------------------------- #
# Registry / construction                                                 #
# --------------------------------------------------------------------- #


def test_registry_names():
    assert set(SWEEP_STRATEGIES) == {"sequential", "chunked"}


def test_make_sweep_resolves_names():
    assert isinstance(make_sweep("sequential"), SequentialSweep)
    chunked = make_sweep("chunked", chunk_size=64)
    assert isinstance(chunked, ChunkedSweep)
    assert chunked.chunk_size == 64
    with pytest.raises(ValueError, match="unknown engine"):
        make_sweep("minibatch", chunk_size=32)


def test_make_sweep_passes_instances_through():
    strategy = ChunkedSweep(chunk_size=17)
    assert make_sweep(strategy) is strategy


def test_make_sweep_rejects_chunk_size_with_instance():
    with pytest.raises(ValueError, match="configure the instance"):
        make_sweep(ChunkedSweep(), chunk_size=64)


def test_make_sweep_rejects_unknown():
    with pytest.raises(ValueError, match="unknown engine"):
        make_sweep("bogus")


def test_chunked_validates_parameters():
    with pytest.raises(ValueError, match="chunk_size"):
        ChunkedSweep(chunk_size=0)
    with pytest.raises(ValueError, match="dense_threshold"):
        ChunkedSweep(dense_threshold=0.0)
    with pytest.raises(ValueError, match="batch_size"):
        MiniBatchSweep(batch_size=-1)


# --------------------------------------------------------------------- #
# Chunked-exact equivalence                                               #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("chunk_size", [1, 7, 64, 4096])
def test_chunked_matches_sequential(problem, chunk_size):
    points, cats, nums = problem
    seq = FairKM(3, seed=11, engine="sequential").fit(points, categorical=cats, numeric=nums)
    chk = FairKM(3, seed=11, engine="chunked", chunk_size=chunk_size).fit(
        points, categorical=cats, numeric=nums
    )
    np.testing.assert_array_equal(seq.labels, chk.labels)
    assert seq.objective == chk.objective
    assert seq.objective_history == chk.objective_history
    assert seq.moves_per_iter == chk.moves_per_iter


def test_chunked_matches_sequential_unshuffled(problem):
    points, cats, nums = problem
    seq = FairKM(4, seed=0, shuffle=False, engine="sequential").fit(
        points, categorical=cats, numeric=nums
    )
    chk = FairKM(4, seed=0, shuffle=False, engine="chunked").fit(
        points, categorical=cats, numeric=nums
    )
    np.testing.assert_array_equal(seq.labels, chk.labels)
    assert seq.objective == chk.objective


def test_chunked_matches_sequential_allow_empty_false(problem):
    points, cats, nums = problem
    kwargs = dict(lambda_=1e6, allow_empty=False, max_iter=40)
    seq = FairKM(6, seed=3, engine="sequential", **kwargs).fit(
        points, categorical=cats, numeric=nums
    )
    chk = FairKM(6, seed=3, engine="chunked", chunk_size=32, **kwargs).fit(
        points, categorical=cats, numeric=nums
    )
    np.testing.assert_array_equal(seq.labels, chk.labels)
    assert seq.objective == chk.objective


def test_chunked_reusable_across_fits(problem):
    """Adaptive state must reset between fits (same estimator, two fits)."""
    points, cats, nums = problem
    est = FairKM(3, seed=5, engine="chunked")
    first = est.fit(points, categorical=cats, numeric=nums)
    second = est.fit(points, categorical=cats, numeric=nums)
    # Second fit consumes fresh RNG draws, so results differ in general,
    # but both must match their sequential counterparts drawn in order.
    seq_est = FairKM(3, seed=5, engine="sequential")
    np.testing.assert_array_equal(
        first.labels, seq_est.fit(points, categorical=cats, numeric=nums).labels
    )
    np.testing.assert_array_equal(
        second.labels, seq_est.fit(points, categorical=cats, numeric=nums).labels
    )


# --------------------------------------------------------------------- #
# Objective history recorded after resync (satellite regression)          #
# --------------------------------------------------------------------- #


def test_objective_history_recorded_after_resync(problem, monkeypatch):
    """Every recorded objective must come from drift-free caches."""
    points, cats, nums = problem
    original = ClusterState.objective
    drift: list[float] = []

    def spying_objective(self, lam):
        drift.append(self.consistency_error())
        return original(self, lam)

    monkeypatch.setattr(ClusterState, "objective", spying_objective)
    result = FairKM(3, seed=0, resync_every=1).fit(points, categorical=cats, numeric=nums)
    assert sum(result.moves_per_iter) > 0  # the fit actually moved objects
    assert drift and max(drift) == 0.0


def test_objective_history_resync_disabled_still_accurate(problem):
    """resync_every=0 keeps incremental caches; history should still track
    the true objective to within float-drift tolerance."""
    from repro.core.objective import fairkm_objective

    points, cats, nums = problem
    res = FairKM(3, seed=0, resync_every=0).fit(points, categorical=cats, numeric=nums)
    direct = fairkm_objective(points, cats, nums, res.labels, 3, res.lambda_)
    assert res.objective_history[-1] == pytest.approx(direct, rel=1e-7)


# --------------------------------------------------------------------- #
# MiniBatchFairKM resync_every (satellite)                                #
# --------------------------------------------------------------------- #


def test_minibatch_accepts_and_honors_resync_every(problem):
    points, cats, nums = problem
    default = MiniBatchFairKM(3, batch_size=32, seed=1)
    assert default.config.resync_every == 1
    custom = MiniBatchFairKM(3, batch_size=32, seed=1, resync_every=5)
    assert custom.config.resync_every == 5
    res = custom.fit(points, categorical=cats, numeric=nums)
    assert res.labels.shape == (points.shape[0],)
    with pytest.raises(ValueError, match="resync_every"):
        MiniBatchFairKM(3, resync_every=-1)


def test_minibatch_uses_minibatch_sweep():
    est = MiniBatchFairKM(3, batch_size=17)
    assert isinstance(est.sweep, MiniBatchSweep)
    assert est.sweep.batch_size == 17
    assert est.batch_size == 17


# --------------------------------------------------------------------- #
# Engine selection through FairKM                                         #
# --------------------------------------------------------------------- #


def test_fairkm_rejects_unknown_engine():
    with pytest.raises(ValueError, match="unknown engine"):
        FairKM(3, engine="warp")


def test_fairkm_sensitive_and_specs_are_exclusive(problem):
    points, cats, nums = problem
    with pytest.raises(ValueError, match="not both"):
        FairKM(3, seed=0).fit(points, categorical=cats, sensitive=cats)


@pytest.mark.parametrize("estimator", [FairKM, MiniBatchFairKM])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_rejects_non_finite_points(problem, estimator, bad):
    """A NaN or inf coordinate is a typed error, never a silent fit with
    NaN centers and objective."""
    points, cats, nums = problem
    points = points.copy()
    points[7, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        estimator(3, seed=0).fit(points, categorical=cats, numeric=nums)
