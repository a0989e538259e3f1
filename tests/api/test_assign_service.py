"""The batched assignment service: chunking invariance and streaming."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Assigner, batched_assign
from repro.cluster.distance import nearest_center

N, D, K = 500, 6, 7


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(0)
    centers = rng.normal(size=(K, D)) * 3.0
    points = rng.normal(size=(N, D))
    return points, centers


def test_matches_nearest_center(problem):
    points, centers = problem
    expected, expected_d2 = nearest_center(points, centers)
    labels, d2 = Assigner(centers).assign(points, return_distance=True)
    np.testing.assert_array_equal(labels, expected)
    np.testing.assert_array_equal(d2, expected_d2)


@pytest.mark.parametrize("chunk_size", [1, 7, 64, 500, 10_000])
def test_chunking_does_not_change_labels(problem, chunk_size):
    points, centers = problem
    service = Assigner(centers)
    baseline = service.assign(points)
    np.testing.assert_array_equal(
        service.assign(points, chunk_size=chunk_size), baseline
    )


def test_single_row_promoted(problem):
    _, centers = problem
    labels = Assigner(centers).assign(np.zeros(D))
    assert labels.shape == (1,)


def test_assign_iter_over_matrix(problem):
    points, centers = problem
    service = Assigner(centers)
    streamed = np.concatenate(list(service.assign_iter(points, chunk_size=33)))
    np.testing.assert_array_equal(streamed, service.assign(points))


def test_assign_iter_over_batches(problem):
    points, centers = problem
    service = Assigner(centers)
    batches = [points[:100], points[100:101], points[101:]]
    streamed = np.concatenate(list(service.assign_iter(iter(batches))))
    np.testing.assert_array_equal(streamed, service.assign(points))


def test_dimension_mismatch_rejected(problem):
    _, centers = problem
    with pytest.raises(ValueError, match="features"):
        Assigner(centers).assign(np.zeros((3, D + 1)))


@pytest.mark.parametrize(
    "bad", [0, -1, -8192, 0.5, 2.5, True, "64", float("nan"), float("inf")]
)
def test_bad_chunk_size_rejected(problem, bad):
    """chunk_size < 1 (or non-integral) is a loud ValueError everywhere."""
    points, centers = problem
    service = Assigner(centers)
    with pytest.raises(ValueError, match="chunk_size"):
        service.assign(points, chunk_size=bad)
    with pytest.raises(ValueError, match="chunk_size"):
        next(service.assign_iter(points, chunk_size=bad))
    with pytest.raises(ValueError, match="chunk_size"):
        batched_assign(points, centers, chunk_size=bad)


def test_integral_float_chunk_size_accepted(problem):
    points, centers = problem
    service = Assigner(centers)
    np.testing.assert_array_equal(
        service.assign(points, chunk_size=64.0), service.assign(points)
    )


def test_bad_centers_rejected():
    with pytest.raises(ValueError, match="finite"):
        Assigner(np.array([[np.nan, 0.0]]))


def test_batched_assign_convenience(problem):
    points, centers = problem
    np.testing.assert_array_equal(
        batched_assign(points, centers), Assigner(centers).assign(points)
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_are_refused_not_labelled(bad):
    """A NaN/inf row has no nearest center: assign and assign_iter raise
    instead of returning an argmin over NaN distances, and refuse the
    chunk before its GEMM, so numpy warns about nothing."""
    service = Assigner(np.array([[0.0, 0.0], [5.0, 5.0]]))
    points = np.array([[0.0, 1.0], [4.0, 4.0], [bad, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        service.assign(points)
    with pytest.raises(ValueError, match="finite"):
        Assigner(service.centers, workers=2).assign(points, chunk_size=1)
    with pytest.raises(ValueError, match="finite"):
        list(service.assign_iter(points))
    with pytest.raises(ValueError, match="finite"):
        list(service.assign_iter(iter([points[:2], points[2:]])))
