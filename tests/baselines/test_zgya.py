"""Tests for the ZGYA baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.zgya import ZGYA, zgya_fit
from repro.cluster import KMeans
from repro.metrics import categorical_fairness, clustering_objective
from tests.conftest import correlated_attribute, make_blobs


@pytest.fixture
def data(rng):
    points, truth = make_blobs(rng, [150, 150], [[0, 0, 0], [2.2, 2.2, 2.2]])
    return points, correlated_attribute(rng, truth, 0.85)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_lambda_rejected(bad):
    with pytest.raises(ValueError, match="finite non-negative"):
        ZGYA(2, lambda_=bad)


def test_soft_assignments_are_simplex_rows(data):
    points, codes = data
    res = ZGYA(3, seed=0).fit(points, codes)
    assert res.soft.shape == (300, 3)
    assert (res.soft >= 0).all()
    np.testing.assert_allclose(res.soft.sum(axis=1), 1.0, atol=1e-9)


def test_labels_are_argmax_of_soft(data):
    points, codes = data
    res = ZGYA(3, seed=1).fit(points, codes)
    np.testing.assert_array_equal(res.labels, np.argmax(res.soft, axis=1))


def test_improves_fairness_over_blind_kmeans(data):
    points, codes = data
    # n_init makes the blind baseline reliably recover the (skewed) blobs
    # rather than an accidentally-balanced bad local optimum.
    blind = KMeans(k=2, seed=0, n_init=5).fit(points)
    fair = ZGYA(2, seed=0).fit(points, codes)
    ae_blind = categorical_fairness(codes, blind.labels, 2, 2).ae
    ae_fair = categorical_fairness(codes, fair.labels, 2, 2).ae
    assert ae_fair < ae_blind


def test_trades_coherence_for_fairness(data):
    """Higher λ must cost clustering objective — the trade-off the FairKM
    paper's Tables 5/7 document for ZGYA."""
    points, codes = data
    weak = ZGYA(2, lambda_=1.0, seed=0).fit(points, codes)
    strong = ZGYA(2, lambda_=300.0, seed=0).fit(points, codes)
    co_weak = clustering_objective(points, weak.labels, 2)
    co_strong = clustering_objective(points, strong.labels, 2)
    ae_weak = categorical_fairness(codes, weak.labels, 2, 2).ae
    ae_strong = categorical_fairness(codes, strong.labels, 2, 2).ae
    assert ae_strong < ae_weak
    assert co_strong > co_weak


def test_lambda_zero_close_to_kmeans(data):
    points, codes = data
    res = ZGYA(2, lambda_=0.0, seed=0).fit(points, codes)
    co = clustering_objective(points, res.labels, 2)
    km = KMeans(k=2, seed=0, n_init=3).fit(points)
    assert co <= km.inertia * 1.1


def test_multivalued_attribute(rng):
    points, truth = make_blobs(rng, [100, 100, 100], [[0, 0], [3, 0], [0, 3]])
    codes = ((truth + rng.integers(0, 2, 300)) % 4).astype(np.int64)
    res = ZGYA(3, seed=0).fit(points, codes, n_values=4)
    assert res.labels.shape == (300,)
    assert res.fairness_penalty >= 0.0


def test_handles_absent_values(data):
    """Declared-but-unseen attribute values must not crash the KL term."""
    points, codes = data
    res = ZGYA(2, seed=0).fit(points, codes, n_values=5)
    assert np.isfinite(res.energy)


def test_deterministic_by_seed(data):
    points, codes = data
    a = ZGYA(3, seed=5).fit(points, codes)
    b = ZGYA(3, seed=5).fit(points, codes)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_energy_history_tracked(data):
    points, codes = data
    res = ZGYA(2, seed=0, max_iter=10).fit(points, codes)
    assert len(res.energy_history) == res.n_iter
    assert all(np.isfinite(e) for e in res.energy_history)


def test_auto_lambda_heuristic(data):
    points, codes = data
    auto = ZGYA(2, seed=0).fit(points, codes)
    explicit = ZGYA(2, lambda_=max(10.0, points.shape[0] / 32.0), seed=0).fit(
        points, codes
    )
    np.testing.assert_array_equal(auto.labels, explicit.labels)


def test_validation(data):
    points, codes = data
    with pytest.raises(ValueError, match="k must be positive"):
        ZGYA(0)
    with pytest.raises(ValueError, match="non-negative"):
        ZGYA(2, lambda_=-1)
    with pytest.raises(ValueError, match='"auto"'):
        ZGYA(2, lambda_="bogus")
    with pytest.raises(ValueError, match="must be positive"):
        ZGYA(2, max_iter=0)
    with pytest.raises(ValueError, match="align"):
        ZGYA(2).fit(points, codes[:-1])
    with pytest.raises(ValueError, match="integers"):
        ZGYA(2).fit(points, codes.astype(float))
    with pytest.raises(ValueError, match="lie in"):
        ZGYA(2).fit(points, codes, n_values=1)
    with pytest.raises(ValueError, match="need at least"):
        ZGYA(50).fit(points[:10], codes[:10])
    with pytest.raises(ValueError, match="2-D"):
        ZGYA(2).fit(points[:, 0], codes)


def test_wrapper(data):
    points, codes = data
    res = zgya_fit(points, codes, 2, seed=0)
    assert res.labels.shape == (points.shape[0],)
