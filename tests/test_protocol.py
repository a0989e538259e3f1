"""Protocol conformance: every clustering method exposes the shared
``fit`` / ``fit_predict`` / ``predict`` surface and behaves uniformly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import BeraFairAssignment, FairKCenter, FairletClustering, ZGYA
from repro.cluster import KMeans
from repro.core import (
    CategoricalSpec,
    ClusteringEstimator,
    FairKM,
    MiniBatchFairKM,
    NotFittedError,
)

N, D, K = 90, 4, 3


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    points = np.vstack(
        [rng.normal(0, 1, (N // 2, D)), rng.normal(3, 1, (N - N // 2, D))]
    )
    codes = rng.integers(0, 2, N)
    return points, [CategoricalSpec("s", codes, n_values=2)]


def estimators():
    return [
        FairKM(K, seed=0),
        MiniBatchFairKM(K, batch_size=16, seed=0),
        KMeans(K, seed=0),
        ZGYA(K, seed=0),
        BeraFairAssignment(K, seed=0),
        FairletClustering(K, seed=0),
        FairKCenter(K, seed=0),
    ]


@pytest.mark.parametrize("estimator", estimators(), ids=lambda e: type(e).__name__)
def test_conforms_to_protocol(estimator):
    assert isinstance(estimator, ClusteringEstimator)


@pytest.mark.parametrize("estimator", estimators(), ids=lambda e: type(e).__name__)
def test_fit_predict_and_predict(data, estimator):
    points, specs = data
    labels = estimator.fit_predict(points, sensitive=specs)
    assert labels.shape == (N,)
    assert labels.min() >= 0 and labels.max() < K
    np.testing.assert_array_equal(labels, estimator.labels_)
    assert estimator.centers_.shape == (K, D)
    routed = estimator.predict(points[:11])
    assert routed.shape == (11,)
    assert routed.min() >= 0 and routed.max() < K


@pytest.mark.parametrize("estimator", estimators(), ids=lambda e: type(e).__name__)
def test_predict_before_fit_raises(estimator):
    with pytest.raises(NotFittedError):
        estimator.predict(np.zeros((2, D)))
    with pytest.raises(NotFittedError):
        _ = estimator.labels_


@pytest.mark.parametrize("estimator", estimators(), ids=lambda e: type(e).__name__)
def test_predict_validates_dimensionality(data, estimator):
    points, specs = data
    estimator.fit_predict(points, sensitive=specs)
    with pytest.raises(ValueError, match="features"):
        estimator.predict(np.zeros((2, D + 3)))


@pytest.mark.parametrize("estimator", estimators(), ids=lambda e: type(e).__name__)
def test_export_import_state_round_trip(data, estimator):
    """Artifact state moves between estimator instances, predict intact."""
    points, specs = data
    estimator.fit_predict(points, sensitive=specs)
    state = estimator.export_state()
    assert state["centers"].shape == (K, D)
    assert isinstance(state["diagnostics"], dict)

    revived = type(estimator)(K, seed=0).import_state(state)
    np.testing.assert_array_equal(revived.centers_, estimator.centers_)
    np.testing.assert_array_equal(
        revived.predict(points[:17]), estimator.predict(points[:17])
    )
    # Training labels are not part of the portable state.
    with pytest.raises(NotFittedError):
        _ = revived.labels_


def test_export_import_export_keeps_diagnostics(data):
    """Reviving an artifact and re-exporting it must not lose facts."""
    points, specs = data
    estimator = FairKM(K, seed=0)
    estimator.fit_predict(points, sensitive=specs)
    state = estimator.export_state()
    re_exported = FairKM(K, seed=0).import_state(state).export_state()
    assert re_exported["diagnostics"] == state["diagnostics"]
    np.testing.assert_array_equal(re_exported["centers"], state["centers"])


def test_export_state_before_fit_raises():
    with pytest.raises(NotFittedError):
        FairKM(K, seed=0).export_state()


def test_export_state_diagnostics_are_plain_scalars(data):
    points, specs = data
    estimator = FairKM(K, seed=0)
    estimator.fit_predict(points, sensitive=specs)
    diagnostics = estimator.export_state()["diagnostics"]
    assert {"objective", "lambda_", "n_iter", "converged"} <= set(diagnostics)
    # JSON-able scalars only — structured telemetry (e.g. the per-sweep
    # list on FairKMResult.diagnostics) must not leak into artifacts.
    assert all(isinstance(v, (bool, int, float, str)) for v in diagnostics.values())
    assert diagnostics["engine"] == "chunked"


def test_kmeans_ignores_sensitive(data):
    points, specs = data
    with_specs = KMeans(K, seed=4).fit_predict(points, sensitive=specs)
    without = KMeans(K, seed=4).fit_predict(points)
    np.testing.assert_array_equal(with_specs, without)


def test_single_attribute_methods_reject_multiple(data):
    points, _ = data
    rng = np.random.default_rng(1)
    two = [
        CategoricalSpec("a", rng.integers(0, 2, N), n_values=2),
        CategoricalSpec("b", rng.integers(0, 3, N), n_values=3),
    ]
    for estimator in (ZGYA(K, seed=0), FairKCenter(K, seed=0), FairletClustering(K, seed=0)):
        with pytest.raises(ValueError, match="exactly one"):
            estimator.fit(points, sensitive=two)


def test_codes_and_sensitive_are_exclusive(data):
    points, specs = data
    codes = specs[0].codes
    with pytest.raises(ValueError, match="not both"):
        ZGYA(K, seed=0).fit(points, codes, sensitive=specs)
    with pytest.raises(ValueError, match="not both"):
        BeraFairAssignment(K, seed=0).fit(
            points, {"s": (codes, 2)}, sensitive=specs
        )


def test_zgya_sensitive_path_matches_codes_path(data):
    points, specs = data
    via_codes = ZGYA(K, seed=7).fit(points, specs[0].codes, n_values=2)
    via_specs = ZGYA(K, seed=7).fit(points, sensitive=specs)
    np.testing.assert_array_equal(via_codes.labels, via_specs.labels)


def test_bera_rejects_numeric_sensitive(data):
    points, _ = data
    with pytest.raises(ValueError, match="categorical"):
        BeraFairAssignment(K, seed=0).fit(
            points, sensitive=np.linspace(0.0, 1.0, N)
        )
