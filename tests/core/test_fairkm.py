"""Behavioural tests for the FairKM algorithm."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import KMeans
from repro.core import CategoricalSpec, FairKM, NumericSpec, fairkm_fit
from repro.core.objective import fairkm_objective
from repro.metrics import categorical_fairness
from tests.conftest import correlated_attribute, make_blobs


@pytest.fixture
def skewed_data(rng):
    """Overlapping blobs whose membership correlates with a binary S."""
    points, truth = make_blobs(rng, [150, 150], [[0, 0, 0], [2.2, 2.2, 2.2]])
    sensitive = correlated_attribute(rng, truth, skew=0.85)
    return points, truth, sensitive


def test_objective_decreases_monotonically(skewed_data):
    points, _, sensitive = skewed_data
    res = FairKM(k=2, seed=0).fit(points, categorical=[CategoricalSpec("s", sensitive)])
    hist = np.array(res.objective_history)
    assert (np.diff(hist) <= 1e-6 * np.maximum(np.abs(hist[:-1]), 1.0)).all()


def test_reported_objective_matches_direct(skewed_data):
    points, _, sensitive = skewed_data
    spec = CategoricalSpec("s", sensitive)
    res = FairKM(k=3, seed=1).fit(points, categorical=[spec])
    direct = fairkm_objective(points, [spec], [], res.labels, 3, res.lambda_)
    assert res.objective == pytest.approx(direct, rel=1e-9)
    assert res.objective == pytest.approx(
        res.kmeans_term + res.lambda_ * res.fairness_term, rel=1e-12
    )


def test_improves_fairness_over_blind_kmeans(skewed_data):
    points, _, sensitive = skewed_data
    blind = KMeans(k=2, seed=2).fit(points)
    fair = FairKM(k=2, seed=2, lambda_=1e5).fit(
        points, categorical=[CategoricalSpec("s", sensitive)]
    )
    ae_blind = categorical_fairness(sensitive, blind.labels, 2, 2).ae
    ae_fair = categorical_fairness(sensitive, fair.labels, 2, 2).ae
    assert ae_fair < ae_blind * 0.5  # large margin, not a fluke


def test_lambda_zero_behaves_like_kmeans_refinement(skewed_data):
    """λ=0 FairKM optimizes exactly the K-Means objective; from a shared
    init it must not do worse than that init's K-Means loss."""
    points, _, sensitive = skewed_data
    spec = CategoricalSpec("s", sensitive)
    init = np.random.default_rng(0).integers(0, 2, points.shape[0])
    res = FairKM(k=2, lambda_=0.0, seed=0, max_iter=100).fit(
        points, categorical=[spec], initial=init.copy()
    )
    from repro.core.objective import kmeans_term

    assert res.kmeans_term <= kmeans_term(points, init, 2)
    assert res.fairness_term >= 0.0


def test_higher_lambda_trades_coherence_for_fairness(skewed_data):
    points, _, sensitive = skewed_data
    spec = CategoricalSpec("s", sensitive)
    results = {}
    for lam in (0.0, 1e4, 1e6):
        res = FairKM(k=2, lambda_=lam, seed=3).fit(points, categorical=[spec])
        results[lam] = res
    # Fairness term decreases as λ grows; K-Means term increases.
    assert results[1e6].fairness_term <= results[0.0].fairness_term + 1e-12
    assert results[1e6].kmeans_term >= results[0.0].kmeans_term - 1e-6


def test_auto_lambda_resolves_to_heuristic(skewed_data):
    points, _, sensitive = skewed_data
    n = points.shape[0]
    res = FairKM(k=2, lambda_="auto", seed=0, max_iter=2).fit(
        points, categorical=[CategoricalSpec("s", sensitive)]
    )
    assert res.lambda_ == pytest.approx((n / 2) ** 2)


def test_multiple_sensitive_attributes(rng):
    points, truth = make_blobs(rng, [100, 100], [[0, 0], [2, 2]])
    cats = [
        CategoricalSpec("a", correlated_attribute(rng, truth, 0.8)),
        CategoricalSpec("b", rng.integers(0, 5, 200), n_values=5),
    ]
    nums = [NumericSpec("age", rng.normal(40, 10, 200) + truth * 10)]
    res = FairKM(k=2, seed=0).fit(points, categorical=cats, numeric=nums)
    assert res.converged or res.n_iter == 30
    assert set(res.fractional_representations) == {"a", "b"}


def test_deterministic_given_seed(skewed_data):
    points, _, sensitive = skewed_data
    spec = CategoricalSpec("s", sensitive)
    a = FairKM(k=3, seed=7).fit(points, categorical=[spec])
    b = FairKM(k=3, seed=7).fit(points, categorical=[spec])
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.objective == b.objective


def test_explicit_initial_labels(skewed_data):
    points, _, sensitive = skewed_data
    spec = CategoricalSpec("s", sensitive)
    init = np.zeros(points.shape[0], dtype=int)
    init[::2] = 1
    res = FairKM(k=2, seed=0).fit(points, categorical=[spec], initial=init)
    assert res.labels.shape == init.shape


def test_initial_labels_shape_validated(skewed_data):
    points, _, sensitive = skewed_data
    with pytest.raises(ValueError, match="initial labels"):
        FairKM(k=2).fit(
            points,
            categorical=[CategoricalSpec("s", sensitive)],
            initial=np.zeros(3, dtype=int),
        )


def test_initial_labels_must_be_integral(skewed_data):
    points, _, sensitive = skewed_data
    n = points.shape[0]
    for initial in ([0.5] * n, [float("nan")] * n):
        with pytest.raises(ValueError, match="initial labels must be integers"):
            FairKM(k=2).fit(
                points, categorical=[CategoricalSpec("s", sensitive)], initial=initial
            )
    # Integral floats are labels, exactly as their int spelling.
    init = np.zeros(n, dtype=int)
    init[::2] = 1
    spec = CategoricalSpec("s", sensitive)
    as_float = FairKM(k=2, seed=0).fit(points, categorical=[spec], initial=init.astype(float))
    as_int = FairKM(k=2, seed=0).fit(points, categorical=[spec], initial=init)
    np.testing.assert_array_equal(as_float.labels, as_int.labels)


def test_allow_empty_false_keeps_all_clusters(skewed_data):
    points, _, sensitive = skewed_data
    res = FairKM(k=4, seed=1, allow_empty=False, lambda_=1e6).fit(
        points, categorical=[CategoricalSpec("s", sensitive)]
    )
    assert res.n_nonempty == 4


def test_unshuffled_round_robin_runs(skewed_data):
    points, _, sensitive = skewed_data
    res = FairKM(k=2, seed=0, shuffle=False).fit(
        points, categorical=[CategoricalSpec("s", sensitive)]
    )
    assert res.labels.shape == (points.shape[0],)


def test_requires_sensitive_attributes(rng):
    with pytest.raises(ValueError, match="at least one sensitive"):
        FairKM(k=2).fit(rng.normal(size=(10, 2)))


def test_rejects_k_larger_than_n(rng):
    with pytest.raises(ValueError, match="need at least"):
        FairKM(k=20).fit(
            rng.normal(size=(5, 2)),
            categorical=[CategoricalSpec("s", np.zeros(5, dtype=int), n_values=2)],
        )


def test_config_validation():
    with pytest.raises(ValueError, match="k must be positive"):
        FairKM(k=0)
    with pytest.raises(ValueError, match='"auto"'):
        FairKM(k=2, lambda_="bogus")
    with pytest.raises(ValueError, match="non-negative"):
        FairKM(k=2, lambda_=-1.0)
    with pytest.raises(ValueError, match="init"):
        FairKM(k=2, init="bogus")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_lambda_and_tol_rejected(bad):
    with pytest.raises(ValueError, match="finite non-negative"):
        FairKM(3, lambda_=bad)
    with pytest.raises(ValueError, match="finite non-negative"):
        FairKM(3, tol=bad)


def test_wrapper_function(skewed_data):
    points, _, sensitive = skewed_data
    res = fairkm_fit(points, 2, [CategoricalSpec("s", sensitive)], seed=0)
    assert res.k == 2


def test_attribute_weights_steer_attention(rng):
    """Doubling an attribute's weight should give it no-worse fairness than
    the unweighted run, on data where the two attributes conflict."""
    points, truth = make_blobs(rng, [200, 200], [[0, 0], [1.5, 1.5]])
    a = correlated_attribute(rng, truth, 0.9)
    b = correlated_attribute(rng, 1 - truth, 0.9)
    plain = FairKM(k=2, seed=0, lambda_=3e4).fit(
        points,
        categorical=[CategoricalSpec("a", a), CategoricalSpec("b", b)],
    )
    boosted = FairKM(k=2, seed=0, lambda_=3e4).fit(
        points,
        categorical=[CategoricalSpec("a", a, weight=10.0), CategoricalSpec("b", b, weight=0.1)],
    )
    ae_plain = categorical_fairness(a, plain.labels, 2, 2).ae
    ae_boosted = categorical_fairness(a, boosted.labels, 2, 2).ae
    assert ae_boosted <= ae_plain + 1e-6


def _constant_feature_case(case):
    rng = np.random.default_rng(0)
    n = 60
    points = rng.normal(size=(n, 2))
    if case == "constant_numeric":
        return points, {"numeric": [NumericSpec("z", np.full(n, 3.5))]}
    if case == "single_valued_categorical":
        return points, {"categorical": [CategoricalSpec("c", np.zeros(n, dtype=int))]}
    return np.ones((n, 2)), {"categorical": [CategoricalSpec("c", rng.integers(0, 2, n))]}


@pytest.mark.parametrize(
    "case", ["constant_numeric", "single_valued_categorical", "identical_points"]
)
def test_constant_features_converge_identically_on_both_exact_engines(case):
    """A sensitive attribute with one value, or points with no spread,
    leaves a zero term in the objective: both exact engines still agree,
    stay finite and converge."""
    from repro.metrics import numeric_fairness

    points, specs = _constant_feature_case(case)
    seq = FairKM(3, seed=0, engine="sequential").fit(points, **specs)
    chk = FairKM(3, seed=0, engine="chunked").fit(points, **specs)
    np.testing.assert_array_equal(seq.labels, chk.labels)
    assert seq.objective_history == chk.objective_history
    for res in (seq, chk):
        assert np.isfinite(res.objective) and res.converged
    if case == "constant_numeric":
        report = numeric_fairness(specs["numeric"][0].values, chk.labels, 3)
        assert report.ae == report.me == 0.0
