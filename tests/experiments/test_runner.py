"""Integration tests for the multi-seed suite runner."""

from __future__ import annotations

import pytest

from repro.data import make_fair_problem
from repro.experiments import SuiteConfig, run_suite


@pytest.fixture(scope="module")
def suite():
    ds = make_fair_problem(
        240,
        n_latent=3,
        separation=2.5,
        categorical=[("a", 2, 0.85), ("b", 3, 0.6)],
        seed=0,
    )
    config = SuiteConfig(
        k=3,
        seeds=(0, 1),
        silhouette_sample=None,
        per_attribute_fairkm=True,
    )
    return run_suite(ds, config)


def test_all_methods_present(suite):
    assert suite.kmeans is not None
    assert suite.fairkm is not None
    assert suite.zgya_avg_quality is not None
    assert set(suite.zgya_per_attribute) == {"a", "b"}
    assert set(suite.fairkm_per_attribute) == {"a", "b"}
    assert suite.attribute_names == ["a", "b"]


def test_kmeans_reference_deviations_zero(suite):
    assert suite.kmeans.dev_c == 0.0
    assert suite.kmeans.dev_o == 0.0


def test_fair_methods_deviate_from_reference(suite):
    assert suite.fairkm.dev_o > 0.0
    assert suite.zgya_avg_quality.dev_o > 0.0


def test_kmeans_wins_its_own_game(suite):
    """K-Means(N) optimizes CO alone; with restarts it must have the best
    (lowest) CO among the three methods — the Table 5/7 ordering."""
    assert suite.kmeans.co <= suite.fairkm.co + 1e-6
    assert suite.kmeans.co <= suite.zgya_avg_quality.co + 1e-6


def test_fairkm_is_fairer_than_blind(suite):
    assert suite.fairkm.fairness.mean.ae < suite.kmeans.fairness.mean.ae


def test_improvement_pct_signs(suite):
    """Impr% must be positive exactly when FairKM beats the best baseline."""
    for attr in ["mean", "a", "b"]:
        impr = suite.improvement_pct(attr, "AE")
        fair = (
            suite.fairkm.fairness.mean.ae
            if attr == "mean"
            else suite.fairkm.fairness.attribute(attr).ae
        )
        if attr == "mean":
            km = suite.kmeans.fairness.mean.ae
            zg_vals = [
                e.fairness.attribute(a).ae
                for a, e in suite.zgya_per_attribute.items()
            ]
            zg = sum(zg_vals) / len(zg_vals)
        else:
            km = suite.kmeans.fairness.attribute(attr).ae
            zg = suite.zgya_per_attribute[attr].fairness.attribute(attr).ae
        assert (impr > 0) == (fair < min(km, zg))


def test_seed_averaging_changes_nothing_for_single_seed():
    ds = make_fair_problem(100, categorical=[("a", 2, 0.7)], seed=3)
    one = run_suite(ds, SuiteConfig(k=2, seeds=(5,), silhouette_sample=None))
    again = run_suite(ds, SuiteConfig(k=2, seeds=(5,), silhouette_sample=None))
    assert one.fairkm.co == again.fairkm.co  # deterministic per seed


# --------------------------------------------------------------------- #
# Method registry                                                         #
# --------------------------------------------------------------------- #


def test_registry_contains_all_methods():
    from repro.experiments import METHOD_REGISTRY

    assert {
        "kmeans",
        "fairkm",
        "minibatch_fairkm",
        "zgya",
        "bera",
        "fairlets",
        "fair_kcenter",
    } <= set(METHOD_REGISTRY)


def test_registry_builds_protocol_estimators():
    from repro.core import ClusteringEstimator
    from repro.experiments import METHOD_REGISTRY

    config = SuiteConfig(k=3, seeds=(0,))
    for name, spec in METHOD_REGISTRY.items():
        assert isinstance(spec.build(config.run_config(name, 0)), ClusteringEstimator)


def test_register_method_validates_scope():
    from repro.experiments import register_method

    with pytest.raises(ValueError, match="scope"):
        register_method("broken", lambda cfg: None, scope="sideways")


def test_suite_config_derives_run_configs():
    config = SuiteConfig(
        k=4,
        fairkm_lambda=123.0,
        zgya_lambda=77.0,
        fairkm_max_iter=9,
        engine="chunked",
        chunk_size=64,
        scale_features=False,
    )
    fair = config.run_config("fairkm", seed=3)
    assert (fair.method, fair.k, fair.lambda_, fair.max_iter) == ("fairkm", 4, 123.0, 9)
    assert (fair.engine, fair.chunk_size, fair.seed) == ("chunked", 64, 3)
    assert fair.scale_features is False
    # ZGYA gets its own λ; everything else inherits the FairKM one.
    assert config.run_config("zgya", seed=0).lambda_ == 77.0
    assert config.run_config("minibatch_fairkm", seed=0).lambda_ == 123.0


def test_unknown_extra_method_rejected():
    ds = make_fair_problem(60, categorical=[("a", 2, 0.7)], seed=0)
    config = SuiteConfig(k=2, seeds=(0,), extra_methods=("nope",))
    with pytest.raises(KeyError, match="nope"):
        run_suite(ds, config)


def test_extra_methods_ride_along():
    ds = make_fair_problem(
        120, n_latent=2, categorical=[("a", 2, 0.8), ("b", 3, 0.6)], seed=1
    )
    config = SuiteConfig(
        k=2,
        seeds=(0,),
        silhouette_sample=None,
        extra_methods=("minibatch_fairkm", "bera", "fairlets", "fair_kcenter"),
    )
    suite = run_suite(ds, config)
    assert set(suite.extra) == {"minibatch_fairkm", "bera", "fairlets", "fair_kcenter"}
    for ev in suite.extra.values():
        assert ev.co > 0.0
    # The evaluated attribute subset is recorded: fairlets can only use
    # the binary attribute, the others cover both.
    assert suite.extra_attributes["fairlets"] == ["a"]
    assert suite.extra_attributes["fair_kcenter"] == ["a", "b"]
    assert suite.extra_attributes["minibatch_fairkm"] == ["a", "b"]
    assert suite.extra_attributes["bera"] == ["a", "b"]


def test_chunked_engine_suite_matches_sequential():
    ds = make_fair_problem(
        150, n_latent=3, categorical=[("a", 2, 0.85), ("b", 3, 0.6)], seed=2
    )
    base = SuiteConfig(k=3, seeds=(0, 1), silhouette_sample=None, engine="sequential")
    seq = run_suite(ds, base)
    chk = run_suite(
        ds, SuiteConfig(k=3, seeds=(0, 1), silhouette_sample=None, engine="chunked")
    )
    # Chunked FairKM is exact, so suite-level metrics coincide.
    assert seq.fairkm.co == chk.fairkm.co
    assert seq.fairkm.fairness.mean.ae == chk.fairkm.fairness.mean.ae
