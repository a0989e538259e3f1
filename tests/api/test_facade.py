"""The fit facade: dataset/array inputs, sensitive selection, evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import METHOD_REGISTRY, RunConfig, evaluate_model, fit, load
from repro.core import CategoricalSpec, NumericSpec
from repro.data import make_fair_problem


@pytest.fixture(scope="module")
def dataset():
    return make_fair_problem(
        200,
        n_latent=2,
        categorical=[("color", 2, 0.8), ("shade", 3, 0.5)],
        numeric_sensitive=[("age", 0.5)],
        seed=0,
    )


def test_fit_from_dataset(dataset):
    model = fit(RunConfig(method="fairkm", k=2, seed=0), dataset)
    assert model.attribute_names == ["color", "shade", "age"]
    kinds = {a["name"]: a["kind"] for a in model.attributes}
    assert kinds == {"color": "categorical", "shade": "categorical", "age": "numeric"}
    assert model.k == 2


def test_fit_from_dataset_respects_sensitive_selection(dataset):
    config = RunConfig(method="zgya", k=2, seed=0, sensitive=("color",))
    model = fit(config, dataset)
    assert model.attribute_names == ["color"]


def test_fit_from_dataset_unknown_sensitive_name(dataset):
    with pytest.raises(KeyError, match="bogus"):
        fit(RunConfig(method="fairkm", k=2, sensitive=("bogus",)), dataset)


def test_fit_from_arrays_with_mapping():
    rng = np.random.default_rng(1)
    points = rng.normal(size=(150, 4))
    model = fit(
        RunConfig(method="fairkm", k=3, seed=0),
        points,
        sensitive={"g": rng.integers(0, 2, 150), "age": rng.normal(size=150)},
    )
    assert model.attribute_names == ["g", "age"]
    assert model.n_features == 4


def test_fit_from_arrays_with_specs_and_selection():
    rng = np.random.default_rng(2)
    points = rng.normal(size=(120, 3))
    specs = [
        CategoricalSpec("a", rng.integers(0, 2, 120), n_values=2),
        NumericSpec("b", rng.normal(size=120)),
    ]
    config = RunConfig(method="fairkm", k=2, seed=0, sensitive=("a",))
    model = fit(config, points, sensitive=specs)
    assert model.attribute_names == ["a"]


def test_fit_selection_missing_from_arrays():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(60, 3))
    config = RunConfig(method="fairkm", k=2, sensitive=("missing",))
    with pytest.raises(KeyError, match="missing"):
        fit(config, points, sensitive={"a": rng.integers(0, 2, 60)})


def test_fit_unknown_method():
    with pytest.raises(KeyError, match="unknown method"):
        fit(RunConfig(method="tsne"), np.zeros((10, 2)))


def test_fit_rejects_1d_points():
    with pytest.raises(ValueError, match="2-D"):
        fit(RunConfig(method="kmeans", k=2), np.zeros(10))


def test_fit_kmeans_without_sensitive():
    rng = np.random.default_rng(4)
    model = fit(RunConfig(method="kmeans", k=2, seed=0), rng.normal(size=(50, 2)))
    assert model.attributes == []
    assert model.diagnostics["n"] == 50


def test_fit_is_deterministic_per_seed(dataset):
    config = RunConfig(method="fairkm", k=2, seed=9)
    one = fit(config, dataset)
    two = fit(config, dataset)
    np.testing.assert_array_equal(one.centers, two.centers)


def test_load_alias(tmp_path, dataset):
    model = fit(RunConfig(method="fairkm", k=2, seed=0), dataset)
    path = model.save(tmp_path / "m")
    loaded = load(path)
    np.testing.assert_array_equal(loaded.centers, model.centers)


def test_evaluate_model(dataset):
    model = fit(RunConfig(method="fairkm", k=2, seed=0), dataset)
    ev = evaluate_model(model, dataset)
    assert ev.co > 0.0
    assert {a.name for a in ev.fairness.attributes} == {"color", "shade", "age"}


@pytest.mark.parametrize("method", sorted(METHOD_REGISTRY))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_rejects_non_finite_points_for_every_method(method, bad):
    rng = np.random.default_rng(0)
    points = rng.normal(size=(40, 3))
    points[7, 1] = bad
    with pytest.raises(ValueError, match=r"points must be finite \(no NaN or inf\)"):
        fit(RunConfig(method=method, k=3, seed=0), points,
            sensitive={"group": rng.integers(0, 2, 40)})
