"""The assignment server: endpoints, payload formats, hot-reload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import METHOD_REGISTRY, RunConfig, fit
from repro.serving import (
    AssignmentServer,
    ModelRegistry,
    ServingClient,
)
from repro.serving.client import ServingClientError

N, D, K = 240, 5, 3


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    points = np.vstack(
        [rng.normal(0, 1, (N // 2, D)), rng.normal(4, 1, (N - N // 2, D))]
    )
    codes = rng.integers(0, 2, N)
    probe = rng.normal(1.5, 2.0, (80, D))
    return points, {"group": codes}, probe


@pytest.fixture
def served(tmp_path, data):
    """(registry, server, client, model) around one published fairkm fit."""
    points, sensitive, _ = data
    model = fit(RunConfig(method="fairkm", k=K, max_iter=5), points, sensitive=sensitive)
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(model, label="fairkm")
    server = AssignmentServer(registry=registry).start()
    client = ServingClient(port=server.port)
    yield registry, server, client, model
    client.close()
    server.stop()


@pytest.mark.parametrize("method", sorted(METHOD_REGISTRY))
def test_served_labels_bit_identical_per_method(tmp_path, data, method):
    """HTTP /assign equals ClusterModel.predict for every registered method."""
    points, sensitive, probe = data
    model = fit(RunConfig(method=method, k=K, seed=0, max_iter=5), points,
                sensitive=sensitive)
    registry = ModelRegistry(tmp_path / "registry")
    version = registry.publish(model, label=method.replace("_", "-"))
    with AssignmentServer(registry=registry) as server:
        with ServingClient(port=server.port) as client:
            expected = model.predict(probe)
            for npy in (True, False):
                response = client.assign(probe, npy=npy)
                np.testing.assert_array_equal(response.labels, expected)
                assert response.version == version


def test_healthz_and_model_info(served):
    registry, _, client, model = served
    health = client.healthz()
    assert health["status"] == "ok"
    assert health["version"] == registry.latest_version()
    info = client.model_info()
    assert info["method"] == "fairkm"
    assert info["k"] == K
    assert info["n_features"] == D
    assert info["attributes"] == ["group"]
    assert "fairkm" in info["summary"]


def test_json_chunk_size_is_honored(served, data):
    _, _, client, model = served
    _, _, probe = data
    baseline = model.predict(probe)
    response = client.assign(probe, npy=False, chunk_size=7)
    np.testing.assert_array_equal(response.labels, baseline)


def test_hot_reload_on_publish(served, data):
    registry, _, client, _ = served
    points, _, probe = data
    other = fit(RunConfig(method="kmeans", k=K + 1), points)
    before = client.assign(probe)
    v2 = registry.publish(other, label="kmeans")
    response = client.assign(probe)  # mtime of LATEST moved -> hot reload
    assert response.version == v2 != before.version
    np.testing.assert_array_equal(response.labels, other.predict(probe))


def test_reload_after_rollback(served, data):
    registry, _, client, model = served
    points, _, probe = data
    v1 = registry.latest_version()
    registry.publish(fit(RunConfig(method="kmeans", k=K + 1), points))
    assert client.assign(probe).version != v1
    registry.rollback()
    result = client.reload()
    assert result["version"] == v1 and result["changed"] is True
    np.testing.assert_array_equal(client.assign(probe).labels, model.predict(probe))


def test_half_published_registry_keeps_serving(served, data):
    """A broken LATEST pointer must not take down live traffic."""
    registry, _, client, model = served
    _, _, probe = data
    v1 = registry.latest_version()
    registry.pointer_path.write_text("v9999\n")  # stale pointer, mtime moved
    response = client.assign(probe)
    assert response.version == v1
    np.testing.assert_array_equal(response.labels, model.predict(probe))
    with pytest.raises(ServingClientError, match="v9999"):
        client.reload()  # the explicit reload surfaces the problem


def test_pinned_server_ignores_pointer_moves(tmp_path, data):
    """follow=False: only an explicit reload moves the serving version."""
    points, sensitive, probe = data
    model = fit(RunConfig(method="fairkm", k=K, max_iter=5), points,
                sensitive=sensitive)
    registry = ModelRegistry(tmp_path / "registry")
    v1 = registry.publish(model, label="one")
    other = fit(RunConfig(method="kmeans", k=K + 1), points)
    with AssignmentServer(registry=registry, follow=False) as server:
        with ServingClient(port=server.port) as client:
            assert client.healthz()["follow"] is False
            v2 = registry.publish(other, label="two")  # pointer moves...
            response = client.assign(probe)
            assert response.version == v1  # ...the pinned server doesn't
            np.testing.assert_array_equal(response.labels, model.predict(probe))
            # Explicit version-pinned reload moves exactly where told.
            assert client.reload(v1)["version"] == v1
            # A bare reload re-resolves LATEST.
            assert client.reload()["version"] == v2
            np.testing.assert_array_equal(
                client.assign(probe).labels, other.predict(probe)
            )


def test_pin_version_startup(tmp_path, data):
    """pin_version= serves an older version even when LATEST moved on."""
    points, sensitive, probe = data
    model = fit(RunConfig(method="fairkm", k=K, max_iter=5), points,
                sensitive=sensitive)
    registry = ModelRegistry(tmp_path / "registry")
    v1 = registry.publish(model, label="one")
    registry.publish(fit(RunConfig(method="kmeans", k=K + 1), points))
    with AssignmentServer(registry=registry, pin_version=v1) as server:
        assert server.follow is False  # pinning implies not following
        with ServingClient(port=server.port) as client:
            response = client.assign(probe)
            assert response.version == v1
            np.testing.assert_array_equal(response.labels, model.predict(probe))


def test_explicit_pin_on_follow_server_is_one_shot(served, data):
    """A follow-mode server honors a pinned reload for inspection, but
    the next request re-resolves LATEST — it must not silently serve an
    old version forever while reporting follow=true."""
    registry, _, client, _ = served
    points, _, probe = data
    v1 = registry.latest_version()
    other = fit(RunConfig(method="kmeans", k=K + 1), points)
    v2 = registry.publish(other, label="kmeans")
    assert client.assign(probe).version == v2
    assert client.reload(v1)["version"] == v1  # pin for inspection...
    assert client.assign(probe).version == v2  # ...following resumes


def test_pin_version_requires_registry(tmp_path, data):
    points, sensitive, _ = data
    model = fit(RunConfig(method="fairkm", k=K, max_iter=5), points,
                sensitive=sensitive)
    artifact = model.save(tmp_path / "artifact")
    with pytest.raises(ValueError, match="registry"):
        AssignmentServer(model_path=artifact, pin_version="v0001")


def test_reload_rejects_unknown_version(served):
    _, _, client, _ = served
    with pytest.raises(ServingClientError, match="v9999"):
        client.reload("v9999")
    with pytest.raises(ServingClientError, match="version"):
        client.request_json("POST", "/reload", b'{"version": 3}')


def test_static_model_path_mode(tmp_path, data):
    points, sensitive, probe = data
    model = fit(RunConfig(method="fairkm", k=K, max_iter=5), points,
                sensitive=sensitive)
    artifact = model.save(tmp_path / "artifact-dir")
    with AssignmentServer(model_path=artifact) as server:
        with ServingClient(url=server.url) as client:
            assert client.healthz()["version"] == "artifact-dir"
            np.testing.assert_array_equal(
                client.assign(probe).labels, model.predict(probe)
            )


def test_empty_batch_matches_in_process_predict(served):
    """A (0, d) npy batch returns empty labels, exactly like predict."""
    _, _, client, model = served
    empty = np.empty((0, D))
    assert model.predict(empty).shape == (0,)
    response = client.assign(empty, npy=True)  # npy preserves (0, d)
    assert response.labels.shape == (0,)
    assert response.version
    # JSON cannot express (0, d) — the payload collapses to [] — so the
    # server rejects it exactly like in-process predict rejects the
    # same decoded shape.
    with pytest.raises(ServingClientError, match="features"):
        client.assign(empty, npy=False)


def test_request_errors(served):
    _, server, client, _ = served
    with pytest.raises(ServingClientError, match="features"):
        client.assign(np.zeros((4, D + 2)))
    with pytest.raises(ServingClientError) as excinfo:
        client.request_json("GET", "/nope")
    assert excinfo.value.status == 404
    with pytest.raises(ServingClientError) as excinfo:
        client.request_json("POST", "/assign", b"not json")
    assert excinfo.value.status == 400
    with pytest.raises(ServingClientError, match="points"):
        client.request_json("POST", "/assign", b'{"rows": []}')
    with pytest.raises(ServingClientError, match="chunk_size"):
        client.request_json("POST", "/assign", b'{"points": [[0,0,0,0,0]], "chunk_size": "x"}')


def test_server_requires_exactly_one_source(tmp_path):
    with pytest.raises(ValueError, match="exactly one"):
        AssignmentServer()
    with pytest.raises(ValueError, match="exactly one"):
        AssignmentServer(registry=tmp_path, model_path=tmp_path)


def test_non_finite_points_are_400_not_labels(served):
    """npy and stream /assign bodies with a NaN or inf row get a 400."""
    _, _, client, _ = served
    for bad in (np.nan, np.inf):
        points = np.ones((6, D))
        points[4, 2] = bad
        for send in (lambda: client.assign(points, npy=True), lambda: client.assign_stream(points)):
            with pytest.raises(ServingClientError, match="finite") as excinfo:
                send()
            assert excinfo.value.status == 400
    # The server is unharmed.
    assert client.assign(np.ones((2, D)), npy=True).labels.shape == (2,)
