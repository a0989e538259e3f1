"""The assignment server: endpoints, payload formats, hot-reload."""

from __future__ import annotations

import http.client
import io
import tracemalloc

import numpy as np
import pytest

from repro.api import METHOD_REGISTRY, Assigner, ClusterModel, RunConfig, fit
from repro.serving import (
    AssignmentServer,
    ModelRegistry,
    ServingClient,
)
from repro.serving import wire
from repro.serving.client import ServingClientError
from repro.serving.server import NPY_CONTENT_TYPE

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


def _npy_bytes(array):
    out = io.BytesIO()
    np.save(out, array, allow_pickle=False)
    return out.getvalue()


@pytest.fixture
def wide_server(tmp_path):
    """A server of 15 centers over 28 features (Adult-like rows)."""
    centers = np.random.default_rng(31).normal(size=(15, 28))
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(ClusterModel(centers, RunConfig(method="kmeans", k=15)), label="wide")
    with AssignmentServer(registry=registry) as server:
        yield server, Assigner(centers)


def test_npy_body_is_scored_window_by_window(wide_server):
    """A 200,000 x 28 npy body (44.8 MB) is read chunk_size rows at a
    time: the traced peak stays far below the body, whose whole-body
    read alone would allocate it once more."""
    server, assigner = wide_server
    points = np.random.default_rng(37).normal(size=(200_000, 28))
    body = _npy_bytes(points)
    with ServingClient(url=server.url, timeout=60.0) as client:
        client.healthz()  # connect outside the traced window
        tracemalloc.start()
        try:
            status, _, payload = client.request_raw("POST", "/assign", body, NPY_CONTENT_TYPE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert status == 200
    np.testing.assert_array_equal(wire.decode_npy(payload), assigner.assign(points))
    assert peak < len(body) / 4, f"traced peak {peak / 1e6:.1f} MB"


def test_malformed_npy_bodies_keep_the_connection(wide_server):
    """A body cut inside its npy header (400), a header promising more
    rows than the body holds (400), a header whose shape would need a
    petabyte window (400, refused before any window is allocated) and bytes trailing
    the array (200, ignored) each leave the keep-alive connection
    serving."""
    server, assigner = wide_server
    rng = np.random.default_rng(41)
    points = rng.normal(size=(9000, 28))
    body = _npy_bytes(points)
    promising = _npy_bytes(np.zeros((9005, 28)))[: len(body) - points.nbytes] + points.tobytes()
    huge = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        huge, {"descr": "<f8", "fortran_order": False, "shape": (8192, 2**37)}
    )
    huge = huge.getvalue() + points[:10].tobytes()
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        conn.connect()
        sock = conn.sock
        for bad, status, reason in (
            (body[:40], 400, b"invalid npy payload"),
            (promising, 400, b"header promises"),
            (huge, 400, b"header promises"),
            (body + b"\0" * 100, 200, b""),
        ):
            conn.request("POST", "/assign", bad, {"Content-Type": NPY_CONTENT_TYPE})
            response = conn.getresponse()
            payload = response.read()
            assert response.status == status, payload[:200]
            assert status == 200 or reason in payload, payload[:200]
            assert not response.will_close
            if status == 200:
                np.testing.assert_array_equal(wire.decode_npy(payload), assigner.assign(points))
            probe = points[:100]
            conn.request("POST", "/assign", _npy_bytes(probe), {"Content-Type": NPY_CONTENT_TYPE})
            response = conn.getresponse()
            assert response.status == 200
            np.testing.assert_array_equal(
                wire.decode_npy(response.read()), assigner.assign(probe)
            )
            assert conn.sock is sock  # the same connection served both
    finally:
        conn.close()
