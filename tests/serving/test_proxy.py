"""The fleet proxy: round-robin, failover, stamping, admin endpoints."""

from __future__ import annotations

import io
import json
import os
import signal
import time

import numpy as np
import pytest

import repro.serving.proxy as proxy_module
from repro.api import ClusterModel, RunConfig
from repro.serving import (
    FleetProxy,
    FleetSupervisor,
    ModelRegistry,
    ServingClient,
    ServingClientError,
)
from repro.serving import wire
from repro.serving.proxy import WORKER_HEADER
from repro.serving.server import NPY_CONTENT_TYPE, VERSION_HEADER

D = 4


@pytest.fixture
def fleet(tmp_path):
    rng = np.random.default_rng(5)
    model = ClusterModel(rng.normal(size=(3, D)), RunConfig(method="kmeans", k=3))
    registry = ModelRegistry(tmp_path / "registry")
    version = registry.publish(model, label="a")
    # Huge heartbeat: killed workers stay dead, so failover is observable.
    with FleetSupervisor(registry, workers=2, heartbeat_s=60.0) as supervisor:
        with FleetProxy(supervisor) as proxy:
            probe = rng.normal(size=(30, D))
            yield supervisor, proxy, registry, model, version, probe


def test_round_robin_stamps_worker_and_version(fleet):
    _, proxy, _, model, version, probe = fleet
    with ServingClient(url=proxy.url) as client:
        workers_seen = set()
        for _ in range(4):
            status, headers, payload = client.request_raw("GET", "/healthz")
            assert status == 200
            assert headers[VERSION_HEADER] == version
            workers_seen.add(headers[WORKER_HEADER])
        assert workers_seen == {"0", "1"}  # strict alternation over 2 workers

        response = client.assign(probe)
        assert response.version == version
        np.testing.assert_array_equal(response.labels, model.predict(probe))


def test_failover_skips_dead_worker(fleet):
    supervisor, proxy, _, model, version, probe = fleet
    victim = supervisor.status()["workers"][0]
    os.kill(victim["pid"], signal.SIGKILL)
    time.sleep(0.1)
    with ServingClient(url=proxy.url) as client:
        # Every round-robin position must succeed via the survivor.
        for _ in range(4):
            status, headers, payload = client.request_raw("GET", "/healthz")
            assert status == 200
            assert headers[WORKER_HEADER] == "1"
        response = client.assign(probe)
        assert response.version == version
        np.testing.assert_array_equal(response.labels, model.predict(probe))


def test_no_reachable_worker_is_503(fleet):
    supervisor, proxy, _, _, _, probe = fleet
    for worker in supervisor.status()["workers"]:
        os.kill(worker["pid"], signal.SIGKILL)
    time.sleep(0.1)
    with ServingClient(url=proxy.url) as client:
        with pytest.raises(ServingClientError, match="no reachable") as excinfo:
            client.healthz()
        assert excinfo.value.status == 503


def test_per_worker_reload_is_refused(fleet):
    """Reloading one worker behind the proxy would fork the fleet
    version around the canary process: the proxy refuses."""
    _, proxy, _, _, _, _ = fleet
    with ServingClient(url=proxy.url) as client:
        with pytest.raises(ServingClientError, match="admin/rollout") as excinfo:
            client.reload()
        assert excinfo.value.status == 403


def test_admin_status_endpoint(fleet):
    supervisor, proxy, registry, _, version, _ = fleet
    with ServingClient(url=proxy.url) as client:
        data = client.request_json("GET", "/admin/status")
    assert data["version"] == version
    assert data["registry"] == str(registry.root)
    assert [w["index"] for w in data["workers"]] == [0, 1]
    assert all(w["healthy"] for w in data["workers"])


def test_admin_rollout_endpoint(fleet):
    supervisor, proxy, registry, _, version, probe = fleet
    rng = np.random.default_rng(9)
    other = ClusterModel(rng.normal(size=(4, D)), RunConfig(method="kmeans", k=4))
    v2 = registry.publish(other, label="b", set_latest=False)
    with ServingClient(url=proxy.url) as client:
        # Malformed bodies are 400s, unknown versions 409s.
        with pytest.raises(ServingClientError) as excinfo:
            client.request_json("POST", "/admin/rollout", b"not json")
        assert excinfo.value.status == 400
        status, _, payload = client.request_raw(
            "POST", "/admin/rollout", json.dumps({"version": "v9999"}).encode()
        )
        assert status == 409
        assert "rejected at load" in json.loads(payload)["reason"]

        status, _, payload = client.request_raw(
            "POST", "/admin/rollout", json.dumps({"version": v2}).encode()
        )
        report = json.loads(payload)
        assert status == 200 and report["ok"]
        assert report["previous"] == version and report["version"] == v2
        response = client.assign(probe)
        assert response.version == v2
        np.testing.assert_array_equal(response.labels, other.predict(probe))
    assert registry.latest_version() == v2


def test_non_finite_points_through_proxy_are_400(fleet):
    """Scattered npy and stream bodies with a NaN or inf row are a 400."""
    _, proxy, _, model, _, probe = fleet
    with ServingClient(url=proxy.url) as client:
        for bad in (np.nan, -np.inf):
            points = probe.copy()
            points[-1, 0] = bad
            for send in (lambda: client.assign(points, npy=True),
                         lambda: client.assign_stream(points)):
                with pytest.raises(ServingClientError, match="finite") as excinfo:
                    send()
                assert excinfo.value.status == 400
        response = client.assign(probe, npy=True)
        np.testing.assert_array_equal(response.labels, model.predict(probe))


def _npy_bytes(array):
    out = io.BytesIO()
    np.save(out, array, allow_pickle=False)
    return out.getvalue()


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("edge", ["empty", "float32", "int64", "fortran"])
def test_npy_edge_bodies_match_predict(fleet, monkeypatch, edge, split):
    """Zero-row, float32, int64 and Fortran-order npy bodies come back
    as int64 labels equal to in-process predict, on one lane or two."""
    _, proxy, _, model, _, probe = fleet
    if split:
        monkeypatch.setattr(proxy_module, "MIN_SCATTER_ROWS", 1)
    points = {
        "empty": np.zeros((0, D)),
        "float32": probe.astype(np.float32),
        "int64": np.rint(probe * 3).astype(np.int64),
        "fortran": np.asfortranarray(probe),
    }[edge]
    with ServingClient(url=proxy.url) as client:
        status, headers, payload = client.request_raw(
            "POST", "/assign", _npy_bytes(points), NPY_CONTENT_TYPE
        )
    assert status == 200
    labels = wire.decode_npy(payload)
    assert labels.dtype == np.int64
    np.testing.assert_array_equal(labels, model.predict(points))
    if split and edge != "empty":
        assert headers[WORKER_HEADER] in {"0,1", "1,0"}


@pytest.mark.slow
def test_wide_npy_body_is_framed_under_the_frame_cap(tmp_path):
    """8,192 rows of 1,100 float64 columns would be one 72 MB frame,
    over the wire's 64 MiB frame cap: the proxy deals it in smaller
    frames, and the answer matches a direct worker's."""
    rng = np.random.default_rng(11)
    wide = 1100
    model = ClusterModel(
        rng.normal(size=(3, wide)), RunConfig(method="kmeans", k=3)
    )
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(model, label="wide")
    points = rng.normal(size=(8192, wide))
    assert points.nbytes > wire.MAX_FRAME_BYTES
    with FleetSupervisor(registry, workers=1, heartbeat_s=60.0) as supervisor:
        with FleetProxy(supervisor) as proxy:
            with ServingClient(url=proxy.url, timeout=120.0) as client:
                response = client.assign(points, npy=True)
    np.testing.assert_array_equal(response.labels, model.predict(points))
