"""Injected proxy faults: dead-lane replay and version-skew re-deal.

npy and streamed bodies go through the same dealer, so every fault is
injected into both. Every fault offset must yield either a
bit-identical answer (replayed on a survivor, or re-dealt) or a typed
error — never a silently wrong or partial response.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.serving.proxy as proxy_module
from repro.api import ClusterModel, RunConfig
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.serving import (
    FleetProxy,
    FleetSupervisor,
    ModelRegistry,
    ServingClient,
)
from repro.serving.proxy import WORKER_HEADER

D = 4
ROWS, CHUNK = 40, 8
N_FRAMES = ROWS // CHUNK  # 5 dealt frames per request
BODIES = ("stream", "npy")


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    rng = np.random.default_rng(17)
    model = ClusterModel(rng.normal(size=(3, D)) * 2, RunConfig(method="kmeans", k=3))
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    version = registry.publish(model, label="faults")
    probe = rng.normal(size=(ROWS, D))
    # Huge heartbeat: the monitor never interferes with injected deaths.
    with FleetSupervisor(registry, workers=2, heartbeat_s=60.0) as supervisor:
        yield supervisor, model, version, probe


@contextlib.contextmanager
def _dealt(*, spread=False):
    """Deal every request as frames of CHUNK rows; with *spread*, over
    both lanes (a stream opens its second lane at once, an npy body is
    split into two runs)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(proxy_module, "DEFAULT_STREAM_CHUNK", CHUNK)
        if spread:
            patch.setattr(proxy_module, "MIN_DEAL_BYTES", 1)
            patch.setattr(proxy_module, "MIN_SCATTER_ROWS", 1)
        yield


def _assign(client, body, points):
    if body == "npy":
        return client.assign(points, npy=True)
    return client.assign_stream(points, chunk_size=CHUNK)


def _total(proxy, name):
    """Sum over every series of the proxy's counter *name*."""
    (family,) = [f for f in proxy.metrics.collect() if f["name"] == name]
    return sum(series["value"] for series in family["series"])


def _npy_bytes(array):
    out = io.BytesIO()
    np.save(out, array, allow_pickle=False)
    return out.getvalue()


def _all_offsets(func):
    """Guarantee hypothesis visits *every* frame boundary at least once."""
    for offset in range(N_FRAMES):
        func = example(offset=offset)(func)
    return func


@pytest.mark.parametrize("body", BODIES)
@_all_offsets
@given(offset=st.integers(min_value=0, max_value=N_FRAMES - 1))
@settings(
    max_examples=N_FRAMES * 2,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_dead_lane_replays_on_survivor_at_every_frame_boundary(fleet, body, offset):
    """A lane whose worker 'dies' mid-request at frame *offset* replays
    its dealt frames on the surviving worker, bit-identically."""
    supervisor, model, version, probe = fleet
    plan = FaultPlan(
        [FaultEvent(site="proxy.lane0.frame", at=offset, kind="disconnect")]
    )
    with _dealt(), FleetProxy(supervisor, fault_injector=FaultInjector(plan)) as proxy:
        with ServingClient(url=proxy.url) as client:
            response = _assign(client, body, probe)
            np.testing.assert_array_equal(response.labels, model.predict(probe))
            assert response.version == version
            assert _total(proxy, "repro_proxy_lane_replays_total") >= 1
            # The poisoned worker url stays dead for the injector, so
            # the lane must have completed on the *other* worker.
            status, headers, _ = client.request_raw(
                "POST", "/assign", _npy_bytes(probe), "application/x-npy"
            )
            assert status == 200
            assert headers[WORKER_HEADER] in {"0", "1"}


def test_dead_lane_replay_with_distances(fleet):
    supervisor, model, version, probe = fleet
    plan = FaultPlan(
        [FaultEvent(site="proxy.lane0.frame", at=2, kind="disconnect")]
    )
    with FleetProxy(supervisor, fault_injector=FaultInjector(plan)) as proxy:
        with ServingClient(url=proxy.url) as client:
            response = client.assign_stream(
                probe, chunk_size=CHUNK, return_distance=True
            )
            expected_labels, expected_distances = model.assign(
                probe, return_distance=True
            )
            np.testing.assert_array_equal(response.labels, expected_labels)
            np.testing.assert_array_equal(response.distances, expected_distances)


@pytest.mark.parametrize("body", BODIES)
def test_version_skew_redeals_bit_identically(fleet, body):
    """Lanes that disagree on the serving version (rollout mid-deal)
    are re-dealt on a fresh dealer; the answer stays bit-identical."""
    supervisor, model, version, probe = fleet
    injector = FaultInjector(
        FaultPlan([FaultEvent(site="proxy.lane.version", at=0, kind="skew")])
    )
    with _dealt(spread=True), FleetProxy(supervisor, fault_injector=injector) as proxy:
        with ServingClient(url=proxy.url) as client:
            response = _assign(client, body, probe)
            np.testing.assert_array_equal(response.labels, model.predict(probe))
            # The client-visible version is the clean one, never the
            # skew-tagged lane answer.
            assert response.version == version
            # Two lanes were skewed, then two lanes re-dealt the batch.
            assert injector.count("proxy.lane.version") == 4
            assert _total(proxy, "repro_proxy_lane_requests_total") == 4


@pytest.mark.parametrize("body", BODIES)
def test_multi_lane_disconnect_still_bit_identical(fleet, body):
    """Disconnect with two live lanes: only the poisoned lane replays."""
    supervisor, model, version, probe = fleet
    plan = FaultPlan(
        [FaultEvent(site="proxy.lane1.frame", at=1, kind="disconnect")]
    )
    with _dealt(spread=True), FleetProxy(supervisor, fault_injector=FaultInjector(plan)) as proxy:
        with ServingClient(url=proxy.url) as client:
            response = _assign(client, body, probe)
            np.testing.assert_array_equal(response.labels, model.predict(probe))
            assert response.version == version
            assert _total(proxy, "repro_proxy_lane_replays_total") == 1
