"""The streamed serving path: bit-identity, negotiation, failure modes.

The correctness bar for the streaming transport: a streamed ``/assign``
must concatenate to exactly what in-process ``predict`` produces — at
every chunk size, every worker count, every registered method, both
transports (TCP and unix sockets), with and without distances — and a
malformed or disconnecting peer must produce a typed error plus a
server that keeps serving, never a partial batch.
"""

from __future__ import annotations

import http.client
import socket

import numpy as np
import pytest

from repro.api import METHOD_REGISTRY, ClusterModel, RunConfig, fit
from repro.serving import (
    AssignmentServer,
    FleetProxy,
    FleetSupervisor,
    ModelRegistry,
    ServingClient,
    ServingClientError,
)
from repro.serving import wire
from repro.serving.proxy import WORKER_HEADER
from repro.serving.server import STREAM_CONTENT_TYPE, VERSION_HEADER

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
    """(server, client, model, version) around one published kmeans fit."""
    points, _, _ = data
    model = fit(RunConfig(method="kmeans", k=K, seed=0), points)
    registry = ModelRegistry(tmp_path / "registry")
    version = registry.publish(model, label="stream")
    with AssignmentServer(registry=registry) as server:
        with ServingClient(url=server.url) as client:
            yield server, client, model, version


# --------------------------------------------------------------------- #
# Bit-identity                                                            #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("method", sorted(METHOD_REGISTRY))
def test_streamed_equals_buffered_equals_predict_per_method(
    tmp_path, data, method
):
    """streamed == buffered npy == in-process predict, every method."""
    points, sensitive, probe = data
    model = fit(RunConfig(method=method, k=K, seed=0, max_iter=5), points,
                sensitive=sensitive)
    registry = ModelRegistry(tmp_path / "registry")
    version = registry.publish(model, label=method.replace("_", "-"))
    with AssignmentServer(registry=registry) as server:
        with ServingClient(url=server.url) as client:
            expected = model.predict(probe)
            buffered = client.assign(probe)
            streamed = client.assign_stream(probe)
            np.testing.assert_array_equal(buffered.labels, expected)
            np.testing.assert_array_equal(streamed.labels, expected)
            assert streamed.version == buffered.version == version


@pytest.mark.parametrize("chunk_size", [1, 7, 64, 1024, None])
def test_streamed_bit_identity_across_chunk_sizes(served, data, chunk_size):
    _, client, model, version = served
    _, _, probe = data
    expected = model.predict(probe)
    response = client.assign_stream(probe, chunk_size=chunk_size)
    np.testing.assert_array_equal(response.labels, expected)
    assert response.version == version


@pytest.mark.parametrize("codec,accept", [
    ("identity", None),
    ("gzip", None),
    ("gzip", "identity"),
    ("identity", "gzip"),
    ("zstd", "zstd"),  # downgrades to gzip where no zstd module exists
])
def test_streamed_bit_identity_across_codecs(served, data, codec, accept):
    _, client, model, _ = served
    _, _, probe = data
    response = client.assign_stream(probe, codec=codec, accept=accept)
    np.testing.assert_array_equal(response.labels, model.predict(probe))


def test_streamed_distances_match_in_process(served, data):
    from repro.api.assign import Assigner

    _, client, model, _ = served
    _, _, probe = data
    expected_labels, expected_dists = Assigner(model.centers).assign(
        probe, return_distance=True
    )
    response = client.assign_stream(probe, return_distance=True)
    np.testing.assert_array_equal(response.labels, expected_labels)
    np.testing.assert_array_equal(response.distances, expected_dists)


def test_streamed_empty_batch(served):
    _, client, _, version = served
    response = client.assign_stream(np.empty((0, D)))
    assert response.labels.shape == (0,)
    assert response.version == version


def test_streamed_iterable_source(served, data):
    _, client, model, _ = served
    _, _, probe = data
    batches = [probe[:13], probe[13:13], probe[13:]]  # includes an empty one
    response = client.assign_stream(iter(batches))
    np.testing.assert_array_equal(response.labels, model.predict(probe))


def test_streamed_over_unix_socket(tmp_path, data):
    points, _, probe = data
    model = fit(RunConfig(method="kmeans", k=K, seed=0), points)
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(model, label="uds")
    uds = tmp_path / "assign.sock"
    with AssignmentServer(registry=registry, uds=uds) as server:
        assert server.url == f"http+unix://{uds}"
        with ServingClient(url=server.url) as client:
            response = client.assign_stream(probe, chunk_size=17)
            np.testing.assert_array_equal(response.labels, model.predict(probe))


# --------------------------------------------------------------------- #
# Worker counts: the fleet must preserve bit-identity while dealing       #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("workers", [1, 2])
def test_fleet_streamed_bit_identity_across_worker_counts(
    tmp_path, data, workers
):
    points, _, _ = data
    rng = np.random.default_rng(11)
    big = rng.normal(1.5, 2.0, (30_000, D))  # big enough to open lanes
    model = fit(RunConfig(method="kmeans", k=K, seed=0), points)
    registry = ModelRegistry(tmp_path / "registry")
    version = registry.publish(model, label="fleet")
    expected = model.predict(big)
    with FleetSupervisor(registry, workers=workers, heartbeat_s=60.0) as fleet:
        with FleetProxy(fleet) as proxy:
            with ServingClient(url=proxy.url) as client:
                for chunk_size in (4096, None):
                    response = client.assign_stream(big, chunk_size=chunk_size)
                    np.testing.assert_array_equal(response.labels, expected)
                    assert response.version == version
                distanced = client.assign_stream(big, return_distance=True)
                np.testing.assert_array_equal(distanced.labels, expected)
                assert distanced.distances is not None
                assert distanced.distances.shape == expected.shape


def test_fleet_deals_big_streams_across_workers(tmp_path, data):
    """A large stream is dealt to >1 worker and stitched in deal order."""
    points, _, _ = data
    rng = np.random.default_rng(13)
    big = rng.normal(1.5, 2.0, (30_000, D))
    model = fit(RunConfig(method="kmeans", k=K, seed=0), points)
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(model, label="deal")
    with FleetSupervisor(registry, workers=2, heartbeat_s=60.0) as fleet:
        with FleetProxy(fleet) as proxy:
            body = wire.encode_stream(
                [big[start : start + 4096] for start in range(0, len(big), 4096)]
            )
            conn = http.client.HTTPConnection(
                proxy.server_address[0], proxy.port, timeout=30
            )
            try:
                conn.request(
                    "POST", "/assign", body,
                    {"Content-Type": STREAM_CONTENT_TYPE},
                )
                response = conn.getresponse()
                assert response.status == 200
                workers = response.getheader(WORKER_HEADER, "")
                assert set(workers.split(",")) == {"0", "1"}
                labels, _ = wire.decode_stream(response.read())
            finally:
                conn.close()
            np.testing.assert_array_equal(
                np.concatenate(labels), model.predict(big)
            )


def test_fleet_relays_stream_frames_whole(tmp_path):
    """Request frames reach the lanes as the client framed them.

    Frames of 2,341 rows x 28 float64 columns are just over 512 KiB.
    Cutting one into a 2,340-row slice and a one-row slice would score
    that last row by a matrix-vector product, whose rounding differs
    from the matrix-matrix product a single server applies to the whole
    frame. Relayed whole, every label and distance is bit-equal to a
    single server's, and the response has one label frame (plus one
    distances frame) per request frame.
    """
    rng = np.random.default_rng(5)
    model = ClusterModel(rng.normal(size=(15, 28)), RunConfig(method="kmeans", k=15))
    frames = [rng.normal(size=(2341, 28)) for _ in range(40)]
    body = wire.encode_stream(frames, distances=True)
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(model, label="whole")
    with AssignmentServer(registry=registry) as server:
        status, single = _post_stream_raw(server, body)
    assert status == 200
    with FleetSupervisor(registry, workers=2, heartbeat_s=60.0) as fleet:
        with FleetProxy(fleet) as proxy:
            status, relayed = _post_stream_raw(proxy, body)
    assert status == 200
    expected, _ = wire.decode_stream(single)
    got, reader = wire.decode_stream(relayed)
    assert reader.distances
    np.testing.assert_array_equal(np.concatenate(got[0::2]), np.concatenate(expected[0::2]))
    np.testing.assert_array_equal(np.concatenate(got[1::2]), np.concatenate(expected[1::2]))
    assert len(got) == len(expected) == 2 * len(frames)


def test_fleet_stream_survives_worker_crash(tmp_path, data):
    """A lane whose worker is gone replays its frames on the survivor."""
    import os
    import signal
    import time

    points, _, _ = data
    rng = np.random.default_rng(17)
    big = rng.normal(1.5, 2.0, (30_000, D))
    model = fit(RunConfig(method="kmeans", k=K, seed=0), points)
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(model, label="crash")
    with FleetSupervisor(registry, workers=2, heartbeat_s=60.0) as fleet:
        with FleetProxy(fleet) as proxy:
            with ServingClient(url=proxy.url) as client:
                victim = fleet.status()["workers"][0]
                os.kill(victim["pid"], signal.SIGKILL)
                time.sleep(0.1)
                response = client.assign_stream(big)
                np.testing.assert_array_equal(
                    response.labels, model.predict(big)
                )


# --------------------------------------------------------------------- #
# Failure modes: typed errors, no partial batches, server stays up        #
# --------------------------------------------------------------------- #


def _post_stream_raw(server, body: bytes) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(server.server_address[0], server.port, timeout=30)
    try:
        conn.request(
            "POST", "/assign", body, {"Content-Type": STREAM_CONTENT_TYPE}
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def test_malformed_stream_is_typed_400(served, data):
    server, client, model, _ = served
    _, _, probe = data
    for body in (
        b"XXXX" + wire.encode_stream([probe])[4:],  # bad magic
        wire.encode_stream([probe])[:-4],  # truncated mid-terminator
        wire.encode_header("identity")
        + wire.frame_payload(b"garbage")
        + wire.terminator(),  # undecodable frame
    ):
        status, payload = _post_stream_raw(server, body)
        assert status == 400
        assert b"error" in payload
    # The server is still healthy and still serves the stream path.
    response = client.assign_stream(probe)
    np.testing.assert_array_equal(response.labels, model.predict(probe))


def test_oversized_frame_is_typed_400(served):
    server, _, _, _ = served
    body = wire.encode_header("identity") + wire._LENGTH.pack(2**60)
    status, payload = _post_stream_raw(server, body)
    assert status in (400, 413)
    assert b"error" in payload


def test_mid_stream_disconnect_leaves_no_partial_state(served, data):
    """A peer that vanishes mid-frame must not wedge or corrupt the server."""
    server, client, model, _ = served
    _, _, probe = data
    frame = b"".join(wire.encode_frame(np.ascontiguousarray(probe)))
    partial = wire.encode_header("identity") + frame[: len(frame) // 2]
    sock = socket.create_connection((server.server_address[0], server.port), timeout=10)
    try:
        sock.sendall(
            b"POST /assign HTTP/1.1\r\n"
            b"Host: test\r\n"
            b"Content-Type: " + STREAM_CONTENT_TYPE.encode() + b"\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
        )
        sock.sendall(b"%x\r\n" % len(partial) + partial + b"\r\n")
    finally:
        sock.close()  # disconnect with the frame half-sent
    # The server keeps serving, and a fresh stream is complete and exact —
    # nothing of the dead request leaked into this one.
    response = client.assign_stream(probe)
    np.testing.assert_array_equal(response.labels, model.predict(probe))
    assert response.labels.shape[0] == probe.shape[0]


def test_stream_error_carries_version_header(served, data):
    """Even a 400 names the serving version (operability bar)."""
    server, _, _, version = served
    conn = http.client.HTTPConnection(server.server_address[0], server.port, timeout=30)
    try:
        conn.request(
            "POST", "/assign", b"XXXXXXXX" + wire.terminator(),
            {"Content-Type": STREAM_CONTENT_TYPE},
        )
        response = conn.getresponse()
        assert response.status == 400
        response.read()
        assert response.getheader(VERSION_HEADER) in (version, None)
    finally:
        conn.close()


def test_wrong_dimensionality_is_client_error(served):
    _, client, _, _ = served
    with pytest.raises(ServingClientError) as excinfo:
        client.assign_stream(np.ones((4, D + 2)))
    assert excinfo.value.status == 400
