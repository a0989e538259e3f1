"""End-to-end tracing: one ``X-Trace-Id`` spans client, proxy, and
every worker lane — including dead-lane replay — and renders as one
tree.

The sink path travels by environment variable: the supervisor spawns
workers *after* ``REPRO_TRACE_SINK`` is set, so the worker processes
inherit it and append their spans to the same JSONL file (O_APPEND
keeps multi-process lines whole).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.api import ClusterModel, RunConfig
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.obs.trace import SINK_ENV, load_spans, render_trace_tree
from repro.serving import (
    FleetProxy,
    FleetSupervisor,
    ModelRegistry,
    ServingClient,
)

D, K = 16, 3
# Frames of CHUNK rows are 256 KiB; the dealer opens the second lane
# once the first holds MIN_DEAL_BYTES (512 KiB), so both workers get
# dealt frames from one streamed request.
ROWS, CHUNK = 12288, 2048


@pytest.fixture
def traced_fleet(tmp_path, monkeypatch):
    sink_path = tmp_path / "spans.jsonl"
    monkeypatch.setenv(SINK_ENV, str(sink_path))
    rng = np.random.default_rng(41)
    model = ClusterModel(rng.normal(size=(K, D)) * 2, RunConfig(method="kmeans", k=K))
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(model, label="traced")
    probe = rng.normal(size=(ROWS, D))
    # Huge heartbeat: the monitor never resurrects the poisoned lane.
    with FleetSupervisor(registry, workers=2, heartbeat_s=60.0) as supervisor:
        yield supervisor, model, probe, sink_path


def _wait_for(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        result = predicate()
        if result:
            return result
        time.sleep(0.05)
    return predicate()


def test_one_trace_spans_scatter_gather_with_dead_lane_replay(traced_fleet):
    supervisor, model, probe, sink_path = traced_fleet
    plan = FaultPlan(
        [FaultEvent(site="proxy.lane0.frame", at=1, kind="disconnect")]
    )
    with FleetProxy(supervisor, fault_injector=FaultInjector(plan)) as proxy:
        with ServingClient(url=proxy.url) as client:
            response = client.assign_stream(probe, chunk_size=CHUNK)
            np.testing.assert_array_equal(response.labels, model.predict(probe))
            trace_id = client.last_trace_id
            # An npy body of the same rows is dealt by the same dealer.
            response = client.assign(probe, npy=True)
            np.testing.assert_array_equal(response.labels, model.predict(probe))
            npy_trace_id = client.last_trace_id
    assert trace_id and len(trace_id) == 32
    assert npy_trace_id and npy_trace_id != trace_id

    def spans_settled():
        spans = [s for s in load_spans(sink_path) if s.trace_id == trace_id]
        workers = {
            s.attrs.get("worker")
            for s in spans
            if s.name == "server.assign" and s.attrs.get("worker")
        }
        return spans if workers >= {"0", "1"} else None

    spans = _wait_for(spans_settled)
    assert spans, "no spans for the request's trace id reached the sink"
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    # The client's ingress span is the root of the whole trace.
    (root,) = by_name["client.assign_stream"]
    assert root.parent_id is None

    # The proxy ingress hangs off the client span; every lane hangs off
    # the proxy ingress.
    (ingress,) = by_name["proxy.assign"]
    assert ingress.parent_id == root.span_id
    assert ingress.attrs["mode"] == "stream"
    lanes = by_name["proxy.lane"]
    assert all(lane.parent_id == ingress.span_id for lane in lanes)

    # The injected dead lane shows up as a replayed attempt, and the
    # scatter really did split across both lanes.
    assert any(lane.attrs.get("replay") for lane in lanes)
    assert len({lane.attrs.get("lane") for lane in lanes}) >= 2
    assert len(lanes) >= 3  # two first attempts + at least one replay

    # Worker spans: both worker indices served frames for this trace,
    # and each hangs off the lane (or forward hop) that carried it.
    servers = by_name["server.assign"]
    assert {s.attrs.get("worker") for s in servers} >= {"0", "1"}
    lane_ids = {lane.span_id for lane in lanes}
    assert all(s.parent_id in lane_ids for s in servers)
    # The attempt that died mid-stream still left an error span.
    assert any("error" in s.attrs for s in servers) or any(
        "error" in lane.attrs for lane in lanes
    )

    # The whole thing renders as one tree.
    text = render_trace_tree(spans, trace_id=trace_id)
    header_lines = [
        line for line in text.splitlines() if line.startswith("trace ")
    ]
    assert header_lines == [text.splitlines()[0]]
    assert trace_id in header_lines[0]
    for name in ("client.assign_stream", "proxy.assign", "proxy.lane",
                 "server.assign"):
        assert name in text
    assert "replay=True" in text

    # The npy request: ingress mode=npy, its two row runs on two lanes,
    # both hanging off the ingress span.
    def npy_settled():
        spans = [s for s in load_spans(sink_path) if s.trace_id == npy_trace_id]
        return spans if any(s.name == "proxy.assign" for s in spans) else None

    npy_spans = _wait_for(npy_settled)
    (npy_ingress,) = [s for s in npy_spans if s.name == "proxy.assign"]
    assert npy_ingress.attrs["mode"] == "npy"
    npy_lanes = [s for s in npy_spans if s.name == "proxy.lane"]
    assert len({lane.attrs.get("lane") for lane in npy_lanes}) == 2
    assert all(lane.parent_id == npy_ingress.span_id for lane in npy_lanes)


def test_caller_supplied_trace_id_is_honored_and_echoed(traced_fleet):
    supervisor, _, _, sink_path = traced_fleet
    trace_id = "c0ffee" * 5 + "42"
    with FleetProxy(supervisor) as proxy:
        with ServingClient(url=proxy.url) as client:
            status, headers, _ = client.request_raw(
                "GET", "/healthz", headers={"X-Trace-Id": trace_id}
            )
    assert status == 200
    # The response is stamped with the id the caller chose, and the
    # proxy's span records it.
    assert headers["X-Trace-Id"] == trace_id
    spans = _wait_for(
        lambda: [s for s in load_spans(sink_path) if s.trace_id == trace_id]
        or None,
        timeout_s=5.0,
    )
    assert spans and all(s.trace_id == trace_id for s in spans)
