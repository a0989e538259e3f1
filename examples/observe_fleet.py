"""Watching a fleet work: Prometheus scrapes and end-to-end tracing.

One headless walk through docs/observability.md:

1. fit + publish a model, set ``REPRO_TRACE_SINK`` so every process —
   this one and the spawned workers — appends spans to one JSONL file;
2. bring up a two-worker fleet + proxy and push traffic through it;
3. scrape ``GET /metrics`` on the proxy and ``GET /admin/metrics``
   (the fleet-wide aggregate), parse both with the strict parser, and
   print per-worker request counts and p99 assign latency — exactly
   what ``repro fleet status`` renders;
4. load the trace sink and render the last request's span tree:
   client → proxy ingress → worker lanes → worker assign handlers,
   one ``X-Trace-Id`` end to end.

Run:  PYTHONPATH=src python examples/observe_fleet.py
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from repro.api import RunConfig, fit
from repro.obs import parse_text, quantile_from_buckets
from repro.obs.trace import load_spans, render_trace_tree
from repro.serving import FleetProxy, FleetSupervisor, ModelRegistry, ServingClient


def main() -> None:
    rng = np.random.default_rng(11)
    features = np.vstack(
        [rng.normal(0.0, 1.0, (300, 5)), rng.normal(3.0, 1.0, (300, 5))]
    )
    gender = rng.integers(0, 2, 600)
    traffic = rng.normal(1.5, 2.0, (1_000, 5))

    with tempfile.TemporaryDirectory() as tmp:
        sink_path = Path(tmp) / "spans.jsonl"
        # Workers inherit the environment at spawn: set the sink before
        # the fleet comes up and every hop traces into the same file.
        os.environ["REPRO_TRACE_SINK"] = str(sink_path)
        try:
            registry = ModelRegistry(Path(tmp) / "registry")
            model = fit(
                RunConfig(method="fairkm", k=3, seed=0),
                features,
                sensitive={"gender": gender},
            )
            model.publish(registry.root, label="observed")

            with FleetSupervisor(registry, workers=2) as fleet:
                with FleetProxy(fleet) as proxy:
                    with ServingClient(url=proxy.url) as client:
                        trace_id = run_traffic(client, model, traffic)
                        scrape(client)
            show_trace(sink_path, trace_id)
        finally:
            del os.environ["REPRO_TRACE_SINK"]


def run_traffic(client: ServingClient, model, traffic: np.ndarray) -> str:
    for _ in range(4):  # round-robin: both workers see requests
        response = client.assign(traffic, npy=True)
        assert np.array_equal(response.labels, model.predict(traffic))
    # A streamed request too — its trace renders below.
    response = client.assign_stream(traffic, chunk_size=256)
    assert np.array_equal(response.labels, model.predict(traffic))
    print(f"served {5 * len(traffic)} rows; last trace {client.last_trace_id}")
    return client.last_trace_id


def scrape(client: ServingClient) -> None:
    # The proxy's own registry...
    status, headers, payload = client.request_raw("GET", "/metrics")
    assert status == 200 and "version=0.0.4" in headers["Content-Type"]
    own = {f.name: f for f in parse_text(payload.decode("utf-8"))}
    requests = sum(s.value for s in own["repro_http_requests_total"].samples)
    print(f"proxy /metrics: {len(own)} families, {requests:.0f} requests")

    # ...and the fleet-wide aggregate, one `worker` label per source.
    status, _, payload = client.request_raw("GET", "/admin/metrics")
    assert status == 200
    families = {f.name: f for f in parse_text(payload.decode("utf-8"))}
    counts: dict[str, float] = {}
    buckets: dict[str, dict[float, float]] = {}
    for sample in families["repro_http_requests_total"].samples:
        worker = sample.labels["worker"]
        counts[worker] = counts.get(worker, 0.0) + sample.value
    for sample in families["repro_assign_latency_seconds"].samples:
        if not sample.name.endswith("_bucket"):
            continue
        worker = sample.labels["worker"]
        bound = float("inf") if sample.labels["le"] == "+Inf" else float(
            sample.labels["le"]
        )
        per = buckets.setdefault(worker, {})
        per[bound] = per.get(bound, 0.0) + sample.value
    print("worker  requests  p99_ms")
    for worker in sorted(counts):
        pairs = sorted(buckets.get(worker, {}).items())
        p99 = quantile_from_buckets(pairs, 0.99) if pairs else None
        cell = f"{p99 * 1000:.1f}" if p99 is not None else "-"
        print(f"{worker:>6}  {counts[worker]:8.0f}  {cell:>6}")


def show_trace(sink_path: Path, trace_id: str) -> None:
    spans = load_spans(sink_path)
    mine = [s for s in spans if s.trace_id == trace_id]
    names = {s.name for s in mine}
    assert {"client.assign_stream", "proxy.assign", "proxy.lane"} <= names
    print(f"\nsink holds {len(spans)} spans; the streamed request's tree:")
    print(render_trace_tree(spans, trace_id=trace_id))


if __name__ == "__main__":
    main()
