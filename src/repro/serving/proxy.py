"""Fleet front door: scatter-gather for batches, round-robin for the rest.

:class:`FleetProxy` puts one port in front of a
:class:`~repro.serving.fleet.FleetSupervisor`'s worker processes:

* npy and streamed ``POST /assign`` bodies are **dealt** to worker
  lanes. A lane is one streamed request to one worker, and every batch
  goes through the same lane failover loop. There are two lane rules,
  because only an npy body's length is known before dealing:

  - a streamed body is dealt **while it uploads**: each request frame
    is forwarded whole, byte for byte, the moment it arrives, and a new
    lane opens only once every open lane holds :data:`MIN_DEAL_BYTES`.
    The client's upload overlaps every worker's compute, so the fleet
    multiplies batch throughput instead of merely taking turns;
  - an npy body has been read in full, so it is dealt as at most one
    balanced contiguous run per worker, each of at least
    :data:`MIN_SCATTER_ROWS` rows, every run on its own lane in frames
    of at most ``DEFAULT_STREAM_CHUNK`` rows (fewer for rows so wide
    that a frame would pass the wire's frame cap).

  Frames are retained by reference only: a lane whose worker dies
  replays its frames to the next worker, and the gathered label frames
  are stitched back in deal order before the first response byte, so
  the answer is exactly what a single worker would have produced. The
  response names every worker that contributed (``X-Fleet-Worker:
  0,1,...``) plus the serving version. A lane that runs out of workers,
  or a version skew across lanes (a rollout landing mid-deal), re-deals
  the batch on a fresh dealer and then on a single lane — one response
  must never mix labels from two models;
* JSON ``POST /assign``, ``GET /healthz`` and ``GET /model`` are
  forwarded round-robin; a worker that is mid-restart (connection
  refused / dropped) is skipped and the request transparently retried
  on the next worker — the request only fails when *no* worker is
  reachable;
* ``GET /admin/status`` reports the supervisor's fleet-wide health;
* ``POST /admin/rollout`` runs a canary rollout (body:
  ``{"version": ..., "require_identical": ...}``) and returns the
  :class:`~repro.serving.fleet.RolloutReport` — HTTP 200 when the fleet
  moved, 409 when the canary (or a later stage) rejected the candidate;
* ``POST /reload`` is **refused** (403): reloading one worker behind the
  proxy would fork the fleet's serving version around the canary
  process. Rollouts go through ``/admin/rollout``.

Failover leans on :class:`~repro.serving.client.ServingClient`'s
transparent reconnect: a stale keep-alive to a restarted worker is
retried once on a fresh connection, and only a genuinely unreachable
worker (:class:`~repro.serving.client.ServingUnavailableError`) moves
the request (or the dealt lane) to the next one.
"""

from __future__ import annotations

import io
import json
import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any

import numpy as np

from ..faults.plan import FaultInjector
from ..obs import metrics as obs_metrics
from ..obs import prometheus as obs_prometheus
from ..obs.trace import TraceSink, get_sink
from . import wire
from .client import (
    DEFAULT_STREAM_CHUNK,
    ServingClient,
    ServingClientError,
    ServingTimeoutError,
    ServingUnavailableError,
)
from .fleet import FleetSupervisor
from .resilience import DEADLINE_HEADER, BreakerBoard, Deadline
from .server import (
    MAX_BODY_BYTES,
    NPY_CONTENT_TYPE,
    STREAM_CONTENT_TYPE,
    VERSION_HEADER,
    ConnectionTrackingServer,
    ServingError,
    _BaseHandler,
)

#: Response header naming the worker index(es) that served the request.
WORKER_HEADER = "X-Fleet-Worker"

#: npy batches below this many rows per additional worker are not split:
#: the per-run HTTP round trip would cost more than the parallel compute
#: saves, and small requests are better served round-robin.
MIN_SCATTER_ROWS = 2048

#: A new stream lane (worker) opens only once every existing lane has
#: this many payload bytes — tiny streams stay on one worker for the
#: same reason tiny npy bodies do.
MIN_DEAL_BYTES = 512 * 1024


class FleetProxy(ConnectionTrackingServer):
    """One-port scatter-gather + round-robin front for a running fleet.

    Args:
        fleet: the supervisor whose workers receive the traffic.
        host: bind address (default: the fleet's host).
        port: bind port (``0`` picks an ephemeral port — read it back
            from ``proxy.port``).
        quiet: suppress per-request access logging.
        breaker: enable the per-worker-lane circuit breaker. After
            ``breaker_failures`` consecutive failures a lane is skipped
            in target ordering (instead of eating one timeout per
            request); after ``breaker_reset_s`` one half-open probe is
            let through, and a success closes the breaker. With
            ``False`` outcomes are still recorded (``/admin/status``
            shows lane states) but nothing is skipped — the knob the
            chaos harness flips to measure the breaker's availability
            contribution.
        breaker_failures: consecutive failures that open a lane.
        breaker_reset_s: cool-down before the half-open probe.
        fault_injector: a :class:`repro.faults.FaultInjector` fired at
            the proxy's ``proxy.lane{n}.frame`` / ``proxy.lane.version``
            sites (chaos testing); default: no injection.
        metrics: telemetry registry for the proxy's own counters and
            lane gauges, served at ``GET /metrics`` (``/admin/metrics``
            additionally scrapes and aggregates every worker). Default
            ``None`` builds a private registry; ``False`` disables
            instrumentation (see :class:`~repro.serving.server.
            AssignmentServer`).
        trace_sink: a :class:`repro.obs.TraceSink` receiving proxy
            ingress and lane spans for traced requests. Default: the
            sink named by ``REPRO_TRACE_SINK``, if any.
    """

    serve_thread_name = "repro-fleet-proxy"

    def __init__(
        self,
        fleet: FleetSupervisor,
        *,
        host: str | None = None,
        port: int = 0,
        quiet: bool = True,
        breaker: bool = True,
        breaker_failures: int = 3,
        breaker_reset_s: float = 2.0,
        fault_injector: FaultInjector | None = None,
        metrics: Any = None,
        trace_sink: TraceSink | None = None,
    ) -> None:
        self.fleet = fleet
        self.quiet = quiet
        self.breakers = BreakerBoard(
            enabled=breaker,
            failures_to_open=breaker_failures,
            reset_after_s=breaker_reset_s,
        )
        self.breaker_reset_s = breaker_reset_s
        self.fault_injector = fault_injector
        self.metrics = obs_metrics.resolve_registry(metrics)
        self._trace_sink = trace_sink
        self._m_requests = self.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests handled, by endpoint and status code.",
            ("path", "method", "code"),
        )
        self._m_latency = self.metrics.histogram(
            "repro_assign_latency_seconds",
            "Wall time spent handling one /assign request.",
            ("mode",),
        )
        self._m_lane_requests = self.metrics.counter(
            "repro_proxy_lane_requests_total",
            "Downstream worker requests completed, by worker index.",
            ("target",),
        )
        self._m_lane_failures = self.metrics.counter(
            "repro_proxy_lane_failures_total",
            "Downstream worker requests that failed, by worker index.",
            ("target",),
        )
        self._m_lane_replays = self.metrics.counter(
            "repro_proxy_lane_replays_total",
            "Lane attempts replayed onto another worker after a dead lane.",
        )
        # The breaker gauge is a *view* over the same BreakerBoard that
        # /admin/status serializes — the JSON shape there is unchanged.
        self.metrics.register_collector(obs_metrics.breaker_collector(self.breakers))
        if fault_injector is not None:
            self.metrics.register_collector(obs_metrics.fault_collector(fault_injector))
        self._rr = 0
        self._rr_lock = threading.Lock()
        self._local = threading.local()
        self._pool_lock = threading.Lock()
        self._client_pool: dict[str, list[ServingClient]] = {}
        # One long-lived executor for all scatters: spawning threads per
        # request would put milliseconds of setup on the hot path.
        self._scatter_pool = ThreadPoolExecutor(
            max_workers=32, thread_name_prefix="repro-scatter"
        )
        super().__init__((host or fleet.host, port), _ProxyHandler)

    def server_close(self) -> None:
        self._scatter_pool.shutdown(wait=False, cancel_futures=True)
        super().server_close()

    # ------------------------------------------------------------------ #
    # Target selection                                                    #
    # ------------------------------------------------------------------ #

    def target_order(self) -> list[tuple[int, str]]:
        """``(index, url)`` workers in this request's try-order.

        Round-robin rotation, then circuit-breaker ordering: lanes
        whose breaker is open are *demoted* to the tail of the order
        rather than dropped. The failover loop stops at the first
        success, so an open lane (which would eat a full timeout per
        attempt) is only ever tried after every allowed lane has
        already failed — the last rung of the degradation ladder
        before a typed 503. A fleet whose allowed lanes just died must
        not refuse service while a recovered-but-still-open lane could
        answer.
        """
        targets = self.fleet.target_urls()
        if not targets:
            return []
        with self._rr_lock:
            start = self._rr % len(targets)
            self._rr += 1
        rotated = targets[start:] + targets[:start]
        allowed = [
            target for target in rotated if self.breakers.allow(target[1])
        ]
        if not allowed:
            return rotated
        demoted = [target for target in rotated if target not in allowed]
        return allowed + demoted

    def client_for(self, index: int, url: str) -> ServingClient:
        """Per-thread keep-alive client for one worker (forward path)."""
        cache: dict[tuple[int, str], ServingClient] | None
        cache = getattr(self._local, "clients", None)
        if cache is None:
            cache = self._local.clients = {}
        key = (index, url)
        if key not in cache:
            # reconnect_wait=0: one clean retry per worker, then fail
            # over to the next one — a mid-restart worker should cost
            # milliseconds, not a restart-window stall.
            cache[key] = ServingClient(url=url, timeout=30.0)
        return cache[key]

    def lease_client(self, url: str) -> ServingClient:
        """Check a keep-alive client out of the scatter pool.

        Lanes execute on short-lived executor threads, so a
        thread-local cache would reconnect on every request; a shared
        pool keyed by worker url keeps the connections warm instead.
        """
        with self._pool_lock:
            pooled = self._client_pool.get(url)
            if pooled:
                return pooled.pop()
        return ServingClient(url=url, timeout=30.0)

    def release_client(self, url: str, client: ServingClient) -> None:
        """Return a leased client to the pool for the next scatter."""
        with self._pool_lock:
            self._client_pool.setdefault(url, []).append(client)

    # ------------------------------------------------------------------ #
    # Telemetry                                                           #
    # ------------------------------------------------------------------ #

    @property
    def trace_sink(self) -> TraceSink | None:
        """The span sink: explicit, or named by ``REPRO_TRACE_SINK``."""
        return self._trace_sink if self._trace_sink is not None else get_sink()

    def aggregate_metrics(self) -> str:
        """Fleet-wide exposition: proxy series + one scrape per worker.

        Every sample is stamped with a ``worker`` label (``proxy`` for
        the proxy's own registry, the worker index for scraped worker
        series); same-named families across sources share one ``TYPE``
        block so the output is itself valid exposition text. A worker
        that cannot be scraped is skipped — ``/admin/metrics`` must
        answer precisely when parts of the fleet are down.
        """
        scrapes: list[tuple[dict[str, str], str]] = [
            ({"worker": "proxy"}, obs_prometheus.render_registry(self.metrics))
        ]
        for index, url in self.fleet.target_urls():
            client = self.lease_client(url)
            try:
                status, _, payload = client.request_raw(
                    "GET", "/metrics", retry=False
                )
                if status == 200:
                    scrapes.append(
                        ({"worker": str(index)}, payload.decode("utf-8"))
                    )
            except ServingClientError:
                continue
            finally:
                self.release_client(url, client)
        return obs_prometheus.merge_scrapes(scrapes)


#: One gathered lane: ``(worker, version, codec, distances, payloads)``.
_LaneResult = tuple[int, str, str, bool, list[bytes]]


class _ScatterSkew(Exception):
    """Lanes answered with different serving versions (rollout landed
    mid-deal); the caller re-deals the batch."""


class _InjectedDisconnect(ConnectionError):
    """Internal: a fault event killed this lane's worker connection.

    A :class:`ConnectionError` so the client's transport-retry loop
    treats it exactly like a worker that died mid-send; the poisoned
    url keeps failing the transparent retry the way a dead process
    would, and the lane fails over with a replay."""


class _ReplaySource:
    """Queue-fed frame source a lane can iterate more than once.

    The dealing thread ``put``s items as the client uploads them and
    ``close``s when the stream ends; the lane thread iterates via
    :meth:`replay`, which first re-yields everything already consumed
    (failover to the next worker restarts the body) and then drains the
    live queue. Only the lane thread mutates the replay record, so no
    lock is needed around it.
    """

    _SENTINEL = object()

    def __init__(self) -> None:
        self._queue: queue.SimpleQueue[Any] = queue.SimpleQueue()
        self._seen: list[Any] = []
        self._done = False

    def put(self, item: Any) -> None:
        self._queue.put(item)

    def close(self) -> None:
        self._queue.put(self._SENTINEL)

    def replay(self) -> Any:
        yield from self._seen
        while not self._done:
            item = self._queue.get()
            if item is self._SENTINEL:
                self._done = True
                return
            self._seen.append(item)
            yield item


class _Dealer:
    """Deal one ``/assign`` batch to worker lanes; gather the lanes.

    A lane is one streamed request to one worker, and its failover loop
    (:meth:`_run_lane`) serves every dealt batch; JSON and GET requests
    fail over in :meth:`_ProxyHandler._forward` instead. There are two
    lane rules, because only an npy body's length is known up front:

    * :meth:`deal` forwards stream frames whole as the client uploads
      them, never decoding a row. Lanes open lazily: a new lane starts
      only when every open lane already holds :data:`MIN_DEAL_BYTES`, so
      small streams stay on one worker (the extra HTTP round trips would
      cost more than the parallelism saves).
    * :meth:`deal_rows` splits a fully read matrix into balanced
      contiguous runs, one lane each.

    ``finish()`` gathers every lane and raises :class:`_ScatterSkew` if
    a rollout split the lanes across versions.
    """

    def __init__(self, server: FleetProxy) -> None:
        self._server = server
        self._codec = "identity"
        self._accept: str | None = None
        self._distances = False
        self._deadline: Deadline | None = None
        self._hop_span: Any = None
        self._targets: list[tuple[int, str]] = []
        self._lanes = 0
        self._sources: list[_ReplaySource] = []
        self._futures: list[Any] = []
        self._bytes: list[int] = []
        self._order: list[int] = []

    def open(
        self,
        *,
        codec: str,
        accept: str | None,
        distances: bool,
        deadline: Deadline | None,
        hop_span: Any,
        lanes: int | None = None,
    ) -> None:
        """Fix the lanes' stream settings and target order.

        *hop_span* is the ingress handler's ``_hop_span``: each lane
        attempt opens its span and trace headers through it. *lanes*
        caps the lane count (default: one per worker).
        """
        self._codec = codec
        self._accept = accept
        self._distances = distances
        self._deadline = deadline
        self._hop_span = hop_span
        self._targets = self._server.target_order()
        if not self._targets:
            raise ServingError(
                503,
                "no reachable fleet worker",
                retry_after_s=self._server.breaker_reset_s,
            )
        self._lanes = min(len(self._targets), lanes or len(self._targets))

    def fresh(self, *, lanes: int | None) -> "_Dealer":
        """A new dealer opened like this one, to re-deal the batch."""
        dealer = _Dealer(self._server)
        dealer.open(
            codec=self._codec,
            accept=self._accept,
            distances=self._distances,
            deadline=self._deadline,
            hop_span=self._hop_span,
            lanes=lanes,
        )
        return dealer

    def deal(self, payload: bytes) -> None:
        """Forward one raw request frame, whole, to the least-loaded lane."""
        if self._bytes:
            lane = min(range(len(self._bytes)), key=self._bytes.__getitem__)
            if len(self._sources) < self._lanes and self._bytes[lane] >= MIN_DEAL_BYTES:
                lane = self._open_lane()
        else:
            lane = self._open_lane()
        self._put(lane, payload)

    def deal_rows(self, points: np.ndarray) -> None:
        """Deal a fully read C-order matrix as balanced contiguous runs.

        At most one run per lane, each of at least
        :data:`MIN_SCATTER_ROWS` rows: a scattered 100-row request would
        pay a round trip on every worker for no win. Each run goes on its
        own lane in frames of at most ``DEFAULT_STREAM_CHUNK`` rows, and
        fewer when wide rows would push a frame past the wire's frame cap.
        """
        ways = min(self._lanes, max(1, points.shape[0] // MIN_SCATTER_ROWS))
        room = wire.MAX_FRAME_BYTES - len(wire.npy_header_bytes(points))
        row_bytes = max(1, points.itemsize * points.shape[1])
        step = max(1, min(DEFAULT_STREAM_CHUNK, room // row_bytes))
        for run in np.array_split(points, ways):
            lane = self._open_lane()
            for start in range(0, run.shape[0], step):
                self._put(lane, run[start : start + step])

    def _put(self, lane: int, item: Any) -> None:
        self._sources[lane].put(item)
        self._bytes[lane] += item.nbytes if isinstance(item, np.ndarray) else len(item)
        self._order.append(lane)

    def _open_lane(self) -> int:
        lane = len(self._sources)
        source = _ReplaySource()
        self._sources.append(source)
        self._bytes.append(0)
        start = lane % len(self._targets)
        targets = self._targets[start:] + self._targets[:start]
        self._futures.append(
            self._server._scatter_pool.submit(self._run_lane, lane, source, targets)
        )
        return lane

    def _run_lane(
        self, lane: int, source: _ReplaySource, targets: list[tuple[int, str]]
    ) -> _LaneResult:
        injector = self._server.fault_injector
        site = f"proxy.lane{lane}.frame"

        def body_for(url: str) -> Any:
            def body() -> Any:
                def pieces() -> Any:
                    if injector is not None and injector.poisoned(url):
                        # A previous injected disconnect "killed" this
                        # worker; keep failing its retries like a dead
                        # process would.
                        raise _InjectedDisconnect(f"poisoned lane url {url}")
                    yield wire.encode_header(
                        self._codec, accept=self._accept, distances=self._distances
                    )
                    for item in source.replay():
                        if injector is not None:
                            event = injector.fire(site)
                            if event is not None and event.kind == "disconnect":
                                injector.poison(url)
                                raise _InjectedDisconnect(
                                    f"injected disconnect on {url} at lane "
                                    f"{lane}"
                                )
                        if isinstance(item, np.ndarray):
                            yield from wire.encode_frame(item, "identity")
                        else:
                            yield wire.frame_payload(item)
                    yield wire.terminator()

                return pieces()

            return body

        last_error: Exception | None = None
        breakers = self._server.breakers
        for attempt, (index, url) in enumerate(targets):
            if self._deadline is not None and self._deadline.expired:
                raise ServingTimeoutError(
                    "request deadline exhausted during dealt scatter"
                )
            if attempt > 0:
                # This lane's previous worker died mid-stream: the
                # frames are being replayed onto a replacement.
                self._server._m_lane_replays.inc()
            if injector is not None and injector.poisoned(url):
                last_error = ServingUnavailableError(f"poisoned lane url {url}")
                breakers.failure(url)
                self._server._m_lane_failures.labels(target=str(index)).inc()
                continue
            headers: dict[str, str] = {}
            if self._deadline is not None:
                headers[DEADLINE_HEADER] = self._deadline.header_value()
            span = self._hop_span("proxy.lane", headers)
            if span is not None:
                span.set(lane=lane, worker=index, replay=attempt > 0)
            client = self._server.lease_client(url)
            try:
                status, response_headers, response = client._exchange(
                    "POST", "/assign", body_for(url), STREAM_CONTENT_TYPE,
                    headers=headers or None, deadline=self._deadline,
                )
                reader, payloads = client._read_stream(status, response)
            except ServingUnavailableError as exc:
                breakers.failure(url)
                self._server._m_lane_failures.labels(target=str(index)).inc()
                if span is not None:
                    span.finish(error=type(exc).__name__)
                last_error = exc
                continue  # worker mid-restart: replay the lane elsewhere
            except ServingTimeoutError as exc:
                breakers.failure(url)
                self._server._m_lane_failures.labels(target=str(index)).inc()
                if span is not None:
                    span.finish(error=type(exc).__name__)
                raise
            finally:
                self._server.release_client(url, client)
            breakers.success(url)
            self._server._m_lane_requests.labels(target=str(index)).inc()
            version = response_headers.get(VERSION_HEADER, "")
            if span is not None:
                span.finish(
                    codec=reader.codec,
                    bytes=self._bytes[lane] if lane < len(self._bytes) else 0,
                    version=version,
                )
            if injector is not None:
                skew = injector.fire("proxy.lane.version")
                if skew is not None and skew.kind == "skew":
                    version = f"{version}+skewed"
            return index, version, reader.codec, reader.distances, payloads
        raise ServingUnavailableError(
            f"no reachable fleet worker for dealt lane: {last_error}"
        )

    def abort(self) -> None:
        """Stop dealing after a request-side failure.

        Lanes finish the frames already dealt (aborting the HTTP send
        midway would desync the worker keep-alives) and their results
        are discarded.
        """
        for source in self._sources:
            source.close()

    def finish(self) -> tuple[list[_LaneResult], list[int]]:
        """Close the lanes and gather ``(results, deal_order)``.

        An empty stream still opens one lane so the response carries a
        real serving version, mirroring a single worker's answer.
        """
        if not self._sources:
            self._open_lane()
        for source in self._sources:
            source.close()
        results = [future.result() for future in self._futures]
        versions = {result[1] for result in results}
        if len(versions) > 1:
            raise _ScatterSkew(
                f"fleet version skew during scatter ({sorted(versions)}); retry"
            )
        return results, self._order


def _dealt_payloads(
    results: list[_LaneResult], order: list[int]
) -> list[tuple[bytes, str]]:
    """Stitch lane responses back into deal order.

    Each dealt item produced one label frame (plus one distances frame
    when requested) on its lane; walking the deal order and taking the
    next group from that lane reconstructs exactly the stream a single
    worker would have produced. Returns ``(payload, lane_codec)`` pairs
    ready for recoding.
    """
    positions = [0] * len(results)
    pairs: list[tuple[bytes, str]] = []
    for lane in order:
        _, _, codec, distances, payloads = results[lane]
        take = 2 if distances else 1
        position = positions[lane]
        group = payloads[position : position + take]
        if len(group) != take:
            raise ServingError(
                502,
                f"fleet worker returned {len(payloads)} frame(s) on a lane "
                f"dealt {order.count(lane)} item(s)",
            )
        positions[lane] = position + take
        pairs.extend((payload, codec) for payload in group)
    for (_, _, _, _, payloads), position in zip(results, positions):
        if position != len(payloads):
            raise ServingError(502, "fleet worker returned surplus frames")
    return pairs


class _ProxyHandler(_BaseHandler):
    server: FleetProxy  # narrowed for type checkers

    _METRIC_PATHS = _BaseHandler._METRIC_PATHS | {
        "/admin/status",
        "/admin/rollout",
        "/admin/metrics",
    }

    def _handle_get(self) -> None:
        if self.path == "/metrics":
            body = obs_prometheus.render_registry(self.server.metrics)
            self._send(200, body.encode("utf-8"), obs_prometheus.CONTENT_TYPE)
        elif self.path == "/admin/metrics":
            body = self.server.aggregate_metrics()
            self._send(200, body.encode("utf-8"), obs_prometheus.CONTENT_TYPE)
        elif self.path == "/admin/status":
            payload = self.server.fleet.status()
            payload["breakers"] = self.server.breakers.snapshot()
            self._send_json(200, payload)
        else:
            self._forward("GET", body=None)

    def _handle_post(self) -> None:
        if self.path == "/admin/rollout":
            self._do_rollout()
        elif self.path == "/reload":
            self._read_body()  # drain so keep-alive stays in sync
            raise ServingError(
                403,
                "per-worker reload through the proxy would fork the "
                "fleet version; use POST /admin/rollout",
            )
        elif self.path == "/assign":
            self._do_assign()
        else:
            self._forward("POST", body=self._read_body())

    def _do_rollout(self) -> None:
        body = self._read_body()
        options: dict[str, Any] = {}
        if body:
            try:
                options = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ServingError(400, f"invalid rollout payload: {exc}") from None
            if not isinstance(options, dict):
                raise ServingError(400, "rollout payload must be an object")
        version = options.get("version")
        if version is not None and not isinstance(version, str):
            raise ServingError(400, f"version must be a string, got {version!r}")
        require_identical = bool(options.get("require_identical", False))
        report = self.server.fleet.rollout(
            version, require_identical=require_identical
        )
        self._send_json(200 if report.ok else 409, report.to_dict())

    def _forward(self, method: str, body: bytes | None) -> None:
        content_type = self.headers.get("Content-Type", "application/json")
        deadline = self._request_deadline()
        breakers = self.server.breakers
        for index, url in self.server.target_order():
            if deadline is not None and deadline.expired:
                raise ServingError(504, "deadline exhausted during failover")
            request_headers: dict[str, str] = {}
            if deadline is not None:
                request_headers[DEADLINE_HEADER] = deadline.header_value()
            span = self._hop_span("proxy.forward", request_headers)
            if span is not None:
                span.set(worker=index, path=self.path)
            client = self.server.client_for(index, url)
            try:
                status, headers, payload = client.request_raw(
                    method, self.path, body, content_type,
                    headers=request_headers or None,
                )
            except ServingTimeoutError as exc:
                # The worker is alive but not answering — count it
                # against the lane's breaker (a hung worker must stop
                # eating one timeout per request), then surface the 504:
                # re-running the same request on every other worker
                # would multiply the load fleet-wide and still be
                # reported as a failure.
                breakers.failure(url)
                self.server._m_lane_failures.labels(target=str(index)).inc()
                if span is not None:
                    span.finish(error=type(exc).__name__)
                raise ServingError(504, str(exc)) from exc
            except ServingUnavailableError as exc:
                breakers.failure(url)
                self.server._m_lane_failures.labels(target=str(index)).inc()
                if span is not None:
                    span.finish(error=type(exc).__name__)
                continue  # worker mid-restart: fail over to the next one
            breakers.success(url)
            self.server._m_lane_requests.labels(target=str(index)).inc()
            if span is not None:
                span.finish(status=status, bytes=len(payload))
            extra = {WORKER_HEADER: str(index)}
            version = headers.get(VERSION_HEADER)
            if version is not None:
                extra[VERSION_HEADER] = version
            self._send(
                status,
                payload,
                headers.get("Content-Type", "application/json"),
                extra,
            )
            return
        raise ServingError(
            503,
            "no reachable fleet worker",
            retry_after_s=self.server.breaker_reset_s,
        )

    # -- scatter-gather ------------------------------------------------- #

    def _do_assign(self) -> None:
        content_type = self.headers.get("Content-Type", "application/json")
        if content_type.startswith(STREAM_CONTENT_TYPE):
            mode = "stream"
        elif content_type.startswith(NPY_CONTENT_TYPE):
            mode = "npy"
        else:
            mode = "forward"
        start = time.perf_counter()
        span = self._hop_span("proxy.assign")
        if span is not None:
            # Lane and forward spans hang off the ingress span.
            self._parent_span = span.span_id
            span.set(mode=mode)
        try:
            if mode == "stream":
                self._scatter_stream(self._request_deadline())
            elif mode == "npy":
                self._scatter_npy(self._request_deadline())
            else:
                # JSON stays round-robin: it is the interop path, and
                # its decimal round trip dwarfs any scatter win.
                self._forward("POST", body=self._read_body())
        except BaseException as exc:
            if span is not None:
                span.finish(error=type(exc).__name__)
            raise
        else:
            if span is not None:
                span.finish()
        finally:
            self.server._m_latency.labels(mode=mode).observe(
                time.perf_counter() - start
            )

    def _scatter_stream(self, deadline: Deadline | None = None) -> None:
        """Deal a streamed request across the fleet as it uploads.

        Each frame is forwarded to a worker lane the moment it arrives,
        so every worker's compute overlaps the client's upload — the
        pipelining that makes the fleet a multiplier rather than a
        buffered double-hop. Frames are retained by reference for the
        rare re-deal (see :meth:`_gather`).
        """
        body = self._stream_body_reader()
        dealer = _Dealer(self.server)
        frames: list[bytes] = []
        try:
            reader = wire.StreamReader(body.read, max_total_bytes=MAX_BODY_BYTES)
            reader.read_header()
            dealer.open(
                codec=reader.codec,
                accept=reader.accept,
                distances=reader.distances,
                deadline=deadline,
                hop_span=self._hop_span,
            )
            for payload in reader.raw_frames():
                frames.append(payload)
                dealer.deal(payload)
        except wire.WireError as exc:
            dealer.abort()
            self._drain_body(body)
            raise ServingError(400, str(exc)) from None
        except Exception:
            dealer.abort()
            self._drain_body(body)
            raise
        self._drain_body(body)

        def redeal(fresh: _Dealer) -> None:
            for payload in frames:
                fresh.deal(payload)

        results, pairs = self._gather(dealer, redeal)
        # One stream, one codec: recode stragglers to the first lane's
        # codec (identical negotiation makes this a no-op in practice).
        response_codec = results[0][2]
        response_distances = results[0][3]
        writer = self._start_stream(
            {VERSION_HEADER: results[0][1], WORKER_HEADER: _workers(results)}
        )
        writer.write(
            wire.encode_header(response_codec, distances=response_distances)
        )
        for payload, run_codec in pairs:
            writer.write(
                wire.frame_payload(
                    wire.recode_payload(payload, run_codec, response_codec)
                )
            )
        writer.write(wire.terminator())
        writer.close()

    def _scatter_npy(self, deadline: Deadline | None = None) -> None:
        """Deal one npy body as balanced row runs; gather one npy response."""
        raw = self._read_body()
        try:
            points = wire.decode_npy(raw)  # zero-copy row views
        except wire.WireError as exc:
            raise ServingError(400, f"invalid npy payload: {exc}") from None
        if points.ndim != 2:
            raise ServingError(400, f"points must be 2-D, got shape {points.shape}")
        # Workers score float64 rows: a float32, integer or Fortran-order
        # body is converted once here (a C-order float64 body is not copied).
        points = np.ascontiguousarray(points, dtype=np.float64)
        dealer = _Dealer(self.server)
        dealer.open(
            codec="identity",
            accept=None,
            distances=False,
            deadline=deadline,
            hop_span=self._hop_span,
        )
        dealer.deal_rows(points)
        results, pairs = self._gather(dealer, lambda fresh: fresh.deal_rows(points))
        labels = [wire.decode_npy(payload) for payload, _ in pairs]
        out = io.BytesIO()
        np.save(
            out,
            np.concatenate(labels) if labels else np.empty(0, dtype=np.int64),
            allow_pickle=False,
        )
        self._send(
            200,
            out.getvalue(),
            NPY_CONTENT_TYPE,
            {VERSION_HEADER: results[0][1], WORKER_HEADER: _workers(results)},
        )

    def _gather(
        self, dealer: _Dealer, deal: Any
    ) -> tuple[list[_LaneResult], list[tuple[bytes, str]]]:
        """Gather a dealt batch as ``(lane_results, payloads_in_deal_order)``.

        A lane that ran out of workers, or lanes split across versions
        by a rollout landing mid-deal, re-deal the retained batch
        (``deal(fresh_dealer)``) on a fresh dealer against the
        post-rollout fleet, then on a single lane: one worker can only
        answer with one version, and one response must never mix two
        models' labels. The gather completes before any response byte
        is written, so a failure never leaves a partial response.
        """
        redeals = [None, 1]  # lane caps: every worker, then one
        while True:
            try:
                results, order = dealer.finish()
                return results, _dealt_payloads(results, order)
            except (ServingUnavailableError, _ScatterSkew) as exc:
                if not redeals:
                    raise ServingError(
                        503, str(exc), retry_after_s=self.server.breaker_reset_s
                    ) from exc
                dealer = dealer.fresh(lanes=redeals.pop(0))
                deal(dealer)
            except ServingTimeoutError as exc:
                raise ServingError(504, str(exc)) from exc
            except ServingClientError as exc:
                raise ServingError(exc.status, str(exc)) from exc


def _workers(results: list[_LaneResult]) -> str:
    """``X-Fleet-Worker`` value: every contributing worker, once each."""
    return ",".join(dict.fromkeys(str(result[0]) for result in results))
