"""Long-lived assignment server over a registry-resolved model.

:class:`AssignmentServer` is a stdlib :class:`ThreadingHTTPServer` (no
new dependencies) that keeps one :class:`~repro.api.assign.Assigner`
hot behind four endpoints:

* ``POST /assign``  — label a batch of points. JSON
  (``{"points": [[...]], "chunk_size": ...}``), raw npy bytes
  (``Content-Type: application/x-npy``), or the streamed frame format
  (``Content-Type: application/x-repro-stream``, see
  :mod:`repro.serving.wire`) in; the same format comes back.
  Requests are chunked through ``Assigner.assign_iter`` so a huge
  request never materializes more than one ``chunk × k`` block — and on
  the streamed path each frame is scored *as it arrives off the
  socket*, the response is chunked back frame by frame, npy bodies are
  decoded as ``np.frombuffer`` views (no copy), and the stream header
  negotiates optional gzip/zstd compression and squared distances.
* ``GET /healthz``  — liveness + the serving model version.
* ``GET /model``    — version, method, k, dimensions, artifact summary.
* ``POST /reload``  — force re-resolution of the registry's ``LATEST``.

**Hot-reload.** When backed by a :class:`~repro.serving.registry.
ModelRegistry`, the server stats the ``LATEST`` pointer before each
request; a changed mtime (the pointer is replaced atomically, so a
publish/rollback always bumps it) triggers a reload. The freshly loaded
``(version, model, assigner)`` snapshot is swapped in under an RLock
while in-flight requests keep the snapshot they started with — nothing
is dropped mid-request, and every response names the exact version that
served it (``version`` field / ``X-Model-Version`` header), so clients
can always attribute labels to a model.

**Pinned mode.** With ``follow=False`` the server never follows the
pointer on its own: only an explicit ``POST /reload`` moves it, and the
reload body may name a specific version (``{"version": "v0007"}``) to
pin. This is how :class:`~repro.serving.fleet.FleetSupervisor` workers
run — a published ``LATEST`` must not reach the fleet until the canary
has proven the artifact, so the supervisor moves each worker explicitly.
"""

from __future__ import annotations

import io
import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

import numpy as np

from ..api.assign import Assigner
from ..api.model import ClusterModel
from ..faults.plan import FaultEvent, FaultInjector
from ..obs import metrics as obs_metrics
from ..obs import prometheus as obs_prometheus
from ..obs.trace import PARENT_HEADER, TRACE_HEADER, TraceSink, get_sink, start_span
from . import wire
from .registry import ModelRegistry, RegistryError
from .resilience import DEADLINE_HEADER, Deadline

#: Environment variable carrying a fleet worker's index; the supervisor
#: sets it at spawn so metrics and trace spans can name the worker.
WORKER_INDEX_ENV = "REPRO_WORKER_INDEX"

#: Content type for raw ``np.save`` payloads (request and response).
NPY_CONTENT_TYPE = "application/x-npy"

#: Content type for the streamed frame format (:mod:`repro.serving.wire`).
STREAM_CONTENT_TYPE = "application/x-repro-stream"

#: Response header naming the model version that served the request.
VERSION_HEADER = "X-Model-Version"

#: Hard cap on request bodies (float64 rows are ~8·d bytes each).
MAX_BODY_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class _Snapshot:
    """One immutable serving generation: the unit hot-reload swaps."""

    version: str
    model: ClusterModel
    assigner: Assigner


class ServingError(Exception):
    """Request-level failure carrying an HTTP status.

    ``retry_after_s`` (when set) becomes a ``Retry-After`` response
    header — the bottom rung of the proxy's degradation ladder tells
    clients *when* trying again is worthwhile instead of just failing.
    """

    def __init__(
        self, status: int, message: str, *, retry_after_s: float | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s


class _InjectedSever(Exception):
    """Internal: a fault event asked for the connection to be cut dead.

    Raised past the JSON-error path on purpose — the peer must see a
    socket-level failure (like a crashed worker), not a tidy 4xx.
    """


class ConnectionTrackingServer(ThreadingHTTPServer):
    """ThreadingHTTPServer with a shared embedded-process lifecycle.

    Additions over the stdlib class, shared by
    :class:`AssignmentServer` and :class:`~repro.serving.proxy.FleetProxy`:

    * **Severable connections.** ``server_close`` alone only closes the
      *listening* socket; handler threads keep serving requests on
      already-established keep-alive connections — so a "stopped"
      in-process server would silently keep answering stale traffic (a
      real process dies with its sockets). :meth:`close_open_connections`
      restores process-death semantics, and :meth:`stop` calls it.
    * **Daemon-thread serving.** :meth:`start` / :meth:`stop` / context
      manager for tests and embedding; ``port`` / ``url`` for
      ephemeral-port binds.
    * **TCP_NODELAY.** Every accepted TCP connection disables Nagle:
      serving responses are written as one small burst (headers + a few
      frames), and the 40ms delayed-ACK/Nagle interaction dominated
      small-request latency before.
    * **Unix-domain sockets.** Pass ``uds=`` to bind a filesystem
      socket instead of a TCP port — co-located clients skip the whole
      TCP stack. A stale socket file from a crashed predecessor is
      unlinked before binding, and unlinked again on close.
    """

    daemon_threads = True

    #: Name of the daemon serve thread (subclasses override).
    serve_thread_name = "repro-http"

    def __init__(
        self,
        server_address: Any,
        handler_class: Any,
        *,
        uds: str | Path | None = None,
    ) -> None:
        self._open_requests: set[socket.socket] = set()
        self._open_requests_lock = threading.Lock()
        self._serve_thread: threading.Thread | None = None
        self.uds_path = Path(uds) if uds is not None else None
        if self.uds_path is not None:
            if not hasattr(socket, "AF_UNIX"):
                raise ValueError("unix-domain sockets are not supported here")
            self.address_family = socket.AF_UNIX
            server_address = str(self.uds_path)
        super().__init__(server_address, handler_class)

    def server_bind(self) -> None:
        if self.uds_path is None:
            super().server_bind()
            return
        # AF_UNIX: no SO_REUSEADDR, and HTTPServer.server_bind would
        # getfqdn() a path string. Unlink a stale socket file first — a
        # crashed predecessor leaves one behind and bind() would fail.
        try:
            if self.uds_path.is_socket():
                self.uds_path.unlink()
        except OSError:
            pass
        self.uds_path.parent.mkdir(parents=True, exist_ok=True)
        self.socket.bind(str(self.uds_path))
        self.server_address = str(self.uds_path)
        self.server_name = str(self.uds_path)
        self.server_port = 0

    def server_close(self) -> None:
        super().server_close()
        if self.uds_path is not None:
            try:
                self.uds_path.unlink(missing_ok=True)
            except OSError:
                pass

    @property
    def port(self) -> int:
        if self.uds_path is not None:
            return 0
        return self.server_address[1]

    @property
    def url(self) -> str:
        if self.uds_path is not None:
            return f"http+unix://{self.uds_path}"
        return f"http://{self.server_address[0]}:{self.port}"

    def start(self) -> "ConnectionTrackingServer":
        """Serve in a daemon thread (tests / embedding); returns self."""
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name=self.serve_thread_name, daemon=True
        )
        self._serve_thread.start()
        return self

    def stop(self) -> None:
        """Stop serving, sever open connections, release the socket."""
        self.shutdown()
        self.server_close()
        self.close_open_connections()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
            self._serve_thread = None

    def __enter__(self) -> "ConnectionTrackingServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def get_request(self) -> tuple[socket.socket, Any]:
        request, client_address = super().get_request()
        if self.address_family in (socket.AF_INET, getattr(socket, "AF_INET6", None)):
            try:
                request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass  # an exotic transport without Nagle is already fine
        with self._open_requests_lock:
            self._open_requests.add(request)
        return request, client_address

    def shutdown_request(self, request: Any) -> None:
        with self._open_requests_lock:
            self._open_requests.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request: Any, client_address: Any) -> None:
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (ConnectionError, TimeoutError)):
            return  # peer vanished or we severed the socket: expected
        super().handle_error(request, client_address)

    def close_open_connections(self) -> None:
        """Forcibly close every established connection (handler threads
        servicing them see a socket error and exit)."""
        with self._open_requests_lock:
            open_requests = list(self._open_requests)
            self._open_requests.clear()
        for request in open_requests:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                request.close()
            except OSError:
                pass


class AssignmentServer(ConnectionTrackingServer):
    """Threaded HTTP server wrapping a registry- or path-resolved model.

    Args:
        registry: serve (and hot-reload) the registry's ``LATEST``
            version. Exactly one of *registry* / *model_path* is
            required.
        model_path: serve one artifact directory, no registry (version
            reported as the directory name; ``POST /reload`` re-reads
            the same directory).
        host, port: bind address (``port=0`` picks an ephemeral port —
            read it back from ``server.port``).
        uds: bind a unix-domain socket at this path instead of a TCP
            port (co-located clients connect with
            ``ServingClient(uds=...)``; ``repro serve --uds``).
        workers: worker threads per assignment call (1 serial, -1 or
            ``"auto"`` one per usable CPU); labels are bit-identical for
            every value.
        chunk_size: default rows per scored block (requests may
            override per call).
        follow: with the default ``True``, hot-reload whenever the
            registry's ``LATEST`` pointer moves. ``False`` pins the
            server: only an explicit ``POST /reload`` (optionally
            naming a version) changes what it serves — the mode fleet
            workers run in so a canary can gate rollouts.
        pin_version: start serving this registry version instead of the
            ``LATEST`` target (registry mode only; implies
            ``follow=False``).
        quiet: suppress per-request access logging.
        fault_injector: a :class:`repro.faults.FaultInjector` whose
            plan this server fires at its ``server.assign`` /
            ``server.stream`` sites (chaos testing). Default: built
            from the ``REPRO_FAULT_PLAN`` environment variable when
            set — which is how a supervisor-spawned fleet worker picks
            up a fault plan — else no injection at all.
        metrics: telemetry registry for this server's counters and
            latency histograms, served at ``GET /metrics``. Default
            ``None`` builds a private
            :class:`~repro.obs.MetricsRegistry`; pass a registry to
            share one, or ``False`` for the no-op null registry (the
            uninstrumented baseline ``repro bench serve`` measures
            overhead against).
        trace_sink: a :class:`repro.obs.TraceSink` receiving one span
            per traced ``/assign`` (requests carrying ``X-Trace-Id``).
            Default: the sink named by the ``REPRO_TRACE_SINK``
            environment variable, if any.
    """

    serve_thread_name = "repro-serve"

    def __init__(
        self,
        *,
        registry: ModelRegistry | str | Path | None = None,
        model_path: str | Path | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        uds: str | Path | None = None,
        workers: int | str | None = None,
        chunk_size: int | None = None,
        follow: bool = True,
        pin_version: str | None = None,
        quiet: bool = True,
        fault_injector: FaultInjector | None = None,
        metrics: Any = None,
        trace_sink: TraceSink | None = None,
    ) -> None:
        if (registry is None) == (model_path is None):
            raise ValueError("exactly one of registry= or model_path= is required")
        if registry is not None and not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        if pin_version is not None and registry is None:
            raise ValueError("pin_version= requires registry mode")
        self.registry = registry
        self.model_path = Path(model_path) if model_path is not None else None
        self.workers = workers
        self.chunk_size = chunk_size
        self.follow = follow and pin_version is None
        self.quiet = quiet
        self.fault_injector = (
            fault_injector if fault_injector is not None else FaultInjector.from_env()
        )
        # metrics=None -> a private registry per server instance (tests
        # and the bench harness run several servers in one process and
        # their series must not bleed); metrics=False -> the null
        # registry, the uninstrumented baseline the overhead gate
        # measures against.
        self.metrics = obs_metrics.resolve_registry(metrics)
        self._trace_sink = trace_sink
        self.worker_index = os.environ.get(WORKER_INDEX_ENV, "")
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
        self._m_rows = self.metrics.counter(
            "repro_assign_rows_total",
            "Points labeled by /assign.",
            ("mode",),
        )
        self._m_bytes = self.metrics.counter(
            "repro_http_bytes_total",
            "Request/response body bytes moved by /assign.",
            ("direction",),
        )
        self._m_reloads = self.metrics.counter(
            "repro_model_reloads_total",
            "Model reloads that changed the serving version.",
        )
        if self.fault_injector is not None:
            self.metrics.register_collector(
                obs_metrics.fault_collector(self.fault_injector)
            )
        self.started_at = time.monotonic()
        self._lock = threading.RLock()
        self._snapshot: _Snapshot | None = None
        self._pointer_mtime_ns: int | None = None
        super().__init__((host, port), _Handler, uds=uds)
        try:
            self.reload(force=True, version=pin_version)
        except BaseException:
            self.server_close()  # don't leak the bound socket
            raise

    @property
    def trace_sink(self) -> TraceSink | None:
        """The span sink: explicit, or named by ``REPRO_TRACE_SINK``."""
        return self._trace_sink if self._trace_sink is not None else get_sink()

    # ------------------------------------------------------------------ #
    # Model lifecycle                                                     #
    # ------------------------------------------------------------------ #

    def snapshot(self) -> _Snapshot:
        """The current serving generation (raises 503 when none loaded)."""
        with self._lock:
            if self._snapshot is None:
                raise ServingError(503, "no model loaded")
            return self._snapshot

    def _load_snapshot(self, version: str | None = None) -> tuple[_Snapshot, int | None]:
        """Resolve + load the serving model; returns (snapshot, pointer mtime).

        With *version* the load is pinned to that registry version (the
        pointer is statted opportunistically so a later switch back to
        follow-mode starts from a fresh mtime).
        """
        if self.registry is not None:
            if version is None:
                # Stat BEFORE reading the pointer: if a publish lands
                # between the two, the recorded mtime is older than the
                # pointer we end up loading, so the next request
                # re-checks (the reverse order could cache the new mtime
                # against the old model and go stale forever).
                try:
                    mtime_ns = self.registry.pointer_path.stat().st_mtime_ns
                except FileNotFoundError:
                    raise RegistryError(
                        f"{self.registry.root}: no LATEST pointer "
                        "(publish a model first)"
                    ) from None
                version = self.registry.latest_version()
            else:
                try:
                    mtime_ns = self.registry.pointer_path.stat().st_mtime_ns
                except OSError:
                    mtime_ns = None  # pinned serving needs no pointer at all
            model = self.registry.load(version)
        else:
            if version is not None:
                raise ServingError(400, "version-pinned reload requires registry mode")
            model = ClusterModel.load(self.model_path)
            version = self.model_path.name
            mtime_ns = None
        assigner = Assigner(model.centers, workers=self.workers)
        return _Snapshot(version, model, assigner), mtime_ns

    def reload(self, *, force: bool = False, version: str | None = None) -> bool:
        """(Re-)resolve the serving model; returns True if it changed.

        With ``force=False`` this is the per-request hot-reload check:
        a cheap stat of the registry's ``LATEST`` pointer, loading only
        when its mtime moved. With *version* the server loads exactly
        that registry version (pinning — used by the fleet supervisor to
        move one worker at a time). The loaded snapshot is swapped in
        under the lock; requests already running keep their old
        snapshot.
        """
        if version is None and not force and not self._pointer_moved():
            return False
        snapshot, mtime_ns = self._load_snapshot(version)
        if version is not None and self.follow:
            # On a following server an explicit pin is one-shot: leave
            # the recorded mtime unset so the next request's hot-reload
            # check re-resolves LATEST instead of silently serving the
            # pinned version until the next publish happens to move the
            # pointer. Durable pinning is follow=False territory.
            mtime_ns = None
        with self._lock:
            changed = (
                self._snapshot is None or snapshot.version != self._snapshot.version
            )
            self._snapshot = snapshot
            self._pointer_mtime_ns = mtime_ns
        if changed:
            self._m_reloads.inc()
        return changed

    def _pointer_moved(self) -> bool:
        if self.registry is None:
            return False
        try:
            mtime_ns = self.registry.pointer_path.stat().st_mtime_ns
        except OSError:
            return False  # pointer briefly absent: keep serving current model
        with self._lock:
            return mtime_ns != self._pointer_mtime_ns

    def maybe_reload(self) -> None:
        """Hot-reload if the pointer moved; never fails a live request.

        No-op on a pinned (``follow=False``) server: only an explicit
        ``POST /reload`` moves it.
        """
        if not self.follow:
            return
        try:
            self.reload(force=False)
        except (RegistryError, ValueError, OSError):
            # A half-published or newer-format artifact must not take
            # down serving: keep the current snapshot, surface the
            # problem on the next explicit POST /reload.
            pass

def serve_forever(server: AssignmentServer) -> None:
    """Run *server* in the foreground until interrupted (CLI mode)."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


# --------------------------------------------------------------------- #
# Request handling                                                        #
# --------------------------------------------------------------------- #


class _BoundedBodyReader:
    """``read(n)`` over a Content-Length request body, never past it."""

    def __init__(self, rfile: Any, length: int) -> None:
        self._rfile = rfile
        self._remaining = length

    def read(self, n: int) -> bytes:
        if self._remaining <= 0:
            return b""
        data = self._rfile.read(min(n, self._remaining))
        self._remaining -= len(data)
        return data


class _ChunkedBodyReader:
    """``read(n)`` over a ``Transfer-Encoding: chunked`` request body.

    ``BaseHTTPRequestHandler`` leaves chunked request bodies undecoded
    on ``rfile``; streaming clients (``http.client`` with an iterator
    body) send exactly that, so the server de-chunks here — incremen-
    tally, enforcing the cumulative body cap as bytes arrive rather
    than after buffering them. The first framing error is latched:
    every later ``read`` re-raises it, so a drain after a refused size
    line ends instead of parsing body bytes as the next chunk.
    """

    def __init__(self, rfile: Any, max_bytes: int) -> None:
        self._rfile = rfile
        self._max_bytes = max_bytes
        self._remaining = 0
        self._total = 0
        self._done = False
        self._error: Exception | None = None

    def _start_chunk(self) -> None:
        line = self._rfile.readline(34)
        if not line.endswith(b"\n"):
            raise wire.WireTruncatedError("chunked body ended mid-size-line")
        try:
            size = int(line.split(b";", 1)[0].strip() or b"x", 16)
        except ValueError:
            raise ServingError(
                400, f"invalid chunked encoding size line {line!r}"
            ) from None
        if size == 0:
            # Trailers (rare) run until a blank line.
            while True:
                trailer = self._rfile.readline(1024)
                if trailer in (b"\r\n", b"\n", b""):
                    break
            self._done = True
            return
        self._total += size
        if self._total > self._max_bytes:
            raise ServingError(413, f"request body exceeds {self._max_bytes} bytes")
        self._remaining = size

    def _consume_crlf(self) -> None:
        trailer = self._rfile.read(2)
        if trailer not in (b"\r\n",):
            raise ServingError(400, f"chunked encoding missing CRLF, got {trailer!r}")

    def read(self, n: int) -> bytes:
        if self._error is not None:
            raise self._error
        try:
            while not self._done and self._remaining == 0:
                self._start_chunk()
            if self._done:
                return b""
            data = self._rfile.read(min(n, self._remaining))
            if not data:
                raise wire.WireTruncatedError("chunked body ended mid-chunk")
            self._remaining -= len(data)
            if self._remaining == 0:
                self._consume_crlf()
            return data
        except Exception as exc:
            self._error = exc
            raise


class _HTTPChunkWriter:
    """Chunked-transfer response writer that coalesces small pieces.

    Wire streams interleave tiny pieces (8-byte length prefixes,
    ~120-byte npy headers) with large data views; one HTTP chunk per
    piece would syscall three times per frame. Small pieces accumulate
    in a buffer; large ones flush it and go out as their own chunk,
    keeping the data path copy-free.
    """

    COALESCE = 64 * 1024

    def __init__(self, wfile: Any) -> None:
        self._wfile = wfile
        self._buffer = bytearray()

    def write(self, piece: bytes | memoryview) -> None:
        if len(piece) >= self.COALESCE:
            self.flush()
            self._emit(piece)
            return
        self._buffer += piece
        if len(self._buffer) >= self.COALESCE:
            self.flush()

    def _emit(self, data: bytes | bytearray | memoryview) -> None:
        self._wfile.write(f"{len(data):X}\r\n".encode("ascii"))
        self._wfile.write(data)
        self._wfile.write(b"\r\n")

    def flush(self) -> None:
        if self._buffer:
            self._emit(self._buffer)
            self._buffer = bytearray()

    def close(self) -> None:
        self.flush()
        self._wfile.write(b"0\r\n\r\n")


class _BaseHandler(BaseHTTPRequestHandler):
    """Request plumbing shared by the server's and the proxy's handlers.

    Body limits, ``X-Deadline-Ms`` parsing, the JSON error envelope, the
    chunked stream-response head, request counting and trace stamping
    live here once. Subclasses implement ``_handle_get`` /
    ``_handle_post`` and raise :class:`ServingError` for a typed status;
    the owning server exposes ``quiet``, ``trace_sink`` and
    ``_m_requests`` (a labelled request counter).
    """

    protocol_version = "HTTP/1.1"

    #: Paths kept as-is in the request-counter label; anything else is
    #: folded into ``other`` so scanners can't mint unbounded series.
    _METRIC_PATHS = frozenset(
        {"/assign", "/healthz", "/model", "/reload", "/metrics"}
    )

    # Set per request by _observed; the stdlib's own error responses
    # (a garbled request line) go out before it runs.
    _trace_id: str | None = None
    _parent_span: str | None = None

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    def address_string(self) -> str:
        client = self.client_address
        # AF_UNIX peers have no (host, port) pair — client_address is ''.
        return client[0] if isinstance(client, tuple) and client else "uds"

    def send_response(self, code: int, message: str | None = None) -> None:
        # One chokepoint stamps every response — JSON errors, npy
        # bodies, and chunked streams alike — with the request's trace
        # id, and remembers the code for the request counter.
        super().send_response(code, message)
        self._sent_status = code
        if self._trace_id:
            self.send_header(TRACE_HEADER, self._trace_id)

    def do_GET(self) -> None:  # noqa: N802
        self._observed(self._handle_get)

    def do_POST(self) -> None:  # noqa: N802
        self._observed(self._handle_post)

    def _observed(self, handle: Any) -> None:
        """Run one request handler with counting, trace context and the
        JSON error envelope."""
        self._sent_status = 0
        self._trace_id = self.headers.get(TRACE_HEADER) or None
        self._parent_span = self.headers.get(PARENT_HEADER) or None
        try:
            handle()
        except _InjectedSever:
            self._sever_connection()
        except Exception as exc:  # every failure becomes a JSON error
            self._fail(exc)
        finally:
            path = self.path if self.path in self._METRIC_PATHS else "other"
            self.server._m_requests.labels(
                path=path, method=self.command, code=str(self._sent_status)
            ).inc()

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self,
        status: int,
        payload: dict[str, Any],
        headers: dict[str, str] | None = None,
    ) -> None:
        self._send(
            status, json.dumps(payload).encode("utf-8"), "application/json", headers
        )

    def _fail(self, exc: Exception) -> None:
        status = exc.status if isinstance(exc, ServingError) else 400
        retry_after = getattr(exc, "retry_after_s", None)
        headers = None
        if retry_after is not None:
            headers = {"Retry-After": str(max(1, round(retry_after)))}
        self._send_json(status, {"error": str(exc)}, headers)

    def _start_stream(self, headers: dict[str, str]) -> _HTTPChunkWriter:
        """Send a 200 chunked stream-response head; returns its body writer."""
        self.send_response(200)
        self.send_header("Content-Type", STREAM_CONTENT_TYPE)
        self.send_header("Transfer-Encoding", "chunked")
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        return _HTTPChunkWriter(self.wfile)

    def _sever_connection(self) -> None:
        """Cut the socket dead mid-exchange (injected fault only)."""
        self.close_connection = True
        try:
            self.wfile.flush()
        except OSError:
            pass
        try:
            self.connection.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _refuse_unread(self, status: int, message: str) -> ServingError:
        """A refusal that leaves the request body unread: the connection
        closes after the response, so a keep-alive client cannot
        desynchronize on the leftover bytes parsed as its next request."""
        self.close_connection = True
        return ServingError(status, message)

    def _content_length(self) -> int:
        """The declared body length, checked before any byte is read."""
        value = self.headers.get("Content-Length", "0")
        try:
            length = int(value)
        except ValueError:
            length = -1
        if length < 0:
            raise self._refuse_unread(400, f"invalid Content-Length {value!r}")
        if length > MAX_BODY_BYTES:
            raise self._refuse_unread(
                413, f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        return length

    def _read_body(self) -> bytes:
        length = self._content_length()
        return self.rfile.read(length) if length else b""

    def _stream_body_reader(self) -> Any:
        """``read(n)`` callable over the raw request body bytes."""
        if self.headers.get("Transfer-Encoding", "").lower() == "chunked":
            return _ChunkedBodyReader(self.rfile, MAX_BODY_BYTES)
        return _BoundedBodyReader(self.rfile, self._content_length())

    def _drain_body(self, body: Any) -> None:
        """Consume the rest of a request body after a failure."""
        budget = MAX_BODY_BYTES
        try:
            while budget > 0:
                piece = body.read(min(65536, budget))
                if not piece:
                    return
                budget -= len(piece)
        except Exception:
            pass
        self.close_connection = True

    def _request_deadline(self) -> Deadline | None:
        """Parse and pre-enforce the request's ``X-Deadline-Ms`` budget.

        Runs before the body is read or any buffer allocated: work
        whose budget is already spent is refused with a 504 — the
        client gave up, so computing the answer only burns capacity.
        The same budget object is decremented across every downstream
        hop the request makes (proxy lanes, failovers, re-deals): each
        hop sends the *remaining* milliseconds.
        """
        try:
            deadline = Deadline.from_header(self.headers.get(DEADLINE_HEADER))
        except ValueError as exc:
            raise self._refuse_unread(
                400, f"invalid {DEADLINE_HEADER} header: {exc}"
            ) from None
        if deadline is not None and deadline.expired:
            raise self._refuse_unread(504, "deadline exhausted before processing")
        return deadline

    def _hop_span(self, name: str, headers: dict[str, str] | None = None) -> Any:
        """Open a child span for one hop (None when untraced).

        With *headers*, also propagate the request's trace context onto
        that downstream request: the hop's own span id becomes the
        downstream parent, so worker spans hang off the proxy hop that
        carried them.
        """
        span = start_span(
            self.server.trace_sink, name, self._trace_id, self._parent_span
        )
        if headers is not None and self._trace_id:
            headers[TRACE_HEADER] = self._trace_id
            parent = span.span_id if span is not None else self._parent_span
            if parent:
                headers[PARENT_HEADER] = parent
        return span


class _Handler(_BaseHandler):
    server: AssignmentServer  # narrowed for type checkers

    def _handle_get(self) -> None:
        if self.path == "/metrics":
            # Served even with no model loaded: a scrape must not
            # depend on the thing it exists to observe.
            body = obs_prometheus.render_registry(self.server.metrics)
            self._send(200, body.encode("utf-8"), obs_prometheus.CONTENT_TYPE)
            return
        self.server.maybe_reload()
        if self.path == "/healthz":
            snap = self.server.snapshot()
            self._send_json(
                200,
                {
                    "status": "ok",
                    "version": snap.version,
                    "follow": self.server.follow,
                    "uptime_s": round(time.monotonic() - self.server.started_at, 3),
                },
                {VERSION_HEADER: snap.version},
            )
        elif self.path == "/model":
            snap = self.server.snapshot()
            self._send_json(
                200,
                {
                    "version": snap.version,
                    "method": snap.model.config.method,
                    "k": snap.model.k,
                    "n_features": snap.model.n_features,
                    "attributes": snap.model.attribute_names,
                    "summary": snap.model.summary(),
                    "stream": {
                        "content_type": STREAM_CONTENT_TYPE,
                        "codecs": list(wire.available_codecs()),
                        "distances": True,
                    },
                },
                {VERSION_HEADER: snap.version},
            )
        else:
            raise ServingError(404, f"unknown path {self.path!r}")

    def _handle_post(self) -> None:
        if self.path == "/assign":
            self.server.maybe_reload()
            self._do_assign()
        elif self.path == "/reload":
            body = self._read_body()  # drain so keep-alive stays in sync
            changed = self.server.reload(force=True, version=_decode_reload(body))
            snap = self.server.snapshot()
            self._send_json(
                200,
                {"version": snap.version, "changed": changed},
                {VERSION_HEADER: snap.version},
            )
        else:
            raise ServingError(404, f"unknown path {self.path!r}")

    def _do_assign(self) -> None:
        self._request_deadline()  # refuse spent budgets pre-allocation
        span = self._hop_span("server.assign")
        if span is None:
            self._assign_work(None)
            return
        if self.server.worker_index:
            span.set(worker=self.server.worker_index)
        with span:
            self._assign_work(span)

    def _assign_work(self, span: Any) -> None:
        start = time.perf_counter()
        injector = self.server.fault_injector
        if injector is not None:
            event = injector.fire("server.assign")  # sleeps through delays
            if event is not None and event.kind == "refuse":
                raise _InjectedSever()
        snap = self.server.snapshot()  # pinned: a mid-request swap cannot move it
        if span is not None:
            span.set(version=snap.version)
        content_type = self.headers.get("Content-Type", "application/json")
        if content_type.startswith(STREAM_CONTENT_TYPE):
            self._do_assign_stream(snap, start, span)
            return
        body = self._read_body()
        chunk_size = self.server.chunk_size
        if content_type.startswith(NPY_CONTENT_TYPE):
            mode = "npy"
            points = _decode_npy(body)
        else:
            mode = "json"
            points, chunk_size = _decode_json(body, chunk_size)
        chunks = list(snap.assigner.assign_iter(points, chunk_size=chunk_size))
        # An empty (0, d) batch yields no chunks; in-process assign
        # returns empty labels for it, and so must the server.
        labels = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        )
        if mode == "npy":
            out = io.BytesIO()
            np.save(out, labels, allow_pickle=False)
            payload = out.getvalue()
            self._send(200, payload, NPY_CONTENT_TYPE, {VERSION_HEADER: snap.version})
        else:
            payload = json.dumps(
                {
                    "version": snap.version,
                    "n": int(labels.shape[0]),
                    "labels": labels.tolist(),
                }
            ).encode("utf-8")
            self._send(
                200, payload, "application/json", {VERSION_HEADER: snap.version}
            )
        server = self.server
        server._m_latency.labels(mode=mode).observe(time.perf_counter() - start)
        server._m_rows.labels(mode=mode).inc(float(labels.shape[0]))
        server._m_bytes.labels(direction="in").inc(float(len(body)))
        server._m_bytes.labels(direction="out").inc(float(len(payload)))
        if span is not None:
            span.set(
                mode=mode,
                rows=int(labels.shape[0]),
                bytes_in=len(body),
                bytes_out=len(payload),
            )

    def _do_assign_stream(
        self, snap: _Snapshot, start: float, span: Any
    ) -> None:
        """Streamed assign: score request frames as they arrive.

        Request frames feed ``assign_iter`` lazily, so scoring overlaps
        the network receive; the resulting label frames (8 bytes/row —
        ~d× smaller than the points) are buffered until the request
        terminator and only then streamed back. Writing the response
        while the client is still sending would deadlock once both
        socket buffers fill, and buffering only the small side keeps the
        server O(labels), not O(points). A useful consequence: every
        failure — bad frame, wrong width, truncated stream — happens
        before any response byte, so the client always gets a clean 400
        and never a partial 200.
        """
        injector = self.server.fault_injector
        stream_event = injector.fire("server.stream") if injector is not None else None
        body = self._stream_body_reader()
        try:
            reader = wire.StreamReader(body.read, max_total_bytes=MAX_BODY_BYTES)
            reader.read_header()
            response_codec = wire.negotiate_codec(
                reader.codec if reader.accept is None else reader.accept
            )
            want_distance = reader.distances

            def frames() -> Any:
                for array in reader.frames():
                    if array.ndim != 2:
                        raise ServingError(
                            400,
                            f"stream frames must be 2-D, got shape {array.shape}",
                        )
                    yield array

            results: list[Any] = []
            try:
                for item in snap.assigner.assign_iter(
                    frames(),
                    chunk_size=self.server.chunk_size,
                    return_distance=want_distance,
                ):
                    results.append(item)
            except ValueError as exc:  # wire errors and feature mismatches alike
                raise ServingError(
                    400, f"invalid stream payload: {exc}"
                ) from None
        except Exception:
            # A failure can leave request bytes unread (e.g. the stream
            # terminator after a bad frame); a keep-alive client would
            # then desync by parsing them as its next request line.
            # Drain what remains — or sever the connection if we can't.
            self._drain_body(body)
            raise
        # Success leaves bytes too: the wire terminator is *inside* the
        # HTTP body, so a chunked request's last-chunk marker is still
        # on the socket. Consume through end-of-body before responding.
        self._drain_body(body)

        def arrays() -> Any:
            for item in results:
                if want_distance:
                    yield item[0]
                    yield item[1]
                else:
                    yield item

        writer = self._start_stream({VERSION_HEADER: snap.version})
        if stream_event is not None and stream_event.kind in (
            "disconnect",
            "truncate",
            "corrupt",
            "slow",
        ):
            self._write_faulted_stream(
                writer, arrays(), response_codec, want_distance, stream_event
            )
            return
        for piece in wire.iter_encode(
            arrays(), codec=response_codec, distances=want_distance
        ):
            writer.write(piece)
        writer.close()
        rows = sum(
            int((item[0] if want_distance else item).shape[0]) for item in results
        )
        server = self.server
        server._m_latency.labels(mode="stream").observe(time.perf_counter() - start)
        server._m_rows.labels(mode="stream").inc(float(rows))
        server._m_bytes.labels(direction="in").inc(float(reader.total_bytes))
        if span is not None:
            span.set(
                mode="stream",
                rows=rows,
                codec=response_codec,
                bytes_in=reader.total_bytes,
            )

    def _write_faulted_stream(
        self,
        writer: "_HTTPChunkWriter",
        arrays: Any,
        codec: str,
        distances: bool,
        event: FaultEvent,
    ) -> None:
        """Mangle the response stream per one injected fault event.

        ``event.arg`` selects the 0-based response frame to fault.
        ``disconnect`` severs cleanly at that frame boundary;
        ``truncate`` severs mid-frame; ``corrupt`` flips a byte inside
        the frame's npy magic (so decoders *detect* it — payload-data
        corruption is undetectable without checksums and deliberately
        not injected); ``slow`` instead trickles every frame with
        ``arg`` seconds of sleep (slow-loris).
        """
        writer.write(wire.encode_header(codec, distances=distances))
        target = int(event.arg or 0)
        for index, array in enumerate(arrays):
            frame = b"".join(wire.encode_frame(array, codec))
            if event.kind == "slow":
                time.sleep(float(event.arg or 0.0))
            elif index == target:
                if event.kind == "disconnect":
                    writer.flush()
                    raise _InjectedSever()
                if event.kind == "truncate":
                    writer.write(frame[: max(1, len(frame) // 2)])
                    writer.flush()
                    raise _InjectedSever()
                if event.kind == "corrupt":
                    mangled = bytearray(frame)
                    mangled[8] ^= 0xFF  # first payload byte past the prefix
                    frame = bytes(mangled)
            writer.write(frame)
        writer.write(wire.terminator())
        writer.close()


def _decode_reload(body: bytes) -> str | None:
    """Optional ``{"version": "v0007"}`` body of ``POST /reload``."""
    if not body:
        return None
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServingError(400, f"invalid reload payload: {exc}") from None
    if not isinstance(payload, dict):
        raise ServingError(400, 'reload payload must be {"version": ...}')
    version = payload.get("version")
    if version is not None and not isinstance(version, str):
        raise ServingError(400, f"reload version must be a string, got {version!r}")
    return version


def _decode_npy(body: bytes) -> np.ndarray:
    # A read-only np.frombuffer view over the request bytes — the
    # Assigner only reads rows, so no copy is ever made server-side.
    try:
        return wire.decode_npy(body)
    except wire.WireError as exc:
        raise ServingError(400, f"invalid npy payload: {exc}") from None


def _decode_json(
    body: bytes, default_chunk: int | None
) -> tuple[np.ndarray, int | None]:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServingError(400, f"invalid JSON payload: {exc}") from None
    if not isinstance(payload, dict) or "points" not in payload:
        raise ServingError(400, 'JSON payload must be {"points": [[...]]}')
    try:
        points = np.asarray(payload["points"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ServingError(400, f"points is not a numeric matrix: {exc}") from None
    chunk_size = payload.get("chunk_size", default_chunk)
    if chunk_size is not None and (
        not isinstance(chunk_size, int) or isinstance(chunk_size, bool)
    ):
        raise ServingError(400, f"chunk_size must be an integer, got {chunk_size!r}")
    return points, chunk_size
