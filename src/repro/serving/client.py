"""Stdlib HTTP client for the assignment server.

:class:`ServingClient` speaks the three payload formats the server
accepts — JSON for interoperability, raw npy bytes for throughput (one
``np.save`` in, zero-copy ``np.frombuffer`` decode out), and the
streamed frame format (:meth:`ServingClient.assign_stream`): points go
out as length-prefixed npy frames over a chunked request body while the
server scores them, and label frames are decoded off the socket as they
come back — no hop ever holds the full payload. A single keep-alive
connection is reused across calls, so ``repro bench serve`` measures
serving overhead, not TCP handshakes. TCP connections disable Nagle
(``TCP_NODELAY``) — the 40ms Nagle/delayed-ACK interaction otherwise
dominates small-batch latency — and ``uds=`` (or a ``http+unix://``
url) connects over a unix-domain socket for co-located servers.

**Reconnect.** A reused keep-alive connection goes stale whenever the
server restarts (fleet supervisors do this on purpose) or an idle
timeout fires; the first request after that fails at the socket layer,
not with an HTTP status. Every request this client issues is idempotent
(``/assign`` is a pure function of the payload and the serving model,
``/reload`` re-resolves to the same target), so :meth:`request_raw`
transparently retries exactly once on a fresh connection. If the fresh
connection fails too, the server really is unreachable and a
:class:`ServingUnavailableError` is raised — distinguishable from an
HTTP-level :class:`ServingClientError` so a proxy can fail over to the
next worker instead of surfacing a 400. An optional ``reconnect_wait``
keeps retrying (with short sleeps) for bounded wall-clock, riding out a
worker's restart window.
"""

from __future__ import annotations

import http.client
import io
import json
import random
import socket
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..faults.plan import FaultInjector
from ..obs.trace import (
    PARENT_HEADER,
    TRACE_HEADER,
    TraceSink,
    get_sink,
    new_trace_id,
    start_span,
)
from . import wire
from .resilience import DEADLINE_HEADER, Deadline, backoff_delays
from .server import NPY_CONTENT_TYPE, STREAM_CONTENT_TYPE, VERSION_HEADER

#: Base (first full) delay of the jittered exponential backoff between
#: reconnect attempts inside the ``reconnect_wait`` window.
RECONNECT_PAUSE_S = 0.05

#: Rows per request frame when the caller does not choose.
DEFAULT_STREAM_CHUNK = 8192


class _TCPConnection(http.client.HTTPConnection):
    """HTTPConnection with TCP_NODELAY and a separate connect timeout."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float,
        connect_timeout: float | None,
    ) -> None:
        super().__init__(host, port, timeout=timeout)
        self._connect_timeout = connect_timeout

    def connect(self) -> None:
        connect_timeout = (
            self.timeout if self._connect_timeout is None else self._connect_timeout
        )
        self.sock = socket.create_connection(
            (self.host, self.port), timeout=connect_timeout
        )
        # A dead host should fail fast (connect_timeout), but a slow
        # response is governed by the read timeout from here on.
        self.sock.settimeout(self.timeout)
        try:
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass


class _UnixConnection(http.client.HTTPConnection):
    """HTTPConnection over an ``AF_UNIX`` socket (no Nagle to disable)."""

    def __init__(
        self,
        path: str,
        *,
        timeout: float,
        connect_timeout: float | None,
    ) -> None:
        super().__init__("localhost", timeout=timeout)
        self._uds_path = path
        self._connect_timeout = connect_timeout

    def connect(self) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(
            self.timeout if self._connect_timeout is None else self._connect_timeout
        )
        try:
            sock.connect(self._uds_path)
        except OSError:
            sock.close()
            raise
        sock.settimeout(self.timeout)
        self.sock = sock


class ServingClientError(RuntimeError):
    """Non-2xx response from the server (carries status + server message)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServingUnavailableError(ServingClientError):
    """The server could not be reached even on a fresh connection.

    Raised only after the transparent reconnect-and-retry failed too —
    the transport-level sibling of :class:`ServingClientError`, so
    callers (e.g. the fleet proxy's failover path) can tell "this
    worker is down" apart from "this request is bad".
    """

    def __init__(self, message: str) -> None:
        super().__init__(503, message)


class ServingTimeoutError(ServingClientError):
    """The request ran past the socket timeout on a live connection.

    Deliberately distinct from :class:`ServingUnavailableError` and
    never retried: the server is reachable but slow, and re-sending the
    same request (to this worker or, in the proxy, to every other
    worker) would double the load without changing the outcome.
    """

    def __init__(self, message: str) -> None:
        super().__init__(504, message)


@dataclass(frozen=True)
class AssignResponse:
    """One ``POST /assign`` result: labels plus the version that made them.

    ``distances`` is populated only by streamed requests that asked for
    it (:meth:`ServingClient.assign_stream` with ``return_distance=True``).
    """

    labels: np.ndarray
    version: str
    distances: np.ndarray | None = None


class ServingClient:
    """Client for one :class:`~repro.serving.server.AssignmentServer`.

    Args:
        host, port: server address (or pass ``url="http://h:p"``).
        url: server url; ``http://host:port`` or ``http+unix:///path``
            (the spelling :attr:`AssignmentServer.url` produces for a
            unix-domain-socket bind).
        uds: connect to a unix-domain socket at this path instead of
            TCP (co-located serving: no TCP stack on the hot path).
        timeout: per-request socket (read) timeout in seconds.
        connect_timeout: timeout for establishing the connection only
            (default: same as *timeout*). A dead host should fail fast
            without also capping how long a large batch may take.
        reconnect_wait: extra wall-clock (seconds) to keep retrying a
            connection-refused server before giving up — rides out a
            restart window. The default ``0.0`` still performs the
            single transparent retry on a stale keep-alive connection.
        backoff_base: first (full) reconnect pause in seconds; later
            pauses double up to *backoff_cap*, each jittered down by up
            to half so concurrent clients don't reconnect in lockstep
            (see :func:`repro.serving.resilience.backoff_delays`).
        backoff_cap: ceiling on the un-jittered reconnect pause.
        backoff_seed: seed the backoff jitter for reproducible retry
            timing (tests, chaos runs); default draws from the ambient
            :mod:`random` generator.
        fault_injector: a :class:`repro.faults.FaultInjector` fired at
            the ``client.request`` site before every attempt (chaos
            testing); default: no injection.
        trace_sink: a :class:`repro.obs.TraceSink` receiving one span
            per request (default: the sink named by the
            ``REPRO_TRACE_SINK`` environment variable, looked up per
            request so tests can flip it; ``None`` there means no
            spans). Every request carries an ``X-Trace-Id`` regardless
            — minted here unless the caller supplied one via
            ``headers`` — and :attr:`last_trace_id` remembers it so
            errors can be correlated with the trace sink.

    Usable as a context manager; the underlying connection is opened
    lazily and reused until :meth:`close`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8000,
        *,
        url: str | None = None,
        uds: str | Path | None = None,
        timeout: float = 30.0,
        connect_timeout: float | None = None,
        reconnect_wait: float = 0.0,
        backoff_base: float = RECONNECT_PAUSE_S,
        backoff_cap: float = 1.0,
        backoff_seed: int | None = None,
        fault_injector: FaultInjector | None = None,
        trace_sink: TraceSink | None = None,
    ) -> None:
        if url is not None:
            if url.startswith("http+unix://"):
                uds = url.removeprefix("http+unix://")
            else:
                stripped = url.removeprefix("http://").rstrip("/")
                host, _, port_text = stripped.partition(":")
                port = int(port_text or 80)
        self.host = host
        self.port = port
        self.uds = str(uds) if uds is not None else None
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.reconnect_wait = reconnect_wait
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._backoff_rng = (
            random.Random(backoff_seed) if backoff_seed is not None else None
        )
        self.fault_injector = fault_injector
        self._trace_sink = trace_sink
        #: Trace id of the most recent request (minted or caller-given).
        self.last_trace_id: str | None = None
        self._conn: http.client.HTTPConnection | None = None

    @property
    def trace_sink(self) -> TraceSink | None:
        return self._trace_sink if self._trace_sink is not None else get_sink()

    def _trace_context(
        self, headers: dict[str, str] | None, name: str
    ) -> tuple[dict[str, str], str, Any]:
        """Headers with trace propagation applied, plus an open span.

        Mints a trace id unless the caller already set ``X-Trace-Id``.
        When a sink is configured, opens a span whose parent is the
        incoming ``X-Parent-Span`` (set by a proxy threading this
        client into a larger trace) and advertises the new span as the
        parent for the server's own span.
        """
        merged = dict(headers or {})
        trace_id = merged.get(TRACE_HEADER)
        if not trace_id:
            trace_id = new_trace_id()
            merged[TRACE_HEADER] = trace_id
        self.last_trace_id = trace_id
        span = start_span(
            self.trace_sink, name, trace_id, merged.get(PARENT_HEADER)
        )
        if span is not None:
            merged[PARENT_HEADER] = span.span_id
        return merged, trace_id, span

    # ------------------------------------------------------------------ #
    # Transport                                                           #
    # ------------------------------------------------------------------ #

    @property
    def address(self) -> str:
        """Human-readable peer address (host:port or socket path)."""
        return self.uds if self.uds is not None else f"{self.host}:{self.port}"

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            if self.uds is not None:
                self._conn = _UnixConnection(
                    self.uds,
                    timeout=self.timeout,
                    connect_timeout=self.connect_timeout,
                )
            else:
                self._conn = _TCPConnection(
                    self.host,
                    self.port,
                    timeout=self.timeout,
                    connect_timeout=self.connect_timeout,
                )
        return self._conn

    def request_raw(
        self,
        method: str,
        path: str,
        body: bytes | Callable[[], Iterable[bytes]] | None = None,
        content_type: str = "application/json",
        *,
        retry: bool = True,
        headers: dict[str, str] | None = None,
        deadline_ms: float | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One HTTP exchange; returns ``(status, headers, payload)``.

        Handles the stale-keep-alive problem transparently: a request
        that fails at the socket layer (server restarted, idle timeout,
        half-closed connection) is retried exactly once on a fresh
        connection — safe because every server endpoint is idempotent.
        Within ``reconnect_wait`` seconds further reconnects are
        attempted with jittered exponential pauses (restart window);
        after that a :class:`ServingUnavailableError` is raised.

        Args:
            body: bytes, or a zero-argument callable returning an
                iterable of byte pieces — the streamed spelling. The
                pieces are sent with chunked transfer-encoding, and a
                retry calls the factory again for a fresh iterator (a
                half-consumed one cannot be re-sent).
            retry: pass ``False`` for calls that must not be re-issued
                (e.g. a fleet rollout trigger, where a second submission
                after a socket timeout would run a second rollout).
            headers: extra request headers merged over the defaults.
            deadline_ms: total wall-clock budget for this request. Sent
                to the server as ``X-Deadline-Ms`` with the *remaining*
                budget at every attempt (decremented across retries) so
                the whole chain — proxy hops included — spends from one
                allowance; an exhausted budget raises
                :class:`ServingTimeoutError` instead of retrying on.

        Raises:
            ServingUnavailableError: no server reachable at the address
                even on a fresh connection (or, with ``retry=False``,
                on the first transport failure).
        """
        merged, trace_id, span = self._trace_context(headers, "client.request")
        status: int | None = None
        try:
            status, response_headers, response = self._exchange(
                method,
                path,
                body,
                content_type,
                retry=retry,
                headers=merged,
                deadline=Deadline.after_ms(deadline_ms)
                if deadline_ms is not None
                else None,
            )
            try:
                payload = response.read()
            except (http.client.HTTPException, OSError) as exc:
                self.close()  # mid-body failure: the connection is desynced
                if isinstance(exc, TimeoutError):
                    raise ServingTimeoutError(
                        f"{self.address} stalled mid-response: {exc}"
                        f" [trace {trace_id}]"
                    ) from exc
                raise ServingUnavailableError(
                    f"{self.address} cut the response short: {exc}"
                    f" [trace {trace_id}]"
                ) from exc
            return status, response_headers, payload
        finally:
            if span is not None:
                span.finish(
                    method=method,
                    path=path,
                    status=status if status is not None else "error",
                    bytes_out=len(body) if isinstance(body, bytes) else 0,
                )

    def _exchange(
        self,
        method: str,
        path: str,
        body: bytes | Callable[[], Iterable[bytes]] | None,
        content_type: str,
        *,
        retry: bool = True,
        headers: dict[str, str] | None = None,
        deadline: Deadline | None = None,
    ) -> tuple[int, dict[str, str], http.client.HTTPResponse]:
        """The retry loop behind :meth:`request_raw`, response unread.

        Streamed callers consume the returned response incrementally;
        they must read it to the end before the connection can be
        reused. Transport retries only ever happen before the response
        line arrives, so a partially-read response is never re-sent.
        """
        request_headers = {"Content-Type": content_type} if body is not None else {}
        if headers:
            request_headers.update(headers)
        trace_id = request_headers.get(TRACE_HEADER)
        if not trace_id:
            # Direct _exchange callers (the proxy's relay path) either
            # propagate an id via headers or get a fresh one here, so
            # every wire request — and every error message — has one.
            trace_id = new_trace_id()
            request_headers[TRACE_HEADER] = trace_id
        self.last_trace_id = trace_id
        window = time.monotonic() + self.reconnect_wait
        delays = backoff_delays(
            base=self.backoff_base, cap=self.backoff_cap, rng=self._backoff_rng
        )
        attempt = 0
        while True:
            if deadline is not None and deadline.expired:
                raise ServingTimeoutError(
                    f"{self.address}: request deadline exhausted after "
                    f"{attempt} attempt(s) [trace {trace_id}]"
                )
            try:
                if self.fault_injector is not None:
                    event = self.fault_injector.fire("client.request")
                    if event is not None and event.kind == "refuse":
                        raise ConnectionRefusedError("injected fault: refuse")
                conn = self._connection()
                # The read timeout honors the deadline: a stalled/frozen
                # server must fail the request at the budget, not at the
                # (much larger) configured socket timeout — that is what
                # lets a proxy's circuit breaker learn about the stall
                # while the budget is still worth protecting.
                limit = self.timeout
                if deadline is not None:
                    # Re-stamped per attempt: the budget shrinks as real
                    # time passes, so a retry offers the server less.
                    request_headers[DEADLINE_HEADER] = deadline.header_value()
                    limit = max(0.05, min(self.timeout, deadline.remaining_s()))
                conn.timeout = limit
                if conn.sock is not None:
                    conn.sock.settimeout(limit)
                # A callable body yields a fresh piece-iterator per
                # attempt; http.client sends iterables with chunked
                # transfer-encoding (no Content-Length to compute).
                conn.request(
                    method, path, body=body() if callable(body) else body,
                    headers=request_headers,
                )
                response = conn.getresponse()
                return response.status, dict(response.getheaders()), response
            except (http.client.HTTPException, OSError) as exc:
                # The connection is unusable either way: drop it so the
                # next attempt (or the next call) starts clean.
                self.close()
                if isinstance(exc, TimeoutError):
                    # The server accepted the request and is (still)
                    # working on it: retrying would run it again.
                    raise ServingTimeoutError(
                        f"{self.address} did not answer within "
                        f"{self.timeout}s: {exc} [trace {trace_id}]"
                    ) from exc
                attempt += 1
                if not retry:
                    raise ServingUnavailableError(
                        f"{self.address}: {exc} [trace {trace_id}]"
                    ) from exc
                if attempt == 1:
                    continue  # the single transparent reconnect-and-retry
                now = time.monotonic()
                if now >= window:
                    raise ServingUnavailableError(
                        f"{self.address} unreachable after "
                        f"{attempt} attempts: {exc} [trace {trace_id}]"
                    ) from exc
                pause = min(next(delays), window - now)
                if deadline is not None:
                    pause = min(pause, deadline.remaining_s())
                time.sleep(max(0.0, pause))

    def request_json(
        self, method: str, path: str, body: bytes | None = None
    ) -> dict[str, Any]:
        """JSON request/response convenience over :meth:`request_raw`.

        Raises :class:`ServingClientError` for any ≥ 400 status, with
        the server's ``error`` message.
        """
        status, _, payload = self.request_raw(method, path, body)
        data = json.loads(payload.decode("utf-8"))
        if status >= 400:
            raise ServingClientError(
                status, self._with_trace(data.get("error", payload.decode("utf-8")))
            )
        return data

    def _with_trace(self, message: str) -> str:
        """Stamp the last request's trace id onto an error message."""
        if self.last_trace_id:
            return f"{message} [trace {self.last_trace_id}]"
        return message

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Endpoints                                                           #
    # ------------------------------------------------------------------ #

    def healthz(self) -> dict[str, Any]:
        """``GET /healthz`` — liveness plus the serving model version."""
        return self.request_json("GET", "/healthz")

    def model_info(self) -> dict[str, Any]:
        """``GET /model`` — version, method, k, dims, artifact summary."""
        return self.request_json("GET", "/model")

    def reload(self, version: str | None = None) -> dict[str, Any]:
        """``POST /reload`` — re-resolve the registry ``LATEST``, or pin.

        Args:
            version: explicit registry version to load and pin (fleet
                supervisors move workers this way); ``None`` re-resolves
                the ``LATEST`` pointer.
        """
        body = (
            json.dumps({"version": version}).encode("utf-8")
            if version is not None
            else b""
        )
        return self.request_json("POST", "/reload", body=body)

    def assign(
        self,
        points: np.ndarray,
        *,
        npy: bool = True,
        chunk_size: int | None = None,
        deadline_ms: float | None = None,
    ) -> AssignResponse:
        """``POST /assign`` — label *points*, returning labels + version.

        Args:
            points: query matrix ``(n, d)``.
            npy: ship raw npy bytes (fast path) instead of JSON.
            chunk_size: server-side rows per scored block (JSON mode
                only; npy mode uses the server default).
            deadline_ms: total request budget, propagated to the server
                (and through a fleet proxy to its workers) as
                ``X-Deadline-Ms`` — see :meth:`request_raw`.
        """
        points = np.ascontiguousarray(points, dtype=np.float64)
        if npy:
            buffer = io.BytesIO()
            np.save(buffer, points, allow_pickle=False)
            status, headers, payload = self.request_raw(
                "POST", "/assign", buffer.getvalue(), NPY_CONTENT_TYPE,
                deadline_ms=deadline_ms,
            )
            if status >= 400:
                message = json.loads(payload.decode("utf-8")).get("error", "")
                raise ServingClientError(status, self._with_trace(message))
            # Zero-copy decode: a read-only frombuffer view over the
            # response bytes (labels are read, compared, concatenated —
            # never mutated in place).
            labels = wire.decode_npy(payload)
            return AssignResponse(labels, headers.get(VERSION_HEADER, ""))
        body: dict[str, Any] = {"points": points.tolist()}
        if chunk_size is not None:
            body["chunk_size"] = chunk_size
        status, _, payload = self.request_raw(
            "POST", "/assign", json.dumps(body).encode("utf-8"),
            deadline_ms=deadline_ms,
        )
        data = json.loads(payload.decode("utf-8"))
        if status >= 400:
            raise ServingClientError(status, self._with_trace(data.get("error", "")))
        return AssignResponse(
            np.asarray(data["labels"], dtype=np.int64), data["version"]
        )

    def assign_stream(
        self,
        source: np.ndarray | Iterable[np.ndarray],
        *,
        chunk_size: int | None = None,
        codec: str = "identity",
        accept: str | None = None,
        return_distance: bool = False,
        deadline_ms: float | None = None,
        headers: dict[str, str] | None = None,
    ) -> AssignResponse:
        """``POST /assign`` over the streamed wire format.

        Points go out as length-prefixed npy frames on a chunked
        request body — the server scores each frame as it arrives, so
        upload and compute overlap and no hop ever materializes the
        whole batch. Label frames are decoded off the socket as
        read-only ``np.frombuffer`` views and concatenated.

        Args:
            source: one ``(n, d)`` matrix (framed every *chunk_size*
                rows without copying) or an iterable of point batches.
                An iterable is listed first so a transport retry can
                re-send it; pass the matrix spelling for zero-copy.
            chunk_size: rows per request frame (default
                :data:`DEFAULT_STREAM_CHUNK`).
            codec: compression for the request frames (``identity``,
                ``gzip``, or ``zstd`` where available — see
                :func:`repro.serving.wire.available_codecs`).
            accept: codec requested for the response stream (default:
                same as *codec*; the server may downgrade and names the
                codec it used in the response header).
            return_distance: also return squared distances to the
                assigned centers (``AssignResponse.distances``).
            deadline_ms: total request budget, sent as ``X-Deadline-Ms``
                (see :meth:`request_raw`).
            headers: extra request headers (a proxy threads its trace
                context through here).

        Returns:
            :class:`AssignResponse`; ``labels`` (and ``distances``)
            concatenate identically to in-process ``predict``.
        """
        codec = wire.negotiate_codec(codec)  # zstd downgrades where absent
        chunk = DEFAULT_STREAM_CHUNK if chunk_size is None else chunk_size
        if isinstance(source, np.ndarray):
            matrix = np.ascontiguousarray(np.atleast_2d(source), dtype=np.float64)

            def frames() -> Iterable[np.ndarray]:
                if matrix.shape[0] == 0:
                    return
                for start in range(0, matrix.shape[0], chunk):
                    yield matrix[start : start + chunk]
        else:
            batches = [np.ascontiguousarray(b, dtype=np.float64) for b in source]

            def frames() -> Iterable[np.ndarray]:
                yield from batches

        def body() -> Iterable[bytes]:
            return wire.iter_encode(
                frames(), codec, accept=accept, distances=return_distance
            )

        merged, trace_id, span = self._trace_context(
            headers, "client.assign_stream"
        )
        status: int | None = None
        result: AssignResponse | None = None
        try:
            status, response_headers, response = self._exchange(
                "POST",
                "/assign",
                body,
                STREAM_CONTENT_TYPE,
                headers=merged,
                deadline=Deadline.after_ms(deadline_ms)
                if deadline_ms is not None
                else None,
            )
            try:
                reader, payloads = self._read_stream(status, response)
                arrays = [
                    wire.decode_npy(wire.recode_payload(p, reader.codec, "identity"))
                    for p in payloads
                ]
            except wire.WireError as exc:
                raise ServingClientError(
                    502, self._with_trace(f"invalid stream response: {exc}")
                ) from exc
            except ServingClientError as exc:
                # Every error of this call names its trace id, as the
                # transport's do; a proxy relays lane errors unstamped.
                exc.args = (f"{exc} [trace {trace_id}]",)
                raise
            version = response_headers.get(VERSION_HEADER, "")
            if return_distance:
                labels = arrays[0::2]
                dists = arrays[1::2]
                result = AssignResponse(
                    np.concatenate(labels) if labels else np.empty(0, dtype=np.int64),
                    version,
                    np.concatenate(dists) if dists else np.empty(0, dtype=np.float64),
                )
            else:
                result = AssignResponse(
                    np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64),
                    version,
                )
            return result
        finally:
            if span is not None:
                span.finish(
                    status=status if status is not None else "error",
                    codec=codec,
                    rows=int(result.labels.shape[0]) if result is not None else 0,
                )

    def _read_stream(
        self, status: int, response: http.client.HTTPResponse
    ) -> tuple[wire.StreamReader, list[bytes]]:
        """Read one streamed ``/assign`` response off :meth:`_exchange`.

        Returns ``(reader, payloads)``: the label frames undecoded, and
        the reader naming their codec and distances flag. A proxy lane
        relays the payloads as they are; :meth:`assign_stream` decodes
        them. The response is read past the wire terminator, so the
        connection stays reusable.

        Raises:
            ServingClientError: a status >= 400 (with the server's
                message), or 502 for a malformed response stream.
            ServingUnavailableError: the response was cut short.
            ServingTimeoutError: the response stalled past the timeout.
        """
        try:
            if status >= 400:
                payload = response.read()
                try:
                    message = json.loads(payload.decode("utf-8")).get("error", "")
                except (UnicodeDecodeError, json.JSONDecodeError):
                    message = payload.decode("utf-8", "replace")
                raise ServingClientError(status, message)
            reader = wire.StreamReader(response.read)
            payloads = list(reader.raw_frames())
            # Past the wire terminator the HTTP chunked body still has
            # its last-chunk marker: drain so keep-alive stays in sync.
            while response.read(65536):
                pass
        except wire.WireError as exc:
            self.close()  # mid-body failure: the connection is desynced
            raise ServingClientError(502, f"invalid stream response: {exc}") from exc
        except (http.client.HTTPException, OSError) as exc:
            # The response body was cut (or stalled) mid-stream: the
            # request is idempotent and no partial result escapes, so
            # surface the retryable/timeout taxonomy like request_raw.
            self.close()
            if isinstance(exc, TimeoutError):
                raise ServingTimeoutError(
                    f"{self.address} stalled mid-stream: {exc}"
                ) from exc
            raise ServingUnavailableError(
                f"{self.address} cut the stream short: {exc}"
            ) from exc
        return reader, payloads
