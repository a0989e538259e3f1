"""Model serving subsystem: registry, servers, fleet, proxy, client.

This package turns the repro from a library into a deployable service,
completing the train-once / assign-many story the paper's S-blind
assignment rule enables (fairness shapes the centers during *training*;
deployment only reads geometry):

* :mod:`repro.serving.registry` — a directory-of-artifacts convention
  (:class:`ModelRegistry`): monotonically versioned model directories,
  an atomically-updated ``LATEST`` pointer, publish / resolve /
  rollback / prune with retention.
* :mod:`repro.serving.server` — :class:`AssignmentServer`, a long-lived
  stdlib HTTP process wrapping a registry-resolved
  :class:`~repro.api.assign.Assigner` with mtime-based hot-reload of
  the ``LATEST`` pointer (or pinned to one version with
  ``follow=False`` — fleet-worker mode). Responses always carry the
  serving model version.
* :mod:`repro.serving.fleet` — :class:`FleetSupervisor`, a multi-process
  fleet: N pinned worker processes against one registry, health
  monitoring with backoff restarts, and canary rollouts that replay a
  pinned probe batch bit-for-bit before a new version may reach the
  fleet (automatic ``LATEST`` rollback on mismatch).
* :mod:`repro.serving.wire` — the ``RSW1`` streaming wire format:
  length-prefixed npy frames with codec negotiation
  (identity / gzip / zstd when available), zero-copy
  ``np.frombuffer`` decode, and an incremental :class:`StreamReader`.
  Both servers, the proxy and the client speak it for
  ``POST /assign`` streams.
* :mod:`repro.serving.proxy` — :class:`FleetProxy`, the scatter-gather
  front door: one port (TCP or Unix socket), streamed bodies dealt to
  worker lanes by one dealer with one lane failover loop (frames
  relayed whole while they upload, a lane per 512 KiB), npy and JSON
  bodies forwarded whole to one worker, every response stamped
  with worker id(s) + serving version, and the ``/admin/status`` /
  ``/admin/rollout`` control endpoints.
* :mod:`repro.serving.client` — :class:`ServingClient`, a stdlib HTTP
  client speaking the same JSON / npy-bytes / streamed-wire protocol
  over TCP or ``http+unix://`` sockets, with transparent
  reconnect-and-retry for idempotent requests (also the engine behind
  ``repro bench serve`` and the proxy's forwarding path).
* :mod:`repro.serving.resilience` — the failure-budget primitives the
  rest of the stack composes: :class:`Deadline` (per-request budget,
  propagated via the ``X-Deadline-Ms`` header and decremented across
  retries), :func:`backoff_delays` (jittered exponential reconnect
  pacing) and :class:`CircuitBreaker` / :class:`BreakerBoard`
  (per-worker-lane trip / half-open-probe / close state machines used
  by :class:`FleetProxy`).

CLI entry points: ``repro serve``, ``repro fleet up|status|rollout``,
``repro registry publish|list|rollback|prune``,
``repro bench serve|fleet`` and ``repro chaos``.
"""

from .client import (
    AssignResponse,
    ServingClient,
    ServingClientError,
    ServingTimeoutError,
    ServingUnavailableError,
)
from .fleet import FleetError, FleetSupervisor, RolloutReport, WorkerStatus
from .proxy import FleetProxy
from .registry import LATEST_POINTER, ModelRegistry, RegistryError
from .resilience import (
    DEADLINE_HEADER,
    BreakerBoard,
    CircuitBreaker,
    Deadline,
    backoff_delays,
)
from .server import AssignmentServer, serve_forever
from .wire import (
    StreamReader,
    WireError,
    WireFormatError,
    WireFrameSizeError,
    WireTruncatedError,
    available_codecs,
    negotiate_codec,
)

__all__ = [
    "AssignResponse",
    "AssignmentServer",
    "BreakerBoard",
    "CircuitBreaker",
    "DEADLINE_HEADER",
    "Deadline",
    "FleetError",
    "FleetProxy",
    "FleetSupervisor",
    "LATEST_POINTER",
    "ModelRegistry",
    "RegistryError",
    "RolloutReport",
    "ServingClient",
    "ServingClientError",
    "ServingTimeoutError",
    "ServingUnavailableError",
    "StreamReader",
    "WireError",
    "WireFormatError",
    "WireFrameSizeError",
    "WireTruncatedError",
    "WorkerStatus",
    "available_codecs",
    "backoff_delays",
    "negotiate_codec",
    "serve_forever",
]
