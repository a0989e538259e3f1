"""Multi-process serving fleet: supervisor, health monitor, canary rollout.

One :class:`~repro.serving.server.AssignmentServer` process hot-reloads
the registry's ``LATEST`` the moment it moves — which means a bad
artifact reaches *all* traffic the moment it is published.
:class:`FleetSupervisor` closes that gap: it spawns N worker processes
**pinned** to one version (``repro serve --no-follow --pin vX``), so the
pointer alone moves nothing, and rolls a new version out in canary
stages:

1. **load gate** — the supervisor itself loads the candidate artifact
   and computes the expected labels for a pinned probe batch; an
   artifact that cannot load (corrupt npz, newer format) is rejected —
   and the ``LATEST`` pointer rolled back — before any worker sees it;
2. **canary** — exactly one worker is reloaded to the candidate, the
   probe batch is replayed through it over HTTP, and the served labels
   are compared bit-for-bit against the supervisor-side expectation
   (and, with ``require_identical=True``, against the labels the fleet
   served for the same probe just before — the bit-identity rollout
   mode for republished/migrated artifacts);
3. **stagger** — only after the canary passes are the remaining workers
   reloaded one at a time (probe-verified each), and only then is
   ``LATEST`` committed to the candidate.

Any mismatch reverts every moved worker to the previous version and
rolls the ``LATEST`` pointer back, so a bad artifact never serves from
more than one worker and never survives as the pointer target. Crashed
workers are restarted with exponential backoff, pinned to the fleet's
current version — a worker dying mid-rollout cannot resurrect on the
wrong model.

The sibling :class:`~repro.serving.proxy.FleetProxy` fronts the workers
on one port; ``repro fleet up|status|rollout`` is the CLI entry point.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from ..api.model import ClusterModel
from .client import ServingClient, ServingClientError
from .registry import ModelRegistry, RegistryError, atomic_write_text
from .server import WORKER_INDEX_ENV

#: Rows in the auto-generated probe batch replayed through the canary.
DEFAULT_PROBE_ROWS = 64

#: Seed of the auto-generated probe batch (pinned: the same fleet always
#: replays the same probe, so rollout verdicts are reproducible).
PROBE_SEED = 2020

#: First restart backoff; doubles per consecutive crash.
_BACKOFF_INITIAL_S = 0.25

#: Longest worker socket path auto-selection will use. ``AF_UNIX``
#: paths are capped at ~108 bytes (kernel ``sun_path``); staying well
#: under keeps room for the platform's terminator and abstract quirks.
_UDS_PATH_MAX = 90

#: Consecutive failed health checks before a live process is recycled.
_UNHEALTHY_LIMIT = 3


class FleetError(RuntimeError):
    """A fleet invariant is broken (no workers, startup failure, ...)."""


@dataclass(frozen=True)
class WorkerStatus:
    """One worker's health snapshot (the ``fleet status`` row)."""

    index: int
    pid: int | None
    port: int
    alive: bool
    healthy: bool
    version: str | None
    restarts: int
    uds: str | None = None
    url: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "pid": self.pid,
            "port": self.port,
            "alive": self.alive,
            "healthy": self.healthy,
            "version": self.version,
            "restarts": self.restarts,
            "uds": self.uds,
            "url": self.url,
        }


@dataclass(frozen=True)
class RolloutReport:
    """Outcome of one canary rollout attempt.

    Attributes:
        version: the candidate version the rollout targeted.
        previous: the version the fleet was serving before.
        ok: the whole fleet now serves *version*.
        rolled_back: the ``LATEST`` pointer was reverted to *previous*.
        canary_worker: index of the worker used as canary (-1 when the
            rollout failed before touching any worker).
        workers_reloaded: indices that served the candidate at any point
            (all reverted when ``ok`` is False).
        probe_rows: size of the probe batch that gated the rollout.
        reason: human-readable failure (or no-op) explanation.
    """

    version: str
    previous: str
    ok: bool
    rolled_back: bool = False
    canary_worker: int = -1
    workers_reloaded: tuple[int, ...] = ()
    probe_rows: int = 0
    reason: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "previous": self.previous,
            "ok": self.ok,
            "rolled_back": self.rolled_back,
            "canary_worker": self.canary_worker,
            "workers_reloaded": list(self.workers_reloaded),
            "probe_rows": self.probe_rows,
            "reason": self.reason,
        }


@dataclass
class _Worker:
    """Supervisor-side handle for one serving process."""

    index: int
    port: int
    announce_path: Path
    log_path: Path
    client: ServingClient
    url: str = ""
    uds: str | None = None
    process: subprocess.Popen | None = None
    log_file: Any = None
    restarts: int = 0
    backoff_s: float = _BACKOFF_INITIAL_S
    next_restart_at: float = 0.0
    unhealthy_count: int = 0
    spawned_at: float = 0.0
    ready: bool = False

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


def _free_ports(host: str, count: int) -> list[int]:
    """Reserve *count* distinct free ports (bound simultaneously)."""
    socks: list[socket.socket] = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.bind((host, 0))
            socks.append(sock)
        return [sock.getsockname()[1] for sock in socks]
    finally:
        for sock in socks:
            sock.close()


#: BLAS thread-count variables pinned to 1 in every worker. The fleet
#: scales by processes; a multithreaded BLAS's helper threads busy-wait
#: after each GEMM and steal the cores the proxy and the other workers
#: need.
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _worker_env() -> dict[str, str]:
    """Child environment: this repro package importable, BLAS on one thread."""
    env = os.environ.copy()
    package_parent = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_parent + os.pathsep + existing if existing else package_parent
    )
    env.update(dict.fromkeys(BLAS_THREAD_ENV, "1"))
    return env


class FleetSupervisor:
    """Spawn, monitor and roll out a fleet of assignment-server processes.

    Args:
        registry: the shared model registry every worker serves from.
        workers: number of worker processes (>= 1).
        host: bind address for the workers (and default proxy).
        chunk_size: default rows per scored block per worker.
        state_dir: where announce files, worker logs and the fleet state
            file live (default ``<registry>/.fleet`` — the name cannot
            collide with version directories).
        transport: how the proxy/supervisor reach the workers.
            ``"auto"`` (default) binds each worker to a unix-domain
            socket under *state_dir* when the platform supports
            ``AF_UNIX`` and the path fits the kernel's ~108-byte limit
            — co-located traffic skips the TCP stack — and falls back
            to TCP ports otherwise. ``"tcp"`` / ``"uds"`` force one
            (``"uds"`` raises where unsupported).
        probe: pinned probe batch ``(m, d)`` replayed through the canary
            on every rollout; default: :data:`DEFAULT_PROBE_ROWS`
            standard-normal rows generated with :data:`PROBE_SEED` at
            the candidate model's dimensionality.
        stagger_s: pause between post-canary worker reloads.
        heartbeat_s: health-monitor poll interval.
        start_timeout_s: per-worker startup deadline.
        health_timeout_s: how long a health probe waits for
            ``/healthz`` before the sweep counts a strike. This is the
            knob that catches *frozen* workers (``SIGSTOP``, GC death
            spiral, D-state I/O): the process is alive, accepts the
            TCP connection, and then never answers — only a response
            deadline turns that into a failed check.
        max_backoff_s: restart backoff ceiling.

    Use as a context manager, or pair :meth:`start` / :meth:`stop`.
    """

    def __init__(
        self,
        registry: ModelRegistry | str | Path,
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        chunk_size: int | None = None,
        state_dir: str | Path | None = None,
        transport: str = "auto",
        probe: np.ndarray | None = None,
        probe_rows: int = DEFAULT_PROBE_ROWS,
        stagger_s: float = 0.0,
        heartbeat_s: float = 0.5,
        start_timeout_s: float = 30.0,
        health_timeout_s: float = 2.0,
        max_backoff_s: float = 10.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if probe_rows < 1:
            raise ValueError(f"probe_rows must be >= 1, got {probe_rows}")
        if transport not in ("auto", "tcp", "uds"):
            raise ValueError(
                f"transport must be 'auto', 'tcp' or 'uds', got {transport!r}"
            )
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        self.registry = registry
        self.n_workers = workers
        self.host = host
        self.chunk_size = chunk_size
        self.state_dir = (
            Path(state_dir) if state_dir is not None else registry.root / ".fleet"
        )
        self.transport = transport
        self.probe = (
            np.ascontiguousarray(probe, dtype=np.float64)
            if probe is not None
            else None
        )
        self.probe_rows = probe_rows
        self.stagger_s = stagger_s
        self.heartbeat_s = heartbeat_s
        self.start_timeout_s = start_timeout_s
        self.health_timeout_s = health_timeout_s
        self.max_backoff_s = max_backoff_s
        self._workers: list[_Worker] = []
        self._version: str | None = None
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None
        self._proxy_url: str | None = None
        self._state_written = False

    # ------------------------------------------------------------------ #
    # Lifecycle                                                           #
    # ------------------------------------------------------------------ #

    @property
    def serving_version(self) -> str:
        """The version every healthy worker is pinned to.

        Lock-free read: ``_version`` only changes at the commit point of
        a rollout, and a reader one commit behind is indistinguishable
        from one that asked a moment earlier.
        """
        version = self._version
        if version is None:
            raise FleetError("fleet is not running (call start())")
        return version

    def targets(self) -> list[tuple[int, str, int]]:
        """``(index, host, port)`` for each worker (TCP spelling).

        Deliberately lock-free: the worker list and addresses are fixed
        at :meth:`start` (restarts rebind the same address), and the
        proxy calls this on every request — taking the operations lock
        here would stall all traffic behind a staggered rollout or a
        slow health sweep. Unix-domain workers report port ``0``; use
        :meth:`target_urls` for a transport-agnostic address.
        """
        return [(w.index, self.host, w.port) for w in self._workers]

    def target_urls(self) -> list[tuple[int, str]]:
        """``(index, url)`` for each worker — ``http://host:port`` or
        ``http+unix:///path`` depending on the resolved transport.
        Lock-free for the same reason as :meth:`targets`."""
        return [(w.index, w.url) for w in self._workers]

    def worker_pids(self) -> list[int | None]:
        """Current pid per worker index (``None`` while respawning).

        Lock-free snapshot for chaos harnesses that deliver signals to
        specific workers; a pid may be recycled by the monitor right
        after this returns, so callers must tolerate ``ProcessLookupError``.
        """
        return [w.pid for w in self._workers]

    def _resolve_uds(self) -> bool:
        """Whether this fleet's workers bind unix-domain sockets."""
        if self.transport == "tcp":
            return False
        supported = hasattr(socket, "AF_UNIX")
        sample = self.state_dir / f"worker-{self.n_workers - 1}.sock"
        fits = len(str(sample)) <= _UDS_PATH_MAX
        if self.transport == "uds":
            if not supported:
                raise FleetError("transport='uds' but AF_UNIX is unsupported here")
            if not fits:
                raise FleetError(
                    f"transport='uds' but {sample} exceeds the "
                    f"{_UDS_PATH_MAX}-char AF_UNIX path budget; "
                    "pass a shorter state_dir"
                )
            return True
        return supported and fits

    def start(self) -> "FleetSupervisor":
        """Spawn all workers pinned to the current ``LATEST``; monitor them."""
        with self._lock:
            if self._workers:
                raise FleetError("fleet already started")
            self._version = self.registry.latest_version()  # raises if empty
            self.state_dir.mkdir(parents=True, exist_ok=True)
            use_uds = self._resolve_uds()
            ports = (
                [0] * self.n_workers
                if use_uds
                else _free_ports(self.host, self.n_workers)
            )
            for index, port in enumerate(ports):
                uds = (
                    str(self.state_dir / f"worker-{index}.sock") if use_uds else None
                )
                url = (
                    f"http+unix://{uds}" if use_uds else f"http://{self.host}:{port}"
                )
                worker = _Worker(
                    index=index,
                    port=port,
                    announce_path=self.state_dir / f"worker-{index}.json",
                    log_path=self.state_dir / f"worker-{index}.log",
                    client=ServingClient(
                        url=url, timeout=10.0, reconnect_wait=2.0
                    ),
                    url=url,
                    uds=uds,
                )
                self._workers.append(worker)
                self._spawn(worker)
            try:
                for worker in self._workers:
                    self._wait_ready(worker)
            except BaseException:
                self._shutdown_workers()
                self._workers.clear()
                self._version = None
                raise
            self._stop.clear()
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="repro-fleet-monitor", daemon=True
            )
            self._monitor.start()
        return self

    def stop(self) -> None:
        """Stop the monitor and terminate every worker process."""
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        with self._lock:
            self._shutdown_workers()
            self._workers.clear()
            self._version = None

    def __enter__(self) -> "FleetSupervisor":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _shutdown_workers(self) -> None:
        for worker in self._workers:
            worker.client.close()
            if worker.process is not None and worker.process.poll() is None:
                worker.process.terminate()
        for worker in self._workers:
            if worker.process is not None:
                try:
                    worker.process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    worker.process.kill()
                    worker.process.wait(timeout=5.0)
            if worker.log_file is not None:
                worker.log_file.close()
                worker.log_file = None

    def _spawn(self, worker: _Worker) -> None:
        """Launch (or relaunch) one worker pinned to the fleet version."""
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--registry",
            str(self.registry.root),
            "--pin",
            str(self._version),
            "--announce",
            str(worker.announce_path),
        ]
        if worker.uds is not None:
            command += ["--uds", worker.uds]
        else:
            command += ["--host", self.host, "--port", str(worker.port)]
        if self.chunk_size is not None:
            command += ["--chunk-size", str(self.chunk_size)]
        worker.announce_path.unlink(missing_ok=True)  # no stale pid claims
        if worker.log_file is None:
            worker.log_file = open(worker.log_path, "ab")
        env = _worker_env()
        # Workers stamp this index into their trace spans, so one trace
        # tree names every fleet process it crossed.
        env[WORKER_INDEX_ENV] = str(worker.index)
        worker.process = subprocess.Popen(
            command,
            stdout=worker.log_file,
            stderr=subprocess.STDOUT,
            env=env,
        )
        worker.unhealthy_count = 0
        worker.spawned_at = time.monotonic()
        worker.ready = False

    def _wait_ready(self, worker: _Worker) -> None:
        deadline = time.monotonic() + self.start_timeout_s
        while time.monotonic() < deadline:
            if worker.process is None or worker.process.poll() is not None:
                raise FleetError(
                    f"worker {worker.index} exited during startup "
                    f"(code {worker.process.poll() if worker.process else '?'}); "
                    f"see {worker.log_path}"
                )
            try:
                health = worker.client.healthz()
            except ServingClientError:
                time.sleep(0.05)
                continue
            if health.get("status") == "ok":
                self._verify_announce(worker)
                worker.ready = True
                return
            time.sleep(0.05)
        raise FleetError(
            f"worker {worker.index} not healthy after {self.start_timeout_s}s; "
            f"see {worker.log_path}"
        )

    def _verify_announce(self, worker: _Worker) -> None:
        """The healthz answer must come from *our* process on that address.

        TCP ports were reserved by bind-then-close, so another process
        could in principle steal one in the window; the announce file
        the worker writes at startup names its pid (and address) and
        closes that hole. Unix-domain sockets carry the same check for
        uniformity — a stale or foreign socket file fails it too.
        """
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                announced = json.loads(
                    worker.announce_path.read_text(encoding="utf-8")
                )
                break
            except (OSError, json.JSONDecodeError):
                time.sleep(0.05)
        else:
            raise FleetError(
                f"worker {worker.index} never wrote {worker.announce_path}"
            )
        if worker.uds is not None:
            address_ok = announced.get("uds") == worker.uds
        else:
            address_ok = announced.get("port") == worker.port
        if announced.get("pid") != worker.pid or not address_ok:
            raise FleetError(
                f"worker {worker.index}: {worker.url} is answering as "
                f"pid {announced.get('pid')}, expected pid {worker.pid} — "
                "another process grabbed the reserved address"
            )

    # ------------------------------------------------------------------ #
    # Health monitoring                                                   #
    # ------------------------------------------------------------------ #

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            for worker in list(self._workers):
                if self._stop.is_set():
                    return
                try:
                    self._check_worker(worker)
                except Exception:  # noqa: BLE001 — the monitor must survive
                    # A single weird worker (e.g. unkillable process in
                    # D-state) must not take the whole monitor thread —
                    # and with it all future restarts — down with it.
                    continue

    def _check_worker(self, worker: _Worker) -> None:
        """Probe off-lock, restart under the lock.

        The health probe is blocking network I/O (seconds against a hung
        worker) — doing it under ``self._lock`` would stall rollouts and
        ``stop()``. Probes use a transient short-timeout client;
        ``worker.client`` belongs to the rollout/startup path.
        """
        if worker.alive:
            try:
                with ServingClient(
                    url=worker.url, timeout=self.health_timeout_s
                ) as probe:
                    ok = probe.healthz().get("status") == "ok"
            except ServingClientError:
                # Covers refused connects *and* probes that accepted the
                # connection but blew the health_timeout_s response
                # deadline — a SIGSTOP'd worker looks exactly like that.
                ok = False
            if ok:
                worker.ready = True
                worker.unhealthy_count = 0
                worker.backoff_s = _BACKOFF_INITIAL_S
                return
            if (
                not worker.ready
                and time.monotonic() - worker.spawned_at < self.start_timeout_s
            ):
                # Still booting (interpreter + numpy import): no strike.
                # Only pre-ready workers get this grace — a worker that
                # has answered healthz once and then goes dark is frozen,
                # not booting, and must accrue strikes immediately.
                return
            worker.unhealthy_count += 1
            if worker.unhealthy_count < _UNHEALTHY_LIMIT:
                return
            with self._lock:
                if self._stop.is_set() or self._version is None:
                    return  # fleet is shutting down: do not respawn
                if not worker.alive:
                    return
                # Live process that stopped answering: recycle it.
                worker.process.kill()
                try:
                    worker.process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    return  # undead (e.g. D-state): retry next sweep
                self._restart(worker)
            return
        if time.monotonic() < worker.next_restart_at:
            return
        with self._lock:
            if self._stop.is_set() or self._version is None:
                return  # raced stop(): the worker stays down
            if worker.alive or time.monotonic() < worker.next_restart_at:
                return
            self._restart(worker)

    def _restart(self, worker: _Worker) -> None:
        """Relaunch a dead worker, pinned to the fleet's current version."""
        worker.restarts += 1
        worker.next_restart_at = time.monotonic() + worker.backoff_s
        worker.backoff_s = min(worker.backoff_s * 2.0, self.max_backoff_s)
        self._spawn(worker)
        self._refresh_state()  # fleet.json must name the live pid

    def status(self) -> dict[str, Any]:
        """Fleet-wide health: version + one :class:`WorkerStatus` per worker.

        Runs without the operations lock (a long rollout must not make
        ``fleet status`` hang) and on transient clients — ``worker.client``
        belongs to the monitor/rollout threads, and
        ``http.client.HTTPConnection`` is not thread-safe.
        """
        version = self._version
        workers = list(self._workers)
        rows = []
        for worker in workers:
            healthy, served = False, None
            if worker.alive:
                try:
                    with ServingClient(url=worker.url, timeout=5.0) as probe:
                        health = probe.healthz()
                    healthy = health.get("status") == "ok"
                    served = health.get("version")
                except ServingClientError:
                    healthy = False
            rows.append(
                WorkerStatus(
                    index=worker.index,
                    pid=worker.pid,
                    port=worker.port,
                    alive=worker.alive,
                    healthy=healthy,
                    version=served,
                    restarts=worker.restarts,
                    uds=worker.uds,
                    url=worker.url,
                )
            )
        return {
            "version": version,
            "registry": str(self.registry.root),
            "workers": [row.to_dict() for row in rows],
        }

    # ------------------------------------------------------------------ #
    # Canary rollout                                                      #
    # ------------------------------------------------------------------ #

    def _probe_for(self, model: ClusterModel) -> np.ndarray:
        if self.probe is not None:
            if self.probe.ndim != 2 or self.probe.shape[1] != model.n_features:
                raise FleetError(
                    f"pinned probe has shape {self.probe.shape}, candidate "
                    f"expects (m, {model.n_features})"
                )
            return self.probe
        rng = np.random.default_rng(PROBE_SEED)
        return rng.normal(size=(self.probe_rows, model.n_features))

    def rollout(
        self,
        version: str | None = None,
        *,
        require_identical: bool = False,
        stagger_s: float | None = None,
    ) -> RolloutReport:
        """Roll the fleet to *version* through a canary; auto-rollback.

        Args:
            version: candidate registry version (default: the current
                ``LATEST`` target — the staged-pointer flow where the
                operator already ran ``registry publish``).
            require_identical: additionally require the canary's served
                labels to equal the labels the fleet served for the same
                probe immediately before — the bit-identity mode for
                rollouts that republish the same model (registry
                migration, re-serialization). Any label drift then
                fails the canary.
            stagger_s: pause between post-canary reloads (default: the
                constructor's ``stagger_s``).

        Returns:
            A :class:`RolloutReport`; ``report.ok`` is False when the
            canary (or any later stage) caught a problem, in which case
            every moved worker has been reverted and a pre-moved
            ``LATEST`` pointer rolled back.
        """
        pause = self.stagger_s if stagger_s is None else stagger_s
        with self._lock:
            if not self._workers:
                raise FleetError("fleet is not running (call start())")
            previous = self._version
            assert previous is not None
            try:
                pointer = self.registry.latest_version()
            except RegistryError:
                pointer = previous
            if version is None:
                version = pointer
            if version == previous:
                return RolloutReport(
                    version=version,
                    previous=previous,
                    ok=True,
                    reason=f"fleet already serves {version}",
                )
            pointer_moved = pointer == version

            def fail(
                reason: str,
                moved: Sequence[_Worker] = (),
                probe_rows: int = 0,
            ) -> RolloutReport:
                for worker in moved:
                    try:
                        worker.client.reload(previous)
                    except ServingClientError:
                        # The worker may still be serving the rejected
                        # candidate, and a live worker that answers
                        # healthz would never be recycled — kill it so
                        # the monitor relaunches it pinned to the
                        # (unchanged) fleet version.
                        if worker.process is not None and worker.alive:
                            worker.process.kill()
                rolled_back = False
                if pointer_moved:
                    self.registry.set_latest(previous)
                    rolled_back = True
                return RolloutReport(
                    version=version,
                    previous=previous,
                    ok=False,
                    rolled_back=rolled_back,
                    canary_worker=moved[0].index if moved else -1,
                    workers_reloaded=tuple(w.index for w in moved),
                    probe_rows=probe_rows,
                    reason=reason,
                )

            # Stage 1: the supervisor itself must be able to load the
            # candidate and label the probe — a corrupt artifact is
            # rejected before any worker sees it.
            try:
                candidate = self.registry.load(version)
                probe = self._probe_for(candidate)
                expected = np.asarray(candidate.assign(probe))
            except Exception as exc:  # noqa: BLE001 — any load/assign failure
                return fail(f"candidate {version} rejected at load: {exc}")

            # Canary = the first worker that answers the probe. A worker
            # sitting in its crash-restart backoff window must not get a
            # rollout rejected (and a staged pointer rolled back) when
            # its N-1 healthy siblings could vouch for the candidate.
            # The pre-reload response doubles as the require_identical
            # reference: the fleet's own labels for the probe.
            canary, before = None, None
            for worker in self._workers:
                if not worker.alive:
                    continue
                try:
                    before = worker.client.assign(probe)
                except ServingClientError:
                    continue
                canary = worker
                break
            if canary is None:
                return fail(
                    "no responsive worker to canary the rollout",
                    probe_rows=probe.shape[0],
                )
            if before.version != previous:
                return fail(
                    f"canary worker {canary.index} serves {before.version!r}, "
                    f"fleet version is {previous!r} — refusing to roll out",
                    probe_rows=probe.shape[0],
                )

            # Stage 2: canary. Exactly one worker serves the candidate.
            try:
                canary.client.reload(version)
            except ServingClientError as exc:
                # The worker keeps its previous snapshot on a failed
                # reload, so nothing moved.
                return fail(
                    f"canary worker {canary.index} failed to load "
                    f"{version}: {exc}",
                    probe_rows=probe.shape[0],
                )
            try:
                served = canary.client.assign(probe)
            except ServingClientError as exc:
                return fail(
                    f"canary worker {canary.index} failed the probe: {exc}",
                    moved=[canary],
                    probe_rows=probe.shape[0],
                )
            if served.version != version:
                return fail(
                    f"canary served version {served.version!r} instead of "
                    f"{version!r}",
                    moved=[canary],
                    probe_rows=probe.shape[0],
                )
            if not np.array_equal(served.labels, expected):
                return fail(
                    f"canary labels diverged from {version}'s own predict "
                    f"on the {probe.shape[0]}-row probe",
                    moved=[canary],
                    probe_rows=probe.shape[0],
                )
            if require_identical and not np.array_equal(
                served.labels, before.labels
            ):
                return fail(
                    f"canary labels differ from the fleet's {previous} labels "
                    f"on the {probe.shape[0]}-row probe "
                    "(require_identical rollout)",
                    moved=[canary],
                    probe_rows=probe.shape[0],
                )

            # Stage 3: stagger the rest, probe-verifying each.
            moved: list[_Worker] = [canary]
            for worker in self._workers:
                if worker is canary:
                    continue
                if not worker.alive:
                    # In its restart-backoff window: the monitor (which
                    # waits on our lock) relaunches it after the commit,
                    # pinned to the fleet version we are about to set.
                    continue
                if pause > 0:
                    time.sleep(pause)
                try:
                    worker.client.reload(version)
                    served = worker.client.assign(probe)
                except ServingClientError as exc:
                    return fail(
                        f"worker {worker.index} failed mid-rollout: {exc}",
                        moved=[*moved, worker],
                        probe_rows=probe.shape[0],
                    )
                if served.version != version or not np.array_equal(
                    served.labels, expected
                ):
                    return fail(
                        f"worker {worker.index} diverged mid-rollout",
                        moved=[*moved, worker],
                        probe_rows=probe.shape[0],
                    )
                moved.append(worker)

            # Stage 4: commit. The pointer moves (or stays) only after
            # the whole fleet has proven the candidate.
            if not pointer_moved:
                self.registry.set_latest(version)
            self._version = version
            self._refresh_state()
            return RolloutReport(
                version=version,
                previous=previous,
                ok=True,
                canary_worker=canary.index,
                workers_reloaded=tuple(w.index for w in moved),
                probe_rows=int(probe.shape[0]),
            )

    # ------------------------------------------------------------------ #
    # State file (CLI discovery)                                          #
    # ------------------------------------------------------------------ #

    @property
    def state_path(self) -> Path:
        """Where :meth:`write_state` records the fleet for the CLI."""
        return self.state_dir / "fleet.json"

    def write_state(self, proxy_url: str | None = None) -> Path:
        """Atomically write ``fleet.json`` so ``repro fleet status``
        and ``repro fleet rollout`` in other processes can find us.

        Once written, the supervisor keeps it fresh on its own: worker
        restarts and rollout commits rewrite it, so the recorded pids
        and version always describe the live fleet.
        """
        with self._lock:
            self._proxy_url = proxy_url
            self._state_written = True
            payload = {
                "registry": str(self.registry.root),
                "version": self._version,
                "proxy_url": proxy_url,
                "pid": os.getpid(),
                "workers": [
                    # "url" is the worker's own base URL, for tools that
                    # reach one worker directly rather than via the proxy.
                    {
                        "index": w.index,
                        "port": w.port,
                        "pid": w.pid,
                        "uds": w.uds,
                        "url": w.url,
                    }
                    for w in self._workers
                ],
            }
        self.state_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.state_path, json.dumps(payload, indent=2) + "\n")
        return self.state_path

    def _refresh_state(self) -> None:
        """Rewrite ``fleet.json`` if it was ever written (pids/version moved)."""
        if self._state_written:
            self.write_state(self._proxy_url)
