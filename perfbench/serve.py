"""The fleet workload: mixed open-loop traffic through ``repro fleet up``.

A k=15 K-Means model of a seeded synthetic Adult dataset is published
into a fresh registry; ``repro fleet up --workers 2`` serves it as a
subprocess. Two sender threads, one connection each, replay a seeded
schedule of the three request classes at fixed rates (an open loop: a
request is due at its scheduled time whether or not earlier ones have
finished, and its latency runs from that due time). The schedule runs
in ``SEGMENTS`` pieces with the host's speed measured between them.

Every response must carry the published version and equal in-process
``Assigner.assign`` of the published model.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import traffic
from common import ROOT, WORK_ROOT, Calibration, MemorySampler, median, one_cpu, program_env

#: Requests per second per class, 37.6 in all: about half of the 69 a
#: second that two workers on two cores sustained for this mix with two
#: closed-loop connections, at the commit that defined the benchmark. A
#: 32 s run sends at least 1,000 small and 100 of each bulk request.
RATES = {"small_npy": 31.3, "bulk_npy": 3.13, "bulk_stream": 3.13}
WORKERS = 2
CONNECTIONS = 2
MODEL = dict(method="kmeans", k=15)
ROWS = 15_682
#: The served model is fit on a slice of this many rows (K-Means with
#: ten restarts on all of them would take most of a run); queries sample
#: all rows. fit_s sums the fits of MODEL_FITS disjoint slices, each
#: fit twice (the same seed must give the same model), timed between
#: calibrations and counted at the reference speed (see fits.py);
#: objective and fairness_ae average the slice models.
MODEL_ROWS = 1_000
MODEL_FITS = 8
#: Fleet start-ups per run; setup_s is their median.
SETUP_CYCLES = 3
#: Pieces of the load phase; the host's speed is measured between them.
SEGMENTS = 8
HEALTH_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """What one load phase observed."""

    latencies: dict[str, list[float]] = field(default_factory=dict)
    #: Reference-speed factors measured between segments (``drive_calibrated``).
    factors: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    conn_wait: list[float] = field(default_factory=list)
    trace_ids: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


class Fleet:
    """One ``repro fleet up`` subprocess and what it spawned."""

    def __init__(self, registry: Path, state_dir: Path, log: Path,
                 trace_sink: Path | None) -> None:
        self.registry, self.state_dir, self.log = registry, state_dir, log
        self.trace_sink = trace_sink
        self.proc: subprocess.Popen | None = None
        self.url = ""
        self.pids: list[int] = []
        self.sockets: list[Path] = []

    def up(self, version: str) -> float:
        """Start the fleet; seconds until proxy and workers are healthy."""
        from repro.serving.client import ServingClient, ServingClientError

        state = self.state_dir / "fleet.json"
        state.unlink(missing_ok=True)
        env = program_env()
        if self.trace_sink is not None:
            env["REPRO_TRACE_SINK"] = str(self.trace_sink)
        command = [
            sys.executable, "-m", "repro", "fleet", "up",
            "--registry", str(self.registry), "--workers", str(WORKERS),
            "--port", "0", "--state-dir", str(self.state_dir),
        ]
        start = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(command, env=env, cwd=ROOT, stdout=log,
                                         stderr=subprocess.STDOUT)
        self.pids.append(self.proc.pid)
        deadline = start + HEALTH_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"fleet up exited with {self.proc.returncode}; see {self.log}")
            info = _read_state(state)
            if info.get("pid") == self.proc.pid and info.get("proxy_url"):
                self.url = info["proxy_url"]
                for worker in info.get("workers", []):
                    if worker.get("pid"):
                        self.pids.append(int(worker["pid"]))
                    if worker.get("uds"):
                        self.sockets.append(Path(worker["uds"]))
                try:
                    with ServingClient(url=self.url, timeout=5.0) as client:
                        status = client.request_json("GET", "/admin/status")
                        health = client.healthz()
                except ServingClientError:
                    status, health = {}, {}
                workers = status.get("workers", [])
                if (
                    health.get("status") == "ok"
                    and len(workers) == WORKERS
                    and all(w.get("healthy") and w.get("version") == version for w in workers)
                ):
                    return time.perf_counter() - start
            time.sleep(0.01)
        raise RuntimeError(f"fleet not healthy on {version} within {HEALTH_TIMEOUT_S}s")

    def down(self) -> None:
        """SIGTERM the fleet (it stops its workers) and wait for it."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10.0)


def listening(path: Path) -> bool:
    """Whether a process still accepts connections on a unix socket path."""
    if not path.exists():
        return False
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
        probe.settimeout(1.0)
        try:
            probe.connect(str(path))
        except OSError:
            return False
    return True


def _read_state(path: Path) -> dict[str, Any]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def _scrape(url: str) -> dict[str, float]:
    """Counters from the proxy's fleet-wide ``/admin/metrics``."""
    from repro.obs.prometheus import parse_text
    from repro.serving.client import ServingClient

    with ServingClient(url=url, timeout=10.0) as client:
        status, _, payload = client.request_raw("GET", "/admin/metrics")
    if status != 200:
        raise RuntimeError(f"/admin/metrics answered {status}")
    out: dict[str, float] = {"errors": 0.0, "lane_failures": 0.0, "replays": 0.0}
    for family in parse_text(payload.decode("utf-8")):
        for sample in family.samples:
            labels = sample.labels
            if sample.name == "repro_http_requests_total":
                if int(labels.get("code", "0")) >= 400:
                    out["errors"] += sample.value
                worker = labels.get("worker", "")
                if worker.isdigit() and labels.get("path") == "/assign":
                    key = f"worker-{worker}"
                    out[key] = out.get(key, 0.0) + sample.value
            elif sample.name == "repro_proxy_lane_failures_total":
                out["lane_failures"] += sample.value
            elif sample.name == "repro_proxy_lane_replays_total":
                out["replays"] += sample.value
    return out


def drive(url: str, bodies: dict[str, list[traffic.Body]], order: list[str],
          version: str, rate: float, first: int = 0, end: int | None = None) -> Outcome:
    """Send ``order[first:end]`` on an evenly spaced schedule over ``CONNECTIONS`` senders."""
    from repro.serving.client import ServingClient, ServingClientError
    from repro.serving.server import NPY_CONTENT_TYPE, STREAM_CONTENT_TYPE, VERSION_HEADER

    outcome = Outcome(latencies={cls: [] for cls in traffic.CLASSES})
    lock = threading.Lock()
    stop = threading.Event()
    cursor = iter(range(first, len(order) if end is None else min(end, len(order))))
    t0 = time.perf_counter() + 0.05

    def sender() -> None:
        with ServingClient(url=url, timeout=60.0) as client:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                cls = order[i]
                body = bodies[cls][i % len(bodies[cls])]
                fmt = traffic.CLASSES[cls][1]
                due = t0 + (i - first) / rate
                taken = time.perf_counter()
                if taken < due and stop.wait(due - taken):
                    return
                sent = time.perf_counter()
                error = None
                try:
                    if fmt == "npy":
                        status, headers, payload = client.request_raw(
                            "POST", "/assign", body.payload, NPY_CONTENT_TYPE)
                    else:
                        pieces = body.payload
                        status, headers, payload = client.request_raw(
                            "POST", "/assign", lambda: pieces, STREAM_CONTENT_TYPE)
                    done = time.perf_counter()
                    if status != 200:
                        error = f"status {status}"
                    elif headers.get(VERSION_HEADER) != version:
                        error = f"version {headers.get(VERSION_HEADER)!r}"
                    elif not np.array_equal(traffic.decode_labels(payload, fmt), body.expected):
                        error = "labels differ from Assigner.assign"
                except ServingClientError as exc:
                    done, error = time.perf_counter(), f"{type(exc).__name__}: {exc}"
                with lock:
                    outcome.attempted += 1
                    if error is not None:
                        outcome.failed += 1
                        outcome.problems.append(f"{cls}: {error}")
                        continue
                    outcome.latencies[cls].append(done - due)
                    outcome.conn_wait.append(max(0.0, taken - due))
                    outcome.late.append(sent - max(due, taken))
                    if client.last_trace_id:
                        outcome.trace_ids[client.last_trace_id] = cls

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    finally:
        stop.set()  # an interrupted run must not wait out the schedule
    return outcome


def drive_calibrated(url: str, bodies: dict[str, list[traffic.Body]], order: list[str],
                     version: str, rate: float) -> Outcome:
    """``drive`` in ``SEGMENTS`` pieces, measuring the host's speed between them.

    The fleet's processes run on every CPU, so each measurement runs the
    per-row calibration task once on each CPU, while the fleet is idle.
    The end-to-end latencies are rescaled by the mean factor of the run:
    one measurement is too noisy to rescale its neighbouring segment,
    but their mean follows the host's slow phases, which last longer
    than a run. Queueing grows faster than linearly as the host slows,
    so this evens out less than it does for a fit.
    """
    calibration = Calibration(every_cpu=True)
    outcome = Outcome(latencies={cls: [] for cls in traffic.CLASSES})
    size = -(-len(order) // SEGMENTS)
    for first in range(0, len(order), size):
        part = drive(url, bodies, order, version, rate, first, first + size)
        outcome.factors.append(calibration.factor())
        for cls, latencies in part.latencies.items():
            outcome.latencies[cls].extend(latencies)
        outcome.late.extend(part.late)
        outcome.conn_wait.extend(part.conn_wait)
        outcome.trace_ids.update(part.trace_ids)
        outcome.attempted += part.attempted
        outcome.failed += part.failed
        outcome.problems.extend(part.problems)
    return outcome


def span_metrics(sink: Path, trace_ids: dict[str, str]) -> dict[str, float]:
    """Per-class proxy self time, lanes and server assign time from spans."""
    from repro.obs.trace import load_spans

    by_trace: dict[str, list[Any]] = {}
    for span in load_spans(sink) if sink.exists() else []:
        if span.trace_id in trace_ids:
            by_trace.setdefault(span.trace_id, []).append(span)
    proxy_self: dict[str, list[float]] = {cls: [] for cls in traffic.CLASSES}
    lanes: dict[str, list[int]] = {cls: [] for cls in traffic.CLASSES}
    server: dict[str, list[float]] = {cls: [] for cls in traffic.CLASSES}
    for trace_id, spans in by_trace.items():
        cls = trace_ids[trace_id]
        ingress = [s for s in spans if s.name == "proxy.assign"]
        lane_spans = [s for s in spans if s.name == "proxy.lane"]
        if ingress:
            root = ingress[0]
            children = [s for s in lane_spans if s.parent_id == root.span_id]
            proxy_self[cls].append(root.wall_s - _union(children))
        lanes[cls].append(len(lane_spans))
        server[cls].append(sum(s.wall_s for s in spans if s.name == "server.assign"))
    out: dict[str, float] = {}
    for cls in traffic.CLASSES:
        out[f"serving.proxy.self_ms.{cls}"] = median(proxy_self[cls]) * 1e3
        out[f"serving.proxy.lanes.{cls}"] = float(np.mean(lanes[cls])) if lanes[cls] else 0.0
        out[f"serving.server.assign_ms.{cls}"] = median(server[cls]) * 1e3
    return out


def _union(spans: list[Any]) -> float:
    """Length of the union of the spans' intervals."""
    total, end = 0.0, -math.inf
    for start, stop in sorted((s.start_s, s.start_s + s.wall_s) for s in spans):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def run(seed: int, seconds: float, trace: bool, tiny: bool) -> dict[str, Any]:
    """One run of the fleet workload; returns metrics, counts and details."""
    work = WORK_ROOT / f"serve-{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        return _run(work, seed, seconds, trace, tiny)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(work: Path, seed: int, seconds: float, trace: bool, tiny: bool) -> dict[str, Any]:
    import repro.api as api
    from repro.api.config import RunConfig
    from repro.core.lambda_heuristic import resolve_lambda
    from repro.core.objective import fairkm_objective
    from repro.data.adult import generate_adult
    from repro.metrics.fairness import fairness_report
    from repro.serving.registry import ModelRegistry

    rows = 2000 if tiny else ROWS
    dataset = generate_adult(rows, seed)
    x = dataset.feature_matrix(scale=True)
    size = 200 if tiny else MODEL_ROWS
    slices = [dataset.subset(np.arange(i * size, (i + 1) * size)) for i in range(MODEL_FITS)]
    k = MODEL["k"]
    fit_ref_s = fit_wall_s = 0.0
    problems: list[str] = []
    objectives, ae, me, pairs = [], [], [], []
    with one_cpu():
        calibration = Calibration()
        for train in slices:
            times, fitted = [], []
            for _ in range(2):
                start = time.perf_counter()
                fitted.append(api.fit(RunConfig(**MODEL, seed=seed), train))
                elapsed = time.perf_counter() - start
                times.append((elapsed, elapsed * calibration.factor()))
            fit_wall_s += median([wall for wall, _ in times])
            fit_ref_s += median([ref for _, ref in times])
            pairs.append(fitted)
    for train, fitted in zip(slices, pairs):
        train_x = train.feature_matrix(scale=True)
        labels = fitted[0].assign(train_x)
        if not np.array_equal(labels, fitted[1].assign(train_x)):
            problems.append("two fits with the same seed gave different labels")
        cats, nums = train.sensitive_specs()
        objectives.append(fairkm_objective(train_x, cats, nums, labels, k,
                                           resolve_lambda("auto", len(labels), k)))
        fairness = fairness_report(train.sensitive_categorical(), labels, k).mean
        ae.append(fairness.ae)
        me.append(fairness.me)
    model = pairs[0][0]

    registry = ModelRegistry(work / "registry")
    version = registry.publish(model)
    served = registry.load(version)
    assigner = served.assigner
    rng = np.random.default_rng([seed, 2])
    bodies = traffic.make_bodies(x, assigner, rng, 0.05 if tiny else 1.0)

    phase_s = seconds / 2 if trace else seconds
    rate = sum(RATES.values())
    counts = {cls: max(10, math.ceil(r * phase_s)) for cls, r in RATES.items()}
    sink = work / "spans.jsonl"
    fleets: list[Fleet] = []
    setup: list[float] = []
    outcomes: list[Outcome] = []
    peak_mb = 0.0
    before = after = {}
    try:
        for cycle in range(SETUP_CYCLES):
            traced = trace and cycle == SETUP_CYCLES - 1
            loaded = cycle == SETUP_CYCLES - 1 or (trace and cycle == SETUP_CYCLES - 2)
            fleet = Fleet(work / "registry", work / "state", work / "fleet.log",
                          sink if traced else None)
            fleets.append(fleet)
            setup.append(fleet.up(version))
            if loaded:
                order = traffic.schedule(counts)
                before = _scrape(fleet.url)
                with MemorySampler(fleet.proc.pid) as memory:
                    outcomes.append(drive_calibrated(fleet.url, bodies, order, version, rate))
                peak_mb = memory.peak_mb
                after = _scrape(fleet.url)
            fleet.down()
    finally:
        for fleet in fleets:
            fleet.down()
    sockets = sorted({p for fleet in fleets for p in fleet.sockets})

    final = outcomes[-1]
    attempted = 2 * len(slices) + sum(o.attempted for o in outcomes)
    failed = len(problems) + sum(o.failed for o in outcomes)
    for outcome in outcomes:
        problems.extend(outcome.problems[:20])
    late_p99_ms = float(np.quantile(final.late, 0.99)) * 1e3 if final.late else 0.0
    metrics: dict[str, float] = {}
    tails: dict[str, float] = {}
    if trace:
        metrics.update(traffic.layer_floors(bodies, assigner, 5 if tiny else 40))
        metrics.update(span_metrics(sink, final.trace_ids))
        metrics["loadgen.late_ms"] = late_p99_ms
        metrics["loadgen.conn_wait_ms"] = float(np.mean(final.conn_wait)) * 1e3 if final.conn_wait else 0.0
        for key in ("lane_failures", "replays"):
            metrics[f"serving.proxy.{key}"] = after.get(key, 0.0) - before.get(key, 0.0)
        metrics["serving.server.http_errors"] = after.get("errors", 0.0) - before.get("errors", 0.0)
        for i in range(WORKERS):
            key = f"worker-{i}"
            metrics[f"serving.server.requests.{key}"] = after.get(key, 0.0) - before.get(key, 0.0)
        untraced = outcomes[0]
        for cls in traffic.CLASSES:
            if untraced.latencies[cls] and final.latencies[cls]:
                metrics[f"trace.overhead_ms.{cls}"] = (
                    median(final.latencies[cls]) - median(untraced.latencies[cls])
                ) * 1e3
    elif all(final.latencies.values()):
        metrics.update(
            setup_s=median(setup),
            peak_rss_mb=peak_mb,
            fit_s=fit_ref_s,
            objective=float(np.mean(objectives)),
            fairness_ae=float(np.mean(ae)),
        )
        latency = traffic.latency_summary(final.latencies)
        factor = float(np.mean(final.factors))
        metrics.update({f"{cls}_ms": v["p50"] * factor for cls, v in latency.items()})
        tails = {f"{cls}_{q}_ms": v[q] for cls, v in latency.items() for q in ("p50", "p90")}
    details = {
        **tails,
        "rows": rows,
        "fit_wall_s": fit_wall_s,
        "fairness_me": float(np.mean(me)),
        "version": version,
        "counts": counts,
        "rate": rate,
        "setup_cycles_s": setup,
        "late_p99_ms": late_p99_ms,
        "speed_factors": final.factors,
        # The workers do not unlink their socket files on exit; a file
        # nobody listens on is litter, not a leak, and goes with the
        # scratch directory.
        "stale_socket_files": [str(p) for p in sockets if p.exists() and not listening(p)],
    }
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "details": details,
        "pids": [pid for fleet in fleets for pid in fleet.pids],
        "leaked": [f"socket {path} still accepts connections" for path in sockets if listening(path)],
    }
