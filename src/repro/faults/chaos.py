"""Seeded chaos soaks against a live fleet (the ``repro chaos`` CLI).

A :class:`ChaosScenario` is a *seed*, a request count and a handful of
resilience knobs; everything else is derived. From the seed come two
deterministic schedules:

* a **process-fault timeline** (:meth:`ChaosScenario.schedule`):
  SIGSTOP one worker early (a frozen process — alive, accepting
  connections, never answering), SIGCONT it later, SIGKILL the other
  worker mid-soak (a crashed process). Each event is pinned to a
  request index, so the same seed replays the same timeline;
* a **worker-side fault plan** (:meth:`ChaosScenario.worker_plan`):
  seeded ``server.assign`` delays shipped into the worker processes via
  the ``REPRO_FAULT_PLAN`` environment variable, giving the latency
  distribution a tail for the p99 measurement to see.

:func:`run_chaos` spins up a throwaway registry + fleet + proxy, drives
the request loop while delivering the scheduled signals, and measures:

* **availability** — successful requests / all requests;
* **latency** — p50/p99 wall per request, failures included;
* **zero wrong answers** — every *successful* response's labels are
  compared bit-for-bit against in-process ``Assigner.assign`` on the
  same rows. Under chaos a request may fail; it may never lie.

:func:`run_chaos_suite` runs the breaker-on soak next to the identical
breaker-off soak (same seed, same timeline) and writes the schema-valid
``results/BENCH_chaos.json`` — the availability delta between the two
records is the circuit breaker's measured contribution.
"""

from __future__ import annotations

import json
import os
import random
import signal
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .plan import PLAN_ENV, FaultPlan

#: Suite name under which chaos records are written (its own file,
#: ``BENCH_chaos.json``, validated by the same v1 schema as the perf
#: suites and uploaded by the same CI glob).
CHAOS_SUITE = "chaos"


@dataclass(frozen=True)
class ChaosScenario:
    """One seeded soak: every fault below derives from ``seed``.

    Args:
        seed: drives the process-fault timeline, the worker delay plan,
            the query points and the client's backoff jitter.
        requests: sequential requests in the soak.
        rows: rows per request (small on purpose: the soak measures
            availability under fault, not throughput).
        dim, k: synthetic model geometry.
        workers: fleet size (>= 2 so one worker can die while the other
            carries the traffic).
        breaker: run the proxy with the circuit breaker enabled.
        deadline_ms: per-request budget the client attaches
            (``X-Deadline-Ms``); what turns a frozen worker into a fast
            typed failure instead of a socket-timeout stall.
        breaker_failures: consecutive lane failures that open a breaker.
        breaker_reset_s: breaker cool-down before the half-open probe.
            Deliberately longer than a worker recycle, so the probe
            lands on a healed worker instead of burning a request.
        heartbeat_s / health_timeout_s: fleet monitor cadence and
            health-probe response deadline (the knobs that bound how
            long a frozen worker survives).
        delay_rate: per-request probability of a worker-side injected
            delay (the p99 texture).
        delay_range: seconds drawn uniformly for each injected delay;
            kept under the deadline so delays slow requests without
            failing them.
    """

    seed: int = 0
    requests: int = 250
    rows: int = 512
    dim: int = 16
    k: int = 8
    workers: int = 2
    breaker: bool = True
    deadline_ms: float = 600.0
    breaker_failures: int = 2
    breaker_reset_s: float = 10.0
    heartbeat_s: float = 0.5
    health_timeout_s: float = 2.0
    delay_rate: float = 0.05
    delay_range: tuple[float, float] = (0.02, 0.15)

    def schedule(self) -> list[tuple[int, str, int]]:
        """The seeded process-fault timeline: ``(request_index, kind,
        worker_index)`` rows, sorted by request index.

        Same seed, same timeline — this method is pure, so tests can
        assert reproducibility without running a fleet.
        """
        rng = random.Random(self.seed)
        n = self.requests
        freeze_at = rng.randrange(max(1, n // 8), max(2, n // 5))
        events = [
            (freeze_at, "sigstop", 0),
            (freeze_at + max(2, n // 4), "sigcont", 0),
        ]
        if self.workers > 1:
            kill_at = rng.randrange(n // 2, max(n // 2 + 1, (2 * n) // 3))
            events.append((kill_at, "sigkill", 1))
        return sorted(events)

    def worker_plan(self) -> FaultPlan:
        """The seeded worker-side delay plan (``server.assign`` site)."""
        return FaultPlan.from_seed(
            self.seed,
            site="server.assign",
            # Workers split the traffic unevenly; size the plan so late
            # requests can still draw a delay on a busy worker.
            length=self.requests * 2,
            rates={"delay": self.delay_rate},
            args={"delay": self.delay_range},
        )


@dataclass
class ChaosReport:
    """Outcome of one soak (one :class:`ChaosScenario` execution)."""

    scenario: ChaosScenario
    version: str = ""
    succeeded: int = 0
    failed: int = 0
    wrong: int = 0
    wall_s: float = 0.0
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    restarts: int = 0
    schedule: list[tuple[int, str, int]] = field(default_factory=list)
    errors: dict[str, int] = field(default_factory=dict)

    @property
    def availability(self) -> float:
        total = self.succeeded + self.failed
        return self.succeeded / total if total else 0.0

    def to_record(self) -> Any:
        """This soak as one schema-valid :class:`BenchRecord`."""
        from ..perf.harness import BenchRecord

        scenario = self.scenario
        total_rows = (self.succeeded + self.failed) * scenario.rows
        return BenchRecord(
            workload=(
                "chaos_soak_breaker_on"
                if scenario.breaker
                else "chaos_soak_breaker_off"
            ),
            n=scenario.requests,
            k=scenario.k,
            jobs=scenario.workers,
            wall_s=self.wall_s,
            rows_per_s=total_rows / self.wall_s if self.wall_s > 0 else 0.0,
            extra={
                "seed": scenario.seed,
                "breaker": scenario.breaker,
                "deadline_ms": scenario.deadline_ms,
                "availability": round(self.availability, 6),
                "succeeded": self.succeeded,
                "failed": self.failed,
                "wrong": self.wrong,
                "p50_ms": round(self.p50_ms, 3),
                "p99_ms": round(self.p99_ms, 3),
                "restarts": self.restarts,
                "version": self.version,
                "schedule": [list(event) for event in self.schedule],
                "errors": self.errors,
            },
        )


def _deliver(pid: int | None, kind: str) -> bool:
    """Send one scheduled signal; a recycled/absent pid is not an error."""
    if pid is None:
        return False
    signum = {
        "sigstop": signal.SIGSTOP,
        "sigcont": signal.SIGCONT,
        "sigkill": signal.SIGKILL,
    }[kind]
    try:
        os.kill(pid, signum)
    except (ProcessLookupError, PermissionError):
        return False
    return True


def run_chaos(
    scenario: ChaosScenario, *, state_root: str | Path | None = None
) -> ChaosReport:
    """Execute one soak: fleet up, faults in, every answer checked.

    Builds a synthetic model, publishes it into a throwaway registry,
    starts a :class:`~repro.serving.fleet.FleetSupervisor` fleet (whose
    workers inherit the scenario's ``REPRO_FAULT_PLAN`` delay plan)
    behind a :class:`~repro.serving.proxy.FleetProxy`, then issues
    ``scenario.requests`` sequential ``/assign`` requests while
    delivering the seeded SIGSTOP/SIGCONT/SIGKILL timeline to worker
    pids. Every successful response is compared bit-for-bit against the
    in-process assignment of the same rows.

    Args:
        scenario: the seeded soak description.
        state_root: directory for the throwaway registry/fleet state
            (default: a ``TemporaryDirectory`` cleaned up afterwards).
    """
    from ..api.assign import Assigner
    from ..api.config import RunConfig
    from ..api.model import ClusterModel
    from ..serving.client import ServingClient, ServingClientError
    from ..serving.fleet import FleetSupervisor
    from ..serving.proxy import FleetProxy
    from ..serving.registry import ModelRegistry

    rng = np.random.default_rng(scenario.seed)
    centers = rng.normal(size=(scenario.k, scenario.dim)) * 2.0
    model = ClusterModel(centers, RunConfig(method="kmeans", k=scenario.k))
    # One pool of query rows, sliced per request at a rolling offset:
    # varied payloads, one precomputed ground truth.
    pool = rng.normal(size=(scenario.rows * 8, scenario.dim))
    expected = Assigner(centers).assign(pool)

    schedule = scenario.schedule()
    report = ChaosReport(scenario=scenario, schedule=schedule)
    pending = list(schedule)
    latencies_ms: list[float] = []

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        root = Path(state_root) if state_root is not None else Path(tmp)
        registry = ModelRegistry(root / "registry")
        report.version = registry.publish(model, label="chaos")

        # Workers pick the delay plan up from the environment at spawn;
        # restore immediately after start so monitor *restarts* come
        # back clean (a healed worker should serve at full speed).
        saved_plan = os.environ.get(PLAN_ENV)
        os.environ[PLAN_ENV] = scenario.worker_plan().to_json()
        try:
            supervisor = FleetSupervisor(
                registry,
                workers=scenario.workers,
                state_dir=root / "fleet",
                heartbeat_s=scenario.heartbeat_s,
                health_timeout_s=scenario.health_timeout_s,
            ).start()
        finally:
            if saved_plan is None:
                os.environ.pop(PLAN_ENV, None)
            else:
                os.environ[PLAN_ENV] = saved_plan

        try:
            with FleetProxy(
                supervisor,
                breaker=scenario.breaker,
                breaker_failures=scenario.breaker_failures,
                breaker_reset_s=scenario.breaker_reset_s,
            ) as proxy:
                with ServingClient(
                    url=proxy.url,
                    timeout=5.0,
                    backoff_seed=scenario.seed,
                ) as client:
                    start = time.perf_counter()
                    for index in range(scenario.requests):
                        while pending and pending[0][0] == index:
                            _, kind, worker = pending.pop(0)
                            pids = supervisor.worker_pids()
                            if worker < len(pids):
                                _deliver(pids[worker], kind)
                        offset = (index * scenario.rows) % (
                            pool.shape[0] - scenario.rows + 1
                        )
                        batch = pool[offset : offset + scenario.rows]
                        t0 = time.perf_counter()
                        try:
                            response = client.assign(
                                batch, npy=True,
                                deadline_ms=scenario.deadline_ms,
                            )
                        except ServingClientError as exc:
                            report.failed += 1
                            key = f"http_{exc.status}"
                            report.errors[key] = report.errors.get(key, 0) + 1
                        else:
                            if np.array_equal(
                                response.labels,
                                expected[offset : offset + scenario.rows],
                            ):
                                report.succeeded += 1
                            else:
                                # A successful status with wrong labels
                                # is the one unforgivable outcome.
                                report.wrong += 1
                        latencies_ms.append((time.perf_counter() - t0) * 1e3)
                    report.wall_s = time.perf_counter() - start
                status = supervisor.status()
                report.restarts = sum(
                    row["restarts"] for row in status["workers"]
                )
        finally:
            # A SIGSTOP'd child would survive .stop()'s terminate();
            # thaw everything before shutdown, then stop the fleet.
            for pid in supervisor.worker_pids():
                _deliver(pid, "sigcont")
            supervisor.stop()

    if latencies_ms:
        report.p50_ms = float(np.percentile(latencies_ms, 50))
        report.p99_ms = float(np.percentile(latencies_ms, 99))
    return report


def run_chaos_suite(
    *,
    seed: int = 0,
    smoke: bool = False,
    requests: int | None = None,
    workers: int = 2,
    out_dir: str | Path | None = None,
    min_availability: float | None = None,
) -> dict[str, Any]:
    """Run the chaos soak(s) and write ``BENCH_chaos.json``.

    The full suite runs the breaker-on soak and the *identical*
    breaker-off soak (same seed, same fault timeline) so the JSON holds
    the breaker's measured availability contribution side by side;
    ``--smoke`` runs a single short breaker-on soak for CI.

    Args:
        seed: scenario seed (same seed, same fault schedule).
        smoke: short single-soak mode for CI.
        requests: override the per-soak request count.
        workers: fleet size.
        out_dir: where ``BENCH_chaos.json`` goes (default: the results
            directory, honoring ``REPRO_RESULTS_DIR``).
        min_availability: the gate the breaker-on soak must clear
            (default 0.99 full / 0.90 smoke).

    Returns:
        ``{"path": Path, "reports": [ChaosReport, ...], "ok": bool,
        "reasons": [str, ...]}`` — ``ok`` is False when the breaker-on
        soak missed the availability bar or *any* soak returned a wrong
        answer.
    """
    from ..experiments.paper import RESULTS_DIR
    from ..perf.harness import write_bench

    count = requests if requests is not None else (80 if smoke else 250)
    bar = min_availability if min_availability is not None else (
        0.90 if smoke else 0.99
    )
    scenarios = [
        ChaosScenario(seed=seed, requests=count, workers=workers, breaker=True)
    ]
    if not smoke:
        scenarios.append(
            ChaosScenario(
                seed=seed, requests=count, workers=workers, breaker=False
            )
        )
    reports = [run_chaos(scenario) for scenario in scenarios]
    records = [report.to_record() for report in reports]
    out = Path(out_dir) if out_dir is not None else RESULTS_DIR
    path = write_bench(out / "BENCH_chaos.json", CHAOS_SUITE, records)
    reasons: list[str] = []
    gated = reports[0]
    if gated.availability < bar:
        reasons.append(
            f"breaker-on availability {gated.availability:.4f} "
            f"is below the {bar:.2f} gate"
        )
    for report in reports:
        if report.wrong:
            mode = "on" if report.scenario.breaker else "off"
            reasons.append(
                f"breaker-{mode} soak returned {report.wrong} wrong "
                "answer(s) — a successful response diverged from "
                "in-process predict"
            )
    return {
        "path": path,
        "reports": reports,
        "ok": not reasons,
        "reasons": reasons,
    }


def render_chaos(path: str | Path) -> str:
    """One-line-per-soak summary of a written ``BENCH_chaos.json``."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    lines = []
    for record in payload["records"]:
        extra = record.get("extra", {})
        lines.append(
            f"{record['workload']}: seed={extra.get('seed')} "
            f"requests={record['n']} "
            f"availability={extra.get('availability', 0.0):.4f} "
            f"p50={extra.get('p50_ms', 0.0):.1f}ms "
            f"p99={extra.get('p99_ms', 0.0):.1f}ms "
            f"failed={extra.get('failed')} wrong={extra.get('wrong')} "
            f"restarts={extra.get('restarts')}"
        )
    return "\n".join(lines)
