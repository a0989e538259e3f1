"""Benchmark harness: run perf suites, emit machine-readable JSON.

Every benchmark in this repo reduces to the same record shape — *one
workload, at one size, with one worker count, took this long* — so the
harness standardizes it:

.. code-block:: json

    {
      "schema": "repro.bench/v1",
      "suite": "assign",
      "records": [
        {"workload": "assigner_throughput", "n": 100000, "k": 15,
         "jobs": 4, "wall_s": 0.021, "rows_per_s": 4.8e6,
         "speedup": 2.3, "extra": {"d": 14, "chunk_size": 0}}
      ]
    }

``speedup`` is measured against the suite's baseline record for the
same ``(workload, n, k)`` — the ``jobs=1`` run emitted in the same file
— so a single ``BENCH_*.json`` is self-contained evidence of scaling.
:func:`validate_bench` checks the schema without external dependencies;
CI runs it on every PR's smoke output and uploads the JSON as an
artifact, extending the recorded perf trajectory.

Four suites ship today (the FairKM fits themselves, quality next to
speed, are measured by the repository benchmark under ``perfbench/``):

* **assign** — the serving hot loop: ``Assigner.assign`` rows/s across
  worker counts.
* **serve** — the end-to-end serving ceiling: rows/s through a live
  :class:`~repro.serving.server.AssignmentServer` (npy and JSON
  payloads over HTTP) next to the in-process ``Assigner`` baseline on
  the same points, so ``BENCH_serve.json`` quantifies exactly what the
  HTTP hop costs.
* **fleet** — multi-process scaling: one streamed request dealt by a
  :class:`~repro.serving.proxy.FleetProxy` across 1, 2, ... worker
  processes (the ``jobs`` column is the fleet size), next to the same
  streamed request into a single :class:`AssignmentServer` and the
  in-process ``Assigner`` on the same points — so ``BENCH_fleet.json``
  quantifies what adding worker processes buys over one process, at
  bit-identical labels. Fleet records carry the host ``cpu_count`` so
  the scaling gate knows what the hardware allows. A payload-size
  sweep (``fleet_stream_scatter``) additionally streams single growing
  requests through the proxy and records ``bytes_per_s`` in ``extra``
  — the wire format's own ceiling.
* **backend** — distributed-training scaling: one large-batch
  mini-batch FairKM fit per worker count through the
  :class:`~repro.backend.MultiprocessBackend` (data placed in shared
  memory once, shard stats scored in worker processes), next to the
  same fit through the default thread-pool
  :class:`~repro.backend.LocalBackend` — so ``BENCH_backend.json``
  quantifies what worker *processes* buy over in-process scoring, at
  bit-identical labels. Records carry the host ``cpu_count`` so the
  scaling gate (:func:`repro.perf.compare.backend_gate`) knows what
  the hardware allows.

Entry point: ``repro bench`` (``python -m repro bench`` without an
install).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

#: Schema tag written into (and required from) every bench file.
BENCH_SCHEMA = "repro.bench/v1"

#: Known suite names (one output file per suite).
SUITES = ("assign", "serve", "fleet", "backend")

#: Required record fields and their types (``extra`` is optional).
_RECORD_FIELDS: dict[str, type] = {
    "workload": str,
    "n": int,
    "k": int,
    "jobs": int,
    "wall_s": float,
    "rows_per_s": float,
    "speedup": float,
}


@dataclass
class BenchRecord:
    """One measured (workload, size, worker-count) point."""

    workload: str
    n: int
    k: int
    jobs: int
    wall_s: float
    rows_per_s: float
    speedup: float = 1.0
    extra: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        if not data["extra"]:
            del data["extra"]
        return data


def bench_payload(suite: str, records: Sequence[BenchRecord]) -> dict[str, Any]:
    """Assemble the on-disk payload for one suite."""
    return {
        "schema": BENCH_SCHEMA,
        "suite": suite,
        "records": [r.to_dict() for r in records],
    }


def validate_bench(payload: Any) -> None:
    """Validate a bench payload against the v1 schema.

    Raises:
        ValueError: with the first violation found. Intended for CI:
            ``validate_bench(json.loads(path.read_text()))``.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"bench payload must be an object, got {type(payload).__name__}")
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"bench schema must be {BENCH_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    suite = payload.get("suite")
    if not isinstance(suite, str) or not suite:
        raise ValueError(f"bench suite must be a non-empty string, got {suite!r}")
    records = payload.get("records")
    if not isinstance(records, list) or not records:
        raise ValueError("bench records must be a non-empty list")
    for idx, record in enumerate(records):
        if not isinstance(record, dict):
            raise ValueError(f"records[{idx}] must be an object")
        for name, kind in _RECORD_FIELDS.items():
            if name not in record:
                raise ValueError(f"records[{idx}] is missing {name!r}")
            value = record[name]
            # bool is an int subclass; reject it for the numeric fields.
            if isinstance(value, bool) or not isinstance(
                value, (kind,) if kind is not float else (int, float)
            ):
                raise ValueError(
                    f"records[{idx}].{name} must be {kind.__name__}, "
                    f"got {value!r}"
                )
            if kind in (int, float) and value < 0:
                raise ValueError(f"records[{idx}].{name} must be >= 0, got {value!r}")
        extra = record.get("extra", {})
        if not isinstance(extra, dict):
            raise ValueError(f"records[{idx}].extra must be an object")
        unknown = set(record) - set(_RECORD_FIELDS) - {"extra"}
        if unknown:
            raise ValueError(f"records[{idx}] has unknown fields {sorted(unknown)}")


def write_bench(path: str | Path, suite: str, records: Sequence[BenchRecord]) -> Path:
    """Validate and write one suite's ``BENCH_*.json``; returns the path."""
    payload = bench_payload(suite, records)
    validate_bench(payload)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def render_bench(payload: dict[str, Any]) -> str:
    """Human-readable table rendering of a bench payload.

    The text outputs under ``results/`` are produced from the JSON via
    this function — one code path, two formats.
    """
    from ..experiments.tables import format_table

    rows = []
    for record in payload["records"]:
        rows.append(
            [
                record["workload"],
                f"{record['n']:,}",
                str(record["k"]),
                str(record["jobs"]),
                f"{record['wall_s'] * 1e3:.1f}",
                f"{record['rows_per_s'] / 1e6:.2f}",
                f"{record['speedup']:.2f}x",
            ]
        )
    return format_table(
        ["workload", "n", "k", "jobs", "wall ms", "Mrows/s", "speedup"],
        rows,
        title=f"Benchmark suite: {payload['suite']} ({payload['schema']})",
    )


# --------------------------------------------------------------------- #
# Suite implementations                                                   #
# --------------------------------------------------------------------- #


def _timed(fn: Callable[[], Any], repeats: int) -> tuple[float, Any]:
    """Best-of-*repeats* wall time and the last return value."""
    best = float("inf")
    value = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _engine_problem(n: int, dim: int = 12, groups: int = 4):
    """Adult-shaped synthetic fair-clustering workload (as in §5.1)."""
    from ..core import CategoricalSpec, NumericSpec

    rng = np.random.default_rng(0)
    points = np.vstack(
        [
            rng.normal(loc=rng.normal(0, 3, dim), size=(n // groups, dim))
            for _ in range(groups)
        ]
    )
    attr_rng = np.random.default_rng(1)
    cats = [
        CategoricalSpec(f"c{i}", attr_rng.integers(0, v, points.shape[0]), n_values=v)
        for i, v in enumerate((7, 2, 5, 9, 3))
    ]
    nums = [NumericSpec("z", attr_rng.normal(size=points.shape[0]))]
    return points, cats, nums


def _speedup_vs_baseline(records: list[BenchRecord]) -> None:
    """Fill ``speedup`` from each (workload, n, k)'s jobs=1 record."""
    baselines = {
        (r.workload, r.n, r.k): r.wall_s for r in records if r.jobs == 1
    }
    for r in records:
        base = baselines.get((r.workload, r.n, r.k))
        if base and r.wall_s > 0:
            r.speedup = base / r.wall_s


def bench_assign(
    sizes: Sequence[int],
    jobs: Sequence[int],
    *,
    d: int = 14,
    k: int = 15,
    chunk_size: int | None = None,
    repeats: int = 3,
) -> list[BenchRecord]:
    """Serving hot loop: ``Assigner.assign`` rows/s across worker counts.

    Labels are asserted bit-identical to the jobs=1 run at every worker
    count (parallel chunks write disjoint output slices).
    """
    from ..api.assign import Assigner

    records: list[BenchRecord] = []
    rng = np.random.default_rng(0)
    centers = rng.normal(size=(k, d)) * 2.0
    services = {j: Assigner(centers, workers=j) for j in jobs}
    for n in sizes:
        n = int(n)
        points = rng.normal(size=(n, d))
        baseline = Assigner(centers).assign(points, chunk_size=chunk_size)
        for j in jobs:
            wall, labels = _timed(
                lambda: services[j].assign(points, chunk_size=chunk_size),
                repeats,
            )
            if not np.array_equal(labels, baseline):
                raise AssertionError(f"assign workers={j} changed the labels")
            records.append(
                BenchRecord(
                    "assigner_throughput", n, k, int(j),
                    wall, n / wall if wall > 0 else 0.0,
                    extra={"d": d, "chunk_size": chunk_size or 0},
                )
            )
    _speedup_vs_baseline(records)
    return records


def bench_serve(
    sizes: Sequence[int],
    jobs: Sequence[int],
    *,
    d: int = 14,
    k: int = 15,
    repeats: int = 3,
) -> list[BenchRecord]:
    """End-to-end serving ceiling: HTTP rows/s vs the in-process baseline.

    Publishes a synthetic model into a throwaway registry, starts an
    :class:`~repro.serving.server.AssignmentServer` on an ephemeral
    port, and measures three workloads per (n, jobs):

    * ``serve_http_npy``   — ``POST /assign`` with raw npy bytes over a
      keep-alive connection (the serving fast path);
    * ``serve_http_json``  — the same rows as JSON (interoperability
      path; dominated by encode/decode, so it is the floor — measured
      only at n ≤ 50k, past which the body size benchmarks the json
      module rather than serving);
    * ``assign_inprocess`` — ``Assigner.assign`` on the same points in
      the same process (the ceiling the HTTP hop is measured against);
    * ``serve_http_npy_raw`` — the npy workload against a second server
      with telemetry disabled (``metrics=False``): the instrumentation
      overhead guard. The npy record's ``extra["obs_overhead_ratio"]``
      carries instrumented/raw wall time, which ``repro bench compare``
      gates at ≤ 2%.

    Served labels are asserted bit-identical to the in-process baseline
    at every worker count, and the server's reported model version is
    asserted on every response.
    """
    import tempfile

    from ..api.config import RunConfig
    from ..api.model import ClusterModel
    from ..serving.client import ServingClient
    from ..serving.registry import ModelRegistry
    from ..serving.server import AssignmentServer

    rng = np.random.default_rng(0)
    centers = rng.normal(size=(k, d)) * 2.0
    model = ClusterModel(centers, RunConfig(method="kmeans", k=k))
    records: list[BenchRecord] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        registry = ModelRegistry(Path(tmp) / "registry")
        version = registry.publish(model, label="bench")
        for j in jobs:
            server = AssignmentServer(registry=registry, workers=int(j)).start()
            raw_server = AssignmentServer(
                registry=registry, workers=int(j), metrics=False
            ).start()
            try:
                with ServingClient(port=server.port) as client, ServingClient(
                    port=raw_server.port
                ) as raw_client:
                    for n in sizes:
                        n = int(n)
                        points = rng.normal(size=(n, d))
                        baseline = server.snapshot().assigner.assign(points)
                        wall, _ = _timed(
                            lambda: server.snapshot().assigner.assign(points), repeats
                        )
                        records.append(
                            BenchRecord(
                                "assign_inprocess", n, k, int(j),
                                wall, n / wall if wall > 0 else 0.0,
                                extra={"d": d},
                            )
                        )
                        payloads = [("serve_http_npy", True)]
                        if n <= 50_000:
                            # JSON spends its wall in float <-> decimal
                            # text; past ~50k rows the 100MB+ bodies only
                            # measure the json module, not serving.
                            payloads.append(("serve_http_json", False))
                        npy_record: BenchRecord | None = None
                        for workload, npy in payloads:
                            wall, response = _timed(
                                lambda npy=npy: client.assign(points, npy=npy),
                                repeats,
                            )
                            if not np.array_equal(response.labels, baseline):
                                raise AssertionError(
                                    f"{workload} workers={j} labels diverged from "
                                    "in-process assign"
                                )
                            if response.version != version:
                                raise AssertionError(
                                    f"{workload} served version {response.version!r},"
                                    f" expected {version!r}"
                                )
                            record = BenchRecord(
                                workload, n, k, int(j),
                                wall, n / wall if wall > 0 else 0.0,
                                extra={"d": d, "version": version},
                            )
                            records.append(record)
                            if workload == "serve_http_npy":
                                npy_record = record
                        # Same rows against the telemetry-off twin: the
                        # instrumentation must be near-free on the fast
                        # path, and this pair is what proves it.
                        raw_wall, raw_response = _timed(
                            lambda: raw_client.assign(points, npy=True), repeats
                        )
                        if not np.array_equal(raw_response.labels, baseline):
                            raise AssertionError(
                                f"serve_http_npy_raw workers={j} labels diverged "
                                "from in-process assign"
                            )
                        raw_record = BenchRecord(
                            "serve_http_npy_raw", n, k, int(j),
                            raw_wall, n / raw_wall if raw_wall > 0 else 0.0,
                            extra={"d": d, "version": version,
                                   "instrumentation": "off"},
                        )
                        records.append(raw_record)
                        if npy_record is not None and raw_wall > 0:
                            npy_record.extra["obs_overhead_ratio"] = (
                                npy_record.wall_s / raw_wall
                            )
            finally:
                server.stop()
                raw_server.stop()
    _speedup_vs_baseline(records)
    return records


def bench_fleet(
    sizes: Sequence[int],
    fleet_sizes: Sequence[int],
    *,
    d: int = 14,
    k: int = 64,
    repeats: int = 1,
    payload_sizes: Sequence[int] | None = None,
) -> list[BenchRecord]:
    """Fleet scaling: streamed rows/s vs single server vs in-process.

    Per size *n*, the core workloads share one center matrix and one
    query set (labels asserted bit-identical throughout), and each
    measurement is **one streamed request** (`assign_stream`) so the
    single-server and fleet paths exercise the exact same wire format
    and pipelining — the only variable is the worker-process count:

    * ``assign_inprocess``    — the ``Assigner`` ceiling (jobs=1 row);
    * ``serve_http_single``   — one streamed request into one in-process
      :class:`~repro.serving.server.AssignmentServer` (jobs=1 row);
    * ``fleet_http_npy``      — the same streamed request into a real
      :class:`FleetSupervisor` fleet of ``jobs`` worker *processes*
      behind a dealing :class:`FleetProxy`.

    The suite defaults to ``k=64``: assignment cost grows with the
    center count, and the fleet's scatter win is only measurable when
    per-row compute outweighs per-row transport. Every fleet record's
    ``extra`` carries the host's ``cpu_count`` — the scaling gate in
    :func:`repro.perf.compare.fleet_gate` cannot hold a fleet to a
    speedup bar the hardware makes impossible.

    Each fleet size additionally runs a **payload-size sweep**
    (``fleet_stream_scatter``): one client streams a single request of
    ``payload_sizes`` rows (default: 1/8, 1/2 and all of the largest
    *n*) through the proxy, which deals it across the fleet. Its
    ``extra`` records ``payload_bytes`` and ``bytes_per_s`` alongside
    the usual rows/s — the wire's own ceiling as a function of body
    size.
    """
    import os
    import tempfile

    from ..api.assign import Assigner
    from ..api.config import RunConfig
    from ..api.model import ClusterModel
    from ..serving.client import ServingClient
    from ..serving.fleet import FleetSupervisor
    from ..serving.proxy import FleetProxy
    from ..serving.registry import ModelRegistry
    from ..serving.server import AssignmentServer

    fleet_sizes = [int(w) for w in fleet_sizes]
    cpu_count = os.cpu_count() or 1
    rng = np.random.default_rng(0)
    centers = rng.normal(size=(k, d)) * 2.0
    model = ClusterModel(centers, RunConfig(method="kmeans", k=k))
    assigner = Assigner(centers)
    records: list[BenchRecord] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-fleet-") as tmp:
        registry = ModelRegistry(Path(tmp) / "registry")
        version = registry.publish(model, label="bench")
        datasets = []
        for n in sizes:
            n = int(n)
            points = rng.normal(size=(n, d))
            expected = assigner.assign(points)
            datasets.append((n, points, expected))
            wall, _ = _timed(lambda pts=points: assigner.assign(pts), repeats)
            records.append(
                BenchRecord(
                    "assign_inprocess", n, k, 1,
                    wall, n / wall if wall > 0 else 0.0,
                    extra={"d": d},
                )
            )
        with AssignmentServer(registry=registry) as server:
            with ServingClient(url=server.url) as client:
                for n, points, expected in datasets:
                    wall, response = _timed(
                        lambda p=points: client.assign_stream(p), repeats
                    )
                    _check_fleet_labels("serve_http_single", response.labels,
                                        expected, {response.version}, version)
                    records.append(
                        BenchRecord(
                            "serve_http_single", n, k, 1,
                            wall, n / wall if wall > 0 else 0.0,
                            extra={"d": d, "cpu_count": cpu_count},
                        )
                    )
        for size in fleet_sizes:
            with FleetSupervisor(
                registry, workers=size, state_dir=Path(tmp) / f"fleet-{size}"
            ) as fleet:
                with FleetProxy(fleet) as proxy:
                    with ServingClient(url=proxy.url) as streamer:
                        for n, points, expected in datasets:
                            wall, response = _timed(
                                lambda p=points: streamer.assign_stream(p),
                                repeats,
                            )
                            _check_fleet_labels(
                                "fleet_http_npy", response.labels, expected,
                                {response.version}, version,
                            )
                            records.append(
                                BenchRecord(
                                    "fleet_http_npy", n, k, size,
                                    wall, n / wall if wall > 0 else 0.0,
                                    extra={
                                        "d": d,
                                        "cpu_count": cpu_count,
                                        "version": version,
                                    },
                                )
                            )
                        # Payload-size sweep: one streamed request, proxy
                        # deal across the fleet, bytes/s next to rows/s.
                        n_top, points_top, expected_top = datasets[-1]
                        ladder = (
                            [int(p) for p in payload_sizes]
                            if payload_sizes is not None
                            else sorted(
                                {max(1, n_top // 8), max(1, n_top // 2), n_top}
                            )
                        )
                        for payload_rows in ladder:
                            pts = points_top[:payload_rows]
                            wall, response = _timed(
                                lambda p=pts: streamer.assign_stream(p), repeats
                            )
                            _check_fleet_labels(
                                "fleet_stream_scatter",
                                response.labels,
                                expected_top[:payload_rows],
                                {response.version},
                                version,
                            )
                            payload_bytes = int(pts.nbytes)
                            records.append(
                                BenchRecord(
                                    "fleet_stream_scatter", payload_rows, k, size,
                                    wall,
                                    payload_rows / wall if wall > 0 else 0.0,
                                    extra={
                                        "d": d,
                                        "payload_bytes": payload_bytes,
                                        "bytes_per_s": (
                                            payload_bytes / wall if wall > 0 else 0.0
                                        ),
                                        "version": version,
                                    },
                                )
                            )
    _speedup_vs_baseline(records)
    return records


def bench_backend(
    sizes: Sequence[int],
    workers: Sequence[int],
    *,
    k: int = 5,
    max_iter: int = 10,
    batch_size: int = 16_384,
    repeats: int = 1,
) -> list[BenchRecord]:
    """Training-backend scaling: multiprocess fit vs the local baseline.

    Per size *n*, one large-batch mini-batch FairKM fit on the standard
    Adult-shaped workload through each backend:

    * ``backend_local_fit``        — the default thread-pool
      :class:`~repro.backend.LocalBackend` at jobs=1 (the
      single-process baseline the gate measures against);
    * ``backend_multiprocess_fit`` — the same fit through the
      :class:`~repro.backend.MultiprocessBackend` at each worker count
      (the ``jobs`` column is the worker-*process* count).

    The batch size is large (default 16384) so every batch shards into
    many per-worker scoring tasks — the section the backend
    parallelizes. Labels and centers are asserted bit-identical to the
    local baseline at every worker count (the backend contract), and
    every record's ``extra`` carries the backend name and the host's
    ``cpu_count`` — :func:`repro.perf.compare.backend_gate` cannot hold
    the backend to a speedup bar the hardware makes impossible.
    """
    import os

    from ..core import MiniBatchFairKM

    cpu_count = os.cpu_count() or 1
    records: list[BenchRecord] = []
    for n in sizes:
        points, cats, nums = _engine_problem(int(n))
        n_real = points.shape[0]
        lam = (n_real / k) ** 2

        def fit(backend: str, jobs: int):
            return MiniBatchFairKM(
                k, batch_size=batch_size, lambda_=lam, seed=0,
                max_iter=max_iter, backend=backend, workers=jobs,
            ).fit(points, categorical=cats, numeric=nums)

        wall, base = _timed(lambda: fit("local", 1), repeats)
        records.append(
            BenchRecord(
                "backend_local_fit", n_real, k, 1,
                wall, n_real * base.n_iter / wall if wall > 0 else 0.0,
                extra={
                    "backend": "local",
                    "cpu_count": cpu_count,
                    "n_iter": base.n_iter,
                    "batch_size": batch_size,
                },
            )
        )
        for j in workers:
            wall, result = _timed(lambda j=j: fit("multiprocess", int(j)), repeats)
            if not np.array_equal(result.labels, base.labels):
                raise AssertionError(
                    f"multiprocess workers={j} changed the labels"
                )
            if not np.array_equal(result.centers, base.centers):
                raise AssertionError(
                    f"multiprocess workers={j} changed the centers"
                )
            records.append(
                BenchRecord(
                    "backend_multiprocess_fit", n_real, k, int(j),
                    wall, n_real * result.n_iter / wall if wall > 0 else 0.0,
                    extra={
                        "backend": "multiprocess",
                        "cpu_count": cpu_count,
                        "n_iter": result.n_iter,
                        "batch_size": batch_size,
                    },
                )
            )
    # speedup is measured against the single-process *local* fit, not
    # each workload's own jobs=1 record: the whole question the suite
    # answers is whether worker processes beat in-process scoring.
    locals_ = {
        (r.n, r.k): r.wall_s
        for r in records
        if r.workload == "backend_local_fit" and r.jobs == 1
    }
    for r in records:
        base_wall = locals_.get((r.n, r.k))
        if base_wall and r.wall_s > 0:
            r.speedup = base_wall / r.wall_s
    return records


def _check_fleet_labels(
    workload: str,
    labels: np.ndarray,
    expected: np.ndarray,
    versions: set[str],
    version: str,
) -> None:
    if not np.array_equal(labels, expected):
        raise AssertionError(
            f"{workload} labels diverged from in-process assign"
        )
    if versions != {version}:
        raise AssertionError(
            f"{workload} served versions {sorted(versions)}, expected {version!r}"
        )


# --------------------------------------------------------------------- #
# Orchestration (the ``repro bench`` implementation)                      #
# --------------------------------------------------------------------- #


def job_ladder(max_jobs: int) -> tuple[int, ...]:
    """Worker counts to sweep: 1, 2, 4, ... up to (and including) max."""
    jobs = [1]
    while jobs[-1] * 2 < max_jobs:
        jobs.append(jobs[-1] * 2)
    if max_jobs > 1:
        jobs.append(max_jobs)
    return tuple(jobs)


def run_bench(
    suite: str = "all",
    *,
    smoke: bool = False,
    max_jobs: int = 4,
    out_dir: str | Path | None = None,
    repeats: int | None = None,
) -> dict[str, Path]:
    """Run the requested suite(s); write and validate ``BENCH_*.json``.

    Args:
        suite: ``"assign"``, ``"serve"``, ``"fleet"``, ``"backend"``
            or ``"all"``.
        smoke: small sizes for CI (seconds, not minutes).
        max_jobs: top of the worker-count ladder (always includes 1; the
            fleet and backend suites reuse it as the worker-*process*
            ladder).
        out_dir: output directory (default: the results dir, honoring
            ``REPRO_RESULTS_DIR``).
        repeats: timing repeats, best-of (default: 3 for assign, serve
            and fleet, 1 for backend; 1 everywhere under ``smoke``).

    Returns:
        Mapping of suite name to the written JSON path.
    """
    from ..experiments.paper import RESULTS_DIR

    if suite not in (*SUITES, "all"):
        raise ValueError(f"suite must be one of {(*SUITES, 'all')}, got {suite!r}")
    out = Path(out_dir) if out_dir is not None else RESULTS_DIR
    jobs = job_ladder(max_jobs)
    assign_sizes = (50_000,) if smoke else (100_000, 1_000_000)
    # 50k sits at the JSON-payload cutoff so full runs still record the
    # serve_http_json floor alongside the large npy-only measurement.
    serve_sizes = (20_000,) if smoke else (50_000, 500_000)
    fleet_sizes_n = (20_000,) if smoke else (50_000, 500_000)
    # 100k is the backend gate's floor: below it shard IPC dominates the
    # arithmetic it ships, so smoke runs are reported but never gated.
    backend_sizes = (2_000,) if smoke else (100_000,)
    written: dict[str, Path] = {}
    if suite in ("assign", "all"):
        records = bench_assign(
            assign_sizes,
            jobs,
            repeats=(1 if smoke else 3) if repeats is None else repeats,
        )
        written["assign"] = write_bench(out / "BENCH_assign.json", "assign", records)
    if suite in ("serve", "all"):
        records = bench_serve(
            serve_sizes,
            jobs,
            repeats=(1 if smoke else 3) if repeats is None else repeats,
        )
        written["serve"] = write_bench(out / "BENCH_serve.json", "serve", records)
    if suite in ("fleet", "all"):
        # The jobs ladder doubles as the fleet-size ladder: the suite's
        # ``jobs`` column counts worker *processes*, not threads.
        records = bench_fleet(
            fleet_sizes_n,
            jobs,
            repeats=(1 if smoke else 3) if repeats is None else repeats,
        )
        written["fleet"] = write_bench(out / "BENCH_fleet.json", "fleet", records)
    if suite in ("backend", "all"):
        # The jobs ladder doubles as the worker-process ladder here too.
        records = bench_backend(
            backend_sizes, jobs, repeats=repeats if repeats is not None else 1
        )
        written["backend"] = write_bench(
            out / "BENCH_backend.json", "backend", records
        )
    return written
