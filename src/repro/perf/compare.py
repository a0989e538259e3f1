"""Perf-trend comparer: diff two ``BENCH_*.json`` records.

CI uploads a schema-validated bench file per PR (see
:mod:`repro.perf.harness`); this module closes the loop by diffing the
current file against a baseline and flagging throughput regressions::

    repro bench compare baseline.json current.json --threshold 0.9

Records are matched on their identity key ``(workload, n, k, jobs)``.
A matched pair regresses when ``current.rows_per_s`` falls below
``threshold × baseline.rows_per_s``; any regression makes the CLI exit
nonzero so CI can gate on it. Records present on only one side are
reported (a disappearing workload is information, not a crash) but do
not fail the comparison.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .harness import validate_bench

#: Record fields forming the comparison identity.
KEY_FIELDS = ("workload", "n", "k", "jobs")

#: Default minimum current/baseline throughput ratio before flagging.
DEFAULT_THRESHOLD = 0.9


def _key(record: dict[str, Any]) -> tuple[Any, ...]:
    return tuple(record[name] for name in KEY_FIELDS)


@dataclass(frozen=True)
class ComparisonRow:
    """One matched (workload, n, k, jobs) pair across the two files."""

    workload: str
    n: int
    k: int
    jobs: int
    baseline_rows_per_s: float
    current_rows_per_s: float

    @property
    def ratio(self) -> float:
        """current / baseline throughput (∞ when the baseline was 0)."""
        if self.baseline_rows_per_s <= 0:
            return float("inf")
        return self.current_rows_per_s / self.baseline_rows_per_s

    def regressed(self, threshold: float) -> bool:
        return self.ratio < threshold


@dataclass(frozen=True)
class BenchComparison:
    """The full diff of two bench payloads."""

    suite: str
    threshold: float
    rows: list[ComparisonRow] = field(default_factory=list)
    only_baseline: list[tuple[Any, ...]] = field(default_factory=list)
    only_current: list[tuple[Any, ...]] = field(default_factory=list)

    @property
    def regressions(self) -> list[ComparisonRow]:
        return [row for row in self.rows if row.regressed(self.threshold)]

    @property
    def ok(self) -> bool:
        """True when at least one record matched and none regressed."""
        return bool(self.rows) and not self.regressions


def compare_bench(
    baseline: dict[str, Any],
    current: dict[str, Any],
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> BenchComparison:
    """Diff two validated bench payloads (same schema, any suites).

    Args:
        baseline: the reference payload (e.g. the previous run's upload).
        current: this run's payload.
        threshold: minimum acceptable current/baseline rows/s ratio.

    Raises:
        ValueError: either payload fails schema validation, or the
            threshold is not in (0, ∞).
    """
    if not threshold > 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    validate_bench(baseline)
    validate_bench(current)
    base_records = {_key(r): r for r in baseline["records"]}
    curr_records = {_key(r): r for r in current["records"]}
    rows = [
        ComparisonRow(
            *key,
            baseline_rows_per_s=float(base_records[key]["rows_per_s"]),
            current_rows_per_s=float(curr_records[key]["rows_per_s"]),
        )
        for key in base_records
        if key in curr_records
    ]
    rows.sort(key=lambda row: (row.workload, row.n, row.k, row.jobs))
    suite = current.get("suite", "?")
    if baseline.get("suite") != suite:
        suite = f"{baseline.get('suite', '?')} vs {suite}"
    return BenchComparison(
        suite=suite,
        threshold=threshold,
        rows=rows,
        only_baseline=sorted(k for k in base_records if k not in curr_records),
        only_current=sorted(k for k in curr_records if k not in base_records),
    )


def compare_bench_files(
    baseline_path: str | Path,
    current_path: str | Path,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> BenchComparison:
    """File-path convenience wrapper around :func:`compare_bench`."""
    baseline = json.loads(Path(baseline_path).read_text(encoding="utf-8"))
    current = json.loads(Path(current_path).read_text(encoding="utf-8"))
    return compare_bench(baseline, current, threshold=threshold)


#: Fleet-gate knobs: the top fleet size must beat the single server by
#: this factor, and speedup may not drop more than the tolerance allows
#: between consecutive fleet sizes (shared CI runners are noisy).
FLEET_GATE_MIN_SPEEDUP = 1.0
FLEET_GATE_MONOTONE_TOLERANCE = 0.9


@dataclass(frozen=True)
class FleetGateRow:
    """Fleet-vs-single-server throughput at one (n, fleet size)."""

    n: int
    jobs: int
    single_rows_per_s: float
    fleet_rows_per_s: float

    @property
    def speedup(self) -> float:
        if self.single_rows_per_s <= 0:
            return float("inf")
        return self.fleet_rows_per_s / self.single_rows_per_s


@dataclass(frozen=True)
class FleetGateReport:
    """Scaling verdict for one ``BENCH_fleet.json`` payload."""

    rows: list[FleetGateRow] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.rows) and not self.problems


def fleet_gate(
    payload: dict[str, Any],
    *,
    min_speedup: float = FLEET_GATE_MIN_SPEEDUP,
    monotone_tolerance: float = FLEET_GATE_MONOTONE_TOLERANCE,
) -> FleetGateReport:
    """Check that the fleet multiplies throughput instead of taxing it.

    For every batch size *n* in a fleet suite payload, the
    ``fleet_http_npy`` speedup over the same-*n* ``serve_http_single``
    record must

    * be **> min_speedup at the largest fleet size** — the fleet's whole
      reason to exist (a 1-worker fleet is a failover device and pays
      the proxy hop, so it is reported but not held to the bar), and
    * be **monotone in worker count** up to the tolerance — adding a
      worker process may never cost throughput.

    Both bars are **hardware-aware**: fleet records carry the recording
    host's ``cpu_count`` in ``extra``, and worker processes beyond the
    core count cannot add compute, so the speedup bar applies to the
    largest fleet size **that fits the cores** and the monotone check
    stops there too. On a single-core host neither bar is enforceable
    (every extra process is pure context-switch tax) — the report then
    carries a ``notes`` entry instead of a failure, and CI's multi-core
    runners remain the place where the gate bites.

    Returns a report whose ``problems`` list is empty when the gate
    passes; ``repro bench compare`` exits nonzero otherwise.
    """
    validate_bench(payload)
    singles = {
        r["n"]: float(r["rows_per_s"])
        for r in payload["records"]
        if r["workload"] == "serve_http_single"
    }
    fleet_records: dict[int, list[tuple[int, float]]] = {}
    cpu_count: int | None = None
    for record in payload["records"]:
        if record["workload"] == "fleet_http_npy":
            fleet_records.setdefault(record["n"], []).append(
                (int(record["jobs"]), float(record["rows_per_s"]))
            )
            cores = record.get("extra", {}).get("cpu_count")
            if isinstance(cores, int) and cores > 0:
                cpu_count = cores
    rows: list[FleetGateRow] = []
    problems: list[str] = []
    notes: list[str] = []
    if not fleet_records:
        problems.append("no fleet_http_npy records to gate on")
    for n in sorted(fleet_records):
        single = singles.get(n)
        if single is None:
            problems.append(f"n={n}: no serve_http_single baseline record")
            continue
        ladder = sorted(fleet_records[n])
        for jobs, rate in ladder:
            rows.append(FleetGateRow(n, jobs, single, rate))
        # Worker processes beyond the recording host's cores cannot add
        # compute: gate on the largest fleet size the hardware supports.
        gated = ladder
        if cpu_count is not None:
            gated = [(jobs, rate) for jobs, rate in ladder if jobs <= cpu_count]
        if len(gated) <= 1 < len(ladder):
            notes.append(
                f"n={n}: host has {cpu_count} core(s) — fleet scaling is "
                "not enforceable on this machine, reporting only"
            )
            continue
        top_jobs, top_rate = gated[-1]
        top_speedup = float("inf") if single <= 0 else top_rate / single
        if len(gated) > 1 and top_speedup <= min_speedup:
            problems.append(
                f"n={n}: fleet of {top_jobs} reaches only "
                f"{top_speedup:.2f}x the single server (need > "
                f"{min_speedup:.2f}x) — the fleet is a tax, not a multiplier"
            )
        for (jobs_a, rate_a), (jobs_b, rate_b) in zip(gated, gated[1:]):
            if rate_b < monotone_tolerance * rate_a:
                problems.append(
                    f"n={n}: throughput fell from {rate_a / 1e6:.2f} M/s at "
                    f"{jobs_a} worker(s) to {rate_b / 1e6:.2f} M/s at "
                    f"{jobs_b} — scaling is not monotone"
                )
    return FleetGateReport(rows=rows, problems=problems, notes=notes)


def render_fleet_gate(report: FleetGateReport) -> str:
    """Human-readable fleet-gate table + verdict."""
    from ..experiments.tables import format_table

    rows = [
        [
            f"{row.n:,}",
            str(row.jobs),
            f"{row.single_rows_per_s / 1e6:.2f}",
            f"{row.fleet_rows_per_s / 1e6:.2f}",
            f"{row.speedup:.2f}x",
        ]
        for row in report.rows
    ]
    table = format_table(
        ["n", "workers", "single M/s", "fleet M/s", "speedup"],
        rows,
        title="Fleet scaling gate (fleet_http_npy vs serve_http_single)",
    )
    lines = [table]
    lines.extend(f"  note: {note}" for note in report.notes)
    lines.extend(f"  GATE: {problem}" for problem in report.problems)
    lines.append(
        "fleet gate passed" if report.ok else "fleet gate FAILED"
    )
    return "\n".join(lines)


#: Backend-gate knobs: multiprocess training must beat the single-process
#: fit, but only at sizes where compute outweighs IPC — CI smoke sizes
#: (thousands of rows) sit below the floor and are reported, not gated.
BACKEND_GATE_MIN_SPEEDUP = 1.0
BACKEND_GATE_MIN_N = 100_000


@dataclass(frozen=True)
class BackendGateRow:
    """Multiprocess-vs-local fit throughput at one (n, worker count)."""

    n: int
    jobs: int
    local_rows_per_s: float
    multiprocess_rows_per_s: float

    @property
    def speedup(self) -> float:
        if self.local_rows_per_s <= 0:
            return float("inf")
        return self.multiprocess_rows_per_s / self.local_rows_per_s


@dataclass(frozen=True)
class BackendGateReport:
    """Scaling verdict for one ``BENCH_backend.json`` payload."""

    rows: list[BackendGateRow] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.rows) and not self.problems


def backend_gate(
    payload: dict[str, Any],
    *,
    min_speedup: float = BACKEND_GATE_MIN_SPEEDUP,
    min_n: int = BACKEND_GATE_MIN_N,
) -> BackendGateReport:
    """Check that the multiprocess backend buys wall-clock, not just IPC.

    For every size *n* in a backend suite payload, the
    ``backend_multiprocess_fit`` speedup over the same-*n* jobs=1
    ``backend_local_fit`` record must be **> min_speedup at the largest
    worker count** — shipping shards to worker processes has to beat
    scoring them in-process, or the backend is pure overhead.

    The bar is **hardware- and size-aware**, mirroring
    :func:`fleet_gate`: records carry the recording host's ``cpu_count``
    in ``extra``, and worker processes beyond the core count cannot add
    compute, so the bar applies to the largest worker count **that fits
    the cores**; a single-core host gets a ``notes`` entry instead of a
    failure. Sizes below *min_n* (CI smoke runs) are reported but not
    gated — at a few thousand rows the per-shard pickling round trip
    dominates the arithmetic it ships, and a "regression" there would
    only measure IPC, not the backend.

    Returns a report whose ``problems`` list is empty when the gate
    passes; ``repro bench compare`` exits nonzero otherwise.
    """
    validate_bench(payload)
    locals_: dict[int, float] = {}
    for record in payload["records"]:
        if record["workload"] == "backend_local_fit" and record["jobs"] == 1:
            locals_[record["n"]] = float(record["rows_per_s"])
    mp_records: dict[int, list[tuple[int, float]]] = {}
    cpu_count: int | None = None
    for record in payload["records"]:
        if record["workload"] == "backend_multiprocess_fit":
            mp_records.setdefault(record["n"], []).append(
                (int(record["jobs"]), float(record["rows_per_s"]))
            )
            cores = record.get("extra", {}).get("cpu_count")
            if isinstance(cores, int) and cores > 0:
                cpu_count = cores
    rows: list[BackendGateRow] = []
    problems: list[str] = []
    notes: list[str] = []
    if not mp_records:
        problems.append("no backend_multiprocess_fit records to gate on")
    for n in sorted(mp_records):
        local = locals_.get(n)
        if local is None:
            problems.append(f"n={n}: no jobs=1 backend_local_fit baseline record")
            continue
        ladder = sorted(mp_records[n])
        for jobs, rate in ladder:
            rows.append(BackendGateRow(n, jobs, local, rate))
        if n < min_n:
            notes.append(
                f"n={n:,}: below the gating floor ({min_n:,} rows) — IPC "
                "dominates at smoke sizes, reporting only"
            )
            continue
        # Workers beyond the recording host's cores cannot add compute:
        # gate on the largest worker count the hardware supports.
        gated = ladder
        if cpu_count is not None:
            gated = [(jobs, rate) for jobs, rate in ladder if jobs <= cpu_count]
        if not any(jobs > 1 for jobs, _ in gated):
            notes.append(
                f"n={n:,}: host has {cpu_count} core(s) — multiprocess "
                "scaling is not enforceable on this machine, reporting only"
            )
            continue
        top_jobs, top_rate = gated[-1]
        top_speedup = float("inf") if local <= 0 else top_rate / local
        if top_speedup <= min_speedup:
            problems.append(
                f"n={n:,}: {top_jobs} worker process(es) reach only "
                f"{top_speedup:.2f}x the single-process fit (need > "
                f"{min_speedup:.2f}x) — the backend is a tax, not a multiplier"
            )
    return BackendGateReport(rows=rows, problems=problems, notes=notes)


def render_backend_gate(report: BackendGateReport) -> str:
    """Human-readable backend-gate table + verdict."""
    from ..experiments.tables import format_table

    rows = [
        [
            f"{row.n:,}",
            str(row.jobs),
            f"{row.local_rows_per_s / 1e6:.2f}",
            f"{row.multiprocess_rows_per_s / 1e6:.2f}",
            f"{row.speedup:.2f}x",
        ]
        for row in report.rows
    ]
    table = format_table(
        ["n", "workers", "local M/s", "multiproc M/s", "speedup"],
        rows,
        title="Backend scaling gate (backend_multiprocess_fit vs backend_local_fit)",
    )
    lines = [table]
    lines.extend(f"  note: {note}" for note in report.notes)
    lines.extend(f"  GATE: {problem}" for problem in report.problems)
    lines.append(
        "backend gate passed" if report.ok else "backend gate FAILED"
    )
    return "\n".join(lines)


#: Observability-gate knobs: telemetry on the serving hot path must cost
#: at most this fraction of the uninstrumented wall time. Sizes below the
#: floor measure HTTP fixed costs, not the per-row instrumentation, and
#: are reported rather than gated.
OBS_GATE_MAX_OVERHEAD = 0.02
OBS_GATE_MIN_N = 50_000


@dataclass(frozen=True)
class ObsGateRow:
    """Instrumented-vs-raw serving wall time at one (n, worker count)."""

    n: int
    jobs: int
    instrumented_wall_s: float
    raw_wall_s: float

    @property
    def overhead(self) -> float:
        """Fractional slowdown of the instrumented server (0.02 = 2%)."""
        if self.raw_wall_s <= 0:
            return 0.0
        return self.instrumented_wall_s / self.raw_wall_s - 1.0


@dataclass(frozen=True)
class ObsGateReport:
    """Instrumentation-overhead verdict for one ``BENCH_serve.json``."""

    rows: list[ObsGateRow] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def obs_gate(
    payload: dict[str, Any],
    *,
    max_overhead: float = OBS_GATE_MAX_OVERHEAD,
    min_n: int = OBS_GATE_MIN_N,
) -> ObsGateReport:
    """Check that telemetry is near-free on the serving fast path.

    Pairs each ``serve_http_npy`` record (metrics on, the default) with
    the same-(n, k, jobs) ``serve_http_npy_raw`` record (a second
    server with ``metrics=False``) and requires the instrumented wall
    time to stay within *max_overhead* of the raw one at gate-worthy
    sizes. Below *min_n* the measurement is dominated by fixed HTTP
    costs, so undersized rows land in ``notes`` instead of
    ``problems`` — the same size-aware posture as :func:`fleet_gate`
    and :func:`backend_gate`. A payload with no raw records (an old
    bench file) gets a note, not a failure.
    """
    validate_bench(payload)
    raw: dict[tuple[int, int, int], float] = {}
    for record in payload["records"]:
        if record["workload"] == "serve_http_npy_raw":
            key = (record["n"], record["k"], record["jobs"])
            raw[key] = float(record["wall_s"])
    rows: list[ObsGateRow] = []
    problems: list[str] = []
    notes: list[str] = []
    if not raw:
        notes.append(
            "no serve_http_npy_raw records — instrumentation overhead "
            "not measured in this payload"
        )
        return ObsGateReport(rows=rows, problems=problems, notes=notes)
    paired = 0
    for record in payload["records"]:
        if record["workload"] != "serve_http_npy":
            continue
        key = (record["n"], record["k"], record["jobs"])
        raw_wall = raw.get(key)
        if raw_wall is None:
            continue
        paired += 1
        row = ObsGateRow(
            int(record["n"]), int(record["jobs"]),
            float(record["wall_s"]), raw_wall,
        )
        rows.append(row)
        if row.n < min_n:
            notes.append(
                f"n={row.n:,}: below the gating floor ({min_n:,} rows) — "
                "fixed HTTP costs dominate, reporting only"
            )
            continue
        if row.overhead > max_overhead:
            problems.append(
                f"n={row.n:,} jobs={row.jobs}: instrumentation costs "
                f"{row.overhead * 100:.1f}% of the raw serving wall "
                f"(budget {max_overhead * 100:.0f}%) — the telemetry is "
                "no longer near-free"
            )
    if not paired:
        problems.append(
            "serve_http_npy_raw records present but none paired with a "
            "serve_http_npy record at the same (n, k, jobs)"
        )
    return ObsGateReport(rows=rows, problems=problems, notes=notes)


def render_obs_gate(report: ObsGateReport) -> str:
    """Human-readable instrumentation-overhead table + verdict."""
    from ..experiments.tables import format_table

    rows = [
        [
            f"{row.n:,}",
            str(row.jobs),
            f"{row.instrumented_wall_s * 1000:.1f}",
            f"{row.raw_wall_s * 1000:.1f}",
            f"{row.overhead * 100:+.1f}%",
        ]
        for row in report.rows
    ]
    table = format_table(
        ["n", "jobs", "instrumented ms", "raw ms", "overhead"],
        rows,
        title="Instrumentation overhead gate (serve_http_npy vs serve_http_npy_raw)",
    )
    lines = [table]
    lines.extend(f"  note: {note}" for note in report.notes)
    lines.extend(f"  GATE: {problem}" for problem in report.problems)
    lines.append(
        "observability gate passed" if report.ok else "observability gate FAILED"
    )
    return "\n".join(lines)


def render_comparison(comparison: BenchComparison) -> str:
    """Human-readable report (the ``repro bench compare`` output)."""
    from ..experiments.tables import format_table

    rows = []
    for row in comparison.rows:
        flag = "REGRESSED" if row.regressed(comparison.threshold) else "ok"
        rows.append(
            [
                row.workload,
                f"{row.n:,}",
                str(row.k),
                str(row.jobs),
                f"{row.baseline_rows_per_s / 1e6:.2f}",
                f"{row.current_rows_per_s / 1e6:.2f}",
                f"{row.ratio:.2f}x",
                flag,
            ]
        )
    table = format_table(
        ["workload", "n", "k", "jobs", "base M/s", "curr M/s", "ratio", "status"],
        rows,
        title=(
            f"Bench comparison: {comparison.suite} "
            f"(threshold {comparison.threshold:.2f})"
        ),
    )
    lines = [table]
    for label, keys in (
        ("only in baseline", comparison.only_baseline),
        ("only in current", comparison.only_current),
    ):
        for key in keys:
            lines.append(f"  [{label}] {dict(zip(KEY_FIELDS, key))}")
    count = len(comparison.regressions)
    if not comparison.rows:
        lines.append("no comparable records (nothing matched on workload/n/k/jobs)")
    elif count:
        lines.append(f"{count} regression(s) below threshold {comparison.threshold:.2f}")
    else:
        lines.append(f"all {len(comparison.rows)} matched records within threshold")
    return "\n".join(lines)
