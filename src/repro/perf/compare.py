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

The current file is also held to its suite's own bar, which needs no
baseline file: :func:`fleet_gate` (fleet), :func:`backend_gate`
(backend) and :func:`obs_gate` (serve) each return a
:class:`GateReport`, which :func:`render_gate` prints.
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


# --------------------------------------------------------------------- #
# Scaling and overhead gates: one payload against its own baselines       #
# --------------------------------------------------------------------- #

#: Fleet gate: the largest fleet that fits the cores must beat the single
#: server by this factor, and throughput may not fall below the tolerance
#: between consecutive fleet sizes (shared CI runners are noisy).
FLEET_GATE_MIN_SPEEDUP = 1.0
FLEET_GATE_MONOTONE_TOLERANCE = 0.9

#: Backend gate: multiprocess training must beat the single-process fit,
#: but only at sizes where compute outweighs IPC — CI smoke sizes
#: (thousands of rows) sit below the floor and are reported, not gated.
BACKEND_GATE_MIN_SPEEDUP = 1.0
BACKEND_GATE_MIN_N = 100_000

#: Observability gate: telemetry on the serving hot path must cost at
#: most this fraction of the uninstrumented wall time. Sizes below the
#: floor measure HTTP fixed costs, not the per-row instrumentation, and
#: are reported rather than gated.
OBS_GATE_MAX_OVERHEAD = 0.02
OBS_GATE_MIN_N = 50_000


@dataclass(frozen=True)
class GateRow:
    """One gated (n, worker count) point against its baseline.

    Fleet and backend rows hold rows/s, so the ratio is the speedup;
    observability rows hold wall seconds, instrumented over raw.
    """

    n: int
    jobs: int
    baseline: float
    current: float

    @property
    def ratio(self) -> float:
        """current / baseline (∞ when the baseline is 0)."""
        if self.baseline <= 0:
            return float("inf")
        return self.current / self.baseline


@dataclass
class GateReport:
    """One gate's verdict on one suite payload.

    ``problems`` fail the gate; ``notes`` name what was measured but not
    held to the bar (undersized, or more workers than the host's cores).
    """

    gate: str
    rows: list[GateRow] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


#: A (jobs, rows/s) worker-count ladder, sorted by jobs.
Ladder = list[tuple[int, float]]


def _ladders(
    payload: dict[str, Any], workload: str
) -> tuple[dict[int, tuple[Ladder, Ladder]], int | None]:
    """Per n, *workload*'s ladder and the part of it that fits the
    recording host's cores; plus that ``cpu_count`` (from ``extra``).

    Worker processes beyond the cores cannot add compute, so the gates
    hold only the fitting part to their bars.
    """
    ladders: dict[int, Ladder] = {}
    cpu_count: int | None = None
    for record in payload["records"]:
        if record["workload"] == workload:
            ladders.setdefault(record["n"], []).append(
                (int(record["jobs"]), float(record["rows_per_s"]))
            )
            cores = record.get("extra", {}).get("cpu_count")
            if isinstance(cores, int) and cores > 0:
                cpu_count = cores
    split = {}
    for n in sorted(ladders):
        ladder = sorted(ladders[n])
        fits = [(j, r) for j, r in ladder if cpu_count is None or j <= cpu_count]
        split[n] = (ladder, fits)
    return split, cpu_count


def fleet_gate(payload: dict[str, Any]) -> GateReport:
    """Check that the fleet multiplies throughput instead of taxing it.

    For every batch size *n* in a fleet suite payload, the
    ``fleet_http_npy`` speedup over the same-*n* ``serve_http_single``
    record must

    * be **> FLEET_GATE_MIN_SPEEDUP at the largest fleet size** — the
      fleet's whole reason to exist (a 1-worker fleet is a failover
      device and pays the proxy hop, so it is reported but not held to
      the bar), and
    * be **monotone in worker count** up to
      ``FLEET_GATE_MONOTONE_TOLERANCE`` — adding a worker process may
      never cost throughput.

    Both bars are **hardware-aware**: fleet records carry the recording
    host's ``cpu_count`` in ``extra``, so the bars apply up to the
    largest fleet size **that fits the cores**. On a single-core host
    neither bar is enforceable (every extra process is pure
    context-switch tax) — the report then carries a note instead of a
    failure, and CI's multi-core runners remain where the gate bites.
    """
    validate_bench(payload)
    singles = {
        r["n"]: float(r["rows_per_s"])
        for r in payload["records"]
        if r["workload"] == "serve_http_single"
    }
    ladders, cpu_count = _ladders(payload, "fleet_http_npy")
    report = GateReport("fleet")
    if not ladders:
        report.problems.append("no fleet_http_npy records to gate on")
    for n, (ladder, gated) in ladders.items():
        single = singles.get(n)
        if single is None:
            report.problems.append(f"n={n}: no serve_http_single baseline record")
            continue
        report.rows.extend(GateRow(n, jobs, single, rate) for jobs, rate in ladder)
        if len(gated) <= 1 and len(gated) < len(ladder):
            report.notes.append(
                f"n={n}: host has {cpu_count} core(s) — fleet scaling is "
                "not enforceable on this machine, reporting only"
            )
            continue
        if len(gated) > 1:
            top_jobs, top_rate = gated[-1]
            top_speedup = GateRow(n, top_jobs, single, top_rate).ratio
            if top_speedup <= FLEET_GATE_MIN_SPEEDUP:
                report.problems.append(
                    f"n={n}: fleet of {top_jobs} reaches only "
                    f"{top_speedup:.2f}x the single server (need > "
                    f"{FLEET_GATE_MIN_SPEEDUP:.2f}x) — the fleet is a tax, "
                    "not a multiplier"
                )
        for (jobs_a, rate_a), (jobs_b, rate_b) in zip(gated, gated[1:]):
            if rate_b < FLEET_GATE_MONOTONE_TOLERANCE * rate_a:
                report.problems.append(
                    f"n={n}: throughput fell from {rate_a / 1e6:.2f} M/s at "
                    f"{jobs_a} worker(s) to {rate_b / 1e6:.2f} M/s at "
                    f"{jobs_b} — scaling is not monotone"
                )
    return report


def backend_gate(payload: dict[str, Any]) -> GateReport:
    """Check that the multiprocess backend buys wall-clock, not just IPC.

    For every size *n* in a backend suite payload, the
    ``backend_multiprocess_fit`` speedup over the same-*n* jobs=1
    ``backend_local_fit`` record must be **> BACKEND_GATE_MIN_SPEEDUP
    at the largest worker count that fits the cores** — shipping shards
    to worker processes has to beat scoring them in-process, or the
    backend is pure overhead. A single-core host gets a note instead of
    a failure, as in :func:`fleet_gate`. Sizes below
    ``BACKEND_GATE_MIN_N`` (CI smoke runs) are reported but not gated:
    at a few thousand rows the per-shard pickling round trip dominates
    the arithmetic it ships.
    """
    validate_bench(payload)
    locals_ = {
        r["n"]: float(r["rows_per_s"])
        for r in payload["records"]
        if r["workload"] == "backend_local_fit" and r["jobs"] == 1
    }
    ladders, cpu_count = _ladders(payload, "backend_multiprocess_fit")
    report = GateReport("backend")
    if not ladders:
        report.problems.append("no backend_multiprocess_fit records to gate on")
    for n, (ladder, gated) in ladders.items():
        local = locals_.get(n)
        if local is None:
            report.problems.append(f"n={n}: no jobs=1 backend_local_fit baseline record")
            continue
        report.rows.extend(GateRow(n, jobs, local, rate) for jobs, rate in ladder)
        if n < BACKEND_GATE_MIN_N:
            report.notes.append(
                f"n={n:,}: below the gating floor ({BACKEND_GATE_MIN_N:,} rows) "
                "— IPC dominates at smoke sizes, reporting only"
            )
            continue
        if not any(jobs > 1 for jobs, _ in gated):
            report.notes.append(
                f"n={n:,}: host has {cpu_count} core(s) — multiprocess "
                "scaling is not enforceable on this machine, reporting only"
            )
            continue
        top_jobs, top_rate = gated[-1]
        top_speedup = GateRow(n, top_jobs, local, top_rate).ratio
        if top_speedup <= BACKEND_GATE_MIN_SPEEDUP:
            report.problems.append(
                f"n={n:,}: {top_jobs} worker process(es) reach only "
                f"{top_speedup:.2f}x the single-process fit (need > "
                f"{BACKEND_GATE_MIN_SPEEDUP:.2f}x) — the backend is a tax, "
                "not a multiplier"
            )
    return report


def obs_gate(payload: dict[str, Any]) -> GateReport:
    """Check that telemetry is near-free on the serving fast path.

    Pairs each ``serve_http_npy`` record (metrics on, the default) with
    the same-(n, k, jobs) ``serve_http_npy_raw`` record (a second
    server with ``metrics=False``) and requires the instrumented wall
    time to stay within ``OBS_GATE_MAX_OVERHEAD`` of the raw one.
    Below ``OBS_GATE_MIN_N`` the measurement is dominated by fixed HTTP
    costs, so undersized rows are notes, not problems. A payload with no
    raw records (an old bench file) gets a note, not a failure.
    """
    validate_bench(payload)
    raw = {
        (r["n"], r["k"], r["jobs"]): float(r["wall_s"])
        for r in payload["records"]
        if r["workload"] == "serve_http_npy_raw"
    }
    report = GateReport("observability")
    if not raw:
        report.notes.append(
            "no serve_http_npy_raw records — instrumentation overhead "
            "not measured in this payload"
        )
        return report
    for record in payload["records"]:
        if record["workload"] != "serve_http_npy":
            continue
        raw_wall = raw.get((record["n"], record["k"], record["jobs"]))
        if raw_wall is None:
            continue
        row = GateRow(
            int(record["n"]), int(record["jobs"]), raw_wall, float(record["wall_s"])
        )
        report.rows.append(row)
        if row.n < OBS_GATE_MIN_N:
            report.notes.append(
                f"n={row.n:,}: below the gating floor ({OBS_GATE_MIN_N:,} rows) "
                "— fixed HTTP costs dominate, reporting only"
            )
            continue
        # A zero raw wall measured nothing: no overhead to hold to the bar.
        overhead = row.ratio - 1.0 if raw_wall > 0 else 0.0
        if overhead > OBS_GATE_MAX_OVERHEAD:
            report.problems.append(
                f"n={row.n:,} jobs={row.jobs}: instrumentation costs "
                f"{overhead * 100:.1f}% of the raw serving wall "
                f"(budget {OBS_GATE_MAX_OVERHEAD * 100:.0f}%) — the telemetry "
                "is no longer near-free"
            )
    if not report.rows:
        report.problems.append(
            "serve_http_npy_raw records present but none paired with a "
            "serve_http_npy record at the same (n, k, jobs)"
        )
    return report


#: Each gate's table: title, the baseline and current column headers,
#: and the scale from the rows' units (rows/s, s) to the shown ones.
_GATE_TABLES = {
    "fleet": (
        "Fleet scaling gate (fleet_http_npy vs serve_http_single)",
        "single M/s", "fleet M/s", 1e-6,
    ),
    "backend": (
        "Backend scaling gate (backend_multiprocess_fit vs backend_local_fit)",
        "local M/s", "multiproc M/s", 1e-6,
    ),
    "observability": (
        "Instrumentation overhead gate (serve_http_npy vs serve_http_npy_raw)",
        "raw ms", "instrumented ms", 1e3,
    ),
}


def render_gate(report: GateReport) -> str:
    """Human-readable gate table, notes, problems and verdict line."""
    from ..experiments.tables import format_table

    title, baseline, current, scale = _GATE_TABLES[report.gate]
    rows = [
        [
            f"{row.n:,}",
            str(row.jobs),
            f"{row.baseline * scale:.2f}",
            f"{row.current * scale:.2f}",
            f"{row.ratio:.2f}x",
        ]
        for row in report.rows
    ]
    lines = [format_table(["n", "workers", baseline, current, "ratio"], rows, title=title)]
    lines.extend(f"  note: {note}" for note in report.notes)
    lines.extend(f"  GATE: {problem}" for problem in report.problems)
    lines.append(f"{report.gate} gate {'passed' if report.ok else 'FAILED'}")
    return "\n".join(lines)
