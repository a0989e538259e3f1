"""Machine-readable performance harness.

:mod:`repro.perf.harness` runs the engine/assignment/serving/fleet/
backend benchmark suites across worker counts (the fleet and backend
suites' ``jobs`` column counts worker *processes*) and emits
schema-validated ``BENCH_*.json`` files, so the perf trajectory of the
repo is recorded as data instead of ad-hoc text;
:mod:`repro.perf.compare` diffs two such records, flags rows/s
regressions and gates fleet and training-backend scaling
(``repro bench compare``, nonzero exit for CI);
:mod:`repro.perf.actions` fetches the previous CI run's bench artifact
so the gate tracks the real trajectory instead of same-run noise.
``repro bench`` (or ``python -m repro bench``, which needs no install)
is the entry point.
"""

from .actions import DEFAULT_ARTIFACT_NAME, fetch_baseline, select_artifact
from .compare import (
    BackendGateReport,
    BackendGateRow,
    BenchComparison,
    ComparisonRow,
    FleetGateReport,
    FleetGateRow,
    backend_gate,
    compare_bench,
    compare_bench_files,
    fleet_gate,
    render_backend_gate,
    render_comparison,
    render_fleet_gate,
)
from .harness import (
    BENCH_SCHEMA,
    BenchRecord,
    bench_payload,
    render_bench,
    run_bench,
    validate_bench,
    write_bench,
)

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_ARTIFACT_NAME",
    "BackendGateReport",
    "BackendGateRow",
    "BenchComparison",
    "BenchRecord",
    "ComparisonRow",
    "FleetGateReport",
    "FleetGateRow",
    "backend_gate",
    "bench_payload",
    "compare_bench",
    "compare_bench_files",
    "fetch_baseline",
    "fleet_gate",
    "render_backend_gate",
    "render_bench",
    "render_comparison",
    "render_fleet_gate",
    "run_bench",
    "select_artifact",
    "validate_bench",
    "write_bench",
]
