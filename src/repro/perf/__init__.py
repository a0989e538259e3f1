"""Machine-readable performance harness.

:mod:`repro.perf.harness` runs the assignment/serving/fleet/backend
benchmark suites across worker counts (the fleet and backend suites'
``jobs`` column counts worker *processes*) and emits schema-validated
``BENCH_*.json`` files, so the perf trajectory of the repo is recorded
as data instead of ad-hoc text; :mod:`repro.perf.compare` diffs two
such records, flags rows/s regressions and holds the current record to
its suite's gate — fleet scaling, training-backend scaling or serving
instrumentation overhead (``repro bench compare``, nonzero exit for
CI). ``repro bench`` (or ``python -m repro bench``, which needs no
install) is the entry point.
"""

from .compare import (
    BenchComparison,
    ComparisonRow,
    GateReport,
    GateRow,
    backend_gate,
    compare_bench,
    compare_bench_files,
    fleet_gate,
    obs_gate,
    render_comparison,
    render_gate,
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
    "BenchComparison",
    "BenchRecord",
    "ComparisonRow",
    "GateReport",
    "GateRow",
    "backend_gate",
    "bench_payload",
    "compare_bench",
    "compare_bench_files",
    "fleet_gate",
    "obs_gate",
    "render_bench",
    "render_comparison",
    "render_gate",
    "run_bench",
    "validate_bench",
    "write_bench",
]
