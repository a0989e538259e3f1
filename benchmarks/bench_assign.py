"""Assignment-service throughput: rows/second at serving scale.

Measures :class:`repro.api.Assigner` — the hot loop behind
``ClusterModel.assign`` and ``repro predict`` — on an Adult-shaped
problem (n = 10⁵ by default, d = 14, k = 15) across chunk sizes, and
checks that chunking never changes the labels.

Measurements go through the :mod:`repro.perf.harness` emitter: the
machine-readable record is ``results/BENCH_assign_chunks.json`` and the
human-readable ``results/assign_throughput.txt`` is rendered *from* that
JSON (one code path, two formats). Assignment is serial, so the
chunk size is its only axis; every record is at jobs=1. The HTTP
serving ceiling is ``repro bench serve``'s ``assign_inprocess`` record.

Runs standalone (no pytest needed), which is how CI smoke-invokes it::

    PYTHONPATH=src python benchmarks/bench_assign.py --smoke
    PYTHONPATH=src python benchmarks/bench_assign.py --n 1000000
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.api import Assigner
from repro.experiments.paper import write_result
from repro.perf.harness import BenchRecord, bench_payload, render_bench, write_bench

CHUNK_SIZES = (256, 1024, 8192, 65536)


def run(n: int, d: int, k: int, repeats: int) -> list[BenchRecord]:
    rng = np.random.default_rng(0)
    centers = rng.normal(size=(k, d)) * 2.0
    points = rng.normal(size=(n, d))
    service = Assigner(centers)

    baseline = service.assign(points)
    records = []
    for chunk in CHUNK_SIZES:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            labels = service.assign(points, chunk_size=chunk)
            best = min(best, time.perf_counter() - start)
        if not np.array_equal(labels, baseline):
            raise AssertionError(f"chunk_size={chunk} changed the assignment")
        records.append(
            BenchRecord(
                f"assign[chunk={chunk}]", n, k, 1,
                best, n / best if best > 0 else 0.0,
                extra={"d": d, "chunk_size": chunk},
            )
        )
    # The schema's speedup field means "vs the jobs=1 record of the same
    # workload" — each chunk size here IS its own jobs=1 baseline, so
    # speedup stays 1.0 and the cross-chunk ratio goes into extra.
    base = records[0].wall_s
    for record in records:
        if record.wall_s > 0:
            record.extra["vs_smallest_chunk"] = round(base / record.wall_s, 4)
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100_000, help="rows to assign")
    parser.add_argument("--d", type=int, default=14, help="feature dimensionality")
    parser.add_argument("--k", type=int, default=15, help="number of centers")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best wins)")
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny fast run (CI): n=20000, one repeat",
    )
    args = parser.parse_args(argv)
    n, repeats = (20_000, 1) if args.smoke else (args.n, args.repeats)
    records = run(n, args.d, args.k, repeats)
    from repro.experiments.paper import RESULTS_DIR

    path = write_bench(RESULTS_DIR / "BENCH_assign_chunks.json", "assign_chunks", records)
    table = render_bench(bench_payload("assign_chunks", records))
    print(table)
    write_result("assign_throughput.txt", table)
    print(f"records: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
