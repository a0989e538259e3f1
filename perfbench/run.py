"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fit_exact_adult --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics and the tracing overhead. Metric names and units come from
``BENCHMARK.json``. Details of the run (host fingerprint, seed, check
failures, leaks) are printed as one JSON line before the result, and
the last line is the result object. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from typing import Any

from common import ROOT, BenchError, host_fingerprint, leaks, require_program, shm_segments

WORKLOADS = ("fit_exact_adult", "fit_minibatch_adult", "serve_fleet_mixed")


def _interrupt(signum: int, frame: Any) -> None:
    raise KeyboardInterrupt(f"signal {signum}")


def declared_metrics(trace: bool) -> dict[str, str]:
    """``name -> unit`` of the metrics ``BENCHMARK.json`` asks for."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict[str, Any]:
    if workload == "serve_fleet_mixed":
        import serve

        return serve.run(seed, seconds, trace, tiny)
    import fits

    return fits.run(workload, seed, seconds, trace, tiny)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (self-test only; numbers are not comparable)")
    args = parser.parse_args(argv)

    try:
        declared = declared_metrics(bool(args.trace))
        require_program()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.environ.pop("REPRO_TRACE_SINK", None)
    signal.signal(signal.SIGTERM, _interrupt)

    shm_before = shm_segments()
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    leaked = outcome.get("leaked", []) + leaks(shm_before, outcome.get("pids", []))
    attempted = outcome["attempted"] + 1  # the teardown is one more operation
    failed = outcome["failed"] + (1 if leaked else 0)

    measured: dict[str, float] = outcome["metrics"]
    metrics: dict[str, dict[str, Any]] = {}
    missing = []
    for name, unit in declared.items():
        if name in measured:
            metrics[name] = {"value": float(measured[name]), "unit": unit}
        elif args.trace:
            # A layer this workload does not exercise did no work.
            metrics[name] = {"value": 0.0, "unit": unit}
        else:
            missing.append(name)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "host": host_fingerprint(),
        "details": outcome["details"],
        "problems": outcome["problems"],
        "leaks": leaked,
        "missing": missing,
        "undeclared": sorted(set(measured) - set(declared)),
    }
    print(json.dumps(record, sort_keys=True, default=str), flush=True)
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
