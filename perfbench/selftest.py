"""Self-test of the benchmark at a tiny size.

Runs every workload, untraced and traced, on shrunken inputs, and checks
that each run passes its own correctness gates, leaks nothing, and
prints exactly the metric names and units ``BENCHMARK.json`` declares.
It also checks ``BENCHMARK.json`` against the benchmark contract and
that the runner refuses to run without the program's source. Usage,
from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

from common import BENCH_DIR, ROOT, WORK_ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_spec(spec: dict) -> list[str]:
    """Violations of the benchmark contract's shape rules."""
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        errors.append(f"top-level keys {sorted(spec)} != {sorted(keys)}")
    if not 1 <= len(spec["paths"]) <= 16 or not all(
        PATH.match(p) and ".." not in p.split("/") for p in spec["paths"]
    ):
        errors.append("bad paths")
    command = spec["command"]
    if not 1 <= len(command) <= 32 or any(len(c) > 200 or c.startswith("/") for c in command):
        errors.append("bad command")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        errors.append("run_seconds must be a whole number from 1 to 60")
    if not 2 <= len(spec["workloads"]) <= 8:
        errors.append("need 2 to 8 workloads")
    names: list[str] = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"bad workload entry {w}")
        names.append(w["name"])
    for group, limit in (("end_to_end", 16), ("per_layer", 128)):
        entries = spec[group]
        if not 1 <= len(entries) <= limit:
            errors.append(f"{group}: need 1 to {limit} metrics")
        for m in entries:
            want = {"name", "unit", "better", "bound"} if group == "end_to_end" else {"name", "unit", "better"}
            if set(m) != want:
                errors.append(f"{group}: keys of {m.get('name')} are {sorted(m)}")
            if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
                errors.append(f"{group}: bad unit/better on {m['name']}")
            if group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                errors.append(f"bound of {m['name']} must be in (0, 0.25]")
            names.append(m["name"])
    bad = [n for n in names if not NAME.match(n)]
    if bad:
        errors.append(f"bad names {bad}")
    if len(names) != len(set(names)):
        errors.append("names are not unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s (s, lower) is required")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        errors.append("setup_s should carry the largest bound")
    if len(json.dumps(spec)) > 64 * 1024:
        errors.append("BENCHMARK.json is over 64 KiB")
    return errors


def run_tiny(workload: str, trace: int, cwd: Path) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "4", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    code, lines = run_tiny(workload, trace, ROOT)
    where = f"{workload} --trace {trace}"
    if code != 0 or not lines:
        return [f"{where}: exit {code}"]
    result = json.loads(lines[-1])
    record = json.loads(lines[-2]) if len(lines) > 1 else {}
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')} "
                      f"problems={record.get('problems')} leaks={record.get('leaks')}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    if printed != declared:
        errors.append(f"{where}: printed metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(declared) - set(printed))}, "
                      f"extra {sorted(set(printed) - set(declared))}")
    if record.get("undeclared"):
        errors.append(f"{where}: measured but undeclared {record['undeclared']}")
    for name, m in result.get("metrics", {}).items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} is not a finite number")
        elif not trace and value <= 0:
            errors.append(f"{where}: end-to-end {name} is {value}")
    for key in ("host", "seed"):
        if key not in record:
            errors.append(f"{where}: run record lacks {key}")
    return errors


def check_refuses_without_program() -> list[str]:
    """In a directory with only BENCHMARK.json and perfbench/, the runner fails."""
    bare = WORK_ROOT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        code, lines = run_tiny("fit_exact_adult", 0, bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith('{"correct"') for line in lines):
        return ["runner did not refuse a checkout without the program"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_spec(spec)
    errors += check_refuses_without_program()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_result(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            errors += found
    for error in errors:
        print(f"selftest: {error}", file=sys.stderr)
    print("selftest passed" if not errors else f"selftest failed ({len(errors)} problems)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
