"""The benchmark harness: schema validation, suites, CLI wiring."""

from __future__ import annotations

import json

import pytest

from repro.perf import (
    BenchRecord,
    bench_payload,
    render_bench,
    validate_bench,
    write_bench,
)
from repro.perf.harness import (
    bench_backend,
    bench_fleet,
    bench_serve,
    job_ladder,
)


def _record(**overrides):
    base = dict(
        workload="w", n=100, k=5, jobs=1, wall_s=0.5, rows_per_s=200.0, speedup=1.0
    )
    base.update(overrides)
    return base


def _payload(records=None):
    return {
        "schema": "repro.bench/v1",
        "suite": "engine",
        "records": records if records is not None else [_record()],
    }


def test_validate_accepts_well_formed_payload():
    validate_bench(_payload())
    validate_bench(_payload([_record(extra={"n_iter": 3})]))


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda p: p.pop("schema"), "schema"),
        (lambda p: p.update(schema="repro.bench/v2"), "schema"),
        (lambda p: p.update(suite=""), "suite"),
        (lambda p: p.update(records=[]), "non-empty"),
        (lambda p: p["records"][0].pop("wall_s"), "wall_s"),
        (lambda p: p["records"][0].update(jobs="four"), "jobs"),
        (lambda p: p["records"][0].update(jobs=True), "jobs"),
        (lambda p: p["records"][0].update(wall_s=-1.0), "wall_s"),
        (lambda p: p["records"][0].update(surprise=1), "unknown"),
        (lambda p: p["records"][0].update(extra=[1]), "extra"),
    ],
)
def test_validate_rejects_malformed_payloads(mutate, match):
    payload = _payload()
    mutate(payload)
    with pytest.raises(ValueError, match=match):
        validate_bench(payload)


def test_job_ladder():
    assert job_ladder(1) == (1,)
    assert job_ladder(2) == (1, 2)
    assert job_ladder(4) == (1, 2, 4)
    assert job_ladder(6) == (1, 2, 4, 6)
    assert job_ladder(8) == (1, 2, 4, 8)


def test_write_bench_round_trips(tmp_path):
    records = [BenchRecord("w", 10, 2, 1, 0.1, 100.0)]
    path = write_bench(tmp_path / "BENCH_x.json", "engine", records)
    payload = json.loads(path.read_text())
    validate_bench(payload)
    assert payload["records"][0]["workload"] == "w"
    assert "extra" not in payload["records"][0]  # empty extra elided
    assert "repro.bench/v1" in render_bench(payload)


def test_bench_serve_measures_http_against_in_process(tmp_path):
    """The serve suite records HTTP rows/s next to the in-process ceiling."""
    records = bench_serve((2_000,), repeats=1)
    validate_bench(bench_payload("serve", records))
    workloads = {r.workload for r in records}
    assert workloads == {
        "assign_inprocess",
        "serve_http_npy",
        "serve_http_json",
        "serve_http_npy_raw",
    }
    assert all(r.rows_per_s > 0 for r in records)
    # The HTTP hop can only cost throughput, never create it.
    by_workload = {r.workload: r for r in records}
    assert (
        by_workload["serve_http_npy"].wall_s
        >= by_workload["assign_inprocess"].wall_s
    )
    # The instrumented/raw pair feeds the observability overhead gate.
    assert by_workload["serve_http_npy"].extra["obs_overhead_ratio"] > 0
    assert by_workload["serve_http_npy_raw"].extra["instrumentation"] == "off"


def test_bench_fleet_measures_processes_against_in_process(tmp_path):
    """The fleet suite spawns a real worker fleet and validates bits."""
    records = bench_fleet((2_000,), (1, 2), repeats=1)
    validate_bench(bench_payload("fleet", records))
    by_key = {(r.workload, r.jobs) for r in records}
    assert ("assign_inprocess", 1) in by_key
    assert ("serve_http_single", 1) in by_key
    assert ("fleet_http_npy", 1) in by_key and ("fleet_http_npy", 2) in by_key
    assert all(r.rows_per_s > 0 for r in records)
    # jobs counts fleet processes; the jobs=1 fleet is its own baseline.
    fleet_base = next(
        r for r in records if r.workload == "fleet_http_npy" and r.jobs == 1
    )
    assert fleet_base.speedup == 1.0
    # The gate needs to know the recording host's core budget.
    assert all(
        r.extra["cpu_count"] >= 1
        for r in records
        if r.workload == "fleet_http_npy"
    )
    # The payload-size sweep records the wire's bytes/s ceiling.
    sweep = [r for r in records if r.workload == "fleet_stream_scatter"]
    assert {r.jobs for r in sweep} == {1, 2}
    assert {r.n for r in sweep} == {250, 1000, 2000}
    for r in sweep:
        assert r.extra["payload_bytes"] > 0
        assert r.extra["bytes_per_s"] > 0


def test_cli_bench_smoke_writes_validated_files(tmp_path, capsys):
    """`repro bench --smoke` emits BENCH_*.json that pass the validator."""
    from repro.cli import main

    assert main(["bench", "backend", "--smoke", "--workers", "2",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "BENCH_backend.json" in out
    payload = json.loads((tmp_path / "BENCH_backend.json").read_text())
    validate_bench(payload)
    assert payload["suite"] == "backend"
    jobs = {r["jobs"] for r in payload["records"]}
    assert jobs == {1, 2}


def test_bench_backend_measures_multiprocess_against_local():
    records = bench_backend((600,), (1, 2), max_iter=3, batch_size=560)
    by_key = {(r.workload, r.jobs) for r in records}
    assert ("backend_local_fit", 1) in by_key
    assert ("backend_multiprocess_fit", 1) in by_key
    assert ("backend_multiprocess_fit", 2) in by_key
    assert all(r.rows_per_s > 0 for r in records)
    # speedup is anchored at the single-process *local* fit, the
    # question the suite answers — not each workload's own baseline.
    local = next(r for r in records if r.workload == "backend_local_fit")
    assert local.speedup == 1.0
    for r in records:
        assert r.extra["cpu_count"] >= 1
        assert r.extra["backend"] in ("local", "multiprocess")
