"""The perf-trend comparer: matching, thresholds, asymmetric records."""

from __future__ import annotations

import json

import pytest

from repro.perf import (
    BenchRecord,
    backend_gate,
    bench_payload,
    compare_bench,
    compare_bench_files,
    fleet_gate,
    obs_gate,
    render_comparison,
    render_gate,
    write_bench,
)


def _payload(rows_per_s_by_key):
    """Bench payload with one record per (workload, jobs) -> rows/s."""
    records = [
        BenchRecord(workload, 1000, 5, jobs, 0.1, float(rate))
        for (workload, jobs), rate in rows_per_s_by_key.items()
    ]
    return bench_payload("assign", records)


def test_matched_records_and_ratio():
    baseline = _payload({("w", 1): 1000.0, ("w", 2): 2000.0})
    current = _payload({("w", 1): 1100.0, ("w", 2): 1900.0})
    comparison = compare_bench(baseline, current)
    assert comparison.ok
    assert [row.jobs for row in comparison.rows] == [1, 2]
    assert comparison.rows[0].ratio == pytest.approx(1.1)
    assert comparison.rows[1].ratio == pytest.approx(0.95)
    assert comparison.regressions == []


def test_regression_flagged_below_threshold():
    baseline = _payload({("w", 1): 1000.0})
    current = _payload({("w", 1): 800.0})
    comparison = compare_bench(baseline, current, threshold=0.9)
    assert not comparison.ok
    assert len(comparison.regressions) == 1
    assert comparison.regressions[0].ratio == pytest.approx(0.8)
    # The same pair is fine under a looser threshold.
    assert compare_bench(baseline, current, threshold=0.75).ok


def test_unmatched_records_reported_not_fatal():
    baseline = _payload({("old", 1): 1000.0, ("w", 1): 1000.0})
    current = _payload({("new", 1): 1000.0, ("w", 1): 1000.0})
    comparison = compare_bench(baseline, current)
    assert comparison.ok
    assert comparison.only_baseline == [("old", 1000, 5, 1)]
    assert comparison.only_current == [("new", 1000, 5, 1)]
    rendered = render_comparison(comparison)
    assert "only in baseline" in rendered and "only in current" in rendered


def test_nothing_matched_is_not_ok():
    comparison = compare_bench(
        _payload({("a", 1): 1.0}), _payload({("b", 1): 1.0})
    )
    assert not comparison.ok
    assert "no comparable records" in render_comparison(comparison)


def test_zero_baseline_never_regresses():
    baseline = _payload({("w", 1): 0.0})
    current = _payload({("w", 1): 5.0})
    comparison = compare_bench(baseline, current)
    assert comparison.rows[0].ratio == float("inf")
    assert comparison.ok


def test_cross_suite_comparison_labeled():
    baseline = _payload({("w", 1): 1.0})
    current = dict(_payload({("w", 1): 1.0}), suite="serve")
    assert compare_bench(baseline, current).suite == "assign vs serve"


def test_invalid_inputs_rejected():
    good = _payload({("w", 1): 1.0})
    with pytest.raises(ValueError, match="threshold"):
        compare_bench(good, good, threshold=0.0)
    with pytest.raises(ValueError, match="schema"):
        compare_bench({"schema": "other"}, good)


def test_compare_bench_files_round_trip(tmp_path):
    records = [BenchRecord("w", 10, 2, 1, 0.1, 100.0)]
    base = write_bench(tmp_path / "base.json", "assign", records)
    curr = write_bench(tmp_path / "curr.json", "assign", records)
    comparison = compare_bench_files(base, curr)
    assert comparison.ok and len(comparison.rows) == 1
    assert "1.00x" in render_comparison(comparison)


# --------------------------------------------------------------------- #
# The fleet scaling gate                                                  #
# --------------------------------------------------------------------- #


def _fleet_payload(single, ladder, *, cpu_count=8, n=1000):
    """Fleet payload: one single-server rate, {jobs: rate} fleet ladder."""
    records = [BenchRecord("serve_http_single", n, 5, 1, 0.1, float(single))]
    records += [
        BenchRecord(
            "fleet_http_npy", n, 5, jobs, 0.1, float(rate),
            extra={"cpu_count": cpu_count},
        )
        for jobs, rate in ladder.items()
    ]
    return bench_payload("fleet", records)


def test_fleet_gate_passes_on_real_scaling():
    report = fleet_gate(_fleet_payload(1000.0, {1: 900.0, 2: 1600.0, 4: 2800.0}))
    assert report.ok
    assert [row.ratio for row in report.rows] == pytest.approx([0.9, 1.6, 2.8])
    assert "fleet gate passed" in render_gate(report)


def test_fleet_gate_fails_when_fleet_is_a_tax():
    report = fleet_gate(_fleet_payload(1000.0, {1: 800.0, 2: 900.0}))
    assert not report.ok
    assert any("tax, not a multiplier" in p for p in report.problems)
    assert "fleet gate FAILED" in render_gate(report)


def test_fleet_gate_fails_when_scaling_is_not_monotone():
    # Top size clears the bar but the 2 -> 4 step collapses.
    report = fleet_gate(_fleet_payload(1000.0, {1: 900.0, 2: 2500.0, 4: 1100.0}))
    assert not report.ok
    assert any("not monotone" in p for p in report.problems)


def test_fleet_gate_tolerates_runner_noise():
    # A 5% dip between sizes is within the monotone tolerance.
    report = fleet_gate(_fleet_payload(1000.0, {1: 900.0, 2: 2000.0, 4: 1900.0}))
    assert report.ok


def test_fleet_gate_exempts_single_worker_fleet():
    # A 1-worker fleet is a failover device: reported, not gated.
    report = fleet_gate(_fleet_payload(1000.0, {1: 700.0}))
    assert report.ok
    assert report.rows[0].ratio == pytest.approx(0.7)


def test_fleet_gate_is_hardware_aware():
    # Single-core host: no fleet can multiply compute — note, don't fail.
    report = fleet_gate(
        _fleet_payload(1000.0, {1: 800.0, 2: 600.0}, cpu_count=1)
    )
    assert report.ok
    assert any("not enforceable" in note for note in report.notes)
    assert "note:" in render_gate(report)
    # Two cores, fleet of 4: gate on the largest size the cores support.
    report = fleet_gate(
        _fleet_payload(1000.0, {1: 900.0, 2: 1700.0, 4: 1500.0}, cpu_count=2)
    )
    assert report.ok  # the 2->4 drop beyond the cores is not a failure


def test_fleet_gate_requires_records():
    report = fleet_gate(
        bench_payload(
            "fleet", [BenchRecord("serve_http_single", 10, 2, 1, 0.1, 1.0)]
        )
    )
    assert not report.ok
    assert any("no fleet_http_npy records" in p for p in report.problems)

    missing_single = bench_payload(
        "fleet", [BenchRecord("fleet_http_npy", 10, 2, 2, 0.1, 1.0)]
    )
    report = fleet_gate(missing_single)
    assert not report.ok
    assert any("no serve_http_single baseline" in p for p in report.problems)


# --------------------------------------------------------------------- #
# The training-backend scaling gate                                       #
# --------------------------------------------------------------------- #


def _backend_payload(local, ladder, *, cpu_count=8, n=200_000):
    """Backend payload: one local jobs=1 rate, {jobs: rate} mp ladder."""
    records = [
        BenchRecord(
            "backend_local_fit", n, 5, 1, 0.1, float(local),
            extra={"backend": "local", "cpu_count": cpu_count},
        )
    ]
    records += [
        BenchRecord(
            "backend_multiprocess_fit", n, 5, jobs, 0.1, float(rate),
            extra={"backend": "multiprocess", "cpu_count": cpu_count},
        )
        for jobs, rate in ladder.items()
    ]
    return bench_payload("backend", records)


def test_backend_gate_passes_when_workers_multiply():
    report = backend_gate(
        _backend_payload(1000.0, {1: 800.0, 2: 1500.0, 4: 2600.0})
    )
    assert report.ok
    assert [row.ratio for row in report.rows] == pytest.approx([0.8, 1.5, 2.6])
    assert "backend gate passed" in render_gate(report)


def test_backend_gate_fails_when_backend_is_a_tax():
    report = backend_gate(_backend_payload(1000.0, {1: 700.0, 2: 900.0}))
    assert not report.ok
    assert any("tax, not a multiplier" in p for p in report.problems)
    assert "backend gate FAILED" in render_gate(report)


def test_backend_gate_reports_smoke_sizes_without_gating():
    # Below the floor IPC dominates: a "failing" speedup is a note only.
    report = backend_gate(_backend_payload(1000.0, {1: 400.0, 2: 600.0}, n=2000))
    assert report.ok
    assert len(report.rows) == 2
    assert any("below the gating floor" in note for note in report.notes)
    assert "note:" in render_gate(report)


def test_backend_gate_is_hardware_aware():
    # Single-core host: worker processes cannot multiply — note, not fail.
    report = backend_gate(
        _backend_payload(1000.0, {1: 700.0, 2: 500.0}, cpu_count=1)
    )
    assert report.ok
    assert any("not enforceable" in note for note in report.notes)
    # Two cores, ladder to 4: gate on the largest size the cores support.
    report = backend_gate(
        _backend_payload(1000.0, {1: 900.0, 2: 1700.0, 4: 900.0}, cpu_count=2)
    )
    assert report.ok


def test_backend_gate_requires_records():
    report = backend_gate(
        bench_payload(
            "backend", [BenchRecord("backend_local_fit", 10, 2, 1, 0.1, 1.0)]
        )
    )
    assert not report.ok
    assert any("no backend_multiprocess_fit records" in p for p in report.problems)


def test_backend_gate_requires_local_baseline():
    payload = bench_payload(
        "backend",
        [
            BenchRecord(
                "backend_multiprocess_fit", 200_000, 5, 2, 0.1, 1000.0,
                extra={"cpu_count": 8},
            )
        ],
    )
    report = backend_gate(payload)
    assert not report.ok
    assert any("no jobs=1 backend_local_fit baseline" in p for p in report.problems)


def test_fleet_and_backend_gates_pass_on_a_zero_baseline_rate():
    # A zero-wall baseline records 0 rows/s: every ratio is infinite,
    # which clears the speedup bar rather than dividing by zero.
    assert fleet_gate(_fleet_payload(0.0, {1: 900.0, 2: 1600.0})).ok
    assert backend_gate(_backend_payload(0.0, {1: 800.0, 2: 1500.0})).ok


# --------------------------------------------------------------------- #
# The instrumentation-overhead gate                                       #
# --------------------------------------------------------------------- #


def _serve_payload(walls, *, n=100_000, jobs=1):
    """Serve payload from {workload: wall_s} at one (n, k, jobs)."""
    records = [
        BenchRecord(workload, n, 5, jobs, float(wall), n / wall if wall else 0.0)
        for workload, wall in walls.items()
    ]
    return bench_payload("serve", records)


def test_obs_gate_passes_within_budget():
    report = obs_gate(
        _serve_payload({"serve_http_npy": 1.015, "serve_http_npy_raw": 1.0})
    )
    assert report.ok
    assert len(report.rows) == 1
    assert report.problems == [] and report.notes == []
    assert "observability gate passed" in render_gate(report)


def test_obs_gate_fails_above_budget():
    report = obs_gate(
        _serve_payload({"serve_http_npy": 1.03, "serve_http_npy_raw": 1.0})
    )
    assert not report.ok
    assert any("no longer near-free" in p for p in report.problems)
    assert "observability gate FAILED" in render_gate(report)


def test_obs_gate_reports_small_sizes_without_gating():
    report = obs_gate(
        _serve_payload(
            {"serve_http_npy": 2.0, "serve_http_npy_raw": 1.0}, n=20_000
        )
    )
    assert report.ok
    assert len(report.rows) == 1
    assert any("below the gating floor" in note for note in report.notes)
    assert "note:" in render_gate(report)


def test_obs_gate_notes_payload_without_raw_records():
    report = obs_gate(_serve_payload({"serve_http_npy": 1.0}))
    assert report.ok
    assert report.rows == []
    assert any("no serve_http_npy_raw records" in n for n in report.notes)


def test_obs_gate_requires_raw_records_to_pair():
    payload = _serve_payload({"serve_http_npy": 1.0})
    payload["records"].append(
        BenchRecord("serve_http_npy_raw", 100_000, 5, 2, 1.0, 1e5).to_dict()
    )
    report = obs_gate(payload)
    assert not report.ok
    assert any("none paired" in p for p in report.problems)


def test_obs_gate_passes_on_a_zero_raw_wall():
    report = obs_gate(
        _serve_payload({"serve_http_npy": 1.0, "serve_http_npy_raw": 0.0})
    )
    assert report.ok


# --------------------------------------------------------------------- #
# `repro bench compare` runs the current suite's gate                     #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    ("passing", "failing", "verdict"),
    [
        pytest.param(
            _fleet_payload(1000.0, {1: 900.0, 2: 1600.0}),
            _fleet_payload(1000.0, {1: 800.0, 2: 900.0}),
            "fleet gate",
            id="fleet",
        ),
        pytest.param(
            _backend_payload(1000.0, {1: 800.0, 2: 1500.0}),
            _backend_payload(1000.0, {1: 700.0, 2: 900.0}),
            "backend gate",
            id="backend",
        ),
        pytest.param(
            _serve_payload({"serve_http_npy": 1.01, "serve_http_npy_raw": 1.0}),
            _serve_payload({"serve_http_npy": 1.5, "serve_http_npy_raw": 1.0}),
            "observability gate",
            id="serve",
        ),
    ],
)
def test_cli_bench_compare_runs_the_suite_gate(
    tmp_path, capsys, passing, failing, verdict
):
    from repro.cli import main

    for name, payload in (("passing", passing), ("failing", failing)):
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    files = {name: str(tmp_path / f"{name}.json") for name in ("passing", "failing")}

    # Each file against itself: the rows/s comparison is clean, so the
    # exit status is the gate's verdict alone.
    assert main(["bench", "compare", files["passing"], files["passing"]]) == 0
    assert f"{verdict} passed" in capsys.readouterr().out
    assert main(["bench", "compare", files["failing"], files["failing"]]) == 1
    assert f"{verdict} FAILED" in capsys.readouterr().out
