"""CLI wiring for the serving subsystem: registry actions, bench compare."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import ClusterModel, RunConfig
from repro.cli import main
from repro.perf import BenchRecord, write_bench
from repro.serving import ModelRegistry


@pytest.fixture
def artifact(tmp_path):
    rng = np.random.default_rng(0)
    model = ClusterModel(rng.normal(size=(3, 4)), RunConfig(method="kmeans", k=3))
    return model.save(tmp_path / "artifact")


def test_registry_publish_list_rollback_prune(tmp_path, artifact, capsys):
    root = tmp_path / "registry"
    assert main(["registry", "publish", "--registry", str(root),
                 "--model", str(artifact), "--label", "one"]) == 0
    assert main(["registry", "publish", "--registry", str(root),
                 "--model", str(artifact)]) == 0
    assert main(["registry", "list", "--registry", str(root)]) == 0
    out = capsys.readouterr().out
    assert "v0001-one" in out and "v0002 *" in out

    assert main(["registry", "rollback", "--registry", str(root)]) == 0
    assert "LATEST -> v0001-one" in capsys.readouterr().out
    registry = ModelRegistry(root)
    assert registry.latest_version() == "v0001-one"

    assert main(["registry", "prune", "--registry", str(root),
                 "--retention", "1"]) == 0
    # v0002 is the newest, v0001-one is the LATEST target: both kept.
    assert registry.list_versions() == ["v0001-one", "v0002"]


def test_registry_publish_stage_only(tmp_path, artifact):
    root = tmp_path / "registry"
    assert main(["registry", "publish", "--registry", str(root),
                 "--model", str(artifact)]) == 0
    assert main(["registry", "publish", "--registry", str(root),
                 "--model", str(artifact), "--no-latest"]) == 0
    assert ModelRegistry(root).latest_version() == "v0001"


def test_registry_errors_exit_with_usage(tmp_path, capsys):
    root = tmp_path / "registry"
    with pytest.raises(SystemExit) as excinfo:
        main(["registry", "rollback", "--registry", str(root)])
    assert excinfo.value.code == 2
    assert "publish a model first" in capsys.readouterr().err


def test_serve_requires_exactly_one_source(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve"])
    assert excinfo.value.code == 2
    assert "exactly one of --registry or --model" in capsys.readouterr().err


def test_serve_rejects_empty_registry(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--registry", str(tmp_path / "empty")])
    assert excinfo.value.code == 2
    assert "publish a model first" in capsys.readouterr().err


def _bench_file(tmp_path, name, rows_per_s):
    records = [BenchRecord("w", 100, 5, 1, 0.5, float(rows_per_s))]
    return write_bench(tmp_path / name, "assign", records)


def test_bench_compare_cli_ok_and_regression(tmp_path, capsys):
    base = _bench_file(tmp_path, "base.json", 1000.0)
    same = _bench_file(tmp_path, "same.json", 990.0)
    slow = _bench_file(tmp_path, "slow.json", 500.0)

    assert main(["bench", "compare", str(base), str(same)]) == 0
    assert "within threshold" in capsys.readouterr().out

    assert main(["bench", "compare", str(base), str(slow)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out and "1 regression(s)" in out

    # A looser threshold lets the same pair pass.
    assert main(["bench", "compare", str(base), str(slow),
                 "--threshold", "0.4"]) == 0


def test_bench_compare_cli_argument_errors(tmp_path, capsys):
    base = _bench_file(tmp_path, "base.json", 1000.0)
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "compare", str(base)])
    assert excinfo.value.code == 2
    assert "exactly two files" in capsys.readouterr().err

    with pytest.raises(SystemExit):
        main(["bench", "compare", str(base), str(tmp_path / "missing.json")])

    (tmp_path / "bad.json").write_text(json.dumps({"schema": "other"}))
    with pytest.raises(SystemExit):
        main(["bench", "compare", str(base), str(tmp_path / "bad.json")])


def test_bench_run_rejects_compare_only_flags(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "serve", "--threshold", "0.5"])
    assert excinfo.value.code == 2
    assert "only for 'bench compare'" in capsys.readouterr().err


def test_fleet_status_reports_stale_state_file(tmp_path, capsys):
    """A fleet.json whose supervisor was SIGKILLed (all recorded PIDs
    dead) must produce a clear STALE report, not a raw connection error."""
    registry = tmp_path / "registry"
    state_dir = registry / ".fleet"
    state_dir.mkdir(parents=True)
    # Recently-exited PIDs are hard to fake portably; PID ranges well
    # above pid_max-as-configured are reliably dead on CI hosts.
    (state_dir / "fleet.json").write_text(json.dumps({
        "proxy_url": "http://127.0.0.1:1",  # reserved port: nothing listens
        "pid": 2 ** 22 + 1,
        "workers": [
            {"index": 0, "port": 1, "pid": 2 ** 22 + 2},
            {"index": 1, "port": 1, "pid": 2 ** 22 + 3},
        ],
    }))
    assert main(["fleet", "status", "--registry", str(registry)]) == 1
    err = capsys.readouterr().err
    assert "STALE" in err
    assert "fleet.json" in err
    assert "repro fleet up" in err


def test_fleet_status_live_pids_keep_the_connection_error(tmp_path, capsys):
    """If the recorded supervisor is alive, an unreachable proxy is a
    genuine connectivity problem and must stay a loud usage error."""
    import os

    registry = tmp_path / "registry"
    state_dir = registry / ".fleet"
    state_dir.mkdir(parents=True)
    (state_dir / "fleet.json").write_text(json.dumps({
        "proxy_url": "http://127.0.0.1:1",
        "pid": os.getpid(),  # very much alive
        "workers": [],
    }))
    with pytest.raises(SystemExit) as excinfo:
        main(["fleet", "status", "--registry", str(registry)])
    assert excinfo.value.code == 2
    assert "127.0.0.1:1" in capsys.readouterr().err
