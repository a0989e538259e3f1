"""Backend protocol, worker-spec validation, and the RunConfig execution spec."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.api import BACKENDS, ClusterModel, RunConfig, fit
from repro.backend import (
    BACKEND_NAMES,
    Backend,
    LocalBackend,
    MultiprocessBackend,
    make_backend,
)
from repro.core import CategoricalSpec, MiniBatchFairKM, NumericSpec
from repro.core.parallel import (
    CORE_BUDGET_ENV,
    core_budget,
    resolve_workers,
    validate_workers,
)
from repro.core.state import ClusterState


def _problem(n=400, dim=5, k=3, seed=0):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dim))
    cats = [CategoricalSpec("g", rng.integers(0, 3, n), n_values=3)]
    nums = [NumericSpec("z", rng.normal(size=n))]
    return points, cats, nums, k


def _state(n=120, dim=4, k=3, seed=0):
    points, cats, nums, k = _problem(n, dim, k, seed)
    labels = np.random.default_rng(seed + 1).integers(0, k, n)
    return ClusterState(points, labels, k, cats, nums)


# --------------------------------------------------------------------- #
# The shared worker-count domain                                          #
# --------------------------------------------------------------------- #


def test_validate_workers_accepts_the_domain():
    assert validate_workers(None) == 1
    assert validate_workers(1) == 1
    assert validate_workers(7) == 7
    assert validate_workers(-1) == -1
    assert validate_workers("auto") == "auto"
    assert validate_workers(np.int64(3)) == 3


@pytest.mark.parametrize("bad", [0, -2, 2.5, True, False, "3", "many", [2]])
def test_validate_workers_rejects_everything_else(bad):
    with pytest.raises((ValueError, TypeError), match="workers"):
        validate_workers(bad)


def test_validate_workers_errors_name_the_caller_field():
    with pytest.raises(ValueError, match="serve_workers"):
        validate_workers(0, field="serve_workers")
    with pytest.raises(ValueError, match="serve_workers"):
        validate_workers(2.5, field="serve_workers")


def test_core_budget_honors_the_env_cap(monkeypatch):
    monkeypatch.delenv(CORE_BUDGET_ENV, raising=False)
    assert core_budget() == (os.cpu_count() or 1)
    monkeypatch.setenv(CORE_BUDGET_ENV, "1")
    assert core_budget() == 1
    # The cap never raises the detected count.
    monkeypatch.setenv(CORE_BUDGET_ENV, "100000")
    assert core_budget() == (os.cpu_count() or 1)
    monkeypatch.setenv(CORE_BUDGET_ENV, "zero")
    with pytest.raises(ValueError, match=CORE_BUDGET_ENV):
        core_budget()
    monkeypatch.setenv(CORE_BUDGET_ENV, "0")
    with pytest.raises(ValueError, match=CORE_BUDGET_ENV):
        core_budget()


def test_resolve_workers_honors_auto_and_budget(monkeypatch):
    monkeypatch.setenv(CORE_BUDGET_ENV, "2")
    assert resolve_workers("auto") == min(2, os.cpu_count() or 1)
    assert resolve_workers(-1) == min(2, os.cpu_count() or 1)
    assert resolve_workers(None) == 1
    assert resolve_workers(5) == 5


# --------------------------------------------------------------------- #
# make_backend and the protocol invariants                                #
# --------------------------------------------------------------------- #


def test_make_backend_resolves_every_registered_name():
    assert BACKEND_NAMES == BACKENDS  # api mirror stays in sync
    assert isinstance(make_backend(None), LocalBackend)
    assert isinstance(make_backend("local"), LocalBackend)
    assert isinstance(make_backend("multiprocess"), MultiprocessBackend)
    with pytest.raises(ValueError, match="remote training backend was removed.*'local' or"):
        make_backend("remote")
    assert make_backend("local", 1).workers == 1
    assert make_backend("multiprocess", 3).workers == 3


def test_make_backend_passes_instances_through():
    backend = MultiprocessBackend(2)
    assert make_backend(backend) is backend
    with pytest.raises(ValueError, match="constructed Backend instance"):
        make_backend(backend, workers=4)


def test_make_backend_rejects_unknown_specs():
    with pytest.raises(ValueError, match="backend must be one of"):
        make_backend("gpu")


def test_shard_partition_depends_only_on_size():
    indices = np.arange(10, 35)
    for workers in (1, 2, 8):
        shards = Backend(workers).shard(indices, 7)
        assert [s.tolist() for s in shards] == [
            list(range(10, 17)),
            list(range(17, 24)),
            list(range(24, 31)),
            list(range(31, 35)),
        ]
    with pytest.raises(ValueError, match="rows_per_shard"):
        Backend().shard(indices, 0)


def test_merge_stats_preserves_shard_order():
    parts = [np.full((2, 3), i, dtype=float) for i in range(4)]
    merged = Backend().merge_stats(parts)
    assert merged.shape == (8, 3)
    assert np.array_equal(merged[::2, 0], np.arange(4))


def test_local_backend_matches_direct_scoring():
    state = _state()
    backend = LocalBackend()
    shards = backend.shard(np.arange(state.n), 32)
    lam = 10.0
    parts = backend.map_score(state, shards, lam)
    merged = backend.merge_stats(parts)
    direct = state.batch_move_deltas(np.arange(state.n), lam)
    assert np.array_equal(merged, direct)
    assert backend.describe() == {"name": "local", "workers": 1}


def test_local_backend_refuses_more_than_one_worker(capsys):
    """Local scoring is serial: asking it for more workers names the
    removed thread pool and points at the multiprocess backend."""
    from repro import cli

    match = "thread pool was removed.*backend='multiprocess'"
    with pytest.raises(ValueError, match=match):
        make_backend("local", 2)
    with pytest.raises(ValueError, match=match):
        MiniBatchFairKM(3, workers=2)
    with pytest.raises(ValueError, match=match):
        RunConfig(method="minibatch_fairkm", workers="auto")
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", "--method", "minibatch_fairkm", "--workers", "2"])
    assert exc.value.code == 2
    assert "thread pool was removed" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# The RunConfig execution spec                                            #
# --------------------------------------------------------------------- #


def test_runconfig_validates_backend_and_workers():
    mp = {"method": "minibatch_fairkm", "backend": "multiprocess"}
    cfg = RunConfig(**mp, workers=2)
    assert cfg.backend == "multiprocess" and cfg.workers == 2
    assert RunConfig(**mp, workers="auto").workers == "auto"
    with pytest.raises(ValueError, match="backend"):
        RunConfig(backend="gpu")
    with pytest.raises(ValueError, match="workers"):
        RunConfig(workers=0)
    with pytest.raises(ValueError, match="workers"):
        RunConfig(workers="many")


def test_runconfig_workers_inherits_n_jobs_alias():
    """Configs written with the retired n_jobs key set workers, unless
    they also carry a workers value of their own."""
    from repro.api import build_estimator

    legacy = {"method": "minibatch_fairkm", "backend": "multiprocess", "k": 3, "n_jobs": 4}
    for extra, workers in [({}, 4), ({"workers": None}, 4), ({"workers": 2}, 2)]:
        config = RunConfig.from_json(json.dumps({**legacy, **extra}))
        assert config.workers == workers
        assert build_estimator(config).sweep.backend.workers == workers
    assert RunConfig.from_dict({}).workers == 1
    with pytest.raises(TypeError, match="n_jobs"):
        RunConfig(n_jobs=4)


def test_runconfig_round_trips_the_execution_spec():
    cfg = RunConfig(method="minibatch_fairkm", backend="multiprocess", workers="auto")
    assert RunConfig.from_json(cfg.to_json()) == cfg


def test_old_configs_without_execution_spec_still_load():
    # Payloads written before the backend/workers fields existed.
    old = {"method": "fairkm", "k": 4, "seed": 1}
    cfg = RunConfig.from_dict(old)
    assert cfg.backend == "local" and cfg.workers == 1
    with pytest.raises(ValueError, match="unknown RunConfig keys"):
        RunConfig.from_dict({"method": "fairkm", "k": 4, "backends": "local"})


def test_saved_artifacts_drop_host_execution_knobs(tmp_path):
    cfg = RunConfig(method="minibatch_fairkm", k=3, backend="multiprocess", workers=2)
    model = ClusterModel(np.eye(3), cfg)
    loaded = ClusterModel.load(model.save(tmp_path / "artifact"))
    assert loaded.config.backend == "local"
    assert loaded.config.workers == 1
    # Everything that *is* model identity survives.
    assert loaded.config.method == "minibatch_fairkm" and loaded.config.k == 3


def test_fit_facade_threads_the_backend_through(tmp_path):
    points, cats, nums, k = _problem(n=300)
    sensitive = {"g": cats[0].codes}
    base = fit(
        RunConfig(method="minibatch_fairkm", k=k, chunk_size=128, seed=0),
        points,
        sensitive=sensitive,
    )
    mp = fit(
        RunConfig(
            method="minibatch_fairkm", k=k, chunk_size=128, seed=0,
            backend="multiprocess", workers=2,
        ),
        points,
        sensitive=sensitive,
    )
    assert np.array_equal(base.centers, mp.centers)
