"""MultiprocessBackend: bit-identity, lifecycle, and crash containment.

The backend's correctness bar is structural — shard partition and merge
order never depend on the worker count — so every test here compares
whole fits (labels *and* centers) against the in-process local run
with ``np.array_equal``, not ``allclose``.
"""

from __future__ import annotations

import os
import signal
from multiprocessing import get_context, shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import METHOD_REGISTRY, RunConfig, fit
from repro.backend import BackendError, MultiprocessBackend
from repro.core import CategoricalSpec, MiniBatchFairKM, NumericSpec
from repro.core.state import ClusterState

WORKER_COUNTS = (1, 2, 4)


def _problem(n, dim=5, seed=0, n_values=3):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dim))
    cats = [CategoricalSpec("g", rng.integers(0, n_values, n), n_values=n_values)]
    nums = [NumericSpec("z", rng.normal(size=n))]
    return points, cats, nums


def _assert_no_leaked_segments(names):
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


# --------------------------------------------------------------------- #
# Bit-identity                                                            #
# --------------------------------------------------------------------- #


@st.composite
def mp_problems(draw):
    seed = draw(st.integers(0, 1000))
    n = draw(st.integers(560, 900))  # > MIN_SHARD so batches really shard
    k = draw(st.integers(2, 5))
    workers = draw(st.sampled_from(WORKER_COUNTS))
    return seed, n, k, workers


@given(mp_problems())
@settings(max_examples=5, deadline=None)
def test_multiprocess_fit_is_bit_identical_to_local(problem):
    seed, n, k, workers = problem
    points, cats, nums = _problem(n, seed=seed)
    batch = max(520, n - 40)

    def run(backend, w):
        return MiniBatchFairKM(
            k, batch_size=batch, seed=seed, max_iter=5,
            backend=backend, workers=w,
        ).fit(points, categorical=cats, numeric=nums)

    local = run("local", 1)
    mp = run("multiprocess", workers)
    assert np.array_equal(local.labels, mp.labels)
    assert np.array_equal(local.centers, mp.centers)
    assert np.array_equal(local.objective_history, mp.objective_history)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("method", sorted(METHOD_REGISTRY))
def test_every_registered_method_is_backend_invariant(method, workers):
    # minibatch_fairkm routes shard scoring through the backend, which
    # may not change a single bit; every other method runs serially and
    # refuses a backend spec it would ignore.
    base_cfg = RunConfig(method=method, k=3, seed=0, max_iter=5)
    if method != "minibatch_fairkm":
        with pytest.raises(ValueError, match="only method='minibatch_fairkm'"):
            base_cfg.with_overrides(backend="multiprocess", workers=workers)
        return
    points, cats, nums = _problem(700, n_values=2)
    sensitive = {"g": cats[0].codes}
    base_cfg = base_cfg.with_overrides(chunk_size=600)
    local = fit(base_cfg, points, sensitive=sensitive)
    mp = fit(
        base_cfg.with_overrides(backend="multiprocess", workers=workers),
        points,
        sensitive=sensitive,
    )
    assert np.array_equal(local.centers, mp.centers)
    assert np.array_equal(local.assign(points), mp.assign(points))


def test_result_diagnostics_record_the_backend():
    points, cats, nums = _problem(700)
    result = MiniBatchFairKM(
        3, batch_size=600, seed=0, max_iter=4,
        backend="multiprocess", workers=2,
    ).fit(points, categorical=cats, numeric=nums)
    assert result.diagnostics["backend"] == {"name": "multiprocess", "workers": 2}
    sweeps = result.diagnostics["sweeps"]
    assert sweeps and all(s["backend"] == "multiprocess" for s in sweeps)
    assert all(s["workers"] == 2 for s in sweeps)
    assert any(s["shards"] > 0 for s in sweeps)
    assert all(s["merge_s"] >= 0.0 for s in sweeps)


def test_scoring_worker_holds_no_column_copy(monkeypatch):
    """resync's column-major copy of the points lives only where caches
    are rebuilt: a worker state, built as ``_init_worker`` builds it and
    fed through ``_score_shard``, never allocates one."""
    from repro.backend import multiprocess

    n, k = 700, 3
    points, cats, nums = _problem(n)
    parent = ClusterState(points, np.arange(n) % k, k, cats, nums)
    worker = ClusterState(points, np.zeros(n, dtype=np.int64), k, cats, nums)
    monkeypatch.setattr(multiprocess, "_WORKER_STATE", worker)
    monkeypatch.setattr(multiprocess, "_WORKER_INJECTOR", None)
    shard = np.arange(100, 400)
    for _ in range(2):
        task = (shard, parent.labels[shard], parent.export_scoring_stats(), 2.0)
        deltas = multiprocess._score_shard(task)
        assert np.array_equal(deltas, parent.batch_move_deltas(shard, 2.0))
        parent.relabel(np.array([1, 2]), np.array([2, 0]))
    assert worker._columns is None
    assert parent._columns is not None and parent._columns.flags.c_contiguous
    assert np.array_equal(parent._columns, points.T)
    # Construction alone never allocates it either.
    assert ClusterState(points, parent.labels, k, cats, nums)._columns is None


def _fit_pair(n, batch, workers, k=3):
    points, cats, nums = _problem(n)

    def run(backend, w):
        return MiniBatchFairKM(
            k, batch_size=batch, seed=0, max_iter=4, backend=backend, workers=w
        ).fit(points, categorical=cats, numeric=nums)

    return run("local", 1), run("multiprocess", workers)


def _assert_same_fit(local, mp):
    assert np.array_equal(local.labels, mp.labels)
    assert np.array_equal(local.centers, mp.centers)
    assert np.array_equal(local.objective_history, mp.objective_history)


def test_spawned_workers_are_bit_identical_to_local(monkeypatch):
    """The worker target, its spec and its Pipe pickle under ``spawn``."""
    from repro.backend import multiprocess

    monkeypatch.setattr(multiprocess, "_pick_context", lambda: get_context("spawn"))
    local, mp = _fit_pair(700, 600, 2)
    assert all(s["shards"] > 0 for s in mp.diagnostics["sweeps"])
    _assert_same_fit(local, mp)


@pytest.mark.parametrize(
    "n, batch, workers, shards",
    [
        (2600, 2500, 2, 5),  # runs of 3 and 2 shards
        (1000, 900, 3, 2),  # one shard each, the third worker idle
    ],
)
def test_uneven_and_idle_worker_splits_are_bit_identical(n, batch, workers, shards):
    local, mp = _fit_pair(n, batch, workers)
    assert all(s["shards"] == shards for s in mp.diagnostics["sweeps"])
    _assert_same_fit(local, mp)


# --------------------------------------------------------------------- #
# Worker transport                                                        #
# --------------------------------------------------------------------- #


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_worker_exception_is_reraised_in_the_parent(monkeypatch):
    from repro.backend import multiprocess

    score, calls = multiprocess._score_shard, []

    def fails_first(task):  # each forked worker counts its own calls
        calls.append(task)
        if len(calls) == 1:
            raise ValueError("scoring failed in the worker")
        return score(task)

    monkeypatch.setattr(multiprocess, "_pick_context", lambda: get_context("fork"))
    monkeypatch.setattr(multiprocess, "_score_shard", fails_first)
    points, cats, nums = _problem(300)
    state = ClusterState(points, np.arange(300) % 3, 3, cats, nums)
    backend = MultiprocessBackend(2)
    backend.start(state)
    try:
        names = backend.segment_names()
        pids = backend.worker_pids()
        assert len(pids) == 2
        shards = backend.shard(np.arange(300), 64)  # runs of 3 and 2 shards
        with pytest.raises(ValueError, match="scoring failed in the worker"):
            backend.map_score(state, shards, 1.0)
        # Both failures were read: no stale reply answers the next batch.
        parts = backend.map_score(state, shards, 1.0)
        for shard, part in zip(shards, parts):
            assert np.array_equal(part, state.batch_move_deltas(shard, 1.0))
    finally:
        backend.shutdown()
    _assert_no_leaked_segments(names)
    assert not any(_pid_alive(pid) for pid in pids)
    assert backend.worker_pids() == []


def test_map_score_returns_no_view_of_shared_memory():
    n, k = 600, 3
    points, cats, nums = _problem(n)
    state = ClusterState(points, np.arange(n) % k, k, cats, nums)
    backend = MultiprocessBackend(2)
    backend.start(state)
    try:
        shards = backend.shard(np.arange(50, 550), 100)
        first = backend.map_score(state, shards, 2.0)
        kept = [part.copy() for part in first]
        state.relabel(np.arange(0, n, 2), (np.arange(0, n, 2) + 1) % k)
        second = backend.map_score(state, shards, 2.0)
        for before, after in zip(first, kept):
            assert np.array_equal(before, after)
        for shard, part in zip(shards, second):
            assert np.array_equal(part, state.batch_move_deltas(shard, 2.0))
        assert not all(np.array_equal(a, b) for a, b in zip(first, second))
    finally:
        backend.shutdown()


# --------------------------------------------------------------------- #
# Shared-memory lifecycle                                                 #
# --------------------------------------------------------------------- #


def test_shutdown_unlinks_every_placed_segment():
    points, cats, nums = _problem(600)
    backend = MultiprocessBackend(2)
    model = MiniBatchFairKM(
        3, batch_size=560, seed=0, max_iter=3, backend=backend
    )
    model.fit(points, categorical=cats, numeric=nums)
    # The engine's finally already shut the backend down.
    names = backend.segment_names()
    _assert_no_leaked_segments(names)
    backend.shutdown()  # idempotent


def test_backend_restarts_cleanly_across_fits():
    points, cats, nums = _problem(620)
    backend = MultiprocessBackend(2)
    runs = [
        MiniBatchFairKM(
            3, batch_size=560, seed=0, max_iter=3, backend=backend
        ).fit(points, categorical=cats, numeric=nums)
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].labels, runs[1].labels)
    _assert_no_leaked_segments(backend.segment_names())


def test_sigkilled_worker_surfaces_backend_error_and_leaks_nothing():
    points, cats, nums = _problem(200)
    state = ClusterState(
        points, np.zeros(200, dtype=np.int64), 3, cats, nums
    )
    backend = MultiprocessBackend(2)
    backend.start(state)
    try:
        names = backend.segment_names()
        assert names  # the data really was placed in shared memory
        shards = backend.shard(np.arange(200), 64)
        backend.map_score(state, shards, 10.0)  # spins the workers up
        pids = backend.worker_pids()
        assert pids
        os.kill(pids[0], signal.SIGKILL)
        with pytest.raises(BackendError, match="worker died"):
            for _ in range(50):  # the pool may need a round to notice
                backend.map_score(state, shards, 10.0)
    finally:
        backend.shutdown()
    _assert_no_leaked_segments(names)


def test_sigkilled_worker_mid_fit_cleans_up_the_placement():
    points, cats, nums = _problem(1200)

    class Sabotaged(MultiprocessBackend):
        scored = 0

        def map_score(self, state, shards, lambda_):
            parts = super().map_score(state, shards, lambda_)
            Sabotaged.scored += 1
            if Sabotaged.scored == 1:
                os.kill(self.worker_pids()[0], signal.SIGKILL)
            return parts

    backend = Sabotaged(2)
    with pytest.raises(BackendError, match="worker died"):
        MiniBatchFairKM(
            3, batch_size=1100, seed=0, max_iter=5, backend=backend
        ).fit(points, categorical=cats, numeric=nums)
    assert Sabotaged.scored >= 1
    # The engine's finally ran shutdown: nothing left in /dev/shm.
    _assert_no_leaked_segments(backend.segment_names())


def test_map_score_before_start_is_an_error():
    points, cats, nums = _problem(100)
    state = ClusterState(points, np.zeros(100, dtype=np.int64), 2, cats, nums)
    backend = MultiprocessBackend(2)
    with pytest.raises(BackendError, match="start"):
        backend.map_score(state, [np.arange(100)], 1.0)
