"""Parallel hot paths: worker-count resolution and sweep exactness.

The contract under test is *bit-identical decisions*: the serial
``ChunkedSweep`` must reproduce the sequential sweep's labels and
objective trajectory at every chunk size, and a mini-batch batch wider
than one shard must really be scored shard by shard.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CategoricalSpec,
    ChunkedSweep,
    FairKM,
    MiniBatchFairKM,
    MiniBatchSweep,
    NumericSpec,
    make_sweep,
)
from repro.core.parallel import resolve_workers
from repro.core.state import ClusterState


# --------------------------------------------------------------------- #
# Worker counts                                                           #
# --------------------------------------------------------------------- #


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("REPRO_CORE_BUDGET", raising=False)
    assert resolve_workers(None) == 1
    assert resolve_workers(1) == 1
    assert resolve_workers(4) == 4
    assert resolve_workers(-1) == (os.cpu_count() or 1)
    for bad in (0, -2):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(bad)


# --------------------------------------------------------------------- #
# make_sweep plumbing                                                     #
# --------------------------------------------------------------------- #


def test_exact_engines_take_no_workers_or_backend():
    """Algorithm 1 decides serially: the exact engines have no scoring
    pool to size, so the knobs are not accepted at all."""
    with pytest.raises(TypeError):
        FairKM(3, workers=2)
    with pytest.raises(TypeError):
        FairKM(3, backend="multiprocess")
    with pytest.raises(TypeError):
        make_sweep("chunked", workers=2)
    with pytest.raises(TypeError):
        ChunkedSweep(workers=2)
    assert not hasattr(make_sweep("chunked"), "backend")


def test_sweep_constructors_validate_workers():
    from repro.backend import MultiprocessBackend

    with pytest.raises(ValueError, match="workers"):
        MiniBatchSweep(workers=-3)
    with pytest.raises(ValueError, match="workers"):
        MiniBatchFairKM(2, workers=0)
    # A constructed backend already fixes its worker count.
    for workers in (-3, 8):
        with pytest.raises(ValueError, match="workers cannot be overridden"):
            MiniBatchFairKM(2, backend=MultiprocessBackend(2), workers=workers)


# --------------------------------------------------------------------- #
# Parallel exactness                                                      #
# --------------------------------------------------------------------- #


@st.composite
def parallel_problems(draw):
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(40, 160))
    dim = draw(st.integers(1, 4))
    k = draw(st.integers(2, 5))
    n_values = draw(st.integers(2, 6))
    lam = draw(st.sampled_from([0.0, 1.0, 100.0, "auto"]))
    # Small chunks force many windows per sweep, so the window scan and
    # its per-move repair genuinely engage.
    chunk_size = draw(st.sampled_from([8, 16, 64]))
    shuffle = draw(st.booleans())
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dim))
    cats = [CategoricalSpec("c", rng.integers(0, n_values, n), n_values=n_values)]
    nums = [NumericSpec("z", rng.normal(size=n))]
    return points, cats, nums, k, lam, chunk_size, shuffle, seed


@given(parallel_problems())
@settings(max_examples=25, deadline=None)
def test_parallel_chunked_equals_sequential(problem):
    """ChunkedSweep is bit-identical to sequential at every chunk size."""
    points, cats, nums, k, lam, chunk_size, shuffle, seed = problem
    seq = FairKM(k, lambda_=lam, shuffle=shuffle, seed=seed, engine="sequential").fit(
        points, categorical=cats, numeric=nums
    )
    par = FairKM(
        k,
        lambda_=lam,
        shuffle=shuffle,
        seed=seed,
        engine="chunked",
        chunk_size=chunk_size,
    ).fit(points, categorical=cats, numeric=nums)
    np.testing.assert_array_equal(seq.labels, par.labels)
    assert seq.moves_per_iter == par.moves_per_iter
    assert seq.objective_history == par.objective_history


def test_sharded_minibatch_large_batch_exercises_shards():
    """A batch wider than MIN_SHARD actually splits across worker
    processes and still matches the in-process fit."""
    rng = np.random.default_rng(3)
    n = 1600  # batch 1600 > MIN_SHARD=512 -> 4 shards of <=512 rows
    points = np.vstack(
        [rng.normal(loc=c, size=(n // 4, 5)) for c in (0.0, 2.0, 4.0, 6.0)]
    )
    cats = [CategoricalSpec("g", rng.integers(0, 3, n), n_values=3)]
    serial = MiniBatchFairKM(4, batch_size=n, lambda_=50.0, seed=0).fit(
        points, categorical=cats
    )
    sharded = MiniBatchFairKM(
        4, batch_size=n, lambda_=50.0, seed=0, backend="multiprocess", workers=2
    ).fit(points, categorical=cats)
    assert all(s["shards"] > 0 for s in sharded.diagnostics["sweeps"])
    np.testing.assert_array_equal(serial.labels, sharded.labels)
    assert serial.objective == sharded.objective


# --------------------------------------------------------------------- #
# Sweep diagnostics                                                       #
# --------------------------------------------------------------------- #


def test_result_records_per_sweep_diagnostics():
    rng = np.random.default_rng(5)
    points = np.vstack([rng.normal(0, 1, (400, 4)), rng.normal(5, 1, (400, 4))])
    cats = [CategoricalSpec("c", rng.integers(0, 2, 800), n_values=2)]
    result = FairKM(3, lambda_=100.0, seed=0, engine="chunked", chunk_size=64).fit(
        points, categorical=cats
    )
    assert result.diagnostics["engine"] == "chunked"
    sweeps = result.diagnostics["sweeps"]
    assert len(sweeps) == result.n_iter
    for entry in sweeps:
        assert entry["moves"] >= 0
        assert 0.0 <= entry["move_rate"] <= 1.0
        assert "mode" in entry and "scoring_s" in entry
    # The dense first sweep falls back to the serial loop; later sparse
    # sweeps run the chunked scan and report window + repair telemetry.
    assert sweeps[0]["mode"] == "dense_fallback"
    assert all(s["mode"] != "dense_fallback" for s in sweeps[1:])
    chunked = [s for s in sweeps if s["mode"].startswith("chunked")]
    assert chunked, "no sweep ran the chunked scan"
    for entry in chunked:
        assert entry["window"] >= 1
        assert entry["repair_s"] >= 0.0


def test_dense_valve_fires_on_a_later_sweep():
    """Only the first sweep runs dense up front; a later sweep whose
    realized move rate crosses dense_threshold hands its tail to the
    sequential loop, and the labels still equal the sequential sweep's."""
    rng = np.random.default_rng(5)
    points = np.vstack([rng.normal(0, 1, (400, 4)), rng.normal(5, 1, (400, 4))])
    cats = [CategoricalSpec("c", rng.integers(0, 2, 800), n_values=2)]
    sweep = ChunkedSweep(chunk_size=32, dense_threshold=0.05)
    result = FairKM(3, lambda_=100.0, seed=0, engine=sweep).fit(points, categorical=cats)
    modes = [s["mode"] for s in result.diagnostics["sweeps"]]
    assert modes[0] == "dense_fallback"
    assert "chunked+dense_tail" in modes[1:]
    seq = FairKM(3, lambda_=100.0, seed=0, engine="sequential").fit(points, categorical=cats)
    np.testing.assert_array_equal(result.labels, seq.labels)
    assert result.objective_history == seq.objective_history


def test_minibatch_diagnostics_record_merge_time():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(300, 3))
    cats = [CategoricalSpec("g", rng.integers(0, 2, 300), n_values=2)]
    result = MiniBatchFairKM(3, batch_size=100, lambda_=1.0, seed=0).fit(
        points, categorical=cats
    )
    sweeps = result.diagnostics["sweeps"]
    assert result.diagnostics["engine"] == "minibatch"
    assert all(s["mode"] == "minibatch" for s in sweeps)
    assert all(s["merge_s"] >= 0.0 for s in sweeps)
