"""Micro-benchmarks of the core primitives (classic pytest-benchmark).

These time the inner-loop operations whose complexity §4.3.1 analyses:
the per-object move-delta evaluation (the optimizer's hot path), the
dense sweep's fused score-and-move step, the vectorized batch variant
(fresh windows and repairs of a gathered window's suffix), a cache
resync, and a full K-Means fit for reference. Useful for catching performance regressions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import KMeans
from repro.core import CategoricalSpec, NumericSpec
from repro.core.state import ClusterState

N, DIM, K = 4000, 12, 8


@pytest.fixture(scope="module")
def state() -> ClusterState:
    rng = np.random.default_rng(0)
    points = rng.normal(size=(N, DIM))
    cats = [
        CategoricalSpec("a", rng.integers(0, 7, N), n_values=7),
        CategoricalSpec("b", rng.integers(0, 2, N), n_values=2),
        CategoricalSpec("c", rng.integers(0, 41, N), n_values=41),
    ]
    nums = [NumericSpec("z", rng.normal(size=N))]
    return ClusterState(points, rng.integers(0, K, N), K, cats, nums)


def test_move_deltas_single(benchmark, state):
    """Hot path: one object's objective delta against all k clusters."""
    benchmark(state.move_deltas, 123, 1e6)


def test_move_deltas_batch(benchmark, state):
    """Vectorized deltas for 512 objects (mini-batch primitive)."""
    indices = np.arange(512)
    benchmark(state.batch_move_deltas, indices, 1e6)


@pytest.mark.parametrize("rows", [32, 256])
def test_move_deltas_batch_rows(benchmark, state, rows):
    """The chunked sweep's batch sizes (about 40 rows per call on Adult)."""
    benchmark(state.batch_move_deltas, np.arange(rows), 1e6)


@pytest.fixture(scope="module", params=[5, 20])
def repair_state(request) -> ClusterState:
    """Adult's shape (d=28, five attributes) at k=5 and k=20."""
    rng = np.random.default_rng(2)
    points = rng.normal(size=(N, 28))
    cats = [
        CategoricalSpec(f"s{v}", rng.integers(0, v, N), n_values=v) for v in (7, 6, 5, 2, 41)
    ]
    return ClusterState(points, rng.integers(0, request.param, N), request.param, cats, [])


@pytest.mark.parametrize("rows", [8, 64, 256])
def test_repair_rows(benchmark, repair_state, rows):
    """The chunked sweep's repair call: one full-row rescoring of the
    rows still pending in a window, per k and pending rows."""
    benchmark(repair_state.batch_move_deltas, np.arange(rows), 1e6)


@pytest.mark.parametrize("rows", [8, 64])
def test_repair_gathered_suffix(benchmark, repair_state, rows):
    """The chunked sweep's repair as it runs: the pending suffix of a
    256-row window gathered once (``ClusterState.gather``)."""
    block = repair_state.gather(np.arange(256))
    benchmark(repair_state.batch_move_deltas, block[256 - rows :], 1e6)


def test_step_roundtrip(benchmark, state):
    """The dense sweep's fused step: score one object and move it to its
    least-delta cluster unless that is its own (a tolerance of -inf
    accepts any delta), then move it back."""
    original = int(state.labels[7])

    def roundtrip():
        state.step(7, 1e6, -np.inf)
        state.apply_move(7, original)

    benchmark(roundtrip)


def test_apply_move_roundtrip(benchmark, state):
    """Apply + undo one move (keeps the state unchanged across rounds)."""
    original = int(state.labels[7])
    target = (original + 1) % K

    def roundtrip():
        state.apply_move(7, target)
        state.apply_move(7, original)

    benchmark(roundtrip)


def test_resync(benchmark, state):
    """Full cache rebuild from labels (once per iteration in FairKM)."""
    benchmark(state.resync)


def test_kmeans_reference_fit(benchmark):
    """Reference point: one Lloyd's fit on the same problem size."""
    rng = np.random.default_rng(1)
    points = rng.normal(size=(N, DIM))

    benchmark(lambda: KMeans(K, seed=0).fit(points))
