"""Hypothesis property tests for engine equivalence.

The chunked-exact sweep must reproduce the sequential sweep's labels and
objective trajectory on arbitrary random instances, every exact engine
must be a descent method, and ``MiniBatchFairKM(batch_size=1)`` must
degenerate to exact FairKM.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CategoricalSpec, FairKM, MiniBatchFairKM, NumericSpec


@st.composite
def engine_problems(draw):
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(12, 80))
    dim = draw(st.integers(1, 4))
    k = draw(st.integers(2, 5))
    n_values = draw(st.integers(2, 6))
    lam = draw(st.sampled_from([0.0, 1.0, 100.0, "auto"]))
    chunk_size = draw(st.sampled_from([1, 3, 16, 64, 512]))
    shuffle = draw(st.booleans())
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dim))
    cats = [CategoricalSpec("c", rng.integers(0, n_values, n), n_values=n_values)]
    nums = [NumericSpec("z", rng.normal(size=n))]
    return points, cats, nums, k, lam, chunk_size, shuffle, seed


@given(engine_problems())
@settings(max_examples=40, deadline=None)
def test_chunked_equals_sequential(problem):
    points, cats, nums, k, lam, chunk_size, shuffle, seed = problem
    seq = FairKM(k, lambda_=lam, shuffle=shuffle, seed=seed, engine="sequential").fit(
        points, categorical=cats, numeric=nums
    )
    chk = FairKM(
        k,
        lambda_=lam,
        shuffle=shuffle,
        seed=seed,
        engine="chunked",
        chunk_size=chunk_size,
    ).fit(points, categorical=cats, numeric=nums)
    np.testing.assert_array_equal(seq.labels, chk.labels)
    assert seq.moves_per_iter == chk.moves_per_iter
    assert seq.objective == pytest.approx(chk.objective, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(
        seq.objective_history, chk.objective_history, rtol=1e-12
    )


@given(engine_problems())
@settings(max_examples=25, deadline=None)
def test_minibatch_of_one_equals_fairkm(problem):
    points, cats, nums, k, lam, _, shuffle, seed = problem
    exact = FairKM(k, lambda_=lam, shuffle=shuffle, seed=seed, engine="sequential").fit(
        points, categorical=cats, numeric=nums
    )
    mb = MiniBatchFairKM(k, batch_size=1, lambda_=lam, shuffle=shuffle, seed=seed).fit(
        points, categorical=cats, numeric=nums
    )
    np.testing.assert_array_equal(exact.labels, mb.labels)
    assert exact.objective == pytest.approx(mb.objective, rel=1e-9)


@st.composite
def descent_problems(draw):
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(12, 120))
    k = draw(st.integers(2, 8))
    lam = draw(st.sampled_from([0.0, 1.0, 100.0, "auto"]))
    chunk_size = draw(st.sampled_from([1, 3, 8, 64]))
    shuffle = draw(st.booleans())
    allow_empty = draw(st.booleans())
    numeric = draw(st.booleans())
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, draw(st.integers(1, 4))))
    cats = [CategoricalSpec("c", rng.integers(0, 3, n), n_values=3)]
    nums = [NumericSpec("z", rng.normal(size=n))] if numeric else []
    config = dict(lambda_=lam, shuffle=shuffle, allow_empty=allow_empty, seed=seed)
    return points, cats, nums, k, chunk_size, config


@given(descent_problems())
@settings(max_examples=30, deadline=None)
def test_exact_engines_are_descent_methods(problem):
    """Every exact engine's objective_history never increases (b <= a),
    and the chunked sweep equals the sequential."""
    points, cats, nums, k, chunk_size, config = problem
    seq = FairKM(k, engine="sequential", **config).fit(points, categorical=cats, numeric=nums)
    fits = [
        seq,
        FairKM(k, engine="chunked", chunk_size=chunk_size, **config).fit(
            points, categorical=cats, numeric=nums
        ),
    ]
    for res in fits:
        history = res.objective_history
        assert all(b <= a for a, b in zip(history, history[1:])), history
        np.testing.assert_array_equal(res.labels, seq.labels)
        assert res.objective_history == seq.objective_history
