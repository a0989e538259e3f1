"""Engine sweep strategies — objective parity and wall-clock.

Compares the three :mod:`repro.core.engine` sweep strategies on an
Adult-shaped synthetic workload (n ≈ 10k, k = 5, five categorical
sensitive attributes plus one numeric, the paper's §5.1 configuration):

* ``sequential`` — the paper-literal point-at-a-time local search;
* ``chunked``    — vectorized chunk scoring with surgical per-move
  repair; *exact* (identical labels and objective trajectory);
* ``minibatch``  — the §6.1 approximation (frozen-batch decisions).

Asserted invariants: chunked reproduces the sequential labels and
objective bit-for-bit and is at least 5× faster at this size; minibatch
stays within a quality band of the exact objective.

Measurements go through the :mod:`repro.perf.harness` emitter:
``results/BENCH_engine_sweeps.json`` holds the records (speedup column
is vs the sequential engine) and ``results/engine_sweeps.txt`` is
rendered from that JSON. The jobs axis is not timed here: identical
labels at every ``workers`` count are tier-1 tests
(``tests/core/test_parallel.py``), and worker-*process* scaling is
``repro bench backend`` / ``results/BENCH_backend.json``.
``REPRO_BENCH_ENGINE_N`` overrides the problem size.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core import CategoricalSpec, FairKM, NumericSpec
from repro.experiments.paper import RESULTS_DIR, write_result
from repro.perf.harness import BenchRecord, bench_payload, render_bench, write_bench

from conftest import emit

N = int(os.environ.get("REPRO_BENCH_ENGINE_N", "10000"))
DIM, K = 12, 5
CARDINALITIES = (7, 2, 5, 9, 3)
ENGINES = ("sequential", "chunked", "minibatch")


def _problem():
    rng = np.random.default_rng(0)
    points = np.vstack(
        [rng.normal(loc=rng.normal(0, 3, DIM), size=(N // 4, DIM)) for _ in range(4)]
    )
    attr_rng = np.random.default_rng(1)
    cats = [
        CategoricalSpec(f"c{i}", attr_rng.integers(0, v, N), n_values=v)
        for i, v in enumerate(CARDINALITIES)
    ]
    nums = [NumericSpec("z", attr_rng.normal(size=N))]
    return points, cats, nums


def test_engine_sweeps(benchmark):
    points, cats, nums = _problem()
    lam = (N / K) ** 2
    runs = {}

    def compare():
        for engine in ENGINES:
            start = time.perf_counter()
            result = FairKM(K, lambda_=lam, seed=0, engine=engine).fit(
                points, categorical=cats, numeric=nums
            )
            runs[engine] = (time.perf_counter() - start, result)
        return runs

    benchmark.pedantic(compare, rounds=1, iterations=1)

    seq_t, seq = runs["sequential"]
    records = []
    for engine in ENGINES:
        elapsed, result = runs[engine]
        records.append(
            BenchRecord(
                f"engine[{engine}]", N, K, 1,
                elapsed, N * result.n_iter / elapsed if elapsed > 0 else 0.0,
                speedup=seq_t / elapsed if elapsed > 0 else 0.0,
                extra={
                    "n_iter": result.n_iter,
                    "objective": result.objective,
                    "rel_obj_gap": abs(result.objective - seq.objective) / seq.objective,
                },
            )
        )
    write_bench(RESULTS_DIR / "BENCH_engine_sweeps.json", "engine_sweeps", records)
    text = render_bench(bench_payload("engine_sweeps", records))
    write_result("engine_sweeps.txt", text)
    emit("Engine sweeps (parity and wall-clock)", text)

    # Chunked is exact: identical labels and objective trajectory.
    chunk_t, chunk = runs["chunked"]
    np.testing.assert_array_equal(chunk.labels, seq.labels)
    assert chunk.objective == seq.objective
    assert chunk.objective_history == seq.objective_history
    # ... and >= 5x faster at n ~ 10k (the tentpole target). Smaller
    # REPRO_BENCH_ENGINE_N runs skip the wall-clock assertion: fixed
    # per-call overhead needs a few thousand points to amortize.
    if N >= 8000:
        assert seq_t / chunk_t >= 5.0, f"chunked speedup {seq_t / chunk_t:.2f}x < 5x"

    # Minibatch is approximate but must stay in a sane quality band.
    _, mb = runs["minibatch"]
    assert mb.objective <= seq.objective * 1.25
