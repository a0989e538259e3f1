"""Distributed training: the same fit on threads and on processes.

FairKM's objective decomposes into additive per-cluster sufficient
statistics, so shard scoring can run anywhere — the pluggable backend
decides where. This script fits one mini-batch FairKM problem through
both backends and verifies the repo's standing bar: every backend,
at every worker count, produces *bit-identical* labels and centers.

Safe on a single-core machine (the multiprocess backend still works,
it just can't be faster there).

Run:  PYTHONPATH=src python examples/distributed_fit.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.api import RunConfig, fit


def main() -> None:
    rng = np.random.default_rng(0)
    n, dim, k = 6_000, 8, 4
    points = rng.normal(size=(n, dim))
    gender = rng.integers(0, 2, n)
    age = rng.normal(38, 9, n)

    # ----------------------------------------------------------------- #
    # One RunConfig knob selects the backend; n_jobs stays the alias.    #
    # ----------------------------------------------------------------- #
    base = RunConfig(
        method="minibatch_fairkm", k=k, chunk_size=2048, max_iter=8, seed=0
    )
    sensitive = {"gender": gender, "age": age}

    results = {}
    for backend, workers in [("local", 1), ("multiprocess", 2), ("multiprocess", 4)]:
        cfg = base.with_overrides(backend=backend, workers=workers)
        start = time.perf_counter()
        model = fit(cfg, points, sensitive=sensitive)
        wall = time.perf_counter() - start
        results[(backend, workers)] = model
        print(f"{backend:>12} workers={workers}: {wall*1e3:7.1f} ms, "
              f"objective={model.diagnostics['objective']:.2f}")

    reference = results[("local", 1)]
    for key, model in results.items():
        assert np.array_equal(model.centers, reference.centers), key
        assert np.array_equal(model.assign(points), reference.assign(points)), key
    print("\nall backends produced bit-identical centers and assignments")


if __name__ == "__main__":
    main()
