"""Shared fixtures for the benchmark suite.

Scale knobs, read here only (``repro paper`` takes ``--seeds``,
``--adult-n`` and ``--full`` instead):

* ``REPRO_BENCH_SEEDS``   — seeds per configuration (default 3).
* ``REPRO_BENCH_ADULT_N`` — Adult rows before parity undersampling
  (default 6000).
* ``REPRO_BENCH_FULL=1``  — paper scale (100 seeds, 32 561 rows). Expect
  hours, not minutes.

Every bench prints its regenerated table/figure (visible with ``-s``) and
writes it under ``results/``.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.paper import build_adult, build_kinematics


@pytest.fixture(scope="session")
def scale() -> tuple[int, int]:
    """(seeds, adult_n) from the environment knobs above."""
    if os.environ.get("REPRO_BENCH_FULL") == "1":
        return 100, 32561
    seeds = int(os.environ.get("REPRO_BENCH_SEEDS", "3"))
    adult_n = int(os.environ.get("REPRO_BENCH_ADULT_N", "6000"))
    return seeds, adult_n


@pytest.fixture(scope="session")
def adult_dataset(scale):
    _, adult_n = scale
    return build_adult(adult_n)


@pytest.fixture(scope="session")
def kinematics_dataset():
    return build_kinematics()


@pytest.fixture(scope="session")
def seeds(scale) -> int:
    return scale[0]


def emit(title: str, text: str) -> None:
    """Print a labelled block (shown with pytest -s)."""
    print(f"\n{'#' * 70}\n# {title}\n{'#' * 70}\n{text}\n")
