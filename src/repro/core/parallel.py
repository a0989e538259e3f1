"""Worker-count helpers.

Every worker-count knob in the repo (the multiprocess training
backend's process count, the CLI's ``--workers``) shares one domain,
checked by :func:`validate_workers` and resolved by
:func:`resolve_workers`.
"""

from __future__ import annotations

import os
from typing import Any


#: Environment variable capping ``"auto"``/``-1`` worker resolution.
#: CI runners advertise more cores than a job may use; setting e.g.
#: ``REPRO_CORE_BUDGET=2`` keeps auto-sized pools inside the budget.
CORE_BUDGET_ENV = "REPRO_CORE_BUDGET"


def core_budget() -> int:
    """Usable core count: ``os.cpu_count()`` capped by the CI budget.

    ``$REPRO_CORE_BUDGET``, when set, must be a positive integer and
    caps (never raises) the detected CPU count.
    """
    cores = os.cpu_count() or 1
    raw = os.environ.get(CORE_BUDGET_ENV)
    if raw:
        try:
            budget = int(raw)
        except ValueError:
            raise ValueError(f"{CORE_BUDGET_ENV} must be a positive integer, got {raw!r}") from None
        if budget < 1:
            raise ValueError(f"{CORE_BUDGET_ENV} must be a positive integer, got {budget}")
        cores = min(cores, budget)
    return cores


def as_integral(value: Any, field: str) -> int:
    """*value* as an ``int``, refusing bools, strings and fractions.

    The one integral-count check behind every count knob (worker
    counts here, ``k`` / ``max_iter`` / ``chunk_size`` / ``seed`` in
    :class:`repro.api.RunConfig`). Errors name *field*.
    """
    if isinstance(value, (bool, str)):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{field} must be an integer, got {value!r}") from None
    if as_int != value:  # rejects non-integral floats like 2.5
        raise ValueError(f"{field} must be an integral count, got {value!r}")
    return as_int


def validate_workers(value: int | str | None, *, field: str = "workers") -> int | str:
    """Check a worker-count knob without resolving ``-1``/``"auto"``.

    The single definition of the domain — an integral count >= 1, -1
    or ``"auto"`` (both: one worker per usable CPU) — shared by the
    training backends and the CLI. ``None`` normalizes to 1 (serial).
    Error messages name *field* so config validation points at the
    offending key.
    """
    domain = 'a positive integer, -1, or "auto"'
    if value is None:
        return 1
    if isinstance(value, str):
        if value == "auto":
            return "auto"
        raise ValueError(f"{field} must be {domain}, got {value!r}")
    as_int = as_integral(value, field)
    if as_int != -1 and as_int < 1:
        raise ValueError(f"{field} must be {domain}, got {as_int}")
    return as_int


def resolve_workers(value: int | str | None) -> int:
    """Normalize a worker-count knob to a concrete count.

    ``None`` and ``1`` mean serial; ``-1`` and ``"auto"`` mean one
    worker per usable CPU (:func:`core_budget`, which honors
    ``$REPRO_CORE_BUDGET``); any other positive integer is literal.
    """
    value = validate_workers(value)
    if value == "auto" or value == -1:
        return core_budget()
    return int(value)
