"""The λ heuristic of §5.4.

The K-Means term sums one contribution per object while the fairness term
sums one (cluster-level) contribution per cluster, each only 1/(|X|/k)
influenceable by a single object. Balancing the two therefore suggests

    λ = (|X| / k)²

which reproduces the paper's settings: ≈10⁶ for Adult (n = 15 682, k = 5)
and ≈10³ for Kinematics (n = 161, k = 5).
"""

from __future__ import annotations

import math


def default_lambda(n: int, k: int) -> float:
    """Return the paper's recommended fairness weight ``(n/k)²``."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    return (n / k) ** 2


def check_lambda(value: float | str) -> float | str:
    """Validate a λ argument: the string ``"auto"`` or a finite number >= 0.

    Returns ``"auto"`` or the value as a float; raises ``ValueError``
    for anything else, NaN and ±inf included.
    """
    if isinstance(value, str):
        if value == "auto":
            return value
    else:
        try:
            lam = float(value)
        except (TypeError, ValueError):
            pass
        else:
            if math.isfinite(lam) and lam >= 0:
                return lam
    raise ValueError(f'lambda_ must be a finite non-negative number or "auto", got {value!r}')


def resolve_lambda(lambda_: float | str, n: int, k: int) -> float:
    """Resolve a user-provided λ: a number, or the string ``"auto"``."""
    lam = check_lambda(lambda_)
    return default_lambda(n, k) if lam == "auto" else lam
