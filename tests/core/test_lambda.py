"""Tests for the λ heuristic (§5.4)."""

from __future__ import annotations

import pytest

from repro.core.lambda_heuristic import check_lambda, default_lambda, resolve_lambda


def test_paper_adult_setting():
    # n = 15 682, k = 5 → λ ≈ 10⁶ (paper sets 10⁶).
    lam = default_lambda(15682, 5)
    assert lam == pytest.approx((15682 / 5) ** 2)
    assert 9e5 < lam < 1.1e7


def test_paper_kinematics_setting():
    # n = 161, k = 5 → λ ≈ 10³ (paper sets 10³).
    lam = default_lambda(161, 5)
    assert 5e2 < lam < 2e3


def test_validation():
    with pytest.raises(ValueError, match="n must be positive"):
        default_lambda(0, 5)
    with pytest.raises(ValueError, match="k must be positive"):
        default_lambda(10, 0)


def test_resolve_auto():
    assert resolve_lambda("auto", 100, 5) == default_lambda(100, 5)


def test_resolve_number_passthrough():
    assert resolve_lambda(123.5, 100, 5) == 123.5
    assert resolve_lambda(0, 100, 5) == 0.0


def test_resolve_rejects_bad_inputs():
    with pytest.raises(ValueError, match='"auto"'):
        resolve_lambda("automatic", 100, 5)
    with pytest.raises(ValueError, match="non-negative"):
        resolve_lambda(-3, 100, 5)


@pytest.mark.parametrize("bad", [*[float("nan"), float("inf"), float("-inf")], -1.0, "automatic", "1.5", None])
def test_check_lambda_rejects(bad):
    with pytest.raises(ValueError, match="finite non-negative"):
        check_lambda(bad)
    with pytest.raises(ValueError, match="finite non-negative"):
        resolve_lambda(bad, 100, 5)
