"""The public fit facade: ``RunConfig`` + data in, ``ClusterModel`` out.

This is the train side of the train-once / assign-many split the
paper's S-blind assignment rule enables: :func:`fit` runs any registered
method and condenses the outcome into a portable
:class:`~repro.api.model.ClusterModel`; serving then needs only the
artifact (see :mod:`repro.api.assign`).

``points`` may be a raw feature matrix (sensitive attributes passed via
``sensitive=`` in any form :func:`repro.core.attributes.normalize_sensitive`
accepts) or a ``repro.data.Dataset`` (features and sensitive attributes
derived from its schema). ``config.sensitive`` restricts either form to
a named subset.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from ..core.attributes import CategoricalSpec, NumericSpec, normalize_sensitive
from .config import RunConfig
from .model import ClusterModel
from .registry import get_method


def attribute_schema(
    categorical: list[CategoricalSpec], numeric: list[NumericSpec]
) -> list[dict[str, Any]]:
    """Normalize spec lists into the portable artifact schema."""
    schema: list[dict[str, Any]] = []
    for spec in categorical:
        schema.append(
            {
                "name": spec.name,
                "kind": "categorical",
                "n_values": int(spec.n_values),
                "weight": float(spec.weight),
            }
        )
    for spec in numeric:
        schema.append(
            {"name": spec.name, "kind": "numeric", "weight": float(spec.weight)}
        )
    return schema


def _select_specs(
    cats: list[CategoricalSpec],
    nums: list[NumericSpec],
    names: tuple[str, ...] | None,
) -> tuple[list[CategoricalSpec], list[NumericSpec]]:
    """Restrict normalized specs to ``config.sensitive`` names."""
    if names is None:
        return cats, nums
    available = {s.name for s in [*cats, *nums]}
    missing = set(names) - available
    if missing:
        raise KeyError(
            f"config.sensitive names {sorted(missing)} not among provided "
            f"sensitive attributes {sorted(available)}"
        )
    wanted = set(names)
    return (
        [s for s in cats if s.name in wanted],
        [s for s in nums if s.name in wanted],
    )


def _resolve_inputs(
    config: RunConfig, points: Any, sensitive: Any
) -> tuple[np.ndarray, list[CategoricalSpec], list[NumericSpec]]:
    """Features + normalized sensitive specs from either input form."""
    if hasattr(points, "feature_matrix") and hasattr(points, "sensitive_specs"):
        dataset = points
        features = dataset.feature_matrix(scale=config.scale_features)
        if sensitive is None:
            names = list(config.sensitive) if config.sensitive is not None else None
            cats, nums = dataset.sensitive_specs(names=names)
            return features, cats, nums
    else:
        features = np.asarray(points, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {features.shape}")
    cats, nums = normalize_sensitive(sensitive, n=features.shape[0])
    cats, nums = _select_specs(cats, nums, config.sensitive)
    return features, cats, nums


def fit(config: RunConfig, points: Any, *, sensitive: Any = None) -> ClusterModel:
    """Fit the method *config* describes and return a portable artifact.

    Args:
        config: complete run specification (method, k, λ, engine, ...).
        points: feature matrix ``(n, d)`` or a ``repro.data.Dataset``.
        sensitive: sensitive attributes in any
            :func:`~repro.core.attributes.normalize_sensitive` form;
            for a ``Dataset`` input the default is the dataset's own
            SENSITIVE columns (restricted by ``config.sensitive``).

    Returns:
        A fitted :class:`ClusterModel` whose :meth:`ClusterModel.assign`
        reproduces the estimator's in-process ``predict`` exactly.

    Raises:
        KeyError: unknown ``config.method`` or unknown
            ``config.sensitive`` name.
        ValueError: a NaN or inf in the features, for every method.
    """
    spec = get_method(config.method)
    features, cats, nums = _resolve_inputs(config, points, sensitive)
    if not np.isfinite(features).all():
        raise ValueError("points must be finite (no NaN or inf)")
    specs = [*cats, *nums]
    estimator = spec.build(config)
    start = time.perf_counter()
    estimator.fit(features, sensitive=specs if specs else None)
    fit_seconds = time.perf_counter() - start
    state = estimator.export_state()
    diagnostics: dict[str, Any] = {
        "n": int(features.shape[0]),
        "d": int(features.shape[1]),
        "fit_seconds": round(fit_seconds, 6),
        **state["diagnostics"],
    }
    return ClusterModel(
        centers=state["centers"],
        config=config,
        attributes=attribute_schema(cats, nums),
        diagnostics=diagnostics,
    )


def load(path: Any) -> ClusterModel:
    """Load a saved artifact (alias of :meth:`ClusterModel.load`)."""
    return ClusterModel.load(path)


def evaluate_model(model: ClusterModel, dataset: Any, *, seed: int = 0) -> Any:
    """Score *model*'s assignment of *dataset* with the §5.2 measures.

    Assigns the dataset's feature matrix through the artifact (S-blind)
    and evaluates quality plus per-attribute fairness. Returns the
    :class:`repro.experiments.evaluation.ClusteringEval`.
    """
    from ..experiments.evaluation import evaluate_clustering

    features = dataset.feature_matrix(scale=model.config.scale_features)
    labels = model.assign(features)
    return evaluate_clustering(
        features, dataset, labels, model.k, seed=seed
    )
