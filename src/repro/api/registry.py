"""The method registry: ``RunConfig`` → protocol-conforming estimator.

Every clustering method in the repo registers a :class:`MethodSpec`
here. A spec knows how to build its estimator from a
:class:`~repro.api.config.RunConfig` and what scope of sensitive
attributes the method consumes (none / all / one at a time). The
experiment runner, the :func:`repro.api.fit` facade and the CLI all
dispatch through this one switchboard, so registering a new method makes
it available everywhere at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..baselines import BeraFairAssignment, FairKCenter, FairletClustering, ZGYA
from ..cluster.kmeans import KMeans
from ..core.fairkm import FairKM
from ..core.minibatch import MiniBatchFairKM
from .config import RunConfig


@dataclass(frozen=True)
class MethodSpec:
    """One registered clustering method.

    Attributes:
        name: registry key (also the reporting name).
        build: ``(config: RunConfig) -> estimator`` factory; the
            estimator must conform to the shared protocol
            (:class:`repro.core.protocol.ClusteringEstimator`).
        scope: which sensitive attributes the method consumes —
            ``"none"`` (S-blind), ``"all"`` (every attribute at once) or
            ``"per_attribute"`` (one instantiation per attribute).
        handles: for per-attribute methods, a predicate deciding
            whether one sensitive-attribute spec is compatible (e.g.
            fairlets need a binary categorical). Incompatible
            attributes are excluded up front while genuine fit errors
            still propagate. ``None`` means every attribute.
    """

    name: str
    build: Callable[[RunConfig], Any]
    scope: str = "all"
    handles: Callable[[Any], bool] | None = None

    _SCOPES = ("none", "all", "per_attribute")

    def __post_init__(self) -> None:
        if self.scope not in self._SCOPES:
            raise ValueError(f"scope must be one of {self._SCOPES}, got {self.scope!r}")


#: name -> MethodSpec; the single switchboard behind runner, facade, CLI.
METHOD_REGISTRY: dict[str, MethodSpec] = {}


def register_method(
    name: str,
    build: Callable[[RunConfig], Any],
    *,
    scope: str = "all",
    handles: Callable[[Any], bool] | None = None,
) -> MethodSpec:
    """Register (or replace) a method; returns its :class:`MethodSpec`."""
    spec = MethodSpec(name, build, scope, handles)
    METHOD_REGISTRY[name] = spec
    return spec


def get_method(name: str) -> MethodSpec:
    """Look up a registered method, with a helpful error on a miss."""
    try:
        return METHOD_REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown method {name!r}; registered: {sorted(METHOD_REGISTRY)}"
        ) from None


def build_estimator(config: RunConfig) -> Any:
    """Instantiate the estimator *config* describes (not yet fitted)."""
    return get_method(config.method).build(config)


def _is_categorical(spec: Any) -> bool:
    from ..core.attributes import CategoricalSpec

    return isinstance(spec, CategoricalSpec)


def _is_binary_categorical(spec: Any) -> bool:
    return _is_categorical(spec) and spec.n_values == 2


# n_init=10 mirrors the scikit-learn default the paper's S-blind baseline
# would have used; without restarts, Lloyd's is a weaker local search than
# FairKM's point-by-point moves and K-Means(N) would lose its own game
# (best CO), inverting Table 5's ordering.
register_method(
    "kmeans", lambda cfg: KMeans(cfg.k, seed=cfg.seed, n_init=10), scope="none"
)
register_method(
    "fairkm",
    lambda cfg: FairKM(
        cfg.k,
        lambda_=cfg.lambda_,
        max_iter=cfg.max_iter,
        engine=cfg.engine,
        chunk_size=cfg.chunk_size,
        seed=cfg.seed,
    ),
)
register_method(
    "minibatch_fairkm",
    lambda cfg: MiniBatchFairKM(
        cfg.k,
        batch_size=cfg.chunk_size or 256,
        lambda_=cfg.lambda_,
        max_iter=cfg.max_iter,
        seed=cfg.seed,
        backend=cfg.backend,
        workers=cfg.workers,
    ),
)
register_method(
    "zgya",
    lambda cfg: ZGYA(cfg.k, lambda_=cfg.lambda_, seed=cfg.seed),
    scope="per_attribute",
    handles=_is_categorical,
)
register_method("bera", lambda cfg: BeraFairAssignment(cfg.k, seed=cfg.seed))
register_method(
    "fairlets",
    lambda cfg: FairletClustering(cfg.k, seed=cfg.seed),
    scope="per_attribute",
    handles=_is_binary_categorical,
)
register_method(
    "fair_kcenter",
    lambda cfg: FairKCenter(cfg.k, seed=cfg.seed),
    scope="per_attribute",
    handles=_is_categorical,
)
