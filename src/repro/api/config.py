"""Typed, JSON-round-trippable run configuration.

:class:`RunConfig` is the single object that fully specifies a
clustering run — method, k, λ, engine, chunk size, iteration cap, seed,
feature scaling, and the sensitive-attribute selection. It replaces the
former ``REPRO_*`` environment-variable side channel end to end: the CLI
builds one, :func:`repro.api.fit` consumes one, and every fitted
:class:`~repro.api.model.ClusterModel` artifact embeds the one that
produced it.

The class is deliberately dependency-free (no numpy, no registry import
at module scope) so any layer can import it without cycles.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Any

#: Valid FairKM sweep strategies (mirrors ``repro.core.engine``).
ENGINES = ("sequential", "chunked", "minibatch")

#: Valid training execution backends (mirrors ``repro.backend``).
BACKENDS = ("local", "multiprocess")


@dataclass(frozen=True)
class RunConfig:
    """Complete specification of one clustering run.

    Attributes:
        method: registry key of the clustering method (``"fairkm"``,
            ``"kmeans"``, ``"minibatch_fairkm"``, ``"zgya"``, ``"bera"``,
            ``"fairlets"``, ``"fair_kcenter"``, or anything registered
            via :func:`repro.api.registry.register_method`).
        k: number of clusters.
        lambda_: fairness weight λ; ``"auto"`` applies the method's own
            heuristic (FairKM: ``(n/k)²``, §5.4).
        max_iter: iteration cap for the iterative optimizers.
        engine: FairKM sweep strategy (one of :data:`ENGINES`).
        chunk_size: chunk size of the chunked engine; doubles as the
            mini-batch size. ``None`` keeps the engine default.
        n_jobs: worker threads for the parallel hot paths (chunked /
            mini-batch sweep scoring and batch assignment): 1 serial
            (default), -1 one per CPU. Results are bit-identical for
            every value — the knob only trades wall-clock. A
            host-execution knob: ``ClusterModel.save`` does not persist
            it, so loaded artifacts serve serially unless the host
            passes ``assign(n_jobs=...)`` explicitly. For training it
            is the backward-compatible alias of the execution spec:
            ``workers`` inherits it when unset.
        backend: training execution backend (one of :data:`BACKENDS`):
            ``"local"`` scores in a thread pool (default),
            ``"multiprocess"`` in worker processes over one
            shared-memory data placement (bit-identical results at
            every worker count). A host-execution knob like ``n_jobs``
            — not persisted by ``ClusterModel.save``.
        workers: worker count for *backend* — an integer >= 1, -1 or
            ``"auto"`` (one per usable CPU, honoring the
            ``REPRO_CORE_BUDGET`` env cap); ``None`` (default) inherits
            ``n_jobs``. Results are bit-identical for every value. Not
            persisted by ``ClusterModel.save``.
        seed: RNG seed (one fit is fully deterministic given the seed).
        scale_features: z-score numeric features when fitting from a
            ``Dataset`` (True for Adult; False for embedding spaces).
        sensitive: restrict the sensitive attributes to these names
            (order-preserving); ``None`` uses everything provided.
    """

    method: str = "fairkm"
    k: int = 5
    lambda_: float | str = "auto"
    max_iter: int = 30
    engine: str = "sequential"
    chunk_size: int | None = None
    n_jobs: int = 1
    backend: str = "local"
    workers: int | str | None = None
    seed: int = 0
    scale_features: bool = True
    sensitive: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.method or not isinstance(self.method, str):
            raise ValueError(f"method must be a non-empty string, got {self.method!r}")
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if isinstance(self.lambda_, str):
            if self.lambda_ != "auto":
                raise ValueError(f'lambda_ must be a number or "auto", got {self.lambda_!r}')
        elif float(self.lambda_) < 0:
            raise ValueError(f"lambda_ must be non-negative, got {self.lambda_}")
        if self.max_iter <= 0:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {self.chunk_size}")
        from ..core.parallel import validate_n_jobs, validate_workers

        validate_n_jobs(self.n_jobs)
        if self.backend == "remote":
            from ..backend import REMOTE_REMOVED

            raise ValueError(REMOTE_REMOVED)
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.workers is not None:
            validate_workers(self.workers, field="workers")
        if self.sensitive is not None:
            object.__setattr__(self, "sensitive", tuple(str(s) for s in self.sensitive))

    @property
    def effective_workers(self) -> int | str:
        """Training worker spec: ``workers``, or its ``n_jobs`` alias."""
        return self.workers if self.workers is not None else self.n_jobs

    # ------------------------------------------------------------------ #
    # JSON round trip                                                     #
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """Plain-data representation (tuples become lists)."""
        data = asdict(self)
        if data["sensitive"] is not None:
            data["sensitive"] = list(data["sensitive"])
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunConfig":
        """Inverse of :meth:`to_dict`; unknown keys are rejected.

        Configs written while the remote backend existed carry
        ``"targets": null``, which is dropped; fleet URLs in it raise
        the removal error.
        """
        data = dict(data)
        if data.pop("targets", None):
            from ..backend import REMOTE_REMOVED

            raise ValueError(REMOTE_REMOVED)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown RunConfig keys {sorted(unknown)}; known: {sorted(known)}"
            )
        if data.get("sensitive") is not None:
            data["sensitive"] = tuple(data["sensitive"])
        return cls(**data)

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))

    def with_overrides(self, **overrides: Any) -> "RunConfig":
        """New config with the non-``None`` overrides applied."""
        changes = {name: value for name, value in overrides.items() if value is not None}
        return replace(self, **changes) if changes else self
