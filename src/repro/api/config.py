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

#: Valid FairKM exact sweep strategies (mirrors ``repro.core.engine``).
ENGINES = ("sequential", "chunked")

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
        engine: FairKM exact sweep strategy (one of :data:`ENGINES`):
            ``"chunked"`` (default) makes the same decisions as the
            paper-literal ``"sequential"`` loop, faster. The §6.1
            mini-batch approximation is ``method="minibatch_fairkm"``.
        chunk_size: chunk size of the chunked engine; doubles as the
            ``minibatch_fairkm`` batch size. ``None`` keeps the default.
        backend: execution backend of ``minibatch_fairkm``'s shard
            scoring (one of :data:`BACKENDS`): ``"local"`` scores
            serially in this process (default), ``"multiprocess"`` in
            worker processes over one shared-memory data placement
            (bit-identical results at every worker count). Every other
            method runs serially and refuses a non-default value. A
            host-execution knob, not persisted by ``ClusterModel.save``.
        workers: number of ``"multiprocess"`` worker processes — an
            integer >= 1, -1 or ``"auto"`` (one per usable CPU,
            honoring the ``REPRO_CORE_BUDGET`` env cap). The default 1
            is the only value ``"local"`` and the other methods take.
            Results are bit-identical for every value — the knob only
            trades wall-clock. Not persisted by ``ClusterModel.save``.
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
    engine: str = "chunked"
    chunk_size: int | None = None
    backend: str = "local"
    workers: int | str = 1
    seed: int = 0
    scale_features: bool = True
    sensitive: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        from ..core.lambda_heuristic import check_lambda
        from ..core.parallel import as_integral, validate_workers

        if not self.method or not isinstance(self.method, str):
            raise ValueError(f"method must be a non-empty string, got {self.method!r}")
        for name in ("k", "max_iter", "seed"):
            object.__setattr__(self, name, as_integral(getattr(self, name), name))
        if self.chunk_size is not None:
            object.__setattr__(self, "chunk_size", as_integral(self.chunk_size, "chunk_size"))
        if self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        check_lambda(self.lambda_)
        if self.max_iter <= 0:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")
        if self.engine == "minibatch":
            raise ValueError(
                'engine="minibatch" is gone: the §6.1 mini-batch approximation is '
                'method="minibatch_fairkm" (chunk_size sets its batch size)'
            )
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {self.chunk_size}")
        if self.backend == "remote":
            from ..backend import REMOTE_REMOVED

            raise ValueError(REMOTE_REMOVED)
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        object.__setattr__(self, "workers", validate_workers(self.workers))
        if self.method != "minibatch_fairkm" and (self.backend != "local" or self.workers != 1):
            raise ValueError(
                "backend and workers configure only method='minibatch_fairkm'; "
                f"{self.method!r} runs serially, got backend={self.backend!r}, "
                f"workers={self.workers!r}"
            )
        if self.backend == "local" and self.workers != 1:
            from ..backend import LOCAL_WORKERS_REMOVED

            raise ValueError(f"{LOCAL_WORKERS_REMOVED} (got workers={self.workers!r})")
        if self.sensitive is not None:
            object.__setattr__(self, "sensitive", tuple(str(s) for s in self.sensitive))

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
        the removal error. Configs written while the worker count had a
        second name carry an ``n_jobs`` key, which sets ``workers``
        when that is absent or ``null``. Configs written while the
        mini-batch approximation was also an engine carry
        ``"engine": "minibatch"``: with ``method="fairkm"`` that was
        ``method="minibatch_fairkm"``; other methods ignored the key, so
        it is dropped.
        """
        data = dict(data)
        if data.pop("targets", None):
            from ..backend import REMOTE_REMOVED

            raise ValueError(REMOTE_REMOVED)
        legacy_workers = data.pop("n_jobs", None)
        if data.get("workers") is None and legacy_workers is not None:
            data["workers"] = legacy_workers
        if data.get("engine") == "minibatch":
            del data["engine"]
            if data.get("method", "fairkm") == "fairkm":
                data["method"] = "minibatch_fairkm"
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
