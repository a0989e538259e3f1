"""Multi-seed experiment runner reproducing the paper's §5.5 protocol.

Methods are driven through the public **method registry**
(:mod:`repro.api.registry`): each entry knows how to build its
protocol-conforming estimator from a :class:`repro.api.RunConfig` and
what scope of sensitive attributes it consumes (none / all / one at a
time). A :class:`SuiteConfig` is the suite-level layer on top — it
derives one ``RunConfig`` per (method, seed) via
:meth:`SuiteConfig.run_config`. The §5.5 protocol itself is expressed
on top of the registry:

* **K-Means(N)** — the S-blind baseline (also the DevC/DevO reference);
* **FairKM** — one instantiation over *all* sensitive attributes;
* **ZGYA(S)** — one instantiation *per* sensitive attribute (the method
  handles only one), whose quality metrics are averaged into "Avg ZGYA"
  and whose fairness on its own attribute feeds the paper's "synthetically
  favorable" comparison of Table 6/8;
* **FairKM(S)** — optional per-attribute FairKM runs for Figures 1–4.

Additional registered methods (``minibatch_fairkm``, ``bera``,
``fairlets``, ``fair_kcenter``) can ride along any suite via
``SuiteConfig.extra_methods``; their mean evaluations land in
``SuiteResult.extra``.

Means across seeds are the reported statistics, exactly as in the paper
(which uses 100 random instantiations; the seed count here is a knob).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..api.config import RunConfig
from ..api.registry import (
    METHOD_REGISTRY,
    MethodSpec as MethodSpec,  # re-exported: historical home of the registry
    register_method as register_method,
)
from ..data.dataset import Dataset
from .evaluation import ClusteringEval, evaluate_clustering, mean_evals


@dataclass(frozen=True)
class SuiteConfig:
    """Configuration of one experiment suite.

    Attributes:
        k: number of clusters.
        seeds: random seeds; one full protocol run per seed.
        fairkm_lambda: λ for FairKM ("auto" → (n/k)², §5.4).
        zgya_lambda: λ for ZGYA ("auto" → n/2).
        fairkm_max_iter: FairKM iteration cap (paper: 30).
        scale_features: standardize the feature matrix (True for Adult;
            False for embedding spaces like Kinematics).
        silhouette_sample: subsample bound for silhouette.
        per_attribute_fairkm: also run FairKM(S) per attribute (needed by
            Figures 1–4; costs |S| extra FairKM fits per seed).
        engine: FairKM exact sweep strategy (``"chunked"`` |
            ``"sequential"``; default :attr:`RunConfig.engine`),
            threaded into every FairKM build.
        chunk_size: chunk size for the chunked engine (``None`` keeps
            the engine default); doubles as the ``minibatch_fairkm``
            batch size.
        extra_methods: additional registry method names to evaluate
            alongside the paper protocol.
    """

    k: int = 5
    seeds: tuple[int, ...] = (0, 1, 2)
    fairkm_lambda: float | str = "auto"
    zgya_lambda: float | str = "auto"
    fairkm_max_iter: int = 30
    scale_features: bool = True
    silhouette_sample: int | None = 4000
    per_attribute_fairkm: bool = False
    engine: str = RunConfig.engine
    chunk_size: int | None = None
    extra_methods: tuple[str, ...] = ()

    def run_config(self, method: str, seed: int) -> RunConfig:
        """Derive the :class:`RunConfig` for one (method, seed) run.

        λ is method-aware: ZGYA runs get ``zgya_lambda``, everything
        else ``fairkm_lambda`` (the S-blind methods ignore it).
        """
        return RunConfig(
            method=method,
            k=self.k,
            lambda_=self.zgya_lambda if method == "zgya" else self.fairkm_lambda,
            max_iter=self.fairkm_max_iter,
            engine=self.engine,
            chunk_size=self.chunk_size,
            seed=seed,
            scale_features=self.scale_features,
        )


@dataclass
class SuiteResult:
    """Aggregated (mean-over-seeds) results of a suite.

    Attributes:
        config: the suite configuration.
        kmeans: evaluation of K-Means(N).
        fairkm: evaluation of FairKM over all S.
        zgya_avg_quality: "Avg. ZGYA" quality (CO/SH/DevC/DevO averaged
            over per-attribute invocations).
        zgya_per_attribute: attribute → evaluation of ZGYA(S) (fairness
            numbers are meaningful for that attribute).
        fairkm_per_attribute: attribute → evaluation of FairKM(S), when
            requested.
        attribute_names: sensitive attributes, in dataset order.
        extra: method name → mean evaluation for every
            ``SuiteConfig.extra_methods`` entry (per-attribute methods
            are averaged over the attributes they handled).
        extra_attributes: method name → the attributes a per-attribute
            extra method was actually evaluated on (its ``handles``
            predicate may exclude some); scope-``none``/``all`` methods
            map to every attribute name.
    """

    config: SuiteConfig
    kmeans: ClusteringEval
    fairkm: ClusteringEval
    zgya_avg_quality: ClusteringEval
    zgya_per_attribute: dict[str, ClusteringEval]
    fairkm_per_attribute: dict[str, ClusteringEval] = field(default_factory=dict)
    attribute_names: list[str] = field(default_factory=list)
    extra: dict[str, ClusteringEval] = field(default_factory=dict)
    extra_attributes: dict[str, list[str]] = field(default_factory=dict)

    def improvement_pct(self, attribute: str, metric: str) -> float:
        """FairKM's % improvement over the best baseline (paper's Impr%).

        The baselines are K-Means(N) and the attribute-targeted ZGYA(S);
        positive means FairKM (all-S) is better (lower deviation).
        """
        fair = self.fairkm.fairness.attribute(attribute)[metric] if attribute != "mean" \
            else self.fairkm.fairness.mean[metric]
        if attribute == "mean":
            km = self.kmeans.fairness.mean[metric]
            zg = float(np.mean([
                e.fairness.attribute(a)[metric]
                for a, e in self.zgya_per_attribute.items()
            ]))
        else:
            km = self.kmeans.fairness.attribute(attribute)[metric]
            zg = self.zgya_per_attribute[attribute].fairness.attribute(attribute)[metric]
        best = min(km, zg)
        if best == 0:
            return 0.0
        return 100.0 * (best - fair) / best


def run_suite(dataset: Dataset, config: SuiteConfig) -> SuiteResult:
    """Execute the full §5.5 protocol on *dataset*.

    Returns mean-over-seeds evaluations for every method.
    """
    features = dataset.feature_matrix(scale=config.scale_features)
    cats, nums = dataset.sensitive_specs()
    all_specs = [*cats, *nums]
    attr_names = dataset.sensitive_names
    sensitive_cols = [c for c in dataset.columns() if c.name in attr_names]
    k = config.k
    for name in config.extra_methods:
        if name not in METHOD_REGISTRY:
            raise KeyError(
                f"unknown method {name!r}; registered: {sorted(METHOD_REGISTRY)}"
            )

    km_evals: list[ClusteringEval] = []
    fair_evals: list[ClusteringEval] = []
    zgya_quality: list[ClusteringEval] = []
    zgya_attr: dict[str, list[ClusteringEval]] = {a: [] for a in attr_names}
    fairkm_attr: dict[str, list[ClusteringEval]] = {a: [] for a in attr_names}
    extra_evals: dict[str, list[ClusteringEval]] = {m: [] for m in config.extra_methods}
    extra_attributes: dict[str, list[str]] = {
        m: list(attr_names)
        for m in config.extra_methods
        if METHOD_REGISTRY[m].scope in ("none", "all")
    }

    for seed in config.seeds:
        evaluate = lambda labels, ref: evaluate_clustering(  # noqa: E731
            features,
            dataset,
            labels,
            k,
            reference_labels=ref,
            silhouette_sample=config.silhouette_sample,
            seed=seed,
        )

        def run_method(name: str, sensitive: Any) -> np.ndarray:
            estimator = METHOD_REGISTRY[name].build(config.run_config(name, seed))
            return estimator.fit_predict(features, sensitive=sensitive)

        blind = run_method("kmeans", None)
        km_evals.append(evaluate(blind, None))

        fair_evals.append(evaluate(run_method("fairkm", all_specs), blind))

        for col in sensitive_cols:
            single_cats, single_nums = dataset.sensitive_specs(names=[col.name])
            single = [*single_cats, *single_nums]
            ev = evaluate(run_method("zgya", single), blind)
            zgya_quality.append(ev)
            zgya_attr[col.name].append(ev)
            if config.per_attribute_fairkm:
                fairkm_attr[col.name].append(
                    evaluate(run_method("fairkm", single), blind)
                )

        for name in config.extra_methods:
            spec = METHOD_REGISTRY[name]
            if spec.scope == "none":
                extra_evals[name].append(evaluate(run_method(name, None), blind))
            elif spec.scope == "all":
                extra_evals[name].append(evaluate(run_method(name, all_specs), blind))
            else:  # per_attribute: average over the compatible attributes
                per_attr: list[ClusteringEval] = []
                used: list[str] = []
                for col in sensitive_cols:
                    single_cats, single_nums = dataset.sensitive_specs(names=[col.name])
                    single = [*single_cats, *single_nums]
                    if spec.handles is not None and not spec.handles(single[0]):
                        continue  # e.g. fairlets on a non-binary attribute
                    per_attr.append(evaluate(run_method(name, single), blind))
                    used.append(col.name)
                if not per_attr:
                    raise ValueError(
                        f"method {name!r} is compatible with no sensitive attribute "
                        f"of dataset {dataset.name!r}"
                    )
                extra_attributes[name] = used
                extra_evals[name].append(mean_evals(per_attr))

    return SuiteResult(
        config=config,
        kmeans=mean_evals(km_evals),
        fairkm=mean_evals(fair_evals),
        zgya_avg_quality=mean_evals(zgya_quality),
        zgya_per_attribute={a: mean_evals(v) for a, v in zgya_attr.items()},
        fairkm_per_attribute={
            a: mean_evals(v) for a, v in fairkm_attr.items() if v
        },
        attribute_names=list(attr_names),
        extra={m: mean_evals(v) for m, v in extra_evals.items()},
        extra_attributes=extra_attributes,
    )
