"""λ-sensitivity sweep (§5.7, Figures 5–7)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..api.config import RunConfig
from ..cluster.kmeans import KMeans
from ..core.fairkm import FairKM
from ..data.dataset import Dataset
from .evaluation import ClusteringEval, evaluate_clustering, mean_evals


@dataclass
class LambdaSweepResult:
    """FairKM behaviour across a λ grid.

    Attributes:
        lambdas: the grid.
        evals: mean-over-seeds evaluation at each λ (CO/SH/DevC/DevO plus
            the fairness report — everything Figures 5, 6 and 7 plot).
    """

    lambdas: list[float]
    evals: list[ClusteringEval] = field(repr=False, default_factory=list)

    def series(self, metric: str) -> list[float]:
        """One plottable series, e.g. ``series("CO")`` or ``series("AE")``."""
        quality = {"CO", "SH", "DevC", "DevO"}
        out = []
        for ev in self.evals:
            if metric in quality:
                out.append(ev.quality_dict()[metric])
            else:
                out.append(ev.fairness.mean[metric])
        return out

    def as_rows(self) -> list[dict[str, float]]:
        """One dict per λ with every figure-5/6/7 metric — CSV-ready."""
        rows = []
        for lam, ev in zip(self.lambdas, self.evals):
            row = {"lambda": lam, **ev.quality_dict()}
            row.update({m: ev.fairness.mean[m] for m in ("AE", "AW", "ME", "MW")})
            rows.append(row)
        return rows


def lambda_sweep(
    dataset: Dataset,
    lambdas: list[float],
    *,
    k: int = 5,
    seeds: tuple[int, ...] = (0, 1, 2),
    max_iter: int = 30,
    scale_features: bool = False,
    silhouette_sample: int | None = 4000,
    engine: str = RunConfig.engine,
    chunk_size: int | None = None,
) -> LambdaSweepResult:
    """Run FairKM across a λ grid, evaluating against per-seed K-Means(N).

    The paper sweeps λ ∈ [1000, 10000] on Kinematics (its Figures 5–7);
    the grid is a parameter so the same code serves other datasets.
    """
    if not lambdas:
        raise ValueError("lambdas must be non-empty")
    features = dataset.feature_matrix(scale=scale_features)
    cats, nums = dataset.sensitive_specs()

    references = {
        seed: KMeans(k, seed=seed).fit(features).labels for seed in seeds
    }
    evals: list[ClusteringEval] = []
    for lam in lambdas:
        per_seed = []
        for seed in seeds:
            fair = FairKM(
                k,
                lambda_=float(lam),
                max_iter=max_iter,
                engine=engine,
                chunk_size=chunk_size,
                seed=seed,
            ).fit(features, categorical=cats, numeric=nums)
            per_seed.append(
                evaluate_clustering(
                    features,
                    dataset,
                    fair.labels,
                    k,
                    reference_labels=references[seed],
                    silhouette_sample=silhouette_sample,
                    seed=seed,
                )
            )
        evals.append(mean_evals(per_seed))
    return LambdaSweepResult(lambdas=[float(x) for x in lambdas], evals=evals)
