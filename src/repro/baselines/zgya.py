"""ZGYA — "Clustering with Fairness Constraints" (Ziko, Granger, Yuan,
Ben Ayed, 2019), the FairKM paper's primary baseline [22].

The method optimizes, over *soft* assignments ``S ∈ Δᵏ`` (one simplex row
per point),

    E(S) = Σ_p Σ_k s_pk · d_pk  +  λ · Σ_k KL(U ‖ P_k)

where ``d_pk`` is the K-Means distortion of point p under center k, ``U``
is the dataset-level distribution of a **single multi-valued sensitive
attribute** and ``P_k`` the (soft) distribution of that attribute in
cluster k. The fairness penalty is exactly the KL construction the FairKM
paper describes: "the KL-divergence between the probability distribution
across the different values for the sensitive attribute in a cluster, and
the corresponding distribution for the whole dataset" (§2.2).

Optimization is the authors' bound-optimization scheme: holding centers
fixed, iterate multiplicative updates

    s_pk ← s_pk · exp(−(d_pk + λ · g_pk)),   then row-normalize,

with ``g_pk = 1/A_k − U_{j(p)} / B_{j(p),k}`` the gradient of the fairness
penalty (``A_k`` soft cluster mass, ``B_{j,k}`` soft mass of group j in
cluster k); then recompute centers from the soft assignments and repeat.
Distances are normalized by their global mean so λ has a stable scale
across datasets.

Single attribute by design: the FairKM paper stresses that ZGYA "is
designed for a single multi-valued sensitive attribute and does not
generalize to multiple such sensitive attributes", and benchmarks it one
attribute at a time — which is precisely this class's contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..cluster.distance import pairwise_sq_euclidean
from ..cluster.init import initial_centers
from ..core.attributes import single_categorical
from ..core.lambda_heuristic import check_lambda
from ..core.protocol import EstimatorMixin

_EPS = 1e-12


@dataclass
class ZGYAResult:
    """Outcome of a ZGYA fit.

    Attributes:
        labels: hard labels (argmax of the final soft assignment).
        soft: final soft assignment matrix, shape ``(n, k)``.
        centers: final centers over the non-sensitive attributes.
        energy: final E(S) value (normalized-distance scale).
        fairness_penalty: final Σ_k KL(U ‖ P_k).
        n_iter: outer iterations executed.
        converged: True when hard labels stabilized before the cap.
        energy_history: E(S) after each outer iteration.
    """

    labels: np.ndarray
    soft: np.ndarray
    centers: np.ndarray
    energy: float
    fairness_penalty: float
    n_iter: int
    converged: bool
    energy_history: list[float] = field(default_factory=list)


class ZGYA(EstimatorMixin):
    """Fair clustering with a KL fairness penalty (single attribute).

    Args:
        k: number of clusters.
        lambda_: fairness weight on the KL penalty. The distortion term
            sums one mean-normalized O(1) contribution per point while the
            KL penalty sums one O(1) contribution per cluster, so the
            balanced weight grows with n; the default ``"auto"`` resolves
            to ``max(10, n/32)`` at fit time — calibrated on both paper
            workloads to improve fairness without tipping into the
            instability regime that multiplicative updates enter at large
            λ (≳ n/2; see ``benchmarks/bench_ablation_zgya_lambda.py`` for
            that cliff, which reproduces the degenerate ZGYA behaviour
            the FairKM paper reports on Adult).
        max_iter: outer (center-update) iteration cap.
        inner_iter: multiplicative assignment updates per outer iteration.
        init: center initialization strategy (see ``repro.cluster.init``).
        seed: RNG seed or generator.
    """

    def __init__(
        self,
        k: int,
        *,
        lambda_: float | str = "auto",
        max_iter: int = 60,
        inner_iter: int = 10,
        init: str = "kmeans++",
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        check_lambda(lambda_)
        if max_iter <= 0 or inner_iter <= 0:
            raise ValueError("max_iter and inner_iter must be positive")
        self.k = k
        self.lambda_ = lambda_
        self.max_iter = max_iter
        self.inner_iter = inner_iter
        self.init = init
        self._rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    def fit(
        self,
        points: np.ndarray,
        codes: np.ndarray | None = None,
        n_values: int | None = None,
        *,
        sensitive: Any = None,
    ) -> ZGYAResult:
        """Cluster *points* fairly w.r.t. one categorical attribute.

        Args:
            points: non-sensitive feature matrix ``(n, d)``.
            codes: integer value codes of the sensitive attribute, ``(n,)``.
            n_values: attribute cardinality (inferred when omitted).
            sensitive: protocol-style alternative to ``codes``; must
                normalize to exactly one categorical attribute.

        Returns:
            A :class:`ZGYAResult`.
        """
        if sensitive is not None:
            if codes is not None:
                raise ValueError("pass either codes or sensitive=, not both")
            codes, n_values = single_categorical(sensitive, "ZGYA")
        if codes is None:
            raise ValueError("ZGYA needs a sensitive attribute (codes or sensitive=)")
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        codes = np.asarray(codes)
        if codes.shape != (points.shape[0],):
            raise ValueError("codes must align with points")
        if not np.issubdtype(codes.dtype, np.integer):
            raise ValueError("codes must be integers")
        n = points.shape[0]
        if n < self.k:
            raise ValueError(f"need at least k={self.k} points, got {n}")
        t = int(n_values) if n_values else int(codes.max()) + 1
        if codes.min() < 0 or codes.max() >= t:
            raise ValueError(f"codes must lie in [0, {t})")
        lam = max(10.0, n / 32.0) if isinstance(self.lambda_, str) else float(self.lambda_)

        # Group membership masks and dataset distribution U.
        masks = [codes == j for j in range(t)]
        u = np.array([m.sum() for m in masks], dtype=np.float64) / n
        present = u > 0

        centers = initial_centers(points, self.k, self.init, self._rng)
        soft = np.full((n, self.k), 1.0 / self.k)
        # Warm-start the simplex rows toward the nearest initial center.
        d2 = pairwise_sq_euclidean(points, centers)
        nearest = np.argmin(d2, axis=1)
        soft[np.arange(n), nearest] += 1.0
        soft /= soft.sum(axis=1, keepdims=True)

        scale = float(d2.mean()) or 1.0
        labels = np.argmax(soft, axis=1)
        history: list[float] = []
        converged = False
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            # --- center update from soft assignments ------------------- #
            mass = soft.sum(axis=0)  # (k,)
            safe_mass = np.maximum(mass, _EPS)
            centers = (soft.T @ points) / safe_mass[:, None]
            d = pairwise_sq_euclidean(points, centers) / scale

            # --- bound-optimization assignment updates ----------------- #
            for _ in range(self.inner_iter):
                a = np.maximum(soft.sum(axis=0), _EPS)  # (k,)
                grad = np.empty_like(soft)
                inv_a = 1.0 / a
                for j in range(t):
                    if not present[j]:
                        continue
                    b_jk = np.maximum(soft[masks[j]].sum(axis=0), _EPS)  # (k,)
                    grad[masks[j]] = inv_a[None, :] - u[j] / b_jk[None, :]
                exponent = -(d + lam * grad)
                exponent -= exponent.max(axis=1, keepdims=True)
                soft = soft * np.exp(exponent)
                soft = np.maximum(soft, _EPS)
                soft /= soft.sum(axis=1, keepdims=True)

            history.append(self._energy(d, soft, masks, u, present, lam))
            new_labels = np.argmax(soft, axis=1)
            if np.array_equal(new_labels, labels) and n_iter > 1:
                converged = True
                labels = new_labels
                break
            labels = new_labels

        mass = np.maximum(soft.sum(axis=0), _EPS)
        centers = (soft.T @ points) / mass[:, None]
        d = pairwise_sq_euclidean(points, centers) / scale
        self.result_ = ZGYAResult(
            labels=labels,
            soft=soft,
            centers=centers,
            energy=self._energy(d, soft, masks, u, present, lam),
            fairness_penalty=self._kl_penalty(soft, masks, u, present),
            n_iter=n_iter,
            converged=converged,
            energy_history=history,
        )
        return self.result_

    def _kl_penalty(
        self,
        soft: np.ndarray,
        masks: list[np.ndarray],
        u: np.ndarray,
        present: np.ndarray,
    ) -> float:
        """Σ_k KL(U ‖ P_k) over the soft cluster distributions."""
        a = np.maximum(soft.sum(axis=0), _EPS)
        total = 0.0
        for j, mask in enumerate(masks):
            if not present[j]:
                continue
            p_jk = np.maximum(soft[mask].sum(axis=0), _EPS) / a
            total += float(np.sum(u[j] * np.log(u[j] / p_jk)))
        return total

    def _energy(
        self,
        d: np.ndarray,
        soft: np.ndarray,
        masks: list[np.ndarray],
        u: np.ndarray,
        present: np.ndarray,
        lam: float,
    ) -> float:
        return float(np.sum(soft * d)) + lam * self._kl_penalty(
            soft, masks, u, present
        )


def zgya_fit(
    points: np.ndarray,
    codes: np.ndarray,
    k: int,
    *,
    seed: int | np.random.Generator | None = None,
    **kwargs,
) -> ZGYAResult:
    """Convenience wrapper: ``ZGYA(k, seed=seed, **kwargs).fit(points, codes)``."""
    return ZGYA(k, seed=seed, **kwargs).fit(points, codes)
