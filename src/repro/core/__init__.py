"""FairKM core: the paper's contribution.

Public surface:

* :class:`FairKM` / :func:`fairkm_fit` — the algorithm (Alg. 1).
* :class:`MiniBatchFairKM` — the §6.1 mini-batch extension.
* :class:`CategoricalSpec` / :class:`NumericSpec` — sensitive attributes,
  with per-attribute fairness weights (Eq. 23);
  :func:`normalize_sensitive` — the adapter behind every estimator's
  ``sensitive=`` keyword.
* :mod:`repro.core.engine` — the shared optimizer engine with pluggable
  sweep strategies (:data:`SWEEP_STRATEGIES`, :func:`make_sweep`).
* :mod:`repro.core.protocol` — the ``fit`` / ``fit_predict`` /
  ``predict`` estimator protocol every clustering method conforms to.
* :func:`default_lambda` — the §5.4 ``(n/k)²`` heuristic.
* :class:`ClusterState` — incremental objective engine (exposed for power
  users and tests).
* :mod:`repro.core.objective` — direct, non-incremental objective
  evaluation (ground truth).
"""

from .attributes import (
    CategoricalSpec,
    NumericSpec,
    normalize_sensitive,
    single_categorical,
    validate_specs,
)
from .config import FairKMConfig, FairKMResult
from .engine import (
    SWEEP_STRATEGIES,
    ChunkedSweep,
    MiniBatchSweep,
    OptimizerEngine,
    SequentialSweep,
    SweepStrategy,
    make_sweep,
)
from .fairkm import FairKM, fairkm_fit
from .lambda_heuristic import default_lambda, resolve_lambda
from .minibatch import MiniBatchFairKM
from .objective import (
    categorical_deviation,
    fairkm_objective,
    fairness_term,
    kmeans_term,
    numeric_deviation,
)
from .protocol import ClusteringEstimator, EstimatorMixin, NotFittedError
from .state import ClusterState

__all__ = [
    "SWEEP_STRATEGIES",
    "CategoricalSpec",
    "ChunkedSweep",
    "ClusterState",
    "ClusteringEstimator",
    "EstimatorMixin",
    "FairKM",
    "FairKMConfig",
    "FairKMResult",
    "MiniBatchFairKM",
    "MiniBatchSweep",
    "NotFittedError",
    "NumericSpec",
    "OptimizerEngine",
    "SequentialSweep",
    "SweepStrategy",
    "categorical_deviation",
    "default_lambda",
    "fairkm_fit",
    "fairkm_objective",
    "fairness_term",
    "kmeans_term",
    "make_sweep",
    "normalize_sensitive",
    "numeric_deviation",
    "resolve_lambda",
    "single_categorical",
    "validate_specs",
]
