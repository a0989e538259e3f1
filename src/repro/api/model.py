"""Portable, versioned clustering artifacts.

A :class:`ClusterModel` is everything a serving process needs to assign
traffic — the fitted centers, the :class:`~repro.api.config.RunConfig`
that produced them, the normalized sensitive-attribute schema fairness
was trained against, and fit diagnostics — decoupled from the process
(and the estimator class) that ran ``fit``.

On disk an artifact is a directory holding two files:

* ``model.json`` — format tag + version, config, attribute schema,
  diagnostics (everything human-auditable);
* ``model.npz``  — the numeric payload (currently just ``centers``).

The format is versioned (:data:`ARTIFACT_VERSION`); loaders reject
artifacts from a newer format so stale services fail loudly instead of
mis-assigning. ``tests/fixtures/cluster_model_v1`` pins v1 against
accidental drift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from .assign import Assigner
from .config import RunConfig

#: Current artifact format version.
ARTIFACT_VERSION = 1

#: Format tag written into (and required from) ``model.json``.
ARTIFACT_FORMAT = "repro.cluster_model"

_JSON_NAME = "model.json"
_NPZ_NAME = "model.npz"


def _json_default(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


@dataclass(eq=False)
class ClusterModel:
    """A fitted clustering, portable across processes and hosts.

    Attributes:
        centers: cluster centers over the non-sensitive features,
            shape ``(k, d)``.
        config: the :class:`RunConfig` that produced the fit.
        attributes: normalized sensitive-attribute schema — one entry
            per attribute the fit consumed, each a plain dict with keys
            ``name``, ``kind`` (``"categorical"`` | ``"numeric"``),
            ``n_values`` (categorical only) and ``weight``.
        diagnostics: JSON-able fit facts (n, d, fit_seconds, objective,
            n_iter, converged, ... — whatever the estimator exported).
        version: artifact format version this instance conforms to.
    """

    centers: np.ndarray = field(repr=False)
    config: RunConfig
    attributes: list[dict[str, Any]] = field(default_factory=list)
    diagnostics: dict[str, Any] = field(default_factory=dict)
    version: int = ARTIFACT_VERSION

    def __post_init__(self) -> None:
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=np.float64))
        self._assigner: Assigner | None = None

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    @property
    def k(self) -> int:
        """Number of clusters."""
        return self.centers.shape[0]

    @property
    def n_features(self) -> int:
        """Dimensionality of the non-sensitive feature space."""
        return self.centers.shape[1]

    @property
    def attribute_names(self) -> list[str]:
        """Names of the sensitive attributes the fit consumed."""
        return [a["name"] for a in self.attributes]

    def summary(self) -> str:
        """One human-readable line per artifact fact."""
        lines = [
            f"method:     {self.config.method}",
            f"k:          {self.k}",
            f"features:   {self.n_features}",
            f"sensitive:  {', '.join(self.attribute_names) or '(none)'}",
            f"version:    {self.version}",
        ]
        for key in sorted(self.diagnostics):
            lines.append(f"{key + ':':<11} {self.diagnostics[key]}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Serving                                                             #
    # ------------------------------------------------------------------ #

    @property
    def assigner(self) -> Assigner:
        """The lazily-built batch-assignment service for these centers."""
        if self._assigner is None:
            self._assigner = Assigner(self.centers)
        return self._assigner

    def assign(
        self,
        points: np.ndarray,
        *,
        chunk_size: int | None = None,
        return_distance: bool = False,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Batch-assign *points* to their nearest center (S-blind).

        Identical to the in-process ``predict`` of the estimator that
        produced this artifact; see :meth:`Assigner.assign` for the
        chunking knob.
        """
        return self.assigner.assign(
            points, chunk_size=chunk_size, return_distance=return_distance
        )

    def assign_iter(
        self,
        source: np.ndarray | Iterable[np.ndarray],
        *,
        chunk_size: int | None = None,
    ) -> Iterator[np.ndarray]:
        """Stream labels for a large matrix or an iterable of batches."""
        return self.assigner.assign_iter(source, chunk_size=chunk_size)

    # Protocol alias so a loaded artifact can stand in for an estimator.
    def predict(self, points: np.ndarray) -> np.ndarray:
        """Alias of :meth:`assign` (estimator-protocol spelling)."""
        return self.assign(points)

    # ------------------------------------------------------------------ #
    # Persistence                                                         #
    # ------------------------------------------------------------------ #

    def save(self, path: str | Path) -> Path:
        """Write the artifact into directory *path* (created on demand).

        Returns the directory path. Layout: ``model.json`` +
        ``model.npz``.
        """
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        # backend / workers are host-execution knobs, not part of the
        # model's identity: persisting them would change the v1 config
        # wire format (older strict readers reject unknown keys) and
        # leak the training box's core count into serving hosts.
        config = self.config.to_dict()
        config.pop("backend")
        config.pop("workers")
        payload = {
            "format": ARTIFACT_FORMAT,
            "version": self.version,
            "config": config,
            "attributes": self.attributes,
            "diagnostics": self.diagnostics,
            "arrays": _NPZ_NAME,
        }
        (directory / _JSON_NAME).write_text(
            json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n",
            encoding="utf-8",
        )
        np.savez(directory / _NPZ_NAME, centers=self.centers)
        return directory

    def publish(
        self, registry_root: str | Path, *, label: str | None = None
    ) -> str:
        """Publish this model into a serving registry; returns the version id.

        Convenience for :meth:`repro.serving.ModelRegistry.publish` —
        saves the artifact as a new version under *registry_root* and
        atomically repoints ``LATEST`` at it (which is what live
        :class:`~repro.serving.server.AssignmentServer` processes
        hot-reload on).
        """
        from ..serving.registry import ModelRegistry

        return ModelRegistry(registry_root).publish(self, label=label)

    @classmethod
    def from_registry(
        cls, registry_root: str | Path, version: str | None = None
    ) -> "ClusterModel":
        """Load a version (default: the ``LATEST`` target) from a registry."""
        from ..serving.registry import ModelRegistry

        return ModelRegistry(registry_root).load(version)

    @classmethod
    def load(cls, path: str | Path) -> "ClusterModel":
        """Load an artifact previously written by :meth:`save`.

        *path* may be the artifact directory or its ``model.json``.

        Raises:
            FileNotFoundError: no artifact at *path*.
            ValueError: not a cluster-model artifact, or written by a
                newer format version than this code understands.
        """
        path = Path(path)
        json_path = path / _JSON_NAME if path.is_dir() else path
        if not json_path.is_file():
            raise FileNotFoundError(f"no cluster-model artifact at {path}")
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        if payload.get("format") != ARTIFACT_FORMAT:
            raise ValueError(
                f"{json_path} is not a {ARTIFACT_FORMAT} artifact "
                f"(format={payload.get('format')!r})"
            )
        version = payload.get("version")
        if not isinstance(version, int) or version < 1:
            raise ValueError(f"{json_path}: invalid artifact version {version!r}")
        if version > ARTIFACT_VERSION:
            raise ValueError(
                f"{json_path}: artifact version {version} is newer than the "
                f"supported version {ARTIFACT_VERSION}; upgrade the library"
            )
        with np.load(json_path.parent / payload.get("arrays", _NPZ_NAME)) as arrays:
            centers = np.asarray(arrays["centers"], dtype=np.float64)
        return cls(
            centers=centers,
            config=RunConfig.from_dict(payload.get("config", {})),
            attributes=list(payload.get("attributes", [])),
            diagnostics=dict(payload.get("diagnostics", {})),
            version=version,
        )
