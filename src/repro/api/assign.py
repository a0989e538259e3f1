"""Batched, chunked nearest-center assignment — the serving hot loop.

Assignment is S-blind by design (§4 of the paper: fairness shapes the
centers during *training*; deployment only reads geometry), which makes
it embarrassingly batchable: route each incoming record to its nearest
center over the non-sensitive features.

:class:`Assigner` owns a fitted center matrix and precomputes the center
norms once, so each served chunk costs one GEMM plus an argmin. Chunking
bounds the working set to ``chunk_size × k`` floats regardless of
request size, which keeps throughput flat from thousands to millions of
rows (``benchmarks/bench_assign.py`` measures it). Chunks are scored one
after another in the calling thread: a thread per chunk never beat the
serial loop, and a server already runs one request per thread.

The per-chunk arithmetic is kept term-for-term identical to
:func:`repro.cluster.distance.nearest_center` so that batch assignment
reproduces the in-process ``predict`` of every estimator exactly.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from ..cluster.distance import squared_norms
from ..core.parallel import as_integral

#: Default serving chunk: big enough to saturate BLAS, small enough to
#: keep the (chunk × k) distance block comfortably in cache/RAM.
DEFAULT_CHUNK_SIZE = 8192


class Assigner:
    """Reusable batch-assignment service over one fitted center matrix.

    Args:
        centers: cluster centers, shape ``(k, d)`` (non-sensitive
            features only).

    Example:
        >>> import numpy as np
        >>> service = Assigner(np.array([[0.0, 0.0], [10.0, 10.0]]))
        >>> service.assign(np.array([[1.0, 0.0], [9.0, 9.0]])).tolist()
        [0, 1]
    """

    def __init__(self, centers: np.ndarray) -> None:
        centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
        if centers.ndim != 2 or centers.shape[0] == 0:
            raise ValueError(f"centers must be a non-empty 2-D array, got {centers.shape}")
        if not np.all(np.isfinite(centers)):
            raise ValueError("centers must be finite")
        self.centers = centers
        # Kept as the same transposed view nearest_center's GEMM sees, so
        # chunked serving matches in-process predict bit for bit.
        self._centers_t = centers.T
        self._center_norms = squared_norms(centers)

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def n_features(self) -> int:
        return self.centers.shape[1]

    def _validated(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {points.shape}")
        if points.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {points.shape[1]}"
            )
        return points

    def _assign_block(
        self,
        points: np.ndarray,
        labels: np.ndarray,
        distances: np.ndarray | None,
        start: int,
        stop: int,
    ) -> None:
        """Label rows ``start:stop``, writing into the output slices."""
        block = points[start:stop]
        # A NaN or inf coordinate makes the row's norm non-finite, and
        # argmin would still hand that row a label: refuse it before
        # paying for the GEMM.
        norms = squared_norms(block)
        if not np.isfinite(norms).all():
            raise ValueError("points must be finite (no NaN or inf)")
        # Same expansion (and operation order) as pairwise_sq_euclidean,
        # with the center norms hoisted out of the loop.
        d2 = block @ self._centers_t
        d2 *= -2.0
        d2 += norms[:, None]
        d2 += self._center_norms[None, :]
        np.maximum(d2, 0.0, out=d2)
        block_labels = np.argmin(d2, axis=1)
        labels[start:stop] = block_labels
        if distances is not None:
            distances[start:stop] = d2[np.arange(block.shape[0]), block_labels]

    def assign(
        self,
        points: np.ndarray,
        *,
        chunk_size: int | None = None,
        return_distance: bool = False,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Label every row of *points* with its nearest center.

        Args:
            points: query matrix ``(n, d)`` (a single ``(d,)`` row is
                promoted).
            chunk_size: rows scored per GEMM (default
                :data:`DEFAULT_CHUNK_SIZE`).
            return_distance: also return the squared distance to the
                assigned center.

        Returns:
            ``labels`` of shape ``(n,)`` — and ``(labels, sq_distances)``
            when *return_distance* is set.
        """
        points = self._validated(points)
        chunk = self._chunk(chunk_size)
        n = points.shape[0]
        labels = np.empty(n, dtype=np.int64)
        distances = np.empty(n, dtype=np.float64) if return_distance else None
        for start in range(0, n, chunk):
            self._assign_block(points, labels, distances, start, min(start + chunk, n))
        if distances is not None:
            return labels, distances
        return labels

    def assign_iter(
        self,
        source: np.ndarray | Iterable[np.ndarray],
        *,
        chunk_size: int | None = None,
        return_distance: bool = False,
    ) -> Iterator[np.ndarray | tuple[np.ndarray, np.ndarray]]:
        """Stream labels for *source*, one chunk at a time.

        This is the producer behind the streamed serving transport
        (:mod:`repro.serving.wire`): each yielded chunk can go straight
        onto the wire while the next one is still being scored.

        Args:
            source: either one big ``(n, d)`` matrix (labelled in
                ``chunk_size`` windows) or an iterable of point batches
                (e.g. a file reader, message queue, or decoded wire
                frames), each labelled as it arrives.
            return_distance: also yield the squared distance to the
                assigned center — each item becomes a
                ``(labels, sq_distances)`` pair.

        Yields:
            1-D label arrays (or ``(labels, sq_distances)`` pairs),
            concatenating to the same result as :meth:`assign` on the
            stacked input.
        """
        chunk = self._chunk(chunk_size)
        if isinstance(source, np.ndarray):
            points = self._validated(source)
            for start in range(0, points.shape[0], chunk):
                yield self.assign(
                    points[start : start + chunk],
                    chunk_size=chunk,
                    return_distance=return_distance,
                )
            return
        for batch in source:
            yield self.assign(
                batch, chunk_size=chunk, return_distance=return_distance
            )

    def _chunk(self, chunk_size: int | None) -> int:
        if chunk_size is None:
            return DEFAULT_CHUNK_SIZE
        chunk = as_integral(chunk_size, "chunk_size")
        if chunk < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk}")
        return chunk


def batched_assign(
    points: np.ndarray,
    centers: np.ndarray,
    *,
    chunk_size: int | None = None,
) -> np.ndarray:
    """One-shot convenience wrapper around :class:`Assigner`."""
    return Assigner(centers).assign(points, chunk_size=chunk_size)
