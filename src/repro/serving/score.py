"""Score-path codec, data artifacts, and the fleet shard scorer.

This module is the contract of the ``POST /score`` route: how a driver
(:class:`repro.backend.remote.RemoteBackend`) packs one shard of a
scoring round into a ``repro.serving.wire`` stream, and how a fleet
worker unpacks it, scores it through the **same**
:func:`repro.core.state.shard_move_deltas` expression sequence as an
in-process fit, and streams the ``(b, k)`` delta matrix back. Because
both ends funnel through that one pure function, a remote fit is
bit-for-bit identical to a local one.

Request stream layout (content type ``application/x-repro-stream``)::

    frame 0   meta        uint8 array of UTF-8 JSON (see below)
    frames    npy arrays  fixed order per mode

Meta JSON: ``{"v": 1, "mode": "inline"|"artifact", "rows": b,
"cats": C, "nums": M}`` plus, in artifact mode, ``"artifact"`` (the
data-artifact name) and ``"k"``.

*Inline* mode ships the shard's gathered data rows and the round's
frozen statistics — the worker needs no local data at all. Frame order
after meta::

    consts [lambda_, n2] · xb (b,d) · x2 (b,) · cur (b,) i64
    · sums (k,d) · sum_sqnorm (k,) · sizes_f (k,)
    then per categorical attribute:  codes (b,) i64 · p (v,)
        · [p2, norm] · counts (k,v) · h (k,)
    then per numeric attribute:      y (b,) · [weight] · d (k,)

*Artifact* mode ships only row indices, labels, and the frozen
statistics; the worker maps the static data (points + attribute specs)
from a registry-published **data artifact** and rebuilds a scoring
:class:`~repro.core.state.ClusterState` once, cached across rounds —
this is what lets fits scale past what the driver can ship per round.
Frame order after meta::

    consts [lambda_] · indices (b,) i64 · labels (b,) i64
    · sums · sum_sqnorm · sizes_f
    then per categorical attribute: counts (k,v) · h (k,)
    then per numeric attribute:     d (k,)

Data artifacts are content-addressed files under ``<registry>/data/``
(``d-<sha256[:16]>.rsw``) so every worker sharing the registry resolves
the same bytes; publishing is idempotent and atomic (write-temp +
``os.replace``), and the name can never collide with model version
directories (those match ``v\\d{4,}...``). Numeric attribute values are
stored *post*-standardization and rebuilt with ``standardize=False`` —
re-standardizing an already unit-variance column divides by a std of
1.0±ulp and shifts bits (the same rule the multiprocess backend
follows).

The response is a stream with a single ``(b, k)`` float64 deltas frame.

Every malformed request maps to :class:`ScoreFormatError` (a
:class:`~repro.serving.wire.WireFormatError`) so the server can answer
with a typed 400 instead of a 500.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import re
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any

import numpy as np

from ..core.attributes import CategoricalSpec, NumericSpec
from ..core.state import ClusterState, shard_move_deltas, split_categorical, stack_categorical
from .wire import (
    StreamReader,
    WireFormatError,
    encode_stream,
    iter_encode,
)

#: Score-protocol version (meta frame ``"v"``).
SCORE_VERSION = 1

#: Subdirectory of a registry root holding data artifacts.
ARTIFACT_DIR = "data"

#: Data-artifact names: content hash, never a model version id.
_ARTIFACT_RE = re.compile(r"^d-[0-9a-f]{16}$")

#: Meta frame ``"kind"`` of a data-artifact file.
ARTIFACT_KIND = "repro.data/v1"

#: How many rebuilt scoring states one worker keeps across requests.
STATE_CACHE_SIZE = 2


class ScoreFormatError(WireFormatError):
    """The /score request is structurally invalid (typed 400)."""


def _meta_array(meta: dict[str, Any]) -> np.ndarray:
    """A JSON object as a uint8 npy frame (the stream's frame 0)."""
    return np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)


def _parse_meta(frame: np.ndarray) -> dict[str, Any]:
    if frame.dtype != np.uint8 or frame.ndim != 1:
        raise ScoreFormatError(
            f"meta frame must be a 1-D uint8 array, got {frame.dtype} {frame.shape}"
        )
    try:
        meta = json.loads(bytes(frame).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ScoreFormatError(f"meta frame is not valid JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ScoreFormatError(f"meta frame must be a JSON object, got {type(meta).__name__}")
    return meta


def _f64(name: str, frame: np.ndarray, ndim: int) -> np.ndarray:
    if frame.ndim != ndim or frame.dtype != np.float64:
        raise ScoreFormatError(
            f"frame {name!r} must be {ndim}-D float64, got {frame.dtype} {frame.shape}"
        )
    if not np.isfinite(frame).all():
        raise ScoreFormatError(f"frame {name!r} holds non-finite values")
    return frame


def _i64(name: str, frame: np.ndarray) -> np.ndarray:
    if frame.ndim != 1 or frame.dtype != np.int64:
        raise ScoreFormatError(
            f"frame {name!r} must be 1-D int64, got {frame.dtype} {frame.shape}"
        )
    return frame


def request_frame_count(mode: str, cats: int, nums: int) -> int:
    """Frames in one /score request (meta included), per mode.

    The single source of truth for the frame-order tables in this
    module's docstring — the encoder's byte counter and the decoder's
    structure check both call it.
    """
    if mode == "inline":
        return 8 + 5 * cats + 3 * nums
    if mode == "artifact":
        return 7 + 2 * cats + nums
    raise ScoreFormatError(f"unknown /score mode {mode!r}")


# --------------------------------------------------------------------- #
# Request encoding (driver side)                                          #
# --------------------------------------------------------------------- #


def encode_score_request(
    state: ClusterState,
    shard: np.ndarray,
    lambda_: float,
    *,
    codec: str = "identity",
    artifact: str | None = None,
) -> bytes:
    """One shard of a scoring round as a /score request body.

    Args:
        state: the driver's live state (statistics are snapshotted by
            serialization — encode within the no-mutation window).
        shard: row indices of this shard, as produced by
            :meth:`repro.backend.base.Backend.shard`.
        lambda_: the round's fairness trade-off.
        codec: wire compression for the request frames.
        artifact: a published data-artifact name switches the payload to
            artifact mode (indices + stats only); ``None`` ships the
            shard rows inline.
    """
    shard = np.asarray(shard, dtype=np.int64)
    lam = float(lambda_)
    sizes = [spec.n_values for spec in state.categorical_specs]
    if artifact is not None:
        stats = state.export_scoring_stats()
        meta = {
            "v": SCORE_VERSION,
            "mode": "artifact",
            "rows": int(shard.shape[0]),
            "cats": len(sizes),
            "nums": len(stats["num_d"]),
            "artifact": artifact,
            "k": int(state.k),
        }
        frames: list[np.ndarray] = [
            _meta_array(meta),
            np.asarray([lam], dtype=np.float64),
            shard,
            np.asarray(state.labels[shard], dtype=np.int64),
            np.asarray(stats["sums"]),
            np.asarray(stats["sum_sqnorm"]),
            np.asarray(stats["sizes_f"]),
        ]
        cats = state.export_shard_inline(shard[:0])["cats"]
        for _, _, _, counts, h, _ in split_categorical(cats, sizes):
            frames.extend([counts, np.asarray(h)])
        frames.extend(np.asarray(d) for d in stats["num_d"])
        return encode_stream(frames, codec=codec)

    inline = state.export_shard_inline(shard)
    meta = {
        "v": SCORE_VERSION,
        "mode": "inline",
        "rows": int(shard.shape[0]),
        "cats": len(sizes),
        "nums": len(inline["nums"]),
    }
    frames = [
        _meta_array(meta),
        np.asarray([lam, inline["n2"]], dtype=np.float64),
        np.asarray(inline["xb"]),
        np.asarray(inline["x2"]),
        np.asarray(inline["cur"], dtype=np.int64),
        np.asarray(inline["sums"]),
        np.asarray(inline["sum_sqnorm"]),
        np.asarray(inline["sizes_f"]),
    ]
    for codes_b, p, p2, counts, h, norm in split_categorical(inline["cats"], sizes):
        frames.extend(
            [
                np.asarray(codes_b, dtype=np.int64),
                np.asarray(p),
                np.asarray([p2, norm], dtype=np.float64),
                np.asarray(counts),
                np.asarray(h),
            ]
        )
    for y, weight, d in inline["nums"]:
        frames.extend(
            [np.asarray(y), np.asarray([weight], dtype=np.float64), np.asarray(d)]
        )
    return encode_stream(frames, codec=codec)


def encode_score_response(deltas: np.ndarray, codec: str = "identity"):
    """The response stream pieces for one scored shard (chunked write)."""
    return iter_encode([np.ascontiguousarray(deltas, dtype=np.float64)], codec)


def decode_score_response(payload: bytes, *, rows: int, k: int) -> np.ndarray:
    """Decode and validate a /score response body → ``(rows, k)`` deltas."""
    reader = StreamReader(io.BytesIO(payload).read)
    frames = list(reader.frames())
    if len(frames) != 1:
        raise ScoreFormatError(f"/score response must hold 1 frame, got {len(frames)}")
    deltas = _f64("deltas", frames[0], 2)
    if deltas.shape != (rows, k):
        raise ScoreFormatError(
            f"/score response shape {deltas.shape} != expected {(rows, k)}"
        )
    return deltas


# --------------------------------------------------------------------- #
# Data artifacts (worker-side shard loading)                              #
# --------------------------------------------------------------------- #


def publish_data_artifact(root: str | Path, state: ClusterState) -> str:
    """Publish *state*'s static data under ``<root>/data/``; returns its name.

    Content-addressed and idempotent: the same points + attribute specs
    always produce the same name, and an existing artifact is left
    untouched. The write is atomic (temp file + ``os.replace``) so a
    worker never maps a partial artifact.
    """
    meta = {
        "kind": ARTIFACT_KIND,
        "n": int(state.n),
        "dim": int(state.dim),
        "cats": [
            {"name": s.name, "n_values": int(s.n_values), "weight": float(s.weight)}
            for s in state.categorical_specs
        ],
        "nums": [
            {"name": s.name, "weight": float(s.weight)} for s in state.numeric_specs
        ],
    }
    frames = [_meta_array(meta), np.asarray(state.points)]
    frames.extend(np.asarray(s.codes, dtype=np.int64) for s in state.categorical_specs)
    frames.extend(np.asarray(s.values, dtype=np.float64) for s in state.numeric_specs)
    payload = encode_stream(frames, codec="identity")
    name = "d-" + hashlib.sha256(payload).hexdigest()[:16]

    directory = Path(root) / ARTIFACT_DIR
    final = directory / f"{name}.rsw"
    if final.exists():
        return name
    directory.mkdir(parents=True, exist_ok=True)
    tmp = directory / f".tmp-{name}-{os.getpid()}"
    tmp.write_bytes(payload)
    os.replace(tmp, final)
    return name


def artifact_path(root: str | Path, name: str) -> Path:
    """The on-disk file for artifact *name* (name validated first)."""
    if not _ARTIFACT_RE.match(name):
        raise ScoreFormatError(f"invalid data-artifact name {name!r}")
    return Path(root) / ARTIFACT_DIR / f"{name}.rsw"


def load_data_artifact(root: str | Path, name: str) -> tuple[
    np.ndarray, list[CategoricalSpec], list[NumericSpec]
]:
    """Map an artifact back into ``(points, cat_specs, num_specs)``."""
    path = artifact_path(root, name)
    try:
        payload = path.read_bytes()
    except FileNotFoundError:
        raise ScoreFormatError(
            f"data artifact {name!r} is not published under {Path(root) / ARTIFACT_DIR}"
        ) from None
    reader = StreamReader(io.BytesIO(payload).read)
    frames = list(reader.frames())
    if not frames:
        raise ScoreFormatError(f"data artifact {name!r} is empty")
    meta = _parse_meta(frames[0])
    if meta.get("kind") != ARTIFACT_KIND:
        raise ScoreFormatError(
            f"data artifact {name!r} has kind {meta.get('kind')!r}, "
            f"expected {ARTIFACT_KIND!r}"
        )
    cats_meta = meta.get("cats", [])
    nums_meta = meta.get("nums", [])
    expected = 1 + 1 + len(cats_meta) + len(nums_meta)
    if len(frames) != expected:
        raise ScoreFormatError(
            f"data artifact {name!r} holds {len(frames)} frames, expected {expected}"
        )
    points = _f64("points", frames[1], 2)
    cat_specs = [
        CategoricalSpec(
            str(c["name"]),
            _i64(f"codes[{i}]", frames[2 + i]),
            n_values=int(c["n_values"]),
            weight=float(c["weight"]),
        )
        for i, c in enumerate(cats_meta)
    ]
    num_specs = [
        NumericSpec(
            str(m["name"]),
            _f64(f"values[{i}]", frames[2 + len(cats_meta) + i], 1),
            weight=float(m["weight"]),
            standardize=False,
        )
        for i, m in enumerate(nums_meta)
    ]
    return points, cat_specs, num_specs


# --------------------------------------------------------------------- #
# Scoring (worker side)                                                   #
# --------------------------------------------------------------------- #


class ShardScorer:
    """Decode-and-score engine behind the ``/score`` route.

    One per server (and one inside every loopback
    :class:`~repro.backend.remote.RemoteBackend`). Inline requests are
    scored statelessly through :func:`shard_move_deltas`; artifact
    requests rebuild a :class:`ClusterState` from the named data
    artifact once and reuse it across rounds (LRU of
    :data:`STATE_CACHE_SIZE`, keyed ``(artifact, k)``), serialized by a
    lock because the scatter-install-score sequence mutates the cached
    state.

    Args:
        artifact_root: directory holding ``data/`` artifacts (a registry
            root); ``None`` disables artifact mode with a typed error.
    """

    def __init__(self, artifact_root: str | Path | None = None) -> None:
        self.artifact_root = Path(artifact_root) if artifact_root is not None else None
        self._states: OrderedDict[tuple[str, int], ClusterState] = OrderedDict()
        self._lock = threading.Lock()
        #: Requests scored, by mode (observability hooks read these).
        self.scored = {"inline": 0, "artifact": 0}

    def score(self, frames: list[np.ndarray]) -> tuple[np.ndarray, dict[str, Any]]:
        """Score one decoded request; returns ``(deltas, meta)``.

        Raises:
            ScoreFormatError: structurally invalid request.
        """
        if not frames:
            raise ScoreFormatError("/score request holds no frames")
        meta = _parse_meta(frames[0])
        if meta.get("v") != SCORE_VERSION:
            raise ScoreFormatError(
                f"unsupported /score protocol version {meta.get('v')!r}"
            )
        mode = meta.get("mode")
        if mode == "inline":
            deltas = self._score_inline(meta, frames)
        elif mode == "artifact":
            deltas = self._score_artifact(meta, frames)
        else:
            raise ScoreFormatError(f"unknown /score mode {mode!r}")
        self.scored[mode] += 1
        return deltas, meta

    def _score_inline(self, meta: dict[str, Any], frames: list[np.ndarray]) -> np.ndarray:
        n_cats, n_nums = int(meta.get("cats", 0)), int(meta.get("nums", 0))
        expected = request_frame_count("inline", n_cats, n_nums)
        if len(frames) != expected:
            raise ScoreFormatError(
                f"inline /score request holds {len(frames)} frames, expected {expected}"
            )
        consts = _f64("consts", frames[1], 1)
        if consts.shape[0] != 2:
            raise ScoreFormatError("inline consts frame must be [lambda, n2]")
        lam, n2 = float(consts[0]), float(consts[1])
        xb = _f64("xb", frames[2], 2)
        x2 = _f64("x2", frames[3], 1)
        cur = _i64("cur", frames[4])
        sums = _f64("sums", frames[5], 2)
        sum_sqnorm = _f64("sum_sqnorm", frames[6], 1)
        sizes_f = _f64("sizes_f", frames[7], 1)
        b, k = xb.shape[0], sums.shape[0]
        if x2.shape[0] != b or cur.shape[0] != b or int(meta.get("rows", b)) != b:
            raise ScoreFormatError("inline shard frames disagree on the row count")
        if n2 <= 0.0:
            raise ScoreFormatError(f"n2 must be positive, got {n2}")
        if b and (cur.min() < 0 or cur.max() >= k):
            raise ScoreFormatError("cur labels out of range [0, k)")
        cats = []
        pos = 8
        for i in range(n_cats):
            codes_b = _i64(f"cat{i}.codes", frames[pos])
            p = _f64(f"cat{i}.p", frames[pos + 1], 1)
            cconsts = _f64(f"cat{i}.consts", frames[pos + 2], 1)
            counts = _f64(f"cat{i}.counts", frames[pos + 3], 2)
            h = _f64(f"cat{i}.h", frames[pos + 4], 1)
            pos += 5
            if cconsts.shape[0] != 2:
                raise ScoreFormatError(f"cat{i} consts frame must be [p2, norm]")
            if codes_b.shape[0] != b or counts.shape != (k, p.shape[0]) or h.shape[0] != k:
                raise ScoreFormatError(f"cat{i} frames have inconsistent shapes")
            if b and (codes_b.min() < 0 or codes_b.max() >= p.shape[0]):
                raise ScoreFormatError(f"cat{i} codes out of range")
            cats.append((codes_b, p, float(cconsts[0]), counts, h, float(cconsts[1])))
        cats = stack_categorical(cats, b, k)
        nums = []
        for i in range(n_nums):
            y = _f64(f"num{i}.y", frames[pos], 1)
            nconsts = _f64(f"num{i}.consts", frames[pos + 1], 1)
            d = _f64(f"num{i}.d", frames[pos + 2], 1)
            pos += 3
            if nconsts.shape[0] != 1:
                raise ScoreFormatError(f"num{i} consts frame must be [weight]")
            if y.shape[0] != b or d.shape[0] != k:
                raise ScoreFormatError(f"num{i} frames have inconsistent shapes")
            nums.append((y, float(nconsts[0]), d))
        if xb.shape[1] != sums.shape[1] or sum_sqnorm.shape[0] != k or sizes_f.shape[0] != k:
            raise ScoreFormatError("statistics frames have inconsistent shapes")
        return shard_move_deltas(xb, x2, cur, sums, sum_sqnorm, sizes_f, cats, nums, lam, n2)

    def _score_artifact(self, meta: dict[str, Any], frames: list[np.ndarray]) -> np.ndarray:
        if self.artifact_root is None:
            raise ScoreFormatError(
                "artifact-mode /score needs a registry-backed server "
                "(this scorer has no artifact root)"
            )
        n_cats, n_nums = int(meta.get("cats", 0)), int(meta.get("nums", 0))
        expected = request_frame_count("artifact", n_cats, n_nums)
        if len(frames) != expected:
            raise ScoreFormatError(
                f"artifact /score request holds {len(frames)} frames, expected {expected}"
            )
        name = str(meta.get("artifact", ""))
        k = int(meta.get("k", 0))
        if k <= 0:
            raise ScoreFormatError(f"artifact /score needs a positive k, got {k}")
        consts = _f64("consts", frames[1], 1)
        if consts.shape[0] != 1:
            raise ScoreFormatError("artifact consts frame must be [lambda]")
        lam = float(consts[0])
        indices = _i64("indices", frames[2])
        labels = _i64("labels", frames[3])
        if labels.shape[0] != indices.shape[0]:
            raise ScoreFormatError("indices and labels frames disagree on the row count")
        if indices.shape[0] and (labels.min() < 0 or labels.max() >= k):
            raise ScoreFormatError("labels out of range [0, k)")
        stats = {
            "sums": _f64("sums", frames[4], 2),
            "sum_sqnorm": _f64("sum_sqnorm", frames[5], 1),
            "sizes_f": _f64("sizes_f", frames[6], 1),
            "num_d": [_f64(f"num{i}.d", frames[7 + 2 * n_cats + i], 1) for i in range(n_nums)],
        }
        counts = [_f64(f"cat{i}.counts", frames[7 + 2 * i], 2) for i in range(n_cats)]
        h = [_f64(f"cat{i}.h", frames[8 + 2 * i], 1) for i in range(n_cats)]
        with self._lock:
            state = self._state_for(name, k)
            if len(state.categorical_specs) != n_cats or len(state.numeric_specs) != n_nums:
                raise ScoreFormatError(
                    f"artifact {name!r} has {len(state.categorical_specs)} categorical/"
                    f"{len(state.numeric_specs)} numeric attributes; request ships "
                    f"{n_cats}/{n_nums}"
                )
            if indices.shape[0] and (indices.min() < 0 or indices.max() >= state.n):
                raise ScoreFormatError(f"indices out of range [0, {state.n})")
            for i, spec in enumerate(state.categorical_specs):
                if counts[i].shape != (k, spec.n_values) or h[i].shape != (k,):
                    raise ScoreFormatError(f"cat{i} frames have inconsistent shapes")
            # The state's own p, p2 and norm around the shipped counts and h.
            sizes = [spec.n_values for spec in state.categorical_specs]
            own = split_categorical(state.export_shard_inline(indices[:0])["cats"], sizes)
            parts = [(*mine[:3], c, hh, mine[5]) for mine, c, hh in zip(own, counts, h)]
            _, _, _, stats["counts"], stats["h"], _ = stack_categorical(parts, 0, k)
            state.install_scoring_stats(stats)
            state.labels[indices] = labels
            return state.batch_move_deltas(indices, lam)

    def _state_for(self, name: str, k: int) -> ClusterState:
        key = (name, k)
        state = self._states.get(key)
        if state is not None:
            self._states.move_to_end(key)
            return state
        points, cat_specs, num_specs = load_data_artifact(self.artifact_root, name)
        state = ClusterState(
            np.ascontiguousarray(points, dtype=np.float64),
            np.zeros(points.shape[0], dtype=np.int64),
            k,
            cat_specs or None,
            num_specs or None,
        )
        self._states[key] = state
        while len(self._states) > STATE_CACHE_SIZE:
            self._states.popitem(last=False)
        return state
