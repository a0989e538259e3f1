"""The three assignment request classes and their in-process round trip.

Every workload ends by assigning query bodies of three shapes with the
model it fitted (or serves), because each request class takes a
different path through the serving stack:

* ``small_npy`` — a 256-row npy body: one proxy lane.
* ``bulk_npy`` — a 16,384-row npy body: buffered scatter across lanes.
* ``bulk_stream`` — a 32,768-row RSW1 stream: frame dealing.

The fit workloads assign in process (decode, ``Assigner``, encode, no
transport); the fleet workload sends the same bodies over HTTP.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass

import numpy as np

from common import median

#: class name -> (rows per body, wire format)
CLASSES: dict[str, tuple[int, str]] = {
    "small_npy": (256, "npy"),
    "bulk_npy": (16_384, "npy"),
    "bulk_stream": (32_768, "stream"),
}
#: Rows per RSW1 frame (the serving client's default frame size).
STREAM_FRAME_ROWS = 8192
#: Distinct bodies generated per class (requests cycle through them).
POOL = {"small_npy": 16, "bulk_npy": 4, "bulk_stream": 2}


@dataclass
class Body:
    cls: str
    points: np.ndarray
    #: npy bytes, or the RSW1 stream as the pieces a client sends.
    payload: bytes | list[bytes]
    #: The whole body as one buffer, as a server has read it.
    data: bytes
    expected: np.ndarray


def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return buffer.getvalue()


def encode(points: np.ndarray, fmt: str) -> bytes | list[bytes]:
    from repro.serving import wire

    if fmt == "npy":
        return _npy_bytes(points)
    frames = (
        points[start : start + STREAM_FRAME_ROWS]
        for start in range(0, points.shape[0], STREAM_FRAME_ROWS)
    )
    return list(wire.iter_encode(frames))


def decode_labels(payload: bytes, fmt: str) -> np.ndarray:
    from repro.serving import wire

    if fmt == "npy":
        return wire.decode_npy(payload)
    frames, _ = wire.decode_stream(payload)
    return np.concatenate(frames) if frames else np.empty(0, dtype=np.int64)


def make_bodies(
    features: np.ndarray, assigner, rng: np.random.Generator, scale: float = 1.0
) -> dict[str, list[Body]]:
    """Seeded query bodies: dataset rows plus small noise, per class.

    ``scale`` shrinks the row counts (the self-test's tiny size).
    """
    bodies: dict[str, list[Body]] = {}
    for cls, (rows, fmt) in CLASSES.items():
        rows = max(8, int(rows * scale))
        pool = []
        for _ in range(POOL[cls]):
            picks = rng.integers(0, features.shape[0], rows)
            points = np.ascontiguousarray(
                features[picks] + rng.normal(0.0, 0.05, (rows, features.shape[1]))
            )
            payload = encode(points, fmt)
            data = payload if fmt == "npy" else b"".join(payload)
            pool.append(Body(cls, points, payload, data, assigner.assign(points)))
        bodies[cls] = pool
    return bodies


#: Where in its stride each class's requests fall, so the bulk classes
#: sit between small requests and apart from each other.
_PHASE = {"small_npy": 0.0, "bulk_npy": 0.25, "bulk_stream": 0.75}


def schedule(counts: dict[str, int]) -> list[str]:
    """*counts* requests per class, each class spread evenly over the run.

    The order is fixed, not drawn: with a random order, bulk requests
    that happen to bunch up set the latency tail, and the tail would
    change with the seed more than with the program.
    """
    total = sum(counts.values())
    slots = [
        ((j + _PHASE[cls]) * total / n, i, cls)
        for i, (cls, n) in enumerate(counts.items())
        for j in range(n)
    ]
    return [cls for _, _, cls in sorted(slots)]


def roundtrip(body: Body, assigner) -> tuple[float, np.ndarray]:
    """Serve *body* in process: decode, assign, encode, client decode.

    Returns ``(latency_s, labels)``; the request body was encoded
    beforehand, as a client with a ready payload would have.
    """
    from repro.serving import wire

    fmt = CLASSES[body.cls][1]
    start = time.perf_counter()
    if fmt == "npy":
        response = _npy_bytes(assigner.assign(wire.decode_npy(body.data)))
    else:
        frames, _ = wire.decode_stream(body.data)
        response = wire.encode_stream(assigner.assign_iter(frames))
    labels = decode_labels(response, fmt)
    return time.perf_counter() - start, labels


def layer_floors(
    bodies: dict[str, list[Body]], assigner, repeats: int
) -> dict[str, float]:
    """Per class: in-process ``Assigner.assign`` time and client codec time.

    ``api.assign.floor_ms.<c>`` is what the transport cannot go below;
    ``serving.client.codec_ms.<c>`` is encoding the request body plus
    decoding a response of the body's labels.
    """
    out: dict[str, float] = {}
    for cls, pool in bodies.items():
        fmt = CLASSES[cls][1]
        floor, codec = [], []
        for i in range(repeats):
            body = pool[i % len(pool)]
            start = time.perf_counter()
            assigner.assign(body.points)
            floor.append(time.perf_counter() - start)
            response = encode(body.expected, fmt)
            if fmt == "stream":
                response = b"".join(response)  # as the client receives it
            start = time.perf_counter()
            encode(body.points, fmt)
            decode_labels(response, fmt)
            codec.append(time.perf_counter() - start)
        out[f"api.assign.floor_ms.{cls}"] = median(floor) * 1e3
        out[f"serving.client.codec_ms.{cls}"] = median(codec) * 1e3
    return out


def latency_summary(samples: dict[str, list[float]]) -> dict[str, dict[str, float]]:
    """Per class ``{"p50": .., "p90": ..}`` latency in ms.

    The p90s are only recorded: across runs they spread about half again
    as much as the p50s, past the 0.25 bound on a shared 2-core host.
    """
    return {
        cls: {
            "p50": float(np.quantile(v, 0.5)) * 1e3,
            "p90": float(np.quantile(v, 0.9)) * 1e3,
        }
        for cls, v in samples.items()
    }
