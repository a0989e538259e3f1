"""Streamed assignment: constant-memory serving over the wire format.

Shows the streaming serving path end to end:

1. fit a FairKM model and publish it into a registry,
2. stream a "production" batch through the server as length-prefixed
   npy frames (``ServingClient.assign_stream``) — the server scores
   each frame as it arrives, so upload and compute overlap and no hop
   materializes the whole batch,
3. stream from a generator (a stand-in for a file reader or queue):
   memory stays constant no matter how long the stream runs,
4. negotiate gzip compression and stream back squared distances next
   to the labels,
5. repeat over a Unix domain socket where the platform supports it.

Every variant is checked bit-identical to in-process ``predict`` —
the invariant the whole serving stack is built around.

Run:  PYTHONPATH=src python examples/stream_assign.py
"""

from __future__ import annotations

import socket
import tempfile
from pathlib import Path

import numpy as np

from repro.api import RunConfig, fit
from repro.serving import AssignmentServer, ModelRegistry, ServingClient


def traffic_batches(rng, batches, rows, d):
    """A generator of point batches — nothing is ever fully in memory."""
    for _ in range(batches):
        yield rng.normal(1.5, 2.0, (rows, d))


def main() -> None:
    rng = np.random.default_rng(7)
    features = np.vstack(
        [rng.normal(0.0, 1.0, (400, 6)), rng.normal(3.0, 1.0, (400, 6))]
    )
    gender = rng.integers(0, 2, 800)
    batch = rng.normal(1.5, 2.0, (20_000, 6))  # one big "production" batch

    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(Path(tmp) / "registry")
        model = fit(
            RunConfig(method="fairkm", k=4, seed=0),
            features,
            sensitive={"gender": gender},
        )
        registry.publish(model, label="fairkm-k4")
        expected = model.predict(batch)

        with AssignmentServer(registry=registry) as server:
            with ServingClient(url=server.url) as client:
                # --- one matrix, framed every chunk_size rows -------- #
                response = client.assign_stream(batch, chunk_size=4096)
                assert np.array_equal(response.labels, expected)
                print(
                    f"streamed {response.labels.size} rows in 4096-row "
                    f"frames under {response.version}; bit-identical to "
                    f"in-process predict"
                )

                # --- a generator source: constant-memory streaming --- #
                stream = traffic_batches(
                    np.random.default_rng(11), batches=8, rows=2_500, d=6
                )
                response = client.assign_stream(stream)
                print(
                    f"streamed {response.labels.size} rows from a "
                    f"generator without ever holding the batch"
                )

                # --- gzip frames + squared distances ----------------- #
                response = client.assign_stream(
                    batch, codec="gzip", return_distance=True
                )
                assert np.array_equal(response.labels, expected)
                assert response.distances.shape == expected.shape
                print(
                    f"gzip-framed stream returned labels + distances "
                    f"(min d² {response.distances.min():.3f})"
                )

        # --- same protocol, Unix-domain transport -------------------- #
        if hasattr(socket, "AF_UNIX"):
            uds = Path(tmp) / "assign.sock"
            with AssignmentServer(registry=registry, uds=uds) as server:
                with ServingClient(url=server.url) as client:
                    response = client.assign_stream(batch)
                    assert np.array_equal(response.labels, expected)
                    print(f"same stream, no TCP: served at {server.url}")


if __name__ == "__main__":
    main()
