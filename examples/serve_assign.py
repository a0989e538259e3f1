"""End-to-end serving: fit → publish → serve → assign → roll forward.

Walks the whole deployment loop in one process:

1. fit two FairKM models and publish them into a model registry,
2. start the HTTP assignment server against the registry,
3. assign a batch through the server (npy fast path) and check it is
   bit-identical to in-process ``predict``,
4. publish a new version and watch the server hot-reload it — the
   ``LATEST`` pointer's mtime is the only signal needed,
5. roll back and prune.

Run:  PYTHONPATH=src python examples/serve_assign.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.api import RunConfig, fit
from repro.serving import AssignmentServer, ModelRegistry, ServingClient


def main() -> None:
    rng = np.random.default_rng(7)
    features = np.vstack(
        [rng.normal(0.0, 1.0, (400, 6)), rng.normal(3.0, 1.0, (400, 6))]
    )
    gender = rng.integers(0, 2, 800)
    traffic = rng.normal(1.5, 2.0, (2_000, 6))  # "production" queries

    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(Path(tmp) / "registry")

        # --- train once, publish ------------------------------------- #
        model_k3 = fit(
            RunConfig(method="fairkm", k=3, seed=0),
            features,
            sensitive={"gender": gender},
        )
        v1 = model_k3.publish(registry.root, label="fairkm-k3")
        print(f"published {v1}; registry versions: {registry.list_versions()}")

        # --- serve (ephemeral port; use `repro serve` for real use) --- #
        with AssignmentServer(registry=registry) as server:
            with ServingClient(port=server.port) as client:
                print(f"server up at {server.url}: {client.healthz()}")

                response = client.assign(traffic)  # npy bytes both ways
                assert np.array_equal(response.labels, model_k3.predict(traffic))
                print(
                    f"assigned {response.labels.size} rows under "
                    f"{response.version}; bit-identical to in-process predict"
                )

                # --- roll a new model forward: no restart ------------ #
                model_k5 = fit(
                    RunConfig(method="fairkm", k=5, seed=0),
                    features,
                    sensitive={"gender": gender},
                )
                v2 = model_k5.publish(registry.root, label="fairkm-k5")
                response = client.assign(traffic)  # hot-reloaded via mtime
                assert response.version == v2
                assert np.array_equal(response.labels, model_k5.predict(traffic))
                print(f"hot-reloaded to {response.version} mid-connection")

                # --- and back ---------------------------------------- #
                registry.rollback()
                print(f"rolled back: {client.reload()}")
                assert client.assign(traffic).version == v1

        deleted = registry.prune(retention=1)
        print(f"pruned {deleted or 'nothing'}; kept {registry.list_versions()}")


if __name__ == "__main__":
    main()
