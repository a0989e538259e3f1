"""Fleet serving end to end: publish → canary → staggered rollout → rollback.

Walks the production deployment loop from docs/serving-runbook.md in
one process (with real worker subprocesses):

1. fit a model, publish it, bring up a two-worker fleet + proxy;
2. send traffic through the proxy and check the labels are
   bit-identical to in-process ``predict`` (stamped with worker id and
   serving version);
3. stage a new version (``set_latest=False``) and canary-roll the fleet
   to it — one worker probed bit-for-bit first, then the rest,
   then the ``LATEST`` pointer commit;
4. attempt a ``require_identical`` rollout of a model that changes
   labels and watch the canary reject it: exactly one worker briefly
   served it, everything is reverted, ``LATEST`` is rolled back;
5. roll back to the first version the same canary way.

Run:  PYTHONPATH=src python examples/fleet_rollout.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.api import RunConfig, fit
from repro.serving import FleetProxy, FleetSupervisor, ModelRegistry, ServingClient


def main() -> None:
    rng = np.random.default_rng(7)
    features = np.vstack(
        [rng.normal(0.0, 1.0, (400, 6)), rng.normal(3.0, 1.0, (400, 6))]
    )
    gender = rng.integers(0, 2, 800)
    traffic = rng.normal(1.5, 2.0, (2_000, 6))  # "production" queries

    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(Path(tmp) / "registry")

        # --- train once, publish, fleet up --------------------------- #
        model_k3 = fit(
            RunConfig(method="fairkm", k=3, seed=0),
            features,
            sensitive={"gender": gender},
        )
        v1 = model_k3.publish(registry.root, label="fairkm-k3")
        print(f"published {v1}")

        with FleetSupervisor(registry, workers=2) as fleet:
            with FleetProxy(fleet) as proxy:
                client = ServingClient(url=proxy.url)
                print(f"fleet up behind {proxy.url}, serving {fleet.serving_version}")

                # --- traffic: bit-identical, attributable ------------ #
                response = client.assign(traffic)
                assert np.array_equal(response.labels, model_k3.predict(traffic))
                status, headers, _ = client.request_raw("GET", "/healthz")
                print(
                    f"assigned {response.labels.size} rows under "
                    f"{response.version} (worker {headers['X-Fleet-Worker']}); "
                    "bit-identical to in-process predict"
                )

                # --- canary rollout of a staged version -------------- #
                model_k5 = fit(
                    RunConfig(method="fairkm", k=5, seed=0),
                    features,
                    sensitive={"gender": gender},
                )
                v2 = model_k5.publish(registry.root, label="fairkm-k5")
                # publish moved LATEST, but pinned workers don't follow:
                assert client.assign(traffic).version == v1
                report = fleet.rollout(v2)
                assert report.ok, report.reason
                print(
                    f"canary rollout {report.previous} -> {report.version}: "
                    f"worker {report.canary_worker} probed first, then "
                    f"{len(report.workers_reloaded) - 1} more"
                )
                response = client.assign(traffic)
                assert response.version == v2
                assert np.array_equal(response.labels, model_k5.predict(traffic))

                # --- a bad rollout is caught by the canary ----------- #
                drifted = fit(
                    RunConfig(method="fairkm", k=5, seed=99),
                    features,
                    sensitive={"gender": gender},
                )
                v3 = drifted.publish(registry.root, label="drifted")
                report = fleet.rollout(v3, require_identical=True)
                assert not report.ok and report.rolled_back
                assert report.workers_reloaded == (0,)  # canary only
                print(
                    f"rollout of {v3} REJECTED by the canary "
                    f"({report.reason}); LATEST rolled back to "
                    f"{registry.latest_version()}"
                )
                response = client.assign(traffic)  # fleet unharmed
                assert response.version == v2
                assert np.array_equal(response.labels, model_k5.predict(traffic))

                # --- operator rollback: same canary machinery -------- #
                report = fleet.rollout(v1)
                assert report.ok
                assert client.assign(traffic).version == v1
                print(f"rolled back to {v1}; fleet healthy: "
                      f"{all(w['healthy'] for w in fleet.status()['workers'])}")
                client.close()


if __name__ == "__main__":
    main()
