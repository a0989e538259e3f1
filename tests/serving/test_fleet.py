"""The serving fleet: canary rollouts, bit-identity, crash-restart.

These tests spawn real ``repro serve`` worker processes — the same code
path production runs — so they cover the cross-process invariants the
in-process server tests cannot: a published-but-bad artifact must never
serve from more than one worker, every response during a rollout must be
bit-identical to the ``predict`` of the version it is stamped with, and
a SIGKILLed worker must come back pinned to the fleet's version.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.api import Assigner, ClusterModel, RunConfig
from repro.serving import (
    FleetProxy,
    FleetSupervisor,
    ModelRegistry,
    ServingClient,
)
from repro.serving.fleet import BLAS_THREAD_ENV, _worker_env

D = 4
WORKERS = 2


@pytest.fixture
def setup(tmp_path):
    """Registry with model A published as LATEST, model B held back."""
    rng = np.random.default_rng(11)
    model_a = ClusterModel(rng.normal(size=(3, D)), RunConfig(method="kmeans", k=3))
    model_b = ClusterModel(rng.normal(size=(5, D)), RunConfig(method="kmeans", k=5))
    registry = ModelRegistry(tmp_path / "registry")
    v1 = registry.publish(model_a, label="a")
    probe = rng.normal(size=(40, D))
    return registry, model_a, model_b, v1, probe


def wait_until(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def test_fleet_serves_bit_identical_labels(setup):
    registry, model_a, _, v1, probe = setup
    with FleetSupervisor(registry, workers=WORKERS) as fleet:
        assert fleet.serving_version == v1
        with FleetProxy(fleet) as proxy:
            with ServingClient(url=proxy.url) as client:
                response = client.assign(probe)
                assert response.version == v1
                np.testing.assert_array_equal(
                    response.labels, model_a.predict(probe)
                )
        status = fleet.status()
        assert status["version"] == v1
        assert [w["healthy"] for w in status["workers"]] == [True] * WORKERS
        assert all(w["version"] == v1 for w in status["workers"])


def test_workers_do_not_follow_latest_on_their_own(setup):
    """Publishing must move nothing until a rollout says so."""
    registry, model_a, model_b, v1, probe = setup
    with FleetSupervisor(registry, workers=WORKERS) as fleet:
        v2 = registry.publish(model_b, label="b")  # LATEST now points at B
        with FleetProxy(fleet) as proxy:
            with ServingClient(url=proxy.url) as client:
                for _ in range(2 * WORKERS):  # every worker, twice
                    response = client.assign(probe)
                    assert response.version == v1
                    np.testing.assert_array_equal(
                        response.labels, model_a.predict(probe)
                    )
        assert registry.latest_version() == v2  # pointer moved, fleet didn't


def test_staged_rollout_commits_pointer_and_fleet(setup):
    registry, _, model_b, v1, probe = setup
    with FleetSupervisor(registry, workers=WORKERS) as fleet:
        v2 = registry.publish(model_b, label="b", set_latest=False)
        assert registry.latest_version() == v1
        report = fleet.rollout(v2)
        assert report.ok and not report.rolled_back
        assert report.canary_worker == 0
        assert set(report.workers_reloaded) == set(range(WORKERS))
        assert registry.latest_version() == v2
        assert fleet.serving_version == v2
        with FleetProxy(fleet) as proxy:
            with ServingClient(url=proxy.url) as client:
                response = client.assign(probe)
                assert response.version == v2
                np.testing.assert_array_equal(
                    response.labels, model_b.predict(probe)
                )


def test_rollout_to_current_version_is_a_noop(setup):
    registry, _, _, v1, _ = setup
    with FleetSupervisor(registry, workers=WORKERS) as fleet:
        report = fleet.rollout(v1)
        assert report.ok
        assert report.workers_reloaded == ()
        assert "already serves" in report.reason


def test_canary_blocks_mismatching_artifact(setup):
    """A bit-identity rollout of a different model stops at the canary:
    it never reaches more than one worker, the fleet keeps serving the
    previous version's exact labels, and LATEST is rolled back."""
    registry, model_a, model_b, v1, probe = setup
    with FleetSupervisor(registry, workers=WORKERS) as fleet:
        v2 = registry.publish(model_b, label="b")  # pointer already moved
        report = fleet.rollout(v2, require_identical=True)
        assert not report.ok
        assert report.workers_reloaded == (0,)  # the canary, nobody else
        assert report.rolled_back
        assert "require_identical" in report.reason
        assert registry.latest_version() == v1  # automatic pointer rollback
        assert fleet.serving_version == v1
        # Every worker — including the reverted canary — serves the
        # previous version's bit-exact labels.
        with FleetProxy(fleet) as proxy:
            with ServingClient(url=proxy.url) as client:
                for _ in range(2 * WORKERS):
                    response = client.assign(probe)
                    assert response.version == v1
                    np.testing.assert_array_equal(
                        response.labels, model_a.predict(probe)
                    )


def test_corrupt_artifact_rejected_before_any_worker(setup):
    """An unloadable artifact fails the supervisor's load gate: zero
    workers ever see it, and a pre-moved pointer is rolled back."""
    registry, model_a, model_b, v1, probe = setup
    with FleetSupervisor(registry, workers=WORKERS) as fleet:
        v2 = registry.publish(model_b, label="bad")
        (registry.root / v2 / "model.npz").write_bytes(b"not an npz archive")
        report = fleet.rollout(v2)
        assert not report.ok
        assert report.workers_reloaded == ()
        assert report.canary_worker == -1
        assert "rejected at load" in report.reason
        assert report.rolled_back
        assert registry.latest_version() == v1
        with FleetProxy(fleet) as proxy:
            with ServingClient(url=proxy.url) as client:
                response = client.assign(probe)
                assert response.version == v1
                np.testing.assert_array_equal(
                    response.labels, model_a.predict(probe)
                )


def test_mid_rollout_bit_identity_hammer(setup):
    """Hammer the proxy during a staggered rollout: every response must
    be bit-identical to the predict of the version it is stamped with,
    whichever side of the rollout served it."""
    registry, model_a, model_b, v1, probe = setup
    expected = {v1: model_a.predict(probe)}
    with FleetSupervisor(registry, workers=3, stagger_s=0.3) as fleet:
        v2 = registry.publish(model_b, label="b", set_latest=False)
        expected[v2] = model_b.predict(probe)
        with FleetProxy(fleet) as proxy:
            stop = threading.Event()
            seen: set[str] = set()
            failures: list[str] = []

            def hammer() -> None:
                with ServingClient(url=proxy.url) as client:
                    while not stop.is_set():
                        response = client.assign(probe)
                        if response.version not in expected:
                            failures.append(f"unknown version {response.version}")
                            return
                        if not np.array_equal(
                            response.labels, expected[response.version]
                        ):
                            failures.append(
                                f"labels diverged under {response.version}"
                            )
                            return
                        seen.add(response.version)

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            time.sleep(0.2)  # some pre-rollout traffic
            report = fleet.rollout(v2)
            time.sleep(0.2)  # some post-rollout traffic
            stop.set()
            for thread in threads:
                thread.join()
            assert not failures, failures
            assert report.ok
            assert seen == {v1, v2}  # the hammer really spanned the rollout
            with ServingClient(url=proxy.url) as client:
                assert client.assign(probe).version == v2


def test_crashed_worker_restarts_pinned_to_fleet_version(setup):
    registry, model_a, _, v1, probe = setup
    with FleetSupervisor(registry, workers=WORKERS, heartbeat_s=0.1) as fleet:
        victim = fleet.status()["workers"][0]
        os.kill(victim["pid"], signal.SIGKILL)

        def recovered() -> bool:
            status = fleet.status()["workers"][0]
            return (
                status["healthy"]
                and status["restarts"] >= 1
                and status["pid"] != victim["pid"]
            )

        assert wait_until(recovered), fleet.status()
        status = fleet.status()
        assert status["version"] == v1
        assert all(w["version"] == v1 for w in status["workers"])
        # The restarted worker serves the same bits as before the crash.
        url = status["workers"][0]["url"]
        with ServingClient(url=url) as client:
            response = client.assign(probe)
            assert response.version == v1
            np.testing.assert_array_equal(response.labels, model_a.predict(probe))


def test_frozen_worker_is_detected_and_restarted(setup):
    """Regression: a SIGSTOP'd worker is alive but silent.

    Liveness checks (``process.poll()``) see a healthy process and the
    old boot-grace window shielded it from probe failures for the full
    ``start_timeout_s``. The health probe must instead time out within
    ``health_timeout_s``, strike the worker out, and recycle it —
    SIGKILL works on a stopped process, so the replacement always comes
    up thawed.
    """
    registry, model_a, _, v1, probe = setup
    with FleetSupervisor(
        registry, workers=WORKERS, heartbeat_s=0.1, health_timeout_s=0.5
    ) as fleet:
        victim = fleet.status()["workers"][0]
        os.kill(victim["pid"], signal.SIGSTOP)
        try:

            def recovered() -> bool:
                status = fleet.status()["workers"][0]
                return (
                    status["healthy"]
                    and status["restarts"] >= 1
                    and status["pid"] != victim["pid"]
                )

            assert wait_until(recovered, timeout=30.0), fleet.status()
        finally:
            # The SIGKILL recycle makes this a no-op; belt and braces
            # so a regression cannot leak a stopped process.
            try:
                os.kill(victim["pid"], signal.SIGCONT)
            except ProcessLookupError:
                pass
        status = fleet.status()
        assert all(w["version"] == v1 for w in status["workers"])
        with ServingClient(url=status["workers"][0]["url"]) as client:
            response = client.assign(probe)
            np.testing.assert_array_equal(response.labels, model_a.predict(probe))


def test_fleet_requires_published_model(tmp_path):
    from repro.serving import RegistryError

    with pytest.raises(RegistryError, match="publish a model first"):
        FleetSupervisor(tmp_path / "empty").start()


def test_fleet_rejects_bad_worker_count(tmp_path):
    with pytest.raises(ValueError, match="workers"):
        FleetSupervisor(tmp_path, workers=0)


def test_worker_env_pins_blas_to_one_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    env = _worker_env()
    assert {name: env[name] for name in BLAS_THREAD_ENV} == dict.fromkeys(
        BLAS_THREAD_ENV, "1"
    )


def test_one_thread_workers_match_in_process_distances(tmp_path):
    """Workers score on one BLAS thread, this process on its default
    count: a 50,000-row stream at k=64 still gets labels and distances
    bit-equal to in-process ``Assigner.assign``."""
    rng = np.random.default_rng(43)
    centers = rng.normal(size=(64, 28)) * 2
    points = rng.normal(size=(50_000, 28))
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(ClusterModel(centers, RunConfig(method="kmeans", k=64)), label="blas")
    expected_labels, expected_distances = Assigner(centers).assign(points, return_distance=True)
    with FleetSupervisor(registry, workers=WORKERS, heartbeat_s=60.0) as fleet:
        with FleetProxy(fleet) as proxy, ServingClient(url=proxy.url, timeout=60.0) as client:
            response = client.assign_stream(points, return_distance=True)
    assert response.labels.tobytes() == expected_labels.tobytes()
    assert response.distances.tobytes() == expected_distances.tobytes()
