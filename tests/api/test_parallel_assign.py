"""Assignment is serial: the Assigner matches every method's predict,
and the retired worker-count knobs are refused."""

from __future__ import annotations

import numpy as np
import pytest

from repro import cli
from repro.api import (
    Assigner,
    ClusterModel,
    METHOD_REGISTRY,
    RunConfig,
    batched_assign,
    build_estimator,
)
from repro.serving import AssignmentServer

N, D, K = 240, 5, 3


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    points = np.vstack(
        [rng.normal(0, 1, (N // 2, D)), rng.normal(4, 1, (N - N // 2, D))]
    )
    probe = rng.normal(1.5, 2.0, (500, D))
    return points, {"group": rng.integers(0, 2, N)}, probe


@pytest.mark.parametrize("method", sorted(METHOD_REGISTRY))
def test_parallel_assign_equals_predict_per_method(data, method):
    """Assigner matches in-process predict for every method."""
    points, sensitive, probe = data
    estimator = build_estimator(RunConfig(method=method, k=K, seed=0, max_iter=10))
    estimator.fit_predict(points, sensitive=sensitive)
    service = Assigner(estimator.centers_)
    # Tiny chunks split the probe across many GEMMs.
    np.testing.assert_array_equal(
        service.assign(probe, chunk_size=64), estimator.predict(probe)
    )


def test_invalid_n_jobs_rejected(data, capsys):
    """Assignment takes no worker count: the retired workers and n_jobs
    spellings are refused outright instead of being silently ignored."""
    _, _, probe = data
    centers = np.eye(D)[:K]
    with pytest.raises(TypeError, match="workers"):
        Assigner(centers, workers=2)
    with pytest.raises(TypeError, match="workers"):
        batched_assign(probe, centers, workers=2)
    with pytest.raises(TypeError, match="workers"):
        AssignmentServer(model_path="m", workers=2)
    for argv in (["serve", "--workers", "2"],
                 ["predict", "--model", "m", "--dataset", "synthetic", "--workers", "2"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    with pytest.raises(TypeError, match="n_jobs"):
        Assigner(centers, n_jobs=2)
    with pytest.raises(TypeError, match="n_jobs"):
        Assigner(centers).assign(probe, n_jobs=2)


def test_model_assigns_at_width_one(data, tmp_path):
    """A model fitted by several worker processes assigns exactly like
    the same model loaded back from disk; artifacts never persist the
    worker count (v1 wire format unchanged)."""
    import json

    from repro.api import fit

    points, sensitive, probe = data
    config = RunConfig(
        method="minibatch_fairkm", k=K, seed=0, max_iter=10,
        backend="multiprocess", workers=2,
    )
    model = fit(config, points, sensitive=sensitive)
    assert model.config.workers == 2  # training width only
    path = model.save(tmp_path / "m")
    payload = json.loads((path / "model.json").read_text())
    assert "workers" not in payload["config"] and "n_jobs" not in payload["config"]
    loaded = ClusterModel.load(path)
    np.testing.assert_array_equal(
        loaded.assign(probe, chunk_size=64), model.assign(probe, chunk_size=64)
    )


def test_run_config_n_jobs_round_trip():
    """A config written with the retired n_jobs key loads onto workers
    and round-trips under the one name."""
    mp = {"method": "minibatch_fairkm", "backend": "multiprocess"}
    config = RunConfig.from_dict({**mp, "n_jobs": 4})
    assert config == RunConfig(**mp, workers=4)
    assert "n_jobs" not in config.to_dict()
    assert RunConfig.from_json(config.to_json()) == config
    assert RunConfig.from_dict({**mp, "n_jobs": -1}).workers == -1
    with pytest.raises(ValueError, match="workers"):
        RunConfig.from_dict({"n_jobs": 0})
    with pytest.raises(ValueError, match="workers"):
        RunConfig.from_dict({"n_jobs": -4})
