"""RunConfig: validation and JSON round trips."""

from __future__ import annotations

import json

import pytest

from repro.api import ENGINES, RunConfig


def test_defaults():
    config = RunConfig()
    assert config.method == "fairkm"
    assert config.k == 5
    assert config.lambda_ == "auto"
    assert config.engine == "chunked"
    assert config.chunk_size is None
    assert config.sensitive is None


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"k": 0}, "k must be positive"),
        ({"k": -2}, "k must be positive"),
        ({"lambda_": -1.0}, "non-negative"),
        ({"lambda_": "automatic"}, "auto"),
        ({"max_iter": 0}, "max_iter"),
        ({"engine": "warp"}, "engine"),
        ({"chunk_size": 0}, "chunk_size"),
        ({"method": ""}, "method"),
        ({"lambda_": float("nan")}, "finite non-negative"),
        ({"lambda_": float("inf")}, "finite non-negative"),
        ({"lambda_": float("-inf")}, "finite non-negative"),
    ],
)
def test_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        RunConfig(**kwargs)


def test_fairkm_refuses_backend_and_workers(capsys):
    """The exact engines are serial: only minibatch_fairkm has shard
    scoring to place, so every other method refuses a non-default
    backend or worker count instead of silently ignoring it."""
    import numpy as np

    from repro import cli
    from repro.api import build_estimator

    for method in ("fairkm", "kmeans"):
        for spec in ({"backend": "multiprocess"}, {"workers": 2}, {"workers": "auto"}):
            with pytest.raises(ValueError, match="only method='minibatch_fairkm'"):
                RunConfig(method=method, **spec)
            with pytest.raises(ValueError, match="only method='minibatch_fairkm'"):
                RunConfig.from_dict({"method": method, **spec})
    with pytest.raises(ValueError, match="only method='minibatch_fairkm'"):
        RunConfig(method="fairkm").with_overrides(workers=2)
    with pytest.raises(SystemExit) as err:
        cli.main(["fit", "--method", "fairkm", "--workers", "4"])
    assert err.value.code == 2
    assert "only method='minibatch_fairkm'" in capsys.readouterr().err

    rng = np.random.default_rng(0)
    points = rng.normal(size=(300, 4))
    sensitive = {"g": rng.integers(0, 3, 300)}
    config = RunConfig(method="fairkm", k=3, seed=0, max_iter=6, backend="local", workers=1)
    result = build_estimator(config).fit(points, sensitive=sensitive)
    assert "backend" not in result.diagnostics
    assert all("backend" not in s and "workers" not in s for s in result.diagnostics["sweeps"])


@pytest.mark.parametrize(
    "field, value",
    [
        ("k", 2.5),
        ("k", True),
        ("k", "5"),
        ("max_iter", 0.5),
        ("max_iter", False),
        ("chunk_size", 2.5),
        ("chunk_size", True),
        ("seed", "x"),
        ("seed", 1.5),
        ("workers", 2.5),
    ],
)
def test_counts_must_be_integral(field, value):
    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        RunConfig.from_dict({field: value})


def test_integral_floats_are_stored_as_ints():
    config = RunConfig(
        method="minibatch_fairkm", backend="multiprocess",
        k=4.0, max_iter=7.0, chunk_size=64.0, seed=3.0, workers=2.0,
    )
    assert (config.k, config.max_iter, config.chunk_size, config.seed, config.workers) == (
        4, 7, 64, 3, 2,
    )
    assert all(
        type(value) is int
        for value in (config.k, config.max_iter, config.chunk_size, config.seed, config.workers)
    )


@pytest.mark.parametrize(
    "config", [{"k": 2.5}, {"max_iter": 0.5}, {"chunk_size": 2.5}, {"seed": "x"}]
)
def test_cli_fit_config_with_a_fractional_count_is_a_usage_error(config, capsys, tmp_path):
    import numpy as np

    from repro import cli

    data_path = tmp_path / "points.npy"
    np.save(data_path, np.random.default_rng(1).normal(size=(30, 2)))
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"method": "kmeans", **config}))
    with pytest.raises(SystemExit) as err:
        cli.main(["fit", "--config", str(config_path), "--data", str(data_path),
                  "--out", str(tmp_path / "never")])
    assert err.value.code == 2
    assert f"--config {config_path}: {next(iter(config))}" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()


def test_engines_constant_matches_core():
    from repro.core.engine import make_sweep

    for engine in ENGINES:
        assert make_sweep(engine) is not None


def test_json_round_trip():
    config = RunConfig(
        method="minibatch_fairkm",
        k=7,
        lambda_=250.5,
        max_iter=11,
        engine="chunked",
        chunk_size=128,
        seed=42,
        scale_features=False,
        sensitive=("gender", "race"),
    )
    assert RunConfig.from_json(config.to_json()) == config
    # The wire format is plain JSON data, no custom types.
    data = json.loads(config.to_json())
    assert data["sensitive"] == ["gender", "race"]
    assert data["chunk_size"] == 128


def test_json_round_trip_defaults():
    config = RunConfig()
    assert RunConfig.from_json(config.to_json()) == config


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown RunConfig keys"):
        RunConfig.from_dict({"method": "fairkm", "chunksize": 4})


def test_sensitive_coerced_to_tuple():
    config = RunConfig(sensitive=["a", "b"])
    assert config.sensitive == ("a", "b")


def test_with_overrides():
    base = RunConfig()
    updated = base.with_overrides(k=9, engine="sequential", method=None)
    assert updated.k == 9
    assert updated.engine == "sequential"
    assert updated.method == base.method  # None means "keep"
    assert base.k == 5  # frozen original untouched
    assert base.with_overrides() == base


# A config file written while RunConfig still had the remote backend's
# ``targets`` field (always ``null`` unless the backend was remote).
_PRE_REMOVAL_JSON = (
    '{"backend": "local", "chunk_size": null, "engine": "sequential", "k": 4, '
    '"lambda_": "auto", "max_iter": 30, "method": "kmeans", "n_jobs": 1, '
    '"scale_features": true, "seed": 3, "sensitive": null, "targets": null, '
    '"workers": null}'
)
_REMOVED = "remote training backend was removed.*'local' or 'multiprocess'"


def test_remote_backend_is_rejected_with_the_removal_error():
    with pytest.raises(ValueError, match=_REMOVED):
        RunConfig(backend="remote")
    with pytest.raises(ValueError, match=_REMOVED):
        RunConfig.from_dict({"backend": "remote", "targets": None})


def test_pre_removal_config_json_still_loads():
    config = RunConfig.from_json(_PRE_REMOVAL_JSON)
    assert config == RunConfig(method="kmeans", k=4, seed=3, engine="sequential")
    assert "targets" not in config.to_dict()


def test_non_empty_targets_raise_the_removal_error():
    data = {**json.loads(_PRE_REMOVAL_JSON), "backend": "remote",
            "targets": ["http://10.0.0.5:8000"]}
    with pytest.raises(ValueError, match=_REMOVED):
        RunConfig.from_dict(data)
    with pytest.raises(ValueError, match=_REMOVED):
        RunConfig.from_dict({**data, "backend": "local"})


def test_cli_rejects_backend_remote_and_loads_pre_removal_config(capsys, tmp_path):
    import numpy as np

    from repro import cli
    from repro.api import ClusterModel

    data_path = tmp_path / "points.npy"
    np.save(data_path, np.random.default_rng(1).normal(size=(60, 2)))
    with pytest.raises(SystemExit) as err:
        cli.main(["fit", "--backend", "remote", "--data", str(data_path),
                  "--out", str(tmp_path / "never")])
    assert err.value.code == 2
    assert "invalid choice: 'remote'" in capsys.readouterr().err

    config_path = tmp_path / "run.json"
    config_path.write_text(_PRE_REMOVAL_JSON)
    assert cli.main(["fit", "--config", str(config_path), "--data", str(data_path),
                     "--out", str(tmp_path / "m")]) == 0
    capsys.readouterr()
    assert ClusterModel.load(tmp_path / "m").config == RunConfig(
        method="kmeans", k=4, seed=3, engine="sequential"
    )

    config_path.write_text(json.dumps({"backend": "remote", "targets": ["http://w:8000"]}))
    with pytest.raises(SystemExit) as err:
        cli.main(["fit", "--config", str(config_path), "--data", str(data_path),
                  "--out", str(tmp_path / "never")])
    assert err.value.code == 2
    assert "remote training backend was removed" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# One exact engine by default; mini-batch is a method, not an engine      #
# --------------------------------------------------------------------- #


def test_default_engine_is_chunked_in_every_layer():
    """Core keeps its own literal (it cannot import repro.api); every
    other layer reads RunConfig's, so none can drift from the other."""
    import inspect

    from repro.core import FairKM
    from repro.experiments import BenchSettings, SuiteConfig, lambda_sweep

    assert FairKM(3).sweep.name == RunConfig().engine == "chunked"
    assert SuiteConfig().engine == BenchSettings().engine == RunConfig().engine
    assert inspect.signature(lambda_sweep).parameters["engine"].default == RunConfig().engine


def test_minibatch_engine_names_the_method():
    with pytest.raises(ValueError, match='method="minibatch_fairkm"'):
        RunConfig(engine="minibatch")


def _legacy_problem():
    import numpy as np

    rng = np.random.default_rng(4)
    points = np.vstack([rng.normal(0, 1, (60, 3)), rng.normal(4, 1, (60, 3))])
    return points, {"g": rng.integers(0, 3, 120)}


def test_legacy_sequential_config_round_trips_and_fits_sequentially():
    from repro.api import build_estimator
    from repro.core import SequentialSweep

    data = {**RunConfig(k=3).to_dict(), "engine": "sequential"}
    config = RunConfig.from_dict(data)
    assert config.engine == "sequential"
    assert config.to_dict() == data
    estimator = build_estimator(config)
    assert isinstance(estimator.sweep, SequentialSweep)
    points, sensitive = _legacy_problem()
    result = estimator.fit(points, sensitive=sensitive)
    assert result.diagnostics["engine"] == "sequential"


def test_legacy_minibatch_engine_config_loads_as_minibatch_fairkm():
    import numpy as np

    from repro.api import build_estimator
    from repro.core import MiniBatchFairKM

    config = RunConfig.from_dict({"method": "fairkm", "engine": "minibatch", "chunk_size": 48})
    assert config == RunConfig(method="minibatch_fairkm", chunk_size=48)
    points, sensitive = _legacy_problem()
    estimator = build_estimator(config)
    got = estimator.fit(points, sensitive=sensitive)
    expected = MiniBatchFairKM(config.k, batch_size=48, seed=config.seed).fit(
        points, sensitive=sensitive
    )
    np.testing.assert_array_equal(got.labels, expected.labels)
    assert got.objective_history == expected.objective_history
    assert got.diagnostics["engine"] == "minibatch"
    # Other methods never read the key: it is dropped, the method kept.
    assert RunConfig.from_dict({"method": "kmeans", "engine": "minibatch"}) == RunConfig(
        method="kmeans"
    )


def test_cluster_model_v1_fixture_config_loads_unchanged():
    from pathlib import Path

    from repro.api import ClusterModel

    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "cluster_model_v1"
    stored = json.loads((fixture / "model.json").read_text())["config"]
    loaded = ClusterModel.load(fixture).config.to_dict()
    assert {key: loaded[key] for key in stored} == stored
