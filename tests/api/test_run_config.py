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
    assert config.engine == "sequential"
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
    ],
)
def test_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        RunConfig(**kwargs)


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
        engine="minibatch",
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
    updated = base.with_overrides(k=9, engine="chunked", method=None)
    assert updated.k == 9
    assert updated.engine == "chunked"
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
    assert config == RunConfig(method="kmeans", k=4, seed=3)
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
    assert ClusterModel.load(tmp_path / "m").config == RunConfig(method="kmeans", k=4, seed=3)

    config_path.write_text(json.dumps({"backend": "remote", "targets": ["http://w:8000"]}))
    with pytest.raises(SystemExit) as err:
        cli.main(["fit", "--config", str(config_path), "--data", str(data_path),
                  "--out", str(tmp_path / "never")])
    assert err.value.code == 2
    assert "remote training backend was removed" in capsys.readouterr().err
