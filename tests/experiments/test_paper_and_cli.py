"""Tests for the paper experiment entry points and the CLI (micro scale)."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import cli
from repro.experiments.paper import (
    EXPERIMENTS,
    BenchSettings,
    bench_scale,
    build_adult,
    build_kinematics,
    dataset_lambda,
    write_result,
)


def test_bench_scale_defaults(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
    monkeypatch.delenv("REPRO_BENCH_SEEDS", raising=False)
    monkeypatch.delenv("REPRO_BENCH_ADULT_N", raising=False)
    assert bench_scale() == (3, 6000)


def test_bench_scale_env_overrides(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SEEDS", "7")
    monkeypatch.setenv("REPRO_BENCH_ADULT_N", "1234")
    assert bench_scale() == (7, 1234)


def test_bench_scale_full(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_FULL", "1")
    assert bench_scale() == (100, 32561)


def test_bench_settings_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
    monkeypatch.setenv("REPRO_BENCH_SEEDS", "4")
    monkeypatch.delenv("REPRO_BENCH_ADULT_N", raising=False)
    monkeypatch.setenv("REPRO_ENGINE", "chunked")
    monkeypatch.delenv("REPRO_CHUNK_SIZE", raising=False)
    # Env supplies unset knobs; explicit arguments win.
    settings = BenchSettings.resolve(adult_n=999)
    assert settings == BenchSettings(seeds=4, adult_n=999, engine="chunked")
    assert BenchSettings.resolve(seeds=2, engine="sequential").seeds == 2
    assert BenchSettings.resolve(full=True).adult_n == 32561
    assert BenchSettings.resolve(full=True, seeds=5).seeds == 5


def test_dataset_lambda_matches_paper_kinematics():
    # n = 161 → (161/5)² ≈ 1037 ≈ the paper's 10³ setting.
    assert dataset_lambda(161) == pytest.approx(1036.84, abs=0.01)


def test_build_adult_parity(monkeypatch):
    ds = build_adult(1500)
    np.testing.assert_allclose(ds.column("income").distribution(), [0.5, 0.5])
    assert ds.sensitive_names[-1] == "native-country"


def test_build_kinematics_shape():
    ds = build_kinematics(epochs=3)
    assert ds.n == 161
    assert len(ds.feature_names) == 100


def test_write_result(tmp_path, monkeypatch):
    import repro.experiments.paper as paper

    monkeypatch.setattr(paper, "RESULTS_DIR", tmp_path / "results")
    path = write_result("x.txt", "hello")
    assert path.read_text() == "hello\n"


def test_registry_complete():
    assert set(EXPERIMENTS) == {
        "table5",
        "table6",
        "table7",
        "table8",
        "fig1-2",
        "fig3-4",
        "fig5-7",
    }
    for fn, description in EXPERIMENTS.values():
        assert callable(fn) and description


# --------------------------------------------------------------------- #
# CLI                                                                     #
# --------------------------------------------------------------------- #


def test_cli_list(capsys):
    from repro.experiments.paper import EXPERIMENTS

    assert cli.main(["paper", "list"]) == 0
    out = capsys.readouterr().out
    assert all(name in out for name in EXPERIMENTS)


def test_cli_paper_list(capsys):
    assert cli.main(["paper", "list"]) == 0
    out = capsys.readouterr().out
    assert "table5" in out


def test_cli_parser_rejects_unknown():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["bogus"])


def test_cli_chunk_size_uses_parser_error(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["paper", "table7", "--chunk-size", "0"])
    assert err.value.code == 2
    captured = capsys.readouterr().err
    assert "usage:" in captured and "--chunk-size" in captured


def test_cli_runs_kinematics_table(capsys, monkeypatch, tmp_path):
    import repro.experiments.paper as paper

    monkeypatch.setattr(paper, "RESULTS_DIR", tmp_path / "results")
    monkeypatch.setenv("REPRO_BENCH_SEEDS", "1")
    assert cli.main(["paper", "table7"]) == 0
    captured = capsys.readouterr()
    assert "Table 7" in captured.out
    assert (tmp_path / "results" / "table7_kinematics_quality.txt").exists()


def test_cli_paper_does_not_mutate_environ(capsys, monkeypatch, tmp_path):
    """--seeds/--engine/... travel as arguments, never through os.environ."""
    import repro.experiments.paper as paper

    monkeypatch.setattr(paper, "RESULTS_DIR", tmp_path / "results")
    for var in (
        "REPRO_BENCH_SEEDS",
        "REPRO_BENCH_ADULT_N",
        "REPRO_BENCH_FULL",
        "REPRO_ENGINE",
        "REPRO_CHUNK_SIZE",
    ):
        monkeypatch.delenv(var, raising=False)
    before = dict(os.environ)
    assert cli.main(["paper", "table7", "--seeds", "1", "--engine", "chunked",
                     "--chunk-size", "64"]) == 0
    assert dict(os.environ) == before
    assert "Table 7" in capsys.readouterr().out


def test_cli_fit_predict_evaluate_round_trip(capsys, tmp_path, monkeypatch):
    """fit → predict → evaluate, end to end, with no REPRO_* env vars set."""
    for var in list(os.environ):
        if var.startswith("REPRO_"):
            monkeypatch.delenv(var)
    model_dir = tmp_path / "model"
    assert cli.main([
        "fit", "--dataset", "synthetic", "--method", "fairkm",
        "-k", "3", "--seed", "1", "--out", str(model_dir),
    ]) == 0
    out = capsys.readouterr().out
    assert "method:     fairkm" in out
    assert (model_dir / "model.json").exists()

    labels_path = tmp_path / "labels.npy"
    assert cli.main([
        "predict", "--model", str(model_dir), "--dataset", "synthetic",
        "--out", str(labels_path),
    ]) == 0
    assert "assigned 600 points" in capsys.readouterr().out
    labels = np.load(labels_path)
    assert labels.shape == (600,)
    assert set(np.unique(labels)) <= {0, 1, 2}

    assert cli.main(["evaluate", "--model", str(model_dir),
                     "--dataset", "synthetic"]) == 0
    out = capsys.readouterr().out
    assert "CO" in out and "Fairness" in out


def test_cli_fit_predict_from_npz(capsys, tmp_path):
    rng = np.random.default_rng(0)
    data_path = tmp_path / "data.npz"
    np.savez(
        data_path,
        points=rng.normal(size=(80, 3)),
        sensitive_group=rng.integers(0, 2, 80),
    )
    model_dir = tmp_path / "m"
    assert cli.main(["fit", "--data", str(data_path), "-k", "2",
                     "--out", str(model_dir)]) == 0
    out = capsys.readouterr().out
    assert "sensitive:  group" in out

    out_path = tmp_path / "labels.txt"
    assert cli.main(["predict", "--model", str(model_dir),
                     "--data", str(data_path), "--out", str(out_path)]) == 0
    assert len(out_path.read_text().splitlines()) == 80


def test_cli_fit_config_file_with_flag_override(capsys, tmp_path):
    from repro.api import RunConfig

    config_path = tmp_path / "run.json"
    config_path.write_text(RunConfig(method="kmeans", k=4, seed=3).to_json())
    model_dir = tmp_path / "m"
    rng = np.random.default_rng(1)
    data_path = tmp_path / "points.npy"
    np.save(data_path, rng.normal(size=(60, 2)))
    assert cli.main(["fit", "--config", str(config_path), "-k", "2",
                     "--data", str(data_path), "--out", str(model_dir)]) == 0
    capsys.readouterr()
    from repro.api import ClusterModel

    model = ClusterModel.load(model_dir)
    assert model.config.method == "kmeans"  # from the file
    assert model.config.k == 2  # overridden by the flag


def test_cli_fit_requires_exactly_one_data_source(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["fit"])
    assert err.value.code == 2
    assert "--dataset or --data" in capsys.readouterr().err


def test_cli_fit_fairness_method_without_sensitive_arrays_is_usage_error(capsys, tmp_path):
    data_path = tmp_path / "points.npy"
    np.save(data_path, np.random.default_rng(2).normal(size=(40, 2)))
    with pytest.raises(SystemExit) as err:
        cli.main(["fit", "--data", str(data_path), "-k", "2", "--out", str(tmp_path / "m")])
    assert err.value.code == 2
    assert "needs sensitive attributes" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_cli_predict_missing_model_is_usage_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.main(["predict", "--model", str(tmp_path / "none"),
                  "--dataset", "synthetic"])
    assert err.value.code == 2


def test_load_points_file_rejects_unknown_suffix(tmp_path):
    path = tmp_path / "points.parquet"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="unsupported data format"):
        cli.load_points_file(path)


def test_load_points_file_csv(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    points, sensitive = cli.load_points_file(path)
    np.testing.assert_allclose(points, [[1.0, 2.0], [3.0, 4.0]])
    assert sensitive is None


def test_load_points_file_csv_single_column(tmp_path):
    """One feature per row must stay (n, 1), not flip to (1, n)."""
    path = tmp_path / "points.csv"
    path.write_text("1.0\n2.0\n3.0\n")
    points, _ = cli.load_points_file(path)
    assert points.shape == (3, 1)


def test_cli_legacy_alias_with_leading_options(capsys):
    """The pre-subcommand spellings ('repro table7', 'repro --seeds 1
    table7') are gone: only 'repro paper table7' names an experiment."""
    for argv in (["table7"], ["--seeds", "1", "table7"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert "usage:" in capsys.readouterr().err
