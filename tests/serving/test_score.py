"""The ``/score`` wire codec and ``ShardScorer``, below the HTTP layer.

``tests/backend/test_remote.py`` proves whole fits end to end; these
tests pin the codec itself: frame counts, bit-exact round trips on both
payload modes against ``ClusterState.batch_move_deltas`` (the single
source of scoring truth), content-addressed artifact publishing, and
typed errors on malformed requests.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.api import ClusterModel, RunConfig
from repro.core import CategoricalSpec, NumericSpec
from repro.core.state import ClusterState
from repro.serving.registry import ModelRegistry
from repro.serving.score import (
    ScoreFormatError,
    ShardScorer,
    decode_score_response,
    encode_score_request,
    encode_score_response,
    publish_data_artifact,
    request_frame_count,
)
from repro.serving.wire import decode_stream, encode_stream


def _state(n=120, dim=4, k=3, seed=0):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dim))
    cats = [CategoricalSpec("g", rng.integers(0, 3, n), n_values=3)]
    nums = [NumericSpec("z", rng.normal(size=n))]
    labels = np.random.default_rng(seed + 1).integers(0, k, n)
    return ClusterState(points, labels, k, cats, nums)


def test_request_frame_counts_are_the_documented_formulas():
    assert request_frame_count("inline", 2, 1) == 8 + 5 * 2 + 3 * 1
    assert request_frame_count("artifact", 2, 1) == 7 + 2 * 2 + 1
    assert request_frame_count("inline", 0, 0) == 8
    assert request_frame_count("artifact", 0, 0) == 7


def test_inline_request_scores_bit_identical_to_direct():
    state = _state()
    shard = np.arange(40, 90)
    payload = encode_score_request(state, shard, 12.5)
    frames, _ = decode_stream(payload)
    scorer = ShardScorer()
    deltas, meta = scorer.score(frames)
    assert meta["mode"] == "inline"
    assert np.array_equal(deltas, state.batch_move_deltas(shard, 12.5))
    assert scorer.scored["inline"] == 1


def test_artifact_publish_is_idempotent_and_content_addressed(tmp_path):
    state = _state()
    name = publish_data_artifact(tmp_path, state)
    assert re.fullmatch(r"d-[0-9a-f]{16}", name)
    # Same data, same name, still one file on disk.
    assert publish_data_artifact(tmp_path, state) == name
    assert len(list((tmp_path / "data").iterdir())) == 1
    # Different data is a different artifact.
    assert publish_data_artifact(tmp_path, _state(seed=7)) != name


def test_artifact_request_scores_bit_identical_and_caches_state(tmp_path):
    state = _state()
    name = publish_data_artifact(tmp_path, state)
    scorer = ShardScorer(artifact_root=tmp_path)
    for lam, shard in ((3.0, np.arange(25, 75)), (3.0, np.arange(0, 30))):
        payload = encode_score_request(state, shard, lam, artifact=name)
        frames, _ = decode_stream(payload)
        deltas, meta = scorer.score(frames)
        assert meta["mode"] == "artifact"
        assert np.array_equal(deltas, state.batch_move_deltas(shard, lam))
    assert scorer.scored["artifact"] == 2


@pytest.mark.parametrize("with_cats", [True, False])
def test_zero_row_request_scores_empty_in_both_modes(tmp_path, with_cats):
    state = _state()
    if not with_cats:
        state = ClusterState(state.points, state.labels, state.k, None, state.numeric_specs)
    name = publish_data_artifact(tmp_path, state)
    scorer = ShardScorer(artifact_root=tmp_path)
    shard = np.arange(0)
    for artifact in (None, name):
        frames, _ = decode_stream(encode_score_request(state, shard, 2.0, artifact=artifact))
        deltas, _ = scorer.score(frames)
        assert deltas.shape == (0, state.k)


def test_response_round_trip_preserves_bits():
    deltas = np.random.default_rng(0).normal(size=(7, 3))
    payload = b"".join(encode_score_response(deltas, "identity"))
    out = decode_score_response(payload, rows=7, k=3)
    assert np.array_equal(out, deltas)


def test_response_shape_mismatch_is_a_typed_error():
    payload = b"".join(
        encode_score_response(np.zeros((7, 3)), "identity")
    )
    with pytest.raises(ValueError):
        decode_score_response(payload, rows=8, k=3)
    with pytest.raises(ValueError):
        decode_score_response(payload, rows=7, k=4)


def test_malformed_request_is_a_typed_error():
    with pytest.raises(ScoreFormatError):
        ShardScorer().score([np.zeros(3, dtype=np.uint8)])


def test_unknown_artifact_is_a_typed_error(tmp_path):
    state = _state()
    publish_data_artifact(tmp_path, state)
    payload = encode_score_request(
        state, np.arange(10), 1.0, artifact="d-0123456789abcdef"
    )
    frames, _ = decode_stream(payload)
    with pytest.raises(ScoreFormatError):
        ShardScorer(artifact_root=tmp_path).score(frames)


def _poisoned(frames, index, value, at):
    """*frames* with one element of frame *index* replaced by *value*."""
    frames = list(frames)
    frames[index] = frames[index].copy()
    frames[index][at] = value
    return frames


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inline_point_is_a_typed_error(bad):
    state = _state()
    frames, _ = decode_stream(encode_score_request(state, np.arange(10), 2.0))
    # Frame 2 is the shard's points: one bad coordinate in one of ten rows.
    frames = _poisoned(frames, 2, bad, (3, 1))
    with pytest.raises(ScoreFormatError, match="non-finite"):
        ShardScorer().score(frames)


@pytest.mark.parametrize("mode, sums_frame", [("inline", 5), ("artifact", 4)])
def test_non_finite_statistics_are_a_typed_error_in_both_modes(
    tmp_path, mode, sums_frame
):
    state = _state()
    name = publish_data_artifact(tmp_path, state) if mode == "artifact" else None
    scorer = ShardScorer(artifact_root=tmp_path)
    frames, _ = decode_stream(
        encode_score_request(state, np.arange(10), 2.0, artifact=name)
    )
    with pytest.raises(ScoreFormatError, match="non-finite"):
        scorer.score(_poisoned(frames, sums_frame, np.nan, (0, 0)))
    with pytest.raises(ScoreFormatError, match="non-finite"):
        scorer.score(_poisoned(frames, 1, np.inf, 0))  # lambda
    # The clean request still scores.
    deltas, _ = scorer.score(frames)
    assert np.array_equal(deltas, state.batch_move_deltas(np.arange(10), 2.0))


def test_http_score_with_non_finite_point_is_400(tmp_path):
    from repro.serving.client import ServingClient
    from repro.serving.server import STREAM_CONTENT_TYPE, AssignmentServer

    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(
        ClusterModel(np.zeros((2, 3)), RunConfig(method="kmeans", k=2)), label="s"
    )
    frames, _ = decode_stream(encode_score_request(_state(), np.arange(10), 2.0))
    body = encode_stream(_poisoned(frames, 2, np.nan, (0, 0)))
    with AssignmentServer(registry=registry) as server:
        with ServingClient(url=server.url) as client:
            status, _, payload = client.request_raw(
                "POST", "/score", body, STREAM_CONTENT_TYPE
            )
            assert status == 400
            assert b"non-finite" in payload
            status, _, _ = client.request_raw(
                "POST", "/score", encode_stream(frames), STREAM_CONTENT_TYPE
            )
            assert status == 200
