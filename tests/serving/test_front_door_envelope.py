"""The request envelope both front doors share: body limits, deadline
parsing and JSON errors, on an ``AssignmentServer`` and a ``FleetProxy``."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.serving import wire
from repro.serving.server import MAX_BODY_BYTES, NPY_CONTENT_TYPE, STREAM_CONTENT_TYPE


def _npy(points: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, points, allow_pickle=False)
    return buffer.getvalue()


def _assert_json_error(response, status: int) -> str:
    assert response.status == status
    assert response.headers["Content-Type"] == "application/json"
    message = json.loads(response.body)["error"]
    assert message
    return message


NPY_BODY = _npy(np.zeros((3, 4)))


@pytest.mark.parametrize(
    ("method", "body", "headers", "status"),
    [
        pytest.param("GET", b"", {}, 404, id="unknown-path"),
        # Header only: the declared body is never sent, nor read.
        pytest.param(
            "POST",
            b"",
            {"Content-Type": NPY_CONTENT_TYPE, "Content-Length": str(MAX_BODY_BYTES + 1)},
            413,
            id="body-too-large",
        ),
        pytest.param(
            "POST",
            NPY_BODY,
            {"Content-Type": NPY_CONTENT_TYPE, "X-Deadline-Ms": "soon"},
            400,
            id="malformed-deadline",
        ),
        pytest.param(
            "POST",
            NPY_BODY,
            {"Content-Type": NPY_CONTENT_TYPE, "X-Deadline-Ms": "0"},
            504,
            id="spent-deadline",
        ),
    ],
)
def test_error_envelope_matches_on_both_front_doors(
    front_door, method, body, headers, status
):
    path = "/nope" if method == "GET" else "/assign"
    response = front_door.exchange(method, path, body, headers)
    _assert_json_error(response, status)
    if method == "POST":
        # Each POST is refused before its body is read: the leftover
        # bytes would be parsed as the next request line.
        assert response.closed


@pytest.mark.parametrize("length", ["-1", "abc"])
@pytest.mark.parametrize("content_type", ["json", "npy", "stream"])
def test_malformed_content_length_is_a_400_that_closes(front_door, length, content_type):
    body, headers = {
        "json": (b'{"points": [[0, 0, 0, 0]]}', {}),
        "npy": (_npy(np.zeros((2, 4))), {"Content-Type": NPY_CONTENT_TYPE}),
        "stream": (
            wire.encode_stream([np.zeros((2, 4))]),
            {"Content-Type": STREAM_CONTENT_TYPE},
        ),
    }[content_type]
    response = front_door.exchange(
        "POST", "/assign", body, {**headers, "Content-Length": length}
    )
    assert "Content-Length" in _assert_json_error(response, 400)
    assert response.closed
    # The door keeps serving on a fresh connection.
    points = np.zeros((2, 4))
    follow_up = front_door.exchange(
        "POST", "/assign", _npy(points), {"Content-Type": NPY_CONTENT_TYPE}
    )
    assert follow_up.status == 200
    np.testing.assert_array_equal(
        wire.decode_npy(follow_up.body), front_door.model.predict(points)
    )


@pytest.mark.parametrize(
    "body",
    [
        # After the refused size line, the next line reads as a valid
        # 2,748-byte chunk: a reader that parses on would wait for it.
        pytest.param(b"zz\r\nabc\r\n0\r\n\r\n", id="hex-looking-next-line"),
        pytest.param(b"qq\r\nabc\r\n", id="unterminated"),
    ],
)
def test_malformed_chunk_size_is_a_400_that_closes(front_door, body):
    response = front_door.exchange(
        "POST",
        "/assign",
        body,
        {"Content-Type": STREAM_CONTENT_TYPE, "Transfer-Encoding": "chunked"},
    )
    assert "chunked encoding size line" in _assert_json_error(response, 400)
    assert response.closed
