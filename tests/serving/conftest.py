"""Shared fixtures for the serving tests."""

from __future__ import annotations

import http.client
import socket
from dataclasses import dataclass

import numpy as np
import pytest

from repro.api import ClusterModel, RunConfig
from repro.serving import AssignmentServer, FleetProxy, FleetSupervisor, ModelRegistry


@dataclass(frozen=True)
class RawResponse:
    """One response read off a raw socket."""

    status: int
    headers: http.client.HTTPMessage
    body: bytes
    #: The server closed the connection after the response.
    closed: bool


@dataclass(frozen=True)
class FrontDoor:
    """A running front door (``server`` or ``proxy``) on a local port."""

    kind: str
    port: int
    model: ClusterModel

    def exchange(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: dict[str, str] | None = None,
        timeout: float = 5.0,
    ) -> RawResponse:
        """Send one request exactly as given; read one response.

        A ``Content-Length`` for *body* is added unless *headers* sets
        one (malformed values go out verbatim) or a ``Transfer-Encoding``
        (the body is then sent as already framed). The socket timeout turns
        a server that never answers into a ``TimeoutError``, not a hang.
        Responses must carry a ``Content-Length`` (every error does).
        """
        fields = {"Host": "front-door", **(headers or {})}
        if "Transfer-Encoding" not in fields:
            fields.setdefault("Content-Length", str(len(body)))
        head = f"{method} {path} HTTP/1.1\r\n" + "".join(
            f"{name}: {value}\r\n" for name, value in fields.items()
        )
        with socket.create_connection(("127.0.0.1", self.port), timeout=timeout) as sock:
            sock.sendall(head.encode("latin-1") + b"\r\n" + body)
            reader = sock.makefile("rb")
            status = int(reader.readline().split()[1])
            response_headers = http.client.parse_headers(reader)
            payload = reader.read(int(response_headers["Content-Length"]))
            sock.settimeout(0.5)
            try:
                closed = reader.read1(1) == b""
            except ConnectionResetError:
                closed = True
            except TimeoutError:
                closed = False
        return RawResponse(status, response_headers, payload, closed)


@pytest.fixture(scope="module", params=["server", "proxy"])
def front_door(request, tmp_path_factory):
    """An in-process ``AssignmentServer``, or a 2-worker fleet behind a
    ``FleetProxy``, serving one 3-center model over 4 features."""
    rng = np.random.default_rng(17)
    model = ClusterModel(rng.normal(size=(3, 4)), RunConfig(method="kmeans", k=3))
    registry = ModelRegistry(tmp_path_factory.mktemp("front-door") / "registry")
    registry.publish(model, label="a")
    if request.param == "server":
        with AssignmentServer(registry=registry) as server:
            yield FrontDoor("server", server.port, model)
    else:
        with FleetSupervisor(registry, workers=2) as fleet, FleetProxy(fleet) as proxy:
            yield FrontDoor("proxy", proxy.port, model)
