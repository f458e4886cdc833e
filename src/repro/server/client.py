"""A small blocking client for the TSE server.

The synchronous counterpart of :class:`~repro.server.server.TseServer` —
used by the tests, the examples and quick scripts; load generators should
speak the protocol with asyncio directly (see ``benchmarks/bench_server.py``).

::

    from repro.server.client import Client

    with Client("127.0.0.1", 7777, tenant="registrar") as client:
        client.attach("registrar")
        oid = client.create("Student", name="Ada", major="cs")["oid"]
        client.add_attribute("register", to="Student", domain="str")
        print(client.count("Student"))

Every request/response pair is one method call; an ``error`` frame from
the server raises :class:`ServerError` carrying the typed ``code`` from
``docs/PROTOCOL.md``.
"""

from __future__ import annotations

import itertools
import socket
from typing import Dict, List, Optional, Sequence

from repro.errors import TseError
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    read_frame_sync,
    write_frame_sync,
)

__all__ = ["Client", "ServerError"]


class ServerError(TseError):
    """The server answered with an ``error`` frame."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


class Client:
    """One blocking connection: hello on connect, then request/response."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        token: Optional[str] = None,
        tenant: Optional[str] = None,
        timeout: float = 30.0,
        protocol: int = PROTOCOL_VERSION,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        connect: bool = True,
    ) -> None:
        self.host = host
        self.port = port
        self.token = token
        self.tenant = tenant
        self.timeout = timeout
        self.protocol = protocol
        self.max_frame_bytes = max_frame_bytes
        self._sock: Optional[socket.socket] = None
        self._ids = itertools.count(1)
        self.welcome: Optional[dict] = None
        self.view: Optional[str] = None
        if connect:
            self.connect()

    # -- lifecycle ---------------------------------------------------------

    def connect(self) -> dict:
        """Open the socket and exchange ``hello``/``welcome``."""
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        hello: Dict[str, object] = {"type": "hello", "protocol": self.protocol}
        if self.token is not None:
            hello["token"] = self.token
        if self.tenant is not None:
            hello["tenant"] = self.tenant
        self.welcome = self.request(**hello)
        return self.welcome

    def close(self) -> None:
        """Orderly shutdown: ``goodbye`` (best effort), then close."""
        if self._sock is None:
            return
        try:
            self.request(type="goodbye")
        except (TseError, OSError):
            pass
        try:
            self._sock.close()
        finally:
            self._sock = None

    def __enter__(self) -> "Client":
        if self._sock is None:
            self.connect()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- the one primitive -------------------------------------------------

    def request(self, **message) -> dict:
        """Send one request frame, wait for its response.

        Adds a correlation ``id`` and checks the response echoes it;
        raises :class:`ServerError` on an ``error`` frame and
        ``ConnectionError`` when the server hangs up."""
        if self._sock is None:
            raise ConnectionError("client is not connected")
        rid = next(self._ids)
        message.setdefault("id", rid)
        write_frame_sync(self._sock, message, max_bytes=self.max_frame_bytes)
        reply = read_frame_sync(self._sock, max_bytes=self.max_frame_bytes)
        if reply is None:
            raise ConnectionError("server closed the connection")
        if reply.get("type") == "error":
            raise ServerError(
                str(reply.get("code", "internal")), str(reply.get("message", ""))
            )
        if "id" in reply and reply["id"] != message["id"]:  # pragma: no cover
            raise TseError(
                f"response id {reply['id']!r} does not match request "
                f"{message['id']!r}"
            )
        return reply

    # -- session -----------------------------------------------------------

    def attach(self, view: str) -> dict:
        reply = self.request(type="attach", view=view)
        self.view = view
        return reply

    def detach(self) -> dict:
        reply = self.request(type="detach")
        self.view = None
        return reply

    def ping(self) -> dict:
        return self.request(type="ping")

    # -- reads -------------------------------------------------------------

    def describe(self) -> dict:
        return self.request(type="describe")

    def classes(self) -> List[str]:
        return self.request(type="classes")["classes"]

    def extent(self, view_class: str, values: bool = False) -> dict:
        return self.request(type="extent", **{"class": view_class, "values": values})

    def count(self, view_class: str) -> int:
        return self.request(type="count", **{"class": view_class})["count"]

    def stats(self) -> dict:
        return self.request(type="stats")["stats"]

    def migration_status(self) -> dict:
        """Lazy-migration progress: backlog, per-epoch watermarks,
        backfill worker state."""
        return self.request(type="migration_status")["migration"]

    # -- writes ------------------------------------------------------------

    def create(self, view_class: str, **values) -> dict:
        return self.request(
            type="update", op="create", **{"class": view_class, "values": values}
        )

    def update(self, op: str, view_class: str, **fields) -> dict:
        """One generic update; ``fields`` may carry ``values``, ``oids``,
        ``where`` (a JSON predicate) exactly as in docs/PROTOCOL.md."""
        return self.request(type="update", op=op, **{"class": view_class}, **fields)

    def apply_many(self, updates: Sequence[dict]) -> dict:
        return self.request(type="apply_many", updates=list(updates))

    # -- schema changes (the eight primitives) -----------------------------

    def schema_change(self, op: str, **args) -> dict:
        """Issue one primitive schema change against the attached view."""
        return self.request(type=op, **args)

    def add_attribute(self, name: str, to: str, **extra) -> dict:
        return self.schema_change("add_attribute", name=name, to=to, **extra)

    def delete_attribute(self, name: str, from_: str) -> dict:
        return self.schema_change("delete_attribute", name=name, **{"from": from_})

    def add_method(self, name: str, to: str) -> dict:
        return self.schema_change("add_method", name=name, to=to)

    def delete_method(self, name: str, from_: str) -> dict:
        return self.schema_change("delete_method", name=name, **{"from": from_})

    def add_edge(self, sup: str, sub: str) -> dict:
        return self.schema_change("add_edge", sup=sup, sub=sub)

    def delete_edge(self, sup: str, sub: str, connected_to=None) -> dict:
        return self.schema_change(
            "delete_edge", sup=sup, sub=sub, connected_to=connected_to
        )

    def add_class(self, name: str, connected_to=None) -> dict:
        return self.schema_change("add_class", name=name, connected_to=connected_to)

    def delete_class(self, name: str) -> dict:
        return self.schema_change("delete_class", name=name)
