"""The network server (repro.server): protocol edges, sessions, races.

Everything here drives a real ``TseServer`` over real TCP on the loopback
interface (ephemeral ports), mostly through the blocking ``Client``; the
protocol-violation tests speak raw bytes instead, because a correct client
cannot produce the frames they need.
"""

import json
import socket
import struct
import threading
import time

import pytest

from repro.cli import run_shell
from repro.core.database import TseDatabase
from repro.persistence import state_difference
from repro.server import (
    ERROR_CODES,
    PROTOCOL_VERSION,
    REQUEST_TYPES,
    RESPONSE_TYPES,
    BackgroundServer,
    Client,
    ServerError,
    TseServer,
)
from repro.server.protocol import read_frame_sync, write_frame_sync
from repro.workloads.university import build_figure3_database, populate_students



# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def build_db() -> TseDatabase:
    db, _view = build_figure3_database()
    populate_students(db, 4)
    return db


@pytest.fixture()
def served():
    """A populated figure-3 database behind a live server."""
    db = build_db()
    with BackgroundServer(db) as (host, port):
        yield db, host, port


@pytest.fixture()
def client(served):
    db, host, port = served
    with Client(host, port, tenant="t1") as c:
        yield c


def raw_socket(host, port) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=10)
    sock.settimeout(10)
    return sock


# ---------------------------------------------------------------------------
# session lifecycle
# ---------------------------------------------------------------------------

class TestLifecycle:
    def test_hello_welcome(self, client):
        assert client.welcome["type"] == "welcome"
        assert client.welcome["protocol"] == PROTOCOL_VERSION
        assert "schema_changes" in client.welcome["features"]

    def test_ping(self, client):
        assert client.ping()["type"] == "pong"

    def test_attach_describe(self, client):
        reply = client.attach("VS1")
        assert reply["type"] == "attached"
        assert reply["view"] == "VS1"
        assert set(reply["classes"]) == {"Person", "Student", "TA"}
        assert "name" in reply["classes"]["Person"]["properties"]

    def test_detach_then_reads_refused(self, client):
        client.attach("VS1")
        assert client.detach()["type"] == "detached"
        with pytest.raises(ServerError) as err:
            client.count("Student")
        assert err.value.code == "not_attached"

    def test_goodbye_closes(self, served):
        db, host, port = served
        c = Client(host, port)
        reply = c.request(type="goodbye")
        assert reply["type"] == "bye"
        # the server hangs up after bye
        with pytest.raises((ConnectionError, ServerError)):
            c.request(type="ping")

    def test_reattach_switches_views(self, client, served):
        db, _host, _port = served
        db.create_view("alt", ["Person"], closure="ignore")
        # out-of-band authoring (no WriterSession) must publish an epoch
        # before session-layer readers can see the new view
        db.sessions().epochs.publish()
        client.attach("VS1")
        client.attach("alt")
        assert client.classes() == ["Person"]

    def test_client_context_manager_says_goodbye(self, served):
        db, host, port = served
        with Client(host, port) as c:
            c.ping()
        served_ops = {
            key
            for key in db.stats()["server_requests"]
            if isinstance(key, str)
        }
        assert any("op=goodbye" in key for key in served_ops)


# ---------------------------------------------------------------------------
# protocol edges: spoken with raw bytes
# ---------------------------------------------------------------------------

class TestProtocolEdges:
    def test_malformed_frame_is_bad_frame_and_fatal(self, served):
        _db, host, port = served
        sock = raw_socket(host, port)
        body = b"{not json"
        sock.sendall(struct.pack(">I", len(body)) + body)
        reply = read_frame_sync(sock)
        assert reply["type"] == "error"
        assert reply["code"] == "bad_frame"
        assert sock.recv(1) == b""  # server closed
        sock.close()

    def test_non_object_body_is_bad_frame(self, served):
        _db, host, port = served
        sock = raw_socket(host, port)
        body = json.dumps([1, 2, 3]).encode()
        sock.sendall(struct.pack(">I", len(body)) + body)
        assert read_frame_sync(sock)["code"] == "bad_frame"
        sock.close()

    def test_oversized_frame_is_refused_and_fatal(self, served):
        _db, host, port = served
        sock = raw_socket(host, port)
        # announce a body far beyond the ceiling; send nothing after the
        # header — the server must answer from the announcement alone
        sock.sendall(struct.pack(">I", (1 << 20) + 1))
        reply = read_frame_sync(sock)
        assert reply["code"] == "frame_too_large"
        assert sock.recv(1) == b""
        sock.close()

    def test_unknown_type_keeps_connection_alive(self, served):
        _db, host, port = served
        with Client(host, port) as c:
            with pytest.raises(ServerError) as err:
                c.request(type="frobnicate")
            assert err.value.code == "unknown_type"
            assert c.ping()["type"] == "pong"  # still usable

    def test_request_before_hello_is_bad_state(self, served):
        _db, host, port = served
        sock = raw_socket(host, port)
        write_frame_sync(sock, {"type": "attach", "view": "VS1"})
        assert read_frame_sync(sock)["code"] == "bad_state"
        sock.close()

    def test_double_hello_is_bad_state(self, client):
        with pytest.raises(ServerError) as err:
            client.request(type="hello", protocol=PROTOCOL_VERSION)
        assert err.value.code == "bad_state"

    def test_protocol_version_mismatch_closes(self, served):
        _db, host, port = served
        sock = raw_socket(host, port)
        write_frame_sync(sock, {"type": "hello", "protocol": 999})
        reply = read_frame_sync(sock)
        assert reply["code"] == "unsupported_protocol"
        assert str(PROTOCOL_VERSION) in reply["message"]
        assert sock.recv(1) == b""
        sock.close()

    def test_auth_failure_closes(self):
        db = build_db()
        with BackgroundServer(db, auth_token="sesame") as (host, port):
            with pytest.raises(ServerError) as err:
                Client(host, port, token="wrong")
            assert err.value.code == "auth_failed"
            with Client(host, port, token="sesame") as c:
                assert c.welcome["type"] == "welcome"

    def test_attach_nonexistent_view(self, client):
        with pytest.raises(ServerError) as err:
            client.attach("no-such-view")
        assert err.value.code == "unknown_view"
        assert client.ping()["type"] == "pong"  # non-fatal

    def test_unknown_class_in_read(self, client):
        client.attach("VS1")
        with pytest.raises(ServerError) as err:
            client.count("Nope")
        assert err.value.code == "unknown_class"

    def test_correlation_id_is_echoed(self, served):
        _db, host, port = served
        sock = raw_socket(host, port)
        write_frame_sync(
            sock, {"type": "hello", "protocol": PROTOCOL_VERSION, "id": 41}
        )
        assert read_frame_sync(sock)["id"] == 41
        write_frame_sync(sock, {"type": "nope", "id": 42})
        error = read_frame_sync(sock)
        assert error["type"] == "error" and error["id"] == 42
        sock.close()

    def test_mid_request_disconnect_leaves_server_healthy(self, served):
        _db, host, port = served
        sock = raw_socket(host, port)
        write_frame_sync(sock, {"type": "hello", "protocol": PROTOCOL_VERSION})
        read_frame_sync(sock)
        # half a frame: a header promising bytes that never arrive
        sock.sendall(struct.pack(">I", 512) + b'{"type":')
        sock.close()
        # the server must shrug it off and serve the next client
        with Client(host, port) as c:
            assert c.ping()["type"] == "pong"

    def test_oversized_response_is_typed_error_not_fatal(self):
        """A response body over the ceiling must come back as a non-fatal
        response_too_large error — not kill the worker task (which would
        leave the client hanging and deadlock the read loop's queue)."""
        db = build_db()
        db.apply_view_updates("VS1", [
            {"op": "create", "class": "Person",
             "values": {"name": "x" * 5000, "age": 1}},
        ])
        with BackgroundServer(db, max_frame_bytes=2048) as (host, port):
            with Client(host, port) as c:
                c.attach("VS1")
                with pytest.raises(ServerError) as err:
                    c.extent("Person", values=True)
                assert err.value.code == "response_too_large"
                # the worker survived and the connection is still usable
                assert c.ping()["type"] == "pong"
                oids = c.extent("Person")["oids"]  # the small reply fits
                assert oids
            assert db.stats()["server_errors"][
                "{code=response_too_large}"
            ] >= 1

    def test_preauth_tenant_claims_do_not_mint_labels(self, served):
        """The tenant label is honoured only after a successful hello; a
        stranger's claimed tenant must not grow the metrics registry."""
        db, host, port = served
        sock = raw_socket(host, port)
        write_frame_sync(
            sock, {"type": "hello", "protocol": 999, "tenant": "minted"}
        )
        assert read_frame_sync(sock)["code"] == "unsupported_protocol"
        sock.close()
        keys = " ".join(db.stats()["server_requests"])
        assert "tenant=minted" not in keys
        assert "tenant=unauthenticated" in keys

    def test_stop_sends_shutting_down_to_live_connections(self):
        db = build_db()
        bg = BackgroundServer(db)
        host, port = bg.start()
        sock = raw_socket(host, port)
        write_frame_sync(sock, {"type": "hello", "protocol": PROTOCOL_VERSION})
        assert read_frame_sync(sock)["type"] == "welcome"
        bg.stop()
        reply = read_frame_sync(sock)
        assert reply["type"] == "error"
        assert reply["code"] == "shutting_down"
        assert sock.recv(1) == b""  # then the transport closes
        sock.close()
        bg.stop()  # idempotent once the loop has exited

    def test_attached_reply_matches_pinned_epoch(self):
        """The attach handler pins and describes under one latch read, so
        the reply's version is the pinned session's version."""
        db = build_db()
        bg = BackgroundServer(db)
        try:
            host, port = bg.start()
            with Client(host, port) as c:
                reply = c.attach("VS1")
                conn = next(iter(bg.server._connections))
                assert conn.session.view_version("VS1") == reply["version"]
        finally:
            bg.stop()

    def test_busy_shed_at_connection_limit(self):
        db = build_db()
        with BackgroundServer(db, max_connections=1) as (host, port):
            with Client(host, port) as keeper:
                keeper.ping()
                sock = raw_socket(host, port)
                reply = read_frame_sync(sock)  # shed before any request
                assert reply["type"] == "error"
                assert reply["code"] == "busy"
                sock.close()
                keeper.ping()  # the established tenant is unaffected
            assert db.stats()["server"]["connections_shed"] == 1


# ---------------------------------------------------------------------------
# data plane: reads, updates, batches
# ---------------------------------------------------------------------------

class TestDataPlane:
    def test_count_and_extent(self, client):
        client.attach("VS1")
        n = client.count("Student")
        extent = client.extent("Student")
        assert len(extent["oids"]) == n > 0
        assert all(isinstance(oid, int) for oid in extent["oids"])

    def test_extent_with_values(self, client):
        client.attach("VS1")
        extent = client.extent("Student", values=True)
        some = next(iter(extent["objects"].values()))
        assert "name" in some and "major" in some

    def test_create_set_delete(self, client):
        client.attach("VS1")
        before = client.count("Person")
        created = client.create("Person", name="net", age=9)
        assert created["op"] == "create" and isinstance(created["oid"], int)
        assert client.count("Person") == before + 1
        report = client.update(
            "set",
            "Person",
            values={"age": 10},
            where={"kind": "compare", "attribute": "name", "op": "==",
                   "value": "net"},
        )
        assert report["count"] == 1
        client.update(
            "delete",
            "Person",
            where={"kind": "compare", "attribute": "name", "op": "==",
                   "value": "net"},
        )
        assert client.count("Person") == before

    def test_apply_many_batch(self, client):
        client.attach("VS1")
        before = client.count("TA")
        reply = client.apply_many([
            {"op": "create", "class": "TA",
             "values": {"name": "b1", "major": "cs", "salary": 1}},
            {"op": "create", "class": "TA",
             "values": {"name": "b2", "major": "cs", "salary": 2}},
            {"op": "set", "class": "TA", "values": {"salary": 5},
             "where": {"kind": "compare", "attribute": "name", "op": "==",
                       "value": "b1"}},
        ])
        assert reply["count"] == 3
        assert client.count("TA") == before + 2

    def test_stats_over_the_wire(self, client):
        stats = client.stats()
        assert stats["server"]["listening"] is True
        assert stats["server"]["connections"] >= 1

    def test_migration_status_over_the_wire(self, client):
        """The report works from hello on (no attach) and carries the
        documented shape; after a schema change it reflects the drain."""
        status = client.migration_status()
        assert status["mode"] == "lazy"
        assert set(status) == {"mode", "backlog", "epochs", "backfill"}
        assert set(status["backfill"]) == {
            "enabled", "worker_alive", "batch_limit", "steps",
        }
        client.attach("VS1")
        client.add_attribute("wire_mig", to="Student", domain="str")
        drained = client.migration_status()
        assert drained["backlog"] >= 0  # worker may have drained already
        for entry in drained["epochs"]:
            assert 0.0 <= entry["watermark"] <= 1.0


# ---------------------------------------------------------------------------
# schema changes over the wire
# ---------------------------------------------------------------------------

class TestSchemaChanges:
    def test_add_and_delete_attribute(self, client):
        client.attach("VS1")
        reply = client.add_attribute("nickname", to="Person", domain="str")
        assert reply["version"] == 2
        assert "nickname" in client.describe()["classes"]["Person"]["properties"]
        client.delete_attribute("nickname", from_="Person")
        described = client.describe()
        assert described["version"] == 3
        assert "nickname" not in described["classes"]["Person"]["properties"]

    def test_add_class_and_edge(self, client):
        client.attach("VS1")
        client.add_class("Visitor")
        assert "Visitor" in client.classes()

    def test_delete_class(self, client):
        client.attach("VS1")
        client.delete_class("TA")
        assert "TA" not in client.classes()

    def test_missing_argument_is_bad_request(self, client):
        client.attach("VS1")
        with pytest.raises(ServerError) as err:
            client.request(type="add_attribute", name="x")  # no "to"
        assert err.value.code == "bad_request"

    def test_schema_change_before_attach_refused(self, client):
        with pytest.raises(ServerError) as err:
            client.add_attribute("x", to="Person")
        assert err.value.code == "not_attached"


# ---------------------------------------------------------------------------
# the race: schema change on one connection, reader on another
# ---------------------------------------------------------------------------

class TestConcurrentEvolution:
    def test_schema_change_racing_reader_twin_equivalence(self):
        """While one tenant evolves VS1, a second tenant hammers reads on
        its own connection; no read ever errors or tears, and the served
        database ends byte-equivalent to a twin that applied the same
        operations directly (no server involved)."""
        db = build_db()
        twin = build_db()
        failures = []
        stop = threading.Event()

        def reading_tenant(host, port):
            try:
                with Client(host, port, tenant="reader") as c:
                    c.attach("VS1")
                    while not stop.is_set():
                        n = c.count("Person")
                        oids = c.extent("Person")["oids"]
                        # epoch-consistent: the count and the extent of one
                        # request pair may straddle epochs, but each reply
                        # is internally whole
                        if n < 0 or len(set(oids)) != len(oids):
                            failures.append((n, oids))
            except Exception as exc:  # pragma: no cover - the assertion
                failures.append(exc)

        ops = [
            ("add_attribute", {"name": "nick", "to": "Person", "domain": "str"}),
            ("add_class", {"name": "Visitor"}),
            ("delete_attribute", {"name": "advisor", "from": "Student"}),
            ("add_method", {"name": "greet", "to": "Person"}),
            ("delete_class", {"name": "Visitor"}),
            ("delete_method", {"name": "greet", "from": "Person"}),
        ]
        creates = [
            {"op": "create", "class": "Student",
             "values": {"name": f"r{i}", "major": "cs"}}
            for i in range(4)
        ]
        with BackgroundServer(db) as (host, port):
            reader = threading.Thread(target=reading_tenant, args=(host, port))
            reader.start()
            try:
                with Client(host, port, tenant="writer") as w:
                    w.attach("VS1")
                    for op, args in ops:
                        w.schema_change(op, **args)
                        time.sleep(0.01)  # let reads interleave
                    w.apply_many(creates)
            finally:
                stop.set()
                reader.join(timeout=10)
        assert not failures, failures

        # the twin applies the identical operations directly
        for op, args in ops:
            twin.schema_change("VS1", op, args)
        twin.apply_view_updates("VS1", creates)
        assert state_difference(db, twin) is None


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------

class TestObservability:
    def test_per_tenant_request_counters_sum_to_total(self, served):
        db, host, port = served
        with Client(host, port, tenant="alpha") as a:
            a.attach("VS1")
            a.count("Person")
        with Client(host, port, tenant="beta") as b:
            b.ping()
            b.ping()
        stats = db.stats()
        families = stats["server_requests"]
        assert isinstance(families, dict)
        assert sum(families.values()) == stats["server"]["requests_served"]
        assert any("tenant=alpha" in key for key in families)
        assert any("tenant=beta" in key for key in families)

    def test_connected_gauge_returns_to_zero(self, served):
        db, host, port = served
        with Client(host, port, tenant="gaugey") as c:
            c.ping()
            assert db.stats()["server_connected"]["{tenant=gaugey}"] == 1
        deadline = time.time() + 5
        while time.time() < deadline:
            if db.stats()["server_connected"]["{tenant=gaugey}"] == 0:
                break
            time.sleep(0.01)
        assert db.stats()["server_connected"]["{tenant=gaugey}"] == 0

    def test_slow_request_lands_in_flight_recorder(self):
        db = build_db()
        with BackgroundServer(db, slow_request_seconds=0.0) as (host, port):
            with Client(host, port) as c:
                c.ping()
        kinds = {entry["kind"] for entry in db.obs.flight.tail()}
        assert "server_slow_request" in kinds
        assert "server_connected" in kinds  # lifecycle events mirrored

    def test_error_counter_by_code(self, served):
        db, host, port = served
        with Client(host, port) as c:
            with pytest.raises(ServerError):
                c.attach("nope")
        assert db.stats()["server_errors"]["{code=unknown_view}"] >= 1

    def test_request_latency_histogram_present(self, served):
        db, host, port = served
        with Client(host, port) as c:
            c.ping()
        latencies = db.stats()["server_request_seconds"]
        assert any("op=ping" in key for key in latencies)


# ---------------------------------------------------------------------------
# the protocol inventory is total
# ---------------------------------------------------------------------------

class TestInventory:
    def test_every_request_type_has_a_handler(self):
        assert set(TseServer.HANDLERS) == set(REQUEST_TYPES)
        for method in TseServer.HANDLERS.values():
            assert callable(getattr(TseServer, method))

    def test_fatal_codes_are_documented_error_codes(self):
        from repro.server.protocol import FATAL_CODES

        assert FATAL_CODES <= set(ERROR_CODES)

    def test_inventories_are_disjoint_namespaces(self):
        assert not set(REQUEST_TYPES) & set(RESPONSE_TYPES) - {""}


# ---------------------------------------------------------------------------
# the CLI's .serve
# ---------------------------------------------------------------------------

class TestCliServe:
    def test_usage_errors(self):
        db, _view = build_figure3_database()
        output = []
        run_shell(db, "VS1", [".serve"], emit=output.append)
        assert any("usage: .serve" in line for line in output)
        run_shell(db, "VS1", [".serve 127.0.0.1 notaport"], emit=output.append)
        assert any("usage: .serve" in line for line in output)
