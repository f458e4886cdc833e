"""The server process of the ``wire_serving`` workload.

Started by ``wire_serving.py`` as ``python3 perfbench/wire_server.py``;
it hosts the database and its ``TseServer`` and takes JSON-line commands
on standard input, answering each with one JSON line on standard output:

``setup``    build the figure-3 database with the given population, attach
             the WAL and sessions, start the server; reply with the port,
             the OIDs and the set-up time
``trace``    install (``on``) or remove the span wrappers in this process
``settle``   wait for the migration backlog to drain, collect garbage
``phase``    stamp later spans with a phase name
``finish``   stop the server, abandon the database without closing it,
             recover it from disk; reply with recovery time, peak RSS, the
             recovered extents and values, and the recorded spans
``discard``  stop the server and drop the database (extra set-ups and
             the schema-change probe's fresh databases)
``exit``     end the process

Engine-side wrappers are installed here, in the process hosting the
database; ``decode_body`` stamps each request's id on the spans that
follow, so the client joins them to its own request timings.
"""

from __future__ import annotations

import gc
import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import import_program, proc_peak_rss_mb, quiesce, recover  # noqa: E402
from spans import PROBES, SERVER_PROBES, SpanRecorder  # noqa: E402

VIEW = "VS1"
VIEW_CLASSES = ("Person", "Student", "TA")
#: recoveries per trial: this database recovers in about 10 ms, so the
#: median takes more of them than the default
RECOVERIES = 27


class Host:
    def __init__(self) -> None:
        self.db = None
        self.server = None
        self.workdir = None
        self.recorder = None
        self._decode = None

    def setup(self, objects, workdir) -> dict:
        from repro.server.server import BackgroundServer
        from repro.workloads.university import build_figure3_database

        self.workdir = Path(workdir)
        shutil.rmtree(self.workdir, ignore_errors=True)
        start = time.process_time()
        db, _view = build_figure3_database()
        oids = [db.engine.create(cls, values).value for cls, values in objects]
        db.enable_wal(self.workdir)
        self.server = BackgroundServer(db)
        host, port = self.server.start()
        elapsed = time.process_time() - start
        self.db = db
        quiesce(db)
        return {"host": host, "port": port, "oids": oids, "setup_s": elapsed}

    def trace(self, on: bool) -> dict:
        from repro.server import protocol

        if on:
            recorder = self.recorder = SpanRecorder()
            recorder.install(PROBES + SERVER_PROBES)
            original = self._decode = protocol.decode_body
            clock = time.perf_counter

            def decode_body(body):
                start = clock()
                message = original(body)
                rid = message.get("id")
                recorder.op = rid
                recorder.record("server.codec", start, clock(), op=rid)
                return message

            protocol.decode_body = decode_body
        elif self.recorder is not None:
            self.recorder.uninstall()
            protocol.decode_body = self._decode
        return {}

    def settle(self) -> dict:
        """Wait for the migration backlog to drain and collect garbage."""
        quiesce(self.db)
        return {}

    def phase(self, name: str) -> dict:
        if self.recorder is not None:
            self.recorder.phase = name
        return {}

    def _stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def finish(self) -> dict:
        self._stop()
        quiesce(self.db)
        peak = proc_peak_rss_mb("self")
        self.db = None  # abandoned without closing
        gc.collect()
        self.phase("recovery")
        recovered, recoveries = recover(self.workdir, RECOVERIES)
        self.phase("after")
        extents, values = {}, {}
        for view_cls in VIEW_CLASSES:
            extents[view_cls] = recovered.read_extent(VIEW, view_cls)["oids"]
            rows = recovered.read_extent(VIEW, view_cls, with_values=True)["objects"]
            for oid, row in rows.items():
                values.setdefault(oid, {}).update(row)
        reply = {
            "recoveries": recoveries,
            "peak_rss_mb": peak,
            "records_replayed": recovered.stats()["wal"]["records_replayed"],
            "extents": extents,
            "values": values,
            "spans": self.recorder.spans if self.recorder is not None else [],
        }
        recovered.wal.close()
        shutil.rmtree(self.workdir, ignore_errors=True)
        if self.recorder is not None:
            self.trace(False)
            self.recorder = None
        return reply

    def discard(self) -> dict:
        self._stop()
        self.db = None
        shutil.rmtree(self.workdir, ignore_errors=True)
        return {}


def main() -> int:
    channel = sys.stdout
    sys.stdout = sys.stderr  # stray prints must not corrupt the channel
    import_program()
    host = Host()
    for line in sys.stdin:
        command = json.loads(line)
        name = command.pop("cmd")
        if name == "exit":
            if host.workdir is not None:
                host.discard()
            break
        try:
            reply = getattr(host, name)(**command)
        except Exception as exc:  # noqa: BLE001 — reported to the client process
            reply = {"error": f"{name}: {exc!r}"}
        channel.write(json.dumps(reply, separators=(",", ":")) + "\n")
        channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
