"""``wire_serving``: one closed-loop client against a ``TseServer`` process.

The server runs in its own process (``wire_server.py``) over the figure-3
university schema with ~64 objects, which fit the store's 8-page x 32-slot
simulated page cache; the WAL uses the default ``flush`` policy.  One
connection issues ~90% reads (``count``, ``extent``) and ~10% ``set``
writes on existing objects — no creates, so the population stays inside
the cache, and no schema changes.  Engine work per request is tens of
microseconds, so the server layer (frame codec, the event-loop → executor
hop, the writer gate) dominates; the TSE pipeline is idle.

Every ``count`` and ``extent`` reply is compared with a model of the
client's own writes, and any error frame is a failure.  After the timed
script the server is stopped, its database abandoned and recovered, and
the recovered extents and values are checked against the model.  Then
short rounds of schema changes, each on a fresh database in the server,
are timed over the wire.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from typing import Dict

from common import HERE, ROOT, WORK_DIR, Clock, Trial, balanced, layer_counts
from durable_writes import university_values
from spans import BACKFILL_THREAD

VIEW = "VS1"
MEMBERS = {
    "Person": ("Person", "Student", "TA", "Grad"),
    "Student": ("Student", "TA", "Grad"),
    "TA": ("TA",),
}
POPULATION = 64
OPS = 4000
#: the schema-change probe after the trial: ``PROBE_ROUNDS`` rounds, each
#: on a fresh database in the server process, of one untimed warm-up and
#: ``PROBE_CHANGES`` timed ``add_attribute`` requests (each undone by an
#: untimed ``delete_attribute``).  Every change pair leaves new classes in
#: the schema, so short rounds on fresh databases keep the probe's work
#: nearly flat
PROBE_ROUNDS = 4
PROBE_CHANGES = 12


def build_script(seed: int, population: int = POPULATION, ops: int = OPS,
                 fault: str = None) -> dict:
    """The whole trial script, generated before anything is timed."""
    rng = random.Random(seed)
    objects = [
        (cls, university_values(rng, cls, i))
        for i, cls in enumerate(balanced(rng, ("Person", "Student", "TA", "Grad"), population))
    ]
    counts = iter(balanced(rng, ("Person", "Student", "TA"), ops * 6 // 10))
    extents = iter(balanced(rng, ("Student", "TA"), ops * 3 // 10))
    kinds = ["count"] * (ops * 6 // 10) + ["extent"] * (ops * 3 // 10)
    kinds += ["set"] * (ops - len(kinds))
    rng.shuffle(kinds)
    script = []
    for kind in kinds:
        if kind == "count":
            script.append(("count", next(counts)))
        elif kind == "extent":
            script.append(("extent", next(extents)))
        else:
            script.append(("set", rng.randrange(population), {"age": 18 + rng.randrange(50)}))
    if fault == "error_frame":  # planted: a read the server must refuse
        script[len(script) // 2] = ("count", "NoSuchClass")
    return {"objects": objects, "ops": script}


class WireServing:
    name = "wire_serving"

    def __init__(self, seed: int, population: int = POPULATION, ops: int = OPS,
                 fault: str = None) -> None:
        self.script = build_script(seed, population, ops, fault)
        self.population = population
        self.workdir = WORK_DIR / f"wire-{seed}"
        self.proc = None
        self.client = None

    def describe(self) -> dict:
        return {"population": self.population, "ops": len(self.script["ops"]),
                "connections": 1}

    # -- the server process ---------------------------------------------------

    def _call(self, cmd: str, **args) -> dict:
        self.proc.stdin.write(json.dumps({"cmd": cmd, **args}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server process ended during {cmd!r}")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(reply["error"])
        return reply

    def _start_process(self) -> None:
        if self.proc is None:
            # client and server share one vCPU (the server inherits the
            # affinity): with one request in flight they never run at the
            # same time, and a wake-up on the same CPU needs no
            # cross-CPU interrupt, whose cost a virtual machine's CPU
            # clock counts and which varies with the host's load
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "wire_server.py")],
                cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> float:
        from repro.server.client import Client

        self._start_process()
        served = self._call("setup", objects=self.script["objects"],
                            workdir=str(self.workdir))
        self.oids = served["oids"]
        clock = Clock(pids=(self.proc.pid,))
        start = clock.now()
        self.client = Client(served["host"], served["port"], tenant="bench")
        self.client.attach(VIEW)
        return served["setup_s"] + clock.since(start)[1]

    def discard(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc is not None:
            self._call("discard")

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc is not None:
            try:
                self.proc.stdin.write(json.dumps({"cmd": "exit"}) + "\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.proc = None

    # -- the trial ------------------------------------------------------------

    def run(self, trial: Trial, recorder) -> None:
        from repro.server.client import ServerError

        # the span wrappers live in the server process: ``recorder`` is unused
        client, oids = self.client, self.oids
        classes = {oid: cls for oid, (cls, _) in zip(oids, self.script["objects"])}
        values = {oid: dict(v) for oid, (_, v) in zip(oids, self.script["objects"])}
        extents = {
            view_cls: sorted(oid for oid, cls in classes.items() if cls in members)
            for view_cls, members in MEMBERS.items()
        }
        written = set()
        traced = trial.traced
        if traced:
            self._call("trace", on=True)
        stats_before = client.request(type="stats", id="stats-before")["stats"]
        status = client.request(type="migration_status", id="status")["migration"]
        while status["backlog"]:
            time.sleep(0.001)
            status = client.request(type="migration_status", id="status")["migration"]
        if traced:
            self._call("phase", name="timed")
        # a request's CPU time is the client's plus the server process's
        clock = Clock(pids=(self.proc.pid,))
        began = clock.now()
        for rid, op in enumerate(self.script["ops"], 1):
            if op[0] == "set":
                message = {"type": "update", "op": "set", "class": "Person",
                           "oids": [oids[op[1]]], "values": op[2], "id": rid}
            else:
                message = {"type": op[0], "class": op[1], "id": rid}
            start = clock.now()
            try:
                reply = client.request(**message)
            except ServerError as exc:
                reply = exc
            elapsed = clock.since(start)
            if isinstance(reply, Exception):
                trial.op("write" if op[0] == "set" else "read", elapsed)
                trial.fail(f"{message}: error frame {reply}")
            elif op[0] == "set":
                trial.op("write", elapsed)
                values[oids[op[1]]].update(op[2])
                written.add(oids[op[1]])
            elif op[0] == "count":
                trial.op("read", elapsed)
                if reply.get("count") != len(extents[op[1]]):
                    trial.fail(f"count {op[1]}: {reply.get('count')} != {len(extents[op[1]])}")
            else:
                trial.op("read", elapsed)
                if reply.get("oids") != extents[op[1]]:
                    trial.fail(f"extent {op[1]}: reply differs from the model")
        trial.cpu_s = clock.since(began)[1]
        if traced:
            self._call("phase", name="after")
        stats_after = client.request(type="stats", id="stats-after")["stats"]
        trial.layer.update(layer_counts(stats_before, stats_after))
        trial.layer["classes_total"] = stats_after["classes_total"]

        live: Dict[str, dict] = {}
        for view_cls in MEMBERS:
            reply = client.request(type="extent", values=True, id=f"values-{view_cls}",
                                   **{"class": view_cls})
            for oid, row in reply["objects"].items():
                live.setdefault(oid, {}).update(row)
        self._check_values(trial, live, values, written, "live")
        client.close()
        self.client = None

        finished = self._call("finish")
        trial.recoveries = [tuple(timing) for timing in finished["recoveries"]]
        trial.peak_rss_mb = finished["peak_rss_mb"]
        trial.layer["records_replayed"] = finished["records_replayed"]
        for view_cls, expected in extents.items():
            seen = finished["extents"][view_cls]
            trial.check(seen == expected, f"recovered {view_cls} extent differs from the model")
        self._check_values(trial, finished["values"], values, written, "recovered")
        if traced:
            trial.spans = [tuple(span) for span in finished["spans"]]
            self._join(trial)
        for _ in range(PROBE_ROUNDS):
            self._probe(trial)

    def _probe(self, trial: Trial) -> None:
        """One probe round on a fresh database in the server process, so
        that neither the timed script nor the recovery above sees the
        probe's changes."""
        from repro.server.client import Client, ServerError

        served = self._call("setup", objects=self.script["objects"],
                            workdir=str(self.workdir))
        client = Client(served["host"], served["port"], tenant="bench")
        try:
            client.attach(VIEW)
            clock = Clock(pids=(self.proc.pid,))
            for index in range(1 + PROBE_CHANGES):
                name = f"probe{index}"
                # each change starts from a drained backlog and a collected
                # heap in the server, so its background work is the same in
                # every run
                self._call("settle")
                start = clock.now()
                try:
                    client.request(type="add_attribute", name=name, to="Person",
                                   domain="int", id=f"probe-{index}")
                except ServerError as exc:
                    trial.fail(f"probe add_attribute {name}: {exc}")
                elapsed = clock.since(start)
                if index:  # the first change of a round warms it up
                    trial.op("schema_change", elapsed, timed=False)
                client.request(type="delete_attribute", name=name, id=f"undo-{index}",
                               **{"from": "Person"})
        finally:
            client.close()
            self._call("discard")

    @staticmethod
    def _check_values(trial, seen_rows, values, written, label) -> None:
        for oid in sorted(written):
            seen = seen_rows.get(str(oid), {})
            trial.check(
                all(seen.get(key) == value for key, value in values[oid].items()),
                f"{label} object {oid} holds {seen}, expected {values[oid]}",
            )

    @staticmethod
    def _join(trial: Trial) -> None:
        """Join the server's spans to the client's requests by request id
        (timed requests are ids ``1..n``): the root spans a request caused
        are the part of its round trip the wrappers account for; the rest
        is server and transport overhead."""
        timed = range(1, trial.timed_ops + 1)
        covered = engine = codec = 0.0
        for _sid, parent, layer, start, end, op, thread, phase in trial.spans:
            if phase != "timed" or thread == BACKFILL_THREAD or op not in timed:
                continue
            if layer == "server.codec":
                codec += end - start
            if parent is None:
                covered += end - start
                if layer != "server.codec":
                    engine += end - start
        trial.layer.update(covered_s=covered, engine_covered_s=engine, codec_s=codec)
