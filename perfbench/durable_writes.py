"""``durable_writes``: acknowledged writes over a population 30x the cache.

The figure-3 university schema (``repro.workloads.university``) holds
~3000 objects (about 250 pages, 30x the store's 8-page simulated cache).
The WAL runs at the default ``flush`` policy — an ``fsync`` at every
commit barrier — on the checkout's own disk.  The script mixes single
``create``/``set`` updates through ``apply_view_updates`` in a
``WriterSession``, 16-update ``apply_many`` batches, pinned-reader
``refresh`` + ``count`` reads, and ``db.checkpoint()`` at fixed intervals.
At the end the database is abandoned without closing and recovered, and
every view-class extent and every written object's values must equal the
acknowledged pre-crash state.

Every write takes a savepoint snapshot that is O(population), so storage
snapshots and instance-pool mementos dominate; the classifier and the
server are idle.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import struct
from typing import Dict, List

from common import (
    WORK_DIR,
    Clock,
    Trial,
    balanced,
    layer_counts,
    own_peak_rss_mb,
    quiesce,
    recover,
)

VIEW = "VS1"
#: view classes of VS1 and the global classes whose members each holds
MEMBERS = {
    "Person": ("Person", "Student", "TA", "Grad"),
    "Student": ("Student", "TA", "Grad"),
    "TA": ("TA",),
}
POPULATION = 3000
SINGLE_WRITES = 96
BATCHES = 8
BATCH_SIZE = 16
READS_PER_WRITE = 10
#: the script's writes fall into this many equal segments, with a
#: checkpoint between every two
SEGMENTS = 4
#: the schema-change probe: ``PROBE_ROUNDS`` rounds, each on its own
#: fresh recovery of the crashed database, of one untimed warm-up and
#: ``PROBE_CHANGES`` timed ``add_attribute`` changes (each undone by an
#: untimed ``delete_attribute``).  Every change pair leaves new classes in
#: the schema, so short rounds on fresh copies keep the probed schema near
#: the size the script left, and the probe's work nearly flat
PROBE_ROUNDS = 4
PROBE_CHANGES = 10


def university_values(rng: random.Random, cls: str, serial: int) -> dict:
    """Attribute values for a new object of a figure-3 class."""
    values = {"name": f"{cls.lower()}{serial}", "age": 18 + rng.randrange(50)}
    if cls != "Person":
        values["major"] = rng.choice(("cs", "ee", "math", "bio"))
    if cls == "TA":
        values["salary"] = 1000 + rng.randrange(5000)
    return values


def build_script(seed: int, population: int = POPULATION, single_writes: int = SINGLE_WRITES,
                 batches: int = BATCHES) -> dict:
    """The whole trial script, generated before anything is timed.

    Writes name their targets by *slot*: slots ``0..population-1`` are the
    initial objects, later slots the objects the script creates, so the
    script is fixed before any OID exists."""
    rng = random.Random(seed)
    objects = [
        (cls, university_values(rng, cls, i))
        for i, cls in enumerate(balanced(rng, ("Person", "Student", "TA", "Grad"), population))
    ]
    slots = [cls for cls, _ in objects]
    # the same number of batches between every two checkpoints, so the log
    # a recovery replays holds the same work whatever the seed
    sizes: List[int] = []
    for _ in range(SEGMENTS):
        part = [1] * (single_writes // SEGMENTS) + [BATCH_SIZE] * (batches // SEGMENTS)
        rng.shuffle(part)
        sizes.extend(part)
    total = sum(sizes)
    is_create = iter(balanced(rng, (True, False), total))
    create_classes = iter(balanced(rng, ("Person", "Student", "TA"), total))

    def update(committed: int):
        if next(is_create):
            cls = next(create_classes)
            slots.append(cls)
            return ("create", cls, university_values(rng, cls, len(slots)))
        # only objects acknowledged by an earlier write can be targeted
        return ("set", rng.randrange(committed), {"age": 18 + rng.randrange(50)})

    writes = []
    for size in sizes:
        committed = len(slots)
        writes.append([update(committed) for _ in range(size)])
    reads = iter(balanced(rng, ("Person", "Student", "TA"), len(writes) * READS_PER_WRITE))
    ops: List[tuple] = []
    every = len(writes) // SEGMENTS
    for index, updates in enumerate(writes):
        if index and index % every == 0:
            ops.append(("checkpoint",))
        ops.append(("write", updates))
        for _ in range(READS_PER_WRITE):
            ops.append(("read", next(reads)))
    return {"objects": objects, "ops": ops}


class DurableWrites:
    name = "durable_writes"

    def __init__(self, seed: int, population: int = POPULATION,
                 single_writes: int = SINGLE_WRITES, batches: int = BATCHES,
                 fault: str = None) -> None:
        self.script = build_script(seed, population, single_writes, batches)
        self.population = population
        self.fault = fault
        self.db = None
        self.workdir = WORK_DIR / f"durable-{seed}"
        self.probe_dir = WORK_DIR / f"durable-{seed}-probe"

    def describe(self) -> dict:
        ops = self.script["ops"]
        return {
            "population": self.population,
            "writes": sum(1 for op in ops if op[0] == "write"),
            "updates": sum(len(op[1]) for op in ops if op[0] == "write"),
            "reads": sum(1 for op in ops if op[0] == "read"),
            "checkpoints": sum(1 for op in ops if op[0] == "checkpoint"),
        }

    # -- set-up -------------------------------------------------------------

    def setup(self) -> float:
        from repro.workloads.university import build_figure3_database

        self.discard()
        clock = Clock()
        start = clock.now()
        db, _view = build_figure3_database()
        self.oids = [db.engine.create(cls, values) for cls, values in self.script["objects"]]
        db.enable_wal(self.workdir)
        self.sessions = db.sessions()
        elapsed = clock.since(start)[1]
        self.db = db
        return elapsed

    def discard(self) -> None:
        self.db = None
        self.sessions = None
        shutil.rmtree(self.workdir, ignore_errors=True)
        shutil.rmtree(self.probe_dir, ignore_errors=True)

    def close(self) -> None:
        self.discard()

    # -- the trial ------------------------------------------------------------

    def run(self, trial: Trial, recorder) -> None:
        db, script = self.db, self.script
        classes = {oid.value: cls for oid, (cls, _) in zip(self.oids, script["objects"])}
        values = {oid.value: dict(v) for oid, (_, v) in zip(self.oids, script["objects"])}
        slots = [oid.value for oid in self.oids]
        written = set()
        counts = {
            view_cls: sum(1 for cls in classes.values() if cls in members)
            for view_cls, members in MEMBERS.items()
        }
        stats_before = db.stats()
        quiesce(db)
        clock = Clock(thread=True)  # each op: the calling thread's CPU
        phase = Clock()  # the timed phase: the whole process's CPU
        reader = self.sessions.reader().__enter__()
        recorder.install()
        recorder.phase = "timed"
        began = phase.now()
        for op_id, op in enumerate(script["ops"], 1):
            recorder.op = op_id
            if op[0] == "read":
                start = clock.now()
                try:
                    seen = reader.refresh().count(VIEW, op[1])
                except Exception as exc:  # noqa: BLE001 — counted, not fatal
                    seen = exc
                trial.op("read", clock.since(start))
                if seen != counts[op[1]]:
                    trial.fail(f"count {op[1]}: {seen!r} != {counts[op[1]]}")
            elif op[0] == "checkpoint":
                start = clock.now()
                try:
                    db.checkpoint()
                except Exception as exc:  # noqa: BLE001
                    trial.fail(f"checkpoint: {exc!r}")
                trial.op("checkpoint", clock.since(start))
            else:
                specs = []
                for kind, target, data in op[1]:
                    if kind == "create":
                        specs.append({"op": "create", "class": target, "values": data})
                    else:
                        specs.append({"op": "set", "class": "Person",
                                      "oids": [slots[target]], "values": data})
                start = clock.now()
                try:
                    with self.sessions.writer():
                        reports = db.apply_view_updates(VIEW, specs)
                except Exception as exc:  # noqa: BLE001
                    trial.fail(f"write {specs[:2]}: {exc!r}")
                    reports = None
                trial.op("write", clock.since(start))
                if reports is not None:
                    self._acknowledge(op[1], reports, slots, classes, values, counts, written)
        trial.cpu_s = phase.since(began)[1]
        reader.close()
        recorder.phase = "after"
        stats_after = db.stats()
        trial.layer.update(layer_counts(stats_before, stats_after))
        trial.layer["classes_total"] = stats_after["classes_total"]

        quiesce(db)
        trial.peak_rss_mb = own_peak_rss_mb()
        # abandon the database without closing it, then recover from disk
        self.db = self.sessions = None
        if self.fault == "missing_write":
            drop_last_transaction(self.workdir / "wal.log")
        recorder.phase = "recovery"
        recovered, trial.recoveries = recover(self.workdir)
        recorder.phase = "after"
        recorder.uninstall()
        trial.layer["records_replayed"] = recovered.stats()["wal"]["records_replayed"]
        self._check_recovered(trial, recovered, classes, values, written)
        recovered.wal.close()
        for _ in range(PROBE_ROUNDS):
            self._probe(trial, clock)
        self.discard()

    def _probe(self, trial: Trial, clock: Clock) -> None:
        """One probe round on a fresh recovery of a copy of the crashed
        database's directory, so that neither the timed script nor the
        recoveries above replay the probe's changes."""
        from repro.core.database import TseDatabase

        shutil.rmtree(self.probe_dir, ignore_errors=True)
        shutil.copytree(self.workdir, self.probe_dir)
        db = TseDatabase.recover(self.probe_dir)
        db.sessions()
        quiesce(db)
        # the recovered database moves out of the collector's reach, so
        # the full collection before each change below costs little
        gc.freeze()
        try:
            for index in range(1 + PROBE_CHANGES):
                name = f"probe{index}"
                # each change starts from a drained backlog and a collected
                # heap, so the backfill worker and the collector do the same
                # work in every run
                quiesce(db)
                start = clock.now()
                try:
                    db.schema_change(
                        VIEW, "add_attribute", {"name": name, "to": "Person", "domain": "int"}
                    )
                except Exception as exc:  # noqa: BLE001
                    trial.fail(f"probe add_attribute {name}: {exc!r}")
                elapsed = clock.since(start)
                if index:  # the first change of a round warms it up
                    trial.op("schema_change", elapsed, timed=False)
                db.schema_change(VIEW, "delete_attribute", {"name": name, "from": "Person"})
            quiesce(db)
        finally:
            gc.unfreeze()
        db.wal.close()
        shutil.rmtree(self.probe_dir, ignore_errors=True)

    @staticmethod
    def _acknowledge(updates, reports, slots, classes, values, counts, written) -> None:
        """Fold an acknowledged write into the model of the database."""
        for (kind, target, data), report in zip(updates, reports):
            if kind == "create":
                oid = report["oid"]
                slots.append(oid)
                classes[oid] = target
                values[oid] = dict(data)
                for view_cls, members in MEMBERS.items():
                    if target in members:
                        counts[view_cls] += 1
            else:
                oid = slots[target]
                values[oid].update(data)
            written.add(oid)

    @staticmethod
    def _check_recovered(trial, db, classes, values, written) -> None:
        for view_cls, members in MEMBERS.items():
            expected = sorted(oid for oid, cls in classes.items() if cls in members)
            seen = db.read_extent(VIEW, view_cls)["oids"]
            trial.check(seen == expected,
                        f"recovered {view_cls} extent: {len(seen)} oids, "
                        f"expected {len(expected)}")
        recovered: Dict[str, dict] = {}
        for view_cls in MEMBERS:  # most specific last, so its values win
            for oid, row in db.read_extent(VIEW, view_cls, with_values=True)["objects"].items():
                recovered.setdefault(oid, {}).update(row)
        for oid in sorted(written):
            seen = recovered.get(str(oid), {})
            trial.check(
                all(seen.get(key) == value for key, value in values[oid].items()),
                f"recovered object {oid} holds {seen}, expected {values[oid]}",
            )


def drop_last_transaction(log_path) -> None:
    """Planted fault: remove the last committed write transaction from the
    log, as if an acknowledged write never reached the disk."""
    header = struct.Struct("<II")
    data = log_path.read_bytes()
    frames, offset = [], 0
    while offset + header.size <= len(data):
        length, _crc = header.unpack_from(data, offset)
        end = offset + header.size + length
        frames.append((offset, end, json.loads(data[offset + header.size:end])["kind"]))
        offset = end
    last = max(i for i, (_s, _e, kind) in enumerate(frames) if kind == "txn")
    start, end, _kind = frames[last]
    log_path.write_bytes(data[:start] + data[end:])
