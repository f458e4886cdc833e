"""Recovery time vs log length vs checkpoint interval (DESIGN.md section 10).

Crash recovery replays the write-ahead log through the ordinary update
engine, so its cost is linear in the records that survived the last
checkpoint.  This bench measures both axes:

* **log length** — recover a database whose whole history sits in the log
  (only the initial empty checkpoint), at growing operation counts; and
* **checkpoint interval** — the same total history, checkpointed every k
  operations, so replay only covers the tail; and
* **checkpoint size** — the figure-3 schema at 1k/3k/10k objects: the
  checkpoint's bytes on disk, the process CPU one ``db.checkpoint()`` takes
  and the process CPU recovering from that checkpoint alone.

Every cost is the best of ``REPEATS`` runs in process CPU (a single
wall-clock sample of a 1600-record replay moved by a third between two
runs of the same tree).

Writes ``BENCH_recovery.json`` at the repo root and
``benchmarks/results/recovery.md`` (the table EXPERIMENTS.md quotes).
"""

import random
import time
from pathlib import Path

from conftest import format_table, write_bench_json, write_report

from repro.core.database import TseDatabase
from repro.schema.properties import Attribute
from repro.storage.wal import CHECKPOINT_NAME
from repro.workloads.university import build_figure3_database

BENCH_RECOVERY_JSON = Path(__file__).parent.parent / "BENCH_recovery.json"

#: sync="off" removes fsync noise — the bench measures replay work, not
#: the disk; durability tests live in tests/test_wal.py
SYNC = "off"


def build_schema() -> TseDatabase:
    db = TseDatabase()
    db.define_class(
        "Person",
        [Attribute("name", domain="str"), Attribute("age", domain="int", default=0)],
    )
    db.define_class(
        "Student", [Attribute("major", domain="str")], inherits_from=("Person",)
    )
    db.create_view("campus", ["Person", "Student"])
    return db


#: figure-3 populations of the checkpoint-size axis
CHECKPOINT_POPULATIONS = (1000, 3000, 10000)
#: the runs every cost is the best of
REPEATS = 5


def build_population(population: int) -> TseDatabase:
    """The figure-3 schema holding ``population`` objects, spread evenly
    over its four base classes (the shape of perfbench's durable_writes)."""
    db, _view = build_figure3_database()
    rng = random.Random(population)
    classes = ("Person", "Student", "TA", "Grad")
    for index in range(population):
        cls = classes[index % len(classes)]
        values = {"name": f"{cls.lower()}{index}", "age": 18 + rng.randrange(50)}
        if cls != "Person":
            values["major"] = rng.choice(("cs", "ee", "math", "bio"))
        if cls == "TA":
            values["salary"] = 1000 + rng.randrange(5000)
        db.engine.create(cls, values)
    return db


def best_cpu_ms(fn) -> float:
    """Best-of-``REPEATS`` process CPU milliseconds of ``fn()``."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.process_time()
        fn()
        best = min(best, time.process_time() - start)
    return round(best * 1000, 2)


def run_workload(db: TseDatabase, ops: int, checkpoint_every: int = 0) -> None:
    """``ops`` journaled operations: 2/3 creates, 1/3 sets."""
    view = db.view("campus")
    handles = []
    for index in range(ops):
        if index % 3 == 2 and handles:
            handles[index % len(handles)].set("age", index)
        else:
            cls = "Student" if index % 2 else "Person"
            values = {"name": f"p{index}", "age": index % 80}
            if cls == "Student":
                values["major"] = "cs"
            handles.append(view[cls].create(**values))
        if checkpoint_every and (index + 1) % checkpoint_every == 0:
            db.checkpoint()


def measured_recovery(directory) -> tuple:
    """(best recovery CPU ms, records replayed, log bytes) of ``directory``."""
    log = directory / "wal.log"
    log_bytes = log.stat().st_size if log.exists() else 0
    replayed = []

    def recover():
        recovered = TseDatabase.recover(directory, sync=SYNC)
        replayed.append(recovered.wal.records_replayed)
        recovered.wal.close()

    return best_cpu_ms(recover), replayed[-1], log_bytes


def test_recovery_scaling(tmp_path):
    # -- axis 1: log length (no checkpoints after the initial one) ---------
    length_rows = []
    for ops in (100, 400, 1600):
        directory = tmp_path / f"log-{ops}"
        db = build_schema()
        db.enable_wal(directory, sync=SYNC)
        run_workload(db, ops)
        cpu_ms, replayed, log_bytes = measured_recovery(directory)
        assert replayed == ops
        length_rows.append((ops, replayed, log_bytes, cpu_ms))

    # replay work grows with the log: 16x the records cost more than 1x
    assert length_rows[-1][3] > length_rows[0][3], length_rows

    # -- axis 2: checkpoint interval at fixed history length ---------------
    # intervals that do NOT divide the total, so each leaves a real tail:
    # replay covers exactly the operations since the last checkpoint
    TOTAL = 1600
    interval_rows = []
    for every in (0, 700, 300, 90):
        directory = tmp_path / f"ckpt-{every or 'never'}"
        db = build_schema()
        db.enable_wal(directory, sync=SYNC)
        run_workload(db, TOTAL, checkpoint_every=every)
        cpu_ms, replayed, log_bytes = measured_recovery(directory)
        expected_tail = TOTAL % every if every else TOTAL
        assert replayed == expected_tail, (every, replayed)
        interval_rows.append((every or "never", replayed, log_bytes, cpu_ms))

    # checkpoints bound replay to the tail since the last one
    full_replay_ms = interval_rows[0][3]
    for every, replayed, _bytes, _ms in interval_rows[1:]:
        assert replayed < TOTAL and replayed == TOTAL % int(every)

    # -- axis 3: checkpoint size and cost vs population --------------------
    checkpoint_rows = []
    for population in CHECKPOINT_POPULATIONS:
        directory = tmp_path / f"population-{population}"
        populated = build_population(population)
        populated.enable_wal(directory, sync=SYNC)
        checkpoint_ms = best_cpu_ms(populated.checkpoint)
        checkpoint_bytes = (directory / CHECKPOINT_NAME).stat().st_size

        def recover():
            recovered = TseDatabase.recover(directory, sync=SYNC)
            assert recovered.pool.object_count == population
            assert recovered.wal.records_replayed == 0
            recovered.wal.close()

        checkpoint_rows.append(
            (population, checkpoint_bytes, checkpoint_ms, best_cpu_ms(recover))
        )
    # a checkpoint holds the data, so it grows with the population
    assert checkpoint_rows[-1][1] > checkpoint_rows[0][1], checkpoint_rows

    body = (
        f"Process CPU, best of {REPEATS} runs, sync=off.\n\n"
        "Replay cost vs surviving log length (initial checkpoint only):\n\n"
        + format_table(
            ["ops in log", "records replayed", "log bytes", "recovery CPU ms"],
            length_rows,
        )
        + "\n\nSame 1600-op history, checkpointed every k ops:\n\n"
        + format_table(
            ["checkpoint every", "records replayed", "log bytes", "recovery CPU ms"],
            interval_rows,
        )
        + "\n\nCheckpoint size and cost vs population (figure-3 schema; "
        "recovery replays no log):\n\n"
        + format_table(
            ["objects", "checkpoint bytes", "checkpoint CPU ms", "recovery CPU ms"],
            checkpoint_rows,
        )
    )
    write_report("recovery", "Recovery time vs log length and checkpoint interval", body)
    write_bench_json(
        "recovery",
        {
            "sync": SYNC,
            "log_length_rows": [
                {
                    "ops": ops,
                    "records_replayed": replayed,
                    "log_bytes": log_bytes,
                    "recovery_cpu_ms": ms,
                }
                for ops, replayed, log_bytes, ms in length_rows
            ],
            "checkpoint_interval_rows": [
                {
                    "checkpoint_every": every,
                    "records_replayed": replayed,
                    "log_bytes": log_bytes,
                    "recovery_cpu_ms": ms,
                }
                for every, replayed, log_bytes, ms in interval_rows
            ],
            "full_replay_cpu_ms": full_replay_ms,
            "checkpoint_rows": [
                {
                    "objects": population,
                    "checkpoint_bytes": size,
                    "checkpoint_cpu_ms": checkpoint_ms,
                    "recovery_cpu_ms": recovery_ms,
                }
                for population, size, checkpoint_ms, recovery_ms in checkpoint_rows
            ],
        },
        db=db,
        target=BENCH_RECOVERY_JSON,
    )
