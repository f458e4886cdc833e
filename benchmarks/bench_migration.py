"""Writer-visible schema-change pause under lazy migration.

Capturing every class extent while the writer still holds the schema
latch would make the pause a schema change imposes grow linearly with
the population.  Lazy migration (DESIGN.md section 16) publishes the
epoch with *pending* extents and lets the
:class:`~repro.concurrency.migration.MigrationEngine` capture them off
the critical path — the pause must be flat in the object count.

For each scale factor (1x/10x/100x of a ~120-object base population) the
bench measures the best-of-N wall-clock time of one ``add_attribute``
schema change committed through a writer session, then asserts:

* the pause is sub-millisecond-class at every scale (<2 ms with CI
  slack; locally ~0.5 ms);
* the pause is *flat*: 100x pays less than ``FLATNESS_BOUND``x the 1x
  pause;
* the deferred work is real: the run leaves a backlog that the drain
  afterwards captures.

The backfill worker is disabled during measurement (each run drains
explicitly afterwards) so the numbers are pause, not pause-plus-drain.
Writes ``BENCH_migration.json`` at the repo root and
``benchmarks/results/migration.md``.
"""

import time
from pathlib import Path

import pytest

from conftest import format_table, write_bench_json, write_report

from repro.core.database import TseDatabase
from repro.schema.properties import Attribute

BENCH_MIGRATION_JSON = Path(__file__).parent.parent / "BENCH_migration.json"

#: base population (objects) at scale factor 1
BASE_OBJECTS = 120
SCALES = (1, 10, 100)
#: schema changes timed per scale; the best is the pause
REPEATS = 7

#: CI-slack bound on the pause at *every* scale, milliseconds
LAZY_PAUSE_MS = 2.0
#: the pause at 100x may be at most this multiple of the 1x pause
FLATNESS_BOUND = 4.0


def build_db(n_objects: int) -> TseDatabase:
    db = TseDatabase()
    db.migration_backfill = False  # measure the pause, not the drain
    db.define_class(
        "Person",
        [Attribute("name", domain="str"), Attribute("age", domain="int", default=0)],
    )
    db.define_class(
        "Student", [Attribute("major", domain="str")], inherits_from=("Person",)
    )
    db.create_view("campus", ["Person", "Student"])
    view = db.view("campus")
    for index in range(n_objects):
        if index % 3:
            view["Person"].create(name=f"p{index}", age=index % 80)
        else:
            view["Student"].create(name=f"s{index}", age=20, major="cs")
    return db


def measure_pause(scale: int) -> dict:
    """Best-of-``REPEATS`` writer-visible milliseconds for one schema
    change, plus the post-run drain cost."""
    db = build_db(BASE_OBJECTS * scale)
    sessions = db.sessions()
    pauses = []
    for k in range(REPEATS):
        start = time.perf_counter()
        with sessions.writer() as writer:
            writer.view("campus").add_attribute(f"tmp{k}", to="Person")
        pauses.append((time.perf_counter() - start) * 1000)
    backlog = sessions.migration.backlog()
    start = time.perf_counter()
    sessions.migration.drain()
    drain_ms = (time.perf_counter() - start) * 1000
    return {
        "pause_per_schema_change_ms": round(min(pauses), 3),
        "pause_worst_ms": round(max(pauses), 3),
        "backlog_after_run": backlog,
        "drain_ms": round(drain_ms, 3),
        "objects": BASE_OBJECTS * scale,
    }


def test_schema_change_pause_is_flat_under_lazy_migration():
    lazy = {scale: measure_pause(scale) for scale in SCALES}

    # sub-millisecond-class pause at every scale (CI slack: <2 ms)
    for scale in SCALES:
        assert lazy[scale]["pause_per_schema_change_ms"] < LAZY_PAUSE_MS, lazy
    # flat in the object count: 100x costs < FLATNESS_BOUND x the 1x pause
    assert (
        lazy[100]["pause_per_schema_change_ms"]
        < FLATNESS_BOUND * max(lazy[1]["pause_per_schema_change_ms"], 0.05)
    ), lazy
    # lazy deferred real work: the drain afterwards captured the backlog
    assert lazy[100]["backlog_after_run"] > 0, lazy

    payload = {
        "base_objects": BASE_OBJECTS,
        "repeats": REPEATS,
        "lazy": {f"scale_{s}x": lazy[s] for s in SCALES},
        "bounds": {
            "lazy_pause_ms": LAZY_PAUSE_MS,
            "flatness": FLATNESS_BOUND,
        },
    }
    write_bench_json(
        "migration_pause", payload, target=BENCH_MIGRATION_JSON
    )

    rows = [
        (
            f"{scale}x ({BASE_OBJECTS * scale})",
            lazy[scale]["pause_per_schema_change_ms"],
            lazy[scale]["pause_worst_ms"],
            lazy[scale]["backlog_after_run"],
            lazy[scale]["drain_ms"],
        )
        for scale in SCALES
    ]
    body = (
        f"Best-of-{REPEATS} writer-visible wall-clock per `add_attribute` "
        "schema change, committed through a writer session.  The epoch "
        "publishes with pending extents, captured off the critical path; "
        "the drain afterwards captures the backlog:\n\n"
        + format_table(
            [
                "scale (objects)",
                "pause ms",
                "worst pause ms",
                "backlog",
                "drain ms",
            ],
            rows,
        )
        + "\n\nBounds asserted: pause < "
        f"{LAZY_PAUSE_MS} ms at every scale; 100x < {FLATNESS_BOUND}x 1x."
    )
    write_report("migration", "Schema-change pause under lazy migration", body)


@pytest.mark.bench_smoke
def test_migration_pause_smoke():
    """Tier-1 smoke: at the base scale, a lazy schema change completes in
    single-digit milliseconds and leaves a drainable backlog (lenient
    bound — the full run asserts the real flatness across 100x)."""
    cell = measure_pause(1)
    assert cell["pause_per_schema_change_ms"] < 10.0, cell
    assert cell["backlog_after_run"] > 0, cell
