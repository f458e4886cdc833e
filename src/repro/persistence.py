"""Whole-database persistence: one JSON body for every layer.

GemStone gave the paper's prototype durable storage for free; our stand-in
serialises each component of a :class:`TseDatabase`'s ``state_table`` —
store, global schema, instance pool, view schema history, index
definitions; the evolution log writes nothing — into one JSON document,
each component writing and loading its own section (DESIGN §10).  Method
bodies do not serialise; a :data:`~repro.schema.properties.MethodRegistry`
rebinds them at load time.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from repro.errors import StorageError
from repro.core.database import TseDatabase
from repro.schema.properties import MethodRegistry
from repro.storage.wal import atomic_write_json

#: bump when the on-disk layout changes incompatibly; a document of any
#: other version is refused (format 2: columnar store and pool rows)
FORMAT_VERSION = 2


def database_to_dict(db: TseDatabase) -> dict:
    """Serialise the full database state: every component's section."""
    data = {"format": FORMAT_VERSION}
    for component in db.state_table:
        data.update(component.dump_state())
    return data


def database_from_dict(
    data: dict, methods: Optional[MethodRegistry] = None
) -> TseDatabase:
    """Rebuild a database from :func:`database_to_dict` output: each
    component of a fresh database loads its section, in table order."""
    if data.get("format") != FORMAT_VERSION:
        raise StorageError(
            f"unsupported database format {data.get('format')!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
    db = TseDatabase()
    for component in db.state_table:
        component.load_state(data, methods)
    return db


def state_difference(first: TseDatabase, second: TseDatabase) -> Optional[str]:
    """Where two databases differ, or ``None`` when they are equivalent.

    Compares the components' body sections in table order and then the
    extent of every class (the evaluators' caches included); names the
    first difference found.  The evolution log is not compared."""
    for ours, theirs in zip(first.state_table, second.state_table):
        other = theirs.dump_state()
        for key, value in ours.dump_state().items():
            if value != other[key]:
                return f"section {key!r}: {value!r:.300} != {other[key]!r:.300}"
    for name in first.schema.class_names():
        if first.extent(name) != second.extent(name):
            return (
                f"extent of {name}: {sorted(first.extent(name))} != "
                f"{sorted(second.extent(name))}"
            )
    return None


# ---------------------------------------------------------------------------
# file front door
# ---------------------------------------------------------------------------

def save_database(db: TseDatabase, path: "Path | str") -> None:
    """Persist a database to one JSON file (atomically — see
    :func:`repro.storage.wal.atomic_write_json`)."""
    atomic_write_json(path, database_to_dict(db))


def load_database(
    path: "Path | str", methods: Optional[MethodRegistry] = None
) -> TseDatabase:
    """Load a database previously written by :func:`save_database`."""
    return database_from_dict(json.loads(Path(path).read_text()), methods=methods)
