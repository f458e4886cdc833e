"""Concurrent multi-session access to one :class:`~repro.core.database.TseDatabase`.

TSE's premise (sections 1 and 5 of the paper) is many users sharing one
database while each evolves a private view; GemStone supplied the actual
concurrency control.  This package is our stand-in for that platform
service: a thread-safe *session layer* where N reader sessions query pinned
view schemas while one writer session runs the full schema-change pipeline
— the shape modern snapshot databases give online schema evolution
("Online Schema Evolution is (Almost) Free for Snapshot Databases",
VLDB 2023).

Four cooperating pieces:

* :mod:`repro.concurrency.latch` — a readers-writer **schema latch** with a
  FIFO single-writer admission queue.  Live (non-snapshot) reads hold the
  read side; the schema-change pipeline holds the write side, so a reader
  can never observe a half-applied change through a live handle.
* :mod:`repro.concurrency.epoch` — copy-on-write **epoch snapshots** of the
  global schema and extent pools.  The writer publishes a new epoch at
  commit (inside the write latch); readers pin the current epoch *without
  touching the latch* and therefore never block on an in-flight writer.
  Epochs retire when their last reader unpins.
* :mod:`repro.concurrency.migration` — the **lazy migration engine**.
  Publish defers extent capture entirely: classes start *pending*
  and are captured on first touch, sealed just before a conflicting pool
  mutation, or drained by a background backfill worker in bounded batches
  — the writer-visible pause of a schema change stays sub-millisecond no
  matter how large the extents are.  It is the only publish path.
* :mod:`repro.concurrency.sessions` — the user-facing
  :class:`~repro.concurrency.sessions.SessionManager` /
  :class:`~repro.concurrency.sessions.ReaderSession` /
  :class:`~repro.concurrency.sessions.WriterSession` objects, obtained via
  ``db.sessions()``.

The package composes with the thread-safety work in ``storage`` and
``obs``: WAL appends serialise behind a dedicated lock with group-commit
fsync batching, OID allocation and the transaction lock table are atomic,
and metrics/tracing instruments are individually locked.
"""

from repro.concurrency.epoch import EpochManager, SchemaEpoch
from repro.concurrency.latch import SchemaLatch
from repro.concurrency.migration import MigrationEngine
from repro.concurrency.sessions import ReaderSession, SessionManager, WriterSession

__all__ = [
    "EpochManager",
    "MigrationEngine",
    "ReaderSession",
    "SchemaEpoch",
    "SchemaLatch",
    "SessionManager",
    "WriterSession",
]
