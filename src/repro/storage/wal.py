"""Crash-consistent durability: write-ahead log, checkpoints, recovery.

The paper runs on GemStone, which gave TSE durable storage for free
(section 5); our previous stand-in was :func:`repro.persistence.save_database`
— a monolithic JSON dump that a crash mid-write destroys together with every
view schema derived from it.  This module completes the substitution with a
conventional logging/snapshot substrate, the same shape recent work puts
under online schema evolution ("Online Schema Evolution is (Almost) Free for
Snapshot Databases", VLDB 2023):

* :class:`WriteAheadLog` — an append-only file of CRC-framed entries.  Each
  entry is ``<length, crc32><json payload>``; a torn tail (short frame or
  CRC mismatch at the end of the file) is detected on replay and truncated,
  so a crash mid-append never poisons the log.

* :class:`WalManager` — the database-facing subsystem.  It journals
  **logical** records: the five generic update operators (``create`` /
  ``delete`` / ``set`` / ``add`` / ``remove``), the schema-change pipeline
  (``schema_begin`` / ``schema_commit`` / ``schema_abort``), ``definevc``,
  and the database-level authoring operations (``define_class``,
  ``create_view``, ``merge_views``, ``rename_class``, ``rename_property``,
  ``vacuum``, ``create_index``).  Records are appended *after* the operation
  succeeds in memory and *flushed before control returns to the caller* —
  the commit point.  Inside a ``db.transaction()`` savepoint, records buffer
  in memory and reach the disk only when the savepoint commits; an abort is
  a no-op on disk.

* **Checkpoints** — :meth:`WalManager.checkpoint` reuses
  :func:`repro.persistence.database_to_dict` for the snapshot body and makes
  it durable with the classic write-temp / ``fsync`` / ``rename`` dance
  (:func:`atomic_write_json`, which ``save_database`` shares), then prunes
  the log.  The checkpoint carries the log sequence number (LSN) it
  covers, so replay after a crash *between* the rename and the prune skips
  already-absorbed records instead of double-applying them.

* **Recovery** — :func:`recover_database` loads the newest checkpoint (if
  any), replays the surviving log suffix in order, and re-attaches a live
  :class:`WalManager` so the recovered database keeps journaling.  Replay
  drives the ordinary update engine and TSE manager, so derived extents are
  rebuilt through the existing ``IncrementalExtentEvaluator`` delta path and
  view histories through the ordinary pipeline — there is no second
  interpretation of the semantics to drift from.

* :class:`CrashInjector` — deterministic crash points (``wal:mid_append``,
  ``checkpoint:before_rename``, ``checkpoint:after_rename``) used by the
  randomized kill/recover equivalence tests in ``tests/test_wal.py``.

**Determinism.**  Replay re-executes logical operations, so everything they
allocate (conceptual OIDs, implementation OIDs, slice ids) must come out
identically.  Allocation is a monotone counter, and the only way the
original run can consume OIDs without logging anything is an operation that
failed and rolled back (e.g. a value-closure rejection).  Every allocating
record therefore carries the allocator watermark at the time it ran, and
replay fast-forwards the allocator before applying it.

**Coverage.**  Durability covers the public mutation surface —
``TseDatabase`` methods, view/class/object handles, and the command
language, all of which funnel into the journaled seams.  Mutating the
instance pool or the schema directly underneath the facade bypasses the
log, exactly as it bypasses savepoints today.  Method bodies are Python
callables and do not serialise; like :func:`repro.persistence.load_database`,
recovery accepts a *method registry* to rebind them.
"""

from __future__ import annotations

import gc
import json
import os
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import RecoveryError, StorageError
from repro.storage.oid import Oid

__all__ = [
    "CHECKPOINT_NAME",
    "CRASH_POINTS",
    "CrashInjector",
    "LOG_NAME",
    "SimulatedCrash",
    "WalManager",
    "WalRecord",
    "WriteAheadLog",
    "atomic_write_json",
    "recover_database",
]

#: file names inside a WAL directory
CHECKPOINT_NAME = "checkpoint.json"
LOG_NAME = "wal.log"

#: frame header: little-endian (payload length, crc32 of payload)
_HEADER = struct.Struct("<II")

#: record kinds replay applies (everything else — ``schema_begin`` /
#: ``schema_abort`` / ``migration_step`` — is an audit trail only).
#: ``txn`` is the composite record a committed savepoint writes: its inner
#: records share one CRC frame, so a torn tail drops the whole transaction
#: or none of it.
EFFECTFUL_KINDS = frozenset(
    {
        "create",
        "delete",
        "set",
        "add",
        "remove",
        "define_class",
        "definevc",
        "create_view",
        "merge_views",
        "retire_view",
        "schema_commit",
        "rename_class",
        "rename_property",
        "vacuum",
        "create_index",
        "txn",
    }
)

#: the deterministic crash points the injector understands
CRASH_POINTS = (
    "wal:mid_append",
    "checkpoint:before_rename",
    "checkpoint:after_rename",
)


class SimulatedCrash(RuntimeError):
    """Raised by :class:`CrashInjector` at an armed crash point.

    The in-memory database that was running is to be considered dead; tests
    discard it and call :func:`recover_database` on the WAL directory, which
    is exactly what a process restart would do.
    """


class CrashInjector:
    """Deterministically kills the process-under-test at a durability seam.

    ``CrashInjector("wal:mid_append", at=3)`` crashes the third time an
    append reaches its mid-write point: the frame header plus roughly half
    the payload are on disk (a torn record), then :class:`SimulatedCrash`
    is raised.  ``checkpoint:before_rename`` crashes with the temp snapshot
    written but not yet visible; ``checkpoint:after_rename`` crashes with
    the new checkpoint visible but the log not yet pruned.
    """

    def __init__(self, point: str, at: int = 1) -> None:
        if point not in CRASH_POINTS:
            raise ValueError(f"unknown crash point {point!r} (use one of {CRASH_POINTS})")
        if at < 1:
            raise ValueError("crash occurrence index is 1-based")
        self.point = point
        self.at = at
        self.hits = 0
        self.fired = False

    def fires(self, point: str) -> bool:
        """True exactly when this call is the armed occurrence of ``point``."""
        if self.fired or point != self.point:
            return False
        self.hits += 1
        if self.hits == self.at:
            self.fired = True
            return True
        return False

    def crash(self, point: str) -> None:
        raise SimulatedCrash(point)


class WalRecord:
    """One parsed log entry."""

    __slots__ = ("lsn", "kind", "payload")

    def __init__(self, lsn: int, kind: str, payload: dict) -> None:
        self.lsn = lsn
        self.kind = kind
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<wal {self.lsn} {self.kind}>"


class WriteAheadLog:
    """The append-only file: framing, flushing, torn-tail detection.

    Knows nothing about databases — it moves ``(lsn, kind, payload)``
    triples to and from disk.  ``sync`` policies:

    ``"always"``
        ``fsync`` after every append (a crash loses at most the entry being
        written, which the CRC frame detects);
    ``"flush"``
        flush Python/OS buffers per append, ``fsync`` only at explicit
        barriers (checkpoint, savepoint commit) — the default;
    ``"off"``
        flush per append, never ``fsync`` (benchmarks).

    Appends from different threads serialise behind a dedicated I/O lock so
    frames never interleave on disk.  Durability barriers *group-commit*:
    each append bumps a sequence number, and a barrier only needs the fsync
    that covers its own sequence — when several threads hit the barrier
    together, one of them (the *leader*) performs a single ``fsync`` whose
    coverage the followers simply observe.  ``fsyncs_issued`` therefore
    grows no faster than — and under contention strictly slower than —
    the number of barriers requested (``group_absorbed`` counts the saved
    syncs), which is the entire point of batching the slowest operation in
    the commit path.
    """

    def __init__(
        self,
        path: "Path | str",
        sync: str = "flush",
        crash_injector: Optional[CrashInjector] = None,
    ) -> None:
        if sync not in ("always", "flush", "off"):
            raise ValueError(f"unknown sync policy {sync!r}")
        self.path = Path(path)
        self.sync = sync
        self.injector = crash_injector
        self._file = None
        #: serialises frame writes / truncation / open-close
        self._io_lock = threading.RLock()
        #: group-commit state: appends stamped by _append_seq; _synced_seq
        #: is the highest append a completed fsync is known to cover
        self._sync_cond = threading.Condition()
        self._append_seq = 0
        self._synced_seq = 0
        self._sync_in_flight = False
        #: observability: actual fsyncs vs. barriers satisfied by another
        #: thread's fsync (the group-commit win)
        self.fsyncs_issued = 0
        self.group_absorbed = 0

    # -- writing -----------------------------------------------------------

    def _open(self):
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "ab")
        return self._file

    def append(self, lsn: int, kind: str, payload: dict) -> int:
        """Frame and append one record; returns bytes written."""
        body = json.dumps(
            {"lsn": lsn, "kind": kind, "payload": payload}, separators=(",", ":")
        ).encode("utf-8")
        frame = _HEADER.pack(len(body), zlib.crc32(body)) + body
        with self._io_lock:
            handle = self._open()
            if self.injector is not None and self.injector.fires("wal:mid_append"):
                # a torn write: header plus part of the payload reach the disk
                handle.write(frame[: _HEADER.size + max(1, len(body) // 2)])
                handle.flush()
                self.injector.crash("wal:mid_append")
            handle.write(frame)
            handle.flush()
            with self._sync_cond:
                self._append_seq += 1
                seq = self._append_seq
            if self.sync == "always":
                os.fsync(handle.fileno())
                with self._sync_cond:
                    self.fsyncs_issued += 1
                    self._synced_seq = max(self._synced_seq, seq)
        return len(frame)

    def barrier(self) -> None:
        """Make everything appended so far durable (commit barrier).

        Group commit: if another thread's fsync already covers (or is about
        to cover) our latest append, we wait for it instead of issuing our
        own — N concurrent committers cost one disk sync, not N.
        """
        with self._io_lock:
            if self._file is None:
                return
            self._file.flush()
        if self.sync == "off":
            return
        with self._sync_cond:
            target = self._append_seq
            while self._synced_seq < target and self._sync_in_flight:
                self._sync_cond.wait()
            if self._synced_seq >= target:
                self.group_absorbed += 1  # someone else's fsync covered us
                return
            self._sync_in_flight = True
        try:
            with self._io_lock:
                handle = self._file
                if handle is not None:
                    # everything appended up to *now* rides this fsync
                    with self._sync_cond:
                        covered = self._append_seq
                    handle.flush()
                    os.fsync(handle.fileno())
                else:
                    covered = target
            with self._sync_cond:
                self.fsyncs_issued += 1
                self._synced_seq = max(self._synced_seq, covered)
        finally:
            with self._sync_cond:
                self._sync_in_flight = False
                self._sync_cond.notify_all()

    def reset(self) -> None:
        """Truncate the log to zero length (after a checkpoint absorbed it)."""
        with self._io_lock:
            handle = self._open()
            handle.truncate(0)
            handle.seek(0)
            handle.flush()
            if self.sync != "off":
                os.fsync(handle.fileno())
        with self._sync_cond:
            self._synced_seq = self._append_seq

    def close(self) -> None:
        with self._io_lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    # -- reading -----------------------------------------------------------

    def read_records(self) -> Tuple[List[WalRecord], int]:
        """Parse the log; returns ``(records, torn_bytes)``.

        A short frame, short payload, CRC mismatch or undecodable body ends
        the scan: everything from that offset on is a torn tail (the bytes a
        crash left behind) and is **truncated in place** so future appends
        start from a clean record boundary.
        """
        if not self.path.exists():
            return [], 0
        data = self.path.read_bytes()
        records: List[WalRecord] = []
        offset = 0
        good = 0
        while offset + _HEADER.size <= len(data):
            length, crc = _HEADER.unpack_from(data, offset)
            start = offset + _HEADER.size
            end = start + length
            if end > len(data):
                break  # short payload: torn tail
            body = data[start:end]
            if zlib.crc32(body) != crc:
                break  # corrupt/torn entry
            try:
                parsed = json.loads(body)
                records.append(
                    WalRecord(int(parsed["lsn"]), parsed["kind"], parsed["payload"])
                )
            except (ValueError, KeyError, TypeError):
                break
            offset = end
            good = offset
        torn = len(data) - good
        if torn:
            self.close()
            with open(self.path, "r+b") as handle:
                handle.truncate(good)
        return records, torn


class WalManager:
    """The durability subsystem of one :class:`~repro.core.database.TseDatabase`.

    Obtain one via ``db.enable_wal(directory)`` (fresh log) or
    ``TseDatabase.recover(directory)`` (checkpoint + replay).  The manager
    owns the LSN counter, the committed-operation counter (``ops_committed``,
    the unit the crash-equivalence tests reason in), savepoint buffering,
    and the checkpoint protocol.
    """

    def __init__(
        self,
        db,
        directory: "Path | str",
        sync: str = "flush",
        crash_injector: Optional[CrashInjector] = None,
    ) -> None:
        self.db = db
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.log = WriteAheadLog(
            self.directory / LOG_NAME, sync=sync, crash_injector=crash_injector
        )
        self.injector = crash_injector
        self.lsn = 0
        #: effectful records made durable over this database's lifetime
        #: (checkpointed + logged); audit records do not count
        self.ops_committed = 0
        #: records replayed into this database by the last recovery
        self.records_replayed = 0
        self.torn_bytes_dropped = 0
        self.last_checkpoint_seconds = 0.0
        self.last_recovery_seconds = 0.0
        #: buffer length at each open savepoint's entry, outermost first
        self._savepoint_marks: List[int] = []
        self._buffer: List[Tuple[str, dict]] = []
        self._replaying = False
        self._metrics = None
        #: serialises LSN assignment + frame append so records from
        #: concurrent sessions get unique, ordered LSNs; re-entrant because
        #: a savepoint commit appends its composite record under the lock
        self._append_lock = threading.RLock()

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach(self) -> None:
        """Hook the journal into every mutation seam of the database."""
        self.db.wal = self
        self.db.engine.journal = self
        self.db.tsem.journal = self
        self._register_metrics()

    def _register_metrics(self) -> None:
        metrics = self.db.obs.metrics
        self._metrics = metrics
        metrics.counter("wal_appends", help="WAL records appended")
        metrics.counter("wal_bytes", help="bytes appended to the WAL")
        metrics.counter("wal_flushes", help="WAL durability barriers")
        metrics.counter("wal_checkpoints", help="checkpoints completed")
        metrics.gauge(
            "checkpoint_seconds",
            help="duration of the last checkpoint",
            callback=lambda: self.last_checkpoint_seconds,
        )
        metrics.gauge(
            "recovery_seconds",
            help="duration of the last recovery (0 when never recovered)",
            callback=lambda: self.last_recovery_seconds,
        )
        metrics.gauge(
            "wal_records_replayed",
            help="records replayed by the last recovery",
            callback=lambda: self.records_replayed,
        )
        metrics.register_group("wal", self.stats_dict)

    def stats_dict(self) -> Dict[str, object]:
        """The ``wal`` group of ``Database.stats()`` / ``.wal stats``."""
        return {
            "directory": str(self.directory),
            "lsn": self.lsn,
            "ops_committed": self.ops_committed,
            "records_replayed": self.records_replayed,
            "torn_bytes_dropped": self.torn_bytes_dropped,
            "savepoint_depth": len(self._savepoint_marks),
            "buffered_records": len(self._buffer),
            "log_bytes": (
                self.log.path.stat().st_size if self.log.path.exists() else 0
            ),
            "has_checkpoint": (self.directory / CHECKPOINT_NAME).exists(),
            "sync": self.log.sync,
            "fsyncs_issued": self.log.fsyncs_issued,
            "group_commit_absorbed": self.log.group_absorbed,
        }

    # ------------------------------------------------------------------
    # journaling (called from the instrumented seams)
    # ------------------------------------------------------------------

    def record(self, kind: str, payload: dict) -> None:
        """Journal one logical record (buffered inside a savepoint)."""
        if self._replaying:
            return
        with self._append_lock:
            if self._savepoint_marks:
                self._buffer.append((kind, payload))
                return
            self._append(kind, payload)
        # the durability barrier happens *outside* the append lock so that
        # concurrent committers can share one group-commit fsync
        self.flush()

    def _append(self, kind: str, payload: dict) -> None:
        with self._append_lock:
            self.lsn += 1
            written = self.log.append(self.lsn, kind, payload)
            self.ops_committed += _effectful_count(kind, payload)
        if self._metrics is not None:
            self._metrics.counter("wal_appends").inc()
            self._metrics.counter("wal_bytes").inc(written)
            # per-record-type durability cost: which record kinds dominate
            # the log, in count and in bytes
            self._metrics.counter(
                "wal_appends_by_kind", labels={"record": kind}
            ).inc()
            self._metrics.counter(
                "wal_bytes_by_kind", labels={"record": kind}
            ).inc(written)

    def flush(self) -> None:
        """Commit barrier: records appended so far become durable."""
        self.log.barrier()
        if self._metrics is not None:
            self._metrics.counter("wal_flushes").inc()

    # -- update-engine seam ------------------------------------------------

    def log_create(
        self,
        class_name: str,
        assignments: Mapping[str, object],
        union_target: Optional[str],
        oid: Oid,
        oid_base: int,
    ) -> None:
        self.record(
            "create",
            {
                "class": class_name,
                "assignments": {k: _encode_arg(v) for k, v in assignments.items()},
                "union_target": union_target,
                "oid": oid.value,
                "oid_base": oid_base,
            },
        )

    def log_delete(self, oids) -> None:
        self.record("delete", {"oids": [o.value for o in oids]})

    def log_set(
        self,
        class_name: str,
        oids,
        assignments: Mapping[str, object],
        oid_base: int,
    ) -> None:
        self.record(
            "set",
            {
                "class": class_name,
                "oids": [o.value for o in oids],
                "assignments": {k: _encode_arg(v) for k, v in assignments.items()},
                "oid_base": oid_base,
            },
        )

    def log_add(self, class_name: str, oids, union_target: Optional[str]) -> None:
        self.record(
            "add",
            {
                "class": class_name,
                "oids": [o.value for o in oids],
                "union_target": union_target,
            },
        )

    def log_remove(self, class_name: str, oids, target: Optional[str]) -> None:
        self.record(
            "remove",
            {
                "class": class_name,
                "oids": [o.value for o in oids],
                "target": target,
            },
        )

    # -- lazy-migration seam (concurrency.migration) -----------------------

    def migration_step(self, epoch_id: int, classes, remaining: int) -> None:
        """Journal one backfill batch: which epoch, which classes, how many
        are still pending.

        Audit-only (not in :data:`EFFECTFUL_KINDS`): replay re-runs the
        schema changes themselves, and the recovered database re-derives
        identical extents whenever they are next captured — so a crash at
        any point of the backfill, including mid-append of this record,
        recovers to a state equivalent to the mid-migration original.
        """
        self.record(
            "migration_step",
            {
                "epoch": epoch_id,
                "classes": list(classes),
                "remaining": remaining,
            },
        )

    # -- schema-change pipeline seam (TSE manager) -------------------------

    def schema_begin(self, view_name: str, operation: str) -> None:
        self.record("schema_begin", {"view": view_name, "operation": operation})

    def schema_commit(self, view_name: str, operation: str, args: dict) -> None:
        self.record(
            "schema_commit",
            {
                "view": view_name,
                "operation": operation,
                "args": {key: _encode_arg(value) for key, value in args.items()},
            },
        )

    def schema_abort(self, view_name: str, operation: str, error: str) -> None:
        self.record(
            "schema_abort",
            {"view": view_name, "operation": operation, "error": error},
        )

    # -- savepoints (db.transaction()) -------------------------------------

    def begin_savepoint(self) -> None:
        with self._append_lock:
            self._savepoint_marks.append(len(self._buffer))

    def commit_savepoint(self) -> None:
        """Outermost commit makes the buffered records durable atomically.

        The buffer is written as one composite ``txn`` record — a single
        CRC frame — so a crash during the flush either persists the whole
        transaction or (torn tail) none of it; a partial savepoint can
        never replay.
        """
        flush_needed = False
        with self._append_lock:
            if not self._savepoint_marks:
                raise StorageError("commit_savepoint without begin_savepoint")
            self._savepoint_marks.pop()
            if not self._savepoint_marks and self._buffer:
                buffered, self._buffer = self._buffer, []
                self._append(
                    "txn",
                    {
                        "records": [
                            {"kind": kind, "payload": payload}
                            for kind, payload in buffered
                        ]
                    },
                )
                flush_needed = True
        if flush_needed:
            self.flush()

    def abort_savepoint(self) -> None:
        """Abort is a no-op on disk: the records the savepoint buffered are
        dropped, and an enclosing savepoint keeps only its own."""
        with self._append_lock:
            if not self._savepoint_marks:
                raise StorageError("abort_savepoint without begin_savepoint")
            del self._buffer[self._savepoint_marks.pop():]

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------

    def checkpoint(self) -> Path:
        """Snapshot the database atomically and prune the log.

        Protocol: serialise via ``database_to_dict`` and write it with
        :func:`atomic_write_json` (``checkpoint.json.tmp``, flush + ``fsync``,
        rename over ``checkpoint.json``, ``fsync`` the directory), then
        truncate the log.  A crash before the
        rename leaves the old checkpoint + full log; a crash after it leaves
        the new checkpoint + a log whose records replay skips by LSN.
        Under the ``"off"`` sync policy both fsyncs are skipped — the rename
        stays atomic, only power-loss durability is surrendered, which is
        that policy's stated contract (benchmarks and throwaway harnesses).
        """
        from repro.persistence import FORMAT_VERSION, database_to_dict

        if self._savepoint_marks:
            raise StorageError(
                "cannot checkpoint inside an open db.transaction() savepoint"
            )
        start = time.perf_counter()
        target = self.directory / CHECKPOINT_NAME
        # the body is tens of thousands of containers that all survive
        # until it is written, so collector passes meanwhile free nothing
        # and a full pass walks the whole heap; the collector is off for
        # that stretch only (one a caller turned off stays off)
        collecting = gc.isenabled()
        gc.disable()
        try:
            snapshot = {
                "format": FORMAT_VERSION,
                "wal": {"lsn": self.lsn, "ops_committed": self.ops_committed},
                "database": database_to_dict(self.db),
            }
            atomic_write_json(
                target, snapshot, sync=self.log.sync != "off", injector=self.injector
            )
        finally:
            if collecting:
                gc.enable()
        self.log.reset()
        self.last_checkpoint_seconds = time.perf_counter() - start
        if self._metrics is not None:
            self._metrics.counter("wal_checkpoints").inc()
            self._metrics.timed_observe(
                "durability_seconds", self.last_checkpoint_seconds, op="checkpoint"
            )
        return target

    def close(self) -> None:
        self.log.close()


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------

def recover_database(
    directory: "Path | str",
    methods: Optional[Mapping[str, Callable]] = None,
    sync: str = "flush",
):
    """Rebuild a database from a WAL directory: checkpoint + log replay.

    Returns the recovered :class:`~repro.core.database.TseDatabase` with a
    live :class:`WalManager` re-attached (recovery metrics included in
    ``db.stats()``).  ``methods`` rebinds method bodies, exactly as in
    :func:`repro.persistence.load_database`.
    """
    from repro.core.database import TseDatabase
    from repro.persistence import database_from_dict

    directory = Path(directory)
    start = time.perf_counter()
    checkpoint_path = directory / CHECKPOINT_NAME
    stale_tmp = directory / (CHECKPOINT_NAME + ".tmp")
    if stale_tmp.exists():
        stale_tmp.unlink()  # a crash mid-checkpoint left it; never trusted
    base_lsn = 0
    ops_committed = 0
    if checkpoint_path.exists():
        snapshot = json.loads(checkpoint_path.read_text())
        db = database_from_dict(snapshot["database"], methods=methods)
        base_lsn = int(snapshot["wal"]["lsn"])
        ops_committed = int(snapshot["wal"]["ops_committed"])
    else:
        db = TseDatabase()

    log = WriteAheadLog(directory / LOG_NAME, sync=sync)
    records, torn = log.read_records()
    log.close()
    replayed = 0
    last_lsn = base_lsn
    for record in records:
        last_lsn = max(last_lsn, record.lsn)
        if record.lsn <= base_lsn:
            continue  # absorbed by the checkpoint (crash before log prune)
        if record.kind not in EFFECTFUL_KINDS:
            continue  # audit records: begin without commit, aborts
        if record.kind == "txn":
            # one committed savepoint: apply its inner records in order
            for inner in record.payload["records"]:
                if inner["kind"] not in EFFECTFUL_KINDS:
                    continue
                _apply_record(
                    db, WalRecord(record.lsn, inner["kind"], inner["payload"]), methods
                )
                replayed += 1
                ops_committed += 1
            continue
        _apply_record(db, record, methods)
        replayed += 1
        ops_committed += 1
    db.tsem.log.clear()  # process-local (DESIGN §10); replay refilled it

    manager = WalManager(db, directory, sync=sync)
    manager.lsn = last_lsn
    manager.ops_committed = ops_committed
    manager.records_replayed = replayed
    manager.torn_bytes_dropped = torn
    manager.last_recovery_seconds = time.perf_counter() - start
    manager.attach()
    if manager._metrics is not None:
        manager._metrics.timed_observe(
            "durability_seconds", manager.last_recovery_seconds, op="recover"
        )
    # recovery is a dossier trigger: the flight recorder notes the replay
    # (and dumps a forensic bundle when a dossier directory is configured)
    db.obs.flight.record(
        "recovery",
        directory=str(directory),
        records_replayed=replayed,
        torn_bytes_dropped=torn,
        duration_s=round(manager.last_recovery_seconds, 6),
    )
    return db


def _apply_record(db, record: WalRecord, methods) -> None:
    """Re-execute one logical record against the recovering database."""
    payload = record.payload
    kind = record.kind
    try:
        if kind == "create":
            db.store.fast_forward_oids(int(payload["oid_base"]))
            oid = db.engine.create(
                payload["class"],
                {k: _decode_oid(v) for k, v in payload["assignments"].items()},
                union_target=payload.get("union_target"),
            )
            if oid.value != int(payload["oid"]):
                raise RecoveryError(
                    f"replayed create yielded {oid}, log recorded "
                    f"oid:{payload['oid']} (lsn {record.lsn})"
                )
        elif kind == "delete":
            db.engine.delete([Oid(int(v)) for v in payload["oids"]])
        elif kind == "set":
            db.store.fast_forward_oids(int(payload["oid_base"]))
            db.engine.set_values(
                [Oid(int(v)) for v in payload["oids"]],
                payload["class"],
                {k: _decode_oid(v) for k, v in payload["assignments"].items()},
            )
        elif kind == "add":
            db.engine.add(
                [Oid(int(v)) for v in payload["oids"]],
                payload["class"],
                union_target=payload.get("union_target"),
            )
        elif kind == "remove":
            db.engine.remove(
                [Oid(int(v)) for v in payload["oids"]],
                payload["class"],
                target=payload.get("target"),
            )
        elif kind == "define_class":
            from repro.schema.properties import property_from_dict

            db.define_class(
                payload["name"],
                [
                    property_from_dict(p, payload["name"], methods)
                    for p in payload["properties"]
                ],
                inherits_from=tuple(payload["inherits_from"]),
            )
        elif kind == "definevc":
            from repro.schema.classes import derivation_from_dict

            db.define_virtual_class(
                payload["name"],
                derivation_from_dict(payload["derivation"], payload["name"], methods),
            )
        elif kind == "create_view":
            db.create_view(
                payload["name"],
                payload["classes"],
                renames=payload.get("renames") or None,
                closure=payload.get("closure", "complete"),
            )
        elif kind == "merge_views":
            db.merge_views(
                payload["first"],
                payload["second"],
                payload["into"],
                first_version=payload.get("first_version"),
                second_version=payload.get("second_version"),
            )
        elif kind == "retire_view":
            db.retire_view_version(payload["view"], payload["version"])
        elif kind == "schema_commit":
            args = {
                key: _decode_arg(value, payload, methods)
                for key, value in payload["args"].items()
            }
            getattr(db.tsem, payload["operation"])(payload["view"], **args)
        elif kind == "rename_class":
            db.view(payload["view"]).rename_class(payload["old"], payload["new"])
        elif kind == "rename_property":
            db.view(payload["view"]).rename_property(
                payload["class"], payload["old"], payload["new"]
            )
        elif kind == "vacuum":
            db.vacuum()
        elif kind == "create_index":
            db.create_index(payload["class"], payload["attribute"])
        else:  # pragma: no cover - EFFECTFUL_KINDS guards the dispatch
            raise RecoveryError(f"unknown record kind {kind!r}")
    except RecoveryError:
        raise
    except Exception as exc:
        raise RecoveryError(
            f"replay of lsn {record.lsn} ({kind}) failed: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# argument (de)serialisation for schema_commit records
# ---------------------------------------------------------------------------

def _encode_arg(value):
    """JSON-encode one TSE-manager argument (properties tagged by type)."""
    from repro.schema.properties import Property

    if isinstance(value, Property):
        from repro.schema.properties import property_to_dict

        return {"__property__": property_to_dict(value)}
    if isinstance(value, Oid):
        return {"__oid__": value.value}
    return value


def _decode_arg(value, payload: dict, methods):
    if isinstance(value, dict) and set(value) == {"__property__"}:
        from repro.schema.properties import property_from_dict

        owner = payload["args"].get("to") or payload.get("view", "")
        if isinstance(owner, dict):  # pragma: no cover - defensive
            owner = ""
        return property_from_dict(value["__property__"], owner, methods)
    return _decode_oid(value)


def _decode_oid(value):
    """Inverse of :func:`_encode_arg` for an OID-tagged value."""
    if isinstance(value, dict) and set(value) == {"__oid__"}:
        return Oid(int(value["__oid__"]))
    return value


def _effectful_count(kind: str, payload: dict) -> int:
    """How many committed operations a record represents (``txn`` counts
    its effectful inner records; audit records count zero)."""
    if kind == "txn":
        return sum(
            1 for r in payload["records"] if r["kind"] in EFFECTFUL_KINDS
        )
    return 1 if kind in EFFECTFUL_KINDS else 0


def atomic_write_json(
    path: "Path | str",
    document: object,
    *,
    sync: bool = True,
    injector: Optional[CrashInjector] = None,
) -> None:
    """Replace ``path`` with ``document`` as compact JSON, atomically:
    ``<path>.tmp``, flush, ``fsync``, rename over ``path``, ``fsync`` the
    directory, so a crash leaves the old file or the new one.  One
    C-encoder ``json.dumps`` (``json.dump`` runs the pure-Python encoder,
    about twice the CPU) without its cycle check, two fifths of its time:
    ``document`` must be acyclic.  ``sync=False`` skips the fsyncs.  A WAL
    checkpoint passes its ``injector`` (``checkpoint:*_rename`` points).
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as handle:
        handle.write(
            json.dumps(document, separators=(",", ":"), check_circular=False)
        )
        handle.flush()
        if sync:
            os.fsync(handle.fileno())
    if injector is not None and injector.fires("checkpoint:before_rename"):
        injector.crash("checkpoint:before_rename")
    os.replace(tmp, path)
    if sync:
        _fsync_directory(path.parent)
    if injector is not None and injector.fires("checkpoint:after_rename"):
        injector.crash("checkpoint:after_rename")


def _fsync_directory(directory: Path) -> None:
    """Make a rename durable by fsyncing the containing directory."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
