"""Reader and writer sessions over one shared :class:`TseDatabase`.

``db.sessions()`` returns the database's :class:`SessionManager` (created
on first use), which wires the schema latch into the TSE manager's
pipeline, publishes the first epoch, and from then on republishes one at
every schema-change commit — still inside the write latch, so every epoch
is a committed-whole capture.

Two session kinds:

:class:`ReaderSession`
    Pins the current epoch on entry and answers every query from it —
    *snapshot isolation*: the session's world never changes mid-flight,
    even while a writer commits, and pinning never blocks on the latch.
    ``refresh()`` moves the session forward to the newest epoch.

:class:`WriterSession`
    Wraps the block in the write latch (re-entrantly — the pipeline
    latches again inside) and exposes the ordinary view handles.  At most
    one writer session is active at a time; further writers queue FIFO.

Live (session-less) access stays safe too: the view/extent handles consult
the latch's read side whenever a session manager exists, so legacy
call sites see either the pre-change or the post-change schema, never a
torn intermediate.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.concurrency.epoch import EpochManager, SchemaEpoch
from repro.concurrency.latch import SchemaLatch
from repro.concurrency.migration import MigrationEngine
from repro.errors import TseError
from repro.storage.oid import Oid

__all__ = ["ReaderSession", "SessionManager", "WriterSession"]

class ReaderSession:
    """A snapshot-isolated reader: every query answers from one pinned epoch.

    Carries a session id (``r1``, ``r2``, …) that labels every query it
    serves into the ``session_reads`` counter family — per-session
    attribution for multi-tenant debugging (`whose` queries, not just how
    many)."""

    def __init__(self, manager: "SessionManager", session_id: str) -> None:
        self._manager = manager
        self._epoch: Optional[SchemaEpoch] = None
        self.session_id = session_id
        # the hot per-session child is resolved once, not per query
        self._reads = manager.metrics.counter(
            "session_reads",
            help="queries served, by reader session and view schema",
            labels={"session": session_id},
        )

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "ReaderSession":
        self._epoch = self._manager.epochs.pin()
        self._manager.metrics.counter(
            "session_snapshots",
            help="epochs pinned, by session",
            labels={"session": self.session_id},
        ).inc()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> None:
        if self._epoch is not None:
            self._manager.epochs.unpin(self._epoch)
            self._epoch = None

    def refresh(self) -> "ReaderSession":
        """Re-pin to the newest published epoch (a new snapshot)."""
        fresh = self._manager.epochs.pin()
        if self._epoch is not None:
            self._manager.epochs.unpin(self._epoch)
        self._epoch = fresh
        self._manager.metrics.counter(
            "session_snapshots", labels={"session": self.session_id}
        ).inc()
        return self

    # -- queries (all answered from the pinned epoch) ----------------------

    @property
    def epoch(self) -> SchemaEpoch:
        if self._epoch is None:
            raise TseError("reader session is closed (use it as a context manager)")
        return self._epoch

    def view_version(self, view_name: str) -> int:
        self._reads.inc()
        return self.epoch.view(view_name).version

    def class_names(self, view_name: str) -> List[str]:
        self._reads.inc()
        return self.epoch.class_names_of(view_name)

    def extent_oids(self, view_name: str, view_class: str) -> List[Oid]:
        self._reads.inc()
        return sorted(self.epoch.extent_of(view_name, view_class))

    def count(self, view_name: str, view_class: str) -> int:
        self._reads.inc()
        return len(self.epoch.extent_of(view_name, view_class))

    def verify(self) -> bool:
        """Integrity of the pinned snapshot (see :meth:`SchemaEpoch.verify`)."""
        self._reads.inc()
        return self.epoch.verify()


class WriterSession:
    """Exclusive access for a block of schema changes and updates."""

    def __init__(self, manager: "SessionManager", session_id: str) -> None:
        self._manager = manager
        self._db = manager.db
        self.session_id = session_id

    def __enter__(self) -> "WriterSession":
        self._manager.latch.acquire_write()
        self._published_at_enter = self._manager.epochs.published
        self._manager.metrics.counter(
            "session_write_blocks",
            help="writer-session blocks entered, by session",
            labels={"session": self.session_id},
        ).inc()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            if (
                exc_type is None
                and self._manager.epochs.published == self._published_at_enter
            ):
                # the block ran only generic updates (no schema change, so
                # the pipeline never republished): publish here so new
                # readers see its effects
                self._manager.epochs.publish()
        finally:
            self._manager.latch.release_write()
        return False

    def view(self, name: str):
        """An ordinary live :class:`~repro.core.handles.ViewHandle` — the
        latch is held by this thread, so its guarded reads re-enter."""
        return self._db.view(name)

    @property
    def db(self):
        return self._db


class SessionManager:
    """Owns the latch and epoch manager of one database; hands out sessions."""

    def __init__(self, db) -> None:
        self.db = db
        self.latch = SchemaLatch()
        self.metrics = db.obs.metrics
        self.readers_opened = 0
        self.writers_opened = 0
        self._counter_mutex = threading.Lock()
        # epochs publish with pending extents and the MigrationEngine
        # captures them off the writer's critical path, in a background
        # worker unless the database turned it off (the differential
        # harness drains deterministically instead)
        self.migration = MigrationEngine(
            db, self.latch, backfill=bool(db.migration_backfill)
        )
        self.epochs = EpochManager(db, self.migration)
        # the pre-mutation seal hook: pool leaf mutators consult the
        # engine before changing membership or values
        db.pool.migration = self.migration
        # wire the pipeline: TseManager serialises behind the latch and
        # republishes an epoch at every commit, inside the write side
        db.tsem.latch = self.latch
        db.tsem.on_commit = self.epochs.publish
        self.epochs.publish()  # the baseline epoch readers start from
        db.obs.metrics.register_group("concurrency", self.stats_dict)
        db.obs.metrics.register_group("migration", self.migration.stats_dict)

    def reader(self) -> ReaderSession:
        """A new snapshot-isolated reader (use as a context manager)."""
        with self._counter_mutex:
            self.readers_opened += 1
            session_id = f"r{self.readers_opened}"
        return ReaderSession(self, session_id)

    def writer(self) -> WriterSession:
        """A new exclusive writer (use as a context manager)."""
        with self._counter_mutex:
            self.writers_opened += 1
            session_id = f"w{self.writers_opened}"
        return WriterSession(self, session_id)

    def stats_dict(self) -> Dict[str, object]:
        """The ``concurrency`` group of ``db.stats()`` / ``.sessions``."""
        stats: Dict[str, object] = {
            "readers_opened": self.readers_opened,
            "writers_opened": self.writers_opened,
        }
        stats.update(self.latch.stats_dict())
        stats.update(self.epochs.stats_dict())
        return stats
