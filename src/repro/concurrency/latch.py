"""The schema latch: a readers-writer lock with single-writer admission.

One latch guards the *structural* state of a database — the global schema,
the view history and the derived extents — against the schema-change
pipeline.  Many readers share it; at most one writer holds it; waiting
writers form a FIFO admission queue so a stream of changes from different
sessions applies in request order.

Policy decisions, and why:

* **Writer preference.**  A newly arriving reader waits behind any *queued*
  writer (not only a holding one).  Schema changes are rare and short
  relative to reads; without preference a steady read load starves the
  pipeline indefinitely.
* **Owner re-entrancy, both sides.**  The schema-change pipeline nests:
  ``WriterSession`` wraps a block in ``write()`` while ``TseManager._change``
  latches again, and the writer thread resolves view schemas (a guarded
  *read*) mid-change.  The owner thread may therefore re-acquire the write
  side, and may acquire the read side while writing, without deadlocking
  itself.
* **No read→write upgrade.**  A thread holding only the read side cannot
  acquire the write side — two upgrading readers would deadlock each other.
  The attempt raises :class:`~repro.errors.TseError` immediately instead of
  hanging; sessions that need to write must start as writers.

Readers that must never block on a writer at all should not use the latch —
they pin an :class:`~repro.concurrency.epoch.SchemaEpoch` instead; the
latch serves *live* reads that want the newest committed state.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from typing import Dict, Optional

from repro.errors import TseError

__all__ = ["SchemaLatch"]


class SchemaLatch:
    """Readers-writer latch with FIFO writer admission (see module docs)."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        #: thread ident -> re-entrant read depth (the writer's own guarded
        #: reads nest here too)
        self._readers: Dict[int, int] = {}
        self._writer: Optional[int] = None  # thread ident of the holder
        self._writer_depth = 0
        self._queue: deque = deque()  # FIFO tickets of waiting writers
        self._next_ticket = 0
        # lifetime counters for the ``concurrency`` stats group
        self.reads_admitted = 0
        self.writes_admitted = 0
        self.writer_queue_peak = 0

    # -- read side ---------------------------------------------------------

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me or me in self._readers:
                # owner re-entrancy: the write holder may read its own
                # in-progress state; a reader may nest reads
                self._readers[me] = self._readers.get(me, 0) + 1
                return
            while self._writer is not None or self._queue:
                self._cond.wait()
            self._readers[me] = 1
            self.reads_admitted += 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            depth = self._readers.get(me)
            if depth is None:
                raise TseError("release_read without a matching acquire_read")
            if depth == 1:
                del self._readers[me]
            else:
                self._readers[me] = depth - 1
            # while a writer holds the latch the only readers are its own
            # nested reads, and their release can admit no waiter
            if not self._readers and self._writer is None:
                self._cond.notify_all()

    @contextmanager
    def read(self):
        """``with latch.read():`` — shared access for the block."""
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    # -- write side --------------------------------------------------------

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            if me in self._readers:
                raise TseError(
                    "read->write latch upgrade is not supported (two upgrading "
                    "readers would deadlock); start a writer session instead"
                )
            self._next_ticket += 1
            ticket = self._next_ticket
            self._queue.append(ticket)
            self.writer_queue_peak = max(self.writer_queue_peak, len(self._queue))
            while not (
                self._queue[0] == ticket
                and self._writer is None
                and not self._readers
            ):
                self._cond.wait()
            self._queue.popleft()
            self._writer = me
            self._writer_depth = 1
            self.writes_admitted += 1

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise TseError("release_write by a thread that does not hold it")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()

    @contextmanager
    def write(self):
        """``with latch.write():`` — exclusive access for the block."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    # -- introspection -----------------------------------------------------

    @property
    def writers_waiting(self) -> int:
        with self._cond:
            return len(self._queue)

    @property
    def active_readers(self) -> int:
        with self._cond:
            return len(self._readers)

    def held_exclusively_by_me(self) -> bool:
        with self._cond:
            return self._writer == threading.get_ident()

    def stats_dict(self) -> Dict[str, int]:
        with self._cond:
            return {
                "reads_admitted": self.reads_admitted,
                "writes_admitted": self.writes_admitted,
                "writers_waiting": len(self._queue),
                "writer_queue_peak": self.writer_queue_peak,
                "active_readers": len(self._readers),
                "write_held": self._writer is not None,
            }
