"""Lazy schema migration: capture-on-touch epochs plus background backfill.

Capturing every class extent at publish, while the writer still holds
the schema latch, would make the writer-visible pause of a schema
change grow linearly with the population — exactly the outage "Online
Schema Evolution is (Almost) Free for Snapshot Databases" (VLDB 2023)
shows is avoidable in snapshot systems.  This module is the avoidance:

* :meth:`~repro.concurrency.epoch.EpochManager.publish` constructs the new
  :class:`~repro.concurrency.epoch.SchemaEpoch` with **no** extents —
  every class starts *pending* — and registers it here.  The latch hold
  shrinks to schema bookkeeping: O(#classes + #views), independent of the
  object count.
* A pending class is **captured on first touch**: the first reader that
  asks an epoch for its extent triggers :meth:`MigrationEngine.capture_touch`,
  which snapshots the live extent into the epoch (with a per-class CRC).
* A daemon **backfill worker** drains the remaining pending classes in
  bounded batches (:meth:`MigrationEngine.backfill_step`), each batch
  holding the latch's *read* side briefly — writers queue at most one
  batch, readers never wait at all.

Why capture-on-touch is sound here: a schema-change primitive never moves
a pre-existing class's extent (derivations are immutable once classified;
only *pool* mutations move membership), so the live extent still equals
the publish-time extent until some object mutation lands.  The engine
therefore **seals before mutation**: every pool mutation first captures,
in every still-pending epoch, the classes the mutation could affect
(:meth:`MigrationEngine.begin_mutation`), computed from the same
derivation-dependency index the incremental extent evaluator propagates
deltas through.  Destroys and wholesale restores seal everything —
conservative, but those are rare next to value writes.

Lock order (global, never inverted): schema latch → ``EpochManager._mutex``
→ ``MigrationEngine._mutex``.  Capture paths take the latch's read side
first so a capture can never interleave with a half-applied schema change;
the latch is owner-re-entrant, so mutators already holding either side
nest freely.  The pre-mutation hook additionally *holds* the engine mutex
across the mutation body (released by :meth:`MigrationEngine.end_mutation`),
which keeps a concurrent publish from registering a new pending epoch
between the seal decision and the mutation landing.

Lazy capture is the only publish path; the from-scratch
:class:`~repro.schema.extents.ExtentEvaluator` and the differential oracle
are what its captures are checked against.  ``db.migration_backfill =
False`` (before ``db.sessions()``) keeps lazy capture but disables the
background worker (tests drive :meth:`backfill_step` deterministically
instead).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, FrozenSet, List, Optional, Set

__all__ = ["MigrationEngine"]

#: histogram phases: ``backfill`` (worker/explicit batches), ``touch``
#: (reader-triggered first-touch captures), ``seal`` (pre-mutation seals)
_PHASES = ("backfill", "touch", "seal")


class MigrationEngine:
    """Captures pending epoch extents lazily; owns the backfill worker."""

    def __init__(self, db, latch, backfill: bool = True) -> None:
        self._db = db
        self._latch = latch
        # RLock: reclassify runs remove+add as two nested hook pairs and a
        # seal may re-enter through evaluator callbacks
        self._mutex = threading.RLock()
        #: epochs with at least one pending class, oldest first
        self._epochs: List[object] = []
        #: lock-free fast-path flag — False→True only at publish (excluded
        #: against latched mutations by the write latch), True→False only
        #: under the mutex.  A stale True costs one locked re-check; a
        #: stale False is impossible while a capture could matter.
        self._has_pending = False
        self.backfill_enabled = backfill
        self.backfill_batch_limit = 8
        # lifetime counters for the ``migration`` stats group
        self.epochs_registered = 0
        self.epochs_drained = 0
        self.epochs_dropped = 0
        self.backlog_dropped = 0
        self.classes_captured = 0
        self.classes_sealed = 0
        self.touch_captures = 0
        self.backfill_steps = 0
        self._worker: Optional[threading.Thread] = None
        metrics = db.obs.metrics
        metrics.gauge(
            "migration_backlog",
            help="pending (uncaptured) class extents across live epochs",
            callback=self.backlog,
        )
        self._batch_seconds = {
            phase: metrics.histogram(
                "migration_batch_seconds",
                help="time per lazy-migration batch, by phase "
                "(backfill/touch/seal)",
                labels={"phase": phase},
            )
            for phase in _PHASES
        }

    # ------------------------------------------------------------------
    # epoch lifecycle (called by EpochManager under its mutex)
    # ------------------------------------------------------------------

    def register(self, epoch) -> None:
        """Adopt a freshly published epoch's pending backlog."""
        if not epoch.pending:
            return
        with self._mutex:
            self._epochs.append(epoch)
            self.epochs_registered += 1
            self._has_pending = True
        self._db.obs.flight.record(
            "migration_started",
            epoch=epoch.epoch_id,
            pending=len(epoch.pending),
        )
        self._ensure_worker()

    def deregister(self, epoch) -> None:
        """Drop a retired epoch's backlog — nobody can read it any more,
        so capturing (or sealing) its remaining classes would be pure
        waste.  Called from both retire sites (publish-over-unpinned and
        retire-on-last-unpin)."""
        with self._mutex:
            if epoch in self._epochs:
                self._epochs.remove(epoch)
                self.epochs_dropped += 1
                self.backlog_dropped += len(epoch.pending)
                self._has_pending = bool(self._epochs)

    # ------------------------------------------------------------------
    # capture paths
    # ------------------------------------------------------------------

    def _capture_locked(self, epoch, name: str) -> None:
        # caller holds latch.read + self._mutex: the schema is not mid-
        # change and no hooked mutation is in flight, so the live extent
        # still equals the epoch's publish-time extent for ``name``
        epoch._seal_class(name, self._db.evaluator.extent(name))
        self.classes_captured += 1

    def _prune_drained_locked(self) -> None:
        drained = [epoch for epoch in self._epochs if not epoch.pending]
        for epoch in drained:
            self._epochs.remove(epoch)
            self.epochs_drained += 1
            self._db.obs.flight.record(
                "migration_drained",
                epoch=epoch.epoch_id,
                captured=len(epoch.extents),
            )
        if drained:
            self._has_pending = bool(self._epochs)

    def capture_touch(self, epoch, global_name: str) -> None:
        """First-touch capture: a reader asked ``epoch`` for a pending
        class's extent.  Called from :meth:`SchemaEpoch.extent_of`."""
        start = time.perf_counter()
        with self._latch.read():
            with self._mutex:
                if global_name not in epoch.pending:
                    return  # raced another capture — already sealed
                self._capture_locked(epoch, global_name)
                self.touch_captures += 1
                self._prune_drained_locked()
        self._batch_seconds["touch"].observe(time.perf_counter() - start)

    def backfill_step(self, limit: Optional[int] = None) -> int:
        """Capture up to ``limit`` pending classes (oldest epoch first).

        One bounded batch of the background drain; returns the number of
        classes captured (0 when fully drained).  Holds the latch's read
        side for the batch, so a queued schema change waits at most one
        batch.  Also exposed to the differential oracle as the
        ``backfill_step`` command.
        """
        if not self._has_pending:
            return 0
        if limit is None:
            limit = self.backfill_batch_limit
        limit = max(1, int(limit))
        start = time.perf_counter()
        captured: List[str] = []
        journal: List[Dict[str, object]] = []
        with self._latch.read():
            with self._mutex:
                remaining = limit
                for epoch in list(self._epochs):
                    batch: List[str] = []
                    while remaining and epoch.pending:
                        name = min(epoch.pending)  # deterministic drain order
                        self._capture_locked(epoch, name)
                        batch.append(name)
                        remaining -= 1
                    if batch:
                        captured.extend(batch)
                        journal.append(
                            {
                                "epoch": epoch.epoch_id,
                                "classes": batch,
                                "remaining": len(epoch.pending),
                            }
                        )
                    if not remaining:
                        break
                self._prune_drained_locked()
        if captured:
            self.backfill_steps += 1
            self._batch_seconds["backfill"].observe(time.perf_counter() - start)
            wal = self._db.wal
            if wal is not None:
                for entry in journal:
                    wal.migration_step(
                        entry["epoch"], entry["classes"], entry["remaining"]
                    )
        return len(captured)

    def drain(self) -> int:
        """Capture *every* pending class synchronously (vacuum, tests)."""
        total = 0
        while True:
            step = self.backfill_step(max(self.backfill_batch_limit, 64))
            if step == 0:
                return total
            total += step

    # ------------------------------------------------------------------
    # the pre-mutation seal hook (called by InstancePool leaf mutators)
    # ------------------------------------------------------------------

    def begin_mutation(
        self,
        kind: str,
        oid=None,
        class_names=(),
        attr: Optional[str] = None,
    ) -> bool:
        """Seal, in every pending epoch, the classes this mutation could
        move, *before* the pool state changes.

        Returns True when locks were taken — the caller must then call
        :meth:`end_mutation` in a ``finally`` block; the locks stay held
        across the mutation body so no new pending epoch can be published
        against the half-applied pool state.  Returns False (no locks, no
        obligations) on the fast path when nothing is pending.
        """
        if not self._has_pending:
            return False
        self._latch.acquire_read()
        self._mutex.acquire()
        if not self._has_pending:  # drained while we queued for the locks
            self._mutex.release()
            self._latch.release_read()
            return False
        start = time.perf_counter()
        affected = self._affected_classes(kind, oid, class_names, attr)
        sealed = 0
        for epoch in list(self._epochs):
            targets = (
                epoch.pending if affected is None else epoch.pending & affected
            )
            for name in sorted(targets):
                self._capture_locked(epoch, name)
                sealed += 1
        if sealed:
            self.classes_sealed += sealed
            self._batch_seconds["seal"].observe(time.perf_counter() - start)
            self._prune_drained_locked()
        return True

    def end_mutation(self) -> None:
        self._mutex.release()
        self._latch.release_read()

    def _affected_classes(
        self, kind: str, oid, class_names, attr
    ) -> Optional[Set[str]]:
        """Class names whose extents the mutation could move, or ``None``
        for "every class" (destroy / wholesale restore).

        Reuses the incremental evaluator's seed computation: seeds name
        the directly-affected classes, and closing over the derivation-
        dependents DAG covers everything reachable above them.  Using the
        *current* schema's dependency index is sound for older epochs too:
        derivations are immutable and classes are only ever added between
        publishes (vacuum drains all backlogs first), so the current graph
        is a superset of any pending epoch's.
        """
        evaluator = self._db.evaluator
        try:
            deps = evaluator._dependency_index()
            if kind == "membership":
                seeds: Set[str] = set()
                for name in class_names:
                    seeds.update(evaluator._membership_seeds(oid, name))
            elif kind == "value":
                if not deps.wildcard_selects and attr not in deps.attr_deps:
                    return set()  # no select reads this attribute
                seeds = set(evaluator._value_seeds(oid, attr))
            else:  # destroy / reset
                return None
            frontier = list(seeds)
            while frontier:
                name = frontier.pop()
                for dependent in deps.dependents.get(name, ()):
                    if dependent not in seeds:
                        seeds.add(dependent)
                        frontier.append(dependent)
            return seeds
        except Exception:  # unexpected shape — seal everything, stay correct
            return None

    # ------------------------------------------------------------------
    # background worker
    # ------------------------------------------------------------------

    def _ensure_worker(self) -> None:
        if not self.backfill_enabled:
            return
        with self._mutex:
            if not self._has_pending or self._worker is not None:
                return
            self._worker = threading.Thread(
                target=self._worker_main, name="tse-backfill", daemon=True
            )
            self._worker.start()

    def _worker_main(self) -> None:
        try:
            while True:
                if self.backfill_step(self.backfill_batch_limit):
                    continue
                with self._mutex:
                    if not self._has_pending:
                        # drained: exit; the next pending publish respawns.
                        # The re-check happens under the same mutex
                        # _ensure_worker holds, so no backlog is stranded.
                        self._worker = None
                        return
        except Exception as exc:  # pragma: no cover - defensive
            with self._mutex:
                self._worker = None
            self._db.obs.flight.record(
                "migration_backfill_error",
                error=type(exc).__name__,
                message=str(exc),
            )

    @property
    def worker_alive(self) -> bool:
        with self._mutex:
            return self._worker is not None and self._worker.is_alive()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def backlog(self) -> int:
        """Pending (uncaptured) class extents across live epochs."""
        with self._mutex:
            return sum(len(epoch.pending) for epoch in self._epochs)

    def status(self) -> Dict[str, object]:
        """The plain-data migration report ``db.migration_status()`` and
        the server's ``migration_status`` request return."""
        with self._mutex:
            epochs = [
                {
                    "epoch": epoch.epoch_id,
                    "pending": len(epoch.pending),
                    "captured": len(epoch.extents),
                    "watermark": epoch.migration_watermark(),
                }
                for epoch in self._epochs
            ]
            return {
                "mode": "lazy",
                "backlog": sum(entry["pending"] for entry in epochs),
                "epochs": epochs,
                "backfill": {
                    "enabled": self.backfill_enabled,
                    "worker_alive": self._worker is not None
                    and self._worker.is_alive(),
                    "batch_limit": self.backfill_batch_limit,
                    "steps": self.backfill_steps,
                },
            }

    def stats_dict(self) -> Dict[str, object]:
        """The ``migration`` group of ``db.stats()``."""
        with self._mutex:
            return {
                "backlog": sum(len(e.pending) for e in self._epochs),
                "epochs_migrating": len(self._epochs),
                "epochs_registered": self.epochs_registered,
                "epochs_drained": self.epochs_drained,
                "epochs_dropped": self.epochs_dropped,
                "backlog_dropped": self.backlog_dropped,
                "classes_captured": self.classes_captured,
                "classes_sealed": self.classes_sealed,
                "touch_captures": self.touch_captures,
                "backfill_steps": self.backfill_steps,
            }
