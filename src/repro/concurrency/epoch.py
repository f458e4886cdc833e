"""Copy-on-write schema epochs: what snapshot-isolated readers actually read.

An *epoch* is an immutable capture of everything a reader needs to answer
queries against one committed moment of the database:

* the set of class names in the global schema and its generation counter;
* every view's current :class:`~repro.views.schema.ViewSchema` (these are
  immutable once registered, so the capture shares them — copy-on-write in
  the literal sense: the only copied state is the membership data below);
* per-class extent membership as ``frozenset`` of OIDs, each guarded by a
  per-class digest — ``hash(members)``, which is independent of element
  order and which CPython computes once per frozenset and caches on it;
* a CRC **checksum** over a canonical rendering of the schema-shaped part
  (generation, class names, view versions), computed at publish time.

Publish **adopts** every extent the incremental evaluator holds at the
current schema generation: the evaluator keeps each class's extent as an
immutable ``frozenset`` and replaces it on change, so the epoch shares the
object and copies nothing.  After a data-only write the evaluator's cache
is warm and the epoch is complete at publish.  Only classes the evaluator
has not cached start *pending* — after a schema change (which bumps the
generation and empties the cache) that is every class — and the
:class:`~repro.concurrency.migration.MigrationEngine` captures each on
first touch, from the background backfill, or — sealed pre-mutation —
just before a pool change could move it.  The captured value equals the
publish-time extent; lazy capture only moves *when* it is taken, off the
writer's critical path.

Readers pin the current epoch with one small mutex hold (pointer grab +
refcount) — crucially *without* touching the schema latch, so a reader
session never blocks behind an in-flight schema change; it simply keeps
answering from the epoch published by the last commit.  The manager
retires an epoch when it is no longer current and its last reader unpins
(retire-on-last-reader), so memory is bounded by the number of epochs
still visible to someone; retirement also drops the epoch's remaining
migration backlog — capturing extents nobody can read would be waste.

:meth:`SchemaEpoch.verify` recomputes the schema checksum, re-validates
every captured extent against its per-class digest (recomputed from a
fresh copy, never read back from the set's cached hash), and re-checks the
structural invariants (every class a view selects exists; every selected
class has captured-or-pending membership).  A torn capture — one that
interleaved with a mutation — cannot pass all three; the stress tests
call it on every read, including mid-migration.
"""

from __future__ import annotations

import json
import threading
import zlib
from typing import Dict, FrozenSet, List, Mapping, Optional

from repro.errors import TseError, UnknownView
from repro.storage.oid import Oid

__all__ = ["EpochManager", "SchemaEpoch"]


class SchemaEpoch:
    """One immutable committed-whole capture of schema + extents."""

    __slots__ = (
        "epoch_id",
        "schema_generation",
        "class_names",
        "views",
        "view_versions",
        "extents",
        "extent_digests",
        "pending",
        "checksum",
        "_engine",
        "_pins",
        "_retired",
    )

    def __init__(
        self,
        epoch_id: int,
        schema_generation: int,
        class_names: FrozenSet[str],
        views: Mapping[str, object],
        engine,
    ) -> None:
        self.epoch_id = epoch_id
        self.schema_generation = schema_generation
        self.class_names = frozenset(class_names)
        #: view name -> the (immutable) ViewSchema current at publish
        self.views = dict(views)
        self.view_versions: Dict[str, int] = {
            name: schema.version for name, schema in self.views.items()
        }
        #: class name -> captured membership, adopted at publish or filled
        #: later by the MigrationEngine
        self.extents: Dict[str, FrozenSet[Oid]] = {}
        #: class name -> digest of its captured extent (torn-capture guard)
        self.extent_digests: Dict[str, int] = {}
        #: classes without captured membership: those the evaluator had not
        #: cached at publish, shrinking to empty as the engine captures them
        self.pending: FrozenSet[str] = self.class_names
        #: the MigrationEngine to ask for first-touch captures
        self._engine = engine
        self.checksum = self._compute_checksum()
        self._pins = 0
        self._retired = False

    # -- integrity ---------------------------------------------------------

    def _compute_checksum(self) -> int:
        # the schema-shaped part only: extents arrive lazily and carry
        # their own per-class digests, so the top-level checksum must be
        # stable from publish through the whole migration
        canonical = json.dumps(
            {
                "generation": self.schema_generation,
                "classes": sorted(self.class_names),
                "views": {
                    name: self.view_versions[name] for name in sorted(self.views)
                },
            },
            separators=(",", ":"),
        ).encode("utf-8")
        return zlib.crc32(canonical)

    def _seal(self, extents: Mapping[str, FrozenSet[Oid]]) -> None:
        """Capture the membership of the named classes (publish, or the
        MigrationEngine under its mutex).  Copy-on-write dict swaps keep
        concurrent readers safe: they see either the old dict or the new
        one, never a dict mutating under iteration.  Order matters —
        digests first, extents second, pending last — so any reader that
        observes a class as captured also observes its extent *and* its
        digest."""
        digests = dict(self.extent_digests)
        for name, members in extents.items():
            digests[name] = hash(members)
        self.extent_digests = digests
        captured = dict(self.extents)
        captured.update(extents)
        self.extents = captured
        self.pending = self.pending.difference(extents)

    def migration_watermark(self) -> float:
        """Fraction of classes captured — 1.0 once fully migrated."""
        total = len(self.class_names)
        if total == 0:
            return 1.0
        return 1.0 - len(self.pending) / total

    def verify(self) -> bool:
        """True iff the capture is internally consistent (committed-whole).

        Recomputes the schema checksum, re-checks every captured extent
        against its per-class digest, and re-checks the structural
        invariants: every class selected by a captured view exists in the
        captured class set and is either captured or still pending
        migration.
        """
        if self.checksum != self._compute_checksum():
            return False
        # snapshot ``pending`` before ``extents``: a class that left
        # pending before the snapshot is guaranteed visible in the extents
        # dict read afterwards (seal order is extent-then-pending)
        pending = self.pending
        extents = self.extents
        digests = self.extent_digests
        for name, members in extents.items():
            # a fresh frozenset hashes its elements anew; ``hash(members)``
            # would only read back the value cached on the captured set
            if digests.get(name) != hash(frozenset(iter(members))):
                return False
        for schema in self.views.values():
            for global_name in schema.selected:
                if global_name not in self.class_names:
                    return False
                if global_name not in extents and global_name not in pending:
                    return False
        return True

    # -- reader queries ----------------------------------------------------

    def view(self, view_name: str):
        try:
            return self.views[view_name]
        except KeyError:
            raise UnknownView(
                f"view {view_name!r} did not exist in epoch {self.epoch_id}"
            ) from None

    def extent_of(self, view_name: str, view_class: str) -> FrozenSet[Oid]:
        """Membership of one view class as of this epoch.

        A still-pending class is captured on this first touch — the
        engine snapshots the live extent (which still equals the
        publish-time extent; see :mod:`repro.concurrency.migration`).
        The unlocked ``pending`` probe is race-safe: a stale True costs
        one locked re-check inside the engine, and a stale False is
        impossible because seals publish the extent before clearing the
        pending flag.
        """
        schema = self.view(view_name)
        global_name = schema.global_name_of(view_class)
        if global_name in self.pending:
            self._engine.capture_touch(self, global_name)
        return self.extents.get(global_name, frozenset())

    def class_names_of(self, view_name: str) -> List[str]:
        return self.view(view_name).class_names()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<epoch {self.epoch_id} gen={self.schema_generation} "
            f"views={len(self.views)} pins={self._pins}>"
        )


class EpochManager:
    """Publishes, pins and retires :class:`SchemaEpoch` objects.

    The writer calls :meth:`publish` at commit, while still inside the
    schema latch's write side — the capture therefore reads a stable,
    committed-whole database.  Readers call :meth:`pin` / :meth:`unpin`;
    neither touches the latch.
    """

    def __init__(self, db, migration) -> None:
        self._db = db
        self._mutex = threading.Lock()
        self._current: Optional[SchemaEpoch] = None
        self._next_id = 0
        #: the :class:`~repro.concurrency.migration.MigrationEngine` that
        #: publish hands every epoch's extent capture to
        self.migration = migration
        # lifetime counters for the ``concurrency`` stats group
        self.published = 0
        self.retired = 0
        self.pins_taken = 0

    # -- publishing --------------------------------------------------------

    def publish(self) -> SchemaEpoch:
        """Capture the database's committed state as the new current epoch.

        Must be called where no mutation is concurrently in flight — in
        practice from the writer while it holds the schema latch (the
        session layer wires this into the pipeline's commit), or from
        single-threaded setup code.

        The epoch adopts the incremental evaluator's cached extents (shared
        frozensets, no copies); every other class starts pending and is
        captured lazily, so the cost under the latch is
        O(#classes + #views) regardless of how many objects exist.  The
        migration engine is handed the epoch **before** it becomes
        current, so no reader can touch a pending class the engine does
        not know about.
        """
        db = self._db
        views = {
            name: db.views.current(name) for name in db.views.history.view_names()
        }
        class_names = frozenset(db.schema.class_names())
        cached = db.evaluator.cached_extents()
        adopted = {name: cached[name] for name in class_names & cached.keys()}
        with self._mutex:
            self._next_id += 1
            epoch = SchemaEpoch(
                epoch_id=self._next_id,
                schema_generation=db.schema.generation,
                class_names=class_names,
                views=views,
                engine=self.migration,
            )
            epoch._seal(adopted)
            self.migration.register(epoch)
            previous, self._current = self._current, epoch
            self.published += 1
            if previous is not None and previous._pins == 0:
                self._retire_locked(previous)
        return epoch

    def _retire_locked(self, epoch: SchemaEpoch) -> None:
        """Mark an unreachable epoch retired and drop its migration
        backlog (caller holds ``_mutex``)."""
        epoch._retired = True
        self.retired += 1
        self.migration.deregister(epoch)

    # -- pinning -----------------------------------------------------------

    def pin(self) -> SchemaEpoch:
        """The current epoch, pinned: it survives until :meth:`unpin`."""
        with self._mutex:
            epoch = self._current
            if epoch is None:
                raise TseError(
                    "no epoch published yet — the session layer publishes one "
                    "on attach; call publish() after direct construction"
                )
            epoch._pins += 1
            self.pins_taken += 1
            return epoch

    def unpin(self, epoch: SchemaEpoch) -> None:
        with self._mutex:
            if epoch._pins <= 0:
                raise TseError(f"unpin of epoch {epoch.epoch_id} with no pins")
            epoch._pins -= 1
            if epoch._pins == 0 and epoch is not self._current and not epoch._retired:
                # retire-on-last-reader: nobody can reach it any more —
                # this also deregisters any remaining migration backlog,
                # so a superseded epoch unpinned *after* publish neither
                # leaks its snapshot nor keeps the backfill busy
                self._retire_locked(epoch)

    # -- introspection -----------------------------------------------------

    @property
    def current(self) -> Optional[SchemaEpoch]:
        with self._mutex:
            return self._current

    def stats_dict(self) -> Dict[str, object]:
        with self._mutex:
            current = self._current
            return {
                "published": self.published,
                "retired": self.retired,
                "pins_taken": self.pins_taken,
                "current_epoch": current.epoch_id if current else None,
                "current_pins": current._pins if current else 0,
                "current_pending": len(current.pending) if current else 0,
            }
