"""The object store: slices, clustering, and snapshots.

This is our stand-in for GemStone 3.2 (section 5 of the paper).  TSE needs
from its platform exactly four things, all provided here:

* **OID allocation** for conceptual and implementation objects;
* **persistent slice storage** — a *slice* is the per-class chunk of state
  that the object-slicing architecture attaches to a conceptual object;
* **clustering** of same-class slices onto shared pages, with page-level
  access accounting so Table 1's cost model can be measured;
* **snapshots** of every live slice, from which checkpoints and
  ``repro.persistence`` save and reload a database, and an **undo journal**
  (:class:`UndoJournal`) of the writes made inside an open savepoint, from
  which ``TseDatabase.transaction`` rolls back.

The store knows nothing about schemas or views; it stores flat slotted
payloads keyed by slice id — attribute names are interned once per cluster
(class) in an :class:`AttributeTable` and each slice is a plain list indexed
by interned position.  Slice reads and writes still speak dictionaries
(``read_slice``/``create_slice``), so ``repro.objectmodel`` never sees a
position.  Snapshots do not: they are columnar, one entry per cluster
holding its attribute names and one value list per slice (see
:meth:`ObjectStore.snapshot`), not a re-keyed dictionary per slice.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import zip_longest
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import SliceNotFound, StorageError
from repro.storage.oid import Oid, OidAllocator
from repro.storage.pages import DEFAULT_CACHE_PAGES, DEFAULT_SLOTS_PER_PAGE, PageManager


#: slot marker for "attribute not present in this slice" — distinguishes a
#: stored ``None`` from an absent value in slotted payloads
_ABSENT = object()


class UndoJournal(list):
    """One ordered list of undo entries, shared by the store and the pool.

    Each entry is a tuple ``(undo, *args)``; ``undo(*args)`` reverses one
    write.  A savepoint is a mark in the journal (its length at entry), so
    entry and commit cost O(1) and :meth:`undo_to` costs O(writes made
    since the mark).  Undoing newest-first takes every structure back
    through exactly the states it passed through, so an entry may rely on
    the state its own write left behind (a created slice is the last id
    of its cluster bucket, say).
    """

    __slots__ = ()

    def undo_to(self, mark: int) -> None:
        while len(self) > mark:
            entry = self.pop()
            entry[0](*entry[1:])


def _set_slot(payload: list, pos: int, value: object) -> None:
    payload[pos] = value


@dataclass(slots=True)
class SliceRecord:
    """Bookkeeping for one stored slice."""

    slice_id: Oid
    cluster_key: str
    page_id: int
    slot: int


class AttributeTable:
    """Interned attribute names for one cluster key.

    All slices of a cluster (= class) share one name table; each slice
    payload is then a plain list indexed by the interned position, with
    :data:`_ABSENT` holes.  Attribute names are stored once per *class*
    instead of once per *object*, and a value read is a list index instead
    of a string-keyed dict probe.  Positions are append-only — dropping a
    slice never renumbers survivors.  The order and the set of names
    depend on the history of writes (a rolled-back write may leave a name
    no slice holds), so snapshots do not copy a table as it stands: they
    write the names some slice holds a value for, sorted (see
    :meth:`ObjectStore.snapshot`).
    """

    __slots__ = ("index", "names")

    def __init__(self) -> None:
        self.index: Dict[str, int] = {}
        self.names: List[str] = []

    def intern(self, name: str) -> int:
        pos = self.index.get(name)
        if pos is None:
            pos = self.index[name] = len(self.names)
            self.names.append(name)
        return pos


class ObjectStore:
    """Flat slice storage with class-keyed clustering.

    A slice is addressed by an :class:`~repro.storage.oid.Oid` and holds its
    attribute values in a slotted list (see :class:`AttributeTable`).  All
    reads and writes are routed through the page manager so the benchmarks
    can observe simulated I/O.
    """

    def __init__(
        self,
        slots_per_page: int = DEFAULT_SLOTS_PER_PAGE,
        cache_pages: int = DEFAULT_CACHE_PAGES,
    ) -> None:
        self._oids = OidAllocator()
        self._pages = PageManager(slots_per_page=slots_per_page, cache_pages=cache_pages)
        self._slices: Dict[Oid, SliceRecord] = {}
        self._by_key: Dict[str, List[Oid]] = {}
        self._attrs: Dict[str, AttributeTable] = {}
        #: guards slice-table bookkeeping (create/drop) and savepoint undo;
        #: value reads go straight to the page manager — the session
        #: layer's epoch snapshots isolate readers from writers
        self._mutex = threading.RLock()
        #: the open savepoint's :class:`UndoJournal` (shared with the
        #: instance pool), or ``None`` outside a savepoint
        self.journal: Optional[UndoJournal] = None

    # -- OIDs ----------------------------------------------------------------

    def allocate_oid(self) -> Oid:
        """Hand out a fresh OID (also used for conceptual objects, which own
        an OID but no storage of their own)."""
        return self._oids.allocate()

    @property
    def oids_allocated(self) -> int:
        return self._oids.allocated_count

    @property
    def oid_next(self) -> int:
        """The value the next allocated OID will carry (WAL watermark)."""
        return self._oids.next_value

    def fast_forward_oids(self, next_value: int) -> None:
        """Advance OID allocation to ``next_value`` (log replay only)."""
        self._oids.fast_forward(next_value)

    # -- slices ----------------------------------------------------------------

    def _table(self, cluster_key: str) -> AttributeTable:
        table = self._attrs.get(cluster_key)
        if table is None:
            table = self._attrs[cluster_key] = AttributeTable()
        return table

    def create_slice(self, cluster_key: str, values: Optional[dict] = None) -> Oid:
        """Create a new slice clustered under ``cluster_key``.

        Returns the slice's OID.  ``values`` seeds the slice contents.
        """
        slice_id = self._oids.allocate()
        with self._mutex:
            table = self._table(cluster_key)
            payload: List[object] = []
            if values:
                for key, value in values.items():
                    pos = table.intern(key)
                    if pos >= len(payload):
                        payload.extend([_ABSENT] * (pos + 1 - len(payload)))
                    payload[pos] = value
            page_id, slot = self._pages.place(cluster_key, payload)
            record = SliceRecord(slice_id, cluster_key, page_id, slot)
            self._slices[slice_id] = record
            self._by_key.setdefault(cluster_key, []).append(slice_id)
            if self.journal is not None:
                self.journal.append((self._undo_create, slice_id))
        return slice_id

    def _undo_create(self, slice_id: Oid) -> None:
        record = self._slices.pop(slice_id)
        self._pages.delete(record.page_id, record.slot)
        self._by_key[record.cluster_key].pop()

    def _record(self, slice_id: Oid) -> SliceRecord:
        try:
            return self._slices[slice_id]
        except KeyError:
            raise SliceNotFound(f"no slice with id {slice_id}") from None

    def read_slice(self, slice_id: Oid) -> dict:
        """Return the slice's values as a fresh dictionary (one page read)."""
        record = self._record(slice_id)
        payload = self._pages.read(record.page_id, record.slot)
        names = self._attrs[record.cluster_key].names
        return {
            names[pos]: value
            for pos, value in enumerate(payload)
            if value is not _ABSENT
        }

    def get_value(self, slice_id: Oid, key: str, default: object = None) -> object:
        """Read one attribute value from a slice (one page read, one index)."""
        record = self._record(slice_id)
        payload = self._pages.read(record.page_id, record.slot)
        pos = self._attrs[record.cluster_key].index.get(key)
        if pos is None or pos >= len(payload):
            return default
        value = payload[pos]
        return default if value is _ABSENT else value

    def value_reader(self, cluster_key: str, key: str, default: object = None):
        """A pre-bound single-attribute reader: ``fn(slice_id) -> value``.

        Equivalent to :meth:`get_value` for slices of ``cluster_key`` but
        with the record table, page manager, and attribute table resolved
        once at plan time instead of per read — the extent evaluator calls
        this thousands of times per select scan.  Page accounting is
        identical to :meth:`get_value` (every call is still one page read).
        """
        self._table(cluster_key)  # ensure the attribute table exists

        def read(slice_id: Oid, _store=self) -> object:
            # the tables are resolved through the store per call, exactly
            # as get_value does; savepoint undo mutates them in place
            try:
                record = _store._slices[slice_id]
            except KeyError:
                raise SliceNotFound(f"no slice with id {slice_id}") from None
            payload = _store._pages.read(record.page_id, record.slot)
            pos = _store._attrs[cluster_key].index.get(key)
            if pos is None or pos >= len(payload):
                return default
            value = payload[pos]
            return default if value is _ABSENT else value

        return read

    def has_value(self, slice_id: Oid, key: str) -> bool:
        record = self._record(slice_id)
        payload = self._pages.read(record.page_id, record.slot)
        pos = self._attrs[record.cluster_key].index.get(key)
        return pos is not None and pos < len(payload) and payload[pos] is not _ABSENT

    def put_value(self, slice_id: Oid, key: str, value: object) -> None:
        """Write one attribute value into a slice.

        The slotted payload is updated in place — no per-write dict copy;
        aliasing is safe because :meth:`read_slice` hands out fresh dicts,
        never the stored list.  A read-modify-write of one slot is a single
        page access, so the page is fetched and charged once (as a write),
        not once per direction.
        """
        record = self._record(slice_id)
        payload = self._pages.modify(record.page_id, record.slot)
        pos = self._attrs[record.cluster_key].intern(key)
        if pos >= len(payload):
            payload.extend([_ABSENT] * (pos + 1 - len(payload)))
        if self.journal is not None:
            self.journal.append((_set_slot, payload, pos, payload[pos]))
        payload[pos] = value

    def remove_value(self, slice_id: Oid, key: str) -> None:
        """Delete one attribute value from a slice (no-op if absent)."""
        record = self._record(slice_id)
        payload = self._pages.read(record.page_id, record.slot)
        pos = self._attrs[record.cluster_key].index.get(key)
        if pos is None or pos >= len(payload):
            return
        if self.journal is not None:
            self.journal.append((_set_slot, payload, pos, payload[pos]))
        payload[pos] = _ABSENT
        self._pages.write(record.page_id, record.slot, payload)

    def drop_slice(self, slice_id: Oid) -> None:
        """Destroy a slice and free its slot."""
        with self._mutex:
            record = self._record(slice_id)
            payload = self._pages.delete(record.page_id, record.slot)
            del self._slices[slice_id]
            bucket = self._by_key.get(record.cluster_key)
            index = None
            if bucket is not None:
                try:
                    index = bucket.index(slice_id)
                    del bucket[index]
                except ValueError:
                    pass
            if self.journal is not None:
                # the payload list itself, not a copy: nothing reaches it
                # once the slot is freed, and putting the same list back
                # keeps older entries that point into it valid
                self.journal.append((self._undo_drop, record, payload, index))

    def _undo_drop(
        self, record: SliceRecord, payload: list, index: Optional[int]
    ) -> None:
        self._pages.put_back(record.page_id, record.slot, payload)
        self._slices[record.slice_id] = record
        if index is not None:
            self._by_key[record.cluster_key].insert(index, record.slice_id)

    def slice_ids(self) -> Dict[int, Oid]:
        """Every live slice id, keyed by its value (a loader links objects
        to these instead of minting equal OIDs)."""
        return {slice_id.value: slice_id for slice_id in self._slices}

    def slice_exists(self, slice_id: Oid) -> bool:
        return slice_id in self._slices

    def cluster_key_of(self, slice_id: Oid) -> str:
        return self._record(slice_id).cluster_key

    # -- scans ------------------------------------------------------------------

    def scan_cluster(self, cluster_key: str) -> Iterator[Tuple[Oid, dict]]:
        """Iterate ``(slice_id, values)`` over all slices of a cluster.

        Reads are charged through the page manager, so a scan over a densely
        clustered class costs roughly ``ceil(n / slots_per_page)`` page reads
        — the behaviour Table 1 credits to the object-slicing architecture.
        """
        for slice_id in list(self._by_key.get(cluster_key, ())):
            yield slice_id, self.read_slice(slice_id)

    def cluster_sizes(self) -> Dict[str, int]:
        """Live slice count per cluster key."""
        return {key: len(ids) for key, ids in self._by_key.items() if ids}

    # -- statistics ----------------------------------------------------------------

    @property
    def stats(self):
        """Page-level access statistics (reads/writes/hits/pages)."""
        return self._pages.stats

    def reset_stats(self) -> None:
        self._pages.stats.reset()

    def drop_cache(self) -> None:
        self._pages.drop_cache()

    @property
    def live_slice_count(self) -> int:
        return len(self._slices)

    # -- savepoint journal -------------------------------------------------------

    def memento(self) -> int:
        """Mark the undo journal the store and the instance pool share
        (savepoint entry), opening it when none is, and journal the OID
        allocator's position: undoing past the mark reissues the OIDs
        allocated after it, like the rolled-back state that used them."""
        journal = self.journal
        if journal is None:
            journal = self.journal = UndoJournal()
        mark = len(journal)
        oids = self._oids
        journal.append((oids.rewind, oids.position()))
        return mark

    def restore(self, mark: int) -> None:
        """Undo every journaled store and pool write made after ``mark``
        (savepoint abort), under the slice-table mutex."""
        with self._mutex:
            self.journal.undo_to(mark)

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Return a JSON-serialisable image of every live slice (DESIGN
        §10, format 2): one ``{"key", "names", "rows"}`` entry per cluster
        with slices, sorted by key, and one ``[slice_id, values]`` row per
        slice in OID order.  ``names`` are the attributes some slice of the
        cluster holds a value for, sorted, and ``values`` lines up with
        them, absent and OID slots tagged (see :func:`_encode_slot`).  The
        order in which a table interned its names, and names a rolled-back
        write left in it, do not reach the image, so equal contents give
        equal images.  Values must be JSON-representable."""
        clusters = []
        for key in sorted(self._by_key):
            ids = sorted(self._by_key[key], key=_OID_VALUE)
            if not ids:
                continue
            records = [self._slices[slice_id] for slice_id in ids]
            payloads = self._pages.scan(
                [(record.page_id, record.slot) for record in records]
            )
            names = self._attrs[key].names
            # one tuple per interned position, a payload shorter than the
            # table being absent past its end
            columns = list(zip_longest(*payloads, fillvalue=_ABSENT))
            held = [
                pos
                for pos, column in enumerate(columns)
                if column.count(_ABSENT) < len(column)
            ]
            held.sort(key=names.__getitem__)
            encoded = [list(map(_encode_slot, columns[pos])) for pos in held]
            # back to one list per slice (none to transpose when no slice
            # of the cluster holds a value)
            values = map(list, zip(*encoded)) if encoded else ([] for _ in ids)
            clusters.append(
                {
                    "key": key,
                    "names": [names[pos] for pos in held],
                    "rows": [
                        [slice_id.value, row] for slice_id, row in zip(ids, values)
                    ],
                }
            )
        return {"oids": self._oids.snapshot(), "clusters": clusters}

    def dump_state(self) -> dict:
        return {"store": self.snapshot()}

    def load_state(self, body: dict, methods=None) -> None:
        """Fill this empty store."""
        state = body["store"]
        self._oids = OidAllocator.from_snapshot(state["oids"])
        for cluster in state["clusters"]:
            key = cluster["key"]
            table = self._table(key)
            for name in cluster["names"]:
                table.intern(name)
            bucket = self._by_key[key] = []
            for value, payload in cluster["rows"]:
                slice_id = Oid(value)
                payload = list(map(_decode_slot, payload))
                page_id, slot = self._pages.place(key, payload)
                self._slices[slice_id] = SliceRecord(slice_id, key, page_id, slot)
                bucket.append(slice_id)


_OID_VALUE = attrgetter("value")


def _encode_slot(value: object) -> object:
    """JSON form of one slot: an absent slot and an OID are tagged."""
    if value is _ABSENT:
        return {"__absent__": 1}
    if type(value) is Oid:
        return {"__oid__": value.value}
    return value


def _decode_slot(value: object) -> object:
    """Inverse of :func:`_encode_slot`."""
    if type(value) is dict and len(value) == 1:
        if "__absent__" in value:
            return _ABSENT
        if "__oid__" in value:
            return Oid(value["__oid__"])
    return value
