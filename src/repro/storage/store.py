"""The object store: slices, clustering, and snapshots.

This is our stand-in for GemStone 3.2 (section 5 of the paper).  TSE needs
from its platform exactly four things, all provided here:

* **OID allocation** for conceptual and implementation objects;
* **persistent slice storage** — a *slice* is the per-class chunk of state
  that the object-slicing architecture attaches to a conceptual object;
* **clustering** of same-class slices onto shared pages, with page-level
  access accounting so Table 1's cost model can be measured;
* **snapshots** of every live slice, from which savepoints, checkpoints and
  ``repro.persistence`` save and reload a database.

The store knows nothing about schemas or views; it stores flat slotted
payloads keyed by slice id — attribute names are interned once per cluster
(class) in an :class:`AttributeTable` and each slice is a plain list indexed
by interned position.  The external interface still speaks dictionaries
(``read_slice``/``create_slice``/snapshots), so higher layers
(``repro.objectmodel``) and the persistence format are unchanged.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import SliceNotFound, StorageError
from repro.storage.oid import Oid, OidAllocator
from repro.storage.pages import DEFAULT_CACHE_PAGES, DEFAULT_SLOTS_PER_PAGE, PageManager


#: slot marker for "attribute not present in this slice" — distinguishes a
#: stored ``None`` from an absent value in slotted payloads
_ABSENT = object()


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
    slice never renumbers survivors.
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
        #: guards slice-table bookkeeping (create/drop) and the snapshot
        #: restore swap; value reads go straight to the page manager — the
        #: session layer's epoch snapshots isolate readers from writers
        self._mutex = threading.RLock()

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
        return slice_id

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
            # one attribute hop per structure instead of binding the dicts:
            # restore_snapshot swaps _slices/_pages/_attrs wholesale, and a
            # reader must follow the swap (savepoint rollbacks depend on it)
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
        payload[pos] = value

    def remove_value(self, slice_id: Oid, key: str) -> None:
        """Delete one attribute value from a slice (no-op if absent)."""
        record = self._record(slice_id)
        payload = self._pages.read(record.page_id, record.slot)
        pos = self._attrs[record.cluster_key].index.get(key)
        if pos is None or pos >= len(payload):
            return
        payload[pos] = _ABSENT
        self._pages.write(record.page_id, record.slot, payload)

    def drop_slice(self, slice_id: Oid) -> None:
        """Destroy a slice and free its slot."""
        with self._mutex:
            record = self._record(slice_id)
            self._pages.delete(record.page_id, record.slot)
            del self._slices[slice_id]
            bucket = self._by_key.get(record.cluster_key)
            if bucket is not None:
                try:
                    bucket.remove(slice_id)
                except ValueError:
                    pass

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

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Return a JSON-serialisable snapshot of all live slices.

        Only JSON-representable attribute values survive a snapshot; this is
        adequate for the workloads in this repository (numbers, strings,
        OID references stored as ints).
        """
        slices = []
        for slice_id, record in sorted(self._slices.items()):
            payload = self._pages.read(record.page_id, record.slot)
            names = self._attrs[record.cluster_key].names
            values = {
                names[pos]: value
                for pos, value in enumerate(payload)
                if value is not _ABSENT
            }
            slices.append(
                {
                    "slice_id": slice_id.value,
                    "cluster_key": record.cluster_key,
                    "values": _encode_values(values),
                }
            )
        return {"oids": self._oids.snapshot(), "slices": slices}

    @classmethod
    def from_snapshot(
        cls,
        state: dict,
        slots_per_page: int = DEFAULT_SLOTS_PER_PAGE,
        cache_pages: int = DEFAULT_CACHE_PAGES,
    ) -> "ObjectStore":
        """Rebuild a store from :meth:`snapshot` output."""
        store = cls(slots_per_page=slots_per_page, cache_pages=cache_pages)
        store._oids = OidAllocator.from_snapshot(state["oids"])
        for entry in state["slices"]:
            slice_id = Oid(int(entry["slice_id"]))
            key = entry["cluster_key"]
            values = _decode_values(entry["values"])
            table = store._table(key)
            payload: List[object] = []
            for name, value in values.items():
                pos = table.intern(name)
                if pos >= len(payload):
                    payload.extend([_ABSENT] * (pos + 1 - len(payload)))
                payload[pos] = value
            page_id, slot = store._pages.place(key, payload)
            store._slices[slice_id] = SliceRecord(slice_id, key, page_id, slot)
            store._by_key.setdefault(key, []).append(slice_id)
        return store

    def restore_snapshot(self, state: dict) -> None:
        """Restore the store *in place* from :meth:`snapshot` output.

        In-place restoration keeps every component that holds a reference to
        this store (pool, indexes) valid — the foundation of
        database-level savepoints.
        """
        fresh = ObjectStore.from_snapshot(state)
        # swap all four structures in one critical section so a concurrent
        # slice create/drop never interleaves with a half-restored store
        with self._mutex:
            self._oids = fresh._oids
            self._pages = fresh._pages
            self._slices = fresh._slices
            self._by_key = fresh._by_key
            self._attrs = fresh._attrs


def _encode_values(payload: dict) -> dict:
    """Encode a slice payload for JSON, tagging OID-valued attributes."""
    encoded = {}
    for key, value in payload.items():
        if isinstance(value, Oid):
            encoded[key] = {"__oid__": value.value}
        else:
            encoded[key] = value
    return encoded


def _decode_values(payload: dict) -> dict:
    """Inverse of :func:`_encode_values`."""
    decoded = {}
    for key, value in payload.items():
        if isinstance(value, dict) and set(value) == {"__oid__"}:
            decoded[key] = Oid(int(value["__oid__"]))
        else:
            decoded[key] = value
    return decoded
