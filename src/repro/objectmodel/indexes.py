"""Hash indexes over stored attributes.

OODBs — GemStone included — maintain attribute indexes to avoid full extent
scans.  Our indexes live at the *storage class* level: an index on
``(storage_class, attribute)`` covers every object carrying a slice of that
class, which is exactly the set of objects that can have the value.  Query
layers intersect index hits with the queried class's extent, so one index
serves a base class, all its subclasses and every extent-preserving virtual
class that shares the storage definition (a capacity-augmenting refine's
attribute gets indexed at the refine class).

Maintenance is event-driven: the instance pool publishes value writes and
object destruction; the manager keeps the buckets exact, and backfills them
anew when a savepoint rollback resets the pool.  Savepoints and bodies carry
the index definitions only.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.errors import ObjectModelError
from repro.objectmodel.slicing import InstancePool, PoolDelta
from repro.storage.oid import Oid


class _Unset:
    """Sentinel for 'attribute has no value' (distinct from ``None``)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<unset>"


UNSET = _Unset()


@dataclass
class HashIndex:
    """One exact-match index on ``(storage_class, attribute)``."""

    storage_class: str
    attribute: str
    _buckets: Dict[object, Set[Oid]] = field(default_factory=lambda: defaultdict(set))
    _known: Dict[Oid, object] = field(default_factory=dict)
    lookups: int = 0

    @staticmethod
    def _key(value: object) -> object:
        try:
            hash(value)
        except TypeError:
            return repr(value)
        return value

    def put(self, oid: Oid, value: object) -> None:
        previous = self._known.get(oid, UNSET)
        if previous is not UNSET:
            self._buckets[self._key(previous)].discard(oid)
        self._known[oid] = value
        self._buckets[self._key(value)].add(oid)

    def drop(self, oid: Oid) -> None:
        previous = self._known.pop(oid, UNSET)
        if previous is not UNSET:
            self._buckets[self._key(previous)].discard(oid)

    def lookup(self, value: object) -> FrozenSet[Oid]:
        self.lookups += 1
        return frozenset(self._buckets.get(self._key(value), ()))

    @property
    def entry_count(self) -> int:
        return len(self._known)


class IndexManager:
    """Creates indexes and keeps them exact via pool events."""

    def __init__(self, pool: InstancePool) -> None:
        self.pool = pool
        self._indexes: Dict[Tuple[str, str], HashIndex] = {}
        pool.add_value_listener(self._on_value)
        pool.add_destroy_listener(self._on_destroy)
        pool.add_slice_drop_listener(self._on_membership_drop)
        pool.add_delta_listener(self._on_delta)

    # -- lifecycle ------------------------------------------------------------

    def create_index(self, storage_class: str, attribute: str) -> HashIndex:
        """Create (or return the existing) index, backfilled from live data."""
        key = (storage_class, attribute)
        existing = self._indexes.get(key)
        if existing is not None:
            return existing
        index = HashIndex(storage_class, attribute)
        for obj in self.pool.objects():
            impl = obj.implementations.get(storage_class)
            if impl is not None and self.pool.store.has_value(
                impl.slice_id, attribute
            ):
                index.put(obj.oid, self.pool.store.get_value(impl.slice_id, attribute))
        self._indexes[key] = index
        return index

    def drop_index(self, storage_class: str, attribute: str) -> None:
        try:
            del self._indexes[(storage_class, attribute)]
        except KeyError:
            raise ObjectModelError(
                f"no index on {storage_class!r}.{attribute!r}"
            ) from None

    def get(self, storage_class: str, attribute: str) -> Optional[HashIndex]:
        return self._indexes.get((storage_class, attribute))

    def index_names(self) -> Iterable[Tuple[str, str]]:
        return sorted(self._indexes)

    # -- savepoints and the body section ------------------------------------

    def memento(self) -> list:
        return list(self._indexes)

    def restore(self, keys) -> None:
        # left empty: the pool's rollback, which follows, backfills them
        self._indexes = {key: HashIndex(*key) for key in keys}

    def dump_state(self) -> dict:
        return {"indexes": [list(key) for key in self.index_names()]}

    def load_state(self, body: dict, methods=None) -> None:
        for storage_class, attribute in body["indexes"]:
            self.create_index(storage_class, attribute)

    # -- event maintenance -----------------------------------------------------

    def _on_delta(self, delta: PoolDelta) -> None:
        if delta.kind == "reset":  # a savepoint rollback moved the pool
            for key in self.memento():
                del self._indexes[key]
                self.create_index(*key)

    def _on_value(self, oid: Oid, storage_class: str, attribute: str, value: object) -> None:
        index = self._indexes.get((storage_class, attribute))
        if index is not None:
            index.put(oid, value)

    def _on_destroy(self, oid: Oid) -> None:
        for index in self._indexes.values():
            index.drop(oid)

    def _on_membership_drop(self, oid: Oid, storage_class: str) -> None:
        for (cls, _attr), index in self._indexes.items():
            if cls == storage_class:
                index.drop(oid)
