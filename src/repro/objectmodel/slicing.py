"""The object-slicing object model (section 4 of the paper).

One logical object is represented as a *conceptual object* — a bare OID plus
membership bookkeeping — linked to one *implementation object* per class that
stores attributes for it.  This gives the two capabilities capacity-
augmenting views need (section 2.3):

* **multiple classification** — an object is simultaneously a member of every
  class it has (or could lazily have) a slice for;
* **dynamic restructuring** — giving every instance of ``Car`` a new stored
  attribute (via a capacity-augmenting refine class) requires no rewrite of
  existing storage: a new implementation object per car is created, lazily,
  the first time the new attribute is touched.

Slices live in the :class:`~repro.storage.store.ObjectStore`, clustered by
their class, so the page-level cost claims of Table 1 are observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Container, Dict, FrozenSet, Iterable, ItemsView, Iterator, Optional, Set

from repro.errors import InvalidCast, NotAMember, ObjectNotFound
from repro.storage.oid import OID_SIZE_BYTES, POINTER_SIZE_BYTES, Oid
from repro.storage.store import ObjectStore

#: distinguishes "attribute never written" from a stored ``None`` so
#: :meth:`InstancePool.get_value` costs one page read instead of two
_MISSING = object()

_OID_VALUE = attrgetter("oid.value")


@dataclass(frozen=True, slots=True)
class PoolDelta:
    """One typed change event emitted to delta listeners.

    Kinds and their populated fields:

    ==================  ==========================================
    ``add_membership``     ``oid``, ``class_name``
    ``remove_membership``  ``oid``, ``class_name``
    ``set_value``          ``oid``, ``class_name`` (storage class), ``attr``
    ``remove_value``       ``oid``, ``class_name`` (storage class), ``attr``
    ``destroy``            ``oid``
    ``reset``              (none — a savepoint rollback undid writes)
    ==================  ==========================================

    Incremental extent maintenance consumes these to apply ``±{oid}``
    through the derivation DAG instead of recomputing extents wholesale.
    """

    kind: str
    oid: Optional[Oid] = None
    class_name: Optional[str] = None
    attr: Optional[str] = None


@dataclass(slots=True)
class ImplementationObject:
    """One class-specific slice of a conceptual object.

    Carries its own OID (Table 1: ``#oids = 1 + N_impl``), the class whose
    locally-introduced stored attributes it holds, and the two pointers that
    link it with its conceptual object (``2 * N_impl`` pointers of managerial
    storage per object).
    """

    oid: Oid
    class_name: str
    conceptual_oid: Oid
    slice_id: Oid


class ConceptualObject:
    """The identity-bearing half of a sliced object.

    ``__slots__`` because the pool holds one of these per live object and
    the hot paths (value reads, membership checks) chase through them — a
    slotted layout removes the per-instance ``__dict__`` both in memory and
    in attribute-lookup indirection.
    """

    __slots__ = ("oid", "direct_classes", "implementations", "current_class")

    def __init__(self, oid: Oid) -> None:
        self.oid = oid
        #: base classes the object is a *direct* member of
        self.direct_classes: Set[str] = set()
        #: storage class name -> implementation object
        self.implementations: Dict[str, ImplementationObject] = {}
        #: the class currently representing the object (casting, Table 1)
        self.current_class: Optional[str] = None

    @property
    def n_impl(self) -> int:
        """Number of implementation objects (``N_impl`` in Table 1)."""
        return len(self.implementations)

    def managerial_storage_bytes(self) -> int:
        """Table 1 formula: ``(1 + N_impl) * sizeOf(oid) + N_impl * 2 *
        sizeOf(pointer)``."""
        return (1 + self.n_impl) * OID_SIZE_BYTES + self.n_impl * 2 * POINTER_SIZE_BYTES

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<object {self.oid} in {sorted(self.direct_classes)}>"


class InstancePool:
    """Creates, classifies and destroys sliced objects over an object store.

    The pool is schema-agnostic: membership is tracked by class *name* and
    slices by storage-class *name*.  The schema layer decides which classes
    exist and where each attribute is stored; the pool just keeps the slices.
    """

    #: the open savepoint's :class:`~repro.storage.store.UndoJournal` (the
    #: store's), or ``None`` outside a savepoint; every write to
    #: ``_objects``, ``_members_direct`` and a conceptual object's fields
    #: journals its inverse while one is open
    journal = property(attrgetter("store.journal"))

    def __init__(self, store: ObjectStore) -> None:
        self.store = store
        self._objects: Dict[Oid, ConceptualObject] = {}
        self._members_direct: Dict[str, Set[Oid]] = {}
        self._generation = 0
        #: callbacks fired on value writes: (oid, storage_class, attr, value)
        self._value_listeners: list = []
        #: callbacks fired when an object is destroyed: (oid,)
        self._destroy_listeners: list = []
        #: callbacks fired when a slice is dropped: (oid, storage_class)
        self._slice_drop_listeners: list = []
        #: callbacks fired with a :class:`PoolDelta` on every mutation
        self._delta_listeners: list = []
        #: optional :class:`~repro.concurrency.migration.MigrationEngine`;
        #: when set, every leaf mutator asks it to seal affected pending
        #: epoch extents *before* the pool state changes (lazy migration)
        self.migration = None

    def add_value_listener(self, callback) -> None:
        """Subscribe to attribute writes (index maintenance hook)."""
        self._value_listeners.append(callback)

    def add_delta_listener(self, callback) -> None:
        """Subscribe to typed :class:`PoolDelta` events (extent maintenance).

        Deltas fire *after* the pool state reflects the change, so a
        listener re-reading the pool observes the post-state.
        """
        self._delta_listeners.append(callback)

    def _emit(self, delta: PoolDelta) -> None:
        for listener in self._delta_listeners:
            listener(delta)

    def add_destroy_listener(self, callback) -> None:
        """Subscribe to object destruction (index maintenance hook)."""
        self._destroy_listeners.append(callback)

    def add_slice_drop_listener(self, callback) -> None:
        """Subscribe to per-class slice drops (index maintenance hook)."""
        self._slice_drop_listeners.append(callback)

    @property
    def generation(self) -> int:
        """Monotone counter bumped on membership changes (extent caching)."""
        return self._generation

    def _dirty(self) -> None:
        self._generation += 1

    # -- lifecycle ------------------------------------------------------------

    def create_object(self, direct_classes: Iterable[str]) -> ConceptualObject:
        """Create a conceptual object that is a direct member of each class."""
        direct_classes = tuple(direct_classes)
        mig = self.migration
        sealed = mig is not None and mig.begin_mutation(
            "membership", class_names=direct_classes
        )
        try:
            oid = self.store.allocate_oid()
            obj = ConceptualObject(oid)
            self._objects[oid] = obj
            if self.journal is not None:
                self.journal.append((self._objects.pop, oid))
            for name in direct_classes:
                self._add_direct(obj, name)
            self._dirty()
            for name in obj.direct_classes:
                self._emit(PoolDelta("add_membership", oid=oid, class_name=name))
            return obj
        finally:
            if sealed:
                mig.end_mutation()

    def destroy_object(self, oid: Oid) -> None:
        """Destroy an object: all slices dropped, all memberships removed.

        This is the semantics of the generic ``delete`` operator — the object
        is "removed from all the classes which they belong to" (section 3.3).
        """
        obj = self.get(oid)
        mig = self.migration
        sealed = mig is not None and mig.begin_mutation("destroy", oid=oid)
        try:
            for impl in obj.implementations.values():
                self.store.drop_slice(impl.slice_id)
            for name in list(obj.direct_classes):
                self._discard_direct(oid, name)
            del self._objects[oid]
            if self.journal is not None:
                self.journal.append((self._objects.__setitem__, oid, obj))
            self._dirty()
            for listener in self._destroy_listeners:
                listener(oid)
            self._emit(PoolDelta("destroy", oid=oid))
        finally:
            if sealed:
                mig.end_mutation()

    def get(self, oid: Oid) -> ConceptualObject:
        try:
            return self._objects[oid]
        except KeyError:
            raise ObjectNotFound(f"no live object with {oid}") from None

    def exists(self, oid: Oid) -> bool:
        return oid in self._objects

    def all_oids(self) -> FrozenSet[Oid]:
        return frozenset(self._objects)

    def objects(self) -> Iterator[ConceptualObject]:
        return iter(self._objects.values())

    @property
    def object_count(self) -> int:
        return len(self._objects)

    # -- membership (multiple & dynamic classification) -------------------------

    def _add_direct(self, obj: ConceptualObject, class_name: str) -> None:
        if self.journal is not None and class_name not in obj.direct_classes:
            self.journal.append((self._undo_add_direct, obj, class_name))
        obj.direct_classes.add(class_name)
        self._members_direct.setdefault(class_name, set()).add(obj.oid)

    def _undo_add_direct(self, obj: ConceptualObject, class_name: str) -> None:
        # undo entries never journal, so this cannot reuse _discard_direct
        obj.direct_classes.discard(class_name)
        bucket = self._members_direct[class_name]
        bucket.discard(obj.oid)
        if not bucket:
            del self._members_direct[class_name]

    def _discard_direct(self, oid: Oid, class_name: str) -> None:
        """Drop one direct membership, pruning the bucket when it empties so
        ``classes_with_members`` never iterates dead entries."""
        bucket = self._members_direct.get(class_name)
        if bucket is not None and oid in bucket:
            bucket.discard(oid)
            if not bucket:
                del self._members_direct[class_name]
            if self.journal is not None:
                self.journal.append((self._undo_discard_direct, oid, class_name))

    def _undo_discard_direct(self, oid: Oid, class_name: str) -> None:
        self._members_direct.setdefault(class_name, set()).add(oid)

    def add_membership(self, oid: Oid, class_name: str) -> None:
        """Make the object a direct member of another class (generic ``add``).

        With object slicing this is cheap: record membership; slices appear
        lazily when class-specific attributes are touched.
        """
        obj = self.get(oid)
        if class_name not in obj.direct_classes:
            mig = self.migration
            sealed = mig is not None and mig.begin_mutation(
                "membership", oid=oid, class_names=(class_name,)
            )
            try:
                self._add_direct(obj, class_name)
                self._dirty()
                self._emit(
                    PoolDelta("add_membership", oid=oid, class_name=class_name)
                )
            finally:
                if sealed:
                    mig.end_mutation()

    def remove_membership(
        self, oid: Oid, class_name: str, keep_slice: bool = False
    ) -> None:
        """Remove direct membership (generic ``remove``); drops the slice.

        ``keep_slice=True`` preserves the implementation slice: the caller
        (who knows the schema) has established that ``class_name`` is still
        an ancestor of one of the object's remaining memberships, so its
        stored attributes are still part of the object's type and must not
        be lost with the direct membership.
        """
        obj = self.get(oid)
        if class_name not in obj.direct_classes:
            raise NotAMember(f"{oid} is not a direct member of {class_name!r}")
        mig = self.migration
        sealed = mig is not None and mig.begin_mutation(
            "membership", oid=oid, class_names=(class_name,)
        )
        journal = self.journal
        try:
            obj.direct_classes.discard(class_name)
            if journal is not None:
                journal.append((obj.direct_classes.add, class_name))
            self._discard_direct(oid, class_name)
            if not keep_slice:
                self.drop_slice(oid, class_name)
            if obj.current_class == class_name:
                obj.current_class = None
                if journal is not None:
                    journal.append((setattr, obj, "current_class", class_name))
            self._dirty()
            self._emit(
                PoolDelta("remove_membership", oid=oid, class_name=class_name)
            )
        finally:
            if sealed:
                mig.end_mutation()

    def reclassify(self, oid: Oid, from_class: str, to_class: str) -> None:
        """Dynamic classification (Table 1): swap one membership for another.

        With slicing this is "creating and destroying implementation
        objects" — no value copying, no identity swap.
        """
        self.remove_membership(oid, from_class)
        self.add_membership(oid, to_class)

    def members_direct(self, class_name: str) -> FrozenSet[Oid]:
        return frozenset(self._members_direct.get(class_name, ()))

    def classes_with_members(self) -> FrozenSet[str]:
        # empty buckets are pruned eagerly, so the keys are exactly the
        # classes with at least one direct member
        return frozenset(self._members_direct)

    def direct_membership_items(self) -> ItemsView[str, Set[Oid]]:
        """Read-only view over ``(class_name, direct members)`` pairs.

        Exposed for extent evaluation, which unions many buckets per call;
        handing out the live sets avoids one frozenset copy per bucket.
        Callers must not mutate the sets.
        """
        return self._members_direct.items()

    # -- casting ----------------------------------------------------------------

    def cast(self, oid: Oid, class_name: str, member_of: Container[str]) -> None:
        """Cast the object to ``class_name`` (switch its representative
        implementation object).

        ``member_of`` is any container of classes the caller (who knows the
        schema) has established the object belongs to; casting outside it
        raises.
        """
        obj = self.get(oid)
        if class_name not in member_of:
            raise InvalidCast(f"{oid} is not a member of {class_name!r}")
        if self.journal is not None:
            self.journal.append((setattr, obj, "current_class", obj.current_class))
        obj.current_class = class_name

    # -- slices and values ----------------------------------------------------------

    def ensure_slice(self, oid: Oid, storage_class: str) -> ImplementationObject:
        """Return the implementation object for ``storage_class``, creating
        it lazily — the dynamic-restructuring move of section 4.1."""
        obj = self.get(oid)
        impl = obj.implementations.get(storage_class)
        if impl is None:
            slice_id = self.store.create_slice(storage_class)
            impl = ImplementationObject(
                oid=self.store.allocate_oid(),
                class_name=storage_class,
                conceptual_oid=oid,
                slice_id=slice_id,
            )
            obj.implementations[storage_class] = impl
            if self.journal is not None:
                self.journal.append((obj.implementations.pop, storage_class))
        return impl

    def drop_slice(self, oid: Oid, storage_class: str) -> None:
        """Drop the object's slice for ``storage_class``, if it has one,
        keeping its memberships."""
        obj = self.get(oid)
        impl = obj.implementations.pop(storage_class, None)
        if impl is not None:
            if self.journal is not None:
                self.journal.append(
                    (obj.implementations.__setitem__, storage_class, impl)
                )
            self.store.drop_slice(impl.slice_id)
            for listener in self._slice_drop_listeners:
                listener(oid, storage_class)

    def get_value(
        self, oid: Oid, storage_class: str, attr: str, default: object = None
    ) -> object:
        """Read one stored attribute from the object's slice for the class.

        A missing slice means the attribute was never written: the default
        applies without materialising the slice (reads stay cheap even right
        after a capacity-augmenting refine over a huge extent).
        """
        obj = self.get(oid)
        impl = obj.implementations.get(storage_class)
        if impl is None:
            return default
        value = self.store.get_value(impl.slice_id, attr, _MISSING)
        return default if value is _MISSING else value

    def value_reader(self, storage_class: str, attr: str, default: object = None):
        """A pre-bound reader ``fn(oid) -> value``, equivalent to
        :meth:`get_value` with the same arguments but with the object table
        and the store-side column reader resolved once.  Built by the extent
        evaluator's plans so select scans read attribute values without any
        per-object setup."""
        slice_read = self.store.value_reader(storage_class, attr, default)

        def read(oid: Oid, _pool=self) -> object:
            # the object table is resolved through the pool per call,
            # exactly as get(); savepoint undo mutates it in place
            try:
                obj = _pool._objects[oid]
            except KeyError:
                raise ObjectNotFound(f"no live object with {oid}") from None
            impl = obj.implementations.get(storage_class)
            if impl is None:
                return default
            return slice_read(impl.slice_id)

        return read

    def has_value(self, oid: Oid, storage_class: str, attr: str) -> bool:
        obj = self.get(oid)
        impl = obj.implementations.get(storage_class)
        return impl is not None and self.store.has_value(impl.slice_id, attr)

    def set_value(self, oid: Oid, storage_class: str, attr: str, value: object) -> None:
        """Write one stored attribute into the slice, creating it on demand.

        Value writes bump the pool generation because select-class extents
        depend on attribute values, not only on memberships.
        """
        mig = self.migration
        sealed = mig is not None and mig.begin_mutation(
            "value", oid=oid, class_names=(storage_class,), attr=attr
        )
        try:
            impl = self.ensure_slice(oid, storage_class)
            self.store.put_value(impl.slice_id, attr, value)
            self._dirty()
            for listener in self._value_listeners:
                listener(oid, storage_class, attr, value)
            self._emit(
                PoolDelta("set_value", oid=oid, class_name=storage_class, attr=attr)
            )
        finally:
            if sealed:
                mig.end_mutation()

    def remove_value(self, oid: Oid, storage_class: str, attr: str) -> None:
        """Erase one stored attribute (used by update rollback)."""
        obj = self.get(oid)
        impl = obj.implementations.get(storage_class)
        if impl is not None:
            mig = self.migration
            sealed = mig is not None and mig.begin_mutation(
                "value", oid=oid, class_names=(storage_class,), attr=attr
            )
            try:
                self.store.remove_value(impl.slice_id, attr)
                self._dirty()
                self._emit(
                    PoolDelta(
                        "remove_value", oid=oid, class_name=storage_class, attr=attr
                    )
                )
            finally:
                if sealed:
                    mig.end_mutation()

    # -- savepoint marks ------------------------------------------------------

    def memento(self) -> int:
        """Mark the undo journal (savepoint entry), the store's, opening it
        when none is; :meth:`restore` with the mark undoes every store and
        pool write made after it.  O(1) whatever the pool's size."""
        if self.journal is None:
            self.store.memento()
        return len(self.journal)

    def restore(self, mark: int) -> None:
        """Roll memberships, slice links and slices back to a
        :meth:`memento` mark by undoing the journal newest-first.

        The undo can move any extent, so pending epoch captures are all
        sealed first — with publish-time values: the restore target is the
        savepoint entry state, and any class a mid-savepoint mutation
        touched was already sealed by that mutation's own hook.
        """
        mig = self.migration
        sealed = mig is not None and mig.begin_mutation("reset")
        try:
            self.store.restore(mark)
            self._dirty()
            self._emit(PoolDelta("reset"))
        finally:
            if sealed:
                mig.end_mutation()

    # -- body section -------------------------------------------------------------

    def dump_state(self) -> dict:
        """One row per object, in OID order: ``[oid, direct classes,
        current class, [[class, impl oid, slice id], ...]]``."""
        return {
            "objects": [
                [
                    obj.oid.value,
                    sorted(obj.direct_classes),
                    obj.current_class,
                    [
                        [name, impl.oid.value, impl.slice_id.value]
                        for name, impl in sorted(obj.implementations.items())
                    ],
                ]
                for obj in sorted(self._objects.values(), key=_OID_VALUE)
            ]
        }

    def load_state(self, body: dict, methods=None) -> None:
        """Fill this empty pool; the store is loaded before it."""
        slice_ids = self.store.slice_ids()
        for value, direct, current, implementations in body["objects"]:
            oid = Oid(value)
            obj = self._objects[oid] = ConceptualObject(oid)
            obj.direct_classes = set(direct)
            obj.current_class = current
            for name, impl_oid, slice_id in implementations:
                obj.implementations[name] = ImplementationObject(
                    Oid(impl_oid), name, oid, slice_ids[slice_id]
                )
            for name in direct:
                self._members_direct.setdefault(name, set()).add(oid)
        self._dirty()

    # -- statistics for Table 1 ---------------------------------------------------

    def total_oids_used(self) -> int:
        """OIDs consumed by conceptual plus implementation objects."""
        return sum(1 + obj.n_impl for obj in self._objects.values())

    def total_managerial_bytes(self) -> int:
        return sum(obj.managerial_storage_bytes() for obj in self._objects.values())

    def average_n_impl(self) -> float:
        if not self._objects:
            return 0.0
        return sum(obj.n_impl for obj in self._objects.values()) / len(self._objects)
