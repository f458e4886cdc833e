"""User-facing handles: views, view classes and objects.

Transparency (section 2.3) is delivered here: a :class:`ViewHandle` stores
only the view's *name* and resolves the current version through the View
Schema History on every access.  When the TSE Manager substitutes a new
version, every existing handle silently starts answering through it — the
user "should not be able to distinguish between this virtual schema change
and the direct schema modification".

All three handle kinds speak *view* vocabulary: view class names and
view-visible property names; translation to global names happens internally.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import NotAMember, UnknownProperty
from repro.algebra import compiler as compilermod
from repro.algebra.expressions import Predicate
from repro.schema.extents import read_attribute, read_path
from repro.schema.properties import Attribute, Method
from repro.schema import types as typemod
from repro.schema.types import Ambiguity
from repro.storage.oid import Oid
from repro.views.schema import ViewSchema

#: sort key for OID sequences — same order as ``Oid.__lt__`` but dispatched
#: at C level (the Python-level rich comparison dominates dump profiles)
_OID_VALUE = attrgetter("value")


def _latched_read(db, resolve):
    """Run ``resolve()`` under the schema latch's read side when the
    database has a session layer attached; plain call otherwise.

    Live handles resolve schema/extent state per access; once threads are
    in play (``db.sessions()``), the latch guarantees the resolution never
    interleaves with a half-applied schema change.  The write-holding
    thread re-enters the read side, so the pipeline's own handle use is
    deadlock-free.  Session-less databases skip even the attribute test's
    cost of a context manager.
    """
    sessions = db._sessions
    if sessions is None:
        return resolve()
    with sessions.latch.read():
        return resolve()


def _view_schema(db, view_name: str, pinned_version: Optional[int]) -> ViewSchema:
    """The view version a handle answers through: the current one, or the
    pinned historical one."""
    if pinned_version is not None:
        return db.views.history.version(view_name, pinned_version)
    return db.views.current(view_name)


def _class_properties(db, view: ViewSchema, view_class: str, global_name: str):
    """A view class's properties in view vocabulary: ``(attributes,
    methods, columns)``, the sorted visible attribute and method names and
    ``(visible alias, column reader)`` per unambiguous attribute.

    The evaluator's plans walk the global class's type map once per schema
    generation (``ReaderPlans.properties``); this only applies the view's
    property renames, if the class has any."""
    plans = db.evaluator.plans
    attributes, methods, columns = plans.properties(global_name)
    if view_class not in view.property_renames:
        return list(attributes), list(methods), columns

    def alias(name: str) -> str:
        return view.property_alias(view_class, name)

    def reader(visible: str):
        return plans.oid_reader(global_name, view.visible_property(view_class, visible))

    visible = [alias(name) for name, _read in columns]
    return (
        sorted(map(alias, attributes)),
        sorted(map(alias, methods)),
        [(name, reader(name)) for name in visible],
    )


def _rows(oids: Iterable[Oid], columns) -> Dict[Oid, Dict[str, object]]:
    """Each object's values for ``columns`` (from :func:`_class_properties`)."""
    rows: Dict[Oid, Dict[str, object]] = {}
    for oid in oids:
        row = rows[oid] = {}
        for alias, read in columns:
            row[alias] = read(oid)
    return rows


class ViewHandle:
    """A user's live connection to a view.

    Unpinned (the default), the handle resolves the *current* version
    through the history on every access — that is the transparency
    mechanism.  Pinned to a version number, it keeps answering through that
    historical schema forever: the paper's old application that simply never
    upgrades.  Pinned handles still read and write the shared objects (old
    views stay updatable); only schema *evolution* requires the current
    version and is rejected on a pinned handle.
    """

    def __init__(
        self,
        database: "TseDatabase",
        view_name: str,
        pinned_version: Optional[int] = None,
    ) -> None:
        self._db = database
        self.view_name = view_name
        self.pinned_version = pinned_version

    # -- resolution ---------------------------------------------------------

    @property
    def schema(self) -> ViewSchema:
        """The current version (re-resolved on every access) or, for a
        pinned handle, the pinned historical version."""
        return _latched_read(
            self._db,
            lambda: _view_schema(self._db, self.view_name, self.pinned_version),
        )

    def pin(self, version: Optional[int] = None) -> "ViewHandle":
        """A handle pinned to ``version`` (default: the version current
        *now*), immune to future substitutions."""
        chosen = version if version is not None else self.schema.version
        self._db.views.history.version(self.view_name, chosen)  # validate
        return ViewHandle(self._db, self.view_name, pinned_version=chosen)

    def _require_unpinned(self) -> None:
        if self.pinned_version is not None:
            from repro.errors import StaleViewVersion

            raise StaleViewVersion(
                f"schema evolution requires the current version of "
                f"{self.view_name!r}; this handle is pinned to "
                f"v{self.pinned_version}"
            )

    @property
    def version(self) -> int:
        return self.schema.version

    def class_names(self) -> List[str]:
        return self.schema.class_names()

    def edges(self) -> List[tuple]:
        return self.schema.view_edges()

    def describe(self) -> str:
        return self.schema.describe()

    def dump(self) -> Dict[str, object]:
        """Every observable the view exposes, in one latched resolution.

        Returns ``{"version", "classes", "edges", "by_class"}`` where
        ``by_class`` maps each view class to its sorted attribute/method
        names, sorted extent, count, and per-object attribute values —
        exactly what the per-call accessors (:meth:`version`,
        :meth:`class_names`, :meth:`edges`,
        ``ViewClassHandle.attribute_names`` / ``method_names`` /
        ``extent_oids`` / ``count`` / ``dump_objects``) would answer, built
        from the same helpers but resolved against one consistent schema
        snapshot instead of re-resolving per call.  The differential
        harness sweeps every observable after every step; this keeps that
        sweep linear in the data instead of in the number of accessor
        calls.
        """
        db = self._db

        def resolve() -> Dict[str, object]:
            view = _view_schema(db, self.view_name, self.pinned_version)
            by_class: Dict[str, dict] = {}
            for view_class in view.class_names():
                global_name = view.global_name_of(view_class)
                attributes, methods, columns = _class_properties(
                    db, view, view_class, global_name
                )
                extent = sorted(db.evaluator.extent(global_name), key=_OID_VALUE)
                by_class[view_class] = {
                    "attributes": attributes,
                    "methods": methods,
                    "extent": extent,
                    "count": len(extent),
                    "objects": _rows(extent, columns),
                }
            return {
                "version": view.version,
                "classes": view.class_names(),
                "edges": view.view_edges(),
                "by_class": by_class,
            }

        return _latched_read(db, resolve)

    def __getitem__(self, view_class: str) -> "ViewClassHandle":
        self.schema.global_name_of(view_class)  # raises when unknown
        return ViewClassHandle(
            self._db, self.view_name, view_class, pinned_version=self.pinned_version
        )

    def __contains__(self, view_class: str) -> bool:
        return self.schema.has_class(view_class)

    # -- schema evolution (specified on the view, section 2.1) -----------------

    def add_attribute(
        self,
        name: str,
        to: str,
        domain: str = "any",
        required: bool = False,
        default: object = None,
    ) -> "ViewHandle":
        self._require_unpinned()
        prop = Attribute(
            name=name, domain=domain, required=required, default=default
        )
        self._db.tsem.add_attribute(self.view_name, prop, to)
        return self

    def delete_attribute(self, name: str, from_: str) -> "ViewHandle":
        self._require_unpinned()
        self._db.tsem.delete_attribute(self.view_name, name, from_)
        return self

    def add_method(self, name: str, to: str, body, doc: str = "") -> "ViewHandle":
        self._require_unpinned()
        prop = Method(name=name, body=body, doc=doc)
        self._db.tsem.add_method(self.view_name, prop, to)
        return self

    def delete_method(self, name: str, from_: str) -> "ViewHandle":
        self._require_unpinned()
        self._db.tsem.delete_method(self.view_name, name, from_)
        return self

    def add_edge(self, sup: str, sub: str) -> "ViewHandle":
        self._require_unpinned()
        self._db.tsem.add_edge(self.view_name, sup, sub)
        return self

    def delete_edge(
        self, sup: str, sub: str, connected_to: Optional[str] = None
    ) -> "ViewHandle":
        self._require_unpinned()
        self._db.tsem.delete_edge(self.view_name, sup, sub, connected_to)
        return self

    def add_class(self, name: str, connected_to: Optional[str] = None) -> "ViewHandle":
        self._require_unpinned()
        self._db.tsem.add_class(self.view_name, name, connected_to)
        return self

    def delete_class(self, name: str) -> "ViewHandle":
        self._require_unpinned()
        self._db.tsem.delete_class(self.view_name, name)
        return self

    def rename_class(self, old: str, new: str) -> "ViewHandle":
        """Rename a class *within this view* (the per-view renaming of
        section 7: "The user can of course rename them within the context
        of VS.3, if desired").

        The global class keeps its name; only this view's vocabulary
        changes, through a new view version.
        """
        from repro.errors import ChangeRejected

        self._require_unpinned()
        schema = self.schema
        if schema.has_class(new):
            raise ChangeRejected(
                f"rename rejected: view already has a class named {new!r}"
            )
        global_name = schema.global_name_of(old)  # raises when unknown
        selected, renames = schema.successor_parts()
        renames[global_name] = new
        property_renames = {
            (new if cls == old else cls): dict(per_cls)
            for cls, per_cls in schema.property_renames.items()
        }
        self._db.views.register_successor(
            self.view_name,
            selected,
            renames,
            property_renames,
            closure="ignore",
            provenance=f"rename_class {old} -> {new}",
        )
        if self._db.wal is not None:
            self._db.wal.record(
                "rename_class", {"view": self.view_name, "old": old, "new": new}
            )
        return self

    def rename_property(self, view_class: str, old: str, new: str) -> "ViewHandle":
        """Rename a property *within this view* (section 6.1.1's resolution
        of same-named property conflicts: "the user disambiguates the
        properties by renaming them").

        Purely a view-level aliasing: the underlying property, its storage
        and every other view are untouched; a successor view version is
        registered so the change is versioned like any other evolution.
        """
        from repro.errors import ChangeRejected

        self._require_unpinned()
        schema = self.schema
        cls = self[view_class]
        if new in cls.property_names():
            raise ChangeRejected(
                f"rename rejected: {view_class!r} already shows a property "
                f"named {new!r}"
            )
        underlying = schema.visible_property(view_class, old)
        # the old reference may be origin-qualified ("Origin:name"), which is
        # how an *ambiguous* property becomes addressable at all (§6.1.1)
        from repro.errors import AmbiguousProperty as _Ambiguous
        from repro.errors import UnknownProperty as _Unknown

        global_name = schema.global_name_of(view_class)
        try:
            typemod.resolve_qualified(
                self._db.schema.type_of(global_name),
                underlying,
                class_name=view_class,
            )
        except _Unknown as exc:
            raise ChangeRejected(f"rename rejected: {exc}") from exc
        except _Ambiguous as exc:
            raise ChangeRejected(
                f"rename rejected: {old!r} is ambiguous in {view_class!r}; "
                f"qualify it as 'Origin:{old}' to pick one definition"
            ) from exc

        property_renames = {
            name: dict(per_cls) for name, per_cls in schema.property_renames.items()
        }
        per_class = property_renames.setdefault(view_class, {})
        per_class.pop(old, None)
        per_class[new] = underlying
        selected, renames = schema.successor_parts()
        self._db.views.register_successor(
            self.view_name,
            selected,
            renames,
            property_renames,
            closure="ignore",
            provenance=f"rename_property {view_class}.{old} -> {new}",
        )
        if self._db.wal is not None:
            self._db.wal.record(
                "rename_property",
                {
                    "view": self.view_name,
                    "class": view_class,
                    "old": old,
                    "new": new,
                },
            )
        return self

    def insert_class(self, name: str, between: tuple) -> "ViewHandle":
        self._require_unpinned()
        from repro.core.macros import insert_class

        insert_class(self._db.tsem, self.view_name, name, between)
        return self

    def delete_class_2(self, name: str) -> "ViewHandle":
        self._require_unpinned()
        from repro.core.macros import delete_class_2

        delete_class_2(self._db.tsem, self.view_name, name)
        return self


class ViewClassHandle:
    """One class as seen through one view (optionally a pinned version)."""

    def __init__(
        self,
        database: "TseDatabase",
        view_name: str,
        view_class: str,
        pinned_version: Optional[int] = None,
    ) -> None:
        self._db = database
        self.view_name = view_name
        self.view_class = view_class
        self.pinned_version = pinned_version

    @property
    def schema(self) -> ViewSchema:
        return _latched_read(
            self._db,
            lambda: _view_schema(self._db, self.view_name, self.pinned_version),
        )

    @property
    def global_name(self) -> str:
        return self.schema.global_name_of(self.view_class)

    # -- type introspection ----------------------------------------------------

    def property_names(self) -> List[str]:
        """View-visible property names (aliases applied)."""
        view = self.schema
        names = []
        for underlying in self._db.schema.type_of(self.global_name):
            names.append(view.property_alias(self.view_class, underlying))
        return sorted(names)

    def _properties(self):
        """:func:`_class_properties` of this class, in one latched read."""

        def resolve():
            view = _view_schema(self._db, self.view_name, self.pinned_version)
            global_name = view.global_name_of(self.view_class)
            return _class_properties(self._db, view, self.view_class, global_name)

        return _latched_read(self._db, resolve)

    def attribute_names(self) -> List[str]:
        return self._properties()[0]

    def method_names(self) -> List[str]:
        return self._properties()[1]

    def _underlying(self, prop_name: str) -> str:
        return self.schema.visible_property(self.view_class, prop_name)

    # -- extent and queries --------------------------------------------------------

    def extent_oids(self) -> List[Oid]:
        return _latched_read(
            self._db,
            lambda: sorted(self._db.evaluator.extent(self.global_name), key=_OID_VALUE),
        )

    def extent(self) -> List["ObjectHandle"]:
        return [
            ObjectHandle(self._db, self.view_name, self.view_class, oid, pinned_version=self.pinned_version)
            for oid in self.extent_oids()
        ]

    def count(self) -> int:
        return _latched_read(
            self._db,
            lambda: len(self._db.evaluator.extent(self.global_name)),
        )

    def dump_objects(self) -> Dict[Oid, Dict[str, object]]:
        """Attribute values of every extent member, in one latched read.

        Equivalent to ``{oid: self.get_object(oid).values() for oid in
        self.extent_oids()}``, but the view, the type map, the alias
        translations, and the column readers are resolved once for the
        whole extent instead of once per object per attribute.
        """

        def resolve() -> Dict[Oid, Dict[str, object]]:
            view = _view_schema(self._db, self.view_name, self.pinned_version)
            global_name = view.global_name_of(self.view_class)
            columns = _class_properties(self._db, view, self.view_class, global_name)[2]
            return _rows(self._db.evaluator.extent(global_name), columns)

        return _latched_read(self._db, resolve)

    def select_where(self, predicate: Predicate) -> List["ObjectHandle"]:
        """Ad-hoc selection over the extent (no virtual class is created).

        An exact-match index on the predicate's attribute (see
        :meth:`TseDatabase.create_index`) narrows the candidate set before
        residual evaluation; otherwise the whole extent is scanned.
        """
        candidates = self._index_candidates(predicate)
        if candidates is None:
            candidates = self.extent_oids()
        else:
            extent = self._db.evaluator.extent(self.global_name)
            candidates = sorted(
                (oid for oid in candidates if oid in extent), key=_OID_VALUE
            )
        matched = []
        matches = compilermod.matcher(predicate)
        global_name = self.global_name
        make_reader = self._db.evaluator.plans.reader
        # predicates speak view vocabulary: translate each attribute's
        # leading segment through this view class's aliases, once
        translations: Dict[str, str] = {}

        def translate(attr_name: str) -> str:
            translated = translations.get(attr_name)
            if translated is None:
                head, dot, rest = attr_name.partition(".")
                translated = self._underlying(head) + (dot + rest if dot else "")
                translations[attr_name] = translated
            return translated

        for oid in candidates:
            raw_reader = make_reader(global_name, oid)

            def reader(attr_name: str, _raw=raw_reader):
                return _raw(translate(attr_name))

            if matches(reader):
                matched.append(
                    ObjectHandle(self._db, self.view_name, self.view_class, oid, pinned_version=self.pinned_version)
                )
        return matched

    def _index_candidates(self, predicate: Predicate):
        """Index hits when the predicate is (rooted in) an equality or
        membership test on an indexed attribute; ``None`` means no index
        applies."""
        from repro.algebra.expressions import And, Compare, IsIn

        if isinstance(predicate, And):
            left = self._index_candidates(predicate.left)
            if left is not None:
                return left
            return self._index_candidates(predicate.right)
        if isinstance(predicate, Compare) and predicate.op == "==":
            attribute, values = predicate.attribute, (predicate.value,)
        elif isinstance(predicate, IsIn):
            attribute, values = predicate.attribute, predicate.values
        else:
            return None
        if "." in attribute:
            return None
        underlying = self._underlying(attribute)
        type_map = self._db.schema.type_of(self.global_name)
        entry = type_map.get(underlying)
        if entry is None or isinstance(entry, Ambiguity) or entry.storage_class is None:
            return None
        index = self._db.indexes.get(entry.storage_class, underlying)
        if index is None:
            return None
        hits = set()
        for value in values:
            hits |= index.lookup(value)
        return frozenset(hits)

    def get_object(self, oid: Oid) -> "ObjectHandle":
        if oid not in self._db.evaluator.extent(self.global_name):
            raise NotAMember(f"{oid} is not a member of {self.view_class!r}")
        return ObjectHandle(self._db, self.view_name, self.view_class, oid, pinned_version=self.pinned_version)

    # -- query helpers ---------------------------------------------------------

    def order_by(
        self,
        prop_name: str,
        descending: bool = False,
        predicate: Optional[Predicate] = None,
    ) -> List["ObjectHandle"]:
        """The extent (optionally filtered) sorted by one attribute.

        ``None`` values sort last regardless of direction, so partially
        populated capacity-augmenting attributes behave sanely.
        """
        handles = (
            self.extent() if predicate is None else self.select_where(predicate)
        )

        def key(handle: "ObjectHandle"):
            value = handle.get(prop_name)
            return (value is None, value)

        try:
            return sorted(handles, key=key, reverse=descending)
        except TypeError:
            # mixed incomparable types: fall back to a stable repr ordering
            return sorted(
                handles,
                key=lambda h: (h.get(prop_name) is None, repr(h.get(prop_name))),
                reverse=descending,
            )

    def aggregate(
        self,
        prop_name: str,
        group_by: Optional[str] = None,
        predicate: Optional[Predicate] = None,
    ) -> Dict[object, Dict[str, object]]:
        """Count/sum/min/max/avg of one attribute, optionally grouped.

        Returns ``{group: {"count", "sum", "min", "max", "avg"}}``; without
        ``group_by`` the single group key is ``None``.  Non-numeric values
        contribute to ``count`` only.
        """
        handles = (
            self.extent() if predicate is None else self.select_where(predicate)
        )
        groups: Dict[object, List[object]] = {}
        for handle in handles:
            group = handle.get(group_by) if group_by else None
            groups.setdefault(group, []).append(handle.get(prop_name))
        result: Dict[object, Dict[str, object]] = {}
        for group, values in groups.items():
            numbers = [v for v in values if isinstance(v, (int, float))]
            stats: Dict[str, object] = {"count": len(values)}
            if numbers:
                stats.update(
                    sum=sum(numbers),
                    min=min(numbers),
                    max=max(numbers),
                    avg=sum(numbers) / len(numbers),
                )
            result[group] = stats
        return result

    # -- generic updates (section 3.3) ------------------------------------------------

    def _check_writable(self) -> None:
        self._db.views.history.check_writable(self.view_name, self.pinned_version)

    def create(
        self, union_target: Optional[str] = None, **assignments
    ) -> "ObjectHandle":
        self._check_writable()
        translated = {
            self._underlying(name): value for name, value in assignments.items()
        }
        if union_target is not None and union_target != "both":
            union_target = self.schema.global_name_of(union_target)
        oid = self._db.engine.create(
            self.global_name, translated, union_target=union_target
        )
        return ObjectHandle(
            self._db, self.view_name, self.view_class, oid,
            pinned_version=self.pinned_version,
        )

    def set_where(self, predicate: Predicate, **assignments) -> int:
        """``(select ...) set [...]`` in one call; returns objects updated."""
        self._check_writable()
        targets = [h.oid for h in self.select_where(predicate)]
        if targets:
            translated = {
                self._underlying(name): value for name, value in assignments.items()
            }
            self._db.engine.set_values(targets, self.global_name, translated)
        return len(targets)

    def add_objects(
        self, handles: Iterable["ObjectHandle"], union_target: Optional[str] = None
    ) -> None:
        self._check_writable()
        if union_target is not None and union_target != "both":
            union_target = self.schema.global_name_of(union_target)
        self._db.engine.add(
            [h.oid for h in handles], self.global_name, union_target=union_target
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<class {self.view_class} via view {self.view_name}>"


class ObjectHandle:
    """One object accessed through one view class context.

    Attribute reads and writes resolve through the view class's type, so a
    property hidden from the view is genuinely inaccessible here even though
    the global schema still stores it.
    """

    def __init__(
        self,
        database: "TseDatabase",
        view_name: str,
        view_class: str,
        oid: Oid,
        pinned_version: Optional[int] = None,
    ) -> None:
        self._db = database
        self.view_name = view_name
        self.view_class = view_class
        self.oid = oid
        self.pinned_version = pinned_version

    @property
    def _view(self) -> ViewSchema:
        return _view_schema(self._db, self.view_name, self.pinned_version)

    @property
    def global_class(self) -> str:
        return self._view.global_name_of(self.view_class)

    def _underlying(self, prop_name: str) -> str:
        return self._view.visible_property(self.view_class, prop_name)

    def _check_writable(self) -> None:
        self._db.views.history.check_writable(self.view_name, self.pinned_version)

    # -- attributes --------------------------------------------------------------

    def get(self, prop_name: str) -> object:
        underlying = self._underlying(prop_name)
        if "." in underlying:
            return read_path(
                self._db.schema, self._db.pool, self.global_class, self.oid, underlying
            )
        return read_attribute(
            self._db.schema, self._db.pool, self.global_class, self.oid, underlying
        )

    def set(self, prop_name: str, value: object) -> None:
        self._check_writable()
        self._db.engine.set_values(
            [self.oid], self.global_class, {self._underlying(prop_name): value}
        )

    def __getitem__(self, prop_name: str) -> object:
        return self.get(prop_name)

    def __setitem__(self, prop_name: str, value: object) -> None:
        self.set(prop_name, value)

    def values(self) -> Dict[str, object]:
        """All attribute values visible through this view class."""
        view = self._view
        columns = _class_properties(
            self._db, view, self.view_class, view.global_name_of(self.view_class)
        )[2]
        return {alias: self.get(alias) for alias, _read in columns}

    # -- methods ------------------------------------------------------------------

    def call(self, method_name: str, *args) -> object:
        """Invoke a method; the handle itself is passed as the receiver."""
        underlying = self._underlying(method_name)
        type_map = self._db.schema.type_of(self.global_class)
        resolved = typemod.resolve_qualified(
            type_map, underlying, class_name=self.global_class
        )
        if not isinstance(resolved.prop, Method):
            raise UnknownProperty(
                f"{method_name!r} of {self.view_class!r} is not a method"
            )
        if resolved.prop.body is None:
            raise UnknownProperty(f"method {method_name!r} has no body bound")
        return resolved.prop.body(self, *args)

    # -- membership and lifecycle -----------------------------------------------------

    def classes(self) -> List[str]:
        """View classes this object is a member of."""
        view = self._view
        result = []
        for global_name in view.selected:
            if self.oid in self._db.evaluator.extent(global_name):
                result.append(view.view_name_of(global_name))
        return sorted(result)

    def cast(self, view_class: str) -> "ObjectHandle":
        """Re-context the handle to another view class the object belongs to
        (the casting facility of Table 1)."""
        target_global = self._view.global_name_of(view_class)
        member_of = [
            name
            for name in self._view.selected
            if self.oid in self._db.evaluator.extent(name)
        ]
        self._db.pool.cast(self.oid, target_global, member_of)
        return ObjectHandle(self._db, self.view_name, view_class, self.oid)

    def delete(self) -> None:
        self._check_writable()
        self._db.engine.delete([self.oid])

    def remove_from(self, view_class: str, target: Optional[str] = None) -> None:
        self._check_writable()
        global_name = self._view.global_name_of(view_class)
        if target is not None:
            target = self._view.global_name_of(target)
        self._db.engine.remove([self.oid], global_name, target=target)

    def add_to(self, view_class: str, union_target: Optional[str] = None) -> None:
        self._check_writable()
        global_name = self._view.global_name_of(view_class)
        if union_target is not None and union_target != "both":
            union_target = self._view.global_name_of(union_target)
        self._db.engine.add([self.oid], global_name, union_target=union_target)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ObjectHandle) and other.oid == self.oid

    def __hash__(self) -> int:
        return hash(self.oid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.view_class} object {self.oid} via {self.view_name}>"
