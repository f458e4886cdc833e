"""The global schema: one DAG integrating all base and virtual classes.

Section 1 of the paper: *"all objects are associated with a single underlying
global schema"* and *"each version of the schema is implemented via a view
defined on the global schema"*.  This module owns that single DAG — class
registry, is-a edges, type computation and the structural queries every other
layer needs (ancestors, descendants, transitive reduction, invariants).

Type computation is *intensional*: a base class's type comes from its
authored parents (``inherits_from``) plus local properties, and a virtual
class's type is a pure function of its derivation (section 3.2 rules).
Classification may rewire DAG edges around a class but never changes any
class's type — that stability is what makes existing views immune to view
evolution (the Proposition B arguments of section 6).

The same stability decides cache lifetimes.  Two counters describe what a
mutation may have changed: :attr:`GlobalSchema.generation` moves on every
mutation (extent evaluators, read plans and epochs key on it), while
:attr:`GlobalSchema.shape_generation` moves only when is-a reachability or
the set of existing names may have changed (edges added or removed, a class
removed or renamed, a restore).  Registering a class moves only the first, so
the reachability closures and the extent prover's memo survive it.  Types do
not depend on edges at all: the type cache and the duplicate-detection
signature index are dropped only when a class definition changes
(``define_local_property``, ``rename_class``) and, per class, when a class
leaves (``remove_class``, ``restore``).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import (
    CyclicSchema,
    DuplicateClass,
    InvariantViolation,
    SchemaError,
    UnknownClass,
)
from repro.schema.classes import (
    EXTENT_PRESERVING_OPS,
    ROOT_CLASS,
    BaseClass,
    Derivation,
    SchemaClass,
    VirtualClass,
    derivation_from_dict,
    derivation_to_dict,
    root_class,
)
from repro.schema.properties import (
    Attribute,
    MethodRegistry,
    Property,
    ResolvedProperty,
    property_from_dict,
    property_to_dict,
)
from repro.schema import types as typemod
from repro.schema.types import TypeMap


#: bucket of virtual classes whose derivation signature cannot be hashed
_UNHASHABLE = object()
#: type-signature bucket of classes whose type computation raises
_UNTYPED = object()


def _definition_refs(cls: SchemaClass) -> Tuple[str, ...]:
    """Names a class's type is computed from (parents or derivation sources)."""
    if isinstance(cls, BaseClass):
        return cls.inherits_from
    der = cls.derivation
    return der.sources + tuple(s.from_class for s in der.shared_properties)


def _derivation_key(cls: SchemaClass) -> object:
    """Bucket key of a class in the derivation-signature index (``None`` for
    base classes, which are never derivation duplicates)."""
    if not isinstance(cls, VirtualClass):
        return None
    key = cls.derivation.signature()
    try:
        hash(key)
    except TypeError:
        return _UNHASHABLE
    return key


class _SignatureIndex:
    """Duplicate-detection buckets over the registered classes.

    ``order`` numbers classes in registration order (the order
    :meth:`GlobalSchema.classes` yields them).  ``by_derivation`` buckets
    virtual classes by derivation signature and ``by_type`` buckets every
    class by the *hash* of its type signature, so the index holds two ints
    per class and only a bucket's members are ever compared in full.
    Registering a class only queues it in ``pending``: its type is computed
    and hashed on the next lookup, never while the class is being added.
    """

    __slots__ = ("order", "next_order", "pending", "type_keys", "by_derivation", "by_type")

    def __init__(self, classes: Iterable[SchemaClass]) -> None:
        self.order: Dict[str, int] = {}
        self.next_order = 0
        self.pending: List[str] = []
        self.type_keys: Dict[str, object] = {}
        self.by_derivation: Dict[object, List[str]] = {}
        self.by_type: Dict[object, List[str]] = {}
        for cls in classes:
            self.add(cls)

    def add(self, cls: SchemaClass) -> None:
        name = cls.name
        self.order[name] = self.next_order
        self.next_order += 1
        der_key = _derivation_key(cls)
        if der_key is not None:
            self.by_derivation.setdefault(der_key, []).append(name)
        self.pending.append(name)
        # a new class may be the missing definition an untyped class needs
        for untyped in self.by_type.pop(_UNTYPED, ()):
            del self.type_keys[untyped]
            self.pending.append(untyped)

    def discard(self, cls: SchemaClass) -> None:
        name = cls.name
        del self.order[name]
        der_key = _derivation_key(cls)
        if der_key is not None:
            self._unbucket(self.by_derivation, der_key, name)
        if name in self.type_keys:
            self._unbucket(self.by_type, self.type_keys.pop(name), name)
        else:
            self.pending.remove(name)

    @staticmethod
    def _unbucket(buckets: Dict[object, List[str]], key: object, name: str) -> None:
        bucket = buckets[key]
        bucket.remove(name)
        if not bucket:
            del buckets[key]


class GlobalSchema:
    """Registry of classes plus the is-a DAG, with cached type computation."""

    def __init__(self) -> None:
        self._classes: Dict[str, SchemaClass] = {}
        self._supers: Dict[str, Set[str]] = {}
        self._subs: Dict[str, Set[str]] = {}
        self._generation = 0
        self._shape_generation = 0
        #: class name -> type; valid until a class definition changes
        self._type_cache: Dict[str, TypeMap] = {}
        #: duplicate-detection buckets, rebuilt lazily after ``_forget_types``
        self._index: Optional[_SignatureIndex] = None
        #: memoized reachability closures keyed by (kind, class); kinds are
        #: "anc" (strict ancestors), "desc" (strict descendants) and "anc+"
        #: (ancestors-or-self, the inverted member-class index extent
        #: evaluation unions over)
        self._closure_cache: Dict[Tuple[str, str], FrozenSet[str]] = {}
        self._closure_generation = -1
        root = root_class()
        self._classes[root.name] = root
        self._supers[root.name] = set()
        self._subs[root.name] = set()

    # -- registry -----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def __getitem__(self, name: str) -> SchemaClass:
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownClass(f"no class named {name!r} in the global schema") from None

    def class_names(self) -> List[str]:
        return sorted(self._classes)

    def classes(self) -> Iterator[SchemaClass]:
        return iter(self._classes.values())

    def base_classes(self) -> List[BaseClass]:
        return [c for c in self._classes.values() if isinstance(c, BaseClass)]

    def virtual_classes(self) -> List[VirtualClass]:
        return [c for c in self._classes.values() if isinstance(c, VirtualClass)]

    @property
    def generation(self) -> int:
        """Monotone counter bumped on every structural mutation."""
        return self._generation

    @property
    def shape_generation(self) -> int:
        """Monotone counter bumped when is-a reachability or the set of
        existing class names may have changed: edge changes, removals,
        renames and restores — not registrations, which add an isolated
        class that no existing closure or extent proof can mention."""
        return self._shape_generation

    def _dirty(self) -> None:
        """Any structural change, including direct edits of the registry:
        bump both counters and forget every derived cache."""
        self._reshaped()
        self._forget_types()

    def _reshaped(self) -> None:
        self._generation += 1
        self._shape_generation += 1

    def _forget_types(self) -> None:
        self._type_cache = {}
        self._index = None

    def _register(self, cls: SchemaClass) -> None:
        name = cls.name
        self._classes[name] = cls
        self._supers[name] = set()
        self._subs[name] = set()
        if self._index is not None:
            self._index.add(cls)
        self._generation += 1

    # -- class creation -------------------------------------------------------

    def add_base_class(
        self,
        name: str,
        properties: Tuple[Property, ...] = (),
        inherits_from: Tuple[str, ...] = (ROOT_CLASS,),
    ) -> BaseClass:
        """Author a new base class under the given parents."""
        if name in self._classes:
            raise DuplicateClass(f"class {name!r} already exists")
        for parent in inherits_from:
            if parent not in self._classes:
                raise UnknownClass(f"unknown superclass {parent!r} for {name!r}")
        cls = BaseClass(name, properties=properties, inherits_from=inherits_from)
        self._register(cls)
        for parent in inherits_from:
            self.add_edge(parent, name)
        if not inherits_from:
            self.add_edge(ROOT_CLASS, name)
        return cls

    def define_local_property(self, class_name: str, prop: Property) -> None:
        """Attach a locally defined property to a base class (authoring API).

        Goes through the schema so the type cache is invalidated; mutating
        ``BaseClass.local_properties`` directly would leave stale types.
        """
        cls = self[class_name]
        if not isinstance(cls, BaseClass):
            raise SchemaError(
                f"cannot define local properties on virtual class {class_name!r}"
            )
        cls.define_property(prop)
        self._generation += 1
        self._forget_types()

    def add_virtual_class_raw(self, name: str, derivation: Derivation) -> VirtualClass:
        """Register a virtual class *without* positioning it in the DAG.

        Only the classifier should call this; it follows up by computing the
        class's direct supers and subs.  The class's sources must exist.
        """
        if name in self._classes:
            raise DuplicateClass(f"class {name!r} already exists")
        for source in derivation.sources:
            if source not in self._classes:
                raise UnknownClass(f"unknown source class {source!r} for {name!r}")
        vc = VirtualClass(name, derivation)
        self._register(vc)
        return vc

    def remove_class(self, name: str) -> None:
        """Remove a class and all its edges (used to discard duplicates)."""
        if name == ROOT_CLASS:
            raise SchemaError("cannot remove ROOT")
        cls = self[name]  # raises UnknownClass when absent
        for sup in list(self._supers[name]):
            self.remove_edge(sup, name)
        for sub in list(self._subs[name]):
            self.remove_edge(name, sub)
        del self._classes[name]
        del self._supers[name]
        del self._subs[name]
        if any(name in _definition_refs(other) for other in self._classes.values()):
            # a class still defined in terms of ``name`` has lost its type
            self._forget_types()
        else:
            self._type_cache.pop(name, None)
            if self._index is not None:
                self._index.discard(cls)
        self._reshaped()

    def rename_class(self, old: str, new: str) -> None:
        """Rename a class globally (used by version merging, section 7)."""
        cls = self[old]
        if new in self._classes:
            raise DuplicateClass(f"class {new!r} already exists")
        self._classes[new] = cls
        del self._classes[old]
        cls.name = new
        self._supers[new] = self._supers.pop(old)
        self._subs[new] = self._subs.pop(old)
        for peers in self._supers.values():
            if old in peers:
                peers.discard(old)
                peers.add(new)
        for peers in self._subs.values():
            if old in peers:
                peers.discard(old)
                peers.add(new)
        for other in self._classes.values():
            if isinstance(other, BaseClass) and old in other.inherits_from:
                other.inherits_from = tuple(
                    new if p == old else p for p in other.inherits_from
                )
            if isinstance(other, VirtualClass) and old in other.derivation.sources:
                der = other.derivation
                other.derivation = Derivation(
                    op=der.op,
                    sources=tuple(new if s == old else s for s in der.sources),
                    predicate=der.predicate,
                    hidden=der.hidden,
                    new_properties=der.new_properties,
                    shared_properties=der.shared_properties,
                )
        self._dirty()

    # -- edges ------------------------------------------------------------------

    def add_edge(self, sup: str, sub: str) -> None:
        """Add a direct is-a edge making ``sup`` a direct superclass of ``sub``."""
        if sup not in self._classes:
            raise UnknownClass(f"unknown class {sup!r}")
        if sub not in self._classes:
            raise UnknownClass(f"unknown class {sub!r}")
        if sup == sub:
            raise CyclicSchema(f"class {sup!r} cannot be its own superclass")
        if self.is_ancestor(sub, sup):
            raise CyclicSchema(
                f"edge {sup!r} -> {sub!r} would create an is-a cycle"
            )
        self._subs[sup].add(sub)
        self._supers[sub].add(sup)
        self._reshaped()

    def remove_edge(self, sup: str, sub: str) -> None:
        if sub not in self._subs.get(sup, ()):  # pragma: no cover - guard
            raise SchemaError(f"no direct edge {sup!r} -> {sub!r}")
        self._subs[sup].discard(sub)
        self._supers[sub].discard(sup)
        self._reshaped()

    def has_edge(self, sup: str, sub: str) -> bool:
        return sub in self._subs.get(sup, ())

    def direct_supers(self, name: str) -> FrozenSet[str]:
        self[name]
        return frozenset(self._supers[name])

    def direct_subs(self, name: str) -> FrozenSet[str]:
        self[name]
        return frozenset(self._subs[name])

    # -- reachability --------------------------------------------------------------

    def _closure(self, kind: str, name: str, links: Dict[str, Set[str]]) -> FrozenSet[str]:
        """Transitive closure over ``links``, memoized per shape generation.

        Cached sub-closures are spliced in instead of re-walked, so a family
        of queries over one DAG costs one traversal total, not one per class.
        """
        if self._closure_generation != self._shape_generation:
            self._closure_cache.clear()
            self._closure_generation = self._shape_generation
        key = (kind, name)
        cached = self._closure_cache.get(key)
        if cached is not None:
            return cached
        seen: Set[str] = set()
        frontier = list(links[name])
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            sub = self._closure_cache.get((kind, current))
            if sub is not None:
                seen.add(current)
                seen |= sub
                continue
            seen.add(current)
            frontier.extend(links[current])
        result = frozenset(seen)
        self._closure_cache[key] = result
        return result

    def ancestors(self, name: str) -> FrozenSet[str]:
        """All strict ancestors of ``name`` (superclasses, transitively)."""
        self[name]
        return self._closure("anc", name, self._supers)

    def ancestors_or_self(self, name: str) -> FrozenSet[str]:
        """``{name} | ancestors(name)`` as one memoized frozenset.

        This is the inverted member-class -> base-ancestors index: a direct
        membership in ``name`` contributes to exactly the base extents in
        this set, so base-extent evaluation and incremental membership
        deltas are containment checks instead of per-pair is-a BFS walks.
        """
        if self._closure_generation != self._shape_generation:
            self._closure_cache.clear()
            self._closure_generation = self._shape_generation
        key = ("anc+", name)
        cached = self._closure_cache.get(key)
        if cached is not None:
            return cached
        result = frozenset({name}) | self.ancestors(name)
        self._closure_cache[key] = result
        return result

    def descendants(self, name: str) -> FrozenSet[str]:
        """All strict descendants of ``name`` (subclasses, transitively)."""
        self[name]
        return self._closure("desc", name, self._subs)

    def is_ancestor(self, sup: str, sub: str) -> bool:
        """True when ``sup`` is a strict ancestor of ``sub``."""
        return sup in self.ancestors(sub)

    def is_ancestor_or_equal(self, sup: str, sub: str) -> bool:
        return sup == sub or self.is_ancestor(sup, sub)

    def topological_order(self) -> List[str]:
        """Class names ordered supers-before-subs."""
        order: List[str] = []
        visited: Set[str] = set()

        def visit(name: str) -> None:
            if name in visited:
                return
            visited.add(name)
            for sup in sorted(self._supers[name]):
                visit(sup)
            order.append(name)

        for name in sorted(self._classes):
            visit(name)
        return order

    def transitive_reduction_over(
        self, selected: Iterable[str]
    ) -> List[Tuple[str, str]]:
        """Minimal is-a edges among ``selected`` implied by the global DAG.

        This is the core of the view schema generation algorithm ([21]): the
        view's generalization hierarchy is the transitive reduction of the
        global subsumption relation restricted to the selected classes.
        """
        chosen = sorted(set(selected))
        for name in chosen:
            self[name]
        above: Dict[str, Set[str]] = {
            name: set(self.ancestors(name)) & set(chosen) for name in chosen
        }
        edges: List[Tuple[str, str]] = []
        for sub in chosen:
            for sup in sorted(above[sub]):
                # keep sup -> sub unless some intermediate selected class sits
                # strictly between them
                if any(
                    sup in above[mid] and mid in above[sub]
                    for mid in chosen
                    if mid not in (sup, sub)
                ):
                    continue
                edges.append((sup, sub))
        return edges

    # -- types ------------------------------------------------------------------

    def type_of(self, name: str) -> TypeMap:
        """The type (property library) of a class.

        Cached until a class definition changes: a type depends only on
        class definitions (authored parents, derivations, local
        properties), never on is-a edges, so registering classes and
        classifying them keep every cached type valid.
        """
        cached = self._type_cache.get(name)
        if cached is not None:
            return cached
        computed = self._compute_type(name, frozenset())
        self._type_cache[name] = computed
        return computed

    def duplicate_candidates(self, name: str) -> List[str]:
        """The classes other than ``name`` that may duplicate it, in
        registration order.

        A superset of every class whose derivation signature or type
        signature equals ``name``'s, read from buckets instead of a scan:
        callers still compare signatures in full.  Classes whose type
        cannot be computed are always included, so a caller walking the
        list meets them exactly where a scan of :meth:`classes` would.
        """
        cls = self[name]
        index = self._signature_index()
        found: Set[str] = set(index.by_type.get(index.type_keys[name], ()))
        found.update(index.by_type.get(_UNTYPED, ()))
        der_key = _derivation_key(cls)
        if der_key is not None:
            found.update(index.by_derivation.get(der_key, ()))
        found.update(index.by_derivation.get(_UNHASHABLE, ()))
        found.discard(name)
        return sorted(found, key=index.order.__getitem__)

    def _signature_index(self) -> _SignatureIndex:
        """The duplicate-detection index with every pending class hashed."""
        index = self._index
        if index is None:
            index = self._index = _SignatureIndex(self._classes.values())
        while index.pending:
            name = index.pending.pop()
            try:
                type_key: object = hash(typemod.type_signature(self.type_of(name)))
            except SchemaError:
                type_key = _UNTYPED
            index.type_keys[name] = type_key
            index.by_type.setdefault(type_key, []).append(name)
        return index

    def _compute_type(self, name: str, active: FrozenSet[str]) -> TypeMap:
        if name in active:
            raise InvariantViolation(
                f"cyclic type dependency through class {name!r}"
            )
        cached = self._type_cache.get(name)
        if cached is not None:
            return cached
        cls = self[name]
        active = active | {name}
        if isinstance(cls, BaseClass):
            result = self._base_type(cls, active)
        else:
            result = self._derived_type(cls, active)
        self._type_cache[name] = result
        return result

    def _base_type(self, cls: BaseClass, active: FrozenSet[str]) -> TypeMap:
        inherited = typemod.merge_inherited(
            self._compute_type(parent, active) for parent in cls.inherits_from
        )
        local = {
            prop.name: ResolvedProperty(
                prop=prop,
                origin_class=cls.name,
                storage_class=(
                    cls.name
                    if isinstance(prop, Attribute) and prop.stored
                    else None
                ),
            )
            for prop in cls.local_properties.values()
        }
        return typemod.apply_local(inherited, local)

    def _derived_type(self, cls: VirtualClass, active: FrozenSet[str]) -> TypeMap:
        der = cls.derivation
        if der.op in ("select", "difference"):
            return dict(self._compute_type(der.sources[0], active))
        if der.op == "hide":
            source_type = self._compute_type(der.source, active)
            remaining = typemod.subtract(source_type, der.hidden)
            # Promotion rule of section 6.2.3: the surviving properties of the
            # hidden-from class are projected upward into this class and win
            # later same-name conflicts.
            promoted: TypeMap = {}
            for prop_name, entry in remaining.items():
                if isinstance(entry, ResolvedProperty) and not entry.promoted:
                    promoted[prop_name] = ResolvedProperty(
                        prop=entry.prop,
                        origin_class=entry.origin_class,
                        storage_class=entry.storage_class,
                        promoted=True,
                    )
                else:
                    promoted[prop_name] = entry
            return promoted
        if der.op == "refine":
            source_type = self._compute_type(der.source, active)
            additions: Dict[str, ResolvedProperty] = {}
            for prop in der.new_properties:
                additions[prop.name] = ResolvedProperty(
                    prop=prop,
                    origin_class=cls.name,
                    storage_class=(
                        cls.name
                        if isinstance(prop, Attribute) and prop.stored
                        else None
                    ),
                )
            for shared in der.shared_properties:
                donor_type = self._compute_type(shared.from_class, active)
                resolved = typemod.resolve(
                    donor_type, shared.name, class_name=shared.from_class
                )
                additions[shared.name] = resolved
            return typemod.augment(source_type, additions)
        first = self._compute_type(der.sources[0], active)
        second = self._compute_type(der.sources[1], active)
        if der.op == "union":
            return typemod.common(first, second)
        if der.op == "intersect":
            return typemod.combined(first, second)
        raise InvariantViolation(f"unhandled derivation op {der.op!r}")

    # -- invariants ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants, raising :class:`InvariantViolation`.

        * the is-a relation is acyclic (guaranteed by ``add_edge`` but
          re-checked here as a safety net);
        * every class other than ROOT reaches ROOT;
        * along every edge, the superclass's property names are a subset of
          the subclass's (type monotonicity, modulo overriding which keeps
          names identical).
        """
        order = self.topological_order()
        if len(order) != len(self._classes):  # pragma: no cover - defensive
            raise InvariantViolation("is-a relation is cyclic")
        for name in self._classes:
            if name == ROOT_CLASS:
                continue
            if ROOT_CLASS not in self.ancestors(name):
                raise InvariantViolation(f"class {name!r} does not reach ROOT")
        for sup, subs in self._subs.items():
            sup_names = set(self.type_of(sup))
            for sub in subs:
                sub_names = set(self.type_of(sub))
                if not sup_names <= sub_names:
                    missing = sorted(sup_names - sub_names)
                    raise InvariantViolation(
                        f"edge {sup!r} -> {sub!r} breaks type monotonicity; "
                        f"{sub!r} lacks {missing}"
                    )

    # -- mementos ------------------------------------------------------------------

    def memento(self) -> tuple:
        """A restorable snapshot of the schema's structure.

        The snapshot is shallow: it captures which classes and edges exist.
        That suffices for rolling back a failed evolution pipeline because
        pipelines only *add* classes (which a restore forgets) and add/remove
        edges — they never mutate pre-existing class objects.
        """
        return (
            dict(self._classes),
            {name: set(sups) for name, sups in self._supers.items()},
            {name: set(subs) for name, subs in self._subs.items()},
        )

    def restore(self, memento: tuple) -> None:
        """Roll the schema structure back to a prior :meth:`memento`.

        The memento holds the very class objects still registered, so only
        the cached types of classes it lacks are dropped: an EXPLAIN bracket,
        a failed change's rollback or a savepoint abort leaves the next
        classification warm.  A memento whose classes were renamed or
        replaced since it was taken forgets every type.
        """
        classes, supers, subs = memento
        current = self._classes
        if all(
            cls.name == name and current.get(name, cls) is cls
            for name, cls in classes.items()
        ):
            if any(name not in current for name in classes):
                # classes removed since the memento come back at their old
                # registration positions: renumber on the next lookup
                self._index = None
            for name, cls in current.items():
                if name not in classes:
                    self._type_cache.pop(name, None)
                    if self._index is not None:
                        self._index.discard(cls)
        else:
            self._forget_types()
        self._classes = dict(classes)
        self._supers = {name: set(sups) for name, sups in supers.items()}
        self._subs = {name: set(s) for name, s in subs.items()}
        self._reshaped()

    # -- body section --------------------------------------------------------------

    def dump_state(self) -> dict:
        """Every class but ROOT, supers first, and the sorted is-a edges."""
        classes: List[dict] = []
        for name in self.topological_order():
            if name == ROOT_CLASS:
                continue
            cls = self._classes[name]
            meta = {
                k: v for k, v in cls.meta.items() if isinstance(v, (str, int, bool))
            }
            entry: dict = {"name": name, "updatable": cls.updatable, "meta": meta}
            if isinstance(cls, BaseClass):
                entry["kind"] = "base"
                entry["inherits_from"] = list(cls.inherits_from)
                entry["properties"] = [
                    property_to_dict(p) for p in cls.local_properties.values()
                ]
            else:
                entry["kind"] = "virtual"
                entry["derivation"] = derivation_to_dict(cls.derivation)
                entry["propagation_source"] = cls.propagation_source
            classes.append(entry)
        edges = sorted((sup, sub) for sup, subs in self._subs.items() for sub in subs)
        return {"classes": classes, "edges": edges}

    def load_state(self, body: dict, methods: Optional[MethodRegistry] = None) -> None:
        for entry in body["classes"]:
            name = entry["name"]
            if entry["kind"] == "base":
                cls = BaseClass(
                    name,
                    properties=tuple(
                        property_from_dict(p, name, methods)
                        for p in entry["properties"]
                    ),
                    inherits_from=tuple(entry["inherits_from"]),
                )
            else:
                cls = VirtualClass(
                    name, derivation_from_dict(entry["derivation"], name, methods)
                )
                cls.propagation_source = entry["propagation_source"]
            cls.updatable = entry["updatable"]
            cls.meta.update(entry["meta"])
            self._classes[name] = cls
            self._supers[name] = set()
            self._subs[name] = set()
        for sup, sub in body["edges"]:
            self._subs[sup].add(sub)
            self._supers[sub].add(sup)
        self._dirty()
        self.validate()

    # -- convenience --------------------------------------------------------------

    def subclasses_within(self, name: str, universe: Iterable[str]) -> List[str]:
        """Descendants of ``name`` (inclusive) restricted to ``universe``.

        The section 6 algorithms run "in the context of a view": they only
        create primed classes for subclasses *within* the view (section 2.2's
        point that the Grad class is untouched).
        """
        allowed = set(universe)
        return [
            cls
            for cls in [name, *sorted(self.descendants(name))]
            if cls in allowed
        ]
