"""Extent evaluation and definitional extent relations.

Two distinct jobs live here:

1. :class:`ExtentEvaluator` computes the (always *global*, per footnote 14)
   extent of any class against a populated instance pool.  Base-class extents
   come from direct memberships plus upward is-a reachability; virtual-class
   extents are evaluated from their derivations.

2. :class:`ExtentRelations` *proves* subset/equality relationships between
   class extents without looking at instances, using the definitional rules
   of the algebra (``extent(refine(S)) = extent(S)``,
   ``extent(select(S,p)) ⊆ extent(S)``, union ⊇ arguments, ...).  The
   classifier positions new virtual classes with these proofs so that
   classification is a schema-level operation, exactly as in MultiView [17];
   the instance-level evaluator doubles as a verification oracle in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.algebra import compiler as compilermod
from repro.errors import PredicateError, UnknownProperty
from repro.obs.tracing import Tracer
from repro.schema.classes import (
    EXTENT_PRESERVING_OPS,
    BaseClass,
    VirtualClass,
)
from repro.schema.graph import GlobalSchema
from repro.schema.properties import Attribute, Method, ResolvedProperty
from repro.schema import types as typemod
from repro.storage.oid import Oid
from repro.objectmodel.slicing import InstancePool, PoolDelta


@dataclass
class ExtentStats:
    """Observability counters for extent evaluation and maintenance.

    ``hits``/``misses`` count cache lookups in :meth:`ExtentEvaluator.extent`;
    ``full_recomputes`` counts from-scratch evaluations (one per miss);
    ``deltas_applied`` counts per-class candidate rechecks performed by the
    incremental engine instead of recomputes; ``invalidations`` counts cache
    entries dropped by targeted (dependency-aware) invalidation — the
    fan-out of writes the engine could not maintain incrementally;
    ``events`` counts pool deltas observed.
    """

    hits: int = 0
    misses: int = 0
    deltas_applied: int = 0
    full_recomputes: int = 0
    invalidations: int = 0
    events: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        self.hits = self.misses = self.deltas_applied = 0
        self.full_recomputes = self.invalidations = self.events = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": round(self.hit_ratio, 4),
            "deltas_applied": self.deltas_applied,
            "full_recomputes": self.full_recomputes,
            "invalidations": self.invalidations,
            "events": self.events,
        }


def read_attribute(
    schema: GlobalSchema,
    pool: InstancePool,
    class_name: str,
    oid: Oid,
    attr_name: str,
) -> object:
    """Read ``attr_name`` of object ``oid`` as typed by ``class_name``.

    Resolution walks the class's type to find the storage class whose slice
    holds the value; unwritten stored attributes yield their declared
    default.  Methods cannot be read this way.
    """
    type_map = schema.type_of(class_name)
    resolved = typemod.resolve_qualified(type_map, attr_name, class_name=class_name)
    if not isinstance(resolved.prop, Attribute):
        raise PredicateError(
            f"{attr_name!r} is a method of {class_name!r}, not an attribute"
        )
    if resolved.storage_class is None:
        compute = getattr(resolved.prop, "compute", None)
        if compute is not None:
            # derived attribute: evaluate against this object's own reader
            return compute(attribute_reader(schema, pool, class_name, oid))
        return resolved.prop.default
    return pool.get_value(
        oid, resolved.storage_class, resolved.prop.name,
        default=resolved.prop.default,
    )


def read_path(
    schema: GlobalSchema,
    pool: InstancePool,
    class_name: str,
    oid: Oid,
    path: str,
) -> object:
    """Read a dotted attribute path, dereferencing object-valued attributes.

    ``read_path(..., "Student", oid, "advisor.name")`` reads the ``advisor``
    attribute of the student (whose declared domain must be a class of the
    schema), then reads ``name`` of the referenced object as typed by that
    domain class.  A ``None`` anywhere along the path yields ``None``; a
    non-OID value with path remaining is a :class:`PredicateError`.
    """
    segments = path.split(".")
    current_class = class_name
    current_oid = oid
    for index, segment in enumerate(segments):
        value = read_attribute(schema, pool, current_class, current_oid, segment)
        if index == len(segments) - 1:
            return value
        if value is None:
            return None
        if not isinstance(value, Oid) or not pool.exists(value):
            raise PredicateError(
                f"path segment {segment!r} of {path!r} did not yield a live "
                f"object reference"
            )
        type_map = schema.type_of(current_class)
        resolved = typemod.resolve_qualified(
            type_map, segment, class_name=current_class
        )
        domain = resolved.prop.domain if isinstance(resolved.prop, Attribute) else None
        if domain is None or domain not in schema:
            raise PredicateError(
                f"attribute {segment!r} of {current_class!r} has no class-"
                f"valued domain to traverse"
            )
        current_class = domain
        current_oid = value
    raise PredicateError(f"empty path {path!r}")  # pragma: no cover


def attribute_reader(
    schema: GlobalSchema, pool: InstancePool, class_name: str, oid: Oid
) -> Callable[[str], object]:
    """A closure reading attributes of one object in one class context —
    the shape selection predicates evaluate against.  Dotted names traverse
    object-valued attributes (see :func:`read_path`)."""

    def reader(attr_name: str) -> object:
        if "." in attr_name:
            return read_path(schema, pool, class_name, oid, attr_name)
        return read_attribute(schema, pool, class_name, oid, attr_name)

    return reader


class ReaderPlans:
    """Pre-resolved attribute read plans, cached per schema generation.

    :func:`read_attribute` resolves ``type_of`` + ``resolve_qualified`` on
    *every* read, yet within one schema generation the resolution of
    ``(class_name, attr)`` never changes.  This cache resolves each pair
    once and keeps a per-attribute closure ``fn(oid) -> value``:

    * plain stored attributes collapse to a single ``pool.get_value`` call
      with the storage class, bare name, and default pre-bound;
    * everything else — dotted paths, derived attributes, unresolvable or
      method reads — falls back to the generic :func:`read_path` /
      :func:`read_attribute` *per call*, so errors surface with identical
      type, message, and timing to the un-planned reader.

    The same cache keeps each class's property listing
    (:meth:`properties`), the walk every bulk read of a class starts from.
    A schema generation bump discards all plans (schema changes are rare
    next to the reads these plans serve).
    """

    __slots__ = ("schema", "pool", "_generation", "_plans", "_properties")

    def __init__(self, schema: GlobalSchema, pool: InstancePool) -> None:
        self.schema = schema
        self.pool = pool
        self._generation = -1
        self._plans: Dict[str, Dict[str, Callable[[Oid], object]]] = {}
        self._properties: Dict[str, tuple] = {}

    def _new_generation(self) -> None:
        self._plans = {}
        self._properties = {}
        self._generation = self.schema.generation

    def _class_plans(self, class_name: str) -> Dict[str, Callable[[Oid], object]]:
        if self._generation != self.schema.generation:
            self._new_generation()
        plans = self._plans.get(class_name)
        if plans is None:
            plans = self._plans[class_name] = {}
        return plans

    def _resolve(self, class_name: str, attr_name: str) -> Callable[[Oid], object]:
        schema, pool = self.schema, self.pool
        if "." not in attr_name:
            try:
                type_map = schema.type_of(class_name)
                resolved = typemod.resolve_qualified(
                    type_map, attr_name, class_name=class_name
                )
            except Exception:
                resolved = None
            if (
                resolved is not None
                and isinstance(resolved.prop, Attribute)
                and resolved.storage_class is not None
            ):
                return pool.value_reader(
                    resolved.storage_class,
                    resolved.prop.name,
                    resolved.prop.default,
                )
            if (
                resolved is not None
                and isinstance(resolved.prop, Attribute)
                and getattr(resolved.prop, "compute", None) is None
            ):
                default = resolved.prop.default
                return lambda oid: default

            def generic(oid: Oid) -> object:
                return read_attribute(schema, pool, class_name, oid, attr_name)

            return generic

        def dotted(oid: Oid) -> object:
            return read_path(schema, pool, class_name, oid, attr_name)

        return dotted

    def oid_reader(self, class_name: str, attr_name: str) -> Callable[[Oid], object]:
        """The planned column reader itself: ``fn(oid) -> value``.

        This is the function :meth:`reader` dispatches to per attribute —
        exposed directly so row-compiled predicates can bind each column
        once instead of building a per-object reader closure."""
        plans = self._class_plans(class_name)
        fn = plans.get(attr_name)
        if fn is None:
            fn = plans[attr_name] = self._resolve(class_name, attr_name)
        return fn

    def properties(self, class_name: str) -> tuple:
        """One walk over ``class_name``'s type map: ``(attributes, methods,
        columns)``, the sorted names that resolve to an attribute or to a
        method (an ambiguous name counts for every kind among its
        candidates) and ``(name, oid_reader)`` per unambiguous attribute.

        Cached for the schema generation; callers must not mutate it."""
        if self._generation != self.schema.generation:
            self._new_generation()
        listing = self._properties.get(class_name)
        if listing is None:
            attributes: List[str] = []
            methods: List[str] = []
            columns = []
            for name, entry in self.schema.type_of(class_name).items():
                if isinstance(entry, typemod.Ambiguity):
                    props = [candidate.prop for candidate in entry.candidates]
                    if any(isinstance(prop, Attribute) for prop in props):
                        attributes.append(name)
                    if any(isinstance(prop, Method) for prop in props):
                        methods.append(name)
                elif isinstance(entry.prop, Attribute):
                    attributes.append(name)
                    columns.append((name, self.oid_reader(class_name, name)))
                elif isinstance(entry.prop, Method):
                    methods.append(name)
            listing = (sorted(attributes), sorted(methods), columns)
            self._properties[class_name] = listing
        return listing

    def reader(self, class_name: str, oid: Oid) -> Callable[[str], object]:
        """A planned :data:`Reader` for one object in one class context —
        drop-in for :func:`attribute_reader`, ~one dict hit per read."""
        plans = self._class_plans(class_name)
        resolve = self._resolve

        def reader(attr_name: str) -> object:
            fn = plans.get(attr_name)
            if fn is None:
                fn = resolve(class_name, attr_name)
                plans[attr_name] = fn
            return fn(oid)

        return reader


class ExtentEvaluator:
    """Computes global extents, cached per (schema, pool) generation.

    This is the *generation-wipe* evaluator: any write to the pool bumps its
    generation and the next read discards the whole cache.  It is retained
    as the from-scratch oracle (equivalence tests, benchmarks baselines);
    production paths use :class:`IncrementalExtentEvaluator`.
    """

    def __init__(
        self,
        schema: GlobalSchema,
        pool: InstancePool,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.schema = schema
        self.pool = pool
        self.stats = ExtentStats()
        #: pipeline tracer; a private disabled one when not injected, so
        #: hot paths only ever pay an attribute read + branch
        self.tracer = tracer if tracer is not None else Tracer()
        self._cache: Dict[str, FrozenSet[Oid]] = {}
        #: value of ``_current_key()`` when the cache was last valid —
        #: a (schema, pool) generation tuple here, a bare schema generation
        #: in the incremental subclass
        self._cache_key: object = (-1, -1)
        #: pre-resolved attribute read plans (shared by all select rechecks)
        self.plans = ReaderPlans(schema, pool)
        #: select class -> row matcher ``fn(oid) -> bool``, valid for one
        #: schema generation
        self._matchers: Dict[str, Callable[[Oid], bool]] = {}
        self._matchers_key = -1

    def _matcher(self, class_name: str, predicate, source: str) -> Callable[[Oid], bool]:
        """The OID-level evaluator for one select class's predicate —
        row-compiled when possible, reader-based otherwise; cached because
        derivations are immutable per generation."""
        key = self.schema.generation
        if key != self._matchers_key:
            self._matchers.clear()
            self._matchers_key = key
        fn = self._matchers.get(class_name)
        if fn is None:
            plans = self.plans
            fn = compilermod.row_matcher(
                predicate,
                lambda attr: plans.oid_reader(source, attr),
                lambda oid: plans.reader(source, oid),
            )
            self._matchers[class_name] = fn
        return fn

    def _current_key(self) -> Tuple[int, int]:
        return (self.schema.generation, self.pool.generation)

    def invalidate(self) -> None:
        self._cache.clear()
        self._cache_key = self._current_key()

    def cached_extents(self) -> Mapping[str, FrozenSet[Oid]]:
        """The extents cached for the current key — each exactly what
        :meth:`extent` would return now — or an empty mapping when the
        cache is stale.  The mapping is the live cache: read it, copy out
        of it, never mutate it."""
        if self._cache_key != self._current_key():
            return {}
        return self._cache

    def extent(self, class_name: str) -> FrozenSet[Oid]:
        """The global extent of the class as a frozen set of conceptual OIDs."""
        key = self._current_key()
        if key != self._cache_key:
            self._cache.clear()
            self._cache_key = key
        cached = self._cache.get(class_name)
        if cached is not None:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        self.stats.full_recomputes += 1
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span("extent_recompute", class_name=class_name) as span:
                result = self._evaluate(class_name, frozenset())
                span.set(size=len(result))
        else:
            result = self._evaluate(class_name, frozenset())
        self._cache[class_name] = result
        return result

    def _evaluate(self, class_name: str, active: FrozenSet[str]) -> FrozenSet[Oid]:
        if class_name in active:  # pragma: no cover - derivations are acyclic
            raise PredicateError(f"cyclic extent dependency at {class_name!r}")
        cls = self.schema[class_name]
        active = active | {class_name}
        if isinstance(cls, BaseClass):
            return self._base_extent(cls)
        assert isinstance(cls, VirtualClass)
        der = cls.derivation
        if der.op in EXTENT_PRESERVING_OPS:
            return self._evaluate(der.source, active)
        if der.op == "select":
            source_extent = self._evaluate(der.source, active)
            matches = self._matcher(class_name, der.predicate, der.source)
            return frozenset(oid for oid in source_extent if matches(oid))
        first = self._evaluate(der.sources[0], active)
        second = self._evaluate(der.sources[1], active)
        if der.op == "union":
            return first | second
        if der.op == "difference":
            return first - second
        if der.op == "intersect":
            return first & second
        raise PredicateError(f"unhandled derivation op {der.op!r}")  # pragma: no cover

    def _base_extent(self, cls: BaseClass) -> FrozenSet[Oid]:
        """Members of every (direct-membership) class from which ``cls`` is
        reachable upward in the is-a DAG."""
        result: Set[Oid] = set()
        for member_class in self.pool.classes_with_members():
            if member_class not in self.schema:
                continue
            if self.schema.is_ancestor_or_equal(cls.name, member_class):
                result |= self.pool.members_direct(member_class)
        return frozenset(result)

    def is_member(self, oid: Oid, class_name: str) -> bool:
        return oid in self.extent(class_name)


#: Sentinel candidate meaning "this class's delta is unknown — drop its
#: cache entry (and its dependents') instead of rechecking candidates".
_INVALIDATE = object()


class _DerivationDeps:
    """Dependency index over one schema generation's derivations.

    Answers the two questions delta propagation asks:

    * which classes sit (transitively) *above* a changed class in the
      derivation DAG (``dependents`` + ``topo_order``), and
    * which select classes can a write to attribute ``a`` affect
      (``attr_deps``), split into classes safe for per-object recheck and
      classes needing conservative invalidation (``complex_selects``,
      ``wildcard_selects``).
    """

    def __init__(self, schema: GlobalSchema) -> None:
        self.schema = schema
        #: source class -> virtual classes directly derived from it
        self.dependents: Dict[str, Tuple[str, ...]] = {}
        #: every class, derivation sources strictly before their dependents
        self.topo_order: Tuple[str, ...] = ()
        #: attribute name -> select classes whose predicate reads it
        self.attr_deps: Dict[str, Tuple[str, ...]] = {}
        #: select classes whose predicate traverses object references
        #: (dotted paths): a relevant write can flip *other* objects'
        #: membership, so per-object recheck is unsound — invalidate.
        self.complex_selects: FrozenSet[str] = frozenset()
        #: select classes affected by *any* value event (derived attributes,
        #: unresolvable reads, or predicates without an ``attributes`` hook)
        self.wildcard_selects: FrozenSet[str] = frozenset()
        self._build()

    def _build(self) -> None:
        schema = self.schema
        dependents: Dict[str, List[str]] = {}
        for cls in schema.virtual_classes():
            for source in cls.derivation.sources:
                dependents.setdefault(source, []).append(cls.name)
        self.dependents = {
            name: tuple(sorted(deps)) for name, deps in dependents.items()
        }
        # topological order over derivation edges (iterative DFS; derivation
        # chains grow one class per evolution, easily past recursion limits)
        order: List[str] = []
        visited: Set[str] = set()
        for root in schema.class_names():
            if root in visited:
                continue
            stack: List[Tuple[str, bool]] = [(root, False)]
            while stack:
                name, expanded = stack.pop()
                if expanded:
                    order.append(name)
                    continue
                if name in visited:
                    continue
                visited.add(name)
                stack.append((name, True))
                cls = schema[name]
                if isinstance(cls, VirtualClass):
                    for source in cls.derivation.sources:
                        if source not in visited:
                            stack.append((source, False))
        self.topo_order = tuple(order)

        attr_deps: Dict[str, Set[str]] = {}
        complex_selects: Set[str] = set()
        wildcard: Set[str] = set()
        for cls in schema.virtual_classes():
            der = cls.derivation
            if der.op != "select":
                continue
            attributes = getattr(der.predicate, "attributes", None)
            if attributes is None:
                wildcard.add(cls.name)
                complex_selects.add(cls.name)
                continue
            try:
                paths = attributes()
            except NotImplementedError:
                wildcard.add(cls.name)
                complex_selects.add(cls.name)
                continue
            try:
                type_map = schema.type_of(der.source)
            except Exception:
                type_map = None
            for path in paths:
                segments = path.split(".")
                if len(segments) > 1:
                    complex_selects.add(cls.name)
                for segment in segments:
                    attr_deps.setdefault(segment, set()).add(cls.name)
                # a derived attribute's compute() reads arbitrary other
                # attributes we cannot enumerate -> wildcard
                head = segments[0]
                entry = type_map.get(head) if type_map is not None else None
                if entry is None or not isinstance(entry, ResolvedProperty):
                    wildcard.add(cls.name)
                    complex_selects.add(cls.name)
                elif (
                    entry.storage_class is None
                    and getattr(entry.prop, "compute", None) is not None
                ):
                    wildcard.add(cls.name)
                    complex_selects.add(cls.name)
        self.attr_deps = {
            name: tuple(sorted(classes)) for name, classes in attr_deps.items()
        }
        self.complex_selects = frozenset(complex_selects)
        self.wildcard_selects = frozenset(wildcard)


class IncrementalExtentEvaluator(ExtentEvaluator):
    """Maintains cached extents from pool deltas instead of wiping them.

    The evaluator subscribes to the pool's typed deltas and, per event,
    computes the set of *candidate* objects whose membership may have
    changed in each affected class, walking the derivation DAG in
    topological order (sources before dependents).  Each affected cached
    class rechecks only its candidates against post-state semantics — the
    standard incremental rules for select/union/difference/intersect fall
    out of the recheck because source extents are maintained first.

    Candidate sets may over-approximate the true delta (rechecking a
    non-changing candidate is a no-op), which keeps every rule uniform and
    exact.  Where even candidates cannot be bounded — dotted-path or
    derived-attribute predicates, predicates that raise — the class and its
    derivation cone are invalidated instead (conservative but targeted:
    unrelated classes keep their caches).

    Schema changes (generation bump) wipe the cache and rebuild the
    dependency index; they are rare next to data operations.
    """

    def __init__(
        self,
        schema: GlobalSchema,
        pool: InstancePool,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(schema, pool, tracer=tracer)
        self._deps: Optional[_DerivationDeps] = None
        self._deps_generation = -1
        pool.add_delta_listener(self._on_delta)

    # the cache key tracks only the schema; pool changes arrive as deltas.
    # A bare int (not a tuple) keeps the per-read key check allocation-free;
    # it can never collide with the base class's tuple keys.
    def _current_key(self):
        return self.schema.generation

    def _base_extent(self, cls: BaseClass) -> FrozenSet[Oid]:
        """Union of direct-member buckets via the memoized ancestor index
        (a containment check per bucket instead of an is-a BFS per pair)."""
        schema = self.schema
        result: Set[Oid] = set()
        for member_class, oids in self.pool.direct_membership_items():
            if member_class not in schema:
                continue
            if cls.name in schema.ancestors_or_self(member_class):
                result |= oids
        return frozenset(result)

    # ------------------------------------------------------------------
    # delta intake
    # ------------------------------------------------------------------

    def _dependency_index(self) -> _DerivationDeps:
        if self._deps is None or self._deps_generation != self.schema.generation:
            self._deps = _DerivationDeps(self.schema)
            self._deps_generation = self.schema.generation
        return self._deps

    def _on_delta(self, delta: PoolDelta) -> None:
        self.stats.events += 1
        key = self._current_key()
        if key != self._cache_key:
            # the schema moved since the cache was filled; everything is
            # stale regardless of this delta
            self._cache.clear()
            self._cache_key = key
            return
        if not self._cache:
            return
        kind = delta.kind
        if kind == "reset":
            self.stats.invalidations += len(self._cache)
            self._cache.clear()
            return
        if kind == "destroy":
            self._on_destroy(delta.oid)
            return
        if kind in ("add_membership", "remove_membership"):
            seeds = self._membership_seeds(delta.oid, delta.class_name)
        else:  # set_value / remove_value
            deps = self._dependency_index()
            if not deps.wildcard_selects and delta.attr not in deps.attr_deps:
                # no select reads this attribute: the write cannot move any
                # cached extent, so skip seed construction entirely
                return
            seeds = self._value_seeds(delta.oid, delta.attr)
        if seeds:
            self._propagate(seeds)

    def _membership_seeds(self, oid: Oid, member_class: str) -> Dict[str, object]:
        """A membership change in ``member_class`` can move ``oid`` in or
        out of exactly the base classes at-or-above it; everything else is
        reached through the derivation cone during propagation.

        Gaining or losing a membership also gains or loses the *slice*
        stored at ``member_class``, i.e. the values of that class's local
        attributes — which can flip selects reading those attributes even
        when reached through sources entirely outside the seeded cone
        (the object may stay a member via another is-a path while the
        attribute values vanish), so their value seeds are merged in."""
        if member_class not in self.schema:
            return {}
        seeds: Dict[str, object] = {}
        for base in self.schema.ancestors_or_self(member_class):
            if self.schema[base].is_base:
                seeds[base] = {oid}
        cls = self.schema[member_class]
        if cls.is_base:
            for attr in cls.local_properties:
                for name, cand in self._value_seeds(oid, attr).items():
                    existing = seeds.get(name)
                    if cand is _INVALIDATE or existing is _INVALIDATE:
                        seeds[name] = _INVALIDATE
                    elif existing is None:
                        seeds[name] = set(cand)
                    else:
                        existing |= cand
        return seeds

    def _value_seeds(self, oid: Oid, attr: str) -> Dict[str, object]:
        """A value write can only change select classes whose predicate
        reads ``attr`` — for simple predicates only the written object's
        membership, for complex ones an unbounded set (invalidate)."""
        deps = self._dependency_index()
        seeds: Dict[str, object] = {}
        for name in deps.wildcard_selects:
            seeds[name] = _INVALIDATE
        for name in deps.attr_deps.get(attr, ()):
            if name in deps.complex_selects:
                seeds[name] = _INVALIDATE
            elif name not in seeds:
                seeds[name] = {oid}
        return seeds

    def _on_destroy(self, oid: Oid) -> None:
        """A destroyed object leaves every extent; that removal *is* the
        exact delta for every cached class.  Complex predicates may now see
        dangling references, so their cones are invalidated and re-raise
        (or recompute) on the next read, matching from-scratch semantics."""
        for name, extent in list(self._cache.items()):
            if oid in extent:
                self._cache[name] = extent - {oid}
                self.stats.deltas_applied += 1
        deps = self._dependency_index()
        seeds: Dict[str, object] = {
            name: _INVALIDATE for name in deps.complex_selects
        }
        if seeds:
            self._propagate(seeds)

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------

    def _propagate(self, seeds: Dict[str, object]) -> None:
        """Walk the derivation DAG once, sources before dependents, merging
        candidate sets upward and rechecking them against cached classes.

        The tracer guard keeps the disabled path identical to the untraced
        one: a single attribute read and branch before delegating."""
        tracer = self.tracer
        if tracer.enabled:
            with tracer.span(
                "extent_maintain", seeds=len(seeds), classes=",".join(sorted(seeds))
            ):
                self._propagate_seeds(seeds)
        else:
            self._propagate_seeds(seeds)

    def _propagate_seeds(self, seeds: Dict[str, object]) -> None:
        deps = self._dependency_index()
        pending: Dict[str, object] = dict(seeds)
        for name in deps.topo_order:
            cand = pending.get(name)
            if cand is None:
                continue
            if cand is not _INVALIDATE:
                cached = self._cache.get(name)
                if cached is not None:
                    try:
                        self._recheck(name, cand, cached)
                    except Exception:
                        # a predicate that cannot be evaluated right now
                        # (e.g. mid-rollback): fall back to invalidation;
                        # the next read recomputes (and surfaces the error
                        # exactly when a from-scratch evaluator would)
                        self._cache.pop(name, None)
                        self.stats.invalidations += 1
                        cand = _INVALIDATE
            elif self._cache.pop(name, None) is not None:
                self.stats.invalidations += 1
            for dependent in deps.dependents.get(name, ()):
                existing = pending.get(dependent)
                if cand is _INVALIDATE or existing is _INVALIDATE:
                    pending[dependent] = _INVALIDATE
                elif existing is None:
                    pending[dependent] = set(cand)
                else:
                    existing |= cand

    def _recheck(
        self, name: str, candidates: Set[Oid], cached: FrozenSet[Oid]
    ) -> None:
        """Apply the exact membership delta for ``candidates`` to one
        cached extent; non-candidates are untouched by construction."""
        added: Set[Oid] = set()
        removed: Set[Oid] = set()
        for oid in candidates:
            inside = self._contains(name, oid)
            if inside and oid not in cached:
                added.add(oid)
            elif not inside and oid in cached:
                removed.add(oid)
        self.stats.deltas_applied += 1
        if added or removed:
            self._cache[name] = (cached - removed) | added

    def _contains(self, name: str, oid: Oid) -> bool:
        """Post-state membership of one object in one class, leaning on the
        already-maintained extents of the class's sources."""
        cls = self.schema[name]
        if isinstance(cls, BaseClass):
            if not self.pool.exists(oid):
                return False
            schema = self.schema
            for direct in self.pool.get(oid).direct_classes:
                if direct in schema and name in schema.ancestors_or_self(direct):
                    return True
            return False
        assert isinstance(cls, VirtualClass)
        der = cls.derivation
        if der.op in EXTENT_PRESERVING_OPS:
            return oid in self.extent(der.source)
        if der.op == "select":
            if oid not in self.extent(der.source):
                return False
            matches = self._matcher(name, der.predicate, der.source)
            return bool(matches(oid))
        first = self.extent(der.sources[0])
        second = self.extent(der.sources[1])
        if der.op == "union":
            return oid in first or oid in second
        if der.op == "difference":
            return oid in first and oid not in second
        if der.op == "intersect":
            return oid in first and oid in second
        raise PredicateError(f"unhandled derivation op {der.op!r}")  # pragma: no cover


class ExtentRelations:
    """Definitional subset/equality proofs between class extents.

    ``subset(a, b)`` returns True only when ``extent(a) ⊆ extent(b)`` is
    *provable* from derivations and existing is-a edges; False means
    "unknown", never "disjoint".  The prover is sound but deliberately
    incomplete (so is any schema-level classifier); the hypothesis tests
    check soundness against the instance-level evaluator.

    A proof of ``subset(a, b)`` reads only the derivations of ``a``, ``b``
    and their (transitive) sources, all frozen once registered, and is-a
    reachability among those classes.  So the memo is keyed on
    :attr:`GlobalSchema.shape_generation`: it survives the registration of
    new classes and is dropped when edges change or a class is removed,
    renamed or restored — except across an insertion that
    :meth:`carry_over` is told left reachability between the other classes
    unchanged.
    """

    def __init__(self, schema: GlobalSchema) -> None:
        self.schema = schema
        #: sub -> sup -> proven; rows keep the memo free of per-pair keys
        self._memo: Dict[str, Dict[str, bool]] = {}
        self._memo_generation = -1
        #: rows written since the last carry-over or reset; every proof
        #: naming a class registered meanwhile is in one of them
        self._written: List[str] = []

    def _fresh_memo(self) -> None:
        if self._memo_generation != self.schema.shape_generation:
            self._memo = {}
            self._written = []
            self._memo_generation = self.schema.shape_generation

    def carry_over(self, shape: int, name: str) -> None:
        """Keep the memo across the wiring of the newly registered ``name``.

        ``shape`` is the shape generation before the wiring, which must not
        have added is-a reachability between classes other than ``name``
        (every new super of ``name`` already reached every new sub).  No
        proof about two other classes can then change: it never reads
        ``name``, which derives nothing.  Proofs about ``name`` itself were
        made while it had no edges, so they are dropped.
        """
        written, self._written = self._written, []
        if self._memo_generation != shape:
            return  # the memo was already stale before the wiring
        self._memo.pop(name, None)
        for sub in written:
            row = self._memo.get(sub)
            if row is not None:
                row.pop(name, None)
        self._memo_generation = self.schema.shape_generation

    def subset(self, sub: str, sup: str) -> bool:
        """Provably ``extent(sub) ⊆ extent(sup)``?"""
        self._fresh_memo()
        return self._subset(sub, sup, frozenset())

    def equal(self, first: str, second: str) -> bool:
        """Provably equal extents?"""
        return self.subset(first, second) and self.subset(second, first)

    def _subset(self, sub: str, sup: str, active: FrozenSet[Tuple[str, str]]) -> bool:
        if sub == sup:
            return True
        row = self._memo.get(sub)
        if row is None:
            row = self._memo[sub] = {}
        else:
            cached = row.get(sup)
            if cached is not None:
                return cached
        key = (sub, sup)
        if key in active:
            return False  # pessimistic on cycles; keeps the prover sound
        active = active | {key}
        result = self._subset_uncached(sub, sup, active)
        row[sup] = result
        self._written.append(sub)
        return result

    def _subset_uncached(
        self, sub: str, sup: str, active: FrozenSet[Tuple[str, str]]
    ) -> bool:
        # Existing is-a edges are extent-sound by construction.
        if self.schema.is_ancestor(sup, sub):
            return True
        sub_cls = self.schema[sub]
        sup_cls = self.schema[sup]
        # Normalise through extent-preserving derivations on either side.
        if (
            isinstance(sub_cls, VirtualClass)
            and sub_cls.derivation.op in EXTENT_PRESERVING_OPS
        ):
            if self._subset(sub_cls.derivation.source, sup, active):
                return True
        if (
            isinstance(sup_cls, VirtualClass)
            and sup_cls.derivation.op in EXTENT_PRESERVING_OPS
        ):
            if self._subset(sub, sup_cls.derivation.source, active):
                return True
        # Shrinking derivations on the sub side.
        if isinstance(sub_cls, VirtualClass):
            der = sub_cls.derivation
            if der.op in ("select", "difference"):
                if self._subset(der.sources[0], sup, active):
                    return True
            elif der.op == "union":
                if self._subset(der.sources[0], sup, active) and self._subset(
                    der.sources[1], sup, active
                ):
                    return True
            elif der.op == "intersect":
                if self._subset(der.sources[0], sup, active) or self._subset(
                    der.sources[1], sup, active
                ):
                    return True
        # Growing derivations on the sup side.
        if isinstance(sup_cls, VirtualClass):
            der = sup_cls.derivation
            if der.op == "union":
                if self._subset(sub, der.sources[0], active) or self._subset(
                    sub, der.sources[1], active
                ):
                    return True
        # Congruence: the same operator applied to pairwise-subsumed sources
        # yields subsumed results.  This is what positions a replayed
        # derivation (the add-class algorithm, figure 13 (e)) directly under
        # its template class.
        if isinstance(sub_cls, VirtualClass) and isinstance(sup_cls, VirtualClass):
            da, db = sub_cls.derivation, sup_cls.derivation
            if da.op == db.op:
                if (
                    da.op == "select"
                    and da.predicate.signature() == db.predicate.signature()
                    and self._subset(da.sources[0], db.sources[0], active)
                ):
                    return True
                if (
                    da.op == "difference"
                    and self._subset(da.sources[0], db.sources[0], active)
                    and self._subset(db.sources[1], da.sources[1], active)
                ):
                    return True
                if da.op == "intersect" and (
                    (
                        self._subset(da.sources[0], db.sources[0], active)
                        and self._subset(da.sources[1], db.sources[1], active)
                    )
                    or (
                        self._subset(da.sources[0], db.sources[1], active)
                        and self._subset(da.sources[1], db.sources[0], active)
                    )
                ):
                    return True
        return False
