"""Schema classes: base classes, virtual classes, and derivations.

The glossary distinction the whole system rests on (appendix of the paper):

* **base classes** can actually store instances;
* **virtual classes** are derived via an object-algebra query; their extent
  is defined by the query over the extents of their *source classes*;
* the **global schema** integrates all of them into one DAG.

A virtual class remembers its :class:`Derivation` — the algebra operator,
source class names and parameters that define it.  Derivations drive three
things downstream: type computation (:mod:`repro.schema.types` rules applied
in :mod:`repro.schema.graph`), extent evaluation and the definitional extent
relations the classifier reasons with (:mod:`repro.schema.extents`), and
update propagation (:mod:`repro.algebra.updates`, the origin-class chase of
section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import DuplicateProperty, InvalidDerivation
from repro.schema.properties import (
    MethodRegistry,
    Property,
    property_from_dict,
    property_to_dict,
)

#: The system root class every schema hangs off (section 6.6.1 calls it ROOT,
#: figure 15 calls it OBJECT; one name suffices).
ROOT_CLASS = "ROOT"

#: Operator tags a derivation may carry.
DERIVATION_OPS = frozenset(
    {"select", "hide", "refine", "union", "difference", "intersect"}
)

#: Operators with exactly one source class.
UNARY_OPS = frozenset({"select", "hide", "refine"})

#: Operators whose result's extent provably equals the source's extent.
EXTENT_PRESERVING_OPS = frozenset({"hide", "refine"})


@dataclass(frozen=True)
class SharedProperty:
    """The ``refine C1:x for C2`` form of section 3.2.

    Instances of the refined class share the property ``name`` as defined in
    ``from_class`` — the same code block for methods, the same storage
    definition for stored attributes.
    """

    from_class: str
    name: str


@dataclass(frozen=True)
class Derivation:
    """The defining query of a virtual class.

    Exactly one operator; ``sources`` holds one class name for unary
    operators and two for set operators.  Parameters:

    * ``predicate`` — for ``select``; any object with ``matches(reader)`` and
      ``signature()`` (see :mod:`repro.algebra.expressions`).
    * ``hidden`` — property names removed by ``hide``.
    * ``new_properties`` — properties *introduced* by ``refine`` (the
      capacity-augmenting case when they are stored attributes).
    * ``shared_properties`` — properties *inherited from another class* by
      the extended ``refine C1:x for C2`` form.
    """

    op: str
    sources: Tuple[str, ...]
    predicate: Optional[object] = None
    hidden: Tuple[str, ...] = ()
    new_properties: Tuple[Property, ...] = ()
    shared_properties: Tuple[SharedProperty, ...] = ()

    def __post_init__(self) -> None:
        if self.op not in DERIVATION_OPS:
            raise InvalidDerivation(f"unknown algebra operator {self.op!r}")
        expected = 1 if self.op in UNARY_OPS else 2
        if len(self.sources) != expected:
            raise InvalidDerivation(
                f"{self.op} takes {expected} source class(es), "
                f"got {len(self.sources)}"
            )
        if self.op == "select" and self.predicate is None:
            raise InvalidDerivation("select requires a predicate")
        if self.op == "hide" and not self.hidden:
            raise InvalidDerivation("hide requires at least one property name")
        if self.op == "refine" and not (self.new_properties or self.shared_properties):
            raise InvalidDerivation("refine requires at least one property")

    @property
    def source(self) -> str:
        """The single source of a unary derivation."""
        if self.op not in UNARY_OPS:
            raise InvalidDerivation(f"{self.op} has multiple sources")
        return self.sources[0]

    def signature(self) -> tuple:
        """Structural fingerprint for duplicate-derivation detection.

        Computed once: a derivation is frozen, so its fingerprint is too.
        """
        cached = self.__dict__.get("_signature")
        if cached is not None:
            return cached
        pred_sig = self.predicate.signature() if self.predicate is not None else None
        signature = (
            self.op,
            self.sources,
            pred_sig,
            tuple(sorted(self.hidden)),
            tuple(sorted(p.signature() for p in self.new_properties)),
            tuple(sorted((s.from_class, s.name) for s in self.shared_properties)),
        )
        object.__setattr__(self, "_signature", signature)
        return signature

    def describe(self) -> str:
        """Render the derivation in the paper's algebra syntax."""
        if self.op == "select":
            return f"select from {self.source} where {self.predicate}"
        if self.op == "hide":
            return f"hide {', '.join(self.hidden)} from {self.source}"
        if self.op == "refine":
            parts = [p.name for p in self.new_properties]
            parts += [f"{s.from_class}:{s.name}" for s in self.shared_properties]
            return f"refine {', '.join(parts)} for {self.source}"
        return f"{self.op}({self.sources[0]}, {self.sources[1]})"


class SchemaClass:
    """Common behaviour of base and virtual classes.

    Classes are identified by name within one global schema.  ``meta`` is an
    open bag used by the TSE layer to record provenance (which schema change
    created the class, which class it primes/replaces in a view).
    """

    is_base: bool = False

    def __init__(self, name: str) -> None:
        if not name or not all(part.isidentifier() for part in name.split("'")[:1]):
            raise InvalidDerivation(f"invalid class name: {name!r}")
        self.name = name
        self.meta: Dict[str, object] = {}
        #: set False for object-generating derivations (section 9 future work)
        self.updatable: bool = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = "base" if self.is_base else "virtual"
        return f"<{tag} class {self.name}>"


class BaseClass(SchemaClass):
    """A class that actually stores instances.

    ``inherits_from`` records the *authored* is-a parents used for property
    inheritance.  The classifier may later rewire the DAG around the class
    (inserting virtual classes above or below it), but inheritance semantics
    of a base class never change after authoring — that is exactly why
    existing views are unaffected by view evolution (Propositions B of
    section 6).
    """

    is_base = True

    def __init__(
        self,
        name: str,
        properties: Tuple[Property, ...] = (),
        inherits_from: Tuple[str, ...] = (ROOT_CLASS,),
    ) -> None:
        super().__init__(name)
        self.local_properties: Dict[str, Property] = {}
        for prop in properties:
            self.define_property(prop)
        self.inherits_from: Tuple[str, ...] = tuple(inherits_from)

    def define_property(self, prop: Property) -> None:
        """Attach a locally defined property (rejects duplicates by name)."""
        if prop.name in self.local_properties:
            raise DuplicateProperty(
                f"class {self.name!r} already defines {prop.name!r}"
            )
        self.local_properties[prop.name] = prop


class VirtualClass(SchemaClass):
    """A class derived by the object algebra.

    ``propagation_source`` names the source class that ``create``/``add``
    updates should be routed to when this class is a union created by the
    add-edge / delete-edge algorithms (the substituted-class rule of section
    6.5.4); ``None`` means the generic rules of section 3.4 apply.
    """

    is_base = False

    def __init__(self, name: str, derivation: Derivation) -> None:
        super().__init__(name)
        self.derivation = derivation
        self.propagation_source: Optional[str] = None


def root_class() -> BaseClass:
    """A fresh ROOT class (no properties, no parents)."""
    root = BaseClass(ROOT_CLASS, properties=(), inherits_from=())
    return root


def derivation_to_dict(derivation: Derivation) -> dict:
    return {
        "op": derivation.op,
        "sources": list(derivation.sources),
        "predicate": (
            derivation.predicate.to_dict() if derivation.predicate is not None else None
        ),
        "hidden": list(derivation.hidden),
        "new_properties": [property_to_dict(p) for p in derivation.new_properties],
        "shared_properties": [
            {"from_class": s.from_class, "name": s.name}
            for s in derivation.shared_properties
        ],
    }


def derivation_from_dict(
    data: dict, owner: str, registry: Optional[MethodRegistry]
) -> Derivation:
    from repro.algebra.expressions import predicate_from_dict

    predicate = data["predicate"]
    return Derivation(
        op=data["op"],
        sources=tuple(data["sources"]),
        predicate=predicate_from_dict(predicate) if predicate is not None else None,
        hidden=tuple(data["hidden"]),
        new_properties=tuple(
            property_from_dict(p, owner, registry) for p in data["new_properties"]
        ),
        shared_properties=tuple(
            SharedProperty(s["from_class"], s["name"])
            for s in data["shared_properties"]
        ),
    )
