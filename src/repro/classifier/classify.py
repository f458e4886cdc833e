"""The classification algorithm (Rundensteiner [17], section 3.1 subtask 2).

Given a freshly derived virtual class, the classifier integrates it into the
single global schema DAG:

1. **duplicate detection** — if an equivalent class already exists (identical
   derivation, or equal type with provably equal extent), the new class is
   discarded and the existing one reused.  Section 7 leans on this to make
   version merging trivial;
2. **positioning** — direct superclasses are the most specific existing
   classes that subsume the newcomer (smaller-or-equal type, provably
   larger-or-equal extent), direct subclasses the most general classes it
   subsumes;
3. **edge maintenance** — edges that the insertion makes transitive are
   removed, keeping the DAG a transitive reduction.

Extent subsumption uses the definitional prover of
:class:`~repro.schema.extents.ExtentRelations` — classification never touches
instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import CyclicSchema
from repro.obs.tracing import Tracer
from repro.schema.classes import ROOT_CLASS, Derivation, SchemaClass, VirtualClass
from repro.schema.extents import ExtentRelations
from repro.schema.graph import GlobalSchema
from repro.schema.types import property_names, type_signature


@dataclass
class ClassificationResult:
    """Outcome of classifying one derived class."""

    cls: SchemaClass
    created: bool
    duplicate_of: Optional[str] = None
    direct_supers: Tuple[str, ...] = ()
    direct_subs: Tuple[str, ...] = ()
    removed_edges: Tuple[Tuple[str, str], ...] = ()


class Classifier:
    """Positions derived virtual classes in a :class:`GlobalSchema`."""

    def __init__(self, schema: GlobalSchema, tracer: Optional[Tracer] = None) -> None:
        self.schema = schema
        self.relations = ExtentRelations(schema)
        self.tracer = tracer if tracer is not None else Tracer()

    # -- duplicate detection ------------------------------------------------

    def _find_duplicate(self, name: str) -> Optional[str]:
        """An existing class equivalent to the (already registered) ``name``:
        the first one in registration order.

        Only the schema's signature-bucket candidates are examined; every
        other class differs from ``name`` in both signatures.
        """
        target = self.schema[name]
        assert isinstance(target, VirtualClass)
        target_der_sig = target.derivation.signature()
        target_type_sig = type_signature(self.schema.type_of(name))
        for other_name in self.schema.duplicate_candidates(name):
            other = self.schema[other_name]
            if (
                isinstance(other, VirtualClass)
                and other.derivation.signature() == target_der_sig
            ):
                return other_name
            if type_signature(
                self.schema.type_of(other_name)
            ) == target_type_sig and self.relations.equal(name, other_name):
                return other_name
        return None

    # -- positioning -----------------------------------------------------------

    def _candidate_supers(self, name: str) -> List[str]:
        my_names = property_names(self.schema.type_of(name))
        candidates = []
        for other in self.schema.classes():
            if other.name == name:
                continue
            # a type's key view compares as a set without being copied
            other_names = self.schema.type_of(other.name).keys()
            if other_names <= my_names and self.relations.subset(name, other.name):
                candidates.append(other.name)
        return candidates

    def _candidate_subs(self, name: str) -> List[str]:
        my_names = property_names(self.schema.type_of(name))
        candidates = []
        for other in self.schema.classes():
            if other.name == name:
                continue
            other_names = self.schema.type_of(other.name).keys()
            if my_names <= other_names and self.relations.subset(other.name, name):
                candidates.append(other.name)
        return candidates

    @staticmethod
    def _minimal(candidates: List[str], schema: GlobalSchema) -> List[str]:
        """Candidates with no other candidate strictly below them (i.e. the
        most specific ones)."""
        return sorted(
            c
            for c in candidates
            if not any(
                other != c and schema.is_ancestor(c, other) for other in candidates
            )
        )

    @staticmethod
    def _maximal(candidates: List[str], schema: GlobalSchema) -> List[str]:
        """Candidates with no other candidate strictly above them."""
        return sorted(
            c
            for c in candidates
            if not any(
                other != c and schema.is_ancestor(other, c) for other in candidates
            )
        )

    # -- entry point -------------------------------------------------------------

    def classify_new(
        self,
        name: str,
        derivation: Derivation,
        meta: Optional[dict] = None,
    ) -> ClassificationResult:
        """Derive-and-integrate: register ``name`` with ``derivation``, then
        either discard it as a duplicate or wire it into the DAG.

        Returns a :class:`ClassificationResult`; ``result.cls`` is the class
        to use from now on (the existing one when a duplicate was found).
        """
        with self.tracer.span("classify", class_name=name, op=derivation.op) as span:
            result = self._classify_new(name, derivation, meta)
            span.set(created=result.created, effective=result.cls.name)
            if result.duplicate_of is not None:
                span.set(duplicate_of=result.duplicate_of)
            return result

    def _classify_new(
        self,
        name: str,
        derivation: Derivation,
        meta: Optional[dict] = None,
    ) -> ClassificationResult:
        vc = self.schema.add_virtual_class_raw(name, derivation)
        if meta:
            vc.meta.update(meta)

        duplicate = self._find_duplicate(name)
        if duplicate is not None:
            self.schema.remove_class(name)
            return ClassificationResult(
                cls=self.schema[duplicate],
                created=False,
                duplicate_of=duplicate,
            )

        supers = self._minimal(self._candidate_supers(name), self.schema)
        subs = self._maximal(self._candidate_subs(name), self.schema)
        if not supers:
            supers = [ROOT_CLASS]
        # when every super already reaches every sub, wiring ``name`` in
        # adds no reachability between the other classes
        local = all(
            self.schema.is_ancestor(sup, sub) for sup in supers for sub in subs
        )
        shape = self.schema.shape_generation

        for sup in supers:
            self.schema.add_edge(sup, name)
        placed_subs = []
        for sub in subs:
            # a sound prover plus duplicate elimination should never produce
            # a cycle here, but a raw add_edge failure must not corrupt the
            # schema — skip the redundant edge instead.
            if self.schema.is_ancestor_or_equal(sub, name):
                continue
            self.schema.add_edge(name, sub)
            placed_subs.append(sub)

        removed = []
        for sup in supers:
            for sub in placed_subs:
                if self.schema.has_edge(sup, sub):
                    self.schema.remove_edge(sup, sub)
                    removed.append((sup, sub))

        if local:
            self.relations.carry_over(shape, name)
        return ClassificationResult(
            cls=vc,
            created=True,
            direct_supers=tuple(supers),
            direct_subs=tuple(placed_subs),
            removed_edges=tuple(removed),
        )
