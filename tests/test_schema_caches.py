"""Schema-side caches stay coherent, and classification cost stays local.

The global schema keeps cached types, the duplicate-detection signature
index and reachability closures across every mutation that cannot change
them, and the classifier's extent prover keeps its memo across class
registrations (DESIGN.md's classifier section tabulates which mutation
drops which cache).  The coherence sweep replays seeded differential-fuzz
sequences (savepoint aborts, checkpoints, clean recovery, crashes)
interleaved with EXPLAIN dry runs, then vacuum and ``define_local_property``,
and after every step compares each cached entry with a recompute on a
cache-free schema rebuilt from the same memento.  The remaining tests pin
the cost model itself: classifying one class computes the same handful of
types and type signatures at 60 classes as at 500, and the memento bracket
of EXPLAIN leaves the next schema change warm.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.algebra.expressions import Compare
from repro.checking.commands import Command, CommandGenerator
from repro.checking.runner import DifferentialHarness
from repro.classifier import classify as classifymod
from repro.classifier.classify import Classifier
from repro.errors import SchemaError, TseError
from repro.schema import graph as graphmod
from repro.schema import types as typemod
from repro.schema.classes import Derivation, VirtualClass
from repro.schema.extents import ExtentRelations
from repro.schema.graph import GlobalSchema
from repro.schema.properties import Attribute
from repro.workloads.sjoberg import SjobergTrace

SEEDS = (3, 11, 29)
STEPS = 36


# ---------------------------------------------------------------------------
# coherence oracle
# ---------------------------------------------------------------------------

def _cold_copy(schema: GlobalSchema) -> GlobalSchema:
    """A cache-free schema over the same classes and edges."""
    fresh = GlobalSchema()
    fresh.restore(schema.memento())
    assert not fresh._type_cache and fresh._index is None
    return fresh


def _type_key(schema: GlobalSchema, name: str) -> object:
    try:
        return hash(typemod.type_signature(schema.type_of(name)))
    except SchemaError:
        return graphmod._UNTYPED


def _reference_duplicate(schema: GlobalSchema, relations, name: str):
    """The classifier's duplicate search as a scan over every class."""
    target = schema[name]
    target_der_sig = target.derivation.signature()
    target_type_sig = typemod.type_signature(schema.type_of(name))
    for other in schema.classes():
        if other.name == name:
            continue
        if (
            isinstance(other, VirtualClass)
            and other.derivation.signature() == target_der_sig
        ):
            return other.name
        if typemod.type_signature(
            schema.type_of(other.name)
        ) == target_type_sig and relations.equal(name, other.name):
            return other.name
    return None


def assert_caches_coherent(db) -> None:
    assert_schema_caches_coherent(db.schema, db.algebra.classifier.relations)


def assert_schema_caches_coherent(schema: GlobalSchema, relations=None) -> None:
    cold = _cold_copy(schema)

    for name, cached in schema._type_cache.items():
        assert cached == cold.type_of(name), f"stale type of {name!r}"

    for cls in schema.classes():
        if isinstance(cls, VirtualClass):
            der = cls.derivation
            assert der.signature() == dataclasses.replace(der).signature()

    index = schema._index
    if index is not None:
        ranked = sorted(index.order, key=index.order.__getitem__)
        assert ranked == list(schema._classes), "index order != registration order"
        assert not set(index.pending) & set(index.type_keys)
        assert set(index.pending) | set(index.type_keys) == set(index.order)
        hashed_virtual = 0
        for name, key in index.type_keys.items():
            assert key == _type_key(cold, name), f"stale type key of {name!r}"
            assert name in index.by_type[key]
            der_key = graphmod._derivation_key(schema[name])
            if der_key is not None:
                hashed_virtual += 1
                assert name in index.by_derivation[der_key]
        assert sum(map(len, index.by_type.values())) == len(index.type_keys)
        assert sum(map(len, index.by_derivation.values())) == hashed_virtual

    if schema._closure_generation == schema.shape_generation:
        queries = {
            "anc": cold.ancestors,
            "desc": cold.descendants,
            "anc+": cold.ancestors_or_self,
        }
        for (kind, name), closure in schema._closure_cache.items():
            assert closure == queries[kind](name), f"stale {kind} closure of {name!r}"

    if relations is not None and relations._memo_generation == schema.shape_generation:
        prover = ExtentRelations(cold)
        for sub, row in relations._memo.items():
            for sup, proven in row.items():
                assert proven == prover.subset(sub, sup), f"stale proof {sub!r} <= {sup!r}"


def assert_duplicates_match_scan(db) -> None:
    """Index-backed duplicate search == the full scan, for every class."""
    schema = db.schema
    indexed = Classifier(schema)
    scanned = ExtentRelations(schema)
    for cls in list(schema.classes()):
        if isinstance(cls, VirtualClass):
            assert indexed._find_duplicate(cls.name) == _reference_duplicate(
                schema, scanned, cls.name
            ), cls.name


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------

def _sequence(seed: int):
    """Seeded commands with a savepoint abort, a crash, and a checkpoint
    followed by a clean recovery forced into every run."""
    gen = CommandGenerator(seed)
    commands = gen.generate(STEPS)
    aborted = gen.gen_op("txn")
    forced = {
        12: Command("txn", {**aborted.args, "abort": True}),
        20: Command("checkpoint", {}),
        21: Command("recover_clean", {}),
        30: gen.gen_op("crash"),
    }
    for position in sorted(forced, reverse=True):
        commands.insert(position, forced[position])
    return commands


def _explain_probe(db, step: int) -> None:
    views = db.view_names()
    if not views:
        return  # still inside the setup prefix
    view = views[step % len(views)]
    classes = db.view(view).class_names()
    target = classes[step % len(classes)]
    try:
        db.explain(view, "add_attribute", name=f"xp{step}", to=target, domain="int")
    except TseError:
        pass  # a rejected dry run must leave the caches coherent too


@pytest.mark.parametrize("seed", SEEDS)
def test_caches_coherent_through_seeded_sequences(seed):
    harness = DifferentialHarness()
    try:
        for step, command in enumerate(_sequence(seed)):
            harness.apply(command)
            assert_caches_coherent(harness.db)
            if step % 4 == 3:
                _explain_probe(harness.db, step)
                assert_caches_coherent(harness.db)
        db = harness.db
        assert_duplicates_match_scan(db)
        assert_caches_coherent(db)

        # vacuum, with garbage to drop: a class no view selects
        base = next(c.name for c in db.schema.base_classes() if c.name != "ROOT")
        db.define_virtual_class(
            "Garbage",
            Derivation(op="refine", sources=(base,), new_properties=(Attribute("zz"),)),
        )
        assert_caches_coherent(db)
        assert "Garbage" in db.vacuum()
        assert_caches_coherent(db)

        # a definition change re-types the class and everything derived
        db.schema.define_local_property(base, Attribute("late", domain="int"))
        assert_caches_coherent(db)
        view = db.view_names()[0]
        target = db.view(view).class_names()[0]
        try:
            db.schema_change(
                view, "add_attribute", {"name": "after", "to": target, "domain": "int"}
            )
        except TseError:
            pass
        assert_caches_coherent(db)
        assert_duplicates_match_scan(db)
    finally:
        harness.close()


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

def _grow(db, evolving, events, rng, classes: int) -> None:
    """Replay Sjøberg events until the global schema holds ``classes``."""
    while len(db.schema.class_names()) < classes:
        event = next(events)
        try:
            if event[0] == "add_class":
                anchor = rng.choice(evolving.class_names())
                evolving.add_class(event[1], connected_to=anchor)
            elif event[0] == "add_attribute":
                target = rng.choice(evolving.class_names())
                evolving.add_attribute(event[1], to=target, domain="int")
            else:
                _, target, attr = event
                evolving.delete_attribute(attr, from_=target)
                evolving.add_attribute(attr + "_r", to=target, domain="int")
        except TseError:
            continue


def _classify_probe(db, monkeypatch, tag: str) -> dict:
    counts = {"types": 0, "signatures": 0}
    compute_type = GlobalSchema._compute_type
    type_signature = typemod.type_signature

    def counting_compute_type(self, name, active):
        counts["types"] += 1
        return compute_type(self, name, active)

    def counting_type_signature(type_map):
        counts["signatures"] += 1
        return type_signature(type_map)

    derivation = Derivation(
        op="refine",
        sources=("Registry0",),
        new_properties=(Attribute(f"probe_{tag}", domain="int"),),
    )
    with monkeypatch.context() as patch:
        patch.setattr(GlobalSchema, "_compute_type", counting_compute_type)
        patch.setattr(typemod, "type_signature", counting_type_signature)
        patch.setattr(classifymod, "type_signature", counting_type_signature)
        result = db.algebra.classifier.classify_new(f"Probe_{tag}", derivation)
    assert result.created
    return counts


def test_classification_cost_independent_of_schema_size(monkeypatch):
    trace = SjobergTrace()
    db, evolving, _legacy = trace.build_database()
    events = iter([e for month in trace.monthly_plan() for e in month])
    rng = random.Random(trace.seed + 2)
    measured = []
    for size in (60, 500):
        _grow(db, evolving, events, rng, size)
        # warm-up: hash whatever the last schema change registered
        _classify_probe(db, monkeypatch, f"warm{size}")
        measured.append(_classify_probe(db, monkeypatch, str(size)))
    small, large = measured
    assert small == large, measured
    # the new class's type (plus its source, a cache hit) and its signature
    # (for the classifier's comparison and for the index bucket)
    assert large["types"] <= 4 and large["signatures"] <= 4, measured


def _spy_computed_types(monkeypatch) -> list:
    computed = []
    compute_type = GlobalSchema._compute_type

    def spy(self, name, active):
        if name not in self._type_cache:
            computed.append(name)
        return compute_type(self, name, active)

    monkeypatch.setattr(GlobalSchema, "_compute_type", spy)
    return computed


def _abort_in_savepoint(db) -> None:
    class Abort(Exception):
        pass

    with pytest.raises(Abort):
        with db.transaction():
            db.schema_change(
                "health_system",
                "add_attribute",
                {"name": "probe", "to": "Registry2", "domain": "int"},
            )
            raise Abort()


def _explain(db) -> None:
    db.explain("health_system", "add_attribute", name="probe", to="Registry2", domain="int")


@pytest.mark.parametrize("bracket", [_explain, _abort_in_savepoint], ids=["explain", "savepoint_abort"])
def test_restore_keeps_existing_types_warm(monkeypatch, bracket):
    db, evolving, _legacy = SjobergTrace().build_database()
    evolving.add_attribute("warm", to="Registry1", domain="int")
    existing = set(db.schema.class_names())
    assert existing <= set(db.schema._type_cache)

    bracket(db)
    assert set(db.schema.class_names()) == existing
    assert existing <= set(db.schema._type_cache)

    computed = _spy_computed_types(monkeypatch)
    db.schema_change(
        "health_system", "add_attribute", {"name": "probe", "to": "Registry2", "domain": "int"}
    )
    assert computed, "the change's new classes must be typed"
    assert not set(computed) & existing, sorted(set(computed) & existing)


def test_duplicate_search_returns_first_match_in_registration_order():
    schema = GlobalSchema()
    schema.add_base_class("A", (Attribute("x"),))
    # an earlier class equal in type and extent, a later one equal in
    # derivation: the scan meets the earlier one first
    schema.add_virtual_class_raw("Same", Derivation(op="union", sources=("A", "A")))
    schema.add_virtual_class_raw("Twin", Derivation(op="union", sources=("A", "A")))
    schema.add_virtual_class_raw("New", Derivation(op="union", sources=("A", "A")))
    classifier = Classifier(schema)
    assert classifier._find_duplicate("New") == "A"
    assert schema.duplicate_candidates("New") == ["A", "Same", "Twin"]


def test_untyped_class_stays_a_candidate_until_it_can_be_typed():
    schema = GlobalSchema()
    schema.add_base_class("A", (Attribute("x"),))
    schema.add_base_class("B", (Attribute("y"),))
    refine = lambda source, attr: Derivation(  # noqa: E731
        op="refine", sources=(source,), new_properties=(Attribute(attr),)
    )
    schema.add_virtual_class_raw("Dep", refine("A", "z"))
    schema.add_virtual_class_raw("Target", refine("B", "w"))
    # removing a class another class derives from leaves that class untyped;
    # the scan would raise on reaching it, and so does the indexed search
    schema.remove_class("A")
    assert "Dep" in schema.duplicate_candidates("Target")
    with pytest.raises(SchemaError):
        Classifier(schema)._find_duplicate("Target")
    assert_schema_caches_coherent(schema)
    schema.add_base_class("A", (Attribute("g"),))
    assert "Dep" not in schema.duplicate_candidates("Target")
    assert Classifier(schema)._find_duplicate("Target") is None
    assert_schema_caches_coherent(schema)


def test_restore_renumbers_classes_removed_since_the_memento():
    schema = GlobalSchema()
    schema.add_base_class("A", (Attribute("x"),))
    schema.add_virtual_class_raw("Early", Derivation(op="union", sources=("A", "A")))
    schema.add_base_class("B", (Attribute("y"),))
    schema.duplicate_candidates("B")  # build the index
    memento = schema.memento()
    schema.remove_class("Early")
    assert_schema_caches_coherent(schema)
    schema.restore(memento)
    assert_schema_caches_coherent(schema)
    assert schema.duplicate_candidates("Early") == ["A"]


# ---------------------------------------------------------------------------
# prover memo across a classification
# ---------------------------------------------------------------------------

def test_carried_memo_drops_proofs_about_the_wired_class():
    """``X`` sits under ``S`` under ``R`` but is not provably inside
    ``N = P1 ∪ Q`` until ``N`` is wired in above ``R``: the proof made
    while ``N`` had no edges must not survive the wiring."""
    schema = GlobalSchema()
    schema.add_base_class("P1", (Attribute("c"), Attribute("a")))
    schema.add_base_class("Q", (Attribute("c"),))
    classifier = Classifier(schema)
    classifier.classify_new("R", Derivation(op="hide", sources=("P1",), hidden=("a",)))
    positive = Compare("c", ">", 0)
    classifier.classify_new("S", Derivation(op="select", sources=("R",), predicate=positive))
    schema.add_base_class("X", (Attribute("e"),), inherits_from=("S",))

    shape = schema.shape_generation
    result = classifier.classify_new("N", Derivation(op="union", sources=("P1", "Q")))
    assert set(result.direct_subs) == {"R", "Q"} and result.direct_supers == ("ROOT",)
    assert classifier.relations._memo_generation == schema.shape_generation != shape
    assert classifier.relations.subset("X", "N")
    assert_schema_caches_coherent(schema, classifier.relations)


def test_carried_memo_drops_the_wired_class_own_proofs():
    """``N = select A`` is not provably inside ``Top`` while it has no
    edges (``A`` no longer sits under ``U``); wired in under ``U``, which
    sits under ``Top``, it is."""
    schema = GlobalSchema()
    schema.add_base_class("A", (Attribute("c"),))
    schema.add_base_class("B", (Attribute("c"),))
    schema.add_base_class("Top")
    classifier = Classifier(schema)
    classifier.classify_new("U", Derivation(op="union", sources=("A", "B")))
    schema.add_edge("Top", "U")
    schema.remove_edge("U", "A")
    schema.add_edge("ROOT", "A")

    positive = Compare("c", ">", 0)
    result = classifier.classify_new("N", Derivation(op="select", sources=("A",), predicate=positive))
    assert set(result.direct_supers) == {"A", "U"} and not result.direct_subs
    assert classifier.relations.subset("N", "Top")
    assert_schema_caches_coherent(schema, classifier.relations)


def test_memo_is_dropped_when_wiring_connects_other_classes():
    """With the edge ``B -> Both`` deleted, wiring ``N = P ∩ B`` between
    ``B`` and ``Both`` makes ``X`` (under ``Both``) reach ``B`` again: a
    proof about ``X`` and ``B`` from before the wiring is stale."""
    schema = GlobalSchema()
    schema.add_base_class("P", (Attribute("c"),))
    schema.add_base_class("B", (Attribute("c"), Attribute("d")))
    classifier = Classifier(schema)
    positive = Compare("c", ">", 0)
    classifier.classify_new("Pos", Derivation(op="select", sources=("P",), predicate=positive))
    classifier.classify_new("Both", Derivation(op="intersect", sources=("Pos", "B")))
    schema.add_base_class("X", (Attribute("e"),), inherits_from=("Both",))
    schema.remove_edge("B", "Both")
    assert not classifier.relations.subset("X", "B")

    result = classifier.classify_new("N", Derivation(op="intersect", sources=("P", "B")))
    assert set(result.direct_supers) == {"P", "B"} and result.direct_subs == ("Both",)
    assert classifier.relations.subset("X", "B")
    assert_schema_caches_coherent(schema, classifier.relations)

