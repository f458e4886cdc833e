"""Predicate compilation: the compiled closure IS the interpreter, faster.

The contract under test (see :mod:`repro.algebra.compiler`): for every
predicate AST and every attribute reader — including readers over dotted
paths and readers that raise — the compiled form returns exactly what the
``matches`` tree-walk returns, or raises exactly the same exception type
with the same message.  Properties are asserted hypothesis-style over
randomized ASTs, then pinned with directed cases for each lowering rule
(comparator folding, ``IsIn`` interning, And/Or flattening, unknown-node
fallback, the row form's pre-bound column readers, and whole select
extents against an interpreted scan).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra import compiler
from repro.algebra.expressions import (
    And,
    Compare,
    IsIn,
    IsSet,
    Not,
    Or,
    Predicate,
    TruePredicate,
)
from repro.errors import UnknownProperty

COMMON = dict(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: attribute vocabulary — includes dotted paths, which are opaque strings to
#: both evaluators (the *reader* traverses them, not the predicate)
ATTRS = ("age", "gpa", "name", "advisor.name", "advisor.dept.budget")

VALUES = st.one_of(
    st.none(),
    st.integers(-50, 50),
    st.sampled_from(["ada", "alan", "grace"]),
    st.booleans(),
)


@st.composite
def predicates(draw, depth=3):
    attr = st.sampled_from(ATTRS)
    if depth == 0:
        kind = draw(st.sampled_from(["compare", "isin", "isset", "true"]))
    else:
        kind = draw(
            st.sampled_from(
                ["compare", "isin", "isset", "true", "and", "or", "not"]
            )
        )
    if kind == "compare":
        return Compare(
            draw(attr),
            draw(st.sampled_from(["==", "!=", "<", "<=", ">", ">="])),
            draw(VALUES),
        )
    if kind == "isin":
        return IsIn(draw(attr), tuple(draw(st.lists(VALUES, max_size=4))))
    if kind == "isset":
        return IsSet(draw(attr))
    if kind == "true":
        return TruePredicate()
    if kind == "not":
        return Not(draw(predicates(depth=depth - 1)))
    left = draw(predicates(depth=depth - 1))
    right = draw(predicates(depth=depth - 1))
    return And(left, right) if kind == "and" else Or(left, right)


@st.composite
def readers(draw):
    """A reader over a random row; unknown attributes read as ``None``."""
    row = {name: draw(VALUES) for name in ATTRS}
    return lambda attr: row.get(attr)


def outcomes(fn, *args):
    """``(result, error_type, error_message)`` triple for exact comparison."""
    try:
        return (fn(*args), None, None)
    except Exception as exc:  # noqa: BLE001 - the property compares error identity
        return (None, type(exc), str(exc))


class TestCompiledEqualsInterpreted:
    @settings(**COMMON)
    @given(pred=predicates(), reader=readers())
    def test_total_readers(self, pred, reader):
        compiled = compiler.compile_predicate(pred)
        assert compiled(reader) == pred.matches(reader)

    @settings(**COMMON)
    @given(pred=predicates(), poison=st.sampled_from(ATTRS), reader=readers())
    def test_raising_readers(self, pred, poison, reader):
        """A reader that raises (e.g. dangling dotted path) raises the same
        error from both evaluators — or neither, when short-circuiting
        skips the poisoned attribute in both."""

        def raising(attr):
            if attr == poison:
                raise UnknownProperty(f"no property {attr!r}")
            return reader(attr)

        compiled = compiler.compile_predicate(pred)
        assert outcomes(compiled, raising) == outcomes(pred.matches, raising)

    @settings(**COMMON)
    @given(pred=predicates())
    def test_row_matcher_equals_interpreted(self, pred):
        """The row form (pre-bound per-attribute OID readers) agrees with
        the interpreter evaluated through an equivalent per-object reader."""
        table = {
            oid: {name: (oid * 7 + i) % 5 if i % 2 else None
                  for i, name in enumerate(ATTRS)}
            for oid in range(6)
        }
        resolve = lambda attr: (lambda oid, _a=attr: table[oid].get(_a))
        reader_factory = lambda oid: (lambda attr: table[oid].get(attr))
        row_fn = compiler.row_matcher(pred, resolve, reader_factory)
        for oid in table:
            assert row_fn(oid) == pred.matches(reader_factory(oid))


class TestLoweringRules:
    def test_ordering_against_none_is_false(self):
        reader = lambda attr: None
        for op in ("<", "<=", ">", ">="):
            pred = Compare("age", op, 21)
            assert pred.matches(reader) is False
            assert compiler.compile_predicate(pred)(reader) is False

    def test_equality_against_none_still_works(self):
        pred = Compare("age", "==", None)
        assert compiler.compile_predicate(pred)(lambda a: None) is True
        assert compiler.compile_predicate(pred)(lambda a: 3) is False

    def test_isin_unhashable_constants_fall_back_to_scan(self):
        pred = IsIn("tags", ([1, 2], [3]))
        compiled = compiler.compile_predicate(pred)
        assert compiled(lambda a: [1, 2]) is True
        assert compiled(lambda a: [9]) is False

    def test_and_or_short_circuit_order_matches_interpreter(self):
        calls = []

        def reader(attr):
            calls.append(attr)
            return {"a": 1, "b": 2}.get(attr)

        pred = Or(And(Compare("a", "==", 0), Compare("b", "==", 2)),
                  Compare("b", "==", 2))
        compiled = compiler.compile_predicate(pred)
        calls.clear()
        assert pred.matches(reader) is True
        interpreted_calls = list(calls)
        calls.clear()
        assert compiled(reader) is True
        assert calls == interpreted_calls

    def test_unknown_node_falls_back_to_bound_matches(self):
        class Weird(Predicate):
            def matches(self, reader):
                return reader("x") == 42

            def signature(self):
                return ("weird",)

        pred = Weird()
        compiled = compiler.compile_predicate(pred)
        assert compiled(lambda a: 42) is True
        assert compiler.compiler_stats()["fallbacks"] >= 1

    def test_cache_shares_closures_per_signature(self):
        compiler.clear_cache()
        first = compiler.compile_predicate(Compare("age", ">=", 21))
        second = compiler.compile_predicate(Compare("age", ">=", 21))
        assert first is second
        assert compiler.compiler_stats()["hits"] >= 1

    def test_row_matcher_unliftable_node_uses_reader_fallback(self):
        class Weird(Predicate):
            def matches(self, reader):
                return reader("x") == 1

            def signature(self):
                return ("weird-row",)

        seen = []
        fn = compiler.row_matcher(
            And(Compare("x", "==", 1), Weird()),
            resolve=lambda attr: (lambda oid: 1),
            reader_factory=lambda oid: seen.append(oid) or (lambda attr: 1),
        )
        assert fn(7) is True
        assert seen == [7], "fallback must evaluate through the per-object reader"


def test_matcher_is_the_cached_compiled_closure():
    pred = Compare("age", ">=", 21)
    assert compiler.matcher(pred) is compiler.compile_predicate(pred)


def test_select_extents_equal_an_interpreted_scan():
    """The evaluators' row-compiled select matchers keep exactly the
    members the interpreted ``matches`` keeps over the same source."""
    from repro.schema.extents import ExtentEvaluator, attribute_reader
    from repro.workloads.extent_maintenance import build_select_workload

    db, _ = build_select_workload(40)
    scratch = ExtentEvaluator(db.schema, db.pool)
    for name in ("Adults", "Honors"):
        derivation = db.schema[name].derivation
        source = derivation.source
        interpreted = frozenset(
            oid
            for oid in scratch.extent(source)
            if derivation.predicate.matches(
                attribute_reader(db.schema, db.pool, source, oid)
            )
        )
        assert interpreted, f"{name} must select someone for the check to bite"
        assert db.evaluator.extent(name) == interpreted
        assert scratch.extent(name) == interpreted
