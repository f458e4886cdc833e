"""Predicate expressions for the ``select`` algebra operator.

MultiView's ``select from <class> where <predicate>`` needs a predicate
language over attribute values.  We provide a small, explicitly-constructed
AST — comparisons, boolean connectives and membership tests — that evaluates
against an *attribute reader* (a callable mapping attribute name to value in
the context of one object and one class).  Every node carries a stable
``signature()`` so that two textually identical predicates compare equal,
which duplicate-class detection relies on, and a ``to_dict``/``from_dict``
pair for snapshot persistence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Tuple, Type

from repro.errors import PredicateError

#: An attribute reader: maps attribute name -> value for one object.
Reader = Callable[[str], object]


class Predicate:
    """Base class of all predicate nodes."""

    def matches(self, reader: Reader) -> bool:
        raise NotImplementedError

    def signature(self) -> tuple:
        raise NotImplementedError

    def attributes(self) -> FrozenSet[str]:
        """Attribute paths this predicate reads.

        Dotted entries (``"advisor.name"``) traverse object-valued
        attributes.  Incremental extent maintenance uses this to decide
        which value writes can change the predicate's outcome; predicate
        types that cannot enumerate their reads should not implement it
        (the dependency analyzer then falls back to conservative
        invalidation).
        """
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    # boolean-operator sugar --------------------------------------------------

    def __and__(self, other: "Predicate") -> "And":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


_COMPARATORS: Dict[str, Callable[[object, object], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Compare(Predicate):
    """``attribute <op> constant`` — e.g. ``Compare("age", ">=", 21)``."""

    attribute: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise PredicateError(f"unknown comparison operator {self.op!r}")

    def matches(self, reader: Reader) -> bool:
        actual = reader(self.attribute)
        try:
            return _COMPARATORS[self.op](actual, self.value)
        except TypeError:
            # Unset attributes (None) never satisfy an ordering comparison;
            # equality against None still works through the == branch above.
            return False

    def signature(self) -> tuple:
        return ("compare", self.attribute, self.op, self.value)

    def attributes(self) -> FrozenSet[str]:
        return frozenset({self.attribute})

    def to_dict(self) -> dict:
        return {
            "kind": "compare",
            "attribute": self.attribute,
            "op": self.op,
            "value": self.value,
        }

    def __str__(self) -> str:
        return f"{self.attribute} {self.op} {self.value!r}"


@dataclass(frozen=True)
class IsIn(Predicate):
    """``attribute in {constants}``."""

    attribute: str
    values: Tuple[object, ...]

    def matches(self, reader: Reader) -> bool:
        return reader(self.attribute) in self.values

    def signature(self) -> tuple:
        return ("isin", self.attribute, tuple(sorted(map(repr, self.values))))

    def attributes(self) -> FrozenSet[str]:
        return frozenset({self.attribute})

    def to_dict(self) -> dict:
        return {"kind": "isin", "attribute": self.attribute, "values": list(self.values)}

    def __str__(self) -> str:
        return f"{self.attribute} in {set(self.values)!r}"


@dataclass(frozen=True)
class IsSet(Predicate):
    """True when the attribute has a non-``None`` value."""

    attribute: str

    def matches(self, reader: Reader) -> bool:
        return reader(self.attribute) is not None

    def signature(self) -> tuple:
        return ("isset", self.attribute)

    def attributes(self) -> FrozenSet[str]:
        return frozenset({self.attribute})

    def to_dict(self) -> dict:
        return {"kind": "isset", "attribute": self.attribute}

    def __str__(self) -> str:
        return f"{self.attribute} is set"


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """Matches everything (useful for tests and as a neutral element)."""

    def matches(self, reader: Reader) -> bool:
        return True

    def signature(self) -> tuple:
        return ("true",)

    def attributes(self) -> FrozenSet[str]:
        return frozenset()

    def to_dict(self) -> dict:
        return {"kind": "true"}

    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class And(Predicate):
    left: Predicate
    right: Predicate

    def matches(self, reader: Reader) -> bool:
        return self.left.matches(reader) and self.right.matches(reader)

    def signature(self) -> tuple:
        return ("and", self.left.signature(), self.right.signature())

    def attributes(self) -> FrozenSet[str]:
        return self.left.attributes() | self.right.attributes()

    def to_dict(self) -> dict:
        return {"kind": "and", "left": self.left.to_dict(), "right": self.right.to_dict()}

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


@dataclass(frozen=True)
class Or(Predicate):
    left: Predicate
    right: Predicate

    def matches(self, reader: Reader) -> bool:
        return self.left.matches(reader) or self.right.matches(reader)

    def signature(self) -> tuple:
        return ("or", self.left.signature(), self.right.signature())

    def attributes(self) -> FrozenSet[str]:
        return self.left.attributes() | self.right.attributes()

    def to_dict(self) -> dict:
        return {"kind": "or", "left": self.left.to_dict(), "right": self.right.to_dict()}

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


@dataclass(frozen=True)
class Not(Predicate):
    inner: Predicate

    def matches(self, reader: Reader) -> bool:
        return not self.inner.matches(reader)

    def signature(self) -> tuple:
        return ("not", self.inner.signature())

    def attributes(self) -> FrozenSet[str]:
        return self.inner.attributes()

    def to_dict(self) -> dict:
        return {"kind": "not", "inner": self.inner.to_dict()}

    def __str__(self) -> str:
        return f"(not {self.inner})"


def predicate_from_dict(data: dict) -> Predicate:
    """Rebuild a predicate from its :meth:`Predicate.to_dict` form."""
    kind = data.get("kind")
    if kind == "compare":
        return Compare(data["attribute"], data["op"], data["value"])
    if kind == "isin":
        return IsIn(data["attribute"], tuple(data["values"]))
    if kind == "isset":
        return IsSet(data["attribute"])
    if kind == "true":
        return TruePredicate()
    if kind == "and":
        return And(predicate_from_dict(data["left"]), predicate_from_dict(data["right"]))
    if kind == "or":
        return Or(predicate_from_dict(data["left"]), predicate_from_dict(data["right"]))
    if kind == "not":
        return Not(predicate_from_dict(data["inner"]))
    raise PredicateError(f"unknown predicate kind {kind!r}")
