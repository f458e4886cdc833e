"""Predicate compilation: lowering ASTs to specialized closures.

``Predicate.matches`` is a recursive tree-walk: every evaluation pays one
Python call per AST node plus a dictionary dispatch per comparison.  Select
predicates sit on the hottest paths of the system — the incremental extent
engine rechecks them per candidate on every relevant write, and the
from-scratch evaluator runs them across whole extents — so the interpreter's
constant factor is pure overhead multiplied by the database's write rate.

:func:`compile_predicate` lowers one AST to a single flat closure:

* **Compare** binds its comparator at compile time (the ``_COMPARATORS``
  dict lookup is constant-folded away) and keeps the interpreter's
  ``TypeError -> False`` contract for ordering against ``None``;
* **IsIn** interns its constants into a ``frozenset`` when they are hashable
  (O(1) membership instead of a tuple scan);
* **And**/**Or** chains are flattened: ``a and b and c`` becomes one closure
  over a tuple of compiled children evaluated left-to-right with the same
  short-circuit (and exception) order as the nested interpreter;
* **Not**/**IsSet**/**TruePredicate** become single closures.

Compiled functions have exactly the interpreter's observable semantics —
same results, same exceptions from the attribute reader, same evaluation
order — which ``tests/test_predicate_compiler.py`` asserts property-style
over randomized ASTs and readers.

**Fallback.**  A predicate type the lowerer does not recognise (user
subclasses of :class:`~repro.algebra.expressions.Predicate`) compiles to its
own bound ``matches`` — the interpreter *is* the fallback, so compilation
can never change behaviour, only speed.  ``matches`` also stays the
reference the compiler tests compare every compiled closure against.

Compiled closures are cached per :meth:`Predicate.signature` — two
textually identical predicates (which the classifier already treats as the
same class) share one compiled function.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Tuple

_lock = threading.Lock()
_cache: Dict[tuple, Callable[[Callable[[str], object]], bool]] = {}
_stats = {"compiled": 0, "hits": 0, "fallbacks": 0}


def compiler_stats() -> Dict[str, int]:
    """Counters for observability: closures built, cache hits, fallbacks."""
    with _lock:
        return dict(_stats, cache_size=len(_cache))


def clear_cache() -> None:
    with _lock:
        _cache.clear()
        _stats["compiled"] = _stats["hits"] = _stats["fallbacks"] = 0


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------

def _lower(pred) -> Callable[[Callable[[str], object]], bool]:
    """Build one specialized closure for ``pred`` (recursive, uncached)."""
    from repro.algebra.expressions import (
        And,
        Compare,
        IsIn,
        IsSet,
        Not,
        Or,
        TruePredicate,
        _COMPARATORS,
    )

    kind = type(pred)
    if kind is Compare:
        attribute = pred.attribute
        constant = pred.value
        op = pred.op
        if op == "==":
            def compiled(reader, _a=attribute, _c=constant):
                return reader(_a) == _c
            return compiled
        if op == "!=":
            def compiled(reader, _a=attribute, _c=constant):
                return reader(_a) != _c
            return compiled
        comparator = _COMPARATORS[op]
        # ordering comparators: unset attributes (None) never satisfy them;
        # the TypeError guard reproduces the interpreter's contract exactly
        def compiled(reader, _a=attribute, _c=constant, _cmp=comparator):
            actual = reader(_a)
            try:
                return _cmp(actual, _c)
            except TypeError:
                return False
        return compiled
    if kind is IsIn:
        attribute = pred.attribute
        values = pred.values
        try:
            interned = frozenset(values)
        except TypeError:  # unhashable constants: keep the tuple scan
            interned = values
        def compiled(reader, _a=attribute, _v=interned):
            return reader(_a) in _v
        return compiled
    if kind is IsSet:
        attribute = pred.attribute
        def compiled(reader, _a=attribute):
            return reader(_a) is not None
        return compiled
    if kind is TruePredicate:
        return lambda reader: True
    if kind is And:
        children = tuple(_lower(c) for c in _flatten(pred, And))
        def compiled(reader, _cs=children):
            for child in _cs:
                if not child(reader):
                    return False
            return True
        return compiled
    if kind is Or:
        children = tuple(_lower(c) for c in _flatten(pred, Or))
        def compiled(reader, _cs=children):
            for child in _cs:
                if child(reader):
                    return True
            return False
        return compiled
    if kind is Not:
        inner = _lower(pred.inner)
        def compiled(reader, _inner=inner):
            return not _inner(reader)
        return compiled
    # unknown node type (user-defined Predicate subclass): the interpreter
    # is the compiled form — behaviour is preserved by construction
    with _lock:
        _stats["fallbacks"] += 1
    return pred.matches


def _flatten(pred, connective) -> list:
    """Left-to-right leaves of a nested And/Or chain (evaluation order of
    the flattened closure matches the recursive interpreter's)."""
    out = []
    stack = [pred]
    while stack:
        node = stack.pop()
        if type(node) is connective:
            stack.append(node.right)
            stack.append(node.left)
        else:
            out.append(node)
    return out


def compile_predicate(pred) -> Callable[[Callable[[str], object]], bool]:
    """The compiled evaluator for ``pred``: ``compiled(reader) -> bool``.

    Cached per :meth:`~repro.algebra.expressions.Predicate.signature`;
    signatures that cannot be computed (or are unhashable) compile uncached.
    """
    try:
        key: Optional[tuple] = pred.signature()
        hash(key)
    except Exception:
        key = None
    if key is not None:
        with _lock:
            cached = _cache.get(key)
            if cached is not None:
                _stats["hits"] += 1
                return cached
    compiled = _lower(pred)
    if key is not None:
        with _lock:
            _cache[key] = compiled
            _stats["compiled"] += 1
    return compiled


def matcher(pred) -> Callable[[Callable[[str], object]], bool]:
    """The evaluator hot paths should call (the cached compiled closure)."""
    return compile_predicate(pred)


# ---------------------------------------------------------------------------
# row lowering: predicates over pre-bound column readers
# ---------------------------------------------------------------------------

def _lower_row(pred, resolve) -> Optional[Callable[[object], bool]]:
    """Lower ``pred`` against per-attribute OID readers: ``fn(oid) -> bool``.

    ``resolve(attr)`` returns a pre-bound ``fn(oid) -> value`` column
    reader.  Where :func:`_lower` pays a fresh attribute-reader closure per
    evaluated object, the row form binds each attribute's reader once at
    compile time — a select scan then runs zero allocations per candidate.
    Returns ``None`` for AST nodes it cannot lower (user Predicate
    subclasses); the caller falls back to the reader-based form for the
    whole predicate so evaluation order stays exactly the interpreter's.
    """
    from repro.algebra.expressions import (
        And,
        Compare,
        IsIn,
        IsSet,
        Not,
        Or,
        TruePredicate,
        _COMPARATORS,
    )

    kind = type(pred)
    if kind is Compare:
        read = resolve(pred.attribute)
        constant = pred.value
        op = pred.op
        if op == "==":
            def compiled(oid, _r=read, _c=constant):
                return _r(oid) == _c
            return compiled
        if op == "!=":
            def compiled(oid, _r=read, _c=constant):
                return _r(oid) != _c
            return compiled
        comparator = _COMPARATORS[op]
        def compiled(oid, _r=read, _c=constant, _cmp=comparator):
            actual = _r(oid)
            try:
                return _cmp(actual, _c)
            except TypeError:
                return False
        return compiled
    if kind is IsIn:
        read = resolve(pred.attribute)
        values = pred.values
        try:
            interned = frozenset(values)
        except TypeError:
            interned = values
        def compiled(oid, _r=read, _v=interned):
            return _r(oid) in _v
        return compiled
    if kind is IsSet:
        read = resolve(pred.attribute)
        def compiled(oid, _r=read):
            return _r(oid) is not None
        return compiled
    if kind is TruePredicate:
        return lambda oid: True
    if kind in (And, Or):
        children = []
        for child in _flatten(pred, kind):
            lowered = _lower_row(child, resolve)
            if lowered is None:
                return None
            children.append(lowered)
        children = tuple(children)
        if kind is And:
            def compiled(oid, _cs=children):
                for child in _cs:
                    if not child(oid):
                        return False
                return True
        else:
            def compiled(oid, _cs=children):
                for child in _cs:
                    if child(oid):
                        return True
                return False
        return compiled
    if kind is Not:
        inner = _lower_row(pred.inner, resolve)
        if inner is None:
            return None
        def compiled(oid, _inner=inner):
            return not _inner(oid)
        return compiled
    return None


def row_matcher(pred, resolve, reader_factory) -> Callable[[object], bool]:
    """An OID-level matcher: ``fn(oid) -> bool``.

    When every node lowers, the result reads columns through
    ``resolve``'s pre-bound readers.  Otherwise (an unliftable node) it
    evaluates the compiled predicate through a per-object attribute reader
    from ``reader_factory(oid)`` — semantics never depend on which form
    was chosen.
    """
    lowered = _lower_row(pred, resolve)
    if lowered is not None:
        return lowered
    matches = matcher(pred)

    def fallback(oid):
        return matches(reader_factory(oid))

    return fallback
