"""A naive executable reference model of the TSE observable semantics.

The model (:class:`RefModel`) answers the same observable questions as the
real system — view class names, is-a reachability, extent membership,
attribute/method name sets, attribute reads through a view class — but is
implemented as flatly as possible:

* classes are tiny :class:`Token` records wired into an expression graph;
* extents are **recomputed from scratch** on every query by walking that
  graph down to direct base-class memberships (no incremental maintenance,
  no caches that survive a mutation);
* view schemas are plain name→token dicts plus an ancestor-set per class
  (no classifier: the reachability consequences of every schema change are
  written out longhand from the paper's section 6 definitions);
* there is no WAL, no slicing, no object store — objects are entries in one
  dict of ``oid → set of base tokens`` and values live in a flat
  ``(oid, attribute) → value`` dict.

The model deliberately assumes the **globally-unique property name**
discipline the command generator enforces: every attribute/method name is
introduced at most once across the whole run.  Under that discipline
property identity collapses to name equality, which is what keeps the
reference semantics flat (no identity bookkeeping, no ambiguity handling,
no suppressed-definition restoration).  The differential runner's command
generator never reuses a name, so the restriction costs no coverage of the
paper's core semantics; the overriding/ambiguity corners are exercised by
the hand-written translator suites instead.

Every mutating method either applies completely or raises
:class:`OracleReject` leaving the model untouched (validation happens
before mutation; the generic updates roll back their tentative writes
exactly like the real engine does).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple


class OracleReject(Exception):
    """The reference model refuses the operation (mirrors ``TseError``)."""


def _oid_key(o):
    """Sort key for extent members: real ``Oid``s order by their int value
    (C-level, instead of the Python-level ``Oid.__lt__`` per comparison);
    placeholder tuples and dummy strings order by themselves, preserving the
    plain ``sorted()`` behaviour for homogeneous non-Oid extents."""
    return getattr(o, "value", o)


@dataclass(frozen=True)
class Spec:
    """One property definition (globally unique name)."""

    name: str
    kind: str = "attr"  # "attr" | "method"
    domain: str = "any"
    required: bool = False
    default: object = None


class Token:
    """One class node in the reference expression graph.

    ``kind == "base"`` tokens model base classes: they carry local property
    names, base parents/children, and direct object memberships attach to
    them.  Derived tokens model the virtual classes evolution creates and
    carry an algebra op over source tokens.  Tokens are immutable once
    created; evolution replaces a view's *binding* to a token, never the
    token itself — exactly the paper's copy-on-evolution story.
    """

    _ids = itertools.count()

    def __init__(
        self,
        kind: str,
        name: str = "",
        parents: Tuple["Token", ...] = (),
        local: Tuple[str, ...] = (),
        op: str = "",
        sources: Tuple["Token", ...] = (),
        new: Tuple[str, ...] = (),
        shared: Tuple[str, ...] = (),
        hidden: FrozenSet[str] = frozenset(),
        propagation: Optional["Token"] = None,
    ) -> None:
        self.id = next(Token._ids)
        self.kind = kind
        self.name = name or f"t{self.id}"
        self.parents = parents
        self.children: List["Token"] = []
        self.local = local
        self.op = op
        self.sources = sources
        self.new = new
        self.shared = shared
        self.hidden = hidden
        self.propagation = propagation
        #: the real schema names a replacement by priming the replaced
        #: class (footnote 11: ``K2`` -> ``K2'`` -> ``K2''``), so a global
        #: name is a lineage prefix plus primes, and primes grow with
        #: creation order.  (lineage, id) therefore sorts exactly like the
        #: real sorted-global-name order: same lineage -> creation order;
        #: different lineages -> prefix order (a prime sorts below every
        #: identifier character).  Merge claim ordering depends on this.
        if kind == "base" or name:
            self.lineage = self.name
        elif sources:
            self.lineage = sources[0].lineage
        else:  # pragma: no cover - derived tokens always have sources
            self.lineage = self.name
        for parent in parents:
            parent.children.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind == "base":
            return f"<base {self.name}>"
        return f"<{self.op} {self.name}>"


@dataclass
class ViewState:
    """One view: bindings, reachability, per-class property aliases."""

    version: int = 1
    token: Dict[str, Token] = field(default_factory=dict)
    #: strict ancestors per view class, in view-visible names
    anc: Dict[str, Set[str]] = field(default_factory=dict)
    #: per view class: visible property name -> underlying name
    aliases: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: frozen copies of every registered version (including the current
    #: one), keyed by version number — the oracle twin of the real
    #: ``ViewSchemaHistory`` chain.  Pinned reads resolve historical
    #: bindings here over the *live* shared objects, exactly like a pinned
    #: ``ViewHandle``.
    history: Dict[int, "ViewState"] = field(default_factory=dict)
    #: True for views produced by section-7 version merging (and their
    #: successors).  Only such views can select two classes that are the
    #: same *global* class under different names, so only they need the
    #: post-evolution dedup-collapse check.
    merged: bool = False

    def snapshot(self) -> "ViewState":
        """An immutable-in-practice copy of the current bindings (tokens
        are shared — they never mutate — but the per-view containers the
        evolution ops update in place are copied)."""
        return ViewState(
            version=self.version,
            token=dict(self.token),
            anc={cls: set(ancestors) for cls, ancestors in self.anc.items()},
            aliases={cls: dict(per) for cls, per in self.aliases.items()},
            merged=self.merged,
        )

    def direct_edges(self) -> Set[Tuple[str, str]]:
        """Transitive reduction of the ancestor relation."""
        edges = set()
        for cls, ancestors in self.anc.items():
            for a in ancestors:
                if not any(
                    mid != a and mid != cls and a in self.anc.get(mid, set())
                    for mid in ancestors
                ):
                    edges.add((a, cls))
        return edges

    def descendants(self, cls: str) -> Set[str]:
        return {c for c, ancestors in self.anc.items() if cls in ancestors}


class RefModel:
    """The naive reference database the differential runner checks against."""

    def __init__(self) -> None:
        self.specs: Dict[str, Spec] = {}
        self.global_names: Set[str] = set()
        self.base: Dict[str, Token] = {}
        #: names authored through define_class, in authoring order — the
        #: stable address space command indices resolve against
        self.user_bases: List[str] = []
        self.objects: Dict[object, Set[Token]] = {}
        self.values: Dict[Tuple[object, str], object] = {}
        self.views: Dict[str, ViewState] = {}
        #: versions the operators declared vacated (oracle twin of the real
        #: history's retirement set): view name -> retired version numbers
        self.retired: Dict[str, Set[int]] = {}
        # -- the mirrored global schema DAG (consulted only by merge_views) --
        # every token in creation order; registration into the dup-free
        # canonical registry is deferred until a merge actually needs global
        # identity, then replayed in this exact order (matching the real
        # classifier, which integrates classes as they are derived)
        self._created: List[Token] = []
        self._reg_cursor = 0
        self._registry: List[Token] = []
        self._reg_sig: Dict[int, tuple] = {}
        self._canon_memo: Dict[int, Token] = {}
        self._dag_parents: Dict[int, Set[Token]] = {}
        self.sessions_attached = False
        #: last published epoch: view -> {"version", "classes", "extents"}
        self.published: Dict[str, dict] = {}
        self._placeholders = itertools.count()
        #: monotone counter: bumped on every observable mutation so callers
        #: (the differential harness) can skip redundant equivalence sweeps
        self.mutations = 0
        self._extent_memo: Dict[Token, FrozenSet[object]] = {}
        self._types_memo: Dict[Token, FrozenSet[str]] = {}
        self._cone_memo: Dict[Token, FrozenSet[Token]] = {}

    def _touch(self) -> None:
        """Record a structural mutation: invalidate memos, bump the counter.

        The memos are *per-state* caches, not incremental structures — any
        change to object membership or to the token graph simply wipes them.
        Correct because every mutating public method calls ``_touch`` after
        the mutation (including rollback branches), so a memo entry can only
        be observed between mutations, when it is trivially fresh.
        """
        self.mutations += 1
        self._extent_memo.clear()
        self._types_memo.clear()
        self._cone_memo.clear()

    def clone_for_updates(self) -> "RefModel":
        """A cheap copy that tolerates *update* operations only.

        ``create``/``add``/``remove``/``set_values``/``delete`` mutate just
        ``objects`` and ``values``, so the clone deep-copies those two maps
        and shares the (immutable-under-updates) schema structures: specs,
        tokens, views, published epochs.  Used for shadow replays (aborted
        transactions, rejected batches) where ``copy.deepcopy`` of the whole
        model dominated the runtime.  Applying a *schema* operation to the
        clone would corrupt the original — callers must not do that.
        """
        clone = RefModel.__new__(RefModel)
        clone.__dict__.update(self.__dict__)
        clone.objects = {oid: set(tokens) for oid, tokens in self.objects.items()}
        clone.values = dict(self.values)
        clone._placeholders = itertools.count()
        clone._extent_memo = {}
        clone._types_memo = {}
        clone._cone_memo = {}
        return clone

    # ------------------------------------------------------------------
    # type and extent evaluation (from scratch on each mutation, memoised
    # between mutations — the harness sweep reads every class of every
    # view after every command, so intra-state reuse is the common case)
    # ------------------------------------------------------------------

    def type_names(self, token: Token) -> FrozenSet[str]:
        cached = self._types_memo.get(token)
        if cached is not None:
            return cached
        names = self._type_names_uncached(token)
        self._types_memo[token] = names
        return names

    def _type_names_uncached(self, token: Token) -> FrozenSet[str]:
        if token.kind == "base":
            names: Set[str] = set(token.local)
            for parent in token.parents:
                names |= self.type_names(parent)
            return frozenset(names)
        if token.op == "refine":
            return self.type_names(token.sources[0]) | set(token.new) | set(
                token.shared
            )
        if token.op == "hide":
            return self.type_names(token.sources[0]) - token.hidden
        if token.op == "union":
            return self.type_names(token.sources[0]) & self.type_names(
                token.sources[1]
            )
        if token.op == "difference":
            return self.type_names(token.sources[0])
        if token.op == "intersect":
            return self.type_names(token.sources[0]) | self.type_names(
                token.sources[1]
            )
        raise AssertionError(f"unhandled op {token.op!r}")  # pragma: no cover

    def _base_cone(self, token: Token) -> FrozenSet[Token]:
        """``token`` plus its base descendants (membership feeds upward)."""
        cached = self._cone_memo.get(token)
        if cached is not None:
            return cached
        cone: Set[Token] = set()
        frontier = [token]
        while frontier:
            current = frontier.pop()
            if current in cone:
                continue
            cone.add(current)
            frontier.extend(current.children)
        frozen = frozenset(cone)
        self._cone_memo[token] = frozen
        return frozen

    def extent(self, token: Token) -> FrozenSet[object]:
        cached = self._extent_memo.get(token)
        if cached is not None:
            return cached
        result = self._extent_uncached(token)
        self._extent_memo[token] = result
        return result

    def _extent_uncached(self, token: Token) -> FrozenSet[object]:
        if token.kind == "base":
            cone = self._base_cone(token)
            return frozenset(
                oid for oid, members in self.objects.items() if members & cone
            )
        first = self.extent(token.sources[0])
        if token.op in ("refine", "hide"):
            return first
        second = self.extent(token.sources[1])
        if token.op == "union":
            return first | second
        if token.op == "difference":
            return first - second
        if token.op == "intersect":
            return first & second
        raise AssertionError(f"unhandled op {token.op!r}")  # pragma: no cover

    # -- section 3.4 routing --------------------------------------------------

    def insertion_targets(self, token: Token) -> FrozenSet[Token]:
        if token.kind == "base":
            return frozenset({token})
        if token.op in ("refine", "hide", "difference"):
            return self.insertion_targets(token.sources[0])
        if token.op == "union":
            chosen = token.propagation or token.sources[0]
            return self.insertion_targets(chosen)
        if token.op == "intersect":
            return self.insertion_targets(token.sources[0]) | self.insertion_targets(
                token.sources[1]
            )
        raise AssertionError(f"unhandled op {token.op!r}")  # pragma: no cover

    def removal_targets(self, token: Token) -> FrozenSet[Token]:
        if token.kind == "base":
            return frozenset({token})
        if token.op in ("refine", "hide", "difference"):
            return self.removal_targets(token.sources[0])
        if token.op in ("union", "intersect"):
            return self.removal_targets(token.sources[0]) | self.removal_targets(
                token.sources[1]
            )
        raise AssertionError(f"unhandled op {token.op!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # observables (the surface the runner compares)
    # ------------------------------------------------------------------

    def view_names(self) -> List[str]:
        return sorted(self.views)

    def _view(self, view: str) -> ViewState:
        state = self.views.get(view)
        if state is None:
            raise OracleReject(f"unknown view {view!r}")
        return state

    def _resolved(self, view: str, version: Optional[int] = None) -> ViewState:
        """The current bindings, or — for a pinned access — the frozen
        snapshot of a historical version (the oracle twin of the real
        ``ViewSchemaHistory.version`` lookup)."""
        state = self._view(view)
        if version is None or version == state.version:
            return state
        snap = state.history.get(version)
        if snap is None:
            raise OracleReject(f"view {view!r} has no version {version}")
        return snap

    def _token(self, view: str, cls: str, version: Optional[int] = None) -> Token:
        state = self._resolved(view, version)
        token = state.token.get(cls)
        if token is None:
            raise OracleReject(f"view {view!r} has no class {cls!r}")
        return token

    def class_names(self, view: str, version: Optional[int] = None) -> List[str]:
        return sorted(self._resolved(view, version).token)

    def version(self, view: str) -> int:
        return self._view(view).version

    def versions_of(self, view: str) -> List[int]:
        """Every registered version number, ascending (the current one
        included) — the address space pin/retire commands resolve against."""
        return sorted(self._view(view).history)

    def anc_pairs(
        self, view: str, version: Optional[int] = None
    ) -> Set[Tuple[str, str]]:
        state = self._resolved(view, version)
        return {(a, c) for c, ancestors in state.anc.items() for a in ancestors}

    def ancestors(self, view: str, cls: str) -> List[str]:
        """Sorted strict ancestors of ``cls`` within the view."""
        self._token(view, cls)
        return sorted(self._view(view).anc[cls])

    def extent_oids(
        self, view: str, cls: str, version: Optional[int] = None
    ) -> List[object]:
        return sorted(self.extent(self._token(view, cls, version)), key=_oid_key)

    def _alias_of(
        self, view: str, cls: str, underlying: str, version: Optional[int] = None
    ) -> str:
        per_class = self._resolved(view, version).aliases.get(cls, {})
        for alias, original in per_class.items():
            if original == underlying:
                return alias
        return underlying

    def _underlying_of(
        self, view: str, cls: str, visible: str, version: Optional[int] = None
    ) -> str:
        return (
            self._resolved(view, version).aliases.get(cls, {}).get(visible, visible)
        )

    def attribute_names(
        self, view: str, cls: str, version: Optional[int] = None
    ) -> List[str]:
        token = self._token(view, cls, version)
        return sorted(
            self._alias_of(view, cls, name, version)
            for name in self.type_names(token)
            if self.specs[name].kind == "attr"
        )

    def method_names(
        self, view: str, cls: str, version: Optional[int] = None
    ) -> List[str]:
        token = self._token(view, cls, version)
        return sorted(
            self._alias_of(view, cls, name, version)
            for name in self.type_names(token)
            if self.specs[name].kind == "method"
        )

    def object_values(self, view: str, cls: str, oid: object) -> Dict[str, object]:
        token = self._token(view, cls)
        result: Dict[str, object] = {}
        for name in self.type_names(token):
            spec = self.specs[name]
            if spec.kind != "attr":
                continue
            alias = self._alias_of(view, cls, name)
            result[alias] = self.values.get((oid, name), spec.default)
        return result

    def dump(self, view: str, version: Optional[int] = None) -> Dict[str, object]:
        """Every per-class observable of ``view`` in one pass.

        The same shape as ``ViewHandle.dump()['by_class']`` plus the
        version: the runner compares the two wholesale (one dict equality
        in the common all-agreeing case) instead of re-deriving aliases
        and extents once per observable accessor.  With ``version`` the
        historical bindings are read over the live objects — the pinned
        handle semantics.
        """
        state = self._resolved(view, version)
        by_class: Dict[str, dict] = {}
        for cls, token in state.token.items():
            per_class = state.aliases.get(cls, {})
            inverse: Dict[str, str] = {}
            for alias, original in per_class.items():
                inverse.setdefault(original, alias)
            attrs: List[str] = []
            methods: List[str] = []
            columns = []  # (visible alias, underlying name, declared default)
            for name in self.type_names(token):
                spec = self.specs[name]
                alias = inverse.get(name, name)
                if spec.kind == "attr":
                    attrs.append(alias)
                    columns.append((alias, name, spec.default))
                else:
                    methods.append(alias)
            extent = sorted(self.extent(token), key=_oid_key)
            values = self.values
            objects = {
                oid: {
                    alias: values.get((oid, name), default)
                    for alias, name, default in columns
                }
                for oid in extent
            }
            by_class[cls] = {
                "attributes": sorted(attrs),
                "methods": sorted(methods),
                "extent": extent,
                "count": len(extent),
                "objects": objects,
            }
        return {
            "version": state.version,
            "classes": sorted(state.token),
            "by_class": by_class,
        }

    # -- epoch publication (readers pin these) --------------------------------

    def snapshot_published(self) -> Dict[str, dict]:
        snap: Dict[str, dict] = {}
        for view, state in self.views.items():
            snap[view] = {
                "version": state.version,
                "classes": sorted(state.token),
                "extents": {
                    cls: self.extent_oids(view, cls) for cls in state.token
                },
            }
        return snap

    def publish(self) -> None:
        if self.sessions_attached:
            self.published = self.snapshot_published()

    def attach_sessions(self) -> None:
        if not self.sessions_attached:
            self.sessions_attached = True
            self.publish()

    # -- version lifecycle (retirement; mirrors views/history.py) -------------

    def retire_view(self, view: str, version: int) -> None:
        """Mirror of ``ViewSchemaHistory.retire``: unknown views/versions,
        the current version, and double retirement are all refused."""
        state = self._view(view)
        if version not in state.history:
            raise OracleReject(f"view {view!r} has no version {version}")
        if version == state.version:
            raise OracleReject(
                f"view {view!r} version {version} is current and cannot retire"
            )
        retired = self.retired.setdefault(view, set())
        if version in retired:
            raise OracleReject(
                f"view {view!r} version {version} is already retired"
            )
        retired.add(version)

    def is_retired(self, view: str, version: int) -> bool:
        return version in self.retired.get(view, set())

    def _check_writable(self, view: str, version: Optional[int]) -> None:
        """Writes through a retired pinned version are refused (reads stay
        legal) — the oracle twin of the handle-level retirement guard."""
        if version is not None and self.is_retired(view, version):
            raise OracleReject(
                f"view {view!r} version {version} is retired for writes"
            )

    def lifecycle_rows(self, view: Optional[str] = None) -> List[Dict[str, object]]:
        """The same rows ``ViewSchemaHistory.versions()`` answers."""
        names = [view] if view is not None else self.view_names()
        rows: List[Dict[str, object]] = []
        for name in names:
            state = self._view(name)
            for number in sorted(state.history):
                rows.append(
                    {
                        "view": name,
                        "version": number,
                        "current": number == state.version,
                        "retired": self.is_retired(name, number),
                    }
                )
        return rows

    # ------------------------------------------------------------------
    # the mirrored global schema DAG (section 7 support)
    #
    # The real system integrates every derived class into ONE global
    # schema: the classifier deduplicates equivalent classes and positions
    # the survivors in the DAG.  Per-view observables never needed that
    # mirror — each view's reachability is maintained longhand — but
    # version *merging* does: a merged view unifies classes that are "the
    # same global class" and inherits the global DAG's ancestry over its
    # selection.  The mirror is consulted only by :meth:`merge_views`;
    # tokens are recorded at creation (cheap) and registered lazily, in
    # creation order, exactly as the real classifier saw them.
    # ------------------------------------------------------------------

    def _new_token(self, *args, **kwargs) -> Token:
        token = Token(*args, **kwargs)
        self._created.append(token)
        return token

    def _ensure_registry(self) -> None:
        while self._reg_cursor < len(self._created):
            token = self._created[self._reg_cursor]
            self._reg_cursor += 1
            self._register(token)

    def _canon_of(self, token: Token) -> Token:
        """The canonical (dedup survivor) token ``token`` resolves to in
        the mirrored global schema.  Only valid after `_ensure_registry`."""
        return self._canon_memo.get(id(token), token)

    def _der_sig(self, token: Token) -> tuple:
        """Mirror of ``Derivation.signature()``: op plus canonicalised
        sources plus the property deltas."""
        return (
            token.op,
            tuple(id(self._canon_of(s)) for s in token.sources),
            tuple(token.new),
            tuple(token.shared),
            tuple(sorted(token.hidden)),
        )

    def _register(self, token: Token) -> None:
        if token.kind == "base":
            # base classes are declared, never classified: their DAG
            # parents are exactly the declared ones, and they never dedup
            self._canon_memo[id(token)] = token
            self._dag_parents[id(token)] = set(token.parents)
            self._registry.append(token)
            return
        sig = self._der_sig(token)
        # duplicate detection, mirroring Classifier._find_duplicate: an
        # identical derivation, or an equal type with provably equal
        # extent.  The registry is dup-free, so at most one entry matches.
        for other in self._registry:
            if other.kind != "base" and self._reg_sig[id(other)] == sig:
                self._canon_memo[id(token)] = other
                return
        my_types = self.type_names(token)
        for other in self._registry:
            if (
                self.type_names(other) == my_types
                and self._subsumed(token, other)
                and self._subsumed(other, token)
            ):
                self._canon_memo[id(token)] = other
                return
        self._canon_memo[id(token)] = token
        self._reg_sig[id(token)] = sig
        self._place(token, my_types)
        self._registry.append(token)

    def _dag_ancestors(self, token: Token) -> Set[Token]:
        result: Set[Token] = set()
        frontier = list(self._dag_parents.get(id(token), ()))
        while frontier:
            parent = frontier.pop()
            if parent in result:
                continue
            result.add(parent)
            frontier.extend(self._dag_parents.get(id(parent), ()))
        return result

    def _place(self, token: Token, my_types: FrozenSet[str]) -> None:
        """Mirror of classifier positioning: direct supers are the minimal
        candidates that subsume the newcomer, direct subs the maximal ones
        it subsumes.  Transitive-edge removal is skipped — the merge model
        only ever asks for reachability, which removal never changes."""
        supers: List[Token] = []
        subs: List[Token] = []
        for other in self._registry:
            other_types = self.type_names(other)
            if other_types <= my_types and self._subsumed(token, other):
                supers.append(other)
            if my_types <= other_types and self._subsumed(other, token):
                subs.append(other)
        anc_memo = {c: self._dag_ancestors(c) for c in set(supers) | set(subs)}
        chosen_supers = {
            c
            for c in supers
            if not any(other is not c and c in anc_memo[other] for other in supers)
        }
        self._dag_parents[id(token)] = chosen_supers
        for sub in subs:
            if any(other is not sub and other in anc_memo[sub] for other in subs):
                continue  # not maximal
            if sub is token or sub in self._dag_ancestors(token):
                continue  # pragma: no cover - cycle guard, mirrors classifier
            self._dag_parents.setdefault(id(sub), set()).add(token)

    # ------------------------------------------------------------------
    # authoring (setup commands)
    # ------------------------------------------------------------------

    def define_class(
        self, name: str, attrs: Sequence[Spec], inherits_from: Sequence[str] = ()
    ) -> None:
        if name in self.global_names:
            raise OracleReject(f"class {name!r} already defined")
        parents = []
        for parent in inherits_from:
            if parent not in self.base:
                raise OracleReject(f"unknown parent {parent!r}")
            parents.append(self.base[parent])
        for spec in attrs:
            if spec.name in self.specs:
                raise OracleReject(f"property name {spec.name!r} already used")
        for spec in attrs:
            self.specs[spec.name] = spec
        token = self._new_token(
            "base",
            name=name,
            parents=tuple(parents),
            local=tuple(s.name for s in attrs),
        )
        self.base[name] = token
        self.global_names.add(name)
        self.user_bases.append(name)
        self._touch()

    def create_view(self, name: str, classes: Sequence[str]) -> None:
        if name in self.views:
            raise OracleReject(f"view {name!r} already exists")
        for cls in classes:
            if cls not in self.base:
                raise OracleReject(f"view selects unknown class {cls!r}")
        state = ViewState()
        selection = set(classes)
        for cls in classes:
            token = self.base[cls]
            state.token[cls] = token
            ancestors: Set[str] = set()
            frontier = list(token.parents)
            seen: Set[Token] = set()
            while frontier:
                parent = frontier.pop()
                if parent in seen:
                    continue
                seen.add(parent)
                if parent.name in selection:
                    ancestors.add(parent.name)
                frontier.extend(parent.parents)
            state.anc[cls] = ancestors
        state.history[1] = state.snapshot()
        self.views[name] = state
        self._touch()

    # ------------------------------------------------------------------
    # generic updates (section 3.3/3.4)
    # ------------------------------------------------------------------

    def _check_assignable(
        self,
        view: str,
        cls: str,
        token: Token,
        visible: str,
        version: Optional[int] = None,
    ) -> str:
        underlying = self._underlying_of(view, cls, visible, version)
        if underlying not in self.type_names(token):
            raise OracleReject(f"unknown property {visible!r} in {cls!r}")
        if self.specs[underlying].kind != "attr":
            raise OracleReject(f"{visible!r} of {cls!r} is not an attribute")
        return underlying

    def create(
        self,
        view: str,
        cls: str,
        assignments: Dict[str, object],
        oid: object,
        version: Optional[int] = None,
    ) -> object:
        self._check_writable(view, version)
        token = self._token(view, cls, version)
        targets = self.insertion_targets(token)
        translated = {
            self._check_assignable(view, cls, token, visible, version): value
            for visible, value in assignments.items()
        }
        for target in targets:
            for name in self.type_names(target):
                spec = self.specs[name]
                if (
                    spec.kind == "attr"
                    and spec.required
                    and name not in translated
                    and spec.default is None
                ):
                    raise OracleReject(
                        f"required attribute {name!r} received no value"
                    )
        if oid is None:
            oid = ("placeholder", next(self._placeholders))
        self.objects[oid] = set(targets)
        for name, value in translated.items():
            self.values[(oid, name)] = value
        self._touch()
        if oid not in self.extent(token):
            del self.objects[oid]
            for name in translated:
                self.values.pop((oid, name), None)
            self._touch()
            raise OracleReject("value-closure violation on create")
        return oid

    def add(
        self, view: str, cls: str, oid: object, version: Optional[int] = None
    ) -> None:
        self._check_writable(view, version)
        token = self._token(view, cls, version)
        targets = self.insertion_targets(token)
        members = self.objects.get(oid)
        if members is None:
            raise OracleReject(f"unknown object {oid!r}")
        added = [t for t in targets if t not in members]
        members.update(added)
        self._touch()
        if oid not in self.extent(token):
            members.difference_update(added)
            self._touch()
            raise OracleReject("value-closure violation on add")

    @staticmethod
    def _base_ancestors_or_self(token: Token) -> Set[Token]:
        result: Set[Token] = set()
        frontier = [token]
        while frontier:
            current = frontier.pop()
            if current in result:
                continue
            result.add(current)
            frontier.extend(current.parents)
        return result

    def remove(
        self, view: str, cls: str, oid: object, version: Optional[int] = None
    ) -> None:
        self._check_writable(view, version)
        token = self._token(view, cls, version)
        if oid not in self.extent(token):
            raise OracleReject(f"{oid!r} is not a member of {cls!r}")
        members = self.objects[oid]
        removable = [t for t in self.removal_targets(token) if t in members]
        if not removable:
            raise OracleReject(f"{oid!r} has no direct membership to remove")
        members.difference_update(removable)
        # values stored at a removed class survive only while the object
        # still has that class's type through some remaining membership
        kept_types: Set[Token] = set()
        for member in members:
            kept_types |= self._base_ancestors_or_self(member)
        for removed in removable:
            if removed not in kept_types:
                for name in removed.local:
                    self.values.pop((oid, name), None)
        self._touch()

    def set_values(
        self,
        view: str,
        cls: str,
        oid: object,
        assignments: Dict[str, object],
        version: Optional[int] = None,
    ) -> None:
        self._check_writable(view, version)
        token = self._token(view, cls, version)
        if oid not in self.extent(token):
            raise OracleReject(f"{oid!r} is not a member of {cls!r}")
        translated = {
            self._check_assignable(view, cls, token, visible, version): value
            for visible, value in assignments.items()
        }
        undo = {
            name: self.values.get((oid, name), _MISSING) for name in translated
        }
        for name, value in translated.items():
            self.values[(oid, name)] = value
        # values never feed extents here (the oracle has no select tokens),
        # so bump the counter without dropping the extent/type memos
        self.mutations += 1
        if oid not in self.extent(token):  # pragma: no cover - no select tokens
            for name, old in undo.items():
                if old is _MISSING:
                    self.values.pop((oid, name), None)
                else:
                    self.values[(oid, name)] = old
            raise OracleReject("value-closure violation on set")

    def delete(self, oid: object) -> None:
        self.objects.pop(oid, None)
        for key in [k for k in self.values if k[0] == oid]:
            del self.values[key]
        self._touch()

    # ------------------------------------------------------------------
    # schema evolution (section 6, written out naively per view)
    # ------------------------------------------------------------------

    def _bump(self, state: ViewState, publish: bool = True) -> None:
        state.version += 1
        state.history[state.version] = state.snapshot()
        self._touch()
        if publish:
            self.publish()

    def _collapse_twins(self, state: ViewState, names) -> None:
        """Post-replacement dedup for merge-created views.

        When evolution replaces a view class's derivation with one the
        global classifier already knows, the real side's define returns the
        *existing* global class.  If that global is also selected by this
        view under another name (possible only after a section-7 merge of
        pinned versions), the real substitution collapses the selected set
        to a single entry whose display name is the replaced class's
        (``renames[primed] = visible_name`` in the manager).  Mirror: the
        replaced name adopts the twin's token (the dedup survivor keeps its
        identity, ancestry, and extent) and the twin's name vanishes.

        Naming rule (DESIGN §3): names are visited in sorted order, so when
        several replaced names collapse into one class the smallest
        survives; a twin that was not replaced always loses its name.
        """
        if not state.merged:
            return
        for name in sorted(names):
            if name not in state.token:
                continue  # already consumed as an earlier name's twin
            self._ensure_registry()
            canon = self._canon_of(state.token[name])
            twin = None
            for other, other_token in state.token.items():
                if other != name and self._canon_of(other_token) is canon:
                    twin = other
                    break
            if twin is None:
                continue
            state.token[name] = state.token.pop(twin)
            state.anc[name] = {
                a for a in state.anc.pop(twin) if a != name
            }
            state.aliases.pop(twin, None)
            for cls, ancestors in state.anc.items():
                if twin in ancestors:
                    ancestors.discard(twin)
                    if cls != name:
                        ancestors.add(name)

    def _order_subs_first(self, state: ViewState, classes: Set[str]) -> List[str]:
        """Deeper classes first (every class before its ancestors)."""
        return sorted(classes, key=lambda c: (-len(state.anc[c]), c))

    def add_property(
        self, view: str, to: str, spec: Spec
    ) -> None:
        state = self._view(view)
        token = self._token(view, to)
        if spec.name in self.type_names(token):
            raise OracleReject(f"{spec.name!r} already exists in {to!r}")
        if spec.name in self.specs:
            raise OracleReject(f"property name {spec.name!r} already used globally")
        self.specs[spec.name] = spec
        primed_top = self._new_token(
            "derived", op="refine", sources=(token,), new=(spec.name,)
        )
        replacements = {to: primed_top}
        edges = state.direct_edges()
        frontier = [to]
        visited = {to}
        while frontier:
            current = frontier.pop(0)
            for sup, sub in sorted(edges):
                if sup != current or sub in visited:
                    continue
                visited.add(sub)
                if spec.name in self.type_names(state.token[sub]):
                    continue  # overriding definition stops propagation
                replacements[sub] = self._new_token(
                    "derived",
                    op="refine",
                    sources=(state.token[sub],),
                    shared=(spec.name,),
                )
                frontier.append(sub)
        state.token.update(replacements)
        self._collapse_twins(state, replacements)
        self._bump(state)

    def delete_property(self, view: str, from_: str, visible: str, kind: str) -> None:
        state = self._view(view)
        token = self._token(view, from_)
        underlying = self._underlying_of(view, from_, visible)
        if underlying not in self.type_names(token):
            raise OracleReject(f"no property {visible!r} in {from_!r}")
        if self.specs[underlying].kind != kind:
            raise OracleReject(f"{visible!r} is not a {kind}")
        for sup in state.anc[from_]:
            if underlying in self.type_names(state.token[sup]):
                raise OracleReject(
                    f"{visible!r} is not local to {from_!r} in this view"
                )
        edges = state.direct_edges()
        parents_of = {
            cls: {sup for sup, sub in edges if sub == cls} for cls in state.token
        }
        memo: Dict[str, bool] = {from_: False}

        def retains(cls: str) -> bool:
            if cls in memo:
                return memo[cls]
            memo[cls] = False  # acyclic guard
            if underlying not in self.type_names(state.token[cls]):
                result = False
            else:
                feeders = [
                    p
                    for p in parents_of[cls]
                    if underlying in self.type_names(state.token[p])
                ]
                # no view parent supplies the definition: it flows in from
                # outside the view and a view-scoped delete cannot cut it
                result = not feeders or any(retains(p) for p in feeders)
            memo[cls] = result
            return result

        replacements: Dict[str, Token] = {}
        for w in {from_} | state.descendants(from_):
            if underlying not in self.type_names(state.token[w]):
                continue
            if w != from_ and retains(w):
                continue
            replacements[w] = self._new_token(
                "derived",
                op="hide",
                sources=(state.token[w],),
                hidden=frozenset({underlying}),
            )
        state.token.update(replacements)
        self._collapse_twins(state, replacements)
        self._bump(state)

    def _subsumed(
        self,
        a: Token,
        b: Token,
        active: FrozenSet[Tuple[int, int]] = frozenset(),
    ) -> bool:
        """Provably ``extent(a) ⊆ extent(b)``, by the same definitional
        rules the real classifier's prover uses: base ancestry, hide/refine
        extent preservation, shrinking ops on the sub side, growing union on
        the sup side, and operator congruence.  The oracle needs this to
        predict when the classifier *deduplicates* a freshly derived class
        into an existing one, because that collapse decides which derivation
        (and hence which update routing) a view class ends up with."""
        if a is b:
            return True
        key = (id(a), id(b))
        if key in active:
            return False
        active = active | {key}
        if a.kind == "base" and b.kind == "base":
            return b in self._base_ancestors_or_self(a)
        if a.kind == "derived" and a.op in ("refine", "hide"):
            if self._subsumed(a.sources[0], b, active):
                return True
        if b.kind == "derived" and b.op in ("refine", "hide"):
            if self._subsumed(a, b.sources[0], active):
                return True
        if a.kind == "derived":
            if a.op == "difference" and self._subsumed(a.sources[0], b, active):
                return True
            if a.op == "union" and all(
                self._subsumed(s, b, active) for s in a.sources
            ):
                return True
            if a.op == "intersect" and any(
                self._subsumed(s, b, active) for s in a.sources
            ):
                return True
        if b.kind == "derived" and b.op == "union":
            if any(self._subsumed(a, s, active) for s in b.sources):
                return True
        if a.kind == "derived" and b.kind == "derived" and a.op == b.op:
            if a.op == "difference":
                if self._subsumed(
                    a.sources[0], b.sources[0], active
                ) and self._subsumed(b.sources[1], a.sources[1], active):
                    return True
            if a.op == "intersect":
                a0, a1 = a.sources
                b0, b1 = b.sources
                if (
                    self._subsumed(a0, b0, active)
                    and self._subsumed(a1, b1, active)
                ) or (
                    self._subsumed(a0, b1, active)
                    and self._subsumed(a1, b0, active)
                ):
                    return True
        return False

    def _dedups_into(self, extra: Token, current: Token) -> bool:
        """Would ``union(current, extra)`` collapse back into ``current``?

        Mirrors classifier duplicate detection: the union is discarded when
        its extent is provably equal to ``current``'s (which reduces to
        ``extra ⊆ current``) *and* its type — the intersection of both
        source types — equals ``current``'s type."""
        return self._subsumed(extra, current) and set(
            self.type_names(current)
        ) <= set(self.type_names(extra))

    def add_edge(self, view: str, sup: str, sub: str) -> None:
        state = self._view(view)
        t_sup = self._token(view, sup)
        t_sub = self._token(view, sub)
        if sup == sub or sup in state.anc[sub]:
            raise OracleReject(f"{sup!r} is already a superclass of {sub!r}")
        if sub in state.anc[sup]:
            raise OracleReject(f"edge {sup!r}->{sub!r} would create a cycle")
        sup_names = self.type_names(t_sup)
        replacements: Dict[str, Token] = {}
        for w in {sub} | state.descendants(sub):
            shared = tuple(sorted(sup_names - self.type_names(state.token[w])))
            if not shared:
                continue
            replacements[w] = self._new_token(
                "derived", op="refine", sources=(state.token[w],), shared=shared
            )
        primed_sub = replacements.get(sub, t_sub)
        for v in {sup} | state.anc[sup]:
            if v == sub or v in state.anc[sub]:
                continue  # already a superclass of sub through another path
            old = state.token[v]
            if self._dedups_into(primed_sub, old):
                continue  # classifier collapses the union back into v
            replacements[v] = self._new_token(
                "derived",
                op="union",
                sources=(old, primed_sub),
                propagation=old,
            )
        state.token.update(replacements)
        uppers = {sup} | state.anc[sup]
        for d in [sub] + sorted(state.descendants(sub)):
            state.anc[d] |= uppers - {d}
        self._collapse_twins(state, replacements)
        self._bump(state)

    def delete_edge(
        self, view: str, sup: str, sub: str, connected_to: Optional[str] = None
    ) -> None:
        state = self._view(view)
        self._token(view, sup)
        t_sub = self._token(view, sub)
        old_edges = state.direct_edges()
        if (sup, sub) not in old_edges:
            raise OracleReject(
                f"{sup!r} is not a direct superclass of {sub!r} in this view"
            )
        upper = None
        if connected_to is not None:
            upper = connected_to
            self._token(view, upper)
            if upper == sup or upper not in state.anc[sup]:
                raise OracleReject(
                    f"{connected_to!r} must be a superclass of {sup!r}"
                )
        remaining = old_edges - {(sup, sub)}
        if upper is not None:
            remaining = remaining | {(upper, sub)}

        def reachable_up(edges: Set[Tuple[str, str]], bottom: str) -> Set[str]:
            result: Set[str] = set()
            frontier = [bottom]
            while frontier:
                current = frontier.pop()
                for s, c in edges:
                    if c == current and s not in result:
                        result.add(s)
                        frontier.append(s)
            return result

        protected: Set[str] = set()
        if upper is not None:
            protected = {upper} | state.anc[upper]
        still_above_sub = reachable_up(remaining, sub)

        # first loop: shrink extents of sup and its view superclasses that
        # lose visibility of sub's instances (diff + keeper unions)
        new_tokens: Dict[str, Token] = {}
        for v in self._order_subs_first(state, {sup} | state.anc[sup]):
            if v in protected or v in still_above_sub:
                continue
            old = state.token[v]
            expr = self._new_token("derived", op="difference", sources=(old, t_sub))
            children = sorted(c for s, c in remaining if s == v)
            for child in children:
                keeper = new_tokens.get(child, state.token[child])
                if self._dedups_into(keeper, expr):
                    continue  # classifier collapses this union step
                expr = self._new_token(
                    "derived",
                    op="union",
                    sources=(expr, keeper),
                    propagation=old,
                )
            new_tokens[v] = expr

        # second loop: hide from sub's subtree every property inherited
        # solely through the deleted edge (findProperties, footnote 17)
        old_parents = {
            cls: {s for s, c in old_edges if c == cls} for cls in state.token
        }
        introduced = {}
        for cls in state.token:
            inherited: Set[str] = set()
            for p in old_parents[cls]:
                inherited |= self.type_names(state.token[p])
            introduced[cls] = set(self.type_names(state.token[cls])) - inherited
        remaining_parents = {
            cls: {s for s, c in remaining if c == cls} for cls in state.token
        }
        retained: Dict[str, Set[str]] = {}

        def retained_names(cls: str, active: FrozenSet[str]) -> Set[str]:
            if cls in retained:
                return retained[cls]
            if cls in active:  # pragma: no cover - view graphs are acyclic
                return set()
            result = set(introduced[cls])
            for p in remaining_parents[cls]:
                result |= retained_names(p, active | frozenset({cls}))
            retained[cls] = result
            return result

        sup_names = self.type_names(state.token[sup])
        for w in {sub} | state.descendants(sub):
            keep = retained_names(w, frozenset())
            lost = frozenset(
                n
                for n in sup_names
                if n in self.type_names(state.token[w]) and n not in keep
            )
            if lost:
                new_tokens[w] = self._new_token(
                    "derived", op="hide", sources=(state.token[w],), hidden=lost
                )

        state.token.update(new_tokens)
        # reachability is now the closure of the remaining direct edges
        anc: Dict[str, Set[str]] = {cls: set() for cls in state.token}

        def close(cls: str) -> Set[str]:
            result: Set[str] = set()
            frontier = list(remaining_parents[cls])
            while frontier:
                p = frontier.pop()
                if p in result:
                    continue
                result.add(p)
                frontier.extend(remaining_parents[p])
            return result

        for cls in state.token:
            anc[cls] = close(cls)
        state.anc = anc
        self._collapse_twins(state, new_tokens)
        self._bump(state)

    def _origins(self, token: Token) -> Set[Token]:
        if token.kind == "base":
            return {token}
        # a difference subtrahend is contravariant and reused verbatim by
        # the replay, so it contributes no origins
        sources = token.sources[:1] if token.op == "difference" else token.sources
        result: Set[Token] = set()
        for source in sources:
            result |= self._origins(source)
        return result

    def _replay(self, token: Token, mapping: Dict[Token, Token]) -> Token:
        if token in mapping:
            return mapping[token]
        if token.op == "difference":
            sources = (self._replay(token.sources[0], mapping), token.sources[1])
        else:
            sources = tuple(self._replay(s, mapping) for s in token.sources)
        replayed = self._new_token(
            "derived",
            op=token.op,
            sources=sources,
            new=token.new,
            shared=token.shared,
            hidden=token.hidden,
        )
        mapping[token] = replayed
        return replayed

    def add_class(
        self, view: str, name: str, connected_to: Optional[str] = None
    ) -> None:
        state = self._view(view)
        if name in state.token:
            raise OracleReject(f"view already has {name!r}")
        if name in self.global_names:
            raise OracleReject(f"global schema already has {name!r}")
        if connected_to is None:
            token = self._new_token("base", name=name)
            self.base[name] = token
            self.global_names.add(name)
            state.token[name] = token
            state.anc[name] = set()
            self._bump(state)
            return
        t_sup = self._token(view, connected_to)
        self.global_names.add(name)
        if t_sup.kind == "base":
            token = self._new_token("base", name=name, parents=(t_sup,))
            self.base[name] = token
        else:
            mapping: Dict[Token, Token] = {}
            for origin in sorted(self._origins(t_sup), key=lambda t: t.name):
                fresh = self._new_token("base", name=f"{name}_base_{origin.name}", parents=(origin,))
                mapping[origin] = fresh
            token = self._replay(t_sup, mapping)
            # the real define names this class with the user-given name
            token.lineage = name
        state.token[name] = token
        state.anc[name] = {connected_to} | set(state.anc[connected_to])
        self._bump(state)

    def delete_class(self, view: str, name: str) -> None:
        state = self._view(view)
        self._token(view, name)
        if len(state.token) == 1:
            raise OracleReject("view would become empty")
        del state.token[name]
        state.anc.pop(name)
        state.aliases.pop(name, None)
        for ancestors in state.anc.values():
            ancestors.discard(name)
        self._bump(state)

    def rename_class(self, view: str, old: str, new: str) -> None:
        state = self._view(view)
        self._token(view, old)
        if new in state.token:
            raise OracleReject(f"view already has a class named {new!r}")
        state.token[new] = state.token.pop(old)
        state.anc[new] = state.anc.pop(old)
        for ancestors in state.anc.values():
            if old in ancestors:
                ancestors.discard(old)
                ancestors.add(new)
        if old in state.aliases:
            state.aliases[new] = state.aliases.pop(old)
        self._bump(state, publish=False)

    def rename_property(self, view: str, cls: str, old: str, new: str) -> None:
        state = self._view(view)
        token = self._token(view, cls)
        visible = {self._alias_of(view, cls, n) for n in self.type_names(token)}
        if new in visible:
            raise OracleReject(f"{cls!r} already shows a property named {new!r}")
        underlying = self._underlying_of(view, cls, old)
        if underlying not in self.type_names(token):
            raise OracleReject(f"no property {old!r} in {cls!r}")
        per_class = state.aliases.setdefault(cls, {})
        per_class.pop(old, None)
        per_class[new] = underlying
        self._bump(state, publish=False)

    # -- composed operators (section 6.9) --------------------------------------

    def insert_class(self, view: str, name: str, between: Tuple[str, str]) -> None:
        sup, sub = between
        state = self._view(view)
        if sup not in state.token or sub not in state.token:
            raise OracleReject(
                f"both {sup!r} and {sub!r} must be in the view"
            )
        self.add_class(view, name, connected_to=sup)
        self.add_edge(view, name, sub)

    def delete_class_2(self, view: str, name: str) -> None:
        state = self._view(view)
        if name not in state.token:
            raise OracleReject(f"no class {name!r} in view")
        edges = state.direct_edges()
        subs = sorted(c for s, c in edges if s == name)
        sups = sorted(s for s, c in edges if c == name)
        for sub in subs:
            self.delete_edge(view, name, sub)
            for sup in sups:
                self.add_edge(view, sup, sub)
        for sup in sorted(
            s for s, c in self._view(view).direct_edges() if c == name
        ):
            self.delete_edge(view, sup, name)
        self.delete_class(view, name)

    # -- version merging (section 7) -------------------------------------------

    def merge_views(
        self,
        first: str,
        second: str,
        into: str,
        first_version: Optional[int] = None,
        second_version: Optional[int] = None,
    ) -> None:
        """Mirror of :func:`repro.core.merging.merge_views`.

        Classes of the two views that are the same *global* class (their
        tokens canonicalise to the same dedup survivor in the mirrored
        DAG) unify into one merged class; same-named distinct classes are
        disambiguated with the ``{name}_v{origin.version}`` suffix; the
        merged reachability is the global DAG's ancestry restricted to the
        merged selection.
        """
        if into in self.views:
            raise OracleReject(f"merge target view {into!r} already exists")
        fs = self._resolved(first, first_version)
        ss = self._resolved(second, second_version)
        self._ensure_registry()
        first_canon = {cls: self._canon_of(t) for cls, t in fs.token.items()}
        second_canon = {cls: self._canon_of(t) for cls, t in ss.token.items()}
        first_globals = set(first_canon.values())

        taken: Dict[str, Token] = {}
        chosen_name: Dict[Token, str] = {}

        def claim(canonical: Token, wanted: str, origin_version: int) -> None:
            holder = taken.get(wanted)
            if holder is None:
                taken[wanted] = canonical
                chosen_name[canonical] = wanted
                return
            if holder is canonical:  # pragma: no cover - defensive
                return
            suffixed = f"{wanted}_v{origin_version}"
            index = 2
            while suffixed in taken:
                suffixed = f"{wanted}_v{origin_version}_{index}"
                index += 1
            taken[suffixed] = canonical
            chosen_name[canonical] = suffixed

        # the real merge iterates ``sorted(selected)`` — *global* names, not
        # view-visible ones.  (lineage, id) reproduces that order without
        # tracking the names themselves (see Token.lineage).
        def global_order(canon_map):
            return lambda cls: (canon_map[cls].lineage, canon_map[cls].id)

        for cls in sorted(fs.token, key=global_order(first_canon)):
            claim(first_canon[cls], cls, fs.version)
        for cls in sorted(ss.token, key=global_order(second_canon)):
            if second_canon[cls] in first_globals:
                continue  # identical global class arrived through the first view
            claim(second_canon[cls], cls, ss.version)

        state = ViewState()
        for canonical, name in chosen_name.items():
            state.token[name] = canonical
        selection = set(chosen_name)
        for canonical, name in chosen_name.items():
            ancestors = self._dag_ancestors(canonical)
            state.anc[name] = {
                chosen_name[a] for a in ancestors if a in selection
            }
        for origin_state, canon_map in ((fs, first_canon), (ss, second_canon)):
            for cls, per_class in origin_state.aliases.items():
                if not per_class:
                    continue
                merged_name = chosen_name[canon_map[cls]]
                state.aliases.setdefault(merged_name, {}).update(per_class)
        state.merged = True
        state.history[1] = state.snapshot()
        self.views[into] = state
        self._touch()


_MISSING = object()
