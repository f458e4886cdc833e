"""``TseDatabase`` — the public facade wiring every subsystem together.

Mirrors the architecture of figure 6: GemStone stand-in (storage) at the
bottom, the TSE object model (instance pool) above it, the global schema
manager, and on top the algebra processor, classifier, view manager and TSE
manager.  Most applications only ever touch this class plus the handles it
returns.

Typical use::

    db = TseDatabase()
    db.define_class("Person", [Attribute("name")])
    db.define_class("Student", [Attribute("major")], inherits_from=("Person",))
    view = db.create_view("registrar", ["Person", "Student"])
    view.add_attribute("register", to="Student")      # transparent evolution
    student = view["Student"].create(name="Ada", register="enrolled")
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.algebra.define import AlgebraProcessor, DefineStatement
from repro.algebra.updates import UpdateEngine, ValueClosurePolicy
from repro.core.handles import ObjectHandle, ViewClassHandle, ViewHandle
from repro.core.manager import TseManager
from repro.core.merging import merge_views
from repro.objectmodel.indexes import IndexManager
from repro.objectmodel.slicing import InstancePool
from repro.obs import Observability
from repro.schema.classes import Derivation, ROOT_CLASS
from repro.schema.extents import IncrementalExtentEvaluator
from repro.schema.graph import GlobalSchema
from repro.schema.properties import Attribute, Method, Property
from repro.storage.store import ObjectStore
from repro.views.manager import ViewManager
from repro.views.schema import ViewSchema


#: :meth:`TseDatabase.schema_change`'s argument vocabulary: per primitive,
#: the required arguments, then the optional ones with their defaults.
#: ``from`` is the wire spelling of the handles' ``from_``.
_SCHEMA_CHANGE_ARGS = {
    "add_attribute": (
        ("name", "to"),
        {"domain": "any", "required": False, "default": None},
    ),
    "delete_attribute": (("name", "from"), {}),
    "add_method": (("name", "to"), {"doc": ""}),
    "delete_method": (("name", "from"), {}),
    "add_edge": (("sup", "sub"), {}),
    "delete_edge": (("sup", "sub"), {"connected_to": None}),
    "add_class": (("name",), {"connected_to": None}),
    "delete_class": (("name",), {}),
}


class TseDatabase:
    """An in-process TSE database: global schema, instances, views, evolution."""

    def __init__(
        self,
        slots_per_page: int = 32,
        cache_pages: int = 8,
        value_closure: ValueClosurePolicy = ValueClosurePolicy.REJECT,
    ) -> None:
        #: observability bundle: tracer + metrics registry + event bus
        self.obs = Observability()
        tracer = self.obs.tracer
        self.store = ObjectStore(slots_per_page=slots_per_page, cache_pages=cache_pages)
        self.pool = InstancePool(self.store)
        self.indexes = IndexManager(self.pool)
        self.schema = GlobalSchema()
        self.evaluator = IncrementalExtentEvaluator(
            self.schema, self.pool, tracer=tracer
        )
        self.engine = UpdateEngine(
            self.schema, self.pool, self.evaluator, value_closure=value_closure
        )
        self.algebra = AlgebraProcessor(self.schema, tracer=tracer)
        self.views = ViewManager(self.schema, tracer=tracer)
        self.tsem = TseManager(
            self.schema,
            self.algebra,
            self.views,
            tracer=tracer,
            events=self.obs.events,
            metrics=self.obs.metrics,
        )
        #: durability subsystem (:class:`repro.storage.wal.WalManager`);
        #: ``None`` until :meth:`enable_wal` or :meth:`recover` attaches one
        self.wal = None
        #: concurrency session layer (:class:`repro.concurrency.sessions.SessionManager`);
        #: ``None`` until :meth:`sessions` creates it — single-threaded use
        #: pays nothing for it
        self._sessions = None
        #: whether the session layer's lazy migration drains epoch backlogs
        #: in a background worker; set before :meth:`sessions` attaches it
        #: (off, only first-touch reads, pre-mutation seals and explicit
        #: ``backfill_step`` calls capture)
        self.migration_backfill = True
        #: outcome counters of :meth:`transaction` savepoints
        self.commits = 0
        self.aborts = 0
        self._register_metrics()
        # crash dossiers carry the live schema/view state at dump time
        self.obs.flight.add_state("schema_generation", lambda: self.schema.generation)
        self.obs.flight.add_state(
            "classes", lambda: len(self.schema.class_names())
        )
        self.obs.flight.add_state(
            "view_versions",
            lambda: {
                name: self.views.current(name).version
                for name in self.views.history.view_names()
            },
        )

    # ------------------------------------------------------------------
    # schema authoring (the initial global schema of section 2.1)
    # ------------------------------------------------------------------

    def define_class(
        self,
        name: str,
        properties: Sequence[Property] = (),
        inherits_from: Sequence[str] = (ROOT_CLASS,),
    ):
        """Author a base class in the global schema."""
        result = self.schema.add_base_class(
            name, properties=tuple(properties), inherits_from=tuple(inherits_from)
        )
        if self.wal is not None:
            from repro.persistence import property_to_dict

            self.wal.record(
                "define_class",
                {
                    "name": name,
                    "properties": [property_to_dict(p) for p in properties],
                    "inherits_from": list(inherits_from),
                },
            )
        return result

    def define_virtual_class(self, name: str, derivation: Derivation) -> str:
        """Run one ``defineVC`` statement; returns the effective class name
        (an existing class when the classifier found a duplicate)."""
        with self.obs.tracer.span("define_vc", name=name, op=derivation.op):
            outcome = self.algebra.execute(
                DefineStatement(name=name, derivation=derivation)
            )
        self.obs.events.emit(
            "definevc",
            name=name,
            effective=outcome.class_name,
            created=outcome.created,
        )
        if self.wal is not None:
            from repro.persistence import derivation_to_dict

            self.wal.record(
                "definevc",
                {"name": name, "derivation": derivation_to_dict(derivation)},
            )
        return outcome.class_name

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def create_view(
        self,
        name: str,
        classes: Iterable[str],
        renames: Optional[Mapping[str, str]] = None,
        closure: str = "complete",
    ) -> ViewHandle:
        """Create a view over global classes and return a live handle."""
        classes = list(classes)
        self.views.create_view(name, classes, renames, closure=closure)
        if self.wal is not None:
            self.wal.record(
                "create_view",
                {
                    "name": name,
                    "classes": classes,
                    "renames": dict(renames) if renames else None,
                    "closure": closure,
                },
            )
        return ViewHandle(self, name)

    def view(self, name: str) -> ViewHandle:
        """A live handle onto an existing view (always the current version)."""
        self.views.current(name)  # raises UnknownView when absent
        return ViewHandle(self, name)

    def view_names(self) -> List[str]:
        return self.views.history.view_names()

    def merge_views(
        self,
        first: str,
        second: str,
        into: str,
        first_version: Optional[int] = None,
        second_version: Optional[int] = None,
    ) -> ViewHandle:
        """Version merging (section 7)."""
        merge_views(
            self.views,
            first,
            second,
            into,
            first_version=first_version,
            second_version=second_version,
        )
        if self.wal is not None:
            self.wal.record(
                "merge_views",
                {
                    "first": first,
                    "second": second,
                    "into": into,
                    "first_version": first_version,
                    "second_version": second_version,
                },
            )
        return ViewHandle(self, into)

    def retire_view_version(self, name: str, version: int) -> None:
        """Retire a historical view version once the fleet has vacated it.

        Reads through the retired pin stay legal (forensics), writes raise
        :class:`~repro.errors.RetiredViewVersion`; the current version can
        never retire.  Retirement is durable — it writes a WAL record and
        rides along in checkpoints.
        """
        self.views.history.retire(name, version)
        if self.wal is not None:
            self.wal.record("retire_view", {"view": name, "version": version})

    # ------------------------------------------------------------------
    # direct (un-viewed) access — mostly for tests and tooling
    # ------------------------------------------------------------------

    def extent(self, global_class: str):
        return self.evaluator.extent(global_class)

    def type_names(self, global_class: str) -> List[str]:
        return sorted(self.schema.type_of(global_class))

    def evolution_log(self):
        """Audit trail of every schema change applied through the TSEM."""
        return list(self.tsem.log)

    def explain(self, view_name: str, operation: str, **args):
        """Dry-run a primitive schema change: the ``defineVC`` script, the
        classifier's dedup decisions, affected extents and the predicted
        recheck bill — with per-phase timings, and no change committed.

        ``operation`` is one of the eight primitives
        (:data:`repro.core.explain.PRIMITIVE_OPS`); ``args`` mirror the
        :class:`~repro.core.handles.ViewHandle` method of the same name.
        Returns an :class:`~repro.core.explain.ExplainReport`."""
        from repro.core.explain import explain_change

        return explain_change(self, view_name, operation, **args)

    # ------------------------------------------------------------------
    # stable facade — named-argument entry points shared by the network
    # server, the CLI and future query layers (ROADMAP: "extract a stable
    # Database facade API").  Everything below speaks *view vocabulary*
    # and plain data (dicts, ints, JSON predicates), never handles.
    # ------------------------------------------------------------------

    def schema_change(
        self, view_name: str, op: str, args: Optional[Mapping[str, object]] = None
    ) -> Dict[str, object]:
        """Apply one of the eight primitive schema changes by name.

        ``op`` is one of :data:`repro.core.explain.PRIMITIVE_OPS`; ``args``
        carries the operator's keyword arguments as plain data (the same
        vocabulary :meth:`explain` accepts).  Returns ``{"view", "version"}``
        for the new view version.  Raises :class:`ValueError` on an unknown
        operator or missing argument — argument errors are the *caller's*
        fault and are kept distinct from the database rejecting a
        well-formed change (:class:`~repro.errors.EvolutionError`).
        """
        signature = _SCHEMA_CHANGE_ARGS.get(op)
        if signature is None:
            from repro.core.explain import PRIMITIVE_OPS

            raise ValueError(
                f"unknown schema change {op!r}; expected one of "
                f"{', '.join(PRIMITIVE_OPS)}"
            )
        args = args or {}
        view = self.view(view_name)
        required, optional = signature
        missing = [key for key in required if key not in args]
        if missing:
            raise ValueError(f"{op} requires argument(s): {', '.join(missing)}")
        kwargs = {("from_" if key == "from" else key): args[key] for key in required}
        for key, default in optional.items():
            kwargs[key] = args.get(key, default)
        if op == "add_attribute":
            kwargs["required"] = bool(kwargs["required"])
        elif op == "add_method":
            kwargs["doc"] = str(kwargs["doc"])
            kwargs["body"] = None  # a method body is code; it cannot cross the wire
        getattr(view, op)(**kwargs)
        return {"view": view_name, "version": self.views.current(view_name).version}

    def describe_view(self, view_name: str) -> Dict[str, object]:
        """The attached surface of one view as plain data: version plus
        every class with its visible property names."""
        view = self.view(view_name)
        return {
            "view": view_name,
            "version": view.version,
            "classes": {
                cls: {"properties": view[cls].property_names()}
                for cls in view.class_names()
            },
        }

    def read_extent(
        self, view_name: str, view_class: str, with_values: bool = False
    ) -> Dict[str, object]:
        """Extent of one view class as plain data: sorted OID integers and,
        when ``with_values`` is set, each object's visible attribute values
        keyed by OID."""
        handle = self.view(view_name)[view_class]
        result: Dict[str, object] = {
            "class": view_class,
            "oids": [oid.value for oid in handle.extent_oids()],
        }
        if with_values:
            result["objects"] = {
                str(oid.value): values
                for oid, values in handle.dump_objects().items()
            }
        return result

    def apply_view_updates(
        self,
        view_name: str,
        updates: Sequence[Mapping[str, object]],
    ) -> List[Dict[str, object]]:
        """Apply generic updates phrased in *view vocabulary* as one batch.

        Each update is a plain dict: ``{"op": "create", "class": C,
        "values": {...}}``, ``{"op": "set", "class": C, "values": {...},
        "oids": [...] | "where": <predicate dict>}``, and likewise for
        ``delete`` / ``add`` (with optional ``"from"`` source class) /
        ``remove``.  ``where`` predicates use the JSON form of
        :func:`repro.algebra.expressions.predicate_from_dict` and are
        resolved against the pre-batch state; the shell's ``.batch commit``
        runs through here.  Property and class names go through the view's
        rename maps.  Returns one plain-data report per update (``{"oid"}``
        for create, ``{"count"}`` otherwise); the batch is all-or-nothing
        via :meth:`apply_many`.
        """
        from repro.algebra.expressions import predicate_from_dict
        from repro.storage.oid import Oid

        view = self.view(view_name)
        schema = view.schema

        def target_oids(spec: Mapping[str, object], cls_handle) -> List[Oid]:
            if "oids" in spec:
                raw = spec["oids"]
                if not isinstance(raw, (list, tuple)):
                    raise ValueError('"oids" must be a list of integers')
                return [Oid(int(value)) for value in raw]
            if "where" in spec:
                predicate = predicate_from_dict(dict(spec["where"]))
                return [h.oid for h in cls_handle.select_where(predicate)]
            return [h.oid for h in cls_handle.extent()]

        def visible(cls: str, values: Mapping[str, object]) -> Dict[str, object]:
            return {
                schema.visible_property(cls, name): value
                for name, value in dict(values).items()
            }

        specs: List[Tuple[str, Dict[str, object]]] = []
        for spec in updates:
            spec = dict(spec)
            op = spec.get("op")
            cls = spec.get("class")
            if op not in ("create", "set", "delete", "add", "remove"):
                raise ValueError(
                    f"unknown update op {op!r} (expected create/set/delete/"
                    f"add/remove)"
                )
            if cls is None:
                raise ValueError(f'update {op!r} requires a "class"')
            cls_handle = view[cls]
            if op == "create":
                specs.append(
                    (
                        "create",
                        {
                            "class_name": cls_handle.global_name,
                            "assignments": visible(cls, spec.get("values", {})),
                        },
                    )
                )
            elif op == "set":
                specs.append(
                    (
                        "set",
                        {
                            "oids": target_oids(spec, cls_handle),
                            "class_name": cls_handle.global_name,
                            "assignments": visible(cls, spec.get("values", {})),
                        },
                    )
                )
            elif op == "delete":
                specs.append(("delete", {"oids": target_oids(spec, cls_handle)}))
            elif op == "add":
                source = view[spec["from"]] if "from" in spec else cls_handle
                specs.append(
                    (
                        "add",
                        {
                            "oids": target_oids(spec, source),
                            "class_name": cls_handle.global_name,
                        },
                    )
                )
            else:  # remove
                specs.append(
                    (
                        "remove",
                        {
                            "oids": target_oids(spec, cls_handle),
                            "class_name": cls_handle.global_name,
                        },
                    )
                )
        results = self.apply_many(specs)
        reports: List[Dict[str, object]] = []
        for (op, _kwargs), outcome in zip(specs, results):
            if op == "create":
                reports.append({"op": op, "oid": outcome.value})
            else:
                reports.append({"op": op, "count": len(outcome.oids)})
        return reports

    def serve(self, host: str = "127.0.0.1", port: int = 0, **options):
        """Serve this database over TCP until interrupted — the blocking
        convenience around :class:`repro.server.server.TseServer` the CLI's
        ``.serve`` uses.  See :mod:`repro.server` for the protocol."""
        from repro.server.server import serve_forever

        return serve_forever(self, host, port, **options)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def vacuum(self) -> List[str]:
        """Drop virtual classes no view version references, directly or
        through derivations.

        Evolution accumulates helper classes (the diff/union temporaries of
        delete-edge, superseded primes once *every* version using them is
        itself unreferenced).  A class is retained when it is a base class,
        selected by any view version in the history, or a (transitive)
        derivation source of a retained class.  Returns the names removed.
        """
        from repro.schema.classes import VirtualClass

        if self._sessions is not None:
            # class removal would invalidate the live evaluator the pending
            # captures read through — drain every epoch backlog first so
            # old epochs keep their publish-time extents
            self._sessions.migration.drain()
        retained = set()
        for view_name in self.views.history.view_names():
            for version in self.views.history.versions_of(view_name):
                retained |= set(version.selected)
        frontier = list(retained)
        while frontier:
            current = frontier.pop()
            cls = self.schema[current]
            if isinstance(cls, VirtualClass):
                for source in cls.derivation.sources:
                    if source not in retained:
                        retained.add(source)
                        frontier.append(source)
        # every remaining virtual class must also not feed a retained one
        # (covered above) — anything else virtual is garbage
        garbage = {
            name
            for name in self.schema.class_names()
            if isinstance(self.schema[name], VirtualClass) and name not in retained
        }
        # drop in dependency order: a class leaves only when no other
        # garbage class still derives from it; iterate to a fixpoint
        removed: List[str] = []
        progress = True
        while progress:
            progress = False
            for name in sorted(garbage - set(removed)):
                dependents = [
                    other
                    for other in garbage
                    if other != name
                    and other not in removed
                    and name in self.schema[other].derivation.sources
                ]
                if not dependents:
                    self.schema.remove_class(name)
                    removed.append(name)
                    progress = True
        if removed:
            self.evaluator.invalidate()
        if self.wal is not None:
            self.wal.record("vacuum", {})
        return sorted(removed)

    def migration_status(self) -> Dict[str, object]:
        """Progress of lazy schema migration, as plain data.

        ``{"mode", "backlog", "epochs", "backfill"}`` where ``backlog``
        counts class extents still pending capture across live epochs and
        ``epochs`` lists each migrating epoch with its watermark (fraction
        of classes captured).  ``mode`` is always ``"lazy"``.  Databases
        without the session layer have published no epoch, so they report
        a zero backlog and no backfill worker.  Also served over the wire
        as the server's ``migration_status`` request.
        """
        if self._sessions is not None:
            return self._sessions.migration.status()
        return {
            "mode": "lazy",
            "backlog": 0,
            "epochs": [],
            "backfill": {
                "enabled": False,
                "worker_alive": False,
                "batch_limit": 0,
                "steps": 0,
            },
        }

    # ------------------------------------------------------------------
    # concurrent sessions
    # ------------------------------------------------------------------

    def sessions(self):
        """The concurrency session layer (created on first use).

        Returns the database's :class:`~repro.concurrency.sessions.SessionManager`:
        ``sessions().reader()`` gives a snapshot-isolated reader pinned to
        the current schema epoch, ``sessions().writer()`` exclusive access
        for a block of changes.  Attaching the layer wires the schema latch
        into the TSE manager, so every schema change — from sessions or
        from plain handles — serialises behind one writer at a time.
        """
        if self._sessions is None:
            from repro.concurrency.sessions import SessionManager

            self._sessions = SessionManager(self)
        return self._sessions

    # ------------------------------------------------------------------
    # transactions (database-level savepoints)
    # ------------------------------------------------------------------

    def transaction(self):
        """A context manager giving all-or-nothing semantics to a block of
        work — generic updates *and* schema evolution alike.

        Implemented as a savepoint (this is a single-process reproduction;
        the paper delegated real concurrency control to GemStone): on a
        raised exception the store, instance pool, global schema, view
        history, evolution log and indexes are rolled back to the state at
        entry, and the exception propagates.  The store and the pool do not
        copy anything on entry: inside the outermost savepoint they journal
        the inverse of every write into one shared undo journal, entry
        takes a mark in it, and a rollback undoes the block's writes
        newest-first.  Savepoints nest; an inner rollback undoes back to
        its own mark only, and the journal is dropped when the outermost
        savepoint ends.  The journal is the database's, not the thread's:
        with the session layer attached, a savepoint holds the writer side
        of the schema latch for its whole block, so two threads'
        savepoints never interleave.

        ::

            with db.transaction():
                view.add_attribute("x", to="C")
                view["C"].create(x=1)
                raise RuntimeError()   # everything above is undone
        """
        from contextlib import contextmanager, nullcontext

        @contextmanager
        def scope():
            # the undo journal, the WAL buffer marks and the commit/abort
            # counters are per database, so once threads are in play
            # (``sessions()``) a savepoint holds the writer side of the
            # schema latch; it is owner re-entrant, so nesting is free
            sessions = self._sessions
            with sessions.latch.write() if sessions is not None else nullcontext():
                tracer = self.obs.tracer
                outermost = self.pool.journal is None
                try:
                    checkpoint = self._checkpoint()
                    if self.wal is not None:
                        self.wal.begin_savepoint()
                    try:
                        yield self
                    except BaseException:
                        with tracer.span("abort", scope="savepoint"):
                            self._restore(checkpoint)
                        if self.wal is not None:
                            # abort is a no-op on disk: buffered records are dropped
                            self.wal.abort_savepoint()
                        self.aborts += 1
                        raise
                    with tracer.span("commit", scope="savepoint"):
                        # savepoint release: the WAL buffer (records journaled by
                        # the block) reaches the disk here, in one barrier — this
                        # closes the all-or-nothing unit of work
                        if self.wal is not None:
                            self.wal.commit_savepoint()
                    self.commits += 1
                finally:
                    if outermost:
                        self.pool.end_journal()

        return scope()

    def apply_many(
        self, updates: Sequence[Tuple[str, Mapping[str, object]]]
    ) -> List[object]:
        """Apply a sequence of generic updates as one atomic batch.

        ``updates`` is a list of ``(op, kwargs)`` pairs where ``op`` is one
        of ``"create"``, ``"delete"``, ``"set"``, ``"add"``, ``"remove"``
        and ``kwargs`` matches the corresponding
        :class:`~repro.algebra.updates.UpdateEngine` method (``"set"`` maps
        to :meth:`~repro.algebra.updates.UpdateEngine.set_values`).  Returns
        the per-operation results in order — the new :class:`Oid` for
        ``create``, an :class:`~repro.algebra.updates.UpdateReport`
        otherwise.

        The batch pays its fixed costs once instead of per update:

        * the schema latch (when the session layer is attached) is taken
          once on the write side for the whole batch — by the savepoint —
          so neither a schema change nor another thread's batch
          interleaves mid-batch;
        * the WAL sees **one group commit** — the batch runs inside a
          savepoint, whose release emits a single composite ``txn`` record
          and one barrier, instead of a record + flush per update;
        * failure anywhere rolls the whole batch back (savepoint restore)
          and re-raises — all-or-nothing, matching what recovery replays.
        """
        engine = self.engine
        dispatch = {
            "create": engine.create,
            "delete": engine.delete,
            "set": engine.set_values,
            "add": engine.add,
            "remove": engine.remove,
        }
        calls = []
        for op, kwargs in updates:
            fn = dispatch.get(op)
            if fn is None:
                from repro.errors import UpdateRejected

                raise UpdateRejected(
                    f"unknown batch operation {op!r} (expected one of "
                    f"{sorted(dispatch)})"
                )
            calls.append((fn, dict(kwargs)))
        results: List[object] = []
        with self.transaction():
            for fn, kwargs in calls:
                results.append(fn(**kwargs))
        return results

    def _checkpoint(self) -> dict:
        return {
            # a mark in the undo journal the store and the pool share
            "pool": self.pool.memento(),
            "schema": self.schema.memento(),
            "views": {
                name: list(self.views.history.versions_of(name))
                for name in self.views.history.view_names()
            },
            "retired_views": self.views.history.retired_map(),
            "log_length": len(self.tsem.log),
            "indexes": list(self.indexes.index_names()),
        }

    def _restore(self, checkpoint: dict) -> None:
        self.pool.restore(checkpoint["pool"])
        self.schema.restore(checkpoint["schema"])
        self.views.history._versions = {
            name: list(versions)
            for name, versions in checkpoint["views"].items()
        }
        self.views.history.restore_retired(checkpoint.get("retired_views", {}))
        del self.tsem.log[checkpoint["log_length"]:]
        # rebuild indexes from restored data (cheap at savepoint scale)
        for storage_class, attribute in checkpoint["indexes"]:
            self.indexes.drop_index(storage_class, attribute)
            self.indexes.create_index(storage_class, attribute)
        for storage_class, attribute in list(self.indexes.index_names()):
            if (storage_class, attribute) not in checkpoint["indexes"]:
                self.indexes.drop_index(storage_class, attribute)
        self.evaluator.invalidate()

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------

    def create_index(self, class_name: str, attribute: str):
        """Create an exact-match index on an attribute of a global class.

        The index is placed at the attribute's *storage class* (where the
        definition lives), so it also serves subclasses and the primed
        virtual classes evolution creates.
        """
        from repro.schema import types as typemod

        resolved = typemod.resolve(
            self.schema.type_of(class_name), attribute, class_name=class_name
        )
        if resolved.storage_class is None:
            from repro.errors import ObjectModelError

            raise ObjectModelError(
                f"{attribute!r} of {class_name!r} is not a stored attribute"
            )
        index = self.indexes.create_index(resolved.storage_class, attribute)
        if self.wal is not None:
            self.wal.record(
                "create_index", {"class": class_name, "attribute": attribute}
            )
        return index

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, path) -> None:
        """Persist the whole database (schema, objects, views) to one JSON
        file; see :mod:`repro.persistence`."""
        from repro.persistence import save_database

        save_database(self, path)

    # ------------------------------------------------------------------
    # durability (write-ahead log + checkpoints)
    # ------------------------------------------------------------------

    def enable_wal(self, directory, sync: str = "flush", crash_injector=None):
        """Attach a write-ahead log rooted at ``directory`` and take an
        initial checkpoint, making the current state the recovery baseline.

        From here on every mutation issued through the public surface
        (generic updates, schema changes, view authoring, renames, vacuum,
        indexes) is journaled and flushed before control returns — after a
        crash, :meth:`recover` reconstructs exactly the committed prefix.
        Refuses a directory that already holds a checkpoint or a non-empty
        log: that is a database to :meth:`recover`, not to overwrite.
        """
        from pathlib import Path

        from repro.errors import StorageError
        from repro.storage.wal import CHECKPOINT_NAME, LOG_NAME, WalManager

        if self.wal is not None:
            raise StorageError("a write-ahead log is already attached")
        directory = Path(directory)
        log_path = directory / LOG_NAME
        if (directory / CHECKPOINT_NAME).exists() or (
            log_path.exists() and log_path.stat().st_size > 0
        ):
            raise StorageError(
                f"{directory} already holds a WAL database — use "
                f"TseDatabase.recover() instead of enable_wal()"
            )
        manager = WalManager(
            self, directory, sync=sync, crash_injector=crash_injector
        )
        manager.attach()
        manager.checkpoint()
        return manager

    def checkpoint(self):
        """Write an atomic snapshot and prune the log (requires a WAL)."""
        from repro.errors import StorageError

        if self.wal is None:
            raise StorageError("no write-ahead log attached — call enable_wal()")
        return self.wal.checkpoint()

    @classmethod
    def recover(cls, directory, methods=None, sync: str = "flush") -> "TseDatabase":
        """Rebuild a database from a WAL directory: load the newest
        checkpoint, replay the surviving log suffix (truncating any torn
        tail a crash left), and re-attach a live WAL so the recovered
        database keeps journaling.  ``methods`` rebinds method bodies as in
        :meth:`load`."""
        from repro.storage.wal import recover_database

        return recover_database(directory, methods=methods, sync=sync)

    @classmethod
    def load(cls, path, methods=None) -> "TseDatabase":
        """Load a database written by :meth:`save`.  ``methods`` rebinds
        method bodies (callables are not serialisable): a mapping from
        ``"Class.method"`` or ``"method"`` to a callable."""
        from repro.persistence import load_database

        return load_database(path, methods=methods)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def _register_metrics(self) -> None:
        """Absorb every component's counters into the unified registry.

        Gauges observe live component state through callbacks (no
        duplication); groups preserve the nested dict shape ``stats()``
        has always exposed.  Registration order here *is* the key order of
        :meth:`stats` — treat it as a compatibility surface.
        """
        metrics = self.obs.metrics
        metrics.gauge(
            "classes_total",
            help="classes in the global schema",
            callback=lambda: len(self.schema.class_names()),
        )
        metrics.gauge(
            "classes_base",
            help="base classes authored by users",
            callback=lambda: len(self.schema.base_classes()),
        )
        metrics.gauge(
            "classes_virtual",
            help="virtual classes derived by evolution",
            callback=lambda: len(self.schema.virtual_classes()),
        )
        metrics.gauge(
            "objects",
            help="live conceptual objects",
            callback=lambda: self.pool.object_count,
        )
        metrics.gauge(
            "oids_used",
            help="OIDs consumed (conceptual + implementation)",
            callback=lambda: self.pool.total_oids_used(),
        )
        metrics.gauge(
            "managerial_bytes",
            help="object-slicing managerial overhead (Table 1)",
            callback=lambda: self.pool.total_managerial_bytes(),
        )
        metrics.gauge(
            "avg_n_impl",
            help="average implementation objects per conceptual object",
            callback=lambda: self.pool.average_n_impl(),
        )
        metrics.gauge(
            "views", help="views registered", callback=lambda: len(self.view_names())
        )
        metrics.gauge(
            "view_versions",
            help="view versions across all histories",
            callback=lambda: self.views.history.total_versions(),
        )
        # late-bound lambdas, not bound methods: persistence.load_database
        # swaps ``db.store`` (and may swap other components) after __init__
        metrics.register_group("pages", lambda: self.store.stats.as_dict())
        metrics.register_group("extents", lambda: self.evaluator.stats.as_dict())
        metrics.register_group(
            "transactions",
            lambda: {"committed": self.commits, "aborted": self.aborts},
        )
        metrics.register_group("pipeline", self._pipeline_stats)
        # pre-register pipeline counters so the snapshot shape is stable
        # from the first read, not from the first schema change
        metrics.counter(
            "schema_changes_applied", help="schema-change pipelines completed"
        )
        metrics.counter("schema_changes_failed", help="schema-change pipelines failed")

    def _pipeline_stats(self) -> Dict[str, object]:
        return {
            "events_emitted": self.obs.events.emitted,
            "spans_recorded": self.obs.tracer.spans_recorded,
            "tracing_enabled": self.obs.tracer.enabled,
        }

    def stats(self) -> Dict[str, object]:
        """A one-stop bundle of observability counters.

        Delegates to the unified :class:`~repro.obs.metrics.MetricsRegistry`
        (``db.obs.metrics``); the same numbers are exportable as Prometheus
        text via ``db.obs.metrics.to_prometheus()`` or the shell's
        ``.metrics --prom``.
        """
        return self.obs.metrics.snapshot()

    def reset_stats(self) -> None:
        """Zero every resettable counter (extent cache stats, page I/O,
        transaction outcomes, registry counters/histograms, trace ring) so
        benchmarks can measure phases in isolation."""
        self.evaluator.stats.reset()
        self.store.reset_stats()
        self.commits = 0
        self.aborts = 0
        self.obs.metrics.reset()
        self.obs.tracer.clear()

    def extent_stats(self):
        """Cache behaviour of the incremental extent engine
        (:class:`~repro.schema.extents.ExtentStats`)."""
        return self.evaluator.stats
