"""The Transparent Schema Evolution Manager (TSEM) — figure 6's control module.

One call to :meth:`TseManager.apply` runs the full pipeline of section 6.1.3:

1. the **TSE Translator** maps the requested change to a view-specification
   script (arrow 1);
2. the **Extended Object Algebra Processor** executes the script, creating
   virtual classes which the **Classifier** integrates into the global
   schema, reusing duplicates (arrow 2);
3. the **View Manager** assembles the successor view schema — old classes
   substituted by their primed replacements, primed classes renamed back to
   their original view names — and registers it in the **View Schema
   History** (arrow 3), substituting the old version.

The pipeline is atomic: a failure at any step restores the global schema to
its pre-change structure and leaves the view history untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import EvolutionError, TseError
from repro.algebra.define import AlgebraProcessor, DefineOutcome
from repro.core.translator import ChangePlan, TseTranslator
from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.schema.classes import VirtualClass
from repro.schema.graph import GlobalSchema
from repro.schema.properties import Attribute, Method
from repro.views.manager import ViewManager
from repro.views.schema import ViewSchema


@dataclass
class EvolutionRecord:
    """Audit record of one applied schema change."""

    view_name: str
    old_version: int
    new_version: int
    plan: ChangePlan
    outcomes: List[DefineOutcome] = field(default_factory=list)
    #: statement name -> effective global class name (after duplicate reuse)
    effective: Dict[str, str] = field(default_factory=dict)

    @property
    def script(self) -> str:
        return self.plan.render_script()

    def classes_created(self) -> List[str]:
        return [o.class_name for o in self.outcomes if o.created]

    def duplicates_reused(self) -> List[Tuple[str, str]]:
        return [
            (o.statement.name, o.class_name)
            for o in self.outcomes
            if not o.created
        ]


class TseManager:
    """Orchestrates translator, algebra processor and view manager."""

    def __init__(
        self,
        schema: GlobalSchema,
        algebra: AlgebraProcessor,
        views: ViewManager,
        tracer: Optional[Tracer] = None,
        events: Optional[EventBus] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.schema = schema
        self.algebra = algebra
        self.views = views
        self.translator = TseTranslator(schema)
        self.tracer = tracer if tracer is not None else Tracer()
        self.events = events if events is not None else EventBus()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.log: List[EvolutionRecord] = []
        #: optional :class:`repro.storage.wal.WalManager`; when set, the
        #: pipeline journals ``schema_begin`` before translating,
        #: ``schema_commit`` (with the replayable operator arguments) after
        #: the view substitution, and ``schema_abort`` on failure.  Only the
        #: commit record is effectful on replay — begin/abort are audit.
        self.journal = None
        #: optional :class:`repro.concurrency.latch.SchemaLatch`; when the
        #: session layer attaches one, every pipeline run holds its write
        #: side so concurrent readers never observe a half-applied change
        self.latch = None
        #: optional zero-arg commit hook (the session layer republishes a
        #: schema epoch here, while the write latch is still held)
        self.on_commit = None

    # ------------------------------------------------------------------
    # the eight primitive operators (user-facing, view-name based)
    # ------------------------------------------------------------------

    def add_attribute(self, view_name: str, prop: Attribute, to: str) -> ViewSchema:
        return self._change(
            view_name,
            "add_attribute",
            lambda view: self.translator.add_attribute(view, prop, to),
            journal_args={"prop": prop, "to": to},
        )

    def delete_attribute(self, view_name: str, name: str, from_: str) -> ViewSchema:
        return self._change(
            view_name,
            "delete_attribute",
            lambda view: self.translator.delete_attribute(view, name, from_),
            journal_args={"name": name, "from_": from_},
        )

    def add_method(self, view_name: str, prop: Method, to: str) -> ViewSchema:
        return self._change(
            view_name,
            "add_method",
            lambda view: self.translator.add_method(view, prop, to),
            journal_args={"prop": prop, "to": to},
        )

    def delete_method(self, view_name: str, name: str, from_: str) -> ViewSchema:
        return self._change(
            view_name,
            "delete_method",
            lambda view: self.translator.delete_method(view, name, from_),
            journal_args={"name": name, "from_": from_},
        )

    def add_edge(self, view_name: str, sup: str, sub: str) -> ViewSchema:
        return self._change(
            view_name,
            "add_edge",
            lambda view: self.translator.add_edge(view, sup, sub),
            journal_args={"sup": sup, "sub": sub},
        )

    def delete_edge(
        self,
        view_name: str,
        sup: str,
        sub: str,
        connected_to: Optional[str] = None,
    ) -> ViewSchema:
        return self._change(
            view_name,
            "delete_edge",
            lambda view: self.translator.delete_edge(view, sup, sub, connected_to),
            journal_args={"sup": sup, "sub": sub, "connected_to": connected_to},
        )

    def add_class(
        self, view_name: str, name: str, connected_to: Optional[str] = None
    ) -> ViewSchema:
        return self._change(
            view_name,
            "add_class",
            lambda view: self.translator.add_class(view, name, connected_to),
            journal_args={"name": name, "connected_to": connected_to},
        )

    def delete_class(self, view_name: str, name: str) -> ViewSchema:
        return self._change(
            view_name,
            "delete_class",
            lambda view: self.translator.delete_class(view, name),
            journal_args={"name": name},
        )

    # ------------------------------------------------------------------
    # pipeline
    # ------------------------------------------------------------------

    def _change(
        self,
        view_name: str,
        operation: str,
        plan_for,
        journal_args: Optional[Dict[str, object]] = None,
    ) -> ViewSchema:
        """One full schema-change pipeline: translate, then run the plan.

        The root ``schema_change`` span covers every stage; the lifecycle
        event bus publishes each milestone so external probes never need to
        patch pipeline internals.  ``journal_args`` is the replayable
        argument record the WAL persists on commit — the *request*, not the
        resulting script, because replay re-runs the whole pipeline and the
        classifier re-derives identical primed classes.
        """
        if self.latch is not None:
            # single-writer admission: pipelines from concurrent sessions
            # queue FIFO; re-entrant, so a WriterSession block nests freely
            with self.latch.write():
                return self._change_locked(
                    view_name, operation, plan_for, journal_args
                )
        return self._change_locked(view_name, operation, plan_for, journal_args)

    def _change_locked(
        self,
        view_name: str,
        operation: str,
        plan_for,
        journal_args: Optional[Dict[str, object]] = None,
    ) -> ViewSchema:
        view = self.views.current(view_name)
        # per-operation-kind latency: one labelled series per primitive op,
        # recorded even on failure (failure latency is still latency)
        with self.metrics.timed(
            "schema_change_seconds", op_kind=operation
        ), self.tracer.span(
            "schema_change", operation=operation, view=view_name
        ) as root:
            self.events.emit(
                "schema_change_requested", operation=operation, view=view_name
            )
            if self.journal is not None:
                self.journal.schema_begin(view_name, operation)
            try:
                with self.tracer.span("translate", operation=operation) as span:
                    plan = plan_for(view)
                    span.set(statements=len(plan.statements))
                self.events.emit(
                    "translated",
                    operation=operation,
                    view=view_name,
                    statements=len(plan.statements),
                    script=plan.render_script(),
                )
                result = self._run(view_name, view, plan)
            except Exception as exc:
                self.events.emit(
                    "schema_change_failed",
                    operation=operation,
                    view=view_name,
                    error=type(exc).__name__,
                )
                self.metrics.counter("schema_changes_failed").inc()
                if self.journal is not None:
                    self.journal.schema_abort(
                        view_name, operation, type(exc).__name__
                    )
                raise
            root.set(new_version=result.version)
            self.events.emit(
                "schema_change_applied",
                operation=operation,
                view=view_name,
                new_version=result.version,
            )
            self.metrics.counter("schema_changes_applied").inc()
            if self.journal is not None:
                self.journal.schema_commit(view_name, operation, journal_args or {})
            if self.on_commit is not None:
                # publish-on-commit: still inside the write latch, so the
                # epoch captures a committed-whole schema
                self.on_commit()
            return result

    def _run(self, view_name: str, view: ViewSchema, plan: ChangePlan) -> ViewSchema:
        """Execute a change plan atomically and substitute the view."""
        memento = self.schema.memento()
        try:
            record = self._execute(view_name, view, plan)
        except TseError as exc:
            self._rollback(view_name, memento, exc)
            raise
        except Exception as exc:
            self._rollback(view_name, memento, exc)
            raise EvolutionError(f"schema change failed: {exc}") from exc
        self.log.append(record)
        return self.views.current(view_name)

    def _rollback(self, view_name: str, memento, cause: BaseException) -> None:
        """Restore the pre-change schema after a failed pipeline stage.

        The restore is not allowed to mask the pipeline failure: whatever
        propagates out of here still reaches ``_change_locked``'s failure
        path, which emits ``schema_change_failed`` (the dossier trigger),
        counts the failure and journals the abort.  If the restore *itself*
        raises, that is strictly worse than a failed change — the schema
        may be torn — so a dedicated ``schema_restore_failed`` event and
        counter fire before the restore error propagates, chained onto the
        original cause instead of silently replacing it.
        """
        try:
            self.schema.restore(memento)
        except Exception as exc:
            self.events.emit(
                "schema_restore_failed",
                view=view_name,
                error=type(exc).__name__,
                cause=type(cause).__name__,
            )
            self.metrics.counter(
                "schema_restores_failed",
                help="rollbacks that failed after a failed schema change",
            ).inc()
            raise EvolutionError(
                f"rollback after failed schema change also failed: {exc}"
            ) from cause

    def _execute(
        self, view_name: str, view: ViewSchema, plan: ChangePlan
    ) -> EvolutionRecord:
        # (0) author any fresh base classes (the C_x classes of add-class)
        for base in plan.new_base_classes:
            self.schema.add_base_class(base.name, inherits_from=base.inherits_from)

        # (1-2) run the algebra script; classifier integrates / deduplicates
        outcomes = self.algebra.execute_all(
            plan.statements, meta={"evolution": plan.provenance, "view": view_name}
        )
        effective: Dict[str, str] = {
            outcome.statement.name: outcome.class_name for outcome in outcomes
        }
        self.events.emit(
            "classified",
            view=view_name,
            operation=plan.operation,
            created=[o.class_name for o in outcomes if o.created],
            reused=[(o.statement.name, o.class_name) for o in outcomes if not o.created],
        )

        # record union propagation targets (section 6.5.4) on the classes
        # that actually ended up in the schema
        for stmt_name, target in plan.union_propagation.items():
            cls = self.schema[effective.get(stmt_name, stmt_name)]
            resolved = effective.get(target, target)
            # when the classifier deduplicated the union into the very class
            # the propagation points at, leave routing to sources[0]
            if (
                isinstance(cls, VirtualClass)
                and cls.derivation.op == "union"
                and resolved != cls.name
            ):
                cls.propagation_source = resolved

        # (3) assemble the successor view: substitute primed classes, keep
        # the old view names for them, apply additions and removals
        selected, renames = view.successor_parts()
        property_renames = {
            cls: dict(per_cls) for cls, per_cls in view.property_renames.items()
        }
        for old_global, stmt_name in plan.replacements.items():
            primed = effective.get(stmt_name, stmt_name)
            if primed == old_global:
                continue
            visible_name = renames.pop(old_global, old_global)
            selected.discard(old_global)
            selected.add(primed)
            renames[primed] = visible_name
            # property_renames are keyed by *view* class name, which the
            # substitution keeps stable — nothing to rekey.
        for removal in plan.removals:
            selected.discard(removal)
            renames.pop(removal, None)
        for addition in plan.additions:
            selected.add(effective.get(addition, addition))
        # drop the property renames of view classes the successor no longer
        # has (a removal, or a substitution that left the view) — a stale
        # entry would make later merges resolve a class the view lacks
        visible = {renames.get(name, name) for name in selected}
        property_renames = {
            cls: per_cls
            for cls, per_cls in property_renames.items()
            if cls in visible
        }

        new_view = self.views.register_successor(
            view_name,
            selected,
            renames,
            property_renames,
            closure="ignore",
            provenance=plan.provenance,
        )
        self.events.emit(
            "view_substituted",
            view=view_name,
            old_version=view.version,
            new_version=new_view.version,
            provenance=plan.provenance,
        )
        return EvolutionRecord(
            view_name=view_name,
            old_version=view.version,
            new_version=new_view.version,
            plan=plan,
            outcomes=outcomes,
            effective=effective,
        )
