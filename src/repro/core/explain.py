"""``EXPLAIN`` for schema changes: the pipeline's plan without its commit.

The paper's pipeline is transparent — a user asking for ``add_attribute``
never sees the ``defineVC`` script, the classifier's dedup decisions, or
which extents will be rechecked.  :func:`explain_change` runs the pipeline
*dry*: the translator produces its plan (translation is pure), the
classifier integrates the script against the real schema under a
``memento``/``restore`` bracket (so dedup answers are exact, not
simulated), and the report predicts the extent-maintenance cost from the
current extents of the affected classes — then the schema snaps back as if
nothing happened.  No view is registered, no event is emitted, no journal
record is written.

The dry run temporarily mutates the shared schema (that is what makes the
dedup decisions *true*), so when a session layer is attached the whole
explain runs inside the write latch — concurrent readers keep their
snapshot isolation, and live readers never see the scratch classes.  The
restore bumps the schema generation, which self-invalidates every extent
cache keyed on it; correctness is unaffected, the next query re-derives.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import TseError
from repro.schema.properties import Attribute, Method

__all__ = ["ExplainReport", "explain_change", "PRIMITIVE_OPS"]

#: the eight primitive schema-change operators of sections 4-6
PRIMITIVE_OPS = (
    "add_attribute",
    "delete_attribute",
    "add_method",
    "delete_method",
    "add_edge",
    "delete_edge",
    "add_class",
    "delete_class",
)


@dataclass
class ExplainReport:
    """Everything the pipeline *would* do, as plain data."""

    view_name: str
    operation: str
    args: Dict[str, object]
    view_version: int
    predicted_new_version: int
    script: str
    new_base_classes: List[str] = field(default_factory=list)
    #: classifier dry-run decisions, one per statement:
    #: ``{"statement", "effective_class", "action": "create"|"reuse"}``
    decisions: List[Dict[str, object]] = field(default_factory=list)
    #: old view-class global -> effective primed replacement
    replacements: Dict[str, str] = field(default_factory=dict)
    additions: List[str] = field(default_factory=list)
    removals: List[str] = field(default_factory=list)
    #: current extent sizes of the classes the change touches
    affected_extents: Dict[str, int] = field(default_factory=dict)
    #: objects whose membership the maintenance pass would recheck
    predicted_rechecks: int = 0
    phase_ms: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "view": self.view_name,
            "operation": self.operation,
            "args": dict(self.args),
            "version": self.view_version,
            "predicted_new_version": self.predicted_new_version,
            "script": self.script,
            "new_base_classes": list(self.new_base_classes),
            "decisions": [dict(d) for d in self.decisions],
            "replacements": dict(self.replacements),
            "additions": list(self.additions),
            "removals": list(self.removals),
            "affected_extents": dict(self.affected_extents),
            "predicted_rechecks": self.predicted_rechecks,
            "phase_ms": dict(self.phase_ms),
        }

    def render_lines(self) -> List[str]:
        """The ``.explain`` shell rendering (and the golden-test shape)."""
        arg_text = ", ".join(f"{k}={v!r}" for k, v in self.args.items())
        lines = [
            f"EXPLAIN {self.operation}({arg_text}) on {self.view_name} "
            f"v{self.view_version} -> v{self.predicted_new_version}",
            "script:",
        ]
        lines.extend(f"  {line}" for line in self.script.splitlines() or ["(empty)"])
        if self.new_base_classes:
            lines.append("new base classes: " + ", ".join(self.new_base_classes))
        lines.append("classifier (dry run):")
        if not self.decisions:
            lines.append("  (no statements)")
        for decision in self.decisions:
            verb = (
                "create"
                if decision["action"] == "create"
                else f"reuse {decision['effective_class']}"
            )
            lines.append(f"  {decision['statement']}: {verb}")
        for old, new in self.replacements.items():
            lines.append(f"substitute {old} -> {new}")
        for name in self.additions:
            lines.append(f"add {name}")
        for name in self.removals:
            lines.append(f"remove {name}")
        if self.affected_extents:
            lines.append("affected extents:")
            for name, count in self.affected_extents.items():
                lines.append(f"  {name}: {count} objects")
        lines.append(f"predicted rechecks: {self.predicted_rechecks}")
        lines.append(
            "timings: "
            + " ".join(
                f"{phase}={ms:.3f}ms" for phase, ms in self.phase_ms.items()
            )
        )
        return lines


def _translator_args(operation: str, args: Dict[str, object]) -> Dict[str, object]:
    """The keyword arguments the real pipeline passes to the translator
    method named ``operation``: the handle's arguments, with the property
    definition built for the two ``add_*`` operators."""
    if operation not in PRIMITIVE_OPS:
        raise TseError(
            f"unknown operation {operation!r}; expected one of "
            f"{', '.join(PRIMITIVE_OPS)}"
        )
    args = dict(args)
    if operation == "add_attribute":
        args["prop"] = Attribute(
            name=args.pop("name"),
            domain=args.pop("domain", "any"),
            required=args.pop("required", False),
            default=args.pop("default", None),
        )
    elif operation == "add_method":
        args["prop"] = Method(
            name=args.pop("name"), body=args.pop("body", None), doc=args.pop("doc", "")
        )
    return args


def explain_change(db, view_name: str, operation: str, **args) -> ExplainReport:
    """Dry-run one primitive schema change; the database is left untouched.

    Serialises behind the write latch when a session manager is attached:
    the classifier dry run briefly registers scratch classes in the shared
    schema before the restore."""
    tsem = db.tsem
    if tsem.latch is not None:
        with tsem.latch.write():
            return _explain_locked(db, view_name, operation, args)
    return _explain_locked(db, view_name, operation, args)


def _explain_locked(
    db, view_name: str, operation: str, args: Dict[str, object]
) -> ExplainReport:
    tsem = db.tsem
    view = db.views.current(view_name)
    phase_ms: Dict[str, float] = {}

    # (1) translate — pure: produces the plan without touching the schema
    start = time.perf_counter()
    translator_args = _translator_args(operation, args)
    plan = getattr(tsem.translator, operation)(view, **translator_args)
    phase_ms["translate"] = (time.perf_counter() - start) * 1000.0

    # (2) analyze — current extents of every class the plan touches, and
    # the recheck bill: each statement re-derives membership over its
    # sources, so the predicted cost is the sum of source extents
    start = time.perf_counter()
    affected: Dict[str, int] = {}
    for name in list(plan.replacements) + list(plan.removals):
        if name in db.schema:
            affected[name] = len(db.extent(name))
    primes_of = {
        stmt.name: stmt.primes for stmt in plan.statements if stmt.primes
    }
    rechecks = 0
    for stmt in plan.statements:
        for source in stmt.derivation.sources:
            resolved = source
            seen = set()
            # a source naming an earlier statement stands for the class it
            # primes; chase that chain back to a real class
            while resolved not in db.schema and resolved in primes_of:
                if resolved in seen:
                    break
                seen.add(resolved)
                resolved = primes_of[resolved]
            if resolved in db.schema:
                rechecks += len(db.extent(resolved))
    phase_ms["analyze"] = (time.perf_counter() - start) * 1000.0

    # (3) classify — the real classifier against the real schema, under a
    # memento bracket; dedup decisions are exact, then everything unwinds
    start = time.perf_counter()
    memento = db.schema.memento()
    try:
        for base in plan.new_base_classes:
            db.schema.add_base_class(base.name, inherits_from=base.inherits_from)
        outcomes = tsem.algebra.execute_all(
            plan.statements, meta={"explain": True, "view": view_name}
        )
    finally:
        db.schema.restore(memento)
    phase_ms["classify"] = (time.perf_counter() - start) * 1000.0

    effective = {o.statement.name: o.class_name for o in outcomes}
    report = ExplainReport(
        view_name=view_name,
        operation=operation,
        args=dict(args),
        view_version=view.version,
        predicted_new_version=view.version + 1,
        script=plan.render_script(),
        new_base_classes=[base.name for base in plan.new_base_classes],
        decisions=[
            {
                "statement": o.statement.name,
                "effective_class": o.class_name,
                "action": "create" if o.created else "reuse",
            }
            for o in outcomes
        ],
        replacements={
            old: effective.get(stmt_name, stmt_name)
            for old, stmt_name in plan.replacements.items()
        },
        additions=[effective.get(name, name) for name in plan.additions],
        removals=list(plan.removals),
        affected_extents=affected,
        predicted_rechecks=rechecks,
        phase_ms={k: round(v, 4) for k, v in phase_ms.items()},
    )
    db.obs.flight.record(
        "explain", view=view_name, operation=operation,
        statements=len(plan.statements), rechecks=rechecks,
    )
    return report
