"""Inspection tooling: view-version diffs and evolution summaries.

The view schema history keeps every version; these helpers answer the
questions a developer (or auditor) actually asks of it: *what changed
between version k and version m of my view?* and *what has happened to this
database overall?*  Differences are computed against the live global schema
— class identity is tracked through the rename map, so a primed substitution
(`Student` → `Student'` shown as `Student`) reports as a *modification* of
`Student`, exactly how the user perceives it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.database import TseDatabase
from repro.views.schema import ViewSchema


@dataclass
class ClassDiff:
    """How one view class differs between two versions."""

    view_class: str
    properties_added: Tuple[str, ...] = ()
    properties_removed: Tuple[str, ...] = ()
    supers_added: Tuple[str, ...] = ()
    supers_removed: Tuple[str, ...] = ()
    substituted: bool = False  # backed by a different global class now

    @property
    def changed(self) -> bool:
        return bool(
            self.properties_added
            or self.properties_removed
            or self.supers_added
            or self.supers_removed
        )


@dataclass
class ViewDiff:
    """The difference between two versions of one view."""

    view_name: str
    old_version: int
    new_version: int
    classes_added: Tuple[str, ...]
    classes_removed: Tuple[str, ...]
    class_diffs: Tuple[ClassDiff, ...]

    @property
    def is_empty(self) -> bool:
        return not (
            self.classes_added
            or self.classes_removed
            or any(d.changed for d in self.class_diffs)
        )

    def describe(self) -> str:
        lines = [
            f"view {self.view_name}: v{self.old_version} -> v{self.new_version}"
        ]
        for name in self.classes_added:
            lines.append(f"  + class {name}")
        for name in self.classes_removed:
            lines.append(f"  - class {name}")
        for diff in self.class_diffs:
            if not diff.changed:
                continue
            parts = []
            if diff.properties_added:
                parts.append("+" + ", +".join(diff.properties_added))
            if diff.properties_removed:
                parts.append("-" + ", -".join(diff.properties_removed))
            if diff.supers_added:
                parts.append("now isa " + ", ".join(diff.supers_added))
            if diff.supers_removed:
                parts.append("no longer isa " + ", ".join(diff.supers_removed))
            lines.append(f"  ~ {diff.view_class}: " + "; ".join(parts))
        if len(lines) == 1:
            lines.append("  (no visible differences)")
        return "\n".join(lines)


def _view_surface(db: TseDatabase, view: ViewSchema) -> Dict[str, dict]:
    """Per view-class: property names, direct supers, backing global class."""
    surface = {}
    for global_name in view.selected:
        view_name = view.view_name_of(global_name)
        properties = {
            view.property_alias(view_name, underlying)
            for underlying in db.schema.type_of(global_name)
        }
        surface[view_name] = {
            "properties": properties,
            "supers": set(view.direct_supers_of(view_name)),
            "global": global_name,
        }
    return surface


def diff_view_versions(
    db: TseDatabase,
    view_name: str,
    old_version: Optional[int] = None,
    new_version: Optional[int] = None,
) -> ViewDiff:
    """Diff two versions of a view (defaults: previous vs current)."""
    history = db.views.history
    current = history.current(view_name)
    new_version = new_version or current.version
    old_version = old_version or max(1, new_version - 1)
    old = history.version(view_name, old_version)
    new = history.version(view_name, new_version)

    old_surface = _view_surface(db, old)
    new_surface = _view_surface(db, new)

    added = tuple(sorted(set(new_surface) - set(old_surface)))
    removed = tuple(sorted(set(old_surface) - set(new_surface)))
    diffs: List[ClassDiff] = []
    for name in sorted(set(old_surface) & set(new_surface)):
        before, after = old_surface[name], new_surface[name]
        diffs.append(
            ClassDiff(
                view_class=name,
                properties_added=tuple(
                    sorted(after["properties"] - before["properties"])
                ),
                properties_removed=tuple(
                    sorted(before["properties"] - after["properties"])
                ),
                supers_added=tuple(sorted(after["supers"] - before["supers"])),
                supers_removed=tuple(sorted(before["supers"] - after["supers"])),
                substituted=before["global"] != after["global"],
            )
        )
    return ViewDiff(
        view_name=view_name,
        old_version=old_version,
        new_version=new_version,
        classes_added=added,
        classes_removed=removed,
        class_diffs=tuple(diffs),
    )


def evolution_summary(db: TseDatabase) -> str:
    """A one-screen summary of everything that evolved in this database."""
    lines = []
    stats = db.stats()
    lines.append(
        f"{stats['classes_base']} base + {stats['classes_virtual']} virtual "
        f"classes; {stats['objects']} objects; "
        f"{stats['views']} views over {stats['view_versions']} versions"
    )
    for record in db.evolution_log():
        lines.append(
            f"  {record.view_name} v{record.old_version}->v{record.new_version}: "
            f"{record.plan.provenance}"
            + (
                f"  (reused {len(record.duplicates_reused())} duplicate class(es))"
                if record.duplicates_reused()
                else ""
            )
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the metrics reference (docs/OPERATIONS.md)
# ---------------------------------------------------------------------------

#: one-line descriptions for families that carry no help string of their
#: own: stats *groups* (providers return whole dicts) and the histograms
#: observed through ``timed_observe`` (which takes no help argument)
_FAMILY_NOTES: Dict[str, str] = {
    "pages": "page store: reads, writes, cache hits, page count",
    "extents": "extent evaluator: computes, cache hits, incremental deltas",
    "transactions": "db.transaction() savepoints: committed, aborted",
    "pipeline": "schema-change pipeline: per-phase counts from the log",
    "concurrency": "session layer: readers/writers opened, latch waits, epochs",
    "migration": "lazy migration: backlog, captures by cause, backfill progress",
    "wal": "write-ahead log: segment sizes, checkpoint ages, recovery facts",
    "flight": "flight recorder: ring occupancy, file sink state",
    "server": "network server: connections, sheds, requests served, tenants",
    "durability_seconds": "WAL flush/checkpoint latency, by operation",
    "schema_change_seconds": "schema-change pipeline latency, by primitive",
    "server_request_seconds": "server request latency, by operation",
    "span_duration_seconds": "tracer span durations, by span name",
    "wal_appends_by_kind": "WAL records appended, by record kind",
    "wal_bytes_by_kind": "WAL bytes appended, by record kind",
}


def exercise_for_metrics() -> TseDatabase:
    """A scripted workout touching every instrumented subsystem.

    Instrument families register lazily on first use, so an idle database
    documents almost nothing.  This runs the figure-3 workload through the
    session layer, the WAL (in a throwaway directory), and a live network
    server — deterministically, so two runs register the *same* inventory
    and :func:`metrics_reference_markdown` is reproducible (the property
    ``tests/test_docs_consistency.py`` pins the handbook against).
    """
    import tempfile

    from repro.server.client import Client, ServerError
    from repro.server.server import BackgroundServer
    from repro.workloads.university import build_figure3_database, populate_students

    with tempfile.TemporaryDirectory() as scratch:
        db, _view = build_figure3_database()
        populate_students(db, 2)
        # no backfill worker: its first WAL append would race the server
        # start and reorder the registered families from run to run
        db.migration_backfill = False
        db.enable_wal(scratch)
        with db.sessions().reader() as reader:
            reader.count("VS1", "Student")
        with BackgroundServer(db) as (host, port):
            with Client(host, port, tenant="ops") as client:
                client.attach("VS1")
                client.count("Student")
                client.create("Person", name="ref", age=1)
                client.add_attribute("scratch", to="Person", domain="str")
                try:
                    client.attach("no-such-view")
                except ServerError:
                    pass
        db.wal.close()
        db.wal = None  # the scratch directory is about to vanish
    return db


def metrics_reference_markdown(db: Optional[TseDatabase] = None) -> str:
    """The metrics reference table of ``docs/OPERATIONS.md``, generated.

    One row per instrument family from
    :meth:`~repro.obs.metrics.MetricsRegistry.describe`, in registration
    order: name, kind, label keys, meaning.  The handbook embeds this
    between ``metrics-reference`` markers and a tier-1 test regenerates it
    on every run — the table cannot drift from the code.
    """
    if db is None:
        db = exercise_for_metrics()
    header = "| metric | kind | labels | meaning |\n|---|---|---|---|"
    lines = [header]
    for row in db.obs.metrics.describe():
        labels = ", ".join(row["labels"]) or "—"
        help_text = row["help"] or _FAMILY_NOTES.get(str(row["name"]), "")
        lines.append(
            f"| `{row['name']}` | {row['kind']} | {labels} | {help_text} |"
        )
    return "\n".join(lines)
