"""``sjoberg_evolution``: the paper's section 1 field-study trace, live.

Replays the canonical Sjøberg trace (``repro.workloads.sjoberg``: 119
events, relations +139%, attributes +274%, 59% churn) through
``db.schema_change`` on the evolving ``health_system`` view of a registry
holding ~1000 objects, with the WAL on and sessions attached.  After each
change the frozen ``legacy_app`` view re-reads every class through a
``ReaderSession`` and writes one object through a ``WriterSession``.

The classifier's duplicate search dominates the schema changes as the
global schema grows to several hundred classes; reads exercise
capture-on-touch, writes are rare and there is no server.  The workload is
also the transparency check: the legacy view's classes, properties and
counts must never move except by its own writes.

The trace itself (hierarchy, events, anchors) is the paper's fixed trace;
the seed generates the population and the legacy application's traffic.
"""

from __future__ import annotations

import random
import shutil
from typing import Dict, List

from common import (
    WORK_DIR,
    Clock,
    Trial,
    balanced,
    layer_counts,
    own_peak_rss_mb,
    quiesce,
    recover,
)

EVOLVING = "health_system"
LEGACY = "legacy_app"
INITIAL_CLASSES = 8
ATTRS_PER_CLASS = 4
POPULATION = 1000


def build_script(seed: int, population: int = POPULATION, events: int = None) -> dict:
    """The whole trial script, generated before anything is timed."""
    from repro.workloads.sjoberg import SjobergTrace

    trace = SjobergTrace()
    hierarchy_rng = random.Random(trace.seed)
    names: List[str] = []
    parents: Dict[str, str] = {}
    for index in range(INITIAL_CLASSES):
        name = f"Registry{index}"
        parents[name] = names[hierarchy_rng.randrange(len(names))] if names else "ROOT"
        names.append(name)

    plan = [event for month in trace.monthly_plan() for event in month]
    if events is not None:
        plan = plan[:events]
    anchor_rng = random.Random(trace.seed + 2)
    current = sorted(names)
    changes = []
    churned = 0
    for event in plan:
        if event[0] == "add_class":
            anchor = anchor_rng.choice(current)
            changes.append(("add_class", {"name": event[1], "connected_to": anchor}))
            current = sorted(current + [event[1]])
        elif event[0] == "add_attribute":
            target = anchor_rng.choice(current)
            changes.append(
                ("add_attribute", {"name": event[1], "to": target, "domain": "int"})
            )
        else:  # churn: delete an original attribute, re-add it renamed
            _, target, attr = event
            changes.append(("delete_attribute", {"name": attr, "from": target}))
            changes.append(
                ("add_attribute", {"name": attr + "_r", "to": target, "domain": "int"})
            )
            churned += 1

    rng = random.Random(seed)
    objects = [
        (cls, {f"f{names.index(cls)}_0": rng.randrange(10_000)})
        for cls in balanced(rng, names, population)
    ]
    members = {name: [i for i, (cls, _) in enumerate(objects) if cls == name]
               for name in names}
    creates = iter(balanced(rng, names, (len(changes) + 1) // 2))
    sets = iter(balanced(rng, names, len(changes) // 2))
    steps = []
    for position in range(len(changes)):
        reads = list(names)
        rng.shuffle(reads)
        if position % 2 == 0:
            cls = next(creates)
            write = ("create", cls, {f"f{names.index(cls)}_0": rng.randrange(10_000)})
        else:
            cls = next(sets)
            target = rng.choice(members[cls])
            write = ("set", target, {f"f{names.index(cls)}_1": rng.randrange(10_000)})
        steps.append((reads, write))
    return {
        "names": names,
        "parents": parents,
        "changes": changes,
        "churned": churned,
        "objects": objects,
        "steps": steps,
    }


class SjobergEvolution:
    name = "sjoberg_evolution"

    def __init__(self, seed: int, population: int = POPULATION, events: int = None) -> None:
        self.script = build_script(seed, population, events)
        self.population = population
        self.db = None
        self.workdir = WORK_DIR / f"sjoberg-{seed}"

    def describe(self) -> dict:
        return {
            "population": self.population,
            "schema_changes": len(self.script["changes"]),
            "initial_classes": INITIAL_CLASSES,
        }

    # -- set-up -------------------------------------------------------------

    def setup(self) -> float:
        from repro.core.database import TseDatabase
        from repro.schema.properties import Attribute

        script = self.script
        self.discard()
        clock = Clock()
        start = clock.now()
        db = TseDatabase()
        for index, name in enumerate(script["names"]):
            attrs = tuple(
                Attribute(f"f{index}_{a}", domain="int") for a in range(ATTRS_PER_CLASS)
            )
            db.define_class(name, attrs, inherits_from=(script["parents"][name],))
        db.create_view(EVOLVING, script["names"], closure="ignore")
        db.create_view(LEGACY, script["names"], closure="ignore")
        self.oids = [db.engine.create(cls, values) for cls, values in script["objects"]]
        db.enable_wal(self.workdir)
        self.sessions = db.sessions()
        elapsed = clock.since(start)[1]
        self.db = db
        return elapsed

    def discard(self) -> None:
        self.db = None
        self.sessions = None
        shutil.rmtree(self.workdir, ignore_errors=True)

    def close(self) -> None:
        self.discard()

    # -- model --------------------------------------------------------------

    def _ancestors(self, cls: str) -> List[str]:
        chain = []
        parents = self.script["parents"]
        while cls in parents:
            chain.append(cls)
            cls = parents[cls]
        return chain

    def _initial_counts(self) -> Dict[str, int]:
        counts = {name: 0 for name in self.script["names"]}
        for cls, _values in self.script["objects"]:
            for ancestor in self._ancestors(cls):
                counts[ancestor] += 1
        return counts

    # -- the trial ------------------------------------------------------------

    def run(self, trial: Trial, recorder) -> None:
        db, script = self.db, self.script
        counts = self._initial_counts()
        written: Dict[int, Dict[str, int]] = {}
        legacy_before = db.describe_view(LEGACY)
        stats_before = db.stats()
        quiesce(db)
        clock = Clock(thread=True)  # each op: the calling thread's CPU
        phase = Clock()  # the timed phase: the whole process's CPU
        reader = self.sessions.reader().__enter__()
        recorder.install()
        recorder.phase = "timed"
        op_id = 0
        began = phase.now()
        for (op, args), (reads, write) in zip(script["changes"], script["steps"]):
            op_id += 1
            recorder.op = op_id
            start = clock.now()
            try:
                db.schema_change(EVOLVING, op, args)
            except Exception as exc:  # noqa: BLE001 — counted, not fatal
                trial.fail(f"schema_change {op} {args}: {exc!r}")
            trial.op("schema_change", clock.since(start))
            for cls in reads:
                op_id += 1
                recorder.op = op_id
                start = clock.now()
                try:
                    seen = reader.refresh().count(LEGACY, cls)
                except Exception as exc:  # noqa: BLE001
                    seen = exc
                trial.op("read", clock.since(start))
                if seen != counts[cls]:
                    trial.fail(f"count {cls}: {seen!r} != {counts[cls]}")
            op_id += 1
            recorder.op = op_id
            kind, target, values = write
            if kind == "create":
                spec = {"op": "create", "class": target, "values": values}
            else:
                spec = {"op": "set", "class": script["objects"][target][0],
                        "oids": [self.oids[target].value], "values": values}
            start = clock.now()
            try:
                with self.sessions.writer():
                    db.apply_view_updates(LEGACY, [spec])
            except Exception as exc:  # noqa: BLE001
                trial.fail(f"write {spec}: {exc!r}")
            else:
                if kind == "create":
                    for ancestor in self._ancestors(target):
                        counts[ancestor] += 1
                else:
                    written.setdefault(target, {}).update(values)
            trial.op("write", clock.since(start))
        trial.cpu_s = phase.since(began)[1]
        reader.close()
        recorder.phase = "after"
        stats_after = db.stats()
        trial.layer.update(layer_counts(stats_before, stats_after))
        trial.layer["classes_total"] = stats_after["classes_total"]

        self._check_growth(trial, db)
        self._check_legacy(trial, db, legacy_before, counts, written, "live")
        quiesce(db)
        db.checkpoint()
        trial.peak_rss_mb = own_peak_rss_mb()
        # abandon the database without closing it, then restart from disk
        self.db = self.sessions = None
        recorder.phase = "recovery"
        recovered, trial.recoveries = recover(self.workdir)
        recorder.phase = "after"
        recorder.uninstall()
        trial.layer["records_replayed"] = recovered.stats()["wal"]["records_replayed"]
        self._check_legacy(trial, recovered, legacy_before, counts, written, "recovered")
        recovered.wal.close()
        self.discard()

    # -- output checks --------------------------------------------------------

    def _check_growth(self, trial: Trial, db) -> None:
        from repro.workloads.sjoberg import (
            ATTRIBUTE_CHURN,
            ATTRIBUTE_GROWTH,
            RELATION_GROWTH,
        )

        if len(self.script["changes"]) < 100:  # a shortened self-test trace
            return
        evolving = db.describe_view(EVOLVING)["classes"]
        attributes = set()
        for entry in evolving.values():
            attributes.update(entry["properties"])
        initial_attrs = INITIAL_CLASSES * ATTRS_PER_CLASS
        class_growth = (len(evolving) - INITIAL_CLASSES) / INITIAL_CLASSES
        attr_growth = (len(attributes) - initial_attrs) / initial_attrs
        churn = self.script["churned"] / initial_attrs
        trial.check(
            class_growth >= RELATION_GROWTH
            and attr_growth >= ATTRIBUTE_GROWTH
            and churn >= ATTRIBUTE_CHURN,
            f"trace growth {class_growth:.2f}/{attr_growth:.2f}/{churn:.2f} "
            f"below the paper's {RELATION_GROWTH}/{ATTRIBUTE_GROWTH}/{ATTRIBUTE_CHURN}",
        )

    def _check_legacy(self, trial, db, before, counts, written, label) -> None:
        trial.check(
            db.describe_view(LEGACY) == before,
            f"{label}: the legacy view's classes or properties changed",
        )
        for cls, expected in counts.items():
            seen = len(db.read_extent(LEGACY, cls)["oids"])
            trial.check(seen == expected, f"{label}: {cls} count {seen} != {expected}")
        by_class: Dict[str, dict] = {}
        for target, values in written.items():
            cls = self.script["objects"][target][0]
            if cls not in by_class:
                by_class[cls] = db.read_extent(LEGACY, cls, with_values=True)["objects"]
            seen = by_class[cls].get(str(self.oids[target].value), {})
            trial.check(
                all(seen.get(key) == value for key, value in values.items()),
                f"{label}: object {target} holds {seen}, expected {values}",
            )

