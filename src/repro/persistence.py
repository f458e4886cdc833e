"""Whole-database persistence: schema, instances, views, history.

GemStone gave the paper's prototype durable storage for free; our stand-in
completes the story by serialising every layer of a :class:`TseDatabase`
into one JSON document and rebuilding it:

* the **global schema** — base classes with their properties and authored
  parents, virtual classes with their derivations (selection predicates
  serialise through their ``to_dict`` forms), DAG edges, propagation
  sources, updatability flags and provenance metadata;
* the **object store and instance pool** — slices, memberships,
  implementation-object links, OID continuity (format 2: columnar rows in
  OID order, DESIGN §10);
* the **view schema history** — every version of every view, so
  transparency survives a restart; and the **index definitions**.

Method bodies are Python callables and do not serialise; a *method
registry* (mapping ``"Class.method"`` or ``"method"`` to a callable) rebinds
them at load time.  Unbound methods remain visible in types and fail only
when invoked.
"""

from __future__ import annotations

import json
from operator import attrgetter
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional

from repro.errors import StorageError
from repro.algebra.expressions import predicate_from_dict
from repro.core.database import TseDatabase
from repro.objectmodel.slicing import ConceptualObject, ImplementationObject
from repro.schema.classes import (
    ROOT_CLASS,
    BaseClass,
    Derivation,
    SharedProperty,
    VirtualClass,
)
from repro.schema.properties import Attribute, Method, Property
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore
from repro.storage.wal import atomic_write_json
from repro.views.schema import ViewSchema

#: bump when the on-disk layout changes incompatibly; a document of any
#: other version is refused (format 2: columnar store and pool rows)
FORMAT_VERSION = 2

_OID_VALUE = attrgetter("oid.value")

MethodRegistry = Mapping[str, Callable]


# ---------------------------------------------------------------------------
# property serialisation
# ---------------------------------------------------------------------------

def property_to_dict(prop: Property) -> dict:
    if isinstance(prop, Attribute):
        return {
            "kind": "attribute",
            "name": prop.name,
            "domain": prop.domain,
            "required": prop.required,
            "default": prop.default,
            "stored": prop.stored,
        }
    assert isinstance(prop, Method)
    return {"kind": "method", "name": prop.name, "doc": prop.doc}


def property_from_dict(
    data: dict, owner: str, registry: Optional[MethodRegistry]
) -> Property:
    if data["kind"] == "attribute":
        compute = None
        if not data["stored"] and registry:
            # derived attributes rebind their compute callable exactly the
            # way methods rebind bodies; unbound they stay declared but
            # yield no value until rebound
            compute = registry.get(f"{owner}.{data['name']}") or registry.get(
                data["name"]
            )
        return Attribute(
            name=data["name"],
            domain=data["domain"],
            required=data["required"],
            default=data["default"],
            stored=data["stored"],
            compute=compute,
        )
    body = None
    if registry:
        body = registry.get(f"{owner}.{data['name']}") or registry.get(data["name"])
    return Method(name=data["name"], body=body, doc=data.get("doc", ""))


# ---------------------------------------------------------------------------
# derivation serialisation
# ---------------------------------------------------------------------------

def derivation_to_dict(derivation: Derivation) -> dict:
    return {
        "op": derivation.op,
        "sources": list(derivation.sources),
        "predicate": (
            derivation.predicate.to_dict() if derivation.predicate is not None else None
        ),
        "hidden": list(derivation.hidden),
        "new_properties": [property_to_dict(p) for p in derivation.new_properties],
        "shared_properties": [
            {"from_class": s.from_class, "name": s.name}
            for s in derivation.shared_properties
        ],
    }


def derivation_from_dict(
    data: dict, owner: str, registry: Optional[MethodRegistry]
) -> Derivation:
    return Derivation(
        op=data["op"],
        sources=tuple(data["sources"]),
        predicate=(
            predicate_from_dict(data["predicate"])
            if data.get("predicate") is not None
            else None
        ),
        hidden=tuple(data.get("hidden", ())),
        new_properties=tuple(
            property_from_dict(p, owner, registry)
            for p in data.get("new_properties", ())
        ),
        shared_properties=tuple(
            SharedProperty(s["from_class"], s["name"])
            for s in data.get("shared_properties", ())
        ),
    )


# ---------------------------------------------------------------------------
# database <-> dict
# ---------------------------------------------------------------------------

def database_to_dict(db: TseDatabase) -> dict:
    """Serialise the full database state."""
    schema = db.schema
    classes: List[dict] = []
    for name in schema.topological_order():
        if name == ROOT_CLASS:
            continue
        cls = schema[name]
        entry: dict = {
            "name": name,
            "updatable": cls.updatable,
            "meta": {k: v for k, v in cls.meta.items() if isinstance(v, (str, int, bool))},
        }
        if isinstance(cls, BaseClass):
            entry["kind"] = "base"
            entry["inherits_from"] = list(cls.inherits_from)
            entry["properties"] = [
                property_to_dict(p) for p in cls.local_properties.values()
            ]
        else:
            assert isinstance(cls, VirtualClass)
            entry["kind"] = "virtual"
            entry["derivation"] = derivation_to_dict(cls.derivation)
            entry["propagation_source"] = cls.propagation_source
        classes.append(entry)

    edges = sorted(
        (sup, sub)
        for sup in schema.class_names()
        for sub in schema.direct_subs(sup)
    )

    # one row per conceptual object, in OID order:
    # [oid, direct classes, current class, [[class, impl oid, slice id], ...]]
    objects = [
        [
            obj.oid.value,
            sorted(obj.direct_classes),
            obj.current_class,
            [
                [name, impl.oid.value, impl.slice_id.value]
                for name, impl in sorted(obj.implementations.items())
            ],
        ]
        for obj in sorted(db.pool.objects(), key=_OID_VALUE)
    ]

    views = []
    for view_name in db.views.history.view_names():
        for version in db.views.history.versions_of(view_name):
            views.append(
                {
                    "name": version.name,
                    "version": version.version,
                    "selected": sorted(version.selected),
                    "renames": dict(version.renames),
                    "edges": [list(edge) for edge in version.edges],
                    "property_renames": {
                        cls: dict(per_cls)
                        for cls, per_cls in version.property_renames.items()
                    },
                    "provenance": version.provenance,
                }
            )

    return {
        "format": FORMAT_VERSION,
        "store": db.store.snapshot(),
        "classes": classes,
        "edges": edges,
        "objects": objects,
        "views": views,
        "retired_views": db.views.history.retired_map(),
        "indexes": [list(key) for key in db.indexes.index_names()],
    }


def database_from_dict(
    data: dict, methods: Optional[MethodRegistry] = None
) -> TseDatabase:
    """Rebuild a database from :func:`database_to_dict` output."""
    if data.get("format") != FORMAT_VERSION:
        raise StorageError(
            f"unsupported database format {data.get('format')!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
    db = TseDatabase()
    db.store = ObjectStore.from_snapshot(data["store"])
    db.pool.store = db.store

    # classes arrive supers-before-subs (topological order at save time)
    for entry in data["classes"]:
        name = entry["name"]
        if entry["kind"] == "base":
            cls = BaseClass(
                name,
                properties=tuple(
                    property_from_dict(p, name, methods)
                    for p in entry["properties"]
                ),
                inherits_from=tuple(entry["inherits_from"]),
            )
            db.schema._classes[name] = cls
        else:
            cls = VirtualClass(
                name, derivation_from_dict(entry["derivation"], name, methods)
            )
            cls.propagation_source = entry.get("propagation_source")
            db.schema._classes[name] = cls
        cls.updatable = entry.get("updatable", True)
        cls.meta.update(entry.get("meta", {}))
        db.schema._supers[name] = set()
        db.schema._subs[name] = set()
    for sup, sub in data["edges"]:
        db.schema._subs[sup].add(sub)
        db.schema._supers[sub].add(sup)
    db.schema._dirty()
    db.schema.validate()

    pool = db.pool
    slice_ids = db.store.slice_ids()
    for oid_value, direct_classes, current_class, implementations in data["objects"]:
        oid = Oid(oid_value)
        obj = ConceptualObject(oid)
        obj.direct_classes = set(direct_classes)
        obj.current_class = current_class
        for name, impl_oid, slice_id in implementations:
            obj.implementations[name] = ImplementationObject(
                Oid(impl_oid), name, oid, slice_ids[slice_id]
            )
        pool._objects[oid] = obj
        for name in direct_classes:
            pool._members_direct.setdefault(name, set()).add(oid)
    db.pool._dirty()
    # population bypassed the pool's mutation API (no deltas were emitted),
    # so drop anything the evaluator may have cached meanwhile
    db.evaluator.invalidate()

    for entry in sorted(data["views"], key=lambda v: (v["name"], v["version"])):
        view = ViewSchema(
            name=entry["name"],
            version=entry["version"],
            selected=frozenset(entry["selected"]),
            renames=entry["renames"],
            edges=tuple(tuple(edge) for edge in entry["edges"]),
            property_renames=entry["property_renames"],
            provenance=entry.get("provenance", ""),
        )
        if view.version == 1:
            db.views.history.register_initial(view)
        else:
            db.views.history.substitute(view)
    db.views.history.restore_retired(data["retired_views"])
    # indexes backfill from the restored objects
    for storage_class, attribute in data["indexes"]:
        db.indexes.create_index(storage_class, attribute)
    return db


# ---------------------------------------------------------------------------
# file front door
# ---------------------------------------------------------------------------

def save_database(db: TseDatabase, path: "Path | str") -> None:
    """Persist a database to one JSON file (atomically — see
    :func:`repro.storage.wal.atomic_write_json`)."""
    atomic_write_json(path, database_to_dict(db))


def load_database(
    path: "Path | str", methods: Optional[MethodRegistry] = None
) -> TseDatabase:
    """Load a database previously written by :func:`save_database`."""
    return database_from_dict(json.loads(Path(path).read_text()), methods=methods)
