"""``ViewHandle.dump()`` answers exactly what the per-call accessors do.

The differential harness compares every view against the oracle through
one ``dump()`` per view.  This test keeps that bulk reader honest: it
replays a few seeded fuzz sequences and, after every step, rebuilds each
view's observable surface one accessor call at a time (``class_names``,
``version``, ``edges``, ``attribute_names``, ``method_names``,
``extent_oids``, ``count``, ``get_object(...).values()``) and asserts it
equals the dump, for the current version of every view and for every
pinned older version.
"""

from __future__ import annotations

import pytest

from repro.checking.commands import CommandGenerator
from repro.checking.runner import DifferentialHarness

SEEDS = range(6)
LENGTH = 15


def accessor_surface(handle) -> dict:
    """The dump's shape, read through the per-call accessor surface."""
    by_class = {}
    for view_class in handle.class_names():
        cls = handle[view_class]
        extent = sorted(cls.extent_oids())
        by_class[view_class] = {
            "attributes": sorted(cls.attribute_names()),
            "methods": sorted(cls.method_names()),
            "extent": extent,
            "count": cls.count(),
            "objects": {oid: cls.get_object(oid).values() for oid in extent},
        }
    return {
        "version": handle.version,
        "classes": handle.class_names(),
        "edges": handle.edges(),
        "by_class": by_class,
    }


def handles(db):
    for name in db.view_names():
        current = db.view(name)
        yield current
        for version in db.views.history.versions_of(name):
            if version.version != current.version:
                yield current.pin(version.version)


@pytest.mark.parametrize("seed", SEEDS)
def test_dump_equals_accessors_after_every_fuzz_step(seed):
    commands = CommandGenerator(seed).generate(LENGTH)
    harness = DifferentialHarness()
    checked = 0
    try:
        for command in commands:
            harness.apply(command)
            for handle in handles(harness.db):
                expected = accessor_surface(handle)
                where = (
                    f"seed {seed}, step {harness.step} ({command.op}), view "
                    f"{handle.view_name!r} v{expected['version']}"
                )
                assert handle.dump() == expected, where
                checked += 1
    finally:
        harness.close()
    assert checked > len(commands), "the sequence must leave views to check"
