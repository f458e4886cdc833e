"""Tests for database-level savepoint transactions (db.transaction())."""

import os
import random
from collections import Counter
from typing import Tuple

import pytest

from repro.algebra.expressions import Compare
from repro.checking.commands import (
    UPDATE_OPS,
    Command,
    CommandGenerator,
    command_to_dict,
)
from repro.checking.runner import DifferentialHarness
from repro.core.database import TseDatabase
from repro.errors import UnknownClass
from repro.objectmodel.slicing import ConceptualObject, InstancePool
from repro.persistence import database_to_dict, state_difference
from repro.schema.properties import Attribute
from repro.storage.pages import PageManager
from repro.storage.store import UndoJournal
from repro.workloads.university import build_figure3_database, populate_students


class TestCommit:
    def test_successful_block_keeps_everything(self, fig3):
        db, view, _ = fig3
        with db.transaction():
            view.add_attribute("register", to="Student", domain="str")
            fresh = view["Student"].create(name="tx", register="r")
        assert view.version == 2
        assert fresh.oid in {h.oid for h in view["Student"].extent()}

    def test_nested_work_and_queries_inside(self, fig3):
        db, view, _ = fig3
        with db.transaction():
            view.add_attribute("flag", to="TA", domain="bool")
            view["TA"].set_where(Compare("salary", ">=", 0), flag=True)
            assert all(h["flag"] for h in view["TA"].extent())


class TestRollback:
    def test_schema_and_data_rolled_back_together(self, fig3):
        db, view, objects = fig3
        count_before = view["Student"].count()
        classes_before = db.schema.class_names()
        with pytest.raises(RuntimeError):
            with db.transaction():
                view.add_attribute("register", to="Student", domain="str")
                view["Student"].create(name="doomed", register="x")
                view["Student"].extent()[0]["name"] = "mangled"
                raise RuntimeError("abort")
        assert view.version == 1
        assert view["Student"].count() == count_before
        assert db.schema.class_names() == classes_before
        assert all(h["name"] != "mangled" for h in view["Student"].extent())

    def test_view_history_rolled_back(self, fig3):
        db, view, _ = fig3
        with pytest.raises(ValueError):
            with db.transaction():
                view.add_attribute("a", to="Student", domain="int")
                view.add_attribute("b", to="Student", domain="int")
                raise ValueError("no")
        assert db.views.history.total_versions() == 1
        assert len(db.evolution_log()) == 0

    def test_deletion_undone(self, fig3):
        db, view, _ = fig3
        victim = view["Student"].extent()[0]
        values_before = victim.values()
        with pytest.raises(RuntimeError):
            with db.transaction():
                victim.delete()
                raise RuntimeError("abort")
        assert victim.oid in {h.oid for h in view["Student"].extent()}
        assert view["Student"].get_object(victim.oid).values() == values_before

    def test_new_view_creation_undone(self, fig3):
        db, view, _ = fig3
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.create_view("scratch", ["Person"], closure="ignore")
                raise RuntimeError("abort")
        assert "scratch" not in db.view_names()

    def test_indexes_rebuilt_after_rollback(self, fig3):
        db, view, _ = fig3
        db.create_index("Person", "name")
        with pytest.raises(RuntimeError):
            with db.transaction():
                view["Student"].create(name="ghost")
                raise RuntimeError("abort")
        hits = view["Person"].select_where(Compare("name", "==", "ghost"))
        assert hits == []
        # index created inside an aborted transaction disappears
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.create_index("Person", "age")
                raise RuntimeError("abort")
        assert db.indexes.get("Person", "age") is None

    def test_database_fully_usable_after_rollback(self, fig3):
        db, view, _ = fig3
        with pytest.raises(RuntimeError):
            with db.transaction():
                view.add_attribute("x", to="Student", domain="int")
                raise RuntimeError("abort")
        # the same change applies cleanly afterwards
        view.add_attribute("x", to="Student", domain="int")
        assert "x" in view["Student"].property_names()
        db.schema.validate()

    def test_sequential_transactions_isolated(self, fig3):
        db, view, _ = fig3
        with db.transaction():
            view["Student"].create(name="first")
        with pytest.raises(RuntimeError):
            with db.transaction():
                view["Student"].create(name="second")
                raise RuntimeError("abort")
        names = {h["name"] for h in view["Student"].extent()}
        assert "first" in names and "second" not in names


def _students(view):
    return sorted(h["name"] for h in view["Student"].extent())


class TestNesting:
    """Savepoints nest: an inner rollback undoes back to its own mark."""

    def test_inner_abort_then_outer_commit(self, fig3, tmp_path):
        db, view, _ = fig3
        db.enable_wal(tmp_path, sync="off")
        with db.transaction():
            view["Student"].create(name="outer")
            with pytest.raises(RuntimeError):
                with db.transaction():
                    view["Student"].create(name="inner")
                    view["Student"].extent()[0].delete()
                    raise RuntimeError("inner abort")
            view["Student"].create(name="after")
        names = _students(view)
        assert "outer" in names and "after" in names and "inner" not in names
        assert (db.commits, db.aborts) == (1, 1)
        # the log holds the outer block's records only
        recovered = TseDatabase.recover(tmp_path, sync="off")
        assert database_to_dict(recovered) == database_to_dict(db)

    def test_inner_commit_then_outer_abort(self, fig3):
        db, view, _ = fig3
        entry = database_to_dict(db)
        with pytest.raises(RuntimeError):
            with db.transaction():
                view["Student"].create(name="outer")
                with db.transaction():
                    view.add_attribute("nick", to="Student", domain="str")
                    view["Student"].create(name="inner", nick="n")
                raise RuntimeError("outer abort")
        assert database_to_dict(db) == entry
        assert "nick" not in view["Student"].property_names()

    def test_failing_apply_many_inside_an_outer_block(self, fig3):
        db, view, _ = fig3
        twin, twin_view = build_figure3_database()
        populate_students(twin, 9)
        with db.transaction():
            view["Student"].create(name="kept")
            with pytest.raises(UnknownClass):
                db.apply_many(
                    [
                        ("create", {"class_name": "Student",
                                    "assignments": {"name": "batched"}}),
                        ("create", {"class_name": "Nope"}),
                    ]
                )
        twin_view["Student"].create(name="kept")
        assert _students(view) == _students(twin_view)
        assert database_to_dict(db) == database_to_dict(twin)

    def test_journal_lives_exactly_as_long_as_the_outermost_savepoint(self, fig3):
        db, view, _ = fig3
        assert db.pool.journal is None and db.store.journal is None
        with db.transaction():
            journal = db.pool.journal
            assert journal is not None and db.store.journal is journal
            with db.transaction():
                assert db.pool.journal is journal
            assert db.pool.journal is journal
        assert db.pool.journal is None and db.store.journal is None
        with pytest.raises(RuntimeError):
            with db.transaction():
                raise RuntimeError("abort")
        assert db.pool.journal is None and db.store.journal is None


class TestUndoneWrites:
    """Writes the random sweep reaches only rarely, undone one by one."""

    def test_first_writes_through_a_new_storage_class(self, fig3):
        db, view, _ = fig3
        view.add_attribute("nick", to="Student", domain="str")
        entry = database_to_dict(db)
        with pytest.raises(RuntimeError):
            with db.transaction():
                for handle in view["Student"].extent():
                    handle["nick"] = "n"  # a new slice per object
                raise RuntimeError("abort")
        assert database_to_dict(db) == entry
        assert all(h["nick"] is None for h in view["Student"].extent())

    def test_cast_and_membership_changes(self, fig3):
        db, view, _ = fig3
        ta = view["TA"].extent()[0]
        ta.cast("Student")
        entry = database_to_dict(db)
        with pytest.raises(RuntimeError):
            with db.transaction():
                view["TA"].get_object(ta.oid).cast("Person")
                db.engine.remove([ta.oid], "TA")
                db.engine.add([ta.oid], "Grad")
                db.engine.set_values([ta.oid], "Grad", {"thesis": "x"})
                raise RuntimeError("abort")
        assert database_to_dict(db) == entry


# ---------------------------------------------------------------------------
# aborts injected into random update sequences
# ---------------------------------------------------------------------------


def _abort_sweep(seed: int, steps: int, undone: Counter) -> None:
    """Step through a random update sequence on a live and a twin harness.

    Before each step the live side runs the next few updates inside a
    savepoint and aborts it: the persisted form must equal the entry state
    and the live database must stay equivalent to the twin, which never ran
    any aborted block.  Then both sides apply the step for real."""
    gen = CommandGenerator(seed)
    rng = random.Random(seed)
    setup = gen.setup_commands()
    updates = [gen.gen_op(rng.choice(UPDATE_OPS), rng) for _ in range(steps + 3)]
    live, twin = DifferentialHarness(), DifferentialHarness()
    original_restore = InstancePool.restore

    def counting_restore(pool, mark):
        undone.update(entry[0].__name__ for entry in pool.journal[mark:])
        original_restore(pool, mark)

    try:
        for command in setup:
            live.apply(command)
            twin.apply(command)
        InstancePool.restore = counting_restore
        for step in range(steps):
            block = updates[step : step + rng.randint(1, 4)]
            entry = database_to_dict(live.db)
            outcome = live.apply(
                Command(
                    "txn",
                    {"abort": True, "inner": [command_to_dict(c) for c in block]},
                )
            )
            assert outcome == "aborted"
            assert database_to_dict(live.db) == entry, (seed, step)
            assert state_difference(live.db, twin.db) is None
            live.apply(updates[step])
            twin.apply(updates[step])
    finally:
        InstancePool.restore = original_restore
        live.close()
        twin.close()


#: journal entry kinds the sweep must exercise: slice creation (a first
#: write through a new storage class), slot writes, slice drops, object
#: creation and destruction, and direct memberships gained and lost
_SWEEP_KINDS = {
    "_undo_create",
    "_set_slot",
    "_undo_drop",
    "pop",
    "__setitem__",
    "_undo_add_direct",
    "_undo_discard_direct",
}


class TestAbortAtEveryStep:
    def test_abort_sweep(self, forced_seed):
        seeds = [forced_seed] if forced_seed is not None else range(10)
        undone: Counter = Counter()
        for seed in seeds:
            _abort_sweep(seed, steps=30, undone=undone)
        if forced_seed is None:
            assert _SWEEP_KINDS <= set(undone), sorted(undone)

    @pytest.mark.fuzz
    def test_deep_abort_sweep(self):
        """``FUZZ_SEQUENCES`` sequences of 60 steps (scheduled CI lane)."""
        undone: Counter = Counter()
        for seed in range(int(os.environ.get("FUZZ_SEQUENCES", "500"))):
            _abort_sweep(seed, steps=60, undone=undone)
        assert _SWEEP_KINDS <= set(undone), sorted(undone)


# ---------------------------------------------------------------------------
# cost guards
# ---------------------------------------------------------------------------


def _one_set_in_a_savepoint(population: int, monkeypatch) -> Tuple[int, int]:
    """Page accesses and conceptual objects made by one committed ``set``
    inside a savepoint, over a fig-3 database of ``population`` objects."""
    db, view = build_figure3_database()
    populate_students(db, population)
    oid = min(db.extent("TA"))
    with db.transaction():  # warm extents and caches
        db.engine.set_values([oid], "TA", {"salary": 1})
    counts = Counter()

    def spy(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in ("read", "modify", "write"):
        monkeypatch.setattr(PageManager, name, spy("pages", getattr(PageManager, name)))
    monkeypatch.setattr(
        ConceptualObject, "__init__", spy("objects", ConceptualObject.__init__)
    )
    with db.transaction():
        db.engine.set_values([oid], "TA", {"salary": 2})
    monkeypatch.undo()
    assert db.pool.get_value(oid, "TA", "salary") == 2
    return counts["pages"], counts["objects"]


def test_savepoint_cost_does_not_grow_with_the_database(monkeypatch):
    small = _one_set_in_a_savepoint(300, monkeypatch)
    large = _one_set_in_a_savepoint(3000, monkeypatch)
    assert small == large
    assert small[1] == 0  # entering a savepoint clones no object


def test_no_journal_writes_outside_a_savepoint(fig3, monkeypatch):
    db, view, objects = fig3
    appended = []
    monkeypatch.setattr(
        UndoJournal, "append", lambda journal, entry: appended.append(entry)
    )
    pool = db.pool
    oid = db.engine.create("TA", {"name": "spy", "salary": 1})
    obj = pool.create_object(["Student"])
    pool.add_membership(obj.oid, "Grad")
    pool.set_value(obj.oid, "Grad", "thesis", "t")
    pool.remove_value(obj.oid, "Grad", "thesis")
    pool.cast(obj.oid, "Grad", {"Grad"})
    pool.remove_membership(obj.oid, "Grad")
    pool.destroy_object(obj.oid)
    db.engine.set_values([oid], "TA", {"salary": 2})
    db.engine.delete([oid])
    assert appended == []
    assert pool.journal is None and db.store.journal is None
    with db.transaction():  # the spy itself sees journal writes
        db.engine.create("TA", {"name": "inside"})
    assert appended


#: every instance field of every component in ``TseDatabase.state_table``,
#: by kind: ``state`` is carried by the component's savepoint
#: (``memento``/``restore``) and body section (``dump_state``/``load_state``,
#: DESIGN §10); ``derived`` is a cache rebuilt from state; ``other`` holds no
#: database state (listeners, locks, back-references, the undo journal)
STATE_FIELDS = {
    "ObjectStore": {
        # ``_attrs`` interns names; a rollback may leave one no slice
        # holds, which the body leaves out
        "state": {"_oids", "_pages", "_slices", "_by_key", "_attrs"},
        "derived": set(),
        "other": {"_mutex", "journal"},
    },
    "GlobalSchema": {
        "state": {"_classes", "_supers", "_subs"},
        "derived": {
            "_type_cache",
            "_index",
            "_closure_cache",
            "_closure_generation",
            "_generation",
            "_shape_generation",
        },
        "other": set(),
    },
    "InstancePool": {
        "state": {"_objects", "_members_direct"},
        "derived": {"_generation"},
        "other": {
            "store",
            "_value_listeners",
            "_destroy_listeners",
            "_slice_drop_listeners",
            "_delta_listeners",
            "migration",
        },
    },
    "ViewSchemaHistory": {
        "state": {"_versions", "_retired"},
        "derived": set(),
        "other": set(),
    },
    "IndexManager": {
        # the definitions are state; each index's buckets are derived
        "state": {"_indexes"},
        "derived": set(),
        "other": {"pool"},
    },
    # a list: its items are the state, it has no instance fields
    "EvolutionLog": {"state": set(), "derived": set(), "other": set()},
}


@pytest.mark.parametrize(
    "index",
    range(len(STATE_FIELDS)),
    ids=["store", "schema", "pool", "views", "indexes", "log"],
)
def test_every_field_is_journaled_or_declared_stateless(index):
    """Every field of a state-table component is saved by its savepoint
    and body section, or declared derived or not state; a component
    added to the table needs an entry here too."""
    component = TseDatabase().state_table[index]
    assert [type(c).__name__ for c in TseDatabase().state_table] == list(STATE_FIELDS)
    for method in ("memento", "restore", "dump_state", "load_state"):
        assert callable(getattr(component, method, None)), method
    kinds = STATE_FIELDS[type(component).__name__]
    assert not kinds["state"] & kinds["derived"]
    assert not (kinds["state"] | kinds["derived"]) & kinds["other"]
    fields = set(getattr(component, "__dict__", ()))
    assert fields == kinds["state"] | kinds["derived"] | kinds["other"]
