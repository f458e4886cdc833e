"""``TseDatabase.apply_many``: atomic generic-update batches.

The batch contract: a list of ``(op, kwargs)`` specs applies with the fixed
costs paid once (one latch acquisition, one WAL group commit) and with
all-or-nothing semantics — any rejected update rolls the entire batch back
and re-raises.  Recovery must replay a committed batch to exactly the state
that one-by-one application reaches, which is what makes the group commit a
pure performance change rather than a semantic one.
"""

from __future__ import annotations

import pytest

from repro.core.database import TseDatabase
from repro.errors import TseError, UnknownClass, UpdateRejected
from repro.schema.properties import Attribute


def _university() -> TseDatabase:
    db = TseDatabase()
    db.define_class(
        "Person", [Attribute("name", domain="str"), Attribute("age", domain="int")]
    )
    db.define_class(
        "Student", [Attribute("gpa", domain="int")], inherits_from=("Person",)
    )
    db.create_view("campus", ["Person", "Student"], closure="ignore")
    return db


def _observable(db: TseDatabase) -> dict:
    return {
        view: db.view(view).dump() for view in db.view_names()
    }


def _one_by_one(db: TseDatabase, specs) -> list:
    """Apply ``specs`` as a loop of single-update batches: one savepoint
    and one WAL commit per update, and a failure leaves the applied prefix
    in place."""
    return [db.apply_many([spec])[0] for spec in specs]


BATCH = [
    ("create", {"class_name": "Person", "assignments": {"name": "ada", "age": 36}}),
    ("create", {"class_name": "Student", "assignments": {"name": "alan", "gpa": 40}}),
    ("create", {"class_name": "Student", "assignments": {"name": "grace", "gpa": 30}}),
]


class TestBatchSemantics:
    def test_results_arrive_in_order(self):
        db = _university()
        oids = db.apply_many(BATCH)
        assert len(oids) == 3
        assert [o.value for o in oids] == sorted(o.value for o in oids)
        assert set(oids) == set(db.evaluator.extent("Person"))

    def test_batch_equals_one_by_one(self):
        """One batch and a loop of single-update batches reach the same
        observable state (OID allocation is deterministic)."""
        batched = _university()
        batched.apply_many(BATCH)
        single = _university()
        _one_by_one(single, BATCH)
        assert _observable(batched) == _observable(single)

    def test_mixed_ops_thread_through_the_engine(self):
        db = _university()
        ada, alan, _ = db.apply_many(BATCH)
        reports = db.apply_many([
            ("set", {"oids": [ada], "class_name": "Person",
                     "assignments": {"age": 37}}),
            ("add", {"oids": [ada], "class_name": "Student"}),
            ("remove", {"oids": [alan], "class_name": "Student"}),
            ("delete", {"oids": [alan]}),
        ])
        assert [r.operation for r in reports] == ["set", "add", "remove", "delete"]
        assert ada in db.evaluator.extent("Student")
        assert alan not in db.evaluator.extent("Person")

    def test_unknown_op_is_rejected_before_anything_applies(self):
        db = _university()
        before = _observable(db)
        with pytest.raises(UpdateRejected):
            db.apply_many([BATCH[0], ("upsert", {})])
        assert _observable(db) == before


class TestAtomicity:
    def test_failure_mid_batch_rolls_back_everything(self):
        """Two good creates followed by a rejected one: the whole batch
        must vanish, not just the failing update."""
        db = _university()
        before = _observable(db)
        before_oid = db.store.oid_next
        with pytest.raises(UnknownClass):
            db.apply_many(BATCH + [("create", {"class_name": "Nope"})])
        assert _observable(db) == before
        assert db.evaluator.extent("Person") == frozenset()
        # single-update batches, by contrast, leave the prefix applied
        db2 = _university()
        with pytest.raises(UnknownClass):
            _one_by_one(db2, BATCH + [("create", {"class_name": "Nope"})])
        assert len(db2.evaluator.extent("Person")) == 3

    def test_rollback_with_wal_attached_discards_the_group_commit(self, tmp_path):
        db = _university()
        db.enable_wal(str(tmp_path / "wal"))
        ops_before = db.wal.ops_committed
        with pytest.raises(TseError):
            db.apply_many(BATCH + [("delete", {"oids": ["not-an-oid"]})])
        assert db.evaluator.extent("Person") == frozenset()
        assert db.wal.ops_committed == ops_before, (
            "an aborted batch must not reach the log"
        )


class TestWalReplay:
    def test_recovery_replays_a_batch_to_the_one_by_one_state(self, tmp_path):
        """One committed group-commit record recovers to exactly the state
        that one commit per update recovers to."""
        grouped = _university()
        grouped.enable_wal(str(tmp_path / "grouped"))
        grouped.apply_many(BATCH)
        perop = _university()
        perop.enable_wal(str(tmp_path / "perop"))
        _one_by_one(perop, BATCH)

        r_grouped = TseDatabase.recover(str(tmp_path / "grouped"))
        r_perop = TseDatabase.recover(str(tmp_path / "perop"))
        assert _observable(r_grouped) == _observable(grouped)
        assert _observable(r_grouped) == _observable(r_perop)

    def test_batch_is_one_durable_unit(self, tmp_path):
        db = _university()
        db.enable_wal(str(tmp_path / "wal"))
        before = db.wal.lsn
        db.apply_many(BATCH)
        grouped_records = db.wal.lsn - before
        db2 = _university()
        db2.enable_wal(str(tmp_path / "wal2"))
        before2 = db2.wal.lsn
        _one_by_one(db2, BATCH)
        assert grouped_records < db2.wal.lsn - before2, (
            "group commit should write fewer records than one commit per update"
        )


def test_corpus_pins_batches_across_a_schema_change():
    """The differential corpus carries a known-good sequence with atomic
    batches on both sides of a schema change (plus a crash/recover cycle);
    ``test_differential.py`` replays every corpus entry, so this only
    asserts the entry exists and has the advertised shape."""
    from pathlib import Path

    from repro.checking.minimize import load_corpus_entry

    path = (
        Path(__file__).parent
        / "corpus"
        / "differential"
        / "apply-many-across-schema-change.json"
    )
    commands, meta = load_corpus_entry(path)
    ops = [c.op for c in commands]
    first, last = ops.index("apply_many"), len(ops) - 1 - ops[::-1].index("apply_many")
    from repro.checking.commands import SCHEMA_OPS

    assert any(op in SCHEMA_OPS for op in ops[first:last]), (
        "expected a schema change between the first and last batch"
    )


class TestConcurrentBatches:
    def test_concurrent_batches_keep_every_commit(self, tmp_path):
        """Savepoint nesting (the undo journal, the WAL buffer marks) is
        per database, so two threads' batches must not interleave: one
        thread commits 200 one-create batches while another issues 200
        batches that fail on an unknown class after a create.  Every good
        create survives, in memory and through recovery, and no batch
        raises anything but the rejection."""
        import sys
        import threading

        db = _university()
        db.migration_backfill = False
        db.enable_wal(str(tmp_path / "wal"), sync="off")
        db.sessions()
        unexpected = []

        def committing():
            for i in range(200):
                try:
                    db.apply_many(
                        [("create", {"class_name": "Person", "assignments": {"age": i}})]
                    )
                except Exception as exc:  # pragma: no cover - the bug
                    unexpected.append(exc)

        def failing():
            for i in range(200):
                try:
                    db.apply_many(
                        [
                            ("create", {"class_name": "Person", "assignments": {}}),
                            ("create", {"class_name": "NoSuchClass", "assignments": {}}),
                        ]
                    )
                except UnknownClass:
                    pass
                except Exception as exc:  # pragma: no cover - the bug
                    unexpected.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=committing), threading.Thread(target=failing)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert unexpected == []
        assert len(db.view("campus")["Person"].extent_oids()) == 200
        db.wal.close()
        recovered = TseDatabase.recover(str(tmp_path / "wal"), sync="off")
        recovered.wal.close()
        assert len(recovered.evaluator.extent("Person")) == 200
