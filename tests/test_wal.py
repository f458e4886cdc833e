"""Durability tests: WAL framing, checkpoints, crash injection, recovery.

The centrepiece is the randomized kill/recover equivalence test: a seeded
workload runs against a WAL-attached database, a :class:`CrashInjector`
kills it at a deterministic durability seam, and the recovered database is
compared — every body section and every class extent, through
:func:`repro.persistence.state_difference` — against a never-crashed twin
that applied exactly the committed prefix of the workload.
"""

import json
import os
import random

import pytest

from repro.algebra.expressions import Compare
from repro.core.database import TseDatabase
from repro.errors import (
    NotAMember,
    ObjectNotFound,
    RecoveryError,
    StorageError,
    UnknownProperty,
    UpdateRejected,
)
from repro.persistence import database_to_dict, state_difference
from repro.schema.classes import Derivation
from repro.schema.properties import Attribute
from repro.storage.oid import Oid
from repro.storage.wal import (
    CHECKPOINT_NAME,
    LOG_NAME,
    CrashInjector,
    SimulatedCrash,
    WriteAheadLog,
)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def build_base() -> TseDatabase:
    """The pre-durability baseline every test starts from (captured by the
    initial checkpoint ``enable_wal`` takes)."""
    db = TseDatabase()
    db.define_class(
        "Person",
        [Attribute("name", domain="str"), Attribute("age", domain="int", default=0)],
    )
    db.define_class(
        "Student", [Attribute("major", domain="str")], inherits_from=("Person",)
    )
    db.define_class(
        "Staff", [Attribute("salary", domain="int", default=1)],
        inherits_from=("Person",),
    )
    db.define_class("Aux", [Attribute("tag", domain="str")])
    db.create_view("campus", ["Person", "Student", "Staff", "Aux"])
    return db


def make_workload(seed: int, length: int = 40):
    """A deterministic list of workload steps (pure data, no closures).

    The generator tracks a symbolic model (names handed out, attributes
    added, whether an index exists) so every generated step *succeeds* when
    applied in order — the equivalence accounting assumes no step fails.
    """
    rng = random.Random(seed)
    steps = []
    added_attrs = []  # (class, attr) refinements we may later delete
    aux_name = "Aux"
    vc_count = 0
    cls_count = 0
    attr_count = 0
    index_done = False
    person_count = 0

    for _ in range(length):
        roll = rng.random()
        if roll < 0.30:
            cls = rng.choice(["Person", "Student", "Staff"])
            values = {"name": f"p{person_count}", "age": rng.randrange(16, 60)}
            if cls == "Student":
                values["major"] = rng.choice(["cs", "math", "bio"])
            person_count += 1
            steps.append(("create", cls, values))
        elif roll < 0.42:
            cls = rng.choice(["Person", "Student", "Staff"])
            steps.append(("set", cls, {"age": rng.randrange(16, 60)}))
        elif roll < 0.50:
            steps.append(("add_to_student", rng.choice(["cs", "math"])))
        elif roll < 0.56:
            steps.append(("remove_youngest_student",))
        elif roll < 0.62:
            steps.append(("delete", rng.choice(["Person", "Student", "Staff"])))
        elif roll < 0.70:
            attr = f"extra{attr_count}"
            attr_count += 1
            cls = rng.choice(["Student", "Staff"])
            added_attrs.append((cls, attr))
            steps.append(("add_attribute", attr, cls))
        elif roll < 0.74 and added_attrs:
            cls, attr = added_attrs.pop(rng.randrange(len(added_attrs)))
            steps.append(("delete_attribute", attr, cls))
        elif roll < 0.78:
            steps.append(("definevc", f"VC{vc_count}", rng.randrange(18, 40)))
            vc_count += 1
        elif roll < 0.82:
            steps.append(("add_class", f"Extra{cls_count}"))
            cls_count += 1
        elif roll < 0.85:
            new = "AuxR" if aux_name == "Aux" else "Aux"
            steps.append(("rename_class", aux_name, new))
            aux_name = new
        elif roll < 0.89:
            count = rng.randrange(2, 4)
            inner = []
            for _ in range(count):
                inner.append(("create", "Person", {"name": f"p{person_count}"}))
                person_count += 1
            steps.append(("txn", inner))
        elif roll < 0.92:
            steps.append(("txn_abort",))
        elif roll < 0.95:
            steps.append(("checkpoint",))
        elif roll < 0.98 and not index_done:
            index_done = True
            steps.append(("create_index", "Person", "name"))
        else:
            steps.append(("vacuum",))
    # guarantee every workload exercises the composite-txn record and the
    # checkpoint crash points, whatever the dice said
    steps.insert(
        length // 3,
        ("txn", [("create", "Person", {"name": "tx-a"}),
                 ("create", "Person", {"name": "tx-b"})]),
    )
    # and an index that a checkpoint must carry (log replay alone would
    # recreate it, so recovery from the checkpoint is what this checks)
    steps.insert(2 * length // 3, ("create_index", "Person", "age"))
    steps.insert(2 * length // 3 + 1, ("checkpoint",))
    return steps


def apply_step(db: TseDatabase, step) -> None:
    """Apply one workload step; chooses targets from the database state, so
    two databases in the same state make identical choices."""
    kind = step[0]
    view = db.view("campus")
    if kind == "create":
        _, cls, values = step
        view[cls].create(**values)
    elif kind == "set":
        _, cls, values = step
        handles = view[cls].extent()
        if handles:
            min(handles, key=lambda h: h.oid).set(
                next(iter(values)), values[next(iter(values))]
            )
    elif kind == "add_to_student":
        extent = {h.oid for h in view["Student"].extent()}
        candidates = [h for h in view["Person"].extent() if h.oid not in extent]
        if candidates:
            min(candidates, key=lambda h: h.oid).add_to("Student")
    elif kind == "remove_youngest_student":
        handles = view["Student"].extent()
        if handles:
            min(handles, key=lambda h: h.oid).remove_from("Student")
    elif kind == "delete":
        _, cls = step
        handles = view[cls].extent()
        if handles:
            max(handles, key=lambda h: h.oid).delete()
    elif kind == "add_attribute":
        _, attr, cls = step
        view.add_attribute(attr, to=cls, domain="str")
    elif kind == "delete_attribute":
        _, attr, cls = step
        view.delete_attribute(attr, from_=cls)
    elif kind == "definevc":
        _, name, age = step
        db.define_virtual_class(
            name,
            Derivation(op="select", sources=("Person",), predicate=Compare("age", ">=", age)),
        )
    elif kind == "add_class":
        _, name = step
        view.add_class(name)
    elif kind == "rename_class":
        _, old, new = step
        view.rename_class(old, new)
    elif kind == "txn":
        _, inner = step
        with db.transaction():
            for sub in inner:
                apply_step(db, sub)
    elif kind == "txn_abort":
        class _Rollback(Exception):
            pass

        try:
            with db.transaction():
                db.view("campus")["Person"].create(name="ghost")
                raise _Rollback()
        except _Rollback:
            pass
    elif kind == "checkpoint":
        if db.wal is not None:
            db.checkpoint()
    elif kind == "create_index":
        _, cls, attr = step
        db.create_index(cls, attr)
    elif kind == "vacuum":
        db.vacuum()
    else:  # pragma: no cover - generator/apply mismatch
        raise AssertionError(f"unknown step {kind!r}")


# ---------------------------------------------------------------------------
# log framing
# ---------------------------------------------------------------------------

class TestFraming:
    def test_round_trip(self, tmp_path):
        log = WriteAheadLog(tmp_path / "w.log")
        log.append(1, "create", {"class": "A"})
        log.append(2, "delete", {"oids": [7]})
        log.close()
        records, torn = WriteAheadLog(tmp_path / "w.log").read_records()
        assert torn == 0
        assert [(r.lsn, r.kind) for r in records] == [(1, "create"), (2, "delete")]
        assert records[1].payload == {"oids": [7]}

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "w.log"
        log = WriteAheadLog(path)
        log.append(1, "create", {"class": "A"})
        log.close()
        good_size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\x40\x00\x00\x00\xde\xad\xbe\xef half a record")
        records, torn = WriteAheadLog(path).read_records()
        assert [r.lsn for r in records] == [1]
        assert torn > 0
        assert path.stat().st_size == good_size  # tail physically removed

    def test_corrupt_crc_ends_scan(self, tmp_path):
        path = tmp_path / "w.log"
        log = WriteAheadLog(path)
        log.append(1, "create", {"class": "A"})
        log.append(2, "create", {"class": "B"})
        log.close()
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF  # flip a byte inside the second record's payload
        path.write_bytes(bytes(data))
        records, torn = WriteAheadLog(path).read_records()
        assert [r.lsn for r in records] == [1]
        assert torn > 0

    def test_empty_and_missing_files(self, tmp_path):
        assert WriteAheadLog(tmp_path / "absent.log").read_records() == ([], 0)
        (tmp_path / "empty.log").write_bytes(b"")
        assert WriteAheadLog(tmp_path / "empty.log").read_records() == ([], 0)


# ---------------------------------------------------------------------------
# attach / checkpoint protocol
# ---------------------------------------------------------------------------

class TestAttachAndCheckpoint:
    def test_enable_refuses_populated_directory(self, tmp_path):
        db = build_base()
        db.enable_wal(tmp_path / "wal")
        other = build_base()
        with pytest.raises(StorageError):
            other.enable_wal(tmp_path / "wal")

    def test_enable_twice_rejected(self, tmp_path):
        db = build_base()
        db.enable_wal(tmp_path / "wal")
        with pytest.raises(StorageError):
            db.enable_wal(tmp_path / "other")

    def test_checkpoint_requires_wal(self):
        with pytest.raises(StorageError):
            build_base().checkpoint()

    def test_checkpoint_inside_savepoint_rejected(self, tmp_path):
        db = build_base()
        db.enable_wal(tmp_path / "wal")
        with pytest.raises(StorageError):
            with db.transaction():
                db.checkpoint()

    def test_checkpoint_prunes_log(self, tmp_path):
        db = build_base()
        db.enable_wal(tmp_path / "wal")
        db.view("campus")["Person"].create(name="Ada")
        assert (tmp_path / "wal" / LOG_NAME).stat().st_size > 0
        db.checkpoint()
        assert (tmp_path / "wal" / LOG_NAME).stat().st_size == 0
        assert (tmp_path / "wal" / CHECKPOINT_NAME).exists()

    def test_checkpoint_carries_format_and_lsn(self, tmp_path):
        db = build_base()
        db.enable_wal(tmp_path / "wal")
        db.view("campus")["Person"].create(name="Ada")
        db.checkpoint()
        snapshot = json.loads((tmp_path / "wal" / CHECKPOINT_NAME).read_text())
        assert snapshot["format"] == 2
        assert snapshot["wal"]["lsn"] == db.wal.lsn
        assert snapshot["wal"]["ops_committed"] == db.wal.ops_committed
        assert snapshot["database"]["format"] == 2


# ---------------------------------------------------------------------------
# the checkpoint body (format 2)
# ---------------------------------------------------------------------------

def _checkpoint_body(directory) -> dict:
    return json.loads((directory / CHECKPOINT_NAME).read_text())["database"]


class TestCheckpointBody:
    def test_none_absent_and_oid_values_stay_distinct(self, tmp_path):
        db = build_base()
        db.define_class("Link", [Attribute("target"), Attribute("note")])
        db.enable_wal(tmp_path / "wal")
        people = db.view("campus")["Person"]
        ada = people.create(name="Ada", age=30).oid
        unnamed = people.create(name=None, age=31).oid
        removed = people.create(name="Gone", age=32).oid
        db.pool.remove_value(removed, "Person", "name")  # an absent slot
        link = db.engine.create("Link", {"target": ada, "note": None})
        db.checkpoint()
        recovered = TseDatabase.recover(tmp_path / "wal")
        pool = recovered.pool
        assert pool.has_value(unnamed, "Person", "name")
        assert pool.get_value(unnamed, "Person", "name", "default") is None
        assert not pool.has_value(removed, "Person", "name")
        assert pool.get_value(removed, "Person", "name", "default") == "default"
        assert pool.get_value(removed, "Person", "age") == 32
        target = pool.get_value(link, "Link", "target")
        assert isinstance(target, type(ada)) and target == ada
        assert pool.get_value(link, "Link", "note", "default") is None
        assert database_to_dict(recovered) == database_to_dict(db)

    def test_aborted_delete_leaves_the_body_of_a_twin_that_never_ran_it(
        self, tmp_path
    ):
        """Undoing a delete re-inserts the object and its slices at the end
        of their tables; the body is still written in OID order."""

        def populated(directory):
            db = build_base()
            db.enable_wal(directory)
            for index in range(5):
                db.view("campus")["Student"].create(
                    name=f"s{index}", age=20 + index, major="cs"
                )
            return db

        db = populated(tmp_path / "live")
        victim = sorted(db.extent("Student"))[1]
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.engine.delete([victim])
                raise RuntimeError("abort")
        assert list(db.pool._objects)[-1] == victim  # re-inserted at the end
        db.checkpoint()
        twin = populated(tmp_path / "twin")
        twin.checkpoint()
        assert _checkpoint_body(tmp_path / "live") == _checkpoint_body(
            tmp_path / "twin"
        )

    def test_rejected_create_leaves_the_body_of_log_only_recovery(self, tmp_path):
        """A rejected create interns its assignments' names before it is
        rolled back and is never logged; the body depends on the values
        alone, not on the names a table holds or the order it interned
        them in."""
        db = build_base()
        db.define_class(
            "Badge",
            [
                Attribute("name", domain="str"),
                Attribute("code", domain="str", required=True),
            ],
        )
        db.create_view("hr", ["Badge"])
        db.enable_wal(tmp_path / "wal")
        badges = db.view("hr")["Badge"]
        with pytest.raises(UpdateRejected):
            badges.create(name="x")  # interns "name", then no code: rejected
        badge = badges.create(code="B-1")
        badge.set("name", "Ada")  # replay interns "name" after "code"
        assert db.store._attrs["Badge"].names == ["name", "code"]
        recovered = TseDatabase.recover(tmp_path / "wal")
        assert recovered.store._attrs["Badge"].names == ["code", "name"]
        assert database_to_dict(recovered) == database_to_dict(db)

    def test_set_failing_part_way_leaves_the_body_of_log_only_recovery(
        self, tmp_path
    ):
        """A set whose second assignment fails undoes its first one too."""
        db = build_base()
        db.enable_wal(tmp_path / "wal")
        ada = db.view("campus")["Person"].create(name="Ada").oid
        with pytest.raises(UnknownProperty):
            db.engine.set_values([ada], "Person", {"age": 5, "nope": 1})
        assert not db.pool.has_value(ada, "Person", "age")
        recovered = TseDatabase.recover(tmp_path / "wal")
        assert database_to_dict(recovered) == database_to_dict(db)

    def test_index_survives_checkpoint_recovery(self, tmp_path):
        db = build_base()
        db.enable_wal(tmp_path / "wal")
        ada = db.view("campus")["Person"].create(name="Ada", age=30).oid
        db.create_index("Person", "age")
        db.checkpoint()
        recovered = TseDatabase.recover(tmp_path / "wal")
        assert recovered.wal.records_replayed == 0
        assert list(recovered.indexes.index_names()) == [("Person", "age")]
        assert recovered.indexes.get("Person", "age").lookup(30) == {ada}

    def test_format_1_checkpoint_refused(self, tmp_path):
        db = build_base()
        db.enable_wal(tmp_path / "wal")
        path = tmp_path / "wal" / CHECKPOINT_NAME
        document = json.loads(path.read_text())
        document["format"] = document["database"]["format"] = 1
        path.write_text(json.dumps(document))
        with pytest.raises(StorageError, match="unsupported database format 1"):
            TseDatabase.recover(tmp_path / "wal")


class TestRejectedWritesLeaveNoTrace:
    """A rejected write is never logged, so it must leave the live
    database as its log-only recovery rebuilds it."""

    def test_rejected_set_drops_the_slice_it_created(self, tmp_path):
        db = build_base()
        db.enable_wal(tmp_path / "wal")
        ada = db.view("campus")["Person"].create(name="Ada").oid
        db.define_virtual_class(
            "PersonX",
            Derivation(
                op="refine", sources=("Person",), new_properties=(Attribute("extra"),)
            ),
        )
        with pytest.raises(UnknownProperty):
            db.engine.set_values([ada], "PersonX", {"extra": 1, "nope": 2})
        assert sorted(db.pool.get(ada).implementations) == ["Person"]
        # the rejected set burnt OIDs; the next record's watermark carries
        # replay past them (test_oid_watermark_survives_failed_creates)
        db.view("campus")["Person"].create(name="Bob")
        recovered = TseDatabase.recover(tmp_path / "wal")
        assert state_difference(recovered, db) is None

    def test_delete_naming_a_missing_object_destroys_nothing(self, tmp_path):
        db = build_base()
        db.enable_wal(tmp_path / "wal")
        ada = db.view("campus")["Person"].create(name="Ada").oid
        with pytest.raises(ObjectNotFound):
            db.engine.delete([ada, Oid(99999)])
        assert db.pool.exists(ada)
        recovered = TseDatabase.recover(tmp_path / "wal")
        assert state_difference(recovered, db) is None

    def test_delete_naming_an_object_twice_deletes_it_once(self, tmp_path):
        db = build_base()
        db.enable_wal(tmp_path / "wal")
        ada = db.view("campus")["Person"].create(name="Ada").oid
        assert db.engine.delete([ada, ada]).oids == (ada,)
        recovered = TseDatabase.recover(tmp_path / "wal")
        assert state_difference(recovered, db) is None

    def test_remove_rejecting_one_object_removes_nothing(self, tmp_path):
        db = build_base()
        db.enable_wal(tmp_path / "wal")
        view = db.view("campus")
        person = view["Person"].create(name="p").oid
        student = view["Student"].create(name="s").oid
        with pytest.raises(NotAMember):
            db.engine.remove([person, student], "Person")
        assert db.pool.get(person).direct_classes == {"Person"}
        recovered = TseDatabase.recover(tmp_path / "wal")
        assert state_difference(recovered, db) is None


# ---------------------------------------------------------------------------
# plain recovery (no crash)
# ---------------------------------------------------------------------------

class TestRecovery:
    def test_checkpoint_plus_log_replay(self, tmp_path):
        db = build_base()
        db.enable_wal(tmp_path / "wal")
        for step in make_workload(seed=7, length=25):
            apply_step(db, step)
        recovered = TseDatabase.recover(tmp_path / "wal")
        assert state_difference(recovered, db) is None

    def test_log_only_and_checkpoint_recovery_agree_on_the_evolution_log(
        self, tmp_path
    ):
        """The evolution log is process-local audit: the live database
        keeps its record, every recovery starts with an empty log."""
        logs = []
        for checkpoint in (False, True):
            db = build_base()
            db.enable_wal(tmp_path / f"wal-{checkpoint}")
            db.view("campus").add_attribute("nick", to="Person", domain="str")
            if checkpoint:
                db.checkpoint()
            assert len(db.evolution_log()) == 1
            recovered = TseDatabase.recover(tmp_path / f"wal-{checkpoint}")
            assert state_difference(recovered, db) is None
            logs.append(recovered.evolution_log())
        assert logs[0] == logs[1] == []

    def test_recovered_database_keeps_journaling(self, tmp_path):
        db = build_base()
        db.enable_wal(tmp_path / "wal")
        db.view("campus")["Person"].create(name="Ada")
        first = TseDatabase.recover(tmp_path / "wal")
        first.view("campus")["Person"].create(name="Bob")
        second = TseDatabase.recover(tmp_path / "wal")
        assert second.pool.object_count == 2
        assert second.wal.ops_committed == first.wal.ops_committed

    def test_recovery_metrics_in_stats(self, tmp_path):
        db = build_base()
        db.enable_wal(tmp_path / "wal")
        db.view("campus")["Person"].create(name="Ada")
        recovered = TseDatabase.recover(tmp_path / "wal")
        stats = recovered.stats()
        assert stats["wal_records_replayed"] == 1
        assert stats["recovery_seconds"] > 0
        assert stats["wal"]["ops_committed"] == 1
        assert "durability_seconds" in stats
        prom = recovered.obs.metrics.to_prometheus()
        assert "tse_recovery_seconds" in prom

    def test_savepoint_abort_is_noop_on_disk(self, tmp_path):
        db = build_base()
        db.enable_wal(tmp_path / "wal")
        baseline = (tmp_path / "wal" / LOG_NAME).stat().st_size
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.view("campus")["Person"].create(name="ghost")
                raise RuntimeError("rollback")
        assert (tmp_path / "wal" / LOG_NAME).stat().st_size == baseline
        recovered = TseDatabase.recover(tmp_path / "wal")
        assert recovered.pool.object_count == 0

    def test_savepoint_commit_is_one_atomic_record(self, tmp_path):
        db = build_base()
        db.enable_wal(tmp_path / "wal")
        with db.transaction():
            db.view("campus")["Person"].create(name="a")
            db.view("campus")["Person"].create(name="b")
        records, _ = WriteAheadLog(tmp_path / "wal" / LOG_NAME).read_records()
        assert [r.kind for r in records] == ["txn"]
        assert len(records[0].payload["records"]) == 2
        recovered = TseDatabase.recover(tmp_path / "wal")
        assert recovered.pool.object_count == 2

    def test_oid_watermark_survives_failed_creates(self, tmp_path):
        """An op that consumed OIDs and rolled back leaves no record; the
        watermark on the next record keeps replay allocation aligned."""
        from repro.errors import UpdateRejected

        db = build_base()
        db.define_class(
            "Badge", [Attribute("code", domain="str", required=True)]
        )
        db.create_view("hr", ["Badge"])
        db.enable_wal(tmp_path / "wal")
        view = db.view("hr")
        before = db.pool.store.oid_next
        with pytest.raises(UpdateRejected):
            view["Badge"].create()  # rejected by REQUIRED, burns OIDs
        assert db.pool.store.oid_next > before  # the allocator is monotone
        survivor = view["Badge"].create(code="B-1")
        recovered = TseDatabase.recover(tmp_path / "wal")
        assert recovered.extent("Badge") == {survivor.oid}
        r_handle = recovered.view("hr")["Badge"].extent()[0]
        assert r_handle.oid == survivor.oid
        assert r_handle["code"] == "B-1"
        assert recovered.pool.store.oid_next == db.pool.store.oid_next

    def test_replay_oid_mismatch_raises_recovery_error(self, tmp_path):
        db = build_base()
        db.enable_wal(tmp_path / "wal")
        db.view("campus")["Person"].create(name="Ada")
        # corrupt the log semantically: claim the create produced oid 999
        log_path = tmp_path / "wal" / LOG_NAME
        records, _ = WriteAheadLog(log_path).read_records()
        log_path.unlink()
        rewritten = WriteAheadLog(log_path)
        for record in records:
            record.payload["oid"] = 999
            rewritten.append(record.lsn, record.kind, record.payload)
        rewritten.close()
        with pytest.raises(RecoveryError):
            TseDatabase.recover(tmp_path / "wal")


# ---------------------------------------------------------------------------
# crash injection: the randomized kill/recover equivalence test
# ---------------------------------------------------------------------------

def run_reference(tmp_path, steps):
    """The never-crashed run: returns (db, cumulative ops per step, lsn)."""
    db = build_base()
    db.enable_wal(tmp_path / "ref")
    cumulative = [0]
    for step in steps:
        apply_step(db, step)
        cumulative.append(db.wal.ops_committed)
    return db, cumulative, db.wal.lsn


def build_twin(steps, prefix_ops, cumulative):
    """A fresh database that applies exactly the committed step prefix."""
    boundary = cumulative.index(prefix_ops)
    twin = build_base()
    for step in steps[:boundary]:
        if step[0] == "checkpoint":
            continue  # no WAL attached; checkpoints don't mutate the db
        apply_step(twin, step)
    return twin


CRASH_POINTS_TESTED = ["wal:mid_append", "checkpoint:before_rename", "checkpoint:after_rename"]


def kill_and_recover(tmp_path, seed, point):
    """Kill seeded workloads at ``point`` and hold each recovery to the
    uncrashed twin of its committed prefix."""
    steps = make_workload(seed=seed, length=40)
    _, cumulative, final_lsn = run_reference(tmp_path, steps)
    # make_workload always inserts a checkpoint step
    checkpoints = sum(1 for s in steps if s[0] == "checkpoint")
    # str hash is process-randomized; index() keeps the rng reproducible
    from repro.storage.wal import CRASH_POINTS

    rng = random.Random(seed * 1000 + CRASH_POINTS.index(point))

    if point == "wal:mid_append":
        # any append over the whole run (lsn counts every append)
        occurrences = sorted({rng.randrange(1, final_lsn + 1) for _ in range(3)})
    else:
        # occurrence 1 is enable_wal's initial checkpoint; workload
        # checkpoints are occurrences 2..,
        occurrences = sorted({rng.randrange(2, checkpoints + 2) for _ in range(2)})

    for at in occurrences:
        wal_dir = tmp_path / f"crash-{point.replace(':', '_')}-{at}"
        victim = build_base()
        injector = CrashInjector(point, at=at)
        crashed = False
        try:
            victim.enable_wal(wal_dir, crash_injector=injector)
            for step in steps:
                apply_step(victim, step)
        except SimulatedCrash:
            crashed = True
        if point != "wal:mid_append":
            assert crashed or not injector.fired
        # the process is dead; all we have is the directory
        recovered = TseDatabase.recover(wal_dir)
        committed = recovered.wal.ops_committed
        assert committed in cumulative, (
            f"seed {seed}: recovery landed between step boundaries: {committed}"
        )
        twin = build_twin(steps, committed, cumulative)
        difference = state_difference(recovered, twin)
        assert difference is None, f"seed {seed}, {point} at {at}: {difference}"
        if crashed:
            assert committed <= cumulative[-1]


class TestCrashRecoveryEquivalence:
    @pytest.mark.parametrize("seed", [11, 23, 47])
    @pytest.mark.parametrize("point", CRASH_POINTS_TESTED)
    def test_kill_and_recover_matches_uncrashed_twin(self, tmp_path, seed, point):
        kill_and_recover(tmp_path, seed, point)

    @pytest.mark.fuzz
    @pytest.mark.parametrize("point", CRASH_POINTS_TESTED)
    def test_deep_kill_and_recover(self, tmp_path, point):
        """``FUZZ_SEQUENCES`` seeded workloads (scheduled CI lane)."""
        for seed in range(int(os.environ.get("FUZZ_SEQUENCES", "500"))):
            kill_and_recover(tmp_path / str(seed), seed, point)

    def test_crash_mid_initial_checkpoint_leaves_recoverable_empty_dir(
        self, tmp_path
    ):
        victim = build_base()
        injector = CrashInjector("checkpoint:before_rename", at=1)
        with pytest.raises(SimulatedCrash):
            victim.enable_wal(tmp_path / "wal", crash_injector=injector)
        # nothing was made durable; recovery yields a fresh database
        recovered = TseDatabase.recover(tmp_path / "wal")
        assert recovered.pool.object_count == 0
        assert recovered.view_names() == []
        from repro.schema.classes import ROOT_CLASS

        user_classes = [
            c.name for c in recovered.schema.base_classes() if c.name != ROOT_CLASS
        ]
        assert user_classes == []

    def test_torn_record_metrics_surface(self, tmp_path):
        victim = build_base()
        injector = CrashInjector("wal:mid_append", at=2)
        victim.enable_wal(tmp_path / "wal", crash_injector=injector)
        view = victim.view("campus")
        view["Person"].create(name="a")
        with pytest.raises(SimulatedCrash):
            view["Person"].create(name="b")
        recovered = TseDatabase.recover(tmp_path / "wal")
        assert recovered.wal.torn_bytes_dropped > 0
        assert recovered.pool.object_count == 1
        assert recovered.stats()["wal"]["torn_bytes_dropped"] > 0
