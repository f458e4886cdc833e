"""Lazy schema migration: pending epochs, capture paths, backfill, crashes.

The non-blocking schema-change subsystem (DESIGN.md section 16) publishes
epochs with *pending* extents and lets the
:class:`~repro.concurrency.migration.MigrationEngine` capture them off the
writer's critical path.  These tests pin its contract:

* **Transparency** — a pinned epoch answers every reader query with the
  extents a from-scratch evaluation gives at publish time, no matter when
  (touch, seal, backfill) they were physically captured.
* **Seal-before-mutation** — a pool mutation after publish can never leak
  into an epoch published before it.
* **Drains** — explicit ``backfill_step`` batches are bounded and
  deterministic; the background worker drains to zero and exits; vacuum
  forces a full drain.
* **Lifecycle** — retiring an epoch (including retire-on-last-unpin, the
  PR-9 bugfix sweep) drops its backlog from the engine.
* **Durability** — ``migration_step`` WAL records are audit-only: replay
  skips them, and a crash mid-append recovers to a state equivalent to an
  uncrashed twin.
* **Failure paths** — a failed schema change still emits
  ``schema_change_failed`` after the hardened rollback, and a rollback
  that *itself* fails emits ``schema_restore_failed`` without masking the
  original error.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.database import TseDatabase
from repro.core.manager import TseManager
from repro.errors import EvolutionError
from repro.schema.extents import ExtentEvaluator
from repro.schema.properties import Attribute
from repro.storage.wal import LOG_NAME, CrashInjector, SimulatedCrash, WriteAheadLog

from tests.test_wal import assert_equivalent


def build_campus(backfill: bool = False) -> TseDatabase:
    db = TseDatabase()
    db.migration_backfill = backfill
    db.define_class(
        "Person",
        [Attribute("name", domain="str"), Attribute("age", domain="int", default=0)],
    )
    db.define_class(
        "Student", [Attribute("major", domain="str")], inherits_from=("Person",)
    )
    db.create_view("campus", ["Person", "Student"])
    view = db.view("campus")
    for index in range(12):
        if index % 3:
            view["Person"].create(name=f"p{index}", age=index % 80)
        else:
            view["Student"].create(name=f"s{index}", age=20, major="cs")
    return db


def wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


# ---------------------------------------------------------------------------
# transparency: pinned reads == the publish-time extents
# ---------------------------------------------------------------------------


class TestTransparency:
    def test_lazy_publish_defers_capture(self):
        db = build_campus()
        sessions = db.sessions()
        engine = sessions.migration
        before = engine.backlog()
        with sessions.writer() as w:
            w.view("campus").add_attribute("credits", to="Student", default=0)
        assert engine.backlog() > before, "publish captured extents up front"

    def test_pinned_reads_match_a_from_scratch_evaluation(self):
        """A pinned reader sees exactly the extents a from-scratch
        :class:`ExtentEvaluator` computes right after publish — the lazy
        engine only changes *when* extents are snapshotted, never what
        they contain — even after later writes move the live extents."""
        db = build_campus()
        sessions = db.sessions()
        with sessions.writer() as w:
            w.view("campus").add_attribute("credits", to="Student", default=0)
        view = db.views.current("campus")
        scratch = ExtentEvaluator(db.schema, db.pool)
        expected = {
            cls: sorted(o.value for o in scratch.extent(view.global_name_of(cls)))
            for cls in view.class_names()
        }
        with sessions.reader() as r:
            assert r.epoch.pending, "the epoch must still be migrating"
            with sessions.writer() as w:
                w.view("campus")["Student"].create(name="late", major="math")
                w.view("campus")["Person"].create(name="later", age=50)
            assert r.view_version("campus") == view.version
            assert sorted(r.class_names("campus")) == sorted(expected)
            pinned = {
                cls: [o.value for o in r.extent_oids("campus", cls)]
                for cls in r.class_names("campus")
            }
            assert r.verify()
        assert pinned == expected
        live = ExtentEvaluator(db.schema, db.pool)
        assert len(live.extent(view.global_name_of("Person"))) == (
            len(expected["Person"]) + 2
        ), "the later writes must have moved the live extents"

    def test_seal_before_mutation_preserves_snapshot(self):
        """An object created *after* publish must not leak into the epoch:
        the pre-mutation hook seals affected pending classes first."""
        db = build_campus()
        sessions = db.sessions()
        with sessions.writer() as w:
            w.view("campus").add_attribute("credits", to="Student", default=0)
        reader = sessions.reader().__enter__()
        try:
            # the pinned epoch's Person extent is still pending: nothing
            # has touched it yet
            pinned_before = reader.count("campus", "Person")
            with sessions.writer() as w:
                w.view("campus")["Person"].create(name="late", age=1)
            assert reader.count("campus", "Person") == pinned_before
            reader.refresh()
            assert reader.count("campus", "Person") == pinned_before + 1
        finally:
            reader.close()

    def test_destroy_seals_everything(self):
        """Destroys take the conservative path: every pending class seals
        before the object disappears, so pinned counts hold."""
        db = build_campus()
        sessions = db.sessions()
        with sessions.writer() as w:
            w.view("campus").add_attribute("credits", to="Student", default=0)
        with sessions.reader() as r:
            students = r.count("campus", "Student")
            victim = r.extent_oids("campus", "Student")[0]
            with sessions.writer() as w:
                w.view("campus")["Student"].get_object(victim).delete()
            assert r.count("campus", "Student") == students
            assert r.verify()
            r.refresh()
            assert r.count("campus", "Student") == students - 1


# ---------------------------------------------------------------------------
# drains: explicit steps, the background worker, vacuum
# ---------------------------------------------------------------------------


class TestDrains:
    def test_backfill_step_is_bounded_and_deterministic(self):
        db = build_campus()
        sessions = db.sessions()
        engine = sessions.migration
        with sessions.writer() as w:
            w.view("campus").add_attribute("credits", to="Student", default=0)
        backlog = engine.backlog()
        assert backlog > 2
        captured = engine.backfill_step(limit=2)
        assert captured == 2
        assert engine.backlog() == backlog - 2
        # drain the rest; a drained engine answers 0 forever after
        assert engine.drain() == backlog - 2
        assert engine.backfill_step() == 0
        assert engine.backlog() == 0

    def test_background_worker_drains_and_exits(self):
        db = build_campus(backfill=True)
        sessions = db.sessions()
        engine = sessions.migration
        with sessions.writer() as w:
            w.view("campus").add_attribute("credits", to="Student", default=0)
        assert wait_until(lambda: engine.backlog() == 0), engine.status()
        assert wait_until(lambda: not engine.worker_alive), engine.status()
        # a second pending publish respawns the worker
        with sessions.writer() as w:
            w.view("campus").add_attribute("units", to="Student", default=0)
        assert wait_until(lambda: engine.backlog() == 0), engine.status()

    def test_vacuum_drains_first(self):
        db = build_campus()
        sessions = db.sessions()
        with sessions.writer() as w:
            w.view("campus").add_attribute("credits", to="Student", default=0)
        assert sessions.migration.backlog() > 0
        db.vacuum()
        assert sessions.migration.backlog() == 0

    def test_migration_status_shape(self):
        db = build_campus()
        sessions = db.sessions()
        with sessions.writer() as w:
            w.view("campus").add_attribute("credits", to="Student", default=0)
        status = db.migration_status()
        assert status["mode"] == "lazy"
        assert status["backlog"] > 0
        assert status["backfill"]["enabled"] is False
        for entry in status["epochs"]:
            assert 0.0 <= entry["watermark"] < 1.0
            assert entry["pending"] + entry["captured"] >= entry["pending"]
        sessions.migration.drain()
        drained = db.migration_status()
        assert drained["backlog"] == 0 and drained["epochs"] == []

    def test_status_without_session_layer_is_quiescent(self):
        """Before the session layer attaches no epoch exists: the report
        keeps its shape with a zero backlog and no worker."""
        db = TseDatabase()
        db.define_class("K", [Attribute("a", default=0)])
        db.create_view("V", ["K"])
        status = db.migration_status()
        assert status["mode"] == "lazy"
        assert status["backlog"] == 0 and status["epochs"] == []
        assert status["backfill"]["worker_alive"] is False


# ---------------------------------------------------------------------------
# epoch lifecycle: retirement drops the backlog (the PR-9 bugfix)
# ---------------------------------------------------------------------------


class TestRetirementDropsBacklog:
    def test_retire_on_last_unpin_deregisters_backlog(self):
        """Publish over a *pinned* epoch, then unpin: the superseded epoch
        must retire on the last unpin and its uncaptured backlog must
        leave the engine — otherwise the worker would keep capturing
        extents nobody can ever read."""
        db = build_campus()
        sessions = db.sessions()
        engine = sessions.migration
        reader = sessions.reader().__enter__()
        pinned = reader.epoch
        with sessions.writer() as w:
            w.view("campus").add_attribute("credits", to="Student", default=0)
        # the pinned baseline epoch still holds pending classes, and the
        # new epoch added its own
        assert sessions.epochs.stats_dict()["retired"] == 0
        assert pinned.pending, "baseline epoch should still be pending"
        backlog_with_both = engine.backlog()
        stats = engine.stats_dict()
        assert stats["epochs_migrating"] == 2
        reader.close()  # last unpin → retire → deregister
        assert sessions.epochs.stats_dict()["retired"] == 1
        stats = engine.stats_dict()
        assert stats["epochs_migrating"] == 1
        assert stats["epochs_dropped"] == 1
        assert stats["backlog_dropped"] > 0
        assert engine.backlog() < backlog_with_both

    def test_publish_over_unpinned_epoch_also_deregisters(self):
        db = build_campus()
        sessions = db.sessions()
        engine = sessions.migration
        with sessions.writer() as w:
            w.view("campus").add_attribute("credits", to="Student", default=0)
        with sessions.writer() as w:
            w.view("campus").add_attribute("units", to="Student", default=0)
        stats = engine.stats_dict()
        # each publish retired its unpinned predecessor and dropped its
        # never-to-be-read backlog
        assert stats["epochs_dropped"] >= 2
        assert stats["backlog_dropped"] > 0
        assert stats["epochs_migrating"] == 1


# ---------------------------------------------------------------------------
# durability: migration_step records, replay, crash mid-backfill
# ---------------------------------------------------------------------------


class TestDurability:
    def _with_wal(self, tmp_path, name):
        db = build_campus()
        db.enable_wal(tmp_path / name)
        sessions = db.sessions()
        with sessions.writer() as w:
            w.view("campus").add_attribute("credits", to="Student", default=0)
        return db, sessions

    def test_backfill_journals_migration_step(self, tmp_path):
        db, sessions = self._with_wal(tmp_path, "wal")
        engine = sessions.migration
        backlog = engine.backlog()
        engine.drain()
        db.wal.close()
        records, torn = WriteAheadLog(tmp_path / "wal" / LOG_NAME).read_records()
        assert torn == 0
        steps = [r for r in records if r.kind == "migration_step"]
        assert steps, "backfill never journaled"
        assert sum(len(r.payload["classes"]) for r in steps) == backlog
        assert steps[-1].payload["remaining"] == 0
        assert all(isinstance(r.payload["epoch"], int) for r in steps)

    def test_replay_skips_migration_step(self, tmp_path):
        """Audit-only: a log full of migration_step records recovers to
        the same state twice (and the records do not need replaying)."""
        db, sessions = self._with_wal(tmp_path, "wal")
        sessions.migration.drain()
        db.wal.close()
        recovered = TseDatabase.recover(tmp_path / "wal")
        twin = TseDatabase.recover(tmp_path / "wal")
        assert_equivalent(recovered, twin)
        assert recovered.extent("Person") == db.extent("Person")

    def test_crash_mid_migration_step_append_recovers(self, tmp_path):
        """Kill the process mid-append of a migration_step record: the torn
        tail truncates away and recovery is equivalent to an uncrashed
        twin that ran the same workload."""
        db, sessions = self._with_wal(tmp_path, "crashed")
        engine = sessions.migration
        db.wal.log.injector = CrashInjector("wal:mid_append", at=1)
        with pytest.raises(SimulatedCrash):
            engine.backfill_step(limit=2)
        # the process is dead; all we have is the directory
        recovered = TseDatabase.recover(tmp_path / "crashed")

        twin_db, twin_sessions = self._with_wal(tmp_path, "twin")
        twin_sessions.migration.drain()  # the backfill the victim lost
        twin_db.wal.close()
        twin = TseDatabase.recover(tmp_path / "twin")
        assert_equivalent(recovered, twin)
        # and the recovered database migrates cleanly from here
        r_sessions = recovered.sessions()
        with r_sessions.writer() as w:
            w.view("campus").add_attribute("units", to="Student", default=0)
        r_sessions.migration.drain()
        assert r_sessions.migration.backlog() == 0


# ---------------------------------------------------------------------------
# backfill vs pinned readers (stress)
# ---------------------------------------------------------------------------


def run_backfill_stress(n_readers: int, n_changes: int) -> None:
    """Readers pin epochs and read/verify continuously while a writer
    loops schema changes and the background worker drains backlogs —
    every capture path (touch, seal, backfill) races every reader."""
    db = build_campus(backfill=True)
    sessions = db.sessions()
    stop = threading.Event()
    reads = [0] * n_readers
    errors = []

    def make_reader(index):
        def reader():
            try:
                while not stop.is_set():
                    with sessions.reader() as r:
                        assert r.verify(), "torn epoch under backfill"
                        total = 0
                        for cls in r.class_names("campus"):
                            total += r.count("campus", cls)
                        oids = r.extent_oids("campus", "Person")
                        assert len(oids) == len(set(oids))
                    reads[index] += 1
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        return reader

    def writer():
        try:
            view = db.view("campus")
            for seq in range(n_changes):
                with sessions.writer() as w:
                    if seq % 2 == 0:
                        w.view("campus").add_attribute(f"tmp{seq}", to="Person")
                    else:
                        w.view("campus").delete_attribute(
                            f"tmp{seq - 1}", from_="Person"
                        )
                view["Person"].create(name=f"n{seq}", age=seq % 80)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
        finally:
            stop.set()

    threads = [threading.Thread(target=make_reader(i)) for i in range(n_readers)]
    threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    assert all(count > 0 for count in reads), "a reader thread starved"
    engine = sessions.migration
    assert wait_until(lambda: engine.backlog() == 0), engine.status()


class TestBackfillStress:
    def test_stress_small(self):
        """Tier-1-sized: 3 readers vs 10 schema changes with live backfill."""
        run_backfill_stress(n_readers=3, n_changes=10)

    @pytest.mark.concurrency_stress
    def test_stress_full(self):
        """The acceptance harness: 8 pinned readers race the backfill
        worker across >= 60 schema-change/mutation rounds."""
        run_backfill_stress(n_readers=8, n_changes=60)


# ---------------------------------------------------------------------------
# failure paths: hardened rollback (the PR-9 audit of core/manager.py)
# ---------------------------------------------------------------------------


class TestRollbackHardening:
    def _failing_change(self, db, monkeypatch):
        """Force the pipeline to die *inside* ``_run`` (after the memento
        is taken) so the rollback path executes."""
        def boom(self, view_name, view, plan):
            raise RuntimeError("injected pipeline fault")

        monkeypatch.setattr(TseManager, "_execute", boom)

    def test_failure_still_emits_schema_change_failed(self, monkeypatch):
        db = build_campus()
        before = sorted(db.schema.class_names())
        seen = []
        db.obs.events.subscribe("schema_change_failed", seen.append)
        self._failing_change(db, monkeypatch)
        with pytest.raises(EvolutionError) as err:
            db.view("campus").add_attribute("doomed", to="Student")
        assert "injected pipeline fault" in str(err.value)
        assert [e["error"] for e in seen] == ["EvolutionError"]
        # the rollback restored the pre-change schema
        assert sorted(db.schema.class_names()) == before
        assert db.stats()["schema_changes_failed"] >= 1

    def test_restore_failure_emits_its_own_event_and_chains(self, monkeypatch):
        db = build_campus()
        failed, restore_failed = [], []
        db.obs.events.subscribe("schema_change_failed", failed.append)
        db.obs.events.subscribe("schema_restore_failed", restore_failed.append)
        self._failing_change(db, monkeypatch)

        def broken_restore(memento):
            raise RuntimeError("restore is torn")

        monkeypatch.setattr(db.schema, "restore", broken_restore)
        with pytest.raises(EvolutionError) as err:
            db.view("campus").add_attribute("doomed", to="Student")
        # the restore error surfaces, chained onto the original cause
        assert "rollback after failed schema change also failed" in str(err.value)
        assert err.value.__cause__ is not None
        assert len(restore_failed) == 1
        assert restore_failed[0]["error"] == "RuntimeError"
        assert restore_failed[0]["cause"] == "RuntimeError"
        # the outer failure path still ran: event + counter
        assert len(failed) == 1
        assert db.obs.metrics.counter("schema_restores_failed").value == 1
