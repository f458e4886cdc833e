"""Concurrency tests: schema latch, epochs, sessions, and the thread-safety
bug cluster (metrics instruments, OID allocation, WAL group commit).

The centrepiece is the snapshot-isolation stress harness: reader threads
query pinned view schemas while one writer loops randomized schema changes;
every read must observe a committed-whole epoch, and afterwards the
database must be equivalent — via the WAL suite's twin-equivalence checker
— to a twin that applied the same operations single-threaded.
"""

import random
import threading
import time

import pytest

from repro.concurrency.epoch import EpochManager
from repro.concurrency.latch import SchemaLatch
from repro.core.database import TseDatabase
from repro.errors import TseError
from repro.obs.metrics import MetricsRegistry
from repro.persistence import state_difference
from repro.schema.properties import Attribute
from repro.storage.oid import OidAllocator
from repro.storage.wal import WriteAheadLog


def run_threads(workers):
    """Start, join, and re-raise the first exception from worker threads."""
    errors = []

    def wrap(fn):
        def runner():
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 - surfaced via re-raise
                errors.append(exc)

        return runner

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def build_campus() -> TseDatabase:
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
    db.create_view("campus", ["Person", "Student", "Staff"])
    return db


# ---------------------------------------------------------------------------
# the schema latch
# ---------------------------------------------------------------------------

class TestSchemaLatch:
    def test_readers_share_writer_excludes(self):
        latch = SchemaLatch()
        order = []
        in_read = threading.Barrier(3)

        def reader():
            with latch.read():
                in_read.wait(timeout=5)  # all three readers inside together
                order.append("r")

        run_threads([reader, reader, reader])
        assert order == ["r", "r", "r"]

        held = threading.Event()
        release = threading.Event()
        seen_during_write = []

        def writer():
            with latch.write():
                held.set()
                release.wait(timeout=5)

        def late_reader():
            held.wait(timeout=5)
            seen_during_write.append(latch.stats_dict()["write_held"])
            with latch.read():
                seen_during_write.append(latch.stats_dict()["write_held"])

        t_w = threading.Thread(target=writer)
        t_r = threading.Thread(target=late_reader)
        t_w.start()
        held.wait(timeout=5)
        t_r.start()
        time.sleep(0.05)  # let the reader reach the wait
        release.set()
        t_w.join()
        t_r.join()
        assert seen_during_write == [True, False]

    def test_writers_admitted_fifo(self):
        latch = SchemaLatch()
        admitted = []
        gate = threading.Event()

        def holder():
            with latch.write():
                gate.wait(timeout=5)

        t0 = threading.Thread(target=holder)
        t0.start()
        while latch.stats_dict()["writes_admitted"] == 0:
            time.sleep(0.001)

        def make_writer(tag):
            def writer():
                with latch.write():
                    admitted.append(tag)

            return writer

        queued = []
        for tag in ("a", "b", "c"):
            t = threading.Thread(target=make_writer(tag))
            t.start()
            queued.append(t)
            while latch.writers_waiting < len(queued):
                time.sleep(0.001)
        gate.set()
        t0.join()
        for t in queued:
            t.join()
        assert admitted == ["a", "b", "c"]

    def test_write_reentrancy_and_read_under_write(self):
        latch = SchemaLatch()
        with latch.write():
            with latch.write():  # owner may nest
                with latch.read():  # ... and read its own in-progress state
                    assert latch.held_exclusively_by_me()
        assert latch.stats_dict()["write_held"] is False

    def test_read_to_write_upgrade_is_rejected(self):
        latch = SchemaLatch()
        with latch.read():
            with pytest.raises(TseError):
                latch.acquire_write()


# ---------------------------------------------------------------------------
# satellite: metrics thread safety
# ---------------------------------------------------------------------------

class TestMetricsThreadSafety:
    def test_histogram_drift_under_threads(self):
        registry = MetricsRegistry()
        per_thread, n_threads = 4000, 8

        def worker():
            hist = registry.histogram("lat")  # get-or-create races too
            counter = registry.counter("ops")
            for i in range(per_thread):
                hist.observe(0.0001 * (i % 13))
                counter.inc()

        run_threads([worker] * n_threads)
        snap = registry.snapshot()
        total = n_threads * per_thread
        assert snap["ops"] == total
        hist = snap["lat"]
        assert hist["count"] == total
        # internal consistency: the +Inf cumulative bucket IS the count, and
        # cumulative counts are monotone (no torn sum/count/bucket triple)
        cumulative = list(hist["buckets"].values())
        assert cumulative[-1] == total
        assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))

    def test_get_or_create_returns_one_instrument(self):
        registry = MetricsRegistry()
        seen = []
        seen_lock = threading.Lock()

        def worker():
            c = registry.counter("shared")
            with seen_lock:
                seen.append(id(c))

        run_threads([worker] * 8)
        assert len(set(seen)) == 1

    def test_snapshot_while_observing_is_consistent(self):
        registry = MetricsRegistry()
        stop = threading.Event()

        def observer():
            hist = registry.histogram("h")
            while not stop.is_set():
                hist.observe(0.001)

        def snapshotter():
            for _ in range(300):
                snap = registry.snapshot().get("h")
                if snap is None:
                    continue
                assert snap["buckets"]["+Inf"] == snap["count"]
            stop.set()

        run_threads([observer, observer, snapshotter])


# ---------------------------------------------------------------------------
# satellite: OID allocation atomicity
# ---------------------------------------------------------------------------

class TestOidAllocation:
    def test_concurrent_allocation_unique_and_monotone(self):
        allocator = OidAllocator()
        per_thread, n_threads = 3000, 8
        results = [[] for _ in range(n_threads)]

        def make_worker(bucket):
            def worker():
                for _ in range(per_thread):
                    bucket.append(allocator.allocate())

            return worker

        run_threads([make_worker(results[i]) for i in range(n_threads)])
        everything = [oid.value for bucket in results for oid in bucket]
        assert len(everything) == len(set(everything)), "duplicate OIDs minted"
        assert allocator.allocated_count == n_threads * per_thread
        assert allocator.next_value == n_threads * per_thread + 1
        for bucket in results:  # per-thread monotonicity
            values = [oid.value for oid in bucket]
            assert values == sorted(values)

    def test_snapshot_is_never_torn(self):
        allocator = OidAllocator()
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                allocator.allocate()

        def check():
            for _ in range(2000):
                snap = allocator.snapshot()
                assert snap["next"] == snap["allocated"] + 1
            stop.set()

        run_threads([churn, churn, check])


# ---------------------------------------------------------------------------
# WAL group commit
# ---------------------------------------------------------------------------

class TestGroupCommit:
    def test_concurrent_barriers_share_fsyncs(self, tmp_path):
        log = WriteAheadLog(tmp_path / "w.log", sync="flush")
        per_thread, n_threads = 60, 6
        lsn_lock = threading.Lock()
        lsn = [0]
        barriers = [0]

        def worker():
            for _ in range(per_thread):
                with lsn_lock:
                    lsn[0] += 1
                    mine = lsn[0]
                log.append(mine, "create", {"n": mine})
                log.barrier()
                with lsn_lock:
                    barriers[0] += 1

        run_threads([worker] * n_threads)
        total = n_threads * per_thread
        # every barrier was satisfied, by its own fsync or a shared one
        assert log.fsyncs_issued + log.group_absorbed == barriers[0] == total
        assert log.fsyncs_issued <= total
        # and the log is intact: every record present exactly once
        log.close()
        records, torn = WriteAheadLog(tmp_path / "w.log").read_records()
        assert torn == 0
        lsns = sorted(r.lsn for r in records)
        assert lsns == list(range(1, total + 1))

    def test_group_commit_absorbs_under_contention(self, tmp_path):
        """With many committers pounding the barrier simultaneously, at
        least one fsync must be shared (the whole point of group commit)."""
        log = WriteAheadLog(tmp_path / "w.log", sync="flush")
        start = threading.Barrier(8)
        lsn_lock = threading.Lock()
        lsn = [0]

        def worker():
            start.wait(timeout=5)
            for _ in range(40):
                with lsn_lock:
                    lsn[0] += 1
                    mine = lsn[0]
                log.append(mine, "set", {"n": mine})
                log.barrier()

        run_threads([worker] * 8)
        assert log.group_absorbed > 0, "no barrier ever shared an fsync"


# ---------------------------------------------------------------------------
# snapshot-isolated readers vs. a schema-changing writer
# ---------------------------------------------------------------------------

def make_schema_ops(seed: int, length: int):
    """A deterministic schema-change/update script (pure data)."""
    rng = random.Random(seed)
    ops = []
    added = []
    cls_count = 0
    attr_count = 0
    person_count = 0
    for _ in range(length):
        roll = rng.random()
        if roll < 0.40:
            attr = f"extra{attr_count}"
            attr_count += 1
            cls = rng.choice(["Student", "Staff"])
            added.append((cls, attr))
            ops.append(("add_attribute", attr, cls))
        elif roll < 0.55 and added:
            cls, attr = added.pop(rng.randrange(len(added)))
            ops.append(("delete_attribute", attr, cls))
        elif roll < 0.70:
            ops.append(("add_class", f"Extra{cls_count}"))
            cls_count += 1
        else:
            cls = rng.choice(["Person", "Student", "Staff"])
            values = {"name": f"p{person_count}", "age": rng.randrange(16, 60)}
            if cls == "Student":
                values["major"] = rng.choice(["cs", "math"])
            person_count += 1
            ops.append(("create", cls, values))
    return ops


def apply_schema_op(view, op) -> None:
    kind = op[0]
    if kind == "add_attribute":
        view.add_attribute(op[1], to=op[2], domain="str")
    elif kind == "delete_attribute":
        view.delete_attribute(op[1], from_=op[2])
    elif kind == "add_class":
        view.add_class(op[1])
    elif kind == "create":
        view[op[1]].create(**op[2])
    else:  # pragma: no cover - generator/apply mismatch
        raise AssertionError(f"unknown op {kind!r}")


def run_stress(n_readers: int, iterations: int, seed: int = 7) -> None:
    db = build_campus()
    sessions = db.sessions()
    ops = make_schema_ops(seed, iterations)
    stop = threading.Event()
    reads_done = [0] * n_readers
    versions_seen = [set() for _ in range(n_readers)]

    def make_reader(index):
        def reader():
            while not stop.is_set():
                with sessions.reader() as r:
                    # committed-whole: the pinned epoch passes its checksum
                    # and structural invariants on every single read
                    assert r.verify(), "torn schema epoch observed"
                    version = r.view_version("campus")
                    versions_seen[index].add(version)
                    names = r.class_names("campus")
                    total = 0
                    for cls in names:
                        total += r.count("campus", cls)
                    oids = r.extent_oids("campus", "Person")
                    assert len(oids) == len(set(oids)), "duplicate OIDs in extent"
                    reads_done[index] += 1

        return reader

    def writer():
        try:
            for op in ops:
                with sessions.writer() as w:
                    apply_schema_op(w.view("campus"), op)
        finally:
            stop.set()

    run_threads([make_reader(i) for i in range(n_readers)] + [writer])

    assert all(count > 0 for count in reads_done), "a reader thread starved"
    applied = db.views.current("campus").version
    for seen in versions_seen:
        assert all(v <= applied for v in seen)

    # the WAL suite's twin-equivalence checker: the concurrent run left the
    # database exactly where a single-threaded application of the same ops
    # would have — no lost updates, no torn structures
    twin = build_campus()
    twin_view = twin.view("campus")
    for op in ops:
        apply_schema_op(twin_view, op)
    assert state_difference(db, twin) is None

    # metrics internal consistency after the multithreaded run
    stats = db.stats()
    for value in stats.values():
        if isinstance(value, dict) and "buckets" in value:
            assert list(value["buckets"].values())[-1] == value["count"]
    assert stats["concurrency"]["published"] >= 1
    assert stats["concurrency"]["writes_admitted"] >= len(
        [op for op in ops if op[0] != "create"]
    )


class TestSnapshotIsolation:
    def test_reader_keeps_its_epoch_across_a_commit(self):
        db = build_campus()
        sessions = db.sessions()
        with sessions.writer() as w:
            w.view("campus")["Student"].create(name="Ada", major="cs")
        # readers pin without touching the latch: pin while a writer holds
        # the write side and the reader still completes immediately
        with sessions.writer() as w:
            with sessions.reader() as r:
                before = r.view_version("campus")
                count_before = r.count("campus", "Student")
                w.view("campus")["Student"].create(name="Bob", major="cs")
                w.view("campus").add_attribute("register", to="Student")
                assert r.view_version("campus") == before
                assert r.count("campus", "Student") == count_before
                assert r.verify()
                r.refresh()  # the commit republished: Bob is visible now
                assert r.view_version("campus") == before + 1
                assert r.count("campus", "Student") == count_before + 1

    def test_epoch_retires_on_last_reader(self):
        db = build_campus()
        sessions = db.sessions()
        r1 = sessions.reader().__enter__()
        first = r1.epoch
        with sessions.writer() as w:
            w.view("campus").add_attribute("x", to="Person")
        assert sessions.epochs.stats_dict()["retired"] == 0  # r1 still pinned
        r1.close()
        assert sessions.epochs.stats_dict()["retired"] == 1
        assert first.epoch_id != sessions.epochs.current.epoch_id

    def test_unknown_view_in_epoch(self):
        db = build_campus()
        sessions = db.sessions()
        from repro.errors import UnknownView

        with sessions.reader() as r:
            with pytest.raises(UnknownView):
                r.view_version("nope")

    def test_stress_small(self):
        """Tier-1-sized stress: 4 readers + a writer, 40 randomized ops."""
        run_stress(n_readers=4, iterations=40, seed=11)

    @pytest.mark.concurrency_stress
    def test_stress_full(self):
        """The ISSUE-4 acceptance harness: 8 readers + 1 writer looping
        randomized schema changes for >= 200 iterations."""
        run_stress(n_readers=8, iterations=220, seed=7)


def run_data_only_stress(n_readers: int, writes: int, seed: int = 5) -> None:
    """One writer issues only data updates (no schema change) while readers
    pin, verify and count on every read.  Each published epoch's counts
    are predicted by a model the writer keeps of its own writes, so a
    reader holding epoch ``e`` must see exactly ``model[e]``."""
    db = build_campus()
    view = db.view("campus")
    model_objects = {}  # oid -> (is_student, salary or None)
    for index in range(6):
        oid = view["Student"].create(name=f"s{index}", major="cs").oid
        model_objects[oid] = (True, None)
    sessions = db.sessions()
    with sessions.reader() as r:  # warm-up: every class cached and captured
        for cls in r.class_names("campus"):
            r.count("campus", cls)
    sessions.migration.drain()
    captures_before = {
        name: db.stats()["migration"][name]
        for name in ("touch_captures", "classes_sealed", "classes_captured")
    }
    rng = random.Random(seed)
    expected = {}  # epoch id -> {view class: count}
    expected_mutex = threading.Lock()
    stop = threading.Event()
    reads_done = [0] * n_readers

    def model_counts():
        students = sum(1 for is_student, _ in model_objects.values() if is_student)
        staff = sum(1 for _, salary in model_objects.values() if salary is not None)
        return {"Person": len(model_objects), "Student": students, "Staff": staff}

    def record_current():
        with expected_mutex:
            expected[sessions.epochs.current.epoch_id] = model_counts()

    def lookup(epoch_id):
        # the writer records an epoch's counts just after publishing it
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            with expected_mutex:
                if epoch_id in expected:
                    return expected[epoch_id]
            time.sleep(0.0005)
        raise AssertionError(f"no model for epoch {epoch_id}")

    record_current()

    def make_reader(index):
        def reader():
            while not stop.is_set():
                with sessions.reader() as r:
                    assert r.verify(), "torn epoch under data-only writes"
                    want = lookup(r.epoch.epoch_id)
                    got = {cls: r.count("campus", cls) for cls in want}
                    assert got == want, (r.epoch.epoch_id, got, want)
                    assert r.verify()
                    reads_done[index] += 1

        return reader

    def writer():
        try:
            for step in range(writes):
                with sessions.writer() as w:
                    handles = w.view("campus")
                    roll = rng.random()
                    if roll < 0.35 or len(model_objects) < 3:
                        oid = handles["Person"].create(name=f"p{step}").oid
                        model_objects[oid] = (False, None)
                    elif roll < 0.55:
                        salary = rng.randrange(1, 100)
                        oid = handles["Staff"].create(name=f"t{step}", salary=salary).oid
                        model_objects[oid] = (False, salary)
                    elif roll < 0.8:
                        oid = rng.choice(sorted(model_objects))
                        handles["Person"].get_object(oid).set("age", step)
                    else:
                        oid = rng.choice(sorted(model_objects))
                        handles["Person"].get_object(oid).delete()
                        del model_objects[oid]
                record_current()
        finally:
            stop.set()

    run_threads([make_reader(i) for i in range(n_readers)] + [writer])
    assert all(count > 0 for count in reads_done), "a reader thread starved"
    # data-only publishes adopt every extent: nothing is captured again
    stats = db.stats()["migration"]
    assert {name: stats[name] for name in captures_before} == captures_before


class TestDataOnlyWriterStress:
    def test_stress_small(self):
        """Tier-1-sized: 3 readers against 60 data-only writer blocks."""
        run_data_only_stress(n_readers=3, writes=60)

    @pytest.mark.concurrency_stress
    def test_stress_full(self):
        """8 readers check every read against the writer's model across
        400 data-only writer blocks."""
        run_data_only_stress(n_readers=8, writes=400, seed=9)


class TestLiveHandlesUnderSessions:
    def test_live_reads_are_latched_not_torn(self):
        """Session-less handles keep working after the session layer is
        attached — their reads go through the latch's read side."""
        db = build_campus()
        db.sessions()
        view = db.view("campus")
        base_version = view.version
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                names = view.class_names()
                for cls in names:
                    view[cls].count()

        def writer():
            try:
                for i in range(25):
                    view.add_attribute(f"live{i}", to="Person")
            finally:
                stop.set()

        run_threads([reader, reader, writer])
        assert db.views.current("campus").version == base_version + 25


class TestSessionAttribution:
    def test_labels_never_bleed_across_eight_readers(self):
        """Per-session metric attribution under concurrency stress: 8 reader
        threads each hold one session and perform a distinct, known number
        of reads while a writer churns the schema.  Afterwards every
        ``session_reads{session=...}`` child must equal exactly its thread's
        local count (no bleed between labels), and the family total must be
        the sum over the labelled children."""
        db = build_campus()
        sessions = db.sessions()
        n_readers = 8
        reads_planned = [60 + 11 * i for i in range(n_readers)]
        session_of = [None] * n_readers
        stop = threading.Event()

        def make_reader(index):
            def reader():
                with sessions.reader() as r:
                    session_of[index] = r.session_id
                    for step in range(reads_planned[index]):
                        r.count("campus", "Person")
                        if step % 20 == 19:
                            r.refresh()

            return reader

        def writer():
            try:
                for i in range(20):
                    with sessions.writer() as w:
                        w.view("campus").add_attribute(f"attr{i}", to="Staff")
            finally:
                stop.set()

        run_threads([make_reader(i) for i in range(n_readers)] + [writer])

        family = db.stats()["session_reads"]
        assert isinstance(family, dict), "expected a labelled family"
        assert len(set(session_of)) == n_readers, "session ids not unique"
        for index, session_id in enumerate(session_of):
            key = "{session=%s}" % session_id
            assert family.get(key) == reads_planned[index], (
                f"label bleed: {key} -> {family.get(key)}, "
                f"expected {reads_planned[index]}"
            )
        assert sum(family.values()) == sum(reads_planned)

        # snapshot pinning is attributed the same way: one initial pin per
        # session plus one per refresh
        snapshots = db.stats()["session_snapshots"]
        for index, session_id in enumerate(session_of):
            expected = 1 + reads_planned[index] // 20
            assert snapshots["{session=%s}" % session_id] == expected
