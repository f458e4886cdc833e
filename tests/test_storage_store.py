"""Unit tests for the object store (slices, scans, snapshots)."""

import json

import pytest

from repro.errors import SliceNotFound
from repro.storage.oid import Oid
from repro.storage.store import ObjectStore


class TestSliceLifecycle:
    def test_create_read_roundtrip(self):
        store = ObjectStore()
        slice_id = store.create_slice("Student", {"name": "Ada"})
        assert store.read_slice(slice_id) == {"name": "Ada"}

    def test_put_and_get_value(self):
        store = ObjectStore()
        slice_id = store.create_slice("Student")
        store.put_value(slice_id, "age", 21)
        assert store.get_value(slice_id, "age") == 21

    def test_get_value_default(self):
        store = ObjectStore()
        slice_id = store.create_slice("Student")
        assert store.get_value(slice_id, "missing", default="d") == "d"

    def test_has_value(self):
        store = ObjectStore()
        slice_id = store.create_slice("Student", {"a": None})
        assert store.has_value(slice_id, "a")
        assert not store.has_value(slice_id, "b")

    def test_remove_value(self):
        store = ObjectStore()
        slice_id = store.create_slice("Student", {"a": 1})
        store.remove_value(slice_id, "a")
        assert not store.has_value(slice_id, "a")
        store.remove_value(slice_id, "a")  # idempotent

    def test_drop_slice(self):
        store = ObjectStore()
        slice_id = store.create_slice("Student")
        store.drop_slice(slice_id)
        assert not store.slice_exists(slice_id)
        with pytest.raises(SliceNotFound):
            store.read_slice(slice_id)

    def test_read_returns_copy_not_alias(self):
        store = ObjectStore()
        slice_id = store.create_slice("S", {"xs": 1})
        payload = store.read_slice(slice_id)
        payload["xs"] = 999
        assert store.get_value(slice_id, "xs") == 1

    def test_unknown_slice_raises(self):
        store = ObjectStore()
        with pytest.raises(SliceNotFound):
            store.get_value(Oid(4242), "a")


class TestScans:
    def test_scan_cluster_returns_all_members(self):
        store = ObjectStore()
        ids = [store.create_slice("TA", {"i": i}) for i in range(5)]
        store.create_slice("Grad", {"i": 99})
        scanned = dict(store.scan_cluster("TA"))
        assert set(scanned) == set(ids)
        assert sorted(v["i"] for v in scanned.values()) == [0, 1, 2, 3, 4]

    def test_scan_empty_cluster(self):
        store = ObjectStore()
        assert list(store.scan_cluster("Nobody")) == []

    def test_cluster_sizes(self):
        store = ObjectStore()
        for _ in range(3):
            store.create_slice("A")
        store.create_slice("B")
        assert store.cluster_sizes() == {"A": 3, "B": 1}

    def test_clustered_scan_cheaper_than_scattered(self):
        """Table 1's clustering claim at store level: scanning one class's
        slices costs about ``n / slots_per_page`` page reads."""
        store = ObjectStore(slots_per_page=16, cache_pages=2)
        for i in range(64):
            store.create_slice("Hot", {"i": i})
        store.drop_cache()
        store.reset_stats()
        list(store.scan_cluster("Hot"))
        assert store.stats.page_reads == 4  # 64 slices / 16 per page


def _json_roundtrip(store: ObjectStore) -> ObjectStore:
    """Rebuild ``store`` from its snapshot after a trip through JSON text,
    as persistence and WAL checkpoints do."""
    loaded = ObjectStore()
    loaded.load_state(json.loads(json.dumps(store.dump_state())))
    return loaded


class TestSnapshots:
    def test_snapshot_roundtrip(self):
        store = ObjectStore()
        a = store.create_slice("A", {"x": 1})
        b = store.create_slice("B", {"y": "two"})
        loaded = _json_roundtrip(store)
        assert loaded.read_slice(a) == {"x": 1}
        assert loaded.read_slice(b) == {"y": "two"}

    def test_snapshot_charges_each_page_once(self):
        store = ObjectStore(slots_per_page=16, cache_pages=2)
        for i in range(64):
            store.create_slice("Hot", {"i": i})
        store.drop_cache()
        store.reset_stats()
        snapshot = store.snapshot()
        assert (store.stats.page_reads, store.stats.cache_hits) == (4, 0)
        loaded = ObjectStore(slots_per_page=16, cache_pages=2)
        loaded.load_state({"store": snapshot})
        assert loaded.stats.page_writes == 4
        assert loaded.cluster_sizes() == {"Hot": 64}

    def test_snapshot_preserves_oid_continuity(self):
        store = ObjectStore()
        existing = store.create_slice("A")
        loaded = _json_roundtrip(store)
        fresh = loaded.create_slice("A")
        assert fresh != existing

    def test_snapshot_encodes_oid_references(self):
        store = ObjectStore()
        target = store.allocate_oid()
        holder = store.create_slice("A", {"ref": target})
        loaded = _json_roundtrip(store)
        assert loaded.get_value(holder, "ref") == target

    def test_oids_allocated_counter(self):
        store = ObjectStore()
        store.allocate_oid()
        store.create_slice("A")
        assert store.oids_allocated == 2
        assert store.live_slice_count == 1
