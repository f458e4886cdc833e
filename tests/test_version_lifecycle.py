"""Version-lifecycle regressions: retirement durability and §7 merge rules.

Unit-level pins for the three bugs the fleet-scenario fuzzing campaign
found (each also has a ddmin'd corpus entry under
``tests/corpus/differential/``):

* **retire-survives-checkpoint** — retirement state was dropped by both
  savepoint snapshots and WAL checkpoints, so a restore/recovery silently
  resurrected writable pins;
* **merge-dedup-collapse** — re-applying an evolution to a merge-created
  view dedups the replacement derivation into the co-selected twin class,
  collapsing two view classes into one that keeps the *replaced* display
  name;
* **merge-claim-order-suffix** — display names in a merge are claimed in
  sorted *global*-name order, and a double collision falls through the
  ``_v<N>`` suffix to the indexed ``_v<N>_2`` form.

Plus the pinned-reader × definevc-then-merge × lazy-migration interaction
the fleet scenarios lean on: a write arriving through an *old* pinned view
version must propagate into a newer merged view.
"""

from __future__ import annotations

import pytest

from repro.concurrency.sessions import SessionManager
from repro.core.database import TseDatabase
from repro.errors import RetiredViewVersion, ViewError
from repro.persistence import database_from_dict, database_to_dict
from repro.schema.properties import Attribute


def _int_attr(name: str, default: int = 0) -> Attribute:
    return Attribute(name, domain="int", required=False, default=default)


# ---------------------------------------------------------------------------
# retirement: introspection + durability
# ---------------------------------------------------------------------------


@pytest.fixture()
def retired_world(tmp_path):
    """A WAL-backed database with V at v2 and v1 retired."""
    db = TseDatabase()
    db.enable_wal(tmp_path / "wal")
    db.define_class("A", properties=(_int_attr("a0"),))
    view = db.create_view("V", ["A"], closure="ignore")
    view.add_attribute("x", to="A", domain="int", default=1)
    db.retire_view_version("V", 1)
    return db, tmp_path / "wal"


class TestRetirementLifecycle:
    def test_versions_inventory_rows(self, retired_world):
        db, _ = retired_world
        assert db.views.history.versions("V") == [
            {"view": "V", "version": 1, "current": False, "retired": True},
            {"view": "V", "version": 2, "current": True, "retired": False},
        ]

    def test_live_pins_exclude_retired(self, retired_world):
        db, _ = retired_world
        assert [row["version"] for row in db.views.history.live_pins("V")] == [2]

    def test_retired_pin_write_raises_typed_error(self, retired_world):
        db, _ = retired_world
        pinned = db.view("V").pin(1)
        with pytest.raises(RetiredViewVersion):
            pinned["A"].create(a0=3)

    def test_retired_pin_read_stays_legal(self, retired_world):
        db, _ = retired_world
        db.view("V")["A"].create(a0=3)
        dump = db.view("V").pin(1).dump()
        assert dump["version"] == 1
        assert dump["by_class"]["A"]["count"] == 1

    def test_current_version_never_retires(self, retired_world):
        db, _ = retired_world
        with pytest.raises(ViewError):
            db.retire_view_version("V", 2)

    def test_double_retire_refused(self, retired_world):
        db, _ = retired_world
        with pytest.raises(ViewError):
            db.retire_view_version("V", 1)

    def test_retirement_survives_aborted_transaction(self, retired_world):
        """Savepoint snapshots must carry the retired set: an aborted
        transaction used to restore a pre-retirement view of the world."""
        db, _ = retired_world

        class Boom(Exception):
            pass

        with pytest.raises(Boom):
            with db.transaction():
                db.view("V")["A"].create(a0=9)
                raise Boom()
        assert db.views.history.is_retired("V", 1)

    def test_retirement_survives_wal_replay(self, retired_world):
        db, wal_dir = retired_world
        recovered = TseDatabase.recover(wal_dir)
        assert recovered.views.history.is_retired("V", 1)

    def test_retirement_survives_checkpoint_recover(self, retired_world):
        """The original bug: the checkpoint document forgot ``retired_views``
        and recovery from it resurrected writable pins."""
        db, wal_dir = retired_world
        db.checkpoint()  # truncates the WAL — the checkpoint must carry it
        recovered = TseDatabase.recover(wal_dir)
        assert recovered.views.history.is_retired("V", 1)
        with pytest.raises(RetiredViewVersion):
            recovered.view("V").pin(1)["A"].create(a0=3)

    def test_retirement_survives_persistence_roundtrip(self, retired_world):
        db, _ = retired_world
        twin = database_from_dict(database_to_dict(db))
        assert twin.views.history.retired_map() == {"V": [1]}


# ---------------------------------------------------------------------------
# §7 merging: dedup collapse + claim order
# ---------------------------------------------------------------------------


class TestMergeDedupCollapse:
    @pytest.fixture()
    def self_merged(self):
        """``MW`` co-selects v1 and v2 of the same view — the only way a
        view can hold a class and its own evolved twin side by side."""
        db = TseDatabase()
        db.define_class("A", properties=(_int_attr("a0"),))
        db.define_class("B", inherits_from=("A",))
        view = db.create_view("W", ["A", "B"], closure="ignore")
        view.add_attribute("x", to="A", domain="int", default=1)
        db.merge_views("W", "W", "MW", first_version=1, second_version=2)
        return db

    def test_twins_coexist_before_reevolution(self, self_merged):
        assert self_merged.view("MW").class_names() == ["A", "A_v2", "B", "B_v2"]

    def test_reevolution_collapses_twins(self, self_merged):
        """Re-applying the evolution that split the twins makes the
        classifier dedup each replacement into its co-selected twin; the
        survivor keeps the *replaced* display name, and the suffixed twin
        entry vanishes instead of lingering as a duplicate."""
        self_merged.view("MW").add_attribute("x", to="A", domain="int", default=1)
        merged = self_merged.view("MW")
        assert merged.class_names() == ["A", "B"]
        # the survivors ARE the evolved globals: both carry the new attribute
        for cls in ("A", "B"):
            assert "x" in merged[cls].property_names()

    def test_collapse_preserves_objects(self, self_merged):
        oid = self_merged.view("W")["B"].create(a0=7).oid
        self_merged.view("MW").add_attribute("x", to="A", domain="int", default=1)
        obj = self_merged.view("MW")["B"].get_object(oid)
        assert obj["a0"] == 7 and obj["x"] == 1


class TestMergeClaimOrder:
    def test_suffix_falls_through_to_indexed_form(self):
        """Three same-named distinct refinements in one merge chain: the
        second collision may not reuse ``K_v2`` and must take ``K_v2_2``."""
        db = TseDatabase()
        db.define_class("K", properties=(_int_attr("base"),))
        for view_name in ("V1", "V2", "V3"):
            db.create_view(view_name, ["K"], closure="ignore")
        db.view("V1").add_attribute("x", to="K", domain="int")
        db.view("V2").add_attribute("y", to="K", domain="int")
        merged = db.merge_views("V1", "V2", "M1")
        assert merged.class_names() == ["K", "K_v2"]
        db.view("V3").add_attribute("z", to="K", domain="int")
        doubly = db.merge_views("M1", "V3", "M2")
        assert doubly.class_names() == ["K", "K_v2", "K_v2_2"]

    def test_suffixed_classes_keep_distinct_properties(self):
        db = TseDatabase()
        db.define_class("K", properties=(_int_attr("base"),))
        for view_name in ("V1", "V2"):
            db.create_view(view_name, ["K"], closure="ignore")
        db.view("V1").add_attribute("x", to="K", domain="int")
        db.view("V2").add_attribute("y", to="K", domain="int")
        merged = db.merge_views("V1", "V2", "M1")
        assert "x" in merged["K"].property_names()
        assert "y" in merged["K_v2"].property_names()
        assert "y" not in merged["K"].property_names()


# ---------------------------------------------------------------------------
# pinned reader × definevc-then-merge × lazy migration
# ---------------------------------------------------------------------------


class TestPinnedReaderAcrossMerge:
    @pytest.fixture()
    def rolled_world(self):
        """V1 evolves while a reader and a pinned writer stay on v1, then
        V1 and V2 merge — the fleet-scenario core in miniature."""
        db = TseDatabase()
        db.define_class("A", properties=(_int_attr("a0"),))
        db.define_class("B", inherits_from=("A",))
        db.create_view("V1", ["A", "B"], closure="ignore")
        db.create_view("V2", ["A", "B"], closure="ignore")
        return db, SessionManager(db)

    def test_old_view_write_propagates_to_merged_view(self, rolled_world):
        db, sessions = rolled_world
        old = db.view("V1").pin(1)
        with sessions.reader() as reader:
            db.view("V1").add_attribute("x", to="A", domain="int", default=1)
            merged = db.merge_views("V1", "V2", "M")
            # the laggard app writes through its pinned v1 handle...
            oid = old["B"].create(a0=7).oid
            # ...the pinned reader keeps its pre-evolution world...
            assert reader.view_version("V1") == 1
            assert reader.class_names("V1") == ["A", "B"]
        # ...and the object surfaces through the *merged* view, under both
        # the evolved class (new attribute defaulted in) and the old twin
        by_class = merged.dump()["by_class"]
        assert by_class["B"]["objects"][oid] == {"a0": 7, "x": 1}
        assert by_class["B_v1"]["objects"][oid] == {"a0": 7}

    def test_refreshed_reader_sees_evolved_schema(self, rolled_world):
        db, sessions = rolled_world
        with sessions.reader() as reader:
            db.view("V1").add_attribute("x", to="A", domain="int", default=1)
            assert reader.view_version("V1") == 1
            fresh = reader.refresh()
            assert fresh.view_version("V1") == 2
