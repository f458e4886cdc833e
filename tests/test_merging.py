"""Section 7: version merging using views (figure 16)."""

import pytest

from repro.errors import MergeConflict
from repro.workloads.university import build_figure3_database


@pytest.fixture()
def diverged():
    """Figure 16's setting: VS.0 assigned to two users, each evolves it."""
    db, _ = build_figure3_database()
    vs1 = db.create_view("VS1u", ["Person", "Student"], closure="ignore")
    vs2 = db.create_view("VS2u", ["Person", "Student"], closure="ignore")
    vs1.add_attribute("register", to="Student", domain="str")
    vs2.add_attribute("student_id", to="Student", domain="int")
    return db, vs1, vs2


class TestFigure16:
    def test_merge_produces_new_view(self, diverged):
        db, vs1, vs2 = diverged
        merged = db.merge_views("VS1u", "VS2u", "VS3")
        assert merged.version == 1
        assert "VS3" in db.view_names()

    def test_identical_person_classes_unified(self, diverged):
        """Person of VS.1 and Person of VS.2 correspond to the same global
        class, so the merged view holds it once."""
        db, vs1, vs2 = diverged
        merged = db.merge_views("VS1u", "VS2u", "VS3")
        people = [c for c in merged.class_names() if c.startswith("Person")]
        assert people == ["Person"]

    def test_distinct_students_disambiguated_by_version(self, diverged):
        """Two same-named but distinct Student refinements coexist with
        version-number suffixes (figure 16's resolution)."""
        db, vs1, vs2 = diverged
        merged = db.merge_views("VS1u", "VS2u", "VS3")
        students = sorted(c for c in merged.class_names() if "Student" in c)
        assert len(students) == 2
        # one from each source view; the second carries a version suffix
        suffixed = [c for c in students if "_v" in c]
        assert len(suffixed) == 1

    def test_both_attribute_sets_usable_through_merge(self, diverged):
        db, vs1, vs2 = diverged
        merged = db.merge_views("VS1u", "VS2u", "VS3")
        students = sorted(c for c in merged.class_names() if "Student" in c)
        names = {c: set(merged[c].property_names()) for c in students}
        registers = [c for c, props in names.items() if "register" in props]
        ids = [c for c, props in names.items() if "student_id" in props]
        assert len(registers) == 1 and len(ids) == 1
        assert registers != ids

    def test_shared_objects_visible_through_both_student_classes(self, diverged):
        """No instance duplication: one object shows in both refinements."""
        db, vs1, vs2 = diverged
        obj = vs1["Student"].create(name="Ada", register="full")
        vs2["Student"].get_object(obj.oid)["student_id"] = 42
        merged = db.merge_views("VS1u", "VS2u", "VS3")
        students = sorted(c for c in merged.class_names() if "Student" in c)
        for cls in students:
            assert obj.oid in {h.oid for h in merged[cls].extent()}
        # each attribute readable through its refinement
        by_props = {
            cls: merged[cls].get_object(obj.oid).values() for cls in students
        }
        flat = {k: v for values in by_props.values() for k, v in values.items()}
        assert flat["register"] == "full"
        assert flat["student_id"] == 42

    def test_merge_historic_versions(self, diverged):
        """Explicit version numbers merge historical views, not current."""
        db, vs1, vs2 = diverged
        vs1.add_attribute("extra", to="Student", domain="int")  # vs1 -> v3
        merged = db.merge_views(
            "VS1u", "VS2u", "VS3", first_version=2, second_version=2
        )
        props = set()
        for cls in merged.class_names():
            props |= set(merged[cls].property_names())
        assert "register" in props and "extra" not in props

    def test_merge_target_name_collision_rejected(self, diverged):
        db, vs1, vs2 = diverged
        db.merge_views("VS1u", "VS2u", "VS3")
        with pytest.raises(MergeConflict):
            db.merge_views("VS1u", "VS2u", "VS3")

    def test_source_views_unaffected_by_merge(self, diverged):
        db, vs1, vs2 = diverged
        v1_before, v2_before = vs1.version, vs2.version
        db.merge_views("VS1u", "VS2u", "VS3")
        assert (vs1.version, vs2.version) == (v1_before, v2_before)

    def test_merged_view_hierarchy_generated(self, diverged):
        db, vs1, vs2 = diverged
        merged = db.merge_views("VS1u", "VS2u", "VS3")
        edges = merged.edges()
        students = sorted(c for c in merged.class_names() if "Student" in c)
        for cls in students:
            assert ("Person", cls) in edges


def test_successor_drops_property_renames_of_removed_classes():
    """A view version keeps no property renames for a view class it no
    longer has.  Renaming a property of K4 and then dropping K4 with
    ``delete_class_2`` used to leave ``{'K4': {'r14': 'a9'}}`` behind, and
    the next merge resolved that stale key and raised ``UnknownClass``
    (corpus entry ``merge-stale-property-rename``)."""
    from repro.core.database import TseDatabase
    from repro.schema.properties import Attribute

    db = TseDatabase()
    db.define_class("K1", [Attribute("a1", default=0)])
    db.define_class("K3", [Attribute("a9", default=1)], inherits_from=("K1",))
    db.define_class("K4", [Attribute("a10")], inherits_from=("K3",))
    view = db.create_view("V", ["K1", "K3", "K4"], closure="ignore")
    db.create_view("W", ["K1"], closure="ignore")
    view.rename_property("K4", "a9", "r14")
    assert db.views.current("V").property_renames == {"K4": {"r14": "a9"}}
    view.delete_class_2("K4")
    current = db.views.current("V")
    assert current.class_names() == ["K1", "K3"]
    assert current.property_renames == {}
    merged = db.merge_views("V", "W", "M")
    assert "K3" in merged.class_names()
