"""Property-based tests (hypothesis) for the system's core invariants.

Four families:

1. **Schema invariants under random evolution** — after any sequence of
   primitive schema changes, the global DAG is acyclic, rooted, and
   type-monotone, and every is-a edge is extent-sound.
2. **Theorem 1** — every class reachable by the object algebra is updatable:
   generic creations land in the class and in its origin classes.
3. **Transparency** — a random change on one view leaves every other view's
   observable state bit-identical.
4. **Prover soundness** — whatever the definitional extent prover claims is
   confirmed by instance-level evaluation.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _seedopt import replay_hint, seed_strategy

from repro.core.database import TseDatabase
from repro.baselines.direct import view_snapshot
from repro.schema.classes import ROOT_CLASS
from repro.schema.extents import ExtentRelations
from repro.workloads.generator import WorkloadGenerator

COMMON = dict(
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def assert_schema_invariants(db: TseDatabase, seed=None) -> None:
    schema = db.schema
    schema.validate()  # acyclic, rooted, type-monotone
    # every is-a edge is extent-sound on actual instances
    for sup in schema.class_names():
        for sub in schema.direct_subs(sup):
            assert db.evaluator.extent(sub) <= db.evaluator.extent(sup), (
                f"{sub} not within {sup}"
                + (f" — seed {seed} {replay_hint(seed)}" if seed is not None else "")
            )


class TestSchemaInvariants:
    @settings(**COMMON)
    @given(seed=seed_strategy(0, 10_000), n_changes=st.integers(1, 8))
    def test_invariants_hold_under_random_evolution(self, seed, n_changes):
        generator = WorkloadGenerator(seed)
        db, view = generator.build_database(n_classes=5, n_objects=8)
        generator.run_trace(db, view, n_changes)
        assert_schema_invariants(db, seed=seed)

    @settings(**COMMON)
    @given(seed=seed_strategy(0, 10_000), n_changes=st.integers(1, 8))
    def test_view_hierarchy_is_subgraph_of_subsumption(self, seed, n_changes):
        generator = WorkloadGenerator(seed)
        db, view = generator.build_database(n_classes=5, n_objects=6)
        generator.run_trace(db, view, n_changes)
        schema = view.schema
        for sup, sub in schema.edges:
            assert db.evaluator.extent(sub) <= db.evaluator.extent(sup), (
                f"seed {seed}: edge ({sup}, {sub}) {replay_hint(seed)}"
            )
            assert set(db.schema.type_of(sup)) <= set(db.schema.type_of(sub)), (
                f"seed {seed}: edge ({sup}, {sub}) {replay_hint(seed)}"
            )


class TestTheorem1:
    @settings(**COMMON)
    @given(seed=seed_strategy(0, 10_000), n_changes=st.integers(1, 6))
    def test_every_view_class_stays_updatable(self, seed, n_changes):
        generator = WorkloadGenerator(seed)
        db, view = generator.build_database(n_classes=4, n_objects=5)
        generator.run_trace(db, view, n_changes)
        for view_class in view.class_names():
            global_name = view.schema.global_name_of(view_class)
            assert db.engine.is_updatable(global_name), (
                f"seed {seed}: {view_class} ({global_name}) "
                f"{replay_hint(seed)}"
            )

    @settings(**COMMON)
    @given(seed=seed_strategy(0, 10_000), n_changes=st.integers(1, 5))
    def test_create_lands_in_class_and_origins(self, seed, n_changes):
        generator = WorkloadGenerator(seed)
        db, view = generator.build_database(n_classes=4, n_objects=5)
        generator.run_trace(db, view, n_changes)
        for view_class in view.class_names():
            global_name = view.schema.global_name_of(view_class)
            try:
                handle = view[view_class].create()
            except Exception:
                continue  # e.g. a select class whose predicate rejects blanks
            assert handle.oid in db.evaluator.extent(global_name)
            origins = db.engine.origin_classes(global_name)
            targets = db.engine.insertion_targets(global_name)
            assert targets <= origins
            assert any(
                handle.oid in db.evaluator.extent(origin) for origin in targets
            )


class TestTransparency:
    @settings(**COMMON)
    @given(seed=seed_strategy(0, 10_000), n_changes=st.integers(1, 6))
    def test_random_changes_never_touch_other_views(self, seed, n_changes):
        generator = WorkloadGenerator(seed)
        db, view = generator.build_database(n_classes=5, n_objects=8)
        bystander = db.create_view(
            "bystander", list(view.schema.selected), closure="ignore"
        )
        baseline = view_snapshot(db, bystander)
        generator.run_trace(db, view, n_changes)
        assert view_snapshot(db, bystander) == baseline, (
            f"seed {seed} {replay_hint(seed)}"
        )
        assert bystander.version == 1, f"seed {seed} {replay_hint(seed)}"


class TestProverSoundness:
    @settings(**COMMON)
    @given(seed=seed_strategy(0, 10_000), n_changes=st.integers(1, 6))
    def test_proved_subsets_hold_on_instances(self, seed, n_changes):
        generator = WorkloadGenerator(seed)
        db, view = generator.build_database(n_classes=4, n_objects=8)
        generator.run_trace(db, view, n_changes)
        relations = ExtentRelations(db.schema)
        names = [n for n in db.schema.class_names() if n != ROOT_CLASS]
        for sub in names:
            for sup in names:
                if relations.subset(sub, sup):
                    assert db.evaluator.extent(sub) <= db.evaluator.extent(sup), (
                        f"seed {seed}: proved {sub} <= {sup} "
                        f"{replay_hint(seed)}"
                    )


class TestPersistenceRoundTrip:
    @settings(**COMMON)
    @given(seed=seed_strategy(0, 10_000), n_changes=st.integers(1, 6))
    def test_save_load_preserves_every_view(self, seed, n_changes, tmp_path_factory):
        """After arbitrary evolution, a save/load round trip leaves every
        view's observable state (types + extents) identical."""
        from repro.core.database import TseDatabase
        from repro.persistence import database_from_dict, database_to_dict

        generator = WorkloadGenerator(seed)
        db, view = generator.build_database(n_classes=4, n_objects=6)
        generator.run_trace(db, view, n_changes)
        loaded = database_from_dict(database_to_dict(db))
        for name in db.view_names():
            assert view_snapshot(db, db.view(name)) == view_snapshot(
                loaded, loaded.view(name)
            ), f"seed {seed}: view {name} {replay_hint(seed)}"
        loaded.schema.validate()


class TestStorageRoundTrip:
    @settings(**COMMON)
    @given(
        payloads=st.lists(
            st.dictionaries(
                st.text(
                    alphabet="abcdefgh", min_size=1, max_size=4
                ),
                st.one_of(
                    st.integers(-1000, 1000), st.text(max_size=8), st.booleans()
                ),
                max_size=4,
            ),
            max_size=8,
        )
    )
    def test_store_snapshot_roundtrip(self, payloads, tmp_path_factory):
        from repro.storage.store import ObjectStore

        store = ObjectStore()
        ids = [store.create_slice(f"C{i % 3}", payload) for i, payload in enumerate(payloads)]
        rebuilt = ObjectStore()
        rebuilt.load_state(store.dump_state())
        for slice_id, payload in zip(ids, payloads):
            assert rebuilt.read_slice(slice_id) == payload
