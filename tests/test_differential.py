"""Differential checking: the real TSE pipeline vs the reference oracle.

Four layers of coverage, all built on :mod:`repro.checking`:

* **Corpus replay** — every JSON entry under ``tests/corpus/differential/``
  is a historical divergence (or a near-miss regression scenario) that must
  now replay without any disagreement.  This is the tier-1 safety net: the
  entries encode the five real bugs the fuzzer found, so any reintroduction
  fails fast under plain ``pytest``.  Each entry's ``(step, op, outcome)``
  stream is pinned under ``outcomes/`` too, so an entry cannot quietly stop
  exercising what it was archived for.
* **Short fuzz** — a small seeded sweep that runs in a few seconds and is
  cheap enough for the default lane.
* **Mutation smoke** — injects a known bug (forcing
  ``InstancePool.remove_membership`` to drop slices) and asserts the whole
  detect → minimize → corpus → replay toolchain catches it and shrinks the
  failure to a handful of commands.  This guards the *checker*, not the
  system: a harness that cannot see a planted bug proves nothing.
* **Deep fuzz** — ``@pytest.mark.fuzz``: hundreds of sequences for the
  scheduled CI lane (``FUZZ_SEQUENCES`` overrides the count).

Plus unit regressions pinning the five real-system bugs the differential
harness caught (see each test's docstring for the original finding).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.checking.commands import (
    CommandGenerator,
    command_from_dict,
    command_to_dict,
)
from repro.checking.minimize import (
    load_corpus_entry,
    minimize_commands,
    save_corpus_entry,
)
from repro.checking.runner import (
    DifferentialHarness,
    DifferentialMachine,
    Divergence,
    run_commands,
    run_sequence,
)
from repro.core.database import TseDatabase
from repro.errors import TseError
from repro.objectmodel import slicing
from repro.schema.properties import Attribute

CORPUS_DIR = Path(__file__).parent / "corpus" / "differential"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))
#: per corpus entry, the ``[step, op, outcome]`` list its replay produces
OUTCOMES_DIR = CORPUS_DIR / "outcomes"


# ---------------------------------------------------------------------------
# corpus replay (tier-1)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "corpus_path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES]
)
def test_corpus_replays_clean(corpus_path):
    """Every archived divergence scenario replays without disagreement,
    and step for step with the outcome stream pinned under ``outcomes/``:
    a resolver change that silently turns applied steps into agreed skips
    would otherwise still replay clean."""
    commands, meta = load_corpus_entry(corpus_path)
    harness = DifferentialHarness()
    try:
        try:
            for command in commands:
                harness.apply(command)
        except Divergence as divergence:
            pytest.fail(
                f"corpus entry {corpus_path.name} (note: {meta.get('note', '')!r}) "
                f"diverged again: {divergence}"
            )
        outcomes = [list(outcome) for outcome in harness.outcomes]
    finally:
        harness.close()
    golden = json.loads((OUTCOMES_DIR / corpus_path.name).read_text())
    assert outcomes == golden, f"{corpus_path.name}: outcome stream changed"


def test_corpus_is_nonempty():
    assert len(CORPUS_FILES) >= 5, "regression corpus went missing"


# ---------------------------------------------------------------------------
# short fuzz (tier-1)
# ---------------------------------------------------------------------------


def test_short_fuzz_sweep(forced_seed):
    """A quick seeded sweep; any divergence reports its replay seed.

    Pending epoch extents drain through ``backfill_step`` commands and
    reader first-touch captures, so the sweep also checks that lazy
    migration leaves the observable surface untouched."""
    seeds = [forced_seed] if forced_seed is not None else range(25)
    for seed in seeds:
        commands, divergence = run_sequence(seed, length=15)
        assert divergence is None, (
            f"seed {seed} diverged (replay with run_sequence({seed}, "
            f"length=15)): {divergence}"
        )


# ---------------------------------------------------------------------------
# Hypothesis stateful exploration (tier-1, small budget)
# ---------------------------------------------------------------------------

if DifferentialMachine is not None:
    from hypothesis import HealthCheck, settings

    DifferentialStateTest = DifferentialMachine.TestCase
    DifferentialStateTest.settings = settings(
        max_examples=15,
        stateful_step_count=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
else:  # pragma: no cover - hypothesis is an optional dep
    DifferentialStateTest = None


# ---------------------------------------------------------------------------
# mutation smoke: the toolchain must catch a planted bug
# ---------------------------------------------------------------------------


def _plant_slice_dropping_bug(monkeypatch):
    """Reintroduce the historical slicing bug: membership removal always
    destroys the storage slice, losing values held for ancestor classes."""
    original = slicing.InstancePool.remove_membership

    def mutated(self, oid, class_name, keep_slice=False):
        return original(self, oid, class_name, keep_slice=False)

    monkeypatch.setattr(slicing.InstancePool, "remove_membership", mutated)


def test_mutation_smoke_detect_minimize_replay(monkeypatch, tmp_path):
    """End-to-end checker validation: plant a bug, find it by fuzzing,
    shrink the failure to <= 10 commands, archive it as a corpus entry,
    and show the entry diverges with the bug but replays clean without."""
    _plant_slice_dropping_bug(monkeypatch)

    found_seed, commands, divergence = None, None, None
    for seed in [5] + [s for s in range(41) if s != 5]:
        commands, divergence = run_sequence(seed, length=25)
        if divergence is not None:
            found_seed = seed
            break
    assert divergence is not None, (
        "the planted slice-dropping bug went undetected across 41 seeds — "
        "the differential harness lost its teeth"
    )

    small, small_divergence = minimize_commands(commands)
    assert len(small) <= 10, (
        f"ddmin left {len(small)} commands (> 10) for the planted bug"
    )
    assert small_divergence is not None
    assert small_divergence.signature() == divergence.signature()

    path = save_corpus_entry(
        tmp_path,
        "mutation-smoke",
        small,
        divergence=small_divergence,
        seed=found_seed,
        note="planted slice-dropping bug (mutation smoke)",
    )
    payload = json.loads(Path(path).read_text())
    assert payload["format"] == 1

    replayed, meta = load_corpus_entry(path)
    assert meta["seed"] == found_seed
    assert run_commands(replayed) is not None, "corpus replay lost the bug"

    monkeypatch.undo()


def test_divergence_ships_replayable_dossier(monkeypatch, tmp_path):
    """A forced divergence produces a flight-recorder crash dossier whose
    embedded command sequence replays the finding byte-for-byte."""
    _plant_slice_dropping_bug(monkeypatch)

    dossier_dir = tmp_path / "dossiers"
    divergence, harness = None, None
    for seed in [5] + [s for s in range(41) if s != 5]:
        harness = DifferentialHarness(dossier_dir=dossier_dir)
        try:
            for command in CommandGenerator(seed).generate(25):
                harness.apply(command)
        except Divergence as exc:
            divergence = exc
            break
        finally:
            dossier_path = harness.last_dossier
            harness.close()
    assert divergence is not None, "planted bug went undetected"

    # the harness wrote exactly one dossier, at the moment of divergence
    assert dossier_path is not None and dossier_path.exists()
    assert list(dossier_dir.glob("dossier-divergence-*.json")) == [dossier_path]

    payload = json.loads(dossier_path.read_text())
    assert payload["reason"] == "divergence"
    # forensics: the event stream saw the divergence, spans/metrics rode along
    assert any(e["kind"] == "divergence" for e in payload["events"])
    assert payload["extra"]["divergence"]["kind"] == divergence.kind
    assert payload["extra"]["divergence"]["op"] == divergence.op
    assert "metrics" in payload and "open_spans" in payload
    assert "schema_generation" in payload["state"]

    # replayability: the embedded commands reproduce the same divergence
    replayed = [command_from_dict(c) for c in payload["extra"]["commands"]]
    rediscovered = run_commands(replayed)
    assert rediscovered is not None, "dossier commands lost the bug"
    assert rediscovered.signature() == divergence.signature()

    # ... and replay clean once the planted bug is removed
    monkeypatch.undo()
    assert run_commands(replayed) is None
    assert run_commands(replayed) is None, (
        "minimized sequence still diverges after removing the planted bug — "
        "it shrank onto an unrelated (real) failure"
    )


# ---------------------------------------------------------------------------
# deep fuzz (scheduled CI lane)
# ---------------------------------------------------------------------------


@pytest.mark.fuzz
def test_deep_fuzz_sweep():
    """Hundreds of random sequences; controlled by ``FUZZ_SEQUENCES``.

    Extents are captured lazily, with ``backfill_step`` commands
    interleaved, so every sequence also checks that migration is
    observably invisible."""
    n = int(os.environ.get("FUZZ_SEQUENCES", "500"))
    for seed in range(n):
        commands, divergence = run_sequence(seed, length=30)
        if divergence is not None:
            small, _ = minimize_commands(commands)
            serialized = json.dumps(
                [command_to_dict(c) for c in small], indent=2
            )
            pytest.fail(
                f"seed {seed} diverged: {divergence}\n"
                f"minimized repro ({len(small)} commands):\n{serialized}"
            )


# ---------------------------------------------------------------------------
# unit regressions for the five real bugs the fuzzer found
# ---------------------------------------------------------------------------


def _db_with_hierarchy():
    """K1(a default 0) with subclasses K2, K3; one view over all three."""
    db = TseDatabase()
    db.define_class("K1", [Attribute(name="a", default=0)])
    db.define_class("K2", inherits_from=["K1"])
    db.define_class("K3", inherits_from=["K1"])
    db.create_view("V", ["K1", "K2", "K3"], closure="ignore")
    return db


def test_remove_membership_preserves_ancestor_slice_values():
    """Bug 1: removing an object from a subclass used to destroy the
    ancestor storage slice, resetting values visible through the
    superclass to declared defaults."""
    db = _db_with_hierarchy()
    view = db.view("V")
    oid = view["K1"].create(a=8).oid
    view["K1"].get_object(oid).add_to("K2")
    view["K2"].get_object(oid).remove_from("K2")
    assert view["K1"].get_object(oid).values()["a"] == 8


def test_rejected_add_rolls_back_without_value_loss():
    """Bug 3: a value-closure-rejected ``add`` rolled back by removing the
    freshly added memberships with slice destruction enabled, wiping the
    object's pre-existing stored values."""
    db = TseDatabase()
    db.define_class("K1", [Attribute(name="a", default=0)])
    db.define_class("K2", inherits_from=["K1"])
    db.create_view("V1", ["K1", "K2"], closure="ignore")
    db.create_view("V2", ["K1", "K2"], closure="ignore")
    db.view("V2").delete_edge("K1", "K2")

    oid = db.view("V1")["K2"].create(a=5).oid
    # in V2, K1 is now difference(K1, K2'): the object (still in K2) can
    # never satisfy the target's closure, so the add must reject...
    with pytest.raises(TseError):
        db.view("V2")["K2"].get_object(oid).add_to("K1")
    # ...and the rollback must leave the stored value intact
    assert db.view("V1")["K2"].get_object(oid).values()["a"] == 5


def test_create_through_shrunk_class_with_keeper_chain():
    """Bug 4: after delete_edge(K1, K2) with keeper K3, the replacement is
    union(difference(K1, K2'), K3') and inserts through it used to reject
    with 'union target is not a source'.  Transparency demands creates
    keep landing in K1 exactly as before the change."""
    db = _db_with_hierarchy()
    view = db.view("V").delete_edge("K1", "K2")
    oid = view["K1"].create(a=3).oid
    assert oid in view["K1"].extent_oids()
    assert view["K1"].get_object(oid).values()["a"] == 3


def test_insert_class_under_refined_superclass_resolves_attribute():
    """Bug 5: insert_class below a refined superclass replayed the refine
    with a *second* declaration of the refined attribute, leaving the
    inserted class's type ambiguous (the attribute appeared in the type
    but had no resolvable storage site)."""
    db = TseDatabase()
    db.define_class("K3", [Attribute(name="a", default=0)])
    db.define_class("K4", inherits_from=["K3"])
    db.create_view("V", ["K3", "K4"], closure="ignore")
    view = db.view("V")
    view.add_attribute("b", to="K3", default=1)
    view.insert_class("C16", ("K3", "K4"))

    oid = view["K4"].create(a=2, b=7).oid
    assert "b" in view["C16"].attribute_names()
    assert view["C16"].get_object(oid).values()["b"] == 7


def test_add_class_under_difference_bound_superclass_keeps_edge():
    """Bug 2: replaying a difference derivation over fresh bases is not
    monotone (the subtrahend is contravariant), so add_class under a
    difference-bound superclass used to lose the mandated is-a edge."""
    db = TseDatabase()
    db.define_class("K1", [Attribute(name="a", default=0)])
    db.define_class("K2", inherits_from=["K1"])
    db.create_view("V", ["K1", "K2"], closure="ignore")
    view = db.view("V").delete_edge("K1", "K2")
    view.add_class("C17", connected_to="K1")

    edges = {(sup, sub) for sup, sub in db.view("V").edges()}
    assert ("K1", "C17") in edges
