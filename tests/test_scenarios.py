"""Fleet scenarios: checked rolling deployments over view-schema versions.

Four layers, mirroring the differential suite's structure:

* **Tier-1 scenario smoke** — every named scenario compiles (compilation
  runs lockstep against the oracle) and its command list replays
  divergence-free through a fresh harness at small scale.
* **Scenario sweep** — ``@pytest.mark.scenario``: the same stories at
  larger scales for the scheduled CI lane (``SCENARIO_SCALES`` overrides).
* **Mutation smoke** — plants a pinned-write propagation bug (the
  version-lifecycle gate refuses every pinned write) and asserts the
  scenarios catch it and that the failure ddmins into a corpus entry.
* **Fleet builder units** — the name→blind-index compilation layer.

``pytest --seed N`` replays a single deterministic (scenario, scale) pick
and prints its one-line repro, like the differential suite.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

from repro.checking.minimize import minimize_commands, save_corpus_entry
from repro.checking.runner import Divergence, run_commands
from repro.scenarios import SCENARIOS, Fleet, build_scenario, scenario_names
from repro.views.history import ViewSchemaHistory

ALL_SCENARIOS = scenario_names()


# ---------------------------------------------------------------------------
# tier-1 scenario smoke
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_scenario_compiles_and_replays_both_modes(name):
    """Both modes of running a story: compiling it through the fleet is
    itself a checked run, and the exact command list it emits then
    replays through a fresh harness — the plain-command form must tell
    the same observable story."""
    commands = build_scenario(name, scale=1)
    assert commands, f"scenario {name} compiled to nothing"
    divergence = run_commands(commands)
    assert divergence is None, (
        f"scenario {name} diverged on replay (repro: "
        f"run_commands(build_scenario({name!r}, scale=1))): {divergence}"
    )


def test_scenario_library_covers_the_surface():
    """The library stays ≥ 8 scenarios and keeps the acceptance-critical
    old-view-write-into-merged-view story by name."""
    assert len(ALL_SCENARIOS) >= 8
    assert "merge_after_concurrent_definevc" in ALL_SCENARIOS


def test_old_view_write_surfaces_in_merged_view():
    """The §7 acceptance story, asserted on content (not just lockstep):
    a write through a pre-divergence pin appears in the merged view."""
    with Fleet() as fleet:
        SCENARIOS["merge_after_concurrent_definevc"](fleet, 1)
        hub = fleet.model.dump("Hub")
        students = hub["by_class"]["Student"]
        assert any(
            values.get("gpa") == 7 for values in students["objects"].values()
        ), "old-pin write (gpa=7) missing from merged view 'Hub'"


# ---------------------------------------------------------------------------
# scenario sweep (scheduled lane) + --seed replay
# ---------------------------------------------------------------------------


def _sweep_grid():
    scales = [int(s) for s in os.environ.get("SCENARIO_SCALES", "2,4").split(",")]
    return [(name, scale) for name in ALL_SCENARIOS for scale in scales]


def _run_one(name: str, scale: int) -> None:
    commands = build_scenario(name, scale=scale)
    divergence = run_commands(commands)
    assert divergence is None, (
        f"scenario {name} scale={scale} diverged (repro: "
        f"run_commands(build_scenario({name!r}, scale={scale}))): {divergence}"
    )


@pytest.mark.scenario
def test_scenario_sweep(forced_seed):
    """Every scenario at every sweep scale.  With ``--seed N`` a single
    deterministic pick runs instead, printing its repro line."""
    grid = _sweep_grid()
    if forced_seed is not None:
        name, scale = random.Random(forced_seed).choice(grid)
        print(f"seed {forced_seed} -> scenario={name} scale={scale}")
        _run_one(name, scale)
        return
    for name, scale in grid:
        _run_one(name, scale)


# ---------------------------------------------------------------------------
# mutation smoke: the fleet must catch a planted propagation bug
# ---------------------------------------------------------------------------


def _plant_pinned_write_refusal(monkeypatch):
    """Planted bug: the lifecycle gate treats EVERY pinned write as
    retired, so old-view writes stop propagating (they never happen)."""
    from repro.errors import RetiredViewVersion

    def broken(self, name, version):
        if version is not None:
            raise RetiredViewVersion(
                f"view {name!r} version {version} is retired; "
                "writes must go through a live version"
            )

    monkeypatch.setattr(ViewSchemaHistory, "check_writable", broken)


def test_mutation_smoke_scenarios_catch_planted_bug(monkeypatch, tmp_path):
    """With the planted bug, some scenario's old-view write is refused on
    the real side while the oracle applies it; ddmin shrinks the scenario
    to a handful of commands that archive as an ordinary corpus entry."""
    _plant_pinned_write_refusal(monkeypatch)

    found, divergence = None, None
    for name in ALL_SCENARIOS:
        try:
            build_scenario(name, scale=1)
        except Divergence as exc:
            found, divergence = name, exc
            break
    assert divergence is not None, (
        "the planted pinned-write refusal went undetected by every "
        "scenario — the fleet lost its teeth"
    )
    assert divergence.signature() == ("outcome", "write_via_version")

    # the compile stopped at the divergence; rebuild the prefix by
    # replaying the library's commands through run_commands
    commands = build_commands_up_to_divergence(found)
    signature = divergence.signature()

    def fails(candidate):
        probe = run_commands(candidate)
        return probe is not None and probe.signature() == signature

    small, _ = minimize_commands(commands, fails=fails)
    assert len(small) <= 12, (
        f"ddmin left {len(small)} commands (> 12) for the planted bug"
    )
    small_divergence = run_commands(small)
    assert small_divergence is not None
    assert small_divergence.signature() == signature

    path = save_corpus_entry(
        tmp_path,
        "scenario-mutation-smoke",
        small,
        divergence=small_divergence,
        note=f"planted pinned-write refusal (scenario {found})",
    )
    payload = json.loads(Path(path).read_text())
    assert payload["format"] == 1

    # without the bug the minimized sequence replays clean
    monkeypatch.undo()
    assert run_commands(small) is None, (
        "minimized scenario still diverges after removing the planted "
        "bug — it shrank onto an unrelated (real) failure"
    )


def build_commands_up_to_divergence(name):
    """The command list a diverging compile emitted (the embedded harness
    raised mid-story, so ``build_scenario`` never returned it)."""
    fleet = Fleet()
    try:
        SCENARIOS[name](fleet, 1)
    except Divergence:
        pass
    commands = list(fleet.commands)
    fleet.close()
    return commands


# ---------------------------------------------------------------------------
# fleet builder units
# ---------------------------------------------------------------------------


class TestFleetBuilder:
    def test_steps_compile_to_checking_vocabulary(self):
        with Fleet() as fleet:
            fleet.define_class("A", attrs=[("a0", False, 0)])
            fleet.create_view("V", ["A"])
            fleet.deploy(app=0, view="V")
            fleet.add_attribute("V", to="A", name="x", default=1)
            fleet.roll(app=0)
            ops = [c.op for c in fleet.commands]
        assert ops == [
            "define_class",
            "create_view",
            "pin_view_version",
            "add_attribute",
            "roll_app",
        ]

    def test_deploy_defaults_to_current_version(self):
        with Fleet() as fleet:
            fleet.define_class("A", attrs=[("a0", False, 0)])
            fleet.create_view("V", ["A"])
            fleet.add_attribute("V", to="A", name="x", default=1)
            fleet.deploy(app=0, view="V")
            assert fleet.apps[0] == ("V", 2)

    def test_roll_advances_binding(self):
        with Fleet() as fleet:
            fleet.define_class("A", attrs=[("a0", False, 0)])
            fleet.create_view("V", ["A"])
            fleet.deploy(app=0, view="V")
            fleet.add_attribute("V", to="A", name="x", default=1)
            fleet.roll(app=0)
            assert fleet.apps[0] == ("V", 2)

    def test_unknown_name_fails_loudly(self):
        with Fleet() as fleet:
            fleet.define_class("A", attrs=[("a0", False, 0)])
            fleet.create_view("V", ["A"])
            with pytest.raises(ValueError):
                fleet.add_attribute("W", to="A", name="x")

    def test_undeployed_app_write_fails_loudly(self):
        with Fleet() as fleet:
            fleet.define_class("A", attrs=[("a0", False, 0)])
            fleet.create_view("V", ["A"])
            with pytest.raises(ValueError):
                fleet.app_create(0, "A")

    def test_compiled_list_is_plain_commands(self):
        """Scenario output round-trips through the corpus JSON format."""
        from repro.checking.commands import command_from_dict, command_to_dict

        commands = build_scenario("blue_green_flip", scale=1)
        round_tripped = [
            command_from_dict(command_to_dict(c)) for c in commands
        ]
        assert round_tripped == commands
        assert run_commands(round_tripped) is None
