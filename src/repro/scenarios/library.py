"""The named rolling-deploy scenarios.

Each scenario is a plain function ``(fleet, scale) -> None`` telling one
deployment story through :class:`~repro.scenarios.fleet.Fleet` steps;
``scale`` stretches the story (more objects, more rounds) without
changing its shape.  Compiling a scenario *is* checking it — every step
replays lockstep against the reference oracle — and the compiled command
list replays identically through a fresh harness.

The library covers the multi-version coexistence surface end to end:
blue/green and canary rollouts, laggards writing through long-retired
schemas, §7 merges after concurrent evolution (including writes arriving
through an *old* view version that must surface in a newer merged view),
epoch readers across lazy backfill, and crash/recovery mid-rollout.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.checking.commands import Command
from repro.scenarios.fleet import Fleet


def _seed_world(fleet: Fleet, scale: int) -> None:
    """The shared campus world: a tiny hierarchy, one view, some objects."""
    fleet.define_class("Person", attrs=[("name", False, 0), ("age", False, 0)])
    fleet.define_class("Student", attrs=[("gpa", False, 0)], parents=["Person"])
    fleet.define_class("Course", attrs=[("credits", False, 3)])
    fleet.create_view("Campus", ["Person", "Student", "Course"])
    for i in range(max(1, scale)):
        fleet.create("Campus", "Student", {"gpa": i})
        fleet.create("Campus", "Course", {"credits": i % 5})


def blue_green_flip(fleet: Fleet, scale: int) -> None:
    """Two app colours: blue pinned to v1, green ships on v2; traffic runs
    through both, then blue flips and v1 retires."""
    _seed_world(fleet, scale)
    fleet.deploy(app=0, view="Campus")  # blue on v1
    fleet.add_attribute("Campus", to="Person", name="email", default=0)
    fleet.deploy(app=1, view="Campus")  # green on v2
    for i in range(max(1, scale)):
        fleet.app_create(0, "Student", {"gpa": 10 + i})
        fleet.app_create(1, "Student", {"gpa": 20 + i, "email": i})
        fleet.app_read(0)
        fleet.app_read(1)
    fleet.roll(app=0)  # the flip
    fleet.app_read(0)
    fleet.retire("Campus", 1)
    fleet.app_create(0, "Student", {"gpa": 99})


def canary_then_roll(fleet: Fleet, scale: int) -> None:
    """Three apps on v1; one canary takes each new version first, reads
    and writes, then the rest roll one at a time."""
    _seed_world(fleet, scale)
    for app in range(3):
        fleet.deploy(app=app, view="Campus")
    fleet.add_attribute("Campus", to="Student", name="standing", default=1)
    fleet.roll(app=0)  # canary
    fleet.app_create(0, "Student", {"standing": 2})
    fleet.app_read(0)
    fleet.app_read(1)  # fleet majority still healthy on v1
    for app in (1, 2):
        fleet.roll(app=app)
        fleet.app_read(app)
    fleet.add_method("Campus", to="Person", name="greet")
    for app in range(3):
        fleet.roll(app=app)
        fleet.app_read(app)
    fleet.retire("Campus", 1)
    fleet.retire("Campus", 2)


def long_tail_laggard(fleet: Fleet, scale: int) -> None:
    """One app never upgrades while the schema walks several versions
    ahead; the laggard keeps reading *and writing* v1 throughout, then
    finally rolls through every intermediate version."""
    _seed_world(fleet, scale)
    fleet.deploy(app=0, view="Campus")  # the laggard
    fleet.deploy(app=1, view="Campus")
    for round_no in range(2 + scale):
        fleet.add_attribute(
            "Campus", to="Person", name=f"extra{round_no}", default=round_no
        )
        fleet.roll(app=1)
        fleet.app_create(0, "Student", {"gpa": round_no})  # via v1
        fleet.app_set(0, "Student", 0, "gpa", 40 + round_no)
        fleet.app_read(0)
        fleet.app_read(1)
    while fleet.apps[0][1] < fleet.model.version("Campus"):
        fleet.roll(app=0)
        fleet.app_read(0)


def write_through_old_view_during_lazy_migration(
    fleet: Fleet, scale: int
) -> None:
    """Writes arrive through the pre-evolution pin while the lazy backfill
    is still draining, interleaved step by step."""
    _seed_world(fleet, scale)
    fleet.deploy(app=0, view="Campus")
    fleet.reader_open(0)
    fleet.add_attribute("Campus", to="Student", name="track", default=0)
    for i in range(max(2, scale + 1)):
        fleet.app_create(0, "Student", {"gpa": 60 + i})  # old-view write
        fleet.backfill(limit=1)  # drain one pending capture
        fleet.app_read(0)
        fleet.reader_check(0)
    fleet.set("Campus", "Student", 0, "track", 7)  # current-view write
    fleet.backfill()
    fleet.app_read(0)
    fleet.reader_refresh(0)
    fleet.reader_check(0)
    fleet.reader_close(0)


def merge_after_concurrent_definevc(fleet: Fleet, scale: int) -> None:
    """Two departments evolve the same base world independently (§7's
    figure-16 divergence), then merge; an app still pinned to a
    *pre-divergence* version writes, and the write must surface through
    the merged view."""
    fleet.define_class("Person", attrs=[("name", False, 0)])
    fleet.define_class("Student", attrs=[("gpa", False, 0)], parents=["Person"])
    fleet.create_view("Reg", ["Person", "Student"])
    fleet.create_view("Lib", ["Person", "Student"])
    for i in range(max(1, scale)):
        fleet.create("Reg", "Student", {"gpa": i})
    fleet.deploy(app=0, view="Reg")  # pinned before any divergence
    fleet.add_attribute("Reg", to="Student", name="register", default=0)
    fleet.add_class("Lib", "Loans", connect_to="Person")  # concurrent definevc
    fleet.merge("Hub", "Reg", "Lib")
    fleet.deploy(app=1, view="Hub")
    fleet.app_create(0, "Student", {"gpa": 7})  # write through the OLD pin
    fleet.app_read(1)  # the merged view must see it
    fleet.app_read(0)
    # merging *historical* versions reaches further back than any pin
    fleet.merge("HubOld", "Reg", "Lib", first_version=1, second_version=1)
    fleet.deploy(app=2, view="HubOld")
    fleet.app_read(2)


def merge_suffix_chain(fleet: Fleet, scale: int) -> None:
    """Three same-named refinements meet through chained merges — the
    collision-suffix ladder (``_v2`` then ``_v2_2``) end to end, with
    traffic running through the doubly-merged view."""
    fleet.define_class("K", attrs=[("base", False, 0)])
    for view in ("V1", "V2", "V3"):
        fleet.create_view(view, ["K"])
    fleet.create("V1", "K", {"base": 1})
    fleet.add_attribute("V1", to="K", name="x", default=0)
    fleet.add_attribute("V2", to="K", name="y", default=0)
    fleet.merge("M1", "V1", "V2")
    fleet.add_attribute("V3", to="K", name="z", default=0)
    fleet.merge("M2", "M1", "V3")
    fleet.deploy(app=0, view="M2")
    fleet.app_read(0)
    for i in range(max(1, scale)):
        fleet.app_create(0, "K", {"x": i})
        fleet.app_read(0)


def crash_mid_roll(fleet: Fleet, scale: int) -> None:
    """The process dies in the middle of a rolling upgrade — mid WAL
    append and on both sides of a checkpoint rename; pinned bindings and
    histories must survive every recovery."""
    fleet.enable_wal()
    _seed_world(fleet, scale)
    fleet.deploy(app=0, view="Campus")
    fleet.deploy(app=1, view="Campus")
    fleet.add_attribute("Campus", to="Person", name="email", default=0)
    fleet.roll(app=0)
    fleet.crash_during_write("Campus", "Student", {"gpa": 50})
    fleet.app_read(0)
    fleet.app_read(1)
    fleet.checkpoint()
    fleet.crash("checkpoint:before_rename")
    fleet.app_create(1, "Student", {"gpa": 5})
    fleet.add_attribute("Campus", to="Course", name="room", default=0)
    fleet.crash("checkpoint:after_rename")
    fleet.recover_clean()
    fleet.roll(app=1)
    fleet.app_read(0)
    fleet.app_read(1)


def retire_then_laggard_write(fleet: Fleet, scale: int) -> None:
    """Operators retire a version an app is still pinned to: reads stay
    legal (forensics), writes become an *agreed* typed rejection, and the
    app recovers by rolling forward."""
    _seed_world(fleet, scale)
    fleet.deploy(app=0, view="Campus")
    fleet.add_attribute("Campus", to="Student", name="standing", default=1)
    fleet.retire("Campus", 1)
    fleet.app_read(0)  # reading a retired pin is fine
    fleet.app_create(0, "Student", {"gpa": 1})  # agreed rejection
    fleet.app_set(0, "Student", 0, "gpa", 9)  # still rejected
    fleet.roll(app=0)
    fleet.app_create(0, "Student", {"gpa": 1, "standing": 2})  # now lands
    fleet.app_read(0)


def concurrent_epoch_readers(fleet: Fleet, scale: int) -> None:
    """Snapshot readers pinned to different epochs while the schema keeps
    moving and the backfill drains under them."""
    _seed_world(fleet, scale)
    fleet.reader_open(0)
    fleet.add_attribute("Campus", to="Person", name="email", default=0)
    fleet.reader_open(1)  # one epoch later
    for i in range(max(1, scale)):
        fleet.create("Campus", "Student", {"gpa": 70 + i})
        fleet.reader_check(0)
        fleet.reader_check(1)
        fleet.backfill(limit=1)
    fleet.add_method("Campus", to="Course", name="enroll")
    fleet.reader_check(0)
    fleet.reader_refresh(0)
    fleet.reader_check(0)
    fleet.reader_close(0)
    fleet.reader_close(1)


def checkpoint_recover_fleet(fleet: Fleet, scale: int) -> None:
    """Retirement must ride along in checkpoints: retire, checkpoint,
    crash, recover — the version lifecycle (and the typed write
    rejection) must look identical afterwards."""
    fleet.enable_wal()
    _seed_world(fleet, scale)
    fleet.deploy(app=0, view="Campus")
    fleet.add_attribute("Campus", to="Person", name="email", default=0)
    fleet.deploy(app=1, view="Campus")
    fleet.retire("Campus", 1)
    fleet.checkpoint()
    fleet.crash_during_write("Campus", "Student", {"gpa": 4})
    fleet.app_read(0)
    fleet.app_create(0, "Student", {"gpa": 3})  # agreed retired rejection
    fleet.recover_clean()
    fleet.app_read(1)
    fleet.app_create(1, "Student", {"gpa": 3, "email": 1})


#: every named scenario, in a stable order
SCENARIOS: Dict[str, Callable[[Fleet, int], None]] = {
    "blue_green_flip": blue_green_flip,
    "canary_then_roll": canary_then_roll,
    "long_tail_laggard": long_tail_laggard,
    "write_through_old_view_during_lazy_migration":
        write_through_old_view_during_lazy_migration,
    "merge_after_concurrent_definevc": merge_after_concurrent_definevc,
    "merge_suffix_chain": merge_suffix_chain,
    "crash_mid_roll": crash_mid_roll,
    "retire_then_laggard_write": retire_then_laggard_write,
    "concurrent_epoch_readers": concurrent_epoch_readers,
    "checkpoint_recover_fleet": checkpoint_recover_fleet,
}


def scenario_names() -> List[str]:
    return list(SCENARIOS)


def build_scenario(name: str, scale: int = 1) -> List[Command]:
    """Compile one named scenario into its replayable command list.

    Compilation runs the scenario against a live differential harness, so
    a divergence raises :class:`~repro.checking.runner.Divergence` right
    here; the returned list replays via
    :func:`repro.checking.runner.run_commands`.
    """
    story = SCENARIOS[name]
    with Fleet() as fleet:
        story(fleet, scale)
        return list(fleet.commands)
