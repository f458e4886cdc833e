"""The fleet builder: named deployment steps over a checked harness.

The differential vocabulary addresses schema elements through *blind
indices* (``view_i``/``cls_i``/… resolve modulo the oracle's sorted name
lists) so random generation is total.  Scenario authors want the
opposite: steps that name views, classes and attributes directly.
:class:`Fleet` bridges the two — every step method resolves its names
into indices against the live oracle state, emits one checking
:class:`~repro.checking.commands.Command`, and immediately applies it to
an embedded :class:`~repro.checking.runner.DifferentialHarness`.

Because resolution happens against the *oracle* (never the real system),
the compiled command list is exactly as replayable as a fuzzer-generated
one: ``run_commands(fleet.commands)`` re-runs the scenario from scratch,
and ddmin can shrink a diverging scenario into a corpus entry like any
other failure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.checking.commands import APP_SLOTS, Command, command_to_dict
from repro.checking.runner import DifferentialHarness, Divergence

#: re-export under a scenario-flavoured name so test code reads naturally
FleetDivergence = Divergence


class Fleet:
    """K simulated applications, each bound to a pinned view version,
    driven through a checked rolling deployment.

    Use as a context manager (the embedded harness owns a throwaway WAL
    directory and any open reader sessions)::

        with Fleet() as fleet:
            fleet.define_class("A", attrs=[("a0", False, 0)])
            fleet.create_view("V", ["A"])
            fleet.deploy(app=0, view="V")          # pin v1
            fleet.add_attribute("V", to="A", name="x", default=1)
            fleet.roll(app=0)                       # v1 -> v2
            commands = fleet.commands               # replayable anywhere
    """

    def __init__(self, wal_dir=None) -> None:
        self._harness = DifferentialHarness(wal_dir)
        #: every emitted command, in order — the scenario's replayable form
        self.commands: List[Command] = []

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> None:
        self._harness.close()

    @property
    def model(self):
        """The reference oracle (read-only; name→index resolution source)."""
        return self._harness.model

    @property
    def apps(self) -> Dict[int, Tuple[str, int]]:
        """Live app bindings: slot -> (view, pinned version)."""
        return self._harness.apps

    # -- emission ------------------------------------------------------------

    def _emit(self, op: str, **args) -> str:
        command = Command(op, args)
        self.commands.append(command)
        return self._harness.apply(command)

    # -- name → blind-index resolution (against the oracle) ------------------

    def _view_i(self, name: str) -> int:
        return self.model.view_names().index(name)

    def _base_i(self, name: str) -> int:
        return self.model.user_bases.index(name)

    def _cls_i(self, view: str, cls: str, version: Optional[int] = None) -> int:
        return self.model.class_names(view, version).index(cls)

    def _attr_i(
        self, view: str, cls: str, attr: str, version: Optional[int] = None
    ) -> int:
        return self.model.attribute_names(view, cls, version).index(attr)

    def _version_sel(self, view: str, version: int) -> int:
        return self.model.versions_of(view).index(version)

    def _binding(self, app: int) -> Tuple[str, int]:
        binding = self.apps.get(app % APP_SLOTS)
        if binding is None:
            raise ValueError(f"app slot {app} has no deployment")
        return binding

    # -- authoring -----------------------------------------------------------

    def define_class(
        self,
        name: str,
        attrs: Sequence[Tuple[str, bool, object]] = (),
        parents: Sequence[str] = (),
    ) -> None:
        """Author a base class; ``attrs`` rows are (name, required, default)."""
        self._emit(
            "define_class",
            name=name,
            attrs=[
                {"name": a, "required": req, "default": dfl}
                for a, req, dfl in attrs
            ],
            parent_picks=[self._base_i(p) for p in parents],
        )

    def create_view(self, name: str, classes: Sequence[str]) -> None:
        self._emit(
            "create_view",
            name=name,
            picks=[self._base_i(c) for c in classes],
        )

    # -- durability ----------------------------------------------------------

    def enable_wal(self) -> None:
        self._emit("enable_wal")

    def checkpoint(self) -> None:
        self._emit("checkpoint")

    def crash(self, point: str = "checkpoint:before_rename") -> None:
        """Inject a crash at a checkpoint seam and recover (the fleet
        survives — pinned bindings are durable)."""
        self._emit("crash", point=point)

    def crash_during_write(
        self, view: str, cls: str, assigns: Optional[dict] = None
    ) -> None:
        """Die mid-WAL-append while creating an object: recovery truncates
        the torn record, so the write is lost on both sides."""
        inner = Command(
            "create",
            {
                "view_i": self._view_i(view),
                "cls_i": self._cls_i(view, cls),
                "assigns": [
                    [self._attr_i(view, cls, attr), value]
                    for attr, value in (assigns or {}).items()
                ],
            },
        )
        self._emit(
            "crash", point="wal:mid_append", inner=command_to_dict(inner)
        )

    def recover_clean(self) -> None:
        self._emit("recover_clean")

    def backfill(self, limit: Optional[int] = None) -> None:
        """Drain a bounded batch of pending lazy-migration captures."""
        self._emit("backfill_step", limit=limit)

    # -- epoch readers -------------------------------------------------------

    def reader_open(self, slot: int = 0) -> None:
        self._emit("reader_open", slot=slot)

    def reader_check(self, slot: int = 0) -> None:
        self._emit("reader_check", slot=slot)

    def reader_refresh(self, slot: int = 0) -> None:
        self._emit("reader_refresh", slot=slot)

    def reader_close(self, slot: int = 0) -> None:
        self._emit("reader_close", slot=slot)

    # -- schema evolution (through the current version) ------------------------

    def add_attribute(
        self, view: str, to: str, name: str, default: object = None
    ) -> None:
        self._emit(
            "add_attribute",
            view_i=self._view_i(view),
            to_i=self._cls_i(view, to),
            name=name,
            default=default,
        )

    def add_method(self, view: str, to: str, name: str) -> None:
        self._emit(
            "add_method",
            view_i=self._view_i(view),
            to_i=self._cls_i(view, to),
            name=name,
        )

    def add_class(
        self, view: str, name: str, connect_to: Optional[str] = None
    ) -> None:
        self._emit(
            "add_class",
            view_i=self._view_i(view),
            name=name,
            connect=connect_to is not None,
            conn_i=self._cls_i(view, connect_to) if connect_to else 0,
        )

    def insert_class(self, view: str, name: str, sup: str, sub: str) -> None:
        self._emit(
            "insert_class",
            view_i=self._view_i(view),
            name=name,
            sup_i=self._cls_i(view, sup),
            sub_i=self._cls_i(view, sub),
        )

    def delete_class_2(self, view: str, cls: str) -> None:
        self._emit(
            "delete_class_2",
            view_i=self._view_i(view),
            cls_i=self._cls_i(view, cls),
        )

    def merge(
        self,
        name: str,
        first: str,
        second: str,
        first_version: Optional[int] = None,
        second_version: Optional[int] = None,
    ) -> None:
        """Section 7 version merging; pin either source to a historical
        version to merge it rather than the current one."""
        self._emit(
            "merge_views",
            name=name,
            first_i=self._view_i(first),
            second_i=self._view_i(second),
            pin_first=first_version is not None,
            first_sel=(
                self._version_sel(first, first_version)
                if first_version is not None
                else 0
            ),
            pin_second=second_version is not None,
            second_sel=(
                self._version_sel(second, second_version)
                if second_version is not None
                else 0
            ),
        )

    def retire(self, view: str, version: int) -> None:
        self._emit(
            "retire_version",
            view_i=self._view_i(view),
            version_sel=self._version_sel(view, version),
        )

    # -- direct writes (through the current version) ---------------------------

    def create(self, view: str, cls: str, assigns: Optional[dict] = None) -> None:
        self._emit(
            "create",
            view_i=self._view_i(view),
            cls_i=self._cls_i(view, cls),
            assigns=[
                [self._attr_i(view, cls, attr), value]
                for attr, value in (assigns or {}).items()
            ],
        )

    def set(self, view: str, cls: str, obj: int, attr: str, value) -> None:
        """Set one attribute on the ``obj``-th object of the class extent."""
        self._emit(
            "set",
            view_i=self._view_i(view),
            cls_i=self._cls_i(view, cls),
            obj_i=obj,
            attr_i=self._attr_i(view, cls, attr),
            value=value,
        )

    # -- the fleet itself ------------------------------------------------------

    def deploy(self, app: int, view: str, version: Optional[int] = None) -> None:
        """Bind an app slot to a (view, version) pin — the simulated app
        ships against that schema version (default: the version current
        now) and keeps it until :meth:`roll` rebinds the slot."""
        if version is None:
            version = self.model.version(view)
        self._emit(
            "pin_view_version",
            app=app,
            view_i=self._view_i(view),
            version_sel=self._version_sel(view, version),
        )

    def roll(self, app: int) -> None:
        """Rolling upgrade: rebind the slot to the successor version."""
        self._emit("roll_app", app=app)

    def app_read(self, app: int) -> None:
        """Full pinned-dump comparison of the app's view version."""
        self._emit("read_via_version", app=app)

    def _app_write(self, app: int, inner: Command) -> None:
        self._emit(
            "write_via_version", app=app, inner=command_to_dict(inner)
        )

    def app_create(
        self, app: int, cls: str, assigns: Optional[dict] = None
    ) -> None:
        """Create an object through the app's pinned view version."""
        view, version = self._binding(app)
        self._app_write(
            app,
            Command(
                "create",
                {
                    "cls_i": self._cls_i(view, cls, version),
                    "assigns": [
                        [self._attr_i(view, cls, attr, version), value]
                        for attr, value in (assigns or {}).items()
                    ],
                },
            ),
        )

    def app_set(self, app: int, cls: str, obj: int, attr: str, value) -> None:
        view, version = self._binding(app)
        self._app_write(
            app,
            Command(
                "set",
                {
                    "cls_i": self._cls_i(view, cls, version),
                    "obj_i": obj,
                    "attr_i": self._attr_i(view, cls, attr, version),
                    "value": value,
                },
            ),
        )

    def app_add(self, app: int, cls: str, src: str, obj: int) -> None:
        """Add the ``obj``-th object of ``src`` to ``cls`` (both as the
        pinned version names them)."""
        view, version = self._binding(app)
        self._app_write(
            app,
            Command(
                "add",
                {
                    "cls_i": self._cls_i(view, cls, version),
                    "src_cls_i": self._cls_i(view, src, version),
                    "obj_i": obj,
                },
            ),
        )

    def app_remove(self, app: int, cls: str, obj: int) -> None:
        view, version = self._binding(app)
        self._app_write(
            app,
            Command(
                "remove",
                {"cls_i": self._cls_i(view, cls, version), "obj_i": obj},
            ),
        )

    def app_delete(self, app: int, cls: str, obj: int) -> None:
        view, version = self._binding(app)
        self._app_write(
            app,
            Command(
                "delete",
                {"cls_i": self._cls_i(view, cls, version), "obj_i": obj},
            ),
        )
