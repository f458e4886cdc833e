"""Differential harness: the real TSE pipeline vs the reference oracle.

:class:`DifferentialHarness` owns one real :class:`TseDatabase` and one
:class:`~repro.checking.oracle.RefModel` and applies each
:class:`~repro.checking.commands.Command` to **both**, then asserts
observable equivalence after every step:

* agreement on the *outcome* (applied vs rejected — any ``TseError`` on
  the real side must correspond to an ``OracleReject``, and vice versa);
* per view: class names, version number, and the reachability closure of
  the is-a edges (closures, not direct edges, so the comparison is
  insensitive to how transitive reduction is materialised);
* per view class: attribute/method name sets (through the view's aliases)
  and the sorted extent;
* per object in every extent: the full attribute-value mapping as read
  through that view class (stored values and declared defaults).

Each view is read through one ``ViewHandle.dump()`` and walked against
the oracle's dump in a fixed order (:meth:`DifferentialHarness._first_difference`).

Commands reach the real database through a resolver and an applier.  A
generic update resolves once — blind indices read against the oracle's
bindings of a ``(view, version)`` pair — into the view-vocabulary dict
``TseDatabase.apply_view_updates`` takes; :func:`_write` applies it
through the current or a pinned handle, ``apply_many`` batches go to
``apply_view_updates`` itself, and :func:`_oracle_write` is the oracle's
twin.  Schema ops resolve through :data:`_SCHEMA_ARGS` into the positional
arguments of the same-named ``ViewHandle`` method.

Crash commands arm a :class:`~repro.storage.wal.CrashInjector`, run one
real mutation until ``SimulatedCrash``, then recover the real database
from its WAL directory; the oracle simply *skips* the armed operation
(both journal orders make an interrupted first append lose the whole
change).  Reader commands pin epoch snapshots on both sides and compare
them on demand.  Savepoint commands run the real block under
``db.transaction()`` while the oracle applies the inner updates to a
deep-copied shadow that is kept on commit and discarded on abort.

Entry points:

* :func:`run_sequence` — seedable standalone driver (generate + run);
* :func:`run_commands` — replay an explicit command list (corpus replays,
  ddmin probes);
* :class:`DifferentialMachine` — a Hypothesis ``RuleBasedStateMachine``
  wrapping the same harness, so Hypothesis explores op interleavings and
  shrinks its own failures.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.checking.commands import (
    APP_SLOTS,
    AUTHORING_OPS,
    MIGRATION_OPS,
    READER_SLOTS,
    SCHEMA_OPS,
    UPDATE_OPS,
    VERSION_OPS,
    Command,
    CommandGenerator,
    command_from_dict,
    command_to_dict,
)
from repro.checking.oracle import OracleReject, RefModel, Spec
from repro.core.database import TseDatabase
from repro.errors import TseError
from repro.persistence import state_difference
from repro.schema.properties import Attribute
from repro.storage.oid import Oid
from repro.storage.wal import CrashInjector, SimulatedCrash


def _noop_method(handle, *args):
    """Body for fuzz-generated methods (observable only by name)."""
    return None


def _copy_published(published: dict) -> dict:
    """Two-level copy of a published epoch snapshot.

    The snapshot's leaves (version ints, class names, OIDs) are immutable,
    so copying the containers is as isolating as ``copy.deepcopy`` at a
    fraction of the cost — reader pins are taken on every reader open and
    refresh.
    """
    return {
        view: {
            "version": snap["version"],
            "classes": list(snap["classes"]),
            "extents": {cls: list(oids) for cls, oids in snap["extents"].items()},
        }
        for view, snap in published.items()
    }


class Divergence(AssertionError):
    """The real system and the oracle disagree."""

    def __init__(self, kind: str, op: str, step: int, detail: str) -> None:
        super().__init__(f"[step {step}] {op}: {kind}: {detail}")
        self.kind = kind
        self.op = op
        self.step = step
        self.detail = detail

    def signature(self) -> Tuple[str, str]:
        """What ddmin preserves while shrinking."""
        return (self.kind, self.op)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "op": self.op,
            "step": self.step,
            "detail": self.detail,
        }


#: ops applied through the uniform prepare/two-sided path
_PREP_OPS = UPDATE_OPS + SCHEMA_OPS + AUTHORING_OPS


class _Skip(Exception):
    """A blind index had nothing to pick: both sides agree to skip."""


class _Picker:
    """Resolves one command's blind indices against the oracle's bindings
    of one view at one version (``None``: the current version).

    The oracle's observables are the address space; a required pick from
    an empty sequence raises :class:`_Skip`.
    """

    __slots__ = ("model", "view", "version", "args")

    def __init__(self, model: RefModel, view: str, version, args: dict) -> None:
        self.model = model
        self.view = view
        self.version = version
        self.args = args

    def pick(self, seq, key: str, required: bool = True):
        if not seq:
            if required:
                raise _Skip()
            return None
        return seq[self.args[key] % len(seq)]

    def cls(self, key: str, required: bool = True):
        return self.pick(
            self.model.class_names(self.view, self.version), key, required
        )

    def names(self, names_of: str, cls: str, key: str):
        """One of what ``RefModel.<names_of>(view, cls, version)`` lists."""
        listed = getattr(self.model, names_of)(self.view, cls, self.version)
        return self.pick(listed, key)


def _write(handle, update: dict):
    """Apply one resolved update through a view handle, current or pinned.
    Returns the new OID for a create."""
    op, cls = update["op"], update["class"]
    if op == "create":
        return handle[cls].create(**update["values"]).oid
    obj = handle[update.get("from", cls)].get_object(Oid(update["oids"][0]))
    if op == "add":
        obj.add_to(cls)
    elif op == "remove":
        obj.remove_from(cls)
    elif op == "set":
        for name, value in update["values"].items():
            obj.set(name, value)
    else:
        obj.delete()
    return None


def _oracle_write(model: RefModel, view: str, version, update: dict, oid) -> None:
    """The oracle's twin of :func:`_write`; ``oid`` is the OID the real
    create allocated (or a stand-in)."""
    op, cls = update["op"], update["class"]
    if op == "create":
        model.create(view, cls, update["values"], oid, version=version)
        return
    target = Oid(update["oids"][0])
    if op == "add":
        model.add(view, cls, target, version=version)
    elif op == "remove":
        model.remove(view, cls, target, version=version)
    elif op == "set":
        model.set_values(view, cls, target, update["values"], version=version)
    else:
        model._check_writable(view, version)
        # the engine rejects deleting a dead object (in a batch an earlier
        # update may have deleted it); RefModel.delete is a silent no-op
        if target not in model.objects:
            raise OracleReject(f"object {target!r} is already deleted")
        model.delete(target)


def _delete_property_args(names_of: str, key: str):
    """Resolver of a delete-property op: a view class, then one of the
    names ``RefModel.<names_of>`` lists for it."""

    def resolve(picker: _Picker, args: dict) -> list:
        cls = picker.cls("cls_i")
        return [picker.names(names_of, cls, key), cls]

    return resolve


def _delete_edge_args(picker: _Picker, args: dict) -> list:
    sup, sub = picker.cls("sup_i"), picker.cls("sub_i")
    conn = None
    if args.get("connect"):
        ancestors = picker.model.ancestors(picker.view, sup)
        conn = picker.pick(ancestors, "conn_i", required=False)
    return [sup, sub, conn]


def _rename_property_args(picker: _Picker, args: dict) -> list:
    model, view = picker.model, picker.view
    cls = picker.cls("cls_i")
    props = sorted(model.attribute_names(view, cls) + model.method_names(view, cls))
    return [cls, picker.pick(props, "prop_i"), args["new"]]


#: schema op -> the positional arguments of ``ViewHandle.<op>``, resolved
#: through a :class:`_Picker` from the command's args
_SCHEMA_ARGS: Dict[str, Callable[[_Picker, dict], list]] = {
    "add_attribute": lambda p, a: [a["name"], p.cls("to_i"), "any", False, a["default"]],
    "add_method": lambda p, a: [a["name"], p.cls("to_i"), _noop_method],
    "delete_attribute": _delete_property_args("attribute_names", "attr_i"),
    "delete_method": _delete_property_args("method_names", "meth_i"),
    "add_edge": lambda p, a: [p.cls("sup_i"), p.cls("sub_i")],
    "delete_edge": _delete_edge_args,
    "add_class": lambda p, a: [
        a["name"],
        p.cls("conn_i", required=False) if a.get("connect") else None,
    ],
    "delete_class": lambda p, a: [p.cls("cls_i")],
    "rename_class": lambda p, a: [p.cls("cls_i"), a["new"]],
    "rename_property": _rename_property_args,
    "insert_class": lambda p, a: [a["name"], (p.cls("sup_i"), p.cls("sub_i"))],
    "delete_class_2": lambda p, a: [p.cls("cls_i")],
}


def _oracle_schema_op(model: RefModel, op: str, view: str, args: list) -> None:
    """The oracle's twin of ``ViewHandle.<op>(*args)``: the same method,
    except that the oracle folds the four property ops into
    ``add_property``/``delete_property``."""
    if op == "add_attribute":
        name, to, domain, required, default = args
        model.add_property(view, to, Spec(name, "attr", domain, required, default))
    elif op == "add_method":
        name, to, _body = args
        model.add_property(view, to, Spec(name, "method"))
    elif op in ("delete_attribute", "delete_method"):
        name, from_ = args
        kind = "attr" if op == "delete_attribute" else "method"
        model.delete_property(view, from_, name, kind)
    else:
        getattr(model, op)(view, *args)


class DifferentialHarness:
    """One real database + one oracle, stepped in lockstep."""

    def __init__(
        self,
        wal_dir=None,
        sync: str = "off",
        dossier_dir=None,
    ) -> None:
        self._tmp: Optional[str] = None
        if wal_dir is None:
            self._tmp = tempfile.mkdtemp(prefix="tse-diff-")
            wal_dir = self._tmp
        self.wal_dir = wal_dir
        # where divergence dossiers land; the TSE_DOSSIER_DIR env var lets
        # CI collect forensic bundles from any fuzz entry point without
        # threading a parameter through every caller
        if dossier_dir is None:
            dossier_dir = os.environ.get("TSE_DOSSIER_DIR") or None
        self.dossier_dir = Path(dossier_dir) if dossier_dir else None
        #: every command applied, in order (the replayable dossier payload)
        self.history: List[Command] = []
        #: path of the most recent divergence dossier (None when disabled)
        self.last_dossier: Optional[Path] = None
        # crash commands simulate crashes (the process survives), so
        # fsyncing the throwaway WAL buys nothing — "off" keeps every
        # append flushed to the OS, which is all recovery needs here
        self.sync = sync
        self.db = self._fresh_db(TseDatabase())
        self.model = RefModel()
        self.readers: Dict[int, object] = {}
        self.pins: Dict[int, dict] = {}
        #: fleet app slots: slot -> (view name, pinned version number).
        #: Bindings survive recovery — view histories are durable, so a
        #: pinned app keeps working against the recovered database.
        self.apps: Dict[int, Tuple[str, int]] = {}
        self.step = 0
        self.outcomes: List[Tuple[int, str, str]] = []
        # sweep memo: commands that provably changed nothing observable
        # (read-only selects, rejected updates) reuse the previous sweep's
        # verdict.  The key covers both sides' change counters plus a
        # db-incarnation number so a recovery that lands on coincidentally
        # equal generation counters can never mask a recovery divergence.
        self._db_incarnation = 0
        self._last_sweep_key: Optional[tuple] = None

    def _fresh_db(self, db: TseDatabase) -> TseDatabase:
        """Turn the background backfill worker off on a database (the
        initial one and every recovered replacement) before its session
        manager attaches.  A concurrent worker append would consume armed
        crash injections and wreck replay determinism, so drains happen
        only through explicit ``backfill_step`` commands and reader
        first-touch captures."""
        db.migration_backfill = False
        return db

    def close(self) -> None:
        for session in self.readers.values():
            try:
                session.close()
            except Exception:
                pass
        self.readers.clear()
        self.pins.clear()
        self.db = None
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)
            self._tmp = None

    # ------------------------------------------------------------------
    # the one public verb
    # ------------------------------------------------------------------

    def apply(self, command: Command) -> str:
        """Apply one command to both systems; raise :class:`Divergence` on
        any disagreement (outcome or observable state).

        Every command lands in :attr:`history` first, so a divergence can
        ship a *replayable* crash dossier: the flight-recorder bundle plus
        the exact command sequence that reached the disagreement."""
        self.step += 1
        self.history.append(command)
        op = command.op
        args = dict(command.args)
        try:
            try:
                if op in _PREP_OPS:
                    prep = self._prepare(command)
                    outcome = (
                        "skipped" if prep is None else self._two_sided(op, *prep)
                    )
                else:
                    outcome = getattr(self, f"_op_{op}")(args)
            except Divergence:
                raise
            except OracleReject as exc:  # oracle raised outside its contract
                raise Divergence(
                    "oracle-exception", op, self.step, f"{type(exc).__name__}: {exc}"
                )
            except Exception as exc:  # a real-system invariant crash is a finding
                raise Divergence(
                    "exception", op, self.step, f"{type(exc).__name__}: {exc}"
                )
            self.outcomes.append((self.step, op, outcome))
            self._check_equivalence(op)
        except Divergence as divergence:
            self.last_dossier = self._file_dossier(divergence)
            raise
        return outcome

    def _file_dossier(self, divergence: Divergence):
        """Dump the forensic bundle for one divergence.

        Writes into :attr:`dossier_dir` when configured (the fuzz jobs set
        ``TSE_DOSSIER_DIR`` so CI can upload the bundle as an artifact);
        the dossier's ``extra.commands`` replays through
        :func:`run_commands` byte-for-byte."""
        if self.db is None:
            return None
        flight = self.db.obs.flight
        flight.record(
            "divergence",
            divergence_kind=divergence.kind,
            op=divergence.op,
            step=divergence.step,
            detail=divergence.detail,
        )
        if self.dossier_dir is None:
            return None
        try:
            return flight.dump_dossier(
                "divergence",
                extra={
                    "divergence": divergence.to_dict(),
                    "commands": [command_to_dict(c) for c in self.history],
                    "outcomes": list(self.outcomes),
                },
                directory=self.dossier_dir,
            )
        except OSError:  # forensics must never mask the finding itself
            return None

    # ------------------------------------------------------------------
    # two-sided application
    # ------------------------------------------------------------------

    def _two_sided(
        self, op: str, real_fn: Callable[[], object], oracle_fn: Callable[[object], None]
    ) -> str:
        try:
            value = real_fn()
            real_ok, real_err = True, None
        except TseError as exc:
            real_ok, real_err = False, exc
        if real_ok:
            try:
                oracle_fn(value)
            except OracleReject as exc:
                raise Divergence(
                    "outcome", op, self.step, f"real applied, oracle rejected: {exc}"
                )
            return "applied"
        try:
            oracle_fn(None)
        except OracleReject:
            return "rejected"
        raise Divergence(
            "outcome",
            op,
            self.step,
            f"real rejected ({type(real_err).__name__}: {real_err}), oracle applied",
        )

    def _prepare(self, command: Command):
        """Resolve an update, schema or authoring command's blind indices
        against the oracle and return ``(real_fn, oracle_fn)``, or ``None``
        when a reference cannot be resolved (an agreed skip on both
        systems)."""
        op, args = command.op, command.args
        if op in AUTHORING_OPS:
            return getattr(self, f"_prep_{op}")(args)
        view = self._r_view(args["view_i"])
        if view is None:
            return None
        if op in UPDATE_OPS:
            return self._prepare_update(view, None, command)
        try:
            call_args = _SCHEMA_ARGS[op](
                _Picker(self.model, view, None, args), args
            )
        except _Skip:
            return None

        def real():
            return getattr(self.db.view(view), op)(*call_args)

        return real, lambda _value: _oracle_schema_op(
            self.model, op, view, call_args
        )

    def _resolve_update(self, view: str, version, command: Command):
        """The resolver every generic update goes through: ``command``'s
        blind indices read against the oracle's bindings of ``view`` at
        ``version`` (``None``: the current version), as the view-vocabulary
        dict :meth:`TseDatabase.apply_view_updates` takes — or ``None``
        for an agreed skip."""
        op, args = command.op, command.args
        picker = _Picker(self.model, view, version, args)
        try:
            cls = picker.cls("cls_i")
            update = {"op": op, "class": cls}
            if op == "create":
                attrs = self.model.attribute_names(view, cls, version)
                update["values"] = {
                    attrs[i % len(attrs)]: value
                    for i, value in args["assigns"]
                    if attrs
                }
                return update
            source = cls
            if op == "add":
                source = update["from"] = picker.cls("src_cls_i")
            oid = picker.names("extent_oids", source, "obj_i")
            update["oids"] = [oid.value]
            if op == "set":
                attr = picker.names("attribute_names", cls, "attr_i")
                update["values"] = {attr: args["value"]}
            return update
        except _Skip:
            return None

    def _prepare_update(self, view: str, version, command: Command):
        """``(real_fn, oracle_fn)`` for one update through the current
        handle (``version is None``) or a pinned one."""
        update = self._resolve_update(view, version, command)
        if update is None:
            return None

        def real():
            handle = self.db.view(view)
            return _write(handle if version is None else handle.pin(version), update)

        return real, lambda oid: _oracle_write(self.model, view, version, update, oid)

    # -- index resolution (oracle observables are the address space) ----------

    @staticmethod
    def _pick(seq, i):
        seq = list(seq)
        return seq[i % len(seq)] if seq else None

    def _r_view(self, i) -> Optional[str]:
        return self._pick(self.model.view_names(), i)

    # -- authoring ------------------------------------------------------------

    def _prep_define_class(self, args):
        name = args["name"]
        parents: List[str] = []
        for i in args["parent_picks"]:
            parent = self._pick(self.model.user_bases, i)
            if parent is not None and parent not in parents:
                parents.append(parent)
        specs = [
            Spec(a["name"], "attr", "any", a["required"], a["default"])
            for a in args["attrs"]
        ]
        props = [
            Attribute(name=s.name, required=s.required, default=s.default)
            for s in specs
        ]

        def real():
            if parents:
                return self.db.define_class(name, props, inherits_from=parents)
            return self.db.define_class(name, props)

        def oracle(_value):
            self.model.define_class(name, specs, parents)

        return real, oracle

    def _prep_create_view(self, args):
        name = args["name"]
        classes: List[str] = []
        for i in args["picks"]:
            cls = self._pick(self.model.user_bases, i)
            if cls is not None and cls not in classes:
                classes.append(cls)
        if not classes:
            return None

        def real():
            return self.db.create_view(name, classes, closure="ignore")

        def oracle(_value):
            self.model.create_view(name, classes)

        return real, oracle

    # ------------------------------------------------------------------
    # durability commands
    # ------------------------------------------------------------------

    def _op_enable_wal(self, args) -> str:
        if self.db.wal is not None:
            return "skipped"
        self.db.enable_wal(self.wal_dir, sync=self.sync)
        return "applied"

    def _op_checkpoint(self, args) -> str:
        if self.db.wal is None:
            return "skipped"
        self.db.checkpoint()
        return "applied"

    def _op_crash(self, args) -> str:
        if self.db.wal is None:
            return "skipped"
        point = args["point"]
        injector = CrashInjector(point, at=1)
        if point.startswith("checkpoint:"):
            self.db.wal.injector = injector
            try:
                self.db.checkpoint()
            except SimulatedCrash:
                self._recover_after_crash()
                return "crashed"
            self.db.wal.injector = None
            return "applied"  # pragma: no cover - checkpoint always hits its seams
        inner = command_from_dict(args["inner"])
        prep = self._prepare(inner)
        if prep is None:
            return "skipped"
        real_fn, oracle_fn = prep
        self.db.wal.log.injector = injector
        try:
            value = real_fn()
        except SimulatedCrash:
            # the armed append died mid-write: recovery truncates the torn
            # record, so the whole operation is lost — the oracle skips it
            self._recover_after_crash()
            return "crashed"
        except TseError as exc:
            # rejected before anything was journaled: agreed rejection
            self.db.wal.log.injector = None
            try:
                oracle_fn(None)
            except OracleReject:
                return "rejected"
            raise Divergence(
                "outcome",
                inner.op,
                self.step,
                f"real rejected before journaling ({type(exc).__name__}), "
                f"oracle applied",
            )
        self.db.wal.log.injector = None
        try:
            oracle_fn(value)
        except OracleReject as exc:  # pragma: no cover - defensive
            raise Divergence(
                "outcome", inner.op, self.step,
                f"real applied without journaling, oracle rejected: {exc}",
            )
        return "applied"  # pragma: no cover - mutations always journal

    def _op_recover_clean(self, args) -> str:
        if self.db.wal is None:
            return "skipped"
        recovered = TseDatabase.recover(self.wal_dir, sync=self.sync)
        # recovery rebuilds the live state, and deterministically so
        for other, what in (
            (self.db, "the live database"),
            (TseDatabase.recover(self.wal_dir, sync=self.sync), "a second recovery"),
        ):
            difference = state_difference(recovered, other)
            if difference is not None:
                raise Divergence(
                    "recovery", "recover_clean", self.step,
                    f"recovery differs from {what}: {difference}",
                )
        self._install_recovered(recovered)
        return "applied"

    def _recover_after_crash(self) -> None:
        self._install_recovered(TseDatabase.recover(self.wal_dir, sync=self.sync))

    def _install_recovered(self, recovered) -> None:
        self.readers.clear()
        self.pins.clear()
        self._db_incarnation += 1  # force a fresh sweep of the recovered db
        self.db = self._fresh_db(recovered)
        if self.model.sessions_attached:
            self.db.sessions()  # re-attach; publishes the baseline epoch
        self.model.published = {}
        self.model.publish()

    # ------------------------------------------------------------------
    # savepoint transactions
    # ------------------------------------------------------------------

    def _op_txn(self, args) -> str:
        inner = [command_from_dict(d) for d in args["inner"]]
        if not args.get("abort"):
            with self.db.transaction():
                for cmd in inner:
                    self._apply_inner(cmd)
            return "applied"
        # inner commands are generic updates only, so the cheap
        # updates-only clone is a faithful shadow
        shadow = self.model.clone_for_updates()
        live, self.model = self.model, shadow
        try:
            with self.db.transaction():
                for cmd in inner:
                    self._apply_inner(cmd)
                raise _AbortTxn()
        except _AbortTxn:
            pass
        finally:
            self.model = live  # the shadow (and the real txn) are discarded
        return "aborted"

    def _apply_inner(self, command: Command) -> None:
        prep = self._prepare(command)
        if prep is not None:
            self._two_sided(command.op, *prep)

    # ------------------------------------------------------------------
    # batched updates (TseDatabase.apply_many)
    # ------------------------------------------------------------------

    def _op_apply_many(self, args) -> str:
        """One batch of generic updates vs the oracle.

        Every inner update resolves against the *pre-batch* oracle state
        (batches contain only generic updates, so the schema is stable
        throughout) into a view-vocabulary update dict.  The real side
        applies the batch through ``db.apply_view_updates`` — the facade
        the server's ``apply_many`` request writes through.  A batch may
        span views: each run of updates on one view is one facade call,
        and the calls share one savepoint, so the batch stays
        all-or-nothing.  The outcomes must agree *as a batch*:

        * real applied everything → the oracle must apply every update
          (feeding real create OIDs in order);
        * real raised (rolling the whole batch back) → replaying the
          updates on a throwaway shadow must hit an ``OracleReject``
          somewhere, proving the oracle agrees the batch contained a
          rejected update; the shadow is discarded either way.
        """
        batch: List[Tuple[str, dict]] = []
        for inner in args["inner"]:
            command = command_from_dict(inner)
            view = self._r_view(command.args["view_i"])
            update = None if view is None else self._resolve_update(view, None, command)
            if update is not None:
                batch.append((view, update))
        if not batch:
            return "skipped"
        reports: List[dict] = []
        try:
            with self.db.transaction():
                for view, run in groupby(batch, key=itemgetter(0)):
                    reports += self.db.apply_view_updates(
                        view, [update for _view, update in run]
                    )
        except TseError as exc:
            shadow = self.model.clone_for_updates()
            try:
                for index, (view, update) in enumerate(batch):
                    _oracle_write(shadow, view, None, update, f"batch-dummy-{index}")
            except OracleReject:
                return "rejected"  # whole batch rolled back on both sides
            raise Divergence(
                "outcome",
                "apply_many",
                self.step,
                f"real rolled the batch back ({type(exc).__name__}: {exc}), "
                f"oracle applied all {len(batch)} updates",
            )
        for index, ((view, update), report) in enumerate(zip(batch, reports)):
            oid = Oid(report["oid"]) if "oid" in report else None
            try:
                _oracle_write(self.model, view, None, update, oid)
            except OracleReject as exc:
                raise Divergence(
                    "outcome",
                    "apply_many",
                    self.step,
                    f"real applied the whole batch, oracle rejected update "
                    f"#{index}: {exc}",
                )
        return "applied"

    # ------------------------------------------------------------------
    # lazy-migration drains
    # ------------------------------------------------------------------

    def _op_backfill_step(self, args) -> str:
        """Drain a bounded batch of pending epoch captures on the real
        side.  The oracle applies nothing: migration must be observably
        invisible, and the post-step equivalence sweep (plus any pinned
        ``reader_check``) is exactly that assertion.  Skipped when no
        session manager is attached yet — both sides agree nothing
        happened."""
        manager = getattr(self.db, "_sessions", None)
        if manager is None:
            return "skipped"
        manager.migration.backfill_step(args.get("limit"))
        return "applied"

    # ------------------------------------------------------------------
    # reader sessions
    # ------------------------------------------------------------------

    def _ensure_sessions(self) -> None:
        self.db.sessions()
        self.model.attach_sessions()

    def _op_reader_open(self, args) -> str:
        slot = args["slot"] % READER_SLOTS
        self._ensure_sessions()
        old = self.readers.pop(slot, None)
        if old is not None:
            old.close()
            self.pins.pop(slot, None)
        session = self.db.sessions().reader()
        session.__enter__()
        self.readers[slot] = session
        self.pins[slot] = _copy_published(self.model.published)
        return "applied"

    def _op_reader_refresh(self, args) -> str:
        slot = args["slot"] % READER_SLOTS
        session = self.readers.get(slot)
        if session is None:
            return "skipped"
        session.refresh()
        self.pins[slot] = _copy_published(self.model.published)
        return "applied"

    def _op_reader_close(self, args) -> str:
        slot = args["slot"] % READER_SLOTS
        session = self.readers.pop(slot, None)
        if session is None:
            return "skipped"
        session.close()
        self.pins.pop(slot, None)
        return "applied"

    def _op_reader_check(self, args) -> str:
        slot = args["slot"] % READER_SLOTS
        session = self.readers.get(slot)
        if session is None:
            return "skipped"
        pin = self.pins[slot]
        try:
            if not session.verify():
                raise Divergence(
                    "reader", "reader_check", self.step,
                    f"slot {slot}: pinned epoch failed CRC verification",
                )
            for view, snap in sorted(pin.items()):
                if session.view_version(view) != snap["version"]:
                    raise Divergence(
                        "reader", "reader_check", self.step,
                        f"slot {slot}: {view!r} version "
                        f"{session.view_version(view)} != pinned {snap['version']}",
                    )
                if sorted(session.class_names(view)) != snap["classes"]:
                    raise Divergence(
                        "reader", "reader_check", self.step,
                        f"slot {slot}: {view!r} classes drifted from pin",
                    )
                for cls, extent in sorted(snap["extents"].items()):
                    if sorted(session.extent_oids(view, cls)) != extent:
                        raise Divergence(
                            "reader", "reader_check", self.step,
                            f"slot {slot}: {view!r}.{cls!r} extent drifted from pin",
                        )
                    if session.count(view, cls) != len(extent):
                        raise Divergence(
                            "reader", "reader_check", self.step,
                            f"slot {slot}: {view!r}.{cls!r} count != pinned extent",
                        )
        except TseError as exc:
            raise Divergence(
                "reader", "reader_check", self.step,
                f"slot {slot}: pinned read raised {type(exc).__name__}: {exc}",
            )
        return "applied"

    # ------------------------------------------------------------------
    # fleet simulation: version pins, rolling upgrades, retirement, merge
    # ------------------------------------------------------------------

    def _op_pin_view_version(self, args) -> str:
        """Bind an app slot to a (view, version) pin — the simulated app
        deploys against that schema version and keeps using it until a
        ``roll_app`` rebinds the slot."""
        app = args["app"] % APP_SLOTS
        view = self._r_view(args["view_i"])
        if view is None:
            return "skipped"
        version = self._pick(self.model.versions_of(view), args["version_sel"])
        if version is None:  # pragma: no cover - histories are never empty
            return "skipped"

        def real():
            self.db.view(view).pin(version)

        def oracle(_value):
            self.model._resolved(view, version)

        outcome = self._two_sided("pin_view_version", real, oracle)
        if outcome == "applied":
            self.apps[app] = (view, version)
        return outcome

    def _op_read_via_version(self, args) -> str:
        """Read every observable of the app's pinned view version and
        compare against the oracle's historical bindings over the live
        objects — the paper's never-upgraded application."""
        app = args["app"] % APP_SLOTS
        binding = self.apps.get(app)
        if binding is None:
            return "skipped"
        view, version = binding
        try:
            dump = self.db.view(view).pin(version).dump()
        except TseError as exc:
            raise Divergence(
                "pinned-read", "read_via_version", self.step,
                f"app {app}: pinned read of {view!r} v{version} raised "
                f"{type(exc).__name__}: {exc}",
            )
        difference = self._first_difference(
            view,
            dump,
            self.model.dump(view, version=version),
            self.model.anc_pairs(view, version),
        )
        if difference is not None:
            raise Divergence(
                "observe:pinned_dump", "read_via_version", self.step,
                f"app {app}: {view!r} v{version}: {': '.join(difference)}",
            )
        return "applied"

    def _op_write_via_version(self, args) -> str:
        """One generic update through the app's pinned handle.  Old views
        stay updatable; the post-step sweep asserts the write propagated to
        every *current* view (including merged ones), and a retired pin is
        an agreed rejection on both sides."""
        app = args["app"] % APP_SLOTS
        binding = self.apps.get(app)
        if binding is None:
            return "skipped"
        view, version = binding
        prep = self._prepare_update(view, version, command_from_dict(args["inner"]))
        if prep is None:
            return "skipped"
        return self._two_sided("write_via_version", *prep)

    def _op_roll_app(self, args) -> str:
        """Rolling upgrade: rebind the app slot to the successor version.
        An app already on the newest version has nowhere to roll."""
        app = args["app"] % APP_SLOTS
        binding = self.apps.get(app)
        if binding is None:
            return "skipped"
        view, version = binding
        if version >= self.model.version(view):
            return "skipped"
        self.apps[app] = (view, version + 1)
        return "applied"

    def _op_retire_version(self, args) -> str:
        """Two-sided retirement, then a full version-lifecycle comparison
        (the rows ``versions()`` answers must match the oracle's)."""
        view = self._r_view(args["view_i"])
        if view is None:
            return "skipped"
        version = self._pick(self.model.versions_of(view), args["version_sel"])
        if version is None:  # pragma: no cover - histories are never empty
            return "skipped"

        def real():
            self.db.retire_view_version(view, version)

        def oracle(_value):
            self.model.retire_view(view, version)

        outcome = self._two_sided("retire_version", real, oracle)
        self._check_lifecycle("retire_version")
        return outcome

    def _check_lifecycle(self, op: str) -> None:
        real_rows = self.db.views.history.versions()
        oracle_rows = self.model.lifecycle_rows()
        if real_rows != oracle_rows:
            raise Divergence(
                "observe:lifecycle", op, self.step,
                f"real {real_rows!r} != oracle {oracle_rows!r}",
            )

    def _op_merge_views(self, args) -> str:
        """Section 7 version merging as a two-sided command; the post-step
        sweep then compares every observable of the merged view."""
        first = self._r_view(args["first_i"])
        second = self._r_view(args["second_i"])
        if first is None or second is None:
            return "skipped"
        first_version = second_version = None
        if args.get("pin_first"):
            first_version = self._pick(
                self.model.versions_of(first), args["first_sel"]
            )
        if args.get("pin_second"):
            second_version = self._pick(
                self.model.versions_of(second), args["second_sel"]
            )
        name = args["name"]

        def real():
            self.db.merge_views(
                first,
                second,
                name,
                first_version=first_version,
                second_version=second_version,
            )

        def oracle(_value):
            self.model.merge_views(
                first, second, name, first_version, second_version
            )

        return self._two_sided("merge_views", real, oracle)

    # ------------------------------------------------------------------
    # the per-step observable equivalence check
    # ------------------------------------------------------------------

    @staticmethod
    def _closure(edges) -> Set[Tuple[str, str]]:
        parents: Dict[str, Set[str]] = {}
        for sup, sub in edges:
            parents.setdefault(sub, set()).add(sup)
        pairs: Set[Tuple[str, str]] = set()
        for cls in set(parents):
            frontier = list(parents.get(cls, ()))
            seen: Set[str] = set()
            while frontier:
                anc = frontier.pop()
                if anc in seen:
                    continue
                seen.add(anc)
                pairs.add((anc, cls))
                frontier.extend(parents.get(anc, ()))
        return pairs

    @classmethod
    def _first_difference(
        cls, view: str, real: dict, oracle: dict, oracle_pairs
    ) -> Optional[Tuple[str, str]]:
        """Walk a view's real and oracle dumps in one fixed order — classes,
        version, is-a closure, then per class its attributes, methods,
        extent, count and object values — and return the first
        disagreement as ``(kind, detail)``, or ``None``.  The order fixes
        which kind a divergence reports, which is what ddmin preserves."""
        classes = sorted(real["classes"])
        if classes != oracle["classes"]:
            return "classes", f"{view!r}: real {classes} != oracle {oracle['classes']}"
        if real["version"] != oracle["version"]:
            return (
                "version",
                f"{view!r}: real v{real['version']} != oracle v{oracle['version']}",
            )
        real_pairs = cls._closure(real["edges"])
        if real_pairs != oracle_pairs:
            return (
                "edges",
                f"{view!r}: is-a closure differs: real-only "
                f"{sorted(real_pairs - oracle_pairs)}, oracle-only "
                f"{sorted(oracle_pairs - real_pairs)}",
            )
        if real["by_class"] == oracle["by_class"]:
            return None
        for name in classes:
            mine, theirs = real["by_class"][name], oracle["by_class"][name]
            if mine == theirs:
                continue
            for kind in ("attributes", "methods", "extent", "count"):
                if mine[kind] != theirs[kind]:
                    return (
                        kind,
                        f"{view!r}.{name!r}: real {mine[kind]} != oracle {theirs[kind]}",
                    )
            for oid in theirs["extent"]:
                if mine["objects"][oid] != theirs["objects"][oid]:
                    return (
                        "values",
                        f"{view!r}.{name!r} object {oid}: real "
                        f"{mine['objects'][oid]} != oracle {theirs['objects'][oid]}",
                    )
        return None

    def _check_equivalence(self, op: str) -> None:
        """Compare every observable of every view against the oracle.

        Each view is read through one ``ViewHandle.dump()`` — a single
        latched resolution per view — and walked against the oracle's dump
        by :meth:`_first_difference`.  ``tests/test_view_dump.py`` checks
        that ``dump()`` answers exactly what the per-call accessor surface
        does.
        """
        def div(what: str, detail: str):
            raise Divergence(f"observe:{what}", op, self.step, detail)

        # Skip the sweep when neither side changed since the last *passing*
        # sweep: the real side's schema/pool generation counters cover every
        # schema change and every membership/value mutation, the oracle's
        # mutation counter covers its whole observable surface, and the
        # incarnation number changes whenever a recovered database is
        # swapped in (its counters could coincide with the dead one's).
        state_key = (
            self._db_incarnation,
            self.db.schema.generation,
            self.db.pool.generation,
            self.model.mutations,
        )
        if state_key == self._last_sweep_key:
            return

        real_views = sorted(self.db.view_names())
        if real_views != self.model.view_names():
            div("views", f"real {real_views} != oracle {self.model.view_names()}")
        real_rows = self.db.views.history.versions()
        oracle_rows = self.model.lifecycle_rows()
        if real_rows != oracle_rows:
            div("lifecycle", f"real {real_rows!r} != oracle {oracle_rows!r}")
        for view in real_views:
            difference = self._first_difference(
                view,
                self.db.view(view).dump(),
                self.model.dump(view),
                self.model.anc_pairs(view),
            )
            if difference is not None:
                div(*difference)
        self._last_sweep_key = state_key


class _AbortTxn(Exception):
    """Sentinel that rolls a fuzzed savepoint back."""


# ---------------------------------------------------------------------------
# standalone drivers
# ---------------------------------------------------------------------------


def run_commands(
    commands: List[Command], wal_dir=None
) -> Optional[Divergence]:
    """Replay an explicit command list; return the first divergence (or
    ``None``).  Used by corpus replays and ddmin probes."""
    harness = DifferentialHarness(wal_dir)
    try:
        for command in commands:
            harness.apply(command)
        return None
    except Divergence as divergence:
        return divergence
    finally:
        harness.close()


def run_sequence(
    seed: int,
    length: int = 20,
    config: Optional[dict] = None,
    wal_dir=None,
) -> Tuple[List[Command], Optional[Divergence]]:
    """Generate and run one seeded random sequence (setup prefix plus
    ``length`` random commands); return ``(commands, divergence_or_None)``."""
    generator = CommandGenerator(seed, config)
    commands = generator.generate(length)
    return commands, run_commands(commands, wal_dir=wal_dir)


# ---------------------------------------------------------------------------
# Hypothesis stateful wrapper
# ---------------------------------------------------------------------------

try:  # pragma: no cover - import guard
    import hypothesis.strategies as st
    from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

    _MACHINE_OPS = sorted(set(c.op for c in CommandGenerator(0).generate(0)) | {
        "create", "add", "remove", "set", "delete", "txn", "apply_many",
        "checkpoint", "crash", "recover_clean",
        "reader_open", "reader_check", "reader_refresh", "reader_close",
        "define_class", "create_view",
    } | set(SCHEMA_OPS) | set(MIGRATION_OPS) | set(VERSION_OPS))

    class DifferentialMachine(RuleBasedStateMachine):
        """Hypothesis drives op choice and per-step randomness; the harness
        checks real-vs-oracle equivalence after every rule."""

        def __init__(self):
            super().__init__()
            self.harness = DifferentialHarness()
            self.generator = CommandGenerator(0)

        @initialize()
        def setup(self):
            for command in self.generator.setup_commands():
                self.harness.apply(command)

        @rule(
            op=st.sampled_from(_MACHINE_OPS),
            salt=st.integers(min_value=0, max_value=2**32 - 1),
        )
        def step(self, op, salt):
            command = self.generator.gen_op(op, random.Random(salt))
            self.harness.apply(command)

        def teardown(self):
            self.harness.close()

except ImportError:  # pragma: no cover - hypothesis is an optional dep
    DifferentialMachine = None
