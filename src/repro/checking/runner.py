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

import copy
import os
import random
import shutil
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.checking.commands import (
    APP_SLOTS,
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
from repro.schema.properties import Attribute
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
_PREP_OPS = UPDATE_OPS + SCHEMA_OPS + ("define_class", "create_view")


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
        # the equivalence sweep reads each view in bulk (one latched read
        # per view, schema-derived plans cached across steps)
        self._dump_plans: Dict[tuple, list] = {}
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
                    prep = self._prepare(op, args)
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

    def _prepare(self, op: str, args: dict):
        """Resolve a command's blind indices against the oracle and return
        ``(real_fn, oracle_fn)``, or ``None`` when a reference cannot be
        resolved (an agreed skip on both systems)."""
        return getattr(self, f"_prep_{op}")(args)

    # -- index resolution (oracle observables are the address space) ----------

    @staticmethod
    def _pick(seq, i):
        seq = list(seq)
        return seq[i % len(seq)] if seq else None

    def _r_view(self, i) -> Optional[str]:
        return self._pick(self.model.view_names(), i)

    def _r_class(self, view: str, i) -> Optional[str]:
        return self._pick(self.model.class_names(view), i)

    def _r_attr(self, view: str, cls: str, i) -> Optional[str]:
        return self._pick(self.model.attribute_names(view, cls), i)

    def _r_oid(self, view: str, cls: str, i):
        return self._pick(self.model.extent_oids(view, cls), i)

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

    # -- generic updates ------------------------------------------------------

    def _prep_create(self, args):
        view = self._r_view(args["view_i"])
        if view is None:
            return None
        cls = self._r_class(view, args["cls_i"])
        if cls is None:
            return None
        attrs = self.model.attribute_names(view, cls)
        assigns: Dict[str, object] = {}
        for i, value in args["assigns"]:
            if attrs:
                assigns[attrs[i % len(attrs)]] = value

        def real():
            return self.db.view(view)[cls].create(**assigns).oid

        def oracle(oid):
            self.model.create(view, cls, assigns, oid)

        return real, oracle

    def _prep_add(self, args):
        view = self._r_view(args["view_i"])
        if view is None:
            return None
        src = self._r_class(view, args["src_cls_i"])
        dest = self._r_class(view, args["cls_i"])
        if src is None or dest is None:
            return None
        oid = self._r_oid(view, src, args["obj_i"])
        if oid is None:
            return None

        def real():
            self.db.view(view)[src].get_object(oid).add_to(dest)

        def oracle(_value):
            self.model.add(view, dest, oid)

        return real, oracle

    def _prep_remove(self, args):
        view = self._r_view(args["view_i"])
        if view is None:
            return None
        cls = self._r_class(view, args["cls_i"])
        if cls is None:
            return None
        oid = self._r_oid(view, cls, args["obj_i"])
        if oid is None:
            return None

        def real():
            self.db.view(view)[cls].get_object(oid).remove_from(cls)

        def oracle(_value):
            self.model.remove(view, cls, oid)

        return real, oracle

    def _prep_set(self, args):
        view = self._r_view(args["view_i"])
        if view is None:
            return None
        cls = self._r_class(view, args["cls_i"])
        if cls is None:
            return None
        oid = self._r_oid(view, cls, args["obj_i"])
        attr = self._r_attr(view, cls, args["attr_i"])
        if oid is None or attr is None:
            return None
        value = args["value"]

        def real():
            self.db.view(view)[cls].get_object(oid).set(attr, value)

        def oracle(_value):
            self.model.set_values(view, cls, oid, {attr: value})

        return real, oracle

    def _prep_delete(self, args):
        view = self._r_view(args["view_i"])
        if view is None:
            return None
        cls = self._r_class(view, args["cls_i"])
        if cls is None:
            return None
        oid = self._r_oid(view, cls, args["obj_i"])
        if oid is None:
            return None

        def real():
            self.db.view(view)[cls].get_object(oid).delete()

        def oracle(_value):
            self.model.delete(oid)

        return real, oracle

    # -- schema evolution -----------------------------------------------------

    def _prep_add_attribute(self, args):
        view = self._r_view(args["view_i"])
        if view is None:
            return None
        to = self._r_class(view, args["to_i"])
        if to is None:
            return None
        name, default = args["name"], args["default"]

        def real():
            self.db.view(view).add_attribute(name, to=to, default=default)

        def oracle(_value):
            self.model.add_property(view, to, Spec(name, "attr", "any", False, default))

        return real, oracle

    def _prep_add_method(self, args):
        view = self._r_view(args["view_i"])
        if view is None:
            return None
        to = self._r_class(view, args["to_i"])
        if to is None:
            return None
        name = args["name"]

        def real():
            self.db.view(view).add_method(name, to=to, body=_noop_method)

        def oracle(_value):
            self.model.add_property(view, to, Spec(name, "method"))

        return real, oracle

    def _prep_delete_attribute(self, args):
        view = self._r_view(args["view_i"])
        if view is None:
            return None
        cls = self._r_class(view, args["cls_i"])
        if cls is None:
            return None
        attr = self._r_attr(view, cls, args["attr_i"])
        if attr is None:
            return None

        def real():
            self.db.view(view).delete_attribute(attr, from_=cls)

        def oracle(_value):
            self.model.delete_property(view, cls, attr, "attr")

        return real, oracle

    def _prep_delete_method(self, args):
        view = self._r_view(args["view_i"])
        if view is None:
            return None
        cls = self._r_class(view, args["cls_i"])
        if cls is None:
            return None
        meth = self._pick(self.model.method_names(view, cls), args["meth_i"])
        if meth is None:
            return None

        def real():
            self.db.view(view).delete_method(meth, from_=cls)

        def oracle(_value):
            self.model.delete_property(view, cls, meth, "method")

        return real, oracle

    def _prep_add_edge(self, args):
        view = self._r_view(args["view_i"])
        if view is None:
            return None
        sup = self._r_class(view, args["sup_i"])
        sub = self._r_class(view, args["sub_i"])
        if sup is None or sub is None:
            return None

        def real():
            self.db.view(view).add_edge(sup, sub)

        def oracle(_value):
            self.model.add_edge(view, sup, sub)

        return real, oracle

    def _prep_delete_edge(self, args):
        view = self._r_view(args["view_i"])
        if view is None:
            return None
        sup = self._r_class(view, args["sup_i"])
        sub = self._r_class(view, args["sub_i"])
        if sup is None or sub is None:
            return None
        conn = None
        if args.get("connect"):
            conn = self._pick(self.model.ancestors(view, sup), args["conn_i"])

        def real():
            self.db.view(view).delete_edge(sup, sub, connected_to=conn)

        def oracle(_value):
            self.model.delete_edge(view, sup, sub, conn)

        return real, oracle

    def _prep_add_class(self, args):
        view = self._r_view(args["view_i"])
        if view is None:
            return None
        conn = None
        if args.get("connect"):
            conn = self._r_class(view, args["conn_i"])
        name = args["name"]

        def real():
            self.db.view(view).add_class(name, connected_to=conn)

        def oracle(_value):
            self.model.add_class(view, name, connected_to=conn)

        return real, oracle

    def _prep_delete_class(self, args):
        view = self._r_view(args["view_i"])
        if view is None:
            return None
        cls = self._r_class(view, args["cls_i"])
        if cls is None:
            return None

        def real():
            self.db.view(view).delete_class(cls)

        def oracle(_value):
            self.model.delete_class(view, cls)

        return real, oracle

    def _prep_rename_class(self, args):
        view = self._r_view(args["view_i"])
        if view is None:
            return None
        cls = self._r_class(view, args["cls_i"])
        if cls is None:
            return None
        new = args["new"]

        def real():
            self.db.view(view).rename_class(cls, new)

        def oracle(_value):
            self.model.rename_class(view, cls, new)

        return real, oracle

    def _prep_rename_property(self, args):
        view = self._r_view(args["view_i"])
        if view is None:
            return None
        cls = self._r_class(view, args["cls_i"])
        if cls is None:
            return None
        props = sorted(
            self.model.attribute_names(view, cls) + self.model.method_names(view, cls)
        )
        old = self._pick(props, args["prop_i"])
        if old is None:
            return None
        new = args["new"]

        def real():
            self.db.view(view).rename_property(cls, old, new)

        def oracle(_value):
            self.model.rename_property(view, cls, old, new)

        return real, oracle

    def _prep_insert_class(self, args):
        view = self._r_view(args["view_i"])
        if view is None:
            return None
        sup = self._r_class(view, args["sup_i"])
        sub = self._r_class(view, args["sub_i"])
        if sup is None or sub is None:
            return None
        name = args["name"]

        def real():
            self.db.view(view).insert_class(name, (sup, sub))

        def oracle(_value):
            self.model.insert_class(view, name, (sup, sub))

        return real, oracle

    def _prep_delete_class_2(self, args):
        view = self._r_view(args["view_i"])
        if view is None:
            return None
        cls = self._r_class(view, args["cls_i"])
        if cls is None:
            return None

        def real():
            self.db.view(view).delete_class_2(cls)

        def oracle(_value):
            self.model.delete_class_2(view, cls)

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
        prep = self._prepare(inner.op, dict(inner.args))
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
        # recovery must be deterministic: recovering the same directory
        # twice yields byte-identical databases (reuses the WAL suite's
        # equivalence assertion when it is importable, i.e. under pytest)
        try:
            from test_wal import assert_equivalent
        except ImportError:  # pragma: no cover - outside the test tree
            assert_equivalent = None
        if assert_equivalent is not None:
            twin = TseDatabase.recover(self.wal_dir, sync=self.sync)
            try:
                assert_equivalent(recovered, twin)
            except AssertionError as exc:
                raise Divergence(
                    "recovery", "recover_clean", self.step,
                    f"two recoveries of the same log differ: {exc}",
                )
        self._install_recovered(recovered)
        return "applied"

    def _recover_after_crash(self) -> None:
        self._install_recovered(TseDatabase.recover(self.wal_dir, sync=self.sync))

    def _install_recovered(self, recovered) -> None:
        self.readers.clear()
        self.pins.clear()
        self._dump_plans.clear()  # plans hold closures over the dead db
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
        prep = self._prepare(command.op, dict(command.args))
        if prep is not None:
            self._two_sided(command.op, *prep)

    # ------------------------------------------------------------------
    # batched updates (TseDatabase.apply_many)
    # ------------------------------------------------------------------

    def _op_apply_many(self, args) -> str:
        """One real ``db.apply_many`` batch vs the oracle.

        Every inner update resolves its blind indices against the
        *pre-batch* oracle state (batches contain only generic updates, so
        the schema is stable throughout) into an engine-level spec plus an
        oracle closure.  The real side then runs the whole batch through
        the batched API — single latch acquisition, one WAL group commit —
        and the outcomes must agree *as a batch*:

        * real applied everything → the oracle must apply every update
          (feeding real create OIDs in order);
        * real raised (rolling the whole batch back) → replaying the
          updates on a throwaway deep-copied shadow must hit an
          ``OracleReject`` somewhere, proving the oracle agrees the batch
          contained a rejected update; the shadow is discarded either way.
        """
        inner = [command_from_dict(d) for d in args["inner"]]
        specs: List[tuple] = []
        oracle_fns: List[Callable] = []
        for cmd in inner:
            built = self._prep_batch_item(cmd)
            if built is not None:
                spec, fn = built
                specs.append(spec)
                oracle_fns.append(fn)
        if not specs:
            return "skipped"
        try:
            results = self.db.apply_many(specs)
        except TseError as exc:
            shadow = self.model.clone_for_updates()
            try:
                for index, fn in enumerate(oracle_fns):
                    fn(shadow, f"batch-dummy-{index}")
            except OracleReject:
                return "rejected"  # whole batch rolled back on both sides
            raise Divergence(
                "outcome",
                "apply_many",
                self.step,
                f"real rolled the batch back ({type(exc).__name__}: {exc}), "
                f"oracle applied all {len(specs)} updates",
            )
        for index, fn in enumerate(oracle_fns):
            try:
                fn(self.model, results[index])
            except OracleReject as exc:
                raise Divergence(
                    "outcome",
                    "apply_many",
                    self.step,
                    f"real applied the whole batch, oracle rejected update "
                    f"#{index}: {exc}",
                )
        return "applied"

    def _prep_batch_item(self, command: Command):
        """Resolve one batch update into ``(engine_spec, oracle_fn)``.

        ``engine_spec`` is the ``(op, kwargs)`` pair ``apply_many`` feeds
        the update engine; ``oracle_fn(model, real_value)`` applies the
        same update to a reference model.  Name translation (view class →
        global class, visible property → underlying property) happens here
        because batches carry no schema changes — the pre-batch schema is
        the schema every update sees.  Returns ``None`` for an
        unresolvable reference (agreed skip, as in :meth:`_prepare`).
        """
        op, args = command.op, dict(command.args)
        view = self._r_view(args["view_i"])
        if view is None:
            return None
        if op == "create":
            cls = self._r_class(view, args["cls_i"])
            if cls is None:
                return None
            attrs = self.model.attribute_names(view, cls)
            assigns: Dict[str, object] = {}
            for i, value in args["assigns"]:
                if attrs:
                    assigns[attrs[i % len(attrs)]] = value
            handle = self.db.view(view)[cls]
            translated = {
                handle._underlying(name): value for name, value in assigns.items()
            }
            spec = ("create", {"class_name": handle.global_name, "assignments": translated})
            return spec, lambda model, value: model.create(view, cls, assigns, value)
        if op == "add":
            src = self._r_class(view, args["src_cls_i"])
            dest = self._r_class(view, args["cls_i"])
            if src is None or dest is None:
                return None
            oid = self._r_oid(view, src, args["obj_i"])
            if oid is None:
                return None
            global_dest = self.db.view(view)[dest].global_name
            spec = ("add", {"oids": [oid], "class_name": global_dest})
            return spec, lambda model, _value: model.add(view, dest, oid)
        if op == "remove":
            cls = self._r_class(view, args["cls_i"])
            if cls is None:
                return None
            oid = self._r_oid(view, cls, args["obj_i"])
            if oid is None:
                return None
            global_cls = self.db.view(view)[cls].global_name
            spec = ("remove", {"oids": [oid], "class_name": global_cls})
            return spec, lambda model, _value: model.remove(view, cls, oid)
        if op == "set":
            cls = self._r_class(view, args["cls_i"])
            if cls is None:
                return None
            oid = self._r_oid(view, cls, args["obj_i"])
            attr = self._r_attr(view, cls, args["attr_i"])
            if oid is None or attr is None:
                return None
            value = args["value"]
            handle = self.db.view(view)[cls]
            spec = (
                "set",
                {
                    "oids": [oid],
                    "class_name": handle.global_name,
                    "assignments": {handle._underlying(attr): value},
                },
            )
            return spec, lambda model, _value: model.set_values(
                view, cls, oid, {attr: value}
            )
        if op == "delete":
            cls = self._r_class(view, args["cls_i"])
            if cls is None:
                return None
            oid = self._r_oid(view, cls, args["obj_i"])
            if oid is None:
                return None

            def oracle_delete(model, _value, _oid=oid):
                # the engine rejects deleting a dead object (the whole
                # batch rolls back); RefModel.delete is a silent no-op, so
                # mirror the engine's liveness guard here
                if _oid not in model.objects:
                    raise OracleReject(f"object {_oid!r} is already deleted")
                model.delete(_oid)

            return ("delete", {"oids": [oid]}), oracle_delete
        raise ValueError(f"unexpected batch op {op!r}")  # pragma: no cover

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
            dump = self.db.view(view).pin(version).dump(self._dump_plans)
        except TseError as exc:
            raise Divergence(
                "pinned-read", "read_via_version", self.step,
                f"app {app}: pinned read of {view!r} v{version} raised "
                f"{type(exc).__name__}: {exc}",
            )
        oracle_dump = self.model.dump(view, version=version)
        if (
            dump["version"] != oracle_dump["version"]
            or sorted(dump["classes"]) != oracle_dump["classes"]
            or dump["by_class"] != oracle_dump["by_class"]
            or self._closure(dump["edges"])
            != self.model.anc_pairs(view, version)
        ):
            raise Divergence(
                "observe:pinned_dump", "read_via_version", self.step,
                f"app {app}: {view!r} v{version}: real {dump!r} != oracle "
                f"{oracle_dump!r}",
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
        prep = self._prep_pinned_write(
            view, version, command_from_dict(args["inner"])
        )
        if prep is None:
            return "skipped"
        return self._two_sided("write_via_version", *prep)

    def _prep_pinned_write(self, view: str, version: int, inner: Command):
        """Resolve one update's blind indices against the oracle's bindings
        *at the pinned version* (class names, attribute aliases, and extents
        as that version sees them)."""
        model = self.model
        op, args = inner.op, dict(inner.args)
        cls = self._pick(model.class_names(view, version), args.get("cls_i", 0))
        if cls is None:
            return None  # pragma: no cover - views are never empty
        handle = lambda c: self.db.view(view).pin(version)[c]
        if op == "create":
            attrs = model.attribute_names(view, cls, version)
            assigns: Dict[str, object] = {}
            for i, value in args["assigns"]:
                if attrs:
                    assigns[attrs[i % len(attrs)]] = value

            def real():
                return handle(cls).create(**assigns).oid

            def oracle(oid):
                model.create(view, cls, assigns, oid, version=version)

            return real, oracle
        if op == "add":
            src = self._pick(
                model.class_names(view, version), args["src_cls_i"]
            )
            if src is None:
                return None  # pragma: no cover - views are never empty
            oid = self._pick(
                model.extent_oids(view, src, version), args["obj_i"]
            )
            if oid is None:
                return None

            def real():
                handle(src).get_object(oid).add_to(cls)

            def oracle(_value):
                model.add(view, cls, oid, version=version)

            return real, oracle
        oid = self._pick(model.extent_oids(view, cls, version), args["obj_i"])
        if oid is None:
            return None
        if op == "remove":

            def real():
                handle(cls).get_object(oid).remove_from(cls)

            def oracle(_value):
                model.remove(view, cls, oid, version=version)

            return real, oracle
        if op == "set":
            attr = self._pick(
                model.attribute_names(view, cls, version), args["attr_i"]
            )
            if attr is None:
                return None
            value = args["value"]

            def real():
                handle(cls).get_object(oid).set(attr, value)

            def oracle(_value):
                model.set_values(view, cls, oid, {attr: value}, version=version)

            return real, oracle
        if op == "delete":

            def real():
                handle(cls).get_object(oid).delete()

            def oracle(_value):
                model._check_writable(view, version)
                model.delete(oid)

            return real, oracle
        raise ValueError(f"unexpected pinned write {op!r}")  # pragma: no cover

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

    def _check_equivalence(self, op: str) -> None:
        """Compare every observable of every view against the oracle.

        Each view is read through one ``ViewHandle.dump()`` — a single
        latched resolution per view — and compared whole; only a view
        that disagrees is drilled down observable by observable to name
        the divergence.  ``tests/test_view_dump.py`` checks that ``dump()``
        answers exactly what the per-call accessor surface does.
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
            dump = self.db.view(view).dump(self._dump_plans)
            oracle_dump = self.model.dump(view)
            if (
                dump["version"] == oracle_dump["version"]
                and sorted(dump["classes"]) == oracle_dump["classes"]
                and dump["by_class"] == oracle_dump["by_class"]
                and self._closure(dump["edges"]) == self.model.anc_pairs(view)
            ):
                continue  # everything agrees; skip the drill-down
            real_classes = sorted(dump["classes"])
            real_version = dump["version"]
            if real_classes != self.model.class_names(view):
                div(
                    "classes",
                    f"{view!r}: real {real_classes} != oracle "
                    f"{self.model.class_names(view)}",
                )
            if real_version != self.model.version(view):
                div(
                    "version",
                    f"{view!r}: real v{real_version} != oracle "
                    f"v{self.model.version(view)}",
                )
            real_pairs = self._closure(dump["edges"])
            oracle_pairs = self.model.anc_pairs(view)
            if real_pairs != oracle_pairs:
                div(
                    "edges",
                    f"{view!r}: is-a closure differs: real-only "
                    f"{sorted(real_pairs - oracle_pairs)}, oracle-only "
                    f"{sorted(oracle_pairs - real_pairs)}",
                )
            for cls in real_classes:
                entry = dump["by_class"][cls]
                real_attrs = entry["attributes"]
                real_methods = entry["methods"]
                real_extent = entry["extent"]
                real_count = entry["count"]
                if real_attrs != self.model.attribute_names(view, cls):
                    div(
                        "attributes",
                        f"{view!r}.{cls!r}: real {real_attrs} != oracle "
                        f"{self.model.attribute_names(view, cls)}",
                    )
                if real_methods != self.model.method_names(view, cls):
                    div(
                        "methods",
                        f"{view!r}.{cls!r}: real {real_methods} != oracle "
                        f"{self.model.method_names(view, cls)}",
                    )
                extent = self.model.extent_oids(view, cls)
                if real_extent != extent:
                    div(
                        "extent",
                        f"{view!r}.{cls!r}: real {real_extent} != oracle {extent}",
                    )
                if real_count != len(extent):
                    div(
                        "count",
                        f"{view!r}.{cls!r}: count {real_count} != {len(extent)}",
                    )
                for oid in extent:
                    real_values = entry["objects"][oid]
                    oracle_values = self.model.object_values(view, cls, oid)
                    if real_values != oracle_values:
                        div(
                            "values",
                            f"{view!r}.{cls!r} object {oid}: real {real_values} "
                            f"!= oracle {oracle_values}",
                        )
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
