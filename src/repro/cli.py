"""``tse-shell`` — an interactive console over a TSE database.

Speaks the paper's command language (schema changes, ``defineVC``, generic
updates, ``merge``) plus a handful of meta-commands:

.. code-block:: text

    .help                 show this summary
    .views                list views and their current versions
    .use <view>           switch the session to another view
    .show                 print the current view schema
    .classes              list classes of the current view
    .extent <class>       list the objects of a class
    .history              print the evolution log
    .stats [reset]        database counters incl. extent-cache behaviour;
                          `reset` zeroes every resettable counter
    .metrics [--prom]     unified metrics registry as JSON (or Prometheus
                          text format with --prom)
    .sessions [on]        concurrent-session layer: attach it with `on`;
                          without arguments, show the latch / epoch /
                          session counters
    .trace on|off         enable/disable pipeline tracing
    .trace show [n]       render the last n recorded span trees (default 5)
    .trace export <file>  write the span ring as Chrome trace-event JSON
                          (open in Perfetto / chrome://tracing)
    .explain <stmt>       dry-run a schema-change statement: the defineVC
                          script, classifier dedup decisions, affected
                          extents, predicted rechecks and per-phase timings
                          — nothing is committed
    .top                  one-screen operational stats: per-op schema-change
                          latency quantiles, hottest spans, sessions, WAL,
                          flight recorder; `.top watch [secs]` refreshes
                          live until interrupted
    .flight show [n]      last n flight-recorder records (default 10)
    .flight dump [why]    write a crash dossier now; prints its path
    .flight dir <path>    set the dossier directory (enables automatic
                          dumps on failure / recovery / divergence)
    .flight log <file>    mirror flight records to a JSONL file (rotating)
    .compile              predicate compiler counters (closures built,
                          cache hits, fallbacks, cache size)
    .batch begin          start collecting update statements instead of
                          executing them
    .batch commit         apply the collected updates as ONE atomic batch
                          (`TseDatabase.apply_many`: one latch, one WAL
                          group commit, all-or-nothing); where-clauses
                          resolve against the pre-batch state, so they
                          do not see updates queued in the same batch
    .batch abort          discard the collected updates
    .batch status         how many updates are pending
    .serve <host> <port>  serve this database over TCP: the framed-JSON
                          multi-tenant protocol of docs/PROTOCOL.md
                          (port 0 picks a free port); Ctrl-C stops and
                          prints a summary
    .save <path>          persist the database
    .wal on <dir>         attach a write-ahead log rooted at <dir>
    .wal stats            durability counters (lsn, ops, log bytes, ...)
    .checkpoint           atomic snapshot + log prune (requires .wal on)
    .recover <dir>        replace the session database with the one
                          recovered from a WAL directory
    .quit                 leave the shell

Everything else on a line is handed to the command-language interpreter,
e.g. ``add_attribute register : str to Student`` or
``create Student [name = "Ada"]``.

Programmatic use (and the tests) drive :func:`run_shell` directly with a
list of input lines; ``main`` wires it to stdin.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Iterable, List, Optional

from repro.errors import TseError
from repro.algebra import compiler as compilermod
from repro.core.database import TseDatabase
from repro.core.explain import PRIMITIVE_OPS
from repro.lang.interpreter import Interpreter
from repro.lang.parser import UpdateCmd, parse_command
from repro.persistence import load_database, save_database

HELP_TEXT = __doc__.split(".. code-block:: text")[1].split("Everything else")[0]


def _meta_command(
    db: TseDatabase, state: dict, line: str, emit: Callable[[str], None]
) -> bool:
    """Handle one ``.meta`` command; returns False on ``.quit``."""
    parts = line.split()
    command, args = parts[0], parts[1:]
    if command == ".help":
        emit(HELP_TEXT.strip("\n"))
    elif command == ".views":
        for name in db.view_names():
            current = db.views.current(name)
            marker = "*" if name == state["view"] else " "
            emit(f" {marker} {current.label}  ({len(current.selected)} classes)")
    elif command == ".use":
        if not args:
            emit("usage: .use <view>")
        else:
            db.views.current(args[0])  # raises on unknown
            state["view"] = args[0]
            emit(f"now using view {args[0]!r}")
    elif command == ".show":
        emit(db.view(state["view"]).describe())
    elif command == ".classes":
        view = db.view(state["view"])
        for cls in view.class_names():
            props = ", ".join(view[cls].property_names())
            emit(f"  {cls}({props})")
    elif command == ".extent":
        if not args:
            emit("usage: .extent <class>")
        else:
            view = db.view(state["view"])
            for handle in view[args[0]].extent():
                emit(f"  {handle.oid}: {handle.values()}")
    elif command == ".history":
        for record in db.evolution_log():
            emit(
                f"  {record.view_name} v{record.old_version}->v{record.new_version}: "
                f"{record.plan.provenance}"
            )
    elif command == ".stats":
        if args and args[0] == "reset":
            db.reset_stats()
            emit("stats reset")
        elif args:
            emit("usage: .stats [reset]")
        else:
            for key, value in db.stats().items():
                if isinstance(value, dict):
                    emit(f"  {key}:")
                    for sub_key, sub_value in value.items():
                        emit(f"    {sub_key}: {sub_value}")
                else:
                    emit(f"  {key}: {value}")
    elif command == ".metrics":
        if args and args[0] == "--prom":
            for line in db.obs.metrics.to_prometheus().rstrip("\n").split("\n"):
                emit(line)
        elif args:
            emit("usage: .metrics [--prom]")
        else:
            import json as _json

            emit(_json.dumps(db.stats(), indent=2, default=str))
    elif command == ".sessions":
        if args and args[0] == "on":
            db.sessions()
            emit("session layer attached (schema latch + epoch snapshots)")
        elif args:
            emit("usage: .sessions [on]")
        elif db._sessions is None:
            emit("no session layer attached (use .sessions on)")
        else:
            for key, value in db._sessions.stats_dict().items():
                emit(f"  {key}: {value}")
    elif command == ".trace":
        if not args:
            status = "on" if db.obs.tracer.enabled else "off"
            emit(f"tracing is {status} ({len(db.obs.tracer.traces())} trace(s) buffered)")
        elif args[0] == "on":
            db.obs.tracer.enable()
            emit("tracing enabled")
        elif args[0] == "off":
            db.obs.tracer.disable()
            emit("tracing disabled")
        elif args[0] == "show":
            try:
                limit = int(args[1]) if len(args) > 1 else 5
            except ValueError:
                emit("usage: .trace show [n]")
                return True
            traces = db.obs.tracer.traces(limit)
            if not traces:
                emit("no traces recorded (enable with .trace on)")
            for root in traces:
                for line in root.render_lines():
                    emit("  " + line)
        elif args[0] == "export":
            if len(args) != 2:
                emit("usage: .trace export <file>")
            else:
                from repro.obs.traceexport import export_chrome_trace

                trace = export_chrome_trace(db.obs.tracer, path=args[1])
                emit(
                    f"wrote {len(trace['traceEvents'])} trace event(s) to "
                    f"{args[1]} (load in Perfetto or chrome://tracing)"
                )
        else:
            emit("usage: .trace on|off|show [n]|export <file>")
    elif command == ".explain":
        statement = line[len(".explain"):].strip()
        if not statement:
            emit("usage: .explain <schema-change statement>")
        else:
            from repro.lang.parser import SchemaChangeCmd

            parsed = parse_command(statement)
            if not isinstance(parsed, SchemaChangeCmd):
                emit("error: .explain takes a schema-change statement "
                     "(e.g. add_attribute x : str to Student)")
            else:
                operation, explain_args = parsed.handle_call()
                if operation not in PRIMITIVE_OPS:
                    emit(f"error: {operation} is a composite operation; "
                         ".explain covers the eight primitives")
                    return True
                report = db.explain(state["view"], operation, **explain_args)
                for out_line in report.render_lines():
                    emit(out_line)
    elif command == ".top":
        if args and args[0] == "watch":
            try:
                interval = float(args[1]) if len(args) > 1 else 2.0
            except ValueError:
                emit("usage: .top watch [seconds]")
                return True
            import time as _time

            try:
                while True:
                    emit("\x1b[2J\x1b[H", )
                    for out_line in _render_top(db):
                        emit(out_line)
                    _time.sleep(interval)
            except KeyboardInterrupt:
                emit("")
        elif args:
            emit("usage: .top [watch [seconds]]")
        else:
            for out_line in _render_top(db):
                emit(out_line)
    elif command == ".flight":
        flight = db.obs.flight
        action = args[0] if args else "show"
        if action == "show":
            try:
                limit = int(args[1]) if len(args) > 1 else 10
            except ValueError:
                emit("usage: .flight show [n]")
                return True
            records = flight.tail(limit)
            if not records:
                emit("flight recorder is empty")
            for record in records:
                detail = " ".join(
                    f"{k}={v}" for k, v in record.items()
                    if k not in ("seq", "t", "kind")
                )
                emit(f"  #{record['seq']} {record['kind']} {detail}".rstrip())
        elif action == "dump":
            reason = args[1] if len(args) > 1 else "manual"
            path = flight.dump_dossier(reason, directory=flight.dossier_dir or ".")
            emit(f"dossier written to {path}")
        elif action == "dir":
            if len(args) != 2:
                emit("usage: .flight dir <path>")
            else:
                from pathlib import Path as _Path

                flight.dossier_dir = _Path(args[1])
                emit(
                    f"dossier directory set to {args[1]} (automatic dumps on "
                    "failure/recovery/divergence)"
                )
        elif action == "log":
            if len(args) != 2:
                emit("usage: .flight log <file>")
            else:
                flight.enable_file(args[1])
                emit(f"flight records mirrored to {args[1]}")
        else:
            emit("usage: .flight show [n]|dump [why]|dir <path>|log <file>")
    elif command == ".serve":
        try:
            port = int(args[1]) if len(args) == 2 else None
        except ValueError:
            port = None
        if len(args) != 2 or port is None:
            emit("usage: .serve <host> <port>")
        else:
            stats = db.serve(args[0], port)
            emit(
                f"server stopped: {stats['requests_served']} request(s) "
                f"served, {stats['connections_accepted']} connection(s), "
                f"{stats['connections_shed']} shed"
            )
    elif command == ".save":
        if not args:
            emit("usage: .save <path>")
        else:
            save_database(db, args[0])
            emit(f"saved to {args[0]}")
    elif command == ".wal":
        if args and args[0] == "on":
            if len(args) != 2:
                emit("usage: .wal on <dir>")
            else:
                db.enable_wal(args[1])
                emit(f"write-ahead log attached at {args[1]} (initial checkpoint taken)")
        elif args and args[0] == "stats":
            if db.wal is None:
                emit("no write-ahead log attached (use .wal on <dir>)")
            else:
                for key, value in db.wal.stats_dict().items():
                    emit(f"  {key}: {value}")
        else:
            emit("usage: .wal on <dir> | .wal stats")
    elif command == ".checkpoint":
        path = db.checkpoint()  # raises StorageError when no WAL is attached
        emit(
            f"checkpoint written to {path} "
            f"({db.wal.last_checkpoint_seconds * 1000:.1f} ms)"
        )
    elif command == ".recover":
        if not args:
            emit("usage: .recover <dir>")
        else:
            recovered = TseDatabase.recover(args[0])
            state["db"] = recovered
            views = recovered.view_names()
            if state["view"] not in views and views:
                state["view"] = views[0]
            wal = recovered.wal
            emit(
                f"recovered from {args[0]}: {wal.records_replayed} record(s) "
                f"replayed, lsn {wal.lsn}, ops_committed {wal.ops_committed} "
                f"({wal.last_recovery_seconds * 1000:.1f} ms); "
                f"now using view {state['view']!r}"
            )
    elif command == ".compile":
        emit("predicate compiler")
        for key, value in compilermod.compiler_stats().items():
            emit(f"  {key}: {value}")
    elif command == ".batch":
        action = args[0] if args else "status"
        if action == "begin":
            if state.get("batch") is not None:
                emit("already in a batch (commit or abort it first)")
            else:
                state["batch"] = []
                emit("batch started; update statements are now collected")
        elif action == "commit":
            pending = state.get("batch")
            if pending is None:
                emit("no batch in progress (use .batch begin)")
            else:
                state["batch"] = None
                results = db.apply_view_updates(
                    state["view"], [_view_update(cmd) for cmd in pending]
                )
                state["executed"] += len(results)
                emit(f"batch committed: {len(results)} update(s) applied atomically")
        elif action == "abort":
            pending = state.get("batch")
            state["batch"] = None
            count = 0 if pending is None else len(pending)
            emit(f"batch aborted ({count} pending update(s) discarded)")
        elif action == "status":
            pending = state.get("batch")
            if pending is None:
                emit("no batch in progress")
            else:
                emit(f"batch in progress: {len(pending)} update(s) pending")
        else:
            emit("usage: .batch begin|commit|abort|status")
    elif command == ".quit":
        return False
    else:
        emit(f"unknown meta-command {command!r} (try .help)")
    return True


def _histogram_children(entry) -> List[tuple]:
    """A histogram-family snapshot as ``[(label, as_dict), ...]`` whether the
    family is a bare unlabelled histogram or a labelled dict of them."""
    if isinstance(entry, dict) and "count" in entry:
        return [("", entry)]
    if isinstance(entry, dict):
        return sorted(entry.items())
    return []


def _render_top(db: TseDatabase) -> List[str]:
    """One screen of operational stats (the ``.top`` meta-command)."""
    snap = db.stats()
    flight = db.obs.flight.stats_dict()
    lines = ["== ops =="]
    lines.append(
        f"  schema changes: {snap.get('schema_changes_applied', 0)} applied, "
        f"{snap.get('schema_changes_failed', 0)} failed; "
        f"spans recorded: {db.obs.tracer.spans_recorded}"
    )
    latency = _histogram_children(snap.get("schema_change_seconds", {}))
    if latency:
        lines.append("== schema-change latency (by op) ==")
        for label, hist in latency:
            lines.append(
                f"  {label or '(all)'}: n={hist['count']} "
                f"p50={hist['p50'] * 1000:.3f}ms p95={hist['p95'] * 1000:.3f}ms "
                f"p99={hist['p99'] * 1000:.3f}ms"
            )
    spans = _histogram_children(snap.get("span_duration_seconds", {}))
    if spans:
        lines.append("== hottest spans ==")
        hottest = sorted(spans, key=lambda kv: -kv[1]["count"])[:5]
        for label, hist in hottest:
            lines.append(
                f"  {label}: n={hist['count']} p95={hist['p95'] * 1000:.3f}ms"
            )
    concurrency = snap.get("concurrency")
    if isinstance(concurrency, dict):
        lines.append("== sessions ==")
        lines.append(
            f"  readers={concurrency.get('readers_opened', 0)} "
            f"writers={concurrency.get('writers_opened', 0)}"
        )
        reads = snap.get("session_reads")
        if isinstance(reads, dict):
            busiest = sorted(reads.items(), key=lambda kv: -kv[1])[:5]
            for label, count in busiest:
                lines.append(f"  reads{label}: {count}")
    wal_kinds = snap.get("wal_appends_by_kind")
    if isinstance(wal_kinds, dict):
        lines.append("== wal appends (by record kind) ==")
        for label, count in sorted(wal_kinds.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {label}: {count}")
    lines.append("== flight recorder ==")
    lines.append(
        f"  records={flight['records']} slow_ops={flight['slow_ops']} "
        f"dossiers={flight['dossiers']} buffered={flight['buffered']}"
    )
    return lines


def _view_update(cmd: UpdateCmd) -> dict:
    """One collected update statement as a
    :meth:`TseDatabase.apply_view_updates` spec.  The facade resolves
    aliases and ``where``/extent targets at commit time, against the
    pre-batch state."""
    spec = {"op": cmd.op, "class": cmd.target, "values": dict(cmd.assigns)}
    if cmd.source is not None:
        spec["from"] = cmd.source
    if cmd.predicate is not None:
        spec["where"] = cmd.predicate.to_dict()
    return spec


def run_shell(
    db: TseDatabase,
    view_name: str,
    lines: Iterable[str],
    emit: Callable[[str], None] = print,
) -> dict:
    """Execute shell input against ``db`` in the context of ``view_name``.

    Returns the final session state (current view name, commands executed,
    errors encountered) so tests can assert on it.
    """
    # ``db`` lives in the state dict so ``.recover`` can swap the session
    # over to the recovered database mid-stream
    state = {"view": view_name, "executed": 0, "errors": 0, "db": db}
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("."):
            try:
                if not _meta_command(state["db"], state, line, emit):
                    break
            except TseError as exc:
                state["errors"] += 1
                emit(f"error: {exc}")
            continue
        if state.get("batch") is not None:
            # inside .batch begin/.batch commit: collect updates, run nothing
            try:
                parsed = parse_command(line)
                if not isinstance(parsed, UpdateCmd):
                    raise TseError(
                        "only generic updates (create/set/delete/add/remove) "
                        "can be batched"
                    )
            except TseError as exc:
                state["errors"] += 1
                emit(f"error: {exc}")
                continue
            state["batch"].append(parsed)
            emit(f"queued ({len(state['batch'])} pending)")
            continue
        try:
            result = Interpreter(state["db"], state["view"]).execute(line)
        except TseError as exc:
            state["errors"] += 1
            emit(f"error: {exc}")
            continue
        state["executed"] += 1
        if result.kind == "create":
            emit(f"created {result.objects[0].oid}")
        elif result.kind in ("set", "delete", "add", "remove"):
            emit(f"{result.kind}: {result.count} object(s)")
        elif result.kind == "schema_change":
            emit(f"schema change applied; {result.detail}")
        elif result.kind == "defineview":
            emit(f"created view {result.detail} (use .use {result.detail})")
        elif result.kind == "definevc":
            emit(f"defined virtual class {result.detail}")
        elif result.kind == "merge":
            emit(f"merged into view {result.detail}")
    return state


def _bootstrap_database(path: Optional[str]) -> TseDatabase:
    if path:
        return load_database(path)
    # an empty playground database with one view, so the shell is usable
    from repro.schema.properties import Attribute

    db = TseDatabase()
    db.define_class("Object_", [Attribute("label", domain="str")])
    db.create_view("main", ["Object_"], closure="ignore")
    return db


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tse-shell",
        description="interactive console over a TSE database "
        "(transparent schema evolution)",
    )
    parser.add_argument("database", nargs="?", help="database JSON to load")
    parser.add_argument(
        "--view", default=None, help="view to start in (default: first view)"
    )
    parser.add_argument(
        "--wal",
        default=None,
        metavar="DIR",
        help="durability directory: recover from it when it holds a "
        "checkpoint/log, otherwise attach a fresh write-ahead log",
    )
    args = parser.parse_args(argv)
    if args.wal:
        from pathlib import Path

        from repro.storage.wal import CHECKPOINT_NAME, LOG_NAME

        wal_dir = Path(args.wal)
        log_path = wal_dir / LOG_NAME
        populated = (wal_dir / CHECKPOINT_NAME).exists() or (
            log_path.exists() and log_path.stat().st_size > 0
        )
        if populated:
            db = TseDatabase.recover(wal_dir)
            print(
                f"recovered from {wal_dir}: "
                f"{db.wal.records_replayed} record(s) replayed"
            )
        else:
            db = _bootstrap_database(args.database)
            db.enable_wal(wal_dir)
    else:
        db = _bootstrap_database(args.database)
    views = db.view_names()
    if not views:
        print("database has no views; create one programmatically first")
        return 1
    view_name = args.view or views[0]
    print(f"TSE shell — view {view_name!r}; .help for commands, .quit to exit")

    def stdin_lines():
        while True:
            try:
                yield input(f"{view_name}> ")
            except EOFError:
                return

    run_shell(db, view_name, stdin_lines())
    return 0


if __name__ == "__main__":  # pragma: no cover - manual entry point
    sys.exit(main())
