"""Interpreter: executes parsed commands against a view of a TSE database.

Binds the command language to the public API: schema changes route through
the TSE Manager (transparent evolution on the bound view), ``defineVC``
through the algebra processor, updates through the generic update engine.
The interpreter is what the examples use to replay the paper's own command
lines verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.errors import ParseError, UnknownClass
from repro.algebra.define import DefineStatement
from repro.core.database import TseDatabase
from repro.core.handles import ObjectHandle, ViewHandle
from repro.lang.parser import (
    Command,
    DefineVcCmd,
    DefineViewCmd,
    MergeCmd,
    QuerySpec,
    Refinement,
    SchemaChangeCmd,
    UpdateCmd,
    parse_command,
    parse_script,
)
from repro.schema.classes import Derivation, SharedProperty
from repro.schema.properties import Attribute


@dataclass
class CommandResult:
    """Outcome of executing one command."""

    command: Command
    kind: str
    detail: str = ""
    objects: Sequence[ObjectHandle] = ()
    count: int = 0


class Interpreter:
    """Executes commands in the context of one view."""

    def __init__(self, db: TseDatabase, view_name: str) -> None:
        self.db = db
        self.view_name = view_name

    @property
    def view(self) -> ViewHandle:
        return self.db.view(self.view_name)

    # ------------------------------------------------------------------

    def execute(self, source_or_command: Union[str, Command]) -> CommandResult:
        """Execute one command (string or pre-parsed AST)."""
        command = (
            parse_command(source_or_command)
            if isinstance(source_or_command, str)
            else source_or_command
        )
        if isinstance(command, SchemaChangeCmd):
            return self._schema_change(command)
        if isinstance(command, DefineVcCmd):
            return self._definevc(command)
        if isinstance(command, DefineViewCmd):
            view = self.view.schema
            globals_ = [
                view.global_name_of(c) if view.has_class(c) else c
                for c in command.classes
            ]
            self.db.create_view(command.name, globals_, closure="ignore")
            return CommandResult(command, "defineview", detail=command.name)
        if isinstance(command, UpdateCmd):
            return self._update(command)
        if isinstance(command, MergeCmd):
            self.db.merge_views(command.first, command.second, command.into)
            return CommandResult(command, "merge", detail=command.into)
        raise ParseError(f"unhandled command {command!r}")  # pragma: no cover

    def run_script(self, source: str) -> List[CommandResult]:
        return [self.execute(cmd) for cmd in parse_script(source)]

    # ------------------------------------------------------------------

    def _schema_change(self, cmd: SchemaChangeCmd) -> CommandResult:
        view = self.view
        operation, kwargs = cmd.handle_call()
        getattr(view, operation)(**kwargs)
        return CommandResult(
            cmd, "schema_change", detail=f"{self.view_name} -> v{view.version}"
        )

    # ------------------------------------------------------------------

    def _definevc(self, cmd: DefineVcCmd) -> CommandResult:
        derivation = self._derivation(cmd.query)
        effective = self.db.define_virtual_class(cmd.name, derivation)
        return CommandResult(cmd, "definevc", detail=effective)

    def _derivation(self, query: QuerySpec) -> Derivation:
        view = self.view.schema

        def resolve(name: str) -> str:
            # source names may be view names or raw global names
            if view.has_class(name):
                return view.global_name_of(name)
            return name

        sources = tuple(resolve(s) for s in query.sources)
        if query.op == "select":
            return Derivation(op="select", sources=sources, predicate=query.predicate)
        if query.op == "hide":
            return Derivation(op="hide", sources=sources, hidden=query.hidden)
        if query.op == "refine":
            new_props = []
            shared = []
            for refinement in query.refinements:
                if refinement.second is not None and (
                    refinement.first in self.db.schema
                    or view.has_class(refinement.first)
                ):
                    shared.append(
                        SharedProperty(
                            from_class=resolve(refinement.first),
                            name=refinement.second,
                        )
                    )
                else:
                    new_props.append(
                        Attribute(
                            refinement.first, domain=refinement.second or "any"
                        )
                    )
            return Derivation(
                op="refine",
                sources=sources,
                new_properties=tuple(new_props),
                shared_properties=tuple(shared),
            )
        return Derivation(op=query.op, sources=sources)

    # ------------------------------------------------------------------

    def _update(self, cmd: UpdateCmd) -> CommandResult:
        view = self.view
        if cmd.op == "create":
            handle = view[cmd.target].create(**dict(cmd.assigns))
            return CommandResult(cmd, "create", objects=[handle], count=1)
        if cmd.op == "set":
            cls = view[cmd.target]
            if cmd.predicate is None:
                targets = cls.extent()
            else:
                targets = cls.select_where(cmd.predicate)
            if targets:
                self.db.engine.set_values(
                    [h.oid for h in targets],
                    cls.global_name,
                    {
                        view.schema.visible_property(cmd.target, name): value
                        for name, value in cmd.assigns
                    },
                )
            return CommandResult(cmd, "set", objects=targets, count=len(targets))
        if cmd.op == "delete":
            cls = view[cmd.target]
            targets = (
                cls.extent() if cmd.predicate is None else cls.select_where(cmd.predicate)
            )
            self.db.engine.delete([h.oid for h in targets])
            return CommandResult(cmd, "delete", count=len(targets))
        if cmd.op == "add":
            source_cls = view[cmd.source]
            targets = (
                source_cls.extent()
                if cmd.predicate is None
                else source_cls.select_where(cmd.predicate)
            )
            view[cmd.target].add_objects(targets)
            return CommandResult(cmd, "add", objects=targets, count=len(targets))
        if cmd.op == "remove":
            cls = view[cmd.target]
            targets = (
                cls.extent() if cmd.predicate is None else cls.select_where(cmd.predicate)
            )
            self.db.engine.remove([h.oid for h in targets], cls.global_name)
            return CommandResult(cmd, "remove", count=len(targets))
        raise ParseError(f"unknown update {cmd.op!r}")  # pragma: no cover
