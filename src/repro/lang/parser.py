"""Recursive-descent parser for the TSE command language.

Grammar (one command per parse)::

    command        := schema_change | definevc | update | merge
    schema_change  := "add_attribute" IDENT [":" IDENT] "to" CLASS
                    | "delete_attribute" IDENT "from" CLASS
                    | "add_method" IDENT "to" CLASS
                    | "delete_method" IDENT "from" CLASS
                    | "add_edge" CLASS "-" CLASS
                    | "delete_edge" CLASS "-" CLASS ["connected_to" CLASS]
                    | "add_class" CLASS ["connected_to" CLASS]
                    | "delete_class" CLASS
                    | "insert_class" CLASS "between" CLASS "-" CLASS
                    | "delete_class_2" CLASS
    definevc       := "defineVC" CLASS "as" "(" query ")"
    defineview     := "defineview" IDENT "from" CLASS ("," CLASS)*
    query          := "select" "from" CLASS "where" pred
                    | "hide" names "from" CLASS
                    | "refine" refinements "for" CLASS
                    | ("union"|"difference"|"intersect") CLASS "and" CLASS
    refinements    := refinement ("," refinement)*
    refinement     := IDENT [":" IDENT]            -- new property [domain]
                    | CLASS ":" IDENT              -- shared property C1:x
    update         := "create" CLASS [assigns]
                    | "set" CLASS ["where" pred] assigns
                    | "delete" "from" CLASS ["where" pred]
                    | "add" "to" CLASS "from" CLASS ["where" pred]
                    | "remove" "from" CLASS ["where" pred]
    merge          := "merge" IDENT "and" IDENT "into" IDENT
    assigns        := "[" IDENT "=" literal ("," IDENT "=" literal)* "]"
    pred           := or-expression over comparisons, "in { ... }", "is set"

The shared-property refinement is disambiguated structurally: a refinement
``X : y`` is *shared* when ``X`` names an existing class at interpretation
time, otherwise ``y`` is a domain tag for new attribute ``X``.  The parser
emits a neutral AST; the interpreter decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import ParseError
from repro.algebra.expressions import (
    And,
    Compare,
    IsIn,
    IsSet,
    Not,
    Or,
    Predicate,
)
from repro.lang.lexer import Token, tokenize


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

#: ViewHandle keyword name of each positional operand, per statement
_OPERANDS = {
    "add_attribute": ("name", "to"),
    "delete_attribute": ("name", "from_"),
    "add_method": ("name", "to"),
    "delete_method": ("name", "from_"),
    "add_edge": ("sup", "sub"),
    "delete_edge": ("sup", "sub"),
    "add_class": ("name",),
    "delete_class": ("name",),
    "insert_class": ("name", "sup", "sub"),
    "delete_class_2": ("name",),
}


@dataclass(frozen=True)
class SchemaChangeCmd:
    op: str
    args: Tuple[str, ...]
    domain: Optional[str] = None
    connected_to: Optional[str] = None

    def handle_call(self) -> Tuple[str, Dict[str, object]]:
        """The :class:`~repro.core.handles.ViewHandle` method this statement
        names and its keyword arguments: what the interpreter runs and the
        shell's ``.explain`` dry-runs."""
        kwargs: Dict[str, object] = dict(zip(_OPERANDS[self.op], self.args))
        if self.op == "add_attribute":
            kwargs["domain"] = self.domain or "any"
        elif self.op == "add_method":
            kwargs["body"] = None
        elif self.op in ("delete_edge", "add_class"):
            kwargs["connected_to"] = self.connected_to
        elif self.op == "insert_class":
            kwargs["between"] = (kwargs.pop("sup"), kwargs.pop("sub"))
        return self.op, kwargs


@dataclass(frozen=True)
class Refinement:
    first: str
    second: Optional[str] = None  # domain tag or shared property name


@dataclass(frozen=True)
class QuerySpec:
    op: str
    sources: Tuple[str, ...]
    predicate: Optional[Predicate] = None
    hidden: Tuple[str, ...] = ()
    refinements: Tuple[Refinement, ...] = ()


@dataclass(frozen=True)
class DefineVcCmd:
    name: str
    query: QuerySpec


@dataclass(frozen=True)
class UpdateCmd:
    op: str  # create | set | delete | add | remove
    target: str
    source: Optional[str] = None
    predicate: Optional[Predicate] = None
    assigns: Tuple[Tuple[str, object], ...] = ()


@dataclass(frozen=True)
class DefineViewCmd:
    name: str
    classes: Tuple[str, ...]


@dataclass(frozen=True)
class MergeCmd:
    first: str
    second: str
    into: str


Command = Union[SchemaChangeCmd, DefineVcCmd, DefineViewCmd, UpdateCmd, MergeCmd]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: List[Token], source: str) -> None:
        self.tokens = tokens
        self.source = source
        self.index = 0

    # -- plumbing ----------------------------------------------------------

    def _peek(self) -> Optional[Token]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise ParseError(f"unexpected end of command: {self.source!r}")
        self.index += 1
        return token

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._next()
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text or kind
            raise ParseError(
                f"expected {wanted!r}, got {token.text!r} at offset "
                f"{token.position} in {self.source!r}"
            )
        return token

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self._peek()
        if token and token.kind == kind and (text is None or token.text == text):
            self.index += 1
            return token
        return None

    def _name(self) -> str:
        """A class or property name (identifiers and primed identifiers)."""
        token = self._next()
        if token.kind not in ("ident", "keyword"):
            raise ParseError(
                f"expected a name, got {token.text!r} at offset {token.position}"
            )
        return token.text

    def _done(self) -> None:
        token = self._peek()
        if token is not None:
            raise ParseError(
                f"trailing input {token.text!r} at offset {token.position} "
                f"in {self.source!r}"
            )

    # -- entry ----------------------------------------------------------------

    def parse(self) -> Command:
        token = self._next()
        if token.kind != "keyword":
            raise ParseError(f"unknown command start {token.text!r}")
        handler = getattr(self, f"_cmd_{token.text}", None)
        if handler is None:
            raise ParseError(f"unknown command {token.text!r}")
        command = handler()
        self._done()
        return command

    # -- schema changes -----------------------------------------------------------

    def _cmd_add_attribute(self) -> SchemaChangeCmd:
        name = self._name()
        domain = None
        if self._accept("punct", ":"):
            domain = self._name()
        self._expect("keyword", "to")
        target = self._name()
        return SchemaChangeCmd("add_attribute", (name, target), domain=domain)

    def _cmd_delete_attribute(self) -> SchemaChangeCmd:
        name = self._name()
        self._expect("keyword", "from")
        target = self._name()
        return SchemaChangeCmd("delete_attribute", (name, target))

    def _cmd_add_method(self) -> SchemaChangeCmd:
        name = self._name()
        self._expect("keyword", "to")
        target = self._name()
        return SchemaChangeCmd("add_method", (name, target))

    def _cmd_delete_method(self) -> SchemaChangeCmd:
        name = self._name()
        self._expect("keyword", "from")
        target = self._name()
        return SchemaChangeCmd("delete_method", (name, target))

    def _cmd_add_edge(self) -> SchemaChangeCmd:
        sup = self._name()
        self._expect("punct", "-")
        sub = self._name()
        return SchemaChangeCmd("add_edge", (sup, sub))

    def _cmd_delete_edge(self) -> SchemaChangeCmd:
        sup = self._name()
        self._expect("punct", "-")
        sub = self._name()
        connected_to = None
        if self._accept("keyword", "connected_to"):
            connected_to = self._name()
        return SchemaChangeCmd("delete_edge", (sup, sub), connected_to=connected_to)

    def _cmd_add_class(self) -> SchemaChangeCmd:
        name = self._name()
        connected_to = None
        if self._accept("keyword", "connected_to"):
            connected_to = self._name()
        return SchemaChangeCmd("add_class", (name,), connected_to=connected_to)

    def _cmd_delete_class(self) -> SchemaChangeCmd:
        return SchemaChangeCmd("delete_class", (self._name(),))

    def _cmd_insert_class(self) -> SchemaChangeCmd:
        name = self._name()
        self._expect("keyword", "between")
        sup = self._name()
        self._expect("punct", "-")
        sub = self._name()
        return SchemaChangeCmd("insert_class", (name, sup, sub))

    def _cmd_delete_class_2(self) -> SchemaChangeCmd:
        return SchemaChangeCmd("delete_class_2", (self._name(),))

    # -- defineVC ---------------------------------------------------------------

    def _cmd_definevc(self) -> DefineVcCmd:
        name = self._name()
        self._expect("keyword", "as")
        self._expect("punct", "(")
        query = self._query()
        self._expect("punct", ")")
        return DefineVcCmd(name, query)

    def _query(self) -> QuerySpec:
        token = self._next()
        if token.kind != "keyword":
            raise ParseError(f"expected an algebra operator, got {token.text!r}")
        if token.text == "select":
            self._expect("keyword", "from")
            source = self._name()
            self._expect("keyword", "where")
            predicate = self._predicate()
            return QuerySpec("select", (source,), predicate=predicate)
        if token.text == "hide":
            names = [self._name()]
            while self._accept("punct", ","):
                names.append(self._name())
            self._expect("keyword", "from")
            source = self._name()
            return QuerySpec("hide", (source,), hidden=tuple(names))
        if token.text == "refine":
            refinements = [self._refinement()]
            while self._accept("punct", ","):
                refinements.append(self._refinement())
            self._expect("keyword", "for")
            source = self._name()
            return QuerySpec("refine", (source,), refinements=tuple(refinements))
        if token.text in ("union", "difference", "intersect"):
            first = self._name()
            self._expect("keyword", "and")
            second = self._name()
            return QuerySpec(token.text, (first, second))
        raise ParseError(f"unknown algebra operator {token.text!r}")

    def _refinement(self) -> Refinement:
        first = self._name()
        second = None
        if self._accept("punct", ":"):
            second = self._name()
        return Refinement(first, second)

    def _cmd_defineview(self) -> DefineViewCmd:
        name = self._name()
        self._expect("keyword", "from")
        classes = [self._name()]
        while self._accept("punct", ","):
            classes.append(self._name())
        return DefineViewCmd(name, tuple(classes))

    # -- updates ----------------------------------------------------------------

    def _cmd_create(self) -> UpdateCmd:
        target = self._name()
        assigns = self._assigns_opt()
        return UpdateCmd("create", target, assigns=assigns)

    def _cmd_set(self) -> UpdateCmd:
        target = self._name()
        predicate = None
        if self._accept("keyword", "where"):
            predicate = self._predicate()
        assigns = self._assigns_opt()
        if not assigns:
            raise ParseError("set requires an assignment list")
        return UpdateCmd("set", target, predicate=predicate, assigns=assigns)

    def _cmd_delete(self) -> UpdateCmd:
        self._expect("keyword", "from")
        target = self._name()
        predicate = None
        if self._accept("keyword", "where"):
            predicate = self._predicate()
        return UpdateCmd("delete", target, predicate=predicate)

    def _cmd_add(self) -> UpdateCmd:
        self._expect("keyword", "to")
        target = self._name()
        self._expect("keyword", "from")
        source = self._name()
        predicate = None
        if self._accept("keyword", "where"):
            predicate = self._predicate()
        return UpdateCmd("add", target, source=source, predicate=predicate)

    def _cmd_remove(self) -> UpdateCmd:
        self._expect("keyword", "from")
        target = self._name()
        predicate = None
        if self._accept("keyword", "where"):
            predicate = self._predicate()
        return UpdateCmd("remove", target, predicate=predicate)

    # -- merge ------------------------------------------------------------------

    def _cmd_merge(self) -> MergeCmd:
        first = self._name()
        self._expect("keyword", "and")
        second = self._name()
        self._expect("keyword", "into")
        into = self._name()
        return MergeCmd(first, second, into)

    # -- assignments and literals -------------------------------------------------

    def _assigns_opt(self) -> Tuple[Tuple[str, object], ...]:
        if not self._accept("punct", "["):
            return ()
        assigns = []
        while True:
            name = self._name()
            self._expect("op", "=")
            assigns.append((name, self._literal()))
            if not self._accept("punct", ","):
                break
        self._expect("punct", "]")
        return tuple(assigns)

    def _literal(self) -> object:
        negative = bool(self._accept("punct", "-"))
        token = self._next()
        if token.kind == "number":
            value = float(token.text) if "." in token.text else int(token.text)
            return -value if negative else value
        if negative:
            raise ParseError(f"expected a number after '-', got {token.text!r}")
        if token.kind == "string":
            return token.text[1:-1].replace('\\"', '"')
        if token.kind == "keyword" and token.text in ("true", "false"):
            return token.text == "true"
        if token.kind == "keyword" and token.text == "none":
            return None
        raise ParseError(f"expected a literal, got {token.text!r}")

    # -- predicates --------------------------------------------------------------

    def _predicate(self) -> Predicate:
        return self._or_expr()

    def _or_expr(self) -> Predicate:
        left = self._and_expr()
        while self._accept("keyword", "or"):
            left = Or(left, self._and_expr())
        return left

    def _and_expr(self) -> Predicate:
        left = self._not_expr()
        while self._accept("keyword", "and"):
            left = And(left, self._not_expr())
        return left

    def _not_expr(self) -> Predicate:
        if self._accept("keyword", "not"):
            return Not(self._not_expr())
        return self._atom()

    def _atom(self) -> Predicate:
        if self._accept("punct", "("):
            inner = self._predicate()
            self._expect("punct", ")")
            return inner
        attribute = self._name()
        while self._accept("punct", "."):
            attribute += "." + self._name()
        if self._accept("keyword", "in"):
            self._expect("punct", "{")
            values = [self._literal()]
            while self._accept("punct", ","):
                values.append(self._literal())
            self._expect("punct", "}")
            return IsIn(attribute, tuple(values))
        if self._accept("keyword", "is"):
            set_token = self._next()
            if set_token.text != "set":
                raise ParseError(f"expected 'set' after 'is', got {set_token.text!r}")
            return IsSet(attribute)
        op_token = self._next()
        if op_token.kind != "op" or op_token.text == "=":
            raise ParseError(
                f"expected a comparison operator, got {op_token.text!r}"
            )
        return Compare(attribute, op_token.text, self._literal())


def parse_command(source: str) -> Command:
    """Parse one command string into its AST."""
    tokens = tokenize(source)
    if not tokens:
        raise ParseError("empty command")
    return _Parser(tokens, source).parse()


def parse_script(source: str) -> List[Command]:
    """Parse a multi-line script: one command per non-empty, non-comment line."""
    commands = []
    for line in source.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        commands.append(parse_command(stripped))
    return commands
