"""Exception hierarchy for the TSE reproduction.

Every error raised by the library derives from :class:`TseError` so that
applications can catch library failures with a single ``except`` clause while
still being able to discriminate the precise failure mode.  The hierarchy
mirrors the layering of the system: storage errors, object-model errors,
schema errors, algebra errors, view errors and schema-evolution errors.
"""

from __future__ import annotations


class TseError(Exception):
    """Base class of every exception raised by :mod:`repro`."""


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------

class StorageError(TseError):
    """Base class for failures inside the storage substrate."""


class PageError(StorageError):
    """A page id is unknown or a page operation is invalid."""


class SliceNotFound(StorageError):
    """A slice id does not name a live slice in the object store."""


class RecoveryError(StorageError):
    """Write-ahead-log replay could not reconstruct the database (corrupt
    record mid-log, or a replayed operation diverged from what the log
    recorded — e.g. an OID mismatch)."""


# ---------------------------------------------------------------------------
# Object model
# ---------------------------------------------------------------------------

class ObjectModelError(TseError):
    """Base class for object-model failures."""


class ObjectNotFound(ObjectModelError):
    """An object id does not name a live object."""


class NotAMember(ObjectModelError):
    """The object is not a member of the class required by the operation."""


class InvalidCast(ObjectModelError):
    """A cast was requested to a class the object does not belong to."""


# ---------------------------------------------------------------------------
# Schema layer
# ---------------------------------------------------------------------------

class SchemaError(TseError):
    """Base class for schema-definition failures."""


class UnknownClass(SchemaError):
    """A class name does not resolve in the schema under consideration."""


class UnknownProperty(SchemaError):
    """A property name does not resolve in the type of a class."""


class DuplicateProperty(SchemaError):
    """A property with the same name is already defined for the class."""


class DuplicateClass(SchemaError):
    """A class with the same name already exists in the schema."""


class AmbiguousProperty(SchemaError):
    """Two same-named properties are inherited and were not disambiguated.

    The paper (section 6.1.1) allows two same-named properties to be inherited
    into the same class but makes them unusable until the user renames one of
    them; invoking the ambiguous name raises this error.
    """


class CyclicSchema(SchemaError):
    """An operation would introduce a cycle in the is-a DAG."""


class InvariantViolation(SchemaError):
    """A schema invariant (full inheritance, extent subset, ...) is broken."""


# ---------------------------------------------------------------------------
# Object algebra
# ---------------------------------------------------------------------------

class AlgebraError(TseError):
    """Base class for object-algebra failures."""


class InvalidDerivation(AlgebraError):
    """The operands or parameters of an algebra operator are invalid."""


class PredicateError(AlgebraError):
    """A selection predicate could not be evaluated against an object."""


class UpdateRejected(AlgebraError):
    """A generic update was rejected (value-closure problem, hidden REQUIRED
    attribute, non-updatable class, ...)."""


class NotUpdatable(UpdateRejected):
    """The target class is flagged non-updatable (object-generating views)."""


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------

class ViewError(TseError):
    """Base class for view-system failures."""


class UnknownView(ViewError):
    """A view name does not resolve in the view schema history."""


class TypeClosureError(ViewError):
    """A view schema is not type-closed and auto-completion was disabled."""


class StaleViewVersion(ViewError):
    """An operation was issued against a superseded view version object."""


class RetiredViewVersion(ViewError):
    """A write was issued through a view version that has been retired.

    Retirement marks a historical version as fully vacated by the fleet:
    reads stay legal (audits, forensics), but writes through the retired
    version are refused so a laggard application cannot silently mutate
    shared objects through a schema the operators consider decommissioned.
    """


# ---------------------------------------------------------------------------
# Schema evolution (the TSE layer proper)
# ---------------------------------------------------------------------------

class EvolutionError(TseError):
    """Base class for schema-change failures."""


class ChangeRejected(EvolutionError):
    """The requested schema change violates its preconditions.

    Examples from the paper: adding an attribute whose name already exists in
    the class (section 6.1.1), deleting an attribute that is not local to the
    class in the view (section 6.2.1), deleting a non-existent is-a edge.
    """


class MergeConflict(EvolutionError):
    """Version merging could not reconcile the two view schemas."""


# ---------------------------------------------------------------------------
# Command language
# ---------------------------------------------------------------------------

class LanguageError(TseError):
    """Base class for command-language failures."""


class LexError(LanguageError):
    """The input contains a character sequence that is not a valid token."""


class ParseError(LanguageError):
    """The token stream does not form a valid command."""
