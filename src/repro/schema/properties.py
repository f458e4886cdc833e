"""Property definitions: attributes and methods.

The paper's glossary: an *attribute* is the state of an object, a *method* is
its behaviour, and *property* refers to both.  A *type* is the library of
properties defined for a class (see :mod:`repro.schema.types`).

Two kinds of attribute matter to TSE:

* **stored** attributes occupy storage in the object's implementation slice
  for the class that introduced them.  The capacity-augmenting extension of
  ``refine`` (section 3.2) is precisely the ability of a *virtual* class to
  introduce stored attributes.
* **derived** attributes are computed from other properties and occupy no
  storage: ``Attribute("area", stored=False, compute=fn)`` where ``fn``
  receives an attribute reader for the object and returns the value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Tuple, Union

from repro.errors import InvalidDerivation

#: Domain tag accepted for untyped attributes.
ANY_DOMAIN = "any"

#: Primitive domain tags understood by the type-closure check — any other
#: domain string is interpreted as a class name that must be present in a
#: type-closed view schema.
PRIMITIVE_DOMAINS = frozenset(
    {ANY_DOMAIN, "int", "float", "str", "bool", "date", "oid"}
)


@dataclass(frozen=True)
class Attribute:
    """A named attribute definition.

    ``domain`` is either a primitive tag from :data:`PRIMITIVE_DOMAINS` or a
    class name (making the attribute object-valued, which the type-closure
    check of the View Manager inspects).  ``required`` marks attributes that
    must receive a value at creation — footnote 4 of the paper notes that
    hiding a REQUIRED attribute defeats the default-value workaround, which
    our update layer reproduces.
    """

    name: str
    domain: str = ANY_DOMAIN
    required: bool = False
    default: object = None
    stored: bool = True
    #: for derived attributes: callable(reader) -> value, where ``reader``
    #: maps attribute names of the same object to their values
    compute: Optional[Callable] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise InvalidDerivation(f"invalid attribute name: {self.name!r}")
        if self.compute is not None and self.stored:
            raise InvalidDerivation(
                f"attribute {self.name!r}: computed attributes must be "
                f"declared stored=False"
            )

    @property
    def kind(self) -> str:
        return "attribute"

    def signature(self) -> Tuple[str, str, str]:
        """Structural signature used for type comparison."""
        return ("attribute", self.name, self.domain)

    def renamed(self, new_name: str) -> "Attribute":
        """A copy of this definition under another name (disambiguation)."""
        return Attribute(
            name=new_name,
            domain=self.domain,
            required=self.required,
            default=self.default,
            stored=self.stored,
            compute=self.compute,
        )


@dataclass(frozen=True)
class Method:
    """A named method definition.

    ``body`` is a Python callable invoked as ``body(handle, *args)`` where
    ``handle`` is the view-bound object handle — our stand-in for an Opal
    code block.  Methods compare by name only for type-subsumption purposes
    (the paper's types are libraries of named functions).
    """

    name: str
    body: Optional[Callable] = field(default=None, compare=False)
    doc: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise InvalidDerivation(f"invalid method name: {self.name!r}")

    @property
    def kind(self) -> str:
        return "method"

    def signature(self) -> Tuple[str, str]:
        return ("method", self.name)

    def renamed(self, new_name: str) -> "Method":
        return Method(name=new_name, body=self.body, doc=self.doc)


#: A property is either an attribute or a method.
Property = Union[Attribute, Method]


def is_stored_attribute(prop: Property) -> bool:
    """True when the property occupies storage in an implementation slice."""
    return isinstance(prop, Attribute) and prop.stored


@dataclass(frozen=True)
class ResolvedProperty:
    """A property as seen from a particular class.

    ``origin_class`` is the class that *introduced* the definition (a base
    class or a capacity-augmenting refine virtual class).  Two resolved
    properties denote the same property exactly when they share name and
    origin — this is how diamond inheritance of one definition avoids being
    flagged as a conflict while genuinely distinct same-named definitions
    are (section 6.1.1).

    ``storage_class`` is the class whose implementation slice holds the
    value, for stored attributes; ``None`` otherwise.

    ``promoted`` marks properties that were projected upward out of their
    defining class by a hide derivation; the conflict-resolution rule of
    section 6.2.3 gives these priority over other inherited same-named
    properties.
    """

    prop: Property
    origin_class: str
    storage_class: Optional[str] = None
    promoted: bool = False

    @property
    def name(self) -> str:
        return self.prop.name

    @property
    def kind(self) -> str:
        return self.prop.kind

    def signature(self) -> tuple:
        return self.prop.signature()

    def identity(self) -> Tuple[str, str]:
        """The (origin, name) pair that makes two resolutions 'the same'."""
        return (self.origin_class, self.prop.name)

    def renamed(self, new_name: str) -> "ResolvedProperty":
        return ResolvedProperty(
            prop=self.prop.renamed(new_name),
            origin_class=self.origin_class,
            storage_class=self.storage_class,
            promoted=self.promoted,
        )


#: rebinds code when a body or WAL record loads: ``"Class.name"`` or
#: ``"name"`` -> method body or derived attribute's compute callable
MethodRegistry = Mapping[str, Callable]


def property_to_dict(prop: Property) -> dict:
    if isinstance(prop, Attribute):
        return {
            "kind": "attribute",
            "name": prop.name,
            "domain": prop.domain,
            "required": prop.required,
            "default": prop.default,
            "stored": prop.stored,
        }
    assert isinstance(prop, Method)
    return {"kind": "method", "name": prop.name, "doc": prop.doc}


def property_from_dict(
    data: dict, owner: str, registry: Optional[MethodRegistry]
) -> Property:
    code = None
    if registry and (data["kind"] == "method" or not data["stored"]):
        code = registry.get(f"{owner}.{data['name']}") or registry.get(data["name"])
    if data["kind"] == "attribute":
        return Attribute(
            name=data["name"],
            domain=data["domain"],
            required=data["required"],
            default=data["default"],
            stored=data["stored"],
            compute=code,
        )
    return Method(name=data["name"], body=code, doc=data.get("doc", ""))
