"""The View Schema History (section 5).

"The dictionary keeps track of the history of each view schema, allowing for
the substitution of the old view by the newly created one."  Substitution is
what makes evolution *transparent*: user-level handles resolve the current
version through the history on every access, so replacing the version is
invisible to the running application.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from repro.errors import (
    RetiredViewVersion,
    StaleViewVersion,
    UnknownView,
    ViewError,
)
from repro.views.schema import ViewSchema


class ViewSchemaHistory:
    """Versioned registry of every view schema in the database."""

    def __init__(self) -> None:
        self._versions: Dict[str, List[ViewSchema]] = {}
        # versions the operators declared fully vacated — reads stay legal,
        # writes through a retired pin raise RetiredViewVersion
        self._retired: Dict[str, Set[int]] = {}

    # -- registration ----------------------------------------------------------

    def register_initial(self, view: ViewSchema) -> None:
        """Register version 1 of a brand-new view."""
        if view.name in self._versions:
            raise ViewError(f"view {view.name!r} already exists")
        if view.version != 1:
            raise ViewError(
                f"initial registration must be version 1, got {view.version}"
            )
        self._versions[view.name] = [view]

    def substitute(self, view: ViewSchema) -> None:
        """Register a successor version, replacing the current one.

        Old versions remain in the history — the paper keeps them "as long
        as other application programs continue to operate" on them; we keep
        them forever and let callers pin a version explicitly if needed.
        """
        chain = self._chain(view.name)
        expected = chain[-1].version + 1
        if view.version != expected:
            raise ViewError(
                f"view {view.name!r}: expected successor version {expected}, "
                f"got {view.version}"
            )
        chain.append(view)

    # -- lookup ----------------------------------------------------------------

    def _chain(self, name: str) -> List[ViewSchema]:
        try:
            return self._versions[name]
        except KeyError:
            raise UnknownView(f"no view named {name!r}") from None

    def current(self, name: str) -> ViewSchema:
        """The latest version of a view — what user handles resolve to."""
        return self._chain(name)[-1]

    def version(self, name: str, version: int) -> ViewSchema:
        """A specific historical version (1-based)."""
        chain = self._chain(name)
        for view in chain:
            if view.version == version:
                return view
        raise StaleViewVersion(
            f"view {name!r} has no version {version} "
            f"(history holds 1..{chain[-1].version})"
        )

    def versions_of(self, name: str) -> List[ViewSchema]:
        return list(self._chain(name))

    def view_names(self) -> List[str]:
        return sorted(self._versions)

    # -- lifecycle introspection -------------------------------------------------

    def versions(self, name: Optional[str] = None) -> List[Dict[str, object]]:
        """Version-lifecycle inventory: one row per registered version.

        Each row carries ``view``/``version``/``current``/``retired`` so a
        fleet simulator (or an operator) can observe lifecycles instead of
        probing for exceptions.  With ``name`` the inventory is restricted
        to that view's chain.
        """
        names = [name] if name is not None else self.view_names()
        rows: List[Dict[str, object]] = []
        for view_name in names:
            chain = self._chain(view_name)
            current = chain[-1].version
            for view in chain:
                rows.append(
                    {
                        "view": view_name,
                        "version": view.version,
                        "current": view.version == current,
                        "retired": self.is_retired(view_name, view.version),
                    }
                )
        return rows

    def live_pins(self, name: Optional[str] = None) -> List[Dict[str, object]]:
        """The subset of :meth:`versions` still legal to pin for writes —
        everything registered and not retired."""
        return [row for row in self.versions(name) if not row["retired"]]

    def retire(self, name: str, version: int) -> None:
        """Mark a *historical* version as retired.

        The current version can never retire (it is what unpinned handles
        resolve to), an unknown version raises :class:`StaleViewVersion`
        via the ordinary lookup, and retiring twice is refused so operator
        scripts notice double-decommissions.
        """
        view = self.version(name, version)  # raises for unknown name/version
        if view.version == self._chain(name)[-1].version:
            raise ViewError(
                f"view {name!r} version {version} is the current version "
                "and cannot retire; substitute a successor first"
            )
        retired = self._retired.setdefault(name, set())
        if version in retired:
            raise RetiredViewVersion(
                f"view {name!r} version {version} is already retired"
            )
        retired.add(version)

    def is_retired(self, name: str, version: int) -> bool:
        return version in self._retired.get(name, set())

    def check_writable(self, name: str, version: Optional[int]) -> None:
        """Raise :class:`RetiredViewVersion` when a pinned write targets a
        retired version (``None`` — an unpinned handle — is always legal)."""
        if version is not None and self.is_retired(name, version):
            raise RetiredViewVersion(
                f"view {name!r} version {version} is retired; "
                "writes must go through a live version"
            )

    # -- savepoints and the body section ------------------------------------------

    def memento(self) -> tuple:
        # view schemas are immutable: copying the containers suffices
        return (
            {name: list(chain) for name, chain in self._versions.items()},
            {name: set(versions) for name, versions in self._retired.items()},
        )

    def restore(self, memento: tuple) -> None:
        versions, retired = memento
        self._versions = {name: list(chain) for name, chain in versions.items()}
        self._retired = {name: set(found) for name, found in retired.items()}

    def dump_state(self) -> dict:
        return {
            "views": [
                {
                    "name": version.name,
                    "version": version.version,
                    "selected": sorted(version.selected),
                    "renames": dict(version.renames),
                    "edges": [list(edge) for edge in version.edges],
                    "property_renames": {
                        cls: dict(per_cls)
                        for cls, per_cls in version.property_renames.items()
                    },
                    "provenance": version.provenance,
                }
                for name in self.view_names()
                for version in self._versions[name]
            ],
            "retired_views": {
                name: sorted(versions)
                for name, versions in self._retired.items()
                if versions
            },
        }

    def load_state(self, body: dict, methods=None) -> None:
        # the body lists each chain in version order
        for entry in body["views"]:
            self._versions.setdefault(entry["name"], []).append(
                ViewSchema(
                    name=entry["name"],
                    version=entry["version"],
                    selected=frozenset(entry["selected"]),
                    renames=entry["renames"],
                    edges=tuple(tuple(edge) for edge in entry["edges"]),
                    property_renames=entry["property_renames"],
                    provenance=entry["provenance"],
                )
            )
        self._retired = {
            name: set(versions)
            for name, versions in body["retired_views"].items()
            if versions
        }

    def __contains__(self, name: str) -> bool:
        return name in self._versions

    def __iter__(self) -> Iterator[ViewSchema]:
        for name in self.view_names():
            yield self.current(name)

    def total_versions(self) -> int:
        return sum(len(chain) for chain in self._versions.values())
