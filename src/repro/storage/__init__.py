"""Storage substrate: the GemStone stand-in.

Provides OID allocation, page-simulated slice storage with I/O accounting,
store snapshots, the undo journal savepoints roll back with, and the
write-ahead log.  Atomicity is the database-level savepoint
(``TseDatabase.transaction``), not a storage-level transaction.
See ``DESIGN.md`` section 5 for the substitution rationale.
"""

from repro.storage.oid import OID_SIZE_BYTES, POINTER_SIZE_BYTES, Oid, OidAllocator
from repro.storage.pages import (
    DEFAULT_CACHE_PAGES,
    DEFAULT_SLOTS_PER_PAGE,
    Page,
    PageManager,
    PageStats,
)
from repro.storage.store import ObjectStore
from repro.storage.wal import (
    CrashInjector,
    SimulatedCrash,
    WalManager,
    WriteAheadLog,
    recover_database,
)

__all__ = [
    "OID_SIZE_BYTES",
    "POINTER_SIZE_BYTES",
    "Oid",
    "OidAllocator",
    "DEFAULT_CACHE_PAGES",
    "DEFAULT_SLOTS_PER_PAGE",
    "Page",
    "PageManager",
    "PageStats",
    "ObjectStore",
    "CrashInjector",
    "SimulatedCrash",
    "WalManager",
    "WriteAheadLog",
    "recover_database",
]
