"""Span recording around calls into each layer of ``repro``.

The traced run wraps named public functions of the program from here, the
benchmark's own file — nothing is added inside ``src/``.  Each wrapper
records one span ``(id, parent, layer, start, end, op, thread, phase)``;
spans stay in memory and are written out when the run ends.  A layer's
*self* time is its spans' durations minus the part covered by their
wrapped children (children are always on the same thread, because the
parent link comes from a per-thread stack).
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

#: (layer, module, owner class or None for module functions, attributes)
PROBES: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("concurrency.publish", "repro.concurrency.epoch", "EpochManager", ("publish",)),
    ("concurrency.touch_capture", "repro.concurrency.migration", "MigrationEngine",
     ("capture_touch",)),
    ("concurrency.seal", "repro.concurrency.migration", "MigrationEngine",
     ("begin_mutation",)),
    ("concurrency.backfill", "repro.concurrency.migration", "MigrationEngine",
     ("backfill_step",)),
    ("concurrency.latch_wait", "repro.concurrency.latch", "SchemaLatch",
     ("acquire_write",)),
    ("core.translate", "repro.core.translator", "TseTranslator",
     ("add_attribute", "delete_attribute", "add_method", "delete_method",
      "add_edge", "delete_edge", "add_class", "delete_class")),
    ("core.view_update_self", "repro.core.database", "TseDatabase",
     ("apply_view_updates",)),
    ("algebra.define_self", "repro.algebra.define", "AlgebraProcessor",
     ("execute_all",)),
    ("algebra.update", "repro.algebra.updates", "UpdateEngine",
     ("create", "set_values", "delete", "add", "remove")),
    ("classifier.classify", "repro.classifier.classify", "Classifier",
     ("classify_new",)),
    ("views.generate", "repro.views.generation", "ViewSchemaGenerator", ("generate",)),
    ("schema.memento", "repro.schema.graph", "GlobalSchema", ("memento",)),
    ("schema.extent", "repro.schema.extents", "IncrementalExtentEvaluator", ("extent",)),
    ("objectmodel.memento", "repro.objectmodel.slicing", "InstancePool", ("memento",)),
    ("storage.snapshot", "repro.storage.store", "ObjectStore", ("snapshot",)),
    ("storage.wal_append", "repro.storage.wal", "WriteAheadLog", ("append",)),
    ("storage.wal_barrier", "repro.storage.wal", "WriteAheadLog", ("barrier",)),
    ("storage.checkpoint", "repro.storage.wal", "WalManager", ("checkpoint",)),
    ("storage.replay", "repro.storage.wal", None, ("recover_database",)),
    ("persistence.encode", "repro.persistence", None, ("database_to_dict",)),
    ("persistence.decode", "repro.persistence", None, ("database_from_dict",)),
)

#: the server's frame codec; wrapped only in the process hosting the server
SERVER_PROBES = (
    ("server.codec", "repro.server.protocol", None, ("encode_frame",)),
)

#: thread name of the lazy-migration backfill worker (background work)
BACKFILL_THREAD = "tse-backfill"

#: span ids, unique across every recorder of the process: the spans of
#: several traced trials are aggregated together, joined by parent id
_SPAN_IDS = itertools.count(1)


class SpanRecorder:
    """Installs the wrappers and collects their spans in memory."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        #: op id stamped on every span (set by the workload)
        self.op = None
        #: phase stamped on every span: "timed", "recovery", ...
        self.phase = "setup"
        self._ids = _SPAN_IDS
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrapper(self, layer: str, original):
        recorder = self
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = recorder._stack()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    (sid, parent, layer, start, end, recorder.op,
                     threading.current_thread().name, recorder.phase)
                )

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", layer)
        return traced

    def record(self, layer: str, start: float, end: float, op=None) -> None:
        """Add a span measured by the caller (a leaf with no parent)."""
        self.spans.append(
            (next(self._ids), None, layer, start, end, op,
             threading.current_thread().name, self.phase)
        )

    # -- installation ------------------------------------------------------

    def install(self, probes: Iterable = PROBES) -> None:
        for layer, module_name, owner_name, attrs in probes:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            for attr in attrs:
                own = attr in vars(owner)
                original = getattr(owner, attr)
                setattr(owner, attr, self.wrapper(layer, original))
                self._patched.append((owner, attr, original, own))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:  # inherited: drop the override, exposing the base again
                delattr(owner, attr)


class NullRecorder:
    """Stands in for a :class:`SpanRecorder` in untraced trials."""

    def __init__(self) -> None:
        self.op = None
        self.phase = None

    def install(self, probes: Iterable = PROBES) -> None:
        pass

    def uninstall(self) -> None:
        pass


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans: List[tuple]) -> List[Tuple[tuple, float]]:
    """Pair every span with its self time (duration minus children)."""
    covered: Dict[int, float] = defaultdict(float)
    for sid, parent, _layer, start, end, *_rest in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(span, (span[4] - span[3]) - covered.get(span[0], 0.0)) for span in spans]


def layer_table(spans: List[tuple], phase: str = "timed") -> Dict[str, dict]:
    """Per layer: calls, self seconds, and the share spent on background
    threads (the backfill worker), over the spans of one phase."""
    table: Dict[str, dict] = {}
    for span, own in self_times([s for s in spans if s[7] == phase]):
        row = table.setdefault(
            span[2], {"calls": 0, "self_s": 0.0, "background_s": 0.0}
        )
        row["calls"] += 1
        row["self_s"] += own
        if span[6] == BACKFILL_THREAD:
            row["background_s"] += own
    return table


def top_level_seconds(spans: List[tuple], phase: str, thread: str) -> float:
    """Time covered by root spans of one thread in one phase."""
    return sum(
        end - start
        for _sid, parent, _layer, start, end, _op, name, span_phase in spans
        if parent is None and name == thread and span_phase == phase
    )


def spans_as_json(spans: List[tuple]) -> List[dict]:
    keys = ("id", "parent", "layer", "start", "end", "op", "thread", "phase")
    return [dict(zip(keys, span)) for span in spans]
