"""Shared pieces of the benchmark: trial records, percentiles, run context."""

from __future__ import annotations

import bisect
import functools
import gc
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: scratch space for WAL directories (removed after every trial)
WORK_DIR = HERE / "work"
#: exported results, span dumps and layer tables
OUT_DIR = HERE / "out"

#: the latency kinds every workload reports, with the percentile pair
PERCENTILES = {"read": (50, 99), "write": (50, 90), "schema_change": (50, 90)}
#: seconds the speed loop takes on the reference host; times are reported
#: as they would read on a host running the loop this fast
REFERENCE_LOOP_S = 0.001


def import_program() -> None:
    """Put the checkout's ``src`` on the path and import the program;
    raises ImportError when the checkout has no program to measure."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise ImportError(f"no program source under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro.core.database  # noqa: F401


def speed_loop() -> float:
    """CPU seconds a fixed pure-Python loop takes right now."""
    start = time.process_time()
    total = 0
    for index in range(20_000):
        total += index * index
    return time.process_time() - start


class Clock:
    """Reads wall time and the CPU time of the work being measured.

    The benchmark's times are CPU times: on a shared virtual machine the
    hypervisor can stop a vCPU for milliseconds at a time (steal), which
    a wall clock counts against the program and a CPU clock does not.
    ``thread`` counts only the calling thread (an in-process op, without
    the background threads that interleave with it under the interpreter
    lock); otherwise this whole process, plus the processes in ``pids``
    (the server of ``wire_serving``), read through their CPU clocks.
    """

    def __init__(self, pids=(), thread: bool = False) -> None:
        self._clocks = [
            time.CLOCK_THREAD_CPUTIME_ID if thread else time.CLOCK_PROCESS_CPUTIME_ID
        ]
        # the process CPU clock of another pid (clock_getcpuclockid)
        self._clocks += [((~pid) << 3) | 2 for pid in pids]

    def now(self) -> Tuple[float, float]:
        return time.perf_counter(), sum(map(time.clock_gettime, self._clocks))

    def since(self, start: Tuple[float, float]) -> Tuple[float, float]:
        """(wall seconds, CPU seconds) since ``start``, a :meth:`now` reading."""
        wall, cpu = self.now()
        return wall - start[0], cpu - start[1]


class HostSpeed:
    """Samples how fast the host runs Python, between operations.

    On a shared host the speed of a core swings by up to 2x within seconds
    (neighbours on the same physical cores), and a pure-Python program
    slows down with it.  Every ``interval`` seconds, between two timed
    operations, the CPU time of a fixed loop is taken.  The *slowdown* at
    a moment is the mean loop time of the samples within ``window``
    seconds of it over :data:`REFERENCE_LOOP_S`; a time measured then is
    divided by it.  The mean, not the median, so that rare slow samples
    count in proportion to how often they occur.  The CPU time spent
    sampling is excluded from the trial's time.
    """

    #: seconds between two samples, and half the width of the averaging window
    interval = 0.05
    window = 1.0

    def __init__(self) -> None:
        #: (perf_counter at the sample, loop seconds), in time order
        self.samples: List[Tuple[float, float]] = []
        self._stamps: List[float] = []
        self._sums: List[float] = [0.0]  # prefix sums of the loop seconds
        #: CPU seconds spent sampling inside ticks
        self.spent = 0.0
        self._last = time.perf_counter()

    def _take(self) -> None:
        seconds = speed_loop()
        self._last = time.perf_counter()
        self.samples.append((self._last, seconds))
        self._stamps.append(self._last)
        self._sums.append(self._sums[-1] + seconds)

    def sample(self, count: int = 3) -> None:
        for _ in range(count):
            self._take()

    def tick(self, timed: bool = True) -> None:
        """Take a sample if ``interval`` has passed; its CPU time counts in
        :attr:`spent` when it falls inside the timed phase."""
        if time.perf_counter() - self._last >= self.interval:
            self._take()
            if timed:
                self.spent += self.samples[-1][1]

    def overall(self) -> float:
        """The slowdown over every sample taken."""
        return self._sums[-1] / len(self.samples) / REFERENCE_LOOP_S

    def at(self, moment: float) -> float:
        """The slowdown around ``moment`` (a ``perf_counter`` reading)."""
        stamps = self._stamps
        low = bisect.bisect_left(stamps, moment - self.window)
        high = bisect.bisect_right(stamps, moment + self.window)
        if high - low < 3:  # too few samples nearby: take the nearest ones
            middle = bisect.bisect_left(stamps, moment)
            low, high = max(0, middle - 3), min(len(stamps), middle + 3)
        return (self._sums[high] - self._sums[low]) / (high - low) / REFERENCE_LOOP_S


@dataclass
class Trial:
    """One fixed-work trial: a fresh set-up, the timed script, recovery."""

    traced: bool = False
    #: CPU seconds of the timed phase (see :class:`Clock`)
    cpu_s: float = 0.0
    ops: Counter = field(default_factory=Counter)
    latencies: Dict[str, List[float]] = field(
        default_factory=lambda: {kind: [] for kind in PERCENTILES}
    )
    #: perf_counter reading at the end of each latency sample
    stamps: Dict[str, List[float]] = field(
        default_factory=lambda: {kind: [] for kind in PERCENTILES}
    )
    #: summed call→return wall time of the timed ops (excludes the
    #: benchmark's own bookkeeping between ops); spans are joined against it
    op_wall_s: float = 0.0
    #: (kind, wall seconds) of every timed op in order: op id ``i`` is
    #: entry ``i - 1``
    timed_kinds: List[Tuple[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: (seconds, slowdown) of each recovery at the end of the trial
    recoveries: List[Tuple[float, float]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: per-layer inputs gathered by the workload (count deltas, spans)
    layer: Dict[str, float] = field(default_factory=dict)
    spans: List[tuple] = field(default_factory=list)
    speed: HostSpeed = field(default_factory=HostSpeed)
    _normalized: Dict[str, List[float]] = field(default_factory=dict, repr=False)

    def op(self, kind: str, elapsed: Tuple[float, float], timed: bool = True) -> None:
        """Record one operation; ``elapsed`` is ``(wall, cpu)`` seconds
        from :meth:`Clock.since`.  Latencies are CPU seconds."""
        wall, cpu = elapsed
        self.attempted += 1
        if kind in self.latencies:
            self.latencies[kind].append(cpu)
            self.stamps[kind].append(time.perf_counter())
        if timed:
            self.ops[kind] += 1
            self.op_wall_s += wall
            self.timed_kinds.append((kind, wall))
        # untimed ops (the probes after the script) are normalized by the
        # host speed around them too, so they sample it as well
        self.speed.tick(timed)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, ok: bool, message: str) -> None:
        """An output check counts as one attempted operation."""
        self.attempted += 1
        if not ok:
            self.fail(message)

    @property
    def timed_ops(self) -> int:
        return sum(self.ops.values())

    @property
    def throughput(self) -> float:
        """Timed ops per CPU second of the timed phase, sampling excluded."""
        cpu = self.cpu_s - self.speed.spent
        return self.timed_ops / cpu if cpu > 0 else 0.0

    def normalized(self, kind: str) -> List[float]:
        """Latency samples of one kind, each divided by the slowdown
        around the moment it was measured (computed once, when the trial
        is complete)."""
        if kind not in self._normalized:
            at = self.speed.at
            self._normalized[kind] = [
                x / at(t) for x, t in zip(self.latencies[kind], self.stamps[kind])
            ]
        return self._normalized[kind]

    @functools.cached_property
    def slowdown(self) -> float:
        """The trial's slowdown, weighted by where its op time was spent."""
        measured = sum(sum(values) for values in self.latencies.values())
        normalized = sum(sum(self.normalized(kind)) for kind in self.latencies)
        return measured / normalized if normalized else self.speed.overall()


def balanced(rng, items, count: int) -> list:
    """``count`` picks from ``items``, each as often as the others (up to
    one), in a seeded order: the seed moves inputs, not their mix."""
    picks = [items[index % len(items)] for index in range(count)]
    rng.shuffle(picks)
    return picks


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quiesce(db, timeout: float = 30.0) -> None:
    """Wait for the lazy-migration backlog to drain, then collect garbage."""
    deadline = time.monotonic() + timeout
    while db.migration_status()["backlog"] and time.monotonic() < deadline:
        time.sleep(0.001)
    gc.collect()


#: recoveries per trial by default; ``recovery_s`` is their median
RECOVERIES = 9


def recover(directory, times: int = RECOVERIES):
    """Recover the database in ``directory`` ``times`` times (it
    is left unchanged by recovery), each bracketed by three speed samples
    on either side.
    Returns the last recovered database and ``(seconds, slowdown)`` per
    recovery."""
    from repro.core.database import TseDatabase

    timings, db = [], None
    for _ in range(times):
        if db is not None:
            db.wal.close()
        gc.collect()
        before = sum(speed_loop() for _ in range(3))
        start = time.process_time()
        db = TseDatabase.recover(directory)
        seconds = time.process_time() - start
        after = sum(speed_loop() for _ in range(3))
        slowdown = (before + after) / 6.0 / REFERENCE_LOOP_S
        timings.append((seconds, slowdown))
    return db, timings


def own_peak_rss_mb() -> float:
    """Peak resident set of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# ---------------------------------------------------------------------------
# run context (diagnostics, not metrics)
# ---------------------------------------------------------------------------

def _steal_ticks() -> Optional[int]:
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def calibration_ms() -> float:
    """Best of five runs of the speed loop, in ms: a slow host shows here
    even when the program did not change."""
    return min(speed_loop() for _ in range(5)) * 1000.0


def _commit() -> str:
    try:
        # the ceiling keeps git from searching above the checkout
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


class RunContext:
    """Commit, interpreter, CPU count and host-noise indicators of a run."""

    def __init__(self) -> None:
        self.info = {
            "commit": _commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "calibration_ms_before": round(calibration_ms(), 4),
        }
        self._steal = _steal_ticks()

    def finish(self) -> dict:
        steal = _steal_ticks()
        self.info["calibration_ms_after"] = round(calibration_ms(), 4)
        self.info["steal_ticks"] = (
            steal - self._steal if steal is not None and self._steal is not None
            else None
        )
        return self.info


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_counts(before: dict, after: dict) -> Dict[str, float]:
    """Deltas of the ``db.stats()`` counters the per-layer metrics use."""

    def group(stats, name, key):
        return float((stats.get(name) or {}).get(key, 0) or 0)

    def delta(name, key):
        return group(after, name, key) - group(before, name, key)

    def family_total(stats, name):
        value = stats.get(name, 0)
        if isinstance(value, dict):
            return float(sum(v for v in value.values() if isinstance(v, (int, float))))
        return float(value or 0)

    return {
        "epochs_published": delta("concurrency", "published"),
        "classes_captured": delta("migration", "classes_captured"),
        "touch_captures": delta("migration", "touch_captures"),
        "classes_sealed": delta("migration", "classes_sealed"),
        "extent_hits": delta("extents", "hits"),
        "extent_misses": delta("extents", "misses"),
        "page_reads": delta("pages", "page_reads"),
        "cache_hits": delta("pages", "cache_hits"),
        "fsyncs": delta("wal", "fsyncs_issued"),
        "wal_bytes": family_total(after, "wal_bytes") - family_total(before, "wal_bytes"),
        "error_frames": family_total(after, "server_errors")
        - family_total(before, "server_errors"),
    }
