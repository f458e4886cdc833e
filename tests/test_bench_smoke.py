"""Tier-1 smoke run of the extent-maintenance benchmark workload.

A tiny configuration of the mixed read/write workload from
``benchmarks/bench_transparency_overhead.py`` — enough to catch the
incremental engine regressing to full recomputes, small enough to run in
every tier-1 pass.  Thresholds are deliberately looser than the full
benchmark's (CI machines are noisy); the full run asserts the real >=5x.
The hot-path floors and the structural guards on the batched, compiled
and bulk-sweep paths run here too.
"""

import json
import time
from pathlib import Path

import pytest

from repro.workloads.extent_maintenance import WORKLOAD_CLASSES, measure_mixed_workload

BENCH_HOTPATH = Path(__file__).parent.parent / "BENCH_hotpath.json"


@pytest.mark.bench_smoke
def test_mixed_workload_smoke():
    results = measure_mixed_workload(n_objects=30, rounds=60)

    baseline = results["baseline"]
    incremental = results["incremental"]
    assert baseline["ops"] == incremental["ops"]
    assert incremental["ops"] > 60 * len(WORKLOAD_CLASSES)

    # the incremental engine must actually be incremental: almost all reads
    # served from cache, full recomputes an order of magnitude rarer
    assert incremental["hit_ratio"] > 0.9, results
    assert incremental["full_recomputes"] < baseline["full_recomputes"] / 10, results
    assert incremental["deltas_applied"] > 0, results

    # lenient wall-clock bound; the full benchmark asserts >=5x
    assert results["speedup"]["ops_per_sec_ratio"] >= 2, results


def _best_ratio(slow, fast, repeats: int = 5) -> float:
    """Best-of-N ``slow / fast`` wall-time ratio, the two sides timed
    alternately so machine drift hits both alike."""
    best = {slow: float("inf"), fast: float("inf")}
    for _ in range(repeats):
        for fn in best:
            start = time.perf_counter()
            fn()
            best[fn] = min(best[fn], time.perf_counter() - start)
    return best[slow] / best[fast]


@pytest.mark.bench_smoke
def test_hotpath_floor():
    """The hot paths hold the floors stored next to the measurements in
    ``BENCH_hotpath.json`` (written by ``benchmarks/bench_hotpath.py``).

    * ``select_row_matcher_vs_interpreted_min`` — a ratio measured in this
      very process, so a slow CI runner cannot fake a regression and a
      fast one cannot hide it: the row-compiled matchers the extent
      evaluators use, against ``pred.matches`` over a planned reader, on
      the mixed workload's select predicates and source objects.
    * ``fuzz_commands_per_sec_min`` — a loose absolute floor on
      differential fuzzing that catches structural collapse (an
      accidental quadratic) a ratio would cancel out.

    The structural guards below pin the batched, compiled and bulk paths
    themselves by counting what they call.
    """
    from repro.algebra import compiler
    from repro.checking.commands import CommandGenerator
    from repro.checking.runner import DifferentialHarness
    from repro.workloads.extent_maintenance import build_select_workload

    floors = json.loads(BENCH_HOTPATH.read_text())["hotpath"]["floors"]

    db, _ = build_select_workload(60)
    plans = db.evaluator.plans
    cases = []
    for name in ("Adults", "Honors"):
        derivation = db.schema[name].derivation
        source = derivation.source
        cases.append(
            (derivation.predicate, source, sorted(db.evaluator.extent(source)))
        )
    rows = [
        (
            compiler.row_matcher(
                pred,
                lambda attr, _s=source: plans.oid_reader(_s, attr),
                lambda oid, _s=source: plans.reader(_s, oid),
            ),
            members,
        )
        for pred, source, members in cases
    ]

    def compiled():
        for _ in range(100):
            for fn, members in rows:
                for oid in members:
                    fn(oid)

    def interpreted():
        for _ in range(100):
            for pred, source, members in cases:
                for oid in members:
                    pred.matches(plans.reader(source, oid))

    ratio = _best_ratio(interpreted, compiled)
    assert ratio >= floors["select_row_matcher_vs_interpreted_min"], (
        f"row-compiled select matchers are only {ratio:.2f}x the interpreter "
        f"(floor {floors['select_row_matcher_vs_interpreted_min']}x)"
    )

    def sweep() -> int:
        total = 0
        for seed in range(50, 56):
            commands = CommandGenerator(seed).generate(15)
            harness = DifferentialHarness()
            try:
                for command in commands:
                    harness.apply(command)
            finally:
                harness.close()
            total += len(commands)
        return total

    sweep()  # warm-up
    start = time.perf_counter()
    rate = sweep() / (time.perf_counter() - start)
    assert rate >= floors["fuzz_commands_per_sec_min"], (rate, floors)


def _campus_with_wal_and_sessions(tmp_path):
    from repro.core.database import TseDatabase
    from repro.schema.properties import Attribute

    db = TseDatabase()
    db.migration_backfill = False
    db.define_class("Person", [Attribute("age", domain="int", default=0)])
    db.create_view("campus", ["Person"])
    db.enable_wal(str(tmp_path / "wal"))
    sessions = db.sessions()
    sessions.migration.drain()
    return db, sessions


@pytest.mark.bench_smoke
@pytest.mark.parametrize("k", [2, 32])
def test_apply_many_pays_fixed_costs_once(k, tmp_path, monkeypatch):
    """A batch of k updates takes one schema-latch write (its savepoint)
    and one WAL barrier, whatever k is."""
    from repro.storage.wal import WriteAheadLog

    db, sessions = _campus_with_wal_and_sessions(tmp_path)
    barriers = []
    original = WriteAheadLog.barrier

    def counting_barrier(self):
        barriers.append(1)
        return original(self)

    monkeypatch.setattr(WriteAheadLog, "barrier", counting_barrier)
    creates = [
        ("create", {"class_name": "Person", "assignments": {"age": i}})
        for i in range(k)
    ]
    writes_before = sessions.latch.writes_admitted
    oids = db.apply_many(creates)
    assert len(oids) == k
    assert sessions.latch.writes_admitted - writes_before == 1
    assert len(barriers) == 1, f"{len(barriers)} WAL barriers for {k} updates"


@pytest.mark.bench_smoke
def test_predicate_workload_evaluates_compiled_only(monkeypatch):
    """Select predicates run as compiled closures on every production
    path: extent evaluation (row matchers, both evaluators) and
    ``select_where``/``where`` updates (``matcher``).  Closures get built,
    no built-in node type falls back, and the interpreted ``matches``
    tree-walk is never called.  (The differential fuzz vocabulary carries
    no predicates, so this drives the mixed select workload instead.)"""
    from repro.algebra import compiler, expressions
    from repro.algebra.expressions import Compare, IsIn
    from repro.schema.extents import ExtentEvaluator
    from repro.workloads.extent_maintenance import (
        build_select_workload,
        run_mixed_workload,
    )

    interpreted = []
    for cls in (
        expressions.Compare,
        expressions.IsIn,
        expressions.IsSet,
        expressions.TruePredicate,
        expressions.And,
        expressions.Or,
        expressions.Not,
    ):
        def counting(self, reader, _original=cls.matches):
            interpreted.append(type(self).__name__)
            return _original(self, reader)

        monkeypatch.setattr(cls, "matches", counting)
    compiler.clear_cache()

    db, oids = build_select_workload(30)
    db.create_view("campus", ["Person", "Student"], closure="ignore")
    run_mixed_workload(db, db.evaluator, oids, rounds=20)
    run_mixed_workload(db, ExtentEvaluator(db.schema, db.pool), oids, rounds=20)
    adults = Compare("age", ">=", 21) & ~IsIn("age", (30, 31))
    assert db.view("campus")["Person"].select_where(adults)
    reports = db.apply_view_updates(
        "campus",
        [{"op": "set", "class": "Person", "values": {"name": "adult"},
          "where": adults.to_dict()}],
    )
    assert reports[0]["count"] > 0

    stats = compiler.compiler_stats()
    assert stats["compiled"] > 0, stats
    assert stats["fallbacks"] == 0, stats
    assert interpreted == [], f"interpreted evaluations: {interpreted[:5]}"


@pytest.mark.bench_smoke
def test_equivalence_sweep_reads_each_view_through_one_dump(monkeypatch):
    """Every equivalence sweep calls ``ViewHandle.dump`` once per view and
    no per-class accessor (sweeps the memo skips call nothing)."""
    from repro.checking.commands import CommandGenerator
    from repro.checking.runner import DifferentialHarness
    from repro.core import handles

    accessors = {
        handles.ViewHandle: ("class_names", "edges"),
        handles.ViewClassHandle: (
            "attribute_names",
            "method_names",
            "extent_oids",
            "count",
            "get_object",
            "dump_objects",
        ),
    }
    calls = {"dump": 0, "accessor": 0}
    in_sweep = []

    def counting(method, key):
        def wrapper(self, *args, **kwargs):
            if in_sweep:
                calls[key] += 1
            return method(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        handles.ViewHandle, "dump", counting(handles.ViewHandle.dump, "dump")
    )
    for cls, names in accessors.items():
        for name in names:
            monkeypatch.setattr(cls, name, counting(getattr(cls, name), "accessor"))
    original_sweep = DifferentialHarness._check_equivalence
    per_sweep = []

    def spying_sweep(self, op):
        calls["dump"] = calls["accessor"] = 0
        in_sweep.append(1)
        try:
            original_sweep(self, op)
        finally:
            in_sweep.pop()
        per_sweep.append((calls["dump"], calls["accessor"], len(self.db.view_names())))

    monkeypatch.setattr(DifferentialHarness, "_check_equivalence", spying_sweep)
    for seed in range(3):
        harness = DifferentialHarness()
        try:
            for command in CommandGenerator(seed).generate(15):
                harness.apply(command)
        finally:
            harness.close()
    for dumps, accessor_calls, views in per_sweep:
        assert accessor_calls == 0, per_sweep
        assert dumps in (0, views), per_sweep
    full = [entry for entry in per_sweep if entry[0]]
    assert len(full) > 10, "the sweeps must actually run"
