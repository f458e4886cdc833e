"""Hot-path before/after: what compiled predicates, batched updates and
bulk equivalence sweeps buy.

Two layers of comparison:

1. **After** — the tree as it is: compiled predicates, row matchers, bulk
   equivalence sweeps, batched ``apply_many``.  Alongside, the select
   row matchers are timed against the interpreted ``Predicate.matches``
   over the same objects, in the same process.
2. **Pre-PR** — a ``git worktree`` of the commit before the hot-path work
   is benchmarked in a subprocess with the same interpreter, giving the
   end-to-end speedup.  Skipped (and recorded as such) when git or the
   commit is unavailable (e.g. shallow CI clones).

Results land in ``BENCH_hotpath.json`` at the repo root next to the stored
floors that ``tests/test_bench_smoke.py::test_hotpath_floor`` enforces on
every tier-1 run.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from conftest import format_table, write_bench_json, write_report

from repro.algebra import compiler
from repro.checking.commands import CommandGenerator
from repro.checking.runner import DifferentialHarness
from repro.workloads.extent_maintenance import (
    build_select_workload,
    measure_mixed_workload,
)

REPO_ROOT = Path(__file__).parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_hotpath.json"

#: the growth-seed commit: the tree exactly as it was before this PR
BASELINE_COMMIT = "fb5929e2e5e3b75bf3d0ab5cda3233dbde74fb6c"

FUZZ_LENGTH = 20
FUZZ_SEEDS = range(100, 112)
REPEATS = 3
MIXED_OBJECTS = 200
MIXED_ROUNDS = 300
#: passes over the select classes' source objects per timed sample
SELECT_ROUNDS = 20


def _run_fuzz_once(seed: int, length: int) -> int:
    commands = CommandGenerator(seed).generate(length)
    harness = DifferentialHarness()
    try:
        for command in commands:
            harness.apply(command)
    finally:
        harness.close()
    return len(commands)


def _fuzz_rate() -> float:
    """Median-of-N commands/second; warm-up excluded from the clock."""
    _run_fuzz_once(0, FUZZ_LENGTH)  # warm-up
    rates = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        n = sum(_run_fuzz_once(s, FUZZ_LENGTH) for s in FUZZ_SEEDS)
        rates.append(n / (time.perf_counter() - start))
    return statistics.median(rates)


def _mixed_rate() -> dict:
    result = measure_mixed_workload(n_objects=MIXED_OBJECTS, rounds=MIXED_ROUNDS)
    return {
        "incremental_ops_per_sec": round(result["incremental"]["ops_per_sec"]),
        "baseline_ops_per_sec": round(result["baseline"]["ops_per_sec"]),
    }


def _select_matcher_rates() -> dict:
    """Predicate evaluations/second over the mixed workload's select
    classes: the row-compiled matchers the extent evaluators use, and
    the interpreted ``matches`` over a planned reader (best of N)."""
    db, _ = build_select_workload(MIXED_OBJECTS)
    plans = db.evaluator.plans
    cases = []
    for name in ("Adults", "Honors"):
        derivation = db.schema[name].derivation
        source = derivation.source
        members = sorted(db.evaluator.extent(source))
        row = compiler.row_matcher(
            derivation.predicate,
            lambda attr, _s=source: plans.oid_reader(_s, attr),
            lambda oid, _s=source: plans.reader(_s, oid),
        )
        cases.append((derivation.predicate, source, members, row))
    evaluations = SELECT_ROUNDS * sum(len(members) for _, _, members, _ in cases)

    def compiled_pass():
        for _ in range(SELECT_ROUNDS):
            for _pred, _source, members, row in cases:
                for oid in members:
                    row(oid)

    def interpreted_pass():
        for _ in range(SELECT_ROUNDS):
            for pred, source, members, _row in cases:
                for oid in members:
                    pred.matches(plans.reader(source, oid))

    # alternate the two sides so machine drift hits both alike
    best = {compiled_pass: float("inf"), interpreted_pass: float("inf")}
    for _ in range(REPEATS * 3):
        for run in best:
            start = time.perf_counter()
            run()
            best[run] = min(best[run], time.perf_counter() - start)
    compiled = evaluations / best[compiled_pass]
    interpreted = evaluations / best[interpreted_pass]
    return {
        "compiled_evals_per_sec": round(compiled),
        "interpreted_evals_per_sec": round(interpreted),
        "compiled_vs_interpreted": round(compiled / interpreted, 2),
    }


#: subprocess payload run inside the pre-PR worktree — measures the same
#: two workloads with that tree's own modules
_PRE_PR_SCRIPT = r"""
import json, statistics, sys, time
from repro.checking.runner import run_sequence
from repro.workloads.extent_maintenance import (
    build_select_workload,
    measure_mixed_workload,
)

length, repeats, n_objects, rounds = (int(a) for a in sys.argv[1:5])
run_sequence(0, length=length)  # warm-up
rates = []
for _ in range(repeats):
    start = time.perf_counter()
    n = 0
    for seed in range(100, 112):
        commands, div = run_sequence(seed, length=length)
        assert div is None, div
        n += len(commands)
    rates.append(n / (time.perf_counter() - start))
mixed = measure_mixed_workload(n_objects=n_objects, rounds=rounds)
print(json.dumps({
    "fuzz_commands_per_sec": round(statistics.median(rates), 1),
    "mixed_incremental_ops_per_sec": round(mixed["incremental"]["ops_per_sec"]),
    "mixed_baseline_ops_per_sec": round(mixed["baseline"]["ops_per_sec"]),
}))
"""


def _measure_pre_pr() -> dict:
    """Benchmark the seed commit in a worktree subprocess; {} when the
    commit is unreachable (shallow clone) or git is unavailable."""
    with tempfile.TemporaryDirectory(prefix="tse-prepr-") as tmp:
        worktree = Path(tmp) / "tree"
        added = subprocess.run(
            ["git", "worktree", "add", "--detach", str(worktree), BASELINE_COMMIT],
            cwd=REPO_ROOT, capture_output=True, text=True,
        )
        if added.returncode != 0:
            return {}
        try:
            proc = subprocess.run(
                [sys.executable, "-c", _PRE_PR_SCRIPT, str(FUZZ_LENGTH),
                 str(REPEATS), str(MIXED_OBJECTS), str(MIXED_ROUNDS)],
                cwd=worktree, capture_output=True, text=True, timeout=1800,
                env={"PYTHONPATH": str(worktree / "src"), "PATH": "/usr/bin:/bin"},
            )
            if proc.returncode != 0:
                return {}
            return json.loads(proc.stdout.strip().splitlines()[-1])
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(worktree)],
                cwd=REPO_ROOT, capture_output=True,
            )


def test_hotpath_before_after():
    after_fuzz = _fuzz_rate()
    after_mixed = _mixed_rate()
    select = _select_matcher_rates()
    pre_pr = _measure_pre_pr()

    payload = {
        "fuzz": {
            "length": FUZZ_LENGTH,
            "sequences": len(FUZZ_SEEDS),
            "repeats": REPEATS,
            "after_commands_per_sec": round(after_fuzz, 1),
        },
        "mixed": {
            "n_objects": MIXED_OBJECTS,
            "rounds": MIXED_ROUNDS,
            "after": after_mixed,
        },
        "select_matchers": dict(select, n_objects=MIXED_OBJECTS),
        # floors enforced by tests/test_bench_smoke.py::test_hotpath_floor
        # on every tier-1 run (the ratio is machine-independent; the
        # absolute floor only catches structural collapse)
        "floors": {
            "fuzz_commands_per_sec_min": 150,
            "select_row_matcher_vs_interpreted_min": 1.3,
        },
    }
    if pre_pr:
        payload["pre_pr"] = dict(pre_pr, commit=BASELINE_COMMIT)
        payload["fuzz"]["speedup_vs_pre_pr"] = round(
            after_fuzz / pre_pr["fuzz_commands_per_sec"], 2
        )
        payload["mixed"]["speedup_vs_pre_pr_incremental"] = round(
            after_mixed["incremental_ops_per_sec"]
            / pre_pr["mixed_incremental_ops_per_sec"], 2)
        payload["mixed"]["speedup_vs_pre_pr_baseline_evaluator"] = round(
            after_mixed["baseline_ops_per_sec"]
            / pre_pr["mixed_baseline_ops_per_sec"], 2)

    write_bench_json("hotpath", payload, target=BENCH_JSON)

    rows = [
        ("select predicate (evals/s)", select["interpreted_evals_per_sec"],
         select["compiled_evals_per_sec"],
         f"{select['compiled_vs_interpreted']:.2f}x"),
    ]
    if pre_pr:
        rows.append(
            ("fuzz (cmd/s)", pre_pr["fuzz_commands_per_sec"],
             f"{after_fuzz:.0f}", f"{payload['fuzz']['speedup_vs_pre_pr']:.2f}x")
        )
        rows.append(
            ("mixed incremental (ops/s)",
             pre_pr["mixed_incremental_ops_per_sec"],
             after_mixed["incremental_ops_per_sec"],
             f"{payload['mixed']['speedup_vs_pre_pr_incremental']:.2f}x")
        )
        rows.append(
            ("mixed baseline-eval (ops/s)",
             pre_pr["mixed_baseline_ops_per_sec"],
             after_mixed["baseline_ops_per_sec"],
             f"{payload['mixed']['speedup_vs_pre_pr_baseline_evaluator']:.2f}x")
        )
    else:
        rows.append(("fuzz (cmd/s)", "-", f"{after_fuzz:.0f}", "-"))
        rows.append(("mixed incremental (ops/s)", "-",
                     after_mixed["incremental_ops_per_sec"], "-"))
        rows.append(("mixed baseline-eval (ops/s)", "-",
                     after_mixed["baseline_ops_per_sec"], "-"))
    write_report(
        "hotpath",
        "Hot-path before/after (compiled predicates, batched updates, "
        "bulk sweeps); select row is interpreted vs compiled, the others "
        "pre-PR vs after",
        format_table(["workload", "before", "after", "speedup"], rows),
    )

    # the compiled select matchers have to pay for themselves
    assert (
        select["compiled_vs_interpreted"]
        >= payload["floors"]["select_row_matcher_vs_interpreted_min"]
    ), select
