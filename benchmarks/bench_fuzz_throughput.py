"""Throughput of the differential fuzzing harness.

The fuzzer's value scales with how many command applications it can push
through the real-pipeline/oracle pair per second — every command replays
against *two* systems and triggers a full observable-equivalence sweep.
This bench measures commands/second over a seeded sweep, asserts a loose
floor (so an accidental quadratic in the equivalence check or the oracle
shows up as a failure, not a silently slower CI lane), and records the
number alongside the other reproduction metrics.

Methodology: a warm-up pass runs first (predicate-compilation cache, dump
plans, import costs — none of that is steady-state throughput), then the
sweep is timed three times in **process CPU** (``time.process_time``) and
the **best** rate is reported.  Wall-clock medians of one unchanged tree
swung by ±12% with the host's load; CPU time does not count the time the
process waits for a core, and the minimum drops the repeats a scheduler
hiccup or a collector pass inflated.  ``--profile`` adds a
cProfile pass after timing and persists the top functions by internal
time (see also ``benchmarks/profile_hotpath.py`` for the dedicated tool).
"""

import time

import pytest
from conftest import format_table, profile_top, write_bench_json, write_report

from repro.checking.runner import run_sequence

N_SEQUENCES = 12
LENGTH = 20
WARMUP_SEQUENCES = 2
REPEATS = 3

#: conservative floor in commands/second — the harness does thousands of
#: cmd/s on a laptop-class core; below 50 something is structurally wrong
MIN_COMMANDS_PER_SEC = 50


def _sweep():
    """One full pass over the seeded sequences; returns (commands, divs)."""
    total_commands = 0
    divergences = []
    for seed in range(N_SEQUENCES):
        commands, divergence = run_sequence(seed, length=LENGTH)
        total_commands += len(commands)
        if divergence is not None:
            divergences.append((seed, str(divergence)))
    return total_commands, divergences


@pytest.mark.bench_smoke
def test_fuzz_throughput(request):
    # warm-up: first-run costs (compiler cache fills, plan caches, tmpdir
    # creation) are real but not throughput — pay them before the clock
    for seed in range(WARMUP_SEQUENCES):
        run_sequence(seed, length=LENGTH)

    rates = []
    total_commands = 0
    for _ in range(REPEATS):
        start = time.process_time()
        total_commands, divergences = _sweep()
        elapsed = time.process_time() - start
        assert not divergences, divergences
        rates.append(total_commands / elapsed)
    commands_per_sec = max(rates)  # the repeat with the least CPU

    assert commands_per_sec >= MIN_COMMANDS_PER_SEC, (
        f"differential harness slowed to {commands_per_sec:.0f} cmd/s "
        f"(best of {REPEATS} runs in process CPU, {total_commands} commands each)"
    )

    profile_text = ""
    if request.config.getoption("--profile"):
        profile_text = profile_top(_sweep)
        print(profile_text)

    write_bench_json(
        "fuzz_throughput",
        {
            "sequences": N_SEQUENCES,
            "length": LENGTH,
            "repeats": REPEATS,
            "total_commands": total_commands,
            "commands_per_sec": round(commands_per_sec, 1),
            "commands_per_sec_runs": [round(r, 1) for r in rates],
        },
    )
    body = format_table(
        ["sequences", "commands", "repeats", "best commands/s (process CPU)"],
        [(N_SEQUENCES, total_commands, REPEATS, f"{commands_per_sec:.0f}")],
    )
    if profile_text:
        body += "\n\n## cProfile (top by internal time)\n\n```\n" + profile_text + "```"
    write_report("fuzz_throughput", "Differential fuzzing throughput", body)
