"""Telemetry-overhead smoke checks: disabled < 2%, always-on < 8%.

The tracing guards on the extent hot paths promise a strict no-op when
disabled: one attribute read and one branch before delegating.  The first
test holds them to it by interleaving the mixed read/write workload on the
production evaluator (tracer present, disabled) with an identical database
whose propagation guard is stripped, and asserting the guarded path costs
less than 2% extra CPU time.  The second test prices the always-on
configuration — per-query labelled attribution plus the flight recorder's
JSONL mirror — against the same stripped control, with an 8% budget.

Each pass is timed with ``time.thread_time()``, the calling thread's CPU
time, so time the thread spends descheduled on a loaded machine is not
counted.  Min-of-N interleaved timing plus a bounded remeasure keeps the
remaining noise (cache and frequency effects) out of an inequality claim
about a structurally ~0-cost branch: a noisy burst can inflate one
attempt, but a single clean measurement proves the overhead is under the
bound.  The ``extent_recompute`` guard is exercised
only on cache misses, where the recompute itself dwarfs it by orders of
magnitude.
"""

import time

import pytest

from repro.workloads.extent_maintenance import (
    build_select_workload,
    run_mixed_workload,
)

ROUNDS = 2000
REPEATS = 10
ATTEMPTS = 3
MAX_RATIO = 1.02
MAX_RATIO_ENABLED = 1.08


def _timed(db, oids) -> float:
    evaluator = db.evaluator
    evaluator.invalidate()
    evaluator.stats.reset()
    start = time.thread_time()
    run_mixed_workload(db, evaluator, oids, ROUNDS)
    return time.thread_time() - start


@pytest.mark.overhead_smoke
def test_disabled_tracer_adds_under_two_percent():
    guarded_db, guarded_oids = build_select_workload(40)
    control_db, control_oids = build_select_workload(40)
    assert not guarded_db.obs.tracer.enabled  # the production default

    # strip the guard on the control instance: the pre-instrumentation shape
    control_db.evaluator._propagate = control_db.evaluator._propagate_seeds

    _timed(guarded_db, guarded_oids)  # warm caches and code paths
    _timed(control_db, control_oids)

    ratios = []
    for _ in range(ATTEMPTS):
        guarded_times, control_times = [], []
        for _ in range(REPEATS):
            control_times.append(_timed(control_db, control_oids))
            guarded_times.append(_timed(guarded_db, guarded_oids))
        ratios.append(min(guarded_times) / min(control_times))
        if ratios[-1] < MAX_RATIO:
            break

    # disabled tracing must record nothing at all
    assert guarded_db.obs.tracer.spans_recorded == 0
    assert guarded_db.obs.tracer.traces() == []

    assert min(ratios) < MAX_RATIO, {"ratios": [round(r, 4) for r in ratios]}


@pytest.mark.overhead_smoke
def test_fully_enabled_telemetry_adds_under_eight_percent(tmp_path):
    """The always-on configuration — labelled metric families attributing
    every operation, flight recorder mirroring its records to a JSONL file
    — must stay under 8% on the mixed read/write workload against the
    guard-stripped control.  (Tracing remains the explicit opt-in it has
    always been; its cost is not part of the always-on budget.)  This is
    the bound that makes 'cheap enough to leave running' a tested claim
    rather than a docstring."""
    enabled_db, enabled_oids = build_select_workload(40)
    control_db, control_oids = build_select_workload(40)
    assert not enabled_db.obs.tracer.enabled

    flight = enabled_db.obs.flight
    flight.enable_file(tmp_path / "flight.jsonl")
    # one labelled child resolved once then inc'd per round — the session
    # layer's attribution pattern: one count per user-visible query, not
    # per internal pool/extent operation
    reads = enabled_db.obs.metrics.counter(
        "workload_reads", labels={"session": "smoke"}
    )
    control_db.evaluator._propagate = control_db.evaluator._propagate_seeds

    def timed_enabled() -> float:
        evaluator = enabled_db.evaluator
        evaluator.invalidate()
        evaluator.stats.reset()
        start = time.thread_time()
        ops = run_mixed_workload(enabled_db, evaluator, enabled_oids, ROUNDS)
        for _ in range(ROUNDS):
            reads.inc()
        flight.record("workload_pass", ops=ops)
        return time.thread_time() - start

    timed_enabled()  # warm caches and code paths
    _timed(control_db, control_oids)

    ratios = []
    for _ in range(ATTEMPTS):
        enabled_times, control_times = [], []
        for _ in range(REPEATS):
            control_times.append(_timed(control_db, control_oids))
            enabled_times.append(timed_enabled())
        ratios.append(min(enabled_times) / min(control_times))
        if ratios[-1] < MAX_RATIO_ENABLED:
            break

    flight.disable_file()
    # the enabled path must actually have been attributing and recording
    assert reads.value > 0
    assert flight.records_recorded >= 1 + len(ratios) * REPEATS

    assert min(ratios) < MAX_RATIO_ENABLED, {
        "ratios": [round(r, 4) for r in ratios]
    }
