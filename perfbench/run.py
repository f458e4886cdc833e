#!/usr/bin/env python3
"""The repository benchmark: seeded, fixed-work workloads against ``repro``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sjoberg_evolution --seed 1 \
        --seconds 20 --trace 0

Each run builds its op script from ``--seed`` before timing, then repeats
fixed-work trials (fresh set-up, the timed script, abandon + recover,
output checks) until ``--seconds`` are used.  With ``--trace 0`` the last
line of standard output carries the end-to-end metrics; with ``--trace 1``
the run alternates untraced and traced trials and reports the per-layer
metrics instead (the end-to-end numbers never come from traced trials).
The lines before it are a readable summary and one JSON line of
diagnostics (seed, population, op counts, sample counts, run context).
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, Tuple

from common import (
    OUT_DIR,
    PERCENTILES,
    HostSpeed,
    RunContext,
    Trial,
    import_program,
    median,
    percentile,
)
from spans import BACKFILL_THREAD, layer_table, self_times, spans_as_json, top_level_seconds

WORKLOADS = ("wire_serving", "sjoberg_evolution", "durable_writes")
#: set-ups made (and discarded) before the trials, so ``setup_s`` is the
#: median of several set-ups even when only a few trials fit the budget
EXTRA_SETUPS = 4
#: seconds of the budget kept for the work after the last trial
FINISH_RESERVE_S = 1.0
#: spans exported per traced run (the first traced trial's, capped)
SPAN_EXPORT_LIMIT = 200_000

#: per-layer span metrics: metric name -> span layer (self time, ms per op)
SPAN_METRICS = {
    "concurrency.publish_ms": "concurrency.publish",
    "concurrency.touch_capture_ms": "concurrency.touch_capture",
    "concurrency.seal_ms": "concurrency.seal",
    "concurrency.backfill_ms": "concurrency.backfill",
    "concurrency.latch_wait_ms": "concurrency.latch_wait",
    "core.translate_ms": "core.translate",
    "core.view_update_self_ms": "core.view_update_self",
    "algebra.define_self_ms": "algebra.define_self",
    "algebra.update_ms": "algebra.update",
    "classifier.classify_ms": "classifier.classify",
    "views.generate_ms": "views.generate",
    "schema.memento_ms": "schema.memento",
    "schema.extent_ms": "schema.extent",
    "objectmodel.memento_ms": "objectmodel.memento",
    "storage.snapshot_ms": "storage.snapshot",
    "storage.wal_append_ms": "storage.wal_append",
    "storage.wal_barrier_ms": "storage.wal_barrier",
    "storage.checkpoint_ms": "storage.checkpoint",
    "persistence.encode_ms": "persistence.encode",
}


def make_workload(name: str, seed: int, **options):
    if name == "sjoberg_evolution":
        from sjoberg_evolution import SjobergEvolution

        return SjobergEvolution(seed, **options)
    if name == "durable_writes":
        from durable_writes import DurableWrites

        return DurableWrites(seed, **options)
    from wire_serving import WireServing

    return WireServing(seed, **options)


def run_trials(workload, seconds: float, trace: bool, extra_setups: int = EXTRA_SETUPS,
               began: float = None):
    """Set up ``extra_setups`` times, then run trials while another one is
    expected to end within ``seconds`` of ``began`` (a ``time.monotonic``
    reading, default now): at least one trial, in trace mode at least one
    untraced and one traced, alternating."""
    from spans import NullRecorder, SpanRecorder

    def timed_setup():
        """One set-up, bracketed by host-speed samples."""
        speed = HostSpeed()
        speed.sample()
        seconds = workload.setup()
        speed.sample()
        setups.append((seconds, speed.overall()))

    began = time.monotonic() if began is None else began
    setups: List[Tuple[float, float]] = []
    for _ in range(extra_setups):
        timed_setup()
        workload.discard()
    trials: List[Trial] = []
    trials_began = time.monotonic()
    while True:
        traced = trace and len(trials) % 2 == 1
        recorder = SpanRecorder() if traced else NullRecorder()
        timed_setup()
        trial = Trial(traced=traced)
        trial.speed.sample()
        workload.run(trial, recorder)
        trial.speed.sample()
        if traced and not trial.spans:
            trial.spans = recorder.spans
            # in-process: ops run on the main thread, so its root spans
            # are the part of the op wall the wrappers account for
            trial.layer["covered_s"] = top_level_seconds(
                trial.spans, "timed", threading.main_thread().name
            )
        trials.append(trial)
        now = time.monotonic()
        per_trial = (now - trials_began) / len(trials)
        enough = len(trials) >= (2 if trace else 1)
        if enough and now - began + per_trial > seconds:
            return trials, setups


def end_to_end(trials: List[Trial], setups, normalize: bool = True) -> Dict[str, dict]:
    """The end-to-end metrics; times are divided by each trial's (or
    set-up's) host slowdown unless ``normalize`` is off."""

    def factor(slowdown):
        return slowdown if normalize else 1.0

    metrics = {"setup_s": (median([s / factor(f) for s, f in setups]), "s")}
    metrics["throughput_ops"] = (
        median([t.throughput * factor(t.slowdown) for t in trials]), "ops/s"
    )
    for kind, (low, high) in PERCENTILES.items():
        pooled = [
            x for t in trials
            for x in (t.normalized(kind) if normalize else t.latencies[kind])
        ]
        for q in (low, high):
            metrics[f"{kind}_p{q}_ms"] = (percentile(pooled, q) * 1000.0, "ms")
    metrics["recovery_s"] = (
        median([s / factor(f) for t in trials for s, f in t.recoveries]), "s"
    )
    metrics["peak_rss_mb"] = (max(t.peak_rss_mb for t in trials), "MiB")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def sample_counts(trials: List[Trial]) -> Dict[str, int]:
    counts = {
        "throughput_ops": len(trials),
        "recovery_s": sum(len(t.recoveries) for t in trials),
    }
    for kind, (low, high) in PERCENTILES.items():
        n = sum(len(t.latencies[kind]) for t in trials)
        for q in (low, high):
            counts[f"{kind}_p{q}_ms"] = n
    return counts


def per_layer(untraced: List[Trial], traced: List[Trial]) -> Dict[str, dict]:
    """The per-layer metrics of the traced trials.  Span times are self
    times in ms per timed op (recovery spans: ms per recovery), divided by
    the traced trials' host slowdown like the end-to-end times."""
    spans = [span for t in traced for span in t.spans]
    table = layer_table(spans, "timed")
    ops = sum(t.timed_ops for t in traced)
    writes = sum(t.ops["write"] for t in traced)
    n = len(traced)
    ms = 1000.0 / median([t.slowdown for t in traced])

    def total(key):
        return sum(t.layer.get(key, 0.0) for t in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    def spent(layer):
        return sum(s[4] - s[3] for s in spans if s[7] == "recovery" and s[2] == layer)

    metrics = {}
    for name, layer in SPAN_METRICS.items():
        metrics[name] = (table.get(layer, {}).get("self_s", 0.0) * ms / ops, "ms/op")
    op_wall = sum(t.op_wall_s for t in traced)
    engine = total("engine_covered_s") if any("engine_covered_s" in t.layer for t in traced) \
        else op_wall
    metrics["server.overhead_ms"] = ((op_wall - engine) * ms / ops, "ms/op")
    metrics["server.codec_ms"] = (total("codec_s") * ms / ops, "ms/op")
    metrics["server.error_frames"] = (total("error_frames"), "count")
    metrics["concurrency.epochs_published"] = (total("epochs_published") / n, "count")
    metrics["concurrency.capture_useful_ratio"] = (
        ratio(total("touch_captures") + total("classes_sealed"), total("classes_captured")),
        "ratio",
    )
    metrics["classifier.calls"] = (
        table.get("classifier.classify", {}).get("calls", 0) / n, "count"
    )
    metrics["schema.classes_total"] = (total("classes_total") / n, "count")
    metrics["schema.extent_hit_ratio"] = (
        ratio(total("extent_hits"), total("extent_hits") + total("extent_misses")), "ratio"
    )
    metrics["storage.page_reads_per_op"] = (total("page_reads") / ops, "count/op")
    metrics["storage.cache_hit_ratio"] = (
        ratio(total("cache_hits"), total("cache_hits") + total("page_reads")), "ratio"
    )
    metrics["storage.wal_bytes_per_write"] = (ratio(total("wal_bytes"), writes), "B/write")
    metrics["storage.fsyncs_per_write"] = (ratio(total("fsyncs"), writes), "1/write")
    decode = spent("persistence.decode")
    recoveries = sum(len(t.recoveries) for t in traced)
    metrics["storage.replay_ms"] = ((spent("storage.replay") - decode) * ms / recoveries, "ms")
    metrics["persistence.decode_ms"] = (decode * ms / recoveries, "ms")
    metrics["storage.records_replayed"] = (total("records_replayed") / n, "count")
    metrics["trace.unattributed_ms"] = (
        (op_wall - total("covered_s")) * ms / ops, "ms/op"
    )
    metrics["trace.overhead_ratio"] = (
        ratio(median([t.throughput * t.slowdown for t in traced]),
              median([t.throughput * t.slowdown for t in untraced])),
        "ratio",
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def kind_breakdown(traced: List[Trial]) -> List[str]:
    """Where each op kind's time went: its heaviest layers by self time
    (spans of the ops' own threads, joined by op id), as markdown rows."""
    ops: Dict[str, int] = defaultdict(int)
    wall: Dict[str, float] = defaultdict(float)
    layers: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    engine: Dict[str, float] = defaultdict(float)
    wire = any("engine_covered_s" in t.layer for t in traced)
    for trial in traced:
        kinds = trial.timed_kinds
        for kind, seconds in kinds:
            ops[kind] += 1
            wall[kind] += seconds
        own = [
            span for span in trial.spans
            if span[7] == "timed" and span[6] != BACKFILL_THREAD
            and isinstance(span[5], int) and 1 <= span[5] <= len(kinds)
        ]
        for span, self_s in self_times(own):
            kind = kinds[span[5] - 1][0]
            layers[kind][span[2]] += self_s
            if span[1] is None and span[2] != "server.codec":
                engine[kind] += span[4] - span[3]
    lines = [
        "| op kind | ops | op wall ms | heaviest layers (share of the kind's op wall) |",
        "|---|---:|---:|---|",
    ]
    for kind in sorted(ops, key=lambda k: -wall[k]):
        shares = dict(layers[kind])
        if wire:
            shares["(server.overhead)"] = wall[kind] - engine[kind]
        top = sorted(shares.items(), key=lambda item: -item[1])[:4]
        described = ", ".join(f"{layer} {own / wall[kind]:.1%}" for layer, own in top)
        lines.append(f"| {kind} | {ops[kind]} | {wall[kind] * 1000.0:.1f} | {described} |")
    return lines


def layer_report(traced: List[Trial], metrics: Dict[str, dict]) -> str:
    """The per-layer self-time table of one traced run, as markdown, in
    wall-clock ms as measured (the metrics above are speed-normalized)."""
    spans = [span for t in traced for span in t.spans]
    table = layer_table(spans, "timed")
    ops = sum(t.timed_ops for t in traced)
    op_wall = sum(t.op_wall_s for t in traced)

    def total(key):
        return sum(t.layer.get(key, 0.0) for t in traced)

    lines = [
        f"timed ops {ops}, op wall {op_wall * 1000.0:.1f} ms "
        f"({op_wall * 1000.0 / ops:.4f} ms/op)",
        "",
        "| layer | calls | self ms | ms/op | share of op wall | background ms |",
        "|---|---:|---:|---:|---:|---:|",
    ]
    rows = [
        (layer, row["calls"], row["self_s"], row["background_s"])
        for layer, row in table.items()
    ]
    if any("engine_covered_s" in t.layer for t in traced):
        rows.append(("(server.overhead)", "", op_wall - total("engine_covered_s"), 0.0))
    rows.append(("(trace.unattributed)", "", op_wall - total("covered_s"), 0.0))
    for layer, calls, own, background in sorted(rows, key=lambda row: -row[2]):
        lines.append(
            f"| {layer} | {calls} | {own * 1000.0:.2f} | {own * 1000.0 / ops:.4f} | "
            f"{own / op_wall:.1%} | {background * 1000.0:.2f} |"
        )
    lines.append("")
    lines.extend(kind_breakdown(traced))
    lines.append("")
    lines.append(
        "Self times exclude wrapped children; background ms ran on the backfill "
        "worker, outside the ops' own threads.  (server.overhead) is the round "
        "trip minus engine spans, so it contains the codec rows and "
        "(trace.unattributed)."
    )
    lines.append(
        f"tracing overhead: traced/untraced throughput = "
        f"{metrics['trace.overhead_ratio']['value']:.3f}"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    began = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    context = RunContext()
    workload = make_workload(args.workload, args.seed)
    try:
        # the budget covers the whole run: what follows the trials (closing
        # the server process, metrics, files) must fit in the reserve
        trials, setups = run_trials(
            workload, args.seconds - FINISH_RESERVE_S, bool(args.trace), began=began
        )
    finally:
        workload.close()
    untraced = [t for t in trials if not t.traced]
    traced = [t for t in trials if t.traced]
    attempted = sum(t.attempted for t in trials)
    failed = sum(t.failed for t in trials)
    if args.trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(untraced, setups)
        raw = end_to_end(untraced, setups, normalize=False)
    op_counts: Dict[str, int] = {}
    for trial in trials:
        for kind, count in trial.ops.items():
            op_counts[kind] = op_counts.get(kind, 0) + count
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "script": workload.describe(),
        "trials": len(trials),
        "traced_trials": len(traced),
        "setups": len(setups),
        "op_counts": op_counts,
        "samples": {"setup_s": len(setups), **sample_counts(untraced)},
        "slowdown": [round(t.slowdown, 4) for t in trials],
        "unnormalized": (
            {} if args.trace else {name: entry["value"] for name, entry in raw.items()}
        ),
        "error_rate": failed / attempted if attempted else 0.0,
        "failures": [message for t in trials for message in t.failures][:20],
        "context": context.finish(),
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for name, entry in metrics.items():
        samples = diagnostics["samples"].get(name)
        suffix = f"  (n={samples})" if samples is not None and not args.trace else ""
        print(f"{name:34s} {entry['value']:14.6f} {entry['unit']}{suffix}")
    if args.trace:
        report = layer_report(traced, metrics)
        print(report)
        stem.with_suffix(".layers.md").write_text(report + "\n")
        stem.with_suffix(".spans.json").write_text(
            json.dumps(spans_as_json(traced[0].spans[:SPAN_EXPORT_LIMIT]))
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    stem.with_suffix(".json").write_text(
        json.dumps({"result": result, "diagnostics": diagnostics}, indent=2) + "\n"
    )
    print(json.dumps(diagnostics, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
