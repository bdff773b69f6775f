#!/usr/bin/env python3
"""Repository benchmark: host speed and simulated outcome, by workload.

Run from the repository root::

    python3 perfbench/run.py --workload ingest_payload --seed 0 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the per-layer pass: host self-seconds per layer from
spans around the program's public functions, and the program's own
counts.  The last line of standard output is one JSON object; earlier
lines are a readable table.  The exit code is 0 only when every
correctness check passed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

import measure

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Span dumps of traced runs go here (ignored by git).
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: Fresh interpreters timed per run for ``setup_s`` (after one warm-up).
SETUP_PROBES = 5


def metric_units() -> tuple[dict, dict]:
    """End-to-end and per-layer metric names with units, as declared in
    the repository's BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                  for key in ("end_to_end", "per_layer"))


def import_program():
    """Put this checkout's ``src`` first on the path and import the
    workloads (which import the program); exit 2 if it is not here."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import repro
    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) \
            != SRC:
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    import workloads
    return workloads


def probe_setup(name: str) -> None:
    """Child-process body: time import plus platform construction."""
    started = time.perf_counter()
    workloads = import_program()
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, ROOT)
    workload.construct()
    print(repr(time.perf_counter() - started))


def measure_setup(name: str, pacer: measure.Pacer) -> float:
    """Median paced set-up seconds over fresh interpreters, one at a
    time, with the reference kernel timed between them."""
    samples = []
    last = pacer.mark()
    for probe in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--probe-setup", name],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr}")
        now = pacer.mark()
        if probe:   # the first one also writes the bytecode caches
            seconds = float(done.stdout.strip().splitlines()[-1])
            samples.append(seconds * pacer.factor(last, now))
        last = now
    return statistics.median(samples)


def run_unit_call(call, *args, **kwargs):
    """One unit; an exception counts as one failed operation."""
    try:
        return call(*args, **kwargs)
    except Exception:  # reported in the result, the run goes on
        result = measure.UnitResult(ops=1, failed=1)
        result.fail(f"unit raised:\n{traceback.format_exc()}")
        return result


def run_unit(workload, index, **kwargs):
    return run_unit_call(workload.unit, index, **kwargs)


def check_reference(workload, pins: dict) -> list[str]:
    """Run the workload's small default-seed reference and compare its
    report digests with the pinned ones."""
    result = run_unit_call(workload.reference)
    problems = [f"reference: {failure}" for failure in result.failures]
    want = pins.get(workload.name)
    if result.digests != want:
        problems.append(f"{workload.name}: reference digests "
                        f"{result.digests} differ from the pinned {want}")
    return problems


def load_pins() -> dict:
    with open(os.path.join(BENCH_DIR, "pins.json"), encoding="utf-8") as f:
        return json.load(f)


# -- the end-to-end run -------------------------------------------------------


def run_end_to_end(workload, seconds: float, pins: dict):
    pacer = measure.Pacer()
    setup_s = measure_setup(workload.name, pacer)
    problems = check_reference(workload, pins)
    units, walls = [], []
    deadline = time.perf_counter() + seconds
    last = pacer.mark()
    # Units run back to back, with the reference kernel timed between
    # them, until the next one would end past the deadline.
    while len(units) < workload.min_units or \
            time.perf_counter() + statistics.median(walls) <= deadline:
        gc.collect()
        started = time.perf_counter()
        unit = run_unit(workload, len(units), pacer=pacer)
        now = pacer.mark()
        unit.pace = pacer.factor(last, now)
        last = now
        units.append(unit)
        walls.append(time.perf_counter() - started)
    attempted, failed = measure.tally(units)
    rates = measure.host_rates(units)
    metrics = {
        "setup_s": setup_s,
        "host_mb_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_frac": measure.success_fraction(attempted, failed),
    }
    # Sim figures repeat exactly per seed: take them from the units every
    # run completes.  Host-timed figures come from every unit.
    used = units if workload.host_outcome else units[:workload.min_units]
    if not all(u.outcome for u in used):
        metrics.update(dict.fromkeys(
            ("reduction_ratio", "kiops", "mean_ms", "p99_ms"), 0.0))
    elif workload.host_outcome:
        metrics.update(measure.host_outcome(used))
    else:
        metrics.update(measure.combine_outcomes([u.outcome for u in used]))
    notes = [f"units {len(units)}, latency samples per unit "
             f"{units[0].samples}",
             f"host pace: reference kernel median "
             f"{statistics.median(pacer.samples) * 1e3:.2f} ms over "
             f"{len(pacer.samples)} marks, scaled to "
             f"{measure.REFERENCE_SECONDS * 1e3:.0f} ms"]
    return metrics, units, attempted, failed, notes, problems


# -- the traced run -----------------------------------------------------------


class Collector:
    """Program counters read at traced boundaries during one unit."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.hash_memos: dict[int, object] = {}
        self.pipelines: list[dict] = []

    def on_fingerprint_window(self, args, kwargs, result) -> None:
        memo = kwargs.get("memo")
        if memo is not None:
            self.hash_memos[id(memo)] = memo

    def on_pipeline_run(self, args, kwargs, report) -> None:
        pipeline = args[0]
        memo = pipeline.gpu_comp.memo
        self.pipelines.append({
            "metrics": pipeline.publish_metrics().snapshot(),
            "codec_memo": (memo.hits, memo.misses) if memo else (0, 0),
        })


def unit_counts(result, collector: Collector, span_counts: dict) -> dict:
    """Every count and ratio input of one unit (repeats exactly)."""
    sums: dict[str, float] = {}
    lists: dict[str, list] = {"cpu_utilization": [], "queue_wait_s": [],
                              "batch_fill": [], "inline_hit_rate": [],
                              "recovery_fraction": []}

    def add(key, value):
        sums[key] = sums.get(key, 0) + value

    add("blocks_made", span_counts.get("workload.make_block", 0))
    for memo in collector.hash_memos.values():
        add("hash_memo_hits", memo.hits)
        add("hash_memo_misses", memo.misses)
    for entry in collector.pipelines:
        snap = entry["metrics"]
        for key, value in snap.items():
            if isinstance(value, (int, float)) and not key.startswith(
                    "batcher."):
                add(key, value)
            elif key.endswith(".fill_fraction"):
                lists["batch_fill"].append(value)
        add("codec_memo_hits", entry["codec_memo"][0])
        add("codec_memo_misses", entry["codec_memo"][1])
    for report in result.reports:
        lists["cpu_utilization"].append(report.cpu_utilization)
        if report.gpu_kernels:
            lists["queue_wait_s"].append(report.gpu_mean_queue_wait_s)
        add("report.gpu_kernels", report.gpu_kernels)
        add("report.nand_bytes_written", report.nand_bytes_written)
        add("report.bytes_in", report.bytes_in)
        add("report.destage_batches", report.destage_batches)
    for run in result.tenancy:
        lists["inline_hit_rate"].append(run.inline_hit_rate)
        lists["recovery_fraction"].append(run.recovery_fraction)
        add("tenancy.compaction_epochs", run.compaction.get("epochs", 0))
    if result.volume:
        for key, value in result.volume["metrics"].items():
            add(key, value)
        for key, value in result.volume["scrub"].items():
            add(f"scrub.{key}", value)
    return {"sums": sums, "lists": lists}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(counts: dict, self_seconds: dict, latencies: dict,
                  coverage: float, overhead_s: float) -> dict:
    from tracing import LAYER_SPANS
    s, lists = counts["sums"], counts["lists"]
    dups = sum(s.get(f"dedup.{key}", 0) for key in (
        "gpu_hits", "buffer_hits", "tree_hits", "race_duplicates",
        "pending_hits"))
    chunks = dups + s.get("dedup.uniques", 0)
    comp_in = s.get("compress.cpu.bytes_in", 0) + s.get(
        "compress.gpu.bytes_in", 0)
    comp_out = s.get("compress.cpu.bytes_out", 0) + s.get(
        "compress.gpu.bytes_out", 0)
    decisions = s.get("scheduler.offloaded", 0) + s.get(
        "scheduler.kept_local", 0)
    metrics = {name: sum(self_seconds.get(span, 0.0) for span in spans)
               for name, spans in LAYER_SPANS.items()}
    metrics.update({
        "workload.blocks_made": s.get("blocks_made", 0),
        "dedup.hash_memo_hit_ratio": _ratio(
            s.get("hash_memo_hits", 0),
            s.get("hash_memo_hits", 0) + s.get("hash_memo_misses", 0)),
        "dedup.hit_ratio": _ratio(dups, chunks),
        "dedup.tree_hits": s.get("dedup.tree_hits", 0),
        "gpu.kernels": s.get("report.gpu_kernels", 0),
        "gpu.batch_fill": _mean(lists["batch_fill"]),
        "gpu.queue_wait_ms": _mean(lists["queue_wait_s"]) * 1e3,
        "compression.memo_hit_ratio": _ratio(
            s.get("codec_memo_hits", 0),
            s.get("codec_memo_hits", 0) + s.get("codec_memo_misses", 0)),
        "compression.ratio": _ratio(comp_in, comp_out),
        "cpu.utilization": _mean(lists["cpu_utilization"]),
        "core.offload_share": _ratio(s.get("scheduler.offloaded", 0),
                                     decisions),
        "core.gpu_offload_skips": s.get("pipeline.gpu_offload_skips", 0),
        "storage.nand_per_user_byte": _ratio(
            s.get("report.nand_bytes_written", 0),
            s.get("report.bytes_in", 0)),
        "storage.destage_batches": s.get("report.destage_batches", 0),
        "tenancy.inline_hit_rate": _mean(lists["inline_hit_rate"]),
        "tenancy.compaction_epochs": s.get("tenancy.compaction_epochs", 0),
        "tenancy.recovery_fraction": _mean(lists["recovery_fraction"]),
        "trace.coverage": coverage,
        "trace.overhead_s": overhead_s,
    })
    for kind in ("write", "read"):
        for tail in ("p50", "p99"):
            metrics[f"storage.{kind}_{tail}_ms"] = latencies.get(
                f"{kind}_{tail}_ms", 0.0)
    return metrics


def run_traced(workload, pins: dict):
    """Per-layer pass over unit 0: untraced once, then traced twice.

    The untraced and the first traced pass run the same inputs, so their
    wall-clock difference is what tracing costs; the reference run
    before them lets lazy set-up finish.  Tracing must leave the reports
    unchanged, and the second traced pass must reproduce the first one's
    program counts exactly.
    """
    from tracing import Tracer
    workload.prepare()
    problems = check_reference(workload, pins)
    started = time.perf_counter()
    baseline = run_unit_call(workload.trace_unit)
    untraced_wall = time.perf_counter() - started

    tracer = Tracer()
    collector = Collector()
    tracer.install(observers={
        "dedup.fingerprint_window": collector.on_fingerprint_window,
        "core.pipeline_run": collector.on_pipeline_run})

    def traced_unit(run_id):
        tracer.run_id = run_id
        collector.reset()
        first = tracer.span_count()
        started = time.perf_counter()
        result = run_unit_call(workload.trace_unit)
        wall = time.perf_counter() - started
        span_counts = Counter(tracer.names[n] for n in tracer.name[first:])
        return result, wall, unit_counts(result, collector, span_counts)

    try:
        traced, traced_wall, counts = traced_unit(1)
        repeat, _, repeat_counts = traced_unit(2)
    finally:
        tracer.uninstall()

    if traced.digests != baseline.digests:
        problems.append("tracing changed the program's reports")
    if repeat_counts != counts:
        problems.append("program counts differ between two traced runs "
                        "of one unit")
    path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed"
                                 f"{workload.seed}.tsv")
    tracer.write(path)
    self_seconds = tracer.self_seconds_by_name(1)
    coverage = tracer.covered_seconds(1) / traced_wall
    metrics = layer_metrics(counts, self_seconds, baseline.latencies,
                            coverage, traced_wall - untraced_wall)
    units = [baseline, traced, repeat]
    attempted, failed = measure.tally(units)
    notes = [f"spans {tracer.span_count()} written to {path}",
             f"unit 0: traced {traced_wall:.3f} s, untraced "
             f"{untraced_wall:.3f} s"]
    latencies = baseline.latencies
    if latencies:
        notes += [f"{kind} latency: {latencies[f'{kind}_samples']} samples, "
                  f"tail at p{latencies[f'{kind}_tail_p']}"
                  for kind in ("write", "read")]
    notes.append("host self-seconds by span (traced unit 0):")
    for name, sec in sorted(self_seconds.items(), key=lambda kv: -kv[1]):
        notes.append(f"  {name:<34} {sec:9.4f} s {sec / traced_wall:7.1%}")
    outside = traced_wall - sum(self_seconds.values())
    notes.append(f"  {'(outside any span)':<34} {outside:9.4f} s "
                 f"{outside / traced_wall:7.1%}")
    return metrics, units, attempted, failed, notes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.probe_setup)
        return 0
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{', '.join(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    pins = load_pins()
    end_to_end, per_layer = metric_units()
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    if args.trace:
        metrics, units, attempted, failed, notes, problems = \
            run_traced(workload, pins)
        units_of = per_layer
    else:
        metrics, units, attempted, failed, notes, problems = \
            run_end_to_end(workload, args.seconds, pins)
        units_of = end_to_end
    for unit in units:
        problems += unit.failures
    correct = not problems
    print(f"perfbench {workload.name} seed {args.seed} "
          f"trace {args.trace}: {attempted} attempted, {failed} failed")
    for note in notes:
        print(note)
    for name, unit in units_of.items():
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units_of.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
