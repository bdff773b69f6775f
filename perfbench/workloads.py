"""The benchmark's four workloads, driven through public entry points.

Every workload is a closed loop with one caller: it runs *units* one
after another, each unit a deterministic function of the benchmark seed
and the unit's index.  A unit of a pipeline workload is one call to an
entry point (``run_mode``, ``calibrate_mode``, ``run_tenant_mix``); a
unit of ``volume_rw`` is a fresh ``ReducedVolume`` serving a stream of
extent writes, overwrites and reads.  Each unit checks its own outputs
and returns a :class:`UnitResult`.

Importing this module imports the program; the set-up probe times that
import plus :meth:`Workload.construct`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import time
from typing import Optional

from repro.core import calibration
from repro.core.config import PipelineConfig
from repro.core.modes import IntegrationMode
from repro.core.pipeline import ReductionPipeline
from repro.cpu.model import I7_2600K, SimCpu
from repro.gpu.device import GpuDevice, RADEON_HD_7970
from repro.obs.stages import (
    CTR_BUFFER_HITS,
    CTR_GPU_HITS,
    CTR_PENDING_HITS,
    CTR_RACE_DUPLICATES,
    CTR_TREE_HITS,
    CTR_UNIQUES,
)
from repro.sim import Environment
from repro.storage.ssd import SAMSUNG_SSD_830, SsdModel
from repro.storage.volume import ReducedVolume
from repro.tenancy import runner
from repro.tenancy.spec import TenantMix, TenantMixStream
from repro.types import DEFAULT_CHUNK_SIZE
from repro.workload.datagen import BlockContentGenerator
from repro.workload.vdbench import VdbenchStream

from measure import Pacer, UnitResult, latency_summary

#: The seed whose first unit reproduces the program's own defaults
#: (``run_mode``'s seed 1234, the committed tenant mix).  Input offset
#: 0 is also what every workload's pinned reference run uses.
DEFAULT_SEED = 0
#: Units per seed; unit ``i`` of seed ``s`` gets offset ``s * 1000 + i``.
UNITS_PER_SEED = 1000
CHUNK = DEFAULT_CHUNK_SIZE
#: Counters whose sum is every chunk resolved as a duplicate.
DUPLICATE_COUNTERS = (CTR_GPU_HITS, CTR_BUFFER_HITS, CTR_TREE_HITS,
                      CTR_RACE_DUPLICATES, CTR_PENDING_HITS)


def unit_offset(seed: int, index: int) -> int:
    if seed < 0 or not 0 <= index < UNITS_PER_SEED:
        raise ValueError(f"seed {seed} / unit {index} out of range")
    return seed * UNITS_PER_SEED + index


def digest(payload) -> str:
    """sha256 of a report's sorted-key JSON (dataclasses flattened)."""
    if dataclasses.is_dataclass(payload):
        payload = dataclasses.asdict(payload)
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def check_pipeline_report(report, chunks: int, result: UnitResult) -> None:
    """Chunk and byte conservation of one :class:`PipelineReport`."""
    counters = report.counters
    duplicates = sum(counters.get(key, 0) for key in DUPLICATE_COUNTERS)
    if report.chunks != chunks:
        result.fail(f"{report.mode}: {report.chunks} chunks, "
                    f"expected {chunks}")
    if counters.get(CTR_UNIQUES, 0) + duplicates != report.chunks:
        result.fail(f"{report.mode}: uniques {counters.get(CTR_UNIQUES)} "
                    f"+ duplicates {duplicates} != chunks {report.chunks}")
    if report.bytes_in != report.chunks * CHUNK:
        result.fail(f"{report.mode}: bytes_in {report.bytes_in} != "
                    f"{report.chunks} x {CHUNK}")


def sim_outcome(report) -> dict:
    """A sim report's user-visible outcome, in parts that add up."""
    latency = report.latency_percentiles
    return {"ops": report.chunks,
            "seconds": report.duration_s,
            "user_bytes": report.bytes_in,
            "stored_bytes": report.bytes_in / report.reduction_ratio,
            "mean_ms": report.mean_latency_s * 1e3,
            "p99_ms": latency["p99"] * 1e3}


def build_platform(config: PipelineConfig):
    """The simulated testbed, built the way ``run_mode`` builds it."""
    env = Environment()
    cpu = SimCpu(env, I7_2600K)
    gpu = GpuDevice(env, RADEON_HD_7970)
    ssd = SsdModel(env, SAMSUNG_SSD_830)
    return ReductionPipeline(env, config.with_overrides(
        mode=IntegrationMode.GPU_COMP), cpu=cpu, gpu=gpu, ssd=ssd)


class Workload:
    name = ""
    #: Units always run, whatever ``--seconds`` says; the sim figures
    #: are combined over exactly these, so they repeat per seed.
    min_units = 1
    #: True when the user-visible figures are host timings over every
    #: unit (see ``measure.host_outcome``), not simulated ones.
    host_outcome = False

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root

    def construct(self):
        """Platform construction, as a user of this workload pays it."""
        raise NotImplementedError

    def unit(self, index: int, pacer: Optional[Pacer] = None) -> UnitResult:
        """Run unit ``index``.  A unit that times windows of operations
        itself marks ``pacer`` between them and returns paced rates."""
        raise NotImplementedError

    def reference(self) -> UnitResult:
        """A small run on the default seed's inputs, whatever the seed:
        its report digests are pinned, so every run checks them."""
        raise NotImplementedError

    def trace_unit(self) -> UnitResult:
        """The unit the traced run executes: unit 0 by default."""
        return self.unit(0)

    def prepare(self) -> None:
        """Generate the traced unit's inputs ahead (default: none)."""


class IngestPayload(Workload):
    """run_mode(gpu_comp) on real bytes, 256 chunks per unit."""

    name = "ingest_payload"
    chunks = 256
    reference_chunks = 128
    min_units = 16

    def construct(self):
        pipeline = build_platform(PipelineConfig())
        return pipeline, VdbenchStream(seed=1234, payload=True)

    def unit(self, index, pacer=None):
        return self._run(unit_offset(self.seed, index), self.chunks)

    def reference(self):
        return self._run(0, self.reference_chunks)

    def _run(self, offset: int, chunks: int) -> UnitResult:
        result = UnitResult(ops=1)
        started = time.perf_counter()
        report = calibration.run_mode(
            IntegrationMode.GPU_COMP, chunks, payload=True,
            dedup_ratio=2.0, comp_ratio=2.0, seed=1234 + offset)
        result.seconds = time.perf_counter() - started
        result.bytes = report.bytes_in
        check_pipeline_report(report, chunks, result)
        result.outcome = sim_outcome(report)
        result.samples = report.chunks
        result.digests = [digest(report)]
        result.reports = [report]
        result.failed = int(bool(result.failures))
        return result


class Calibrate(Workload):
    """calibrate_mode's dummy-I/O pass over all four modes, at its own
    default of 8192 chunks per mode."""

    name = "calibrate"
    chunks = 8192
    #: Small enough that gpu_both ranks first: the ranking check is for
    #: full-size units only.
    reference_chunks = 1024
    min_units = 4

    def __init__(self, seed, root):
        super().__init__(seed, root)
        #: (report, host seconds, pacer mark before it) per mode run.
        self._captured: list = []
        self._pacer: Optional[Pacer] = None
        original = calibration.run_mode

        def capture(*args, **kwargs):
            mark = self._pacer.mark() if self._pacer else None
            started = time.perf_counter()
            report = original(*args, **kwargs)
            self._captured.append(
                (report, time.perf_counter() - started, mark))
            return report
        # calibrate_mode looks run_mode up in its module on every call;
        # the capture hands the per-mode reports to the checks, and
        # paces each mode's run on its own: a unit takes seconds.
        calibration.run_mode = capture

    def construct(self):
        pipeline = build_platform(PipelineConfig())
        return pipeline, VdbenchStream(seed=1234)

    def unit(self, index, pacer=None):
        return self._run(unit_offset(self.seed, index), self.chunks,
                         pacer, expect_best=IntegrationMode.GPU_COMP)

    def reference(self):
        return self._run(0, self.reference_chunks, None)

    def _run(self, offset: int, chunks: int, pacer: Optional[Pacer],
             expect_best: Optional[IntegrationMode] = None) -> UnitResult:
        result = UnitResult(ops=1)
        self._captured.clear()
        self._pacer = pacer
        try:
            ranking = calibration.calibrate_mode(dummy_chunks=chunks,
                                                 seed=1234 + offset)
        finally:
            self._pacer = None
        reports = [report for report, _, _ in self._captured]
        if len(reports) != len(IntegrationMode.all_modes()):
            result.fail(f"captured {len(reports)} mode reports")
            result.failed = 1
            return result
        for report in reports:
            check_pipeline_report(report, chunks, result)
        if expect_best is not None and ranking.best_mode is not expect_best:
            result.fail(f"best mode {ranking.best_mode.value}, "
                        f"expected {expect_best.value}")
        best = next(r for r in reports
                    if r.mode == ranking.best_mode.value)
        result.bytes = sum(r.bytes_in for r in reports)
        result.seconds = sum(seconds for _, seconds, _ in self._captured)
        if pacer is not None:
            marks = [mark for _, _, mark in self._captured] + [pacer.mark()]
            paced = sum(seconds * pacer.factor(marks[k], marks[k + 1])
                        for k, (_, seconds, _) in enumerate(self._captured))
            result.windows = [(len(reports), result.bytes, paced)]
        result.outcome = sim_outcome(best)
        result.samples = best.chunks
        result.digests = [digest(r) for r in reports]
        result.reports = reports
        result.failed = int(bool(result.failures))
        return result


class TenantMixWorkload(Workload):
    """The committed tenant mix under the prioritized policy."""

    name = "tenant_mix"
    chunks = 4096
    reference_chunks = 2048
    min_units = 12
    cache_entries = 96

    def __init__(self, seed, root):
        super().__init__(seed, root)
        path = os.path.join(root, "examples", "tenant_mix.json")
        with open(path, encoding="utf-8") as handle:
            self.base_mix = TenantMix.from_json(handle.read())
        self.config = PipelineConfig(
            tenancy_policy="prioritized",
            tenancy_cache_entries=self.cache_entries)

    def mix_for(self, offset: int) -> TenantMix:
        """The committed mix at offset 0; other offsets shift the mix
        and tenant seeds together."""
        shift = 1000 * offset
        tenants = tuple(dataclasses.replace(t, seed=t.seed + shift)
                        for t in self.base_mix.tenants)
        return dataclasses.replace(self.base_mix, tenants=tenants,
                                   seed=self.base_mix.seed + shift)

    def construct(self):
        pipeline = build_platform(self.config)
        return pipeline, TenantMixStream(self.base_mix)

    def unit(self, index, pacer=None):
        return self._run(unit_offset(self.seed, index), self.chunks)

    def reference(self):
        return self._run(0, self.reference_chunks)

    def _run(self, offset: int, chunks: int) -> UnitResult:
        result = UnitResult(ops=1)
        mix = self.mix_for(offset)
        started = time.perf_counter()
        run = runner.run_tenant_mix(mix, IntegrationMode.GPU_COMP, chunks,
                                    base_config=self.config)
        result.seconds = time.perf_counter() - started
        report = run.pipeline
        result.bytes = report.bytes_in
        if report.bytes_in != report.chunks * CHUNK:
            result.fail(f"bytes_in {report.bytes_in} != chunks x {CHUNK}")
        if sum(t.chunks for t in run.tenants) != report.chunks:
            result.fail("tenant chunk counts do not sum to the run's")
        for tenant in run.tenants:
            if tenant.chunks != tenant.emitted_chunks:
                result.fail(f"{tenant.name}: {tenant.chunks} chunks "
                            f"admitted, {tenant.emitted_chunks} emitted")
            # Canonical copies left after compaction can never be fewer
            # than the distinct chunks the tenant emitted.
            if tenant.stored - tenant.recovered < tenant.emitted_uniques:
                result.fail(f"{tenant.name}: {tenant.stored} stored - "
                            f"{tenant.recovered} recovered < "
                            f"{tenant.emitted_uniques} uniques")
        if run.recovery_fraction < 0.95:
            result.fail(f"recovery_fraction {run.recovery_fraction:.4f} "
                        "< 0.95")
        result.outcome = sim_outcome(report)
        result.samples = report.chunks
        result.digests = [digest(run.as_dict())]
        result.reports = [report]
        result.tenancy = [run]
        result.failed = int(bool(result.failures))
        return result


class BlockPool:
    """Content blocks at ratios 1.0, 2.0 and 4.0, generated once each.

    Block ``j`` comes from generator ``j % 3`` with salt ``j``, so a
    block id names the same bytes for the whole run.
    """

    RATIOS = (1.0, 2.0, 4.0)

    def __init__(self, seed: int):
        self._generators = [BlockContentGenerator(ratio, seed=seed * 10 + k)
                            for k, ratio in enumerate(self.RATIOS)]
        self._blocks: list[bytes] = []

    def ensure(self, count: int) -> None:
        while len(self._blocks) < count:
            j = len(self._blocks)
            self._blocks.append(
                self._generators[j % 3].make_block(CHUNK, salt=j))

    def __getitem__(self, j: int) -> bytes:
        self.ensure(j + 1)
        return self._blocks[j]


class VolumeSchedule:
    """The op stream of one ``volume_rw`` unit.

    The mix is fixed so that every seed has the same latency profile:
    ops cycle through write, read, write, overwrite, read (40% extent
    writes at fresh offsets, 20% one-chunk overwrites, 40% extent
    reads); extent lengths cycle through 1-4 chunks; two in five written
    chunks take a never-written block, the rest repeat an earlier block
    (a duplicate).  The seed picks which extents are read or
    overwritten and which earlier blocks repeat.
    """

    KINDS = "WRWOR"
    FRESH = (True, False, True, False, False)

    def __init__(self, seed: str):
        self._rng = random.Random(seed)
        self.extents: list[tuple[int, int]] = []   # (first chunk, count)
        self.next_chunk = 0
        self.next_block = 0
        self._chunk_writes = 0

    def _content(self) -> int:
        fresh = self.FRESH[self._chunk_writes % len(self.FRESH)]
        self._chunk_writes += 1
        if fresh or self.next_block == 0:
            self.next_block += 1
            return self.next_block - 1
        return self._rng.randrange(self.next_block)

    def __iter__(self):
        rng = self._rng
        op = 0
        while True:
            kind = self.KINDS[op % len(self.KINDS)]
            op += 1
            if kind == "W":
                count = 1 + len(self.extents) % 4
                first = self.next_chunk
                self.next_chunk += count
                self.extents.append((first, count))
                yield ("write", first, [self._content()
                                        for _ in range(count)])
                continue
            first, count = self.extents[rng.randrange(len(self.extents))]
            if kind == "O":
                yield ("write", first + rng.randrange(count),
                       [self._content()])
            else:
                yield ("read", first, count)


class VolumeRw(Workload):
    """A fresh ReducedVolume per unit serving extent writes, overwrites
    and reads."""

    name = "volume_rw"
    #: Smaller than the default 4096 so that staged entries flush to
    #: the bin tree well inside one unit and tree lookups happen.
    bin_buffer_total = 256
    #: Ops per unit (about 700 unique chunks), of the traced unit (so
    #: that each op type's p99 has ten samples beyond it), and of the
    #: pinned reference run.
    unit_ops = 1500
    trace_ops = 3000
    reference_ops = 500
    #: Ops per window; the pacer is marked between windows.
    window_ops = 150
    min_units = 4
    host_outcome = True

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self._pools: dict[int, BlockPool] = {}

    def pool(self, seed: int) -> BlockPool:
        pool = self._pools.get(seed)
        if pool is None:
            pool = self._pools[seed] = BlockPool(seed)
        return pool

    @staticmethod
    def schedule(offset: int) -> VolumeSchedule:
        return VolumeSchedule(f"volume_rw/{offset}")

    def construct(self):
        return ReducedVolume(bin_buffer_total=self.bin_buffer_total)

    def prepare(self) -> None:
        """Generate every block the traced unit writes."""
        schedule = self.schedule(unit_offset(self.seed, 0))
        ops = iter(schedule)
        for _ in range(self.trace_ops):
            next(ops)
        self.pool(self.seed).ensure(schedule.next_block)

    def unit(self, index, pacer=None):
        return self._serve(unit_offset(self.seed, index), self.pool(self.seed),
                           self.unit_ops, pacer)

    def trace_unit(self):
        return self._serve(unit_offset(self.seed, 0), self.pool(self.seed),
                           self.trace_ops, None)

    def reference(self):
        return self._serve(0, self.pool(0), self.reference_ops, None)

    def _serve(self, offset: int, pool: BlockPool, max_ops: int,
               pacer: Optional[Pacer]) -> UnitResult:
        result = UnitResult()
        volume = ReducedVolume(bin_buffer_total=self.bin_buffer_total)
        expected: dict[int, int] = {}     # chunk index -> block id
        # Per window: the pacer mark before it and (kind, bytes, host
        # seconds) per op; seconds are paced once the window has ended.
        windows: list[tuple[Optional[int], list]] = []
        chunk_writes = 0
        clock = time.perf_counter
        for kind, first, arg in self.schedule(offset):
            if result.ops >= max_ops:
                break
            if result.ops % self.window_ops == 0:
                windows.append((pacer.mark() if pacer else None, []))
            result.ops += 1
            if kind == "write":
                data = b"".join(pool[j] for j in arg)
                started = clock()
                try:
                    volume.write(first * CHUNK, data)
                except Exception as exc:  # counted, reported, not fatal
                    result.failed += 1
                    result.fail(f"write at chunk {first}: {exc!r}")
                    continue
                elapsed = clock() - started
                for k, block in enumerate(arg):
                    expected[first + k] = block
                chunk_writes += len(arg)
            else:
                size = arg * CHUNK
                started = clock()
                try:
                    data = volume.read(first * CHUNK, size)
                except Exception as exc:
                    result.failed += 1
                    result.fail(f"read at chunk {first}: {exc!r}")
                    continue
                elapsed = clock() - started
                blocks = [expected.get(first + k) for k in range(arg)]
                if None in blocks or data != b"".join(pool[j]
                                                      for j in blocks):
                    result.failed += 1
                    result.fail(f"read at chunk {first}: wrong bytes")
            windows[-1][1].append((kind, len(data), elapsed))
        last = pacer.mark() if pacer else None
        op_log = []
        for k, (before, ops) in enumerate(windows):
            after = windows[k + 1][0] if k + 1 < len(windows) else last
            pace = pacer.factor(before, after) if pacer else 1.0
            op_log.append([(kind, size, elapsed * pace)
                           for kind, size, elapsed in ops])
        self._finish(volume, expected, chunk_writes, op_log, result)
        return result

    def _finish(self, volume, expected, chunk_writes, op_log,
                result) -> None:
        counters = volume.engine.counters
        duplicates = sum(counters.get(key, 0) for key in DUPLICATE_COUNTERS)
        if counters.get(CTR_UNIQUES, 0) + duplicates != chunk_writes:
            result.fail(f"uniques {counters.get(CTR_UNIQUES)} + duplicates "
                        f"{duplicates} != chunk writes {chunk_writes}")
        if volume.logical_bytes != len(expected) * CHUNK:
            result.fail(f"logical bytes {volume.logical_bytes} != "
                        f"{len(expected)} mapped chunks x {CHUNK}")
        scrub = volume.scrub()
        if scrub["corrupt"] or scrub["unverifiable"] \
                or scrub["scanned"] != len(expected):
            result.fail(f"scrub: {scrub['corrupt']} corrupt, "
                        f"{scrub['unverifiable']} unverifiable, "
                        f"{scrub['scanned']} scanned of {len(expected)}")
        ops = [op for window in op_log for op in window]
        result.seconds = sum(elapsed for _, _, elapsed in ops)
        result.bytes = sum(size for _, size, _ in ops)
        result.op_seconds = [elapsed for _, _, elapsed in ops]
        result.windows = [
            (len(window), sum(size for _, size, _ in window),
             sum(elapsed for _, _, elapsed in window))
            for window in op_log if len(window) == self.window_ops]
        result.samples = len(ops)
        result.outcome = {"user_bytes": volume.logical_bytes,
                          "stored_bytes": volume.physical_bytes}
        for kind in ("write", "read"):
            part = latency_summary([elapsed for op_kind, _, elapsed in ops
                                    if op_kind == kind])
            result.latencies[f"{kind}_p50_ms"] = part["p50"] * 1e3
            result.latencies[f"{kind}_p99_ms"] = part["tail"] * 1e3
            result.latencies[f"{kind}_samples"] = part["n"]
            result.latencies[f"{kind}_tail_p"] = part["tail_p"]
        snapshot = volume.metrics().snapshot()
        scrub.pop("corrupt_offsets")
        result.volume = {"metrics": snapshot, "scrub": scrub}
        result.digests = [digest(result.volume)]


WORKLOADS = {cls.name: cls for cls in
             (IngestPayload, Calibrate, TenantMixWorkload, VolumeRw)}
