"""The integrated inline data-reduction pipeline (paper Fig. 1).

One :class:`ReductionPipeline` run drives a chunk stream through the
paper's workflow on the timed substrates:

1. **chunk + hash** on a CPU hardware thread;
2. **GPU indexing** first, when the mode allows it, the GPU exists, and
   the CPU is saturated (the paper's §3.1(3) rule) — batched lookups
   through the device's in-order queue;
3. **CPU indexing** for chunks the GPU did not resolve: bin-buffer probe,
   then bin-tree probe (the probe is skipped when an eviction-free GPU
   index already proved the fingerprint absent);
4. duplicates are mapped onto their stored copy; uniques continue to
5. **compression**, on the CPU (chunk-per-thread QuickLZ-class) or on the
   GPU (segment-parallel LZ batches + CPU post-processing refinement);
6. **commit**: metadata insert + bin-buffer staging; a full bin flushes —
   entries move to the bin tree and the GPU bins, and the bin's
   compressed payload destages to the SSD as one sequential write.

Concurrency: admission of chunks into the pipeline is gated by a window
of in-flight slots (the inline path's bounded outstanding I/O).  That
window is load-bearing for the paper's Fig. 2: in ``GPU_BOTH`` mode,
index lookups queue behind multi-millisecond compression batches, chunk
latency inflates, the window throttles admission, and throughput drops
below ``GPU_COMP`` — exactly the contention the paper reports.

The destage path is asynchronous and does not backpressure the reduction
path; the paper's throughput numbers are reduction-operation throughput
measured against the SSD as a *yardstick*, not an end-to-end
destage-limited figure (its dedup result is 3x the SSD's own rate, which
is only possible on those terms).
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional

from repro.chunkbatch import iter_windows
from repro.core.batcher import GpuBatcher
from repro.core.config import PipelineConfig
from repro.core.scheduler import OffloadScheduler
from repro.core.stats import PipelineReport
from repro.compression.gpu_lz import GpuCompressor
from repro.compression.memo import CodecMemo
from repro.compression.parallel_cpu import CompressionResult, CpuCompressor
from repro.cpu.costs import CpuCosts, DEFAULT_COSTS
from repro.cpu.model import SimCpu
from repro.dedup.engine import DedupEngine
from repro.dedup.gpu_index import GpuBinIndex
# fingerprint_chunk is not called here.  It stays a re-export because the
# repository benchmark (perfbench/tracing.py) times hashing at this
# module's global.
from repro.dedup.hashing import (PayloadHashMemo, fingerprint_chunk,
                                 fingerprint_window)
from repro.dedup.replacement import RandomReplacement
from repro.errors import ConfigError
from repro.gpu.costs import DEFAULT_GPU_COSTS, GpuKernelCosts
from repro.gpu.device import GpuDevice
from repro.obs.metrics import MetricsRegistry
from repro.obs.stages import (
    CTR_BUFFER_HITS,
    CTR_GPU_HITS,
    CTR_PENDING_HITS,
    STAGE_ADMISSION,
    STAGE_CHUNK,
    STAGE_CHUNKING,
    STAGE_COMMIT,
    STAGE_COMPACTION,
    STAGE_COMPRESS,
    STAGE_CPU_INDEX,
    STAGE_DESTAGE,
    STAGE_FINGERPRINT,
    STAGE_GPU_INDEX,
    STAGE_PENDING_WAIT,
    STAGE_POSTPROCESS,
    TRACK_COMPACTION,
    TRACK_DESTAGE,
    TRACK_WINDOW,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.tenancy.controller import (
    ADMIT_HIT,
    ADMIT_SKIP,
    TenancyController,
)
from repro.verify import MemoVerifier
from repro.sim import Environment, Resource
from repro.sim.histogram import LatencyHistogram
from repro.storage.block import BlockRequest, RequestKind
from repro.storage.ssd import SsdModel
from repro.types import Chunk

__all__ = ["ReductionPipeline", "fingerprint_chunk"]


class ReductionPipeline:
    """Timed, integrated dedup + compression over simulated hardware."""

    def __init__(self, env: Environment, config: PipelineConfig,
                 cpu: Optional[SimCpu] = None,
                 gpu: Optional[GpuDevice] = None,
                 ssd: Optional[SsdModel] = None,
                 cpu_costs: CpuCosts = DEFAULT_COSTS,
                 gpu_costs: GpuKernelCosts = DEFAULT_GPU_COSTS,
                 tracer: Tracer = NULL_TRACER):
        self.env = env
        self.config = config
        self.costs = cpu_costs
        self.tracer = tracer
        self.cpu = cpu if cpu is not None else SimCpu(env)
        self.ssd = ssd if ssd is not None else SsdModel(env, tracer=tracer)
        needs_gpu = (config.mode.gpu_for_dedup
                     or config.mode.gpu_for_compression)
        if needs_gpu and gpu is None:
            gpu = GpuDevice(env,
                            priority_queue=config.gpu_queue_priority,
                            tracer=tracer)
        self.gpu = gpu

        gpu_index = None
        if config.mode.gpu_for_dedup and config.enable_dedup:
            gpu_index = GpuBinIndex(
                prefix_bytes=config.prefix_bytes,
                bin_capacity=config.gpu_bin_capacity,
                policy=RandomReplacement(seed=7),
                memory=self.gpu.memory if self.gpu else None,
                costs=gpu_costs)
        self.dedup = DedupEngine(
            prefix_bytes=config.prefix_bytes,
            btree_min_degree=config.btree_min_degree,
            bin_buffer_capacity=config.bin_buffer_capacity,
            bin_buffer_total=config.bin_buffer_total,
            gpu_index=gpu_index,
            costs=cpu_costs) if config.enable_dedup else None

        #: Multi-tenant admission layer (DESIGN.md §15); None under the
        #: default policy, which keeps every single-stream code path —
        #: and therefore every report — byte-identical to a pre-tenancy
        #: pipeline.
        self.tenancy: Optional[TenancyController] = None
        if config.tenancy_policy != "none":
            self.tenancy = TenancyController(
                policy=config.tenancy_policy,
                cache_entries=config.tenancy_cache_entries,
                window=config.tenancy_window,
                skip_threshold=config.tenancy_skip_threshold,
                min_observe=config.tenancy_min_observe,
                rebalance_period=config.tenancy_rebalance_period,
                compaction_batch=config.compaction_batch)

        memo = (CodecMemo(capacity=config.codec_memo_entries)
                if config.codec_memo_entries else None)
        self.cpu_comp = CpuCompressor(costs=cpu_costs, memo=memo)
        self.gpu_comp = GpuCompressor(
            segments_per_chunk=config.gpu_segments_per_chunk,
            cpu_costs=cpu_costs, gpu_costs=gpu_costs, memo=memo)

        #: Runtime twin of the REP701/REP702 static contract: replays
        #: sampled memo hits, reports divergence via finish_check.
        self.verifier: Optional[MemoVerifier] = None
        if config.verify_memos:
            self.verifier = MemoVerifier()
            env.register_finishable(self.verifier)
            if memo is not None:
                memo.verifier = self.verifier
            self.cpu_comp.verifier = self.verifier

        self.scheduler = OffloadScheduler(
            self.cpu, policy=config.gpu_index_policy,
            saturation_threshold=config.cpu_saturation_threshold,
            gpu_available=self.gpu is not None)
        self._index_batcher: Optional[GpuBatcher] = None
        self._comp_batcher: Optional[GpuBatcher] = None
        #: One big lock serializing index work in the "global" baseline.
        self._index_lock = (Resource(env, capacity=1, name="index-lock")
                            if config.index_locking == "global" else None)
        self._window = Resource(env, capacity=config.window, name="window")
        #: In-flight fingerprint table: fingerprints currently being
        #: processed as uniques, mapping to the event their commit fires.
        #: A concurrent chunk with the same fingerprint waits for that
        #: commit and then dedups against it, instead of wastefully
        #: compressing the same content twice (standard inline-dedup
        #: in-flight tracking).
        self._pending: dict[bytes, object] = {}
        #: Batched functional plane: compression results the feeder
        #: precomputed per admission seq (dedup-disabled configs only,
        #: where every chunk reaches compression exactly once).
        self._precomp: dict[int, CompressionResult] = {}
        self._done = 0
        self._total = 0
        self._finished = env.event()
        # -- statistics --
        self.bytes_in = 0
        self.destage_batches = 0
        self.destage_bytes = 0
        self.gpu_offload_skips = 0
        self.latency = LatencyHistogram()

    # -- batcher wiring -----------------------------------------------------

    def _ensure_batchers(self) -> None:
        cfg = self.config
        if (cfg.mode.gpu_for_dedup and cfg.enable_dedup
                and self._index_batcher is None):
            index = self.dedup.gpu_index
            tiled = cfg.gpu_index_tiled
            self._index_batcher = GpuBatcher(
                self.env, self.gpu,
                make_kernel=lambda fps: index.make_kernel(fps,
                                                          tiled=tiled),
                split_results=lambda fps, slots: index.record_results(
                    fps, slots),
                batch_size=cfg.gpu_index_batch,
                max_wait_s=cfg.gpu_batch_wait_s,
                name="gpu-index", priority=0,
                tracer=self.tracer, stage=STAGE_GPU_INDEX)
        if (cfg.mode.gpu_for_compression and cfg.enable_compression
                and self._comp_batcher is None):
            self._comp_batcher = GpuBatcher(
                self.env, self.gpu,
                make_kernel=self.gpu_comp.make_kernel,
                split_results=self.gpu_comp.split_results,
                batch_size=cfg.gpu_comp_batch,
                max_wait_s=cfg.gpu_batch_wait_s,
                name="gpu-comp", priority=1,
                tracer=self.tracer, stage=STAGE_COMPRESS)

    # -- the per-chunk workflow (Fig. 1) ------------------------------------

    def _should_offload_index(self) -> bool:
        """Delegate the placement decision to the offload scheduler."""
        if self._index_batcher is None:
            return False
        decision = self.scheduler.should_offload_index()
        self.gpu_offload_skips = self.scheduler.stats.skipped_idle_cpu
        return decision

    def _index_execute(self, cycles: float) -> Generator:
        """Charge CPU cycles for index work under the global index lock.

        The paper's bins need no lock ("without locking mechanism"); the
        conventional shared-table baseline serializes here.
        """
        with self._index_lock.request() as lock:
            yield lock
            yield from self.cpu.execute(cycles)

    def _chunk_worker(self, chunk: Chunk, slot, seq: int = 0) -> Generator:
        """Per-chunk pipeline process: one lifecycle, ingest to commit.

        1. **ingest** — chunking, plus SHA-1 when the chunk is indexed;
        2. **dedup verdict** — the tenancy cache probe, or GPU then CPU
           index, in-flight wait and bin-buffer re-probe; it only names
           the duplicate path (``dup_path``);
        3. **compression** of unique chunks — CPU codec, or GPU batch +
           CPU post-processing;
        4. **commit** — the path picks the metadata record (a duplicate
           maps onto its stored copy) and the destage shape; one tail
           charges, traces and destages for every path.

        It all lives in ONE generator frame: a nested ``yield from``
        delegate would add a frame hop to every event resume on the
        hottest path in the simulator.  ``seq`` is the chunk's admission
        sequence number, used only as its trace identity.  Tracing is
        guarded by ``trace`` being non-None, so an untraced run makes no
        tracer calls; the derived timing math (queue-wait vs. service
        splits) lives in the tracer, never here.
        """
        admitted = self.env.now
        trace = self.tracer if self.tracer.enabled else None
        cfg = self.config
        costs = self.costs
        dedup = self.dedup
        tenancy = self.tenancy
        tenant_id = chunk.tenant if chunk.tenant is not None else 0
        try:
            verdict = None
            if tenancy is not None:
                # Multi-tenant admission (DESIGN.md §15): the verdict
                # comes from the bounded inline fingerprint cache, not
                # the unbounded index.
                verdict = tenancy.admit(tenant_id, chunk.fingerprint)
            # An inline skip (a low-locality stream) is neither hashed
            # nor probed; compaction re-fingerprints it in the background.
            indexed = dedup is not None and verdict != ADMIT_SKIP

            # -- ingest: one coalesced charge with the stage handoff --
            if indexed:
                cycles = (dedup.ingest_cycles(chunk, cfg.content_defined)
                          + costs.handoff_per_chunk)
            else:
                cycles = (costs.chunking_cycles(chunk.size,
                                                cfg.content_defined)
                          + costs.handoff_per_chunk)
            yield self.cpu.charge(cycles)
            if trace is not None:
                # Split the measured interval by cycle weight across the
                # workflow stages the charge covers.
                stages, weights = (STAGE_CHUNKING,), (cycles,)
                if indexed:
                    chunking = costs.chunking_cycles(chunk.size,
                                                     cfg.content_defined)
                    stages = (STAGE_CHUNKING, STAGE_FINGERPRINT)
                    weights = (chunking, cycles - chunking)
                trace.record_split(
                    stages, seq, admitted, weights=weights,
                    expected_service_s=self.cpu.seconds(cycles))

            # -- dedup verdict --
            dup_path = None
            gpu_definitive = False
            if indexed and tenancy is None and self._should_offload_index():
                # The batcher records the gpu_index span itself
                # (submit -> kernel completion, per item).
                hit = yield self._index_batcher.submit(chunk.fingerprint,
                                                       trace_id=seq)
                if hit:
                    dedup.counters[CTR_GPU_HITS] += 1
                    dup_path = "gpu_hit"
                else:
                    # An eviction-free GPU index mirrors every flushed
                    # entry, so its miss proves the fingerprint is not
                    # in the tree.
                    gpu_definitive = dedup.gpu_index.evictions == 0
            if indexed and dup_path is None:
                start = self.env.now if trace is not None else 0.0
                lock = None
                if tenancy is not None:
                    cycles, path = costs.bin_buffer_probe, "tenant_cache"
                else:
                    outcome = dedup.cpu_index_partial(chunk) \
                        if gpu_definitive else dedup.cpu_index(chunk)
                    cycles, path = outcome.cpu_cycles, outcome.path
                    lock = self._index_lock
                if lock is None:
                    yield self.cpu.charge(cycles)
                else:
                    yield from self._index_execute(cycles)
                if trace is not None:
                    trace.record_since(
                        STAGE_CPU_INDEX, seq, start,
                        expected_service_s=self.cpu.seconds(cycles),
                        attrs={"path": path})
                if tenancy is not None:
                    # A hit whose canonical record is still in flight
                    # (or is a compaction-promoted shadow) cannot dedup
                    # inline; it falls through to a raw shadow store and
                    # compaction recovers the duplicate.
                    if verdict == ADMIT_HIT and dedup.metadata.lookup(
                            chunk.fingerprint) is not None:
                        dup_path = "tenant_hit"
                elif outcome.duplicate:
                    dup_path = "duplicate"
                elif chunk.fingerprint in self._pending:
                    # In flight: another worker is compressing this very
                    # content right now.  Wait for its commit, then dedup
                    # onto it.
                    start = self.env.now if trace is not None else 0.0
                    yield self._pending[chunk.fingerprint]
                    if trace is not None:
                        trace.record_since(STAGE_PENDING_WAIT, seq, start)
                    dedup.counters[CTR_PENDING_HITS] += 1
                    dup_path = "pending"
                elif dedup.bin_buffer.lookup(chunk.fingerprint) is not None:
                    # Our index probe ran earlier in simulated time; a
                    # twin may have committed since, so re-probe the bin
                    # buffer before claiming uniqueness.
                    dedup.counters[CTR_BUFFER_HITS] += 1
                    dup_path = "buffer_reprobe"
                else:
                    self._pending[chunk.fingerprint] = self.env.event()

            # -- compression: unique chunks only --
            blob: Optional[bytes] = None
            if dup_path is None and cfg.enable_compression:
                if self._comp_batcher is not None:
                    # The batcher records the compress span itself.
                    raw = yield self._comp_batcher.submit(chunk,
                                                          trace_id=seq)
                    result = self.gpu_comp.postprocess(chunk, raw)
                    stage, resource, attrs = STAGE_POSTPROCESS, None, None
                else:
                    result = self._precomp.pop(seq, None)
                    if result is None:
                        result = self.cpu_comp.compress(chunk)
                    stage, resource = STAGE_COMPRESS, "cpu"
                    attrs = {"stored_raw": result.stored_raw}
                start = self.env.now if trace is not None else 0.0
                cycles = result.cpu_cycles + costs.handoff_per_chunk
                yield self.cpu.charge(cycles)
                if trace is not None:
                    trace.record_since(
                        stage, seq, start,
                        expected_service_s=self.cpu.seconds(cycles),
                        resource=resource, attrs=attrs)
                blob = result.blob
            elif dup_path is None:
                chunk.compressed_size = chunk.size

            # -- commit: the record, then one charge, span and destage --
            start = self.env.now if trace is not None else 0.0
            path = dup_path
            lock = None
            destage = chunk.compressed_size
            sequential = False
            if dup_path is not None:
                # A duplicate maps onto its stored copy.
                chunk.is_duplicate = True
                cycles = dedup.commit_duplicate(chunk)
                destage = None
                if dup_path == "buffer_reprobe":
                    # The re-probe is index work, under the lock baseline.
                    cycles = costs.bin_buffer_probe + cycles
                    lock = self._index_lock
            elif tenancy is not None:
                path = tenancy.commit_unique(seq, tenant_id, chunk, verdict,
                                             blob, dedup.metadata)
                cycles = (costs.bin_buffer_insert + costs.metadata_update
                          + costs.destage_submit)
            elif dedup is not None:
                # Staged in the bin buffer: only a full bin destages, as
                # one sequential write.
                cycles, batch, unique = dedup.commit_unique(chunk, blob)
                pending = self._pending.pop(chunk.fingerprint, None)
                if pending is not None:
                    pending.succeed()
                path = "unique" if unique else "race_duplicate"
                destage = batch.payload_bytes if batch is not None else None
                sequential = True
                lock = self._index_lock
            else:
                # Commit + metadata coalesced into one charge.
                cycles = costs.metadata_update + costs.destage_submit
            if lock is None:
                yield self.cpu.charge(cycles)
            else:
                yield from self._index_execute(cycles)
            if trace is not None:
                trace.record_since(
                    STAGE_COMMIT, seq, start,
                    expected_service_s=self.cpu.seconds(cycles),
                    attrs={"path": path} if path is not None else None)
            if destage is not None and cfg.destage_enabled:
                self._destage(destage, sequential)
            if tenancy is not None and dup_path is None:
                # Stores fill compaction batches; the storing worker
                # hands a full one off.
                ready = tenancy.take_compaction_batch()
                if ready is not None:
                    self._spawn_compaction(ready)

        finally:
            elapsed = self.env.now - admitted
            self.latency.record(elapsed)
            if tenancy is not None:
                tenancy.record_latency(tenant_id, elapsed)
            if trace is not None:
                # The whole-chunk envelope: exactly the latency sample.
                attrs = {"duplicate": bool(chunk.is_duplicate)}
                if tenancy is not None:
                    attrs["tenant"] = tenant_id
                trace.record(STAGE_CHUNK, seq, start=admitted,
                             attrs=attrs)
            self._window.release(slot)
            self._done += 1
            if self._done == self._total:
                self._finished.succeed()

    def _destage(self, nbytes: int, sequential: bool) -> None:
        """Count one destage batch and write it as a background process."""
        self.destage_batches += 1
        self.destage_bytes += nbytes
        if nbytes <= 0:
            return

        def destage() -> Generator:
            with self.tracer.span(STAGE_DESTAGE, resource=TRACK_DESTAGE,
                                  bytes=nbytes, sequential=sequential):
                yield from self.ssd.submit(BlockRequest(
                    RequestKind.WRITE, 0, nbytes, sequential=sequential))

        self.env.process(destage())

    def _spawn_compaction(self, entries: list) -> None:
        """One out-of-line compaction epoch as a background process."""
        def compaction() -> Generator:
            with self.tracer.span(STAGE_COMPACTION,
                                  resource=TRACK_COMPACTION,
                                  chunks=len(entries)):
                cycles = self.tenancy.compaction_cycles(entries,
                                                        self.costs)
                yield self.cpu.charge(cycles)
                self.tenancy.apply_compaction(entries,
                                              self.dedup.metadata)

        self.env.process(compaction())

    # -- run ----------------------------------------------------------------

    def _feeder(self, chunks: Iterable[Chunk]) -> Generator:
        """Window-batched feeder: the array-native functional plane.

        Per window, the untimed functional work runs once up front —
        one fingerprint pass (duplicate payloads resolved by LRU probe
        instead of a fresh SHA-1) and, in dedup-disabled configurations,
        one grouped codec dispatch whose results the workers pop by
        admission seq.  Admission itself — pacing, window-slot
        acquisition, worker spawn — stays strictly per chunk, so the
        timed event schedule (and therefore every report field) is
        identical to one-chunk-at-a-time admission (DESIGN.md §12).
        """
        cfg = self.config
        rate = cfg.arrival_rate_iops
        gap = 1.0 / rate if rate else 0.0
        next_admission = 0.0
        trace = self.tracer if self.tracer.enabled else None
        hash_memo = PayloadHashMemo() if cfg.enable_dedup else None
        if hash_memo is not None and self.verifier is not None:
            hash_memo.verifier = self.verifier
        precompress = (cfg.enable_compression and not cfg.enable_dedup
                       and self._comp_batcher is None)
        precomp = self._precomp
        seq = 0
        for window in iter_windows(chunks, cfg.functional_batch):
            if hash_memo is not None:
                fingerprint_window(window, memo=hash_memo)
            if precompress:
                # Safe exactly because dedup is off: every chunk
                # reaches compression once, in admission order, and
                # the codecs are pure — see compress_window.
                results = self.cpu_comp.compress_window(window)
                for i, result in enumerate(results):
                    precomp[seq + i] = result
            for chunk in window:
                if gap:
                    delay = next_admission - self.env.now
                    if delay > 0:
                        yield self.env.timeout(delay)
                    next_admission = max(next_admission,
                                         self.env.now) + gap
                request = self._window.request()
                requested = self.env.now if trace is not None else 0.0
                yield request
                if trace is not None:
                    # Pure queueing for a window slot, before admission.
                    trace.record_since(STAGE_ADMISSION, seq, requested,
                                       resource=TRACK_WINDOW)
                self.bytes_in += chunk.size
                self.env.process(self._chunk_worker(chunk, request, seq))
                seq += 1

    def run(self, chunks: Iterable[Chunk], total: int) -> PipelineReport:
        """Process ``total`` chunks from ``chunks`` and report.

        ``total`` must match the iterable's length; it lets the pipeline
        detect completion without materializing the stream.
        """
        if total <= 0:
            raise ConfigError("need at least one chunk")
        self._total = total
        self._ensure_batchers()
        self.env.process(self._feeder(chunks))
        self.env.run(until=self._finished)
        duration = self.env.now
        # Snapshot the Fig. 1 counters before the shutdown drain so the
        # report reflects steady-state traffic only.
        counters = dict(self.dedup.counters) if self.dedup else {}
        for batcher in (self._index_batcher, self._comp_batcher):
            if batcher is not None:
                batcher.stop()
        # Shutdown drain: partially filled bins still hold staged data;
        # it must reach the SSD for the endurance ledger to balance.
        # One write per bin: a coalesced submit_vector would drift the
        # utilization integral by an ULP (DESIGN.md §12).
        if self.dedup is not None and self.config.destage_enabled:
            for batch in self.dedup.drain():
                self._destage(batch.payload_bytes, sequential=True)
        # Out-of-line compaction drain: every still-deferred shadow copy
        # gets its background epoch before the report reads the
        # metadata store, so recovered duplicates fold into dedup_ratio.
        if self.tenancy is not None:
            for entries in self.tenancy.drain_compaction():
                self._spawn_compaction(entries)
        # Let stragglers (destage writes, batcher shutdown) settle for
        # reporting, without extending the measured duration.
        self.env.run()
        if self.config.finish_check or self.config.verify_memos:
            self.env.finish_check()
        return self._report(duration, counters)

    def _report(self, duration: float,
                counters: dict[str, int]) -> PipelineReport:
        metadata = self.dedup.metadata if self.dedup else None
        comp = (self.gpu_comp if self._comp_batcher is not None
                else self.cpu_comp)
        dedup_ratio = metadata.dedup_ratio() if metadata else 1.0
        reduction = metadata.reduction_ratio() if metadata else \
            comp.achieved_ratio()
        return PipelineReport(
            chunks=self._total,
            bytes_in=self.bytes_in,
            duration_s=duration,
            counters=counters,
            cpu_utilization=self.cpu.utilization(until=duration),
            gpu_utilization=(self.gpu.utilization(until=duration)
                             if self.gpu else 0.0),
            ssd_utilization=self.ssd.utilization(until=duration),
            gpu_kernels=self.gpu.kernels_launched if self.gpu else 0,
            gpu_mean_queue_wait_s=(self.gpu.mean_queue_wait()
                                   if self.gpu else 0.0),
            dedup_ratio=dedup_ratio,
            comp_ratio=comp.achieved_ratio(),
            reduction_ratio=reduction,
            destage_batches=self.destage_batches,
            destage_bytes=self.destage_bytes,
            nand_bytes_written=self.ssd.nand_bytes_written,
            mean_latency_s=self.latency.mean,
            peak_latency_s=self.latency.peak,
            latency_percentiles=self.latency.summary(),
            mode=self.config.mode.value,
        )

    def publish_metrics(self,
                        registry: Optional[MetricsRegistry] = None
                        ) -> MetricsRegistry:
        """Export every subsystem's counters into one namespaced registry.

        Idempotent: absorbing the same live counters twice only applies
        the delta, so the registry can be re-published mid-run.
        """
        registry = registry if registry is not None else MetricsRegistry()
        registry.absorb_counters("pipeline", {
            "chunks_done": self._done,
            "bytes_in": self.bytes_in,
            "destage_batches": self.destage_batches,
            "destage_bytes": self.destage_bytes,
            "gpu_offload_skips": self.gpu_offload_skips,
        })
        registry.attach_histogram("pipeline.latency_s", self.latency)
        if self.dedup is not None:
            registry.absorb_counters("dedup", self.dedup.counters)
        if self.tenancy is not None:
            registry.absorb_counters("tenancy", self.tenancy.counters())
        registry.absorb_counters("scheduler",
                                 self.scheduler.stats.as_counters())
        if self.gpu is not None:
            registry.absorb_counters("gpu", {
                "kernels_launched": self.gpu.kernels_launched,
            })
        registry.absorb_counters("ssd", {
            "host_bytes_written": self.ssd.host_bytes_written,
            "host_bytes_read": self.ssd.host_bytes_read,
            "nand_bytes_written": self.ssd.nand_bytes_written,
            "requests_completed": self.ssd.requests_completed,
            "trims": self.ssd.trims,
            "read_retries": self.ssd.read_retries,
        })
        registry.absorb_counters("compress.cpu", self.cpu_comp.stats())
        registry.absorb_counters("compress.gpu", self.gpu_comp.stats())
        for batcher in (self._index_batcher, self._comp_batcher):
            if batcher is not None:
                registry.absorb_counters(f"batcher.{batcher.name}", {
                    "batches_launched": batcher.batches_launched,
                    "items_processed": batcher.items_processed,
                })
                fill = batcher.fill_summary()
                prefix = f"batcher.{batcher.name}"
                registry.gauge(f"{prefix}.fill_mean").set(
                    fill["mean_fill"])
                registry.gauge(f"{prefix}.fill_p50").set(
                    fill["p50_fill"])
                registry.gauge(f"{prefix}.fill_fraction").set(
                    fill["fill_fraction"])
        return registry
