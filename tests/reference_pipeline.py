"""Per-chunk reference for the pipeline's batched functional plane.

The product feeder (``ReductionPipeline._feeder``) works on chunk
windows: one fingerprint pass per window through a payload-hash memo
and, with dedup off, one grouped codec dispatch whose results the
workers pop by admission seq.  :class:`ReferencePipeline` overrides
only the feeder: it admits one chunk at a time, hashes each chunk with
``fingerprint_chunk`` and precomputes no codec results, so every
worker compresses its own chunk.  The timed per-chunk workflow is the
product's, unchanged.

The batched plane's contract is that reports are byte-identical to this
reference (DESIGN.md §12); ``tests/test_batched_equivalence.py`` holds
it to that over adversarial corpora, and against the pinned golden
report digests.
"""

from __future__ import annotations

from typing import Generator, Iterable, Optional

from repro.core import IntegrationMode, PipelineConfig, ReductionPipeline
from repro.core.stats import PipelineReport
from repro.cpu.model import I7_2600K, SimCpu
from repro.dedup.hashing import fingerprint_chunk
from repro.gpu.device import RADEON_HD_7970, GpuDevice
from repro.obs.stages import STAGE_ADMISSION, TRACK_WINDOW
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim import Environment
from repro.storage.ssd import SAMSUNG_SSD_830, SsdModel
from repro.types import Chunk
from repro.workload import VdbenchStream


class ReferencePipeline(ReductionPipeline):
    """The pipeline with one-chunk-at-a-time admission."""

    def _feeder(self, chunks: Iterable[Chunk]) -> Generator:
        cfg = self.config
        rate = cfg.arrival_rate_iops
        gap = 1.0 / rate if rate else 0.0
        next_admission = 0.0
        trace = self.tracer if self.tracer.enabled else None
        for seq, chunk in enumerate(chunks):
            if cfg.enable_dedup and chunk.fingerprint is None:
                fingerprint_chunk(chunk)
            if gap:
                delay = next_admission - self.env.now
                if delay > 0:
                    yield self.env.timeout(delay)
                next_admission = max(next_admission, self.env.now) + gap
            request = self._window.request()
            requested = self.env.now if trace is not None else 0.0
            yield request
            if trace is not None:
                trace.record_since(STAGE_ADMISSION, seq, requested,
                                   resource=TRACK_WINDOW)
            self.bytes_in += chunk.size
            self.env.process(self._chunk_worker(chunk, request, seq))


def run_reference_mode(mode: IntegrationMode, n_chunks: int,
                       base_config: Optional[PipelineConfig] = None,
                       seed: int = 1234, payload: bool = False,
                       tracer: Tracer = NULL_TRACER) -> PipelineReport:
    """``run_mode`` on the default platform, through the reference feeder
    and the per-chunk vdbench generator."""
    config = (base_config or PipelineConfig()).with_overrides(mode=mode)
    env = Environment()
    tracer.bind(env)
    pipeline = ReferencePipeline(
        env, config, cpu=SimCpu(env, I7_2600K),
        gpu=GpuDevice(env, RADEON_HD_7970, tracer=tracer),
        ssd=SsdModel(env, SAMSUNG_SSD_830, tracer=tracer), tracer=tracer)
    stream = VdbenchStream(dedup_ratio=2.0, comp_ratio=2.0,
                           chunk_size=config.chunk_size, seed=seed,
                           payload=payload)
    return pipeline.run(stream.chunks(n_chunks), total=n_chunks)
