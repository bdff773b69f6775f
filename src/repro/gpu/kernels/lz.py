"""Segment-parallel LZ match-search kernel (paper §3.2(2)).

Ozsoy et al.'s GPU LZ assumes inputs large enough to feed the whole
device; a 4 KiB storage chunk is not.  The paper's answer — implemented
here — is to compress *many chunks at once* and to put *multiple threads
on each chunk*: the chunk is cut into segments, every thread runs an LZ
match search over its own segment, and adjacent threads overlap by the
history-window size so matches may reach back across the segment seam.

The kernel's output is deliberately *raw*: per-segment token arrays that
have not been stitched into a single valid stream ("The GPU's compression
results are not refined in GPU due to performance issues").  The CPU-side
refinement lives in :mod:`repro.compression.postprocess`.

Two kernel classes share one cost model:

* :class:`SegmentLzKernel` — payload mode: really searches matches (via
  the same :class:`~repro.compression.lzss.MatchTable` the CPU codec's
  greedy parse uses, clamped to the segment), optionally through the
  SIMT executor so divergence is *measured*.
* :class:`DescriptorLzKernel` — descriptor mode for large timed runs:
  no payload, synthetic output sizes from the workload's compression
  ratio, analytic divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.compression.lz_common import DEFAULT_PARAMS, LzParams, match_tokens
from repro.compression.lzss import MatchTable
from repro.errors import KernelError
from repro.gpu.costs import DEFAULT_GPU_COSTS, GpuKernelCosts
from repro.gpu.kernel import Kernel, KernelCost
from repro.gpu.simt import SimtGrid, SimtStats


def _lz_cost(name: str, threads: int, total_bytes: int, segment_bytes: int,
             costs: GpuKernelCosts,
             measured: Optional[SimtStats] = None) -> KernelCost:
    """Shared cost formula for both LZ kernel flavours.

    With measured SIMT statistics, lane cycles are charged for the slots a
    lockstep wavefront actually burns; otherwise the analytic divergence
    factor stands in.
    """
    if measured is not None and measured.wavefront_slot_units > 0:
        # slot_units = lane-slots a lockstep wavefront burns, so the
        # intra-wavefront imbalance is already *measured*; only the
        # per-lane branch serialization factor remains analytic.
        lane_cycles = (measured.wavefront_slot_units
                       * costs.lz_work_unit_cycles
                       * costs.lz_lane_serial_factor)
    else:
        lane_cycles = (total_bytes * costs.lz_work_unit_cycles
                       * costs.lz_divergence_factor)
    return KernelCost(
        name=name,
        threads=threads,
        lane_cycles_total=lane_cycles + threads * costs.lz_fixed_lane_cycles,
        critical_path_cycles=segment_bytes * costs.lz_critical_cycles_per_byte,
        bytes_read=total_bytes * costs.lz_bytes_read_factor,
        bytes_written=total_bytes,  # raw, unrefined match records
    )


@dataclass
class SegmentOutput:
    """Raw output of one segment thread: tokens covering [start, end).

    ``tokens`` is a ``(k, 2)`` array of ``(distance, length)`` rows;
    distance 0 is a literal
    (:func:`~repro.compression.lz_common.match_tokens`).
    """

    chunk_index: int
    segment_index: int
    start: int
    end: int
    tokens: np.ndarray


class SegmentLzKernel(Kernel):
    """Payload-mode segment-parallel LZ search over a batch of chunks."""

    name = "segment_lz"

    def __init__(self, chunks: Sequence[bytes], segments_per_chunk: int = 8,
                 params: LzParams = DEFAULT_PARAMS,
                 costs: GpuKernelCosts = DEFAULT_GPU_COSTS,
                 use_simt: bool = False,
                 workgroup_size: int = 64):
        if not chunks:
            raise KernelError("empty chunk batch")
        if segments_per_chunk < 1:
            raise KernelError(
                f"invalid segment count {segments_per_chunk}")
        self.chunks = list(chunks)
        self.segments_per_chunk = segments_per_chunk
        self.params = params
        self.costs = costs
        self.use_simt = use_simt
        self.workgroup_size = workgroup_size
        self._stats: Optional[SimtStats] = None

    # -- functional execution ------------------------------------------------

    def _segment_bounds(self, chunk: bytes,
                        segment_index: int) -> tuple[int, int]:
        seg_len = max(1, (len(chunk) + self.segments_per_chunk - 1)
                      // self.segments_per_chunk)
        start = segment_index * seg_len
        end = min(len(chunk), start + seg_len)
        return start, end

    def execute(self) -> list[list[SegmentOutput]]:
        """Return raw per-segment outputs, grouped by chunk.

        Each thread runs a greedy LZ parse of its segment over the
        chunk's shared :class:`~repro.compression.lzss.MatchTable`.  The
        history a thread sees is the ``window`` bytes before its segment
        (the overlap region the paper describes) plus every position it
        has parsed, so matches may reference backwards across the seam;
        they are valid in the final sequential stream because the
        decoder has full history by then.  A thread clamps its last
        match at its own segment end.
        """
        n_threads = len(self.chunks) * self.segments_per_chunk
        walks: list[list[Optional[tuple]]] = [
            [None] * self.segments_per_chunk for _ in self.chunks]
        # One match table per chunk, shared read-only by all its segment
        # threads (built lazily so idle grid slots pay nothing).
        tables: dict[int, MatchTable] = {}

        def run_thread(thread_id: int, work_hook=None) -> None:
            chunk_index, segment_index = divmod(
                thread_id, self.segments_per_chunk)
            chunk = self.chunks[chunk_index]
            start, end = self._segment_bounds(chunk, segment_index)
            if start >= end:
                # Chunk shorter than the segment grid: this thread idles,
                # exactly like a real kernel's out-of-range guard.
                return
            table = tables.get(chunk_index)
            if table is None:
                table = tables[chunk_index] = MatchTable(chunk, self.params)
            positions, distances, lengths = table.walk(start, end)
            # One token, and one unit of work, per step of the parse.
            steps = end - start - sum(lengths) + len(lengths)
            if work_hook is not None:
                work_hook(steps)
            walks[chunk_index][segment_index] = (
                segment_index, start, end, steps,
                positions, distances, lengths)

        if self.use_simt:
            wg = self.workgroup_size
            global_size = ((n_threads + wg - 1) // wg) * wg

            def kernel_fn(ctx):
                if ctx.global_id < n_threads:
                    run_thread(ctx.global_id, work_hook=ctx.work)

            self._stats = SimtGrid(
                global_size=global_size, local_size=wg).run(kernel_fn)
        else:
            for thread_id in range(n_threads):
                run_thread(thread_id)
        return [self._chunk_outputs(index, len(chunk),
                                    list(filter(None, walks[index])))
                for index, chunk in enumerate(self.chunks)]

    @staticmethod
    def _chunk_outputs(chunk_index: int, n: int,
                       walks: list[tuple]) -> list[SegmentOutput]:
        """Split one chunk's parse into its segments' token arrays."""
        matches: tuple[list[int], list[int], list[int]] = ([], [], [])
        for walk in walks:
            for into, found in zip(matches, walk[4:]):
                into += found
        tokens = match_tokens(n, *matches)
        rows = np.cumsum([0] + [walk[3] for walk in walks]).tolist()
        return [SegmentOutput(chunk_index, index, start, end,
                              tokens[row:next_row])
                for (index, start, end, *_), row, next_row
                in zip(walks, rows, rows[1:])]

    # -- timing -------------------------------------------------------------

    def cost(self) -> KernelCost:
        total = sum(len(c) for c in self.chunks)
        longest = max(len(c) for c in self.chunks)
        segment_bytes = (longest + self.segments_per_chunk - 1) \
            // self.segments_per_chunk
        return _lz_cost(self.name,
                        len(self.chunks) * self.segments_per_chunk,
                        total, segment_bytes, self.costs, self._stats)

    def bytes_in(self) -> int:
        return sum(len(c) for c in self.chunks)

    def bytes_out(self) -> int:
        # Raw token records flow back for CPU refinement; roughly half the
        # input volume for typical primary-storage data.
        return sum(len(c) for c in self.chunks) // 2


class DescriptorLzKernel(Kernel):
    """Descriptor-mode LZ kernel for large timed runs (no payloads).

    ``chunk_ratios`` carries the workload generator's per-chunk achieved
    compression ratio; the kernel's synthetic result is the compressed
    size each chunk would have.
    """

    name = "segment_lz"

    def __init__(self, chunk_sizes: Sequence[int],
                 chunk_ratios: Sequence[float],
                 segments_per_chunk: int = 8,
                 costs: GpuKernelCosts = DEFAULT_GPU_COSTS):
        if not chunk_sizes:
            raise KernelError("empty chunk batch")
        if len(chunk_sizes) != len(chunk_ratios):
            raise KernelError("sizes/ratios length mismatch")
        if segments_per_chunk < 1:
            raise KernelError(f"invalid segment count {segments_per_chunk}")
        self.chunk_sizes = list(chunk_sizes)
        self.chunk_ratios = [max(1.0, r) for r in chunk_ratios]
        self.segments_per_chunk = segments_per_chunk
        self.costs = costs

    def execute(self) -> list[int]:
        """Synthetic compressed sizes implied by the workload's ratios."""
        return [max(1, int(size / ratio)) for size, ratio
                in zip(self.chunk_sizes, self.chunk_ratios)]

    def cost(self) -> KernelCost:
        total = sum(self.chunk_sizes)
        longest = max(self.chunk_sizes)
        segment_bytes = (longest + self.segments_per_chunk - 1) \
            // self.segments_per_chunk
        return _lz_cost(self.name,
                        len(self.chunk_sizes) * self.segments_per_chunk,
                        total, segment_bytes, self.costs)

    def bytes_in(self) -> int:
        return sum(self.chunk_sizes)

    def bytes_out(self) -> int:
        return sum(self.chunk_sizes) // 2
