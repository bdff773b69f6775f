"""Tests for the GPU kernels and the CPU post-processing that refines them."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import LzParams, LzssCodec
from repro.compression.postprocess import (
    merge_segments,
    refine_to_container,
    validate_segments,
)
from repro.errors import CompressionError, KernelError
from repro.gpu import GpuDevice
from repro.gpu.kernels import (
    BinLookupKernel,
    DescriptorLzKernel,
    LookupBatch,
    SegmentLzKernel,
    Sha1Kernel,
)
from repro.sim import Environment


def _compressible(n: int) -> bytes:
    pattern = b"storage systems love repeated patterns; " \
              b"dedup and compression exploit them. "
    return (pattern * (n // len(pattern) + 1))[:n]


def _incompressible(n: int, seed: int = 11) -> bytes:
    import random
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(n))


def _make_table(entries):
    """Build a bin table {bin_id: (lo, hi, count)} from (bin, lo, hi)."""
    table = {}
    for bin_id, lo, hi in entries:
        lo_arr, hi_arr, count = table.get(
            bin_id, (np.zeros(16, dtype=np.uint64),
                     np.zeros(16, dtype=np.uint64), 0))
        lo_arr[count] = lo
        hi_arr[count] = hi
        table[bin_id] = (lo_arr, hi_arr, count + 1)
    return table


class TestBinLookupKernel:
    def test_hit_and_miss(self):
        table = _make_table([(0, 111, 222), (0, 333, 444), (1, 555, 666)])
        batch = LookupBatch.from_queries(
            [(0, 333, 444), (1, 555, 666), (1, 999, 999), (2, 1, 1)])
        slots = BinLookupKernel(batch, table).execute()
        assert list(slots) == [1, 0, -1, -1]

    def test_simt_path_matches_vectorized(self):
        table = _make_table(
            [(b % 4, 1000 + b, 2000 + b) for b in range(40)])
        queries = [(b % 4, 1000 + b, 2000 + b) for b in range(0, 40, 3)]
        queries += [(0, 5, 5), (3, 7, 7)]
        batch = LookupBatch.from_queries(queries)
        vec = BinLookupKernel(batch, table).execute()
        simt = BinLookupKernel(batch, table, use_simt=True).execute()
        assert np.array_equal(vec, simt)

    def test_empty_batch_rejected(self):
        with pytest.raises(KernelError):
            LookupBatch.from_queries([])

    def test_cost_scales_with_bin_occupancy(self):
        small = _make_table([(0, i, i) for i in range(2)])
        big = _make_table([(0, i, i) for i in range(16)])
        batch = LookupBatch.from_queries([(0, 99, 99)])
        assert (BinLookupKernel(batch, big).cost().lane_cycles_total
                > BinLookupKernel(batch, small).cost().lane_cycles_total)

    def test_unknown_bin_scans_nothing(self):
        batch = LookupBatch.from_queries([(7, 1, 2)])
        kernel = BinLookupKernel(batch, {})
        assert list(kernel.execute()) == [-1]
        assert kernel.cost().critical_path_cycles == 0.0

    def test_pcie_footprint(self):
        batch = LookupBatch.from_queries([(0, 1, 2)] * 100)
        kernel = BinLookupKernel(batch, {})
        assert kernel.bytes_in() == 100 * 20
        assert kernel.bytes_out() == 100 * 8


class TestSegmentLzKernel:
    def test_segments_tile_chunk(self):
        chunk = _compressible(4096)
        outputs = SegmentLzKernel([chunk], segments_per_chunk=8).execute()
        segs = outputs[0]
        assert [s.start for s in segs] == [i * 512 for i in range(8)]
        assert segs[-1].end == 4096
        validate_segments(segs, 4096)

    def test_roundtrip_through_postprocess(self):
        chunk = _compressible(4096)
        outputs = SegmentLzKernel([chunk], segments_per_chunk=8).execute()
        blob = refine_to_container(chunk, outputs[0])
        assert LzssCodec().decode(blob) == chunk

    def test_roundtrip_incompressible(self):
        chunk = _incompressible(4096)
        outputs = SegmentLzKernel([chunk], segments_per_chunk=8).execute()
        blob = refine_to_container(chunk, outputs[0])
        assert LzssCodec().decode(blob) == chunk

    def test_multiple_chunks_independent(self):
        chunks = [_compressible(2048), _incompressible(2048)]
        outputs = SegmentLzKernel(chunks, segments_per_chunk=4).execute()
        for chunk, per_chunk in zip(chunks, outputs):
            assert LzssCodec().decode(
                refine_to_container(chunk, per_chunk)) == chunk

    def test_simt_mode_same_results(self):
        chunk = _compressible(1024)
        plain = SegmentLzKernel([chunk], segments_per_chunk=4).execute()
        simt = SegmentLzKernel([chunk], segments_per_chunk=4,
                               use_simt=True).execute()
        assert len(plain[0]) == len(simt[0])
        for a, b in zip(plain[0], simt[0]):
            assert (a.start, a.end) == (b.start, b.end)
            assert np.array_equal(a.tokens, b.tokens)

    def test_simt_stats_refine_cost(self):
        chunk = _compressible(1024)
        kernel = SegmentLzKernel([chunk], segments_per_chunk=4,
                                 use_simt=True)
        analytic = kernel.cost().lane_cycles_total
        kernel.execute()
        measured = kernel.cost().lane_cycles_total
        assert measured != analytic  # stats actually feed the cost

    def test_ratio_close_to_serial_lzss(self):
        """Segment parallelism costs a little ratio, not a lot (A7)."""
        chunk = _compressible(4096)
        serial = len(LzssCodec().encode(chunk))
        outputs = SegmentLzKernel([chunk], segments_per_chunk=8).execute()
        parallel = len(refine_to_container(chunk, outputs[0]))
        assert parallel <= serial * 1.25

    def test_empty_batch_rejected(self):
        with pytest.raises(KernelError):
            SegmentLzKernel([])

    def test_bad_segment_count_rejected(self):
        with pytest.raises(KernelError):
            SegmentLzKernel([b"x" * 64], segments_per_chunk=0)

    def test_single_segment_equals_greedy_serial(self):
        chunk = _compressible(1024)
        outputs = SegmentLzKernel([chunk], segments_per_chunk=1).execute()
        blob = refine_to_container(chunk, outputs[0])
        serial = LzssCodec().encode(chunk)
        assert LzssCodec().decode(blob) == chunk
        assert len(blob) == len(serial)

    @given(st.binary(min_size=1, max_size=1500), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, chunk, segments):
        outputs = SegmentLzKernel(
            [chunk], segments_per_chunk=segments).execute()
        blob = refine_to_container(chunk, outputs[0])
        assert LzssCodec().decode(blob) == chunk

    @given(st.integers(0, 255), st.integers(100, 3000), st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_runs_roundtrip_property(self, byte, n, segments):
        chunk = bytes([byte]) * n
        outputs = SegmentLzKernel(
            [chunk], segments_per_chunk=segments).execute()
        blob = refine_to_container(chunk, outputs[0])
        assert LzssCodec().decode(blob) == chunk


def _with_first_token(output, distance, length):
    """Replace ``output``'s tokens by one leading token and literals
    after it, keeping the segment's span."""
    span = output.end - output.start
    literals = [[0, 1]] * (span - length)
    output.tokens = np.array([[distance, length]] + literals)


class TestPostprocessValidation:
    def test_gap_detected(self):
        chunk = _compressible(1024)
        outputs = SegmentLzKernel([chunk], segments_per_chunk=4).execute()[0]
        outputs[1].start += 1  # corrupt tiling
        with pytest.raises(CompressionError):
            merge_segments(chunk, outputs)

    def test_overlap_detected(self):
        chunk = _compressible(1024)
        outputs = SegmentLzKernel([chunk], segments_per_chunk=4).execute()[0]
        outputs[1].start -= 1  # overlaps segment 0
        with pytest.raises(CompressionError):
            merge_segments(chunk, outputs)

    def test_short_coverage_detected(self):
        chunk = _compressible(1024)
        outputs = SegmentLzKernel([chunk], segments_per_chunk=4).execute()[0]
        with pytest.raises(CompressionError):
            merge_segments(chunk, outputs[:-1])

    def test_wrong_expansion_detected(self):
        chunk = _compressible(1024)
        outputs = SegmentLzKernel([chunk], segments_per_chunk=4).execute()[0]
        outputs[2].tokens = outputs[2].tokens[:-1]  # now expands short
        with pytest.raises(CompressionError):
            merge_segments(chunk, outputs)

    @pytest.mark.parametrize("distance,length,window", [
        (257, 4, 4096),  # one byte past the 256 bytes produced
        (65, 4, 64),     # one byte past the window
        (-1, 4, 4096),   # negative distance
        (10, 19, 4096),  # longer than the 4-bit length field
        (10, 2, 4096),   # shorter than min_match
        (0, 2, 4096),    # a literal spanning two bytes
    ])
    def test_bad_token_detected(self, distance, length, window):
        """Each corruption keeps every segment's span, so only the token
        check itself can catch it."""
        chunk = _compressible(1024)
        params = LzParams(window=window)
        outputs = SegmentLzKernel([chunk], segments_per_chunk=4,
                                  params=params).execute()[0]
        _with_first_token(outputs[1], distance, length)
        with pytest.raises(CompressionError):
            merge_segments(chunk, outputs, params)

    @pytest.mark.parametrize("distance,length,window", [
        (10, 4, 4096), (256, 4, 4096), (64, 4, 64), (10, 18, 4096),
        (10, 3, 4096)])
    def test_hand_built_valid_token_accepted(self, distance, length,
                                             window):
        """The controls for test_bad_token_detected: valid tokens at the
        same place, up to each limit, pass."""
        chunk = _compressible(1024)
        params = LzParams(window=window)
        outputs = SegmentLzKernel([chunk], segments_per_chunk=4,
                                  params=params).execute()[0]
        _with_first_token(outputs[1], distance, length)
        merge_segments(chunk, outputs, params)

    def test_seam_extension_stops_at_length_field(self):
        """A clamped match followed by a long run of literals that keep
        the period grows to max_match and no further."""
        chunk = b"abc" * 40
        outputs = SegmentLzKernel([chunk], segments_per_chunk=2).execute()[0]
        # Segment 0 ends with a 3-byte match clamped at the seam (60);
        # segment 1 is all literals.
        outputs[0].tokens = np.array([[0, 1]] * 3 + [[3, 18]] * 3
                                     + [[3, 3]])
        outputs[1].tokens = np.array([[0, 1]] * 60)
        stats: dict = {}
        tokens = merge_segments(chunk, outputs, stats=stats)
        assert tokens[6].tolist() == [3, 18]  # 3 + 15 absorbed
        assert tokens[7:].tolist() == [[0, 1]] * 45
        assert stats == {"seams_extended": 1, "seam_bytes_absorbed": 15}
        blob = refine_to_container(chunk, outputs)
        assert LzssCodec().decode(blob) == chunk

    def test_seam_repair_never_hurts(self):
        chunk = _compressible(4096)
        outputs = SegmentLzKernel([chunk], segments_per_chunk=8).execute()[0]
        repaired = len(refine_to_container(chunk, outputs,
                                           repair_seams=True))
        raw = len(refine_to_container(chunk, outputs, repair_seams=False))
        assert repaired <= raw


class TestDescriptorLzKernel:
    def test_synthetic_sizes_follow_ratio(self):
        kernel = DescriptorLzKernel([4096, 4096], [2.0, 4.0])
        assert kernel.execute() == [2048, 1024]

    def test_subunit_ratio_clamped(self):
        kernel = DescriptorLzKernel([4096], [0.5])
        assert kernel.execute() == [4096]

    def test_cost_matches_payload_kernel_scale(self):
        """Descriptor and payload kernels must price similar batches in
        the same ballpark, or benchmark modes would disagree."""
        chunks = [_compressible(4096)] * 4
        payload = SegmentLzKernel(chunks, segments_per_chunk=8).cost()
        descriptor = DescriptorLzKernel([4096] * 4, [2.0] * 4,
                                        segments_per_chunk=8).cost()
        assert descriptor.lane_cycles_total == pytest.approx(
            payload.lane_cycles_total, rel=0.01)

    def test_length_mismatch_rejected(self):
        with pytest.raises(KernelError):
            DescriptorLzKernel([4096], [2.0, 3.0])


class TestSha1Kernel:
    def test_digests_match_hashlib(self):
        chunks = [b"alpha", b"beta", _compressible(4096)]
        digests = Sha1Kernel(chunks).execute()
        assert digests == [hashlib.sha1(c).digest() for c in chunks]

    def test_cost_scales_with_bytes(self):
        small = Sha1Kernel([b"x" * 512]).cost()
        large = Sha1Kernel([b"x" * 4096]).cost()
        assert large.lane_cycles_total > small.lane_cycles_total
        assert large.critical_path_cycles > small.critical_path_cycles

    def test_empty_batch_rejected(self):
        with pytest.raises(KernelError):
            Sha1Kernel([])


class TestKernelsOnDevice:
    def test_lz_launch_through_device(self):
        env = Environment()
        gpu = GpuDevice(env)
        chunk = _compressible(4096)
        kernel = SegmentLzKernel([chunk] * 4, segments_per_chunk=8)
        result = {}

        def proc():
            result["out"] = yield from gpu.launch(kernel)

        env.process(proc())
        env.run()
        assert len(result["out"]) == 4
        assert env.now > gpu.spec.launch_overhead_s

    def test_index_launch_latency_floor(self):
        """Small lookup batches are latency-bound: doubling the batch
        barely moves the launch time (paper: 'execution time is fixed')."""
        env = Environment()
        gpu = GpuDevice(env)
        table = _make_table([(0, i, i) for i in range(16)])
        t_small = gpu.launch_time(BinLookupKernel(
            LookupBatch.from_queries([(0, 1, 1)] * 64), table))
        t_large = gpu.launch_time(BinLookupKernel(
            LookupBatch.from_queries([(0, 1, 1)] * 256), table))
        assert t_large < t_small * 1.5
