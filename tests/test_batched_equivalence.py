"""Batched-vs-per-chunk equivalence over adversarial corpora.

The batched functional plane's contract is *byte identity*: every
``PipelineReport`` field — duration, counters, utilizations, the
shutdown drain's tail — must equal the per-chunk reference's
(:mod:`tests.reference_pipeline`), not approximately but exactly
(DESIGN.md §12).  The reference also reproduces the pinned golden
report digests in every integration mode.  The hypothesis suite here
hammers the claim with the corpora most likely to break a batch-level
shortcut:

- **dup-heavy** — a handful of payloads repeated, so the hash memo and
  the codec result memo replay almost everything;
- **all-zero** — one degenerate payload, maximal memo aliasing;
- **incompressible** — pseudorandom bytes, the expansion-guard path;
- **byte-shifted** — rotations of one payload: near-identical content
  with distinct fingerprints, the memo's worst adversary.

The deterministic tests below pin the component-level identities the
end-to-end property rests on: batched vdbench emission, window
fingerprinting, grouped codec dispatch, FTL run accounting and the
vectored SSD write.
"""

import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.dedup import GOLDEN_REPORT_CHUNKS, GOLDEN_REPORT_SHA256
from repro.chunkbatch import iter_windows
from repro.compression.parallel_cpu import CpuCompressor
from repro.core import IntegrationMode, PipelineConfig, ReductionPipeline
from repro.dedup.hashing import (
    PayloadHashMemo,
    fingerprint_chunk,
    fingerprint_window,
)
from repro.errors import DedupError
from repro.sim import Environment
from repro.storage import (
    SAMSUNG_SSD_830,
    BlockRequest,
    Ftl,
    FtlSpec,
    RequestKind,
    SsdModel,
)
from repro.types import Chunk
from repro.workload import VdbenchStream
from tests.reference_pipeline import ReferencePipeline, run_reference_mode

CHUNK_SIZE = 256
CORPORA = ("dup_heavy", "all_zero", "incompressible", "byte_shifted")


def corpus_payloads(kind: str, n: int, seed: int) -> list[bytes]:
    rng = random.Random(seed)
    if kind == "dup_heavy":
        base = [rng.randbytes(CHUNK_SIZE) for _ in range(3)]
        return [base[rng.randrange(3)] for _ in range(n)]
    if kind == "all_zero":
        return [bytes(CHUNK_SIZE)] * n
    if kind == "incompressible":
        return [rng.randbytes(CHUNK_SIZE) for _ in range(n)]
    if kind == "byte_shifted":
        base = rng.randbytes(CHUNK_SIZE)
        return [base[i % CHUNK_SIZE:] + base[:i % CHUNK_SIZE]
                for i in range(n)]
    raise AssertionError(kind)


def corpus_chunks(payloads: list[bytes]) -> list[Chunk]:
    """Fresh Chunk objects (the pipeline mutates them in place)."""
    return [Chunk(offset=i * CHUNK_SIZE, size=CHUNK_SIZE, payload=p)
            for i, p in enumerate(payloads)]


def run_report(payloads: list[bytes], mode: IntegrationMode,
               batched: bool) -> dict:
    """One full pipeline run (shutdown drain included) as a dict."""
    config = PipelineConfig(
        mode=mode, functional_batch=8,
        window=16, gpu_index_batch=8, gpu_comp_batch=8,
        gpu_batch_wait_s=5e-4, bin_buffer_capacity=8,
        bin_buffer_total=64)
    env = Environment()
    pipeline_cls = ReductionPipeline if batched else ReferencePipeline
    pipeline = pipeline_cls(env, config)
    chunks = corpus_chunks(payloads)
    report = pipeline.run(iter(chunks), total=len(chunks))
    return dataclasses.asdict(report)


class TestEndToEndEquivalence:
    @given(kind=st.sampled_from(CORPORA),
           mode=st.sampled_from(list(IntegrationMode)),
           n=st.integers(4, 40),
           seed=st.integers(0, 10**6))
    @settings(max_examples=16, deadline=None)
    def test_batched_report_is_byte_identical_property(
            self, kind, mode, n, seed):
        payloads = corpus_payloads(kind, n, seed)
        batched = run_report(payloads, mode, batched=True)
        reference = run_report(payloads, mode, batched=False)
        assert batched == reference

    @pytest.mark.parametrize("mode", list(IntegrationMode))
    @pytest.mark.parametrize("kind", CORPORA)
    def test_every_corpus_mode_pair(self, kind, mode):
        payloads = corpus_payloads(kind, 24, seed=7)
        batched = run_report(payloads, mode, batched=True)
        reference = run_report(payloads, mode, batched=False)
        assert batched == reference

    @pytest.mark.parametrize("mode", list(IntegrationMode))
    def test_reference_reproduces_golden_report(self, mode):
        report = dataclasses.asdict(
            run_reference_mode(mode, GOLDEN_REPORT_CHUNKS))
        canonical = json.dumps(report, sort_keys=True)
        assert hashlib.sha256(canonical.encode()).hexdigest() == \
            GOLDEN_REPORT_SHA256[mode.value]


class TestBatchedWorkload:
    @pytest.mark.parametrize("payload", [False, True])
    def test_chunks_batched_equals_chunks(self, payload):
        kwargs = dict(dedup_ratio=2.0, comp_ratio=2.0, seed=97,
                      chunk_size=512, payload=payload)
        plain = list(VdbenchStream(**kwargs).chunks(300))
        windowed = list(VdbenchStream(**kwargs).chunks_batched(
            300, window=64))
        assert len(plain) == len(windowed)
        for a, b in zip(plain, windowed):
            assert (a.offset, a.size, a.payload, a.fingerprint,
                    a.comp_ratio) == (b.offset, b.size, b.payload,
                                      b.fingerprint, b.comp_ratio)

    def test_stream_stats_identical(self):
        a = VdbenchStream(dedup_ratio=3.0, comp_ratio=1.5, seed=5)
        b = VdbenchStream(dedup_ratio=3.0, comp_ratio=1.5, seed=5)
        list(a.chunks(500))
        list(b.chunks_batched(500, window=32))
        assert a.stats.__dict__ == b.stats.__dict__


class TestFingerprintWindow:
    def test_matches_per_chunk_hashing(self):
        payloads = corpus_payloads("dup_heavy", 64, seed=3)
        reference = corpus_chunks(payloads)
        for chunk in reference:
            fingerprint_chunk(chunk)
        windowed = corpus_chunks(payloads)
        memo = PayloadHashMemo()
        for window in iter_windows(iter(windowed), 16):
            fingerprint_window(window, memo=memo)
        assert [c.fingerprint for c in windowed] == \
            [c.fingerprint for c in reference]
        stats = memo.stats()
        assert stats["hits"] + stats["misses"] == 64
        assert stats["misses"] <= 3  # only distinct payloads hash

    def test_descriptor_passthrough_and_error(self):
        stream = VdbenchStream(dedup_ratio=2.0, comp_ratio=2.0, seed=1)
        window = list(stream.chunks(8))
        before = [c.fingerprint for c in window]
        fingerprint_window(window)
        assert [c.fingerprint for c in window] == before
        bare = Chunk(offset=0, size=64)
        with pytest.raises(DedupError):
            fingerprint_window([bare])

    def test_memo_eviction_bounded(self):
        memo = PayloadHashMemo(capacity=4)
        for i in range(16):
            memo.digest(i.to_bytes(4, "big"))
        stats = memo.stats()
        assert stats["entries"] <= 4
        assert stats["evictions"] == 12


class TestCompressWindow:
    def test_matches_per_chunk_compress(self):
        payloads = corpus_payloads("byte_shifted", 48, seed=9)
        reference = corpus_chunks(payloads)
        ref_comp = CpuCompressor()
        ref_results = [ref_comp.compress(c) for c in reference]
        windowed = corpus_chunks(payloads)
        win_comp = CpuCompressor()
        win_results = []
        for window in iter_windows(iter(windowed), 16):
            win_results.extend(win_comp.compress_window(window))
        assert [r.compressed_size for r in win_results] == \
            [r.compressed_size for r in ref_results]
        assert [c.compressed_size for c in windowed] == \
            [c.compressed_size for c in reference]
        assert win_comp.stats() == ref_comp.stats()

    def test_cross_window_replay_preserves_stats(self):
        """Dup-heavy: later windows replay results from earlier ones."""
        payloads = corpus_payloads("dup_heavy", 96, seed=21)
        reference = corpus_chunks(payloads)
        ref_comp = CpuCompressor()
        for chunk in reference:
            ref_comp.compress(chunk)
        windowed = corpus_chunks(payloads)
        win_comp = CpuCompressor()
        for window in iter_windows(iter(windowed), 8):
            win_comp.compress_window(window)
        assert win_comp.stats() == ref_comp.stats()
        assert [c.compressed_size for c in windowed] == \
            [c.compressed_size for c in reference]


class TestFtlWriteRun:
    def test_state_identical_to_per_page_writes(self):
        spec = FtlSpec(blocks=24, pages_per_block=16, gc_low_water=2)
        rng = random.Random(13)
        workload = [rng.randrange(220) for _ in range(8000)]
        per_page = Ftl(spec)
        for lpn in workload:
            per_page.write(lpn)
        run = Ftl(spec)
        run.write_run(workload)
        per_page.check_invariants()
        run.check_invariants()
        assert list(per_page._mapping.items()) == \
            list(run._mapping.items())
        assert per_page._free == run._free
        assert per_page.erase_counts() == run.erase_counts()
        assert (per_page.host_pages_written, per_page.nand_pages_written,
                per_page.gc_copies, per_page.erases) == \
            (run.host_pages_written, run.nand_pages_written,
             run.gc_copies, run.erases)
        assert per_page.write_amplification() == \
            run.write_amplification()


class TestSsdSubmitVector:
    SIZES = [4096, 100, 8192, 4097, 12288, 1]

    def _run(self, vectored: bool) -> tuple:
        env = Environment()
        ssd = SsdModel(env, SAMSUNG_SSD_830)

        def driver():
            if vectored:
                yield from ssd.submit_vector(list(self.SIZES),
                                             sequential=True)
            else:
                for size in self.SIZES:
                    yield from ssd.submit(BlockRequest(
                        RequestKind.WRITE, 0, size, sequential=True))

        env.process(driver())
        env.run()
        return (env.now, ssd.requests_completed, ssd.host_bytes_written,
                ssd.nand_bytes_written)

    def test_accounting_matches_per_request_submits(self):
        vec_now, *vec_counters = self._run(vectored=True)
        ref_now, *ref_counters = self._run(vectored=False)
        assert vec_counters == ref_counters
        # The coalesced service is the *sum* of the per-request
        # services, so the busy time agrees mathematically — but one
        # summed timeout and N accumulated ones round differently at
        # the last float bit.  That ULP is exactly why the
        # report-bearing shutdown drain stays event-per-batch
        # (DESIGN.md §12); here the vector API itself is pinned to
        # ULP-level agreement.
        assert vec_now == pytest.approx(ref_now, rel=1e-12)
