"""Fast path vs pre-PR reference: byte-for-byte stream equivalence.

The data-plane fast path (shared rolling-key array, slice-doubling match
extension, the array best-match table, array tokens through GPU
refinement and packing, slice copy-out) promises *byte-identical*
output.  These tests hold every
rewritten loop to that promise against the executable pre-PR
specifications in :mod:`tests.reference_codecs`, over an adversarial
corpus chosen to hit the rewrites' edge cases: overlapping copies of
every small period, matches that end exactly at limits and windows,
hash-collision-heavy content, sub-``min_match`` tails, and GPU segment
seams.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.reference_codecs import (
    ReferenceLzssCodec,
    ReferenceMatchFinder,
    ReferenceQuickLzCodec,
    reference_decode_tokens,
    reference_gpu_container,
    reference_segment_bounds,
    reference_segment_tokens,
)
from repro.bench.dataplane import build_corpus
from repro.compression.lz_common import (
    DEFAULT_PARAMS,
    Literal,
    LzParams,
    Match,
    common_prefix_length,
    common_prefix_length_pair,
    copy_match,
    decode_tokens,
)
from repro.compression.lzss import LzssCodec, MatchFinder, MatchTable
from repro.compression.postprocess import refine_to_container
from repro.compression.quicklz import QuickLzCodec
from repro.gpu.kernels.lz import SegmentLzKernel
from repro.gpu.simt import SimtGrid


def adversarial_corpus() -> list[tuple[str, bytes]]:
    """The bench corpus plus blocks built to stress the fast paths."""
    blocks = list(build_corpus())
    rng = random.Random(0xDA7A)
    # Overlapping-copy periods 1..8: copy_match's slice replication must
    # reproduce the per-byte periodic extension for every small period.
    for period in range(1, 9):
        unit = bytes(rng.randrange(256) for _ in range(period))
        blocks.append((f"period{period}", (unit * 600)[:2048]))
    # Match lengths pinned at the encoders' caps: runs of exactly
    # max_match (LZSS 18) and _MAX_MATCH (QuickLZ 258) plus one.
    blocks.append(("cap18", b"x" * 18 + b"Q" + b"x" * 19 + b"Q"))
    blocks.append(("cap258", b"y" * 258 + b"Q" + b"y" * 259))
    # A repeat at exactly the LZSS window distance, and one just past it.
    probe = bytes(rng.randrange(256) for _ in range(32))
    filler = bytes(rng.randrange(1, 255) for _ in range(4096 - 32))
    blocks.append(("window_edge", probe + filler[:4096 - 64] + probe))
    blocks.append(("window_past", probe + filler + probe))
    # Two-symbol soup: dense 3-byte key collisions, long chains.
    blocks.append(("soup", bytes(rng.choice(b"ab")
                                 for _ in range(2048))))
    # Low-entropy random: frequent short matches that fizzle inside the
    # 8-byte head scan of common_prefix_length.
    blocks.append(("lowent", bytes(rng.randrange(16)
                                   for _ in range(2048))))
    # Text with long-range self-similarity for the lazy parse.
    sentence = b"it was the best of times, it was the worst of times. "
    blocks.append(("dickens", (sentence * 40)[:2048]))
    for size in (0, 1, 2, 3, 4, 7):
        blocks.append((f"tiny{size}",
                       bytes(rng.randrange(256) for _ in range(size))))
    return blocks


CORPUS = adversarial_corpus()
IDS = [name for name, _ in CORPUS]
PAYLOADS = [payload for _, payload in CORPUS]


# -- primitive equivalence ---------------------------------------------------

def test_common_prefix_length_matches_naive_scan():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 600)
        # Skewed alphabet so long shared prefixes actually occur.
        data = bytes(rng.choice(b"aab") for _ in range(n))
        a = rng.randrange(n - 1)
        b = rng.randrange(n - 1)
        limit = rng.randrange(0, n - max(a, b))
        expected = 0
        while (expected < limit
               and data[a + expected] == data[b + expected]):
            expected += 1
        assert common_prefix_length(data, a, b, limit) == expected


def test_common_prefix_length_pair_matches_naive_scan():
    rng = random.Random(17)
    for _ in range(300):
        abuf = bytes(rng.choice(b"aab")
                     for _ in range(rng.randrange(1, 400)))
        bbuf = bytes(rng.choice(b"aab")
                     for _ in range(rng.randrange(1, 400)))
        a = rng.randrange(len(abuf))
        b = rng.randrange(len(bbuf))
        limit = rng.randrange(
            0, min(len(abuf) - a, len(bbuf) - b) + 1)
        expected = 0
        while (expected < limit
               and abuf[a + expected] == bbuf[b + expected]):
            expected += 1
        assert common_prefix_length_pair(abuf, a, bbuf, b,
                                         limit) == expected


def test_copy_match_matches_per_byte_loop():
    rng = random.Random(11)
    for _ in range(200):
        seed = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
        distance = rng.randrange(1, len(seed) + 1)
        length = rng.randrange(1, 400)
        fast = bytearray(seed)
        copy_match(fast, distance, length)
        slow = bytearray(seed)
        start = len(slow) - distance
        for i in range(length):
            slow.append(slow[start + i])
        assert fast == slow


# -- QuickLZ ----------------------------------------------------------------

@pytest.mark.parametrize("payload", PAYLOADS, ids=IDS)
def test_quicklz_streams_byte_identical(payload):
    production = QuickLzCodec()
    reference = ReferenceQuickLzCodec()
    blob = production.encode(payload)
    assert blob == reference.encode(payload)
    # Round-trip through both decoder generations.
    assert production.decode(blob) == payload
    assert reference.decode(blob) == payload


# -- LZSS -------------------------------------------------------------------

@pytest.mark.parametrize("lazy", (False, True), ids=("greedy", "lazy"))
@pytest.mark.parametrize("payload", PAYLOADS, ids=IDS)
def test_lzss_streams_byte_identical(payload, lazy):
    production = LzssCodec(lazy=lazy)
    reference = ReferenceLzssCodec(lazy=lazy)
    blob = production.encode(payload)
    assert blob == reference.encode(payload)
    assert production.decode(blob) == payload


@pytest.mark.parametrize("payload", PAYLOADS, ids=IDS)
def test_indexed_finder_reproduces_chain_finder(payload):
    """Under the greedy insert discipline the array best-match table
    (the indexed finder of the greedy parses) must reproduce the chain
    finder's answer at every parse position — including the
    bounded-chain eviction behaviour: a literal where the finder has no
    match, the finder's match everywhere else.  The incremental finder,
    which the lazy parse keeps, is held to the same answers."""
    incremental = MatchFinder(payload)
    reference = ReferenceMatchFinder(payload)
    expected = ([], [], [])
    pos = 0
    n = len(payload)
    while pos < n:
        match = reference.longest_match(pos)
        assert incremental.longest_match(pos) == match
        step = 1
        if match is not None:
            for into, value in zip(expected,
                                   (pos, match.distance, match.length)):
                into.append(value)
            step = match.length
        for offset in range(step):
            incremental.insert(pos + offset)
            reference.insert(pos + offset)
        pos += step
    assert MatchTable(payload).walk(0, n) == expected


def test_decode_tokens_matches_reference_expander():
    rng = random.Random(13)
    for _ in range(100):
        tokens = [Literal(rng.randrange(256))
                  for _ in range(rng.randrange(1, 6))]
        for _ in range(rng.randrange(0, 30)):
            produced = sum(
                t.length if isinstance(t, Match) else 1 for t in tokens)
            if rng.random() < 0.6:
                tokens.append(Match(
                    distance=rng.randrange(1, produced + 1),
                    length=rng.randrange(3, 19)))
            else:
                tokens.append(Literal(rng.randrange(256)))
        assert decode_tokens(tokens) == reference_decode_tokens(tokens)


# -- GPU segment search ------------------------------------------------------

def _token_rows(tokens) -> list[list[int]]:
    """Token objects in the array form: ``[distance, length]`` rows,
    distance 0 for a literal."""
    return [[t.distance, t.length] if isinstance(t, Match) else [0, 1]
            for t in tokens]


@pytest.mark.parametrize("segments", (2, 3, 8))
@pytest.mark.parametrize(
    "name", ("seam512", "period3", "window_past", "soup"))
def test_gpu_segment_tokens_match_reference(name, segments):
    payload = dict(CORPUS)[name]
    kernel = SegmentLzKernel([payload], segments_per_chunk=segments)
    (outputs,) = kernel.execute()
    assert outputs, "kernel produced no segments"
    for output in outputs:
        expected = reference_segment_tokens(
            payload, output.start, output.end, DEFAULT_PARAMS)
        assert output.tokens.tolist() == _token_rows(expected), (
            f"segment [{output.start}, {output.end}) diverged")


@pytest.mark.parametrize("segments", (1, 4, 8))
@pytest.mark.parametrize("payload", PAYLOADS, ids=IDS)
def test_gpu_containers_match_reference(payload, segments):
    ours: dict = {}
    theirs: dict = {}
    (outputs,) = SegmentLzKernel(
        [payload], segments_per_chunk=segments).execute()
    assert refine_to_container(payload, outputs, stats=ours) == \
        reference_gpu_container(payload, segments, stats=theirs)
    assert ours == theirs


def _params() -> st.SearchStrategy:
    """Every valid LzParams shape: narrow to full windows, min_match 2-5
    (above 3 a key hit is not yet a match), every length field width."""
    return st.builds(
        lambda window, min_match, extra: LzParams(
            window=window, min_match=min_match,
            max_match=min_match + extra),
        st.sampled_from((2, 64, 4096)), st.integers(2, 5),
        st.integers(0, 15))


@st.composite
def _payloads(draw, max_size: int = 9000) -> bytes:
    """Random bytes, skewed so matches, deep chains and runs occur."""
    size = draw(st.integers(1, max_size))
    alphabet = draw(st.sampled_from((1, 2, 3, 4, 16, 256)))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    data = bytes(rng.randrange(alphabet) for _ in range(size))
    period = draw(st.integers(0, 40))
    if period:
        data = (data[:period] * (size // period + 1))[:size]
    return data


@given(st.one_of(_payloads(), st.binary(min_size=1, max_size=64)),
       st.integers(1, 16), _params())
@settings(max_examples=150, deadline=None)
def test_gpu_container_property(payload, segments, params):
    """Kernel plus refinement equals the Token-object oracle, container
    and seam counters alike."""
    ours: dict = {}
    theirs: dict = {}
    (outputs,) = SegmentLzKernel([payload], segments_per_chunk=segments,
                                 params=params).execute()
    assert refine_to_container(payload, outputs, params, stats=ours) == \
        reference_gpu_container(payload, segments, params, stats=theirs)
    assert ours == theirs


@given(st.one_of(_payloads(), st.binary(max_size=64)), _params())
@settings(max_examples=100, deadline=None)
def test_lzss_greedy_property(payload, params):
    codec = LzssCodec(params)
    reference = ReferenceLzssCodec(params)
    assert codec.encode(payload) == reference.encode(payload)
    assert codec.encode_to_tokens(payload) == \
        reference.encode_to_tokens(payload)


@pytest.mark.parametrize("name", ("seam512", "period3", "soup", "tiny2"))
def test_simt_outputs_and_stats_match_reference(name):
    """The SIMT grid sees the same outputs, and one work unit per token
    of each thread's reference parse — the pre-array accounting."""
    chunks = [dict(CORPUS)[name], dict(CORPUS)["lowent"]]
    segments = 8
    plain = SegmentLzKernel(chunks, segments_per_chunk=segments).execute()
    kernel = SegmentLzKernel(chunks, segments_per_chunk=segments,
                             use_simt=True)
    simt = kernel.execute()
    for ours, theirs in zip(simt, plain):
        assert [(o.start, o.end) for o in ours] == \
            [(o.start, o.end) for o in theirs]
        for a, b in zip(ours, theirs):
            assert np.array_equal(a.tokens, b.tokens)
    work = []
    for chunk in chunks:
        bounds = reference_segment_bounds(len(chunk), segments)
        counts = [len(reference_segment_tokens(chunk, start, end))
                  for start, end in bounds]
        work += counts + [0] * (segments - len(counts))

    def replay(ctx):
        if ctx.global_id < len(work):
            ctx.work(work[ctx.global_id])

    expected = SimtGrid(global_size=64, local_size=64).run(replay)
    assert kernel._stats == expected
