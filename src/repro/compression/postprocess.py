"""CPU post-processing of raw GPU compression output (paper §3.2(2)-(3)).

The GPU returns unrefined per-segment token arrays; "the CPU must refine
the results".  Refinement here means what it meant on the testbed:

1. validate that the segments tile the chunk exactly and that every match
   stays inside the backward window (seam matches reach into the previous
   segment's overlap region — legal, because the sequential decoder has
   full history by the time it gets there);
2. stitch the per-segment token arrays into one stream;
3. repair the seams: a segment thread must clamp its final match at its
   own boundary (the right neighbour's parse is not final while it runs),
   so the CPU extends seam-straddling matches into the next segment's
   leading literals;
4. pack the stream into the canonical LZSS container.

The result decodes with the ordinary :class:`~repro.compression.lzss.LzssCodec`
decoder, which is the whole point: downstream storage never knows whether
a chunk was compressed by the CPU or the GPU.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.compression.lz_common import (
    DEFAULT_PARAMS,
    LzParams,
    common_prefix_length,
    pack_tokens,
)
from repro.errors import CompressionError
from repro.gpu.kernels.lz import SegmentOutput


def validate_segments(outputs: Sequence[SegmentOutput],
                      chunk_length: int,
                      params: LzParams = DEFAULT_PARAMS) -> np.ndarray:
    """Raise unless the segment outputs exactly tile ``chunk_length``.

    Returns their tokens concatenated in order.
    """
    expected_start = 0
    for out in outputs:
        if out.start != expected_start:
            raise CompressionError(
                f"segment {out.segment_index} starts at {out.start}, "
                f"expected {expected_start}")
        expected_start = out.end
    if expected_start != chunk_length:
        raise CompressionError(
            f"segments cover {expected_start} bytes of a "
            f"{chunk_length}-byte chunk")
    tokens = np.concatenate(
        [out.tokens for out in outputs] + [np.zeros((0, 2), np.int64)])
    rows = np.cumsum([0] + [len(out.tokens) for out in outputs])
    produced = np.concatenate(([0], np.cumsum(tokens[:, 1])))
    spans = produced[rows[1:]] - produced[rows[:-1]]
    for out, span in zip(outputs, spans.tolist()):
        if span != out.end - out.start:
            raise CompressionError(
                f"segment {out.segment_index} tokens expand to {span} "
                f"bytes, span is {out.end - out.start}")
    distance, length = tokens[:, 0], tokens[:, 1]
    literal = (distance == 0) & (length == 1)
    match = ((distance >= 1) & (distance <= params.window)
             & (length >= params.min_match) & (length <= params.max_match))
    reach = distance > produced[:-1]
    bad = np.flatnonzero(~(literal | match) | reach)
    if bad.size:
        row = bad[0]
        raise CompressionError(
            f"token (distance {distance[row]}, length {length[row]}) at "
            f"byte {produced[row]} is neither a literal nor a match within "
            f"window {params.window}, lengths [{params.min_match}, "
            f"{params.max_match}] and the bytes produced")
    return tokens


def _extend_across_seam(chunk: bytes, merged: list[np.ndarray],
                        next_tokens: np.ndarray, seam: int,
                        params: LzParams) -> tuple[np.ndarray, int]:
    """Extend a match that was clamped at the seam into leading literals.

    Returns the possibly-trimmed ``next_tokens`` and the number of bytes
    absorbed into the previous segment's final match.
    """
    if not merged or not len(next_tokens):
        return next_tokens, 0
    distance, length = merged[-1][-1].tolist()
    if not distance or length >= params.max_match:
        return next_tokens, 0
    # Absorbable bytes are capped three ways: the run of leading literals,
    # the room left in the match's length field, and how far the periodic
    # extension actually keeps matching.
    head = next_tokens[:params.max_match - length, 0]
    nonzero = np.flatnonzero(head)
    lead = int(nonzero[0]) if nonzero.size else len(head)
    absorbed = common_prefix_length(chunk, seam - distance, seam, lead)
    if absorbed:
        last = merged[-1].copy()
        last[-1, 1] += absorbed
        merged[-1] = last
    return next_tokens[absorbed:], absorbed


def merge_segments(chunk: bytes, outputs: Sequence[SegmentOutput],
                   params: LzParams = DEFAULT_PARAMS,
                   repair_seams: bool = True,
                   stats: Optional[dict] = None) -> np.ndarray:
    """Stitch raw segment outputs into one valid token array.

    ``stats``, when given, accumulates refinement observability:
    ``seams_extended`` (matches grown across a boundary) and
    ``seam_bytes_absorbed`` (literals they swallowed).
    """
    ordered = sorted(outputs, key=lambda o: o.segment_index)
    tokens = validate_segments(ordered, len(chunk), params)
    if not repair_seams:
        return tokens
    merged: list[np.ndarray] = []
    for out in ordered:
        part, absorbed = _extend_across_seam(
            chunk, merged, out.tokens, out.start, params)
        if stats is not None and absorbed:
            stats["seams_extended"] = stats.get("seams_extended", 0) + 1
            stats["seam_bytes_absorbed"] = \
                stats.get("seam_bytes_absorbed", 0) + absorbed
        if len(part):
            merged.append(part)
    tokens = np.concatenate(merged + [np.zeros((0, 2), np.int64)])
    if int(tokens[:, 1].sum()) != len(chunk):
        raise CompressionError("seam repair corrupted the stream length")
    return tokens


def refine_to_container(chunk: bytes, outputs: Sequence[SegmentOutput],
                        params: LzParams = DEFAULT_PARAMS,
                        repair_seams: bool = True,
                        stats: Optional[dict] = None) -> bytes:
    """Full post-processing: merge, repair seams, pack into the container."""
    tokens = merge_segments(chunk, outputs, params, repair_seams, stats)
    return pack_tokens(chunk, tokens, params)
