"""Shared LZ machinery: parameters, tokens, and the canonical container.

All LZ paths in the library (serial LZSS, the GPU segment-parallel path
after post-processing) produce the same *token* representation — a list of
:class:`Literal` and :class:`Match` — and the same serialized container,
so one decoder handles every producer.  That mirrors the paper's design:
the GPU emits raw match candidates and the CPU refines them into the same
stream format the storage system already understands.

Container format (big-endian)::

    [u32 original_length][flag/token stream ...]

Token stream: groups of up to 8 tokens share one flags byte; bit i of the
flags byte (LSB first) is 1 for a match, 0 for a literal.  A literal is
one raw byte.  A match is two bytes: ``dddddddd dddd llll`` — a 12-bit
backward distance (1-based) and a 4-bit length encoding ``length -
min_match``.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from repro.errors import CompressionError, CorruptStreamError


@dataclass(frozen=True)
class LzParams:
    """Window geometry shared by every LZ path."""

    window: int = 4096
    min_match: int = 3
    max_match: int = 18

    def __post_init__(self) -> None:
        if self.window < 2 or self.window > 4096:
            raise CompressionError(
                f"window must be in [2, 4096] for 12-bit distances, "
                f"got {self.window}")
        if self.min_match < 2:
            raise CompressionError(f"min_match too small: {self.min_match}")
        if self.max_match < self.min_match:
            raise CompressionError("max_match < min_match")
        if self.max_match - self.min_match > 15:
            raise CompressionError(
                "match length range exceeds the 4-bit length field")


DEFAULT_PARAMS = LzParams()


# -- data-plane fast-path primitives (DESIGN.md §9) -------------------------

#: Bounded cache of rolling-key arrays, keyed by buffer *contents*.  The
#: CPU and GPU compression paths both key their match tables off the same
#: rolling 3-byte groups, and in a dedup pipeline the same 4 KiB payload
#: is routinely scanned more than once (both codecs in a comparison run,
#: several segment threads per chunk), so the array is worth sharing.
_KEY3_CACHE: "OrderedDict[bytes, list[int]]" = OrderedDict()
_KEY3_CACHE_ENTRIES = 16


def key3_array(data: bytes) -> list[int]:
    """Rolling 24-bit keys: ``keys[i] = data[i]<<16 | data[i+1]<<8 | data[i+2]``.

    The shared per-chunk hash array of the data-plane fast path: computed
    once per chunk and reused by every match finder over that chunk (the
    serial LZSS parse, each GPU segment thread, and — after one further
    multiplicative mix — the QuickLZ table).  A single zip-slice
    comprehension beats per-position indexing by ~1.7x in CPython, and a
    small content-keyed cache shares the array across consumers of the
    same buffer.  Callers must treat the result as read-only.
    """
    if len(data) < 3:
        return []
    if type(data) is bytes:
        cached = _KEY3_CACHE.get(data)
        if cached is not None:
            _KEY3_CACHE.move_to_end(data)
            return cached
    keys = [(a << 16) | (b << 8) | c
            for a, b, c in zip(data, data[1:], data[2:])]
    if type(data) is bytes:
        _KEY3_CACHE[data] = keys
        while len(_KEY3_CACHE) > _KEY3_CACHE_ENTRIES:
            _KEY3_CACHE.popitem(last=False)
    return keys


def cached_key3_array(data: bytes) -> "Optional[list[int]]":
    """The already-cached rolling-key array for ``data``, or None.

    A peek that never computes: consumers with their own derived form
    (the QuickLZ table mix) use it to reuse a shared array when one
    exists without forcing the two-pass derive when one does not.
    """
    if type(data) is bytes:
        return _KEY3_CACHE.get(data)
    return None


def common_prefix_length(data: bytes, a: int, b: int, limit: int) -> int:
    """Longest common prefix of ``data[a:]`` and ``data[b:]``, capped.

    Byte-identical to the naive ``while data[a+i] == data[b+i]`` scan the
    fast path replaced.  Short prefixes (the common case when a hash
    candidate fizzles) stay on an inline byte scan; once eight bytes
    agree, the scan switches to ``startswith`` slice probes (C memcmp) on
    geometrically doubling spans, then binary-searches the first mismatch
    inside the failing span.  Overlapping ranges are fine — both probes
    read the same immutable buffer, so prefix equality is still plain
    byte equality.
    """
    if limit <= 0:
        return 0
    scan = 8 if limit > 8 else limit
    length = 0
    # The audited per-byte exception REP502 points everyone else at:
    # bounded to 8 bytes, it beats slice setup for the short prefixes
    # that dominate fizzled hash candidates.
    while length < scan and data[a + length] == data[b + length]:  # repro-lint: disable=REP502
        length += 1
    if length < scan or length == limit:
        return length
    starts = data.startswith
    if starts(data[b + length:b + limit], a + length):
        return limit
    span = 8
    while True:
        rest = limit - length
        if span > rest:
            span = rest
        if starts(data[b + length:b + length + span], a + length):
            length += span
            span <<= 1
        else:
            break
    # The first mismatch lies inside the failing span: binary-search the
    # largest extra prefix (prefix equality is monotone in its length).
    lo, hi = 0, span - 1
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if starts(data[b + length:b + length + mid], a + length):
            lo = mid
        else:
            hi = mid - 1
    return length + lo


def common_prefix_length_pair(abuf: bytes, a: int, bbuf: bytes, b: int,
                              limit: int) -> int:
    """Longest common prefix of ``abuf[a:]`` and ``bbuf[b:]``, capped.

    The cross-buffer sibling of :func:`common_prefix_length`, for scans
    that extend a match between *two* buffers (the delta codec's
    reference/target walk).  Same structure: inline head scan for the
    short prefixes that dominate, then doubling ``startswith`` probes
    with a binary search inside the failing span.
    """
    if limit <= 0:
        return 0
    scan = 8 if limit > 8 else limit
    length = 0
    # The same audited per-byte head scan as common_prefix_length.
    while length < scan and abuf[a + length] == bbuf[b + length]:  # repro-lint: disable=REP502
        length += 1
    if length < scan or length == limit:
        return length
    starts = bbuf.startswith
    if starts(abuf[a + length:a + limit], b + length):
        return limit
    span = 8
    while True:
        rest = limit - length
        if span > rest:
            span = rest
        if starts(abuf[a + length:a + length + span], b + length):
            length += span
            span <<= 1
        else:
            break
    lo, hi = 0, span - 1
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if starts(abuf[a + length:a + length + mid], b + length):
            lo = mid
        else:
            hi = mid - 1
    return length + lo


def copy_match(out: bytearray, distance: int, length: int) -> None:
    """Append ``length`` bytes from ``distance`` back onto ``out``.

    Byte-identical to the per-byte ``out.append(out[start + i])`` loop
    for every distance/length combination — an overlapping copy is a
    periodic extension with period ``distance``, which slice replication
    reproduces exactly — but runs as a handful of C-level copies.
    """
    start = len(out) - distance
    if distance >= length:
        out += out[start:start + length]
        return
    period = out[start:]
    reps, rem = divmod(length, distance)
    out += period * reps
    if rem:
        out += period[:rem]


@dataclass(frozen=True)
class Literal:
    """A single uncompressed byte."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 255:
            raise CompressionError(f"invalid literal byte {self.value}")


@dataclass(frozen=True)
class Match:
    """A backward reference: copy ``length`` bytes from ``distance`` back."""

    distance: int
    length: int

    def validate(self, params: LzParams) -> None:
        """Raise unless the match fits the container's bit fields."""
        if not 1 <= self.distance <= params.window:
            raise CompressionError(f"match distance {self.distance} "
                                   f"outside window {params.window}")
        if not params.min_match <= self.length <= params.max_match:
            raise CompressionError(f"match length {self.length} outside "
                                   f"[{params.min_match}, {params.max_match}]")


Token = Union[Literal, Match]


def token_output_length(tokens: Iterable[Token]) -> int:
    """Plaintext bytes the token sequence expands to."""
    total = 0
    for token in tokens:
        total += token.length if isinstance(token, Match) else 1
    return total


def tokens_to_bytes(tokens: list[Token], original_length: int,
                    params: LzParams = DEFAULT_PARAMS) -> bytes:
    """Serialize a token list into the canonical container."""
    if original_length != token_output_length(tokens):
        raise CompressionError(
            f"token stream expands to {token_output_length(tokens)} bytes "
            f"but header claims {original_length}")
    out = bytearray(struct.pack(">I", original_length))
    for group_start in range(0, len(tokens), 8):
        group = tokens[group_start:group_start + 8]
        flags = 0
        body = bytearray()
        for bit, token in enumerate(group):
            if isinstance(token, Match):
                token.validate(params)
                flags |= 1 << bit
                distance = token.distance - 1          # 1-based -> 12 bits
                length = token.length - params.min_match
                body.append((distance >> 4) & 0xFF)
                body.append(((distance & 0x0F) << 4) | (length & 0x0F))
            else:
                body.append(token.value)
        out.append(flags)
        out.extend(body)
    return bytes(out)


def match_tokens(n: int, positions: list[int], distances: list[int],
                 lengths: list[int]) -> np.ndarray:
    """Token array of a parse of ``n`` bytes, from its matches alone.

    The greedy producers carry tokens as ``(distance, length)`` rows;
    distance 0 is a literal of length 1, whose byte is the input byte at
    its position.
    """
    starts = np.asarray(positions, dtype=np.int64)
    sizes = np.asarray(lengths, dtype=np.int64)
    inside = np.zeros(n + 1, dtype=np.int64)
    inside[starts + 1] += 1
    inside[starts + sizes] -= 1
    at = np.flatnonzero(np.cumsum(inside[:n]) == 0)
    tokens = np.zeros((len(at), 2), dtype=np.int64)
    tokens[:, 1] = 1
    rows = np.searchsorted(at, starts)
    tokens[rows, 0] = distances
    tokens[rows, 1] = sizes
    return tokens


def pack_tokens(data: bytes, tokens: np.ndarray,
                params: LzParams = DEFAULT_PARAMS) -> bytes:
    """Serialize a validated token array covering ``data``.

    Byte-identical to :func:`tokens_to_bytes` on the same stream: each
    group of 8 tokens is a flags byte followed by its tokens' bodies.
    """
    distance, length = tokens[:, 0], tokens[:, 1]
    is_match = distance > 0
    body = 1 + is_match
    # Offset of each body: header, one flags byte per group so far, and
    # the bodies before it.
    at = 5 + (np.arange(len(tokens)) >> 3) + np.cumsum(body) - body
    out = np.zeros(4 + (len(tokens) + 7) // 8 + int(body.sum()),
                   dtype=np.uint8)
    out[:4] = np.frombuffer(struct.pack(">I", len(data)), dtype=np.uint8)
    out[at[::8] - 1] = np.packbits(is_match, bitorder="little")
    literal = ~is_match
    out[at[literal]] = np.frombuffer(data, dtype=np.uint8)[
        (np.cumsum(length) - length)[literal]]
    code = ((distance[is_match] - 1) << 4) | (length[is_match]
                                              - params.min_match)
    out[at[is_match]] = code >> 8
    out[at[is_match] + 1] = code & 0xFF
    return out.tobytes()


def bytes_to_tokens(blob: bytes,
                    params: LzParams = DEFAULT_PARAMS) -> tuple[list[Token], int]:
    """Parse the canonical container back into (tokens, original_length)."""
    if len(blob) < 4:
        raise CorruptStreamError("container shorter than its header")
    (original_length,) = struct.unpack(">I", blob[:4])
    tokens: list[Token] = []
    produced = 0
    pos = 4
    while produced < original_length:
        if pos >= len(blob):
            raise CorruptStreamError("container truncated mid-stream")
        flags = blob[pos]
        pos += 1
        for bit in range(8):
            if produced >= original_length:
                break
            if flags & (1 << bit):
                if pos + 2 > len(blob):
                    raise CorruptStreamError("container truncated in a match")
                hi, lo = blob[pos], blob[pos + 1]
                pos += 2
                distance = ((hi << 4) | (lo >> 4)) + 1
                length = (lo & 0x0F) + params.min_match
                if distance > produced:
                    raise CorruptStreamError(
                        f"match reaches {distance} bytes back with only "
                        f"{produced} bytes produced")
                tokens.append(Match(distance, length))
                produced += length
            else:
                if pos + 1 > len(blob):
                    raise CorruptStreamError(
                        "container truncated in a literal")
                tokens.append(Literal(blob[pos]))
                pos += 1
                produced += 1
    if produced != original_length:
        raise CorruptStreamError(
            f"stream expands to {produced} bytes, header says "
            f"{original_length}")
    return tokens, original_length


def decode_tokens(tokens: Iterable[Token]) -> bytes:
    """Expand a token sequence into plaintext."""
    out = bytearray()
    for token in tokens:
        if isinstance(token, Match):
            if token.distance > len(out):
                raise CorruptStreamError(
                    f"match distance {token.distance} exceeds produced "
                    f"output {len(out)}")
            # Overlapping copies expand as a periodic extension; copy_match
            # reproduces the per-byte semantics with slice copies.
            copy_match(out, token.distance, token.length)
        else:
            out.append(token.value)
    return bytes(out)
