"""Serial LZSS codec: the library's reference compressor.

A textbook LZSS.  Greedy parsing by default, over an array best-match
table; optional lazy matching (one-byte lookahead, over a hash-chain
finder) squeezes out a slightly better ratio at a higher search cost,
which the CPU cost model prices accordingly.

This codec defines the canonical compressed format (see
:mod:`~repro.compression.lz_common`), and its decoder is the single
decoder used for *every* producer in the library, including the GPU
segment-parallel path after post-processing.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict, deque
from typing import Optional

import numpy as np

from repro.compression.lz_common import (
    DEFAULT_PARAMS,
    Literal,
    LzParams,
    Match,
    Token,
    bytes_to_tokens,
    common_prefix_length,
    decode_tokens,
    key3_array,
    match_tokens,
    pack_tokens,
    tokens_to_bytes,
)
from repro.compression.memo import CodecMemo, payload_fingerprint
from repro.errors import CompressionError

#: Bound on hash-chain length; keeps worst-case encode cost linearish.
_MAX_CHAIN = 64


def _new_chain() -> "deque[int]":
    """Chain factory: maxlen evicts the oldest candidate on overflow,
    exactly like the append-then-drop-head list it replaces."""
    return deque(maxlen=_MAX_CHAIN)


class MatchFinder:
    """Hash-chain search for the longest backward match at a position.

    Positions are inserted as the encoder advances; lookups only consider
    candidates no further back than the window.  The lazy parse uses it:
    its lookahead inserts a position early (and again after it), which
    shifts chain eviction in a way the :class:`MatchTable` of the greedy
    parse does not model.  The table is keyed by the rolling 3-byte key
    array
    (:func:`~repro.compression.lz_common.key3_array`).
    """

    def __init__(self, data: bytes, params: LzParams = DEFAULT_PARAMS):
        self.data = data
        self.params = params
        self._keys = key3_array(data)
        # defaultdict so the hot insert path is a single C-level getitem;
        # lookups that must not create entries go through .get().
        self._chains: "defaultdict[int, deque[int]]" = defaultdict(_new_chain)

    def insert(self, pos: int) -> None:
        """Register ``pos`` as a future match candidate."""
        if pos + 3 <= len(self.data):
            self._chains[self._keys[pos]].append(pos)

    def insert_range(self, start: int, end: int) -> None:
        """Register every position in ``[start, end)`` as a candidate."""
        chains = self._chains
        keys = self._keys
        for pos in range(start, min(end, len(self.data) - 2)):
            chains[keys[pos]].append(pos)

    def longest_match(self, pos: int) -> Optional[Match]:
        """The best match at ``pos``, or None."""
        data, params = self.data, self.params
        n = len(data)
        limit = min(n - pos, params.max_match)
        if pos + 3 > n or limit < params.min_match:
            return None
        chain = self._chains.get(self._keys[pos])
        if not chain:
            return None
        window_start = pos - params.window
        best_len = params.min_match - 1
        best_dist = 0
        probe = pos + best_len
        for candidate in reversed(chain):
            if candidate < window_start:
                break
            # A candidate can only improve on best_len if it also matches
            # one byte past the current best — cheap reject before the
            # prefix scan.  Ties never update best, so this preserves the
            # winning (length, distance) pair exactly.
            if data[candidate + best_len] != data[probe]:
                continue
            length = common_prefix_length(data, candidate, pos, limit)
            if length > best_len:
                best_len = length
                best_dist = pos - candidate
                if length >= limit:
                    break
                probe = pos + best_len
        return Match(best_dist, best_len) if best_dist else None


def _prefix_lengths(words: np.ndarray, a: np.ndarray, b: np.ndarray,
                    cap: np.ndarray, max_cap: int) -> np.ndarray:
    """Common prefix of ``data[a:]`` and ``data[b:]`` per pair, capped.

    ``words[i]`` is ``data[i:i+8]`` read as a little-endian u64, so the
    first differing byte of two words is the lowest set byte of their
    XOR.  Isolating the lowest set bit gives a power of two, which
    ``frexp`` reads off exactly.
    """
    length = np.zeros(len(a), dtype=np.int64)
    running = np.ones(len(a), dtype=bool)
    for offset in range(0, max_cap, 8):
        x = words[a + offset] ^ words[b + offset]
        lowest = (x & (~x + np.uint64(1))).astype(np.float64)
        same = np.where(x == 0, 8, (np.frexp(lowest)[1] - 1) >> 3)
        length += np.where(running, same, 0)
        running &= same == 8
    return np.minimum(length, cap)


#: Bit split of a closed position's packed ``(distance, length)``; the
#: 12-bit distance field keeps distances below it.
_DIST_BITS = 13
_DIST_MASK = (1 << _DIST_BITS) - 1


class MatchTable:
    """The greedy best match at every position of one buffer.

    The best match at ``pos`` is the answer a :class:`MatchFinder`
    gives under the greedy insert discipline (every position inserted
    once, in order, before any later query): scan the last
    ``_MAX_CHAIN`` earlier positions with ``pos``'s 3-byte key, nearest
    first, stop at the window, keep a candidate only on a strictly
    longer common prefix capped at ``min(max_match, n - pos)``, and
    report it if it reaches ``min_match``.  Nothing in that depends on where a parse started,
    so one table serves the serial greedy parse and every GPU segment
    thread over the same chunk; each walk applies its own segment clamp.

    numpy answers the nearest candidate of every position at once:
    sorting ``key << bits | pos`` puts each position right behind its
    previous occurrence, and XORs of 8-byte words give the prefix.  The
    nearest answer is final unless a deeper candidate lies inside the
    window and the nearest fell short of the cap.  Only at those *open*
    positions, and only when a walk visits one, does :meth:`_scan` run
    the exact chain search.
    """

    def __init__(self, data: bytes, params: LzParams = DEFAULT_PARAMS):
        self.data = data
        self.params = params
        n = len(data)
        keyed = max(0, n - 2)  # positions with a full 3-byte key
        buf = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
        keys = (buf[:keyed] << 16) | (buf[1:keyed + 1] << 8) | buf[2:]
        bits = max(1, keyed.bit_length())
        ranked = np.sort((keys << bits) | np.arange(keyed))
        order = ranked & ((1 << bits) - 1)
        same = (ranked[1:] >> bits) == (ranked[:-1] >> bits)
        prev = np.full(keyed, -1, dtype=np.int64)
        prev[order[1:][same]] = order[:-1][same]
        pos = np.arange(keyed)
        floor = np.maximum(pos - params.window, 0)
        cap = np.minimum(n - pos, params.max_match)
        near = (prev >= floor) & (cap >= params.min_match)
        pos, cand, cap, floor = pos[near], prev[near], cap[near], floor[near]
        padded = data + bytes(params.max_match + 8)
        words = np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded,
                           strides=(1,)).copy()
        length = _prefix_lengths(words, cand, pos, cap, params.max_match)
        packed = np.where(length >= params.min_match,
                          (length << _DIST_BITS) | (pos - cand), 0)
        # Open: a deeper candidate is in the window and the nearest one
        # fell short of the cap, so it might be beaten.
        is_open = (prev[cand] >= floor) & (length < cap)
        if is_open.any():
            # Lowest candidate the exact scan may reach: the window edge
            # or the deepest chain entry, whichever is nearer.
            start = np.ones(keyed, dtype=bool)
            start[1:] = ~same
            group = np.maximum.accumulate(
                np.where(start, np.arange(keyed), 0))
            rank = np.empty(keyed, dtype=np.int64)
            rank[order] = np.arange(keyed)
            at = rank[pos[is_open]]
            deepest = order[np.maximum(group[at], at - _MAX_CHAIN)]
            packed[is_open] = ~np.maximum(deepest, floor[is_open])
        found = packed != 0
        #: Positions where a match may start, and for each either the
        #: packed nearest answer or, at an open position, ``~lowest``.
        self._starts = pos[found].tolist()
        self._packed = packed[found].tolist()

    def _scan(self, pos: int, lowest: int) -> tuple[int, int]:
        """The exact chain scan at an open position.

        Every position in ``[lowest, pos)`` holding ``pos``'s 3-byte key
        is in the bounded chain, so the nearest candidate sharing at
        least ``k >= 3`` bytes with ``pos`` is one ``rfind``.  The scan's
        answer is the largest such ``k`` up to the cap, at the nearest
        candidate reaching it; a binary search over ``k`` finds it,
        probing the cap first since a full-length match is common.
        """
        data = self.data
        low = self.params.min_match - 1
        high = min(self.params.max_match, len(data) - pos)
        best_dist = 0
        probe = high
        while low < high:
            need = max(probe, 3)
            candidate = data.rfind(data[pos:pos + need], lowest,
                                   pos - 1 + need)
            if candidate < 0:
                high = probe - 1
            else:
                low, best_dist = probe, pos - candidate
            probe = (low + high + 1) >> 1
        return best_dist, low

    def walk(self, start: int,
             end: int) -> tuple[list[int], list[int], list[int]]:
        """Greedy parse of ``[start, end)``: its matches' positions,
        distances and lengths.  A match that would run past ``end``
        becomes a literal, as a segment thread must clamp at its own
        boundary; every other position is a literal."""
        starts, packed_at = self._starts, self._packed
        positions: list[int] = []
        distances: list[int] = []
        sizes: list[int] = []
        count = len(starts)
        index = bisect_left(starts, start)
        while index < count:
            pos = starts[index]
            if pos >= end:
                break
            packed = packed_at[index]
            if packed < 0:
                distance, length = self._scan(pos, ~packed)
            else:
                distance, length = packed & _DIST_MASK, packed >> _DIST_BITS
            if distance and pos + length <= end:
                positions.append(pos)
                distances.append(distance)
                sizes.append(length)
                index = bisect_left(starts, pos + length, index)
            else:
                index += 1
        return positions, distances, sizes


class LzssCodec:
    """Encode/decode bytes using the canonical LZSS container."""

    def __init__(self, params: LzParams = DEFAULT_PARAMS, lazy: bool = False,
                 memo: Optional[CodecMemo] = None):
        self.params = params
        self.lazy = lazy
        self.memo = memo
        # Window geometry and parse strategy change the stream, so they
        # are part of the memo namespace.
        self._memo_tag = (f"lzss/{params.window}/{params.min_match}/"
                          f"{params.max_match}/"
                          f"{'lazy' if lazy else 'greedy'}")

    # -- encoding -----------------------------------------------------------

    def encode_to_tokens(self, data: bytes) -> list[Token]:
        """Produce the token list for ``data`` (greedy or lazy parse)."""
        if not self.lazy:
            return bytes_to_tokens(self._encode_fresh(data), self.params)[0]
        # The lazy lookahead inserts a position early, so it keeps the
        # incremental finder.
        finder = MatchFinder(data, self.params)
        tokens: list[Token] = []
        pos = 0
        n = len(data)
        while pos < n:
            match = finder.longest_match(pos)
            if match is not None and pos + 1 < n:
                finder.insert(pos)
                next_match = finder.longest_match(pos + 1)
                if next_match is not None and next_match.length > match.length:
                    # Deferring wins: emit a literal, take the later match.
                    tokens.append(Literal(data[pos]))
                    pos += 1
                    continue
            if match is not None:
                tokens.append(match)
                finder.insert_range(pos, pos + match.length)
                pos += match.length
            else:
                tokens.append(Literal(data[pos]))
                finder.insert(pos)
                pos += 1
        return tokens

    def encode(self, data: bytes, *,
               fingerprint: Optional[bytes] = None) -> bytes:
        """Compress ``data`` into the canonical container.

        ``fingerprint`` is an optional precomputed content fingerprint
        used as the memo key when a memo is attached.
        """
        if self.memo is not None:
            if fingerprint is None:
                fingerprint = payload_fingerprint(data)
            cached = self.memo.get(self._memo_tag, fingerprint)
            if cached is not None:
                if self.memo.verifier is not None:
                    self.memo.verifier.on_hit(
                        "codec:" + self._memo_tag, cached,
                        lambda: self._encode_fresh(data))
                return cached
        blob = self._encode_fresh(data)
        if self.memo is not None:
            self.memo.put(self._memo_tag, fingerprint, blob)
        return blob

    def _encode_fresh(self, data: bytes) -> bytes:
        """One full encode, bypassing the memo (miss path + verifier)."""
        if self.lazy:
            tokens = self.encode_to_tokens(data)
            return tokens_to_bytes(tokens, len(data), self.params)
        tokens = match_tokens(len(data), *MatchTable(
            data, self.params).walk(0, len(data)))
        return pack_tokens(data, tokens, self.params)

    # -- decoding ----------------------------------------------------------

    def decode(self, blob: bytes) -> bytes:
        """Decompress a canonical container back to plaintext."""
        tokens, original_length = bytes_to_tokens(blob, self.params)
        out = decode_tokens(tokens)
        if len(out) != original_length:
            raise CompressionError(
                f"decoded {len(out)} bytes, expected {original_length}")
        return out

    def ratio(self, data: bytes) -> float:
        """Achieved compression ratio (original/compressed) on ``data``."""
        if not data:
            return 1.0
        return len(data) / len(self.encode(data))
