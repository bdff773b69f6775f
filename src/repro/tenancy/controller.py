"""The admission controller the pipeline drives (one facade).

Everything the core pipeline needs from the tenancy subsystem goes
through :class:`TenancyController`: an inline verdict per chunk
(:data:`ADMIT_HIT` / :data:`ADMIT_MISS` / :data:`ADMIT_SKIP`), the
store of every chunk that reaches compression, compaction batch
hand-off, and per-tenant accounting.
Estimator sketches, cache partitions and residency quotas stay private
to this package — REP901 patrols that boundary the same way REP801
guards shard state.

The verdict contract under a non-default policy:

* **hit** — the fingerprint was resident in the bounded inline cache;
  the chunk commits as a duplicate against the canonical record.
* **miss** — not resident; the chunk stores (canonically if its
  fingerprint is new, else as a shadow copy deferred to compaction).
* **skip** — the tenant's locality estimate is below threshold
  ("prioritized" only): the chunk bypasses inline dedup entirely,
  stores raw under a shadow fingerprint, and compaction recovers any
  duplicate later.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.errors import ConfigError
from repro.storage.metadata import MetadataStore
from repro.tenancy.accounting import TenantAccounting
from repro.tenancy.admission import PrioritizedCache, SharedLruCache
from repro.tenancy.compaction import CompactionEntry, CompactionQueue
from repro.tenancy.locality import LocalityEstimator
from repro.types import Chunk

__all__ = ["ADMIT_HIT", "ADMIT_MISS", "ADMIT_SKIP",
           "TenancyController"]

#: Inline admission verdicts.
ADMIT_HIT = "hit"
ADMIT_MISS = "miss"
ADMIT_SKIP = "skip"


class TenancyController:
    """Locality-prioritized inline admission plus compaction hand-off."""

    __slots__ = ("policy", "window", "skip_threshold", "min_observe",
                 "rebalance_period", "accounting", "_cache",
                 "_estimators", "_compaction", "_admissions")

    def __init__(self, policy: str, cache_entries: int, window: int,
                 skip_threshold: float, min_observe: int,
                 rebalance_period: int, compaction_batch: int):
        if policy not in ("shared_lru", "prioritized"):
            raise ConfigError(f"unknown tenancy policy {policy!r}")
        self.policy = policy
        self.window = window
        self.skip_threshold = skip_threshold
        self.min_observe = min_observe
        self.rebalance_period = rebalance_period
        self.accounting = TenantAccounting()
        if policy == "prioritized":
            self._cache = PrioritizedCache(cache_entries)
        else:
            self._cache = SharedLruCache(cache_entries)
        self._estimators: dict[int, LocalityEstimator] = {}
        self._compaction = CompactionQueue(compaction_batch)
        self._admissions = 0

    # -- inline admission ----------------------------------------------------

    def _estimator(self, tenant: int) -> LocalityEstimator:
        estimator = self._estimators.get(tenant)
        if estimator is None:
            estimator = LocalityEstimator(self.window)
            self._estimators[tenant] = estimator
        return estimator

    def admit(self, tenant: int, fingerprint: bytes) -> str:
        """The inline verdict for one chunk of ``tenant``."""
        self.accounting.note_chunk(tenant)
        estimator = self._estimator(tenant)
        estimator.observe(fingerprint)
        prioritized = self.policy == "prioritized"
        if prioritized:
            self._admissions += 1
            if self._admissions % self.rebalance_period == 0:
                self._rebalance()
            if estimator.observed >= self.min_observe \
                    and estimator.estimate < self.skip_threshold:
                self.accounting.note_skip(tenant)
                return ADMIT_SKIP
        if self._cache.probe(tenant, fingerprint):
            self.accounting.note_hit(tenant)
            return ADMIT_HIT
        # Insert at admission, not at commit: the pipeline keeps a whole
        # window of chunks in flight, and a duplicate that arrives
        # within that window must still find its twin's fingerprint
        # resident.  The pipeline re-checks the metadata store before
        # committing a hit as an inline duplicate, so an entry whose
        # canonical record is still in flight (or is a
        # compaction-promoted shadow) downgrades to a shadow store
        # instead of a dangling dedup reference.
        self._cache.insert(tenant, fingerprint)
        return ADMIT_MISS

    def _rebalance(self) -> None:
        """Residency shares proportional to the locality estimates."""
        estimators = self._estimators
        total = 0.0
        for estimator in estimators.values():
            total += estimator.estimate
        if total <= 0.0:
            share = 1.0 / len(estimators)
            shares = {tenant: share for tenant in estimators}
        else:
            shares = {tenant: estimator.estimate / total
                      for tenant, estimator in estimators.items()}
        self._cache.set_shares(shares)

    # -- commit ---------------------------------------------------------------

    def commit_unique(self, seq: int, tenant: int, chunk: Chunk,
                      verdict: str, blob: Optional[bytes],
                      metadata: MetadataStore) -> str:
        """Store a chunk that reached compression; returns its path.

        A miss stores under its real fingerprint (``"tenant_unique"``)
        only when no record (stored or compaction-promoted) already owns
        that fingerprint.  Anything else — an inline skip, or a *hidden
        duplicate* whose entry the bounded cache lost — stores a raw
        shadow copy (``"tenant_shadow"``) queued for compaction, which
        remaps it and sweeps the blob later.
        """
        fingerprint = chunk.fingerprint
        if (verdict == ADMIT_MISS and metadata.lookup(fingerprint) is None
                and self._compaction.canonical_shadow(fingerprint)
                is None):
            record, path = fingerprint, "tenant_unique"
        else:
            record = hashlib.sha1(
                f"tenancy-shadow:{seq}".encode()).digest()
            self._compaction.defer(CompactionEntry(
                seq=seq, tenant=tenant, offset=chunk.offset,
                size=chunk.size, fingerprint=fingerprint,
                shadow_fp=record))
            path = "tenant_shadow"
        metadata.store_unique(record, chunk.size, chunk.compressed_size,
                              blob=blob)
        metadata.map_logical(chunk.offset, record, chunk.size)
        self.accounting.note_stored(tenant)
        return path

    def record_latency(self, tenant: int, seconds: float) -> None:
        """Fold one chunk's inline latency into the tenant's histogram."""
        self.accounting.record_latency(tenant, seconds)

    # -- compaction hand-off -------------------------------------------------

    def take_compaction_batch(self):
        """A full epoch batch when one is ready, else None."""
        return self._compaction.take_batch()

    def drain_compaction(self):
        """End-of-run epochs over every remaining deferred chunk."""
        return self._compaction.drain()

    def compaction_cycles(self, entries, costs) -> float:
        """CPU cycles one epoch charges through ``SimCpu``."""
        return self._compaction.cycles_for(entries, costs)

    def apply_compaction(self, entries,
                         metadata: MetadataStore) -> int:
        """Run one epoch; returns the duplicates recovered."""
        tenants = self._compaction.apply(entries, metadata)
        for tenant in tenants:
            self.accounting.note_recovered(tenant)
        return len(tenants)

    # -- readouts ------------------------------------------------------------

    def estimates(self) -> dict[int, float]:
        """Per-tenant locality estimates (first-seen order)."""
        return {tenant: estimator.estimate
                for tenant, estimator in self._estimators.items()}

    def compaction_counters(self) -> dict[str, int]:
        """Lifetime compaction counters."""
        return self._compaction.counters()

    def counters(self) -> dict[str, int]:
        """Aggregate integer counters for the obs metrics registry."""
        chunks = 0
        hits = 0
        stored = 0
        skips = 0
        recovered = 0
        for tenant in self.accounting.tenants():
            counters = self.accounting.counters(tenant)
            chunks += counters.chunks
            hits += counters.inline_hits
            stored += counters.stored
            skips += counters.skips
            recovered += counters.recovered
        out = {"chunks": chunks, "inline_hits": hits,
               "stored": stored, "skips": skips,
               "recovered": recovered}
        for key, value in self._compaction.counters().items():
            out[f"compaction_{key}"] = value
        return out
