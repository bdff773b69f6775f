"""Pinned traced span streams of small pipeline runs.

The report digests pin *what* a run computes; these digests pin *how*
it got there: every span the tracer records — stage, chunk id, start,
end, queue wait, resource and attrs — for a set of small traced runs
that between them reach every commit path of the per-chunk workflow
(tenancy hit / unique / shadow, GPU hit, index duplicate, in-flight
pending wait, bin-buffer re-probe, unique and race duplicate).

A refactor of the chunk lifecycle that adds, drops or reorders a single
event, or moves a span boundary by one float ulp, changes a digest.
The digests were recorded before the chunk worker was restructured
into one lifecycle and must never be re-pinned to absorb a change in
the schedule.
"""

import hashlib
import json

import pytest

from repro.core import IntegrationMode, PipelineConfig
from repro.core.calibration import run_mode
from repro.obs.stages import STAGE_COMMIT
from repro.obs.tracer import SimTracer
from repro.tenancy import TenantMix, TenantSpec
from repro.tenancy.runner import run_tenant_mix
from tests.reference_pipeline import run_reference_mode

N_CHUNKS = 1024

#: A shrunken platform: a 64-chunk window and small bins, so bins
#: flush, the GPU index fills and in-flight twins commit within a
#: 1024-chunk run.
SMALL = dict(window=64, gpu_index_batch=16, gpu_comp_batch=16,
             bin_buffer_capacity=8, bin_buffer_total=256,
             gpu_bin_capacity=64)

#: The committed mixed-locality tenant scenario (examples/tenant_mix.json).
MIX = TenantMix(tenants=(
    TenantSpec(name="hot", seed=11, dedup_ratio=3.0, locality=0.95,
               working_set=64),
    TenantSpec(name="cold", seed=22, dedup_ratio=1.05, locality=0.0,
               working_set=1 << 16)), seed=7)


def _mode_run(mode, payload=False, chunks=N_CHUNKS, **overrides):
    def run(tracer):
        config = PipelineConfig(**SMALL, **overrides)
        run_mode(mode, chunks, base_config=config, tracer=tracer,
                 payload=payload)
    return run


def _mix_run(policy):
    def run(tracer):
        config = PipelineConfig(tenancy_policy=policy,
                                tenancy_cache_entries=96, **SMALL)
        run_tenant_mix(MIX, IntegrationMode.GPU_COMP, N_CHUNKS,
                       base_config=config, tracer=tracer)
    return run


RUNS = {
    **{mode.value: _mode_run(mode) for mode in IntegrationMode},
    "global_lock": _mode_run(IntegrationMode.GPU_BOTH,
                             index_locking="global"),
    "no_dedup": _mode_run(IntegrationMode.GPU_COMP, enable_dedup=False),
    "no_compression": _mode_run(IntegrationMode.GPU_DEDUP,
                                enable_compression=False),
    "payload_cpu_only": _mode_run(IntegrationMode.CPU_ONLY, payload=True,
                                  chunks=256),
    "payload_no_dedup": _mode_run(IntegrationMode.CPU_ONLY, payload=True,
                                  chunks=256, enable_dedup=False),
    "mix_shared_lru": _mix_run("shared_lru"),
    "mix_prioritized": _mix_run("prioritized"),
}

#: sha256 of each run's canonical span list, recorded before the chunk
#: worker was restructured.
SPAN_SHA256 = {
    "gpu_both":
        "aaa6a0a4e987591410cf07e6d6d580a1b5eb44f341373d0881960a517e6c4edb",
    "gpu_dedup":
        "cdbff39af8bfa601352d572fcc93f6a178397bdae75b3b64d0cdb5bd0a36c770",
    "gpu_comp":
        "b56ec0e61c709fc8b69ae271bd6efd024df8aec343414e633df4a5f57fdfbcfd",
    "cpu_only":
        "ad7f60988deefd4f0e3c0c00b333037796902b4d1ca9eb499f4971188f2ff625",
    "global_lock":
        "a06e5be7e99dd58fb07b1e0bee14c577069123bf4313e1a6be52ee4c1fb7a0b5",
    "no_dedup":
        "5fdbcfeb086180e20599b7cdbc21cbe8795f6951ff1513f5c1a583da58731db9",
    "no_compression":
        "9bf79f20d158389f2791c4f5f47c51fa4b0c5a9fd6782166d6f5823ead64387e",
    "payload_cpu_only":
        "595825aa40c04ad212690e5505838a0153599c24610819b7488c4f8c1f1c3c68",
    "payload_no_dedup":
        "ba7e48c2a1c1edb734265253a57460ec169253b77e8d81df9ef0f48d6d2b4a0c",
    "mix_shared_lru":
        "bdb69b95c17144da4d2a510859a6a9cdd3ed237c9c3fba850da039346d4048e7",
    "mix_prioritized":
        "2ac98859537d8825a12f4d299f51b105dbaaf384d6e3c0109dedf6a09f8b9458",
}

#: Every commit ``path`` attr the chunk worker emits.
COMMIT_PATHS = frozenset({
    "tenant_hit", "tenant_unique", "tenant_shadow", "gpu_hit",
    "duplicate", "pending", "buffer_reprobe", "unique",
    "race_duplicate",
})


def traced_spans(name):
    tracer = SimTracer()
    RUNS[name](tracer)
    return tracer.spans


def span_digest(spans) -> str:
    rows = [(s.stage, s.chunk_id, s.start, s.end, s.queue_wait,
             s.resource, s.attrs) for s in spans]
    canonical = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.fixture(scope="module")
def spans_by_run():
    return {name: traced_spans(name) for name in RUNS}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_span_stream_is_pinned(spans_by_run, name):
    assert span_digest(spans_by_run[name]) == SPAN_SHA256[name]


def test_every_commit_path_is_reached(spans_by_run):
    seen = {span.attrs["path"]
            for spans in spans_by_run.values() for span in spans
            if span.stage == STAGE_COMMIT and span.attrs
            and "path" in span.attrs}
    assert seen == COMMIT_PATHS


@pytest.mark.parametrize("mode", list(IntegrationMode))
def test_reference_feeder_reproduces_span_stream(mode):
    """Per-chunk admission records the very same spans."""
    tracer = SimTracer()
    run_reference_mode(mode, N_CHUNKS, base_config=PipelineConfig(**SMALL),
                       tracer=tracer)
    assert span_digest(tracer.spans) == SPAN_SHA256[mode.value]
