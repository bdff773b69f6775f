"""Host-time spans around the program's public layer boundaries.

The benchmark never edits the program to trace it.  Instead,
:class:`Tracer` replaces each traced function at the attribute its
caller looks up (a class attribute for methods, the importing module's
global for functions imported by name) with a wrapper that records one
span per call.  Methods that return generators -- simulation process
bodies such as ``SimCpu.execute`` -- get one span per *resumption*:
their code runs only while the simulator resumes them, so a span per
call would cover simulated waiting, not host work.

Spans live in memory as parallel arrays (name, start, end, parent,
run id) and are written once, when the benchmark ends.  Everything runs
in one thread, so a span stack gives each span its parent.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array

import numpy as np

#: Traced boundaries: (module, attribute path, span name, kind).
#: ``kind`` is "call" (one span per call) or "gen" (one span per
#: resumption of the returned generator).  The span name is the layer
#: the time belongs to, then the function.
BOUNDARIES = (
    # entry points the benchmark drives
    ("repro.core.calibration", "run_mode", "core.run_mode", "call"),
    ("repro.core.calibration", "calibrate_mode", "core.calibrate_mode",
     "call"),
    ("repro.tenancy.runner", "run_tenant_mix", "tenancy.run_tenant_mix",
     "call"),
    ("repro.storage.volume", "ReducedVolume.write", "storage.write",
     "call"),
    ("repro.storage.volume", "ReducedVolume.read", "storage.read", "call"),
    ("repro.storage.volume", "ReducedVolume.scrub", "storage.scrub",
     "call"),
    ("repro.core.pipeline", "ReductionPipeline.run", "core.pipeline_run",
     "call"),
    # workload generation
    ("repro.workload.datagen", "BlockContentGenerator.make_block",
     "workload.make_block", "call"),
    ("repro.workload.vdbench", "VdbenchStream.next_batch",
     "workload.next_batch", "call"),
    ("repro.workload.vdbench", "VdbenchStream.chunks_batched",
     "workload.chunks_batched", "gen"),
    ("repro.tenancy.spec", "TenantMixStream.chunks_batched",
     "workload.tenant_chunks_batched", "gen"),
    # hashing, at each importing module
    ("repro.core.pipeline", "fingerprint_window",
     "dedup.fingerprint_window", "call"),
    ("repro.core.pipeline", "fingerprint_chunk", "dedup.fingerprint_chunk",
     "call"),
    ("repro.storage.volume", "fingerprint_chunk", "dedup.fingerprint_chunk",
     "call"),
    # dedup index
    ("repro.dedup.engine", "DedupEngine.cpu_index", "dedup.cpu_index",
     "call"),
    ("repro.dedup.engine", "DedupEngine.cpu_index_partial",
     "dedup.cpu_index_partial", "call"),
    ("repro.dedup.engine", "DedupEngine.commit_duplicate",
     "dedup.commit_duplicate", "call"),
    ("repro.dedup.engine", "DedupEngine.commit_unique",
     "dedup.commit_unique", "call"),
    ("repro.dedup.engine", "DedupEngine.drain", "dedup.drain", "call"),
    # GPU kernel emulation and CPU post-processing
    ("repro.gpu.kernels.lz", "SegmentLzKernel.execute",
     "gpu.segment_lz_execute", "call"),
    ("repro.gpu.kernels.indexing", "BinLookupKernel.execute",
     "gpu.bin_lookup_execute", "call"),
    ("repro.compression.gpu_lz", "GpuCompressor.postprocess",
     "compression.gpu_postprocess", "call"),
    # CPU codecs
    ("repro.compression.parallel_cpu", "CpuCompressor.compress",
     "compression.cpu_compress", "call"),
    ("repro.compression.parallel_cpu", "CpuCompressor.compress_window",
     "compression.cpu_compress_window", "call"),
    ("repro.compression.parallel_cpu", "CpuCompressor.decompress",
     "compression.cpu_decompress", "call"),
    # simulator, CPU and SSD models
    ("repro.sim.engine", "Environment.run", "sim.run", "call"),
    ("repro.cpu.model", "SimCpu.charge", "cpu.charge", "call"),
    ("repro.cpu.model", "SimCpu.execute", "cpu.execute", "gen"),
    ("repro.storage.ssd", "SsdModel.submit", "storage.ssd_submit", "gen"),
    ("repro.storage.ssd", "SsdModel.submit_vector",
     "storage.ssd_submit_vector", "gen"),
    # tenancy admission and compaction
    ("repro.tenancy.controller", "TenancyController.admit",
     "tenancy.admit", "call"),
    ("repro.tenancy.controller", "TenancyController.apply_compaction",
     "tenancy.apply_compaction", "call"),
    ("repro.tenancy.controller", "TenancyController.compaction_cycles",
     "tenancy.compaction_cycles", "call"),
)

#: Per-layer self-time metrics: metric name -> span names summed.
LAYER_SPANS = {
    "workload.datagen_s": ("workload.make_block", "workload.next_batch",
                           "workload.chunks_batched",
                           "workload.tenant_chunks_batched"),
    "dedup.hash_s": ("dedup.fingerprint_window", "dedup.fingerprint_chunk"),
    "dedup.index_s": ("dedup.cpu_index", "dedup.cpu_index_partial",
                      "dedup.commit_duplicate", "dedup.commit_unique",
                      "dedup.drain"),
    "gpu.lz_kernel_s": ("gpu.segment_lz_execute",),
    "compression.gpu_post_s": ("compression.gpu_postprocess",),
    "gpu.index_kernel_s": ("gpu.bin_lookup_execute",),
    "compression.cpu_encode_s": ("compression.cpu_compress",
                                 "compression.cpu_compress_window"),
    "compression.decode_s": ("compression.cpu_decompress",),
    "storage.read_s": ("storage.read",),
    "sim.self_s": ("sim.run",),
    "cpu.charge_s": ("cpu.charge", "cpu.execute"),
    "storage.ssd_s": ("storage.ssd_submit", "storage.ssd_submit_vector"),
    "tenancy.admit_s": ("tenancy.admit",),
    "tenancy.compaction_s": ("tenancy.apply_compaction",
                             "tenancy.compaction_cycles"),
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span stack corrupted: closing {idx}, "
                               f"top is {top}")

    # -- wrappers -------------------------------------------------------------

    def _wrap_call(self, name: str, fn):
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return wrapper

    def _wrap_gen(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _timed_resumptions(tracer, nid, fn(*args, **kwargs))
        return wrapper

    def install(self, boundaries=BOUNDARIES, observers=None) -> None:
        """Replace every boundary with its span-recording wrapper.

        ``observers`` maps a span name to ``f(args, kwargs, result)``,
        called after the wrapped call returns (outside its span), to
        read the program's own counters at that boundary.
        """
        if self._saved:
            raise RuntimeError("tracer already installed")
        observers = observers or {}
        for module_name, path, name, kind in boundaries:
            owner = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapped = (self._wrap_gen(name, original) if kind == "gen"
                       else self._wrap_call(name, original))
            if name in observers:
                wrapped = _observed(wrapped, observers[name])
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def self_seconds_by_name(self, run_id: int) -> dict[str, float]:
        """Host self-seconds per span name over one run id."""
        selfs = self_times(self.start, self.end, self.parent)
        mask = np.asarray(self.run, dtype=np.int64) == run_id
        names = np.asarray(self.name, dtype=np.int64)[mask]
        totals = np.bincount(names, weights=selfs[mask],
                             minlength=len(self.names))
        return {name: float(totals[nid])
                for nid, name in enumerate(self.names)}

    def covered_seconds(self, run_id: int) -> float:
        """Wall time the run's root spans cover (their union)."""
        roots = [(self.start[i], self.end[i]) for i in range(len(self.start))
                 if self.parent[i] == -1 and self.run[i] == run_id]
        return union_length(roots)

    def write(self, path: str) -> None:
        """Write every span as tab-separated text, one per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write("run\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                out.write(f"{self.run[i]}\t{self.names[self.name[i]]}\t"
                          f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                          f"{self.parent[i]}\n")


def _observed(wrapped, observer):
    @functools.wraps(wrapped)
    def wrapper(*args, **kwargs):
        result = wrapped(*args, **kwargs)
        observer(args, kwargs, result)
        return result
    return wrapper


def _timed_resumptions(tracer: Tracer, nid: int, gen):
    """Re-yield ``gen``'s events, one span per resumption of its code.

    Values sent in and exceptions thrown in (simulator interrupts) pass
    through unchanged, and the generator's return value is returned, so
    ``yield from`` and ``env.process`` see the original behaviour.
    """
    send, throw = gen.send, gen.throw
    value = None
    error = None
    while True:
        idx = tracer.open(nid)
        try:
            item = send(value) if error is None else throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            tracer.close(idx)
        try:
            value = yield item
            error = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into the generator
            value = None
            error = exc


def union_length(intervals) -> float:
    """Total length covered by a set of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children count once, so the result never goes negative.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    selfs = end - start
    child = np.nonzero(parent >= 0)[0]
    if child.size == 0:
        return selfs
    par = parent[child]
    lo = np.maximum(start[child], start[par])
    hi = np.minimum(end[child], end[par])
    keep = hi > lo
    par, lo, hi = par[keep], lo[keep], hi[keep]
    if par.size == 0:
        return selfs
    order = np.lexsort((lo, par))
    par, lo, hi = par[order], lo[order], hi[order]
    # Running maximum of child ends within each parent's group: shift
    # each group above the previous one so one cumulative max suffices.
    origin = lo.min()
    lo, hi = lo - origin, hi - origin
    first = np.ones(par.size, dtype=bool)
    first[1:] = par[1:] != par[:-1]
    group = np.cumsum(first) - 1
    shift = hi.max() + 1.0
    running = np.maximum.accumulate(hi + group * shift) - group * shift
    prev_end = np.empty_like(hi)
    prev_end[0] = -np.inf
    prev_end[1:] = running[:-1]
    prev_end[first] = -np.inf
    covered = np.maximum(0.0, hi - np.maximum(lo, prev_end))
    selfs -= np.bincount(par, weights=covered, minlength=selfs.size)
    return selfs
