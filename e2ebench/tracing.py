"""Layer spans for the traced run, recorded from outside the program.

The tracer wraps each layer's public functions at the attribute its
caller reaches (a class attribute for methods, the importing module's
global for functions), so the program itself is unchanged and an untraced
run executes none of this.  Each call made while the tracer is active
appends one span -- name, start, end, parent -- to flat in-memory arrays;
they are written out once, at the end of the run.

A layer's *self time* is its spans' time minus the time of their child
spans, so the per-layer ``*_s`` figures of one run add up to the time the
spans cover and never count a nested call twice.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

import repro.core.chainview as chainview_mod
import repro.core.organizations as organizations_mod
import repro.resilience.driver as resilience_driver_mod
import repro.shard.executor as executor_mod
import repro.shard.router as router_mod
from repro.apps.base import Application
from repro.apps.netflix import Netflix
from repro.apps.patent_citation import PatentCitation
from repro.core.hashtable import GpuHashTable
from repro.core.lookup import LookupDriver
from repro.core.mutations import MutationBatch
from repro.core.sepo import SepoDriver
from repro.integrity import PageIntegrity
from repro.memalloc.allocator import BucketGroupAllocator
from repro.memalloc.heap import GpuHeap
from repro.resilience import ResilientDriver
from repro.shard import ShardedExecutor, ShardRouter

__all__ = ["Tracer", "LAYER_TIMES"]

perf = time.perf_counter


# -- counters taken from a wrapped call's result ---------------------------
def _records(counts, result, args):
    counts["apps.records"] += len(result)


def _pass(counts, rec, args):
    counts["core.records_attempted"] += rec.attempted
    counts["core.records_succeeded"] += rec.succeeded
    counts["core.records_postponed"] += rec.postponed


def _apply(counts, result, args):
    counts["core.apply_calls"] += 1


def _materialize(counts, result, args):
    counts["core.materialize_calls"] += 1


def _finalize(counts, report, args):
    counts["bigkernel.bytes_streamed"] += report.input_bytes_streamed


def _lookup(counts, res, args):
    counts["lookup.keys"] += len(res.values)
    counts["lookup.iterations"] += res.iterations
    counts["lookup.segments_paged_in"] += res.segments_paged_in
    counts["lookup.postponed"] += res.postponed_total


def _allocate(counts, result, args):
    counts["memalloc.allocate_calls"] += 1


def _page_in(counts, page, args):
    counts["memalloc.page_ins"] += page is not None


def _journal(counts, result, args):
    counts["resilience.journal_bytes"] += Path(args[0]).stat().st_size


#: (owner, attribute, span name, result hook)
PATCHES = [
    (Application, "partition", "bigkernel.partition", None),
    (Netflix, "partition", "bigkernel.partition", None),
    (PatentCitation, "parse_chunk", "apps.parse", _records),
    (Netflix, "parse_chunk", "apps.parse", _records),
    (MutationBatch, "from_ops", "apps.parse", _records),
    (SepoDriver, "run", "core.pass", None),
    (ResilientDriver, "run", "core.pass", None),
    (SepoDriver, "run_pass", "core.pass", _pass),
    (GpuHashTable, "apply_batch", "core.pass", _apply),
    (GpuHashTable, "insert_batch", "core.insert", None),
    (GpuHashTable, "mutate_batch", "core.mutate", None),
    (organizations_mod, "materialize_chains", "core.materialize", _materialize),
    (chainview_mod, "materialize_chains", "core.materialize", _materialize),
    (SepoDriver, "finish_iteration", "core.end_iteration", None),
    (GpuHashTable, "end_iteration", "core.end_iteration", None),
    (GpuHashTable, "maybe_scrub", "core.end_iteration", None),
    (SepoDriver, "finalize", "core.finalize", _finalize),
    (GpuHashTable, "result", "core.finalize", None),
    (ShardedExecutor, "result", "core.finalize", None),
    (LookupDriver, "lookup", "lookup", _lookup),
    (ShardedExecutor, "lookup", "lookup", None),
    (BucketGroupAllocator, "allocate", "memalloc.allocate", _allocate),
    (BucketGroupAllocator, "allocate_many", "memalloc.allocate", _allocate),
    (GpuHeap, "evict", "memalloc.evict", None),
    (GpuHeap, "page_in", "memalloc.page_in", _page_in),
    (PageIntegrity, "check_read", "integrity.verify", None),
    (PageIntegrity, "check_page_in", "integrity.verify", None),
    (PageIntegrity, "checked_transfer", "integrity.verify", None),
    (PageIntegrity, "scrub", "integrity.scrub", None),
    (ResilientDriver, "checkpoint", "resilience.checkpoint", None),
    (resilience_driver_mod, "write_journal", "resilience.journal_write", _journal),
    (executor_mod, "partition_by_shard", "shard.split", None),
    (router_mod, "partition_by_shard", "shard.split", None),
    (ShardedExecutor, "partition", "shard.split", None),
    (ShardedExecutor, "run", "shard.flush", None),
    (ShardRouter, "_flush_shard", "shard.flush", None),
    (ShardRouter, "drain", "shard.flush", None),
    (ShardRouter, "submit", "shard.submit", None),
]

#: per-layer self-time metric -> the span name it sums
LAYER_TIMES = {
    "apps.parse_s": "apps.parse",
    "bigkernel.partition_s": "bigkernel.partition",
    "core.pass_s": "core.pass",
    "core.insert_s": "core.insert",
    "core.mutate_s": "core.mutate",
    "core.materialize_s": "core.materialize",
    "core.end_iteration_s": "core.end_iteration",
    "core.finalize_s": "core.finalize",
    "lookup.s": "lookup",
    "memalloc.allocate_s": "memalloc.allocate",
    "memalloc.evict_s": "memalloc.evict",
    "memalloc.page_in_s": "memalloc.page_in",
    "integrity.verify_s": "integrity.verify",
    "integrity.scrub_s": "integrity.scrub",
    "resilience.checkpoint_s": "resilience.checkpoint",
    "resilience.journal_write_s": "resilience.journal_write",
    "shard.split_s": "shard.split",
    "shard.flush_s": "shard.flush",
    "shard.submit_self_s": "shard.submit",
}


class Tracer:
    """Spans and call counters of the functions in :data:`PATCHES`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: spans are recorded only while this is set
        self.active = False
        self._undo: list[tuple] = []

    # -- installing ------------------------------------------------------
    def install(self) -> None:
        for owner, attr, span, hook in PATCHES:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, span, hook))
            else:
                wrapped = self._wrap(original, span, hook)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, span: str, hook):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf()
                stack.pop()
            if hook is not None:
                hook(counts, result, args)
            return result

        return traced

    # -- reading ---------------------------------------------------------
    def _arrays(self):
        # copies: a live buffer export would stop the arrays from growing
        return (
            np.array(self.name, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name (span time minus child-span time)."""
        name, parent, start, end = self._arrays()
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = np.bincount(name, weights=dur - child, minlength=len(self.names))
        return {n: float(own[i]) for i, n in enumerate(self.names)}

    def top_level_seconds(self) -> float:
        """Wall time the outermost spans cover."""
        _, parent, start, end = self._arrays()
        return float((end - start)[parent < 0].sum())

    @property
    def n_spans(self) -> int:
        return len(self.start)

    def write(self, path: Path) -> None:
        """All spans, as compressed arrays (names index into ``names``)."""
        name, parent, start, end = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh, names=np.array(self.names), name=name, parent=parent,
                start=start, end=end,
            )
