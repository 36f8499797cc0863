"""The benchmark's three workloads, each driven through public entry points.

Every workload makes its inputs from the seed in its constructor (that
work is the benchmark's own and is never timed), then exposes one round as
four steps the runner times separately:

* ``setup()``  -- host work before the first record is offered: parsing
  and partitioning, building the session, heaps, tables and drivers;
* ``build(ctx)`` -- the host-rate window: first record offered until the
  finalized result is in hand (for the router, until ``drain()`` returns);
* ``read(ctx)`` -- the read phase: one closed-loop client issuing lookup
  requests of present and absent keys;
* ``check(ctx)`` -- outside every clock: compares outputs with
  references computed apart from the table.

Why these three: ``patent-spill`` is the paper's regime (a multi-valued
table several times device memory, nine SEPO iterations, journaled
and checksummed); ``netflix-sharded`` is the insert-only combining path
that fits across four devices and so bypasses eviction, journaling and
checksums; ``kv-router`` pushes small mixed-op batches through the
batching router over basic-organization shards.  ``BENCHMARK.json`` lists
the first and the last; ``netflix-sharded`` runs by name (see the README).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.apps.netflix import Netflix
from repro.apps.patent_citation import PatentCitation
from repro.core.buckets import BYTES_PER_BUCKET
from repro.core.combiners import SUM_F64
from repro.core.lookup import LookupDriver
from repro.core.mutations import (
    OP_DELETE,
    OP_INSERT,
    OP_LOOKUP,
    OP_UPDATE,
    MutationBatch,
    model_for_ops,
)
from repro.core.organizations import (
    BasicOrganization,
    CombiningOrganization,
    MultiValuedOrganization,
)
from repro.core.session import GpuSession
from repro.datagen.zipf import zipf_sample
from repro.gpusim.clock import CostCategory
from repro.gpusim.device import GTX_780TI
from repro.resilience import ResilientDriver
from repro.shard import ShardedExecutor, ShardRouter

__all__ = ["WORKLOADS", "Round"]

#: every workload runs on the paper's GTX 780ti with memory divided by this
SCALE = 4096
DEVICE = GTX_780TI.scaled(SCALE)
#: size of the fixed set absent read-phase keys are drawn from
ABSENT_KEYS = 512
#: netflix absolute tolerance: per-pair sums of a few dozen terms in [0, 1]
#: accumulated in a different order than the reference
FLOAT_TOL = 1e-9

perf = time.perf_counter


def device_heap_bytes(n_buckets: int, page_size: int) -> int:
    """Heap left on one scaled device once staging and buckets are laid out.

    Mirrors :meth:`GpuSession.build_table`'s reservation order, so a shard
    gets exactly the heap a single-device run of the same size would get.
    """
    session = GpuSession(GTX_780TI, SCALE)
    session.memory.reserve("hashtable-buckets", n_buckets * BYTES_PER_BUCKET)
    return session.memory.free // page_size * page_size


def multiset(values) -> list:
    """Order-free form of a value list (readers disagree on list order)."""
    return sorted(values or [])


@dataclass
class Round:
    """Everything one round measured."""

    setup_s: list[float] = field(default_factory=list)
    build_s: float = 0.0
    records: int = 0
    #: (records, host seconds) of each consecutive part of the build; one
    #: part, the whole build, unless the workload cuts it finer
    build_parts: list[tuple[int, float]] = field(default_factory=list)
    read_s: float = 0.0
    keys: int = 0
    #: per read-phase request, in issue order: host ms and keys asked
    read_ms: list[float] = field(default_factory=list)
    read_keys: list[int] = field(default_factory=list)
    tickets_ms: list[float] = field(default_factory=list)
    #: simulated-clock and table figures; must repeat exactly per seed
    simulated: dict[str, Any] = field(default_factory=dict)
    #: per-layer counters read from the program's objects after the run
    counters: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def host_rps(self) -> float:
        return self.records / self.build_s


@dataclass
class Context:
    """The objects one set-up built; ``tables``/``ledgers``/``buses`` feed
    the simulated metrics and the per-layer counters."""

    tables: list
    ledgers: list
    buses: list
    executor: Any = None
    router: Any = None
    resilient: Any = None
    state: dict[str, Any] = field(default_factory=dict)


class Workload:
    name = "abstract"
    #: read-phase requests per round; None looks up every present key once
    requests: int | None = 1000
    #: keys per read-phase request: half present, half absent
    request_keys = 8
    #: read-phase requests are the tickets, unless the build has its own
    read_tickets = True

    def __init__(self, seed: int, small: bool, impl: str):
        self.seed = seed
        self.small = small
        self.impl = impl
        self.rng = np.random.default_rng([seed, 0x5E90])

    # -- the four steps ---------------------------------------------------
    def setup(self) -> Context:
        raise NotImplementedError

    def build(self, ctx: Context, rnd: Round) -> None:
        raise NotImplementedError

    def read(self, ctx: Context, rnd: Round) -> None:
        """Closed loop: each request is sent when the previous one returns."""
        answers = []
        lookup = self.lookup_fn(ctx)
        before = [ledger.elapsed for ledger in ctx.ledgers]
        t0 = perf()
        latencies = []
        for keys in self.queries:
            ts = perf()
            answers.append(lookup(keys))
            latencies.append((perf() - ts) * 1e3)
        rnd.read_s = perf() - t0
        rnd.read_ms = latencies
        rnd.read_keys = [len(q) for q in self.queries]
        if self.read_tickets:
            rnd.tickets_ms.extend(latencies)
        rnd.keys = sum(rnd.read_keys)
        # simulated device time of the read phase, summed over shards: the
        # makespan (busiest shard) moved 9% between kv-router seeds because
        # the seed decides which shard the op stream leaves busiest; the
        # sum moved 2%
        rnd.simulated["lookup_sim_s"] = sum(
            ledger.elapsed - b for ledger, b in zip(ctx.ledgers, before)
        )
        ctx.state["answers"] = answers

    def check(self, ctx: Context, rnd: Round) -> None:
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------
    def lookup_fn(self, ctx: Context):
        return ctx.executor.lookup

    def make_queries(self, present: list[bytes], absent) -> list[list[bytes]]:
        """Requests of ``request_keys`` keys: half present, half absent.

        Absent keys come from a fixed set of ``ABSENT_KEYS`` so that the
        rare miss that walks a hot bucket's whole chain costs the same on
        every seed instead of deciding the spread between seeds.
        """
        half = self.request_keys // 2
        if self.requests is None:
            # every present key once, in a seeded order
            order = self.rng.permutation(len(present))
            n = len(order) // half
            picks = order[: n * half].reshape(n, half)
        else:
            n = self.requests if not self.small else 50
            picks = self.rng.integers(0, len(present), size=(n, half))
        misses = self.rng.integers(0, ABSENT_KEYS, size=(n, half))
        return [
            [present[int(i)] for i in row] + [absent(int(m)) for m in mrow]
            for row, mrow in zip(picks, misses)
        ]

    def finish(self, ctx: Context, rnd: Round) -> None:
        """Simulated metrics and object counters, read before any check."""
        rnd.simulated["sim_s"] = ctx.state["build_sim_s"]
        rnd.simulated["sepo_iterations"] = sum(
            t.iterations_completed for t in ctx.tables
        )
        rnd.simulated["table_bytes"] = sum(
            t.heap.total_table_bytes for t in ctx.tables
        )
        rnd.counters = object_counters(ctx)


def object_counters(ctx: Context) -> dict[str, float]:
    """Per-layer counters the program keeps on its own objects."""
    tables = ctx.tables
    stats = [t.alloc.stats for t in tables]
    integ = [t.heap.integrity for t in tables if t.heap.integrity is not None]
    out: dict[str, float] = {
        "memalloc.requests": sum(s.requests for s in stats),
        "memalloc.postponed": sum(s.postponed for s in stats),
        "memalloc.pages_taken": sum(s.pages_taken for s in stats),
        "memalloc.bytes_tombstoned": sum(s.bytes_tombstoned for s in stats),
        "memalloc.evicted_bytes": sum(t.heap.bytes_evicted for t in tables),
        "integrity.seals": sum(i.seals for i in integ),
        "integrity.verifies": sum(i.verifies for i in integ),
        "resilience.checkpoints": (
            ctx.resilient.checkpoints_written if ctx.resilient else 0
        ),
        "gpusim.pcie_bytes": sum(b.bytes_moved for b in ctx.buses),
        "gpusim.pcie_transactions": sum(b.transactions for b in ctx.buses),
        "gpusim.pcie_retries": sum(b.retries for b in ctx.buses),
    }
    for cat in CostCategory:
        out[f"gpusim.{cat.value}_s"] = sum(l.spent(cat) for l in ctx.ledgers)
    rstats = ctx.router.stats if ctx.router is not None else {}
    causes = ("chunk_flushes", "backpressure_flushes", "drain_flushes")
    for cause in causes:
        out[f"shard.{cause}"] = rstats.get(cause, 0)
    flushes = sum(out[f"shard.{cause}"] for cause in causes)
    out["shard.flush_records_mean"] = (
        rstats["flushed_chunks_records"] / flushes if flushes else 0.0
    )
    sched = ctx.executor.schedule if ctx.executor is not None else None
    out["shard.parallel_speedup"] = sched.parallel_speedup if sched else 0.0
    out["shard.overlap_efficiency"] = sched.overlap_efficiency if sched else 0.0
    return out


# ----------------------------------------------------------------------
# patent-spill
# ----------------------------------------------------------------------
class PatentSpill(Workload):
    """Patent Citation, multi-valued, spilled and journaled (see module doc).

    1.3 MB of citation pairs (Barabasi-Albert graph, preferential
    attachment, so cited-key popularity is heavy-tailed) builds a table of
    about eight times the scaled device's heap; every iteration is
    journaled, every stored page read is checksum-verified, and the
    scrubber sweeps a budget of pages per iteration.
    """

    name = "patent-spill"
    N_BUCKETS = 4096
    PAGE = 4096
    # Every cited key once, in short requests: sampled keys made the p99
    # depend on whether the seed drew a few hub patents (the longest value
    # lists), and 2,500 requests give each round two 1,000-ticket blocks.
    requests = None
    request_keys = 4

    def __init__(self, seed, small, impl, workdir: Path):
        super().__init__(seed, small, impl)
        self.app = PatentCitation()
        self.data = self.app.generate_input(
            200_000 if small else 1_300_000, seed=seed
        )
        self.reference = self.app.reference(self.data)
        self.queries = self.make_queries(
            sorted(self.reference), lambda m: b"%d" % (1_000_000 + m)
        )
        self.journal = workdir / f"patent-spill-{os.getpid()}.npz"

    def setup(self) -> Context:
        app = self.app
        chunk = GpuSession.clamp_chunk(GTX_780TI, SCALE, app.chunk_bytes)
        batches = app.batches(self.data, chunk)
        session = GpuSession(GTX_780TI, SCALE, chunk)
        table, driver = session.build_table(
            n_buckets=self.N_BUCKETS,
            organization=MultiValuedOrganization(impl=self.impl),
            page_size=self.PAGE,
            n_records=sum(len(b) for b in batches),
            integrity="scrub",
        )
        resilient = ResilientDriver(
            driver, journal_path=self.journal, checkpoint_every=1
        )
        ctx = Context(
            [table], [session.ledger], [session.bus], resilient=resilient
        )
        ctx.state.update(batches=batches, session=session)
        return ctx

    def build(self, ctx, rnd):
        batches = ctx.state["batches"]
        t0 = perf()
        report = ctx.resilient.run(batches)
        result = report.table.result()
        rnd.build_s = perf() - t0
        rnd.records = sum(len(b) for b in batches)
        ctx.state.update(result=result, report=report)
        ctx.state["build_sim_s"] = report.elapsed_seconds
        self.journal.unlink(missing_ok=True)

    def lookup_fn(self, ctx):
        session = ctx.state["session"]
        driver = LookupDriver(
            ctx.tables[0], session.kernel, session.bus, impl=self.impl
        )
        return lambda keys: driver.lookup(keys).values

    def check(self, ctx, rnd):
        ref = self.reference
        result = ctx.state["result"]
        if {k: multiset(v) for k, v in result.items()} != {
            k: multiset(v) for k, v in ref.items()
        }:
            rnd.errors.append("patent-spill: table result != reference")
        events = ctx.state["report"].degradation_events
        if events:
            # the ladder would have measured another path than SEPO's
            rnd.errors.append(f"patent-spill: degraded run {events}")
        bad = sum(
            multiset(v) != multiset(ref.get(k))
            for q, ans in zip(self.queries, ctx.state["answers"])
            for k, v in zip(q, ans)
        )
        if bad:
            rnd.errors.append(f"patent-spill: {bad} lookups != reference")
        rnd.attempted = rnd.records + rnd.keys


# ----------------------------------------------------------------------
# netflix-sharded
# ----------------------------------------------------------------------
class NetflixSharded(Workload):
    """Netflix similarity, combining SUM_F64, on four scaled devices.

    1.1 MB of movie-grouped ratings (uniform users, 24 raters per movie,
    each rater paired with the next two) gives a table of about twice
    one device's heap, so each of the four shards finishes in one
    iteration.  Input chunks are 256 KB, far above one device's staging
    buffer, because the executor has no staging limit and large per-shard
    batches are where running shards side by side can pay.
    """

    name = "netflix-sharded"
    N_SHARDS = 4
    N_BUCKETS = 4096
    PAGE = 4096

    def __init__(self, seed, small, impl, workdir: Path):
        super().__init__(seed, small, impl)
        self.app = Netflix()
        self.data = self.app.generate_input(
            100_000 if small else 1_100_000, seed=seed
        )
        self.chunk = (16 if small else 256) << 10
        self.reference = self.app.reference(self.data)
        self.queries = self.make_queries(
            sorted(self.reference), lambda m: b"%d&%d" % (10**7 + m, 10**7 + m)
        )

    def setup(self) -> Context:
        batches = self.app.batches(self.data, self.chunk)
        impl = self.impl
        executor = ShardedExecutor(
            self.N_SHARDS,
            lambda: CombiningOrganization(SUM_F64, impl=impl),
            n_buckets=self.N_BUCKETS,
            heap_bytes=device_heap_bytes(self.N_BUCKETS, self.PAGE),
            page_size=self.PAGE,
            device=DEVICE,
            lookup_impl=impl,
        )
        ctx = Context(
            executor.tables,
            [c.ledger for c in executor.channels],
            [c.bus for c in executor.channels],
            executor=executor,
        )
        ctx.state["batches"] = batches
        return ctx

    def build(self, ctx, rnd):
        batches = ctx.state["batches"]
        t0 = perf()
        report = ctx.executor.run(batches)
        result = ctx.executor.result()
        rnd.build_s = perf() - t0
        rnd.records = report.total_records
        ctx.state.update(result=result, build_sim_s=report.makespan_seconds)

    def check(self, ctx, rnd):
        ref = self.reference
        result = ctx.state["result"]
        if result.keys() != ref.keys() or any(
            abs(result[k] - v) > FLOAT_TOL for k, v in ref.items()
        ):
            rnd.errors.append("netflix-sharded: table result != reference")
        bad = 0
        for q, ans in zip(self.queries, ctx.state["answers"]):
            for k, v in zip(q, ans):
                want = ref.get(k)
                if (v is None) != (want is None) or (
                    want is not None and abs(v - want) > FLOAT_TOL
                ):
                    bad += 1
        if bad:
            rnd.errors.append(f"netflix-sharded: {bad} lookups != reference")
        ctx.executor.check_shards()
        rnd.attempted = rnd.records + rnd.keys


# ----------------------------------------------------------------------
# kv-router
# ----------------------------------------------------------------------
class KvRouter(Workload):
    """One closed-loop client of small mixed-op batches through the router.

    40,000 ops over a fixed keyspace of 4,096 keys with zipf(0.99)
    popularity (YCSB's constant; the seed draws the op stream, not the
    keys, so which keys share a hot key's bucket is the same for every
    seed, and so is the chain it walks): 30% puts (``OP_INSERT``, which
    on the basic organization keeps every value), 30% updates (replace),
    10% deletes, 30% gets.  Client batches of 32 ops; each shard flushes
    at 64 queued records, so a flushed batch is about 1/150 of a
    netflix-sharded per-shard batch (~10,000 records).

    The tickets are the client batches: a ticket runs from ``submit``
    until the return of the call during which its last shard part
    flushed.  About eight tickets are in flight at once, so one stall of
    the host delays well under 1% of a 1,000-ticket block and does not by
    itself set its p99 (with 16-op batches, sixteen were in flight and one
    stall did).
    """

    name = "kv-router"
    N_SHARDS = 4
    N_BUCKETS = 1024
    PAGE = 1024
    GROUP = 64
    CLIENT_BATCH = 32
    CHUNK_RECORDS = 64
    MAX_PENDING = 512
    #: client batches per part of the build (~0.25 s)
    BUILD_BLOCK = 100
    read_tickets = False

    def __init__(self, seed, small, impl, workdir: Path):
        super().__init__(seed, small, impl)
        n_keys, n_ops = (256, 1_600) if small else (4096, 40_000)
        rng = self.rng
        ranks = zipf_sample(rng, n_ops, n_keys, 0.99)
        kinds = rng.choice(
            np.array([OP_INSERT, OP_UPDATE, OP_DELETE, OP_LOOKUP]),
            size=n_ops,
            p=[0.3, 0.3, 0.1, 0.3],
        )
        self.ops = [
            (
                int(op),
                b"k%07d" % r,
                b"v%07d" % i if op in (OP_INSERT, OP_UPDATE) else b"",
            )
            for i, (op, r) in enumerate(zip(kinds.tolist(), ranks.tolist()))
        ]
        self.model, self.stream_lookups = model_for_ops(self.ops, kind="basic")
        # The whole keyspace plus the fixed never-written keys, each once:
        # the keys the seed's stream left present are about half of them.
        # Querying only those made the set of chains walked, and so the
        # host read rate, depend on the seed (27% spread between seeds).
        keys = [b"k%07d" % r for r in range(n_keys)]
        keys += [b"a%09d" % m for m in range(ABSENT_KEYS)]
        order = rng.permutation(len(keys))
        self.queries = [
            [keys[int(i)] for i in order[j:j + self.request_keys]]
            for j in range(0, len(order), self.request_keys)
        ]

    def setup(self) -> Context:
        ops, size = self.ops, self.CLIENT_BATCH
        batches = [
            MutationBatch.from_ops(ops[i:i + size])
            for i in range(0, len(ops), size)
        ]
        impl = self.impl
        executor = ShardedExecutor(
            self.N_SHARDS,
            lambda: BasicOrganization(impl=impl),
            n_buckets=self.N_BUCKETS,
            heap_bytes=device_heap_bytes(self.N_BUCKETS, self.PAGE),
            page_size=self.PAGE,
            group_size=self.GROUP,
            device=DEVICE,
            lookup_impl=impl,
        )
        router = ShardRouter(
            executor,
            chunk_records=self.CHUNK_RECORDS,
            max_pending_records=self.MAX_PENDING,
        )
        ctx = Context(
            executor.tables,
            [c.ledger for c in executor.channels],
            [c.bus for c in executor.channels],
            executor=executor,
            router=router,
        )
        ctx.state["batches"] = batches
        return ctx

    def build(self, ctx, rnd):
        router = ctx.router
        batches = ctx.state["batches"]
        waiting: list = []
        latencies = rnd.tickets_ms
        marks = []
        t0 = perf()
        for batch in batches:
            ts = perf()
            ticket = router.submit(batch)
            now = perf()
            marks.append(now)
            waiting.append((ticket, ts))
            if any(t.done for t, _ in waiting):
                still = []
                for t, s in waiting:
                    if t.done:
                        latencies.append((now - s) * 1e3)
                    else:
                        still.append((t, s))
                waiting = still
        results = router.drain()
        end = perf()
        rnd.build_s = end - t0
        latencies.extend((end - s) * 1e3 for _, s in waiting)
        rnd.records = len(self.ops)
        # parts of BUILD_BLOCK client batches, the last ending when
        # drain() returns: host speed bursts last a fraction of a second,
        # and one figure per build follows whichever bursts it met
        marks[-1] = end
        times = [t0] + marks
        ops = np.cumsum([0] + [len(b) for b in batches])
        n_parts = max(1, len(batches) // self.BUILD_BLOCK)
        cuts = np.linspace(0, len(batches), n_parts + 1).astype(int)
        rnd.build_parts = [
            (int(ops[b] - ops[a]), times[b] - times[a])
            for a, b in zip(cuts, cuts[1:])
        ]
        ctx.state["stream_results"] = results
        ctx.state["build_sim_s"] = ctx.executor.schedule.makespan_seconds

    def check(self, ctx, rnd):
        size = self.CLIENT_BATCH
        got = {
            b * size + j: v
            for b, res in enumerate(ctx.state["stream_results"])
            for j, v in res.items()
        }
        if got.keys() != self.stream_lookups.keys():
            rnd.errors.append("kv-router: in-stream lookups missing answers")
        bad = sum(
            multiset(got.get(i)) != multiset(want)
            for i, want in self.stream_lookups.items()
        )
        if bad:
            rnd.errors.append(f"kv-router: {bad} in-stream lookups != model")
        result = ctx.executor.result()
        if {k: multiset(v) for k, v in result.items()} != {
            k: multiset(v) for k, v in self.model.items()
        }:
            rnd.errors.append("kv-router: final table != model")
        # a basic-organization lookup answers the newest live value
        bad = sum(
            v != (self.model[k][-1] if k in self.model else None)
            for q, ans in zip(self.queries, ctx.state["answers"])
            for k, v in zip(q, ans)
        )
        if bad:
            rnd.errors.append(f"kv-router: {bad} read-phase lookups != model")
        ctx.executor.check_shards()
        rnd.attempted = rnd.records + rnd.keys


WORKLOADS = {
    w.name: w for w in (PatentSpill, NetflixSharded, KvRouter)
}
