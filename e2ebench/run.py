#!/usr/bin/env python3
"""End-to-end, two-clock benchmark of the SEPO reproduction.

    python3 e2ebench/run.py --workload patent-spill --seed 1 --seconds 50 --trace 0

Runs one workload (``patent-spill``, ``netflix-sharded`` or ``kv-router``;
see ``workloads.py`` and the README) from the seed, checks every output
against references computed apart from the table, and prints as its last
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).

Untraced (``--trace 0``) it repeats whole rounds -- set-up, build, read
phase, check -- until ``--seconds`` have passed and prints the end-to-end
metrics:
host figures as middle means (see ``middle_mean``) over rounds, set-ups
or blocks of consecutive requests and tickets, and the simulated-clock and
table figures, which must repeat exactly from round to round.  Traced
(``--trace 1``) it runs one untraced round, then one round with the layer
spans of ``tracing.py`` installed, and prints the per-layer metrics.

Host times are wall-clock (``time.perf_counter``); simulated times come
from the program's ``CostLedger`` and carry the unit ``sim_s``.
"""

from __future__ import annotations

import sys

# The benchmark runs from a checkout and must leave its tree as it found it.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: scratch space inside the checkout: journals while they live, span files
WORKDIR = ROOT / ".e2ebench"
WORKLOAD_NAMES = ("patent-spill", "netflix-sharded", "kv-router")
#: set-ups per round; the round builds with the last one
SETUPS = 3
#: fewest tickets per percentile block (p99 blocks take 1,000, so that
#: ten or more lie beyond each block's p99)
TICKET_BLOCK = 100
#: read-phase requests per lookup-rate block
READ_BLOCK = 100

perf = time.perf_counter

#: end-to-end metric -> unit
END_TO_END = {
    "host_rps": "1/s",
    "setup_s": "s",
    "lookup_rps": "1/s",
    "ticket_p50_ms": "ms",
    "ticket_p99_ms": "ms",
    "sim_s": "sim_s",
    "lookup_sim_s": "sim_s",
    "sepo_iterations": "count",
    "table_bytes": "bytes",
    "peak_rss_mb": "MB",
}

#: per-layer counters -> unit (self times are added from tracing.LAYER_TIMES)
LAYER_COUNTERS = {
    "apps.records": "count",
    "bigkernel.bytes_streamed": "bytes",
    "core.apply_calls": "count",
    "core.records_attempted": "count",
    "core.records_postponed": "count",
    "core.useful_ratio": "ratio",
    "core.materialize_calls": "count",
    "lookup.keys": "count",
    "lookup.iterations": "count",
    "lookup.segments_paged_in": "count",
    "lookup.postponed": "count",
    "memalloc.allocate_calls": "count",
    "memalloc.requests": "count",
    "memalloc.postponed": "count",
    "memalloc.pages_taken": "count",
    "memalloc.bytes_tombstoned": "bytes",
    "memalloc.evicted_bytes": "bytes",
    "memalloc.page_ins": "count",
    "integrity.seals": "count",
    "integrity.verifies": "count",
    "resilience.checkpoints": "count",
    "resilience.journal_bytes": "bytes",
    "shard.chunk_flushes": "count",
    "shard.backpressure_flushes": "count",
    "shard.drain_flushes": "count",
    "shard.flush_records_mean": "count",
    "shard.parallel_speedup": "ratio",
    "shard.overlap_efficiency": "ratio",
    "gpusim.pcie_bytes": "bytes",
    "gpusim.pcie_transactions": "count",
    "gpusim.pcie_retries": "count",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure whole rounds for about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced round")
    p.add_argument("--small", action="store_true",
                   help="small inputs (the benchmark's own test)")
    p.add_argument("--impl", choices=("vectorized", "slow_reference"),
                   default="vectorized",
                   help="organization/lookup implementation under test")
    return p.parse_args(argv)


def run_round(wl, tracer=None):
    """Set up ``SETUPS`` times, build, read, then check outside the clocks."""
    from workloads import Round

    rnd = Round()
    for i in range(SETUPS):
        if tracer is not None and i == SETUPS - 1:
            tracer.active = True
        t0 = perf()
        ctx = wl.setup()
        rnd.setup_s.append(perf() - t0)
    wl.build(ctx, rnd)
    wl.read(ctx, rnd)
    if tracer is not None:
        tracer.active = False
    wl.finish(ctx, rnd)
    wl.check(ctx, rnd)
    return rnd


def blocks(values, size):
    """``values`` in order, cut into blocks of at least ``size`` each."""
    values = np.asarray(values, dtype=np.float64)
    return np.array_split(values, max(1, len(values) // size))


def middle_mean(values) -> float:
    """Mean of the middle half of ``values`` (the interquartile mean).

    The host's speed switches between a fast and a slow state (about 30%
    apart) that each last from seconds to minutes.  A median lands on
    whichever state held most of the run; the middle mean moves with the
    share of the run each state held, so runs that straddle a switch
    spread less, and it still drops the outliers one stall makes.
    """
    v = np.sort(np.asarray(list(values), dtype=np.float64))
    k = len(v) // 4
    return float(v[k:len(v) - k].mean())


def ticket_percentile(rounds, q):
    """Middle mean over blocks of consecutive tickets of each block's
    percentile.

    The run's tickets, in the order they were issued, are cut into blocks
    of at least ``TICKET_BLOCK`` that hold at least ten tickets beyond
    ``q`` (1,000 for p99), so a burst of host contention that slows one
    block cannot set the run's figure on its own.
    """
    size = max(TICKET_BLOCK, math.ceil(1000 / (100 - q)))
    tickets = [t for r in rounds for t in r.tickets_ms]
    return middle_mean(
        float(np.percentile(b, q)) for b in blocks(tickets, size)
    )


def lookup_rate(rounds):
    """Middle mean over blocks of consecutive read-phase requests of each
    block's keys per host second.

    Like the ticket blocks: many short blocks spread over every round of
    the run follow the run's typical speed, where one figure per round
    follows whichever swings of host speed its read phase met.
    """
    ms = [t for r in rounds for t in r.read_ms]
    keys = [k for r in rounds for k in r.read_keys]
    return middle_mean(
        k.sum() * 1e3 / t.sum()
        for k, t in zip(blocks(keys, READ_BLOCK), blocks(ms, READ_BLOCK))
    )


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus any children, in MB."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib * 1024 / 1e6


def untraced(wl, seconds):
    rounds = []
    t0 = perf()
    while not rounds or perf() - t0 < seconds:
        rounds.append(run_round(wl))
    sim = rounds[0].simulated
    values = {
        "host_rps": middle_mean(
            n / s
            for r in rounds
            for n, s in r.build_parts or [(r.records, r.build_s)]
        ),
        "setup_s": middle_mean(s for r in rounds for s in r.setup_s),
        "lookup_rps": lookup_rate(rounds),
        "ticket_p50_ms": ticket_percentile(rounds, 50),
        "ticket_p99_ms": ticket_percentile(rounds, 99),
        "sim_s": sim["sim_s"],
        "lookup_sim_s": sim["lookup_sim_s"],
        "sepo_iterations": sim["sepo_iterations"],
        "table_bytes": sim["table_bytes"],
        "peak_rss_mb": peak_rss_mb(),
    }
    return values, END_TO_END, rounds


def traced(wl, seed):
    from tracing import LAYER_TIMES, Tracer

    base = run_round(wl)
    tracer = Tracer()
    tracer.install()
    try:
        rnd = run_round(wl, tracer)
    finally:
        tracer.uninstall()
    tracer.write(WORKDIR / f"trace-{wl.name}-seed{seed}.npz")

    own = tracer.self_times()
    values = {m: own.get(span, 0.0) for m, span in LAYER_TIMES.items()}
    units = {m: "s" for m in LAYER_TIMES}
    counts = dict(rnd.counters)
    for k, v in tracer.counts.items():
        counts[k] = counts.get(k, 0) + v
    attempted = counts.get("core.records_attempted", 0)
    counts["core.useful_ratio"] = (
        counts.get("core.records_succeeded", 0) / attempted if attempted else 0.0
    )
    for m, unit in LAYER_COUNTERS.items():
        values[m] = counts.get(m, 0)
        units[m] = unit
    for m, v in rnd.counters.items():
        if m.startswith("gpusim.") and m.endswith("_s"):
            values[m], units[m] = v, "sim_s"
    window = rnd.setup_s[-1] + rnd.build_s + rnd.read_s
    values["trace.coverage"] = tracer.top_level_seconds() / window
    values["trace.host_rps_ratio"] = rnd.host_rps / base.host_rps
    values["trace.spans"] = tracer.n_spans
    units.update({
        "trace.coverage": "ratio",
        "trace.host_rps_ratio": "ratio",
        "trace.spans": "count",
    })
    return values, units, [base, rnd]


def repeat_errors(rounds) -> list[str]:
    """Simulated figures of one seed must repeat exactly in every round."""
    first = rounds[0].simulated
    return [
        f"round {i}: simulated figures {r.simulated} != round 0 {first}"
        for i, r in enumerate(rounds[1:], 1)
        if r.simulated != first
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"e2ebench: no program source at {SRC / 'repro'}; run from the "
            "root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    WORKDIR.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.small, args.impl, WORKDIR)
    # The inputs and references are the benchmark's own: keep the cyclic
    # collector from re-traversing them, which would charge their size to
    # the program's timings (over a second per patent-spill round).
    gc.collect()
    gc.freeze()
    if args.trace:
        values, units, rounds = traced(wl, args.seed)
    else:
        values, units, rounds = untraced(wl, args.seconds)

    errors = [e for r in rounds for e in r.errors] + repeat_errors(rounds)
    for e in errors:
        print(f"e2ebench: {e}", file=sys.stderr)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(
        f"{args.workload} seed {args.seed}: {len(rounds)} round(s), "
        f"{attempted} operations attempted, {failed} failed"
    )
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m: {"value": values[m], "unit": units[m]} for m in values
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
