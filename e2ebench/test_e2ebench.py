"""The benchmark's own test: every workload in its small mode.

    python3 -m pytest e2ebench

Checks that each workload runs to its end with correct outputs and no
failed operation, that it prints exactly the metrics ``BENCHMARK.json``
names, each with its unit, that the simulated figures and every per-layer
count repeat exactly across processes with different ``PYTHONHASHSEED``,
and that the command fails without printing a result where the program's
source is missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: every workload run.py offers, including netflix-sharded, which
#: BENCHMARK.json leaves out (see the README)
WORKLOADS = ["patent-spill", "netflix-sharded", "kv-router"]
#: figures that must repeat exactly for one seed
SIMULATED = ("sim_s", "lookup_sim_s", "sepo_iterations", "table_bytes")


def run(workload, trace, hashseed="0", cwd=ROOT, seed=3):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    cmd = [sys.executable, str(cwd / "e2ebench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spec_units(trace):
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_mode_is_correct_and_repeats(workload, trace):
    a = result_of(run(workload, trace, hashseed="1"))
    b = result_of(run(workload, trace, hashseed="2"))
    for res in (a, b):
        assert res["correct"] is True
        assert res["failed"] == 0 and res["attempted"] >= 1
        printed = {m: v["unit"] for m, v in res["metrics"].items()}
        assert printed == spec_units(trace)
    if trace:
        # every count, ratio of counts and simulated figure; host seconds
        # and the host-derived trace ratios legitimately differ
        host = {"trace.coverage", "trace.host_rps_ratio"}
        same = [m for m, u in spec_units(1).items()
                if u != "s" and m not in host]
    else:
        same = SIMULATED
    for m in same:
        assert a["metrics"][m]["value"] == b["metrics"][m]["value"], m


def test_spec_names_offered_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_fails_without_program_source():
    bare = ROOT / ".e2ebench" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "e2ebench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
