#!/usr/bin/env python3
"""Write ``references.json``: the expected verdict of every instance.

Run from the repository root (takes a few minutes)::

    PYTHONPATH=src python3 e2ebench/make_references.py

No answer comes from the branch and bound under test.  Each instance
is solved with SciPy's HiGHS MILP (``backend="milp"``); instances small
enough for ``repro.core.bruteforce`` (at most 6 tasks and 14
operations) are also enumerated exhaustively, and paper rows are also
held against the paper's Feasible column.  If any two of these
disagree, or HiGHS leaves an instance undecided, nothing is written.

Which specs each workload solves is fixed in :data:`SELECTION`; the
rule that picked them is in ``NOTES.md``.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from instances import (  # noqa: E402
    POOL_SEEDS,
    REFERENCES,
    forced_split_candidates,
    graph_digest,
    paper_feasible,
    paper_instances,
)

#: Forced-split candidates generated per pool (selected keys index them).
CANDIDATES = 16
MILP_TIME_LIMIT_S = 900.0

_PAPER = [
    "t3-g1-N3-L0", "t3-g1-N3-L1", "t3-g1-N2-L2", "t3-g1-N2-L3",
    "t4-g2-N4-L1", "t4-g3-N3-L1", "t4-g4-N2-L1", "t4-g4-N3-L0",
    "t4-g5-N3-L0", "t4-g5-N2-L1", "t4-g6-N3-L0", "t4-g6-N2-L1",
]

#: workload -> pool -> spec keys.
SELECTION = {
    "paper-rows": {"default": _PAPER, "heldout": _PAPER},
    "forced-split": {
        "default": ["fs1-p0", "fs1-p1", "fs1-p2"],
        "heldout": ["fs2-p0", "fs2-p5", "fs2-p7"],
    },
    "certified": {
        "default": ["t3-g1-N3-L0", "t3-g1-N3-L1", "t3-g1-N2-L3",
                    "t4-g4-N2-L1", "fs1-p2"],
        "heldout": ["t3-g1-N3-L0", "t3-g1-N3-L1", "t3-g1-N2-L2",
                    "t4-g4-N3-L0", "fs2-p3"],
    },
    "service-mix": {
        "default": ["t3-g1-N3-L0", "t3-g1-N3-L1", "t3-g1-N2-L2", "fs1-p2"],
        "heldout": ["t3-g1-N3-L0", "t3-g1-N3-L1", "t3-g1-N2-L3", "fs2-p7"],
    },
}


def _verdict(outcome) -> dict:
    return {"status": outcome.status.value, "objective": outcome.objective}


def reference(inst, paper_column) -> dict:
    """Independent verdicts for one instance; raises on disagreement."""
    from repro.core.bruteforce import MAX_OPS, MAX_TASKS, brute_force_optimum
    from repro.core.partitioner import TemporalPartitioner
    from repro.target.memory import ScratchMemory

    partitioner = TemporalPartitioner(
        device=inst.fpga_device(),
        memory=None if inst.memory is None else ScratchMemory(inst.memory),
        backend="milp",
        time_limit_s=MILP_TIME_LIMIT_S,
    )
    graph = inst.build_graph()
    start = time.monotonic()
    outcome = partitioner.partition(
        graph, inst.mix, inst.n_partitions, inst.relaxation
    )
    milp = _verdict(outcome)
    sources = {"milp": dict(milp, seconds=round(time.monotonic() - start, 2))}
    if milp["status"] not in ("optimal", "infeasible"):
        raise SystemExit(f"{inst.key}: HiGHS left it undecided ({milp})")

    if len(graph.tasks) <= MAX_TASKS and graph.num_operations <= MAX_OPS:
        spec = partitioner.make_spec(
            graph, inst.mix, inst.n_partitions, inst.relaxation
        )
        found = brute_force_optimum(spec)
        brute = (
            {"status": "infeasible", "objective": None} if found is None
            else {"status": "optimal", "objective": found[0]}
        )
        sources["bruteforce"] = brute
        if brute != milp:
            raise SystemExit(f"{inst.key}: milp {milp} != bruteforce {brute}")
    if paper_column is not None:
        sources["paper_feasible"] = paper_column
        if paper_column != (milp["status"] == "optimal"):
            raise SystemExit(
                f"{inst.key}: milp {milp} contradicts the paper's Feasible "
                f"column ({paper_column})"
            )
    entry = dict(milp, sources=sources)
    if inst.graph is not None:
        entry["graph_sha256"] = graph_digest(inst.graph)
    return entry


def main() -> int:
    available = {inst.key: inst for inst in paper_instances()}
    for seed in POOL_SEEDS.values():
        for inst in forced_split_candidates(seed, CANDIDATES):
            available[inst.key] = inst
    feasible = paper_feasible()
    needed = sorted({
        key for pools in SELECTION.values() for keys in pools.values()
        for key in keys
    })
    entries = {}
    for key in needed:
        entries[key] = reference(available[key], feasible.get(key))
        print(key, entries[key]["status"], entries[key]["objective"],
              flush=True)
    refs = {
        "schema": "e2ebench.references/v1",
        "forced_split": {
            pool: {"seed": seed, "candidates": CANDIDATES}
            for pool, seed in POOL_SEEDS.items()
        },
        "instances": entries,
        "workloads": SELECTION,
    }
    with open(os.path.join(HERE, REFERENCES), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
