"""In-process workloads: spec in, verified verdict out, one pass at a time.

One operation = build the graph, build the spec, ``partition_spec``
with the default configuration (``TemporalPartitioner``: bnb, the
incremental LP kernel, one worker, cuts and heuristics off), check the
verdict; on ``certified`` also solve with ``proof_path`` and audit the
log with ``repro.ilp.certify.checker.audit_proof``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import check

#: Per-instance search limit; an instance not decided within it counts
#: as failed.
TIME_LIMIT_S = 60.0


@dataclass
class OpRecord:
    """One operation's result."""

    iid: str
    wall_s: float
    failure: Optional[str]
    counts: "Dict[str, int]" = field(default_factory=dict)
    model: "Dict[str, int]" = field(default_factory=dict)
    lp: "Dict[str, int]" = field(default_factory=dict)
    proof_bytes: int = 0
    audit_records: int = 0


def run_op(inst, ref, tracer, proof_dir: "Optional[str]") -> OpRecord:
    """Solve and check one instance."""
    import repro.ilp.certify.checker as checker
    from repro.core.partitioner import TemporalPartitioner
    from repro.target.memory import ScratchMemory

    proof_path = None
    if proof_dir is not None:
        proof_path = os.path.join(proof_dir, f"{inst.key}.proof.jsonl")
        if os.path.exists(proof_path):
            os.remove(proof_path)
    tracer.instance = inst.iid
    start = time.perf_counter()
    with tracer.span("op"):
        with tracer.span("graph"):
            graph = inst.build_graph()
        partitioner = TemporalPartitioner(
            device=inst.fpga_device(),
            memory=None if inst.memory is None else ScratchMemory(inst.memory),
            time_limit_s=TIME_LIMIT_S,
            proof_path=proof_path,
        )
        with tracer.span("core.spec"):
            spec = partitioner.make_spec(
                graph, inst.mix, inst.n_partitions, inst.relaxation
            )
        outcome = partitioner.partition_spec(spec)
        failure = check.check_outcome(inst.iid, outcome, ref)
        report = None
        if proof_path is not None and failure is None:
            if not os.path.exists(proof_path):
                failure = "no proof log"
            else:
                report = checker.audit_proof(proof_path)
                failure = check.check_audit(inst.iid, report, ref)
    wall = time.perf_counter() - start

    stats = outcome.solve_stats
    record = OpRecord(iid=inst.iid, wall_s=wall, failure=failure)
    record.counts = {
        "ilp.bnb.nodes": stats.nodes_explored,
        "ilp.lp.calls": stats.lp_calls,
        "core.probe.hits": stats.prober_hits,
        "core.leafsolve.calls": stats.leaf_subsolve_calls,
        "ilp.bnb.pruned": stats.nodes_pruned,
    }
    record.model = {
        "vars": int(outcome.model_stats["vars"]),
        "rows": int(outcome.model_stats["constraints"]),
    }
    kernel = stats.kernel or {}
    record.lp = {
        "calls": int(kernel.get("calls", 0)),
        "warm": int(kernel.get("warm_start_hits", 0)),
        "hits": int(kernel.get("cache_hits", 0)),
        "lookups": int(kernel.get("cache_hits", 0))
        + int(kernel.get("cache_misses", 0)),
    }
    if proof_path is not None:
        proof = stats.proof or {}
        record.counts["certify.proof.records"] = sum(
            (proof.get("records") or {}).values()
        )
        if os.path.exists(proof_path):
            record.proof_bytes = os.path.getsize(proof_path)
            os.remove(proof_path)
        if report is not None:
            record.audit_records = sum(report.counts.values())
    return record


def run_pass(instances, tracer, proof_dir: "Optional[str]") -> "List[OpRecord]":
    """One pass over the instance list, in list order."""
    return [run_op(inst, ref, tracer, proof_dir) for inst, ref in instances]
