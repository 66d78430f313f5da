"""Benchmark instances: what each workload feeds the program.

Every instance is plain data (an :class:`Instance`); the program only
ever receives the spec built from it.  Two pools exist per generated
workload: the *default* pool (the one the timed runs use) and a
*held-out* pool drawn from another generator seed, kept for checking a
later claim on inputs that were not used while the claim was made.
Both pools' reference verdicts are committed in ``references.json``.

The run seed (``--seed``) never changes which specs are solved, only
their order and their instance ids, so every seed measures the same
work and every verdict stays checkable against the committed answers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

#: Generator seeds of the two committed pools.
POOL_SEEDS = {"default": 1, "heldout": 2}

#: The forced-split platform: 125 FGs at alpha 0.7 hold one 16-bit
#: multiplier (123.2 effective FGs) or the small FUs, never both.
FORCED_SPLIT_DEVICE = "125:0.7"
FORCED_SPLIT_MIX = "1A+1M+1S"

#: Size band of forced-split graphs (inclusive).
TASKS_BAND = (5, 7)
OPS_BAND = (11, 24)


@dataclass(frozen=True)
class Instance:
    """One spec: a paper graph or an inline forced-split graph.

    ``key`` identifies the spec in ``references.json``; ``iid`` is the
    per-run instance id (the key tagged with the run seed).
    """

    key: str
    mix: str
    n_partitions: int
    relaxation: int
    device: str
    memory: Optional[int] = None
    paper_graph: Optional[int] = None
    graph: Optional[dict] = None
    iid: str = ""

    def build_graph(self):
        """The task graph the program receives."""
        if self.paper_graph is not None:
            from repro.graph.generators import paper_graph

            return paper_graph(self.paper_graph)
        from repro.graph.io import task_graph_from_dict

        return task_graph_from_dict(self.graph)

    def fpga_device(self):
        """The ``FPGADevice`` named by ``device`` ("capacity:alpha")."""
        from repro.target.fpga import FPGADevice

        capacity, alpha = self.device.split(":")
        return FPGADevice(f"fpga-{capacity}", capacity=int(capacity),
                          alpha=float(alpha))

    def request(self, name: str) -> dict:
        """The instance as a ``repro serve`` solve request body.

        ``name`` becomes the inline graph's name; it is part of the
        service's cache key, so distinct names make distinct jobs.
        """
        from repro.graph.io import task_graph_to_dict

        spec = task_graph_to_dict(self.build_graph())
        spec["name"] = name
        body = {
            "spec": spec,
            "mix": self.mix,
            "n_partitions": self.n_partitions,
            "relaxation": self.relaxation,
            "device": self.device,
        }
        if self.memory is not None:
            body["memory"] = self.memory
        return body


# ----------------------------------------------------------------------
# paper rows


def paper_instances() -> "List[Instance]":
    """The 12 distinct specs of paper Tables 3-4, reference platform.

    t4-g1-N3-L1 repeats t3-g1-N3-L1 and is dropped.
    """
    from repro.reporting.experiments import (
        EXPERIMENT_ROWS,
        reference_device,
        reference_memory,
    )

    device = reference_device()
    out: "List[Instance]" = []
    seen = set()
    for row in EXPERIMENT_ROWS:
        if row.table not in ("t3", "t4"):
            continue
        ident = (row.graph, row.mix, row.n_partitions, row.relaxation)
        if ident in seen:
            continue
        seen.add(ident)
        out.append(Instance(
            key=row.key,
            mix=row.mix,
            n_partitions=row.n_partitions,
            relaxation=row.relaxation,
            device=f"{device.capacity}:{device.alpha}",
            memory=reference_memory().size,
            paper_graph=row.graph,
        ))
    return out


def paper_feasible() -> "Dict[str, bool]":
    """The paper's Feasible column for each paper-rows key."""
    from repro.reporting.experiments import EXPERIMENT_ROWS

    return {
        row.key: bool(row.paper_feasible)
        for row in EXPERIMENT_ROWS
        if row.table in ("t3", "t4")
    }


# ----------------------------------------------------------------------
# forced-split graphs


def forced_split_graph(rng: random.Random, name: str) -> dict:
    """One phase-structured graph as a ``repro.graph.io`` dict.

    Tasks sit in 3-4 phases whose FU kind alternates between
    multiply-only and add/sub-only, so no segment of the forced-split
    device can hold two neighbouring phases: temporal partitioning is
    forced and every cut carries data.
    """
    n_tasks = rng.randint(*TASKS_BAND)
    n_ops = rng.randint(max(OPS_BAND[0], 2 * n_tasks), OPS_BAND[1])
    n_phases = rng.randint(3, min(4, n_tasks))
    first_mul = rng.random() < 0.5
    # Extra tasks share add/sub phases only: one multiplier serializes
    # a shared mul phase, which would leave no latency for the split.
    addsub_phases = [p for p in range(n_phases) if (p % 2 == 0) != first_mul]
    phase_of = list(range(n_phases)) + [
        rng.choice(addsub_phases) for _ in range(n_tasks - n_phases)
    ]
    phase_of.sort()
    counts = [2] * n_tasks
    for _ in range(n_ops - 2 * n_tasks):
        counts[rng.randrange(n_tasks)] += 1

    tasks = []
    for t, (phase, count) in enumerate(zip(phase_of, counts)):
        mul = (phase % 2 == 0) == first_mul
        ops = [
            {
                "name": f"o{k + 1}",
                "optype": "mul" if mul else rng.choice(("add", "sub")),
                "width": 16,
            }
            for k in range(count)
        ]
        edges = []
        for k in range(1, count):
            if rng.random() < 0.9:
                edges.append([f"o{k}", f"o{k + 1}"])
        tasks.append({"name": f"t{t + 1}", "operations": ops, "edges": edges})

    data_edges = []
    for t in range(n_tasks):
        earlier = [s for s in range(n_tasks) if phase_of[s] == phase_of[t] - 1]
        if not earlier:
            continue
        preds = rng.sample(earlier, rng.randint(1, min(2, len(earlier))))
        for s in sorted(preds):
            src_ops = counts[s]
            data_edges.append({
                "src": f"t{s + 1}.o{rng.randrange(src_ops // 2, src_ops) + 1}",
                "dst": f"t{t + 1}.o{rng.randrange(max(1, counts[t] // 2)) + 1}",
                "width": rng.randint(1, 3),
            })
    return {
        "version": 1,
        "name": name,
        "tasks": tasks,
        "data_edges": data_edges,
    }


def forced_split_candidates(pool_seed: int, count: int) -> "List[Instance]":
    """``count`` forced-split specs drawn from one generator seed."""
    rng = random.Random(pool_seed)
    out: "List[Instance]" = []
    for i in range(count):
        key = f"fs{pool_seed}-p{i}"
        out.append(Instance(
            key=key,
            mix=FORCED_SPLIT_MIX,
            n_partitions=rng.randint(4, 5),
            relaxation=rng.randint(2, 4),
            device=FORCED_SPLIT_DEVICE,
            graph=forced_split_graph(rng, key),
        ))
    return out


# ----------------------------------------------------------------------
# references and per-run instance lists

REFERENCES = "references.json"
WORKLOADS = ("paper-rows", "forced-split", "certified", "service-mix")


def graph_digest(graph: dict) -> str:
    """SHA-256 of a graph dict, so generator drift cannot go unnoticed."""
    import hashlib
    import json

    canonical = json.dumps(graph, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_references(path) -> dict:
    """Read the committed reference answers."""
    import json

    with open(path, "r", encoding="utf-8") as handle:
        refs = json.load(handle)
    if refs.get("schema") != "e2ebench.references/v1":
        raise ValueError(f"{path}: unknown references schema")
    return refs


def pool_instances(pool: str, refs: dict) -> "Dict[str, Instance]":
    """Every spec a pool can draw on, keyed like ``references.json``."""
    meta = refs["forced_split"][pool]
    out = {inst.key: inst for inst in paper_instances()}
    for inst in forced_split_candidates(meta["seed"], meta["candidates"]):
        if inst.key in refs["instances"]:
            out[inst.key] = inst
    return out


def workload_instances(
    workload: str, seed: int, refs: dict, pool: str = "default"
) -> "List[Tuple[Instance, dict]]":
    """The run's instance list with each instance's reference answer.

    The run seed shuffles the pool's fixed spec list and tags each
    instance id with the seed; it never changes what is solved.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    keys = list(refs["workloads"][workload][pool])
    available = pool_instances(pool, refs)
    rng = random.Random(seed)
    rng.shuffle(keys)
    out = []
    for key in keys:
        inst = available[key]
        ref = refs["instances"][key]
        if inst.graph is not None and graph_digest(inst.graph) != ref["graph_sha256"]:
            raise ValueError(f"{key}: generated graph differs from the referenced one")
        out.append((replace(inst, iid=f"{key}@s{seed}"), ref))
    return out
