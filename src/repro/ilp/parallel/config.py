"""Configuration of the parallel branch-and-bound coordinator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass
class ParallelConfig:
    """Knobs of the worker fleet and the sharding policy.

    Parameters
    ----------
    workers:
        Number of spawn-isolated worker interpreters.  ``1`` is legal
        (useful for checkpoint/protocol testing); ``0`` or less is
        rejected by the coordinator.
    chunk_node_budget:
        Maximum nodes a worker explores per chunk before returning its
        remaining frontier to the pool.  Small budgets steal work
        aggressively (good load balance, more protocol traffic); large
        budgets amortize messaging (good throughput, coarser stealing).
    replay:
        Deterministic-replay mode: exactly one chunk in flight at a
        time, dispatched round-robin over the fleet.  The global node
        sequence is then identical to the sequential solver's, so the
        solve signature (status / objective / nodes explored) matches
        ``workers=1`` exactly.  A testing mode — it serializes the
        search and gains no wall-clock speedup by construction.
    rampup_nodes:
        Maximum nodes the coordinator explores inline before sharding;
        rampup also stops as soon as the frontier reaches
        ``2 * workers`` open nodes.  Small trees may finish entirely
        during rampup, which is the correct degenerate behaviour.
    worker_log_dir:
        Directory for per-worker stderr logs; defaults to a temporary
        directory that is cleaned up with the run.
    crash_after_nodes:
        Chaos knob: ``{rank: n}`` makes worker ``rank`` hard-exit
        (``os._exit``) after exploring ``n`` nodes — the crash-recovery
        tests' hook, default off.

    When every worker is dead the coordinator finishes the remaining
    frontier itself, so the answer never depends on fleet health.
    """

    workers: int = 2
    chunk_node_budget: int = 64
    replay: bool = False
    rampup_nodes: int = 64
    worker_log_dir: "Optional[str]" = None
    crash_after_nodes: "Optional[Dict[int, int]]" = None
