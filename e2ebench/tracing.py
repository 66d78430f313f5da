"""Outside-in tracing: spans recorded around the program's public calls.

Nothing here touches ``src/``.  :meth:`Tracer.install` swaps the public
functions each layer is entered through for thin wrappers that record
a span (name, start, end, parent, instance id) in memory, and
:meth:`Tracer.uninstall` puts the originals back.  Spans are written
out when the run ends and reduced to per-layer totals and self times.

Patched entry points (module attribute the caller looks up):

=============================  =========================================
span name                      patched attribute
=============================  =========================================
``core.precheck``              ``repro.core.partitioner.precheck_spec``
``core.build_model``           ``repro.core.partitioner.build_model``
``ilp.presolve``               ``repro.ilp.analysis.presolve.presolve``
``ilp.standard_form``          ``repro.ilp.branch_bound.compile_standard_form``
``ilp.bnb``                    ``repro.ilp.branch_bound.BranchAndBound.solve``
``ilp.lp``                     callable from ``repro.core.parallel_support.make_lp_backend``
``core.probe``                 callable from ``repro.core.probe.make_slot_prober``
``core.leafsolve``             callable from ``repro.core.leafsolve.make_leaf_solver``
``core.decode``                ``repro.core.partitioner.decode_solution``
``core.verify``                ``repro.core.partitioner.verify_design``
``certify.audit``              ``repro.ilp.certify.checker.audit_proof``
``artifacts.fsync``            ``os.fsync``
=============================  =========================================

The benchmark itself opens ``op`` (one instance, spec in to verified
verdict out), ``graph`` and ``core.spec`` spans around its own calls.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import defaultdict
from typing import Dict, List, Optional


class Tracer:
    """In-memory span recorder; a no-op until :meth:`install`."""

    def __init__(self) -> None:
        self.spans: "List[list]" = []  # [name, start, end, parent, iid]
        self.counts: "Dict[str, float]" = defaultdict(float)
        self.instance = ""
        self.enabled = False
        self._stack: "List[int]" = []
        self._restore: "List[tuple]" = []

    # -- recording -----------------------------------------------------

    def span(self, name: str):
        """Context manager recording one span (no-op when disabled)."""
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.instance]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with every call recorded as a ``name`` span."""
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced entry point; idempotent per instance."""
        if self.enabled:
            return
        # import_module: ``repro.ilp.analysis`` re-exports a function
        # named ``presolve`` that shadows the submodule attribute.
        leafsolve = importlib.import_module("repro.core.leafsolve")
        parallel_support = importlib.import_module("repro.core.parallel_support")
        partitioner = importlib.import_module("repro.core.partitioner")
        probe = importlib.import_module("repro.core.probe")
        presolve_mod = importlib.import_module("repro.ilp.analysis.presolve")
        branch_bound = importlib.import_module("repro.ilp.branch_bound")
        checker = importlib.import_module("repro.ilp.certify.checker")

        counts = self.counts

        def presolved(result) -> None:
            counts["ilp.presolve.rows_removed"] += result.stats.rows_removed

        def probed(hit) -> None:
            counts["core.probe.hits"] += bool(hit)

        def factory(name, make, on_result=None):
            def build(*args, **kwargs):
                return self.wrap(name, make(*args, **kwargs), on_result)
            return build

        def lp_factory(make):
            def build(*args, **kwargs):
                return _TracedBackend(self, make(*args, **kwargs))
            return build

        self._patch(partitioner, "precheck_spec",
                    self.wrap("core.precheck", partitioner.precheck_spec))
        self._patch(partitioner, "build_model",
                    self.wrap("core.build_model", partitioner.build_model))
        self._patch(presolve_mod, "presolve",
                    self.wrap("ilp.presolve", presolve_mod.presolve, presolved))
        self._patch(branch_bound, "compile_standard_form",
                    self.wrap("ilp.standard_form",
                              branch_bound.compile_standard_form))
        self._patch(branch_bound.BranchAndBound, "solve",
                    self.wrap("ilp.bnb", branch_bound.BranchAndBound.solve))
        self._patch(parallel_support, "make_lp_backend",
                    lp_factory(parallel_support.make_lp_backend))
        self._patch(probe, "make_slot_prober",
                    factory("core.probe", probe.make_slot_prober, probed))
        self._patch(leafsolve, "make_leaf_solver",
                    factory("core.leafsolve", leafsolve.make_leaf_solver))
        self._patch(partitioner, "decode_solution",
                    self.wrap("core.decode", partitioner.decode_solution))
        self._patch(partitioner, "verify_design",
                    self.wrap("core.verify", partitioner.verify_design))
        self._patch(checker, "audit_proof",
                    self.wrap("certify.audit", checker.audit_proof))
        self._patch(os, "fsync", self.wrap("artifacts.fsync", os.fsync))
        self.enabled = True

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self.enabled = False

    # -- reduction -----------------------------------------------------

    def layer_times(self) -> "Dict[str, Dict[str, float]]":
        """Per span name: call count, total seconds, self seconds.

        A span's self time is its duration minus its direct children's.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: "Dict[str, Dict[str, float]]" = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def write(self, path: str) -> None:
        """Write spans plus their per-layer reduction as JSON."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "schema": "e2ebench.trace/v1",
                "fields": ["name", "start", "end", "parent", "instance"],
                "spans": self.spans,
                "layers": self.layer_times(),
                "counts": dict(self.counts),
            }, handle)


class _TracedBackend:
    """LP backend proxy: every call is an ``ilp.lp`` span.

    Attribute access (the kernel and resilience telemetry hooks) passes
    through, so the solver sees the wrapped backend unchanged.
    """

    def __init__(self, tracer: Tracer, inner) -> None:
        self._tracer = tracer
        self._inner = inner

    def __call__(self, *args, **kwargs):
        with self._tracer.span("ilp.lp"):
            return self._inner(*args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def tail_rank(n: int) -> "Optional[int]":
    """0-based rank of the tail sample: the highest percentile with at
    least ten samples beyond it, never below the median."""
    if n <= 0:
        return None
    return max(n - 11, n // 2)
