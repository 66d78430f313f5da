#!/usr/bin/env python3
"""End-to-end benchmark: spec in, verified verdict out.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload forced-split --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics: whole passes over the
workload's instance list, repeated while another pass still fits in
``--seconds`` (at least one).  ``--trace 1`` runs one untraced pass and
then one traced pass (spans recorded around the program's public
calls, see ``tracing.py``) and reports the per-layer metrics; if the
traced pass does not reproduce the untraced verdicts and search counts
exactly, the result reads ``correct: false`` and the exit code is 1.
Every verdict is checked against ``references.json``; the last stdout
line is the result object.  A decided verdict that contradicts its
reference ends the run with exit code 1 and names the instance.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

#: Counts that must repeat exactly between a run's repetitions.  The
#: prober's call count exists only in a traced pass, so it is not here.
REPEATED_COUNTS = (
    "ilp.bnb.nodes", "ilp.lp.calls", "core.leafsolve.calls",
    "certify.proof.records",
)
SETUP_REPEATS = 3
#: What ``setup_s`` imports: the program's modules the benchmark calls.
PROGRAM_MODULES = (
    "repro.core.partitioner", "repro.ilp.certify.checker",
    "repro.reporting.experiments",
)
#: Seconds of samples gathered per instance for ``solve_s_geomean``,
#: with at most this many timings of one instance.
SHORT_SAMPLE_S = 1.0
SHORT_REPEATS = 5


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pool", choices=("default", "heldout"), default="default",
        help="spec pool: 'heldout' checks a claim on specs not used "
        "while the claim was made",
    )
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# small statistics


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def latency_summary(latencies) -> dict:
    """Median plus the tail: the highest percentile with at least ten
    samples beyond it (never below the median)."""
    from tracing import tail_rank

    ordered = sorted(latencies)
    n = len(ordered)
    rank = tail_rank(n)
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[rank],
        "tail_percentile": round(100.0 * (rank + 1) / n, 1),
        "samples": n,
        "beyond_tail": n - rank - 1,
    }


def peak_rss_mb(tree_kib: float = 0.0) -> float:
    """Peak RSS of this process plus ``tree_kib``.

    ``tree_kib`` is the sampled peak of the summed RSS of the program's
    child processes (the service and its workers, see
    ``service_mix.RssSampler``).  The in-process workloads run the
    program in this process; their only children are the set-up's
    import timings, which are not the program's footprint.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + tree_kib) / 1024.0


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import :data:`PROGRAM_MODULES`."""
    code = (
        "import time; start = time.perf_counter(); import "
        + ", ".join(PROGRAM_MODULES)
        + "; print(time.perf_counter() - start)"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def repeatability(observations) -> dict:
    """For each count of :data:`REPEATED_COUNTS`: how many instances
    were observed more than once (``compared``) and which of those gave
    differing values (``varied``).

    ``observations`` yields ``(iid, {count: value})``, one per
    repetition of an instance.
    """
    seen: dict = {}
    for iid, counts in observations:
        for name, value in counts.items():
            seen.setdefault(name, {}).setdefault(iid, []).append(value)
    out = {}
    for name in REPEATED_COUNTS:
        repeated = {
            iid: values for iid, values in seen.get(name, {}).items()
            if len(values) > 1
        }
        if name in seen:
            varied = sorted(
                iid for iid, values in repeated.items() if len(set(values)) > 1
            )
            out[name] = {"compared": len(repeated), "exact": not varied,
                         "varied": varied}
    return out


def traced_differences(untraced: dict, traced: dict) -> "list[str]":
    """Where the traced pass did not reproduce the untraced one.

    Each argument maps an operation id to ``(failure, counts)``.  Any
    difference in verdict or in a :data:`REPEATED_COUNTS` count is
    listed; the traced run fails on a non-empty list.
    """
    problems = []
    for op in sorted(set(untraced) | set(traced)):
        if op not in untraced or op not in traced:
            problems.append(f"{op}: missing from one pass")
            continue
        (plain_failure, plain_counts), (failure, counts) = untraced[op], traced[op]
        if plain_failure != failure:
            problems.append(
                f"{op}: verdict {plain_failure!r} untraced, {failure!r} traced")
        for name in REPEATED_COUNTS:
            if plain_counts.get(name) != counts.get(name):
                problems.append(
                    f"{op}: {name} {plain_counts.get(name)} untraced, "
                    f"{counts.get(name)} traced")
    return problems


def result_line(correct: bool, attempted: int, failed: int, metrics: dict,
                units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    })


# ----------------------------------------------------------------------
# in-process workloads


def _observed(records) -> dict:
    """Operation id -> (failure, counts) for :func:`traced_differences`."""
    return {rec.iid: (rec.failure, rec.counts) for rec in records}


def _layer_metrics_inprocess(records, tracer) -> dict:
    layers = tracer.layer_times()

    def s(name):
        return layers.get(name, {}).get("s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    total = lambda key: sum(rec.counts.get(key, 0) for rec in records)  # noqa: E731
    lp_calls = calls("ilp.lp")
    bnb_s = s("ilp.bnb")
    nodes = total("ilp.bnb.nodes")
    audit_s = s("certify.audit")
    kernel_calls = sum(rec.lp["calls"] for rec in records)
    return {
        "graph.s": s("graph"),
        "core.spec.s": s("core.spec"),
        "core.precheck.s": s("core.precheck"),
        "core.build_model.s": s("core.build_model"),
        "core.model.vars": sum(rec.model.get("vars", 0) for rec in records),
        "core.model.rows": sum(rec.model.get("rows", 0) for rec in records),
        "ilp.presolve.s": s("ilp.presolve"),
        "ilp.presolve.rows_removed": int(
            tracer.counts.get("ilp.presolve.rows_removed", 0)),
        "ilp.standard_form.s": s("ilp.standard_form"),
        "ilp.lp.calls": lp_calls,
        "ilp.lp.s": s("ilp.lp"),
        "ilp.lp.ms_per_call": 1000.0 * ratio(s("ilp.lp"), lp_calls),
        "ilp.lp.warm_start_ratio": ratio(
            sum(rec.lp["warm"] for rec in records), kernel_calls),
        "ilp.lp.cache_hit_ratio": ratio(
            sum(rec.lp["hits"] for rec in records),
            sum(rec.lp["lookups"] for rec in records)),
        "ilp.bnb.solve_s": bnb_s,
        "ilp.bnb.self_s": layers.get("ilp.bnb", {}).get("self_s", 0.0),
        "ilp.bnb.nodes": nodes,
        "ilp.bnb.nodes_per_s": ratio(nodes, bnb_s),
        "ilp.bnb.prune_ratio": ratio(total("ilp.bnb.pruned"), nodes),
        "core.probe.calls": calls("core.probe"),
        "core.probe.s": s("core.probe"),
        "core.probe.hit_ratio": ratio(
            tracer.counts.get("core.probe.hits", 0), calls("core.probe")),
        "core.leafsolve.calls": calls("core.leafsolve"),
        "core.leafsolve.s": s("core.leafsolve"),
        "core.decode.s": s("core.decode"),
        "core.verify.s": s("core.verify"),
        "certify.proof.records": total("certify.proof.records"),
        "certify.proof.bytes": sum(rec.proof_bytes for rec in records),
        "artifacts.fsync.calls": calls("artifacts.fsync"),
        "artifacts.fsync.s": s("artifacts.fsync"),
        "certify.audit.s": audit_s,
        "certify.audit.records_per_s": ratio(
            sum(rec.audit_records for rec in records), audit_s),
    }


def phase_shares(tracer) -> dict:
    """Self time of each layer as a share of all ``op`` spans."""
    layers = tracer.layer_times()
    total = layers.get("op", {}).get("s", 0.0)
    return {
        name: round(ratio(row["self_s"], total), 4)
        for name, row in sorted(layers.items())
    }


def run_inprocess(args, instances, work_dir, tracer):
    import inprocess

    proof_dir = work_dir if args.workload == "certified" else None
    detail = {}
    if not args.trace:
        passes = []
        begin = time.perf_counter()
        while True:
            start = time.perf_counter()
            records = inprocess.run_pass(instances, tracer, proof_dir)
            wall = time.perf_counter() - start
            passes.append((wall, records))
            if time.perf_counter() - begin + wall > args.seconds:
                break
        records = [rec for _, recs in passes for rec in recs]
        lat = latency_summary([rec.wall_s for rec in records])
        per_instance = {}
        for rec in records:
            per_instance.setdefault(rec.iid, []).append(rec.wall_s)
        # Sub-second instances are timed again until each has about a
        # second of samples, so one noisy short solve cannot swing the
        # geometric mean.  The repeats are checked like any operation.
        for inst, ref in instances:
            walls = per_instance[inst.iid]
            while sum(walls) < SHORT_SAMPLE_S and len(walls) < SHORT_REPEATS:
                rec = inprocess.run_op(inst, ref, tracer, proof_dir)
                walls.append(rec.wall_s)
                records.append(rec)
        metrics = {
            "wall_s": statistics.median(w for w, _ in passes),
            "solve_s_geomean": geomean(
                statistics.median(v) for v in per_instance.values()),
            "jobs_per_s": len(instances) * len(passes) / sum(w for w, _ in passes),
            "latency_p50_s": lat["p50"],
            "latency_tail_s": lat["tail"],
        }
        detail["passes"] = [round(w, 4) for w, _ in passes]
        detail["per_instance"] = {
            iid: [round(v, 4) for v in walls]
            for iid, walls in per_instance.items()
        }
        detail["latency"] = lat
        # Every timing of an instance is a repetition: a second pass or
        # a re-timing of a sub-second instance.
        detail["repeatability"] = repeatability(
            (rec.iid, rec.counts) for rec in records)
        return metrics, records, detail

    start = time.perf_counter()
    plain = inprocess.run_pass(instances, tracer, proof_dir)
    plain_wall = time.perf_counter() - start
    tracer.install()
    try:
        start = time.perf_counter()
        traced = inprocess.run_pass(instances, tracer, proof_dir)
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    metrics = _layer_metrics_inprocess(traced, tracer)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    detail["passes"] = {"untraced": round(plain_wall, 4),
                        "traced": round(traced_wall, 4)}
    detail["phase_shares"] = phase_shares(tracer)
    detail["traced_differences"] = traced_differences(
        _observed(plain), _observed(traced))
    return metrics, plain + traced, detail


# ----------------------------------------------------------------------
# service-mix


def run_service(args, instances, work_dir, tracer):
    import service_mix

    state_dir = os.path.join(work_dir, "state")
    log_path = os.path.join(work_dir, "serve.log")
    ready = []
    proc = None
    for i in range(SETUP_REPEATS):
        proc, port, ready_s = service_mix.start_server(
            ROOT, f"{state_dir}{i}", log_path)
        ready.append(ready_s)
        if i < SETUP_REPEATS - 1:
            service_mix.stop_server(proc)
    detail = {"ready_s": [round(r, 4) for r in ready]}
    sampler = service_mix.RssSampler(proc.pid)
    sampler.start()
    try:
        passes = []
        begin = time.perf_counter()
        while True:
            if args.trace and len(passes) == 1:
                tracer.enabled = True
            wall, replies = service_mix.run_pass(
                port, instances, args.seed, len(passes), tracer)
            passes.append((wall, replies))
            if args.trace:
                if len(passes) == 2:
                    break
            elif time.perf_counter() - begin + wall > args.seconds:
                break
    finally:
        tracer.enabled = False
        sampler.stop()
        service_mix.stop_server(proc)
    setup_s = statistics.median(ready)

    def counts(reply) -> dict:
        if reply.repeat:  # a cache hit replays the first answer's counts
            return {}
        solve = reply.doc.get("solve") or {}
        return {"ilp.bnb.nodes": solve.get("nodes"),
                "ilp.lp.calls": solve.get("lp_calls")}

    def observed(replies) -> dict:
        return {
            f"{r.iid}{' repeat' if r.repeat else ''}": (r.failure, counts(r))
            for r in replies
        }

    replies = [r for _, rs in passes for r in rs]
    detail["passes"] = [round(w, 4) for w, _ in passes]
    detail["repeat_share"] = ratio(
        sum(r.repeat for r in passes[0][1]), len(passes[0][1]))
    detail["repeatability"] = repeatability(
        (r.iid, counts(r)) for r in replies if not r.repeat)
    if not args.trace:
        lat = latency_summary([r.latency_s for r in replies])
        per_instance = {}
        for r in replies:
            if not r.repeat:
                per_instance.setdefault(r.iid, []).append(r.latency_s)
        detail["latency"] = lat
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(w for w, _ in passes),
            "solve_s_geomean": geomean(
                statistics.median(v) for v in per_instance.values()),
            "jobs_per_s": len(replies) / sum(w for w, _ in passes),
            "latency_p50_s": lat["p50"],
            "latency_tail_s": lat["tail"],
            "peak_rss_mb": peak_rss_mb(sampler.peak_kib),
        }
        detail["server_tree_peak_mb"] = round(sampler.peak_kib / 1024.0, 1)
        return metrics, replies, detail

    traced = passes[1][1]
    solved = [r for r in traced if r.http_status == 200 and not r.doc.get("cached")]
    worker = [float((r.doc.get("timing") or {}).get("duration_s", 0.0)) for r in solved]
    metrics = {
        "ilp.bnb.nodes": sum((r.doc.get("solve") or {}).get("nodes") or 0 for r in solved),
        "ilp.lp.calls": sum((r.doc.get("solve") or {}).get("lp_calls") or 0 for r in solved),
        "service.worker_s": ratio(sum(worker), len(solved)),
        "service.overhead_s": ratio(
            sum(r.latency_s - w for r, w in zip(solved, worker)), len(solved)),
        "service.cache_hit_ratio": ratio(
            sum(1 for r in traced if r.doc.get("cached")), len(traced)),
        "service.shed": sum(1 for r in traced if r.http_status in (429, 503)),
        "trace.overhead_s": passes[1][0] - passes[0][0],
    }
    detail["traced_differences"] = traced_differences(
        observed(passes[0][1]), observed(traced))
    return metrics, replies, detail


# ----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; known: {workloads}",
              file=sys.stderr)
        return 2

    import check
    import instances as instances_mod
    from tracing import Tracer

    import_start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        for name in PROGRAM_MODULES:
            importlib.import_module(name)
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    import repro

    if not os.path.abspath(repro.__file__).startswith(
            os.path.join(ROOT, "src") + os.sep):
        print(f"refusing to measure repro from {repro.__file__}, "
              f"not from {ROOT}/src", file=sys.stderr)
        return 2
    imports = [time.perf_counter() - import_start]
    if args.workload != "service-mix":
        # The program imports once per process, so the other import
        # timings come from fresh interpreters.
        imports += [import_seconds() for _ in range(SETUP_REPEATS - 1)]

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        refs = instances_mod.load_references(
            os.path.join(HERE, instances_mod.REFERENCES))
        instances = instances_mod.workload_instances(
            args.workload, args.seed, refs, args.pool)
        setups.append(time.perf_counter() - start)

    work_dir = os.path.join(ROOT, ".e2ebench_out", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    tracer = Tracer()
    wrong = None
    try:
        if args.workload == "service-mix":
            metrics, ops, detail = run_service(args, instances, work_dir, tracer)
        else:
            metrics, ops, detail = run_inprocess(args, instances, work_dir, tracer)
            metrics["setup_s"] = (statistics.median(imports)
                                  + statistics.median(setups))
            detail["setup_import_s"] = [round(v, 4) for v in imports]
    except check.WrongVerdict as exc:
        wrong = exc
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if wrong is not None:
        print(f"WRONG VERDICT {wrong}", file=sys.stderr)
        units = per_layer if args.trace else end_to_end
        print(result_line(False, 1, 1, {name: 0 for name in units}, units))
        return 1

    attempted = len(ops)
    failures = [(op.iid, op.failure) for op in ops if op.failure is not None]
    if args.trace:
        tracer.write(os.path.join(
            ROOT, ".e2ebench_out",
            f"trace-{args.workload}-s{args.seed}-{args.pool}.json"))
        units = per_layer
        for name in per_layer:
            metrics.setdefault(name, 0)
    else:
        units = end_to_end
        metrics["verified_ratio"] = (attempted - len(failures)) / attempted
        metrics.setdefault("peak_rss_mb", peak_rss_mb())
    detail.update({
        "workload": args.workload, "seed": args.seed, "pool": args.pool,
        "trace": args.trace, "failures": failures,
        "failed_ratio": len(failures) / attempted,
    })
    print(json.dumps({"detail": detail}))
    differences = detail.get("traced_differences")
    if differences:
        print("TRACED RUN DIFFERS " + "; ".join(differences), file=sys.stderr)
    print(result_line(not differences, attempted, len(failures), metrics, units))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
