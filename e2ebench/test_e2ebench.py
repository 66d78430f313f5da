"""Self-tests of the benchmark: output check, seeding, metric names.

Run from the repository root::

    python3 -m pytest -q e2ebench/test_e2ebench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402

OPTIMAL = {"status": "optimal", "objective": 13}
INFEASIBLE = {"status": "infeasible", "objective": None}


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _refs():
    return instances.load_references(os.path.join(HERE, instances.REFERENCES))


def _outcome(status="optimal", objective=13, degraded=False, hit_limit=False):
    return SimpleNamespace(
        status=SimpleNamespace(value=status), objective=objective,
        degraded=degraded, degradation_cause="solver_error",
        hit_limit=hit_limit, design=None,
        solve_stats=SimpleNamespace(stop_reason="time_limit"),
    )


# ----------------------------------------------------------------------
# output check


def test_wrong_objective_is_rejected():
    with pytest.raises(check.WrongVerdict, match="objective"):
        check.check_outcome("x@s1", _outcome(objective=12), OPTIMAL)


def test_wrong_status_is_rejected():
    with pytest.raises(check.WrongVerdict, match="status"):
        check.check_outcome("x@s1", _outcome("infeasible", None), OPTIMAL)


def test_degraded_and_limit_hit_outcomes_count_as_failed():
    assert check.check_outcome("x", _outcome(degraded=True), OPTIMAL)
    assert check.check_outcome("x", _outcome(hit_limit=True), OPTIMAL)
    assert check.check_outcome("x", _outcome("feasible"), OPTIMAL)


def test_right_infeasible_verdict_passes():
    assert check.check_outcome("x", _outcome("infeasible", None), INFEASIBLE) is None


def _report(verdict, status="optimal", objective=13.0):
    return SimpleNamespace(verdict=verdict, reason="r", claimed_status=status,
                           certified_objective=objective)


def test_audit_verdicts():
    assert check.check_audit("x", _report("CERTIFIED"), OPTIMAL) is None
    assert check.check_audit("x", _report("FORFEITURES"), OPTIMAL)
    with pytest.raises(check.WrongVerdict, match="refuted"):
        check.check_audit("x", _report("REFUTED"), OPTIMAL)
    with pytest.raises(check.WrongVerdict, match="objective"):
        check.check_audit("x", _report("CERTIFIED", objective=12.0), OPTIMAL)


def test_service_responses():
    ok = {"outcome": "OK", "solve": {"status": "optimal", "objective": 13}}
    assert check.check_response("x", 200, ok, OPTIMAL) is None
    assert "shed" in check.check_response(
        "x", 429, {"error": {"code": "shed-queue-full"}}, OPTIMAL)
    assert check.check_response("x", 500, {}, OPTIMAL)
    degraded = {"outcome": "DEGRADED",
                "solve": {"status": "feasible", "degraded": True}}
    assert check.check_response("x", 200, degraded, OPTIMAL)
    wrong = {"outcome": "OK", "solve": {"status": "optimal", "objective": 9}}
    with pytest.raises(check.WrongVerdict):
        check.check_response("x", 200, wrong, OPTIMAL)


# ----------------------------------------------------------------------
# count repeatability and the traced run


def test_repeatability_flags_a_count_that_varies():
    counts = {"ilp.bnb.nodes": 7, "ilp.lp.calls": 20}
    report = run.repeatability([
        ("a", counts), ("a", dict(counts, **{"ilp.lp.calls": 21})),
        ("b", counts), ("c", counts), ("c", counts),
    ])
    assert report["ilp.bnb.nodes"] == {"compared": 2, "exact": True,
                                       "varied": []}
    assert report["ilp.lp.calls"] == {"compared": 2, "exact": False,
                                      "varied": ["a"]}
    assert "certify.proof.records" not in report


def test_traced_differences_catch_a_mismatched_count_or_verdict():
    plain = {"a": (None, {"ilp.bnb.nodes": 7}), "b": (None, {})}
    assert run.traced_differences(plain, dict(plain)) == []
    [problem] = run.traced_differences(
        plain, dict(plain, a=(None, {"ilp.bnb.nodes": 8})))
    assert problem.startswith("a: ilp.bnb.nodes 7 untraced, 8 traced")
    [problem] = run.traced_differences(
        plain, dict(plain, b=("undecided (time_limit)", {})))
    assert problem.startswith("b: verdict")
    assert run.traced_differences(plain, {"a": plain["a"]})


# ----------------------------------------------------------------------
# seeding


@pytest.mark.parametrize("workload", instances.WORKLOADS)
def test_seed_determines_the_instance_list(workload):
    refs = _refs()

    def listing(seed):
        return [
            (inst.iid, inst.key, inst.graph)
            for inst, _ in instances.workload_instances(workload, seed, refs)
        ]

    assert listing(3) == listing(3)
    assert listing(3) != listing(4)
    assert sorted(k for _, k, _ in listing(3)) == sorted(k for _, k, _ in listing(4))


def test_generator_matches_the_referenced_graphs():
    refs = _refs()
    for pool in ("default", "heldout"):
        for workload in instances.WORKLOADS:
            assert instances.workload_instances(workload, 0, refs, pool)


def test_every_reference_has_an_independent_source():
    for key, entry in _refs()["instances"].items():
        assert entry["sources"]["milp"]["status"] == entry["status"], key
        for source in ("bruteforce",):
            if source in entry["sources"]:
                assert entry["sources"][source]["status"] == entry["status"]


# ----------------------------------------------------------------------
# end to end, on a copy of the benchmark with a one-spec workload


def _copy(tmp_path, status=None):
    """Benchmark copy whose forced-split workload is just ``fs1-p2``."""
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    path = tmp_path / "e2ebench" / instances.REFERENCES
    refs = json.loads(path.read_text())
    refs["workloads"]["forced-split"]["default"] = ["fs1-p2"]
    if status is not None:
        refs["instances"]["fs1-p2"]["status"] = status
        refs["instances"]["fs1-p2"]["objective"] = 3
    path.write_text(json.dumps(refs))
    return tmp_path


def _run(root, trace):
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "forced-split",
         "--seed", "5", "--seconds", "0.1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(tmp_path, trace, kind):
    proc = _run(_copy(tmp_path), trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in _benchmark()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


def test_altered_reference_exits_nonzero_and_names_the_instance(tmp_path):
    proc = _run(_copy(tmp_path, status="optimal"), 0)
    assert proc.returncode == 1
    assert "fs1-p2@s5" in proc.stderr
