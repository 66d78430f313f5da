"""``scripts/bench_solver.py --update-baseline`` merges, never truncates.

A run replaces only the baseline records it measured: a ``--quick``
(t3-only) update must keep the t4 rows and the heuristics-ablation
``key:arm`` records it did not touch.  No solving happens here — the
merge helper is exercised on hand-built payloads.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.artifacts import read_snapshot, write_snapshot

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_solver.py"


@pytest.fixture(scope="module")
def bench_solver():
    spec = importlib.util.spec_from_file_location("bench_solver", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(nodes):
    return {"status": "optimal", "objective": 2, "nodes_explored": nodes}


@pytest.fixture
def committed(bench_solver):
    return {
        "schema": bench_solver.BASELINE_SCHEMA,
        "tables": ["t3", "t4"],
        "time_limit_s": 60.0,
        "tolerance": 0.3,
        "rows": {
            "t3-g1-N3-L1": _record(9),
            "t3-g1-N3-L1:off": _record(9),
            "t3-g1-N3-L1:heur": _record(1),
            "t4-g5-N2-L1": _record(21),
            "t4-g5-N2-L1:off": _record(21),
            "t4-g5-N2-L1:heur": _record(1),
        },
    }


def test_quick_update_keeps_ablation_and_t4_rows(bench_solver, committed):
    run = {
        "schema": bench_solver.BASELINE_SCHEMA,
        "tables": ["t3"],
        "time_limit_s": 30.0,
        "tolerance": 0.3,
        "rows": {"t3-g1-N3-L1": _record(7), "t3-g1-N2-L2": _record(3)},
    }
    merged = bench_solver.merge_baseline(committed, run)
    rows = merged["rows"]
    assert rows["t3-g1-N3-L1"] == _record(7)
    assert rows["t3-g1-N2-L2"] == _record(3)
    for key in ("t4-g5-N2-L1", "t3-g1-N3-L1:off", "t3-g1-N3-L1:heur",
                "t4-g5-N2-L1:off", "t4-g5-N2-L1:heur"):
        assert rows[key] == committed["rows"][key], key
    assert merged["tables"] == ["t3", "t4"]
    assert merged["time_limit_s"] == 30.0
    # The committed baseline itself is left untouched.
    assert committed["rows"]["t3-g1-N3-L1"] == _record(9)


def test_ablation_update_replaces_every_arm_record(bench_solver, committed):
    run = {
        "schema": bench_solver.BASELINE_SCHEMA,
        "mode": "ablation",
        "tables": ["t3"],
        "rows": {"t3-g1-N3-L1:off": _record(8), "t3-g1-N3-L1:heur": _record(2)},
    }
    merged = bench_solver.merge_baseline(committed, run, ablation=True)
    assert set(merged["rows"]) == {
        "t3-g1-N3-L1", "t4-g5-N2-L1", "t3-g1-N3-L1:off", "t3-g1-N3-L1:heur",
    }
    assert merged["rows"]["t3-g1-N3-L1:off"] == _record(8)
    assert merged["tables"] == ["t3", "t4"]
    assert "mode" not in merged


def test_update_baseline_round_trips_through_the_snapshot(
    bench_solver, committed, tmp_path
):
    path = tmp_path / "BENCH_solver.json"
    write_snapshot(path, committed, indent=1)
    run = dict(committed, tables=["t3"], rows={"t3-g1-N3-L1": _record(5)})
    assert bench_solver.update_baseline(path, run) == 0
    rows = read_snapshot(path)["rows"]
    assert rows["t3-g1-N3-L1"] == _record(5)
    assert len(rows) == len(committed["rows"])
