"""Resilience benchmark — the armored LP chain, fault-free and under chaos.

Two variants of each feasible Table-3 row:

* ``armored`` — the default ``ResilientLPBackend`` chain, which every
  bnb solve runs through: this measures the steady-state price of
  validating every LP result (it should be noise next to the LP
  solves themselves);
* ``chaos`` — seeded fault injection on the primary backend at a 20%
  rate over all fault classes: this measures what recovery costs when
  the armor actually works for a living.

Both must land on the optimum of an independent SciPy HiGHS MILP solve
of the same row (``backend="milp"``), which shares no LP machinery with
the branch and bound.  ``degraded`` rows would mean the chain failed to
recover — the assertions keep this benchmark a regression tripwire,
not just a stopwatch.
"""

import pytest

from repro.ilp.resilience import FAULT_KINDS, FaultPlan
from repro.reporting.experiments import run_row, table_rows
from benchmarks.conftest import TIME_LIMIT_S, run_once

ROWS = [r for r in table_rows("t3") if r.paper_feasible]

VARIANTS = [
    ("armored", {}),
    (
        "chaos",
        {
            "chaos": FaultPlan(
                kinds=FAULT_KINDS, rate=0.2, seed=42, slow_s=0.0
            ),
        },
    ),
]


@pytest.mark.parametrize("name,kwargs", VARIANTS, ids=[v[0] for v in VARIANTS])
@pytest.mark.parametrize("row", ROWS, ids=[r.key for r in ROWS])
def test_resilience_variant(benchmark, row, name, kwargs, results_bucket):
    result = run_once(
        benchmark,
        lambda: run_row(row, time_limit_s=TIME_LIMIT_S, **kwargs),
    )
    result["variant"] = name
    resilience = (result["telemetry"]["solve"] or {}).get("resilience")
    result["lp_failures"] = (
        resilience["lp_failures"] if resilience else 0
    )
    results_bucket.append(("resilience", result))
    assert result["status"] == "optimal"
    assert result["degraded"] is False


def test_objectives_agree_with_milp_reference(results_bucket):
    """Armored and chaotic runs must land on the MILP solver's optimum."""
    rows = [r for tag, r in results_bucket if tag == "resilience"]
    if not rows:
        pytest.skip("variant benchmarks did not run")
    by_key = {}
    for r in rows:
        by_key.setdefault(r["key"], {})[r["variant"]] = r["objective"]
    for row in ROWS:
        variants = by_key.get(row.key)
        if not variants:
            continue
        reference = run_row(row, backend="milp", time_limit_s=TIME_LIMIT_S)
        assert reference["status"] == "optimal", row.key
        for name, objective in variants.items():
            assert objective == reference["objective"], (
                f"{row.key}: {name} objective {objective} != "
                f"milp {reference['objective']}"
            )
