"""Reduced-cost variable fixing in branch and bound.

With ``reduced_cost_fixing`` on, the search fixes binaries whose
reduced cost at a node LP optimum proves they cannot improve on the
incumbent.  The reduced costs come from
:func:`~repro.ilp.scipy_backend.solve_lp_scipy` (HiGHS bound
marginals); the property is that fixing never changes the proven
optimum.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp.branch_bound import BranchAndBound, BranchAndBoundConfig
from repro.ilp.expr import lin_sum
from repro.ilp.model import Model
from repro.ilp.scipy_backend import solve_lp_scipy
from repro.ilp.solution import SolveStatus


def build_binary_model(c, rows, rhs, senses):
    model = Model("prop")
    xs = [model.add_binary(f"x{i}") for i in range(len(c))]
    for row, b, sense in zip(rows, rhs, senses):
        expr = lin_sum(coef * x for coef, x in zip(row, xs))
        model.add(expr <= b if sense == "<=" else expr >= b)
    model.set_objective(lin_sum(coef * x for coef, x in zip(c, xs)))
    return model


@st.composite
def random_binary_milp(draw):
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 4))
    coef = st.integers(-4, 4)
    c = [draw(coef) for _ in range(n)]
    rows = [[draw(coef) for _ in range(n)] for _ in range(m)]
    rhs = [draw(st.integers(-3, 8)) for _ in range(m)]
    senses = [draw(st.sampled_from(["<=", ">="])) for _ in range(m)]
    return c, rows, rhs, senses


@given(random_binary_milp())
@settings(max_examples=60, deadline=None)
def test_property_reduced_cost_fixing_preserves_optimum(problem):
    """B&B proves the same optimum with reduced-cost fixing on and off."""

    def solve(fixing: bool):
        config = BranchAndBoundConfig(
            objective_is_integral=True,
            reduced_cost_fixing=fixing,
            lp_backend=solve_lp_scipy,
        )
        return BranchAndBound(build_binary_model(*problem), config=config).solve()

    plain = solve(False)
    fixed = solve(True)
    assert plain.status == fixed.status
    if plain.status is SolveStatus.OPTIMAL:
        assert fixed.objective == pytest.approx(plain.objective, abs=1e-6)
    assert fixed.stats.vars_fixed_reduced_cost >= 0
