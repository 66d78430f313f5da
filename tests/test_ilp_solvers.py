"""Tests for standard-form compilation, the simplex, and LP backends.

Includes the property-based cross-check: the in-repo dense simplex and
SciPy's HiGHS must agree (status and optimal value) on random bounded
LPs — two independent implementations validating each other.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError, SolverError
from repro.ilp.expr import lin_sum
from repro.ilp.model import Model
from repro.ilp.scipy_backend import solve_lp_scipy
from repro.ilp.simplex import solve_lp_simplex
from repro.ilp.solution import SolveStatus, ValueVector
from repro.ilp.standard_form import compile_standard_form


def build_small_lp():
    """max x+y s.t. x+2y<=4, 3x+y<=6  =>  min -(x+y); opt at (1.6,1.2)."""
    model = Model("lp")
    x = model.add_var("x", 0, 10)
    y = model.add_var("y", 0, 10)
    model.add(x + 2 * y <= 4)
    model.add(3 * x + y <= 6)
    model.set_objective(-1 * x - y)
    return model


class TestStandardForm:
    def test_shapes_and_senses(self):
        model = Model("m")
        x = model.add_binary("x")
        y = model.add_binary("y")
        model.add(x + y <= 1)
        model.add(x - y >= 0)
        model.add(x + y == 1)
        model.set_objective(x)
        form = compile_standard_form(model)
        assert form.a_ub.shape == (2, 2)
        assert form.a_eq.shape == (1, 2)
        # GE row negated into <=.
        assert form.a_ub.toarray()[1].tolist() == [-1.0, 1.0]
        assert form.b_ub.tolist() == [1.0, 0.0]
        assert form.integrality.tolist() == [1.0, 1.0]

    def test_nan_rejected(self):
        model = Model("m")
        x = model.add_binary("x")
        model.add(float("nan") * x <= 1)
        with pytest.raises(ModelError, match="not finite"):
            compile_standard_form(model)

    def test_empty_constraints_ok(self):
        model = Model("m")
        model.add_binary("x")
        form = compile_standard_form(model)
        assert form.a_ub.shape[0] == 0
        assert form.a_eq.shape[0] == 0


class TestSimplexBasics:
    def test_small_lp_optimum(self):
        form = compile_standard_form(build_small_lp())
        result = solve_lp_simplex(form)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(-2.8, abs=1e-7)
        assert result.values[0] == pytest.approx(1.6, abs=1e-7)
        assert result.values[1] == pytest.approx(1.2, abs=1e-7)

    def test_equality_constraints(self):
        model = Model("m")
        x = model.add_var("x", 0, 5)
        y = model.add_var("y", 0, 5)
        model.add(x + y == 3)
        model.set_objective(x - 2 * y)
        result = solve_lp_simplex(compile_standard_form(model))
        assert result.status is SolveStatus.OPTIMAL
        assert result.values[1] == pytest.approx(3.0)

    def test_infeasible(self):
        model = Model("m")
        x = model.add_var("x", 0, 1)
        model.add(x >= 2)
        model.set_objective(x + 0)
        result = solve_lp_simplex(compile_standard_form(model))
        assert result.status is SolveStatus.INFEASIBLE

    def test_contradictory_bound_overrides(self):
        form = compile_standard_form(build_small_lp())
        lb = form.lb.copy()
        ub = form.ub.copy()
        lb[0], ub[0] = 2.0, 1.0
        assert (
            solve_lp_simplex(form, lb, ub).status is SolveStatus.INFEASIBLE
        )

    def test_bound_overrides_respected(self):
        form = compile_standard_form(build_small_lp())
        lb = form.lb.copy()
        lb[0] = 1.9  # force x >= 1.9
        result = solve_lp_simplex(form, lb, form.ub)
        assert result.status is SolveStatus.OPTIMAL
        assert result.values[0] >= 1.9 - 1e-9

    def test_negative_lower_bounds(self):
        model = Model("m")
        x = model.add_var("x", -5, 5)
        model.add(x >= -3)
        model.set_objective(x + 0)
        result = solve_lp_simplex(compile_standard_form(model))
        assert result.objective == pytest.approx(-3.0)

    def test_unbounded_detected(self):
        model = Model("m")
        x = model.add_var("x", 0, float("inf"))
        model.set_objective(-1 * x)
        result = solve_lp_simplex(compile_standard_form(model))
        assert result.status is SolveStatus.UNBOUNDED

    def test_degenerate_redundant_equalities(self):
        model = Model("m")
        x = model.add_var("x", 0, 4)
        y = model.add_var("y", 0, 4)
        model.add(x + y == 2)
        model.add(2 * x + 2 * y == 4)  # redundant copy
        model.set_objective(x + 0)
        result = solve_lp_simplex(compile_standard_form(model))
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(0.0)


class TestScipyBackend:
    def test_matches_simplex_on_small_lp(self):
        form = compile_standard_form(build_small_lp())
        ours = solve_lp_simplex(form)
        scipys = solve_lp_scipy(form)
        assert scipys.status is SolveStatus.OPTIMAL
        assert ours.objective == pytest.approx(scipys.objective, abs=1e-7)

    def test_infeasible(self):
        model = Model("m")
        x = model.add_var("x", 0, 1)
        model.add(x >= 2)
        model.set_objective(x + 0)
        assert (
            solve_lp_scipy(compile_standard_form(model)).status
            is SolveStatus.INFEASIBLE
        )

    def test_contradictory_bounds_short_circuit(self, monkeypatch):
        import repro.ilp.scipy_backend as scipy_mod

        def no_lp(*args, **kwargs):
            raise AssertionError("contradictory bounds must not reach linprog")

        monkeypatch.setattr(scipy_mod, "linprog", no_lp)
        form = compile_standard_form(build_small_lp())
        lb = form.lb.copy()
        ub = form.ub.copy()
        lb[0], ub[0] = 2.0, 1.0
        assert solve_lp_scipy(form, lb, ub).status is SolveStatus.INFEASIBLE

    def test_optimal_results_carry_reduced_costs(self):
        form = compile_standard_form(build_small_lp())
        result = solve_lp_scipy(form)
        assert result.status is SolveStatus.OPTIMAL
        assert isinstance(result.values, ValueVector)
        assert result.reduced_costs is not None
        assert result.reduced_costs.shape == (form.num_vars,)
        assert result.dual_ub.shape == (form.a_ub.shape[0],)
        assert result.dual_eq.shape == (0,)


class TestSimplexSizeGuard:
    def test_oversized_model_raises_typed_error(self, monkeypatch):
        import repro.ilp.simplex as simplex_mod

        monkeypatch.setattr(simplex_mod, "MAX_TABLEAU_ELEMENTS", 10)
        form = compile_standard_form(build_small_lp())
        with pytest.raises(SolverError, match="MAX_TABLEAU_ELEMENTS"):
            solve_lp_simplex(form)

    def test_normal_model_still_solves(self):
        result = solve_lp_simplex(compile_standard_form(build_small_lp()))
        assert result.status is SolveStatus.OPTIMAL
        assert isinstance(result.values, ValueVector)
        assert result.objective == pytest.approx(-2.8, abs=1e-7)


@st.composite
def random_lp(draw):
    """A random box-bounded LP with a handful of constraints."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 5))
    coef = st.integers(-4, 4)
    c = [draw(coef) for _ in range(n)]
    rows = [[draw(coef) for _ in range(n)] for _ in range(m)]
    rhs = [draw(st.integers(-6, 10)) for _ in range(m)]
    senses = [draw(st.sampled_from(["<=", ">=", "=="])) for _ in range(m)]
    ubs = [draw(st.integers(1, 6)) for _ in range(n)]
    return c, rows, rhs, senses, ubs


@given(random_lp())
@settings(max_examples=120, deadline=None)
def test_property_simplex_agrees_with_scipy(problem):
    c, rows, rhs, senses, ubs = problem
    model = Model("prop")
    xs = [model.add_var(f"x{i}", 0, ubs[i]) for i in range(len(c))]
    for row, b, sense in zip(rows, rhs, senses):
        expr = lin_sum(coef * x for coef, x in zip(row, xs))
        if sense == "<=":
            model.add(expr <= b)
        elif sense == ">=":
            model.add(expr >= b)
        else:
            model.add(expr == b)
    model.set_objective(lin_sum(coef * x for coef, x in zip(c, xs)))
    form = compile_standard_form(model)

    ours = solve_lp_simplex(form)
    scipys = solve_lp_scipy(form)
    assert ours.status == scipys.status
    if ours.status is SolveStatus.OPTIMAL:
        assert ours.objective == pytest.approx(scipys.objective, abs=1e-6)
        # Our solution must satisfy the model too.
        assert not model.check_feasible(
            {i: v for i, v in ours.values.items()}, tol=1e-6
        )
