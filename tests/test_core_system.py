import ast
import math
import os

import numpy as np
import pytest
import scipy.sparse as sp

import actuopt as ao
from actuopt.core_system import Discretization

from conftest import make_beam, make_wave


def test_time_grid_basics():
    g = ao.TimeGrid(2.0, 4)
    assert g.dt == 0.5
    np.testing.assert_allclose(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    # trapezoid weights: halved at the ends, summing to the horizon
    np.testing.assert_allclose(g.theta, [0.25, 0.5, 0.5, 0.5, 0.25])
    assert abs(g.theta.sum() - g.t_final) < 1e-15


@pytest.mark.parametrize("t_final,n_steps", [(0.0, 10), (-1.0, 10), (1.0, 1), (1.0, 0)])
def test_time_grid_rejects_bad_args(t_final, n_steps):
    with pytest.raises(ValueError):
        ao.TimeGrid(t_final, n_steps)


def test_cost_spec_validation():
    with pytest.raises(ValueError):
        ao.CostSpec(q1=np.array([-1.0]), q2=np.array([1.0]))
    with pytest.raises(ValueError):
        ao.CostSpec(q1=np.array([1.0]), q2=np.array([1.0]), r_weight=0.0)
    with pytest.raises(ValueError):
        ao.CostSpec(q1=np.array([np.inf]), q2=np.array([1.0]))


def test_energy_series_matches_direct_quadratic_form(beam_small):
    _, disc, grid, _, x0 = beam_small
    rng = np.random.default_rng(0)
    traj = rng.standard_normal((3, disc.n_dof))
    es = ao.energy_series(disc, traj)
    for i in range(3):
        direct = traj[i] @ (disc.gram @ traj[i])
        assert abs(es[i] - direct) <= 1e-12 * max(1.0, abs(direct))


def test_solve_forward_matches_manual_imex_steps(beam_small):
    _, disc, grid, _, x0 = beam_small
    u = 0.3 * np.sin(2.0 * grid.times)
    r = np.array([0.31])
    traj = ao.solve_forward(disc, x0, u, r, grid)

    step = disc.step_factors(grid.dt)
    b_vec = disc.b_of_r(r)
    x = x0.copy()
    x_prev = None
    for i in range(grid.n_steps):
        u_mid = 0.5 * (u[i] + u[i + 1])
        f_ext = (disc.fnl(x) if x_prev is None
                 else 1.5 * disc.fnl(x) - 0.5 * disc.fnl(x_prev))
        x_new = step.solve(step.apply(x) + grid.dt * f_ext + (grid.dt * u_mid) * b_vec)
        np.testing.assert_array_equal(x_new, traj[i + 1])
        x_prev = x
        x = x_new


@pytest.mark.parametrize("maker", [make_beam, make_wave])
@pytest.mark.parametrize("operator", ["forward", "adjoint"])
@pytest.mark.parametrize("k", [None, 5])
def test_step_transposes_are_exact(maker, operator, k):
    # y . apply(x) = apply_T(y) . x and y . solve(x) = solve_T(y) . x, per
    # column of an (n_dof, K) block as for one state, relative to the
    # Cauchy-Schwarz bound |y| |z| of both sides, z = apply(x) or solve(x)
    # (a single column's dot product may cancel far below it)
    _, disc, grid, _, _ = maker()
    step = disc.step_factors(grid.dt, operator)
    rng = np.random.default_rng(0)
    shape = (disc.n_dof,) if k is None else (disc.n_dof, k)
    x = rng.standard_normal(shape)
    y = rng.standard_normal(shape)
    for fwd, bwd in ((step.apply, step.apply_T), (step.solve, step.solve_T)):
        z = fwd(x)
        gap = np.abs(np.sum(y * z, axis=0) - np.sum(bwd(y) * x, axis=0))
        scale = np.linalg.norm(y, axis=0) * np.linalg.norm(z, axis=0)
        assert np.all(gap <= 1e-13 * scale), gap / scale


def test_step_factors_cache_returns_one_object(beam_small):
    _, disc, grid, _, _ = beam_small
    step = disc.step_factors(grid.dt)
    assert disc.step_factors(grid.dt) is step
    assert disc.step_factors(grid.dt, "adjoint") is not step


def test_step_internals_stay_in_the_step_class():
    # only CNStep knows how a step is factorised, applied or transposed: no
    # other code names its factors or passes an LU trans= flag
    pkg = os.path.dirname(os.path.abspath(ao.__file__))
    found = []
    for module in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, module), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        inside = {id(sub) for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and node.name == "CNStep"
                  for sub in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            if (isinstance(node, ast.Attribute) and node.attr in ("lu", "m_plus")
                    or isinstance(node, ast.Name) and node.id == "m_plus"
                    or isinstance(node, ast.keyword) and node.arg == "trans"):
                found.append(f"{module}:{node.lineno}")
    assert found == []


def test_solve_forward_validates_shapes(beam_small):
    _, disc, grid, _, x0 = beam_small
    with pytest.raises(ValueError):
        ao.solve_forward(disc, x0[:-1], np.zeros(grid.n_steps + 1), [0.3], grid)
    with pytest.raises(ValueError):
        ao.solve_forward(disc, x0, np.zeros(grid.n_steps), [0.3], grid)
    bad = np.zeros(grid.n_steps + 1)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        ao.solve_forward(disc, x0, bad, [0.3], grid)


def test_blow_up_carries_partial_trajectory():
    params, disc, grid, _, x0 = make_beam(alpha=80.0, t_final=2.0, n_steps=50)
    x0 = x0 * 2.5
    with pytest.raises(ao.BlowUpError) as exc_info:
        ao.solve_forward(disc, x0, np.zeros(grid.n_steps + 1), [0.4], grid)
    err = exc_info.value
    assert 1 <= err.step <= grid.n_steps
    assert err.partial.shape == (err.step, disc.n_dof)
    assert np.all(np.isfinite(err.partial))
    assert abs(err.time - err.step * grid.dt) < 1e-15


def _serial_costs(disc, cost, x0, us, rs, grid):
    return np.array([
        ao.cost_eval(disc, cost, ao.solve_forward(disc, x0, u, r, grid), u, grid)
        for u, r in zip(us, rs)
    ])


@pytest.mark.parametrize("maker", [make_beam, make_wave])
@pytest.mark.parametrize("k", [1, 5])
def test_forward_costs_equal_serial_solves(maker, k):
    _, disc, grid, cost, x0 = maker()
    rng = np.random.default_rng(k)
    us = rng.standard_normal((k, grid.n_steps + 1))
    rs = 0.45 + 0.1 * rng.random((k, disc.r_dim))
    got = ao.forward_costs(disc, cost, x0, us, rs, grid)
    want = _serial_costs(disc, cost, x0, us, rs, grid)
    assert got.shape == (k,)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_forward_costs_blow_up_names_the_column():
    # only the middle column's constant push of 1000 blows up (at step 11)
    _, disc, grid, cost, x0 = make_beam(alpha=80.0, t_final=2.0, n_steps=50)
    us = np.zeros((3, grid.n_steps + 1))
    us[1] = 1000.0
    us[2] = 100.0 * np.sin(np.pi * grid.times)
    rs = np.full((3, 1), 0.4)
    with pytest.raises(ao.BlowUpError) as serial:
        ao.solve_forward(disc, x0, us[1], rs[1], grid)
    with pytest.raises(ao.BlowUpError) as exc_info:
        ao.forward_costs(disc, cost, x0, us, rs, grid)
    err = exc_info.value
    assert (err.step, err.time) == (serial.value.step, serial.value.time)
    # no trajectory is kept: partial is the column's last completed state
    assert err.partial.shape == (1, disc.n_dof)
    np.testing.assert_allclose(err.partial[0], serial.value.partial[-1],
                               rtol=1e-12, atol=0.0)


def test_forward_costs_validates_shapes(beam_small):
    _, disc, grid, cost, x0 = beam_small
    u = np.zeros((2, grid.n_steps + 1))
    with pytest.raises(ValueError):
        ao.forward_costs(disc, cost, x0, u, np.full((3, 1), 0.4), grid)
    with pytest.raises(ValueError):
        ao.forward_costs(disc, cost, x0, u[0], np.full((1, 1), 0.4), grid)
    with pytest.raises(ValueError):
        ao.forward_costs(disc, cost, x0, u[:, :-1], np.full((2, 1), 0.4), grid)


def test_picard_linear_problem_converges_immediately():
    # with alpha = 0 the fixed-point map is affine: the first sweep lands on
    # the solution and the second only confirms it
    params, disc, grid, _, x0 = make_beam(alpha=0.0)
    u = 0.4 * np.sin(3.0 * grid.times)
    y, info = ao.picard_mild_solve(disc, x0, u, [0.31], grid)
    assert info["converged"]
    assert info["iterations"] <= 2


def test_picard_agrees_with_imex_and_contracts(beam_small):
    _, disc, grid, _, x0 = beam_small
    u = 0.4 * np.sin(3.0 * grid.times)
    r = np.array([0.31])
    y, info = ao.picard_mild_solve(disc, x0, u, r, grid)
    assert info["converged"]
    d = info["distances"]
    # successive ratios below one while above the roundoff floor
    for i in range(len(d) - 1):
        if d[i + 1] > 1e-12:
            assert d[i + 1] < d[i]
    traj = ao.solve_forward(disc, x0, u, r, grid)
    num = max(ao.energy_norm(disc, row) for row in (y - traj))
    den = max(ao.energy_norm(disc, row) for row in y)
    assert num / den < 5e-3


def test_picard_raises_on_non_contraction():
    params, disc, grid, _, x0 = make_beam(alpha=50.0, t_final=2.0, n_steps=40)
    x0 = 2.0 * x0
    with pytest.raises(ao.NonContractionError) as exc_info:
        ao.picard_mild_solve(disc, x0, np.zeros(grid.n_steps + 1), [0.31], grid)
    assert len(exc_info.value.distances) >= 3


def test_cost_eval_zero_and_manual(beam_small):
    _, disc, grid, cost, x0 = beam_small
    n = grid.n_steps
    zero_traj = np.zeros((n + 1, disc.n_dof))
    assert ao.cost_eval(disc, cost, zero_traj, np.zeros(n + 1), grid) == 0.0

    rng = np.random.default_rng(1)
    traj = rng.standard_normal((n + 1, disc.n_dof))
    u = rng.standard_normal(n + 1)
    mq = disc.cost_matrix(cost)
    expected = sum(
        grid.theta[i] * (traj[i] @ (mq @ traj[i]) + cost.r_weight * u[i] ** 2)
        for i in range(n + 1)
    )
    got = ao.cost_eval(disc, cost, traj, u, grid)
    assert abs(got - expected) <= 1e-10 * max(1.0, abs(expected))


def test_step_solver_error_on_singular_system():
    # toy 2x2 system with A = (2/dt) I makes (I - dt/2 A) exactly singular
    dt = 0.1
    a = sp.identity(2, format="csr") * (2.0 / dt)
    disc = Discretization(
        model="toy",
        params=None,
        n_space=1,
        a_mat=a,
        gram=sp.identity(2, format="csr"),
        astar_mat=a,
        b_of_r=lambda r: np.zeros(2),
        b_jac_of_r=lambda r: np.zeros((2, 1)),
        fnl=lambda x: np.zeros(2),
        fnl_diag=lambda x: np.zeros(1),
        fstar_h=lambda w, g: np.zeros(1),
        cost_matrix_fn=lambda cost: sp.identity(2, format="csr"),
        r_dim=1,
        meta={},
    )
    with pytest.raises(ao.StepSolverError):
        disc.step_factors(dt)
