import numpy as np
import pytest
from conftest import make_beam, make_wave

import actuopt as ao


def test_linearized_equals_solution_difference_when_linear():
    params, disc, grid, cost, x0 = make_beam(alpha=0.0)
    rng = np.random.default_rng(0)
    u = np.sin(2.0 * np.pi * grid.times / grid.t_final)
    du = rng.standard_normal(grid.n_steps + 1)
    r = np.array([0.45])
    base = ao.solve_forward(disc, x0, u, r, grid)
    z = ao.solve_linearized(disc, base, du, r, grid)
    direct = ao.solve_forward(disc, np.zeros(disc.n_dof), du, r, grid)
    np.testing.assert_allclose(z, direct, atol=1e-12 * max(1.0, np.max(np.abs(direct))))


def test_linearized_is_second_order_gateaux_limit(beam_small):
    params, disc, grid, cost, x0 = beam_small
    u = np.sin(2.0 * np.pi * grid.times / grid.t_final)
    du = np.cos(3.0 * grid.times)
    r = np.array([0.5])
    base = ao.solve_forward(disc, x0, u, r, grid)
    z = ao.solve_linearized(disc, base, du, r, grid)

    def remainder(eps):
        pert = ao.solve_forward(disc, x0, u + eps * du, r, grid)
        return np.max(np.abs(pert - base - eps * z)) / eps

    r1, r2 = remainder(1e-3), remainder(5e-4)
    assert r2 <= 0.6 * r1  # remainder/eps shrinks linearly in eps


@pytest.mark.parametrize("maker,kw", [
    # beam stays at gentle resolution: the fourth-difference Gram pairing
    # loses ~dx^-4 to roundoff, so fine grids cannot hold 1e-10
    (make_beam, {"n_cells": 12}),
    (make_beam, {"n_cells": 10, "alpha": 0.0, "mu": 0.0, "c_d": 0.0}),
    (make_wave, {}),
    (make_wave, {"nonlinearity": "klein_gordon", "kg_exponent": 2}),
])
def test_duality_defect_tiny(maker, kw):
    params, disc, grid, cost, x0 = maker(**kw)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(grid.n_steps + 1)
    du = rng.standard_normal(grid.n_steps + 1)
    r = np.array([0.5]) if disc.model == "beam" else np.array([0.5, 0.5])
    traj = ao.solve_forward(disc, x0, u, r, grid)
    x_hat = rng.standard_normal(traj.shape)
    assert ao.duality_check(disc, traj, r, du, x_hat, grid) <= 1e-10


def test_adjoint_terminal_condition_and_zero_cost(beam_small):
    params, disc, grid, cost, x0 = beam_small
    u = np.sin(grid.times)
    r = np.array([0.5])
    traj = ao.solve_forward(disc, x0, u, r, grid)
    adj = ao.solve_adjoint(disc, cost, traj, grid)
    assert np.all(ao.adjoint_node_view(disc, adj)[-1] == 0.0)
    m = disc.n_space
    zero_cost = ao.CostSpec(q1=np.zeros(m), q2=np.zeros(m))
    adj0 = ao.solve_adjoint(disc, zero_cost, traj, grid)
    assert np.all(ao.adjoint_node_view(disc, adj0) == 0.0)
    assert np.all(adj0.lam == 0.0)


def test_gradient_matches_fd_beam():
    # wide bump on a finer grid keeps the design landscape smooth enough
    # for the finite-difference reference itself to be trustworthy
    params, disc, grid, cost, x0 = make_beam(n_cells=32, act_width=0.2)
    u = 0.3 * np.sin(2.0 * np.pi * grid.times / grid.t_final)
    r = np.array([0.43])
    traj = ao.solve_forward(disc, x0, u, r, grid)
    rep = ao.gradient_fd_check(disc, cost, traj, u, r, grid,
                               n_directions=4, seed=2)
    assert rep["fd_u_rel"] <= 1e-5
    assert rep["fd_r_rel"] <= 1e-5


def test_gradient_matches_fd_wave(wave_small):
    params, disc, grid, cost, x0 = wave_small
    u = 0.5 * np.cos(grid.times)
    r = np.array([0.5, 0.45])
    traj = ao.solve_forward(disc, x0, u, r, grid)
    rep = ao.gradient_fd_check(disc, cost, traj, u, r, grid,
                               n_directions=4, seed=3)
    assert rep["fd_u_rel"] <= 1e-5
    assert rep["fd_r_rel"] <= 1e-5


def test_fd_check_flags_corrupted_gradient(beam_small):
    params, disc, grid, cost, x0 = beam_small
    u = 0.3 * np.sin(grid.times)
    r = np.array([0.45])
    traj = ao.solve_forward(disc, x0, u, r, grid)
    rep = ao.gradient_fd_check(disc, cost, traj, u, r, grid,
                               n_directions=3, seed=4, corrupt=True)
    assert rep["fd_u_rel"] > 1e-5
    assert rep["fd_r_rel"] > 1e-5


def test_fd_check_runs_one_batched_sweep(beam_small, monkeypatch):
    # the perturbed costs come from one forward_costs call; the base
    # trajectory is the caller's, so solve_forward does not run at all
    import actuopt.adjoint_grad as adjoint_grad

    params, disc, grid, cost, x0 = beam_small
    u = 0.3 * np.sin(grid.times)
    r = np.array([0.45])
    traj = ao.solve_forward(disc, x0, u, r, grid)
    calls = {"solve_forward": 0, "forward_costs": 0}

    def counted(name):
        original = getattr(adjoint_grad, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(adjoint_grad, name, wrapper)

    counted("solve_forward")
    counted("forward_costs")
    ao.gradient_fd_check(disc, cost, traj, u, r, grid, n_directions=3, seed=4)
    assert calls == {"solve_forward": 0, "forward_costs": 1}


def test_design_gradient_antisymmetric_across_center():
    # symmetric beam + symmetric initial state: J(r) = J(l - r), so the
    # design derivative is odd about the midpoint and flips sign there
    params, disc, grid, cost, x0 = make_beam(n_cells=16)
    u = np.sin(2.0 * np.pi * grid.times / grid.t_final)
    g_left = ao.gradient(disc, cost, x0, u, np.array([0.4]), grid).grad_r[0]
    g_right = ao.gradient(disc, cost, x0, u, np.array([0.6]), grid).grad_r[0]
    assert g_left * g_right < 0.0
    assert abs(g_left + g_right) < 1e-8 * max(1.0, abs(g_left))


def test_residual_definitions_agree_with_gradient(beam_small):
    params, disc, grid, cost, x0 = beam_small
    u = 0.2 * np.sin(grid.times)
    r = np.array([0.42])
    traj = ao.solve_forward(disc, x0, u, r, grid)
    adj = ao.solve_adjoint(disc, cost, traj, grid)
    rep = ao.gradients_from_adjoint(disc, cost, u, r, adj)
    res = ao.optimality_residual(disc, cost, u, r, adj)
    grad_u, grad_r = rep
    expect_u = np.sqrt(grid.theta @ (grad_u / (2.0 * cost.r_weight)) ** 2)
    assert abs(res.res_u - expect_u) < 1e-12 * max(1.0, expect_u)
    assert abs(res.res_r - 0.5 * abs(grad_r[0])) < 1e-14
    np.testing.assert_allclose(res.grad_r, grad_r)


def test_continuous_oracle_agrees_and_refines():
    def gap(n_steps):
        params, disc, grid, cost, x0 = make_beam(n_cells=16, t_final=0.4,
                                                 n_steps=n_steps)
        u = np.sin(2.0 * np.pi * grid.times / grid.t_final)
        r = np.array([0.5])
        traj = ao.solve_forward(disc, x0, u, r, grid)
        return ao.adjoint_compare(disc, cost, traj, grid)

    e1, e2 = gap(40), gap(80)
    assert e1 < 5e-2
    assert e2 <= 0.35 * e1  # both sweeps are second order in dt


def test_gradient_equals_its_sweeps_composed(beam_small):
    params, disc, grid, cost, x0 = beam_small
    u = 0.1 * np.cos(grid.times)
    r = np.array([0.55])
    traj = ao.solve_forward(disc, x0, u, r, grid)
    adj = ao.solve_adjoint(disc, cost, traj, grid)
    a = ao.gradient(disc, cost, x0, u, r, grid)
    grad_u, grad_r = ao.gradients_from_adjoint(disc, cost, u, r, adj)
    np.testing.assert_array_equal(a.grad_u, grad_u)
    np.testing.assert_array_equal(a.grad_r, grad_r)
    assert a.j == ao.cost_eval(disc, cost, traj, u, grid)


def test_trajectory_shape_mismatch_rejected(beam_small):
    params, disc, grid, cost, x0 = beam_small
    u = np.zeros(grid.n_steps + 1)
    r = np.array([0.5])
    traj = ao.solve_forward(disc, x0, u, r, grid)
    with pytest.raises(ValueError):
        ao.solve_adjoint(disc, cost, traj[:-1], grid)
