import re

import numpy as np
import pytest
from conftest import gradients_at, make_beam, make_wave

import actuopt as ao
import actuopt.adjoint_grad as adjoint_grad
import actuopt.core_system as core_system
import actuopt.optimizer as optimizer
from actuopt.optimizer import OptimizerConfig, ProjectionSpec


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
    lam = ao.solve_adjoint(disc, cost, traj, grid)
    assert lam.shape == traj.shape
    assert np.all(ao.adjoint_node_view(disc, lam, grid)[-1] == 0.0)
    m = disc.n_space
    zero_cost = ao.CostSpec(q1=np.zeros(m), q2=np.zeros(m))
    lam0 = ao.solve_adjoint(disc, zero_cost, traj, grid)
    assert np.all(ao.adjoint_node_view(disc, lam0, grid) == 0.0)
    assert np.all(lam0 == 0.0)


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


def test_fd_check_blow_up_raises_from_the_first_blown_point(monkeypatch):
    # from rest with no control, on a beam with a stiff cubic term, the base
    # point, its +-1e-2 points and its r +- 0.3 points stay bounded, and the
    # u +- 0.3 du points blow up; the first of them in point order,
    # u + 0.3 du of the first direction, raises the BlowUpError of its own
    # solve_forward
    import actuopt.adjoint_grad as adjoint_grad

    monkeypatch.setattr(adjoint_grad, "FD_EPS", (1e-2, 0.3))
    _, disc, grid, cost, x0 = make_beam(alpha=1e9, t_final=2.0, n_steps=50)
    x0 = np.zeros_like(x0)
    u = np.zeros(grid.n_steps + 1)
    r = np.array([0.5])
    traj = ao.solve_forward(disc, x0, u, r, grid)
    du = np.random.default_rng(0).standard_normal(u.shape)
    du /= np.sqrt(grid.theta @ du**2)
    with pytest.raises(ao.BlowUpError) as alone:
        ao.solve_forward(disc, x0, u + 0.3 * du, r, grid)
    with pytest.raises(ao.BlowUpError) as exc_info:
        ao.gradient_fd_check(disc, cost, traj, u, r, grid, n_directions=2, seed=0)
    err = exc_info.value
    assert (err.step, err.time) == (alone.value.step, alone.value.time)
    np.testing.assert_array_equal(err.partial, alone.value.partial)


def test_design_gradient_antisymmetric_across_center():
    # symmetric beam + symmetric initial state: J(r) = J(l - r), so the
    # design derivative is odd about the midpoint and flips sign there
    params, disc, grid, cost, x0 = make_beam(n_cells=16)
    u = np.sin(2.0 * np.pi * grid.times / grid.t_final)
    g_left = gradients_at(disc, cost, x0, u, np.array([0.4]), grid)[1][0]
    g_right = gradients_at(disc, cost, x0, u, np.array([0.6]), grid)[1][0]
    assert g_left * g_right < 0.0
    assert abs(g_left + g_right) < 1e-8 * max(1.0, abs(g_left))


def test_residual_definitions_agree_with_gradient(beam_small):
    # where no constraint binds, the optimizer's projected-gradient
    # residuals are the norms of the gradient itself
    params, disc, grid, cost, x0 = beam_small
    u = 0.2 * np.sin(grid.times)
    r = np.array([0.42])
    grad_u, grad_r = gradients_at(disc, cost, x0, u, r, grid)
    spec = ProjectionSpec(r_ad=1e6, r_box=np.array([[-1e3, 1e3]]))
    pg_u, pg_r = optimizer._pg_residuals(u, r, grad_u, grad_r, spec, grid)
    norm_u = np.sqrt(grid.theta @ grad_u**2)
    assert norm_u > 0.0 and abs(grad_r[0]) > 0.0
    assert abs(pg_u - norm_u) < 1e-12 * norm_u
    assert abs(pg_r - abs(grad_r[0])) < 1e-12 * abs(grad_r[0])


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
    # the first row of an optimize run, from its lockstep block sweeps,
    # holds the J and residuals of the public sweeps composed at the start
    params, disc, grid, cost, x0 = beam_small
    u = 0.1 * np.cos(grid.times)
    r = np.array([0.55])
    spec = ProjectionSpec(r_ad=10.0, r_box=np.array([[0.1, 0.9]]))
    run = ao.optimize(disc, cost, x0, u, r, spec,
                      OptimizerConfig(max_iters=1), grid)
    traj = ao.solve_forward(disc, x0, u, r, grid)
    j = ao.cost_eval(disc, cost, traj, u, grid)
    lam = ao.solve_adjoint(disc, cost, traj, grid)
    grad_u, grad_r = ao.gradients_from_adjoint(disc, cost, u, r, lam, grid)
    first = run.history[0]
    assert (first["j"], first["res_u"], first["res_r"]) == (
        j, *optimizer._pg_residuals(u, r, grad_u, grad_r, spec, grid))


def test_trajectory_shape_mismatch_rejected(beam_small):
    params, disc, grid, cost, x0 = beam_small
    u = np.zeros(grid.n_steps + 1)
    r = np.array([0.5])
    traj = ao.solve_forward(disc, x0, u, r, grid)
    with pytest.raises(ValueError):
        ao.solve_adjoint(disc, cost, traj[:-1], grid)


def test_empty_trajectory_stack_rejected(beam_small):
    # K = 0 is rejected like an empty block of controls in solve_forward
    params, disc, grid, cost, x0 = beam_small
    empty = np.zeros((0, grid.n_steps + 1, disc.n_dof))
    with pytest.raises(ValueError, match="K >= 1"):
        ao.solve_forward(disc, x0, empty[:, :, 0], np.zeros((0, 1)), grid)
    with pytest.raises(ValueError, match="K >= 1"):
        ao.solve_adjoint(disc, cost, empty, grid)


@pytest.mark.parametrize("maker", [make_beam, make_wave])
@pytest.mark.parametrize("k", [1, 5])
def test_block_sweeps_equal_single_sweeps_bit_for_bit(maker, k):
    _, disc, grid, cost, x0 = maker()
    rng = np.random.default_rng(k)
    us = rng.standard_normal((k, grid.n_steps + 1))
    rs = 0.45 + 0.1 * rng.random((k, disc.r_dim))
    block = ao.solve_forward(disc, x0, us, rs, grid)
    singles = [ao.solve_forward(disc, x0, u, r, grid) for u, r in zip(us, rs)]
    assert np.array_equal(block, np.stack(singles))
    lams = ao.solve_adjoint(disc, cost, block, grid)
    assert lams.shape == block.shape
    for lam, traj in zip(lams, singles):
        assert np.array_equal(lam, ao.solve_adjoint(disc, cost, traj, grid))
    # written over the trajectories, the multipliers come out the same
    over = ao.solve_adjoint(disc, cost, block, grid, overwrite_traj=True)
    assert np.array_equal(block, lams)
    assert over.shape == block.shape and over.base is block
    # K directions along one base trajectory: the block tangent and
    # transpose generators, against their one-column sweeps
    base, r = singles[0], rs[0]
    tangents = np.stack([ao.solve_linearized(disc, base, u, r, grid) for u in us])
    states = adjoint_grad._linearized_states(disc, base[None], us,
                                             disc.b_of_r(r)[:, None], grid)
    for i, x in enumerate(states, 1):
        assert np.array_equal(x, tangents[:, i].T)
    x_hats = rng.standard_normal((k,) + base.shape)
    lams = adjoint_grad._transpose_sweep(disc, disc.gram, x_hats, base[None], grid)
    alone = [adjoint_grad._transpose_sweep(disc, disc.gram, x_hat[None], base[None], grid)
             for x_hat in x_hats]
    for lam in lams:
        assert np.array_equal(lam, np.hstack([next(sweep) for sweep in alone]))


def test_duality_check_leaves_x_hat_unchanged(beam_small):
    _, disc, grid, _, x0 = beam_small
    rng = np.random.default_rng(5)
    r = np.array([0.5])
    base = ao.solve_forward(disc, x0, rng.standard_normal(grid.n_steps + 1), r, grid)
    u_tilde = rng.standard_normal(grid.n_steps + 1)
    x_hat = rng.standard_normal(base.shape)
    before = x_hat.copy()
    ao.duality_check(disc, base, r, u_tilde, x_hat, grid)
    assert np.array_equal(x_hat, before)


def test_tangent_and_duality_take_one_direction_along_one_base(beam_small):
    # a block of directions or of base trajectories is no call form of
    # solve_linearized or duality_check: it raises instead of running
    _, disc, grid, _, x0 = beam_small
    rng = np.random.default_rng(6)
    r = np.array([0.5])
    base = ao.solve_forward(disc, x0, rng.standard_normal(grid.n_steps + 1), r, grid)
    u_tilde = rng.standard_normal((2, grid.n_steps + 1))
    x_hat = rng.standard_normal((2,) + base.shape)
    with pytest.raises(ValueError):
        ao.solve_linearized(disc, base, u_tilde, r, grid)
    with pytest.raises(ValueError):
        ao.duality_check(disc, base, r, u_tilde, x_hat, grid)
    # two base trajectories: the error names the shape
    bases = np.stack([base, base])
    shape = re.escape(str(bases.shape))
    with pytest.raises(ValueError, match=shape):
        ao.solve_linearized(disc, bases, u_tilde[0], r, grid)
    with pytest.raises(ValueError, match=shape):
        ao.duality_check(disc, bases, r, u_tilde[0], x_hat[0], grid)


def test_oracle_takes_one_base_trajectory(beam_small):
    # a stack of base trajectories is refused with its shape, not unpacked
    _, disc, grid, cost, x0 = beam_small
    u = np.sin(2.0 * np.pi * grid.times / grid.t_final)
    base = ao.solve_forward(disc, x0, u, np.array([0.5]), grid)
    bases = np.stack([base, base])
    shape = re.escape(str(bases.shape))
    with pytest.raises(ValueError, match=shape):
        ao.continuous_adjoint_oracle(disc, cost, bases, grid)
    with pytest.raises(ValueError, match=shape):
        ao.adjoint_compare(disc, cost, bases, grid)


def _traced_peak(fn):
    """(fn(), tracemalloc peak of the call)."""
    import tracemalloc

    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def _duality_peak(maker, kw):
    """(tracemalloc peak of a duality_check at 400 steps, bytes of one
    trajectory)."""
    _, disc, grid, _, x0 = maker(n_steps=400, **kw)
    rng = np.random.default_rng(0)
    r = np.full(disc.r_dim, 0.5)
    base = ao.solve_forward(disc, x0, rng.standard_normal(grid.n_steps + 1), r, grid)
    u_tilde = rng.standard_normal(grid.n_steps + 1)
    x_hat = rng.standard_normal(base.shape)
    defect, peak = _traced_peak(
        lambda: ao.duality_check(disc, base, r, u_tilde, x_hat, grid))
    assert np.isfinite(defect)
    return peak, base.nbytes


@pytest.mark.parametrize("maker,kw", [(make_beam, {"n_cells": 64}), (make_wave, {})])
def test_duality_check_keeps_no_trajectory(maker, kw):
    # the tangent sweep pairs each step as it goes and each multiplier of
    # the transpose sweep is paired with b(r) as it comes, so a pair takes
    # less extra memory than one trajectory. The per-step (n_dof, 1) blocks
    # and the chunks of sources and F'(x) (about CHUNK_BYTES) are small
    # next to 400 steps
    peak, traj_bytes = _duality_peak(maker, kw)
    assert peak < traj_bytes


def test_gradcheck_keeps_one_trajectory_of_memory():
    # the finite-difference check writes its multipliers over the base
    # trajectory and sweeps its points in column blocks, so beyond the
    # caller's trajectory it takes less than one more
    _, disc, grid, cost, x0 = make_wave(nx=24, ny=24, n_steps=400)
    u = np.sin(2.0 * np.pi * grid.times / grid.t_final)
    r = np.array([0.45, 0.55])
    traj = ao.solve_forward(disc, x0, u, r, grid)
    traj_bytes = traj.nbytes
    _, peak = _traced_peak(lambda: ao.gradient_fd_check(
        disc, cost, traj, u, r, grid, n_directions=2))
    assert peak < traj_bytes


@pytest.mark.parametrize("maker", [make_beam, make_wave])
def test_chunked_temporaries_leave_cost_and_multipliers_unchanged(maker,
                                                                  monkeypatch):
    # cost_eval and the transpose sweep work through the trajectory in
    # chunks of rows; J and the multipliers must not depend on the chunk
    _, disc, grid, cost, x0 = maker()
    rng = np.random.default_rng(3)
    us = rng.standard_normal((3, grid.n_steps + 1))
    rs = 0.45 + 0.1 * rng.random((3, disc.r_dim))
    block = ao.solve_forward(disc, x0, us, rs, grid)
    results = []
    for chunk_bytes in (1, 7 * block[0, 0].nbytes, 2**40):
        monkeypatch.setattr(core_system, "CHUNK_BYTES", chunk_bytes)
        js = [ao.cost_eval(disc, cost, traj, u, grid) for traj, u in zip(block, us)]
        lams = list(ao.solve_adjoint(disc, cost, block, grid))
        lams.append(ao.solve_adjoint(disc, cost, block[0], grid))
        results.append((js, np.stack(lams).tobytes()))
    assert results[1:] == results[:1] * 2
