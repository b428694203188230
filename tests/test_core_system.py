import ast
import math
import os

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import actuopt as ao
import actuopt.core_system as core_system
from actuopt.core_system import STATE_CEILING, CNStep

from conftest import make_beam, make_wave, operator


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
    m = disc.n_space
    x = x0.copy()
    x_prev = None
    for i in range(grid.n_steps):
        u_mid = 0.5 * (u[i] + u[i + 1])
        f_ext = (disc.fnl(x) if x_prev is None
                 else 1.5 * disc.fnl(x) - 0.5 * disc.fnl(x_prev))
        src = (grid.dt * u_mid) * b_vec
        src[m:] += grid.dt * f_ext  # F = [0; f] has only velocity rows
        x_new = step.advance(x, src)
        np.testing.assert_array_equal(x_new, traj[i + 1])
        x_prev = x
        x = x_new


@pytest.mark.parametrize("maker", [make_beam, make_wave])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
@pytest.mark.parametrize("k", [None, 5])
def test_step_transposes_are_exact(maker, adjoint, k):
    # y . advance(x, 0) = advance_T(y, 0) . x in the state and
    # y . advance(0, s) = advance_T(0, y) . s in the source, per column of
    # an (n_dof, K) block as for one state, relative to the Cauchy-Schwarz
    # bound |y| |z| of both sides, z the advanced state (a single column's
    # dot product may cancel far below it)
    _, disc, grid, _, _ = maker()
    step = CNStep(disc, grid.dt, adjoint)
    rng = np.random.default_rng(0)
    shape = (disc.n_dof,) if k is None else (disc.n_dof, k)
    x = rng.standard_normal(shape)
    y = rng.standard_normal(shape)
    zero = np.zeros(shape)
    for fwd, bwd in ((lambda a: step.advance(a, zero), lambda a: step.advance_T(a, zero)),
                     (lambda a: step.advance(zero, a), lambda a: step.advance_T(zero, a))):
        z = fwd(x)
        gap = np.abs(np.sum(y * z, axis=0) - np.sum(bwd(y) * x, axis=0))
        scale = np.linalg.norm(y, axis=0) * np.linalg.norm(z, axis=0)
        assert np.all(gap <= 1e-13 * scale), gap / scale


@pytest.mark.parametrize("maker", [make_beam, make_wave])
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
@pytest.mark.parametrize("k", [None, 5])
def test_step_equals_full_size_crank_nicolson(maker, adjoint, k):
    # the m x m elimination gives the 2m x 2m step (I - h A)^{-1}((I + h A) x
    # + s), h = dt/2, and its transpose, up to roundoff
    _, disc, grid, _, _ = maker()
    mat = operator(disc, adjoint)
    step = CNStep(disc, grid.dt, adjoint)
    eye = sp.identity(disc.n_dof, format="csr")
    lu = spla.splu((eye - (0.5 * grid.dt) * mat).tocsc())
    m_plus = (eye + (0.5 * grid.dt) * mat).tocsr()
    rng = np.random.default_rng(1)
    shape = (disc.n_dof,) if k is None else (disc.n_dof, k)
    x, s = rng.standard_normal(shape), rng.standard_normal(shape)
    for got, want in ((step.advance(x, s), lu.solve(m_plus @ x + s)),
                      (step.advance_T(x, s), lu.solve(m_plus.T @ x + s, trans="T"))):
        assert got.shape == shape and got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
    lu_step, _ = step
    assert lu_step.shape == (disc.n_space, disc.n_space)


@pytest.mark.parametrize("bad", [np.nan, np.nextafter(STATE_CEILING, np.inf)],
                         ids=["non_finite", "beyond_ceiling"])
def test_start_state_is_held_to_the_state_ceiling(beam_small, bad):
    # x0 is rejected by the rule that makes a later state count as blown up;
    # a start state at the ceiling itself is admitted
    _, disc, grid, cost, x0 = beam_small
    u = np.zeros((1, grid.n_steps + 1))
    r = np.array([[0.5]])
    x0 = x0.copy()
    x0[3] = bad
    with pytest.raises(ValueError, match="x0 is non-finite or beyond STATE_CEILING"):
        ao.solve_forward(disc, x0, u[0], r[0], grid)
    with pytest.raises(ValueError, match="x0 is non-finite or beyond STATE_CEILING"):
        ao.forward_costs(disc, cost, x0, u, r, grid)
    x0[3] = -STATE_CEILING
    assert ao.forward_costs(disc, cost, x0, u, r, grid).shape == (1,)


def test_step_factors_cache_returns_one_object(beam_small):
    _, disc, grid, _, _ = beam_small
    step = disc.step_factors(grid.dt)
    assert disc.step_factors(grid.dt) is step


@pytest.mark.parametrize("maker", [make_beam, make_wave])
def test_nonlinearity_runs_once_per_step(maker, monkeypatch):
    # a sweep of N steps evaluates F once per step, and the tangent sweep
    # reads F'(x) once per chunk of steps
    _, disc, grid, cost, x0 = maker()
    calls = {"fnl": 0, "fnl_diag": 0}

    def counted(name):
        fn = getattr(disc, name)

        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    disc.fnl, disc.fnl_diag = counted("fnl"), counted("fnl_diag")
    u = 0.3 * np.sin(2.0 * grid.times)
    r = 0.5 * np.array(disc.domain(disc.params))
    traj = ao.solve_forward(disc, x0, u, r, grid)
    assert calls["fnl"] == grid.n_steps
    ao.forward_costs(disc, cost, x0, np.stack([u, -u]), np.stack([r, r]), grid)
    assert calls["fnl"] == 2 * grid.n_steps
    monkeypatch.setattr(core_system, "CHUNK_BYTES", 3 * 8 * disc.n_space)
    ao.solve_linearized(disc, traj, u, r, grid)
    assert calls == {"fnl": 2 * grid.n_steps, "fnl_diag": -(-grid.n_steps // 3)}


def test_step_internals_stay_in_the_step_class():
    # only CNStep knows how a step is applied or transposed, and only the
    # model's schur_factor how it is factorised: no other code names the
    # step's factor or coupling block or passes an LU trans= flag
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
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("lu", "coupling", "_coupling_t")
                    or isinstance(node, ast.Name) and node.id == "coupling"
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
    # one design of the wrong length or shape
    u = np.zeros(grid.n_steps + 1)
    for r in ([0.3, 0.7], [[0.3]]):
        with pytest.raises(ValueError):
            ao.solve_forward(disc, x0, u, r, grid)
    _, wdisc, wgrid, _, wx0 = make_wave()
    wu = np.zeros(wgrid.n_steps + 1)
    for r in ([0.5, 0.5, 0.9], [0.5]):
        with pytest.raises(ValueError):
            ao.solve_forward(wdisc, wx0, wu, r, wgrid)
    traj = ao.solve_forward(wdisc, wx0, wu, [0.5, 0.5], wgrid)
    with pytest.raises(ValueError):
        ao.duality_check(wdisc, traj, [0.5], wu, np.zeros_like(traj), wgrid)
    # one solve returns a fresh trajectory: it takes no out
    out = np.empty((1, grid.n_steps + 1, disc.n_dof))
    for given in (out[0], out):
        with pytest.raises(ValueError):
            ao.solve_forward(disc, x0, u, [0.3], grid, out=given)
    # K controls take K designs: one design is not shared by the block
    with pytest.raises(ValueError):
        ao.solve_forward(disc, x0, np.stack([u, u]), [[0.3]], grid)
    # a block writes into out when given, of the block's shape only
    traj = ao.solve_forward(disc, x0, u[None], [[0.3]], grid, out=out)
    assert np.shares_memory(traj, out)
    assert np.array_equal(out[0], ao.solve_forward(disc, x0, u, [0.3], grid))
    with pytest.raises(ValueError):
        ao.solve_forward(disc, x0, u[None], [[0.3]], grid, out=out[:, 1:])


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
    # every pairing sums in index order: the same J, bit for bit
    np.testing.assert_array_equal(got, want)


def test_forward_costs_blow_up_names_the_column():
    # only the middle column's constant push of 1000 blows up (at step 11):
    # its J is NaN, and the others are their own solves' J
    _, disc, grid, cost, x0 = make_beam(alpha=80.0, t_final=2.0, n_steps=50)
    us = np.zeros((3, grid.n_steps + 1))
    us[1] = 1000.0
    us[2] = 100.0 * np.sin(np.pi * grid.times)
    rs = np.full((3, 1), 0.4)
    with pytest.raises(ao.BlowUpError):
        ao.solve_forward(disc, x0, us[1], rs[1], grid)
    got = ao.forward_costs(disc, cost, x0, us, rs, grid)
    assert np.isnan(got[1])
    for k in (0, 2):
        assert got[k] == _serial_costs(disc, cost, x0, us[[k]], rs[[k]], grid)[0]
    # once every column has blown up the sweep ends, and every J is NaN
    assert np.all(np.isnan(ao.forward_costs(disc, cost, x0, us[[1, 1]], rs[[1, 1]],
                                            grid)))


@pytest.mark.parametrize("maker", [make_beam, make_wave])
def test_forward_costs_do_not_depend_on_the_block_width(maker, monkeypatch):
    # forward_costs sweeps its columns in blocks of the most columns whose
    # (n_dof, w) block stays under 2 * CHUNK_BYTES: one column per block at
    # CHUNK_BYTES = 1, blocks of 3, 3 and 1 here, the default width and one
    # block. Column 3 blows up at once, in the middle block of three; its J
    # stays NaN and every other column keeps its own solve's J
    _, disc, grid, cost, x0 = maker()
    rng = np.random.default_rng(11)
    us = rng.standard_normal((7, grid.n_steps + 1))
    us[3] = 1e16
    rs = 0.45 + 0.1 * rng.random((7, disc.r_dim))
    want = _serial_costs(disc, cost, x0, np.delete(us, 3, axis=0),
                         np.delete(rs, 3, axis=0), grid)
    results = []
    for chunk_bytes in (1, 3 * 8 * disc.n_dof // 2, core_system.CHUNK_BYTES, 2**40):
        monkeypatch.setattr(core_system, "CHUNK_BYTES", chunk_bytes)
        got = ao.forward_costs(disc, cost, x0, us, rs, grid)
        assert np.isnan(got[3])
        np.testing.assert_array_equal(np.delete(got, 3), want)
        results.append(got.tobytes())
    assert results[1:] == results[:1] * 3


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_state_blows_up_at_step_one(bad):
    # a nonlinearity that returns NaN or inf makes x_1 non-finite: a single
    # solve stops there with x0 as the last completed state, and a batched
    # cost gives NaN for every column
    _, disc, grid, cost, x0 = make_beam()
    disc.fnl = lambda x: np.full_like(x[:disc.n_space], bad)
    u = np.zeros(grid.n_steps + 1)
    with pytest.raises(ao.BlowUpError) as serial:
        ao.solve_forward(disc, x0, u, [0.4], grid)
    assert serial.value.step == 1
    np.testing.assert_array_equal(serial.value.partial, x0[None, :])
    batched = ao.forward_costs(disc, cost, x0, np.stack([u, u]), np.full((2, 1), 0.4),
                               grid)
    assert np.all(np.isnan(batched))


def test_block_solve_forward_leaves_blown_columns_to_themselves():
    # the middle column blows up at step 11 of 50; its rows turn NaN from
    # there and the other columns stay bit for bit their own solves
    _, disc, grid, cost, x0 = make_beam(alpha=80.0, t_final=2.0, n_steps=50)
    us = np.zeros((3, grid.n_steps + 1))
    us[1] = 1000.0
    us[2] = 100.0 * np.sin(np.pi * grid.times)
    rs = np.array([[0.3], [0.4], [0.6]])
    block = ao.solve_forward(disc, x0, us, rs, grid)
    assert block.shape == (3, grid.n_steps + 1, disc.n_dof)
    with pytest.raises(ao.BlowUpError) as serial:
        ao.solve_forward(disc, x0, us[1], rs[1], grid)
    err = ao.blowup_of(block[1], grid.dt)
    assert (err.step, err.time) == (serial.value.step, serial.value.time)
    np.testing.assert_array_equal(err.partial, serial.value.partial)
    assert np.all(np.isnan(block[1, err.step:]))
    for k in (0, 2):
        assert ao.blowup_of(block[k], grid.dt) is None
        assert np.array_equal(block[k], ao.solve_forward(disc, x0, us[k], rs[k], grid))
    # once every column has blown up the sweep ends; the later rows are NaN
    pair = ao.solve_forward(disc, x0, us[[1, 1]], rs[[1, 1]], grid)
    assert np.array_equal(pair[:, :err.step], block[[1, 1], :err.step])
    assert np.all(np.isnan(pair[:, err.step:]))


def test_forward_costs_validates_shapes(beam_small):
    _, disc, grid, cost, x0 = beam_small
    u = np.zeros((2, grid.n_steps + 1))
    with pytest.raises(ValueError):
        ao.forward_costs(disc, cost, x0, u, np.full((3, 1), 0.4), grid)
    with pytest.raises(ValueError):
        ao.forward_costs(disc, cost, x0, u[0], np.full((1, 1), 0.4), grid)
    with pytest.raises(ValueError):
        ao.forward_costs(disc, cost, x0, u[:, :-1], np.full((2, 1), 0.4), grid)
    # K controls take K designs: one design is not shared by the block
    with pytest.raises(ValueError):
        ao.forward_costs(disc, cost, x0, u, np.full((1, 1), 0.4), grid)


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
    # a 1 x 1 toy with coupling 4/dt^2 and no damping: S = 1 - (dt/2)^2 4/dt^2
    # and det(I - dt/2 A) are both exactly zero (dt a power of two)
    dt = 0.5
    blocks = (sp.csr_matrix([[4.0 / dt**2]]), sp.csr_matrix((1, 1)))
    toy = core_system.Discretization(None, 1.0, blocks, blocks, sp.identity(2))
    with pytest.raises(ao.StepSolverError, match="singular"):
        toy.step_factors(dt)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("maker", [make_beam, make_wave])
def test_step_solver_error_when_the_step_system_overflows(maker):
    # at dt = 1e300 / 4, h^2 overflows: S is formed without a warning and
    # reported as not finite, not as singular
    _, disc, _, _, _ = maker()
    with pytest.raises(ao.StepSolverError, match="not finite at dt = 2.5e[+]299"):
        disc.step_factors(1e300 / 4)
