"""End-to-end acceptance gate: one test per shipped guarantee.

Each test computes its quantities from scratch, records a PASS/FAIL line
for the terminal summary, and asserts. Instance sizes are chosen so the
whole file stays well under the five-minute budget on one core.
"""
import time

import numpy as np
from conftest import gradients_at, record_acceptance

import actuopt as ao
from actuopt.adjoint_grad import (
    adjoint_compare,
    duality_check,
    gradient_fd_check,
)
from actuopt.config import build_problem, parse_config_text
from actuopt.core_system import (
    TimeGrid,
    energy_norm,
    energy_series,
    picard_mild_solve,
    solve_forward,
)
from actuopt.optimizer import (
    OptimizerConfig,
    ProjectionSpec,
    grid_search_r,
    optimize,
    project_r,
    project_u,
)

GRID_CONFIG = OptimizerConfig(max_iters=80, tol_grad=1e-4)


def _beam_bundle(n_cells=16, t_final=0.4, n_steps=40, amp=1.0, **kw):
    params = ao.BeamParams(n_cells=n_cells, **kw)
    disc = ao.assemble_beam(params)
    grid = TimeGrid(t_final, n_steps)
    m = disc.n_space
    x0 = np.zeros(disc.n_dof)
    x0[:m] = amp * np.sin(np.pi * params.nodes / params.length)
    cost = ao.CostSpec(q1=np.ones(m), q2=np.ones(m))
    return params, disc, grid, cost, x0


def _wave_bundle(nx=12, t_final=0.4, n_steps=40, **kw):
    params = ao.WaveParams(nx=nx, ny=nx, **kw)
    disc = ao.assemble_wave(params)
    grid = TimeGrid(t_final, n_steps)
    m = disc.n_space
    idx = disc.free_idx
    x0 = np.zeros(disc.n_dof)
    x0[:m] = (np.sin(np.pi * disc.xcoord[idx] / params.lx)
              * np.sin(np.pi * disc.ycoord[idx] / params.ly))
    nn = disc.n_nodes
    cost = ao.CostSpec(q1=np.ones(nn), q2=np.ones(nn))
    return params, disc, grid, cost, x0


def test_criterion_01_duality():
    # beam resolution stays gentle: the fourth-difference pairing loses
    # ~dx^-4 to roundoff, and the identity is being checked, not the grid
    rng = np.random.default_rng(2024)
    worst_beam = 0.0
    for i in range(20):
        damped = i % 2 == 0
        nonlinear = (i // 2) % 2 == 0
        params = ao.BeamParams(
            ei=float(rng.uniform(0.5, 1.5)),
            rho_a=float(rng.uniform(0.5, 1.5)),
            k=float(rng.uniform(0.0, 1.5)),
            alpha=float(rng.uniform(0.2, 1.5)) if nonlinear else 0.0,
            mu=float(rng.uniform(0.05, 0.3)) if damped else 0.0,
            c_d=float(rng.uniform(0.005, 0.02)) if damped else 0.0,
            n_cells=int(rng.integers(8, 10)),
        )
        disc = ao.assemble_beam(params)
        grid = TimeGrid(float(rng.uniform(0.3, 0.5)), int(rng.integers(30, 50)))
        m = disc.n_space
        x0 = np.zeros(disc.n_dof)
        x0[:m] = rng.uniform(0.5, 1.5) * np.sin(np.pi * params.nodes / params.length)
        u = rng.standard_normal(grid.n_steps + 1)
        r = np.array([float(rng.uniform(0.2, 0.8))])
        traj = solve_forward(disc, x0, u, r, grid)
        worst_beam = max(worst_beam, duality_check(
            disc, traj, r, rng.standard_normal(u.size),
            rng.standard_normal(traj.shape), grid))

    # the wave has no damping knob; its 20 instances sweep the
    # nonlinearity families and boundary-condition mixes instead
    worst_wave = 0.0
    for i in range(20):
        family = ("none", "sine_gordon", "klein_gordon")[i % 3]
        edges = ((), ("left",), ("left", "top"))[(i // 3) % 3]
        n = int(rng.integers(8, 13))
        params = ao.WaveParams(nx=n, ny=n, gamma1_edges=edges, nonlinearity=family)
        disc = ao.assemble_wave(params)
        grid = TimeGrid(float(rng.uniform(0.3, 0.5)), int(rng.integers(30, 50)))
        m = disc.n_space
        x0 = np.zeros(disc.n_dof)
        x0[:m] = 0.5 * rng.standard_normal(m)
        u = rng.standard_normal(grid.n_steps + 1)
        r = np.array([0.5, 0.5])
        traj = solve_forward(disc, x0, u, r, grid)
        worst_wave = max(worst_wave, duality_check(
            disc, traj, r, rng.standard_normal(u.size),
            rng.standard_normal(traj.shape), grid))

    ok = worst_beam <= 1e-10 and worst_wave <= 1e-10
    assert record_acceptance(
        1, f"duality defect (beam {worst_beam:.1e}, wave {worst_wave:.1e})", ok
    ), (worst_beam, worst_wave)


def test_criterion_02_gradient_exactness():
    t0 = time.perf_counter()
    params, disc, grid, cost, x0 = _beam_bundle(n_cells=32)
    disc = ao.assemble_beam(params, act_width=0.2)
    u = 0.3 * np.sin(2.0 * np.pi * grid.times / grid.t_final)
    r = np.array([0.43])
    beam = gradient_fd_check(disc, cost, solve_forward(disc, x0, u, r, grid),
                             u, r, grid, n_directions=10, seed=7)

    wparams, wdisc, wgrid, wcost, wx0 = _wave_bundle()
    wdisc = ao.assemble_wave(wparams, act_width=0.25)
    uw = 0.5 * np.cos(wgrid.times)
    rw = np.array([0.45, 0.55])
    wave = gradient_fd_check(wdisc, wcost, solve_forward(wdisc, wx0, uw, rw, wgrid),
                             uw, rw, wgrid, n_directions=10, seed=8)
    wall = time.perf_counter() - t0

    worst = max(beam["fd_u_rel"], beam["fd_r_rel"],
                wave["fd_u_rel"], wave["fd_r_rel"])
    ok = worst <= 1e-5 and wall < 60.0
    assert record_acceptance(
        2, f"gradients vs FD (worst {worst:.1e}, {wall:.1f}s)", ok
    ), (beam, wave, wall)


def test_criterion_03_mild_solution_consistency():
    params, disc, grid, cost, x0 = _beam_bundle(n_cells=12, n_steps=30)
    u = 0.4 * np.sin(3.0 * grid.times)
    imex = solve_forward(disc, x0, u, [0.4], grid)
    y, info = picard_mild_solve(disc, x0, u, [0.4], grid)
    rel = np.max(np.abs(y - imex)) / np.max(np.abs(imex))
    d = info["distances"]
    ratios = [d[i + 1] / d[i] for i in range(len(d) - 1)
              if d[i] > 0.0 and d[i + 1] > 1e-14]
    ok = info["converged"] and rel <= 5e-3 and ratios and all(q < 1.0 for q in ratios)
    assert record_acceptance(
        3, f"Picard vs IMEX (rel {rel:.1e}, max ratio {max(ratios):.1e})", ok
    ), (rel, ratios)


def _self_convergence_slope(disc, x0, r, t_final, n_list):
    u_fn = lambda t: 0.4 * np.sin(3.0 * t)
    sols = {n: solve_forward(disc, x0, u_fn(TimeGrid(t_final, n).times), r,
                             TimeGrid(t_final, n)) for n in n_list}
    errs = []
    for a, b in zip(n_list[:-1], n_list[1:]):
        diff = sols[b][:: b // a] - sols[a]
        errs.append(max(energy_norm(disc, row) for row in diff))
    dts = [t_final / n for n in n_list[:-1]]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    return slope, errs


def test_criterion_04_time_convergence_order():
    n_list = [25, 50, 100, 200]
    params, disc, _, _, x0 = _beam_bundle(n_cells=16, alpha=0.0)
    s_beam_lin, _ = _self_convergence_slope(disc, x0, [0.4], 0.5, n_list)
    params, disc, _, _, x0 = _beam_bundle(n_cells=16, alpha=1.0)
    s_beam_non, _ = _self_convergence_slope(disc, x0, [0.4], 0.5, n_list)
    wparams, wdisc, _, _, wx0 = _wave_bundle(nonlinearity="none")
    s_wave_lin, _ = _self_convergence_slope(wdisc, wx0, [0.5, 0.5], 0.5, n_list)
    wparams, wdisc, _, _, wx0 = _wave_bundle(nonlinearity="sine_gordon")
    s_wave_non, _ = _self_convergence_slope(wdisc, wx0, [0.5, 0.5], 0.5, n_list)

    ok = (abs(s_beam_lin - 2.0) <= 0.2 and abs(s_wave_lin - 2.0) <= 0.2
          and s_beam_non >= 1.8 and s_wave_non >= 1.8)
    assert record_acceptance(
        4, "dt order (lin %.2f/%.2f, semi %.2f/%.2f)"
           % (s_beam_lin, s_wave_lin, s_beam_non, s_wave_non), ok
    ), (s_beam_lin, s_wave_lin, s_beam_non, s_wave_non)


def _modal_error(n_cells, n_steps, t_final=0.25):
    params, disc, _, _, _ = _beam_bundle(n_cells=n_cells, alpha=0.0, mu=0.0,
                                         c_d=0.0)
    grid = TimeGrid(t_final, n_steps)
    m = disc.n_space
    mode = np.sin(np.pi * params.nodes / params.length)
    x0 = np.zeros(disc.n_dof)
    x0[:m] = mode
    traj = solve_forward(disc, x0, np.zeros(grid.n_steps + 1), [0.5], grid)
    omega = np.sqrt((params.ei * np.pi**4 + params.k) / params.rho_a)
    exact = np.cos(omega * grid.times)[:, None] * mode[None, :]
    return np.max(np.abs(traj[:, :m] - exact))


def test_criterion_05_modal_oracle():
    # horizon 0.25: long enough for ~0.4 fundamental periods, short enough
    # that the O(h^2) spatial frequency defect stays inside the tolerance
    e1 = _modal_error(64, 800)
    e2 = _modal_error(128, 1600)
    ok = e1 <= 1e-3 and e2 < e1
    assert record_acceptance(
        5, f"modal solution (err {e1:.1e}, refined {e2:.1e})", ok
    ), (e1, e2)


def test_criterion_06_energy_conservation():
    grid = TimeGrid(2.0, 400)
    params, disc, _, _, x0 = _beam_bundle(n_cells=32, alpha=0.0, mu=0.0,
                                          c_d=0.0)
    traj = solve_forward(disc, x0, np.zeros(401), [0.5], grid)
    e = energy_series(disc, traj)
    drift_beam = np.max(np.abs(e - e[0])) / e[0]

    wparams, wdisc, _, _, wx0 = _wave_bundle(nx=16, nonlinearity="none")
    trajw = solve_forward(wdisc, wx0, np.zeros(401), [0.5, 0.5], grid)
    ew = energy_series(wdisc, trajw)
    drift_wave = np.max(np.abs(ew - ew[0])) / ew[0]

    ok = drift_beam <= 1e-6 and drift_wave <= 1e-6
    assert record_acceptance(
        6, f"energy drift (beam {drift_beam:.1e}, wave {drift_wave:.1e})", ok
    ), (drift_beam, drift_wave)


def test_criterion_07_greens_function():
    worst_mid = 0.0
    for length in (1.0, 1.7):
        params = ao.BeamParams(ei=1.0, k=0.0, length=length)
        got = ao.greens_eval(params, length / 2.0, length / 2.0)
        worst_mid = max(worst_mid, abs(got - length**3 / 48.0))

    params = ao.BeamParams(ei=1.0, k=0.0)
    xs = np.linspace(0.03, 0.97, 20)
    gmat = ao.greens_eval(params, xs[:, None], xs[None, :])
    sym = np.max(np.abs(gmat - gmat.T))

    def gap(n_cells):
        p = ao.BeamParams(ei=1.0, k=0.0, n_cells=n_cells)
        f = np.sin(np.pi * p.nodes) + p.nodes * (1.0 - p.nodes)
        return np.max(np.abs(ao.greens_apply(p, f) - ao.stiffness_solve(p, f)))

    e1, e2 = gap(32), gap(64)
    ok = worst_mid <= 1e-12 and sym <= 1e-12 and e2 <= 0.35 * e1
    assert record_acceptance(
        7, f"Green's function (mid {worst_mid:.1e}, sym {sym:.1e}, "
           f"h-ratio {e2 / e1:.2f})", ok
    ), (worst_mid, sym, e1, e2)


def test_criterion_08_continuous_adjoint_oracle():
    grid = TimeGrid(2.0, 400)
    u = np.sin(2.0 * np.pi * grid.times / grid.t_final)

    params, disc, _, cost, x0 = _beam_bundle(n_cells=64)
    traj = solve_forward(disc, x0, u, [0.5], grid)
    rel_beam = adjoint_compare(disc, cost, traj, grid)

    wparams, wdisc, _, wcost, wx0 = _wave_bundle(nx=24)
    trajw = solve_forward(wdisc, wx0, u, [0.5, 0.5], grid)
    rel_wave = adjoint_compare(wdisc, wcost, trajw, grid)

    ok = rel_beam <= 1e-2 and rel_wave <= 1e-2
    assert record_acceptance(
        8, f"adjoint oracles (beam {rel_beam:.1e}, wave {rel_wave:.1e})", ok
    ), (rel_beam, rel_wave)


def test_criterion_09_optimality_system():
    t0 = time.perf_counter()
    prob = build_problem(parse_config_text("[run]\nmodel = beam\n"))
    disc, grid, cost = prob["disc"], prob["grid"], prob["cost"]
    spec = prob["pspec"]
    run = optimize(disc, cost, prob["x0"], prob["u0"], prob["r_init"], spec,
                   OptimizerConfig(), grid)

    grad_u, grad_r = gradients_at(disc, cost, prob["x0"], run.u, run.r, grid)
    # || u + R^{-1} B*(r) p ||, as grad_u = 2 (R u + B* p)
    res_u = np.sqrt(grid.theta @ (grad_u / (2.0 * cost.r_weight)) ** 2)
    u_norm = np.sqrt(grid.theta @ run.u**2)
    js = [row["j"] for row in run.history]
    monotone = all(b <= a + 1e-14 for a, b in zip(js, js[1:]))

    best, table = grid_search_r(disc, cost, prob["x0"], spec, 64, grid,
                                config=GRID_CONFIG)
    cell = (spec.r_box[0, 1] - spec.r_box[0, 0]) / 63.0
    wall = time.perf_counter() - t0

    ok = (run.converged
          and res_u <= 1e-6 * max(1.0, u_norm)
          and np.max(np.abs(grad_r)) <= 1e-6
          and monotone
          and abs(run.r[0] - best[0]) <= cell + 1e-12
          and wall < 120.0)
    assert record_acceptance(
        9, f"default-instance optimality (res_u {res_u:.1e}, "
           f"|r-argmin| {abs(run.r[0] - best[0]):.4f}, {wall:.0f}s)", ok
    ), (run.status, res_u, grad_r, run.r, best, wall)


def test_criterion_10_symmetry_stationarity():
    params, disc, grid, cost, x0 = _beam_bundle(n_cells=64, t_final=2.0,
                                                n_steps=400)
    u = np.sin(2.0 * np.pi * grid.times / grid.t_final)
    g_beam = abs(gradients_at(disc, cost, x0, u, np.array([0.5]), grid)[1][0])

    wparams, wdisc, wgrid, wcost, wx0 = _wave_bundle(nx=16, t_final=0.5,
                                                     n_steps=50)
    uw = np.sin(2.0 * np.pi * wgrid.times / wgrid.t_final)
    g_wave = np.max(np.abs(
        gradients_at(wdisc, wcost, wx0, uw, np.array([0.5, 0.5]), wgrid)[1]))

    ok = g_beam <= 1e-8 and g_wave <= 1e-8
    assert record_acceptance(
        10, f"symmetric stationarity (beam {g_beam:.1e}, wave {g_wave:.1e})",
        ok
    ), (g_beam, g_wave)


def test_criterion_11_feasibility_and_projections():
    # tight ball and box so both constraints actually bite
    params, disc, grid, cost, x0 = _beam_bundle(n_cells=16, amp=2.0)
    spec = ProjectionSpec(r_ad=0.3, r_box=np.array([[0.38, 0.62]]))
    run = optimize(disc, cost, x0, np.zeros(grid.n_steps + 1),
                   np.array([0.6]), spec, GRID_CONFIG, grid)
    norms = [row["u_norm"] for row in run.history]
    rs = [row["r1"] for row in run.history]
    feasible = (all(n <= spec.r_ad + 1e-12 for n in norms)
                and all(spec.r_box[0, 0] <= v <= spec.r_box[0, 1] for v in rs))
    saturated = max(norms) >= spec.r_ad * (1.0 - 1e-9)

    idem = True
    rng = np.random.default_rng(42)
    for scale in (1.0 + 1e-15, 1.0000001, 3.7, 1e8):
        u = rng.standard_normal(grid.n_steps + 1)
        u *= scale * spec.r_ad / np.sqrt(grid.theta @ u**2)
        once = project_u(u, spec, grid)
        idem = idem and np.array_equal(project_u(once, spec, grid), once)
        rr = rng.uniform(-2.0, 2.0, 1)
        once_r = project_r(rr, spec)
        idem = idem and np.array_equal(project_r(once_r, spec), once_r)

    ok = run.converged and feasible and saturated and idem
    assert record_acceptance(
        11, f"feasible iterates (max u-norm {max(norms):.6f} vs "
            f"R_ad {spec.r_ad}), exact projections", ok
    ), (run.status, max(norms), idem)
