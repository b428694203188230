import os
import pickle

import numpy as np
import pytest
from conftest import gradients_at, make_beam, make_wave

import actuopt as ao
import actuopt.beam_model as beam_mod
import actuopt.optimizer as optimizer_mod
from actuopt.optimizer import OptimizerConfig, ProjectionSpec

LOOSE = OptimizerConfig(max_iters=60, tol_grad=1e-4)


def _spec_1d(lo=0.1, hi=0.9, r_ad=10.0):
    return ProjectionSpec(r_ad=r_ad, r_box=np.array([[lo, hi]]))


def test_projection_spec_validation():
    with pytest.raises(ValueError):
        ProjectionSpec(r_ad=-1.0, r_box=np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError):
        ProjectionSpec(r_ad=1.0, r_box=np.array([[0.7, 0.3]]))


def test_project_u_inside_ball_is_identity():
    grid = ao.TimeGrid(1.0, 16)
    spec = _spec_1d(r_ad=5.0)
    u = np.sin(grid.times)
    out = ao.project_u(u, spec, grid)
    assert np.array_equal(out, u)


def test_project_u_scales_onto_ball():
    grid = ao.TimeGrid(1.0, 16)
    spec = _spec_1d(r_ad=1.0)
    u = 4.0 * np.cos(grid.times)
    out = ao.project_u(u, spec, grid)
    norm = np.sqrt(grid.theta @ out**2)
    assert norm <= spec.r_ad
    assert norm > spec.r_ad * (1.0 - 1e-12)
    # direction preserved
    assert np.max(np.abs(out / np.max(np.abs(out)) - u / np.max(np.abs(u)))) < 1e-12


@pytest.mark.parametrize("scale", [1.0 + 1e-15, 1.0000001, 3.7, 1e8])
def test_project_u_exactly_idempotent(scale):
    grid = ao.TimeGrid(2.0, 33)
    spec = _spec_1d(r_ad=2.0)
    rng = np.random.default_rng(int(scale) + 7)
    u = rng.standard_normal(grid.n_steps + 1)
    u *= scale * spec.r_ad / np.sqrt(grid.theta @ u**2)
    once = ao.project_u(u, spec, grid)
    twice = ao.project_u(once, spec, grid)
    assert np.array_equal(once, twice)


def test_project_r_clamps_and_is_idempotent():
    spec = ProjectionSpec(r_ad=1.0, r_box=np.array([[0.2, 0.8], [0.4, 0.6]]))
    r = np.array([0.05, 0.95])
    once = ao.project_r(r, spec)
    np.testing.assert_array_equal(once, [0.2, 0.6])
    assert np.array_equal(ao.project_r(once, spec), once)
    inside = np.array([0.5, 0.5])
    assert np.array_equal(ao.project_r(inside, spec), inside)


def test_optimize_zero_problem_converges_immediately(beam_small):
    params, disc, grid, cost, _ = beam_small
    x0 = np.zeros(disc.n_dof)
    u0 = np.zeros(grid.n_steps + 1)
    run = ao.optimize(disc, cost, x0, u0, np.array([0.5]), _spec_1d(), LOOSE, grid)
    assert run.converged
    assert run.status == "converged"
    assert run.j_final == 0.0
    assert len(run.history) == 1
    assert np.all(run.u == 0.0)


def test_optimize_descends_monotone_and_feasible():
    params, disc, grid, cost, x0 = make_beam(n_cells=16)
    spec = _spec_1d()
    u0 = np.zeros(grid.n_steps + 1)
    run = ao.optimize(disc, cost, x0, u0, np.array([0.42]), spec, LOOSE, grid)
    assert run.converged
    js = [row["j"] for row in run.history]
    assert all(b <= a + 1e-14 for a, b in zip(js, js[1:]))
    assert js[-1] < js[0]  # the control actually does something
    for row in run.history:
        assert row["u_norm"] <= spec.r_ad + 1e-12
        assert spec.r_box[0, 0] <= row["r1"] <= spec.r_box[0, 1]
    # converged point satisfies the stationarity system to tolerance
    grad_u, grad_r = gradients_at(disc, cost, x0, run.u, run.r, grid)
    pg_u, pg_r = optimizer_mod._pg_residuals(run.u, run.r, grad_u, grad_r, spec,
                                             grid)
    u_norm = np.sqrt(grid.theta @ run.u**2)
    assert pg_u <= LOOSE.tol_grad * max(1.0, u_norm)
    assert pg_r <= LOOSE.tol_grad


def test_adjoint_sweeps_run_only_at_accepted_points(monkeypatch):
    params, disc, grid, cost, x0 = make_beam(n_cells=16)
    calls = {"solve_adjoint": 0, "gram_solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(optimizer_mod, "solve_adjoint",
                        counted("solve_adjoint", optimizer_mod.solve_adjoint))
    monkeypatch.setattr(disc, "gram_solve", counted("gram_solve", disc.gram_solve))
    u0 = np.zeros(grid.n_steps + 1)
    run = ao.optimize(disc, cost, x0, u0, np.array([0.42]), _spec_1d(), LOOSE, grid)
    assert run.converged
    assert sum(row["backtracks"] for row in run.history) > 0
    assert calls["solve_adjoint"] == run.n_iters + 1
    assert calls["gram_solve"] == 0


def test_optimize_freeze_r_keeps_design_fixed():
    params, disc, grid, cost, x0 = make_beam(n_cells=16)
    r0 = np.array([0.37])
    run = ao.optimize(disc, cost, x0, np.zeros(grid.n_steps + 1), r0,
                      _spec_1d(), LOOSE, grid, freeze_r=True)
    assert run.converged
    assert np.array_equal(run.r, r0)


def test_optimize_initial_blowup_propagates():
    # stiff cubic + coarse dt: the very first forward solve explodes, and
    # optimize has no earlier iterate to retreat to
    params, disc, grid, cost, x0 = make_beam(alpha=80.0, t_final=2.0, n_steps=50)
    u0 = np.zeros(grid.n_steps + 1)
    with pytest.raises(ao.BlowUpError):
        ao.optimize(disc, cost, 2.5 * x0, u0, np.array([0.5]), _spec_1d(),
                    LOOSE, grid)


def _descent_answering_trials(offset):
    """Drive _descent from u = 0, r = 0.42 with its first J0 and multipliers
    from real sweeps and every trial point answered with J0 + offset;
    returns the run and the number of trials."""
    params, disc, grid, cost, x0 = make_beam(n_cells=12, n_steps=20)
    descent = optimizer_mod._descent(disc, cost, _spec_1d(), LOOSE, grid,
                                     np.zeros(grid.n_steps + 1),
                                     np.array([0.42]), False)
    u, r = next(descent)
    traj = ao.solve_forward(disc, x0, u, r, grid)
    j0 = ao.cost_eval(disc, cost, traj, u, grid)
    assert descent.send(j0) is None  # it asks for the multipliers
    ask = descent.send(ao.solve_adjoint(disc, cost, traj, grid))
    trials = 0
    try:
        while True:
            assert ask is not None  # no trial is accepted
            trials += 1
            ask = descent.send(j0 + offset)
    except StopIteration as stop:
        return stop.value, trials


@pytest.mark.parametrize("offset, status", [
    (np.nan, "blow_up"),
    (1.0, "line_search_failure"),
    # a flat J: the later trials' Armijo decreases are below half an ulp
    # of J0, where j0 - dec == j0, and still none of them passes
    (0.0, "line_search_failure"),
])
def test_every_rejected_trial_ends_the_run(offset, status):
    run, trials = _descent_answering_trials(offset)
    assert run.status == status
    assert not run.converged
    assert run.n_iters == 0
    assert len(run.history) == 1
    assert trials == optimizer_mod.MAX_BACKTRACKS + 1


def test_design_residual_within_ten_tolerances_is_not_converged(monkeypatch):
    # the r block is stationary only at pg_r <= tol_grad: a start whose u
    # block is stationary and whose pg_r is 5 tol_grad must not stop there
    params, disc, grid, cost, x0 = make_beam(n_cells=16)
    pg_residuals = optimizer_mod._pg_residuals
    calls = []

    def r_off_at_start(*args):
        calls.append(args)
        if len(calls) == 1:
            return 0.0, 5.0 * LOOSE.tol_grad
        return pg_residuals(*args)

    monkeypatch.setattr(optimizer_mod, "_pg_residuals", r_off_at_start)
    run = ao.optimize(disc, cost, x0, np.zeros(grid.n_steps + 1),
                      np.array([0.42]), _spec_1d(), LOOSE, grid)
    assert calls
    assert (run.n_iters, run.status) != (0, "converged")


def test_grid_search_rejects_coarse_grids(beam_small):
    params, disc, grid, cost, x0 = beam_small
    with pytest.raises(ValueError):
        ao.grid_search_r(disc, cost, x0, _spec_1d(), 4, grid)


def test_grid_search_landscape_and_consistency_with_optimize():
    params, disc, grid, cost, x0 = make_beam(n_cells=16)
    spec = _spec_1d(lo=0.2, hi=0.8)
    best, table = ao.grid_search_r(disc, cost, x0, spec, 8, grid, config=LOOSE)
    assert len(table) == 8
    rs = np.array([row[0] for row in table])
    js = np.array([row[1] for row in table])
    conv = [row[2] for row in table]
    np.testing.assert_allclose(rs, np.linspace(0.2, 0.8, 8), atol=1e-15)
    assert all(conv)
    # symmetric instance: landscape is mirror-symmetric about the midpoint
    scale = max(np.max(np.abs(js)), 1.0)
    assert np.max(np.abs(js - js[::-1])) < 1e-6 * scale
    # the first point in grid order within GRID_TIE of the minimum wins
    tie = js.min() + optimizer_mod.GRID_TIE * abs(js.min())
    assert best[0] == rs[np.flatnonzero(js <= tie)[0]]
    # joint optimizer started in the winning basin at least matches the oracle
    run = ao.optimize(disc, cost, x0, np.zeros(grid.n_steps + 1), best.copy(),
                      spec, LOOSE, grid)
    assert run.converged
    assert run.j_final <= js.min() + 1e-8 * scale


def _count_beam_assemblies(monkeypatch):
    calls = []
    assemble = beam_mod.assemble_beam

    def counted(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(beam_mod, "assemble_beam", counted)
    return calls


def test_serial_grid_search_solves_on_the_callers_problem(monkeypatch):
    params, disc, grid, cost, x0 = make_beam(n_cells=12, n_steps=20)
    assemblies = _count_beam_assemblies(monkeypatch)
    ao.grid_search_r(disc, cost, x0, _spec_1d(lo=0.3, hi=0.7), 8, grid,
                     config=LOOSE)
    assert assemblies == []
    assert list(disc._step_cache) == [grid.dt]


def test_grid_search_process_pool_matches_serial():
    params, disc, grid, cost, x0 = make_beam(n_cells=12, n_steps=20)
    spec = _spec_1d(lo=0.3, hi=0.7)
    b1, t1 = ao.grid_search_r(disc, cost, x0, spec, 8, grid, config=LOOSE, threads=1)
    b2, t2 = ao.grid_search_r(disc, cost, x0, spec, 8, grid, config=LOOSE, threads=2)
    np.testing.assert_array_equal(b1, b2)
    for row1, row2 in zip(t1, t2):
        assert row1 == row2


def test_grid_search_pool_size_is_bounded(monkeypatch):
    created = []
    tasks = []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor: records the size, and maps here
        task by task, sending fn through pickle once per task as the pool
        does."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            for chunk in chunks:
                tasks.append(chunk)
                yield pickle.loads(pickle.dumps(fn))(chunk)

    monkeypatch.setattr(optimizer_mod, "ProcessPoolExecutor", InProcessPool)
    params, disc, grid, cost, x0 = make_beam(n_cells=12, n_steps=20)
    spec = _spec_1d(lo=0.3, hi=0.7)
    _, serial = ao.grid_search_r(disc, cost, x0, spec, 8, grid, config=LOOSE)
    assert created == []
    assemblies = _count_beam_assemblies(monkeypatch)
    # (threads, CPU count, workers): the pool is min(threads, CPU count,
    # points) wide, and one worker is the serial sweep
    for threads, cpus, workers in [(10**6, 3, 3), (2, 16, 2), (10**6, 16, 8),
                                   (1, 16, 1)]:
        created.clear()
        tasks.clear()
        assemblies.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        _, pooled = ao.grid_search_r(disc, cost, x0, spec, 8, grid,
                                     config=LOOSE, threads=threads)
        assert created == ([workers] if workers > 1 else [])
        if workers > 1:
            # one task per worker, the interleaved share points[w::workers]
            # that worker w runs as its own queue, on the problem rebuilt
            # from its pickle
            rs = np.linspace(0.3, 0.7, 8)
            assert len(tasks) == workers
            for w, share in enumerate(tasks):
                np.testing.assert_array_equal(share[:, 0], rs[w::workers])
        assert len(assemblies) == len(tasks)
        assert pooled == serial


def test_grid_argmin_ignores_roundoff_between_mirror_points(monkeypatch):
    # a symmetric landscape whose mirror points 3 and 4 tie: lowering the
    # later one by roundoff must not move the argmin, a real gap must
    params, disc, grid, cost, x0 = make_beam(n_cells=12, n_steps=20)
    spec = _spec_1d(lo=0.3, hi=0.7)
    rs = np.linspace(0.3, 0.7, 8)
    js = 30.0 + (rs - 0.5) ** 2

    def fake_block(disc, cost, x0, spec, config, grid, r_points):
        return [(float(js[np.flatnonzero(rs == r[0])[0]]), True, None)
                for r in r_points]

    monkeypatch.setattr(optimizer_mod, "_solve_block", fake_block)
    bests = []
    for drop in (0.0, 1e-13, 1e-6):
        js[4] = js[3] - drop
        best, _ = ao.grid_search_r(disc, cost, x0, spec, 8, grid)
        bests.append(best[0])
    assert bests == [rs[3], rs[3], rs[4]]


def _same_run(a, b):
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.r, b.r)
    assert a.j_final == b.j_final
    assert (a.n_iters, a.status, a.converged) == (b.n_iters, b.status, b.converged)
    assert a.history == b.history


def _table_key(table):
    # tables compare with nan == nan
    return [tuple(repr(v) for v in row) for row in table]


# (fixture, x0 scale, R_ad, config): the last beam case drives the cubic hard
# enough that some trial points blow up while their neighbours' do not
LOCKSTEP_CASES = {
    "beam": (dict(n_cells=12, n_steps=20), 1.0, 10.0, LOOSE),
    "beam-blowups": (dict(n_cells=12, n_steps=20, alpha=80.0, t_final=1.0), 2.0,
                     100.0, OptimizerConfig(max_iters=20, tol_grad=1e-4)),
    "wave": (dict(nx=8, ny=8, n_steps=20), 1.0, 10.0,
             OptimizerConfig(max_iters=4, tol_grad=1e-4)),
}


def _lockstep_problem(case):
    kw, scale, r_ad, config = LOCKSTEP_CASES[case]
    maker = make_wave if case == "wave" else make_beam
    params, disc, grid, cost, x0 = maker(**kw)
    spec = ProjectionSpec(r_ad=r_ad, r_box=np.array([[0.1, 0.9]] * disc.r_dim))
    mesh = np.meshgrid(*[np.linspace(0.1, 0.9, 8)] * disc.r_dim, indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])
    return disc, grid, cost, scale * x0, spec, config, points


@pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
def test_lockstep_blocks_equal_single_design_solves(case, monkeypatch):
    disc, grid, cost, x0, spec, config, points = _lockstep_problem(case)
    u0 = np.zeros((len(points), grid.n_steps + 1))

    patterns = []
    solve_forward = optimizer_mod.solve_forward

    def recorded(*args, **kwargs):
        block = solve_forward(*args, **kwargs)
        patterns.append([ao.blowup_of(t, grid.dt) is not None for t in block])
        return block

    monkeypatch.setattr(optimizer_mod, "solve_forward", recorded)
    alone = [ao.optimize(disc, cost, x0, u0[0], pt, spec, config, grid,
                         freeze_r=True) for pt in points]
    searches = []
    for width in (1, 3, len(points)):
        monkeypatch.setattr(optimizer_mod, "_block_width", lambda d, g: width)
        patterns.clear()
        runs = optimizer_mod._lockstep(disc, cost, x0, u0, points, spec,
                                       config, grid, True)
        for run, ref in zip(runs, alone):
            _same_run(run, ref)
        best, table = ao.grid_search_r(disc, cost, x0, spec, 8, grid,
                                       config=config)
        searches.append((list(best), _table_key(table)))
        assert [row[-2] for row in table] == [run.j_final for run in runs]
    assert searches[1:] == searches[:1] * 2
    if case == "beam-blowups":
        # at the whole-grid width some sweep carried blown and sound columns
        assert any(any(p) and not all(p) for p in patterns)
        assert all(run.converged for run in alone)


def test_lockstep_blown_start_fails_only_its_own_column(monkeypatch):
    # the middle design starts from a control that blows the cubic up; its
    # neighbours start from rest and converge
    params, disc, grid, cost, x0 = make_beam(n_cells=12, n_steps=20,
                                             t_final=1.0, alpha=80.0)
    spec = _spec_1d(r_ad=1e9)
    points = np.array([[0.3], [0.5], [0.7]])
    u0 = np.zeros((3, grid.n_steps + 1))
    u0[1] = 1e3
    with pytest.raises(ao.BlowUpError) as alone:
        ao.solve_forward(disc, x0, u0[1], points[1], grid)
    refs = [ao.optimize(disc, cost, x0, u0[k], points[k], spec, LOOSE, grid,
                        freeze_r=True) for k in (0, 2)]
    assert all(ref.converged for ref in refs)
    # every width gives the runs of the designs solved alone
    for width in (1, 3):
        monkeypatch.setattr(optimizer_mod, "_block_width", lambda d, g: width)
        first, fault, last = optimizer_mod._lockstep(
            disc, cost, x0, u0, points, spec, LOOSE, grid, True)
        assert isinstance(fault, ao.BlowUpError)
        assert (fault.step, fault.time) == (alone.value.step, alone.value.time)
        assert np.array_equal(fault.partial, alone.value.partial)
        _same_run(first, refs[0])
        _same_run(last, refs[1])


def test_lockstep_queue_keeps_every_sweep_full(monkeypatch):
    # 8 designs at width 3: a stopped design's place is taken by the next
    # pending one, so each forward sweep carries min(3, designs not yet
    # stopped) columns and only the last few sweeps narrow
    disc, grid, cost, x0, spec, config, points = _lockstep_problem("beam")
    stopped = []
    widths = []
    descent = optimizer_mod._descent
    solve_forward = optimizer_mod.solve_forward

    def tracked(*args):
        try:
            return (yield from descent(*args))
        finally:
            stopped.append(args)

    def recorded(disc, x0, u, *args, **kwargs):
        widths.append((len(u), min(3, len(points) - len(stopped))))
        return solve_forward(disc, x0, u, *args, **kwargs)

    monkeypatch.setattr(optimizer_mod, "_descent", tracked)
    monkeypatch.setattr(optimizer_mod, "solve_forward", recorded)
    monkeypatch.setattr(optimizer_mod, "_block_width", lambda d, g: 3)
    ao.grid_search_r(disc, cost, x0, spec, 8, grid, config=config)
    assert len(stopped) == len(points)
    assert [width for width, _ in widths] == [full for _, full in widths]
