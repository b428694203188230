"""Projected gradient descent over (u, r), stopped by its projected-gradient
residuals, and the actuator grid-search oracle.

The joint iteration takes simultaneous projected steps in the control u
(L^2 ball of radius R_ad, radial projection) and the design r (box clamp),
with per-block Barzilai-Borwein step sizes -- u and r live on very
different scales -- and Armijo backtracking on the true evaluated discrete
cost, which is what guarantees the recorded monotone-descent invariant.
A block whose projected residual is already below tolerance is frozen so
that machine-noise gradients (e.g. at a symmetry point) cannot push it
around. The problem is not convex in r: the optimizer reports local
stationarity, and grid_search_r, which solves every grid point on the
caller's problem, is the global reference at desk scale. Every solve runs
in one lockstep engine that batches the sweeps of many designs; optimize
is its one-design case.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .adjoint_grad import gradients_from_adjoint, solve_adjoint
from .core_system import BlowUpError, blowup_of, cost_eval, solve_forward

# Barzilai-Borwein step-size clamp and the line-search trial budget
BB_MIN = 1e-10
BB_MAX = 1e4
MAX_BACKTRACKS = 60
# Armijo sufficient-decrease constant. Near tol_grad the decrease dec can
# fall below half an ulp of J, where j - dec == j; the line search tests
# j_new - j <= -dec, so a trial with a flat J fails where j_new <= j - dec
# would accept it
ARMIJO_C = 1e-4
BACKTRACK = 0.5  # step-size factor per rejected trial
MIN_GRID = 8  # fewest grid_search_r points per design dimension
# relative J gap within which grid points tie; the first in grid order wins
GRID_TIE = 1e-9
# bytes the stored arrays of one lockstep block may take: each column holds
# one (n_steps+1, n_dof) float array, its trial trajectory, which the
# adjoint sweep overwrites with its multipliers
BLOCK_BYTES = 4 * 2**20


@dataclass
class ProjectionSpec:
    """Admissible sets: L^2(0,tau) ball radius for u, closed box for r."""

    r_ad: float
    r_box: np.ndarray  # shape (r_dim, 2) rows (lo, hi)

    def __post_init__(self):
        if not (self.r_ad > 0.0 and math.isfinite(self.r_ad)):
            raise ValueError(f"R_ad must be positive, got {self.r_ad}")
        box = np.atleast_2d(np.asarray(self.r_box, dtype=float))
        if box.ndim != 2 or box.shape[1] != 2:
            raise ValueError(f"r_box must have shape (r_dim, 2), got {box.shape}")
        if not np.all(box[:, 0] <= box[:, 1]):
            raise ValueError("r_box has empty components (lo > hi)")
        self.r_box = box


@dataclass
class OptimizerConfig:
    # the stopping rule; tol_grad is a projected-gradient tolerance
    max_iters: int = 500
    tol_grad: float = 2e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.tol_grad > 0.0):
            raise ValueError("tol_grad must be positive")


@dataclass
class OptimRun:
    u: np.ndarray
    r: np.ndarray
    j_final: float
    status: str
    history: list = field(default_factory=list)
    n_iters: int = 0

    @property
    def converged(self):
        return self.status == "converged"


def _bb_step(num, den, tried):
    """Clamped Barzilai-Borwein step num/den; without curvature (den <= 0)
    the step last tried grows fourfold."""
    if den > 0.0 and math.isfinite(den):
        return min(max(num / den, BB_MIN), BB_MAX)
    return min(4.0 * tried, BB_MAX)


def _u_norm(u, grid):
    return math.sqrt(float(grid.theta @ (np.asarray(u, dtype=float) ** 2)))


def project_u(u, spec, grid):
    """Radial projection onto the L^2(0,tau) ball of radius R_ad.

    Exactly idempotent: points inside pass through unchanged, and scaled
    points are nudged until they evaluate inside the ball in floating
    point, so a second projection is the identity.
    """
    u = np.array(u, dtype=float)
    norm = _u_norm(u, grid)
    if norm <= spec.r_ad:
        return u
    out = u * (spec.r_ad / norm)
    while _u_norm(out, grid) > spec.r_ad:
        out *= 1.0 - 2.0**-50
    return out


def project_r(r, spec):
    """Componentwise clamp onto the design box (exactly idempotent)."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    return np.clip(r, spec.r_box[:, 0], spec.r_box[:, 1])


def _pg_residuals(u, r, gu, gr, spec, grid):
    pu = project_u(u - gu, spec, grid)
    pg_u = _u_norm(u - pu, grid)
    pr = project_r(r - gr, spec)
    pg_r = float(np.linalg.norm(r - pr))
    return pg_u, pg_r


def _descent(disc, cost, spec, config, grid, u_init, r_init, freeze_r):
    """One projected-gradient run as a generator that yields its sweeps.

    Yielding (u, r) asks for J at (u, r), answered with J, which is NaN
    where the forward solve blew up; yielding None asks for the adjoint
    multipliers at the point last evaluated, which the generator reads
    before it yields again, so they may live in a reused block. A trial
    point is accepted only when its J passes the Armijo test, which NaN
    never does. Returns the run's OptimRun, or None when J at the start is
    NaN, as there is no earlier iterate to retreat to.
    """
    u = project_u(np.asarray(u_init, dtype=float), spec, grid)
    r = project_r(r_init, spec)

    j = yield u, r
    if math.isnan(j):
        return None
    lam = yield None
    gu, gr = gradients_from_adjoint(disc, cost, u, r, lam, grid)
    pg_u, pg_r = _pg_residuals(u, r, gu, gr, spec, grid)
    alpha_u = 1.0
    alpha_r = 1.0

    history = []

    def push(it, backtracks):
        row = {
            "iter": it,
            "j": j,
            "res_u": pg_u,
            "res_r": pg_r,
            "alpha_u": alpha_u,
            "alpha_r": alpha_r,
            "backtracks": backtracks,
            "u_norm": _u_norm(u, grid),
        }
        for c in range(r.size):
            row[f"r{c + 1}"] = float(r[c])
        history.append(row)

    def tol_u():
        return config.tol_grad * max(1.0, _u_norm(u, grid))

    def stationary():
        return pg_u <= tol_u() and (freeze_r or pg_r <= config.tol_grad)

    push(0, 0)
    # the status the run ends with unless it converges or its line search
    # fails
    status = "converged" if stationary() else "max_iters"
    it = 0
    while status == "max_iters" and it < config.max_iters:
        it += 1
        active_u = pg_u > tol_u()
        active_r = (not freeze_r) and pg_r > config.tol_grad
        au, ar = alpha_u, alpha_r
        saw_blowup = False
        for bt in range(MAX_BACKTRACKS + 1):
            u_new = project_u(u - au * gu, spec, grid) if active_u else u
            r_new = project_r(r - ar * gr, spec) if active_r else r
            dec = ARMIJO_C * (
                float(grid.theta @ (gu * (u - u_new))) + float(gr @ (r - r_new))
            )
            # dec <= 0: the projection returned the base point, so there is
            # no feasible descent at this step size and nothing to evaluate
            if dec > 0.0:
                j_new = yield u_new, r_new
                if j_new - j <= -dec:
                    break
                saw_blowup = saw_blowup or math.isnan(j_new)
            au *= BACKTRACK
            ar *= BACKTRACK
        else:
            status = "blow_up" if saw_blowup else "line_search_failure"
            it -= 1
            break
        lam = yield None
        gu_new, gr_new = gradients_from_adjoint(disc, cost, u_new, r_new, lam, grid)

        # Barzilai-Borwein step proposals for the next iteration (per block)
        if active_u:
            s_u = u_new - u
            alpha_u = _bb_step(float(grid.theta @ (s_u * s_u)),
                               float(grid.theta @ (s_u * (gu_new - gu))), au)
        if active_r:
            s_r = r_new - r
            alpha_r = _bb_step(float(s_r @ s_r), float(s_r @ (gr_new - gr)), ar)

        u, r, j, gu, gr = u_new, r_new, j_new, gu_new, gr_new
        pg_u, pg_r = _pg_residuals(u, r, gu, gr, spec, grid)
        push(it, bt)
        if stationary():
            status = "converged"

    return OptimRun(
        u=u,
        r=r,
        j_final=j,
        status=status,
        history=history,
        n_iters=it,
    )


def _lockstep(disc, cost, x0, u_init, r_init, spec, config, grid, freeze_r):
    """Run one _descent per start (u_init[k], r_init[k]) from a refill queue.

    At most _block_width designs run at once, and when one stops the next
    pending design joins the following round. Each round answers every
    running column's cost request from one forward sweep of an (n_dof, K)
    block, then every column that accepted a trial point from one
    transpose sweep that writes the multipliers over their trajectories.
    Every cost request is answered with the column's J, NaN where its
    solve blew up, which fails only that column's trial: the columns share
    no arithmetic, so each run is bit for bit the one it makes alone,
    whenever it joins and whoever runs beside it. Returns each design's
    OptimRun, or the BlowUpError of a start that blew up.
    """
    n_designs = len(u_init)
    width = min(_block_width(disc, grid), n_designs)
    columns = [None] * n_designs
    asks = {}  # column -> its request: (u, r), or None for its multipliers
    runs = [None] * n_designs
    pending = iter(range(n_designs))
    # the one array a column stores, allocated once: its trial trajectory,
    # which the adjoint sweep overwrites with its multipliers
    trials = np.empty((width, grid.n_steps + 1, disc.n_dof))

    def reply(k, answer):
        try:
            asks[k] = columns[k].send(answer)
        except StopIteration as stop:
            runs[k] = stop.value
            del asks[k]

    def refill():
        for k in itertools.islice(pending, width - len(asks)):
            columns[k] = _descent(disc, cost, spec, config, grid, u_init[k],
                                  r_init[k], freeze_r)
            reply(k, None)

    def sweep_round():
        cols = list(asks)  # each asks for a cost
        block = solve_forward(disc, x0, np.stack([asks[k][0] for k in cols]),
                              np.stack([asks[k][1] for k in cols]), grid,
                              out=trials[:len(cols)])
        for k, traj in zip(cols, block):
            reply(k, cost_eval(disc, cost, traj, asks[k][0], grid))
            if k not in asks and runs[k] is None:  # its start blew up
                runs[k] = blowup_of(traj, grid.dt)
        reached = [i for i, k in enumerate(cols) if k in asks and asks[k] is None]
        if not reached:
            return
        # their trajectories move to the front of the block, where the
        # adjoint sweep overwrites them with the multipliers
        for front, i in enumerate(reached):
            if front != i:
                block[front] = block[i]
        lams = solve_adjoint(disc, cost, block[:len(reached)], grid,
                             overwrite_traj=True)
        # each column turns its multipliers into a gradient before it
        # yields again, so the next round may reuse the block
        for i, lam in zip(reached, lams):
            reply(cols[i], lam)

    refill()
    while asks:
        sweep_round()
        refill()
    return runs


def optimize(disc, cost, x0, u_init, r_init, spec, config, grid, freeze_r=False):
    """Joint projected-gradient minimization of J over (u, r).

    Terminates when both blocks' projected residuals fall below tol_grad
    (u scaled by max(1, ||u||)) or max_iters is reached. freeze_r solves
    the u-subproblem at fixed design, as grid_search_r does at every grid
    point. Returns an OptimRun with the full per-iteration history;
    persistent line-search blow-up marks the run failed instead of
    raising, and a blow-up of the first forward solve raises BlowUpError.
    Trial points cost a forward sweep and J; the adjoint sweep runs only
    at accepted points. This is the one-design case of the lockstep
    queue that grid_search_r runs over its grid points.
    """
    run, = _lockstep(disc, cost, x0, [u_init], [r_init], spec, config, grid,
                     freeze_r)
    if isinstance(run, BlowUpError):
        raise run
    return run


def _solve_block(disc, cost, x0, spec, config, grid, r_points):
    """(J, converged, error message) of the u-subproblem from u = 0 at each
    design of r_points, solved in one lockstep queue."""
    u0 = np.zeros((len(r_points), grid.n_steps + 1))
    runs = _lockstep(disc, cost, x0, u0, r_points, spec, config, grid,
                     freeze_r=True)
    return [(math.nan, False, str(run)) if isinstance(run, BlowUpError)
            else (run.j_final, run.converged, None) for run in runs]


def _block_width(disc, grid):
    """Designs a lockstep queue runs at once: as many columns as BLOCK_BYTES
    holds."""
    column = 8 * (grid.n_steps + 1) * disc.n_dof
    return max(1, BLOCK_BYTES // column)


def grid_search_r(disc, cost, x0, spec, n_grid, grid, config=None, threads=1):
    """Dense design-space sweep: solve the u-subproblem on a uniform grid.

    n_grid points per design dimension over r_box (lexicographic order).
    The u-solves run as one lockstep queue: at most _block_width points at
    once, every sweep of the running points as the columns of one block
    sweep, and a stopped point's place taken by the next in grid order.
    Each point's result is bit for bit the one optimize(freeze_r=True)
    reaches alone. A serial sweep is one queue on the caller's problem:
    it assembles nothing and factorises the step once. A pool of
    min(threads, CPU count, points) workers, when that exceeds one, gives
    worker w the interleaved share points[w::workers] to run as its own
    queue, on the discretization rebuilt from its pickled recipe. The
    table is in grid order either way.
    Points whose forward solve blows up carry J = nan and converged =
    False; they and the unconverged points are excluded from the argmin.
    Of the rest, the first in grid order whose J lies within GRID_TIE *
    |J_min| of the minimum J_min wins, so the roundoff between mirror
    points of a symmetric landscape cannot move it. When no point is left,
    the RuntimeError names the first point's failure. A step system that
    cannot be formed or factorised fails every point alike: its
    StepSolverError propagates, from a worker too.

    Returns (r_star, table): table rows are (r components..., J, converged).
    """
    if n_grid < MIN_GRID:
        raise ValueError(f"n_grid must be >= {MIN_GRID}, got {n_grid}")
    if config is None:
        config = OptimizerConfig()
    if spec.r_box.shape[0] != disc.r_dim:
        raise ValueError(f"r_box has {spec.r_box.shape[0]} components but the "
                         f"design space has {disc.r_dim}")
    axes = [np.linspace(lo, hi, n_grid) for lo, hi in spec.r_box]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])

    solve = functools.partial(_solve_block, disc, cost, x0, spec, config, grid)
    workers = min(threads, os.cpu_count() or 1, len(points))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shares = list(pool.map(solve, [points[w::workers] for w in range(workers)]))
        results = [shares[i % workers][i // workers] for i in range(len(points))]
    else:
        results = solve(points)

    table = [tuple(pt) + (j_val, ok) for pt, (j_val, ok, _) in zip(points, results)]
    valid = [i for i, (j_val, ok, _) in enumerate(results)
             if ok and math.isfinite(j_val)]
    if not valid:
        cause = results[0][2] or "its control solve did not converge"
        raise RuntimeError(
            f"grid search failed at every design point; the first: {cause}"
        )
    j_min = min(results[i][0] for i in valid)
    best = next(i for i in valid if results[i][0] <= j_min + GRID_TIE * abs(j_min))
    return points[best].copy(), table
