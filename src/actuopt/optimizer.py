"""Projected gradient descent over (u, r) and the actuator grid-search oracle.

The joint iteration takes simultaneous projected steps in the control u
(L^2 ball of radius R_ad, radial projection) and the design r (box clamp),
with per-block Barzilai-Borwein step sizes -- u and r live on very
different scales -- and Armijo backtracking on the true evaluated discrete
cost, which is what guarantees the recorded monotone-descent invariant.
A block whose projected residual is already below tolerance is frozen so
that machine-noise gradients (e.g. at a symmetry point) cannot push it
around. The problem is not convex in r: the optimizer reports local
stationarity, and grid_search_r is the global reference at desk scale.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .adjoint_grad import gradients_from_adjoint, solve_adjoint
from .core_system import (BlowUpError, CostSpec, StepSolverError, TimeGrid,
                          cost_eval, solve_forward)
from .models import MODELS

# Barzilai-Borwein step-size clamp and the line-search trial budget
BB_MIN = 1e-10
BB_MAX = 1e4
MAX_BACKTRACKS = 60


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
    # tol_grad is a projected-gradient tolerance. The Armijo test compares
    # exact J values, so predicted decreases ~ tol^2 must stay above J's
    # roundoff; 2e-6 is not always above it on O(10)-scale costs: on the
    # default beam, 5 of 16 grid points stall there until max_iters
    max_iters: int = 500
    tol_grad: float = 2e-6
    armijo_c: float = 1e-4
    backtrack: float = 0.5

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.tol_grad > 0.0):
            raise ValueError("tol_grad must be positive")
        if not (0.0 < self.armijo_c < 1.0):
            raise ValueError("armijo_c must lie in (0, 1)")
        if not (0.0 < self.backtrack < 1.0):
            raise ValueError("backtrack factor must lie in (0, 1)")


@dataclass
class OptimRun:
    u: np.ndarray
    r: np.ndarray
    adjoint: object
    j_final: float
    converged: bool
    status: str
    history: list = field(default_factory=list)
    n_iters: int = 0


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


def optimize(disc, cost, x0, u_init, r_init, spec, config, grid, freeze_r=False):
    """Joint projected-gradient minimization of J over (u, r).

    Terminates when both blocks' projected residuals fall below tol_grad
    (u scaled by max(1, ||u||)) or max_iters is reached. freeze_r solves
    the u-subproblem at fixed design (used by the grid search). Returns an
    OptimRun with the full per-iteration history; persistent line-search
    blow-up marks the run failed instead of raising. Trial points cost a
    forward sweep and J; the adjoint sweep runs only at accepted points.
    """
    u = project_u(np.asarray(u_init, dtype=float), spec, grid)
    r = project_r(r_init, spec)

    traj = solve_forward(disc, x0, u, r, grid)
    j = cost_eval(disc, cost, traj, u, grid)
    adj = solve_adjoint(disc, cost, traj, grid)
    gu, gr = gradients_from_adjoint(disc, cost, u, r, adj)
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

    push(0, 0)
    converged = pg_u <= tol_u() and (freeze_r or pg_r <= config.tol_grad)
    status = "converged" if converged else "running"
    it = 0
    while not converged and it < config.max_iters:
        it += 1
        active_u = pg_u > tol_u()
        active_r = (not freeze_r) and pg_r > config.tol_grad
        au, ar = alpha_u, alpha_r
        accepted = False
        saw_blowup = False
        for bt in range(MAX_BACKTRACKS + 1):
            u_new = project_u(u - au * gu, spec, grid) if active_u else u
            r_new = project_r(r - ar * gr, spec) if active_r else r
            dec = config.armijo_c * (
                float(grid.theta @ (gu * (u - u_new))) + float(gr @ (r - r_new))
            )
            if dec <= 0.0:
                # projection returned the base point: no feasible descent
                # at this step size, shrink further
                au *= config.backtrack
                ar *= config.backtrack
                continue
            try:
                traj_new = solve_forward(disc, x0, u_new, r_new, grid)
            except BlowUpError:
                saw_blowup = True
                au *= config.backtrack
                ar *= config.backtrack
                continue
            j_new = cost_eval(disc, cost, traj_new, u_new, grid)
            if math.isfinite(j_new) and j_new <= j - dec:
                accepted = True
                break
            au *= config.backtrack
            ar *= config.backtrack
        if not accepted:
            status = "blow_up" if saw_blowup else "line_search_failure"
            it -= 1
            break
        adj_new = solve_adjoint(disc, cost, traj_new, grid)
        gu_new, gr_new = gradients_from_adjoint(disc, cost, u_new, r_new, adj_new)

        # Barzilai-Borwein step proposals for the next iteration (per block)
        if active_u:
            s_u = u_new - u
            y_u = gu_new - gu
            den = float(grid.theta @ (s_u * y_u))
            num = float(grid.theta @ (s_u * s_u))
            if den > 0.0 and math.isfinite(den):
                alpha_u = min(max(num / den, BB_MIN), BB_MAX)
            else:
                alpha_u = min(4.0 * au, BB_MAX)
        if active_r:
            s_r = r_new - r
            y_r = gr_new - gr
            den = float(s_r @ y_r)
            num = float(s_r @ s_r)
            if den > 0.0 and math.isfinite(den):
                alpha_r = min(max(num / den, BB_MIN), BB_MAX)
            else:
                alpha_r = min(4.0 * ar, BB_MAX)

        u, r, j, gu, gr, adj = u_new, r_new, j_new, gu_new, gr_new, adj_new
        pg_u, pg_r = _pg_residuals(u, r, gu, gr, spec, grid)
        push(it, bt)
        converged = pg_u <= tol_u() and (freeze_r or pg_r <= config.tol_grad)
        if converged:
            status = "converged"
    if not converged and status == "running":
        status = "max_iters"

    return OptimRun(
        u=u,
        r=r,
        adjoint=adj,
        j_final=j,
        converged=converged,
        status=status,
        history=history,
        n_iters=it,
    )


def _grid_point_worker(task):
    """Solve the u-subproblem at one design point (process-pool safe)."""
    (model, params, act_width, q1, q2, r_weight, x0, t_final, n_steps,
     r_ad, r_box, config, r_point) = task
    disc = MODELS[model].assemble(params, act_width)
    grid = TimeGrid(t_final, n_steps)
    cost = CostSpec(q1=q1, q2=q2, r_weight=r_weight)
    spec = ProjectionSpec(r_ad=r_ad, r_box=r_box)
    try:
        run = optimize(
            disc, cost, x0, np.zeros(n_steps + 1), np.asarray(r_point), spec,
            config, grid, freeze_r=True,
        )
    except (BlowUpError, StepSolverError) as exc:
        return math.nan, False, str(exc)
    return run.j_final, bool(run.converged), None


def _box_for_dim(spec, r_dim):
    box = spec.r_box
    if box.shape[0] != r_dim:
        raise ValueError(
            f"r_box has {box.shape[0]} components but the design space has {r_dim}"
        )
    return box


def grid_search_r(disc, cost, x0, spec, n_grid, grid, config=None, threads=1):
    """Dense design-space sweep: solve the u-subproblem on a uniform grid.

    n_grid points per design dimension over r_box (lexicographic order).
    Points are independent; they are distributed over a process pool of
    min(threads, CPU count, number of points) workers when that exceeds
    one, and the result table order is by grid position either way.
    Points whose forward solve blows up or whose step system is singular
    carry J = nan and converged = False; they and the unconverged points
    are excluded from the argmin. When no point is left, the RuntimeError
    names the first point's failure.

    Returns (r_star, table): table rows are (r components..., J, converged).
    """
    if n_grid < 8:
        raise ValueError(f"n_grid must be >= 8, got {n_grid}")
    if config is None:
        config = OptimizerConfig()
    axes = [np.linspace(lo, hi, n_grid) for lo, hi in _box_for_dim(spec, disc.r_dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])

    tasks = [
        (
            disc.model, disc.params, disc.meta.get("act_width"),
            cost.q1, cost.q2, cost.r_weight, np.asarray(x0, dtype=float),
            grid.t_final, grid.n_steps, spec.r_ad, spec.r_box, config, pt,
        )
        for pt in points
    ]
    workers = min(threads, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_grid_point_worker, tasks))
    else:
        results = [_grid_point_worker(task) for task in tasks]

    table = [tuple(pt) + (j_val, ok) for pt, (j_val, ok, _) in zip(points, results)]
    valid = [i for i, (j_val, ok, _) in enumerate(results)
             if ok and math.isfinite(j_val)]
    if not valid:
        cause = results[0][2] or "its control solve did not converge"
        raise RuntimeError(
            f"grid search failed at every design point; the first: {cause}"
        )
    best = min(valid, key=lambda i: results[i][0])
    return points[best].copy(), table
