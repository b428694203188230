"""Time-stepping core shared by the beam and wave models.

A spatial model is reduced to a first-order system

    x'(t) = A x + F(x) + b(r) u(t),   x(0) = x0,

with state x = [w-dofs; v-dofs] stacked position/velocity blocks. The
energy inner product <a, b> = a^T G b (G the model's Gram matrix) is the
discrete analogue of the physical energy norm, and all adjoints downstream
are taken with respect to it.

Time integration is an IMEX Crank-Nicolson scheme: the stiff linear part A
is treated implicitly (trapezoidal), the soft nonlinearity F explicitly by
second-order Adams-Bashforth extrapolation, and the control enters through
its interval midpoint value:

    (I - dt/2 A) x_{n+1} = (I + dt/2 A) x_n + dt*F_ext(n) + dt*b(r)*u_mid(n)

with F_ext(0) = F(x_0) and F_ext(n) = 1.5 F(x_n) - 0.5 F(x_{n-1}) after.
Every sweep takes this step, and its transpose, from one CNStep object.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


# max-norm bound on a forward state; beyond it a sweep counts as blown up
STATE_CEILING = 1e12


class BlowUpError(RuntimeError):
    """Forward solve exceeded the state ceiling or went non-finite.

    Carries the offending step index, the time, and the partial trajectory:
    from solve_forward all completed rows, shape (step, n_dof); from
    forward_costs, which keeps no trajectory, only the offending column's
    last completed state, shape (1, n_dof).
    """

    def __init__(self, step, time, partial):
        super().__init__(
            f"state blow-up at step {step} (t = {time:.6g}); "
            f"partial trajectory of {partial.shape[0]} rows retained"
        )
        self.step = step
        self.time = time
        self.partial = partial


class NonContractionError(RuntimeError):
    """Picard iteration observed non-decreasing distances (no contraction)."""

    def __init__(self, distances):
        super().__init__(
            "successive Picard distances stopped decreasing "
            f"(last: {[f'{d:.3e}' for d in distances[-4:]]}); "
            "the horizon is too long for the fixed-point map to contract"
        )
        self.distances = list(distances)


class StepSolverError(ValueError):
    """The implicit step system could not be factorized."""


class CNStep:
    """One Crank-Nicolson step (I - dt/2 M) x+ = (I + dt/2 M) x + s.

    apply(x) = (I + dt/2 M) x and solve(rhs) = (I - dt/2 M)^{-1} rhs;
    apply_T and solve_T are their exact transposes, on one state (n_dof,)
    or a block (n_dof, K). The transpose of I + dt/2 M is built once: a
    transposed view costs more per call than the product itself. Unpacks
    as (lu, m_plus), the LU factor of I - dt/2 M and the CSR I + dt/2 M.
    """

    def __init__(self, mat, dt):
        eye = sp.identity(mat.shape[0], format="csr")
        try:
            self.lu = spla.splu((eye - (0.5 * dt) * mat).tocsc())
        except RuntimeError as exc:
            raise StepSolverError(
                f"implicit step system (I - dt/2 A) singular at dt = {dt:.6g}; dt "
                f"likely resonates with an eigenvalue of A (factorization said: {exc})"
            ) from exc
        self.m_plus = (eye + (0.5 * dt) * mat).tocsr()
        self._m_plus_t = self.m_plus.T.tocsr()

    def __iter__(self):
        return iter((self.lu, self.m_plus))

    def apply(self, x):
        return self.m_plus @ x

    def apply_T(self, y):
        return self._m_plus_t @ y

    def solve(self, rhs):
        return self.lu.solve(rhs)

    def solve_T(self, rhs):
        return self.lu.solve(rhs, trans="T")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, t_final] with n_steps intervals."""

    t_final: float
    n_steps: int

    def __post_init__(self):
        if not (self.t_final > 0.0 and math.isfinite(self.t_final)):
            raise ValueError(f"t_final must be positive and finite, got {self.t_final}")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")

    @property
    def dt(self):
        return self.t_final / self.n_steps

    @property
    def times(self):
        return np.linspace(0.0, self.t_final, self.n_steps + 1)

    @property
    def theta(self):
        """Trapezoid quadrature weights on the grid nodes (sum = t_final)."""
        th = np.full(self.n_steps + 1, self.dt)
        th[0] = 0.5 * self.dt
        th[-1] = 0.5 * self.dt
        return th


@dataclass(frozen=True)
class CostSpec:
    """Weights of the running cost  integral of <Q x, x> + R_weight u^2.

    q1 weights the position (stiffness) part of the energy density, q2 the
    velocity part. The sampling layout of q1/q2 is owned by the model:
    beam -> values at the interior nodes; wave -> q1 at all grid nodes
    (edge averages weight the gradient form), q2 at all grid nodes.
    """

    q1: np.ndarray
    q2: np.ndarray
    r_weight: float = 1.0

    def __post_init__(self):
        q1 = np.asarray(self.q1, dtype=float)
        q2 = np.asarray(self.q2, dtype=float)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", q2)
        if not (np.all(np.isfinite(q1)) and np.all(q1 >= 0.0)):
            raise ValueError("q1 must be finite and >= 0")
        if not (np.all(np.isfinite(q2)) and np.all(q2 >= 0.0)):
            raise ValueError("q2 must be finite and >= 0")
        if not (self.r_weight > 0.0 and math.isfinite(self.r_weight)):
            raise ValueError(f"R_weight must be positive, got {self.r_weight}")


class Discretization:
    """Bundle of spatial operators produced by a model's assemble_* call.

    Fields
    ------
    model:      the model's name in actuopt.models.MODELS ("beam", "wave")
    params:     the model parameter dataclass
    n_space:    number of position dofs m (state dimension is 2m)
    a_mat:      sparse (2m, 2m) system operator A
    gram:       sparse SPD (2m, 2m) energy Gram matrix G
    astar_mat:  sparse (2m, 2m) adjoint operator A* w.r.t. G, assembled
                from the model's closed-form adjoint (not a transpose)
    b_of_r:     r-array -> (2m,) control influence vector
    b_jac_of_r: r-array -> (2m, r_dim) derivative of the influence in r
    fnl:        x -> (2m,) nonlinearity F(x)
    fnl_diag:   x -> (..., m) diagonal d of the Jacobian coupling, i.e.
                F'(x)(x~) = [0; d * x~_w], over the last axis: a whole
                (n_steps+1, 2m) trajectory gives one row per state
    fstar_h:    (w_field, g) -> (m,) position part h of F'(x)* (f, g),
                via the model's elliptic/4th-order adjoint solve
    cost_matrix_fn: CostSpec -> sparse symmetric PSD M_Q with
                <Q x, y>_G = x^T M_Q y
    r_dim:      dimension of the actuator design vector
    meta:       model-specific extras (grids, widths, ...)

    step_factors(dt, operator) gives the cached CNStep that every sweep uses.
    """

    def __init__(self, *, model, params, n_space, a_mat, gram, astar_mat,
                 b_of_r, b_jac_of_r, fnl, fnl_diag, fstar_h, cost_matrix_fn,
                 r_dim, meta=None):
        self.model = model
        self.params = params
        self.n_space = int(n_space)
        self.a_mat = a_mat.tocsr()
        self.gram = gram.tocsr()
        self.astar_mat = astar_mat.tocsr()
        self.b_of_r = b_of_r
        self.b_jac_of_r = b_jac_of_r
        self.fnl = fnl
        self.fnl_diag = fnl_diag
        self.fstar_h = fstar_h
        self.cost_matrix_fn = cost_matrix_fn
        self.r_dim = int(r_dim)
        self.meta = dict(meta or {})
        self._step_cache = {}
        self._mq_cache = {}
        self._gram_lu = None

    @property
    def n_dof(self):
        return 2 * self.n_space

    def cost_matrix(self, cost):
        """Build (and cache) M_Q for a CostSpec instance."""
        key = id(cost)
        hit = self._mq_cache.get(key)
        if hit is not None and hit[0] is cost:
            return hit[1]
        mq = self.cost_matrix_fn(cost)
        self._mq_cache[key] = (cost, mq)
        return mq

    def step_factors(self, dt, operator="forward"):
        """The CNStep of dt, cached by (dt, operator).

        operator="forward" steps with A, operator="adjoint" with A* (for
        the continuous-adjoint oracle sweep).
        """
        key = (float(dt), operator)
        step = self._step_cache.get(key)
        if step is None:
            mat = self.a_mat if operator == "forward" else self.astar_mat
            step = self._step_cache[key] = CNStep(mat, dt)
        return step

    def gram_solve(self, rhs):
        """Solve G z = rhs; rhs may be a vector or a (n_dof, k) matrix."""
        if self._gram_lu is None:
            self._gram_lu = spla.splu(self.gram.tocsc())
        return self._gram_lu.solve(rhs)


def energy_inner(disc, a, b):
    """Energy inner product <a, b> = a^T G b."""
    return float(np.asarray(a) @ (disc.gram @ np.asarray(b)))


def energy_norm(disc, a):
    return math.sqrt(max(energy_inner(disc, a, a), 0.0))


def energy_series(disc, traj):
    """Quadratic energy form x^T G x for each trajectory row."""
    gv = disc.gram @ traj.T
    return np.einsum("ij,ji->i", traj, gv)


def _check_forward_args(disc, x0, u, grid):
    x0 = np.asarray(x0, dtype=float)
    u = np.asarray(u, dtype=float)
    if x0.shape != (disc.n_dof,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({disc.n_dof},)")
    if u.shape != (grid.n_steps + 1,):
        raise ValueError(
            f"control signal has shape {u.shape}, expected ({grid.n_steps + 1},)"
        )
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 contains non-finite entries")
    if not np.all(np.isfinite(u)):
        raise ValueError("control signal contains non-finite entries")
    return x0, u


def _imex_states(disc, x0, u, b_vec, dt, ceiling):
    """Yield x_1, ..., x_N of the IMEX recursion started at x0.

    x0 is one state (n_dof,) with u (N+1,) and b_vec (n_dof,), or a block
    of K states (n_dof, K) with u (N+1, K) and b_vec (n_dof, K), one column
    per state. Raises BlowUpError at the first step where a state exceeds
    `ceiling` in max-norm or goes non-finite; its partial holds one row,
    the last completed state of the first column that blew up.
    """
    step = disc.step_factors(dt)
    x = x0
    f_curr = disc.fnl(x0)
    f_prev = None
    for i in range(u.shape[0] - 1):
        f_ext = f_curr if i == 0 else 1.5 * f_curr - 0.5 * f_prev
        u_mid = 0.5 * (u[i] + u[i + 1])
        x_next = step.solve(step.apply(x) + dt * f_ext + (dt * u_mid) * b_vec)
        if not np.all(np.isfinite(x_next)) or np.max(np.abs(x_next)) > ceiling:
            bad = ~np.isfinite(x_next) | (np.abs(x_next) > ceiling)
            col = np.flatnonzero(bad.reshape(len(bad), -1).any(axis=0))[0]
            last = x.reshape(len(x), -1)[:, col]
            raise BlowUpError(i + 1, (i + 1) * dt, last[None, :].copy())
        yield x_next
        x = x_next
        f_prev = f_curr
        f_curr = disc.fnl(x_next)


def solve_forward(disc, x0, u, r, grid, ceiling=STATE_CEILING):
    """Integrate the semi-linear system over the grid.

    Returns the trajectory as an (n_steps+1, n_dof) array. Raises
    BlowUpError if any state exceeds `ceiling` in max-norm or goes
    non-finite; its partial holds every completed row.
    """
    x0, u = _check_forward_args(disc, x0, u, grid)
    b_vec = disc.b_of_r(np.atleast_1d(np.asarray(r, dtype=float)))
    traj = np.empty((grid.n_steps + 1, disc.n_dof))
    traj[0] = x0
    try:
        for i, x in enumerate(_imex_states(disc, x0, u, b_vec, grid.dt, ceiling), 1):
            traj[i] = x
    except BlowUpError as exc:
        raise BlowUpError(exc.step, exc.time, traj[: exc.step].copy()) from None
    return traj


def forward_costs(disc, cost, x0, u, r, grid):
    """J of K forward solves from x0, in one batched sweep.

    Row k of u (K, n_steps+1) and of r (K, r_dim) drive column k of an
    (n_dof, K) state block, so each step is one LU solve on K right-hand
    sides. The quadratic cost term of each column is taken as the sweep
    goes and weighted as in cost_eval; no trajectory is kept, only the
    state block and K numbers per step. Returns the K costs, equal to
    cost_eval of solve_forward per row up to roundoff. A state leaving
    STATE_CEILING raises BlowUpError for the first column that blew up.
    """
    u = np.asarray(u, dtype=float)
    r = np.asarray(r, dtype=float)
    if u.ndim != 2 or u.shape[0] < 1 or r.shape != (u.shape[0], disc.r_dim):
        raise ValueError(
            f"controls {u.shape} and designs {r.shape} must be (K, n_steps+1) "
            f"and (K, {disc.r_dim}) with K >= 1"
        )
    for row in u:
        x0, _ = _check_forward_args(disc, x0, row, grid)
    mq = disc.cost_matrix(cost)
    b_cols = np.column_stack([disc.b_of_r(rk) for rk in r])
    block = np.repeat(x0[:, None], u.shape[0], axis=1)
    quad = np.empty((grid.n_steps + 1, u.shape[0]))
    quad[0] = np.einsum("ij,ij->j", block, mq @ block)
    states = _imex_states(disc, block, u.T, b_cols, grid.dt, STATE_CEILING)
    for i, x in enumerate(states, 1):
        quad[i] = np.einsum("ij,ij->j", x, mq @ x)
    return grid.theta @ (quad + cost.r_weight * u.T * u.T)


def picard_mild_solve(disc, x0, u, r, grid, max_iters=60, tol=1e-7):
    """Fixed-point (mild-solution) oracle for the forward problem.

    Iterates y^{k+1} = linear CN solve with the nonlinearity frozen at the
    previous iterate, source (F(y^k_n) + F(y^k_{n+1}))/2 + b u_mid. Its
    fixed point is the fully implicit trapezoidal solution -- an
    integration rule independent of the production IMEX extrapolation, so
    agreement is evidence rather than tautology. The linear propagation
    (I - dt/2 A)^{-1}(I + dt/2 A) plays the role of the semigroup in the
    variation-of-constants formula.

    Returns (trajectory, info) with info = {"iterations", "distances",
    "converged"}; distances are max-over-time energy norms of successive
    iterate differences. Raises NonContractionError after three
    consecutive non-decreasing distances while clearly unconverged (an
    order of magnitude above the stopping threshold: near the threshold
    the distances sit on the linear-solve roundoff floor and may wiggle).
    """
    x0, u = _check_forward_args(disc, x0, u, grid)
    dt = grid.dt
    step = disc.step_factors(dt)
    b_vec = disc.b_of_r(np.atleast_1d(np.asarray(r, dtype=float)))
    n = grid.n_steps
    u_mid = 0.5 * (u[:-1] + u[1:])

    y = np.tile(x0, (n + 1, 1))
    distances = []
    bad = 0
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        f_all = np.stack([disc.fnl(row) for row in y])
        y_new = np.empty_like(y)
        y_new[0] = x0
        for i in range(n):
            src = 0.5 * (f_all[i] + f_all[i + 1]) + u_mid[i] * b_vec
            y_new[i + 1] = step.solve(step.apply(y_new[i]) + dt * src)
        diff = y_new - y
        d = math.sqrt(max(np.max(energy_series(disc, diff)), 0.0))
        scale = math.sqrt(max(np.max(np.abs(energy_series(disc, y_new))), 1.0))
        distances.append(d)
        y = y_new
        if d <= tol * scale:
            converged = True
            break
        if len(distances) >= 2 and (
            not math.isfinite(d) or d > 10.0 * tol * scale
        ):
            prev = distances[-2]
            if not math.isfinite(d) or d >= prev:
                bad += 1
            else:
                bad = 0
            if bad >= 3:
                raise NonContractionError(distances)
    info = {"iterations": iterations, "distances": distances, "converged": converged}
    return y, info


def cost_eval(disc, cost, traj, u, grid):
    """Trapezoid evaluation of J = int <Q x, x> + R_weight u^2 dt."""
    traj = np.asarray(traj, dtype=float)
    u = np.asarray(u, dtype=float)
    if traj.shape != (grid.n_steps + 1, disc.n_dof):
        raise ValueError(
            f"trajectory shape {traj.shape} does not match grid/discretization "
            f"({grid.n_steps + 1}, {disc.n_dof})"
        )
    if u.shape != (grid.n_steps + 1,):
        raise ValueError(f"control shape {u.shape}, expected ({grid.n_steps + 1},)")
    mq = disc.cost_matrix(cost)
    quad = np.einsum("ij,ji->i", traj, mq @ traj.T)
    return float(grid.theta @ (quad + cost.r_weight * u * u))
