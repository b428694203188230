"""Linearized solves, exact discrete adjoints, gradients, and verification.

Gradients follow the discretize-then-optimize route: the backward sweep is
the exact transpose (in the Euclidean sense, composed with Gram weighting
where state-space inner products appear) of the realized IMEX recursion,
including the Adams-Bashforth cross-terms. That makes the duality identity
and the finite-difference gradient checks hold to machine precision, not
just to discretization order.

Multiplier bookkeeping: lam_j is the Euclidean multiplier of the step
equation producing x_j (j = 1..N). Against the continuous adjoint state p
(the mild solution of the backward final-value problem

    p'(t) = -(A* + F'(x(t))*) p - Q x(t),  p(tau) = 0)

the multipliers satisfy lam_j ~= G p(t_{j-1/2}) when the sweep is sourced
with theta_m * M_Q x_m. Gradients, residuals and duality pairings use the
raw multipliers, which is what keeps them exact, so the adjoint state is
the multipliers alone. The node view of p (adjoint_node_view) averages
neighboring multipliers (second order) and carries p(tau) = 0 exactly; it
exists only for the comparison with the continuous-adjoint oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_system import cost_eval, energy_norm, forward_costs, solve_forward


@dataclass
class AdjointState:
    """Backward sweep result: the step multipliers.

    lam:  (n_steps+1, n_dof) step multipliers; lam[0] is unused (zero),
          lam[j] pairs with the equation defining x_j
    grid: the time grid of the originating trajectory
    """

    lam: np.ndarray
    grid: object

    def bstar_series(self, vec):
        """Riesz representative (w.r.t. the trapezoid L^2 inner product) of
        u -> sum_n lam_{n+1} . (dt * u_mid(n) * vec).

        For vec = b(r) this is the discrete realization of t -> B*(r) p(t).
        """
        dt = self.grid.dt
        theta = self.grid.theta
        z = self.lam @ np.asarray(vec, dtype=float)
        z_next = np.empty_like(z)
        z_next[:-1] = z[1:]
        z_next[-1] = 0.0
        return (z + z_next) * (dt / (2.0 * theta))


@dataclass
class GradientReport:
    """Gradients of the discrete cost at (u, r).

    grad_u is the Riesz representative in the trapezoid L^2(0, tau) inner
    product (directional derivatives are sum theta_j grad_u_j du_j);
    grad_r is the plain Euclidean gradient over design components.
    """

    grad_u: np.ndarray
    grad_r: np.ndarray
    j: float


@dataclass
class OptimalityResidual:
    """First-order residuals at (u, r).

    res_u  = || u + R^{-1} B*(r) p ||_{L^2(0,tau)}
    res_r  = | integral (B'_r u)* p dt |  componentwise
    grad_r = the signed value of 2 * that integral (descent direction info)
    pg_res_u / pg_res_r: projected-gradient residuals, filled when an
    admissible-set spec is supplied (boundary-of-set iterates).
    """

    res_u: float
    res_r: np.ndarray
    grad_r: np.ndarray
    pg_res_u: float = None
    pg_res_r: float = None


def _check_traj(disc, x_traj, grid):
    x_traj = np.asarray(x_traj, dtype=float)
    if x_traj.shape != (grid.n_steps + 1, disc.n_dof):
        raise ValueError(
            f"trajectory shape {x_traj.shape} does not match the grid "
            f"({grid.n_steps + 1}, {disc.n_dof}): grid mismatch"
        )
    return x_traj


def solve_linearized(disc, x_traj, u_tilde, r, grid):
    """Integrate the exact linearization of the IMEX sweep along x_traj.

    Solves x~' = (A + F'(x(t))) x~ + b(r) u~, x~(0) = 0, with the same
    CN/AB2 structure as solve_forward (F replaced by its Jacobian).
    """
    x_traj = _check_traj(disc, x_traj, grid)
    u_tilde = np.asarray(u_tilde, dtype=float)
    if u_tilde.shape != (grid.n_steps + 1,):
        raise ValueError(
            f"control direction shape {u_tilde.shape}, expected ({grid.n_steps + 1},)"
        )
    dt = grid.dt
    step = disc.step_factors(dt)
    b_vec = disc.b_of_r(np.atleast_1d(np.asarray(r, dtype=float)))
    ms = disc.n_space
    n = grid.n_steps

    dvecs = disc.fnl_diag(x_traj)
    xt = np.zeros((n + 1, disc.n_dof))
    j_prev = None
    for i in range(n):
        j_curr = dvecs[i] * xt[i, :ms]
        jx = j_curr if i == 0 else 1.5 * j_curr - 0.5 * j_prev
        rhs = step.apply(xt[i]) + (dt * 0.5 * (u_tilde[i] + u_tilde[i + 1])) * b_vec
        rhs[ms:] += dt * jx
        xt[i + 1] = step.solve(rhs)
        j_prev = j_curr
    return xt


def _transpose_sweep(disc, sources, x_traj, grid):
    """Exact transpose of the linearized sweep along x_traj against
    Euclidean sources.

    sources[m] is the covector paired with x~_m in the output functional
    (sources[0] is irrelevant since x~_0 = 0). Returns lam with rows
    1..n_steps filled, row 0 zero.
    """
    dvecs = disc.fnl_diag(x_traj)
    dt = grid.dt
    step = disc.step_factors(dt)
    ms = disc.n_space
    n = grid.n_steps

    lam = np.zeros((n + 3, disc.n_dof))
    for m in range(n, 0, -1):
        rhs = step.apply_T(lam[m + 1]) + sources[m]
        rhs[:ms] += dt * dvecs[m] * (1.5 * lam[m + 1, ms:] - 0.5 * lam[m + 2, ms:])
        lam[m] = step.solve_T(rhs)
    return lam[: n + 1]


def solve_adjoint(disc, cost, x_traj, grid):
    """Backward sweep sourced by Q x along the trajectory; p(tau) = 0.

    The sweep is the exact Gram-weighted transpose of the linearized
    forward sweep (all adjoints are G^{-1} M^T G against the energy inner
    product, realized on multipliers without forming G^{-1} M^T G).
    """
    x_traj = _check_traj(disc, x_traj, grid)
    mq = disc.cost_matrix(cost)
    sources = (mq @ x_traj.T).T * grid.theta[:, None]
    return AdjointState(lam=_transpose_sweep(disc, sources, x_traj, grid), grid=grid)


def adjoint_node_view(disc, adj):
    """(n_steps+1, n_dof) adjoint trajectory p at the time nodes.

    Averages neighboring multipliers and solves with the Gram matrix;
    p[-1] stays exactly zero, the final condition of the backward problem.
    """
    lam = adj.lam
    n = adj.grid.n_steps
    rhs = np.empty((disc.n_dof, n))
    rhs[:, 0] = 1.5 * lam[1] - 0.5 * lam[2]
    rhs[:, 1:] = 0.5 * (lam[1:n] + lam[2 : n + 1]).T
    p = np.zeros((n + 1, disc.n_dof))
    p[:n] = disc.gram_solve(rhs).T
    return p


def duality_check(disc, x_traj, r, u_tilde, x_hat, grid):
    """Relative defect of <x_hat, S'_u u~>_{L^2(0,tau;X)} = <S'*_u x_hat, u~>.

    Computes the left side through the linearized forward sweep and the
    right side through the transposed sweep, both against the trapezoid
    pairings. Returns |lhs - rhs| / max(|lhs|, |rhs|) (0 when both vanish).
    """
    x_traj = _check_traj(disc, x_traj, grid)
    x_hat = np.asarray(x_hat, dtype=float)
    if x_hat.shape != x_traj.shape:
        raise ValueError(f"x_hat shape {x_hat.shape} does not match the trajectory")
    theta = grid.theta

    xt = solve_linearized(disc, x_traj, u_tilde, r, grid)
    gv = disc.gram @ xt.T
    lhs = float(theta @ np.einsum("ij,ji->i", x_hat, gv))

    sources = (disc.gram @ x_hat.T).T * theta[:, None]
    adj = AdjointState(lam=_transpose_sweep(disc, sources, x_traj, grid), grid=grid)
    b_vec = disc.b_of_r(np.atleast_1d(np.asarray(r, dtype=float)))
    rhs = float(theta @ (adj.bstar_series(b_vec) * np.asarray(u_tilde, dtype=float)))

    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale


def gradients_from_adjoint(disc, cost, u, r, adj):
    """grad_u and grad_r from an adjoint sweep (multiplier-exact pairings)."""
    grid = adj.grid
    u = np.asarray(u, dtype=float)
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    b_vec = disc.b_of_r(r_arr)
    grad_u = 2.0 * (cost.r_weight * u + adj.bstar_series(b_vec))
    b_jac = disc.b_jac_of_r(r_arr)
    u_mid = 0.5 * (u[:-1] + u[1:])
    grad_r = 2.0 * grid.dt * (u_mid @ (adj.lam[1:] @ b_jac))
    return grad_u, grad_r


def gradient(disc, cost, x0, u, r, grid):
    """GradientReport of the discrete J at (u, r) from x0 (BlowUpError propagates)."""
    x_traj = solve_forward(disc, x0, u, r, grid)
    adj = solve_adjoint(disc, cost, x_traj, grid)
    grad_u, grad_r = gradients_from_adjoint(disc, cost, u, r, adj)
    j = cost_eval(disc, cost, x_traj, u, grid)
    return GradientReport(grad_u=grad_u, grad_r=grad_r, j=j)


def optimality_residual(disc, cost, u, r, adj, spec=None):
    """First-order residuals of the optimality system at (u, r).

    adj is the AdjointState of the run (carries the grid). When an
    admissible-set spec is given, the projected-gradient residuals
    ||z - Proj(z - grad)|| realizing the variational inequalities on the
    set boundary are filled in as well.
    """
    grid = adj.grid
    u = np.asarray(u, dtype=float)
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    theta = grid.theta
    bstar = adj.bstar_series(disc.b_of_r(r_arr))
    viol = u + bstar / cost.r_weight
    res_u = math.sqrt(float(theta @ viol**2))
    grad_u, grad_r = gradients_from_adjoint(disc, cost, u, r_arr, adj)
    res_r = np.abs(0.5 * grad_r)

    pg_u = pg_r = None
    if spec is not None:
        from .optimizer import _pg_residuals

        pg_u, pg_r = _pg_residuals(u, r_arr, grad_u, grad_r, spec, grid)
    return OptimalityResidual(
        res_u=res_u, res_r=res_r, grad_r=grad_r, pg_res_u=pg_u, pg_res_r=pg_r
    )


def continuous_adjoint_oracle(disc, cost, x_traj, grid):
    """Direct integration of the backward final-value problem.

    Independent oracle for solve_adjoint: integrates

        p' = -(A* + F'(x(t))*) p - Q x(t),  p(tau) = 0,

    by the substitution q(s) = p(tau - s) (so q' = A* q + F'* q + Q x,
    q(0) = 0), stepping Crank-Nicolson on the model's closed-form A* and
    AB2 on the remaining terms. F'(x)* is realized through the model's
    adjoint solve (fourth-order BVP for the beam, elliptic BVP for the
    wave), i.e. the route the continuous theory prescribes -- not the
    transposed sweep. Returns the (n_steps+1, n_dof) adjoint trajectory
    on the time grid.
    """
    x_traj = _check_traj(disc, x_traj, grid)
    dt = grid.dt
    n = grid.n_steps
    ms = disc.n_space
    step = disc.step_factors(dt, operator="adjoint")
    mq = disc.cost_matrix(cost)
    qx = disc.gram_solve(mq @ x_traj.T)  # columns: Q x_m

    def affine_term(m, qvec):
        h = disc.fstar_h(x_traj[m, :ms], qvec[ms:])
        out = qx[:, m].copy()
        out[:ms] += h
        return out

    q = np.zeros((n + 1, disc.n_dof))
    g_prev = None
    for j in range(n):
        g_curr = affine_term(n - j, q[j])
        g_ext = g_curr if j == 0 else 1.5 * g_curr - 0.5 * g_prev
        q[j + 1] = step.solve(step.apply(q[j]) + dt * g_ext)
        g_prev = g_curr
    return q[::-1].copy()


def adjoint_compare(disc, cost, x_traj, grid):
    """Relative L-infinity (in time, energy norm in space) distance between
    the discrete-adjoint node view and the continuous-adjoint oracle."""
    p = adjoint_node_view(disc, solve_adjoint(disc, cost, x_traj, grid))
    p_oracle = continuous_adjoint_oracle(disc, cost, x_traj, grid)
    num = max(energy_norm(disc, d) for d in (p - p_oracle))
    den = max(energy_norm(disc, row) for row in p_oracle)
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def gradient_fd_check(disc, cost, x_traj, u, r, grid, n_directions=10, seed=0,
                      eps_list=(1e-2, 1e-3, 1e-4), corrupt=False):
    """Central-difference verification of grad_u and grad_r.

    x_traj is the forward trajectory of (u, r), the base point. For each
    random direction the directional derivative predicted by the adjoint
    gradient is compared against central differences of the evaluated
    discrete J over the eps sweep; the best (smallest) relative error per
    direction is kept and the worst direction is reported. Every perturbed
    J comes from one batched forward_costs sweep from x_traj[0].
    The corrupt flag deliberately biases the predictions (negative-control
    hook for the CLI contract tests).
    """
    rng = np.random.default_rng(seed)
    u = np.asarray(u, dtype=float)
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    theta = grid.theta
    adj = solve_adjoint(disc, cost, x_traj, grid)
    grad_u, grad_r = gradients_from_adjoint(disc, cost, u, r_arr, adj)
    j_base = cost_eval(disc, cost, x_traj, u, grid)
    bias = 1.001 if corrupt else 1.0

    # (predicted derivative, direction in u, direction in r): the random
    # u directions first, then the design unit vectors
    checks = []
    for _ in range(n_directions):
        du = rng.standard_normal(u.shape)
        du /= math.sqrt(float(theta @ du**2))
        pred = bias * float(theta @ (grad_u * du))
        checks.append((pred, du, np.zeros_like(r_arr)))
    for c in range(disc.r_dim):
        e_c = np.zeros_like(r_arr)
        e_c[c] = 1.0
        checks.append((bias * float(grad_r[c]), np.zeros_like(u), e_c))

    # the +eps and -eps points of every check and eps, in one batched sweep
    steps = [sign * eps for eps in eps_list for sign in (1.0, -1.0)]
    j = forward_costs(
        disc, cost, x_traj[0],
        [u + h * du for _, du, _ in checks for h in steps],
        [r_arr + h * dr for _, _, dr in checks for h in steps],
        grid,
    ).reshape(len(checks), len(eps_list), 2)
    fd = (j[..., 0] - j[..., 1]) / (2.0 * np.asarray(eps_list))

    def rel_err(pred, fd):
        denom = max(abs(pred), abs(fd), 1e-14 * max(1.0, abs(j_base)))
        return abs(pred - fd) / denom

    best = [min([math.inf] + [rel_err(pred, f) for f in row])
            for (pred, _, _), row in zip(checks, fd)]
    return {"fd_u_rel": max([0.0] + best[:n_directions]),
            "fd_r_rel": max([0.0] + best[n_directions:]), "j": j_base}
