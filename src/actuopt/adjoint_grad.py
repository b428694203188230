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

import numpy as np

from .core_system import (CNStep, _check_block, _cn_ab2, _pairings, chunk_rows,
                          cost_eval, energy_norm, forward_costs, solve_forward)

# the central-difference steps of gradient_fd_check
FD_EPS = (1e-2, 1e-3, 1e-4)


def _bstar_series(z, grid):
    """Riesz representative (w.r.t. the trapezoid L^2 inner product) of
    u -> sum_n z_{n+1} * dt * u_mid(n), for the pairings z_m = lam_m . vec
    of the multipliers of one sweep with a vector vec (z_0 = 0).

    For vec = b(r) this is the discrete realization of t -> B*(r) p(t).
    """
    z_next = np.empty_like(z)
    z_next[:-1] = z[1:]
    z_next[-1] = 0.0
    return (z + z_next) * (grid.dt / (2.0 * grid.theta))


def _check_traj(disc, x_traj, grid):
    """x_traj as a float stack (K, n_steps+1, n_dof), K >= 1; one trajectory
    (n_steps+1, n_dof) becomes a stack of one."""
    x_traj = np.asarray(x_traj, dtype=float)
    rows = (grid.n_steps + 1, disc.n_dof)
    if x_traj.ndim not in (2, 3) or x_traj.shape[-2:] != rows or not len(x_traj):
        raise ValueError(f"trajectory shape {x_traj.shape} must be {rows} or "
                         f"(K, {rows[0]}, {rows[1]}), K >= 1")
    return x_traj.reshape((-1,) + x_traj.shape[-2:])


def _check_one_traj(disc, x_traj, grid):
    """One trajectory (n_steps+1, n_dof) as a float stack of one."""
    if np.ndim(x_traj) != 2:
        raise ValueError(f"x_traj has shape {np.shape(x_traj)}, expected one trajectory")
    return _check_traj(disc, x_traj, grid)


def _check_directions(disc, x_traj, u_tilde, r, grid):
    """(x_traj (n_steps+1, n_dof) and u_tilde (n_steps+1,) as blocks of one,
    b(r) column) of one tangent sweep from x~_0 = 0 along x_traj."""
    _, u_tilde, (r,) = _check_block(disc, np.zeros(disc.n_dof), [u_tilde],
                                    [np.atleast_1d(r)], grid)
    return _check_one_traj(disc, x_traj, grid), u_tilde, disc.b_of_r(r)[:, None]


def _linearized_states(disc, x_traj, u_tilde, b_col, grid):
    """Yield x~_1, ..., x~_N of the linearized IMEX recursion from x~_0 = 0
    as (n_dof, K) blocks, column k driven by u_tilde[k] through b_col.

    This is the forward step loop with the explicit term F'(x_i) x~_i; F'(x)
    is read a chunk of steps at a time from x_traj, the stack of the one
    base trajectory that all K columns share.
    """
    dt = grid.dt
    ms = disc.n_space
    # the control part of every step's source, one row per step
    dt_u = ((dt * 0.5) * (u_tilde[:, :-1] + u_tilde[:, 1:])).T
    chunk = chunk_rows(x_traj[:, 0, :ms].nbytes)
    dvecs = (d for lo in range(0, grid.n_steps, chunk)  # d of step i is the i-th
             for d in disc.fnl_diag(x_traj[:, lo:lo + chunk]).transpose(1, 2, 0))
    xt = np.zeros((disc.n_dof, len(u_tilde)))
    yield from _cn_ab2(disc.step_factors(dt), xt, dt_u, b_col, dt,
                       lambda x: next(dvecs) * x[:ms])


def solve_linearized(disc, x_traj, u_tilde, r, grid):
    """Integrate the exact linearization of the IMEX sweep along x_traj.

    Solves x~' = (A + F'(x(t))) x~ + b(r) u~, x~(0) = 0, for one direction
    u_tilde (n_steps+1,), with the same CN/AB2 structure as solve_forward
    (F replaced by its Jacobian), and returns x~ (n_steps+1, n_dof). Blocks
    of directions run through _linearized_states.
    """
    x_traj, u_tilde, b_col = _check_directions(disc, x_traj, u_tilde, r, grid)
    xt = np.zeros((grid.n_steps + 1, disc.n_dof))
    for i, x in enumerate(_linearized_states(disc, x_traj, u_tilde, b_col, grid), 1):
        xt[i] = x[:, 0]
    return xt


def _transpose_sweep(disc, mat, y, x_traj, grid):
    """Exact transpose of the linearized sweep along x_traj, for K columns
    at once, against the Euclidean sources theta_m * mat @ y_m that pair
    with x~_m, m = n_steps, ..., 1, in K output functionals.

    Yields the multipliers lam_m as (n_dof, K) blocks, m = n_steps, ..., 1
    (lam_0 is zero). The caller must not modify a yielded block. y is a
    stack (K, n_steps+1, n_dof); x_traj, for F'(x), a stack of K, or of one
    that all K columns share (K functionals at one base point, as in the
    duality check or a Newton-CG step). Both are read a chunk of steps at a
    time, and each chunk is read before the first multiplier of the chunk is
    yielded, so the caller may write lam_m over row m of y or x_traj.
    """
    dt = grid.dt
    step = disc.step_factors(dt)
    ms = disc.n_space
    theta = grid.theta
    n_func, _, n_dof = y.shape
    nxt = nxt2 = np.zeros((n_dof, n_func))  # lam_{m+1}, lam_{m+2}
    chunk = chunk_rows(y[:, 0].nbytes)
    for lo in reversed(range(1, grid.n_steps + 1, chunk)):
        hi = min(lo + chunk, grid.n_steps + 1)
        dvecs = disc.fnl_diag(x_traj[:, lo:hi]).transpose(1, 2, 0)
        # one product for the chunk; column k * (hi - lo) + m - lo is y_m of k
        srcs = mat @ y[:, lo:hi].reshape(-1, n_dof).T
        srcs = srcs.reshape(n_dof, n_func, -1)
        for m in range(hi - 1, lo - 1, -1):
            src = theta[m] * srcs[:, :, m - lo]
            src[:ms] += dt * dvecs[m - lo] * (1.5 * nxt[ms:] - 0.5 * nxt2[ms:])
            nxt2, nxt = nxt, step.advance_T(nxt, src)
            yield nxt


def solve_adjoint(disc, cost, x_traj, grid, overwrite_traj=False):
    """Backward sweep sourced by Q x along the trajectory; p(tau) = 0.

    The sweep is the exact Gram-weighted transpose of the linearized
    forward sweep (all adjoints are G^{-1} M^T G against the energy inner
    product, realized on multipliers without forming G^{-1} M^T G).
    Returns the multipliers lam, shaped like x_traj: lam[j] pairs with the
    equation defining x_j, and lam[0] is zero. One trajectory
    (n_steps+1, n_dof) gives one such array; a stack of K runs as the
    columns of one sweep and gives a (K, n_steps+1, n_dof) stack, row k bit
    for bit its own sweep's. The sweep yields the multipliers step by step
    and each is stored as it comes; overwrite_traj stores them over
    x_traj, row m once the sweep has read it, and returns them in its
    memory.
    """
    one = np.ndim(x_traj) == 2
    x_traj = _check_traj(disc, x_traj, grid)
    lam = x_traj if overwrite_traj else np.empty_like(x_traj)
    rows = lam.transpose(1, 2, 0)  # time first, one column per functional
    sweep = _transpose_sweep(disc, disc.cost_matrix(cost), x_traj, x_traj, grid)
    for m, lam_m in zip(range(grid.n_steps, 0, -1), sweep):
        rows[m] = lam_m
    rows[0] = 0.0
    return lam[0] if one else lam


def adjoint_node_view(disc, lam, grid):
    """(n_steps+1, n_dof) adjoint trajectory p at the time nodes, from the
    multipliers lam of one sweep.

    Averages neighboring multipliers and solves with the Gram matrix;
    p[-1] stays exactly zero, the final condition of the backward problem.
    """
    n = grid.n_steps
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
    pairings, for one pair: u_tilde (n_steps+1,) and x_hat (n_steps+1,
    n_dof). Returns |lhs - rhs| / max(|lhs|, |rhs|) (0 when both vanish,
    NaN when either is NaN). Neither sweep keeps a trajectory: the tangent
    sweep pairs each state with x_hat, and each multiplier of the transpose
    sweep is paired with b(r) as it comes, so one number per step is kept.
    x_hat is left unchanged.
    """
    x_traj, u_tilde, b_col = _check_directions(disc, x_traj, u_tilde, r, grid)
    x_hat = np.asarray(x_hat, dtype=float)
    if x_hat.shape != x_traj.shape[1:]:
        raise ValueError(f"x_hat has shape {x_hat.shape}, expected {x_traj.shape[1:]}")
    buf = np.empty((disc.n_dof, 2))
    lhs = np.zeros(grid.n_steps + 1)  # x~_0 = 0 pairs to 0
    for i, xt in enumerate(_linearized_states(disc, x_traj, u_tilde, b_col, grid), 1):
        lhs[i], = _pairings(x_hat[None, i].T, disc.gram, xt, buf)
    # lam_m . b(r) summed as _pairings sums: b(r) in one column of buf
    b_cols = buf[:, :1]
    b_cols[...] = b_col
    z = np.zeros(grid.n_steps + 1)  # lam_0 = 0
    sweep = _transpose_sweep(disc, disc.gram, x_hat[None], x_traj, grid)
    for m, lam_m in zip(range(grid.n_steps, 0, -1), sweep):
        z[m], = np.einsum("jk,jk->k", lam_m, b_cols)
    left = float(grid.theta @ lhs)
    right = float(grid.theta @ (_bstar_series(z, grid) * u_tilde[0]))
    diff = abs(left - right)
    scale = max(abs(left), abs(right))  # may drop a NaN; diff keeps it
    return diff / scale if scale else diff


def gradients_from_adjoint(disc, cost, u, r, lam, grid):
    """grad_u and grad_r from the multipliers lam of an adjoint sweep
    (multiplier-exact pairings).

    grad_u is the Riesz representative in the trapezoid L^2(0, tau) inner
    product (directional derivatives are sum theta_j grad_u_j du_j);
    grad_r is the plain Euclidean gradient over design components.
    """
    u = np.asarray(u, dtype=float)
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    b_vec = disc.b_of_r(r_arr)
    grad_u = 2.0 * (cost.r_weight * u + _bstar_series(lam @ b_vec, grid))
    b_jac = disc.b_jac_of_r(r_arr)
    u_mid = 0.5 * (u[:-1] + u[1:])
    grad_r = 2.0 * grid.dt * (u_mid @ (lam[1:] @ b_jac))
    return grad_u, grad_r


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
    x_traj, = _check_one_traj(disc, x_traj, grid)
    dt = grid.dt
    n = grid.n_steps
    ms = disc.n_space
    step = CNStep(disc.astar_mat, dt)
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
        q[j + 1] = step.advance(q[j], dt * g_ext)
        g_prev = g_curr
    return q[::-1].copy()


def adjoint_compare(disc, cost, x_traj, grid):
    """Relative L-infinity (in time, energy norm in space) distance between
    the discrete-adjoint node view and the continuous-adjoint oracle."""
    # the oracle first: it takes one trajectory, where solve_adjoint takes stacks
    p_oracle = continuous_adjoint_oracle(disc, cost, x_traj, grid)
    p = adjoint_node_view(disc, solve_adjoint(disc, cost, x_traj, grid), grid)
    num = max(energy_norm(disc, d) for d in (p - p_oracle))
    den = max(energy_norm(disc, row) for row in p_oracle)
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def gradient_fd_check(disc, cost, x_traj, u, r, grid, n_directions=10, seed=0,
                      corrupt=False):
    """Central-difference verification of grad_u and grad_r.

    x_traj is the forward trajectory of (u, r), the base point. For each
    random direction the directional derivative predicted by the adjoint
    gradient is compared against central differences of the evaluated
    discrete J over the FD_EPS sweep; the best (smallest) relative error per
    direction is kept and the worst direction is reported. Every perturbed
    J comes from one forward_costs call from x_traj[0], which sweeps the
    points in column blocks; the first perturbed point that blows up raises
    its BlowUpError from its own solve_forward. The check consumes x_traj:
    once the base J and x_traj[0] are taken from it, the multipliers are
    stored over it (solve_adjoint with overwrite_traj), so no array the
    size of a trajectory is made; a caller that reads its trajectory again
    passes a copy. The corrupt flag deliberately biases the predictions
    (negative-control hook for the CLI contract tests).
    """
    rng = np.random.default_rng(seed)
    u = np.asarray(u, dtype=float)
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    theta = grid.theta
    j_base = cost_eval(disc, cost, x_traj, u, grid)
    x0 = np.array(x_traj[0], dtype=float)
    # the multipliers, left in x_traj, are not read by the sweeps below
    grad_u, grad_r = gradients_from_adjoint(disc, cost, u, r_arr, solve_adjoint(
        disc, cost, x_traj, grid, overwrite_traj=True), grid)
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

    # the +eps and -eps points of every check and eps, in one forward_costs
    steps = [sign * eps for eps in FD_EPS for sign in (1.0, -1.0)]
    us = np.array([u + h * du for _, du, _ in checks for h in steps])
    rs = [r_arr + h * dr for _, _, dr in checks for h in steps]
    j = forward_costs(disc, cost, x0, us, rs, grid)
    blown = np.flatnonzero(np.isnan(j))
    if blown.size:  # the first blown point's own solve raises its BlowUpError
        solve_forward(disc, x0, us[blown[0]], rs[blown[0]], grid)
    fd = (j[0::2] - j[1::2]).reshape(len(checks), -1) / (2.0 * np.asarray(FD_EPS))

    def rel_err(pred, fd):
        denom = max(abs(pred), abs(fd), 1e-14 * max(1.0, abs(j_base)))
        return abs(pred - fd) / denom

    best = [min([math.inf] + [rel_err(pred, f) for f in row])
            for (pred, _, _), row in zip(checks, fd)]
    return {"fd_u_rel": max([0.0] + best[:n_directions]),
            "fd_r_rel": max([0.0] + best[n_directions:]), "j": j_base}
