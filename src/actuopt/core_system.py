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
Both models are second order in time, A = [[0, s I], [B, C]] in m x m
blocks, so the step eliminates the velocity and factorises only an m x m
matrix (see CNStep).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


# max-norm bound on a forward state; beyond it a sweep counts as blown up
STATE_CEILING = 1e12
# bytes the temporaries of one chunk of trajectory rows may take, in
# cost_eval and in the transpose sweep; a forward_costs state block stays
# under twice this. Large temporaries, made and freed on every call, cost
# as much in page faults as the work on them; glibc serves requests under
# 128 KiB from heap memory that it reuses
CHUNK_BYTES = 2**16


class BlowUpError(RuntimeError):
    """Forward solve exceeded the state ceiling or went non-finite.

    Carries the offending step index, the time, and the partial
    trajectory: every completed row, shape (step, n_dof).
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
    """One Crank-Nicolson step (I - h A) x+ = (I + h A) x + src, h = dt/2.

    A must be second order in time, A = [[0, s I], [B, C]] in m x m blocks
    for a scalar s (+1 for both models' A, -1 for their closed-form A*);
    any other top row raises ValueError. Eliminating the velocity leaves
    the m x m Schur complement S = I - h C - s h^2 B, the Newmark
    average-acceleration effective stiffness, which is the only factor:
    I - h A is singular exactly when S is. As I + h A = 2 I - (I - h A),

        advance(x, src)   = (I - h A)^{-1} ((I + h A) x + src) = P (2x + src) - x,
        advance_T(y, src) = P^T (2y + src) - y,

    P = (I - h A)^{-1}, are one step and its exact transpose, on one state
    (n_dof,) or a C-ordered block (n_dof, K). Unpacks as (lu, coupling),
    the LU factor of S and the CSR block B. B is applied unscaled, then
    times h: rounded entries of a prescaled h B would break the zero row
    sums of the beam's stiffness stencil and bias every step the same way.
    """

    def __init__(self, mat, dt):
        mat = mat.tocsr()
        m = mat.shape[0] // 2
        if m == 0 or mat.shape != (2 * m, 2 * m):
            raise ValueError(f"step operator has shape {mat.shape}, expected (2m, 2m)")
        if mat[:m, :m].count_nonzero():
            raise ValueError("step operator's top-left (position-position) block "
                             "is not zero; A must be second order in time")
        top_right = mat[:m, m:]
        sign = top_right.diagonal()[0]
        eye = sp.identity(m, format="csr")
        if (top_right - sign * eye).count_nonzero():
            raise ValueError("step operator's top-right (position-velocity) block "
                             "is not a multiple s I of the identity")
        h = 0.5 * dt
        b_blk = mat[m:, :m]
        schur = (eye - h * mat[m:, m:] - (sign * h * h) * b_blk).tocsc()
        try:
            # S has a symmetric pattern in both models (beam: I + (h D +
            # h^2 K)/rho, wave: Mv^{-1}(Mv + h^2 L)) and needs no pivoting
            self.lu = spla.splu(schur, permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=0.0,
                                options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise StepSolverError(
                f"implicit step system (I - dt/2 A) singular at dt = {dt:.6g}; dt "
                f"likely resonates with an eigenvalue of A (factorization said: {exc})"
            ) from exc
        self.coupling = b_blk
        self._coupling_t = b_blk.T.tocsr()
        self._h = h
        self._hs = h * sign
        self._m = m

    def __iter__(self):
        return iter((self.lu, self.coupling))

    def advance(self, x, src):
        m = self._m
        r = 2.0 * x + src
        v = self.lu.solve(r[m:] + self._h * (self.coupling @ r[:m]))
        out = np.empty_like(r)
        out[:m] = r[:m] + self._hs * v
        out[m:] = v
        out -= x
        return out

    def advance_T(self, y, src):
        m = self._m
        r = 2.0 * y + src
        z = self.lu.solve(self._hs * r[:m] + r[m:], trans="T")
        out = np.empty_like(r)
        out[:m] = r[:m] + self._h * (self._coupling_t @ z)
        out[m:] = z
        out -= y
        return out


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


def support_leaves(center, width, sides):
    """Index of the first component c of center whose support fails c - width
    >= 0 and c + width <= L, L its side, as rounded (NaN fails); None if none
    does. Rounding is monotone: a point between two passing ones passes."""
    for k, (c, length) in enumerate(zip(center, sides)):
        if not (c - width >= 0.0 and c + width <= length):
            return k
    return None


class Discretization:
    """The spatial operators of one model, and the interface of a model.

    A model is one subclass, registered in actuopt.models.MODELS under its
    name. Its __init__(params, act_width) rejects a width that is not
    positive and finite, keeps params (the parameter dataclass) and
    act_width (the actuator half-width) as attributes and hands the
    operators it assembles to this constructor:

    n_space:    number of position dofs m (state dimension is 2m)
    a_mat:      sparse (2m, 2m) system operator A, second order in time:
                A = [[0, I], [B, C]] in m x m blocks
    gram:       sparse SPD (2m, 2m) energy Gram matrix G
    astar_mat:  sparse (2m, 2m) adjoint operator A* w.r.t. G, assembled
                from the model's closed-form adjoint (not a transpose),
                of the form [[0, -I], [B*, C*]]

    The config, the CLI, the sweeps and pickling reach a model only through
    what the subclass defines here, so none of them branches on its name.

    Class attributes
    ----------------
    model:      the model's name in MODELS ("beam", "wave"), also the
                config section of its parameters
    params_cls: the parameter dataclass; its fields and defaults are the
                [<model>] config section
    default_act_width: the actuator half-width when the config sets none
    r_dim:      dimension of the actuator design vector

    Static methods
    --------------
    assemble(params, act_width): the model's instance, built by its
                module-level assemble_* function
    domain(params): side lengths, one per design dimension
    spacing(params): grid spacing, one per design dimension
    greens_check(params): the oracle's Green's-function report, or None

    Methods
    -------
    b_of_r(r):  (2m,) control influence vector of the design r; through
                check_support(r) it raises ValueError unless c - act_width
                >= 0 and c + act_width <= L for each component c of r and
                side L of domain(params): support_leaves, the one rule that
                the config's r_init and r_box corners and gradcheck's
                finite-difference points are held to as well
    b_jac_of_r(r): (2m, r_dim) derivative of the influence in r
    fnl(x):     (m, ...) velocity rows f(w) of the nonlinearity F = [0; f(w)]
    fnl_diag(x): (..., m) diagonal d of the Jacobian coupling, i.e.
                F'(x)(x~) = [0; d * x~_w], over the last axis: a whole
                (n_steps+1, 2m) trajectory gives one row per state
    fstar_h(w_field, g): (m,) position part h of F'(x)* (f, g), via the
                model's elliptic/4th-order adjoint solve
    cost_matrix_fn(cost): sparse symmetric PSD M_Q of a CostSpec, with
                <Q x, y>_G = x^T M_Q y
    cost_coords(): coordinate arrays where q1/q2 are sampled
    dof_coords(): coordinate arrays of the position dofs
    probe_columns(points, traj): one displacement series per point

    step_factors(dt) gives the cached CNStep that every sweep uses:
    advance(x, src) = (I - dt/2 A)^{-1}((I + dt/2 A) x + src) and its
    transpose advance_T, through one m x m factor; it unpacks as (lu, B),
    that factor and the CSR coupling block. An A not of the second-order
    form raises ValueError there.
    A model's instance pickles as its recipe, assemble(params, act_width):
    unpickling reassembles it, caches empty.
    """

    def __init__(self, n_space, a_mat, gram, astar_mat):
        self.n_space = int(n_space)
        self.a_mat = a_mat.tocsr()
        self.gram = gram.tocsr()
        self.astar_mat = astar_mat.tocsr()
        self._step_cache = {}
        self._mq_cache = {}
        self._gram_lu = None

    def __reduce__(self):
        return self.assemble, (self.params, self.act_width)

    @property
    def n_dof(self):
        return 2 * self.n_space

    def check_support(self, r):
        """Raise ValueError if the actuator support about r leaves the domain."""
        if support_leaves(r, self.act_width, self.domain(self.params)) is not None:
            raise ValueError(
                f"actuator support (center {list(map(float, r))}, width "
                f"{self.act_width}) leaves the domain; project the center into "
                "the admissible box")

    def cost_matrix(self, cost):
        """Build (and cache) M_Q for a CostSpec instance."""
        key = id(cost)
        hit = self._mq_cache.get(key)
        if hit is not None and hit[0] is cost:
            return hit[1]
        mq = self.cost_matrix_fn(cost)
        self._mq_cache[key] = (cost, mq)
        return mq

    def step_factors(self, dt):
        """The CNStep of A at dt, cached by dt."""
        key = float(dt)
        step = self._step_cache.get(key)
        if step is None:
            step = self._step_cache[key] = CNStep(self.a_mat, dt)
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


def _check_block(disc, x0, u, r, grid):
    """(x0, u, r) of K solves from one x0 (n_dof,): controls u (K,
    n_steps+1) and their designs r (K, r_dim), one per control."""
    x0 = np.asarray(x0, dtype=float)
    u = np.asarray(u, dtype=float)
    r = np.asarray(r, dtype=float)
    if x0.shape != (disc.n_dof,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({disc.n_dof},)")
    if (u.ndim != 2 or len(u) < 1 or u.shape[1] != grid.n_steps + 1
            or r.shape != (len(u), disc.r_dim)):
        raise ValueError(f"controls {u.shape} and designs {r.shape} must be (K, "
                         f"{grid.n_steps + 1}) and (K, {disc.r_dim}), K >= 1")
    if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(u))):
        raise ValueError("x0 or a control signal contains non-finite entries")
    return x0, u, r


def _cn_ab2(step, x, dt_u, b_cols, dt, explicit):
    """Yield x_1, ..., x_N of the CN/AB2 step loop of every forward and
    tangent sweep from the (n_dof, K) block x, one step per row of dt_u.

    Step i sources dt_u[i] * b_cols, plus dt times the AB2 extrapolation
    of g_i = explicit(x_i), the (m, K) velocity rows of the explicit term.
    explicit runs once per step, at its top, on x_i as the caller left it:
    a caller may edit a yielded block in place.
    """
    m = len(x) // 2
    g_prev = None
    for i, dt_u_i in enumerate(dt_u):
        g = explicit(x)
        src = dt_u_i * b_cols
        src[m:] += dt * (g if i == 0 else 1.5 * g - 0.5 * g_prev)
        x = step.advance(x, src)
        yield x
        g_prev = g


def _imex_states(disc, x, u, r, dt):
    """Yield x_1, ..., x_N of the IMEX recursion of K solves as (n_dof, K)
    blocks, one column per solve.

    x (n_dof, K) is the start block, u (K, N+1) the controls, r (K, r_dim)
    their designs. Every operation acts column by column, so each column's
    states are bit for bit those of its own sweep. A column whose state
    exceeds STATE_CEILING in max-norm or goes non-finite is NaN from that
    step on, and the others step on; the sweep ends once all have blown up.
    """
    b_cols = np.column_stack([disc.b_of_r(rk) for rk in r])
    # the control part dt * u_mid of every step's source, one row per step
    dt_u = (dt * (0.5 * (u[:, :-1] + u[:, 1:]))).T
    for x in _cn_ab2(disc.step_factors(dt), x, dt_u, b_cols, dt, disc.fnl):
        if not np.abs(x).max() <= STATE_CEILING:
            blown = ~(np.abs(x) <= STATE_CEILING).all(axis=0)
            x[:, blown] = np.nan
            if blown.all():  # no column is left to step: the sweep ends
                yield x
                return
        yield x


def solve_forward(disc, x0, u, r, grid, out=None):
    """Integrate the semi-linear system over the grid.

    K controls u (K, n_steps+1) with designs r (K, r_dim) run as one sweep
    of an (n_dof, K) state block, each step one LU solve on K right-hand
    sides, and return a (K, n_steps+1, n_dof) array, out when given: row k
    is column k's trajectory, bit for bit the one its own solve returns. A
    column that blows up raises nothing; its rows are NaN from the failing
    step on (see blowup_of). One control u (n_steps+1,) with its design r
    (r_dim,) runs as a block of one and returns a fresh (n_steps+1, n_dof)
    trajectory, or raises BlowUpError if a state exceeds STATE_CEILING in
    max-norm or goes non-finite (partial: every completed row); out takes
    a block only.
    """
    one = np.ndim(u) == 1
    if one:  # a block of one
        if out is not None:
            raise ValueError("out takes the trajectories of a block of controls")
        u, r = [u], [np.atleast_1d(r)]
    x0, u, r = _check_block(disc, x0, u, r, grid)
    shape = (len(u), grid.n_steps + 1, disc.n_dof)
    traj = np.empty(shape) if out is None else out
    if traj.shape != shape:
        raise ValueError(f"out has shape {traj.shape}, expected {shape}")
    rows = traj.transpose(1, 2, 0)  # time first, one column per solve
    rows[0] = x0[:, None]
    start = np.repeat(x0[:, None], len(u), axis=1)
    for i, x in enumerate(_imex_states(disc, start, u, r, grid.dt), 1):
        rows[i] = x
    traj[:, i + 1:] = np.nan  # the steps after every column blew up
    fault = one and blowup_of(traj[0], grid.dt)
    if fault:
        raise fault
    return traj[0] if one else traj


def blowup_of(traj, dt):
    """The BlowUpError of one trajectory of a block solve_forward, or None
    when it reached the end; its partial holds every completed row."""
    blown = np.isnan(traj[:, 0])
    if not blown[-1]:
        return None
    step = int(np.argmax(blown))
    return BlowUpError(step, step * dt, traj[:step].copy())


def forward_costs(disc, cost, x0, u, r, grid):
    """J of K forward solves from x0, in batched sweeps of column blocks.

    Row k of u (K, n_steps+1) and of r (K, r_dim) drive column k of an
    (n_dof, w) state block, so each step is one LU solve on w right-hand
    sides. The block width w is the most columns whose (n_dof, w) block
    stays under 2 * CHUNK_BYTES, the size below which glibc reuses heap
    memory; the K columns run as consecutive blocks of w. The quadratic
    cost term of each column is taken as the sweep goes; no trajectory is
    kept, only one block's states and w numbers per step. Returns the K
    costs, each bit for bit cost_eval of its own solve_forward, whatever
    the width. A column that blows up raises nothing: its J is NaN, as its
    rows are in a block solve_forward.
    """
    x0, u, r = _check_block(disc, x0, u, r, grid)
    mq = disc.cost_matrix(cost)
    width = max(1, 2 * CHUNK_BYTES // (8 * disc.n_dof))
    buf = np.empty((disc.n_dof, min(width, len(u)) + 1))
    j = np.empty(len(u))
    for lo in range(0, len(u), width):
        u_blk = u[lo:lo + width]
        block = np.repeat(x0[:, None], len(u_blk), axis=1)
        # one row per column; the steps after every column blew up stay NaN
        quad = np.full((len(u_blk), grid.n_steps + 1), np.nan)
        quad[:, 0] = _pairings(block, mq, block, buf)
        states = _imex_states(disc, block, u_blk, r[lo:lo + width], grid.dt)
        for i, x in enumerate(states, 1):
            quad[:, i] = _pairings(x, mq, x, buf)
        # each column's trapezoid sum is a vector dot, as in cost_eval
        j[lo:lo + width] = [grid.theta @ (q + cost.r_weight * u_k * u_k)
                            for q, u_k in zip(quad, u_blk)]
    return j


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
    x0, (u,), (r,) = _check_block(disc, x0, [u], [np.atleast_1d(r)], grid)
    b_vec = disc.b_of_r(r)
    dt = grid.dt
    step = disc.step_factors(dt)
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
            src = u_mid[i] * b_vec
            src[disc.n_space:] += 0.5 * (f_all[i] + f_all[i + 1])
            y_new[i + 1] = step.advance(y_new[i], dt * src)
        diff = y_new - y
        d = math.sqrt(max(np.max(energy_series(disc, diff)), 0.0))
        scale = math.sqrt(max(np.max(np.abs(energy_series(disc, y_new))), 1.0))
        distances.append(d)
        y = y_new
        if d <= tol * scale:
            converged = True
            break
        if len(distances) >= 2 and (not math.isfinite(d) or d > 10.0 * tol * scale):
            bad = bad + 1 if not math.isfinite(d) or d >= distances[-2] else 0
            if bad >= 3:
                raise NonContractionError(distances)
    info = {"iterations": iterations, "distances": distances, "converged": converged}
    return y, info


def _pairings(a, mat, b, buf=None):
    """sum_j a[j, k] (mat @ b)[j, k] per column k of (n, K) blocks, in index
    order whatever K, the layout of a or the chunking of rows: mat @ b goes
    into K columns of an (n, K+1) buffer, as einsum sums contiguous operands
    in SIMD lanes. Every cost and duality pairing is summed here. A sweep
    passes one buf for all its steps: a fresh one per step costs a wide
    block more in page faults than the pairing."""
    if buf is None:
        buf = np.empty((len(b), b.shape[1] + 1))
    view = buf[:, :b.shape[1]]
    view[...] = mat @ b
    return np.einsum("jk,jk->k", a, view)


def chunk_rows(row_bytes):
    """Trajectory rows per chunk when a row's temporaries take row_bytes."""
    return max(1, CHUNK_BYTES // row_bytes)


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
    # <Q x_i, x_i> in chunks of rows, each row summed in index order
    quad = np.empty(len(traj))
    step = chunk_rows(traj[0].nbytes)
    for i in range(0, len(traj), step):
        rows = traj[i:i + step].T
        quad[i:i + step] = _pairings(rows, mq, rows)
    return float(grid.theta @ (quad + cost.r_weight * u * u))
