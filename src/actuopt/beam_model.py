"""Simply supported Euler-Bernoulli beam on an elastic foundation.

Model (position w, velocity v = w_t on (0, l), w = w_xx = 0 at the ends):

    rho_a w_tt + (EI w_xx + c_d v_xx)_xx + mu v + k w + alpha w^3 = b(xi; r) u(t)

discretized by second differences at the interior nodes xi_i = i*dx,
i = 1..n_cells-1. Simple support gives the ghost reflection w_{-1} = -w_1,
so the biharmonic stencil is exactly D2 @ D2 with D2 the Dirichlet
Laplacian. The energy form

    |x|^2 = int EI w_xx^2 + k w^2 + rho_a v^2 dxi

is assembled with trapezoid weights from the same difference operators, so
the undamped system operator is exactly skew-adjoint in the Gram matrix.

BeamDiscretization is the model: its methods sample the control influence
b(xi; r), a raised-cosine bump of unit mass centered at the design point r,
and its closed-form derivative in r, apply the cubic nonlinearity, and
solve the fourth-order adjoint problem of F'(x)*.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core_system import Discretization

# the default actuator bump half-width
ACT_WIDTH = 0.05


@dataclass(frozen=True)
class BeamParams:
    ei: float = 1.0
    rho_a: float = 1.0
    length: float = 1.0
    k: float = 1.0
    alpha: float = 1.0
    mu: float = 0.1
    c_d: float = 0.01
    n_cells: int = 64

    def __post_init__(self):
        for name in ("ei", "rho_a", "length"):
            val = getattr(self, name)
            if not (val > 0.0 and math.isfinite(val)):
                raise ValueError(f"BeamParams.{name} must be positive, got {val}")
        for name in ("k", "alpha", "mu", "c_d"):
            val = getattr(self, name)
            if not (val >= 0.0 and math.isfinite(val)):
                raise ValueError(f"BeamParams.{name} must be >= 0, got {val}")
        if self.n_cells < 8:
            raise ValueError(f"BeamParams.n_cells must be >= 8, got {self.n_cells}")

    @property
    def dx(self):
        return self.length / self.n_cells

    @property
    def nodes(self):
        """Interior node coordinates (the w/v dof locations)."""
        return self.dx * np.arange(1, self.n_cells)


@functools.lru_cache(maxsize=32)
def _matrices(params: BeamParams):
    """Cached difference operators for one parameter set."""
    m = params.n_cells - 1
    dx = params.dx
    d2 = sp.diags(
        [np.ones(m - 1), -2.0 * np.ones(m), np.ones(m - 1)],
        offsets=[-1, 0, 1],
        format="csr",
    ) / dx**2
    d4 = (d2 @ d2).tocsr()
    eye = sp.identity(m, format="csr")
    stiff = (params.ei * d4 + params.k * eye).tocsr()
    damp = (params.c_d * d4 + params.mu * eye).tocsr()
    return {
        "d2": d2,
        "d4": d4,
        "stiff": stiff,
        "damp": damp,
    }


@functools.lru_cache(maxsize=32)
def _stiffness_lu(params: BeamParams):
    # only the oracle's adjoint solve and the Green's check solve with the
    # stiffness, so it is factorised on first use, not with every assembly
    return spla.splu(_matrices(params)["stiff"].tocsc())


def greens_eval(params, xi, eta):
    """Closed-form simply supported Green's function (requires k = 0).

    Valid for the pure bending operator EI h'''' = delta(xi - eta); the
    foundation term destroys the cubic form, so k != 0 is rejected. The
    formula is symmetric by construction: it evaluates the single
    polynomial branch at (min, max) of the two arguments.
    """
    if params.k != 0.0:
        raise ValueError(
            "closed-form Green's function requires k = 0 "
            f"(got k = {params.k}); use stiffness_solve instead"
        )
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    ell = params.length
    x = np.minimum(xi, eta)
    y = np.maximum(xi, eta)
    val = ((2.0 * ell**2 * y - 3.0 * ell * y**2 + y**3) * x + (y - ell) * x**3) / (
        6.0 * ell * params.ei
    )
    return val


def greens_apply(params, f):
    """Deflection under load f by Green's-function quadrature (k = 0 only).

    Composite trapezoid on [0, L]: the boundary terms drop out because
    G(xi, 0) = G(xi, L) = 0, leaving a plain dx-weighted sum over the
    interior nodes.
    """
    nodes = params.nodes
    gmat = greens_eval(params, nodes[:, None], nodes[None, :])
    return params.dx * (gmat @ np.asarray(f, dtype=float))


def stiffness_solve(params, f):
    """Solve (EI D4 + k I) w = f on the interior nodes (simply supported)."""
    return _stiffness_lu(params).solve(np.asarray(f, dtype=float))


def _cost_matrix(params, q1, q2):
    """Symmetric PSD matrix of the weighted energy quadratic form."""
    m = params.n_cells - 1
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    if q1.shape != (m,) or q2.shape != (m,):
        raise ValueError(
            f"beam cost fields must have shape ({m},) (interior nodes); "
            f"got q1 {q1.shape}, q2 {q2.shape}"
        )
    dx = params.dx
    d2 = _matrices(params)["d2"]
    mw = (dx * params.ei) * (d2.T @ sp.diags(q1) @ d2) + (dx * params.k) * sp.diags(q1)
    mv = (dx * params.rho_a) * sp.diags(q2)
    mat = sp.block_diag((mw, mv), format="csr")
    return ((mat + mat.T) * 0.5).tocsr()


def _greens_gap(params, n_cells):
    """Max gap between Green's quadrature and the direct 4th-order solve."""
    p = replace(params, n_cells=n_cells)
    xi = p.nodes
    f = np.sin(np.pi * xi / p.length) + xi * (p.length - xi)
    return float(np.max(np.abs(greens_apply(p, f) - stiffness_solve(p, f))))


class BeamDiscretization(Discretization):
    """The beam: one design dimension along (0, length); q1/q2 and the
    position dofs both sit at the interior nodes, the attribute nodes."""

    model = "beam"
    params_cls = BeamParams
    default_act_width = ACT_WIDTH
    r_dim = 1

    def __init__(self, params, act_width):
        if not (act_width > 0.0 and math.isfinite(act_width)):
            raise ValueError(f"actuator width must be positive, got {act_width}")
        mats = _matrices(params)
        m = params.n_cells - 1
        stiff = mats["stiff"]
        damp = mats["damp"]
        eye = sp.identity(m, format="csr")
        inv_rho = 1.0 / params.rho_a
        a_mat = sp.bmat(
            [[None, eye], [-inv_rho * stiff, -inv_rho * damp]], format="csr"
        )
        # Closed-form adjoint w.r.t. the energy Gram: A*(f,g) =
        # (-g, (EI D4 + k) f / rho_a - (c_d D4 + mu) g / rho_a).
        astar = sp.bmat(
            [[None, -eye], [inv_rho * stiff, -inv_rho * damp]], format="csr"
        )
        gram = _cost_matrix(params, np.ones(m), np.ones(m))
        super().__init__(m, a_mat, gram, astar)
        self.params = params
        self.act_width = act_width
        self.nodes = params.nodes
        self._inv_rho = inv_rho

    @staticmethod
    def assemble(params, act_width):
        return assemble_beam(params, act_width)

    @staticmethod
    def domain(params):
        return (params.length,)

    @staticmethod
    def spacing(params):
        return (params.dx,)

    def fnl(self, x):
        w = x[:self.n_space]
        if self.params.alpha == 0.0:
            return np.zeros_like(w)
        return (-self.params.alpha * self._inv_rho) * w ** 3

    def fnl_diag(self, x):
        return (-3.0 * self.params.alpha * self._inv_rho) * x[..., :self.n_space] ** 2

    def b_of_r(self, r_arr):
        """The bump b(xi; r) / rho_a in the velocity rows: nonnegative,
        supported in [r - width, r + width], unit mass up to quadrature."""
        self.check_support(r_arr)
        r = float(r_arr[0])
        m = self.n_space
        width = self.act_width
        z = (self.nodes - r) / width
        mask = np.abs(z) < 1.0
        vec = np.zeros(2 * m)
        vec[m:][mask] = self._inv_rho * ((1.0 + np.cos(np.pi * z[mask])) / (2.0 * width))
        return vec

    def b_jac_of_r(self, r_arr):
        m = self.n_space
        width = self.act_width
        z = (self.nodes - float(r_arr[0])) / width
        mask = np.abs(z) < 1.0
        jac = np.zeros((2 * m, 1))
        jac[m:, 0][mask] = self._inv_rho * (
            (np.pi / (2.0 * width**2)) * np.sin(np.pi * z[mask]))
        return jac

    def fstar_h(self, w_field, g):
        """Solves (EI D4 + k I) h = -3 alpha w^2 g, simply supported."""
        w_o = np.asarray(w_field, dtype=float)
        g = np.asarray(g, dtype=float)
        return stiffness_solve(self.params, (-3.0 * self.params.alpha) * w_o**2 * g)

    def cost_matrix_fn(self, cost):
        return _cost_matrix(self.params, cost.q1, cost.q2)

    def cost_coords(self):
        return (self.nodes,)

    dof_coords = cost_coords

    def probe_columns(self, points, traj):
        """Deflection at each point, linear between nodes, zero at the ends."""
        xp = np.concatenate(([0.0], self.nodes, [self.params.length]))
        w = traj[:, :self.n_space]
        return [
            np.array([np.interp(px, xp, np.concatenate(([0.0], row, [0.0])))
                      for row in w])
            for (px,) in points
        ]

    @staticmethod
    def greens_check(params):
        """Green's quadrature vs the direct solve at h and h/2 (EI = 1, k = 0)."""
        if not (params.ei == 1.0 and params.k == 0.0):
            return None
        e_h = _greens_gap(params, params.n_cells)
        e_h2 = _greens_gap(params, 2 * params.n_cells)
        return {
            "e_h": e_h,
            "e_half_h": e_h2,
            "ratio": e_h2 / e_h if e_h > 0 else 0.0,
            "pass": bool(e_h < 1e-12 or e_h2 <= 0.35 * e_h),
        }


def assemble_beam(params, act_width=ACT_WIDTH):
    """Build the beam Discretization.

    act_width fixes the actuator bump half-width used by b_of_r (the
    design variable is the center only).
    """
    return BeamDiscretization(params, act_width)
