"""Semi-linear wave equation on a rectangle with mixed boundary conditions.

Model on Omega = (0, Lx) x (0, Ly):

    w_tt = Lap w + F(w) + r(xi) u(t),
    w = 0 on the Dirichlet part Gamma0,  dw/dnu = 0 on the Neumann part
    Gamma1 (edge subsets of {left, right, bottom, top}; Gamma0 nonempty).

Spatial discretization: tensor grid, first differences at edge midpoints
for the gradient form. The stiffness matrix

    L = Dx^T Wx Dx + Dy^T Wy Dy,  Dx = I (x) D_x,  Dy = D_y (x) I

(Kronecker products of 1-D differences, trapezoid cross-weights in W)
restricted to the non-Dirichlet nodes reproduces the 5-point Laplacian
inside the domain and the ghost-node mirror on Neumann edges, while
staying exactly symmetric. With the lumped trapezoid mass Mv the discrete
Laplacian is -Mv^{-1} L and the first-order system A(w, v) = (v, Lap_h w)
is exactly skew-adjoint in the energy Gram blockdiag(L, Mv) -- the
H^1_{Gamma0} x L^2 form (seminorm plus the Gamma0 trace constraint).

WaveDiscretization is the model: its methods apply the nonlinearity family
of the parameters, none, sine_gordon (F = sin) or klein_gordon (F =
|w|^k w), and its derivative, a pair picked once from _FAMILIES; sample
the actuator, a radial raised-cosine bump of unit mass, and its analytic
center derivatives; and solve the elliptic adjoint problem of F'(x)*.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core_system import Discretization

# the default actuator bump radial half-width
ACT_WIDTH = 0.1

_EDGES = ("bottom", "left", "right", "top")
# each nonlinearity family's (f, f') of the positions w and the
# klein_gordon exponent k
_FAMILIES = {
    "none": (lambda w, k: np.zeros_like(w), lambda w, k: np.zeros_like(w)),
    "sine_gordon": (lambda w, k: np.sin(w), lambda w, k: np.cos(w)),
    "klein_gordon": (lambda w, k: np.abs(w) ** k * w,
                     lambda w, k: (k + 1.0) * np.abs(w) ** k),
}


@dataclass(frozen=True)
class WaveParams:
    lx: float = 1.0
    ly: float = 1.0
    nx: int = 24
    ny: int = 24
    gamma1_edges: tuple = ()
    nonlinearity: str = "sine_gordon"
    kg_exponent: int = 2

    def __post_init__(self):
        if not (self.lx > 0.0 and self.ly > 0.0):
            raise ValueError("rectangle side lengths must be positive")
        if self.nx < 8 or self.ny < 8:
            raise ValueError(
                f"grid resolutions must be >= 8, got nx={self.nx}, ny={self.ny}"
            )
        edges = tuple(sorted(set(self.gamma1_edges)))
        for e in edges:
            if e not in _EDGES:
                raise ValueError(f"unknown edge name {e!r}; use one of {_EDGES}")
        if len(edges) == 4:
            raise ValueError(
                "all four edges are Neumann: the Dirichlet part must be nonempty"
            )
        object.__setattr__(self, "gamma1_edges", edges)
        if self.nonlinearity not in _FAMILIES:
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}; "
                             f"use one of {tuple(_FAMILIES)}")
        if self.nonlinearity == "klein_gordon" and self.kg_exponent < 2:
            raise ValueError(
                f"klein_gordon exponent must be >= 2, got {self.kg_exponent}"
            )

    @property
    def hx(self):
        return self.lx / self.nx

    @property
    def hy(self):
        return self.ly / self.ny


def _diff(n, h):
    """The (n, n+1) first difference (v[i+1] - v[i]) / h on n+1 nodes."""
    return sp.diags([-1.0 / h, 1.0 / h], [0, 1], shape=(n, n + 1))


def _trapezoid(n):
    """The trapezoid weights of n+1 nodes at unit spacing."""
    return np.concatenate(([0.5], np.ones(n - 1), [0.5]))


@functools.lru_cache(maxsize=16)
def _assembly(params: WaveParams):
    # flat node index = i + j*(nx+1): x varies fastest, so an operator along
    # x is kron(I_y, op_x) and one along y is kron(op_y, I_x)
    nx, ny = params.nx, params.ny
    hx, hy = params.hx, params.hy
    n_nodes = (nx + 1) * (ny + 1)
    ii = np.tile(np.arange(nx + 1), ny + 1)
    jj = np.repeat(np.arange(ny + 1), nx + 1)

    dirichlet = np.zeros(n_nodes, dtype=bool)
    for edge, nodes in (("left", ii == 0), ("right", ii == nx),
                        ("bottom", jj == 0), ("top", jj == ny)):
        if edge not in params.gamma1_edges:
            dirichlet |= nodes
    free_idx = np.flatnonzero(~dirichlet)

    def edge_ops(sx, sy):
        # the differences along the x edges (i,j)->(i+1,j) and the y edges
        # (i,j)->(i,j+1), each edge list in node order
        return (sp.kron(sp.identity(ny + 1), _diff(nx, sx), format="csr"),
                sp.kron(_diff(ny, sy), sp.identity(nx + 1), format="csr"))

    dx_op, dy_op = edge_ops(hx, hy)
    # |D| at h = 2 averages the two end nodes with exact 1/2 weights
    avg_x, avg_y = (abs(op) for op in edge_ops(2.0, 2.0))
    tx, ty = _trapezoid(nx), _trapezoid(ny)
    # trapezoid cross-weights: an edge along the boundary weighs half
    wx = hx * hy * np.repeat(ty, nx)
    wy = hx * hy * np.tile(tx, ny)
    mv_full = hx * hy * np.kron(ty, tx)

    def stiffness(q1_full):
        qx, qy = avg_x @ q1_full, avg_y @ q1_full
        l_full = dx_op.T @ sp.diags(wx * qx) @ dx_op + dy_op.T @ sp.diags(wy * qy) @ dy_op
        l_red = l_full.tocsr()[free_idx, :][:, free_idx]
        return ((l_red + l_red.T) * 0.5).tocsr()

    l_mat = stiffness(np.ones(n_nodes))
    return {
        "n_nodes": n_nodes,
        "xcoord": ii * hx,
        "ycoord": jj * hy,
        "free_idx": free_idx,
        "stiffness": stiffness,
        "l_mat": l_mat,
        "mv_free": mv_full[free_idx],
    }


@functools.lru_cache(maxsize=16)
def _laplacian_lu(params: WaveParams):
    # only fstar_h (the continuous-adjoint oracle) solves with L, so it is
    # factorised on first use, not with every assembly
    return spla.splu(_assembly(params)["l_mat"].tocsc())


class WaveDiscretization(Discretization):
    """The wave: two design dimensions over (0, lx) x (0, ly); q1/q2 are
    sampled at all n_nodes grid nodes (coordinates xcoord, ycoord), the
    position dofs sit at the free (non-Dirichlet) nodes free_idx."""

    model = "wave"
    params_cls = WaveParams
    default_act_width = ACT_WIDTH
    r_dim = 2

    def __init__(self, params, act_width):
        if not (act_width > 0.0 and math.isfinite(act_width)):
            raise ValueError(f"actuator width must be positive, got {act_width}")
        asm = _assembly(params)
        m = asm["free_idx"].size
        l_mat = asm["l_mat"]
        mv = asm["mv_free"]
        eye = sp.identity(m, format="csr")
        lap = (sp.diags(-1.0 / mv) @ l_mat).tocsr()
        a_mat = sp.bmat([[None, eye], [lap, None]], format="csr")
        astar = (-a_mat).tocsr()
        gram = sp.block_diag((l_mat, sp.diags(mv)), format="csr")
        super().__init__(m, a_mat, gram, astar)
        self.params = params
        self.act_width = act_width
        self.free_idx = asm["free_idx"]
        self.xcoord = asm["xcoord"]
        self.ycoord = asm["ycoord"]
        self.n_nodes = asm["n_nodes"]
        self._stiffness = asm["stiffness"]
        self._mv = mv
        self._kg = int(params.kg_exponent)
        self._f, self._fprime = _FAMILIES[params.nonlinearity]

    @staticmethod
    def assemble(params, act_width):
        return assemble_wave(params, act_width)

    @staticmethod
    def domain(params):
        return (params.lx, params.ly)

    @staticmethod
    def spacing(params):
        return (params.hx, params.hy)

    def fnl(self, x):
        return self._f(x[:self.n_space], self._kg)

    def fnl_diag(self, x):
        return self._fprime(x[..., :self.n_space], self._kg)

    def b_of_r(self, c_arr):
        """The radial bump r(xi) at the free nodes, in the velocity rows;
        its continuous integral over the plane is 1."""
        self.check_support(c_arr)
        c1, c2 = float(c_arr[0]), float(c_arr[1])
        width = self.act_width
        m = self.n_space
        xp, yp = self.dof_coords()
        rho = np.hypot(xp - c1, yp - c2)
        cnorm = np.pi / (width**2 * (np.pi**2 - 4.0))
        mask = rho < width
        vec = np.zeros(2 * m)
        vec[m:][mask] = cnorm * (1.0 + np.cos(np.pi * rho[mask] / width))
        return vec

    def b_jac_of_r(self, c_arr):
        m = self.n_space
        width = self.act_width
        xp, yp = self.dof_coords()
        d1 = xp - float(c_arr[0])
        d2 = yp - float(c_arr[1])
        rho = np.hypot(d1, d2)
        cnorm = np.pi / (width**2 * (np.pi**2 - 4.0))
        mask = (rho < width) & (rho > 0.0)
        coef = cnorm * (np.pi / width) * np.sin(np.pi * rho[mask] / width) / rho[mask]
        jac = np.zeros((2 * m, 2))
        jac[m:, 0][mask] = coef * d1[mask]
        jac[m:, 1][mask] = coef * d2[mask]
        return jac

    def fstar_h(self, w_field, g):
        """Solves Lap h = -F'(w) g with h = 0 on Gamma0 and dh/dnu = 0 on
        Gamma1, discretely L h = Mv F'(w) g on the free nodes."""
        w_o = np.asarray(w_field, dtype=float)
        g = np.asarray(g, dtype=float)
        return _laplacian_lu(self.params).solve(self._mv * (self.fnl_diag(w_o) * g))

    def cost_matrix_fn(self, cost):
        n_nodes = self.n_nodes
        if cost.q1.shape != (n_nodes,) or cost.q2.shape != (n_nodes,):
            raise ValueError(
                f"wave cost fields must have shape ({n_nodes},) (all grid "
                f"nodes); got q1 {cost.q1.shape}, q2 {cost.q2.shape}"
            )
        mw = self._stiffness(cost.q1)
        mv_block = sp.diags(self._mv * cost.q2[self.free_idx])
        return sp.block_diag((mw, mv_block), format="csr")

    def cost_coords(self):
        return (self.xcoord, self.ycoord)

    def dof_coords(self):
        return (self.xcoord[self.free_idx], self.ycoord[self.free_idx])

    def probe_columns(self, points, traj):
        """Displacement at the free node nearest to each point."""
        xc, yc = self.dof_coords()
        return [traj[:, int(np.argmin((xc - px) ** 2 + (yc - py) ** 2))].copy()
                for px, py in points]

    @staticmethod
    def greens_check(params):
        return None


def assemble_wave(params, act_width=ACT_WIDTH):
    """Build the wave Discretization (act_width fixes the bump radius)."""
    return WaveDiscretization(params, act_width)
