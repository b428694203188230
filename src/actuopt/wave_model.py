"""Semi-linear wave equation on a rectangle with mixed boundary conditions.

Model on Omega = (0, Lx) x (0, Ly):

    w_tt = Lap w + F(w) + r(xi) u(t),
    w = 0 on the Dirichlet part Gamma0,  dw/dnu = 0 on the Neumann part
    Gamma1 (edge subsets of {left, right, bottom, top}; Gamma0 nonempty).

Spatial discretization: tensor grid, first differences at edge midpoints
for the gradient form. The stiffness matrix

    L = Dx^T Wx Dx + Dy^T Wy Dy

(with trapezoid cross-weights in W) restricted to the non-Dirichlet nodes
reproduces the 5-point Laplacian inside the domain and the ghost-node
mirror on Neumann edges, while staying exactly symmetric. With the lumped
trapezoid mass Mv the discrete Laplacian is -Mv^{-1} L and the first-order
system A(w, v) = (v, Lap_h w) is exactly skew-adjoint in the energy Gram
blockdiag(L, Mv) -- the H^1_{Gamma0} x L^2 form (seminorm plus the Gamma0
trace constraint).

WaveDiscretization is the model: its methods apply the nonlinearity family
of the parameters, none, sine_gordon (F = sin) or klein_gordon
(F = |w|^k w), and its derivative; sample the actuator, a radial
raised-cosine bump of unit mass, and its analytic center derivatives; and
solve the elliptic adjoint problem of F'(x)*.
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
_FAMILIES = ("none", "sine_gordon", "klein_gordon")


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
            raise ValueError(
                f"unknown nonlinearity {self.nonlinearity!r}; use one of {_FAMILIES}"
            )
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


@functools.lru_cache(maxsize=16)
def _assembly(params: WaveParams):
    # flat node index = i + j*(nx+1): x varies fastest

    nx, ny = params.nx, params.ny
    hx, hy = params.hx, params.hy
    n_nodes = (nx + 1) * (ny + 1)

    ii = np.tile(np.arange(nx + 1), ny + 1)
    jj = np.repeat(np.arange(ny + 1), nx + 1)
    xcoord = ii * hx
    ycoord = jj * hy

    dirichlet = np.zeros(n_nodes, dtype=bool)
    gamma1 = set(params.gamma1_edges)
    if "left" not in gamma1:
        dirichlet |= ii == 0
    if "right" not in gamma1:
        dirichlet |= ii == nx
    if "bottom" not in gamma1:
        dirichlet |= jj == 0
    if "top" not in gamma1:
        dirichlet |= jj == ny
    free = ~dirichlet
    free_idx = np.flatnonzero(free)

    def flat(i, j):
        return i + j * (nx + 1)

    # x-direction edges: (i,j)->(i+1,j), i=0..nx-1, j=0..ny
    ei = np.tile(np.arange(nx), ny + 1)
    ej = np.repeat(np.arange(ny + 1), nx)
    xa = flat(ei, ej)
    xb = flat(ei + 1, ej)
    n_xe = xa.size
    rows = np.repeat(np.arange(n_xe), 2)
    cols = np.column_stack([xa, xb]).ravel()
    vals = np.tile([-1.0 / hx, 1.0 / hx], n_xe)
    dx_op = sp.coo_matrix((vals, (rows, cols)), shape=(n_xe, n_nodes)).tocsr()
    cy = np.where((ej == 0) | (ej == ny), 0.5, 1.0)
    wx = hx * hy * cy

    # y-direction edges: (i,j)->(i,j+1), i=0..nx, j=0..ny-1
    fi = np.tile(np.arange(nx + 1), ny)
    fj = np.repeat(np.arange(ny), nx + 1)
    ya = flat(fi, fj)
    yb = flat(fi, fj + 1)
    n_ye = ya.size
    rows = np.repeat(np.arange(n_ye), 2)
    cols = np.column_stack([ya, yb]).ravel()
    vals = np.tile([-1.0 / hy, 1.0 / hy], n_ye)
    dy_op = sp.coo_matrix((vals, (rows, cols)), shape=(n_ye, n_nodes)).tocsr()
    cx = np.where((fi == 0) | (fi == nx), 0.5, 1.0)
    wy = hx * hy * cx

    cx_node = np.where((ii == 0) | (ii == nx), 0.5, 1.0)
    cy_node = np.where((jj == 0) | (jj == ny), 0.5, 1.0)
    mv_full = hx * hy * cx_node * cy_node

    def stiffness(q1_full):
        qx = 0.5 * (q1_full[xa] + q1_full[xb])
        qy = 0.5 * (q1_full[ya] + q1_full[yb])
        l_full = dx_op.T @ sp.diags(wx * qx) @ dx_op + dy_op.T @ sp.diags(wy * qy) @ dy_op
        l_red = l_full.tocsr()[free_idx, :][:, free_idx]
        return ((l_red + l_red.T) * 0.5).tocsr()

    l_mat = stiffness(np.ones(n_nodes))
    return {
        "n_nodes": n_nodes,
        "xcoord": xcoord,
        "ycoord": ycoord,
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
        w = x[:self.n_space]
        if self.params.nonlinearity == "sine_gordon":
            return np.sin(w)
        if self.params.nonlinearity == "klein_gordon":
            return np.abs(w) ** self._kg * w
        return np.zeros_like(w)

    def fnl_diag(self, x):
        w = x[..., :self.n_space]
        if self.params.nonlinearity == "sine_gordon":
            return np.cos(w)
        if self.params.nonlinearity == "klein_gordon":
            return (self._kg + 1.0) * np.abs(w) ** self._kg
        return np.zeros_like(w)

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
