import numpy as np
import pytest
import scipy.sparse as sp

import actuopt as ao

# acceptance criterion results, printed as one line each at the end of the
# run (number -> (label, passed))
_ACCEPTANCE = {}


def record_acceptance(num, label, passed):
    _ACCEPTANCE[num] = (label, bool(passed))
    return bool(passed)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        label, ok = _ACCEPTANCE[num]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d}: {status}  {label}")


def make_beam(n_cells=16, t_final=0.4, n_steps=40, act_width=0.05, **kw):
    """Small beam problem bundle for unit tests."""
    params = ao.BeamParams(n_cells=n_cells, **kw)
    disc = ao.assemble_beam(params, act_width=act_width)
    grid = ao.TimeGrid(t_final, n_steps)
    m = disc.n_space
    cost = ao.CostSpec(q1=np.ones(m), q2=np.ones(m))
    x0 = np.zeros(disc.n_dof)
    x0[:m] = np.sin(np.pi * params.nodes / params.length)
    return params, disc, grid, cost, x0


def make_wave(nx=10, ny=10, t_final=0.4, n_steps=40, act_width=0.1, **kw):
    params = ao.WaveParams(nx=nx, ny=ny, **kw)
    disc = ao.assemble_wave(params, act_width=act_width)
    grid = ao.TimeGrid(t_final, n_steps)
    nn = disc.n_nodes
    cost = ao.CostSpec(q1=np.ones(nn), q2=np.ones(nn))
    idx = disc.free_idx
    xf = disc.xcoord[idx]
    yf = disc.ycoord[idx]
    x0 = np.zeros(disc.n_dof)
    x0[: disc.n_space] = np.sin(np.pi * xf / params.lx) * np.sin(
        np.pi * yf / params.ly
    )
    return params, disc, grid, cost, x0


def operator(disc, adjoint=False):
    """The (2m, 2m) reference operator [[0, s I], [B, C]] of A, or of its
    closed-form A* (s = -1) as the continuous-adjoint oracle steps it, built
    from the model's m x m blocks."""
    b_blk, c_blk = disc.adjoint_blocks if adjoint else disc.blocks
    sign = -1.0 if adjoint else 1.0
    eye = sp.identity(disc.n_space, format="csr")
    return sp.bmat([[None, sign * eye], [b_blk, c_blk]], format="csr")


def gradients_at(disc, cost, x0, u, r, grid):
    """(grad_u, grad_r) of the discrete J at (u, r) from x0: one forward
    sweep, one adjoint sweep and their pairing, as the optimizer forms it."""
    traj = ao.solve_forward(disc, x0, u, r, grid)
    lam = ao.solve_adjoint(disc, cost, traj, grid)
    return ao.gradients_from_adjoint(disc, cost, u, r, lam, grid)


@pytest.fixture
def beam_small():
    return make_beam()


@pytest.fixture
def wave_small():
    return make_wave()
