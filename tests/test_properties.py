"""Properties of the step and the block sweeps over small random models.

Each example draws a beam (n_cells, cubic or linear) or a wave (nx, ny,
Neumann edge set, each nonlinearity family) and checks an invariant that
the tests at fixed sizes check only at a few points. The examples are
derandomized and no example database is kept, so every run checks the
same models.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import actuopt as ao
import actuopt.core_system as core_system
from actuopt.core_system import CNStep

from conftest import make_beam, make_wave

SMALL = settings(derandomize=True, database=None, deadline=None, max_examples=40)
N_STEPS = 12

beams = st.builds(
    lambda n_cells, alpha: make_beam(n_cells=n_cells, alpha=alpha,
                                     t_final=0.2, n_steps=N_STEPS),
    st.integers(8, 24), st.sampled_from([0.0, 1.0, 4.0]),
)
waves = st.builds(
    lambda nx, ny, edges, family, kg: make_wave(
        nx=nx, ny=ny, gamma1_edges=tuple(edges), nonlinearity=family,
        kg_exponent=kg, t_final=0.2, n_steps=N_STEPS),
    st.integers(8, 12), st.integers(8, 12),
    st.sets(st.sampled_from(["bottom", "left", "right", "top"]), max_size=3),
    st.sampled_from(["none", "sine_gordon", "klein_gordon"]), st.integers(2, 3),
)
models = st.one_of(beams, waves)


def _designs(disc, rng, k):
    """k actuator centres whose support stays inside the domain."""
    width = disc.act_width
    return np.array([[rng.uniform(width, length - width)
                      for length in disc.domain(disc.params)] for _ in range(k)])


@SMALL
@given(problem=models, k=st.sampled_from([None, 1, 4]),
       seed=st.integers(0, 2**32 - 1))
def test_step_transpose_is_exact_for_a_and_a_star(problem, k, seed):
    # y . advance(x, s) = advance_T(y, 0) . x + advance_T(0, y) . s, column
    # by column, to roundoff relative to the Cauchy-Schwarz bound of each
    # side; M = A (every sweep) and M = A* (the continuous-adjoint oracle)
    _, disc, grid, _, _ = problem
    rng = np.random.default_rng(seed)
    shape = (disc.n_dof,) if k is None else (disc.n_dof, k)
    zero = np.zeros(shape)
    for adjoint in (False, True):
        step = CNStep(disc, grid.dt, adjoint)
        x, s, y = (rng.standard_normal(shape) for _ in range(3))
        for a, fwd, bwd in ((x, step.advance(x, zero), step.advance_T(y, zero)),
                            (s, step.advance(zero, s), step.advance_T(zero, y))):
            gap = np.abs(np.sum(y * fwd, axis=0) - np.sum(bwd * a, axis=0))
            scale = np.linalg.norm(y, axis=0) * np.linalg.norm(fwd, axis=0)
            assert np.all(gap <= 1e-13 * scale), gap / scale


@SMALL
@given(problem=models, k=st.integers(2, 5), chunk_bytes=st.sampled_from([1, 2**10, 2**16]),
       seed=st.integers(0, 2**32 - 1))
def test_block_sweeps_equal_their_single_sweeps(problem, k, chunk_bytes, seed):
    # a column of a block sweep is bit for bit its own sweep, at any block
    # width and any row chunk of the cost and the transpose sweep
    _, disc, grid, cost, x0 = problem
    rng = np.random.default_rng(seed)
    u = 0.5 * rng.standard_normal((k, grid.n_steps + 1))
    r = _designs(disc, rng, k)
    saved = core_system.CHUNK_BYTES
    core_system.CHUNK_BYTES = chunk_bytes
    try:
        block = ao.solve_forward(disc, x0, u, r, grid)
        costs = ao.forward_costs(disc, cost, x0, u, r, grid)
        lams = ao.solve_adjoint(disc, cost, block, grid)
        for u_k, r_k, traj, j, lam in zip(u, r, block, costs, lams):
            single = ao.solve_forward(disc, x0, u_k, r_k, grid)
            np.testing.assert_array_equal(traj, single)
            assert j == ao.cost_eval(disc, cost, single, u_k, grid)
            np.testing.assert_array_equal(lam, ao.solve_adjoint(disc, cost, single, grid))
    finally:
        core_system.CHUNK_BYTES = saved
