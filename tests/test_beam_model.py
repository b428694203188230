import numpy as np
import pytest

import actuopt as ao
from actuopt.beam_model import _matrices

from conftest import operator


@pytest.mark.parametrize("kw", [
    {"n_cells": 4},
    {"ei": 0.0},
    {"rho_a": -1.0},
    {"length": 0.0},
    {"alpha": -0.5},
])
def test_params_validation(kw):
    with pytest.raises(ValueError):
        ao.BeamParams(**kw)


def test_fourth_difference_equals_reflected_pentadiagonal():
    # independent construction of the simply supported 4th-difference
    # operator: interior stencil (1, -4, 6, -4, 1)/dx^4, with the ghost
    # reflection w(-1) = -w(1) bumping the corner diagonal to 5/dx^4
    params = ao.BeamParams(n_cells=16)
    m = params.n_cells - 1
    dx = params.dx
    d4 = _matrices(params)["d4"].toarray()

    ref = np.zeros((m, m))
    for i in range(m):
        for j, c in ((i - 2, 1.0), (i - 1, -4.0), (i, 6.0), (i + 1, -4.0), (i + 2, 1.0)):
            if 0 <= j < m:
                ref[i, j] += c
    ref[0, 0] -= 1.0
    ref[m - 1, m - 1] -= 1.0
    ref /= dx**4
    np.testing.assert_allclose(d4, ref, rtol=1e-12)


def test_influence_shape_support_and_mass():
    params = ao.BeamParams(n_cells=128)
    r, width = 0.37, 0.05
    disc = ao.assemble_beam(params, width)
    b = params.rho_a * disc.b_of_r(np.array([r]))[disc.n_space:]
    nodes = params.nodes
    assert np.all(b >= 0.0)
    assert np.all(b[np.abs(nodes - r) >= width] == 0.0)
    # unit mass up to quadrature error
    assert abs(np.sum(b) * params.dx - 1.0) < 5e-3


def test_influence_derivative_matches_fd():
    disc = ao.assemble_beam(ao.BeamParams(n_cells=64))
    r0 = 0.31  # support edges off the grid nodes, keeps J(r) smooth here
    eps = 1e-7
    bp = disc.b_of_r(np.array([r0 + eps]))
    bm = disc.b_of_r(np.array([r0 - eps]))
    fd = (bp - bm) / (2.0 * eps)
    der = disc.b_jac_of_r(np.array([r0]))[:, 0]
    np.testing.assert_allclose(der, fd, atol=1e-5 * np.max(np.abs(der)))


def test_nonlinearity_and_jacobian_diag(beam_small):
    params, disc, grid, _, x0 = beam_small
    m = disc.n_space
    rng = np.random.default_rng(3)
    x = rng.standard_normal(disc.n_dof)
    f = disc.fnl(x)  # the velocity rows of F = [0; f]
    assert f.shape == (m,)
    np.testing.assert_allclose(
        f, -params.alpha * x[:m] ** 3 / params.rho_a, rtol=1e-14
    )
    # diagonal of the w -> v-equation coupling vs finite differences
    d = disc.fnl_diag(x)
    eps = 1e-6
    for k in (0, m // 2, m - 1):
        dx = np.zeros(disc.n_dof)
        dx[k] = eps
        fd = (disc.fnl(x + dx) - disc.fnl(x - dx))[k] / (2.0 * eps)
        assert abs(d[k] - fd) < 1e-5 * max(1.0, abs(d[k]))


def test_operator_adjoint_identity_in_energy_product(beam_small):
    # <A z, y>_G == <z, A* y>_G is exact linear algebra for the assembled
    # closed-form adjoint; only roundoff separates the two sides
    _, disc, _, _, _ = beam_small
    rng = np.random.default_rng(4)
    for _ in range(5):
        z = rng.standard_normal(disc.n_dof)
        y = rng.standard_normal(disc.n_dof)
        lhs = ao.energy_inner(disc, operator(disc) @ z, y)
        rhs = ao.energy_inner(disc, z, operator(disc, adjoint=True) @ y)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) / scale < 1e-10


def test_nonlinearity_adjoint_pair_identity(beam_small):
    # <F'(x) z, y>_G == <z, F'(x)* y>_G with F'* realized by the
    # fourth-order solve; the identity is exact by construction
    params, disc, _, _, x0 = beam_small
    m = disc.n_space
    rng = np.random.default_rng(5)
    w_o = rng.standard_normal(m)
    d = -3.0 * params.alpha * w_o**2 / params.rho_a
    for _ in range(3):
        z = rng.standard_normal(disc.n_dof)
        y = rng.standard_normal(disc.n_dof)
        fz = np.zeros(disc.n_dof)
        fz[m:] = d * z[:m]
        lhs = ao.energy_inner(disc, fz, y)
        h = disc.fstar_h(w_o, y[m:])
        fy = np.zeros(disc.n_dof)
        fy[:m] = h
        rhs = ao.energy_inner(disc, z, fy)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) / scale < 1e-8


def test_greens_requires_no_foundation():
    with pytest.raises(ValueError):
        ao.greens_eval(ao.BeamParams(k=1.0), 0.5, 0.5)


def test_greens_pinned_value_and_symmetry():
    params = ao.BeamParams(ei=1.0, k=0.0)
    ell = params.length
    assert abs(ao.greens_eval(params, ell / 2, ell / 2) - ell**3 / 48.0) < 1e-15
    xs = np.linspace(0.02, 0.98, 20)
    g = ao.greens_eval(params, xs[:, None], xs[None, :])
    assert np.max(np.abs(g - g.T)) < 1e-12


def test_greens_quadrature_vs_direct_solve_second_order():
    def gap(n_cells):
        p = ao.BeamParams(ei=1.0, k=0.0, n_cells=n_cells)
        xi = p.nodes
        f = np.sin(np.pi * xi / p.length) + xi * (p.length - xi)
        return np.max(np.abs(ao.greens_apply(p, f) - ao.stiffness_solve(p, f)))

    e1, e2 = gap(32), gap(64)
    assert e1 < 1e-3
    assert e2 <= 0.35 * e1  # O(h^2): ratio about 1/4


def test_uniform_cost_matrix_is_the_gram_matrix():
    params = ao.BeamParams(n_cells=24)
    disc = ao.assemble_beam(params)
    m = disc.n_space
    mq = disc.cost_matrix(ao.CostSpec(q1=np.ones(m), q2=np.ones(m)))
    # identical construction path: equality is bitwise, not approximate
    assert (mq != disc.gram).nnz == 0
    np.testing.assert_array_equal(mq.toarray(), disc.gram.toarray())


def test_cost_matrix_symmetric_psd():
    params = ao.BeamParams(n_cells=16)
    disc = ao.assemble_beam(params)
    m = disc.n_space
    rng = np.random.default_rng(6)
    q1 = rng.uniform(0.0, 2.0, m)
    q2 = rng.uniform(0.0, 2.0, m)
    mq = disc.cost_matrix(ao.CostSpec(q1=q1, q2=q2)).toarray()
    np.testing.assert_allclose(mq, mq.T, atol=1e-14 * np.max(np.abs(mq)))
    eig = np.linalg.eigvalsh(mq)
    assert eig.min() > -1e-10 * max(1.0, eig.max())


def test_influence_wiring_into_state_space(beam_small):
    params, disc, _, _, _ = beam_small
    m = disc.n_space
    r = np.array([0.4])
    vec = disc.b_of_r(r)
    assert np.all(vec[:m] == 0.0)
    # the raised cosine (1 + cos(pi z)) / (2 width), z = (xi - r) / width
    z = (params.nodes - 0.4) / disc.act_width
    bump = np.where(np.abs(z) < 1.0, (1.0 + np.cos(np.pi * z)) / (2.0 * disc.act_width),
                    0.0)
    np.testing.assert_allclose(vec[m:], bump / params.rho_a, rtol=1e-14)


def test_adjoint_solve_helper_identity():
    params = ao.BeamParams(n_cells=20)
    mats = _matrices(params)
    rng = np.random.default_rng(7)
    m = params.n_cells - 1
    w_o = rng.standard_normal(m)
    g = rng.standard_normal(m)
    h = ao.assemble_beam(params).fstar_h(w_o, g)
    lhs = mats["stiff"] @ h
    rhs = -3.0 * params.alpha * w_o**2 * g
    np.testing.assert_allclose(lhs, rhs, atol=1e-8 * max(1.0, np.max(np.abs(rhs))))
