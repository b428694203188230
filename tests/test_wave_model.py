import itertools

import numpy as np
import pytest

import actuopt as ao
from actuopt.wave_model import _assembly

from conftest import operator


@pytest.mark.parametrize("kw", [
    {"nx": 4},
    {"lx": -1.0},
    {"gamma1_edges": ("left", "right", "top", "bottom")},
    {"gamma1_edges": ("north",)},
    {"nonlinearity": "cubic"},
    {"nonlinearity": "klein_gordon", "kg_exponent": 1},
])
def test_params_validation(kw):
    with pytest.raises(ValueError):
        ao.WaveParams(**kw)


def _f_and_fprime(nonlinearity, kg_exponent=2):
    """F(z) and F'(z) of a wave model at the position values z."""
    disc = ao.assemble_wave(ao.WaveParams(nx=8, ny=8, nonlinearity=nonlinearity,
                                          kg_exponent=kg_exponent))
    m = disc.n_space
    z = np.resize([-1.3, -0.2, 0.0, 0.7, 2.1], m)
    x = np.concatenate([z, np.full(m, 5.0)])  # F reads only the positions
    f = disc.fnl(x)  # the velocity rows of F = [0; f]
    assert f.shape == (m,)
    return z, f, disc.fnl_diag(x)


def test_nonlinearity_families_pointwise():
    z, f, fprime = _f_and_fprime("none")
    assert np.all(f == 0.0) and np.all(fprime == 0.0)
    z, f, fprime = _f_and_fprime("sine_gordon")
    np.testing.assert_allclose(f, np.sin(z))
    np.testing.assert_allclose(fprime, np.cos(z))
    z, f, fprime = _f_and_fprime("klein_gordon", 2)
    np.testing.assert_allclose(f, z**3)
    np.testing.assert_allclose(fprime, 3.0 * z**2)
    z, f, fprime = _f_and_fprime("klein_gordon", 3)
    np.testing.assert_allclose(f, np.abs(z) ** 3 * z)
    np.testing.assert_allclose(fprime, 4.0 * np.abs(z) ** 3)
    with pytest.raises(ValueError):
        ao.WaveParams(nonlinearity="klein_gordon", kg_exponent=0)
    with pytest.raises(ValueError):
        ao.WaveParams(nonlinearity="quartic")


def _laplacian_residual(params, exact, lam):
    asm = _assembly(params)
    idx = asm["free_idx"]
    u = exact(asm["xcoord"][idx], asm["ycoord"][idx])
    lap_u = -(asm["l_mat"] @ u) / asm["mv_free"]
    return np.max(np.abs(lap_u + lam * u))


def test_laplacian_consistency_dirichlet():
    # -lap sin(pi x) sin(pi y) = 2 pi^2 sin sin; second-order in h
    lam = 2.0 * np.pi**2

    def exact(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    e1 = _laplacian_residual(ao.WaveParams(nx=12, ny=12), exact, lam)
    e2 = _laplacian_residual(ao.WaveParams(nx=24, ny=24), exact, lam)
    assert e1 < 0.1 * lam
    assert e2 <= 0.3 * e1


def test_laplacian_consistency_mixed_neumann():
    # cos(pi x / 2) sin(pi y) has zero normal derivative at x = 0 and is
    # even across that edge, so the mirror closure stays second order
    lam = np.pi**2 / 4.0 + np.pi**2

    def exact(x, y):
        return np.cos(0.5 * np.pi * x) * np.sin(np.pi * y)

    p1 = ao.WaveParams(nx=12, ny=12, gamma1_edges=("left",))
    p2 = ao.WaveParams(nx=24, ny=24, gamma1_edges=("left",))
    e1 = _laplacian_residual(p1, exact, lam)
    e2 = _laplacian_residual(p2, exact, lam)
    assert e1 < 0.1 * lam
    assert e2 <= 0.3 * e1


def test_free_node_count_mixed_edges():
    params = ao.WaveParams(nx=8, ny=8, gamma1_edges=("left", "top"))
    asm = _assembly(params)
    n_total = (params.nx + 1) * (params.ny + 1)
    n_dirichlet = (params.ny + 1) + (params.nx + 1) - 1  # right + bottom share a corner
    assert asm["free_idx"].size == n_total - n_dirichlet


EDGE_SUBSETS = [g for n in range(4)
                for g in itertools.combinations(("bottom", "left", "right", "top"), n)]


def _node_by_node(params, q1):
    """(L, Mv, free nodes) built one node at a time: the node's mass is
    hx*hy*{1, 1/2, 1/4}, and the edge to its right or upper neighbour adds
    hx*hy*t * (mean q1) / h^2 times [[1, -1], [-1, 1]], t = 1/2 on an edge
    along the boundary."""
    nx, ny, hx, hy = params.nx, params.ny, params.hx, params.hy
    g1 = params.gamma1_edges
    n_nodes = (nx + 1) * (ny + 1)
    l_full, mass, free = np.zeros((n_nodes, n_nodes)), np.zeros(n_nodes), []
    for j in range(ny + 1):
        for i in range(nx + 1):
            a = i + j * (nx + 1)
            ti = 0.5 if i in (0, nx) else 1.0
            tj = 0.5 if j in (0, ny) else 1.0
            mass[a] = hx * hy * ti * tj
            if not ((i == 0 and "left" not in g1) or (i == nx and "right" not in g1)
                    or (j == 0 and "bottom" not in g1) or (j == ny and "top" not in g1)):
                free.append(a)
            edges = []
            if i < nx:
                edges.append((a + 1, hx * hy * tj / hx**2))
            if j < ny:
                edges.append((a + nx + 1, hx * hy * ti / hy**2))
            for b, weight in edges:
                k = weight * 0.5 * (q1[a] + q1[b])
                l_full[a, a] += k
                l_full[b, b] += k
                l_full[a, b] -= k
                l_full[b, a] -= k
    return l_full[np.ix_(free, free)], mass[free], free


@pytest.mark.parametrize("grid", [{"nx": 8, "ny": 8},
                                  {"nx": 11, "ny": 17, "lx": 2.9, "ly": 0.3}],
                         ids=["8x8", "11x17"])
@pytest.mark.parametrize("gamma1", EDGE_SUBSETS,
                         ids=lambda g: "-".join(g) or "all_dirichlet")
def test_operators_match_node_by_node_reference(grid, gamma1):
    # the second-order consistency tests above pass with a wrong edge weight;
    # this pins every entry of L, the q1-weighted stiffness and the mass
    params = ao.WaveParams(gamma1_edges=gamma1, **grid)
    asm = _assembly(params)
    q = np.random.default_rng(17).uniform(0.5, 2.0, asm["n_nodes"])
    for q1, mat in ((np.ones(asm["n_nodes"]), asm["l_mat"]),
                    (q, asm["stiffness"](q))):
        ref, mass, free = _node_by_node(params, q1)
        assert (mat != mat.T).nnz == 0
        assert np.max(np.abs(mat.toarray() - ref)) <= 1e-13 * np.max(np.abs(ref))
    np.testing.assert_array_equal(asm["free_idx"], free)
    np.testing.assert_allclose(asm["mv_free"], mass, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("grid", [(8, 8, 1.0, 1.0), (13, 9, 0.7, 1.3), (24, 24, 1.0, 1.0)],
                         ids=["8x8", "13x9", "24x24"])
def test_eigen_factor_solves_the_assembled_step_matrix(grid):
    # the step's S = I - h C - s h^2 B, assembled from the blocks of A and of
    # A*, and its transpose, solved densely, for every Neumann edge set: the
    # eigen-factor's solves match both, and fstar_h's solve matches L's
    nx, ny, lx, ly = grid
    rng = np.random.default_rng(5)
    for gamma1 in EDGE_SUBSETS:
        params = ao.WaveParams(nx=nx, ny=ny, lx=lx, ly=ly, gamma1_edges=gamma1)
        disc = ao.assemble_wave(params, act_width=0.05)
        m = disc.n_space
        rhs = rng.standard_normal((m, 3))
        for dt, adjoint in itertools.product((0.01, 0.3), (False, True)):
            b_blk, c_blk = disc.adjoint_blocks if adjoint else disc.blocks
            h, sign = 0.5 * dt, -1.0 if adjoint else 1.0
            schur = np.eye(m) - h * c_blk.toarray() - (sign * h * h) * b_blk.toarray()
            factor = disc.schur_factor(dt, adjoint)
            for trans, mat in (("N", schur), ("T", schur.T)):
                want = np.linalg.solve(mat, rhs)
                got = factor.solve(rhs, trans)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        # F'(0) = cos(0) = 1: fstar_h(0, g) solves L h = Mv g
        g = rhs[:, 0]
        asm = _assembly(params)
        want = np.linalg.solve(asm["l_mat"].toarray(), asm["mv_free"] * g)
        got = disc.fstar_h(np.zeros(m), g)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("k", [4, 15, 72])
def test_eigen_factor_columns_are_their_own_solves(k):
    # a K-column solve is, column by column, bit for bit the solve of that
    # column alone, as the block sweeps need
    rng = np.random.default_rng(k)
    for params in (ao.WaveParams(),
                   ao.WaveParams(nx=13, ny=9, lx=0.7, gamma1_edges=("left", "top"))):
        factor = ao.assemble_wave(params).schur_factor(0.005)
        rhs = rng.standard_normal((factor.shape[0], k))
        for trans in "NT":
            block = factor.solve(rhs, trans)
            for col in range(k):
                np.testing.assert_array_equal(
                    block[:, col], factor.solve(rhs[:, col:col + 1], trans)[:, 0])


def test_generator_exactly_skew_in_energy_product(wave_small):
    _, disc, _, _, _ = wave_small
    a_mat = operator(disc)
    rng = np.random.default_rng(11)
    for _ in range(5):
        z = rng.standard_normal(disc.n_dof)
        y = rng.standard_normal(disc.n_dof)
        lhs = ao.energy_inner(disc, a_mat @ z, y)
        rhs = -ao.energy_inner(disc, z, a_mat @ y)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_adjoint_generator_is_negated_generator(wave_small):
    _, disc, _, _, _ = wave_small
    assert (operator(disc, adjoint=True) - (-operator(disc))).nnz == 0


def test_gram_symmetric_psd(wave_small):
    _, disc, _, _, _ = wave_small
    g = disc.gram.toarray()
    assert np.max(np.abs(g - g.T)) == 0.0
    eig = np.linalg.eigvalsh(g)
    assert eig.min() > -1e-10 * eig.max()


def test_actuator_mass_near_one_and_refining():
    def mass(n):
        params = ao.WaveParams(nx=n, ny=n, nonlinearity="none")
        asm = _assembly(params)
        disc = ao.assemble_wave(params, 0.2)
        r_free = disc.b_of_r(np.array([0.5, 0.5]))[disc.n_space:]
        return abs(np.sum(r_free * asm["mv_free"]) - 1.0)

    e1, e2 = mass(32), mass(64)
    assert e1 < 2e-2
    assert e2 < e1


def test_actuator_support_and_sign():
    params = ao.WaveParams(nx=20, ny=20)
    asm = _assembly(params)
    c1, c2, width = 0.45, 0.6, 0.15
    disc = ao.assemble_wave(params, width)
    vec = disc.b_of_r(np.array([c1, c2]))
    assert np.all(vec[:disc.n_space] == 0.0)
    r_free = vec[disc.n_space:]
    idx = asm["free_idx"]
    rho = np.hypot(asm["xcoord"][idx] - c1, asm["ycoord"][idx] - c2)
    assert np.all(r_free >= 0.0)
    assert np.all(r_free[rho >= width] == 0.0)
    assert r_free.max() > 0.0


def test_actuator_outside_domain_raises():
    disc = ao.assemble_wave(ao.WaveParams(nx=12, ny=12), 0.1)
    with pytest.raises(ValueError, match="project the center"):
        disc.b_of_r(np.array([0.05, 0.5]))


def test_actuator_center_gradient_matches_fd():
    disc = ao.assemble_wave(ao.WaveParams(nx=24, ny=24), 0.18)
    c1, c2 = 0.416, 0.53
    g1, g2 = disc.b_jac_of_r(np.array([c1, c2])).T
    eps = 1e-6
    fd1 = (disc.b_of_r(np.array([c1 + eps, c2]))
           - disc.b_of_r(np.array([c1 - eps, c2]))) / (2.0 * eps)
    fd2 = (disc.b_of_r(np.array([c1, c2 + eps]))
           - disc.b_of_r(np.array([c1, c2 - eps]))) / (2.0 * eps)
    scale = max(np.max(np.abs(g1)), np.max(np.abs(g2)), 1.0)
    assert np.max(np.abs(g1 - fd1)) < 1e-4 * scale
    assert np.max(np.abs(g2 - fd2)) < 1e-4 * scale


def test_nonlinearity_adjoint_pair_identity(wave_small):
    params, disc, _, _, _ = wave_small
    m = disc.n_space
    rng = np.random.default_rng(12)
    w_o = rng.standard_normal(m)
    dvec = disc.fnl_diag(np.concatenate([w_o, np.zeros(m)]))
    for _ in range(3):
        z = rng.standard_normal(disc.n_dof)
        y = rng.standard_normal(disc.n_dof)
        fz = np.zeros(disc.n_dof)
        fz[m:] = dvec * z[:m]
        lhs = ao.energy_inner(disc, fz, y)
        h = disc.fstar_h(w_o, y[m:])
        fy = np.zeros(disc.n_dof)
        fy[:m] = h
        rhs = ao.energy_inner(disc, z, fy)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_adjoint_solve_helper_identity():
    params = ao.WaveParams(nx=10, ny=10)
    asm = _assembly(params)
    m = asm["free_idx"].size
    rng = np.random.default_rng(13)
    w_o = rng.standard_normal(m)
    g = rng.standard_normal(m)
    h = ao.assemble_wave(params).fstar_h(w_o, g)
    lhs = asm["l_mat"] @ h
    rhs = asm["mv_free"] * (np.cos(w_o) * g)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10 * max(1.0, np.max(np.abs(rhs))))


def test_state_nonlinearity_wiring(wave_small):
    params, disc, _, _, _ = wave_small
    m = disc.n_space
    rng = np.random.default_rng(14)
    x = rng.standard_normal(disc.n_dof)
    f = disc.fnl(x)  # the velocity rows of F = [0; f]
    assert f.shape == (m,)
    np.testing.assert_allclose(f, np.sin(x[:m]), rtol=1e-14)
    np.testing.assert_allclose(disc.fnl_diag(x), np.cos(x[:m]), rtol=1e-14)


def test_uniform_cost_matrix_is_the_gram_matrix():
    params = ao.WaveParams(nx=10, ny=10)
    disc = ao.assemble_wave(params)
    nn = disc.n_nodes
    mq = disc.cost_matrix(ao.CostSpec(q1=np.ones(nn), q2=np.ones(nn)))
    assert (mq != disc.gram).nnz == 0
