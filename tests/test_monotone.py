import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from psaddle import monotone as mo
from psaddle.core_linalg import banded_cholesky, banded_pattern
from psaddle.errors import DimensionMismatchError, NotConvergedError, NotSpdError, PsaddleError
from psaddle.spaces import (
    CONT_P1,
    CONT_P1_DIRICHLET,
    DISC_P0,
    DISC_P1,
    assemble_matrices,
    default_pair,
    gauss_points,
    refine_times,
)
from psaddle.riesz import RieszContext

from helpers import eval_basis_at_points, jacobian_map_oracle, jittered_mesh, quadrature_matrix


class TestConstants:
    def test_heat_constants(self):
        c = mo.constants_from_mu(mo.make_mu("constant", c=1.0))
        assert (c.L, c.m) == (3.0, 1.0)

    def test_one_plus_inv_constants_vs_grid_oracle(self):
        # minimize/maximize the slope of mu(r^2) r on a fine grid
        mu = mo.make_mu("one-plus-inv")
        r = np.linspace(0.0, 20.0, 400_001)
        g = (1.0 + 1.0 / (1.0 + r**2)) * r
        slopes = np.diff(g) / np.diff(r)
        assert abs(slopes.min() - mu.m_mu) < 1e-6      # 7/8, attained at r^2 = 3
        assert abs(slopes.max() - mu.M_mu) < 1e-6      # 2, attained at r = 0
        c = mo.constants_from_mu(mu)
        assert (c.L, c.m) == (6.0, 7.0 / 8.0)

    def test_bounded_ramp_constants_vs_grid_oracle(self):
        a, b = 0.5, 2.0
        mu = mo.make_mu("bounded-ramp", a=a, b=b)
        r = np.linspace(0.0, 20.0, 400_001)
        g = (a + b * r**2 / (1.0 + r**2)) * r
        slopes = np.diff(g) / np.diff(r)
        assert abs(slopes.min() - mu.m_mu) < 1e-6      # a
        assert abs(slopes.max() - mu.M_mu) < 1e-6      # a + 9b/8

    def test_theta_sigma(self):
        # the step rule of a gradient: theta* = 2/(m + L), sigma = (L - m)/(L + m)
        c = mo.MonotoneConstants(L=3.0, m=1.0)
        assert abs(c.theta_star - 0.5) < 1e-15
        assert abs(c.sigma - 0.5) < 1e-15

    @settings(max_examples=50, deadline=None)
    @given(m=st.floats(0.01, 10.0), ratio=st.floats(1.0, 50.0))
    def test_constants_invariants(self, m, ratio):
        c = mo.MonotoneConstants(L=m * ratio, m=m)
        assert 0 < c.theta_star <= 1.0 / c.m + 1e-12
        assert 0 <= c.sigma < 1

    def test_invalid_constants(self):
        with pytest.raises(PsaddleError):
            mo.MonotoneConstants(L=1.0, m=2.0)


class TestConstantMu:
    """m_mu = M_mu declares mu = c, and a coefficient that declares it is c."""

    def test_constant_read_off_the_bounds(self):
        assert mo.make_mu("constant", c=2.0).constant == 2.0
        assert mo.make_mu("bounded-ramp", a=1.5, b=0.0).constant == 1.5
        assert mo.make_mu("bounded-ramp", a=1.5, b=1.0).constant is None
        assert mo.make_mu("one-plus-inv").constant is None

    @pytest.mark.parametrize("fn", [
        lambda t, x, s: 1.0 + s,
        lambda t, x, s: 1.0 + 0.0 * s + t,
        lambda t, x, s: np.where(x > 0.75, 2.0, 1.0),
    ], ids=["s", "t", "x"])
    def test_declared_constant_that_is_not_refused(self, fn):
        with pytest.raises(PsaddleError, match="not the constant 1.0"):
            mo.MuCoefficient(fn=fn, m_mu=1.0, M_mu=1.0)


class TestEmpiricalBounds:
    def test_constant(self):
        m_hat, M_hat = mo.empirical_mu_bounds(lambda s: np.full_like(s, 2.5), 10.0, 1000)
        assert abs(m_hat - 2.5) < 1e-9 and abs(M_hat - 2.5) < 1e-9

    def test_one_plus_inv(self):
        m_hat, M_hat = mo.empirical_mu_bounds(lambda s: 1 + 1 / (1 + s), 10.0, 100_000)
        assert abs(m_hat - 0.875) < 1e-6
        assert abs(M_hat - 2.0) < 1e-6

    def test_negative_mu_fails(self):
        with pytest.raises(PsaddleError):
            mo.empirical_mu_bounds(lambda s: np.full_like(s, -1.0), 5.0, 1000)

    @pytest.mark.parametrize("fn", [
        lambda s: np.full_like(s, np.nan),   # not finite anywhere
        np.exp,                              # exp(r^2) r overflows beyond r = 26.6
        lambda s: 1e308,                     # 1e308 r overflows beyond r = 1.8
    ])
    def test_non_finite_flux_refused(self, fn):
        # evaluated without a RuntimeWarning (an error under the test
        # settings), and refused: a NaN never wins a min or max comparison
        with pytest.raises(PsaddleError, match="not finite"):
            mo.empirical_mu_bounds(fn, 50.0, 20_000)

    def test_too_few_points(self):
        with pytest.raises(PsaddleError):
            mo.empirical_mu_bounds(lambda s: s, 5.0, 10)

    @pytest.mark.parametrize("n", [100, 14_999, 15_000, 15_001, 20_000, 100_000])
    @pytest.mark.parametrize("r_max", [50.0, 7.1])  # at 7.1, n * (r_max / n) != r_max for some n
    def test_blocks_equal_one_pass(self, n, r_max):
        # the blocked grid is np.linspace point for point, so the extremes are equal
        mu = mo.make_mu("bounded-ramp", a=1.0, b=2.0)
        seen = []

        def fn(s):
            seen.append(s.copy())
            return mu.fn(0.0, 0.0, s)

        r = np.linspace(0.0, r_max, n + 1)
        slopes = np.diff(mu.fn(0.0, 0.0, r**2) * r) / np.diff(r)
        got = mo.empirical_mu_bounds(fn, r_max, n)
        assert got == (float(slopes.min()), float(slopes.max()))
        # blocks share their end points
        assert np.array_equal(np.concatenate([seen[0]] + [s[1:] for s in seen[1:]]), r**2)


class TestGalerkinOperator:
    def test_apply_zero(self, quasi8):
        assert np.all(quasi8.op_Y.apply(np.zeros(quasi8.pair.dim_Y)) == 0.0)
        assert np.all(quasi8.op_X.apply(np.zeros(quasi8.pair.dim_X)) == 0.0)

    def test_linear_reduction(self, heat8, rng):
        # mu = 1: the action equals the Kronecker matrix M_t (x) A_x, both sides
        pair = heat8.pair
        for op, M_t in ((heat8.op_Y, pair.M_t_Y), (heat8.op_X, pair.M_t_X)):
            w = rng.standard_normal(op.dim)
            dense = np.kron(M_t.toarray(), pair.A_x.toarray()) @ w
            got = op.apply(w)
            assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_linear_jacobian_is_kronecker(self, heat8, rng):
        # mu = 1: the Jacobian at any w is M_t (x) A_x, both sides
        pair = heat8.pair
        for op, M_t in ((heat8.op_Y, pair.M_t_Y), (heat8.op_X, pair.M_t_X)):
            dense = np.kron(M_t.toarray(), pair.A_x.toarray())
            got = op.jacobian(rng.standard_normal(op.dim)).toarray()
            assert np.abs(got - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("setup_name", ["heat8", "quasi8"])
    def test_discrete_lipschitz_monotone(self, setup_name, request, rng):
        # dual-norm inequalities with the constants inherited from mu
        s = request.getfixturevalue(setup_name)
        L, m = s.bundle.L_A, s.bundle.m_A
        for _ in range(15):
            w = rng.standard_normal(s.pair.dim_Y)
            v = rng.standard_normal(s.pair.dim_Y)
            dw = s.ctx.norm_Y(w - v)
            diff = s.op_Y.apply(w) - s.op_Y.apply(v)
            mono = diff @ (w - v)
            lip = s.ctx.dual_norm_Y(diff)
            assert mono >= m * dw**2 - 1e-10
            assert lip <= L * dw + 1e-10

    def test_jacobian_matches_finite_differences(self, quasi8, rng):
        for op in (quasi8.op_Y, quasi8.op_X):
            w = rng.standard_normal(op.dim)
            v = rng.standard_normal(op.dim)
            eps = 1e-6
            fd = (op.apply(w + eps * v) - op.apply(w - eps * v)) / (2 * eps)
            jv = op.jacobian(w) @ v
            assert np.abs(fd - jv).max() <= 1e-7 * max(np.abs(jv).max(), 1.0)


# mu depending on (t, x) as well as s: no registry coefficient does
MU_TXS = mo.MuCoefficient(
    fn=lambda t, x, s: (1.0 + t * x) * (1.0 + 1.0 / (1.0 + s)),
    dfn_ds=lambda t, x, s: -(1.0 + t * x) / (1.0 + s) ** 2,
    m_mu=7.0 / 8.0, M_mu=4.0, name="tx-one-plus-inv",
)


def _temporal_local(family, e, xi):
    """Global dofs and values of the temporal basis on element e at xi."""
    if family == "discontinuous-p0":
        return [e], [1.0]
    dofs = [e, e + 1] if family == "continuous-p1" else [2 * e, 2 * e + 1]
    return dofs, [1.0 - xi, xi]


def _oracle(mesh_t, family_t, mesh_x, mu, W):
    """Galerkin action and Jacobian by a plain loop over elements and
    3x3 Gauss points; spatial basis continuous P1 with zero end values."""
    gx, gw = np.polynomial.legendre.leggauss(3)
    xis, wts = 0.5 * (gx + 1.0), 0.5 * gw
    dim_t, dim_x = W.shape
    F = np.zeros((dim_t, dim_x))
    J = np.zeros((dim_t * dim_x, dim_t * dim_x))
    tp, xp = mesh_t.points, mesh_x.points
    for et in range(mesh_t.n_elements):
        ht = tp[et + 1] - tp[et]
        for xi_t, w_t in zip(xis, wts):
            t = tp[et] + ht * xi_t
            tdofs, tvals = _temporal_local(family_t, et, xi_t)
            for ex in range(mesh_x.n_elements):
                hx = xp[ex + 1] - xp[ex]
                # interior node k is spatial dof k - 1; end nodes carry none
                local = [(k - 1, d) for k, d in ((ex, -1.0 / hx), (ex + 1, 1.0 / hx))
                         if 1 <= k <= dim_x]
                for xi_x, w_x in zip(xis, wts):
                    x = xp[ex] + hx * xi_x
                    weight = ht * w_t * hx * w_x
                    g = sum(W[a, b] * va * db for a, va in zip(tdofs, tvals) for b, db in local)
                    s = g * g
                    flux = mu.fn(t, x, s) * g
                    omega = mu.fn(t, x, s) + 2.0 * s * mu.dfn_ds(t, x, s)
                    pairs = [(a * dim_x + b, va * db)
                             for a, va in zip(tdofs, tvals) for b, db in local]
                    for i, vi in pairs:
                        F.flat[i] += weight * flux * vi
                        for j, vj in pairs:
                            J[i, j] += weight * omega * vi * vj
    return F.reshape(-1), J


def _oracle_pair(kind):
    rng = np.random.default_rng(7)
    mesh_t, mesh_x = jittered_mesh(3, rng), jittered_mesh(4, rng)
    test_t = {
        "jittered": (mesh_t, DISC_P1),
        "p0-test": (mesh_t, DISC_P0),
        "test-refined-twice": (refine_times(mesh_t, 2), DISC_P1),
        # a temporal pair (a, a) spans the two elements on either side of node a
        "cont-p1-test": (mesh_t, CONT_P1),
    }[kind]
    return assemble_matrices((mesh_t, CONT_P1), test_t, (mesh_x, CONT_P1_DIRICHLET))


ORACLE_KINDS = ["jittered", "p0-test", "test-refined-twice", "cont-p1-test"]


# mu returning a Python scalar: the kernels must broadcast it themselves
MU_SCALAR = mo.MuCoefficient(
    fn=lambda t, x, s: 2.5, dfn_ds=lambda t, x, s: 0.0, m_mu=2.5, M_mu=2.5, name="scalar",
)

# mus that ignore t and x: an s-shaped constant, a function of s alone, a scalar
BROADCAST_MUS = {
    "constant": mo.make_mu("constant", c=2.0),
    "one-plus-inv": mo.make_mu("one-plus-inv"),
    "scalar": MU_SCALAR,
}


def _temporal_side(pair, side):
    return (pair.mesh_t_Y, pair.spec_t_Y) if side == "Y" else (pair.mesh_t_X, pair.spec_t_X)


class TestQuadratureOracle:
    """Both kernels against a loop over elements and Gauss points, with a
    mu that depends on t and x, and with mus that ignore them."""

    @pytest.mark.parametrize("side", ["Y", "X"])
    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_apply_and_jacobian(self, kind, side, rng):
        pair = _oracle_pair(kind)
        mesh_t, spec_t = _temporal_side(pair, side)
        op = mo.GalerkinOperator(pair, side, MU_TXS)
        w = rng.standard_normal(op.dim)
        F, J = _oracle(mesh_t, spec_t.family, pair.mesh_x, MU_TXS,
                       w.reshape(op.dim_t, op.dim_x))
        assert np.abs(op.apply(w) - F).max() <= 1e-12 * np.abs(F).max()
        assert np.abs(op.jacobian(w).toarray() - J).max() <= 1e-12 * np.abs(J).max()

    @pytest.mark.parametrize("mu_name", sorted(BROADCAST_MUS))
    @pytest.mark.parametrize("side", ["Y", "X"])
    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_broadcast_mu(self, kind, side, mu_name, rng):
        mu = BROADCAST_MUS[mu_name]
        pair = _oracle_pair(kind)
        mesh_t, spec_t = _temporal_side(pair, side)
        op = mo.GalerkinOperator(pair, side, mu)
        w = rng.standard_normal(op.dim)
        F, J = _oracle(mesh_t, spec_t.family, pair.mesh_x, mu, w.reshape(op.dim_t, op.dim_x))
        assert np.abs(op.apply(w) - F).max() <= 1e-12 * np.abs(F).max()
        assert np.abs(op.jacobian(w).toarray() - J).max() <= 1e-12 * np.abs(J).max()


def _weighted_quadrature(op):
    """E_t and Dbar_x with the quadrature weights folded in, W_t E_t and
    W_x Dbar_x: the flux carries none, so these contract it to `apply`."""
    E_t, Dbar_x = _dense_quadrature(op)
    return op.w_t[:, None] * E_t, op.h_x[:, None] * Dbar_x


def _dense_quadrature(op):
    """The dense E_t and Dbar_x of an operator, from `quadrature_matrix`:
    one row of Dbar_x per element, where a P1 derivative is constant."""
    mesh_t, spec_t = _temporal_side(op.pair, op.side)
    return (quadrature_matrix(mesh_t, spec_t, mo.GALERKIN_QUAD_POINTS),
            quadrature_matrix(op.pair.mesh_x, op.pair.spec_x, 1, derivative=True))


class TestKroneckerMapped:
    """The operator followed by a Kronecker map, contracted from its element
    flux (`gradients`, then `flux`) with the weighted quadrature matrices,
    against the map applied to `apply`."""

    @pytest.mark.parametrize("mu", [mo.make_mu("one-plus-inv"), MU_TXS], ids=["registry", "tx"])
    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_riesz_map_on_test_space(self, kind, mu, rng):
        # R_Y^{-1} A_Y w = (M_t^Y)^{-1} E_t^T W_t Phi W_x Dbar_x A_x^{-1}, and the
        # gradients are the test function's x-derivative at every temporal
        # Gauss point, one value per spatial element
        pair = _oracle_pair(kind)
        ctx = RieszContext(pair)
        op = mo.GalerkinOperator(pair, "Y", mu)
        t_q, _ = gauss_points(pair.mesh_t_Y, mo.GALERKIN_QUAD_POINTS)
        mids = 0.5 * (pair.mesh_x.points[:-1] + pair.mesh_x.points[1:])
        E_t = eval_basis_at_points(pair.mesh_t_Y, pair.spec_t_Y, t_q)
        Dbar_x = eval_basis_at_points(pair.mesh_x, pair.spec_x, mids, derivative=True)
        for _ in range(2):
            w = rng.standard_normal(op.dim)
            G = op.gradients(w)
            expect_G = E_t @ (Dbar_x @ w.reshape(op.dim_t, op.dim_x).T).T
            assert np.abs(G - expect_G).max() <= 1e-12 * np.abs(expect_G).max()
            F = op.flux(G)
            E_w, Dbar_w = _weighted_quadrature(op)
            got = (ctx.inv_M_t_Y @ E_w.T @ F @ Dbar_w @ ctx.inv_A_x).reshape(-1)
            expect = ctx.riesz_Y_solve(op.apply(w))
            assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    @pytest.mark.parametrize("side", ["Y", "X"])
    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_rectangular_map(self, kind, side, rng):
        # (left (x) right) acts on the time-major coefficients as left H right
        op = mo.GalerkinOperator(_oracle_pair(kind), side, MU_TXS)
        left = rng.standard_normal((op.dim_t + 1, op.dim_t))
        right = rng.standard_normal((op.dim_x, op.dim_x + 2))
        w = rng.standard_normal(op.dim)
        expect = np.kron(left, right.T) @ op.apply(w)
        F = op.flux(op.gradients(w))
        E_w, Dbar_w = _weighted_quadrature(op)
        got = (left @ E_w.T @ F @ Dbar_w @ right).reshape(-1)
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


def _jacobian_by_B(op, w):
    """B^T diag(omega_bar) B with B = kron(E_t, Dbar_x), as one sparse product
    with mu on the full tensor Gauss grid, built from the public quadrature
    of `spaces`: the general form of the Jacobian, against which the
    axis-factored map is checked."""
    pair, n_quad = op.pair, mo.GALERKIN_QUAD_POINTS
    mesh_t, spec_t = _temporal_side(pair, op.side)
    t_q, w_t = gauss_points(mesh_t, n_quad)
    x_q, w_x = gauss_points(pair.mesh_x, n_quad)
    E_t = quadrature_matrix(mesh_t, spec_t, n_quad)
    D_x = quadrature_matrix(pair.mesh_x, pair.spec_x, n_quad, derivative=True)
    g = (E_t @ w.reshape(op.dim_t, op.dim_x)) @ D_x.T
    s = g * g
    t, x = t_q[:, None], x_q[None, :]
    omega = op.mu.fn(t, x, s) + 2.0 * s * op.mu.dfn_ds(t, x, s)
    omega_bar = (omega * np.outer(w_t, w_x)).reshape(g.shape[0], -1, n_quad).sum(axis=2)
    B = sp.kron(sp.csr_matrix(E_t), sp.csr_matrix(D_x[::n_quad]), format="csr")
    return (B.T @ sp.diags(omega_bar.reshape(-1)) @ B).toarray()


class TestFixedPatternJacobian:
    """The Jacobian's data is a fixed map of omega_bar on one pattern per
    operator; it must equal the general product B^T diag(omega_bar) B."""

    @pytest.mark.parametrize("mu", [mo.make_mu("one-plus-inv"), MU_TXS], ids=["registry", "tx"])
    @pytest.mark.parametrize("side", ["Y", "X"])
    @pytest.mark.parametrize("kind", ORACLE_KINDS)
    def test_matches_general_product(self, kind, side, mu, rng):
        op = mo.GalerkinOperator(_oracle_pair(kind), side, mu)
        for _ in range(2):
            w = rng.standard_normal(op.dim)
            expect = _jacobian_by_B(op, w)
            got = op.jacobian(w)
            assert got.has_canonical_format
            assert np.abs(got.toarray() - expect).max() <= 1e-14 * np.abs(expect).max()

    @pytest.mark.parametrize("side", ["Y", "X"])
    def test_one_pattern_per_operator(self, quasi8, side, rng):
        op = quasi8.op_Y if side == "Y" else quasi8.op_X
        J1 = op.jacobian(rng.standard_normal(op.dim))
        J2 = op.jacobian(rng.standard_normal(op.dim))
        assert np.array_equal(J1.indptr, J2.indptr)
        assert np.array_equal(J1.indices, J2.indices)
        assert not np.array_equal(J1.data, J2.data)

    @pytest.mark.parametrize("side", ["Y", "X"])
    @pytest.mark.parametrize("spec_t", [DISC_P1, CONT_P1, DISC_P0], ids=["disc-p1", "cont-p1", "disc-p0"])
    @pytest.mark.parametrize("n, refine", [(4, 0), (4, 2), (32, 0), (128, 0)])
    def test_map_matches_dense_built_map(self, n, refine, spec_t, side, rng):
        # the element-table map against the dense-built one, bit for bit, on
        # jittered meshes: the same pattern, and the same data for one omega_bar
        mesh_t, mesh_x = jittered_mesh(n, rng), jittered_mesh(n, rng)
        test_t = (refine_times(mesh_t, refine), spec_t)
        pair = assemble_matrices((mesh_t, CONT_P1), test_t, (mesh_x, CONT_P1_DIRICHLET))
        op = mo.GalerkinOperator(pair, side, MU_TXS)
        P_t, St_x, position, indptr, indices = jacobian_map_oracle(*_dense_quadrature(op), op.dim)
        got_P_t, blocks, got_indptr, got_indices = op._jacobian_map
        assert np.array_equal(got_indptr, indptr)
        assert np.array_equal(got_indices, indices)
        omega_bar = rng.uniform(0.5, 2.0, op._w_el.shape) * op._w_el
        T = np.ascontiguousarray((P_t @ omega_bar).T)
        expect = np.empty(indices.size)
        expect[position] = St_x @ T
        T = np.ascontiguousarray((got_P_t @ omega_bar).T)
        got = np.empty(indices.size)
        for St_block, pos in blocks:
            got[pos] = (St_block @ T).ravel()
        assert np.array_equal(got, expect)


class TestJacobianFactor:
    """The banded Cholesky factor of a test-side Jacobian against a dense
    solve; every test space is discontinuous in time, so the reordered
    Jacobian has a band of at most 3 superdiagonals."""

    @pytest.mark.parametrize("kind", ["jittered", "p0-test", "test-refined-twice"])
    def test_solve_against_dense(self, kind, rng):
        op = mo.GalerkinOperator(_oracle_pair(kind), "Y", MU_TXS)
        J = op.jacobian(rng.standard_normal(op.dim))
        fact = banded_cholesky(J)
        assert fact.bandwidth <= 3
        b = rng.standard_normal(op.dim)
        expect = np.linalg.solve(J.toarray(), b)
        assert np.abs(fact.solve(b) - expect).max() <= 1e-12 * np.abs(expect).max()

    @pytest.mark.parametrize("kind", ["jittered", "p0-test", "test-refined-twice"])
    def test_two_jacobians_on_one_pattern(self, kind, rng):
        # the symbolic step is made once; each numeric step matches a dense solve
        op = mo.GalerkinOperator(_oracle_pair(kind), "Y", MU_TXS)
        pattern = op.jacobian_pattern
        for _ in range(2):
            w = rng.standard_normal(op.dim)
            J = op.jacobian(w)
            fact = op.jacobian_factor(w)
            assert op.jacobian_pattern is pattern
            assert fact.bandwidth <= 3
            b = rng.standard_normal(op.dim)
            expect = np.linalg.solve(J.toarray(), b)
            assert np.abs(fact.solve(b) - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_first_factor_memory_bounded(self, rng):
        # the first factor at the 128 x 128 surrogate also builds the data
        # map and the symbolic step (nnz 194048); their index work is int32
        # and no float temporary spans the entries
        op = mo.GalerkinOperator(default_pair(128, 128), "Y", mo.make_mu("one-plus-inv"))
        w = 0.1 * rng.standard_normal(op.dim)
        tracemalloc.start()
        try:
            op.jacobian_factor(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_long_time_mesh_memory_bounded(self, rng):
        # a 1024 x 8 pair: the dense test-side E_t alone would take
        # 3072 x 2048 x 8 B = 48 MiB, the trial side's 24 MiB; the element
        # tables, apply and the first Jacobian of both sides stay far below
        pair = default_pair(1024, 8)
        tracemalloc.start()
        try:
            for side in ("Y", "X"):
                op = mo.GalerkinOperator(pair, side, mo.make_mu("one-plus-inv"))
                w = 0.1 * rng.standard_normal(op.dim)
                op.apply(w)
                op.jacobian(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_symbolic_and_numeric_steps_memory_bounded(self, rng):
        # on the same Jacobian (a band of 0.99 MiB) the symbolic step peaks
        # at 2.66 MiB and the numeric step, band and mirror band, at
        # 2.05 MiB; one more int32 (0.74 MiB) or float temporary the size
        # of the entries, held beside the step's own arrays, breaks its bound
        op = mo.GalerkinOperator(default_pair(128, 128), "Y", mo.make_mu("one-plus-inv"))
        J = op.jacobian(0.1 * rng.standard_normal(op.dim))
        tracemalloc.start()
        try:
            pattern = banded_pattern(J)
            held, pattern_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            pattern.factor(J)
            _, factor_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pattern_peak < 3.0 * 2**20
        assert factor_peak - held < 2.3 * 2**20

    def test_pattern_refuses_bad_data(self, quasi8, rng):
        op = quasi8.op_Y
        J = op.jacobian(rng.standard_normal(op.dim))
        asym = J.copy()
        off = np.flatnonzero(asym.indices != np.repeat(np.arange(op.dim), np.diff(asym.indptr)))
        asym.data[off[0]] *= 1.0 + 1e-6
        with pytest.raises(NotSpdError, match="not symmetric"):
            op.jacobian_pattern.factor(asym)
        with pytest.raises(NotSpdError, match="positive definite"):
            op.jacobian_pattern.factor(-J)
        with pytest.raises(DimensionMismatchError, match="pattern"):
            op.jacobian_pattern.factor(quasi8.op_X.jacobian(rng.standard_normal(quasi8.op_X.dim)))


class TestZarantonello:
    def test_riesz_map_one_step(self, rng):
        # G = R: with constants (1, 1) the first step lands on R^{-1} f
        pair = default_pair(3, 3)
        R = sp.kron(pair.M_t_Y, pair.A_x).tocsr()
        fact = banded_cholesky(R)
        f = rng.standard_normal(pair.dim_Y)
        res = mo.zarantonello_solve(
            lambda x: R @ x, fact.solve, f, np.zeros(pair.dim_Y),
            mo.MonotoneConstants(L=1.0, m=1.0), tol=1e-13, max_iter=5,
        )
        assert res.converged and res.iterations <= 2
        assert np.abs(res.x - fact.solve(f)).max() < 1e-12

    def test_scalar_linear_one_step(self):
        # G(x) = 2x with (L, m) = (2, 2): sigma = 0, one-step convergence
        res = mo.zarantonello_solve(
            lambda x: 2.0 * x, lambda r: r, np.array([3.0]), np.array([0.0]),
            mo.MonotoneConstants(L=2.0, m=2.0), tol=1e-14, max_iter=5,
        )
        assert res.converged and res.iterations <= 2
        assert abs(res.x[0] - 1.5) < 1e-14

    @pytest.mark.parametrize("setup_name", ["heat8", "quasi8"])
    def test_contraction_vs_newton_reference(self, setup_name, request, rng):
        # per-step error ratio never exceeds sigma = (L - m)/(L + m)
        s = request.getfixturevalue(setup_name)
        f = rng.standard_normal(s.pair.dim_Y) * 0.3
        ref = mo.newton_solve(
            s.op_Y, f, np.zeros(s.pair.dim_Y),
            residual_norm=s.ctx.dual_norm_Y, tol=1e-13,
        )
        sigma = s.bundle.A_constants.sigma
        for trial in range(5):
            x = rng.standard_normal(s.pair.dim_Y)
            errs = [s.ctx.norm_Y(x - ref.x)]

            def record(it, xk, step):
                errs.append(s.ctx.norm_Y(xk - ref.x))

            mo.zarantonello_solve(
                s.op_Y.apply, s.ctx.riesz_Y_solve, f, x, s.bundle.A_constants,
                tol=0.0, max_iter=20, callback=record,
            )
            ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)]
            assert max(ratios) <= sigma * (1 + 1e-10) + 1e-12

    def test_unconverged_flag(self, heat8, rng):
        f = rng.standard_normal(heat8.pair.dim_Y)
        res = mo.zarantonello_solve(
            heat8.op_Y.apply, heat8.ctx.riesz_Y_solve, f,
            np.zeros(heat8.pair.dim_Y), heat8.bundle.A_constants, tol=1e-14, max_iter=3,
        )
        assert not res.converged and res.iterations == 3


class TestNewton:
    def test_quasilinear_convergence(self, quasi8, rng):
        f = rng.standard_normal(quasi8.pair.dim_Y) * 0.5
        res = mo.newton_solve(
            quasi8.op_Y, f,
            np.zeros(quasi8.pair.dim_Y), residual_norm=quasi8.ctx.dual_norm_Y,
            tol=1e-12,
        )
        assert res.converged
        assert quasi8.ctx.dual_norm_Y(quasi8.op_Y.apply(res.x) - f) <= 1e-12

    def test_iteration_cap_raises(self, quasi8, rng):
        f = rng.standard_normal(quasi8.pair.dim_Y) * 0.5
        with pytest.raises(NotConvergedError, match="newton hit its cap of 1 steps at eta") as err:
            mo.newton_solve(
                quasi8.op_Y, f,
                np.zeros(quasi8.pair.dim_Y), residual_norm=quasi8.ctx.dual_norm_Y,
                tol=0.0, max_iter=1,
            )
        assert err.value.iterations == 1

    def test_cross_solver_agreement(self, quasi8, rng):
        # Newton and a long fixed-point run agree on the same equation
        f = rng.standard_normal(quasi8.pair.dim_Y) * 0.2
        newton = mo.newton_solve(
            quasi8.op_Y, f,
            np.zeros(quasi8.pair.dim_Y), residual_norm=quasi8.ctx.dual_norm_Y,
            tol=1e-13,
        )
        zar = mo.zarantonello_solve(
            quasi8.op_Y.apply, quasi8.ctx.riesz_Y_solve, f,
            np.zeros(quasi8.pair.dim_Y), quasi8.bundle.A_constants, tol=1e-12,
            max_iter=10_000,
        )
        assert zar.converged
        assert quasi8.ctx.norm_Y(zar.x - newton.x) <= 1e-8
