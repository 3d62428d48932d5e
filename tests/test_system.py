import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from psaddle import core_linalg
from psaddle import monotone as mo
from psaddle import quality as ql
from psaddle import system as sy
from psaddle.errors import NotConvergedError, PsaddleError
from psaddle.riesz import RieszContext
from psaddle.spaces import (
    CONT_P1,
    CONT_P1_DIRICHLET,
    DISC_P0,
    DISC_P1,
    assemble_matrices,
    default_pair,
    embed_X_into_Y,
    eval_basis_at_points,
    gauss_points,
    quadrature_matrix,
    refine_times,
    uniform_refine,
)

from helpers import jittered_mesh


class TestDeriveConstants:
    def test_case_3_1(self):
        b = sy.derive_constants(3.0, 1.0)
        assert b.L_N == 4.0
        assert b.L_S == 3.0
        assert abs(b.m_S - 1.0 / 9.0) < 1e-16
        assert b.L_Beinv == 18.0
        assert b.L_Ninv == 19.0
        assert abs(b.C_1 - (1.0 + 9.0 * (1.0 + math.sqrt(20.0)))) < 1e-12

    def test_case_6_78(self):
        b = sy.derive_constants(6.0, 7.0 / 8.0)
        assert b.L_S == 6.0
        assert abs(b.m_S - 7.0 / 288.0) < 1e-16

    def test_case_1_1(self):
        b = sy.derive_constants(1.0, 1.0)
        assert (b.L_N, b.L_S, b.m_S, b.L_Beinv, b.L_Ninv) == (2.0, 1.0, 1.0, 2.0, 3.0)

    @settings(max_examples=60, deadline=None)
    @given(m=st.floats(0.05, 5.0), ratio=st.floats(1.0, 20.0))
    def test_closed_forms(self, m, ratio):
        L = m * ratio
        b = sy.derive_constants(L, m)
        assert b.L_N == L + 1.0
        assert b.L_S == max(1.0, L, 1.0 / m)
        assert b.m_S == min(1.0, m, m / L**2)
        assert abs(b.L_Beinv - (1.0 / b.m_S) * (1.0 + 1.0 / m)) <= 1e-14 * b.L_Beinv
        expect_Ninv = 1.0 / m + max(1.0, 1.0 / m) * (1.0 / b.m_S) * (1.0 + 1.0 / m)
        assert abs(b.L_Ninv - expect_Ninv) <= 1e-14 * expect_Ninv

    def test_invalid(self):
        with pytest.raises(PsaddleError, match=r"\(L_A, m_A\) = \(1.0, 2.0\)"):
            sy.derive_constants(1.0, 2.0)

    @pytest.mark.parametrize("L, m", [
        (3e160, 1e160),     # L_A^2 overflows
        (3e308, 1e308),     # L_A = inf, so m_A / L_A^2 = 0
        (3e-300, 1e-300),   # L_A^2 underflows to 0
        (1e150, 1e150),     # only theta_S* = m_S / L_S^2 = 1e-450 underflows
    ])
    def test_unrepresentable_constants(self, L, m):
        with pytest.raises(PsaddleError, match="not representable"):
            sy.derive_constants(L, m)

    def test_large_representable_pair(self):
        b = sy.derive_constants(1e50, 1e50)
        assert b.S_constants.theta_star == pytest.approx(1e-150, rel=1e-14)


class TestAssembleRhs:
    def test_zero_data(self):
        pair = default_pair(3, 3)
        f, g = sy.assemble_rhs(sy.ProblemData(), pair)
        assert np.all(f == 0.0) and np.all(g == 0.0)

    def test_u0_moments_against_quad_oracle(self):
        # g entries are -<u0, phi(0, .)>: nonzero only for time-index-0 rows
        pair = default_pair(3, 4)
        data = sy.ProblemData(u0=lambda x: np.sin(np.pi * x))
        f, g = sy.assemble_rhs(data, pair)
        assert np.all(f == 0.0)
        G = g.reshape(pair.dim_t_X, pair.dim_x)
        assert np.all(G[1:] == 0.0)
        xs = pair.mesh_x.points
        for m in range(pair.dim_x):
            lo, hi = xs[m], xs[m + 2]
            val, _ = quad(
                lambda x, m=m: math.sin(math.pi * x)
                * float(eval_basis_at_points(pair.mesh_x, pair.spec_x, np.array([x]))[0, m]),
                lo, hi, limit=200,
            )
            assert abs(G[0, m] + val) < 1e-10

    def test_ell_consistency_across_nested_test_spaces(self, quasi_problem):
        # restriction of fine moments equals coarse moments
        pair = default_pair(4, 4)
        fine = default_pair(8, 4)
        f_coarse, _ = sy.assemble_rhs(quasi_problem.data, pair)
        f_fine, _ = sy.assemble_rhs(quasi_problem.data, fine)
        from psaddle.spaces import embedding_matrix

        E_t = embedding_matrix(
            (pair.mesh_t_Y, pair.spec_t_Y), (fine.mesh_t_Y, fine.spec_t_Y)
        )
        F = f_fine.reshape(fine.dim_t_Y, fine.dim_x)
        restricted = (E_t.T @ F).reshape(-1)
        scale = np.abs(f_coarse).max()
        assert np.abs(restricted - f_coarse).max() <= 1e-12 * scale

    def test_density_grid_memory_bounded(self, quasi_problem):
        # the 128 x 128 pair of the convergence study's last surrogate: its
        # Gauss grid has 2^22 points, evaluated in blocks of 2^19 and
        # contracted per element, so no (16n x n) quadrature matrix is built
        pair = default_pair(128, 128)
        tracemalloc.start()
        try:
            sy.assemble_rhs(quasi_problem.data, pair)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


F0 = lambda t, x: np.exp(t * x) * np.sin(3.0 * x + t)
F1 = lambda t, x: np.cos(2.0 * t * x) + t * x * x
U0 = lambda x: np.exp(x) * np.sin(3.0 * x)


def _gauss16():
    gx, gw = np.polynomial.legendre.leggauss(16)
    return 0.5 * (gx + 1.0), 0.5 * gw


def _local(family, e, xi):
    """Global dofs and values of a temporal basis on element e at xi."""
    if family == "discontinuous-p0":
        return [e], [1.0]
    dofs = [e, e + 1] if family == "continuous-p1" else [2 * e, 2 * e + 1]
    return dofs, [1.0 - xi, xi]


def _spatial_local(ex, n_x, xi, h):
    """(dof, value, derivative) of the interior-node hat functions on
    spatial element ex; interior node k is dof k - 1."""
    return [(k - 1, v, d) for k, v, d in ((ex, 1.0 - xi, -1.0 / h), (ex + 1, xi, 1.0 / h))
            if 1 <= k <= n_x - 1]


def _functional_oracle(mesh_t, family_t, dim_t, mesh_x, f0, f1):
    """int f0 psi chi + f1 psi chi' by a plain loop over element pairs and
    16x16 Gauss points."""
    xis, wts = _gauss16()
    n_x = mesh_x.n_elements
    out = np.zeros((dim_t, n_x - 1))
    tp, xp = mesh_t.points, mesh_x.points
    for et in range(mesh_t.n_elements):
        ht = tp[et + 1] - tp[et]
        for xi_t, w_t in zip(xis, wts):
            t = tp[et] + ht * xi_t
            tdofs, tvals = _local(family_t, et, xi_t)
            for ex in range(n_x):
                hx = xp[ex + 1] - xp[ex]
                for xi_x, w_x in zip(xis, wts):
                    x = xp[ex] + hx * xi_x
                    weight = ht * w_t * hx * w_x
                    for a, va in zip(tdofs, tvals):
                        for b, vb, db in _spatial_local(ex, n_x, xi_x, hx):
                            out[a, b] += weight * va * (f0(t, x) * vb + f1(t, x) * db)
    return out.reshape(-1)


def _functional(trial_t, Y_t, mesh_x):
    """The moments of ell = (F0, F1) in the test space of the pair with
    temporal trial mesh `trial_t` and temporal test space `Y_t`."""
    pair = assemble_matrices((trial_t, CONT_P1), Y_t, (mesh_x, CONT_P1_DIRICHLET))
    return sy.assemble_rhs(sy.ProblemData(ell_f0=F0, ell_f1=F1), pair)[0]


class TestQuadratureOracle:
    """The right-hand side against loops over elements and 16 Gauss points
    per axis, with data that do not separate in (t, x)."""

    @pytest.mark.parametrize("kind", ["cont-p1", "disc-p1", "disc-p0", "test-refined-twice"])
    def test_assemble_functional(self, kind):
        rng = np.random.default_rng(11)
        trial_t, mesh_x = jittered_mesh(3, rng), jittered_mesh(4, rng)
        mesh_t, spec_t = {
            "cont-p1": (trial_t, CONT_P1),
            "disc-p1": (trial_t, DISC_P1),
            "disc-p0": (trial_t, DISC_P0),
            "test-refined-twice": (refine_times(trial_t, 2), DISC_P1),
        }[kind]
        got = _functional(trial_t, (mesh_t, spec_t), mesh_x)
        expect = _functional_oracle(mesh_t, spec_t.family, spec_t.dim(mesh_t), mesh_x, F0, F1)
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()

    def test_assemble_functional_in_blocks(self, monkeypatch):
        # 5 temporal Gauss points of the 64-point spatial grid per block: 48
        # points make 10 blocks, the last one short
        rng = np.random.default_rng(11)
        mesh_t, mesh_x = jittered_mesh(3, rng), jittered_mesh(4, rng)
        monkeypatch.setattr(sy, "_DENSITY_GRID_POINTS", 5 * 64)
        got = _functional(mesh_t, (mesh_t, DISC_P1), mesh_x)
        expect = _functional_oracle(mesh_t, DISC_P1.family, DISC_P1.dim(mesh_t), mesh_x, F0, F1)
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()

    def test_u0_moments_and_norm(self):
        rng = np.random.default_rng(12)
        mesh_t, mesh_x = jittered_mesh(3, rng), jittered_mesh(5, rng)
        pair = assemble_matrices((mesh_t, CONT_P1), (mesh_t, DISC_P1), (mesh_x, CONT_P1_DIRICHLET))
        data = sy.ProblemData(u0=U0)
        xis, wts = _gauss16()
        xp, n_x = mesh_x.points, mesh_x.n_elements
        moments, norm2 = np.zeros(n_x - 1), 0.0
        for ex in range(n_x):
            hx = xp[ex + 1] - xp[ex]
            for xi, w in zip(xis, wts):
                val = U0(xp[ex] + hx * xi)
                norm2 += hx * w * val * val
                for b, vb, _ in _spatial_local(ex, n_x, xi, hx):
                    moments[b] += hx * w * val * vb
        got = sy.u0_moments(data, pair)
        assert np.abs(got - moments).max() <= 1e-13 * np.abs(moments).max()
        assert abs(sy.u0_l2_norm2(data, pair) - norm2) <= 1e-13 * norm2


def _dense_quadrature_moments(mesh_t, spec_t, mesh_x, f0, f1):
    """E_t^T diag(w_t) [f0 diag(w_x) Q_x + f1 diag(w_x) D_x] with the dense
    quadrature matrices on the 16-point tensor Gauss grid."""
    n = sy.RHS_QUAD_POINTS
    t_q, w_t = gauss_points(mesh_t, n)
    x_q, w_x = gauss_points(mesh_x, n)
    T, X = t_q[:, None], x_q[None, :]
    F = np.zeros((t_q.size, CONT_P1_DIRICHLET.dim(mesh_x)))
    for fn, derivative in ((f0, False), (f1, True)):
        if fn is not None:
            Q = quadrature_matrix(mesh_x, CONT_P1_DIRICHLET, n, derivative)
            F += np.broadcast_to(fn(T, X), (t_q.size, x_q.size)) @ (w_x[:, None] * Q)
    E_t = quadrature_matrix(mesh_t, spec_t, n)
    return ((w_t[:, None] * E_t).T @ F).reshape(-1)


class TestElementMoments:
    """The per-element right-hand side against the dense-quadrature formula."""

    @pytest.mark.parametrize("spec_t", [DISC_P1, CONT_P1, DISC_P0], ids=lambda s: s.family)
    @pytest.mark.parametrize("terms", ["f0", "f1", "both"])
    def test_matches_dense_quadrature(self, spec_t, terms):
        rng = np.random.default_rng(13)
        mesh_t, mesh_x = jittered_mesh(5, rng), jittered_mesh(6, rng)
        f0 = F0 if terms in ("f0", "both") else None
        f1 = F1 if terms in ("f1", "both") else None
        pair = assemble_matrices((mesh_t, CONT_P1), (mesh_t, spec_t), (mesh_x, CONT_P1_DIRICHLET))
        f, g = sy.assemble_rhs(sy.ProblemData(ell_f0=f0, ell_f1=f1), pair)
        for got, spec in ((f, spec_t), (-g, CONT_P1)):
            expect = _dense_quadrature_moments(mesh_t, spec, mesh_x, f0, f1)
            assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


def _apply_N(state, s):
    """The block action N, read as minus the residual of a zero right-hand side."""
    r_Y, r_X = sy.residual(state, (0.0, 0.0), s.ctx, s.op_Y, s.op_X)
    return -r_Y, -r_X


class TestApplyN:
    def test_zero_state(self, quasi8):
        r1, r2 = _apply_N(
            sy.SaddleState(np.zeros(quasi8.pair.dim_Y), np.zeros(quasi8.pair.dim_X)), quasi8
        )
        assert np.all(r1 == 0.0) and np.all(r2 == 0.0)

    def test_linear_case_vs_dense_blocks(self, heat8, rng):
        pair = heat8.pair
        AY = np.kron(pair.M_t_Y.toarray(), pair.A_x.toarray())
        AX = np.kron(pair.M_t_X.toarray(), pair.A_x.toarray())
        D = np.kron(pair.B_t.toarray(), pair.M_x.toarray())
        Gam = np.zeros((pair.dim_X, pair.dim_X))
        tail = (pair.dim_t_X - 1) * pair.dim_x
        Gam[tail:, tail:] = pair.M_x.toarray()
        lam = rng.standard_normal(pair.dim_Y)
        u = rng.standard_normal(pair.dim_X)
        r1, r2 = _apply_N(sy.SaddleState(lam, u), heat8)
        assert np.allclose(r1, AY @ lam + D @ u, atol=1e-12)
        assert np.allclose(r2, D.T @ lam - AX @ u - Gam @ u, atol=1e-12)

    @pytest.mark.parametrize("setup_name", ["heat8", "quasi8"])
    def test_lipschitz_bound(self, setup_name, request, rng):
        # product dual norm of the difference <= (L_A + 1) * product norm
        s = request.getfixturevalue(setup_name)
        L_N = s.bundle.L_N
        for _ in range(20):
            s1 = sy.SaddleState(
                rng.standard_normal(s.pair.dim_Y), rng.standard_normal(s.pair.dim_X)
            )
            s2 = sy.SaddleState(
                rng.standard_normal(s.pair.dim_Y), rng.standard_normal(s.pair.dim_X)
            )
            a1 = _apply_N(s1, s)
            a2 = _apply_N(s2, s)
            dual = s.ctx.dual_norm_Y(a1[0] - a2[0]) + s.ctx.dual_norm_X(a1[1] - a2[1])
            prim = s.ctx.norm_Y(s1.lam - s2.lam) + s.ctx.norm_X_delta(s1.u - s2.u)
            assert dual <= L_N * prim * (1 + 1e-10)


class TestSchur:
    def test_zero_data_zero_value(self, heat8):
        rhs0 = (np.zeros(heat8.pair.dim_Y), np.zeros(heat8.pair.dim_X))
        schur = sy.SchurOperator(
            heat8.pair, heat8.ctx, heat8.op_Y, heat8.op_X, rhs0
        )
        assert np.abs(schur.apply(np.zeros(heat8.pair.dim_X))).max() <= 1e-14

    def test_vanishes_at_solution(self, heat8):
        schur = sy.SchurOperator(
            heat8.pair, heat8.ctx, heat8.op_Y, heat8.op_X, heat8.rhs, inner_tol=1e-13,
        )
        val = schur.apply(heat8.reference().u)
        assert heat8.ctx.dual_norm_X(val) <= 1e-11

    @pytest.mark.parametrize("setup_name", ["heat8", "quasi8"])
    def test_lipschitz_and_monotone(self, setup_name, request, rng):
        s = request.getfixturevalue(setup_name)
        schur = sy.SchurOperator(
            s.pair, s.ctx, s.op_Y, s.op_X, s.rhs, inner_tol=1e-12
        )
        L_S, m_S = s.bundle.L_S, s.bundle.m_S
        for _ in range(10):
            w = rng.standard_normal(s.pair.dim_X)
            z = rng.standard_normal(s.pair.dim_X)
            diff = schur.apply(w) - schur.apply(z)
            dn = s.ctx.norm_X_delta(w - z)
            assert diff @ (w - z) >= m_S * dn**2 - 1e-9
            assert s.ctx.dual_norm_X(diff) <= L_S * dn + 1e-9


class TestSolveReference:
    def test_zero_data(self, heat8):
        rhs0 = (np.zeros(heat8.pair.dim_Y), np.zeros(heat8.pair.dim_X))
        st0 = sy.solve_reference(
            rhs0, heat8.pair, heat8.op_Y, heat8.op_X, heat8.ctx, tol=1e-12
        )
        assert np.abs(st0.lam).max() <= 1e-13 and np.abs(st0.u).max() <= 1e-13

    @pytest.mark.parametrize("setup_name", ["heat8", "quasi8"])
    def test_residual_below_tol(self, setup_name, request):
        s = request.getfixturevalue(setup_name)
        rY, rX = sy.residual(s.reference(), s.rhs, s.ctx, s.op_Y, s.op_X)
        assert s.ctx.dual_norm_Y(rY) + s.ctx.dual_norm_X(rX) <= 1e-12

    def test_newton_vs_long_zarantonello(self, heat8):
        # cross-solver oracle: for the linear case the Schur operator has a
        # closed form, so a long fixed-point run is fully independent of the
        # Newton path used by solve_reference
        ctx, pair = heat8.ctx, heat8.pair
        f, g = heat8.rhs

        def apply_S(z):
            lam = ctx.riesz_Y_solve(f - ctx.apply_D(z))
            return (
                ctx.apply_R_YX(z) + ctx.apply_trace_term(z) + g - ctx.apply_Dt(lam)
            )

        res = mo.zarantonello_solve(
            apply_S, ctx.riesz_X_solve, np.zeros(pair.dim_X), np.zeros(pair.dim_X),
            heat8.bundle.S_constants, tol=3e-12, max_iter=40_000,
        )
        assert res.converged
        assert ctx.norm_X_delta(res.x - heat8.reference().u) <= 1e-8

    def test_schur_fixed_point_agrees_quasilinear(self, quasi8):
        # fixed outer budget on the nonlinear Schur operator: agreement at the
        # level the contraction factor allows
        schur = sy.SchurOperator(
            quasi8.pair, quasi8.ctx, quasi8.op_Y, quasi8.op_X, quasi8.rhs, inner_tol=1e-13,
        )
        res = mo.zarantonello_solve(
            schur.apply, quasi8.ctx.riesz_X_solve, np.zeros(quasi8.pair.dim_X),
            np.zeros(quasi8.pair.dim_X), quasi8.bundle.S_constants,
            tol=0.0, max_iter=3000,
        )
        err = quasi8.ctx.norm_X_delta(res.x - quasi8.reference().u)
        start = quasi8.ctx.norm_X_delta(quasi8.reference().u)
        sigma = quasi8.bundle.S_constants.sigma
        assert err <= sigma**3000 * start * (1 + 1e-6)

    def test_one_symbolic_factorization_per_pattern(self, quasi_problem, monkeypatch):
        # the bandwidth-reducing order depends on the pattern alone, and each
        # operator's Jacobians share one pattern: at most one order per
        # operator over a whole reference solve (here only the test side's
        # Jacobian is factored; the trial side's is applied).  The counter
        # starts after the discretization is built, whose Riesz context
        # factors its two 1D matrices on their own patterns
        calls = []
        rcm = core_linalg.reverse_cuthill_mckee

        def counting(*args, **kwargs):
            calls.append(1)
            return rcm(*args, **kwargs)

        s = sy.Discretization(default_pair(8, 8), quasi_problem.mu, quasi_problem.data)
        monkeypatch.setattr(core_linalg, "reverse_cuthill_mckee", counting)
        sy.solve_reference(s.rhs, s.pair, s.op_Y, s.op_X, s.ctx, tol=1e-12)
        assert 1 <= len(calls) <= 2

    def test_step_cap_raises_with_best_state(self, quasi8, monkeypatch):
        monkeypatch.setattr(sy, "NEWTON_MAX_STEPS", 1)
        with pytest.raises(NotConvergedError, match="hit its cap of 1 steps") as err:
            sy.solve_reference(quasi8.rhs, quasi8.pair, quasi8.op_Y, quasi8.op_X, quasi8.ctx)
        assert isinstance(err.value.best, sy.SaddleState)

    def test_warm_start_from_coarse_solution(self, quasi8, monkeypatch):
        fine, two = ql.surrogate(quasi8)
        x0 = two.prolong_X(quasi8.reference().u)
        calls = []
        direction = sy.schur_newton_direction

        def counting(*args, **kwargs):
            calls.append(1)
            return direction(*args, **kwargs)

        monkeypatch.setattr(sy, "schur_newton_direction", counting)
        tol = 1e-11
        args = (fine.rhs, fine.pair, fine.op_Y, fine.op_X, fine.ctx)
        cold = sy.solve_reference(*args, tol=tol)
        cold_calls, calls[:] = len(calls), []
        warm = sy.solve_reference(*args, tol=tol, x0=x0)
        assert len(calls) < cold_calls
        rY, rX = sy.residual(warm, fine.rhs, fine.ctx, fine.op_Y, fine.op_X)
        assert fine.ctx.dual_norm_Y(rY) + fine.ctx.dual_norm_X(rX) <= tol
        # both lie within L_Ninv * tol of the discrete solution
        diff = fine.ctx.norm_Y(warm.lam - cold.lam) + fine.ctx.norm_X_delta(warm.u - cold.u)
        assert diff <= fine.bundle.L_Ninv * 2.0 * tol

    @pytest.mark.parametrize("pair_name", ["quasi8", "jittered32"])
    def test_no_inner_newton_solve(self, pair_name, quasi_problem, monkeypatch):
        # the saddle Newton loop eliminates lambda with the factored test
        # Jacobian; no complete inner solve of A_Y lambda = f - D u is run
        pair = default_pair(8, 8) if pair_name == "quasi8" else _jittered_pair(32, 21)
        s = sy.Discretization(pair, quasi_problem.mu, quasi_problem.data)

        def refused(*args, **kwargs):
            raise AssertionError("solve_reference ran an inner newton_solve")

        monkeypatch.setattr(mo, "newton_solve", refused)
        tol = 1e-12
        state = sy.solve_reference(s.rhs, s.pair, s.op_Y, s.op_X, s.ctx, tol=tol)
        assert sy.aposteriori_estimate(state, s.rhs, s.op_Y, s.op_X, s.ctx)[0] <= tol

    def test_one_jacobian_factor_per_direction(self, quasi_problem, monkeypatch):
        s = sy.Discretization(default_pair(8, 8), quasi_problem.mu, quasi_problem.data)
        factors, directions = [], []
        factor, direction = s.op_Y.jacobian_factor, sy.schur_newton_direction

        def counting_factor(*args, **kwargs):
            factors.append(1)
            return factor(*args, **kwargs)

        def counting_direction(*args, **kwargs):
            directions.append(1)
            return direction(*args, **kwargs)

        s.op_Y.jacobian_factor = counting_factor
        monkeypatch.setattr(sy, "schur_newton_direction", counting_direction)
        sy.solve_reference(s.rhs, s.pair, s.op_Y, s.op_X, s.ctx, tol=1e-12)
        assert len(directions) >= 2
        assert len(factors) == len(directions)

    def test_linear_problem_one_direction(self, heat8, monkeypatch):
        # mu = 1: the saddle system is linear, so one Newton step solves it up
        # to the PCG tolerance, and PCG is exact after its first iteration
        calls = []
        direction = sy.schur_newton_direction

        def counting(*args, **kwargs):
            calls.append(1)
            return direction(*args, **kwargs)

        monkeypatch.setattr(sy, "schur_newton_direction", counting)
        tol = 1e-12
        state = sy.solve_reference(
            heat8.rhs, heat8.pair, heat8.op_Y, heat8.op_X, heat8.ctx, tol=tol
        )
        assert calls == [1]
        assert sy.aposteriori_estimate(
            state, heat8.rhs, heat8.op_Y, heat8.op_X, heat8.ctx
        )[0] <= tol


def _dense_saddle_direction(s, jac_Y, jac_X, r):
    """delta from the saddle linearization [[A_Y', D], [D^T, -(A_X' + trace)]]
    [mu; delta] = [0; -r], assembled densely from the pair's 1D matrices."""
    pair = s.pair
    D = np.kron(pair.B_t.toarray(), pair.M_x.toarray())
    A_X = jac_X.toarray()
    tail = (pair.dim_t_X - 1) * pair.dim_x
    A_X[tail:, tail:] += pair.M_x.toarray()
    K = np.block([[jac_Y.toarray(), D], [D.T, -A_X]])
    return np.linalg.solve(K, np.concatenate([np.zeros(pair.dim_Y), -r]))[pair.dim_Y:]


def _schur_jacobian(s, lam, u):
    """p -> J_S p = A_X'(u) p + trace + D^T A_Y'(lam)^{-1} D p."""
    ctx, jac_X, fact_Y = s.ctx, s.op_X.jacobian(u), s.op_Y.jacobian_factor(lam)
    return lambda p: (
        jac_X @ p + ctx.apply_trace_term(p) + ctx.apply_Dt(fact_Y.solve(ctx.apply_D(p)))
    )


def _balanced_gram(ctx, c, p):
    """R_X(c) p = c M_t^X P A_x + T P S / c + the trace term."""
    P = p.reshape(ctx.pair.dim_t_X, ctx.pair.dim_x)
    return (
        c * ctx.apply_R_YX(p) + (ctx.T_t @ P @ ctx.S_x).reshape(-1) / c
        + ctx.apply_trace_term(p)
    )


def _jittered_pair(n, seed):
    rng = np.random.default_rng(seed)
    mesh_t, mesh_x = jittered_mesh(n, rng), jittered_mesh(n, rng)
    return assemble_matrices((mesh_t, CONT_P1), (mesh_t, DISC_P1), (mesh_x, CONT_P1_DIRICHLET))


class TestNewtonPCG:
    """One Newton step of solve_reference: PCG on the Schur Jacobian."""

    def test_iteration_cap_closed_form(self):
        # kappa = M_mu / m_mu = 16/7 for one-plus-inv, r = sqrt(16/7):
        # ceil(ln(2 r 1e10) / ln((r + 1) / (r - 1))) = ceil(15.17) = 16
        assert sy.pcg_iteration_cap(mo.make_mu("one-plus-inv")) == 16
        # kappa = 1 for every constant mu
        for c in (0.01, 1.0, 100.0):
            assert sy.pcg_iteration_cap(mo.make_mu("constant", c=c)) == 2

    @pytest.mark.parametrize("setup_name", ["heat8", "quasi8"])
    def test_direction_matches_dense_saddle_solve(self, setup_name, request, rng):
        s = request.getfixturevalue(setup_name)
        w_Y = rng.standard_normal(s.pair.dim_Y)
        jac_Y = s.op_Y.jacobian(w_Y)
        jac_X = s.op_X.jacobian(rng.standard_normal(s.pair.dim_X))
        r = rng.standard_normal(s.pair.dim_X)
        mu = s.op_Y.mu
        got, _ = sy.schur_newton_direction(
            s.ctx, s.op_Y.jacobian_factor(w_Y), jac_X, r, sy.pcg_iteration_cap(mu),
            sy.balanced_weight(mu),
        )
        expect = _dense_saddle_direction(s, jac_Y, jac_X, r)
        assert np.abs(got - expect).max() <= 1e-10 * np.abs(expect).max()

    @pytest.mark.parametrize("setup_name", ["heat8", "quasi8", "jittered32"])
    def test_iterations_within_proven_cap(self, setup_name, request, rng):
        if setup_name == "jittered32":
            problem = sy.quasilinear_problem()
            s = sy.Discretization(_jittered_pair(32, 21), problem.mu, problem.data)
        else:
            s = request.getfixturevalue(setup_name)
        ref = s.reference()
        cap = sy.pcg_iteration_cap(s.op_Y.mu)
        # at the solution and at a random state, far from it
        for lam, u in ((ref.lam, ref.u), (rng.standard_normal(s.pair.dim_Y),
                                          rng.standard_normal(s.pair.dim_X))):
            _, its = sy.schur_newton_direction(
                s.ctx, s.op_Y.jacobian_factor(lam), s.op_X.jacobian(u),
                rng.standard_normal(s.pair.dim_X), 10 * cap, sy.balanced_weight(s.op_Y.mu),
            )
            assert 1 <= its <= cap

    @pytest.mark.parametrize("setup_name", ["quasi8", "jittered32"])
    def test_schur_jacobian_within_balanced_bounds(self, setup_name, request, rng):
        # the Loewner bounds behind pcg_iteration_cap, sampled:
        # sqrt(m/M) <= p^T J_S p / p^T R_X(c_bar) p <= sqrt(M/m)
        if setup_name == "jittered32":
            problem = sy.quasilinear_problem()
            s = sy.Discretization(_jittered_pair(32, 21), problem.mu, problem.data)
        else:
            s = request.getfixturevalue(setup_name)
        mu = s.op_Y.mu
        c_bar, r = sy.balanced_weight(mu), mu.m_mu / mu.M_mu
        ref = s.reference()
        for lam, u in ((ref.lam, ref.u), (rng.standard_normal(s.pair.dim_Y),
                                          rng.standard_normal(s.pair.dim_X))):
            apply_J = _schur_jacobian(s, lam, u)
            for _ in range(20):
                p = rng.standard_normal(s.pair.dim_X)
                q = (p @ apply_J(p)) / (p @ _balanced_gram(s.ctx, c_bar, p))
                assert math.sqrt(r) - 1e-12 <= q <= 1.0 / math.sqrt(r) + 1e-12

    @pytest.mark.parametrize("c", [0.01, 1.0, 100.0])
    def test_constant_mu_jacobian_is_balanced_gram(self, c, rng):
        # mu = c: A_X' = c R_YX and A_Y' = c R_Y, so J_S = R_X(c) exactly
        s = sy.Discretization(default_pair(8, 8), mo.make_mu("constant", c=c),
                              sy.heat_problem().data)
        assert sy.balanced_weight(s.mu) == c
        apply_J = _schur_jacobian(s, rng.standard_normal(s.pair.dim_Y),
                                  rng.standard_normal(s.pair.dim_X))
        for _ in range(5):
            p = rng.standard_normal(s.pair.dim_X)
            expect = _balanced_gram(s.ctx, c, p)
            assert np.abs(apply_J(p) - expect).max() <= 1e-12 * np.abs(expect).max()

    @pytest.mark.parametrize("c", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_constant_mu_pcg_scale_invariant(self, c, monkeypatch):
        # R_X(c) is the Schur Jacobian itself, so PCG stops after one
        # iteration up to round-off, whatever the scale c (the unweighted
        # R_X would take up to 76 iterations per Newton step over these c)
        iterations = []
        direction = sy.schur_newton_direction

        def counting(*args, **kwargs):
            out = direction(*args, **kwargs)
            iterations.append(out[1])
            return out

        monkeypatch.setattr(sy, "schur_newton_direction", counting)
        s = sy.Discretization(default_pair(32, 32), mo.make_mu("constant", c=c),
                              sy.heat_problem().data)
        s.reference(1e-10)
        assert iterations and max(iterations) <= 2

    def test_direction_failure_raises_at_once(self, heat8, monkeypatch):
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            raise NotConvergedError("forced failure")

        monkeypatch.setattr(sy, "schur_newton_direction", failing)
        # the default start: u = 0 and lambda = u embedded, also 0
        start = sy.SaddleState(np.zeros(heat8.pair.dim_Y), np.zeros(heat8.pair.dim_X))
        eta0, _, _ = sy.aposteriori_estimate(start, heat8.rhs, heat8.op_Y, heat8.op_X, heat8.ctx)
        with pytest.raises(NotConvergedError, match="direction failed") as err:
            sy.solve_reference(heat8.rhs, heat8.pair, heat8.op_Y, heat8.op_X, heat8.ctx)
        assert calls == [1]
        best = err.value.best
        eta, _, _ = sy.aposteriori_estimate(best, heat8.rhs, heat8.op_Y, heat8.op_X, heat8.ctx)
        assert eta == eta0

    @pytest.mark.parametrize("setup_name", ["heat8", "quasi8"])
    def test_below_round_off_floor_fails_fast(self, setup_name, request, monkeypatch):
        s = request.getfixturevalue(setup_name)

        def forbidden(*args, **kwargs):
            raise AssertionError("no fixed-point run on the Schur operator")

        monkeypatch.setattr(mo, "zarantonello_solve", forbidden)
        monkeypatch.setattr(sy, "SchurOperator", forbidden)
        with pytest.raises(NotConvergedError, match="tol 0.000e") as err:
            sy.solve_reference(s.rhs, s.pair, s.op_Y, s.op_X, s.ctx, tol=0.0)
        eta, _, _ = sy.aposteriori_estimate(err.value.best, s.rhs, s.op_Y, s.op_X, s.ctx)
        assert eta <= 1e-15


class TestSharedNewtonLoop:
    """`solve_reference` and `newton_solve` fail through the one loop,
    `monotone.damped_newton`, alike: on a line search that stalls because
    the direction is reversed after one accepted step, and on the step cap,
    each raises with the last accepted iterate and the steps taken."""

    @staticmethod
    def _solver(name, s, monkeypatch):
        """(run(max_steps), merit(x), start) for a solver on s at tol 0."""
        if name == "solve_reference":
            def run(max_steps):
                monkeypatch.setattr(sy, "NEWTON_MAX_STEPS", max_steps)
                return sy.solve_reference(s.rhs, s.pair, s.op_Y, s.op_X, s.ctx, tol=0.0)

            def merit(state):
                r_Y, r_X = sy.residual(state, s.rhs, s.ctx, s.op_Y, s.op_X)
                return s.ctx.dual_norm_Y(r_Y) ** 2 + s.ctx.dual_norm_X(r_X) ** 2

            # lambda starts as u embedded, and u at zero
            return run, merit, sy.SaddleState(np.zeros(s.pair.dim_Y), np.zeros(s.pair.dim_X))
        f = s.rhs[0]

        def run(max_steps):
            return mo.newton_solve(
                s.op_Y, f, np.zeros(s.pair.dim_Y), s.ctx.dual_norm_Y, tol=0.0, max_iter=max_steps
            )

        return run, lambda x: s.ctx.dual_norm_Y(s.op_Y.apply(x) - f) ** 2, np.zeros(s.pair.dim_Y)

    @pytest.mark.parametrize("failure", ["stall", "cap"])
    @pytest.mark.parametrize("solver", ["solve_reference", "newton_solve"])
    def test_failure_reports_last_accepted_iterate(self, solver, failure, quasi8, monkeypatch):
        run, merit, start = self._solver(solver, quasi8, monkeypatch)
        evaluated, at_direction = [], []
        loop = mo.damped_newton

        def recording(evaluate, direction, *args):
            def evaluate_(x):
                evaluated.append(x)
                return evaluate(x)

            def direction_(x, data):
                at_direction.append(x)
                line = direction(x, data)
                if failure == "stall" and len(at_direction) > 1:
                    return lambda a: line(-a)
                return line

            return loop(evaluate_, direction_, *args)

        monkeypatch.setattr(mo, "damped_newton", recording)
        message = r"at eta \d\.\d{3}e[+-]\d+ > tol 0\.000e\+00"
        with pytest.raises(NotConvergedError, match=message) as err:
            run(2)
        best, steps = err.value.best, err.value.iterations
        if failure == "stall":
            assert "line search stalled" in str(err.value)
            # the reversed direction was taken at the last accepted iterate
            assert steps == 1 and best is at_direction[-1]
        else:
            assert "hit its cap of 2 steps" in str(err.value)
            # the loop leaves each line search on its accepted trial
            assert steps == 2 and best is evaluated[-1]
            assert merit(best) < merit(at_direction[-1])
        assert merit(best) <= merit(start)


class TestDiscretization:
    def test_reference_solved_once_per_tol(self, monkeypatch):
        calls = []
        solve = sy.solve_reference

        def counting(*args, **kwargs):
            calls.append(kwargs["tol"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(sy, "solve_reference", counting)
        problem = sy.heat_problem()
        disc = sy.Discretization(default_pair(4, 4), problem.mu, problem.data)
        first = disc.reference(1e-10)
        assert disc.reference(1e-10) is first
        assert calls == [1e-10]
        assert disc.reference(1e-11) is not first
        assert calls == [1e-10, 1e-11]

    def test_bundle_from_mu_bounds(self, quasi8):
        mu = quasi8.op_Y.mu
        assert quasi8.bundle == sy.derive_constants(3.0 * mu.M_mu, mu.m_mu)


class TestStructuralIdentities:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_eq34_discrete(self, n, rng):
        # (d_t w)(v) + (d_t v)(w) + <w(0), v(0)> = <w(T), v(T)>
        pair = default_pair(n, n)
        ctx = RieszContext(pair)
        from psaddle.spaces import trace_at_time

        for _ in range(50):
            w = rng.standard_normal(pair.dim_X)
            v = rng.standard_normal(pair.dim_X)
            dw_v = ctx.apply_D(w) @ embed_X_into_Y(pair, v)
            dv_w = ctx.apply_D(v) @ embed_X_into_Y(pair, w)
            w0, v0 = trace_at_time(pair, w, 0.0), trace_at_time(pair, v, 0.0)
            wT, vT = trace_at_time(pair, w, pair.T), trace_at_time(pair, v, pair.T)
            lhs = dw_v + dv_w + w0 @ (pair.M_x @ v0)
            rhs = wT @ (pair.M_x @ vT)
            scale = max(abs(dw_v), abs(dv_w), abs(lhs), abs(rhs), 1e-30)
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_initial_trace_bounded_by_trial_norm(self, rng):
        # ||z(0)||_H <= ||z||_{X^d} when the trial space sits inside the test space
        pair = default_pair(6, 6)
        ctx = RieszContext(pair)
        for _ in range(30):
            z = rng.standard_normal(pair.dim_X)
            assert ctx.norm_H_of_trace(z, 0.0) <= ctx.norm_X_delta(z) * (1 + 1e-12)

    def test_perturbation_stability(self, heat8, rng):
        # solution perturbations bounded by L_Ninv times data perturbations
        L_Ninv = heat8.bundle.L_Ninv
        for _ in range(5):
            df = rng.standard_normal(heat8.pair.dim_Y) * 0.05
            dg = rng.standard_normal(heat8.pair.dim_X) * 0.05
            rhs2 = (heat8.rhs[0] + df, heat8.rhs[1] + dg)
            st2 = sy.solve_reference(
                rhs2, heat8.pair, heat8.op_Y, heat8.op_X, heat8.ctx, tol=1e-12
            )
            dlam = heat8.ctx.norm_Y(st2.lam - heat8.reference().lam)
            du = heat8.ctx.norm_X_delta(st2.u - heat8.reference().u)
            bound = L_Ninv * (heat8.ctx.dual_norm_Y(df) + heat8.ctx.dual_norm_X(dg))
            assert dlam + du <= bound * (1 + 1e-9)

    @pytest.mark.parametrize("problem_name", ["heat_problem", "quasi_problem"])
    def test_lambda_equals_u_under_refinement(self, problem_name, request):
        prob = request.getfixturevalue(problem_name)
        gaps = []
        for n in (4, 8, 16):
            disc = sy.Discretization(default_pair(n, n), prob.mu, prob.data)
            state = disc.reference(1e-11)
            gaps.append(disc.ctx.norm_Y(state.lam - embed_X_into_Y(disc.pair, state.u)))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_manufactured_heat_consistency(self, heat_problem):
        # du/dt - d2u/dx2 = 0 for the closed-form solution
        ts = np.linspace(0.05, 0.95, 7)[:, None]
        xs = np.linspace(0.05, 0.95, 7)[None, :]
        u_t = heat_problem.u_exact_t(ts, xs)
        u_xx = -np.pi**2 * heat_problem.u_exact(ts, xs)
        assert np.abs(u_t - u_xx).max() < 1e-12
