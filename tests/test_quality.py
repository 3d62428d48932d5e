import math
import tracemalloc

import numpy as np
import pytest

from psaddle import monotone as mo
from psaddle import quality as ql
from psaddle import system as sy
from psaddle.core_linalg import cg_iteration_cap, pcg, smallest_generalized_eigenvalue
from psaddle.errors import InvalidSpaceError, PsaddleError
from psaddle.riesz import RieszContext
from psaddle.spaces import (
    CONT_P1,
    CONT_P1_DIRICHLET,
    DISC_P0,
    DISC_P1,
    Mesh1D,
    assemble_1d,
    assemble_matrices,
    default_pair,
    embedding_matrix,
    refine_times,
)


def _jittered_pair(n_t, n_x, seed):
    rng = np.random.default_rng(seed)

    def mesh(n):
        h = 1.0 / n
        inner = [(i + rng.uniform(-0.3, 0.3)) * h for i in range(1, n)]
        return Mesh1D(tuple([0.0, *inner, 1.0]))

    mesh_t = mesh(n_t)
    return assemble_matrices((mesh_t, CONT_P1), (mesh_t, DISC_P1), (mesh(n_x), CONT_P1_DIRICHLET))


_ORACLE_PAIRS = {
    "default4": lambda: default_pair(4, 4),
    "default8": lambda: default_pair(8, 8),
    "jittered": lambda: _jittered_pair(6, 5, 3),
    "test-refined-in-time": lambda: ql._pair_with_enriched_test(default_pair(4, 4), 1),
}


def _temporal_ctx(X_t, Y_t):
    """Context of a pair with the given temporal spaces; gamma_t reads no
    spatial block."""
    return RieszContext(assemble_matrices(X_t, Y_t, (Mesh1D.uniform(2), CONT_P1_DIRICHLET)))


def _spatial_two(mesh_x):
    """A one-element-in-time pair on `mesh_x` against its surrogate; gamma_x
    reads only the spatial blocks."""
    m = Mesh1D((0.0, 1.0))
    pair = assemble_matrices((m, CONT_P1), (m, DISC_P1), (mesh_x, CONT_P1_DIRICHLET))
    return ql.TwoLevel(pair, ql._surrogate_pair(pair))


class TestGammaT:
    def test_default_pairing_is_one(self):
        m = Mesh1D.uniform(8)
        val = ql.gamma_t(_temporal_ctx((m, CONT_P1), (m, DISC_P1)))
        assert abs(val - 1.0) <= 1e-8

    def test_single_element_p0_test(self):
        m = Mesh1D((0.0, 1.0))
        assert abs(ql.gamma_t(_temporal_ctx((m, CONT_P1), (m, DISC_P0))) - 1.0) <= 1e-10

    def test_trial_finer_than_test_vs_svd_oracle(self):
        # dense oracle: smallest singular ratio of the dual-norm pencil
        trial_mesh = refine_times(Mesh1D((0.0, 1.0)), 3)
        test_mesh = refine_times(Mesh1D((0.0, 1.0)), 2)
        val = ql.gamma_t(_temporal_ctx((trial_mesh, CONT_P1), (test_mesh, DISC_P1)))
        assert 0.0 < val < 1.0

        import scipy.linalg as sla

        M_Y = assemble_1d("mass", (test_mesh, DISC_P1)).toarray()
        B = assemble_1d("dtrial", (test_mesh, DISC_P1), (trial_mesh, CONT_P1)).toarray()
        A_t = assemble_1d("stiffness", (trial_mesh, CONT_P1)).toarray()
        num = B.T @ np.linalg.solve(M_Y, B)
        # deflate constants, solve the reduced dense pencil
        n = A_t.shape[0]
        q, _ = np.linalg.qr(np.ones((n, 1)))
        C = np.eye(n) - q @ q.T
        u, s, _ = np.linalg.svd(C)
        Q = u[:, : n - 1]
        vals = sla.eigh(Q.T @ num @ Q, Q.T @ A_t @ Q, eigvals_only=True)
        assert abs(val - math.sqrt(vals[0])) <= 1e-8


class TestGammaX:
    def test_at_most_one(self):
        val = ql.gamma_x(_spatial_two(Mesh1D.uniform(8)))
        assert val <= 1.0 + 1e-12

    @pytest.mark.parametrize("name", ["one-interior-node", *sorted(_ORACLE_PAIRS)])
    def test_projector_vs_dense_oracle(self, name):
        # the definition: 1/||P||_V with the H-orthogonal projector
        # P = E M_c^{-1} E^T M_f onto the coarse space, measured on the fine
        # one, and ||P||_V^2 = lambda_max(P^T A_f P, A_f), all dense
        if name == "one-interior-node":
            two = _spatial_two(Mesh1D((0.0, 0.5, 1.0)))
        else:
            pair = _ORACLE_PAIRS[name]()
            two = ql.TwoLevel(pair, ql._surrogate_pair(pair))
        c, f = two.coarse, two.fine
        E = embedding_matrix((c.mesh_x, c.spec_x), (f.mesh_x, f.spec_x))
        M_c, M_f, A_f = c.M_x.toarray(), f.M_x.toarray(), f.A_x.toarray()
        P = E @ np.linalg.solve(M_c, E.T @ M_f)
        import scipy.linalg as sla

        lam = sla.eigh(P.T @ A_f @ P, A_f, eigvals_only=True)[-1]
        assert abs(ql.gamma_x(two) - 1.0 / math.sqrt(lam)) <= 1e-10

    def test_bounded_below_across_levels(self):
        vals = [
            ql.gamma_x(_spatial_two(Mesh1D.uniform(4 * 2**k)))
            for k in range(5)
        ]
        assert min(vals) >= 0.5
        # frozen regression values from the first run of this artifact
        expect = [0.8867947080, 0.8867947080, 0.8860449752, 0.8853875035, 0.8853875035]
        assert np.allclose(vals, expect, atol=2e-6)


def _assembled_cross_blocks(two):
    """The cross-level 1D blocks assembled directly on the two meshes:
    d_t of a coarse trial function against the fine test basis, and the
    coarse spatial basis against the fine one."""
    f, c = two.fine, two.coarse
    B = assemble_1d("dtrial", (f.mesh_t_Y, f.spec_t_Y), (c.mesh_t_X, c.spec_t_X)).toarray()
    M = assemble_1d("mass", (f.mesh_x, f.spec_x), (c.mesh_x, c.spec_x)).toarray()
    return B, M


def _assembled_T_f_S_f(two):
    """B^T (M_t^{Y,f})^{-1} B and M^T (A_x^f)^{-1} M from the assembled blocks."""
    B, M = _assembled_cross_blocks(two)
    return B.T @ two.ctx_fine.fact_M_t_Y.solve(B), M.T @ two.ctx_fine.fact_A_x.solve(M)


def _dense_gamma_direct(two):
    """gamma_direct from the dense pencil (T_c (x) S_c, T_f (x) S_f) with
    the time-constants deflated: the oracle for the value factored by axis.
    T_f and S_f are assembled here, independently of `TwoLevel`."""
    c = two.coarse
    num = np.kron(two.ctx_coarse.T_t, two.ctx_coarse.S_x)
    T_f, S_f = _assembled_T_f_S_f(two)
    kernel = np.kron(np.ones((c.dim_t_X, 1)), np.eye(c.dim_x))
    lam = smallest_generalized_eigenvalue(num, np.kron(T_f, S_f), constraint_kernel=kernel)
    return math.sqrt(max(lam, 0.0))


def _dense_best_approx(two, u_fine):
    """Best approximation by a dense solve with P^T R_X^f P assembled from
    the fine pair's Kronecker factors: the oracle for the matrix-free path."""
    p, ctx = two.fine, two.ctx_fine
    e_T = np.zeros((p.dim_t_X, p.dim_t_X))
    e_T[-1, -1] = 1.0
    Et, Ex = two.E_t_X, two.E_x
    G = sum(
        np.kron(Et.T @ Ft @ Et, Ex.T @ Fx @ Ex)
        for Ft, Fx in ((p.M_t_X.toarray(), p.A_x.toarray()), (ctx.T_t, ctx.S_x),
                       (e_T, p.M_x.toarray()))
    )
    R = ctx.apply_R_X(u_fine).reshape(p.dim_t_X, p.dim_x)
    coeffs = np.linalg.solve(G, (Et.T @ R @ Ex).reshape(-1))
    return coeffs, ctx.norm_X_delta(u_fine - two.prolong_X(coeffs))


def _p0_half_pair():
    """A P0 test space on half the trial elements: it misses derivatives."""
    return assemble_matrices(
        (Mesh1D.uniform(4), CONT_P1), (Mesh1D.uniform(2), DISC_P0),
        (Mesh1D.uniform(4), CONT_P1_DIRICHLET),
    )


@pytest.fixture(params=sorted(_ORACLE_PAIRS))
def oracle_two(request):
    pair = _ORACLE_PAIRS[request.param]()
    return ql.TwoLevel(pair, ql._surrogate_pair(pair))


class TestCrossLevelBlocks:
    """The spaces nest, so `TwoLevel` reads every cross-level block off the
    fine pair through the embeddings; each is checked against the block
    assembled directly on the two meshes."""

    @pytest.mark.parametrize("name", [*sorted(_ORACLE_PAIRS), "p0-half"])
    def test_T_f_S_f_match_assembled(self, name):
        pair = _p0_half_pair() if name == "p0-half" else _ORACLE_PAIRS[name]()
        two = ql.TwoLevel(pair, ql._surrogate_pair(pair))
        T_f, S_f = _assembled_T_f_S_f(two)
        for got, expect in ((two.T_f, T_f), (two.S_f, S_f)):
            assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_pjotr_derivative_moments_match_assembled(self, oracle_two, rng, monkeypatch):
        # without forcing the auxiliary target is minus d_t u tested in the
        # fine test space; the Newton solve stops on receiving it
        class Captured(Exception):
            pass

        def capture(op, target, *args, **kwargs):
            raise Captured(target)

        monkeypatch.setattr(mo, "newton_solve", capture)
        two, c = oracle_two, oracle_two.coarse
        state = sy.SaddleState(rng.standard_normal(c.dim_Y), rng.standard_normal(c.dim_X))
        mu, data = mo.make_mu("constant", c=1.0), sy.ProblemData()
        disc, fine = (sy.Discretization(p, mu, data) for p in (c, two.fine))
        with pytest.raises(Captured) as caught:
            ql.check_pjotr(state, disc, fine, two)
        B, M = _assembled_cross_blocks(two)
        expect = (B @ state.u.reshape(c.dim_t_X, c.dim_x) @ M.T).reshape(-1)
        got = -caught.value.args[0]
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_coarse_test_norm_of_fine_function_matches_assembled(self, oracle_two, rng):
        two = oracle_two
        f, c = two.fine, two.coarse
        w = rng.standard_normal(f.dim_X)
        W = w.reshape(f.dim_t_X, f.dim_x)
        B = assemble_1d("dtrial", (c.mesh_t_Y, c.spec_t_Y), (f.mesh_t_X, f.spec_t_X)).toarray()
        M = assemble_1d("mass", (c.mesh_x, c.spec_x), (f.mesh_x, f.spec_x)).toarray()
        mom = (B @ W @ M.T).reshape(-1)
        expect = math.sqrt(
            w @ two.ctx_fine.apply_R_YX(w) + mom @ two.ctx_coarse.riesz_Y_solve(mom)
            + W[-1] @ (f.M_x @ W[-1])
        )
        assert abs(two.norm_X_delta_of_fine(w) - expect) <= 1e-12 * expect


class TestGammaDirect:
    @pytest.mark.parametrize("n", [4, 8])
    def test_tensor_lower_bound(self, n, heat_problem):
        pair = default_pair(n, n)
        two = ql.TwoLevel(pair, ql._surrogate_pair(pair))
        report = ql.infsup_report(two)
        assert report.gamma_direct is not None
        assert report.gamma_direct >= report.gamma_lower - 1e-8
        assert 0.0 < report.gamma_direct <= 1.0 + 1e-10

    def test_matches_dense_kronecker_pencil(self, oracle_two):
        expect = _dense_gamma_direct(oracle_two)
        assert abs(ql.gamma_direct(oracle_two) - expect) <= 1e-10 * expect

    def test_each_pencil_solved_once(self, rng, monkeypatch):
        # gamma_t's (T_c, A_t), then (T_c, T_f) and (S_c, S_f), which
        # gamma_x, gamma_direct and the best approximation's cap all share
        pencils = []

        def counting(A, B, *args, **kwargs):
            pencils.append((A, B))
            return smallest_generalized_eigenvalue(A, B, *args, **kwargs)

        monkeypatch.setattr(ql, "smallest_generalized_eigenvalue", counting)
        pair = default_pair(4, 4)
        two = ql.TwoLevel(pair, ql._surrogate_pair(pair))
        ql.infsup_report(two)
        two.best_approx_X(rng.standard_normal(two.fine.dim_X))
        ctx = two.ctx_coarse
        expect = [(ctx.T_t, pair.A_t_X), (ctx.T_t, two.T_f), (ctx.S_x, two.S_f)]
        assert len(pencils) == 3
        for A, B in expect:
            assert sum(a is A and b is B for a, b in pencils) == 1


class TestBestApprox:
    def test_matches_dense_gram_solve(self, oracle_two, rng, monkeypatch):
        runs = []

        def recording_pcg(*args):
            x, its = pcg(*args)
            runs.append((its, args[-1]))
            return x, its

        monkeypatch.setattr(ql, "pcg", recording_pcg)
        two = oracle_two
        gamma = ql.gamma_direct(two)
        norm = two.ctx_fine.norm_X_delta
        near = two.prolong_X(rng.standard_normal(two.coarse.dim_X))
        for u in (rng.standard_normal(two.fine.dim_X),
                  near + 1e-3 * rng.standard_normal(two.fine.dim_X)):
            coeffs, err = two.best_approx_X(u)
            expect, expect_err = _dense_best_approx(two, u)
            # in the minimised norm ||P c||_X = ||c||_G the stop proves
            # ||c - c*||_G <= ||r||_{R^-1} <= rtol ||b||_{R^-1} <= rtol / gamma ||c*||_G
            # (R_X^c <= G <= R_X^c / gamma^2); the error is quadratic in it
            diff = norm(two.prolong_X(coeffs - expect))
            assert diff <= sy.PCG_RTOL / gamma * norm(two.prolong_X(expect))
            assert abs(err - expect_err) <= 1e-10 * expect_err
        cap = cg_iteration_cap(1.0 / gamma**2, sy.PCG_RTOL)
        assert [r[1] for r in runs] == [cap, cap]
        assert all(1 <= its <= cap for its, _ in runs)

    def test_non_nested_trial_spaces_refused(self):
        coarse = default_pair(3, 4)
        two = ql.TwoLevel(coarse, default_pair(4, 4))
        with pytest.raises(InvalidSpaceError):
            two.best_approx_X(np.ones(two.fine.dim_X))

    def test_vanishing_infsup_refused(self, monkeypatch):
        # gamma = 0 (a test space that misses derivatives, such as P0 on
        # half the trial elements) proves no CG cap
        monkeypatch.setattr(ql, "gamma_direct", lambda two: 0.0)
        pair = default_pair(4, 4)
        two = ql.TwoLevel(pair, ql._surrogate_pair(pair))
        with pytest.raises(InvalidSpaceError, match="inf-sup 0"):
            two.best_approx_X(np.ones(two.fine.dim_X))

    def test_round_off_infsup_refused(self):
        # a P0 test space on half the trial elements misses derivatives;
        # the eigen solves read gamma^2 ~ 5e-17 instead of 0
        pair = _p0_half_pair()
        two = ql.TwoLevel(pair, ql._surrogate_pair(pair))
        assert ql.gamma_direct(two) == 0.0
        with pytest.raises(InvalidSpaceError, match="inf-sup 0"):
            two.best_approx_X(np.ones(two.fine.dim_X))


class TestLargePairMatrixFree:
    def test_128_pair_in_bounded_memory(self, rng):
        # dim_X = 16383 at 128 x 128: a dense coarse Gram would take 2.1 GB
        pair = default_pair(128, 128)
        c = rng.standard_normal(pair.dim_X)
        tracemalloc.start()
        try:
            two = ql.TwoLevel(pair, pair)
            gamma = ql.gamma_direct(two)
            coeffs, err = two.best_approx_X(two.prolong_X(c))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(gamma - 1.0) <= 1e-10
        assert np.abs(coeffs - c).max() <= 1e-10 * np.abs(c).max()
        assert err <= 1e-10 * two.ctx_fine.norm_X_delta(two.prolong_X(c))
        assert peak < 16 * 2**20


@pytest.fixture(scope="module")
def heat_levels():
    """Solved heat problem on three nested pairs plus fine surrogates."""
    problem = sy.heat_problem()
    out = []
    for n in (4, 8, 16):
        disc = sy.Discretization(default_pair(n, n), problem.mu, problem.data)
        fine, two = ql.surrogate(disc)
        out.append((disc, fine, disc.reference(1e-11), fine.reference(1e-11), two))
    return problem, disc.bundle, out


class TestQuasiOpt:
    def test_reference_in_trial_space_flagged(self, heat_levels):
        problem, bundle, levels = heat_levels
        disc, fine, state, fstate, two = levels[0]
        u_in = two.prolong_X(state.u)  # exactly representable on the fine pair
        with pytest.raises(PsaddleError):
            ql.quasi_opt_ratio(u_in, state, two, bundle, ql.infsup_report(two))

    def test_ratio_below_bound_all_levels(self, heat_levels):
        problem, bundle, levels = heat_levels
        for disc, fine, state, fstate, two in levels:
            report = ql.infsup_report(two)
            ratio, bound, _ = ql.quasi_opt_ratio(fstate.u, state, two, bundle, report)
            assert 1.0 - 1e-9 <= ratio <= bound

    def test_bound_formula(self):
        bundle = sy.derive_constants(3.0, 1.0)
        report = ql.InfSupReport(gamma_t=1.0, gamma_x=1.0, gamma_direct=1.0)
        bound = 2.0 * (1.0 + bundle.L_Ninv * bundle.L_N / report.gamma_lower**2)
        assert abs(bound - 154.0) < 1e-12


class TestTrialNormQuasiOpt:
    def test_constants(self):
        bundle = sy.derive_constants(3.0, 1.0)
        assert abs(bundle.C_1 - 50.2492235949962) < 1e-10
        cor = 2.0 * bundle.C_1 * math.sqrt(10.0)
        assert abs(cor - 317.8039944305247) < 1e-8

    def test_inequalities_hold(self, heat_levels):
        problem, bundle, levels = heat_levels
        for disc, fine, state, fstate, two in levels:
            rep = ql.check_trial_norm_quasi_opt(fstate.u, state, two, disc)
            assert max(rep.lhs_Xdelta, rep.lhs_H) <= 1.05 * rep.bound
            assert rep.aux_lhs <= 1.05 * rep.aux_bound


def _pjotr_levels(problem, levels=3):
    base = default_pair(8, 8)
    return [
        ql.pjotr_at_level(base, level, problem.data, problem.mu) for level in range(levels)
    ]


class TestPjotr:
    def test_heat_satisfied_and_lhs_saturated(self, heat_problem):
        """Satisfied, and equal across levels within 1e-12 relative.

        For mu = 1 the Y-Riesz map M_t^Y (x) A_x is A itself, and d_t of a
        P1 trial function is piecewise constant on the trial mesh.  So the
        test-space representers of d_t X and A X already lie in the
        unenriched test space: enrichment cannot change the discrete
        solution, and the defect stays put up to round-off.
        """
        reports = _pjotr_levels(heat_problem)
        assert all(r.satisfied for r in reports)
        lhs = [r.lhs for r in reports]
        assert min(lhs) > 0.0
        assert max(lhs) - min(lhs) <= 1e-12 * max(lhs)

    def test_quasilinear_lhs_decreasing(self, quasi_problem):
        """With a solution-dependent mu the Riesz map is no longer A, so
        enrichment changes the solution and the defect falls strictly."""
        lhs = [r.lhs for r in _pjotr_levels(quasi_problem)]
        assert lhs[0] > lhs[1] > lhs[2] > 0.0

    def test_rho_extremes(self, heat_levels):
        problem, bundle, levels = heat_levels
        disc, fine, state, fstate, two = levels[0]
        big = ql.check_pjotr(state, disc, fine, two, rho=1e12)
        assert big.satisfied  # any positive rhs dominates
        zero = ql.check_pjotr(state, disc, fine, two, rho=0.0)
        assert not zero.satisfied  # lhs > 0 can never fall below zero

    def test_enrichment_terminates(self, heat_problem):
        reports = ql.enrich_until_pjotr(
            default_pair(8, 8), heat_problem.data, heat_problem.mu, rho=1.0, max_levels=4
        )
        assert reports[-1].satisfied and reports[-1].level <= 4
        assert [r.level for r in reports] == list(range(len(reports)))

    def test_solution_inside_trial_space_degenerates(self):
        # u(t, x) = (1 - t) * hat_mid(x) lies in the trial space exactly, so
        # the computable right-hand side of the condition degenerates to zero
        mu = mo.make_mu("constant", c=1.0)
        pair = default_pair(4, 4)
        mid = pair.dim_x // 2
        coeffs = np.zeros((pair.dim_t_X, pair.dim_x))
        for i, t in enumerate(pair.mesh_t_X.points):
            coeffs[i, mid] = 1.0 - t
        u_exact_coeffs = coeffs.reshape(-1)

        # manufactured data: f0 = du/dt (piecewise in x), f1 = du/dx
        from psaddle.spaces import eval_basis_at_points

        def hat(x):
            B = eval_basis_at_points(pair.mesh_x, pair.spec_x, np.asarray(x).reshape(-1))
            return np.asarray(B[:, mid].todense()).reshape(np.asarray(x).shape)

        def dhat(x):
            B = eval_basis_at_points(
                pair.mesh_x, pair.spec_x, np.asarray(x).reshape(-1), derivative=True
            )
            return np.asarray(B[:, mid].todense()).reshape(np.asarray(x).shape)

        data = sy.ProblemData(
            ell_f0=lambda t, x: -1.0 * hat(x) + 0.0 * t,
            ell_f1=lambda t, x: (1.0 - t) * dhat(x),
            u0=hat,
        )
        disc = sy.Discretization(pair, mu, data)
        state = disc.reference(1e-12)
        assert disc.ctx.norm_X_delta(state.u - u_exact_coeffs) <= 1e-9

        fine, two = ql.surrogate(disc)
        rep = ql.check_pjotr(state, disc, fine, two, rho=1.0)
        # the trace distance is a difference of O(1) quantities, so the
        # degenerate value sits at the sqrt-of-cancellation floor
        assert rep.lhs <= 1e-6 and rep.rhs <= 1e-6


class TestEfficiencyReliability:
    def test_bound_values(self):
        lower = 1.0 / math.sqrt(11.0)
        upper = 18.0 * math.sqrt(9.0 + (3.0 * math.sqrt(10.0) + 1.0) ** 2)
        # only check the formula wiring through a tiny solve
        problem = sy.heat_problem()
        disc = sy.Discretization(default_pair(2, 2), problem.mu, problem.data)
        assert disc.bundle == sy.derive_constants(3.0, 1.0)
        fine, two = ql.surrogate(disc)
        ratio, lo, up = ql.efficiency_reliability(
            fine.reference(1e-11).u, disc.reference(1e-11), two, disc, rho=1.0
        )
        assert abs(lo - lower) < 1e-14
        assert abs(up - upper) < 1e-11

    def test_ratio_within_bounds_three_levels(self, heat_levels):
        problem, bundle, levels = heat_levels
        for disc, fine, state, fstate, two in levels:
            ratio, lo, up = ql.efficiency_reliability(fstate.u, state, two, disc, rho=1.0)
            assert lo / 1.05 <= ratio <= up * 1.05
