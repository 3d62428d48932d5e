import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from psaddle import core_linalg, riesz
from psaddle.errors import InvalidSpaceError, NotSpdError, PsaddleError
from psaddle.riesz import RieszContext, estimate_C_J
from psaddle.spaces import (
    CONT_P1,
    CONT_P1_DIRICHLET,
    DISC_P0,
    DISC_P1,
    Mesh1D,
    assemble_matrices,
    default_pair,
    embedding_matrix,
    refine_times,
)
from psaddle import system as sy


@pytest.fixture(scope="module")
def ctx3():
    return RieszContext(default_pair(3, 3))


def dense_RX(pair, c=1.0):
    """R_X(c) = c M_t^X (x) A_x + D^T R_Y^{-1} D / c + trace, dense."""
    RY = np.kron(pair.M_t_Y.toarray(), pair.A_x.toarray())
    D = np.kron(pair.B_t.toarray(), pair.M_x.toarray())
    G = c * np.kron(pair.M_t_X.toarray(), pair.A_x.toarray())
    tail = (pair.dim_t_X - 1) * pair.dim_x
    G[tail:, tail:] += pair.M_x.toarray()
    return G + D.T @ np.linalg.solve(RY, D) / c


class TestRieszY:
    def test_zero(self, ctx3):
        assert np.all(ctx3.riesz_Y_solve(np.zeros(ctx3.pair.dim_Y)) == 0.0)

    def test_roundtrip(self, ctx3, rng):
        w = rng.standard_normal(ctx3.pair.dim_Y)
        got = ctx3.riesz_Y_solve(ctx3.apply_R_Y(w))
        assert np.abs(got - w).max() <= 1e-12 * np.abs(w).max()

    def test_dual_norm_vs_dense(self, ctx3, rng):
        pair = ctx3.pair
        RY = np.kron(pair.M_t_Y.toarray(), pair.A_x.toarray())
        h = rng.standard_normal(pair.dim_Y)
        expect = math.sqrt(h @ np.linalg.solve(RY, h))
        assert abs(ctx3.dual_norm_Y(h) - expect) <= 1e-12 * expect


class TestRieszX:
    def test_zero(self, ctx3):
        assert np.all(ctx3.riesz_X_solve(np.zeros(ctx3.pair.dim_X)) == 0.0)

    @pytest.mark.parametrize("nt,nx", [(2, 2), (3, 3), (2, 3)])
    def test_roundtrip_vs_dense_gram(self, nt, nx, rng):
        ctx = RieszContext(default_pair(nt, nx))
        RX = dense_RX(ctx.pair)
        h = rng.standard_normal(ctx.pair.dim_X)
        got = ctx.riesz_X_solve(h)
        expect = np.linalg.solve(RX, h)
        assert np.abs(got - expect).max() <= 1e-10 * max(np.abs(expect).max(), 1.0)

    def test_norm_identity(self, ctx3, rng):
        h = rng.standard_normal(ctx3.pair.dim_X)
        v = ctx3.riesz_X_solve(h)
        assert abs(ctx3.norm_X_delta(v) ** 2 - h @ v) <= 1e-12 * abs(h @ v)

    def test_apply_matches_dense(self, ctx3, rng):
        RX = dense_RX(ctx3.pair)
        u = rng.standard_normal(ctx3.pair.dim_X)
        assert np.allclose(ctx3.apply_R_X(u), RX @ u, atol=1e-12)

    @pytest.mark.parametrize("block", ["M_x", "A_x", "M_t_Y"])
    def test_indefinite_spatial_mass_refused(self, block):
        # the context factors A_x and M_t^Y when it is built; the spatial
        # mass meets its first factorization in the mode transform
        pair = default_pair(2, 3)
        negated = dataclasses.replace(pair, **{block: -getattr(pair, block)})
        if block != "M_x":
            with pytest.raises(NotSpdError, match="positive definite"):
                RieszContext(negated)
            return
        ctx = RieszContext(negated)
        with pytest.raises(NotSpdError):
            ctx.riesz_X_solve(np.zeros(pair.dim_X))


def _blocks_pair(kind):
    """Jittered 5 x 6 meshes; the test space is disc-P1 on the same temporal
    mesh, on that mesh refined twice ("enriched"), or disc-P0 ("p0")."""
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 1.0, 6)
    x = np.linspace(0.0, 1.0, 7)
    t[1:-1] += rng.uniform(-0.04, 0.04, 4)
    x[1:-1] += rng.uniform(-0.03, 0.03, 5)
    mesh_t, mesh_x = Mesh1D(tuple(t)), Mesh1D(tuple(x))
    Y_t = {"jittered": (mesh_t, DISC_P1), "enriched": (refine_times(mesh_t, 2), DISC_P1),
           "p0": (mesh_t, DISC_P0)}[kind]
    return assemble_matrices((mesh_t, CONT_P1), Y_t, (mesh_x, CONT_P1_DIRICHLET))


def _rel_err(got, expect):
    return np.abs(got - expect).max() / np.abs(expect).max()


class TestRieszAgainstDenseGram:
    """Both Riesz solves equal a dense solve with the assembled Gram."""

    @pytest.mark.parametrize("kind", ["jittered", "enriched", "p0"])
    def test_riesz_X_solve(self, kind, rng):
        ctx = RieszContext(_blocks_pair(kind))
        h = rng.standard_normal(ctx.pair.dim_X)
        assert _rel_err(ctx.riesz_X_solve(h), np.linalg.solve(dense_RX(ctx.pair), h)) <= 1e-12

    @pytest.mark.parametrize("kind", ["jittered", "enriched", "p0"])
    @pytest.mark.parametrize("c", [0.01, 1.3, 100.0])
    def test_balanced_riesz_X_solver(self, kind, c, rng):
        ctx = RieszContext(_blocks_pair(kind))
        h = rng.standard_normal(ctx.pair.dim_X)
        expect = np.linalg.solve(dense_RX(ctx.pair, c), h)
        assert _rel_err(ctx.riesz_X_solver(c)(h), expect) <= 1e-12

    def test_balanced_weight_one_is_riesz_X_solve(self, ctx3):
        # c = 1 keeps the unweighted solve, bit for bit
        assert ctx3.riesz_X_solver(1.0) == ctx3.riesz_X_solve

    @pytest.mark.parametrize("kind", ["jittered", "enriched", "p0"])
    def test_riesz_Y_solve(self, kind, rng):
        pair = _blocks_pair(kind)
        ctx = RieszContext(pair)
        RY = np.kron(pair.M_t_Y.toarray(), pair.A_x.toarray())
        h = rng.standard_normal(pair.dim_Y)
        assert _rel_err(ctx.riesz_Y_solve(h), np.linalg.solve(RY, h)) <= 1e-12


def _oversize_pair(kind):
    mesh_t = Mesh1D.uniform(1)
    if kind == "space":
        # dim_x = 11599: V and A_x^{-1} would take 1.08 GB each
        return assemble_matrices((mesh_t, CONT_P1), (mesh_t, DISC_P0),
                                 (Mesh1D.uniform(11600), CONT_P1_DIRICHLET))
    # dim_t_Y = 16384 on a test mesh refined 13 times: (M_t^Y)^{-1} would
    # take 2.1 GB; the trial side stays small (dim_X = 2)
    return assemble_matrices((mesh_t, CONT_P1), (refine_times(mesh_t, 13), DISC_P1),
                             (Mesh1D.uniform(2), CONT_P1_DIRICHLET))


class TestDenseSizeGuard:
    """An oversize pair is refused before any dense transform is allocated."""

    @pytest.mark.parametrize("kind", ["space", "time"])
    def test_oversize_pair_refused_before_allocation(self, kind):
        pair = _oversize_pair(kind)
        refused = {
            "space": ("riesz_X_solve", "riesz_Y_solve", "estimate_C_J"),
            "time": ("riesz_Y_solve",),
        }[kind]
        ctx = RieszContext(pair)
        calls = {
            "riesz_X_solve": (ctx.riesz_X_solve, np.zeros(pair.dim_X)),
            "riesz_Y_solve": (ctx.riesz_Y_solve, np.zeros(pair.dim_Y)),
            "estimate_C_J": (estimate_C_J, ctx),
        }
        tracemalloc.start()
        try:
            for name in refused:
                fn, arg = calls[name]
                with pytest.raises(PsaddleError, match="above the"):
                    fn(arg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_trial_gram_on_oversize_test_space(self, rng):
        # the trial Gram and its norm reach (M_t^Y)^{-1} only through
        # T = B_t^T (M_t^Y)^{-1} B_t, taken from the banded factor, so a
        # test space too large for the dense inverse leaves them working
        pair = _oversize_pair("time")
        ctx = RieszContext(pair)
        h = rng.standard_normal(pair.dim_X)
        tracemalloc.start()
        try:
            v = ctx.riesz_X_solve(h)
            norm2 = ctx.norm_X_delta(v) ** 2
            Rv = ctx.apply_R_X(v)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert abs(norm2 - h @ v) <= 1e-12 * (h @ v)
        assert np.abs(Rv - h).max() <= 1e-12 * np.abs(h).max()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("name", ["RieszContext.S_x"])
    def test_cross_level_blocks_guarded(self, name, monkeypatch):
        # S_x carries the cross-level work of quality.TwoLevel: a limit one
        # byte below the array refuses it by name, and a limit at its size
        # lets it through
        pair = default_pair(8, 8)
        ctx = RieszContext(pair)
        build, entries = {
            "RieszContext.S_x": (lambda: ctx.S_x, pair.dim_x**2),
        }[name]
        monkeypatch.setattr(core_linalg, "MAX_DENSE_BYTES", 8 * entries - 1)
        with pytest.raises(PsaddleError, match=rf"dense array {re.escape(name)} of shape"):
            build()
        monkeypatch.setattr(core_linalg, "MAX_DENSE_BYTES", 8 * entries)
        assert build().size == entries

    def test_embedding_sparse_on_long_time_mesh(self):
        # the 1D embeddings are CSR with at most two nonzeros per column on
        # a shared mesh, so a pair with 4096 temporal elements builds in a
        # few MiB (a dense embed_t alone would take 256 MiB)
        tracemalloc.start()
        try:
            pair = default_pair(4096, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert pair.x_in_y and pair.embed_t.getnnz(axis=0).max() == 2
        coarse_x = (pair.mesh_x, pair.spec_x)
        fine_x = (refine_times(pair.mesh_x, 2), CONT_P1_DIRICHLET)
        E = embedding_matrix(coarse_x, fine_x)
        assert E.shape == (31, pair.dim_x) and E.nnz == 7 * pair.dim_x


def test_riesz_machinery_factors_no_lu(monkeypatch, rng):
    """Riesz solves, dual norms and C_J run on dense transforms alone.

    The one sparse factorization in the package is the banded Cholesky
    factorization (general sparse LU is gone).  The context factors the 1D
    matrices M_t^Y and A_x with it when it is built, and the reference
    solver's Newton steps factor the test-side Jacobian.  Every banded
    factor, whether made by `banded_cholesky` or from a pattern an operator
    holds, is made by the numeric step `BandedPattern.factor`, so that is
    the one counted, from after the context and the discretization are
    built: the Riesz machinery makes no call, a reference solve makes
    some, which shows that the counter is live.
    """
    calls = []
    orig = core_linalg.BandedPattern.factor

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    ctx = RieszContext(_blocks_pair("jittered"))
    problem = sy.heat_problem()
    disc = sy.Discretization(default_pair(2, 2), problem.mu, problem.data)
    monkeypatch.setattr(core_linalg.BandedPattern, "factor", counting)
    ctx.riesz_X_solve(rng.standard_normal(ctx.pair.dim_X))
    ctx.riesz_Y_solve(rng.standard_normal(ctx.pair.dim_Y))
    ctx.dual_norm_X(rng.standard_normal(ctx.pair.dim_X))
    estimate_C_J(ctx)
    assert calls == []
    disc.reference()
    assert calls


class TestSaddleBlocks:
    """The coupling operators agree with dense Kronecker references."""

    @pytest.mark.parametrize("kind", ["jittered", "enriched"])
    def test_blocks_match_matvecs(self, kind, rng):
        ctx = RieszContext(_blocks_pair(kind))
        u = rng.standard_normal(ctx.pair.dim_X)
        lam = rng.standard_normal(ctx.pair.dim_Y)
        M_x = ctx.pair.M_x.toarray()
        D = np.kron(ctx.pair.B_t.toarray(), M_x)
        e_T = np.zeros(ctx.pair.dim_t_X)
        e_T[-1] = 1.0
        checks = [
            (D @ u, ctx.apply_D(u)),
            (D.T @ lam, ctx.apply_Dt(lam)),
            (np.kron(np.outer(e_T, e_T), M_x) @ u, ctx.apply_trace_term(u)),
            (np.kron(ctx.T_t, ctx.S_x) @ u, ctx.apply_Dt(ctx.riesz_Y_solve(ctx.apply_D(u)))),
        ]
        for got, expect in checks:
            assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


class TestNormXDelta:
    def test_zero(self, ctx3):
        assert ctx3.norm_X_delta(np.zeros(ctx3.pair.dim_X)) == 0.0

    def test_time_constant_closed_form(self, ctx3, rng):
        # u(t, x) = w(x): derivative term vanishes,
        # norm^2 = T ||w||_V^2 + ||w||_H^2
        pair = ctx3.pair
        w = rng.standard_normal(pair.dim_x)
        z = np.tile(w, pair.dim_t_X)
        expect = math.sqrt(
            pair.T * (w @ pair.A_x @ w) + w @ pair.M_x @ w
        )
        assert abs(ctx3.norm_X_delta(z) - expect) <= 1e-12 * expect


class TestInfSupIdentity:
    def test_zero(self, ctx3):
        lhs, rhs = ctx3.check_infsup_identity(np.zeros(ctx3.pair.dim_X))
        assert lhs == 0.0 and rhs == 0.0

    @pytest.mark.parametrize("nt,nx", [(4, 4), (8, 8), (16, 16)])
    def test_random_functions(self, nt, nx, rng):
        ctx = RieszContext(default_pair(nt, nx))
        for _ in range(50):
            z = rng.standard_normal(ctx.pair.dim_X)
            lhs, rhs = ctx.check_infsup_identity(z)
            assert abs(lhs - rhs) <= 1e-10 * lhs

    def test_time_constant_closed_form(self, ctx3, rng):
        pair = ctx3.pair
        w = rng.standard_normal(pair.dim_x)
        z = np.tile(w, pair.dim_t_X)
        expect = pair.T * (w @ pair.A_x @ w) + w @ pair.M_x @ w
        lhs, rhs = ctx3.check_infsup_identity(z)
        assert abs(lhs - expect) <= 1e-12 * expect
        assert abs(rhs - expect) <= 1e-10 * expect

    def test_requires_containment(self):
        m = Mesh1D.uniform(3)
        pair = assemble_matrices((m, CONT_P1), (m, DISC_P0), (m, CONT_P1_DIRICHLET))
        ctx = RieszContext(pair)
        with pytest.raises(InvalidSpaceError):
            ctx.check_infsup_identity(np.zeros(pair.dim_X))


class TestEstimateCJ:
    @pytest.mark.parametrize("kind", ["uniform", "jittered", "enriched"])
    def test_matches_dense_generalized_eigensolve(self, kind):
        pair = default_pair(4, 4) if kind == "uniform" else _blocks_pair(kind)
        ctx = RieszContext(pair)
        n = pair.dim_t_X

        def trace(row):
            e = np.zeros((n, n))
            e[row, row] = 1.0
            return np.kron(e, pair.M_x.toarray())

        G = dense_RX(pair) - trace(n - 1)  # the trial Gram without its trace term
        best = max(sla.eigh(trace(row), G, eigvals_only=True)[-1] for row in (0, n - 1))
        expect = math.sqrt(best)
        assert abs(estimate_C_J(ctx) - expect) <= 1e-12 * expect

    def test_finite_positive(self):
        val = estimate_C_J(RieszContext(default_pair(8, 8)))
        assert 0.0 < val < 10.0

    def test_lower_bound_from_heat_solution(self, heat_problem):
        pair = default_pair(16, 16)
        ctx = RieszContext(pair)
        # nodal interpolation onto the trial space
        t_nodes, x_nodes = pair.mesh_t_X.points, pair.mesh_x.points[1:-1]
        u = heat_problem.u_exact(t_nodes[:, None], x_nodes[None, :]).reshape(-1)
        du = ctx.apply_D(u)
        den = math.sqrt(u @ ctx.apply_R_YX(u) + du @ ctx.riesz_Y_solve(du))
        ratio = ctx.norm_H_of_trace(u, 0.0) / den
        assert estimate_C_J(ctx) >= ratio - 1e-12

    def test_nondecreasing_under_refinement(self):
        vals = [
            estimate_C_J(RieszContext(default_pair(n, n))) for n in (4, 8, 16)
        ]
        assert vals[0] <= vals[1] + 1e-8 and vals[1] <= vals[2] + 1e-8
