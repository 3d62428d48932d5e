import dataclasses
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from psaddle import core_linalg
from psaddle import monotone as mo
from psaddle import riesz
from psaddle import system as sy
from psaddle import uzawa as uz
from psaddle.errors import PsaddleError
from psaddle.spaces import default_pair

from helpers import PAIR_KINDS, pair_of_kind, quadrature_matrix


class TestPlanInnerCount:
    def test_heat_case_l5(self):
        # direct evaluation of the defining inequality over increasing L
        bundle = sy.derive_constants(3.0, 1.0)
        L = uz.plan_inner_count(bundle, 0.9995)
        C_3 = uz.make_config(bundle, 0.9995).C_3
        cA, cS = bundle.A_constants, bundle.S_constants
        target = (0.9995 - cS.sigma) / cS.theta_star
        assert abs(C_3 - (target + 1.0) / 0.9995) < 1e-12
        assert cA.sigma**L * (C_3 + 1.0) <= target
        assert cA.sigma ** (L - 1) * (C_3 + 1.0) > target
        assert L == 5

    def test_zero_inner_contraction(self):
        # m_A = L_A: sigma_A = 0, a single inner step always suffices
        bundle = sy.derive_constants(2.0, 2.0)
        assert uz.plan_inner_count(bundle, 0.99) == 1

    def test_sigma_hat_out_of_range(self):
        bundle = sy.derive_constants(3.0, 1.0)
        with pytest.raises(PsaddleError):
            uz.plan_inner_count(bundle, bundle.S_constants.sigma)
        with pytest.raises(PsaddleError):
            uz.plan_inner_count(bundle, 1.0)

    def test_config_validation(self):
        bundle = sy.derive_constants(3.0, 1.0)
        cfg = uz.make_config(bundle)
        assert cfg.sigma_S < cfg.sigma_hat_S < 1.0
        with pytest.raises(PsaddleError, match="outer iteration cap"):
            uz.make_config(bundle, max_outer=0)
        for sigma_hat in (0.5, bundle.S_constants.sigma, 1.0):
            with pytest.raises(PsaddleError, match="no outer-rate target"):
                uz.UzawaConfig(bundle, sigma_hat_S=sigma_hat, L=1)
            # with a practical L no count is planned, and the config refuses
            with pytest.raises(PsaddleError, match="no outer-rate target"):
                uz.make_config(bundle, sigma_hat_S=sigma_hat, L_practical=3)

    def test_config_holds_only_independent_inputs(self):
        # the step constants are read off the bundle, with the expressions
        # of the constant calculus
        assert [f.name for f in dataclasses.fields(uz.UzawaConfig)] == [
            "bundle", "sigma_hat_S", "L", "tol", "max_outer",
        ]
        bundle = sy.derive_constants(6.0, 7.0 / 8.0)
        cfg = uz.make_config(bundle, L_practical=4)
        cA, cS = bundle.A_constants, bundle.S_constants
        assert cfg.theta_star_A == 2.0 / (cA.m + cA.L)
        assert cfg.theta_star_S == 2.0 / (cS.m + cS.L)
        assert cfg.sigma_S == cS.sigma
        target = (cfg.sigma_hat_S - cS.sigma) / cS.theta_star
        assert cfg.C_3 == (target + 1.0 / cA.m) / cfg.sigma_hat_S

    def test_practical_count_is_not_planned(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("plan_inner_count called")

        monkeypatch.setattr(uz, "plan_inner_count", refuse)
        assert uz.make_config(sy.derive_constants(3.0, 1.0), L_practical=5).L == 5

    @pytest.mark.parametrize("tol", [-1e-8, math.nan])
    def test_config_refuses_tol(self, tol):
        # a NaN tol would never stop the loop on eta; tol = 0 runs every step
        bundle = sy.derive_constants(3.0, 1.0)
        assert uz.make_config(bundle, tol=0.0).tol == 0.0
        with pytest.raises(PsaddleError, match="tol must be non-negative"):
            uz.make_config(bundle, tol=tol)


def _uzawa_on_coefficients(s, cfg, stop_share=0.0):
    """Textbook Uzawa loop on coefficients: every inner step applies A_Y
    and solves with R_Y, and the couplings are the context's CSR blocks.
    Returns the last monitored lambda and the eta, res_Y and res_X traces
    of cfg.max_outer outer steps, or of the steps before the first with
    eta below stop_share eta_0."""
    f, g = s.rhs
    ctx = s.ctx
    theta_A, theta_S = cfg.theta_star_A, cfg.theta_star_S
    lam, u = np.zeros(s.pair.dim_Y), np.zeros(s.pair.dim_X)
    eta, res_Y, res_X = [], [], []
    for _ in range(cfg.max_outer):
        target = f - ctx.apply_D(u)
        lam_k = lam
        for _ in range(cfg.L):
            lam_k = lam_k - theta_A * ctx.riesz_Y_solve(s.op_Y.apply(lam_k) - target)
        r_Y = target - s.op_Y.apply(lam_k)
        r_X = g - ctx.apply_Dt(lam_k) + s.op_X.apply(u) + ctx.apply_trace_term(u)
        dX = ctx.riesz_X_solve(r_X)
        r_Y_norm, r_X_norm = ctx.dual_norm_Y(r_Y), math.sqrt(max(r_X @ dX, 0.0))
        if eta and r_Y_norm + r_X_norm < stop_share * eta[0]:
            break
        lam = lam_k
        res_Y.append(r_Y_norm)
        res_X.append(r_X_norm)
        eta.append(r_Y_norm + r_X_norm)
        u = u - theta_S * dX
    return lam, eta, res_Y, res_X


# The sweep and the coefficient loop sum in different orders, so their eta
# differ by rounding, of order eps eta_0 in absolute terms, and an rtol of
# 1e-12 reads that rounding once eta falls to about 1e-4 eta_0: the first
# misses measured on heat8, ramp8 and quasi8 for L = 1 to 40 lie at
# eta/eta_0 = 2.8e-5 to 3.1e-4.  The comparisons that reach it within their
# steps stop before the first outer step with eta below this share of
# eta_0, and still compare at least _MIN_COMPARED_STEPS steps.
_COMPARED_ETA_SHARE = 1e-3
_MIN_COMPARED_STEPS = 5


def _assert_matches_coefficient_loop(s, cfg, stop_at_floor=False):
    """The sweep in its test-side coordinates against `_uzawa_on_coefficients`:
    the same steps and work, floats to rounding (the summation order
    differs by design), over all cfg.max_outer outer steps, or with
    stop_at_floor over those before the first with eta below
    _COMPARED_ETA_SHARE eta_0."""
    stop_share = _COMPARED_ETA_SHARE if stop_at_floor else 0.0
    lam, eta, res_Y, res_X = _uzawa_on_coefficients(s, cfg, stop_share)
    if stop_at_floor:
        assert len(eta) >= _MIN_COMPARED_STEPS
        cfg = dataclasses.replace(cfg, max_outer=len(eta))
    state, trace = uz.run_inexact_uzawa(s.rhs, s.pair, s.op_Y, s.op_X, s.ctx, cfg)
    assert len(trace.k) == len(eta) == cfg.max_outer
    assert trace.napply == [cfg.L + 1] * len(eta)
    np.testing.assert_allclose(trace.eta, eta, rtol=1e-12, atol=0)
    np.testing.assert_allclose(trace.res_X, res_X, rtol=1e-12, atol=0)
    assert np.all(np.abs(np.subtract(trace.res_Y, res_Y)) <= 1e-12 * np.asarray(eta))
    assert np.abs(state.lam - lam).max() <= 1e-12 * np.abs(lam).max()


class TestRunInexactUzawa:
    def test_zero_data_zero_start(self, heat8):
        rhs0 = (np.zeros(heat8.pair.dim_Y), np.zeros(heat8.pair.dim_X))
        cfg = uz.make_config(heat8.bundle, tol=1e-14, max_outer=10)
        state, trace = uz.run_inexact_uzawa(
            rhs0, heat8.pair, heat8.op_Y, heat8.op_X, heat8.ctx, cfg
        )
        assert trace.converged and len(trace.k) == 1
        assert trace.eta[0] == 0.0
        assert np.all(state.lam == 0.0) and np.all(state.u == 0.0)

    @pytest.mark.parametrize("setup_name", ["heat8", "quasi8"])
    def test_apriori_envelope(self, setup_name, request):
        # both error components stay below the R-linear envelope at every
        # outer iteration, with the theoretical inner count
        s = request.getfixturevalue(setup_name)
        cfg = uz.make_config(s.bundle, tol=0.0, max_outer=12)
        state, trace = uz.run_inexact_uzawa(
            s.rhs, s.pair, s.op_Y, s.op_X, s.ctx, cfg, reference=s.reference()
        )
        C3 = cfg.C_3
        C4 = max(
            s.ctx.norm_Y(s.reference().lam) / C3, s.ctx.norm_X_delta(s.reference().u)
        )
        for i, k in enumerate(trace.k):
            assert trace.err_lambda[i] / C3 <= cfg.sigma_hat_S ** (k + 1) * C4 + 1e-9
            assert trace.err_u[i] <= cfg.sigma_hat_S**k * C4 + 1e-9

    @staticmethod
    def _count_operator_calls(s, monkeypatch):
        """Run 5 outer steps with L = 7, counting the calls of the
        operator's flux and application; returns the trace and the calls."""
        calls = []
        Op = type(s.op_Y)
        for name in ("flux", "apply"):
            orig = getattr(Op, name)

            def counted(self, arg, orig=orig, name=name):
                calls.append(name)
                return orig(self, arg)

            monkeypatch.setattr(Op, name, counted)
        cfg = uz.make_config(s.bundle, tol=0.0, max_outer=5, L_practical=7)
        _, trace = uz.run_inexact_uzawa(s.rhs, s.pair, s.op_Y, s.op_X, s.ctx, cfg)
        assert trace.inner_count == [7] * 5
        assert trace.napply == [7 + 1] * 5
        return trace, calls

    def test_cost_bookkeeping(self, quasi8, monkeypatch):
        # napply books the flux evaluations the loop makes, on both sides
        trace, calls = self._count_operator_calls(quasi8, monkeypatch)
        assert calls == ["flux"] * sum(trace.napply)

    def test_cost_bookkeeping_linear(self, heat8, monkeypatch):
        # for a constant mu, napply books the same applications, and each
        # is a scaling: no flux evaluation and no application at all
        assert heat8.op_Y.mu.constant is not None
        _, calls = self._count_operator_calls(heat8, monkeypatch)
        assert calls == []

    @pytest.mark.parametrize("L", [1, 2, 5, 40])
    @pytest.mark.parametrize("setup_name", ["heat8", "quasi8", "ramp8"])
    def test_reused_inner_step_matches_fresh_steps(self, setup_name, L, request):
        # the sweep on element gradients, which reuses the monitored pair's
        # projected flux for the next first inner step, or for a constant mu
        # (heat8, ramp8) in the modes of R_X, which takes the L inner steps
        # as one closed-form update,
        # against the textbook loop on coefficients with a fresh application
        # and Riesz solve per inner step.  heat8 with L >= 2 reaches the
        # rounding floor within the 15 steps (7 to 9 steps compared)
        s = request.getfixturevalue(setup_name)
        _assert_matches_coefficient_loop(
            s, uz.make_config(s.bundle, tol=0.0, max_outer=15, L_practical=L),
            stop_at_floor=setup_name == "heat8" and L >= 2,
        )

    @pytest.mark.parametrize("setup_name, max_outer, stop_at_floor", [
        pytest.param("heat8", 1, False, id="heat8"),
        pytest.param("ramp8", 12, True, id="ramp8"),
    ])
    def test_closed_form_at_q_zero(self, setup_name, max_outer, stop_at_floor, request):
        # theta_A* = 1/c makes q = 1 - theta_A* c zero: one inner step solves
        # the test-side block, and log1p(-1) is no way to get there.
        # (L_A, m_A) = (c, c) are the constants of A_Y = c R_Y, the one pair
        # with theta_A* = 1/c.  For the heat problem (c = 1) they give
        # theta_S* = 1 and the first outer step solves the system to
        # rounding, so later steps would compare rounding noise; ramp8
        # reaches the rounding floor after 7 of its 12 steps.
        s = request.getfixturevalue(setup_name)
        c = s.op_Y.mu.constant
        bundle = sy.derive_constants(c, c)
        cfg = uz.make_config(bundle, tol=0.0, max_outer=max_outer, L_practical=3)
        assert uz._geometric_factors(cfg.theta_star_A * c, cfg.L)[0] == 0.0
        _assert_matches_coefficient_loop(s, cfg, stop_at_floor)

    def test_closed_form_small_damping(self, heat8):
        # theta_A* c = 1e-5 from the constants (2e5 c - c, c) of A_Y = c R_Y
        # with mu = c = 1e-4: a naive 1 - q**L would lose about five digits of
        # the update, far beyond the loop's rtol of 1e-12.  (For heat8's
        # c = 1 that theta_A* c needs L_A near 2e5, and no such pair with
        # m_A <= c <= L_A leaves a double between sigma_S and 1 for sigma_hat.)
        c = 1e-4
        s = sy.Discretization(heat8.pair, mo.make_mu("constant", c=c), heat8.data)
        cfg = uz.make_config(
            sy.derive_constants(2e5 * c - c, c), tol=0.0, max_outer=12, L_practical=10
        )
        assert abs(cfg.theta_star_A * c - 1e-5) <= 1e-20
        _assert_matches_coefficient_loop(s, cfg)

    @pytest.mark.parametrize("L", [3, 4])
    def test_closed_form_at_negative_q(self, ramp8, L):
        # the valid constants (L_A, m_A) = (c, c/3) of A_Y = c R_Y give
        # theta_A* c = 3/2 and q = -1/2: the monitored residual q^L d of an
        # odd L points against d.  Both reach the rounding floor after 6 or
        # 7 of the 15 steps.
        c = ramp8.op_Y.mu.constant
        cfg = uz.make_config(
            sy.derive_constants(c, c / 3.0), tol=0.0, max_outer=15, L_practical=L
        )
        assert cfg.theta_star_A * c == 1.5
        _assert_matches_coefficient_loop(ramp8, cfg, stop_at_floor=True)

    @pytest.mark.parametrize("theta_c", [1e-9, 1e-6, 1.0 / 9.0, 0.5, 1.0, 1.5])
    def test_geometric_factors_exact(self, theta_c):
        # q^L and (1 - q^L)/(theta c) against exact rational arithmetic on
        # the same double theta c
        t = Fraction(theta_c)
        for L in (1, 2, 10, 40):
            q_L, s_L = uz._geometric_factors(theta_c, L)
            exact_q_L = (1 - t) ** L
            exact_s_L = sum((1 - t) ** j for j in range(L))
            assert abs(Fraction(q_L) - exact_q_L) <= 1e-15 * abs(exact_q_L)
            assert abs(Fraction(s_L) - exact_s_L) <= 1e-15 * exact_s_L

    @pytest.mark.parametrize("setup_name, solves", [("heat8", 1), ("quasi8", 0)])
    def test_no_riesz_Y_solve_per_outer_step(self, setup_name, solves, request, monkeypatch):
        # the sweep works on element gradients with the dense inverses of
        # M_t^Y and A_x folded into its maps, or for a constant mu (heat8)
        # in the modes of R_X: it never solves with R_Y in the loop, and for
        # a constant mu once per solve, to read lambda back (f = 0 on heat8,
        # so no solve splits R_Y^{-1} f)
        s = request.getfixturevalue(setup_name)
        calls = []
        orig = type(s.ctx).riesz_Y_solve

        def counting(self, h):
            calls.append(1)
            return orig(self, h)

        monkeypatch.setattr(type(s.ctx), "riesz_Y_solve", counting)
        for max_outer in (2, 4):
            calls.clear()
            cfg = uz.make_config(s.bundle, tol=0.0, max_outer=max_outer, L_practical=5)
            _, trace = uz.run_inexact_uzawa(s.rhs, s.pair, s.op_Y, s.op_X, s.ctx, cfg)
            assert len(trace.k) == max_outer
            assert len(calls) == solves

    @pytest.mark.parametrize("setup_name", ["heat8", "quasi8"])
    def test_no_trial_side_solve_or_sparse_product(self, setup_name, request, monkeypatch):
        # the trial iterate lives in the modes of R_X: the loop never calls
        # the Riesz solve, the CSR trace term or the operator's application
        s = request.getfixturevalue(setup_name)
        calls = []

        def counting(owner, name):
            orig = getattr(owner, name)

            def counted(self, *args):
                calls.append(name)
                return orig(self, *args)

            monkeypatch.setattr(owner, name, counted)

        counting(type(s.ctx), "riesz_X_solve")
        counting(type(s.ctx), "apply_trace_term")
        counting(type(s.op_X), "apply")
        cfg = uz.make_config(s.bundle, tol=0.0, max_outer=4, L_practical=5)
        _, trace = uz.run_inexact_uzawa(s.rhs, s.pair, s.op_Y, s.op_X, s.ctx, cfg)
        assert len(trace.k) == 4
        assert calls == []

    def test_linear_solve_needs_no_flux(self, heat8, monkeypatch):
        # for a constant mu the test side runs in the modes of R_X: the
        # solve builds no gradient maps and evaluates no flux
        def refuse(*args):
            raise AssertionError("called on the constant-mu path")

        monkeypatch.setattr(uz, "GradientMaps", refuse)
        monkeypatch.setattr(type(heat8.op_Y), "flux", refuse)
        cfg = uz.make_config(heat8.bundle, tol=0.0, max_outer=4, L_practical=5)
        _, trace = uz.run_inexact_uzawa(
            heat8.rhs, heat8.pair, heat8.op_Y, heat8.op_X, heat8.ctx, cfg
        )
        assert len(trace.k) == 4

    def test_linear_solve_asks_no_temporal_test_square(self, monkeypatch):
        # no dense array of order dim_t_Y^2 is asked for, besides the
        # context's inverse of M_t^Y, built first, which every R_Y solve
        # shares; the modes are built within the solve, so the hook sees them
        problem = sy.heat_problem()
        s = sy.Discretization(default_pair(8, 8), problem.mu, problem.data)
        s.ctx.inv_M_t_Y, s.ctx.inv_A_x
        shapes = []

        def recording(name, shape, orig=core_linalg.check_dense_size):
            shapes.append(shape)
            orig(name, shape)

        for module in (uz, riesz):
            monkeypatch.setattr(module, "check_dense_size", recording)
        cfg = uz.make_config(s.bundle, tol=0.0, max_outer=2)
        uz.run_inexact_uzawa(s.rhs, s.pair, s.op_Y, s.op_X, s.ctx, cfg)
        assert (s.pair.dim_t_X, s.pair.dim_t_X) in shapes
        assert max(math.prod(shape) for shape in shapes) < s.pair.dim_t_Y**2

    def test_linear_solve_traced_peak(self):
        # 512 time steps, dim_t_Y = 1024: one dense (dim_t_Y, dim_t_Y)
        # array takes 8 MiB.  With the context's modes and inverses built
        # first the solve peaked at 0.53 MiB; the bound refuses any such array
        problem = sy.heat_problem()
        s = sy.Discretization(default_pair(512, 8), problem.mu, problem.data)
        s.ctx.modes, s.ctx.inv_M_t_Y, s.ctx.inv_A_x
        cfg = uz.make_config(s.bundle, tol=0.0, max_outer=3)
        tracemalloc.start()
        try:
            uz.run_inexact_uzawa(s.rhs, s.pair, s.op_Y, s.op_X, s.ctx, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_stops_on_eta(self, heat8):
        cfg = uz.make_config(heat8.bundle, tol=1e-2, max_outer=5000, L_practical=6)
        state, trace = uz.run_inexact_uzawa(
            heat8.rhs, heat8.pair, heat8.op_Y, heat8.op_X, heat8.ctx, cfg
        )
        assert trace.converged
        assert trace.eta[-1] <= 1e-2
        # the returned state is the monitored pair, consistent with eta
        eta, _, _ = sy.aposteriori_estimate(
            state, heat8.rhs, heat8.op_Y, heat8.op_X, heat8.ctx
        )
        assert abs(eta - trace.eta[-1]) <= 1e-12

    def test_unconverged_flagged(self, heat8):
        cfg = uz.make_config(heat8.bundle, tol=1e-12, max_outer=3, L_practical=2)
        state, trace = uz.run_inexact_uzawa(
            heat8.rhs, heat8.pair, heat8.op_Y, heat8.op_X, heat8.ctx, cfg
        )
        assert not trace.converged and len(trace.k) == 3
        # on the cap, too, the returned pair is the monitored one
        eta, _, _ = sy.aposteriori_estimate(
            state, heat8.rhs, heat8.op_Y, heat8.op_X, heat8.ctx
        )
        assert abs(eta - trace.eta[-1]) <= 1e-12

    def test_eta_eventually_decreasing(self, heat8):
        # eta reaches its rounding floor, about eps eta_0 / 2, near step 35
        # and then alternates between 6.8e-17 and 7.3e-17; the steps checked
        # stop before the first eta below 1e4 eps eta_0
        cfg = uz.make_config(heat8.bundle, tol=0.0, max_outer=60, L_practical=6)
        _, trace = uz.run_inexact_uzawa(
            heat8.rhs, heat8.pair, heat8.op_Y, heat8.op_X, heat8.ctx, cfg
        )
        floor = 1e4 * np.finfo(float).eps * trace.eta[0]
        n = next((k for k, e in enumerate(trace.eta) if e < floor), len(trace.eta))
        tail = trace.eta[10:n]
        assert len(tail) >= 10
        assert all(tail[i + 1] <= tail[i] * (1 + 1e-9) for i in range(len(tail) - 1))


def _close(got, expect, rtol):
    return np.abs(got - expect).max() <= rtol * np.abs(expect).max()


@pytest.fixture(scope="module", params=PAIR_KINDS)
def quasi_pair(request):
    problem = sy.quasilinear_problem()
    return sy.Discretization(pair_of_kind(request.param), problem.mu, problem.data)


@pytest.fixture(scope="module", params=PAIR_KINDS)
def heat_pair(request):
    # mu = 2 rather than 1, so that a dropped c shows
    problem = sy.quasilinear_problem("constant", c=2.0)
    return sy.Discretization(pair_of_kind(request.param), problem.mu, problem.data)


class TestGradientMaps:
    """The identities the sweep in element-gradient coordinates rests on,
    against the coefficient forms of the context, on every temporal test
    space."""

    def test_projection_and_norm_identities(self, quasi_pair, rng):
        s = quasi_pair
        maps = uz.GradientMaps(s.op_Y, s.ctx)
        for _ in range(2):
            lam = rng.standard_normal(s.pair.dim_Y)
            h = rng.standard_normal(s.pair.dim_Y)
            G = s.op_Y.gradients(lam)
            # E_t (R_Y^{-1} A_Y lambda) Dbar_x^T = P_t Phi P_x
            expect = s.op_Y.gradients(s.ctx.riesz_Y_solve(s.op_Y.apply(lam)))
            assert _close(maps.P_t @ s.op_Y.flux(G) @ maps.P_x, expect, 1e-12)
            expect = s.op_Y.gradients(s.ctx.riesz_Y_solve(h))
            assert _close(maps.representer(h.reshape(s.pair.dim_t_Y, -1)), expect, 1e-12)
            assert abs(maps.norm2(G) - s.ctx.norm_Y(lam) ** 2) <= 1e-12 * maps.norm2(G)

    def test_linear_step(self, heat_pair, rng):
        # for mu = c, the projected flux is c G: A_Y = c R_Y on the test space
        s = heat_pair
        c = s.op_Y.mu.constant
        maps = uz.GradientMaps(s.op_Y, s.ctx)
        lam = rng.standard_normal(s.pair.dim_Y)
        G = s.op_Y.gradients(lam)
        assert _close(c * G, maps.P_t @ s.op_Y.flux(G) @ maps.P_x, 1e-12)
        expect = s.op_Y.gradients(s.ctx.riesz_Y_solve(s.op_Y.apply(lam)))
        assert _close(c * G, expect, 1e-12)

    def test_lambda_read_back(self, quasi_pair, rng):
        s = quasi_pair
        maps = uz.GradientMaps(s.op_Y, s.ctx)
        lam = rng.standard_normal(s.pair.dim_Y)
        assert _close(maps.lam(s.op_Y.gradients(lam)), lam, 1e-13)

    def test_dense_maps_guarded(self, heat8, monkeypatch):
        # P_t is the largest map at this size: a limit one byte below it
        # refuses the sweep by name before anything is built
        ctx = heat8.ctx
        ctx.inv_M_t_Y, ctx.inv_A_x
        pair = heat8.pair
        n_tq = quadrature_matrix(pair.mesh_t_Y, pair.spec_t_Y, mo.GALERKIN_QUAD_POINTS).shape[0]
        monkeypatch.setattr(core_linalg, "MAX_DENSE_BYTES", 8 * n_tq**2 - 1)
        with pytest.raises(PsaddleError, match=r"dense array GradientMaps\.P_t of shape"):
            uz.GradientMaps(heat8.op_Y, ctx)

    @pytest.mark.parametrize("kind", ["disc-p0", "cont-p1", "test-refined", "jittered"])
    def test_sweep_matches_coefficient_loop(self, kind):
        # test spaces that no shipped config solves on
        problem = sy.quasilinear_problem()
        s = sy.Discretization(pair_of_kind(kind), problem.mu, problem.data)
        _assert_matches_coefficient_loop(
            s, uz.make_config(s.bundle, tol=0.0, max_outer=12, L_practical=3)
        )


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_linear_sweep_matches_coefficient_loop(kind):
    # bounded-ramp with b = 0 declares m_mu = M_mu, the registry's other
    # route to a constant mu, so the sweep takes its linear step
    problem = sy.quasilinear_problem("bounded-ramp", a=1.5, b=0.0)
    s = sy.Discretization(pair_of_kind(kind), problem.mu, problem.data)
    assert s.op_Y.mu.constant == 1.5
    _assert_matches_coefficient_loop(
        s, uz.make_config(s.bundle, tol=0.0, max_outer=12, L_practical=3)
    )


class TestRangeModes:
    """The identities the sweep for a constant mu rests on, in the modes of
    R_X, against the coefficient forms of the context, on every temporal
    test space: lambda = beta C_perp + R_Y^{-1} D (W Y V^T), beta in the
    slot `_BETA` of Y."""

    @staticmethod
    def _range_function(s, Y):
        """R_Y^{-1} D y for y = W Y V^T, by the context's coefficient forms."""
        return s.ctx.riesz_Y_solve(s.ctx.apply_D(s.ctx.from_modes(Y)))

    def test_range_coupling(self, heat_pair, rng):
        # D^T R_Y^{-1} D is the scaling theta/lam, zero on the kernel rows
        s = heat_pair
        rm, m = uz.RangeModes(s.ctx, s.rhs[0]), s.ctx.modes
        n0 = m.n0
        assert np.all(rm.Dt[:n0] == 0.0)
        assert np.array_equal(rm.Dt[n0:], m.theta[n0:, None] / m.lam)
        Y = rng.standard_normal(rm.shape)
        lam = self._range_function(s, Y)
        assert _close(rm.apply_Dt(Y), s.ctx.to_modes(s.ctx.apply_Dt(lam)), 1e-12)
        # ||R_Y^{-1} D y||_Y^2 = sum (theta/lam) Y^2
        expect = s.ctx.norm_Y(lam) ** 2
        assert abs(float(np.vdot(Y, rm.Dt * Y)) - expect) <= 1e-12 * expect
        # the representer of D u is Z off the kernel rows, with beta = 0
        Z = rng.standard_normal(rm.shape)
        assert rm.representer_of_D(Z)[uz._BETA] == 0.0
        assert _close(rm.lam(rm.representer_of_D(Z)), self._range_function(s, Z), 1e-12)

    def test_split_of_the_forcing(self, heat_pair):
        # R_Y^{-1} f = C_perp + R_Y^{-1} D y_f with D^T C_perp = 0, and
        # ||C_perp||^2 + sum (theta/lam) y_f^2 = ||R_Y^{-1} f||_Y^2
        s = heat_pair
        f = s.rhs[0]
        rm = uz.RangeModes(s.ctx, f)
        assert np.all(rm.y_f[: s.ctx.modes.n0] == 0.0)
        r = s.ctx.riesz_Y_solve(f)
        C_perp = r - self._range_function(s, rm.y_f)
        Dt_r = s.ctx.apply_Dt(r)
        assert np.abs(s.ctx.apply_Dt(C_perp)).max() <= 1e-12 * np.abs(Dt_r).max()
        norm2 = s.ctx.norm_Y(r) ** 2
        C_perp2 = rm.weights[uz._BETA]
        assert abs(C_perp2 - s.ctx.norm_Y(C_perp) ** 2) <= 1e-12 * norm2
        assert abs(C_perp2 + float(np.vdot(rm.y_f, rm.Dt * rm.y_f)) - norm2) <= 1e-12 * norm2

    def test_no_orthogonal_part_on_disc_p0(self):
        # B_t has full row rank on disc-P0, so D is onto and C_perp = 0
        problem = sy.quasilinear_problem("constant", c=2.0)
        s = sy.Discretization(pair_of_kind("disc-p0"), problem.mu, problem.data)
        assert np.linalg.matrix_rank(s.pair.B_t.toarray()) == s.pair.dim_t_Y
        rm = uz.RangeModes(s.ctx, s.rhs[0])
        norm = s.ctx.norm_Y(s.ctx.riesz_Y_solve(s.rhs[0]))
        assert math.sqrt(rm.weights[uz._BETA]) <= 1e-12 * norm

    def test_zero_forcing_splits_nothing(self, heat_pair, monkeypatch):
        # for f = 0, C_perp = 0 and y_f = 0: the set-up makes no R_Y solve,
        # and beta, set in the slot of C_f, has weight 0 and no function
        s = heat_pair
        f = np.zeros(s.pair.dim_Y)

        def refuse(*args):
            raise AssertionError("R_Y solve in the set-up")

        monkeypatch.setattr(type(s.ctx), "riesz_Y_solve", refuse)
        rm = uz.RangeModes(s.ctx, f)
        monkeypatch.undo()
        assert not rm.y_f.any() and rm.weights[uz._BETA] == 0.0
        assert rm.C_f[uz._BETA] == 1.0 and np.count_nonzero(rm.C_f) == 1
        assert rm.norm2(rm.C_f) == 0.0 and not rm.lam(rm.C_f).any()

    def test_read_back_and_norm(self, heat_pair, rng):
        # lambda = R_Y^{-1} (beta f + D (y - beta y_f)) = beta C_perp +
        # R_Y^{-1} D y, and ||lambda||_Y^2 = beta^2 ||C_perp||^2 +
        # sum (theta/lam) Y^2; R_Y^{-1} f has the coordinates C_f
        s = heat_pair
        f = s.rhs[0]
        rm = uz.RangeModes(s.ctx, f)
        r = s.ctx.riesz_Y_solve(f)
        assert _close(rm.lam(rm.C_f), r, 1e-12)
        C_perp = r - self._range_function(s, rm.y_f)
        Y = rng.standard_normal(rm.shape)
        expect = Y[uz._BETA] * C_perp + self._range_function(s, rm.mask * Y)
        assert _close(rm.lam(Y), expect, 1e-12)
        norm2 = s.ctx.norm_Y(expect) ** 2
        assert abs(rm.norm2(Y) - norm2) <= 1e-12 * norm2


class TestTrialModes:
    """The identities the trial side of the sweep rests on, in the modes of
    R_X, against the coefficient forms of the context and the operator, on
    every temporal test space."""

    @staticmethod
    def _setup(s, rng):
        maps = uz.GradientMaps(s.op_Y, s.ctx)
        modes = uz.TrialModes(s.op_X, s.ctx)
        Z = rng.standard_normal((s.pair.dim_t_X, s.pair.dim_x))
        return maps, modes, Z, s.ctx.from_modes(Z)

    def test_riesz_solve_and_dual_norm(self, quasi_pair, rng):
        s = quasi_pair
        _, modes, _, _ = self._setup(s, rng)
        h = rng.standard_normal(s.pair.dim_X)
        H = s.ctx.to_modes(h)
        Z = s.ctx.riesz_X_in_modes(H)
        assert _close(s.ctx.from_modes(Z), s.ctx.riesz_X_solve(h), 1e-12)
        expect = s.ctx.dual_norm_X(h) ** 2
        assert abs(float(np.vdot(H, Z)) - expect) <= 1e-12 * expect

    def test_trace_term(self, quasi_pair, rng):
        s = quasi_pair
        _, modes, Z, u = self._setup(s, rng)
        expect = s.ctx.to_modes(s.ctx.apply_trace_term(u))
        assert _close(modes.trace_term(Z), expect, 1e-12)

    def test_operator(self, quasi_pair, rng):
        s = quasi_pair
        _, modes, Z, u = self._setup(s, rng)
        expect = s.ctx.to_modes(s.op_X.apply(u))
        assert _close(modes.apply(Z), expect, 1e-12)

    def test_linear_operator(self, heat_pair, rng):
        # for mu = c, c Z o Lambda against the flux path on the same fn,
        # declared with bounds that do not pin it, and against op_X.apply
        s = heat_pair
        c = s.op_X.mu.constant
        _, modes, Z, u = self._setup(s, rng)
        got = modes.apply(Z)
        assert np.array_equal(got, Z * (c * s.ctx.modes.lam))
        loose = dataclasses.replace(s.op_X.mu, M_mu=2.0 * c)
        flux_path = uz.TrialModes(mo.GalerkinOperator(s.pair, "X", loose), s.ctx)
        assert flux_path.c_lam is None
        assert _close(got, flux_path.apply(Z), 1e-12)
        assert _close(got, s.ctx.to_modes(s.op_X.apply(u)), 1e-12)

    @pytest.mark.parametrize("name, n_t, n_x", [
        ("TrialModes.E_t", 8, 4),      # 24 x 9 against a Dbar_x V of 4 x 3
        ("TrialModes.Dbar_x", 2, 16),  # 16 x 15 against an E_t W of 6 x 3
    ])
    def test_dense_maps_guarded(self, name, n_t, n_x, monkeypatch):
        # the larger map at each size: a limit one byte below it refuses
        # the maps by name, and a limit at it builds them
        problem = sy.quasilinear_problem()
        s = sy.Discretization(default_pair(n_t, n_x), problem.mu, problem.data)
        s.ctx.modes
        attr = name.split(".")[1]
        entries = {"E_t": 3 * n_t * (n_t + 1), "Dbar_x": n_x * (n_x - 1)}[attr]
        monkeypatch.setattr(core_linalg, "MAX_DENSE_BYTES", 8 * entries - 1)
        with pytest.raises(PsaddleError, match=rf"dense array {re.escape(name)} of shape"):
            uz.TrialModes(s.op_X, s.ctx)
        monkeypatch.setattr(core_linalg, "MAX_DENSE_BYTES", 8 * entries)
        assert getattr(uz.TrialModes(s.op_X, s.ctx), attr).size == entries

    def test_couplings(self, quasi_pair, rng):
        # the couplings of `GradientMaps` between element gradients and the
        # modes of R_X
        s = quasi_pair
        maps, modes, Z, u = self._setup(s, rng)
        lam = rng.standard_normal(s.pair.dim_Y)
        expect = s.ctx.to_modes(s.ctx.apply_Dt(lam))
        assert _close(maps.apply_Dt(s.op_Y.gradients(lam)), expect, 1e-12)
        expect = s.op_Y.gradients(s.ctx.riesz_Y_solve(s.ctx.apply_D(u)))
        assert _close(maps.representer_of_D(Z), expect, 1e-12)


class TestAposteriori:
    def test_zero_everything(self, heat8):
        rhs0 = (np.zeros(heat8.pair.dim_Y), np.zeros(heat8.pair.dim_X))
        state = sy.SaddleState(np.zeros(heat8.pair.dim_Y), np.zeros(heat8.pair.dim_X))
        eta, rY, rX = sy.aposteriori_estimate(
            state, rhs0, heat8.op_Y, heat8.op_X, heat8.ctx
        )
        assert eta == 0.0

    @pytest.mark.parametrize("setup_name", ["heat8", "quasi8"])
    def test_exact_solution_floor(self, setup_name, request):
        s = request.getfixturevalue(setup_name)
        eta, _, _ = sy.aposteriori_estimate(
            s.reference(), s.rhs, s.op_Y, s.op_X, s.ctx
        )
        assert eta <= 1e-10

    @pytest.mark.parametrize("setup_name", ["heat8", "quasi8"])
    def test_two_sided_band(self, setup_name, request, rng):
        s = request.getfixturevalue(setup_name)
        lo = 1.0 / s.bundle.L_N - 1e-9
        hi = s.bundle.L_Ninv + 1e-9
        for _ in range(25):
            scale = 10.0 ** rng.uniform(-3, 0)
            dlam = scale * rng.standard_normal(s.pair.dim_Y)
            du = scale * rng.standard_normal(s.pair.dim_X)
            state = sy.SaddleState(s.reference().lam + dlam, s.reference().u + du)
            eta, _, _ = sy.aposteriori_estimate(
                state, s.rhs, s.op_Y, s.op_X, s.ctx
            )
            true = s.ctx.norm_Y(dlam) + s.ctx.norm_X_delta(du)
            assert lo <= true / eta <= hi
