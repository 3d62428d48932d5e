import math

import numpy as np
import pytest

from psaddle import system as sy
from psaddle import uzawa as uz
from psaddle.errors import PsaddleError


class TestPlanInnerCount:
    def test_heat_case_l84(self):
        # direct evaluation of the defining inequality over increasing L
        bundle = sy.derive_constants(3.0, 1.0)
        C_3, L = uz.plan_inner_count(bundle, 0.9995)
        cA, cS = bundle.A_constants, bundle.S_constants
        target = (0.9995 - cS.sigma) / cS.theta_star
        assert abs(C_3 - (target + 1.0) / 0.9995) < 1e-12
        assert cA.sigma**L * (C_3 + 1.0) <= target
        assert cA.sigma ** (L - 1) * (C_3 + 1.0) > target
        assert L == 84

    def test_zero_inner_contraction(self):
        # m_A = L_A: sigma_A = 0, a single inner step always suffices
        bundle = sy.derive_constants(2.0, 2.0)
        _, L = uz.plan_inner_count(bundle, 0.99)
        assert L == 1

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
        with pytest.raises(PsaddleError):
            uz.UzawaConfig(
                sigma_hat_S=0.5, C_3=1.0, L=1, theta_star_A=0.1, theta_star_S=0.1,
                sigma_A=0.9, sigma_S=0.99,
            )


def _uzawa_fresh_inner_steps(s, cfg):
    """Reference Uzawa loop whose L inner steps each apply the mapped
    operator afresh; returns the last monitored lambda and the eta, res_Y
    and res_X traces of cfg.max_outer outer steps."""
    f, g = s.rhs
    ctx = s.ctx
    riesz_A_Y = s.op_Y.kronecker_mapped(ctx.inv_M_t_Y, ctx.inv_A_x)
    lam, u = np.zeros(s.pair.dim_Y), np.zeros(s.pair.dim_X)
    eta, res_Y, res_X = [], [], []
    for _ in range(cfg.max_outer):
        target = f - ctx.apply_D(u)
        C = ctx.riesz_Y_solve(target)
        for _ in range(cfg.L):
            lam = lam - cfg.theta_star_A * (riesz_A_Y(lam) - C)
        A_lam, riesz_A_lam = riesz_A_Y(lam, with_apply=True)
        r_Y = target - A_lam
        dY = C - riesz_A_lam
        r_X = g - ctx.apply_Dt(lam) + s.op_X.apply(u) + ctx.apply_trace_term(u)
        dX = ctx.riesz_X_solve(r_X)
        res_Y.append(math.sqrt(max(r_Y @ dY, 0.0)))
        res_X.append(math.sqrt(max(r_X @ dX, 0.0)))
        eta.append(res_Y[-1] + res_X[-1])
        u = u - cfg.theta_star_S * dX
    return lam, eta, res_Y, res_X


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

    def test_cost_bookkeeping(self, heat8):
        cfg = uz.make_config(heat8.bundle, tol=0.0, max_outer=5, L_practical=7)
        _, trace = uz.run_inexact_uzawa(
            heat8.rhs, heat8.pair, heat8.op_Y, heat8.op_X, heat8.ctx, cfg
        )
        assert trace.inner_count == [7] * 5
        assert trace.napply == [7 + 1] * 5
        assert trace.riesz_X_solves == [1] * 5

    @pytest.mark.parametrize("L", [1, 5])
    @pytest.mark.parametrize("setup_name", ["heat8", "quasi8"])
    def test_reused_inner_step_matches_fresh_steps(self, setup_name, L, request):
        # reusing the monitored pair's mapped application for the next first
        # inner step changes no arithmetic: the traces agree bit for bit
        s = request.getfixturevalue(setup_name)
        cfg = uz.make_config(s.bundle, tol=0.0, max_outer=15, L_practical=L)
        state, trace = uz.run_inexact_uzawa(s.rhs, s.pair, s.op_Y, s.op_X, s.ctx, cfg)
        lam, eta, res_Y, res_X = _uzawa_fresh_inner_steps(s, cfg)
        assert (trace.eta, trace.res_Y, trace.res_X) == (eta, res_Y, res_X)
        assert np.array_equal(state.lam, lam)
        assert trace.napply == [L + 1] * 15

    @pytest.mark.parametrize("setup_name", ["heat8", "quasi8"])
    def test_one_riesz_Y_solve_per_outer_step(self, setup_name, request, monkeypatch):
        # the inner steps apply R_Y^{-1} inside the operator's contraction;
        # only the representer of f - D u is solved for, once per outer step
        s = request.getfixturevalue(setup_name)
        calls = []
        orig = type(s.ctx).riesz_Y_solve

        def counting(self, h):
            calls.append(1)
            return orig(self, h)

        monkeypatch.setattr(type(s.ctx), "riesz_Y_solve", counting)
        cfg = uz.make_config(s.bundle, tol=0.0, max_outer=4, L_practical=5)
        _, trace = uz.run_inexact_uzawa(s.rhs, s.pair, s.op_Y, s.op_X, s.ctx, cfg)
        assert len(trace.k) == 4
        assert len(calls) == 4

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
        cfg = uz.make_config(heat8.bundle, tol=0.0, max_outer=60, L_practical=6)
        _, trace = uz.run_inexact_uzawa(
            heat8.rhs, heat8.pair, heat8.op_Y, heat8.op_X, heat8.ctx, cfg
        )
        tail = trace.eta[10:]
        assert all(tail[i + 1] <= tail[i] * (1 + 1e-9) for i in range(len(tail) - 1))


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
