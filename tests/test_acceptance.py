"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything runs at desk scale (unit square cylinder, meshes up to 64x64,
references two uniform refinements finer).  Tolerances are pinned here and
nowhere else; surrogate-based inequality checks carry the stated 1.05 slack.
"""

import math

import numpy as np
import pytest

from psaddle import monotone as mo
from psaddle import precond as pc
from psaddle import quality as ql
from psaddle import system as sy
from psaddle import uzawa as uz
from psaddle.riesz import RieszContext
from psaddle.spaces import default_pair, embed_X_into_Y


def _report(num, name):
    print(f"ACCEPTANCE {num:2d} ({name}): PASS")


def _discretization(problem, pair):
    return sy.Discretization(pair, problem.mu, problem.data)


def test_criterion_01_constant_calculus():
    """derive_constants reproduces the closed forms to 1e-14 relative."""
    rng = np.random.default_rng(101)
    for _ in range(100):
        m_A = 10.0 ** rng.uniform(-2, 2)
        L_A = m_A * 10.0 ** rng.uniform(0, 2)
        b = sy.derive_constants(L_A, m_A)
        L_N = L_A + 1.0
        L_S = max(1.0, L_A, 1.0 / m_A)
        m_S = min(1.0, m_A, m_A / L_A**2)
        L_Beinv = (1.0 / m_S) * (1.0 + 1.0 / m_A)
        L_Ninv = 1.0 / m_A + max(1.0, 1.0 / m_A) * L_Beinv
        C_1 = 1.0 + (1.0 / m_S) * (
            1.0 + math.sqrt((1.0 + L_A**2) * (1.0 + 1.0 / m_A**2))
        )
        for got, want in (
            (b.L_N, L_N), (b.L_S, L_S), (b.m_S, m_S),
            (b.L_Beinv, L_Beinv), (b.L_Ninv, L_Ninv), (b.C_1, C_1),
        ):
            assert abs(got - want) <= 1e-14 * abs(want)
    _report(1, "constant calculus")


@pytest.mark.parametrize("problem_name", ["heat8", "quasi8"])
def test_criterion_02_discrete_operator_bounds(problem_name, request):
    """Lipschitz/monotonicity of the test-space operator and the Schur
    operator with the derived constants; zero violations at 1e-10 slack."""
    s = request.getfixturevalue(problem_name)
    rng = np.random.default_rng(202)
    L_A, m_A = s.bundle.L_A, s.bundle.m_A
    slack = 1e-10
    for _ in range(50):
        w = rng.standard_normal(s.pair.dim_Y)
        v = rng.standard_normal(s.pair.dim_Y)
        dn = s.ctx.norm_Y(w - v)
        diff = s.op_Y.apply(w) - s.op_Y.apply(v)
        assert diff @ (w - v) >= m_A * dn**2 - slack * max(1.0, m_A * dn**2)
        assert s.ctx.dual_norm_Y(diff) <= L_A * dn + slack * max(1.0, L_A * dn)

    schur = sy.SchurOperator(
        s.pair, s.ctx, s.op_Y, s.op_X, s.rhs, inner_tol=1e-12
    )
    L_S, m_S = s.bundle.L_S, s.bundle.m_S
    for _ in range(50):
        w = rng.standard_normal(s.pair.dim_X)
        z = rng.standard_normal(s.pair.dim_X)
        dn = s.ctx.norm_X_delta(w - z)
        diff = schur.apply(w) - schur.apply(z)
        assert diff @ (w - z) >= m_S * dn**2 - 1e-9 * max(1.0, m_S * dn**2)
        assert s.ctx.dual_norm_X(diff) <= L_S * dn + 1e-9 * max(1.0, L_S * dn)
    _report(2, f"discrete operator bounds [{problem_name}]")


@pytest.mark.parametrize("problem_name", ["heat8", "quasi8"])
def test_criterion_03_zarantonello_contraction(problem_name, request):
    """Per-step error ratio never exceeds sigma_A against the Newton
    reference; 20 random starts."""
    s = request.getfixturevalue(problem_name)
    rng = np.random.default_rng(303)
    f = s.rhs[0]
    ref = mo.newton_solve(
        s.op_Y.apply, s.op_Y.jacobian_factor, f, np.zeros(s.pair.dim_Y),
        residual_norm=s.ctx.dual_norm_Y, tol=1e-13,
    )
    sigma = s.bundle.A_constants.sigma
    for _ in range(20):
        x = rng.standard_normal(s.pair.dim_Y)
        errs = [s.ctx.norm_Y(x - ref.x)]
        mo.zarantonello_solve(
            s.op_Y.apply, s.ctx.riesz_Y_solve, f, x, s.bundle.A_constants, tol=0.0,
            max_iter=15,
            callback=lambda it, xk, st: errs.append(s.ctx.norm_Y(xk - ref.x)),
        )
        for i in range(len(errs) - 1):
            assert errs[i + 1] <= sigma * errs[i] * (1 + 1e-10) + 1e-13
    _report(3, f"zarantonello contraction [{problem_name}]")


@pytest.mark.parametrize("problem_name", ["heat8", "quasi8"])
def test_criterion_04_apriori_envelope(problem_name, request):
    """Full inexact Uzawa with the theoretical (C_3, L): both a priori
    inequalities hold at every outer iteration (slack 1e-9 absolute)."""
    s = request.getfixturevalue(problem_name)
    cfg = uz.make_config(s.bundle, tol=0.0, max_outer=12)
    reference = s.reference()  # solve_reference at tol 1e-12
    _, trace = uz.run_inexact_uzawa(
        s.rhs, s.pair, s.op_Y, s.op_X, s.ctx, cfg, reference=reference
    )
    C3 = cfg.C_3
    C4 = max(s.ctx.norm_Y(reference.lam) / C3, s.ctx.norm_X_delta(reference.u))
    for i, k in enumerate(trace.k):
        assert trace.err_lambda[i] / C3 <= cfg.sigma_hat_S ** (k + 1) * C4 + 1e-9
        assert trace.err_u[i] <= cfg.sigma_hat_S**k * C4 + 1e-9
    assert trace.inner_count == [cfg.L] * len(trace.k)
    assert trace.napply == [cfg.L + 1] * len(trace.k)
    _report(4, f"a priori envelope, L={cfg.L} [{problem_name}]")


@pytest.mark.parametrize("problem_name", ["heat8", "quasi8"])
def test_criterion_05_aposteriori_band(problem_name, request):
    """true product error / eta within [1/L_N - 1e-9, L_Ninv + 1e-9] for 50
    random perturbations of the reference."""
    s = request.getfixturevalue(problem_name)
    rng = np.random.default_rng(505)
    lo = 1.0 / s.bundle.L_N - 1e-9
    hi = s.bundle.L_Ninv + 1e-9
    for _ in range(50):
        scale = 10.0 ** rng.uniform(-4, 0)
        dlam = scale * rng.standard_normal(s.pair.dim_Y)
        du = scale * rng.standard_normal(s.pair.dim_X)
        state = sy.SaddleState(s.reference().lam + dlam, s.reference().u + du)
        eta, _, _ = sy.aposteriori_estimate(
            state, s.rhs, s.op_Y, s.op_X, s.ctx
        )
        ratio = (s.ctx.norm_Y(dlam) + s.ctx.norm_X_delta(du)) / eta
        assert lo <= ratio <= hi
    _report(5, f"a posteriori band [{problem_name}]")


@pytest.mark.parametrize("n", [4, 8, 16])
def test_criterion_06_norm_identities(n):
    """The Riesz-shifted norm identity and the trace integration-by-parts
    identity hold to 1e-10 relative, 50 random functions per mesh."""
    pair = default_pair(n, n)
    ctx = RieszContext(pair)
    rng = np.random.default_rng(606 + n)
    from psaddle.spaces import trace_at_time

    for _ in range(50):
        z = rng.standard_normal(pair.dim_X)
        lhs, rhs = ctx.check_infsup_identity(z)
        assert abs(lhs - rhs) <= 1e-10 * lhs

        w = rng.standard_normal(pair.dim_X)
        v = rng.standard_normal(pair.dim_X)
        dw_v = ctx.apply_D(w) @ embed_X_into_Y(pair, v)
        dv_w = ctx.apply_D(v) @ embed_X_into_Y(pair, w)
        w0, v0 = trace_at_time(pair, w, 0.0), trace_at_time(pair, v, 0.0)
        wT, vT = trace_at_time(pair, w, pair.T), trace_at_time(pair, v, pair.T)
        lhs2 = dw_v + dv_w + w0 @ (pair.M_x @ v0)
        rhs2 = wT @ (pair.M_x @ vT)
        scale = max(abs(dw_v), abs(dv_w), abs(rhs2), 1e-30)
        assert abs(lhs2 - rhs2) <= 1e-10 * scale
    _report(6, f"norm identities [{n}x{n}]")


def test_criterion_07_infsup():
    """gamma_t = 1 +- 1e-8 for the default pairing; gamma_x >= 0.5 over five
    levels (frozen regression values); direct inf-sup above the tensor
    product lower bound."""
    for n in (4, 8, 16):
        assert abs(ql.gamma_t(RieszContext(default_pair(n, 2))) - 1.0) <= 1e-8

    # gamma_x reads only the spatial blocks: one element in time suffices
    spatial = [default_pair(1, 4 * 2**k) for k in range(5)]
    gx = [ql.gamma_x(ql.TwoLevel(p, ql._surrogate_pair(p))) for p in spatial]
    assert min(gx) >= 0.5
    frozen = [0.8867947080, 0.8867947080, 0.8860449752, 0.8853875035, 0.8853875035]
    assert np.allclose(gx, frozen, atol=2e-6)

    for n in (4, 8):
        pair = default_pair(n, n)
        two = ql.TwoLevel(pair, ql._surrogate_pair(pair))
        rep = ql.infsup_report(two)
        assert rep.gamma_direct >= rep.gamma_lower - 1e-8
    _report(7, "inf-sup diagnostics")


def test_criterion_08_convergence_quasi_optimality(heat_problem):
    """Error decreases with least-squares rate >= 0.9 over four levels;
    quasi-optimality ratio below its bound; the mesh-dependent-norm and
    auxiliary-variable bounds hold with 1.05 surrogate slack."""
    errs = []
    for n in (4, 8, 16, 32):
        disc = _discretization(heat_problem, default_pair(n, n))
        fine, two = ql.surrogate(disc)
        state, fstate = disc.reference(1e-11), fine.reference(1e-11)
        report = ql.infsup_report(two)
        ratio, bound, err = ql.quasi_opt_ratio(fstate.u, state, two, disc.bundle, report)
        assert ratio <= bound
        qo = ql.check_trial_norm_quasi_opt(fstate.u, state, two, disc)
        assert max(qo.lhs_Xdelta, qo.lhs_H) <= 1.05 * qo.bound
        assert qo.aux_lhs <= 1.05 * qo.aux_bound
        errs.append(err)
    levels = np.arange(len(errs))
    rate = -np.polyfit(levels, np.log2(errs), 1)[0]
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    assert rate >= 0.9
    _report(8, f"convergence rate {rate:.3f} and quasi-optimality")


@pytest.mark.parametrize("problem_name", ["heat_problem", "quasi_problem"])
def test_criterion_09_lambda_equals_u(problem_name, request):
    """The auxiliary variable converges to the solution: the Y-norm gap
    decreases monotonically over four refinement levels."""
    problem = request.getfixturevalue(problem_name)
    gaps = []
    for n in (4, 8, 16, 32):
        disc = _discretization(problem, default_pair(n, n))
        state = disc.reference(1e-11)
        gaps.append(disc.ctx.norm_Y(state.lam - embed_X_into_Y(disc.pair, state.u)))
    assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    _report(9, f"lambda = u consistency [{problem.name}]")


def test_criterion_10_pjotr_loop(heat_problem):
    """Test-space enrichment at fixed 8x8 trial space terminates by level 4
    with rho = 1; afterwards the efficiency/reliability ratio lies inside
    its two-sided bounds with 1.05 slack."""
    base = default_pair(8, 8)
    report = ql.enrich_until_pjotr(
        base, heat_problem.data, heat_problem.mu, rho=1.0, max_levels=4
    )[-1]
    level = report.level
    assert report.satisfied and level <= 4

    disc = _discretization(heat_problem, ql._pair_with_enriched_test(base, level))
    fine, two = ql.surrogate(disc)
    ratio, lo, hi = ql.efficiency_reliability(
        fine.reference(1e-11).u, disc.reference(), two, disc, rho=1.0
    )
    assert lo / 1.05 <= ratio <= hi * 1.05
    _report(10, f"a posteriori enrichment level {level}, eff/rel ratio {ratio:.3f}")


def test_criterion_11_preconditioner():
    """kappa uniform within a factor 2 over dyadic levels 1..5; spectral
    sandwich margins nonnegative (1e-10 floor) for 50 random SPD pairs."""
    results = pc.kappa_study(5, n_x=8)
    kappas = [k for (_, _, k) in results]
    assert max(kappas) / min(kappas) <= 2.0
    assert min(kappas) >= 1.0

    rng = np.random.default_rng(1111)
    for _ in range(50):
        n = int(rng.integers(2, 21))
        QA = rng.standard_normal((n, n))
        QM = rng.standard_normal((n, n))
        A = QA @ QA.T + n * np.eye(n)
        M = QM @ QM.T + n * np.eye(n)
        alpha = 10.0 ** rng.uniform(-2, 2)
        margins = pc.check_spectral_inequality(A, M, alpha)
        assert margins.lower >= -1e-10
        assert margins.upper >= -1e-10
    _report(11, f"preconditioner kappa {min(kappas):.2f}..{max(kappas):.2f}")
