"""Inexact Uzawa iteration with inner fixed-point loops.

Each outer step freezes u, runs L damped fixed-point steps on the test-space
block (warm-started from the previous outer iterate), then takes one damped
step on the Schur residual of u.  The inner steps run on test-space
representers,

    lambda <- lambda - theta_A* (R_Y^{-1} A_Y lambda - R_Y^{-1} (f - D u)),

with the second representer computed once per outer step and R_Y^{-1}
folded into the operator's own output contraction.  lambda does not change
between the monitored pair of one outer step and the first inner step of
the next, so that step reuses the monitored pair's R_Y^{-1} A_Y lambda.
The number L of inner steps comes from the convergence theory: with

    C_3 = (1/sigma_hat)((sigma_hat - sigma_S)/theta_S* + 1/m_A)

and L the smallest integer with sigma_A^L (C_3 + 1/m_A) <= (sigma_hat - sigma_S)/theta_S*,
both error components contract R-linearly with factor sigma_hat.

The stopping rule is the computable two-sided residual estimate

    eta = ||r_Y||_{(Y^d)'} + ||r_X||_{(X^d)'},

which brackets the true product error within [1/L_N, L_Ninv]
(`system.aposteriori_estimate`; the loop evaluates it from the representers
it already holds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from psaddle import monotone as mo
from psaddle.errors import NotConvergedError, PsaddleError
from psaddle.riesz import RieszContext
from psaddle.spaces import TensorSpacePair
from psaddle.system import ConstantsBundle, SaddleState

__all__ = [
    "UzawaConfig",
    "UzawaTrace",
    "plan_inner_count",
    "make_config",
    "run_inexact_uzawa",
]


@dataclass(frozen=True)
class UzawaConfig:
    sigma_hat_S: float
    C_3: float
    L: int
    theta_star_A: float
    theta_star_S: float
    sigma_A: float
    sigma_S: float
    tol: float = 1e-8
    max_outer: int = 200

    def __post_init__(self):
        if not (self.sigma_S < self.sigma_hat_S < 1.0):
            raise PsaddleError(
                f"sigma_hat_S must lie in (sigma_S, 1) = ({self.sigma_S}, 1), "
                f"got {self.sigma_hat_S}"
            )
        if self.L < 1:
            raise PsaddleError("inner iteration count must be at least 1")
        if self.max_outer < 1:
            raise PsaddleError("outer iteration cap must be at least 1")


def plan_inner_count(bundle: ConstantsBundle, sigma_hat_S: float) -> tuple[float, int]:
    """C_3 and the smallest admissible inner iteration count L.

    Evaluates the defining inequality directly over increasing L rather than
    trusting a logarithm, so the returned L is the smallest valid integer.
    """
    cA, cS = bundle.A_constants, bundle.S_constants
    if not (cS.sigma < sigma_hat_S < 1.0):
        raise PsaddleError(
            f"sigma_hat_S={sigma_hat_S} outside (sigma_S, 1) = ({cS.sigma}, 1)"
        )
    target = (sigma_hat_S - cS.sigma) / cS.theta_star
    C_3 = (target + 1.0 / cA.m) / sigma_hat_S
    budget = C_3 + 1.0 / cA.m
    if cA.sigma == 0.0:
        return C_3, 1
    L = 1
    power = cA.sigma
    while power * budget > target:
        L += 1
        power *= cA.sigma
        if L > 10_000_000:
            raise NotConvergedError("inner iteration count exploded; sigma_hat too tight")
    return C_3, L


def make_config(
    bundle: ConstantsBundle,
    sigma_hat_S: float | None = None,
    tol: float = 1e-8,
    max_outer: int = 200,
    L_practical: int | None = None,
) -> UzawaConfig:
    """Config with the theoretical L, or a practical override.

    The default sigma_hat is the midpoint (1 + sigma_S)/2 of the admissible
    range.  L_practical replaces the theoretical inner count; the a priori
    envelope is only guaranteed for the theoretical one.
    """
    cA, cS = bundle.A_constants, bundle.S_constants
    if sigma_hat_S is None:
        sigma_hat_S = 0.5 * (1.0 + cS.sigma)
    C_3, L = plan_inner_count(bundle, sigma_hat_S)
    if L_practical is not None:
        L = int(L_practical)
    return UzawaConfig(
        sigma_hat_S=sigma_hat_S, C_3=C_3, L=L,
        theta_star_A=cA.theta_star, theta_star_S=cS.theta_star,
        sigma_A=cA.sigma, sigma_S=cS.sigma,
        tol=tol, max_outer=max_outer,
    )


@dataclass
class UzawaTrace:
    """Per-outer-iteration record.

    Row k is written after the inner loop of outer step k, i.e. at the
    monitored pair (lambda^(k+1), u^(k)): eta and the residual norms refer
    to that pair, err_lambda to lambda^(k+1), err_u to u^(k).  Each row also
    books the work done in that outer step: inner_count inner steps, one
    Riesz solve on the trial space, and napply = inner_count + 1 nonlinear
    operator applications.  Those are inner_count - 1 applications mapped
    by the test-space Riesz map (the first inner step reuses the monitored
    pair of the step before, or A_Y 0 = 0 at k = 0), one test-side
    application for the monitored pair, giving A_Y lambda and its mapped
    image, and one trial-side application A_X u.
    """

    k: list = field(default_factory=list)
    eta: list = field(default_factory=list)
    res_Y: list = field(default_factory=list)
    res_X: list = field(default_factory=list)
    err_u: list = field(default_factory=list)
    err_lambda: list = field(default_factory=list)
    inner_count: list = field(default_factory=list)
    napply: list = field(default_factory=list)
    riesz_X_solves: list = field(default_factory=list)
    converged: bool = False

    COLUMNS = ("k", "eta", "res_Y", "res_X", "err_u", "err_lambda", "inner_count")

    def rows(self):
        for i in range(len(self.k)):
            yield (
                self.k[i], self.eta[i], self.res_Y[i], self.res_X[i],
                self.err_u[i], self.err_lambda[i], self.inner_count[i],
            )


def run_inexact_uzawa(
    rhs: tuple[np.ndarray, np.ndarray],
    pair: TensorSpacePair,
    op_Y: mo.GalerkinOperator,
    op_X: mo.GalerkinOperator,
    ctx: RieszContext,
    cfg: UzawaConfig,
    reference: SaddleState | None = None,
) -> tuple[SaddleState, UzawaTrace]:
    """Inexact Uzawa iteration.

    Inner update (L times, warm-started from the previous outer iterate):
        lambda <- lambda - theta_A* R_Y^{-1} [A_Y lambda - (f - D u)]
    Outer update:
        u <- u - theta_S* R_X^{-1} [A_X u + trace term + g - D^T lambda]

    The inner update runs on representers: with C = R_Y^{-1} (f - D u),
    one test-space Riesz solve per outer step, it is
        lambda <- lambda - theta_A* (R_Y^{-1} A_Y lambda - C),
    where R_Y^{-1} = (M_t^Y)^{-1} (x) A_x^{-1} is folded into the operator's
    output contraction (`GalerkinOperator.kronecker_mapped`).  The
    monitored pair takes r_Y = (f - D u) - A_Y lambda and its representer
    C - R_Y^{-1} A_Y lambda from one evaluation of the flux, and the next
    outer step's first inner update reuses that R_Y^{-1} A_Y lambda.

    Stops when eta, evaluated at (lambda^(k+1), u^(k)), drops below cfg.tol.
    The returned state is the last monitored pair, the one trace.eta[-1]
    belongs to, also on the outer-iteration cap, where trace.converged
    stays False.  If `reference` is given the trace records true errors
    against it (test mode).
    """
    f, g = rhs
    riesz_A_Y = op_Y.kronecker_mapped(ctx.inv_M_t_Y, ctx.inv_A_x)
    lam = np.zeros(pair.dim_Y)
    riesz_A_lam = np.zeros(pair.dim_Y)  # R_Y^{-1} A_Y lam; A_Y 0 = 0
    u = np.zeros(pair.dim_X)
    trace = UzawaTrace()

    for k in range(cfg.max_outer):
        target = f - ctx.apply_D(u)
        C = ctx.riesz_Y_solve(target)
        lam = lam - cfg.theta_star_A * (riesz_A_lam - C)
        for _ in range(cfg.L - 1):
            lam = lam - cfg.theta_star_A * (riesz_A_Y(lam) - C)

        A_lam, riesz_A_lam = riesz_A_Y(lam, with_apply=True)
        r_Y = target - A_lam
        dY = C - riesz_A_lam
        r_X = g - ctx.apply_Dt(lam) + op_X.apply(u) + ctx.apply_trace_term(u)
        dX = ctx.riesz_X_solve(r_X)
        res_Y = math.sqrt(max(r_Y @ dY, 0.0))
        res_X = math.sqrt(max(r_X @ dX, 0.0))
        eta = res_Y + res_X

        trace.k.append(k)
        trace.eta.append(eta)
        trace.res_Y.append(res_Y)
        trace.res_X.append(res_X)
        trace.inner_count.append(cfg.L)
        trace.napply.append(cfg.L + 1)
        trace.riesz_X_solves.append(1)
        if reference is not None:
            trace.err_u.append(ctx.norm_X_delta(reference.u - u))
            trace.err_lambda.append(ctx.norm_Y(reference.lam - lam))
        else:
            trace.err_u.append(float("nan"))
            trace.err_lambda.append(float("nan"))

        state = SaddleState(lam, u)
        if eta <= cfg.tol:
            trace.converged = True
            return state, trace

        # r_X equals the u-update bracket, so the step reuses dX
        u = u - cfg.theta_star_S * dX

    return state, trace
