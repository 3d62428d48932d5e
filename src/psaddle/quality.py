"""Inf-sup diagnostics, quasi-optimality measurements, and the enrichment loop.

Continuous-level quantities (the exact solution, its best approximation, the
true dual norm of the temporal derivative) are approximated on a reference
pair `SURROGATE_REFINEMENTS` uniform refinements finer in both axes;
inequality checks that rely on the surrogate carry a 1.05 slack factor in
the tests.  `surrogate` is the one constructor of that reference: the same
problem (a `system.Discretization`, which keeps mu and the data) on the
reference pair, and the `TwoLevel` that shares both Riesz contexts.  The
study functions take the coarse `Discretization` in place of its loose
parts (context, mu, data, constants), and `check_pjotr` reads ell and the
test-side operator off the fine one, assembling nothing itself.

On tensor pairs every Gram is a sum of Kronecker products of 1D matrices,
and nothing here forms one as a dense array.  The temporal and spatial
factors T and S of a pair's trial Gram, and the derivative coupling D, come
from its `RieszContext`.  The coarse trial and test spaces nest in the
reference pair's, so `TwoLevel` reads every cross-level quantity off the
fine pair's blocks through the 1D embeddings and assembles nothing itself.
The best approximation is a matrix-free conjugate-gradient solve
(`core_linalg.pcg`) under a cap proven from the inf-sup constant, and the
square of that constant is the product of the smallest eigenvalues of one
temporal and one spatial pencil, each solved once per `TwoLevel`.  Every
inf-sup factor is read off blocks the pairs already hold: gamma_t off the
coarse `RieszContext.T_t` and the temporal stiffness, gamma_x off the
spatial pencil of `gamma_direct`.  `estimator_terms` is the one home of the
two computable terms ||lambda - u||_{Y^d} and ||u0 - u(0)||_H that the
quasi-optimality check, the a posteriori condition and the estimator share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from psaddle import monotone as mo
from psaddle import system as sy
from psaddle.core_linalg import cg_iteration_cap, pcg, smallest_generalized_eigenvalue
from psaddle.errors import InvalidSpaceError, PsaddleError
from psaddle.riesz import RieszContext
from psaddle.spaces import (
    CONT_P1,
    CONT_P1_DIRICHLET,
    DISC_P1,
    TensorSpacePair,
    assemble_matrices,
    embed_X_into_Y,
    embedding_matrix,
    refine_times,
    trace_at_time,
)

__all__ = [
    "InfSupReport",
    "PjotrReport",
    "TwoLevel",
    "gamma_t",
    "gamma_x",
    "gamma_direct",
    "infsup_report",
    "quasi_opt_ratio",
    "check_trial_norm_quasi_opt",
    "check_pjotr",
    "pjotr_at_level",
    "enrich_until_pjotr",
    "efficiency_reliability",
    "estimator_terms",
    "surrogate",
    "SURROGATE_REFINEMENTS",
]

# Uniform refinements, in both axes, from a pair to the reference pair that
# stands in for the continuous level (`_surrogate_pair`).  The inf-sup
# factors measured against that pair, gamma_x and `gamma_direct`, take it
# through their `TwoLevel`.
SURROGATE_REFINEMENTS = 2


@dataclass(frozen=True)
class InfSupReport:
    gamma_t: float
    gamma_x: float
    gamma_direct: float

    @property
    def gamma_lower(self) -> float:
        return self.gamma_t * self.gamma_x


@dataclass(frozen=True)
class PjotrReport:
    rho: float
    lhs: float            # enriched-space defect of the auxiliary variable
    rhs: float            # rho * computable discrete quantities
    satisfied: bool
    level: int | None = None


def gamma_t(ctx: RieszContext) -> float:
    """Temporal inf-sup factor of the pair of `ctx`: worst ratio of the
    discrete dual norm of the derivative over its true L2 norm,
    time-constants deflated.

    gamma_t^2 is the smallest eigenvalue of the pencil (T, A_t) off the
    constants, with T = B_t^T (M_t^Y)^{-1} B_t = `ctx.T_t` and A_t the
    temporal trial stiffness `pair.A_t_X`.  Equals 1 exactly when the
    derivative image of the trial space lies in the test space (true for
    the default pairing).
    """
    constants = np.ones((ctx.pair.dim_t_X, 1))
    lam = smallest_generalized_eigenvalue(ctx.T_t, ctx.pair.A_t_X, constraint_kernel=constants)
    return math.sqrt(max(lam, 0.0))


class TwoLevel:
    """Cross-pair machinery between a coarse pair and a finer reference pair.

    Holds only the 1D embeddings of the coarse temporal trial, temporal test
    and spatial spaces into the fine ones, and the tensor prolongations they
    make.  Both the trial and the test spaces nest, so every cross-level
    block is a fine-level block composed with embeddings: d_t of a coarse
    trial function in the fine test space is B_t^f E_t_X (x) M_x^f E_x, and
    d_t of a fine trial function in the coarse test space is
    E_t_Y^T B_t^f (x) E_x^T M_x^f.  So the factors T_f, S_f of the fine test
    dual norm of d_t on the coarse trial space and the mixed-level norms
    come from the fine pair's `RieszContext` (the one assembly of D, T and
    S) and are applied by axis, never as Kronecker arrays.
    """

    def __init__(self, coarse: TensorSpacePair, fine: TensorSpacePair,
                 ctx_coarse: RieszContext | None = None,
                 ctx_fine: RieszContext | None = None):
        self.coarse = coarse
        self.fine = fine
        self.ctx_coarse = ctx_coarse or RieszContext(coarse)
        self.ctx_fine = ctx_fine or RieszContext(fine)

    @cached_property
    def E_t_X(self) -> sp.csr_matrix:
        return embedding_matrix(
            (self.coarse.mesh_t_X, self.coarse.spec_t_X),
            (self.fine.mesh_t_X, self.fine.spec_t_X),
        )

    @cached_property
    def E_t_Y(self) -> sp.csr_matrix:
        return embedding_matrix(
            (self.coarse.mesh_t_Y, self.coarse.spec_t_Y),
            (self.fine.mesh_t_Y, self.fine.spec_t_Y),
        )

    @cached_property
    def E_x(self) -> sp.csr_matrix:
        return embedding_matrix(
            (self.coarse.mesh_x, self.coarse.spec_x),
            (self.fine.mesh_x, self.fine.spec_x),
        )

    def prolong_X(self, u: np.ndarray) -> np.ndarray:
        U = np.asarray(u).reshape(self.coarse.dim_t_X, self.coarse.dim_x)
        return (self.E_t_X @ U @ self.E_x.T).reshape(-1)

    def prolong_Y(self, lam: np.ndarray) -> np.ndarray:
        L = np.asarray(lam).reshape(self.coarse.dim_t_Y, self.coarse.dim_x)
        return (self.E_t_Y @ L @ self.E_x.T).reshape(-1)

    def norm_X_delta_of_fine(self, w_fine: np.ndarray) -> float:
        """Mesh-dependent norm with the COARSE test space, for fine functions.

        The coarse test space nests in the fine one, so d_t w tested against
        the coarse test basis is the fine moments restricted through the
        embeddings: E_t_Y^T (B_t^f W M_x^f) E_x.
        """
        y2 = float(w_fine @ self.ctx_fine.apply_R_YX(w_fine))
        fine_mom = self.ctx_fine.apply_D(w_fine).reshape(self.fine.dim_t_Y, self.fine.dim_x)
        mom = (self.E_t_Y.T @ fine_mom @ self.E_x).reshape(-1)
        d2 = float(mom @ self.ctx_coarse.riesz_Y_solve(mom))
        wT = trace_at_time(self.fine, w_fine, self.fine.T)
        h2 = float(wT @ (self.fine.M_x @ wT))
        return math.sqrt(max(y2 + d2 + h2, 0.0))

    # -- coarse trial functions in the fine test dual norm --------------------

    @cached_property
    def T_f(self) -> np.ndarray:
        """E_t_X^T T^f E_t_X with T^f = `ctx_fine.T_t`: the temporal factor of
        ||d_t P c||^2_{(Y_f)'} = c^T (T_f (x) S_f) c.

        The coarse trial space nests in the fine one, so d_t of a coarse
        trial function tested in the fine test space is B_t^f E_t_X, and
        T_f = (B_t^f E_t_X)^T (M_t^{Y,f})^{-1} B_t^f E_t_X.
        """
        return self.E_t_X.T @ self.ctx_fine.T_t @ self.E_t_X

    @cached_property
    def S_f(self) -> np.ndarray:
        """E_x^T S^f E_x with S^f = `ctx_fine.S_x`: the spatial factor of
        ||d_t P c||^2_{(Y_f)'}, (M_x^f E_x)^T (A_x^f)^{-1} M_x^f E_x."""
        return self.E_x.T @ self.ctx_fine.S_x @ self.E_x

    @cached_property
    def lam_t(self) -> float:
        """lambda_min(T_c, T_f) with the time-constants deflated: the
        temporal pencil of `gamma_direct`, solved once per pair."""
        constants = np.ones((self.coarse.dim_t_X, 1))
        return smallest_generalized_eigenvalue(
            self.ctx_coarse.T_t, self.T_f, constraint_kernel=constants
        )

    @cached_property
    def lam_x(self) -> float:
        """lambda_min(S_c, S_f): the spatial pencil of `gamma_direct` and
        `gamma_x`, solved once per pair."""
        return smallest_generalized_eigenvalue(self.ctx_coarse.S_x, self.S_f)

    def best_approx_X(self, u_fine: np.ndarray) -> tuple[np.ndarray, float]:
        """Best approximation from the coarse trial space in the fine norm:
        coefficients c with G c = P^T R_X^f u and the error of P c.

        P is the tensor prolongation.  The trial spaces nest, so each term
        of P^T R_X^f P = G is the matching coarse 1D matrix but the
        derivative term:

            G = M_t^X (x) A_x + T_f (x) S_f + e_T e_T^T (x) M_x.

        G is applied matrix-free and solved by `pcg` to PCG_RTOL,
        preconditioned by the coarse Riesz map R_X^c, which has T_c (x) S_c
        in place of T_f (x) S_f.  The test spaces nest too, and a dual norm
        over a larger space is larger, so T_c <= T_f and S_c <= S_f in the
        Loewner order; products of ordered positive semi-definite factors
        are ordered, so T_c (x) S_c <= T_f (x) S_f.  Both forms vanish on
        the time-constant functions 1 (x) v and depend only on a function's
        part off them, where `gamma_direct` is the smallest ratio of the
        two; so T_f (x) S_f <= T_c (x) S_c / gamma^2.  With gamma <= 1 and
        the other two terms shared,

            R_X^c <= G <= R_X^c / gamma^2,

        and the cap is `cg_iteration_cap(1 / gamma^2, PCG_RTOL)`; gamma = 0
        proves no cap and raises InvalidSpaceError.  The right-hand side
        goes through the embeddings, so a pair whose trial spaces do not
        nest raises InvalidSpaceError too.
        """
        rhs_fine = self.ctx_fine.apply_R_X(u_fine)
        R = rhs_fine.reshape(self.fine.dim_t_X, self.fine.dim_x)
        rhs = (self.E_t_X.T @ R @ self.E_x).reshape(-1)
        ctx = self.ctx_coarse

        def apply_G(c):
            C = c.reshape(self.coarse.dim_t_X, self.coarse.dim_x)
            cross = (self.T_f @ C @ self.S_f).reshape(-1)
            return ctx.apply_R_YX(c) + cross + ctx.apply_trace_term(c)

        gamma = gamma_direct(self)
        if gamma == 0.0:
            raise InvalidSpaceError("the coarse test space misses a derivative: inf-sup 0")
        cap = cg_iteration_cap(1.0 / gamma**2, sy.PCG_RTOL)
        coeffs, _ = pcg(apply_G, ctx.riesz_X_solve, rhs, sy.PCG_RTOL, cap)
        err = self.ctx_fine.norm_X_delta(u_fine - self.prolong_X(coeffs))
        return coeffs, err


# Round-off floor of gamma^2 in `gamma_direct`.  T_c <= T_f and S_c <= S_f,
# so both pencils have their eigenvalues in [0, 1] and this absolute floor is
# relative too.  An inf-sup constant that vanishes in exact arithmetic reads
# about 1e-16 from the eigen solves (6.5e-17 for lambda_t with a P0 test space
# on half the trial elements of a 4 x 4 pair), and a gamma^2 of 1e-12 already
# gives `best_approx_X` a cap of 1.9e7 PCG iterations.
_GAMMA2_ROUND_OFF = 1e-12


def gamma_direct(two: TwoLevel) -> float:
    """Inf-sup ratio of the coarse discrete dual norm of d_t over the fine
    (surrogate-continuous) one, time-constant trial functions deflated.

    gamma^2 is the smallest eigenvalue of the pencil (T_c (x) S_c,
    T_f (x) S_f) on the complement of the time-constants 1 (x) I.  That
    complement is Q_t (x) I, with Q_t an orthonormal basis of the
    complement of the constants in time, and the reduced pencil is
    (Q_t^T T_c Q_t (x) S_c, Q_t^T T_f Q_t (x) S_f).  The eigenvalues of a
    Kronecker pencil with positive definite right-hand factors are the
    products of its factors' eigenvalues (Horn and Johnson, Topics in
    Matrix Analysis, Thm 4.2.12, applied to B^{-1/2} A B^{-1/2}); all are
    nonnegative, so gamma^2 is the product of the two smallest:

        gamma^2 = lambda_min(T_c, T_f; constants deflated) * lambda_min(S_c, S_f).

    A product at or below _GAMMA2_ROUND_OFF is round-off of an exact zero
    and reads as 0.  Both minima are cached on `two` (`lam_t`, `lam_x`).
    """
    gamma2 = two.lam_t * two.lam_x
    return math.sqrt(gamma2) if gamma2 > _GAMMA2_ROUND_OFF else 0.0


def gamma_x(two: TwoLevel) -> float:
    """Spatial inf-sup factor 1/||P||_V, with P the H-orthogonal projector
    onto the coarse spatial space, measured on the fine one.

    The spaces nest, so with the embedding E, E^T M_f E = M_c and
    E^T A_f E = A_c, and P = E M_c^{-1} E^T M_f.  Then

        ||P||_V^2 = lambda_max(P^T A_f P, A_f)
                  = lambda_max(E^T M_f A_f^{-1} M_f E, M_c A_c^{-1} M_c)
                  = lambda_max(S_f, S_c),

    the second step because A_f^{-1} K C K^T (K = M_f E,
    C = M_c^{-1} A_c M_c^{-1}) has the nonzero eigenvalues of
    C K^T A_f^{-1} K = S_c^{-1} S_f.  So gamma_x^2 = lambda_min(S_c, S_f),
    the spatial pencil `gamma_direct` solves.
    """
    return math.sqrt(two.lam_x)


def infsup_report(two: TwoLevel) -> InfSupReport:
    """The inf-sup factors of `two.coarse`, each read off blocks the pair
    and `two` already hold."""
    return InfSupReport(
        gamma_t=gamma_t(two.ctx_coarse), gamma_x=gamma_x(two), gamma_direct=gamma_direct(two)
    )


def quasi_opt_ratio(
    u_ref: np.ndarray,
    state: sy.SaddleState,
    two: TwoLevel,
    bundle: sy.ConstantsBundle,
    report: InfSupReport,
) -> tuple[float, float, float]:
    """(ratio, bound, error): the measured error ||u_ref - P u||_{X^d} on
    the fine pair over the best-approximation error, the theory bound
    2 (1 + L_Ninv L_N / gamma^2) with gamma the tensor lower bound, and
    the measured error itself."""
    _, best_err = two.best_approx_X(u_ref)
    if best_err <= 1e-12:
        raise PsaddleError("reference essentially lies in the trial space; ratio undefined")
    err = two.ctx_fine.norm_X_delta(u_ref - two.prolong_X(state.u))
    gamma = report.gamma_lower
    bound = 2.0 * (1.0 + bundle.L_Ninv * bundle.L_N / gamma**2)
    return err / best_err, bound, err


@dataclass(frozen=True)
class TrialNormQuasiOpt:
    lhs_Xdelta: float
    lhs_H: float
    bound: float
    aux_lhs: float
    aux_bound: float
    best_err: float


def check_trial_norm_quasi_opt(
    u_ref: np.ndarray,
    state: sy.SaddleState,
    two: TwoLevel,
    disc: sy.Discretization,
) -> TrialNormQuasiOpt:
    """Quasi-optimality in the mesh-dependent norm, plus the induced bound on
    the auxiliary-variable gap, with the fine-space surrogate standing in for
    the continuous solution; `disc` is the problem on `two.coarse`."""
    if not two.coarse.x_in_y:
        raise InvalidSpaceError("trial space must lie inside the test space")
    _, best_err = two.best_approx_X(u_ref)
    diff_fine = u_ref - two.prolong_X(state.u)
    lhs_X = two.norm_X_delta_of_fine(diff_fine)
    lam_u, lhs_H = estimator_terms(state, disc)
    bundle = disc.bundle
    bound = bundle.C_1 * best_err
    cor_lhs = lam_u + bundle.trace_weight * lhs_H
    cor_bound = 2.0 * bundle.C_1 * bundle.trace_weight * best_err
    return TrialNormQuasiOpt(
        lhs_Xdelta=lhs_X, lhs_H=lhs_H, bound=bound,
        aux_lhs=cor_lhs, aux_bound=cor_bound, best_err=best_err,
    )


def estimator_terms(state: sy.SaddleState, disc: sy.Discretization) -> tuple[float, float]:
    """(||lambda - u||_{Y^d}, ||u0 - u(0, .)||_H) on the pair of `disc`.

    The two computable terms of the a posteriori estimator, the second with
    the closed-form initial value.  The trial space must lie in the test
    space.
    """
    pair, data = disc.pair, disc.data
    lam_u = disc.ctx.norm_Y(state.lam - embed_X_into_Y(pair, state.u))
    u0_sq = sy.u0_l2_norm2(data, pair)
    b0 = sy.u0_moments(data, pair)
    tr = trace_at_time(pair, state.u, 0.0)
    val = u0_sq - 2.0 * float(b0 @ tr) + float(tr @ (pair.M_x @ tr))
    return lam_u, math.sqrt(max(val, 0.0))


def check_pjotr(
    state: sy.SaddleState,
    disc: sy.Discretization,
    fine: sy.Discretization,
    two: TwoLevel,
    rho: float = 1.0,
) -> PjotrReport:
    """A posteriori quasi-optimality condition for the data at hand.

    Solves the auxiliary problem A lambda = ell - d_t u on the enriched test
    space of `fine` (Newton to 1e-10 in the dual norm), with ell and A the
    fine problem's `rhs[0]` and `op_Y`, and compares the defect of the
    coarse auxiliary variable against the computable right-hand side on
    `disc`.
    """
    if not disc.pair.x_in_y:
        raise InvalidSpaceError("condition requires the trial space inside the test space")

    target = fine.rhs[0] - two.ctx_fine.apply_D(two.prolong_X(state.u))
    start = two.prolong_Y(state.lam)
    res = mo.newton_solve(
        fine.op_Y.apply, fine.op_Y.jacobian_factor, target, start,
        residual_norm=two.ctx_fine.dual_norm_Y, tol=1e-10,
    )
    lam_hat = res.x

    lhs = two.ctx_fine.norm_Y(lam_hat - two.prolong_Y(state.lam))
    lam_u, trace_H = estimator_terms(state, disc)
    rhs = rho * (lam_u + disc.bundle.trace_weight * trace_H)
    return PjotrReport(rho=rho, lhs=lhs, rhs=rhs, satisfied=bool(lhs <= rhs))


def _pair_with_enriched_test(base: TensorSpacePair, level: int) -> TensorSpacePair:
    """Same trial axes; test space refined `level` times in time."""
    mesh_Y = refine_times(base.mesh_t_Y, level)
    return assemble_matrices(
        (base.mesh_t_X, base.spec_t_X), (mesh_Y, base.spec_t_Y),
        (base.mesh_x, base.spec_x),
    )


def _surrogate_pair(pair: TensorSpacePair) -> TensorSpacePair:
    """Reference pair `SURROGATE_REFINEMENTS` uniform refinements finer in
    both axes."""
    k = SURROGATE_REFINEMENTS
    return assemble_matrices(
        (refine_times(pair.mesh_t_X, k), CONT_P1),
        (refine_times(pair.mesh_t_Y, k), DISC_P1),
        (refine_times(pair.mesh_x, k), CONT_P1_DIRICHLET),
    )


def surrogate(disc: sy.Discretization) -> tuple[sy.Discretization, TwoLevel]:
    """(fine, two): the problem of `disc` on its surrogate pair, and the
    `TwoLevel` between the two pairs that shares both Riesz contexts."""
    fine = sy.Discretization(_surrogate_pair(disc.pair), disc.mu, disc.data)
    return fine, TwoLevel(disc.pair, fine.pair, ctx_coarse=disc.ctx, ctx_fine=fine.ctx)


def pjotr_at_level(
    base_pair: TensorSpacePair,
    level: int,
    data: sy.ProblemData,
    mu: mo.MuCoefficient,
    rho: float = 1.0,
) -> PjotrReport:
    """The condition with the test space refined `level` times in time,
    re-solving the saddle system there (to 1e-12) since the Galerkin
    solution depends on the test space."""
    disc = sy.Discretization(_pair_with_enriched_test(base_pair, level), mu, data)
    fine, two = surrogate(disc)
    report = check_pjotr(disc.reference(1e-12), disc, fine, two, rho=rho)
    return replace(report, level=level)


def enrich_until_pjotr(
    base_pair: TensorSpacePair,
    data: sy.ProblemData,
    mu: mo.MuCoefficient,
    rho: float = 1.0,
    max_levels: int = 6,
) -> list[PjotrReport]:
    """Enlarge the test space (uniform temporal refinements) until the
    condition holds; returns the report of every level tried, in order."""
    reports = []
    for level in range(max_levels + 1):
        reports.append(pjotr_at_level(base_pair, level, data, mu, rho))
        if reports[-1].satisfied:
            break
    return reports


def efficiency_reliability(
    u_ref: np.ndarray,
    state: sy.SaddleState,
    two: TwoLevel,
    disc: sy.Discretization,
    rho: float = 1.0,
) -> tuple[float, float, float]:
    """True-error-to-estimator ratio against its two-sided theory bounds.

    estimator^2 = ||lambda - u||_{Y^d}^2 + ||u0 - u(0)||_H^2 from
    `estimator_terms`; valid once the a posteriori condition holds with the
    given rho; `disc` is the problem on `two.coarse`.
    """
    lam_u, trace_H = estimator_terms(state, disc)
    est = math.sqrt(lam_u**2 + trace_H**2)
    if est <= 1e-14:
        raise PsaddleError("estimator vanished; ratio undefined")
    err = two.ctx_fine.norm_X_delta(u_ref - two.prolong_X(state.u))
    bundle = disc.bundle
    L_A, m_A = bundle.L_A, bundle.m_A
    lower = m_A / math.sqrt(1.0 + L_A**2 + m_A**2)
    upper = bundle.L_Beinv * math.sqrt(
        L_A**2 * rho**2 + (L_A * rho * bundle.trace_weight + 1.0) ** 2
    )
    return err / est, lower, upper
