"""Saddle-point operator, right-hand sides, Schur reduction, constant calculus.

The discrete system couples a test-space variable lambda with the trial
variable u:

    [ A_Y           D        ] [lambda]   [ f ]
    [ D^T   -(A_X + trace'T) ] [  u   ] = [ g ],

with D the temporal-derivative coupling.  Eliminating lambda yields the
Schur operator S z = A_X z + trace term + g - D^T A_Y^{-1}(f - D z), which
is Lipschitz continuous, strongly monotone and the gradient of a convex
functional (`SchurOperator`); the whole constant calculus
downstream of (L_A, m_A) lives in `derive_constants`.  `Discretization`
bundles one problem on one pair with everything a solve needs.  D and the
trace term come from `RieszContext`; the right-hand side is contracted per
element, axis by axis, with the local basis on `RHS_QUAD_POINTS` = 16 Gauss
points per element and axis, streamed by blocks of elements so that its
memory stays a few density blocks whatever the grid.  The reference
solver is damped Newton on the saddle system, by the one backtracking
loop `monotone.damped_newton` on the squared product dual residual; each
step factors the test-side Jacobian once, eliminates lambda with it and
solves for u by `core_linalg.pcg` on the Schur Jacobian, preconditioned
by the balanced trial Riesz map R_X(c_bar), c_bar = sqrt(m_mu M_mu), so
no saddle matrix is ever formed or factored and the PCG condition number
is at most M_mu / m_mu.  Each PCG stops at a forcing tolerance tied to
the residual (inexact Newton), which keeps the step descent and the
convergence quadratic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from psaddle import monotone as mo
from psaddle.core_linalg import cg_iteration_cap, check_dense_size, pcg
from psaddle.errors import PsaddleError
from psaddle.riesz import RieszContext
from psaddle.spaces import (
    BasisSpec,
    ElementTable,
    Mesh1D,
    TensorSpacePair,
    _add_elements,
    embed_X_into_Y,
    gauss_points,
)

__all__ = [
    "ProblemData",
    "SaddleState",
    "ConstantsBundle",
    "ManufacturedProblem",
    "derive_constants",
    "assemble_rhs",
    "residual",
    "aposteriori_estimate",
    "SchurOperator",
    "PCG_RTOL",
    "NEWTON_FORCING",
    "FORCING_CAP",
    "forcing_cap",
    "balanced_weight",
    "pcg_iteration_cap",
    "schur_newton_direction",
    "NEWTON_MAX_STEPS",
    "solve_reference",
    "Discretization",
    "heat_problem",
    "quasilinear_problem",
    "RHS_QUAD_POINTS",
]

C_PF_UNIT_INTERVAL = 1.0 / math.pi  # Poincare-Friedrichs constant of (0, 1)


@dataclass(frozen=True)
class SaddleState:
    """Coefficient pair (lambda, u) on Y^delta x X^delta."""

    lam: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class ConstantsBundle:
    """Every constant the error theory derives from (L_A, m_A)."""

    L_A: float
    m_A: float
    L_N: float
    L_S: float
    m_S: float
    L_Ninv: float
    L_Beinv: float
    C_1: float
    C_PF: float = C_PF_UNIT_INTERVAL

    @property
    def A_constants(self) -> mo.MonotoneConstants:
        return mo.MonotoneConstants(L=self.L_A, m=self.m_A)

    @property
    def S_constants(self) -> mo.MonotoneConstants:
        return mo.MonotoneConstants(L=self.L_S, m=self.m_S)

    @property
    def trace_weight(self) -> float:
        """sqrt(1 + L_A^2) / m_A: the weight of ||u0 - u(0)||_H beside
        ||lambda - u||_{Y^d} in the auxiliary-variable bound, the a posteriori
        condition and the estimator's reliability constant."""
        return math.sqrt(1.0 + self.L_A**2) / self.m_A


def derive_constants(L_A: float, m_A: float) -> ConstantsBundle:
    """Closed-form constants of the saddle operator and its inverse.

    L_N     = L_A + 1
    L_S     = max(1, L_A, 1/m_A)
    m_S     = min(1, m_A, m_A / L_A^2)
    L_Beinv = (1/m_S) (1 + 1/m_A)
    L_Ninv  = 1/m_A + max(1, 1/m_A) * (1/m_S) (1 + 1/m_A)
    C_1     = 1 + (1/m_S) (1 + sqrt((1 + L_A^2)(1 + 1/m_A^2)))

    A pair is refused unless every derived constant is finite and positive
    in double precision.  The dampings theta* = 2/(m + L) of the Uzawa steps
    (`A_constants`, `S_constants`) need no check of their own: L_A^2 and
    1/m_A^2 finite put m_A + L_A within [1e-154, 3e154], and m_S <= 1 <= L_S
    puts 2/(m_S + L_S) in (0, 2].
    """
    if not (0 < m_A <= L_A):
        raise PsaddleError(f"need 0 < m_A <= L_A, got (L_A, m_A) = ({L_A!r}, {m_A!r})")
    try:
        L_N = L_A + 1.0
        L_S = max(1.0, L_A, 1.0 / m_A)
        m_S = min(1.0, m_A, m_A / L_A**2)
        L_Beinv = (1.0 / m_S) * (1.0 + 1.0 / m_A)
        L_Ninv = 1.0 / m_A + max(1.0, 1.0 / m_A) * L_Beinv
        C_1 = 1.0 + (1.0 / m_S) * (1.0 + math.sqrt((1.0 + L_A**2) * (1.0 + 1.0 / m_A**2)))
        derived = (L_S, m_S, L_Beinv, L_Ninv, C_1)
    except (OverflowError, ZeroDivisionError):
        derived = (0.0,)
    if not all(0.0 < v < math.inf for v in derived):  # NaN compares False
        raise PsaddleError(f"constants of (L_A, m_A) = ({L_A!r}, {m_A!r}) are not representable")
    return ConstantsBundle(
        L_A=L_A, m_A=m_A, L_N=L_N, L_S=L_S, m_S=m_S,
        L_Ninv=L_Ninv, L_Beinv=L_Beinv, C_1=C_1,
    )


@dataclass(frozen=True)
class ProblemData:
    """Data (ell, u0) given in closed form; moments come from quadrature.

    ell is represented in gradient form ell(v) = int f0 v + f1 dv/dx so that
    manufactured forcing ell = du/dt + A(u) can be assembled without
    integrating by parts.  Either component may be None (zero).
    """

    ell_f0: Callable | None = None   # (t, x) -> density against v
    ell_f1: Callable | None = None   # (t, x) -> density against dv/dx
    u0: Callable | None = None       # x -> initial value

    @property
    def has_ell(self) -> bool:
        return self.ell_f0 is not None or self.ell_f1 is not None


# Gauss points per element and axis of every right-hand-side moment.
RHS_QUAD_POINTS = 16

# Largest number of tensor Gauss points on which the densities are evaluated
# at once, in blocks of whole elements, at least one per axis.  2^14 points
# take 128 KiB per grid-sized temporary, glibc's default mmap threshold.
# Larger blocks fault in fresh pages on every block: on x86-64 Linux the
# quasilinear `psaddle convergence` took 47 000 minor page faults with
# 256 KiB blocks (one temporal element at 128^2) and 8 300 with these.
_DENSITY_GRID_POINTS = 1 << 14


def _element_moments(values: np.ndarray, lengths: np.ndarray, table: ElementTable,
                     derivative: bool = False) -> np.ndarray:
    """Per-element moments of the columns of `values`, given along the
    first axis at the RHS_QUAD_POINTS Gauss points of each element of
    `lengths`, element-major: shape (n_elements, n_local, n_columns), entry
    [e, a] = sum_q w_eq values_eq phi_a(x_eq) (or phi_a'), for the local
    functions phi_a of the RHS_QUAD_POINTS-point element table `table`.

    On element e the weights are h_e times the reference weights w_q, and
    phi_a(x_eq) is the reference value phi_a(xi_q), phi_a' the reference
    derivative over h_e; so the local moment is one contraction with the
    (n_quad, n_local) reference basis times w_q, scaled by h_e for values,
    with nothing to scale for derivatives, where h_e cancels.
    """
    local = np.matmul(
        table.weighted[derivative].T,
        values.reshape(lengths.size, RHS_QUAD_POINTS, -1),
    )
    if not derivative:
        local *= lengths[:, None, None]
    return local


def _ell_moments(
    mesh_t: Mesh1D,
    specs_t: tuple[BasisSpec, ...],
    mesh_x: Mesh1D,
    spec_x: BasisSpec,
    f0: Callable | None,
    f1: Callable | None,
) -> list[np.ndarray]:
    """The moments of ell on the tensor space of each temporal basis in
    specs_t on mesh_t with the spatial basis spec_x, flattened time-major.

    The temporal elements are taken in blocks.  In each block f0 and f1
    are evaluated space-major on the (x, t) Gauss grid of the block, a few
    spatial elements at a time, on at most _DENSITY_GRID_POINTS points, and
    contracted per spatial element into F = f0 diag(w_x) Q_x +
    f1 diag(w_x) D_x on the block's temporal Gauss points; F is then
    contracted per temporal element with every basis of specs_t and added
    into its dofs.  Each dof gets at most two element contributions on
    either axis, and floating-point addition commutes, so the block sizes
    do not change a bit of the result.
    """
    n_q = RHS_QUAD_POINTS
    t_q, _ = gauss_points(mesh_t, n_q)
    x_q, _ = gauss_points(mesh_x, n_q)
    h_t, h_x = mesh_t.lengths, mesh_x.lengths
    table_x = ElementTable(mesh_x, spec_x, n_q)
    tables_t = [ElementTable(mesh_t, spec, n_q) for spec in specs_t]
    dim_x = table_x.dim
    outs = [np.zeros((table.dim + 1, dim_x)) for table in tables_t]
    per_x = max(1, min(mesh_x.n_elements, _DENSITY_GRID_POINTS // n_q**2))
    per_t = max(1, _DENSITY_GRID_POINTS // (n_q**2 * per_x))
    for start in range(0, mesh_t.n_elements, per_t):
        els = slice(start, start + per_t)
        t = t_q[None, start * n_q:(start + per_t) * n_q]
        FT = np.zeros((dim_x + 1, t.size))
        for x_start in range(0, mesh_x.n_elements, per_x):
            els_x = slice(x_start, x_start + per_x)
            x = x_q[x_start * n_q:(x_start + per_x) * n_q, None]
            local = 0.0
            for fn, derivative in ((f0, False), (f1, True)):
                if fn is not None:
                    values = np.broadcast_to(fn(t, x), (x.size, t.size))
                    local = local + _element_moments(values, h_x[els_x], table_x, derivative)
            _add_elements(FT, local, table_x.dofs[els_x])
        F = np.ascontiguousarray(FT[:dim_x].T)
        for out, table in zip(outs, tables_t):
            _add_elements(out, _element_moments(F, h_t[els], table), table.dofs[els])
    return [out[:-1].reshape(-1) for out in outs]


def u0_moments(data: ProblemData, pair: TensorSpacePair) -> np.ndarray:
    """Spatial moments int u0 chi_m dx: Q_x^T (u0 w_x), with Q_x the basis
    values at the Gauss points formed dense, as the element-table gather of
    the identity, and the moments one dense product with it.

    The identity has one column more than Q_x, cut off again, so Q_x is a
    view with row stride dim_x + 1.  BLAS orders the sums of the product
    by the strides too, and this stride keeps the moments, and every CSV
    they enter, bit for bit those of the dense quadrature matrix that the
    tests build (`tests/helpers.py`).
    """
    if data.u0 is None:
        return np.zeros(pair.dim_x)
    x_q, w_x = gauss_points(pair.mesh_x, RHS_QUAD_POINTS)
    check_dense_size("u0_moments.Q_x", (x_q.size, pair.dim_x + 1))
    table = ElementTable(pair.mesh_x, pair.spec_x, RHS_QUAD_POINTS)
    Q_x = table.gather(np.eye(pair.dim_x + 1))[:, :-1]
    return Q_x.T @ (data.u0(x_q) * w_x)


def u0_l2_norm2(data: ProblemData, pair: TensorSpacePair) -> float:
    """int u0^2 dx by quadrature on the spatial mesh."""
    if data.u0 is None:
        return 0.0
    x_q, w_x = gauss_points(pair.mesh_x, RHS_QUAD_POINTS)
    return float(data.u0(x_q) ** 2 @ w_x)


def assemble_rhs(data: ProblemData, pair: TensorSpacePair) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side (f, g) = (ell on Y^d, -(ell + initial trace) on X^d).

    The moments of ell, int f0 (psi_a chi_b) + f1 (psi_a chi_b') over the
    cylinder, are E_t^T diag(w_t) [f0 diag(w_x) Q_x + f1 diag(w_x) D_x]
    with f0, f1 on the tensor Gauss grid, E_t, Q_x and D_x the basis values
    and derivatives at the Gauss points.  Each of these has its nonzeros on
    the dofs of one element per row, so both products are contracted per
    element with the local basis, and no quadrature matrix is formed.
    `_ell_moments` streams them by blocks of temporal elements, contracting
    each block in space, a few spatial elements at a time, and at once in
    time, for Y and X together when their temporal meshes coincide, as on
    every shipped pair; so no array spans the Gauss grid or all temporal
    Gauss points, and no density block takes more than 128 KiB.
    """
    if data.has_ell:
        args = (pair.mesh_x, pair.spec_x, data.ell_f0, data.ell_f1)
        if pair.mesh_t_X == pair.mesh_t_Y:
            f, ell_X = _ell_moments(pair.mesh_t_Y, (pair.spec_t_Y, pair.spec_t_X), *args)
        else:
            (f,) = _ell_moments(pair.mesh_t_Y, (pair.spec_t_Y,), *args)
            (ell_X,) = _ell_moments(pair.mesh_t_X, (pair.spec_t_X,), *args)
    else:
        f = np.zeros(pair.dim_Y)
        ell_X = np.zeros(pair.dim_X)
    g = -ell_X
    if data.u0 is not None:
        b0 = u0_moments(data, pair)
        G = g.reshape(pair.dim_t_X, pair.dim_x)
        G[0] -= b0  # temporal trial basis is nodal: only phi_0 is nonzero at t=0
        g = G.reshape(-1)
    return f, g


def residual(
    state: SaddleState,
    rhs: tuple[np.ndarray, np.ndarray],
    ctx: RieszContext,
    op_Y: mo.GalerkinOperator,
    op_X: mo.GalerkinOperator,
) -> tuple[np.ndarray, np.ndarray]:
    """rhs minus the block action (A_Y lam + D u, D^T lam - A_X u - trace term)."""
    lam, u = state.lam, state.u
    r_Y = rhs[0] - (op_Y.apply(lam) + ctx.apply_D(u))
    r_X = rhs[1] - (ctx.apply_Dt(lam) - op_X.apply(u) - ctx.apply_trace_term(u))
    return r_Y, r_X


def aposteriori_estimate(
    state: SaddleState,
    rhs: tuple[np.ndarray, np.ndarray],
    op_Y: mo.GalerkinOperator,
    op_X: mo.GalerkinOperator,
    ctx: RieszContext,
) -> tuple[float, np.ndarray, np.ndarray]:
    """eta = ||r_Y||_{(Y^d)'} + ||r_X||_{(X^d)'} for the residual pair.

    Guarantee for nonzero error: 1/L_N <= (true product error)/eta <= L_Ninv.
    """
    r_Y, r_X = residual(state, rhs, ctx, op_Y, op_X)
    eta = ctx.dual_norm_Y(r_Y) + ctx.dual_norm_X(r_X)
    return eta, r_Y, r_X


class SchurOperator:
    """S z = A_X z + trace term + g - D^T A_Y^{-1}(f - D z).

    The inner inverse is evaluated by Newton's method to `inner_tol` in the
    test dual norm; the previous inner solution warm-starts the next call.
    No solver builds it: it is the reduced operator whose constants
    (L_S, m_S) the error theory states, checked by the tests.

    Potential.  A_Y and A_X are the gradients of convex functionals Phi_Y
    and Phi_X, Phi_Y m_A-strongly convex (`monotone.GalerkinOperator`).  So
    A_Y^{-1} is the gradient of the convex conjugate Phi_Y*, and S is the
    gradient of

        Psi(z) = Phi_X(z) + (1/2)|gamma_T z|^2 + Phi_Y*(f - D z) + g . z,

    where g = -(ell + gamma_0' u0) on the trial space: the chain rule turns
    the third term into -D^T A_Y^{-1}(f - D z), and the trace term is the
    gradient of the second.  Each term is convex, the third as a convex
    function of an affine map.  For a gradient, strong monotonicity with
    m_S and Lipschitz continuity with L_S in the X-norm are m_S-strong
    convexity and an L_S-Lipschitz gradient of Psi (Nesterov, Introductory
    Lectures on Convex Optimization, 2004, Thms. 2.1.5 and 2.1.9), so the
    damped Schur step takes the step rule of `monotone.MonotoneConstants`
    with (L_S, m_S).  The Hessian of Psi at z is the Schur Jacobian
    A_X'(z) + trace + D^T A_Y'(lambda(z))^{-1} D, symmetric.
    """

    def __init__(
        self,
        pair: TensorSpacePair,
        ctx: RieszContext,
        op_Y: mo.GalerkinOperator,
        op_X: mo.GalerkinOperator,
        rhs: tuple[np.ndarray, np.ndarray],
        inner_tol: float | None = None,
    ):
        self.pair, self.ctx = pair, ctx
        self.op_Y, self.op_X = op_Y, op_X
        self.f, self.g = rhs
        scale = ctx.dual_norm_Y(self.f) if np.any(self.f) else 1.0
        self.inner_tol = inner_tol if inner_tol is not None else 1e-10 * scale
        self._lam = np.zeros(pair.dim_Y)

    def inner_solve(self, z: np.ndarray) -> np.ndarray:
        """lambda(z) = A_Y^{-1}(f - D z), warm-started."""
        target = self.f - self.ctx.apply_D(z)
        self._lam = mo.newton_solve(
            self.op_Y, target, self._lam, residual_norm=self.ctx.dual_norm_Y, tol=self.inner_tol
        ).x
        return self._lam

    def apply(self, z: np.ndarray) -> np.ndarray:
        lam = self.inner_solve(z)
        return (
            self.op_X.apply(z)
            + self.ctx.apply_trace_term(z)
            + self.g
            - self.ctx.apply_Dt(lam)
        )


# Relative stop of each Newton-PCG solve, read in the R_X^{-1} norm of the
# residual: the floor of the forcing tolerance of `solve_reference`, and the
# whole stop of every other caller.
PCG_RTOL = 1e-10

# Forcing factor gamma of `solve_reference`: Newton step k's PCG stops at
# rtol_k = max(PCG_RTOL, min(forcing_cap(mu), NEWTON_FORCING * eta_k)).
NEWTON_FORCING = 0.1

# Largest forcing tolerance whatever mu (`forcing_cap`).
FORCING_CAP = 0.1


def balanced_weight(mu: mo.MuCoefficient) -> float:
    """c_bar = sqrt(m_mu M_mu), the weight of the balanced trial Gram
    R_X(c_bar) that preconditions the Schur Jacobian (`pcg_iteration_cap`);
    c for mu = c, so 1 for every heat problem."""
    return math.sqrt(mu.m_mu * mu.M_mu)


def forcing_cap(mu: mo.MuCoefficient) -> float:
    """tau_max = min(FORCING_CAP, 1 / (2 sqrt(2) max(1, 1/m_mu) k)) with
    k = max(c_bar, 1/c_bar), c_bar = `balanced_weight(mu)`: the largest
    forcing tolerance of a `solve_reference` step, under which its
    direction keeps phi'(w) d <= -phi (proof there).  FORCING_CAP = 0.1
    binds for one-plus-inv (the second term is 0.23) and for mu = 1
    (0.35); mu = 1e-4 gives 3.5e-9 and mu = 1e4 gives 3.5e-5, both above
    PCG_RTOL, as every mu with bounds in [1e-4, 1e4] does."""
    c_bar = balanced_weight(mu)
    k = max(c_bar, 1.0 / c_bar)
    return min(FORCING_CAP, 1.0 / (2.0 * math.sqrt(2.0) * max(1.0, 1.0 / mu.m_mu) * k))


def pcg_iteration_cap(mu: mo.MuCoefficient, rtol: float = PCG_RTOL) -> int:
    """Proven bound on the PCG iterations of one `solve_reference` Newton step.

    The Schur Jacobian is J_S = A_X'(z) + trace + D^T A_Y'(lam)^{-1} D.  Both
    Galerkin Jacobians are B^T diag(omega_bar) B, where omega_bar sums
    positive Gauss weights times mu(s) + 2 s mu'(s), a slope in
    [m_mu, M_mu]; the same sums of the weights alone give the Grams
    M_t (x) A_x of R_YX and R_Y exactly (the 3-point rule integrates
    products of P1 functions in time).  So, in the Loewner order,

        m_mu R_YX <= A_X' <= M_mu R_YX,    m_mu R_Y <= A_Y' <= M_mu R_Y,

    and inverting the second, D^T R_Y^{-1} D / M_mu <= D^T A_Y'^{-1} D <=
    D^T R_Y^{-1} D / m_mu.  The preconditioner is the balanced trial Gram

        R_X(c) = c R_YX + D^T R_Y^{-1} D / c + trace,   c = `balanced_weight`
                                                          = sqrt(m_mu M_mu)

    (Schoeberl and Zulehner, SIAM J. Matrix Anal. Appl. 29, 2007; Mardal
    and Winther, Numer. Linear Algebra Appl. 18, 2011).  With r = m_mu / M_mu
    <= 1 each term of J_S lies between sqrt(r) and 1/sqrt(r) times its term
    of R_X(c): m_mu = sqrt(r) c and M_mu = c / sqrt(r) for the first,
    1/M_mu = sqrt(r) / c and 1/m_mu = 1 / (sqrt(r) c) for the second, and
    sqrt(r) <= 1 <= 1/sqrt(r) for the trace block, which J_S and R_X(c)
    share.  Summing,

        sqrt(m_mu / M_mu) R_X(c) <= J_S <= sqrt(M_mu / m_mu) R_X(c),

    and R_X(c)^{-1} J_S has condition kappa <= M_mu / m_mu: 16/7 for
    one-plus-inv, and 1 for mu = c, where J_S = R_X(c) (unweighted, R_X
    itself would give max(M_mu, 1/m_mu, 1) / min(m_mu, 1/M_mu, 1): 4 and
    100 for mu = 10).  The cap is `cg_iteration_cap(kappa, rtol)` for the
    step's relative stop rtol: 16 for kappa = 16/7 and rtol = PCG_RTOL, 3
    for rtol = 0.1, and 2 for kappa = 1 (at 128 x 128 with mu = 1 the first
    iteration reaches 1e-12, not 1e-13).
    """
    return cg_iteration_cap(mu.M_mu / mu.m_mu, rtol)


def schur_newton_direction(
    ctx: RieszContext,
    fact_Y,
    jac_X,
    r: np.ndarray,
    max_iter: int,
    c_bar: float,
    rtol: float = PCG_RTOL,
) -> tuple[np.ndarray, int]:
    """delta with (jac_X + trace + D^T jac_Y^{-1} D) delta = r, by `pcg`
    preconditioned with the balanced trial Riesz map R_X(c_bar)^{-1}
    (`RieszContext.riesz_X_solver`, `pcg_iteration_cap`) to the relative
    stop rtol; c_bar = `balanced_weight(mu)`, and c_bar = 1 is R_X^{-1}
    itself.

    The operator is applied matrix-free: each iteration costs one solve
    with R_X(c_bar) by fast diagonalization, one solve with fact_Y, the
    factor of the test-side Jacobian jac_Y (`GalerkinOperator.jacobian_factor`),
    one sparse product with jac_X, and `apply_D`, `apply_Dt` and
    `apply_trace_term`, products with the 1D factors of the pair.  CG
    needs the operator symmetric positive definite, which it is at every
    (lambda, u): both Galerkin Jacobians are Hessians of convex potentials,
    B^T diag(W_q o omega_bar) B with positive weights
    (`monotone.GalerkinOperator`), and the operator is the Hessian of the
    Schur potential at u when lambda = lambda(u) (`SchurOperator`).  Returns
    delta with the iteration count; raises NotConvergedError after
    max_iter iterations or on a non-positive curvature.
    """

    def apply_J(p):
        return jac_X @ p + ctx.apply_trace_term(p) + ctx.apply_Dt(fact_Y.solve(ctx.apply_D(p)))

    return pcg(apply_J, ctx.riesz_X_solver(c_bar), r, rtol, max_iter)


# Cap on the damped Newton steps of `solve_reference`.
NEWTON_MAX_STEPS = 60


def solve_reference(
    rhs: tuple[np.ndarray, np.ndarray],
    pair: TensorSpacePair,
    op_Y: mo.GalerkinOperator,
    op_X: mo.GalerkinOperator,
    ctx: RieszContext,
    tol: float = 1e-12,
    x0: np.ndarray | None = None,
) -> SaddleState:
    """High-accuracy discrete solution used as the test oracle.

    Damped Newton on the whole saddle system for w = (lambda, u), started
    from u = x0 (zero by default; for instance a coarser solution prolonged
    onto this pair) and lambda = u embedded in the test space when X^d lies
    in Y^d, where the continuous solution has lambda = u, and zero
    otherwise.  With the residuals r_Y = f - A_Y lam - D u and
    r_X = g - D^T lam + A_X u + trace term u, each step factors
    A_Y' = A_Y'(lam) once and solves the linearized saddle system by
    elimination:

        J_S du   = D^T A_Y'^{-1} r_Y - r_X,     (`schur_newton_direction`)
        dlam     = A_Y'^{-1} (r_Y - D du),

    with the Schur Jacobian J_S = A_X'(u) + trace + D^T A_Y'^{-1} D, solved
    by PCG preconditioned with R_X(c_bar), c_bar = `balanced_weight(mu)`.
    The loop is `monotone.damped_newton` with the estimate eta of
    `aposteriori_estimate` and the merit

        phi = ||r_Y||^2_{(Y^d)'} + ||r_X||^2_{(X^d)'},

    the squares of its two terms, in the Armijo test
    phi(w + a d) <= (1 - 2 c a) phi, c = 1e-4.

    Inexact Newton.  Step k's PCG stops at the forcing tolerance

        rtol_k = max(PCG_RTOL, min(tau_max, gamma eta_k)),

    with eta_k the estimate at the step's start, gamma = NEWTON_FORCING
    = 0.1 and tau_max = `forcing_cap(mu)`, under the cap
    `pcg_iteration_cap(mu, rtol_k)`: far from the solution the direction
    is solved loosely, near it as tightly as the residual, and never
    tighter than PCG_RTOL.

    The step is a descent direction of phi under the inexact PCG solve.
    Write r = (r_Y, r_X) and R = diag(R_Y, R_X), so phi = r^T R^{-1} r and
    r'(w) d = -N'(w) d.  PCG leaves J_S du = b - rho with b its right-hand
    side and ||rho||_c <= rtol_k ||b||_c in the norm ||v||_c^2 =
    v^T R_X(c_bar)^{-1} v of its preconditioner.  With k = max(c_bar, 1/c_bar),
    R_X / k <= R_X(c_bar) <= k R_X term by term, so ||v||_c and the dual
    norm ||v||_{X'} are within a factor sqrt(k) of each other and
    ||rho||_{X'} <= k rtol_k ||b||_{X'}.  The back-substitution is exact,
    so N'(w) d = r + (0, rho) and

        phi'(w) d = -2 phi - 2 r_X^T R_X^{-1} rho
                 <= -2 phi + 2 ||r_X||_{X'} k rtol_k ||b||_{X'}.

    Since R_X >= D^T R_Y^{-1} D, ||D^T y||_{X'} <= ||y||_{R_Y}, and since
    A_Y' >= m_mu R_Y, ||A_Y'^{-1} r_Y||_{R_Y} <= ||r_Y||_{Y'} / m_mu; so
    ||b||_{X'} <= max(1, 1/m_mu)(||r_Y||_{Y'} + ||r_X||_{X'}) <=
    max(1, 1/m_mu) sqrt(2 phi), and

        phi'(w) d <= -2 phi (1 - sqrt(2) max(1, 1/m_mu) k rtol_k).

    tau_max <= 1 / (2 sqrt(2) max(1, 1/m_mu) k) puts the bracket at 1/2
    or more whenever rtol_k <= tau_max, so phi'(w) d <= -phi, and the
    Armijo test holds for every small enough a.  rtol_k exceeds tau_max
    only if tau_max < PCG_RTOL, that is max(1, 1/m_mu) k > 3.5e9; c_bar
    lies in [m_mu, M_mu], so mu bounds within [1e-4, 1e4] (a product of
    at most 1e8) never get there.  With the exact direction
    phi'(w) d = -2 phi.

    The forcing also keeps Newton's local quadratic convergence (Dembo,
    Eisenstat and Steihaug, SIAM J. Numer. Anal. 19, 1982, Thm. 3.3;
    Eisenstat and Walker, SIAM J. Sci. Comput. 17, 1996).  The linearized
    residual of the step is (0, rho), and by the bounds above, with
    ||r_Y||_{Y'} + ||r_X||_{X'} = eta_k,

        ||rho||_{X'} <= max(1, 1/m_mu) k rtol_k eta_k:

    relative to eta_k, the norm of the residual in the product dual norm,
    the linear residual is at most max(1, 1/m_mu) k tau_max < 1/2 far from
    the solution, and max(1, 1/m_mu) k gamma eta_k = O(eta_k) once
    gamma eta_k lies below tau_max, the forcing O(||F(w_k)||) of their
    Thm. 3.3, down to eta_k = PCG_RTOL / gamma, below which the step is
    solved to PCG_RTOL.

    The returned state has a posteriori estimate eta at most tol.
    Otherwise the solve raises the NotConvergedError of `damped_newton` at
    the first failure: a PCG direction that fails ("direction failed"), a
    stalled line search, or NEWTON_MAX_STEPS steps.  Its `best` is the
    last accepted state.
    """
    u = np.zeros(pair.dim_X) if x0 is None else np.array(x0, dtype=float)
    lam = embed_X_into_Y(pair, u) if pair.x_in_y else np.zeros(pair.dim_Y)
    mu = op_Y.mu
    c_bar, tau_max = balanced_weight(mu), forcing_cap(mu)

    def evaluate(state):
        """(eta, phi, (eta, (r_Y, r_X))) at state."""
        r = residual(state, rhs, ctx, op_Y, op_X)
        n_Y, n_X = ctx.dual_norm_Y(r[0]), ctx.dual_norm_X(r[1])
        eta = n_Y + n_X
        return eta, n_Y * n_Y + n_X * n_X, (eta, r)

    def direction(state, data):
        eta, (r_Y, r_X) = data
        rtol = max(PCG_RTOL, min(tau_max, NEWTON_FORCING * eta))
        fact_Y = op_Y.jacobian_factor(state.lam)
        b = ctx.apply_Dt(fact_Y.solve(r_Y)) - r_X
        du, _ = schur_newton_direction(
            ctx, fact_Y, op_X.jacobian(state.u), b, pcg_iteration_cap(mu, rtol), c_bar, rtol
        )
        dlam = fact_Y.solve(r_Y - ctx.apply_D(du))
        return lambda a: SaddleState(state.lam + a * dlam, state.u + a * du)

    return mo.damped_newton(
        evaluate, direction, SaddleState(lam, u), tol, NEWTON_MAX_STEPS, "saddle newton"
    )[0]


class Discretization:
    """One problem (mu, ell, u0) on one trial/test pair.

    Holds what the error theory is stated for: mu and the data, the Riesz
    context, the Galerkin operators on both spaces, the right-hand side,
    the constants bundle of mu, and the discrete solution, solved once per
    tolerance.
    """

    def __init__(self, pair: TensorSpacePair, mu: mo.MuCoefficient, data: ProblemData):
        self.pair, self.mu, self.data = pair, mu, data
        self.ctx = RieszContext(pair)
        self.op_Y = mo.GalerkinOperator(pair, "Y", mu)
        self.op_X = mo.GalerkinOperator(pair, "X", mu)
        self.rhs = assemble_rhs(data, pair)
        c = mo.constants_from_mu(mu)
        self.bundle = derive_constants(c.L, c.m)
        self._references: dict[float, SaddleState] = {}

    def reference(self, tol: float = 1e-12, x0: np.ndarray | None = None) -> SaddleState:
        """The discrete solution to product dual residual tol (cached); x0
        starts the first solve at that tol (see `solve_reference`)."""
        if tol not in self._references:
            self._references[tol] = solve_reference(
                self.rhs, self.pair, self.op_Y, self.op_X, self.ctx, tol=tol, x0=x0
            )
        return self._references[tol]


# -- manufactured problems ----------------------------------------------------


@dataclass(frozen=True)
class ManufacturedProblem:
    """Closed-form solution with matching data for convergence studies."""

    name: str
    mu: mo.MuCoefficient
    data: ProblemData
    u_exact: Callable      # (t, x) -> value
    u_exact_t: Callable


def heat_problem() -> ManufacturedProblem:
    """u = sin(pi x) exp(-pi^2 t): solves the heat equation with ell = 0."""
    u = lambda t, x: np.sin(np.pi * x) * np.exp(-np.pi**2 * t)
    return ManufacturedProblem(
        name="heat",
        mu=mo.make_mu("constant", c=1.0),
        data=ProblemData(u0=lambda x: np.sin(np.pi * x)),
        u_exact=u,
        u_exact_t=lambda t, x: -np.pi**2 * u(t, x),
    )


def quasilinear_problem(mu_name: str = "one-plus-inv", **mu_params) -> ManufacturedProblem:
    """Same exact solution, forcing manufactured as ell = du/dt + A(u)."""
    mu = mo.make_mu(mu_name, **mu_params)
    u = lambda t, x: np.sin(np.pi * x) * np.exp(-np.pi**2 * t)
    u_t = lambda t, x: -np.pi**2 * u(t, x)
    u_x = lambda t, x: np.pi * np.cos(np.pi * x) * np.exp(-np.pi**2 * t)

    def f1(t, x):
        g = u_x(t, x)
        return mu.fn(t, x, g**2) * g

    return ManufacturedProblem(
        name=f"quasilinear-{mu.name}",
        mu=mu,
        data=ProblemData(ell_f0=u_t, ell_f1=f1, u0=lambda x: np.sin(np.pi * x)),
        u_exact=u, u_exact_t=u_t,
    )
