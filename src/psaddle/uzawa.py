"""Inexact Uzawa iteration with inner fixed-point loops.

Each outer step freezes u, runs L damped fixed-point steps on the test-space
block (warm-started from the previous outer iterate), then takes one damped
step on the Schur residual of u.  The inner steps are

    lambda <- lambda - theta_A* (R_Y^{-1} A_Y lambda - R_Y^{-1} (f - D u)).

The test side runs in coordinates picked once per solve, from the
coefficient; each provides the representers of f and of D u, D^T lambda in
the modes of R_X, the Y-norm and the read-back of lambda, and the one loop
of `run_inexact_uzawa` runs on either:

* For a mu with a flux, the element gradients G = E_t Lambda Dbar_x^T of
  lambda, which the operator's flux reads anyway; in them R_Y^{-1} A_Y
  lambda is the L2 projection of the flux (`GradientMaps`).  lambda does
  not change between the monitored pair of one outer step and the first
  inner step of the next, so that step reuses the monitored pair's
  projected flux.
* For a constant mu = c (`MuCoefficient.constant`), the linear member of
  the class, both operators are c times Riesz maps, exactly under the
  3-point rule: A_Y = c R_Y on the test space, so R_Y^{-1} A_Y lambda =
  c lambda, and A_X = c (M_t^X (x) A_x), which is c Z o Lambda in the modes
  of R_X.  The test side then runs in those same modes (`RangeModes`):
  lambda is a multiple of the part C_perp of R_Y^{-1} f that D^T does not
  see, plus R_Y^{-1} D y for a trial-shaped y, on which D^T R_Y^{-1} D is
  the scaling theta/lam.  So the Y-norm is a weighted sum of squares and
  both couplings are scalings; the L inner steps, an affine recursion
  with a constant factor q = 1 - theta_A* c, collapse into one update in
  closed form, and the outer step makes no matrix product besides the two
  rank-one products w^T Z of the trace term and of the Sherman-Morrison
  correction, and no flux evaluation.  No dense map is built besides
  those of the Riesz context.

So no inner step maps back to coefficients, no Riesz solve on the test
space runs in the loop, and lambda is read off its coordinates only where
it is returned or measured (for a constant mu, by one R_Y solve).  The
trial iterate u lives in the modes of R_X (`TrialModes`), where R_X^{-1}
is a scaling and a rank-one correction and the trace term a rank-one
product, so the outer step makes no Riesz solve and no sparse product
either; u is formed only where it is returned or measured.

The number L of inner steps comes from the convergence theory: with

    C_3 = (1/sigma_hat)((sigma_hat - sigma_S)/theta_S* + 1/m_A)

and L the smallest integer with sigma_A^L (C_3 + 1/m_A) <= (sigma_hat - sigma_S)/theta_S*,
both error components contract R-linearly with factor sigma_hat
(`plan_inner_count`).  The dampings theta* and factors sigma are those of a
potential operator, theta* = 2/(m + L) and sigma = (L - m)/(L + m)
(`monotone.MonotoneConstants`), on both blocks.

The stopping rule is the computable two-sided residual estimate

    eta = ||r_Y||_{(Y^d)'} + ||r_X||_{(X^d)'},

which brackets the true product error within [1/L_N, L_Ninv]
(`system.aposteriori_estimate`; the loop evaluates it from the quantities
it already holds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from psaddle import monotone as mo
from psaddle.core_linalg import check_dense_size
from psaddle.errors import NotConvergedError, PsaddleError
from psaddle.riesz import RieszContext
from psaddle.spaces import TensorSpacePair
from psaddle.system import ConstantsBundle, SaddleState

__all__ = [
    "UzawaConfig",
    "UzawaTrace",
    "check_rate_target",
    "GradientMaps",
    "RangeModes",
    "TrialModes",
    "plan_inner_count",
    "make_config",
    "run_inexact_uzawa",
]


def check_rate_target(bundle: ConstantsBundle, sigma_hat_S: float) -> None:
    """Refuse an outer-rate target sigma_hat outside (sigma_S, 1)."""
    sigma_S = bundle.S_constants.sigma
    if not sigma_S < sigma_hat_S < 1.0:
        raise PsaddleError(
            f"no outer-rate target: sigma_hat_S = {sigma_hat_S!r} lies outside (sigma_S, 1) = "
            f"({sigma_S!r}, 1) of (L_S, m_S) = ({bundle.L_S!r}, {bundle.m_S!r})"
        )


@dataclass(frozen=True)
class UzawaConfig:
    """The independent inputs of an inexact Uzawa solve: the constants
    bundle, the outer-rate target sigma_hat, the inner count L, the stopping
    tolerance and the outer-iteration cap.  The step constants theta_A*,
    theta_S*, sigma_S and C_3 are read off the bundle, so they cannot
    disagree with it; each read builds them anew, so a loop reads them once.
    """

    bundle: ConstantsBundle
    sigma_hat_S: float
    L: int
    tol: float = 1e-8
    max_outer: int = 200

    def __post_init__(self):
        if not (self.tol >= 0.0):
            raise PsaddleError(f"tol must be non-negative, got {self.tol}")
        check_rate_target(self.bundle, self.sigma_hat_S)
        if self.L < 1:
            raise PsaddleError("inner iteration count must be at least 1")
        if self.max_outer < 1:
            raise PsaddleError("outer iteration cap must be at least 1")

    @property
    def theta_star_A(self) -> float:
        return self.bundle.A_constants.theta_star

    @property
    def theta_star_S(self) -> float:
        return self.bundle.S_constants.theta_star

    @property
    def sigma_S(self) -> float:
        return self.bundle.S_constants.sigma

    @property
    def C_3(self) -> float:
        return _C_3(self.bundle, self.sigma_hat_S)


def _C_3(bundle: ConstantsBundle, sigma_hat_S: float) -> float:
    """C_3 = (1/sigma_hat)((sigma_hat - sigma_S)/theta_S* + 1/m_A)."""
    cS = bundle.S_constants
    return ((sigma_hat_S - cS.sigma) / cS.theta_star + 1.0 / bundle.m_A) / sigma_hat_S


def plan_inner_count(bundle: ConstantsBundle, sigma_hat_S: float) -> int:
    """The smallest admissible inner iteration count L for the target
    sigma_hat (`check_rate_target`).

    Evaluates the defining inequality directly over increasing L rather than
    trusting a logarithm, so the returned L is the smallest valid integer;
    for sigma_A = 0 (m_A = L_A) that is L = 1.

    A priori envelope.  With (lambda*, u*) the discrete solution and
    lambda(u) = A_Y^{-1}(f - D u), so lambda* = lambda(u*), let
    a_k = ||lambda^(k) - lambda*||_Y and b_k = ||u^(k) - u*||_X for the
    iterates before outer step k.  The proof uses four facts:

      (i)   an inner step contracts towards lambda(u) by sigma_A in the Y-norm;
      (ii)  the exact Schur step u - theta_S* R_X^{-1} S(u) contracts towards
            u* by sigma_S in the X-norm;
      (iii) ||lambda(u) - lambda(v)||_Y <= ||D(u - v)||_{Y'} / m_A, by the
            strong monotonicity of A_Y;
      (iv)  ||D v||_{Y'} <= ||v||_X and ||D^T y||_{X'} <= ||y||_Y, since
            D^T R_Y^{-1} D is a term of R_X (`TrialModes`).

    (i) and (ii) are the contractions of `monotone.MonotoneConstants`;
    theta_S* enters only as the factor of the perturbation below, so the
    proof holds for any damping at which (i) and (ii) hold, and uses
    sigma_S, theta_S*, sigma_A and m_A, not the form of theta*.  The
    outer bracket is S(u^(k)) + D^T (lambda(u^(k)) - lambda^(k+1)), so
    u^(k+1) is the exact Schur step plus theta_S* R_X^{-1} D^T
    (lambda^(k+1) - lambda(u^(k))).  lambda^(k+1) is L inner steps from
    lambda^(k), so by (i), (iii) and (iv)

        ||lambda^(k+1) - lambda(u^(k))||_Y <= e_k = sigma_A^L (a_k + b_k / m_A),
        a_(k+1) <= e_k + b_k / m_A,
        b_(k+1) <= sigma_S b_k + theta_S* e_k,          by (ii) and (iv).

    Suppose a_k <= C_3 sigma_hat^k C_4 and b_k <= sigma_hat^k C_4, as at
    k = 0 for C_4 = max(a_0 / C_3, b_0).  Then the defining inequality of
    L gives e_k <= sigma_A^L (C_3 + 1/m_A) sigma_hat^k C_4 <=
    ((sigma_hat - sigma_S)/theta_S*) sigma_hat^k C_4, hence
    b_(k+1) <= sigma_hat^(k+1) C_4 and, by the definition of C_3,
    a_(k+1) <= ((sigma_hat - sigma_S)/theta_S* + 1/m_A) sigma_hat^k C_4
    = C_3 sigma_hat^(k+1) C_4.
    """
    check_rate_target(bundle, sigma_hat_S)
    cA, cS = bundle.A_constants, bundle.S_constants
    target = (sigma_hat_S - cS.sigma) / cS.theta_star
    budget = _C_3(bundle, sigma_hat_S) + 1.0 / cA.m
    L, power = 1, cA.sigma
    while power * budget > target:
        L += 1
        power *= cA.sigma
        if L > 10_000_000:
            raise NotConvergedError("inner iteration count exploded; sigma_hat too tight")
    return L


def make_config(
    bundle: ConstantsBundle,
    sigma_hat_S: float | None = None,
    tol: float = 1e-8,
    max_outer: int = 200,
    L_practical: int | None = None,
) -> UzawaConfig:
    """Config with the theoretical L, or a practical override.

    The default sigma_hat is the midpoint (1 + sigma_S)/2 of the admissible
    range; where sigma_S lies so close to 1 that the midpoint rounds to 1,
    no target is representable and the config is refused
    (`check_rate_target`).  L_practical replaces the theoretical inner
    count, which is then not planned; the a priori envelope is only
    guaranteed for the theoretical one.
    """
    if sigma_hat_S is None:
        sigma_hat_S = 0.5 * (1.0 + bundle.S_constants.sigma)
    L = plan_inner_count(bundle, sigma_hat_S) if L_practical is None else int(L_practical)
    return UzawaConfig(bundle, sigma_hat_S, L, tol=tol, max_outer=max_outer)


@dataclass
class UzawaTrace:
    """Per-outer-iteration record.

    Row k is written after the inner loop of outer step k, i.e. at the
    monitored pair (lambda^(k+1), u^(k)): eta and the residual norms refer
    to that pair, err_lambda to lambda^(k+1), err_u to u^(k).  Each row also
    books the inner_count inner steps of that outer step.  `napply` is
    derived from it: inner_count + 1 operator applications per step, that
    is inner_count - 1 test-side applications for the inner steps (the
    first inner step reuses the monitored pair of the step before, or
    A_Y 0 = 0 at k = 0), one for the monitored pair, and one trial-side
    application A_X u.  Each is a flux evaluation between dense products.
    For a constant mu the count still books inner_count + 1, the work of
    the general sweep, but the loop evaluates no flux: the L test-side
    applications are one closed-form update in the modes of R_X and A_X u
    is a scaling (`run_inexact_uzawa`).
    """

    k: list = field(default_factory=list)
    eta: list = field(default_factory=list)
    res_Y: list = field(default_factory=list)
    res_X: list = field(default_factory=list)
    err_u: list = field(default_factory=list)
    err_lambda: list = field(default_factory=list)
    inner_count: list = field(default_factory=list)
    converged: bool = False

    COLUMNS = ("k", "eta", "res_Y", "res_X", "err_u", "err_lambda", "inner_count")

    @property
    def napply(self) -> list:
        return [n + 1 for n in self.inner_count]

    def rows(self):
        return zip(*(getattr(self, name) for name in self.COLUMNS))


class GradientMaps:
    """The test-side maps of the Uzawa sweep in element-gradient coordinates.

    Notation: Lambda is lambda as a (dim_t_Y, dim_x) array, G = E_t Lambda
    Dbar_x^T its element gradients (`GalerkinOperator.gradients`), W_t =
    diag(w_t) the temporal Gauss weights and W_x = diag(h) the element
    lengths, and <X, Z>_W = sum w_t h X Z on (n_tq, n_el) arrays.  The
    3-point rule integrates the degree-2 products exactly, so

        M_t^Y = E_t^T W_t E_t,        A_x = Dbar_x^T W_x Dbar_x.           (*)

    Norm identity.  By (*), ||G||_W^2 = tr(Lambda^T M_t^Y Lambda A_x) =
    ||lambda||_Y^2: lambda -> G is an isometry of Y^delta into the weighted
    arrays.  So the dual norm of a residual, the Y-norm of its representer,
    is the weighted sum of squares of the representer's gradients (`norm2`).

    Projection identity.  With the weights folded into the maps,
    P_t = E_t (M_t^Y)^{-1} E_t^T W_t and P_x = W_x Dbar_x A_x^{-1} Dbar_x^T,

        gradients of R_Y^{-1} A_Y lambda = P_t Phi(G) P_x,

    where Phi = mu_bar(G^2) G is the operator's element-averaged flux
    (`GalerkinOperator.flux`, no weights).  Indeed A_Y lambda has the dual
    coefficients E_t^T W_t Phi W_x Dbar_x, its representer is
    (M_t^Y)^{-1} E_t^T W_t Phi W_x Dbar_x A_x^{-1}, and its gradients are
    the product above.  It is the L2 projection of the flux: Pi(H) =
    P_t H P_x maps into the gradients of Y^delta, is the identity on them
    (by (*), P_t E_t = E_t and Dbar_x^T P_x = Dbar_x^T) and is self-adjoint
    in <.,.>_W (W_t P_t and P_x W_x are symmetric), so it is the
    <.,.>_W-orthogonal projection onto them.  The representer of a
    functional h, as a (dim_t_Y, dim_x) array H, has the gradients
    to_t H to_x with to_t = E_t (M_t^Y)^{-1} and to_x = A_x^{-1} Dbar_x^T
    (`representer`).  All of these lie in the range of lambda -> G, so the
    sweep stays there and is the image of the coefficient iteration.

    Left inverses.  By (*), (M_t^Y)^{-1} E_t^T W_t is a left inverse of E_t
    and W_x Dbar_x A_x^{-1} a right inverse of Dbar_x^T, so

        Lambda = read_t G read_x
               = (M_t^Y)^{-1} E_t^T W_t G W_x Dbar_x A_x^{-1}             (`lam`)

    on the range.

    Couplings.  D = B_t (x) M_x enters the sweep only through these maps,
    composed with the modes (W, V) of R_X (`TrialModes`, U = W Z V^T): the
    gradients of R_Y^{-1} D u are to_t B_t U M_x to_x = (K_t W) Z (V^T K_x)
    with K_t = to_t B_t and K_x = M_x to_x (`representer_of_D`), and D^T
    lambda = B_t^T read_t G read_x M_x is, in the modes, W^T B_t^T read_t G
    read_x M_x V = (W^T Dt_t) G (Dt_x V) with Dt_t = B_t^T read_t and Dt_x =
    read_x M_x (`apply_Dt`).

    Every map is dense, built from the operator's element tables
    (`spaces.ElementTable`): a product with E_t is a row gather of the
    other factor, and one with Dbar_x^T a column difference, so neither
    quadrature matrix is formed; the larger maps are guarded by
    `check_dense_size`.  In floating point (*) holds to rounding, so the
    sweep matches the coefficient iteration to rounding, not bit for bit.
    """

    def __init__(self, op_Y: mo.GalerkinOperator, ctx: RieszContext):
        table_t, table_x = op_Y.table_t, op_Y.table_x
        n_tq, n_el = op_Y.w_t.size, op_Y.h_x.size
        check_dense_size("GradientMaps.P_t", (n_tq, n_tq))
        check_dense_size("GradientMaps.P_x", (n_el, n_el))
        check_dense_size("GradientMaps.read_t", (op_Y.dim_t, n_tq))
        check_dense_size("GradientMaps.read_x", (n_el, op_Y.dim_x))
        self.to_t = table_t.gather(ctx.inv_M_t_Y)
        self.to_x = table_x.slopes(ctx.inv_A_x)     # A_x^{-1} Dbar_x^T
        # in C order: the sparse products with it below are slower on a transpose
        self.read_t = np.ascontiguousarray(table_t.gather(ctx.inv_M_t_Y.T).T) * op_Y.w_t
        self.read_x = op_Y.h_x[:, None] * self.to_x.T
        self.P_t = table_t.gather(self.read_t)
        self.P_x = table_x.slopes(self.read_x)
        self.weights = (op_Y.w_t[:, None] * op_Y.h_x).reshape(-1)
        self.shape = (n_tq, n_el)
        W, V = ctx.modes.W, ctx.modes.V
        B_t, M_x = ctx.pair.B_t, ctx.pair.M_x
        self.K_t = (B_t.T @ self.to_t.T).T @ W
        self.K_x = V.T @ (M_x @ self.to_x)
        self.Dt_t = W.T @ (B_t.T @ self.read_t)
        self.Dt_x = (M_x.T @ self.read_x.T).T @ V

    def representer(self, H: np.ndarray) -> np.ndarray:
        """Gradients of R_Y^{-1} h for a functional h as (dim_t_Y, dim_x) H."""
        return self.to_t @ H @ self.to_x

    def norm2(self, G: np.ndarray) -> float:
        """sum w_t h G^2: the squared Y-norm of the function with gradients G."""
        v = G.reshape(-1)
        return float(v @ (self.weights * v))

    def lam(self, G: np.ndarray) -> np.ndarray:
        """The coefficients of lambda, flat, read off its gradients."""
        return (self.read_t @ G @ self.read_x).reshape(-1)

    def representer_of_D(self, Z: np.ndarray) -> np.ndarray:
        """Gradients of R_Y^{-1} D u from the modal coefficients Z of u."""
        return self.K_t @ Z @ self.K_x

    def apply_Dt(self, G: np.ndarray) -> np.ndarray:
        """D^T lambda in the modes of R_X, read from the gradients G of lambda."""
        return self.Dt_t @ G @ self.Dt_x


# The slot of beta, the multiple of C_perp, in the coordinates of
# `RangeModes`: row 0 is a kernel row of B_t (`RieszModes.n0` >= 1)
_BETA = (0, 0)


class RangeModes:
    """The test-side maps of the Uzawa sweep for a constant mu, in the modes
    of R_X.

    Notation: (W, theta, V, lam) from `RieszContext.modes`, with W^T M_t^X W
    = I, W^T T W = diag(theta) for T = B_t^T (M_t^Y)^{-1} B_t, V^T M_x V = I
    and V^T A_x V = diag(lam); n0 the number of leading temporal modes in
    ker B_t (`RieszModes.n0`).  A (dim_t_X, dim_x) array Y stands for the
    trial-space coefficients y = W Y V^T, as Z does for u in `TrialModes`,
    and the pairing h . y = sum (W^T H V) o Y carries over.

    Range coupling.  D^T R_Y^{-1} D = T (x) S with S = M_x A_x^{-1} M_x
    (`riesz`), and W^T T W = diag(theta), V^T S V = diag(1/lam), so
    D^T R_Y^{-1} D y has the modes (theta/lam) o Y, the scaling `Dt`, which
    is zero on the kernel rows j < n0: there B_t W_j = 0, so D does not
    see those rows of Y.  Hence

        ||R_Y^{-1} D y||_Y^2 = y . D^T R_Y^{-1} D y = sum (theta/lam) Y^2,
        D^T (R_Y^{-1} D y) = (theta/lam) o Y  in the modes.

    Split of R_Y^{-1} f.  Let y_f have the modes (lam/theta) o (W^T D^T
    R_Y^{-1} f V) on the rows j >= n0 and 0 on the kernel rows, where
    W_j^T D^T = (D W_j)^T vanishes, so D^T R_Y^{-1} D y_f = D^T R_Y^{-1} f.
    Then C_perp = R_Y^{-1} f - R_Y^{-1} D y_f has D^T C_perp = 0, that is
    (C_perp, R_Y^{-1} D v)_Y = v . D^T C_perp = 0 for every v: C_perp is
    Y-orthogonal to the range of R_Y^{-1} D, and ||R_Y^{-1} f||_Y^2 =
    ||C_perp||_Y^2 + sum (theta/lam) y_f^2.  ||C_perp||_Y is taken as the
    dual norm of f - D y_f, not by that difference, which would lose the
    digits of a small C_perp (it is zero where B_t has full row rank).

    Coordinates.  The sweep's iterates, from lambda = 0, are combinations
    of R_Y^{-1} f, R_Y^{-1} D u and themselves, so each is

        lambda = beta C_perp + R_Y^{-1} D y,

    held as one array Y with beta in the slot `_BETA` = (0, 0).  Row 0 is
    a kernel row, since n0 >= 1, so neither R_Y^{-1} D y, nor its norm,
    nor D^T reads it, and the slot is free; every map below reads the
    kernel rows through `mask`, 0 on them and 1 elsewhere.  The map from
    (beta, y) to lambda is linear, so a linear recursion on lambda is the
    same recursion on Y.  In Y:
    - R_Y^{-1} f is y_f with beta = 1 (`C_f`), and R_Y^{-1} D u is
      mask o Z with beta = 0 (`representer_of_D`);
    - ||lambda||_Y^2 = beta^2 ||C_perp||^2 + sum (theta/lam) Y^2, the two
      parts being Y-orthogonal: a weighted sum of squares with
      ||C_perp||^2 in the slot (`norm2`);
    - D^T lambda = D^T R_Y^{-1} D y = Dt o Y in the modes of R_X, with Dt
      zero in the slot (`apply_Dt`);
    - lambda = beta (R_Y^{-1} f - R_Y^{-1} D y_f) + R_Y^{-1} D y =
      R_Y^{-1} (beta f + D (y - beta y_f)), one Riesz solve, made only
      where lambda is returned or measured (`lam`).
    For f = 0, C_perp = 0 and y_f = 0, and the split is skipped.

    Every array has the full shape of Z: numpy broadcasts a row over many
    short rows far more slowly than it multiplies arrays of one shape.  No
    dense map is built besides those of the context.  In floating point
    the identities hold to rounding.
    """

    def __init__(self, ctx: RieszContext, f: np.ndarray):
        m, n0 = ctx.modes, ctx.modes.n0
        self.ctx, self.f = ctx, f
        self.mask = np.zeros((m.theta.size, m.lam.size))
        self.mask[n0:] = 1.0
        self.Dt = self.mask * m.theta[:, None] / m.lam
        self.y_f, self.weights = np.zeros_like(self.Dt), self.Dt.copy()
        if np.any(f):
            h = ctx.to_modes(ctx.apply_Dt(ctx.riesz_Y_solve(f)))
            self.y_f[n0:] = h[n0:] / self.Dt[n0:]
            self.weights[_BETA] = ctx.dual_norm_Y(f - ctx.apply_D(ctx.from_modes(self.y_f))) ** 2
        self.C_f = self.y_f.copy()
        self.C_f[_BETA] = 1.0
        self.shape = self.Dt.shape

    def norm2(self, Y: np.ndarray) -> float:
        """beta^2 ||C_perp||^2 + sum (theta/lam) Y^2: the squared Y-norm."""
        return float(np.vdot(Y, self.weights * Y))

    def lam(self, Y: np.ndarray) -> np.ndarray:
        """The coefficients R_Y^{-1} (beta f + D (y - beta y_f)) of lambda, flat."""
        beta = Y[_BETA]
        y = self.ctx.from_modes(self.mask * Y - beta * self.y_f)
        return self.ctx.riesz_Y_solve(beta * self.f + self.ctx.apply_D(y))

    def representer_of_D(self, Z: np.ndarray) -> np.ndarray:
        """Y of R_Y^{-1} D u from the modal coefficients Z of u."""
        return self.mask * Z

    def apply_Dt(self, Y: np.ndarray) -> np.ndarray:
        """D^T lambda in the modes of R_X, read from the coordinates Y of lambda."""
        return self.Dt * Y


class TrialModes:
    """The trial-side maps of the Uzawa sweep in the modes of R_X.

    Notation: (W, V, lam, scale, w, corr) from `RieszContext.modes`, with
    W^T M_t^X W = I, W^T T W = Theta, V^T M_x V = I and V^T A_x V = Lambda.
    A trial function u, as a (dim_t_X, dim_x) array U, is held by its modal
    coefficients Z with U = W Z V^T (`RieszContext.from_modes`), and a
    functional on the trial space, as a (dim_t_X, dim_x) array H, by
    H^ = W^T H V (`RieszContext.to_modes`).  The pairing carries over:
    h . u = tr(H^T W Z V^T) = sum H^ o Z.

    Riesz map.  R_X U = M_t^X U A_x + T U S + e_T e_T^T U M_x with
    S = M_x A_x^{-1} M_x, and V^T S V = Lambda^{-1} since A_x^{-1} =
    V Lambda^{-1} V^T.  So W^T (R_X U) V = Z Lambda + Theta Z Lambda^{-1} +
    w w^T Z with w = W^T e_T: spatial mode k carries D_k + w w^T, and
    Sherman-Morrison gives R_X^{-1} in the modes as
    Z = scale o H^ - corr o (w^T (scale o H^))
    (`RieszContext.riesz_X_in_modes`), with no transform at all.  By the
    pairing, the dual norm of r is then r . R_X^{-1} r = sum R^ o Z.

    Trace term.  e_T e_T^T U M_x maps to W^T e_T e_T^T W Z V^T M_x V =
    w (w^T Z) (`trace_term`), because V^T M_x V = I.

    Operator.  The element gradients of u on the trial side are
    E_t^X U Dbar_x^T = (E_t^X W) Z (Dbar_x V)^T, and A_X u has the dual
    coefficients (E_t^X)^T W_t Phi W_x Dbar_x, Phi the operator's flux; in
    the modes they are (W_t E_t^X W)^T Phi (W_x Dbar_x V) (`apply`).
    For a constant mu = c, Phi = c E_t^X U Dbar_x^T, and the 3-point rule
    integrates the degree-2 products exactly, (E_t^X)^T W_t E_t^X = M_t^X
    and Dbar_x^T W_x Dbar_x = A_x, so A_X u = c M_t^X U A_x, in the modes
    c W^T M_t^X W Z V^T A_x V = c Z Lambda: `apply` scales each spatial
    mode k by c lambda_k, with lambda from the eigensolve of
    `RieszContext.modes`, and makes no flux evaluation.

    The couplings with the test side are in the test-side coordinates
    (`GradientMaps`; for a constant mu `RangeModes`, which holds the test
    iterate in these same modes).  E_t^X W and Dbar_x V are built from
    the operator's element tables, a row gather of W and a difference of
    the rows of V, and are dense arrays of their own, each guarded by
    `check_dense_size`; for a constant mu no flux is evaluated and neither
    is built.  In floating point the identities hold to rounding.
    """

    def __init__(self, op_X: mo.GalerkinOperator, ctx: RieszContext):
        m = ctx.modes
        W, V, self.w = m.W, m.V, m.w
        c = op_X.mu.constant
        # at the full shape of Z: a broadcast row is the slower product
        self.c_lam = None if c is None else c * np.broadcast_to(m.lam, (W.shape[1], V.shape[1]))
        if c is not None:  # no flux is evaluated
            return
        check_dense_size("TrialModes.E_t", (op_X.w_t.size, W.shape[1]))
        check_dense_size("TrialModes.Dbar_x", (op_X.h_x.size, V.shape[1]))
        self.E_t = op_X.table_t.gather(W)
        self.Dbar_x = np.ascontiguousarray(op_X.table_x.slopes(V.T).T)
        self.E_t_w = op_X.w_t[:, None] * self.E_t
        self.Dbar_x_w = op_X.h_x[:, None] * self.Dbar_x
        self.op_X = op_X

    def trace_term(self, Z: np.ndarray) -> np.ndarray:
        """w (w^T Z): the trace term (gamma_T)' M_x gamma_T u in the modes."""
        return self.w[:, None] * (self.w @ Z)

    def apply(self, Z: np.ndarray) -> np.ndarray:
        """A_X u in the modes, from the modal coefficients Z of u: c Z Lambda
        for a constant mu = c."""
        if self.c_lam is not None:
            return Z * self.c_lam
        Phi = self.op_X.flux(self.E_t @ Z @ self.Dbar_x.T)
        return self.E_t_w.T @ Phi @ self.Dbar_x_w


def _geometric_factors(theta_c: float, L: int) -> tuple[float, float]:
    """q^L and (1 - q^L)/theta_c for q = 1 - theta_c, without cancellation
    (proof in `run_inexact_uzawa`)."""
    if theta_c < 1.0:
        log_q_L = L * math.log1p(-theta_c)
        return math.exp(log_q_L), -math.expm1(log_q_L) / theta_c
    q_L = (1.0 - theta_c) ** L
    return q_L, (1.0 - q_L) / theta_c


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

    The test-side state y holds lambda in coordinates picked once per solve
    from the coefficient, `GradientMaps` for a mu with a flux and
    `RangeModes` for a constant mu; both provide the representers of f and
    of D u, D^T lambda in the modes of R_X, the Y-norm and the read-back of
    lambda, so the loop is the same.  In either, C is the image of
    theta_A* R_Y^{-1} (f - D u): that of R_Y^{-1} f once per solve, less
    that of R_Y^{-1} D u once per outer step, so the loop makes no Riesz
    solve on the test space.

    Flux.  y = G, the element gradients of lambda, and the inner update is
    the image of the coefficient update under lambda -> G (`GradientMaps`):
        G <- G - theta_A* P_t Phi(G) P_x + C,
    with theta_A* folded into the temporal map once per solve.  The
    monitored pair takes res_Y^2 = sum w_t h (C - P_t Phi P_x)^2 /
    theta_A*^2 from one flux evaluation, and the next outer step's first
    inner update reuses that product.

    Constant mu = c (`MuCoefficient.constant`).  y = Y holds lambda =
    beta C_perp + R_Y^{-1} D (W Y V^T), with beta in a kernel slot of Y
    (`RangeModes`, which proves the identities used here), and the inner
    update is
        Y <- Y - (theta_A* c Y - C) = q Y + C,   q = 1 - theta_A* c,
    because A_Y = c R_Y on the test space, exactly under the 3-point rule:
    R_Y^{-1} A_Y lambda = c lambda, whose coordinates are c Y, the map
    from Y to lambda being linear.  Here C = theta_A* (y_f - mask o Z)
    with beta-part theta_A*.  `TrialModes.apply` is c Z Lambda likewise,
    so the loop evaluates no flux.

    Closed form.  C is fixed during the L inner steps of one outer step,
    so by induction from Y_0, with theta c = theta_A* c,
        Y_L = q^L Y_0 + (1 + q + ... + q^(L-1)) C = Y_0 + s_L d,
        d = C - theta c Y_0,   s_L = (1 - q^L)/(theta c),
    since (1 - q) s_L = 1 - q^L and q^L Y_0 = Y_0 - theta c s_L Y_0.  In
    the two parts, d = theta_A* (y_f - mask o Z) - theta c Y_0 and
    d_perp = theta_A* (1 - c beta_0), the slot of d, and the update moves
    both, Y += s_L d and beta += s_L d_perp.  The monitored pair's residual
    is
        C - theta c Y_L = d - theta c s_L d = q^L d,
    so, the two parts being Y-orthogonal,
        res_Y = |q^L| sqrt(d_perp^2 ||C_perp||_Y^2
                           + sum (theta/lam) d^2) / theta_A*
    (`RangeModes.norm2`), and theta c Y_L is never formed: the sweep is one
    update per outer step, and with both couplings scalings in the modes
    the outer step makes no matrix product besides w^T Z in the trace
    term and in the Sherman-Morrison correction.  For f = 0, C_perp = 0
    and y_f = 0, so beta moves but has no effect.  Bounds: theta_A* =
    2/(m_A + L_A) (`MonotoneConstants.theta_star`), and A_Y = c R_Y gives
    m_A <= c <= L_A for any constants valid for the operator, so theta c =
    2c/(m_A + L_A) lies in [2 m_A/(m_A + L_A), 2 L_A/(m_A + L_A)], within
    (0, 2), and |q| <= sigma_A < 1: the recursion contracts, with q < 0 for
    c > (m_A + L_A)/2.  The paper's constants (m_A, L_A) = (c, 3c) give
    theta c = 1/2; the constants (c/3, c), valid too, give 3/2.
    Evaluation (`_geometric_factors`): for theta c < 1, q^L =
    exp(L log1p(-theta c)) and 1 - q^L = -expm1(L log1p(-theta c)), both to
    rounding, where 1 - q**L loses about log10(1/(theta c)) digits to
    cancellation.  For theta c >= 1 the power q**L is taken: at theta c = 1,
    q = 0 and log1p(-1) = -inf; for 1 < theta c < 2, q lies in (-1, 0)
    and 1 - q^L loses digits only for even L near theta c = 2, which
    constants built as the CLI builds them, (c, 3c) for a constant mu,
    never reach.  The update is the L-step recursion to rounding, not bit
    for bit.

    The trial-side state is Z, the modal coefficients of u (`TrialModes`):
    the bracket of the outer update is formed in the modes, from g^ =
    W^T g V once per solve, and R_X^{-1} is a scaling and a rank-one
    correction there, so the loop makes no Riesz solve and no sparse
    product on the trial side either.  D^T lambda is read from y; lambda
    and u themselves are formed only for the returned state and, in test
    mode, for err_lambda and err_u.

    Stops when eta, evaluated at (lambda^(k+1), u^(k)), drops below cfg.tol.
    The returned state is the last monitored pair, the one trace.eta[-1]
    belongs to, also on the outer-iteration cap, where trace.converged
    stays False.  If `reference` is given the trace records true errors
    against it (test mode).
    """
    f, g = rhs
    theta, theta_S = cfg.theta_star_A, cfg.theta_star_S
    c = op_Y.mu.constant
    if c is None:
        coords = GradientMaps(op_Y, ctx)
        C_f = coords.representer(np.reshape(f, (pair.dim_t_Y, pair.dim_x)))
        P_t, P_x, flux = theta * coords.P_t, coords.P_x, op_Y.flux
        mapped = np.zeros(coords.shape)  # theta_A* P_t Phi(0) P_x = 0

        def sweep(G, C):
            """The L inner steps; G_L and ||C - theta_A* P_t Phi(G_L) P_x||_W."""
            nonlocal mapped
            G = G - (mapped - C)
            for _ in range(cfg.L - 1):
                G = G - (P_t @ flux(G) @ P_x - C)
            mapped = P_t @ flux(G) @ P_x
            return G, math.sqrt(coords.norm2(C - mapped))
    else:
        coords = RangeModes(ctx, f)
        C_f, theta_c = coords.C_f, theta * c
        q_L, s_L = _geometric_factors(theta_c, cfg.L)

        def sweep(Y, C):
            """The L inner steps in closed form; Y_L and ||C - theta_A* c Y_L||_Y."""
            d = C - theta_c * Y
            return Y + s_L * d, abs(q_L) * math.sqrt(coords.norm2(d))
    modes = TrialModes(op_X, ctx)
    g_hat = ctx.to_modes(g)
    y = np.zeros(coords.shape)
    Z = np.zeros((pair.dim_t_X, pair.dim_x))
    trace = UzawaTrace()

    for k in range(cfg.max_outer):
        C = theta * (C_f - coords.representer_of_D(Z))
        y, r_Y = sweep(y, C)
        R = g_hat - coords.apply_Dt(y) + modes.apply(Z) + modes.trace_term(Z)
        dZ = ctx.riesz_X_in_modes(R)
        res_Y = r_Y / theta
        res_X = math.sqrt(max(float(np.vdot(R, dZ)), 0.0))
        eta = res_Y + res_X

        trace.k.append(k)
        trace.eta.append(eta)
        trace.res_Y.append(res_Y)
        trace.res_X.append(res_X)
        trace.inner_count.append(cfg.L)
        if reference is not None:
            trace.err_u.append(ctx.norm_X_delta(reference.u - ctx.from_modes(Z)))
            trace.err_lambda.append(ctx.norm_Y(reference.lam - coords.lam(y)))
        else:
            trace.err_u.append(float("nan"))
            trace.err_lambda.append(float("nan"))

        if eta <= cfg.tol:
            trace.converged = True
            break
        if k + 1 < cfg.max_outer:
            # R is the u-update bracket in the modes, so the step reuses dZ
            Z = Z - theta_S * dZ

    return SaddleState(coords.lam(y), ctx.from_modes(Z)), trace
