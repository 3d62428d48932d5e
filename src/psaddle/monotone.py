"""Quasi-linear spatial operator, its constant calculus, and its solvers.

The operator acts on space-time functions w through

    (A w)(v) = int_J int_Omega mu(t, x, |dw/dx|^2) dw/dx dv/dx dx dt,

where the scalar nonlinearity mu satisfies, for all r >= s >= 0,

    m_mu (r - s) <= mu(.,., r^2) r - mu(.,., s^2) s <= M_mu (r - s),

which makes A Lipschitz continuous with constant 3 M_mu and strongly
monotone with constant m_mu, and the same constants carry over to its
Galerkin restrictions.

`damped_newton` is the one damped-Newton loop of the package, with Armijo
backtracking: `newton_solve` runs it on a Galerkin operator (the auxiliary
variable of the a posteriori condition, the Schur operator's inner
solve), and `system.solve_reference` on the whole saddle system.
`zarantonello_solve` is the paper's damped fixed-point iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from psaddle.core_linalg import BandedCholesky, BandedPattern, banded_pattern
from psaddle.errors import NotConvergedError, PsaddleError
from psaddle.spaces import TensorSpacePair, gauss_points, quadrature_matrix

__all__ = [
    "MuCoefficient",
    "MonotoneConstants",
    "GalerkinOperator",
    "GALERKIN_QUAD_POINTS",
    "make_mu",
    "constants_from_mu",
    "empirical_mu_bounds",
    "zarantonello_solve",
    "damped_newton",
    "newton_solve",
]


@dataclass(frozen=True)
class MuCoefficient:
    """Scalar nonlinearity mu(t, x, s) with its monotonicity bounds.

    `fn(t, x, s)` must broadcast over numpy arrays; `dfn_ds` is the partial
    derivative with respect to s and is only needed by the Newton oracle.
    The Galerkin kernels call both with t of shape (n_tq, 1, 1), x of shape
    (1, n_el, n_quad) and s of shape (n_tq, n_el, 1): every temporal Gauss
    point, every spatial Gauss point grouped by element, and the squared
    gradient, which is constant on a spatial element.  Either may ignore t
    or x, or return a scalar; a result that does not vary along the last
    axis is integrated once per element.

    Bounds with m_mu = M_mu = c declare mu = c (`constant`), and the Uzawa
    sweep then uses c in place of fn; so such a coefficient refuses an fn
    that is not c on a small grid of (t, x, s) points (`_CONSTANT_MU_GRID`),
    a sampled check behind that premise.
    """

    fn: Callable
    m_mu: float
    M_mu: float
    dfn_ds: Callable | None = None
    name: str = "custom"

    def __post_init__(self):
        if not (0 < self.m_mu <= self.M_mu):
            raise PsaddleError(f"invalid mu bounds ({self.m_mu}, {self.M_mu})")
        if self.constant is not None:
            if not np.all(np.asarray(self.fn(*_CONSTANT_MU_GRID)) == self.constant):
                raise PsaddleError(
                    f"mu {self.name!r} declares bounds ({self.m_mu}, {self.M_mu}) but is not "
                    f"the constant {self.constant} on the sampled (t, x, s) grid"
                )

    @property
    def constant(self) -> float | None:
        """c if mu is the constant c, read off the bounds: m_mu if
        m_mu = M_mu, else None.

        Proof.  With m_mu = M_mu = c, the bounds at s = 0 read
        c r <= mu(t, x, r^2) r <= c r, so mu(t, x, r^2) = c for every r > 0,
        and at r = 0 the flux mu r is 0 = c r whatever mu is.  So the flux
        is c times the gradient, the operator is c times the Riesz map of
        the Y-norm, and the Jacobian weight mu + 2 s mu' is c too.
        """
        return self.m_mu if self.m_mu == self.M_mu else None


# (t, x, s) sample points of the check behind `MuCoefficient.constant`,
# shaped the way the Galerkin kernels broadcast them
_CONSTANT_MU_GRID = (
    np.array([0.0, 0.5, 1.0])[:, None, None],
    np.array([0.0, 0.5, 1.0])[None, :, None],
    np.array([0.0, 0.25, 1.0, 3.0, 10.0, 100.0])[None, None, :],
)


def make_mu(name: str, **params) -> MuCoefficient:
    """Named registry used by the experiment configs.

    constant      mu = c                      bounds (c, c)
    one-plus-inv  mu = 1 + 1/(1+s)            bounds (7/8, 2), slope extremum at s = 3
    bounded-ramp  mu = a + b s/(1+s)          bounds (a, a + 9b/8), extremum at s = 3
    """
    if name == "constant":
        c = float(params.get("c", 1.0))
        if c <= 0:
            raise PsaddleError("constant mu must be positive")
        return MuCoefficient(
            fn=lambda t, x, s: c, dfn_ds=lambda t, x, s: 0.0,
            m_mu=c, M_mu=c, name=f"constant({c})",
        )
    if name == "one-plus-inv":
        return MuCoefficient(
            fn=lambda t, x, s: 1.0 + 1.0 / (1.0 + s),
            dfn_ds=lambda t, x, s: -1.0 / (1.0 + s) ** 2,
            m_mu=7.0 / 8.0, M_mu=2.0, name="one-plus-inv",
        )
    if name == "bounded-ramp":
        a = float(params.get("a", 1.0))
        b = float(params.get("b", 1.0))
        if a <= 0 or b < 0:
            raise PsaddleError("bounded-ramp needs a > 0, b >= 0")
        return MuCoefficient(
            fn=lambda t, x, s: a + b * s / (1.0 + s),
            dfn_ds=lambda t, x, s: b / (1.0 + s) ** 2,
            m_mu=a, M_mu=a + 9.0 * b / 8.0, name=f"bounded-ramp({a},{b})",
        )
    raise PsaddleError(f"unknown mu name {name!r}")


@dataclass(frozen=True)
class MonotoneConstants:
    """Lipschitz/monotonicity pair with the induced iteration numbers."""

    L: float
    m: float

    def __post_init__(self):
        if not (0 < self.m <= self.L):
            raise PsaddleError(f"need 0 < m <= L, got (L, m) = ({self.L}, {self.m})")

    @property
    def theta_star(self) -> float:
        """Optimal damping m / L^2 of the fixed-point iteration."""
        return self.m / self.L**2

    @property
    def sigma(self) -> float:
        """Contraction factor sqrt(1 - m^2 / L^2)."""
        return math.sqrt(max(0.0, 1.0 - (self.m / self.L) ** 2))


def constants_from_mu(mu: MuCoefficient) -> MonotoneConstants:
    """(L, m) = (3 M_mu, m_mu) for the quasi-linear operator."""
    return MonotoneConstants(L=3.0 * mu.M_mu, m=mu.m_mu)


# Grid intervals per block of `empirical_mu_bounds`: its arrays stay below
# glibc's default mmap threshold of 128 KiB, so the temporaries reuse heap
# memory instead of mapping and faulting in fresh pages on every call.
_MU_SAMPLE_BLOCK = 15_000


def empirical_mu_bounds(mu_fn, r_max: float, n: int = 100_000) -> tuple[float, float]:
    """Extremal finite-difference slopes of g(r) = mu(r^2) r on a uniform grid.

    Validates user-supplied (m_mu, M_mu); fails if a sampled slope is not
    finite, or not positive, i.e. the scalar map is not strongly monotone.
    A sample that is not finite makes a slope next to it so, and a NaN slope
    makes its block's extrema NaN, so checking the extrema of each block
    refuses both.  The grid is np.linspace(0, r_max, n + 1), point for
    point, taken in blocks that share their end points.
    """
    if n < 100:
        raise PsaddleError("need at least 100 sample points")
    step = r_max / n
    m_hat, M_hat = math.inf, -math.inf
    for start in range(0, n, _MU_SAMPLE_BLOCK):
        stop = min(start + _MU_SAMPLE_BLOCK, n)
        r = np.arange(start, stop + 1, dtype=float) * step
        if stop == n:
            r[-1] = r_max
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.asarray(mu_fn(r**2)) * r
            slopes = np.diff(g) / np.diff(r)
        lo, hi = float(slopes.min()), float(slopes.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise PsaddleError(f"mu(r^2) r or its slope is not finite on [0, {r_max}]")
        m_hat = min(m_hat, lo)
        M_hat = max(M_hat, hi)
    if m_hat <= 0:
        raise PsaddleError(f"mu is not strongly monotone on [0, {r_max}] (min slope {m_hat:.3e})")
    return m_hat, M_hat


# Gauss points per element and axis of the Galerkin operators.
GALERKIN_QUAD_POINTS = 3


class GalerkinOperator:
    """Galerkin action of the quasi-linear operator on Y^delta or X^delta.

    `side` selects the temporal axis of the tensor space the operator is
    restricted to; the spatial axis is shared.  Application and the Gateaux
    derivative use tensor Gauss quadrature with n_quad =
    `GALERKIN_QUAD_POINTS` = 3 points per element and axis (exact for the
    linear case, and well below test tolerances for the smooth
    nonlinearities bundled here).

    Every spatial basis is piecewise linear, so dw/dx is constant on each
    spatial element, and both kernels work on element gradients.  E_t holds
    the temporal basis at every temporal Gauss point and Dbar_x the spatial
    basis derivatives, one row per spatial element; both are quadrature
    matrices built once per operator, held with the temporal Gauss weights
    w_t and the element lengths h_x.  With W the coefficients as a
    (dim_t, dim_x) array and W_q = w_t (x) h_x the weights per temporal
    Gauss point and spatial element,

        G        = E_t W Dbar_x^T                    (n_tq, n_el), `gradients`
        Phi      = mu_bar o G                        `flux`
        apply(W) = E_t^T (W_q o Phi) Dbar_x
        jac(W)   = B^T diag(W_q o omega_bar) B,      B = kron(E_t, Dbar_x)

    where mu_bar and omega_bar are the element averages, per temporal Gauss
    point and spatial element, of mu and of omega = mu + 2 s mu'(s) at
    s = G^2 (`_averages`).  mu is evaluated on broadcast shapes: t as
    (n_tq, 1, 1), x as (1, n_el, n_quad) and s as (n_tq, n_el, 1).  A mu
    that ignores x, like every registry coefficient, is evaluated once per
    element, where its average is its value; one that depends on x gets
    every Gauss point, averaged with the spatial weights over h_x.  The
    flux carries no quadrature weight: `apply` and `jacobian` multiply by
    W_q themselves, once, and the Uzawa sweep folds the weights into its
    own maps.  The Jacobian is never formed as that product: its sparsity
    pattern does not depend on W, and its data is a fixed linear map of
    W_q o omega_bar that factors by axis (`_jacobian_map`), built on the
    first `jacobian` call and kept with the symbolic Cholesky of the
    pattern; the Uzawa sweep only evaluates the flux and never pays for
    either.  `gradients` and `flux` are public because that sweep keeps its
    iterates in coordinates where the operator reads element gradients and
    contracts the flux with its own maps (`uzawa.GradientMaps` on the test
    side, `uzawa.TrialModes` on the trial side).

    E_t and Dbar_x are stored dense, O(n^2) entries for n elements per axis.
    No shipped command goes above 128 elements per axis: `convergence`
    surrogates reach 128 and `pjotr` refines 8 elements at most 4 times.  So
    there is one dense path; a change that raises that ceiling should
    measure sparse E_t and Dbar_x.
    """

    def __init__(self, pair: TensorSpacePair, side: str, mu: MuCoefficient):
        if side not in ("Y", "X"):
            raise PsaddleError(f"side must be 'Y' or 'X', got {side!r}")
        self.pair = pair
        self.side = side
        self.mu = mu
        n_quad = GALERKIN_QUAD_POINTS

        if side == "Y":
            mesh_t, spec_t = pair.mesh_t_Y, pair.spec_t_Y
            self.dim_t = pair.dim_t_Y
        else:
            mesh_t, spec_t = pair.mesh_t_X, pair.spec_t_X
            self.dim_t = pair.dim_t_X
        self.dim_x = pair.dim_x
        self.dim = self.dim_t * self.dim_x

        t_q, w_t = gauss_points(mesh_t, n_quad)
        x_q, w_x = gauss_points(pair.mesh_x, n_quad)
        n_el = pair.mesh_x.n_elements
        self._t = t_q[:, None, None]
        self._x = x_q.reshape(1, n_el, n_quad)
        self._w_x = w_x.reshape(n_el, n_quad)
        self.w_t = w_t
        self.h_x = self._w_x.sum(axis=1)
        self._w_avg = self._w_x / self.h_x[:, None]
        self._w_el = w_t[:, None] * self.h_x
        self.E_t = quadrature_matrix(mesh_t, spec_t, n_quad)
        # one point per element: a P1 derivative is the same at every point
        self.Dbar_x = quadrature_matrix(pair.mesh_x, pair.spec_x, 1, derivative=True)

    def gradients(self, w: np.ndarray) -> np.ndarray:
        """Element gradients G = E_t W Dbar_x^T of w, (n_tq, n_el)."""
        W = np.asarray(w, dtype=float).reshape(self.dim_t, self.dim_x)
        return (self.E_t @ W) @ self.Dbar_x.T

    def _averages(self, G: np.ndarray, fn) -> np.ndarray:
        """Element averages of fn(t, x, G^2) at each temporal Gauss point:
        (n_tq, n_el), or anything that broadcasts to it.

        fn may return an array with a trailing axis of length 1 or n_quad,
        or a scalar; only an axis of length n_quad is averaged, since a
        value that does not vary over an element is its own average.
        """
        values = np.asarray(fn(self._t, self._x, (G * G)[:, :, None]), dtype=float)
        if values.ndim == 3 and values.shape[2] > 1:
            return (values * self._w_avg).sum(axis=2)
        return values.reshape(values.shape[:2])

    def flux(self, G: np.ndarray) -> np.ndarray:
        """mu_bar o G, the element-averaged flux of the element gradients G,
        without quadrature weights."""
        return self._averages(G, self.mu.fn) * G

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Dual coefficients (A w)(basis function): E_t^T (W_q o flux(G)) Dbar_x."""
        F = self._w_el * self.flux(self.gradients(w))
        return (self.E_t.T @ (F @ self.Dbar_x)).reshape(-1)

    @cached_property
    def _jacobian_map(self) -> tuple:
        """(P_t, St_x, perm, indptr, indices): the fixed linear map
        omega_bar -> Jacobian data, factored by axis, and the CSR pattern.
        Here omega_bar carries its quadrature weights W_q.

        J = sum_e kron(T_e, S_e) with T_e = E_t^T diag(omega_bar[:, e]) E_t
        and S_e = Dbar_x[e]^T Dbar_x[e].  Over the temporal pairs (a, b)
        with E_t[q, a] E_t[q, b] != 0 for some q, P_t[k, q] =
        E_t[q, a_k] E_t[q, b_k], so P_t @ omega_bar lists every T_e; over
        the spatial pairs (i, j), St_x[l, e] = Dbar_x[e, i_l] Dbar_x[e, j_l].
        Then St_x @ (P_t @ omega_bar)^T holds entry ((a_k, i_l), (b_k, j_l))
        at [l, k], and `perm` gathers it into CSR order on the pattern
        (indptr, indices) that every Jacobian shares.
        """

        def pairs(Q):
            """Column pairs that share a row of Q, and their row-wise products."""
            nz = (Q != 0).astype(float)
            first, second = np.nonzero(nz.T @ nz)
            products = sp.csr_matrix((Q[:, first] * Q[:, second]).T)
            return first.astype(np.int32), second.astype(np.int32), products

        a, b, P_t = pairs(self.E_t)
        i, j, St_x = pairs(self.Dbar_x)
        rows = (a[None, :] * self.dim_x + i[:, None]).ravel()
        cols = (b[None, :] * self.dim_x + j[:, None]).ravel()
        perm = np.lexsort((cols, rows)).astype(np.int32)
        indptr = np.zeros(self.dim + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=self.dim), out=indptr[1:])
        return P_t, St_x, perm, indptr, cols[perm]

    @cached_property
    def jacobian_pattern(self) -> BandedPattern:
        """Symbolic banded Cholesky of the Jacobians' common pattern."""
        indptr, indices = self._jacobian_map[3:]
        return banded_pattern(
            sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(self.dim, self.dim))
        )

    def jacobian(self, w: np.ndarray) -> sp.csr_matrix:
        """Gateaux derivative at w: a weighted stiffness matrix.

        The weight mu(s) + 2 s mu'(s) equals the slope of r -> mu(r^2) r at
        r = |dw/dx| and therefore lies in [m_mu, M_mu]; the Jacobian is SPD.
        Every Jacobian of one operator is CSR on the same pattern, sharing
        its index arrays, so `jacobian_pattern` factors any of them.
        """
        if self.mu.dfn_ds is None:
            raise PsaddleError("mu has no derivative; Newton is unavailable")
        mu = self.mu
        omega_bar = self._w_el * self._averages(
            self.gradients(w), lambda t, x, s: mu.fn(t, x, s) + 2.0 * s * mu.dfn_ds(t, x, s)
        )
        P_t, St_x, perm, indptr, indices = self._jacobian_map
        data = (St_x @ (P_t @ omega_bar).T).ravel()[perm]
        return sp.csr_matrix((data, indices, indptr), shape=(self.dim, self.dim))

    def jacobian_factor(self, w: np.ndarray) -> BandedCholesky:
        """Banded Cholesky factor of `jacobian(w)`: the numeric step on the
        held symbolic step of the pattern.  Raises NotSpdError if the
        Jacobian is not SPD."""
        return self.jacobian_pattern.factor(self.jacobian(w))


@dataclass
class IterationResult:
    x: np.ndarray
    iterations: int
    converged: bool


def zarantonello_solve(
    apply_G,
    riesz_solve,
    f: np.ndarray,
    x0: np.ndarray,
    constants: MonotoneConstants,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    callback=None,
) -> IterationResult:
    """Damped Picard iteration x <- x - theta* R^{-1}(G x - f).

    With the optimal damping theta* = m/L^2 the error contracts with factor
    sigma = sqrt(1 - m^2/L^2) per step in the norm realized by riesz_solve.
    Stops when the step norm drops below tol.

    A reproduction subject of acceptance criteria 02 and 03, not a solver:
    no solve path calls it.  It is the paper's fixed-point iteration, whose
    constants criterion 02 samples and whose contraction sigma criterion 03
    checks step by step.  The Uzawa sweep runs the same step on element
    gradients, and the reference solves use Newton.
    """
    theta = constants.theta_star
    x = np.asarray(x0, dtype=float).copy()
    for it in range(1, max_iter + 1):
        res = apply_G(x) - f
        d = riesz_solve(res)
        step_norm = theta * math.sqrt(max(res @ d, 0.0))
        x = x - theta * d
        if callback is not None:
            callback(it, x, step_norm)
        if step_norm <= tol:
            return IterationResult(x, it, True)
    return IterationResult(x, max_iter, False)


def damped_newton(evaluate, direction, x0, tol: float, max_steps: int, name: str):
    """Damped Newton with Armijo backtracking on a squared residual norm.

    `evaluate(x)` returns (eta, phi, data): the residual norm that stops the
    loop, the merit phi (its square, or a sum of squares) and whatever the
    direction needs, such as the residual itself.  `direction(x, data)`
    returns the line a -> x + a d through x along the Newton direction d,
    so the iterate may be any type that the line builds.  The loop stops
    as soon as eta <= tol and returns (x, steps taken).  From a = 1 each
    step halves a, at most 40 times, until the Armijo test

        phi(x + a d) <= (1 - 2 c a) phi(x),   c = 1e-4,

    or eta <= tol holds there (Armijo, Pacific J. Math. 16, 1966; for
    monotone operators Heid and Wihler, Math. Comp. 89, 2020).  With an
    exact Newton direction phi'(x) d = -2 phi, so the test holds for small
    enough a, and near the solution, where phi(x + d) = O(phi^2), for a = 1.

    Raises NotConvergedError on a direction that raises it, on a line search
    still short of the test after the last halving, and after max_steps
    steps, with the message "{name} {reason} at eta ... > tol ...", the
    last accepted iterate, which has the lowest merit seen, as `best` and
    the steps taken as `iterations`.
    """
    x = x0
    eta, phi, data = evaluate(x)

    def fail(reason, steps):
        return NotConvergedError(
            f"{name} {reason} at eta {eta:.3e} > tol {tol:.3e}", best=x, iterations=steps
        )

    for step in range(max_steps):
        if eta <= tol:
            return x, step
        try:
            line = direction(x, data)
        except NotConvergedError as err:
            raise fail(f"direction failed ({err})", step) from err
        alpha = 1.0
        for _ in range(40):
            trial = line(alpha)
            eta_t, phi_t, data_t = evaluate(trial)
            if phi_t <= (1.0 - 2e-4 * alpha) * phi or eta_t <= tol:
                break
            alpha *= 0.5
        else:
            raise fail("line search stalled", step)
        x, eta, phi, data = trial, eta_t, phi_t, data_t
    if eta <= tol:
        return x, max_steps
    raise fail(f"hit its cap of {max_steps} steps", max_steps)


def newton_solve(
    op: GalerkinOperator,
    f: np.ndarray,
    x0: np.ndarray,
    residual_norm,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> IterationResult:
    """op(x) = f by `damped_newton`, eta the residual norm and phi its square.

    Reference-solution oracle: independent of the fixed-point solver path.
    Each step factors the Jacobian of op at x once
    (`GalerkinOperator.jacobian_factor`) and solves it for the exact
    direction.  `residual_norm` measures the residual for the stopping test
    and the line search, a dual norm such as `RieszContext.dual_norm_Y`.
    """

    def evaluate(x):
        r = op.apply(x) - f
        rn = residual_norm(r)
        return rn, rn * rn, r

    def direction(x, r):
        d = op.jacobian_factor(x).solve(-r)
        return lambda a: x + a * d

    x, steps = damped_newton(
        evaluate, direction, np.array(x0, dtype=float), tol, max_iter, "newton"
    )
    return IterationResult(x, steps, True)
