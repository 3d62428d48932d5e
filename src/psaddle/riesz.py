"""Riesz-map solves, dual norms, the mesh-dependent trial norm, and the
coupling blocks of the saddle system.

The test space carries the norm realized by R_Y = M_t^Y (x) A_x.  The trial
space carries the Y^delta-dependent norm

    ||z||_{X,delta}^2 = ||z||_Y^2 + ||d_t z||_{(Y^delta)'}^2 + ||z(T)||_H^2,

whose Gram operator is R_X = M_t^X (x) A_x + T (x) S + e_T e_T^T (x) M_x,
with T (x) S = D^T R_Y^{-1} D for D = B_t (x) M_x, T = B_t^T (M_t^Y)^{-1} B_t
and S = M_x A_x^{-1} M_x.  No Kronecker product is formed: on coefficients
held as (dim_t, dim_x) arrays, (L (x) R) vec(U) = vec(L U R^T) (Van Loan,
J. Comput. Appl. Math. 123, 2000), so `apply_D` is B_t U M_x, `apply_Dt`
is B_t^T Lambda M_x, `apply_trace_term` is M_x on the last temporal block
of U, and `apply_R_X` is M_t^X U A_x + T U S plus that trace term, with
the dense 1D factors `T_t` and `S_x` held by the context.

Both Riesz solves are exact and go through dense transforms built once per
pair:

* R_Y^{-1} h = (M_t^Y)^{-1} H A_x^{-1}, two products with dense inverses
  taken from the banded Cholesky factors of the 1D matrices M_t^Y and A_x
  (`inv_M_t_Y`, `inv_A_x`; the Uzawa sweep folds them into its maps on
  element gradients, `uzawa.GradientMaps`, for a mu with a flux).
* R_X^{-1} by fast diagonalization (Lynch, Rice and Thomas, Numer. Math. 6,
  1964).  With A_x V = M_x V Lambda, V^T M_x V = I, the spatial modes
  decouple: V^T S V = Lambda^{-1}, so mode k carries the temporal block
  K_k = lambda_k M_t^X + T / lambda_k + e_T e_T^T.  With T W = M_t^X W Theta,
  W^T M_t^X W = I, W^T K_k W = D_k + w w^T for the diagonal
  D_k = lambda_k + Theta / lambda_k and w = W^T e_T, which Sherman-Morrison
  inverts in closed form.  A solve is four dense products and O(dim_X)
  scalings; the set-up is two symmetric-definite eigenproblems, one per axis.
  The balanced Gram R_X(c) = c M_t^X (x) A_x + T (x) S / c + e_T e_T^T (x) M_x,
  which preconditions the reference solver's Schur Jacobian, has the same
  transforms with lambda_k -> c lambda_k (`riesz_X_solver`).
  The transforms and both spectra are public as `modes`, and `to_modes`
  and `from_modes` carry a functional into them and a trial function out
  of them, the products every solve makes.  The Uzawa sweep
  keeps its trial iterate in them (`uzawa.TrialModes`), where R_X^{-1} is
  the scaling and the rank-one correction alone (`riesz_X_in_modes`), and
  for a constant mu its test iterate too (`uzawa.RangeModes`): there
  D^T R_Y^{-1} D = T (x) S is the scaling theta_j / lambda_k, zero on the
  `n0` temporal modes of ker B_t (`RieszModes.n0`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from psaddle.core_linalg import BandedCholesky, banded_cholesky, check_dense_size
from psaddle.errors import DimensionMismatchError, InvalidSpaceError, NotSpdError
from psaddle.spaces import TensorSpacePair, embed_X_into_Y, trace_at_time

__all__ = ["RieszContext", "RieszModes", "estimate_C_J"]


class RieszModes(NamedTuple):
    """The fast diagonalization of R_X (`RieszContext.modes`)."""

    W: np.ndarray      # temporal eigenbasis, W^T M_t^X W = I
    theta: np.ndarray  # temporal eigenvalues, W^T T W = diag(theta), ascending
    V: np.ndarray      # spatial eigenbasis, V^T M_x V = I
    lam: np.ndarray    # spatial eigenvalues, V^T A_x V = diag(lam)
    scale: np.ndarray  # D_k^{-1} per temporal and spatial mode
    w: np.ndarray      # W^T e_T
    corr: np.ndarray   # Sherman-Morrison correction of the trace term

    @property
    def n0(self) -> int:
        """The number of leading temporal modes in ker B_t, where theta = 0.

        theta_j counts as zero within numpy's `matrix_rank` tolerance for
        the Hermitian diag(theta), theta_max dim_t_X eps: eigh returns a
        zero eigenvalue to about eps theta_max.  theta_j = 0 means
        ||(M_t^Y)^{-1/2} B_t W_j||^2 = W_j^T T W_j = 0, so B_t W_j = 0.
        The constants always lie in ker B_t (the nodal trial basis sums to
        one, and the derivative of 1 is 0), so theta_0 = 0 and n0 >= 1
        whatever the rounding; on every temporal test space of the pair
        they are all of the kernel, and n0 = 1.
        """
        tol = self.theta.max() * self.theta.size * np.finfo(float).eps
        return max(1, int(np.count_nonzero(self.theta <= tol)))


@dataclass
class RieszContext:
    """Banded Cholesky factors and norm machinery bound to one tensor pair.

    The mesh-dependent trial norm always refers to the test space currently
    bound in `pair`; rebuilding the context is the way to change it.  The
    dense inverses and the mode transforms are built on first use.
    """

    pair: TensorSpacePair
    fact_M_t_Y: BandedCholesky = field(init=False, repr=False)
    fact_A_x: BandedCholesky = field(init=False, repr=False)

    def __post_init__(self):
        self.fact_M_t_Y = banded_cholesky(self.pair.M_t_Y)
        self.fact_A_x = banded_cholesky(self.pair.A_x)

    # -- Kronecker helpers (time-major layout) ------------------------------

    def _as_Y(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.pair.dim_Y:
            raise DimensionMismatchError(f"expected Y-dim {self.pair.dim_Y}, got {v.shape[0]}")
        return v.reshape(self.pair.dim_t_Y, self.pair.dim_x)

    def _as_X(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.pair.dim_X:
            raise DimensionMismatchError(f"expected X-dim {self.pair.dim_X}, got {v.shape[0]}")
        return v.reshape(self.pair.dim_t_X, self.pair.dim_x)

    def apply_R_Y(self, y) -> np.ndarray:
        Y = self._as_Y(y)
        return np.asarray(self.pair.M_t_Y @ (self.pair.A_x @ Y.T).T).reshape(-1)

    @cached_property
    def inv_M_t_Y(self) -> np.ndarray:
        """Dense (M_t^Y)^{-1}, the temporal factor of R_Y^{-1}."""
        n = self.pair.dim_t_Y
        check_dense_size("RieszContext inverse of M_t^Y", (n, n))
        return self.fact_M_t_Y.solve(np.eye(n))

    @cached_property
    def inv_A_x(self) -> np.ndarray:
        """Dense A_x^{-1}, the spatial factor of R_Y^{-1}."""
        n = self.pair.dim_x
        check_dense_size("RieszContext inverse of A_x", (n, n))
        return self.fact_A_x.solve(np.eye(n))

    def riesz_Y_solve(self, h) -> np.ndarray:
        """(M_t^Y (x) A_x)^{-1} h = (M_t^Y)^{-1} H A_x^{-1}: the Y-representer
        of a Y-functional."""
        return (self.inv_M_t_Y @ self._as_Y(h) @ self.inv_A_x).reshape(-1)

    @cached_property
    def B_t_T(self) -> sp.csr_matrix:
        """B_t^T in CSR: products with the transposed view are slower."""
        return self.pair.B_t.T.tocsr()

    def apply_D(self, u) -> np.ndarray:
        """D u = B_t U M_x: the temporal derivative of a trial function as a
        Y-functional."""
        U = self._as_X(u)
        return np.asarray(self.pair.B_t @ (self.pair.M_x @ U.T).T).reshape(-1)

    def apply_Dt(self, lam) -> np.ndarray:
        """D^T lambda = B_t^T Lambda M_x, the adjoint of apply_D: a functional
        on the trial space."""
        L = self._as_Y(lam)
        return np.asarray((self.pair.M_x @ (self.B_t_T @ L).T).T).reshape(-1)

    def apply_trace_term(self, u) -> np.ndarray:
        """(gamma_T)' M_x gamma_T u = e_T e_T^T U M_x as a functional on the
        trial space: M_x applied to the last temporal block."""
        U = self._as_X(u)
        out = np.zeros_like(U)
        out[-1] = self.pair.M_x @ U[-1]
        return out.reshape(-1)

    def apply_R_YX(self, u) -> np.ndarray:
        """Y-inner-product Gram (M_t^X (x) A_x) on trial coefficients."""
        U = self._as_X(u)
        return np.asarray(self.pair.M_t_X @ (self.pair.A_x @ U.T).T).reshape(-1)

    def apply_R_X(self, u) -> np.ndarray:
        """Gram operator of the mesh-dependent trial norm:
        M_t^X U A_x + T U S + e_T e_T^T U M_x."""
        U = self._as_X(u)
        return (
            self.apply_R_YX(u)
            + (self.T_t @ U @ self.S_x).reshape(-1)
            + self.apply_trace_term(u)
        )

    # -- norms ---------------------------------------------------------------

    def norm_Y(self, y) -> float:
        return math.sqrt(max(float(y @ self.apply_R_Y(y)), 0.0))

    def dual_norm_Y(self, h) -> float:
        return math.sqrt(max(float(h @ self.riesz_Y_solve(h)), 0.0))

    def dual_norm_X(self, h) -> float:
        return math.sqrt(max(float(h @ self.riesz_X_solve(h)), 0.0))

    def norm_X_delta(self, u) -> float:
        """sqrt(||u||_Y^2 + ||d_t u||_{(Y^d)'}^2 + ||u(T)||_H^2) = sqrt(u . R_X u)."""
        return math.sqrt(max(float(u @ self.apply_R_X(u)), 0.0))

    def norm_H_of_trace(self, u, t) -> float:
        ut = trace_at_time(self.pair, u, t)
        return math.sqrt(max(float(ut @ (self.pair.M_x @ ut)), 0.0))

    # -- the dense 1D factors of T (x) S -------------------------------------

    @cached_property
    def T_t(self) -> np.ndarray:
        """T = B_t^T (M_t^Y)^{-1} B_t, dense (dim_t_X, dim_t_X)."""
        check_dense_size("RieszContext.T_t", (self.pair.dim_t_Y, self.pair.dim_t_X))
        B = self.pair.B_t.toarray()
        return B.T @ self.fact_M_t_Y.solve(B)

    @cached_property
    def S_x(self) -> np.ndarray:
        """S = M_x A_x^{-1} M_x, dense (dim_x, dim_x)."""
        check_dense_size("RieszContext.S_x", (self.pair.dim_x, self.pair.dim_x))
        M = self.pair.M_x.toarray()
        return M @ self.fact_A_x.solve(M)

    # -- the linear parabolic Riesz solve -------------------------------------

    @cached_property
    def modes(self) -> RieszModes:
        """(W, theta, V, lam, scale, w, corr) of the fast diagonalization of R_X.

        W^T M_t^X W = I, W^T T W = diag(theta), V^T M_x V = I and
        V^T A_x V = diag(lambda), lambda held as `lam`.  scale[j, k] =
        1 / (lambda_k + theta_j / lambda_k) is D_k^{-1}, w = W^T e_T the
        last row of W, and corr[:, k] = D_k^{-1} w / (1 + w^T D_k^{-1} w)
        the Sherman-Morrison correction for the trace term.  So a functional H, as a
        (dim_t_X, dim_x) array, has the representer W Z V^T with
        Z = scale o H^ - corr o (w^T (scale o H^)) for H^ = W^T H V.
        """
        p = self.pair
        check_dense_size("RieszContext spatial eigenbasis V", (p.dim_x, p.dim_x))
        check_dense_size("RieszContext temporal eigenbasis W", (p.dim_t_X, p.dim_t_X))
        try:
            lam, V = sla.eigh(p.A_x.toarray(), p.M_x.toarray())
            theta, W = sla.eigh(self.T_t, p.M_t_X.toarray())
        except np.linalg.LinAlgError as exc:  # a mass matrix is not positive definite
            raise NotSpdError(f"mode transform failed: {exc}") from exc
        w = W[-1]
        scale, corr = _mode_scaling(lam, theta, w)
        return RieszModes(W, theta, V, lam, scale, w, corr)

    def to_modes(self, h) -> np.ndarray:
        """W^T H V: a functional h on the trial space, as a (dim_t_X, dim_x)
        array H, in the modes of R_X."""
        return self.modes.W.T @ self._as_X(h) @ self.modes.V

    def from_modes(self, Z: np.ndarray) -> np.ndarray:
        """W Z V^T, flat: the coefficients of the trial function with modal
        coefficients Z."""
        return (self.modes.W @ Z @ self.modes.V.T).reshape(-1)

    def riesz_X_in_modes(self, H: np.ndarray) -> np.ndarray:
        """R_X^{-1} within the modes: the modal coefficients Z of the
        representer of the functional with modal form H = W^T H V, by
        D_k^{-1} plus the rank-one trace correction per spatial mode."""
        return _solve_in_modes(self.modes, H)

    def riesz_X_solve(self, h) -> np.ndarray:
        """R_X^{-1} h by fast diagonalization: into the modes, solve there
        (`riesz_X_in_modes`), back again."""
        return self.from_modes(self.riesz_X_in_modes(self.to_modes(h)))

    def riesz_X_solver(self, c: float):
        """h -> R_X(c)^{-1} h for the balanced trial Gram

            R_X(c) = c M_t^X (x) A_x + T (x) S / c + e_T e_T^T (x) M_x,   c > 0;

        `riesz_X_solve` itself for c = 1.  V^T A_x V = diag(lambda) and
        V^T S V = diag(1/lambda), so mode k carries c lambda_k M_t^X +
        T / (c lambda_k) + e_T e_T^T: the temporal block of R_X with
        lambda_k -> c lambda_k.  So the solve goes through the transforms W
        and V of `modes`, with scale and corr built from c lambda.
        """
        if c == 1.0:
            return self.riesz_X_solve
        m = self.modes
        scale, corr = _mode_scaling(c * m.lam, m.theta, m.w)
        balanced = m._replace(scale=scale, corr=corr)
        return lambda h: self.from_modes(_solve_in_modes(balanced, self.to_modes(h)))

    # -- diagnostics -----------------------------------------------------------

    def check_infsup_identity(self, z) -> tuple[float, float]:
        """Both sides of ||z||_{X,d}^2 = ||(d_t + R_Y) z||_{(Y^d)'}^2 + ||z(0)||_H^2.

        Requires the trial function to lie in the test space.
        """
        if not self.pair.x_in_y:
            raise InvalidSpaceError("identity needs the trial space inside the test space")
        lhs = self.norm_X_delta(z) ** 2
        zy = embed_X_into_Y(self.pair, z)
        dual_vec = self.apply_D(z) + self.apply_R_Y(zy)
        rhs = float(dual_vec @ self.riesz_Y_solve(dual_vec))
        z0 = trace_at_time(self.pair, z, 0.0)
        rhs += float(z0 @ (self.pair.M_x @ z0))
        return lhs, rhs


def _mode_scaling(lam: np.ndarray, theta: np.ndarray, w: np.ndarray):
    """(scale, corr) of a mode transform: D_k^{-1} = 1 / (lambda_k +
    theta_j / lambda_k) and the Sherman-Morrison correction of the trace."""
    scale = 1.0 / (lam[None, :] + theta[:, None] / lam[None, :])
    corr = scale * w[:, None] / (1.0 + w**2 @ scale)
    return scale, corr


def _solve_in_modes(m: RieszModes, H: np.ndarray) -> np.ndarray:
    """D_k^{-1} and the rank-one trace correction per spatial mode."""
    Z = m.scale * H
    Z -= m.corr * (m.w @ Z)
    return Z


def estimate_C_J(ctx: RieszContext) -> float:
    """Embedding constant of point traces, estimated on a fine reference pair.

    The largest ||z(t)||_H^2 / (||z||_Y^2 + ||d_t z||_{(Y^d)'}^2) over the
    trial space for t in {0, T}, in closed form.  In the modes of R_X the
    denominator Gram is block-diagonal with G_k = lambda_k M_t^X + T/lambda_k
    and the numerator is e_t e_t^T per mode, a rank-one pencil whose one
    eigenvalue is (G_k^{-1})[t, t] = sum_j W[t, j]^2 / (lambda_k + theta_j/lambda_k).
    """
    m = ctx.modes
    return math.sqrt(float((m.W[[0, -1]] ** 2 @ m.scale).max()))
