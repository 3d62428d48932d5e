"""Riesz-map solves, dual norms, the mesh-dependent trial norm, and the
blocks of the saddle system.

The test space carries the norm realized by R_Y = M_t^Y (x) A_x.  The trial
space carries the Y^delta-dependent norm

    ||z||_{X,delta}^2 = ||z||_Y^2 + ||d_t z||_{(Y^delta)'}^2 + ||z(T)||_H^2,

whose Gram operator is R_X = M_t^X (x) A_x + T (x) S + e_T e_T^T (x) M_x,
with T (x) S = D^T R_Y^{-1} D for D = B_t (x) M_x, T = B_t^T (M_t^Y)^{-1} B_t
and S = M_x A_x^{-1} M_x.  `RieszContext` holds these blocks (`D`, `trace`,
`T_t`, `S_x`) and builds every [[A_Y, D], [D^T, -A_X]] (`saddle_matrix`);
the Uzawa loop applies D, D^T and the trace term as Kronecker matvecs.
Applying R_X^{-1} is a discrete linear parabolic solve: one sparse
factorization of saddle_matrix(R_Y, M_t^X (x) A_x + trace) per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from psaddle.core_linalg import SpdFactorization, lu_factorize, spd_factorize
from psaddle.errors import DimensionMismatchError, InvalidSpaceError
from psaddle.spaces import TensorSpacePair, embed_X_into_Y, trace_at_time

__all__ = ["RieszContext", "estimate_C_J"]


@dataclass
class RieszContext:
    """Factorizations and norm machinery bound to one tensor pair.

    The mesh-dependent trial norm always refers to the test space currently
    bound in `pair`; rebuilding the context is the way to change it.
    """

    pair: TensorSpacePair
    fact_M_t_Y: SpdFactorization = field(init=False, repr=False)
    fact_A_x: SpdFactorization = field(init=False, repr=False)
    _saddle_lu: object = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.fact_M_t_Y = spd_factorize(self.pair.M_t_Y)
        self.fact_A_x = spd_factorize(self.pair.A_x)

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

    def riesz_Y_solve(self, h) -> np.ndarray:
        """(M_t^Y (x) A_x)^{-1} h: the Y-representer of a Y-functional."""
        H = self._as_Y(h)
        Z = self.fact_M_t_Y.solve(H)                   # M^{-1} H
        return self.fact_A_x.solve(Z.T).T.reshape(-1)  # ... A^{-1}

    def apply_D(self, u) -> np.ndarray:
        """Temporal derivative of a trial function as a Y-functional."""
        U = self._as_X(u)
        return np.asarray(self.pair.B_t @ (self.pair.M_x @ U.T).T).reshape(-1)

    def apply_Dt(self, lam) -> np.ndarray:
        """Adjoint of apply_D: a functional on the trial space."""
        L = self._as_Y(lam)
        return np.asarray(self.pair.B_t.T @ (self.pair.M_x @ L.T).T).reshape(-1)

    def apply_trace_term(self, u) -> np.ndarray:
        """(gamma_T)' M_x gamma_T u as a functional on the trial space."""
        U = self._as_X(u)
        out = np.zeros_like(U)
        out[-1] = self.pair.M_x @ U[-1]
        return out.reshape(-1)

    def apply_R_YX(self, u) -> np.ndarray:
        """Y-inner-product Gram (M_t^X (x) A_x) on trial coefficients."""
        U = self._as_X(u)
        return np.asarray(self.pair.M_t_X @ (self.pair.A_x @ U.T).T).reshape(-1)

    def apply_R_X(self, u) -> np.ndarray:
        """Gram operator of the mesh-dependent trial norm."""
        return (
            self.apply_R_YX(u)
            + self.apply_Dt(self.riesz_Y_solve(self.apply_D(u)))
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
        """sqrt(||u||_Y^2 + ||d_t u||_{(Y^d)'}^2 + ||u(T)||_H^2)."""
        du = self.apply_D(u)
        deriv2 = float(du @ self.riesz_Y_solve(du))
        uT = trace_at_time(self.pair, u, self.pair.T)
        return math.sqrt(
            max(float(u @ self.apply_R_YX(u)) + deriv2 + float(uT @ (self.pair.M_x @ uT)), 0.0)
        )

    def norm_H_of_trace(self, u, t) -> float:
        ut = trace_at_time(self.pair, u, t)
        return math.sqrt(max(float(ut @ (self.pair.M_x @ ut)), 0.0))

    # -- the blocks of the saddle system --------------------------------------

    @cached_property
    def D(self) -> sp.csr_matrix:
        """D = B_t (x) M_x, the matrix of `apply_D`."""
        return sp.kron(self.pair.B_t, self.pair.M_x, format="csr")

    @cached_property
    def trace(self) -> sp.csr_matrix:
        """e_T e_T^T (x) M_x, the matrix of `apply_trace_term`."""
        n = self.pair.dim_t_X
        e_T = sp.csr_matrix(([1.0], ([n - 1], [n - 1])), shape=(n, n))
        return sp.kron(e_T, self.pair.M_x, format="csr")

    @cached_property
    def T_t(self) -> np.ndarray:
        """T = B_t^T (M_t^Y)^{-1} B_t, dense (dim_t_X, dim_t_X)."""
        B = self.pair.B_t.toarray()
        return B.T @ self.fact_M_t_Y.solve(B)

    @cached_property
    def S_x(self) -> np.ndarray:
        """S = M_x A_x^{-1} M_x, dense (dim_x, dim_x)."""
        M = self.pair.M_x.toarray()
        return M @ self.fact_A_x.solve(M)

    def saddle_matrix(self, A_Y, A_X) -> sp.csc_matrix:
        """[[A_Y, D], [D^T, -A_X]] for sparse blocks on Y and X."""
        return sp.bmat([[A_Y, self.D], [self.D.T, -A_X]], format="csc")

    # -- the linear parabolic Riesz solve -------------------------------------

    def _saddle(self):
        if self._saddle_lu is None:
            p = self.pair
            R_Y = sp.kron(p.M_t_Y, p.A_x, format="csr")
            R_YX = sp.kron(p.M_t_X, p.A_x, format="csr")
            self._saddle_lu = lu_factorize(self.saddle_matrix(R_Y, R_YX + self.trace))
        return self._saddle_lu

    def riesz_X_solve(self, h) -> np.ndarray:
        """R_X^{-1} h via the 2x2 block elimination; factored once per pair."""
        h = np.asarray(h, dtype=float)
        if h.shape[0] != self.pair.dim_X:
            raise DimensionMismatchError(f"expected X-dim {self.pair.dim_X}, got {h.shape[0]}")
        rhs = np.concatenate([np.zeros(self.pair.dim_Y), -h])
        sol = self._saddle().solve(rhs)
        return sol[self.pair.dim_Y :]

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


def estimate_C_J(ctx: RieszContext, tol: float = 1e-10, max_iter: int = 500) -> float:
    """Embedding constant of point traces, estimated on a fine reference pair.

    Maximizes ||z(t)||_H^2 / (||z||_Y^2 + ||d_t z||_{(Y^d)'}^2) over the trial
    space for t in {0, T} by power iteration on the generalized eigenproblem;
    the denominator Gram is inverted through the same 2x2 block trick as
    R_X but without the endpoint trace term.
    """
    p = ctx.pair
    R_Y = sp.kron(p.M_t_Y, p.A_x, format="csr")
    R_YX = sp.kron(p.M_t_X, p.A_x, format="csr")
    lu = lu_factorize(ctx.saddle_matrix(R_Y, R_YX))
    nY = p.dim_Y

    def solve_G(h):
        sol = lu.solve(np.concatenate([np.zeros(nY), -h]))
        return sol[nY:]

    def apply_G(u):
        return ctx.apply_R_YX(u) + ctx.apply_Dt(ctx.riesz_Y_solve(ctx.apply_D(u)))

    best = 0.0
    for endpoint in (0.0, p.T):
        def apply_trace(u):
            U = ctx._as_X(u)
            out = np.zeros_like(U)
            row = 0 if endpoint == 0.0 else -1
            out[row] = p.M_x @ U[row]
            return out.reshape(-1)

        rng = np.random.default_rng(7)
        v = rng.standard_normal(p.dim_X)
        lam_prev = 0.0
        for _ in range(max_iter):
            w = solve_G(apply_trace(v))
            nrm = math.sqrt(max(float(w @ apply_G(w)), 1e-300))
            v = w / nrm
            lam = float(v @ apply_trace(v)) / float(v @ apply_G(v))
            if abs(lam - lam_prev) <= tol * max(lam, 1e-30):
                break
            lam_prev = lam
        best = max(best, lam)
    return math.sqrt(best)
