"""Kronecker-structured optimal preconditioner for the trial-space Riesz map.

In the tensor setting the Gram matrix of the alternative trial norm is

    R = M_t (x) A_x + (M_t + A_t) (x) M_x A_x^{-1} M_x.

Transforming the temporal axis to a wavelet basis that is stable in both
the L2 and H1 norms turns the temporal factors diagonal up to spectral
equivalence, leaving one diffusion-reaction block A_x + alpha_psi^2
M_x A_x^{-1} M_x per wavelet.  Each block is in turn spectrally equivalent
to (A_x + alpha M_x) A_x^{-1} (A_x + alpha M_x), so the preconditioner

    (T (x) I) blockdiag[(A_x + alpha M_x)^{-1} A_x (A_x + alpha M_x)^{-1}] (T^T (x) I)

applies with one pair of banded solves per distinct alpha, each on all the
wavelets that share it as a block right-hand side.  At desk scale the block
inverses are exact banded Cholesky factorizations, so the spectral-equivalence
step of the block construction holds with equality.

`RXOperator` applies R matrix-free, `BlockDiagPrecond` builds the
preconditioner on a `build_time_wavelets` basis, and `kappa_study` reports
the exact condition number of the preconditioned Gram per dyadic level,
which both operators split into one temporal block per spatial mode
(`mode_kappa`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from psaddle.core_linalg import banded_cholesky, check_dense_size
from psaddle.errors import InvalidSpaceError
from psaddle.riesz import RieszContext
from psaddle.spaces import (
    CONT_P1,
    Mesh1D,
    TensorSpacePair,
    assemble_1d,
    default_pair,
)

__all__ = [
    "TimeWaveletBasis",
    "BlockDiagPrecond",
    "SpectralMargins",
    "build_time_wavelets",
    "RXOperator",
    "check_spectral_inequality",
    "mode_kappa",
    "kappa_study",
]


def _dyadic_level(mesh: Mesh1D) -> int:
    n = mesh.n_elements
    level = int(round(math.log2(n)))
    if 2**level != n:
        raise InvalidSpaceError(f"temporal mesh must have 2^j elements, got {n}")
    h = mesh.lengths
    if np.max(np.abs(h - h[0])) > 1e-12 * h[0]:
        raise InvalidSpaceError("temporal mesh must be uniform for the wavelet transform")
    return level


def _hat_values(level: int, node: int, fine_nodes: np.ndarray, length: float) -> np.ndarray:
    """P1 hat at dyadic level `level`, node index 0..2^level, on fine nodes."""
    h = length / 2**level
    center = node * h
    return np.maximum(0.0, 1.0 - np.abs(fine_nodes - center) / h)


@dataclass(frozen=True)
class TimeWaveletBasis:
    """Wavelet-to-nodal transform with per-function H1 norms.

    Columns of T hold the L2-normalized wavelet functions in fine nodal
    coordinates, ordered level-major: the two coarsest scaling functions,
    then detail functions per level.  alphas[j] is the H1(J) norm of column
    j, so the diagonal of the wavelet mass matrix is the identity and the
    diagonal of mass + stiffness is alphas^2.
    """

    T: np.ndarray
    alphas: np.ndarray

    @property
    def dim(self) -> int:
        return self.T.shape[0]


def build_time_wavelets(mesh: Mesh1D, variant: str = "vanishing-moment") -> TimeWaveletBasis:
    """Hierarchical piecewise-linear wavelets on a uniform dyadic mesh.

    variant "hierarchical": details are plain fine hats at the new nodes.
    variant "vanishing-moment" (default): each detail additionally subtracts
    the two parent hats with weights that cancel its mean (1/4 interior,
    1/2 at a boundary parent), which is what keeps the basis L2-stable
    across levels.
    """
    if variant not in ("hierarchical", "vanishing-moment"):
        raise InvalidSpaceError(f"unknown wavelet variant {variant!r}")
    J = _dyadic_level(mesh)
    length = mesh.end - mesh.start
    fine = mesh.points - mesh.start
    dim = mesh.n_elements + 1
    check_dense_size("wavelet transform T", (dim, dim))

    cols = [
        _hat_values(0, 0, fine, length),
        _hat_values(0, 1, fine, length),
    ]
    for level in range(1, J + 1):
        n_coarse = 2 ** (level - 1)
        for k in range(n_coarse):
            psi = _hat_values(level, 2 * k + 1, fine, length)
            if variant == "vanishing-moment":
                w_left = 0.5 if k == 0 else 0.25
                w_right = 0.5 if k + 1 == n_coarse else 0.25
                psi = psi - w_left * _hat_values(level - 1, k, fine, length)
                psi = psi - w_right * _hat_values(level - 1, k + 1, fine, length)
            cols.append(psi)
    T = np.column_stack(cols)

    M_t = assemble_1d("mass", (mesh, CONT_P1))
    A_t = assemble_1d("stiffness", (mesh, CONT_P1))
    T = T / np.sqrt((T * (M_t @ T)).sum(axis=0))
    h1 = np.sqrt(1.0 + (T * (A_t @ T)).sum(axis=0))
    return TimeWaveletBasis(T=T, alphas=h1)


class RXOperator:
    """Matrix-free application of M_t (x) A_x + (M_t + A_t) (x) S with
    S = M_x A_x^{-1} M_x: the first term is `RieszContext.apply_R_YX`, and
    S is `RieszContext.S_x`."""

    def __init__(self, pair: TensorSpacePair):
        self.pair = pair
        self.ctx = RieszContext(pair)
        self.MtAt = (pair.M_t_X + pair.A_t_X).tocsr()
        self.dim = pair.dim_X

    def apply(self, v: np.ndarray) -> np.ndarray:
        p = self.pair
        V = np.asarray(v, dtype=float).reshape(p.dim_t_X, p.dim_x)
        return self.ctx.apply_R_YX(v) + (self.MtAt @ (V @ self.ctx.S_x)).reshape(-1)


class BlockDiagPrecond:
    """Per-wavelet diffusion-reaction solves realizing the optimal preconditioner.

    The wavelets are grouped by alpha, rounded to 12 decimals, and
    A_x + alpha M_x is factored once per group at its first alpha; `apply`
    solves each factor once, on all of its group's rows as a block
    right-hand side.  The transform T and its transpose are held in CSR:
    each wavelet has local support, so T is sparse (2.6% nonzero at 1025
    temporal dofs).
    """

    def __init__(self, basis: TimeWaveletBasis, pair: TensorSpacePair):
        if basis.dim != pair.dim_t_X:
            raise InvalidSpaceError("wavelet basis and temporal trial axis disagree")
        self.basis = basis
        self.pair = pair
        self._T = sp.csr_matrix(basis.T)
        self._T_T = self._T.T.tocsr()
        groups: dict[float, list[int]] = {}
        for w, alpha in enumerate(basis.alphas):
            groups.setdefault(round(float(alpha), 12), []).append(w)
        self._groups = tuple(
            (banded_cholesky(pair.A_x + basis.alphas[rows[0]] * pair.M_x), np.array(rows))
            for rows in groups.values()
        )

    @property
    def dim(self) -> int:
        return self.basis.dim * self.pair.dim_x

    def apply(self, h: np.ndarray) -> np.ndarray:
        p = self.pair
        H = np.asarray(h, dtype=float).reshape(self.basis.dim, p.dim_x)
        Y = self._T_T @ H
        Z = np.empty_like(Y)
        for fact, rows in self._groups:
            Z[rows] = fact.solve(p.A_x @ fact.solve(Y[rows].T)).T
        return (self._T @ Z).reshape(-1)


@dataclass(frozen=True)
class SpectralMargins:
    """Eigenvalue margins of the diffusion-reaction spectral sandwich.

    With P = (A + alpha M) A^{-1} (A + alpha M) and Q = A + alpha^2 M A^{-1} M,
    the verified orientation is Q <= P <= 2 Q (so in particular P >= Q/2):

        lower       = lambda_min(P - Q/2)
        upper       = lambda_min(2 Q - P)
        upper_no_factor = lambda_min(Q - P): the margin the sandwich would
                      need without the factor 2; negative in general (the
                      commuting case A = M, alpha = 1 gives -2 lambda_min(A)/2),
                      recorded to document why the factor is required
    """

    lower: float
    upper: float
    upper_no_factor: float


def check_spectral_inequality(A: np.ndarray, M: np.ndarray, alpha: float) -> SpectralMargins:
    A = np.asarray(A, dtype=float)
    M = np.asarray(M, dtype=float)
    if A.shape[0] > 64:
        raise InvalidSpaceError("dense spectral check is meant for small matrices")
    Ainv = np.linalg.inv(A)
    P = (A + alpha * M) @ Ainv @ (A + alpha * M)
    Q = A + alpha**2 * (M @ Ainv @ M)
    P = 0.5 * (P + P.T)
    Q = 0.5 * (Q + Q.T)
    lower = float(sla.eigvalsh(P - 0.5 * Q)[0])
    upper = float(sla.eigvalsh(2.0 * Q - P)[0])
    upper_no_factor = float(sla.eigvalsh(Q - P)[0])
    return SpectralMargins(lower=lower, upper=upper, upper_no_factor=upper_no_factor)


def _check_mode_blocks(dim_t: int, dim_x: int) -> None:
    check_dense_size("kappa mode blocks", (2, dim_x, dim_t, dim_t))


def mode_kappa(op: RXOperator, apply_P) -> float:
    """Exact condition number lambda_max / lambda_min of P R, for R the
    operator `op` and P, applied by `apply_P`, the wavelet preconditioner
    or any other operator of the same spatial-mode structure.

    With A_x V = M_x V Lambda and V^T M_x V = I (`RieszContext.modes.V`),
    A_x = M_x V Lambda V^T M_x and S = M_x V Lambda^{-1} V^T M_x, and each
    block of the preconditioner is (A_x + alpha M_x)^{-1} A_x
    (A_x + alpha M_x)^{-1} = V diag(lambda / (lambda + alpha)^2) V^T.  So
    on coefficients held as (dim_t, dim_x) arrays, column k of

        R(Y V^T) V           is R_k Y e_k,  R_k = lambda_k M_t + (M_t + A_t) / lambda_k,
        P(Y (M_x V)^T) M_x V is P_k Y e_k,  P_k = T diag(lambda_k / (lambda_k + alpha_j)^2) T^T:

    both operators are block diagonal in the spatial modes, and spec(P R)
    is the union of the spec(P_k R_k).  Y = e_j 1^T, one application of
    each operator per temporal dof j, gives column j of every R_k and every
    P_k.  With P_k = L L^T, P_k R_k is similar to L^T R_k L, so kappa comes
    from dim_x symmetric eigenproblems of size dim_t.  The blocks are
    refused above MAX_DENSE_BYTES.
    """
    p = op.pair
    _check_mode_blocks(p.dim_t_X, p.dim_x)
    V = op.ctx.modes.V
    MV = p.M_x @ V
    R = np.empty((p.dim_x, p.dim_t_X, p.dim_t_X))
    P = np.empty_like(R)
    V_1, MV_1 = V.sum(axis=1), MV.sum(axis=1)
    X = np.zeros((p.dim_t_X, p.dim_x))
    for j in range(p.dim_t_X):
        X[j] = V_1
        R[:, :, j] = (op.apply(X.reshape(-1)).reshape(X.shape) @ V).T
        X[j] = MV_1
        P[:, :, j] = (apply_P(X.reshape(-1)).reshape(X.shape) @ MV).T
        X[j] = 0.0
    lo, hi = math.inf, 0.0
    for R_k, P_k in zip(R, P):
        L = np.linalg.cholesky(P_k)
        ev = sla.eigvalsh(L.T @ R_k @ L)
        lo, hi = min(lo, ev[0]), max(hi, ev[-1])
    return float(hi / lo)


def kappa_study(levels: int, n_x: int = 8, T: float = 1.0) -> list[tuple[int, int, float]]:
    """Exact condition numbers of the preconditioned trial Gram per dyadic
    level (`mode_kappa`), on 2, 4, ..., 2^levels temporal elements, with the
    default vanishing-moment wavelets.

    The mode blocks of the finest level are sized before the first level
    is computed, so a study too large for MAX_DENSE_BYTES is refused at
    once: at n_x = 8 the ceiling is level 11.
    """
    _check_mode_blocks(2**levels + 1, n_x - 1)  # dim_t_X and dim_x of the finest pair
    out = []
    for level in range(1, levels + 1):
        pair = default_pair(2**level, n_x, T=T)
        op = RXOperator(pair)
        prec = BlockDiagPrecond(build_time_wavelets(pair.mesh_t_X), pair)
        out.append((level, op.dim, mode_kappa(op, prec.apply)))
    return out
