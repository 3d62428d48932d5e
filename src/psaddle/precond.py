"""Kronecker-structured optimal preconditioner for the trial-space Riesz map,
and the exact condition number it attains.

In the tensor setting the Gram matrix of the alternative trial norm is

    R = M_t (x) A_x + (M_t + A_t) (x) M_x A_x^{-1} M_x.

Transforming the temporal axis to a wavelet basis that is stable in both
the L2 and H1 norms turns the temporal factors diagonal up to spectral
equivalence, leaving one diffusion-reaction block A_x + alpha_psi^2
M_x A_x^{-1} M_x per wavelet.  Each block is in turn spectrally equivalent
to (A_x + alpha M_x) A_x^{-1} (A_x + alpha M_x), so the preconditioner is

    P = (T (x) I) blockdiag[(A_x + alpha_j M_x)^{-1} A_x (A_x + alpha_j M_x)^{-1}] (T^T (x) I).

`kappa_study` reports the condition number of P R per dyadic level in
closed form (`mode_kappa`); neither operator is formed or applied.  With
A_x V = M_x V Lambda and V^T M_x V = I (the spatial modes of fast
diagonalization, Lynch, Rice and Thomas, Numer. Math. 6, 1964),
A_x = M_x V Lambda V^T M_x, M_x A_x^{-1} M_x = M_x V Lambda^{-1} V^T M_x and
(A_x + alpha M_x)^{-1} A_x (A_x + alpha M_x)^{-1} = V diag(lambda /
(lambda + alpha)^2) V^T.  With u_k = M_x v_k, so that v_k^T u_l = delta_kl,

    R = sum_k R_k (x) u_k u_k^T,  R_k = lambda_k M_t + (M_t + A_t) / lambda_k,
    P = sum_k P_k (x) v_k v_k^T,  P_k = T F_k T^T,  F_k = diag(lambda_k / (lambda_k + alpha_j)^2),

and P R = sum_k P_k R_k (x) v_k u_k^T, whose factors v_k u_k^T are
complementary projections (V V^T M_x = I): spec(P R) is the union of the
spec(P_k R_k).  With S_k = T F_k^{1/2}, P_k R_k = S_k B_k S_k^{-1} for the
symmetric

    B_k = F_k^{1/2} T^T R_k T F_k^{1/2} = D_k (lambda_k^2 G_M + G_MA) D_k,

D_k = diag(1 / (lambda_k + alpha_j)), G_M = T^T M_t T and
G_MA = T^T (M_t + A_t) T the wavelet Grams.  So kappa takes the spatial
eigenvalues lambda_k, the two Grams, formed once per level with T held as
CSR (each wavelet has local support: 2.6% nonzero at 1025 temporal dofs),
and one symmetric eigenproblem of the temporal size per spatial mode.  On
a tensor-product spatial domain the spatial modes are products of 1D
modes and lambda_k becomes their sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from psaddle.core_linalg import check_dense_size
from psaddle.errors import InvalidSpaceError
from psaddle.spaces import (
    CONT_P1,
    Mesh1D,
    TensorSpacePair,
    assemble_1d,
    default_pair,
)

__all__ = [
    "TimeWaveletBasis",
    "SpectralMargins",
    "build_time_wavelets",
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

    Columns of T, a CSR matrix, hold the L2-normalized wavelet functions in
    fine nodal coordinates, ordered level-major: the two coarsest scaling
    functions, then detail functions per level.  alphas[j] is the H1(J)
    norm of column j, so the diagonal of the wavelet mass matrix is the
    identity and the diagonal of mass + stiffness is alphas^2.
    """

    T: sp.csr_matrix
    alphas: np.ndarray


def build_time_wavelets(mesh: Mesh1D, variant: str = "vanishing-moment") -> TimeWaveletBasis:
    """Hierarchical piecewise-linear wavelets on a uniform dyadic mesh.

    variant "hierarchical": details are plain fine hats at the new nodes.
    variant "vanishing-moment" (default): each detail additionally subtracts
    the two parent hats with weights that cancel its mean (1/4 interior,
    1/2 at a boundary parent), which is what keeps the basis L2-stable
    across levels.

    Each column is evaluated only on the fine nodes of its parents'
    supports, off which all its hats vanish, so T is built as CSR: O(n J)
    entries for n elements, J levels.
    """
    if variant not in ("hierarchical", "vanishing-moment"):
        raise InvalidSpaceError(f"unknown wavelet variant {variant!r}")
    J = _dyadic_level(mesh)
    length = mesh.end - mesh.start
    fine = mesh.points - mesh.start
    n = mesh.n_elements

    cols = [(np.arange(n + 1), _hat_values(0, node, fine, length)) for node in (0, 1)]
    for level in range(1, J + 1):
        n_coarse, s = 2 ** (level - 1), 2 ** (J - level + 1)
        for k in range(n_coarse):
            # the fine nodes of the parents' supports, off which all three hats vanish
            idx = np.arange(max((k - 1) * s, 0), min((k + 2) * s, n) + 1)
            psi = _hat_values(level, 2 * k + 1, fine[idx], length)
            if variant == "vanishing-moment":
                w_left = 0.5 if k == 0 else 0.25
                w_right = 0.5 if k + 1 == n_coarse else 0.25
                psi = psi - w_left * _hat_values(level - 1, k, fine[idx], length)
                psi = psi - w_right * _hat_values(level - 1, k + 1, fine[idx], length)
            cols.append((idx, psi))
    rows, vals = map(np.concatenate, zip(*cols))
    col = np.repeat(np.arange(n + 1), [idx.size for idx, _ in cols])
    T = sp.csr_matrix((vals, (rows, col)), shape=(n + 1, n + 1))
    T.eliminate_zeros()

    M_t = assemble_1d("mass", (mesh, CONT_P1))
    A_t = assemble_1d("stiffness", (mesh, CONT_P1))
    T.data /= np.sqrt(np.asarray(T.multiply(M_t @ T).sum(axis=0)).ravel())[T.indices]
    h1 = np.sqrt(1.0 + np.asarray(T.multiply(A_t @ T).sum(axis=0)).ravel())
    return TimeWaveletBasis(T=T, alphas=h1)


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


def _check_temporal_arrays(dim_t: int) -> None:
    # the most held at once: the two wavelet Grams, one mode block and the
    # eigensolver's Fortran-ordered copy of it
    check_dense_size("kappa temporal arrays", (4, dim_t, dim_t))


def _wavelet_grams(pair: TensorSpacePair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """alphas and the Grams G_M = T^T M_t T and G_MA = T^T (M_t + A_t) T of
    the default `build_time_wavelets` basis of the temporal trial mesh."""
    basis = build_time_wavelets(pair.mesh_t_X)
    T = basis.T
    G_M = (T.T @ pair.M_t_X @ T).toarray()
    G_MA = (T.T @ (pair.M_t_X + pair.A_t_X) @ T).toarray()
    return basis.alphas, G_M, G_MA


def mode_kappa(pair: TensorSpacePair, lam: np.ndarray) -> float:
    """Exact condition number lambda_max / lambda_min of P R on `pair`, for
    R the Gram of the alternative trial norm and P the preconditioner on
    the default wavelet basis of its temporal trial mesh; `lam` holds the
    eigenvalues of its spatial pencil (A_x, M_x).

    spec(P R) is the union over the spatial modes k of the spectra of the
    symmetric blocks B_k of the module docstring.  The dense temporal
    arrays are refused above MAX_DENSE_BYTES.
    """
    _check_temporal_arrays(pair.dim_t_X)
    alphas, G_M, G_MA = _wavelet_grams(pair)
    lo, hi = math.inf, 0.0
    for lam_k in lam:
        d = 1.0 / (lam_k + alphas)
        B = lam_k**2 * G_M
        B += G_MA
        B *= d
        B *= d[:, None]
        ev = sla.eigvalsh(B, overwrite_a=True, check_finite=False)
        lo, hi = min(lo, ev[0]), max(hi, ev[-1])
    return float(hi / lo)


def kappa_study(levels: int, n_x: int = 8, T: float = 1.0) -> list[tuple[int, int, float]]:
    """Exact condition numbers of the preconditioned trial Gram per dyadic
    level (`mode_kappa`), on 2, 4, ..., 2^levels temporal elements and n_x
    spatial ones, with the default vanishing-moment wavelets.

    Every level shares the spatial mesh, so the spatial eigenvalues are
    computed once.  The temporal arrays of the finest level are sized
    before the first level is computed, so a study too large for
    MAX_DENSE_BYTES is refused at once: the ceiling is level 12, whatever
    n_x.
    """
    _check_temporal_arrays(2**levels + 1)  # dim_t_X of the finest pair
    x_pair = default_pair(1, n_x, T=T)
    lam = sla.eigvalsh(x_pair.A_x.toarray(), x_pair.M_x.toarray())
    out = []
    for level in range(1, levels + 1):
        pair = default_pair(2**level, n_x, T=T)
        out.append((level, pair.dim_X, mode_kappa(pair, lam)))
    return out
