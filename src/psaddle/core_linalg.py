"""One SPD factorization, one conjugate-gradient loop, and the spectral
tools.

Matrices are scipy CSR throughout (compressed-row storage with unique,
sorted indices).  Every SPD matrix is factored by one path, a banded
Cholesky in reverse Cuthill-McKee order (`banded_cholesky`, or its symbolic
and numeric steps `banded_pattern` and `BandedPattern.factor`), with one
symmetry check and one NotSpdError for a matrix that is not symmetric
positive definite.  The symbolic step gives every stored entry, in int32,
its band slot and the band slot of its transpose; the numeric step fills
one band through each and reads the symmetry check off their difference,
so no step builds an int64 index array or a float temporary larger than
the band.  At desk scale every SPD system here is banded once reordered,
so direct solves are exact up to round-off and remove inner-solver
tolerances from every downstream check.  Operators that are only
available matrix-free are solved by preconditioned conjugate gradients
(`pcg`) under a proven iteration cap (`cg_iteration_cap`).  The smallest
generalized eigenvalue of a pencil comes from one dense reduced pencil,
under the same size guard as every other dense array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from psaddle.errors import DimensionMismatchError, NotConvergedError, NotSpdError, PsaddleError

__all__ = [
    "MAX_DENSE_BYTES",
    "check_dense_size",
    "BandedCholesky",
    "BandedPattern",
    "banded_pattern",
    "banded_cholesky",
    "cg_iteration_cap",
    "pcg",
    "smallest_generalized_eigenvalue",
]


# Largest dense float64 array any code path may allocate.  The dense paths
# scale with a power of the mesh size; refusing them here turns an
# out-of-memory kill into an error that names the array.
MAX_DENSE_BYTES = 1 << 30


def check_dense_size(name: str, shape: tuple[int, ...]) -> None:
    """Raise before a dense float64 array of `shape` above MAX_DENSE_BYTES is built."""
    nbytes = 8 * math.prod(shape)
    if nbytes > MAX_DENSE_BYTES:
        raise PsaddleError(
            f"dense array {name} of shape {tuple(shape)} would take {nbytes} bytes "
            f"({nbytes / 2**30:.2f} GiB), above the {MAX_DENSE_BYTES}-byte limit"
        )


def as_csr(matrix) -> sp.csr_matrix:
    """Canonical CSR with summed duplicates and sorted indices."""
    m = sp.csr_matrix(matrix)
    m.sum_duplicates()
    m.sort_indices()
    return m


# Largest asymmetry |A - A^T| an SPD factorization accepts, relative to max |A|.
_SYMMETRY_RTOL = 1e-10


@dataclass(frozen=True)
class BandedCholesky:
    """Cholesky factor of a sparse SPD matrix in a bandwidth-reducing order.

    `perm` is the reverse Cuthill-McKee order, so A[perm][:, perm] = U^T U
    with U upper triangular and `bandwidth` superdiagonals, stored in
    LAPACK's upper band layout.
    """

    perm: np.ndarray
    _cb: np.ndarray = field(repr=False)

    @property
    def bandwidth(self) -> int:
        return self._cb.shape[0] - 1

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^{-1} b for a vector or a (n, k) block of right-hand sides."""
        b = np.asarray(b, dtype=float)
        x = np.empty_like(b)
        x[self.perm], info = dpbtrs(self._cb, b[self.perm], lower=0, overwrite_b=1)
        if info != 0:
            raise PsaddleError(f"banded Cholesky solve failed: LAPACK dpbtrs info {info}")
        return x


@dataclass(frozen=True)
class BandedPattern:
    """Symbolic step of `banded_cholesky` for one CSR sparsity pattern.

    Holds what depends on the pattern alone: the reverse Cuthill-McKee
    order `perm`; the `bandwidth`, the largest distance of a stored entry
    from the diagonal of the reordered matrix on either side; and two
    flat positions per stored entry in the (bandwidth + 1, n) upper band,
    stored in LAPACK's column-major order.  `band_index` is the entry's
    own slot, `mirror_index` the slot of its transpose; an entry below the
    diagonal has no slot of its own and one above has no transposed slot,
    and both go to the one dump slot past the band.  `factor` is the
    numeric step.
    """

    indptr: np.ndarray
    indices: np.ndarray
    perm: np.ndarray
    bandwidth: int
    band_index: np.ndarray = field(repr=False)
    mirror_index: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.indptr.size - 1

    def factor(self, matrix: sp.csr_matrix) -> BandedCholesky:
        """Numeric step: fill the band with the data of a CSR matrix on this
        pattern and factor it.  Raises NotSpdError if the data is not
        symmetric or the matrix is not positive definite.

        The symmetry check fills a second band with every entry on or below
        the diagonal at the slot of its transpose: slot by slot the two
        bands hold a_ij and a_ji, or an implicit zero where one of them is
        not stored, so max |A - A^T| is read off their difference."""
        same = (
            matrix.shape == (self.dim, self.dim)
            and (matrix.indices is self.indices or np.array_equal(matrix.indices, self.indices))
            and (matrix.indptr is self.indptr or np.array_equal(matrix.indptr, self.indptr))
        )
        if not same:
            raise DimensionMismatchError("matrix is not on the pattern of this factorization")
        data = matrix.data
        size = (self.bandwidth + 1) * self.dim
        band = np.zeros(size + 1)
        band[self.band_index] = data
        mirror = np.zeros(size + 1)
        mirror[self.mirror_index] = data
        mirror = mirror[:size]
        np.subtract(mirror, band[:size], out=mirror)
        asym = float(np.abs(mirror, out=mirror).max(initial=0.0))
        scale = max(data.max(initial=0.0), -data.min(initial=0.0)) or 1.0  # max |a_k|
        if asym > _SYMMETRY_RTOL * scale:
            raise NotSpdError(
                f"matrix is not symmetric: max asymmetry {asym:.3e} (scale {scale:.3e})"
            )
        try:
            cb = sla.cholesky_banded(
                band[:size].reshape(self.bandwidth + 1, self.dim, order="F"),
                overwrite_ab=True, lower=False, check_finite=False,
            )
        except np.linalg.LinAlgError as exc:
            raise NotSpdError(f"matrix is not positive definite: {exc}") from exc
        return BandedCholesky(perm=self.perm, _cb=cb)


def banded_pattern(matrix: sp.csr_matrix) -> BandedPattern:
    """Symbolic step of `banded_cholesky` for the pattern of a canonical
    (sorted, duplicate-free) square CSR matrix; refuses a band array above
    MAX_DENSE_BYTES before the band positions are built.  The index work
    is int32."""
    if matrix.shape[0] != matrix.shape[1]:
        raise NotSpdError(f"matrix is not square: {matrix.shape}")
    n = matrix.shape[0]
    indptr, indices = matrix.indptr, matrix.indices
    perm = reverse_cuthill_mckee(matrix, symmetric_mode=True)
    position = np.empty(n, dtype=np.int32)
    position[perm] = np.arange(n, dtype=np.int32)
    # c and r, the entries' column and row in the reordered matrix
    band_index = position[indices]
    mirror_index = np.repeat(position, np.diff(indptr))
    offset = band_index - mirror_index  # c - r
    bandwidth = max(int(offset.max(initial=0)), -int(offset.min(initial=0)))
    check_dense_size("banded Cholesky band", (bandwidth + 1, n))
    # entry (i, j), i <= j, sits at (bandwidth + 1) j + bandwidth - (j - i);
    # the size check keeps every band position below 2^27
    band_index *= bandwidth + 1
    band_index += bandwidth
    band_index -= offset
    band_index[offset < 0] = (bandwidth + 1) * n
    mirror_index *= bandwidth + 1
    mirror_index += bandwidth
    mirror_index += offset
    mirror_index[offset > 0] = (bandwidth + 1) * n
    return BandedPattern(
        indptr=indptr, indices=indices, perm=perm, bandwidth=bandwidth,
        band_index=band_index, mirror_index=mirror_index,
    )


def banded_cholesky(matrix) -> BandedCholesky:
    """Factor a sparse symmetric positive definite matrix for repeated solves.

    The rows and columns are reordered by reverse Cuthill-McKee and the
    reordered matrix is factored as a dense band.  Matrices that are
    block-diagonal with narrow blocks, like every Jacobian on a test space
    discontinuous in time, get a band a few entries wide whatever their
    size.  Raises NotSpdError if the matrix is not symmetric positive
    definite, and refuses a band array above MAX_DENSE_BYTES.  Runs both
    steps; a caller with many matrices on one pattern keeps its
    `banded_pattern` and calls `factor` alone.
    """
    m = as_csr(matrix)
    return banded_pattern(m).factor(m)


def cg_iteration_cap(kappa: float, rtol: float) -> int:
    """Iterations after which `pcg` meets its stop rule, for an operator A
    and preconditioner P with c P <= A <= C P in the Loewner order and
    kappa = C / c.

    CG bounds the error in the A norm, ||e_k|| <= 2 rho^k ||e_0|| with
    rho = (sqrt(kappa) - 1) / (sqrt(kappa) + 1).  The stop reads the
    residual in the P^{-1} norm, ||r_k||^2 = e_k^T A P^{-1} A e_k, which
    lies between c and C times ||e_k||^2; so ||r_k|| / ||r_0|| <=
    2 sqrt(kappa) rho^k, and ||r_k|| <= rtol ||r_0|| holds after

        ceil(ln(2 sqrt(kappa) / rtol) / ln(1 / rho))

    iterations: 23 for kappa = 4 and rtol = 1e-10.  For kappa = 1, rho = 0
    and the first iteration is exact in exact arithmetic; the cap is never
    below 2, because an A and P that agree in exact arithmetic agree only
    up to round-off, which also puts kappa a little above or below 1.
    """
    root = math.sqrt(kappa)
    if root <= 1.0:
        return 2
    iterations = math.log(2.0 * root / rtol) / math.log((root + 1.0) / (root - 1.0))
    return max(2, math.ceil(iterations))


def pcg(apply_A, apply_Pinv, b: np.ndarray, rtol: float, max_iter: int) -> tuple[np.ndarray, int]:
    """x with A x = b by conjugate gradients preconditioned with P^{-1}.

    Both operators are applied matrix-free and must be SPD.  Starts from
    x = 0 and stops when the residual's P^{-1} norm falls to rtol times its
    start, or at once on a start of zero; returns x with the iteration
    count.  Raises NotConvergedError, with the last iterate as `best`,
    after max_iter iterations, or on a non-positive curvature p^T A p,
    which means A is not positive definite.
    """
    x = np.zeros_like(b, dtype=float)
    res = np.array(b, dtype=float)
    prec = apply_Pinv(res)
    rz = float(res @ prec)
    stop = rtol**2 * rz
    if rz <= 0.0:
        return x, 0
    p = prec
    for it in range(1, max_iter + 1):
        q = apply_A(p)
        curvature = float(p @ q)
        if curvature <= 0.0:
            raise NotConvergedError("pcg met non-positive curvature", best=x)
        alpha = rz / curvature
        x += alpha * p
        res -= alpha * q
        prec = apply_Pinv(res)
        rz_new = float(res @ prec)
        if rz_new <= stop:
            return x, it
        p = prec + (rz_new / rz) * p
        rz = rz_new
    raise NotConvergedError(
        f"pcg hit its proven cap of {max_iter} iterations", best=x, iterations=max_iter,
    )


def _complement_basis(kernel: np.ndarray | None, dim: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the columns of an
    (dim, k) `kernel`, which must be linearly independent: the last
    dim - k columns of its complete QR factor.  The identity for None."""
    if kernel is None:
        return np.eye(dim)
    q, _ = np.linalg.qr(kernel, mode="complete")
    return q[:, kernel.shape[1]:]


def smallest_generalized_eigenvalue(A, B, constraint_kernel: np.ndarray | None = None) -> float:
    """Smallest eigenvalue of A x = lam B x, optionally deflating a known kernel.

    A must be symmetric (positive semi-definite on the admissible subspace),
    B symmetric positive definite there.  The columns of `constraint_kernel`
    span the subspace to remove before the smallest value is sought (e.g.
    the time-constant functions for the temporal inf-sup factor).

    The pencil is reduced to the orthogonal complement of the kernel and
    solved densely; a pencil whose dense (n, n) array would exceed
    MAX_DENSE_BYTES is refused before anything is allocated.
    """
    A = sp.csr_matrix(A)
    B = sp.csr_matrix(B)
    n = A.shape[0]
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"pencil shapes {A.shape} vs {B.shape}")
    check_dense_size("generalized eigen pencil", (n, n))
    Q = _complement_basis(constraint_kernel, n)
    Ared = Q.T @ (A @ Q)
    Bred = Q.T @ (B @ Q)
    Ared = 0.5 * (Ared + Ared.T)
    Bred = 0.5 * (Bred + Bred.T)
    vals, _ = sla.eigh(Ared, Bred)
    return float(vals[0])
