"""Input builders shared by several test modules, the sparse-product
oracles that the element-block assembly of `psaddle.spaces` is checked
against, and the dense quadrature matrices and the dense-built Jacobian
map that the element tables of `psaddle.spaces.ElementTable` and
`psaddle.monotone.GalerkinOperator` are checked against."""

import numpy as np
import scipy.sparse as sp

from psaddle.core_linalg import as_csr
from psaddle.errors import InvalidSpaceError
from psaddle.spaces import (
    ASSEMBLY_QUAD_POINTS,
    BasisSpec,
    Mesh1D,
    _integration_mesh,
    element_dofs,
    gauss_points,
    gauss_rule,
    reference_derivatives,
    reference_values,
)


def random_spd(rng, n, shift=None):
    """Q Q^T + shift I with Q standard normal; shift defaults to n."""
    Q = rng.standard_normal((n, n))
    return Q @ Q.T + (shift if shift is not None else n) * np.eye(n)


def jittered_mesh(n, rng):
    """n elements on [0, 1], each interior node moved by up to a fifth of
    the element size."""
    pts = np.linspace(0.0, 1.0, n + 1)
    pts[1:-1] += rng.uniform(-0.2, 0.2, n - 1) / n
    return Mesh1D(tuple(pts))


def eval_basis_at_points(
    mesh: Mesh1D, spec: BasisSpec, pts: np.ndarray, derivative: bool = False
) -> sp.csr_matrix:
    """Sparse (n_pts, dim) matrix of basis (or derivative) values.

    Points must lie in the closed interval; points on interior breakpoints
    are attributed to the element on their right, which is only sound for
    values of continuous functions or for strictly interior points.
    """
    pts = np.asarray(pts, dtype=float)
    breaks = mesh.points
    elem = np.clip(np.searchsorted(breaks, pts, side="right") - 1, 0, mesh.n_elements - 1)
    h = mesh.lengths[elem]
    xi = (pts - breaks[elem]) / h
    dofs = element_dofs(mesh, spec)[elem]  # (n_pts, n_local)
    if derivative:
        vals = reference_derivatives(spec)[None, :] / h[:, None]
    else:
        vals = reference_values(spec, xi).T
    rows = np.repeat(np.arange(pts.size), spec.n_local)
    cols = dofs.reshape(-1)
    data = np.broadcast_to(vals, (pts.size, spec.n_local)).reshape(-1)
    keep = cols >= 0
    return sp.csr_matrix(
        (data[keep], (rows[keep], cols[keep])), shape=(pts.size, spec.dim(mesh))
    )


def assemble_1d_oracle(kind, test, trial=None):
    """`spaces.assemble_1d` as the sparse product (V w)^T U of the basis
    values at the Gauss points of the finer mesh."""
    if trial is None:
        trial = test
    (mesh_v, spec_v), (mesh_u, spec_u) = test, trial
    pts, w = gauss_points(_integration_mesh(mesh_v, mesh_u), ASSEMBLY_QUAD_POINTS)
    V = eval_basis_at_points(mesh_v, spec_v, pts, derivative=kind == "stiffness")
    U = eval_basis_at_points(mesh_u, spec_u, pts, derivative=kind in ("stiffness", "dtrial"))
    return as_csr(V.multiply(w[:, None]).T @ U)


def embedding_oracle(source, target):
    """`spaces.embedding_matrix` built through COO, with its containment
    check as sparse products: the residual phi - Psi E at every Gauss
    point of the finer mesh, squared and integrated per column."""
    (mesh_s, spec_s), (mesh_t, spec_t) = source, target
    left, right = mesh_t.points[:-1], mesh_t.points[1:]
    mid = 0.5 * (left + right)
    elem = np.clip(np.searchsorted(mesh_s.points, mid, side="right") - 1, 0, mesh_s.n_elements - 1)
    nodes = np.stack([mid] if spec_t.family == "discontinuous-p0" else [left, right])
    n_local = spec_s.n_local
    slot_dofs = element_dofs(mesh_t, spec_t).T.reshape(-1)
    xi = (nodes - mesh_s.points[elem]) / mesh_s.lengths[elem]
    vals = reference_values(spec_s, xi.reshape(-1)).T.reshape(-1)
    cols = np.tile(element_dofs(mesh_s, spec_s)[elem], (len(nodes), 1)).reshape(-1)
    first = np.zeros(slot_dofs.size, dtype=bool)
    first[np.unique(slot_dofs, return_index=True)[1]] = True
    rows = np.repeat(slot_dofs, n_local)
    keep = np.repeat(first & (slot_dofs >= 0), n_local) & (cols >= 0) & (vals != 0.0)
    E = sp.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])),
        shape=(spec_t.dim(mesh_t), spec_s.dim(mesh_s)),
    )
    pts, w = gauss_points(_integration_mesh(mesh_t, mesh_s), ASSEMBLY_QUAD_POINTS)
    phi = eval_basis_at_points(mesh_s, spec_s, pts)
    residual = phi - eval_basis_at_points(mesh_t, spec_t, pts) @ E
    norm2 = phi.multiply(phi).T @ w
    res2 = residual.multiply(residual).T @ w
    bad = np.flatnonzero(res2 > 1e-12 * np.maximum(norm2, 1e-30))
    if bad.size:
        raise InvalidSpaceError(f"source basis function {bad[0]} is not contained in the target")
    return E


def quadrature_matrix(mesh: Mesh1D, spec: BasisSpec, n_quad: int, derivative: bool = False):
    """Dense (n_elements * n_quad, dim) basis (or derivative) values at the
    points of `gauss_points(mesh, n_quad)`, one element at a time: the
    points are all interior, so row q of element e holds the local
    functions of e at its reference Gauss point q, placed at the element's
    dofs."""
    n, dim = mesh.n_elements, spec.dim(mesh)
    if derivative:
        vals = reference_derivatives(spec)[None, None, :] / mesh.lengths[:, None, None]
    else:
        vals = reference_values(spec, gauss_rule(n_quad).points).T[None, :, :]
    # column `dim` absorbs the dropped boundary dofs, which are numbered -1
    out = np.zeros((n, n_quad, dim + 1))
    dofs = element_dofs(mesh, spec)
    out[np.arange(n)[:, None, None], np.arange(n_quad)[None, :, None], dofs[:, None, :]] = vals
    return out[:, :, :dim].reshape(n * n_quad, dim)


def jacobian_map_oracle(E_t, Dbar_x, dim):
    """`GalerkinOperator._jacobian_map` from the dense quadrature matrices
    E_t (n_tq, dim_t) and Dbar_x (n_el, dim_x): the column pairs that share
    a row, found from the dense product nz^T nz, and the CSR positions of
    the product entries from a COO -> CSR sort."""

    def pairs(Q):
        """Column pairs that share a row of Q, and their row-wise products."""
        nz = (Q != 0).astype(float)
        first, second = np.nonzero(nz.T @ nz)
        products = sp.csr_matrix((Q[:, first] * Q[:, second]).T)
        return first.astype(np.int32), second.astype(np.int32), products

    a, b, P_t = pairs(E_t)
    i, j, St_x = pairs(Dbar_x)
    dim_x = Dbar_x.shape[1]
    rows = (a[None, :] * dim_x + i[:, None]).ravel()
    cols = (b[None, :] * dim_x + j[:, None]).ravel()
    # the COO data carry each entry's index in the product, so the sorted
    # CSR data are the inverse of the CSR positions
    order = sp.coo_matrix(
        (np.arange(rows.size, dtype=np.int32), (rows, cols)), shape=(dim, dim)
    ).tocsr()
    position = np.empty_like(order.data)
    position[order.data] = np.arange(position.size, dtype=np.int32)
    return P_t, St_x, position.reshape(St_x.shape[0], -1), order.indptr, order.indices
