"""Meshes, piecewise-polynomial bases, 1D assembly, and the tensor pair.

The discrete setting is a tensor product of a temporal axis on (0, T) and a
spatial axis on (0, 1).  Trial functions live in X = X_t (x) X_x with X_t
continuous piecewise linear and X_x continuous piecewise linear with zero
Dirichlet boundary values; test functions live in Y = Y_t (x) X_x where Y_t
may be discontinuous.  Coefficients are stored time-major:
index = t_dof * dim_x + x_dof.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from psaddle.core_linalg import as_csr, check_dense_size
from psaddle.errors import InvalidSpaceError

FAMILIES = ("continuous-p1", "discontinuous-p0", "discontinuous-p1")
BOUNDARIES = ("none", "zero-dirichlet")


@dataclass(frozen=True)
class Mesh1D:
    """Finite, strictly increasing breakpoints covering an interval."""

    breakpoints: tuple[float, ...]

    def __post_init__(self):
        b = np.asarray(self.breakpoints, dtype=float)
        if b.size < 2:
            raise InvalidSpaceError("mesh needs at least 2 breakpoints")
        if not np.all(np.isfinite(b)):
            raise InvalidSpaceError("breakpoints must be finite")
        if np.any(np.diff(b) <= 0):
            raise InvalidSpaceError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", tuple(float(x) for x in b))

    @staticmethod
    def uniform(n_elements: int, length: float = 1.0) -> "Mesh1D":
        if n_elements < 1:
            raise InvalidSpaceError("need at least one element")
        return Mesh1D(tuple(np.linspace(0.0, length, n_elements + 1)))

    @property
    def points(self) -> np.ndarray:
        return np.asarray(self.breakpoints)

    @property
    def n_elements(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.points)

    @property
    def start(self) -> float:
        return self.breakpoints[0]

    @property
    def end(self) -> float:
        return self.breakpoints[-1]


def uniform_refine(mesh: Mesh1D) -> Mesh1D:
    """Bisect every element; original breakpoints are kept (nestedness)."""
    pts = mesh.points
    mids = 0.5 * (pts[:-1] + pts[1:])
    out = np.empty(2 * len(pts) - 1)
    out[0::2] = pts
    out[1::2] = mids
    return Mesh1D(tuple(out))


def refine_times(mesh: Mesh1D, k: int) -> Mesh1D:
    for _ in range(k):
        mesh = uniform_refine(mesh)
    return mesh


@dataclass(frozen=True)
class BasisSpec:
    """Piecewise-polynomial family plus boundary treatment."""

    family: str
    boundary: str = "none"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSpaceError(f"unknown family {self.family!r}")
        if self.boundary not in BOUNDARIES:
            raise InvalidSpaceError(f"unknown boundary {self.boundary!r}")
        if self.boundary == "zero-dirichlet" and self.family != "continuous-p1":
            raise InvalidSpaceError("zero-dirichlet requires continuous-p1")

    def dim(self, mesh: Mesh1D) -> int:
        n = mesh.n_elements
        if self.family == "continuous-p1":
            return n - 1 if self.boundary == "zero-dirichlet" else n + 1
        if self.family == "discontinuous-p0":
            return n
        return 2 * n  # discontinuous-p1

    @property
    def n_local(self) -> int:
        return 1 if self.family == "discontinuous-p0" else 2


CONT_P1 = BasisSpec("continuous-p1", "none")
CONT_P1_DIRICHLET = BasisSpec("continuous-p1", "zero-dirichlet")
DISC_P0 = BasisSpec("discontinuous-p0", "none")
DISC_P1 = BasisSpec("discontinuous-p1", "none")


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre points/weights on the reference element [0, 1]."""

    points: tuple[float, ...]
    weights: tuple[float, ...]
    order: int  # exact for polynomials up to this degree


@lru_cache(maxsize=None)
def gauss_rule(n_points: int) -> QuadratureRule:
    x, w = np.polynomial.legendre.leggauss(n_points)
    return QuadratureRule(
        points=tuple(0.5 * (x + 1.0)),
        weights=tuple(0.5 * w),
        order=2 * n_points - 1,
    )


def gauss_points(mesh: Mesh1D, n_quad: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss points and weights of every element, element-major (flat)."""
    rule = gauss_rule(n_quad)
    h = mesh.lengths
    pts = (mesh.points[:-1, None] + h[:, None] * np.asarray(rule.points)[None, :]).reshape(-1)
    w = (h[:, None] * np.asarray(rule.weights)[None, :]).reshape(-1)
    return pts, w


def element_dofs(mesh: Mesh1D, spec: BasisSpec) -> np.ndarray:
    """Global dof indices per element, -1 for dropped boundary dofs."""
    n = mesh.n_elements
    if spec.family == "continuous-p1":
        dofs = np.stack([np.arange(n), np.arange(1, n + 1)], axis=1)
        if spec.boundary == "zero-dirichlet":
            dofs = dofs - 1
            dofs[-1, 1] = -1
        return dofs
    if spec.family == "discontinuous-p0":
        return np.arange(n).reshape(n, 1)
    return np.stack([2 * np.arange(n), 2 * np.arange(n) + 1], axis=1)


def reference_values(spec: BasisSpec, xi: np.ndarray) -> np.ndarray:
    """Local basis values at reference coordinates, shape (n_local, n_xi)."""
    xi = np.asarray(xi, dtype=float)
    if spec.family == "discontinuous-p0":
        return np.ones((1, xi.size))
    return np.stack([1.0 - xi, xi])


def reference_derivatives(spec: BasisSpec) -> np.ndarray:
    """Reference derivative of each local function (constant for P0/P1)."""
    if spec.family == "discontinuous-p0":
        return np.array([0.0])
    return np.array([-1.0, 1.0])


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


def quadrature_matrix(
    mesh: Mesh1D, spec: BasisSpec, n_quad: int, derivative: bool = False
) -> np.ndarray:
    """Dense (n_elements * n_quad, dim) basis (or derivative) values at the
    points of `gauss_points(mesh, n_quad)`.

    Equal to `eval_basis_at_points(...).toarray()` at those points, which are
    all interior, but built directly from the element dofs.
    """
    n, dim = mesh.n_elements, spec.dim(mesh)
    check_dense_size(f"quadrature_matrix({spec.family}, {n} elements)", (n * n_quad, dim))
    if derivative:
        vals = reference_derivatives(spec)[None, None, :] / mesh.lengths[:, None, None]
    else:
        vals = reference_values(spec, gauss_rule(n_quad).points).T[None, :, :]
    # column `dim` absorbs the dropped boundary dofs, which are numbered -1
    out = np.zeros((n, n_quad, dim + 1))
    dofs = element_dofs(mesh, spec)
    out[np.arange(n)[:, None, None], np.arange(n_quad)[None, :, None], dofs[:, None, :]] = vals
    return out[:, :, :dim].reshape(n * n_quad, dim)


def _mesh_contains(fine: Mesh1D, coarse: Mesh1D, tol: float = 1e-12) -> bool:
    f = fine.points
    c = coarse.points
    idx = np.searchsorted(f, c)
    idx = np.clip(idx, 0, len(f) - 1)
    near = np.minimum(np.abs(f[idx] - c), np.abs(f[np.maximum(idx - 1, 0)] - c))
    return bool(np.all(near <= tol * max(abs(f[-1]), 1.0)))


def _integration_mesh(a: Mesh1D, b: Mesh1D) -> Mesh1D:
    if a.n_elements >= b.n_elements and _mesh_contains(a, b):
        return a
    if _mesh_contains(b, a):
        return b
    raise InvalidSpaceError("meshes are not nested; cannot integrate products exactly")


# Gauss points per element of `assemble_1d`: exact up to degree 5, which
# covers every product of two basis functions of degree at most 1.
ASSEMBLY_QUAD_POINTS = 3


def assemble_1d(
    kind: str,
    test: tuple[Mesh1D, BasisSpec],
    trial: tuple[Mesh1D, BasisSpec] | None = None,
) -> sp.csr_matrix:
    """Exact 1D matrices: entries integral of test_i op trial_j.

    kind:
      "mass"        test_i * trial_j
      "stiffness"   test_i' * trial_j'
      "dtrial"      test_i * trial_j'   (temporal derivative coupling)

    The product is integrated elementwise on the finer of the two meshes,
    which must be nested, with `ASSEMBLY_QUAD_POINTS` Gauss points, so the
    quadrature is exact.
    """
    if trial is None:
        trial = test
    mesh_t, spec_t = test
    mesh_u, spec_u = trial
    pts, w = gauss_points(_integration_mesh(mesh_t, mesh_u), ASSEMBLY_QUAD_POINTS)

    dt = kind == "stiffness"
    du = kind in ("stiffness", "dtrial")
    V = eval_basis_at_points(mesh_t, spec_t, pts, derivative=dt)
    U = eval_basis_at_points(mesh_u, spec_u, pts, derivative=du)
    M = (V.multiply(w[:, None])).T @ U
    return as_csr(M)


def embedding_matrix(
    source: tuple[Mesh1D, BasisSpec],
    target: tuple[Mesh1D, BasisSpec],
) -> sp.csr_matrix:
    """Coefficient map expressing each source basis function in the target,
    as CSR.

    Every target family is nodal: a coefficient is the function's value at
    the dof's node (its local node 0 or 1, or the midpoint for P0), taken
    from inside an element that owns the dof.  So column j holds source
    basis function j evaluated at the target nodes, each by the local
    formula of the source element that contains the midpoint of the target
    element; a source basis function has at most n_local nonzero values on
    a target element, two per column when both spaces share the mesh.
    When the source space is contained in the target this interpolant is
    the function itself and the per-column residual ||phi_j - E_j||^2, the
    squared L2 norm of phi_j minus its interpolant, vanishes.  Raises
    InvalidSpaceError for a column whose squared residual exceeds 1e-12
    times the squared norm of its basis function, and for meshes that do
    not nest.
    """
    (mesh_s, spec_s), (mesh_t, spec_t) = source, target
    left, right = mesh_t.points[:-1], mesh_t.points[1:]
    mid = 0.5 * (left + right)
    elem = np.clip(np.searchsorted(mesh_s.points, mid, side="right") - 1, 0, mesh_s.n_elements - 1)
    nodes = np.stack([mid] if spec_t.family == "discontinuous-p0" else [left, right])
    n_local = spec_s.n_local
    # one slot per target element and local node: its target dof and the
    # values there of the local functions of the source element
    slot_dofs = element_dofs(mesh_t, spec_t).T.reshape(-1)
    xi = (nodes - mesh_s.points[elem]) / mesh_s.lengths[elem]
    vals = reference_values(spec_s, xi.reshape(-1)).T.reshape(-1)
    cols = np.tile(element_dofs(mesh_s, spec_s)[elem], (len(nodes), 1)).reshape(-1)
    # a node that elements share is read from its first slot only
    first = np.zeros(slot_dofs.size, dtype=bool)
    first[np.unique(slot_dofs, return_index=True)[1]] = True
    rows = np.repeat(slot_dofs, n_local)
    keep = np.repeat(first & (slot_dofs >= 0), n_local) & (cols >= 0) & (vals != 0.0)
    E = sp.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])),
        shape=(spec_t.dim(mesh_t), spec_s.dim(mesh_s)),
    )
    # ||phi_j||^2 and ||phi_j - E_j||^2 by the exact quadrature of `assemble_1d`
    pts, w = gauss_points(_integration_mesh(mesh_t, mesh_s), ASSEMBLY_QUAD_POINTS)
    phi = eval_basis_at_points(mesh_s, spec_s, pts)
    residual = phi - eval_basis_at_points(mesh_t, spec_t, pts) @ E
    norm2 = phi.multiply(phi).T @ w
    res2 = residual.multiply(residual).T @ w
    bad = np.flatnonzero(res2 > 1e-12 * np.maximum(norm2, 1e-30))
    if bad.size:
        j = bad[0]
        raise InvalidSpaceError(
            f"source basis function {j} is not contained in the target "
            f"space (residual^2 {res2[j]:.3e})"
        )
    return E


@dataclass(frozen=True)
class TensorSpacePair:
    """Assembled matrices of the trial/test pair X = X_t (x) X_x, Y = Y_t (x) X_x.

    The dimensions are computed once per pair: the fields they derive from
    are frozen.
    """

    mesh_t_X: Mesh1D
    spec_t_X: BasisSpec
    mesh_t_Y: Mesh1D
    spec_t_Y: BasisSpec
    mesh_x: Mesh1D
    spec_x: BasisSpec

    M_t_X: sp.csr_matrix  # temporal mass on X_t
    A_t_X: sp.csr_matrix  # temporal stiffness on X_t
    M_t_Y: sp.csr_matrix  # temporal mass on Y_t
    B_t: sp.csr_matrix    # int phi_j' psi_i dt, shape (dim Y_t, dim X_t)
    M_x: sp.csr_matrix    # spatial mass on X_x
    A_x: sp.csr_matrix    # spatial stiffness on X_x

    embed_t: sp.csr_matrix | None  # X_t coefficients -> Y_t coefficients

    @property
    def x_in_y(self) -> bool:
        """X_t lies in Y_t, so X in Y: the embedding exists."""
        return self.embed_t is not None

    @cached_property
    def dim_t_X(self) -> int:
        return self.spec_t_X.dim(self.mesh_t_X)

    @cached_property
    def dim_t_Y(self) -> int:
        return self.spec_t_Y.dim(self.mesh_t_Y)

    @cached_property
    def dim_x(self) -> int:
        return self.spec_x.dim(self.mesh_x)

    @cached_property
    def dim_X(self) -> int:
        return self.dim_t_X * self.dim_x

    @cached_property
    def dim_Y(self) -> int:
        return self.dim_t_Y * self.dim_x

    @property
    def T(self) -> float:
        return self.mesh_t_X.end


def assemble_matrices(
    X_t: tuple[Mesh1D, BasisSpec],
    Y_t: tuple[Mesh1D, BasisSpec],
    X_x: tuple[Mesh1D, BasisSpec],
) -> TensorSpacePair:
    """Assemble all 1D factor matrices and the embedding of X_t into Y_t, if any."""
    mesh_t_X, spec_t_X = X_t
    mesh_t_Y, spec_t_Y = Y_t
    mesh_x, spec_x = X_x
    if spec_t_X != CONT_P1:
        raise InvalidSpaceError("temporal trial basis must be continuous-p1 without bc")
    if spec_t_Y.boundary != "none":
        raise InvalidSpaceError("temporal test basis must not carry boundary conditions")
    if spec_x != CONT_P1_DIRICHLET:
        raise InvalidSpaceError("spatial basis must be continuous-p1 with zero-dirichlet")
    if abs(mesh_t_X.start) > 0 or abs(mesh_t_Y.start) > 0:
        raise InvalidSpaceError("temporal meshes must start at 0")
    if abs(mesh_t_X.end - mesh_t_Y.end) > 1e-12:
        raise InvalidSpaceError("trial and test temporal meshes must share T")

    M_t_X = assemble_1d("mass", X_t)
    A_t_X = assemble_1d("stiffness", X_t)
    M_t_Y = assemble_1d("mass", Y_t)
    B_t = assemble_1d("dtrial", Y_t, X_t)
    M_x = assemble_1d("mass", X_x)
    A_x = assemble_1d("stiffness", X_x)

    try:
        embed_t = embedding_matrix(X_t, Y_t)
    except InvalidSpaceError:
        embed_t = None

    return TensorSpacePair(
        mesh_t_X=mesh_t_X, spec_t_X=spec_t_X,
        mesh_t_Y=mesh_t_Y, spec_t_Y=spec_t_Y,
        mesh_x=mesh_x, spec_x=spec_x,
        M_t_X=M_t_X, A_t_X=A_t_X, M_t_Y=M_t_Y, B_t=B_t, M_x=M_x, A_x=A_x,
        embed_t=embed_t,
    )


def default_pair(n_t: int, n_x: int, T: float = 1.0) -> TensorSpacePair:
    """Default configuration: X_t cont-P1, Y_t disc-P1 on the same temporal
    mesh, X_x cont-P1 with zero Dirichlet values.  Guarantees X in Y and
    (d/dt) X_t inside Y_t."""
    mesh_t = Mesh1D.uniform(n_t, length=T)
    mesh_x = Mesh1D.uniform(n_x)
    return assemble_matrices((mesh_t, CONT_P1), (mesh_t, DISC_P1), (mesh_x, CONT_P1_DIRICHLET))


def trace_at_time(pair: TensorSpacePair, u: np.ndarray, t: float) -> np.ndarray:
    """Spatial coefficients of u(t, .) for t at either endpoint of (0, T).

    The temporal trial basis is nodal, so the endpoint trace picks the first
    or last temporal coefficient block.
    """
    if not (abs(t) <= 1e-12 * max(pair.T, 1.0) or abs(t - pair.T) <= 1e-12 * max(pair.T, 1.0)):
        raise ValueError(f"trace only defined at t=0 or t=T, got {t}")
    U = np.asarray(u, dtype=float).reshape(pair.dim_t_X, pair.dim_x)
    return U[0].copy() if abs(t) <= 1e-12 * max(pair.T, 1.0) else U[-1].copy()


def embed_X_into_Y(pair: TensorSpacePair, u: np.ndarray) -> np.ndarray:
    """Coefficients of a trial function as an element of the test space."""
    if not pair.x_in_y:
        raise InvalidSpaceError("trial space is not contained in the test space")
    U = np.asarray(u, dtype=float).reshape(pair.dim_t_X, pair.dim_x)
    return (pair.embed_t @ U).reshape(-1)
