"""Meshes, piecewise-polynomial bases, 1D assembly, and the tensor pair.

The discrete setting is a tensor product of a temporal axis on (0, T) and a
spatial axis on (0, 1).  Trial functions live in X = X_t (x) X_x with X_t
continuous piecewise linear and X_x continuous piecewise linear with zero
Dirichlet boundary values; test functions live in Y = Y_t (x) X_x where Y_t
may be discontinuous.  Coefficients are stored time-major:
index = t_dof * dim_x + x_dof.

Every 1D matrix, and the embedding of X_t into Y_t, is built from element
blocks: on each element of the finer of two nested meshes, the local
functions of the elements holding it are evaluated at its Gauss points, and
the blocks are scattered into one canonical CSR build per matrix.  The
quadrature is exact, and the embedding's containment check is integrated
by the same blocks, with no sparse product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

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

    @cached_property
    def points(self) -> np.ndarray:
        """The breakpoints as a read-only array, built once per mesh."""
        return _read_only(np.asarray(self.breakpoints))

    @property
    def n_elements(self) -> int:
        return len(self.breakpoints) - 1

    @cached_property
    def lengths(self) -> np.ndarray:
        """Element lengths as a read-only array, built once per mesh."""
        return _read_only(np.diff(self.points))

    @property
    def start(self) -> float:
        return self.breakpoints[0]

    @property
    def end(self) -> float:
        return self.breakpoints[-1]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
    first = np.arange(mesh.n_elements)[:, None]
    if spec.family == "discontinuous-p0":
        return first
    dofs = (2 if spec.family == "discontinuous-p1" else 1) * first + np.arange(2)
    if spec.boundary == "zero-dirichlet":
        dofs -= 1
        dofs[-1, 1] = -1
    return dofs


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


class ElementTable:
    """The element tables of a 1D space under the n_quad-point Gauss rule of
    `gauss_points`: the dofs of each element (`element_dofs`, -1 for a
    dropped boundary dof), the reference values of its local functions at
    the Gauss points, shape (n_quad, n_local), the reference derivatives,
    1/h per element, and the rule's reference weights times the values and
    times the derivatives (`weighted`, the local moments of a density).

    With E the (n_elements * n_quad, dim) basis values at the Gauss points
    and Dbar the (n_elements, dim) derivatives of a P1 basis, one row per
    element since a P1 derivative is constant there, the tables apply
    E A (`gather`), E^T F (`scatter`), A Dbar^T (`slopes`) and F Dbar
    (`slopes_T`) element by element, without forming either matrix, in
    O(n_elements k) operations; E itself is `gather` of the identity.
    `pairs` lists the dofs that share an element, the pattern of
    E^T diag(.) E and of Dbar^T diag(.) Dbar.
    """

    def __init__(self, mesh: Mesh1D, spec: BasisSpec, n_quad: int):
        self.spec = spec
        self.dim = spec.dim(mesh)
        self.dofs = element_dofs(mesh, spec)
        self.values, self.derivatives, *weighted = _reference_tables(spec, n_quad)
        self.weighted = tuple(weighted)
        self.inv_h = 1.0 / mesh.lengths

    def gather(self, A: np.ndarray) -> np.ndarray:
        """E A for A of shape (dim, k): the rows of A at the Gauss points,
        (n_elements * n_quad, k), element-major as `gauss_points`."""
        if self.spec.boundary == "zero-dirichlet":
            A = np.vstack([A, np.zeros((1, A.shape[1]))])  # the row that -1 reads
        return np.matmul(self.values, A[self.dofs]).reshape(-1, A.shape[1])

    def scatter(self, F: np.ndarray) -> np.ndarray:
        """E^T F for F of shape (n_elements * n_quad, k): each element's
        contraction with its local functions, added into its dofs."""
        n_el, n_quad = self.dofs.shape[0], self.values.shape[0]
        local = np.matmul(self.values.T, F.reshape(n_el, n_quad, -1))
        out = np.zeros((self.dim + 1, local.shape[2]))  # row dim absorbs the dofs -1
        _add_elements(out, local, self.dofs)
        return out[:-1]

    def _nodes(self) -> slice:
        """The nodes that carry the dofs of a continuous P1 space, of the
        n_elements + 1 nodes of its mesh."""
        if self.spec.family != "continuous-p1":
            raise InvalidSpaceError("slopes are differences of continuous-p1 node values")
        start = 1 if self.spec.boundary == "zero-dirichlet" else 0
        return slice(start, start + self.dim)

    def slopes(self, A: np.ndarray) -> np.ndarray:
        """A Dbar^T for a continuous P1 space, the dofs along the last axis
        of A: the difference of the node values over each element, times 1/h."""
        nodes = np.zeros((*A.shape[:-1], self.inv_h.size + 1))
        nodes[..., self._nodes()] = A
        out = nodes[..., 1:] - nodes[..., :-1]
        out *= self.inv_h
        return out

    def slopes_T(self, F: np.ndarray) -> np.ndarray:
        """F Dbar for a continuous P1 space, the elements along the last axis
        of F: node k gets H at element k - 1 minus H at element k, H = F/h."""
        H = np.zeros((*F.shape[:-1], F.shape[-1] + 2))
        np.multiply(F, self.inv_h, out=H[..., 1:-1])
        return (H[..., :-1] - H[..., 1:])[..., self._nodes()]

    def pairs(self, derivative: bool = False) -> tuple[np.ndarray, np.ndarray, sp.csr_matrix]:
        """(indptr, indices, P): the pairs (a, b) of dofs that some element
        holds both of, as the CSR pattern of a (dim, dim) matrix, sorted by
        (a, b), and P[k, p] the product of the local functions of pair k at
        point p of each element that holds it, CSR with the zero products
        left out.  The points are the Gauss points of `gather`, or with
        `derivative` one point per element, where a P1 derivative, the
        reference derivative times 1/h, is constant, as the rows of Dbar.
        """
        n_el, n_local = self.dofs.shape
        if derivative:
            vals = (self.derivatives * self.inv_h[:, None])[:, None, :]
        else:
            vals = np.broadcast_to(self.values, (n_el, *self.values.shape))
        first, second = np.indices((n_local, n_local)).reshape(2, -1)
        a, b = self.dofs[:, first], self.dofs[:, second]
        keys = np.where((a >= 0) & (b >= 0), a * self.dim + b, -1)[:, None, :]
        pairs = np.unique(keys[keys >= 0])
        n_pts = vals.shape[1]
        P = _csr(np.where(keys >= 0, np.searchsorted(pairs, keys), -1),
                 np.arange(n_el * n_pts).reshape(n_el, n_pts, 1),
                 vals[:, :, first] * vals[:, :, second], (pairs.size, n_el * n_pts))
        indptr = np.searchsorted(pairs // self.dim, np.arange(self.dim + 1))
        return indptr, pairs % self.dim, P


@lru_cache(maxsize=None)
def _reference_tables(spec: BasisSpec, n_quad: int) -> tuple[np.ndarray, ...]:
    """The mesh-free part of an `ElementTable`, built once per basis and
    rule, read-only: the reference values (n_quad, n_local) at the Gauss
    points, the reference derivatives, and the rule's weights times each."""
    rule = gauss_rule(n_quad)
    values = reference_values(spec, rule.points).T
    derivatives = reference_derivatives(spec)
    w = np.asarray(rule.weights)[:, None]
    return tuple(_read_only(a) for a in (values, derivatives, w * values, w * derivatives[None, :]))


def _add_elements(out: np.ndarray, local: np.ndarray, dofs: np.ndarray) -> None:
    """Add per-element arrays local (n_elements, n_local, ...) into the
    rows of out that `dofs` (n_elements, n_local) names; out has one row
    past the dofs, which absorbs the dropped boundary dofs, numbered -1.
    Each local index a numbers distinct dofs over the elements, so one
    indexed add per a suffices."""
    for a in range(dofs.shape[1]):
        out[dofs[:, a]] += local[:, a]


def _mesh_contains(fine: Mesh1D, coarse: Mesh1D, tol: float = 1e-12) -> bool:
    f = fine.points
    c = coarse.points
    idx = np.searchsorted(f, c)
    idx = np.clip(idx, 0, len(f) - 1)
    near = np.minimum(np.abs(f[idx] - c), np.abs(f[np.maximum(idx - 1, 0)] - c))
    return bool(np.all(near <= tol * max(abs(f[-1]), 1.0)))


def _integration_mesh(a: Mesh1D, b: Mesh1D) -> Mesh1D:
    if a == b or (a.n_elements >= b.n_elements and _mesh_contains(a, b)):
        return a
    if _mesh_contains(b, a):
        return b
    raise InvalidSpaceError("meshes are not nested; cannot integrate products exactly")


# Gauss points per element of `assemble_1d`: exact up to degree 5, which
# covers every product of two basis functions of degree at most 1.
ASSEMBLY_QUAD_POINTS = 3


def _element_values(
    mesh: Mesh1D, spec: BasisSpec, x: np.ndarray, derivative: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Local basis of the element of `mesh` that holds each row of points
    x, shape (n, n_pts): the element is the one holding the mean of the
    row's first and last point, and the row may reach beyond it.  Returns
    the element's dofs (n, n_local), -1 for dropped boundary dofs, and the
    values (n, n_pts, n_local) of its local functions, or of their
    derivatives, at the points."""
    breaks = mesh.points
    elem = np.searchsorted(breaks[1:-1], 0.5 * (x[:, 0] + x[:, -1]), side="right")
    h = mesh.lengths[elem, None]
    shape = (*x.shape, spec.n_local)
    if derivative:
        vals = np.broadcast_to((reference_derivatives(spec)[None, :] / h)[:, None, :], shape)
    else:
        vals = reference_values(spec, ((x - breaks[elem, None]) / h).reshape(-1)).T.reshape(shape)
    return element_dofs(mesh, spec)[elem], vals


def _csr(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int]
) -> sp.csr_matrix:
    """Canonical CSR matrix of the entries (rows, cols, vals), built once
    from its index arrays.  Entries with a negative (dropped) row or column
    are left out; entries at one position are summed in the order given,
    and zero sums are dropped.  rows and cols broadcast to the shape of
    vals."""
    keys = np.where((rows >= 0) & (cols >= 0), rows * shape[1] + cols, -1)
    keys = np.broadcast_to(keys, vals.shape).reshape(-1)
    # the left-out entries, keyed -1, sort first
    order = np.argsort(keys, kind="stable")[np.count_nonzero(keys < 0):]
    keys = keys[order]
    new = keys != np.concatenate(([-1], keys[:-1]))
    data = np.bincount(np.cumsum(new) - 1, weights=vals.reshape(-1)[order])
    keys = keys[new][data != 0]
    indptr = np.searchsorted(keys, np.arange(shape[0] + 1) * shape[1])
    return sp.csr_matrix(
        (data[data != 0], (keys % shape[1]).astype(np.int32), indptr.astype(np.int32)),
        shape=shape,
    )


def assemble_1d(
    kind: str,
    test: tuple[Mesh1D, BasisSpec],
    trial: tuple[Mesh1D, BasisSpec] | None = None,
) -> sp.csr_matrix:
    """Exact 1D matrices: entries integral of test_i op trial_j, canonical CSR.

    kind:
      "mass"        test_i * trial_j
      "stiffness"   test_i' * trial_j'
      "dtrial"      test_i * trial_j'   (temporal derivative coupling)

    The product is integrated elementwise on the finer of the two meshes,
    which must be nested, with `ASSEMBLY_QUAD_POINTS` Gauss points, so the
    quadrature is exact.  On each fine element the local test and trial
    functions of the coarse elements holding it are evaluated at its Gauss
    points as (n_elements, n_quad, n_local) blocks; their weighted products
    are scattered into one CSR build, summed per entry in the order of the
    Gauss points along the mesh.
    """
    (mesh_v, spec_v), (mesh_u, spec_u) = test, trial or test
    x, w = gauss_points(_integration_mesh(mesh_v, mesh_u), ASSEMBLY_QUAD_POINTS)
    x, w = x.reshape(-1, ASSEMBLY_QUAD_POINTS), w.reshape(-1, ASSEMBLY_QUAD_POINTS, 1)
    rows, V = _element_values(mesh_v, spec_v, x, derivative=kind == "stiffness")
    cols, U = _element_values(mesh_u, spec_u, x, derivative=kind in ("stiffness", "dtrial"))
    blocks = (V * w)[:, :, :, None] * U[:, :, None, :]
    return _csr(rows[:, None, :, None], cols[:, None, None, :], blocks,
                (spec_v.dim(mesh_v), spec_u.dim(mesh_u)))


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
    squared L2 norm of phi_j minus its interpolant, vanishes.  The residual
    is integrated per element of the finer mesh by the exact quadrature of
    `assemble_1d`: on each element, every source function that is nonzero
    there or in its interpolant is evaluated minus its interpolant at the
    Gauss points.  Raises InvalidSpaceError for a column whose squared
    residual exceeds 1e-12 times the squared norm of its basis function,
    and for meshes that do not nest.
    """
    (mesh_s, spec_s), (mesh_t, spec_t) = source, target
    nodes = mesh_t.points[element_dofs(mesh_t, CONT_P1)]  # (left, right) per element
    if spec_t.family == "discontinuous-p0":
        nodes = 0.5 * (nodes[:, :1] + nodes[:, 1:])
    dofs_s, vals = _element_values(mesh_s, spec_s, nodes)
    # each target dof is read from its first slot, local node 0 of every
    # target element before local node 1: its source columns and values
    dofs, first = np.unique(element_dofs(mesh_t, spec_t).T.reshape(-1), return_index=True)
    first = first[dofs >= 0]
    n_s = spec_s.n_local
    row_cols = np.tile(dofs_s, (nodes.shape[1], 1))[first]
    row_vals = vals.transpose(1, 0, 2).reshape(-1, n_s)[first]
    dim_t, dim_s = spec_t.dim(mesh_t), spec_s.dim(mesh_s)
    E = _csr(np.arange(dim_t)[:, None], row_cols, row_vals, (dim_t, dim_s))
    # the columns that can be nonzero on each fine element: those of phi's
    # local functions, then those that its target dofs read (the padded row
    # -1, a dropped target dof, reads none); their terms of phi - E_j at the
    # Gauss points are summed over equal columns, each counted once
    x, w = gauss_points(_integration_mesh(mesh_t, mesh_s), ASSEMBLY_QUAD_POINTS)
    x, w = x.reshape(-1, ASSEMBLY_QUAD_POINTS), w.reshape(-1, ASSEMBLY_QUAD_POINTS, 1)
    cols_phi, phi = _element_values(mesh_s, spec_s, x)
    rows_psi, psi = _element_values(mesh_t, spec_t, x)
    row_cols = np.vstack([row_cols, np.full(n_s, -1)])[rows_psi].reshape(len(x), -1)
    row_vals = np.vstack([row_vals, np.zeros(n_s)])[rows_psi]
    cols = np.concatenate([cols_phi, row_cols], axis=1)
    terms = np.concatenate(
        [phi, -(psi[:, :, :, None] * row_vals[:, None, :, :]).reshape(*x.shape, -1)], axis=2
    )
    same = cols[:, :, None] == cols[:, None, :]
    residual = terms @ same
    keep = (cols >= 0) & (same.argmax(axis=2) == np.arange(cols.shape[1]))
    res2 = np.bincount(cols[keep], (w * residual**2).sum(axis=1)[keep], minlength=dim_s)
    keep = cols_phi >= 0
    norm2 = np.bincount(cols_phi[keep], (w * phi**2).sum(axis=1)[keep], minlength=dim_s)
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
