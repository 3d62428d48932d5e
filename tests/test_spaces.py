import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psaddle import spaces
from psaddle.core_linalg import banded_cholesky
from psaddle.errors import InvalidSpaceError, PsaddleError
from psaddle.spaces import (
    CONT_P1,
    CONT_P1_DIRICHLET,
    DISC_P0,
    DISC_P1,
    Mesh1D,
    assemble_1d,
    assemble_matrices,
    default_pair,
    embed_X_into_Y,
    embedding_matrix,
    eval_basis_at_points,
    gauss_points,
    gauss_rule,
    quadrature_matrix,
    trace_at_time,
    uniform_refine,
)


def hand_mass_p1(points):
    """Closed-form P1 mass matrix (no boundary conditions)."""
    h = np.diff(points)
    n = len(points)
    M = np.zeros((n, n))
    for e in range(n - 1):
        M[e : e + 2, e : e + 2] += h[e] / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
    return M


def hand_stiffness_p1(points):
    h = np.diff(points)
    n = len(points)
    A = np.zeros((n, n))
    for e in range(n - 1):
        A[e : e + 2, e : e + 2] += 1.0 / h[e] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return A


class TestMesh:
    def test_refine_single_element(self):
        assert uniform_refine(Mesh1D((0.0, 1.0))).breakpoints == (0.0, 0.5, 1.0)

    def test_refine_two_elements(self):
        m = uniform_refine(Mesh1D((0.0, 0.5, 1.0)))
        assert m.breakpoints == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_invalid_meshes(self):
        with pytest.raises(InvalidSpaceError):
            Mesh1D((0.0,))
        with pytest.raises(InvalidSpaceError):
            Mesh1D((0.0, 0.0, 1.0))
        # nan compares False, so it passes a strictly-increasing test on its own
        for bad in ((0.0, math.nan, 1.0), (0.0, 0.5, math.nan), (0.0, 1.0, math.inf)):
            with pytest.raises(InvalidSpaceError, match="finite"):
                Mesh1D(bad)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 16))
    def test_refinement_preserves_breakpoints(self, n):
        m = Mesh1D.uniform(n)
        f = uniform_refine(m)
        assert set(m.breakpoints) <= set(f.breakpoints)
        assert f.n_elements == 2 * n


class TestAssembly:
    def test_spatial_hand_values(self):
        # one interior node at 0.5: A_x = [4], M_x = [1/3]
        m = Mesh1D((0.0, 0.5, 1.0))
        A = assemble_1d("stiffness", (m, CONT_P1_DIRICHLET)).toarray()
        M = assemble_1d("mass", (m, CONT_P1_DIRICHLET)).toarray()
        assert np.allclose(A, [[4.0]], atol=1e-14)
        assert np.allclose(M, [[1.0 / 3.0]], atol=1e-15)

    def test_temporal_derivative_p0_test(self):
        # single element, P1 trial, P0 test: integral of phi' is (-1, 1)
        m = Mesh1D((0.0, 1.0))
        B = assemble_1d("dtrial", (m, DISC_P0), (m, CONT_P1)).toarray()
        assert np.allclose(B, [[-1.0, 1.0]], atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mass_stiffness_match_hand_integration(self, n, rng):
        pts = np.sort(rng.uniform(0.1, 0.9, size=n - 1)) if n > 1 else []
        points = np.concatenate([[0.0], pts, [1.0]])
        m = Mesh1D(tuple(points))
        M = assemble_1d("mass", (m, CONT_P1)).toarray()
        A = assemble_1d("stiffness", (m, CONT_P1)).toarray()
        assert np.allclose(M, hand_mass_p1(points), atol=1e-14)
        assert np.allclose(A, hand_stiffness_p1(points), atol=1e-12)

    def test_disc_p1_mass_blocks(self):
        m = Mesh1D.uniform(3)
        M = assemble_1d("mass", (m, DISC_P1)).toarray()
        h = 1.0 / 3.0
        block = h / 6.0 * np.array([[2.0, 1.0], [1.0, 2.0]])
        expect = np.kron(np.eye(3), block)
        assert np.allclose(M, expect, atol=1e-15)

    def test_derivative_coupling_blocks(self):
        # cont-P1 trial vs disc-P1 test on the same mesh: rows (-1/2, 1/2)
        m = Mesh1D.uniform(2)
        B = assemble_1d("dtrial", (m, DISC_P1), (m, CONT_P1)).toarray()
        expect = np.array([
            [-0.5, 0.5, 0.0],
            [-0.5, 0.5, 0.0],
            [0.0, -0.5, 0.5],
            [0.0, -0.5, 0.5],
        ])
        assert np.allclose(B, expect, atol=1e-15)

    def test_quadrature_exactness(self):
        for n in (1, 2, 3, 5):
            rule = gauss_rule(n)
            for deg in range(rule.order + 1):
                val = sum(w * p**deg for p, w in zip(rule.points, rule.weights))
                assert abs(val - 1.0 / (deg + 1)) < 1e-13, (n, deg)

    @pytest.mark.parametrize("spec", [CONT_P1, CONT_P1_DIRICHLET, DISC_P0, DISC_P1])
    @pytest.mark.parametrize("derivative", [False, True])
    def test_quadrature_matrix_matches_point_evaluation(self, spec, derivative):
        m = Mesh1D((0.0, 0.1, 0.45, 0.5, 1.0))
        pts, _ = gauss_points(m, 3)
        expect = eval_basis_at_points(m, spec, pts, derivative=derivative).toarray()
        got = quadrature_matrix(m, spec, 3, derivative=derivative)
        # the two compute the reference coordinate of a point differently
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()

    def test_quadrature_matrix_refuses_oversize(self):
        # 60000 x 20001 float64 is about 9.6 GB: refused before allocation
        with pytest.raises(PsaddleError, match="bytes"):
            quadrature_matrix(Mesh1D.uniform(20_000), CONT_P1, 3)

    def test_unsupported_combination(self):
        m = Mesh1D.uniform(2)
        with pytest.raises(InvalidSpaceError):
            assemble_matrices((m, DISC_P0), (m, DISC_P1), (m, CONT_P1_DIRICHLET))


class TestTensorPair:
    def test_default_pair_flags_and_spd(self):
        pair = default_pair(3, 4)
        assert pair.x_in_y
        for mat in (pair.M_t_X, pair.M_t_Y, pair.M_x, pair.A_x):
            vals = np.linalg.eigvalsh(mat.toarray())
            assert vals.min() > 0
        # temporal stiffness is PSD with the constants in its kernel
        vals = np.linalg.eigvalsh(pair.A_t_X.toarray())
        assert vals.min() > -1e-12
        assert np.abs(pair.A_t_X @ np.ones(pair.dim_t_X)).max() < 1e-12

    def test_x_in_y_containment_cases(self):
        m = Mesh1D.uniform(4)
        pair = assemble_matrices((m, CONT_P1), (m, DISC_P1), (m, CONT_P1_DIRICHLET))
        assert pair.x_in_y
        # P0 test space cannot represent P1 trial functions
        pair2 = assemble_matrices((m, CONT_P1), (m, DISC_P0), (m, CONT_P1_DIRICHLET))
        assert not pair2.x_in_y
        # containment is read off the embedding, not stored beside it
        assert pair.embed_t is not None and pair2.embed_t is None
        assert "x_in_y" not in {f.name for f in dataclasses.fields(pair)}

    def test_derivative_image_in_test_space(self):
        # d/dt of cont-P1 is piecewise constant: contained in disc-P1 and disc-P0
        m = Mesh1D.uniform(3)
        E = embedding_matrix((m, DISC_P0), (m, DISC_P1))
        assert E.shape == (6, 3)

    def test_trace_zero(self):
        pair = default_pair(3, 4)
        assert np.all(trace_at_time(pair, np.zeros(pair.dim_X), 0.0) == 0.0)

    def test_trace_nodal(self, rng):
        pair = default_pair(3, 4)
        u = rng.standard_normal(pair.dim_X)
        U = u.reshape(pair.dim_t_X, pair.dim_x)
        assert np.array_equal(trace_at_time(pair, u, 0.0), U[0])
        assert np.array_equal(trace_at_time(pair, u, pair.T), U[-1])

    def test_trace_matches_expansion(self, rng):
        # direct expansion oracle: evaluate u(t, x) by summing basis values
        pair = default_pair(3, 4)
        u = rng.standard_normal(pair.dim_X)
        U = u.reshape(pair.dim_t_X, pair.dim_x)
        xs = np.array([0.3, 0.61])
        for t in (0.0, pair.T):
            direct = np.zeros_like(xs)
            phi_t = eval_basis_at_points(pair.mesh_t_X, pair.spec_t_X, np.array([t])).toarray()[0]
            chi_x = eval_basis_at_points(pair.mesh_x, pair.spec_x, xs)
            for j in range(pair.dim_t_X):
                direct += phi_t[j] * (chi_x @ U[j])
            via_trace = chi_x @ trace_at_time(pair, u, t)
            assert np.allclose(direct, via_trace, atol=1e-13)

    def test_embed_zero(self):
        pair = default_pair(2, 3)
        assert np.all(embed_X_into_Y(pair, np.zeros(pair.dim_X)) == 0.0)

    def test_embed_hat_pointwise(self):
        # a temporal hat expressed in disc-P1 coefficients: per-element nodal values
        pair = default_pair(2, 2)
        u = np.zeros(pair.dim_X)
        u[1 * pair.dim_x + 0] = 1.0  # hat at the middle time node
        uy = embed_X_into_Y(pair, u).reshape(pair.dim_t_Y, pair.dim_x)
        # element 0 ends with value 1, element 1 starts with value 1
        assert np.allclose(uy[:, 0], [0.0, 1.0, 1.0, 0.0], atol=1e-12)

    def test_embed_preserves_norms(self, rng):
        pair = default_pair(4, 5)
        u = rng.standard_normal(pair.dim_X)
        uy = embed_X_into_Y(pair, u)
        n_X = u @ np.kron(pair.M_t_X.toarray(), pair.A_x.toarray()) @ u
        n_Y = uy @ np.kron(pair.M_t_Y.toarray(), pair.A_x.toarray()) @ uy
        assert abs(n_X - n_Y) <= 1e-12 * n_X

    def test_embed_requires_containment(self):
        m = Mesh1D.uniform(4)
        pair = assemble_matrices((m, CONT_P1), (m, DISC_P0), (m, CONT_P1_DIRICHLET))
        with pytest.raises(InvalidSpaceError):
            embed_X_into_Y(pair, np.zeros(pair.dim_X))

    def test_nestedness_coarse_reproduced_on_fine(self, rng):
        # every coarse basis function is exactly representable after refinement
        m = Mesh1D.uniform(3)
        f = uniform_refine(m)
        for spec in (CONT_P1, DISC_P0, DISC_P1):
            E = embedding_matrix((m, spec), (f, spec))  # raises if not exact
            assert E.shape[1] == spec.dim(m)

    def test_embedding_names_first_failing_column(self):
        # the source hats at 0.5, 0.75 and 1 bend at 0.75, where the coarse
        # target cannot; the hat at 0 is linear on [0, 0.5] and contained
        source = Mesh1D((0.0, 0.5, 0.75, 1.0))
        with pytest.raises(InvalidSpaceError, match="source basis function 1 "):
            embedding_matrix((source, CONT_P1), (Mesh1D.uniform(2), CONT_P1))

    def test_embedding_matches_column_solves(self):
        # the nodal values against the L2 projection, one solve per column:
        # on a contained source space both are the function itself
        m = Mesh1D((0.0, 0.2, 0.45, 0.7, 1.0))
        f = uniform_refine(m)
        for spec in (CONT_P1, CONT_P1_DIRICHLET, DISC_P0, DISC_P1):
            fact = banded_cholesky(assemble_1d("mass", (f, spec)))
            C = assemble_1d("mass", (f, spec), (m, spec))
            loop = np.column_stack(
                [fact.solve(C[:, j].toarray().ravel()) for j in range(C.shape[1])]
            )
            E = embedding_matrix((m, spec), (f, spec))
            assert np.abs(E - loop).max() <= 1e-14 * np.abs(loop).max()

    def test_not_nested_rejected(self):
        a = Mesh1D.uniform(3)
        b = Mesh1D.uniform(4)
        with pytest.raises(InvalidSpaceError):
            assemble_1d("mass", (a, CONT_P1), (b, CONT_P1))


class TestDerivativeImage:
    @pytest.mark.parametrize("test_family", [DISC_P0, DISC_P1])
    def test_trial_derivative_contained_in_test_space(self, test_family, rng):
        # d/dt of a continuous piecewise linear is piecewise constant; its
        # L2 projection onto the test space must reproduce it exactly
        m = Mesh1D.uniform(5)
        M_Y = assemble_1d("mass", (m, test_family)).toarray()
        B = assemble_1d("dtrial", (m, test_family), (m, CONT_P1)).toarray()
        A_t = assemble_1d("stiffness", (m, CONT_P1)).toarray()
        for _ in range(10):
            z = rng.standard_normal(CONT_P1.dim(m))
            moments = B @ z
            proj = np.linalg.solve(M_Y, moments)
            # ||zdot - proj||^2 = ||zdot||^2 - proj^T M proj
            res = z @ A_t @ z - proj @ M_Y @ proj
            assert abs(res) <= 1e-12 * max(z @ A_t @ z, 1e-30)
