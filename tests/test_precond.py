import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from psaddle import core_linalg, riesz
from psaddle import precond as pc
from psaddle import quality as ql
from psaddle.errors import InvalidSpaceError, PsaddleError
from psaddle.riesz import RieszContext, estimate_C_J
from psaddle.spaces import (
    CONT_P1,
    CONT_P1_DIRICHLET,
    DISC_P1,
    Mesh1D,
    assemble_1d,
    assemble_matrices,
    default_pair,
)

from helpers import jittered_mesh, random_spd


def _dense_R(pair):
    """The Gram of the alternative trial norm,
    M_t (x) A_x + (M_t + A_t) (x) M_x A_x^{-1} M_x."""
    Mt, At = pair.M_t_X.toarray(), pair.A_t_X.toarray()
    Ax, Mx = pair.A_x.toarray(), pair.M_x.toarray()
    return np.kron(Mt, Ax) + np.kron(Mt + At, Mx @ np.linalg.solve(Ax, Mx))


def _dense_precond(pair):
    """The wavelet preconditioner (T (x) I) blockdiag[(A_x + alpha_j M_x)^{-1}
    A_x (A_x + alpha_j M_x)^{-1}] (T^T (x) I) on the default wavelets."""
    basis = pc.build_time_wavelets(pair.mesh_t_X)
    Ax, Mx = pair.A_x.toarray(), pair.M_x.toarray()
    blocks = []
    for alpha in basis.alphas:
        K = Ax + alpha * Mx
        blocks.append(np.linalg.solve(K, np.linalg.solve(K, Ax).T))
    TI = np.kron(basis.T.toarray(), np.eye(pair.dim_x))
    return TI @ sla.block_diag(*blocks) @ TI.T


def _dense_kappa(pair):
    """lambda_max / lambda_min of P R, from L^T R L for P = L L^T."""
    L = np.linalg.cholesky(_dense_precond(pair))
    ev = sla.eigvalsh(L.T @ _dense_R(pair) @ L)
    return ev[-1] / ev[0]


class TestTimeWavelets:
    def test_level0_diagonal_with_hand_alphas(self):
        # single element: no details; the two normalized half-hats have
        # H1 norm sqrt((1/3 + 1) / (1/3)) = 2 exactly
        basis = pc.build_time_wavelets(Mesh1D.uniform(1))
        T = basis.T.toarray()
        assert T.shape == (2, 2)
        assert abs(T[0, 1]) < 1e-14 and abs(T[1, 0]) < 1e-14
        assert np.allclose(np.diag(T), math.sqrt(3.0))
        assert np.allclose(basis.alphas, 2.0, atol=1e-12)

    def test_level1_pointwise_oracle(self):
        # evaluate the constructed functions analytically at the nodes
        mesh = Mesh1D.uniform(2)
        basis = pc.build_time_wavelets(mesh)
        nodes = np.array([0.0, 0.5, 1.0])
        scaling0 = 1.0 - nodes          # coarse hat at t=0
        scaling1 = nodes                # coarse hat at t=1
        detail = np.array([0.0, 1.0, 0.0]) - 0.5 * scaling0 - 0.5 * scaling1
        M = assemble_1d("mass", (mesh, CONT_P1)).toarray()
        for col, fn in enumerate((scaling0, scaling1, detail)):
            norm = math.sqrt(fn @ M @ fn)
            assert np.allclose(basis.T.toarray()[:, col], fn / norm, atol=1e-13)

    def test_transform_invertible_and_unit_mass_diagonal(self):
        for J in range(1, 6):
            mesh = Mesh1D.uniform(2**J)
            T = pc.build_time_wavelets(mesh).T.toarray()
            assert T.shape == (2**J + 1, 2**J + 1)
            assert np.linalg.cond(T) < 1e8
            M = assemble_1d("mass", (mesh, CONT_P1)).toarray()
            Mhat = T.T @ M @ T
            assert np.allclose(np.diag(Mhat), 1.0, atol=1e-12)

    def test_stability_proxy_across_levels(self):
        # measured sequence: conditions stay bounded; consecutive growth is
        # mild for the mass and vanishes for the scaled mass + stiffness
        conds_M, conds_MA = [], []
        for J in range(1, 7):
            mesh = Mesh1D.uniform(2**J)
            T = pc.build_time_wavelets(mesh).T.toarray()
            M = assemble_1d("mass", (mesh, CONT_P1)).toarray()
            A = assemble_1d("stiffness", (mesh, CONT_P1)).toarray()
            Mhat = T.T @ M @ T
            MAhat = T.T @ (M + A) @ T
            d = np.sqrt(np.diag(MAhat))
            conds_M.append(np.linalg.cond(Mhat))
            conds_MA.append(np.linalg.cond(MAhat / d[:, None] / d[None, :]))
        assert max(conds_M) < 8.0
        assert max(conds_MA) < 6.0
        for seq, cap in ((conds_M, 1.4), (conds_MA, 1.2)):
            ratios = [seq[i + 1] / seq[i] for i in range(len(seq) - 1)]
            assert max(ratios) <= cap

    def test_hierarchical_variant_less_stable(self):
        # the plain hierarchical basis loses L2 stability with depth; this is
        # why the vanishing-moment variant is the default
        conds = []
        for J in (2, 5):
            mesh = Mesh1D.uniform(2**J)
            T = pc.build_time_wavelets(mesh, variant="hierarchical").T.toarray()
            M = assemble_1d("mass", (mesh, CONT_P1)).toarray()
            conds.append(np.linalg.cond(T.T @ M @ T))
        assert conds[1] > 4.0 * conds[0]

    def test_transform_built_sparse(self):
        # level 11: a dense transform alone would take 33.6 MB; the CSR one
        # holds the two full-support scaling functions and O(n) entries per
        # detail level
        tracemalloc.start()
        try:
            basis = pc.build_time_wavelets(Mesh1D.uniform(2**11))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert basis.T.format == "csr"
        assert basis.T.nnz < 40 * 2**11
        assert peak < 16 * 2**20

    def test_non_dyadic_rejected(self):
        with pytest.raises(InvalidSpaceError):
            pc.build_time_wavelets(Mesh1D.uniform(3))
        with pytest.raises(InvalidSpaceError):
            pc.build_time_wavelets(Mesh1D((0.0, 0.3, 1.0)))


class TestSpectralInequality:
    def test_alpha_zero_degenerate(self, rng):
        A = random_spd(rng, 4)
        M = random_spd(rng, 4)
        m = pc.check_spectral_inequality(A, M, 0.0)
        assert m.lower >= 0.0
        assert m.upper >= 0.0
        assert abs(m.upper_no_factor) <= 1e-12  # both sides equal A

    def test_commuting_case_shows_orientation(self):
        # A = M = I, alpha = 1: the product form equals 4 I while the sum
        # form equals 2 I, so the literal one-sided reading fails and the
        # factor-2 sandwich is sharp
        m = pc.check_spectral_inequality(np.eye(3), np.eye(3), 1.0)
        assert abs(m.lower - 3.0) <= 1e-12
        assert abs(m.upper - 0.0) <= 1e-12
        assert abs(m.upper_no_factor + 2.0) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 3.0, 25.0])
    def test_random_pairs_verified_orientation(self, alpha, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            A = random_spd(rng, n)
            M = random_spd(rng, n)
            m = pc.check_spectral_inequality(A, M, alpha)
            assert m.lower >= -1e-10
            assert m.upper >= -1e-10

    def test_large_matrices_rejected(self, rng):
        with pytest.raises(InvalidSpaceError):
            pc.check_spectral_inequality(np.eye(100), np.eye(100), 1.0)


class TestKappaStudy:
    # the finest kappa at 16 x 4 and at 32 x 8
    PINS = {(4, 4): 4.8406, (5, 8): 6.2964}

    def test_uniformity_and_floor(self):
        results = pc.kappa_study(5, n_x=8)
        kappas = [k for (_, _, k) in results]
        assert min(kappas) >= 1.0
        assert max(kappas) / min(kappas) <= 2.0

    @pytest.mark.parametrize(
        "levels, n_x, T", [(2, 2, 1.0), (4, 4, 1.0), (5, 8, 1.0), (3, 5, 2.0)],
        ids=["2-2", "4-4", "5-8", "3-5-T2"],
    )
    def test_equals_dense_pencil(self, levels, n_x, T):
        # every level of the study against the dense pencil of the
        # assembled operators; n_x = 2 has a single spatial mode
        results = pc.kappa_study(levels, n_x=n_x, T=T)
        assert [level for (level, _, _) in results] == list(range(1, levels + 1))
        for level, dim, kappa in results:
            pair = default_pair(2**level, n_x, T=T)
            exact = _dense_kappa(pair)
            assert dim == pair.dim_X
            assert abs(kappa - exact) <= 1e-12 * exact
        if (levels, n_x) in self.PINS and T == 1.0:
            assert round(results[-1][2], 4) == self.PINS[levels, n_x]

    @pytest.mark.parametrize("T", [1.0, 2.0])
    def test_jittered_spatial_mesh_equals_dense_pencil(self, T, rng):
        mesh_t = Mesh1D.uniform(8, length=T)
        pair = assemble_matrices(
            (mesh_t, CONT_P1), (mesh_t, DISC_P1), (jittered_mesh(6, rng), CONT_P1_DIRICHLET)
        )
        lam = sla.eigvalsh(pair.A_x.toarray(), pair.M_x.toarray())
        exact = _dense_kappa(pair)
        assert abs(pc.mode_kappa(pair, lam) - exact) <= 1e-12 * exact

    def test_study_needs_no_factorization(self, monkeypatch):
        """kappa comes from eigenvalues alone: with every banded Cholesky
        entry point and the Riesz context made to raise, the study still
        returns the pinned kappa."""
        def refuse(*args, **kwargs):
            raise AssertionError("the kappa study factored a matrix or built a Riesz context")

        monkeypatch.setattr(core_linalg, "banded_cholesky", refuse)
        monkeypatch.setattr(core_linalg.BandedPattern, "factor", refuse)
        monkeypatch.setattr(core_linalg.BandedCholesky, "solve", refuse)
        monkeypatch.setattr(riesz, "RieszContext", refuse)
        assert round(pc.kappa_study(5, n_x=8)[-1][2], 4) == self.PINS[5, 8]

    def test_oversize_level_refused_up_front(self):
        # level 13: the temporal arrays would take 2.15 GB, whatever n_x;
        # the refusal comes before any level is computed
        tracemalloc.start()
        try:
            with pytest.raises(PsaddleError, match="kappa temporal arrays"):
                pc.kappa_study(13, n_x=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestAlternativeNormSandwich:
    def test_two_sided_equivalence(self, rng):
        # |||z|||^2 / (1 + C_PF^4) <= ||z||_X-surrogate^2  and
        # |||z|||^2 >= gamma_x^2 / (1 + C_J^2) ||z||_{X^d}^2
        pair = default_pair(8, 8)
        ctx = RieszContext(pair)
        R = _dense_R(pair)
        two = ql.TwoLevel(pair, ql._surrogate_pair(pair))
        C_PF = 1.0 / math.pi
        C_J = estimate_C_J(two.ctx_fine)
        g_x = ql.gamma_x(two)
        for _ in range(20):
            z = rng.standard_normal(pair.dim_X)
            alt2 = z @ R @ z
            fine_norm2 = two.ctx_fine.norm_X_delta(two.prolong_X(z)) ** 2
            disc_norm2 = ctx.norm_X_delta(z) ** 2
            assert alt2 / (1.0 + C_PF**4) <= fine_norm2 * (1 + 1e-10)
            assert alt2 >= (g_x**2 / (1.0 + C_J**2)) * disc_norm2 * (1 - 1e-10)
