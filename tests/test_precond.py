import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from psaddle import precond as pc
from psaddle import quality as ql
from psaddle.errors import InvalidSpaceError, PsaddleError
from psaddle.riesz import RieszContext, estimate_C_J
from psaddle.spaces import CONT_P1, Mesh1D, assemble_1d, default_pair

from helpers import random_spd


class TestTimeWavelets:
    def test_level0_diagonal_with_hand_alphas(self):
        # single element: no details; the two normalized half-hats have
        # H1 norm sqrt((1/3 + 1) / (1/3)) = 2 exactly
        basis = pc.build_time_wavelets(Mesh1D.uniform(1))
        assert basis.T.shape == (2, 2)
        assert abs(basis.T[0, 1]) < 1e-14 and abs(basis.T[1, 0]) < 1e-14
        assert np.allclose(np.diag(basis.T), math.sqrt(3.0))
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
            assert np.allclose(basis.T[:, col], fn / norm, atol=1e-13)

    def test_transform_invertible_and_unit_mass_diagonal(self):
        for J in range(1, 6):
            mesh = Mesh1D.uniform(2**J)
            basis = pc.build_time_wavelets(mesh)
            assert basis.T.shape == (2**J + 1, 2**J + 1)
            assert np.linalg.cond(basis.T) < 1e8
            M = assemble_1d("mass", (mesh, CONT_P1)).toarray()
            Mhat = basis.T.T @ M @ basis.T
            assert np.allclose(np.diag(Mhat), 1.0, atol=1e-12)

    def test_stability_proxy_across_levels(self):
        # measured sequence: conditions stay bounded; consecutive growth is
        # mild for the mass and vanishes for the scaled mass + stiffness
        conds_M, conds_MA = [], []
        for J in range(1, 7):
            mesh = Mesh1D.uniform(2**J)
            basis = pc.build_time_wavelets(mesh)
            M = assemble_1d("mass", (mesh, CONT_P1)).toarray()
            A = assemble_1d("stiffness", (mesh, CONT_P1)).toarray()
            Mhat = basis.T.T @ M @ basis.T
            MAhat = basis.T.T @ (M + A) @ basis.T
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
            basis = pc.build_time_wavelets(mesh, variant="hierarchical")
            M = assemble_1d("mass", (mesh, CONT_P1)).toarray()
            conds.append(np.linalg.cond(basis.T.T @ M @ basis.T))
        assert conds[1] > 4.0 * conds[0]

    def test_non_dyadic_rejected(self):
        with pytest.raises(InvalidSpaceError):
            pc.build_time_wavelets(Mesh1D.uniform(3))
        with pytest.raises(InvalidSpaceError):
            pc.build_time_wavelets(Mesh1D((0.0, 0.3, 1.0)))


class TestRXOperator:
    def test_zero(self):
        op = pc.RXOperator(default_pair(2, 2))
        assert np.all(op.apply(np.zeros(op.dim)) == 0.0)

    def test_dense_comparison_tiny(self, rng):
        # 2 temporal elements x 1 interior spatial node
        pair = default_pair(2, 2)
        op = pc.RXOperator(pair)
        Mt, At = pair.M_t_X.toarray(), pair.A_t_X.toarray()
        Ax, Mx = pair.A_x.toarray(), pair.M_x.toarray()
        R = np.kron(Mt, Ax) + np.kron(Mt + At, Mx @ np.linalg.solve(Ax, Mx))
        v = rng.standard_normal(op.dim)
        assert np.allclose(op.apply(v), R @ v, atol=1e-13)

    def test_symmetry(self, rng):
        op = pc.RXOperator(default_pair(4, 5))
        v = rng.standard_normal(op.dim)
        w = rng.standard_normal(op.dim)
        assert abs(v @ op.apply(w) - w @ op.apply(v)) <= 1e-12


class TestBlockDiagPrecond:
    def test_zero(self):
        pair = default_pair(4, 4)
        prec = pc.BlockDiagPrecond(pc.build_time_wavelets(pair.mesh_t_X), pair)
        assert np.all(prec.apply(np.zeros(prec.dim)) == 0.0)

    def test_alpha_zero_limit_reduces_to_stiffness_inverse(self, rng):
        # with T = Id and alpha = 0 every block is A_x^{-1}
        pair = default_pair(1, 6)
        basis = pc.TimeWaveletBasis(T=np.eye(2), alphas=np.zeros(2))
        prec = pc.BlockDiagPrecond(basis, pair)
        h = rng.standard_normal(prec.dim)
        H = h.reshape(2, pair.dim_x)
        Ax = pair.A_x.toarray()
        expect = np.vstack([np.linalg.solve(Ax, H[0]), np.linalg.solve(Ax, H[1])])
        assert np.allclose(prec.apply(h), expect.reshape(-1), atol=1e-12)

    def test_spd_quadratic_form(self, rng):
        pair = default_pair(8, 6)
        prec = pc.BlockDiagPrecond(pc.build_time_wavelets(pair.mesh_t_X), pair)
        for _ in range(10):
            h = rng.standard_normal(prec.dim)
            assert h @ prec.apply(h) > 0.0
        v, w = rng.standard_normal(prec.dim), rng.standard_normal(prec.dim)
        assert abs(v @ prec.apply(w) - w @ prec.apply(v)) <= 1e-12


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
    def test_uniformity_and_floor(self):
        results = pc.kappa_study(5, n_x=8)
        kappas = [k for (_, _, k) in results]
        assert min(kappas) >= 1.0
        assert max(kappas) / min(kappas) <= 2.0

    def test_exact_inverse_control(self):
        # control run: preconditioning with the exact inverse gives kappa = 1
        pair = default_pair(4, 4)
        op = pc.RXOperator(pair)
        dense = np.column_stack([op.apply(col) for col in np.eye(op.dim)])
        kappa = pc.mode_kappa(op, lambda v: np.linalg.solve(dense, v))
        assert abs(kappa - 1.0) <= 1e-10

    @pytest.mark.parametrize("levels, n_x", [(4, 4), (5, 8)])
    def test_equals_dense_pencil(self, levels, n_x):
        # the finest level's kappa against the dense pencil of the same
        # operators: 4.8406 at 16 x 4 and 6.2964 at 32 x 8
        pair = default_pair(2**levels, n_x)
        op = pc.RXOperator(pair)
        prec = pc.BlockDiagPrecond(pc.build_time_wavelets(pair.mesh_t_X), pair)
        eye = np.eye(op.dim)
        R = np.column_stack([op.apply(col) for col in eye])
        Pinv = np.column_stack([prec.apply(col) for col in eye])
        P = np.linalg.inv(0.5 * (Pinv + Pinv.T))
        ev = sla.eigh(0.5 * (R + R.T), 0.5 * (P + P.T), eigvals_only=True)
        exact = ev[-1] / ev[0]
        level, dim, kappa = pc.kappa_study(levels, n_x=n_x)[-1]
        assert (level, dim) == (levels, op.dim)
        assert abs(kappa - exact) <= 1e-12 * exact

    def test_oversize_level_refused_up_front(self):
        # level 12 at n_x = 8: the mode blocks would take 1.88 GB; the
        # refusal comes before any level is computed
        tracemalloc.start()
        try:
            with pytest.raises(PsaddleError, match="kappa mode blocks"):
                pc.kappa_study(12, n_x=8)
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
        op = pc.RXOperator(pair)
        two = ql.TwoLevel(pair, ql._surrogate_pair(pair))
        C_PF = 1.0 / math.pi
        C_J = estimate_C_J(two.ctx_fine)
        g_x = ql.gamma_x(two)
        for _ in range(20):
            z = rng.standard_normal(pair.dim_X)
            alt2 = z @ op.apply(z)
            fine_norm2 = two.ctx_fine.norm_X_delta(two.prolong_X(z)) ** 2
            disc_norm2 = ctx.norm_X_delta(z) ** 2
            assert alt2 / (1.0 + C_PF**4) <= fine_norm2 * (1 + 1e-10)
            assert alt2 >= (g_x**2 / (1.0 + C_J**2)) * disc_norm2 * (1 - 1e-10)
