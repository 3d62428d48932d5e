import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from psaddle import core_linalg as cl
from psaddle.errors import NotConvergedError, NotSpdError, PsaddleError

from helpers import random_spd


def _module_paths(tree: ast.Module):
    """Every dotted module path a file reaches through an import, and every
    attribute chain on an imported name resolved through its import alias."""
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.name
                root = a.name.split(".")[0]
                alias[a.asname or root] = a.name if a.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                yield f"{node.module}.{a.name}"
                alias[a.asname or a.name] = f"{node.module}.{a.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in alias:
                yield ".".join([alias[node.id], *reversed(chain)])


def test_package_uses_no_scipy_sparse_linalg():
    # the banded Cholesky and the dense pencil are the package's only
    # factorization and eigen paths; SuperLU and LOBPCG stay out
    offenders = [
        f"{path.name}: {name}"
        for path in sorted(Path(cl.__file__).parent.glob("*.py"))
        for name in _module_paths(ast.parse(path.read_text()))
        if (name + ".").startswith("scipy.sparse.linalg.")
    ]
    assert offenders == []


def test_package_forms_no_dense_kronecker_product():
    # tensor Grams, pencils and the couplings D, D^T and the trace term are
    # applied through their 1D factors, neither as dense nor as sparse
    # Kronecker products
    offenders = [
        f"{path.name}: {name}"
        for path in sorted(Path(cl.__file__).parent.glob("*.py"))
        for name in _module_paths(ast.parse(path.read_text()))
        if name in ("numpy.kron", "scipy.sparse.kron")
    ]
    assert offenders == []


class TestPcg:
    def test_matches_dense_solve(self, rng):
        A = random_spd(rng, 40)
        b = rng.standard_normal(40)
        x, its = cl.pcg(lambda v: A @ v, lambda r: r / np.diag(A), b, 1e-12, 200)
        expect = np.linalg.solve(A, b)
        assert np.abs(x - expect).max() <= 1e-9 * np.abs(expect).max()
        assert 1 <= its <= 40

    def test_exact_preconditioner_stops_within_cap(self, rng):
        A = random_spd(rng, 30)
        Ainv = np.linalg.inv(A)
        b = rng.standard_normal(30)
        cap = cl.cg_iteration_cap(1.0, 1e-10)
        x, its = cl.pcg(lambda v: A @ v, lambda r: Ainv @ r, b, 1e-10, cap)
        assert its <= 2
        assert np.abs(A @ x - b).max() <= 1e-10 * np.abs(b).max()

    def test_zero_rhs_returns_at_once(self):
        x, its = cl.pcg(lambda v: 2.0 * v, lambda r: r, np.zeros(5), 1e-10, 10)
        assert its == 0 and not np.any(x)

    def test_cap_raises_with_best(self, rng):
        A = random_spd(rng, 30, shift=1e-3)
        with pytest.raises(NotConvergedError, match="cap of 2 iterations") as err:
            cl.pcg(lambda v: A @ v, lambda r: r, rng.standard_normal(30), 1e-12, 2)
        assert err.value.iterations == 2
        assert err.value.best.shape == (30,) and np.any(err.value.best)

    def test_non_positive_curvature_raises(self):
        with pytest.raises(NotConvergedError, match="non-positive curvature") as err:
            cl.pcg(lambda v: -v, lambda r: r, np.ones(4), 1e-10, 10)
        assert not np.any(err.value.best)


class TestCgIterationCap:
    def test_closed_form(self):
        # kappa = 4: ceil(ln(4e10) / ln 3) = 23
        assert cl.cg_iteration_cap(4.0, 1e-10) == 23
        assert cl.cg_iteration_cap(1.0, 1e-10) == 2

    def test_round_off_around_one_keeps_two(self):
        for kappa in (1.0 - 1e-15, 1.0 + 1e-12):
            assert cl.cg_iteration_cap(kappa, 1e-10) == 2


class TestDenseSizeGuard:
    def test_at_limit_passes(self):
        cl.check_dense_size("limit", (cl.MAX_DENSE_BYTES // 8,))

    def test_above_limit_names_array_and_bytes(self):
        n = 16383  # dim_X of the 128 x 128 default pair
        with pytest.raises(PsaddleError, match=rf"gram .*{8 * n * n} bytes"):
            cl.check_dense_size("gram", (n, n))


class TestSpdSolve:
    """SPD refusals on the two-step path: a pattern held from an SPD matrix
    and the numeric `factor` on new data of that pattern."""

    @staticmethod
    def _held_pattern():
        return cl.banded_pattern(cl.as_csr(np.array([[2.0, 1.0], [1.0, 2.0]])))

    def test_indefinite_rejected(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotSpdError, match="positive definite"):
            self._held_pattern().factor(A)

    def test_asymmetric_rejected(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [0.5, 2.0]]))
        with pytest.raises(NotSpdError, match="not symmetric"):
            self._held_pattern().factor(A)


class TestBandedCholesky:
    """Dense-band Cholesky in reverse Cuthill-McKee order; the Galerkin
    Jacobians it serves are checked in test_monotone."""

    @pytest.mark.parametrize("case", ["identity", "diagonal", 5, 10, 50, 200])
    def test_solve_multiplies_back(self, case, rng):
        # an integer case is a random SPD matrix of that size
        if case == "identity":
            A, b = sp.eye(2, format="csr"), np.array([1.0, 2.0])
        elif case == "diagonal":
            A, b = sp.diags([2.0, 4.0]), np.array([2.0, 4.0])
        else:
            A, b = sp.csr_matrix(random_spd(rng, case)), rng.standard_normal(case)
        x = cl.banded_cholesky(A).solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_shuffled_band_against_dense_solve(self, rng):
        # a random SPD band matrix under a random symmetric permutation:
        # RCM recovers a band no wider than the original one
        n, width = 300, 4
        A = np.zeros((n, n))
        for k in range(1, width + 1):
            off = rng.uniform(-1.0, 1.0, n - k)
            A += np.diag(off, k) + np.diag(off, -k)
        A += np.diag(np.abs(A).sum(axis=1) + 1.0)
        shuffle = rng.permutation(n)
        A = A[shuffle][:, shuffle]
        fact = cl.banded_cholesky(sp.csr_matrix(A))
        assert fact.bandwidth <= 2 * width
        b = rng.standard_normal(n)
        expect = np.linalg.solve(A, b)
        assert np.abs(fact.solve(b) - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_block_right_hand_side_against_dense_solve(self, rng):
        A = random_spd(rng, 30)
        B = rng.standard_normal((30, 4))
        expect = np.linalg.solve(A, B)
        got = cl.banded_cholesky(sp.csr_matrix(A)).solve(B)
        assert got.shape == B.shape
        assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()

    def test_nonzero_lapack_info_raised(self, monkeypatch):
        # LAPACK reports an illegal argument through info, not by raising
        monkeypatch.setattr(cl, "dpbtrs", lambda cb, b, **kwargs: (b, -2))
        with pytest.raises(PsaddleError, match="dpbtrs info -2"):
            cl.banded_cholesky(sp.eye(3, format="csr")).solve(np.ones(3))

    def test_indefinite_rejected(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotSpdError, match="positive definite"):
            cl.banded_cholesky(A)

    def test_asymmetric_rejected(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]))
        with pytest.raises(NotSpdError, match="not symmetric"):
            cl.banded_cholesky(A)

    def test_one_sided_explicit_zero_accepted(self, rng):
        # a stored zero whose transpose is not stored is symmetric data:
        # the symbolic step maps the missing transpose to an implicit zero
        A = sp.csr_matrix(
            (np.array([2.0, 0.0, 2.0, 2.0]), np.array([0, 2, 1, 2]), np.array([0, 2, 3, 4])),
            shape=(3, 3),
        )
        b = rng.standard_normal(3)
        assert np.abs(cl.banded_cholesky(A).solve(b) - b / 2.0).max() <= 1e-15

    def test_one_sided_entry_past_the_last_key(self):
        # entry (0, 2) has no stored transpose, and the key of (2, 0) lies
        # past every stored key: the map gives nnz, and the nonzero meets
        # an implicit zero in the symmetry check
        A = sp.csr_matrix(
            (np.array([2.0, 1.0, 2.0, 2.0]), np.array([0, 2, 1, 2]), np.array([0, 2, 3, 4])),
            shape=(3, 3),
        )
        A_last = sp.csr_matrix(
            (np.array([2.0, 1.0, 2.0]), np.array([0, 2, 1]), np.array([0, 2, 3, 3])),
            shape=(3, 3),
        )
        assert np.array_equal(cl.banded_pattern(A).transpose, [0, 4, 2, 3])
        assert np.array_equal(cl.banded_pattern(A_last).transpose, [0, 3, 2])
        with pytest.raises(NotSpdError, match="not symmetric"):
            cl.banded_cholesky(A)

    @pytest.mark.parametrize("one_sided", [False, True])
    def test_transpose_map_against_bisection(self, one_sided, rng):
        # every entry's transpose position, or nnz where it is not stored,
        # against a dense table of the stored positions (the map itself
        # bisects over the sorted keys row * n + col)
        n = 60
        mask = np.triu(rng.uniform(size=(n, n)) < 0.1, 1)
        mask = mask | mask.T | np.eye(n, dtype=bool)
        if one_sided:
            mask &= ~np.triu(rng.uniform(size=(n, n)) < 0.3, 1)
        A = sp.csr_matrix(mask.astype(float))
        assert ((A != A.T).nnz > 0) == one_sided
        row = np.repeat(np.arange(n), np.diff(A.indptr))
        position = np.full((n, n), A.nnz)
        position[row, A.indices] = np.arange(A.nnz)
        expect = position[A.indices, row]
        assert np.array_equal(cl.banded_pattern(A).transpose, expect)

    def test_oversize_band_refused_before_allocation(self):
        # an arrow matrix: one row and column couple every unknown, so no
        # ordering has a band narrower than about n
        n = 12_000
        hub = np.zeros(n - 1, dtype=int)
        rest = np.arange(1, n)
        A = sp.csr_matrix(
            (np.concatenate([np.full(n, 4.0), np.ones(2 * (n - 1))]),
             (np.concatenate([np.arange(n), hub, rest]), np.concatenate([np.arange(n), rest, hub]))),
            shape=(n, n),
        )
        tracemalloc.start()
        try:
            with pytest.raises(PsaddleError, match="banded Cholesky band .* above the"):
                cl.banded_cholesky(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestExtremalEigen:
    def test_identity_pencil(self):
        lam = cl.smallest_generalized_eigenvalue(sp.eye(3), sp.eye(3))
        assert abs(lam - 1.0) < 1e-12

    def test_diagonal_pencil(self):
        lam = cl.smallest_generalized_eigenvalue(sp.diags([1.0, 4.0]), sp.eye(2))
        assert abs(lam - 1.0) < 1e-12

    def test_random_pencil_vs_dense_oracle(self, rng):
        n = 50
        A = random_spd(rng, n)
        B = random_spd(rng, n)
        import scipy.linalg as sla

        expect = sla.eigh(A, B, eigvals_only=True)[0]
        lam = cl.smallest_generalized_eigenvalue(sp.csr_matrix(A), sp.csr_matrix(B))
        assert abs(lam - expect) <= 1e-8 * abs(expect)

    def test_kernel_deflation(self, rng):
        # A has the constants in its kernel; deflated smallest must be positive
        n = 8
        L = np.diff(np.eye(n + 1), axis=0)  # discrete difference
        A = L.T @ L
        B = random_spd(rng, n + 1)
        kernel = np.ones((n + 1, 1))
        lam = cl.smallest_generalized_eigenvalue(
            sp.csr_matrix(A), sp.csr_matrix(B), constraint_kernel=kernel
        )
        assert lam > 1e-10

    def test_oversize_pencil_refused_before_allocation(self):
        n = 12_000
        tracemalloc.start()
        try:
            with pytest.raises(PsaddleError, match="generalized eigen pencil .* above the"):
                cl.smallest_generalized_eigenvalue(sp.eye(n), sp.eye(n))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


