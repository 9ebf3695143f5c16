import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numrange.errors import NotHermitianError, SingularError
from numrange.linalg import certify_above, is_psd, min_eigenvalue, operator_norm, solve


def random_hermitian(rng, n):
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (M + M.conj().T) / 2


def with_spectrum(rng, lams):
    """U diag(lams) U* for a random unitary U, made exactly Hermitian."""
    n = len(lams)
    U, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    H = (U * np.asarray(lams, dtype=float)) @ U.conj().T
    return (H + H.conj().T) / 2


class TestSolve:
    def test_identity(self):
        B = np.array([[1, 2], [3j, 4]], dtype=complex)
        assert np.allclose(solve(np.eye(2), B), B)

    def test_scalar_matrix(self):
        X = solve(2 * np.eye(3), np.eye(3))
        assert np.allclose(X, np.eye(3) / 2)

    def test_multiply_back_residual(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)) + 3 * np.eye(5)
        B = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        X = solve(A, B)
        bound = 1e-10 * (1 + np.linalg.norm(A, 2) * np.linalg.norm(X, 2))
        assert np.linalg.norm(A @ X - B, 2) <= bound

    def test_singular_raises(self):
        A = np.array([[1, 2], [2, 4]], dtype=complex)
        with pytest.raises(SingularError):
            solve(A, np.eye(2))

    def test_pivot_threshold_scales_with_frobenius_norm(self):
        # ||A||_2 = 1 but ||A||_F = sqrt(7): the last pivot 2e-13 passes a
        # 1e-13 * ||A||_2 threshold and must fail 1e-13 * ||A||_F
        A = np.diag([1.0] * 7 + [2e-13]).astype(complex)
        with pytest.raises(SingularError):
            solve(A, np.eye(8))

    @pytest.mark.parametrize("n, singular", [(32, False), (64, True)])
    def test_near_singular_behind_unit_pivots(self, n, singular):
        # ones on the diagonal and -1 above it: partial pivoting swaps no
        # rows and leaves every pivot 1, yet sigma_min is 1e-17 at n = 64
        # (cond 3.8e18), where LU alone returned entries of 4.6e18; at n = 32
        # (cond 2.8e10) the system is still solved
        A = np.eye(n) - np.triu(np.ones((n, n)), 1)
        if singular:
            with pytest.raises(SingularError, match="singular value"):
                solve(A, np.eye(n))
        else:
            X = solve(A, np.eye(n))
            assert np.abs(A @ X - np.eye(n)).max() <= 1e-12 * np.abs(X).max()


    def test_stack_members_equal_one_matrix_calls(self):
        rng = np.random.default_rng(12)
        for n in range(1, 9):
            A = rng.normal(size=(6, n, n)) + 1j * rng.normal(size=(6, n, n))
            B = rng.normal(size=(6, n, 2)) + 1j * rng.normal(size=(6, n, 2))
            X = solve(A, B)
            assert X.shape == (6, n, 2)
            for k in range(6):
                assert X[k].tobytes() == solve(A[k], B[k]).tobytes()

    def test_stack_names_its_singular_members(self):
        A = np.stack([np.eye(3), np.ones((3, 3)), 2 * np.eye(3), np.zeros((3, 3))])
        with pytest.raises(SingularError, match=r"members \[1, 3\]"):
            solve(A, np.ones((4, 3, 1)))

    def test_stack_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            solve(np.stack([np.eye(2)] * 3), np.ones((3, 2)))
        with pytest.raises(ValueError):
            solve(np.stack([np.eye(2)] * 3), np.ones((2, 2, 1)))


class TestIsPsd:
    def test_identity(self):
        ok, lam = is_psd(np.eye(4))
        assert ok and abs(lam - 1) < 1e-12

    def test_below_region_boundary_witness(self):
        # Q([[0,2],[0,0]], t, t^2 - 1/4 - 0.01) = [[1, 2t], [2t, 1+4s]]
        t = 0.3
        s = t * t - 0.25 - 0.01
        H = np.array([[1, 2 * t], [2 * t, 1 + 4 * s]], dtype=complex)
        ok, lam = is_psd(H)
        assert not ok and lam < 0
        assert abs(np.linalg.det(H).real - (-0.04)) < 1e-12

    def test_rank_one_psd(self):
        ok, lam = is_psd(np.ones((2, 2)))
        assert ok and abs(lam) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            is_psd(np.array([[1, 1], [0, 1]], dtype=complex))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_rejects_a_tol_that_switches_the_check_off(self, tol):
        # a NaN tol made every deviation pass: min_eigenvalue gave -1.5 here
        H = np.array([[1.0, 5.0], [0.0, 1.0]])
        for check in (min_eigenvalue, is_psd):
            with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
                check(H, tol)
            with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
                check(np.eye(2), tol)


class TestMinEigenvalueStack:
    def test_stack_equals_per_matrix_loop(self):
        rng = np.random.default_rng(21)
        for n in range(2, 9):
            H = np.stack([random_hermitian(rng, n) for _ in range(9)])
            lams = min_eigenvalue(H)
            assert lams.shape == (9,)
            assert np.array_equal(lams, [min_eigenvalue(h) for h in H])

    def test_matrix_gives_float(self):
        rng = np.random.default_rng(22)
        assert type(min_eigenvalue(random_hermitian(rng, 3))) is float

    def test_one_non_hermitian_member_raises(self):
        rng = np.random.default_rng(23)
        H = np.stack([random_hermitian(rng, 4) for _ in range(5)])
        H[3, 0, 1] += 1e-3
        with pytest.raises(NotHermitianError, match="matrix 3 "):
            min_eigenvalue(H)

    def test_tolerance_is_per_matrix(self):
        # the same deviation passes next to a large norm and fails next to
        # a small one, whatever else the stack holds
        big = np.array([[1e4, 0], [1e-6, 1e4]], dtype=complex)
        small = np.array([[1, 0], [1e-6, 1]], dtype=complex)
        assert min_eigenvalue(big) == pytest.approx(1e4)
        with pytest.raises(NotHermitianError, match="matrix 1 "):
            min_eigenvalue(np.stack([big, small]))

    def test_non_finite_member_raises(self):
        H = np.stack([np.eye(3, dtype=complex)] * 4)
        H[2, 1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            min_eigenvalue(H)

    def test_rejects_non_square_and_deeper_stacks(self):
        with pytest.raises(ValueError, match="square"):
            min_eigenvalue(np.zeros((3, 2, 4)))
        with pytest.raises(ValueError, match="square"):
            min_eigenvalue(np.zeros((2, 3, 2, 2)))


class TestMinEigenvalueNearOverflow:
    # (H + H*)/2 and the Frobenius norms overflowed: [[1e308, 0], [0, 1]]
    # gave nan, and from about 1e154 the norms raised a RuntimeWarning

    def test_matrix(self):
        assert min_eigenvalue(np.array([[1e308, 0], [0, 1]], dtype=complex)) == 1.0

    def test_stack_with_one_such_member(self):
        rng = np.random.default_rng(24)
        H = np.stack([random_hermitian(rng, 2) for _ in range(4)])
        H[2] = [[2.0, 0.0], [0.0, 1e308]]
        lams = min_eigenvalue(H)
        assert lams[2] == 2.0
        assert np.array_equal(np.delete(lams, 2), min_eigenvalue(np.delete(H, 2, axis=0)))

    def test_near_hermitian_large_matrix(self):
        # within tolerance of Hermitian, so symmetrized: its norms are taken
        # after scaling, and it is halved before the sum, which could overflow
        for big in (1e200, 1e308):
            H = np.array([[big, 1.0], [1.0 + 1e-6, big / 2]], dtype=complex)
            assert min_eigenvalue(H) == big / 2
        message = r"deviates from Hermitian by 1.414e\+300 \(allowed 1.414e\+291\)"
        with pytest.raises(NotHermitianError, match=message):
            min_eigenvalue(np.array([[1e300, 1e300], [0.0, 1.0]], dtype=complex))


class TestCertifyAbove:
    # True must prove lambda_min > c: never True where eigvalsh gives
    # lambda_min <= c

    @staticmethod
    def _never_above(H, c, certified):
        lams = np.linalg.eigvalsh(H)[:, 0]
        assert certified.dtype == bool and certified.shape == lams.shape
        assert not np.any(certified & (lams <= c))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_seeded_stacks(self, n):
        rng = np.random.default_rng([31, n])
        H = np.stack([random_hermitian(rng, n) for _ in range(40)])
        lams = np.linalg.eigvalsh(H)[:, 0]
        scale = np.abs(H).max(axis=(1, 2))
        for gap in (-1e-3, -1e-9, -1e-13, 0.0, 1e-13, 1e-9, 1e-3):
            c = lams - gap * scale
            certified = certify_above(H, c)
            self._never_above(H, c, certified)
            if gap >= 1e-9:
                assert certified.all()
        # one level for the whole stack: away from it, certified iff above
        c = float(np.median(lams))
        certified = certify_above(H, c)
        self._never_above(H, c, certified)
        far = np.abs(lams - c) > 1e-9 * scale
        assert np.array_equal(certified[far], lams[far] > c)

    @pytest.mark.parametrize("n", [2, 5, 8, 16])
    def test_near_singular_members(self, n):
        # lambda_min = c + k eps scale for k = -8..8: the pad is above any
        # of these gaps, so none is certified, and eigvalsh is the oracle
        rng = np.random.default_rng([32, n])
        eps = np.finfo(float).eps
        for c, scale in ((0.0, 1.0), (0.7, 4.0), (-3.0, 10.0)):
            H = np.stack([with_spectrum(rng, [c + k * eps * scale]
                                        + list(rng.uniform(c + 0.5 * scale, c + scale, n - 1)))
                          for k in range(-8, 9)])
            certified = certify_above(H, c)
            self._never_above(H, c, certified)
            assert not certified.any()
            assert certify_above(H, c - 1e-12 * scale).all()

    @pytest.mark.parametrize("power", [500, -500])
    def test_scaled_entries(self, power):
        rng = np.random.default_rng(33)
        H = np.stack([random_hermitian(rng, 6) for _ in range(30)])
        lams = np.linalg.eigvalsh(H)[:, 0]
        factor = 2.0 ** power
        for gap in (-1e-6, 0.0, 1e-6):
            c = (lams - gap) * factor
            certified = certify_above(H * factor, c)
            self._never_above(H * factor, c, certified)
            assert certified.all() == (gap > 0)

    def test_empty_stack(self):
        certified = certify_above(np.zeros((0, 3, 3), dtype=complex), 0.0)
        assert certified.shape == (0,) and certified.dtype == bool

    @pytest.mark.parametrize("k", [1, 2, 7, 16])
    def test_one_failing_member_at_each_position(self, k):
        # numpy raises for the whole stack; the split isolates the member
        rng = np.random.default_rng([34, k])
        for j in range(k):
            H = np.stack([with_spectrum(rng, rng.uniform(1.0, 2.0, 4)) for _ in range(k)])
            H[j] = with_spectrum(rng, [0.5, 1.0, 1.5, 2.0])
            assert np.array_equal(certify_above(H, 0.9), np.arange(k) != j)

    def test_checks_hermitian_and_levels(self):
        H = np.stack([np.eye(2, dtype=complex)] * 3)
        H[1, 0, 1] = 1e-3
        with pytest.raises(NotHermitianError, match="matrix 1 "):
            certify_above(H, 0.0)
        with pytest.raises(ValueError, match="finite"):
            certify_above(np.stack([np.eye(2)] * 2), [0.0, np.nan])
        with pytest.raises(ValueError, match="square"):
            certify_above(np.eye(2), 0.0)


class TestOperatorNorm:
    def test_scaled_shift(self):
        assert operator_norm(np.array([[0, 2], [0, 0]])) == pytest.approx(2.0)

    def test_identity(self):
        assert operator_norm(np.eye(5)) == pytest.approx(1.0)

    def test_random_probe_lower_bound_and_power_iteration(self):
        rng = np.random.default_rng(13)
        T = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        norm = operator_norm(T)
        xs = rng.normal(size=(10000, 4)) + 1j * rng.normal(size=(10000, 4))
        xs /= np.linalg.norm(xs, axis=1)[:, None]
        probes = np.linalg.norm(xs @ T.T, axis=1)
        assert probes.max() <= norm + 1e-12
        # independent oracle: power iteration on T*T
        G = T.conj().T @ T
        v = xs[int(np.argmax(probes))]
        for _ in range(500):
            v = G @ v
            v /= np.linalg.norm(v)
        sigma = np.sqrt(np.vdot(v, G @ v).real)
        assert norm == pytest.approx(sigma, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_submultiplicative(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        assert operator_norm(A @ B) <= operator_norm(A) * operator_norm(B) + 1e-9
