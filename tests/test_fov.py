import warnings

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import given, settings
from hypothesis import strategies as st

from numrange.errors import NumericError
from numrange.fov import (
    arc_midpoints,
    boundary,
    contains,
    hermitian_part,
    numerical_radii,
    numerical_radius,
    support_values,
)
from numrange.linalg import operator_norm
from numrange.verify import random_matrix

SHIFT2 = np.array([[0, 2], [0, 0]], dtype=complex)


def random_complex(rng, n):
    return rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))


JORDAN_C = 1.5 * (0.6 + 0.8j)


def _extreme_pair_inputs() -> dict:
    """Inputs whose H(theta) has tied or near-tied extreme eigenvalues, a
    flat or polygonal W(T), no off-diagonal or an extreme scale."""
    rng = np.random.default_rng(15)
    U = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    cases = {"cI": (0.3 - 0.7j) * np.eye(5),
             "cI-2x2": (0.3 - 0.7j) * np.eye(2),
             "diag(1,i,-1,-i)": np.diag([1, 1j, -1, -1j]),
             "tie-1e-12": U @ np.diag([1, 1 + 1e-12, 0.5j, -0.2]) @ U.conj().T,
             "zero": np.zeros((3, 3)),
             "1x1": np.array([[0.3 - 0.4j]])}
    cases.update({f"roots-{n}": np.diag(np.exp(2j * np.pi * np.arange(n) / n))
                  for n in (3, 8, 30, 64)})
    cases.update({f"jordan-{n}": JORDAN_C * np.eye(n, k=1) for n in range(2, 17)})
    cases.update({f"draw-{n}-2^{k}": random_matrix(rng, n) * 2.0 ** k
                  for k in (600, -600) for n in (2, 5, 16)})
    return {name: T.astype(complex) for name, T in cases.items()}


EXTREME_PAIR_INPUTS = _extreme_pair_inputs()


class TestHermitianPart:
    def test_shift_theta_zero(self):
        assert np.allclose(hermitian_part(SHIFT2, 0.0),
                           np.array([[0, 1], [1, 0]]))

    def test_real_diagonal_at_quarter_turn(self):
        T = np.diag([1.0, 2.0]).astype(complex)
        assert np.allclose(hermitian_part(T, np.pi / 2), np.zeros((2, 2)))

    def test_cartesian_reconstruction(self):
        rng = np.random.default_rng(3)
        T = random_complex(rng, 5)
        for theta in (0.0, 0.7, 2.1):
            R = np.exp(1j * theta) * (hermitian_part(T, theta)
                                      + 1j * hermitian_part(T, theta + np.pi / 2))
            assert np.max(np.abs(R - T)) < 1e-12

    def test_exactly_hermitian(self):
        rng = np.random.default_rng(4)
        H = hermitian_part(random_complex(rng, 6), 1.3)
        assert np.array_equal(H, H.conj().T)

    def test_entries_near_overflow(self):
        # (T + T*)/2 was formed from the raw T, and overflowed to nan
        T = np.array([[1e308, 1e308], [0, 1e308]])
        H = hermitian_part(T)
        assert H.tolist() == [[1e308, 5e307], [5e307, 1e308]]

    def test_entry_beyond_float_range_raises(self):
        # H(pi/4) has diagonal sqrt(2) 1.7e308
        T = 1.7e308 * (1 + 1j) * np.eye(2)
        with pytest.raises(NumericError, match=r"Hermitian part entry 0 is \(inf"):
            hermitian_part(T, np.pi / 4)


class TestBoundary:
    def test_shift_gives_unit_circle(self):
        curve = boundary(SHIFT2, 360)
        assert np.max(np.abs(np.abs(curve.points) - 1.0)) < 1e-8

    def test_normal_matrix_gives_segment(self):
        curve = boundary(np.diag([0.0, 1.0]).astype(complex), 360)
        assert np.allclose(curve.supports, np.maximum(0.0, np.cos(curve.thetas)),
                           atol=1e-12)
        assert np.max(np.abs(curve.points.imag)) < 1e-10
        assert curve.points.real.min() > -1e-10
        assert curve.points.real.max() < 1 + 1e-10
        # both endpoints of the segment show up
        assert np.min(np.abs(curve.points)) < 1e-8
        assert np.min(np.abs(curve.points - 1.0)) < 1e-8

    def test_disk_center_half_radius_three_quarters(self):
        T = np.eye(2) / 2 - 0.75 * SHIFT2
        curve = boundary(T, 360)
        assert np.max(np.abs(np.abs(curve.points - 0.5) - 0.75)) < 1e-8

    def test_curve_invariants(self):
        rng = np.random.default_rng(5)
        T = random_complex(rng, 6)
        curve = boundary(T, 128)
        assert np.all(np.diff(curve.thetas) > 0)
        proj = np.real(np.exp(-1j * curve.thetas) * curve.points)
        assert np.max(np.abs(proj - curve.supports)) < 1e-8
        # every point lies in the intersection of all sampled half-planes
        excess = (np.real(np.outer(curve.points, np.exp(-1j * curve.thetas)))
                  - curve.supports[None, :])
        assert excess.max() < 1e-8

    def test_convexity_of_boundary_polygon(self):
        rng = np.random.default_rng(6)
        T = random_complex(rng, 5)
        pts = boundary(T, 256).points
        scale = np.abs(pts).max()
        e = np.diff(np.concatenate([pts, pts[:1]]))
        cross = (e.real * np.roll(e, -1).imag - e.imag * np.roll(e, -1).real)
        assert cross.min() > -1e-8 * scale

    def test_compressed_shift_ellipse(self):
        # elliptical range theorem: W of the 2x2 compressed shift is the
        # ellipse with foci a1, a2 and major axis sqrt(|a1-a2|^2 + s1^2 s2^2)
        rng = np.random.default_rng(11)
        for _ in range(50):
            a1, a2 = 0.95 * np.sqrt(rng.uniform(size=2)) * np.exp(
                2j * np.pi * rng.uniform(size=2))
            s1s2 = np.sqrt((1 - abs(a1) ** 2) * (1 - abs(a2) ** 2))
            pts = boundary(np.array([[a1, s1s2], [0, a2]]), 360).points
            axis = np.hypot(abs(a1 - a2), s1s2)
            assert np.max(np.abs(np.abs(pts - a1) + np.abs(pts - a2)
                                 - axis)) < 1e-12

    def test_multiple_of_identity(self):
        # H(theta) = Re(e^{-i theta} c) I, where the 2x2 closed form divided
        # 0 by 0 for h' and h'': Newton never moved, and the radius fell
        # up to 2.8e-8 low
        rng = np.random.default_rng(16)
        for c in rng.uniform(-1, 1, 50) + 1j * rng.uniform(-1, 1, 50):
            T = c * np.eye(2)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert abs(numerical_radius(T) - abs(c)) <= 1e-15 * abs(c)
                assert np.abs(boundary(T, 360).points - c).max() <= 4e-15 * abs(c)

    def test_rejects_too_few_angles(self):
        with pytest.raises(ValueError):
            boundary(SHIFT2, 4)

    @pytest.mark.parametrize("n_angles, solved", [(360, 180), (361, 361)])
    def test_one_eigensolve_per_antipodal_pair(self, monkeypatch, n_angles, solved):
        # H(theta + pi) = -H(theta): an even grid reduces only its first half,
        # one tridiagonal reduction per angle and no full eigendecomposition
        reductions = []
        zhetrd = scipy.linalg.lapack.zhetrd

        def counting(a, *args, **kwargs):
            reductions.append(np.shape(a))
            return zhetrd(a, *args, **kwargs)

        def no_eigh(*args, **kwargs):
            raise AssertionError("boundary called np.linalg.eigh")

        monkeypatch.setattr(scipy.linalg.lapack, "zhetrd", counting)
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        boundary(random_complex(np.random.default_rng(7), 4), n_angles)
        assert reductions == [(4, 4)] * solved

    @pytest.mark.parametrize("name", EXTREME_PAIR_INPUTS)
    def test_extreme_pairs_match_eigh(self, name):
        # boundary computes only eigenpairs 1 and n of each H(theta); they
        # must be those of a full eigensolve of the same H. MRRR for a single
        # index returned eigenpair 2 in place of 1 on the 1e-12 tie
        T = EXTREME_PAIR_INPUTS[name]
        curve = boundary(T, 360)
        vals = np.linalg.eigh(np.array([hermitian_part(T, t) for t in curve.thetas[:180]]))[0]
        norm = operator_norm(T)
        supports = np.concatenate([vals[:, -1], -vals[:, 0]])
        assert np.abs(curve.supports - supports).max() <= 1e-14 * norm
        if name.startswith("jordan"):
            n = len(T)
            assert np.abs(curve.supports - abs(JORDAN_C) * np.cos(np.pi / (n + 1))).max() <= 1e-14 * norm
        # each point lies on its supporting line and inside every half-plane
        proj = np.real(np.exp(-1j * curve.thetas)[:, None] * curve.points[None, :])
        assert np.abs(np.diagonal(proj) - curve.supports).max() <= 1e-13 * norm
        assert (proj - curve.supports[:, None]).max() <= 1e-13 * norm

    def test_matches_support_values(self):
        # the antipodal rows come from the bottom eigenpair of H(theta)
        rng = np.random.default_rng(8)
        for n in range(1, 17):
            T = random_matrix(rng, n)
            scale = max(1.0, operator_norm(T))
            for n_angles in (360, 361):
                for k in (0, 600, -600):
                    curve = boundary(T * 2.0 ** k, n_angles)
                    tol = 2.0 ** k * scale
                    supports = support_values(T * 2.0 ** k, curve.thetas)
                    assert np.max(np.abs(curve.supports - supports)) <= 1e-14 * tol
                    # each point lies on its supporting line
                    proj = np.real(np.exp(-1j * curve.thetas) * curve.points)
                    assert np.max(np.abs(proj - curve.supports)) <= 1e-13 * tol


class TestNumericalRadius:
    def test_scaled_shift(self):
        assert numerical_radius(SHIFT2) == pytest.approx(1.0, abs=1e-9)

    def test_half_shift_brute_force(self):
        # oracle: x = (cos s, e^{i phi} sin s) gives <Tx,x> = e^{i phi} sin s cos s
        T = np.array([[0, 1], [0, 0]], dtype=complex)
        ss = np.linspace(0, np.pi / 2, 2001)
        oracle = np.max(np.abs(np.sin(ss) * np.cos(ss)))
        assert oracle == pytest.approx(0.5, abs=1e-6)
        assert numerical_radius(T) == pytest.approx(0.5, abs=1e-9)

    def test_self_adjoint_equals_norm(self):
        rng = np.random.default_rng(10)
        M = random_complex(rng, 5)
        H = (M + M.conj().T) / 2
        assert numerical_radius(H) == pytest.approx(operator_norm(H), abs=1e-9)

    def test_near_tied_peaks_far_apart(self):
        # two peaks of the support function 1.6 rad apart, the lower one
        # (1 - 1e-5) placed on a 256-angle grid point and the true maximum
        # half-way between two: refining only the best sample's bracket
        # returns 0.99999
        step = 2 * np.pi / 256
        T = np.diag([np.exp(1j * 10.5 * step),
                     (1 - 1e-5) * np.exp(1j * 100 * step), 0.3])
        assert numerical_radius(T) == pytest.approx(1.0, abs=1e-12)

    def test_jordan_block_disk(self):
        # W(J_n) is the disk of radius cos(pi/(n+1)): the support function
        # is flat, so every cell stays a candidate
        for n in (3, 8):
            J = np.eye(n, k=1, dtype=complex)
            assert numerical_radius(J) == pytest.approx(np.cos(np.pi / (n + 1)),
                                                        abs=1e-12)

    def test_two_by_two_matches_zero_padded(self):
        # W(T + 0) is the convex hull of W(T) and 0, so the radius is the
        # same; the 2x2 closed form and the eigensolver path must agree
        rng = np.random.default_rng(13)
        for _ in range(20):
            T = random_complex(rng, 2)
            padded = np.zeros((3, 3), dtype=complex)
            padded[:2, :2] = T
            assert numerical_radius(T) == pytest.approx(numerical_radius(padded),
                                                        abs=1e-12)

    def test_extreme_scales(self):
        # squaring the entries of H(theta) would underflow to w = 0 at 1e-200
        # and overflow to inf at 1e200
        for scale in (1e-200, 1e200):
            for T in (SHIFT2, np.eye(3, k=1, dtype=complex) * 2):
                expected = scale * numerical_radius(T)
                assert numerical_radius(scale * T) == pytest.approx(expected, rel=1e-12)

    def test_level_just_above_is_never_reached(self):
        # the rounding stop is the kernel's only stop rule; certify it: above
        # w(1 + 1e-12), h has one sign on every arc between the level cuts,
        # so no arc midpoint may exceed the level
        rng = np.random.default_rng(2009)
        for _ in range(200):
            T = random_matrix(rng)
            level = numerical_radius(T) * (1 + 1e-12)
            assert support_values(T, arc_midpoints([(T, level)])).max() <= level

    def test_at_least_grid_maximum(self):
        rng = np.random.default_rng(11)
        T = random_complex(rng, 4)
        thetas = 2 * np.pi * np.arange(256) / 256
        assert numerical_radius(T) >= support_values(T, thetas).max()


class TestNumericalRadii:
    def test_mixed_list_matches_one_by_one(self):
        # sizes interleave in the list, so the stack regroups them by n and
        # must hand back every radius in list order, bitwise
        rng = np.random.default_rng(23)
        mats = [random_complex(rng, 2) for _ in range(5)]
        mats += [np.eye(n, k=1, dtype=complex) for n in range(2, 17)]
        mats += [np.diag([np.exp(1j * phi), (1 - 1e-6) * np.exp(1j * (phi + g)), 0.3])
                 for phi, g in zip(rng.uniform(0, 2 * np.pi, 8), np.geomspace(1e-3, 0.3, 8))]
        mats += [random_matrix(rng, n) for n in range(2, 9) for _ in range(3)]
        mats += [np.zeros((3, 3)), np.array([[0.3 - 0.4j]])]
        mats = [mats[i] for i in rng.permutation(len(mats))]
        radii = numerical_radii(mats)
        assert radii.shape == (len(mats),)
        assert radii.tolist() == [numerical_radius(T) for T in mats]
        assert radii[[T.shape == (3, 3) and not T.any() for T in mats]].tolist() == [0.0]

    def test_empty_list(self):
        radii = numerical_radii([])
        assert radii.shape == (0,)

    def test_power_of_two_scales_are_exact(self):
        # at 2^600 the 2x2 closed form's squares overflowed: the radius came
        # out low by up to 2e-6, and zero-width cells raised ZeroDivisionError
        rng = np.random.default_rng(600)
        mats = [random_matrix(rng, dim=2) for _ in range(300)]
        radii = numerical_radii(mats)
        for k in (600, -600):
            scaled = [T * 2.0 ** k for T in mats]
            assert [numerical_radius(T) for T in scaled] == np.ldexp(radii, k).tolist()
            assert numerical_radii(scaled).tolist() == np.ldexp(radii, k).tolist()

    def test_hermitian_part_overflow(self):
        # (T + T*)/2 overflows, which gave nan; W(T) is the disk about 1e308
        # of radius 0.5e308
        T = np.array([[1e308, 1e308], [0, 1e308]])
        assert numerical_radius(T) == pytest.approx(1.5e308, rel=1e-15)
        J = np.eye(3, dtype=complex) + np.eye(3, k=1)
        assert numerical_radius(1e308 * J) == pytest.approx(1e308 * numerical_radius(J),
                                                            rel=1e-15)

    def test_radius_beyond_float_range_raises(self):
        T = np.array([[1.7e308, 1.7e308], [0, 1.7e308]])
        with pytest.raises(NumericError):
            numerical_radius(T)
        with pytest.raises(NumericError, match="matrix 1"):
            numerical_radii([SHIFT2, T])


class TestPrescale:
    def test_entry_points_scale_exactly(self):
        # support_values, boundary and the level cuts formed H(theta) and the
        # pencil from the raw T: at 2^600 the 2x2 closed form's squares
        # overflowed, and the pencil lost or moved cuts
        rng = np.random.default_rng(601)
        thetas = np.linspace(0.0, 2.0 * np.pi, 29)
        for _ in range(60):
            T = random_matrix(rng)
            level = 0.7 * numerical_radius(T)
            supports = support_values(T, thetas)
            curve = boundary(T, 16)
            arcs = arc_midpoints([(T, level)])
            for k in (600, -600):
                S = T * 2.0 ** k
                assert support_values(S, thetas).tolist() == np.ldexp(supports, k).tolist()
                scaled = boundary(S, 16)
                assert scaled.supports.tolist() == np.ldexp(curve.supports, k).tolist()
                assert scaled.points.tolist() == (curve.points * 2.0 ** k).tolist()
                assert arc_midpoints([(S, level * 2.0 ** k)]).tolist() == arcs.tolist()

    def test_entries_near_overflow(self):
        # H(0) = [[1, 1/2], [1/2, 1]] 1e308 has top eigenvalue 1.5e308
        T = np.array([[1e308, 1e308], [0, 1e308]])
        assert support_values(T, 0.0)[0] == pytest.approx(1.5e308, rel=1e-15)
        curve = boundary(T, 8)
        assert curve.supports[0] == pytest.approx(1.5e308, rel=1e-15)
        assert np.all(np.isfinite(curve.points))

    def test_support_beyond_float_range_raises(self):
        # h(0) = 2e308; numpy's eigensolver raised LinAlgError on the inf
        # entries of H(0)
        T = 1e308 * np.triu(np.ones((3, 3)))
        with pytest.raises(NumericError, match="support value 0 is inf"):
            support_values(T, [0.0, np.pi])
        with pytest.raises(NumericError, match="support value 0 is inf"):
            boundary(T, 8)


class TestContains:
    def test_unit_disk_membership(self):
        assert contains(SHIFT2, 1.0)
        assert not contains(SHIFT2, 1.01, tol=1e-6)

    def test_mean_of_diagonal_is_inside(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            T = random_complex(rng, int(rng.integers(2, 7)))
            assert contains(T, np.trace(T) / T.shape[0])

    @pytest.mark.parametrize("d, inside", [(8.6e-3, False), (1e-6, False),
                                           (-1e-6, True)])
    def test_square_edge_between_grid_angles(self, d, inside):
        # W(T) is the square with vertices e^{i pi/256} i^k, so the outward
        # normal of an edge sits half-way between two of the 256 angles the
        # sampled test used; z is d beyond that edge's midpoint (defect (b):
        # the grid accepted points up to 8.7e-3 outside)
        rng = np.random.default_rng(14)
        U = np.linalg.qr(random_complex(rng, 4))[0]
        T = U @ (np.exp(1j * np.pi / 256) * np.diag([1, 1j, -1, -1j])) @ U.conj().T
        z = (np.sqrt(2) / 2 + d) * np.exp(1j * (np.pi / 4 + np.pi / 256))
        assert contains(T, z, tol=1e-9) is inside


class TestInvariants:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_norm_radius_sandwich(self, seed):
        rng = np.random.default_rng(seed)
        T = random_complex(rng, int(rng.integers(2, 7)))
        w = numerical_radius(T)
        norm = operator_norm(T)
        assert norm / 2 - 1e-8 <= w <= norm + 1e-8

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_power_inequality(self, seed):
        rng = np.random.default_rng(seed)
        T = random_complex(rng, int(rng.integers(2, 7)))
        T /= numerical_radius(T)
        P = T
        for _ in range(2, 7):
            P = P @ T
            assert numerical_radius(P) <= 1 + 1e-7

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10 ** 9))
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        T = random_complex(rng, n)
        U = np.linalg.qr(random_complex(rng, n))[0]
        assert numerical_radius(U.conj().T @ T @ U) == pytest.approx(
            numerical_radius(T), abs=1e-8)
