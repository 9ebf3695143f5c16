import math

import numpy as np
import pytest

from numrange.blaschke import BlaschkeProduct, circle_log_derivative, level_set
from numrange.diskfun import mobius_automorphism
from numrange.errors import (
    DomainError,
    NegativeTError,
    NotOnCircleError,
    NotUnimodularError,
)
from numrange.fov import numerical_radius
from numrange.linalg import is_psd, min_eigenvalue
from numrange.regions import (
    drury_params_inner,
    drury_params_outer,
    q_form,
    region_S_boundary,
    region_S_contains,
    teardrop_boundary,
    teardrop_contains,
    teardrop_distance,
    teardrop_support,
)

SHIFT2 = np.array([[0, 2], [0, 0]], dtype=complex)


def normalized_random(seed, n):
    rng = np.random.default_rng(seed)
    T = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return T / numerical_radius(T)


class TestTeardropSupport:
    def test_alpha_zero_is_unit_disk(self):
        for phi in np.linspace(0, 2 * np.pi, 13):
            assert teardrop_support(0.0, phi) == pytest.approx(1.0)

    def test_sharp_direction(self):
        assert teardrop_support(0.5, 0.0) == pytest.approx(1.25)

    def test_opposite_direction(self):
        assert teardrop_support(0.5, np.pi) == pytest.approx(1.0)

    def test_always_at_least_unit_disk(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            alpha = np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            phis = rng.uniform(0, 2 * np.pi, 50)
            assert np.all(np.asarray(teardrop_support(alpha, phis)) >= 1.0)

    def test_rotation_covariance(self):
        alpha = 0.6
        for psi in (0.4, 2.2):
            rotated = alpha * np.exp(1j * psi)
            for phi in np.linspace(0, 2 * np.pi, 17):
                assert teardrop_support(rotated, phi + psi) == pytest.approx(
                    teardrop_support(alpha, phi))


def support_excess(alpha, z, phis):
    """max over phis of Re(e^{-i phi} z) - h(phi), per point of z."""
    sup = np.asarray(teardrop_support(alpha, phis))
    return (np.real(np.outer(z, np.exp(-1j * phis))) - sup).max(axis=1)


class TestTeardropContains:
    def test_sharp_boundary_point(self):
        assert teardrop_contains(0.5, 1.25)
        assert teardrop_distance(0.5, 1.25) == pytest.approx(0.0, abs=1e-15)

    def test_just_outside(self):
        assert not teardrop_contains(0.5, 1.26, tol=1e-9)
        assert teardrop_distance(0.5, 1.26) == pytest.approx(0.01, abs=1e-15)

    def test_origin_always_inside(self):
        for alpha in (0.0, 0.5, 0.9j, -0.3 + 0.4j, 1.0):
            assert teardrop_contains(alpha, 0.0)
            assert teardrop_distance(alpha, 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_point_beside_tangent_segment(self):
        # 1e-4 outside the middle of a tangent segment: a 720-angle support
        # grid saw this point as 6e-4 inside
        a, psi = 0.6, 0.0123
        c = np.sqrt(1 - a * a)
        normal = a + 1j * c
        middle = normal + 0.5 * a * c * (c - 1j * a)
        z = (middle + 1e-4 * normal) * np.exp(1j * psi)
        alpha = a * np.exp(1j * psi)
        assert not teardrop_contains(alpha, z, tol=1e-6)
        assert abs(teardrop_distance(alpha, z) - 1e-4) < 1e-9

    def test_distance_against_support_grid(self):
        # a grid can only underestimate the largest support excess; with
        # the two tangent directions added it is second-order accurate
        rng = np.random.default_rng(17)
        phis = 2 * np.pi * np.arange(4096) / 4096
        for _ in range(40):
            alpha = 0.95 * np.sqrt(rng.uniform()) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            z = 2 * np.sqrt(rng.uniform(size=50)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
            dist = teardrop_distance(alpha, z)
            assert np.all(dist >= support_excess(alpha, z, phis) - 1e-12)
            tangents = np.angle(alpha) + np.array([-1, 1]) * np.arccos(abs(alpha))
            finer = support_excess(alpha, z, np.concatenate([phis, tangents]))
            assert np.all(dist <= finer + 1e-6)

    def test_boundary_samples_lie_on_boundary(self):
        for alpha in (0.0, 1.0, -1j, 0.5, 0.999 * np.exp(1j), 0.6 * np.exp(0.0123j),
                      -0.3 + 0.4j, 1e-13, 1 - 1e-14):
            phis, points = teardrop_boundary(alpha)
            dist = teardrop_distance(alpha, points)
            assert np.abs(dist).max() <= 1e-12, alpha
            assert np.all(np.diff(phis) >= 0)
            # seen from alpha/2, inside td(alpha), the samples go once around
            # and turn one way only: the tangent segment at psi + delta was
            # walked from the unit circle, so the curve retraced it. The
            # tolerance allows a segment end that repeats a grid sample
            turn = np.diff(np.unwrap(np.angle(points - alpha / 2)))
            assert turn.min() >= -1e-12, alpha
            assert turn.sum() == pytest.approx(2 * np.pi, abs=0.02), alpha
            # the unit disk has no tangent segments; otherwise 2 x 21 points
            unit_disk = abs(alpha) < 1e-12 or 1 - abs(alpha) ** 2 < 1e-12
            assert len(phis) == len(points) == (720 if unit_disk else 762), alpha

    def test_boundary_splices_each_segment_after_its_crossing(self):
        # the grid is built once per process, and each call splices its 21
        # segment points in after the grid samples at or before their
        # crossing, as np.insert at those indices does, also where both
        # crossings fall in one grid gap (delta < pi / 720); each call
        # returns arrays of its own
        grid = 2 * np.pi * np.arange(720) / 720
        for alpha in (0.5, -0.3 + 0.4j, 0.999 * np.exp(1j), 0.999995 * np.exp(2.5j * grid[1]),
                      math.cos(grid[3]) * np.exp(1j * grid[5])):
            psi, delta = np.angle(alpha), math.acos(abs(alpha))
            crossings = np.sort([(psi - delta) % (2 * np.pi), (psi + delta) % (2 * np.pi)])
            at = np.repeat(np.searchsorted(grid, crossings, side="right"), 21)
            phis, points = teardrop_boundary(alpha)
            assert phis.tobytes() == np.insert(grid, at, np.repeat(crossings, 21)).tobytes()
            on_grid = np.ones(len(phis), dtype=bool)
            on_grid[at + np.arange(42)] = False
            assert phis[on_grid].tobytes() == grid.tobytes()
            assert np.abs(teardrop_distance(alpha, points)).max() <= 1e-12
            phis += 1.0
            points *= 2.0
        phis, points = teardrop_boundary(0.0)
        assert phis.tobytes() == grid.tobytes()
        assert points.tobytes() == np.exp(1j * grid).tobytes()

    def test_alpha_outside_closed_disk_raises(self):
        for fn in (lambda a: teardrop_support(a, 0.0),
                   lambda a: teardrop_distance(a, 0.0),
                   teardrop_boundary):
            with pytest.raises(ValueError):
                fn(1.0 + 1e-9)


class TestRegionS:
    def test_boundary_points(self):
        assert region_S_contains(0.0, -0.25)
        assert region_S_contains(0.5, 0.0)
        assert not region_S_contains(0.5, -0.01)
        assert not region_S_contains(1.0, 0.99)
        assert region_S_contains(1.0, 1.0)

    def test_seams_agree(self):
        # t^2 - 1/4 and 2t - 1 coincide at t = 1/2; 2t - 1 and t^2 at t = 1
        assert 0.5 ** 2 - 0.25 == 2 * 0.5 - 1
        assert 2 * 1.0 - 1 == 1.0 ** 2

    def test_negative_t_raises(self):
        with pytest.raises(NegativeTError, match=r"got -0\.1$"):
            region_S_contains(-0.1, 0.0)

    def test_array_equals_scalar_calls_bitwise(self):
        # the grids hit the seams t = 1/2 and t = 1 exactly
        for ts in (np.linspace(0.0, 2.0, 41), np.linspace(0.0, 1.0, 201),
                   np.linspace(0.5, 1.0, 21), np.linspace(1.0, 3.0, 17)):
            assert 0.5 in ts or 1.0 in ts
            s = region_S_boundary(ts)
            assert s.shape == ts.shape
            assert np.array_equal(s, [region_S_boundary(t) for t in ts.tolist()])

    def test_scalar_gives_float(self):
        for t in (0.0, 0.3, 0.5, 0.7, 1.0, 1.5, np.float64(0.2)):
            assert type(region_S_boundary(t)) is float
        assert region_S_boundary(0.3) == 0.3 * 0.3 - 0.25
        assert region_S_boundary(0.7) == 2.0 * 0.7 - 1.0
        assert region_S_boundary(1.5) == 1.5 * 1.5

    def test_any_negative_entry_raises(self):
        ts = np.linspace(0.0, 2.0, 9)
        for k in (0, 4, 8):
            bad = ts.copy()
            bad[k] = -1e-300
            with pytest.raises(NegativeTError):
                region_S_boundary(bad)


class TestQForm:
    def test_shift_matrix(self):
        t, s = 0.3, -0.1
        assert np.allclose(q_form(SHIFT2, t, s),
                           [[1, 2 * t], [2 * t, 1 + 4 * s]])

    def test_minus_identity(self):
        t, s = 0.7, 0.2
        assert np.allclose(q_form(-np.eye(3), t, s), (1 - 2 * t + s) * np.eye(3))

    def test_scaled_identity_case_three(self):
        t, s = 1.5, 1.8  # t <= s < t^2
        T = -(t / s) * np.eye(2)
        assert np.allclose(q_form(T, t, s), (1 - t * t / s) * np.eye(2))

    def test_operator_inequality_on_grid(self):
        # Q(T, t, t^2 - 1/4) >= 0 whenever w(T) <= 1
        for seed in (41, 42):
            T = normalized_random(seed, 4)
            for t in np.linspace(0, 0.5, 21):
                ok, lam = is_psd(q_form(T, t, t * t - 0.25), 1e-9)
                assert ok, (seed, t, lam)

    def test_case2_decomposition_identity(self):
        # Q(T, t, 2t-1) = (1-t)(2I + (T+T*)) + (2t-1)(I+T)*(I+T)
        T = normalized_random(43, 5)
        I = np.eye(5)
        for t in (0.5, 0.7, 1.0):
            lhs = q_form(T, t, 2 * t - 1)
            rhs = ((1 - t) * (2 * I + T + T.conj().T)
                   + (2 * t - 1) * (I + T).conj().T @ (I + T))
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_case3_decomposition_identity(self):
        T = normalized_random(44, 4)
        I = np.eye(4)
        for t in (1.0, 1.4, 2.0):
            lhs = q_form(T, t, t * t)
            rhs = (I + t * T).conj().T @ (I + t * T)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_sharpness_below_each_branch(self):
        for t in np.linspace(0.05, 0.45, 9):
            ok, _ = is_psd(q_form(SHIFT2, t, t * t - 0.25 - 0.01))
            assert not ok
        for t in np.linspace(0.55, 1.0, 9):
            ok, _ = is_psd(q_form(-np.eye(2), t, 2 * t - 1 - 0.01))
            assert not ok
        for t in np.linspace(1.1, 2.0, 9):
            s = t * t - 0.01
            assert s >= t
            ok, _ = is_psd(q_form(-(t / s) * np.eye(2), t, s))
            assert not ok

    def test_case1_witness_determinant(self):
        t = 0.3
        Q = q_form(SHIFT2, t, t * t - 0.25 - 0.01)
        assert np.linalg.det(Q).real == pytest.approx(-0.04, abs=1e-12)
        assert min_eigenvalue(Q) < 0

    def test_stack_members_equal_scalar_calls(self):
        t1 = np.linspace(0.0, 0.5, 21)
        t2 = np.linspace(0.5, 1.0, 21)
        t3 = np.linspace(1.0, 2.0, 21)
        ts = np.concatenate([t1, t2, t3])
        ss = np.concatenate([t1 * t1 - 0.25, 2.0 * t2 - 1.0, t3 * t3])
        for n in range(2, 9):
            T = normalized_random(100 + n, n)
            Q = q_form(T, ts, ss)
            assert Q.shape == (len(ts), n, n)
            for k in range(len(ts)):
                assert np.array_equal(Q[k], q_form(T, ts[k], ss[k]))

    def test_stack_eigenvalues_equal_scalar_calls(self):
        ts = np.linspace(0.0, 0.5, 21)
        ss = ts * ts - 0.25
        T = normalized_random(45, 6)
        lams = min_eigenvalue(q_form(T, ts, ss))
        assert np.array_equal(lams, [min_eigenvalue(q_form(T, t, s)) for t, s in zip(ts, ss)])

    @pytest.mark.parametrize("grid", [False, True])
    def test_stack_of_matrices_equals_one_matrix_calls(self, grid):
        ts = np.linspace(0.0, 2.0, 63) if grid else 0.7
        ss = region_S_boundary(ts)
        for n in range(1, 9):
            Ts = np.stack([normalized_random(200 + 10 * n + j, n) for j in range(5)])
            Q = q_form(Ts, ts, ss)
            assert Q.shape == Ts.shape[:1] + np.shape(ts) + (n, n)
            for T, member in zip(Ts, Q):
                assert member.tobytes() == q_form(T, ts, ss).tobytes()

    def test_scalar_t_s_give_matrix(self):
        assert q_form(SHIFT2, 0.3, -0.1).shape == (2, 2)

    def test_unequal_shapes_raise(self):
        with pytest.raises(ValueError):
            q_form(SHIFT2, np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            q_form(SHIFT2, np.zeros((2, 2)), np.zeros((2, 2)))


class TestDruryParams:
    def test_outer_alpha_zero_theta_pi(self):
        omega, t, s = drury_params_outer(0.0, np.pi)
        assert omega == pytest.approx(1.0, abs=1e-12)
        assert t == pytest.approx(0.5)
        assert s == pytest.approx(0.0)

    def test_outer_alpha_half_theta_pi(self):
        _, t, s = drury_params_outer(0.5, np.pi)
        assert t == pytest.approx(0.75)
        assert s == pytest.approx(0.5)

    def test_inner_alpha_zero_theta_zero(self):
        omega, t, s = drury_params_inner(0.0, 0.0)
        assert omega == pytest.approx(-1.0, abs=1e-12)
        assert t == pytest.approx(0.5)
        assert s == pytest.approx(0.0)

    def test_inner_alpha_one_is_domain_error(self):
        with pytest.raises(DomainError, match=r"alpha must be in \[0, 1\), got 1.0"):
            drury_params_inner(1.0, 0.0)

    def test_inner_degenerate_corner(self):
        omega, t, s = drury_params_inner(0.5, 0.0)
        assert t == pytest.approx(0.0)
        assert s == pytest.approx(-0.25)
        assert abs(abs(omega) - 1) < 1e-12

    def test_seam_agreement(self):
        for alpha in (0.1, 0.5, 0.9):
            theta = np.arccos(alpha)
            _, t_out, s_out = drury_params_outer(alpha, theta)
            _, t_in, s_in = drury_params_inner(alpha, theta)
            assert t_out == pytest.approx(0.5, abs=1e-12)
            assert t_in == pytest.approx(0.5, abs=1e-12)
            assert s_out == pytest.approx(0.0, abs=1e-12)
            assert s_in == pytest.approx(0.0, abs=1e-12)

    def test_parameter_ranges_and_relations(self):
        for alpha in np.linspace(0.0, 0.98, 25):
            for c in np.linspace(-1.0, alpha, 25):
                omega, t, s = drury_params_outer(alpha, np.arccos(c))
                assert 0.5 - 1e-12 <= t <= 1.0 + 1e-12
                assert abs(s - (2 * t - 1)) < 1e-12
                assert abs(abs(omega) - 1) < 1e-12
            for c in np.linspace(alpha, 1.0, 25):
                omega, t, s = drury_params_inner(alpha, np.arccos(c))
                assert -1e-12 <= t <= 0.5 + 1e-12
                assert abs(s - (t * t - 0.25)) < 1e-12
                assert abs(abs(omega) - 1) < 1e-12

    def test_inner_sweep_never_negative(self):
        # s + 1/4 = (alpha - 1/2)^2 + alpha(1 - cos(theta)) >= 0 on the domain
        rng = np.random.default_rng(52)
        alphas = np.concatenate([[0.0, 0.5, 1 - 1e-12], rng.uniform(0.0, 1.0, 197)])
        for alpha in alphas:
            for c in (alpha, 1.0, rng.uniform(alpha, 1.0)):
                for theta in (np.arccos(c), -np.arccos(c)):
                    omega, t, s = drury_params_inner(alpha, theta)
                    assert t >= 0.0
                    assert abs(t * t - 0.25 - s) <= 1e-15, (alpha, theta)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            drury_params_outer(0.3, 0.0)  # cos(0) = 1 > alpha
        with pytest.raises(DomainError):
            drury_params_inner(0.3, np.pi)  # cos(pi) = -1 < alpha
        with pytest.raises(DomainError):
            drury_params_outer(1.2, np.pi)

    def test_psd_along_both_branches(self):
        # Q(omega T, t, s) >= 0 for the parameters of each half-plane family
        T = normalized_random(45, 3)
        alpha = 0.4
        for c in np.linspace(-1, alpha, 7):
            omega, t, s = drury_params_outer(alpha, np.arccos(c))
            ok, lam = is_psd(q_form(omega * T, t, s), 1e-8)
            assert ok, (c, lam)
        for c in np.linspace(alpha, 1, 7):
            omega, t, s = drury_params_inner(alpha, np.arccos(c))
            ok, lam = is_psd(q_form(omega * T, t, s), 1e-8)
            assert ok, (c, lam)

    @pytest.mark.parametrize("branch", ["inner", "outer"])
    def test_congruence_identities(self, branch):
        # with F = (aI + G)(I + aG)^{-1} and X = I + aG:
        # inner: X*[(1 - a^2) I - Re(e^{-i theta}(F - a))]X = (1 - a^2) Q(omega G, t, s)
        # outer: X*[I - Re(e^{+i theta} F)]X = (1 - a cos theta) Q(omega G, t, s)
        rng = np.random.default_rng(53 if branch == "inner" else 54)
        for k in range(200):
            n = int(rng.integers(2, 7))
            G = normalized_random([55, k], n)
            a = rng.uniform(0.0, 0.95)
            X = np.eye(n) + a * G
            F = (a * np.eye(n) + G) @ np.linalg.inv(X)
            c = rng.uniform(a, 1.0) if branch == "inner" else rng.uniform(-1.0, a)
            theta = np.arccos(c) * rng.choice([-1.0, 1.0])
            if branch == "inner":
                omega, t, s = drury_params_inner(a, theta)
                M = np.exp(-1j * theta) * (F - a * np.eye(n))
                lhs = (1 - a * a) * np.eye(n) - (M + M.conj().T) / 2
                scale = 1 - a * a
            else:
                omega, t, s = drury_params_outer(a, theta)
                M = np.exp(1j * theta) * F
                lhs = np.eye(n) - (M + M.conj().T) / 2
                scale = 1 - a * np.cos(theta)
            residual = X.conj().T @ lhs @ X - scale * q_form(omega * G, t, s)
            assert np.abs(residual).max() < 1e-12, (k, a, theta)


NAN = float("nan")


@pytest.mark.parametrize("call, error", [
    (lambda: BlaschkeProduct(NAN, (0,)), NotUnimodularError),
    (lambda: BlaschkeProduct(1, (NAN,)), ValueError),
    (lambda: BlaschkeProduct(1, (complex(0.0, NAN),)), ValueError),
    (lambda: level_set(BlaschkeProduct(1, (0,)), NAN), NotUnimodularError),
    (lambda: circle_log_derivative(BlaschkeProduct(1, (0,)), NAN), NotOnCircleError),
    (lambda: mobius_automorphism(NAN), ValueError),
    (lambda: teardrop_support(NAN, 0.0), ValueError),
    (lambda: teardrop_distance(NAN, 0.0), ValueError),
    (lambda: region_S_boundary(NAN), NegativeTError),
    (lambda: region_S_boundary(np.array([0.5, NAN])), NegativeTError),
    (lambda: drury_params_outer(0.5, NAN), DomainError),
    (lambda: drury_params_inner(0.5, NAN), DomainError),
], ids=["blaschke-constant", "blaschke-zero", "blaschke-zero-imag", "level-set",
        "circle-log-derivative", "mobius-automorphism", "teardrop-support",
        "teardrop-distance", "region-s-boundary", "region-s-boundary-array",
        "drury-outer", "drury-inner"])
def test_nan_is_out_of_range(call, error):
    # each range check is written so that a comparison with NaN fails it,
    # and NaN gets the error of an out-of-range value
    with pytest.raises(error) as raised:
        call()
    assert raised.type is error
