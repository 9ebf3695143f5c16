import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from numrange import fov, verify
from numrange.blaschke import BlaschkeProduct, _clark_unitary, level_set
from numrange.errors import NoConvergenceError, NumericError
from numrange.fov import (
    arc_midpoints,
    boundary,
    contains,
    hermitian_part,
    level_cuts,
    numerical_radii,
    numerical_radius,
    support_samples,
    support_values,
)
from numrange.linalg import operator_norm
from numrange.verify import random_matrix

SHIFT2 = np.array([[0, 2], [0, 0]], dtype=complex)


def random_complex(rng, n):
    return rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))


JORDAN_C = 1.5 * (0.6 + 0.8j)


def rotated_jordan(rng, n):
    """(U (c J_n) U*, |c| cos(pi/(n+1))) for a random unitary U and c: W is
    the disk of that radius about 0 (Haagerup and de la Harpe, 1992)."""
    U = np.linalg.qr(random_complex(rng, n))[0]
    c = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
    return U @ (c * np.eye(n, k=1)) @ U.conj().T, abs(c) * math.cos(math.pi / (n + 1))


def bipartite(rng, n):
    """[[0, A], [B, 0]], unitarily similar to its negative (by diag(I, -I)),
    so that W is symmetric about 0 without being a disk."""
    p = n // 2
    T = np.zeros((n, n), dtype=complex)
    T[:p, p:], T[p:, :p] = random_complex(rng, n)[:p, p:], random_complex(rng, n)[p:, :p]
    return T


def solve_counter(monkeypatch) -> dict:
    """Counts of the matrices that np.linalg.eigvalsh and eigh solve from
    here on, by function name."""
    counts = {"eigvalsh": 0, "eigh": 0}

    def counted(solve):
        def solve_counted(a, *args, **kwargs):
            counts[solve.__name__] += len(a) if np.ndim(a) == 3 else 1
            return solve(a, *args, **kwargs)
        return solve_counted

    for solve in (np.linalg.eigvalsh, np.linalg.eigh):
        monkeypatch.setattr(np.linalg, solve.__name__, counted(solve))
    return counts


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


def loop_curve(T, n_angles: int) -> fov.BoundaryCurve:
    """boundary's curve from a direct order-1 sweep of the kernel, as its
    loop forms it: the polygon of a normal T is not asked for."""
    thetas = 2.0 * np.pi * np.arange(n_angles) / n_angles
    half = 0 if n_angles % 2 else n_angles // 2
    _, sweep, scale_back = fov._supports([T])
    at, turned = sweep(np.zeros(n_angles - half, dtype=int), thetas[:n_angles - half],
                       order=1, pair=np.arange(half))
    h, d1 = np.concatenate([at, turned], axis=1)
    slot = np.zeros(n_angles, dtype=int)
    z = np.exp(1j * thetas) * (h + 1j * d1)
    points = np.empty(n_angles, dtype=complex)
    points.real = scale_back(slot, z.real, "boundary point") + 0.0
    points.imag = scale_back(slot, z.imag, "boundary point") + 0.0
    return fov.BoundaryCurve(thetas=thetas, supports=scale_back(slot, h, "support value"),
                             points=points)


def near_tie(rng, n):
    """U diag(lambda) U* for a Haar unitary U, with 2 or 3 eigenvalues whose
    moduli tie within 1e-5 and the rest inside 0.9 times their modulus."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    U = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    radius, ties = rng.uniform(0.5, 2.0), min(n, int(rng.integers(2, 4)))
    moduli = np.concatenate([radius * (1.0 - np.concatenate([[0.0], rng.uniform(0.0, 1e-5, ties - 1)])),
                             0.9 * radius * rng.uniform(size=n - ties)])
    return (U * (moduli * np.exp(2j * np.pi * rng.uniform(size=n)))) @ U.conj().T


def _normal_inputs() -> dict:
    """Normal matrices at n >= 3: polygons with tied vertices at their edge
    normals, repeated and zero eigenvalues, and segments."""
    rng = np.random.default_rng(39)
    cases = {"cI": (0.3 - 0.7j) * np.eye(5),
             "zero": np.zeros((3, 3)),
             "diag(1,0,0)": np.diag([1.0, 0.0, 0.0]),
             "diag-repeated": np.diag([1j, 2.0, 1j, -1.0, 2.0, 1j]),
             "diag(1,i,-1,-i)": np.diag([1, 1j, -1, -1j])}
    cases.update({f"roots-{n}": np.diag(np.exp(2j * np.pi * np.arange(n) / n))
                  for n in (3, 8, 30, 64)})
    cases.update({f"near-tie-{n}": near_tie(rng, n) for n in (3, 4, 9, 17, 40, 64)})
    cases["haar-12"] = np.linalg.qr(random_complex(rng, 12))[0]
    for n in (3, 7, 33):
        H = random_complex(rng, n)
        cases[f"hermitian-{n}"] = H + H.conj().T
        cases[f"skew-hermitian-{n}"] = H - H.conj().T
    return {name: T.astype(complex) for name, T in cases.items()}


NORMAL_INPUTS = _normal_inputs()


def _non_normal_inputs() -> dict:
    """Matrices at n >= 3 that boundary must leave on its loop: normal ones
    moved off normality by 1e-6 and 1e-10 of their norm, Jordan blocks and
    random draws."""
    rng = np.random.default_rng(40)
    cases = {}
    for n in (3, 8, 64):
        N = near_tie(rng, n)
        E = random_complex(rng, n)
        E *= operator_norm(N) / operator_norm(E)
        cases.update({f"near-tie-{n}+1e-6": N + 1e-6 * E, f"near-tie-{n}+1e-10": N + 1e-10 * E})
    cases.update({f"jordan-{n}": JORDAN_C * np.eye(n, k=1) for n in range(3, 17)})
    cases.update({f"draw-{n}": random_matrix(rng, n) for n in (3, 5, 16)})
    cases.update({f"complex-{n}": random_complex(rng, n) for n in (3, 12)})
    return {name: T.astype(complex) for name, T in cases.items()}


NON_NORMAL_INPUTS = _non_normal_inputs()


def zgees_counter(monkeypatch) -> list:
    """The shapes of the matrices that boundary hands to zgees from here on."""
    calls = []
    zgees = fov._lapack().zgees

    def counting(select, a, *args, **kwargs):
        calls.append(np.shape(a))
        return zgees(select, a, *args, **kwargs)

    monkeypatch.setattr(fov._lapack(), "zgees", counting)
    return calls


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

    @pytest.mark.parametrize("theta", [np.nan, np.inf])
    def test_non_finite_angle_is_value_error(self, theta):
        # NaN gave two RuntimeWarnings, then NumericError (exit 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"angle 0 is {theta}, not a finite number"):
                hermitian_part(SHIFT2, theta)


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
        zhetrd = fov._lapack().zhetrd

        def counting(a, *args, **kwargs):
            reductions.append(np.shape(a))
            return zhetrd(a, *args, **kwargs)

        def no_eigh(*args, **kwargs):
            raise AssertionError("boundary called np.linalg.eigh")

        monkeypatch.setattr(fov._lapack(), "zhetrd", counting)
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        boundary(random_complex(np.random.default_rng(7), 4), n_angles)
        assert reductions == [(4, 4)] * solved

    @pytest.mark.parametrize("name", EXTREME_PAIR_INPUTS)
    def test_extreme_pairs_match_eigh(self, name):
        # the loop computes only eigenpairs 1 and n of each H(theta); they
        # must be those of a full eigensolve of the same H. MRRR for a single
        # index returned eigenpair 2 in place of 1 on the 1e-12 tie
        T = EXTREME_PAIR_INPUTS[name]
        # the loop's order-1 kernel itself, which boundary skips for a
        # normal T at n >= 3
        curve = loop_curve(T, 360)
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


class TestNormalPolygon:
    @pytest.mark.parametrize("k", [0, 600, -600])
    @pytest.mark.parametrize("name", NORMAL_INPUTS)
    def test_normal_matrices_take_the_polygon(self, monkeypatch, name, k):
        # W(T) = conv sigma(T): one Schur form and no tridiagonal reduction.
        # Norms and eigenvalues are taken at scale 1, where they neither
        # overflow nor underflow, and scaled exactly
        T0, scale = NORMAL_INPUTS[name], 2.0 ** k
        T = T0 * scale
        calls = zgees_counter(monkeypatch)
        reductions, zhetrd = [], fov._lapack().zhetrd
        monkeypatch.setattr(fov._lapack(), "zhetrd",
                            lambda *args, **kwargs: reductions.append(1) or zhetrd(*args, **kwargs))
        curve = boundary(T, 360)
        assert len(calls) == 1 and not reductions
        S, e = fov._prescaled(T[None])
        R = fov._lapack().zgees(lambda z: 0, S[0], compute_v=0)[0]
        # each point is an eigenvalue: a diagonal entry of R, scaled back
        diag = np.ldexp(R.diagonal().real, e[0]) + 1j * np.ldexp(R.diagonal().imag, e[0])
        assert np.isin(curve.points, diag).all()
        # the certificate's bound, ||N||_2 <= ||N||_F plus the backward
        # errors of that Schur form and of eigvals's, each about
        # sqrt(n) eps ||T||_F
        n, eps, norm = len(T), np.finfo(float).eps, max(1.0, operator_norm(T0))
        bound = (np.linalg.norm(np.triu(R, 1)) * 2.0 ** (e[0] - k)
                 + 2.0 * np.sqrt(n) * eps * np.linalg.norm(T0)) * scale
        assert bound <= 1e-13 * norm * scale
        exact = np.real(np.exp(-1j * curve.thetas)[:, None]
                        * np.linalg.eigvals(T0)[None, :]).max(axis=1) * scale
        assert np.abs(curve.supports - exact).max() <= bound
        # each point lies on its supporting line
        proj = np.real(np.exp(-1j * curve.thetas) * curve.points)
        assert np.abs(proj - curve.supports).max() <= 1e-15 * norm * scale

    @pytest.mark.parametrize("name", NON_NORMAL_INPUTS)
    def test_other_matrices_keep_the_loop(self, monkeypatch, name):
        # bit for bit the order-1 sweep; and only a matrix that passes the
        # commutator gate, as a normal one moved by 1e-10 of its norm may,
        # pays for a Schur form
        T = NON_NORMAL_INPUTS[name]
        calls = zgees_counter(monkeypatch)
        for n_angles in (360, 361):
            curve, loop = boundary(T, n_angles), loop_curve(T, n_angles)
            for part in ("thetas", "supports", "points"):
                assert getattr(curve, part).tobytes() == getattr(loop, part).tobytes()
        if not name.endswith("1e-10"):
            assert calls == []

    def test_zgees_failure_falls_back_to_the_loop(self, monkeypatch):
        T = NORMAL_INPUTS["near-tie-9"]
        zgees = fov._lapack().zgees

        def failing(*args, **kwargs):
            *out, _ = zgees(*args, **kwargs)
            return (*out, 1)

        monkeypatch.setattr(fov._lapack(), "zgees", failing)
        curve, loop = boundary(T, 360), loop_curve(T, 360)
        assert curve.supports.tobytes() == loop.supports.tobytes()
        assert curve.points.tobytes() == loop.points.tobytes()

    @pytest.mark.parametrize("n_angles", [8, 9, 360, 361])
    def test_any_grid(self, n_angles):
        T = NORMAL_INPUTS["roots-8"]
        curve = boundary(T, n_angles)
        assert np.array_equal(curve.thetas, 2.0 * np.pi * np.arange(n_angles) / n_angles)
        # every point is a vertex of the octagon, 1 the one facing theta = 0
        assert curve.points[0] == 1.0
        assert np.abs(np.abs(curve.points) - 1.0).max() <= 1e-15
        assert len(curve.supports) == len(curve.points) == n_angles

    @pytest.mark.parametrize("first", [1 + 1j, 1])
    def test_first_of_tied_vertices(self, first):
        # theta = 0 faces the edge from 1 to 1 + i, whose ends tie exactly
        # there: the point is the first of them on the diagonal
        spectrum = [first, (2 + 1j) - first, -1]
        curve = boundary(np.diag(spectrum), 8)
        assert curve.supports[0] == 1.0 and curve.points[0] == first
        assert curve.points[2] == 1 + 1j and curve.points[4] == -1

    def test_support_beyond_float_range_raises(self):
        # the normal path scales back as the loop does: h(pi/4) of this
        # diagonal is sqrt(2) 1.7e308
        T = np.diag([1.7e308 * (1 + 1j), 0.0, 0.0])
        with pytest.raises(NumericError, match="support value 1 is inf"):
            boundary(T, 8)


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
        # W(J_n) is the disk of radius cos(pi/(n+1)) (Haagerup and de la
        # Harpe, Proc. AMS 1992): the support function is flat, so every
        # cell and its antipode stay candidates, and half of all samples
        # are -lambda_min; forming U (c J_n) U* itself rounds by about n eps
        ns = np.arange(2, 65)
        radii = numerical_radii([np.eye(n, k=1, dtype=complex) for n in ns])
        assert np.abs(radii - np.cos(np.pi / (ns + 1))).max() <= 1e-15
        rng = np.random.default_rng(92)
        mats, radii = zip(*(rotated_jordan(rng, n) for n in ns))
        assert np.abs(numerical_radii(mats) / radii - 1).max() <= 4e-15

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

    def test_no_angles_give_empty_supports(self):
        # the sweep concatenated no parts and raised numpy's "need at least
        # one array to concatenate"
        T = random_complex(np.random.default_rng(9), 4)
        assert support_values(T, []).shape == (0,)
        assert support_values(np.array([[2.0]]), np.zeros(0)).shape == (0,)
        samples = fov.support_samples([(T, []), (SHIFT2, [])])
        assert [v.shape for v in samples] == [(0,), (0,)]
        samples = fov.support_samples([(T, []), (SHIFT2, [0.0])])
        assert samples[0].shape == (0,) and samples[1].tolist() == [1.0]
        _, sweep, _ = fov._supports([T, SHIFT2])
        none = np.zeros(0, dtype=int)
        for order in (0, 1, 2):
            for at, turned in (sweep(none, np.zeros(0), order), sweep(none, np.zeros(0), order, none)):
                assert at.shape == turned.shape == (order + 1, 0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_non_finite_angles_are_value_errors(self, n):
        # at n = 3 a NaN angle gave two RuntimeWarnings and then numpy's
        # LinAlgError "Eigenvalues did not converge", at n = 2 a NumericError
        for theta in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"angle 1 is {theta}, not a finite number"):
                support_values(np.eye(n), [0.0, theta])
            with pytest.raises(ValueError, match=f"angle 2 is {theta}, not a finite number"):
                fov.support_samples([(SHIFT2, [0.5]), (np.eye(n), [1.0, theta])])

    @pytest.mark.parametrize("n", [2, 3])
    def test_thetas_of_more_dimensions_are_value_errors(self, n):
        # numpy's broadcast message leaked from the kernels
        with pytest.raises(ValueError, match=re.escape(
                "thetas of request 0 have shape (2, 2), expected a scalar or a 1-D array")):
            support_values(np.eye(n), [[0.0, 1.0], [2.0, 3.0]])
        with pytest.raises(ValueError, match="thetas of request 1 have shape"):
            fov.support_samples([(SHIFT2, 0.5), (np.eye(n), [[1.0]])])

    def test_no_pair_is_one_arc(self):
        # functools.reduce raised TypeError on an empty list
        assert arc_midpoints([]).tolist() == [0.0]
        assert fov.cut_midpoints([]).tolist() == [0.0]

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
        # H'x is one batched product over all cells, at the cli-matrix sizes too
        mats += [random_complex(rng, n) for n in (16, 32, 64) for _ in range(3)]
        mats += [np.zeros((3, 3)), np.array([[0.3 - 0.4j]]), np.array([[-2.0 + 1e-3j]])]
        # W symmetric about 0: their eigensolves answer pairs of antipodal cells
        mats += [rotated_jordan(rng, n)[0] for n in (8, 32, 64)]
        mats += [bipartite(rng, n) for n in (8, 32, 64)]
        mats = [mats[i] for i in rng.permutation(len(mats))]
        radii = numerical_radii(mats)
        assert radii.shape == (len(mats),)
        assert radii.tolist() == [numerical_radius(T) for T in mats]
        assert radii[[T.shape == (3, 3) and not T.any() for T in mats]].tolist() == [0.0]

    def test_empty_list(self):
        radii = numerical_radii([])
        assert radii.shape == (0,)

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_checks_must_match_the_matrices(self, count):
        # numpy's "shape mismatch", "too many values to unpack (expected 2)"
        # or "not enough values to unpack" leaked out
        mats = [random_complex(np.random.default_rng(4), n) for n in (2, 5)]
        checks = [(1.0, 1e-7)] * count
        with pytest.raises(ValueError, match=re.escape(
                f"got checks of shape {np.shape(checks)} for 2 matrices")):
            numerical_radii(mats, checks)
        with pytest.raises(ValueError, match=re.escape("got checks of shape (1, 2) for 0 matrices")):
            numerical_radii([], [(1.0, 1e-7)])
        # one check per matrix, but not a (bound, tol) pair; ragged checks
        # leaked numpy's "inhomogeneous shape"
        for bad, shape in [([(1.0, 1e-7, 0.0)], "(1, 3)"), ([1.0], "(1,)"),
                           ([(1.0, 1e-7), (1.0,)], "(2,)")]:
            with pytest.raises(ValueError, match=re.escape(
                    f"got checks of shape {shape} for {len(bad)} matrices; it takes one "
                    f"(bound, tol) pair per matrix, shape ({len(bad)}, 2)")):
                numerical_radii([np.eye(2)] * len(bad), bad)
        assert numerical_radii([], []).shape == (0,)

    @pytest.mark.parametrize("n", [3, 8, 64])
    def test_coarse_stage_solves_half_the_grid(self, monkeypatch, n):
        # H(theta + pi) = -H(theta): the 16 coarse samples of a one-matrix
        # radius come from eigensolves at 8 angles
        sizes = []

        def counted(a, *args, **kwargs):
            sizes.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        numerical_radius(random_complex(np.random.default_rng(n), n))
        assert sizes[0] == 8

    @pytest.mark.parametrize("n", [3, 8, 16, 64])
    def test_antipodal_cells_share_eigensolves(self, monkeypatch, n):
        # W(U (c J_n) U*) is a disk about 0, so every cell stays live and
        # every cell's antipode too: one eigensolve answers both, 8 + 8 + 16
        # eigvalsh and 32 eigh matrices, against 8 + 16 + 32 and 64 for one
        # solve per cell
        T, _ = rotated_jordan(np.random.default_rng(n), n)
        counts = solve_counter(monkeypatch)
        numerical_radius(T)
        assert counts == {"eigvalsh": 32, "eigh": 32}

    @pytest.mark.parametrize("n, eigvalsh, eigh", [(3, 10, 2), (8, 12, 4), (16, 12, 4)])
    def test_generic_draws_keep_their_solves(self, monkeypatch, n, eigvalsh, eigh):
        # no live antipodal pair after the coarse stage: one solve per cell
        rng = np.random.default_rng(n)
        T = random_complex(rng, n)
        counts = solve_counter(monkeypatch)
        numerical_radius(T)
        assert counts == {"eigvalsh": eigvalsh, "eigh": eigh}

    def test_one_eigensolve_call_per_size_per_step(self, monkeypatch):
        # the leaders of pairs of antipodal cells share each size's stack
        # with the other cells, so a rotated J_n and a generic draw of each
        # size take one call per size per step: 10 calls, where a second
        # call per size on each step with pairs made 16 for the same matrices
        rng = np.random.default_rng(2)
        mats = [rotated_jordan(rng, n)[0] for n in (8, 5)] + [random_complex(rng, n) for n in (8, 5)]
        calls = []

        def counted(solve):
            def solve_counted(a, *args, **kwargs):
                calls.append((solve.__name__, a.shape[-1], len(a)))
                return solve(a, *args, **kwargs)
            return solve_counted

        for solve in (np.linalg.eigvalsh, np.linalg.eigh):
            monkeypatch.setattr(np.linalg, solve.__name__, counted(solve))
        radii = numerical_radii(mats)
        # (name, n, matrices) per call: the 8 coarse angles of both
        # matrices; the 8, 16 and 32 leaders of the rotated J_n's halvings
        # and first Newton step, each in one stack with the draw's 2 cells;
        # the draw's last Newton step
        assert calls == [("eigvalsh", 5, 16), ("eigvalsh", 8, 16), ("eigvalsh", 5, 10),
                         ("eigvalsh", 8, 10), ("eigvalsh", 5, 18), ("eigvalsh", 8, 18),
                         ("eigh", 5, 34), ("eigh", 8, 34), ("eigh", 5, 1), ("eigh", 8, 1)]
        monkeypatch.undo()
        assert radii.tolist() == [numerical_radius(T) for T in mats]

    def test_paired_newton_query_matches_reflected(self):
        # the theta + pi answers of the pair cells of the order-2 query are
        # h, h', h'' of the top pair at theta + pi, and every cell's theta
        # answer keeps its bits
        rng = np.random.default_rng(37)
        slots, sweep, _ = fov._supports([random_complex(rng, n) for n in (2, 3, 5, 16)])
        slot = np.repeat(slots, 4)
        thetas = rng.uniform(0, np.pi, slot.size)
        top, _ = sweep(slot, thetas, order=2)
        reflected, _ = sweep(slot, thetas + np.pi, order=2)
        for pair in (np.arange(slot.size), np.arange(1, slot.size, 3)):
            at, turned = sweep(slot, thetas, order=2, pair=pair)
            assert at.tobytes() == top.tobytes()
            for row, at_pi in zip(turned, reflected[:, pair]):
                assert np.abs(row - at_pi).max() <= 1e-12 * max(1, np.abs(at_pi).max())

    def test_newton_derivatives_match_differences(self):
        # h' and h'' of the order-2 query, whose H'x is one batched product
        # over the cells of all matrices, against central differences of h
        rng = np.random.default_rng(31)
        slots, sweep, _ = fov._supports([random_complex(rng, n) for n in (3, 3, 5, 16)])
        slot = np.repeat(slots, 3)
        thetas = rng.uniform(0, 2 * np.pi, slot.size)
        (h, d1, d2), _ = sweep(slot, thetas, order=2)
        step = 1e-4
        ((above,), _), ((below,), _) = sweep(slot, thetas + step), sweep(slot, thetas - step)
        assert np.abs(d1 - (above - below) / (2 * step)).max() <= 1e-6
        assert np.abs(d2 - (above - 2 * h + below) / step ** 2).max() <= 1e-4

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


def _checked_stack(seed: int) -> list[np.ndarray]:
    """Seeded draws at n = 2..8, a few at n = 16/32/64, cubed draws (whose
    prescale exponent is not zero), the near-tie family and rotated Jordan
    blocks, shuffled."""
    rng = np.random.default_rng(seed)
    mats = [random_matrix(rng, n) for n in range(2, 9) for _ in range(4)]
    mats += [random_complex(rng, n) for n in (16, 32, 64)]
    mats += [np.linalg.matrix_power(random_matrix(rng), 3) for _ in range(6)]
    mats += [np.diag([np.exp(1j * phi), (1 - 1e-6) * np.exp(1j * (phi + g)), 0.3])
             for phi, g in zip(rng.uniform(0, 2 * np.pi, 6), np.geomspace(1e-3, 0.3, 6))]
    mats += [rotated_jordan(rng, n)[0] for n in (3, 8, 16)]
    return [mats[i] for i in rng.permutation(len(mats))]


class TestChecks:
    # numerical_radii(mats, checks) may stop a matrix that passes its
    # check (bound, tol) and cannot set the largest value - bound; every
    # verdict and that largest value must be those of the exact radii
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("case", ["passing", "failing", "at-tolerance"])
    def test_checks_keep_verdicts_and_the_worst(self, seed, case):
        mats = _checked_stack(seed)
        exact = numerical_radii(mats)
        rng = np.random.default_rng([seed, 7])
        tol = 1e-7
        if case == "passing":
            bounds = exact * rng.uniform(1.0, 1.5, len(mats))
        elif case == "failing":
            bounds = exact * rng.uniform(0.95, 1.05, len(mats))
        else:
            bounds = exact * rng.uniform(1.1, 1.5, len(mats))
            bounds[::5] = exact[::5] - tol
        values = numerical_radii(mats, [(b, tol) for b in bounds.tolist()])
        assert np.all(values <= exact)
        assert (values - bounds).max().tobytes() == (exact - bounds).max().tobytes()
        assert np.array_equal(np.flatnonzero(values - bounds > tol),
                              np.flatnonzero(exact - bounds > tol))
        assert np.any(values < exact)

    def test_one_matrix_never_stops(self, monkeypatch):
        # its own excess is the largest of the call, so it keeps its bits
        # and its solves
        T = random_complex(np.random.default_rng(3), 5)
        counts = solve_counter(monkeypatch)
        w = numerical_radius(T)
        exact = dict(counts)
        counts.update(eigvalsh=0, eigh=0)
        assert numerical_radii([T], [(10.0, 1e-7)]).tolist() == [w]
        # the coarse stage takes its 8 solves in two halves of 4
        assert counts == exact


class TestStackCap:
    # the order-0 and order-2 queries solve a size's cells in chunks of at
    # most max(1, _STACK_ENTRIES // n^2): every value keeps its bits, and a
    # rotated J_64 radius no longer stacks all its live cells at once
    @staticmethod
    def _answers(monkeypatch, entries):
        """numerical_radii with and without checks, support_samples and
        boundary on a shuffled n = 2..16 list with rotated J_n, whose
        antipodal cells pair live, under _STACK_ENTRIES = entries, and the
        largest stack that eigvalsh and eigh were given."""
        rng = np.random.default_rng(41)
        mats = [random_matrix(rng, n) for n in range(2, 17) for _ in range(2)]
        mats += [rotated_jordan(rng, n)[0] for n in range(2, 17)]
        mats = [mats[i] for i in rng.permutation(len(mats))]
        thetas = rng.uniform(0, 2 * np.pi, 40)
        stacks = []

        def counted(solve):
            def solve_counted(a, *args, **kwargs):
                stacks.append(len(a))
                return solve(a, *args, **kwargs)
            return solve_counted

        with monkeypatch.context() as m:
            m.setattr(fov, "_STACK_ENTRIES", entries)
            for solve in (np.linalg.eigvalsh, np.linalg.eigh):
                m.setattr(np.linalg, solve.__name__, counted(solve))
            exact = numerical_radii(mats)
            checks = [(b, 1e-7) for b in (exact * rng.uniform(0.95, 1.5, len(mats))).tolist()]
            values = [exact, numerical_radii(mats, checks),
                      *support_samples([(T, thetas) for T in mats])]
            for T in mats:
                curve = boundary(T, 64)
                values += [curve.supports, curve.points]
        return [v.tobytes() for v in values], max(stacks)

    @pytest.mark.parametrize("entries", [1, 500])
    def test_chunks_keep_every_bit(self, monkeypatch, entries):
        # at 1 every chunk holds one cell; at 500, 1 cell at n = 16, 7 at
        # n = 8 and 55 at n = 3
        uncapped, largest = self._answers(monkeypatch, 2 ** 62)
        capped, chunk = self._answers(monkeypatch, entries)
        assert capped == uncapped
        assert largest > 55 and chunk == max(1, entries // 9)

    def test_rotated_jordan_64_peak_allocation(self):
        # 4.42 MB of traced allocations with every live cell of the size in
        # one stack, 2.33 MB in stacks of 16 cells (1 MiB each)
        T, w = rotated_jordan(np.random.default_rng(64), 64)
        numerical_radius(T)
        tracemalloc.start()
        try:
            assert numerical_radius(T) == pytest.approx(w, rel=1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20


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


class _LevelsDrawn(Exception):
    pass


def _drury_levels(trials: int, seed: int) -> list:
    """The level pairs (F, c) of drury's first trials, taken from its wave
    of level requests, after which the run stops; the trials run as one
    block, so that the wave holds the pairs of all of them."""
    pairs = []

    def capture(levels):
        pairs.extend(levels)
        raise _LevelsDrawn

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "level_cuts", capture)
        patch.setattr(verify, "TRIAL_BLOCK", max(trials, 1))
        with pytest.raises(_LevelsDrawn):
            verify.check_drury(trials, seed=seed)
    return pairs


def _qz_cuts(T, c) -> np.ndarray:
    """The reference for level_cuts: the cuts of one pair (T, c) from the
    pencil [[0, I], [-T, 2cI]] - z [[I, 0], [0, T*]] (QZ), which needs no
    inverse of T*. Infinite eigenvalues (T* singular) and NaN ones (a
    singular pencil) are dropped. Formed from the prescaled T and level, as
    level_cuts forms its own."""
    S, e = fov._prescaled(np.asarray(T, dtype=complex)[None])
    S, c = S[0], math.ldexp(c, -int(e[0]))
    eye, zero = np.eye(len(S)), np.zeros(S.shape)
    z = scipy.linalg.eigvals(np.block([[zero, eye], [-S, 2.0 * c * eye]]),
                             np.block([[eye, zero], [zero, S.conj().T]]))
    z = z[np.isfinite(z)]
    return np.sort(np.angle(z[np.abs(np.abs(z) - 1.0) <= fov._CUT_TOL]) % (2.0 * np.pi))


class TestLevelCuts:
    def _assert_qz_parity(self, pairs):
        cuts = level_cuts(pairs)
        for (T, c), got in zip(pairs, cuts):
            want = _qz_cuts(T, c)
            assert len(got) == len(want)
            assert np.all(np.abs(got - want) <= 1e-9)

    def _record_shifts(self, monkeypatch) -> list:
        """Whether each pair that level_cuts gets takes a nonzero Moebius
        shift, in the order of its size stacks (by n, then by index)."""
        taken = []
        shifts = fov._shifts

        def recording(S, c):
            beta, band = shifts(S, c)
            taken.extend((beta != 0).tolist())
            return beta, band

        monkeypatch.setattr(fov, "_shifts", recording)
        return taken

    def test_drury_levels_match_qz(self, monkeypatch):
        # every drury T* passes the conditioning test, so no pair is shifted
        pairs = _drury_levels(1000, seed=20)
        assert len(pairs) == 2000
        shifted = self._record_shifts(monkeypatch)
        self._assert_qz_parity(pairs)
        assert shifted == [False] * len(pairs)

    def test_near_tie_levels_match_qz(self):
        # diag(e^{i phi}, (1 - 1e-6) e^{i(phi + g)}, 0.3): h grazes level 1
        # at phi; at level 1 - 1e-6 the first eigenvalue crosses at
        # phi -+ arccos(1 - 1e-6) and the second grazes at phi + g. A
        # simple cut is fixed to rounding, but each half of a grazing
        # (double) cut only to about sqrt(eps), by either method
        rng = np.random.default_rng(24)
        for phi, g in zip(rng.uniform(0.1, 5.5, 12), np.geomspace(1e-6, 0.5, 12)):
            T = np.diag([np.exp(1j * phi), (1 - 1e-6) * np.exp(1j * (phi + g)), 0.3])
            a = np.arccos(1 - 1e-6)
            for c, simple, grazing in ((1.0, [], [phi]), (1 - 1e-6, [phi - a, phi + a], [phi + g])):
                exact = np.array(simple + 2 * grazing)
                order = np.argsort(exact)
                exact, tol = exact[order], np.array([1e-9] * len(simple) + [1e-7] * 2)[order]
                got, want = level_cuts([(T, c)])[0], _qz_cuts(T, c)
                assert len(got) == len(want) == len(exact)
                assert np.all(np.abs(got - exact) <= tol) and np.all(np.abs(want - exact) <= tol)
                assert np.all(np.abs(got - want)[tol < 1e-7] <= 1e-9)

    def test_singular_inputs_take_a_shift(self, monkeypatch):
        # T* singular: nilpotent Jordan blocks at three scales, a
        # rank-deficient F and 300 rank-deficient draws; a regular T rides
        # in the same stacks
        rng = np.random.default_rng(25)
        F = random_matrix(rng, 4)
        F[:, 2] = F[:, 0] - F[:, 1]
        singular = [(s * np.eye(n, k=1), 0.3 * s)
                    for n in range(2, 17) for s in (1.0, 2.0 ** 600, 2.0 ** -600)]
        singular.append((F, 0.5 * numerical_radius(F)))
        at_F = len(singular) - 1
        for k in range(300):
            G = random_matrix(rng, 2 + k % 7)
            G[:, -1] = G[:, :-1] @ rng.normal(size=len(G) - 1)
            singular.append((G, rng.uniform(0.2, 0.95) * numerical_radius(G)))
        pairs = singular + [(random_matrix(rng, 4), 0.5)]
        shifted = self._record_shifts(monkeypatch)
        cuts = level_cuts(pairs)
        by_size = sorted(range(len(pairs)), key=lambda i: len(pairs[i][0]))
        assert shifted == [i < len(singular) for i in by_size]
        assert len(cuts[at_F]) > 0
        monkeypatch.undo()
        self._assert_qz_parity(pairs)

    @pytest.mark.parametrize("T, c", [
        # det(T* z^2 - 2cz I + T) = 0 for every z
        (np.zeros((3, 3)), 0.0),
        # J_3 (+) [-0.9] at level cos(pi/4), an eigenvalue of H(theta) of
        # J_3 at every theta: no cut would leave one arc, whose sample at
        # theta = 0 reads h = c, while h reaches 0.9 near theta = pi
        (np.block([[np.eye(3, k=1), np.zeros((3, 1))], [np.zeros((1, 3)), -0.9]]),
         math.cos(math.pi / 4)),
    ])
    def test_singular_pencils_raise(self, T, c):
        # and with no RuntimeWarning, which Tier-1 turns into an error
        with pytest.raises(NoConvergenceError, match="singular"):
            level_cuts([(T, c), (random_matrix(np.random.default_rng(26), len(T)), 0.5)])

    def test_lapack_failure_is_no_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(NoConvergenceError, match="level-crossing eigenproblem: "
                                                     "Eigenvalues did not converge") as info:
            level_cuts([(SHIFT2, 0.5), (np.eye(3), 0.5)])
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf])
    def test_non_finite_level_is_value_error(self, level):
        # NaN gave NoConvergenceError ("Array must not contain infs or
        # NaNs", exit 3 through the CLI), and inf a RuntimeWarning first
        with pytest.raises(ValueError, match=f"level of pair 1 is {level}, not a finite number"):
            level_cuts([(SHIFT2, 0.5), (np.eye(3), level)])

    def test_pencils_scaled_apart_take_the_best_shift(self):
        # contains near an eigenvalue lambda of a normal T asks for the cuts
        # of S = T - (lambda - d)I at level -1e-9, whose level pencil has a
        # block scaled by about max(d, 1e-9): cond(L0) is about 1e9 at every
        # shift, although the pencil is regular. Diagonal T and a unitary
        # conjugate; the angles of that block are fixed only to about
        # eps / max(d, 1e-9), and a grazing cut at 0 may fall on either side
        rng = np.random.default_rng(30)
        pairs = []
        for D in (np.diag([1.0, 0.0]), np.diag([1.0, -1.0, 0.0]), np.diag([1, 1j, -1, -1j, 0])):
            U = np.linalg.qr(random_matrix(rng, len(D)))[0]
            pairs += [(T - d * np.eye(len(D)), -1e-9)
                      for T in (D, U @ D @ U.conj().T) for d in (0.0, 1e-9, 1e-8)]
        for (T, c), got in zip(pairs, level_cuts(pairs)):
            want = _qz_cuts(T, c)
            assert len(got) == len(want)
            gap = np.abs(got[:, None] - want[None, :]) % (2.0 * np.pi)
            assert np.all(np.minimum(gap, 2.0 * np.pi - gap).min(axis=1) <= 1e-7)

    def test_empty_and_mixed_sizes(self):
        assert level_cuts([]) == []
        rng = np.random.default_rng(26)
        pairs = [(random_matrix(rng, n), 0.4) for n in (5, 2, 5, 1, 3)]
        assert [c.tolist() for c in level_cuts(pairs)] == [
            level_cuts([p])[0].tolist() for p in pairs]


class TestContains:
    def test_unit_disk_membership(self):
        assert contains(SHIFT2, 1.0)
        assert not contains(SHIFT2, 1.01, tol=1e-6)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("z", [complex("nan"), complex("inf"), complex(0, float("-inf")),
                                   complex(1, float("nan"))])
    def test_non_finite_point_is_value_error(self, n, z):
        # at n = 3, complex("nan") gave numpy's LinAlgError "SVD did not
        # converge"
        with pytest.raises(ValueError, match="is not a finite number"):
            contains(np.eye(n), z)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_non_finite_tol_is_value_error(self, n, tol):
        # NaN gave NoConvergenceError from the level cuts, and inf answered
        # True without asking them
        with pytest.raises(ValueError, match=f"tol {tol} is not a finite number"):
            contains(np.eye(n), 2.0, tol)

    def test_mean_of_diagonal_is_inside(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            T = random_complex(rng, int(rng.integers(2, 7)))
            assert contains(T, np.trace(T) / T.shape[0])

    @pytest.mark.parametrize("tol", [1e-9, 0.0])
    def test_eigenvalues_of_normal_matrices_are_inside(self, tol):
        # 0 is a corner of W(diag(1, 0)) = [0, 1] and inside W(diag(1, -1, 0))
        # and the square W(diag(1, i, -1, -i, 0)). Each eigenvector x has
        # T*x = conj(lambda) x, so the level pencil of T - lambda I has a
        # block 2 tol z: singular at tol = 0, and with cond(L0) about 1/tol
        # at every shift at tol = 1e-9
        rng = np.random.default_rng(31)
        for D in (np.diag([1.0, 0.0]), np.diag([1.0, -1.0, 0.0]), np.diag([1, 1j, -1, -1j, 0])):
            U = np.linalg.qr(random_matrix(rng, len(D)))[0]
            for T in (D, U @ D @ U.conj().T):
                assert all(contains(T, z, tol) for z in np.diag(D))

    @pytest.mark.parametrize("d", [1e-11, 1e-10, 1e-8])
    def test_beside_a_corner_of_a_normal_matrix(self, d):
        # W(T) is the square with vertices i^k (T also has eigenvalue 0). A
        # corner lambda moved by d along an edge's outward side is d/sqrt(2)
        # outside; lambda(1 - d) is inside. The dip of h below -tol there
        # comes from the block of the level pencil scaled by d, whose
        # unimodular eigenvalues a cond(L0) of about 1/d pushes past
        # _CUT_TOL: a band of _CUT_TOL alone, like the QZ pencil, loses the
        # dip's cuts for some of these and says "inside"
        for seed in range(5):
            U = np.linalg.qr(random_matrix(np.random.default_rng(seed), 5))[0]
            T = U @ np.diag([1, 1j, -1, -1j, 0]) @ U.conj().T
            for lam in (1, 1j, -1, -1j):
                for tol in (0.0, d / 4):
                    assert not contains(T, lam + d * (1j if lam in (1, -1) else 1), tol)
                    assert contains(T, lam * (1 - d), tol)

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


class TestPonceletPolygons:
    def test_edges_touch_the_compressed_shift(self):
        # S_B, the compressed shift of B with zeros a_1..a_n, has W(S_B)
        # inscribed in every (n+1)-gon whose vertices solve z B(z) = gamma,
        # |gamma| = 1, touching each edge (Gau and Wu, 1998). An edge with
        # angular gap g between its vertices has its normal at the mid
        # angle phi, and h(phi) = cos(g/2) exactly: a support value that
        # errs low fails here, as no one-sided suite bound can show
        rng = np.random.default_rng(26)
        for n in list(range(2, 17)) * 4 + [32, 64]:
            zeros = tuple(0.95 * np.sqrt(rng.uniform(size=n))
                          * np.exp(2j * np.pi * rng.uniform(size=n)))
            S = _clark_unitary(zeros, 0.0)
            gamma = np.exp(2j * np.pi * rng.uniform())
            vertices = np.mod(np.angle(level_set(BlaschkeProduct(1, (0j,) + zeros), gamma)),
                              2 * np.pi)
            gaps = np.diff(np.append(vertices, vertices[0] + 2 * np.pi))
            phis = vertices + gaps / 2
            assert np.abs(support_values(S, phis) - np.cos(gaps / 2)).max() <= 1e-14
            # one edge per draw: its tangency point lies on the edge, and a
            # point 1e-6 past the edge is outside W(S_B)
            k = int(rng.integers(n + 1))
            rotated = np.exp(-1j * phis[k]) * S
            touch = boundary(rotated, 8).points[0]
            assert abs(touch.real - math.cos(gaps[k] / 2)) <= 1e-14
            assert abs(touch.imag) <= math.sin(gaps[k] / 2)
            assert contains(rotated, touch)
            assert not contains(rotated, touch + 1e-6)


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 9), st.sampled_from(["gaussian", "jordan", "tied"]),
           st.integers(2, 8), st.integers(-600, 600))
    def test_power_of_two_scales_by_structure(self, seed, structure, n, k):
        # a Gaussian draw, a rotated c J_n (W a disk, every cell a peak) or a
        # normal matrix whose 2 or 3 largest moduli agree within 1e-5 (the
        # near-tie family); 2^k T has w and h scaled by 2^k to the bit
        rng = np.random.default_rng(seed)
        if structure == "gaussian":
            T = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        elif structure == "jordan":
            T, _ = rotated_jordan(rng, n)
        else:
            tied = int(rng.integers(2, min(3, n) + 1))
            moduli = np.append(1.0 - rng.uniform(0, 1e-5, tied), rng.uniform(0, 0.9, n - tied))
            U = np.linalg.qr(random_complex(rng, n))[0]
            T = U @ np.diag(moduli * np.exp(2j * np.pi * rng.uniform(size=n))) @ U.conj().T
        S = T * 2.0 ** k
        assert numerical_radius(S) == math.ldexp(numerical_radius(T), k)
        thetas = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
        assert support_values(S, thetas).tolist() == np.ldexp(support_values(T, thetas), k).tolist()
