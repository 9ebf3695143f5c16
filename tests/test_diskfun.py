import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from numrange.blaschke import BlaschkeProduct
from numrange.diskfun import (
    Blaschke,
    Compose,
    Mobius,
    Polynomial,
    Scale,
    eval_matrix,
    eval_scalar,
    mobius_automorphism,
)
from numrange import lockstep
from numrange.errors import NumericError, PoleHitError, PolesNearSpectrumError
from numrange.linalg import as_matrix, solve

SHIFT2 = np.array([[0, 2], [0, 0]], dtype=complex)
CIRCLE = np.exp(1j * np.linspace(0, 2 * np.pi, 360, endpoint=False))

# f(z) = (1 - 2z)/(2 - z), the sharp 5/4 example
SHARP = Mobius(1, -2, 2, -1)


class TestScalar:
    def test_automorphism_at_origin(self):
        assert eval_scalar(mobius_automorphism(0.5), 0.0) == pytest.approx(0.5)

    def test_sharp_example_at_origin(self):
        assert eval_scalar(SHARP, 0.0) == pytest.approx(0.5)

    def test_sharp_example_sup_norm_is_one(self):
        values = np.abs([eval_scalar(SHARP, z) for z in CIRCLE])
        assert values.max() == pytest.approx(1.0, abs=1e-9)

    def test_polynomial_horner(self):
        p = Polynomial((1, 0, -2))  # 1 - 2z^2
        assert eval_scalar(p, 3.0) == pytest.approx(-17.0)

    def test_mobius_pole_is_pole_hit_error(self):
        # z/(1 - z) at its pole z = 1
        with pytest.raises(PoleHitError, match=r"Mobius denominator vanishes at z = 1"):
            Mobius(0, 1, 1, -1).at(1)

    def test_automorphism_needs_alpha_in_the_disk(self):
        with pytest.raises(ValueError, match=r"\|alpha\| must be < 1, got 1.5"):
            mobius_automorphism(1.5)

    def test_polynomial_needs_a_coefficient(self):
        with pytest.raises(ValueError, match="polynomial needs at least one coefficient"):
            Polynomial(())

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0, math.inf)],
                             ids=["inf", "-inf", "nan", "inf-imag"])
    def test_non_finite_coefficient_is_value_error(self, bad):
        # each constructed, and poly 0 inf made search loop for ever
        with pytest.raises(ValueError, match=r"polynomial coefficient c1 must be finite"):
            Polynomial((0, bad))
        for k, name in enumerate("abcd"):
            coefficients = [1, 1, 1, 0]
            coefficients[k] = bad
            with pytest.raises(ValueError, match=rf"Mobius coefficient {name} must be finite"):
                Mobius(*coefficients)


class TestMatrix:
    def test_square_of_nilpotent_is_zero(self):
        FT = eval_matrix(Polynomial((0, 0, 1)), SHIFT2)
        assert np.max(np.abs(FT)) == 0

    def test_sharp_example_on_shift(self):
        FT = eval_matrix(SHARP, SHIFT2)
        assert np.max(np.abs(FT - np.array([[0.5, -1.5], [0, 0.5]]))) < 1e-12

    def test_automorphism_of_zero_matrix(self):
        alpha = 0.3 - 0.2j
        FT = eval_matrix(mobius_automorphism(alpha), np.zeros((3, 3)))
        assert np.allclose(FT, alpha * np.eye(3))

    def test_blaschke_matrix_matches_scalar_on_diagonal(self):
        B = Blaschke(BlaschkeProduct(1.0, (0.4, -0.2 + 0.3j)))
        D = np.diag([0.1, -0.5 + 0.2j, 0.3j])
        FT = eval_matrix(B, D)
        expected = np.diag([B.at(z) for z in np.diag(D)])
        assert np.max(np.abs(FT - expected)) < 1e-12

    def test_pole_near_spectrum_raises(self):
        # z/(1 - z) has a pole at 1, which is an eigenvalue of I
        with pytest.raises(PolesNearSpectrumError):
            eval_matrix(Mobius(0, 1, 1, -1), np.eye(2))

    def test_pole_near_spectrum_behind_large_pivots(self):
        # z/(1 + z) at A - I needs A^-1, for the A of
        # TestSolve::test_near_singular_behind_unit_pivots: its LU has unit
        # pivots, and at n = 64 A is numerically singular
        A = np.eye(64) - np.triu(np.ones((64, 64)), 1)
        with pytest.raises(PolesNearSpectrumError):
            eval_matrix(Mobius(0, 1, 1, 1), A - np.eye(64))

    def test_overflowing_constant_denominator_is_numeric_error(self):
        # d = 0 divides by c without a solve; a subnormal c overflowed with
        # numpy's RuntimeWarnings and gave inf and nan entries
        message = r"\(a \+ b T\)/c is not finite for c = \(1e-320\+0j\)"
        with pytest.raises(NumericError, match=message):
            eval_matrix(Mobius(0, 1, 1e-320, 0), np.eye(2))

    def test_spectral_mapping_on_diagonalizable(self):
        rng = np.random.default_rng(21)
        n = 5
        lams = 0.8 * np.sqrt(rng.uniform(size=n)) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, n))
        V = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2 * np.eye(n)
        T = V @ np.diag(lams) @ np.linalg.inv(V)
        f = Compose(mobius_automorphism(0.2 + 0.1j),
                    Blaschke(BlaschkeProduct(1j, (0j, 0.3))))
        got = np.linalg.eigvals(eval_matrix(f, T))
        want = np.array([f.at(l) for l in lams])
        cost = np.abs(got[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() < 1e-7

    def test_degree_one_poly_equals_mobius(self):
        rng = np.random.default_rng(22)
        T = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a, b = 0.3 - 1j, 2.0 + 0.5j
        P = eval_matrix(Polynomial((a, b)), T)
        M = eval_matrix(Mobius(a, b, 1, 0), T)
        assert np.max(np.abs(P - M)) < 1e-12

    def test_scale_consistency(self):
        rng = np.random.default_rng(23)
        T = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        f = Compose(SHARP, Polynomial((0, 0.2, 0.4)))
        lhs = eval_matrix(Scale(0.7, f), T)
        rhs = eval_matrix(f, 0.7 * T)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def reference_eval(f, T):
    """f(T) one factor at a time, with one linalg.solve per Blaschke or
    Mobius factor, in factor order: the loop that f.steps stacks."""
    eye = np.eye(len(T), dtype=complex)
    if isinstance(f, Polynomial):
        result = f.coefficients[-1] * eye
        for c in reversed(f.coefficients[:-1]):
            result = result @ T + c * eye
        return result
    if isinstance(f, Mobius):
        numer = f.a * eye + f.b * T
        return numer / f.c if f.d == 0 else solve(f.c * eye + f.d * T, numer)
    if isinstance(f, Blaschke):
        result = f.product.constant * eye
        for a in f.product.zeros:
            result = result @ solve(eye - np.conj(a) * T, a * eye - T)
        return result
    if isinstance(f, Compose):
        return reference_eval(f.outer, reference_eval(f.inner, T))
    return reference_eval(f.inner, f.rho * T)


def mixed_pairs(seed, count):
    """count pairs (f, T) with n = 1..8 and every DiskFunction kind, nested
    up to two levels deep."""
    rng = np.random.default_rng(seed)

    def point(r=0.9):
        return r * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())

    def leaf():
        kind = rng.integers(4)
        if kind == 0:
            return Polynomial(tuple(point(1.0) for _ in range(rng.integers(1, 5))))
        if kind == 1:
            return mobius_automorphism(point())
        if kind == 2:
            return Mobius(point(), point(), 2.0, 0)
        zeros = tuple(point() for _ in range(rng.integers(1, 6)))
        return Blaschke(BlaschkeProduct(np.exp(2j * np.pi * rng.uniform()), zeros))

    pairs = []
    for k in range(count):
        f = leaf()
        if k % 3 == 1:
            f = Compose(leaf(), Scale(0.8, leaf()))
        elif k % 3 == 2:
            f = Scale(0.9, Compose(f, leaf()))
        n = int(rng.integers(1, 9))
        T = 0.6 * (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))) / n
        pairs.append((f, T))
    return pairs


def eval_pairs(pairs) -> list:
    """f(T) for each pair (f, T), with the bodies f.steps(T) run side by
    side; a pair whose resolvent is singular gets its error in place of a
    matrix."""
    def caught(steps):
        try:
            return (yield from steps)
        except PolesNearSpectrumError as exc:
            return exc
    return lockstep.run([caught(f.steps(as_matrix(T))) for f, T in pairs])


class TestEvalMatrices:
    """Many f(T) at once: lockstep.run over the step bodies f.steps(T)."""

    def test_stack_matches_one_by_one_bitwise(self):
        pairs = mixed_pairs(31, 120)
        got = eval_pairs(pairs)
        for (f, T), FT in zip(pairs, got):
            want = reference_eval(f, T)
            assert FT.shape == want.shape and FT.tobytes() == want.tobytes()
            assert eval_matrix(f, T).tobytes() == want.tobytes()

    def test_one_solve_per_size_per_level(self, monkeypatch):
        # Compose(Mobius, Blaschke) at n = 2, 3, 2: the Blaschke factors of
        # one level (2 + 1 + 2), then the Mobius maps, stacked by size
        shapes = []
        real = np.linalg.solve

        def counted(a, b):
            shapes.append(a.shape)
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        f = Compose(mobius_automorphism(0.3), Blaschke(BlaschkeProduct(1.0, (0j, 0.5))))
        g = Compose(mobius_automorphism(-0.2j), Blaschke(BlaschkeProduct(1j, (0.1,))))
        eval_pairs([(f, np.eye(2) / 3), (g, np.eye(3) / 4), (f, np.eye(2) / 5)])
        assert shapes == [(4, 2, 2), (1, 3, 3), (2, 2, 2), (1, 3, 3)]

    def test_singular_member_fails_alone(self):
        # z/(1 - z) has its pole at the eigenvalue 1 of I; the other pairs,
        # of both sizes, keep their bits
        pairs = mixed_pairs(32, 12)
        pole = (Compose(Mobius(0, 1, 1, -1), Polynomial((0, 1))), np.eye(len(pairs[4][1])))
        got = eval_pairs(pairs[:5] + [pole] + pairs[5:])
        assert isinstance(got[5], PolesNearSpectrumError)
        assert "singular value" in str(got[5])
        for (f, T), FT in zip(pairs, got[:5] + got[6:]):
            assert FT.tobytes() == reference_eval(f, T).tobytes()

    def test_empty(self):
        assert eval_pairs([]) == []
