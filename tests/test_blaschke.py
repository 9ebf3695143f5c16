from functools import reduce

import numpy as np
import pytest

from numrange.blaschke import (
    BlaschkeProduct,
    _clark_unitary,
    circle_log_derivative,
    clark_decomposition,
    evaluate,
    level_set,
)
from numrange.errors import (
    NotOnCircleError,
    NotUnimodularError,
    PoleHitError,
    RequiresVanishingAtZeroError,
)

# B(z) = z is constant -1 with a single zero at the origin:
# -1 * (0 - z)/(1 - 0) = z
IDENTITY = BlaschkeProduct(-1.0, (0j,))
Z2 = BlaschkeProduct(1.0, (0j, 0j))        # z^2
Z3 = BlaschkeProduct(-1.0, (0j, 0j, 0j))   # z^3


def random_product(seed, degree, vanishing=False, radius=0.9):
    rng = np.random.default_rng(seed)
    zeros = [0j] if vanishing else []
    while len(zeros) < degree:
        r = radius * np.sqrt(rng.uniform())
        zeros.append(r * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    return BlaschkeProduct(np.exp(1j * rng.uniform(0, 2 * np.pi)), tuple(zeros))


class TestEvaluate:
    def test_identity_representation(self):
        assert IDENTITY(0.5) == pytest.approx(0.5)
        assert IDENTITY(0.3 + 0.1j) == pytest.approx(0.3 + 0.1j)

    def test_single_factor_at_origin(self):
        B = BlaschkeProduct(1.0, (0.5,))
        assert B(0.0) == pytest.approx(0.5)

    def test_unimodular_on_circle(self):
        B = random_product(1, 5)
        rng = np.random.default_rng(2)
        zetas = np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
        assert np.max(np.abs(np.abs(evaluate(B, zetas)) - 1.0)) < 1e-12

    def test_pole_raises(self):
        B = BlaschkeProduct(1.0, (0.5,))
        with pytest.raises(PoleHitError):
            B(2.0)

    def test_rejects_non_unimodular_constant(self):
        with pytest.raises(NotUnimodularError):
            BlaschkeProduct(0.9, (0j,))

    def test_rejects_zero_outside_disk(self):
        with pytest.raises(ValueError):
            BlaschkeProduct(1.0, (1.0,))

    def test_rejects_no_zeros(self):
        with pytest.raises(ValueError, match="a Blaschke product needs at least one zero"):
            BlaschkeProduct(1, ())


class TestCircleLogDerivative:
    def test_identity_is_one(self):
        for zeta in (1.0, 1j, np.exp(0.7j)):
            assert circle_log_derivative(IDENTITY, zeta) == pytest.approx(1.0)

    def test_double_zero_is_two(self):
        for zeta in (1.0, -1j):
            assert circle_log_derivative(Z2, zeta) == pytest.approx(2.0)

    def test_matches_finite_difference_of_boundary_argument(self):
        B = random_product(3, 4)
        h = 1e-5
        for t in (0.3, 1.9, 4.4):
            ratio = evaluate(B, np.exp(1j * (t + h))) / evaluate(B, np.exp(1j * (t - h)))
            fd = np.angle(ratio) / (2 * h)
            assert circle_log_derivative(B, np.exp(1j * t)) == pytest.approx(
                fd, abs=1e-6)

    def test_strictly_positive(self):
        B = random_product(4, 6)
        for t in np.linspace(0, 2 * np.pi, 17):
            assert circle_log_derivative(B, np.exp(1j * t)) > 1e-12

    def test_off_circle_raises(self):
        with pytest.raises(NotOnCircleError):
            circle_log_derivative(IDENTITY, 0.5)


class TestLevelSet:
    def test_square_roots_of_unity(self):
        roots = sorted(level_set(Z2, 1.0), key=lambda z: z.real)
        assert np.allclose(roots, [-1.0, 1.0], atol=1e-12)

    def test_cube_roots_of_i(self):
        roots = level_set(Z3, 1j)
        expected = [np.exp(1j * np.pi / 6), np.exp(5j * np.pi / 6),
                    np.exp(3j * np.pi / 2)]
        for e in expected:
            assert np.min(np.abs(roots - e)) < 1e-12

    def test_random_degree_four(self):
        B = random_product(5, 4)
        gamma = np.exp(0.83j)
        roots = level_set(B, gamma)
        assert len(roots) == 4
        assert np.max(np.abs(np.abs(roots) - 1.0)) < 1e-12
        assert np.max(np.abs(evaluate(B, roots) - gamma)) < 1e-10
        diffs = np.abs(roots[:, None] - roots[None, :]) + np.eye(4)
        assert diffs.min() > 1e-6

    @pytest.mark.parametrize("vanishing", [False, True])
    @pytest.mark.parametrize("degree", range(1, 11))
    def test_random_products(self, degree, vanishing):
        B = random_product(100 + degree, degree, vanishing=vanishing)
        gamma = np.exp(0.83j)
        roots = level_set(B, gamma)
        assert len(roots) == degree
        assert np.max(np.abs(np.abs(roots) - 1.0)) < 1e-12
        assert np.max(np.abs(evaluate(B, roots) - gamma)) < 1e-10
        # the CLI prints the atoms in this order
        angles = np.mod(np.angle(roots), 2 * np.pi)
        assert np.all(np.diff(angles) > 1e-6)

    def test_repeated_zero(self):
        B = BlaschkeProduct(1.0, (0.5, 0.5, 0.5j))
        gamma = np.exp(2.5j)
        roots = level_set(B, gamma)
        # B = gamma is c prod(a - z) - gamma prod(1 - conj(a) z) = 0
        numer = reduce(np.polymul, ([-1, a] for a in B.zeros))
        denom = reduce(np.polymul, ([-np.conj(a), 1] for a in B.zeros))
        expected = np.roots(B.constant * numer - gamma * denom)
        expected = expected[np.argsort(np.mod(np.angle(expected), 2 * np.pi))]
        assert np.max(np.abs(roots - expected)) < 1e-12
        assert np.max(np.abs(evaluate(B, roots) - gamma)) < 1e-12

    def test_zeros_near_circle_without_zero_at_origin(self):
        # no zero near the origin, and |B'| is about 2e7 next to each zero
        zeros = (1 - 1e-7) * np.exp(1j * np.array([0.4, 2.0, 4.0]))
        B = BlaschkeProduct(1.0, tuple(zeros))
        gamma = np.exp(1.1j)
        roots = level_set(B, gamma)
        assert len(roots) == 3
        assert np.max(np.abs(evaluate(B, roots) - gamma)) <= 1e-7

    @pytest.mark.parametrize("solve", [level_set, clark_decomposition],
                             ids=["level_set", "clark_decomposition"])
    def test_rejects_non_unimodular_gamma(self, solve):
        with pytest.raises(NotUnimodularError):
            solve(Z2, 0.5)


class TestArgumentMonotonicity:
    def test_unwrapped_argument_increases_by_two_pi_n(self):
        B = random_product(6, 5)
        ts = np.linspace(0, 2 * np.pi, 4097)
        args = np.unwrap(np.angle(evaluate(B, np.exp(1j * ts))))
        assert np.all(np.diff(args) > -1e-12)
        assert args[-1] - args[0] == pytest.approx(2 * np.pi * 5, abs=1e-9)


class TestClarkDecomposition:
    def test_degree_one(self):
        gamma = 1j
        d = clark_decomposition(IDENTITY, gamma)
        assert len(d.zetas) == 1
        assert d.zetas[0] == pytest.approx(gamma, abs=1e-12)
        assert d.weights[0] == pytest.approx(1.0)

    def test_z_squared_partial_fractions(self):
        d = clark_decomposition(Z2, 1.0)
        order = np.argsort([-z.real for z in d.zetas])
        assert np.allclose(d.zetas[order], [1.0, -1.0], atol=1e-12)
        assert np.allclose(d.weights, [0.5, 0.5], atol=1e-12)

    def test_random_degree_five_identity(self):
        B = random_product(7, 5, vanishing=True)
        gamma = np.exp(2.13j)
        d = clark_decomposition(B, gamma)
        assert np.all(d.weights > 1e-12)
        assert d.weights.sum() == pytest.approx(1.0, abs=1e-10)
        rng = np.random.default_rng(8)
        zs = 0.9 * np.sqrt(rng.uniform(size=100)) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, 100))
        lhs = 1.0 / (1.0 - np.conj(gamma) * evaluate(B, zs))
        assert np.max(np.abs(lhs - d.resolvent_sum(zs))) < 1e-9

    def test_weight_times_log_derivative_is_one(self):
        B = random_product(9, 4, vanishing=True)
        d = clark_decomposition(B, np.exp(0.4j))
        for zeta, c in zip(d.zetas, d.weights):
            assert c * circle_log_derivative(B, zeta) == pytest.approx(
                1.0, abs=1e-10)

    def test_atoms_solve_level_equation(self):
        B = random_product(10, 3, vanishing=True)
        gamma = np.exp(5.1j)
        d = clark_decomposition(B, gamma)
        assert np.max(np.abs(evaluate(B, d.zetas) - gamma)) < 1e-9

    def test_zero_near_circle(self):
        # |B'| is about 2e6 near the second zero; an argument grid capped
        # at 2^20 points aliases there
        B = BlaschkeProduct(1.0, (0j, (1 - 1e-6) * np.exp(0.4j), 0.3j))
        gamma = np.exp(1.1j)
        d = clark_decomposition(B, gamma)
        assert len(d.zetas) == 3
        assert np.max(np.abs(np.abs(d.zetas) - 1.0)) < 1e-12
        assert np.max(np.abs(evaluate(B, d.zetas) - gamma)) <= 1e-8
        assert d.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_requires_zero_at_origin(self):
        B = BlaschkeProduct(1.0, (0.5,))
        with pytest.raises(RequiresVanishingAtZeroError):
            clark_decomposition(B, 1.0)


def _row_loop_clark_unitary(zeros, lam):
    """The Clark unitary built row by row, one cumprod per row: the form
    that _clark_unitary's single cumprod must match bit for bit."""
    a = np.asarray(zeros, dtype=complex)
    s = np.append(np.sqrt(1.0 - np.abs(a) ** 2), 1.0)
    w = -np.conj(a)
    V = np.diag(np.append(a, 0j))
    for i in range(-1, a.size):
        V[i, i + 1:] = s[i] * s[i + 1:] * np.cumprod(np.append(1.0, w[i + 1:]))
    T, c, r, d = V[:-1, :-1], V[:-1, -1], V[-1, :-1], V[-1, -1]
    return T + lam / (1.0 - lam * d) * np.outer(c, r)


def _per_zero_evaluate(B, z):
    """B(z) one zero at a time, with a pole check per zero: the form that
    evaluate must match bit for bit, error included."""
    z = np.asarray(z, dtype=complex)
    result = np.full(z.shape, B.constant, dtype=complex)
    for a in B.zeros:
        denom = 1.0 - np.conj(a) * z
        if np.any(np.abs(denom) < 1e-14):
            raise PoleHitError(f"evaluation at a pole of the factor for zero {a!r}")
        result = result * (a - z) / denom
    if z.ndim == 0:
        return complex(result)
    return result


def _reference_draws():
    """(rng, zeros) for degrees 1-12: interior zeros, zeros repeated at the
    origin (w = -0 entries), and one zero of modulus 0.999."""
    rng = np.random.default_rng(37)
    for degree in range(1, 13):
        for kind in ("interior", "origin", "near-circle") * 4:
            zeros = 0.9 * np.sqrt(rng.uniform(size=degree)) * np.exp(
                2j * np.pi * rng.uniform(size=degree))
            if kind == "origin":
                zeros[:degree // 2 + 1] = 0.0
            elif kind == "near-circle":
                zeros[rng.integers(degree)] = 0.999 * np.exp(2j * np.pi * rng.uniform())
            yield rng, tuple(complex(a) for a in zeros)


class TestArrayFormsMatchLoops:
    def test_clark_unitary_matches_row_loop(self):
        for rng, zeros in _reference_draws():
            for lam in (0.0, complex(np.exp(2j * np.pi * rng.uniform())), -1.0):
                got, want = _clark_unitary(zeros, lam), _row_loop_clark_unitary(zeros, lam)
                assert got.shape == want.shape == (len(zeros), len(zeros))
                assert got.tobytes() == want.tobytes(), (zeros, lam)

    def test_evaluate_matches_per_zero_loop(self):
        for rng, zeros in _reference_draws():
            B = BlaschkeProduct(np.exp(2j * np.pi * rng.uniform()), zeros)
            zs = 0.95 * np.sqrt(rng.uniform(size=9)) * np.exp(2j * np.pi * rng.uniform(size=9))
            for z in (zs, zs.reshape(3, 3), zs[0], complex(zs[1]), np.exp(1j * zs[2].real)):
                got, want = evaluate(B, z), _per_zero_evaluate(B, z)
                assert type(got) is type(want) and np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (zeros, z)

    def test_pole_of_the_second_zero(self):
        B = BlaschkeProduct(1j, (0.3 - 0.2j, 0.5 + 0.4j, -0.6))
        first, second, third = (1.0 / np.conj(a) for a in B.zeros)
        # the third zero's pole comes first in the array, but the second
        # zero is named, as the loop checks zero by zero
        for z in (second, np.array([0.1j, second, 0.5]), np.array([third, 0.2, second])):
            messages = []
            for form in (evaluate, _per_zero_evaluate):
                with pytest.raises(PoleHitError) as raised:
                    form(B, z)
                messages.append(str(raised.value))
            assert messages[0] == messages[1]
            assert messages[0].endswith(f"for zero {B.zeros[1]!r}")
        with pytest.raises(PoleHitError, match=r"for zero \(0\.3-0\.2j\)"):
            evaluate(B, np.array([second, first]))
