"""Closed-form disk-algebra functions and their matrix functional calculus.

A DiskFunction is a finite expression tree built from polynomials, Mobius
maps (a + b z)/(c + d z), finite Blaschke products, compositions, and
radial scalings z -> f(rho z). Matrix evaluation replaces z by a square
matrix T; every division becomes a resolvent solve, which raises
PolesNearSpectrumError when the required system is numerically singular.

f.steps(T) is f(T) as a lockstep body (numrange.lockstep): it yields the
request (_solve_systems, systems) for the list of linear systems of one
level of its expression tree, every factor of a Blaschke product or the
one of a Mobius map, and is sent the list of their solutions, or has the
PolesNearSpectrumError of a singular system raised at the yield. lockstep
joins the systems of all bodies of a wave into one list, which
_solve_systems solves as one stack per size (one linalg.solve call); the
verify suites step through f(T) this way inside their trials. A Compose
evaluates its inner function, then its outer one, and every product is
formed in factor order, so each f(T) is the same to the bit as when it is
evaluated alone. eval_matrix runs one such body.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from . import linalg, lockstep
from .blaschke import BlaschkeProduct
from .errors import NumericError, PoleHitError, PolesNearSpectrumError, SingularError


class DiskFunction:
    """Base class; subclasses implement scalar and matrix evaluation."""

    def at(self, z: complex) -> complex:
        raise NotImplementedError

    def steps(self, T: np.ndarray):
        """f(T) as a generator: it yields requests (_solve_systems,
        systems) for lists of linear systems (A, B), is sent the list of
        their solutions A^-1 B, and returns f(T)."""
        raise NotImplementedError

    def __call__(self, z):
        return self.at(z)


def eval_scalar(f: DiskFunction, z: complex) -> complex:
    return f.at(complex(z))


def eval_matrix(f: DiskFunction, T) -> np.ndarray:
    """f(T); PolesNearSpectrumError if a resolvent solve is singular."""
    [FT] = lockstep.run([f.steps(linalg.as_matrix(T))])
    return FT


def _solve_systems(systems) -> list:
    """The solutions A^-1 B of the systems (A, B): one linalg.solve call
    for all systems of a size. PolesNearSpectrumError if one of them is
    singular; lockstep then asks each body's systems alone, so that only
    the bodies with a singular system fail."""
    solved = [None] * len(systems)
    sizes = {}
    for i, (A, _) in enumerate(systems):
        sizes.setdefault(len(A), []).append(i)
    for run in sizes.values():
        A, B = (np.stack([systems[i][j] for i in run]) for j in (0, 1))
        try:
            X = linalg.solve(A, B)
        except SingularError as exc:
            raise PolesNearSpectrumError(str(exc)) from exc
        for i, x in zip(run, X):
            solved[i] = x
    return solved


def _check_finite(name: str, value: complex):
    """ValueError naming the coefficient when value is inf or nan."""
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Polynomial(DiskFunction):
    """c0 + c1 z + c2 z^2 + ... (constant term first)."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        for k, c in enumerate(coeffs):
            _check_finite(f"polynomial coefficient c{k}", c)
        object.__setattr__(self, "coefficients", coeffs)

    def at(self, z):
        result = 0j
        for c in reversed(self.coefficients):
            result = result * z + c
        return result

    def steps(self, T):
        yield from ()  # no system to solve
        n = T.shape[0]
        eye = np.eye(n, dtype=complex)
        result = self.coefficients[-1] * eye
        for c in reversed(self.coefficients[:-1]):
            result = result @ T + c * eye
        return result


@dataclass(frozen=True)
class Mobius(DiskFunction):
    """z -> (a + b z)/(c + d z)."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            value = complex(getattr(self, name))
            _check_finite(f"Mobius coefficient {name}", value)
            object.__setattr__(self, name, value)
        if abs(self.c) + abs(self.d) == 0.0:
            raise ValueError("Mobius denominator is identically zero")

    def at(self, z):
        denom = self.c + self.d * z
        if abs(denom) < 1e-13:
            raise PoleHitError(f"Mobius denominator vanishes at z = {z!r}")
        return (self.a + self.b * z) / denom

    def steps(self, T):
        n = T.shape[0]
        eye = np.eye(n, dtype=complex)
        numer = self.a * eye + self.b * T
        if self.d == 0:
            # a subnormal c overflows the quotient
            with np.errstate(over="ignore", invalid="ignore"):
                X = numer / self.c
            if not np.isfinite(X).all():
                raise NumericError(f"(a + b T)/c is not finite for c = {self.c!r}")
            return X
        [X] = yield _solve_systems, [(self.c * eye + self.d * T, numer)]
        return X


@dataclass(frozen=True)
class Blaschke(DiskFunction):
    product: BlaschkeProduct

    def at(self, z):
        return self.product(z)

    def steps(self, T):
        n = T.shape[0]
        eye = np.eye(n, dtype=complex)
        factors = yield _solve_systems, [(eye - np.conj(a) * T, a * eye - T)
                                         for a in self.product.zeros]
        result = self.product.constant * eye
        for factor in factors:
            result = result @ factor
        return result


@dataclass(frozen=True)
class Compose(DiskFunction):
    outer: DiskFunction
    inner: DiskFunction

    def at(self, z):
        return self.outer.at(self.inner.at(z))

    def steps(self, T):
        return (yield from self.outer.steps((yield from self.inner.steps(T))))


@dataclass(frozen=True)
class Scale(DiskFunction):
    """z -> inner(rho z) with rho in (0, 1]; the radial regularization."""

    rho: float
    inner: DiskFunction

    def __post_init__(self):
        rho = float(self.rho)
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"rho must be in (0, 1], got {rho!r}")
        object.__setattr__(self, "rho", rho)

    def at(self, z):
        return self.inner.at(self.rho * z)

    def steps(self, T):
        return (yield from self.inner.steps(self.rho * T))


def mobius_automorphism(alpha: complex) -> Mobius:
    """phi_alpha(z) = (alpha + z)/(1 + conj(alpha) z), |alpha| < 1."""
    alpha = complex(alpha)
    if not abs(alpha) < 1.0:
        raise ValueError(f"|alpha| must be < 1, got {abs(alpha)!r}")
    return Mobius(alpha, 1.0, 1.0, np.conj(alpha))
