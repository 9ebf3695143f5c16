"""Closed-form disk-algebra functions and their matrix functional calculus.

A DiskFunction is a finite expression tree built from polynomials, Mobius
maps (a + b z)/(c + d z), finite Blaschke products, compositions, and
radial scalings z -> f(rho z). Matrix evaluation replaces z by a square
matrix T; every division becomes a resolvent solve, which raises
PolesNearSpectrumError when the required system is numerically singular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .blaschke import BlaschkeProduct
from .errors import PoleHitError, PolesNearSpectrumError, SingularError


class DiskFunction:
    """Base class; subclasses implement scalar and matrix evaluation."""

    def at(self, z: complex) -> complex:
        raise NotImplementedError

    def of_matrix(self, T: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, z):
        return self.at(z)


def eval_scalar(f: DiskFunction, z: complex) -> complex:
    return f.at(complex(z))


def eval_matrix(f: DiskFunction, T) -> np.ndarray:
    return f.of_matrix(linalg.as_matrix(T))


def _matrix_solve(A, B):
    try:
        return linalg.solve(A, B)
    except SingularError as exc:
        raise PolesNearSpectrumError(str(exc)) from exc


@dataclass(frozen=True)
class Polynomial(DiskFunction):
    """c0 + c1 z + c2 z^2 + ... (constant term first)."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    def at(self, z):
        result = 0j
        for c in reversed(self.coefficients):
            result = result * z + c
        return result

    def of_matrix(self, T):
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
            object.__setattr__(self, name, complex(getattr(self, name)))
        if abs(self.c) + abs(self.d) == 0.0:
            raise ValueError("Mobius denominator is identically zero")

    def at(self, z):
        denom = self.c + self.d * z
        if abs(denom) < 1e-13:
            raise PoleHitError(f"Mobius denominator vanishes at z = {z!r}")
        return (self.a + self.b * z) / denom

    def of_matrix(self, T):
        n = T.shape[0]
        eye = np.eye(n, dtype=complex)
        numer = self.a * eye + self.b * T
        if self.d == 0:
            return numer / self.c
        return _matrix_solve(self.c * eye + self.d * T, numer)


@dataclass(frozen=True)
class Blaschke(DiskFunction):
    product: BlaschkeProduct

    def at(self, z):
        return self.product(z)

    def of_matrix(self, T):
        n = T.shape[0]
        eye = np.eye(n, dtype=complex)
        result = self.product.constant * eye
        for a in self.product.zeros:
            factor = _matrix_solve(eye - np.conj(a) * T, a * eye - T)
            result = result @ factor
        return result


@dataclass(frozen=True)
class Compose(DiskFunction):
    outer: DiskFunction
    inner: DiskFunction

    def at(self, z):
        return self.outer.at(self.inner.at(z))

    def of_matrix(self, T):
        return self.outer.of_matrix(self.inner.of_matrix(T))


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

    def of_matrix(self, T):
        return self.inner.of_matrix(self.rho * T)


def mobius_automorphism(alpha: complex) -> Mobius:
    """phi_alpha(z) = (alpha + z)/(1 + conj(alpha) z), |alpha| < 1."""
    alpha = complex(alpha)
    if abs(alpha) >= 1.0:
        raise ValueError(f"|alpha| must be < 1, got {abs(alpha)!r}")
    return Mobius(alpha, 1.0, 1.0, np.conj(alpha))
