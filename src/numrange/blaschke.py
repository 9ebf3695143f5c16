"""Finite Blaschke products: evaluation, boundary argument, level sets,
and the Clark partial-fraction decomposition.

A finite Blaschke product B(z) = c * prod_k (a_k - z)/(1 - conj(a_k) z)
with |c| = 1 and |a_k| < 1 maps the unit circle onto itself with winding
number n = number of zeros. For |gamma| = 1 the level set B(zeta) = gamma
is the spectrum of a Clark unitary, a closed-form rank-one unitary
perturbation of the compressed shift of B, so one n x n eigenvalue solve
gives all n roots. They are simple, because the boundary argument
t -> arg B(e^{it}) is strictly increasing with derivative

    zeta B'(zeta)/B(zeta) = sum_k (1 - |a_k|^2) / |zeta - a_k|^2 > 0,

and the reciprocal of this log-derivative at each root is its Clark weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NotOnCircleError,
    NotUnimodularError,
    PoleHitError,
    RequiresVanishingAtZeroError,
)

UNIMODULAR_TOL = 1e-9
ZERO_AT_ORIGIN_TOL = 1e-12


@dataclass(frozen=True)
class BlaschkeProduct:
    constant: complex
    zeros: tuple = field(default_factory=tuple)

    def __post_init__(self):
        c = complex(self.constant)
        zeros = tuple(complex(a) for a in self.zeros)
        if not abs(abs(c) - 1.0) <= 1e-12:
            raise NotUnimodularError(f"|constant| = {abs(c)!r}, expected 1")
        if len(zeros) < 1:
            raise ValueError("a Blaschke product needs at least one zero")
        for a in zeros:
            if not abs(a) <= 1.0 - 1e-12:
                raise ValueError(f"zero {a!r} is not in the open unit disk")
        object.__setattr__(self, "constant", c)
        object.__setattr__(self, "zeros", zeros)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def vanishes_at_zero(self) -> bool:
        """Structural test: some zero sits (within 1e-12) at the origin."""
        return any(abs(a) <= ZERO_AT_ORIGIN_TOL for a in self.zeros)

    def __call__(self, z):
        return evaluate(self, z)


def evaluate(B: BlaschkeProduct, z):
    """Evaluate B at a scalar or an array of points.

    The numerators a_k - z and denominators 1 - conj(a_k) z of all factors
    are formed at once, one row per zero; PoleHitError names the first zero
    whose denominator vanishes (below 1e-14) at some point. The product is
    then taken factor by factor in zero order, result * num / den.
    """
    z = np.asarray(z, dtype=complex)
    a = np.array(B.zeros).reshape((-1,) + (1,) * z.ndim)
    nums = a - z
    dens = 1.0 - np.conj(a) * z
    hit = np.abs(dens) < 1e-14
    if hit.any():
        zero = B.zeros[int(np.argmax(hit)) // z.size]
        raise PoleHitError(f"evaluation at a pole of the factor for zero {zero!r}")
    result = np.full(z.shape, B.constant, dtype=complex)
    for num, den in zip(nums, dens):
        result = result * num / den
    if z.ndim == 0:
        return complex(result)
    return result


def circle_log_derivative(B: BlaschkeProduct, zeta: complex) -> float:
    """zeta B'(zeta)/B(zeta) = sum_k (1-|a_k|^2)/|zeta-a_k|^2 on the circle."""
    zeta = complex(zeta)
    if not abs(abs(zeta) - 1.0) <= UNIMODULAR_TOL:
        raise NotOnCircleError(f"|zeta| = {abs(zeta)!r}, expected 1")
    terms = [(1.0 - abs(a) ** 2) / abs(zeta - a) ** 2 for a in B.zeros]
    return float(sum(terms))


def _clark_unitary(zeros, lam: complex) -> np.ndarray:
    """n x n unitary whose eigenvalues are the n solutions of
    prod_k (z - a_k)/(1 - conj(a_k) z) = lam, for |lam| = 1.

    In the Takenaka-Malmquist-Walsh basis the compressed shift T has a_j on
    the diagonal and s_j s_k prod_{j<l<k} w_l above it, with
    s_j = sqrt(1 - |a_j|^2) and w_l = -conj(a_l). The column
    c_j = s_j prod_{l>j} w_l, the row r_k = s_k prod_{l<k} w_l and the
    corner d = prod_l w_l complete it to the unitary [[T, c], [r, d]], and
    the Clark unitary is T + lam/(1 - lam d) c r (Garcia, Mashreghi and
    Ross, Introduction to Model Spaces and their Operators, the chapter on
    Clark operators).

    Every product of w's comes from one cumprod over an (n+1) x (n+1)
    array whose row k is ones up to column k, then w_k ... w_{n-1}: its
    entry (k, j) is prod_{k<=l<j} w_l, each after leading factors of
    exactly 1+0j, so it has the bits of the per-row cumprod starting at
    w_k. Row k + 1, times s_k s_j, is row k of [[T, c], [r, d]] above the
    diagonal, and row 0, times 1 * s_j, is [r, d]. lam = 0 gives T.
    """
    a = np.asarray(zeros, dtype=complex)
    n = a.size
    s = np.sqrt(1.0 - np.abs(a) ** 2)
    lower = np.tri(n + 1, dtype=bool)
    prods = np.cumprod(np.where(lower, 1.0 + 0j, np.append(1.0, -np.conj(a))), axis=1)
    V = np.outer(np.append(1.0, s), np.append(s, 1.0)) * prods
    T = np.where(lower[:-1, :-1], 0j, V[1:, :-1])
    T.flat[::n + 1] = a
    c, r, d = V[1:, -1], V[0, :-1], V[0, -1]
    return T + lam / (1.0 - lam * d) * np.outer(c, r)


def level_set(B: BlaschkeProduct, gamma: complex) -> np.ndarray:
    """All n solutions of B(zeta) = gamma on the unit circle.

    With B = c prod_k (a_k - z)/(1 - conj(a_k) z), they are the
    eigenvalues of the Clark unitary at lam = (-1)^n gamma/c, returned in
    increasing angle in [0, 2pi).
    """
    gamma = complex(gamma)
    if not abs(abs(gamma) - 1.0) <= UNIMODULAR_TOL:
        raise NotUnimodularError(f"|gamma| = {abs(gamma)!r}, expected 1")
    gamma /= abs(gamma)
    lam = (-1) ** B.degree * gamma / B.constant
    zetas = np.linalg.eigvals(_clark_unitary(B.zeros, lam))
    zetas /= np.abs(zetas)
    return zetas[np.argsort(np.mod(np.angle(zetas), 2.0 * np.pi))]


@dataclass(frozen=True)
class ClarkDecomposition:
    """Atoms of 1/(1 - conj(gamma) B(z)) = sum_k c_k/(1 - conj(zeta_k) z).

    All zeta_k are unimodular, all weights c_k are strictly positive, and
    the weights sum to 1 (a probability measure on the circle).
    """

    gamma: complex
    zetas: np.ndarray
    weights: np.ndarray

    def resolvent_sum(self, z):
        """Right-hand side of the decomposition identity at point(s) z."""
        z = np.asarray(z, dtype=complex)
        return (self.weights / (1.0 - np.conj(self.zetas) * z[..., None])).sum(axis=-1)


def clark_decomposition(B: BlaschkeProduct, gamma: complex) -> ClarkDecomposition:
    """Clark decomposition of a Blaschke product with B(0) = 0.

    The atoms zeta_k are level_set(B, gamma), the eigenvalues of the Clark
    unitary, in increasing angle; the weights are
    c_k = B(zeta_k)/(zeta_k B'(zeta_k)) = 1/circle_log_derivative(B, zeta_k).
    """
    if not B.vanishes_at_zero():
        raise RequiresVanishingAtZeroError(
            "Clark decomposition needs an explicit zero at the origin"
        )
    zetas = level_set(B, gamma)
    gamma = complex(gamma) / abs(gamma)
    weights = np.array([1.0 / circle_log_derivative(B, z) for z in zetas])
    return ClarkDecomposition(gamma=gamma, zetas=zetas, weights=weights)
