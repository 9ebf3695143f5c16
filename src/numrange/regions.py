"""Teardrop regions, Drury's parameter region S, and the quadratic form
Q(T, t, s) = I + t(T + T*) + s T*T.

The teardrop td(alpha) is the convex hull of the closed unit disk and the
disk of center alpha, radius 1 - |alpha|^2. Its support function is
max(1, Re(e^{-i phi} alpha) + 1 - |alpha|^2), which is rotation-covariant,
so general complex alpha needs no special casing. Its boundary, two circle
arcs joined by two tangent segments, has a closed-form signed distance, and
teardrop_boundary samples it as two arrays (phis, points).

Region S is the set of (t, s) with t >= 0 such that Q(T, t, s) >= 0 for
every T with w(T) <= 1; its boundary is piecewise t^2 - 1/4 (t <= 1/2),
2t - 1 (1/2 <= t <= 1), t^2 (t >= 1). region_S_boundary is the one statement
of these branches; it takes a scalar or an array of t.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import linalg
from .errors import DomainError, NegativeTError

_DOMAIN_SLACK = 1e-12


def _check_alpha(alpha) -> complex:
    alpha = complex(alpha)
    if not abs(alpha) <= 1.0 + 1e-12:
        raise ValueError(f"|alpha| must be <= 1, got {abs(alpha)!r}")
    return alpha


def _is_unit_disk(a: float) -> bool:
    """td(alpha) equals the unit disk to within 1e-12 when |alpha| is this
    close to 0 or to 1."""
    return a < 1e-12 or 1.0 - a * a < 1e-12


def teardrop_support(alpha: complex, phi) -> float | np.ndarray:
    """Support function of td(alpha) in direction(s) phi."""
    alpha = _check_alpha(alpha)
    phi = np.asarray(phi, dtype=float)
    value = np.maximum(
        1.0, np.real(np.exp(-1j * phi) * alpha) + 1.0 - abs(alpha) ** 2
    )
    if phi.ndim == 0:
        return float(value)
    return value


def teardrop_distance(alpha: complex, z) -> float | np.ndarray:
    """Signed distance from z (scalar or array) to the boundary of td(alpha),
    negative inside; for a convex set this is also the largest support
    excess max_phi Re(e^{-i phi} z) - teardrop_support(alpha, phi).

    With z rotated onto the axis of alpha, k is its position along the
    tangent segment of normal (|alpha|, sqrt(1 - |alpha|^2)), which picks
    the unit circle, the segment or the circle of radius 1 - |alpha|^2
    around |alpha| as the nearest piece.
    """
    alpha = _check_alpha(alpha)
    z = np.asarray(z, dtype=complex)
    a = abs(alpha)
    if _is_unit_disk(a):
        dist = np.abs(z) - 1.0
    else:
        r2 = 1.0 - a * a
        c = math.sqrt(r2)
        zr = z * (alpha.conjugate() / a)
        u, v = zr.real, np.abs(zr.imag)
        k = c * u - a * v
        dist = np.where(k < 0.0, np.hypot(u, v) - 1.0,
                        np.where(k > a * c, np.hypot(u - a, v) - r2,
                                 a * u + c * v - 1.0))
    if z.ndim == 0:
        return float(dist)
    return dist


def teardrop_contains(alpha: complex, z: complex, tol: float = 1e-9) -> bool:
    """Membership of z in td(alpha), up to a distance tol."""
    return bool(teardrop_distance(alpha, complex(z)) <= tol)


# sampling of the teardrop_boundary polyline: the uniform angle grid, and
# the points on each tangent segment
BOUNDARY_ANGLES = 720
SEGMENT_POINTS = 21


def teardrop_boundary(alpha: complex) -> tuple[np.ndarray, np.ndarray]:
    """(phis, points): ordered samples of the td(alpha) boundary.

    Each grid direction phi gives the point of the unit circle where the
    unit disk's support dominates, and of the circle D(alpha, 1-|alpha|^2)
    where the second disk's does. At each crossing direction the common
    tangent segment follows the grid samples at or before it, walked from
    the circle the boundary leaves to the one it joins, so that the points
    go once around td(alpha) counterclockwise.
    """
    alpha = _check_alpha(alpha)
    a = abs(alpha)
    r2 = 1.0 - a * a
    phis, unit = _boundary_grid()
    if _is_unit_disk(a):
        return phis.copy(), unit.copy()
    psi = math.atan2(alpha.imag, alpha.real)
    delta = math.acos(a)
    points = np.where(np.cos(phis - psi) >= a, alpha + r2 * unit, unit)
    leave, join = (psi - delta) % (2.0 * np.pi), (psi + delta) % (2.0 * np.pi)
    crossings = sorted((leave, join))
    e = np.exp(1j * np.array(crossings))[:, None]
    segments = e + np.linspace(0.0, 1.0, SEGMENT_POINTS) * (alpha + r2 * e - e)
    # the boundary leaves the unit circle at psi - delta and joins it again
    # at psi + delta, so that segment runs from the small circle
    back = int(join > leave)
    segments[back] = segments[back, ::-1]
    # each segment follows the grid samples at or before its crossing
    i, j = np.searchsorted(phis, crossings, side="right").tolist()
    first, second = (np.full(SEGMENT_POINTS, c) for c in crossings)
    return (np.concatenate([phis[:i], first, phis[i:j], second, phis[j:]]),
            np.concatenate([points[:i], segments[0], points[i:j], segments[1], points[j:]]))


@functools.cache
def _boundary_grid() -> tuple[np.ndarray, np.ndarray]:
    """(phis, e^{i phis}) of teardrop_boundary's angle grid, which depend on
    no alpha: built once per process, on the first call, and read-only."""
    phis = 2.0 * np.pi * np.arange(BOUNDARY_ANGLES) / BOUNDARY_ANGLES
    unit = np.exp(1j * phis)
    phis.flags.writeable = unit.flags.writeable = False
    return phis, unit


def region_S_boundary(t):
    """Lowest admissible s for t >= 0, scalar (a float) or array (an array):
    t^2 - 1/4 up to t = 1/2, then 2t - 1 up to t = 1, then t^2."""
    ts = np.asarray(t, dtype=float)
    if not np.all(ts >= 0):
        raise NegativeTError(f"t must be >= 0, got {float(ts.min())!r}")
    s = np.where(ts <= 0.5, ts * ts - 0.25, np.where(ts <= 1.0, 2.0 * ts - 1.0, ts * ts))
    return float(s) if ts.ndim == 0 else s


def region_S_contains(t: float, s: float) -> bool:
    return s >= region_S_boundary(t)


def q_form(T, t, s) -> np.ndarray:
    """Hermitian matrix I + t(T + T*) + s T*T.

    T is one (n, n) matrix or an (m, n, n) stack. Scalar t and s give one
    (n, n) matrix per T. Arrays t and s of equal shape (k,) give the
    (k, n, n) stack of Q(T, t[j], s[j]) per T, so (m, k, n, n) for a stack.
    Each member is bitwise the matrix that the scalar call on one T makes,
    so that a stack can go to linalg.min_eigenvalue in one call.
    """
    T = linalg.as_stack(T) if np.ndim(T) == 3 else linalg.as_matrix(T)
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    if t.shape != s.shape or t.ndim > 1:
        raise ValueError(f"t and s must be scalars or equal-shape 1-D arrays, "
                         f"got shapes {t.shape} and {s.shape}")
    if t.ndim:
        T = T[..., None, :, :]
    TH = T.conj().swapaxes(-1, -2)
    t, s = t[..., None, None], s[..., None, None]
    Q = np.eye(T.shape[-1], dtype=complex) + t * (T + TH) + s * (TH @ T)
    return (Q + Q.conj().swapaxes(-1, -2)) / 2.0


def drury_params_outer(alpha: float, theta: float) -> tuple[complex, float, float]:
    """(omega, t, s) for the half-plane family Re(e^{i theta} z) <= 1.

    Valid for alpha in [0, 1) and cos(theta) <= alpha; yields t in [1/2, 1]
    with s = 2t - 1 and |omega| = 1. For F = (alpha I + G)(I + alpha G)^{-1},
    (I + alpha G)* [I - Re(e^{i theta} F)] (I + alpha G)
    = (1 - alpha cos(theta)) Q(omega G, t, s). The sign of theta matters only
    through omega: the half-planes covered, cos(theta) <= alpha, are the same
    for theta and -theta.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise DomainError(f"alpha must be in [0, 1), got {alpha!r}")
    c = math.cos(theta)
    if not c <= alpha + _DOMAIN_SLACK:
        raise DomainError(f"outer branch needs cos(theta) <= alpha, got {c!r} > {alpha!r}")
    denom = 1.0 - 2.0 * alpha * c + alpha * alpha
    eit = complex(math.cos(theta), math.sin(theta))
    omega = (2.0 * alpha - eit - alpha * alpha * np.conj(eit)) / denom
    t = denom / (2.0 * (1.0 - alpha * c))
    s = alpha * (alpha - c) / (1.0 - alpha * c)
    return complex(omega), t, s


def drury_params_inner(alpha: float, theta: float) -> tuple[complex, float, float]:
    """(omega, t, s) for the family Re(e^{-i theta}(z - alpha)) <= 1 - alpha^2.

    Valid for alpha in [0, 1) and cos(theta) >= alpha; yields t in [0, 1/2]
    with s = t^2 - 1/4 and |omega| = 1. At the degenerate corner t = 0 the
    direction omega is immaterial and is reported as 1.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise DomainError(f"alpha must be in [0, 1), got {alpha!r}")
    c = math.cos(theta)
    if not c >= alpha - _DOMAIN_SLACK:
        raise DomainError(f"inner branch needs cos(theta) >= alpha, got {c!r} < {alpha!r}")
    s = alpha * (alpha - c)
    # s + 1/4 = (alpha - 1/2)^2 + alpha(1 - cos(theta)) >= 0: only rounding
    # can take it below zero
    radicand = s + 0.25
    t = math.sqrt(max(radicand, 0.0))
    if t < 1e-15:
        return 1.0 + 0.0j, t, s
    eit = complex(math.cos(theta), math.sin(theta))
    omega = (2.0 * alpha - np.conj(eit)) / (2.0 * t)
    return complex(omega), t, s
