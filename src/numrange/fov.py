"""Numerical range W(T) = {<Tx,x> : ||x||=1} via support functions.

The support function h(theta) of W(T) in direction theta is the top
eigenvalue of the rotated Hermitian part
H(theta) = (e^{-i theta} T + e^{i theta} T*)/2.
Sweeping theta gives the boundary curve; maximizing over theta gives the
numerical radius w(T). The maximization keeps only the angle cells whose
outer-polygon bound can still beat the best value found (Uhlig, "Geometric
computation of the numerical radius of a matrix", 2009) and refines them
by safeguarded Newton steps on h'(theta) = Im(e^{-i theta}<Tx,x>) (Watson,
"Computing the numerical radius", 1996) until a step can change h by no
more than rounding; that is the only stop rule, with no angle tolerance.

Comparisons of h with a level c over the whole circle need no angle grid:
_level_cuts finds every theta at which some eigenvalue of H(theta) equals
c, from the unimodular eigenvalues of one 2n x 2n pencil (Mengi and
Overton, "Algorithms for the computation of the pseudospectral radius and
the numerical radius of a matrix", IMA J. Numer. Anal. 2005). Between
consecutive cuts h - c has a single sign, so one sample per arc decides
it. contains(T, z) is this test for h_{T - zI} against -tol.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg
from .errors import NoConvergenceError

# h is first sampled at _COARSE_ANGLES angles; the cells that can still
# beat the best sample are halved _HALVINGS times (to 2 pi / 64) before
# Newton refinement starts in them
_COARSE_ANGLES = 16
_HALVINGS = 2

# cap on the lockstep Newton/bisection steps: bisection from one 2 pi / 64
# cell reaches 1e-16 in about 50
_MAX_STEPS = 64

# a pencil eigenvalue z within this of the unit circle is a cut at arg z. A
# true crossing lies within rounding of the circle, and a level that h only
# grazes, missing by g, puts its pair about sqrt(g) off it. Too loose a bound
# costs nothing: an extra cut only splits an arc into two that each keep a
# single sign, so the constant errs on the generous side
_CUT_TOL = 1e-6


def hermitian_part(T, theta: float = 0.0) -> np.ndarray:
    """(e^{-i theta} T + e^{i theta} T*)/2, Hermitian by construction."""
    return _rotated(*_cartesian_parts(linalg.as_matrix(T)), np.array([theta]))[0]


def support_values(T, thetas) -> np.ndarray:
    """Top eigenvalue of H(theta) for each theta (vectorized)."""
    T = linalg.as_matrix(T)
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    return _support_kernels(T)[0](thetas)


@dataclass(frozen=True)
class BoundaryCurve:
    """Sampled boundary data of W(T).

    thetas are strictly increasing in [0, 2pi); supports[k] is the support
    function value in direction thetas[k]; points[k] = <T x, x> for a top
    eigenvector x of H(thetas[k]).
    """

    thetas: np.ndarray
    supports: np.ndarray
    points: np.ndarray


def boundary(T, n_angles: int) -> BoundaryCurve:
    """Boundary curve of W(T) on a uniform angle grid (n_angles >= 8)."""
    if n_angles < 8:
        raise ValueError(f"n_angles must be >= 8, got {n_angles}")
    T = linalg.as_matrix(T)
    thetas = 2.0 * np.pi * np.arange(n_angles) / n_angles
    vals, vecs = np.linalg.eigh(_rotated(*_cartesian_parts(T), thetas))
    supports = vals[:, -1]
    tops = vecs[:, :, -1]
    points = np.einsum("ki,ij,kj->k", tops.conj(), T, tops)
    return BoundaryCurve(thetas=thetas, supports=supports, points=points)


def _cartesian_parts(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = (T + T*)/2 and B = (T - T*)/2i, so H(theta) = cos(theta) A + sin(theta) B."""
    TH = T.conj().T
    return (T + TH) / 2.0, (T - TH) * -0.5j


def _rotated(A: np.ndarray, B: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Batch of H(theta) for each theta."""
    return (np.cos(thetas)[:, None, None] * A
            + np.sin(thetas)[:, None, None] * B)


def _top_eigh(A: np.ndarray, B: np.ndarray, thetas: np.ndarray):
    """h, h', h'' of h(theta) = lambda_max(H(theta)) at each theta.

    h' = x* H' x for a unit top eigenvector x, which is Im(e^{-i theta}<Tx,x>),
    and h'' = -h + 2 sum_j |y_j* H' x|^2 / (h - lambda_j) over the other
    eigenpairs (lambda_j, y_j), since H'' = -H.
    """
    vals, vecs = np.linalg.eigh(_rotated(A, B, thetas))
    h = vals[:, -1]
    x = vecs[:, :, -1]
    # H'(theta) x for the top eigenvector x
    dx = np.cos(thetas)[:, None] * (x @ B.T) - np.sin(thetas)[:, None] * (x @ A.T)
    d1 = np.einsum("ki,ki->k", x.conj(), dx).real
    coef = np.einsum("kji,kj->ki", vecs[:, :, :-1].conj(), dx)
    gaps = h[:, None] - vals[:, :-1]
    d2 = 2.0 * np.sum((coef * coef.conj()).real / gaps, axis=1) - h
    return h, d1, d2


def _sinusoids_2x2(T: np.ndarray) -> np.ndarray:
    """Coefficients P with [m, u, Re b, Im b, and their theta-derivatives]
    = cos(theta) P[0] + sin(theta) P[1], where H(theta) = [[m + u, b],
    [conj(b), m - u]] for a 2x2 T."""
    (t00, t01), (t10, t11) = T.tolist()
    mean, half_gap = (t00 + t11) / 2, (t00 - t11) / 2
    a01, b01 = (t01 + t10.conjugate()) / 2, (t01 - t10.conjugate()) * -0.5j
    from_a = [mean.real, half_gap.real, a01.real, a01.imag]
    from_b = [mean.imag, half_gap.imag, b01.real, b01.imag]
    return np.array([from_a + from_b, from_b + [-v for v in from_a]])


def _top_2x2(P: np.ndarray, thetas: np.ndarray):
    """h, h', h'' in closed form for 2x2 T: h = m + r, r = sqrt(u^2 + |b|^2)."""
    V = np.cos(thetas)[:, None] * P[0] + np.sin(thetas)[:, None] * P[1]
    w, dw = V[:, 1:4], V[:, 5:8]
    r = np.hypot(w[:, 0], np.hypot(w[:, 1], w[:, 2]))
    dr = (w * dw).sum(axis=1) / r
    # the parts of H are sinusoids, so w'' = -w
    d2r = ((dw * dw).sum(axis=1) - r * r - dr * dr) / r
    return V[:, 0] + r, V[:, 4] + dr, d2r - V[:, 0]


def _support_kernels(T: np.ndarray):
    """(sample, evaluate) for T: sample(thetas) gives h at each theta and
    evaluate(thetas) gives h, h', h''; closed forms when T is 2x2."""
    if T.shape[0] == 2:
        P = _sinusoids_2x2(T)
        def sample(thetas):
            V = np.cos(thetas)[:, None] * P[0, :4] + np.sin(thetas)[:, None] * P[1, :4]
            return V[:, 0] + np.hypot(V[:, 1], np.hypot(V[:, 2], V[:, 3]))
        return sample, functools.partial(_top_2x2, P)
    A, B = _cartesian_parts(T)
    return (lambda thetas: np.linalg.eigvalsh(_rotated(A, B, thetas))[:, -1],
            functools.partial(_top_eigh, A, B))


def _cell_bound(lo: float, hi: float, h_lo: float, h_hi: float) -> float:
    """Outer-polygon bound on h over the cell [lo, hi] (0 < hi - lo < pi).

    The supporting lines at lo and hi cross at e^{i lo}(h_lo + i c). When
    that vertex lies in the cell's sector of directions, the wedge of the
    two lines, and so W(T), has support at most its modulus there; else the
    wedge's largest support in those directions is an end value."""
    cos_w, sin_w = math.cos(hi - lo), math.sin(hi - lo)
    c = (h_hi - h_lo * cos_w) / sin_w
    if c > 0 and h_lo > h_hi * cos_w:
        return math.hypot(h_lo, c)
    return max(h_lo, h_hi)


def numerical_radius(T) -> float:
    """w(T) = max_theta h(theta), h(theta) = lambda_max(H(theta)).

    h is sampled at 16 angles. A cell between neighbouring samples can hold
    a value above the best sample only if its outer-polygon bound (the
    modulus of the point where the supporting lines at its ends cross)
    exceeds it; such cells are halved, and the rest dropped, until they are
    2 pi / 64 wide. Each cell left is then refined, all of them in
    lockstep, by Newton steps on h' = 0. A cell's first step starts at the
    vertex of the parabola through the three samples around it, keeps a
    bracket on which h' falls from + to -, and bisects when a step would
    leave it. A cell is dropped as soon as its bound no longer beats the
    best value attained, and is finished once its next step could change h
    by no more than rounding: |h'| |step| <= 4 eps times the best of the 16
    samples. That is the only stop rule. There is no angle tolerance, since
    Newton's quadratic convergence always meets this rule first. The result
    is the largest h attained, so it never exceeds w(T) by more than
    rounding.
    """
    sample, evaluate = _support_kernels(linalg.as_matrix(T))
    width = 2.0 * np.pi / _COARSE_ANGLES
    values = sample(width * np.arange(_COARSE_ANGLES)).tolist()
    best = max(values)
    gain_tol = 4.0 * np.finfo(float).eps * best
    values.append(values[0])
    cells = [(k * width, (k + 1) * width, values[k], values[k + 1], None)
             for k in range(_COARSE_ANGLES)]
    for _ in range(_HALVINGS):
        cells = [c for c in cells if _cell_bound(*c[:4]) > best]
        if not cells:
            break
        mids = [(lo + hi) / 2.0 for lo, hi, *_ in cells]
        h_mids = sample(np.array(mids)).tolist()
        best = max(best, *h_mids)
        width /= 2.0
        halves = []
        for (lo, hi, h_lo, h_hi, _), mid, h_mid in zip(cells, mids, h_mids):
            bend = h_lo - 2.0 * h_mid + h_hi
            vertex = mid + 0.5 * width * (h_lo - h_hi) / bend if bend < 0 else mid
            halves += [(lo, mid, h_lo, h_mid, vertex), (mid, hi, h_mid, h_hi, vertex)]
        cells = halves
    cells = [(lo, hi, h_lo, h_hi, min(max(vertex, lo), hi))
             for lo, hi, h_lo, h_hi, vertex in cells
             if _cell_bound(lo, hi, h_lo, h_hi) > best]

    for _ in range(_MAX_STEPS):
        if not cells:
            break
        # a repeated top eigenvalue or extreme scaling makes h'' non-finite,
        # which the bracket logic below treats as "no Newton step"
        with np.errstate(all="ignore"):
            h, d1, d2 = (v.tolist() for v in evaluate(np.array([c[4] for c in cells])))
        best = max(best, *h)
        refined = []
        for (lo, hi, h_lo, h_hi, theta), val, slope, curv in zip(cells, h, d1, d2):
            if slope > 0:
                lo, h_lo = theta, val
            elif slope < 0:
                hi, h_hi = theta, val
            elif slope == 0:
                continue
            nxt = theta - slope / curv if curv < 0 else math.nan
            if not lo < nxt < hi:
                nxt = (lo + hi) / 2.0
            if abs(slope) * abs(nxt - theta) <= gain_tol:
                continue
            if _cell_bound(lo, hi, h_lo, h_hi) > best:
                refined.append((lo, hi, h_lo, h_hi, nxt))
        cells = refined
    return best


def _level_cuts(T: np.ndarray, c: float) -> np.ndarray:
    """Sorted angles theta in [0, 2 pi) at which some eigenvalue of H(theta)
    equals c.

    det(H(theta) - cI) = 0 exactly when z = e^{i theta} solves
    det(T* z^2 - 2c z I + T) = 0, so the cuts are the arguments of the
    unimodular eigenvalues of the pencil [[0, I], [-T, 2cI]] - z [[I, 0],
    [0, T*]]; infinite ones (T* singular) and NaN ones (a singular pencil)
    are dropped. Between consecutive cuts lambda_max(H) - c has one sign.
    """
    n = T.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    try:
        z = scipy.linalg.eigvals(np.block([[zero, eye], [-T, 2.0 * c * eye]]),
                                 np.block([[eye, zero], [zero, T.conj().T]]))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"level-crossing pencil: {exc}") from exc
    z = z[np.isfinite(z)]
    return np.sort(np.angle(z[np.abs(np.abs(z) - 1.0) <= _CUT_TOL]) % (2.0 * np.pi))


def _arc_midpoints(cuts: np.ndarray) -> np.ndarray:
    """The midpoint of each arc into which the sorted angles cuts divide the
    circle; with no cut, the circle is one arc and 0 stands for it."""
    if cuts.size == 0:
        return np.zeros(1)
    return (cuts + np.append(cuts[1:], cuts[0] + 2.0 * np.pi)) / 2.0


def contains(T, z: complex, tol: float = 1e-9) -> bool:
    """Membership of z in the closure of W(T), up to a support slack tol.

    z is in W(T) iff h_{T - zI}(theta) = h(theta) - Re(e^{-i theta} z) >= 0
    for every theta. The level cuts of T - zI at -tol divide the circle
    into arcs on each of which h_{T - zI} + tol has one sign, so testing
    h_{T - zI} >= -tol at each arc's midpoint tests the whole circle.
    """
    S = linalg.as_matrix(T)
    S = S - complex(z) * np.eye(len(S))
    return bool(np.all(support_values(S, _arc_midpoints(_level_cuts(S, -tol))) >= -tol))
