"""Numerical range W(T) = {<Tx,x> : ||x||=1} via support functions.

The support function h(theta) of W(T) in direction theta is the top
eigenvalue of the rotated Hermitian part
H(theta) = (e^{-i theta} T + e^{i theta} T*)/2.
Every result here is read off one kernel for h (_supports), which serves
a list of matrices of mixed sizes in one eigensolve call per size and
answers three orders of query: h; h and h' at theta and theta + pi; and
h, h', h''. For a unit top eigenvector x, h' = Im(e^{-i theta}<Tx,x>), so
<Tx, x> = e^{i theta}(h + i h') is a boundary point (C. R. Johnson,
"Numerical determination of the field of values of a general complex
matrix", SIAM J. Numer. Anal. 1978): boundary is the order-1 query on an
angle grid. Since H(theta + pi) = -H(theta), the extreme eigenpairs of
H(theta) give h at theta (top pair) and at theta + pi (bottom pair), so
boundary solves only half of an even angle grid; n = 2 (and n = 1, as
t I_2) has closed forms, and larger n takes one tridiagonal reduction and
two eigenpairs per solved angle rather than a full eigendecomposition.
Maximizing over theta gives the numerical radius w(T). The maximization
keeps only the angle cells whose outer-polygon bound can still beat the
best value found (Uhlig, "Geometric computation of the numerical radius
of a matrix", 2009) and refines them by safeguarded Newton steps on h'
(Watson, "Computing the numerical radius", 1996) until a step can change
h by no more than rounding; that is the only stop rule, with no angle
tolerance. numerical_radii runs this search for many matrices at once,
and support_values samples h. Every entry point, the level cuts and
hermitian_part included, scales T by 2^-e, with e from its largest entry
(_prescaled), and scales the result back: that is exact, and H(theta) can
no longer overflow. A value that is still not finite raises NumericError
(_finite).

Comparisons of h with a level c over the whole circle need no angle grid:
_level_cuts finds every theta at which some eigenvalue of H(theta) equals
c, from the unimodular eigenvalues of one 2n x 2n pencil (Mengi and
Overton, "Algorithms for the computation of the pseudospectral radius and
the numerical radius of a matrix", IMA J. Numer. Anal. 2005). Between
consecutive cuts h - c has a single sign, so one sample per arc decides
it; arc_midpoints gives those samples. contains(T, z) is this test for
h_{T - zI} against -tol.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from . import linalg
from .errors import NoConvergenceError, NumericError

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
# grazes, missing by g, puts its pair about sqrt(g) off it. An extra cut
# costs nothing, as both arcs it makes keep a single sign, so this is generous
_CUT_TOL = 1e-6


def hermitian_part(T, theta: float = 0.0) -> np.ndarray:
    """(e^{-i theta} T + e^{i theta} T*)/2, Hermitian by construction, formed
    from the prescaled T; NumericError if an entry is not finite."""
    S, e = _prescaled(linalg.as_matrix(T))
    H = _rotated(*_cartesian_parts(S[None]), [0], np.array([theta]))[0]
    with np.errstate(over="ignore"):
        H.real, H.imag = np.ldexp(H.real, e), np.ldexp(H.imag, e)
    return _finite(H, "Hermitian part entry")


def support_values(T, thetas) -> np.ndarray:
    """Top eigenvalue of H(theta) for each theta (vectorized); NumericError
    if one is not a finite number."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    slot = np.zeros(len(thetas), dtype=int)
    _, sweep, scale_back = _supports([T])
    return scale_back(slot, sweep(slot, thetas), "support value")


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
    """Boundary curve of W(T) on a uniform angle grid (n_angles >= 8), from
    the kernel's order-1 query: points[k] = e^{i theta}(h + i h') at
    thetas[k]. NumericError if a support value or point is not finite,
    NoConvergenceError if LAPACK fails.

    The query gives h and h' at theta and at theta + pi, so an even
    n_angles asks only for the first half of its angles, and row
    k + n_angles/2 is the theta + pi answer of row k. An odd n_angles has
    no antipodal pairs and asks for every angle.
    """
    if n_angles < 8:
        raise ValueError(f"n_angles must be >= 8, got {n_angles}")
    thetas = 2.0 * np.pi * np.arange(n_angles) / n_angles
    paired = 0 if n_angles % 2 else n_angles // 2
    _, sweep, scale_back = _supports([T])
    h, d1 = sweep(np.zeros(n_angles - paired, dtype=int), thetas[:n_angles - paired], order=1)
    slot = np.zeros(n_angles, dtype=int)
    supports, slopes = (scale_back(slot, np.concatenate([v[:, 0], v[:paired, 1]]), what)
                        for v, what in ((h, "support value"), (d1, "boundary point")))
    points = _finite(np.exp(1j * thetas) * (supports + 1j * slopes), "boundary point")
    return BoundaryCurve(thetas=thetas, supports=supports, points=points)


def _extreme_pairs(S: np.ndarray, thetas: np.ndarray):
    """(h, h') of the prescaled matrix S at each of thetas, each with
    columns theta and theta + pi.

    H(theta) = cos A + sin B, formed as _rotated forms it from the cartesian
    parts of S, is reduced once to real tridiagonal form, H = Q T Q*
    (zhetrd). Bisection on Sturm counts (dstebz) gives eigenvalue n and
    eigenvalue 1 of T, inverse iteration (dstein) a vector for each, and one
    zunmqr call maps both vectors back by Q. This is how LAPACK's zheevr
    computes an index subset; MRRR (dstemr) for a single index returned the
    second eigenvalue in place of the first when the two were 1e-14..1e-11
    apart. The top pair (lambda_n, x) gives h = lambda_n and
    h' = Im(e^{-i theta}<Sx, x>); the bottom pair (lambda_1, y) is the top
    pair of H(theta + pi) = -H(theta), which gives h = -lambda_1 and
    h' = -Im(e^{-i theta}<Sy, y>) there. NoConvergenceError if a LAPACK call
    reports failure.
    """
    n = len(S)
    # Fortran order, so that zhetrd works on H in place
    A, B = (np.asfortranarray(X) for X in _cartesian_parts(S))
    cos, sin = np.cos(thetas), np.sin(thetas)
    vals = np.empty((len(thetas), 2))
    vecs = np.empty((len(thetas), 2, n), dtype=complex)
    for k in range(len(thetas)):
        Z = vecs[k].T  # the two vectors at thetas[k], as Fortran-order columns
        H = A * cos[k]
        H += B * sin[k]
        c, d, e, tau, info = scipy.linalg.lapack.zhetrd(H, lower=1, overwrite_a=1)
        _lapack_ok("zhetrd", info)
        for col, i in enumerate((n, 1)):
            # range 2 selects eigenvalues il..iu; tolerance 0 is LAPACK's default
            _, w, block, split, info = scipy.linalg.lapack.dstebz(d, e, 2, 0.0, 0.0, i, i,
                                                                  0.0, "E")
            _lapack_ok("dstebz", info)
            z, info = scipy.linalg.lapack.dstein(d, e, w[:1], block, split)
            _lapack_ok("dstein", info)
            vals[k, col], Z[:, col] = w[0], z[:, 0]
        Z[1:], _, info = scipy.linalg.lapack.zunmqr("L", "N", c[1:, :-1], tau, Z[1:], 2)
        _lapack_ok("zunmqr", info)
    # <Sx, x> of both vectors at each angle
    forms = (vecs.conj() * (vecs @ S.T)).sum(axis=2)
    return vals * [1, -1], (np.exp(-1j * thetas)[:, None] * forms).imag * [1, -1]


def _lapack_ok(routine: str, info: int):
    if info != 0:
        raise NoConvergenceError(f"boundary eigenpairs: {routine} returned info {info}")


def _cartesian_parts(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = (T + T*)/2, B = (T - T*)/2i of a stack T: H = cos(theta) A + sin(theta) B."""
    TH = T.conj().swapaxes(-1, -2)
    return (T + TH) / 2.0, (T - TH) * -0.5j


def _rotated(A: np.ndarray, B: np.ndarray, j, thetas: np.ndarray) -> np.ndarray:
    """H(thetas[c]) of matrix j[c] of the stacks A, B, formed in place in the
    copies A[j] and B[j], which saves two temporaries of that size."""
    H, G = A[j], B[j]
    H *= np.cos(thetas)[:, None, None]
    G *= np.sin(thetas)[:, None, None]
    H += G
    return H


def _runs(j: np.ndarray):
    """(start, stop) of each run of equal values in the sorted array j."""
    cuts = (np.flatnonzero(j[1:] != j[:-1]) + 1).tolist()
    return zip([0] + cuts, cuts + [len(j)])


def _top_eigh(A: np.ndarray, B: np.ndarray, j: np.ndarray, thetas: np.ndarray):
    """h, h', h'' of h(theta) = lambda_max(H_j(theta)) for matrix j[c] of the
    stacks A, B at thetas[c].

    h' = x* H' x for a unit top eigenvector x, which is Im(e^{-i theta}<Tx,x>),
    and h'' = -h + 2 sum_j |y_j* H' x|^2 / (h - lambda_j) over the other
    eigenpairs (lambda_j, y_j), since H'' = -H. H'x is formed per matrix, as
    x @ B.T over that matrix's run of thetas: a batched product rounds
    differently.
    """
    vals, vecs = np.linalg.eigh(_rotated(A, B, j, thetas))
    h, x = vals[:, -1], vecs[:, :, -1]
    cos, sin = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
    # H'(theta) x for the top eigenvector x
    dx = np.empty_like(x)
    for a, b in _runs(j):
        dx[a:b] = cos[a:b] * (x[a:b] @ B[j[a]].T) - sin[a:b] * (x[a:b] @ A[j[a]].T)
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
    """h, h', h'' in closed form for 2x2 T: h = m + r, r = sqrt(u^2 + |b|^2).
    P holds one set of coefficients per theta."""
    V = np.cos(thetas)[:, None] * P[:, 0] + np.sin(thetas)[:, None] * P[:, 1]
    w, dw = V[:, 1:4], V[:, 5:8]
    r = np.hypot(w[:, 0], np.hypot(w[:, 1], w[:, 2]))
    # at r = 0, H = m I and every unit vector is a top eigenvector: take
    # r' = r'' = 0 there, which dividing by inf gives, since w = 0
    q = np.where(r > 0, r, np.inf)
    dr = (w * dw).sum(axis=1) / q
    # the parts of H are sinusoids, so w'' = -w
    d2r = ((dw * dw).sum(axis=1) - r * r - dr * dr) / q
    return V[:, 0] + r, V[:, 4] + dr, d2r - V[:, 0]


def _support_kernels(Ts: np.ndarray):
    """The methods of orders 0, 1 and 2 for a (m, n, n) stack (see
    _supports), each taking (j, thetas) for matrix j[c] at thetas[c] and a
    sorted j; closed forms when n = 2."""
    if Ts.shape[1] == 2:
        P = np.array([_sinusoids_2x2(T) for T in Ts])
        def pairs(j, thetas):
            h, d1, _ = _top_2x2(P[np.tile(j, 2)], np.concatenate([thetas, thetas + np.pi]))
            return h.reshape(2, -1).T, d1.reshape(2, -1).T
        return (lambda j, thetas: _top_2x2(P[j], thetas)[0], pairs,
                lambda j, thetas: _top_2x2(P[j], thetas))
    A, B = _cartesian_parts(Ts)
    def sample(j, thetas):
        return np.linalg.eigvalsh(_rotated(A, B, j, thetas))[:, -1]
    def pairs(j, thetas):
        runs = [_extreme_pairs(Ts[j[a]], thetas[a:b]) for a, b in _runs(j)]
        return tuple(np.concatenate(p) for p in zip(*runs))
    return sample, pairs, functools.partial(_top_eigh, A, B)


def _supports(mats):
    """The kernel for h of the square matrices mats, which may mix sizes:
    (slots, sweep, scale_back). A 1x1 [t] enters as t I_2, which has the
    same W. Slots hold the prescaled matrices in (n, index) order, and
    mats[i] is in slots[i]. sweep(slot, thetas, order) answers for slot[c]
    at thetas[c], in one kernel call per distinct n for a sorted slot:
    order 0 gives h; order 1 gives (h, h'), each with columns theta and
    theta + pi; order 2 gives (h, h', h''). scale_back(slot, values, what)
    takes values of slot back to the units of mats and checks them (_finite).
    """
    mats = [T * np.eye(2) if len(T) == 1 else T for T in map(linalg.as_matrix, mats)]
    ranked = sorted(range(len(mats)), key=lambda i: (len(mats[i]), i))
    slots = np.argsort(ranked)
    scaled, exps = zip(*[_prescaled(mats[i]) for i in ranked])
    # (first slot, stop slot, methods by order) for each size n
    groups = [(first, stop, _support_kernels(np.array(scaled[first:stop])))
              for first, stop in _runs(np.array([len(S) for S in scaled]))]

    def sweep(slot, thetas, order=0):
        # one kernel call per size n, over that size's contiguous run of cells
        parts = []
        for first, stop, methods in groups:
            a, b = np.searchsorted(slot, [first, stop])
            if a < b:
                parts.append(methods[order](slot[a:b] - first, thetas[a:b]))
        if order:
            return tuple(np.concatenate(p) for p in zip(*parts))
        return np.concatenate(parts)

    def scale_back(slot, values, what):
        with np.errstate(over="ignore"):
            return _finite(np.ldexp(values, np.array(exps)[slot]), what)

    return slots, sweep, scale_back


def _cell_bounds(lo, hi, h_lo, h_hi) -> np.ndarray:
    """Outer-polygon bound on h over each cell [lo, hi] (hi - lo < pi).

    The supporting lines at lo and hi cross at e^{i lo}(h_lo + i c). When
    that vertex lies in the cell's sector of directions, the wedge of the
    two lines, and so W(T), has support at most its modulus there; else the
    wedge's largest support in those directions is an end value, which is
    also the bound of a cell of zero width. The bound only decides which
    cells are kept; it is never a reported value."""
    cos_w, sin_w = np.cos(hi - lo), np.sin(hi - lo)
    c = (h_hi - h_lo * cos_w) / sin_w
    vertex = (c > 0) & (h_lo > h_hi * cos_w)
    return np.where(vertex, np.hypot(h_lo, c), np.maximum(h_lo, h_hi))


def numerical_radius(T) -> float:
    """w(T) = max_theta h(theta), the one-matrix case of numerical_radii."""
    return float(numerical_radii([T])[0])


def numerical_radii(mats) -> np.ndarray:
    """w(T) for each square matrix T of mats, which may mix sizes.

    For each T, h is sampled at 16 angles. A cell between neighbouring
    samples can hold a value above the best sample only if its outer-polygon
    bound (the modulus of the point where the supporting lines at its ends
    cross) exceeds it; such cells are halved, and the rest dropped, until
    they are 2 pi / 64 wide. Each cell left is then refined, all of them in
    lockstep, by Newton steps on h' = 0. A cell's first step starts at the
    vertex of the parabola through the three samples around it, keeps a
    bracket on which h' falls from + to -, and bisects when a step would
    leave it. A cell is dropped as soon as its bound no longer beats the
    best value its matrix attained, and is finished once its next step
    could change h by no more than rounding: |h'| |step| <= 4 eps times the
    best of its matrix's 16 samples; Newton's quadratic convergence always
    meets this rule before any angle tolerance would. Each result is the
    largest h attained, so it never exceeds w(T) by more than rounding.

    The search runs on the kernel _supports, for all matrices at once; a w
    that is not finite raises NumericError, and [] gives an empty array.
    """
    mats = list(mats)
    if not mats:
        return np.zeros(0)
    slots, sweep, scale_back = _supports(mats)
    # _cell_search meets non-finite h'' (a repeated top eigenvalue) and
    # zero-width cells; the comparisons it makes fail for such values
    with np.errstate(all="ignore"):
        best = _cell_search(sweep, len(mats))
    return scale_back(slots, best[slots], "numerical radius of matrix")


def _cell_search(sweep, k: int) -> np.ndarray:
    """The largest h reached by the search of numerical_radii for each of k
    slots; sweep(slot, thetas) samples h of matrix slot[c] at thetas[c], and
    sweep(slot, thetas, order=2) gives h, h', h''."""
    width = 2.0 * np.pi / _COARSE_ANGLES
    ends = width * np.arange(_COARSE_ANGLES + 1)
    slot = np.repeat(np.arange(k), _COARSE_ANGLES)
    lo, hi = np.tile(ends[:-1], k), np.tile(ends[1:], k)
    values = sweep(slot, lo).reshape(k, _COARSE_ANGLES)
    best = values.max(axis=1)
    gain_tol = 4.0 * np.finfo(float).eps * best
    h_lo, h_hi = values.ravel(), np.roll(values, -1, axis=1).ravel()
    vertex = lo  # where each cell's Newton refinement starts, set by the halvings
    for halving in range(_HALVINGS + 1):
        keep = _cell_bounds(lo, hi, h_lo, h_hi) > best[slot]
        slot, lo, hi, h_lo, h_hi, vertex = (
            v[keep] for v in (slot, lo, hi, h_lo, h_hi, vertex))
        if halving == _HALVINGS or not slot.size:
            break
        mid = (lo + hi) / 2.0
        h_mid = sweep(slot, mid)
        np.maximum.at(best, slot, h_mid)
        width /= 2.0
        bend = h_lo - 2.0 * h_mid + h_hi
        vertex = np.where(bend < 0, mid + 0.5 * width * (h_lo - h_hi) / bend, mid)
        # each cell splits into [lo, mid] and [mid, hi]
        slot, lo, hi, h_lo, h_hi, vertex = (
            np.repeat(v, 2) for v in (slot, lo, hi, h_lo, h_hi, vertex))
        lo[1::2], hi[0::2], h_lo[1::2], h_hi[0::2] = mid, mid, h_mid, h_mid
    theta = np.minimum(np.maximum(vertex, lo), hi)

    for _ in range(_MAX_STEPS):
        if not slot.size:
            break
        h, d1, d2 = sweep(slot, theta, order=2)
        np.maximum.at(best, slot, h)
        rising, falling = d1 > 0, d1 < 0
        lo, h_lo = np.where(rising, theta, lo), np.where(rising, h, h_lo)
        hi, h_hi = np.where(falling, theta, hi), np.where(falling, h, h_hi)
        nxt = np.where(d2 < 0, theta - d1 / d2, np.nan)
        nxt = np.where((lo < nxt) & (nxt < hi), nxt, (lo + hi) / 2.0)
        keep = ((d1 != 0) & ~(np.abs(d1) * np.abs(nxt - theta) <= gain_tol[slot])
                & (_cell_bounds(lo, hi, h_lo, h_hi) > best[slot]))
        slot, lo, hi, h_lo, h_hi, theta = (
            v[keep] for v in (slot, lo, hi, h_lo, h_hi, nxt))
    return best


def _prescaled(T: np.ndarray) -> tuple[np.ndarray, int]:
    """(2^-e T, e), with 2^(e-1) <= the largest |Re| or |Im| of an entry
    < 2^e (e = 0 for T = 0) and e >= -1021, so that 2^-e is finite."""
    top = max(float(np.abs(T.real).max()), float(np.abs(T.imag).max()))
    e = max(math.frexp(top)[1], -1021)
    return (T * 2.0 ** -e if e else T), e


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """values, or NumericError naming the first one (by flat index) that is
    not finite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NumericError(f"{what} {bad[0]} is {values.flat[bad[0]]}, not a finite number")
    return values


def _level_cuts(T: np.ndarray, c: float) -> np.ndarray:
    """Sorted angles theta in [0, 2 pi) at which some eigenvalue of H(theta)
    equals c.

    det(H(theta) - cI) = 0 exactly when z = e^{i theta} solves
    det(T* z^2 - 2c z I + T) = 0, so the cuts are the arguments of the
    unimodular eigenvalues of the pencil [[0, I], [-T, 2cI]] - z [[I, 0],
    [0, T*]]; infinite ones (T* singular) and NaN ones (a singular pencil)
    are dropped. The pencil is formed from the prescaled T and level.
    """
    T, e = _prescaled(T)
    eye, zero = np.eye(len(T)), np.zeros(T.shape)
    try:
        z = scipy.linalg.eigvals(np.block([[zero, eye], [-T, 2.0 * math.ldexp(c, -e) * eye]]),
                                 np.block([[eye, zero], [zero, T.conj().T]]))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"level-crossing pencil: {exc}") from exc
    z = z[np.isfinite(z)]
    return np.sort(np.angle(z[np.abs(np.abs(z) - 1.0) <= _CUT_TOL]) % (2.0 * np.pi))


def arc_midpoints(levels) -> np.ndarray:
    """The midpoint of each arc into which the level cuts of every pair
    (T, c) of levels divide the circle; with no cut, the circle is one arc
    and 0 stands for it. On each arc, h_T - c keeps one sign for every
    pair, so comparing h_T with c at these angles compares it everywhere."""
    cuts = functools.reduce(np.union1d, [_level_cuts(linalg.as_matrix(T), c)
                                         for T, c in levels])
    if cuts.size == 0:
        return np.zeros(1)
    return (cuts + np.append(cuts[1:], cuts[0] + 2.0 * np.pi)) / 2.0


def contains(T, z: complex, tol: float = 1e-9) -> bool:
    """Membership of z in the closure of W(T), up to a support slack tol.

    z is in W(T) iff h_{T - zI}(theta) = h(theta) - Re(e^{-i theta} z) >= 0
    for every theta; testing h_{T - zI} >= -tol at the arc midpoints of its
    level cuts at -tol tests the whole circle.
    """
    S = linalg.as_matrix(T) - complex(z) * np.eye(len(T))
    return bool(np.all(support_values(S, arc_midpoints([(S, -tol)])) >= -tol))
