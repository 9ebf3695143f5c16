"""Numerical range W(T) = {<Tx,x> : ||x||=1} via support functions.

The support function h(theta) of W(T) in direction theta is the top
eigenvalue of the rotated Hermitian part
H(theta) = (e^{-i theta} T + e^{i theta} T*)/2.
Every result here is read off one kernel for h (_supports), which serves
a list of matrices of mixed sizes in one eigensolve call per size and
answers one query per order: h; h and h'; and h, h', h''. A query is a
sweep over cells sorted by matrix, each at its own angle theta, and any
of its cells can also be answered at theta + pi, from the same
eigensolve: which ones is a list of cell positions, not a kind of query.
A sweep takes cos theta and sin theta of all its cells once, splits them
into one run per size with one searchsorted, and hands each run its
slices, so that its fixed cost per size is the eigensolve call and little
else. For a unit top eigenvector x, h' = Im(e^{-i theta}<Tx,x>), so
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
tolerance. Where a cell and its antipodal cell (half a turn away) are
both still live, one eigensolve at the first's angle serves both, its
bottom eigenpair giving h, h' and h'' at the angle + pi: this halves the
search's eigensolves for T unitarily similar to -T, such as weighted
shifts, Jordan blocks and bipartite [[0, A], [B, 0]], whose W is
symmetric about 0. numerical_radii runs this search for many matrices
at once, and support_values samples h. A caller that only compares each
w with a bound, and wants the largest excess w - bound, passes
(bound, tol) per matrix: a matrix then stops at the end of a coarse or
halving stage once the outer-polygon bounds of its cells show that it
passes and cannot be the largest excess, and returns a value at most its
w that keeps both answers. Every entry point, the level cuts
and hermitian_part included, scales T by 2^-e, with e from its largest entry
(_prescaled), and scales the result back: that is exact, and H(theta) can
no longer overflow. A value that is still not finite raises NumericError
(_finite).

Comparisons of h with a level c over the whole circle need no angle grid:
level_cuts finds every theta at which some eigenvalue of H(theta) equals
c, from the unimodular eigenvalues of a 2n x 2n linearization of
T* z^2 - 2c z I + T (Mengi and Overton, "Algorithms for the computation of
the pseudospectral radius and the numerical radius of a matrix", IMA J.
Numer. Anal. 2005). It takes many pairs (T, c) at once, with one stacked
solve and one stacked eigvals call per size: each T whose T* is well
conditioned goes through the standard form [[0, I], [-T^-* T, 2c T^-*]],
and the rest through the same form after the Moebius shift of the circle,
of seven, that best conditions the leading coefficient (_shifts). Between
consecutive cuts h - c has a single sign, so one sample per arc decides it;
arc_midpoints gives those samples. contains(T, z) is this test for
h_{T - zI} against -tol.

Only _extreme_pairs (LAPACK's tridiagonal routines) calls scipy. On its
first call it loads scipy's LAPACK extension module alone (_lapack), not
the scipy.linalg package around it, and everything but boundary at n >= 3
runs without scipy.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import os
import sys
from dataclasses import dataclass
from importlib.machinery import ExtensionFileLoader, PathFinder

import numpy as np

from . import linalg
from .errors import NoConvergenceError, NumericError

# h is first sampled at _COARSE_ANGLES angles, from eigensolves at the first
# half of them only (H(theta + pi) = -H(theta)); the cells that can still
# beat the best sample are halved _HALVINGS times (to 2 pi / 64) before
# Newton refinement starts in them
_COARSE_ANGLES = 16
_HALVINGS = 2

# cap on the lockstep Newton/bisection steps: bisection from one 2 pi / 64
# cell reaches 1e-16 in about 50
_MAX_STEPS = 64

# with checks, a matrix stops only where its upper bound u on w passes, and
# stays below the call's largest excess, by _STOP_MARGIN max(1, |u|): many
# times the rounding of its h samples (about n eps ||T||, with ||T|| <= 2w)
# and of the cell bounds formed from them
_STOP_MARGIN = 1e-12

# a pencil eigenvalue z within this of the unit circle is a cut at arg z. A
# true crossing lies within rounding of the circle, and a level that h only
# grazes, missing by g, puts its pair about sqrt(g) off it. An extra cut
# costs nothing, as both arcs it makes keep a single sign, so this is generous
_CUT_TOL = 1e-6

# level_cuts keeps the standard form (shift 0) where T* has a condition
# number below this, where the rounding that inverting it adds to the
# eigenvalues, about cond(T*) eps, stays far below _CUT_TOL; the T* of the
# verify suites' draws stay under 1e4
_COND_LIMIT = 1e8

# elsewhere level_cuts takes the shift of _SHIFTS with the best conditioned
# leading coefficient L0, which is P at the shift. A regular P has at most
# 2n eigenvalues, so only a P that is singular fails at all seven; rounding
# puts the cond(L0) of a singular P at about 1/eps (3.5e15 or more over
# draws with n = 2..64), while a regular P whose blocks are scaled apart, as
# that of contains near an eigenvalue of a normal T, reads about 1/distance.
# An L0 with cond(L0) above _COND_LIMIT widens the band of _CUT_TOL in
# proportion (to at most 0.5), so that its larger rounding loses no cut
_SHIFTS = 0.5 * np.exp(2j * np.pi * np.arange(7) / 7)
_SINGULAR_COND = 1e14


def hermitian_part(T, theta: float = 0.0) -> np.ndarray:
    """(e^{-i theta} T + e^{i theta} T*)/2, Hermitian by construction, formed
    from the prescaled T; ValueError if theta, and NumericError if an
    entry, is not a finite number."""
    theta = _finite(np.array([theta], dtype=float), "angle", ValueError)
    S, e = _prescaled(linalg.as_matrix(T)[None])
    H = _rotated(_cartesian_parts(S), [0], _trig(theta))[0]
    with np.errstate(over="ignore"):
        H.real, H.imag = np.ldexp(H.real, e), np.ldexp(H.imag, e)
    return _finite(H, "Hermitian part entry")


def support_values(T, thetas) -> np.ndarray:
    """Top eigenvalue of H(theta) for each theta of a scalar or 1-D
    thetas; ValueError if thetas has more dimensions or a theta is not a
    finite number, and NumericError if a value is not."""
    return support_samples([(T, thetas)])[0]


def support_samples(requests) -> list[np.ndarray]:
    """support_values(T, thetas) for each pair (T, thetas) of requests, from
    one kernel sweep: one eigensolve call per size n. ValueError names a
    request whose thetas have more than one dimension, and an angle, as
    NumericError names a value, that is not finite by its index in the
    requests' thetas, taken in turn."""
    requests = [(T, np.atleast_1d(np.asarray(thetas, dtype=float))) for T, thetas in requests]
    if not requests:
        return []
    deep = next((i for i, (_, thetas) in enumerate(requests) if thetas.ndim > 1), None)
    if deep is not None:
        raise ValueError(f"thetas of request {deep} have shape {requests[deep][1].shape}, "
                         f"expected a scalar or a 1-D array")
    thetas = _finite(np.concatenate([thetas for _, thetas in requests]), "angle", ValueError)
    slots, sweep, scale_back = _supports([T for T, _ in requests])
    sizes = [len(thetas) for _, thetas in requests]
    slot = np.repeat(slots, sizes)
    # the sweep wants its cells sorted by slot
    order = np.argsort(slot, kind="stable")
    values = np.empty(len(thetas))
    values[order] = sweep(slot[order], thetas[order])[0][0]
    return np.split(scale_back(slot, values, "support value"), np.cumsum(sizes)[:-1])


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

    The query answers a cell at theta + pi too, so an even n_angles asks
    only for the first half of its angles, each also at theta + pi, and
    row k + n_angles/2 is the theta + pi answer of row k. An odd n_angles
    has no antipodal pairs and asks for every angle.
    """
    if n_angles < 8:
        raise ValueError(f"n_angles must be >= 8, got {n_angles}")
    thetas = 2.0 * np.pi * np.arange(n_angles) / n_angles
    half = 0 if n_angles % 2 else n_angles // 2
    _, sweep, scale_back = _supports([T])
    at, turned = sweep(np.zeros(n_angles - half, dtype=int), thetas[:n_angles - half],
                       order=1, pair=np.arange(half))
    slot = np.zeros(n_angles, dtype=int)
    h, d1 = np.concatenate([at, turned], axis=1)
    supports = scale_back(slot, h, "support value")
    # formed at the prescaled size and scaled back once per part, so that
    # the product does not round on the subnormal grid; + 0.0 turns the
    # -0.0 that a zero h or h' times cos or sin of theta can give into 0.0
    z = np.exp(1j * thetas) * (h + 1j * d1)
    points = np.empty(n_angles, dtype=complex)
    points.real = scale_back(slot, z.real, "boundary point") + 0.0
    points.imag = scale_back(slot, z.imag, "boundary point") + 0.0
    return BoundaryCurve(thetas=thetas, supports=supports, points=points)


# the signs that make the top and the bottom eigenvalue of H(theta) h at
# theta and at theta + pi
_SIGNS = np.array([1.0, -1.0])


def _extreme_pairs(S: np.ndarray, thetas: np.ndarray, cs: np.ndarray):
    """(h, h') of the prescaled matrix S at each of thetas, whose cos and sin
    are the columns of cs, each with columns theta and theta + pi.

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
    lapack = _lapack()
    n = len(S)
    # Fortran order, so that zhetrd works on H in place
    A, B = (np.asfortranarray(X) for X in _cartesian_parts(S))
    vals = np.empty((len(thetas), 2))
    vecs = np.empty((len(thetas), 2, n), dtype=complex)
    for k in range(len(thetas)):
        Z = vecs[k].T  # the two vectors at thetas[k], as Fortran-order columns
        H = A * cs[0, k]
        H += B * cs[1, k]
        c, d, e, tau, info = lapack.zhetrd(H, lower=1, overwrite_a=1)
        _lapack_ok("zhetrd", info)
        for col, i in enumerate((n, 1)):
            # range 2 selects eigenvalues il..iu; tolerance 0 is LAPACK's default
            _, w, block, split, info = lapack.dstebz(d, e, 2, 0.0, 0.0, i, i, 0.0, "E")
            _lapack_ok("dstebz", info)
            z, info = lapack.dstein(d, e, w[:1], block, split)
            _lapack_ok("dstein", info)
            vals[k, col], Z[:, col] = w[0], z[:, 0]
        Z[1:], _, info = lapack.zunmqr("L", "N", c[1:, :-1], tau, Z[1:], 2)
        _lapack_ok("zunmqr", info)
    # <Sx, x> of both vectors at each angle
    forms = (vecs.conj() * (vecs @ S.T)).sum(axis=2)
    # -lambda_1 is -0.0 where lambda_1 = 0; + 0.0 turns only that into 0.0
    return vals * _SIGNS + 0.0, (np.exp(-1j * thetas)[:, None] * forms).imag * _SIGNS


def _lapack_ok(routine: str, info: int):
    if info != 0:
        raise NoConvergenceError(f"boundary eigenpairs: {routine} returned info {info}")


@functools.cache
def _lapack():
    """scipy's LAPACK extension module scipy.linalg._flapack, whose
    routines scipy.linalg.lapack exports as the same function objects.

    Importing scipy.linalg.lapack runs the whole scipy.linalg package, which
    adds about 28 MB to a fresh process's peak RSS and 0.2 s to its run
    time (scipy 1.17, Linux x86-64); this loads the extension
    file beside that package alone, after the light top-level scipy
    package, which sets up the platform's shared libraries. The extension
    registers itself in sys.modules as it loads, and a later
    import scipy.linalg would then find it there and not set the package's
    _flapack attribute, so the entry is removed; that import still shares
    the routines. A scipy.linalg already loaded lends its own module, and
    where no extension file lies beside the package, as in an editable
    install, this imports scipy.linalg.lapack.
    """
    import scipy

    name = "scipy.linalg._flapack"
    if "scipy.linalg" not in sys.modules:
        spec = PathFinder.find_spec(name, [os.path.join(p, "linalg") for p in scipy.__path__])
        if spec is not None and isinstance(spec.loader, ExtensionFileLoader):
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            if sys.modules.get(name) is module:
                del sys.modules[name]
            return module
    import scipy.linalg.lapack

    return scipy.linalg.lapack._flapack


def _cartesian_parts(T: np.ndarray) -> np.ndarray:
    """A = (T + T*)/2 and B = (T - T*)/2i of a matrix or stack T, as the
    two halves AB[0] = A and AB[1] = B of one array, each formed in place:
    H = cos(theta) A + sin(theta) B."""
    TH = T.conj().swapaxes(-1, -2)
    AB = np.empty((2,) + T.shape, dtype=complex)
    A, B = AB
    np.add(T, TH, out=A)
    A /= 2.0
    np.subtract(T, TH, out=B)
    B *= -0.5j
    return AB


def _trig(thetas: np.ndarray) -> np.ndarray:
    """cos and sin of each of thetas, as the rows of a (2, k) array."""
    return np.array([np.cos(thetas), np.sin(thetas)])


def _rotated(AB: np.ndarray, j, cs: np.ndarray) -> np.ndarray:
    """H(theta_c) = cos A + sin B of matrix j[c] for each cell c, from the
    cartesian parts AB = (A, B) of a stack and the rows cs = (cos, sin) of
    the cells' angles, formed in place in the gathered copies A[j] and B[j],
    which saves two temporaries of that size."""
    H, G = AB[0, j], AB[1, j]
    H *= cs[0, :, None, None]
    G *= cs[1, :, None, None]
    H += G
    return H


def _top_eigh(AB: np.ndarray, j: np.ndarray, cs: np.ndarray, pair: np.ndarray):
    """(at, turned) for h(theta) = lambda_max(H_j(theta)) of matrix j[c] of
    the cartesian parts AB = (A, B) of a stack at the angle theta_c whose
    cos and sin are cs[:, c]: at holds the rows h, h', h'' of every cell,
    and turned the same rows at theta + pi of the cells at positions pair.

    h' = x* H' x for a unit top eigenvector x, which is Im(e^{-i theta}<Tx,x>),
    and h'' = -h + 2 sum_j |y_j* H' x|^2 / (h - lambda_j) over the other
    eigenpairs (lambda_j, y_j), since H'' = -H (_derivatives). The theta + pi
    answer of a pair cell reads the bottom eigenpair (lambda_min, y) of the
    same eigh, as the top pair of H(theta + pi) = -H(theta), whose
    derivative is -H'(theta): h = -lambda_min, h' = -y* H' y and h'' =
    lambda_min + 2 sum_j |y_j* H' y|^2 / (lambda_j - lambda_min).

    H'x = cos B x - sin A x takes one batched product over B[j] and one over
    A[j] for all cells, and H'y one over each for the pair cells, so each
    cell's bits do not depend on which cells share the call: the pair rows
    of the eigenvectors are gathered before their columns are sliced, so
    that the products see the strides of a stack of those cells alone. B[j]
    and A[j] are gathered again after the eigensolve, one at a time, not
    kept through it, and the top rows are done, and the other eigenvector
    rows let go, before the pair rows are gathered, so that a step's peak
    memory stays that of _rotated. With no pair cell, the bottom pairs are
    not touched.
    """
    vals, vecs = np.linalg.eigh(_rotated(AB, j, cs))
    dx = _slopes(AB, j, cs, vecs[:, :, -1:])
    conj = vecs.conj()
    at = np.array(_derivatives(dx, vals[:, -1], conj[:, :, -1], vals[:, :-1], conj[:, :, :-1]))
    if not pair.size:
        return at, at[:, :0]
    # H(theta + pi) = -cos A - sin B = -H(theta), whose top pair is the
    # bottom one
    del conj
    vecs = vecs[pair]
    dy = _slopes(AB, j[pair], -cs[:, pair], vecs[:, :, :1])
    conj = vecs.conj()
    turned = _derivatives(dy, -vals[pair, 0], conj[:, :, 0], -vals[pair, 1:], conj[:, :, 1:])
    return at, np.array(turned)


def _slopes(AB: np.ndarray, j: np.ndarray, cs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H'(theta_c) x_c = cos B x - sin A x for matrix j[c], as a (k, n, 1)
    stack, with B[j] and then A[j] gathered and dropped in turn."""
    return cs[0, :, None, None] * (AB[1, j] @ x) - cs[1, :, None, None] * (AB[0, j] @ x)


def _derivatives(dx, h, x_conj, vals, vecs_conj):
    """(h, h', h'') at the top eigenpair (h, x) of H, whose other
    eigenpairs are vals and the vectors conjugated in vecs_conj, from
    H'x as the (k, n, 1) stack dx and x conjugated as (k, n)."""
    dx = dx[:, :, 0]
    d1 = np.einsum("ki,ki->k", x_conj, dx).real
    coef = np.einsum("kji,kj->ki", vecs_conj, dx)
    gaps = h[:, None] - vals
    d2 = 2.0 * np.add.reduce((coef * coef.conj()).real / gaps, axis=1) - h
    return h, d1, d2


def _sinusoids_2x2(Ts: np.ndarray) -> np.ndarray:
    """Coefficients P[i] with [m, u, Re b, Im b, and their theta-derivatives]
    = cos(theta) P[i, 0] + sin(theta) P[i, 1], where H(theta) = [[m + u, b],
    [conj(b), m - u]] for the 2x2 Ts[i]. One pass over the stack's entries
    as Python complex numbers, and one array at the end: for the few
    matrices of a call, and for one above all, that costs less than the
    dozen numpy calls of the same arithmetic on arrays."""
    rows = []
    for (t00, t01), (t10, t11) in Ts.tolist():
        mean, half_gap = (t00 + t11) / 2, (t00 - t11) / 2
        a01, b01 = (t01 + t10.conjugate()) / 2, (t01 - t10.conjugate()) * -0.5j
        from_a = [mean.real, half_gap.real, a01.real, a01.imag]
        from_b = [mean.imag, half_gap.imag, b01.real, b01.imag]
        rows.append([from_a + from_b, from_b + [-v for v in from_a]])
    return np.array(rows)


def _top_2x2(P: np.ndarray, cs: np.ndarray, order: int) -> np.ndarray:
    """The rows h, h', h'' up to the given order, in closed form for 2x2 T:
    h = m + r, r = sqrt(u^2 + |b|^2). P holds one set of coefficients per
    angle theta, whose cos and sin are the matching column of cs. Order 0
    forms h from the four value columns only."""
    cols = slice(None) if order else slice(4)
    V = cs[0, :, None] * P[:, 0, cols] + cs[1, :, None] * P[:, 1, cols]
    w = V[:, 1:4]
    r = np.hypot(w[:, 0], np.hypot(w[:, 1], w[:, 2]))
    if not order:
        return (V[:, 0] + r)[None]
    dw = V[:, 5:8]
    # at r = 0, H = m I and every unit vector is a top eigenvector: take
    # r' = r'' = 0 there, which dividing by inf gives, since w = 0
    q = np.where(r > 0, r, np.inf)
    dr = (w * dw).sum(axis=1) / q
    # the parts of H are sinusoids, so w'' = -w
    d2r = ((dw * dw).sum(axis=1) - r * r - dr * dr) / q
    return np.array([V[:, 0] + r, V[:, 4] + dr, d2r - V[:, 0]][:order + 1])


def _support_kernels(Ts: np.ndarray) -> list:
    """The queries of _supports for a (m, n, n) stack, one per order, each
    taking (j, thetas, cs, pair) for matrix j[c] at thetas[c], whose cos
    and sin are the column cs[:, c] (_trig), and a sorted j, and returning
    (at, turned) as sweep does; closed forms when n = 2."""
    if Ts.shape[1] == 2:
        P = _sinusoids_2x2(Ts)
        def closed(j, thetas, cs, pair, order):
            if pair.size:
                # there is no eigensolve to share: the closed form at theta + pi
                j = np.concatenate([j, j[pair]])
                cs = np.concatenate([cs, _trig(thetas[pair] + np.pi)], axis=1)
            values = _top_2x2(P[j], cs, order)
            return values[:, :len(thetas)], values[:, len(thetas):]
        return [functools.partial(closed, order=order) for order in range(3)]
    AB = _cartesian_parts(Ts)
    def sample(j, thetas, cs, pair):
        vals = np.linalg.eigvalsh(_rotated(AB, j, cs))
        # H(theta + pi) = -H(theta), whose top eigenvalue is -lambda_min(H(theta))
        return vals[None, :, -1], -vals[None, pair, 0]
    def pairs(j, thetas, cs, pair):
        values = np.array(_extreme_pairs(Ts[j[0]], thetas, cs))
        return values[:, :, 0], values[:, pair, 1]
    return [sample, pairs, lambda j, thetas, cs, pair: _top_eigh(AB, j, cs, pair)]


_NO_CELLS = np.zeros(0, dtype=int)


def _supports(mats):
    """The kernel for h of the square matrices mats, which may mix sizes:
    (slots, sweep, scale_back). A 1x1 [t] enters as t I_2, which has the
    same W. Slots hold the prescaled matrices in (n, index) order, and
    mats[i] is in slots[i]. sweep(slot, thetas, order, pair) answers for
    slot[c] at thetas[c], for a sorted slot: it takes cos and sin of all
    of thetas once, splits the cells into one contiguous run per distinct
    n with one searchsorted, and makes one kernel call per run, on that
    run's slices of thetas, cos, sin and pair. It returns (at, turned):
    at has the rows h (order 0), h, h' (order 1, which asks about one
    matrix) or h, h', h'' (order 2) of every cell, and turned the same
    rows at thetas[c] + pi of the cells at the sorted positions pair (none
    by default), read from the same eigensolves; a cell's at has the same
    bits whether it is in pair or not, and no cells give empty rows.
    scale_back(slot, values, what) takes values of slot back to the units
    of mats and checks them (_finite); without what it leaves them unchecked.
    """
    mats = [np.asarray(T, dtype=complex) for T in mats]
    # a non-finite 1x1 [t] gives nan here, which _size_groups rejects
    with np.errstate(invalid="ignore"):
        mats = [T * np.eye(2) if T.shape == (1, 1) else T for T in mats]
    sized = _size_groups(mats)
    slots = np.argsort([i for run, _, _ in sized for i in run])
    exps = np.concatenate([e for _, _, e in sized])
    # the first slot of each size n, then the slot count; and each size's
    # (first slot, methods by order)
    starts = np.cumsum([0] + [len(run) for run, _, _ in sized])
    groups = [(first, _support_kernels(S)) for (_, S, _), first in zip(sized, starts.tolist())]

    def sweep(slot, thetas, order=0, pair=_NO_CELLS):
        cs = _trig(thetas)
        cuts = slot.searchsorted(starts).tolist()
        ends = pair.searchsorted(cuts).tolist()
        at, turned = np.empty((order + 1, len(slot))), np.empty((order + 1, len(pair)))
        for (first, queries), a, b, p, q in zip(groups, cuts, cuts[1:], ends, ends[1:]):
            if a < b:
                at[:, a:b], turned[:, p:q] = queries[order](
                    slot[a:b] - first, thetas[a:b], cs[:, a:b], pair[p:q] - a)
        return at, turned

    def scale_back(slot, values, what=None):
        with np.errstate(over="ignore"):
            values = np.ldexp(values, exps[slot])
        return values if what is None else _finite(values, what)

    return slots, sweep, scale_back


def _cell_bounds(lo, hi, h_lo, h_hi) -> np.ndarray:
    """Outer-polygon bound on h over each cell [lo, hi] (hi - lo < pi).

    The supporting lines at lo and hi cross at e^{i lo}(h_lo + i c). When
    that vertex lies in the cell's sector of directions, the wedge of the
    two lines, and so W(T), has support at most its modulus there; else the
    wedge's largest support in those directions is an end value, which is
    also the bound of a cell of zero width. The bound only decides which
    cells are kept and which checked matrices stop; it is never a reported
    value."""
    width = hi - lo
    cos_w, sin_w = np.cos(width), np.sin(width)
    c = (h_hi - h_lo * cos_w) / sin_w
    vertex = (c > 0) & (h_lo > h_hi * cos_w)
    return np.where(vertex, np.hypot(h_lo, c), np.maximum(h_lo, h_hi))


def numerical_radius(T) -> float:
    """w(T) = max_theta h(theta), the one-matrix case of numerical_radii."""
    return float(numerical_radii([T])[0])


def numerical_radii(mats, checks=None) -> np.ndarray:
    """w(T) for each square matrix T of mats, which may mix sizes.

    For each T, h is sampled at 16 angles, from eigensolves at the first 8:
    H(theta + pi) = -H(theta), so lambda_max and -lambda_min of H(theta)
    are h at theta and at theta + pi. A cell between neighbouring
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

    The halvings and the first Newton step solve one cell of each pair of
    antipodal cells (theta and theta + pi on the same grid) that are both
    still live for one matrix: the second cell takes the first's angle +
    pi, and its values come from the bottom eigenpair of the same
    H(theta) = -H(theta + pi). A T unitarily similar to -T, such as a
    weighted shift, a Jordan block or a bipartite [[0, A], [B, 0]], keeps
    every such pair live (W is symmetric about 0), and its search takes
    half the eigensolves: 32 eigvalsh and 32 eigh matrices for a rotated
    c J_n, against 56 and 64 with one solve per cell. The first cells of
    the pairs sit in the same stack as every other cell of their size, so
    a step still makes one eigensolve call per size. A matrix without a
    live pair keeps its bits and its cost.

    checks, if given, holds a pair (bound, tol) for each matrix, shape
    (len(mats), 2) (else ValueError, naming both shapes), for a caller
    that asks only whether w(T) - bound <= tol and which matrix has the
    largest w(T) - bound. The search then stops a matrix, and returns the
    largest h it reached, once a rigorous upper bound u on its w shows
    that u - bound <= tol and that u - bound is below the largest
    best - bound of the call, where best is the largest h each matrix has
    reached (both in the input's units, with a margin of _STOP_MARGIN
    max(1, |u|) for the rounding of the samples). u is the largest of best and the
    bounds of the live cells, and it bounds w because every dropped cell's
    bound is at most best. The stop points are the only places where the
    live and dropped cells cover the circle with a bound each: after the
    coarse samples at the even half of the grid (4 eigensolves, 8 samples,
    cells of 2 pi / 8), whose odd half is then solved only for the
    matrices still live; after all 16 samples; and after each halving. The
    Newton steps drop bracket pieces without a bound, so no matrix stops
    there. A matrix that stops passes its check, and its value is at most
    its w and lies below the largest value - bound of the call, which a
    matrix that does not stop attains with the bits of the exact search:
    the verdicts and the largest value - bound are those of exact radii.
    An exact call (no checks) solves the 8 coarse angles at once.

    The search runs on the kernel _supports, for all matrices at once, and
    each matrix's cells go through the same products whichever matrices
    share the call, so a radius keeps its bits alone or in a stack, and a
    matrix that does not stop keeps the bits of its exact radius. A w that
    is not finite raises NumericError, and [] gives an empty array.
    """
    mats = list(mats)
    if checks is not None:
        # as objects, ragged checks such as [(1.0, 1e-7), (1.0,)] have a shape too
        shape = np.shape(np.array(checks, dtype=object))
        if shape != (len(mats), 2) and (mats or np.prod(shape)):
            raise ValueError(f"numerical_radii got checks of shape {shape} for "
                             f"{len(mats)} matrices; it takes one (bound, tol) pair per "
                             f"matrix, shape ({len(mats)}, 2)")
        checks = np.asarray(checks, dtype=float)
    if not mats:
        return np.zeros(0)
    slots, sweep, scale_back = _supports(mats)
    settled = None
    if checks is not None:
        bound, tol = np.empty((2, len(mats)))
        bound[slots], tol[slots] = checks.T
        every = np.arange(len(mats))

        def settled(best, upper):
            # in the input's units: upper - bound passes tol and is below the
            # call's largest best - bound, both by the margin
            upper = scale_back(every, upper)
            excess = upper - bound + _STOP_MARGIN * np.maximum(1.0, np.abs(upper))
            return (excess <= tol) & (excess < np.max(scale_back(every, best) - bound))
    # _cell_search meets non-finite h'' (a repeated top eigenvalue) and
    # zero-width cells; the comparisons it makes fail for such values
    with np.errstate(all="ignore"):
        best = _cell_search(sweep, len(mats), settled)
    # best is -0.0 where some -lambda_min = -0.0 is the largest h; + 0.0
    # turns only that into 0.0
    return scale_back(slots, best[slots], "numerical radius of matrix") + 0.0


# the coarse grid: its cell ends, the ends (lo, hi) of each of its cells,
# and the index of each cell and of its right neighbour
_ENDS = 2.0 * np.pi / _COARSE_ANGLES * np.arange(_COARSE_ANGLES + 1)
_EDGES = np.array([_ENDS[:-1], _ENDS[1:]])
_CELLS = np.arange(_COARSE_ANGLES)
_NEXT = np.roll(_CELLS, -1)


def _cell_search(sweep, k: int, settled=None) -> np.ndarray:
    """The largest h reached by the search of numerical_radii for each of k
    slots; sweep(slot, thetas) samples h of matrix slot[c] at thetas[c],
    sweep(slot, thetas, order=2) gives h, h', h'', and each answers the
    cells at the positions pair at thetas[c] + pi too (_supports).
    settled(best, upper), if given, names the slots whose search stops,
    from the best h and an upper bound on max h of each slot; it is asked
    at the stop points of numerical_radii.

    The live cells are held as the rows of two arrays, so that each stage
    selects, splits or updates all of them in a few calls: cell holds
    (lo, hi, h_lo, h_hi, vertex), where vertex is where the cell's Newton
    refinement starts, set by the halvings; ids holds (slot, idx), idx
    being the cell's index on the grid of `cells` cells of this width,
    whose cell i splits into cells 2i and 2i + 1 of the next grid."""
    width = 2.0 * np.pi / _COARSE_ANGLES
    # _ENDS[k] + pi is _ENDS[k + half] to the bit, so the paired samples at
    # the first half of the grid are the samples at all of it
    half = _COARSE_ANGLES // 2
    live = np.arange(k)
    if settled is None:
        values = _coarse(sweep, live, _ENDS[:half])
        best = values.max(axis=1)
    else:
        # the even half of the grid first, which bounds h on cells of
        # 2 pi / 8; the odd half only for the slots still live
        even = _coarse(sweep, live, _ENDS[:half:2])
        best = even.max(axis=1)
        bounds = _cell_bounds(_ENDS[:-1:2], _ENDS[2::2], even, np.roll(even, -1, axis=1))
        live = np.flatnonzero(~settled(best, np.maximum(best, bounds.max(axis=1))))
        values = np.empty((live.size, _COARSE_ANGLES))
        values[:, 0::2], values[:, 1::2] = even[live], _coarse(sweep, live, _ENDS[1:half:2])
        best[live] = values.max(axis=1)
    cells = _COARSE_ANGLES
    cell = np.empty((5, live.size * cells))
    cell[:2] = np.tile(_EDGES, live.size)
    cell[2], cell[3], cell[4] = values.ravel(), values[:, _NEXT].ravel(), cell[0]
    ids = np.array([np.repeat(live, cells), np.tile(_CELLS, live.size)])
    gain_tol = 4.0 * np.finfo(float).eps * best
    for halving in range(_HALVINGS + 1):
        bounds = _cell_bounds(*cell[:4])
        keep = bounds > best[ids[0]]
        if settled is not None:
            # the dropped cells' bounds are at most best, so this is a bound on w
            upper = best.copy()
            np.maximum.at(upper, ids[0], bounds)
            keep &= ~settled(best, upper)[ids[0]]
        cell, ids = cell[:, keep], ids[:, keep]
        if halving == _HALVINGS or not ids.size:
            break
        lo, hi, h_lo, h_hi, _ = cell
        slot, idx = ids
        mid = (lo + hi) / 2.0
        # a follower splits at its leader's midpoint + pi, which is its own
        # midpoint to the bit on the coarse grid and at most an ulp off it on
        # the next; so each follower's ends stay its leader's ends + pi
        h_mid = _paired_sweep(sweep, slot, mid, *_antipodes(slot, idx, cells))[0]
        np.maximum.at(best, slot, h_mid)
        width /= 2.0
        bend = h_lo - 2.0 * h_mid + h_hi
        cell[4] = np.where(bend < 0, mid + 0.5 * width * (h_lo - h_hi) / bend, mid)
        # each cell splits into [lo, mid] and [mid, hi]
        cell, ids = np.repeat(cell, 2, axis=1), np.repeat(ids, 2, axis=1)
        cell[0, 1::2] = cell[1, 0::2] = mid
        cell[2, 1::2] = cell[3, 0::2] = h_mid
        cells *= 2
        ids[1] *= 2
        ids[1, 1::2] += 1
    lo, hi, h_lo, h_hi, vertex = cell
    slot, idx = ids
    theta = np.minimum(np.maximum(vertex, lo), hi)
    # a follower starts at its leader's start + pi, inside its own cell as
    # its ends are its leader's + pi; only this first sweep is paired, as
    # the two cells' later iterates differ
    lead, follow = _antipodes(slot, idx, cells)

    for _ in range(_MAX_STEPS):
        if not slot.size:
            break
        h, d1, d2 = _paired_sweep(sweep, slot, theta, lead, follow, order=2)
        lead = follow = lead[:0]
        np.maximum.at(best, slot, h)
        rising, falling = d1 > 0, d1 < 0
        lo, h_lo = np.where(rising, theta, lo), np.where(rising, h, h_lo)
        hi, h_hi = np.where(falling, theta, hi), np.where(falling, h, h_hi)
        nxt = np.where(d2 < 0, theta - d1 / d2, np.nan)
        nxt = np.where((lo < nxt) & (nxt < hi), nxt, (lo + hi) / 2.0)
        keep = ((d1 != 0) & ~(np.abs(d1) * np.abs(nxt - theta) <= gain_tol[slot])
                & (_cell_bounds(lo, hi, h_lo, h_hi) > best[slot]))
        cell = np.array([lo, hi, h_lo, h_hi, nxt])[:, keep]
        slot = slot[keep]
        lo, hi, h_lo, h_hi, theta = cell
    return best


def _coarse(sweep, slots, angles) -> np.ndarray:
    """h of each of slots at angles and then at angles + pi, one row per
    slot, from one sweep at angles that pairs every cell."""
    thetas = np.broadcast_to(angles, (len(slots), len(angles))).ravel()
    at, turned = sweep(np.repeat(slots, len(angles)), thetas, pair=np.arange(len(thetas)))
    return np.concatenate([at.reshape(len(slots), -1), turned.reshape(len(slots), -1)], axis=1)


def _antipodes(slot: np.ndarray, idx: np.ndarray, cells: int):
    """(lead, follow): the positions of the live cells i < cells/2 whose
    antipodal cell i + cells/2 of the same slot is live too, and of those
    antipodes, for cells sorted by (slot, idx) on a grid of `cells` cells."""
    # the keys leave a gap of `cells` after each slot, so that no cell is
    # half a turn past a cell of the next slot
    key = slot * (2 * cells) + idx
    far = key + cells // 2
    at = np.minimum(key.searchsorted(far), len(key) - 1)
    lead = (key[at] == far).nonzero()[0]
    return lead, at[lead]


def _paired_sweep(sweep, slot, thetas, lead, follow, order: int = 0):
    """The rows of sweep(slot, thetas, order) after each cell follow[c] is
    moved to thetas[lead[c]] + pi, in thetas: one sweep over the cells that
    are not followers pairs each leader, whose theta + pi answer, read from
    the same eigensolve, is its follower's."""
    if not lead.size:
        return sweep(slot, thetas, order)[0]
    thetas[follow] = thetas[lead] + np.pi
    kept = np.delete(np.arange(len(slot)), follow)
    values = np.empty((order + 1, len(slot)))
    values[:, kept], values[:, follow] = sweep(slot[kept], thetas[kept], order,
                                               kept.searchsorted(lead))
    return values


def _prescaled(Ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(2^-e T, e) for each T of a (m, n, n) stack, with 2^(e-1) <= the
    largest |Re| or |Im| of an entry of T < 2^e (e = 0 for T = 0) and
    e >= -1021, so that 2^-e is finite. A T with e = 0 is left as it is,
    and a stack with no other T is returned itself, not copied."""
    top = np.maximum.reduce(np.abs(np.ascontiguousarray(Ts).view(float)), axis=(1, 2))
    e = np.maximum(np.frexp(top)[1], -1021)
    if e.any():
        scaled = e != 0
        Ts = Ts.copy()
        Ts[scaled] *= np.ldexp(1.0, -e[scaled])[:, None, None]
    return Ts, e


def _size_groups(mats):
    """Validate the square matrices mats (ValueError, as from
    linalg.as_matrix) and prescale them as one stack per size: a list of
    (run, S, e) by increasing n, where run holds the indices i of the
    matrices of that size in increasing order and (S, e) is the
    _prescaled stack of those mats[i]."""
    mats = [np.asarray(T, dtype=complex) for T in mats]
    # a stable sort, so each run keeps increasing indices
    ranked = sorted(range(len(mats)), key=lambda i: mats[i].shape)
    groups = []
    for _, run in itertools.groupby(ranked, key=lambda i: mats[i].shape):
        run = list(run)
        groups.append((run, *_prescaled(linalg.as_stack([mats[i] for i in run]))))
    return groups


def _finite(values: np.ndarray, what: str, error=NumericError) -> np.ndarray:
    """values, or error (NumericError, or ValueError for an input) naming
    the first one (by flat index) that is not finite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise error(f"{what} {bad[0]} is {values.flat[bad[0]]}, not a finite number")
    return values


def level_cuts(levels) -> list[np.ndarray]:
    """The sorted angles theta in [0, 2 pi) at which some eigenvalue of
    H_T(theta) equals c, for each pair (T, c) of levels.

    det(H(theta) - cI) = 0 exactly when z = e^{i theta} solves
    det P(z) = 0, P(z) = T* z^2 - 2c z I + T, so the cuts are the arguments
    of the unimodular eigenvalues z of P, formed from the prescaled T and
    level. The shift z = (zeta + beta)/(1 + conj(beta) zeta) maps the circle
    onto itself and P to L0* zeta^2 + L1 zeta + L0 (_shifted), whose zeta
    are the eigenvalues of [[0, I], [-L0^-* L0, -L0^-* L1]]: one stacked
    solve and one stacked eigvals call per size, and numpy solves each
    matrix of a stack on its own, so stacking keeps the bits. beta = 0
    (L0 = T, L1 = -2cI) where T* has condition number below _COND_LIMIT,
    else the one of _SHIFTS with the smallest condition number of L0; the
    zeta within _CUT_TOL of the circle (a band widened for an L0 that is
    not well conditioned, _shifts) are mapped back to z.
    ValueError names the first pair whose level is not a finite number.
    NoConvergenceError, for the whole call, if L0 has condition number
    _SINGULAR_COND or more at every shift, as for every singular pencil
    (det P = 0 for all z, such as the zero matrix at level 0), or if LAPACK
    fails.
    """
    levels = [(np.asarray(T, dtype=complex), c) for T, c in levels]
    level = _finite(np.array([c for _, c in levels], dtype=float), "level of pair", ValueError)
    cuts = [None] * len(levels)
    for run, S, e in _size_groups([T for T, _ in levels]):
        c = np.ldexp(level[run], -e)[:, None, None]
        beta, band = _shifts(S, c)
        lost = np.flatnonzero(np.isnan(beta))
        if lost.size:
            raise NoConvergenceError(f"level pair {run[lost[0]]}: its pencil is singular, or within "
                                     f"rounding of it (cond >= {_SINGULAR_COND:.0e} at every shift)")
        n, (L0, R) = S.shape[1], _shifted(S, c, beta[:, None, None])
        M = np.zeros((len(S), 2 * n, 2 * n), dtype=complex)
        M[:, :n, n:] = np.eye(n)
        try:
            X = np.linalg.solve(L0.conj().swapaxes(1, 2), np.concatenate([L0, R], axis=2))
            M[:, n:, :n], M[:, n:, n:] = -X[:, :, :n], X[:, :, n:]
            zeta = np.linalg.eigvals(M)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"level-crossing eigenproblem: {exc}") from exc
        near = np.abs(np.abs(zeta) - 1.0) <= band[:, None]
        # a zeta far off the circle may map to z = inf, so only the near ones are mapped
        b, z = np.broadcast_to(beta[:, None], zeta.shape)[near], zeta[near]
        zeta[near] = (z + b) / (1.0 + b.conj() * z)
        angles = np.sort(np.where(near, np.angle(zeta) % (2.0 * np.pi), np.inf), axis=1)
        for i, row, k in zip(run, angles, near.sum(axis=1).tolist()):
            cuts[i] = row[:k]
    return cuts


def _shifts(S: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(beta, band) of level_cuts for each matrix of the stack S at its
    level c (shape (k, 1, 1)), beta NaN where its pencil is singular: one
    stacked svd of S, and one of L0 at all seven shifts for the matrices
    with cond(S) >= _COND_LIMIT. band is _CUT_TOL cond(L0)/_COND_LIMIT, at least _CUT_TOL and at
    most 0.5, so that |1 + conj(beta) zeta| >= 1/4 for the zeta it keeps."""
    sv = np.linalg.svd(S, compute_uv=False)
    beta, band = np.zeros(len(S), dtype=complex), np.full(len(S), _CUT_TOL)
    todo = np.flatnonzero(sv[:, -1] * _COND_LIMIT <= sv[:, 0])
    if not todo.size:
        return beta, band
    L0 = _shifted(S[todo, None], c[todo, None], _SHIFTS[:, None, None])[0]
    sv = np.linalg.svd(L0, compute_uv=False)
    rcond = sv[..., -1] / np.maximum(sv[..., 0], np.finfo(float).tiny)
    beta[todo] = np.where(rcond.max(1) * _SINGULAR_COND > 1, _SHIFTS[rcond.argmax(1)], np.nan)
    band[todo] = _CUT_TOL / np.clip(rcond.max(1) * _COND_LIMIT, 2.0 * _CUT_TOL, 1.0)
    return beta, band


def _shifted(S: np.ndarray, c, beta):
    """(L0, -L1) for the stack S at levels c after the shift beta, both
    broadcast against S: L0 = P(beta) = beta^2 S* - 2c beta I + S and the
    Hermitian L1 = 2(beta S* + conj(beta) S) - 2c(1 + |beta|^2) I. At
    beta = 0 they are S and 2cI exactly, zeros' signs included, and where
    every beta is 0 they are formed as such."""
    flat, eye = beta == 0, np.eye(S.shape[-1])
    if flat.all():
        return S, 2.0 * c * eye
    SH = S.conj().swapaxes(-1, -2)
    L0 = np.where(flat, S, beta * (beta * SH - 2.0 * c * eye) + S)
    R = np.where(flat, 2.0 * c * eye,
                 2.0 * c * (1.0 + abs(beta) ** 2) * eye - 2.0 * (beta * SH + np.conj(beta) * S))
    return L0, R


def arc_midpoints(levels) -> np.ndarray:
    """The midpoint of each arc into which the level cuts of every pair
    (T, c) of levels divide the circle; with no cut, the circle is one arc
    and 0 stands for it. On each arc, h_T - c keeps one sign for every
    pair, so comparing h_T with c at these angles compares it everywhere."""
    return cut_midpoints(level_cuts(levels))


def cut_midpoints(cuts) -> np.ndarray:
    """arc_midpoints from the list of level_cuts arrays of its pairs; with
    no pair, the circle is one arc."""
    cuts = functools.reduce(np.union1d, cuts) if len(cuts) else np.zeros(0)
    if cuts.size == 0:
        return np.zeros(1)
    return (cuts + np.append(cuts[1:], cuts[0] + 2.0 * np.pi)) / 2.0


def contains(T, z: complex, tol: float = 1e-9) -> bool:
    """Membership of z in the closure of W(T), up to a support slack tol.

    z is in W(T) iff h_{T - zI}(theta) = h(theta) - Re(e^{-i theta} z) >= 0
    for every theta; testing h_{T - zI} >= -tol at the arc midpoints of its
    level cuts at -tol tests the whole circle. Where sigma_min(S) <= tol,
    up to its rounding (n eps sigma_max), a unit singular vector x has
    |<Sx, x>| <= ||Sx|| <= tol, so z is in; the level pencil of S is not
    asked there, as it can be singular (T normal with eigenvalue z, at
    tol = 0). ValueError if z or tol is not a finite number.
    """
    z = complex(z)
    if not np.isfinite(z):
        raise ValueError(f"point {z} is not a finite number")
    if not np.isfinite(tol):
        raise ValueError(f"tol {tol} is not a finite number")
    S = linalg.as_matrix(T) - z * np.eye(len(T))
    sv = np.linalg.svd(S, compute_uv=False)
    return bool(sv[-1] <= tol + len(S) * np.finfo(float).eps * sv[0]
                or np.all(support_values(S, arc_midpoints([(S, -tol)])) >= -tol))
