"""Dense complex linear algebra kernel for small matrices (dim 2..64).

All routines work on square complex numpy arrays and are pure functions.
Hermitian eigenvalues are delegated to LAPACK (numpy.linalg.eigvalsh), and
linear systems to numpy.linalg.solve after a singular-value check, so that
near-singular systems raise SingularError instead of returning garbage.
Both take a (k, n, n) stack of matrices as well as one matrix.
certify_above proves lambda_min(H) > c for each matrix of a Hermitian stack
without an eigensolve: one stacked numpy.linalg.cholesky of H - (c + pad) I,
with pad Rump's bound on the factorization's rounding; at n = 5 the
factorization costs about a ninth of eigvalsh. Nothing here needs scipy.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitianError, SingularError

DEFAULT_TOL = 1e-9

PIVOT_RTOL = 1e-13


def as_matrix(entries) -> np.ndarray:
    """Validate and return a square, finite, complex matrix."""
    return _as_square(entries, ndims=(2,))


def as_stack(entries) -> np.ndarray:
    """Validate and return a (k, n, n) stack of square, finite, complex
    matrices."""
    return _as_square(entries, ndims=(3,))


def _as_square(entries, ndims=(2, 3)) -> np.ndarray:
    """as_matrix, by default also accepting a (k, n, n) stack of matrices."""
    T = np.asarray(entries, dtype=complex)
    if T.ndim not in ndims or T.shape[-1] != T.shape[-2] or T.shape[-1] < 1:
        raise ValueError(f"expected a square matrix, got shape {T.shape}")
    if not np.isfinite(T).all():
        raise ValueError("matrix has non-finite entries")
    return T


def operator_norm(T) -> float:
    """Largest singular value of T."""
    return float(np.linalg.norm(as_matrix(T), 2))


def _check_hermitian(H: np.ndarray, tol: float, who: str) -> np.ndarray:
    """Check each matrix of H (one matrix or a stack) against
    ||H - H*||_F <= tol*(1+||H||_F), and return H symmetrized.

    H equal to H* (as q_form's stacks are) is returned as it is, with no
    pass over norms: (H + H*)/2 could differ from it only in the signs of
    zero parts, and for q_form's stacks it is bitwise H. Otherwise the
    norms are those of H divided by its largest entry modulus, and H is
    symmetrized as H/2 + H*/2, so that neither overflows near the top of
    the float range; halving is exact away from the subnormals, so that
    is (H + H*)/2 to the bit wherever the latter is finite and no entry of
    either is below 2^-1021 in modulus. ValueError for a tol that is not a
    finite number >= 0, which would switch the check off.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"{who}: tol must be a finite number >= 0, got {tol}")
    Hs = H.conj().swapaxes(-1, -2)
    if np.array_equal(H, Hs):
        return H
    top = np.abs(H).max(axis=(-2, -1), keepdims=True)
    top[top == 0.0] = 1.0
    Hn = H / top
    top = top[..., 0, 0]
    dev = np.linalg.norm(Hn - Hn.conj().swapaxes(-1, -2), axis=(-2, -1))
    norm = np.linalg.norm(Hn, axis=(-2, -1))
    with np.errstate(over="ignore"):
        bad = np.flatnonzero(dev > tol * (1.0 / top + norm))
        if bad.size:
            i = bad[0]
            where = f" {i}" if H.ndim == 3 else ""
            raise NotHermitianError(
                f"{who}: matrix{where} deviates from Hermitian by "
                f"{dev.flat[i] * top.flat[i]:.3e} "
                f"(allowed {tol * (1.0 + norm.flat[i] * top.flat[i]):.3e})"
            )
    # exact symmetrization so downstream results are real where they should be
    return H / 2 + Hs / 2


def solve(A, B) -> np.ndarray:
    """Solve AX = B by numpy.linalg.solve (LU with partial pivoting), for
    one matrix A or for each matrix of a (k, n, n) stack A with B of shape
    (k, n, m): one stacked svd and one numpy.linalg.solve call either way,
    and numpy solves each member of a stack on its own, so its X is the
    one-matrix call's to the bit.

    Raises SingularError when sigma_min(A) <= n^(3/2) PIVOT_RTOL sigma_max(A),
    for a stack when any member's does, naming those members.
    As sigma_min <= ||L||_2 min|u_kk| <= n min|u_kk| and
    ||A||_F <= sqrt(n) sigma_max, this flags every A with an LU pivot at most
    PIVOT_RTOL ||A||_F, and also a near-singular A that partial pivoting
    hides behind large pivots.
    """
    A = _as_square(A)
    B = np.asarray(B, dtype=complex)
    if B.shape[:A.ndim - 1] != A.shape[:-1] or B.ndim not in ((1, 2) if A.ndim == 2 else (3,)):
        raise ValueError(f"shape mismatch: A is {A.shape}, B is {B.shape}")
    sv = np.linalg.svd(A, compute_uv=False)
    threshold = A.shape[-1] ** 1.5 * PIVOT_RTOL * np.maximum(sv[..., 0], np.finfo(float).tiny)
    low = np.flatnonzero(sv[..., -1] <= threshold)
    if low.size:
        i = low[0]
        where = f"members {low.tolist()}: " if A.ndim == 3 else ""
        raise SingularError(f"{where}smallest singular value {sv[..., -1].flat[i]:.3e} "
                            f"below threshold {threshold.flat[i]:.3e}")
    try:
        return np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:  # an exact zero pivot
        raise SingularError(str(exc)) from exc


def min_eigenvalue(H, tol: float = DEFAULT_TOL) -> float | np.ndarray:
    """Smallest eigenvalue of a Hermitian matrix, or of each matrix of a
    (k, n, n) stack, from one LAPACK call.

    Each matrix is checked on its own: NotHermitianError if
    ||H - H*||_F > tol*(1+||H||_F), and ValueError for non-finite entries
    or a tol that is not a finite number >= 0.
    A matrix gives a float, a stack a length-k array.
    """
    H = _check_hermitian(_as_square(H), tol, "min_eigenvalue")
    lam = np.linalg.eigvalsh(H)[..., 0]
    return float(lam) if H.ndim == 2 else lam


def is_psd(H, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """PSD test: (lambda_min >= -tol, lambda_min)."""
    lam_min = min_eigenvalue(H, tol)
    return lam_min >= -tol, lam_min


def certify_above(H, c) -> np.ndarray:
    """For each matrix H_j of a (k, n, n) Hermitian stack, True where
    floating-point Cholesky proves lambda_min(H_j) > c_j, for levels c of
    shape (k,) or one level for all; False proves nothing.

    True exactly where numpy.linalg.cholesky of A_j = H_j - (c_j + pad_j) I
    runs to completion with a finite factor, where
    pad_j = 8(n+2) eps s_j + 2^-1000 n^2 (1 + s_j), s_j = sum_i |h_ii| + n|c_j|.
    Why that proves it (S. M. Rump, "Verification of positive
    definiteness", BIT 46, 2006): a factor R that floating point completes
    satisfies R*R = A + E with |e_il| <= g sqrt(a_ii a_ll)/(1 - g),
    g = gamma_{n+3} ~ (n+3) eps/2 in complex arithmetic, so
    ||E||_2 <= g tr(A)/(1 - g); rounding pad_j, c_j + pad_j and each
    h_ii minus that moves the shift by about eps (|c_j| + |h_ii|) at most.
    As tr(A) <= (1 + eps) s_j up to terms in pad_j eps, together they stay
    at least 8 times below the first term of pad_j, and the second covers
    gradual underflow, which adds about n^2 2^-1074 (1 + s_j) to E.
    numpy raises for a whole stack when one member fails, so a failing
    stack is split in halves until each failing member stands alone.

    Each matrix gets min_eigenvalue's Hermitian check first (at
    DEFAULT_TOL); ValueError for non-finite entries or levels.
    """
    H = _check_hermitian(as_stack(H), DEFAULT_TOL, "certify_above")
    k, n = H.shape[0], H.shape[-1]
    c = np.broadcast_to(np.asarray(c, dtype=float), (k,))
    if not np.all(np.isfinite(c)):
        raise ValueError("levels must be finite")
    with np.errstate(over="ignore"):
        s = np.abs(H.diagonal(axis1=-2, axis2=-1).real).sum(axis=-1) + n * np.abs(c)
        shift = c + (8 * (n + 2) * np.finfo(float).eps * s + 2.0 ** -1000 * n * n * (1.0 + s))
    A = H.copy()
    i = np.arange(n)
    A[:, i, i] -= shift[:, None]
    return _completes(A)


def _completes(A: np.ndarray) -> np.ndarray:
    """Whether numpy.linalg.cholesky completes on each member of the stack
    A with a finite factor, splitting a stack that raises. A NaN that
    LAPACK passes on spreads to every later diagonal entry, and an infinity
    below the diagonal makes a later pivot -inf or NaN, so the last
    diagonal entry is finite iff the factor is."""
    try:
        R = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.zeros(1, dtype=bool)
        half = len(A) // 2
        return np.concatenate([_completes(A[:half]), _completes(A[half:])])
    return np.isfinite(R[:, -1, -1])
