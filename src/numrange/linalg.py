"""Dense complex linear algebra kernel for small matrices (dim 2..64).

All routines work on square complex numpy arrays and are pure functions.
Hermitian eigenvalues are delegated to LAPACK (numpy.linalg.eigvalsh), and
linear systems to numpy.linalg.solve after a singular-value check, so that
near-singular systems raise SingularError instead of returning garbage.
Both take a (k, n, n) stack of matrices as well as one matrix.
Nothing here needs scipy.
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
    if not np.all(np.isfinite(T)):
        raise ValueError("matrix has non-finite entries")
    return T


def operator_norm(T) -> float:
    """Largest singular value of T."""
    return float(np.linalg.norm(as_matrix(T), 2))


def _check_hermitian(H: np.ndarray, tol: float, who: str) -> np.ndarray:
    """Check each matrix of H (one matrix or a stack) against
    ||H - H*||_F <= tol*(1+||H||_F), and return H symmetrized."""
    Hs = H.conj().swapaxes(-1, -2)
    dev = np.linalg.norm(H - Hs, axis=(-2, -1))
    allowed = tol * (1.0 + np.linalg.norm(H, axis=(-2, -1)))
    bad = np.flatnonzero(dev > allowed)
    if bad.size:
        i = bad[0]
        where = f" {i}" if H.ndim == 3 else ""
        raise NotHermitianError(
            f"{who}: matrix{where} deviates from Hermitian by {dev.flat[i]:.3e} "
            f"(allowed {allowed.flat[i]:.3e})"
        )
    # exact symmetrization so downstream results are real where they should be
    return (H + Hs) / 2


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
    ||H - H*||_F > tol*(1+||H||_F), and ValueError for non-finite entries.
    A matrix gives a float, a stack a length-k array.
    """
    H = _check_hermitian(_as_square(H), tol, "min_eigenvalue")
    lam = np.linalg.eigvalsh(H)[..., 0]
    return float(lam) if H.ndim == 2 else lam


def is_psd(H, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """PSD test: (lambda_min >= -tol, lambda_min)."""
    lam_min = min_eigenvalue(H, tol)
    return lam_min >= -tol, lam_min
