"""Shared dense linear algebra helpers and tolerance conventions.

Everything downstream (cone membership, pairwise checks, graph thresholds)
funnels its eigenvalue and feasibility questions through this module so that
"positive semidefinite" and "entrywise nonnegative" mean the same thing
numerically everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatch",
    "Tolerance",
    "DEFAULT_TOL",
    "as_tolerance",
    "as_square",
    "check_hermitian",
    "symmetrize",
    "eig_sym",
    "is_psd",
    "min_eig",
    "off_diag",
    "hadamard",
    "inner",
    "is_entrywise_nonneg",
]


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds used by every decision procedure.

    eig_tol bounds how negative an eigenvalue may be while still counting
    as PSD; feas_tol bounds residuals of affine constraints and certified
    objective values.
    """

    eig_tol: float = 1e-8
    feas_tol: float = 1e-7


DEFAULT_TOL = Tolerance()


def as_tolerance(tol) -> Tolerance:
    """Coerce None / float / Tolerance into a Tolerance."""
    if tol is None:
        return DEFAULT_TOL
    if isinstance(tol, Tolerance):
        return tol
    t = float(tol)
    return Tolerance(eig_tol=t * 0.1, feas_tol=t)


def as_square(M) -> np.ndarray:
    """Coerce to a square 2-d ndarray (no symmetry check)."""
    A = np.asarray(M)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    return A


def check_hermitian(M, atol: float = 1e-12) -> np.ndarray:
    """Validate that M equals its conjugate transpose up to atol.

    Returns the (exactly) hermitized matrix (M + M^H)/2 so downstream code
    never sees asymmetry at roundoff level.  Real symmetric input stays real.
    """
    A = as_square(M)
    scale = max(1.0, float(np.max(np.abs(A))) if A.size else 1.0)
    resid = float(np.max(np.abs(A - A.conj().T))) if A.size else 0.0
    if resid > atol * scale:
        raise ValueError(
            f"matrix is not hermitian/symmetric: max|M - M^H| = {resid:.3e}"
        )
    H = 0.5 * (A + A.conj().T)
    if np.isrealobj(A) or float(np.max(np.abs(H.imag))) == 0.0:
        return np.real(H)
    return H


def symmetrize(M) -> np.ndarray:
    """(M + M^H)/2 without validation."""
    A = as_square(M)
    return 0.5 * (A + A.conj().T)


def eig_sym(M):
    """Eigendecomposition of a symmetric/hermitian matrix.

    Returns (w, V) with eigenvalues ascending and orthonormal columns in V,
    so M = V @ diag(w) @ V^H.
    """
    A = check_hermitian(M, atol=1e-10)
    w, V = np.linalg.eigh(A)
    return w, V


def min_eig(M) -> float:
    """Smallest eigenvalue of a symmetric/hermitian matrix."""
    A = check_hermitian(M, atol=1e-10)
    if A.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(A)[0])


def is_psd(M, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the smallest eigenvalue is >= -eig_tol * max(1, |M|_F)."""
    A = check_hermitian(M, atol=1e-10)
    if A.shape[0] == 0:
        return True
    scale = max(1.0, float(np.linalg.norm(A)))
    return min_eig(A) >= -tol.eig_tol * scale


def off_diag(M) -> np.ndarray:
    """Copy of M with the diagonal zeroed."""
    A = as_square(M).copy()
    np.fill_diagonal(A, 0)
    return A


def hadamard(M, N) -> np.ndarray:
    """Entrywise product; shapes must match exactly."""
    A = np.asarray(M)
    B = np.asarray(N)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shape mismatch {A.shape} vs {B.shape}")
    return A * B


def inner(A, B) -> float:
    """Real trace inner product Re<A, B> = Re tr(A^H B)."""
    X = np.asarray(A)
    Y = np.asarray(B)
    if X.shape != Y.shape:
        raise DimensionMismatch(f"shape mismatch {X.shape} vs {Y.shape}")
    return float(np.real(np.sum(X.conj() * Y)))


def is_entrywise_nonneg(M, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when all entries are real and >= -feas_tol * max(1, |M|_inf)."""
    A = np.asarray(M)
    if A.size == 0:
        return True
    if np.iscomplexobj(A):
        if float(np.max(np.abs(A.imag))) > tol.feas_tol:
            return False
        A = A.real
    scale = max(1.0, float(np.max(np.abs(A))))
    return float(np.min(A)) >= -tol.feas_tol * scale
