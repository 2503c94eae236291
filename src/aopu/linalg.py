"""Dense matrix primitives: SVD, one-sided factorization, thresholded
pseudo-inverse, rank, rank ratio.

Matrices are plain 2-D float64 ``numpy`` arrays (row-major). All functions are
pure and never mutate their inputs, so they are safe to call concurrently.
Reductions go through numpy/BLAS with a fixed evaluation order, so repeated
runs with identical inputs are bit-reproducible within one environment.

The singular-value cutoff convention used throughout is the standard
numerical-rank rule: values at or below ``max(rows, cols) * eps`` relative to
the largest singular value are treated as zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidInputError, NumericalError

EPS = float(np.finfo(np.float64).eps)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert ``a`` to a finite 2-D float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return m


def default_rtol(shape) -> float:
    """Relative singular-value cutoff: max(rows, cols) * machine epsilon."""
    return max(shape) * EPS


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD ``A = U @ diag(s) @ V.T`` with ``s`` sorted descending."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.s) @ self.v.T


def _lapack_svd(m: np.ndarray, compute_uv: bool = True):
    """Thin SVD of a validated matrix, or its singular values alone.

    Falls back from the divide-and-conquer LAPACK driver to the slower but
    more robust one-sided Jacobi-free ``gesvd`` driver; if both fail a
    :class:`NumericalError` is raised.
    """
    try:
        return np.linalg.svd(m, full_matrices=False, compute_uv=compute_uv)
    except np.linalg.LinAlgError:
        try:
            return scipy.linalg.svd(
                m, full_matrices=False, compute_uv=compute_uv, lapack_driver="gesvd"
            )
        except Exception as exc:  # pragma: no cover - second driver rarely fails
            raise NumericalError(f"SVD did not converge for shape {m.shape}") from exc


def svd(a) -> SvdResult:
    """Thin SVD of a dense matrix; ``gesvd`` backs up the default LAPACK driver."""
    u, s, vt = _lapack_svd(as_matrix(a))
    return SvdResult(u=u, s=s, v=vt.T)


def factor_columns(m: np.ndarray):
    """Singular values and right singular vectors of ``m`` from one factorization.

    Factors the smaller side: a tall matrix is reduced to the triangle of an
    R-only Householder QR, whose SVD has the same singular values and right
    singular vectors; a wide or square one gets a thin SVD directly. Returns
    ``(s, v)`` with ``s`` descending and ``v`` of shape (cols, min(rows, cols)).
    ``m`` must already be a validated float64 matrix (see :func:`as_matrix`).
    """
    if m.shape[0] > m.shape[1]:
        m = np.linalg.qr(m, mode="r")
    _, s, vt = _lapack_svd(m)
    return s, vt.T


def _cutoff(s: np.ndarray, shape) -> float:
    """Absolute singular-value threshold ``max(shape) * eps * s_max``."""
    return default_rtol(shape) * (s[0] if s.size else 0.0)


def pinv(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via reciprocals of retained singular values.

    Singular values at or below the cutoff are treated as zero. The
    pseudo-inverse of an all-zero matrix is the zero matrix of transposed
    shape (the limit of the reciprocal rule).
    """
    res = svd(a)
    keep = res.s > _cutoff(res.s, np.shape(a))
    # guard the division: masked entries are zeroed afterwards anyway
    sinv = np.where(keep, 1.0 / np.where(keep, res.s, 1.0), 0.0)
    return (res.v * sinv) @ res.u.T


def count_rank(s: np.ndarray, shape) -> int:
    """Numerical rank of a ``shape`` matrix from its descending singular values.

    Counts the values strictly above the cutoff; an all-zero spectrum has
    rank 0.
    """
    return int(np.count_nonzero(s > _cutoff(s, shape)))


def _rank(m: np.ndarray) -> int:
    """:func:`rank` of a matrix already validated by :func:`as_matrix`."""
    if min(m.shape) == 0:
        return 0
    return count_rank(_lapack_svd(m, compute_uv=False), m.shape)


def rank(a) -> int:
    """Numerical rank: count of singular values strictly above the cutoff."""
    return _rank(as_matrix(a))


def rank_ratio(x_tilde) -> float:
    """Rank of ``x_tilde`` divided by the batch size (its column count).

    Equals 1 exactly when the batch is column-full-rank, i.e. when the
    column Gram matrix is invertible to working precision.
    """
    m = as_matrix(x_tilde, "x_tilde")
    if m.shape[1] == 0:
        raise InvalidInputError("x_tilde has no columns: batch size must be positive")
    return _rank(m) / m.shape[1]


def symmetrize(m) -> np.ndarray:
    """(M + M.T) / 2 - suppresses round-off asymmetry in Gram matrices."""
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"cannot symmetrize non-square shape {a.shape}")
    return (a + a.T) / 2.0


def column_gram(x) -> np.ndarray:
    """Symmetrized ``x.T @ x`` (batch-by-batch Gram of the columns)."""
    m = as_matrix(x)
    return symmetrize(m.T @ m)


def row_gram(x) -> np.ndarray:
    """Symmetrized ``x @ x.T`` (feature-by-feature Gram of the rows)."""
    m = as_matrix(x)
    return symmetrize(m @ m.T)
