"""Dense matrix primitives: full-rank certificate, Gram solver,
thresholded pseudo-inverse, rank, rank ratio, Frobenius norm.

Matrices are plain 2-D float64 ``numpy`` arrays (row-major). All functions are
pure and never mutate their inputs, so they are safe to call concurrently.
Reductions go through numpy/BLAS with a fixed evaluation order, so repeated
runs with identical inputs are bit-reproducible within one environment.

The singular-value cutoff convention used throughout is the standard
numerical-rank rule: values at or below ``max(rows, cols) * eps`` relative to
the largest singular value are treated as zero.

A matrix whose columns (if tall) or rows (if wide) are clearly independent
does not need an SVD to be counted: :func:`_certified_gram` forms the Gram
of the short side, and :func:`_certificate` runs one Cholesky factorization
of that Gram shifted down by a multiple of its trace. If that factorization
succeeds in floating point, every singular value lies above the cutoff, so
the rank is the short side (Rump, "Verification of positive definiteness",
BIT 46, 2006). The certificate also holds for a Gram assembled from column
blocks, or for the Gram of a subset of the rows given a bound on the squared
norm of the others, as ``survey._survey_ranks`` uses it; its docstring has
the derivation. :func:`_certified_gram` makes that route choice once, for
:func:`rank` and :func:`gram_solver`. A certified batch is solved with its
certified Gram by iterative refinement that the certificate's Cholesky
factor preconditions, so the step takes that one factorization and needs
neither eigenvectors nor singular vectors; a right-hand side whose
refinement stalls is solved by an LU factorization instead. Any other batch
is solved with the truncated pseudo-inverses of ``m`` and ``m.T`` read off
its thin SVD; no Gram is formed, so the maps scale with the batch rather
than with its square.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import InvalidInputError, NumericalError

EPS = float(np.finfo(np.float64).eps)
TINY = float(np.finfo(np.float64).tiny)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert ``a`` to a finite 2-D float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return m


def frobenius_norm(m: np.ndarray) -> float:
    """Frobenius norm of a float64 array, through BLAS ``nrm2``.

    ``nrm2`` scales while it sums, so the squares of large or tiny entries
    neither overflow nor underflow where the norm itself is representable,
    as they do in ``np.linalg.norm``. An empty array has norm 0.
    """
    if m.size == 0:
        return 0.0
    return float(scipy.linalg.blas.dnrm2(m.ravel()))


def default_rtol(shape) -> float:
    """Relative singular-value cutoff: max(rows, cols) * machine epsilon."""
    return max(shape) * EPS


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


def _certificate(
    gram: np.ndarray,
    rows: int,
    n: int | None = None,
    rest: float = 0.0,
    overwrite: bool = False,
):
    """The lower Cholesky factor ``L`` (Fortran order) that proves, from
    ``gram``, the column Gram of some rows of a matrix, that the matrix has
    full column rank, or None.

    ``m`` is an ``n x b`` matrix and ``m_S`` any ``rows`` of its rows.
    ``gram`` is the computed ``b x b`` column Gram of ``m_S``, each entry a
    length-``rows`` dot product; it may be assembled from products of column
    blocks of ``m_S``, since the rounding bound ``gamma_rows * ||m_S||_F**2``
    holds for each entry whichever kernel computed it. ``rest`` is an upper
    bound on the squared Frobenius norm of the other ``n - rows`` rows
    ``m_R``; by default ``m_S`` is all of ``m`` (``n = rows``, ``rest = 0``).
    With ``tr_S = trace(gram)`` the shift is
    ``c = 2 * (rows + b + 2) * eps * tr_S + 2 * (n * eps)**2 * rest``, and
    the certificate is a successful Cholesky factorization of ``gram - c*I``.

    Take first ``m_S = m``, with ``G = gram = fl(m.T @ m)`` and
    ``tr = trace(G)``, so ``c = 2 * (n + b + 2) * eps * tr``. The shift
    covers three terms:

    - rounding of the Gram product: ``||G - m.T m||_2 <= gamma_n * ||m||_F**2``
      (Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3);
    - the Cholesky backward error: success on ``A = G - c*I`` gives
      ``A + dA = R.T R`` with ``||dA||_2 <= gamma_(b+1) * trace(A)``, plus one
      rounding of the shifted diagonal (Higham, ch. 10; Rump, BIT 46, 2006);
    - the rank cutoff: ``(max(n, b) * eps * s_max)**2 <= n**2 * eps**2 * tr``.

    With ``gamma_k = k*eps / (1 - k*eps) ~ k*eps`` and ``||m||_F**2 ~ tr``,
    success proves ``s_min(m)**2 >= c - (n + b + 2) * eps * tr``, about
    ``(n + b + 2) * eps * tr``, which exceeds the squared cutoff by a factor
    of about ``1 / (n * eps)``. So every singular value of ``m`` lies above
    ``max(n, b) * eps * s_max``: the rank is exactly ``b``, and no eigenvalue
    of ``G`` falls below ``b * eps * lam_max``.

    With fewer rows, success proves that ``m`` has rank ``b`` too:

    - ``s_min(m) >= s_min(m_S)``: ``m.T m = m_S.T m_S + m_R.T m_R`` and the
      second term is positive semidefinite, so dropping rows can only lower
      the singular values;
    - ``s_max(m)**2 <= ||m_S||_F**2 + ||m_R||_F**2 <= tr_S + rest``, up to
      the rounding of ``tr_S``;
    - as above, success proves
      ``s_min(m_S)**2 >= (rows + b + 2) * eps * tr_S + 2 * (n * eps)**2 * rest``,
      which exceeds the squared cutoff of ``m``,
      ``(n * eps * s_max(m))**2 <= (n * eps)**2 * (tr_S + rest)``, because
      ``n**2 * eps`` is far below ``rows + b + 2``.

    So every singular value of ``m`` lies above ``max(n, b) * eps * s_max(m)``
    and its rank is ``b``. The bound assumes no overflow or underflow, so
    a non-finite trace (the Gram overflowed, and Cholesky does not reliably
    reject inf or NaN) or one below ``b * tiny / eps`` (underflow error could
    exceed the shift) returns None, as do a non-finite shift (an
    infinite or nan ``rest``), ``rows <= b`` and a failed factorization. A
    non-finite entry of ``m_S`` makes the trace non-finite, so it never
    certifies; the caller's bound must be infinite if ``m_R`` holds one. The
    shift is derived, not tunable.
    With ``overwrite``, a C-contiguous ``gram`` is factored in place of the
    copy, and its contents are lost; ``L`` overwrites the copy.
    """
    cols = gram.shape[0]
    if not rows > cols > 0:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        tr = float(np.trace(gram))
    if not (np.isfinite(tr) and tr >= cols * TINY / EPS):
        return None
    n = rows if n is None else n
    shift = 2.0 * (rows + cols + 2) * EPS * tr + 2.0 * (n * EPS) ** 2 * rest
    if not np.isfinite(shift):
        return None
    # gram - shift*I, bit for bit, in one copy (or in gram itself with
    # overwrite); the Gram is symmetric, so its transpose is the same matrix
    # in Fortran order and LAPACK factors it in place (it reads one
    # triangle, and each carries the rounding bound)
    shifted = gram if overwrite else gram.copy()
    shifted.flat[:: cols + 1] -= shift
    try:
        return scipy.linalg.cholesky(
            shifted.T, lower=True, overwrite_a=True, check_finite=False
        )
    except np.linalg.LinAlgError:
        return None


def _cutoff(s: np.ndarray, shape) -> float:
    """Absolute singular-value threshold ``max(shape) * eps * s_max``."""
    return default_rtol(shape) * (s[0] if s.size else 0.0)


def pinv(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via reciprocals of retained singular values.

    Singular values at or below the cutoff are treated as zero. The
    pseudo-inverse of an all-zero matrix is the zero matrix of transposed
    shape (the limit of the reciprocal rule).
    """
    m = as_matrix(a)
    u, s, vt = _lapack_svd(m)
    keep = s > _cutoff(s, m.shape)
    # guard the division: masked entries are zeroed afterwards anyway
    sinv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    return (vt.T * sinv) @ u.T


def count_rank(s: np.ndarray, shape) -> int:
    """Numerical rank of a ``shape`` matrix from its descending singular values.

    Counts the values strictly above the cutoff; an all-zero spectrum has
    rank 0.
    """
    return int(np.count_nonzero(s > _cutoff(s, shape)))


def _certified_gram(m: np.ndarray):
    """The route of ``m``: its certified Gram, row-Gram flag and factor.

    A tall matrix can only be certified by its column Gram ``m.T @ m`` and a
    wide one only by its row Gram ``m @ m.T``, so one Gram is formed and
    passed to :func:`_certificate`. Returns ``(gram, wide, factor)``; ``gram``
    and ``factor`` are ``None`` when the certificate fails (or ``m`` is
    square), and then the matrix takes the SVD route. Success proves the rank
    is ``min(m.shape)``. ``m`` must already be validated (:func:`as_matrix`).
    """
    wide = m.shape[0] < m.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        gram = m @ m.T if wide else m.T @ m
    factor = _certificate(gram, max(m.shape))
    return (None if factor is None else gram), wide, factor


def gram_solver(m: np.ndarray):
    """Rank of ``m`` and the two maps the step applies, with ``G = m.T @ m``:

    - ``recover(d) = pinv(G) @ m.T @ d``, the outputs of a dual image ``d``;
    - ``lift(r) = m @ pinv(G) @ r``, a residual lifted to the dual space.

    A matrix certified by :func:`_certified_gram` has full rank and is solved
    with its certified Gram ``A`` and no factorization of its own: the
    certificate's ``L @ L.T = A - c*I`` preconditions fixed-precision
    iterative refinement, ``x <- x + solve(L @ L.T, r - A @ x)`` by LAPACK
    ``potrs``, which contracts by about ``c / (lam_min(A) - c)`` per
    correction (Higham, *Accuracy and Stability of Numerical Algorithms*,
    ch. 12). It stops at a correction with ``max|dx| <= n * eps * max|x|``.
    A correction that fails to halve the last (or is NaN), or five without
    that, means too slow a rate or a rounding floor ``eps * cond(A)`` above
    the rule, and that right-hand side is solved by an LU factorization of
    ``A``. The tall route solves with ``A = G``, the wide one with the row
    Gram ``A = H = m @ m.T``, through the commutation identity
    ``m @ pinv(G) = pinv(H) @ m``: ``recover(d) = m.T @ solve(H, d)`` and
    ``lift(r) = solve(H, m @ r)``. Any other matrix takes one thin SVD
    ``m = U S V.T``: the rank counts its singular values above
    ``max(rows, cols) * eps * s_max``, and since ``pinv(G) @ m.T`` and
    ``m @ pinv(G)`` are the truncated pseudo-inverses of ``m`` and ``m.T``
    (Golub & Van Loan, *Matrix Computations*, sec. 5.5), the maps are
    ``recover(d) = V (U.T d / s)`` and ``lift(r) = U (V.T r / s)``. They keep
    the pairs with ``s_i > sqrt(cols * eps) * s_max``, the cutoff
    ``cols * eps * lam_max`` that :func:`pinv` applies to the cols-by-cols
    Gram, written on ``s`` so that it cannot overflow. ``m`` must already be
    a validated float64 matrix (see :func:`as_matrix`).
    """
    rows, cols = m.shape
    gram, wide, factor = _certified_gram(m)
    if gram is not None:
        potrs = scipy.linalg.lapack.dpotrs

        def solve(r):
            x, last = potrs(factor, r, lower=1)[0], np.inf
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(5):
                    dx = potrs(factor, r - gram @ x, lower=1)[0]
                    x += dx
                    size = np.abs(dx).max()
                    if size <= len(gram) * EPS * np.abs(x).max():
                        return x
                    if not size <= last / 2:
                        break
                    last = size
            lu = scipy.linalg.lu_factor(gram, check_finite=False)
            return scipy.linalg.lu_solve(lu, r, check_finite=False)

        if wide:
            return rows, lambda d: m.T @ solve(d), lambda r: solve(m @ r)
        return cols, lambda d: solve(m.T @ d), lambda r: m @ solve(r)
    u, s, vt = _lapack_svd(m)
    rank = count_rank(s, m.shape)
    keep = s > np.sqrt(default_rtol((cols, cols))) * s.max(initial=0.0)
    u, v, s = u[:, keep], vt[keep].T, s[keep, None]
    return rank, lambda d: v @ ((u.T @ d) / s), lambda r: u @ ((v.T @ r) / s)


def _rank(m: np.ndarray) -> int:
    """:func:`rank` of a matrix already validated by :func:`as_matrix`."""
    if min(m.shape) == 0:
        return 0
    if _certified_gram(m)[0] is not None:
        return min(m.shape)
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
