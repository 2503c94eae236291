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
does not need an SVD to be counted: :func:`full_rank_gram`, of the matrix if
tall or of its transpose if wide, forms the Gram of the short side and runs
one Cholesky factorization of that Gram shifted down by a multiple of its
trace. If that factorization succeeds in floating point, every singular
value lies above the cutoff, so the rank is the short side (Rump,
"Verification of positive definiteness", BIT 46, 2006). The certificate
itself, :func:`_certifies_full_rank`, acts on a given Gram and row count:
its rounding bound holds for each length-``rows`` dot product of the Gram,
whatever kernel computed it, so a Gram assembled from products of column
blocks (as ``harness.rr_survey`` builds them) is certified just as
rigorously. :func:`_certified_gram` makes that route choice once, for
:func:`rank` and :func:`gram_solver`; a matrix it cannot certify takes the
exact SVD route. A certified batch is
solved with the LU factorization of its certified Gram, the column Gram of a
tall batch or the row Gram of a wide one, so it needs neither eigenvectors
nor singular vectors. Any other batch is solved with the truncated
pseudo-inverses of ``m`` and ``m.T`` read off its thin SVD; no Gram is
formed, so the maps scale with the batch rather than with its square.
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
    as they do in ``np.linalg.norm``.
    """
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


def full_rank_gram(m: np.ndarray):
    """Column Gram ``m.T @ m`` if it certifies full column rank, else ``None``.

    ``m`` must already be a validated float64 matrix (see :func:`as_matrix`);
    only a tall one (rows > cols > 0) can be certified. With ``n = rows``,
    ``b = cols``, ``G = fl(m.T @ m)`` and ``tr = trace(G)``, the certificate
    is a successful Cholesky factorization of ``G - c*I``, where
    ``c = 2 * (n + b + 2) * eps * tr``. The shift covers three terms:

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
    of ``G`` falls below ``b * eps * lam_max``. The bound assumes no overflow
    or underflow, so a non-finite trace (the Gram overflowed, and Cholesky
    does not reliably reject inf or NaN) or one below ``b * tiny / eps``
    (underflow error could exceed the shift) returns ``None``, as does a
    failed factorization. The shift is derived, not tunable.
    """
    rows, cols = m.shape
    if not rows > cols > 0:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        gram = m.T @ m
    return gram if _certifies_full_rank(gram, rows) else None


def _certifies_full_rank(gram: np.ndarray, rows: int) -> bool:
    """The certificate of :func:`full_rank_gram` on a given column Gram.

    ``gram`` is the computed ``b x b`` Gram of a ``rows x b`` matrix ``m``,
    each entry a length-``rows`` dot product; it may be assembled from
    products of column blocks of ``m``, since the rounding bound
    ``gamma_n * ||m||_F**2`` holds for each entry whichever kernel computed
    it. Returns whether the trace guards pass and ``gram - c*I`` has a
    Cholesky factorization; ``True`` proves ``m`` has rank ``b``. A
    non-finite entry of ``m`` makes the trace non-finite, so it never
    certifies.
    """
    cols = gram.shape[0]
    if not rows > cols > 0:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        tr = float(np.trace(gram))
    if not (np.isfinite(tr) and tr >= cols * TINY / EPS):
        return False
    shift = 2.0 * (rows + cols + 2) * EPS * tr
    try:
        np.linalg.cholesky(gram - shift * np.eye(cols))
    except np.linalg.LinAlgError:
        return False
    return True


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
    """The route of ``m``: its certified Gram and whether that is the row Gram.

    A tall matrix can only be certified by its column Gram ``m.T @ m`` and a
    wide one only by its row Gram ``m @ m.T`` (:func:`full_rank_gram` of
    ``m.T``), so one certificate is tried. Returns ``(gram, wide)``; ``gram``
    is ``None`` when the certificate fails (or ``m`` is square), and then the
    matrix takes the SVD route. Success proves the rank is ``min(m.shape)``.
    """
    wide = m.shape[0] < m.shape[1]
    return full_rank_gram(m.T if wide else m), wide


def gram_solver(m: np.ndarray):
    """Rank of ``m`` and the two maps the step applies, with ``G = m.T @ m``:

    - ``recover(d) = pinv(G) @ m.T @ d``, the outputs of a dual image ``d``;
    - ``lift(r) = m @ pinv(G) @ r``, a residual lifted to the dual space.

    A matrix certified by :func:`_certified_gram` has full rank and is solved
    with an LU factorization of its certified Gram, taken once. The tall
    route LU-solves with ``G``. The wide route LU-solves with the row Gram
    ``H = m @ m.T``, through the commutation identity
    ``m @ pinv(G) = pinv(H) @ m``: ``recover(d) = m.T @ solve(H, d)`` and
    ``lift(r) = solve(H, m @ r)``. Any other matrix takes one thin SVD
    ``m = U S V.T``: the rank counts its singular values above
    ``max(rows, cols) * eps * s_max``, and since ``pinv(G) @ m.T`` and
    ``m @ pinv(G)`` are the truncated pseudo-inverses of ``m`` and ``m.T``
    (Golub & Van Loan, *Matrix Computations*, sec. 5.5), the maps are
    ``recover(d) = V (U.T d / s)`` and ``lift(r) = U (V.T r / s)``. They keep
    the pairs with ``s_i > sqrt(cols * eps) * s_max``, the cutoff
    ``cols * eps * lam_max`` that :func:`pinv` applies to the cols-by-cols
    Gram, written on ``s`` so that it cannot overflow. ``m``
    must already be a validated float64 matrix (see :func:`as_matrix`).
    """
    rows, cols = m.shape
    gram, wide = _certified_gram(m)
    if gram is not None:
        lu = scipy.linalg.lu_factor(gram, check_finite=False)

        def solve(r):
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
