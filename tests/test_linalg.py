"""Matrix primitive tests: SVD contract, pseudo-inverse, rank, rank ratio."""

import numpy as np
import pytest

from aopu import linalg
from aopu.augment import AugmentConfig, Augmenter
from aopu.errors import InvalidInputError
from aopu.model import AopuModel


class TestSvd:
    def test_identity_singular_values(self):
        res = linalg.svd(np.eye(3))
        np.testing.assert_allclose(res.s, [1.0, 1.0, 1.0], atol=1e-14)

    def test_diagonal_case(self):
        res = linalg.svd(np.diag([3.0, 2.0]))
        np.testing.assert_allclose(res.s, [3.0, 2.0], atol=1e-14)
        # U and V equal identity up to per-column sign
        np.testing.assert_allclose(np.abs(res.u), np.eye(2), atol=1e-14)
        np.testing.assert_allclose(np.abs(res.v), np.eye(2), atol=1e-14)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 3))
        res = linalg.svd(a)
        err = np.linalg.norm(res.reconstruct() - a) / np.linalg.norm(a)
        assert err < 1e-10
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(3), atol=1e-10)
        np.testing.assert_allclose(res.v.T @ res.v, np.eye(3), atol=1e-10)
        assert np.all(np.diff(res.s) <= 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            linalg.svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_hard_gram_matrix_still_decomposes(self):
        # large rank-deficient Gram matrices can defeat the default LAPACK
        # driver; the fallback must still deliver a valid decomposition
        rng = np.random.default_rng(1)
        n, d = 288, 80
        x = np.empty((n, d))
        x[0] = rng.standard_normal(d)
        for t in range(1, n):
            x[t] = 0.8 * x[t - 1] + 0.6 * rng.standard_normal(d)
        gram = linalg.symmetrize(x @ x.T)  # rank <= 80 in a 288-square matrix
        res = linalg.svd(gram)
        err = np.linalg.norm(res.reconstruct() - gram) / np.linalg.norm(gram)
        assert err < 1e-10


class TestPinv:
    def test_diagonal_reciprocal(self):
        np.testing.assert_allclose(
            linalg.pinv(np.diag([2.0, 0.5])), np.diag([0.5, 2.0]), atol=1e-14
        )

    def test_rank_one_symmetric(self):
        a = np.ones((2, 2))
        np.testing.assert_allclose(linalg.pinv(a), a / 4.0, atol=1e-14)

    def test_full_rank_matches_linear_solves(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
        inv_by_solve = np.column_stack(
            [np.linalg.solve(a, e) for e in np.eye(4)]
        )
        np.testing.assert_allclose(linalg.pinv(a), inv_by_solve, atol=1e-8)
        np.testing.assert_allclose(linalg.pinv(a) @ a, np.eye(4), atol=1e-8)

    def test_zero_matrix_transposed_shape(self):
        p = linalg.pinv(np.zeros((3, 5)))
        assert p.shape == (5, 3)
        assert np.all(p == 0.0)

    def test_penrose_conditions_across_ranks(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            r = int(rng.integers(0, min(m, n) + 1))
            a = (
                rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
                if r
                else np.zeros((m, n))
            )
            p = linalg.pinv(a)
            scale = max(np.linalg.norm(a), 1.0)
            assert np.linalg.norm(a @ p @ a - a) / scale < 1e-8
            assert np.linalg.norm(p @ a @ p - p) / max(np.linalg.norm(p), 1.0) < 1e-8
            assert np.linalg.norm((a @ p).T - a @ p) / scale < 1e-8
            assert np.linalg.norm((p @ a).T - p @ a) / scale < 1e-8

    def test_transpose_identity(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 4))
        np.testing.assert_allclose(
            linalg.pinv(a.T), linalg.pinv(a).T, atol=1e-10
        )


class TestRank:
    def test_zero_matrix(self):
        assert linalg.rank(np.zeros((3, 3))) == 0

    def test_identity(self):
        assert linalg.rank(np.eye(4)) == 4

    def test_proportional_columns(self):
        a = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
        assert linalg.rank(a) == 1

    def test_empty_dimension(self):
        assert linalg.rank(np.zeros((4, 0))) == 0


class TestFactorColumns:
    """The step's factorization for batches that full_rank_gram does not
    certify: wide ones, and tall ones that are rank-deficient or too
    ill-conditioned. It never forms a Gram, so its singular values stay
    accurate to about eps * s_max."""

    @pytest.mark.parametrize("shape", [(9, 4), (4, 4), (4, 9)])
    def test_matches_full_svd(self, shape):
        # tall inputs go through the QR triangle, square and wide ones not
        a = np.random.default_rng(3).standard_normal(shape)
        s, v = linalg.factor_columns(a)
        k = min(shape)
        assert v.shape == (shape[1], k)
        np.testing.assert_allclose(s, np.linalg.svd(a, compute_uv=False), rtol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(k), atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(a @ v, axis=0), s, rtol=1e-12)

    def test_rank_of_deficient_tall_matrix(self):
        a = np.random.default_rng(4).standard_normal((9, 4))
        a[:, 3] = a[:, 1] - a[:, 2]
        s, _ = linalg.factor_columns(a)
        assert linalg.count_rank(s, a.shape) == linalg.rank(a) == 3

    def test_zero_spectrum_has_rank_zero(self):
        assert linalg.count_rank(np.zeros(3), (5, 3)) == 0


def _spectrum_matrix(shape, ratio, seed=0):
    """``U @ diag(s) @ V.T`` with ``s_max = 1`` and ``s_min / s_max = ratio``."""
    rows, cols = shape
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    s = np.linspace(1.0, 0.5, cols)
    s[-1] = ratio
    return (u * s) @ v.T


def _duplicated_column(shape, seed=0):
    m = np.random.default_rng(seed).standard_normal(shape)
    m[:, -1] = m[:, 0]
    return m


def _certificate_cases():
    cases = []
    for shape in ((2288, 64), (300, 64), (40, 8)):
        cut = linalg.default_rtol(shape)
        for ratio in (1e-1, 1e-4, 1e-6, 1e-8, 10 * cut, 2 * cut, cut / 2, cut / 10, 1e-17, 0.0):
            cases.append(pytest.param(shape, ratio, 1.0, id=f"{shape}-ratio{ratio:.3g}"))
        for scale in (1.0, 1e-160, 1e-150, 1e150, 1e155, 1e160):
            cases.append(pytest.param(shape, "full", scale, id=f"{shape}-full-x{scale:g}"))
            cases.append(pytest.param(shape, "dup", scale, id=f"{shape}-dup-x{scale:g}"))
        cases.append(pytest.param(shape, "zero", 1.0, id=f"{shape}-zero"))
    cases.append(pytest.param((40, 1), "full", 1.0, id="one-column"))
    return cases


class TestFullRankCertificate:
    """The shifted-Cholesky certificate never claims a rank the SVD rule denies."""

    @pytest.mark.parametrize("shape,kind,scale", _certificate_cases())
    def test_rank_and_step_rank_match_svd_rule(self, shape, kind, scale):
        if kind == "full":
            m = np.random.default_rng(1).standard_normal(shape)
        elif kind == "dup":
            m = _duplicated_column(shape)
        elif kind == "zero":
            m = np.zeros(shape)
        else:
            m = _spectrum_matrix(shape, kind)
        m = m * scale
        want = linalg.count_rank(np.linalg.svd(m, compute_uv=False), m.shape)
        assert linalg.rank(m) == want
        model = AopuModel(Augmenter(AugmentConfig(input_dim=shape[0], hidden=0)))
        assert model.step(m, np.zeros((shape[1], 1))).rank == want

    def test_certified_gram_is_the_column_gram(self):
        m = np.random.default_rng(2).standard_normal((50, 6))
        gram = linalg.full_rank_gram(m)
        np.testing.assert_array_equal(gram, m.T @ m)

    @pytest.mark.parametrize("shape", [(6, 6), (4, 9), (5, 0)])
    def test_only_tall_matrices_are_certified(self, shape):
        m = np.random.default_rng(3).standard_normal(shape)
        assert linalg.full_rank_gram(m) is None


class TestRankRatio:
    def test_full_column_rank(self):
        rng = np.random.default_rng(2)
        assert linalg.rank_ratio(rng.standard_normal((8, 4))) == 1.0

    def test_duplicated_column(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
        assert linalg.rank_ratio(a) == 0.5

    def test_zero_batch_rejected(self):
        with pytest.raises(InvalidInputError):
            linalg.rank_ratio(np.ones((2, 0)))

    def test_bounds_and_gram_invertibility(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            m = int(rng.integers(1, 8))
            n = int(rng.integers(1, 8))
            r = int(rng.integers(0, min(m, n) + 1))
            a = (
                rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
                if r
                else np.zeros((m, n))
            )
            rr = linalg.rank_ratio(a)
            assert 0.0 <= rr <= 1.0
            # rr == 1 exactly when the column Gram is invertible, i.e. the
            # smallest singular value clears the relative cutoff
            s = np.linalg.svd(a, compute_uv=False)
            smax = s[0] if s.size else 0.0
            invertible = (
                s.size == n
                and smax > 0
                and s[-1] > linalg.default_rtol(a.shape) * smax
            )
            assert (rr == 1.0) == invertible

    def test_windowed_sequence_trend(self):
        # windows of a slowly-varying multivariate series: growing the window
        # raises the feature dimension and hence the mean rank ratio
        rng = np.random.default_rng(4)
        n, nv = 600, 5
        x = np.empty((n, nv))
        x[0] = rng.standard_normal(nv)
        for t in range(1, n):
            x[t] = 0.8 * x[t - 1] + 0.6 * rng.standard_normal(nv)
        bs = 32
        means = []
        for seq in (2, 4, 8):
            nw = n - seq + 1
            idx = np.arange(nw)[:, None] + np.arange(seq)[None, :]
            feats = x[idx].reshape(nw, seq * nv).T
            cols = rng.permutation(nw)
            rrs = [
                linalg.rank_ratio(feats[:, cols[i : i + bs]])
                for i in range(0, nw - bs + 1, bs)
            ]
            means.append(np.mean(rrs))
        assert means[0] <= means[1] <= means[2]
        assert means[2] > means[0]


class TestGramHelpers:
    def test_commutation_identity_any_rank(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            m = int(rng.integers(1, 8))
            n = int(rng.integers(1, 8))
            r = int(rng.integers(0, min(m, n) + 1))
            x = (
                rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
                if r
                else np.zeros((m, n))
            )
            left = x @ linalg.pinv(linalg.column_gram(x))
            right = linalg.pinv(linalg.row_gram(x)) @ x
            assert np.linalg.norm(left - right) / max(np.linalg.norm(right), 1.0) < 1e-8

    def test_symmetrize_requires_square(self):
        with pytest.raises(InvalidInputError):
            linalg.symmetrize(np.ones((2, 3)))

    def test_symmetrize_output(self):
        rng = np.random.default_rng(19)
        m = rng.standard_normal((4, 4))
        s = linalg.symmetrize(m)
        np.testing.assert_allclose(s, s.T, atol=0)
