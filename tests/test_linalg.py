"""Matrix primitive tests: pseudo-inverse, Gram solver, full-rank
certificate, rank, rank ratio."""

import numpy as np
import pytest

from aopu import linalg
from aopu.augment import AugmentConfig, Augmenter
from aopu.baselines import RvflnnModel
from aopu.errors import InvalidInputError
from aopu.model import AopuModel, dual, reconstruct, truncated_gradient
from aopu.verify import reconstruct_reference, truncated_gradient_reference


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

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            linalg.pinv(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @pytest.mark.parametrize("gesdd_fails", [False, True])
    def test_hard_gram_matrix(self, gesdd_fails, monkeypatch):
        # large rank-deficient Gram matrices can defeat the default LAPACK
        # driver; the gesvd fallback must still deliver a valid pseudo-inverse
        if gesdd_fails:
            def gesdd(*args, **kwargs):
                raise np.linalg.LinAlgError("SVD did not converge")

            monkeypatch.setattr(linalg.np.linalg, "svd", gesdd)
        rng = np.random.default_rng(1)
        n, d = 288, 80
        x = np.empty((n, d))
        x[0] = rng.standard_normal(d)
        for t in range(1, n):
            x[t] = 0.8 * x[t - 1] + 0.6 * rng.standard_normal(d)
        gram = linalg.symmetrize(x @ x.T)  # rank <= 80 in a 288-square matrix
        p = linalg.pinv(gram)
        err = np.linalg.norm(gram @ p @ gram - gram) / np.linalg.norm(gram)
        assert err < 1e-10
        assert np.linalg.norm(p @ gram @ p - p) / np.linalg.norm(p) < 1e-8


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


class TestGramSolver:
    """The step's one factorization: an LU solve with the certified column
    Gram of a tall batch or row Gram of a wide one, one thin SVD otherwise."""

    @pytest.mark.parametrize(
        "shape,rank",
        [((9, 4), 4), ((9, 4), 3), ((4, 4), 4), ((4, 9), 4)],
        ids=["tall", "tall-deficient", "square", "wide"],
    )
    def test_rank_and_gram_pseudo_inverse(self, shape, rank):
        a = np.random.default_rng(3).standard_normal(shape)
        if rank < min(shape):
            a[:, 3] = a[:, 1] - a[:, 2]
        got, recover, lift = linalg.gram_solver(a)
        assert got == linalg.rank(a) == rank
        gram_inv = linalg.pinv(a.T @ a)
        for got_map, want in ((recover(np.eye(shape[0])), gram_inv @ a.T),
                              (lift(np.eye(shape[1])), a @ gram_inv)):
            np.testing.assert_allclose(got_map, want, atol=1e-10 * np.abs(want).max())

    def test_zero_matrix_solves_to_zero(self):
        a = np.zeros((5, 3))
        rank, recover, lift = linalg.gram_solver(a)
        assert rank == linalg.rank(a) == 0
        np.testing.assert_array_equal(recover(np.ones((5, 2))), np.zeros((3, 2)))
        np.testing.assert_array_equal(lift(np.ones((3, 2))), np.zeros((5, 2)))

    def test_zero_spectrum_has_rank_zero(self):
        assert linalg.count_rank(np.zeros(3), (5, 3)) == 0

    @pytest.mark.parametrize("kind", ["full", "dup"])
    @pytest.mark.parametrize("shape", [(40, 8), (8, 40)], ids=["tall", "wide"])
    @pytest.mark.parametrize("scale", [1e-160, 1e-158, 1e-155, 1e155, 1e160])
    def test_tiny_batch_lifts_to_its_representable_gradient(self, scale, shape, kind):
        # the batch's Gram under- or overflows although the gradient does
        # not; the SVD route never forms it
        x = np.random.default_rng(0).standard_normal(shape)
        if kind == "dup":
            x = _duplicated_column(shape)
        y, d = np.ones((shape[1], 1)), np.zeros((shape[0], 1))
        got = truncated_gradient(x * scale, y, d)
        want = truncated_gradient(x, y, d) / scale
        assert _rel(got, want) <= 1e-13


def _spectrum_matrix(shape, ratio, seed=0):
    """``U @ diag(s) @ V.T`` with ``s_max = 1`` and ``s_min / s_max = ratio``;
    a wide shape gets the transpose of the tall one."""
    if shape[0] < shape[1]:
        return _spectrum_matrix(shape[::-1], ratio, seed).T
    rows, cols = shape
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    s = np.linspace(1.0, 0.5, cols)
    s[-1] = ratio
    return (u * s) @ v.T


def _rel(got, want):
    # dnrm2 scales as it sums, so huge or tiny entries neither over- nor underflow
    return linalg.frobenius_norm(got - want) / linalg.frobenius_norm(want)


def _duplicated_column(shape, seed=0):
    """A random matrix whose last column repeats its first; a wide shape gets
    the transpose of the tall one, so its last row repeats its first."""
    if shape[0] < shape[1]:
        return _duplicated_column(shape[::-1], seed).T
    m = np.random.default_rng(seed).standard_normal(shape)
    m[:, -1] = m[:, 0]
    return m


TALL_SHAPES = ((2288, 64), (300, 64), (40, 8))
CERTIFICATE_SHAPES = TALL_SHAPES + tuple(shape[::-1] for shape in TALL_SHAPES)


def _spectrum_ratios(shape):
    """``s_min / s_max`` values from well inside to well below the rank cutoff."""
    cut = linalg.default_rtol(shape)
    return (1e-1, 1e-4, 1e-6, 1e-8, 10 * cut, 2 * cut, cut / 2, cut / 10, 1e-17, 0.0)


def _certificate_cases():
    cases = []
    for shape in CERTIFICATE_SHAPES:
        for ratio in _spectrum_ratios(shape):
            cases.append(pytest.param(shape, ratio, 1.0, id=f"{shape}-ratio{ratio:.3g}"))
        for scale in (1.0, 1e-160, 1e-150, 1e150, 1e155, 1e160):
            cases.append(pytest.param(shape, "full", scale, id=f"{shape}-full-x{scale:g}"))
            cases.append(pytest.param(shape, "dup", scale, id=f"{shape}-dup-x{scale:g}"))
        cases.append(pytest.param(shape, "zero", 1.0, id=f"{shape}-zero"))
    cases.append(pytest.param((40, 1), "full", 1.0, id="one-column"))
    return cases


def _block_certificate_cases():
    cases = []
    kinds = [("full", 1.0), ("full", 1e-160), ("full", 1e300), ("dup", 1.0),
             ("inf", 1.0), ("nan", 1.0)]
    for shape in TALL_SHAPES:
        for ratio in _spectrum_ratios(shape):
            cases.append(
                pytest.param(shape, ratio, 1.0, id=f"{shape}-ratio{ratio:.3g}")
            )
        for kind, scale in kinds:
            cases.append(
                pytest.param(shape, kind, scale, id=f"{shape}-{kind}-x{scale:g}")
            )
    return cases


class TestFullRankCertificate:
    """The shifted-Cholesky certificate, of the column Gram of a tall matrix
    or the row Gram of a wide one, never claims a rank the SVD rule denies."""

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
        unit, m = m, m * scale
        want = linalg.count_rank(np.linalg.svd(m, compute_uv=False), m.shape)
        assert linalg.rank(m) == want
        aug = Augmenter(AugmentConfig(input_dim=shape[0], hidden=0))
        y = np.zeros((shape[1], 1))
        assert RvflnnModel(aug).step(m, y).rank == want
        model = AopuModel(aug)
        if scale != 1.0:
            # the step applies the unit-scale update over the scale, also
            # where the batch's Grams overflow (from x1e155 up)
            y = np.random.default_rng(2).standard_normal((shape[1], 1))
            ref = AopuModel(aug)
            ref.step(unit, y)
            assert model.step(m, y).rank == want
            assert _rel(model.w_tilde, ref.w_tilde / scale) <= 1e-13
        else:
            assert model.step(m, y).rank == want

    def test_certified_gram_is_the_column_gram(self):
        for shape in ((50, 6),) + TALL_SHAPES:
            m = np.random.default_rng(2).standard_normal(shape)
            gram = linalg.full_rank_gram(m)
            np.testing.assert_array_equal(gram, m.T @ m)

    @pytest.mark.parametrize("shape,kind,scale", _block_certificate_cases())
    def test_certificate_on_block_gram_agrees(self, shape, kind, scale):
        # a Gram assembled from products of uneven column blocks, as the
        # rank-ratio survey builds it, certifies exactly when the Gram
        # product of the whole matrix does
        if kind == "full":
            m = np.random.default_rng(1).standard_normal(shape)
        elif kind == "dup":
            m = _duplicated_column(shape)
        elif kind in ("inf", "nan"):
            m = np.random.default_rng(1).standard_normal(shape)
            m[shape[0] // 2, shape[1] // 3] = float(kind)
        else:
            m = _spectrum_matrix(shape, kind)
        m = m * scale
        parts = np.split(m, [shape[1] // 4, shape[1] // 4 + shape[1] // 3], axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            gram = np.block([[a.T @ b for b in parts] for a in parts])
        want = linalg.full_rank_gram(m) is not None
        assert linalg._certifies_full_rank(gram, shape[0]) == want
        if kind == "full" and scale == 1.0 or kind == 1e-1:
            assert want
        if kind in ("dup", "inf", "nan", 0.0) or scale in (1e-160, 1e300):
            assert not want

    @pytest.mark.parametrize("shape", [(6, 6), (4, 9), (5, 0)])
    def test_only_tall_matrices_are_certified(self, shape):
        m = np.random.default_rng(3).standard_normal(shape)
        assert linalg.full_rank_gram(m) is None


def _certified_spectra():
    return [
        pytest.param(shape, ratio, id=f"{shape}-ratio{ratio:.3g}")
        for shape in CERTIFICATE_SHAPES
        for ratio in _spectrum_ratios(shape)
        if linalg._certified_gram(_spectrum_matrix(shape, ratio))[0] is not None
    ]


class TestCertifiedRoute:
    """A certified batch is solved with its Gram: no eigenvectors, no SVD."""

    @pytest.mark.parametrize("shape,ratio", _certified_spectra())
    def test_matches_pinv_references(self, shape, ratio):
        # the LU solve stays within the forward-error scale
        # min(rows, cols) * eps * cond(gram) of the oracles' explicit
        # column-Gram pseudo-inverse
        m = _spectrum_matrix(shape, ratio)
        rng = np.random.default_rng(4)
        d = dual(m, rng.standard_normal((shape[0], 1)))
        y = rng.standard_normal((shape[1], 1))
        gram = linalg._certified_gram(m)[0]
        bound = min(shape) * linalg.EPS * np.linalg.cond(gram)
        assert _rel(reconstruct(m, d), reconstruct_reference(m, d)) <= bound
        assert (
            _rel(truncated_gradient(m, y, d), truncated_gradient_reference(m, y, d))
            <= bound
        )

    @staticmethod
    def _refuse_eigen_and_singular_solvers(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a certified batch reached an eigen/singular solver")

        monkeypatch.setattr(linalg.np.linalg, "eigh", refuse)
        monkeypatch.setattr(linalg, "_lapack_svd", refuse)

    def test_certified_step_takes_no_eigh_and_no_svd(self, monkeypatch):
        self._refuse_eigen_and_singular_solvers(monkeypatch)
        m = np.random.default_rng(5).standard_normal((300, 64))
        model = AopuModel(Augmenter(AugmentConfig(input_dim=300, hidden=0)))
        report = model.step(m, np.ones((64, 1)))
        assert report.rank == 64
        assert np.all(np.isfinite(model.w_tilde)) and np.any(model.w_tilde)

    def test_certified_wide_step_takes_no_eigh_and_no_svd(self, monkeypatch):
        # the low-RR shape: 80 feature rows (hidden 0, seq 16) against bs 288
        self._refuse_eigen_and_singular_solvers(monkeypatch)
        m = np.random.default_rng(5).standard_normal((80, 288))
        model = AopuModel(Augmenter(AugmentConfig(input_dim=80, hidden=0)))
        report = model.step(m, np.ones((288, 1)))
        assert report.rank == linalg.rank(m) == 80
        assert np.all(np.isfinite(model.w_tilde)) and np.any(model.w_tilde)


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
