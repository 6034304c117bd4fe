import math

import numpy as np
import pytest

from driftwatch.errors import InvalidInputError
from driftwatch.linalg import (
    CovBlend,
    cholesky_factorize,
    factor_rank_one_update,
    inverse_from_factor,
    sherman_morrison_update,
)


def random_spd(rng, dim, ridge=0.5):
    b = rng.standard_normal((dim, dim))
    return b @ b.T + ridge * np.eye(dim)


class TestCholeskyFactorize:
    """The kernel takes rows whose Gram matrix rowsᵀ rows is C."""

    def test_identity_factors_directly(self):
        a, b, log_det, lam = cholesky_factorize(np.eye(3))
        np.testing.assert_array_equal(a, np.eye(3))
        np.testing.assert_array_equal(b, np.eye(3))
        assert log_det == 0.0 and lam == 0.0

    def test_hand_expanded_two_by_two(self):
        # Rows [[2, 1], [0, sqrt 2]] have the Gram matrix [[4, 2], [2, 3]].
        c = np.array([[4.0, 2.0], [2.0, 3.0]])
        a, b, log_det, lam = cholesky_factorize(np.array([[2.0, 1.0], [0.0, math.sqrt(2.0)]]))
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        np.testing.assert_allclose(a, expected, rtol=1e-12)
        np.testing.assert_allclose(a @ a.T, c, rtol=1e-12)
        np.testing.assert_allclose(b, np.linalg.inv(expected), rtol=1e-12)
        assert log_det == pytest.approx(math.log(8.0), rel=1e-12)
        assert lam == 0.0

    def test_zero_matrix_takes_smallest_ladder_step(self):
        # The one step: sqrt(1e-10) I stacked under the rows.
        a, b, log_det, lam = cholesky_factorize(np.zeros((5, 2)))
        assert lam == 1e-10
        np.testing.assert_allclose(a @ a.T, lam * np.eye(2), rtol=1e-12)
        np.testing.assert_allclose(b, np.eye(2) / math.sqrt(lam), rtol=1e-12)
        assert log_det == pytest.approx(2 * math.log(lam), rel=1e-12)

    @pytest.mark.parametrize("spread,rank", [(1e-15, 1), (1e-12, 2)])
    def test_rank_deficiency_is_relative_to_the_largest_pivot(self, spread, rank):
        # Two columns at scale 1e6 that differ by `spread` relative: R's
        # second pivot is about `spread` times its first, against numpy's
        # matrix_rank tolerance of 10 eps. Only the rank-one rows take the
        # jitter step, and numpy's rank agrees.
        rng = np.random.default_rng(6)
        column = rng.standard_normal(10) * 1e6
        rows = np.column_stack([column, column + spread * rng.standard_normal(10) * 1e6])
        _, _, _, lam = cholesky_factorize(rows)
        assert np.linalg.matrix_rank(rows) == rank
        assert lam == (1e-10 if rank == 1 else 0.0)

    def test_ladder_exhaustion(self):
        # Three equal columns at scale 1e20: the absolute jitter is far below
        # the rank tolerance, so the rows stay rank-deficient.
        column = np.random.default_rng(11).normal(0.0, 1e20, 10)
        with pytest.raises(InvalidInputError, match="rank-deficient even with jitter"):
            cholesky_factorize(np.column_stack([column] * 3))

    def test_fewer_rows_than_columns_take_the_jitter_step(self):
        a, _, _, lam = cholesky_factorize(np.array([[1.0, 2.0, 3.0]]))
        assert lam == 1e-10
        np.testing.assert_allclose(a @ a.T, np.outer([1, 2, 3], [1, 2, 3]) + lam * np.eye(3),
                                   rtol=1e-9, atol=1e-12)

    def test_rejects_non_2d(self):
        for rows in (np.ones(3), np.ones((2, 3, 1))):
            with pytest.raises(InvalidInputError, match="2-D"):
                cholesky_factorize(rows)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            cholesky_factorize(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("k", [0, 5])
    def test_rejects_zero_columns(self, k):
        with pytest.raises(InvalidInputError, match="with columns"):
            cholesky_factorize(np.zeros((k, 0)))

    def test_spd_reconstruction_property(self):
        rng = np.random.default_rng(7)
        for trial in range(200):
            dim = 1 + trial % 8
            rows = rng.standard_normal((dim + trial % 5, dim)) + np.eye(dim + trial % 5, dim)
            c = rows.T @ rows
            a, b, log_det, lam = cholesky_factorize(rows)
            assert lam == 0.0
            np.testing.assert_array_equal(np.triu(a, 1), np.zeros((dim, dim)))
            assert (np.diag(a) > 0).all()
            assert np.linalg.norm(a @ a.T - c) / np.linalg.norm(c) < 1e-9
            assert np.abs(a @ b - np.eye(dim)).max() < 1e-9
            assert log_det == pytest.approx(np.linalg.slogdet(c)[1], abs=1e-9)


def reference_factorize(rows):
    """The kernel as formulated from ``np.linalg.qr(mode="r")``, ``np.diag``
    and ``np.sum``, which the raw QR path must match bit for bit."""
    m = rows.shape[1]
    for lam in (0.0, 1e-10):
        if lam:
            rows = np.vstack([rows, math.sqrt(lam) * np.eye(m)])
        r = np.linalg.qr(rows, mode="r")
        signs = np.diag(r)
        diag = np.abs(signs)
        if diag.size == m and diag.min() > max(rows.shape) * np.finfo(float).eps * diag.max():
            a = np.multiply(r.T, np.sign(signs), order="C")
            return a, np.linalg.inv(a), 2.0 * float(np.sum(np.log(diag))), lam
    raise AssertionError("reference failed to factorize")


class TestBitIdentity:
    """``cholesky_factorize`` equals the ``mode="r"`` formulation exactly,
    down to the sign bits of the zeros above A's diagonal."""

    @staticmethod
    def assert_same_bits(rows):
        got, want = cholesky_factorize(rows), reference_factorize(rows)
        for x, y in zip(got[:2], want[:2]):
            assert np.array_equal(x, y)
            assert np.array_equal(np.signbit(x), np.signbit(y))
            assert x.flags.c_contiguous and y.flags.c_contiguous
        assert got[2:] == want[2:]
        return got

    def test_scaled_random_rows(self):
        rng = np.random.default_rng(23)
        negative_zeros = 0
        for trial in range(300):
            m = 1 + trial % 20
            scales = np.logspace(-5, 5, m)[rng.permutation(m)]
            rows = rng.standard_normal((m + 1 + trial % 7, m)) * scales
            a, _, _, lam = self.assert_same_bits(rows)
            assert lam == 0.0
            negative_zeros += int(np.signbit(np.triu(a, 1)).sum())
        assert negative_zeros > 0  # the sign bits above the diagonal are exercised

    def test_rank_deficient_rows_take_the_jitter_step(self):
        column = np.random.default_rng(24).standard_normal(12)
        rows = np.column_stack([column, -2.0 * column, np.ones(12)])
        assert self.assert_same_bits(rows)[3] == 1e-10

    def test_fewer_rows_than_columns(self):
        rows = np.random.default_rng(25).standard_normal((3, 6))
        assert self.assert_same_bits(rows)[3] == 1e-10


class TestFactorRankOneUpdate:
    def test_zero_weight_leaves_factor_unchanged(self):
        rng = np.random.default_rng(1)
        a = np.linalg.cholesky(random_spd(rng, 3))
        out = factor_rank_one_update(a, rng.standard_normal(3), CovBlend(1.0, 0.0))
        np.testing.assert_allclose(out, a, rtol=1e-14)

    def test_axis_aligned_blend(self):
        out = factor_rank_one_update(np.eye(2), np.array([1.0, 0.0]), CovBlend(0.5, 0.5))
        np.testing.assert_allclose(out @ out.T, np.diag([1.0, 0.5]), rtol=1e-12)

    def test_matches_direct_blend_on_random_trials(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            dim = int(rng.integers(1, 9))
            c = random_spd(rng, dim)
            a = np.linalg.cholesky(c)
            z = rng.standard_normal(dim)
            alpha = float(rng.uniform(0.2, 0.999))
            blend = CovBlend(alpha, 1.0 - alpha)
            v = a @ z
            direct = blend.alpha * c + blend.beta * np.outer(v, v)
            out = factor_rank_one_update(a, z, blend)
            err = np.linalg.norm(out @ out.T - direct) / np.linalg.norm(direct)
            assert err < 1e-10

    def test_result_stays_lower_triangular_with_positive_diagonal(self):
        rng = np.random.default_rng(3)
        a = np.linalg.cholesky(random_spd(rng, 5))
        out = factor_rank_one_update(a, rng.standard_normal(5), CovBlend(0.9, 0.1))
        np.testing.assert_array_equal(np.triu(out, 1), np.zeros((5, 5)))
        assert (np.diag(out) > 0).all()

    def test_degenerate_direction_raises(self):
        with pytest.raises(InvalidInputError, match="is degenerate"):
            factor_rank_one_update(np.eye(3), np.zeros(3), CovBlend(0.9, 0.1))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            factor_rank_one_update(np.eye(3), np.ones(2), CovBlend(0.9, 0.1))

    @pytest.mark.parametrize("value", [math.nan, math.inf, 1e200])
    def test_non_finite_direction_raises(self, value):
        with pytest.raises(InvalidInputError, match="non-finite"):
            factor_rank_one_update(np.eye(3), np.array([1.0, value, 0.0]), CovBlend(0.9, 0.1))

    def test_invalid_blend_rejected(self):
        with pytest.raises(InvalidInputError):
            CovBlend(0.0, 0.5)
        with pytest.raises(InvalidInputError):
            CovBlend(0.5, -0.1)


class TestShermanMorrisonUpdate:
    def test_zero_weight_leaves_inverse_unchanged(self):
        rng = np.random.default_rng(5)
        cinv = np.linalg.inv(random_spd(rng, 4))
        out = sherman_morrison_update(cinv, rng.standard_normal(4), CovBlend(1.0, 0.0))
        np.testing.assert_allclose(out, cinv, rtol=1e-12)

    def test_axis_aligned_blend_inverse(self):
        out = sherman_morrison_update(np.eye(2), np.array([1.0, 0.0]), CovBlend(0.5, 0.5))
        np.testing.assert_allclose(out, np.diag([1.0, 2.0]), rtol=1e-12)

    def test_matches_direct_inversion_on_random_trials(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            dim = int(rng.integers(1, 9))
            c = random_spd(rng, dim)
            cinv = np.linalg.inv(c)
            v = rng.standard_normal(dim)
            alpha = float(rng.uniform(0.2, 0.999))
            blend = CovBlend(alpha, 1.0 - alpha)
            blended = blend.alpha * c + blend.beta * np.outer(v, v)
            out = sherman_morrison_update(cinv, v, blend)
            drift = np.abs(out @ blended - np.eye(dim)).sum(axis=1).max()
            assert drift < 1e-8

    def test_singular_denominator_raises(self):
        # Not a valid inverse covariance, but it drives the denominator to 0.
        with pytest.raises(InvalidInputError, match="not safely positive"):
            sherman_morrison_update(-np.eye(2), np.array([1.0, 0.0]), CovBlend(0.5, 0.5))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            sherman_morrison_update(np.eye(3), np.ones(4), CovBlend(0.5, 0.5))


class TestInverseFromFactor:
    def test_matches_direct_inverse(self):
        rng = np.random.default_rng(13)
        for dim in range(1, 8):
            c = random_spd(rng, dim)
            factor = np.linalg.cholesky(c)
            np.testing.assert_allclose(inverse_from_factor(factor), np.linalg.inv(c), atol=1e-10)

    def test_rejects_bad_diagonal(self):
        with pytest.raises(InvalidInputError, match="strictly positive"):
            inverse_from_factor(np.diag([1.0, 0.0]))


class TestPairedUpdateConsistency:
    def test_500_paired_updates_stay_consistent(self):
        # Factor and inverse maintained independently from the same stream
        # of directions must stay mutually consistent without any rebuild.
        rng = np.random.default_rng(2024)
        dim = 5
        c = random_spd(rng, dim)
        factor = np.linalg.cholesky(c)
        cinv = np.linalg.inv(c)
        blend = CovBlend(0.95, 0.05)
        for _ in range(500):
            d = rng.standard_normal(dim)
            z = np.linalg.solve(factor, d)
            factor = factor_rank_one_update(factor, z, blend)
            cinv = sherman_morrison_update(cinv, d, blend)
            drift = np.abs(cinv @ (factor @ factor.T) - np.eye(dim)).sum(axis=1).max()
            assert drift < 1e-4
