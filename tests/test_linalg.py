import math

import numpy as np
import pytest

from driftwatch.errors import InvalidInputError, NotPositiveDefiniteError
from driftwatch.linalg import (
    CovBlend,
    cholesky_factorize,
    factor_rank_one_update,
    inverse_from_factor,
    log_det_from_factor,
    sherman_morrison_update,
    tri_solve_lower,
)


def random_spd(rng, dim, ridge=0.5):
    b = rng.standard_normal((dim, dim))
    return b @ b.T + ridge * np.eye(dim)


class TestCholeskyFactorize:
    def test_identity_factors_directly(self):
        factor, lam = cholesky_factorize(np.eye(3))
        np.testing.assert_allclose(factor, np.eye(3))
        assert lam == 0.0

    def test_hand_expanded_two_by_two(self):
        c = np.array([[4.0, 2.0], [2.0, 3.0]])
        factor, lam = cholesky_factorize(c)
        expected = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        np.testing.assert_allclose(factor, expected, rtol=1e-12)
        np.testing.assert_allclose(factor @ factor.T, c, rtol=1e-12)
        assert lam == 0.0

    def test_zero_matrix_takes_smallest_ladder_step(self):
        jitter = 1e-10
        # Oracle: walk the ladder directly until numpy's cholesky succeeds.
        expected_lam = None
        for k in range(41):
            lam = jitter * 2.0**k
            try:
                np.linalg.cholesky(lam * np.eye(2))
                expected_lam = lam
                break
            except np.linalg.LinAlgError:
                continue
        factor, lam = cholesky_factorize(np.zeros((2, 2)))
        assert lam == expected_lam
        np.testing.assert_allclose(factor @ factor.T, lam * np.eye(2), rtol=1e-12)

    def test_negative_definite_escalates_past_one(self):
        c = -np.eye(2)
        factor, lam = cholesky_factorize(c)
        assert lam > 1.0
        # The reported lam must be the smallest ladder value that works.
        assert lam / 2.0 <= 1.0
        np.testing.assert_allclose(factor @ factor.T, c + lam * np.eye(2), rtol=1e-9)

    def test_ladder_exhaustion(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_factorize(-1e30 * np.eye(2))

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            cholesky_factorize(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            cholesky_factorize(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            cholesky_factorize(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_spd_reconstruction_property(self):
        rng = np.random.default_rng(7)
        for trial in range(200):
            dim = 1 + trial % 8
            c = random_spd(rng, dim)
            factor, lam = cholesky_factorize(c)
            assert lam == 0.0
            err = np.linalg.norm(factor @ factor.T - c) / np.linalg.norm(c)
            assert err < 1e-9


class TestTriSolveLower:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        np.testing.assert_allclose(tri_solve_lower(np.eye(3), b), b)

    def test_hand_solved_system(self):
        a = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
        y = tri_solve_lower(a, np.array([4.0, 5.0]))
        np.testing.assert_allclose(y, [2.0, 3.0 / math.sqrt(2.0)], rtol=1e-12)
        np.testing.assert_allclose(a @ y, [4.0, 5.0], rtol=1e-12)

    def test_zero_rhs(self):
        rng = np.random.default_rng(0)
        a = np.linalg.cholesky(random_spd(rng, 4))
        np.testing.assert_array_equal(tri_solve_lower(a, np.zeros(4)), np.zeros(4))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            tri_solve_lower(np.eye(3), np.ones(2))


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


class TestLogDetFromFactor:
    def test_identity(self):
        assert log_det_from_factor(np.eye(4)) == 0.0

    def test_diagonal_factor(self):
        assert log_det_from_factor(np.diag([2.0, 3.0])) == pytest.approx(math.log(36.0), rel=1e-12)

    def test_factor_of_known_determinant(self):
        factor, _ = cholesky_factorize(np.array([[4.0, 2.0], [2.0, 3.0]]))
        assert log_det_from_factor(factor) == pytest.approx(math.log(8.0), rel=1e-12)

    def test_agrees_with_direct_determinant(self):
        rng = np.random.default_rng(11)
        for dim in range(1, 7):
            c = random_spd(rng, dim)
            factor = np.linalg.cholesky(c)
            direct = math.log(np.linalg.det(c))
            assert log_det_from_factor(factor) == pytest.approx(direct, abs=1e-9)

    def test_non_positive_diagonal_raises(self):
        with pytest.raises(InvalidInputError, match="strictly positive"):
            log_det_from_factor(np.diag([1.0, 0.0]))
        with pytest.raises(InvalidInputError, match="strictly positive"):
            log_det_from_factor(np.diag([1.0, -2.0]))


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
            z = tri_solve_lower(factor, d)
            factor = factor_rank_one_update(factor, z, blend)
            cinv = sherman_morrison_update(cinv, d, blend)
            drift = np.abs(cinv @ (factor @ factor.T) - np.eye(dim)).sum(axis=1).max()
            assert drift < 1e-4
