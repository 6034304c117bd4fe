import errno
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from driftwatch import detector
from driftwatch.detector import (
    DRIFT_LIMIT,
    REFACTOR_EVERY,
    GaussianModel,
    derive_blend,
    fit_static,
    load_checkpoint,
    model_from_text,
    model_to_text,
    save_model,
    score,
    update_many,
    update_online,
)
from driftwatch.errors import InvalidInputError
from driftwatch.linalg import FLOAT_EPS, CovBlend
from driftwatch.pewma import PewmaParams, PewmaState, pewma_step


def fitted_model(rng, n=200, dim=3):
    return fit_static(rng.standard_normal((n, dim)))


def stacked(a, b):
    """The ``root`` of a model with square root ``a`` and inverse ``b``: [A; Bᵀ]."""
    return np.concatenate((a, b.T))


class TestDeriveBlend:
    def test_smallest_sample(self):
        blend = derive_blend(1)
        assert blend.alpha == pytest.approx(5.0 / 7.0, rel=1e-15)
        assert blend.beta == pytest.approx(2.0 / 7.0, rel=1e-15)

    def test_two_samples(self):
        blend = derive_blend(2)
        assert blend.alpha == pytest.approx(0.8, rel=1e-15)
        assert blend.beta == pytest.approx(0.2, rel=1e-15)

    def test_large_sample_limit(self):
        blend = derive_blend(10**6)
        assert abs(blend.alpha - 1.0) < 2e-12
        assert abs(blend.beta) < 2e-12

    def test_weights_sum_to_one(self):
        for n in (1, 3, 10, 999):
            blend = derive_blend(n)
            assert blend.alpha + blend.beta == pytest.approx(1.0, abs=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(InvalidInputError):
            derive_blend(0)


class TestFitStatic:
    def test_hand_computed_two_dimensional(self):
        data = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        model = fit_static(data)
        np.testing.assert_allclose(model.mu, [0.5, 0.5])
        np.testing.assert_allclose(model.cov, np.eye(2) / 3.0, atol=1e-12)
        assert model.n == 4 and model.m == 2

    def test_whitened_data_gives_identity_factor(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((60, 4))
        centered = raw - raw.mean(axis=0)
        white = centered @ np.linalg.inv(np.linalg.cholesky(np.cov(raw, rowvar=False, ddof=1))).T
        model = fit_static(white)
        np.testing.assert_allclose(model.cov, np.eye(4), atol=1e-9)
        assert model.log_det == pytest.approx(0.0, abs=1e-9)

    def test_identical_points_fall_back_to_jitter(self):
        model = fit_static(np.ones((10, 2)))
        assert model.jitter_used > 0.0
        np.testing.assert_allclose(model.cov, model.jitter_used * np.eye(2), rtol=1e-9)

    def test_insufficient_data_rejected(self):
        with pytest.raises(InvalidInputError, match="need at least 4 samples"):
            fit_static(np.zeros((3, 3)))

    def test_non_finite_rejected(self):
        data = np.zeros((5, 2))
        data[1, 1] = np.nan
        with pytest.raises(InvalidInputError):
            fit_static(data)

    def test_three_dimensional_input_rejected(self):
        with pytest.raises(InvalidInputError, match="expected 2-D data"):
            fit_static(np.zeros((10, 2, 2)))

    def test_zero_columns_rejected(self):
        with pytest.raises(InvalidInputError, match="with columns"):
            fit_static(np.zeros((5, 0)))

    def test_one_dimensional_input(self):
        model = fit_static(np.array([-1.0, 0.0, 1.0]))
        assert model.m == 1
        np.testing.assert_allclose(model.cov, [[1.0]], rtol=1e-12)

    def test_inverse_and_log_det_consistent(self):
        rng = np.random.default_rng(8)
        model = fitted_model(rng, n=100, dim=5)
        cov = model.cov
        np.testing.assert_allclose(model.cinv @ cov, np.eye(5), atol=1e-9)
        assert model.log_det == pytest.approx(math.log(np.linalg.det(cov)), abs=1e-9)


class TestUpdateOnline:
    def test_point_at_mean_decays_covariance(self):
        # d = 0 takes the blend like any point: C' = alpha C, C'⁻¹ = C⁻¹ / alpha
        # and log |C'| = log |C| + m log alpha, all exactly.
        rng = np.random.default_rng(1)
        model = fitted_model(rng)
        alpha = model.blend.alpha
        updated = update_online(model, model.mu.copy())
        assert updated.n == model.n + 1
        np.testing.assert_allclose(updated.mu, model.mu, rtol=1e-15)
        np.testing.assert_array_equal(updated.cov, alpha * model.cov)
        np.testing.assert_array_equal(updated.cinv, model.cinv / alpha)
        assert updated.log_det == model.log_det + 3 * math.log(alpha)
        assert updated.updates_since_refactor == model.updates_since_refactor + 1

    def test_axis_aligned_blend_example(self):
        model = GaussianModel(
            m=2,
            n=10,
            total=np.zeros(2),
            mu=np.zeros(2),
            s=1.0,
            root=stacked(np.eye(2), np.eye(2)),
            log_det=0.0,
            blend=CovBlend(0.8, 0.2),
        )
        updated = update_online(model, np.array([1.0, 0.0]))
        np.testing.assert_allclose(updated.cov, np.diag([1.0, 0.8]), rtol=1e-12)
        np.testing.assert_allclose(updated.mu, [1.0 / 11.0, 0.0], rtol=1e-12)

    @staticmethod
    def _check_blend_each_step(dim, n_static, steps, scales, offset):
        rng = np.random.default_rng(12)
        model = fit_static(rng.standard_normal((n_static, dim)) * scales + offset)
        direct = model.cov
        for _ in range(steps):
            x = rng.standard_normal(dim) * scales + offset
            d = x - model.mu
            expected = model.blend.alpha * model.cov + model.blend.beta * np.outer(d, d)
            direct = model.blend.alpha * direct + model.blend.beta * np.outer(d, d)
            model = update_online(model, x)
            err = np.linalg.norm(model.cov - expected) / np.linalg.norm(expected)
            assert err < 1e-9
        # No rebuild ran: the covariance, the lemma log-determinant and the
        # inverse were all carried by rank-one updates.
        assert model.updates_since_refactor == steps
        assert rel_err(model.cov, direct) < 1e-12
        assert abs(model.log_det - np.linalg.slogdet(model.cov)[1]) < 1e-9

    def test_blend_matches_direct_arithmetic_each_step(self):
        self._check_blend_each_step(3, 50, 50, np.ones(3), 0.0)

    def test_blend_matches_direct_arithmetic_wide_scales(self):
        self._check_blend_each_step(15, 16, 255, np.geomspace(0.1, 50.0, 15), 7.0)

    def test_drifted_inverse_is_rebuilt(self):
        rng = np.random.default_rng(14)
        model = fitted_model(rng, n=50, dim=4)
        model = update_online(model, rng.standard_normal(4))
        assert model.updates_since_refactor == 1
        drifted = replace(model, root=np.concatenate((model.root[:4], model.root[4:] * 1.01)))
        x = rng.standard_normal(4)
        updated = update_online(drifted, x)
        assert updated.updates_since_refactor == 0
        np.testing.assert_allclose(updated.cinv @ updated.cov, np.eye(4), atol=1e-9)
        # The rebuild blends the true residual, not the drifted pair's A B d.
        d = x - model.mu
        expected = model.blend.alpha * model.cov + model.blend.beta * np.outer(d, d)
        assert rel_err(updated.cov, expected) < 1e-12

    @pytest.mark.parametrize(
        "value,updates_to_rebuild",
        # 1e200 overflows q and the blend. 1e12 leaves the blend finite but
        # numerically rank one, even where the update is a periodic rebuild.
        [(1e200, 256), (1e12, 1)],
    )
    def test_point_that_would_break_the_model_is_refused(self, value, updates_to_rebuild):
        rng = np.random.default_rng(15)
        model = fitted_model(rng, n=100)
        model = replace(model, updates_since_refactor=REFACTOR_EVERY - updates_to_rebuild)
        assert update_online(model, np.full(3, value)) is model

    def test_rebuild_that_cannot_factorize_is_refused(self):
        # C = 1e40 * ones((2, 2)) has rank one. The blend with a point along
        # its column keeps rank one, and at that scale the absolute jitter of
        # 1e-10 is far below the QR's rank tolerance, so the periodic rebuild
        # fails.
        model = GaussianModel(
            m=2, n=100, total=np.zeros(2), mu=np.zeros(2), s=1.0,
            root=stacked(1e20 * np.array([[1.0, 0.0], [1.0, 0.0]]), np.eye(2) / 1e20), log_det=0.0,
            blend=derive_blend(100), updates_since_refactor=REFACTOR_EVERY - 1,
        )
        assert update_online(model, np.array([1e20, 1e20])) is model

    def test_non_finite_point_rejected(self):
        rng = np.random.default_rng(16)
        model = fitted_model(rng)
        for value in (math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                update_online(model, np.array([0.0, value, 0.0]))

    def test_huge_residual_blends_without_overflow(self):
        # At scale 1e150, q is about 3e10 for a residual of 1e155 per entry,
        # far below the swamping bound. d dᵀ would overflow, but the model
        # never forms it: A, B and the next score stay finite. At 1e160 the
        # rank-one term swamps C and the point is refused.
        rng = np.random.default_rng(17)
        model = fit_static(rng.standard_normal((100, 3)) * 1e150)
        assert update_online(model, model.mu + 1e160) is model
        updated = update_online(model, model.mu + 1e155)
        assert updated.n == model.n + 1 and updated.updates_since_refactor == 1
        assert np.isfinite(updated.root).all()
        assert not np.array_equal(updated.root[:3], model.root[:3])
        assert math.isfinite(score(updated, rng.standard_normal(3) * 1e150).mahalanobis_sq)

    def test_does_not_mutate_argument(self):
        rng = np.random.default_rng(19)
        model = fitted_model(rng, n=40, dim=4)
        model = replace(model, updates_since_refactor=REFACTOR_EVERY - 2)
        counters = []
        for x in (model.mu.copy(), *rng.standard_normal((3, 4))):  # blend, rebuild, blend, blend
            before = [a.copy() for a in (model.total, model.mu, model.root)]
            updated = update_online(model, x)
            for a, b in zip((model.total, model.mu, model.root), before):
                np.testing.assert_array_equal(a, b)
            counters.append(updated.updates_since_refactor)
            model = updated
        assert counters == [REFACTOR_EVERY - 1, 0, 1, 2]

    def test_streamed_mean_equals_batch_mean(self):
        rng = np.random.default_rng(21)
        data = rng.standard_normal((500, 4)) * 3.0 + 1.0
        model = fit_static(data[:50])
        for x in data[50:]:
            model = update_online(model, x)
        err = np.linalg.norm(model.mu - data.mean(axis=0)) / np.linalg.norm(data.mean(axis=0))
        assert err < 1e-9
        assert model.n == 500

    def test_long_run_inverse_consistency(self):
        rng = np.random.default_rng(77)
        model = fitted_model(rng, n=60, dim=5)
        for _ in range(500):
            model = update_online(model, rng.standard_normal(5))
            drift = np.abs(model.cinv @ model.cov - np.eye(5)).sum(axis=1).max()
            assert drift < 1e-4

    def test_periodic_refactor_counter(self):
        rng = np.random.default_rng(6)
        model = fitted_model(rng, n=40, dim=2)
        model = replace(model, updates_since_refactor=REFACTOR_EVERY - 8)
        seen_reset = False
        for _ in range(20):
            model = update_online(model, rng.standard_normal(2))
            assert model.updates_since_refactor < REFACTOR_EVERY
            seen_reset = seen_reset or model.updates_since_refactor == 0
        assert seen_reset

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        model = fitted_model(rng)
        with pytest.raises(InvalidInputError):
            update_online(model, np.zeros(5))


def rel_err(got, want):
    return float(np.abs(np.asarray(got) - want).max() / np.abs(want).max())


class TestUpdateMany:
    @pytest.mark.parametrize(
        "dim,n_static,n_online",
        [(1, 2, 300), (1, 40, 300), (15, 16, 400), (15, 4000, 4000)],
    )
    def test_equals_point_by_point_fold(self, dim, n_static, n_online):
        rng = np.random.default_rng(dim * 1000 + n_static)
        scales = np.geomspace(0.1, 50.0, dim)
        data = rng.standard_normal((n_static + n_online, dim)) * scales + 7.0
        model = fit_static(data[:n_static])
        xs = data[n_static:].copy()
        folded = model
        at_mean = 0
        for j, x in enumerate(xs):
            if j % 97 == 5:
                # Exactly at the running mean as update_online sees it:
                # d = 0, blended like any point, C' = alpha C.
                xs[j] = x = folded.mu
                at_mean += 1
            folded = update_online(folded, x)
        assert at_mean >= 3

        batched = update_many(model, xs)
        assert batched.n == folded.n == n_static + n_online
        np.testing.assert_array_equal(batched.mu, folded.mu)
        assert rel_err(batched.cov, folded.cov) < 1e-9
        assert rel_err(batched.cinv, folded.cinv) < 1e-9
        assert abs(batched.log_det - folded.log_det) < 1e-9 * abs(folded.log_det)
        assert batched.updates_since_refactor == 0

    def test_all_points_at_mean_decay_covariance(self):
        rng = np.random.default_rng(31)
        model = fitted_model(rng, n=30, dim=3)
        alpha = model.blend.alpha
        # After the first point the running mean moves by rounding only, so
        # the later residuals are tiny but nonzero; all five take the blend.
        batched = update_many(model, np.tile(model.mu, (5, 1)))
        assert batched.n == model.n + 5
        np.testing.assert_allclose(batched.mu, model.mu, rtol=1e-15)
        assert rel_err(batched.cov, alpha**5 * model.cov) < 1e-15
        assert batched.log_det == pytest.approx(model.log_det + 15 * math.log(alpha), abs=1e-12)

    def test_empty_batch_returns_model_unchanged(self):
        rng = np.random.default_rng(32)
        model = fitted_model(rng)
        assert update_many(model, np.empty((0, 3))) is model

    def test_does_not_mutate_argument(self):
        rng = np.random.default_rng(33)
        model = fitted_model(rng)
        before = model_to_text(model)
        update_many(model, rng.standard_normal((20, 3)))
        assert model_to_text(model) == before

    @pytest.mark.parametrize(
        "value,refused", [(1e8, False), (1e10, True), (1e12, True), (1e200, True)]
    )
    def test_refuses_what_update_online_refuses(self, value, refused):
        rng = np.random.default_rng(35)
        model = fitted_model(rng, n=100)
        xs = rng.standard_normal((300, 3))
        xs[110] = value
        folded = model
        for x in xs:
            folded = update_online(folded, x)
        batched = update_many(model, xs)
        assert batched.n == folded.n == model.n + 300 - refused
        np.testing.assert_array_equal(batched.mu, folded.mu)
        assert rel_err(batched.cov, folded.cov) < 1e-14

    @pytest.mark.parametrize(
        "xs",
        [np.zeros(3), np.zeros((4, 2)), np.zeros((2, 3, 1)), np.array([[0.0, np.nan, 0.0]])],
    )
    def test_invalid_batches_rejected(self, xs):
        rng = np.random.default_rng(34)
        model = fitted_model(rng)
        with pytest.raises(InvalidInputError):
            update_many(model, xs)


class TestBatchBuffers:
    """``fit_static`` and ``update_many`` build their QR rows in a buffer of
    their own: the caller's rows stay as they were, the model shares no
    memory with them, and one QR and one inverse run per call."""

    @staticmethod
    def check_untouched(xs, before, model):
        assert xs.tobytes() == before.tobytes()
        for arr in (model.total, model.mu, model.root):
            assert not np.shares_memory(arr, xs)
        # The sum owns its memory, so the model keeps no view of a buffer.
        assert model.total.flags.owndata

    @pytest.mark.parametrize("m", [1, 15])
    def test_fit_static_leaves_its_rows_alone(self, m):
        data = np.random.default_rng(m).standard_normal((3 * m + 20, m)) * 4.0 + 9.0
        assert data.dtype == np.float64 and data.flags.c_contiguous
        before = data.copy()
        self.check_untouched(data, before, fit_static(data))

    @pytest.mark.parametrize("refused", [False, True])
    @pytest.mark.parametrize("m", [1, 15])
    def test_update_many_leaves_its_rows_alone(self, m, refused):
        rng = np.random.default_rng(10 + m)
        model = fitted_model(rng, n=3 * m + 20, dim=m)
        xs = rng.standard_normal((200, m)) * 4.0 + 9.0
        if refused:
            xs[7] = 1e200
        assert xs.dtype == np.float64 and xs.flags.c_contiguous
        before = xs.copy()
        batched = update_many(model, xs)
        assert batched.n == model.n + 200 - refused
        self.check_untouched(xs, before, batched)

    @pytest.mark.parametrize("call", ["fit_static", "update_many"])
    def test_one_qr_and_one_inverse_per_call(self, monkeypatch, call):
        rng = np.random.default_rng(36)
        model = fitted_model(rng, n=100, dim=15)
        xs = rng.standard_normal((800, 15))
        counts = {"qr": 0, "inv": 0}

        def counting(name):
            kernel = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return kernel(*args, **kwargs)

            return wrapper

        for name in counts:
            monkeypatch.setattr(np.linalg, name, counting(name))
        new = fit_static(xs) if call == "fit_static" else update_many(model, xs)
        assert new.jitter_used == model.jitter_used == 0.0  # full rank
        assert counts == {"qr": 1, "inv": 1}


class TestScore:
    def test_does_not_mutate_argument(self):
        rng = np.random.default_rng(37)
        model = fitted_model(rng)
        before, mu = model_to_text(model), model.mu.copy()
        for x in (model.mu.copy(), rng.standard_normal(3), np.full(3, 1e200)):
            score(model, x)
            score(model, x, tau=1e-3)
        assert model_to_text(model) == before
        np.testing.assert_array_equal(model.mu, mu)

    def test_density_at_mean_univariate(self):
        model = fit_static(np.array([-1.0, 0.0, 1.0]))
        verdict = score(model, np.array([0.0]), tau=0.0044)
        assert verdict.density == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)
        assert verdict.mahalanobis_sq == 0.0
        assert not verdict.is_anomaly

    def test_mean_point_log_density_any_dimension(self):
        rng = np.random.default_rng(31)
        for dim in (1, 2, 5):
            model = fitted_model(rng, n=80, dim=dim)
            verdict = score(model, model.mu.copy(), tau=0.0)
            assert verdict.mahalanobis_sq == 0.0
            expected = -0.5 * (dim * math.log(2.0 * math.pi) + model.log_det)
            assert verdict.log_density == pytest.approx(expected, rel=1e-12)

    def test_matches_pewma_density_for_unit_variance(self):
        model = fit_static(np.array([-1.0, 0.0, 1.0]))
        params = PewmaParams()
        state = PewmaState(mean=0.0, var=1.0, t=100)
        for x in (-2.5, -0.3, 0.0, 1.7, 3.2):
            _, point = pewma_step(state, x, params)
            verdict = score(model, np.array([x]), tau=params.tau)
            assert verdict.density == pytest.approx(point.density, abs=1e-12)

    def test_density_integrates_to_one_univariate(self):
        rng = np.random.default_rng(41)
        model = fitted_model(rng, n=300, dim=1)
        sigma = math.sqrt(model.cov[0, 0])
        xs = np.linspace(model.mu[0] - 10 * sigma, model.mu[0] + 10 * sigma, 4001)
        dens = [score(model, np.array([x]), 0.0).density for x in xs]
        total = np.trapezoid(dens, xs)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_density_integrates_to_one_bivariate(self):
        model = fit_static(
            np.random.default_rng(43).multivariate_normal(
                [1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]], size=400
            )
        )
        sds = np.sqrt(np.diag(model.cov))
        xs = np.linspace(model.mu[0] - 8 * sds[0], model.mu[0] + 8 * sds[0], 161)
        ys = np.linspace(model.mu[1] - 8 * sds[1], model.mu[1] + 8 * sds[1], 161)
        grid = np.zeros((xs.size, ys.size))
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                grid[i, j] = score(model, np.array([x, y]), 0.0).density
        total = np.trapezoid(np.trapezoid(grid, ys, axis=1), xs)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_density_non_increasing_along_ray(self):
        rng = np.random.default_rng(53)
        model = fitted_model(rng, n=100, dim=4)
        direction = rng.standard_normal(4)
        densities = [
            score(model, model.mu + t * direction, 0.0).density for t in np.linspace(0, 5, 21)
        ]
        assert all(a >= b for a, b in zip(densities, densities[1:]))

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        model = fitted_model(rng)
        with pytest.raises(InvalidInputError):
            score(model, np.zeros(2), 0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, value):
        rng = np.random.default_rng(3)
        model = fitted_model(rng)
        with pytest.raises(InvalidInputError):
            score(model, np.array([value, 0.0, 0.0]))

    def test_overflowing_finite_point_is_flagged(self):
        # Strongly correlated coordinates give C⁻¹ entries of both signs, so
        # the terms of d C⁻¹ overflow to +inf and -inf and d² comes out NaN.
        rng = np.random.default_rng(8)
        data = rng.standard_normal((200, 2))
        model = fit_static(data @ np.array([[1.0, 1.0], [0.0, 0.1]]))
        verdict = score(model, np.array([1e307, 1e307]))
        assert verdict.mahalanobis_sq == math.inf
        assert verdict.is_anomaly
        assert score(model, np.array([1e307, 1e307]), tau=0.01).is_anomaly

    def test_negative_tau_rejected(self):
        rng = np.random.default_rng(3)
        model = fitted_model(rng)
        with pytest.raises(InvalidInputError):
            score(model, np.zeros(3), -0.1)

    def test_zero_tau_flags_nothing(self):
        rng = np.random.default_rng(5)
        model = fitted_model(rng)
        assert not score(model, np.full(3, 1e200), 0.0).is_anomaly
        assert score(model, np.full(3, 1e200)).is_anomaly

    @pytest.mark.parametrize("dim", [2, 15, 50])
    def test_verdicts_do_not_depend_on_scale(self, dim):
        # Scaling by 2^k is exact in float64, so the Mahalanobis distances,
        # and the automatic flags drawn from them, must be bit-equal at every
        # k, although log |C| moves by 2 k m log 2 and the density under- or
        # overflows.
        rng = np.random.default_rng(dim)
        data = rng.standard_normal((3 * dim, dim))
        points = rng.standard_normal((40, dim)) * np.linspace(0.05, 3.0, 40)[:, None]

        def verdicts(k):
            scale = 2.0**k
            model = fit_static(data * scale)
            out = []
            for x in points * scale:
                verdict = score(model, x)
                out.append((verdict.mahalanobis_sq, verdict.is_anomaly))
                model = update_online(model, x)
            return out

        base = verdicts(0)
        assert 0 < sum(flag for _, flag in base) < len(points)
        for k in (-160, -40, 40, 160):
            assert verdicts(k) == base, k


class TestAutoTau:
    def test_flags_exactly_beyond_three_sigma(self):
        rng = np.random.default_rng(61)
        model = fitted_model(rng, n=400, dim=2)
        cov = model.cov
        direction = rng.standard_normal(2)
        unit = direction / math.sqrt(direction @ np.linalg.inv(cov) @ direction)
        inside = score(model, model.mu + 2.99 * unit)
        outside = score(model, model.mu + 3.01 * unit)
        assert not inside.is_anomaly
        assert outside.is_anomaly


class TestCheckpoint:
    def test_round_trip_is_bit_stable(self):
        rng = np.random.default_rng(71)
        model = fitted_model(rng, n=90, dim=3)
        for _ in range(10):
            model = update_online(model, rng.standard_normal(3))
        text = model_to_text(model)
        loaded = model_from_text(text)[0]
        assert model_to_text(loaded) == text
        np.testing.assert_array_equal(loaded.mu, model.mu)
        np.testing.assert_array_equal(loaded.root, model.root)
        assert loaded.s == model.s
        assert loaded.m == model.m and loaded.n == model.n
        assert loaded.log_det == pytest.approx(model.log_det, rel=1e-12)

    def test_resume_continues_exactly(self):
        # The checkpoint holds the whole model: a stream resumed from it,
        # across a periodic rebuild, matches one that never stopped.
        rng = np.random.default_rng(72)
        model = fitted_model(rng, n=40, dim=4)
        for _ in range(100):
            model = update_online(model, rng.standard_normal(4) * 2.0 + 0.5)
        loaded = model_from_text(model_to_text(model))[0]
        assert loaded.blend == model.blend
        assert loaded.log_det == model.log_det
        assert loaded.updates_since_refactor == model.updates_since_refactor == 100
        for x in rng.standard_normal((300, 4)):
            assert score(loaded, x, 0.0).log_density == score(model, x, 0.0).log_density
            model, loaded = update_online(model, x), update_online(loaded, x)
        assert model_to_text(loaded) == model_to_text(model)

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(73)
        model = fitted_model(rng, n=50, dim=2)
        path = tmp_path / "model.ckpt"
        save_model(model, path, points=57)
        assert path.read_text(encoding="ascii") == model_to_text(model, 57)
        loaded, points = load_checkpoint(path)
        assert points == 57
        np.testing.assert_array_equal(loaded.root, model.root)
        assert model_from_text(model_to_text(model))[1] == model.n
        save_model(model, path, points=np.int64(57))  # any operator.index integer
        assert path.read_text(encoding="ascii") == model_to_text(model, 57)

    @pytest.mark.parametrize("points", [49, -1])
    def test_point_count_below_n_not_written(self, tmp_path, points):
        # The reader refuses fewer points than the model absorbed, so the
        # writer does not write them, and opens no file.
        model = fitted_model(np.random.default_rng(73), n=50, dim=2)
        with pytest.raises(InvalidInputError, match=f"point count {points} is below"):
            model_to_text(model, points)
        with pytest.raises(InvalidInputError, match=f"point count {points} is below"):
            save_model(model, tmp_path / "model.ckpt", points)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("points", [57.0, np.float64(57.0), "57"],
                             ids=["float", "np-float", "str"])
    def test_point_count_not_an_integer_not_written(self, tmp_path, points):
        # The reader refuses a count written as "57.0", so the writer does
        # not write one, and opens no file.
        model = fitted_model(np.random.default_rng(73), n=50, dim=2)
        with pytest.raises(InvalidInputError, match="point count .* is not an integer"):
            model_to_text(model, points)
        with pytest.raises(InvalidInputError, match="point count .* is not an integer"):
            save_model(model, tmp_path / "model.ckpt", points)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "newline,sep",
        [("\r\n", " "), ("\n\n \n", " "), ("\n", "\x0b"), ("\n", "\x0c"), ("\n", "\x1c")],
        ids=["crlf", "blank-lines", "vt", "ff", "fs"],
    )
    def test_line_endings_and_whitespace_load(self, tmp_path, newline, sep):
        # Lines end at "\n", as a file's do, not at every break of
        # str.splitlines: whitespace inside the sum row splits no line.
        model = fitted_model(np.random.default_rng(77), n=50, dim=3)
        text = model_to_text(model)
        lines = text.split("\n")
        lines[self.SUM_ROW] = lines[self.SUM_ROW].replace(" ", sep)
        edited = newline.join(lines)
        path = tmp_path / "model.ckpt"
        path.write_bytes(edited.encode("ascii"))
        for loaded, points in (model_from_text(edited), load_checkpoint(path)):
            assert model_to_text(loaded, points) == text

    def test_next_line_separator(self, tmp_path):
        # U+0085 is whitespace in a row of text, but not ASCII, so a file
        # holding it is refused.
        model = fitted_model(np.random.default_rng(77), n=50, dim=3)
        text = model_to_text(model)
        lines = text.split("\n")
        lines[self.SUM_ROW] = lines[self.SUM_ROW].replace(" ", "\x85")
        edited = "\n".join(lines)
        assert model_to_text(*model_from_text(edited)) == text
        path = tmp_path / "model.ckpt"
        path.write_text(edited, encoding="latin-1")
        with pytest.raises(InvalidInputError, match="malformed sum row"):
            load_checkpoint(path)

    def test_truncated_checkpoint_rejected(self):
        rng = np.random.default_rng(74)
        model = fitted_model(rng, n=50, dim=2)
        lines = model_to_text(model).splitlines()
        with pytest.raises(InvalidInputError):
            model_from_text("\n".join(lines[:-1]))[0]

    def test_garbage_header_rejected(self):
        with pytest.raises(InvalidInputError):
            model_from_text("not a header\n")[0]

    # Line layout: version, "m n", state, sum, then the rows of A, then of B.
    STATE_ROW, SUM_ROW, FIRST_ROOT_ROW = 2, 3, 4

    @staticmethod
    def corrupt_lines(edit):
        rng = np.random.default_rng(75)
        lines = model_to_text(fitted_model(rng, n=50, dim=3)).splitlines()
        edit(lines)
        return "\n".join(lines) + "\n"

    @staticmethod
    def set_entry(lines, row, col, value):
        tokens = lines[row].split()
        tokens[col] = value
        lines[row] = " ".join(tokens)

    @pytest.mark.parametrize(
        "header,match",
        [
            ("3", "malformed checkpoint header"),
            ("3 50 7", "malformed checkpoint header"),
            ("3 x", "malformed checkpoint header: '3 x'"),
            ("0 50", "out of range"),
            ("3 0", "out of range"),
        ],
    )
    def test_bad_header_rejected(self, header, match):
        text = self.corrupt_lines(lambda lines: lines.__setitem__(1, header))
        with pytest.raises(InvalidInputError, match=match):
            model_from_text(text)[0]

    def test_non_number_in_a_row_rejected(self):
        text = self.corrupt_lines(lambda lines: self.set_entry(lines, self.FIRST_ROOT_ROW, 0, "abc"))
        with pytest.raises(InvalidInputError, match="malformed square-root row"):
            model_from_text(text)[0]

    def test_row_of_the_wrong_length_rejected(self):
        def extend_sum(lines):
            lines[self.SUM_ROW] += " 0.5"

        with pytest.raises(InvalidInputError, match="sum row has 4 entries, expected 3"):
            model_from_text(self.corrupt_lines(extend_sum))[0]

    @pytest.mark.parametrize(
        "row,match",
        # A byte-order mark before the version line, or a non-ASCII character
        # in an entry of A.
        [(0, "does not start with"), (FIRST_ROOT_ROW, "malformed square-root row")],
    )
    def test_non_ascii_file_rejected(self, tmp_path, row, match):
        path = tmp_path / "model.ckpt"
        text = self.corrupt_lines(lambda lines: lines.__setitem__(row, "\ufeff" + lines[row]))
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidInputError, match=match):
            load_checkpoint(path)[0]

    def test_non_finite_inverse_rejected(self):
        text = self.corrupt_lines(lambda lines: self.set_entry(lines, -1, -1, "nan"))
        with pytest.raises(InvalidInputError, match="non-finite"):
            model_from_text(text)[0]

    def test_covariance_needing_jitter_rejected(self):
        # Two equal rows of A make C singular: its QR needs the jitter step.
        def repeat_row(lines):
            lines[self.FIRST_ROOT_ROW + 1] = lines[self.FIRST_ROOT_ROW]

        with pytest.raises(InvalidInputError, match="does not factorize"):
            model_from_text(self.corrupt_lines(repeat_row))[0]

    def test_negated_inverse_rejected(self):
        # Every d² = ‖B d‖² / s would be unchanged, but each blend would move
        # B away from A⁻¹ and corrupt the model.
        def negate_inverse(lines):
            for i in range(1, 4):
                lines[-i] = " ".join(repr(-float(tok)) for tok in lines[-i].split())

        with pytest.raises(InvalidInputError, match="does not invert"):
            model_from_text(self.corrupt_lines(negate_inverse))[0]

    def test_inverse_off_its_square_root_rejected(self):
        text = self.corrupt_lines(lambda lines: self.set_entry(lines, -3, 1, "0.123"))
        with pytest.raises(InvalidInputError, match="does not invert its square root"):
            model_from_text(text)[0]

    def test_missing_version_line_rejected(self):
        # A checkpoint without the version line, such as the older format of
        # factor rows, must never be read as a model.
        with pytest.raises(InvalidInputError, match="driftwatch-model 5"):
            model_from_text(self.corrupt_lines(lambda lines: lines.pop(0)))[0]

    def test_version_3_rejected(self):
        # Version 3 stored the mean where later versions store the sum; read
        # as a sum, that row would put the mean off by a factor of n.
        def as_version_3(lines):
            n = int(lines[1].split()[1])
            lines[0] = "driftwatch-model 3"
            mean = [float(v) / n for v in lines[self.SUM_ROW].split()]
            lines[self.SUM_ROW] = " ".join(f"{v:.17g}" for v in mean)

        with pytest.raises(InvalidInputError, match="driftwatch-model 5"):
            model_from_text(self.corrupt_lines(as_version_3))[0]

    def test_round_trip_after_fold_and_batch(self):
        rng = np.random.default_rng(76)
        model = fitted_model(rng, n=40, dim=3)
        for x in rng.standard_normal((20, 3)) * 2.0 + 0.5:
            model = update_online(model, x)
        model = update_many(model, rng.standard_normal((30, 3)) * 2.0 + 0.5)
        loaded = model_from_text(model_to_text(model))[0]
        assert loaded.n == model.n == 90
        np.testing.assert_array_equal(loaded.total, model.total)
        np.testing.assert_array_equal(loaded.mu, model.mu)

    def test_unknown_version_rejected(self):
        # Version 2 lacks the state line, so it cannot resume exactly.
        text = self.corrupt_lines(lambda lines: lines.__setitem__(0, "driftwatch-model 2"))
        with pytest.raises(InvalidInputError, match="driftwatch-model 5"):
            model_from_text(text)[0]

    @pytest.mark.parametrize(
        "col,value,match",
        # State columns: alpha, beta, log_det, updates_since_refactor,
        # jitter_used, s, points; the model holds n = 50 points.
        [
            (2, "nan", "non-finite"),
            (4, "inf", "non-finite"),
            (0, "0", "alpha"),
            (1, "-0.5", "beta"),
            (0, "2", "blend weights"),
            (1, "0.5", "blend weights"),
            (3, "256", "out of range"),
            (3, "-1", "out of range"),
            (3, "1.5", "malformed"),
            (4, "-1e-12", "out of range"),
            (2, "12.5", "log-determinant"),
            (5, "inf", "non-finite"),
            (5, "0", "out of range"),
            (5, "2", "log-determinant"),
            (6, "49", "out of range"),
            (6, "50.5", "malformed"),
        ],
    )
    def test_bad_state_rejected(self, col, value, match):
        text = self.corrupt_lines(lambda lines: self.set_entry(lines, self.STATE_ROW, col, value))
        with pytest.raises(InvalidInputError, match=match):
            model_from_text(text)[0]

    def test_overflowing_square_root_rejected(self):
        # A B is still I, but sqrt(s) Aᵀ overflows to inf: refused as a
        # square root that does not factorize, not with a RuntimeWarning.
        def scale(lines):
            self.set_entry(lines, self.STATE_ROW, 5, "1e300")
            for i in range(3):
                root, inverse = self.FIRST_ROOT_ROW + i, self.FIRST_ROOT_ROW + 3 + i
                lines[root] = " ".join(repr(float(tok) * 1e200) for tok in lines[root].split())
                lines[inverse] = " ".join(repr(float(tok) * 1e-200) for tok in lines[inverse].split())

        with pytest.raises(InvalidInputError, match="does not factorize"):
            model_from_text(self.corrupt_lines(scale))[0]

    def test_failed_save_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        # A write that fails part way, as on a full disk, leaves the file it
        # would have replaced as it was, and no temporary file beside it.
        rng = np.random.default_rng(79)
        model = fitted_model(rng, n=50, dim=3)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        monkeypatch.setattr(detector, "open", open_on_a_full_disk, raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_model(update_online(model, rng.standard_normal(3)), path)
        monkeypatch.undo()
        assert same_model(load_checkpoint(path)[0], model)
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_failed_replace_removes_the_temporary_file(self, tmp_path):
        # A directory at the path: the temporary file is written, the rename
        # over the directory fails, and the file is removed.
        model = fitted_model(np.random.default_rng(79), n=50, dim=3)
        (tmp_path / "model.ckpt").mkdir()
        with pytest.raises(IsADirectoryError):
            save_model(model, tmp_path / "model.ckpt")
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_state_with_a_missing_field_rejected(self):
        def drop_last(lines):
            lines[self.STATE_ROW] = lines[self.STATE_ROW].rsplit(" ", 1)[0]

        with pytest.raises(InvalidInputError, match="malformed checkpoint state"):
            model_from_text(self.corrupt_lines(drop_last))[0]


def open_on_a_full_disk(file, mode="r", **kwargs):
    """``open``, but a file opened for writing takes half of its first
    write and then fails as a full disk does."""
    handle = open(file, mode, **kwargs)
    if "w" in mode:
        def write(text):
            handle.buffer.write(text[: len(text) // 2].encode())
            raise OSError(errno.ENOSPC, "No space left on device")

        handle.write = write
    return handle


def same_model(one, other):
    """Every field bit-equal, arrays included."""
    return all(np.array_equal(getattr(one, f.name), getattr(other, f.name)) for f in fields(one))


def awkward_stream(kind, n, m, seed):
    """n points of dimension m that are finite but hard on the model."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, m))
    scales = np.logspace(-6, 6, m)
    if kind == "rotated-scales":
        return (z * scales) @ np.linalg.qr(rng.standard_normal((m, m)))[0]
    if kind == "collinear":
        return z[:, :1] + 1e-8 * z
    if kind == "heavy-tail":
        z[rng.random(n) < 0.05] *= 1e6
    elif kind == "offset":
        return 1e12 + z * scales
    elif kind == "spikes":  # after the static fit only; 1e200 is refused
        z[2 * m + 7 :: 41] *= 1e12
        z[2 * m + 20 :: 97] *= 1e200
    return z


class TestExactSymmetry:
    """The derived cov and cinv, which the harness and the criteria read,
    are exactly symmetric on every path that builds a model."""

    KINDS = ("iid", "rotated-scales", "collinear", "heavy-tail", "offset", "spikes")

    @staticmethod
    def assert_symmetric(model):
        assert np.array_equal(model.cov, model.cov.T)
        assert np.array_equal(model.cinv, model.cinv.T)

    @pytest.mark.parametrize("m", [3, 15, 50])
    def test_every_update_path_keeps_exact_symmetry(self, m):
        paths = set()
        for kind in self.KINDS:
            data = awkward_stream(kind, 2 * m + 300, m, seed=m)
            static, online = data[: 2 * m], data[2 * m :]
            model = fit_static(static)
            self.assert_symmetric(model)
            self.assert_symmetric(model_from_text(model_to_text(model))[0])
            gamma = model.blend.beta / model.blend.alpha
            for i, x in enumerate(online):
                if i == 5:  # x at the mean takes the blend too: C' = alpha C
                    x = model.mu.copy()
                elif i == 7:  # B off A⁻¹ by 1e-3: a drift rebuild
                    model = replace(model, root=np.concatenate((model.root[:m],
                                                                model.root[m:] * (1.0 + 1e-3))))
                elif i == 9:  # gamma q eps = 1e-2 along A's first column: a swamp rebuild
                    step = math.sqrt(model.s * 1e-2 / (gamma * FLOAT_EPS))
                    x = model.mu + step * model.root[:m, 0]
                new = update_online(model, x)
                if i == 5:
                    assert np.array_equal(new.root, model.root)
                    assert new.s == model.blend.alpha * model.s
                if new is model:
                    paths.add("refused")
                elif new.updates_since_refactor:
                    paths.add("rank-one")
                elif model.updates_since_refactor == REFACTOR_EVERY - 1:
                    paths.add("periodic rebuild")
                else:
                    d = x - model.mu
                    swamp = gamma * float(d @ model.cinv @ d) * FLOAT_EPS >= DRIFT_LIMIT
                    paths.add("swamp rebuild" if swamp else "drift rebuild")
                self.assert_symmetric(new)
                model = new
            batch = update_many(fit_static(static), online)
            self.assert_symmetric(batch)
            self.assert_symmetric(model_from_text(model_to_text(batch))[0])
        assert paths == {"refused", "rank-one", "periodic rebuild", "drift rebuild",
                         "swamp rebuild"}


class TestAdmission:
    """A point is refused, leaving the model as it was, or blended; the fold
    of ``update_online`` and ``update_many`` admit the same rows."""

    @pytest.mark.parametrize("m", [3, 15, 50])
    def test_fold_and_batch_admit_the_same_rows(self, m):
        for kind in TestExactSymmetry.KINDS:
            data = awkward_stream(kind, 2 * m + 600, m, seed=1)
            model = fit_static(data[: 2 * m])
            online = data[2 * m :]
            folded = model
            for x in online:
                new = update_online(folded, x)
                # Refused leaves the whole model, mean included, as it was;
                # admitted takes the blend, never the mean and count alone.
                assert new is folded or (new.n == folded.n + 1
                                         and new.root is not folded.root), kind
                folded = new
            batched = update_many(model, online)
            assert batched.n == folded.n, kind
            np.testing.assert_array_equal(batched.mu, folded.mu, err_msg=kind)


class TestOnePointBatch:
    """A point off the rank-one path is ``update_many`` of that one point: a
    rebuild gives the same model, field for field, and a refused point
    returns the model object itself."""

    @staticmethod
    def due(cause):
        rng = np.random.default_rng(81)
        model = update_online(fitted_model(rng, n=50, dim=4), rng.standard_normal(4))
        x = rng.standard_normal(4)
        if cause == "periodic":
            model = replace(model, updates_since_refactor=REFACTOR_EVERY - 1)
        elif cause == "drift":
            model = replace(model, root=np.concatenate((model.root[:4], model.root[4:] * 1.01)))
        else:  # gamma q eps = 1e-2 along A's first column
            gamma = model.blend.beta / model.blend.alpha
            x = model.mu + math.sqrt(model.s * 1e-2 / (gamma * FLOAT_EPS)) * model.root[:4, 0]
        return model, x

    @pytest.mark.parametrize("cause", ["periodic", "drift", "swamp"])
    def test_rebuild_is_the_batch_of_one(self, cause):
        model, x = self.due(cause)
        online = update_online(model, x)
        assert online.n == model.n + 1 and online.updates_since_refactor == 0
        assert same_model(online, update_many(model, x[None]))

    @pytest.mark.parametrize("cause", ["overflowing q", "swamped", "overflowing sum"])
    def test_refused_point_returns_the_model(self, cause):
        model = fitted_model(np.random.default_rng(82), n=50, dim=4)
        if cause == "overflowing q":
            x = np.full(4, 1e200)
        elif cause == "swamped":
            x = np.full(4, 1e12)
        else:  # x at the mean of a model whose running sum is at the float64 limit
            total = np.full(4, np.finfo(np.float64).max)
            model = replace(model, total=total, mu=total / model.n)
            x = model.mu.copy()
        assert update_online(model, x) is model
        assert update_many(model, x[None]) is model

    def test_unfactorizable_rebuild_returns_the_model(self):
        # The rank-one C of TestUpdateOnline's unfactorizable rebuild: the
        # batch of one raises, and update_online refuses the point.
        model = GaussianModel(
            m=2, n=100, total=np.zeros(2), mu=np.zeros(2), s=1.0,
            root=stacked(1e20 * np.array([[1.0, 0.0], [1.0, 0.0]]), np.eye(2) / 1e20), log_det=0.0,
            blend=derive_blend(100), updates_since_refactor=REFACTOR_EVERY - 1,
        )
        x = np.array([1e20, 1e20])
        with pytest.raises(InvalidInputError, match="rank-deficient even with jitter"):
            update_many(model, x[None])
        assert update_online(model, x) is model

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_point_raises_as_a_point(self, value):
        model = fitted_model(np.random.default_rng(83), n=50, dim=4)
        with pytest.raises(InvalidInputError, match="point contains non-finite entries"):
            update_online(model, np.array([0.0, value, 0.0, 0.0]))


class TestDriftGuard:
    """The drift test of ``update_online``, ‖A u - d‖₂ <= ``DRIFT_LIMIT`` ‖d‖₂,
    still fires on a real stream, and holds where ‖d‖₂² overflows."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_fires_on_rotated_scales(self, monkeypatch, seed):
        # A one-row update_many call from update_online that no other rule
        # explains: not periodic, not swamping, and the sum stays finite.
        data = awkward_stream("rotated-scales", 5100, 3, seed)
        rebuild_calls = []

        def spy(model, xs):
            rebuild_calls.append((model, xs))
            return batch(model, xs)

        batch = detector.update_many
        monkeypatch.setattr(detector, "update_many", spy)
        model = fit_static(data[:6])
        drift = 0
        for x in data[6:]:
            rebuild_calls.clear()
            new = update_online(model, x)
            if rebuild_calls:
                (called, xs), = rebuild_calls
                assert called is model and xs.shape == (1, 3)
                gamma = model.blend.beta / model.blend.alpha
                u = (x - model.mu).dot(model.root[3:])
                q = float(u.dot(u)) / model.s
                drift += (model.updates_since_refactor + 1 < REFACTOR_EVERY
                          and gamma * q * FLOAT_EPS < DRIFT_LIMIT
                          and bool(np.isfinite(model.total + x).all()))
            model = new
        assert drift >= 1

    def test_fires_where_the_residual_norm_overflows(self):
        # At scale 1e150 a residual of 1e155 per entry takes the rank-one
        # step (TestUpdateOnline), though ‖d‖₂² overflows; with B off A⁻¹
        # by 1% the same point is a drift rebuild.
        rng = np.random.default_rng(17)
        model = fit_static(rng.standard_normal((100, 3)) * 1e150)
        drifted = replace(model, root=np.concatenate((model.root[:3], model.root[3:] * 1.01)))
        x = model.mu + 1e155
        assert update_online(model, x).updates_since_refactor == 1
        updated = update_online(drifted, x)
        assert updated.n == model.n + 1 and updated.updates_since_refactor == 0


class TestRunningSum:
    """The model carries the sum of its points and derives mu = total / n.
    That mean is as accurate as the recurrence mu' = (n mu + x) / (n + 1)
    it replaced, and ``update_many``'s prefix sum is the fold's, bit for bit."""

    @staticmethod
    def recurrence_mean(data, n_static):
        mu, n = data[:n_static].mean(axis=0), n_static
        for x in data[n_static:]:
            mu = (n * mu + x) / (n + 1)
            n += 1
        return mu

    def test_static_fit_mean_is_the_batch_mean(self):
        data = np.random.default_rng(78).standard_normal((500, 4)) * 3.0 + 1e6
        model = fit_static(data)
        np.testing.assert_array_equal(model.total, data.sum(axis=0))
        np.testing.assert_array_equal(model.mu, data.mean(axis=0))

    @pytest.mark.parametrize("case", ["offset 1e12", "criterion 9"])
    def test_mean_as_accurate_as_the_recurrence(self, case):
        if case == "offset 1e12":
            data = np.random.default_rng(0).standard_normal((20_000, 3)) + 1e12
        else:  # the stream of test_acceptance's criterion 9
            data = np.random.default_rng(1009).standard_normal((10_000, 3)) * 4.0 - 2.0
        n_static = 100
        start = fit_static(data[:n_static])
        folded = start
        for x in data[n_static:]:
            folded = update_online(folded, x)
        batched = update_many(start, data[n_static:])
        exact = np.array([math.fsum(col) / len(col) for col in data.T])
        reference = np.abs(self.recurrence_mean(data, n_static) - exact).max()
        assert folded.n == batched.n == len(data)
        for model in (folded, batched):
            assert np.abs(model.mu - exact).max() <= 2.0 * reference
        np.testing.assert_array_equal(batched.total, folded.total)
        np.testing.assert_array_equal(batched.mu, folded.mu)


    def test_overflowing_sum_is_refused(self):
        # The square root fits rows near 1.7e306, but their running sum
        # reaches the float64 limit a few updates later; the points that
        # would make it overflow are refused, and the mean stays finite.
        data = 1.7e306 + 1e305 * np.random.default_rng(0).standard_normal((400, 3))
        start = fit_static(data[:100])
        folded, flagged = start, 0
        for x in data[100:]:
            flagged += score(folded, x).is_anomaly
            folded = update_online(folded, x)
        batched = update_many(start, data[100:])
        assert 100 < folded.n == batched.n < 400
        assert np.isfinite(folded.mu).all()
        np.testing.assert_array_equal(batched.total, folded.total)
        np.testing.assert_array_equal(batched.mu, folded.mu)
        assert flagged <= 30
        # Once the sum is at the limit, every such row is refused.
        assert update_online(folded, data[-1]) is folded
        assert update_many(batched, data[100:]) is batched


class TestIllConditionedStreams:
    """Streams that are finite but hard on the model: columns scaled from
    1e-6 to 1e6 and rotated, columns collinear to 1e-8, heavy tails, a
    1e12 offset and huge spikes. Carrying C and C⁻¹ squared their condition
    number: every update on rotated scales was an early O(m³) rebuild, and
    the checkpoint reader refused most checkpoints of collinear streams."""

    @staticmethod
    def stream(kind, m, updates):
        static = 2 * m if kind == "spikes" else 100
        data = awkward_stream(kind, static + updates, m, seed=1)
        return data[:static], data[static:]

    @pytest.mark.parametrize("m", [3, 15, 50])
    def test_no_early_rebuild_and_every_checkpoint_resumes(self, m):
        for kind in TestExactSymmetry.KINDS:
            static, online = self.stream(kind, m, 600)
            model = fit_static(static)
            for i, x in enumerate(online):
                new = update_online(model, x)
                if new is not model and new.updates_since_refactor == 0:
                    assert model.updates_since_refactor == REFACTOR_EVERY - 1, (kind, i)
                if i % 60 == 0:  # a sample of the models, to keep the sweep short
                    loaded = model_from_text(model_to_text(model))[0]
                    assert same_model(loaded, model), (kind, i)
                    assert score(loaded, x) == score(model, x), (kind, i)
                    assert same_model(update_online(loaded, x), new), (kind, i)
                model = new

    @pytest.mark.parametrize("m", [3, 15])
    @pytest.mark.parametrize("kind,bound", [("iid", 1e-12), ("rotated-scales", 1e-3),
                                            ("collinear", 1e-3)])
    def test_mahalanobis_matches_an_exact_replay(self, kind, bound, m):
        # The blend recurrence replayed at 60 digits from the same float64
        # rows and weights, then d² of 20 held-out rows by an exact solve.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        static, online = self.stream(kind, m, 220)
        online, held = online[:200], online[200:]
        model = fit_static(static)
        for x in online:
            model = update_online(model, x)
        assert model.n == len(static) + len(online)

        to_mp = lambda rows: [[mp.mpf(float(v)) for v in row] for row in rows]
        rows = to_mp(static)
        n = len(rows)
        total = [mp.fsum(col) for col in zip(*rows)]
        mu = [t / n for t in total]
        c = [[mp.fsum((row[i] - mu[i]) * (row[j] - mu[j]) for row in rows) / (n - 1)
              for j in range(m)] for i in range(m)]
        alpha, beta = mp.mpf(model.blend.alpha), mp.mpf(model.blend.beta)
        for row in to_mp(online):
            d = [v - u for v, u in zip(row, mu)]
            c = [[alpha * cij + beta * di * dj for cij, dj in zip(ci, d)] for ci, di in zip(c, d)]
            n += 1
            total = [t + v for t, v in zip(total, row)]
            mu = [t / n for t in total]
        cinv = mp.inverse(mp.matrix(c)).tolist()
        for x, row in zip(held, to_mp(held)):
            d = [v - u for v, u in zip(row, mu)]
            exact = mp.fsum(di * mp.fsum(cij * dj for cij, dj in zip(ci, d))
                            for ci, di in zip(cinv, d))
            got = score(model, x).mahalanobis_sq
            assert abs(got - exact) <= bound * exact, (kind, m, float(exact))

    def test_per_point_work_calls_no_cubic_kernel(self, monkeypatch):
        # Between periodic rebuilds, score and update_online are O(m²): no
        # factorization, inverse, solve or determinant runs.
        rng = np.random.default_rng(79)
        model = fitted_model(rng, n=200, dim=50)

        def cubic(*args, **kwargs):
            raise AssertionError("an O(m³) kernel ran")

        for name in ("qr", "inv", "cholesky", "solve", "slogdet"):
            monkeypatch.setattr(np.linalg, name, cubic)
        for x in rng.standard_normal((REFACTOR_EVERY - 1, 50)):
            score(model, x)
            model = update_online(model, x)
        assert model.updates_since_refactor == REFACTOR_EVERY - 1
