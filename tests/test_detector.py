import io
import math
from dataclasses import replace

import numpy as np
import pytest

from driftwatch.detector import (
    REFACTOR_EVERY,
    GaussianModel,
    derive_blend,
    fit_static,
    load_model,
    model_to_text,
    save_model,
    score,
    update_many,
    update_online,
)
from driftwatch.errors import InvalidInputError
from driftwatch.linalg import CovBlend, sherman_morrison_update
from driftwatch.pewma import PewmaParams, PewmaState, pewma_step


def fitted_model(rng, n=200, dim=3):
    return fit_static(rng.standard_normal((n, dim)))


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
    def test_point_at_mean_touches_only_count(self):
        rng = np.random.default_rng(1)
        model = fitted_model(rng)
        updated = update_online(model, model.mu.copy())
        assert updated.n == model.n + 1
        np.testing.assert_allclose(updated.mu, model.mu, rtol=1e-15)
        np.testing.assert_array_equal(updated.cov, model.cov)
        np.testing.assert_array_equal(updated.cinv, model.cinv)

    def test_axis_aligned_blend_example(self):
        model = GaussianModel(
            m=2,
            n=10,
            mu=np.zeros(2),
            cov=np.eye(2),
            cinv=np.eye(2),
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
        updated = update_online(replace(model, cinv=model.cinv * 1.01), rng.standard_normal(4))
        assert updated.updates_since_refactor == 0
        np.testing.assert_allclose(updated.cinv @ updated.cov, np.eye(4), atol=1e-9)

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

    def test_non_finite_point_rejected(self):
        rng = np.random.default_rng(16)
        model = fitted_model(rng)
        for value in (math.nan, math.inf):
            with pytest.raises(InvalidInputError):
                update_online(model, np.array([0.0, value, 0.0]))

    def test_blend_that_overflows_is_refused(self):
        # At scale 1e150, q is about 3e10 for a residual of 1e155 per entry,
        # far below the swamping bound, but d dᵀ overflows; 1e153 fits.
        rng = np.random.default_rng(17)
        model = fit_static(rng.standard_normal((100, 3)) * 1e150)
        assert update_online(model, model.mu + 1e155) is model
        updated = update_online(model, model.mu + 1e153)
        assert updated.n == model.n + 1
        assert np.isfinite(updated.cov).all()
        assert not np.array_equal(updated.cov, model.cov)

    @pytest.mark.parametrize("dim", [2, 15, 50])
    def test_inverse_is_the_public_kernel(self, dim):
        # Without a rebuild, the inverse is the public Sherman-Morrison
        # kernel's, bit for bit: both run the same core.
        rng = np.random.default_rng(18)
        model = fitted_model(rng, n=2 * dim + 10, dim=dim)
        checked = 0
        for _ in range(300):
            x = rng.standard_normal(dim) * 2.0
            updated = update_online(model, x)
            if updated.updates_since_refactor == model.updates_since_refactor + 1:
                expected = sherman_morrison_update(model.cinv, x - model.mu, model.blend)
                np.testing.assert_array_equal(updated.cinv, expected)
                checked += 1
            model = updated
        assert checked >= 290

    def test_does_not_mutate_argument(self):
        rng = np.random.default_rng(19)
        model = fitted_model(rng, n=40, dim=4)
        model = replace(model, updates_since_refactor=REFACTOR_EVERY - 2)
        for x in (model.mu.copy(), *rng.standard_normal((3, 4))):  # skip, update, rebuild, update
            before = [a.copy() for a in (model.mu, model.cov, model.cinv)]
            updated = update_online(model, x)
            for a, b in zip((model.mu, model.cov, model.cinv), before):
                np.testing.assert_array_equal(a, b)
            model = updated
        assert model.updates_since_refactor == 1

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
                # Exactly at the running mean as update_online sees it: a
                # degenerate direction that moves only the mean and count.
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

    def test_all_points_at_mean_keep_covariance(self):
        rng = np.random.default_rng(31)
        model = fitted_model(rng, n=30, dim=3)
        # After the first point the running mean moves by rounding only, so
        # the later residuals are tiny but nonzero and whiten below 1e-30.
        batched = update_many(model, np.tile(model.mu, (5, 1)))
        assert batched.n == model.n + 5
        np.testing.assert_allclose(batched.mu, model.mu, rtol=1e-15)
        assert rel_err(batched.cov, model.cov) < 1e-12

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


class TestScore:
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
        state = PewmaState(mean=0.0, var=1.0, t=100, sigma_hat=1.0)
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
        loaded = load_model(io.StringIO(text))
        assert model_to_text(loaded) == text
        np.testing.assert_array_equal(loaded.mu, model.mu)
        np.testing.assert_array_equal(loaded.cov, model.cov)
        np.testing.assert_array_equal(loaded.cinv, model.cinv)
        assert loaded.m == model.m and loaded.n == model.n
        assert loaded.log_det == pytest.approx(model.log_det, rel=1e-12)

    def test_resume_continues_exactly(self):
        # The checkpoint holds the whole model: a stream resumed from it,
        # across a periodic rebuild, matches one that never stopped.
        rng = np.random.default_rng(72)
        model = fitted_model(rng, n=40, dim=4)
        for _ in range(100):
            model = update_online(model, rng.standard_normal(4) * 2.0 + 0.5)
        loaded = load_model(io.StringIO(model_to_text(model)))
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
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.cov, model.cov)

    def test_truncated_checkpoint_rejected(self):
        rng = np.random.default_rng(74)
        model = fitted_model(rng, n=50, dim=2)
        lines = model_to_text(model).splitlines()
        with pytest.raises(InvalidInputError):
            load_model(io.StringIO("\n".join(lines[:-1])))

    def test_garbage_header_rejected(self):
        with pytest.raises(InvalidInputError):
            load_model(io.StringIO("not a header\n"))

    # Line layout: version, "m n", state, mean, then the covariance rows.
    STATE_ROW, FIRST_COV_ROW = 2, 4

    @staticmethod
    def corrupt_lines(edit):
        rng = np.random.default_rng(75)
        lines = model_to_text(fitted_model(rng, n=50, dim=3)).splitlines()
        edit(lines)
        return io.StringIO("\n".join(lines) + "\n")

    @staticmethod
    def set_entry(lines, row, col, value):
        tokens = lines[row].split()
        tokens[col] = value
        lines[row] = " ".join(tokens)

    def test_non_finite_inverse_rejected(self):
        text = self.corrupt_lines(lambda lines: self.set_entry(lines, -1, -1, "nan"))
        with pytest.raises(InvalidInputError, match="non-finite"):
            load_model(text)

    def test_asymmetric_covariance_rejected(self):
        text = self.corrupt_lines(lambda lines: self.set_entry(lines, self.FIRST_COV_ROW, 1, "0.123"))
        with pytest.raises(InvalidInputError, match="not symmetric"):
            load_model(text)

    def test_covariance_needing_jitter_rejected(self):
        def negate_diagonal(lines):
            for i in range(3):
                self.set_entry(lines, self.FIRST_COV_ROW + i, i, "-1")

        with pytest.raises(InvalidInputError, match="does not factorize"):
            load_model(self.corrupt_lines(negate_diagonal))

    def test_negated_inverse_rejected(self):
        # Every dᵀC⁻¹d would be negative, so every later point would be
        # skipped as degenerate and detection would silently stop.
        def negate_inverse(lines):
            for i in range(1, 4):
                lines[-i] = " ".join(repr(-float(tok)) for tok in lines[-i].split())

        with pytest.raises(InvalidInputError, match="non-positive diagonal"):
            load_model(self.corrupt_lines(negate_inverse))

    def test_asymmetric_inverse_rejected(self):
        text = self.corrupt_lines(lambda lines: self.set_entry(lines, -3, 1, "0.123"))
        with pytest.raises(InvalidInputError, match="inverse is not symmetric"):
            load_model(text)

    def test_missing_version_line_rejected(self):
        # A checkpoint without the version line, such as the older format of
        # factor rows, must never be read as a covariance.
        with pytest.raises(InvalidInputError, match="driftwatch-model 3"):
            load_model(self.corrupt_lines(lambda lines: lines.pop(0)))

    def test_unknown_version_rejected(self):
        # Version 2 lacks the state line, so it cannot resume exactly.
        text = self.corrupt_lines(lambda lines: lines.__setitem__(0, "driftwatch-model 2"))
        with pytest.raises(InvalidInputError, match="driftwatch-model 3"):
            load_model(text)

    @pytest.mark.parametrize(
        "col,value,match",
        # State columns: alpha, beta, log_det, updates_since_refactor, jitter_used.
        [
            (2, "nan", "non-finite"),
            (4, "inf", "non-finite"),
            (0, "0", "alpha"),
            (1, "-0.5", "beta"),
            (3, "256", "out of range"),
            (3, "-1", "out of range"),
            (3, "1.5", "malformed"),
            (4, "-1e-12", "out of range"),
            (2, "12.5", "log-determinant"),
        ],
    )
    def test_bad_state_rejected(self, col, value, match):
        text = self.corrupt_lines(lambda lines: self.set_entry(lines, self.STATE_ROW, col, value))
        with pytest.raises(InvalidInputError, match=match):
            load_model(text)

    def test_state_with_a_missing_field_rejected(self):
        def drop_last(lines):
            lines[self.STATE_ROW] = lines[self.STATE_ROW].rsplit(" ", 1)[0]

        with pytest.raises(InvalidInputError, match="malformed checkpoint state"):
            load_model(self.corrupt_lines(drop_last))


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
    """cov and cinv stay exactly symmetric on every path that builds a
    model; ``_sherman_morrison`` relies on it, and ``load_model`` refuses
    a checkpoint whose matrices are not."""

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
            self.assert_symmetric(load_model(io.StringIO(model_to_text(model))))
            for i, x in enumerate(online):
                new = update_online(model, model.mu.copy() if i == 5 else x)
                if new is model:
                    paths.add("refused")
                elif new.cov is model.cov:
                    paths.add("degenerate")
                elif new.updates_since_refactor:
                    paths.add("rank-one")
                elif model.updates_since_refactor == REFACTOR_EVERY - 1:
                    paths.add("periodic rebuild")
                else:
                    paths.add("drift rebuild")
                self.assert_symmetric(new)
                model = new
            batch = update_many(fit_static(static), online)
            self.assert_symmetric(batch)
            self.assert_symmetric(load_model(io.StringIO(model_to_text(batch))))
        assert paths == {"refused", "degenerate", "rank-one", "periodic rebuild", "drift rebuild"}
