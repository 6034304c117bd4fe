import io
import math
from dataclasses import replace

import numpy as np
import pytest
from test_detector import awkward_stream

from driftwatch.detector import fit_static, model_to_text, update_many, update_online
from driftwatch.errors import InvalidInputError
from driftwatch.harness import (
    CSV_HEADER,
    AadReport,
    ShiftSpec,
    _prefix_fits,
    aad,
    gen_random_stream,
    gen_shift_stream,
    run_experiment_1,
    run_experiment_2,
    write_reports_csv,
)


def oracle_aads(data, mode, n_segments=5):
    """From-scratch protocol: direct matrix blends, no incremental kernels."""
    data = np.asarray(data, dtype=np.float64)
    n_total = data.shape[0]
    base = n_total // n_segments
    bounds = [base * i for i in range(n_segments)] + [n_total]
    segments = [data[bounds[i] : bounds[i + 1]] for i in range(n_segments)]
    out = []
    for sc in range(1, n_segments):
        static = np.concatenate(segments[:sc])
        n = static.shape[0]
        mu = static.mean(axis=0)
        cov = np.atleast_2d(np.cov(static, rowvar=False, ddof=1))
        c_cov = 2.0 / (n**2 + 6.0)
        a, b = 1.0 - c_cov, c_cov
        online = segments[sc] if mode == 1 else np.concatenate(segments[sc:])
        for x in online:
            d = x - mu
            cov = a * cov + b * np.outer(d, d)
            mu = (n * mu + x) / (n + 1)
            n += 1
        consumed = np.concatenate(segments[: sc + 1]) if mode == 1 else data
        truth = np.atleast_2d(np.cov(consumed, rowvar=False, ddof=1))
        mask = np.abs(truth.ravel()) > 1e-12
        resid = np.abs((cov.ravel()[mask] - truth.ravel()[mask]) / truth.ravel()[mask])
        out.append(float(resid.mean()))
    return out


def fit_and_update(data, static_count, to_end):
    """The online model of one report, from scratch, and the end of the
    points it consumed."""
    base = data.shape[0] // 5
    split = base * static_count
    end = data.shape[0] if to_end or static_count == 4 else split + base
    return update_many(fit_static(data[:split]), data[split:end]), end


class TestAad:
    def test_zero_residual(self):
        truth = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert aad(truth.copy(), truth) == 0.0

    def test_uniform_relative_error(self):
        rng = np.random.default_rng(1)
        truth = rng.uniform(0.5, 2.0, size=(4, 4))
        assert aad(1.1 * truth, truth) == pytest.approx(0.1, rel=1e-12)

    def test_single_entry(self):
        assert aad(np.array([[2.0]]), np.array([[4.0]])) == pytest.approx(0.5, rel=1e-15)

    def test_scale_covariant_in_residual(self):
        rng = np.random.default_rng(2)
        truth = rng.uniform(0.1, 3.0, size=(3, 5))
        for c in (-0.7, 0.25, 2.0):
            assert aad(truth + c * truth, truth) == pytest.approx(abs(c), rel=1e-12)

    def test_near_zero_truth_entries_skipped(self):
        truth = np.array([1.0, 0.0, 2.0])
        predicted = np.array([1.1, 123.0, 2.2])
        assert aad(predicted, truth) == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize("zeros", [0, 1, 7])
    def test_equals_the_masked_mean(self, zeros):
        rng = np.random.default_rng(zeros)
        truth = rng.uniform(-3.0, 3.0, size=(6, 5))
        truth.flat[rng.permutation(truth.size)[:zeros]] = rng.choice([0.0, 1e-13, -1e-12], zeros)
        predicted = truth + rng.standard_normal(truth.shape) * 0.1
        p, y = predicted.ravel(), truth.ravel()
        mask = np.abs(y) > 1e-12
        assert mask.sum() == y.size - zeros
        assert aad(predicted, truth) == float(np.mean(np.abs((p[mask] - y[mask]) / y[mask])))

    def test_all_entries_skipped_raises(self):
        with pytest.raises(InvalidInputError, match="within 1e-12 of zero"):
            aad(np.ones(3), np.zeros(3))
        with pytest.raises(InvalidInputError, match="within 1e-12 of zero"):
            aad(np.ones(3), np.array([1e-12, -1e-12, 5e-13]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(InvalidInputError):
            aad(np.ones((2, 2)), np.ones((2, 3)))


class TestExperiments:
    def test_matches_oracle_experiment_1(self):
        data = gen_random_stream(50, 2, seed=101)
        reports = run_experiment_1(data)
        expected = oracle_aads(data, mode=1)
        for report, value in zip(reports, expected):
            assert report.aad == pytest.approx(value, abs=1e-10)

    def test_matches_oracle_experiment_2(self):
        data = gen_random_stream(50, 2, seed=102)
        reports = run_experiment_2(data)
        expected = oracle_aads(data, mode=2)
        for report, value in zip(reports, expected):
            assert report.aad == pytest.approx(value, abs=1e-10)

    def test_matches_oracle_across_dims_and_lengths(self):
        rng = np.random.default_rng(7)
        for dim in (1, 3, 4):
            count = int(rng.integers(12 * dim + 10, 100))
            data = gen_random_stream(count, dim, seed=dim)
            for runner, mode in ((run_experiment_1, 1), (run_experiment_2, 2)):
                reports = runner(data)
                for report, value in zip(reports, oracle_aads(data, mode=mode)):
                    assert report.aad == pytest.approx(value, abs=1e-10)

    def test_matches_point_by_point_updates(self):
        # The protocol absorbs each online segment with update_many; folding
        # update_online over the same rows must give the same reports.
        data = gen_random_stream(600, 15, seed=104)
        bounds = [120 * i for i in range(5)] + [600]
        for runner, mode in ((run_experiment_1, 1), (run_experiment_2, 2)):
            for report in runner(data):
                sc = report.static_count
                model = fit_static(data[: bounds[sc]])
                end = bounds[sc + 1] if mode == 1 else 600
                online = data[bounds[sc] : end]
                for x in online:
                    model = update_online(model, x)
                consumed = data[:end]
                truth = np.cov(consumed, rowvar=False, ddof=1)
                assert report.points_evaluated == online.shape[0]
                assert report.aad == pytest.approx(aad(model.cov, truth), rel=1e-9)
                assert report.aad_inverse == pytest.approx(
                    aad(model.cinv, np.linalg.inv(truth)), rel=1e-9
                )

    def test_more_static_data_less_error(self):
        data = gen_random_stream(5000, 4, seed=11)
        reports = run_experiment_1(data)
        assert reports[3].aad < reports[0].aad

    def test_duplicated_segments_give_near_zero_error(self):
        # Segments 2..5 copy segment 1: the online phase blends statistics
        # that match the static fit, so only the nearly-identical batch
        # normalization (1/(n-1) across different n) separates the two.
        segment = gen_random_stream(1000, 3, seed=13)
        data = np.tile(segment, (5, 1))
        for runner, mode in ((run_experiment_1, 1), (run_experiment_2, 2)):
            reports = runner(data)
            for report, value in zip(reports, oracle_aads(data, mode=mode)):
                assert report.aad == pytest.approx(value, abs=1e-10)
            assert all(r.aad < 2e-3 for r in reports)

    def test_protocols_coincide_at_largest_prefix(self):
        data = gen_random_stream(60, 2, seed=17)
        last_1 = run_experiment_1(data)[-1]
        last_2 = run_experiment_2(data)[-1]
        assert last_1.static_count == last_2.static_count == 4
        assert last_1.aad == last_2.aad
        assert last_1.points_evaluated == last_2.points_evaluated

    def test_deterministic_reports(self):
        data = gen_random_stream(60, 2, seed=19)
        a = [r.aad for r in run_experiment_1(data)]
        b = [r.aad for r in run_experiment_1(data)]
        assert a == b

    def test_insufficient_data(self):
        with pytest.raises(InvalidInputError, match="cannot fill"):
            run_experiment_1(np.zeros((4, 2)))

    @pytest.mark.parametrize("runner", [run_experiment_1, run_experiment_2])
    def test_each_segment_must_support_a_fit(self, runner):
        # The first static prefix is one segment of n // 5 rows, and a fit
        # at dimension m needs m + 1 of them.
        with pytest.raises(InvalidInputError, match="79 points cannot fill 5 segments of 16 rows"):
            runner(gen_random_stream(79, 15, seed=1))
        assert len(runner(gen_random_stream(80, 15, seed=1))) == 4

    def test_zero_columns_raise_the_package_error(self):
        with pytest.raises(InvalidInputError, match="with columns"):
            run_experiment_1(np.zeros((100, 0)))

    def test_one_dimensional_data_is_one_column(self):
        data = gen_random_stream(60, 1, seed=2)
        untimed = lambda reports: [replace(r, elapsed=0.0) for r in reports]
        assert untimed(run_experiment_1(data[:, 0])) == untimed(run_experiment_1(data))


    @pytest.mark.parametrize("runner,end", [(run_experiment_1, 400), (run_experiment_2, 1000)])
    def test_singular_batch_covariance_raises_the_package_error(self, runner, end):
        # Column 0 is 1e12 + 1e-6 z, which rounds to the constant 1e12, so
        # every batch covariance is singular; the first one scored against
        # is named.
        with pytest.raises(InvalidInputError, match=f"of the first {end} points is singular"):
            runner(awkward_stream("offset", 1000, 3, seed=3))

    @pytest.mark.parametrize("runner", [run_experiment_1, run_experiment_2])
    def test_ill_conditioned_stream_gives_finite_reports(self, runner):
        reports = runner(awkward_stream("rotated-scales", 1000, 3, seed=3))
        assert len(reports) == 4
        assert all(math.isfinite(r.aad) and math.isfinite(r.aad_inverse) for r in reports)

    def test_a_singular_first_segment_stays_out_of_later_fits(self):
        # The first segment's constant column makes its fit need jitter; at
        # a variance of 1e-8, jitter of 1e-10 carried into the next prefix
        # would move every later report by far more than 1e-9.
        data = 1e-4 * gen_random_stream(500, 3, seed=23)
        data[:100, 1] = 0.0
        assert fit_static(data[:100]).jitter_used > 0.0
        for runner, to_end in ((run_experiment_1, False), (run_experiment_2, True)):
            for report in runner(data):
                model, end = fit_and_update(data, report.static_count, to_end)
                truth = np.cov(data[:end], rowvar=False, ddof=1)
                assert report.aad == pytest.approx(aad(model.cov, truth), rel=1e-9)
                assert report.aad_inverse == pytest.approx(
                    aad(model.cinv, np.linalg.inv(truth)), rel=1e-9
                )

    @pytest.mark.parametrize("kind,m,bound", [("collinear", 3, 1e-5), ("rotated-scales", 15, 1e-3)])
    def test_inverse_truth_matches_an_exact_inverse(self, kind, m, bound):
        # Each aad_inverse against the AAD of the same online model against
        # the 60-digit inverse of the batch covariance. Inverting the float64
        # batch covariance is off by 100% on these streams.
        mp = pytest.importorskip("mpmath")
        data = awkward_stream(kind, 400, m, seed=1)

        def exact_inverse(rows):
            rows = [[mp.mpf(float(v)) for v in row] for row in rows]
            mu = [mp.fsum(col) / len(rows) for col in zip(*rows)]
            rows = [[v - u for v, u in zip(row, mu)] for row in rows]
            c = mp.matrix(m, m)
            for i in range(m):
                for j in range(i, m):
                    c[i, j] = c[j, i] = mp.fsum(row[i] * row[j] for row in rows) / (len(rows) - 1)
            return np.array(mp.inverse(c).tolist(), dtype=np.float64)

        with mp.workdps(60):
            truths = {end: exact_inverse(data[:end]) for end in (160, 240, 320, 400)}
        for runner, to_end in ((run_experiment_1, False), (run_experiment_2, True)):
            for report in runner(data):
                model, end = fit_and_update(data, report.static_count, to_end)
                exact = aad(model.cinv, truths[end])
                assert abs(report.aad_inverse - exact) <= bound * exact, (kind, end)


class TestPrefixFits:
    """Each prefix fit, extended segment by segment, equals the fit of the
    whole prefix from scratch."""

    BOUNDS = [200, 400, 600, 800, 1003]

    @staticmethod
    def rel(got, want):
        return float(np.abs(got - want).max() / np.abs(want).max())

    @pytest.mark.parametrize("kind,m", [("iid", 1), ("iid", 3), ("iid", 15), ("heavy-tail", 15)])
    def test_matches_fit_static(self, kind, m):
        data = awkward_stream(kind, self.BOUNDS[-1], m, seed=1)
        fits, times = _prefix_fits(data, self.BOUNDS)
        assert times == sorted(times)
        for fit, bound in zip(fits, self.BOUNDS):
            want = fit_static(data[:bound])
            assert fit.n == bound
            assert fit.jitter_used == want.jitter_used == 0.0
            assert self.rel(fit.cov, want.cov) <= 1e-12
            assert self.rel(fit.cinv, want.cinv) <= 1e-12
            # The mean against the data's scale, and the determinant relative.
            assert np.abs(fit.mu - want.mu).max() <= 1e-12 * np.abs(data).max()
            assert abs(fit.log_det - want.log_det) <= 1e-12
            assert fit.blend == want.blend

    @pytest.mark.parametrize("m", [3, 15])
    @pytest.mark.parametrize("kind", ["rotated-scales", "collinear"])
    def test_ill_conditioned_covariance_matches_fit_static(self, kind, m):
        data = awkward_stream(kind, self.BOUNDS[-1], m, seed=1)
        fits, _ = _prefix_fits(data, self.BOUNDS)
        for fit, bound in zip(fits, self.BOUNDS):
            assert self.rel(fit.cov, fit_static(data[:bound]).cov) <= 1e-12

    def test_fits_from_scratch_are_fit_static_bit_for_bit(self):
        for m in (1, 15):
            data = awkward_stream("iid", self.BOUNDS[-1], m, seed=1)
            first = _prefix_fits(data, self.BOUNDS)[0][0]
            assert model_to_text(first) == model_to_text(fit_static(data[: self.BOUNDS[0]]))
        # The singular first segment of the experiment test above: its fit
        # needs jitter, so the next prefix is fit whole rather than extended.
        data = 1e-4 * gen_random_stream(500, 3, seed=23)
        data[:100, 1] = 0.0
        fits, _ = _prefix_fits(data, [100, 200, 300, 400, 500])
        assert fits[0].jitter_used > 0.0
        assert model_to_text(fits[1]) == model_to_text(fit_static(data[:200]))


class TestGenerators:
    def test_random_stream_deterministic(self):
        np.testing.assert_array_equal(
            gen_random_stream(3, 2, seed=5), gen_random_stream(3, 2, seed=5)
        )

    def test_random_stream_covariance_near_identity(self):
        data = gen_random_stream(100_000, 15, seed=3)
        cov = np.cov(data, rowvar=False, ddof=1)
        assert np.abs(cov - np.eye(15)).max() < 0.05

    def test_random_stream_seed_sensitivity(self):
        a = gen_random_stream(10, 1, seed=1)
        b = gen_random_stream(10, 1, seed=2)
        assert not np.array_equal(a, b)

    def test_random_stream_validation(self):
        with pytest.raises(InvalidInputError):
            gen_random_stream(0, 1, seed=0)
        with pytest.raises(InvalidInputError):
            gen_random_stream(5, 0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidInputError, match="seed must be >= 0"):
            gen_random_stream(5, 1, seed=-1)

    def test_zero_magnitude_transient_matches_base(self):
        spec = ShiftSpec(kind="abrupt-transient", at=0.4, magnitude=0.0)
        base = np.random.default_rng(9).standard_normal(100)
        np.testing.assert_array_equal(gen_shift_stream(100, 1, 9, spec)[:, 0], base)

    def test_transient_touches_exactly_one_point(self):
        spec = ShiftSpec(kind="abrupt-transient", at=0.3, magnitude=4.0)
        flat = ShiftSpec(kind="abrupt-transient", at=0.3, magnitude=0.0)
        diff = gen_shift_stream(200, 1, 31, spec)[:, 0] - gen_shift_stream(200, 1, 31, flat)[:, 0]
        assert np.count_nonzero(diff) == 1
        assert diff[int(0.3 * 200)] == pytest.approx(4.0, rel=1e-15)

    def test_distributional_shift_moves_second_half_mean(self):
        spec = ShiftSpec(kind="abrupt-distributional", at=0.5, magnitude=5.0)
        stream = gen_shift_stream(1000, 1, 37, spec)[:, 0]
        assert abs(stream[500:].mean() - 5.0) < 0.2
        assert abs(stream[:500].mean()) < 0.2

    def test_gradual_ramp_has_bounded_steps(self):
        count = 400
        spec = ShiftSpec(kind="gradual-distributional", at=0.25, magnitude=8.0, ramp=count // 2)
        stream = gen_shift_stream(count, 1, 41, spec)[:, 0]
        offsets = stream - gen_random_stream(count, 1, 41)[:, 0]
        steps = np.diff(offsets)
        assert steps.max() <= 8.0 / (count // 2) + 1e-12
        assert offsets[-1] == pytest.approx(8.0)
        assert np.abs(np.diff(stream)).max() <= 8.0 / (count // 2) + 6.0

    def test_shift_stream_requires_ten_points(self):
        with pytest.raises(InvalidInputError):
            gen_shift_stream(9, 1, 0, ShiftSpec(kind="abrupt-transient"))

    def test_shift_spec_validation(self):
        with pytest.raises(InvalidInputError):
            ShiftSpec(kind="sideways")
        with pytest.raises(InvalidInputError):
            ShiftSpec(kind="abrupt-transient", at=0.0)
        with pytest.raises(InvalidInputError):
            ShiftSpec(kind="gradual-distributional", ramp=0)
        with pytest.raises(InvalidInputError, match="magnitude must be finite"):
            ShiftSpec(kind="abrupt-transient", magnitude=math.inf)


class TestReportCsv:
    def test_layout(self):
        report = AadReport(
            static_count=2, aad=0.125, points_evaluated=40, elapsed=0.5, aad_inverse=0.25
        )
        buf = io.StringIO()
        write_reports_csv(buf, [(1, 7, report)])
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1] == "1,2,0.125,40,7,500,0.25"
