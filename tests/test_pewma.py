import math
from dataclasses import replace

import numpy as np
import pytest

from driftwatch.errors import InvalidInputError
from driftwatch.pewma import (
    INV_SQRT_2PI,
    PewmaParams,
    PewmaState,
    pewma_init,
    pewma_step,
    ewma_step,
)


def run_stream(stream, params):
    state = pewma_init(float(stream[0]), params)
    scored = []
    for x in stream[1:]:
        state, point = pewma_step(state, float(x), params)
        scored.append(point)
    return state, scored


class TestPewmaInit:
    def test_first_moments(self):
        state = pewma_init(5.0, PewmaParams())
        assert state.mean == 5.0
        assert state.var == 0.0
        assert state.t == 1

    def test_zero(self):
        state = pewma_init(0.0, PewmaParams())
        assert state.mean == 0.0 and state.var == 0.0

    def test_negative(self):
        state = pewma_init(-2.0, PewmaParams())
        assert state.mean == -2.0 and state.var == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            pewma_init(float("nan"), PewmaParams())


class TestParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"beta": -0.1},
            {"beta": 1.1},
            {"tau": -1.0},
            {"warmup_T": 0},
            {"sigma_floor": 0.0},
            {"tau": None},  # pewma_step compares the density with it
            {"sigma_floor": -1.0},
            {"sigma_floor": math.inf},
            {"sigma_floor": math.nan},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(InvalidInputError):
            PewmaParams(**kwargs)

    @pytest.mark.parametrize("floor", [1e-170, 1e200])
    def test_runs_a_floor_whose_square_is_not_a_positive_float(self, floor):
        # The floor clamps sqrt(var), so its square, 0 or inf here, is never formed.
        stream = [1.0] * 40 + [2.0]
        _, scored = run_stream(stream, PewmaParams(sigma_floor=floor))
        assert len(scored) == len(stream) - 1
        assert all(point.mahalanobis_sq == 0.0 for point in scored[:-1])
        z = 1.0 / floor
        assert scored[-1].mahalanobis_sq == z * z


class TestPewmaStep:
    def test_constant_stream(self):
        params = PewmaParams()
        _, scored = run_stream([3.25] * 100, params)
        post = scored[params.warmup_T :]
        assert post, "stream must extend past warmup"
        for point in post:
            assert point.mahalanobis_sq == 0.0
            assert point.density == pytest.approx(INV_SQRT_2PI, rel=1e-12)
            assert not point.is_anomaly

    def test_three_sigma_density_straddles_tau(self):
        params = PewmaParams()
        state = PewmaState(mean=0.0, var=1.0, t=50)
        _, at3 = pewma_step(state, 3.0, params)
        assert at3.density == pytest.approx(0.00443, abs=1e-5)
        assert not at3.is_anomaly
        _, beyond = pewma_step(state, 3.01, params)
        assert beyond.is_anomaly
        _, inside = pewma_step(state, 2.99, params)
        assert not inside.is_anomaly

    def test_beta_zero_matches_ewma_recurrence(self):
        rng = np.random.default_rng(17)
        params = PewmaParams(alpha=0.9, beta=0.0, warmup_T=10)
        stream = rng.standard_normal(100)
        state = pewma_init(float(stream[0]), params)
        mean = None
        for x in stream[1:]:
            prev_mean, prev_t = state.mean, state.t
            state, _ = pewma_step(state, float(x), params)
            if prev_t + 1 >= params.warmup_T:
                expected = ewma_step(mean if mean is not None else prev_mean, float(x), params.alpha)
                assert state.mean == pytest.approx(expected, abs=1e-12)
                mean = state.mean

    def test_does_not_mutate_argument(self):
        params = PewmaParams(warmup_T=3)
        state = pewma_init(0.5, params)
        for x in (0.7, -1.2, 40.0, 0.1):  # warmup, then density-weighted steps
            before = replace(state)
            updated, _ = pewma_step(state, x, params)
            assert state == before and updated != before
            state = updated

    def test_uninitialized_state_rejected(self):
        bad = PewmaState(mean=0.0, var=0.0, t=0)
        with pytest.raises(InvalidInputError, match="absorbed no points"):
            pewma_step(bad, 1.0, PewmaParams())

    def test_non_finite_observation_rejected(self):
        state = pewma_init(0.0, PewmaParams())
        with pytest.raises(InvalidInputError):
            pewma_step(state, float("inf"), PewmaParams())

    def test_density_stays_in_gaussian_range(self):
        rng = np.random.default_rng(23)
        params = PewmaParams()
        _, scored = run_stream(rng.standard_normal(500) * 10.0, params)
        for point in scored:
            assert 0.0 <= point.density <= INV_SQRT_2PI

    def test_sigma_never_below_floor(self):
        # A constant stream keeps var = 0, so a point d above it is standardized
        # by the floor: z² = (d / floor)².
        params = PewmaParams(sigma_floor=1e-6)
        state = pewma_init(1.0, params)
        d = (1.0 + 3e-6) - 1.0
        for _ in range(199):
            state, _ = pewma_step(state, 1.0, params)
            _, point = pewma_step(state, 1.0 + 3e-6, params)
            z = d / params.sigma_floor
            assert point.mahalanobis_sq == z * z

    def test_floor_is_absolute(self):
        # A 5σ step in N(0,1), then the same stream scaled by 2**-30 (exact in
        # binary): at the default floor the small stream flags nothing, and at
        # a floor far below its spread it scores as the unit stream does from
        # the third point on, when var first exceeds either floor.
        stream = np.random.default_rng(0).standard_normal(4000)
        stream[2000:] += 5.0
        _, unit = run_stream(stream, PewmaParams())
        _, blind = run_stream(stream * 2.0**-30, PewmaParams())
        _, scaled = run_stream(stream * 2.0**-30, PewmaParams(sigma_floor=1e-20))
        assert any(point.is_anomaly for point in unit[1999:2049])  # points 2000-2049
        assert not any(point.is_anomaly for point in blind)
        assert [p.is_anomaly for p in scaled] == [p.is_anomaly for p in unit]
        assert [p.mahalanobis_sq for p in scaled[1:]] == [p.mahalanobis_sq for p in unit[1:]]

    def test_warmup_points_never_flagged(self):
        # A wild outlier inside the warmup window must stay unflagged.
        params = PewmaParams(warmup_T=30)
        stream = [0.0, 0.1, -0.1, 0.05, 1e6] + [0.0] * 20
        _, scored = run_stream(stream, params)
        for point in scored:
            assert not point.is_anomaly

    def test_first_flag_only_after_warmup(self):
        rng = np.random.default_rng(5)
        params = PewmaParams(warmup_T=30)
        stream = list(rng.standard_normal(60))
        stream[40] = 50.0
        _, scored = run_stream(stream, params)
        # scored[i] is the verdict for stream point i+1.
        assert scored[39].is_anomaly
        assert all(not p.is_anomaly for p in scored[: params.warmup_T - 1])

    def test_warmup_mean_is_exact_through_point_t_minus_one(self):
        # Points 1 to T - 1 set the exact running mean; point T already takes
        # the density-weighted rate but is never flagged, and point T + 1 is.
        params = PewmaParams(warmup_T=30)
        t = params.warmup_T
        stream = list(np.random.default_rng(13).standard_normal(t))
        state, _ = run_stream(stream[: t - 1], params)
        assert state.t == t - 1
        assert state.mean == pytest.approx(np.mean(stream[: t - 1]), rel=1e-12)
        state, _ = run_stream(stream, params)
        assert state.t == t
        assert abs(state.mean - np.mean(stream)) > 1e-3
        for at, flagged in ((t, False), (t + 1, True)):
            # scored[-1] is the verdict of point ``at``, the outlier.
            _, scored = run_stream(stream[: at - 1] + [1e6], params)
            assert scored[-1].is_anomaly is flagged

    def test_training_phase_tracks_exact_running_mean(self):
        rng = np.random.default_rng(9)
        params = PewmaParams(warmup_T=40)
        stream = rng.standard_normal(35)
        state = pewma_init(float(stream[0]), params)
        for k, x in enumerate(stream[1:], start=2):
            state, _ = pewma_step(state, float(x), params)
            assert state.mean == pytest.approx(np.mean(stream[:k]), rel=1e-12)

    @pytest.mark.parametrize("offset", [0.0, 1e8, 1e12])
    def test_offset_does_not_change_the_verdicts(self, offset):
        # The centered variance does not cancel at a large offset, so the
        # flag rate and the caught spike are those of the zero-offset stream.
        stream = np.random.default_rng(31).standard_normal(5000)
        stream[4000] += 6.0
        params = PewmaParams()
        rate = lambda scored: np.mean([p.is_anomaly for p in scored])
        _, base = run_stream(stream, params)
        _, shifted = run_stream(stream + offset, params)
        assert abs(rate(shifted) - rate(base)) < 0.005
        assert shifted[3999].is_anomaly


class TestEwmaStep:
    def test_fixed_point(self):
        assert ewma_step(4.0, 4.0, 0.98) == 4.0

    def test_direct_arithmetic(self):
        assert ewma_step(0.0, 1.0, 0.98) == pytest.approx(0.02, rel=1e-12)

    def test_near_boundary_alpha_keeps_mean(self):
        assert ewma_step(7.0, -100.0, 0.99999) == pytest.approx(7.0, abs=2e-3)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(InvalidInputError):
            ewma_step(0.0, 1.0, alpha)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            ewma_step(float("nan"), 1.0, 0.5)
