"""Univariate streaming anomaly detection with a probability-weighted EWMA.

The detector keeps an exponentially discounted mean and variance of the
stream, the variance in centered form (West 1979), which unlike the raw
moments s2 - s1² does not cancel when the offset dwarfs the spread. Each
incoming point is standardized against the current estimates, and the
forgetting factor applied to them is scaled down by the point's own
probability density: surprising points barely move the estimates, so a
level shift does not poison the mean before the detector has had a chance
to flag it. A plain EWMA baseline (``ewma_step``) is the special case
beta = 0. ``Verdict``, defined in this stdlib-only module, is the scoring
result of both detectors: ``pewma_step`` and ``detector.score`` return it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInputError

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
LOG_INV_SQRT_2PI = math.log(INV_SQRT_2PI)


@dataclass(frozen=True)
class PewmaParams:
    """Detector parameters.

    alpha: base forgetting factor in (0, 1).
    beta: weight of the probability discount in [0, 1]; 0 recovers EWMA.
    tau: density threshold below which a point is flagged (strict).
    warmup_T: number of leading points scored but never flagged, during
        which the moments follow the exact running mean.
    sigma_floor: lower clamp for the standard-deviation estimate.
    """

    alpha: float = 0.98
    beta: float = 0.98
    tau: float = 0.0044
    warmup_T: int = 30
    sigma_floor: float = 1e-8

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise InvalidInputError(f"alpha must be in (0, 1), got {self.alpha}")
        if not (0.0 <= self.beta <= 1.0):
            raise InvalidInputError(f"beta must be in [0, 1], got {self.beta}")
        if not (math.isfinite(self.tau) and self.tau >= 0.0):
            raise InvalidInputError(f"tau must be finite and >= 0, got {self.tau}")
        if self.warmup_T < 1:
            raise InvalidInputError(f"warmup_T must be >= 1, got {self.warmup_T}")
        if not (math.isfinite(self.sigma_floor) and self.sigma_floor > 0.0):
            raise InvalidInputError(f"sigma_floor must be > 0, got {self.sigma_floor}")


@dataclass(frozen=True)
class PewmaState:
    """Running estimates after absorbing ``t`` points.

    ``mean`` and ``sigma_hat`` (the floored square root of ``var``) are the
    estimates that will be used to standardize the next point.
    """

    mean: float
    var: float
    t: int
    sigma_hat: float


@dataclass(frozen=True, slots=True)
class Verdict:
    """Scoring result for one point: log-density, density, the squared
    Mahalanobis distance d² (z² in one dimension), and the flag."""

    log_density: float
    density: float
    mahalanobis_sq: float
    is_anomaly: bool


# The first point of a stream is the mean it defines: z = 0, never flagged.
FIRST_VERDICT = Verdict(LOG_INV_SQRT_2PI, INV_SQRT_2PI, 0.0, False)


def pewma_init(x1: float, params: PewmaParams) -> PewmaState:
    """State after the first observation: mean x1, variance 0."""
    if not math.isfinite(x1):
        raise InvalidInputError(f"first observation must be finite, got {x1}")
    return PewmaState(mean=x1, var=0.0, t=1, sigma_hat=params.sigma_floor)


def pewma_step(state: PewmaState, x: float, params: PewmaParams) -> tuple[PewmaState, Verdict]:
    """Score one point against the current state and absorb it.

    The incoming point is the (t+1)-th of the stream. While its index is
    below warmup_T the forgetting factor is a = 1 - 1/t (exact running
    mean); afterwards a = alpha * (1 - beta * density), which discounts
    improbable points. With r = x - mean, the mean moves by (1 - a) r and
    the variance becomes a var + a (1 - a) r². The verdict is density < tau,
    gated off during warmup; its log-density is log(1/√(2π)) - z²/2.
    """
    if state.t < 1:
        raise InvalidInputError("state has absorbed no points; call pewma_init first")
    if not math.isfinite(x):
        raise InvalidInputError(f"observation must be finite, got {x}")

    diff = x - state.mean
    z = diff / state.sigma_hat
    density = INV_SQRT_2PI * math.exp(-0.5 * z * z)

    t_in = state.t + 1
    if t_in < params.warmup_T:
        a_t = 1.0 - 1.0 / t_in
    else:
        a_t = (1.0 - params.beta * density) * params.alpha

    mean = state.mean + (1.0 - a_t) * diff
    var = a_t * state.var + a_t * (1.0 - a_t) * diff * diff
    sigma = math.sqrt(max(var, params.sigma_floor * params.sigma_floor))

    new_state = PewmaState(mean=mean, var=var, t=t_in, sigma_hat=sigma)
    verdict = Verdict(
        log_density=LOG_INV_SQRT_2PI - 0.5 * z * z,
        density=density,
        mahalanobis_sq=z * z,
        is_anomaly=density < params.tau and t_in > params.warmup_T,
    )
    return new_state, verdict


def ewma_step(mean: float, x: float, alpha: float) -> float:
    """One exponentially weighted moving-average step: alpha*mean + (1-alpha)*x."""
    if not (0.0 < alpha < 1.0):
        raise InvalidInputError(f"alpha must be in (0, 1), got {alpha}")
    if not (math.isfinite(mean) and math.isfinite(x)):
        raise InvalidInputError("mean and observation must be finite")
    return alpha * mean + (1.0 - alpha) * x
