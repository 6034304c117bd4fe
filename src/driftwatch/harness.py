"""Experiment engine: AAD metric, segmented static-vs-online protocols, and
synthetic stream generators.

Both experiment protocols split the stream into ``N_SEGMENTS`` segments,
fit the model on a growing static prefix, run the online updates over part
of the rest, and score the blended covariance against the batch covariance
of everything consumed. The protocols never score points between updates,
so each online segment is absorbed by one closed-form ``update_many`` call
rather than point by point; the covariance is the same, and the inverse
scored by ``aad_inverse`` comes from the one QR that factorizes the blended
covariance, not from rank-one updates. ``aad`` is the mean absolute
relative deviation over the flattened matrix entries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .detector import fit_static, update_many
from .errors import InvalidInputError

SHIFT_ABRUPT_TRANSIENT = "abrupt-transient"
SHIFT_ABRUPT_DISTRIBUTIONAL = "abrupt-distributional"
SHIFT_GRADUAL = "gradual-distributional"
SHIFT_KINDS = (SHIFT_ABRUPT_TRANSIENT, SHIFT_ABRUPT_DISTRIBUTIONAL, SHIFT_GRADUAL)

TRUTH_EPSILON = 1e-12
N_SEGMENTS = 5
CSV_HEADER = "experiment,static_count,aad,points,seed,elapsed_ms,aad_inverse"


@dataclass(frozen=True)
class AadReport:
    """Result of one (protocol, static prefix) run.

    ``aad`` scores the blended covariance, s A Aᵀ; ``aad_inverse`` scores
    its inverse, Bᵀ B / s with B = A⁻¹ from ``update_many``'s QR, against
    the inverse of the batch covariance.
    ``elapsed`` is wall-clock seconds for the fit + online phase only; the
    batch truth and the scoring are not timed.
    """

    static_count: int
    aad: float
    points_evaluated: int
    elapsed: float
    aad_inverse: float


@dataclass(frozen=True)
class ShiftSpec:
    """One synthetic signal change: what kind, where, and how large."""

    kind: str
    at: float = 0.5
    magnitude: float = 5.0
    ramp: int = 1

    def __post_init__(self) -> None:
        if self.kind not in SHIFT_KINDS:
            raise InvalidInputError(f"kind must be one of {SHIFT_KINDS}, got {self.kind!r}")
        if not 0.0 < self.at < 1.0:
            raise InvalidInputError(f"at must be inside (0, 1), got {self.at}")
        if not np.isfinite(self.magnitude):
            raise InvalidInputError(f"magnitude must be finite, got {self.magnitude}")
        if self.kind == SHIFT_GRADUAL and self.ramp < 1:
            raise InvalidInputError(f"ramp must be >= 1 for gradual shifts, got {self.ramp}")


def aad(predicted, truth) -> float:
    """Mean absolute relative deviation between two same-shaped arrays.

    Entries whose ground truth is within 1e-12 of zero are skipped (a
    relative error is undefined there) and the divisor shrinks with them;
    at least one entry must survive.
    """
    predicted = np.asarray(predicted, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predicted.shape != truth.shape:
        raise InvalidInputError(f"shape mismatch: {predicted.shape} vs {truth.shape}")
    p = predicted.ravel()
    y = truth.ravel()
    mask = np.abs(y) > TRUTH_EPSILON
    if not mask.any():
        raise InvalidInputError("every ground-truth entry is within 1e-12 of zero")
    return float(np.mean(np.abs((p[mask] - y[mask]) / y[mask])))


def _run_protocol(data, to_end: bool) -> list[AadReport]:
    """Both protocols' loop; raises InvalidInputError unless each of the
    ``N_SEGMENTS`` segments (the last takes the remainder) holds m + 1 rows."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    n, m = data.shape
    base = n // N_SEGMENTS
    if base <= m:
        raise InvalidInputError(f"{n} points cannot fill {N_SEGMENTS} segments of {m + 1} rows")
    reports = []
    truths = {}  # end -> (batch covariance of data[:end], its inverse)
    for static_count in range(1, N_SEGMENTS):
        start = time.perf_counter()
        split = base * static_count
        end = n if to_end or static_count == N_SEGMENTS - 1 else split + base
        model = update_many(fit_static(data[:split]), data[split:end])
        elapsed = time.perf_counter() - start
        if end not in truths:
            truth = np.atleast_2d(np.cov(data[:end], rowvar=False, ddof=1))
            truths[end] = truth, np.linalg.inv(truth)
        truth, truth_inv = truths[end]
        reports.append(
            AadReport(
                static_count=static_count,
                aad=aad(model.cov, truth),
                points_evaluated=end - split,
                elapsed=elapsed,
                aad_inverse=aad(model.cinv, truth_inv),
            )
        )
    return reports


def run_experiment_1(data) -> list[AadReport]:
    """Online phase over the single segment after the static prefix.

    For each static prefix of 1 to ``N_SEGMENTS`` - 1 segments, fit on that
    prefix, update through the next segment only, and compare against the
    batch covariance of the prefix plus that segment.
    """
    return _run_protocol(data, to_end=False)


def run_experiment_2(data) -> list[AadReport]:
    """Online phase over every remaining segment.

    Same sweep as experiment 1, but the updates continue to the end of the
    stream and the comparison target is the batch covariance of all data.
    """
    return _run_protocol(data, to_end=True)


def gen_random_stream(count: int, dim: int, seed: int) -> np.ndarray:
    """Deterministic i.i.d. standard-normal vectors, shape (count, dim)."""
    if count < 1 or dim < 1:
        raise InvalidInputError(f"count and dim must be >= 1, got {count}, {dim}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed).standard_normal((count, dim))


def shift_offsets(count: int, spec: ShiftSpec) -> np.ndarray:
    """Additive mean profile of a shift over a length-``count`` stream (>= 10)."""
    if count < 10:
        raise InvalidInputError(f"count must be >= 10, got {count}")
    pos = int(spec.at * count)
    offsets = np.zeros(count)
    if spec.kind == SHIFT_ABRUPT_TRANSIENT:
        offsets[pos] = spec.magnitude
    elif spec.kind == SHIFT_ABRUPT_DISTRIBUTIONAL:
        offsets[pos:] = spec.magnitude
    else:
        steps = np.arange(1, count - pos + 1, dtype=np.float64)
        offsets[pos:] = spec.magnitude * np.minimum(steps / spec.ramp, 1.0)
    return offsets


def gen_shift_stream(count: int, spec: ShiftSpec, seed: int) -> np.ndarray:
    """Standard-normal scalar stream with the given shift applied."""
    offsets = shift_offsets(count, spec)
    return gen_random_stream(count, 1, seed)[:, 0] + offsets


def write_reports_csv(out, tagged_reports) -> None:
    """Write (experiment, seed, report) triples in the plot-ready CSV layout."""
    out.write(CSV_HEADER + "\n")
    for experiment, seed, report in tagged_reports:
        out.write(
            f"{experiment},{report.static_count},{report.aad:.17g},"
            f"{report.points_evaluated},{seed},{report.elapsed * 1000.0:.17g},"
            f"{report.aad_inverse:.17g}\n"
        )
