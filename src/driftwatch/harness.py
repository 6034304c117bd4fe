"""Experiment engine: AAD metric, segmented static-vs-online protocols, and
synthetic stream generators.

Both experiment protocols split the stream into ``N_SEGMENTS`` segments,
fit the model on a growing static prefix, run the online updates over part
of the rest, and score the blended covariance against the batch covariance
of everything consumed. Each call fits the prefixes once, each extending
the previous fit by one segment (``detector._extend_fit``), and those fits
are both the static models and the batch truths: a truth's inverse is the
fit's own ``cinv``, never the inverse of a formed covariance. The
protocols never score points between updates, so each online segment is
absorbed by one closed-form ``update_many`` call rather than point by
point; the covariance is the same, and the inverse scored by
``aad_inverse`` comes from the one QR that factorizes the blended
covariance, not from rank-one updates. ``aad`` is the mean absolute
relative deviation over the flattened matrix entries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ._numpy import LazyNumpy
from .detector import _extend_fit, update_many
from .errors import InvalidInputError

np = LazyNumpy(__name__)
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

    ``aad`` scores the blended covariance and ``aad_inverse`` its inverse,
    both from ``update_many``'s QR, against the covariance and the inverse
    of the fit of the points consumed.
    ``elapsed`` is wall-clock seconds: the cumulative time to build the
    static prefix's fit, segment by segment, plus the online phase; the
    scoring is not timed.
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
    if not mask.all():
        if not mask.any():
            raise InvalidInputError("every ground-truth entry is within 1e-12 of zero")
        p, y = p[mask], y[mask]
    rel = np.abs((p - y) / y)
    return float(np.add.reduce(rel) / rel.size)


def _prefix_fits(data, bounds) -> tuple[list, list]:
    """The model of each prefix ``data[:bound]``, extending the previous one
    (``detector._extend_fit``), and the cumulative seconds taken to build it."""
    fits, times, elapsed = [], [], 0.0
    for bound in bounds:
        start = time.perf_counter()
        fits.append(_extend_fit(fits[-1] if fits else None, data[:bound]))
        elapsed += time.perf_counter() - start
        times.append(elapsed)
    return fits, times


def _run_protocol(data, to_end: bool) -> list[AadReport]:
    """Both protocols' loop; raises InvalidInputError unless each of the
    ``N_SEGMENTS`` segments (the last takes the remainder) holds m + 1 rows,
    and when the batch covariance of a prefix scored against is singular."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    n, m = data.shape
    base = n // N_SEGMENTS
    if base <= m:
        raise InvalidInputError(f"{n} points cannot fill {N_SEGMENTS} segments of {m + 1} rows")
    # fits[k - 1] models the first k segments; the last takes the remainder.
    fits, times = _prefix_fits(data, [base * k for k in range(1, N_SEGMENTS)] + [n])
    reports = []
    for static_count in range(1, N_SEGMENTS):
        static = fits[static_count - 1]
        truth = fits[-1] if to_end else fits[static_count]
        if truth.jitter_used:
            raise InvalidInputError(f"the batch covariance of the first {truth.n} points is singular")
        start = time.perf_counter()
        model = update_many(static, data[static.n : truth.n])
        elapsed = times[static_count - 1] + time.perf_counter() - start
        reports.append(
            AadReport(
                static_count=static_count,
                aad=aad(model.cov, truth.cov),
                points_evaluated=truth.n - static.n,
                elapsed=elapsed,
                aad_inverse=aad(model.cinv, truth.cinv),
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
