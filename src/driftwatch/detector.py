"""Multivariate online Gaussian anomaly detection.

A model is fit on an initial batch (mean, covariance, inverse covariance,
log-determinant), then updated point by point in O(m²): the covariance by
its rank-one blend, the inverse by the Sherman-Morrison kernel in
``linalg``, the log-determinant by the matrix determinant lemma, and the
mean by the exact incremental recurrence. The inverse and log-determinant
are rebuilt exactly from a Cholesky factorization when drift shows or
every ``REFACTOR_EVERY`` updates (a constant, like the starting jitter).
``score`` flags a point farther than Mahalanobis distance 3 or, given a
density threshold tau, one whose log-density falls below log tau; it
returns the ``Verdict`` that ``pewma`` defines for both detectors.
``update_many`` absorbs a whole batch in closed form, for callers that
never score between updates. Models are values;
both update functions return a new model and never mutate their argument.
Public functions validate their input once, on entry; the Sherman-Morrison
core that ``update_online`` hands its own w = C⁻¹ d and q = dᵀ w trusts it.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidInputError, NotPositiveDefiniteError
from .linalg import CovBlend
from .pewma import Verdict

LOG_2PI = math.log(2.0 * math.pi)
DRIFT_LIMIT = 1e-4
REFACTOR_EVERY = 256
FLOAT_EPS = float(np.finfo(np.float64).eps)
LOG_DET_TOL = 1e-6
MAHALANOBIS_SQ_LIMIT = 9.0
CHECKPOINT_VERSION = "driftwatch-model 3"


@dataclass(frozen=True)
class GaussianModel:
    """Gaussian stream model N(mu, C), with C carried as ``cov``.

    ``cov`` includes any jitter a factorization needed (the total is
    ``jitter_used``). ``cinv`` tracks C⁻¹ and ``log_det`` tracks log |C|.
    ``blend`` holds the forgetting weights applied per update, and
    ``updates_since_refactor`` counts rank-one inverse updates since the
    inverse and log-determinant were last rebuilt exactly.
    """

    m: int
    n: int
    mu: np.ndarray
    cov: np.ndarray
    cinv: np.ndarray
    log_det: float
    blend: CovBlend
    updates_since_refactor: int = 0
    jitter_used: float = 0.0


def derive_blend(n_static: int) -> CovBlend:
    """Blend weights from the static sample size.

    c_cov = 2 / (n² + 6) and alpha = 1 - c_cov, beta = c_cov, so the
    weights always sum to one and approach (1, 0) as n grows.
    """
    if n_static < 1:
        raise InvalidInputError(f"static sample size must be >= 1, got {n_static}")
    c_cov = 2.0 / (float(n_static) ** 2 + 6.0)
    return CovBlend(alpha=1.0 - c_cov, beta=c_cov)


def _factorized(cov):
    """``(cov, cinv, log_det, lam)`` from one Cholesky factorization of ``cov``.

    The returned covariance is the symmetric matrix that was factorized,
    ``lam * I`` included, so the inverse and log-determinant are exact for
    it and a checkpoint of it reloads.
    """
    factor, lam = linalg.cholesky_factorize(cov)
    cov = 0.5 * (cov + cov.T) + lam * np.eye(cov.shape[0])
    return cov, linalg.inverse_from_factor(factor), linalg.log_det_from_factor(factor), lam


def fit_static(data) -> GaussianModel:
    """Fit the model on the initial batch: mean, unbiased covariance, inverse.

    ``data`` is an (n, m) array (or a sequence of length-m vectors; plain
    1-D input is treated as n scalar samples). Requires n >= m + 1 so the
    sample covariance has full rank. The inverse and log-determinant come
    from a Cholesky factor, and the blend weights derive from n.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2:
        raise InvalidInputError(f"expected 2-D data, got shape {data.shape}")
    if not np.isfinite(data).all():
        raise InvalidInputError("data contains non-finite entries")
    n, m = data.shape
    if n <= m:
        raise InvalidInputError(f"need at least {m + 1} samples for dimension {m}, got {n}")

    mu = data.mean(axis=0)
    cov = np.atleast_2d(np.cov(data, rowvar=False, ddof=1))
    cov, cinv, log_det, lam = _factorized(cov)
    return GaussianModel(
        m=m,
        n=n,
        mu=mu,
        cov=cov,
        cinv=cinv,
        log_det=log_det,
        blend=derive_blend(n),
        jitter_used=lam,
    )


def check_tau(tau: float | None) -> None:
    """Raise InvalidInputError unless ``tau`` is None or finite and >= 0."""
    if tau is not None and not (math.isfinite(tau) and tau >= 0.0):
        raise InvalidInputError(f"tau must be finite and >= 0, got {tau}")


@np.errstate(over="ignore", invalid="ignore")  # a huge x overflows q; it is refused
def update_online(model: GaussianModel, x) -> GaussianModel:
    """Absorb one point: blend the covariance, update the inverse and mean.

    With the residual d = x - mu against the pre-update mean, w = C⁻¹ d and
    q = dᵀ w, the covariance becomes C' = alpha C + beta d dᵀ, the inverse
    follows by Sherman-Morrison, and the log-determinant by the matrix
    determinant lemma, log |C'| = log |C| + m log alpha + log1p((beta/alpha) q).
    All of it is O(m²).

    A degenerate residual (q below 1e-30, e.g. x at the mean) updates only
    the mean and count. The inverse and log-determinant are rebuilt exactly
    when the residual of the pre-update pair along d, ‖C w - d‖∞ / ‖d‖∞,
    exceeds ``DRIFT_LIMIT``, or after ``REFACTOR_EVERY`` rank-one updates.
    A point is refused, and the model returned unchanged, when its rank-one
    term would swamp C in float64, (beta/alpha) q eps >= 1 with eps the
    machine epsilon (a huge but finite x), or when the blend is non-finite
    or cannot be factorized.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.m:
        raise InvalidInputError(f"expected a vector of length {model.m}, got shape {x.shape}")
    d = x - model.mu
    # ndarray.dot makes the same BLAS call as @ at half its overhead on small arrays.
    w = model.cinv.dot(d)
    q = float(d.dot(w))
    # A non-finite entry makes q non-finite, so only then is x checked.
    if not math.isfinite(q) and not np.isfinite(x).all():
        raise InvalidInputError("point contains non-finite entries")
    n, blend = model.n + 1, model.blend
    mu = (model.n * model.mu + x) / n
    if q < linalg.DEGENERATE_NORM_SQ:
        return GaussianModel(model.m, n, mu, model.cov, model.cinv, model.log_det, blend,
                             model.updates_since_refactor, model.jitter_used)
    alpha, beta = blend.alpha, blend.beta
    if not beta / alpha * q * FLOAT_EPS < 1.0:
        return model
    cov = alpha * model.cov + beta * np.multiply.outer(d, d)
    if not np.isfinite(cov).all():
        return model

    updates = model.updates_since_refactor + 1
    drift = float(np.abs(model.cov.dot(w) - d).max() / np.abs(d).max())
    if updates < REFACTOR_EVERY and drift <= DRIFT_LIMIT:
        # q >= 1e-30 here, so the kernel's denominator 1 + (beta/alpha) q is >= 1.
        cinv = linalg._sherman_morrison(model.cinv, w, q, blend)
        log_det = model.log_det + model.m * math.log(alpha) + math.log1p(beta / alpha * q)
        return GaussianModel(model.m, n, mu, cov, cinv, log_det, blend, updates,
                             model.jitter_used)
    try:
        cov, cinv, log_det, lam = _factorized(cov)
    except NotPositiveDefiniteError:
        return model
    return GaussianModel(model.m, n, mu, cov, cinv, log_det, blend, 0, model.jitter_used + lam)


def update_many(model: GaussianModel, xs) -> GaussianModel:
    """Absorb the rows of ``xs`` at once: the model that folding
    ``update_online`` over them gives, in closed form.

    The residuals d_j = x_j - mu_j are taken against the running mean of
    ``update_online``'s own recurrence, in the same order, so the means
    match it bit for bit. With K non-degenerate residuals, kept in order,
    the blended covariance is

        C_K = alpha^K C_0 + sum_r beta alpha^(K-1-r) d_r d_rᵀ,

    formed as one weighted product, then factorized once; the inverse and
    log-determinant are rebuilt exactly and ``updates_since_refactor`` is 0.

    A residual is degenerate, and moves only the mean and count, when
    d_jᵀ C_0⁻¹ d_j against the *starting* inverse is below 1e-30.
    ``update_online`` measures it against the current inverse instead, so
    the two can differ only for residuals that are nonzero yet measure
    below about 1e-30; a point exactly at the running mean is skipped by
    both. Any jitter the final factorization needs is added to the
    covariance and to ``jitter_used``.

    A row is refused, as ``update_online`` refuses it, when its rank-one
    term would swamp C in float64, (beta/alpha) q eps >= 1, with q taken
    against the starting mean and inverse. An empty batch, or one whose
    rows are all refused, returns the model unchanged. Rows that are
    non-finite or not of length m raise InvalidInputError, as in
    ``update_online``.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[1] != model.m:
        raise InvalidInputError(f"expected rows of length {model.m}, got shape {xs.shape}")
    if not np.isfinite(xs).all():
        raise InvalidInputError("batch contains non-finite entries")
    alpha, beta = model.blend.alpha, model.blend.beta
    with np.errstate(over="ignore", invalid="ignore"):  # a huge row overflows q; it is refused
        start = xs - model.mu
        q = np.einsum("ij,ij->i", start @ model.cinv, start)
        xs = xs[beta / alpha * q * FLOAT_EPS < 1.0]
    if xs.shape[0] == 0:
        return model

    means = np.empty_like(xs)
    mu, n = model.mu, model.n
    for j, x in enumerate(xs):
        means[j] = mu
        mu = (n * mu + x) / (n + 1)
        n += 1
    resid = xs - means

    whitened_sq = np.einsum("ij,ij->i", resid @ model.cinv, resid)
    keep = whitened_sq >= linalg.DEGENERATE_NORM_SQ
    kept = resid[keep]
    k = kept.shape[0]
    # Row r carries weight beta * alpha^(K-1-r); scaling it by the square
    # root makes the sum one symmetric product.
    kept *= (math.sqrt(beta) * alpha ** (0.5 * np.arange(k - 1, -1, -1.0)))[:, None]
    cov, cinv, log_det, lam = _factorized(alpha**k * model.cov + kept.T @ kept)
    return GaussianModel(model.m, n, mu, cov, cinv, log_det, model.blend, 0,
                         model.jitter_used + lam)


@np.errstate(over="ignore", invalid="ignore")  # a huge x scores d² = inf
def score(model: GaussianModel, x, tau: float | None = None) -> Verdict:
    """Gaussian-density verdict for one vector against the current model.

    log density = -(m/2) log 2π - log|C|/2 - d²/2 with the Mahalanobis
    form d² = (x-mu)ᵀ C⁻¹ (x-mu). Without ``tau`` a point is anomalous when
    d² > ``MAHALANOBIS_SQ_LIMIT`` (distance 3); with it, when the
    log-density falls strictly below log tau (tau = 0 flags nothing). Both
    comparisons stay in log space, so they do not depend on the scale of
    the data; ``density`` is exp(log density), inf where that overflows.
    A finite point whose d² overflows scores d² = inf; a point with a
    non-finite entry raises InvalidInputError.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.m:
        raise InvalidInputError(f"expected a vector of length {model.m}, got shape {x.shape}")
    check_tau(tau)
    d = x - model.mu
    maha = float(d.dot(model.cinv).dot(d))
    if not math.isfinite(maha):
        if not np.isfinite(x).all():
            raise InvalidInputError("point contains non-finite entries")
        maha = math.inf  # d² of a finite x overflows to inf, or to NaN as inf - inf
    maha = max(maha, 0.0)
    log_density = -0.5 * (model.m * LOG_2PI + model.log_det + maha)
    try:
        density = math.exp(log_density)
    except OverflowError:
        density = math.inf
    if tau is None:
        is_anomaly = maha > MAHALANOBIS_SQ_LIMIT
    else:
        is_anomaly = tau > 0.0 and log_density < math.log(tau)
    return Verdict(log_density, density, maha, is_anomaly)


# --- checkpoint serialization ------------------------------------------------
#
# Flat text format: the version line, a header line "m n", a state line
# "alpha beta log_det updates_since_refactor jitter_used", then the mean,
# then the covariance rows, then the inverse-covariance rows, one line
# each, entries separated by single spaces with 17 significant digits
# (lossless for float64). The file holds the whole model, so a resumed
# stream continues exactly as one that never stopped.


def _fmt_row(row) -> str:
    return " ".join(f"{v:.17g}" for v in row)


def save_model(model: GaussianModel, dest) -> None:
    """Write a model checkpoint to a path or text file object."""
    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", encoding="ascii") as handle:
            save_model(model, handle)
        return
    dest.write(CHECKPOINT_VERSION + "\n")
    dest.write(f"{model.m} {model.n}\n")
    dest.write(
        f"{_fmt_row((model.blend.alpha, model.blend.beta, model.log_det))} "
        f"{model.updates_since_refactor} {model.jitter_used:.17g}\n"
    )
    dest.write(_fmt_row(model.mu) + "\n")
    for row in model.cov:
        dest.write(_fmt_row(row) + "\n")
    for row in model.cinv:
        dest.write(_fmt_row(row) + "\n")


def load_model(src) -> GaussianModel:
    """Read a checkpoint written by ``save_model``.

    Raises InvalidInputError unless the file starts with the current version
    line, every value is finite, the blend weights are valid, the refactor
    counter is in [0, ``REFACTOR_EVERY``), the jitter is >= 0, the
    covariance is symmetric and factorizes without jitter, the inverse is
    symmetric with a positive diagonal (near-singular models the detector
    writes may not factorize it), and the stored log-determinant is within
    ``LOG_DET_TOL`` of that factor's.
    """
    if isinstance(src, (str, os.PathLike)):
        with open(src, "r", encoding="ascii") as handle:
            return load_model(handle)
    lines = [line.strip() for line in src if line.strip()]
    if lines[:1] != [CHECKPOINT_VERSION]:
        raise InvalidInputError(f"checkpoint does not start with {CHECKPOINT_VERSION!r}")
    header = lines[1].split() if len(lines) > 1 else []
    if len(header) != 2:
        raise InvalidInputError("malformed checkpoint header")
    try:
        m, n = int(header[0]), int(header[1])
    except ValueError as exc:
        raise InvalidInputError(f"malformed checkpoint header: {lines[1]!r}") from exc
    if m < 1 or n < 1:
        raise InvalidInputError(f"checkpoint header out of range: m={m} n={n}")
    expected = 3 + 1 + 2 * m
    if len(lines) != expected:
        raise InvalidInputError(f"checkpoint has {len(lines)} lines, expected {expected}")

    try:
        alpha, beta, log_det, updates, jitter_used = lines[2].split()
        alpha, beta, log_det, jitter_used = map(float, (alpha, beta, log_det, jitter_used))
        updates = int(updates)
    except ValueError as exc:
        raise InvalidInputError(f"malformed checkpoint state: {lines[2]!r}") from exc
    if not all(map(math.isfinite, (alpha, beta, log_det, jitter_used))):
        raise InvalidInputError(f"non-finite checkpoint state: {lines[2]!r}")
    blend = CovBlend(alpha=alpha, beta=beta)
    if not 0 <= updates < REFACTOR_EVERY or jitter_used < 0.0:
        raise InvalidInputError(f"checkpoint state out of range: {lines[2]!r}")

    def parse_row(text, label):
        try:
            row = np.array([float(tok) for tok in text.split()], dtype=np.float64)
        except ValueError as exc:
            raise InvalidInputError(f"malformed {label} row: {text!r}") from exc
        if row.shape[0] != m:
            raise InvalidInputError(f"{label} row has {row.shape[0]} entries, expected {m}")
        if not np.isfinite(row).all():
            raise InvalidInputError(f"non-finite {label} row: {text!r}")
        return row

    mu = parse_row(lines[3], "mean")
    cov = np.vstack([parse_row(lines[4 + i], "covariance") for i in range(m)])
    cinv = np.vstack([parse_row(lines[4 + m + i], "inverse") for i in range(m)])
    if not np.array_equal(cov, cov.T):
        raise InvalidInputError("checkpoint covariance is not symmetric")
    if not np.array_equal(cinv, cinv.T):
        raise InvalidInputError("checkpoint inverse is not symmetric")
    if (np.diag(cinv) <= 0.0).any():
        raise InvalidInputError("checkpoint inverse has a non-positive diagonal entry")
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise InvalidInputError("checkpoint covariance does not factorize") from exc
    if abs(log_det - linalg.log_det_from_factor(factor)) > LOG_DET_TOL:
        raise InvalidInputError("checkpoint log-determinant does not match its covariance")
    return GaussianModel(
        m=m,
        n=n,
        mu=mu,
        cov=cov,
        cinv=cinv,
        log_det=log_det,
        blend=blend,
        updates_since_refactor=updates,
        jitter_used=jitter_used,
    )


def model_to_text(model: GaussianModel) -> str:
    """Checkpoint contents as a string (convenience for tests and tools)."""
    buf = io.StringIO()
    save_model(model, buf)
    return buf.getvalue()
