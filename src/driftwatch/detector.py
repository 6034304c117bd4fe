"""Multivariate online Gaussian anomaly detection.

A model is fit on an initial batch, then updated point by point in O(m²).
It carries the covariance as a scale s, a square root A and its inverse
B, C = s A Aᵀ and C⁻¹ = Bᵀ B / s, so the condition number it works with
is the square root of C's. A and Bᵀ are stacked in one (2m, m) array, and
one point is one outer product on that stack, the square-root covariance
update of CMA-ES (Igel, Suttorp & Hansen 2006; Krause, Arbonès & Igel
2016); the log-determinant follows by the matrix determinant lemma, and the
mean is the running sum of the absorbed points over their count,
mean = sum / n. ``_extend_fit``, the one batch fit for
``fit_static`` and the experiment's prefix fits, extends a prior fit by new
rows in one QR, or fits all rows afresh without a prior or after one that
needed jitter. ``update_many`` absorbs a whole batch
in closed form, from one QR by ``linalg.cholesky_factorize``, and holds
the one rule for refusing a point. ``update_online`` takes the one-outer-
product step and hands every other point to ``update_many`` as a batch of
one: when drift shows, when a point's rank-one term swamps C, when the
running sum overflows, or every ``REFACTOR_EVERY`` updates (a constant,
like the starting jitter). ``score`` flags a point farther than
Mahalanobis distance 3 or, given a density threshold tau, one whose
log-density falls below log tau; it returns the ``Verdict`` that
``pewma`` defines for both detectors. ``GaussianModel``, built once per
point, is a plain slotted dataclass, not frozen; no function here mutates
the model it is given (the updates return a new one), and callers treat
it as read-only. A checkpoint is the text ``model_to_text`` writes and
``model_from_text`` reads; ``save_model`` and ``load_checkpoint`` add the file.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from . import linalg
from ._numpy import LazyNumpy, errstate
from .errors import InvalidInputError
from .linalg import FLOAT_EPS, CovBlend
from .pewma import Verdict, check_tau

np = LazyNumpy(__name__)
LOG_2PI = math.log(2.0 * math.pi)
DRIFT_LIMIT = 1e-4
REFACTOR_EVERY = 256
LOG_DET_TOL = 1e-6
MAHALANOBIS_SQ_LIMIT = 9.0
CHECKPOINT_VERSION = "driftwatch-model 5"

@dataclass(slots=True)
class GaussianModel:
    """Gaussian stream model N(mu, C), with C = s A Aᵀ and B = A⁻¹.

    ``root`` is the one C-ordered (2m, m) array ``[A; Bᵀ]``: both rank-one
    terms of an update share their right vector, so one outer product
    updates the stack. A is ``root[:m]`` and B is ``root[m:].T``.
    ``total`` is the running sum of the ``n`` absorbed points and the mean
    is always derived from it, ``mu = total / n``; the sum is carried, not
    the mean, so one point and a batch of points share one recurrence.
    C includes any jitter a factorization needed (all of it summed in
    ``jitter_used``), and ``log_det`` tracks log |C|. ``blend`` holds the
    forgetting weights applied per update, and ``updates_since_refactor``
    counts rank-one updates since A, B and the log-determinant were last
    rebuilt exactly (which sets s to 1). ``cov`` and ``cinv`` derive C and
    C⁻¹ on each access, for reading only.
    """

    m: int
    n: int
    total: np.ndarray
    mu: np.ndarray
    s: float
    root: np.ndarray
    log_det: float
    blend: CovBlend
    updates_since_refactor: int = 0
    jitter_used: float = 0.0

    @property
    def cov(self) -> np.ndarray:
        a = self.root[: self.m]
        return self.s * (a @ a.T)

    @property
    def cinv(self) -> np.ndarray:
        bt = self.root[self.m :]
        return (bt @ bt.T) / self.s


def derive_blend(n_static: int) -> CovBlend:
    """Blend weights from the static sample size.

    c_cov = 2 / (n² + 6) and alpha = 1 - c_cov, beta = c_cov, so the
    weights always sum to one and approach (1, 0) as n grows.
    """
    if n_static < 1:
        raise InvalidInputError(f"static sample size must be >= 1, got {n_static}")
    c_cov = 2.0 / (float(n_static) ** 2 + 6.0)
    return CovBlend(alpha=1.0 - c_cov, beta=c_cov)


def _factored(n: int, total: np.ndarray, blend: CovBlend, jitter_used: float, rows):
    """The model of ``n`` points summing to ``total`` whose covariance is
    ``rowsᵀ rows``, from one QR of the rows; raises InvalidInputError where
    that fails."""
    a, b, log_det, lam = linalg.cholesky_factorize(rows)
    return GaussianModel(total.shape[0], n, total, total / n, 1.0, np.concatenate((a, b.T)),
                         log_det, blend, 0, jitter_used + lam)


def fit_static(data) -> GaussianModel:
    """Fit the model on the initial batch: mean and unbiased covariance.

    ``data`` is an (n, m) array (or a sequence of length-m vectors; plain
    1-D input is treated as n scalar samples). Requires n >= m + 1 so the
    sample covariance has full rank; the blend weights derive from n. The
    QR of ``linalg.cholesky_factorize`` refuses non-finite data.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2:
        raise InvalidInputError(f"expected 2-D data, got shape {data.shape}")
    n, m = data.shape
    if n <= m:
        raise InvalidInputError(f"need at least {m + 1} samples for dimension {m}, got {n}")
    return _extend_fit(None, data)


@errstate(over="ignore", invalid="ignore")  # huge rows overflow the moments; they are refused
def _extend_fit(prior: GaussianModel | None, data: np.ndarray) -> GaussianModel:
    """The fit of the (n, m) float64 ``data`` whose first ``prior.n`` rows
    ``prior`` fits, from one QR. With no prior, or one that needed jitter,
    the QR is of the centred rows over sqrt(n - 1). Otherwise it adds the k
    new rows by the pairwise update of Chan, Golub & LeVeque (1979), where
    the scatter of the union is the two scatters plus (n1 k / n) δ δᵀ, δ the
    difference of the two means: the QR is of sqrt((n1 - 1) s) Aᵀ, the
    centred new rows and sqrt(n1 k / n) δ, all over sqrt(n - 1)."""
    n = data.shape[0]
    if prior is None or prior.jitter_used:
        total = data.sum(axis=0)
        rows = data - total / n
        rows /= math.sqrt(n - 1)
        return _factored(n, total, derive_blend(n), 0.0, rows)
    m, k = prior.m, n - prior.n
    new_total = data[prior.n :].sum(axis=0)
    new_mu = new_total / k
    rows = np.empty((m + k + 1, m))
    np.multiply(math.sqrt((prior.n - 1) * prior.s), prior.root[:m].T, out=rows[:m])
    np.subtract(data[prior.n :], new_mu, out=rows[m:-1])
    np.multiply(math.sqrt(prior.n * k / n), prior.mu - new_mu, out=rows[-1])
    rows /= math.sqrt(n - 1)
    return _factored(n, prior.total + new_total, derive_blend(n), 0.0, rows)


@errstate(over="ignore", invalid="ignore")  # a huge x overflows q or the sum
def update_online(model: GaussianModel, x) -> GaussianModel:
    """Absorb one point: blend the covariance, update the mean.

    With the residual d = x - mu against the pre-update mean, u = B d,
    q = uᵀu / s = dᵀ C⁻¹ d and gamma = beta / alpha, the covariance becomes
    C' = alpha C + beta d dᵀ = s' A' A'ᵀ: with r = sqrt(1 + gamma q) and
    c = (gamma / s) / (r + 1),

        A' = A + c (A u) uᵀ,   Bᵀ' = Bᵀ - (c / r)(Bᵀ u) uᵀ,   s' = alpha s.

    Both terms share the right vector u, so one matvec of the stacked root
    [A; Bᵀ] with u gives A u and Bᵀ u, and one outer product updates the
    stack. The log-determinant follows by the matrix determinant lemma,
    log |C'| = log |C| + m log alpha + log1p(gamma q). All of it is O(m²),
    and nothing divides by q, so x at the mean (q = 0) leaves A and B as
    they were: C' = alpha C.

    This step is taken when fewer than ``REFACTOR_EVERY`` rank-one updates
    follow the last rebuild, gamma q eps < ``DRIFT_LIMIT`` with eps the
    machine epsilon, the entries of the running sum with x added have a
    finite sum, and the pair shows no drift along d,
    ‖A u - d‖₂ <= ``DRIFT_LIMIT`` ‖d‖₂, both norms by ``math.hypot``, which
    does not overflow where ‖d‖₂² would.
    Any other point is ``update_many(model, x[None, :])``, which refuses it
    or rebuilds A, B and the log-determinant exactly; a point whose rebuild
    is rank-deficient even with jitter is refused, and the model returned.
    """
    x = np.asarray(x, dtype=np.float64)
    m = model.m
    if x.ndim != 1 or x.shape[0] != m:
        raise InvalidInputError(f"expected a vector of length {m}, got shape {x.shape}")
    root = model.root
    d = x - model.mu
    # ndarray.dot makes the same BLAS call as @ at half its overhead on small arrays.
    u = d.dot(root[m:])
    q = float(u.dot(u)) / model.s
    alpha = model.blend.alpha
    gamma = model.blend.beta / alpha
    total = model.total + x
    v = root.dot(u)  # A u, then Bᵀ u
    e = v[:m] - d
    updates = model.updates_since_refactor + 1
    # A sum of finite entries that overflows only sends x to update_many.
    if (updates < REFACTOR_EVERY and gamma * q * FLOAT_EPS < DRIFT_LIMIT
            and math.isfinite(total.sum())
            and math.hypot(*e.tolist()) <= DRIFT_LIMIT * math.hypot(*d.tolist())):
        r = math.sqrt(1.0 + gamma * q)
        c = gamma / model.s / (r + 1.0)
        v[:m] *= c
        v[m:] *= -c / r
        log_det = model.log_det + m * math.log(alpha) + math.log1p(gamma * q)
        n = model.n + 1
        return GaussianModel(m, n, total, total / n, alpha * model.s,
                             root + np.multiply.outer(v, u), log_det, model.blend, updates,
                             model.jitter_used)
    # A non-finite entry fails the test above, so only here is x checked.
    if not np.isfinite(x).all():
        raise InvalidInputError("point contains non-finite entries")
    try:
        return update_many(model, x[None, :])
    except InvalidInputError:  # rank-deficient even with jitter
        return model


def update_many(model: GaussianModel, xs) -> GaussianModel:
    """Absorb the rows of ``xs`` at once: the model that folding
    ``update_online`` over them gives, in closed form.

    A row is refused when q is not finite or its rank-one term would swamp
    C in float64, (beta/alpha) q eps >= 1 with eps the machine epsilon, with
    q taken against the starting mean and inverse; every other row is
    blended. The residuals d_j = x_j - mu_j of the K blended rows are taken
    against the running mean, mu_j = (running sum) / (n + j), one prefix sum
    in the row order ``update_online`` adds them, so the sums and means match
    it bit for bit. A prefix sum that overflows stays non-finite, so the
    first row whose prefix sum is not finite is refused with every row after
    it. The covariance is

        C_K = alpha^K C_0 + sum_r beta alpha^(K-1-r) d_r d_rᵀ,

    factorized by one QR of sqrt(alpha^K s) Aᵀ stacked on the weighted
    residual rows; ``updates_since_refactor`` is 0. Those m + K rows, and
    the prefix sums they are made from, are built in place in one
    (m + K + 1, m) buffer. Any jitter the QR needs is added to the
    covariance and to ``jitter_used``. An empty batch, or one whose rows are
    all refused, returns the model unchanged. Rows that are non-finite or
    not of length m raise InvalidInputError, as in ``update_online``.
    """
    xs = np.asarray(xs, dtype=np.float64)
    m = model.m
    if xs.ndim != 2 or xs.shape[1] != m:
        raise InvalidInputError(f"expected rows of length {m}, got shape {xs.shape}")
    if not np.isfinite(xs).all():
        raise InvalidInputError("batch contains non-finite entries")
    alpha, beta = model.blend.alpha, model.blend.beta
    with np.errstate(over="ignore", invalid="ignore"):  # huge rows overflow q or the sum; refused
        u = (xs - model.mu) @ model.root[m:]
        q = np.einsum("ij,ij->i", u, u) / model.s
        keep = beta / alpha * q * FLOAT_EPS < 1.0  # NaN and inf fail it
        if not keep.all():
            xs = xs[keep]
        k = xs.shape[0]
        if k == 0:
            return model
        # Rows m.. hold the starting sum, then the rows: their prefix sums
        # are ((t0 + x0) + x1) + ..., the order of update_online's additions,
        # and row m + j becomes the sum before row j.
        rows = np.empty((m + k + 1, m))
        sums = rows[m:]
        sums[0] = model.total
        sums[1:] = xs
        np.cumsum(sums, axis=0, out=sums)
    if not np.isfinite(sums[-1]).all():  # refuse the first row that overflows and all after it
        k = int(np.isfinite(sums[1:]).all(axis=1).argmin())
        if k == 0:
            return model
        rows, sums, xs = rows[: m + k + 1], sums[: k + 1], xs[:k]
    # The residual rows, in place: mean, residual, then weight
    # beta * alpha^(K-1-r) on row r by its square root, so the sum is one
    # product of the stacked rows.
    resid = sums[:-1]
    resid /= np.arange(model.n, model.n + k, dtype=np.float64)[:, None]
    np.subtract(xs, resid, out=resid)
    resid *= (math.sqrt(beta) * alpha ** (0.5 * np.arange(k - 1, -1, -1.0)))[:, None]
    np.multiply(math.sqrt(alpha**k * model.s), model.root[:m].T, out=rows[:m])
    # A copy, so the model keeps no view of the buffer.
    return _factored(model.n + k, sums[-1].copy(), model.blend, model.jitter_used, rows[:-1])


@errstate(over="ignore", invalid="ignore")  # a huge x scores d² = inf
def score(model: GaussianModel, x, tau: float | None = None) -> Verdict:
    """Gaussian-density verdict for one vector against the current model.

    log density = -(m/2) log 2π - log|C|/2 - d²/2 with the Mahalanobis
    form d² = (x-mu)ᵀ C⁻¹ (x-mu) = ‖B (x-mu)‖² / s. Without ``tau`` a point
    is anomalous when d² > ``MAHALANOBIS_SQ_LIMIT`` (distance 3); with it,
    when the log-density falls strictly below log tau (tau = 0 flags nothing). Both
    comparisons stay in log space, so they do not depend on the scale of
    the data; ``density`` is exp(log density), inf where that overflows.
    A finite point whose d² overflows scores d² = inf; a point with a
    non-finite entry raises InvalidInputError.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.m:
        raise InvalidInputError(f"expected a vector of length {model.m}, got shape {x.shape}")
    check_tau(tau)
    u = (x - model.mu).dot(model.root[model.m :])
    maha = float(u.dot(u)) / model.s
    if not math.isfinite(maha):
        if not np.isfinite(x).all():
            raise InvalidInputError("point contains non-finite entries")
        maha = math.inf  # d² of a finite x overflows to inf, or to NaN as inf - inf
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
# ``model_to_text`` is the one writer of this format and ``model_from_text``
# the one reader; ``save_model`` and ``load_checkpoint`` only touch the path.
# Flat text format: the version line, a header line "m n", a state line
# "alpha beta log_det updates_since_refactor jitter_used s points", then the
# running sum of the absorbed points (the mean is derived, sum / n), then
# the rows of A, then the rows of B, one line each, entries separated by
# single spaces with 17 significant digits (lossless for float64). The file
# holds the whole model and the count of data points the stream consumed
# (refused points included), so a resumed stream continues exactly, and
# numbers its points, as one that never stopped.


def _fmt_row(row) -> str:
    return " ".join(f"{v:.17g}" for v in row)


def model_to_text(model: GaussianModel, points: int | None = None) -> str:
    """The checkpoint text of ``model`` and ``points``, the count of data
    points consumed, ``model.n`` unless given. A count below ``model.n``,
    which ``model_from_text`` would refuse, raises InvalidInputError."""
    points = model.n if points is None else points
    if points < model.n:
        raise InvalidInputError(f"checkpoint point count {points} is below n = {model.n}")
    state = (f"{_fmt_row((model.blend.alpha, model.blend.beta, model.log_det))} "
             f"{model.updates_since_refactor} {_fmt_row((model.jitter_used, model.s))} {points}")
    rows = map(_fmt_row, (model.total, *model.root[: model.m], *model.root[model.m :].T))
    return "\n".join((CHECKPOINT_VERSION, f"{model.m} {model.n}", state, *rows, ""))


def model_from_text(text: str) -> tuple[GaussianModel, int]:
    """Read checkpoint text written by ``model_to_text``: the model and the
    count of data points consumed. Lines end at "\\n" alone, as in a file.

    Raises InvalidInputError unless the text starts with the current version
    line, every value is finite, the blend weights are of the
    form ``derive_blend`` gives, 0 < beta < 1 and alpha = 1 - beta, the refactor
    counter is in [0, ``REFACTOR_EVERY``), the jitter is >= 0, s is > 0, the
    point count is at least n, A factorizes by QR without jitter,
    ‖A B - I‖max is at most ``DRIFT_LIMIT``, and the stored log-determinant
    is within ``LOG_DET_TOL`` + m ‖A B - I‖max of the QR's. That last term
    covers the rounding of a B that is not exactly A⁻¹.
    """
    lines = [line for line in map(str.strip, text.split("\n")) if line]
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
        alpha, beta, log_det, updates, jitter_used, s, points = lines[2].split()
        alpha, beta, log_det, jitter_used, s = map(float, (alpha, beta, log_det, jitter_used, s))
        updates, points = int(updates), int(points)
    except ValueError as exc:
        raise InvalidInputError(f"malformed checkpoint state: {lines[2]!r}") from exc
    if not all(map(math.isfinite, (alpha, beta, log_det, jitter_used, s))):
        raise InvalidInputError(f"non-finite checkpoint state: {lines[2]!r}")
    blend = CovBlend(alpha=alpha, beta=beta)
    if not (0.0 < beta < 1.0 and alpha == 1.0 - beta):
        raise InvalidInputError(f"checkpoint blend weights are not 1 - beta, beta with "
                                f"0 < beta < 1: {lines[2]!r}")
    if not 0 <= updates < REFACTOR_EVERY or jitter_used < 0.0 or s <= 0.0 or points < n:
        raise InvalidInputError(f"checkpoint state out of range: {lines[2]!r}")

    def parse_row(line, label):
        try:
            row = np.array([float(tok) for tok in line.split()], dtype=np.float64)
        except ValueError as exc:
            raise InvalidInputError(f"malformed {label} row: {line!r}") from exc
        if row.shape[0] != m:
            raise InvalidInputError(f"{label} row has {row.shape[0]} entries, expected {m}")
        if not np.isfinite(row).all():
            raise InvalidInputError(f"non-finite {label} row: {line!r}")
        return row

    total = parse_row(lines[3], "sum")
    a = np.vstack([parse_row(lines[4 + i], "square-root") for i in range(m)])
    b = np.vstack([parse_row(lines[4 + m + i], "inverse") for i in range(m)])
    # Huge entries overflow sqrt(s) Aᵀ or A B to inf, which the checks refuse.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            _, _, qr_log_det, lam = linalg.cholesky_factorize(math.sqrt(s) * a.T)
        except InvalidInputError as exc:
            raise InvalidInputError("checkpoint square root does not factorize") from exc
        residual = float(np.abs(a @ b - np.eye(m)).max())
    if lam:
        raise InvalidInputError("checkpoint square root does not factorize without jitter")
    if not residual <= DRIFT_LIMIT:  # NaN where A B sums inf - inf
        raise InvalidInputError(f"checkpoint inverse does not invert its square root: "
                                f"max |A B - I| = {residual:g}")
    if abs(log_det - qr_log_det) > LOG_DET_TOL + m * residual:
        raise InvalidInputError("checkpoint log-determinant does not match its square root")
    return GaussianModel(m, n, total, total / n, s, np.concatenate((a, b.T)), log_det, blend,
                         updates, jitter_used), points


def save_model(model: GaussianModel, path, points: int | None = None) -> None:
    """Write ``model_to_text(model, points)`` to ``<path>.tmp``, then rename it
    over ``path``. Once that file is open, any failure removes it, so the old
    file stays; a ``<path>.tmp`` that cannot be opened is left alone."""
    text = model_to_text(model, points)
    tmp = os.fspath(path) + ".tmp"
    handle = open(tmp, "w", encoding="ascii")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def load_checkpoint(path) -> tuple[GaussianModel, int]:
    """``model_from_text`` of the file at ``path``, read as ASCII; any other byte is refused."""
    with open(path, encoding="ascii", errors="replace") as handle:
        return model_from_text(handle.read())
