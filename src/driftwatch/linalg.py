"""Dense numerical kernels for streaming covariance maintenance.

``cholesky_factorize`` is the one factorization the detector runs: the
Cholesky factor of a Gram matrix from one QR of its rows, with one jitter
step for rank-deficient rows, and the factor's inverse and
log-determinant. Rank-one updates of a lower-triangular factor,
Sherman-Morrison inverse updates, and the exact inverse from a factor are
public kernels beside it.
All functions are pure: they take plain float64 numpy arrays (rows
``(k, m)``, matrices ``(m, m)``, vectors ``(m,)``) and return fresh
arrays, so values can be shared across threads freely.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from ._numpy import LazyNumpy
from .errors import InvalidInputError

np = LazyNumpy(__name__)
DEFAULT_JITTER = 1e-10
DEGENERATE_NORM_SQ = 1e-30
SINGULAR_DENOMINATOR = 1e-12
FLOAT_EPS = sys.float_info.epsilon
_triu_indices = functools.cache(lambda m: np.triu_indices(m, 1))


@dataclass(frozen=True)
class CovBlend:
    """Weights of the covariance blend ``C' = alpha * C + beta * v vᵀ``.

    ``alpha`` must be strictly positive; ``beta`` may be zero, which turns
    the blend into a pure rescaling of the old covariance.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise InvalidInputError(f"blend alpha must be finite and > 0, got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise InvalidInputError(f"blend beta must be finite and >= 0, got {self.beta}")


def _as_square_matrix(c, name: str) -> np.ndarray:
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise InvalidInputError(f"{name} must be a square matrix, got shape {c.shape}")
    return c


def _as_vector(b, dim: int, name: str) -> np.ndarray:
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1 or b.shape[0] != dim:
        raise InvalidInputError(f"{name} must be a vector of length {dim}, got shape {b.shape}")
    return b


def cholesky_factorize(rows) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Lower Cholesky factor of the Gram matrix ``C = rowsᵀ rows``, from one QR
    of the rows, so C itself is never formed.

    Returns ``(a, b, log_det, lam)``: ``a`` is lower-triangular with a positive
    diagonal and ``a @ a.T == C + lam * I``, ``b`` is ``a⁻¹`` and ``log_det``
    is ``log |C + lam I| = 2 Σ log aᵢᵢ``. ``rows`` is a (k, m) array. R is
    read from the raw QR, LAPACK's ``geqrf`` output transposed: Rᵀ is its
    lower triangle, and the reflectors above it are zeroed. A diagonal entry
    of R at or below ``max(k, m) * eps * max |Rⱼⱼ|`` (numpy's ``matrix_rank``
    tolerance) counts as rank-deficient; ``lam`` is 0 unless that happens,
    when the QR is taken once more with ``sqrt(DEFAULT_JITTER) * I`` stacked
    under the rows and ``lam`` is ``DEFAULT_JITTER``.

    Raises InvalidInputError for input that is not 2-D, has no columns or is
    not finite, and when the rows are still rank-deficient with the jitter.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise InvalidInputError(f"rows must be a 2-D array with columns, got shape {rows.shape}")
    if not np.isfinite(rows).all():
        raise InvalidInputError("rows contain non-finite entries")
    m = rows.shape[1]
    for lam in (0.0, DEFAULT_JITTER):
        if lam:
            rows = np.vstack([rows, math.sqrt(lam) * np.eye(m)])
        rt = np.linalg.qr(rows, mode="raw")[0][:, :m]
        signs = rt.diagonal()
        diag = np.abs(signs)
        # Passing this test makes the diagonal finite and positive (NaN and
        # inf fail it), and A's diagonal is exactly |Rᵢᵢ|.
        if diag.size == m and diag.min() > max(rows.shape) * FLOAT_EPS * diag.max():
            rt[_triu_indices(m)] = 0.0
            # C order, as a checkpoint reloads it: BLAS sums in memory order.
            a = np.multiply(rt, np.sign(signs), order="C")
            return a, np.linalg.inv(a), 2.0 * float(np.add.reduce(np.log(diag))), lam
    raise InvalidInputError(f"rows are rank-deficient even with jitter {DEFAULT_JITTER:g}")


def factor_rank_one_update(a, z, blend: CovBlend) -> np.ndarray:
    """Lower-triangular factor of ``alpha * A Aᵀ + beta * v vᵀ`` with ``v = A z``.

    Computed as a rank-one Cholesky update of ``sqrt(alpha) * A`` with the
    vector ``sqrt(beta) * v``: O(m²), and the result keeps a strictly
    positive diagonal. (Adding the rank-one term ``v zᵀ`` to the factor
    directly would yield a dense square root of the same blend; the
    triangular factor of that blend is unique, and triangularity is what
    keeps forward substitution and the diagonal log-determinant valid.)

    Raises InvalidInputError when ``‖z‖²`` is below 1e-30 or not finite
    (a non-finite or huge entry); callers should skip such directions.
    """
    a = _as_square_matrix(a, "factor")
    z = _as_vector(z, a.shape[0], "direction")
    with np.errstate(over="ignore", invalid="ignore"):  # a huge finite z overflows ‖z‖²
        norm_sq = float(z @ z)
    if not math.isfinite(norm_sq):
        raise InvalidInputError(f"direction norm² {norm_sq:g} is non-finite")
    if norm_sq < DEGENERATE_NORM_SQ:
        raise InvalidInputError(f"direction norm² {norm_sq:g} is degenerate")
    out = a * math.sqrt(blend.alpha)
    x = (a @ z) * math.sqrt(blend.beta)
    # Rotate x into the columns of out one at a time (Gill, Golub, Murray
    # & Saunders 1974): afterwards out outᵀ gains exactly x xᵀ.
    for k in range(out.shape[0]):
        lkk, xk = out[k, k], x[k]
        r = math.sqrt(lkk * lkk + xk * xk)
        c, s = r / lkk, xk / lkk
        out[k, k] = r
        out[k + 1 :, k] = (out[k + 1 :, k] + s * x[k + 1 :]) / c
        x[k + 1 :] = c * x[k + 1 :] - s * out[k + 1 :, k]
    return out


def sherman_morrison_update(cinv, v, blend: CovBlend) -> np.ndarray:
    """Inverse of ``alpha * C + beta * v vᵀ`` given ``cinv = C⁻¹``.

    Uses the rank-one inverse identity

        (1/alpha) * (C⁻¹ - (beta/alpha) * C⁻¹ v vᵀ C⁻¹ / (1 + (beta/alpha) vᵀ C⁻¹ v))

    on the symmetrized input, so an exactly symmetric result follows. Raises
    InvalidInputError when the denominator falls to 1e-12 or below.
    """
    cinv = _as_square_matrix(cinv, "inverse covariance")
    cinv = 0.5 * (cinv + cinv.T)
    v = _as_vector(v, cinv.shape[0], "direction")
    w = cinv.dot(v)
    gamma = blend.beta / blend.alpha
    denom = 1.0 + gamma * float(v.dot(w))
    if not math.isfinite(denom) or denom <= SINGULAR_DENOMINATOR:
        raise InvalidInputError(f"rank-one denominator {denom:g} is not safely positive")
    return (cinv - np.multiply.outer(w, w) * (gamma / denom)) / blend.alpha


def inverse_from_factor(a) -> np.ndarray:
    """``(A Aᵀ)⁻¹`` from a lower-triangular factor, via triangular inversion.

    Inverts ``A``, then forms ``A⁻ᵀ A⁻¹``; the result is symmetrized. Raises
    InvalidInputError unless the factor's diagonal is finite and positive.
    """
    a = _as_square_matrix(a, "factor")
    diag = np.diag(a)
    if not (np.isfinite(diag).all() and (diag > 0.0).all()):
        raise InvalidInputError("factor diagonal must be finite and strictly positive")
    w = np.linalg.inv(np.tril(a))
    out = w.T @ w
    return 0.5 * (out + out.T)
