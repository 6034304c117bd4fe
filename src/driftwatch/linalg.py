"""Dense numerical kernels for streaming covariance maintenance.

Cholesky factorization with jitter escalation, forward substitution,
rank-one updates of a lower-triangular factor, Sherman-Morrison inverse
updates, and the exact inverse and log-determinant from a factor. All
functions are pure: they take plain float64 numpy arrays (matrices
``(m, m)``, vectors ``(m,)``) and return fresh arrays, so values can be
shared across threads freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NotPositiveDefiniteError

DEFAULT_JITTER = 1e-10
MAX_JITTER_DOUBLINGS = 40
DEGENERATE_NORM_SQ = 1e-30
SINGULAR_DENOMINATOR = 1e-12
SYMMETRY_TOL = 1e-9


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


def cholesky_factorize(c) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a symmetric matrix, with jitter escalation.

    Returns ``(factor, lam)`` where ``factor @ factor.T == c + lam * I``.
    ``lam`` is 0 when ``c`` factorizes directly; otherwise the smallest
    ``DEFAULT_JITTER * 2**k`` (k = 0, 1, 2, ...) that makes factorization
    succeed.

    Raises InvalidInputError for non-square, non-finite, or asymmetric
    input, and NotPositiveDefiniteError once the escalation ladder is
    exhausted after ``MAX_JITTER_DOUBLINGS`` doublings.
    """
    c = _as_square_matrix(c, "covariance")
    if not np.isfinite(c).all():
        raise InvalidInputError("covariance contains non-finite entries")
    scale = max(1.0, float(np.abs(c).max())) if c.size else 1.0
    if c.size and float(np.abs(c - c.T).max()) > SYMMETRY_TOL * scale:
        raise InvalidInputError("covariance is not symmetric")
    c = 0.5 * (c + c.T)

    eye = np.eye(c.shape[0])
    ladder = [0.0] + [DEFAULT_JITTER * 2.0**k for k in range(MAX_JITTER_DOUBLINGS + 1)]
    for lam in ladder:
        try:
            return np.linalg.cholesky(c + lam * eye), lam
        except np.linalg.LinAlgError:
            continue
    raise NotPositiveDefiniteError(
        f"factorization failed after {MAX_JITTER_DOUBLINGS} jitter doublings (last lam={ladder[-1]:g})"
    )


def tri_solve_lower(a, b) -> np.ndarray:
    """Solve ``A y = b`` for lower-triangular ``A`` by forward substitution."""
    a = _as_square_matrix(a, "factor")
    b = _as_vector(b, a.shape[0], "rhs")
    out = np.empty_like(b)
    for i in range(a.shape[0]):
        out[i] = (b[i] - a[i, :i] @ out[:i]) / a[i, i]
    return out


def factor_rank_one_update(a, z, blend: CovBlend) -> np.ndarray:
    """Lower-triangular factor of ``alpha * A Aᵀ + beta * v vᵀ`` with ``v = A z``.

    Computed as a rank-one Cholesky update of ``sqrt(alpha) * A`` with the
    vector ``sqrt(beta) * v``: O(m²), and the result keeps a strictly
    positive diagonal. (Adding the rank-one term ``v zᵀ`` to the factor
    directly would yield a dense square root of the same blend; the
    triangular factor of that blend is unique, and triangularity is what
    keeps forward substitution and the diagonal log-determinant valid.)

    Raises InvalidInputError when ``‖z‖²`` is below 1e-30; callers should
    skip the update for such directions.
    """
    a = _as_square_matrix(a, "factor")
    z = _as_vector(z, a.shape[0], "direction")
    norm_sq = float(z @ z)
    if not math.isfinite(norm_sq):
        raise InvalidInputError("direction contains non-finite entries")
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

    A rank-one update by w wᵀ maps an exactly symmetric ``cinv`` to an
    exactly symmetric result, so this wrapper symmetrizes its input once and
    the core ``_sherman_morrison`` never has to. Validates its inputs, and
    raises InvalidInputError when the denominator falls to 1e-12 or below.
    """
    cinv = _as_square_matrix(cinv, "inverse covariance")
    cinv = 0.5 * (cinv + cinv.T)
    v = _as_vector(v, cinv.shape[0], "direction")
    w = cinv.dot(v)
    q = float(v.dot(w))
    denom = 1.0 + blend.beta / blend.alpha * q
    if not math.isfinite(denom) or denom <= SINGULAR_DENOMINATOR:
        raise InvalidInputError(f"rank-one denominator {denom:g} is not safely positive")
    return _sherman_morrison(cinv, w, q, blend)


def _sherman_morrison(cinv: np.ndarray, w: np.ndarray, q: float, blend: CovBlend) -> np.ndarray:
    """The identity above from w = C⁻¹ v and q = vᵀ w; trusts the caller."""
    gamma = blend.beta / blend.alpha
    return (cinv - np.multiply.outer(w, w) * (gamma / (1.0 + gamma * q))) / blend.alpha


def log_det_from_factor(a) -> float:
    """``log |A Aᵀ| = 2 Σ log aᵢᵢ`` for a lower-triangular factor ``A``."""
    a = _as_square_matrix(a, "factor")
    diag = np.diag(a)
    if diag.size and (not np.isfinite(diag).all() or (diag <= 0.0).any()):
        raise InvalidInputError("factor diagonal must be finite and strictly positive")
    return 2.0 * float(np.sum(np.log(diag)))


def inverse_from_factor(a) -> np.ndarray:
    """``(A Aᵀ)⁻¹`` from a lower-triangular factor, via triangular inversion.

    Inverts ``A``, then forms ``A⁻ᵀ A⁻¹``; the result is symmetrized. This
    is the exact rebuild used to clear accumulated drift in a maintained
    inverse.
    """
    a = _as_square_matrix(a, "factor")
    diag = np.diag(a)
    if diag.size and (not np.isfinite(diag).all() or (diag <= 0.0).any()):
        raise InvalidInputError("factor diagonal must be finite and strictly positive")
    w = np.linalg.inv(np.tril(a))
    out = w.T @ w
    return 0.5 * (out + out.T)
