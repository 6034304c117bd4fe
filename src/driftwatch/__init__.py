"""Streaming anomaly detection for univariate and multivariate data.

Univariate streams go through the probability-weighted moving-average
detector in ``pewma``; multivariate streams through the online Gaussian
model in ``detector``, whose covariance, inverse and log-determinant are
updated in O(m²) per point with the kernels in ``linalg``. ``harness``
holds the metric, the experiment protocols, and the synthetic generators;
``cli`` exposes everything as the ``driftwatch`` command.
"""

from .errors import InvalidInputError, NotPositiveDefiniteError
from .linalg import (
    CovBlend,
    cholesky_factorize,
    factor_rank_one_update,
    inverse_from_factor,
    log_det_from_factor,
    sherman_morrison_update,
    tri_solve_lower,
)
from .pewma import (
    PewmaParams,
    PewmaState,
    Verdict,
    ewma_step,
    pewma_init,
    pewma_step,
)
from .detector import (
    GaussianModel,
    derive_blend,
    fit_static,
    load_model,
    save_model,
    score,
    update_many,
    update_online,
)
from .harness import (
    AadReport,
    ShiftSpec,
    aad,
    gen_random_stream,
    gen_shift_stream,
    run_experiment_1,
    run_experiment_2,
)

__version__ = "0.1.0"
