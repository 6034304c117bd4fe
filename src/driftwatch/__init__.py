"""Streaming anomaly detection for univariate and multivariate data.

Univariate streams go through the probability-weighted moving-average
detector in ``pewma``; multivariate streams through the online Gaussian
model in ``detector``, which carries its covariance as a scaled square
root and that root's inverse, updates both in O(m²) per point, and
rebuilds them with the QR kernel in ``linalg``. ``harness`` holds the
metric, the experiment protocols, and the synthetic generators; ``cli``
exposes everything as the ``driftwatch`` command. numpy loads on the first
multivariate call: univariate ``detect`` needs only the standard library and click.
"""

from .errors import InvalidInputError
from .linalg import (
    CovBlend,
    cholesky_factorize,
    factor_rank_one_update,
    inverse_from_factor,
    sherman_morrison_update,
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
    load_checkpoint,
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
