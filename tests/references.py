"""Reference implementations that only the tests call.

``exact_conditional`` is the exact law of the linear-Gaussian x_s conditional as one Gaussian, built from
``vi.conditional_coefficients``.  ``mh_correct`` is the MH correction as it was before it took its
normalizers once per call: each evaluation of its log weight calls ``gauss_log_density`` twice.  The
library's ``vi.mh_correct`` must match it bit for bit.
"""

from functools import partial
from typing import Callable

import numpy as np

from mgdm.priors import GaussianPrior
from mgdm.schedule import NoiseSchedule, gauss_log_density
from mgdm.vi import conditional_coefficients, independent_mh, variational_sample


def exact_conditional(
    likelihood, prior, schedule: NoiseSchedule, s: int, t: int, x0: np.ndarray, xt: np.ndarray
) -> GaussianPrior:
    """The exact law of pibar(. | x_0, x_t) for the linear-Gaussian case, a Gaussian."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    xt = np.atleast_1d(np.asarray(xt, dtype=np.float64))
    if x0.ndim != 1 or xt.ndim != 1:
        raise ValueError("exact_conditional takes single states; use conditional_coefficients for batches")
    coef_x0, coef_xt, shift, lam = conditional_coefficients(likelihood, prior, schedule, s, t)
    mean = coef_x0 @ x0 + coef_xt @ xt + shift
    return GaussianPrior(mean=mean, cov=lam)


def mh_correct(
    log_potential: Callable, bridge_mean: np.ndarray, bridge_var, current: np.ndarray, theta, n_steps: int, rng
) -> np.ndarray:
    """Refine a conditional draw by independent-proposal MH.

    Proposal: lambda = N(theta[0], diag(exp(theta[1]))), its variance taken once per call.
    Target: ghat_s times the bridge, through ``log_potential`` = log ghat_s alone (the sweep passes
    ``likelihoods.log_g_hat`` at s): MH reads no gradient, so it applies no vector-Jacobian product.
    """
    var = np.exp(theta[1])

    def log_weight(x):
        log_target = log_potential(x) + gauss_log_density(x, bridge_mean, bridge_var)
        return log_target - gauss_log_density(x, theta[0], var)

    return independent_mh(log_weight, partial(variational_sample, theta), current, n_steps, rng)
