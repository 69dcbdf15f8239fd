"""Diagonal-Gaussian variational fit of the guided bridge conditional.

The target is the conditional of the extended Gibbs distribution,

    pibar(x_s | x_0, x_t)  propto  ghat_s(x_s) q(x_s | x_0, x_t),

approximated by lambda = N(mu, diag(exp(rho))), held as one plain array
theta of shape (2, ..., d) with theta[0] = mu and theta[1] = rho.  The fit
minimizes the reverse KL by Adam on single-sample reparameterized
gradients; the squared-norm term of the KL-to-bridge part is estimated
with the sampled point rather than its closed-form expectation (computing
it exactly is known to behave worse), and the entropy term contributes
-1/2 per rho coordinate.  A fit draws all its noise in one call.
Initialization is the bridge itself, so zero gradient steps reproduce an
exact bridge draw.  The fit and the MH correction read the bridge's mean
and variance from the Gibbs sweep and level s through a guide or a log
potential: no likelihood, prior, schedule or chain state.

For a Gaussian prior with a linear-Gaussian likelihood the conditional is
Gaussian and available exactly (``exact_conditional``); an optional
independent-proposal Metropolis-Hastings correction targets the same
conditional using the fitted lambda as proposal.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

import numpy as np

from .likelihoods import level_factorization, require_linear_gaussian
from .priors import GaussianPrior
from .schedule import NoiseSchedule, gauss_log_density

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# 0-d arrays, the same bits: numpy applies a Python float to a few-element array in about 1.6x the time.
_HALF, _B1, _R1, _B2, _R2, _EPS = map(np.array, (0.5, ADAM_BETA1, 1 - ADAM_BETA1, ADAM_BETA2, 1 - ADAM_BETA2, ADAM_EPS))


def variational_sample(theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw mu + exp(rho / 2) z from lambda = N(theta[0], diag(exp(theta[1]))) per state."""
    return theta[0] + np.exp(0.5 * theta[1]) * rng.standard_normal(theta[0].shape)


def _check_bridge(bridge_var) -> None:
    if not bridge_var > 0.0:  # NaN too; the s = 0 bridge collapses on x_0
        raise ValueError(f"conditional target needs a bridge variance > 0 (s >= 1), got {bridge_var}")


def kl_gradient_estimate(guide: Callable, bridge_mean: np.ndarray, bridge_var, theta: np.ndarray, z: np.ndarray):
    """Single-sample reparameterized gradient [d/dmu, d/drho], one (2, ...) array, of the reverse-KL surrogate
    -E[log ghat_s] + KL(lambda || bridge) at the noise draw z: with X = mu + W and W = exp(rho/2) z,

        d/dmu = (X - bridge_mean) / bridge_var - guide(X),    d/drho = (same) * W / 2 - 1/2;

    ``guide`` is ``likelihoods.guidance`` at level s; the bridge q(x_s | x_0, x_t) enters by its mean and variance.
    """
    w = np.exp(_HALF * theta[1]) * z
    x = theta[0] + w
    common = (x - bridge_mean) / bridge_var - guide(x)
    return np.array((common, common * (_HALF * w) - _HALF))


def fit_variational(
    guide: Callable, bridge_mean: np.ndarray, bridge_var, steps: int, learning_rate: float, rng: np.random.Generator
) -> np.ndarray:
    """theta = (mu, rho) after ``steps`` Adam updates at ``learning_rate`` from (bridge_mean, log bridge_var).

    ``guide`` is ``likelihoods.guidance`` at the sweep's level s.  All steps' noise is drawn in one call, the
    stream of one draw per step; zero steps call neither ``guide`` nor ``rng``.  The sampler takes
    (steps, learning_rate) from ``ViPhaseSchedule.resolve``, whose schedule checks both.
    """
    _check_bridge(bridge_var)
    theta = np.array((bridge_mean, np.full_like(bridge_mean, math.log(bridge_var))))
    if not steps:
        return theta
    variance, rate = np.array(bridge_var), np.array(learning_rate)
    mom = vel = 0.0
    for step, z in enumerate(rng.standard_normal((steps,) + bridge_mean.shape), 1):
        grads = kl_gradient_estimate(guide, bridge_mean, variance, theta, z)
        # Fresh arrays (an in-place ufunc costs more on few elements); Python-float bias corrections (an array
        # power rounds some of them differently).
        mom = _B1 * mom + _R1 * grads
        vel = _B2 * vel + _R2 * grads**2
        m_hat = mom / (1.0 - ADAM_BETA1**step)
        v_hat = vel / (1.0 - ADAM_BETA2**step)
        theta = theta - rate * m_hat / (np.sqrt(v_hat) + _EPS)
    return theta


# -- exact conditional (linear-Gaussian + Gaussian prior) ---------------------


def _exact_factors(likelihood, prior, schedule: NoiseSchedule, level: int, bridge_var):
    """(W, ell, h) with Lambda = W diag(ell) W^T and e = W (ell * h), from the ``level_factorization`` of the
    potential at ``level`` on a bridge of variance bridge_var; only ell = 1 / (1 / bridge_var + mu) depends on it."""
    _check_bridge(bridge_var)
    require_linear_gaussian(likelihood, prior, "exact conditional")
    w, mu, h, _, _ = level_factorization(likelihood, prior, schedule, level)
    return w, bridge_var / (1.0 + bridge_var * mu), h


def conditional_coefficients(likelihood, prior, schedule: NoiseSchedule, s: int, t: int, *, level: int | None = None):
    """(M, N, e, Lambda) of the exact Gaussian conditional.

    pibar(x_s | x_0, x_t) = N(M x_0 + N x_t + e, Lambda) with Lambda = [(1/bridge_var) I + A_hat^T A_hat /
    sigma_y^2]^{-1}, A_hat the potential's at ``level`` (default s); M and N rescale the bridge mean coefficients.
    """
    p = schedule.bridge_params(s, t)  # rejects s >= t; s = 0 has variance 0
    w, ell, h = _exact_factors(likelihood, prior, schedule, s if level is None else level, p.variance)
    lam = (w * ell) @ w.T
    return lam * (p.mean_coeff_x0 / p.variance), lam * (p.mean_coeff_xt / p.variance), w @ (ell * h), lam


def exact_conditional_sample(
    likelihood, prior, schedule: NoiseSchedule, level: int, bridge_mean: np.ndarray, bridge_var, rng
) -> np.ndarray:
    """One draw per state from ghat_level(x) N(x; bridge_mean, bridge_var I), normalized; states may carry
    leading batch axes.  The sweep passes its level s, the denoise final step level 0 (g0).

    The mean is Lambda bridge_mean / bridge_var + e and the noise root
    W diag(sqrt(ell)), all from diagonal scalings in W.
    """
    w, ell, h = _exact_factors(likelihood, prior, schedule, level, bridge_var)
    mean = bridge_mean @ ((w * (ell / bridge_var)) @ w.T)
    mean += np.tile(w @ (ell * h), mean.shape[:-1] + (1,))  # a broadcast (d,) add loops over d
    return mean + rng.standard_normal(mean.shape) @ (np.sqrt(ell)[:, None] * w.T)


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


# -- Metropolis-Hastings correction -------------------------------------------


def independent_mh(
    log_weight: Callable[[np.ndarray], np.ndarray],
    draw_proposal: Callable[[np.random.Generator], np.ndarray],
    current: np.ndarray,
    n_steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generic independent-proposal MH; batches over leading axes.

    States have shape (..., d); ``log_weight`` maps them to log target - log proposal, of shape (...,),
    the one difference the acceptance ratio reads.
    """
    x = np.array(current, dtype=np.float64)
    w = np.asarray(log_weight(x), dtype=np.float64)
    for _ in range(n_steps):
        prop = draw_proposal(rng)
        w_prop = np.asarray(log_weight(prop), dtype=np.float64)
        log_ratio = w_prop - w
        accept = np.log(rng.random(log_ratio.shape)) < log_ratio
        x = np.where(accept[..., None], prop, x)
        w = np.where(accept, w_prop, w)
    return x


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
