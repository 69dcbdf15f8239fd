"""Diagonal-Gaussian variational fit of the guided bridge conditional.

The target is the conditional of the extended Gibbs distribution,

    pibar(x_s | x_0, x_t)  propto  ghat_s(x_s) q(x_s | x_0, x_t),

approximated by lambda = N(mu, diag(exp(rho))), held as one plain array
theta of shape (2, ..., d) with theta[0] = mu and theta[1] = rho.  The fit
minimizes the reverse KL by Adam on single-sample reparameterized
gradients; the squared-norm term of the KL-to-bridge part is estimated
with the sampled point rather than its closed-form expectation (computing
it exactly is known to behave worse), and the entropy term contributes
-1/2 per rho coordinate.  A fit resolves the guidance gradient once and
draws all its noise in one call.  Initialization is the bridge itself, so
zero gradient steps reproduce an exact bridge draw.

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

from .likelihoods import guidance, level_factorization, log_g_hat, require_linear_gaussian
from .moments import GaussianMoments
from .schedule import NoiseSchedule, gauss_log_density

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# 0-d arrays, the same bits: numpy applies a Python float to a few-element array in about 1.6x the time.
_HALF, _B1, _R1, _B2, _R2, _EPS = map(np.array, (0.5, ADAM_BETA1, 1 - ADAM_BETA1, ADAM_BETA2, 1 - ADAM_BETA2, ADAM_EPS))


def variational_sample(theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw mu + exp(rho / 2) z from lambda = N(theta[0], diag(exp(theta[1]))) per state."""
    return theta[0] + np.exp(0.5 * theta[1]) * rng.standard_normal(theta[0].shape)


def _check_pair(s: int, t: int) -> None:
    if s == 0:
        raise ValueError("conditional target needs s >= 1")
    if s >= t:
        raise ValueError(f"need s < t, got s={s}, t={t}")


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
    likelihood,
    prior,
    schedule: NoiseSchedule,
    s: int,
    t: int,
    x0: np.ndarray,
    xt: np.ndarray,
    steps: int,
    learning_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """theta = (mu, rho) after ``steps`` Adam updates at ``learning_rate`` from the bridge initialization.

    The bridge and the guidance gradient are resolved once, and all steps' noise is drawn in one call, the stream
    of one draw per step; zero steps read neither the likelihood, the prior nor ``rng``.  The sampler takes
    (steps, learning_rate) from ``ViPhaseSchedule.resolve``, whose schedule checks both.
    """
    _check_pair(s, t)
    bridge = schedule.bridge_params(s, t)
    bridge_mean = bridge.mean(x0, xt)
    theta = np.array((bridge_mean, np.full_like(bridge_mean, math.log(bridge.variance))))
    if not steps:
        return theta
    guide = guidance(likelihood, prior, schedule, s)
    variance, rate = np.array(bridge.variance), np.array(learning_rate)
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


def _exact_factors(likelihood, prior, schedule: NoiseSchedule, s: int, t: int, level: int | None = None):
    """(bridge params, W, ell, h) with Lambda = W diag(ell) W^T and e = W (ell * h), from the ``level_factorization``
    of the potential at ``level``, s unless given (the denoise final step gives 0, for g0), on the bridge s < t;
    only ell = 1 / (1 / bridge_var + mu) depends on t."""
    _check_pair(s, t)
    require_linear_gaussian(likelihood, prior, "exact conditional")
    w, mu, h, _, _ = level_factorization(likelihood, prior, schedule, s if level is None else level)
    p = schedule.bridge_params(s, t)
    return p, w, p.variance / (1.0 + p.variance * mu), h


def conditional_coefficients(likelihood, prior, schedule: NoiseSchedule, s: int, t: int, *, level: int | None = None):
    """(M, N, e, Lambda) of the exact Gaussian conditional.

    pibar(x_s | x_0, x_t) = N(M x_0 + N x_t + e, Lambda) with Lambda = [(1/bridge_var) I + A_hat^T A_hat /
    sigma_y^2]^{-1}, A_hat the potential's at ``level`` (default s); M and N rescale the bridge mean coefficients.
    """
    p, w, ell, h = _exact_factors(likelihood, prior, schedule, s, t, level)
    lam = (w * ell) @ w.T
    return lam * (p.mean_coeff_x0 / p.variance), lam * (p.mean_coeff_xt / p.variance), w @ (ell * h), lam


def exact_conditional_sample(
    likelihood, prior, schedule: NoiseSchedule, s: int, t: int, x0: np.ndarray, xt: np.ndarray, rng, *, level=None
) -> np.ndarray:
    """One draw from pibar(x_s | x_0, x_t) per state; states may carry leading batch axes.

    The mean is Lambda bridge_mean / bridge_var + e and the noise root
    W diag(sqrt(ell)), all from diagonal scalings in W (potential at ``level``, default s).
    """
    p, w, ell, h = _exact_factors(likelihood, prior, schedule, s, t, level)
    mean = p.mean(x0, xt) @ ((w * (ell / p.variance)) @ w.T)
    mean += np.tile(w @ (ell * h), mean.shape[:-1] + (1,))  # a broadcast (d,) add loops over d
    return mean + rng.standard_normal(mean.shape) @ (np.sqrt(ell)[:, None] * w.T)


def exact_conditional(
    likelihood, prior, schedule: NoiseSchedule, s: int, t: int, x0: np.ndarray, xt: np.ndarray
) -> GaussianMoments:
    """Exact moments of pibar(. | x_0, x_t) for the linear-Gaussian case."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64))
    xt = np.atleast_1d(np.asarray(xt, dtype=np.float64))
    if x0.ndim != 1 or xt.ndim != 1:
        raise ValueError("exact_conditional takes single states; use conditional_coefficients for batches")
    coef_x0, coef_xt, shift, lam = conditional_coefficients(likelihood, prior, schedule, s, t)
    mean = coef_x0 @ x0 + coef_xt @ xt + shift
    return GaussianMoments(mean=mean, cov=lam)


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
    likelihood,
    prior,
    schedule: NoiseSchedule,
    s: int,
    t: int,
    x0: np.ndarray,
    xt: np.ndarray,
    current: np.ndarray,
    theta: np.ndarray,
    n_steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Refine a conditional draw by independent-proposal MH.

    Proposal: lambda = N(theta[0], diag(exp(theta[1]))), its variance taken once per call.
    Target: ghat_s times the bridge, through the value of log_g_hat alone:
    MH reads no gradient, so it applies no vector-Jacobian product.
    """
    _check_pair(s, t)
    p = schedule.bridge_params(s, t)
    m_b = p.mean(x0, xt)
    var = np.exp(theta[1])

    def log_weight(x):
        log_target = log_g_hat(likelihood, prior, schedule, s, x) + gauss_log_density(x, m_b, p.variance)
        return log_target - gauss_log_density(x, theta[0], var)

    return independent_mh(log_weight, partial(variational_sample, theta), current, n_steps, rng)
