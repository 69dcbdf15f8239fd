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
Gaussian and available exactly (``conditional_coefficients``); an optional
independent-proposal Metropolis-Hastings correction targets the same
conditional using the fitted lambda as proposal.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .likelihoods import level_factorization, require_linear_gaussian
from .schedule import NoiseSchedule

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

    Proposal: lambda = N(theta[0], diag(exp(theta[1]))).
    Target: ghat_s times the bridge, through ``log_potential`` = log ghat_s alone (the sweep passes
    ``likelihoods.log_g_hat`` at s): MH reads no gradient, so it applies no vector-Jacobian product.
    The proposal's standard deviation, the variances' check and both log-normalizers are taken once per call,
    and each evaluation sums the terms in ``gauss_log_density``'s order, so the log weights keep its bits.
    """
    mean, var, std = theta[0], np.exp(theta[1]), np.exp(0.5 * theta[1])
    if np.any(var <= 0.0) or np.any(bridge_var <= 0.0):  # NaN passes, as in gauss_log_density
        raise ValueError("variance must be positive")
    bridge_norm, prop_norm = np.log(2.0 * np.pi * bridge_var), np.log(2.0 * np.pi * var)

    def log_weight(x):
        log_bridge = -0.5 * np.sum((x - bridge_mean) ** 2 / bridge_var + bridge_norm, axis=-1)
        log_prop = -0.5 * np.sum((x - mean) ** 2 / var + prop_norm, axis=-1)
        return log_potential(x) + log_bridge - log_prop

    return independent_mh(log_weight, lambda rng: mean + std * rng.standard_normal(mean.shape), current, n_steps, rng)
