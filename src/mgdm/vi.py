"""Diagonal-Gaussian variational fit of the guided bridge conditional.

The target is the conditional of the extended Gibbs distribution,

    pibar(x_s | x_0, x_t)  propto  ghat_s(x_s) q(x_s | x_0, x_t),

approximated by lambda = N(mu, diag(exp(rho))).  The fit minimizes the
reverse KL by Adam on single-sample reparameterized gradients; the
squared-norm term of the KL-to-bridge part is estimated with the sampled
point rather than its closed-form expectation (computing it exactly is
known to behave worse), and the entropy term contributes -1/2 per rho
coordinate.  Initialization is the bridge itself, so zero gradient steps
reproduce an exact bridge draw.

For a Gaussian prior with a linear-Gaussian likelihood the conditional is
Gaussian and available exactly (``exact_conditional``); an optional
independent-proposal Metropolis-Hastings correction targets the same
conditional using the fitted lambda as proposal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .likelihoods import grad_log_g_hat, level_factorization, log_g_hat, require_linear_gaussian
from .moments import GaussianMoments
from .schedule import NoiseSchedule, gauss_log_density

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class VariationalParams:
    """Variational mean and log-variance, shape (..., d) each."""

    mu: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.rho = np.asarray(self.rho, dtype=np.float64)
        if self.mu.shape != self.rho.shape:
            raise ValueError("mu and rho must share a shape")
        if not (np.all(np.isfinite(self.mu)) and np.all(np.isfinite(self.rho))):
            raise ValueError("variational parameters must be finite")

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.mu + np.exp(0.5 * self.rho) * rng.standard_normal(self.mu.shape)


@dataclass(frozen=True)
class ViConfig:
    """Gradient-step budget and learning rate for the variational fit.

    The optimizer is Adam with the conventional (0.9, 0.999, 1e-8)
    moment constants; one Monte Carlo draw per step.
    """

    steps: int = 5
    learning_rate: float = 0.03

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")


def _check_pair(s: int, t: int) -> None:
    if s == 0:
        raise ValueError("conditional target needs s >= 1")
    if s >= t:
        raise ValueError(f"need s < t, got s={s}, t={t}")


def kl_gradient_estimate(
    likelihood,
    prior,
    schedule: NoiseSchedule,
    s: int,
    bridge_mean: np.ndarray,
    bridge_var: float,
    params: VariationalParams,
    rng: np.random.Generator,
):
    """Reparameterized gradient of the reverse-KL surrogate wrt (mu, rho).

    Single-sample estimator: with X = mu + exp(rho/2) Z,

        d/dmu  = -grad log ghat_s(X) + (X - bridge_mean) / bridge_var
        d/drho = (same) * dX/drho - 1/2,

    unbiased for the objective -E[log ghat_s] + KL(lambda || bridge); the
    bridge q(x_s | x_0, x_t) enters only through its mean and variance.
    Returned as one array of shape (2, ...): [d/dmu, d/drho].
    """
    sd = np.exp(0.5 * params.rho)
    z = rng.standard_normal(params.mu.shape)
    x = params.mu + sd * z
    common = -grad_log_g_hat(likelihood, prior, schedule, s, x) + (x - bridge_mean) / bridge_var
    return np.array((common, common * (0.5 * sd * z) - 0.5))


def fit_variational(
    likelihood,
    prior,
    schedule: NoiseSchedule,
    s: int,
    t: int,
    x0: np.ndarray,
    xt: np.ndarray,
    config: ViConfig,
    rng: np.random.Generator,
) -> VariationalParams:
    """Run ``config.steps`` Adam updates from the bridge initialization.

    The bridge is built once per fit and every step reads its mean and
    variance.  Both parameter blocks step together, in place, as one
    (2, ...) array whose two rows are the ``mu`` and ``rho`` of the result.
    """
    _check_pair(s, t)
    bridge = schedule.bridge_params(s, t)
    bridge_mean = bridge.mean(x0, xt)
    theta = np.array((bridge_mean, np.full_like(bridge_mean, math.log(bridge.variance))))
    params = VariationalParams(*theta)
    mom = np.zeros_like(theta)
    vel = np.zeros_like(theta)
    lr = config.learning_rate
    for step in range(1, config.steps + 1):
        grads = kl_gradient_estimate(likelihood, prior, schedule, s, bridge_mean, bridge.variance, params, rng)
        mom *= ADAM_BETA1
        mom += (1.0 - ADAM_BETA1) * grads
        vel *= ADAM_BETA2
        vel += (1.0 - ADAM_BETA2) * grads**2
        m_hat = mom / (1.0 - ADAM_BETA1**step)
        v_hat = vel / (1.0 - ADAM_BETA2**step)
        theta -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params


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
    log_target: Callable[[np.ndarray], np.ndarray],
    log_proposal: Callable[[np.ndarray], np.ndarray],
    draw_proposal: Callable[[np.random.Generator], np.ndarray],
    current: np.ndarray,
    n_steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Generic independent-proposal MH; batches over leading axes.

    States have shape (..., d); the log densities map them to (...,).
    """
    x = np.array(current, dtype=np.float64)
    lt = np.asarray(log_target(x), dtype=np.float64)
    lp = np.asarray(log_proposal(x), dtype=np.float64)
    for _ in range(n_steps):
        prop = draw_proposal(rng)
        lt_prop = np.asarray(log_target(prop), dtype=np.float64)
        lp_prop = np.asarray(log_proposal(prop), dtype=np.float64)
        log_ratio = (lt_prop - lp_prop) - (lt - lp)
        accept = np.log(rng.random(log_ratio.shape)) < log_ratio
        x = np.where(accept[..., None], prop, x)
        lt = np.where(accept, lt_prop, lt)
        lp = np.where(accept, lp_prop, lp)
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
    params: VariationalParams,
    n_steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Refine a conditional draw by independent-proposal MH.

    Proposal: lambda = N(mu, diag(exp(rho))), its variance taken once per call.
    Target: ghat_s times the bridge, through the value of log_g_hat alone:
    MH reads no gradient, so it applies no vector-Jacobian product.
    """
    _check_pair(s, t)
    p = schedule.bridge_params(s, t)
    m_b = p.mean(x0, xt)
    var = np.exp(params.rho)

    def log_target(x):
        return log_g_hat(likelihood, prior, schedule, s, x) + gauss_log_density(x, m_b, p.variance)

    def log_proposal(x):
        return gauss_log_density(x, params.mu, var)

    def draw_proposal(gen):
        return params.sample(gen)

    return independent_mh(log_target, log_proposal, draw_proposal, current, n_steps, rng)
