"""Exact verification oracles for the Gaussian linear-inverse setting.

With a Gaussian prior and a linear-Gaussian observation every update of
the guided Gibbs sampler is affine-Gaussian, so the law of the driver's
output is a Gaussian whose moments follow a closed recursion:

  * the start x_{t_K} ~ N(0, I) with x_0 = m_{t_K}(x_{t_K}), a joint
    Gaussian over (x_0, x_{t_K}),
  * one 2d x 2d affine kernel per Gibbs repetition (B_k, Gamma_k, b_k),
  * a final affine kernel (H, h, L) for the denoiser-valued last step.

Each kernel reads the sampler's per-level factorization through
``vi.conditional_coefficients``, the final one its level-0 entry (g0).
The recursion mirrors the driver exactly (same x_t
initialization bridging, exact-backend conditional, and exact or DDPM
x_0 draws), so simulated moments and oracle moments agree by construction.

A trapezoid-rule quadrature engine for the 1-D extended target
pibar(x_0, x_s, x_t) provides a second, dumber oracle for densities and
marginal moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .likelihoods import LinearGaussianLikelihood, log_g_hat, require_linear_gaussian
from .moments import GaussianMoments
from .priors import GaussianPrior, logsumexp
from .sampler import MgdmConfig
from .schedule import NoiseSchedule, gauss_log_density
from .vi import conditional_coefficients


def build_kernels(
    prior: GaussianPrior,
    likelihood: LinearGaussianLikelihood,
    schedule: NoiseSchedule,
    k: int,
    tau: int,
    ddpm_M: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-repetition kernel (B, b, Gamma) at levels (tau, k).

    The joint state z = (x_0, x_k) updates as z' = b + B z + Gamma^{1/2} xi,
    the direct composition of the conditional draw
    x_tau ~ N(M x_0 + N x_k + e, lam), the denoising draw
    x_0' ~ N(C x_tau + c, Sigma_c) and the noising draw x_k' ~ N(D x_tau, Sigma_d).
    The denoising draw is the exact backward one, or with ``ddpm_M`` sub-steps the
    DDPM pass: the same mean, Sigma_c from its noise weights (``ddpm_kernel``).
    """
    require_linear_gaussian(likelihood, prior, "the moment oracle")
    if not 1 <= tau < k:
        raise ValueError(f"need 1 <= tau < k, got tau={tau}, k={k}")
    d = prior.dim
    eye = np.eye(d)

    M, N, e, lam = conditional_coefficients(likelihood, prior, schedule, tau, k)
    C, c = prior.denoiser_affine(schedule, tau)
    if ddpm_M is None:
        Sigma_c = prior.posterior_x0_cov(schedule, tau)
    else:
        q, w = prior.ddpm_kernel(schedule, tau, ddpm_M)
        Sigma_c = (q * np.sum(w * w, axis=0)) @ q.T
    D = schedule.alpha_ratio(tau, k) * eye
    Sigma_d = schedule.sigma2(tau, k) * eye

    B = np.block([[C @ M, C @ N], [D @ M, D @ N]])
    b = np.concatenate([C @ e + c, D @ e])
    Gamma = np.block(
        [
            [C @ lam @ C.T + Sigma_c, C @ lam @ D.T],
            [D @ lam @ C.T, D @ lam @ D.T + Sigma_d],
        ]
    )
    return B, b, 0.5 * (Gamma + Gamma.T)


def final_kernel(prior: GaussianPrior, likelihood: LinearGaussianLikelihood, schedule: NoiseSchedule, s: int, t: int):
    """(H, h, L) of the denoise final step, x_0 | x_t ~ N(H x_t + h, L): the exact conditional at the level-0
    potential g0 from the plugged x_0 = m_t(x_t) = J_t x_t + b_t, x_s ~ N(M x_0 + N x_t + e, Lambda), then m_s."""
    M, N, e, lam = conditional_coefficients(likelihood, prior, schedule, s, t, level=0)
    jac_t, bias_t = prior.denoiser_affine(schedule, t)
    jac_s, bias_s = prior.denoiser_affine(schedule, s)
    L = jac_s @ lam @ jac_s.T
    return jac_s @ (M @ jac_t + N), jac_s @ (M @ bias_t + e) + bias_s, 0.5 * (L + L.T)


def oracle_recursion(
    prior: GaussianPrior,
    likelihood: LinearGaussianLikelihood,
    schedule: NoiseSchedule,
    config: MgdmConfig,
) -> GaussianMoments:
    """Exact output moments of the driver under the exact conditional.

    Replays the sampler's own ``config``: its timesteps, R, final mode,
    denoise backend (the exact draw, or DDPM with its M) and its ``fixed``
    index sequence (one level per outer step, i = K down to 2).  Other
    index kinds are rejected: averaging over random levels breaks the
    Gaussianity of the output law, so callers replay a recorded sequence
    instead.  The conditional field is not read, so the same config also
    serves to measure how far a VI run lands from the exact-conditional law.

    Tracks the joint Gaussian of (x_0, x_t-carried), pushing it through
    the standard-normal start + denoiser, the per-step bridge
    initialization, R repetition kernels per step, and the configured
    final convention.
    """
    require_linear_gaussian(likelihood, prior, "the moment oracle")
    if config.index_dist.kind != "fixed":
        raise ValueError(f"the moment oracle replays a fixed index sequence, not {config.index_dist.kind!r}")
    config.validate_against(schedule)
    config.check_index_support()
    ts, K = config.timesteps, config.K
    d = prior.dim
    eye = np.eye(d)

    # x_{t_K} ~ N(0, I); x_0 = m_{t_K}(x_{t_K}); joint over (x_0, x_carried).
    jac_n, bias_n = prior.denoiser_affine(schedule, ts[-1])
    mean = np.concatenate([bias_n, np.zeros(d)])
    cov = np.block([[jac_n @ jac_n.T, jac_n], [jac_n.T, eye]])

    for i, tau in zip(range(K, 1, -1), config.index_dist.values):
        t_i = ts[i - 1]
        if i < K:
            p = schedule.bridge_params(t_i, ts[i])
            f_mat = np.block(
                [[eye, np.zeros((d, d))], [p.mean_coeff_x0 * eye, p.mean_coeff_xt * eye]]
            )
            mean = f_mat @ mean
            cov = f_mat @ cov @ f_mat.T
            cov[d:, d:] += p.variance * eye
        B, b, Gamma = build_kernels(prior, likelihood, schedule, k=t_i, tau=tau,
                                     ddpm_M=config.M if config.denoise == "ddpm" else None)
        for _ in range(config.R):
            mean = b + B @ mean
            cov = B @ cov @ B.T + Gamma
            cov = 0.5 * (cov + cov.T)

    if config.final == "denoise":
        H, h, L = final_kernel(prior, likelihood, schedule, config.final_s, ts[1])
        out_cov = H @ cov[d:, d:] @ H.T + L
        return GaussianMoments(mean=H @ mean[d:] + h, cov=0.5 * (out_cov + out_cov.T))
    return GaussianMoments(mean=mean[:d], cov=cov[:d, :d])


# -- 1-D quadrature engine ----------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [lo, hi] with n points, trapezoid weights."""

    lo: float
    hi: float
    n: int = 512

    def __post_init__(self):
        if self.hi <= self.lo:
            raise ValueError("need hi > lo")
        if self.n < 512:
            raise ValueError("quadrature grids need at least 512 points per axis")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)

    @property
    def weights(self) -> np.ndarray:
        dx = (self.hi - self.lo) / (self.n - 1)
        w = np.full(self.n, dx)
        w[0] = w[-1] = 0.5 * dx
        return w


class QuadratureJoint:
    """Normalized trapezoid-rule representation of pibar(x_0, x_s, x_t), d = 1.

    The joint factors as F1(x_0, x_s) * F2(x_s, x_t) with
    F1 = p_0(x_0) q(x_s | x_0) ghat_s(x_s) and F2 = q(x_t | x_s), so all
    marginals reduce to matrix contractions and the cube is never materialized.
    """

    AXES = ("x0", "xs", "xt")

    def __init__(self, likelihood, prior, schedule: NoiseSchedule, s: int, t: int, grids):
        if prior.dim != 1:
            raise ValueError("QuadratureJoint supports d = 1 only")
        if not 1 <= s < t:
            raise ValueError(f"need 1 <= s < t, got s={s}, t={t}")
        self.grids = dict(zip(self.AXES, grids))
        g0, gs, gt = (self.grids[a] for a in self.AXES)
        x0 = g0.points[:, None]
        xs = gs.points[None, :]
        xt = gt.points[None, :]

        log_prior = prior.log_density(g0.points[:, None, None])[:, 0]
        ratio_s = schedule.alpha_ratio(0, s)
        var_s = schedule.sigma2(0, s)
        log_fwd_s = gauss_log_density((xs - ratio_s * x0)[..., None], np.zeros(1), var_s)
        log_pot = log_g_hat(likelihood, prior, schedule, s, gs.points[:, None, None])[:, 0]
        self._log_f1 = log_prior[:, None] + log_fwd_s + log_pot[None, :]

        ratio_t = schedule.alpha_ratio(s, t)
        var_t = schedule.sigma2(s, t)
        self._log_f2 = gauss_log_density((xt - ratio_t * xs.T)[..., None], np.zeros(1), var_t)

        logw0 = np.log(g0.weights)
        logws = np.log(gs.weights)
        logwt = np.log(gt.weights)
        # column/row contractions: a_j = int F1 dx0, b_j = int F2 dxt
        self._log_a = logsumexp(self._log_f1 + logw0[:, None], axis=0)
        self._log_b = logsumexp(self._log_f2 + logwt[None, :], axis=1)
        self.log_z = float(logsumexp(logws + self._log_a + self._log_b, axis=0))

    def marginal(self, axis: str):
        """(points, density) of a 1-D marginal, normalized on the grid."""
        if axis == "x0":
            logs = logsumexp(
                self._log_f1 + (np.log(self.grids["xs"].weights) + self._log_b)[None, :], axis=1
            )
            return self.grids["x0"].points, np.exp(logs - self.log_z)
        if axis == "xs":
            logs = self._log_a + self._log_b
            return self.grids["xs"].points, np.exp(logs - self.log_z)
        if axis == "xt":
            logs = logsumexp(
                self._log_f2 + (np.log(self.grids["xs"].weights) + self._log_a)[:, None], axis=0
            )
            return self.grids["xt"].points, np.exp(logs - self.log_z)
        raise ValueError(f"unknown axis {axis!r}")

    def moments(self, axis: str) -> tuple[float, float]:
        pts, dens = self.marginal(axis)
        w = self.grids[axis].weights
        mean = float(np.sum(w * pts * dens))
        var = float(np.sum(w * pts**2 * dens)) - mean**2
        return mean, var


def auto_grids(likelihood, prior, schedule: NoiseSchedule, s: int, t: int, n: int = 512, width: float = 10.0):
    """Grids wide enough for the joint's effective support (d = 1).

    Centers cover the prior mean and, when available in closed form, the
    posterior mean; each axis spans ``width`` standard deviations of its
    smoothed marginal.
    """
    from .priors import GmmPrior, exact_posterior

    if isinstance(prior, GmmPrior):
        mean0 = float(np.sum(prior.weights * prior.means[:, 0]))
        second = float(np.sum(prior.weights * (prior.covs[:, 0, 0] + prior.means[:, 0] ** 2)))
        sd0 = math.sqrt(second - mean0**2)
    else:
        mean0 = float(prior.mean[0])
        sd0 = math.sqrt(float(prior.cov[0, 0]))
    centers = [mean0]
    if isinstance(likelihood, LinearGaussianLikelihood) and isinstance(prior, GaussianPrior):
        centers.append(float(exact_posterior(prior, likelihood).mean[0]))

    def span(level: int) -> GridSpec:
        a = 1.0 if level == 0 else schedule.alpha(level)
        v = 0.0 if level == 0 else schedule.sigma2(0, level)
        spread = math.sqrt(a * a * sd0 * sd0 + v)
        return GridSpec(a * min(centers) - width * spread, a * max(centers) + width * spread, n)

    return (span(0), span(s), span(t))
