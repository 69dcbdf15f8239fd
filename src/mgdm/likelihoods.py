"""Observation models and guidance potentials.

``log_g0`` is the data log-likelihood log g(y | x).  The guidance
potential at noise level s plugs the denoiser into it:

    log ghat_s(x_s) = log g(y | m_s(x_s)),

with analytic gradient Jac(m_s)^T grad log g at m_s(x_s), the denoiser's vector-Jacobian product (no
Jacobian is formed), or a closed form where the potential is Gaussian (see ``level_factorization``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .priors import GaussianPrior
from .schedule import NoiseSchedule

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class LinearGaussianLikelihood:
    """y = A x + noise with noise ~ N(0, sigma_y^2 I)."""

    A: np.ndarray
    y: np.ndarray
    sigma_y: float
    _log_norm: float = field(init=False, repr=False, compare=False)  # d_y log(2 pi sigma_y^2)

    def __post_init__(self):
        a_mat = np.atleast_2d(np.asarray(self.A, dtype=np.float64))
        y = np.atleast_1d(np.asarray(self.y, dtype=np.float64))
        object.__setattr__(self, "A", a_mat)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "sigma_y", float(self.sigma_y))
        if self.sigma_y <= 0.0:
            raise ValueError("sigma_y must be positive")
        if np.any(np.isnan(a_mat)):
            raise ValueError("A contains NaN entries")
        if a_mat.shape[0] != y.shape[0]:
            raise ValueError(f"A has {a_mat.shape[0]} rows but y has {y.shape[0]} entries")
        object.__setattr__(self, "_log_norm", self.dim_obs * (_LOG_2PI + 2.0 * np.log(self.sigma_y)))

    @property
    def dim_obs(self) -> int:
        return self.y.shape[0]

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.A.T

    def log_g0(self, x: np.ndarray):
        """log N(y; A x, sigma_y^2 I); x of shape (..., d)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise ValueError(f"x has dimension {x.shape[-1]}, expected {self.dim}")
        resid = self.y - x @ self.A.T
        out = -0.5 * ((resid**2).sum(axis=-1) / self.sigma_y**2 + self._log_norm)
        return float(out) if out.ndim == 0 else out

    def grad_log_g0(self, x: np.ndarray) -> np.ndarray:
        resid = self.y - self.forward(x)
        return resid @ self.A / self.sigma_y**2


@dataclass(frozen=True)
class NonlinearLikelihood:
    """y = F(x) + noise with a differentiable forward map.

    ``forward_map(x)`` maps (..., d) -> (..., d_y); ``vjp(x, u)`` returns
    Jac_F(x)^T u with u of shape (..., d_y).
    """

    forward_map: Callable[[np.ndarray], np.ndarray]
    vjp: Callable[[np.ndarray, np.ndarray], np.ndarray]
    y: np.ndarray
    sigma_y: float

    def __post_init__(self):
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=np.float64)))
        object.__setattr__(self, "sigma_y", float(self.sigma_y))
        if self.sigma_y <= 0.0:
            raise ValueError("sigma_y must be positive")

    @property
    def dim_obs(self) -> int:
        return self.y.shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_map(np.asarray(x, dtype=np.float64))

    def log_g0(self, x: np.ndarray):
        resid = self.y - self.forward(x)
        out = -0.5 * (
            np.sum(resid**2, axis=-1) / self.sigma_y**2
            + self.dim_obs * (_LOG_2PI + 2.0 * np.log(self.sigma_y))
        )
        return float(out) if np.ndim(out) == 0 else out

    def grad_log_g0(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        resid = self.y - self.forward(x)
        return self.vjp(x, resid / self.sigma_y**2)


def quadratic_toy(A: np.ndarray, y: np.ndarray, sigma_y: float) -> NonlinearLikelihood:
    """Componentwise-quadratic forward map F(x) = (A x)^2.

    Smooth, cheap, and non-log-concave; a desk-scale stand-in for
    phase-retrieval-like observations.
    """
    a_mat = np.atleast_2d(np.asarray(A, dtype=np.float64))

    def fwd(x):
        return (x @ a_mat.T) ** 2

    def vjp(x, u):
        return (2.0 * (x @ a_mat.T) * u) @ a_mat

    return NonlinearLikelihood(forward_map=fwd, vjp=vjp, y=y, sigma_y=sigma_y)


def likelihood_from_json(obj: dict):
    kind = obj["kind"]
    if kind == "linear":
        return LinearGaussianLikelihood(A=np.asarray(obj["A"]), y=np.asarray(obj["y"]), sigma_y=obj["sigma_y"])
    if kind == "quadratic":
        return quadratic_toy(A=np.asarray(obj["A"]), y=np.asarray(obj["y"]), sigma_y=obj["sigma_y"])
    raise ValueError(f"unknown likelihood kind {kind!r}")


def log_g_hat(likelihood, prior, schedule: NoiseSchedule, s: int, x_s: np.ndarray):
    """log ghat_s(x_s) = log g0(m_s(x_s)), with no VJP; the denoiser rejects s = 0 (use log_g0)."""
    return likelihood.log_g0(prior.denoise(schedule, s, x_s).value)


def grad_log_g_hat(likelihood, prior, schedule: NoiseSchedule, s: int, x_s: np.ndarray) -> np.ndarray:
    """Gradient Jac(m_s)^T grad log g0(m_s(x_s)) of log ghat_s, no log_g0: q_s - x_s P_s of ``level_factorization``
    for a Gaussian prior and linear-Gaussian likelihood, else the denoiser's VJP; s = 0 is rejected: use grad_log_g0."""
    if isinstance(prior, GaussianPrior) and isinstance(likelihood, LinearGaussianLikelihood):
        if s < 1:  # the factorization has a level-0 entry, g0's own
            raise ValueError("grad_log_g_hat needs s >= 1; use grad_log_g0")
        *_, prec, shift = level_factorization(likelihood, prior, schedule, s)
        return shift - x_s @ prec
    den = prior.denoise(schedule, s, x_s)
    return den.vjp(likelihood.grad_log_g0(den.value))


def require_linear_gaussian(likelihood, prior, what: str) -> None:
    """Reject every pair but a linear-Gaussian likelihood with a Gaussian prior, the one
    whose closed forms ``what`` needs."""
    if not isinstance(likelihood, LinearGaussianLikelihood):
        raise TypeError(f"{what} requires a linear-Gaussian likelihood")
    if not isinstance(prior, GaussianPrior):
        raise TypeError(f"{what} requires a Gaussian prior")


def linearized_potential(likelihood, prior, schedule: NoiseSchedule, s: int):
    """(A_hat_s, a_s) with ghat_s(x) = N(y; A_hat_s x + a_s, sigma_y^2 I).

    Exact for a Gaussian prior with a linear-Gaussian likelihood, where
    the denoiser is affine: A_hat_s = A Jac(m_s), a_s = A bias(m_s).
    """
    require_linear_gaussian(likelihood, prior, "linearized_potential")
    jac, bias = prior.denoiser_affine(schedule, s)
    return likelihood.A @ jac, likelihood.A @ bias


def level_factorization(likelihood, prior, schedule: NoiseSchedule, s: int):
    """(W, mu, h, P_s, q_s) of the Gaussian potential ghat_s(x) propto exp(q_s . x - x P_s x / 2), with
    P_s = A_hat_s^T A_hat_s / sigma_y^2 = W diag(mu) W^T, q_s = (y - a_s) A_hat_s / sigma_y^2 and h = W^T q_s:
    one read-only entry per level in the prior's ``_conditionals`` memo for the last (schedule, likelihood)
    pair, shared by the exact conditional and the closed-form guidance gradient.  Level 0 is g0 itself
    (A_hat_0 = A, a_0 = 0: m_0 is the identity), the potential of the sampler's denoise final step."""
    levels = prior.level_memo("_conditionals", schedule, likelihood)
    entry = levels.get(s)
    if entry is None:
        a_hat, offset = (likelihood.A, 0.0) if s == 0 else linearized_potential(likelihood, prior, schedule, s)
        s2 = likelihood.sigma_y**2
        prec, resid = a_hat.T @ a_hat / s2, (likelihood.y - offset) @ a_hat
        mu, w = np.linalg.eigh(prec)
        entry = (w, np.clip(mu, 0.0, None), resid @ w / s2, prec, resid / s2)
        for arr in entry:
            arr.flags.writeable = False
        levels[s] = entry
    return entry
