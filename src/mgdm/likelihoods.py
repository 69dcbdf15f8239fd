"""Observation models and guidance potentials.

One noise model, y = F(x) + N(0, sigma_y^2 I) (``GaussianObservation``), with F(x) = A x (``LinearGaussianLikelihood``,
the model of every closed form) or (A x)^2 componentwise (``QuadraticLikelihood``); ``log_g0`` is its data
log-likelihood log g(y | x).  The guidance potential at noise level s plugs the denoiser into it:

    log ghat_s(x_s) = log g(y | m_s(x_s)),

with analytic gradient Jac(m_s)^T grad log g at m_s(x_s), the denoiser's vector-Jacobian product (no
Jacobian is formed), a closed form where the potential is Gaussian (see ``level_factorization``), or, for a
mixture with one shared covariance under y = A x, the same from A m_s(x_s) alone (``GmmPrior.observed_denoiser``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .priors import GaussianPrior, GmmPrior, memo_entry
from .schedule import NoiseSchedule, require_number, require_numeric_array

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True, eq=False)
class GaussianObservation:
    """y = F(x) + N(0, sigma_y^2 I) noise, F = ``forward`` (x A^T unless overridden); subclasses add grad_log_g0.
    Compared and hashed by identity, as a key of the priors' memos."""

    A: np.ndarray
    y: np.ndarray
    sigma_y: float
    _log_norm: float = field(init=False, repr=False)  # d_y log(2 pi sigma_y^2)

    def __post_init__(self):
        a_mat = np.atleast_2d(require_numeric_array("A", self.A))
        y = np.atleast_1d(require_numeric_array("y", self.y))
        object.__setattr__(self, "A", a_mat)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "sigma_y", require_number("sigma_y", self.sigma_y))
        if not 0.0 < self.sigma_y < np.inf:
            raise ValueError("sigma_y must be positive and finite")
        for name, arr in (("A", a_mat), ("y", y)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
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
        """log N(y; F(x), sigma_y^2 I); x of shape (..., d)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise ValueError(f"x has dimension {x.shape[-1]}, expected {self.dim}")
        return self.log_g_forward(self.forward(x))

    def log_g_forward(self, fx: np.ndarray):
        """log N(y; fx, sigma_y^2 I) at a forward value fx = F(x) of shape (..., d_y)."""
        resid = self.y - fx
        out = -0.5 * ((resid**2).sum(axis=-1) / self.sigma_y**2 + self._log_norm)
        return float(out) if out.ndim == 0 else out


class LinearGaussianLikelihood(GaussianObservation):
    """y = A x + noise: the model of every closed form (exact conditional, posterior, oracle)."""

    def grad_log_g0(self, x: np.ndarray) -> np.ndarray:
        return (self.y - self.forward(x)) @ self.A / self.sigma_y**2


class QuadraticLikelihood(GaussianObservation):
    """y = (A x)^2 + noise, componentwise: smooth, cheap and non-log-concave, a desk-scale stand-in
    for phase-retrieval-like observations; guided through the denoiser's VJP alone."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) @ self.A.T) ** 2

    def vjp(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Jac_F(x)^T u with u of shape (..., d_y)."""
        return (2.0 * (x @ self.A.T) * u) @ self.A

    def grad_log_g0(self, x: np.ndarray) -> np.ndarray:
        return self.vjp(x, (self.y - self.forward(x)) / self.sigma_y**2)


def likelihood_from_json(obj: dict) -> GaussianObservation:
    cls = {"linear": LinearGaussianLikelihood, "quadratic": QuadraticLikelihood}.get(obj["kind"])
    if cls is None:
        raise ValueError(f"unknown likelihood kind {obj['kind']!r}")
    return cls(A=obj["A"], y=obj["y"], sigma_y=obj["sigma_y"])


def log_g_hat(likelihood, prior, schedule: NoiseSchedule, s: int, x_s: np.ndarray):
    """log ghat_s(x_s) = log g0(m_s(x_s)), with no VJP; the denoiser rejects s = 0 (use log_g0).  A mixture's
    ``observed_denoiser``, where it has one, gives A m_s(x_s) instead of m_s(x_s), built per call."""
    observed = _observed_denoiser(likelihood, prior, schedule, s)
    if observed is not None:
        return likelihood.log_g_forward(observed(x_s).value)
    return likelihood.log_g0(prior.denoise(schedule, s, x_s).value)


def guidance(likelihood, prior, schedule: NoiseSchedule, s: int) -> Callable[[np.ndarray], np.ndarray]:
    """x_s -> grad log ghat_s(x_s) = Jac(m_s)^T grad log g0(m_s(x_s)), resolved once per level (s >= 1), no log_g0:
    q_s - x_s P_s of ``level_factorization`` for a Gaussian prior and linear-Gaussian likelihood; for a mixture with
    one shared covariance, the VJP of its ``observed_denoiser`` at (y - A m_s(x_s)) / sigma_y^2, in (J + d_y)-sized
    terms; else the denoiser's VJP, with ``prior.denoise`` looked up at each call.  The Gibbs sweep resolves it for
    its VI fit."""
    if s < 1:  # level 0 is g0 itself (the factorization keeps an entry for it), not a guided level
        raise ValueError("guidance needs s >= 1; use grad_log_g0")
    if isinstance(prior, GaussianPrior) and isinstance(likelihood, LinearGaussianLikelihood):
        *_, prec, shift = level_factorization(likelihood, prior, schedule, s)
        return lambda x_s: shift - x_s @ prec
    observed = _observed_denoiser(likelihood, prior, schedule, s)

    def vjp(x_s):
        if observed is not None:
            den = observed(x_s)
            return den.vjp((likelihood.y - den.value) / likelihood.sigma_y**2)
        den = prior.denoise(schedule, s, x_s)
        return den.vjp(likelihood.grad_log_g0(den.value))
    return vjp


def _observed_denoiser(likelihood, prior, schedule: NoiseSchedule, s: int):
    """``GmmPrior.observed_denoiser`` under a linear-Gaussian likelihood whose A fits the prior; None for any
    other pair, and for an A of another width, which the denoiser route rejects naming both sizes."""
    linear = isinstance(prior, GmmPrior) and isinstance(likelihood, LinearGaussianLikelihood)
    return prior.observed_denoiser(schedule, s, likelihood.A) if linear and likelihood.dim == prior.dim else None


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
    one read-only entry of the prior's memo per (schedule, likelihood, s), shared by the exact conditional and
    the closed-form guidance gradient.  Level 0 is g0 itself (A_hat_0 = A, a_0 = 0: m_0 is the identity), the
    potential of the sampler's denoise final step."""
    return memo_entry(prior, (schedule, likelihood, s), lambda: _factorize(likelihood, prior, schedule, s))


def _factorize(likelihood, prior, schedule: NoiseSchedule, s: int):
    a_hat, offset = (likelihood.A, 0.0) if s == 0 else linearized_potential(likelihood, prior, schedule, s)
    s2 = likelihood.sigma_y**2
    prec, resid = a_hat.T @ a_hat / s2, (likelihood.y - offset) @ a_hat
    mu, w = np.linalg.eigh(prec)
    return w, np.clip(mu, 0.0, None), resid @ w / s2, prec, resid / s2
