"""Analytic diffusion priors: Gaussian and Gaussian mixture.

Both families admit closed forms for everything the sampler and its
oracles need: the denoiser m_t(x) = E[X_0 | X_t = x] and its
vector-Jacobian product, the score of the smoothed marginal
p_t = N(alpha_t m, alpha_t^2 Sigma + v_t I) (convolution of the prior with
the forward kernel, v_t = sigma2_{t|0}), the exact draw of x_0 given x_t
for a Gaussian prior, and the conjugate Bayesian posterior for
linear-Gaussian observations.

Each covariance is eigendecomposed once, at construction, as
Sigma = Q diag(lam) Q^T.  The smoothed covariance at any level then shares
the eigenbasis, S_t = Q diag(alpha_t^2 lam + v_t) Q^T, so its inverse and
log-determinant are diagonal scalings in Q: no factorization per call.

The constants of a level are built once per prior and kept in its one dict ``_memo`` (see ``memo_entry``),
under the inputs they are built from: (alpha_t, v_t) for a denoiser, (schedule, s, M) for the DDPM kernel,
(schedule, likelihood, s) for the guidance factorization.  Schedules and likelihoods hash by identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .schedule import NoiseSchedule, require_numeric_array

_MIN_EIGVAL = 1e-12
_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class DenoiserOutput:
    """Denoiser value m_t(x_t) and its vector-Jacobian product.

    ``vjp(u)`` returns Jac(m_t)(x_t)^T u for u shaped like x_t, without
    forming the (..., d, d) Jacobian.  The Jacobian is symmetric PSD for
    both prior families (a rescaled posterior covariance of X_0 given
    X_t), so ``vjp(u)`` is also Jac(m_t) u.  For input of shape (..., d)
    the value has shape (..., d).  ``GmmPrior.observed_denoiser`` gives the
    value A m_t(x_t) instead, whose ``vjp`` takes u shaped like that value.
    """

    value: np.ndarray
    vjp: Callable[[np.ndarray], np.ndarray]


def _eigh_spd(cov: np.ndarray, what: str):
    """Validated SPD matrix with its eigenvalues and eigenvectors."""
    cov = require_numeric_array(what, cov, 2)
    if cov.shape[0] != cov.shape[1]:
        raise ValueError(f"{what} must be square, got {cov.shape}")
    if not np.allclose(cov, cov.T, atol=1e-10):
        raise ValueError(f"{what} must be symmetric")
    lam, vecs = np.linalg.eigh(cov)
    if lam[0] < _MIN_EIGVAL:
        raise ValueError(f"{what} must have eigenvalues >= {_MIN_EIGVAL}")
    return cov, lam, vecs


def memo_entry(prior, key, build: Callable[[], tuple]) -> tuple:
    """The entry of ``prior._memo`` under ``key``; on a miss, ``build()`` makes its arrays, which are
    made read-only and kept for the prior's lifetime.  Threads that race on a miss build equal entries."""
    entry = prior._memo.get(key)
    if entry is None:
        entry = build()
        for arr in entry:
            arr.flags.writeable = False
        prior._memo[key] = entry
    return entry


def _normalize_exp(logs: np.ndarray) -> np.ndarray:
    """exp(logs) normalized to sum to 1 along axis 0; weights below 1e-200 of the largest
    become 0, which no float64 sum can feel, as subnormal weights slow every product tenfold.
    Shifted logits are clamped at -500, whose exp is zeroed all the same, to keep exp off its slow
    path for far-negative arguments: the weights stay bit for bit, -inf gives 0 and NaN stays NaN."""
    w = np.exp(np.maximum(logs - logs.max(axis=0, keepdims=True), -500.0))
    w[w < 1e-200] = 0.0
    return w / w.sum(axis=0, keepdims=True)


@dataclass(frozen=True)
class GaussianPrior:
    """Gaussian prior N(mean, cov) with SPD covariance, and the one type of every exact Gaussian law: the
    conjugate posterior, the moment oracle's output and a prior's ``moments``.
    The covariance must be finite, symmetric within 1e-10 and have eigenvalues >= 1e-12.

    ``_memo`` keeps, read-only, (J_t, b_t) of ``denoiser_affine`` per (alpha_t, v_t), the DDPM noise
    weights of ``ddpm_kernel`` per (schedule, s, M), and the guidance factorization of
    ``likelihoods.level_factorization`` per (schedule, likelihood, s), which the exact conditional and
    the closed-form VI gradient share: every level visited, a few (d, d) arrays each.
    """

    mean: np.ndarray
    cov: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False)
    _eigvals: np.ndarray = field(init=False, repr=False)
    _eigvecs: np.ndarray = field(init=False, repr=False)
    _memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = require_numeric_array("mean", self.mean, 1)
        cov, lam, vecs = _eigh_spd(self.cov, "covariance")
        if cov.shape[0] != mean.shape[0]:
            raise ValueError("mean and cov dimensions disagree")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", np.linalg.cholesky(cov))
        object.__setattr__(self, "_eigvals", lam)
        object.__setattr__(self, "_eigvecs", vecs)
        object.__setattr__(self, "_memo", {})

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def _spectral(self, scale: np.ndarray) -> np.ndarray:
        """Q diag(scale) Q^T."""
        return (self._eigvecs * scale) @ self._eigvecs.T

    def _smoothed_eigvals(self, schedule: NoiseSchedule, t: int):
        """(alpha_t, v_t, eigenvalues alpha_t^2 lam + v_t of S_t)."""
        a = schedule.alpha(t)
        v = schedule.sigma2(0, t)
        return a, v, (a * a) * self._eigvals + v

    # -- smoothed marginal p_t ---------------------------------------------

    def score(self, schedule: NoiseSchedule, t: int, x_t: np.ndarray) -> np.ndarray:
        """Score of p_t; rejects t = 0 (the Tweedie route needs v_t > 0)."""
        if t == 0:
            raise ValueError("score is defined for t >= 1")
        a, _, var = self._smoothed_eigvals(schedule, t)
        diff = np.asarray(x_t, dtype=np.float64) - a * self.mean
        return -diff @ self._spectral(1.0 / var)

    # -- denoiser ------------------------------------------------------------

    def denoiser_affine(self, schedule: NoiseSchedule, t: int):
        """(J_t, b_t) with m_t(x) = J_t x + b_t.

        J_t = alpha_t Sigma S_t^{-1} and b_t = v_t S_t^{-1} m where
        S_t = abar_t Sigma + v_t I; in the eigenbasis of Sigma both are
        diagonal scalings, by alpha_t lam / (abar_t lam + v_t) and
        v_t / (abar_t lam + v_t).
        """
        return memo_entry(self, (schedule.alpha(t), schedule.sigma2(0, t)), lambda: self._affine(schedule, t))

    def _affine(self, schedule: NoiseSchedule, t: int):
        if t == 0:
            raise ValueError("denoiser is defined for t >= 1")
        a, v, var = self._smoothed_eigvals(schedule, t)
        return self._spectral(a * self._eigvals / var), self._eigvecs @ ((v / var) * (self.mean @ self._eigvecs))

    def ddpm_kernel(self, schedule: NoiseSchedule, s: int, M: int):
        """(Q, W): the DDPM pass of ``sampler.ddpm_denoise`` from s returns m_s(x_s) + sum_k xi_k Q diag(W[k]) Q^T,
        xi_k the noise of its k-th sub-step.  Sub-step hi -> lo scales it by the bridge's sqrt(v), each later one
        by c0 j_hi + c1, the last denoise by j_{s_1}, where j_t = alpha_t lam / (abar_t lam + v_t) are the
        eigenvalues of J_t."""
        return memo_entry(self, (schedule, s, M), lambda: self._ddpm_weights(schedule, s, M))

    def _ddpm_weights(self, schedule: NoiseSchedule, s: int, M: int):
        grid = schedule.substep_grid(s, M)
        gains = [a * self._eigvals / var for a, _, var in (self._smoothed_eigvals(schedule, t) for t in grid[1:])]
        scale, rows = gains[0], []
        for lo, hi, gain in zip(grid[1:-1], grid[2:], gains[1:]):
            p = schedule.bridge_params(lo, hi)
            rows.append(np.sqrt(p.variance) * scale)
            scale = scale * (p.mean_coeff_x0 * gain + p.mean_coeff_xt)
        return self._eigvecs, np.array(rows[::-1]).reshape(-1, self.dim)

    def posterior_x0_cov(self, schedule: NoiseSchedule, t: int) -> np.ndarray:
        """Cov[X_0 | X_t] = Sigma_{0|t} = v_t Sigma S_t^{-1}."""
        if t == 0:
            raise ValueError("needs t >= 1")
        _, v, var = self._smoothed_eigvals(schedule, t)
        return self._spectral(v * self._eigvals / var)

    def denoise(self, schedule: NoiseSchedule, t: int, x_t: np.ndarray) -> DenoiserOutput:
        jac, bias = self.denoiser_affine(schedule, t)
        x_t = np.asarray(x_t, dtype=np.float64)
        return DenoiserOutput(value=x_t @ jac.T + bias, vjp=lambda u: np.asarray(u, dtype=np.float64) @ jac)

    # -- exact backward draw x_0 | x_t ----------------------------------------

    def backward_sample(self, schedule: NoiseSchedule, t: int, x_t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Exact draw from p(x_0 | x_t) = N(m_t(x_t), Sigma_{0|t}): mean x_t J_t + b_t from the memoized
        ``denoiser_affine`` (J_t is symmetric), noise root Q diag(sqrt(v_t lam / S_t))."""
        jac, bias = self.denoiser_affine(schedule, t)
        _, v, var = self._smoothed_eigvals(schedule, t)
        mean = np.asarray(x_t, dtype=np.float64) @ jac
        mean += np.tile(bias, mean.shape[:-1] + (1,))  # a broadcast (d,) add loops over d
        return mean + rng.standard_normal(mean.shape) @ (np.sqrt(self._eigvals * v / var)[:, None] * self._eigvecs.T)

    def log_density(self, x: np.ndarray):
        """log N(x; m, Sigma) for x of shape (..., d)."""
        lam = self._eigvals
        z = (np.asarray(x, dtype=np.float64) - self.mean) @ self._eigvecs
        return -0.5 * (np.sum(z * z / lam, axis=-1) + self.dim * _LOG_2PI + np.sum(np.log(lam)))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.mean + rng.standard_normal((n, self.dim)) @ self._chol.T

    def moments(self) -> "GaussianPrior":
        """The Gaussian of the prior's mean and covariance: the prior itself."""
        return self


@dataclass(frozen=True)
class GmmPrior:
    """Gaussian mixture prior sum_j w_j N(m_j, Sigma_j).

    Internally the points come last: M points are a (d, M) array, component
    terms are (J, M), and coordinates in the eigenbases are (G, d, M), with
    G = 1 when all components share one eigenbasis (their covariances
    commute) and G = J otherwise.
    Sums over components are small matmuls inside the basis change (see
    ``_terms``), so a shared basis never builds a (J, M, d) array; one that
    is exactly I (isotropic covariances, or diagonal ones with ascending
    entries) is skipped.  ``_memo`` keeps the 2Jd + J constants of ``_terms``,
    read-only, for every (alpha_t, v_t) seen.

    When every component has the same covariance (equal as float64 arrays), it is
    factored once and ``denoise`` takes a closed form with no per-component quadratic
    form; ``_memo`` keeps its 3d + J constants per level under (alpha_t, v_t, "shared"),
    which ``observed_denoiser`` reads and adds nothing to, apart from the per-component
    ones that ``score`` and ``log_density`` still read.
    """

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    _eigvals: np.ndarray = field(init=False, repr=False)  # (J, d)
    _eigvecs: np.ndarray = field(init=False, repr=False)  # (G, d, d)
    _basis: np.ndarray | None = field(init=False, repr=False)  # (d, G d): [Q_1 ... Q_G]; None for I
    _mean_coords: np.ndarray = field(init=False, repr=False)  # (J, d): Q_j^T m_j
    _log_weights: np.ndarray = field(init=False, repr=False)  # (J,)
    _shared: bool = field(init=False, repr=False)  # one covariance: ``denoise`` takes the closed form
    _memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = require_numeric_array("weights", self.weights, 1)
        means = require_numeric_array("means", self.means, 2)
        covs = require_numeric_array("covs", self.covs, 3)
        if not (np.all(w >= 0.0) and abs(float(w.sum()) - 1.0) <= 1e-12):
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-12")
        if means.shape[0] != w.shape[0] or covs.shape[0] != w.shape[0]:
            raise ValueError("weights, means, covs must agree on the number of components")
        if covs.shape[1:2] != means.shape[1:]:
            raise ValueError(f"means and covs dimensions disagree: means are {means.shape}, covs {covs.shape}")
        shared = bool(np.all(covs == covs[0]))  # one covariance: validate and factor it once
        factors = [_eigh_spd(covs[j], f"component {j} covariance") for j in range(1 if shared else covs.shape[0])]
        vecs = np.stack([q for _, _, q in factors])
        lams = np.repeat(np.stack([lam for _, lam, _ in factors]), covs.shape[0] if shared else 1, axis=0)
        if all(np.array_equal(q, vecs[0]) for q in vecs):
            vecs = vecs[:1].copy()
        else:
            # Commuting covariances share an eigenbasis that eigh need not return bit for bit:
            # when Q_0 diagonalizes every Sigma_j to roundoff, use Q_0 and those diagonals.
            rot = vecs[0].T @ covs @ vecs[0]
            diag = np.diagonal(rot, axis1=1, axis2=2)
            if np.all(np.abs(rot - diag[:, :, None] * np.eye(rot.shape[1])) <= 1e-12 * lams[:, -1:, None]):
                vecs, lams = vecs[:1].copy(), diag.copy()
        with np.errstate(divide="ignore"):
            log_w = np.log(w)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covs", covs)
        object.__setattr__(self, "_eigvals", lams)
        object.__setattr__(self, "_eigvecs", vecs)
        basis = vecs.transpose(1, 0, 2).reshape(means.shape[1], -1)
        object.__setattr__(self, "_basis", None if np.array_equal(basis, np.eye(means.shape[1])) else basis)
        object.__setattr__(self, "_mean_coords", (means[:, None, :] @ vecs)[:, 0])
        object.__setattr__(self, "_log_weights", log_w)
        object.__setattr__(self, "_shared", shared)
        object.__setattr__(self, "_memo", {})

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    # -- one pass over the components, points last -----------------------------

    def _points(self, x: np.ndarray) -> np.ndarray:
        """The M = x.size / d points of x as a (d, M) view."""
        return np.asarray(x, dtype=np.float64).reshape(-1, self.dim).T

    def _coords(self, pts: np.ndarray) -> np.ndarray:
        """Coordinates Q_g^T x of points (d, M) in each eigenbasis: (G, d, M); under I, a C-ordered
        copy (a matmul's layout) that a VJP closure may keep while the caller overwrites x."""
        if self._basis is None:
            return pts[None].copy()
        return (self._basis.T @ pts).reshape(len(self._eigvecs), self.dim, -1)

    def _from_coords(self, c: np.ndarray) -> np.ndarray:
        """sum_g Q_g c_g for coordinates c of shape (G, d, M): (d, M)."""
        if self._basis is None:
            return c[0]
        return self._basis @ c.reshape(self._basis.shape[1], -1)

    def _terms(self, a: float, v: float, pts: np.ndarray):
        """Component terms of sum_j w_j N(a m_j, S_j), S_j = a^2 Sigma_j + v I, at points (d, M).

        With iv_j = 1 / eig(S_j) and ivm_j = iv_j Q_j^T m_j, the quadratic form in coordinates xc is
        iv_j . xc^2 - 2a ivm_j . xc + a^2 ivm_j . Q_j^T m_j: one (J / G, d) x (d, M) matmul per basis.
        Returns log w_j + log N(x; a m_j, S_j) (J, M), xc (G, d, M) and [iv_j, ivm_j] by basis (G, J / G, 2d).
        """
        d = self.dim
        prec, log_norm = memo_entry(self, (a, v), lambda: self._component_level(a, v))
        xc = self._coords(pts)
        quad = (prec[..., :d] @ (xc * xc) - (2.0 * a) * (prec[..., d:] @ xc)).reshape(self.n_components, -1)
        return log_norm - 0.5 * quad, xc, prec

    def _component_level(self, a: float, v: float):
        """The level constants of ``_terms``: [iv_j, ivm_j] by basis (G, J / G, 2d), and
        log w_j - (d log 2 pi + log det S_j + a^2 ivm_j . Q_j^T m_j) / 2 as (J, 1)."""
        d = self.dim
        var = (a * a) * self._eigvals + v
        prec = np.concatenate([1.0 / var, self._mean_coords / var], axis=1)
        quad_const = d * _LOG_2PI + np.log(var).sum(axis=1)
        quad_const += (a * a) * np.sum(prec[:, d:] * self._mean_coords, axis=1)
        return prec.reshape(len(self._eigvecs), -1, 2 * d), (self._log_weights - 0.5 * quad_const)[:, None]

    def _shared_level(self, a: float, v: float):
        """Constants of the shared-covariance denoiser at level (a, v), with iv = 1 / (a^2 lam + v):
        a iv, a lam iv and v iv as (d, 1) columns, and b_j = log w_j - a^2 iv . mc_j^2 / 2 as (J, 1)."""
        lam = self._eigvals[0]
        iv = 1.0 / ((a * a) * lam + v)
        bias = self._log_weights - (0.5 * a * a) * ((self._mean_coords * self._mean_coords) @ iv)
        return (a * iv)[:, None], (a * lam * iv)[:, None], (v * iv)[:, None], bias[:, None]

    @staticmethod
    def _weigh(prec: np.ndarray, c: np.ndarray) -> np.ndarray:
        """[sum_j c_j iv_j, sum_j c_j ivm_j] per basis, (G, 2d, M), for weights c of shape (J, M)."""
        return prec.transpose(0, 2, 1) @ c.reshape(len(prec), -1, c.shape[-1])

    def _score(self, a: float, v: float, pts: np.ndarray):
        """Score -sum_j r_j S_j^{-1} (x - a m_j) at points (d, M), and the terms its Jacobian reuses."""
        logs, xc, prec = self._terms(a, v, pts)
        resp = _normalize_exp(logs)
        rw = self._weigh(prec, resp)
        return -self._from_coords(xc * rw[:, : self.dim] - a * rw[:, self.dim :]), (xc, prec, resp, rw)

    def score(self, schedule: NoiseSchedule, t: int, x_t: np.ndarray) -> np.ndarray:
        if t == 0:
            raise ValueError("score is defined for t >= 1")
        return self._score(schedule.alpha(t), schedule.sigma2(0, t), self._points(x_t))[0].T.reshape(np.shape(x_t))

    def denoise(self, schedule: NoiseSchedule, t: int, x_t: np.ndarray) -> DenoiserOutput:
        """Responsibility-weighted combination of component denoisers.

        The value is Tweedie's (x + v_t score) / alpha_t.  The Jacobian
        is (I - v_t sum_j r_j S_{t,j}^{-1} + v_t Cov_r[score_j]) / alpha_t,
        the rescaled posterior covariance of X_0 given X_t; its product
        with u is a few small matmuls in the eigenbases, never a matrix.
        The covariance term takes centred weights r_j (score_j . u - E_r[score . u]),
        which keeps the VJP accurate where alpha_t is small and the score large.

        With one shared covariance Q diag(lam) Q^T, the x^T S^{-1} x term cancels from the
        responsibilities, r = softmax_j(b_j + g_j . xc) with g_j = a iv mc_j (see ``_shared_level``),
        and the value is the Gaussian denoiser about the weighted mean,
        Q[a lam iv xc + v iv sum_j r_j mc_j], with no division by alpha_t.  Its Jacobian in the basis
        is diag(a lam iv) + v diag(iv) Cov_r[mc, g], applied with the same centred weights.
        """
        if t == 0:
            raise ValueError("denoiser is defined for t >= 1")
        a, v = schedule.alpha(t), schedule.sigma2(0, t)
        basis, d = self._basis, self.dim
        pts = self._points(x_t)
        if self._shared:
            grad, gain, shrink, bias = memo_entry(self, (a, v, "shared"), lambda: self._shared_level(a, v))
            mc = self._mean_coords
            xc = np.ascontiguousarray(pts) if basis is None else basis.T @ pts  # C order either way: I rounds as Q
            resp = _normalize_exp(mc @ (grad * xc) + bias)
            value = gain * xc + shrink * (mc.T @ resp)

            def shared_vjp(u):
                u_pts = self._points(u)
                uc = np.ascontiguousarray(u_pts) if basis is None else basis.T @ u_pts
                proj = mc @ (grad * uc)  # g_j . u
                out = gain * uc + shrink * (mc.T @ (resp * (proj - np.sum(resp * proj, axis=0))))
                return (out if basis is None else basis @ out).T.reshape(np.shape(u))

            return DenoiserOutput((value if basis is None else basis @ value).T.reshape(np.shape(x_t)), shared_vjp)
        mean_score, (xc, prec, resp, rw) = self._score(a, v, pts)

        def vjp(u):
            u_pts = self._points(u)
            uc = self._coords(u_pts)
            neg_proj = (prec[..., :d] @ (xc * uc) - a * (prec[..., d:] @ uc)).reshape(resp.shape)  # -score_j . u
            cw = self._weigh(prec, resp * (neg_proj - np.sum(resp * neg_proj, axis=0)))
            mixed = self._from_coords(uc * rw[:, :d] - xc * cw[:, :d] + a * cw[:, d:])
            return ((u_pts - v * mixed) / a).T.reshape(np.shape(u))

        return DenoiserOutput(value=((pts + v * mean_score) / a).T.reshape(np.shape(x_t)), vjp=vjp)

    def observed_denoiser(self, schedule: NoiseSchedule, t: int, a_mat: np.ndarray):
        """x_t -> DenoiserOutput(A m_t(x_t), e -> Jac(m_t)^T A^T e) for one shared covariance at t >= 1, else None:
        with r from ``denoise``, A m_t = A_t xc + B_t r and Jac^T A^T e = Q[A_t^T e + v iv mc^T (r (C_t e - r.C_t e))]
        for A_t = AQ diag(a lam iv), B_t = AQ diag(v iv) mc^T, C_t = mc diag(a iv) (AQ)^T, built per call from memo."""
        if not self._shared or t == 0:  # ``denoise`` rejects t = 0
            return None
        a, v = schedule.alpha(t), schedule.sigma2(0, t)
        grad, gain, shrink, bias = memo_entry(self, (a, v, "shared"), lambda: self._shared_level(a, v))
        basis, mc = self._basis, self._mean_coords
        aq = a_mat if basis is None else a_mat @ basis
        a_t, b_t, c_t = aq * gain.T, (aq * shrink.T) @ mc.T, (mc * grad.T) @ aq.T

        def observed(x_t):
            pts = self._points(x_t)
            xc = np.ascontiguousarray(pts) if basis is None else basis.T @ pts
            resp = _normalize_exp(mc @ (grad * xc) + bias)

            def observed_vjp(e):
                e_pts = np.reshape(e, (-1, len(a_t))).T
                proj = c_t @ e_pts  # g_j . A^T e
                out = a_t.T @ e_pts + shrink * (mc.T @ (resp * (proj - np.sum(resp * proj, axis=0))))
                return (out if basis is None else basis @ out).T.reshape(np.shape(x_t))

            return DenoiserOutput((a_t @ xc + b_t @ resp).T.reshape(np.shape(x_t)[:-1] + (-1,)), observed_vjp)
        return observed

    def log_density(self, x: np.ndarray):
        out = logsumexp(self._terms(1.0, 0.0, self._points(x))[0], axis=0).reshape(np.shape(x)[:-1])
        return float(out) if np.ndim(out) == 0 else out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        comp = rng.choice(self.n_components, size=n, p=self.weights)
        out = np.empty((n, self.dim))
        for j in range(self.n_components):
            mask = comp == j
            k = int(mask.sum())
            if k == 0:
                continue
            chol = np.linalg.cholesky(self.covs[j])
            out[mask] = self.means[j] + rng.standard_normal((k, self.dim)) @ chol.T
        return out

    def moments(self) -> GaussianPrior:
        """The Gaussian of the mixture's overall mean and covariance."""
        mean = self.weights @ self.means
        second = np.einsum("j,jab->ab", self.weights, self.covs)
        second += np.einsum("j,ja,jb->ab", self.weights, self.means, self.means)
        return GaussianPrior(mean=mean, cov=second - np.outer(mean, mean))


def exact_posterior(prior, likelihood):
    """Exact Bayesian posterior for a linear-Gaussian observation model.

    Gaussian prior -> conjugate Gaussian posterior; GMM prior -> GMM
    posterior with conjugate components reweighted by their evidence.
    Rejects nonlinear likelihoods (no closed form exists).
    """
    from .likelihoods import LinearGaussianLikelihood

    if not isinstance(likelihood, LinearGaussianLikelihood):
        raise TypeError("exact_posterior requires a linear-Gaussian likelihood")
    a_mat, y, s2 = likelihood.A, likelihood.y, likelihood.sigma_y**2
    if a_mat.shape[1] != prior.dim:
        raise ValueError(f"likelihood A needs {prior.dim} columns, the prior's dimension, but has {a_mat.shape[1]}")

    if isinstance(prior, GaussianPrior):
        mean, cov = _conjugate_update(prior.mean, prior.cov, a_mat, y, s2)
        return GaussianPrior(mean=mean, cov=cov)
    if isinstance(prior, GmmPrior):
        means, covs, logw = [], [], []
        for j in range(prior.n_components):
            mean, cov = _conjugate_update(prior.means[j], prior.covs[j], a_mat, y, s2)
            means.append(mean)
            covs.append(cov)
            ev_cov = s2 * np.eye(a_mat.shape[0]) + a_mat @ prior.covs[j] @ a_mat.T
            logw.append(prior._log_weights[j] + GaussianPrior(a_mat @ prior.means[j], ev_cov).log_density(y))
        w = _normalize_exp(np.asarray(logw))
        return GmmPrior(weights=w, means=np.stack(means), covs=np.stack(covs))
    raise TypeError(f"unsupported prior type {type(prior).__name__}")


def _conjugate_update(mean, cov, a_mat, y, s2):
    prec_prior = spd_inverse(cov)
    prec = prec_prior + a_mat.T @ a_mat / s2
    post_cov = spd_inverse(prec)
    if np.linalg.eigvalsh(post_cov)[0] < _MIN_EIGVAL:
        raise ValueError(f"the exact posterior is near-noiseless at sigma_y={s2 ** 0.5:g}: eigenvalue < {_MIN_EIGVAL}")
    post_mean = post_cov @ (prec_prior @ mean + a_mat.T @ y / s2)
    return post_mean, post_cov


def prior_from_json(obj: dict):
    """Prior from its config form: ``mean``/``cov`` for a Gaussian, ``weights``/``means``/``covs`` for a GMM."""
    kind = obj["kind"]
    if kind == "gaussian":
        try:
            return GaussianPrior(mean=obj["mean"], cov=obj["cov"])
        except ValueError as err:  # GaussianPrior also holds laws that are no prior, so names its fields bare
            raise ValueError(f"prior {err}") from None
    if kind == "gmm":
        return GmmPrior(weights=obj["weights"], means=obj["means"], covs=obj["covs"])
    raise ValueError(f"unknown prior kind {kind!r}")


def spd_inverse(mat: np.ndarray) -> np.ndarray:
    """Symmetrized inverse L^{-T} L^{-1} of an SPD matrix from its Cholesky factor L, which rejects
    (LinAlgError) a matrix that is not positive definite."""
    mat = 0.5 * (mat + np.asarray(mat).T)
    inv_chol = np.linalg.inv(np.linalg.cholesky(mat))
    out = inv_chol.T @ inv_chol
    return 0.5 * (out + out.T)


def logsumexp(logs: np.ndarray, axis: int = 0) -> np.ndarray:
    """log sum exp(logs) along ``axis``, shifted by the slice maximum; an all -inf slice gives -inf."""
    peak = np.max(logs, axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(logs - peak), axis=axis)) + np.squeeze(peak, axis=axis)
