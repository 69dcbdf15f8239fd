"""Mixture-guided Gibbs posterior sampler and the DPS baseline.

One outer step at diffusion time t picks an auxiliary level s < t, then
alternates the three conditional updates of the extended target over
(x_0, x_s, x_t):

    x_s  <-  conditional ghat_s * bridge   (exact draw, VI fit, or VI+MH)
    x_t  <-  forward kernel q(. | x_s)                        (noising)
    x_0  <-  backward denoising from level s       (exact or few-step DDPM)

The driver carries a running time-0 state across outer steps, initializes
each step's x_t by bridging between that state and the previous x_t, and
returns the running state.  All state arrays may carry leading batch axes,
so many independent chains run vectorized.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field

import numpy as np

from . import vi as vi_mod
from .likelihoods import guidance, log_g_hat
from .priors import GaussianPrior
from .schedule import NoiseSchedule, require_integer, require_number, require_numeric_array

CONDITIONAL_BACKENDS = ("exact", "vi", "vi-mh")
DENOISE_BACKENDS = ("ddpm", "exact")


class NonFiniteStateError(RuntimeError):
    """A sampler state turned non-finite; the message names the step (i, t, s)."""


def _check_finite(i: int, t: int, s: int, *states: np.ndarray) -> None:
    for x in states:
        if not np.isfinite(x).all():
            raise NonFiniteStateError(f"non-finite state at outer step i={i} (t={t}, s={s})")


def draw_level(row: tuple[range, np.ndarray | None], rng: np.random.Generator) -> int:
    """One level of an ``IndexDistribution.rows`` row, on the bits of ``rng.integers``, or with a CDF ``rng.choice``."""
    support, cdf = row
    return support[rng.integers(len(support)) if cdf is None else cdf.searchsorted(rng.random(), side="right")]


@dataclass(frozen=True)
class IndexDistribution:
    """How the auxiliary level s is chosen at outer step i (of K, counting down).

    kinds:
      "uniform-mix":   Uniform{tau..t_prev} for the first (1 - late_fraction)
                       of the steps, deterministically t_prev for the last
                       late_fraction (the i <= floor(K * late_fraction) tail).
      "near-zero":     Uniform{1..floor(t_i / 5)}.
      "fixed-midpoint": s = max(2, t_prev // 2), deterministic.
      "explicit":      categorical with given weights over s = 1..len(weights),
                       restricted to s < t_i and renormalized.
      "fixed":         s = values[K - i], a recorded per-step sequence.
    ``rows`` is the law on a grid, the one form the sampler and oracle read; weights and values are tuples.
    """

    kind: str = "uniform-mix"
    tau: int = 10
    late_fraction: float = 0.25
    weights: tuple[float, ...] | None = None
    values: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("uniform-mix", "near-zero", "fixed-midpoint", "explicit", "fixed"):
            raise ValueError(f"unknown index distribution kind {self.kind!r}")
        for name, value in (("weights", self.weights), ("values", self.values)):
            if value is not None and not (isinstance(value, (list, tuple)) or getattr(value, "ndim", 0) == 1):
                raise ValueError(f"{name} must be a list, got {reprlib.repr(value)}")
            object.__setattr__(self, name, None if value is None else tuple(value))
        for j, value in enumerate(self.values or ()):
            require_integer(f"values[{j}]", value)
        if require_integer("tau", self.tau) < 1:
            raise ValueError("tau must be >= 1")
        if not 0.0 <= require_number("late_fraction", self.late_fraction) <= 1.0:
            raise ValueError(f"late_fraction must lie in [0, 1], got {self.late_fraction}")
        if self.kind == "explicit":
            if self.weights is None:
                raise ValueError("explicit kind needs weights")
            w = require_numeric_array("weights", self.weights, 1)
            if not (np.all(w >= 0) and abs(float(w.sum()) - 1.0) <= 1e-9):
                raise ValueError("weights must be a simplex")
        if self.kind == "fixed" and self.values is None:
            raise ValueError("fixed kind needs values")

    def rows(self, timesteps: tuple[int, ...]):
        """Yield the row (support ``range``, read-only CDF or None for uniform) of each outer step i = K..2."""
        K = len(timesteps)
        if self.kind == "fixed" and len(self.values) != K - 1:
            raise ValueError(f"fixed index sequence needs {K - 1} entries, got {len(self.values)}")
        for i in range(K, 1, -1):
            t_i, t_prev, cdf = timesteps[i - 1], timesteps[i - 2], None
            if self.kind == "uniform-mix":
                if t_prev < self.tau:
                    raise ValueError(f"uniform-mix needs t_prev >= tau, got t_prev={t_prev} < tau={self.tau}")
                support = range(t_prev if i <= math.floor(K * self.late_fraction) else self.tau, t_prev + 1)
            elif self.kind == "near-zero":
                support = range(1, max(1, min(t_i - 1, t_i // 5)) + 1)
            elif self.kind == "explicit":
                mass = np.asarray(self.weights[: t_i - 1], dtype=np.float64)
                if mass.sum() <= 0.0:
                    raise ValueError("explicit weights put no mass below t_i")
                support, cdf = range(1, len(mass) + 1), (mass / mass.sum()).cumsum()
                cdf /= cdf[-1]  # as rng.choice renormalizes its CDF
                cdf.flags.writeable = False
            else:  # one level: the midpoint, or the recorded one
                s = max(2, t_prev // 2) if self.kind == "fixed-midpoint" else self.values[K - i]
                if not 1 <= s < t_i:
                    raise ValueError(f"outer step i={i} draws s={s} outside 1 <= s < t_i={t_i}")
                support = range(s, s + 1)
            yield support, cdf


@dataclass(frozen=True)
class ViPhaseSchedule:
    """Per-phase learning rate and gradient-step budget over the outer loop.

    With i counting down from K: the earliest quarter (i >= floor(3K/4))
    uses the damped learning rate; the final quarter (i <= floor(K/4))
    uses the enlarged step budget.  Defaults follow the reference
    hyperparameters (eta 0.01 early / 0.03 later, G 20 late / 5 otherwise).
    """

    eta_early: float = 0.01
    eta: float = 0.03
    steps_late: int = 20
    steps: int = 5

    def __post_init__(self):
        # Check both phases' settings now, so a bad budget or rate fails before any run.
        for name in ("steps", "steps_late"):
            if require_integer(name, getattr(self, name)) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("eta_early", "eta"):
            rate = require_number(name, getattr(self, name))
            if not rate > 0.0:  # NaN too
                raise ValueError(f"{name} must be positive")
            if not math.isfinite(rate):
                raise ValueError(f"{name} must be finite")

    def resolve(self, i: int, K: int) -> tuple[int, float]:
        """(steps, learning_rate) of the VI fit at outer step i."""
        lr = self.eta_early if i >= math.floor(3 * K / 4) else self.eta
        return (self.steps_late if i <= math.floor(K / 4) else self.steps), lr

    @staticmethod
    def constant(eta: float, steps: int) -> "ViPhaseSchedule":
        return ViPhaseSchedule(eta_early=eta, eta=eta, steps_late=steps, steps=steps)


@dataclass(frozen=True)
class MgdmConfig:
    """Configuration of one sampler run.

    ``timesteps`` is the strictly increasing grid (t_1 .. t_K) with
    t_1 > 1 and t_K = T.  ``conditional`` picks the x_s backend
    ("exact" | "vi" | "vi-mh"); ``denoise`` picks the x_0 backend
    ("ddpm" | "exact").  The exact backends exist for the linear-Gaussian
    model only and make the run an exact Gibbs chain, which the
    Gaussian-case oracle reproduces in closed form.  ``levels``, the rows of ``index_dist`` on this
    grid, are built here, so a law with no valid level at some outer step fails before any run.
    """

    timesteps: tuple[int, ...]
    R: int = 1
    M: int = 20
    vi: ViPhaseSchedule = field(default_factory=ViPhaseSchedule)
    index_dist: IndexDistribution = field(default_factory=IndexDistribution)
    conditional: str = "vi"
    denoise: str = "ddpm"
    mh_steps: int = 0
    final: str = "sample"
    final_s: int = 1
    levels: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ts = tuple(require_integer(f"timesteps[{j}]", t) for j, t in enumerate(self.timesteps))
        for name in ("R", "M", "mh_steps", "final_s"):
            require_integer(name, getattr(self, name))
        object.__setattr__(self, "timesteps", ts)
        if len(ts) < 2:
            raise ValueError("need K >= 2 timesteps")
        if ts[0] <= 1:
            raise ValueError("t_1 must be > 1")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("timesteps must be strictly increasing")
        if self.R < 1:
            raise ValueError("R must be >= 1")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.conditional not in CONDITIONAL_BACKENDS:
            raise ValueError(f"unknown conditional backend {self.conditional!r}")
        if self.denoise not in DENOISE_BACKENDS:
            raise ValueError(f"unknown denoise backend {self.denoise!r}")
        if self.conditional == "vi-mh" and self.mh_steps < 1:
            raise ValueError("vi-mh backend needs mh_steps >= 1")
        if self.final not in ("sample", "denoise"):
            raise ValueError(f"unknown final mode {self.final!r}")
        if self.final == "denoise" and not 1 <= self.final_s < ts[1]:
            raise ValueError("denoise final needs 1 <= final_s < t_2")
        object.__setattr__(self, "levels", tuple(self.index_dist.rows(ts)))

    @property
    def K(self) -> int:
        return len(self.timesteps)

    def validate_against(self, schedule: NoiseSchedule) -> None:
        if self.timesteps[-1] != schedule.T:
            raise ValueError(f"t_K={self.timesteps[-1]} must equal the schedule horizon T={schedule.T}")

    def draw_levels(self, rng: np.random.Generator) -> tuple[int, ...]:
        """One auxiliary level per outer step, in the order the outer loop runs them, i = K down to 2."""
        return tuple(draw_level(row, rng) for row in self.levels)


def make_timesteps(K: int, T: int, t1: int | None = None) -> tuple[int, ...]:
    """Evenly spaced integer grid of K timesteps ending exactly at T."""
    if K < 2:
        raise ValueError("need K >= 2")
    if t1 is None:
        t1 = max(2, round(T / K))
    elif not 2 <= t1 < T:
        raise ValueError(f"t1 must lie in [2, T) = [2, {T}), got {t1}")
    grid = np.unique(np.round(np.linspace(t1, T, K)).astype(int))
    if len(grid) != K:
        raise ValueError(f"cannot place {K} distinct timesteps between {t1} and {T}")
    return tuple(int(t) for t in grid)


def ddpm_denoise(
    prior, schedule: NoiseSchedule, x_s: np.ndarray, s: int, M: int, rng: np.random.Generator
) -> np.ndarray:
    """Few-step DDPM estimate of x_0 from x_s.

    Runs the bridge transitions with the plugged denoiser over M sub-steps 0 = s_0 < ... < s_M = s
    and returns the denoiser value at the lowest positive level (the degenerate s_0 = 0 bridge is
    skipped, matching the convention that the final sample is m_1(x_1)).  For a Gaussian prior the
    pass is m_s(x_s) plus the noises weighted by ``GaussianPrior.ddpm_kernel``, all drawn in one
    call, which yields the loop's draws in the loop's order.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if s < 1:
        raise ValueError("s must be >= 1")
    if isinstance(prior, GaussianPrior):
        q, w = prior.ddpm_kernel(schedule, s, M)
        x0 = prior.denoise(schedule, s, x_s).value
        if len(w):
            xi = rng.standard_normal(w.shape[:1] + x0.shape) @ q
            x0 += np.einsum("k...i,ki->...i", xi, w) @ q.T
        return x0
    grid = schedule.substep_grid(s, M)
    x = np.asarray(x_s, dtype=np.float64)
    for j in range(len(grid) - 1, 1, -1):
        hi, lo = grid[j], grid[j - 1]
        x0_hat = prior.denoise(schedule, hi, x).value
        x = schedule.bridge_sample(x0_hat, x, lo, hi, rng)
    return prior.denoise(schedule, grid[1], x).value


def gibbs_step(
    x0: np.ndarray,
    xt: np.ndarray,
    s: int,
    t: int,
    likelihood,
    prior,
    schedule: NoiseSchedule,
    config: MgdmConfig,
    vi_fit: tuple[int, float],
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One deterministic-scan sweep of the three conditionals at levels 1 <= s < t: (x0, xs, xt).

    Every x_s backend reads the sweep's one bridge q(x_s | x_0, x_t).  ``vi_fit`` is the VI fit's
    (steps, learning_rate) at this outer step, as ``config.vi.resolve`` gives it; the exact backend ignores it.
    """
    if not 1 <= s < t:
        raise ValueError(f"a Gibbs sweep needs 1 <= s < t, got s={s}, t={t}")
    bridge = schedule.bridge_params(s, t)
    if config.conditional == "exact":
        # The bridge mean is made in the call, so that it does not outlive the draw.
        xs = vi_mod.exact_conditional_sample(likelihood, prior, schedule, s, bridge.mean(x0, xt), bridge.variance, rng)
    else:
        bridge_mean = bridge.mean(x0, xt)
        theta = vi_mod.fit_variational(guidance(likelihood, prior, schedule, s), bridge_mean, bridge.variance,
                                       *vi_fit, rng)
        xs = vi_mod.variational_sample(theta, rng)
        if config.conditional == "vi-mh":  # log ghat_s, with log_g_hat looked up at each call
            xs = vi_mod.mh_correct(lambda x: log_g_hat(likelihood, prior, schedule, s, x), bridge_mean, bridge.variance,
                                   xs, theta, config.mh_steps, rng)
    xt = schedule.forward_sample(xs, s, t, rng)
    if config.denoise == "exact":
        x0 = prior.backward_sample(schedule, s, xs, rng)
    else:
        x0 = ddpm_denoise(prior, schedule, xs, s, config.M, rng)
    return x0, xs, xt


def _mgdm_core(
    likelihood,
    prior,
    schedule: NoiseSchedule,
    config: MgdmConfig,
    rng: np.random.Generator,
    shape: tuple[int, ...],
):
    config.validate_against(schedule)
    ts, K = config.timesteps, config.K

    xt = rng.standard_normal(shape)
    x0 = prior.denoise(schedule, ts[-1], xt).value  # the running time-0 state

    for i, row in zip(range(K, 1, -1), config.levels):
        t_i, s = ts[i - 1], draw_level(row, rng)
        if i == K:
            _check_finite(i, t_i, s, x0)
        else:
            xt = schedule.bridge_sample(x0, xt, t_i, ts[i], rng)
        vi_fit = config.vi.resolve(i, K)
        for _ in range(config.R):
            x0, _, xt = gibbs_step(x0, xt, s, t_i, likelihood, prior, schedule, config, vi_fit, rng)
            _check_finite(i, t_i, s, x0, xt)

    if config.final == "denoise":
        # Denoiser-valued last step: x_s ~ g0(x_s) q(x_s | m_{t_2}(x_t), x_t), the exact conditional at the
        # level-0 potential (ghat_0 = g0, as m_0 is the identity) from the plugged x_0; then x_0 = m_s(x_s).
        s, t = config.final_s, ts[1]
        bridge, x_plug = schedule.bridge_params(s, t), prior.denoise(schedule, t, xt).value
        x_s = vi_mod.exact_conditional_sample(likelihood, prior, schedule, 0, bridge.mean(x_plug, xt), bridge.variance,
                                              rng)
        x0 = prior.denoise(schedule, s, x_s).value
        _check_finite(1, t, s, x0)
    return x0


def mgdm_run(
    likelihood,
    prior,
    schedule: NoiseSchedule,
    config: MgdmConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """One posterior sample: the running time-0 state after the outer loop.

    Raises ``NonFiniteStateError`` naming the outer step (i, t, s) as soon
    as a carried state turns non-finite.
    """
    return _mgdm_core(likelihood, prior, schedule, config, rng, (prior.dim,))


def mgdm_run_batch(
    likelihood,
    prior,
    schedule: NoiseSchedule,
    config: MgdmConfig,
    n_chains: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """n_chains independent runs, vectorized; the auxiliary level at each
    outer step is shared across chains (required for oracle replay)."""
    if n_chains < 1:
        raise ValueError("n_chains must be >= 1")
    return _mgdm_core(likelihood, prior, schedule, config, rng, (n_chains, prior.dim))


def dps_run(
    likelihood,
    prior,
    schedule: NoiseSchedule,
    K: int,
    zeta: float,
    rng: np.random.Generator,
    n_chains: int | None = None,
) -> np.ndarray:
    """Guided DDPM baseline: backward bridge transitions with the exact
    denoiser plus zeta * grad log ghat_t added to each transition mean.

    zeta = 0 reduces to unconditional DDPM sampling from the prior.
    """
    if not 0.0 <= require_number("zeta", zeta) < math.inf:  # NaN too
        raise ValueError("zeta must be >= 0 and finite")
    if n_chains is not None and n_chains < 1:
        raise ValueError("n_chains must be >= 1")
    ts = make_timesteps(K, schedule.T)
    shape = (prior.dim,) if n_chains is None else (n_chains, prior.dim)
    x = rng.standard_normal(shape)
    for j in range(len(ts) - 1, 0, -1):
        t, s = ts[j], ts[j - 1]
        den = prior.denoise(schedule, t, x)
        p = schedule.bridge_params(s, t)
        mean = p.mean(den.value, x)
        if zeta > 0.0:  # the VJP of grad log g0 through this one denoiser call is grad log ghat_t
            mean += zeta * den.vjp(likelihood.grad_log_g0(den.value))
        x = mean + math.sqrt(p.variance) * rng.standard_normal(shape)
        _check_finite(j, t, s, x)
    x0 = prior.denoise(schedule, ts[0], x).value
    _check_finite(0, ts[0], 0, x0)
    return x0
