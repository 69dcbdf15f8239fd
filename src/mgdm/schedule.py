"""Noise schedule and Gaussian transition/bridge kernels.

Convention: ``alpha[t]`` is the *signal scale* of the forward kernel

    q(x_t | x_s) = N(x_t; (alpha_t / alpha_s) x_s, sigma2_{t|s} I),
    sigma2_{t|s} = 1 - (alpha_t / alpha_s)^2,

so ``alpha_t`` here equals sqrt(alpha_bar_t) in the common DDPM
parameterization.  ``alpha_0 = 1`` (clean data at t = 0) and the sequence
is strictly decreasing with ``alpha_T > 0``.
"""

from __future__ import annotations

import functools
import math
import reprlib
from dataclasses import dataclass, field

import numpy as np

_FAMILIES = ("linear", "cosine", "custom")


def require_integer(name: str, value) -> int:
    """``value`` as an int when it is a Python or numpy integer; a bool or a float (even 2.0)
    raises, naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_number(name: str, value) -> float:
    """``value`` as a float when it is a Python or numpy integer or float; a bool, a string or anything
    else raises, naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def require_numeric_array(name: str, value, ndim: int) -> np.ndarray:
    """``value`` as a finite float64 array of ``ndim`` axes, fewer padded in front (a scalar mean is one entry, a
    (d, d) ``covs`` one component), when its entries are Python or numpy integers or floats; a bool (even among
    numbers, where numpy reads it as 0 or 1), a string, a ragged nesting, more axes, a NaN or an infinity raises,
    naming ``name``."""
    try:
        arr = np.asarray(value)
    except ValueError:  # numpy's "setting an array element with a sequence", which names no field
        raise ValueError(f"{name} must be a rectangular array of numbers") from None
    if arr.dtype.kind not in "iuf" or _holds_bool(value):
        raise ValueError(f"{name} must hold numbers, got {reprlib.repr(value)}")
    if arr.ndim > ndim:
        raise ValueError(f"{name} must have at most {ndim} {'axis' if ndim == 1 else 'axes'}, got shape {arr.shape}")
    arr = np.asarray(arr, dtype=np.float64).reshape((1,) * (ndim - arr.ndim) + arr.shape)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _holds_bool(value) -> bool:
    if isinstance(value, (list, tuple)):
        return any(map(_holds_bool, value))
    return isinstance(value, bool) or getattr(value, "dtype", None) == bool


@dataclass(frozen=True)
class BridgeParams:
    """Coefficients of the bridge kernel q(x_s | x_0, x_t).

    mean = mean_coeff_x0 * x_0 + mean_coeff_xt * x_t, covariance
    ``variance * I``.  mean_coeff_x0 = gamma_{t|s} * alpha_{s|0} and
    mean_coeff_xt = (1 - gamma_{t|s}) / alpha_{t|s} with
    gamma_{t|s} = sigma2_{t|s} / sigma2_{t|0}.
    """

    mean_coeff_x0: float
    mean_coeff_xt: float
    variance: float

    def mean(self, x0: np.ndarray, xt: np.ndarray) -> np.ndarray:
        """Bridge mean mean_coeff_x0 * x_0 + mean_coeff_xt * x_t; broadcasts."""
        x0 = np.asarray(x0, dtype=np.float64)
        xt = np.asarray(xt, dtype=np.float64)
        return self.mean_coeff_x0 * x0 + self.mean_coeff_xt * xt


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Discrete noise schedule alpha_0 .. alpha_T.

    Immutable after construction; safe to share across threads.  All
    sampling methods take a caller-owned ``numpy.random.Generator``.  The
    alpha_t are also kept as Python floats, so every coefficient is a few
    float operations on lookups.  Compared and hashed by identity, as a key
    of the priors' memos.
    """

    alphas: np.ndarray
    family: str = "custom"
    T: int = field(init=False)
    _alpha: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        alphas = require_numeric_array("alphas", self.alphas, 1)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "T", alphas.shape[0] - 1)
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown schedule family {self.family!r}")
        if self.T < 2:
            raise ValueError(f"schedule needs T >= 2, got T={self.T}")
        if not math.isclose(alphas[0], 1.0, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError("alpha_0 must equal 1")
        if not np.all(alphas > 0.0):
            raise ValueError("all alpha_t must be positive")
        if np.any(np.diff(alphas) >= 0.0):
            raise ValueError("alpha_t must be strictly decreasing")
        object.__setattr__(self, "_alpha", tuple(alphas.tolist()))

    # -- scalar coefficients ------------------------------------------------

    def alpha(self, t: int) -> float:
        """Signal scale alpha_t."""
        self._check_time(t)
        return self._alpha[t]

    def sigma2(self, s: int, t: int) -> float:
        """Forward-kernel variance sigma2_{t|s} = 1 - (alpha_t/alpha_s)^2."""
        self._check_pair(s, t, allow_equal=True)
        if s == t:
            return 0.0
        return 1.0 - (self._alpha[t] / self._alpha[s]) ** 2

    def alpha_ratio(self, s: int, t: int) -> float:
        """Forward-kernel mean coefficient alpha_{t|s} = alpha_t / alpha_s."""
        self._check_pair(s, t, allow_equal=True)
        return self._alpha[t] / self._alpha[s]

    def bridge_params(self, s: int, t: int) -> BridgeParams:
        """Coefficients of q(x_s | x_0, x_t) for 0 <= s < t.

        s = 0 degenerates to (1, 0, 0): the bridge collapses on x_0.
        """
        self._check_pair(s, t, allow_equal=False)
        a = self._alpha
        ratio = a[t] / a[s]
        var_st = 1.0 - ratio**2
        var_0t = 1.0 - (a[t] / a[0]) ** 2
        gamma = var_st / var_0t
        coeff_x0 = gamma * (a[s] / a[0])
        coeff_xt = (1.0 - gamma) / ratio
        variance = var_st * (1.0 - (a[s] / a[0]) ** 2) / var_0t
        return BridgeParams(coeff_x0, coeff_xt, variance)

    def substep_grid(self, s: int, M: int) -> tuple[int, ...]:
        """Distinct rounded levels of linspace(0, s, M + 1), in increasing order."""
        self._check_time(s)
        return _substep_grid(s, M)

    # -- sampling -----------------------------------------------------------

    def forward_sample(self, x_s: np.ndarray, s: int, t: int, rng: np.random.Generator) -> np.ndarray:
        """Draw x_t ~ q(. | x_s).  Broadcasts over leading axes of x_s."""
        self._check_pair(s, t, allow_equal=False)
        x_s = np.asarray(x_s, dtype=np.float64)
        ratio = self._alpha[t] / self._alpha[s]
        return ratio * x_s + math.sqrt(1.0 - ratio**2) * rng.standard_normal(x_s.shape)

    def bridge_sample(
        self, x0: np.ndarray, xt: np.ndarray, s: int, t: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw x_s ~ q(. | x_0, x_t).  For s = 0 returns x0 exactly."""
        p = self.bridge_params(s, t)
        mean = p.mean(x0, xt)
        if p.variance == 0.0:
            return mean
        return mean + math.sqrt(p.variance) * rng.standard_normal(mean.shape)

    # -- serialization ------------------------------------------------------

    @classmethod
    def from_json(cls, obj: dict) -> "NoiseSchedule":
        sched = cls(alphas=obj["alphas"], family=obj.get("family", "custom"))
        if "T" in obj and require_integer("T", obj["T"]) != sched.T:
            raise ValueError("stated T inconsistent with len(alphas) - 1")
        return sched

    # -- internals ----------------------------------------------------------

    def _check_time(self, t: int) -> None:
        if not 0 <= t <= self.T:
            raise ValueError(f"time index {t} outside [0, {self.T}]")

    def _check_pair(self, s: int, t: int, allow_equal: bool) -> None:
        if 0 <= s < t <= self.T or (allow_equal and 0 <= s == t <= self.T):
            return
        self._check_time(s)
        self._check_time(t)
        if s > t or (s == t and not allow_equal):
            raise ValueError(f"need s < t, got s={s}, t={t}" if not allow_equal else f"need s <= t, got s={s}, t={t}")


@functools.lru_cache(maxsize=None)
def _substep_grid(s: int, M: int) -> tuple[int, ...]:
    """The levels round(j s / M), j = 0 .. M, without repeats: j (s / M) is numpy's linspace
    value bit for bit, and Python's round, like numpy's, rounds half to even."""
    return tuple(sorted({round(j * (s / M)) for j in range(M)} | {s}))


def make_schedule(kind: str, T: int, alpha_end: float = 0.01) -> NoiseSchedule:
    """Build a noise schedule of the given family.

    "linear": sigma2_{t|0} linear in t, i.e. alpha_t^2 = 1 - (t/T)(1 - alpha_end^2).
    "cosine": squared-cosine profile with the argument stopped short of
    pi/2 so that alpha_T stays strictly positive.
    """
    if require_integer("T", T) < 2:
        raise ValueError(f"T must be >= 2, got {T}")
    alpha_end = require_number("alpha_end", alpha_end)
    t = np.arange(T + 1, dtype=np.float64)
    if kind == "linear":
        if not 0.0 < alpha_end < 1.0:  # NaN too
            raise ValueError(f"alpha_end must lie in (0, 1), got {alpha_end}")
        abar = 1.0 - (t / T) * (1.0 - alpha_end**2)
    elif kind == "cosine":
        offset = 0.008
        u = (t / T) * 0.98
        f = np.cos((u + offset) / (1.0 + offset) * math.pi / 2.0) ** 2
        abar = f / f[0]
    else:
        raise ValueError(f"unknown schedule family {kind!r}")
    alphas = np.sqrt(abar)
    alphas[0] = 1.0
    return NoiseSchedule(alphas=alphas, family=kind)


def gauss_log_density(x: np.ndarray, mean: np.ndarray, variance) -> np.ndarray | float:
    """Log density of N(mean, variance * I) or a diagonal Gaussian.

    ``variance`` is a positive scalar or a positive vector of per-coordinate
    variances.  Inputs of shape (..., d) give output of shape (...,).
    """
    x = np.asarray(x, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    var = np.asarray(variance, dtype=np.float64)
    if np.any(var <= 0.0):
        raise ValueError("variance must be positive")
    resid2 = (x - mean) ** 2 / var
    log_norm = np.broadcast_to(np.log(2.0 * np.pi * var), resid2.shape)
    out = -0.5 * np.sum(resid2 + log_norm, axis=-1)
    return float(out) if np.ndim(out) == 0 else out
