"""Mean/covariance container for exact Gaussian laws."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GaussianMoments:
    """First two moments of a Gaussian law.

    ``cov`` must be symmetric with eigenvalues >= -1e-10; tiny negative
    eigenvalues from accumulated roundoff are tolerated.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=np.float64))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise ValueError(f"cov shape {cov.shape} does not match mean dimension {d}")
        if not np.allclose(cov, cov.T, atol=1e-8):
            raise ValueError("cov must be symmetric")
        if np.min(np.linalg.eigvalsh(cov)) < -1e-10:
            raise ValueError("cov must be PSD (eigenvalues >= -1e-10)")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]
