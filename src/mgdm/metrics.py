"""Distributional discrepancy measures for the acceptance tests.

All measures are nonnegative, zero on identical inputs, and (for the
sliced variant) deterministic given the projection seed.
"""

from __future__ import annotations

import numpy as np

from .priors import GaussianPrior


def _as_samples(x) -> np.ndarray:
    """x as an (N, d) sample matrix: at least one sample, all finite."""
    arr = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if arr.shape[0] < 1:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return arr


def gaussian_kl(p: GaussianPrior, q: GaussianPrior) -> float:
    """Closed-form KL(N_p || N_q), from the Cholesky factors each law keeps (its construction checks SPD)."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    d, chol_p, chol_q = p.dim, p._chol, q._chol
    solve = np.linalg.solve
    trace = float(np.trace(solve(chol_q.T, solve(chol_q, p.cov))))
    diff = q.mean - p.mean
    z = solve(chol_q, diff)
    quad = float(z @ z)
    logdet_q = 2.0 * float(np.sum(np.log(np.diagonal(chol_q))))
    logdet_p = 2.0 * float(np.sum(np.log(np.diagonal(chol_p))))
    return 0.5 * (trace + quad - d + logdet_q - logdet_p)


def wasserstein1_1d(a, b) -> float:
    """W1 between two equal-size 1-D samples: mean |sorted difference|."""
    xa, xb = _as_samples(a), _as_samples(b)
    if xa.shape[1] != 1 or xb.shape[1] != 1:
        raise ValueError("wasserstein1_1d needs d = 1")
    if xa.shape[0] != xb.shape[0]:
        raise ValueError("wasserstein1_1d needs equal sample counts")
    return float(np.mean(np.abs(np.sort(xa[:, 0]) - np.sort(xb[:, 0]))))


# Projected values per sample set in one block of directions: 256 KB of float64, within L2.
_BLOCK_VALUES = 2**15


def _w2_sq_1d(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Squared 1-D W2 per row of two (m, N) sorted-sample blocks."""
    return np.mean((np.sort(u, axis=1) - np.sort(v, axis=1)) ** 2, axis=1)


def _linear_quantiles(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """``np.quantile(samples, grid, axis=0).T`` bit for bit, from one sort per column.

    numpy's default "linear" rule: the quantile at q sits at position
    (n - 1) q of the sorted column, interpolated between its two
    neighbours with numpy's two-sided lerp.  Returns shape (m, len(grid))
    for (n, m) samples.
    """
    ordered = np.sort(samples.T, axis=1)
    n = ordered.shape[1]
    pos = (n - 1) * grid
    lo = np.minimum(np.floor(pos), n - 1).astype(np.intp)
    frac = pos - lo
    below, above = ordered[:, lo], ordered[:, np.minimum(lo + 1, n - 1)]
    del ordered  # with the in-place steps below, at most four (m, len(grid)) arrays are live
    diff = above - below
    out = diff * frac
    out += below
    diff *= 1 - frac
    np.subtract(above, diff, out=out, where=frac >= 0.5)
    return out


def sliced_wasserstein2(a, b, n_projections: int = 512, *, rng: np.random.Generator) -> float:
    """Sliced W2, scaled by sqrt(d) so a pure translation by c scores ||c||.

    Projects both sets on ``n_projections`` random unit directions and
    root-means the squared 1-D W2 values.  Unequal sample counts are
    compared through interpolated quantiles.  Directions are projected in
    blocks of about ``_BLOCK_VALUES`` values per sample set, so memory does
    not grow with ``n_projections``; a set whose whole projection fits one
    block is projected once, as BLAS can round a small set's product with a
    block differently.  Each direction is scored on its own.
    """
    xa, xb = _as_samples(a), _as_samples(b)
    if xa.shape[1] != xb.shape[1]:
        raise ValueError("dimension mismatch")
    d = xa.shape[1]
    dirs = rng.standard_normal((n_projections, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # Score each distinct direction once (all are +-1 in d = 1); with no repeats keep the drawn order and blocks.
    uniq, inverse = np.unique(dirs, axis=0, return_inverse=True)
    if len(uniq) == n_projections:
        uniq, inverse = dirs, slice(None)
    n = max(xa.shape[0], xb.shape[0])
    grid = (np.arange(n) + 0.5) / n
    w2sq = np.empty(len(uniq))
    # At least two directions per block: numpy sends a one-column product to gemv, which can round
    # differently from the gemm that projects all directions at once.
    n_blocks = max(1, len(uniq) // max(2, _BLOCK_VALUES // n))
    whole = [x @ uniq.T if len(x) * len(uniq) <= _BLOCK_VALUES else None for x in (xa, xb)]
    stop = 0
    for out in np.array_split(w2sq, n_blocks):
        cols = slice(stop, stop := stop + len(out))  # an index array would reorder the block and its row sums
        pa, pb = (x @ uniq[cols].T if p is None else p[:, cols] for x, p in zip((xa, xb), whole))  # (Na|Nb, block)
        if xa.shape[0] == xb.shape[0]:
            out[:] = _w2_sq_1d(pa.T, pb.T)
        else:
            out[:] = np.mean((_linear_quantiles(pa, grid) - _linear_quantiles(pb, grid)) ** 2, axis=1)
    return float(np.sqrt(d * np.mean(w2sq[inverse])))
