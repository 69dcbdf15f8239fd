"""Discrepancy measures: closed-form KL, 1-D W1, sliced W2."""

import tracemalloc

import numpy as np
import pytest

from mgdm.metrics import _linear_quantiles, gaussian_kl, sliced_wasserstein2, wasserstein1_1d
from mgdm.priors import GaussianPrior


class TestGaussianKl:
    def test_zero_on_identical(self):
        p = GaussianPrior(mean=[0.3, -0.1], cov=[[1.0, 0.2], [0.2, 0.8]])
        assert gaussian_kl(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_unit_mean_shift(self):
        p = GaussianPrior(mean=[0.0], cov=[[1.0]])
        q = GaussianPrior(mean=[1.0], cov=[[1.0]])
        assert gaussian_kl(p, q) == pytest.approx(0.5, abs=1e-12)

    def test_variance_formula(self):
        p = GaussianPrior(mean=[0.0], cov=[[2.0]])
        q = GaussianPrior(mean=[0.0], cov=[[1.0]])
        assert gaussian_kl(p, q) == pytest.approx(0.5 * (2.0 - 1.0 - np.log(2.0)), abs=1e-9)
        assert gaussian_kl(p, q) == pytest.approx(0.153426, abs=1e-6)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            p = GaussianPrior(mean=rng.standard_normal(3), cov=a @ a.T + 0.1 * np.eye(3))
            q = GaussianPrior(mean=rng.standard_normal(3), cov=b @ b.T + 0.1 * np.eye(3))
            assert gaussian_kl(p, q) >= 0.0

    def test_rejects_degenerate_covariance(self):
        """A zero covariance is no Gaussian law: it fails at construction, before any KL."""
        q = GaussianPrior(mean=[0.0, 0.0], cov=np.eye(2))
        with pytest.raises(ValueError, match="eigenvalues >= 1e-12"):
            gaussian_kl(GaussianPrior(mean=[0.0, 0.0], cov=np.zeros((2, 2))), q)


class TestWasserstein1:
    def test_zero_on_identical(self):
        a = np.random.default_rng(1).standard_normal((100, 1))
        assert wasserstein1_1d(a, a) == 0.0

    def test_translation(self):
        a = np.random.default_rng(2).standard_normal((500, 1))
        assert wasserstein1_1d(a, a + 0.7) == pytest.approx(0.7, abs=1e-12)

    def test_matches_analytic_gaussian_w1(self):
        """Equal-variance Gaussians: W1 = |mu difference|; zero-mean scale
        pair: W1 = |sigma difference| E|Z|."""
        rng = np.random.default_rng(3)
        n = 1_000_000
        a = rng.standard_normal((n, 1))
        b = rng.standard_normal((n, 1)) + 0.5
        assert abs(wasserstein1_1d(a, b) - 0.5) < 1e-2
        c = 1.8 * rng.standard_normal((n, 1))
        expected = 0.8 * np.sqrt(2.0 / np.pi)
        assert abs(wasserstein1_1d(a, c) - expected) < 1e-2

    def test_rejections(self):
        with pytest.raises(ValueError):
            wasserstein1_1d(np.zeros((10, 2)), np.zeros((10, 2)))
        with pytest.raises(ValueError):
            wasserstein1_1d(np.zeros((10, 1)), np.zeros((11, 1)))


def unblocked_sliced_w2(a, b, n_projections, rng):
    """Sliced W2 with every direction projected and sorted at once: the reference for the blocked kernel.
    Its quantiles come from ``_linear_quantiles``, which the test below pins to ``np.quantile``."""
    d = a.shape[1]
    dirs = rng.standard_normal((n_projections, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pa, pb = a @ dirs.T, b @ dirs.T
    if a.shape[0] == b.shape[0]:
        w2sq = np.mean((np.sort(pa.T, axis=1) - np.sort(pb.T, axis=1)) ** 2, axis=1)
    else:
        n = max(a.shape[0], b.shape[0])
        grid = (np.arange(n) + 0.5) / n
        w2sq = np.mean((_linear_quantiles(pa, grid) - _linear_quantiles(pb, grid)) ** 2, axis=1)
    return float(np.sqrt(d * np.mean(w2sq)))


def peak_traced_mb(fn):
    """Peak memory (MB) that tracemalloc sees while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestSlicedWasserstein:
    def test_zero_on_identical(self):
        a = np.random.default_rng(4).standard_normal((200, 3))
        assert sliced_wasserstein2(a, a, rng=np.random.default_rng(0)) == 0.0

    def test_rejects_zero_projections(self):
        """It used to warn "Mean of empty slice" and return NaN."""
        a = np.random.default_rng(4).standard_normal((20, 2))
        with pytest.raises(ValueError, match="^n_projections must be >= 1$"):
            sliced_wasserstein2(a, a, n_projections=0, rng=np.random.default_rng(0))

    def test_translation_recovers_norm(self):
        """Shift by c scores ||c|| within 5% at 512 projections."""
        rng = np.random.default_rng(5)
        for d in (2, 5):
            a = rng.standard_normal((4000, d))
            c = rng.standard_normal(d)
            c *= 1.3 / np.linalg.norm(c)
            sw = sliced_wasserstein2(a, a + c, n_projections=512, rng=np.random.default_rng(11))
            assert abs(sw - 1.3) / 1.3 < 0.05

    def test_rotation_invariance(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((2000, 2)) @ np.array([[1.0, 0.0], [0.4, 0.6]])
        b = rng.standard_normal((2000, 2)) + np.array([0.5, -0.2])
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        sw_plain = sliced_wasserstein2(a, b, n_projections=2048, rng=np.random.default_rng(1))
        sw_rot = sliced_wasserstein2(a @ rot.T, b @ rot.T, n_projections=2048, rng=np.random.default_rng(2))
        assert abs(sw_plain - sw_rot) / sw_plain < 0.05

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((300, 2))
        b = rng.standard_normal((400, 2))
        x = sliced_wasserstein2(a, b, rng=np.random.default_rng(42))
        y = sliced_wasserstein2(a, b, rng=np.random.default_rng(42))
        assert x == y

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sliced_wasserstein2(np.zeros((5, 2)), np.zeros((5, 3)), rng=np.random.default_rng(0))

    @pytest.mark.parametrize("d", [1, 3])
    def test_unequal_sizes_match_numpy_quantile_reference(self, d):
        """Both sides' quantiles equal np.quantile(p, grid, axis=0) bit for bit."""
        counts = (1, 2, 100, 1024, 1025)
        rng = np.random.default_rng(12)
        dirs = rng.standard_normal((16, d))
        for n_a in counts:
            for n_b in counts:
                n = max(n_a, n_b)
                grid = (np.arange(n) + 0.5) / n
                for p in (rng.standard_normal((n_a, d)) @ dirs.T, rng.standard_normal((n_b, d)) @ dirs.T):
                    got = _linear_quantiles(p, grid)
                    want = np.quantile(p, grid, axis=0).T
                    assert got.shape == want.shape
                    assert np.array_equal(got.view(np.int64), want.view(np.int64)), (n_a, n_b)

    def test_unequal_sizes_score_matches_numpy_quantile_path(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((100, 2))
        b = rng.standard_normal((1024, 2)) + 0.3
        dirs = np.random.default_rng(42).standard_normal((512, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        grid = (np.arange(1024) + 0.5) / 1024
        qa = np.quantile(a @ dirs.T, grid, axis=0).T
        qb = np.quantile(b @ dirs.T, grid, axis=0).T
        want = float(np.sqrt(2 * np.mean(np.mean((qa - qb) ** 2, axis=1))))
        assert sliced_wasserstein2(a, b, rng=np.random.default_rng(42)) == want

    def test_rejects_empty_or_non_finite_samples(self):
        arr = np.random.default_rng(8).standard_normal((50, 2))
        for bad in (np.array([[np.inf, 0.0]]), np.empty((0, 2))):
            with pytest.raises(ValueError):
                sliced_wasserstein2(bad, arr, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("d", [1, 3])
    def test_blocked_kernel_matches_unblocked_formula(self, d):
        """Bit for bit on both paths, with projection counts that are not multiples of a block."""
        counts = (1, 2, 100, 1024, 1025)
        rng = np.random.default_rng(14)
        for n_a in counts:
            for n_b in counts:
                a, b = rng.standard_normal((n_a, d)), rng.standard_normal((n_b, d)) + 0.3
                for m in (1, 513, 1000):
                    got = sliced_wasserstein2(a, b, n_projections=m, rng=np.random.default_rng(m))
                    assert got == unblocked_sliced_w2(a, b, m, np.random.default_rng(m)), (n_a, n_b, m)

    @pytest.mark.parametrize("n_small", [4, 30])
    def test_small_set_in_high_dimension_matches_unblocked_formula(self, n_small):
        """d = 80, a small set against 1,024 samples: the small set's whole projection fits one block,
        and projecting it block by block used to move 14 of these 80 cases by about 1e-16."""
        for seed in range(40):
            rng = np.random.default_rng(seed)
            a, b = rng.standard_normal((n_small, 80)), rng.standard_normal((1024, 80)) + 0.1
            got = sliced_wasserstein2(a, b, n_projections=512, rng=np.random.default_rng(seed))
            assert got == unblocked_sliced_w2(a, b, 512, np.random.default_rng(seed)), seed

    def test_blocked_kernel_matches_when_the_budget_holds_under_one_direction(self):
        """At 40,000 samples the value budget covers less than one direction per block."""
        rng = np.random.default_rng(15)
        a, b = rng.standard_normal((40_000, 3)), rng.standard_normal((40_000, 3)) + 0.2
        for x, y in ((a, b), (a, b[:100])):
            got = sliced_wasserstein2(x, y, n_projections=3, rng=np.random.default_rng(3))
            assert got == unblocked_sliced_w2(x, y, 3, np.random.default_rng(3))

    def test_one_dimensional_directions_are_scored_once(self, monkeypatch):
        """In d = 1 the unit directions are +1 and -1: each is projected and scored once, per path."""
        from mgdm import metrics

        scored = []
        sort_rows, quantiles = metrics._w2_sq_1d, metrics._linear_quantiles
        monkeypatch.setattr(metrics, "_w2_sq_1d", lambda u, v: scored.append(len(u)) or sort_rows(u, v))
        monkeypatch.setattr(metrics, "_linear_quantiles", lambda p, g: scored.append(p.shape[1]) or quantiles(p, g))
        rng = np.random.default_rng(17)
        a = rng.standard_normal((100, 1))
        for b in (rng.standard_normal((100, 1)), rng.standard_normal((1024, 1))):
            scored.clear()
            got = sliced_wasserstein2(a, b, rng=np.random.default_rng(5))
            assert got == unblocked_sliced_w2(a, b, 512, np.random.default_rng(5))
            assert scored == ([2] if len(b) == len(a) else [2, 2])

    @pytest.mark.parametrize("n_a, n_b", [(100, 1024), (10_000, 10_000)])
    def test_memory_does_not_grow_with_projection_count(self, n_a, n_b):
        """512 projections of 1-D sets peak under 4 MB; all at once they took 25.7 MB (100 vs 1024)
        and 164 MB (10,000 vs 10,000)."""
        rng = np.random.default_rng(16)
        a, b = rng.standard_normal((n_a, 1)), rng.standard_normal((n_b, 1))
        assert peak_traced_mb(lambda: sliced_wasserstein2(a, b, n_projections=512, rng=rng)) < 4.0
