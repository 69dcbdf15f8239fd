"""Schedule construction, kernel coefficients, and kernel identities."""

import json

import numpy as np
import pytest

from mgdm.schedule import NoiseSchedule, gauss_log_density, make_schedule, require_numeric_array


def toy_schedule():
    """Hand-picked alphas for exact-arithmetic checks."""
    return NoiseSchedule(alphas=np.array([1.0, 0.9, 0.8, 0.3]))


class TestConstruction:
    def test_linear_alpha0_is_one(self):
        sched = make_schedule("linear", 1000)
        assert sched.alpha(0) == 1.0

    def test_linear_monotone(self):
        sched = make_schedule("linear", 1000)
        assert sched.alpha(1000) < sched.alpha(1)
        assert np.all(np.diff(sched.alphas) < 0)

    def test_alpha_T_positive(self):
        for family in ("linear", "cosine"):
            assert make_schedule(family, 500).alpha(500) > 0

    def test_cosine_stepwise_variances_in_unit_interval(self):
        """sigma2_{t|t-1} in (0,1) for every step of a cosine schedule."""
        sched = make_schedule("cosine", 100)
        for t in range(1, 101):
            s2 = sched.sigma2(t - 1, t)
            assert 0.0 < s2 < 1.0

    def test_rejects_small_T(self):
        with pytest.raises(ValueError):
            make_schedule("linear", 1)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            make_schedule("quadratic", 100)

    def test_rejects_nonmonotone_alphas(self):
        with pytest.raises(ValueError):
            NoiseSchedule(alphas=np.array([1.0, 0.5, 0.5]))

    def test_rejects_alpha0_not_one(self):
        with pytest.raises(ValueError):
            NoiseSchedule(alphas=np.array([0.99, 0.5, 0.2]))

    @pytest.mark.parametrize("alphas", [["1", "0.5", "0.1"], [True, 0.5, 0.1], np.array(["1", "0.5", "0.1"])],
                             ids=["strings", "bool-among-numbers", "string-array"])
    def test_rejects_alphas_that_are_not_numbers(self, alphas):
        """A float64 conversion would read "0.5" as 0.5 and True as 1.0, here a valid schedule."""
        for build in (lambda: NoiseSchedule(alphas=alphas), lambda: NoiseSchedule.from_json({"alphas": alphas})):
            with pytest.raises(ValueError, match="^alphas must hold numbers"):
                build()

    @pytest.mark.parametrize("alpha_end", [True, "0.01", None])
    def test_rejects_an_alpha_end_that_is_not_a_number(self, alpha_end):
        with pytest.raises(ValueError, match="^alpha_end must be a number"):
            make_schedule("linear", 10, alpha_end=alpha_end)

    def test_numeric_arrays_take_integers_and_numpy_numbers(self):
        out = require_numeric_array("x", [[1, np.int64(2)], [np.float32(0.5), 0.25]])
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [[1.0, 2.0], [0.5, 0.25]])

    @pytest.mark.parametrize("value", [[[0.5], [0.25, 0.25]], [1.0, [1.0, 2.0]], [[[1.0]], [[1.0], [2.0]]]],
                             ids=["rows", "scalar-and-row", "depth-3"])
    def test_ragged_arrays_name_their_field(self, value):
        """numpy's own message ("setting an array element with a sequence...") names no field."""
        with pytest.raises(ValueError, match=r"^x must be a rectangular array of numbers$"):
            require_numeric_array("x", value)


class TestSigma2:
    def test_equal_times_give_zero(self):
        assert toy_schedule().sigma2(2, 2) == 0.0

    def test_known_values(self):
        sched = toy_schedule()
        np.testing.assert_allclose(sched.sigma2(0, 2), 0.36, atol=1e-15)
        np.testing.assert_allclose(sched.sigma2(1, 3), 1.0 - (0.3 / 0.9) ** 2, atol=1e-15)
        np.testing.assert_allclose(sched.sigma2(1, 3), 8.0 / 9.0, atol=1e-12)

    def test_rejects_reversed_times(self):
        with pytest.raises(ValueError):
            toy_schedule().sigma2(2, 1)

    def test_stepwise_in_unit_interval(self):
        sched = make_schedule("linear", 200)
        for t in range(1, 201):
            assert 0.0 < sched.sigma2(t - 1, t) <= 1.0


class TestForwardSample:
    def test_rejects_equal_times(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            toy_schedule().forward_sample(np.zeros(2), 1, 1, rng)

    def test_monte_carlo_mean(self):
        sched = make_schedule("linear", 100)
        rng = np.random.default_rng(42)
        x_s = np.array([1.5, -2.0, 0.5])
        s, t, n = 20, 70, 100_000
        draws = sched.forward_sample(np.tile(x_s, (n, 1)), s, t, rng)
        target = sched.alpha_ratio(s, t) * x_s
        tol = 4.0 * np.sqrt(sched.sigma2(s, t) / n)
        assert np.all(np.abs(draws.mean(axis=0) - target) < tol)

    def test_monte_carlo_variance_single_step(self):
        sched = make_schedule("linear", 10)
        rng = np.random.default_rng(7)
        s, t, n = 4, 5, 100_000
        draws = sched.forward_sample(np.zeros((n, 1)), s, t, rng)
        assert abs(draws.var() / sched.sigma2(s, t) - 1.0) < 0.05

    def test_zero_state_gives_pure_noise(self):
        sched = make_schedule("linear", 100)
        rng = np.random.default_rng(3)
        draws = sched.forward_sample(np.zeros((50_000, 1)), 0, 100, rng)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - sched.sigma2(0, 100)) < 0.01


class TestBridge:
    def test_degenerate_at_s_zero(self):
        p = make_schedule("linear", 100).bridge_params(0, 40)
        assert (p.mean_coeff_x0, p.mean_coeff_xt, p.variance) == (1.0, 0.0, 0.0)

    def test_rejects_s_at_or_above_t(self):
        sched = make_schedule("linear", 100)
        with pytest.raises(ValueError):
            sched.bridge_params(40, 40)
        with pytest.raises(ValueError):
            sched.bridge_params(41, 40)

    def test_gamma_in_unit_interval(self):
        sched = make_schedule("cosine", 300)
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = int(rng.integers(0, 299))
            t = int(rng.integers(s + 1, 301))
            gamma = sched.sigma2(s, t) / sched.sigma2(0, t)
            assert 0.0 <= gamma <= 1.0

    def test_factorization_identity(self):
        """q(x_s|x_0) q(x_t|x_s) = q(x_s|x_0,x_t) q(x_t|x_0) as log densities."""
        sched = make_schedule("linear", 1000)
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = int(rng.integers(1, 999))
            t = int(rng.integers(s + 1, 1001))
            x0, xs, xt = rng.standard_normal((3, 100, 2)) * 2.0
            lhs = gauss_log_density(xs, sched.alpha_ratio(0, s) * x0, sched.sigma2(0, s))
            lhs = lhs + gauss_log_density(xt, sched.alpha_ratio(s, t) * xs, sched.sigma2(s, t))
            p = sched.bridge_params(s, t)
            rhs = gauss_log_density(xs, p.mean_coeff_x0 * x0 + p.mean_coeff_xt * xt, p.variance)
            rhs = rhs + gauss_log_density(xt, sched.alpha_ratio(0, t) * x0, sched.sigma2(0, t))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_bridge_sample_s_zero_returns_x0(self):
        sched = make_schedule("linear", 100)
        rng = np.random.default_rng(0)
        x0 = np.array([1.0, 2.0])
        out = sched.bridge_sample(x0, np.array([0.3, -0.1]), 0, 60, rng)
        np.testing.assert_array_equal(out, x0)

    def test_bridge_sample_zero_endpoints_moments(self):
        sched = make_schedule("linear", 100)
        rng = np.random.default_rng(5)
        s, t, n = 30, 80, 100_000
        draws = sched.bridge_sample(np.zeros((n, 1)), np.zeros((n, 1)), s, t, rng)
        p = sched.bridge_params(s, t)
        assert abs(draws.mean()) < 4.0 * np.sqrt(p.variance / n)
        assert abs(draws.var() / p.variance - 1.0) < 0.05

    def test_bridge_sample_monte_carlo_mean(self):
        sched = make_schedule("linear", 100)
        rng = np.random.default_rng(9)
        s, t, n = 25, 75, 100_000
        x0, xt = np.array([0.8]), np.array([-0.4])
        draws = sched.bridge_sample(np.tile(x0, (n, 1)), np.tile(xt, (n, 1)), s, t, rng)
        p = sched.bridge_params(s, t)
        target = p.mean_coeff_x0 * x0 + p.mean_coeff_xt * xt
        assert abs(draws.mean() - target[0]) < 4.0 * np.sqrt(p.variance / n)


class TestCoefficientLookups:
    """Coefficients from the per-level tables equal the numpy-scalar formulas bit for bit."""

    @staticmethod
    def reference(sched, s, t):
        a = sched.alphas

        def var(lo, hi):
            return 0.0 if lo == hi else 1.0 - (a[hi] / a[lo]) ** 2

        gamma = var(s, t) / var(0, t)
        coeff_x0 = gamma * float(a[s] / a[0])
        coeff_xt = (1.0 - gamma) / float(a[t] / a[s])
        return coeff_x0, coeff_xt, var(s, t) * var(0, s) / var(0, t)

    def test_bridge_params_match_formula_for_every_pair(self):
        for sched in (make_schedule("cosine", 64), NoiseSchedule(alphas=np.array([1.0 - 1e-13, 0.9, 0.8, 0.3]))):
            for t in range(1, sched.T + 1):
                for s in range(t):
                    p = sched.bridge_params(s, t)
                    assert (p.mean_coeff_x0, p.mean_coeff_xt, p.variance) == self.reference(sched, s, t)
                    assert sched.sigma2(s, t) == 1.0 - (sched.alphas[t] / sched.alphas[s]) ** 2
                    assert sched.alpha_ratio(s, t) == float(sched.alphas[t] / sched.alphas[s])

    def test_forward_sample_matches_formula(self):
        sched = make_schedule("linear", 100)
        x = np.random.default_rng(3).standard_normal((5, 2))
        got = sched.forward_sample(x, 20, 70, np.random.default_rng(4))
        ratio = float(sched.alphas[70] / sched.alphas[20])
        want = ratio * x + np.sqrt(1.0 - ratio**2) * np.random.default_rng(4).standard_normal(x.shape)
        assert np.array_equal(got, want)


class TestKernelCompositionInvariants:
    def test_forward_chapman_kolmogorov(self):
        """Composing l->s->t matches l->t in mean coefficient and variance."""
        sched = make_schedule("cosine", 500)
        rng = np.random.default_rng(13)
        for _ in range(100):
            times = np.sort(rng.choice(np.arange(0, 501), size=3, replace=False))
            l, s, t = (int(v) for v in times)
            coeff = sched.alpha_ratio(l, s) * sched.alpha_ratio(s, t)
            np.testing.assert_allclose(coeff, sched.alpha_ratio(l, t), atol=1e-12)
            var = sched.sigma2(s, t) + sched.alpha_ratio(s, t) ** 2 * sched.sigma2(l, s)
            np.testing.assert_allclose(var, sched.sigma2(l, t), atol=1e-12)

    def test_bridge_variance_bounded_by_endpoints(self):
        sched = make_schedule("linear", 300)
        rng = np.random.default_rng(17)
        for _ in range(200):
            s = int(rng.integers(0, 299))
            t = int(rng.integers(s + 1, 301))
            v = sched.bridge_params(s, t).variance
            assert v <= min(sched.sigma2(0, s), sched.sigma2(s, t)) + 1e-15


class TestGaussLogDensity:
    def test_standard_normal_at_mode(self):
        np.testing.assert_allclose(
            gauss_log_density(np.zeros(1), np.zeros(1), 1.0), -0.9189385, atol=1e-7
        )

    def test_unit_shift(self):
        np.testing.assert_allclose(
            gauss_log_density(np.ones(1), np.zeros(1), 1.0), -0.9189385 - 0.5, atol=1e-7
        )

    def test_dimension_factorization(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(5)
        mean = rng.standard_normal(5)
        var = rng.uniform(0.5, 2.0, size=5)
        total = gauss_log_density(x, mean, var)
        parts = sum(
            gauss_log_density(x[j : j + 1], mean[j : j + 1], var[j : j + 1]) for j in range(5)
        )
        np.testing.assert_allclose(total, parts, atol=1e-12)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            gauss_log_density(np.zeros(1), np.zeros(1), 0.0)


class TestSerialization:
    def test_round_trip(self):
        sched = make_schedule("cosine", 64)
        spec = {"family": sched.family, "T": sched.T, "alphas": sched.alphas.tolist()}
        clone = NoiseSchedule.from_json(json.loads(json.dumps(spec)))
        np.testing.assert_array_equal(sched.alphas, clone.alphas)
        assert clone.family == "cosine"
        assert clone.T == 64

    def test_rejects_inconsistent_T(self):
        obj = {"family": "linear", "T": 11, "alphas": make_schedule("linear", 10).alphas.tolist()}
        with pytest.raises(ValueError):
            NoiseSchedule.from_json(obj)
