"""Observation models, guidance potentials, and their gradients."""

import json

import numpy as np
import pytest

from mgdm.likelihoods import (
    LinearGaussianLikelihood,
    QuadraticLikelihood,
    guidance,
    likelihood_from_json,
    linearized_potential,
    log_g_hat,
    require_linear_gaussian,
)
from mgdm.priors import GaussianPrior, GmmPrior, exact_posterior
from mgdm.schedule import NoiseSchedule, make_schedule

STD_NORMAL_PEAK = -0.9189385


class TestLogG0:
    def test_zero_residual_linear(self):
        lik = LinearGaussianLikelihood(A=[[1.0]], y=[1.3], sigma_y=1.0)
        np.testing.assert_allclose(lik.log_g0(np.array([1.3])), STD_NORMAL_PEAK, atol=1e-7)

    def test_residual_formula(self):
        rng = np.random.default_rng(0)
        a_mat = rng.standard_normal((3, 4))
        lik = LinearGaussianLikelihood(A=a_mat, y=rng.standard_normal(3), sigma_y=0.7)
        x = rng.standard_normal(4)
        r = lik.y - a_mat @ x
        expected = -1.5 * np.log(2 * np.pi * 0.7**2) - r @ r / (2 * 0.7**2)
        np.testing.assert_allclose(lik.log_g0(x), expected, atol=1e-12)

    def test_zero_residual_quadratic_toy(self):
        lik = QuadraticLikelihood(A=[[1.0]], y=[4.0], sigma_y=1.0)
        np.testing.assert_allclose(lik.log_g0(np.array([2.0])), STD_NORMAL_PEAK, atol=1e-7)

    def test_rejects_dimension_mismatch(self):
        lik = LinearGaussianLikelihood(A=[[1.0, 0.0]], y=[0.0], sigma_y=1.0)
        with pytest.raises(ValueError):
            lik.log_g0(np.zeros(3))

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            LinearGaussianLikelihood(A=[[1.0]], y=[0.0], sigma_y=0.0)

    def test_rejects_nan_operator(self):
        with pytest.raises(ValueError):
            LinearGaussianLikelihood(A=[[np.nan]], y=[0.0], sigma_y=1.0)

    @pytest.mark.parametrize("cls", [LinearGaussianLikelihood, QuadraticLikelihood])
    @pytest.mark.parametrize("sigma_y", ["0.5", True, False, None, [0.5]])
    def test_rejects_a_sigma_that_is_not_a_number(self, cls, sigma_y):
        """float() would read "0.5" as 0.5 and True as 1.0."""
        with pytest.raises(ValueError, match="sigma_y must be a number"):
            cls(A=[[1.0]], y=[0.0], sigma_y=sigma_y)

    @pytest.mark.parametrize("cls", [LinearGaussianLikelihood, QuadraticLikelihood])
    @pytest.mark.parametrize("A,y,message", [
        ([["1"]], [0.0], "^A must hold numbers"),
        ([[1.0]], [True], "^y must hold numbers"),
        ([[1.0, False]], [0.0], "^A must hold numbers"),
        ([[1.0], [1.0, 2.0]], [0.0, 0.0], "^A must be a rectangular array of numbers$"),
    ], ids=["A-string", "y-bool", "A-bool-among-numbers", "A-ragged"])
    def test_rejects_arrays_that_are_not_numbers(self, cls, A, y, message):
        """A float64 conversion would read "1" as 1.0 and True as 1.0."""
        with pytest.raises(ValueError, match=message):
            cls(A=A, y=y, sigma_y=0.5)
        with pytest.raises(ValueError, match=message):
            likelihood_from_json({"kind": "linear" if cls is LinearGaussianLikelihood else "quadratic",
                                  "A": A, "y": y, "sigma_y": 0.5})

    @pytest.mark.parametrize("sigma_y", [2, np.float64(0.5), np.int64(2), np.float32(0.5)])
    def test_accepts_integer_and_numpy_sigmas(self, sigma_y):
        lik = LinearGaussianLikelihood(A=[[1.0]], y=[0.0], sigma_y=sigma_y)
        assert type(lik.sigma_y) is float and lik.sigma_y == float(sigma_y)

    def test_compared_and_hashed_by_identity(self):
        """Array fields make value equality undefined; identity serves as a memo key."""
        lik, twin = (LinearGaussianLikelihood(A=[[1.0]], y=[0.0], sigma_y=1.0) for _ in range(2))
        assert lik == lik and lik != twin and {lik: 1}[lik] == 1 and hash(lik) != hash(twin)


class TestNonlinearMap:
    def test_vjp_consistent_with_finite_differences(self):
        """The analytic Jacobian-transpose product matches FD to 1e-5."""
        rng = np.random.default_rng(5)
        a_mat = rng.standard_normal((3, 4))
        lik = QuadraticLikelihood(A=a_mat, y=rng.standard_normal(3), sigma_y=1.0)
        x = rng.standard_normal(4)
        u = rng.standard_normal(3)
        h = 1e-6
        fd = np.empty(4)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd[j] = (lik.forward(x + e) - lik.forward(x - e)) @ u / (2 * h)
        np.testing.assert_allclose(lik.vjp(x, u), fd, atol=1e-5)

    @pytest.mark.parametrize("a_mat,message", [
        ([[1.0], [0.5]], "A has 2 rows but y has 1 entries"),
        ([[np.nan]], "A must be finite"),
    ], ids=["rows", "nan"])
    def test_checked_like_the_linear_kind(self, a_mat, message):
        for cls in (LinearGaussianLikelihood, QuadraticLikelihood):
            with pytest.raises(ValueError, match=message):
                cls(A=a_mat, y=[1.0], sigma_y=0.5)

    def test_log_g0_and_gradient_bit_for_bit(self):
        """log N(y; (A x)^2, s^2 I) and its gradient (2 (A x) r / s^2) A, written out, match to the bit."""
        rng = np.random.default_rng(3)
        a_mat, y, s = rng.standard_normal((3, 4)), rng.standard_normal(3) ** 2, 0.6
        lik = QuadraticLikelihood(A=a_mat, y=y, sigma_y=s)
        for shape in ((4,), (7, 4), (2, 5, 4)):
            x = rng.standard_normal(shape)
            r = y - (x @ a_mat.T) ** 2
            want = -0.5 * (np.sum(r**2, axis=-1) / s**2 + 3 * (np.log(2 * np.pi) + 2 * np.log(s)))
            np.testing.assert_array_equal(lik.log_g0(x), want)
            np.testing.assert_array_equal(lik.grad_log_g0(x), (2.0 * (x @ a_mat.T) * (r / s**2)) @ a_mat)


class TestLogGHat:
    def test_worked_1d_example(self):
        """N(0,1) prior, alpha_s = 0.5, A=1, y=2, x_s=4: the denoiser hits
        the observation exactly, so the potential peaks and the gradient
        vanishes."""
        sched = NoiseSchedule(alphas=np.array([1.0, 0.5, 0.25]))
        prior = GaussianPrior(mean=[0.0], cov=[[1.0]])
        lik = LinearGaussianLikelihood(A=[[1.0]], y=[2.0], sigma_y=1.0)
        x = np.array([4.0])
        np.testing.assert_allclose(log_g_hat(lik, prior, sched, 1, x), STD_NORMAL_PEAK, atol=1e-7)
        np.testing.assert_allclose(guidance(lik, prior, sched, 1)(x), [0.0], atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_gradient_matches_finite_differences(self, d):
        rng = np.random.default_rng(d)
        sched = make_schedule("linear", 200)
        base = rng.standard_normal((d, d))
        prior_g = GaussianPrior(mean=rng.standard_normal(d), cov=base @ base.T + d * np.eye(d))
        mix_means = rng.standard_normal((2, d))
        prior_m = GmmPrior(weights=[0.45, 0.55], means=mix_means, covs=[np.eye(d) * 0.6, np.eye(d) * 0.9])
        lik_lin = LinearGaussianLikelihood(A=rng.standard_normal((2, d)), y=rng.standard_normal(2), sigma_y=0.8)
        lik_quad = QuadraticLikelihood(A=rng.standard_normal((2, d)), y=rng.standard_normal(2) ** 2, sigma_y=0.8)
        h = 1e-5
        for prior in (prior_g, prior_m):
            for lik in (lik_lin, lik_quad):
                for _ in range(25):
                    s = int(rng.integers(1, 201))
                    x = rng.standard_normal(d)
                    grad = guidance(lik, prior, sched, s)(x)
                    fd = np.empty(d)
                    for j in range(d):
                        e = np.zeros(d)
                        e[j] = h
                        hi = log_g_hat(lik, prior, sched, s, x + e)
                        lo = log_g_hat(lik, prior, sched, s, x - e)
                        fd[j] = (hi - lo) / (2 * h)
                    np.testing.assert_allclose(grad, fd, atol=1e-5)

    def test_point_mass_prior_constant_potential(self):
        sched = make_schedule("linear", 100)
        prior = GaussianPrior(mean=[0.5], cov=[[1e-12]])
        lik = LinearGaussianLikelihood(A=[[1.0]], y=[2.0], sigma_y=1.0)
        xs = [np.array([x]) for x in (-2.0, 0.0, 3.0)]
        vals = [log_g_hat(lik, prior, sched, 40, x) for x in xs]
        assert max(vals) - min(vals) < 1e-8
        for x in xs:
            np.testing.assert_allclose(guidance(lik, prior, sched, 40)(x), [0.0], atol=1e-8)

    def test_rejects_s_zero(self):
        sched = make_schedule("linear", 10)
        prior = GaussianPrior(mean=[0.0], cov=[[1.0]])
        lik = LinearGaussianLikelihood(A=[[1.0]], y=[0.0], sigma_y=1.0)
        with pytest.raises(ValueError):
            log_g_hat(lik, prior, sched, 0, np.zeros(1))
        gmm = GmmPrior(weights=[0.5, 0.5], means=[[-1.0], [1.0]], covs=[[[0.3]], [[0.3]]])
        for p in (prior, gmm):  # both routes reject level 0 when the guide is resolved, before any state
            with pytest.raises(ValueError):
                guidance(lik, p, sched, 0)


def _vjp_route(lik, prior, sched, s, x):
    """The guidance gradient as the denoiser's VJP of grad log g0, the route every pair but
    a Gaussian prior with a linear-Gaussian likelihood takes."""
    den = prior.denoise(sched, s, x)
    return den.vjp(lik.grad_log_g0(den.value))


class TestClosedFormGradient:
    """A Gaussian prior with a linear-Gaussian likelihood takes grad log ghat_s = q_s - x P_s from
    the level factorization; every other pair keeps the denoiser's VJP.  TestLogGHat.test_rejects_s_zero
    checks that the closed form rejects s = 0."""

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("batch", [(), (8,), (3, 4)], ids=["single", "batch8", "batch3x4"])
    def test_matches_the_denoiser_vjp(self, d, batch):
        rng = np.random.default_rng(d)
        sched = make_schedule("linear", 1000)
        base = rng.standard_normal((d, d))
        prior = GaussianPrior(mean=rng.standard_normal(d), cov=base @ base.T + 0.5 * np.eye(d))
        lik = LinearGaussianLikelihood(A=rng.standard_normal((3, d)), y=rng.standard_normal(3), sigma_y=0.3)
        for s in (1, 37, sched.T):
            x = rng.standard_normal(batch + (d,))
            got = guidance(lik, prior, sched, s)(x)
            assert got.shape == x.shape
            np.testing.assert_allclose(got, _vjp_route(lik, prior, sched, s, x), rtol=1e-12)

    def test_other_pairs_keep_the_vjp_bit_for_bit(self):
        rng = np.random.default_rng(11)
        sched = make_schedule("linear", 200)
        a_mat, y = rng.standard_normal((2, 3)), rng.standard_normal(2)
        gauss = GaussianPrior(mean=rng.standard_normal(3), cov=np.eye(3) * 0.7)
        gmm = GmmPrior(weights=[0.4, 0.6], means=rng.standard_normal((2, 3)), covs=[np.eye(3) * 0.5, np.eye(3)])
        linear = LinearGaussianLikelihood(A=a_mat, y=y, sigma_y=0.4)
        quadratic = QuadraticLikelihood(A=a_mat, y=y**2, sigma_y=0.4)
        for prior, lik in ((gauss, quadratic), (gmm, linear), (gmm, quadratic)):
            for s in (1, 37, 200):
                x = rng.standard_normal((5, 3))
                want = _vjp_route(lik, prior, sched, s, x)
                np.testing.assert_array_equal(guidance(lik, prior, sched, s)(x), want)


class TestGuidance:
    """``guidance`` resolves the gradient of log ghat_s once per level; the guide is applied per state."""

    def test_closed_form_guide_reads_the_factorization_once(self, monkeypatch):
        import mgdm.likelihoods as lik_mod

        sched = make_schedule("linear", 200)
        prior = GaussianPrior(mean=[1.0, -0.5], cov=[[1.0, 0.3], [0.3, 0.7]])
        lik = LinearGaussianLikelihood(A=[[1.0, 0.4], [0.0, 0.8]], y=[2.4, -1.6], sigma_y=0.5)
        reads, factorize = [], lik_mod.level_factorization
        monkeypatch.setattr(lik_mod, "level_factorization", lambda *args: reads.append(args[-1]) or factorize(*args))
        guide = guidance(lik, prior, sched, 30)
        xs = np.random.default_rng(2).standard_normal((4, 3, 2))
        got = [guide(x) for x in xs]
        assert reads == [30]
        *_, prec, shift = factorize(lik, prior, sched, 30)
        for x, g in zip(xs, got):
            np.testing.assert_array_equal(g, shift - x @ prec)

    def test_vjp_guide_looks_the_denoiser_up_per_call(self, monkeypatch):
        """A wrapper installed on the prior's class after the guide was resolved still sees every call."""
        sched = make_schedule("linear", 200)
        gmm = GmmPrior(weights=[0.4, 0.6], means=[[0.5, 0.0], [-0.3, 0.2]], covs=[np.eye(2) * 0.4, np.eye(2)])
        lik = LinearGaussianLikelihood(A=[[1.0, 0.5]], y=[0.3], sigma_y=0.3)
        guide = guidance(lik, gmm, sched, 40)
        calls, original = [], GmmPrior.denoise
        monkeypatch.setattr(GmmPrior, "denoise", lambda *args: calls.append(1) or original(*args))
        x = np.random.default_rng(3).standard_normal((5, 2))
        np.testing.assert_array_equal(guide(x), _vjp_route(lik, gmm, sched, 40, x))
        assert len(calls) == 2  # the guide's call and the reference's


def _shared_mixture(rng, d, n_components, rotated):
    """A mixture whose components share one covariance with eigenvalues 0.3 .. 1.4: diagonal and ascending (so
    its eigenbasis is exactly I) or turned by a random rotation (a full basis Q)."""
    q = np.linalg.qr(rng.standard_normal((d, d)))[0] if rotated else np.eye(d)
    cov = (q * np.linspace(0.3, 1.4, d)) @ q.T
    means = 2.0 * rng.standard_normal((n_components, d))
    prior = GmmPrior(weights=np.full(n_components, 1.0 / n_components), means=means, covs=[cov] * n_components)
    assert (prior._basis is None) is not rotated
    return prior


class TestObservedForm:
    """A mixture whose components share one covariance, under a linear-Gaussian likelihood, gives log ghat_s and
    its gradient from A m_s(x) and that map's VJP (``GmmPrior.observed_denoiser``): the denoiser route's values to
    rounding, with no d-dimensional denoiser value or VJP."""

    @pytest.mark.parametrize("rotated", [False, True], ids=["identity-basis", "rotated-basis"])
    @pytest.mark.parametrize("n_components", [1, 3])
    @pytest.mark.parametrize("obs_dim", [2, 5], ids=["dy-below-d", "dy-above-d"])
    def test_matches_the_denoiser_route(self, rotated, n_components, obs_dim):
        rng = np.random.default_rng([obs_dim, n_components, rotated])
        d, sched = 3, make_schedule("linear", 1000)
        prior = _shared_mixture(rng, d, n_components, rotated)
        lik = LinearGaussianLikelihood(A=rng.standard_normal((obs_dim, d)), y=rng.standard_normal(obs_dim), sigma_y=0.3)
        for s in (1, 500, sched.T):
            guide = guidance(lik, prior, sched, s)
            for shape in ((d,), (7, d), (2, 4, d)):
                x = 2.0 * rng.standard_normal(shape)
                want = lik.log_g0(prior.denoise(sched, s, x).value)
                got = log_g_hat(lik, prior, sched, s, x)
                assert type(got) is type(want) and np.shape(got) == shape[:-1]  # a float for one state
                np.testing.assert_allclose(got, want, rtol=1e-12)
                grad = guide(x)
                assert grad.shape == shape
                np.testing.assert_allclose(grad, _vjp_route(lik, prior, sched, s, x), rtol=1e-12)

    def test_observed_denoiser_value_and_vjp(self):
        """The form itself: A m_s(x) and Jac(m_s)^T A^T e, for e shaped like the observation."""
        rng = np.random.default_rng(4)
        sched = make_schedule("linear", 200)
        prior = _shared_mixture(rng, 4, 3, rotated=True)
        a_mat = rng.standard_normal((2, 4))
        x, e = rng.standard_normal((5, 4)), rng.standard_normal((5, 2))
        got, den = prior.observed_denoiser(sched, 60, a_mat)(x), prior.denoise(sched, 60, x)
        np.testing.assert_allclose(got.value, den.value @ a_mat.T, rtol=1e-12)
        np.testing.assert_allclose(got.vjp(e), den.vjp(e @ a_mat), rtol=1e-12)

    def test_s_zero_raises_the_denoisers_error(self):
        sched = make_schedule("linear", 100)
        prior = _shared_mixture(np.random.default_rng(5), 2, 3, rotated=True)
        lik = LinearGaussianLikelihood(A=[[1.0, 0.5]], y=[0.3], sigma_y=0.3)
        assert prior.observed_denoiser(sched, 0, lik.A) is None
        with pytest.raises(ValueError, match="denoiser is defined for t >= 1"):
            log_g_hat(lik, prior, sched, 0, np.zeros(2))

    def test_an_operator_of_another_width_is_named(self):
        """An A that does not fit the prior takes the denoiser route, whose ``log_g0`` names both sizes."""
        sched = make_schedule("linear", 100)
        prior = _shared_mixture(np.random.default_rng(5), 2, 3, rotated=True)
        lik = LinearGaussianLikelihood(A=[[1.0, 0.5, 0.2]], y=[0.3], sigma_y=0.3)
        with pytest.raises(ValueError, match="x has dimension 2, expected 3"):
            log_g_hat(lik, prior, sched, 40, np.zeros(2))

    def test_vi_guide_and_mh_potential_make_no_denoiser_call(self, monkeypatch):
        """The guide a VI fit applies and the potential MH reads never form m_s(x) in d dimensions."""
        sched = make_schedule("linear", 200)
        prior = _shared_mixture(np.random.default_rng(6), 3, 3, rotated=True)
        lik = LinearGaussianLikelihood(A=[[1.0, 0.5, -0.2]], y=[0.3], sigma_y=0.3)
        monkeypatch.setattr(GmmPrior, "denoise", lambda *args: pytest.fail("GmmPrior.denoise ran"))
        x = np.random.default_rng(7).standard_normal((4, 3))
        for s in (1, 40, 200):
            guidance(lik, prior, sched, s)(x)
            log_g_hat(lik, prior, sched, s, x)

    def test_other_pairs_keep_the_denoiser_route_bit_for_bit(self):
        """A mixture with distinct covariances has no observed form, and a quadratic likelihood does not ask for
        one: both take ``denoise`` and its VJP, with the bits they had."""
        rng = np.random.default_rng(8)
        sched = make_schedule("linear", 200)
        shared = _shared_mixture(rng, 3, 2, rotated=True)
        distinct = GmmPrior(weights=[0.4, 0.6], means=rng.standard_normal((2, 3)), covs=[np.eye(3) * 0.5, np.eye(3)])
        a_mat, y = rng.standard_normal((2, 3)), rng.standard_normal(2)
        assert distinct.observed_denoiser(sched, 40, a_mat) is None
        for prior, lik in ((distinct, LinearGaussianLikelihood(A=a_mat, y=y, sigma_y=0.4)),
                           (shared, QuadraticLikelihood(A=a_mat, y=y**2, sigma_y=0.4))):
            for s in (1, 40, 200):
                x = rng.standard_normal((5, 3))
                np.testing.assert_array_equal(guidance(lik, prior, sched, s)(x), _vjp_route(lik, prior, sched, s, x))
                np.testing.assert_array_equal(log_g_hat(lik, prior, sched, s, x),
                                              lik.log_g0(prior.denoise(sched, s, x).value))

    def test_dps_keeps_the_denoiser_vjp(self, monkeypatch):
        """DPS applies the VJP of its own denoiser call, also on a shared mixture under a linear likelihood."""
        from mgdm.sampler import dps_run

        sched = make_schedule("linear", 200)
        prior = _shared_mixture(np.random.default_rng(9), 2, 2, rotated=True)
        lik = LinearGaussianLikelihood(A=[[1.0, 0.5]], y=[0.3], sigma_y=0.3)
        monkeypatch.setattr(GmmPrior, "observed_denoiser", lambda *args: pytest.fail("observed form asked for"))
        calls, original = [], GmmPrior.denoise
        monkeypatch.setattr(GmmPrior, "denoise", lambda *args: calls.append(1) or original(*args))
        assert np.all(np.isfinite(dps_run(lik, prior, sched, 10, 0.1, np.random.default_rng(0))))
        assert calls


def _hermite(n):
    from scipy.special import roots_hermitenorm

    nodes, weights = roots_hermitenorm(n)
    return nodes, weights / np.sqrt(2 * np.pi)


def exact_log_g_t(lik, prior, sched, t, x_t):
    """Closed-form smoothed potential log g_t(x_t) = log E[g0(X_0) | x_t] for a Gaussian prior and a
    linear observation: N(y; A m_{0|t}, sigma_y^2 I + A Cov_{0|t} A^T), with the moments of X_0 given
    x_t from the joint Gaussian of (X_0, X_t), whose cross-covariance is alpha_t Sigma."""
    require_linear_gaussian(lik, prior, "exact_log_g_t")
    a = sched.alpha(t)
    s_t = (a * a) * prior.cov + sched.sigma2(0, t) * np.eye(prior.dim)
    gain = np.linalg.solve(s_t, a * prior.cov).T  # alpha_t Sigma S_t^{-1}
    mean_0t = prior.mean + (np.asarray(x_t) - a * prior.mean) @ gain.T
    cov_0t = prior.cov - gain @ (a * prior.cov)
    obs_cov = lik.sigma_y**2 * np.eye(lik.dim_obs) + lik.A @ cov_0t @ lik.A.T
    out = GaussianPrior(np.zeros(lik.dim_obs), obs_cov).log_density(lik.y - mean_0t @ lik.A.T)
    return float(out) if np.ndim(out) == 0 else out


class TestExactLogGt:
    def setup_method(self):
        self.sched = make_schedule("linear", 1000)
        self.prior = GaussianPrior(mean=[0.3], cov=[[0.8]])
        self.lik = LinearGaussianLikelihood(A=[[1.2]], y=[0.9], sigma_y=0.6)

    def test_flat_for_huge_observation_noise(self):
        lik = LinearGaussianLikelihood(A=[[1.2]], y=[0.9], sigma_y=1e6)
        vals = [exact_log_g_t(lik, self.prior, self.sched, 500, np.array([x])) for x in (-4.0, 0.0, 4.0)]
        assert max(vals) - min(vals) < 1e-9

    def test_continuity_to_g0_at_small_t(self):
        """t = 1 on a schedule with near-zero first noise entry."""
        fine = make_schedule("linear", 5000)
        x = np.array([0.5])
        g_t = exact_log_g_t(self.lik, self.prior, fine, 1, x)
        g_0 = self.lik.log_g0(x)
        assert abs(g_t - g_0) < 1e-3

    def test_matches_quadrature(self):
        """g_t(x_t) = int g0(x_0) p(x_0 | x_t) dx_0 by Gauss-Hermite."""
        t = 300
        x_t = np.array([0.4])
        jac, bias = self.prior.denoiser_affine(self.sched, t)
        mean = float(jac[0, 0] * x_t[0] + bias[0])
        sd = float(np.sqrt(self.prior.posterior_x0_cov(self.sched, t)[0, 0]))
        nodes, weights = _hermite(201)
        vals = self.lik.log_g0((mean + sd * nodes)[:, None])
        peak = vals.max()
        quad = peak + np.log(np.sum(weights * np.exp(vals - peak)))
        closed = exact_log_g_t(self.lik, self.prior, self.sched, t, x_t)
        np.testing.assert_allclose(closed, quad, atol=1e-8)

    def test_rejects_unsupported_models(self):
        with pytest.raises(TypeError):
            exact_log_g_t(QuadraticLikelihood(A=[[1.0]], y=[1.0], sigma_y=1.0), self.prior, self.sched, 10, np.zeros(1))
        mix = GmmPrior(weights=[1.0], means=[[0.0]], covs=[[[1.0]]])
        with pytest.raises(TypeError):
            exact_log_g_t(self.lik, mix, self.sched, 10, np.zeros(1))


class TestSerialization:
    def test_linear_round_trip(self):
        spec = {"kind": "linear", "A": [[1.0, -0.5]], "y": [0.3], "sigma_y": 0.7}
        lik = LinearGaussianLikelihood(A=[[1.0, -0.5]], y=[0.3], sigma_y=0.7)
        clone = likelihood_from_json(json.loads(json.dumps(spec)))
        x = np.array([0.4, 0.9])
        np.testing.assert_allclose(clone.log_g0(x), lik.log_g0(x), atol=1e-15)

    def test_quadratic_round_trip(self):
        spec = {"kind": "quadratic", "A": [[1.0, 0.5]], "y": [2.0], "sigma_y": 0.3}
        lik = QuadraticLikelihood(A=[[1.0, 0.5]], y=[2.0], sigma_y=0.3)
        clone = likelihood_from_json(json.loads(json.dumps(spec)))
        x = np.array([0.4, -0.2])
        np.testing.assert_allclose(clone.log_g0(x), lik.log_g0(x), atol=1e-15)
        np.testing.assert_allclose(clone.grad_log_g0(x), lik.grad_log_g0(x), atol=1e-15)


class TestPotentialIdentities:
    def test_posterior_denoiser_identity(self):
        """The posterior's denoiser equals the prior denoiser plus the
        Tweedie-weighted gradient of the smoothed potential."""
        sched = make_schedule("linear", 500)
        prior = GaussianPrior(mean=[0.5, -0.3], cov=[[1.0, 0.3], [0.3, 0.7]])
        lik = LinearGaussianLikelihood(A=[[1.0, 0.4], [0.0, 0.8]], y=[1.2, -0.5], sigma_y=0.5)
        post = exact_posterior(prior, lik)
        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(10):
            t = int(rng.integers(1, 501))
            x = rng.standard_normal(2)
            lhs = post.denoise(sched, t, x).value
            grad = np.empty(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                grad[j] = (
                    exact_log_g_t(lik, prior, sched, t, x + e)
                    - exact_log_g_t(lik, prior, sched, t, x - e)
                ) / (2 * h)
            rhs = prior.denoise(sched, t, x).value + sched.sigma2(0, t) / sched.alpha(t) * grad
            np.testing.assert_allclose(lhs, rhs, atol=1e-6)

    def test_linearized_potential_matches_log_g_hat(self):
        """ghat_s is exactly Gaussian in x_s with the closed-form
        (A_hat_s, a_s) for a Gaussian prior and linear observation."""
        sched = make_schedule("linear", 400)
        prior = GaussianPrior(mean=[0.2, 0.6], cov=[[0.9, -0.1], [-0.1, 0.5]])
        lik = LinearGaussianLikelihood(A=[[0.7, -0.3]], y=[0.4], sigma_y=0.45)
        rng = np.random.default_rng(15)
        for s in (2, 37, 198, 400):
            a_hat, offset = linearized_potential(lik, prior, sched, s)
            for _ in range(25):
                x = rng.standard_normal(2) * 2.0
                resid = lik.y - (a_hat @ x + offset)
                expected = -0.5 * (resid @ resid / lik.sigma_y**2 + np.log(2 * np.pi * lik.sigma_y**2))
                np.testing.assert_allclose(log_g_hat(lik, prior, sched, s, x), expected, atol=1e-10)
