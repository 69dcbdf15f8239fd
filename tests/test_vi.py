"""Variational conditional fit, exact conditional, and MH correction."""

import math

import numpy as np
import pytest

from mgdm.likelihoods import LinearGaussianLikelihood, linearized_potential, log_g_hat, quadratic_toy
from mgdm.priors import GaussianPrior
from mgdm.schedule import make_schedule, gauss_log_density
from mgdm.vi import (
    ViConfig,
    bridge_init,
    conditional_coefficients,
    exact_conditional,
    exact_conditional_sample,
    fit_variational,
    independent_mh,
    kl_gradient_estimate,
    mh_correct,
    reverse_kl_quadrature,
)


def problem_1d():
    sched = make_schedule("linear", 1000)
    prior = GaussianPrior(mean=[0.3], cov=[[0.8]])
    lik = LinearGaussianLikelihood(A=[[1.1]], y=[0.7], sigma_y=0.5)
    return lik, prior, sched


def problem_2d():
    sched = make_schedule("linear", 1000)
    prior = GaussianPrior(mean=[1.0, -0.5], cov=[[1.0, 0.3], [0.3, 0.7]])
    lik = LinearGaussianLikelihood(A=[[1.0, 0.4], [0.0, 0.8]], y=[2.4, -1.6], sigma_y=0.5)
    return lik, prior, sched


def bridge(sched, s, t, x0, xt):
    """(mean, variance) of the bridge q(x_s | x_0, x_t), the form kl_gradient_estimate reads it in."""
    p = sched.bridge_params(s, t)
    return p.mean(x0, xt), p.variance


class _ZeroDraws:
    """Stub generator whose normal draws are all zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)


class TestConfig:
    def test_rejects_negative_steps(self):
        with pytest.raises(ValueError):
            ViConfig(steps=-1)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            ViConfig(learning_rate=0.0)


class TestInitialization:
    def test_bridge_init_matches_bridge_params_exactly(self):
        _, _, sched = problem_1d()
        x0, xt = np.array([0.4]), np.array([-0.2])
        s, t = 120, 500
        params = bridge_init(sched, s, t, x0, xt)
        p = sched.bridge_params(s, t)
        assert params.mu[0] == p.mean_coeff_x0 * x0[0] + p.mean_coeff_xt * xt[0]
        assert params.rho[0] == math.log(p.variance)

    def test_zero_steps_reproduces_bridge_sample(self):
        """G = 0 consumes the same single normal draw as bridge_sample."""
        lik, prior, sched = problem_1d()
        x0, xt = np.array([0.4]), np.array([-0.2])
        s, t = 120, 500
        rng = np.random.default_rng(99)
        draw = fit_variational(lik, prior, sched, s, t, x0, xt, ViConfig(steps=0), rng).sample(rng)
        ref = sched.bridge_sample(x0, xt, s, t, np.random.default_rng(99))
        np.testing.assert_allclose(draw, ref, atol=1e-12)

    def test_rejects_bad_levels(self):
        lik, prior, sched = problem_1d()
        with pytest.raises(ValueError):
            kl_gradient_estimate(lik, prior, sched, 0, np.zeros(1), 0.5,
                                 bridge_init(sched, 1, 10, np.zeros(1), np.zeros(1)), np.random.default_rng(0))
        with pytest.raises(ValueError):
            bridge_init(sched, 10, 10, np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError):
            fit_variational(lik, prior, sched, 0, 10, np.zeros(1), np.zeros(1), ViConfig(), np.random.default_rng(0))

    @pytest.mark.parametrize("steps", [0, 1, 10])
    def test_one_bridge_per_fit(self, steps, monkeypatch):
        """The fit builds its bridge once and makes one gradient estimate per Adam step."""
        import mgdm.vi as vi_mod
        from mgdm.schedule import NoiseSchedule

        lik, prior, sched = problem_2d()
        calls = {"bridge_params": 0, "kl_gradient_estimate": 0}
        bridge_params, gradient = NoiseSchedule.bridge_params, vi_mod.kl_gradient_estimate

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(NoiseSchedule, "bridge_params", counted("bridge_params", bridge_params))
        monkeypatch.setattr(vi_mod, "kl_gradient_estimate", counted("kl_gradient_estimate", gradient))
        x0, xt = np.array([[0.3, -0.2], [1.0, 0.4]]), np.array([[0.1, 0.5], [-0.7, 0.2]])
        fit_variational(lik, prior, sched, 120, 400, x0, xt, ViConfig(steps=steps), np.random.default_rng(3))
        assert calls == {"bridge_params": 1, "kl_gradient_estimate": steps}


class TestGradientEstimator:
    def test_entropy_term_gives_minus_half_per_coordinate(self):
        """With a flat potential, zero noise, and mu at the bridge mean the
        only surviving rho-gradient is the entropy term's -1/2."""
        sched = make_schedule("linear", 100)
        prior = GaussianPrior(mean=[0.5, 0.5], cov=np.eye(2) * 1e-12)
        lik = LinearGaussianLikelihood(A=np.eye(2), y=[0.5, 0.5], sigma_y=1.0)
        x0, xt = np.full(2, 0.1), np.full(2, -0.3)
        params = bridge_init(sched, 20, 70, x0, xt)
        _, grad_rho = kl_gradient_estimate(lik, prior, sched, 20, *bridge(sched, 20, 70, x0, xt), params, _ZeroDraws())
        np.testing.assert_allclose(grad_rho, [-0.5, -0.5], atol=1e-10)

    def test_flat_potential_zero_expected_mu_gradient_at_init(self):
        """KL to the bridge is minimized at the bridge for a flat potential."""
        sched = make_schedule("linear", 100)
        prior = GaussianPrior(mean=[0.2], cov=[[1e-12]])
        lik = LinearGaussianLikelihood(A=[[1.0]], y=[0.2], sigma_y=1.0)
        x0, xt = np.array([0.4]), np.array([0.1])
        params = bridge_init(sched, 20, 70, x0, xt)
        rng = np.random.default_rng(0)
        n = 100_000
        from mgdm.vi import VariationalParams

        batch = VariationalParams(mu=np.tile(params.mu, (n, 1)), rho=np.tile(params.rho, (n, 1)))
        gmu, _ = kl_gradient_estimate(lik, prior, sched, 20, *bridge(sched, 20, 70, x0, xt), batch, rng)
        se = gmu.std() / math.sqrt(n)
        assert abs(gmu.mean()) < 3 * se + 1e-12

    def test_unbiased_against_quadrature_kl(self):
        """Mean single-sample gradient matches finite differences of the
        quadrature-evaluated KL within 3 standard errors (1-D)."""
        lik, prior, sched = problem_1d()
        s, t = 60, 400
        x0, xt = np.array([0.5]), np.array([-0.1])
        params0 = bridge_init(sched, s, t, x0, xt)
        mu0, rho0 = float(params0.mu[0]), float(params0.rho[0])
        from mgdm.vi import VariationalParams

        n = 200_000
        rng = np.random.default_rng(5)
        batch = VariationalParams(mu=np.full((n, 1), mu0), rho=np.full((n, 1), rho0))
        gmu, grho = kl_gradient_estimate(lik, prior, sched, s, *bridge(sched, s, t, x0, xt), batch, rng)

        h = 1e-4

        def kl_at(mu, rho):
            return reverse_kl_quadrature(
                lik, prior, sched, s, t, x0, xt,
                VariationalParams(mu=np.array([mu]), rho=np.array([rho])), n_nodes=401,
            )

        fd_mu = (kl_at(mu0 + h, rho0) - kl_at(mu0 - h, rho0)) / (2 * h)
        fd_rho = (kl_at(mu0, rho0 + h) - kl_at(mu0, rho0 - h)) / (2 * h)
        se_mu = gmu.std() / math.sqrt(n)
        se_rho = grho.std() / math.sqrt(n)
        assert abs(gmu.mean() - fd_mu) < 3 * se_mu
        assert abs(grho.mean() - fd_rho) < 3 * se_rho


class TestPotentialValueOnDemand:
    def test_fit_never_evaluates_the_potential_value(self, monkeypatch):
        lik, prior, sched = problem_1d()
        calls = []
        original = LinearGaussianLikelihood.log_g0
        monkeypatch.setattr(LinearGaussianLikelihood, "log_g0", lambda self, x: calls.append(1) or original(self, x))
        fit_variational(lik, prior, sched, 50, 300, np.array([0.2]), np.array([0.1]), ViConfig(steps=7),
                        np.random.default_rng(0))
        assert calls == []
        pot = log_g_hat(lik, prior, sched, 50, np.array([[0.3], [-0.4]]))
        want = original(lik, prior.denoise(sched, 50, np.array([[0.3], [-0.4]])).value)
        np.testing.assert_array_equal(pot.log_value, want)
        assert pot.log_value is pot.log_value and calls == [1]


class TestFit:
    def test_fitted_mean_near_exact_conditional(self):
        lik, prior, sched = problem_2d()
        s, t = 180, 520
        from mgdm.priors import exact_posterior

        x0 = exact_posterior(prior, lik).mean
        xt = sched.alpha(t) * x0
        exact = exact_conditional(lik, prior, sched, s, t, x0, xt)
        cfg = ViConfig(steps=200, learning_rate=0.03)
        errs = []
        for seed in range(20):
            params = fit_variational(lik, prior, sched, s, t, x0, xt, cfg, np.random.default_rng(seed))
            errs.append(np.linalg.norm(params.mu - exact.mean) / np.linalg.norm(exact.mean))
        assert np.mean(errs) < 0.05

    def test_gradient_vanishes_at_exact_conditional_for_diagonal_target(self):
        """A = c I makes the exact conditional diagonal, so the diagonal
        family contains it: the expected gradient at (exact mean,
        log diag cov) is zero within 3 standard errors."""
        sched = make_schedule("linear", 1000)
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2) * 0.8)
        lik = LinearGaussianLikelihood(A=np.eye(2) * 1.3, y=[0.4, -0.2], sigma_y=0.6)
        s, t = 100, 500
        x0, xt = np.array([0.3, 0.1]), np.array([-0.2, 0.5])
        mom = exact_conditional(lik, prior, sched, s, t, x0, xt)
        from mgdm.vi import VariationalParams

        n = 200_000
        batch = VariationalParams(
            mu=np.tile(mom.mean, (n, 1)), rho=np.tile(np.log(np.diag(mom.cov)), (n, 1))
        )
        rng = np.random.default_rng(6)
        gmu, grho = kl_gradient_estimate(lik, prior, sched, s, *bridge(sched, s, t, x0, xt), batch, rng)
        for grad in (gmu, grho):
            se = grad.std(axis=0) / math.sqrt(n)
            assert np.all(np.abs(grad.mean(axis=0)) < 3 * se + 1e-12)

    @pytest.mark.parametrize("shape", [(1,), (2,), (50, 2)])
    def test_stacked_adam_matches_per_block_reference(self, shape):
        """One (2, ...) Adam state gives the same bits as separate mu and rho updates."""
        from mgdm.priors import GmmPrior
        from mgdm.vi import ADAM_BETA1, ADAM_BETA2, ADAM_EPS

        lik, prior, sched = problem_2d() if shape[-1] == 2 else problem_1d()
        if shape == (50, 2):
            prior = GmmPrior(weights=[0.5, 0.5], means=[[-1.0, -1.0], [1.0, 1.0]], covs=[np.eye(2) * 0.3] * 2)
        s, t = 120, 400
        rng = np.random.default_rng(8)
        x0, xt = rng.standard_normal(shape), rng.standard_normal(shape)
        cfg = ViConfig(steps=15, learning_rate=0.05)

        gen = np.random.default_rng(9)
        params = bridge_init(sched, s, t, x0, xt)
        mom = [np.zeros(shape), np.zeros(shape)]
        vel = [np.zeros(shape), np.zeros(shape)]
        for step in range(1, cfg.steps + 1):
            grads = kl_gradient_estimate(lik, prior, sched, s, *bridge(sched, s, t, x0, xt), params, gen)
            for slot, grad in enumerate(grads):
                mom[slot] = ADAM_BETA1 * mom[slot] + (1.0 - ADAM_BETA1) * grad
                vel[slot] = ADAM_BETA2 * vel[slot] + (1.0 - ADAM_BETA2) * grad**2
                m_hat = mom[slot] / (1.0 - ADAM_BETA1**step)
                v_hat = vel[slot] / (1.0 - ADAM_BETA2**step)
                update = cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                if slot == 0:
                    params.mu = params.mu - update
                else:
                    params.rho = params.rho - update

        got = fit_variational(lik, prior, sched, s, t, x0, xt, cfg, np.random.default_rng(9))
        assert np.array_equal(got.mu, params.mu) and np.array_equal(got.rho, params.rho)
        assert got.mu.shape == got.rho.shape == shape

    def test_reverse_kl_decreases_on_nonlinear_toy(self):
        """Mean quadrature KL after 50 steps is strictly below the KL at
        initialization (averaged over 200 seeds, 1-D quadratic toy)."""
        sched = make_schedule("linear", 1000)
        prior = GaussianPrior(mean=[0.4], cov=[[0.6]])
        lik = quadratic_toy(A=[[1.0]], y=[0.5], sigma_y=0.3)
        s, t = 80, 420
        x0, xt = np.array([0.7]), np.array([0.2])
        init = bridge_init(sched, s, t, x0, xt)
        kl_init = reverse_kl_quadrature(lik, prior, sched, s, t, x0, xt, init, n_nodes=301)
        cfg = ViConfig(steps=50, learning_rate=0.03)
        finals = []
        for seed in range(200):
            params = fit_variational(lik, prior, sched, s, t, x0, xt, cfg, np.random.default_rng(seed))
            finals.append(reverse_kl_quadrature(lik, prior, sched, s, t, x0, xt, params, n_nodes=301))
        assert np.mean(finals) < kl_init


def _hermite(n):
    from scipy.special import roots_hermitenorm

    nodes, weights = roots_hermitenorm(n)
    return nodes, weights / np.sqrt(2 * np.pi)


def quadrature_conditional_moments(lik, prior, sched, s, t, x0, xt, n_nodes=401):
    """Mean/variance of ghat_s * bridge by Gauss-Hermite under the bridge."""
    p = sched.bridge_params(s, t)
    m_b = p.mean_coeff_x0 * x0[0] + p.mean_coeff_xt * xt[0]
    nodes, weights = _hermite(n_nodes)
    xs = (m_b + math.sqrt(p.variance) * nodes)[:, None]
    logpot = log_g_hat(lik, prior, sched, s, xs).log_value
    w = weights * np.exp(logpot - logpot.max())
    w /= w.sum()
    mean = float(np.sum(w * xs[:, 0]))
    var = float(np.sum(w * xs[:, 0] ** 2)) - mean**2
    return mean, var


class TestExactConditional:
    def test_flat_potential_reduces_to_bridge(self):
        _, prior, sched = problem_1d()
        lik = LinearGaussianLikelihood(A=[[1.1]], y=[0.7], sigma_y=1e9)
        s, t = 100, 600
        x0, xt = np.array([0.4]), np.array([1.0])
        mom = exact_conditional(lik, prior, sched, s, t, x0, xt)
        p = sched.bridge_params(s, t)
        np.testing.assert_allclose(mom.mean, p.mean_coeff_x0 * x0 + p.mean_coeff_xt * xt, atol=1e-10)
        np.testing.assert_allclose(mom.cov, [[p.variance]], atol=1e-10)

    def test_matches_quadrature_on_random_instances(self):
        """Ten random 1-D instances agree with quadrature to 1e-8."""
        rng = np.random.default_rng(123)
        sched = make_schedule("linear", 1000)
        for _ in range(10):
            prior = GaussianPrior(mean=[float(rng.normal())], cov=[[float(rng.uniform(0.3, 1.5))]])
            lik = LinearGaussianLikelihood(
                A=[[float(rng.uniform(0.5, 1.5))]], y=[float(rng.normal())], sigma_y=float(rng.uniform(0.3, 1.0))
            )
            s = int(rng.integers(2, 500))
            t = int(rng.integers(s + 1, 1001))
            x0 = np.array([float(rng.normal())])
            xt = np.array([float(rng.normal())])
            mom = exact_conditional(lik, prior, sched, s, t, x0, xt)
            q_mean, q_var = quadrature_conditional_moments(lik, prior, sched, s, t, x0, xt)
            np.testing.assert_allclose(mom.mean[0], q_mean, atol=1e-8)
            np.testing.assert_allclose(mom.cov[0, 0], q_var, atol=1e-8)

    def test_homogeneous_instance_cross_checks_linearized_potential(self):
        """Sigma = I, m = 0, A = I: the conditional's precision is built
        from A_hat_s = (alpha_s / v_s) Sigma_{0|s} as the potential's
        linearization states."""
        sched = make_schedule("linear", 1000)
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2))
        lik = LinearGaussianLikelihood(A=np.eye(2), y=[0.5, -0.5], sigma_y=0.7)
        from mgdm.likelihoods import linearized_potential

        s = 150
        a_hat, offset = linearized_potential(lik, prior, sched, s)
        alpha, v = sched.alpha(s), sched.sigma2(0, s)
        sigma_0s = prior.posterior_x0_cov(sched, s)
        np.testing.assert_allclose(a_hat, (alpha / v) * sigma_0s, atol=1e-12)
        np.testing.assert_allclose(offset, np.zeros(2), atol=1e-12)


def random_instance(d, d_y, rng):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    prior = GaussianPrior(mean=rng.standard_normal(d), cov=(q * rng.uniform(0.2, 3.0, d)) @ q.T)
    lik = LinearGaussianLikelihood(A=rng.standard_normal((d_y, d)), y=rng.standard_normal(d_y), sigma_y=0.4)
    return lik, prior


class TestFactorizedConditional:
    """One factorization per level s; (M, N, e, Lambda) and draws are diagonal scalings per (s, t)."""

    PAIRS = ((1, 2), (1, 400), (30, 31), (120, 700), (500, 1000))

    @pytest.mark.parametrize("d,d_y", [(1, 1), (2, 2), (5, 3), (5, 1)])
    def test_coefficients_match_direct_inverse(self, d, d_y):
        sched = make_schedule("linear", 1000)
        lik, prior = random_instance(d, d_y, np.random.default_rng(d * 10 + d_y))
        for s, t in self.PAIRS:
            p = sched.bridge_params(s, t)
            a_hat, offset = linearized_potential(lik, prior, sched, s)
            lam = np.linalg.inv(np.eye(d) / p.variance + a_hat.T @ a_hat / lik.sigma_y**2)
            want = (
                lam * (p.mean_coeff_x0 / p.variance),
                lam * (p.mean_coeff_xt / p.variance),
                lam @ a_hat.T @ (lik.y - offset) / lik.sigma_y**2,
                lam,
            )
            for got, ref in zip(conditional_coefficients(lik, prior, sched, s, t), want):
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 3])
    def test_draw_has_conditional_mean_and_a_root_of_lambda(self, d):
        """draw - (M x0 + N xt + e) = eps R^T with eps the generator's normals and R R^T = Lambda."""
        sched = make_schedule("linear", 1000)
        rng = np.random.default_rng(d)
        lik, prior = random_instance(d, 2, rng)
        x0, xt = rng.standard_normal((40, d)), rng.standard_normal((40, d))
        for s, t in self.PAIRS:
            coef_x0, coef_xt, shift, lam = conditional_coefficients(lik, prior, sched, s, t)
            noise = exact_conditional_sample(lik, prior, sched, s, t, x0, xt, np.random.default_rng(9))
            noise -= x0 @ coef_x0.T + xt @ coef_xt.T + shift
            eps = np.random.default_rng(9).standard_normal(x0.shape)
            root = np.linalg.lstsq(eps, noise, rcond=None)[0].T
            np.testing.assert_allclose(eps @ root.T, noise, rtol=0, atol=1e-12)
            np.testing.assert_allclose(root @ root.T, lam, rtol=0, atol=1e-12)

    def test_rejects_unsupported_models(self):
        lik, prior, sched = problem_1d()
        rng = np.random.default_rng(0)
        with pytest.raises(TypeError):
            exact_conditional_sample(quadratic_toy([[1.0]], [1.0], 0.5), prior, sched, 5, 10, [0.0], [0.0], rng)
        with pytest.raises(ValueError):
            exact_conditional_sample(lik, prior, sched, 10, 10, [0.0], [0.0], rng)


class TestConditionalMemo:
    """The per-level factorization: read-only, at most T + 1 entries, never shared."""

    @staticmethod
    def fresh(lik, prior, sched, s, t):
        return conditional_coefficients(lik, GaussianPrior(mean=prior.mean, cov=prior.cov), sched, s, t)

    def test_entries_read_only_and_bounded_by_levels(self):
        lik, prior, _ = problem_1d()
        sched = make_schedule("linear", 40)
        for _ in range(2):
            for s in range(1, 40):
                for t in (s + 1, 40):
                    conditional_coefficients(lik, prior, sched, s, t)
        known_sched, known_lik, levels = prior._conditionals
        assert known_sched is sched and known_lik is lik
        assert sorted(levels) == list(range(1, 40)) and len(levels) <= sched.T + 1
        for entry in levels.values():
            for arr in entry:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[...] = 0.0

    def test_schedules_and_likelihoods_never_share_entries(self):
        _, prior, _ = problem_1d()
        lik_a = LinearGaussianLikelihood(A=[[1.1]], y=[0.7], sigma_y=0.5)
        lik_b = LinearGaussianLikelihood(A=[[0.4]], y=[-1.0], sigma_y=0.2)
        linear, cosine = make_schedule("linear", 100), make_schedule("cosine", 100)
        for lik, sched in ((lik_a, linear), (lik_b, linear), (lik_a, cosine), (lik_a, linear), (lik_b, cosine)):
            want = self.fresh(lik, prior, sched, 30, 60)
            for got, ref in zip(conditional_coefficients(lik, prior, sched, 30, 60), want):
                assert np.array_equal(got, ref)
            assert prior._conditionals[0] is sched and prior._conditionals[1] is lik
            assert list(prior._conditionals[2]) == [30]

    def test_exact_run_and_oracle_factorize_once_per_level(self, monkeypatch):
        """An exact-backend batch plus its oracle make one eigh per distinct level and no Cholesky."""
        from mgdm.oracle import oracle_recursion
        from mgdm.sampler import IndexDistribution, MgdmConfig, make_timesteps, mgdm_run_batch

        lik = LinearGaussianLikelihood(A=[[1.0, 0.4], [0.0, 0.8]], y=[2.4, -1.6], sigma_y=0.5)
        prior = GaussianPrior(mean=[1.0, -0.5], cov=[[1.0, 0.3], [0.3, 0.7]])
        sched = make_schedule("linear", 1000)
        ts = make_timesteps(8, 1000)
        seq = (100, 100, 300, 300, 50, 2, 2)
        cfg = MgdmConfig(timesteps=ts, R=3, conditional="exact", denoise="exact",
                         index_dist=IndexDistribution(kind="fixed", values=seq))
        calls = {"eigh": 0, "cholesky": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        mgdm_run_batch(lik, prior, sched, cfg, 50, np.random.default_rng(0))
        oracle_recursion(prior, lik, sched, cfg)
        assert calls == {"eigh": len(set(seq)), "cholesky": 0}


class TestMhCorrection:
    def test_zero_steps_returns_current(self):
        lik, prior, sched = problem_1d()
        x0, xt = np.array([0.1]), np.array([0.2])
        params = bridge_init(sched, 50, 300, x0, xt)
        current = np.array([0.33])
        out = mh_correct(lik, prior, sched, 50, 300, x0, xt, current, params, 0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, current)

    def test_acceptance_ratio_cancels_for_exact_proposal(self):
        """With A = c I the exact conditional is diagonal; using it as the
        proposal makes log target - log proposal constant (acceptance 1)."""
        sched = make_schedule("linear", 1000)
        prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2) * 0.8)
        lik = LinearGaussianLikelihood(A=np.eye(2) * 1.3, y=[0.4, -0.2], sigma_y=0.6)
        s, t = 100, 500
        x0, xt = np.array([0.3, 0.1]), np.array([-0.2, 0.5])
        mom = exact_conditional(lik, prior, sched, s, t, x0, xt)
        from mgdm.vi import VariationalParams

        params = VariationalParams(mu=mom.mean, rho=np.log(np.diag(mom.cov)))
        p = sched.bridge_params(s, t)
        m_b = p.mean_coeff_x0 * x0 + p.mean_coeff_xt * xt
        rng = np.random.default_rng(8)
        diffs = []
        for _ in range(50):
            x = params.sample(rng)
            log_t = log_g_hat(lik, prior, sched, s, x).log_value + gauss_log_density(x, m_b, p.variance)
            log_p = gauss_log_density(x, params.mu, np.exp(params.rho))
            diffs.append(log_t - log_p)
        assert np.max(diffs) - np.min(diffs) < 1e-10

    def test_long_chain_matches_quadrature_target(self):
        """MH with the quadratic toy: pooled late-chain states match the
        quadrature-normalized target within W1 < 0.02."""
        sched = make_schedule("linear", 1000)
        prior = GaussianPrior(mean=[0.4], cov=[[0.6]])
        lik = quadratic_toy(A=[[1.0]], y=[0.5], sigma_y=0.4)
        s, t = 80, 420
        x0, xt = np.array([0.7]), np.array([0.2])
        cfg = ViConfig(steps=60, learning_rate=0.02)
        rng = np.random.default_rng(77)
        params = fit_variational(lik, prior, sched, s, t, x0, xt, cfg, rng)

        n_chains, burn, keep = 512, 150, 100
        from mgdm.vi import VariationalParams

        batch = VariationalParams(mu=np.tile(params.mu, (n_chains, 1)), rho=np.tile(params.rho, (n_chains, 1)))
        x = batch.sample(rng)
        x = mh_correct(lik, prior, sched, s, t, x0, xt, x, batch, burn, rng)
        pool = []
        for _ in range(keep):
            x = mh_correct(lik, prior, sched, s, t, x0, xt, x, batch, 1, rng)
            pool.append(x[:, 0].copy())
        pool = np.concatenate(pool)

        # inverse-CDF draws from the trapezoid-normalized target
        p = sched.bridge_params(s, t)
        m_b = p.mean_coeff_x0 * x0[0] + p.mean_coeff_xt * xt[0]
        grid = np.linspace(m_b - 9 * math.sqrt(p.variance), m_b + 9 * math.sqrt(p.variance), 4001)
        logd = log_g_hat(lik, prior, sched, s, grid[:, None]).log_value + gauss_log_density(
            grid[:, None], np.array([m_b]), p.variance
        )
        dens = np.exp(logd - logd.max())
        cdf = np.cumsum(dens)
        cdf /= cdf[-1]
        u = (np.arange(pool.size) + 0.5) / pool.size
        ref = np.interp(u, cdf, grid)
        w1 = np.mean(np.abs(np.sort(pool) - np.sort(ref)))
        assert w1 < 0.02

    def test_detailed_balance_on_three_point_target(self):
        """pi(i) P(i, j) = pi(j) P(j, i) within 3 sigma over 1e6 transitions."""
        support = np.array([-1.0, 0.0, 1.0])
        pi = np.array([0.5, 0.3, 0.2])
        q = np.array([0.2, 0.3, 0.5])
        rng = np.random.default_rng(31)
        n = 1_000_000
        start_idx = rng.choice(3, size=n, p=pi)
        x = support[start_idx][:, None]

        def log_target(v):
            idx = np.searchsorted(support, v[..., 0])
            return np.log(pi[idx])

        def log_proposal(v):
            idx = np.searchsorted(support, v[..., 0])
            return np.log(q[idx])

        def draw_proposal(gen):
            return support[gen.choice(3, size=n, p=q)][:, None]

        out = independent_mh(log_target, log_proposal, draw_proposal, x, 1, rng)
        end_idx = np.searchsorted(support, out[:, 0])
        counts = np.zeros((3, 3))
        np.add.at(counts, (start_idx, end_idx), 1.0)
        for i in range(3):
            for j in range(i + 1, 3):
                diff = abs(counts[i, j] - counts[j, i])
                se = math.sqrt(counts[i, j] + counts[j, i])
                assert diff < 3 * se
