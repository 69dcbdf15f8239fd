"""Variational conditional fit, exact conditional, and MH correction."""

import math

import numpy as np
import pytest

from mgdm.likelihoods import (
    LinearGaussianLikelihood,
    QuadraticLikelihood,
    guidance,
    linearized_potential,
    log_g_hat,
)
from mgdm.priors import DenoiserOutput, GaussianPrior, GmmPrior
from mgdm.schedule import make_schedule, gauss_log_density
from mgdm.vi import (
    conditional_coefficients,
    exact_conditional_sample,
    fit_variational,
    independent_mh,
    kl_gradient_estimate,
    mh_correct,
    variational_sample,
)
import references
from references import exact_conditional


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


def bridge_init(sched, s, t, x0, xt):
    """Bridge moments as variational parameters: the fit's starting point, which a
    zero-step fit returns without calling its guide or a generator."""
    return fit_variational(None, *bridge(sched, s, t, x0, xt), 0, 0.03, None)


def fit(lik, prior, sched, s, t, x0, xt, steps, learning_rate, rng):
    """The VI fit as the Gibbs sweep at levels s < t calls it: the guide at s and the bridge's mean and variance."""
    return fit_variational(guidance(lik, prior, sched, s), *bridge(sched, s, t, x0, xt), steps, learning_rate, rng)


def mh(lik, prior, sched, s, t, x0, xt, current, theta, n_steps, rng):
    """The MH correction as the Gibbs sweep calls it: log ghat_s and the bridge's mean and variance."""
    def log_potential(x):
        return log_g_hat(lik, prior, sched, s, x)

    return mh_correct(log_potential, *bridge(sched, s, t, x0, xt), current, theta, n_steps, rng)


def exact_draw(lik, prior, sched, s, t, x0, xt, rng):
    """The exact conditional draw as the Gibbs sweep calls it, at level s on the bridge s < t."""
    return exact_conditional_sample(lik, prior, sched, s, *bridge(sched, s, t, x0, xt), rng)


def tiled(theta, n):
    """theta = (mu, rho) of one state, repeated for a batch of n states: shape (2, n, d)."""
    return np.array((np.tile(theta[0], (n, 1)), np.tile(theta[1], (n, 1))))


def reverse_kl_quadrature(lik, prior, sched, s, t, x0, xt, theta, n_nodes=257):
    """KL(lambda || normalized ghat_s * bridge) by Gauss-Hermite, d = 1."""
    from scipy.special import logsumexp

    p = sched.bridge_params(s, t)
    m_b = float(p.mean(x0, xt)[0])
    nodes, weights = _hermite(n_nodes)
    keep = weights > 0.0  # extreme nodes underflow for large n_nodes
    nodes, weights = nodes[keep], weights[keep]

    # log Z under the bridge measure.
    log_pot = log_g_hat(lik, prior, sched, s, (m_b + math.sqrt(p.variance) * nodes)[:, None])
    log_z = logsumexp(np.log(weights) + log_pot)

    # E_lambda[log lambda - log ghat - log bridge].
    xs = (float(theta[0, 0]) + float(np.exp(0.5 * theta[1, 0])) * nodes)[:, None]
    log_lam = gauss_log_density(xs, theta[0], np.exp(theta[1]))
    log_pot_lam = log_g_hat(lik, prior, sched, s, xs)
    log_bridge = gauss_log_density(xs, np.atleast_1d(m_b), p.variance)
    return float(np.sum(weights * (log_lam - log_pot_lam - log_bridge))) + float(log_z)


class TestInitialization:
    def test_bridge_init_matches_bridge_params_exactly(self):
        _, _, sched = problem_1d()
        x0, xt = np.array([0.4]), np.array([-0.2])
        s, t = 120, 500
        theta = bridge_init(sched, s, t, x0, xt)
        p = sched.bridge_params(s, t)
        assert theta[0, 0] == p.mean_coeff_x0 * x0[0] + p.mean_coeff_xt * xt[0]
        assert theta[1, 0] == math.log(p.variance)

    def test_zero_steps_reproduces_bridge_sample(self):
        """G = 0 consumes the same single normal draw as bridge_sample."""
        lik, prior, sched = problem_1d()
        x0, xt = np.array([0.4]), np.array([-0.2])
        s, t = 120, 500
        rng = np.random.default_rng(99)
        draw = variational_sample(fit(lik, prior, sched, s, t, x0, xt, 0, 0.03, rng), rng)
        ref = sched.bridge_sample(x0, xt, s, t, np.random.default_rng(99))
        np.testing.assert_allclose(draw, ref, atol=1e-12)

    def test_rejects_bad_levels(self):
        """The sweep checks its levels; the fit reads level s only through its guide and its bridge."""
        from mgdm.sampler import MgdmConfig, gibbs_step

        lik, prior, sched = problem_1d()
        cfg = MgdmConfig(timesteps=(100, 1000), conditional="vi")
        for s, t in ((0, 10), (10, 10)):
            with pytest.raises(ValueError):
                gibbs_step(np.zeros(1), np.zeros(1), s, t, lik, prior, sched, cfg, (5, 0.03), np.random.default_rng(0))
        with pytest.raises(ValueError):
            guidance(lik, prior, sched, 0)
        with pytest.raises(ValueError):
            bridge_init(sched, 10, 10, np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError):  # the s = 0 bridge: variance 0
            fit(lik, prior, sched, 0, 10, np.zeros(1), np.zeros(1), 5, 0.03, np.random.default_rng(0))

    @pytest.mark.parametrize("steps", [0, 1, 10])
    def test_one_bridge_per_fit(self, steps, monkeypatch):
        """A VI sweep builds its bridge once and its fit makes one gradient estimate per Adam step."""
        import mgdm.vi as vi_mod
        from mgdm.sampler import MgdmConfig, gibbs_step
        from mgdm.schedule import NoiseSchedule

        lik, prior, sched = problem_2d()
        s, t = 120, 400
        calls = {"bridge_params": 0, "kl_gradient_estimate": 0}
        bridge_params, gradient = NoiseSchedule.bridge_params, vi_mod.kl_gradient_estimate

        def counted_bridge(self, lo, hi):
            calls["bridge_params"] += (lo, hi) == (s, t)  # the DDPM pass builds its own sub-step bridges
            return bridge_params(self, lo, hi)

        def counted_gradient(*args):
            calls["kl_gradient_estimate"] += 1
            return gradient(*args)

        monkeypatch.setattr(NoiseSchedule, "bridge_params", counted_bridge)
        monkeypatch.setattr(vi_mod, "kl_gradient_estimate", counted_gradient)
        x0, xt = np.array([[0.3, -0.2], [1.0, 0.4]]), np.array([[0.1, 0.5], [-0.7, 0.2]])
        cfg = MgdmConfig(timesteps=(200, 1000), conditional="vi")
        gibbs_step(x0, xt, s, t, lik, prior, sched, cfg, (steps, 0.03), np.random.default_rng(3))
        assert calls == {"bridge_params": 1, "kl_gradient_estimate": steps}

    @pytest.mark.parametrize("variance", [0.0, -1.0, float("nan")])
    def test_rejects_a_collapsed_bridge(self, variance):
        """The fit and the exact draw need a bridge variance > 0: the s = 0 bridge collapses on x_0."""
        lik, prior, sched = problem_1d()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="bridge variance"):
            fit_variational(guidance(lik, prior, sched, 5), np.zeros(1), variance, 5, 0.03, rng)
        with pytest.raises(ValueError, match="bridge variance"):
            fit_variational(None, np.zeros(1), variance, 0, 0.03, None)
        with pytest.raises(ValueError, match="bridge variance"):
            exact_conditional_sample(lik, prior, sched, 5, np.zeros(1), variance, rng)


class TestGradientEstimator:
    def test_entropy_term_gives_minus_half_per_coordinate(self):
        """With a flat potential, zero noise, and mu at the bridge mean the
        only surviving rho-gradient is the entropy term's -1/2."""
        sched = make_schedule("linear", 100)
        prior = GaussianPrior(mean=[0.5, 0.5], cov=np.eye(2) * 1e-12)
        lik = LinearGaussianLikelihood(A=np.eye(2), y=[0.5, 0.5], sigma_y=1.0)
        x0, xt = np.full(2, 0.1), np.full(2, -0.3)
        theta = bridge_init(sched, 20, 70, x0, xt)
        guide = guidance(lik, prior, sched, 20)
        _, grad_rho = kl_gradient_estimate(guide, *bridge(sched, 20, 70, x0, xt), theta, np.zeros(2))
        np.testing.assert_allclose(grad_rho, [-0.5, -0.5], atol=1e-10)

    def test_flat_potential_zero_expected_mu_gradient_at_init(self):
        """KL to the bridge is minimized at the bridge for a flat potential."""
        sched = make_schedule("linear", 100)
        prior = GaussianPrior(mean=[0.2], cov=[[1e-12]])
        lik = LinearGaussianLikelihood(A=[[1.0]], y=[0.2], sigma_y=1.0)
        x0, xt = np.array([0.4]), np.array([0.1])
        theta = bridge_init(sched, 20, 70, x0, xt)
        rng = np.random.default_rng(0)
        n = 100_000
        batch = tiled(theta, n)
        z = rng.standard_normal(batch[0].shape)
        gmu, _ = kl_gradient_estimate(guidance(lik, prior, sched, 20), *bridge(sched, 20, 70, x0, xt), batch, z)
        se = gmu.std() / math.sqrt(n)
        assert abs(gmu.mean()) < 3 * se + 1e-12

    def test_unbiased_against_quadrature_kl(self):
        """Mean single-sample gradient matches finite differences of the
        quadrature-evaluated KL within 3 standard errors (1-D)."""
        lik, prior, sched = problem_1d()
        s, t = 60, 400
        x0, xt = np.array([0.5]), np.array([-0.1])
        theta0 = bridge_init(sched, s, t, x0, xt)
        mu0, rho0 = float(theta0[0, 0]), float(theta0[1, 0])

        n = 200_000
        rng = np.random.default_rng(5)
        batch = np.array((np.full((n, 1), mu0), np.full((n, 1), rho0)))
        z = rng.standard_normal(batch[0].shape)
        gmu, grho = kl_gradient_estimate(guidance(lik, prior, sched, s), *bridge(sched, s, t, x0, xt), batch, z)

        h = 1e-4

        def kl_at(mu, rho):
            return reverse_kl_quadrature(lik, prior, sched, s, t, x0, xt, np.array([[mu], [rho]]), n_nodes=401)

        fd_mu = (kl_at(mu0 + h, rho0) - kl_at(mu0 - h, rho0)) / (2 * h)
        fd_rho = (kl_at(mu0, rho0 + h) - kl_at(mu0, rho0 - h)) / (2 * h)
        se_mu = gmu.std() / math.sqrt(n)
        se_rho = grho.std() / math.sqrt(n)
        assert abs(gmu.mean() - fd_mu) < 3 * se_mu
        assert abs(grho.mean() - fd_rho) < 3 * se_rho


class TestPotentialValueOnDemand:
    """Each caller evaluates only the part of the guidance potential it reads."""

    def test_fit_never_evaluates_the_potential_value(self, monkeypatch):
        lik, prior, sched = problem_1d()
        calls = []
        original = LinearGaussianLikelihood.log_g0
        monkeypatch.setattr(LinearGaussianLikelihood, "log_g0", lambda self, x: calls.append(1) or original(self, x))
        fit(lik, prior, sched, 50, 300, np.array([0.2]), np.array([0.1]), 7, 0.03, np.random.default_rng(0))
        assert calls == []
        x = np.array([[0.3], [-0.4]])
        den = prior.denoise(sched, 50, x)
        np.testing.assert_array_equal(log_g_hat(lik, prior, sched, 50, x), original(lik, den.value))
        assert calls == [1]
        # A GMM prior takes the VJP route bit for bit; a Gaussian one, the closed form (test_likelihoods).
        gmm = GmmPrior(weights=[0.4, 0.6], means=[[0.5], [-0.3]], covs=[[[0.4]], [[0.9]]])
        den = gmm.denoise(sched, 50, x)
        np.testing.assert_array_equal(guidance(lik, gmm, sched, 50)(x), den.vjp(lik.grad_log_g0(den.value)))
        assert calls == [1]

    @pytest.mark.parametrize("steps", [1, 7])
    def test_gaussian_fit_makes_no_denoiser_call(self, monkeypatch, steps):
        """A Gaussian prior with a linear likelihood reads its gradient from the level factorization,
        which the denoiser's affine map builds once: no denoise runs in a fit of any length."""
        lik, prior, sched = problem_2d()
        denoises = []
        original = GaussianPrior.denoise
        monkeypatch.setattr(GaussianPrior, "denoise", lambda *args: denoises.append(1) or original(*args))
        x0, xt = np.array([0.3, 0.1]), np.array([-0.2, 0.5])
        fit(lik, prior, sched, 100, 500, x0, xt, steps, 0.03, np.random.default_rng(0))
        fit(lik, prior, sched, 100, 500, np.tile(x0, (6, 1)), np.tile(xt, (6, 1)), steps, 0.03, np.random.default_rng(1))
        assert denoises == []

    @pytest.mark.parametrize("prior_cls", [GaussianPrior, GmmPrior])
    def test_mh_applies_no_vjp(self, monkeypatch, prior_cls):
        """MH reads only the potential's value, so no denoiser VJP runs in mh_correct."""
        sched = make_schedule("linear", 1000)
        lik = LinearGaussianLikelihood(A=[[1.0, 0.5]], y=[0.3], sigma_y=0.3)
        if prior_cls is GaussianPrior:
            prior = GaussianPrior(mean=[1.0, -0.5], cov=[[1.0, 0.3], [0.3, 0.7]])
        else:
            prior = GmmPrior(weights=[0.3, 0.7], means=[[1.0, 1.0], [-1.0, -0.5]], covs=[np.eye(2) * 0.3, np.eye(2)])
        denoises, vjps = [], []
        original = prior_cls.denoise

        def counting_denoise(self, schedule, t, x_t):
            den = original(self, schedule, t, x_t)
            denoises.append(1)
            return DenoiserOutput(value=den.value, vjp=lambda u: vjps.append(1) or den.vjp(u))

        monkeypatch.setattr(prior_cls, "denoise", counting_denoise)
        rng = np.random.default_rng(3)
        x0, xt = np.array([0.3, 0.1]), np.array([-0.2, 0.5])
        theta = fit(lik, prior, sched, 100, 500, x0, xt, 4, 0.03, rng)
        fit_vjps = 0 if prior_cls is GaussianPrior else 4  # a Gaussian fit takes the closed-form gradient
        assert len(vjps) == len(denoises) == fit_vjps
        batch = tiled(theta, 8)
        mh(lik, prior, sched, 100, 500, x0, xt, variational_sample(batch, rng), batch, 3, rng)
        assert len(denoises) == fit_vjps + 4 and len(vjps) == fit_vjps


class TestFit:
    def test_fitted_mean_near_exact_conditional(self):
        lik, prior, sched = problem_2d()
        s, t = 180, 520
        from mgdm.priors import exact_posterior

        x0 = exact_posterior(prior, lik).mean
        xt = sched.alpha(t) * x0
        exact = exact_conditional(lik, prior, sched, s, t, x0, xt)
        errs = []
        for seed in range(20):
            theta = fit(lik, prior, sched, s, t, x0, xt, 200, 0.03, np.random.default_rng(seed))
            errs.append(np.linalg.norm(theta[0] - exact.mean) / np.linalg.norm(exact.mean))
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
        n = 200_000
        batch = tiled(np.array((mom.mean, np.log(np.diag(mom.cov)))), n)
        rng = np.random.default_rng(6)
        z = rng.standard_normal(batch[0].shape)
        gmu, grho = kl_gradient_estimate(guidance(lik, prior, sched, s), *bridge(sched, s, t, x0, xt), batch, z)
        for grad in (gmu, grho):
            se = grad.std(axis=0) / math.sqrt(n)
            assert np.all(np.abs(grad.mean(axis=0)) < 3 * se + 1e-12)

    @pytest.mark.parametrize(
        "problem, shape",
        [
            pytest.param("gaussian", (1,), id="shape0"),
            pytest.param("gaussian", (2,), id="shape1"),
            pytest.param("gmm-isotropic", (50, 2), id="shape2"),
            pytest.param("gmm-non-commuting", (2,), id="gmm-non-commuting"),
            pytest.param("gmm-non-commuting", (50, 2), id="gmm-non-commuting-batch"),
            pytest.param("quadratic", (1,), id="quadratic"),
            pytest.param("quadratic", (50, 1), id="quadratic-batch"),
        ],
    )
    def test_stacked_adam_matches_per_block_reference(self, problem, shape):
        """The fit, with its one guidance resolve and one noise draw, gives the same bits as separate mu
        and rho updates that draw each step's noise with its own generator call."""
        from mgdm.vi import ADAM_BETA1, ADAM_BETA2, ADAM_EPS

        lik, prior, sched = problem_2d() if shape[-1] == 2 else problem_1d()
        if problem == "gmm-isotropic":
            prior = GmmPrior(weights=[0.5, 0.5], means=[[-1.0, -1.0], [1.0, 1.0]], covs=[np.eye(2) * 0.3] * 2)
        elif problem == "gmm-non-commuting":  # tests/test_golden.py's: one eigenbasis per component
            covs = [[[0.3, 0.1], [0.1, 0.4]], [[0.5, 0.0], [0.0, 0.2]]]
            prior = GmmPrior(weights=[0.3, 0.7], means=[[1.0, 1.0], [-1.0, -0.5]], covs=covs)
            lik = LinearGaussianLikelihood(A=[[1.0, 0.5]], y=[0.3], sigma_y=0.3)
        elif problem == "quadratic":
            prior, lik = GaussianPrior(mean=[0.4], cov=[[0.6]]), QuadraticLikelihood(A=[[1.0]], y=[0.5], sigma_y=0.3)
        s, t = 120, 400
        rng = np.random.default_rng(8)
        x0, xt = rng.standard_normal(shape), rng.standard_normal(shape)
        steps, learning_rate = 15, 0.05

        gen = np.random.default_rng(9)
        guide = guidance(lik, prior, sched, s)
        blocks = list(bridge_init(sched, s, t, x0, xt))  # mu and rho, each stepped on its own
        mom = [np.zeros(shape), np.zeros(shape)]
        vel = [np.zeros(shape), np.zeros(shape)]
        for step in range(1, steps + 1):
            z = gen.standard_normal(shape)
            grads = kl_gradient_estimate(guide, *bridge(sched, s, t, x0, xt), np.array(blocks), z)
            for slot, grad in enumerate(grads):
                mom[slot] = ADAM_BETA1 * mom[slot] + (1.0 - ADAM_BETA1) * grad
                vel[slot] = ADAM_BETA2 * vel[slot] + (1.0 - ADAM_BETA2) * grad**2
                m_hat = mom[slot] / (1.0 - ADAM_BETA1**step)
                v_hat = vel[slot] / (1.0 - ADAM_BETA2**step)
                update = learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                blocks[slot] = blocks[slot] - update

        got = fit(lik, prior, sched, s, t, x0, xt, steps, learning_rate, np.random.default_rng(9))
        assert np.array_equal(got[0], blocks[0]) and np.array_equal(got[1], blocks[1])
        assert got.shape == (2,) + shape

    def test_reverse_kl_decreases_on_nonlinear_toy(self):
        """Mean quadrature KL after 50 steps is strictly below the KL at
        initialization (averaged over 200 seeds, 1-D quadratic toy)."""
        sched = make_schedule("linear", 1000)
        prior = GaussianPrior(mean=[0.4], cov=[[0.6]])
        lik = QuadraticLikelihood(A=[[1.0]], y=[0.5], sigma_y=0.3)
        s, t = 80, 420
        x0, xt = np.array([0.7]), np.array([0.2])
        init = bridge_init(sched, s, t, x0, xt)
        kl_init = reverse_kl_quadrature(lik, prior, sched, s, t, x0, xt, init, n_nodes=301)
        finals = []
        for seed in range(200):
            theta = fit(lik, prior, sched, s, t, x0, xt, 50, 0.03, np.random.default_rng(seed))
            finals.append(reverse_kl_quadrature(lik, prior, sched, s, t, x0, xt, theta, n_nodes=301))
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
    logpot = log_g_hat(lik, prior, sched, s, xs)
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
            noise = exact_draw(lik, prior, sched, s, t, x0, xt, np.random.default_rng(9))
            noise -= x0 @ coef_x0.T + xt @ coef_xt.T + shift
            eps = np.random.default_rng(9).standard_normal(x0.shape)
            root = np.linalg.lstsq(eps, noise, rcond=None)[0].T
            np.testing.assert_allclose(eps @ root.T, noise, rtol=0, atol=1e-12)
            np.testing.assert_allclose(root @ root.T, lam, rtol=0, atol=1e-12)

    def test_rejects_unsupported_models(self):
        lik, prior, sched = problem_1d()
        rng = np.random.default_rng(0)
        with pytest.raises(TypeError):
            exact_draw(QuadraticLikelihood([[1.0]], [1.0], 0.5), prior, sched, 5, 10, [0.0], [0.0], rng)
        with pytest.raises(ValueError):
            exact_draw(lik, prior, sched, 10, 10, [0.0], [0.0], rng)


class TestConditionalMemo:
    """The per-level factorization: read-only, one entry per (schedule, likelihood, s), never shared."""

    @staticmethod
    def fresh(lik, prior, sched, s, t):
        return conditional_coefficients(lik, GaussianPrior(mean=prior.mean, cov=prior.cov), sched, s, t)

    def test_entries_read_only_and_bounded_by_levels(self):
        lik, prior, _ = problem_1d()
        sched = make_schedule("linear", 40)
        sizes = []
        for _ in range(2):
            for s in range(1, 40):
                for t in (s + 1, 40):
                    conditional_coefficients(lik, prior, sched, s, t)
            sizes.append(len(prior._memo))
        assert sizes[0] == sizes[1]  # revisiting a level adds no entry
        levels = {key[2]: entry for key, entry in prior._memo.items() if key[:2] == (sched, lik)}
        assert sorted(levels) == list(range(1, 40)) and len(levels) <= sched.T + 1
        for entry in levels.values():
            assert len(entry) == 5  # W, mu, h of the exact conditional; P_s, q_s of the guidance gradient
            for arr in entry:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[...] = 0.0

    def test_guidance_and_conditional_share_one_entry(self):
        """The VI gradient's P_s and q_s sit in the exact conditional's entry for level s."""
        lik, prior, sched = problem_2d()
        fit(lik, prior, sched, 30, 60, np.zeros(2), np.ones(2), 3, 0.03, np.random.default_rng(0))
        entry = prior._memo[(sched, lik, 30)]
        conditional_coefficients(lik, prior, sched, 30, 60)
        assert prior._memo[(sched, lik, 30)] is entry
        assert [key for key in prior._memo if len(key) == 3] == [(sched, lik, 30)]
        w, mu, h, prec, shift = entry
        a_hat, offset = linearized_potential(lik, prior, sched, 30)
        np.testing.assert_array_equal(prec, a_hat.T @ a_hat / lik.sigma_y**2)
        np.testing.assert_allclose(shift, (lik.y - offset) @ a_hat / lik.sigma_y**2, rtol=1e-14)
        np.testing.assert_allclose((w * mu) @ w.T, prec, rtol=0, atol=1e-12 * np.abs(prec).max())
        np.testing.assert_allclose(shift @ w, h, rtol=1e-12)

    def test_schedules_and_likelihoods_never_share_entries(self):
        _, prior, _ = problem_1d()
        lik_a = LinearGaussianLikelihood(A=[[1.1]], y=[0.7], sigma_y=0.5)
        lik_b = LinearGaussianLikelihood(A=[[0.4]], y=[-1.0], sigma_y=0.2)
        linear, cosine = make_schedule("linear", 100), make_schedule("cosine", 100)
        visits = ((lik_a, linear), (lik_b, linear), (lik_a, cosine), (lik_a, linear), (lik_b, cosine))
        for lik, sched in visits:
            want = self.fresh(lik, prior, sched, 30, 60)
            for got, ref in zip(conditional_coefficients(lik, prior, sched, 30, 60), want):
                assert np.array_equal(got, ref)
        assert {key for key in prior._memo if len(key) == 3} == {(sched, lik, 30) for lik, sched in visits}

    def test_exact_run_and_oracle_factorize_once_per_level(self, monkeypatch):
        """An exact-backend batch makes one eigh per distinct level and no Cholesky, and its oracle reuses them
        all; the oracle's output law, a GaussianPrior, factors its own covariance: one eigh and one Cholesky."""
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
        assert calls == {"eigh": len(set(seq)), "cholesky": 0}
        oracle_recursion(prior, lik, sched, cfg)
        assert calls == {"eigh": len(set(seq)) + 1, "cholesky": 1}


class TestMhCorrection:
    def test_zero_steps_returns_current(self):
        lik, prior, sched = problem_1d()
        x0, xt = np.array([0.1]), np.array([0.2])
        theta = bridge_init(sched, 50, 300, x0, xt)
        current = np.array([0.33])
        out = mh(lik, prior, sched, 50, 300, x0, xt, current, theta, 0, np.random.default_rng(0))
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
        theta = np.array((mom.mean, np.log(np.diag(mom.cov))))
        p = sched.bridge_params(s, t)
        m_b = p.mean_coeff_x0 * x0 + p.mean_coeff_xt * xt
        rng = np.random.default_rng(8)
        diffs = []
        for _ in range(50):
            x = variational_sample(theta, rng)
            log_t = log_g_hat(lik, prior, sched, s, x) + gauss_log_density(x, m_b, p.variance)
            log_p = gauss_log_density(x, theta[0], np.exp(theta[1]))
            diffs.append(log_t - log_p)
        assert np.max(diffs) - np.min(diffs) < 1e-10

    def test_long_chain_matches_quadrature_target(self):
        """MH with the quadratic toy: pooled late-chain states match the
        quadrature-normalized target within W1 < 0.02."""
        sched = make_schedule("linear", 1000)
        prior = GaussianPrior(mean=[0.4], cov=[[0.6]])
        lik = QuadraticLikelihood(A=[[1.0]], y=[0.5], sigma_y=0.4)
        s, t = 80, 420
        x0, xt = np.array([0.7]), np.array([0.2])
        rng = np.random.default_rng(77)
        theta = fit(lik, prior, sched, s, t, x0, xt, 60, 0.02, rng)

        n_chains, burn, keep = 512, 150, 100
        batch = tiled(theta, n_chains)
        x = variational_sample(batch, rng)
        x = mh(lik, prior, sched, s, t, x0, xt, x, batch, burn, rng)
        pool = []
        for _ in range(keep):
            x = mh(lik, prior, sched, s, t, x0, xt, x, batch, 1, rng)
            pool.append(x[:, 0].copy())
        pool = np.concatenate(pool)

        # inverse-CDF draws from the trapezoid-normalized target
        p = sched.bridge_params(s, t)
        m_b = p.mean_coeff_x0 * x0[0] + p.mean_coeff_xt * xt[0]
        grid = np.linspace(m_b - 9 * math.sqrt(p.variance), m_b + 9 * math.sqrt(p.variance), 4001)
        logd = log_g_hat(lik, prior, sched, s, grid[:, None]) + gauss_log_density(
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

        out = independent_mh(lambda v: log_target(v) - log_proposal(v), draw_proposal, x, 1, rng)
        end_idx = np.searchsorted(support, out[:, 0])
        counts = np.zeros((3, 3))
        np.add.at(counts, (start_idx, end_idx), 1.0)
        for i in range(3):
            for j in range(i + 1, 3):
                diff = abs(counts[i, j] - counts[j, i])
                se = math.sqrt(counts[i, j] + counts[j, i])
                assert diff < 3 * se


def two_density_mh(log_target, log_proposal, draw_proposal, current, n_steps, rng):
    """Independent-proposal MH that carries the target and proposal log densities apart."""
    x = np.array(current, dtype=np.float64)
    lt = np.asarray(log_target(x), dtype=np.float64)
    lp = np.asarray(log_proposal(x), dtype=np.float64)
    for _ in range(n_steps):
        prop = draw_proposal(rng)
        lt_prop = np.asarray(log_target(prop), dtype=np.float64)
        lp_prop = np.asarray(log_proposal(prop), dtype=np.float64)
        log_ratio = (lt_prop - lp_prop) - (lt - lp)
        accept = np.log(rng.random(log_ratio.shape)) < log_ratio
        x = np.where(accept[..., None], prop, x)
        lt = np.where(accept, lt_prop, lt)
        lp = np.where(accept, lp_prop, lp)
    return x


class TestOneLogWeight:
    """MH on the one log weight (log target - log proposal) moves the chains bit for bit as MH on both densities."""

    def test_three_point_target(self):
        support = np.array([-1.0, 0.0, 1.0])
        log_pi, log_q = np.log([0.5, 0.3, 0.2]), np.log([0.2, 0.3, 0.5])
        n = 100_000
        x = support[np.random.default_rng(30).choice(3, size=n)][:, None]

        def draw_proposal(gen):
            return support[gen.choice(3, size=n, p=np.exp(log_q))][:, None]

        def log_weight(v):
            idx = np.searchsorted(support, v[..., 0])
            return log_pi[idx] - log_q[idx]

        def at(table):
            return lambda v: table[np.searchsorted(support, v[..., 0])]

        for n_steps in (1, 5):
            want = two_density_mh(at(log_pi), at(log_q), draw_proposal, x, n_steps, np.random.default_rng(31))
            got = independent_mh(log_weight, draw_proposal, x, n_steps, np.random.default_rng(31))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_steps", [1, 4])
    def test_gmm_vi_mh_batch(self, n_steps):
        sched = make_schedule("linear", 1000)
        prior = GmmPrior(weights=[0.3, 0.7], means=[[1.0, 1.0], [-1.0, -0.5]], covs=[np.eye(2) * 0.3, np.eye(2) * 0.5])
        lik = LinearGaussianLikelihood(A=[[1.0, 0.5]], y=[0.3], sigma_y=0.3)
        s, t, n = 60, 300, 64
        rng = np.random.default_rng(12)
        x0, xt = rng.standard_normal((n, 2)), rng.standard_normal((n, 2))
        theta = fit(lik, prior, sched, s, t, x0, xt, 5, 0.1, rng)
        current = variational_sample(theta, rng)
        p = sched.bridge_params(s, t)
        m_b = p.mean(x0, xt)
        want = two_density_mh(
            lambda x: log_g_hat(lik, prior, sched, s, x) + gauss_log_density(x, m_b, p.variance),
            lambda x: gauss_log_density(x, theta[0], np.exp(theta[1])),
            lambda gen: theta[0] + np.exp(0.5 * theta[1]) * gen.standard_normal(theta[0].shape),
            current, n_steps, np.random.default_rng(13),
        )
        got = mh(lik, prior, sched, s, t, x0, xt, current, theta, n_steps, np.random.default_rng(13))
        assert np.array_equal(got, want)
        moved = np.any(got != current, axis=-1)
        assert 0 < moved.sum() < n  # both branches of the accept step ran


class TestMhNormalizersOncePerCall:
    """``mh_correct`` takes the proposal's standard deviation and both log-normalizers once per call; it moves the
    chains and computes the log weights bit for bit as the correction that called ``gauss_log_density`` per
    evaluation (``references.mh_correct``)."""

    @staticmethod
    def capture_log_weight(monkeypatch, module, seen):
        run = module.independent_mh
        monkeypatch.setattr(module, "independent_mh", lambda log_weight, *args: seen.append(log_weight) or run(
            log_weight, *args))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("batch", [(), (16,), (3, 8)], ids=["single", "batch16", "batch3x8"])
    @pytest.mark.parametrize("n_steps", [1, 3])
    def test_matches_the_per_evaluation_reference(self, monkeypatch, seed, batch, n_steps):
        import mgdm.vi as vi_mod

        rng = np.random.default_rng([seed, len(batch), n_steps])
        sched = make_schedule("linear", 1000)
        prior = GmmPrior(weights=[0.3, 0.7], means=[[1.0, 1.0], [-1.0, -0.5]], covs=[np.eye(2) * 0.3, np.eye(2) * 0.5])
        lik = LinearGaussianLikelihood(A=[[1.0, 0.5]], y=[0.3], sigma_y=0.3)
        s, t = 60, 300
        x0, xt = rng.standard_normal(batch + (2,)), rng.standard_normal(batch + (2,))
        bridge_mean, bridge_var = bridge(sched, s, t, x0, xt)
        theta = np.array((bridge_mean + 0.1 * rng.standard_normal(bridge_mean.shape),
                          math.log(bridge_var) + 0.3 * rng.standard_normal(bridge_mean.shape)))
        current = variational_sample(theta, rng)
        weights = []
        self.capture_log_weight(monkeypatch, vi_mod, weights)
        self.capture_log_weight(monkeypatch, references, weights)

        def log_potential(x):
            return log_g_hat(lik, prior, sched, s, x)

        got = mh_correct(log_potential, bridge_mean, bridge_var, current, theta, n_steps, np.random.default_rng(seed))
        want = references.mh_correct(log_potential, bridge_mean, bridge_var, current, theta, n_steps,
                                     np.random.default_rng(seed))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        points = variational_sample(theta, rng)
        new_weight, old_weight = (np.asarray(log_weight(points)) for log_weight in weights)
        assert new_weight.shape == batch and new_weight.tobytes() == old_weight.tobytes()

    def test_underflowing_variance_still_raises(self):
        theta = np.array(([0.0, 0.0], [0.0, -800.0]))  # exp(-800) is 0.0
        assert np.exp(theta[1])[1] == 0.0
        for correct in (mh_correct, references.mh_correct):
            with pytest.raises(ValueError, match="variance must be positive"):
                correct(lambda x: np.zeros(np.shape(x)[:-1]), np.zeros(2), 0.5, np.zeros(2), theta, 1,
                        np.random.default_rng(0))

    def test_nan_variance_behaves_as_the_reference(self):
        """NaN passes the ``var <= 0`` check, as in ``gauss_log_density``: NaN log weights reject every move."""
        theta = np.array(([[0.0, 0.0]] * 4, [[0.0, np.nan]] * 4))
        current = np.random.default_rng(1).standard_normal((4, 2))
        runs = [correct(lambda x: np.zeros(np.shape(x)[:-1]), np.zeros(2), 0.5, current, theta, 3,
                        np.random.default_rng(2)) for correct in (mh_correct, references.mh_correct)]
        assert runs[0].tobytes() == runs[1].tobytes() == current.tobytes()
