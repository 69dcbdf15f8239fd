"""Moment-recursion kernels, their identities, and the quadrature engine."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from mgdm.likelihoods import LinearGaussianLikelihood, linearized_potential, quadratic_toy
from mgdm.oracle import (
    GridSpec,
    QuadratureJoint,
    auto_grids,
    build_kernels,
    final_kernel,
    oracle_recursion,
)
from mgdm.priors import GaussianPrior, GmmPrior, exact_posterior, spd_inverse
from mgdm.harness import covariance_se
from mgdm.sampler import IndexDistribution, MgdmConfig, gibbs_step, make_timesteps, mgdm_run_batch
from mgdm.schedule import gauss_log_density, make_schedule
from mgdm.vi import conditional_coefficients, exact_conditional_sample


def instance_2d():
    sched = make_schedule("linear", 1000)
    prior = GaussianPrior(mean=[1.0, -0.5], cov=[[1.0, 0.3], [0.3, 0.7]])
    lik = LinearGaussianLikelihood(A=[[1.0, 0.4], [0.0, 0.8]], y=[2.4, -1.6], sigma_y=0.5)
    return lik, prior, sched


def smoothed(prior, sched, t):
    """The smoothed marginal p_t = N(alpha_t m, alpha_t^2 Sigma + v_t I) of a Gaussian prior."""
    a = sched.alpha(t)
    return GaussianPrior(a * prior.mean, (a * a) * prior.cov + sched.sigma2(0, t) * np.eye(prior.dim))


def instance_1d(sigma_y=0.5):
    sched = make_schedule("linear", 1000)
    prior = GaussianPrior(mean=[0.3], cov=[[0.8]])
    lik = LinearGaussianLikelihood(A=[[1.1]], y=[0.7], sigma_y=sigma_y)
    return lik, prior, sched


def midpoint_sequence(ts):
    return tuple(max(2, ts[i - 2] // 2) for i in range(len(ts), 1, -1))


def kernel(prior, lik, sched, k, tau):
    """The one-repetition kernel (B, b, Gamma) from ``build_kernels`` together with
    the three conditional draws it composes: x_tau ~ N(M x_0 + N x_k + e, lam),
    x_0' ~ N(C x_tau + c, Sigma_c) and x_k' ~ N(D x_tau, Sigma_d)."""
    B, b, Gamma = build_kernels(prior, lik, sched, k=k, tau=tau)
    M, N, e, lam = conditional_coefficients(lik, prior, sched, tau, k)
    C, c = prior.denoiser_affine(sched, tau)
    eye = np.eye(prior.dim)
    return SimpleNamespace(
        lam=lam, M=M, N=N, e=e, C=C, c=c, Sigma_c=prior.posterior_x0_cov(sched, tau),
        D=sched.alpha_ratio(tau, k) * eye, Sigma_d=sched.sigma2(tau, k) * eye, B=B, b=b, Gamma=Gamma,
    )


def completion_of_squares(kern):
    """(psi, gamma_assembled, j_block, k_block): the completion-of-squares
    assembly of a one-repetition kernel, the reference for its direct composition."""
    sc_inv, sd_inv, lam_inv = spd_inverse(kern.Sigma_c), spd_inverse(kern.Sigma_d), spd_inverse(kern.lam)
    C, D = kern.C, kern.D
    psi = spd_inverse(lam_inv + C.T @ sc_inv @ C + D.T @ sd_inv @ D)
    gamma_inv = np.block(
        [
            [sc_inv - sc_inv @ C @ psi @ C.T @ sc_inv, -sc_inv @ C @ psi @ D.T @ sd_inv],
            [-sd_inv @ D @ psi @ C.T @ sc_inv, sd_inv - sd_inv @ D @ psi @ D.T @ sd_inv],
        ]
    )
    zeros = np.zeros_like(C)
    j_block = np.block([[sc_inv @ C @ psi @ lam_inv, zeros], [zeros, sd_inv @ D @ psi @ lam_inv]])
    k_block = np.block([[kern.M, kern.N], [kern.M, kern.N]])
    return psi, spd_inverse(gamma_inv), j_block, k_block


class TestBuildKernels:
    def test_rejects_bad_levels(self):
        lik, prior, sched = instance_2d()
        with pytest.raises(ValueError):
            build_kernels(prior, lik, sched, k=10, tau=0)
        with pytest.raises(ValueError):
            build_kernels(prior, lik, sched, k=10, tau=10)

    def test_rejects_unsupported_models(self):
        lik, prior, sched = instance_2d()
        mix = GmmPrior(weights=[1.0], means=[[0.0, 0.0]], covs=[np.eye(2)])
        with pytest.raises(TypeError):
            build_kernels(mix, lik, sched, k=10, tau=2)
        with pytest.raises(TypeError):
            build_kernels(prior, quadratic_toy(A=np.eye(2), y=[1.0, 1.0], sigma_y=1.0), sched, k=10, tau=2)

    def test_gamma_spd_on_random_instances(self):
        """Cholesky succeeds on Gamma_k for 100 random (tau, k) pairs."""
        lik, prior, sched = instance_2d()
        rng = np.random.default_rng(0)
        for _ in range(100):
            tau = int(rng.integers(2, 500))
            k = int(rng.integers(tau + 1, 1001))
            _, _, gamma = build_kernels(prior, lik, sched, k=k, tau=tau)
            np.linalg.cholesky(gamma)

    def test_assembly_matches_direct_composition(self):
        """The completion-of-squares blocks (Psi, Gamma, J, K) reproduce
        B = Gamma J K, b = [c; d] + Gamma J [e; e], Gamma_k = Gamma."""
        lik, prior, sched = instance_2d()
        rng = np.random.default_rng(1)
        for _ in range(20):
            tau = int(rng.integers(2, 400))
            k = int(rng.integers(tau + 1, 1001))
            kern = kernel(prior, lik, sched, k=k, tau=tau)
            _, gamma_assembled, j_block, k_block = completion_of_squares(kern)
            np.testing.assert_allclose(gamma_assembled, kern.Gamma, atol=1e-8)
            np.testing.assert_allclose(gamma_assembled @ j_block @ k_block, kern.B, atol=1e-8)
            bias = np.concatenate([kern.c, np.zeros(2)])
            bias = bias + gamma_assembled @ j_block @ np.concatenate([kern.e, kern.e])
            np.testing.assert_allclose(bias, kern.b, atol=1e-8)

    def test_flat_potential_limit(self):
        """sigma_y -> inf collapses the conditional to the bridge:
        Lambda -> bridge variance * I and e -> 0."""
        lik, prior, sched = instance_2d()
        flat = LinearGaussianLikelihood(A=lik.A, y=lik.y, sigma_y=1e9)
        tau, k = 120, 700
        kern = kernel(prior, flat, sched, k=k, tau=tau)
        p = sched.bridge_params(tau, k)
        np.testing.assert_allclose(kern.lam, p.variance * np.eye(2), atol=1e-10)
        np.testing.assert_allclose(kern.e, np.zeros(2), atol=1e-10)
        np.testing.assert_allclose(kern.M, p.mean_coeff_x0 * np.eye(2), atol=1e-10)
        np.testing.assert_allclose(kern.N, p.mean_coeff_xt * np.eye(2), atol=1e-10)

    def test_kernel_reproduces_simulated_regression(self):
        """B, Gamma, b match the moment regression of one exact-backend
        Gibbs repetition over 1e6 simulated transitions (3 sigma, block se)."""
        lik, prior, sched = instance_1d()
        tau, k, n = 150, 600, 1_000_000
        rng = np.random.default_rng(7)
        mean_in = np.array([0.4, 0.1])
        cov_in = np.array([[0.9, 0.2], [0.2, 1.3]])
        z = rng.standard_normal((n, 2)) @ np.linalg.cholesky(cov_in).T + mean_in
        cfg = MgdmConfig(timesteps=(100, 1000), conditional="exact", denoise="exact")
        x0, _, xt = gibbs_step(z[:, :1], z[:, 1:], tau, k, lik, prior, sched, cfg, rng)
        zp = np.concatenate([x0, xt], axis=1)
        kern = kernel(prior, lik, sched, k=k, tau=tau)

        blocks = 50
        size = n // blocks
        est_b, est_bias, est_gamma = [], [], []
        for i in range(blocks):
            sl = slice(i * size, (i + 1) * size)
            zi, zpi = z[sl], zp[sl]
            cov_zz = np.cov(zi.T)
            cross = (zpi - zpi.mean(0)).T @ (zi - zi.mean(0)) / (size - 1)
            b_hat = cross @ np.linalg.inv(cov_zz)
            est_b.append(b_hat)
            est_bias.append(zpi.mean(0) - b_hat @ zi.mean(0))
            est_gamma.append(np.cov(zpi.T) - b_hat @ cov_zz @ b_hat.T)
        for name, stack, target in (
            ("B", np.array(est_b), kern.B),
            ("b", np.array(est_bias), kern.b),
            ("Gamma", np.array(est_gamma), kern.Gamma),
        ):
            mean_est = stack.mean(0)
            se = stack.std(0, ddof=1) / math.sqrt(blocks)
            assert np.all(np.abs(mean_est - target) < 3 * se + 1e-9), name

    def test_completion_of_squares_against_quadrature(self):
        """Integrating the mid variable out of the three-factor product
        matches the assembled joint Gaussian pointwise to 1e-8 (1-D)."""
        lik, prior, sched = instance_1d()
        tau, k = 100, 500
        kern = kernel(prior, lik, sched, k=k, tau=tau)
        rng = np.random.default_rng(3)
        z_in = np.array([0.3, -0.2])  # (x0, xk)
        mu_x = kern.M @ z_in[:1] + kern.N @ z_in[1:] + kern.e
        from scipy.special import roots_hermitenorm

        nodes, weights = roots_hermitenorm(301)
        weights = weights / math.sqrt(2 * math.pi)
        x_tau = mu_x[0] + math.sqrt(kern.lam[0, 0]) * nodes
        joint_mean = kern.b + kern.B @ z_in
        joint_cov = kern.Gamma
        chol = np.linalg.cholesky(joint_cov)
        for _ in range(20):
            zp = joint_mean + rng.standard_normal(2) @ chol.T
            log_c = gauss_log_density(zp[:1], kern.C[0, 0] * x_tau[:, None] + kern.c, kern.Sigma_c[0, 0])
            log_d = gauss_log_density(zp[1:], kern.D[0, 0] * x_tau[:, None], kern.Sigma_d[0, 0])
            v = np.log(weights) + log_c + log_d
            peak = v.max()
            integral = peak + np.log(np.sum(np.exp(v - peak)))
            diff = zp - joint_mean
            sol = np.linalg.solve(joint_cov, diff)
            direct = -0.5 * (diff @ sol + 2 * math.log(2 * math.pi) + np.log(np.linalg.det(joint_cov)))
            np.testing.assert_allclose(integral, direct, atol=1e-8)


def random_instance(d, rng):
    """A d-dimensional Gaussian prior with a random eigenbasis, observed through d - 1 (at least one) rows."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    prior = GaussianPrior(mean=rng.standard_normal(d), cov=(q * rng.uniform(0.2, 3.0, d)) @ q.T)
    d_y = max(1, d - 1)
    lik = LinearGaussianLikelihood(A=rng.standard_normal((d_y, d)), y=rng.standard_normal(d_y), sigma_y=0.4)
    return lik, prior


def final_kernel_reference(prior, lik, sched, s, t):
    """(H, h, L) of the denoise final step from its defining formula, with explicit inverses: the
    g0-reweighted bridge t -> s from the plugged x_0 = m_t(x_t), x_s | x_t ~ N(H_u x_t + h_u, L_u),
    pushed through x_0 = m_s(x_s)."""
    eye = np.eye(prior.dim)
    a_mat, y, s2 = lik.A, lik.y, lik.sigma_y**2
    p = sched.bridge_params(s, t)
    jac_t, bias_t = prior.denoiser_affine(sched, t)
    jac_s, bias_s = prior.denoiser_affine(sched, s)
    L_u = spd_inverse(eye / p.variance + a_mat.T @ a_mat / s2)
    H_u = L_u @ ((p.mean_coeff_x0 / p.variance) * jac_t + (p.mean_coeff_xt / p.variance) * eye)
    h_u = L_u @ (a_mat.T @ y / s2 + (p.mean_coeff_x0 / p.variance) * bias_t)
    return jac_s @ H_u, jac_s @ h_u + bias_s, jac_s @ L_u @ jac_s.T


class TestFinalKernels:
    """The denoise final step is the exact conditional at the level-0 potential g0: the oracle's
    (H, h, L) and the sampler's draw both read it."""

    def test_inner_kernel_matches_quadrature(self):
        """x_s | x_t under the g0-reweighted plugged bridge, the level-0 conditional coefficients
        composed with m_t: Gauss-Hermite moments match them to 1e-8 (times (1, 2))."""
        lik, prior, sched = instance_1d()
        M, N, e, lam = conditional_coefficients(lik, prior, sched, 1, 2, level=0)
        from scipy.special import roots_hermitenorm

        nodes, weights = roots_hermitenorm(301)
        weights = weights / math.sqrt(2 * math.pi)
        p = sched.bridge_params(1, 2)
        for x_t in (-0.7, 0.4, 1.5):
            m2 = prior.denoise(sched, 2, np.array([x_t])).value
            mean_b = p.mean_coeff_x0 * m2[0] + p.mean_coeff_xt * x_t
            xs = mean_b + math.sqrt(p.variance) * nodes
            logw = np.log(weights) + lik.log_g0(xs[:, None])
            w = np.exp(logw - logw.max())
            w /= w.sum()
            q_mean = float(np.sum(w * xs))
            q_var = float(np.sum(w * xs**2)) - q_mean**2
            np.testing.assert_allclose((M @ m2 + N @ [x_t] + e)[0], q_mean, atol=1e-8)
            np.testing.assert_allclose(lam[0, 0], q_var, atol=1e-8)

    def test_outer_kernel_is_denoiser_pushforward(self):
        """The sampler's final draw, m_s of the level-0 conditional draw from the plugged m_t(x_t), is
        x_t H^T + h + eps R^T with eps the generator's normals and R R^T = L.  In 3-D the eigenbasis W
        is not symmetric, so a transposed noise root shows (in 2-D eigh may return a symmetric W)."""
        sched = make_schedule("linear", 1000)
        rng = np.random.default_rng(4)
        lik, prior = random_instance(3, rng)
        xt = rng.standard_normal((40, 3))
        for s, t in ((1, 2), (3, 40), (10, 200)):
            H, h, L = final_kernel(prior, lik, sched, s, t)
            x_plug = prior.denoise(sched, t, xt).value
            xs = exact_conditional_sample(lik, prior, sched, s, t, x_plug, xt, np.random.default_rng(9), level=0)
            noise = prior.denoise(sched, s, xs).value - (xt @ H.T + h)
            eps = np.random.default_rng(9).standard_normal(xt.shape)
            root = np.linalg.lstsq(eps, noise, rcond=None)[0].T
            np.testing.assert_allclose(eps @ root.T, noise, rtol=0, atol=1e-12)
            np.testing.assert_allclose(root @ root.T, L, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("family", ["linear", "cosine"])
    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_matches_reference_formula(self, d, family):
        """``final_kernel`` equals the explicit-inverse formula to 1e-12 relative."""
        sched = make_schedule(family, 1000)
        lik, prior = random_instance(d, np.random.default_rng(d))
        for s, t in ((1, 2), (1, 40), (3, 40), (10, 200)):
            for got, ref in zip(final_kernel(prior, lik, sched, s, t), final_kernel_reference(prior, lik, sched, s, t)):
                assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref), (s, t)


class TestOracleRecursion:
    def test_validation(self):
        """The oracle replays only a fixed sequence, with the sampler's own checks on it."""
        lik, prior, sched = instance_2d()

        def config(timesteps, index_dist):
            return MgdmConfig(timesteps=timesteps, conditional="exact", denoise="exact", index_dist=index_dist)

        cases = [(config((10, 1000), IndexDistribution(kind="fixed-midpoint")), "replays a fixed index sequence"),
                 (config((10, 1000), IndexDistribution(kind="fixed", values=(2, 3))), "needs 1 entries, got 2"),
                 (config((10, 1000), IndexDistribution(kind="fixed", values=(1000,))), "draws s=1000 outside"),
                 (config((10, 1000), IndexDistribution(kind="fixed", values=(0,))), "draws s=0 outside"),
                 (config((10, 500), IndexDistribution(kind="fixed", values=(5,))), "t_K=500 must equal")]
        for cfg, message in cases:
            with pytest.raises(ValueError, match=message):
                oracle_recursion(prior, lik, sched, cfg)

    def test_matches_simulation_moments(self):
        """Exact-backend driver replications agree with the recursion
        within Monte Carlo error (quick form of the flagship check)."""
        lik, prior, sched = instance_2d()
        from mgdm.sampler import make_timesteps

        ts = make_timesteps(10, 1000)
        seq = midpoint_sequence(ts)
        cfg = MgdmConfig(timesteps=ts, R=2, conditional="exact", denoise="exact",
                         index_dist=IndexDistribution(kind="fixed", values=seq))
        n = 30_000
        samples = mgdm_run_batch(lik, prior, sched, cfg, n, np.random.default_rng(19))
        om = oracle_recursion(prior, lik, sched, cfg)
        z = (samples.mean(0) - om.mean) / np.sqrt(np.diag(om.cov) / n)
        assert np.all(np.abs(z) < 4.0)
        emp_cov = np.cov(samples.T)
        se = np.sqrt(np.outer(np.diag(om.cov), np.diag(om.cov)) * 2.0 / n)
        assert np.all(np.abs(emp_cov - om.cov) < 4.0 * se)

    def test_matches_simulation_at_level_one(self):
        """tau = 1, the smallest level the near-zero index draws, is an
        oracle step like any other: sampler and recursion agree there."""
        lik, prior, sched = instance_2d()
        from mgdm.sampler import make_timesteps

        ts = make_timesteps(10, 1000)
        seq = (1,) * (len(ts) - 1)
        cfg = MgdmConfig(timesteps=ts, R=2, conditional="exact", denoise="exact",
                         index_dist=IndexDistribution(kind="fixed", values=seq))
        n = 30_000
        samples = mgdm_run_batch(lik, prior, sched, cfg, n, np.random.default_rng(23))
        om = oracle_recursion(prior, lik, sched, cfg)
        z = (samples.mean(0) - om.mean) / np.sqrt(np.diag(om.cov) / n)
        assert np.all(np.abs(z) < 4.0)
        emp_cov = np.cov(samples.T)
        se = np.sqrt(np.outer(np.diag(om.cov), np.diag(om.cov)) * 2.0 / n)
        assert np.all(np.abs(emp_cov - om.cov) < 4.0 * se)

    def test_replays_recorded_random_index_sequence(self):
        """Draw the levels of a seeded uniform-mix run, then
        replay them through the recursion: moments still agree."""
        lik, prior, sched = instance_2d()
        from mgdm.sampler import make_timesteps

        ts = make_timesteps(10, 1000)
        probe = MgdmConfig(timesteps=ts, R=1, conditional="exact", denoise="exact",
                           index_dist=IndexDistribution(kind="uniform-mix", tau=10))
        seq = tuple(max(2, v) for v in probe.draw_levels(np.random.default_rng(55)))
        cfg = MgdmConfig(timesteps=ts, R=1, conditional="exact", denoise="exact",
                         index_dist=IndexDistribution(kind="fixed", values=seq))
        n = 30_000
        samples = mgdm_run_batch(lik, prior, sched, cfg, n, np.random.default_rng(56))
        om = oracle_recursion(prior, lik, sched, cfg)
        z = (samples.mean(0) - om.mean) / np.sqrt(np.diag(om.cov) / n)
        assert np.all(np.abs(z) < 4.0)

    def test_matches_simulation_in_denoise_final_mode(self):
        """The denoiser-valued final kernel agrees between driver and
        recursion when both are configured to use it."""
        lik, prior, sched = instance_1d()
        from mgdm.sampler import make_timesteps

        ts = (2,) + tuple(make_timesteps(8, 1000, t1=120))
        seq = midpoint_sequence(ts)
        cfg = MgdmConfig(timesteps=ts, R=2, conditional="exact", denoise="exact",
                         index_dist=IndexDistribution(kind="fixed", values=seq),
                         final="denoise", final_s=1)
        n = 30_000
        samples = mgdm_run_batch(lik, prior, sched, cfg, n, np.random.default_rng(23))
        om = oracle_recursion(prior, lik, sched, cfg)
        z = (samples.mean(0) - om.mean) / np.sqrt(np.diag(om.cov) / n)
        assert np.all(np.abs(z) < 4.0)
        assert abs(np.var(samples[:, 0]) / om.cov[0, 0] - 1.0) < 0.05

    @pytest.mark.parametrize("final_s", [1, 40])
    def test_matches_simulation_in_denoise_final_mode_2d(self, final_s):
        """Criterion 5 with the denoise final step: 10^4 chains match the recursion within 3 of
        criterion 5's standard errors, at the default final_s = 1 and at final_s = 40, half of t_2 = 80,
        where the final bridge is wide.  Plugging the running x_0 in place of m_{t_2}(x_t) fails both."""
        lik, prior, sched = instance_2d()
        ts = make_timesteps(25, 1000)
        cfg = MgdmConfig(timesteps=ts, R=4, conditional="exact", denoise="exact",
                         index_dist=IndexDistribution(kind="fixed", values=midpoint_sequence(ts)),
                         final="denoise", final_s=final_s)
        n = 10_000
        samples = mgdm_run_batch(lik, prior, sched, cfg, n, np.random.default_rng(1907))
        om = oracle_recursion(prior, lik, sched, cfg)
        z_mean = (samples.mean(axis=0) - om.mean) / np.sqrt(np.diag(om.cov) / n)
        z_cov = (np.cov(samples.T) - om.cov) / covariance_se(om.cov, n)
        assert np.all(np.abs(z_mean) < 3.0) and np.all(np.abs(z_cov) < 3.0), (z_mean, z_cov)

    @pytest.mark.parametrize("M", [1, 5])
    def test_matches_simulation_with_ddpm_denoise(self, M):
        """Exact conditional + M-step DDPM denoise on the criterion-5 instance: 10^4 chains match
        the recursion, which models the DDPM pass, within 3 of criterion 5's standard errors."""
        lik, prior, sched = instance_2d()
        ts = make_timesteps(25, 1000)
        cfg = MgdmConfig(timesteps=ts, R=4, M=M, conditional="exact", denoise="ddpm",
                         index_dist=IndexDistribution(kind="fixed", values=midpoint_sequence(ts)))
        n = 10_000
        samples = mgdm_run_batch(lik, prior, sched, cfg, n, np.random.default_rng(1905))
        om = oracle_recursion(prior, lik, sched, cfg)
        z_mean = (samples.mean(axis=0) - om.mean) / np.sqrt(np.diag(om.cov) / n)
        z_cov = (np.cov(samples.T) - om.cov) / covariance_se(om.cov, n)
        assert np.all(np.abs(z_mean) < 3.0) and np.all(np.abs(z_cov) < 3.0), (z_mean, z_cov)
        # The exact-draw law lies many standard errors away, so the match tells the two apart.
        exact = oracle_recursion(prior, lik, sched, MgdmConfig(
            timesteps=ts, R=4, conditional="exact", denoise="exact", index_dist=cfg.index_dist))
        assert np.max(np.abs(exact.cov - om.cov) / covariance_se(om.cov, n)) > 10.0

    def test_large_R_converges_to_posterior(self):
        """R = 200 on a fine-tailed grid: oracle moments within 1e-2
        relative Frobenius error of the conjugate posterior.  The floor is
        the tau = 2 backward-noise term, so the grid tail must be fine."""
        lik, prior, sched = instance_2d()
        post = exact_posterior(prior, lik)
        from mgdm.sampler import make_timesteps

        ts = make_timesteps(50, 1000, t1=4)
        seq = midpoint_sequence(ts)
        om = oracle_recursion(prior, lik, sched, MgdmConfig(
            timesteps=ts, R=200, conditional="exact", denoise="exact",
            index_dist=IndexDistribution(kind="fixed", values=seq)
        ))
        rel_mean = np.linalg.norm(om.mean - post.mean) / np.linalg.norm(post.mean)
        rel_cov = np.linalg.norm(om.cov - post.cov) / np.linalg.norm(post.cov)
        assert rel_mean < 1e-2
        assert rel_cov < 1e-2

    def test_posterior_gap_nonincreasing_in_R(self):
        lik, prior, sched = instance_2d()
        post = exact_posterior(prior, lik)
        from mgdm.sampler import make_timesteps

        ts = make_timesteps(25, 1000)
        seq = midpoint_sequence(ts)
        gaps = []
        for r_val in (1, 4):
            om = oracle_recursion(prior, lik, sched, MgdmConfig(
                timesteps=ts, R=r_val, conditional="exact", denoise="exact",
                index_dist=IndexDistribution(kind="fixed", values=seq)
            ))
            gaps.append(np.linalg.norm(om.cov - post.cov))
        assert gaps[1] <= gaps[0]

    def test_flat_potential_reduces_to_prior_only_recursion(self):
        """sigma_y -> inf: the output law equals an independently coded
        potential-free recursion (bridge conditional, exact denoising)."""
        lik, prior, sched = instance_2d()
        flat = LinearGaussianLikelihood(A=lik.A, y=lik.y, sigma_y=1e10)
        from mgdm.sampler import make_timesteps

        ts = make_timesteps(12, 1000)
        seq = midpoint_sequence(ts)
        R = 3
        om = oracle_recursion(prior, flat, sched, MgdmConfig(
            timesteps=ts, R=R, conditional="exact", denoise="exact",
            index_dist=IndexDistribution(kind="fixed", values=seq)
        ))

        d = prior.dim
        eye = np.eye(d)
        jac_n, bias_n = prior.denoiser_affine(sched, ts[-1])
        mean = np.concatenate([bias_n, np.zeros(d)])
        cov = np.block([[jac_n @ jac_n.T, jac_n], [jac_n.T, eye]])
        K = len(ts)
        for i in range(K, 1, -1):
            t_i = ts[i - 1]
            tau = seq[K - i]
            if i < K:
                p = sched.bridge_params(t_i, ts[i])
                f_mat = np.block([[eye, np.zeros((d, d))], [p.mean_coeff_x0 * eye, p.mean_coeff_xt * eye]])
                mean = f_mat @ mean
                cov = f_mat @ cov @ f_mat.T
                cov[d:, d:] += p.variance * eye
            pb = sched.bridge_params(tau, t_i)
            c_mat, c_bias = prior.denoiser_affine(sched, tau)
            sigma_c = prior.posterior_x0_cov(sched, tau)
            ratio = sched.alpha_ratio(tau, t_i)
            big_b = np.block(
                [
                    [pb.mean_coeff_x0 * c_mat, pb.mean_coeff_xt * c_mat],
                    [pb.mean_coeff_x0 * ratio * eye, pb.mean_coeff_xt * ratio * eye],
                ]
            )
            big_bias = np.concatenate([c_bias, np.zeros(d)])
            lam = pb.variance * eye
            gam = np.block(
                [
                    [c_mat @ lam @ c_mat.T + sigma_c, ratio * c_mat @ lam],
                    [ratio * lam @ c_mat.T, ratio**2 * lam + sched.sigma2(tau, t_i) * eye],
                ]
            )
            for _ in range(R):
                mean = big_bias + big_b @ mean
                cov = big_b @ cov @ big_b.T + gam
        np.testing.assert_allclose(om.mean, mean[:d], atol=1e-8)
        np.testing.assert_allclose(om.cov, cov[:d, :d], atol=1e-8)


class TestQuadratureJoint:
    def test_rejects_multivariate(self):
        lik, prior, sched = instance_2d()
        grids = (GridSpec(-5, 5), GridSpec(-5, 5), GridSpec(-5, 5))
        with pytest.raises(ValueError):
            QuadratureJoint(lik, prior, sched, 100, 500, grids)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            GridSpec(-5, 5, n=128)

    def test_marginal_moments_match_analytic(self):
        """All three grid marginals match the closed-form Gaussian moments
        of the extended target to 1e-6."""
        lik, prior, sched = instance_1d()
        s, t = 60, 400
        joint = QuadratureJoint(lik, prior, sched, s, t, auto_grids(lik, prior, sched, s, t, n=1024))

        a_hat, offset = linearized_potential(lik, prior, sched, s)
        p_s = smoothed(prior, sched, s)
        mean_s, cov_s = p_s.mean, p_s.cov
        prec = np.linalg.inv(cov_s) + a_hat.T @ a_hat / lik.sigma_y**2
        var_s = 1.0 / prec[0, 0]
        m_s = var_s * (mean_s[0] / cov_s[0, 0] + (a_hat[0, 0] * (lik.y[0] - offset[0])) / lik.sigma_y**2)

        gain = sched.alpha(s) * prior.cov[0, 0] / cov_s[0, 0]  # p_{0|s} = N(gain x_s + keep m, keep Sigma)
        keep = 1.0 - gain * sched.alpha(s)
        m_0 = gain * m_s + keep * prior.mean[0]
        var_x0 = gain**2 * var_s + keep * prior.cov[0, 0]
        ratio = sched.alpha_ratio(s, t)
        m_t = ratio * m_s
        var_t = ratio**2 * var_s + sched.sigma2(s, t)

        for axis, m_ref, v_ref in (("x0", m_0, var_x0), ("xs", m_s, var_s), ("xt", m_t, var_t)):
            m_grid, v_grid = joint.moments(axis)
            np.testing.assert_allclose(m_grid, m_ref, atol=1e-6)
            np.testing.assert_allclose(v_grid, v_ref, atol=1e-6)

    def test_gmm_prior_supported(self):
        prior = GmmPrior(weights=[0.5, 0.5], means=[[-1.0], [1.0]], covs=[[[0.3]], [[0.3]]])
        lik = LinearGaussianLikelihood(A=[[1.0]], y=[0.4], sigma_y=0.3)
        sched = make_schedule("linear", 1000)
        grids = (GridSpec(-6, 6, 768),) * 3
        joint = QuadratureJoint(lik, prior, sched, 60, 400, grids)
        for axis in ("x0", "xs", "xt"):
            np.testing.assert_allclose(np.sum(joint.grids[axis].weights * joint.marginal(axis)[1]), 1.0, atol=1e-6)

    def test_flat_potential_xt_marginal_is_smoothed_prior(self):
        lik, prior, sched = instance_1d(sigma_y=1e8)
        s, t = 60, 400
        joint = QuadratureJoint(lik, prior, sched, s, t, auto_grids(lik, prior, sched, s, t, n=1024))
        pts, dens = joint.marginal("xt")
        ref = np.exp(smoothed(prior, sched, t).log_density(pts[:, None]))
        np.testing.assert_allclose(dens, ref, atol=1e-8)
