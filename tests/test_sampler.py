"""Index sampling, the inner DDPM denoiser, Gibbs sweeps, and the drivers."""

import numpy as np
import pytest

from mgdm.likelihoods import LinearGaussianLikelihood
from mgdm.metrics import SampleSet, sliced_wasserstein2
from mgdm.oracle import GridSpec, auto_grids, quadrature_joint
from mgdm.priors import GaussianPrior, exact_posterior
from mgdm.sampler import (
    GibbsState,
    IndexDistribution,
    MgdmConfig,
    ViPhaseSchedule,
    ddpm_denoise,
    dps_run,
    gibbs_step,
    make_timesteps,
    mgdm_run,
    mgdm_run_batch,
    sample_index,
)
from mgdm.schedule import make_schedule


def problem_1d(sigma_y=0.5):
    sched = make_schedule("linear", 1000)
    prior = GaussianPrior(mean=[0.3], cov=[[0.8]])
    lik = LinearGaussianLikelihood(A=[[1.1]], y=[0.7], sigma_y=sigma_y)
    return lik, prior, sched


class TestSampleIndex:
    def test_uniform_mix_late_phase_is_deterministic(self):
        dist = IndexDistribution(kind="uniform-mix", tau=10)
        rng = np.random.default_rng(0)
        for i in (2, 10, 25):
            assert sample_index(dist, i, 300, 290, 100, rng) == 290

    def test_uniform_mix_singleton_support(self):
        dist = IndexDistribution(kind="uniform-mix", tau=10)
        rng = np.random.default_rng(1)
        draws = {sample_index(dist, 80, 20, 10, 100, rng) for _ in range(50)}
        assert draws == {10}

    def test_uniform_mix_range(self):
        dist = IndexDistribution(kind="uniform-mix", tau=10)
        rng = np.random.default_rng(2)
        draws = [sample_index(dist, 80, 500, 480, 100, rng) for _ in range(500)]
        assert min(draws) >= 10 and max(draws) <= 480
        assert len(set(draws)) > 100

    def test_uniform_mix_rejects_small_t_prev(self):
        dist = IndexDistribution(kind="uniform-mix", tau=10)
        with pytest.raises(ValueError):
            sample_index(dist, 80, 12, 8, 100, np.random.default_rng(0))

    def test_explicit_degenerate_weights(self):
        t_i = 12
        weights = [0.0] * (t_i - 2) + [1.0]
        dist = IndexDistribution(kind="explicit", weights=tuple(weights))
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert sample_index(dist, 5, t_i, 11, 10, rng) == t_i - 1

    def test_near_zero_range(self):
        dist = IndexDistribution(kind="near-zero")
        rng = np.random.default_rng(4)
        draws = [sample_index(dist, 9, 200, 180, 10, rng) for _ in range(300)]
        assert min(draws) >= 1 and max(draws) <= 40

    def test_fixed_midpoint(self):
        dist = IndexDistribution(kind="fixed-midpoint")
        assert sample_index(dist, 7, 300, 280, 10, np.random.default_rng(0)) == 140

    def test_fixed_sequence_lookup(self):
        dist = IndexDistribution(kind="fixed", values=(7, 5, 3))
        assert sample_index(dist, 4, 0, 0, 4, np.random.default_rng(0)) == 7
        assert sample_index(dist, 2, 0, 0, 4, np.random.default_rng(0)) == 3


class TestDdpmDenoise:
    def test_single_step_collapses_to_denoiser(self):
        lik, prior, sched = problem_1d()
        x_s = np.array([0.9])
        out = ddpm_denoise(prior, sched, x_s, 400, 1, np.random.default_rng(0))
        np.testing.assert_allclose(out, prior.denoise(sched, 400, x_s).value, atol=1e-14)

    def test_mean_matches_exact_denoiser(self):
        """The plugged-bridge chain has exactly the conditional mean
        E[X_0 | x_s] for a Gaussian prior, at any M."""
        _, prior, sched = problem_1d()
        n, s = 100_000, 600
        x_s = np.full((n, 1), 0.8)
        rng = np.random.default_rng(10)
        out = ddpm_denoise(prior, sched, x_s, s, 8, rng)
        target = prior.denoise(sched, s, np.array([0.8])).value[0]
        se = out.std() / np.sqrt(n)
        assert abs(out.mean() - target) < 4 * se

    def test_point_mass_prior_ignores_input(self):
        sched = make_schedule("linear", 100)
        prior = GaussianPrior(mean=[0.7], cov=[[1e-12]])
        rng = np.random.default_rng(1)
        for m in (1, 3, 7):
            out = ddpm_denoise(prior, sched, np.array([2.5]), 60, m, rng)
            np.testing.assert_allclose(out, [0.7], atol=1e-7)

    def test_rejections(self):
        _, prior, sched = problem_1d()
        with pytest.raises(ValueError):
            ddpm_denoise(prior, sched, np.zeros(1), 10, 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ddpm_denoise(prior, sched, np.zeros(1), 0, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ddpm_denoise(prior, sched, np.zeros(1), sched.T + 1, 5, np.random.default_rng(0))

    def test_substep_grid_matches_linspace_rule(self):
        sched = make_schedule("linear", 1000)
        for M in range(1, 51):
            for s in range(0, 1001):
                want = np.unique(np.round(np.linspace(0, s, M + 1)).astype(int))
                assert sched.substep_grid(s, M) == tuple(want.tolist()), (s, M)

    def test_substep_grid_memo_is_read_only_bounded_and_per_schedule(self):
        _, prior, sched = problem_1d()
        other = make_schedule("linear", 50)
        for _ in range(2):
            for s in range(1, sched.T + 1):
                ddpm_denoise(prior, sched, np.zeros(1), s, 7, np.random.default_rng(s))
        memo_m, grids = sched._grids
        assert memo_m == 7 and sorted(grids) == list(range(1, sched.T + 1))
        assert all(isinstance(grid, tuple) for grid in grids.values())
        assert other._grids == (0, {})
        ddpm_denoise(prior, sched, np.zeros(1), 40, 3, np.random.default_rng(0))
        assert sched._grids == (3, {40: sched.substep_grid(40, 3)})


def exact_joint_draws(lik, prior, sched, s, t, n, rng):
    """Draws from pibar(x_0, x_s, x_t): inverse-CDF on the quadrature
    x_s-marginal, then the exact Gaussian conditionals."""
    joint = quadrature_joint(lik, prior, sched, s, t, auto_grids(lik, prior, sched, s, t, n=1024))
    pts, dens = joint.marginal("xs")
    cdf = np.cumsum(dens * joint.grids["xs"].weights)
    cdf /= cdf[-1]
    xs = np.interp(rng.random(n), cdf, pts)[:, None]
    x0 = prior.backward_sample(sched, 0, s, xs, rng)
    xt = sched.forward_sample(xs, s, t, rng)
    return x0, xs, xt, joint


class TestGibbsStep:
    def test_levels_unchanged_and_shapes(self):
        lik, prior, sched = problem_1d()
        cfg = MgdmConfig(timesteps=(100, 1000), conditional="exact", denoise="exact")
        state = GibbsState(x0=np.zeros(1), xs=np.zeros(1), xt=np.ones(1), s=100, t=600)
        out = gibbs_step(state, lik, prior, sched, cfg, np.random.default_rng(0))
        assert (out.s, out.t) == (100, 600)
        assert out.x0.shape == out.xs.shape == out.xt.shape == (1,)

    @pytest.mark.parametrize("backend", ["vi", "vi-mh"])
    def test_vi_backend_needs_resolved_vi_config(self, backend):
        """Only the outer loop maps the phase schedule to a ViConfig; a VI sweep without one is refused."""
        lik, prior, sched = problem_1d()
        cfg = MgdmConfig(timesteps=(100, 1000), conditional=backend, mh_steps=1)
        state = GibbsState(x0=np.zeros(1), xs=np.zeros(1), xt=np.ones(1), s=100, t=600)
        with pytest.raises(ValueError, match=f"the '{backend}' conditional backend needs vi_config"):
            gibbs_step(state, lik, prior, sched, cfg, np.random.default_rng(0))

    def test_exact_sweep_preserves_quadrature_marginals(self):
        """One sweep from exact-joint draws keeps all three marginals
        within W1 < 0.02 of the quadrature marginals (1e5 chains)."""
        lik, prior, sched = problem_1d()
        s, t, n = 60, 400, 100_000
        rng = np.random.default_rng(44)
        x0, xs, xt, joint = exact_joint_draws(lik, prior, sched, s, t, n, rng)
        cfg = MgdmConfig(timesteps=(100, 1000), conditional="exact", denoise="exact")
        state = GibbsState(x0=x0, xs=xs, xt=xt, s=s, t=t)
        out = gibbs_step(state, lik, prior, sched, cfg, rng)
        u = (np.arange(n) + 0.5) / n
        for axis, arr in (("x0", out.x0), ("xs", out.xs), ("xt", out.xt)):
            pts, dens = joint.marginal(axis)
            cdf = np.cumsum(dens * joint.grids[axis].weights)
            cdf /= cdf[-1]
            ref = np.interp(u, cdf, pts)
            w1 = np.mean(np.abs(np.sort(arr[:, 0]) - ref))
            assert w1 < 0.02, axis

    def test_flat_potential_keeps_prior_xt_marginal(self):
        """sigma_y = 1e6: the stationary x_t marginal is the smoothed prior."""
        lik, prior, sched = problem_1d(sigma_y=1e6)
        s, t, n = 60, 400, 100_000
        rng = np.random.default_rng(45)
        x0 = prior.sample(n, rng)
        xs = sched.forward_sample(x0, 0, s, rng)
        xt = sched.forward_sample(xs, s, t, rng)
        cfg = MgdmConfig(timesteps=(100, 1000), conditional="exact", denoise="exact")
        state = GibbsState(x0=x0, xs=xs, xt=xt, s=s, t=t)
        out = gibbs_step(state, lik, prior, sched, cfg, rng)
        mean_t, cov_t = prior.marginal_moments(sched, t)
        se_mean = np.sqrt(cov_t[0, 0] / n)
        assert abs(out.xt.mean() - mean_t[0]) < 4 * se_mean
        assert abs(out.xt.var() / cov_t[0, 0] - 1.0) < 0.02


class TestQuadratureInvariants:
    def test_xt_marginal_equals_smoothed_mixture_component(self):
        """The x_t-marginal of the extended target equals the propagated
        potential times the smoothed prior, renormalized (rel err < 1e-6)."""
        lik, prior, sched = problem_1d()
        s, t = 60, 400
        grids = auto_grids(lik, prior, sched, s, t, n=1024)
        joint = quadrature_joint(lik, prior, sched, s, t, grids)
        pts_t, dens_t = joint.marginal("xt")

        # ghat_t^s(x_t) = int ghat_s(x_s) p_{s|t}(x_s | x_t) dx_s
        from mgdm.likelihoods import log_g_hat
        from mgdm.schedule import gauss_log_density

        gain, const, var = prior.backward_moments(sched, s, t)
        xs_pts = grids[1].points
        log_pot_s = log_g_hat(lik, prior, sched, s, xs_pts[:, None]).log_value
        w_s = grids[1].weights
        log_ghat_ts = np.empty(pts_t.size)
        for k, x_t in enumerate(pts_t):
            cond_mean = gain[0, 0] * x_t + const[0]
            log_back = gauss_log_density(xs_pts[:, None], np.array([cond_mean]), var[0, 0])
            v = np.log(w_s) + log_back + log_pot_s
            peak = v.max()
            log_ghat_ts[k] = peak + np.log(np.sum(np.exp(v - peak)))
        log_pt = prior.marginal_log_density(sched, t, pts_t[:, None])
        target = np.exp(log_ghat_ts + log_pt)
        target /= np.sum(target * grids[2].weights)
        mask = dens_t > dens_t.max() * 1e-9
        rel = np.abs(target[mask] - dens_t[mask]) / dens_t[mask]
        assert rel.max() < 1e-6

    def test_last_step_x0_marginal_close_to_posterior(self):
        """pibar_{0,1,2} on a near-zero-noise schedule: TV(x0-marginal,
        posterior) < 0.01."""
        sched = make_schedule("linear", 2000)
        prior = GaussianPrior(mean=[0.3], cov=[[0.8]])
        lik = LinearGaussianLikelihood(A=[[1.1]], y=[0.7], sigma_y=0.5)
        post = exact_posterior(prior, lik)
        grids = auto_grids(lik, prior, sched, 1, 2, n=2048)
        joint = quadrature_joint(lik, prior, sched, 1, 2, grids)
        pts, dens = joint.marginal("x0")
        post_dens = np.exp(post.log_density(pts[:, None]))
        tv = 0.5 * np.sum(np.abs(dens - post_dens) * joint.grids["x0"].weights)
        assert tv < 0.01


class TestConfig:
    def test_rejects_bad_timesteps(self):
        for ts in ((1, 10), (10,), (10, 10), (20, 10)):
            with pytest.raises(ValueError):
                MgdmConfig(timesteps=ts)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            MgdmConfig(timesteps=(10, 100), R=0)
        with pytest.raises(ValueError):
            MgdmConfig(timesteps=(10, 100), M=0)

    def test_rejects_unknown_backends(self):
        with pytest.raises(ValueError):
            MgdmConfig(timesteps=(10, 100), conditional="magic")
        with pytest.raises(ValueError):
            MgdmConfig(timesteps=(10, 100), denoise="magic")

    def test_vi_mh_needs_steps(self):
        with pytest.raises(ValueError):
            MgdmConfig(timesteps=(10, 100), conditional="vi-mh", mh_steps=0)

    def test_horizon_mismatch_detected(self):
        lik, prior, sched = problem_1d()
        cfg = MgdmConfig(timesteps=(10, 500), conditional="exact", denoise="exact")
        with pytest.raises(ValueError):
            mgdm_run(lik, prior, sched, cfg, np.random.default_rng(0))

    def test_make_timesteps(self):
        ts = make_timesteps(25, 1000)
        assert len(ts) == 25 and ts[-1] == 1000 and ts[0] >= 2
        assert all(b > a for a, b in zip(ts, ts[1:]))
        with pytest.raises(ValueError):
            make_timesteps(50, 30)

    def test_phase_schedule_resolution(self):
        vi = ViPhaseSchedule()
        K = 100
        assert vi.resolve(90, K).learning_rate == 0.01
        assert vi.resolve(50, K).learning_rate == 0.03
        assert vi.resolve(10, K).steps == 20
        assert vi.resolve(50, K).steps == 5

    @pytest.mark.parametrize("field,value,message", [
        ("steps", -1, "^steps must be >= 0$"),
        ("steps_late", -1, "^steps_late must be >= 0$"),
        ("eta_early", 0.0, "^eta_early must be positive$"),
        ("eta", -0.1, "^eta must be positive$"),
    ], ids=["steps", "steps-late", "eta-early", "eta"])
    def test_phase_schedule_rejects_bad_budgets_at_construction(self, field, value, message):
        """Both phases' settings are checked when the schedule is built, not when a step resolves them."""
        with pytest.raises(ValueError, match=message):
            ViPhaseSchedule(**{field: value})


class TestMgdmRun:
    def test_deterministic_given_seed(self):
        lik, prior, sched = problem_1d()
        cfg = MgdmConfig(timesteps=make_timesteps(10, 1000), R=2, M=4,
                         index_dist=IndexDistribution(kind="uniform-mix", tau=10))
        a = mgdm_run(lik, prior, sched, cfg, np.random.default_rng(123))
        b = mgdm_run(lik, prior, sched, cfg, np.random.default_rng(123))
        np.testing.assert_array_equal(a, b)

    def test_records_one_index_per_outer_step(self, monkeypatch):
        """The run sweeps once per outer step at one level 1 <= s < t_i, as many as draw_levels draws."""
        import mgdm.sampler as sampler_mod

        lik, prior, sched = problem_1d()
        cfg = MgdmConfig(timesteps=make_timesteps(10, 1000), M=4)
        levels = []
        sweep = sampler_mod.gibbs_step

        def recording(state, *args, **kwargs):
            levels.append((state.s, state.t))
            return sweep(state, *args, **kwargs)

        monkeypatch.setattr(sampler_mod, "gibbs_step", recording)
        mgdm_run(lik, prior, sched, cfg, np.random.default_rng(5))
        assert [t for _, t in levels] == list(cfg.timesteps[:0:-1])
        assert len(levels) == len(cfg.draw_levels(np.random.default_rng(5))) == 9
        assert all(1 <= s < t for s, t in levels)

    def test_uninformative_limit_recovers_prior(self):
        lik, prior, sched = problem_1d(sigma_y=1e6)
        ts = make_timesteps(25, 1000)
        seq = tuple(max(2, ts[i - 2] // 2) for i in range(25, 1, -1))
        cfg = MgdmConfig(timesteps=ts, R=2, conditional="exact", denoise="exact",
                         index_dist=IndexDistribution(kind="fixed", values=seq))
        samples = mgdm_run_batch(lik, prior, sched, cfg, 4000, np.random.default_rng(31))
        ref = prior.sample(4000, np.random.default_rng(32))
        sw = sliced_wasserstein2(SampleSet(samples), SampleSet(ref), n_projections=64,
                                 rng=np.random.default_rng(2))
        assert sw < 0.1

    def test_vi_backend_runs_and_is_finite(self):
        lik, prior, sched = problem_1d()
        cfg = MgdmConfig(timesteps=make_timesteps(8, 1000), M=4,
                         vi=ViPhaseSchedule.constant(0.02, 3))
        out = mgdm_run(lik, prior, sched, cfg, np.random.default_rng(9))
        assert out.shape == (1,) and np.isfinite(out).all()

    def test_non_finite_state_names_outer_step(self, monkeypatch):
        """NaN from the denoiser at one level stops the run at the outer step that uses it."""
        from mgdm.priors import DenoiserOutput
        from mgdm.sampler import NonFiniteStateError

        lik, prior, sched = problem_1d()
        ts = make_timesteps(6, 1000)
        levels = (400, 300, 150, 77, 40)  # outer steps i = 6 .. 2; M = 1 denoises at s only
        cfg = MgdmConfig(timesteps=ts, M=1, index_dist=IndexDistribution(kind="fixed", values=levels))
        denoise = GaussianPrior.denoise

        def poisoned(self, schedule, t, x_t):
            out = denoise(self, schedule, t, x_t)
            return DenoiserOutput(np.full_like(out.value, np.nan), out.vjp) if t == 77 else out

        monkeypatch.setattr(GaussianPrior, "denoise", poisoned)
        with pytest.raises(NonFiniteStateError, match=r"outer step i=3 \(t=500, s=77\)"):
            mgdm_run(lik, prior, sched, cfg, np.random.default_rng(0))
        with pytest.raises(NonFiniteStateError, match=r"outer step i=3 \(t=500, s=77\)"):
            mgdm_run_batch(lik, prior, sched, cfg, 4, np.random.default_rng(0))

    def test_batch_shape(self):
        lik, prior, sched = problem_1d()
        cfg = MgdmConfig(timesteps=make_timesteps(8, 1000), M=4, conditional="exact", denoise="exact")
        out = mgdm_run_batch(lik, prior, sched, cfg, 64, np.random.default_rng(0))
        assert out.shape == (64, 1)


class TestDpsRun:
    def test_zero_guidance_samples_prior(self):
        sched = make_schedule("linear", 1000)
        prior = GaussianPrior(mean=[0.5, -0.2], cov=[[1.0, 0.4], [0.4, 0.8]])
        lik = LinearGaussianLikelihood(A=np.eye(2), y=[2.0, 1.0], sigma_y=0.5)
        samples = dps_run(lik, prior, sched, K=50, zeta=0.0, rng=np.random.default_rng(3), n_chains=4000)
        ref = prior.sample(4000, np.random.default_rng(4))
        sw = sliced_wasserstein2(SampleSet(samples), SampleSet(ref), n_projections=64,
                                 rng=np.random.default_rng(5))
        assert sw < 0.1

    def test_deterministic_given_seed(self):
        lik, prior, sched = problem_1d()
        a = dps_run(lik, prior, sched, K=20, zeta=0.5, rng=np.random.default_rng(7))
        b = dps_run(lik, prior, sched, K=20, zeta=0.5, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_posterior_mean_bias_comparison(self):
        """Comparative report: DPS bias vs exact-backend MGDM bias at
        matched K (no fixed threshold; the gap is printed)."""
        lik, prior, sched = problem_1d()
        post = exact_posterior(prior, lik)
        n = 4000
        dps = dps_run(lik, prior, sched, K=25, zeta=1.0, rng=np.random.default_rng(11), n_chains=n)
        ts = make_timesteps(25, 1000)
        seq = tuple(max(2, ts[i - 2] // 2) for i in range(25, 1, -1))
        cfg = MgdmConfig(timesteps=ts, R=2, conditional="exact", denoise="exact",
                         index_dist=IndexDistribution(kind="fixed", values=seq))
        mg = mgdm_run_batch(lik, prior, sched, cfg, n, np.random.default_rng(12))
        bias_dps = abs(dps.mean() - post.mean[0])
        bias_mg = abs(mg.mean() - post.mean[0])
        print(f"posterior-mean bias: dps={bias_dps:.4f} mgdm={bias_mg:.4f}")
        assert np.isfinite(bias_dps) and np.isfinite(bias_mg)

    def test_rejects_negative_zeta(self):
        lik, prior, sched = problem_1d()
        with pytest.raises(ValueError):
            dps_run(lik, prior, sched, K=10, zeta=-0.1, rng=np.random.default_rng(0))
