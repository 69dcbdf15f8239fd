"""Index sampling, the inner DDPM denoiser, Gibbs sweeps, and the drivers."""

import itertools
import math
import os
import platform
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import mgdm
from mgdm.likelihoods import LinearGaussianLikelihood
from mgdm.metrics import sliced_wasserstein2
from mgdm.oracle import QuadratureJoint, auto_grids
from mgdm.priors import GaussianPrior, GmmPrior, exact_posterior
from mgdm.sampler import (
    IndexDistribution,
    MgdmConfig,
    ViPhaseSchedule,
    ddpm_denoise,
    dps_run,
    draw_level,
    gibbs_step,
    make_timesteps,
    mgdm_run,
    mgdm_run_batch,
)
from mgdm.schedule import NoiseSchedule, make_schedule


def smoothed(prior, sched, t):
    """The smoothed marginal p_t = N(alpha_t m, alpha_t^2 Sigma + v_t I) of a Gaussian prior."""
    a = sched.alpha(t)
    return GaussianPrior(a * prior.mean, (a * a) * prior.cov + sched.sigma2(0, t) * np.eye(prior.dim))


def ddpm_loop(prior, schedule, x_s, s, M, rng):
    """The few-step DDPM pass as a loop of plugged-bridge sub-steps from s down to the lowest
    positive level of ``substep_grid(s, M)``, then the denoiser there."""
    grid = schedule.substep_grid(s, M)
    x = np.asarray(x_s, dtype=np.float64)
    for j in range(len(grid) - 1, 1, -1):
        hi, lo = grid[j], grid[j - 1]
        x = schedule.bridge_sample(prior.denoise(schedule, hi, x).value, x, lo, hi, rng)
    return prior.denoise(schedule, grid[1], x).value


def random_gaussian_prior(d, rng):
    root = rng.standard_normal((d, d))
    return GaussianPrior(mean=rng.standard_normal(d), cov=root @ root.T + 0.3 * np.eye(d))


def problem_1d(sigma_y=0.5):
    sched = make_schedule("linear", 1000)
    prior = GaussianPrior(mean=[0.3], cov=[[0.8]])
    lik = LinearGaussianLikelihood(A=[[1.1]], y=[0.7], sigma_y=sigma_y)
    return lik, prior, sched


# The per-step level draw that the level rows replaced, kept verbatim (one branch per kind) as the reference
# whose random stream ``draw_level`` must reproduce draw for draw.
def sample_index(
    dist: IndexDistribution, i: int, t_i: int, t_prev: int, K: int, rng: np.random.Generator
) -> int:
    """Draw the auxiliary level s for outer step i (i runs K down to 2)."""
    if dist.kind == "uniform-mix":
        if t_prev < dist.tau:
            raise ValueError(f"uniform-mix needs t_prev >= tau, got t_prev={t_prev} < tau={dist.tau}")
        if i <= math.floor(K * dist.late_fraction):
            return t_prev
        return int(rng.integers(dist.tau, t_prev + 1))
    if dist.kind == "near-zero":
        hi = max(1, min(t_i - 1, t_i // 5))
        return int(rng.integers(1, hi + 1))
    if dist.kind == "fixed-midpoint":
        return max(2, t_prev // 2)
    if dist.kind == "explicit":
        w = np.asarray(dist.weights, dtype=np.float64)
        support = np.arange(1, min(len(w), t_i - 1) + 1)
        mass = w[: len(support)]
        total = mass.sum()
        if total <= 0.0:
            raise ValueError("explicit weights put no mass below t_i")
        return int(rng.choice(support, p=mass / total))
    if dist.kind == "fixed":
        if len(dist.values) != K - 1:
            raise ValueError(f"fixed index sequence needs {K - 1} entries, got {len(dist.values)}")
        return int(dist.values[K - i])
    raise AssertionError("unreachable")



def level_row(dist, i, t_i, t_prev, K):
    """The row ``dist.rows`` gives outer step i of a K-step grid through (t_{i-1}, t_i) = (t_prev, t_i); the
    rows of the steps below i, which this grid need not make valid, are never built."""
    ts = tuple(range(t_prev - i + 2, t_prev)) + (t_prev, t_i) + tuple(range(t_i + 1, t_i + 1 + K - i))
    return next(itertools.islice(dist.rows(ts), K - i, None))


class TestSampleIndex:
    def test_uniform_mix_late_phase_is_deterministic(self):
        dist = IndexDistribution(kind="uniform-mix", tau=10)
        rng = np.random.default_rng(0)
        for i in (2, 10, 25):
            assert draw_level(level_row(dist, i, 300, 290, 100), rng) == 290

    def test_uniform_mix_singleton_support(self):
        dist = IndexDistribution(kind="uniform-mix", tau=10)
        rng = np.random.default_rng(1)
        row = level_row(dist, 80, 20, 10, 100)
        assert {draw_level(row, rng) for _ in range(50)} == {10}

    def test_uniform_mix_range(self):
        dist = IndexDistribution(kind="uniform-mix", tau=10)
        rng = np.random.default_rng(2)
        row = level_row(dist, 80, 500, 480, 100)
        draws = [draw_level(row, rng) for _ in range(500)]
        assert min(draws) >= 10 and max(draws) <= 480
        assert len(set(draws)) > 100

    def test_uniform_mix_rejects_small_t_prev(self):
        dist = IndexDistribution(kind="uniform-mix", tau=10)
        with pytest.raises(ValueError, match="uniform-mix needs t_prev >= tau, got t_prev=8 < tau=10"):
            level_row(dist, 80, 12, 8, 100)

    def test_explicit_degenerate_weights(self):
        t_i = 12
        weights = [0.0] * (t_i - 2) + [1.0]
        dist = IndexDistribution(kind="explicit", weights=tuple(weights))
        rng = np.random.default_rng(3)
        row = level_row(dist, 5, t_i, 11, 10)
        for _ in range(20):
            assert draw_level(row, rng) == t_i - 1

    def test_near_zero_range(self):
        dist = IndexDistribution(kind="near-zero")
        rng = np.random.default_rng(4)
        row = level_row(dist, 9, 200, 180, 10)
        draws = [draw_level(row, rng) for _ in range(300)]
        assert min(draws) >= 1 and max(draws) <= 40

    def test_fixed_midpoint(self):
        dist = IndexDistribution(kind="fixed-midpoint")
        assert draw_level(level_row(dist, 7, 300, 280, 10), np.random.default_rng(0)) == 140

    def test_fixed_sequence_lookup(self):
        dist = IndexDistribution(kind="fixed", values=(7, 5, 3))
        assert draw_level(level_row(dist, 4, 100, 50, 4), np.random.default_rng(0)) == 7
        assert draw_level(level_row(dist, 2, 20, 10, 4), np.random.default_rng(0)) == 3

    @pytest.mark.parametrize("field,value,message", [
        ("weights", 1.0, "weights must be a list, got 1.0"),
        ("values", 3, "values must be a list, got 3"),
        ("values", "73", "values must be a list, got '73'"),
        ("weights", np.array([[0.5, 0.5]]), "weights must be a list, got array([[0.5, 0.5]])"),
        ("weights", [[0.5, 0.5]], "weights must be a simplex"),
        ("values", [[1], [2, 3]], "values[0] must be an integer, got [1]"),
        ("weights", [[0.5], [0.25, 0.25]], "weights must be a rectangular array of numbers"),
    ], ids=["weights-float", "values-int", "values-string", "weights-2d", "weights-nested", "values-nested",
            "weights-ragged"])
    def test_weights_and_values_must_be_lists(self, field, value, message):
        """A scalar, a string or a nested list names its field; a scalar used to fail as "'float' object is not
        iterable", or build."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            IndexDistribution(kind="explicit" if field == "weights" else "fixed", **{field: value})

    def test_weights_and_values_are_kept_as_tuples(self):
        """A list, a tuple or a 1-D array is stored as a tuple: an array no longer fails as ambiguous."""
        fixed = IndexDistribution(kind="fixed", values=np.array([7, 5]))
        assert type(fixed.values) is tuple and fixed.values == (7, 5)
        assert MgdmConfig(timesteps=(10, 20, 30), index_dist=fixed).draw_levels(np.random.default_rng(0)) == (7, 5)
        explicit = IndexDistribution(kind="explicit", weights=[0.25, 0.75])
        assert explicit.weights == (0.25, 0.75)
        assert hash(explicit) == hash(IndexDistribution(kind="explicit", weights=np.array([0.25, 0.75])))

    def test_rows_are_read_only(self):
        """A row is a range and, for an explicit law only, a CDF that cannot be written."""
        rows = MgdmConfig(timesteps=make_timesteps(10, 200), index_dist=IndexDistribution("explicit", weights=[0.5] * 2)
                          ).levels
        assert all(isinstance(support, range) and not cdf.flags.writeable for support, cdf in rows)
        assert all(cdf is None for _, cdf in MgdmConfig(timesteps=make_timesteps(10, 200)).levels)


def reference_laws(ts):
    """One law of each kind, with late-phase uniform-mix steps (every step at late_fraction 1), explicit laws of
    one level (weights (1,)), of a zero in the support and of a tail that t_i cuts, and a valid fixed sequence."""
    rng = np.random.default_rng(len(ts))
    weights = rng.random(60)
    return [IndexDistribution("uniform-mix", tau=2, late_fraction=f) for f in (0.0, 0.25, 0.5, 1.0)] + [
        IndexDistribution("near-zero"),
        IndexDistribution("fixed-midpoint"),
        IndexDistribution("explicit", weights=(1.0,)),
        IndexDistribution("explicit", weights=(0.5, 0.0, 0.25, 0.25)),
        IndexDistribution("explicit", weights=tuple(weights / weights.sum())),
        IndexDistribution("fixed", values=tuple(int(rng.integers(1, t)) for t in ts[:0:-1])),
    ]


# Grids with wide steps, late-phase steps, and t_i < 10, where near-zero has one level.
REFERENCE_GRIDS = [make_timesteps(10, 200), make_timesteps(25, 1000), (2, 3, 5, 8, 9, 12, 30, 100),
                   (3, 4, 6, 9, 40, 41, 200)]


@pytest.mark.parametrize("ts", REFERENCE_GRIDS, ids=["K10-T200", "K25-T1000", "small-t", "mixed"])
def test_level_rows_draw_the_reference_stream(ts):
    """Every kind draws, from its rows, the levels the per-step reference draws, and leaves the generator in
    the same state after each draw: no draw spends another bit, and one-level rows spend what they spent."""
    K = len(ts)
    for dist in reference_laws(ts):
        levels = MgdmConfig(timesteps=ts, index_dist=dist).levels
        for seed in range(5):
            ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(20):
                for i, row in zip(range(K, 1, -1), levels):
                    s = draw_level(row, ours)
                    assert type(s) is int and s == sample_index(dist, i, ts[i - 1], ts[i - 2], K, ref), (dist, i)
                    assert ours.bit_generator.state == ref.bit_generator.state, (dist, i)


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

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("batch", [(), (8,), (3, 4)])
    def test_gaussian_closed_form_matches_the_loop(self, d, batch):
        """A Gaussian prior's closed form is the loop to rounding, and draws the loop's noises."""
        sched = make_schedule("linear", 1000)
        rng = np.random.default_rng(d)
        prior = random_gaussian_prior(d, rng)
        x_s = 2.0 * rng.standard_normal(batch + (d,))
        for s in (1, 2, 37, sched.T):
            for M in (1, 2, 5, 20):
                loop_rng, closed_rng = np.random.default_rng(s + M), np.random.default_rng(s + M)
                want = ddpm_loop(prior, sched, x_s, s, M, loop_rng)
                got = ddpm_denoise(prior, sched, x_s, s, M, closed_rng)
                assert got.shape == want.shape == batch + (d,)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (s, M)
                assert closed_rng.bit_generator.state == loop_rng.bit_generator.state, (s, M)

    def test_no_substep_is_the_denoiser_exactly(self):
        """M = 1, and any grid with no level between 0 and s, return m_s(x_s) and draw nothing."""
        sched = make_schedule("linear", 1000)
        prior = random_gaussian_prior(2, np.random.default_rng(3))
        x_s = np.random.default_rng(4).standard_normal((6, 2))
        for s, M in [(1, 1), (37, 1), (1000, 1), (1, 5), (1, 20), (2, 1)]:
            assert len(sched.substep_grid(s, M)) == 2
            rng = np.random.default_rng(5)
            state = rng.bit_generator.state
            assert np.array_equal(ddpm_denoise(prior, sched, x_s, s, M, rng), prior.denoise(sched, s, x_s).value)
            assert rng.bit_generator.state == state

    def test_gmm_prior_runs_the_loop(self):
        sched = make_schedule("linear", 200)
        prior = GmmPrior(weights=[0.3, 0.7], means=[[1.0, 1.0], [-1.0, -0.5]],
                         covs=[[[0.3, 0.1], [0.1, 0.4]], [[0.5, 0.0], [0.0, 0.2]]])
        x_s = np.random.default_rng(6).standard_normal((5, 2))
        for s, M in [(1, 1), (37, 5), (200, 20)]:
            loop_rng, rng = np.random.default_rng(7), np.random.default_rng(7)
            got = ddpm_denoise(prior, sched, x_s, s, M, rng)
            assert np.array_equal(got, ddpm_loop(prior, sched, x_s, s, M, loop_rng))
            assert rng.bit_generator.state == loop_rng.bit_generator.state

    def test_kernel_entries_read_only_and_bounded_by_levels(self):
        """The kernel of each (schedule, s, M) is kept once, read-only, beside (J_t, b_t) of the levels visited."""
        sched = make_schedule("linear", 200)
        prior = random_gaussian_prior(3, np.random.default_rng(8))
        x_s = np.zeros(3)
        visits = [(37, 5), (37, 5), (60, 20), (1, 5), (60, 1)]
        for s, M in visits:
            ddpm_denoise(prior, sched, x_s, s, M, np.random.default_rng(0))
        memo = prior._memo
        assert set(memo) == {(sched.alpha(s), sched.sigma2(0, s)) for s, _ in visits} | {(sched, *v) for v in visits}
        for s, M in set(visits):
            q, w = memo[(sched, s, M)]
            assert prior.ddpm_kernel(sched, s, M) is memo[(sched, s, M)]
            assert w.shape == (len(sched.substep_grid(s, M)) - 2, 3)
            for arr in (q, w):
                assert not arr.flags.writeable
        ddpm_denoise(prior, sched, x_s, 37, 5, np.random.default_rng(0))
        assert len(memo) == 7
        other = make_schedule("linear", 200)  # the same alphas: its kernel is its own entry, (J_t, b_t) are shared
        ddpm_denoise(prior, other, x_s, 37, 5, np.random.default_rng(0))
        assert len(memo) == 8 and np.array_equal(memo[(other, 37, 5)][1], memo[(sched, 37, 5)][1])

    def test_substep_grid_matches_linspace_rule(self):
        sched = make_schedule("linear", 1000)
        for M in range(1, 51):
            for s in range(0, 1001):
                want = np.unique(np.round(np.linspace(0, s, M + 1)).astype(int))
                assert sched.substep_grid(s, M) == tuple(want.tolist()), (s, M)


def exact_joint_draws(lik, prior, sched, s, t, n, rng):
    """Draws from pibar(x_0, x_s, x_t): inverse-CDF on the quadrature
    x_s-marginal, then the exact Gaussian conditionals."""
    joint = QuadratureJoint(lik, prior, sched, s, t, auto_grids(lik, prior, sched, s, t, n=1024))
    pts, dens = joint.marginal("xs")
    cdf = np.cumsum(dens * joint.grids["xs"].weights)
    cdf /= cdf[-1]
    xs = np.interp(rng.random(n), cdf, pts)[:, None]
    x0 = prior.backward_sample(sched, s, xs, rng)
    xt = sched.forward_sample(xs, s, t, rng)
    return x0, xs, xt, joint


class TestGibbsStep:
    def test_levels_unchanged_and_shapes(self):
        lik, prior, sched = problem_1d()
        cfg = MgdmConfig(timesteps=(100, 1000), conditional="exact", denoise="exact")
        rng, vi_fit = np.random.default_rng(0), cfg.vi.resolve(cfg.K, cfg.K)
        x0, xs, xt = gibbs_step(np.zeros(1), np.ones(1), 100, 600, lik, prior, sched, cfg, vi_fit, rng)
        assert x0.shape == xs.shape == xt.shape == (1,)

    BACKENDS = {
        "exact": {"conditional": "exact", "denoise": "exact"},
        "vi": {},
        "vi-mh": {"conditional": "vi-mh", "mh_steps": 2},
    }

    @pytest.mark.parametrize("backend", list(BACKENDS))
    def test_one_bridge_per_sweep(self, backend, monkeypatch):
        """The sweep builds q(x_s | x_0, x_t) once and every x_s backend reads it: VI plus MH too."""
        from mgdm.schedule import NoiseSchedule

        lik, prior, sched = problem_1d()
        s, t = 60, 400
        pairs = []
        bridge_params = NoiseSchedule.bridge_params
        monkeypatch.setattr(NoiseSchedule, "bridge_params", lambda self, lo, hi: pairs.append((lo, hi))
                            or bridge_params(self, lo, hi))
        cfg = MgdmConfig(timesteps=(100, 1000), **self.BACKENDS[backend])
        x0, xt = np.full((5, 1), 0.2), np.full((5, 1), -0.4)
        gibbs_step(x0, xt, s, t, lik, prior, sched, cfg, (4, 0.03), np.random.default_rng(0))
        assert pairs.count((s, t)) == 1  # the DDPM pass adds its own sub-step bridges below s

    @pytest.mark.parametrize("backend", list(BACKENDS))
    @pytest.mark.parametrize("s", [0, 400, 401])
    def test_rejects_levels_outside_sweep(self, backend, s):
        """s outside [1, t) fails before any update runs, with no numerical warning on the way."""
        import warnings

        lik, prior, sched = problem_1d()
        cfg = MgdmConfig(timesteps=(100, 1000), **self.BACKENDS[backend])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="1 <= s < t"):
                gibbs_step(np.zeros(1), np.ones(1), s, 400, lik, prior, sched, cfg, (4, 0.03), np.random.default_rng(0))

    def test_exact_sweep_preserves_quadrature_marginals(self):
        """One sweep from exact-joint draws keeps all three marginals
        within W1 < 0.02 of the quadrature marginals (1e5 chains)."""
        lik, prior, sched = problem_1d()
        s, t, n = 60, 400, 100_000
        rng = np.random.default_rng(44)
        x0, xs, xt, joint = exact_joint_draws(lik, prior, sched, s, t, n, rng)
        cfg = MgdmConfig(timesteps=(100, 1000), conditional="exact", denoise="exact")
        out = gibbs_step(x0, xt, s, t, lik, prior, sched, cfg, cfg.vi.resolve(cfg.K, cfg.K), rng)
        u = (np.arange(n) + 0.5) / n
        for axis, arr in zip(("x0", "xs", "xt"), out):
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
        _, _, xt = gibbs_step(x0, xt, s, t, lik, prior, sched, cfg, cfg.vi.resolve(cfg.K, cfg.K), rng)
        p_t = smoothed(prior, sched, t)
        mean_t, cov_t = p_t.mean, p_t.cov
        se_mean = np.sqrt(cov_t[0, 0] / n)
        assert abs(xt.mean() - mean_t[0]) < 4 * se_mean
        assert abs(xt.var() / cov_t[0, 0] - 1.0) < 0.02


class TestQuadratureInvariants:
    def test_xt_marginal_equals_smoothed_mixture_component(self):
        """The x_t-marginal of the extended target equals the propagated
        potential times the smoothed prior, renormalized (rel err < 1e-6)."""
        lik, prior, sched = problem_1d()
        s, t = 60, 400
        grids = auto_grids(lik, prior, sched, s, t, n=1024)
        joint = QuadratureJoint(lik, prior, sched, s, t, grids)
        pts_t, dens_t = joint.marginal("xt")

        # ghat_t^s(x_t) = int ghat_s(x_s) p_{s|t}(x_s | x_t) dx_s
        from mgdm.likelihoods import log_g_hat
        from mgdm.schedule import gauss_log_density

        # p_{s|t} from the joint Gaussian of (x_s, x_t), whose cross-covariance is alpha_{t|s} var(x_s)
        p_s, p_t = smoothed(prior, sched, s), smoothed(prior, sched, t)
        gain = sched.alpha_ratio(s, t) * p_s.cov[0, 0] / p_t.cov[0, 0]
        const, var = p_s.mean[0] - gain * p_t.mean[0], p_s.cov[0, 0] * (1.0 - gain * sched.alpha_ratio(s, t))
        xs_pts = grids[1].points
        log_pot_s = log_g_hat(lik, prior, sched, s, xs_pts[:, None])
        w_s = grids[1].weights
        log_ghat_ts = np.empty(pts_t.size)
        for k, x_t in enumerate(pts_t):
            cond_mean = gain * x_t + const
            log_back = gauss_log_density(xs_pts[:, None], np.array([cond_mean]), var)
            v = np.log(w_s) + log_back + log_pot_s
            peak = v.max()
            log_ghat_ts[k] = peak + np.log(np.sum(np.exp(v - peak)))
        log_pt = p_t.log_density(pts_t[:, None])
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
        joint = QuadratureJoint(lik, prior, sched, 1, 2, grids)
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

    def test_index_law_without_a_valid_level_rejected_at_construction(self):
        """tau = 30 on K = 10 over T = 200 leaves t_prev = 20 < tau at outer step 2: the config fails as it is
        built, not a run after some Gibbs sweeps."""
        with pytest.raises(ValueError, match="uniform-mix needs t_prev >= tau, got t_prev=20 < tau=30"):
            MgdmConfig(timesteps=make_timesteps(10, 200), index_dist=IndexDistribution(tau=30))

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
        assert vi.resolve(90, K) == (5, 0.01)  # (steps, learning_rate)
        assert vi.resolve(50, K) == (5, 0.03)
        assert vi.resolve(10, K) == (20, 0.03)

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

    @pytest.mark.parametrize("build,message", [
        (lambda: MgdmConfig(timesteps=(20.5, 200.9)), "timesteps[0] must be an integer, got 20.5"),
        (lambda: MgdmConfig(timesteps=(20, np.float64(200.0))),
         "timesteps[1] must be an integer, got np.float64(200.0)"),
        (lambda: MgdmConfig(timesteps=(20, 200), R=1.5), "R must be an integer, got 1.5"),
        (lambda: MgdmConfig(timesteps=(20, 200), R=True), "R must be an integer, got True"),
        (lambda: MgdmConfig(timesteps=(20, 200), M=2.5), "M must be an integer, got 2.5"),
        (lambda: MgdmConfig(timesteps=(20, 200), conditional="vi-mh", mh_steps=1.5),
         "mh_steps must be an integer, got 1.5"),
        (lambda: MgdmConfig(timesteps=(20, 200), final="denoise", final_s=1.5), "final_s must be an integer, got 1.5"),
        (lambda: ViPhaseSchedule(steps=2.5), "steps must be an integer, got 2.5"),
        (lambda: ViPhaseSchedule(steps_late=20.0), "steps_late must be an integer, got 20.0"),
        (lambda: IndexDistribution(tau=5.5), "tau must be an integer, got 5.5"),
        (lambda: IndexDistribution(kind="fixed", values=(3.7, 2.2)), "values[0] must be an integer, got 3.7"),
        (lambda: IndexDistribution(kind="fixed", values=(3, True)), "values[1] must be an integer, got True"),
        (lambda: NoiseSchedule.from_json({"alphas": make_schedule("linear", 10).alphas.tolist(), "T": 10.7}),
         "T must be an integer, got 10.7"),
        (lambda: make_schedule("linear", 10.5), "T must be an integer, got 10.5"),
    ], ids=["timesteps", "numpy-float-timestep", "R", "R-bool", "M", "mh_steps", "final_s", "steps", "steps_late",
            "tau", "values", "values-bool", "schedule-T", "make-schedule-T"])
    def test_integer_settings_reject_non_integers(self, build, message):
        """Integer settings built from Python are checked as the harness checks a config: never truncated."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("build,message", [
        (lambda: ViPhaseSchedule(eta=True), "eta must be a number, got True"),
        (lambda: ViPhaseSchedule(eta="0.1"), "eta must be a number, got '0.1'"),
        (lambda: ViPhaseSchedule(eta_early=True), "eta_early must be a number, got True"),
        (lambda: IndexDistribution(late_fraction=True), "late_fraction must be a number, got True"),
        (lambda: IndexDistribution(late_fraction="0.5"), "late_fraction must be a number, got '0.5'"),
        (lambda: IndexDistribution(kind="explicit", weights=(True,)), "weights must hold numbers, got (True,)"),
        (lambda: IndexDistribution(kind="explicit", weights=("0.5", "0.5")),
         "weights must hold numbers, got ('0.5', '0.5')"),
        (lambda: IndexDistribution(kind="explicit", weights=(np.nan, 1.0)), "weights must be a simplex"),
        (lambda: IndexDistribution(kind="explicit", weights=(np.inf, -np.inf)), "weights must be a simplex"),
    ], ids=["eta-bool", "eta-string", "eta-early-bool", "late-fraction-bool", "late-fraction-string", "weights-bool",
            "weights-string", "weights-nan", "weights-inf"])
    def test_real_settings_reject_bools_and_strings(self, build, message):
        """True is not read as a rate, fraction or weight of 1.0, nor "0.1" compared with a float; a NaN weight
        fails the simplex check, not rng.choice in the first run."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_integer_settings_accept_numpy_integers(self):
        cfg = MgdmConfig(timesteps=np.array([20, 200]), R=np.int64(2), M=np.int32(5),
                         vi=ViPhaseSchedule(steps=np.int64(3)),
                         index_dist=IndexDistribution(kind="fixed", values=tuple(np.array([7]))))
        assert cfg.timesteps == (20, 200) and all(type(t) is int for t in cfg.timesteps) and cfg.R == 2
        alphas = make_schedule("linear", np.int64(10)).alphas.tolist()
        assert NoiseSchedule.from_json({"alphas": alphas, "T": np.int64(10)}).T == 10


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

        def recording(x0, xt, s, t, *args, **kwargs):
            levels.append((s, t))
            return sweep(x0, xt, s, t, *args, **kwargs)

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
        sw = sliced_wasserstein2(samples, ref, n_projections=64,
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
        sw = sliced_wasserstein2(samples, ref, n_projections=64,
                                 rng=np.random.default_rng(5))
        assert sw < 0.1

    def test_deterministic_given_seed(self):
        lik, prior, sched = problem_1d()
        a = dps_run(lik, prior, sched, K=20, zeta=0.5, rng=np.random.default_rng(7))
        b = dps_run(lik, prior, sched, K=20, zeta=0.5, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_one_denoiser_call_per_step(self, monkeypatch):
        """Each guided step takes its guidance from the VJP of its own denoiser call: K = 20 makes
        19 guided steps and one final denoise, 20 calls in all."""
        lik, prior, sched = problem_1d()
        levels = []
        denoise = GaussianPrior.denoise

        def counting(self, schedule, t, x_t):
            levels.append(t)
            return denoise(self, schedule, t, x_t)

        monkeypatch.setattr(GaussianPrior, "denoise", counting)
        dps_run(lik, prior, sched, K=20, zeta=0.5, rng=np.random.default_rng(7))
        assert levels == list(make_timesteps(20, sched.T)[::-1])

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

    @pytest.mark.parametrize("zeta", ["0.5", True, False, None])
    def test_rejects_a_zeta_that_is_not_a_number(self, zeta):
        """True is not 1.0 and False is not 0.0 (unguided DDPM)."""
        lik, prior, sched = problem_1d()
        with pytest.raises(ValueError, match="zeta must be a number"):
            dps_run(lik, prior, sched, K=10, zeta=zeta, rng=np.random.default_rng(0))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator policy is set through glibc's mallopt")
def test_batched_vi_mh_sweeps_reuse_the_heap():
    """Importing mgdm raises glibc's trim and mmap thresholds, so the VI steps of a d = 80 GMM sweep
    reuse freed heap instead of faulting pages back in: at the defaults each call of this 96-chain,
    25-component VI-MH batch takes about 450 minor faults.  Counted in a fresh interpreter, so that
    pytest's own allocations do not count."""
    code = textwrap.dedent("""
        import resource
        import numpy as np
        from mgdm.likelihoods import LinearGaussianLikelihood
        from mgdm.priors import GmmPrior
        from mgdm.sampler import IndexDistribution, MgdmConfig, ViPhaseSchedule, make_timesteps, mgdm_run_batch
        from mgdm.schedule import make_schedule

        d = 80
        grid = np.array([[8.0 * i, 8.0 * j] for i in range(-2, 3) for j in range(-2, 3)])
        prior = GmmPrior(weights=np.full(25, 1.0 / 25), means=np.tile(grid, (1, d // 2)),
                         covs=np.broadcast_to(np.eye(d), (25, d, d)))
        instance = np.random.default_rng(0)
        A = instance.standard_normal((4, d))
        y = A @ prior.sample(1, instance)[0] + instance.standard_normal(4)
        likelihood = LinearGaussianLikelihood(A=A, y=y, sigma_y=1.0)
        schedule = make_schedule("linear", 1000)
        config = MgdmConfig(timesteps=make_timesteps(3, 1000), R=1, M=2, vi=ViPhaseSchedule.constant(0.01, 2),
                            conditional="vi-mh", mh_steps=1, denoise="ddpm",
                            index_dist=IndexDistribution(kind="near-zero"))
        for k in range(5):  # warm-up: the heap grows to its working size
            mgdm_run_batch(likelihood, prior, schedule, config, 96, np.random.default_rng(k))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for k in range(50):
            mgdm_run_batch(likelihood, prior, schedule, config, 96, np.random.default_rng(5 + k))
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(mgdm.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 20
