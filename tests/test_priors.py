"""Analytic prior machinery: denoisers, scores, backward kernels, posteriors."""

import json
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from mgdm import priors
from mgdm.metrics import gaussian_kl, sliced_wasserstein2
from mgdm.priors import (
    GaussianPrior,
    GmmPrior,
    exact_posterior,
    prior_from_json,
    spd_inverse,
)
from mgdm.likelihoods import LinearGaussianLikelihood, QuadraticLikelihood
from mgdm.schedule import NoiseSchedule, make_schedule


def half_alpha_schedule():
    """alpha_1 = 0.5 so that v_1 = 0.75, matching the worked examples."""
    return NoiseSchedule(alphas=np.array([1.0, 0.5, 0.25]))


def gauss_1d():
    return GaussianPrior(mean=[0.0], cov=[[1.0]])


def jacobian_of(out, d):
    """Jac(m_t) at one point, stacked from vjp(e_k): row k is e_k^T Jac."""
    return np.stack([out.vjp(e) for e in np.eye(d)])


def smoothed(prior, sched, t):
    """The smoothed marginal p_t = N(alpha_t m, alpha_t^2 Sigma + v_t I) of a Gaussian prior."""
    a = sched.alpha(t)
    return GaussianPrior(a * prior.mean, (a * a) * prior.cov + sched.sigma2(0, t) * np.eye(prior.dim))


def marginal_log_density(prior, sched, t, x):
    """log p_t(x) in closed form: one smoothed Gaussian, or the log-sum-exp of the weighted smoothed components."""
    if isinstance(prior, GaussianPrior):
        return smoothed(prior, sched, t).log_density(x)
    logs = [np.log(w) + smoothed(GaussianPrior(m, c), sched, t).log_density(x)
            for w, m, c in zip(prior.weights, prior.means, prior.covs)]
    return logsumexp(logs, axis=0)


def component_log_densities(prior, sched, t, x):
    """log w_j + log N(x; alpha_t m_j, S_{t,j}) from the mixture's own points-last pass; shape (..., J)."""
    logs = prior._terms(sched.alpha(t), sched.sigma2(0, t), prior._points(x))[0]
    return logs.T.reshape(np.shape(x)[:-1] + (-1,))


def responsibilities(prior, sched, t, x):
    logs = component_log_densities(prior, sched, t, x)
    return np.exp(logs - logsumexp(logs, axis=-1, keepdims=True))


def gmm_2d():
    return GmmPrior(
        weights=[0.4, 0.6],
        means=[[-1.0, 0.5], [1.2, -0.7]],
        covs=[[[0.5, 0.1], [0.1, 0.4]], [[0.3, -0.05], [-0.05, 0.6]]],
    )


class TestConstruction:
    def test_rejects_asymmetric_cov(self):
        with pytest.raises(ValueError):
            GaussianPrior(mean=[0.0, 0.0], cov=[[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_degenerate_cov(self):
        with pytest.raises(ValueError):
            GaussianPrior(mean=[0.0], cov=[[1e-13]])

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            GmmPrior(weights=[0.6, 0.6], means=[[0.0], [1.0]], covs=[[[1.0]], [[1.0]]])

    @pytest.mark.parametrize("spec,message", [
        ({"kind": "gaussian", "mean": ["0.5"], "cov": [[1.0]]}, "prior mean must hold numbers"),
        ({"kind": "gaussian", "mean": [0.5], "cov": [["1"]]}, "prior covariance must hold numbers"),
        ({"kind": "gmm", "weights": [True], "means": [[0.0]], "covs": [[[1.0]]]}, "weights must hold numbers"),
        ({"kind": "gmm", "weights": [0.5, 0.5], "means": [[True], [0.0]], "covs": [[[1.0]], [[1.0]]]},
         "means must hold numbers"),
        ({"kind": "gmm", "weights": [1.0], "means": [[0.0]], "covs": [[["1"]]]}, "covs must hold numbers"),
        ({"kind": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0], [1.0, 2.0]]},
         "prior covariance must be a rectangular array of numbers"),
        ({"kind": "gmm", "weights": [0.5, 0.5], "means": [[0.0], [1.0, 2.0]], "covs": [[[1.0]], [[1.0]]]},
         "means must be a rectangular array of numbers"),
    ], ids=["mean-string", "cov-string", "weights-bool", "means-bool", "covs-string", "cov-ragged", "means-ragged"])
    def test_rejects_arrays_that_are_not_numbers(self, spec, message):
        """A float64 conversion would read "0.5" as 0.5 and True as 1.0, from the config form or from Python.
        A GaussianPrior, also the type of laws that are no prior, names its fields bare, and its config form
        names them the prior's."""
        cls = {"gaussian": GaussianPrior, "gmm": GmmPrior}[spec["kind"]]
        fields = {key: value for key, value in spec.items() if key != "kind"}
        for build, expected in ((lambda: prior_from_json(spec), message),
                                (lambda: cls(**fields), message.removeprefix("prior "))):
            with pytest.raises(ValueError, match=f"^{expected}"):
                build()

    @pytest.mark.parametrize("means,cov", [([[0.0, 0.0, 0.0]], np.eye(2)), ([[0.0, 0.0]], np.eye(3))],
                             ids=["means-wider", "covs-wider"])
    def test_gmm_rejects_means_and_covs_of_different_dimensions(self, means, cov):
        """The mismatch is named, as GaussianPrior names mean and cov, not left to a failed reshape."""
        with pytest.raises(ValueError, match="means and covs dimensions disagree"):
            GmmPrior(weights=[1.0], means=means, covs=[cov])


class TestDenoiser:
    def test_unit_gaussian_half_alpha(self):
        """N(0,1) prior with alpha_t = 0.5: m_t(x) = 0.5 x, Jacobian 0.5."""
        sched = half_alpha_schedule()
        out = gauss_1d().denoise(sched, 1, np.array([2.0]))
        np.testing.assert_allclose(out.value, [1.0], atol=1e-12)
        np.testing.assert_allclose(jacobian_of(out, 1), [[0.5]], atol=1e-12)

    def test_point_mass_prior_returns_mean(self):
        sched = make_schedule("linear", 100)
        prior = GaussianPrior(mean=[0.7], cov=[[1e-12]])
        for x in (-3.0, 0.0, 5.0):
            out = prior.denoise(sched, 50, np.array([x]))
            np.testing.assert_allclose(out.value, [0.7], atol=1e-8)

    def test_single_component_gmm_matches_gaussian(self):
        sched = make_schedule("linear", 200)
        gauss = GaussianPrior(mean=[0.3, -0.2], cov=[[0.8, 0.2], [0.2, 0.5]])
        mix = GmmPrior(weights=[1.0], means=[gauss.mean], covs=[gauss.cov])
        x = np.array([0.4, 1.1])
        a, b = gauss.denoise(sched, 120, x), mix.denoise(sched, 120, x)
        np.testing.assert_allclose(a.value, b.value, atol=1e-10)
        np.testing.assert_allclose(jacobian_of(a, 2), jacobian_of(b, 2), atol=1e-10)

    def test_rejects_t_zero(self):
        with pytest.raises(ValueError):
            gauss_1d().denoise(make_schedule("linear", 10), 0, np.zeros(1))

    def test_jacobian_matches_finite_differences(self):
        sched = make_schedule("linear", 300)
        rng = np.random.default_rng(4)
        for prior in (gmm_2d(), GaussianPrior(mean=[0.1, -0.4], cov=[[1.0, 0.3], [0.3, 0.7]])):
            x = rng.standard_normal(2)
            out = prior.denoise(sched, 150, x)
            h = 1e-5
            fd = np.empty((2, 2))
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd[:, j] = (
                    prior.denoise(sched, 150, x + e).value - prior.denoise(sched, 150, x - e).value
                ) / (2 * h)
            np.testing.assert_allclose(jacobian_of(out, 2), fd, atol=1e-5)

    def test_jacobian_symmetric_psd(self):
        sched = make_schedule("cosine", 100)
        rng = np.random.default_rng(8)
        for prior in (gmm_2d(),):
            for _ in range(20):
                jac = jacobian_of(prior.denoise(sched, int(rng.integers(1, 101)), rng.standard_normal(2)), 2)
                np.testing.assert_allclose(jac, jac.T, atol=1e-10)
                assert np.min(np.linalg.eigvalsh(jac)) > -1e-10


def mcgdiff_grid_gmm(d=80):
    """The 25-component grid mixture of MCGdiff tiled to dimension d (unit covariances)."""
    grid = np.array([[8.0 * i, 8.0 * j] for i in range(-2, 3) for j in range(-2, 3)])
    return GmmPrior(
        weights=np.full(25, 1.0 / 25), means=np.tile(grid, (1, d // 2)), covs=np.broadcast_to(np.eye(d), (25, d, d))
    )


def noncommuting_gmm_3d():
    """Three components whose covariances have distinct eigenbases."""
    rng = np.random.default_rng(17)
    covs = []
    for scale in (0.4, 0.9, 1.6):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        covs.append(q @ np.diag(scale * np.array([0.5, 1.0, 2.0])) @ q.T)
    return GmmPrior(weights=[0.2, 0.5, 0.3], means=rng.standard_normal((3, 3)) * 1.5, covs=covs)


def fd_vjp(prior, sched, t, x, w, h=1e-5):
    """Central differences of x -> m_t(x) . w, coordinate by coordinate, for all points of x at once."""
    grad = np.empty_like(x)
    for k in range(x.shape[-1]):
        e = np.zeros(x.shape[-1])
        e[k] = h
        up = np.sum(prior.denoise(sched, t, x + e).value * w, axis=-1)
        down = np.sum(prior.denoise(sched, t, x - e).value * w, axis=-1)
        grad[..., k] = (up - down) / (2 * h)
    return grad


class TestDenoiserAffineLevels:
    """(J_t, b_t) are kept per (alpha_t, v_t); entries are read-only and never shared between priors."""

    @staticmethod
    def fresh(prior, sched, t):
        """The same spectral formula on a new prior, which has nothing cached yet."""
        return GaussianPrior(mean=prior.mean, cov=prior.cov).denoiser_affine(sched, t)

    def test_entries_are_read_only_and_repeatable(self):
        prior = GaussianPrior(mean=[0.1, -0.4], cov=[[1.0, 0.3], [0.3, 0.7]])
        sched = make_schedule("linear", 100)
        jac, bias = prior.denoiser_affine(sched, 40)
        for arr in (jac, bias):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        again = prior.denoiser_affine(sched, 40)
        assert again[0] is jac and again[1] is bias
        want_jac, want_bias = self.fresh(prior, sched, 40)
        assert np.array_equal(jac, want_jac) and np.array_equal(bias, want_bias)

    def test_two_schedules_never_share_entries(self):
        prior = GaussianPrior(mean=[0.5], cov=[[2.0]])
        linear, cosine = make_schedule("linear", 100), make_schedule("cosine", 100)
        for sched in (linear, cosine, linear):
            jac, bias = prior.denoiser_affine(sched, 30)
            want_jac, want_bias = self.fresh(prior, sched, 30)
            assert np.array_equal(jac, want_jac) and np.array_equal(bias, want_bias)
        assert not np.array_equal(prior.denoiser_affine(linear, 30)[0], prior.denoiser_affine(cosine, 30)[0])

    def test_two_priors_never_share_entries(self):
        sched = make_schedule("linear", 100)
        wide, narrow = GaussianPrior(mean=[1.0], cov=[[4.0]]), GaussianPrior(mean=[-1.0], cov=[[0.25]])
        for prior in (wide, narrow, wide):
            jac, bias = prior.denoiser_affine(sched, 30)
            want_jac, want_bias = self.fresh(prior, sched, 30)
            assert np.array_equal(jac, want_jac) and np.array_equal(bias, want_bias)

    def test_memory_bounded_by_levels_of_one_schedule(self):
        """Revisiting a level adds no entry, and a second schedule with the same alphas reads the same entries."""
        prior = gauss_1d()
        first, second = make_schedule("linear", 40), make_schedule("linear", 40)
        for _ in range(3):
            for t in range(1, 41):
                prior.denoiser_affine(first, t)
        assert len(prior._memo) == 40
        assert prior.denoiser_affine(second, 7) is prior.denoiser_affine(first, 7) and len(prior._memo) == 40

    def test_rejects_bad_levels(self):
        prior, sched = gauss_1d(), make_schedule("linear", 10)
        for t in (0, 11, -1):
            with pytest.raises(ValueError):
                prior.denoiser_affine(sched, t)


class TestGmmLevelConstants:
    """The level constants of ``GmmPrior._terms`` are kept, read-only, for every (alpha_t, v_t) seen."""

    @staticmethod
    def outputs(prior, sched, t, x, u):
        den = prior.denoise(sched, t, x)
        return (den.value, den.vjp(u), prior.score(sched, t, x), component_log_densities(prior, sched, t, x),
                responsibilities(prior, sched, t, x))

    @pytest.mark.parametrize("basis", ["shared", "separate"])
    def test_interleaved_levels_match_a_fresh_prior(self, basis):
        prior = gmm_instance(basis, 3, 4, np.random.default_rng(5))
        assert len(prior._eigvecs) == (1 if basis == "shared" else 4)
        linear, cosine = make_schedule("linear", 100), make_schedule("cosine", 100)
        rng = np.random.default_rng(6)
        x = prior.sample(7, rng) + rng.standard_normal((7, 3))
        u = rng.standard_normal((7, 3))
        visits = ((linear, 40), (linear, 70), (linear, 40), (cosine, 40), (linear, 40))
        for sched, t in visits:
            fresh = GmmPrior(weights=prior.weights, means=prior.means, covs=prior.covs)
            for got, want in zip(self.outputs(prior, sched, t, x, u), self.outputs(fresh, sched, t, x, u)):
                assert np.array_equal(got, want)
            arrays = prior._memo[(sched.alpha(t), sched.sigma2(0, t))]
            assert len(arrays) == 2
            for arr in arrays:
                assert not arr.flags.writeable
        assert {key[:2] for key in prior._memo} == {(sched.alpha(t), sched.sigma2(0, t)) for sched, t in visits}

    def test_a_vimh_run_builds_each_level_once(self, tmp_path, monkeypatch):
        """The 20-run VI-MH config of CI, covariances 0.3 I and 0.5 I: a DDPM sub-step or the next sweep's level
        does not evict a level, so each prior builds the constants of each (alpha_t, v_t) once."""
        from mgdm import harness

        built, build = [], GmmPrior._component_level

        def counted(self, a, v):
            built.append((id(self), a, v))
            return build(self, a, v)

        monkeypatch.setattr(GmmPrior, "_component_level", counted)
        config = {
            "prior": {"kind": "gmm", "weights": [0.3, 0.7], "means": [[1.0, 1.0], [-1.0, -0.5]],
                      "covs": [[[0.3, 0.0], [0.0, 0.3]], [[0.5, 0.0], [0.0, 0.5]]]},
            "likelihood": {"kind": "linear", "A": [[1.0, 0.5]], "y": [0.3], "sigma_y": 0.3},
            "schedule": {"family": "linear", "T": 200},
            "sampler": {"algorithm": "mgdm", "K": 10, "R": 1, "M": 5, "backend": "vi-mh", "mh_steps": 2,
                        "index": {"kind": "uniform-mix", "tau": 5},
                        "vi": {"eta_early": 0.1, "eta": 0.1, "steps_late": 10, "steps": 10}},
            "n_runs": 20, "master_seed": 7,
        }
        harness.run_experiment(config, tmp_path)
        assert len(built) > 20 and len(built) == len(set(built))

    def test_threads_alternating_levels_on_one_prior(self):
        """Threads that share a prior, each at its own level, get their own level's values: the score of
        a mixture and the denoiser of one with one covariance read their entries of the one ``_memo``."""
        import sys
        import threading

        rng = np.random.default_rng(5)
        for prior, method in ((gmm_instance("separate", 3, 4, rng), GmmPrior.score),
                              (shared_gmm(3, 4, True, rng), lambda *args: GmmPrior.denoise(*args).value)):
            sched = make_schedule("linear", 100)
            x = prior.sample(5, np.random.default_rng(6))
            fresh = GmmPrior(weights=prior.weights, means=prior.means, covs=prior.covs)
            want = {t: method(fresh, sched, t, x) for t in (20, 60)}
            wrong = []

            def work(t):
                for _ in range(5000):
                    if not np.array_equal(method(prior, sched, t, x), want[t]):
                        wrong.append(t)

            threads = [threading.Thread(target=work, args=(t,)) for t in (20, 60, 20, 60)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads) and wrong == [], prior._shared


class TestDenoiserVjp:
    def test_mcgdiff_scale_instance_matches_finite_differences(self):
        sched = make_schedule("linear", 1000)
        prior = mcgdiff_grid_gmm()
        rng = np.random.default_rng(40)
        for t in (5, 200, 900):
            x0 = prior.sample(4, rng)
            x = sched.forward_sample(x0, 0, t, rng)
            w = rng.standard_normal(x.shape)
            out = prior.denoise(sched, t, x)
            np.testing.assert_allclose(out.vjp(w), fd_vjp(prior, sched, t, x, w), atol=1e-5)

    def test_noncommuting_covariances_match_finite_differences(self):
        prior = noncommuting_gmm_3d()
        c = prior.covs
        assert np.max(np.abs(c[0] @ c[1] - c[1] @ c[0])) > 0.05
        sched = make_schedule("cosine", 400)
        rng = np.random.default_rng(41)
        for t in (3, 120, 390):
            x = rng.standard_normal((6, 3)) * 2.0
            w = rng.standard_normal(x.shape)
            out = prior.denoise(sched, t, x)
            np.testing.assert_allclose(out.vjp(w), fd_vjp(prior, sched, t, x, w), atol=1e-5)

    def test_single_component_gmm_matches_gaussian_value_and_vjp(self):
        sched = make_schedule("linear", 300)
        gauss = GaussianPrior(mean=[0.3, -0.2, 0.5], cov=[[0.8, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, 0.9]])
        mix = GmmPrior(weights=[1.0], means=[gauss.mean], covs=[gauss.cov])
        rng = np.random.default_rng(42)
        for t in (1, 150, 300):
            x = rng.standard_normal((5, 3))
            w = rng.standard_normal((5, 3))
            a, b = gauss.denoise(sched, t, x), mix.denoise(sched, t, x)
            np.testing.assert_allclose(a.value, b.value, atol=1e-10)
            np.testing.assert_allclose(a.vjp(w), b.vjp(w), atol=1e-10)
            np.testing.assert_allclose(a.vjp(w), fd_vjp(gauss, sched, t, x, w), atol=1e-5)

    @pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 4, 3)])
    def test_batch_shapes_match_pointwise(self, shape):
        sched = make_schedule("linear", 200)
        rng = np.random.default_rng(43)
        x = rng.standard_normal(shape)
        w = rng.standard_normal(shape)
        gauss = GaussianPrior(mean=[0.1, 0.2, -0.3], cov=np.diag([0.5, 1.0, 1.5]))
        shared = gmm_instance("shared", 3, 4, rng)
        for prior in (noncommuting_gmm_3d(), shared, gauss):
            out = prior.denoise(sched, 80, x)
            assert out.value.shape == shape and out.vjp(w).shape == shape
            flat_x, flat_w = x.reshape(-1, 3), w.reshape(-1, 3)
            for n in range(flat_x.shape[0]):
                one = prior.denoise(sched, 80, flat_x[n])
                np.testing.assert_allclose(out.value.reshape(-1, 3)[n], one.value, atol=1e-12)
                np.testing.assert_allclose(out.vjp(w).reshape(-1, 3)[n], one.vjp(flat_w[n]), atol=1e-12)
            if isinstance(prior, GmmPrior):
                for method in (GmmPrior.score, component_log_densities, responsibilities):
                    batch = method(prior, sched, 80, x)
                    assert batch.shape == shape[:-1] + (3 if method is GmmPrior.score else prior.n_components,)
                    for n in range(flat_x.shape[0]):
                        np.testing.assert_allclose(batch.reshape(flat_x.shape[0], -1)[n],
                                                   method(prior, sched, 80, flat_x[n]), rtol=1e-12, atol=1e-12)


def reference_gmm_pass(prior, sched, t, x, u):
    """The per-component formulas with the components leading, one (J, M, d) slab per term:
    (component log-densities (M, J), responsibilities (M, J), score, denoiser value, VJP with u),
    each S_j^{-1} built densely from an eigendecomposition of Sigma_j made here."""
    a, v = sched.alpha(t), sched.sigma2(0, t)
    d = prior.dim
    pts, dirs = x.reshape(-1, d), u.reshape(-1, d)
    logs, prec_diff, precs = [], [], []
    for w, m, cov in zip(prior.weights, prior.means, prior.covs):
        lam, q = np.linalg.eigh(cov)
        var = (a * a) * lam + v
        prec = (q / var) @ q.T
        diff = pts - a * m
        pd = diff @ prec
        logs.append(np.log(w) - 0.5 * (np.sum(diff * pd, axis=1) + d * np.log(2 * np.pi) + np.sum(np.log(var))))
        prec_diff.append(pd)
        precs.append(prec)
    logs, prec_diff = np.array(logs), np.array(prec_diff)
    resp = np.exp(logs - logs.max(axis=0))
    resp /= resp.sum(axis=0)
    score = -np.sum(resp[..., None] * prec_diff, axis=0)
    neg_proj = np.einsum("jmi,mi->jm", prec_diff, dirs)[..., None]
    mixed = np.sum(resp[..., None] * (np.einsum("jab,mb->jma", np.array(precs), dirs) - neg_proj * prec_diff), axis=0)
    vjp = (dirs - v * (mixed + score * np.sum(score * dirs, axis=1, keepdims=True))) / a
    lead = x.shape[:-1]
    return (logs.T.reshape(lead + (-1,)), resp.T.reshape(lead + (-1,)), score.reshape(x.shape),
            ((pts + v * score) / a).reshape(x.shape), vjp.reshape(x.shape))


def gmm_instance(basis, d, n_comp, rng):
    """Means scaled to 50 and eigenvalues in [e^-6, e]; "shared": diagonal covariances with
    per-component eigenvalues (the one basis eigh returns for all), "commuting": one random
    rotation for all, "separate": a random rotation each."""
    covs = []
    rotation = np.linalg.qr(rng.standard_normal((d, d)))[0] if basis == "commuting" else np.eye(d)
    for _ in range(n_comp):
        lam = np.sort(np.exp(rng.uniform(-6.0, 1.0, d)))
        q = np.linalg.qr(rng.standard_normal((d, d)))[0] if basis == "separate" else rotation
        covs.append((q * lam) @ q.T)
    weights = rng.uniform(0.5, 1.5, n_comp)
    return GmmPrior(weights=weights / weights.sum(), means=rng.uniform(-50.0, 50.0, (n_comp, d)), covs=covs)


class TestGmmComponentPass:
    """The points-last pass, with sums over components inside the basis change, against
    the per-component formulas."""

    # one component, or d = 1, always has a single eigenbasis; commuting covariances share
    # one even when eigh returns it only up to roundoff
    CASES = [(b, d, j) for b in ("shared", "separate") for d in (1, 2, 5, 80) for j in (1, 2, 25)
             if b == "shared" or (d > 1 and j > 1)] + [("commuting", d, 3) for d in (2, 5, 80)]

    @pytest.mark.parametrize("family", ["linear", "cosine"])
    @pytest.mark.parametrize("basis,d,n_comp", CASES)
    def test_matches_per_component_formulas(self, basis, d, n_comp, family):
        """Draws from p_t at every level, and far points (|x_i| up to 60) below t = T.  At t = T
        a far point's VJP is a difference of terms of size |u| / alpha_T that cancels to 1e-4 of
        them, where the per-component formulas are themselves only good to about 4e-8 (checked
        in extended precision)."""
        sched = make_schedule(family, 1000)
        rng = np.random.default_rng(d * 100 + n_comp)
        prior = gmm_instance(basis, d, n_comp, rng)
        assert (len(prior._eigvecs) == 1) == (basis != "separate")
        for t in (1, 10, 500, sched.T):
            x0 = prior.sample(12, rng)
            far = rng.uniform(-60.0, 60.0, (0 if t == sched.T else 4, d))
            x = np.vstack([sched.forward_sample(x0, 0, t, rng), far])
            u = rng.standard_normal(x.shape)
            want = reference_gmm_pass(prior, sched, t, x, u)
            out = prior.denoise(sched, t, x)
            got = (component_log_densities(prior, sched, t, x), responsibilities(prior, sched, t, x),
                   prior.score(sched, t, x), out.value, out.vjp(u))
            for name, g, w in zip(("logs", "resp", "score", "value", "vjp"), got, want):
                assert g.shape == w.shape
                assert np.max(np.abs(g - w)) <= 1e-9 * np.max(np.abs(w)), (name, t)

    def test_shared_basis_peak_memory_below_one_component_slab(self):
        """One denoise + VJP on the MCGdiff instance (M = 96) peaks below J * M * d * 8 bytes, in its
        closed form and in the component pass."""
        import tracemalloc

        sched = make_schedule("linear", 1000)
        rng = np.random.default_rng(44)
        for prior in (mcgdiff_grid_gmm(), per_component_twin(mcgdiff_grid_gmm())):
            x = sched.forward_sample(prior.sample(96, rng), 0, 300, rng)
            u = rng.standard_normal(x.shape)
            prior.denoise(sched, 300, x).vjp(u)
            tracemalloc.start()
            try:
                prior.denoise(sched, 300, x).vjp(u)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 25 * 96 * 80 * 8, prior._shared


def shared_gmm(d, n_comp, rotated, rng):
    """n_comp components with one covariance: 0.3 I (eigh returns I, so the basis is skipped), or
    Q diag(lam) Q^T with a random rotation Q and eigenvalues in [e^-3, e]."""
    cov = 0.3 * np.eye(d)
    if rotated:
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        cov = (q * np.exp(rng.uniform(-3.0, 1.0, d))) @ q.T
    weights = rng.uniform(0.5, 1.5, n_comp)
    return GmmPrior(weights=weights / weights.sum(), means=rng.uniform(-6.0, 6.0, (n_comp, d)), covs=[cov] * n_comp)


def per_component_twin(prior):
    """The same mixture with its shared-covariance form switched off: ``denoise`` runs
    ``_score``'s per-component pass."""
    twin = GmmPrior(weights=prior.weights, means=prior.means, covs=prior.covs)
    object.__setattr__(twin, "_shared", False)
    return twin


class TestSharedCovariance:
    """Components with one covariance: the denoiser and its VJP take the closed form about the weighted mean."""

    # a 1-D basis is always I
    CASES = [(d, j, rot) for d in (1, 2, 80) for j in (1, 2, 25) for rot in (False, True) if d > 1 or not rot]

    @pytest.mark.parametrize("d,n_comp,rotated", CASES)
    def test_matches_the_per_component_pass(self, d, n_comp, rotated):
        """Draws from p_t, and far points (|x_i| up to 30) for t <= 200, in every input shape."""
        sched = make_schedule("linear", 1000)
        rng = np.random.default_rng(10 * d + n_comp + rotated)
        prior = shared_gmm(d, n_comp, rotated, rng)
        assert prior._shared and (prior._basis is None) == (not rotated)
        twin = per_component_twin(prior)
        for t in (1, 10, 200, sched.T - 1):
            x0 = prior.sample(12, rng)
            far = rng.uniform(-30.0, 30.0, (4 if t <= 200 else 0, d))
            pool = np.vstack([sched.forward_sample(x0, 0, t, rng), far])
            for shape in ((d,), (len(pool), d), (2, len(pool) // 2, d)):
                x = pool[: int(np.prod(shape[:-1]))].reshape(shape)
                u = rng.standard_normal(shape)
                got, want = prior.denoise(sched, t, x), twin.denoise(sched, t, x)
                for g, w in ((got.value, want.value), (got.vjp(u), want.vjp(u))):
                    assert g.shape == w.shape == shape
                    assert np.max(np.abs(g - w)) <= 1e-10 * np.max(np.abs(w)), (t, shape)

    def test_vjp_matches_finite_differences_on_a_rotated_mixture(self):
        sched = make_schedule("cosine", 400)
        rng = np.random.default_rng(45)
        prior = shared_gmm(5, 4, True, rng)
        assert prior._shared and prior._basis is not None
        for t in (3, 120, 390):
            x = sched.forward_sample(prior.sample(6, rng), 0, t, rng)
            w = rng.standard_normal(x.shape)
            np.testing.assert_allclose(prior.denoise(sched, t, x).vjp(w), fd_vjp(prior, sched, t, x, w), atol=1e-5)

    @pytest.mark.parametrize("rotated", [False, True])
    def test_one_component_is_the_gaussian_denoiser(self, rotated):
        sched = make_schedule("linear", 1000)
        rng = np.random.default_rng(46)
        mix = shared_gmm(3, 1, rotated, rng)
        gauss = GaussianPrior(mean=mix.means[0], cov=mix.covs[0])
        for t in (1, 10, 200, 999):
            x = 3.0 * rng.standard_normal((7, 3))
            u = rng.standard_normal((7, 3))
            a, b = gauss.denoise(sched, t, x), mix.denoise(sched, t, x)
            for g, w in ((b.value, a.value), (b.vjp(u), a.vjp(u))):
                assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), t

    def test_equal_covariances_run_one_eigh_and_the_closed_form(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda mat: calls.append(1) or eigh(mat))
        sched = make_schedule("linear", 1000)
        x = np.random.default_rng(47).standard_normal((5, 80))
        prior = mcgdiff_grid_gmm()
        assert len(calls) == 1 and prior._shared and prior._memo == {}
        prior.denoise(sched, 30, x).vjp(x)
        level = (sched.alpha(30), sched.sigma2(0, 30), "shared")
        assert list(prior._memo) == [level]  # no per-component entry
        entry = prior._memo[level]
        assert len(entry) == 4 and [arr.size for arr in entry] == [80, 80, 80, 25]
        for arr in entry:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        prior.denoise(sched, 30, x)
        assert prior._memo[level] is entry and len(prior._memo) == 1

    @pytest.mark.parametrize("covs", [
        [np.eye(2) * 0.3, np.eye(2) * 0.5],
        [[[0.3, 0.1], [0.1, 0.4]], [[0.5, 0.0], [0.0, 0.2]]],
        [np.eye(2) * 0.3, np.eye(2) * np.nextafter(0.3, 1.0)],
    ], ids=["isotropic", "non-commuting", "one-ulp-apart"])
    def test_other_mixtures_keep_the_per_component_pass(self, monkeypatch, covs):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda mat: calls.append(1) or eigh(mat))
        sched = make_schedule("linear", 1000)
        prior = GmmPrior(weights=[0.3, 0.7], means=[[1.0, 1.0], [-1.0, -0.5]], covs=covs)
        assert len(calls) == 2 and not prior._shared
        prior.denoise(sched, 30, np.ones((4, 2)))
        assert list(prior._memo) == [(sched.alpha(30), sched.sigma2(0, 30))]

    @pytest.mark.parametrize("shape", [(3,), (5, 3), (2, 4, 3)])
    def test_vjp_unchanged_after_the_points_are_overwritten_in_a_rotated_basis(self, shape):
        """``TestIdentityBasis`` checks the shared form under I."""
        sched = make_schedule("linear", 1000)
        rng = np.random.default_rng(48)
        prior = shared_gmm(3, 4, True, rng)
        x = 4.0 * rng.standard_normal(shape)
        u = rng.standard_normal(shape)
        out = prior.denoise(sched, 300, x)
        want = out.vjp(u)
        x[...] = 123.0
        np.testing.assert_array_equal(out.vjp(u), want)


def unclamped_normalize_exp(logs):
    """``_normalize_exp`` without the clamp before its exp: the reference for the weights."""
    w = np.exp(logs - logs.max(axis=0, keepdims=True))
    w[w < 1e-200] = 0.0
    return w / w.sum(axis=0, keepdims=True)


class TestNormalizeExp:
    def test_far_logits_match_unclamped_formula_without_underflow(self):
        """Logit gaps near 1e4 (far components), gaps around the 1e-200 cut (-460.5), the -500
        clamp and the subnormal range, and -inf entries (zero-weight components): the clamped
        weights equal the unclamped ones bit for bit, and no exp underflows on the way."""
        rng = np.random.default_rng(5)
        logs = -1e4 * rng.uniform(0.0, 1.0, (25, 96))
        logs[:, :48] = rng.uniform(-800.0, 0.0, (25, 48))
        logs[0, :48] = 0.0
        logs[3, :6] = [-460.0, -460.6, -499.9, -500.0, -500.1, -745.0]
        logs[rng.random(logs.shape) < 0.2] = -np.inf
        logs[1] = rng.uniform(-1.0, 3.0, 96)  # every column keeps a finite maximum
        want = unclamped_normalize_exp(logs)
        with np.errstate(under="raise"):
            got = priors._normalize_exp(logs)
        np.testing.assert_array_equal(got, want)
        assert np.all(got[np.isneginf(logs)] == 0.0) and np.all(got[logs - logs.max(axis=0) < -460.6] == 0.0)

    def test_nan_column_stays_nan(self):
        logs = np.array([[0.0, np.nan], [-1e4, 1.0]])
        got = priors._normalize_exp(logs)
        np.testing.assert_array_equal(got, unclamped_normalize_exp(logs))
        assert np.all(np.isnan(got[:, 1])) and not np.any(np.isnan(got[:, 0]))


class TestIdentityBasis:
    """A shared eigenbasis equal to I is skipped: points enter and leave it unchanged."""

    def test_identity_basis_is_kept_only_when_it_is_exactly_i(self):
        assert mcgdiff_grid_gmm()._basis is None
        isotropic = GmmPrior(weights=[0.4, 0.6], means=[[0.0, 1.0], [1.0, 0.0]], covs=[np.eye(2) * 0.3, np.eye(2)])
        assert isotropic._basis is None
        assert GmmPrior(weights=[1.0], means=[[0.0, 0.0, 0.0]], covs=[np.diag([0.5, 1.0, 2.0])])._basis is None
        permuted = GmmPrior(weights=[1.0], means=[[0.0, 0.0]], covs=[np.diag([2.0, 1.0])])
        np.testing.assert_array_equal(permuted._basis, [[0.0, 1.0], [1.0, 0.0]])
        separate = GmmPrior(weights=[0.3, 0.7], means=[[1.0, 1.0], [-1.0, -0.5]],
                            covs=[[[0.3, 0.1], [0.1, 0.4]], [[0.5, 0.0], [0.0, 0.2]]])
        assert len(separate._eigvecs) == 2 and separate._basis.shape == (2, 4)

    @pytest.mark.parametrize("d", [2, 80])
    def test_bit_equal_to_an_explicit_identity_basis(self, d):
        """In the closed form of the shared covariance and in the component pass."""
        sched = make_schedule("linear", 1000)
        for make in (mcgdiff_grid_gmm, lambda d: per_component_twin(mcgdiff_grid_gmm(d))):
            prior, forced = make(d), make(d)
            object.__setattr__(forced, "_basis", np.eye(d))
            rng = np.random.default_rng(d)
            for t in (1, 10, 300, 1000):
                x = sched.forward_sample(prior.sample(24, rng), 0, t, rng)
                x = np.vstack([x, rng.uniform(-60.0, 60.0, (4, d))])
                u = rng.standard_normal(x.shape)
                a, b = prior.denoise(sched, t, x), forced.denoise(sched, t, x)
                np.testing.assert_array_equal(a.value, b.value)
                np.testing.assert_array_equal(a.vjp(u), b.vjp(u))
                np.testing.assert_array_equal(prior.score(sched, t, x), forced.score(sched, t, x))
            np.testing.assert_array_equal(prior.log_density(x), forced.log_density(x))

    @pytest.mark.parametrize("shape", [(2,), (5, 2), (3, 4, 2)])
    def test_vjp_unchanged_after_the_points_are_overwritten(self, shape):
        """In the closed form of the shared covariance and in the component pass."""
        sched = make_schedule("linear", 1000)
        for prior in (mcgdiff_grid_gmm(2), per_component_twin(mcgdiff_grid_gmm(2))):
            rng = np.random.default_rng(9)
            x = 6.0 * rng.standard_normal(shape)
            u = rng.standard_normal(shape)
            out = prior.denoise(sched, 300, x)
            want = out.vjp(u)
            x[...] = 123.0
            np.testing.assert_array_equal(out.vjp(u), want)


class TestScore:
    def test_matches_analytic_marginal_score(self):
        sched = make_schedule("linear", 500)
        prior = GaussianPrior(mean=[0.5, -0.3], cov=[[1.0, 0.3], [0.3, 0.7]])
        rng = np.random.default_rng(1)
        t = 200
        p_t = smoothed(prior, sched, t)
        mean, cov = p_t.mean, p_t.cov
        for _ in range(20):
            x = rng.standard_normal(2) * 2.0
            expected = -np.linalg.solve(cov, x - mean)
            np.testing.assert_allclose(prior.score(sched, t, x), expected, atol=1e-10)

    def test_matches_finite_differences_of_log_marginal(self):
        sched = make_schedule("linear", 300)
        rng = np.random.default_rng(6)
        h = 1e-4
        for prior in (gauss_1d(), gmm_2d()):
            d = prior.dim
            for _ in range(10):
                x = rng.standard_normal(d)
                t = int(rng.integers(1, 301))
                grad = prior.score(sched, t, x)
                fd = np.empty(d)
                for j in range(d):
                    e = np.zeros(d)
                    e[j] = h
                    fd[j] = (
                        marginal_log_density(prior, sched, t, x + e)
                        - marginal_log_density(prior, sched, t, x - e)
                    ) / (2 * h)
                np.testing.assert_allclose(grad, fd, atol=1e-5)

    def test_zero_at_marginal_mode(self):
        sched = make_schedule("linear", 100)
        prior = GaussianPrior(mean=[1.5], cov=[[0.6]])
        t = 40
        x_mode = sched.alpha(t) * prior.mean
        np.testing.assert_allclose(prior.score(sched, t, x_mode), [0.0], atol=1e-12)

    def test_tweedie_identity(self):
        """m_t(x) = (x + v_t * score(x)) / alpha_t for both prior families."""
        sched = make_schedule("cosine", 400)
        rng = np.random.default_rng(12)
        for prior in (GaussianPrior(mean=[0.2, 0.9], cov=[[0.7, -0.2], [-0.2, 1.1]]), gmm_2d()):
            for _ in range(100):
                t = int(rng.integers(1, 401))
                x = rng.standard_normal(2) * 1.5
                lhs = prior.denoise(sched, t, x).value
                rhs = (x + sched.sigma2(0, t) * prior.score(sched, t, x)) / sched.alpha(t)
                np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestMarginalDensity:
    def test_t_zero_is_prior_density(self):
        sched = make_schedule("linear", 50)
        prior = gmm_2d()
        x = np.array([0.3, -0.8])
        np.testing.assert_allclose(
            marginal_log_density(prior, sched, 0, x), prior.log_density(x), atol=1e-12
        )

    def test_half_alpha_convolution(self):
        """N(0,1) prior, alpha = 0.5: p_t = N(0, 0.25 + 0.75) = N(0, 1)."""
        sched = half_alpha_schedule()
        np.testing.assert_allclose(
            marginal_log_density(gauss_1d(), sched, 1, np.zeros(1)), -0.9189385, atol=1e-7
        )

    def test_gmm_log_sum_exp_of_components(self):
        sched = make_schedule("linear", 100)
        prior = gmm_2d()
        x = np.array([0.5, 0.1])
        t = 30
        logs = component_log_densities(prior, sched, t, x)
        np.testing.assert_allclose(
            marginal_log_density(prior, sched, t, x),
            np.log(np.sum(np.exp(logs))),
            atol=1e-12,
        )


class TestBackwardSampling:
    def test_gaussian_moments_match_conjugate_formula(self):
        sched = make_schedule("linear", 200)
        prior = GaussianPrior(mean=[0.4, -0.1], cov=[[0.9, 0.25], [0.25, 0.6]])
        t, n = 140, 100_000
        x_t = np.array([0.7, -0.9])
        rng = np.random.default_rng(10)
        draws = prior.backward_sample(sched, t, np.tile(x_t, (n, 1)), rng)
        gain, const, var = cholesky_backward_moments(prior, sched, 0, t)
        target_mean = gain @ x_t + const
        se = np.sqrt(np.diag(var) / n)
        assert np.all(np.abs(draws.mean(axis=0) - target_mean) < 4 * se)
        np.testing.assert_allclose(np.cov(draws.T), var, atol=4 * np.max(var) * np.sqrt(2.0 / n) + 1e-4)

    def test_full_backward_chain_recovers_prior(self):
        """x_t ~ p_t then x_0 ~ p_{0|t} is distributed as the prior."""
        sched = make_schedule("linear", 100)
        prior = GaussianPrior(mean=[0.5, -0.2], cov=[[1.0, 0.4], [0.4, 0.8]])
        rng = np.random.default_rng(21)
        n, t = 100_000, 100
        x0 = prior.sample(n, rng)
        x_t = sched.forward_sample(x0, 0, t, rng)
        back = prior.backward_sample(sched, t, x_t, rng)
        ref = prior.sample(n, np.random.default_rng(22))
        sw = sliced_wasserstein2(back, ref, n_projections=64, rng=np.random.default_rng(1))
        assert sw < 0.05

    def test_ddpm_kernel_mean_matches_exact_backward_mean(self):
        """The plugged bridge of the DDPM transition reproduces the exact
        backward mean for a Gaussian prior (variances differ)."""
        sched = make_schedule("linear", 200)
        prior = GaussianPrior(mean=[0.1, 0.6], cov=[[0.9, -0.2], [-0.2, 0.7]])
        rng = np.random.default_rng(14)
        for _ in range(20):
            s = int(rng.integers(1, 199))
            t = int(rng.integers(s + 1, 201))
            x_t = rng.standard_normal(2)
            p = sched.bridge_params(s, t)
            ddpm_mean = p.mean_coeff_x0 * prior.denoise(sched, t, x_t).value + p.mean_coeff_xt * x_t
            gain, const, _ = cholesky_backward_moments(prior, sched, s, t)
            np.testing.assert_allclose(ddpm_mean, gain @ x_t + const, atol=1e-10)


def cholesky_backward_moments(prior, sched, s, t):
    """(G, g, V) of p_{s|t} from the factorized formula: G = Cov(X_s, X_t) S_t^{-1}
    by a Cholesky factor of S_t and two triangular solves."""
    a_s, a_t = sched.alpha(s), sched.alpha(t)
    s_s, s_t = smoothed(prior, sched, s).cov, smoothed(prior, sched, t).cov
    cross = (a_t / a_s) * s_s
    chol = np.linalg.cholesky(s_t)
    gain = solve_triangular(chol.T, solve_triangular(chol, cross.T, lower=True), lower=False).T
    var = s_s - gain @ cross.T
    return gain, a_s * prior.mean - gain @ (a_t * prior.mean), 0.5 * (var + var.T)


def eigen_backward_moments(prior, sched, t):
    """(G, g, V) of p(x_0 | x_t) from the diagonal scalings in the prior's eigenbasis: the denoiser's
    affine map, whose mean backward_sample draws around, and Sigma_{0|t}."""
    jac, bias = prior.denoiser_affine(sched, t)
    return jac.T, bias, prior.posterior_x0_cov(sched, t)


def random_spd(d, rng):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (q * rng.uniform(0.2, 3.0, d)) @ q.T


def eigen_root(cov, var):
    """Q sqrt(diag(Q^T V Q)) for the eigenbasis Q of a prior covariance."""
    q = np.linalg.eigh(cov)[1]
    return q * np.sqrt(np.diag(q.T @ var @ q))


class TestClosedFormBackward:
    """Eigenbasis x_0 | x_t draws against the Cholesky formula they replace."""

    TIMES = (1, 37, 200)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_moments_match_cholesky_formula(self, d):
        sched = make_schedule("linear", 200)
        rng = np.random.default_rng(d)
        for _ in range(3):
            prior = GaussianPrior(mean=rng.standard_normal(d), cov=random_spd(d, rng))
            for t in self.TIMES:
                want = cholesky_backward_moments(prior, sched, 0, t)
                for got, ref in zip(eigen_backward_moments(prior, sched, t), want):
                    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_draw_is_mean_plus_eigen_root_noise(self, d):
        """x_0 = G x_t + g + Q sqrt(V) eps, with eps the generator's next standard normals."""
        sched = make_schedule("cosine", 200)
        rng = np.random.default_rng(10 + d)
        prior = GaussianPrior(mean=rng.standard_normal(d), cov=random_spd(d, rng))
        x_t = rng.standard_normal((30, d))
        for t in self.TIMES:
            gain, const, var = cholesky_backward_moments(prior, sched, 0, t)
            eps = np.random.default_rng(5).standard_normal(x_t.shape)
            want = x_t @ gain.T + const + eps @ eigen_root(prior.cov, var).T
            got = prior.backward_sample(sched, t, x_t, np.random.default_rng(5))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            root = eigen_root(prior.cov, var)
            np.testing.assert_allclose(root @ root.T, var, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_draw_is_denoiser_mean_plus_spectral_root_noise(self, d):
        """x_0 = x_t J_t + b_t + eps root^T exactly, with (J_t, b_t) the memoized denoiser_affine,
        root = Q diag(sqrt(v_t lam / S_t)) and eps the generator's next standard normals."""
        sched = make_schedule("cosine", 200)
        rng = np.random.default_rng(20 + d)
        prior = GaussianPrior(mean=rng.standard_normal(d), cov=random_spd(d, rng))
        lam, q = np.linalg.eigh(prior.cov)
        x_t = rng.standard_normal((30, d))
        for t in self.TIMES:
            jac, bias = prior.denoiser_affine(sched, t)
            a, v = sched.alpha(t), sched.sigma2(0, t)
            root = q * np.sqrt(lam * v / ((a * a) * lam + v))
            eps = np.random.default_rng(5).standard_normal(x_t.shape)
            got = prior.backward_sample(sched, t, x_t, np.random.default_rng(5))
            np.testing.assert_array_equal(got, x_t @ jac + bias + eps @ root.T)


class TestExactPosterior:
    def test_conjugate_1d(self):
        """N(0,1) prior, A=1, sigma_y=1, y=2 -> posterior N(1, 0.5)."""
        post = exact_posterior(gauss_1d(), LinearGaussianLikelihood(A=[[1.0]], y=[2.0], sigma_y=1.0))
        np.testing.assert_allclose(post.mean, [1.0], atol=1e-12)
        np.testing.assert_allclose(post.cov, [[0.5]], atol=1e-12)

    def test_uninformative_observation(self):
        prior = GaussianPrior(mean=[0.4, -0.6], cov=[[1.0, 0.2], [0.2, 0.5]])
        lik = LinearGaussianLikelihood(A=np.eye(2), y=[5.0, -3.0], sigma_y=1e6)
        post = exact_posterior(prior, lik)
        kl = gaussian_kl(post, prior)
        assert kl < 1e-6

    def test_zero_operator_returns_prior(self):
        prior = GaussianPrior(mean=[0.4], cov=[[0.9]])
        lik = LinearGaussianLikelihood(A=[[0.0]], y=[3.0], sigma_y=0.5)
        post = exact_posterior(prior, lik)
        np.testing.assert_allclose(post.mean, prior.mean, atol=1e-12)
        np.testing.assert_allclose(post.cov, prior.cov, atol=1e-12)

    def test_rejects_nonlinear_likelihood(self):
        lik = QuadraticLikelihood(A=[[1.0]], y=[4.0], sigma_y=1.0)
        with pytest.raises(TypeError):
            exact_posterior(gauss_1d(), lik)

    def test_rejects_operator_of_another_dimension(self):
        """A one-column A on a 2-D prior would broadcast A^T A onto the prior precision."""
        lik = LinearGaussianLikelihood(A=[[1.0]], y=[1.0], sigma_y=0.5)
        gmm = GmmPrior(weights=[0.5, 0.5], means=[[1.0, 1.0], [-1.0, 0.0]], covs=[np.eye(2)] * 2)
        for prior in (GaussianPrior(mean=np.zeros(2), cov=np.eye(2)), gmm):
            with pytest.raises(ValueError, match="likelihood A needs 2 columns, the prior's dimension, but has 1"):
                exact_posterior(prior, lik)

    def test_gmm_posterior_reweights_components(self):
        prior = GmmPrior(
            weights=[0.5, 0.5], means=[[-2.0], [2.0]], covs=[[[0.2]], [[0.2]]]
        )
        lik = LinearGaussianLikelihood(A=[[1.0]], y=[1.8], sigma_y=0.5)
        post = exact_posterior(prior, lik)
        assert post.weights[1] > 0.95

    def test_gmm_posterior_gives_a_zero_weight_component_weight_zero(self):
        """The log weight is the one the prior took under np.errstate: np.log(0.0) warned "divide by zero"."""
        prior = GmmPrior(weights=[1.0, 0.0], means=[[-2.0], [2.0]], covs=[[[0.2]], [[0.3]]])
        lik = LinearGaussianLikelihood(A=[[1.0]], y=[1.8], sigma_y=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            post = exact_posterior(prior, lik)
        assert post.weights.tolist() == [1.0, 0.0]

    def test_gmm_posterior_moments_vs_monte_carlo(self):
        prior = gmm_2d()
        lik = LinearGaussianLikelihood(A=[[1.0, 0.5]], y=[0.3], sigma_y=0.4)
        post = exact_posterior(prior, lik)
        draws = post.sample(200_000, np.random.default_rng(2))
        mom = post.moments()
        np.testing.assert_allclose(draws.mean(axis=0), mom.mean, atol=0.01)
        np.testing.assert_allclose(np.cov(draws.T), mom.cov, atol=0.02)


class TestGaussianLaws:
    def test_every_exact_gaussian_law_is_a_gaussian_prior(self):
        """The moment oracle's output, the exact conditional and both families' moment matches are each a
        GaussianPrior, the one type of an exact Gaussian law, as the conjugate posterior is; a Gaussian
        prior's moment match is the prior itself."""
        from mgdm.oracle import oracle_recursion
        from mgdm.sampler import IndexDistribution, MgdmConfig
        from references import exact_conditional

        sched = make_schedule("linear", 1000)
        prior = GaussianPrior(mean=[1.0, -0.5], cov=[[1.0, 0.3], [0.3, 0.7]])
        lik = LinearGaussianLikelihood(A=[[1.0, 0.4], [0.0, 0.8]], y=[2.4, -1.6], sigma_y=0.5)
        cfg = MgdmConfig(timesteps=(500, 1000), conditional="exact", denoise="exact",
                         index_dist=IndexDistribution(kind="fixed", values=(250,)))
        x0, xt = np.zeros(2), np.ones(2)
        laws = [oracle_recursion(prior, lik, sched, cfg), exact_conditional(lik, prior, sched, 100, 500, x0, xt),
                prior.moments(), gmm_2d().moments(), exact_posterior(prior, lik)]
        assert [type(law) for law in laws] == [GaussianPrior] * 5
        assert prior.moments() is prior


class TestNumpyKernels:
    """The numpy spd_inverse and log-sum-exp against scipy, which the tests keep as an independent reference."""

    @staticmethod
    def triangular_solve_inverse(mat):
        """Symmetrized inverse from a Cholesky factor and two scipy triangular solves."""
        chol = np.linalg.cholesky(mat)
        out = solve_triangular(chol.T, solve_triangular(chol, np.eye(len(mat)), lower=True), lower=False)
        return 0.5 * (out + out.T)

    @pytest.mark.parametrize("d", [1, 2, 5, 80])
    @pytest.mark.parametrize("cond", [1.0, 1e2, 1e4])
    def test_spd_inverse_matches_triangular_solves(self, d, cond):
        """Entrywise within 1e-12 of the entry or of the largest entry, whichever is larger:
        entries near 0 carry the absolute roundoff of the whole product."""
        rng = np.random.default_rng(d)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            mat = (q * (rng.uniform(0.5, 2.0) * np.logspace(0.0, -np.log10(cond), d))) @ q.T
            want = self.triangular_solve_inverse(0.5 * (mat + mat.T))
            got = spd_inverse(mat)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
            np.testing.assert_array_equal(got, got.T)

    @pytest.mark.parametrize("mat", [[[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]], [[-1.0]]],
                             ids=["indefinite", "singular", "negative"])
    def test_spd_inverse_rejects_non_spd(self, mat):
        with pytest.raises(np.linalg.LinAlgError):
            spd_inverse(np.asarray(mat))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_logsumexp_matches_scipy(self, axis):
        """Random log-weights with -inf entries (zero-weight components) in some slices."""
        rng = np.random.default_rng(3)
        logs = 30.0 * rng.standard_normal((6, 9))
        logs[rng.random(logs.shape) < 0.3] = -np.inf
        logs[0, 0] = 800.0  # far above the rest: exp overflows without the shift
        np.testing.assert_allclose(priors.logsumexp(logs, axis=axis), logsumexp(logs, axis=axis), rtol=1e-14)
        np.testing.assert_allclose(priors.logsumexp(logs[:, 3], axis=0), logsumexp(logs[:, 3]), rtol=1e-14)

    def test_logsumexp_of_all_neg_inf_slice_is_neg_inf_without_warning(self):
        logs = np.array([[-np.inf, 0.0], [-np.inf, np.log(3.0)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = priors.logsumexp(logs, axis=0)
            assert priors.logsumexp(np.full(4, -np.inf), axis=0) == -np.inf
        assert out[0] == -np.inf
        np.testing.assert_allclose(out[1], np.log(4.0), rtol=1e-15)


def config_form(prior):
    """The prior section of a config that ``prior_from_json`` reads back to ``prior``."""
    if isinstance(prior, GaussianPrior):
        return {"kind": "gaussian", "mean": prior.mean.tolist(), "cov": prior.cov.tolist()}
    return {"kind": "gmm", "weights": prior.weights.tolist(), "means": prior.means.tolist(), "covs": prior.covs.tolist()}


class TestSerialization:
    def test_gaussian_round_trip(self):
        prior = GaussianPrior(mean=[0.1, 0.2], cov=[[1.0, 0.3], [0.3, 0.9]])
        clone = prior_from_json(json.loads(json.dumps(config_form(prior))))
        np.testing.assert_array_equal(clone.mean, prior.mean)
        np.testing.assert_array_equal(clone.cov, prior.cov)

    def test_gmm_round_trip(self):
        prior = gmm_2d()
        clone = prior_from_json(json.loads(json.dumps(config_form(prior))))
        np.testing.assert_array_equal(clone.weights, prior.weights)
        np.testing.assert_array_equal(clone.means, prior.means)
        np.testing.assert_array_equal(clone.covs, prior.covs)

    def test_config_forms_round_trip(self):
        """The config form (mean/cov, means/covs) reads to the same prior, which round-trips."""
        gauss_spec = {"kind": "gaussian", "mean": [0.1, 0.2], "cov": [[1.0, 0.3], [0.3, 0.9]]}
        gmm = gmm_2d()
        gmm_spec = {
            "kind": "gmm", "weights": gmm.weights.tolist(), "means": gmm.means.tolist(), "covs": gmm.covs.tolist()
        }
        for spec, fields in ((gauss_spec, ("mean", "cov")), (gmm_spec, ("weights", "means", "covs"))):
            prior = prior_from_json(spec)
            clone = prior_from_json(config_form(prior))
            assert type(prior) is type(clone)
            for name in fields:
                np.testing.assert_array_equal(getattr(prior, name), np.asarray(spec[name]))
                np.testing.assert_array_equal(getattr(clone, name), getattr(prior, name))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            prior_from_json({"kind": "laplace", "mean": [0.0], "cov": [[1.0]]})
