"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s``).
The 2-D reference instance (Gaussian prior + full linear observation)
drives the oracle-equivalence, posterior-consistency, and VI-quality
criteria; the bimodal instance drives the scaling-trend criterion.
"""

import math
import time

import numpy as np
import pytest

from mgdm.likelihoods import LinearGaussianLikelihood, guidance, log_g_hat
from mgdm.metrics import gaussian_kl, sliced_wasserstein2
from mgdm.oracle import QuadratureJoint, auto_grids, oracle_recursion
from mgdm.priors import GaussianPrior, GmmPrior, exact_posterior
from mgdm.sampler import (
    IndexDistribution,
    MgdmConfig,
    ViPhaseSchedule,
    gibbs_step,
    make_timesteps,
    mgdm_run_batch,
)
from mgdm.schedule import gauss_log_density, make_schedule
from mgdm.vi import fit_variational, independent_mh, variational_sample
from references import exact_conditional


def reference_2d():
    """The 2-D reference instance shared by criteria 5-7."""
    sched = make_schedule("linear", 1000)
    prior = GaussianPrior(mean=[1.0, -0.5], cov=[[1.0, 0.3], [0.3, 0.7]])
    lik = LinearGaussianLikelihood(A=[[1.0, 0.4], [0.0, 0.8]], y=[2.4, -1.6], sigma_y=0.5)
    return lik, prior, sched


def reference_1d(sigma_y=0.5):
    sched = make_schedule("linear", 1000)
    prior = GaussianPrior(mean=[0.3], cov=[[0.8]])
    lik = LinearGaussianLikelihood(A=[[1.1]], y=[0.7], sigma_y=sigma_y)
    return lik, prior, sched


def midpoint_sequence(ts):
    return tuple(max(2, ts[i - 2] // 2) for i in range(len(ts), 1, -1))


def report(num, label, elapsed, budget=None):
    extra = "" if budget is None else f" [{elapsed:.1f}s < {budget:.0f}s]"
    print(f"criterion {num:02d} PASS ({elapsed:.2f}s): {label}{extra}")


def test_criterion_01_kernel_identities():
    """Bridge factorization and forward composition to 1e-10, < 1 s."""
    started = time.perf_counter()
    sched = make_schedule("linear", 1000)
    rng = np.random.default_rng(1001)
    for _ in range(20):
        s = int(rng.integers(1, 999))
        t = int(rng.integers(s + 1, 1001))
        x0, xs, xt = rng.standard_normal((3, 100, 2)) * 2.0
        lhs = gauss_log_density(xs, sched.alpha_ratio(0, s) * x0, sched.sigma2(0, s))
        lhs = lhs + gauss_log_density(xt, sched.alpha_ratio(s, t) * xs, sched.sigma2(s, t))
        p = sched.bridge_params(s, t)
        rhs = gauss_log_density(xs, p.mean_coeff_x0 * x0 + p.mean_coeff_xt * xt, p.variance)
        rhs = rhs + gauss_log_density(xt, sched.alpha_ratio(0, t) * x0, sched.sigma2(0, t))
        assert np.max(np.abs(lhs - rhs)) < 1e-10
        l = int(rng.integers(0, s + 1)) if s > 0 else 0
        np.testing.assert_allclose(
            sched.alpha_ratio(l, s) * sched.alpha_ratio(s, t), sched.alpha_ratio(l, t), atol=1e-12
        )
        np.testing.assert_allclose(
            sched.sigma2(s, t) + sched.alpha_ratio(s, t) ** 2 * sched.sigma2(l, s),
            sched.sigma2(l, t),
            atol=1e-12,
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, "bridge factorization + forward composition at 1e-10", elapsed, 1.0)


def test_criterion_02_tweedie_and_gradients():
    """Denoiser-from-score identity at 1e-10 and potential gradients vs
    finite differences at 1e-5, for both priors in d = 1, 2, 5; < 10 s."""
    started = time.perf_counter()
    sched = make_schedule("linear", 400)
    rng = np.random.default_rng(1002)
    for d in (1, 2, 5):
        base = rng.standard_normal((d, d))
        priors = [
            GaussianPrior(mean=rng.standard_normal(d), cov=base @ base.T + d * np.eye(d)),
            GmmPrior(
                weights=[0.45, 0.55],
                means=rng.standard_normal((2, d)),
                covs=[np.eye(d) * 0.6, np.eye(d) * 0.9],
            ),
        ]
        lik = LinearGaussianLikelihood(
            A=rng.standard_normal((max(1, d - 1), d)), y=rng.standard_normal(max(1, d - 1)), sigma_y=0.8
        )
        for prior in priors:
            for _ in range(20):
                t = int(rng.integers(1, 401))
                x = rng.standard_normal(d) * 1.5
                value = prior.denoise(sched, t, x).value
                tweedie = (x + sched.sigma2(0, t) * prior.score(sched, t, x)) / sched.alpha(t)
                assert np.max(np.abs(value - tweedie)) < 1e-10
            h = 1e-5
            for _ in range(10):
                s = int(rng.integers(1, 401))
                x = rng.standard_normal(d)
                grad = guidance(lik, prior, sched, s)(x)
                fd = np.empty(d)
                for j in range(d):
                    e = np.zeros(d)
                    e[j] = h
                    fd[j] = (
                        log_g_hat(lik, prior, sched, s, x + e)
                        - log_g_hat(lik, prior, sched, s, x - e)
                    ) / (2 * h)
                assert np.max(np.abs(grad - fd)) < 1e-5
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(2, "Tweedie identity 1e-10 + potential gradients vs FD 1e-5", elapsed, 10.0)


def test_criterion_03_exact_conditional_vs_quadrature():
    """exact_conditional matches quadrature moments to 1e-8 on 10 draws."""
    started = time.perf_counter()
    from scipy.special import roots_hermitenorm

    nodes, weights = roots_hermitenorm(401)
    weights = weights / math.sqrt(2 * math.pi)
    keep = weights > 0
    nodes, weights = nodes[keep], weights[keep]
    rng = np.random.default_rng(1003)
    sched = make_schedule("linear", 1000)
    for _ in range(10):
        prior = GaussianPrior(mean=[float(rng.normal())], cov=[[float(rng.uniform(0.3, 1.5))]])
        lik = LinearGaussianLikelihood(
            A=[[float(rng.uniform(0.5, 1.5))]],
            y=[float(rng.normal())],
            sigma_y=float(rng.uniform(0.3, 1.0)),
        )
        s = int(rng.integers(2, 500))
        t = int(rng.integers(s + 1, 1001))
        x0 = np.array([float(rng.normal())])
        xt = np.array([float(rng.normal())])
        mom = exact_conditional(lik, prior, sched, s, t, x0, xt)
        p = sched.bridge_params(s, t)
        m_b = p.mean_coeff_x0 * x0[0] + p.mean_coeff_xt * xt[0]
        xs = (m_b + math.sqrt(p.variance) * nodes)[:, None]
        logpot = log_g_hat(lik, prior, sched, s, xs)
        w = weights * np.exp(logpot - logpot.max())
        w /= w.sum()
        q_mean = float(np.sum(w * xs[:, 0]))
        q_var = float(np.sum(w * xs[:, 0] ** 2)) - q_mean**2
        assert abs(mom.mean[0] - q_mean) < 1e-8
        assert abs(mom.cov[0, 0] - q_var) < 1e-8
    elapsed = time.perf_counter() - started
    report(3, "exact conditional vs quadrature moments at 1e-8, 10 instances", elapsed)


def test_criterion_04_gibbs_stationarity():
    """One exact-backend sweep from exact joint draws preserves all three
    marginal means/variances within 3 MC standard errors (1e5 chains)."""
    started = time.perf_counter()
    lik, prior, sched = reference_1d()
    s, t, n = 60, 400, 100_000
    rng = np.random.default_rng(1004)
    joint = QuadratureJoint(lik, prior, sched, s, t, auto_grids(lik, prior, sched, s, t, n=1024))
    pts, dens = joint.marginal("xs")
    cdf = np.cumsum(dens * joint.grids["xs"].weights)
    cdf /= cdf[-1]
    xs = np.interp(rng.random(n), cdf, pts)[:, None]
    x0 = prior.backward_sample(sched, s, xs, rng)
    xt = sched.forward_sample(xs, s, t, rng)

    cfg = MgdmConfig(timesteps=(100, 1000), conditional="exact", denoise="exact")
    out = gibbs_step(x0, xt, s, t, lik, prior, sched, cfg, cfg.vi.resolve(cfg.K, cfg.K), rng)

    for axis, arr in zip(("x0", "xs", "xt"), (a[:, 0] for a in out)):
        ref_mean, ref_var = joint.moments(axis)
        se_mean = arr.std(ddof=1) / math.sqrt(n)
        assert abs(arr.mean() - ref_mean) < 3 * se_mean, axis
        emp_var = arr.var(ddof=1)
        fourth = np.mean((arr - arr.mean()) ** 4)
        se_var = math.sqrt(max(fourth - emp_var**2, 1e-300) / n)
        assert abs(emp_var - ref_var) < 3 * se_var, axis
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(4, "one Gibbs sweep preserves quadrature-exact marginal moments", elapsed, 60.0)


def test_criterion_05_oracle_equivalence_flagship():
    """K=25, R=4, fixed indices, exact backend, 1e4 runs: empirical mean
    and covariance match the moment recursion within 3 MC standard errors."""
    started = time.perf_counter()
    lik, prior, sched = reference_2d()
    ts = make_timesteps(25, 1000)
    seq = midpoint_sequence(ts)
    cfg = MgdmConfig(
        timesteps=ts, R=4, conditional="exact", denoise="exact",
        index_dist=IndexDistribution(kind="fixed", values=seq),
    )
    n = 10_000
    samples = mgdm_run_batch(lik, prior, sched, cfg, n, np.random.default_rng(1005))
    oracle = oracle_recursion(prior, lik, sched, cfg)

    z_mean = (samples.mean(axis=0) - oracle.mean) / np.sqrt(np.diag(oracle.cov) / n)
    assert np.all(np.abs(z_mean) < 3.0), z_mean

    emp_cov = np.cov(samples.T, bias=False)
    boot_rng = np.random.default_rng(1006)
    boots = np.empty((200, 2, 2))
    for b in range(200):
        idx = boot_rng.integers(0, n, size=n)
        boots[b] = np.cov(samples[idx].T, bias=False)
    se_cov = boots.std(axis=0, ddof=1)
    z_cov = (emp_cov - oracle.cov) / se_cov
    assert np.all(np.abs(z_cov) < 3.0), z_cov
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(5, "flagship oracle equivalence at 3 sigma (1e4 runs)", elapsed, 300.0)


def test_criterion_06_posterior_consistency():
    """K=50, R=8: KL(oracle output || conjugate posterior) < 1e-2 and the
    KL is non-increasing across R in {1, 2, 4, 8}."""
    started = time.perf_counter()
    lik, prior, sched = reference_2d()
    post = exact_posterior(prior, lik)
    ts = make_timesteps(50, 1000)
    seq = midpoint_sequence(ts)
    kls = []
    for r_val in (1, 2, 4, 8):
        om = oracle_recursion(prior, lik, sched, MgdmConfig(
            timesteps=ts, R=r_val, conditional="exact", denoise="exact",
            index_dist=IndexDistribution(kind="fixed", values=seq)
        ))
        kls.append(gaussian_kl(om, post))
    assert kls[-1] < 1e-2, kls
    assert all(b <= a + 1e-12 for a, b in zip(kls, kls[1:])), kls
    elapsed = time.perf_counter() - started
    report(6, f"oracle-to-posterior KL {kls[-1]:.4f} < 1e-2, non-increasing in R", elapsed)


def test_criterion_07_vi_quality():
    """G=200, eta=0.03 on the 2-D reference instance: fitted variational
    mean within 0.05 relative error of the exact conditional mean,
    averaged over 100 seeds."""
    started = time.perf_counter()
    lik, prior, sched = reference_2d()
    s, t = 180, 520
    x0 = exact_posterior(prior, lik).mean
    xt = sched.alpha(t) * x0
    exact = exact_conditional(lik, prior, sched, s, t, x0, xt)
    scale = np.linalg.norm(exact.mean)
    guide, bridge = guidance(lik, prior, sched, s), sched.bridge_params(s, t)  # as the Gibbs sweep passes them
    bridge_mean = bridge.mean(x0, xt)
    errs = []
    for seed in range(100):
        theta = fit_variational(guide, bridge_mean, bridge.variance, 200, 0.03, np.random.default_rng((1007, seed)))
        errs.append(np.linalg.norm(theta[0] - exact.mean) / scale)
    mean_err = float(np.mean(errs))
    assert mean_err < 0.05, mean_err
    elapsed = time.perf_counter() - started
    report(7, f"variational mean rel. error {mean_err:.4f} < 0.05 over 100 seeds", elapsed)


def test_criterion_08_scaling_trend():
    """Bimodal 2-D instance, half-observed operator, sigma_y = 0.05:
    median sliced-W2 to the exact GMM posterior over 20 seeds is
    non-increasing across R in {1, 2, 4, 6}; < 10 min."""
    started = time.perf_counter()
    sched = make_schedule("linear", 1000)
    prior = GmmPrior(
        weights=[0.5, 0.5],
        means=[[-1.0, -1.0], [1.0, 1.0]],
        covs=[np.eye(2) * 0.3, np.eye(2) * 0.3],
    )
    lik = LinearGaussianLikelihood(A=[[1.0, 0.0]], y=[0.2], sigma_y=0.05)
    post = exact_posterior(prior, lik)
    ts = make_timesteps(50, 1000, t1=10)
    vi = ViPhaseSchedule.constant(0.01, 10)
    n_chains, n_seeds = 800, 20
    medians = []
    for r_val in (1, 2, 4, 6):
        vals = []
        for seed in range(n_seeds):
            cfg = MgdmConfig(
                timesteps=ts, R=r_val, M=10, vi=vi, conditional="vi", denoise="ddpm",
                index_dist=IndexDistribution(kind="near-zero"),
            )
            samples = mgdm_run_batch(lik, prior, sched, cfg, n_chains, np.random.default_rng((101, seed, r_val)))
            ref = post.sample(n_chains, np.random.default_rng((202, seed)))
            vals.append(
                sliced_wasserstein2(
                    samples, ref, n_projections=96, rng=np.random.default_rng(3)
                )
            )
        medians.append(float(np.median(vals)))
    assert all(b <= a + 1e-12 for a, b in zip(medians, medians[1:])), medians
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    report(8, f"median sliced-W2 non-increasing in R: {[round(m, 3) for m in medians]}", elapsed, 600.0)


def test_criterion_09_mh_correctness():
    """Detailed balance on the 3-point toy at 3 sigma over 1e6
    transitions; unit acceptance when the proposal equals the target."""
    started = time.perf_counter()
    support = np.array([-1.0, 0.0, 1.0])
    pi = np.array([0.5, 0.3, 0.2])
    q = np.array([0.2, 0.3, 0.5])
    rng = np.random.default_rng(1009)
    n = 1_000_000
    start_idx = rng.choice(3, size=n, p=pi)
    x = support[start_idx][:, None]

    def log_target(v):
        return np.log(pi[np.searchsorted(support, v[..., 0])])

    def log_proposal(v):
        return np.log(q[np.searchsorted(support, v[..., 0])])

    def draw_proposal(gen):
        return support[gen.choice(3, size=n, p=q)][:, None]

    out = independent_mh(lambda v: log_target(v) - log_proposal(v), draw_proposal, x, 1, rng)
    end_idx = np.searchsorted(support, out[:, 0])
    counts = np.zeros((3, 3))
    np.add.at(counts, (start_idx, end_idx), 1.0)
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(counts[i, j] - counts[j, i]) < 3 * math.sqrt(counts[i, j] + counts[j, i])

    # proposal == exact diagonal conditional: the log ratio is constant.
    sched = make_schedule("linear", 1000)
    prior = GaussianPrior(mean=np.zeros(2), cov=np.eye(2) * 0.8)
    lik = LinearGaussianLikelihood(A=np.eye(2) * 1.3, y=[0.4, -0.2], sigma_y=0.6)
    s, t = 100, 500
    x0, xt = np.array([0.3, 0.1]), np.array([-0.2, 0.5])
    mom = exact_conditional(lik, prior, sched, s, t, x0, xt)
    theta = np.array((mom.mean, np.log(np.diag(mom.cov))))
    p = sched.bridge_params(s, t)
    m_b = p.mean_coeff_x0 * x0 + p.mean_coeff_xt * xt
    rng2 = np.random.default_rng(1010)
    ratios = []
    for _ in range(100):
        z = variational_sample(theta, rng2)
        log_t = log_g_hat(lik, prior, sched, s, z) + gauss_log_density(z, m_b, p.variance)
        log_p = gauss_log_density(z, theta[0], np.exp(theta[1]))
        ratios.append(log_t - log_p)
    assert np.max(ratios) - np.min(ratios) < 1e-10
    elapsed = time.perf_counter() - started
    report(9, "detailed balance at 3 sigma + unit acceptance for exact proposal", elapsed)


def test_criterion_10_determinism_and_cli(tmp_path):
    """Smoke run < 5 s; identical seed+config produce byte-identical
    outputs; compare refuses a non-exact backend."""
    from mgdm import harness
    from mgdm.cli import main

    started = time.perf_counter()
    config = harness.smoke_config()
    t0 = time.perf_counter()
    harness.run_experiment(config, tmp_path / "a")
    smoke_elapsed = time.perf_counter() - t0
    assert smoke_elapsed < 5.0
    harness.run_experiment(config, tmp_path / "b")
    assert (tmp_path / "a/results.csv").read_bytes() == (tmp_path / "b/results.csv").read_bytes()
    assert (tmp_path / "a/summary.json").read_bytes() == (tmp_path / "b/summary.json").read_bytes()

    import json

    cfg_path = tmp_path / "cfg.json"
    bad = {
        "prior": {"kind": "gaussian", "mean": [0.0], "cov": [[1.0]]},
        "likelihood": {"kind": "linear", "A": [[1.0]], "y": [0.5], "sigma_y": 0.5},
        "schedule": {"family": "linear", "T": 1000},
        "sampler": {"algorithm": "mgdm", "K": 8, "backend": "vi", "index": {"kind": "fixed-midpoint"}},
        "n_runs": 50,
        "master_seed": 3,
    }
    cfg_path.write_text(json.dumps(bad))
    code = main(["compare", "--config", str(cfg_path), "--out", str(tmp_path / "cmp")])
    assert code == 1
    elapsed = time.perf_counter() - started
    report(10, f"smoke {smoke_elapsed:.2f}s < 5s, byte-identical reruns, compare precondition", elapsed)
