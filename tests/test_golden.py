"""Seeded outputs pinned to the values the sampler gave before the VI fit built its bridge
once per fit and the GMM prior kept its last level's constants; the GMM pins, to the values
before the guidance potential was split into its value and its gradient, the mixture weights
were clamped before their exp and an identity eigenbasis was skipped.

A performance change must leave every seeded output as it was; these tests carry that
check in the suite.  They compare at rtol 1e-10 rather than bit for bit, because another
BLAS or SIMD kernel may round differently.
"""

import csv

import numpy as np

from mgdm import harness
from mgdm.likelihoods import LinearGaussianLikelihood
from mgdm.oracle import QuadratureJoint, auto_grids
from mgdm.priors import GaussianPrior
from mgdm.schedule import make_schedule

# (x0_0, log_post) of runs 0-4 of harness.smoke_config() (VI backend, 1-D Gaussian prior).
SMOKE_RUNS = [
    (0.8286326472052196, -0.11626914820256884),
    (0.491260210911802, -0.35252022040318476),
    (-0.08880623685079013, -2.089160893649779),
    (0.5323397741804676, -0.29332456820203),
    (1.293111360546889, -0.7221166117386324),
]

# compare_to_oracle on the criterion-5 config (exact backend, K = 25, R = 4, 10,000 runs), master seed 1.
COMPARE_MEAN = [2.3258189466122934, -1.0332058270255076]
COMPARE_COV = [[0.23163379453655789, -0.043054988040844], [-0.043054988040844, 0.2448527458600678]]

# (x0_0, x0_1, log_post) of runs 0-4 of gmm_config(ISOTROPIC_COVS, "vi-mh"): identity basis plus MH.
GMM_ISOTROPIC_VIMH_RUNS = [
    (-0.2742844304868644, 0.20822972332543357, -1.1128258700960418),
    (0.5401378889773115, -0.18712070661471847, -1.0425656034693807),
    (0.2996845738715705, -0.35627320006235264, -0.7109221329107294),
    (0.6099896901711709, -0.6689080757667639, -1.4553811072969616),
    (0.6617293155770211, 0.11315233747794895, -1.4712764479698694),
]

# The same of gmm_config(NON_COMMUTING_COVS, "vi"): one eigenbasis per component (G = J).
GMM_NON_COMMUTING_VI_RUNS = [
    (0.673549526284026, -0.2366143940360256, -1.0056611367950832),
    (-0.3215741053915078, 0.3329090319110328, -1.6244018676595422),
    (0.7123706878784543, 0.6948239960347495, -2.7449137159641497),
    (0.48272005158025205, -0.9780121083189645, -1.6928307203998187),
    (0.7675155483032273, 0.08217215772512583, -1.7106581996812147),
]

# QuadratureJoint(...).log_z on the criterion-4 instance (s = 60, t = 400, 1024-point grids).
CRITERION_4_LOG_Z = -1.0469911914762742

ISOTROPIC_COVS = [[[0.3, 0.0], [0.0, 0.3]], [[0.5, 0.0], [0.0, 0.5]]]
NON_COMMUTING_COVS = [[[0.3, 0.1], [0.1, 0.4]], [[0.5, 0.0], [0.0, 0.2]]]


def gmm_config(covs, backend):
    """The smoke config with a two-component 2-D mixture prior and a 1-D observation."""
    config = harness.smoke_config()
    config["prior"] = {"kind": "gmm", "weights": [0.3, 0.7], "means": [[1.0, 1.0], [-1.0, -0.5]], "covs": covs}
    config["likelihood"] = {"kind": "linear", "A": [[1.0, 0.5]], "y": [0.3], "sigma_y": 0.3}
    config["sampler"]["backend"] = backend
    if backend == "vi-mh":
        config["sampler"]["mh_steps"] = 2
    return config


def criterion_5_config():
    return {
        "prior": {"kind": "gaussian", "mean": [1.0, -0.5], "cov": [[1.0, 0.3], [0.3, 0.7]]},
        "likelihood": {"kind": "linear", "A": [[1.0, 0.4], [0.0, 0.8]], "y": [2.4, -1.6], "sigma_y": 0.5},
        "schedule": {"family": "linear", "T": 1000},
        "sampler": {"algorithm": "mgdm", "K": 25, "R": 4, "backend": "exact", "index": {"kind": "fixed-midpoint"}},
        "n_runs": 10_000,
        "master_seed": 1,
    }


def first_rows(config, out_dir, columns):
    harness.run_experiment(config, out_dir)
    with open(out_dir / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))[:5]
    return [tuple(float(row[c]) for c in columns) for row in rows]


def test_smoke_runs_match_pinned_values(tmp_path):
    got = first_rows(harness.smoke_config(), tmp_path, ("x0_0", "log_post"))
    np.testing.assert_allclose(got, SMOKE_RUNS, rtol=1e-10, atol=0)


def test_gmm_isotropic_vi_mh_runs_match_pinned_values(tmp_path):
    got = first_rows(gmm_config(ISOTROPIC_COVS, "vi-mh"), tmp_path, ("x0_0", "x0_1", "log_post"))
    np.testing.assert_allclose(got, GMM_ISOTROPIC_VIMH_RUNS, rtol=1e-10, atol=0)


def test_gmm_non_commuting_vi_runs_match_pinned_values(tmp_path):
    got = first_rows(gmm_config(NON_COMMUTING_COVS, "vi"), tmp_path, ("x0_0", "x0_1", "log_post"))
    np.testing.assert_allclose(got, GMM_NON_COMMUTING_VI_RUNS, rtol=1e-10, atol=0)


def test_criterion_4_quadrature_log_z_matches_pinned_value():
    sched = make_schedule("linear", 1000)
    prior = GaussianPrior(mean=[0.3], cov=[[0.8]])
    lik = LinearGaussianLikelihood(A=[[1.1]], y=[0.7], sigma_y=0.5)
    s, t = 60, 400
    joint = QuadratureJoint(lik, prior, sched, s, t, auto_grids(lik, prior, sched, s, t, n=1024))
    np.testing.assert_allclose(joint.log_z, CRITERION_4_LOG_Z, rtol=1e-10, atol=0)


def test_criterion_5_compare_matches_pinned_moments(tmp_path):
    report = harness.compare_to_oracle(criterion_5_config(), tmp_path)
    np.testing.assert_allclose(report["empirical_mean"], COMPARE_MEAN, rtol=1e-10, atol=0)
    np.testing.assert_allclose(report["empirical_cov"], COMPARE_COV, rtol=1e-10, atol=0)
