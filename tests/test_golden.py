"""Seeded outputs pinned to the values the sampler gave before the VI fit built its bridge
once per fit and the GMM prior kept its last level's constants.

A performance change must leave every seeded output as it was; these tests carry that
check in the suite.  They compare at rtol 1e-10 rather than bit for bit, because another
BLAS or SIMD kernel may round differently.
"""

import csv

import numpy as np

from mgdm import harness

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


def criterion_5_config():
    return {
        "prior": {"kind": "gaussian", "mean": [1.0, -0.5], "cov": [[1.0, 0.3], [0.3, 0.7]]},
        "likelihood": {"kind": "linear", "A": [[1.0, 0.4], [0.0, 0.8]], "y": [2.4, -1.6], "sigma_y": 0.5},
        "schedule": {"family": "linear", "T": 1000},
        "sampler": {"algorithm": "mgdm", "K": 25, "R": 4, "backend": "exact", "index": {"kind": "fixed-midpoint"}},
        "n_runs": 10_000,
        "master_seed": 1,
    }


def test_smoke_runs_match_pinned_values(tmp_path):
    harness.run_experiment(harness.smoke_config(), tmp_path)
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))[:5]
    got = [(float(row["x0_0"]), float(row["log_post"])) for row in rows]
    np.testing.assert_allclose(got, SMOKE_RUNS, rtol=1e-10, atol=0)


def test_criterion_5_compare_matches_pinned_moments(tmp_path):
    report = harness.compare_to_oracle(criterion_5_config(), tmp_path)
    np.testing.assert_allclose(report["empirical_mean"], COMPARE_MEAN, rtol=1e-10, atol=0)
    np.testing.assert_allclose(report["empirical_cov"], COMPARE_COV, rtol=1e-10, atol=0)
