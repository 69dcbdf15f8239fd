"""Seeded outputs pinned to the values the sampler gave before the VI fit built its bridge
once per fit and the GMM prior kept its last level's constants; the GMM pins, to the values
before the guidance potential was split into its value and its gradient, the mixture weights
were clamped before their exp and an identity eigenbasis was skipped; the shared-covariance
pins, to the values before such mixtures took the closed-form denoiser; the rotated shared-covariance pin, to the
values before such mixtures under a linear likelihood were guided through A m_s(x) alone.

A performance change must leave every seeded output as it was; these tests carry that
check in the suite.  They compare at rtol 1e-10 rather than bit for bit, because another
BLAS or SIMD kernel may round differently.
"""

import csv

import numpy as np
import pytest

from mgdm import harness
from mgdm.likelihoods import LinearGaussianLikelihood
from mgdm.oracle import QuadratureJoint, auto_grids
from mgdm.priors import GaussianPrior, GmmPrior
from mgdm.schedule import make_schedule

# (x0_0, log_post) of runs 0-4 of harness.smoke_config() (VI backend, 1-D Gaussian prior).
SMOKE_RUNS = [
    (0.8286326472052196, -0.11626914820256884),
    (0.491260210911802, -0.35252022040318476),
    (-0.08880623685079013, -2.089160893649779),
    (0.5323397741804676, -0.29332456820203),
    (1.293111360546889, -0.7221166117386324),
]

# (x0_0, log_post) of runs 0-4 of the smoke config under a near-zero index law and under an explicit one (50 equal
# weights, which t_i = 40 cuts to 39 at the last step), pinned before the index law became per-step rows.
NEAR_ZERO_RUNS = [
    (0.5366740680274946, -0.2875709431105937),
    (0.4124506885274322, -0.4897057490447758),
    (0.3957604974132526, -0.5227435156165747),
    (0.07907152185247793, -1.4135642534978778),
    (0.8265363797856898, -0.1159800256179484),
]
EXPLICIT_RUNS = [
    (0.665307086625381, -0.159575029270979),
    (1.1841740061151345, -0.4831937444240011),
    (1.6327871531229474, -1.8480556830041812),
    (-0.35651003743076876, -3.4580082436829174),
    (1.5748281169461047, -1.615116104013239),
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

# The same of gmm_config(SHARED_COVS, "vi") and of gmm_config(SHARED_COVS, "vi-mh"): one covariance for both
# components, pinned before the denoiser of such mixtures took its closed form about the weighted mean.
GMM_SHARED_VI_RUNS = [
    (0.7324774269529636, 0.15169154178325236, -1.5938161343993245),
    (-0.42757558223580455, 0.5630246059761129, -1.4437051796565368),
    (0.6461304784030611, 0.9539884462783591, -2.8435054380053684),
    (0.3524877933210693, -0.7245547650576473, -1.6529282102357932),
    (0.7695658661326907, 0.3113834575645315, -1.9087694260705572),
]
GMM_SHARED_VIMH_RUNS = [
    (-0.31588371734956466, 0.1580482283879142, -1.0913605704979266),
    (0.6370213008264006, -0.0325424802482744, -1.3076652238457402),
    (0.1140161525551212, -0.2174726757721574, -0.6199849616484271),
    (0.5077418145981862, -0.35759835594058603, -1.3741362008924847),
    (0.6794309048562223, 0.2770567727750082, -1.3791843499667826),
]

# The same of gmm_config(ROTATED_SHARED_COVS, "vi-mh"): one covariance that is not diagonal, so the guidance
# through the observation changes basis; pinned before the VI guide and the MH potential took that form.
GMM_ROTATED_SHARED_VIMH_RUNS = [
    (-0.2651250385986338, 0.18038393853290696, -0.7141684117430565),
    (0.3525096435867736, -0.09933163294124507, -0.42783060430911046),
    (0.2108758030740687, 0.08812698218644908, 0.012901821085760268),
    (0.44270824461709357, -0.12380096666747484, -0.7046023311505111),
    (0.5275211421395943, 0.3087196671539898, -0.8181376950734047),
]

# Denoiser value and VJP of the MCGdiff grid mixture (25 unit-covariance components, d = 80) at the two
# points of mcgdiff_denoiser_fingerprint, pinned at the same time: per level t, (value, VJP), each given per
# point as its first 4 coordinates and its squared norm.
MCGDIFF_DENOISER = {
    1: (
        [[-17.864727757202214, 17.36460410198479, -15.278161283062682, 15.67915753153444, 20848.594088070473],
         [8.077924589595872, -15.570440146745476, 8.337377682989414, -17.21043701657852, 12858.530240969685]],
        [[0.2898036145745152, -0.542745304701482, -0.33398067364422135, -0.23115289757099594, 81.52688886525311],
         [0.1164679112850651, 0.6368726461729456, 1.650433597133776, 0.3716354471828404, 85.48843389689041]],
    ),
    200: (
        [[17.852311406464718, -0.4189687646316757, 17.08542514756246, 0.8305968316707416, 10466.067075204526],
         [-8.13021521634409, 0.332235253527592, -8.118136200272675, 1.0970390654430928, 2548.6424512899957]],
        [[0.5952506564162618, -0.6746657558892589, -0.5793268959555727, 0.6371081604567088, 76.57407204920412],
         [1.7632631111058483, -1.7403990756670984, 0.2604903871599675, -0.34111158031177125, 61.9817574777196]],
    ),
    999: (
        [[-13.507716972131817, -8.211163162080823, -13.476996867173051, -8.204787725993452, 10005.722164828496],
         [9.178417342567771, -0.4255837707763163, 9.076326946552207, -0.3173597923223733, 3366.805809059236]],
        [[-3.716030727225132, -4.51258861163963, -3.6487289816121224, -4.490175308521859, 1357.0302891467113],
         [-2.924184619246281, -5.287226120189675, -2.9319697038789116, -5.3249856269265905, 1448.4670270350657]],
    ),
}

# QuadratureJoint(...).log_z on the criterion-4 instance (s = 60, t = 400, 1024-point grids).
CRITERION_4_LOG_Z = -1.0469911914762742

ISOTROPIC_COVS = [[[0.3, 0.0], [0.0, 0.3]], [[0.5, 0.0], [0.0, 0.5]]]
NON_COMMUTING_COVS = [[[0.3, 0.1], [0.1, 0.4]], [[0.5, 0.0], [0.0, 0.2]]]
SHARED_COVS = [[[0.3, 0.0], [0.0, 0.3]], [[0.3, 0.0], [0.0, 0.3]]]
ROTATED_SHARED_COVS = [[[0.4, 0.15], [0.15, 0.3]], [[0.4, 0.15], [0.15, 0.3]]]


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


@pytest.mark.parametrize("index,pinned", [({"kind": "near-zero"}, NEAR_ZERO_RUNS),
                                          ({"kind": "explicit", "weights": [0.02] * 50}, EXPLICIT_RUNS)],
                         ids=["near-zero", "explicit"])
def test_smoke_runs_under_other_index_laws_match_pinned_values(tmp_path, index, pinned):
    config = harness.smoke_config()
    config["sampler"]["index"] = index
    got = first_rows(config, tmp_path, ("x0_0", "log_post"))
    np.testing.assert_allclose(got, pinned, rtol=1e-10, atol=0)


def test_gmm_isotropic_vi_mh_runs_match_pinned_values(tmp_path):
    got = first_rows(gmm_config(ISOTROPIC_COVS, "vi-mh"), tmp_path, ("x0_0", "x0_1", "log_post"))
    np.testing.assert_allclose(got, GMM_ISOTROPIC_VIMH_RUNS, rtol=1e-10, atol=0)


def test_gmm_non_commuting_vi_runs_match_pinned_values(tmp_path):
    got = first_rows(gmm_config(NON_COMMUTING_COVS, "vi"), tmp_path, ("x0_0", "x0_1", "log_post"))
    np.testing.assert_allclose(got, GMM_NON_COMMUTING_VI_RUNS, rtol=1e-10, atol=0)


@pytest.mark.parametrize("backend,pinned", [("vi", GMM_SHARED_VI_RUNS), ("vi-mh", GMM_SHARED_VIMH_RUNS)])
def test_gmm_shared_covariance_runs_match_pinned_values(tmp_path, backend, pinned):
    got = first_rows(gmm_config(SHARED_COVS, backend), tmp_path, ("x0_0", "x0_1", "log_post"))
    np.testing.assert_allclose(got, pinned, rtol=1e-10, atol=0)


def test_gmm_rotated_shared_covariance_vi_mh_runs_match_pinned_values(tmp_path):
    got = first_rows(gmm_config(ROTATED_SHARED_COVS, "vi-mh"), tmp_path, ("x0_0", "x0_1", "log_post"))
    np.testing.assert_allclose(got, GMM_ROTATED_SHARED_VIMH_RUNS, rtol=1e-10, atol=0)


def mcgdiff_denoiser_fingerprint():
    """{t: (value, VJP)} of the MCGdiff grid mixture at two points drawn from p_t, per point its first
    4 coordinates and its squared norm (the points and directions are drawn in this order from seed 2026)."""
    grid = np.array([[8.0 * i, 8.0 * j] for i in range(-2, 3) for j in range(-2, 3)])
    prior = GmmPrior(weights=np.full(25, 1.0 / 25), means=np.tile(grid, (1, 40)),
                     covs=np.broadcast_to(np.eye(80), (25, 80, 80)))
    sched = make_schedule("linear", 1000)
    rng = np.random.default_rng(2026)
    out = {}
    for t in MCGDIFF_DENOISER:
        x = sched.forward_sample(prior.sample(2, rng), 0, t, rng)
        u = rng.standard_normal(x.shape)
        den = prior.denoise(sched, t, x)
        out[t] = tuple(np.hstack([arr[:, :4], np.sum(arr * arr, axis=-1, keepdims=True)])
                       for arr in (den.value, den.vjp(u)))
    return out


def test_mcgdiff_denoiser_value_and_vjp_match_pinned_values():
    for t, (value, vjp) in mcgdiff_denoiser_fingerprint().items():
        np.testing.assert_allclose(value, MCGDIFF_DENOISER[t][0], rtol=1e-10, atol=0)
        np.testing.assert_allclose(vjp, MCGDIFF_DENOISER[t][1], rtol=1e-10, atol=0)


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
