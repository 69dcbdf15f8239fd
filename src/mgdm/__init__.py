"""Mixture-guided diffusion posterior sampling over analytic priors.

The package pairs a guided Gibbs sampler for Bayesian linear inverse
problems (with Gaussian or Gaussian-mixture diffusion priors) with exact
verification oracles: a closed-form moment recursion for the Gaussian
case and a 1-D quadrature engine for the extended target.
"""

from .metrics import SampleSet, gaussian_kl, sliced_wasserstein2, wasserstein1_1d
from .moments import GaussianMoments
from .likelihoods import (
    LinearGaussianLikelihood,
    NonlinearLikelihood,
    PotentialEval,
    exact_log_g_t,
    likelihood_from_json,
    likelihood_to_json,
    linearized_potential,
    log_g_hat,
    quadratic_toy,
)
from .oracle import (
    FinalKernels,
    GridSpec,
    QuadratureJoint,
    auto_grids,
    build_final_kernels,
    build_kernels,
    oracle_recursion,
    quadrature_joint,
)
from .priors import (
    DenoiserOutput,
    GaussianPrior,
    GmmPrior,
    exact_posterior,
    prior_from_json,
    prior_to_json,
)
from .sampler import (
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
from .schedule import BridgeParams, NoiseSchedule, gauss_log_density, make_schedule
from .vi import (
    VariationalParams,
    ViConfig,
    bridge_init,
    exact_conditional,
    fit_variational,
    independent_mh,
    kl_gradient_estimate,
    mh_correct,
    reverse_kl_quadrature,
)

__version__ = "0.1.0"
