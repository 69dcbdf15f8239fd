"""Mixture-guided diffusion posterior sampling over analytic priors.

The package pairs a guided Gibbs sampler for Bayesian linear inverse
problems (with Gaussian or Gaussian-mixture diffusion priors) with exact
verification oracles: a closed-form moment recursion for the Gaussian
case and a 1-D quadrature engine for the extended target.
"""

__version__ = "0.1.0"
