"""Spatial hierarchical Bayesian extreme-value modeling of daily rainfall.

Fits a generative hierarchy of ordinary rainfall events (Weibull magnitudes
with Gumbel latent layers over space and time, binomial occurrence counts)
by Hamiltonian Monte Carlo, and derives posterior-predictive block-maxima
distributions, return levels, and gridded return-level fields, alongside
GEV and single-site hierarchical benchmarks.
"""

__version__ = "0.1.0"

from .data import Dataset, SiteCovariates, StandardizationSnapshot
from .hmc import PosteriorDraws, SamplerConfig, rhat_ess, run_hmc, trace_export
from .model import (
    GevPriorSpec,
    GevTarget,
    HmevPriorSpec,
    HmevTarget,
    ShmevParams,
    ShmevPriorSpec,
    ShmevTarget,
    shmev_gradient,
    shmev_log_posterior,
)
from .predictive import (
    MaximaCdfEstimate,
    PredictiveConfig,
    predictive_cdf,
    predictive_quantile,
)
from .simulate import ScenarioConfig, simulate_scenario, true_quantile_oracle

__all__ = [
    "__version__",
    "Dataset",
    "SiteCovariates",
    "StandardizationSnapshot",
    "PosteriorDraws",
    "SamplerConfig",
    "run_hmc",
    "rhat_ess",
    "trace_export",
    "ShmevParams",
    "ShmevPriorSpec",
    "ShmevTarget",
    "shmev_log_posterior",
    "shmev_gradient",
    "GevPriorSpec",
    "GevTarget",
    "HmevPriorSpec",
    "HmevTarget",
    "MaximaCdfEstimate",
    "PredictiveConfig",
    "predictive_cdf",
    "predictive_quantile",
    "ScenarioConfig",
    "simulate_scenario",
    "true_quantile_oracle",
]
