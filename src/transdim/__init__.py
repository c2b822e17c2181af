"""Summarization of variable-dimensional posterior samples.

The package fits a parametric approximation (gated Gaussian components plus
a Poisson point process for outliers) to the output of trans-dimensional
samplers, and ships two such samplers for end-to-end experiments: one for
sinusoids in white noise, one for photoelectron count traces.
"""

from .fit import FitConfig, FitResult, sem_fit
from .model import (
    AllocationVector,
    ApproxModel,
    GaussianComponent,
    ParamSpace,
    SampleSet,
    VariableDimSample,
    model_intensity,
)
from .muons import (
    AugerChainConfig,
    PECountSignal,
    PulseShape,
    rjmcmc_run_auger,
    simulate_pe_signal,
)
from .sinusoid import (
    SinChainConfig,
    SinusoidSignal,
    generate_synthetic_signal,
    rjmcmc_run,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationVector",
    "ApproxModel",
    "AugerChainConfig",
    "FitConfig",
    "FitResult",
    "GaussianComponent",
    "PECountSignal",
    "ParamSpace",
    "PulseShape",
    "SampleSet",
    "SinChainConfig",
    "SinusoidSignal",
    "VariableDimSample",
    "generate_synthetic_signal",
    "model_intensity",
    "rjmcmc_run",
    "rjmcmc_run_auger",
    "sem_fit",
    "simulate_pe_signal",
]
